#![warn(missing_docs)]

//! The `spotcache` system core: the paper's global controller, the six
//! procurement approaches, backup sizing, and the simulation drivers behind
//! every evaluation figure.
//!
//! * [`approaches`] — `ODPeak`, `ODOnly`, `OD+Spot_Sep`, `OD+Spot_CDF`,
//!   `Prop_NoBackup`, `Prop` (paper Table 4),
//! * [`controller`] — forecast → predict → optimize → publish, once per
//!   control slot (paper Section 4.2),
//! * [`controlplane`] — the shared [`Substrate`] trait and [`ControlLoop`]
//!   driver scheduling every execution mode on the simulation engine's
//!   event queue,
//! * [`backup`] — burstable passive-backup sizing (Section 3.3),
//! * [`simulation`] — 90-day hourly cost/violation simulation (Figures 7,
//!   12, 13), and
//! * [`prototype`] — per-minute single-day latency emulation (Figures 9,
//!   10), and
//! * [`geo_baseline`] — the active geo-replication simulation baseline
//!   (Xu et al., the paper's reference \[50\]).
//!
//! The live warm-up pump is `spotcache_recovery::replay`, the Replay arm
//! of the unified recovery layer.

pub mod approaches;
pub mod backup;
pub mod cluster;
pub mod controller;
pub mod controlplane;
pub mod geo_baseline;
pub mod prototype;
pub mod reactive;
pub mod simulation;

pub use approaches::Approach;
pub use backup::{cheapest_burstable_backup, size_backup, BackupPlan};
pub use cluster::{ClusterStats, LiveCluster, LiveClusterConfig, LiveSubstrate, ServeOutcome};
pub use controller::{ControllerConfig, GlobalController, SlotPlan};
pub use controlplane::{
    cold_access_mass, hot_access_mass, ControlLoop, Demand, Observation, Schedule, Substrate,
    SubstrateEvent,
};
pub use geo_baseline::{simulate_geo_baseline, GeoBaselineConfig, GeoBaselineResult};
pub use prototype::{run_prototype, MinutePrototype, PrototypeConfig, PrototypeResult};
pub use reactive::{ReactiveConfig, ReactiveController};
pub use simulation::{simulate, FlashCrowd, HourlySim, SimConfig, SimResult};
