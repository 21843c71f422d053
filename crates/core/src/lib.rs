#![warn(missing_docs)]

//! The `spotcache` system core: the paper's global controller, the six
//! procurement approaches, backup sizing, and the simulation drivers behind
//! every evaluation figure.
//!
//! * `approaches` — `ODPeak`, `ODOnly`, `OD+Spot_Sep`, `OD+Spot_CDF`,
//!   `Prop_NoBackup`, `Prop` (paper Table 4),
//! * [`controller`] — forecast → predict → optimize → publish, once per
//!   control slot (paper Section 4.2),
//! * [`controlplane`] — the shared [`Substrate`] trait and the
//!   [`ControlLoop`] driver every execution mode runs under,
//! * [`backup`] — burstable passive-backup sizing (Section 3.3),
//! * [`simulation`] — 90-day hourly cost/violation simulation (Figures 7,
//!   12, 13), and
//! * [`prototype`] — per-minute single-day latency emulation (Figures 9,
//!   10), and
//! * [`geo_baseline`] — the active geo-replication simulation baseline
//!   (Xu et al., the paper's reference \[50\]).
//!
//! The live substrate the same [`ControlLoop`] drives is
//! `spotcache_bench::fleet::FleetSubstrate`: reactor servers with
//! replicated backups, restored through `spotcache_recovery`'s strategies.

mod approaches;
pub mod backup;
pub mod controller;
pub mod controlplane;
pub mod geo_baseline;
pub mod prototype;
mod reactive;
pub mod simulation;

pub use approaches::Approach;
pub use controller::{ControllerConfig, GlobalController, SlotPlan};
pub use controlplane::{ControlLoop, Demand, Observation, Schedule, Substrate, SubstrateEvent};
pub use simulation::SimResult;
