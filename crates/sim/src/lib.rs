#![warn(missing_docs)]

//! Cluster simulation for `spotcache`.
//!
//! * [`metrics`] — latency histograms and per-day violation accounting,
//! * `cluster` — request-level latency sampling over loaded nodes, and
//! * [`recovery`] — the one warm-up model of a revoked node
//!   ([`Warmup`]: backup pump through the burstable token buckets,
//!   back-end-throttled organic refill) and the recovery timelines
//!   (paper Figures 4 and 11) that step it.

mod cluster;
pub mod metrics;
pub mod recovery;

pub use cluster::{sample_cluster_latency, NodeLoad};
pub use metrics::{ControlMetrics, LatencyHistogram, SlotRecord, ViolationTracker};
pub use recovery::{
    simulate_recovery, BackupChoice, RecoveryConfig, Warmup, DEFAULT_BACKEND_CAPACITY_OPS,
};
