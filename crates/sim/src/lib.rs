#![warn(missing_docs)]

//! Cluster simulation for `spotcache`.
//!
//! * [`metrics`] — latency histograms and per-day violation accounting,
//! * `cluster` — request-level latency sampling over loaded nodes, and
//! * [`recovery`] — spot-revocation recovery timelines (paper Figure 4),
//!   including burstable-backup token dynamics (Figure 11).

mod cluster;
pub mod metrics;
pub mod recovery;

pub use cluster::{sample_cluster_latency, NodeLoad};
pub use metrics::{ControlMetrics, LatencyHistogram, SlotRecord, ViolationTracker};
pub use recovery::{
    simulate_recovery, BackupChoice, RecoveryConfig, WarmupModel, COPY_ITEMS_PER_VCPU,
    DEFAULT_BACKEND_CAPACITY_OPS,
};
