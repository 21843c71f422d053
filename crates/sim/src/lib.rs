#![warn(missing_docs)]

//! Cluster simulation for `spotcache`.
//!
//! * [`metrics`] — latency histograms and per-day violation accounting,
//! * `cluster` — request-level latency sampling over loaded nodes, and
//! * [`recovery`] — the one warm-up model of a revoked node
//!   ([`Warmup`]: backup pump through the burstable token buckets,
//!   back-end-throttled organic refill), the back-end's miss-flood
//!   latency ([`sample_backend_misses`]) and the recovery timelines
//!   (paper Figures 4 and 11) that step it.

mod cluster;
pub mod metrics;
pub mod recovery;

pub use cluster::{sample_cluster_latency, NodeLoad};
pub use metrics::{ControlMetrics, LatencyHistogram, SlotRecord, ViolationTracker};
pub use recovery::{sample_backend_misses, simulate_recovery, RecoveryConfig, Warmup};
