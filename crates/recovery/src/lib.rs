#![warn(missing_docs)]

//! The unified recovery layer: everything that brings a replacement
//! cache node up after a spot revocation (paper §3.3, ROADMAP items
//! 2–3, ADR-003).
//!
//! Recovery used to be smeared across four modules — the live
//! replication stream in `cache::replication`, the warm-up pump in
//! `core::drill`, the token-bucket model in `sim::recovery`, and the
//! phase machine in `router::degraded` — with no way to express the
//! checkpoint/resume pattern the spot literature favors. This crate
//! pulls the restore path under one roof:
//!
//! * the live replication primitives (mutation tap, queue, acked
//!   shipper) are [`spotcache_cache::replication`]: they stay in the
//!   cache crate because the tap is wired into the store's write path.
//! * [`replay`] — the token-bucket warm-up pump (moved here from
//!   `core::drill`, whose deprecation-period shim has since been
//!   removed; this is now its only home).
//! * [`checkpoint`] — the new `spotcache-ckpt-v1` streaming codec:
//!   slab-class-aware, CRC-framed full-state snapshots with TTLs
//!   re-based on restore.
//! * [`strategy`] — [`RecoveryStrategy`] (Replay | Hybrid) selecting
//!   between them, and labelling the in-flight restore for
//!   `router::degraded`.
//!
//! The `revocation_drill` bench bin drills both strategies against
//! real servers and link faults; `BENCH_drill.json`
//! (`spotcache-drill-v3`) holds the measured recovery-time and
//! staleness curves.

pub mod checkpoint;
pub mod replay;
pub mod strategy;

pub use checkpoint::{
    restore_checkpoint, write_checkpoint, CheckpointConfig, CkptError, CkptRestoreReport,
    CkptWriteReport,
};
pub use replay::{pump_hot_set, WarmupConfig, WarmupReport};
pub use strategy::{RecoveryStrategy, RestoreContext, RestoreReport, TopUpConfig};
