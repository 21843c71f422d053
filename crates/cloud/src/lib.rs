#![warn(missing_docs)]

//! EC2 substrate simulator for `spotcache`.
//!
//! This crate models every cloud-side mechanism the paper's evaluation
//! depends on:
//!
//! * [`mod@catalog`] — the 2016-era EC2 instance catalog (m3/m4/c3/c4/r3 regular
//!   families plus the t2 burstable family) with vCPU, RAM, network bandwidth
//!   and on-demand prices (paper Tables 1 and 3).
//! * [`pricing`] — the linear-regression price model
//!   `p = 0.0397·vCPU + 0.0057·GB` the paper fits with R² = 0.99.
//! * [`spot`] — spot markets, bids, price traces and revocation semantics.
//! * [`tracegen`] — a seeded synthetic 90-day spot-price process calibrated
//!   to the qualitative features of the paper's Figure 2 traces.
//! * [`burstable`] — the deterministic CPU-credit and network token buckets
//!   of t2 instances (paper Figure 5).
//! * [`provider`] — VM lifecycle: launch delay, running, the 2-minute
//!   revocation warning, termination.
//! * [`billing`] — a cost ledger with per-category breakdowns (paper
//!   Figure 12).
//!
//! All simulated time is in seconds (`u64`) from an arbitrary epoch; prices
//! are US dollars per hour unless stated otherwise.

pub mod billing;
pub mod burstable;
pub mod catalog;
pub mod preemptible;
pub mod pricing;
pub mod provider;
pub mod spot;
// ROADMAP 13(b): the price-history loader that gains stale/gap checks.
pub mod tracefile;
pub mod tracegen;

pub use catalog::InstanceType;
pub use spot::{Bid, SpotTrace};

/// One hour, in simulated seconds.
pub const HOUR: u64 = 3_600;
/// One day, in simulated seconds.
pub const DAY: u64 = 24 * HOUR;
/// Spot price trace resolution used throughout the repo (5 minutes).
pub const TRACE_STEP: u64 = 300;
/// Advance warning EC2 gives before revoking a spot instance (2 minutes).
pub(crate) const REVOCATION_WARNING: u64 = 120;
/// Typical launch latency of a small/medium on-demand instance (~100 s,
/// per the measurement studies the paper cites).
pub(crate) const LAUNCH_DELAY: u64 = 100;
