#![warn(missing_docs)]

//! Workload generation (paper Section 5.1).
//!
//! The paper drives its evaluation with (a) YCSB-generated request streams
//! with Zipfian popularity (parameter 0.5–2.0) and (b) the Wikipedia access
//! trace scaled to different peak arrival rates and working-set sizes. This
//! crate provides both:
//!
//! * [`zipf`] — the YCSB Zipfian and scrambled-Zipfian generators plus the
//!   analytic [`zipf::PopularityModel`] (`F(·)` in the paper's optimizer),
//! * [`wikipedia`] — a seeded diurnal arrival-rate / working-set trace with
//!   the Wikipedia trace's shape, rescalable to any peak, and
//! * [`facebook`] — the Facebook USR/ETC request mixes over scrambled
//!   Zipfian keys.

// ROADMAP 9: the churning key population the measured hot set must follow.
mod churn;
pub mod facebook;
pub mod wikipedia;
mod ycsb;
pub mod zipf;

pub use churn::ChurnWorkload;
pub use wikipedia::WikipediaTrace;
