#![warn(missing_docs)]

//! The paper's online procurement optimizer (Section 4.1).
//!
//! At the start of every control slot the global controller builds a
//! [`problem::ProcurementProblem`] from (a) forecasts of arrival rate and
//! working-set size, (b) spot feature predictions per (market, bid), and
//! (c) the performance profile, then solves for how many instances to run
//! under every offer and which hot/cold fractions of the working set to
//! place on each — the paper's `N^{sb}`, `Ñ^{sb}`, `x^{sb}`, `y^{sb}`.
//!
//! * [`simplex`] — an exact two-phase LP solver (dense tableau, Bland's
//!   rule), the machinery under the relaxation.
//! * [`latency`] — the `φ(λ, vCPU, RAM)` performance profile and the
//!   derived per-instance rate caps `λ^{sb}`.
//! * [`problem`] — the formulation (Eq. 1–2, bid-failure penalty,
//!   deallocation damping, `ζ` availability floor) and the
//!   relax-round-repair solve strategy.
//! * `plan` — the resulting allocation plan and its per-instance weight
//!   expansion for the load balancer.

pub mod latency;
mod plan;
pub mod problem;
pub mod queueing;
pub mod simplex;

pub use plan::{AllocationPlan, PlanEntry};
pub use problem::{OfferKind, SolveError, WorkloadForecast};
