//! The five workloads. Names are fixed: later issues cite them.

pub mod closed;
pub mod paced_get;
pub mod plan_90d;
pub mod revocation;

use crate::harness::{RunArgs, RunOutput};
use crate::host;

/// Every workload, in the order the suite runs them.
pub const NAMES: [&str; 5] = [
    "paced_get",
    "pipelined_mix",
    "write_evict",
    "revocation",
    "plan_90d",
];

/// Runs one workload.
pub fn run(name: &str, args: &RunArgs) -> Result<RunOutput, String> {
    let fresh_page_us = host::fresh_page_us();
    // The calling thread is the load generator (and the planner): it owns
    // the last CPU for the whole process.
    let pinned = host::pin_thread(0, host::loadgen_cpu());
    let mut out = match name {
        "paced_get" => paced_get::run(args, pinned),
        "pipelined_mix" => closed::run(&closed::PIPELINED_MIX, args, pinned),
        "write_evict" => closed::run(&closed::WRITE_EVICT, args, pinned),
        "revocation" => revocation::run(args, pinned),
        "plan_90d" => plan_90d::run(args, pinned),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    out.set("host.fresh_page_us", fresh_page_us);
    Ok(out)
}
