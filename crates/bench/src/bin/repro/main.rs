//! `repro <name>`: regenerates one table, figure, ablation or extension
//! experiment of the paper's evaluation on standard output — exactly the
//! bytes checked in as `results/<name>.txt`, which `ci.sh` diffs for every
//! name. `repro --list` prints the names, one a line; anything else exits
//! non-zero and lists them.
//!
//! Experiments are plain functions in [`EXPERIMENTS`]. What they share is
//! written once, here: the market traces ([`markets`] is the only place
//! the trace source is named), the hourly simulator call ([`run`]), the
//! `ODOnly` normaliser ([`od_only_cost`]), the worst-hour fold
//! ([`worst_hour_affected`]) and the Zipf-label mapping ([`zipf_theta`]).

mod ablations;
mod extensions;
mod figures;
mod tables;

use spotcache_cloud::tracegen::paper_traces;
use spotcache_cloud::SpotTrace;
use spotcache_core::simulation::{simulate, SimConfig, SimResult};
use spotcache_core::Approach;

/// Every experiment, in `--list` order.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("fig5", figures::fig5),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("ablation_percentile", ablations::percentile),
    ("ablation_hotdef", ablations::hotdef),
    ("ablation_dealloc", ablations::dealloc),
    ("ablation_zeta", ablations::zeta),
    ("ablation_solver", ablations::solver),
    ("ablation_diurnal", ablations::diurnal),
    ("flash_crowd", extensions::flash_crowd),
    ("correlated_failures", extensions::correlated_failures),
    ("write_tier", extensions::write_tier),
    ("replication_compare", extensions::replication_compare),
    ("preemptible_compare", extensions::preemptible_compare),
    ("queueing_compare", extensions::queueing_compare),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = || EXPERIMENTS.iter().map(|(name, _)| *name);
    let experiment = match args.as_slice() {
        [arg] if arg == "--list" => return names().for_each(|name| println!("{name}")),
        [arg] => EXPERIMENTS.iter().find(|(name, _)| name == arg),
        _ => None,
    };
    match experiment {
        Some((_, experiment)) => experiment(),
        None => {
            eprintln!("usage: repro <name> | repro --list");
            eprintln!("names: {}", names().collect::<Vec<_>>().join(" "));
            std::process::exit(2);
        }
    }
}

/// The paper's evaluation horizon, days.
const PAPER_DAYS: u64 = 90;

/// The four evaluation spot markets over `days` days. Every experiment
/// gets its traces here, so swapping the generator for recorded price
/// histories is a change to this function alone.
fn markets(days: u64) -> Vec<SpotTrace> {
    paper_traces(days)
}

/// The 90-day trace of the market with short label `label`.
fn market(label: &str) -> SpotTrace {
    markets(PAPER_DAYS)
        .into_iter()
        .find(|t| t.market.short_label() == label)
        .unwrap_or_else(|| panic!("no market {label}"))
}

/// Runs the hourly simulator.
fn run(cfg: &SimConfig, traces: &[SpotTrace]) -> SimResult {
    simulate(cfg, traces).expect("simulation")
}

/// Total 90-day cost of `ODOnly` for a workload over `traces`: what every
/// "norm cost" column divides by.
fn od_only_cost(rate: f64, wss_gb: f64, theta: f64, traces: &[SpotTrace]) -> f64 {
    let cfg = SimConfig::paper_default(Approach::OdOnly, rate, wss_gb, theta);
    run(&cfg, traces).total_cost()
}

/// Worst single-hour affected fraction of a run.
fn worst_hour_affected(r: &SimResult) -> f64 {
    r.slots
        .iter()
        .map(|h| h.affected_frac)
        .fold(0.0f64, f64::max)
}

/// The paper labels its moderate-skew workloads "Zipf 1.0"; the YCSB
/// sampler is singular at exactly 1, so that label means θ = 0.99.
fn zipf_theta(label: f64) -> f64 {
    if label == 1.0 {
        0.99
    } else {
        label
    }
}
