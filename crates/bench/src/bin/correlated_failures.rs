//! Extension experiment: the availability floor ζ under *correlated*
//! market failures.
//!
//! With independent markets (the base tracegen), simultaneous multi-market
//! failures are rare and ζ buys little (see `ablation_zeta`). Real regions
//! have shared demand shocks; this binary regenerates the ζ sweep over
//! markets coupled by a regional shock schedule, where the on-demand floor
//! becomes genuine insurance.

use spotcache_bench::live::Flags;
use spotcache_bench::{heading, pct, print_table};
use spotcache_cloud::tracegen::{correlated_paper_traces, paper_traces};
use spotcache_core::simulation::{simulate, SimConfig};
use spotcache_core::Approach;

fn main() {
    let [quick] = Flags::switches(["--quick"]);
    let days = if quick { 30 } else { 90 };

    for (name, traces) in [
        ("independent markets", paper_traces(days)),
        (
            "correlated markets (regional shocks)",
            correlated_paper_traces(days),
        ),
    ] {
        heading(&format!("zeta sweep: {name}"));
        let base = {
            let mut cfg = SimConfig::paper_default(Approach::OdOnly, 500_000.0, 100.0, 2.0);
            cfg.days = days;
            simulate(&cfg, &traces).unwrap().total_cost()
        };
        let mut rows = Vec::new();
        for zeta in [0.0, 0.1, 0.3] {
            let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 500_000.0, 100.0, 2.0);
            cfg.days = days;
            cfg.controller.cost.zeta = zeta;
            let r = simulate(&cfg, &traces).unwrap();
            let worst = r
                .slots
                .iter()
                .map(|h| h.affected_frac)
                .fold(0.0f64, f64::max);
            rows.push(vec![
                format!("{zeta}"),
                format!("{:.3}", r.total_cost() / base),
                pct(r.violated_day_frac()),
                r.revocations.to_string(),
                format!("{worst:.3}"),
            ]);
        }
        print_table(
            &[
                "zeta",
                "norm cost",
                "viol days",
                "revocations",
                "worst-hour affected",
            ],
            &rows,
        );
    }
    println!();
    println!("expected: under regional shocks several markets fail together, violations");
    println!("climb, and the on-demand floor starts earning its premium — the scenario");
    println!("the paper's zeta constraint is written for.");
}
