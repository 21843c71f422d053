//! Regenerates paper **Figure 7**: normalized costs (divided by `ODOnly`)
//! and the percentage of days the performance target is violated, for
//! `Prop_NoBackup` versus `OD+Spot_CDF`, with the tenant restricted to a
//! single spot market at a time.
//!
//! Paper setup: 500 kops peak, 100 GB working set, Zipf 2.0, 90-day traces.

use spotcache_bench::live::Flags;
use spotcache_bench::{heading, pct, print_table};
use spotcache_cloud::tracegen::paper_traces;
use spotcache_core::simulation::{simulate, SimConfig};
use spotcache_core::Approach;

fn main() {
    let [quick] = Flags::switches(["--quick"]);
    let days = if quick { 30 } else { 90 };
    let traces = paper_traces(days);

    heading("Figure 7: per-market normalized cost and violated days");
    println!("workload: 500 kops peak, 100 GB, Zipf 2.0, {days} days\n");

    let run = |approach: Approach, markets: &[spotcache_cloud::SpotTrace]| {
        let mut cfg = SimConfig::paper_default(approach, 500_000.0, 100.0, 2.0);
        cfg.days = days;
        simulate(&cfg, markets).expect("simulation")
    };

    let mut rows = Vec::new();
    for trace in &traces {
        let single = std::slice::from_ref(trace);
        let od_only = run(Approach::OdOnly, single);
        let prop = run(Approach::PropNoBackup, single);
        let cdf = run(Approach::OdSpotCdf, single);
        rows.push(vec![
            trace.market.short_label(),
            format!("{:.2}", prop.total_cost() / od_only.total_cost()),
            format!("{:.2}", cdf.total_cost() / od_only.total_cost()),
            pct(prop.violated_day_frac()),
            pct(cdf.violated_day_frac()),
            prop.revocations.to_string(),
            cdf.revocations.to_string(),
        ]);
    }
    print_table(
        &[
            "market",
            "cost Prop_NB",
            "cost OD+Spot_CDF",
            "viol days Prop_NB",
            "viol days CDF",
            "revs Prop_NB",
            "revs CDF",
        ],
        &rows,
    );
    println!();
    println!("costs normalized by ODOnly in the same market.");
    println!("paper: Prop_NoBackup matches OD+Spot_CDF cost within ~5% while violating the");
    println!("performance target on far fewer days (fewer spot revocations).");
}
