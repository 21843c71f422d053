//! Extension experiment: hot-cold mixing versus active geo-replication
//! (the paper's closest related work, discussed in Section 6).
//!
//! Runs the paper's system and a k-replica active-replication baseline
//! over the same markets and workloads, across RAM-bound and rate-bound
//! operating points, showing when each design wins.

use spotcache_bench::live::Flags;
use spotcache_bench::{dollars, heading, pct, print_table};
use spotcache_cloud::tracegen::paper_traces;
use spotcache_core::geo_baseline::{simulate_geo_baseline, GeoBaselineConfig};
use spotcache_core::simulation::{simulate, SimConfig};
use spotcache_core::Approach;

fn main() {
    let [quick] = Flags::switches(["--quick"]);
    let days = if quick { 21 } else { 90 };
    let traces = paper_traces(days);

    heading("Hot-cold mixing (Prop) vs active replication (related work [50])");

    let mut rows = Vec::new();
    for &(rate, wss, label) in &[
        (50_000.0, 200.0, "RAM-bound (50 kops, 200 GB)"),
        (320_000.0, 60.0, "balanced (320 kops, 60 GB)"),
        (1_000_000.0, 20.0, "rate-bound (1 Mops, 20 GB)"),
    ] {
        let mut prop_cfg = SimConfig::paper_default(Approach::Prop, rate, wss, 0.99);
        prop_cfg.days = days;
        let prop = simulate(&prop_cfg, &traces).expect("prop sim");
        rows.push(vec![
            label.to_string(),
            "Prop".into(),
            dollars(prop.total_cost()),
            pct(prop.violated_day_frac()),
            format!("{} revocations", prop.revocations),
        ]);
        for k in [2usize, 3] {
            let mut rep_cfg = GeoBaselineConfig::paper_default(k, rate, wss);
            rep_cfg.days = days;
            let rep = simulate_geo_baseline(&rep_cfg, &traces);
            rows.push(vec![
                String::new(),
                format!("Replication k={k}"),
                dollars(rep.total_cost()),
                pct(rep.violated_day_frac()),
                format!("{} losses, {} blackouts", rep.replica_losses, rep.blackouts),
            ]);
        }
    }
    print_table(
        &[
            "workload",
            "design",
            "total cost",
            "viol days",
            "failure events",
        ],
        &rows,
    );
    println!();
    println!("expected: replication pays ~k x the RAM bill (crushing for RAM-bound");
    println!("workloads) for near-perfect availability; mixing pays for the data once and");
    println!("approaches the same availability through bids, lifetimes, and the backup —");
    println!("the two designs are complementary, as the paper argues.");
}
