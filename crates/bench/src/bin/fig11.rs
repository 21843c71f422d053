//! Regenerates paper **Figure 11**: recovery latency after a spot
//! revocation.
//!
//! * (a) the recovery latency timeline under different backup choices —
//!   t2.medium (burstable), m3.medium and c3.large (regular), no backup,
//!   and the `OD+Spot_Sep` case where only cold data is lost;
//! * (b) `--warmup`: warm-up time and burst-credit-earn time across
//!   popularity skews and burstable types;
//! * `--cases`: the Figure 4 recovery cases (replacement ready before /
//!   after revocation).

use spotcache_bench::live::Flags;
use spotcache_bench::{heading, print_table};
use spotcache_cloud::burstable::BurstableState;
use spotcache_cloud::catalog::find_type;
use spotcache_sim::recovery::{simulate_recovery, BackupChoice, RecoveryConfig};

fn main() {
    let [warmup, cases] = Flags::switches(["--warmup", "--cases"]);

    figure11a();
    // No flags at all also prints the warm-up panel.
    if warmup || !cases {
        figure11b();
    }
    if cases {
        figure4_cases();
    }
}

fn figure11a() {
    heading("Figure 11(a): recovery latency by backup choice");
    println!("scenario: 40 kops, 10 GB working set, 3 GB hot, Zipf 1.0; t=0 is");
    println!("replacement-ready; copy pump runs hottest-first from the backup\n");

    let scenarios: Vec<(&str, RecoveryConfig)> = vec![
        (
            "t2.medium",
            RecoveryConfig::figure11(BackupChoice::Instance(find_type("t2.medium").unwrap())),
        ),
        (
            "c3.large",
            RecoveryConfig::figure11(BackupChoice::Instance(find_type("c3.large").unwrap())),
        ),
        (
            "m3.medium",
            RecoveryConfig::figure11(BackupChoice::Instance(find_type("m3.medium").unwrap())),
        ),
        (
            "Prop_NoBackup",
            RecoveryConfig::figure11(BackupChoice::None),
        ),
        ("OD+Spot_Sep", {
            let mut c = RecoveryConfig::figure11(BackupChoice::None);
            c.hot_mass_lost = 0.0;
            c.lost_hot_gb = 0.0;
            c.cold_mass_lost = 0.05;
            c.lost_cold_gb = 7.0;
            c
        }),
    ];

    let mut summary = Vec::new();
    for (name, cfg) in &scenarios {
        let tl = simulate_recovery(cfg);
        let sample_points = [0u64, 30, 60, 120, 180, 300, 450, 600, 899];
        let rows: Vec<Vec<String>> = sample_points
            .iter()
            .map(|&t| {
                let p = tl.points[t as usize];
                vec![
                    format!("{t}"),
                    format!("{:.0}", p.avg_us),
                    format!("{:.0}", p.p95_us),
                    format!("{:.2}", p.warmed_mass),
                ]
            })
            .collect();
        heading(name);
        print_table(&["t (s)", "avg us", "p95 us", "warmed mass"], &rows);
        summary.push(vec![
            name.to_string(),
            tl.recovered_at
                .map_or("> horizon".into(), |r| format!("{r} s")),
            format!("{:.0}", tl.overall_p95()),
        ]);
    }

    heading("Figure 11(a) summary");
    print_table(
        &["backup", "recovered at", "mean p95 over horizon (us)"],
        &summary,
    );
    println!();
    println!("paper: copying finishes around t=300 for t2.medium; t2.medium matches the ~2x");
    println!("pricier c3.large and beats m3.medium (p95 during recovery ~25% better);");
    println!("OD+Spot_Sep loses no hot data and degrades least; no backup degrades most.");
}

fn figure11b() {
    heading("Figure 11(b): warm-up time vs popularity skew and burstable type");

    let mut rows = Vec::new();
    for itype_name in ["t2.small", "t2.medium", "t2.large"] {
        let itype = find_type(itype_name).unwrap();
        for theta in [0.5, 0.99, 2.0] {
            let mut cfg = RecoveryConfig::figure11(BackupChoice::Instance(itype));
            cfg.theta = theta;
            // Dataset sized to the backup's RAM (paper: "closest to their
            // RAM capacities").
            cfg.lost_hot_gb = itype.ram_gb * 0.85;
            cfg.horizon_secs = 3_600;
            let tl = simulate_recovery(&cfg);
            // Credits needed to burst for the whole warm-up, and the idle
            // time to earn them.
            let spec = itype.burst.unwrap();
            let warm = tl.recovered_at.unwrap_or(cfg.horizon_secs) as f64;
            let tokens_needed = (spec.peak_vcpus - spec.base_vcpus) * warm;
            let bucket = BurstableState::for_type(&itype).unwrap();
            let mut empty = bucket.cpu;
            empty.run(spec.peak_vcpus, 1e7); // drain fully
            let earn = empty
                .bucket()
                .time_to_earn(tokens_needed)
                .unwrap_or(f64::INFINITY);
            rows.push(vec![
                itype_name.into(),
                format!("{theta}"),
                format!("{:.1}", cfg.lost_hot_gb),
                tl.recovered_at.map_or("> 3600".into(), |r| format!("{r}")),
                format!("{:.0}", earn / 60.0),
            ]);
        }
    }
    print_table(
        &["type", "zipf", "hot GB", "warm-up (s)", "credit-earn (min)"],
        &rows,
    );
    println!();
    println!("paper: warm-up is longer for flatter popularity (more keys needed before");
    println!("latency normalizes) and shorter for larger burstable types; the credit-earn");
    println!("column bounds how often the backup could absorb a failure.");
}

fn figure4_cases() {
    heading("Figure 4 cases: replacement timing");
    let itype = find_type("t2.medium").unwrap();
    let mut rows = Vec::new();
    for (name, ready_at, serve) in [
        (
            "case 1(a)/1(b): R ready at revocation, B pumps",
            0u64,
            false,
        ),
        ("case 1(b) events 4-7: B also serves reads", 0, true),
        ("case 2: R ready 120 s after revocation", 120, false),
    ] {
        let mut cfg = RecoveryConfig::figure11(BackupChoice::Instance(itype));
        cfg.replacement_ready_at = ready_at;
        cfg.serve_from_backup = serve;
        let tl = simulate_recovery(&cfg);
        rows.push(vec![
            name.to_string(),
            tl.recovered_at
                .map_or("> horizon".into(), |r| format!("{r} s")),
            format!("{:.0}", tl.points[10].avg_us),
            format!("{:.0}", tl.overall_p95()),
        ]);
    }
    print_table(
        &["case", "recovered at", "avg us @ t=10s", "mean p95 (us)"],
        &rows,
    );
}
