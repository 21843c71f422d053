//! Paper Figures 1, 2, 5 and 7–13 (Figure 4's recovery cases ride with
//! Figure 11).

use spotcache_bench::{dollars, heading, pct, print_table};
use spotcache_cloud::billing::CostCategory;
use spotcache_cloud::burstable::{BurstableCpu, BurstableNet, BurstableState};
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::spot::Bid;
use spotcache_cloud::{SpotTrace, DAY};
use spotcache_core::controller::ControllerConfig;
use spotcache_core::prototype::{run_prototype, PrototypeConfig, PrototypeResult};
use spotcache_core::simulation::SimConfig;
use spotcache_core::Approach;
use spotcache_sim::recovery::{simulate_recovery, BackupChoice, RecoveryConfig};
use spotcache_sim::SlotRecord;
use spotcache_spotmodel::{below_bid_runs, CdfPredictor, SpotPredictor, TemporalPredictor};

use crate::{market, markets, od_only_cost, run, zipf_theta, PAPER_DAYS};

/// **Figure 1**: the lifetime `L(b)` and average-price `p(b)` definitions,
/// demonstrated by extracting the below-bid runs of one week of one trace.
pub fn fig1() {
    heading("Figure 1 demo: below-bid runs (lifetime L(b), avg price p(b))");
    let t = market("m4.XL-c");
    let bid = Bid(t.od_price);
    let runs = below_bid_runs(&t, 30 * DAY, 37 * DAY, bid);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .take(15)
        .map(|r| {
            vec![
                format!("day {:.2}", r.start as f64 / DAY as f64),
                format!("{:.2} h", r.len as f64 / 3_600.0),
                format!("{:.4}", r.avg_price),
                if r.censored { "censored" } else { "complete" }.into(),
            ]
        })
        .collect();
    print_table(&["run start", "L(b)", "p(b)", ""], &rows);
    println!();
    println!(
        "market {} at bid 1d = {:.4} $/h",
        t.market.short_label(),
        bid.dollars()
    );
}

/// **Figure 2**: the 90-day spot price traces of the four evaluation
/// markets, printed as summary statistics plus a daily-resolution series.
pub fn fig2() {
    let traces = markets(PAPER_DAYS);

    heading("Figure 2: 90-day spot price traces (summary)");
    let rows: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            let mut sorted = t.prices.clone();
            sorted.sort_by(f64::total_cmp);
            let med = sorted[sorted.len() / 2];
            let mean = t.prices.iter().sum::<f64>() / t.prices.len() as f64;
            let above =
                t.prices.iter().filter(|&&p| p > t.od_price).count() as f64 / t.prices.len() as f64;
            vec![
                t.market.short_label(),
                format!("{:.4}", t.od_price),
                format!("{:.4}", sorted[0]),
                format!("{med:.4}"),
                format!("{mean:.4}"),
                format!("{:.4}", sorted[sorted.len() - 1]),
                format!("{:.1}%", 100.0 * above),
                format!("{:.2}", med / t.od_price),
            ]
        })
        .collect();
    print_table(
        &[
            "market",
            "OD $/h",
            "min",
            "median",
            "mean",
            "max",
            "% above OD",
            "median/OD",
        ],
        &rows,
    );

    heading("Daily mean price (series, $/h)");
    for t in &traces {
        let mut line = format!("{:>8}:", t.market.short_label());
        for day in (0..PAPER_DAYS).step_by(5) {
            let mean = t.mean_price(day * DAY, (day + 1) * DAY).unwrap_or(0.0);
            line.push_str(&format!(" {mean:.3}"));
        }
        println!("{line}  (every 5th day)");
    }
}

/// **Figure 5**: the deterministic token-bucket dynamics of a t2.micro's
/// CPU capacity and network bandwidth — burst from a full bucket, collapse
/// to baseline, then recovery while idle.
pub fn fig5() {
    let spec = find_type("t2.micro")
        .expect("catalog")
        .burst
        .expect("burstable");

    heading("Figure 5a: t2.micro CPU under sustained 100% demand, then idle");
    let mut cpu = BurstableCpu::new(&spec);
    let mut rows = Vec::new();
    // 60 minutes of full demand, sampled every 5 minutes.
    for min in (0..=60).step_by(5) {
        let achieved = if min == 0 {
            spec.peak_vcpus
        } else {
            cpu.run(spec.peak_vcpus, 300.0)
        };
        rows.push(vec![
            format!("{min} min"),
            format!("{achieved:.2} vCPU"),
            format!("{:.1}", cpu.credits()),
        ]);
    }
    // Then idle: credits bank back at 6/hour.
    let mut last_min = 60u64;
    for min in [120u64, 180, 360] {
        cpu.idle(((min - last_min) * 60) as f64);
        last_min = min;
        rows.push(vec![
            format!("{min} min (idle)"),
            format!("{:.2} vCPU avail", cpu.bucket().current_rate()),
            format!("{:.1}", cpu.credits()),
        ]);
    }
    print_table(&["t", "achieved CPU", "credits"], &rows);
    println!();
    println!(
        "expected: ~{:.0} s of full-core burst from 30 credits, then {:.0}% baseline.",
        BurstableCpu::new(&spec).endurance(1.0),
        100.0 * spec.base_vcpus
    );

    heading("Figure 5b: t2.micro network under sustained peak demand");
    let mut net = BurstableNet::new(&spec);
    let mut rows = Vec::new();
    for sec in (0..=600).step_by(60) {
        let achieved = if sec == 0 {
            spec.peak_net_mbps
        } else {
            net.transmit(spec.peak_net_mbps, 60.0)
        };
        rows.push(vec![
            format!("{sec} s"),
            format!("{achieved:.0} Mbps"),
            format!("{:.0} Mbit", net.bucket().level),
        ]);
    }
    print_table(&["t", "achieved bandwidth", "bucket"], &rows);
    println!();
    println!(
        "expected: ~{:.0} s at {:.0} Mbps from a full bucket, then ~{:.0} Mbps baseline.",
        BurstableNet::new(&spec).endurance(spec.peak_net_mbps),
        spec.peak_net_mbps,
        spec.base_net_mbps
    );
}

/// **Figure 7**: normalized costs (divided by `ODOnly`) and the percentage
/// of days the performance target is violated, for `Prop_NoBackup` versus
/// `OD+Spot_CDF`, with the tenant restricted to a single spot market at a
/// time. Paper setup: 500 kops peak, 100 GB working set, Zipf 2.0.
pub fn fig7() {
    heading("Figure 7: per-market normalized cost and violated days");
    println!("workload: 500 kops peak, 100 GB, Zipf 2.0, {PAPER_DAYS} days\n");

    let mut rows = Vec::new();
    for trace in &markets(PAPER_DAYS) {
        let single = std::slice::from_ref(trace);
        let sim = |approach| {
            run(
                &SimConfig::paper_default(approach, 500_000.0, 100.0, 2.0),
                single,
            )
        };
        let od_only = od_only_cost(500_000.0, 100.0, 2.0, single);
        let prop = sim(Approach::PropNoBackup);
        let cdf = sim(Approach::OdSpotCdf);
        rows.push(vec![
            trace.market.short_label(),
            format!("{:.2}", prop.total_cost() / od_only),
            format!("{:.2}", cdf.total_cost() / od_only),
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

/// **Figure 8**: the spot price of market `m4.XL-c` alongside the
/// *predicted residual lifetime* of both bids under our temporal-locality
/// predictor and the CDF baseline — showing how the CDF approach keeps
/// believing in the low bid through the spiky interval (days 30–60) while
/// ours collapses its prediction.
pub fn fig8() {
    let trace = market("m4.XL-c");

    heading("Figure 8: price and predicted residual lifetime, market m4.XL-c");

    let ours = TemporalPredictor::paper_default();
    let cdf = CdfPredictor::paper_default();
    let bids = [Bid(trace.od_price), Bid(5.0 * trace.od_price)];

    let mut rows = Vec::new();
    for day in (7..PAPER_DAYS).step_by(3) {
        let now = day * DAY;
        let price = trace.price_at(now).unwrap_or(0.0);
        let mut row = vec![format!("{day}"), format!("{price:.4}")];
        for bid in bids {
            let fmt = |p: Option<f64>| p.map_or("-".into(), |h| format!("{h:.1}"));
            row.push(fmt(ours
                .predict(&trace, now, bid)
                .map(|f| f.lifetime / 3_600.0)));
            row.push(fmt(cdf
                .predict(&trace, now, bid)
                .map(|f| f.lifetime / 3_600.0)));
        }
        rows.push(row);
    }
    print_table(
        &[
            "day",
            "price $/h",
            "ours L(1d) h",
            "cdf L(1d) h",
            "ours L(5d) h",
            "cdf L(5d) h",
        ],
        &rows,
    );

    // Summary: mean predicted lifetime inside vs outside the spiky window.
    let mean_pred = |p: &dyn SpotPredictor, bid: Bid, from: u64, to: u64| {
        let (mut sum, mut n) = (0.0, 0);
        for day in from..to {
            if let Some(f) = p.predict(&trace, day * DAY, bid) {
                sum += f.lifetime / 3_600.0;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    println!();
    let bid1 = bids[0];
    println!(
        "mean predicted L(1d), days 30-60 (spiky): ours {:.1} h, cdf {:.1} h",
        mean_pred(&ours, bid1, 30, 60),
        mean_pred(&cdf, bid1, 30, 60)
    );
    println!(
        "mean predicted L(1d), days 60-90 (calm):  ours {:.1} h, cdf {:.1} h",
        mean_pred(&ours, bid1, 60, 90),
        mean_pred(&cdf, bid1, 60, 90)
    );
    println!();
    println!("paper: in the failure-heavy interval the CDF baseline still predicts long");
    println!("lifetimes for the low bid (its price CDF barely moves), while our predictor");
    println!("collapses, steering the optimizer away from bid 1.");
}

/// One 24-hour prototype day of the Figure 9/10 workload (320 kops peak,
/// 60 GB, Zipf 2.0) on a single market.
fn prototype_day(
    approach: Approach,
    market: &SpotTrace,
    start_day: u64,
    seed: u64,
) -> PrototypeResult {
    let cfg = PrototypeConfig {
        controller: ControllerConfig::paper_default(approach),
        start_day,
        peak_rate: 320_000.0,
        max_wss_gb: 60.0,
        theta: 2.0,
        seed,
    };
    run_prototype(&cfg, market).expect("prototype run")
}

/// **Figure 9**: the 24-hour prototype experiment on spot market
/// `m4.XL-c`, day 51 — hourly instance allocations and the per-minute
/// average / p95 latency series for `Prop_NoBackup` versus `OD+Spot_CDF`
/// (impact of spot prediction).
pub fn fig9() {
    let market = market("m4.XL-c");

    heading("Figure 9: 24-hour prototype, m4.XL-c day 51 (impact of spot prediction)");
    println!("workload: 320 kops peak, 60 GB, Zipf 2.0\n");

    let mut results = Vec::new();
    for approach in [Approach::PropNoBackup, Approach::OdSpotCdf] {
        let r = prototype_day(approach, &market, 51, 0xF19);

        heading(&format!("{approach}: hourly allocation"));
        let rows: Vec<Vec<String>> = r
            .slots
            .iter()
            .map(|a| {
                vec![
                    a.slot.to_string(),
                    a.od_count.to_string(),
                    a.spot_counts
                        .iter()
                        .map(|(l, c)| format!("{l}={c}"))
                        .collect::<Vec<_>>()
                        .join(" "),
                ]
            })
            .collect();
        print_table(&["hour", "OD", "spot"], &rows);

        heading(&format!("{approach}: latency (30-minute buckets)"));
        let rows: Vec<Vec<String>> = r
            .samples
            .chunks(30)
            .enumerate()
            .map(|(i, chunk)| {
                let avg = chunk.iter().map(|m| m.avg_us).sum::<f64>() / chunk.len() as f64;
                let p95max = chunk.iter().map(|m| m.p95_us).fold(0.0, f64::max);
                vec![
                    format!("{:02}:{:02}", i / 2, (i % 2) * 30),
                    format!("{avg:.0}"),
                    format!("{p95max:.0}"),
                ]
            })
            .collect();
        print_table(&["time", "avg us", "max p95 us"], &rows);
        results.push((approach, r));
    }

    heading("Summary");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(a, r)| {
            vec![
                a.to_string(),
                r.revocations.to_string(),
                format!("{:.0}", r.latency.mean()),
                format!("{:.0}", r.latency.quantile(0.95)),
                format!("{:.0}", r.latency.quantile(0.99)),
                format!("{:.0}", r.latency.quantile(0.999)),
                r.samples
                    .iter()
                    .filter(|m| m.p95_us > 5_000.0)
                    .count()
                    .to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "approach",
            "bid failures",
            "avg us",
            "p95 us",
            "p99 us",
            "p99.9 us",
            "tail spikes",
        ],
        &rows,
    );
    println!();
    println!("paper: with OD+Spot_CDF the tenant suffers three partial bid failures; with");
    println!("Prop_NoBackup none (or fewer). Averages are similar; the tail is better under");
    println!("Prop_NoBackup owing to fewer spot revocations.");
}

/// **Figure 10**: the 24-hour prototype experiment on spot market
/// `m4.L-d`, day 45 — instance allocation per bid and latency for
/// `Prop_NoBackup` versus `OD+Spot_Sep` (impact of hot-cold mixing).
pub fn fig10() {
    let market = market("m4.L-d");

    heading("Figure 10: 24-hour prototype, m4.L-d day 45 (impact of hot-cold mixing)");
    println!("workload: 320 kops peak, 60 GB, Zipf 2.0\n");

    /// Spot instances of one slot held under the bid labelled `suffix`.
    fn at_bid(slot: &SlotRecord, suffix: &str) -> u32 {
        slot.spot_counts
            .iter()
            .filter(|(l, _)| l.ends_with(suffix))
            .map(|(_, c)| *c)
            .sum()
    }

    let mut results = Vec::new();
    for approach in [Approach::PropNoBackup, Approach::OdSpotSep] {
        let r = prototype_day(approach, &market, 45, 0xF10);

        heading(&format!("{approach}: hourly allocation (per bid)"));
        let rows: Vec<Vec<String>> = r
            .slots
            .iter()
            .map(|a| {
                vec![
                    a.slot.to_string(),
                    a.od_count.to_string(),
                    at_bid(a, "@1d").to_string(),
                    at_bid(a, "@5d").to_string(),
                ]
            })
            .collect();
        print_table(&["hour", "OD", "spot bid1 (1d)", "spot bid2 (5d)"], &rows);
        results.push((approach, r));
    }

    heading("Summary");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(a, r)| {
            let max_at = |suffix| r.slots.iter().map(|s| at_bid(s, suffix)).max().unwrap_or(0);
            vec![
                a.to_string(),
                r.revocations.to_string(),
                max_at("@1d").to_string(),
                max_at("@5d").to_string(),
                format!("{:.0}", r.latency.mean()),
                format!("{:.0}", r.latency.quantile(0.95)),
                format!("{:.0}", r.latency.quantile(0.99)),
            ]
        })
        .collect();
    print_table(
        &[
            "approach",
            "bid failures",
            "max bid1",
            "max bid2",
            "avg us",
            "p95 us",
            "p99 us",
        ],
        &rows,
    );
    println!();
    println!("paper: both strategies hedge across bids so only a subset of spot instances");
    println!("fails at a time; Prop_NoBackup allocates fewer instances under the lower bid");
    println!("than the higher one, offers comparable average latency (occasionally worse");
    println!("tail from its more aggressive resource usage), and costs 20-95% less than");
    println!("OD+Spot_Sep (see fig12/fig13).");
}

/// **Figure 11**: recovery latency after a spot revocation — (a) the
/// recovery latency timeline under different backup choices (t2.medium
/// burstable, m3.medium and c3.large regular, no backup, and the
/// `OD+Spot_Sep` case where only cold data is lost); (b) warm-up time and
/// burst-credit-earn time across popularity skews and burstable types;
/// then the **Figure 4** recovery cases (replacement ready before / after
/// revocation).
pub fn fig11() {
    figure11a();
    figure11b();
    figure4_cases();
}

/// The Figure 11 scenario backed up by the instance type `name`.
fn backed_by(name: &str) -> RecoveryConfig {
    RecoveryConfig::figure11(BackupChoice::Instance(find_type(name).unwrap()))
}

fn figure11a() {
    heading("Figure 11(a): recovery latency by backup choice");
    println!("scenario: 40 kops, 10 GB working set, 3 GB hot, Zipf 1.0; t=0 is");
    println!("replacement-ready; copy pump runs hottest-first from the backup\n");

    let scenarios: Vec<(&str, RecoveryConfig)> = vec![
        ("t2.medium", backed_by("t2.medium")),
        ("c3.large", backed_by("c3.large")),
        ("m3.medium", backed_by("m3.medium")),
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
        let tl = simulate_recovery(cfg, None, None);
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
            let mut cfg = backed_by(itype_name);
            cfg.theta = theta;
            // Dataset sized to the backup's RAM (paper: "closest to their
            // RAM capacities").
            cfg.lost_hot_gb = itype.ram_gb * 0.85;
            cfg.horizon_secs = 3_600;
            let tl = simulate_recovery(&cfg, None, None);
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
        let mut cfg = backed_by("t2.medium");
        cfg.replacement_ready_at = ready_at;
        cfg.serve_from_backup = serve;
        let tl = simulate_recovery(&cfg, None, None);
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

/// **Figure 12**: the long-term (90-day) cost breakdown — on-demand vs
/// spot vs backup dollars — for every approach, at the paper's reference
/// workload (500 kops peak, 100 GB working set), for Zipf 1.0 and 2.0,
/// with all four spot markets available.
pub fn fig12() {
    let traces = markets(PAPER_DAYS);

    heading("Figure 12: long-term cost breakdown (500 kops, 100 GB)");

    for zipf in [1.0f64, 2.0] {
        let theta = zipf_theta(zipf);
        heading(&format!("Zipf = {zipf}"));
        let od_only_total = od_only_cost(500_000.0, 100.0, theta, &traces);
        let mut rows = Vec::new();
        for approach in Approach::ALL {
            let r = run(
                &SimConfig::paper_default(approach, 500_000.0, 100.0, theta),
                &traces,
            );
            let total = r.total_cost();
            rows.push(vec![
                approach.to_string(),
                dollars(r.ledger.total(CostCategory::OnDemand)),
                dollars(r.ledger.total(CostCategory::Spot)),
                dollars(r.ledger.total(CostCategory::Backup)),
                dollars(total),
                format!("{:.2}", total / od_only_total),
                pct(r.violated_day_frac()),
            ]);
        }
        print_table(
            &[
                "approach",
                "on-demand",
                "spot",
                "backup",
                "total",
                "norm (/ODOnly)",
                "viol days",
            ],
            &rows,
        );
    }
    println!();
    println!("paper: Prop_NoBackup/Prop save 50-80% vs ODOnly; the backup's cost share is");
    println!("visible at Zipf 1.0 and negligible at Zipf 2.0; OD+Spot_Sep wastes resources");
    println!("at high skew (hot set tiny but needs all the CPU/network).");
}

/// **Figure 13**: normalized long-term costs across the full 18-workload
/// grid — peak arrival rate ∈ {100k, 500k, 1000k} ops × maximum working
/// set ∈ {10, 100, 500} GB × Zipf ∈ {1.0, 2.0} — for every approach,
/// normalized by `ODOnly`.
pub fn fig13() {
    let traces = markets(PAPER_DAYS);

    heading("Figure 13: normalized long-term costs across 18 workloads");
    println!("({PAPER_DAYS}-day simulations over all four spot markets; costs / ODOnly)\n");

    let approaches = [
        Approach::OdPeak,
        Approach::OdSpotSep,
        Approach::OdSpotCdf,
        Approach::PropNoBackup,
        Approach::Prop,
    ];
    let mut rows = Vec::new();
    for zipf in [1.0f64, 2.0] {
        let theta = zipf_theta(zipf);
        for wss in [10.0f64, 100.0, 500.0] {
            for rate in [100_000.0f64, 500_000.0, 1_000_000.0] {
                let base = od_only_cost(rate, wss, theta, &traces);
                let mut row = vec![
                    format!("{zipf}"),
                    format!("{:.0}", wss),
                    format!("{:.0}k", rate / 1000.0),
                ];
                for a in approaches {
                    let r = run(&SimConfig::paper_default(a, rate, wss, theta), &traces);
                    row.push(format!("{:.2}", r.total_cost() / base));
                }
                rows.push(row);
            }
        }
    }
    print_table(
        &[
            "zipf",
            "WSS GB",
            "rate",
            "ODPeak",
            "OD+Spot_Sep",
            "OD+Spot_CDF",
            "Prop_NoBackup",
            "Prop",
        ],
        &rows,
    );
    println!();
    println!("paper: Prop_NoBackup beats OD+Spot_Sep and ODOnly everywhere and matches");
    println!("OD+Spot_CDF; OD+Spot_Sep can exceed 1.0 (worse than ODOnly) at Zipf 2.0;");
    println!("normalized costs barely move with arrival rate at fixed WSS but move a lot");
    println!("with WSS at fixed rate; high rate/WSS ratios benefit most from mixing.");
}
