//! Experiments beyond the paper's figures: what it mentions, defers or
//! compares against in prose (DESIGN.md §4 extension list).

use spotcache_bench::{claim, dollars, heading, pct, print_table};
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::preemptible::PreemptibleMarket;
use spotcache_cloud::spot::Bid;
use spotcache_cloud::tracegen::correlated_paper_traces;
use spotcache_cloud::{SpotTrace, DAY};
use spotcache_core::controller::{ControllerConfig, GlobalController};
use spotcache_core::simulation::{FlashCrowd, SimConfig};
use spotcache_core::Approach;
use spotcache_optimizer::latency::LatencyProfile;
use spotcache_optimizer::queueing::MmcModel;
use spotcache_spotmodel::{SpotPredictor, TemporalPredictor};

use crate::ablations::zeta_sweep;
use crate::{markets, run, worst_hour_affected, PAPER_DAYS};

/// The reactive control element under a flash crowd (paper Section 4.2's
/// hierarchical predictive+reactive design, which the paper implements but
/// omits results for due to space).
///
/// Injects a 3× rate surge the forecasters cannot see coming and compares
/// predictive-only control against predictive+reactive: affected requests,
/// violated days, and the emergency-capacity bill.
pub(crate) fn flash_crowd() {
    let traces = markets(30);

    heading("Flash crowd: predictive-only vs predictive+reactive (Prop_NoBackup)");
    println!("workload: 320 kops base, 60 GB, Zipf 1.0; 3x surge for 6 hours on day 15\n");

    let mut rows = Vec::new();
    // (cost, violated days, worst hour, reactions) without, then with.
    let mut runs = Vec::new();
    for (name, reactive) in [("predictive only", false), ("with reactive element", true)] {
        let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 320_000.0, 60.0, 0.99);
        cfg.days = 30;
        cfg.flash_crowds = vec![FlashCrowd {
            start_hour: 15 * 24 + 12,
            duration_hours: 6,
            multiplier: 3.0,
        }];
        cfg.reactive = reactive;
        let r = run(&cfg, &traces);
        runs.push((
            r.total_cost(),
            r.violated_day_frac(),
            worst_hour_affected(&r),
            r.reactions,
        ));
        rows.push(vec![
            name.to_string(),
            dollars(r.total_cost()),
            pct(r.violated_day_frac()),
            format!("{:.3}", worst_hour_affected(&r)),
            r.reactions.to_string(),
        ]);
    }
    print_table(
        &[
            "control",
            "total cost",
            "viol days",
            "worst-hour affected",
            "reactions",
        ],
        &rows,
    );
    println!();
    println!("the reactive element trades a small emergency on-demand bill for bounding");
    println!("the crowd's damage to the detection+launch lag (~5 minutes).");

    let [(cost_p, viol_p, worst_p, _), (cost_r, viol_r, worst_r, reactions)] = runs[..] else {
        unreachable!("two runs")
    };
    let premium = cost_r / cost_p - 1.0;
    claim(
        "flash_crowd:reactive_bounds_the_damage",
        viol_p > 0.0
            && viol_r == 0.0
            && worst_p >= 0.5
            && worst_r <= 0.10
            && reactions >= 1
            && premium <= 0.05,
        format!(
            "violated days {viol_p:.3} -> {viol_r:.3} (some -> none), worst hour {worst_p:.3} \
             (>= 0.5) -> {worst_r:.3} (<= 0.10), {reactions} reactions (>= 1), cost +{premium:.4} \
             (<= 0.05)"
        ),
    );
}

/// The availability floor ζ under *correlated* market failures.
///
/// With independent markets (the base tracegen), simultaneous multi-market
/// failures are rare and ζ buys little (see `ablation_zeta`). Real regions
/// have shared demand shocks; this regenerates the ζ sweep over markets
/// coupled by a regional shock schedule, where the on-demand floor becomes
/// genuine insurance.
pub(crate) fn correlated_failures() {
    let mut sweeps = Vec::new();
    for (name, traces) in [
        ("independent markets", markets(PAPER_DAYS)),
        (
            "correlated markets (regional shocks)",
            correlated_paper_traces(PAPER_DAYS),
        ),
    ] {
        heading(&format!("zeta sweep: {name}"));
        let swept = zeta_sweep(&traces, &[0.0, 0.1, 0.3]);
        let rows: Vec<Vec<String>> = swept.iter().map(|row| Vec::from(row.cells())).collect();
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
        sweeps.push(swept);
    }
    println!();
    println!("expected: under regional shocks several markets fail together, violations");
    println!("climb, and the on-demand floor starts earning its premium — the scenario");
    println!("the paper's zeta constraint is written for.");

    // Revocation counts are tie-break outcomes (EXPERIMENTS.md's note on
    // optimal faces); the exposure the floor caps is the model's output.
    let [independent, correlated] = &sweeps[..] else {
        unreachable!("two sweeps")
    };
    let exposure: Vec<f64> = correlated.iter().map(|r| r.worst_hour).collect();
    let trimmed = exposure.windows(2).all(|w| w[1] < w[0]);
    let worse = independent
        .iter()
        .zip(correlated)
        .all(|(i, c)| c.violated > i.violated && c.worst_hour >= i.worst_hour);
    claim(
        "correlated_failures:zeta_trims_exposure",
        trimmed && worse,
        format!(
            "correlated worst hour {exposure:.3?} at zeta 0, 0.1, 0.3 (strictly falling); \
             correlated markets violate more days and expose at least as much as independent \
             ones at every zeta {worse}"
        ),
    );
}

/// The write path (paper Section 2.1's future work).
///
/// The paper's system targets read-heavy workloads and writes *through* to
/// the persistent back-end — every write pays the slow path. It points at
/// the related work's remedy: "using a small amount of on-demand instances
/// (highly available) to serve write requests". This quantifies that trade
/// across write fractions: the extra on-demand tier's cost versus the
/// mean-latency relief of absorbing writes at cache speed.
pub(crate) fn write_tier() {
    let traces = markets(30);
    let refs: Vec<&SpotTrace> = traces.iter().collect();
    let profile = LatencyProfile::paper_default();
    let (rate, wss, theta) = (320_000.0, 60.0, 0.99);

    heading("Write tier: write-through vs an on-demand write buffer");
    println!("workload: 320 kops, 60 GB, Zipf 1.0; write tier on m3.medium instances\n");

    // The read-serving plan is the same regardless (reads dominate).
    let mut ctl = GlobalController::new(ControllerConfig::paper_default(Approach::PropNoBackup));
    let plan = ctl.plan(&refs, 10 * DAY, theta, rate, wss).expect("plan");
    let read_plan_cost = plan.alloc.resource_cost();

    let tier_type = find_type("m3.medium").unwrap();
    // A write-buffer node absorbs writes at cache speed; profile its
    // per-instance write capacity like any other node.
    let tier_rate = profile.max_rate_for_targets(&tier_type, 800.0, 1_000.0, false);

    let mut rows = Vec::new();
    // (write-through penalty us, tier instances, tier share of the read
    // plan's cost) per write fraction.
    let mut tiers = Vec::new();
    for write_frac in [0.0, 0.002, 0.03, 0.10] {
        let write_rate = rate * write_frac;
        // Write-through: writes pay the backend penalty.
        let wt_mean = (1.0 - write_frac) * 300.0 + write_frac * (300.0 + profile.miss_penalty_us);
        // Write tier: writes complete at cache speed; tier sized for the
        // write rate.
        let tier_n = if write_rate > 0.0 {
            (write_rate / tier_rate).ceil().max(1.0)
        } else {
            0.0
        };
        let tier_cost = tier_n * tier_type.od_price;
        let tier_mean = 300.0;
        tiers.push((wt_mean - tier_mean, tier_n, tier_cost / read_plan_cost));
        rows.push(vec![
            format!("{:.1}%", 100.0 * write_frac),
            format!("{wt_mean:.0}"),
            format!("{tier_mean:.0}"),
            format!("{tier_n:.0}"),
            format!("${tier_cost:.3}/h"),
            format!("{:.1}%", 100.0 * tier_cost / read_plan_cost),
        ]);
    }
    print_table(
        &[
            "write fraction",
            "write-through mean us",
            "with-tier mean us",
            "tier instances",
            "tier cost",
            "vs read-plan cost",
        ],
        &rows,
    );
    println!();
    println!("at Facebook-USR write rates (0.2%) the write-through penalty is ~20 us of");
    println!("mean latency and a tier is one cheap instance; at 10% writes the penalty is");
    println!("a full millisecond and the tier earns its keep — matching the paper's");
    println!("decision to leave writes to future work for read-heavy tenants.");

    let (usr_penalty, usr_tier, usr_share) = tiers[1];
    let (heavy_penalty, ..) = tiers[3];
    claim(
        "write_tier:tier_pays_at_heavy_writes",
        (10.0..=40.0).contains(&usr_penalty)
            && usr_tier == 1.0
            && usr_share <= 0.10
            && heavy_penalty >= 1_000.0,
        format!(
            "at 0.2% writes: +{usr_penalty:.0} us write-through (10-40), {usr_tier} tier \
             instance (1) at {usr_share:.3} of the read plan (<= 0.10); at 10%: \
             +{heavy_penalty:.0} us (>= 1000)"
        ),
    );
}

/// Hot-cold mixing versus active geo-replication (the paper's closest
/// related work, discussed in Section 6).
///
/// Runs the paper's system and k-replica active replication
/// (`Approach::Replicated`) on the same engine, markets and workloads,
/// across RAM-bound and rate-bound operating points, showing when each
/// design wins.
pub(crate) fn replication_compare() {
    let traces = markets(PAPER_DAYS);

    heading("Hot-cold mixing (Prop) vs active replication (related work [50])");

    let mut rows = Vec::new();
    // (Prop's cost and violated days, then k = 2 and k = 3's) per workload.
    let mut costs = Vec::new();
    for (rate, wss, label) in [
        (50_000.0, 200.0, "RAM-bound (50 kops, 200 GB)"),
        (320_000.0, 60.0, "balanced (320 kops, 60 GB)"),
        (1_000_000.0, 20.0, "rate-bound (1 Mops, 20 GB)"),
    ] {
        let mut cell = Vec::new();
        for approach in [
            Approach::Prop,
            Approach::Replicated(2),
            Approach::Replicated(3),
        ] {
            let r = run(
                &SimConfig::paper_default(approach, rate, wss, 0.99),
                &traces,
            );
            let design = match approach {
                Approach::Replicated(k) => format!("Replication k={k}"),
                _ => approach.to_string(),
            };
            let workload = if cell.is_empty() { label } else { "" };
            rows.push(vec![
                workload.to_string(),
                design,
                dollars(r.total_cost()),
                pct(r.violated_day_frac()),
                format!("{} revocations", r.revocations),
            ]);
            cell.push((r.total_cost(), r.violated_day_frac()));
        }
        costs.push(cell);
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
    println!("expected: every replica holds the whole working set and is sized for the");
    println!("whole rate, so k replicas serve through k - 1 losses and pay ~k x the bill");
    println!("(crushing for RAM-bound workloads); mixing pays for the data once and");
    println!("approaches the same availability through bids, lifetimes, and the backup —");
    println!("the two designs are complementary, as the paper argues.");

    // At the two ends of the grid, replication pays for the data (or the
    // failover capacity) again and buys no fewer violated days.
    let ends = [&costs[0], &costs[2]];
    let dearer = ends.iter().all(|c| {
        let (prop, prop_viol) = c[0];
        c[1..]
            .iter()
            .all(|&(cost, viol)| cost > prop && viol >= prop_viol)
    });
    let (ram_k3, rate_k2) = (costs[0][2].0 / costs[0][0].0, costs[2][1].0 / costs[2][0].0);
    claim(
        "replication_compare:replicas_cost_more_at_the_ends",
        dearer && ram_k3 >= 1.5 && rate_k2 >= 1.3,
        format!(
            "RAM- and rate-bound: every replica count costs more than Prop and violates no \
             fewer days {dearer}; k=3 / Prop RAM-bound {ram_k3:.2} (>= 1.5), k=2 / Prop \
             rate-bound {rate_k2:.2} (>= 1.3)"
        ),
    );

    // k = 3's markets are k = 2's and one more, each replica sized alike:
    // the third replica adds cost and only takes traffic off the others.
    let monotone = costs.iter().all(|c| c[2].0 >= c[1].0 && c[2].1 <= c[1].1);
    let cells: Vec<String> = costs
        .iter()
        .map(|c| {
            format!(
                "${:.0} >= ${:.0}, {:.3} <= {:.3}",
                c[2].0, c[1].0, c[2].1, c[1].1
            )
        })
        .collect();
    claim(
        "replication_compare:more_replicas_never_cheaper_nor_worse",
        monotone,
        format!(
            "k=3 costs at least k=2 and violates no more days at every workload: {}",
            cells.join("; ")
        ),
    );
}

/// EC2-style spot markets versus GCE-style preemptible instances (paper
/// Section 1 mentions both classes).
///
/// Preemptible VMs trade bidding complexity for a fixed discount, a fixed
/// hazard, and a hard 24-hour lifetime cap. This compares the
/// lifetime/price characteristics the optimizer would see from each class.
pub(crate) fn preemptible_compare() {
    heading("Revocable capacity classes: EC2 spot vs GCE preemptible");

    let traces = markets(PAPER_DAYS);
    let predictor = TemporalPredictor::paper_default();

    let mut rows = Vec::new();
    let mut low_bid_lifetimes = Vec::new();
    for trace in &traces {
        for mult in [1.0, 5.0] {
            let bid = Bid::times_od(mult, trace.od_price);
            // Average the predictions over the evaluation period.
            let (mut life, mut price, mut n) = (0.0, 0.0, 0);
            for day in 7..PAPER_DAYS {
                if let Some(f) = predictor.predict(trace, day * DAY, bid) {
                    life += f.lifetime / 3_600.0;
                    price += f.avg_price;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            if mult == 1.0 {
                low_bid_lifetimes.push(life / n as f64);
            }
            rows.push(vec![
                format!("spot {} @{mult}d", trace.market.short_label()),
                format!("{:.1}", life / n as f64),
                format!("{:.4}", price / n as f64),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - (price / n as f64) / trace.od_price)
                ),
                "price-driven".into(),
            ]);
        }
    }
    // (conservative lifetime h, discount) per zone, calm to busy.
    let mut zones = Vec::new();
    for (name, hazard) in [
        ("calm zone", 0.02),
        ("typical zone", 0.05),
        ("busy zone", 0.15),
    ] {
        let mut m = PreemptibleMarket::typical(0.12);
        m.preemption_hazard_per_hour = hazard;
        zones.push((m.lifetime_quantile_hours(0.05), m.discount()));
        rows.push(vec![
            format!("preemptible {name}"),
            format!("{:.1}", m.lifetime_quantile_hours(0.05)),
            format!("{:.4}", m.price),
            format!("{:.0}%", 100.0 * m.discount()),
            format!("random, {:.0}%/h, 24 h cap", hazard * 100.0),
        ]);
    }
    print_table(
        &[
            "offer",
            "conservative lifetime (h)",
            "price $/h",
            "discount",
            "revocation",
        ],
        &rows,
    );
    println!();
    println!("the same controller consumes either class: a preemptible market is just an");
    println!("offer with a fixed price and an analytic (capped-exponential) lifetime");
    println!("quantile instead of a trace-driven one.");

    let shortest_spot = low_bid_lifetimes
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let typical = zones[1].0;
    let shorter_when_busier = zones.windows(2).all(|w| w[1].0 < w[0].0);
    let fixed_discount = zones.iter().all(|z| (z.1 - 0.80).abs() <= 0.005);
    claim(
        "preemptible_compare:typical_zone_like_a_low_bid",
        shorter_when_busier
            && fixed_discount
            && (shortest_spot / 3.0..=shortest_spot).contains(&typical),
        format!(
            "typical zone {typical:.2} h, within 3x below the shortest low-bid spot lifetime \
             {shortest_spot:.2} h; lifetimes fall as the hazard rises {shorter_when_busier}; \
             discount 0.80 +- 0.005 in every zone {fixed_discount}"
        ),
    );
}

/// Profiled `φ` versus analytic M/M/c queueing (paper Section 4.1 allows
/// either source for the `λ^{sb}` lookup).
///
/// Prints the latency curves side by side and the per-instance rate caps
/// each model would hand the optimizer at the paper's targets.
pub(crate) fn queueing_compare() {
    let profile = LatencyProfile::paper_default();
    let analytic = MmcModel::paper_default();
    // A CPU-bound instance so both models describe the same resource.
    let itype = find_type("c3.8xlarge").expect("catalog");
    let cap = profile.capacity_ops(&itype, false);

    heading("Latency curves: profiled M/M/1-style vs analytic M/M/c (4 workers)");
    let mut rows = Vec::new();
    for pct in [10, 30, 50, 70, 80, 90, 95, 99] {
        let rate = cap * pct as f64 / 100.0;
        rows.push(vec![
            format!("{pct}%"),
            format!("{:.0}", profile.hit_latency_us(rate, cap)),
            format!("{:.0}", analytic.mean_latency_us(rate)),
            format!("{:.0}", profile.p95_latency_us(rate, cap)),
        ]);
    }
    print_table(
        &[
            "utilization",
            "profiled mean us",
            "M/M/c mean us",
            "profiled p95 us",
        ],
        &rows,
    );

    heading("Per-instance rate caps at the paper's targets");
    let profiled_cap = profile.max_rate_for_latency(&itype, 800.0, false);
    let analytic_cap = analytic.max_rate_for_latency(800.0);
    let dual_cap = profile.max_rate_for_targets(&itype, 800.0, 1_000.0, false);
    let rows = vec![
        vec![
            "mean <= 800 us".to_string(),
            format!("{profiled_cap:.0}"),
            format!("{analytic_cap:.0}"),
        ],
        vec![
            "mean <= 800 us AND p95 <= 1 ms".to_string(),
            format!("{dual_cap:.0}"),
            "-".to_string(),
        ],
    ];
    print_table(&["target", "profiled ops/s", "M/M/c ops/s"], &rows);
    println!();
    println!("the analytic model is the more optimistic near saturation (queue pooling),");
    println!("which is exactly why the paper profiles its instances offline instead of");
    println!("trusting queueing theory alone — but both agree on the capacity scale, so");
    println!("either feeds the optimizer a workable lambda^sb table.");

    let optimism = analytic_cap / profiled_cap;
    let trim = 1.0 - dual_cap / profiled_cap;
    claim(
        "queueing_compare:analytic_is_more_optimistic",
        (1.1..=1.5).contains(&optimism) && (0.10..=0.30).contains(&trim),
        format!(
            "M/M/c cap / profiled cap at mean <= 800 us {optimism:.3} (1.1-1.5); the p95 target \
             trims the profiled cap by {trim:.3} (0.10-0.30)"
        ),
    );
}
