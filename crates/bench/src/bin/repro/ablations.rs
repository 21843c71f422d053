//! Ablations of the design's free parameters (DESIGN.md §5).

use spotcache_bench::{claim, dollars, heading, pct, print_table};
use spotcache_cloud::billing::CostCategory;
use spotcache_cloud::spot::{Bid, MarketId};
use spotcache_cloud::{SpotTrace, DAY, HOUR};
use spotcache_core::controller::{ControllerConfig, GlobalController};
use spotcache_core::simulation::{SimConfig, SimResult};
use spotcache_core::Approach;
use spotcache_spotmodel::diurnal::DiurnalLifetimeModel;
use spotcache_spotmodel::lifetime::LifetimeModel;
use spotcache_spotmodel::runs::residual_run;

use crate::{market, markets, od_only_cost, run, worst_hour_affected, PAPER_DAYS};

/// The lifetime-prediction percentile (DESIGN.md §5.1).
///
/// The paper predicts the 5th percentile of the residual-lifetime
/// distribution. More aggressive percentiles promise longer lifetimes
/// (cheaper plans, more failures); more conservative ones under-promise
/// (fewer failures, more on-demand spend). This sweep quantifies the
/// trade-off on the spiky `m4.XL-c` market.
pub(crate) fn percentile() {
    let spiky = [market("m4.XL-c")];

    heading("Ablation: lifetime percentile (Prop_NoBackup, m4.XL-c, 90 days)");

    let base = od_only_cost(500_000.0, 100.0, 2.0, &spiky);

    let mut rows = Vec::new();
    // (norm cost, violated-day share) per percentile.
    let mut swept = Vec::new();
    for percentile in [0.01, 0.05, 0.10, 0.25, 0.50] {
        let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 500_000.0, 100.0, 2.0);
        cfg.controller.lifetime_percentile = percentile;
        let r = run(&cfg, &spiky);
        swept.push((r.total_cost() / base, r.violated_day_frac()));
        rows.push(vec![
            format!("{percentile}"),
            format!("{:.3}", r.total_cost() / base),
            pct(r.violated_day_frac()),
            r.revocations.to_string(),
        ]);
    }
    print_table(
        &["percentile", "norm cost", "violated days", "revocations"],
        &rows,
    );
    println!();
    println!("expected: an ultra-conservative percentile (0.01) predicts lifetimes so short");
    println!("the optimizer barely touches spot (cost ~ ODOnly, no failures); aggressive");
    println!("percentiles add failures without saving much more — the paper's 5th");
    println!("percentile sits at the knee.");

    let [(scared_cost, scared_viol), (fifth_cost, fifth_viol), ref bolder @ ..] = swept[..] else {
        unreachable!("five percentiles")
    };
    let bolder_cost = bolder.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let bolder_viol = bolder.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    claim(
        "ablation_percentile:fifth_at_the_knee",
        scared_cost >= 0.95
            && scared_viol == 0.0
            && fifth_cost <= 0.5
            && fifth_cost - bolder_cost <= 0.05
            && bolder_viol >= fifth_viol,
        format!(
            "0.01: cost {scared_cost:.3} (>= 0.95), violated days {scared_viol:.3} (0); 0.05: \
             cost {fifth_cost:.3} (<= 0.5), violated {fifth_viol:.3}; 0.1-0.5 save at most \
             {:.3} more (<= 0.05) and violate at least {bolder_viol:.3} (>= 0.05's)",
            fifth_cost - bolder_cost
        ),
    );
}

/// The hot-set definition (DESIGN.md §5.2).
///
/// The paper calls "hot" the most popular subset accounting for 90% of
/// accesses. Sweeping that mass threshold changes the hot-set size `H`,
/// the amount of data the passive backup must replicate, and the mixing
/// optimizer's degrees of freedom.
pub(crate) fn hotdef() {
    let traces = markets(PAPER_DAYS);

    heading("Ablation: hot-set access-mass threshold (Prop, all markets, 90 days)");

    let mut rows = Vec::new();
    // (threshold, H, F(H), backup dollars, total dollars) per threshold.
    let mut swept = Vec::new();
    for hot_mass in [0.80, 0.90, 0.95, 0.99] {
        // Report the resulting H for the reference working set.
        let mut ctl_cfg = ControllerConfig::paper_default(Approach::Prop);
        ctl_cfg.hot_mass = hot_mass;
        let (h, f_h) = GlobalController::new(ctl_cfg).hot_fraction(100.0, 0.99);

        let mut cfg = SimConfig::paper_default(Approach::Prop, 500_000.0, 100.0, 0.99);
        cfg.controller.hot_mass = hot_mass;
        let r = run(&cfg, &traces);
        swept.push((
            hot_mass,
            h,
            f_h,
            r.ledger.total(CostCategory::Backup),
            r.total_cost(),
        ));
        rows.push(vec![
            format!("{hot_mass}"),
            format!("{:.4}", h),
            format!("{:.3}", f_h),
            dollars(r.ledger.total(CostCategory::Backup)),
            dollars(r.total_cost()),
            format!("{:.1}%", 100.0 * r.violated_day_frac()),
        ]);
    }
    print_table(
        &[
            "mass threshold",
            "H (frac of WSS)",
            "F(H)",
            "backup cost",
            "total cost",
            "viol days",
        ],
        &rows,
    );
    println!();
    println!("expected: the hot set (and the backup bill) grows steeply with the threshold");
    println!("at moderate skew; 0.9 keeps the replicated volume small while still covering");
    println!("the traffic that matters during a revocation.");

    let rising = swept
        .windows(2)
        .all(|w| w[0].1 < w[1].1 && w[0].3 < w[1].3 && w[0].4 < w[1].4);
    let covered = swept.iter().all(|s| (s.2 - s.0).abs() <= 0.001);
    let at_90 = swept[1].1;
    claim(
        "ablation_hotdef:hot_set_grows_with_threshold",
        rising && covered && at_90 <= 0.25,
        format!(
            "H, backup and total dollars strictly rising with the threshold {rising}; F(H) within \
             0.001 of it {covered}; H at 0.9 {at_90:.4} (<= 0.25)"
        ),
    );
}

/// The deallocation damping `η` (DESIGN.md §5.3).
///
/// Releasing memory is not free — evicted data may become popular again —
/// so the paper adds `η·max(0, −Ñ)` to damp scale-downs. This sweep counts
/// scale-down *thrash* (instances released across consecutive hours) and
/// the cost of keeping them instead.
pub(crate) fn dealloc() {
    /// Total instances released across consecutive hourly plans.
    fn scale_down_events(r: &SimResult) -> i64 {
        let totals: Vec<i64> = r
            .slots
            .iter()
            .map(|h| h.od_count as i64 + h.spot_counts.iter().map(|(_, c)| *c as i64).sum::<i64>())
            .collect();
        totals.windows(2).map(|w| (w[0] - w[1]).max(0)).sum()
    }

    let traces = markets(PAPER_DAYS);

    heading("Ablation: deallocation damping eta (Prop_NoBackup, 90 days)");

    let base = od_only_cost(500_000.0, 100.0, 0.99, &traces);

    let mut rows = Vec::new();
    // (eta, norm cost, instances released) per eta.
    let mut swept = Vec::new();
    for eta in [0.0, 0.005, 0.01, 0.05, 0.2] {
        let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 500_000.0, 100.0, 0.99);
        cfg.controller.cost.dealloc = eta;
        let r = run(&cfg, &traces);
        swept.push((eta, r.total_cost() / base, scale_down_events(&r)));
        rows.push(vec![
            format!("{eta}"),
            format!("{:.3}", r.total_cost() / base),
            scale_down_events(&r).to_string(),
            format!("{:.1}%", 100.0 * r.violated_day_frac()),
        ]);
    }
    print_table(
        &[
            "eta ($/release)",
            "norm cost",
            "instances released",
            "viol days",
        ],
        &rows,
    );
    println!();
    println!("expected: higher eta smooths the allocation (fewer releases, less eviction");
    println!("churn) at a mild cost premium; eta = 0 tracks the diurnal curve tightly.");

    let fewer = swept.windows(2).all(|w| w[0].2 >= w[1].2);
    let churn = |keep: fn(f64) -> bool| swept.iter().filter(move |s| keep(s.0)).map(|s| s.2);
    let (low_min, high_max) = (
        churn(|eta| eta <= 0.01).min().unwrap_or(0),
        churn(|eta| eta >= 0.05).max().unwrap_or(0),
    );
    let (first, last) = (swept[0].1, swept[swept.len() - 1].1);
    claim(
        "ablation_dealloc:damping_trades_cost_for_churn",
        fewer && low_min >= 1_000 && high_max == 0 && last > first,
        format!(
            "releases never rise with eta {fewer}; at eta <= 0.01 at least {low_min} (>= 1000), \
             at eta >= 0.05 at most {high_max} (0); norm cost {first:.3} at eta 0, {last:.3} at \
             eta 0.2 (higher)"
        ),
    );
}

/// One row of a ζ sweep of `Prop_NoBackup` at the reference workload
/// (Zipf 2.0).
pub(crate) struct ZetaRow {
    /// The availability floor.
    pub(crate) zeta: f64,
    /// Total cost over `ODOnly`'s.
    pub(crate) norm_cost: f64,
    /// Share of days the performance target was violated.
    pub(crate) violated: f64,
    /// Spot revocations.
    pub(crate) revocations: u32,
    /// Worst single-hour affected fraction: the exposure the floor caps.
    pub(crate) worst_hour: f64,
}

impl ZetaRow {
    /// The printed cells: ζ, normalized cost, violated days, revocations,
    /// worst hour.
    pub(crate) fn cells(&self) -> [String; 5] {
        [
            format!("{}", self.zeta),
            format!("{:.3}", self.norm_cost),
            pct(self.violated),
            self.revocations.to_string(),
            format!("{:.3}", self.worst_hour),
        ]
    }
}

/// One ζ sweep of `Prop_NoBackup` at the reference workload over `traces`.
pub(crate) fn zeta_sweep(traces: &[SpotTrace], zetas: &[f64]) -> Vec<ZetaRow> {
    let base = od_only_cost(500_000.0, 100.0, 2.0, traces);
    zetas
        .iter()
        .map(|&zeta| {
            let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 500_000.0, 100.0, 2.0);
            cfg.controller.cost.zeta = zeta;
            let r = run(&cfg, traces);
            ZetaRow {
                zeta,
                norm_cost: r.total_cost() / base,
                violated: r.violated_day_frac(),
                revocations: r.revocations,
                worst_hour: worst_hour_affected(&r),
            }
        })
        .collect()
}

/// The on-demand availability floor `ζ` (DESIGN.md §5.4).
///
/// The formulation keeps at least a `ζ` fraction of the resident working
/// set on on-demand instances so simultaneous bid failures cannot take the
/// whole cache down. This sweep shows what the floor costs and what it
/// buys.
pub(crate) fn zeta() {
    let traces = markets(PAPER_DAYS);

    heading("Ablation: availability floor zeta (Prop_NoBackup, 90 days)");

    let swept = zeta_sweep(&traces, &[0.0, 0.05, 0.1, 0.3, 0.5]);
    let rows: Vec<Vec<String>> = swept
        .iter()
        .map(|row| {
            let [zeta, cost, viol, _revocations, worst] = row.cells();
            vec![zeta, cost, viol, worst]
        })
        .collect();
    print_table(
        &["zeta", "norm cost", "viol days", "worst-hour affected frac"],
        &rows,
    );
    println!();
    println!("expected: cost rises with zeta (more on-demand). In these four markets");
    println!("simultaneous multi-market failures are rare, so the floor buys little");
    println!("measured availability — consistent with the paper keeping zeta small; its");
    println!("value is insurance against correlated failures the history cannot predict.");

    let costs: Vec<f64> = swept.iter().map(|r| r.norm_cost).collect();
    let floor_costs = costs[1..].iter().all(|&c| c > costs[0]);
    let span = costs[costs.len() - 1] - costs[0];
    let same_violations = swept.iter().all(|r| r.violated == swept[0].violated);
    claim(
        "ablation_zeta:floor_costs_without_moving_violations",
        floor_costs && span >= 0.1 && same_violations,
        format!(
            "norm cost {costs:.4?}: every floor above zeta 0's {floor_costs}, zeta 0.5 costs \
             {span:.3} more (>= 0.1); violated days the same ({:.3}) at every zeta \
             {same_violations}",
            swept[0].violated
        ),
    );
}

/// The integer plan the solver hands the controller (DESIGN.md §5.5).
///
/// The optimizer solves an LP relaxation, rounds the instance counts up,
/// then walks counts downward while feasible-and-cheaper. For four
/// workloads spanning the evaluation grid this prints the plan that
/// results, on exactly the problem the controller would pose on day 10:
/// instances bought, the modeled slot cost (resources plus expected
/// bid-failure and deallocation penalties) and the resource dollars alone. How long the solve takes is
/// a host measurement, so it is not printed here: see `optimizer.solve_us`
/// in the benchmark ledger.
pub(crate) fn solver() {
    let traces = markets(30);
    let refs: Vec<&SpotTrace> = traces.iter().collect();

    heading("Ablation: the solver's integer plan (modeled slot cost vs resource dollars)");

    let mut rows = Vec::new();
    // (instances, plan cost, resource cost) per workload.
    let mut plans = Vec::new();
    for (rate, wss, theta) in [
        (100_000.0, 10.0, 0.99),
        (320_000.0, 60.0, 0.99),
        (320_000.0, 60.0, 2.0),
        (1_000_000.0, 500.0, 2.0),
    ] {
        let plan = GlobalController::new(ControllerConfig::paper_default(Approach::PropNoBackup))
            .problem(&refs, 10 * DAY, theta, rate, wss)
            .solve()
            .expect("solvable");
        plans.push((plan.total_instances(), plan.cost, plan.resource_cost()));
        rows.push(vec![
            format!("{:.0}k/{:.0}GB/z{theta}", rate / 1000.0, wss),
            plan.total_instances().to_string(),
            format!("{:.4}", plan.cost),
            format!("{:.4}", plan.resource_cost()),
        ]);
    }
    print_table(
        &[
            "workload",
            "instances",
            "plan cost $/slot",
            "resource $/slot",
        ],
        &rows,
    );
    println!();
    println!("plan cost minus resource cost is what the plan expects to pay in penalties");
    println!("(bid-failure exposure over predicted lifetime, deallocation damping): the");
    println!("risk the optimizer accepts in exchange for spot prices.");

    let (first, last) = (plans[0], plans[plans.len() - 1]);
    let penalised = plans.iter().all(|&(_, cost, resources)| cost >= resources);
    claim(
        "ablation_solver:penalties_on_top_of_resources",
        penalised && first.0 < last.0 && first.1 - first.2 < last.1 - last.2,
        format!(
            "plan cost >= resource cost in every plan {penalised}; smallest to largest \
             workload: {} -> {} instances, penalty {:.2} -> {:.2} $/slot (both rising)",
            first.0,
            last.0,
            first.1 - first.2,
            last.1 - last.2
        ),
    );
}

/// Time-of-day-conditioned lifetime prediction (the paper's footnote-1
/// extension, DESIGN.md extension list).
///
/// Compares the unconditioned residual-lifetime model against the
/// [`DiurnalLifetimeModel`] on (a) a synthetic market with a hard diurnal
/// spike schedule — where conditioning is decisive — and (b) the paper's
/// evaluation markets, whose regime-switching process has *no* diurnal
/// structure, so conditioning must cost (almost) nothing.
pub(crate) fn diurnal() {
    /// Walk-forward over-estimation rate for an arbitrary predict closure.
    fn over_rate(
        trace: &SpotTrace,
        bid: Bid,
        start: u64,
        predict: impl Fn(u64) -> Option<f64>,
    ) -> (f64, usize) {
        let (mut over, mut n) = (0usize, 0usize);
        let mut t = start;
        while t < trace.end() {
            if let Some(actual) = residual_run(trace, t, bid) {
                if let Some(pred) = predict(t) {
                    let scoreable = !actual.censored || pred <= actual.len as f64;
                    if scoreable {
                        n += 1;
                        if pred > actual.len as f64 {
                            over += 1;
                        }
                    }
                }
            }
            t += HOUR;
        }
        (if n == 0 { 0.0 } else { over as f64 / n as f64 }, n)
    }

    /// Mean prediction for efficiency comparison (a higher mean at the same
    /// over-estimation rate = less money left on the table).
    fn mean_pred(trace: &SpotTrace, start: u64, predict: impl Fn(u64) -> Option<f64>) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        let mut t = start;
        while t < trace.end() {
            if let Some(p) = predict(t) {
                sum += p;
                n += 1;
            }
            t += HOUR;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64 / 3_600.0
        }
    }

    heading("Ablation: hour-of-day-conditioned lifetime prediction");

    let base = LifetimeModel::new(7 * DAY, 0.05);
    let diurnal = DiurnalLifetimeModel::new(base, 24);

    // (a) A market with hard diurnal structure: spikes 12:00-18:00 daily.
    let step = 300u64;
    let days = 60u64;
    let prices: Vec<f64> = (0..(days * DAY / step))
        .map(|i| {
            let tod = (i * step) % DAY;
            if (12 * HOUR..18 * HOUR).contains(&tod) {
                0.9
            } else {
                0.05
            }
        })
        .collect();
    let diurnal_market = SpotTrace::new(MarketId::new("m4.large", "diurnal-1a"), 0.12, prices);
    // (b) The first two paper markets over the same horizon.
    let paper = markets(days);

    let mut rows = Vec::new();
    // (f base, f diurnal, mean L base, mean L diurnal) per market.
    let mut scored = Vec::new();
    let bid = Bid(0.12);
    let start = 7 * DAY;
    for (market, trace) in std::iter::once(("diurnal synthetic", &diurnal_market))
        .chain(paper.iter().map(|t| ("paper market", t)).take(2))
    {
        let (f_base, n) = over_rate(trace, bid, start, |t| base.predict(trace, t, bid));
        let (f_diur, _) = over_rate(trace, bid, start, |t| diurnal.predict(trace, t, bid));
        let m_base = mean_pred(trace, start, |t| base.predict(trace, t, bid));
        let m_diur = mean_pred(trace, start, |t| diurnal.predict(trace, t, bid));
        scored.push((f_base, f_diur, m_base, m_diur));
        rows.push(vec![
            format!("{market} ({})", trace.market.short_label()),
            format!("{f_base:.3}"),
            format!("{f_diur:.3}"),
            format!("{m_base:.2}"),
            format!("{m_diur:.2}"),
            n.to_string(),
        ]);
    }
    print_table(
        &[
            "market",
            "f base",
            "f diurnal",
            "mean L base (h)",
            "mean L diurnal (h)",
            "n",
        ],
        &rows,
    );
    println!();
    println!("measured: on the diurnal market, conditioning predicts ~8x longer lifetimes");
    println!("in the safe hours at the same (zero) over-estimation rate — the optimizer");
    println!("can finally use the market outside its spike window. On the structureless");
    println!("paper markets, per-hour buckets thin the data and the conditioned model");
    println!("over-fits (f rises from ~0.04 to ~0.11): condition only when the market");
    println!("actually shows diurnal structure — which is why the paper leaves this as a");
    println!("footnote rather than a default.");

    let (f_base, f_diur, m_base, m_diur) = scored[0];
    let gain = m_diur / m_base;
    let over_fits = scored[1..].iter().all(|&(base, diur, ..)| diur > base);
    claim(
        "ablation_diurnal:condition_only_on_diurnal_markets",
        gain >= 6.0 && f_diur <= f_base && over_fits,
        format!(
            "diurnal market: mean L x{gain:.2} (>= 6) at f {f_diur:.3} (<= base's {f_base:.3}); \
             paper markets: f rises when conditioned {over_fits} ({:.3?})",
            scored[1..]
                .iter()
                .map(|&(base, diur, ..)| (base, diur))
                .collect::<Vec<_>>()
        ),
    );
}
