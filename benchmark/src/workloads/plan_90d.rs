//! `plan_90d`: the control plane alone. One thread, no sockets: the hourly
//! simulator plans 90 days of four spot markets for the paper's system
//! (`Prop`) and for its on-demand-only twin, over and over. `spotmodel`,
//! `optimizer`, `core::controlplane`, `sim` and `cloud` do all the work and
//! the data plane none.

use std::time::Instant;

use spotcache_cloud::spot::{Bid, SpotTrace};
use spotcache_cloud::tracegen::{paper_markets, MarketProfile, TraceGenerator};
use spotcache_core::controller::{ControllerConfig, GlobalController};
use spotcache_core::simulation::{simulate, SimConfig, SimResult};
use spotcache_core::Approach;
use spotcache_spotmodel::{SpotPredictor, TemporalPredictor};

use crate::harness::{DriftGuard, RunArgs, RunOutput};
use crate::stats::{median, quantile_sorted};

/// Simulated days (the first [`TRAINING_DAYS`] only feed the predictors).
pub const DAYS: u64 = 90;
/// Days of history before billing starts.
pub const TRAINING_DAYS: u64 = 7;
/// Peak arrival rate of the simulated workload, operations per second.
pub const PEAK_RATE: f64 = 500_000.0;
/// Largest working set, GiB.
pub const MAX_WSS_GB: f64 = 100.0;
/// Popularity skew.
pub const THETA: f64 = 0.99;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Hour slots one `simulate` call plans and bills.
pub const SLOTS_PER_CALL: u64 = (DAYS - TRAINING_DAYS) * 24;

/// The inputs of a run: four market traces and the two configurations.
pub struct Inputs {
    /// 90-day price traces of the paper's four markets, reseeded from the
    /// run's seed.
    pub traces: Vec<SpotTrace>,
    /// The paper's system.
    pub prop: SimConfig,
    /// The on-demand-only baseline costs are normalised by.
    pub od_only: SimConfig,
    /// Seconds generating the traces alone.
    pub tracegen_s: f64,
}

/// Builds the inputs. The market shapes are the paper's; their noise and
/// the workload's noise come from `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let profiles: Vec<MarketProfile> = paper_markets()
        .into_iter()
        .map(|mut p| {
            p.seed ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            p
        })
        .collect();
    let t0 = Instant::now();
    let traces: Vec<SpotTrace> = profiles
        .iter()
        .map(|p| TraceGenerator::generate(p, DAYS))
        .collect();
    let tracegen_s = t0.elapsed().as_secs_f64();
    let config = |approach| {
        let mut cfg = SimConfig::paper_default(approach, PEAK_RATE, MAX_WSS_GB, THETA);
        cfg.days = DAYS;
        cfg.training_days = TRAINING_DAYS;
        cfg.seed ^= seed;
        cfg
    };
    Inputs {
        traces,
        prop: config(Approach::Prop),
        od_only: config(Approach::OdOnly),
        tracegen_s,
    }
}

/// What one Prop + OdOnly pair produced.
pub struct Pair {
    /// Wall seconds of the pair.
    pub secs: f64,
    /// Total cost of the paper's system, dollars.
    pub prop_cost: f64,
    /// Total cost of the on-demand-only baseline, dollars.
    pub od_cost: f64,
    /// Share of simulated request mass not degraded by a revocation.
    pub unaffected: f64,
    /// Share of simulated days that met the performance target.
    pub good_days: f64,
}

fn unaffected_share(r: &SimResult) -> f64 {
    let n = r.slots.len().max(1) as f64;
    1.0 - r.slots.iter().map(|s| s.affected_frac).sum::<f64>() / n
}

/// Plans and bills both configurations once.
pub fn pair(inp: &Inputs) -> Result<Pair, String> {
    let t0 = Instant::now();
    let prop = simulate(&inp.prop, &inp.traces).map_err(|e| format!("Prop: {e}"))?;
    let od = simulate(&inp.od_only, &inp.traces).map_err(|e| format!("OdOnly: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(Pair {
        secs,
        prop_cost: prop.total_cost(),
        od_cost: od.total_cost(),
        unaffected: unaffected_share(&prop),
        good_days: 1.0 - prop.violated_day_frac(),
    })
}

/// Repeats [`pair`] for `seconds`, each repetition a guarded slice, and
/// checks every repetition against the first bit for bit.
pub fn measure(
    inp: &Inputs,
    seconds: f64,
    guard: &mut DriftGuard,
    out: &mut RunOutput,
) -> Result<Vec<Pair>, String> {
    let t0 = Instant::now();
    let mut pairs: Vec<Pair> = Vec::new();
    while pairs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let p = guard.slice(|| pair(inp))?;
        out.attempted += 2 * SLOTS_PER_CALL;
        if let Some(first) = pairs.first() {
            let same = p.prop_cost.to_bits() == first.prop_cost.to_bits()
                && p.od_cost.to_bits() == first.od_cost.to_bits()
                && p.unaffected.to_bits() == first.unaffected.to_bits();
            if !same {
                out.failed += 2 * SLOTS_PER_CALL;
                out.violations.push(format!(
                    "repetition {} differs from the first: cost {} vs {}",
                    pairs.len(),
                    p.prop_cost,
                    first.prop_cost
                ));
            }
        }
        pairs.push(p);
    }
    let first = &pairs[0];
    let norm = first.prop_cost / first.od_cost;
    if !(first.od_cost > 0.0 && norm > 0.0 && norm < 1.0) {
        out.violations.push(format!(
            "cost_norm {norm} is outside (0, 1): the paper's system must undercut on-demand"
        ));
    }
    Ok(pairs)
}

/// Writes the metrics of the repetitions.
pub fn report_pairs(out: &mut RunOutput, pairs: &[Pair]) {
    // The faster quartile of the repetitions: interference only slows one.
    let mut secs: Vec<f64> = pairs.iter().map(|p| p.secs).collect();
    secs.sort_by(f64::total_cmp);
    let call_s = quantile_sorted(&secs, 0.25);
    out.set("ops_per_s", 2.0 * SLOTS_PER_CALL as f64 / call_s);
    out.set("lat_p50_us", call_s * 1e6);
    out.set("hit_rate", pairs[0].unaffected);
    out.set("availability", pairs[0].good_days);
    out.set("sim.cost_norm", pairs[0].prop_cost / pairs[0].od_cost);
    out.set(
        "core.plan_ms_per_slot",
        call_s * 1e3 / (2.0 * SLOTS_PER_CALL as f64),
    );
}

/// Per-layer probes of the control plane: each public call timed on its
/// own, over this run's traces.
pub fn probes(inp: &Inputs, out: &mut RunOutput) {
    out.set("cloud.tracegen_ms", inp.tracegen_s * 1e3);

    // spotmodel: the temporal predictor, over every market, both paper
    // bids, one call per simulated day.
    let predictor = TemporalPredictor::paper_default();
    let t0 = Instant::now();
    let mut calls = 0u64;
    let mut some = 0u64;
    for day in TRAINING_DAYS..DAYS {
        let now = day * spotcache_cloud::DAY;
        for trace in &inp.traces {
            for mult in [1.0, 5.0] {
                let bid = Bid::times_od(mult, trace.od_price);
                some +=
                    u64::from(std::hint::black_box(predictor.predict(trace, now, bid)).is_some());
                calls += 1;
            }
        }
    }
    std::hint::black_box(some);
    out.set(
        "spotmodel.predict_us_per_call",
        t0.elapsed().as_secs_f64() * 1e6 / calls as f64,
    );

    // core + optimizer: one `GlobalController::plan` per simulated day at
    // the paper's reference demand. `plan` is offer building (spotmodel)
    // plus `ProcurementProblem::solve`; the solve share is what is left
    // after the predictor calls a plan makes are taken out.
    let mut controller = GlobalController::new(ControllerConfig::paper_default(Approach::Prop));
    let traces: Vec<&SpotTrace> = inp.traces.iter().collect();
    let t0 = Instant::now();
    let mut plans = 0u64;
    for day in TRAINING_DAYS..DAYS {
        let now = day * spotcache_cloud::DAY;
        if controller
            .plan(&traces, now, THETA, PEAK_RATE * 0.6, MAX_WSS_GB * 0.8)
            .is_ok()
        {
            plans += 1;
        }
    }
    let plan_us = t0.elapsed().as_secs_f64() * 1e6 / plans.max(1) as f64;
    let t0 = Instant::now();
    for day in TRAINING_DAYS..DAYS {
        let now = day * spotcache_cloud::DAY;
        std::hint::black_box(controller.build_offers(&traces, now));
    }
    let offers_us = t0.elapsed().as_secs_f64() * 1e6 / (DAYS - TRAINING_DAYS) as f64;
    out.set("optimizer.solve_us", (plan_us - offers_us).max(0.0));
}

/// Runs the workload.
pub fn run(args: &RunArgs, pinned: bool) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut guard = DriftGuard::new();
    let mut setup_secs = Vec::new();
    let mut inp = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inp = Some(inputs(args.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let inp = inp.expect("SETUPS > 0");
    out.set("setup_s", median(&setup_secs));
    if args.trace {
        // The control plane has no tracing to switch on from outside; the
        // traced run spends its time on the per-layer probes instead.
        let pairs = measure(&inp, args.seconds / 2.0, &mut guard, &mut out)?;
        report_pairs(&mut out, &pairs);
        probes(&inp, &mut out);
    } else {
        // One untimed repetition: allocator and caches settle.
        pair(&inp)?;
        let pairs = measure(&inp, args.seconds, &mut guard, &mut out)?;
        report_pairs(&mut out, &pairs);
    }
    guard.report(&mut out, pinned);
    Ok(out)
}
