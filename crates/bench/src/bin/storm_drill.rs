//! Churn-at-scale storm suite: correlated-revocation drills with decay
//! curves (DESIGN.md §"Correlated churn").
//!
//! Where `revocation_drill` kills ONE primary, this drill kills a
//! *fraction of the fleet* — N live reactor-backed primaries, each
//! replicating to its backup server, behind the router hashring
//! ([`spotcache_bench::fleet`]) — and replays the storm matrix:
//!
//! * `warned` — every victim gets the rebalance warning; replacements
//!   pre-warm inside the warning window.
//! * `unwarned` — the same kill-set and kill times (same seed salt),
//!   but no notice: recovery starts only at the decorrelated restarts.
//! * `cascade` — a second, unwarned spike lands on the survivors while
//!   the first wave is still recovering.
//! * `multi_router_degraded` — a heavier fraction dies so several
//!   routers sit in `Degraded` simultaneously.
//!
//! Each scenario emits decay series (fresh / served / stale rates, SLO
//! burn, degraded-router census) plus the [`StormDetector`] trigger
//! window and [`BreachTracker`] burn-breach intervals, into
//! `BENCH_storm.json` (schema `spotcache-storm-v1`). The recovery
//! invariants are decided here, live, as claims (`storm:<slug>`, one
//! [`claim`] line each on standard error, cited in EXPERIMENTS.md):
//!
//! 1. warned recovery ≤ unwarned recovery, for the identical storm;
//! 2. no permanent hit-rate floor loss (tail fresh rate recovers);
//! 3. the storm trigger fires in every scenario, and never later than
//!    the first freshness-SLO burn breach;
//! 4. every decay series is non-empty and strictly monotone in time, and
//!    every killed node has one kill window.
//!
//! The artifact is written whatever the verdicts; the drill then exits 1
//! if a claim broke.
//!
//! [`StormDetector`]: spotcache_obs::StormDetector
//! [`BreachTracker`]: spotcache_obs::BreachTracker

use spotcache_bench::faults::StormSpec;
use spotcache_bench::fleet::{
    default_scenarios, run_scenario, storm_drill_shape, FleetConfig, FleetRun, Scenario,
    RECOVERY_FRACTION,
};
use spotcache_bench::live::{write_artifact, Flags};
use spotcache_bench::{claim, claims_hold, heading, print_table};
use spotcache_obs::Obs;
use std::process::ExitCode;
use std::sync::Arc;

struct Config {
    out: String,
    storm: FleetConfig,
    wave: StormSpec,
    smoke: bool,
}

impl Config {
    fn from_args() -> Self {
        let mut flags = Flags::from_env();
        let (smoke, out, seed) = flags.artifact_run("BENCH_storm.json");
        flags.finish();
        let (storm, wave) = storm_drill_shape(smoke, seed);
        Self {
            out,
            storm,
            wave,
            smoke,
        }
    }
}

fn u64s_json(xs: &[u64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", cells.join(","))
}

fn breaches_json(bs: &[(u64, Option<u64>)]) -> String {
    let cells: Vec<String> = bs
        .iter()
        .map(|&(s, e)| format!("[{s},{}]", e.map_or("null".into(), |e| e.to_string())))
        .collect();
    format!("[{}]", cells.join(","))
}

fn scenario_json(sc: &Scenario, r: &FleetRun) -> String {
    let restored: u64 = r.restores.values().map(|rep| rep.items_restored).sum();
    format!(
        "{{\"warned\":{},\"cascade\":{},\
         \"killed\":{},\"kill_windows\":{},\"restart_windows\":{},\
         \"last_kill\":{},\"steady_fresh_rate\":{:.4},\"final_fresh_rate\":{:.4},\
         \"recovery_windows\":{},\"storm_trigger_window\":{},\
         \"storm_trigger_latency_windows\":{},\"burn_breaches\":{},\
         \"max_degraded_routers\":{},\"pumped_items\":{},\
         \"series\":{{\"fresh\":{},\"served\":{},\"stale\":{},\"burn\":{},\"degraded\":{}}}}}",
        sc.storm.warning.is_some(),
        sc.cascade,
        u64s_json(&r.killed),
        u64s_json(&r.kill_windows),
        u64s_json(&r.restart_windows),
        r.last_kill,
        r.steady_fresh,
        r.final_fresh,
        r.recovery_windows.map_or("null".into(), |w| w.to_string()),
        r.trigger_window.map_or("null".into(), |w| w.to_string()),
        r.trigger_latency.map_or("null".into(), |l| l.to_string()),
        breaches_json(&r.breaches),
        r.max_degraded,
        restored,
        r.fresh.json(),
        r.served.json(),
        r.stale.json(),
        r.burn.json(),
        r.degraded.json(),
    )
}

fn main() -> ExitCode {
    if !claims_hold(run) {
        return ExitCode::FAILURE;
    }
    println!("storm drill OK");
    ExitCode::SUCCESS
}

/// Decides the storm claims over every scenario's run (`storm:<slug>`,
/// cited in EXPERIMENTS.md).
fn decide(s: &FleetConfig, results: &[(Scenario, FleetRun)]) {
    let each = |cell: &dyn Fn(&FleetRun) -> String| {
        results
            .iter()
            .map(|(sc, r)| format!("{} {}", sc.name, cell(r)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let all = |holds: &dyn Fn(&FleetRun) -> bool| results.iter().all(|(_, r)| holds(r));
    let windows = |w: Option<u64>| w.map_or("never".to_string(), |w| w.to_string());
    claim(
        "storm:steady_state_hits",
        all(&|r| r.steady_fresh >= 0.8),
        format!(
            "steady fresh rate {} (>= 0.8)",
            each(&|r| format!("{:.3}", r.steady_fresh))
        ),
    );
    claim(
        "storm:every_scenario_recovers",
        all(&|r| r.recovery_windows.is_some()),
        format!(
            "recovery windows {}",
            each(&|r| windows(r.recovery_windows))
        ),
    );
    // No permanent hit-rate floor loss: the tail of the fresh curve is
    // back above the recovery bar, not just one lucky window.
    claim(
        "storm:no_floor_loss",
        all(&|r| r.final_fresh >= RECOVERY_FRACTION * r.steady_fresh),
        format!(
            "tail / steady fresh rate {} (>= {RECOVERY_FRACTION})",
            each(&|r| format!("{:.3}", r.final_fresh / r.steady_fresh))
        ),
    );
    // The detector fires in every scenario, within its configured window
    // of the burst onset...
    claim(
        "storm:detector_fires_in_its_window",
        all(&|r| {
            r.trigger_window.is_some() && r.trigger_latency.is_some_and(|l| l <= s.detector_window)
        }),
        format!(
            "trigger latency {} (<= {} windows)",
            each(&|r| windows(r.trigger_latency)),
            s.detector_window
        ),
    );
    // ...and before the freshness SLO starts burning through its budget
    // (detection leads the pager, not the other way around).
    claim(
        "storm:trigger_leads_burn_breach",
        all(&|r| match (r.trigger_window, r.breaches.first()) {
            (Some(trigger), Some((breach, _))) => trigger <= *breach,
            (_, None) => true,
            (None, Some(_)) => false,
        }),
        format!(
            "trigger / first breach window {}",
            each(&|r| format!(
                "{}/{}",
                windows(r.trigger_window),
                windows(r.breaches.first().map(|b| b.0))
            ))
        ),
    );
    claim(
        "storm:series_monotone",
        all(&|r| {
            [&r.fresh, &r.served, &r.stale, &r.burn, &r.degraded]
                .iter()
                .all(|series| {
                    let points = series.points();
                    !points.is_empty() && points.windows(2).all(|p| p[0].0 < p[1].0)
                })
        }),
        format!(
            "fresh / served / stale / burn / degraded points {}, each non-empty and \
             strictly increasing in time",
            each(&|r| format!("{}", r.fresh.points().len()))
        ),
    );
    claim(
        "storm:one_kill_window_per_kill",
        all(&|r| r.killed.len() == r.kill_windows.len()),
        format!(
            "killed / kill windows {}",
            each(&|r| format!("{}/{}", r.killed.len(), r.kill_windows.len()))
        ),
    );
    let by_name = |name: &str| {
        results
            .iter()
            .find(|(sc, _)| sc.name == name)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("missing scenario {name}"))
    };
    let (warned, unwarned) = (by_name("warned"), by_name("unwarned"));
    // Paired storms: identical kill-sets at identical times, so recovery
    // times are directly comparable — and warning must never hurt.
    let paired = warned.killed == unwarned.killed && warned.kill_windows == unwarned.kill_windows;
    claim(
        "storm:warned_not_slower",
        paired
            && matches!(
                (warned.recovery_windows, unwarned.recovery_windows),
                (Some(w), Some(u)) if w <= u
            ),
        format!(
            "same kill-set and times: {paired}; recovery warned {} vs unwarned {} windows",
            windows(warned.recovery_windows),
            windows(unwarned.recovery_windows)
        ),
    );
    let cascade = by_name("cascade");
    claim(
        "storm:cascade_out_kills_one_wave",
        cascade.killed.len() > warned.killed.len(),
        format!(
            "cascade kills {} nodes, one wave {}",
            cascade.killed.len(),
            warned.killed.len()
        ),
    );
    let multi = by_name("multi_router_degraded");
    claim(
        "storm:two_routers_degraded",
        multi.max_degraded >= 2,
        format!(
            "multi_router_degraded holds {} routers degraded at once (>= 2)",
            multi.max_degraded
        ),
    );
}

/// The whole drill: the claims are decided before the artifact is
/// written, and none of them stops the run.
fn run() {
    let cfg = Config::from_args();
    let s = &cfg.storm;
    heading("Storm drill (correlated revocation waves)");
    println!(
        "fleet: {} nodes, {} keys, {} ops/window @ {:?}; detector {}+ kills / {} windows; \
         freshness SLO zeta={}",
        s.nodes,
        s.key_space,
        s.ops_per_window,
        s.window,
        s.detector_threshold,
        s.detector_window,
        s.slo_target,
    );

    let obs = Arc::new(Obs::new());
    let mut results: Vec<(Scenario, FleetRun)> = Vec::new();
    for sc in default_scenarios(cfg.wave) {
        heading(&format!("scenario: {}", sc.name));
        let r = run_scenario(s, &sc, &obs);
        println!(
            "killed {:?} at windows {:?}; recovery {} windows; trigger {:?} (latency {:?}); \
             max degraded {}; breaches {:?}",
            r.killed,
            r.kill_windows,
            r.recovery_windows.map_or("never".into(), |w| w.to_string()),
            r.trigger_window,
            r.trigger_latency,
            r.max_degraded,
            r.breaches,
        );
        results.push((sc, r));
    }

    decide(s, &results);

    heading("summary");
    print_table(
        &[
            "scenario",
            "killed",
            "recovery_w",
            "trigger_w",
            "latency_w",
            "max_degraded",
            "breaches",
        ],
        &results
            .iter()
            .map(|(sc, r)| {
                vec![
                    sc.name.to_string(),
                    r.killed.len().to_string(),
                    r.recovery_windows.map_or("never".into(), |w| w.to_string()),
                    r.trigger_window.map_or("-".into(), |w| w.to_string()),
                    r.trigger_latency.map_or("-".into(), |l| l.to_string()),
                    r.max_degraded.to_string(),
                    r.breaches.len().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let scenario_cells: Vec<String> = results
        .iter()
        .map(|(sc, r)| format!("\"{}\":{}", sc.name, scenario_json(sc, r)))
        .collect();
    let json = format!(
        "{{\"schema\":\"spotcache-storm-v1\",\"smoke\":{},\"seed\":{},\
         \"nodes\":{},\"key_space\":{},\"window_s\":{:.3},\"ops_per_window\":{},\
         \"slo\":\"freshness\",\"slo_target\":{},\
         \"storm_detector\":{{\"window\":{},\"threshold\":{}}},\
         \"recovery_fraction\":{},\"pump_base_rate\":{:.1},\
         \"scenarios\":{{{}}},\"obs\":{}}}",
        cfg.smoke,
        s.seed,
        s.nodes,
        s.key_space,
        s.window.as_secs_f64(),
        s.ops_per_window,
        s.slo_target,
        s.detector_window,
        s.detector_threshold,
        RECOVERY_FRACTION,
        s.pump.base_rate,
        scenario_cells.join(","),
        obs.json_snapshot(),
    );
    write_artifact(&cfg.out, &json);
}
