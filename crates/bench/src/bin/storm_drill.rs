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
//! invariants are asserted here, live:
//!
//! 1. warned recovery ≤ unwarned recovery, for the identical storm;
//! 2. no permanent hit-rate floor loss (tail fresh rate recovers);
//! 3. the storm trigger fires in every scenario, and never later than
//!    the first freshness-SLO burn breach.
//!
//! [`StormDetector`]: spotcache_obs::StormDetector
//! [`BreachTracker`]: spotcache_obs::BreachTracker

use spotcache_bench::faults::StormSpec;
use spotcache_bench::fleet::{
    default_scenarios, run_scenario, storm_drill_shape, FleetConfig, FleetRun, Scenario,
    RECOVERY_FRACTION,
};
use spotcache_bench::live::{write_artifact, Flags};
use spotcache_bench::{heading, print_table};
use spotcache_obs::Obs;
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

fn main() {
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

    // --- Invariants (the drill *fails* rather than record a bad run) ---
    for (sc, r) in &results {
        assert!(
            r.steady_fresh >= 0.8,
            "{}: steady state must mostly hit fresh, got {:.3}",
            sc.name,
            r.steady_fresh
        );
        assert!(
            r.recovery_windows.is_some(),
            "{}: fleet must recover within the observation period",
            sc.name
        );
        // No permanent hit-rate floor loss: the tail of the fresh curve
        // is back above the recovery bar, not just one lucky window.
        assert!(
            r.final_fresh >= RECOVERY_FRACTION * r.steady_fresh,
            "{}: permanent floor loss: tail fresh {:.3} < {:.2} x steady {:.3}",
            sc.name,
            r.final_fresh,
            RECOVERY_FRACTION,
            r.steady_fresh
        );
        // The detector must fire in every scenario...
        let trigger = r
            .trigger_window
            .unwrap_or_else(|| panic!("{}: storm detector never fired", sc.name));
        // ...within its configured window of the burst onset...
        let latency = r.trigger_latency.expect("latency set with trigger");
        assert!(
            latency <= s.detector_window,
            "{}: trigger latency {latency} windows exceeds detector window {}",
            sc.name,
            s.detector_window
        );
        // ...and before the freshness SLO starts burning through its
        // budget (detection leads the pager, not the other way around).
        if let Some((first_breach, _)) = r.breaches.first() {
            assert!(
                trigger <= *first_breach,
                "{}: storm trigger (window {trigger}) lagged the first burn breach \
                 (window {first_breach})",
                sc.name
            );
        }
    }
    let by_name = |name: &str| {
        results
            .iter()
            .find(|(sc, _)| sc.name == name)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("missing scenario {name}"))
    };
    let warned = by_name("warned");
    let unwarned = by_name("unwarned");
    // Paired storms: identical kill-sets at identical times, so recovery
    // times are directly comparable — and warning must never hurt.
    assert_eq!(
        warned.killed, unwarned.killed,
        "warned/unwarned pairing broke: different kill-sets"
    );
    assert_eq!(
        warned.kill_windows, unwarned.kill_windows,
        "warned/unwarned pairing broke: different kill times"
    );
    let (w, u) = (
        warned.recovery_windows.expect("asserted above"),
        unwarned.recovery_windows.expect("asserted above"),
    );
    assert!(
        w <= u,
        "warned recovery ({w} windows) must not exceed unwarned ({u} windows)"
    );
    let cascade = by_name("cascade");
    assert!(
        cascade.killed.len() > warned.killed.len(),
        "cascade must out-kill a single wave ({} vs {})",
        cascade.killed.len(),
        warned.killed.len()
    );
    let multi = by_name("multi_router_degraded");
    assert!(
        multi.max_degraded >= 2,
        "multi-router scenario must degrade >=2 routers at once, got {}",
        multi.max_degraded
    );

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
    println!("storm drill OK");
}
