//! Recovery integration tests on small real fleets with deterministic
//! seeds: the storm suite's central invariant — for the *identical*
//! storm (same kill-set, same kill times), a warned fleet recovers no
//! slower than an unwarned one — and every recovery strategy restoring
//! a revoked node through a live `DegradedRouter`.
//!
//! This is the same fleet both drills run, shrunk to 3 nodes with
//! one-kill waves (or to one node) so each run finishes in about a
//! second. The detector threshold drops to 1 accordingly (a single
//! revocation *is* the storm at this scale).

use spotcache_bench::faults::{StormEvent, StormSpec};
use spotcache_bench::fleet::{run_scenario, Fleet, FleetConfig, Scenario};
use spotcache_obs::Obs;
use spotcache_recovery::checkpoint::CheckpointConfig;
use spotcache_recovery::replay::WarmupConfig;
use spotcache_recovery::strategy::{RecoveryStrategy, TopUpConfig};
use spotcache_router::degraded::DrillPhase;
use std::sync::Arc;
use std::time::Duration;

fn tiny_fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        nodes: 3,
        key_space: 240,
        ops_per_window: 80,
        window: Duration::from_millis(25),
        steady_windows: 4,
        observe_windows: 24,
        warning_windows: 8,
        slo_target: 0.6, // one of three nodes stale must be breachable
        slo_window_factor: 4,
        detector_window: 4,
        detector_threshold: 1,
        pump: WarmupConfig {
            max_items: 240,
            base_rate: 2_000.0,
            peak_rate: 2_000.0,
            initial_credits: 0.0,
            ..WarmupConfig::default()
        },
        store_bytes: 16 << 20,
        store_shards: 2,
        seed,
    }
}

/// A one-kill wave 10 windows after steady state, warned `warning`
/// windows ahead or not at all.
fn tiny_wave(cfg: &FleetConfig, warning: Option<u64>) -> StormSpec {
    StormSpec {
        kill_frac: 0.34,
        start: cfg.steady_windows + 10,
        spread: 1,
        warning,
        restart_delay: 4,
        restart_jitter: 0.3,
    }
}

#[test]
fn warned_recovery_never_loses_to_unwarned() {
    let cfg = tiny_fleet(7);
    let obs = Arc::new(Obs::new());
    let salt = 0xD4;
    let warned = run_scenario(
        &cfg,
        &Scenario {
            name: "warned",
            storm: tiny_wave(&cfg, Some(cfg.warning_windows)),
            cascade: false,
            salt,
        },
        &obs,
    );
    let unwarned = run_scenario(
        &cfg,
        &Scenario {
            name: "unwarned",
            storm: tiny_wave(&cfg, None),
            cascade: false,
            salt,
        },
        &obs,
    );

    // Same salt ⇒ the identical storm: the comparison is node-for-node.
    assert_eq!(warned.killed, unwarned.killed, "kill-sets must pair");
    assert_eq!(
        warned.kill_windows, unwarned.kill_windows,
        "kill times must pair"
    );

    // Both fleets saw a healthy baseline and both recovered.
    assert!(warned.steady_fresh >= 0.8, "{}", warned.steady_fresh);
    assert!(unwarned.steady_fresh >= 0.8, "{}", unwarned.steady_fresh);
    let w = warned.recovery_windows.expect("warned fleet must recover");
    let u = unwarned
        .recovery_windows
        .expect("unwarned fleet must recover");

    // The invariant under test: advance notice never slows recovery.
    // (The pre-warm finishes inside the warning window, so the warned
    // fleet cuts over at the kill; the unwarned one pays the restart
    // delay plus the paced pump.)
    assert!(
        w <= u,
        "warned recovery ({w} windows) lost to unwarned ({u} windows)"
    );

    // The detector latched in both runs, and dated the trigger inside
    // its window of the burst onset.
    for r in [&warned, &unwarned] {
        let latency = r.trigger_latency.expect("detector must latch");
        assert!(latency <= cfg.detector_window);
        assert!(r.trigger_window.is_some());
        // Decay series cover every driven window, strictly monotone by
        // construction (push rejects regressions — none may occur).
        assert_eq!(r.fresh.dropped(), 0, "driver produced non-monotone pushes");
        assert!(r.fresh.len() as u64 >= cfg.steady_windows + cfg.observe_windows);
    }
}

#[test]
fn every_strategy_restores_an_unwarned_node() {
    let cfg = FleetConfig {
        nodes: 1,
        ..tiny_fleet(11)
    };
    let obs = Arc::new(Obs::new());
    let kill_at = cfg.steady_windows;
    let event = StormEvent {
        node: 0,
        warn_at: None,
        kill_at,
        restart_at: kill_at,
    };
    for strategy in [
        RecoveryStrategy::Replay(cfg.pump.clone()),
        RecoveryStrategy::Checkpoint(CheckpointConfig::default()),
        RecoveryStrategy::Hybrid {
            checkpoint: CheckpointConfig::default(),
            top_up: TopUpConfig::default(),
        },
    ] {
        let name = strategy.name();
        let fleet = Fleet::start(&cfg, strategy, &obs, None, None);
        let router = Arc::clone(fleet.router(0));
        let run = fleet.run(&[event], 3, |_| {});

        assert!(run.recovery_windows.is_some(), "{name}: never recovered");
        assert_eq!(router.phase(), DrillPhase::Warmed, "{name}");
        let report = run
            .restores
            .get(&0)
            .unwrap_or_else(|| panic!("{name}: no restore report"));
        assert_eq!(report.items_restored, cfg.key_space, "{name}");
        // The report shape each arm implies (unwarned: any checkpoint is
        // cut inside the restore, from the backup).
        match name {
            "replay" => assert!(report.pump.is_some()),
            "checkpoint" => assert!(report.ckpt_cut.is_some() && report.ckpt.is_some()),
            _ => assert!(report.ckpt.is_some()),
        }
    }
}
