//! Observability must be a pure observer: attaching an [`Obs`] bundle to a
//! run cannot change its results, and two identical instrumented runs must
//! produce byte-identical snapshots (all journal timestamps come from
//! logical clocks, never the wall clock).
#![allow(clippy::excessive_precision)]

use std::sync::Arc;

use spotcache::cloud::tracegen::paper_traces;
use spotcache::core::simulation::{HourlySim, SimConfig, SimResult};
use spotcache::core::{Approach, ControlLoop, GlobalController};
use spotcache::obs::export::validate_json;
use spotcache::obs::Obs;
use spotcache::sim::recovery::{simulate_recovery, RecoveryConfig};

fn assert_close(got: f64, want: f64, what: &str) {
    let tol = 1e-9 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got:.17e}, want {want:.17e}"
    );
}

fn observed_golden_run(obs: Arc<Obs>) -> SimResult {
    let mut cfg = SimConfig::paper_default(Approach::OdSpotCdf, 500_000.0, 100.0, 2.0);
    cfg.days = 21;
    cfg.seed = 0xBEEF;
    ControlLoop::new(GlobalController::new(cfg.controller.clone()), cfg.theta)
        .with_obs(obs)
        .run(HourlySim::new(cfg, paper_traces(21)))
        .unwrap()
}

/// Instrumentation must not perturb the golden-equivalence results: the
/// observed run reproduces the same captured values as the bare run in
/// `equivalence_golden.rs`, to full f64 precision.
#[test]
fn observed_sim_matches_golden_values() {
    let obs = Arc::new(Obs::new());
    let r = observed_golden_run(Arc::clone(&obs));
    assert_close(r.total_cost(), 3.985_140_833_333_325_08e2, "total cost");
    assert_close(
        r.violated_day_frac(),
        4.285_714_285_714_285_48e-1,
        "violated day fraction",
    );
    assert_eq!(r.revocations, 315);
    // And the run actually left a trail.
    assert_eq!(obs.counter("sim_revocations_total").get(), 315);
    assert!(!obs.journal().is_empty());
}

/// Two identical instrumented runs export byte-identical Prometheus text
/// and JSON snapshots: every timestamp is logical, the registry iterates in
/// name order, and the journal is strictly append-ordered.
#[test]
fn observed_snapshots_are_deterministic() {
    let snap = |_: usize| {
        let obs = Arc::new(Obs::new());
        let sim = observed_golden_run(Arc::clone(&obs));
        assert_eq!(sim.revocations, 315);
        let rcfg = RecoveryConfig::figure11(None);
        simulate_recovery(&rcfg, Some(&obs), None);
        (obs.prometheus_text(), obs.json_snapshot())
    };
    let (prom_a, json_a) = snap(0);
    let (prom_b, json_b) = snap(1);
    assert_eq!(prom_a, prom_b, "Prometheus text diverged between runs");
    assert_eq!(json_a, json_b, "JSON snapshot diverged between runs");
    validate_json(&json_a).expect("snapshot is well-formed JSON");
}

/// The snapshot of an observed sim + recovery covers every layer's series.
#[test]
fn snapshot_covers_all_instrumented_layers() {
    let obs = Arc::new(Obs::new());
    observed_golden_run(Arc::clone(&obs));
    let rcfg = RecoveryConfig::figure11(spotcache::cloud::catalog::find_type("t2.medium"));
    simulate_recovery(&rcfg, Some(&obs), None);
    let prom = obs.prometheus_text();
    for series in [
        "control_replans_total",
        "control_lp_solves_total",
        "control_lp_skipped_total",
        "control_lp_pivots_total",
        "control_plan_gap",
        "control_plan_cost_dollars",
        "control_zeta",
        "control_bids_total",
        "control_revocations_total",
        "sim_slot_cost_dollars",
        "sim_revocations_total",
        "recovery_warmed_mass",
        "recovery_pump_items_per_s",
        "bucket_backup_cpu_level",
        "bucket_backup_net_level",
    ] {
        assert!(prom.contains(series), "missing series {series}\n{prom}");
    }
    let json = obs.json_snapshot();
    validate_json(&json).expect("well-formed JSON");
    for kind in ["bid_placed", "revocation", "backup_warmup_progress"] {
        assert!(json.contains(kind), "missing journal event kind {kind}");
    }
}
