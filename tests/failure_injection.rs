//! Failure-injection integration tests: correlated multi-market
//! revocations, depleted backups, flash crowds colliding with failures —
//! the unhappy paths a production deployment actually meets.

use spotcache::cloud::catalog::find_type;
use spotcache::cloud::tracegen::{correlated_paper_traces, paper_traces};
use spotcache::core::simulation::{simulate, FlashCrowd, SimConfig};
use spotcache::core::Approach;
use spotcache::sim::{simulate_recovery, RecoveryConfig};

/// Correlated regional shocks take several markets down at once; every
/// approach must still complete its 90 days without error, and the cost
/// ordering must survive.
#[test]
fn correlated_markets_do_not_break_any_approach() {
    let traces = correlated_paper_traces(21);
    let mut costs = std::collections::HashMap::new();
    for a in Approach::ALL {
        let mut cfg = SimConfig::paper_default(a, 320_000.0, 60.0, 0.99);
        cfg.days = 21;
        let r = simulate(&cfg, &traces).unwrap_or_else(|e| panic!("{a}: {e}"));
        costs.insert(a, r.total_cost());
    }
    assert!(costs[&Approach::PropNoBackup] < costs[&Approach::OdOnly]);
    assert!(costs[&Approach::OdOnly] <= costs[&Approach::OdPeak]);
}

/// Correlated failures hurt more than independent ones at equal ζ — the
/// motivation for the availability floor.
#[test]
fn correlated_failures_hurt_more_than_independent() {
    let run = |traces: &[spotcache::cloud::SpotTrace]| {
        let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 500_000.0, 100.0, 2.0);
        cfg.days = 21;
        cfg.controller.cost.zeta = 0.0;
        simulate(&cfg, traces).unwrap()
    };
    let indep = run(&paper_traces(21));
    let corr = run(&correlated_paper_traces(21));
    let worst = |r: &spotcache::core::SimResult| {
        r.slots
            .iter()
            .map(|h| h.affected_frac)
            .fold(0.0f64, f64::max)
    };
    assert!(
        worst(&corr) >= worst(&indep),
        "correlated worst-hour {} vs independent {}",
        worst(&corr),
        worst(&indep)
    );
}

/// A backup that recently absorbed a failure (depleted buckets) recovers
/// like a regular instance at its baseline, not like a fresh burstable.
#[test]
fn depleted_backup_degrades_gracefully() {
    let t2 = find_type("t2.medium").unwrap();
    let fresh = simulate_recovery(&RecoveryConfig::figure11(Some(t2)), None, None);
    let mut drained_cfg = RecoveryConfig::figure11(Some(t2));
    drained_cfg.backup_credits_fraction = 0.0;
    let drained = simulate_recovery(&drained_cfg, None, None);
    let f = fresh.recovered_at.expect("fresh backup recovers");
    if let Some(d) = drained.recovered_at {
        // (`None` is even slower: not recovered within the horizon.)
        assert!(d > f, "drained {d} should be slower than fresh {f}");
    }
    // But a drained backup still converges monotonically (no divergence).
    for w in drained.points.windows(2) {
        assert!(w[1].warmed_mass >= w[0].warmed_mass - 1e-9);
    }
}

/// Flash crowd and spot failures together: the reactive element must not
/// mask failure accounting, and the simulation must stay consistent.
#[test]
fn flash_crowd_with_failures_stays_consistent() {
    let traces = correlated_paper_traces(21);
    let mut cfg = SimConfig::paper_default(Approach::Prop, 320_000.0, 60.0, 0.99);
    cfg.days = 21;
    cfg.flash_crowds = vec![FlashCrowd {
        start_hour: 12 * 24,
        duration_hours: 4,
        multiplier: 2.5,
    }];
    cfg.reactive = true;
    let r = simulate(&cfg, &traces).unwrap();
    // Books balance: per-hour costs sum to the ledger.
    let sum: f64 = r.slots.iter().map(|h| h.cost).sum();
    assert!((sum - r.total_cost()).abs() < 1e-6);
    for h in &r.slots {
        assert!((0.0..=1.0).contains(&h.affected_frac));
        assert!(h.cost >= 0.0);
    }
}
