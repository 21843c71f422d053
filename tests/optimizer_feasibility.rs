//! Property-based integration tests: the controller must produce feasible
//! plans (or clean errors) across randomized workloads, and those plans
//! must respect the formulation's invariants.

use proptest::prelude::*;

use spotcache::cloud::tracegen::paper_traces;
use spotcache::cloud::{SpotTrace, DAY};
use spotcache::core::controller::{ControllerConfig, GlobalController};
use spotcache::core::Approach;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any sane workload yields a feasible plan whose masses, RAM and
    /// throughput constraints all check out, for every approach.
    #[test]
    fn plans_are_always_feasible(
        rate in 1_000.0f64..1_500_000.0,
        wss in 1.0f64..500.0,
        theta in 0.5f64..2.5,
        day in 8u64..28,
        approach_idx in 0usize..6,
    ) {
        let theta = if (theta - 1.0).abs() < 0.02 { 0.97 } else { theta };
        let traces = paper_traces(30);
        let refs: Vec<&SpotTrace> = traces.iter().collect();
        let approach = Approach::ALL[approach_idx];
        let mut c = GlobalController::new(ControllerConfig::paper_default(approach));
        let plan = c.plan(&refs, day * DAY, theta, rate, wss).expect("feasible");
        plan.alloc.assert_feasible(&plan.forecast);
        // Sep never puts hot on spot.
        if approach == Approach::OdSpotSep {
            prop_assert!(plan.alloc.hot_on_spot() < 1e-9);
        }
        // Approaches without spot never allocate spot instances.
        if !approach.uses_spot() {
            prop_assert_eq!(plan.alloc.spot_instances(), 0);
        }
        // Backup present exactly when the approach has one and hot data
        // sits on spot.
        if approach.has_backup() && plan.alloc.hot_on_spot() * wss > 0.01 {
            prop_assert!(plan.backup.count > 0);
            let cap = plan.backup.count as f64 * plan.backup.itype.ram_gb * 0.85;
            prop_assert!(cap >= plan.alloc.hot_on_spot() * wss - 1e-9);
        }
    }

    /// Replanning after observing the plan's own counts is stable: the
    /// deallocation damping must not oscillate allocations wildly between
    /// consecutive identical slots.
    #[test]
    fn consecutive_plans_are_stable(
        rate in 10_000.0f64..800_000.0,
        wss in 5.0f64..200.0,
    ) {
        let traces = paper_traces(30);
        let refs: Vec<&SpotTrace> = traces.iter().collect();
        let mut c = GlobalController::new(ControllerConfig::paper_default(Approach::PropNoBackup));
        let p1 = c.plan(&refs, 10 * DAY, 1.2, rate, wss).expect("plan 1");
        let p2 = c.plan(&refs, 10 * DAY + 3_600, 1.2, rate, wss).expect("plan 2");
        let n1 = p1.alloc.total_instances() as i64;
        let n2 = p2.alloc.total_instances() as i64;
        prop_assert!((n1 - n2).abs() <= 1 + n1 / 5, "unstable: {n1} -> {n2}");
    }
}

/// The same seed must reproduce the same plan bit for bit (the whole
/// reproduction pipeline depends on determinism).
#[test]
fn planning_is_deterministic() {
    let traces = paper_traces(30);
    let refs: Vec<&SpotTrace> = traces.iter().collect();
    let plan = |_: u32| {
        let mut c = GlobalController::new(ControllerConfig::paper_default(Approach::Prop));
        let p = c.plan(&refs, 12 * DAY, 2.0, 320_000.0, 60.0).unwrap();
        p.alloc
            .entries
            .iter()
            .map(|e| (e.offer.label.clone(), e.count, e.hot_frac, e.cold_frac))
            .collect::<Vec<_>>()
    };
    assert_eq!(plan(0), plan(1));
}
