//! Determinism audit: the entire pipeline — trace generation, workload
//! synthesis, planning, simulation, prototype emulation, recovery — must be
//! a pure function of its seeds. Every number in EXPERIMENTS.md depends on
//! this.

use spotcache::cloud::catalog::find_type;
use spotcache::cloud::tracegen::{correlated_paper_traces, paper_traces};
use spotcache::core::controller::{ControllerConfig, GlobalController};
use spotcache::core::prototype::{run_prototype, PrototypeConfig};
use spotcache::core::simulation::{simulate, HourlySim, SimConfig};
use spotcache::core::{Approach, ControlLoop};
use spotcache::sim::{simulate_recovery, BackupChoice, EventQueue, RecoveryConfig};

#[test]
fn traces_are_pure_functions_of_seeds() {
    assert_eq!(
        paper_traces(15)
            .iter()
            .map(|t| t.prices.clone())
            .collect::<Vec<_>>(),
        paper_traces(15)
            .iter()
            .map(|t| t.prices.clone())
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        correlated_paper_traces(15)[1].prices,
        correlated_paper_traces(15)[1].prices,
    );
}

#[test]
fn long_simulation_is_deterministic() {
    let run = || {
        let mut cfg = SimConfig::paper_default(Approach::Prop, 320_000.0, 60.0, 1.2);
        cfg.days = 14;
        let r = simulate(&cfg, &paper_traces(14)).unwrap();
        (
            r.total_cost().to_bits(),
            r.revocations,
            r.slots.iter().map(|h| h.cost.to_bits()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn prototype_is_deterministic() {
    let market = paper_traces(60).remove(1);
    let run = || {
        let cfg = PrototypeConfig {
            controller: ControllerConfig::paper_default(Approach::PropNoBackup),
            start_day: 45,
            peak_rate: 160_000.0,
            max_wss_gb: 30.0,
            theta: 1.2,
            seed: 5,
        };
        let r = run_prototype(&cfg, &market).unwrap();
        (
            r.revocations,
            r.latency.count(),
            r.samples
                .iter()
                .map(|m| m.avg_us.to_bits())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// Driving [`HourlySim`] explicitly through the shared [`ControlLoop`] —
/// rather than the `simulate` convenience wrapper — must also be a pure
/// function of the seed: byte-identical costs, slot records, violations.
#[test]
fn control_loop_is_deterministic() {
    let run = || {
        let mut cfg = SimConfig::paper_default(Approach::OdSpotSep, 320_000.0, 60.0, 1.2);
        cfg.days = 14;
        cfg.seed = 0xD15C;
        let controller = GlobalController::new(cfg.controller.clone());
        let r = ControlLoop::new(controller, cfg.theta)
            .run(HourlySim::new(cfg, paper_traces(14)))
            .unwrap();
        (
            r.total_cost().to_bits(),
            r.violated_day_frac().to_bits(),
            r.revocations,
            r.slots
                .iter()
                .map(|h| (h.cost.to_bits(), h.affected_frac.to_bits(), h.revoked))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

    /// The event engine under the control loop must order events by time
    /// with a stable FIFO tiebreak: events that share a timestamp pop in
    /// insertion order, whatever the insertion pattern. The control loop
    /// relies on this to process each slot's replan before its steps.
    #[test]
    fn event_queue_ordering_is_stable_under_ties(
        times in proptest::collection::vec(0u64..8, 1..100),
    ) {
        use proptest::prelude::*;
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev);
        }
        prop_assert_eq!(popped.len(), times.len());
        // A stable sort of the insertion order by time is exactly
        // "time-ordered with FIFO ties" — the queue must match it.
        let mut want: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        want.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(popped, want);
    }
}

#[test]
fn recovery_timeline_is_deterministic() {
    let run = || {
        let cfg = RecoveryConfig::figure11(BackupChoice::Instance(find_type("t2.medium").unwrap()));
        let tl = simulate_recovery(&cfg, None, None);
        (
            tl.recovered_at,
            tl.points
                .iter()
                .map(|p| (p.avg_us.to_bits(), p.p95_us.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}
