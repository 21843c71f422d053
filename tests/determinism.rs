//! Determinism audit: the entire pipeline — trace generation, workload
//! synthesis, planning, simulation, prototype emulation, recovery — must be
//! a pure function of its seeds. Every number in EXPERIMENTS.md depends on
//! this.

use spotcache::cloud::catalog::find_type;
use spotcache::cloud::spot::SpotTrace;
use spotcache::cloud::tracegen::{correlated_paper_traces, paper_traces};
use spotcache::core::controller::{ControllerConfig, GlobalController};
use spotcache::core::prototype::{run_prototype, PrototypeConfig};
use spotcache::core::simulation::{simulate, HourlySim, SimConfig};
use spotcache::core::{
    Approach, ControlLoop, Demand, Observation, Schedule, SlotPlan, Substrate, SubstrateEvent,
};
use spotcache::sim::{simulate_recovery, BackupChoice, ControlMetrics, RecoveryConfig};
use std::cell::RefCell;
use std::rc::Rc;

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

/// One call the control loop made into [`Recorder`].
#[derive(Debug, PartialEq)]
enum Call {
    Observe(u64),
    Act(u64, u64),
    Step(u64, u64),
}

/// A substrate that plans on-demand only and records every call.
struct Recorder {
    schedule: Schedule,
    calls: Rc<RefCell<Vec<Call>>>,
}

impl Substrate for Recorder {
    fn schedule(&self) -> Schedule {
        self.schedule
    }
    fn markets(&self) -> Vec<SpotTrace> {
        Vec::new()
    }
    fn observe(&mut self, t: u64) -> Observation {
        self.calls.borrow_mut().push(Call::Observe(t));
        let demand = Demand {
            rate: 10_000.0,
            wss_gb: 1.0,
        };
        Observation {
            actual: demand,
            basis: demand,
        }
    }
    fn act(&mut self, t: u64, slot: u64, _: &SlotPlan, _: &Observation) -> Vec<SubstrateEvent> {
        self.calls.borrow_mut().push(Call::Act(t, slot));
        Vec::new()
    }
    fn step(&mut self, t: u64, step: u64) -> Vec<SubstrateEvent> {
        self.calls.borrow_mut().push(Call::Step(t, step));
        Vec::new()
    }
    fn finish(self: Box<Self>) -> ControlMetrics {
        ControlMetrics::new()
    }
}

fn run_recorder(slot_secs: u64, steps_per_slot: u64) -> Vec<Call> {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let recorder = Recorder {
        schedule: Schedule {
            start: 100,
            slots: 2,
            slot_secs,
            steps_per_slot,
        },
        calls: Rc::clone(&calls),
    };
    let controller = GlobalController::new(ControllerConfig::paper_default(Approach::OdOnly));
    ControlLoop::new(controller, 0.99).run(recorder).unwrap();
    calls.take()
}

/// Each slot's replan (observe, then act) runs at the top of the slot,
/// before its steps, and the steps split the slot evenly.
#[test]
fn control_loop_runs_each_slots_replan_before_its_steps() {
    use Call::*;
    assert_eq!(
        run_recorder(60, 3),
        vec![
            Observe(100),
            Act(100, 0),
            Step(100, 0),
            Step(120, 1),
            Step(140, 2),
            Observe(160),
            Act(160, 1),
            Step(160, 0),
            Step(180, 1),
            Step(200, 2),
        ]
    );
}

#[test]
#[should_panic(expected = "7 steps per slot do not divide a 60 s slot")]
fn control_loop_refuses_steps_that_do_not_divide_the_slot() {
    run_recorder(60, 7);
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
