//! One EC2 model: the hourly simulator bills exactly what a
//! [`CloudProvider`] leasing the same plans bills, because both lease
//! spot instances through `SpotTrace::lease`.

use std::cell::RefCell;
use std::rc::Rc;

use spotcache::cloud::billing::CostCategory;
use spotcache::cloud::provider::{CloudProvider, InstanceId, Lease};
use spotcache::cloud::spot::SpotTrace;
use spotcache::cloud::tracegen::paper_traces;
use spotcache::cloud::HOUR;
use spotcache::core::controlplane::{
    ControlLoop, Demand, Observation, Schedule, Substrate, SubstrateEvent,
};
use spotcache::core::simulation::{HourlySim, SimConfig};
use spotcache::core::{Approach, GlobalController, SlotPlan};
use spotcache::optimizer::problem::OfferKind;
use spotcache::sim::metrics::ControlMetrics;

/// [`HourlySim`] that also leases every plan it is handed from a
/// [`CloudProvider`] with no launch delay: each slot it terminates
/// every instance of the last one, launches the plan's instances and
/// its backup tier, and advances the provider one hour.
struct Provisioned {
    sim: HourlySim,
    provider: Rc<RefCell<CloudProvider>>,
    leased: Vec<InstanceId>,
}

impl Substrate for Provisioned {
    fn schedule(&self) -> Schedule {
        self.sim.schedule()
    }
    fn markets(&self) -> Vec<SpotTrace> {
        self.sim.markets()
    }
    fn warmup(&mut self, controller: &mut GlobalController) {
        self.sim.warmup(controller);
    }
    fn fixed_peak(&self) -> Option<Demand> {
        self.sim.fixed_peak()
    }
    fn plans_from_forecast(&self) -> bool {
        self.sim.plans_from_forecast()
    }
    fn observe(&mut self, t: u64) -> Observation {
        self.sim.observe(t)
    }
    fn act(
        &mut self,
        t: u64,
        slot: u64,
        plan: &SlotPlan,
        obs: &Observation,
    ) -> Vec<SubstrateEvent> {
        let mut provider = self.provider.borrow_mut();
        provider.advance_to(t);
        for id in self.leased.drain(..) {
            provider.terminate(id);
        }
        for e in plan.alloc.entries.iter().filter(|e| e.count > 0) {
            let (lease, category) = match &e.offer.kind {
                OfferKind::OnDemand => (Lease::OnDemand, CostCategory::OnDemand),
                OfferKind::Spot { market, bid } => (
                    Lease::Spot {
                        market: market.clone(),
                        bid: *bid,
                    },
                    CostCategory::Spot,
                ),
            };
            for _ in 0..e.count {
                // A market above the bid refuses the request.
                let Ok(id) = provider.launch(e.offer.itype, lease.clone(), category) else {
                    break;
                };
                self.leased.push(id);
            }
        }
        for _ in 0..plan.backup.count {
            let id = provider
                .launch(plan.backup.itype, Lease::OnDemand, CostCategory::Backup)
                .expect("on-demand launches never fail");
            self.leased.push(id);
        }
        provider.advance_to(t + HOUR);
        self.sim.act(t, slot, plan, obs)
    }
    fn finish(self: Box<Self>) -> ControlMetrics {
        Box::new(self.sim).finish()
    }
}

/// The simulator bills what a provider leasing the same plans bills:
/// over 90 days of the paper's traces at `plan_90d`'s workload, for
/// every approach and two-replica replication, each cost category of the
/// two ledgers agrees to summation order.
#[test]
fn the_simulator_bills_what_the_provider_bills() {
    for approach in Approach::ALL.into_iter().chain([Approach::Replicated(2)]) {
        let mut cfg = SimConfig::paper_default(approach, 500_000.0, 100.0, 0.99);
        cfg.days = 90;
        let markets = paper_traces(90);
        let provider = Rc::new(RefCell::new(
            CloudProvider::new(markets.clone()).with_launch_delay(0),
        ));
        let substrate = Provisioned {
            sim: HourlySim::new(cfg.clone(), markets),
            provider: Rc::clone(&provider),
            leased: Vec::new(),
        };
        let r = ControlLoop::new(GlobalController::new(cfg.controller), cfg.theta)
            .run(substrate)
            .unwrap();
        let provider = provider.borrow();
        for category in CostCategory::ALL {
            let sim = r.ledger.total(category);
            let leased = provider.ledger().total(category);
            assert!(
                (sim - leased).abs() <= 1e-9 * leased.abs(),
                "{approach:?} {}: simulator ${sim} vs provider ${leased}",
                category.label()
            );
        }
    }
}
