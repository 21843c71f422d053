//! Heap allocations per simulated hour slot of the control plane.
//!
//! A counting `#[global_allocator]` wraps the system allocator. A slot's
//! allocations are everything the thread allocates from the top of one
//! slot (`Substrate::observe`) to the top of the next: the forecast, the
//! offers, every LP of the solve, publishing the counts, and the hourly
//! simulator billing the plan. On 21 days of the paper's traces at
//! `plan_90d`'s workload the count repeats exactly, so it is pinned: a
//! change that builds per-slot invariants again (offer labels, the
//! on-demand candidates) or clones the offers into the plan moves it. Debug builds count more: the count walk's `debug_assert!`
//! re-solves every LP it skips.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

use spotcache_cloud::tracegen::paper_traces;
use spotcache_cloud::SpotTrace;
use spotcache_core::simulation::{HourlySim, SimConfig};
use spotcache_core::{
    Approach, ControlLoop, GlobalController, Observation, Schedule, SlotPlan, Substrate,
    SubstrateEvent,
};
use spotcache_sim::metrics::ControlMetrics;

struct CountingAlloc;

// Per-thread counting, so the test harness's other threads do not count.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(p, l, new_size)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// [`HourlySim`] that reads the allocation counter at the top of every
/// slot.
struct Counted<'a> {
    sim: HourlySim,
    tops: &'a RefCell<Vec<u64>>,
}

impl Substrate for Counted<'_> {
    fn schedule(&self) -> Schedule {
        self.sim.schedule()
    }
    fn markets(&self) -> Vec<SpotTrace> {
        self.sim.markets()
    }
    fn warmup(&mut self, controller: &mut GlobalController) {
        self.sim.warmup(controller);
    }
    fn plans_from_forecast(&self) -> bool {
        self.sim.plans_from_forecast()
    }
    fn observe(&mut self, t: u64) -> Observation {
        self.tops.borrow_mut().push(allocs());
        self.sim.observe(t)
    }
    fn act(
        &mut self,
        t: u64,
        slot: u64,
        plan: &SlotPlan,
        obs: &Observation,
    ) -> Vec<SubstrateEvent> {
        self.sim.act(t, slot, plan, obs)
    }
    fn finish(self: Box<Self>) -> ControlMetrics {
        Box::new(self.sim).finish()
    }
}

/// Allocations over the slots of a 21-day run of `approach`, the first
/// slot (which builds the spot offers' templates) and the last left out,
/// and how many slots that is.
fn slot_allocs(approach: Approach) -> (u64, u64) {
    let mut cfg = SimConfig::paper_default(approach, 500_000.0, 100.0, 0.99);
    cfg.days = 21;
    // Room for every slot's reading, so recording one never allocates.
    let tops = RefCell::new(Vec::with_capacity(1 << 10));
    let substrate = Counted {
        sim: HourlySim::new(cfg.clone(), paper_traces(21)),
        tops: &tops,
    };
    ControlLoop::new(GlobalController::new(cfg.controller), cfg.theta)
        .run(substrate)
        .unwrap();
    let tops = tops.into_inner();
    let (first, last) = (tops[1], tops[tops.len() - 1]);
    (last - first, tops.len() as u64 - 2)
}

/// 155.1 allocations a `Prop` slot and 68.0 an `OdOnly` slot in release
/// builds.
#[test]
fn a_slot_allocates_what_it_did_when_pinned() {
    #[rustfmt::skip]
    let pinned = [
        // (approach, allocations in release builds, in debug builds)
        (Approach::Prop,   51_802u64, 64_455u64),
        (Approach::OdOnly, 22_723,    27_733),
    ];
    let counted: Vec<u64> = pinned
        .iter()
        .map(|&(approach, ..)| {
            let (total, slots) = slot_allocs(approach);
            println!(
                "{approach:?}: {total} allocations over {slots} slots, {:.2} a slot",
                total as f64 / slots as f64
            );
            total
        })
        .collect();
    for ((approach, release, debug), total) in pinned.into_iter().zip(counted) {
        let want = if cfg!(debug_assertions) {
            debug
        } else {
            release
        };
        assert_eq!(total, want, "{approach:?}");
    }
}
