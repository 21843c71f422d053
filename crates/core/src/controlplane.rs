//! The unified control plane: one predict→optimize→act loop over every
//! execution substrate.
//!
//! Historically the repo had three hand-rolled drivers for the same cycle:
//! the 90-day hourly simulation, the 24-hour per-minute prototype, and the
//! live cluster each carried their own `for`-loop around
//! forecast → [`GlobalController::plan`] → billing/serving. This module
//! extracts the shared skeleton; the live substrate is
//! `spotcache_bench::fleet::FleetSubstrate`, real reactor servers whose
//! membership follows each plan:
//!
//! * [`Substrate`] — what a driver must expose: a [`Schedule`], the spot
//!   markets to plan against, demand observation, plan application, and
//!   optional fine-grained steps between replans.
//! * [`ControlLoop`] — the single driver. It owns the
//!   [`GlobalController`], runs each slot's replan and then its steps in
//!   time order, applies the per-approach planning policy (forecast vs.
//!   reported demand, the fixed peak plan), and forwards revocations back
//!   into the controller's predictors.
//! * `hot_access_mass` / `cold_access_mass` — the shared helpers that
//!   convert placement fractions into access mass under a
//!   [`WorkloadForecast`], previously re-derived independently by the
//!   simulation and the prototype.
//!
//! All metering lands in [`spotcache_sim::metrics::ControlMetrics`], the
//! unified result record.

use std::sync::Arc;

use crate::controller::{GlobalController, SlotPlan};
use crate::Approach;
use spotcache_cloud::spot::SpotTrace;
use spotcache_obs::{EventKind, Obs, SlidingWindow, SloWindow, StormDetector, Tracer};
use spotcache_optimizer::{OfferKind, SolveError, WorkloadForecast};
use spotcache_sim::metrics::ControlMetrics;

/// One slot's workload demand: request rate (req/s) and working-set size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Aggregate request rate in requests per second.
    pub rate: f64,
    /// Working-set size in GiB.
    pub wss_gb: f64,
}

/// What a substrate reports at the top of a control slot.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The demand actually arriving this slot (flash crowds included).
    /// Fed to the controller's workload models after acting.
    pub actual: Demand,
    /// The demand to plan against when not forecasting (the offline
    /// baselines' ground truth; excludes unforecastable flash crowds).
    pub basis: Demand,
}

/// A revocation surfaced by the substrate that the controller's
/// predictors must learn about.
#[derive(Debug, Clone)]
pub enum SubstrateEvent {
    /// `count` instances of market `label` were revoked.
    Revoked {
        /// Offer label of the revoked market.
        label: String,
        /// Number of instances lost.
        count: u32,
        /// Whether the provider's revocation warning reached the substrate
        /// before the instances went; `false` is a refused lease, lost
        /// without warning because the price was over the bid at launch.
        warned: bool,
    },
}

/// The replan/step cadence of a substrate.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Absolute time of the first replan (seconds).
    pub start: u64,
    /// Number of control slots to run.
    pub slots: u64,
    /// Slot length in seconds (one billing hour in the paper).
    pub slot_secs: u64,
    /// Fine-grained steps per slot (0 for slot-granularity drivers). The
    /// steps split the slot evenly, so they must divide `slot_secs`.
    pub steps_per_slot: u64,
}

impl Schedule {
    /// A slot-granularity schedule (no intra-slot steps).
    pub(crate) fn slotted(start: u64, slots: u64, slot_secs: u64) -> Self {
        Self {
            start,
            slots,
            slot_secs,
            steps_per_slot: 0,
        }
    }
}

/// An execution substrate the [`ControlLoop`] can drive.
///
/// The loop calls, per slot `t`: [`observe`](Substrate::observe), then
/// [`act`](Substrate::act) with the solved plan, then each intra-slot
/// [`step`](Substrate::step). Revocations returned from any of these are
/// forwarded to `GlobalController::on_revocation`; all other metering is
/// the substrate's own business, accumulated into the
/// [`ControlMetrics`] it returns from [`finish`](Substrate::finish).
pub trait Substrate {
    /// The replan/step cadence.
    fn schedule(&self) -> Schedule;

    /// The spot markets available to the planner.
    fn markets(&self) -> Vec<SpotTrace>;

    /// Called once before the first slot (e.g. to prime forecasters with
    /// training-window observations).
    fn warmup(&mut self, _controller: &mut GlobalController) {}

    /// Hands the substrate an observability bundle to record its own
    /// per-slot/per-step series into. Substrates that don't meter
    /// anything keep the default no-op.
    fn attach_obs(&mut self, _obs: Arc<Obs>) {}

    /// For substrates that pin a single peak-sized plan (the `OdPeak`
    /// baseline in the hourly simulation): the demand to plan once, up
    /// front, with no spot markets.
    fn fixed_peak(&self) -> Option<Demand> {
        None
    }

    /// Whether online approaches plan from the controller's forecast
    /// (the hourly simulation) or from reported demand (prototype, live
    /// fleet).
    fn plans_from_forecast(&self) -> bool {
        false
    }

    /// Reports demand at the top of slot starting at `t`.
    fn observe(&mut self, t: u64) -> Observation;

    /// Applies `plan` for the slot `slot` starting at `t`: launch/bill
    /// instances, meter cost and violations.
    fn act(&mut self, t: u64, slot: u64, plan: &SlotPlan, obs: &Observation)
        -> Vec<SubstrateEvent>;

    /// Runs one fine-grained step at `t` (step `step` of the current
    /// slot). Only called when the schedule has intra-slot steps.
    fn step(&mut self, _t: u64, _step: u64) -> Vec<SubstrateEvent> {
        Vec::new()
    }

    /// Consumes the substrate, returning the accumulated metrics.
    fn finish(self: Box<Self>) -> ControlMetrics;
}

/// Control slots a telemetry window spans (cost, demand, SLO outcomes).
const TELEMETRY_WINDOW_SLOTS: usize = 24;

/// Revocations within one storm window that flag a revocation storm.
const STORM_THRESHOLD: u64 = 8;

/// Windowed SLO telemetry the loop derives per control cycle.
///
/// A slot *meets* the SLO when no revocations landed in it; the burn rate
/// is the windowed bad-slot fraction against the configured ζ
/// availability target ([`SloWindow`] semantics: 1.0 = exactly on
/// budget). Everything here is derived from logical slot times, so
/// instrumented runs stay deterministic.
struct ControlTelemetry {
    cost: SlidingWindow,
    demand: SlidingWindow,
    slo: SloWindow,
    storms: StormDetector,
    /// Revocations ingested since the last replan closed its slot.
    slot_revocations: u64,
    /// Whether the previous closed slot was inside a storm (edge
    /// detection for `control_storms_total`).
    storm_active: bool,
}

impl ControlTelemetry {
    fn new(zeta: f64, slot_secs: u64) -> Self {
        Self {
            cost: SlidingWindow::new(TELEMETRY_WINDOW_SLOTS),
            demand: SlidingWindow::new(TELEMETRY_WINDOW_SLOTS),
            slo: SloWindow::new(zeta, TELEMETRY_WINDOW_SLOTS),
            storms: StormDetector::new(
                slot_secs.max(1) * TELEMETRY_WINDOW_SLOTS as u64 / 4,
                STORM_THRESHOLD,
            ),
            slot_revocations: 0,
            storm_active: false,
        }
    }

    /// Folds one closed control slot into the windows and publishes the
    /// aggregates as `control_window_*` gauges.
    fn close_slot(&mut self, t: u64, cost: f64, demand_rate: f64, o: &Obs) {
        self.cost.observe(t, cost);
        self.demand.observe(t, demand_rate);
        self.slo.record(self.slot_revocations == 0);
        self.slot_revocations = 0;
        let cost_stats = self.cost.stats();
        let demand_stats = self.demand.stats();
        o.gauge("control_window_cost_mean").set(cost_stats.mean);
        o.gauge("control_window_cost_p95").set(cost_stats.p95);
        o.gauge("control_window_demand_mean").set(demand_stats.mean);
        o.gauge("control_window_demand_p95").set(demand_stats.p95);
        o.gauge("control_window_bad_frac").set(self.slo.bad_frac());
        o.gauge("control_window_burn_rate")
            .set(self.slo.burn_rate());
        o.gauge("control_window_revocation_rate")
            .set(self.storms.rate(t));
        let storm = self.storms.is_storm(t);
        o.gauge("control_window_revocation_storm")
            .set(if storm { 1.0 } else { 0.0 });
        // Storm edges: count each distinct storm once and publish the
        // detector's trigger latency (onset → threshold crossing) so
        // operators can see how early the signal fired; re-arm on the
        // falling edge so the next storm is dated afresh.
        if storm && !self.storm_active {
            o.counter("control_storms_total").inc();
            if let Some(lat) = self.storms.trigger_latency() {
                o.gauge("control_storm_trigger_latency_s").set(lat as f64);
            }
        } else if !storm && self.storm_active {
            self.storms.reset_trigger();
        }
        self.storm_active = storm;
    }
}

/// The one driver for every substrate: runs predict→optimize→act at the
/// top of each slot, then the slot's steps, and keeps the
/// [`GlobalController`]'s models fed.
pub struct ControlLoop {
    controller: GlobalController,
    theta: f64,
    obs: Option<Arc<Obs>>,
    tracer: Option<Arc<Tracer>>,
    telemetry: Option<ControlTelemetry>,
}

impl ControlLoop {
    /// Creates a loop around a controller planning for a workload whose
    /// key popularity is Zipf with skew `theta` (the controller's
    /// hot-fraction model reads it).
    pub fn new(controller: GlobalController, theta: f64) -> Self {
        Self {
            controller,
            theta,
            obs: None,
            tracer: None,
            telemetry: None,
        }
    }

    /// Attaches an observability bundle: the loop records per-cycle cost,
    /// ζ, placement fractions, and bid/launch/revocation events into it,
    /// and forwards it to the substrate via
    /// [`Substrate::attach_obs`]. Timestamps are the loop's logical slot
    /// times, so instrumented runs stay deterministic.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a span tracer: every control cycle emits `control.*`
    /// spans (replan, bid placement, revocation handling) stamped with
    /// the cycle's **logical** slot time — wall clocks never enter the
    /// trace timeline, only the measured durations.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Records a logical control-plane span: timestamp is `t` seconds on
    /// the slot clock, duration is the wall time the phase took.
    fn trace_cycle(&self, name: &'static str, t: u64, started: std::time::Instant) {
        if let Some(tr) = &self.tracer {
            tr.record_at(
                "control",
                name,
                t as f64 * 1e6,
                started.elapsed().as_secs_f64() * 1e6,
            );
        }
    }

    /// Drives `substrate` to completion and returns its metrics.
    ///
    /// # Panics
    ///
    /// If the substrate's schedule has steps that do not divide its slot.
    pub fn run<S: Substrate>(mut self, substrate: S) -> Result<ControlMetrics, SolveError> {
        let mut substrate = Box::new(substrate);
        if let Some(obs) = &self.obs {
            substrate.attach_obs(Arc::clone(obs));
        }
        let sched = substrate.schedule();
        assert!(
            sched.steps_per_slot == 0 || sched.slot_secs.is_multiple_of(sched.steps_per_slot),
            "{} steps per slot do not divide a {} s slot",
            sched.steps_per_slot,
            sched.slot_secs
        );
        let step_len = sched
            .slot_secs
            .checked_div(sched.steps_per_slot)
            .unwrap_or(0);
        let markets = substrate.markets();
        let refs: Vec<&SpotTrace> = markets.iter().collect();

        // The OdPeak baseline provisions once for peak with no spot
        // markets and reuses that plan every slot.
        let fixed_plan = match substrate.fixed_peak() {
            Some(d) => Some(self.plan(&[], 0, d.rate, d.wss_gb)?),
            None => None,
        };
        substrate.warmup(&mut self.controller);

        if self.obs.is_some() {
            self.telemetry = Some(ControlTelemetry::new(
                self.controller.config().cost.zeta,
                sched.slot_secs,
            ));
        }
        let forecasting = substrate.plans_from_forecast();
        for slot in 0..sched.slots {
            let t = sched.start + slot * sched.slot_secs;
            let cycle_start = std::time::Instant::now();
            let obs = substrate.observe(t);
            let solve_start = std::time::Instant::now();
            let plan = match &fixed_plan {
                Some(p) => p.clone(),
                None => {
                    let (rate, wss) = self.plan_demand(&obs, forecasting);
                    self.plan(&refs, t, rate, wss)?
                }
            };
            self.trace_cycle("bid_placement", t, solve_start);
            self.record_plan(t, &plan, &obs);
            let events = substrate.act(t, slot, &plan, &obs);
            self.ingest(t, events);
            self.controller.observe(obs.actual.rate, obs.actual.wss_gb);
            if let (Some(tel), Some(o)) = (&mut self.telemetry, &self.obs) {
                tel.close_slot(t, plan.alloc.cost, obs.actual.rate, o);
            }
            self.trace_cycle("replan", t, cycle_start);
            for step in 0..sched.steps_per_slot {
                let ts = t + step * step_len;
                let events = substrate.step(ts, step);
                self.ingest(ts, events);
            }
        }
        Ok(substrate.finish())
    }

    /// Plans one slot with the controller and counts the LPs its solve ran
    /// and skipped, and their pivots, into `control_lp_solves_total` /
    /// `control_lp_skipped_total` / `control_lp_pivots_total`.
    fn plan(
        &mut self,
        traces: &[&SpotTrace],
        t: u64,
        rate: f64,
        wss_gb: f64,
    ) -> Result<SlotPlan, SolveError> {
        let plan = self.controller.plan(traces, t, self.theta, rate, wss_gb)?;
        if let Some(o) = &self.obs {
            o.counter("control_lp_solves_total")
                .add(u64::from(plan.alloc.lps_solved));
            o.counter("control_lp_skipped_total")
                .add(u64::from(plan.alloc.lps_skipped));
            o.counter("control_lp_pivots_total")
                .add(u64::from(plan.alloc.lp_pivots));
        }
        Ok(plan)
    }

    /// The per-approach planning policy: offline baselines always plan
    /// from reported demand; online approaches use the AR(2) forecast
    /// when the substrate forecasts (falling back to reported demand
    /// before any observation).
    fn plan_demand(&self, obs: &Observation, forecasting: bool) -> (f64, f64) {
        let basis = (obs.basis.rate, obs.basis.wss_gb);
        match self.controller.config().approach {
            Approach::OdPeak | Approach::OdOnly => basis,
            _ if forecasting => self.controller.forecast().unwrap_or(basis),
            _ => basis,
        }
    }

    /// Records one solved cycle into the obs bundle: plan cost, the ζ
    /// availability floor in force, hot/cold placement fractions, how
    /// much hot data sits on spot, and one `BidPlaced` event per spot
    /// offer plus `NodeLaunched`/`NodeDeallocated` events for churn.
    fn record_plan(&self, t: u64, plan: &SlotPlan, obs: &Observation) {
        let Some(o) = &self.obs else { return };
        o.counter("control_replans_total").inc();
        o.gauge("control_plan_cost_dollars").set(plan.alloc.cost);
        o.gauge("control_zeta")
            .set(self.controller.config().cost.zeta);
        o.gauge("control_hot_frac").set(plan.hot_frac);
        o.gauge("control_cold_frac").set(1.0 - plan.hot_frac);
        o.gauge("control_hot_on_spot_frac")
            .set(plan.alloc.hot_on_spot());
        o.gauge("control_instances_total")
            .set(f64::from(plan.alloc.total_instances()));
        o.gauge("control_instances_spot")
            .set(f64::from(plan.alloc.spot_instances()));
        o.gauge("control_demand_rate").set(obs.actual.rate);
        o.gauge("control_demand_wss_gb").set(obs.actual.wss_gb);
        for entry in &plan.alloc.entries {
            if entry.count > 0 {
                if let OfferKind::Spot { bid, .. } = &entry.offer.kind {
                    o.counter("control_bids_total").inc();
                    o.event(
                        t,
                        EventKind::BidPlaced {
                            label: entry.offer.label.clone(),
                            bid: bid.0,
                            count: u64::from(entry.count),
                        },
                    );
                }
            }
            let delta = entry.delta();
            if delta > 0 {
                o.event(
                    t,
                    EventKind::NodeLaunched {
                        label: entry.offer.label.clone(),
                        count: delta as u64,
                    },
                );
            } else if delta < 0 {
                o.event(
                    t,
                    EventKind::NodeDeallocated {
                        label: entry.offer.label.clone(),
                        count: delta.unsigned_abs(),
                    },
                );
            }
        }
    }

    fn ingest(&mut self, t: u64, events: Vec<SubstrateEvent>) {
        if events.is_empty() {
            return;
        }
        let started = std::time::Instant::now();
        let mut revoked = 0u64;
        for event in events {
            match event {
                SubstrateEvent::Revoked {
                    label,
                    count,
                    warned,
                } => {
                    revoked += u64::from(count);
                    if let Some(o) = &self.obs {
                        o.counter("control_revocations_total").add(u64::from(count));
                        o.event(
                            t,
                            EventKind::Revocation {
                                label: label.clone(),
                                count: u64::from(count),
                                warned,
                            },
                        );
                    }
                    self.controller.on_revocation(&label, count);
                }
            }
        }
        if let Some(tel) = &mut self.telemetry {
            tel.slot_revocations += revoked;
            tel.storms.record(t, revoked);
        }
        if revoked > 0 {
            self.trace_cycle("revocation_handling", t, started);
        }
    }
}

/// Access mass carried by a cold-placement fraction `cold_frac` of the
/// working set, under forecast `f` (linear interpolation of the Zipf mass
/// between `F(H)` and `F(alpha)`).
pub(crate) fn cold_access_mass(cold_frac: f64, f: &WorkloadForecast) -> f64 {
    cold_frac / (f.alpha - f.hot_frac).max(1e-12) * (f.f_alpha - f.f_hot)
}

/// Access mass carried by a hot-placement fraction `hot_frac` of the
/// working set whose hot set carries `hot_set_mass` of all traffic
/// (`F(H)` from the forecast, or the controller's configured target).
pub(crate) fn hot_access_mass(hot_frac: f64, f: &WorkloadForecast, hot_set_mass: f64) -> f64 {
    hot_frac / f.hot_frac.max(1e-12) * hot_set_mass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Storm telemetry edges: each distinct storm bumps
    /// `control_storms_total` exactly once, publishes the detector's
    /// trigger latency, and the falling edge re-arms the latch so the
    /// next storm is dated afresh.
    #[test]
    fn storm_edges_count_once_and_rearm() {
        let o = Obs::new();
        let slot = 3_600u64;
        let mut tel = ControlTelemetry::new(0.9, slot);
        let storms = o.counter("control_storms_total");

        // Quiet slots: no storm, no count.
        tel.close_slot(0, 1.0, 10.0, &o);
        assert_eq!(storms.get(), 0);

        // A correlated burst past STORM_THRESHOLD within one window
        // (what `ControlLoop::ingest` feeds the telemetry per event).
        let t1 = slot;
        tel.slot_revocations += STORM_THRESHOLD;
        tel.storms.record(t1, STORM_THRESHOLD);
        tel.close_slot(t1, 1.0, 10.0, &o);
        assert_eq!(storms.get(), 1, "rising edge counted");
        assert_eq!(o.gauge("control_window_revocation_storm").get(), 1.0);
        let lat = o.gauge("control_storm_trigger_latency_s").get();
        assert!(lat >= 0.0, "latency published: {lat}");

        // Still storming next slot: no double count.
        tel.close_slot(t1 + 1, 1.0, 10.0, &o);
        assert_eq!(storms.get(), 1, "level does not re-count");

        // Long quiet gap: the window drains, the latch re-arms...
        let t2 = t1 + 100 * slot;
        tel.close_slot(t2, 1.0, 10.0, &o);
        assert_eq!(o.gauge("control_window_revocation_storm").get(), 0.0);

        // ...so a second storm counts again.
        let t3 = t2 + slot;
        tel.slot_revocations += STORM_THRESHOLD + 2;
        tel.storms.record(t3, STORM_THRESHOLD + 2);
        tel.close_slot(t3, 1.0, 10.0, &o);
        assert_eq!(storms.get(), 2, "second storm counted once");
    }
}
