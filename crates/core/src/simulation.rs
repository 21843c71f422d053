//! Long-horizon (multi-week) trace-driven simulation of a procurement
//! approach — the engine behind the paper's Figures 7, 12 and 13.
//!
//! Granularity is one control slot (an hour). The shared
//! [`ControlLoop`] re-plans each hour
//! from the controller's forecasts and the spot predictors; the
//! [`HourlySim`] substrate then replays the actual spot prices over the
//! hour, billing every instance, detecting bid failures, and accounting
//! the request traffic affected by them. Affected traffic is what drives
//! the paper's "% of days the performance target is violated" metric (a
//! day is violated when > 1% of its requests are affected).

use std::sync::Arc;

use spotcache_cloud::billing::CostCategory;
use spotcache_cloud::catalog::InstanceType;
use spotcache_cloud::spot::SpotTrace;
use spotcache_cloud::{DAY, HOUR};
use spotcache_obs::{Obs, Tracer};
use spotcache_optimizer::problem::{OfferKind, SolveError};
use spotcache_sim::metrics::{ControlMetrics, SlotRecord};
use spotcache_workload::wikipedia::WikipediaTrace;

use crate::approaches::Approach;
use crate::controller::{ControllerConfig, GlobalController, SlotPlan};
use crate::controlplane::{
    cold_access_mass, hot_access_mass, ControlLoop, Demand, Observation, Schedule, Substrate,
    SubstrateEvent,
};
use crate::reactive::{ReactiveConfig, ReactiveController};

/// How long (seconds) hot content lost in a failure stays degraded when a
/// passive backup is warming the replacement (the measured ≈300 s warm-up
/// of Figure 11 — during which we count *half* the hot traffic as affected
/// since warmed mass ramps roughly linearly).
const BACKUP_WARMUP_SECS: f64 = 300.0;

/// Seconds a flash crowd runs unmitigated before emergency capacity is
/// detected, launched, and warmed (detection + ~100 s launch + ramp).
const REACT_LAG_SECS: f64 = 300.0;

/// An injected flash crowd: an unforecastable rate surge.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowd {
    /// First affected hour (absolute, from trace start).
    pub start_hour: u64,
    /// Duration in hours.
    pub duration_hours: u64,
    /// Rate multiplier while active.
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Whether the crowd is active during `hour`.
    pub fn active(&self, hour: u64) -> bool {
        hour >= self.start_hour && hour < self.start_hour + self.duration_hours
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Controller (approach, bids, coefficients).
    pub controller: ControllerConfig,
    /// Simulated days (the first `training_days` only feed the predictors).
    pub days: u64,
    /// Days of spot history consumed before the simulation starts billing.
    pub training_days: u64,
    /// Peak arrival rate of the scaled Wikipedia workload, ops/sec.
    pub peak_rate: f64,
    /// Maximum working-set size, GiB.
    pub max_wss_gb: f64,
    /// Popularity skew.
    pub theta: f64,
    /// Workload seed.
    pub seed: u64,
    /// Injected flash crowds (invisible to the forecasters).
    pub flash_crowds: Vec<FlashCrowd>,
    /// Reactive emergency scale-out; `None` = predictive control only.
    pub reactive: Option<ReactiveConfig>,
}

impl SimConfig {
    /// The paper's long-term setup (Section 5.5): 90 days, 7-day training.
    pub fn paper_default(approach: Approach, peak_rate: f64, max_wss_gb: f64, theta: f64) -> Self {
        Self {
            controller: ControllerConfig::paper_default(approach),
            days: 90,
            training_days: 7,
            peak_rate,
            max_wss_gb,
            theta,
            seed: 0xF00D,
            flash_crowds: Vec::new(),
            reactive: None,
        }
    }
}

/// Simulation output: the unified control-loop metrics record. Per-hour
/// allocation snapshots are in [`ControlMetrics::slots`].
pub type SimResult = ControlMetrics;

/// The hourly-slot substrate: bills planned instances against recorded
/// spot prices and meters failure-affected traffic.
pub struct HourlySim {
    cfg: SimConfig,
    markets: Vec<SpotTrace>,
    workload: WikipediaTrace,
    reactive: Option<ReactiveController>,
    emergency_type: InstanceType,
    emergency_rate: f64,
    start_hour: u64,
    metrics: ControlMetrics,
    obs: Option<Arc<Obs>>,
}

impl HourlySim {
    /// Builds the substrate from a configuration and spot markets.
    pub fn new(cfg: SimConfig, markets: Vec<SpotTrace>) -> Self {
        let workload = WikipediaTrace::generate(cfg.days, cfg.peak_rate, cfg.max_wss_gb, cfg.seed);
        let reactive = cfg.reactive.map(ReactiveController::new);
        // Emergency capacity uses the cheapest-per-op on-demand type.
        let emergency_type = spotcache_cloud::catalog::find_type("c3.large").expect("catalog");
        let emergency_rate = cfg.controller.profile.max_rate_for_latency(
            &emergency_type,
            cfg.controller.target_avg_us,
            false,
        );
        let start_hour = cfg.training_days * 24;
        Self {
            cfg,
            markets,
            workload,
            reactive,
            emergency_type,
            emergency_rate,
            start_hour,
            metrics: ControlMetrics::new(),
            obs: None,
        }
    }
}

impl Substrate for HourlySim {
    fn schedule(&self) -> Schedule {
        Schedule::slotted(
            self.start_hour * HOUR,
            (self.cfg.days - self.cfg.training_days) * 24,
            HOUR,
        )
    }

    fn markets(&self) -> Vec<SpotTrace> {
        self.markets.clone()
    }

    fn warmup(&mut self, controller: &mut GlobalController) {
        // Prime the forecasters with the training period's workload.
        for h in 0..self.start_hour {
            let t = h * HOUR;
            controller.observe(self.workload.rate_at(t), self.workload.wss_at(t));
        }
    }

    fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    fn fixed_peak(&self) -> Option<Demand> {
        // ODPeak plans once for the peak and never changes.
        (self.cfg.controller.approach == Approach::OdPeak).then_some(Demand {
            rate: self.cfg.peak_rate,
            wss_gb: self.cfg.max_wss_gb,
        })
    }

    fn plans_from_forecast(&self) -> bool {
        // Offline baselines plan with perfect knowledge *of the regular
        // workload*; flash crowds are unforecastable by definition, so no
        // planner sees them coming. The online system plans from its AR(2)
        // forecasts (which lag into a sustained crowd).
        true
    }

    fn observe(&mut self, t: u64) -> Observation {
        let hour = t / HOUR;
        let crowd_mult = self
            .cfg
            .flash_crowds
            .iter()
            .filter(|c| c.active(hour))
            .map(|c| c.multiplier)
            .fold(1.0f64, f64::max);
        let base_rate = self.workload.rate_at(t);
        let wss = self.workload.wss_at(t);
        Observation {
            actual: Demand {
                rate: base_rate * crowd_mult,
                wss_gb: wss,
            },
            basis: Demand {
                rate: base_rate,
                wss_gb: wss,
            },
        }
    }

    fn act(
        &mut self,
        t: u64,
        slot: u64,
        plan: &SlotPlan,
        obs: &Observation,
    ) -> Vec<SubstrateEvent> {
        let approach = self.cfg.controller.approach;
        let actual_rate = obs.actual.rate;
        let mut events = Vec::new();
        let mut hour_cost = 0.0;
        let mut affected_mass_time = 0.0; // Σ mass × degraded-fraction-of-hour
        let mut revoked_this_hour = 0u32;
        let mut spot_counts = Vec::new();
        let mut od_count = 0u32;

        for entry in &plan.alloc.entries {
            if entry.count == 0 {
                continue;
            }
            match &entry.offer.kind {
                OfferKind::OnDemand => {
                    od_count += entry.count;
                    let c = entry.offer.itype.od_price * entry.count as f64;
                    self.metrics.ledger.record(CostCategory::OnDemand, t, c);
                    hour_cost += c;
                }
                OfferKind::Spot { market, bid } => {
                    spot_counts.push((entry.offer.label.clone(), entry.count));
                    let trace = self
                        .markets
                        .iter()
                        .find(|tr| &tr.market == market)
                        .expect("plan references a known market");
                    let failure = trace.first_failure_in(t, t + HOUR, *bid);
                    let billed_until = failure.unwrap_or(t + HOUR);
                    let mean_price = trace.mean_price(t, billed_until.max(t + 1)).unwrap_or(0.0);
                    let hours_billed = (billed_until - t) as f64 / 3_600.0;
                    let c = mean_price * hours_billed * entry.count as f64;
                    self.metrics.ledger.record(CostCategory::Spot, t, c);
                    hour_cost += c;

                    if let Some(tf) = failure {
                        revoked_this_hour += entry.count;
                        events.push(SubstrateEvent::Revoked {
                            label: entry.offer.label.clone(),
                            count: entry.count,
                        });
                        let remaining = (t + HOUR - tf) as f64 / 3_600.0;
                        // Cold content on the failed instances is served
                        // from the backend for the rest of the hour.
                        let cold_mass = cold_access_mass(entry.cold_frac, &plan.forecast);
                        affected_mass_time += cold_mass * remaining;
                        // Hot content: backend until replacement warm, or
                        // half-degraded for the short backup warm-up.
                        let hot_mass = hot_access_mass(
                            entry.hot_frac,
                            &plan.forecast,
                            self.cfg.controller.hot_mass,
                        );
                        if approach.has_backup() {
                            let warm_frac = (BACKUP_WARMUP_SECS / 3_600.0).min(remaining) * 0.5;
                            affected_mass_time += hot_mass * warm_frac;
                        } else {
                            affected_mass_time += hot_mass * remaining;
                        }
                    }
                }
            }
        }

        if plan.backup.count > 0 {
            let c = plan.backup.hourly_cost;
            self.metrics.ledger.record(CostCategory::Backup, t, c);
            hour_cost += c;
        }

        // Capacity shortfall: a flash crowd the forecast did not see can
        // exceed the plan's aggregate serving capacity. Without the
        // reactive element the shortfall persists all hour; with it,
        // emergency on-demand capacity covers everything past the reaction
        // lag (billed below).
        let plan_capacity: f64 = plan
            .alloc
            .entries
            .iter()
            .map(|e| e.count as f64 * e.offer.max_rate)
            .sum();
        // `max_rate` targets the latency bound at ~80% of saturation, so
        // modest forecast error only raises latency within budget; requests
        // are *affected* only past this headroom.
        const CAPACITY_HEADROOM: f64 = 1.2;
        let effective_capacity = CAPACITY_HEADROOM * plan_capacity;
        if actual_rate > effective_capacity && plan_capacity > 0.0 {
            let shortfall_frac = 1.0 - effective_capacity / actual_rate;
            match self.reactive.as_mut() {
                Some(r) => {
                    if let Some(action) =
                        r.observe(t, actual_rate, effective_capacity, self.emergency_rate)
                    {
                        // Degraded only during the reaction lag.
                        affected_mass_time += shortfall_frac * (REACT_LAG_SECS / 3_600.0);
                        let hours_active = 1.0 - REACT_LAG_SECS / 3_600.0;
                        let c = action.extra_instances as f64
                            * self.emergency_type.od_price
                            * hours_active;
                        self.metrics.ledger.record(CostCategory::OnDemand, t, c);
                        hour_cost += c;
                    } else {
                        // Cooldown window of a previous reaction: assume its
                        // emergency capacity is still mounted this hour.
                        let extra = ((actual_rate * 1.25 - effective_capacity)
                            / self.emergency_rate)
                            .ceil()
                            .max(0.0);
                        let c = extra * self.emergency_type.od_price;
                        self.metrics.ledger.record(CostCategory::OnDemand, t, c);
                        hour_cost += c;
                    }
                }
                None => affected_mass_time += shortfall_frac,
            }
        } else if let Some(r) = self.reactive.as_mut() {
            r.absorb();
        }

        self.metrics.revocations += revoked_this_hour;
        let requests = (actual_rate * 3_600.0) as u64;
        let affected = (affected_mass_time * actual_rate * 3_600.0) as u64;
        self.metrics
            .violations
            .record((t / DAY) as usize, requests, affected);

        let affected_frac = if requests > 0 {
            affected as f64 / requests as f64
        } else {
            0.0
        };
        if let Some(o) = &self.obs {
            o.gauge("sim_slot_cost_dollars").set(hour_cost);
            o.gauge("sim_affected_frac").set(affected_frac);
            o.gauge("sim_od_instances").set(f64::from(od_count));
            o.counter("sim_revocations_total")
                .add(u64::from(revoked_this_hour));
            o.histogram("sim_slot_cost_hist").record(hour_cost);
        }
        self.metrics.slots.push(SlotRecord {
            slot,
            od_count,
            spot_counts,
            revoked: revoked_this_hour,
            affected_frac,
            cost: hour_cost,
        });
        events
    }

    fn finish(self: Box<Self>) -> ControlMetrics {
        let mut metrics = self.metrics;
        metrics.reactions = self.reactive.map_or(0, |r| r.reactions());
        metrics
    }
}

/// Runs the simulation of one approach over the given spot markets.
pub fn simulate(cfg: &SimConfig, markets: &[SpotTrace]) -> Result<SimResult, SolveError> {
    simulate_traced(cfg, markets, None, None)
}

/// [`simulate`] with instrumentation: `obs` records into an observability
/// bundle, and per-cycle `control.*` spans land in `tracer` stamped with
/// logical slot times.
pub fn simulate_traced(
    cfg: &SimConfig,
    markets: &[SpotTrace],
    obs: Option<Arc<Obs>>,
    tracer: Option<Arc<Tracer>>,
) -> Result<SimResult, SolveError> {
    let controller = GlobalController::new(cfg.controller.clone());
    let substrate = HourlySim::new(cfg.clone(), markets.to_vec());
    let mut control = ControlLoop::new(controller, cfg.theta);
    if let Some(obs) = obs {
        control = control.with_obs(obs);
    }
    if let Some(tracer) = tracer {
        control = control.with_tracer(tracer);
    }
    control.run(substrate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::tracegen::paper_traces;
    use std::cell::Cell;
    use std::rc::Rc;

    fn quick(approach: Approach) -> SimResult {
        let mut cfg = SimConfig::paper_default(approach, 320_000.0, 60.0, 2.0);
        cfg.days = 21;
        simulate(&cfg, &paper_traces(21)).unwrap()
    }

    #[test]
    fn traced_simulation_emits_control_spans_and_window_gauges() {
        let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 320_000.0, 60.0, 2.0);
        cfg.days = 10;
        let obs = Arc::new(Obs::new());
        let tracer = Tracer::all(16_384);
        simulate_traced(
            &cfg,
            &paper_traces(10),
            Some(Arc::clone(&obs)),
            Some(Arc::clone(&tracer)),
        )
        .unwrap();
        assert!(tracer.categories().contains(&"control"));
        let names: std::collections::BTreeSet<&'static str> =
            tracer.spans().iter().map(|r| r.name).collect();
        assert!(names.contains("replan"), "{names:?}");
        assert!(names.contains("bid_placement"), "{names:?}");
        // Span timestamps are logical slot seconds (in µs), so the first
        // replan lands exactly on the schedule's start.
        let min_ts = tracer
            .spans()
            .iter()
            .map(|s| s.ts_us)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_ts % 3_600e6, 0.0, "slot-aligned logical timestamps");
        // Windowed telemetry published as gauges.
        assert!(obs.gauge("control_window_cost_mean").get() > 0.0);
        assert!(obs.gauge("control_window_burn_rate").get().is_finite());
        assert!(obs.gauge("control_window_demand_p95").get() > 0.0);
        let storm = obs.gauge("control_window_revocation_storm").get();
        assert!(storm == 0.0 || storm == 1.0);
        spotcache_obs::export::validate_json(&tracer.chrome_trace_json()).unwrap();
    }

    /// [`HourlySim`] that also folds every plan it is handed — each
    /// offer's count and placement, the modelled cost — into an FNV-1a
    /// fingerprint, and sums the plans' LP counts.
    struct Fingerprinted {
        sim: HourlySim,
        seen: Rc<Cell<(u64, u32, u32)>>,
    }

    impl Substrate for Fingerprinted {
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
            self.sim.observe(t)
        }
        fn act(
            &mut self,
            t: u64,
            slot: u64,
            plan: &SlotPlan,
            obs: &Observation,
        ) -> Vec<SubstrateEvent> {
            let (mut h, solved, skipped) = self.seen.get();
            let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            for e in &plan.alloc.entries {
                e.offer.label.bytes().for_each(|b| fold(u64::from(b)));
                fold(u64::from(e.count));
                fold(e.hot_frac.to_bits());
                fold(e.cold_frac.to_bits());
            }
            fold(plan.alloc.cost.to_bits());
            self.seen.set((
                h,
                solved + plan.alloc.lps_solved,
                skipped + plan.alloc.lps_skipped,
            ));
            self.sim.act(t, slot, plan, obs)
        }
        fn finish(self: Box<Self>) -> ControlMetrics {
            Box::new(self.sim).finish()
        }
    }

    /// The count walk skips only LPs that could not have helped: on 21
    /// days of the paper's traces at `plan_90d`'s workload each of the five
    /// planning approaches skips some (`AllocationPlan::lps_skipped`), and
    /// every slot's plan is the one the walk that solved them all produced
    /// — the fingerprints were taken at PR 24's commit, the last whose walk
    /// never skipped. (Debug builds also re-solve each skipped LP at the
    /// skip.)
    #[test]
    fn the_count_walk_skips_only_lps_that_would_fail() {
        #[rustfmt::skip]
        let golden = [
            (Approach::Prop,         0xc04f_d64e_d2ce_9482u64),
            (Approach::PropNoBackup, 0xc04f_d64e_d2ce_9482),
            (Approach::OdSpotSep,    0x095d_3134_7d98_9984),
            (Approach::OdSpotCdf,    0x7e31_6ba9_d60c_e040),
            (Approach::OdOnly,       0x3048_a992_21a0_efdb),
        ];
        for (approach, fingerprint) in golden {
            let mut cfg = SimConfig::paper_default(approach, 500_000.0, 100.0, 0.99);
            cfg.days = 21;
            let seen = Rc::new(Cell::new((0xcbf2_9ce4_8422_2325, 0, 0)));
            let substrate = Fingerprinted {
                sim: HourlySim::new(cfg.clone(), paper_traces(21)),
                seen: Rc::clone(&seen),
            };
            let r = ControlLoop::new(GlobalController::new(cfg.controller), cfg.theta)
                .run(substrate)
                .unwrap();
            let (h, solved, skipped) = seen.get();
            let replans = r.slots.len() as f64;
            println!(
                "{approach:?}: {:.2} LPs solved and {:.2} skipped a replan, fingerprint {h:#x}",
                f64::from(solved) / replans,
                f64::from(skipped) / replans,
            );
            assert!(skipped > 0, "{approach:?} skipped no LP");
            assert_eq!(h, fingerprint, "{approach:?}");
        }
    }

    #[test]
    fn od_only_never_revokes_and_costs_run_daily() {
        let r = quick(Approach::OdOnly);
        assert_eq!(r.revocations, 0);
        assert_eq!(r.violated_day_frac(), 0.0);
        assert!(r.total_cost() > 0.0);
        assert_eq!(r.violations.days(), 14); // 21 - 7 training
        assert!(r.ledger.total(CostCategory::Spot) == 0.0);
    }

    #[test]
    fn od_peak_costs_at_least_od_only() {
        let peak = quick(Approach::OdPeak);
        let only = quick(Approach::OdOnly);
        assert!(
            peak.total_cost() >= only.total_cost() * 0.999,
            "peak {} vs only {}",
            peak.total_cost(),
            only.total_cost()
        );
    }

    #[test]
    fn prop_nobackup_saves_substantially_over_od_only() {
        // The headline: 50-80% savings versus on-demand-only.
        let prop = quick(Approach::PropNoBackup);
        let od = quick(Approach::OdOnly);
        let ratio = prop.total_cost() / od.total_cost();
        assert!(ratio < 0.6, "normalized cost {ratio}");
        assert!(prop.ledger.total(CostCategory::Spot) > 0.0);
    }

    #[test]
    fn prop_backup_cost_is_small_at_high_skew() {
        let prop = quick(Approach::Prop);
        let backup = prop.ledger.total(CostCategory::Backup);
        let total = prop.total_cost();
        assert!(backup > 0.0, "Prop should carry a backup");
        assert!(backup / total < 0.15, "backup share {}", backup / total);
    }

    #[test]
    fn mixing_beats_separation_on_cost() {
        let mix = quick(Approach::PropNoBackup);
        let sep = quick(Approach::OdSpotSep);
        assert!(
            mix.total_cost() < sep.total_cost(),
            "mix {} vs sep {}",
            mix.total_cost(),
            sep.total_cost()
        );
    }

    #[test]
    fn slot_records_cover_the_simulated_span() {
        let r = quick(Approach::PropNoBackup);
        assert_eq!(r.slots.len(), 14 * 24);
        let sum: f64 = r.slots.iter().map(|s| s.cost).sum();
        assert!((sum - r.total_cost()).abs() < 1e-6);
    }

    fn crowd_config() -> SimConfig {
        // An online approach: its AR(2) forecast absorbs a sustained crowd
        // after one slot, so only the first hour is exposed.
        let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 320_000.0, 60.0, 0.99);
        cfg.days = 14;
        cfg.flash_crowds = vec![FlashCrowd {
            start_hour: 10 * 24,
            duration_hours: 6,
            multiplier: 3.0,
        }];
        cfg
    }

    #[test]
    fn flash_crowd_without_reactive_violates_days() {
        let cfg = crowd_config();
        let r = simulate(&cfg, &paper_traces(14)).unwrap();
        assert!(
            r.violated_day_frac() > 0.0,
            "unmitigated crowd must violate"
        );
        assert_eq!(r.reactions, 0);
    }

    #[test]
    fn reactive_element_mitigates_flash_crowd() {
        let mut cfg = crowd_config();
        let base = simulate(&cfg, &paper_traces(14)).unwrap();
        cfg.reactive = Some(crate::reactive::ReactiveConfig::default());
        let reactive = simulate(&cfg, &paper_traces(14)).unwrap();
        assert!(reactive.reactions > 0);
        assert!(
            reactive.violated_day_frac() < base.violated_day_frac(),
            "reactive {} vs base {}",
            reactive.violated_day_frac(),
            base.violated_day_frac()
        );
        // Mitigation costs money (the emergency instances).
        assert!(reactive.total_cost() > base.total_cost());
    }

    #[test]
    fn flash_crowd_activity_window() {
        let c = FlashCrowd {
            start_hour: 5,
            duration_hours: 2,
            multiplier: 2.0,
        };
        assert!(!c.active(4));
        assert!(c.active(5));
        assert!(c.active(6));
        assert!(!c.active(7));
    }

    #[test]
    fn affected_fraction_is_bounded() {
        let r = quick(Approach::OdSpotCdf);
        for s in &r.slots {
            assert!(
                (0.0..=1.0).contains(&s.affected_frac),
                "{}",
                s.affected_frac
            );
        }
    }
}
