//! Fine-grained 24-hour prototype emulation (paper Figures 9 and 10).
//!
//! The long-horizon simulator accounts costs hourly; this module instead
//! replays a single day at per-minute resolution, sampling request
//! latencies from the cluster's queueing model so average and tail latency
//! time series can be compared across approaches. The shared
//! [`ControlLoop`] replans hourly and
//! drives the `MinutePrototype` substrate's sixty per-minute steps
//! between replans. Bid failures interrupt live nodes mid-day; each loss
//! then re-warms on its replacement by stepping `sim::recovery`'s
//! [`Warmup`] once a second — organically for approaches without a
//! backup, and for `Prop` also by the hottest-first copy of the slot's
//! sized backup, which pumps through its type's token buckets from the
//! warning on.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use spotcache_cloud::catalog::InstanceType;
use spotcache_cloud::spot::{Loss, SpotTrace};
use spotcache_cloud::{DAY, HOUR};
use spotcache_obs::Obs;
use spotcache_optimizer::problem::{OfferKind, SolveError};
use spotcache_sim::metrics::{ControlMetrics, LatencySample, SlotRecord};
use spotcache_sim::{
    sample_backend_misses, sample_cluster_latency, LatencyHistogram, NodeLoad, Warmup,
};
use spotcache_workload::wikipedia::WikipediaTrace;

use crate::controller::{self, ControllerConfig, GlobalController, SlotPlan};
use crate::controlplane::{
    cold_access_mass, hot_access_mass, ControlLoop, Demand, Observation, Schedule, Substrate,
    SubstrateEvent,
};

/// Prototype experiment configuration.
#[derive(Debug, Clone)]
pub struct PrototypeConfig {
    /// Controller (fixes the approach under test).
    pub controller: ControllerConfig,
    /// Day of the spot trace to replay (paper: day 51 for Figure 9, day 45
    /// for Figure 10).
    pub start_day: u64,
    /// Peak arrival rate, ops/sec (paper: 320k).
    pub peak_rate: f64,
    /// Maximum working-set size, GiB (paper: 60).
    pub max_wss_gb: f64,
    /// Popularity skew.
    pub theta: f64,
    /// Seed for workload and latency sampling.
    pub seed: u64,
}

/// Prototype run output: the unified control-loop metrics record.
/// Per-minute latency samples are in [`ControlMetrics::samples`], hourly
/// allocations in [`ControlMetrics::slots`], the whole-day distribution in
/// [`ControlMetrics::latency`], and bid-failure events (offers revoked,
/// not instances) in [`ControlMetrics::revocations`].
pub type PrototypeResult = ControlMetrics;

/// Seconds after a revocation during which the affected content is fully
/// backend-served: the load balancer detects the failure, reconfigures the
/// ring, and attaches the replacement before any refill can start. (The
/// paper's Figure 9/10 latency spikes at failure instants are exactly this
/// transient.)
const REDIRECT_TRANSIENT_SECS: u64 = 60;

/// Latency samples drawn per minute.
const SAMPLES_PER_MINUTE: usize = 1_200;

/// Popularity bins of a loss's warm-up.
const WARMUP_BINS: usize = 48;

/// Static node set for one hour; failures knock entries out.
struct LiveEntry {
    label: String,
    count: u32,
    capacity: f64,
    /// The entry's hot and cold content, each `(GiB, access mass)`.
    content: [(f64, f64); 2],
    fails_at: Option<Loss>,
}

/// Per-hour state established by the replan, consumed by minute steps.
struct HourState {
    rate: f64,
    live: Vec<LiveEntry>,
    /// The slot's sized backup, which pumps each loss's hot set.
    backup: Option<InstanceType>,
    /// Each loss's warm-up, with the second the loss struck.
    recoveries: Vec<(u64, Warmup)>,
}

/// The per-minute substrate: latency-samples a single day against one
/// spot market.
pub(crate) struct MinutePrototype {
    cfg: PrototypeConfig,
    market: SpotTrace,
    workload: WikipediaTrace,
    rng: StdRng,
    hour: Option<HourState>,
    metrics: ControlMetrics,
    obs: Option<Arc<Obs>>,
}

impl MinutePrototype {
    /// Builds the substrate from a configuration and one spot market.
    pub(crate) fn new(cfg: PrototypeConfig, market: SpotTrace) -> Self {
        // The workload covers the whole trace so day indices line up.
        let total_days = market.end() / DAY;
        let workload = WikipediaTrace::generate(
            total_days.max(cfg.start_day + 1),
            cfg.peak_rate,
            cfg.max_wss_gb,
            cfg.seed,
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            market,
            workload,
            rng,
            hour: None,
            metrics: ControlMetrics::new(),
            obs: None,
        }
    }
}

impl Substrate for MinutePrototype {
    fn schedule(&self) -> Schedule {
        Schedule {
            start: self.cfg.start_day * DAY,
            slots: 24,
            slot_secs: HOUR,
            steps_per_slot: 60,
        }
    }

    fn markets(&self) -> Vec<SpotTrace> {
        vec![self.market.clone()]
    }

    fn attach_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    fn observe(&mut self, t: u64) -> Observation {
        let demand = Demand {
            rate: self.workload.rate_at(t),
            wss_gb: self.workload.wss_at(t),
        };
        Observation {
            actual: demand,
            basis: demand,
        }
    }

    fn act(
        &mut self,
        t0: u64,
        slot: u64,
        plan: &SlotPlan,
        obs: &Observation,
    ) -> Vec<SubstrateEvent> {
        let (f, wss) = (plan.forecast, obs.actual.wss_gb);
        let mut live: Vec<LiveEntry> = Vec::new();
        for e in &plan.alloc.entries {
            if e.count == 0 {
                continue;
            }
            let hot = (e.hot_frac * wss, hot_access_mass(e.hot_frac, &f, f.f_hot));
            let cold = (e.cold_frac * wss, cold_access_mass(e.cold_frac, &f));
            let fails_at = match &e.offer.kind {
                OfferKind::OnDemand => None,
                OfferKind::Spot { bid, .. } => self.market.lease(*bid, t0, t0 + HOUR).loss(t0),
            };
            live.push(LiveEntry {
                label: e.offer.label.clone(),
                count: e.count,
                capacity: controller::PROFILE.capacity_ops(&e.offer.itype, false),
                content: [hot, cold],
                fails_at,
            });
        }
        self.metrics
            .slots
            .push(SlotRecord::planned(slot, &plan.alloc));

        self.hour = Some(HourState {
            rate: obs.actual.rate,
            live,
            backup: (plan.backup.count > 0).then_some(plan.backup.itype),
            recoveries: Vec::new(),
        });
        Vec::new()
    }

    fn step(&mut self, t: u64, step: u64) -> Vec<SubstrateEvent> {
        let state = self.hour.as_mut().expect("step before first replan");
        let rate = state.rate;
        let mut events = Vec::new();

        // Trigger failures that strike within this minute.
        for e in &state.live {
            let Some(loss) = e.fails_at.filter(|l| (t..t + 60).contains(&l.at)) else {
                continue;
            };
            self.metrics.revocations += 1;
            events.push(SubstrateEvent::Revoked {
                label: e.label.clone(),
                count: e.count,
                warned: loss.notice > 0,
            });
            let [hot, cold] = e.content;
            let mut warmup = Warmup::new(
                hot,
                cold,
                self.cfg.theta,
                WARMUP_BINS,
                state.backup,
                REDIRECT_TRANSIENT_SECS,
            );
            // The backup starts copying at the warning.
            warmup.precopy(loss.notice as f64);
            state.recoveries.push((loss.at, warmup));
        }

        // Step each warm-up through the minute at 1-second resolution
        // from the second its loss struck, tracking the *time-averaged*
        // unwarmed mass: organic refill of a skewed working set moves
        // fast enough that sampling only the end-of-minute state would
        // hide the miss burst entirely.
        let mut unwarmed = 0.0;
        for (lost_at, r) in &mut state.recoveries {
            let acc: f64 = (t..t + 60)
                .filter(|now| now >= lost_at)
                .map(|_| {
                    let copied = r.pump_step(1.0).unwrap_or(0.0);
                    r.step(copied, rate, 1.0)
                })
                .sum();
            unwarmed += acc / 60.0;
        }

        // Build the node set: surviving entries plus an implicit
        // replacement pool serving warmed recovered mass at healthy
        // utilization. An entry lost in this minute serves its mass for
        // the minute's share before its loss.
        let mut nodes = Vec::new();
        let mut served_mass = 0.0;
        for e in &state.live {
            let live_secs = e.fails_at.map_or(60, |l| l.at.saturating_sub(t).min(60));
            let mass = (e.content[0].1 + e.content[1].1) * (live_secs as f64 / 60.0);
            if mass <= 0.0 {
                continue;
            }
            served_mass += mass;
            let per_instance = mass * rate / e.count as f64;
            for _ in 0..e.count {
                nodes.push(NodeLoad {
                    rate: per_instance,
                    capacity: e.capacity,
                });
            }
        }
        let recovered_mass = (1.0 - served_mass - unwarmed).max(0.0);
        if recovered_mass > 1e-9 {
            // Replacements are provisioned like the average live node.
            let cap = 13_000.0f64.max(nodes.first().map(|n| n.capacity).unwrap_or(13_000.0));
            let n_repl = ((recovered_mass * rate) / (0.6 * cap)).ceil().max(1.0) as u32;
            for _ in 0..n_repl {
                nodes.push(NodeLoad {
                    rate: recovered_mass * rate / n_repl as f64,
                    capacity: cap,
                });
            }
        }

        let mut hist = LatencyHistogram::new();
        let hit_samples = ((1.0 - unwarmed).max(0.0) * SAMPLES_PER_MINUTE as f64) as usize;
        let miss_samples = (unwarmed.clamp(0.0, 1.0) * SAMPLES_PER_MINUTE as f64) as usize;
        sample_cluster_latency(
            &nodes,
            1.0,
            &controller::PROFILE,
            &mut self.rng,
            hit_samples,
            &mut hist,
        );
        // Unwarmed content: back-end round trips under the miss flood.
        sample_backend_misses(unwarmed * rate, miss_samples, &mut self.rng, &mut hist);
        self.metrics.latency.merge(&hist);
        let minute = (t - self.cfg.start_day * DAY) / 60;
        debug_assert_eq!(minute % 60, step);
        let avg_us = hist.mean();
        let p95_us = hist.quantile(0.95);
        if let Some(o) = &self.obs {
            o.gauge("proto_minute_avg_us").set(avg_us);
            o.gauge("proto_minute_p95_us").set(p95_us);
            o.histogram("proto_minute_avg_us_hist").record(avg_us);
        }
        self.metrics.samples.push(LatencySample {
            step: minute,
            avg_us,
            p95_us,
        });
        events
    }

    fn finish(self: Box<Self>) -> ControlMetrics {
        self.metrics
    }
}

/// Replays one day of one approach against a single spot market.
pub fn run_prototype(
    cfg: &PrototypeConfig,
    market: &SpotTrace,
) -> Result<PrototypeResult, SolveError> {
    let controller = GlobalController::new(cfg.controller.clone());
    let substrate = MinutePrototype::new(cfg.clone(), market.clone());
    ControlLoop::new(controller, cfg.theta).run(substrate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approaches::Approach;
    use spotcache_cloud::tracegen::paper_traces;

    fn config(approach: Approach, day: u64) -> PrototypeConfig {
        PrototypeConfig {
            controller: ControllerConfig::paper_default(approach),
            start_day: day,
            peak_rate: 320_000.0,
            max_wss_gb: 60.0,
            theta: 2.0,
            seed: 0x9,
        }
    }

    fn l_d() -> SpotTrace {
        paper_traces(90).remove(1)
    }

    #[test]
    fn prototype_emits_full_time_series() {
        let market = l_d();
        let r = run_prototype(&config(Approach::PropNoBackup, 45), &market).unwrap();
        assert_eq!(r.samples.len(), 24 * 60);
        assert_eq!(r.slots.len(), 24);
        assert!(r.latency.count() > 0);
        for m in &r.samples {
            assert!(m.avg_us > 0.0);
            assert!(m.p95_us >= m.avg_us * 0.5);
        }
    }

    /// Day 30 of m4.XL-c at seed 0xF19: one warned and one unwarned loss
    /// for `Prop` and `PropNoBackup` alike.
    fn xl_c_day30(approach: Approach) -> PrototypeResult {
        let market = paper_traces(90)
            .into_iter()
            .find(|t| t.market.short_label() == "m4.XL-c")
            .unwrap();
        let cfg = PrototypeConfig {
            seed: 0xF19,
            ..config(approach, 30)
        };
        run_prototype(&cfg, &market).unwrap()
    }

    #[test]
    fn backup_reduces_degradation_after_failures() {
        let prop = xl_c_day30(Approach::Prop);
        let nb = xl_c_day30(Approach::PropNoBackup);
        assert!(prop.revocations > 0 && nb.revocations > 0);
        assert!(prop.latency.quantile(0.99) <= nb.latency.quantile(0.99) * 1.2);
    }

    /// A loss strikes at its own second, not at the start of its minute:
    /// an entry lost 30 s into a minute serves that minute's first half,
    /// and its replacement stays unusable through the next minute's first
    /// half.
    #[test]
    fn a_loss_strikes_at_its_own_second() {
        let minutes = |lost_after: u64| {
            let mut proto = MinutePrototype::new(config(Approach::PropNoBackup, 45), l_d());
            let t0 = proto.schedule().start;
            proto.hour = Some(HourState {
                rate: 100_000.0,
                live: vec![LiveEntry {
                    label: "spot".into(),
                    count: 4,
                    capacity: 100_000.0,
                    content: [(1.0, 0.5), (1.0, 0.5)],
                    fails_at: Some(Loss {
                        at: t0 + lost_after,
                        notice: 0,
                    }),
                }],
                backup: None,
                recoveries: Vec::new(),
            });
            proto.step(t0, 0);
            proto.step(t0 + 60, 1);
            [0, 1].map(|minute| proto.metrics.samples[minute].avg_us)
        };
        let (at_0, at_30) = (minutes(0), minutes(30));
        assert!(at_30[0] < 0.75 * at_0[0], "{at_30:?} vs {at_0:?}");
        assert!(at_30[1] > 2.0 * at_0[1], "{at_30:?} vs {at_0:?}");
    }

    /// `Prop`'s losses on [`xl_c_day30`] are each re-warmed by the
    /// t2.medium backup's pump (the warned one from the warning on). Its
    /// figures were pinned before the prototype stepped `sim::recovery`'s
    /// warm-up instead of its own minute loop; a drift beyond 1e-9
    /// relative means the pump's timing or rate moved.
    #[test]
    fn prop_backup_pump_run_is_pinned() {
        let r = xl_c_day30(Approach::Prop);
        assert_eq!((r.revocations, r.latency.count()), (2, 1_727_917));
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
        let (mean, p95) = (r.latency.mean(), r.latency.quantile(0.95));
        assert!(close(mean, 566.929_139_670_592_3), "mean {mean:.17e}");
        assert!(close(p95, 954.919_168_086_014_3), "p95 {p95:.17e}");
    }
}
