//! Fine-grained 24-hour prototype emulation (paper Figures 9 and 10).
//!
//! The long-horizon simulator accounts costs hourly; this module instead
//! replays a single day at per-minute resolution, sampling request
//! latencies from the cluster's queueing model so average and tail latency
//! time series can be compared across approaches. The shared
//! [`ControlLoop`] replans hourly and
//! drives the [`MinutePrototype`] substrate's sixty per-minute steps
//! between replans. Bid failures interrupt live nodes mid-day; the
//! affected content then re-warms on the replacement node — organically
//! for approaches without a backup, and via the backup's hottest-first
//! copy for `Prop` — using the same [`WarmupModel`] as the recovery
//! simulator.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use spotcache_cloud::spot::SpotTrace;
use spotcache_cloud::{DAY, HOUR};
use spotcache_obs::Obs;
use spotcache_optimizer::problem::{OfferKind, SolveError, WorkloadForecast};
use spotcache_sim::metrics::{ControlMetrics, LatencySample, SlotRecord};
use spotcache_sim::{
    sample_cluster_latency, LatencyHistogram, NodeLoad, WarmupModel, COPY_ITEMS_PER_VCPU,
    DEFAULT_BACKEND_CAPACITY_OPS,
};
use spotcache_workload::wikipedia::WikipediaTrace;

use crate::controller::{ControllerConfig, GlobalController, SlotPlan};
use crate::controlplane::{
    cold_access_mass, hot_access_mass, ControlLoop, Demand, Observation, Schedule, Substrate,
    SubstrateEvent,
};
use spotcache_optimizer::latency::LatencyProfile;

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
pub const REDIRECT_TRANSIENT_SECS: u64 = 60;

/// A warm-up in progress after a bid failure.
struct ActiveRecovery {
    hot: WarmupModel,
    cold: WarmupModel,
    /// Items/second the backup copy pump delivers (0 without a backup).
    copy_rate: f64,
    /// Remaining seconds of the full-outage redirect transient.
    transient_left: u64,
}

/// Static node set for one hour; failures knock entries out.
struct LiveEntry {
    label: String,
    count: u32,
    mass: f64, // access mass served by this entry
    capacity: f64,
    hot_frac: f64,
    cold_frac: f64,
    fails_at: Option<u64>,
}

/// Per-hour state established by the replan, consumed by minute steps.
struct HourState {
    rate: f64,
    wss: f64,
    forecast: WorkloadForecast,
    live: Vec<LiveEntry>,
    recoveries: Vec<ActiveRecovery>,
}

/// The per-minute substrate: latency-samples a single day against one
/// spot market.
pub struct MinutePrototype {
    cfg: PrototypeConfig,
    market: SpotTrace,
    workload: WikipediaTrace,
    rng: StdRng,
    profile: LatencyProfile,
    samples_per_minute: usize,
    /// Items/second/vCPU the backup copy pump delivers (the measured
    /// constant from the recovery model; threaded here so this crate does
    /// not hard-code simulator internals).
    copy_items_per_vcpu: f64,
    /// Capacity of the shared backend store, ops/sec.
    backend_capacity_ops: f64,
    hour: Option<HourState>,
    metrics: ControlMetrics,
    obs: Option<Arc<Obs>>,
}

impl MinutePrototype {
    /// Builds the substrate from a configuration and one spot market.
    pub fn new(cfg: PrototypeConfig, market: SpotTrace) -> Self {
        // The workload covers the whole trace so day indices line up.
        let total_days = market.end() / DAY;
        let workload = WikipediaTrace::generate(
            total_days.max(cfg.start_day + 1),
            cfg.peak_rate,
            cfg.max_wss_gb,
            cfg.seed,
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        let profile = cfg.controller.profile;
        Self {
            cfg,
            market,
            workload,
            rng,
            profile,
            samples_per_minute: 1_200,
            copy_items_per_vcpu: COPY_ITEMS_PER_VCPU,
            backend_capacity_ops: DEFAULT_BACKEND_CAPACITY_OPS,
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
            step_secs: 60,
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
        let f = plan.forecast;
        let r_h_total = f.f_hot; // access mass of the whole hot set

        let mut live: Vec<LiveEntry> = Vec::new();
        let mut od_count = 0;
        let mut spot_counts = Vec::new();
        for e in &plan.alloc.entries {
            if e.count == 0 {
                continue;
            }
            let mass =
                hot_access_mass(e.hot_frac, &f, r_h_total) + cold_access_mass(e.cold_frac, &f);
            let fails_at = match &e.offer.kind {
                OfferKind::OnDemand => {
                    od_count += e.count;
                    None
                }
                OfferKind::Spot { bid, .. } => {
                    spot_counts.push((e.offer.label.clone(), e.count));
                    self.market.first_failure_in(t0, t0 + HOUR, *bid)
                }
            };
            live.push(LiveEntry {
                label: e.offer.label.clone(),
                count: e.count,
                mass,
                capacity: self.profile.capacity_ops(&e.offer.itype, false),
                hot_frac: e.hot_frac,
                cold_frac: e.cold_frac,
                fails_at,
            });
        }
        self.metrics.slots.push(SlotRecord {
            slot,
            od_count,
            spot_counts,
            ..SlotRecord::default()
        });

        self.hour = Some(HourState {
            rate: obs.actual.rate,
            wss: obs.actual.wss_gb,
            forecast: f,
            live,
            recoveries: Vec::new(),
        });
        Vec::new()
    }

    fn step(&mut self, t: u64, step: u64) -> Vec<SubstrateEvent> {
        let state = self.hour.as_mut().expect("step before first replan");
        let f = &state.forecast;
        let rate = state.rate;
        let mut events = Vec::new();

        // Trigger failures that occur within this minute.
        for e in &mut state.live {
            if let Some(tf) = e.fails_at {
                if tf < t + 60 {
                    self.metrics.revocations += 1;
                    events.push(SubstrateEvent::Revoked {
                        label: e.label.clone(),
                        count: e.count,
                    });
                    let item_bytes = self.profile.item_bytes;
                    let hot_items = e.hot_frac * state.wss * (1u64 << 30) as f64 / item_bytes;
                    let cold_items = e.cold_frac * state.wss * (1u64 << 30) as f64 / item_bytes;
                    let hot_mass = hot_access_mass(e.hot_frac, f, f.f_hot);
                    let cold_mass = cold_access_mass(e.cold_frac, f);
                    let copy_rate = if self.cfg.controller.approach.has_backup() {
                        // t2.medium pump: 2 burst vCPUs.
                        2.0 * self.copy_items_per_vcpu
                    } else {
                        0.0
                    };
                    state.recoveries.push(ActiveRecovery {
                        hot: WarmupModel::new(hot_items, hot_mass, self.cfg.theta, 48),
                        cold: WarmupModel::new(cold_items, cold_mass, self.cfg.theta, 48),
                        copy_rate,
                        transient_left: REDIRECT_TRANSIENT_SECS,
                    });
                    e.mass = 0.0;
                    e.count = 0;
                    e.fails_at = None;
                }
            }
        }

        // Advance warm-ups through the minute at 1-second resolution,
        // tracking the *time-averaged* unwarmed mass: organic refill of
        // a skewed working set moves fast enough that sampling only the
        // end-of-minute state would hide the miss burst entirely.
        let mut unwarmed = 0.0;
        for r in &mut state.recoveries {
            let mut acc = 0.0;
            for _ in 0..60 {
                if r.transient_left > 0 {
                    // Ring reconfiguration in progress: the whole
                    // affected mass misses, and nothing warms yet.
                    r.transient_left -= 1;
                    acc += r.hot.total_mass() + r.cold.total_mass();
                    continue;
                }
                if r.copy_rate > 0.0 && !r.hot.fully_copied() {
                    r.hot.copy_step(r.copy_rate);
                }
                let un = (r.hot.total_mass() - r.hot.warmed_mass()).max(0.0)
                    + (r.cold.total_mass() - r.cold.warmed_mass()).max(0.0);
                let demand = un * rate;
                let cap = self.backend_capacity_ops;
                let throttle = if demand > cap && demand > 0.0 {
                    cap / demand
                } else {
                    1.0
                };
                r.hot.organic_step(rate * throttle, 1.0);
                r.cold.organic_step(rate * throttle, 1.0);
                acc += (r.hot.total_mass() - r.hot.warmed_mass()).max(0.0)
                    + (r.cold.total_mass() - r.cold.warmed_mass()).max(0.0);
            }
            unwarmed += acc / 60.0;
        }

        // Build the node set: surviving entries plus an implicit
        // replacement pool serving warmed recovered mass at healthy
        // utilization.
        let mut nodes = Vec::new();
        let mut served_mass = 0.0;
        for e in &state.live {
            if e.count == 0 || e.mass <= 0.0 {
                continue;
            }
            served_mass += e.mass;
            let per_instance = e.mass * rate / e.count as f64;
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
        let hit_samples = ((1.0 - unwarmed).max(0.0) * self.samples_per_minute as f64) as usize;
        let miss_samples = (unwarmed.clamp(0.0, 1.0) * self.samples_per_minute as f64) as usize;
        sample_cluster_latency(
            &nodes,
            1.0,
            &self.profile,
            &mut self.rng,
            hit_samples,
            &mut hist,
        );
        if miss_samples > 0 {
            // Unwarmed content: backend round-trips, queueing on the
            // finitely-provisioned back-end when the miss flood exceeds
            // its capacity.
            let backend = [NodeLoad {
                rate: unwarmed * rate,
                capacity: self.backend_capacity_ops,
            }];
            sample_cluster_latency(
                &backend,
                0.0,
                &self.profile,
                &mut self.rng,
                miss_samples,
                &mut hist,
            );
        }
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

    fn xl_c() -> SpotTrace {
        paper_traces(90).remove(2)
    }

    fn l_d() -> SpotTrace {
        paper_traces(90).remove(1)
    }

    #[test]
    fn figure9_shape_prop_beats_cdf_on_tail() {
        // Day 51 in the spiky m4.XL-c market: the CDF approach suffers
        // several partial bid failures (the paper observed three); ours
        // avoids the low bid and suffers fewer, so its latency time series
        // shows fewer backend-dominated tail spikes while averages stay
        // comparable.
        let market = xl_c();
        let ours = run_prototype(&config(Approach::PropNoBackup, 51), &market).unwrap();
        let cdf = run_prototype(&config(Approach::OdSpotCdf, 51), &market).unwrap();
        assert!(
            ours.revocations < cdf.revocations,
            "ours {} vs cdf {}",
            ours.revocations,
            cdf.revocations
        );
        assert!(
            cdf.revocations >= 2,
            "the scenario should stress the CDF baseline"
        );
        let spikes = |r: &PrototypeResult| r.samples.iter().filter(|m| m.p95_us > 5_000.0).count();
        assert!(
            spikes(&ours) < spikes(&cdf),
            "ours {} tail spikes vs cdf {}",
            spikes(&ours),
            spikes(&cdf)
        );
        assert!(ours.latency.quantile(0.999) <= cdf.latency.quantile(0.999));
        // Average latencies are comparable (within 2x) — the paper's
        // "similar average latency".
        let ratio = ours.latency.mean() / cdf.latency.mean();
        assert!((0.5..=2.0).contains(&ratio), "avg ratio {ratio}");
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

    #[test]
    fn figure10_multiple_bids_are_placed() {
        // The optimizer hedges across bid1 and bid2 in the same market.
        let market = l_d();
        let r = run_prototype(&config(Approach::PropNoBackup, 45), &market).unwrap();
        let mut labels = std::collections::HashSet::new();
        for a in &r.slots {
            for (l, _) in &a.spot_counts {
                labels.insert(l.clone());
            }
        }
        assert!(!labels.is_empty(), "no spot offers used at all");
    }

    #[test]
    fn backup_reduces_degradation_after_failures() {
        // Force a day with failures in m4.L-d's hot window (days 40-50).
        let market = l_d();
        let prop = run_prototype(&config(Approach::Prop, 45), &market).unwrap();
        let nb = run_prototype(&config(Approach::PropNoBackup, 45), &market).unwrap();
        if prop.revocations > 0 && nb.revocations > 0 {
            assert!(prop.latency.quantile(0.99) <= nb.latency.quantile(0.99) * 1.2);
        }
    }
}
