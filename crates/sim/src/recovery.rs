//! Failure-recovery timelines (paper Figure 4 and the Figure 11
//! experiments).
//!
//! When a spot node is revoked its contents vanish. A replacement node `R`
//! is launched; until `R` is warm, requests for the lost content are served
//! by the passive backup `B` (hot keys only, if a backup exists) or by the
//! slow back-end, and `R` warms up two ways at once:
//!
//! * **copy**: `B` pumps the lost hot items into `R`, hottest-first. The
//!   pump rate is the minimum of a per-vCPU item rate (the copy is a small
//!   get/set loop) and the network bandwidth — for burstable backups both
//!   are read from the instance's token buckets each step, so a backup
//!   with depleted credits degrades mid-recovery exactly as on EC2.
//! * **organic fill**: any missed request installs its key into `R`
//!   write-through, so popular keys also warm at the rate they are asked
//!   for (this is the *only* warm-up path for `Prop_NoBackup` and for cold
//!   content). Misses beyond the back-end's capacity queue rather than
//!   install.
//!
//! [`Warmup`] is that process, one lost node at a time, over
//! popularity-binned content: the minute prototype (Figures 9 and 10) and
//! the revocation drill's prediction step it, and [`simulate_recovery`]
//! steps it once a second and reports average and p95 latency over the
//! whole workload. Both latency mixtures draw the back-end's misses from
//! [`sample_backend_misses`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use spotcache_cloud::burstable::{BucketObserver, BurstableState};
use spotcache_cloud::catalog::InstanceType;
use spotcache_obs::{EventKind, Obs, Tracer};
use spotcache_optimizer::latency::LatencyProfile;
use spotcache_workload::zipf::PopularityModel;

use crate::cluster::{sample_cluster_latency, NodeLoad};
use crate::metrics::LatencyHistogram;

/// Items per second one vCPU can pump in the warm-up copy loop (profiled:
/// a pipelined get-from-B/set-to-R loop over 4 KB items).
const COPY_ITEMS_PER_VCPU: f64 = 1_300.0;

/// The latency profile recovery samples against; its `item_bytes` is the
/// size of each item the pump ships.
const PROFILE: LatencyProfile = LatencyProfile::paper_default();

/// Back-end throughput, ops/sec. The paper provisions its back-end
/// for worst-case *normal* miss traffic; a revocation's miss flood (most of
/// the workload at once) still saturates it, which is precisely why warming
/// through the backup — which bypasses the back-end entirely — matters.
const BACKEND_CAPACITY_OPS: f64 = 10_000.0;

/// Total workload arrival rate of a recovery scenario, ops/sec (Figure
/// 11's 40 kops).
const TOTAL_RATE: f64 = 40_000.0;

/// Healthy-cluster utilization (sets the baseline latency level).
const HEALTHY_UTILIZATION: f64 = 0.5;

/// RNG seed for latency sampling.
const SEED: u64 = 0xF1_611;

/// Recovery scenario configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Popularity skew of the workload.
    pub theta: f64,
    /// Hot data lost with the revoked node, GiB.
    pub lost_hot_gb: f64,
    /// Cold data lost with the revoked node, GiB.
    pub lost_cold_gb: f64,
    /// Fraction of all accesses that target the lost hot content.
    pub hot_mass_lost: f64,
    /// Fraction of all accesses that target the lost cold content.
    pub cold_mass_lost: f64,
    /// The passive backup's instance type (burstable types pump through
    /// their token buckets); `None` is `Prop_NoBackup`, where everything
    /// warms organically.
    pub(crate) backup: Option<InstanceType>,
    /// Whether the backup also serves reads while warming `R` (Figure 4
    /// events 4–7) or only pumps (events 6′–7′).
    pub serve_from_backup: bool,
    /// When `R` becomes usable, seconds relative to the start of the
    /// timeline (0 = copy/serve starts immediately — the paper's Figure 11
    /// convention where t=0 is "replacement ready").
    pub replacement_ready_at: u64,
    /// Simulation horizon, seconds.
    pub horizon_secs: u64,
    /// Fraction of the backup's token buckets available at failure time
    /// (1.0 = fully banked; lower models a backup that recently absorbed
    /// another failure and has not re-earned its credits).
    pub backup_credits_fraction: f64,
}

impl RecoveryConfig {
    /// The Figure 11(a) scenario: 40 kops, 10 GB working set of which 3 GB
    /// is hot, Zipf 1.0 (run as 0.99), all of the hot data on the revoked
    /// spot node.
    pub fn figure11(backup: Option<InstanceType>) -> Self {
        Self {
            theta: 0.99,
            lost_hot_gb: 3.0,
            lost_cold_gb: 0.0,
            hot_mass_lost: 0.9,
            cold_mass_lost: 0.0,
            backup,
            serve_from_backup: false,
            replacement_ready_at: 0,
            horizon_secs: 900,
            backup_credits_fraction: 1.0,
        }
    }
}

/// One timeline sample.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// Seconds since the timeline start.
    pub t: u64,
    /// Average request latency over the step, µs.
    pub avg_us: f64,
    /// 95th-percentile latency over the step, µs.
    pub p95_us: f64,
    /// Fraction of the lost access mass that is warm again.
    pub warmed_mass: f64,
}

/// A simulated recovery.
#[derive(Debug, Clone)]
pub struct RecoveryTimeline {
    /// Per-second samples.
    pub points: Vec<RecoveryPoint>,
    /// First time the average latency returned to within 1.05× of the
    /// healthy baseline (the paper's warm-up completion criterion).
    pub recovered_at: Option<u64>,
    /// The healthy baseline average latency, µs.
    pub healthy_avg_us: f64,
}

impl RecoveryTimeline {
    /// Time-averaged p95 over the whole (fixed) horizon — the paper's
    /// headline "95% latency during failure recovery" summary.
    ///
    /// A fixed window is essential: a slow backup is penalized for the
    /// extra time it spends with a backend-dominated tail, whereas a
    /// per-configuration "until recovered" window would score all
    /// configurations identically (the tail during degradation is always
    /// the backend's).
    pub fn overall_p95(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.p95_us).sum::<f64>() / self.points.len() as f64
    }
}

/// Popularity-binned warm-up tracker over a set of lost items.
#[derive(Debug, Clone, Default)]
struct WarmupModel {
    /// Per-bin access mass relative to the whole workload.
    mass: Vec<f64>,
    /// Per-bin item counts.
    items: Vec<f64>,
    /// Per-bin fraction warmed organically.
    organic: Vec<f64>,
    /// Items copied so far (hottest-first across bins).
    copied_items: f64,
}

impl WarmupModel {
    /// Builds `n_bins` geometric popularity bins over `total_items` items
    /// carrying `total_mass` of the workload's accesses, skewed by `theta`.
    fn new(total_items: f64, total_mass: f64, theta: f64, n_bins: usize) -> Self {
        if total_items < 1.0 || total_mass <= 0.0 {
            return Self::default();
        }
        let model = PopularityModel::new(total_items.ceil() as u64, theta);
        let mut mass = Vec::with_capacity(n_bins);
        let mut items = Vec::with_capacity(n_bins);
        let mut prev_frac = 0.0f64;
        let mut prev_mass = 0.0f64;
        for b in 0..n_bins {
            // Geometric item boundaries emphasize the head.
            let frac = ((b + 1) as f64 / n_bins as f64).powf(3.0);
            let m = model.access_mass(frac);
            mass.push((m - prev_mass).max(0.0) * total_mass);
            items.push(((frac - prev_frac) * total_items).max(0.0));
            prev_frac = frac;
            prev_mass = m;
        }
        Self {
            organic: vec![0.0; mass.len()],
            copied_items: 0.0,
            mass,
            items,
        }
    }

    /// Advances organic fill: items in bin `b` warm at per-item request
    /// rate `total_rate · mass_b / items_b`.
    fn organic_step(&mut self, total_rate: f64, dt: f64) {
        for b in 0..self.mass.len() {
            if self.items[b] < 1e-9 {
                self.organic[b] = 1.0;
                continue;
            }
            let rate = total_rate * (self.mass[b] / self.items[b]);
            self.organic[b] = 1.0 - (1.0 - self.organic[b]) * (-rate * dt).exp();
        }
    }

    /// Warm access mass: fully-copied bins count whole; the bin the copy
    /// frontier is inside counts proportionally; everything else counts its
    /// organic fraction.
    fn warmed_mass(&self) -> f64 {
        let mut warm = 0.0;
        let mut frontier = self.copied_items;
        for b in 0..self.mass.len() {
            let copied_frac = if self.items[b] < 1e-9 {
                1.0
            } else {
                (frontier / self.items[b]).clamp(0.0, 1.0)
            };
            frontier = (frontier - self.items[b]).max(0.0);
            let warm_frac = copied_frac + (1.0 - copied_frac) * self.organic[b];
            warm += self.mass[b] * warm_frac;
        }
        warm
    }

    /// Whether every item has been copied.
    fn fully_copied(&self) -> bool {
        self.copied_items >= self.items.iter().sum::<f64>() - 1e-6
    }
}

/// One lost node's warm-up (Figure 4): the lost hot and cold content, the
/// countdown until the replacement `R` is usable, and the backup's pump,
/// which copies `COPY_ITEMS_PER_VCPU` items per second per vCPU the backup
/// achieves (through its token buckets if it is burstable), capped by what
/// its achieved bandwidth carries.
#[derive(Debug, Clone)]
pub struct Warmup {
    hot: WarmupModel,
    cold: WarmupModel,
    /// Access mass lost, hot and cold.
    lost: [f64; 2],
    /// Seconds until `R` is usable; nothing copies into or refills it
    /// before.
    not_ready_secs: f64,
    /// Whether the backup serves the lost hot reads (Figure 4 events
    /// 4–7), whose refills then bypass the back-end.
    backup_serves: bool,
    /// The backup's type, and its token buckets if it is burstable.
    backup: Option<InstanceType>,
    burst: Option<BurstableState>,
    /// Average vCPUs and Mbps the backup achieved in its last pump step.
    achieved: [f64; 2],
}

impl Warmup {
    /// The warm-up of the lost `hot` and `cold` content, each `(GiB of
    /// items, access mass)`, skewed by `theta` over `bins` popularity
    /// bins. `backup` pumps with fully banked buckets into an `R` usable
    /// after `ready_after` seconds.
    pub fn new(
        hot: (f64, f64),
        cold: (f64, f64),
        theta: f64,
        bins: usize,
        backup: Option<InstanceType>,
        ready_after: u64,
    ) -> Self {
        let items = |gb: f64| gb * (1u64 << 30) as f64 / PROFILE.item_bytes;
        Self {
            hot: WarmupModel::new(items(hot.0), hot.1, theta, bins),
            cold: WarmupModel::new(items(cold.0), cold.1, theta, bins),
            lost: [hot.1, cold.1],
            not_ready_secs: ready_after as f64,
            backup_serves: false,
            burst: backup.as_ref().and_then(BurstableState::for_type),
            backup,
            achieved: [0.0; 2],
        }
    }

    /// A warned loss: the backup pumps through the `secs` of warning.
    pub fn precopy(&mut self, secs: f64) {
        self.hot.copied_items += self.pump(secs);
    }

    /// Advances `dt` seconds at `read_rate` reads per second, and returns
    /// the lost access mass still unwarmed, all of it while `R` is not
    /// usable (then nothing copies or refills). The step copies `copied`
    /// items hottest-first (what [`Warmup::pump_step`] pumped, or a
    /// caller's own rate); then `R` refills organically at the rate the
    /// back-end lets through: misses beyond its `BACKEND_CAPACITY_OPS`
    /// queue rather than install.
    pub fn step(&mut self, copied: f64, read_rate: f64, dt: f64) -> f64 {
        if self.not_ready_secs > 0.0 {
            self.not_ready_secs -= dt;
            return self.lost[0] + self.lost[1];
        }
        self.hot.copied_items += copied;
        let throttle = (BACKEND_CAPACITY_OPS / (self.misses().1 * read_rate)).min(1.0);
        // Backup-served hot reads install into R without touching the
        // back-end, so they fill at full rate.
        let hot_throttle = if self.backup_serves { 1.0 } else { throttle };
        self.hot.organic_step(read_rate * hot_throttle, dt);
        self.cold.organic_step(read_rate * throttle, dt);
        let (backup, backend) = self.misses();
        backup + backend
    }

    /// Warm access mass, hot plus cold.
    pub fn warmed_mass(&self) -> f64 {
        self.hot.warmed_mass() + self.cold.warmed_mass()
    }

    /// Lost access mass not yet warm, as the reads the backup serves and
    /// those that miss to the back-end.
    fn misses(&self) -> (f64, f64) {
        let hot = (self.lost[0] - self.hot.warmed_mass()).max(0.0);
        let cold = (self.lost[1] - self.cold.warmed_mass()).max(0.0);
        if self.backup_serves {
            (hot, cold)
        } else {
            (0.0, hot + cold)
        }
    }

    /// Pumps for `dt` seconds while `R` is usable and hot items remain,
    /// returning the items pumped; idles (`None`), banking tokens,
    /// otherwise.
    pub fn pump_step(&mut self, dt: f64) -> Option<f64> {
        if self.not_ready_secs <= 0.0 && !self.hot.fully_copied() {
            return Some(self.pump(dt));
        }
        if let Some(b) = self.burst.as_mut() {
            b.idle(dt);
        }
        None
    }

    /// Items the backup pumps over `dt` seconds.
    fn pump(&mut self, dt: f64) -> f64 {
        let Some(t) = self.backup else { return 0.0 };
        self.achieved = match self.burst.as_mut() {
            Some(b) => [b.cpu.run(t.vcpus, dt), b.net.transmit(t.net_mbps, dt)],
            None => [t.vcpus, t.net_mbps],
        };
        let [vcpus, net_mbps] = self.achieved;
        (vcpus * COPY_ITEMS_PER_VCPU).min(net_mbps * 1e6 / 8.0 / PROFILE.item_bytes) * dt
    }

    /// Spends all but `fraction` of both buckets' banked tokens at peak
    /// (a backup that recently absorbed another failure).
    fn keep_credits(&mut self, fraction: f64) {
        let (Some(b), Some(s)) = (self.burst.as_mut(), self.backup.and_then(|t| t.burst)) else {
            return;
        };
        let spent = 1.0 - fraction.clamp(0.0, 1.0);
        let cpu_secs = b.cpu.bucket().level * spent / (s.peak_vcpus - s.base_vcpus).max(1e-9);
        b.cpu.run(s.peak_vcpus, cpu_secs);
        let net_secs = b.net.bucket().level * spent / (s.peak_net_mbps - s.base_net_mbps).max(1e-9);
        b.net.transmit(s.peak_net_mbps, net_secs);
    }

    /// Reads per second the backup serves at what its buckets allow now.
    fn serve_capacity(&self) -> f64 {
        match (&self.backup, &self.burst) {
            (Some(_), Some(b)) => {
                let vcpus = b.cpu.bucket().current_rate();
                let net = b.net.bucket().current_rate();
                let cpu_ops = vcpus.min(PROFILE.max_effective_cores) * PROFILE.ops_per_vcpu;
                cpu_ops.min(net * 1e6 / 8.0 / PROFILE.item_bytes)
            }
            (Some(t), None) => PROFILE.capacity_ops(t, false),
            (None, _) => 0.0,
        }
    }
}

/// Samples `samples` reads that miss to the back-end while `miss_rate`
/// reads per second flood it: the lookup's miss penalty plus the
/// back-end's own load-latency curve at its finite capacity.
pub fn sample_backend_misses(
    miss_rate: f64,
    samples: usize,
    rng: &mut StdRng,
    hist: &mut LatencyHistogram,
) {
    let backend = NodeLoad {
        rate: miss_rate,
        capacity: BACKEND_CAPACITY_OPS,
    };
    sample_cluster_latency(&[backend], 0.0, &PROFILE, rng, samples, hist);
}

/// Seconds between `BackupWarmupProgress` journal events in an observed
/// recovery run.
const WARMUP_PROGRESS_EVERY_SECS: u64 = 30;

/// The backup's CPU and network buckets, as observed series name them.
const BUCKETS: [&str; 2] = ["backup_cpu", "backup_net"];

/// Runs the recovery simulation; `obs` and `tracer` instrument it and
/// never change the timeline. `obs` records per-second
/// warmed mass, pump rate, and backup token-bucket levels; timestamps are
/// the timeline's own seconds, so observed runs replay deterministically.
/// With `tracer`, each timeline second emits `recovery.*` spans for the
/// phase that ran — the warm-up copy pump (`warmup_pump`), the idle
/// token-bucket refill (`token_refill`), and the organic fill
/// (`organic_fill`). Span timestamps are the
/// timeline's **logical** seconds; durations are the wall time the phase
/// computation took, so traces overlay cleanly on the control plane's
/// slot clock without perturbing determinism.
pub fn simulate_recovery(
    cfg: &RecoveryConfig,
    obs: Option<&Obs>,
    tracer: Option<&Tracer>,
) -> RecoveryTimeline {
    let trace_phase = |name: &'static str, t: u64, started: std::time::Instant| {
        if let Some(tr) = tracer {
            tr.record_at(
                "recovery",
                name,
                t as f64 * 1e6,
                started.elapsed().as_secs_f64() * 1e6,
            );
        }
    };
    let observers = obs.map(|o| BUCKETS.map(|name| BucketObserver::new(o, name)));
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut rec = Warmup::new(
        (cfg.lost_hot_gb, cfg.hot_mass_lost),
        (cfg.lost_cold_gb, cfg.cold_mass_lost),
        cfg.theta,
        64,
        cfg.backup,
        cfg.replacement_ready_at,
    );
    rec.backup_serves = cfg.serve_from_backup && cfg.backup.is_some();
    rec.keep_credits(cfg.backup_credits_fraction);

    // Healthy baseline: the unaffected portion of the cluster.
    let healthy_capacity = 100_000.0;
    let healthy_node = NodeLoad {
        rate: HEALTHY_UTILIZATION * healthy_capacity,
        capacity: healthy_capacity,
    };
    let healthy_avg_us = {
        let mut h = LatencyHistogram::new();
        sample_cluster_latency(&[healthy_node], 1.0, &PROFILE, &mut rng, 20_000, &mut h);
        h.mean()
    };

    let mut points = Vec::with_capacity(cfg.horizon_secs as usize);
    let mut recovered_at = None;
    let samples_per_step = 1_500usize;

    for t in 0..cfg.horizon_secs {
        // Copy pump (only once R is up and a backup exists).
        let phase_start = std::time::Instant::now();
        let pumped = rec.pump_step(1.0);
        let (copying, pumped) = (pumped.is_some(), pumped.unwrap_or(0.0));
        if let (Some(o), Some(obs), Some(b), Some(itype)) =
            (obs, observers.as_ref(), rec.burst.as_ref(), rec.backup)
        {
            let demand = [itype.vcpus, itype.net_mbps];
            for (i, bucket) in [b.cpu.bucket(), b.net.bucket()].into_iter().enumerate() {
                let (demand, achieved) = (demand[i], rec.achieved[i]);
                if !copying {
                    obs[i].sample_level(bucket);
                } else if obs[i].sample_consume(bucket, demand, achieved) {
                    let bucket = BUCKETS[i].into();
                    o.event(
                        t,
                        EventKind::BucketThrottled {
                            bucket,
                            demand,
                            achieved,
                        },
                    );
                }
            }
        }
        if copying {
            trace_phase("warmup_pump", t, phase_start);
        } else if rec.burst.is_some() {
            trace_phase("token_refill", t, phase_start);
        }

        // Copy, then organic fill (needs R to be up to hold the refills).
        let (r_ready, fill_start) = (rec.not_ready_secs <= 0.0, std::time::Instant::now());
        rec.step(pumped, TOTAL_RATE, 1.0);
        if r_ready {
            trace_phase("organic_fill", t, fill_start);
        }

        // Latency mixture for this step: the healthy cluster, the backup
        // serving at whatever capacity its buckets allow, and misses
        // queueing on the finitely-provisioned back-end (the lookup miss
        // penalty plus the back-end's own load-latency curve under the
        // miss flood).
        let warmed = rec.warmed_mass();
        let healthy_mass = (1.0 - (cfg.hot_mass_lost + cfg.cold_mass_lost)) + warmed;
        let (backup_mass, backend_mass) = rec.misses();
        let mut hist = LatencyHistogram::new();
        let mut sample = |mass: f64, rate: f64, capacity: f64| {
            let (node, n) = (NodeLoad { rate, capacity }, mass * samples_per_step as f64);
            sample_cluster_latency(&[node], 1.0, &PROFILE, &mut rng, n as usize, &mut hist);
        };
        sample(healthy_mass, healthy_node.rate, healthy_node.capacity);
        if backup_mass > 0.0 {
            let capacity = rec.serve_capacity();
            sample(backup_mass, backup_mass * TOTAL_RATE, capacity);
        }
        let misses = (backend_mass * samples_per_step as f64) as usize;
        sample_backend_misses(backend_mass * TOTAL_RATE, misses, &mut rng, &mut hist);

        let avg = hist.mean();
        let p95 = hist.quantile(0.95);
        if recovered_at.is_none() && avg <= 1.05 * healthy_avg_us && t > 0 {
            recovered_at = Some(t);
        }
        if let Some(o) = obs {
            o.gauge("recovery_warmed_mass").set(warmed);
            o.gauge("recovery_pump_items_per_s").set(pumped);
            o.gauge("recovery_avg_us").set(avg);
            o.histogram("recovery_step_avg_us_hist").record(avg);
            // Journal a warm-up progress line periodically and at the
            // moment the run crosses the recovered threshold.
            if t % WARMUP_PROGRESS_EVERY_SECS == 0 || recovered_at == Some(t) {
                o.event(
                    t,
                    EventKind::BackupWarmupProgress {
                        warmed_mass: warmed,
                        pump_items_per_sec: pumped,
                    },
                );
            }
        }
        points.push(RecoveryPoint {
            t,
            avg_us: avg,
            p95_us: p95,
            warmed_mass: warmed,
        });
    }

    RecoveryTimeline {
        points,
        recovered_at,
        healthy_avg_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::catalog::find_type;

    fn run(backup: Option<InstanceType>) -> RecoveryTimeline {
        simulate_recovery(&RecoveryConfig::figure11(backup), None, None)
    }

    #[test]
    fn backup_recovers_faster_than_no_backup() {
        let t2 = run(find_type("t2.medium"));
        let none = run(None);
        let t2_rec = t2
            .recovered_at
            .expect("t2.medium should recover within horizon");
        if let Some(r) = none.recovered_at {
            // (`None` would be even better: never recovered in-horizon.)
            assert!(t2_rec < r / 2, "t2 {t2_rec} vs none {r}");
        }
    }

    #[test]
    fn t2_medium_matches_c3_large_and_beats_m3_medium() {
        // Figure 11(a): t2.medium ≈ c3.large (2 vCPUs each) and clearly
        // better than m3.medium (1 vCPU).
        let t2 = run(find_type("t2.medium"));
        let c3 = run(find_type("c3.large"));
        let m3 = run(find_type("m3.medium"));
        let (t2r, c3r, m3r) = (
            t2.recovered_at.unwrap(),
            c3.recovered_at.unwrap(),
            m3.recovered_at.unwrap(),
        );
        let (t2f, c3f, m3f) = (t2r as f64, c3r as f64, m3r as f64);
        assert!((t2f - c3f).abs() / c3f < 0.25, "t2 {t2r} vs c3 {c3r}");
        assert!(m3f > 1.5 * t2f, "m3 {m3r} vs t2 {t2r}");
    }

    #[test]
    fn copy_time_matches_pump_arithmetic() {
        // 3 GB / 4 KB = 786k items; t2.medium bursts 2 vCPUs → 2600 items/s
        // → ~302 s, the paper's "copying finishes around t = 300".
        let t2 = run(find_type("t2.medium"));
        let r = t2.recovered_at.unwrap();
        assert!((250..=400).contains(&r), "recovered at {r}");
    }

    #[test]
    fn latency_decreases_over_recovery() {
        let t2 = run(find_type("t2.medium"));
        let early = t2.points[5].avg_us;
        let late = t2.points[600].avg_us;
        assert!(early > 2.0 * late, "early {early} vs late {late}");
        // Warm mass is monotone.
        for w in t2.points.windows(2) {
            assert!(w[1].warmed_mass >= w[0].warmed_mass - 1e-9);
        }
    }

    #[test]
    fn no_hot_loss_keeps_latency_flat() {
        // The OD+Spot_Sep case: only cold content lost → tiny impact.
        let mut cfg = RecoveryConfig::figure11(None);
        cfg.hot_mass_lost = 0.0;
        cfg.lost_hot_gb = 0.0;
        cfg.cold_mass_lost = 0.04;
        cfg.lost_cold_gb = 7.0;
        let sep = simulate_recovery(&cfg, None, None);
        let prop_nb = run(None);
        assert!(sep.points[10].avg_us < prop_nb.points[10].avg_us / 2.0);
    }

    #[test]
    fn skew_speeds_up_recovery() {
        // Figure 11(b): more skewed popularity → shorter warm-up (the
        // hottest keys carry more mass, and they are copied first).
        let mut flat = RecoveryConfig::figure11(find_type("t2.medium"));
        flat.theta = 0.5;
        let mut skewed = flat.clone();
        skewed.theta = 2.0;
        let f = simulate_recovery(&flat, None, None)
            .recovered_at
            .unwrap_or(u64::MAX);
        let s = simulate_recovery(&skewed, None, None)
            .recovered_at
            .unwrap_or(u64::MAX);
        assert!(s < f, "skewed {s} vs flat {f}");
    }

    #[test]
    fn serving_from_backup_beats_backend_before_warm() {
        let itype = find_type("t2.medium").unwrap();
        let mut serving = RecoveryConfig::figure11(Some(itype));
        serving.serve_from_backup = true;
        let quiet = RecoveryConfig::figure11(Some(itype));
        let s = simulate_recovery(&serving, None, None);
        let q = simulate_recovery(&quiet, None, None);
        assert!(
            s.points[5].avg_us < q.points[5].avg_us,
            "{} vs {}",
            s.points[5].avg_us,
            q.points[5].avg_us
        );
    }

    #[test]
    fn delayed_replacement_delays_recovery() {
        let itype = find_type("t2.medium").unwrap();
        let mut late = RecoveryConfig::figure11(Some(itype));
        late.replacement_ready_at = 120; // Figure 4 case 2
        let on_time = RecoveryConfig::figure11(Some(itype));
        let l = simulate_recovery(&late, None, None).recovered_at.unwrap();
        let o = simulate_recovery(&on_time, None, None)
            .recovered_at
            .unwrap();
        assert!(l >= o + 100, "late {l} vs on-time {o}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 32, ..Default::default() })]

        /// The warm-up model's warmed mass is monotone non-decreasing and
        /// bounded by the total mass under arbitrary interleavings of
        /// organic fill and copy.
        #[test]
        fn warmup_model_invariants(
            items in 100.0f64..1e6,
            mass in 0.01f64..1.0,
            theta in 0.3f64..2.2,
            steps in proptest::collection::vec((0u8..2, 1.0f64..5e4), 1..60),
        ) {
            use proptest::prelude::*;
            let mut m = WarmupModel::new(items, mass, theta, 32);
            let total: f64 = m.mass.iter().sum();
            prop_assert!((total - mass).abs() < 1e-6);
            let mut prev = m.warmed_mass();
            prop_assert!(prev >= -1e-12);
            for (kind, amount) in steps {
                if kind == 0 {
                    m.organic_step(amount, 1.0);
                } else {
                    m.copied_items += amount;
                }
                let w = m.warmed_mass();
                prop_assert!(w + 1e-9 >= prev, "warmed mass regressed: {prev} -> {w}");
                prop_assert!(w <= total + 1e-9);
                prev = w;
            }
        }
    }

    #[test]
    fn traced_recovery_emits_phase_spans_on_the_logical_clock() {
        let tracer = Tracer::all(8_192);
        let cfg = RecoveryConfig::figure11(find_type("t2.medium"));
        let traced = simulate_recovery(&cfg, None, Some(&tracer));
        let plain = simulate_recovery(&cfg, None, None);
        // Tracing never perturbs the simulation.
        assert_eq!(traced.recovered_at, plain.recovered_at);
        assert_eq!(tracer.categories(), vec!["recovery"]);
        let names: std::collections::BTreeSet<&'static str> =
            tracer.spans().iter().map(|r| r.name).collect();
        for expect in ["warmup_pump", "token_refill", "organic_fill"] {
            assert!(names.contains(expect), "missing {expect:?}: {names:?}");
        }
        // Timestamps are whole logical seconds within the horizon.
        for s in tracer.spans() {
            assert_eq!(s.ts_us % 1e6, 0.0);
            assert!(s.ts_us < cfg.horizon_secs as f64 * 1e6);
        }
        spotcache_obs::export::validate_json(&tracer.chrome_trace_json()).unwrap();
    }

    #[test]
    fn t2_medium_pump_bursts_on_its_credits_then_falls_to_base() {
        // 60 initial credits = 3 600 vCPU·s, spent at 2 − 0.4 vCPU/s: 2 vCPUs
        // × 1 300 items for 2 250 s, then the 0.4 vCPU baseline. The
        // network never binds (its 280 Mbps base carries 8 545 items/s).
        let mut warmup = Warmup::new((4.0, 0.9), (0.0, 0.0), 0.99, 64, find_type("t2.medium"), 0);
        let items: Vec<f64> = (0..2_400).map(|_| warmup.pump(1.0)).collect();
        assert!(items[..2_249].iter().all(|&i| i == 2_600.0));
        let burst: f64 = items[..2_250].iter().sum();
        assert!((burst - 2_600.0 * 2_250.0).abs() < 1e-6, "{burst}");
        // (The bucket's running level carries ~1e-10 of rounding into the
        // first second at base.)
        assert!(items[2_250..].iter().all(|&i| (i - 520.0).abs() < 1e-6));
    }

    #[test]
    fn warned_loss_precopies_the_warning_at_the_burst_rate() {
        let mut warned = Warmup::new((4.0, 0.9), (0.0, 0.0), 2.0, 48, find_type("t2.medium"), 60);
        warned.precopy(120.0);
        assert_eq!(warned.hot.copied_items, 120.0 * 2_600.0);
        // Until R is usable the whole lost mass misses; the pre-copied
        // items count from its first usable step.
        for _ in 0..60 {
            let copied = warned.pump_step(1.0).unwrap_or(0.0);
            assert_eq!(warned.step(copied, 40_000.0, 1.0), warned.lost[0]);
        }
        let copied = warned.pump_step(1.0).unwrap_or(0.0);
        assert!(warned.step(copied, 40_000.0, 1.0) < 0.5 * warned.lost[0]);
        let mut unbacked = Warmup::new((4.0, 0.9), (0.0, 0.0), 2.0, 48, None, 60);
        unbacked.precopy(120.0);
        assert_eq!(unbacked.hot.copied_items, 0.0);
    }

    #[test]
    fn overall_p95_reflects_degradation_ranking() {
        let t2 = run(find_type("t2.medium"));
        let m3 = run(find_type("m3.medium"));
        assert!(t2.overall_p95() < m3.overall_p95());
    }
}
