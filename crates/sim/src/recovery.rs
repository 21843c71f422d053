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
//!   are read from the instance's token buckets each second, so a backup
//!   with depleted credits degrades mid-recovery exactly as on EC2.
//! * **organic fill**: any missed request installs its key into `R`
//!   write-through, so popular keys also warm at the rate they are asked
//!   for (this is the *only* warm-up path for `Prop_NoBackup` and for cold
//!   content).
//!
//! The simulation tracks the warmed access mass over popularity-binned
//! content and reports per-second average and p95 latency over the whole
//! workload.

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
pub const COPY_ITEMS_PER_VCPU: f64 = 1_300.0;

/// Default back-end throughput, ops/sec. The paper provisions its back-end
/// for worst-case *normal* miss traffic; a revocation's miss flood (most of
/// the workload at once) still saturates it, which is precisely why warming
/// through the backup — which bypasses the back-end entirely — matters.
pub const DEFAULT_BACKEND_CAPACITY_OPS: f64 = 10_000.0;

/// Which backup (if any) protects the lost hot content.
#[derive(Debug, Clone)]
pub enum BackupChoice {
    /// No passive backup (`Prop_NoBackup`): everything warms organically.
    None,
    /// A backup on the given instance type (burstable types use their token
    /// buckets; regular types have fixed capacity).
    Instance(InstanceType),
}

/// Recovery scenario configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Performance profile.
    pub profile: LatencyProfile,
    /// Popularity skew of the workload.
    pub theta: f64,
    /// Total workload arrival rate, ops/sec.
    pub total_rate: f64,
    /// Hot data lost with the revoked node, GiB.
    pub lost_hot_gb: f64,
    /// Cold data lost with the revoked node, GiB.
    pub lost_cold_gb: f64,
    /// Fraction of all accesses that target the lost hot content.
    pub hot_mass_lost: f64,
    /// Fraction of all accesses that target the lost cold content.
    pub cold_mass_lost: f64,
    /// Backup configuration.
    pub backup: BackupChoice,
    /// Whether the backup also serves reads while warming `R` (Figure 4
    /// events 4–7) or only pumps (events 6′–7′).
    pub serve_from_backup: bool,
    /// When `R` becomes usable, seconds relative to the start of the
    /// timeline (0 = copy/serve starts immediately — the paper's Figure 11
    /// convention where t=0 is "replacement ready").
    pub replacement_ready_at: u64,
    /// Simulation horizon, seconds.
    pub horizon_secs: u64,
    /// Healthy-cluster utilization (sets the baseline latency level).
    pub healthy_utilization: f64,
    /// Back-end database throughput, ops/sec: misses beyond this rate queue.
    pub backend_capacity_ops: f64,
    /// Fraction of the backup's token buckets available at failure time
    /// (1.0 = fully banked; lower models a backup that recently absorbed
    /// another failure and has not re-earned its credits).
    pub backup_credits_fraction: f64,
    /// RNG seed for latency sampling.
    pub seed: u64,
}

impl RecoveryConfig {
    /// The Figure 11(a) scenario: 40 kops, 10 GB working set of which 3 GB
    /// is hot, Zipf 1.0 (run as 0.99), all of the hot data on the revoked
    /// spot node.
    pub fn figure11(backup: BackupChoice) -> Self {
        Self {
            profile: LatencyProfile::paper_default(),
            theta: 0.99,
            total_rate: 40_000.0,
            lost_hot_gb: 3.0,
            lost_cold_gb: 0.0,
            hot_mass_lost: 0.9,
            cold_mass_lost: 0.0,
            backup,
            serve_from_backup: false,
            replacement_ready_at: 0,
            horizon_secs: 900,
            healthy_utilization: 0.5,
            backend_capacity_ops: DEFAULT_BACKEND_CAPACITY_OPS,
            backup_credits_fraction: 1.0,
            seed: 0xF1_611,
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
///
/// Public so higher layers (the prototype emulator) can model organic
/// cache refill and hottest-first copy without re-deriving the math.
#[derive(Debug, Clone)]
pub struct WarmupModel {
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
    /// Builds `n_bins` geometric popularity bins over `total_items` items
    /// carrying `total_mass` of the workload's accesses, skewed by `theta`.
    pub fn new(total_items: f64, total_mass: f64, theta: f64, n_bins: usize) -> Self {
        if total_items < 1.0 || total_mass <= 0.0 {
            return Self {
                mass: vec![],
                items: vec![],
                organic: vec![],
                copied_items: 0.0,
            };
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

    /// Total access mass this model covers.
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Advances organic fill: items in bin `b` warm at per-item request
    /// rate `total_rate · mass_b / items_b`.
    pub fn organic_step(&mut self, total_rate: f64, dt: f64) {
        for b in 0..self.mass.len() {
            if self.items[b] < 1e-9 {
                self.organic[b] = 1.0;
                continue;
            }
            let rate = total_rate * (self.mass[b] / self.items[b]);
            self.organic[b] = 1.0 - (1.0 - self.organic[b]) * (-rate * dt).exp();
        }
    }

    /// Advances the hottest-first copy by `items` items.
    pub fn copy_step(&mut self, items: f64) {
        self.copied_items += items;
    }

    /// Warm access mass: fully-copied bins count whole; the bin the copy
    /// frontier is inside counts proportionally; everything else counts its
    /// organic fraction.
    pub fn warmed_mass(&self) -> f64 {
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
    pub fn fully_copied(&self) -> bool {
        self.copied_items >= self.items.iter().sum::<f64>() - 1e-6
    }
}

/// Seconds between `BackupWarmupProgress` journal events in an observed
/// recovery run.
const WARMUP_PROGRESS_EVERY_SECS: u64 = 30;

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
    let observers = obs.map(|o| {
        (
            BucketObserver::new(o, "backup_cpu"),
            BucketObserver::new(o, "backup_net"),
        )
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let item_bytes = cfg.profile.item_bytes;
    let hot_items = cfg.lost_hot_gb * (1u64 << 30) as f64 / item_bytes;
    let cold_items = cfg.lost_cold_gb * (1u64 << 30) as f64 / item_bytes;
    let mut hot = WarmupModel::new(hot_items, cfg.hot_mass_lost, cfg.theta, 64);
    let mut cold = WarmupModel::new(cold_items, cfg.cold_mass_lost, cfg.theta, 64);

    let mut burst = match &cfg.backup {
        BackupChoice::Instance(t) => BurstableState::for_type(t).map(|mut b| {
            let f = cfg.backup_credits_fraction.clamp(0.0, 1.0);
            // Scale both buckets' banked tokens.
            let cpu_deficit = b.cpu.bucket().level * (1.0 - f);
            b.cpu.run(
                t.burst.map_or(0.0, |s| s.peak_vcpus),
                cpu_deficit.max(0.0)
                    / (t.burst
                        .map_or(1.0, |s| (s.peak_vcpus - s.base_vcpus).max(1e-9))),
            );
            let net_deficit = b.net.bucket().level * (1.0 - f);
            b.net.transmit(
                t.burst.map_or(0.0, |s| s.peak_net_mbps),
                net_deficit.max(0.0)
                    / (t.burst
                        .map_or(1.0, |s| (s.peak_net_mbps - s.base_net_mbps).max(1e-9))),
            );
            b
        }),
        BackupChoice::None => None,
    };

    // Healthy baseline: the unaffected portion of the cluster.
    let healthy_capacity = 100_000.0;
    let healthy_node = NodeLoad {
        rate: cfg.healthy_utilization * healthy_capacity,
        capacity: healthy_capacity,
    };
    let healthy_avg_us = {
        let mut h = LatencyHistogram::new();
        sample_cluster_latency(&[healthy_node], 1.0, &cfg.profile, &mut rng, 20_000, &mut h);
        h.mean()
    };

    let mut points = Vec::with_capacity(cfg.horizon_secs as usize);
    let mut recovered_at = None;
    let samples_per_step = 1_500usize;

    for t in 0..cfg.horizon_secs {
        let r_ready = t >= cfg.replacement_ready_at;

        // Copy pump (only once R is up and a backup exists).
        let mut pump_items_per_sec = 0.0;
        let phase_start = std::time::Instant::now();
        if r_ready && !hot.fully_copied() {
            match &cfg.backup {
                BackupChoice::None => {}
                BackupChoice::Instance(itype) => {
                    let (vcpus, net_mbps) = match burst.as_mut() {
                        Some(b) => {
                            let v = b.cpu.run(itype.vcpus, 1.0);
                            let n = b.net.transmit(itype.net_mbps, 1.0);
                            if let (Some(o), Some((cpu_ob, net_ob))) = (obs, observers.as_ref()) {
                                cpu_ob.sample_consume(b.cpu.bucket(), itype.vcpus, v);
                                net_ob.sample_consume(b.net.bucket(), itype.net_mbps, n);
                                if cpu_ob.throttled(b.cpu.bucket(), itype.vcpus, v) {
                                    o.event(
                                        t,
                                        EventKind::BucketThrottled {
                                            bucket: "backup_cpu".into(),
                                            demand: itype.vcpus,
                                            achieved: v,
                                        },
                                    );
                                }
                                if net_ob.throttled(b.net.bucket(), itype.net_mbps, n) {
                                    o.event(
                                        t,
                                        EventKind::BucketThrottled {
                                            bucket: "backup_net".into(),
                                            demand: itype.net_mbps,
                                            achieved: n,
                                        },
                                    );
                                }
                            }
                            (v, n)
                        }
                        None => (itype.vcpus, itype.net_mbps),
                    };
                    let cpu_items = vcpus * COPY_ITEMS_PER_VCPU;
                    let net_items = net_mbps * 1e6 / 8.0 / item_bytes;
                    pump_items_per_sec = cpu_items.min(net_items);
                    hot.copy_step(pump_items_per_sec);
                }
            }
            trace_phase("warmup_pump", t, phase_start);
        } else if let Some(b) = burst.as_mut() {
            b.idle(1.0);
            if let Some((cpu_ob, net_ob)) = observers.as_ref() {
                cpu_ob.sample_level(b.cpu.bucket());
                net_ob.sample_level(b.net.bucket());
            }
            trace_phase("token_refill", t, phase_start);
        }

        // Organic fill (needs R to be up to hold the refills) is throttled
        // by the back-end: misses beyond its capacity queue rather than
        // install new items.
        if r_ready {
            let backup_serves =
                cfg.serve_from_backup && matches!(cfg.backup, BackupChoice::Instance(_));
            let hot_unwarm_now = (cfg.hot_mass_lost - hot.warmed_mass()).max(0.0);
            let cold_unwarm_now = (cfg.cold_mass_lost - cold.warmed_mass()).max(0.0);
            let backend_demand_mass = if backup_serves {
                cold_unwarm_now
            } else {
                hot_unwarm_now + cold_unwarm_now
            };
            let demand = backend_demand_mass * cfg.total_rate;
            let throttle = if demand > cfg.backend_capacity_ops && demand > 0.0 {
                cfg.backend_capacity_ops / demand
            } else {
                1.0
            };
            // Backup-served hot reads install into R without touching the
            // back-end, so they fill at full rate.
            let fill_start = std::time::Instant::now();
            hot.organic_step(
                cfg.total_rate * if backup_serves { 1.0 } else { throttle },
                1.0,
            );
            cold.organic_step(cfg.total_rate * throttle, 1.0);
            trace_phase("organic_fill", t, fill_start);
        }

        let hot_warm = hot.warmed_mass();
        let cold_warm = cold.warmed_mass();
        let warmed = hot_warm + cold_warm;
        let lost_total = cfg.hot_mass_lost + cfg.cold_mass_lost;

        // Latency mixture for this step.
        let mut hist = LatencyHistogram::new();
        let healthy_mass = (1.0 - lost_total) + warmed;
        let backup_serves =
            cfg.serve_from_backup && matches!(cfg.backup, BackupChoice::Instance(_));
        let cold_miss_mass = (cfg.cold_mass_lost - cold_warm).max(0.0);
        let hot_unwarm = (cfg.hot_mass_lost - hot_warm).max(0.0);
        let (backup_mass, backend_mass) = if backup_serves {
            (hot_unwarm, cold_miss_mass)
        } else {
            (0.0, hot_unwarm + cold_miss_mass)
        };

        let n = |mass: f64| ((mass / 1.0) * samples_per_step as f64) as usize;
        sample_cluster_latency(
            &[healthy_node],
            1.0,
            &cfg.profile,
            &mut rng,
            n(healthy_mass),
            &mut hist,
        );
        if backup_mass > 0.0 {
            // The backup serves at whatever capacity its buckets allow.
            let cap = match (&cfg.backup, burst.as_ref()) {
                (BackupChoice::Instance(t), Some(b)) => {
                    let vcpus = b.cpu.bucket().current_rate();
                    let net = b.net.bucket().current_rate();
                    let cpu_ops =
                        vcpus.min(cfg.profile.max_effective_cores) * cfg.profile.ops_per_vcpu;
                    let net_ops = net * 1e6 / 8.0 / item_bytes;
                    let _ = t;
                    cpu_ops.min(net_ops)
                }
                (BackupChoice::Instance(t), None) => cfg.profile.capacity_ops(t, false),
                _ => 0.0,
            };
            let node = NodeLoad {
                rate: backup_mass * cfg.total_rate,
                capacity: cap,
            };
            sample_cluster_latency(
                &[node],
                1.0,
                &cfg.profile,
                &mut rng,
                n(backup_mass),
                &mut hist,
            );
        }
        if backend_mass > 0.0 {
            // Misses queue on the finitely-provisioned back-end: the
            // lookup miss penalty plus the back-end's own load-latency
            // curve under the miss flood.
            let backend_node = NodeLoad {
                rate: backend_mass * cfg.total_rate,
                capacity: cfg.backend_capacity_ops,
            };
            sample_cluster_latency(
                &[backend_node],
                0.0,
                &cfg.profile,
                &mut rng,
                n(backend_mass),
                &mut hist,
            );
        }

        let avg = hist.mean();
        let p95 = hist.quantile(0.95);
        if recovered_at.is_none() && avg <= 1.05 * healthy_avg_us && t > 0 {
            recovered_at = Some(t);
        }
        if let Some(o) = obs {
            o.gauge("recovery_warmed_mass").set(warmed);
            o.gauge("recovery_pump_items_per_s").set(pump_items_per_sec);
            o.gauge("recovery_avg_us").set(avg);
            o.histogram("recovery_step_avg_us_hist").record(avg);
            // Journal a warm-up progress line periodically and at the
            // moment the run crosses the recovered threshold.
            if t % WARMUP_PROGRESS_EVERY_SECS == 0 || recovered_at == Some(t) {
                o.event(
                    t,
                    EventKind::BackupWarmupProgress {
                        warmed_mass: warmed,
                        pump_items_per_sec,
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

    fn run(backup: BackupChoice) -> RecoveryTimeline {
        simulate_recovery(&RecoveryConfig::figure11(backup), None, None)
    }

    #[test]
    fn backup_recovers_faster_than_no_backup() {
        let t2 = run(BackupChoice::Instance(find_type("t2.medium").unwrap()));
        let none = run(BackupChoice::None);
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
        let t2 = run(BackupChoice::Instance(find_type("t2.medium").unwrap()));
        let c3 = run(BackupChoice::Instance(find_type("c3.large").unwrap()));
        let m3 = run(BackupChoice::Instance(find_type("m3.medium").unwrap()));
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
        let t2 = run(BackupChoice::Instance(find_type("t2.medium").unwrap()));
        let r = t2.recovered_at.unwrap();
        assert!((250..=400).contains(&r), "recovered at {r}");
    }

    #[test]
    fn latency_decreases_over_recovery() {
        let t2 = run(BackupChoice::Instance(find_type("t2.medium").unwrap()));
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
        let mut cfg = RecoveryConfig::figure11(BackupChoice::None);
        cfg.hot_mass_lost = 0.0;
        cfg.lost_hot_gb = 0.0;
        cfg.cold_mass_lost = 0.04;
        cfg.lost_cold_gb = 7.0;
        let sep = simulate_recovery(&cfg, None, None);
        let prop_nb = run(BackupChoice::None);
        assert!(sep.points[10].avg_us < prop_nb.points[10].avg_us / 2.0);
    }

    #[test]
    fn skew_speeds_up_recovery() {
        // Figure 11(b): more skewed popularity → shorter warm-up (the
        // hottest keys carry more mass, and they are copied first).
        let mut flat =
            RecoveryConfig::figure11(BackupChoice::Instance(find_type("t2.medium").unwrap()));
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
        let mut serving = RecoveryConfig::figure11(BackupChoice::Instance(itype));
        serving.serve_from_backup = true;
        let quiet = RecoveryConfig::figure11(BackupChoice::Instance(itype));
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
        let mut late = RecoveryConfig::figure11(BackupChoice::Instance(itype));
        late.replacement_ready_at = 120; // Figure 4 case 2
        let on_time = RecoveryConfig::figure11(BackupChoice::Instance(itype));
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
            prop_assert!((m.total_mass() - mass).abs() < 1e-6);
            let mut prev = m.warmed_mass();
            prop_assert!(prev >= -1e-12);
            for (kind, amount) in steps {
                if kind == 0 {
                    m.organic_step(amount, 1.0);
                } else {
                    m.copy_step(amount);
                }
                let w = m.warmed_mass();
                prop_assert!(w + 1e-9 >= prev, "warmed mass regressed: {prev} -> {w}");
                prop_assert!(w <= m.total_mass() + 1e-9);
                prev = w;
            }
        }
    }

    #[test]
    fn traced_recovery_emits_phase_spans_on_the_logical_clock() {
        let tracer = Tracer::all(8_192);
        let cfg = RecoveryConfig::figure11(BackupChoice::Instance(find_type("t2.medium").unwrap()));
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
    fn overall_p95_reflects_degradation_ranking() {
        let t2 = run(BackupChoice::Instance(find_type("t2.medium").unwrap()));
        let m3 = run(BackupChoice::Instance(find_type("m3.medium").unwrap()));
        assert!(t2.overall_p95() < m3.overall_p95());
    }
}
