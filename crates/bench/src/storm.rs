//! Fleet-scale correlated-churn engine: the machinery behind the
//! `storm_drill` bin.
//!
//! Where `revocation_drill` exercises ONE node's death in isolation,
//! this module spins up a whole fleet of real reactor-backed
//! [`CacheServer`]s behind the router hashring and replays *correlated
//! revocation storms* against it — a configurable fraction of the ring
//! killed within a configurable spread, warned or unwarned, optionally
//! with a second spike landing on the survivors mid-recovery. Per
//! window it records the decay curves an operator would watch during a
//! real storm (fresh-hit rate, served rate, stale fraction, SLO burn,
//! simultaneously-degraded router count) into strictly-monotone
//! [`DecaySeries`], plus [`StormDetector`] trigger latency and
//! [`BreachTracker`] burn-breach intervals.
//!
//! The storm timeline comes from [`crate::faults::schedule_storm`]: the
//! kill-set is a contiguous hashring arc (correlated placement), kill
//! times pack into the spread, restarts carry decorrelated jitter.
//!
//! # The freshness SLO
//!
//! Unlike `revocation_drill`'s availability SLO (a read is good if
//! *any* tier answers), the storm suite's [`SloWindow`] scores
//! **freshness**: only a primary or replacement answer is good; a
//! stale-from-backup answer burns error budget just like a miss. That
//! is deliberate — in a fleet-wide storm availability barely moves
//! (backups keep answering), so freshness is the signal that actually
//! decays and recovers, and the one whose burn rate must not breach
//! before the storm detector has fired.

use crate::faults::{schedule_storm, StormEvent, StormSpec};
use crate::live::{prefill_hot, read_window, start_server, RoutedTiers, Tier};
use rand::{rngs::StdRng, SeedableRng};
use spotcache_cache::server::CacheServer;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::{BreachTracker, DecaySeries, Obs, SloWindow, StormDetector};
use spotcache_recovery::replay::{pump_hot_set, WarmupConfig, WarmupReport};
use spotcache_router::degraded::{DegradedRouter, DrillPhase, RecoveryMode, ServeTarget};
use spotcache_router::hashring::{HashRing, NodeId};
use spotcache_workload::zipf::ScrambledZipfian;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes per cached value.
pub const VALUE_LEN: usize = 64;

/// Fleet- and timing-shape of a storm run; scenario-independent.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Fleet size (ring nodes, each a live server).
    pub nodes: usize,
    /// Total hot keys, spread over the ring as `h0..h{key_space}`.
    pub key_space: u64,
    /// Zipf skew over the key space.
    pub theta: f64,
    /// Reads issued per driver window.
    pub ops_per_window: usize,
    /// Wall-clock length of one driver window.
    pub window: Duration,
    /// Healthy windows before the storm lead-in (baseline measurement).
    pub steady_windows: u64,
    /// Extra windows between steady state and the first possible kill;
    /// must be ≥ `warning_windows` so a warned storm's notices land
    /// after the baseline. Kills start at `steady_windows + storm_lead`
    /// for every scenario, warned or not — identical timelines are what
    /// make the warned ≤ unwarned comparison meaningful.
    pub storm_lead: u64,
    /// Windows observed past the last scheduled event.
    pub observe_windows: u64,
    /// Advance notice, in windows, for warned scenarios.
    pub warning_windows: u64,
    /// Windows over which one wave's kills spread.
    pub spread: u64,
    /// Base kill-to-replacement delay for unwarned recovery.
    pub restart_delay: u64,
    /// Per-node decorrelation of restart delays (fraction, ±).
    pub restart_jitter: f64,
    /// Windows between a cascade's first and second spike.
    pub cascade_delay: u64,
    /// Freshness-SLO target ζ (good = fresh-tier answer).
    pub slo_target: f64,
    /// SLO window capacity as a multiple of `ops_per_window`.
    pub slo_window_factor: usize,
    /// Storm-detector trailing window, in driver windows.
    pub detector_window: u64,
    /// Revocations within the detector window that flag a storm.
    pub detector_threshold: u64,
    /// Recovery = fresh rate back above this fraction of steady state.
    pub recovery_fraction: f64,
    /// Replacement warm-up pacing.
    pub pump: WarmupConfig,
    /// Per-node store capacity.
    pub store_bytes: usize,
    /// Per-node store shard count.
    pub store_shards: usize,
    /// Base RNG seed; each scenario folds in its salt.
    pub seed: u64,
}

/// One storm scenario: which fraction dies, with how much notice, and
/// whether a second spike follows.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable scenario name (JSON key, metric prefix).
    pub name: &'static str,
    /// Fraction of the ring revoked by the first wave.
    pub kill_frac: f64,
    /// Whether the rebalance warning fires before each kill.
    pub warned: bool,
    /// Whether a second, unwarned spike hits the survivors
    /// `cascade_delay` windows after the first.
    pub cascade: bool,
    /// Seed salt: scenarios sharing a salt face the *same* kill-set and
    /// kill times (see [`crate::faults::schedule_storm`]).
    pub salt: u64,
}

/// The four scenarios the checked-in `BENCH_storm.json` carries.
///
/// `warned` and `unwarned` share a salt so they face the identical
/// storm — the pair behind the warned ≤ unwarned recovery-ordering
/// invariant. `cascade` adds a second spike mid-recovery;
/// `multi_router_degraded` doubles the kill fraction so several
/// routers sit in `Degraded` simultaneously.
pub fn default_scenarios() -> [Scenario; 4] {
    [
        Scenario {
            name: "warned",
            kill_frac: 0.33,
            warned: true,
            cascade: false,
            salt: 0xA1,
        },
        Scenario {
            name: "unwarned",
            kill_frac: 0.33,
            warned: false,
            cascade: false,
            salt: 0xA1,
        },
        Scenario {
            name: "cascade",
            kill_frac: 0.33,
            warned: false,
            cascade: true,
            salt: 0xB2,
        },
        Scenario {
            name: "multi_router_degraded",
            kill_frac: 0.50,
            warned: false,
            cascade: false,
            salt: 0xC3,
        },
    ]
}

/// Everything one scenario run measured.
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Whether warnings preceded the kills.
    pub warned: bool,
    /// Whether a second spike was scheduled.
    pub cascade: bool,
    /// Victims, in kill order (cascade waves concatenated).
    pub killed: Vec<NodeId>,
    /// Window of each kill, aligned with `killed`.
    pub kill_windows: Vec<u64>,
    /// Window of each replacement launch, aligned with `killed`.
    pub restart_windows: Vec<u64>,
    /// Window of the final kill (recovery is measured from here).
    pub last_kill: u64,
    /// Mean fresh-hit rate over the steady (pre-storm) windows.
    pub steady_fresh: f64,
    /// Mean fresh-hit rate over the final five windows.
    pub final_fresh: f64,
    /// Windows from the last kill until the fresh rate re-crossed
    /// `recovery_fraction × steady_fresh`; `None` = never recovered.
    pub recovery_windows: Option<u64>,
    /// Window in which the storm detector latched its trigger.
    pub trigger_window: Option<u64>,
    /// Detector trigger latency, in windows, from burst onset.
    pub trigger_latency: Option<u64>,
    /// Burn-rate breach intervals `[start, end)`; `None` end = still
    /// breaching when the run ended.
    pub breaches: Vec<(u64, Option<u64>)>,
    /// Most routers simultaneously in the `Degraded` phase.
    pub max_degraded: usize,
    /// Items the warm-up pumps moved, all replacements summed.
    pub pumped_items: usize,
    /// Fresh-hit rate per window (the freshness decay curve).
    pub fresh: DecaySeries,
    /// Served (fresh + stale) rate per window (the hit-rate curve).
    pub served: DecaySeries,
    /// Stale-from-backup rate per window.
    pub stale: DecaySeries,
    /// Freshness-SLO burn rate per window.
    pub burn: DecaySeries,
    /// Routers in `Degraded` per window.
    pub degraded: DecaySeries,
}

/// A replacement instance being warmed for one dead primary.
struct Replacement {
    srv: CacheServer,
    pump: Option<JoinHandle<std::io::Result<WarmupReport>>>,
}

/// One ring slot: a primary server, its passive backup, its router with
/// a client per serve tier, and (once the storm hits) its replacement.
struct FleetNode {
    tiers: RoutedTiers,
    backup: Arc<Store>,
    primary_srv: Option<CacheServer>,
    replacement: Option<Replacement>,
    /// Pump finished before the kill (warned pre-warm): the router can
    /// jump straight to `Warmed` at revocation time.
    prewarmed: bool,
    pumped: usize,
}

impl FleetNode {
    /// Launches the replacement server and starts pumping the backup's
    /// hot set into it. Idempotent: a node warned *and* scheduled for
    /// restart warms only once.
    fn launch_replacement(&mut self, cfg: &StormConfig, obs: &Arc<Obs>) {
        if self.replacement.is_some() {
            return;
        }
        let store = Arc::new(Store::new(StoreConfig {
            capacity_bytes: cfg.store_bytes,
            shards: cfg.store_shards,
        }));
        let srv = start_server(&store, Some(obs), None);
        let addr = srv.addr();
        self.tiers
            .set_tier(ServeTarget::Replacement, Tier::Remote(addr));
        let backup = Arc::clone(&self.backup);
        let pump_cfg = cfg.pump.clone();
        let pump_obs = Arc::clone(obs);
        let pump = std::thread::Builder::new()
            .name("storm-pump".into())
            .spawn(move || pump_hot_set(&backup, addr, 0, &pump_cfg, Some(&pump_obs), None))
            .expect("spawn warm-up pump");
        self.replacement = Some(Replacement {
            srv,
            pump: Some(pump),
        });
    }

    /// Collects a finished pump, advancing the router when the node is
    /// already degraded (a pre-warm that finishes before the kill only
    /// *arms* the cut-over; `Warmed` is never entered while the primary
    /// still serves).
    fn poll_pump(&mut self) {
        let done = self
            .replacement
            .as_ref()
            .is_some_and(|r| r.pump.as_ref().is_some_and(|h| h.is_finished()));
        if !done {
            return;
        }
        let rep = self.replacement.as_mut().expect("checked above");
        if let Some(handle) = rep.pump.take() {
            if let Ok(Ok(report)) = handle.join() {
                self.pumped += report.items_pumped;
            }
            if self.tiers.router.phase() == DrillPhase::Degraded {
                self.tiers.router.on_warmed();
            } else {
                self.prewarmed = true;
            }
        }
    }
}

/// Runs one scenario against a fresh fleet and tears it down.
///
/// Per-scenario gauges land in `obs` under `storm_<name>_*`
/// (`recovery_windows`, `trigger_latency_windows`, `max_degraded`),
/// and every revocation bumps `storm_kills_total`.
pub fn run_scenario(cfg: &StormConfig, sc: &Scenario, obs: &Arc<Obs>) -> ScenarioResult {
    let store_cfg = StoreConfig {
        capacity_bytes: cfg.store_bytes,
        shards: cfg.store_shards,
    };
    let weights: Vec<(NodeId, f64)> = (0..cfg.nodes as NodeId).map(|i| (i, 1.0)).collect();
    let ring = HashRing::build(&weights);

    // Key ownership is fixed for the whole run: the storm suite measures
    // serve-path decay, not rebalancing, so dead nodes keep their arcs
    // and their replacements inherit them.
    let owner_of: Vec<usize> = (0..cfg.key_space)
        .map(|kid| {
            ring.lookup(format!("h{kid}").as_bytes())
                .expect("non-empty ring") as usize
        })
        .collect();

    // Prefill every node's primary AND its backup with the node's owned
    // keys, through the protocol parser so values carry the wire framing
    // the warm-up pump's replication framing round-trips.
    let value = "x".repeat(VALUE_LEN);
    let mut nodes: Vec<FleetNode> = Vec::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes {
        let primary = Arc::new(Store::new(store_cfg));
        let backup = Arc::new(Store::new(store_cfg));
        for store in [&primary, &backup] {
            let owned = (0..cfg.key_space).filter(|&kid| owner_of[kid as usize] == i);
            prefill_hot(store, "h", owned, VALUE_LEN);
        }
        let srv = start_server(&primary, Some(obs), None);
        let router = Arc::new(DegradedRouter::new());
        router.set_mode(RecoveryMode::Replay);
        let mut tiers = RoutedTiers::new(router, None);
        tiers.set_tier(ServeTarget::Primary, Tier::Remote(srv.addr()));
        tiers.set_tier(ServeTarget::BackupStale, Tier::Local(Arc::clone(&backup)));
        nodes.push(FleetNode {
            tiers,
            backup,
            primary_srv: Some(srv),
            replacement: None,
            prewarmed: false,
            pumped: 0,
        });
    }

    // Storm timeline. The start window is warning-independent so a
    // warned and an unwarned run from the same salt revoke identically.
    let mut sched_rng = StdRng::seed_from_u64(cfg.seed ^ sc.salt);
    let start = cfg.steady_windows + cfg.storm_lead;
    let spec = StormSpec {
        kill_frac: sc.kill_frac,
        start,
        spread: cfg.spread,
        warning: sc.warned.then_some(cfg.warning_windows),
        restart_delay: cfg.restart_delay,
        restart_jitter: cfg.restart_jitter,
    };
    let wave1 = schedule_storm(&ring, &[], &spec, &mut sched_rng);
    let mut events: Vec<StormEvent> = wave1.events.clone();
    if sc.cascade {
        let second = StormSpec {
            start: start + cfg.cascade_delay,
            warning: None, // the second spike always lands unwarned
            ..spec
        };
        let wave2 = schedule_storm(&ring, &wave1.nodes(), &second, &mut sched_rng);
        events.extend(wave2.events);
    }
    assert!(!events.is_empty(), "a storm must kill someone");
    let last_kill = events.iter().map(|e| e.kill_at).max().expect("non-empty");
    let horizon = events
        .iter()
        .map(|e| e.restart_at)
        .max()
        .expect("non-empty");
    let total_windows = horizon + cfg.observe_windows;

    let detector = StormDetector::new(cfg.detector_window, cfg.detector_threshold);
    let slo = SloWindow::new(cfg.slo_target, cfg.slo_window_factor * cfg.ops_per_window);
    let breach = BreachTracker::new(1.0);
    let fresh = DecaySeries::new();
    let served = DecaySeries::new();
    let stale = DecaySeries::new();
    let burn = DecaySeries::new();
    let degraded = DecaySeries::new();
    let kills_total = obs.counter("storm_kills_total");

    let zipf = ScrambledZipfian::new(cfg.key_space, cfg.theta);
    let mut ops_rng = StdRng::seed_from_u64(cfg.seed ^ sc.salt ^ 0x5707_11d3);
    let mut kill_windows = Vec::new();
    let mut restart_windows = Vec::new();
    let mut killed_order = Vec::new();
    let mut max_degraded = 0usize;

    for w in 0..total_windows {
        let deadline = Instant::now() + cfg.window;
        // 1. Warnings: phase to Warning and start the pre-warm.
        for e in events.iter().filter(|e| e.warn_at == Some(w)) {
            let node = &mut nodes[e.node as usize];
            node.tiers.router.on_warning();
            node.launch_replacement(cfg, obs);
        }
        // 2. Kills: stop the real server, degrade the router, feed the
        //    detector. A pre-warmed node cuts over immediately.
        for e in events.iter().filter(|e| e.kill_at == w) {
            let node = &mut nodes[e.node as usize];
            if let Some(mut srv) = node.primary_srv.take() {
                srv.stop();
            }
            node.tiers.set_tier(ServeTarget::Primary, Tier::Absent);
            node.tiers.router.on_revoked();
            if node.prewarmed {
                node.tiers.router.on_warmed();
            }
            detector.record(w, 1);
            kills_total.inc();
            killed_order.push(e.node);
            kill_windows.push(w);
            restart_windows.push(e.warn_at.unwrap_or(e.restart_at));
        }
        // 3. Unwarned restarts: replacement + pump only start now.
        for e in events.iter().filter(|e| e.restart_at == w) {
            nodes[e.node as usize].launch_replacement(cfg, obs);
        }
        // 4. Finished pumps advance their routers.
        for node in nodes.iter_mut() {
            node.poll_pump();
        }
        // 5. One window of Zipf reads through each owner's read plan,
        //    write-through-refilling misses at the write target. Only a
        //    primary or replacement answer is good for the freshness SLO:
        //    a stale serve burns budget just like a miss.
        let tally = read_window(
            &mut nodes,
            |node| &mut node.tiers,
            cfg.ops_per_window,
            || {
                let kid = zipf.sample(&mut ops_rng);
                (owner_of[kid as usize], format!("h{kid}"))
            },
            value.as_bytes(),
            |answered| {
                slo.record(matches!(
                    answered,
                    Some(ServeTarget::Primary | ServeTarget::Replacement)
                ))
            },
            deadline,
        );
        // 6. Close the window: decay curves, burn breaches, degraded
        //    census.
        let n = cfg.ops_per_window as f64;
        fresh.push(w, tally.fresh as f64 / n);
        stale.push(w, tally.stale as f64 / n);
        served.push(w, (tally.fresh + tally.stale) as f64 / n);
        let rate = slo.burn_rate();
        burn.push(w, rate.min(1e6)); // saturated burn stays JSON-finite
        breach.observe(w, rate);
        let deg = nodes
            .iter()
            .filter(|nd| nd.tiers.router.phase() == DrillPhase::Degraded)
            .count();
        degraded.push(w, deg as f64);
        max_degraded = max_degraded.max(deg);
    }

    // Tear-down: collect stragglers, stop every live server.
    let mut pumped = 0usize;
    for node in nodes.iter_mut() {
        if let Some(rep) = node.replacement.as_mut() {
            if let Some(handle) = rep.pump.take() {
                if let Ok(Ok(report)) = handle.join() {
                    node.pumped += report.items_pumped;
                }
            }
        }
        pumped += node.pumped;
        if let Some(mut srv) = node.primary_srv.take() {
            srv.stop();
        }
        if let Some(mut rep) = node.replacement.take() {
            rep.srv.stop();
        }
    }

    let mean = |pts: &[(u64, f64)]| {
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
        }
    };
    let points = fresh.points();
    let steady_fresh = mean(&points[..(cfg.steady_windows as usize).min(points.len())]);
    let final_fresh = mean(&points[points.len().saturating_sub(5)..]);
    let recovery_windows = fresh
        .first_at_or_above(last_kill, cfg.recovery_fraction * steady_fresh)
        .map(|t| t - last_kill + 1);
    let trigger_window = detector.triggered_at();
    let trigger_latency = detector.trigger_latency();

    let g = |suffix: &str| obs.gauge(&format!("storm_{}_{suffix}", sc.name));
    g("recovery_windows").set(recovery_windows.map_or(-1.0, |w| w as f64));
    g("trigger_latency_windows").set(trigger_latency.map_or(-1.0, |l| l as f64));
    g("max_degraded_routers").set(max_degraded as f64);

    ScenarioResult {
        name: sc.name,
        warned: sc.warned,
        cascade: sc.cascade,
        killed: killed_order,
        kill_windows,
        restart_windows,
        last_kill,
        steady_fresh,
        final_fresh,
        recovery_windows,
        trigger_window,
        trigger_latency,
        breaches: breach.intervals(),
        max_degraded,
        pumped_items: pumped,
        fresh,
        served,
        stale,
        burn,
        degraded,
    }
}
