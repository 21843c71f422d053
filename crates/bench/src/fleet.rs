//! One live fleet: the machinery behind both live drills.
//!
//! A [`Fleet`] is N ring slots behind the production hashring. Each slot
//! is a real reactor-backed primary [`CacheServer`] whose hot-key writes
//! replicate to a backup server (paper §3.3: a spot primary and its
//! burstable backup), a per-node [`DegradedRouter`] in the fleet's
//! [`RecoveryStrategy`]'s mode, and — once a restore is launched — a
//! replacement server warmed by a restore thread. [`Fleet::run`] replays
//! a list of [`StormEvent`]s (warn / kill / restart per node and window)
//! and per window records the decay curves an operator would watch
//! (fresh-hit rate, served rate, stale fraction, SLO burn,
//! simultaneously-degraded router count) into strictly-monotone
//! [`DecaySeries`], plus [`StormDetector`] trigger latency and
//! [`BreachTracker`] burn-breach intervals.
//!
//! `storm_drill` runs [`run_scenario`]: correlated storms whose timeline
//! comes from [`crate::faults::schedule_storm`] (a contiguous hashring
//! arc killed within a short spread, restarts decorrelated by jitter).
//! `revocation_drill` runs one node per strategy, warned and unwarned,
//! with one explicit event each.
//!
//! # The freshness SLO
//!
//! The fleet's [`SloWindow`] scores **freshness**: only a primary or
//! replacement answer is good; a stale-from-backup answer burns error
//! budget just like a miss. That is deliberate — through a revocation
//! availability barely moves (backups keep answering), so freshness is
//! the signal that actually decays and recovers, and the one whose burn
//! rate must not breach before the storm detector has fired.

use crate::faults::{schedule_storm, StormEvent, StormSpec};
use crate::live::{prefill_hot, read_window, start_server, RoutedTiers};
use rand::{rngs::StdRng, SeedableRng};
use spotcache_cache::replication::{
    Mutation, ReplicationConfig, ReplicationQueue, ReplicationStats, Replicator,
};
use spotcache_cache::server::CacheServer;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::{
    trace, BreachTracker, DecaySeries, Obs, SloWindow, StormDetector, TraceContext, Tracer,
};
use spotcache_recovery::checkpoint::write_checkpoint;
use spotcache_recovery::replay::WarmupConfig;
use spotcache_recovery::strategy::{RecoveryStrategy, RestoreContext, RestoreReport};
use spotcache_router::degraded::{DegradedRouter, DrillPhase, RecoveryMode, ServeTarget};
use spotcache_router::hashring::{HashRing, NodeId};
use spotcache_workload::zipf::ScrambledZipfian;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes per cached value.
pub const VALUE_LEN: usize = 64;

/// Hot-key prefix: every fleet key is `h<id>`, and only these replicate
/// to the backup (the paper's key partitioner marks hot keys `h`, §4.2).
const HOT_PREFIX: &str = "h";

// Logical process lanes for the Chrome trace export: every component
// thread is pinned to one of these via `trace::set_thread_pid`, so a
// traced run renders router, servers and replicator side by side.
const PID_DRIVER: u32 = 0;
const PID_PRIMARY: u32 = 1;
const PID_BACKUP: u32 = 2;
const PID_REPLACEMENT: u32 = 3;
const PID_REPLICATOR: u32 = 4;

/// Fleet- and timing-shape of a run; scenario-independent.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size (ring nodes, each a live primary and backup server).
    pub nodes: usize,
    /// Total hot keys, spread over the ring as `h0..h{key_space}`.
    pub key_space: u64,
    /// Zipf skew over the key space.
    pub theta: f64,
    /// Reads issued per driver window.
    pub ops_per_window: usize,
    /// Wall-clock length of one driver window.
    pub window: Duration,
    /// Healthy windows before the first event (baseline measurement).
    pub steady_windows: u64,
    /// Extra windows between steady state and the first possible storm
    /// kill; must be ≥ `warning_windows` so a warned storm's notices land
    /// after the baseline. Kills start at `steady_windows + storm_lead`
    /// for every scenario, warned or not — identical timelines are what
    /// make the warned ≤ unwarned comparison meaningful.
    pub storm_lead: u64,
    /// Windows observed past the last scheduled restart.
    pub observe_windows: u64,
    /// Advance notice, in windows, for warned revocations.
    pub warning_windows: u64,
    /// Windows over which one storm wave's kills spread.
    pub spread: u64,
    /// Base kill-to-replacement delay for unwarned storm recovery.
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
    /// Replacement warm-up pacing for the Replay strategy.
    pub pump: WarmupConfig,
    /// Per-server store capacity.
    pub store_bytes: usize,
    /// Per-server store shard count.
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

/// Everything one [`Fleet::run`] measured.
pub struct FleetRun {
    /// Victims, in kill order.
    pub killed: Vec<NodeId>,
    /// Window of each kill, aligned with `killed`.
    pub kill_windows: Vec<u64>,
    /// Window of each victim's warning, or of its restart when unwarned,
    /// aligned with `killed`.
    pub restart_windows: Vec<u64>,
    /// Window of the final kill (recovery is measured from here).
    pub last_kill: u64,
    /// Mean fresh-hit rate over the steady (pre-event) windows.
    pub steady_fresh: f64,
    /// Mean fresh-hit rate over the final five windows.
    pub final_fresh: f64,
    /// Windows from the last kill until the fresh rate re-crossed
    /// `recovery_fraction × steady_fresh`, counting the kill window;
    /// `None` = never recovered.
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
    /// Each node's restore report, by node id (`None` = never restored).
    pub restores: Vec<Option<RestoreReport>>,
    /// Each node's replication-link totals, by node id.
    pub replication: Vec<ReplicationStats>,
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

/// One ring slot: a primary replicating its hot keys to a backup server
/// and, once a restore is launched, the replacement it warms.
struct FleetNode {
    primary: Arc<Store>,
    primary_srv: Option<CacheServer>,
    backup: Arc<Store>,
    backup_srv: CacheServer,
    /// The primary's replication tap. Once the replicator stops, what it
    /// still holds is the dead stream's undelivered backlog.
    queue: Arc<ReplicationQueue>,
    repl: Replicator,
    /// Hybrid after a warning: the checkpoint cut then, and the tap that
    /// has collected every write since.
    cut: Option<(Vec<u8>, Arc<ReplicationQueue>)>,
    replacement: Option<CacheServer>,
    restore: Option<JoinHandle<io::Result<RestoreReport>>>,
    /// A finished restore's report. Set before the kill, it arms an
    /// immediate cut-over: `Warmed` is never entered while the primary
    /// still serves.
    report: Option<RestoreReport>,
}

/// A live fleet, started and waiting for [`Fleet::run`].
pub struct Fleet {
    cfg: FleetConfig,
    strategy: RecoveryStrategy,
    obs: Arc<Obs>,
    tracer: Option<Arc<Tracer>>,
    ring: HashRing,
    /// Key ownership is fixed for the whole run: the drills measure
    /// serve-path decay, not rebalancing, so dead nodes keep their arcs
    /// and their replacements inherit them.
    owner_of: Vec<usize>,
    nodes: Vec<FleetNode>,
    /// Each node's routed clients, by node id (what [`read_window`] reads
    /// through).
    tiers: Vec<RoutedTiers>,
    slo: Arc<SloWindow>,
}

/// Registers the fleet's trace lanes on `tracer` and puts the calling
/// thread in the router lane.
pub fn register_lanes(tracer: &Tracer) {
    for (pid, name) in [
        (PID_DRIVER, "drill-router"),
        (PID_PRIMARY, "primary-server"),
        (PID_BACKUP, "backup-server"),
        (PID_REPLACEMENT, "replacement-server"),
        (PID_REPLICATOR, "replicator"),
    ] {
        tracer.register_process(pid, name);
    }
    trace::set_thread_pid(PID_DRIVER);
    tracer.register_current_thread("drill-driver");
}

/// Starts a server for `store` with its threads in trace lane `pid`.
/// Its workers do not inherit the caller's trace context: they stitch
/// per connection, through the `trace` line each routed client sends.
fn start_in_lane(
    pid: u32,
    store: &Arc<Store>,
    obs: &Arc<Obs>,
    tracer: Option<&Arc<Tracer>>,
) -> CacheServer {
    let ctx = trace::thread_context();
    trace::set_thread_pid(pid);
    trace::set_thread_context(None);
    let srv = start_server(store, Some(obs), tracer);
    trace::set_thread_pid(PID_DRIVER);
    trace::set_thread_context(ctx);
    srv
}

fn marker(tracer: Option<&Arc<Tracer>>, name: &'static str) {
    if let Some(t) = tracer {
        t.record_at("drill", name, t.now_us(), 0.0);
    }
}

fn drain(queue: &ReplicationQueue) -> Vec<Mutation> {
    let mut out = Vec::new();
    queue.drain_into(&mut out, usize::MAX);
    out
}

/// Joins a restore thread; a restore that failed or panicked fails the
/// run, naming the node and the strategy.
fn join_restore(
    handle: JoinHandle<io::Result<RestoreReport>>,
    node: usize,
    strategy: &RecoveryStrategy,
) -> RestoreReport {
    match handle.join() {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => panic!("node {node}: {} restore failed: {e}", strategy.name()),
        Err(_) => panic!("node {node}: {} restore thread panicked", strategy.name()),
    }
}

impl Fleet {
    /// Starts every node's primary and backup server and replicator,
    /// prefills each primary with the keys it owns through the protocol
    /// (so values carry the wire framing and every set replicates) and
    /// drains the replication into the backups.
    ///
    /// With `tracer`, every component runs in its own trace lane. `ctx`,
    /// when given, becomes the calling thread's trace context before the
    /// replicators start — every batch they ship carries it to the
    /// backups — and every routed client announces it on connect; the
    /// restore threads inherit it too.
    pub fn start(
        cfg: &FleetConfig,
        strategy: RecoveryStrategy,
        obs: &Arc<Obs>,
        tracer: Option<&Arc<Tracer>>,
        ctx: Option<TraceContext>,
    ) -> Self {
        let weights: Vec<(NodeId, f64)> = (0..cfg.nodes as NodeId).map(|i| (i, 1.0)).collect();
        let ring = HashRing::build(&weights);
        let owner_of: Vec<usize> = (0..cfg.key_space)
            .map(|kid| {
                ring.lookup(format!("{HOT_PREFIX}{kid}").as_bytes())
                    .expect("non-empty ring") as usize
            })
            .collect();
        trace::set_thread_context(ctx);
        let mut nodes = Vec::with_capacity(cfg.nodes);
        let mut tiers = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let primary = new_store(cfg);
            let backup = new_store(cfg);
            let primary_srv = start_in_lane(PID_PRIMARY, &primary, obs, tracer);
            let backup_srv = start_in_lane(PID_BACKUP, &backup, obs, tracer);
            let queue = ReplicationQueue::new(65_536, Some(HOT_PREFIX.as_bytes().to_vec()));
            primary.set_mutation_sink(Some(queue.clone()));
            trace::set_thread_pid(PID_REPLICATOR);
            let repl = Replicator::start(
                backup_srv.addr(),
                Arc::clone(&queue),
                ReplicationConfig::default(),
                Some(Arc::clone(obs)),
                tracer.cloned(),
            );
            trace::set_thread_pid(PID_DRIVER);
            let owned = (0..cfg.key_space).filter(|&kid| owner_of[kid as usize] == i);
            prefill_hot(&primary, HOT_PREFIX, owned, VALUE_LEN);
            assert!(
                repl.flush(Duration::from_secs(30)),
                "node {i}: prefill replication must drain"
            );

            let router = Arc::new(DegradedRouter::new());
            router.set_mode(strategy.mode());
            let mut node_tiers = RoutedTiers::new(router, ctx);
            node_tiers.set_tier(ServeTarget::Primary, Some(primary_srv.addr()));
            node_tiers.set_tier(ServeTarget::BackupStale, Some(backup_srv.addr()));
            tiers.push(node_tiers);
            nodes.push(FleetNode {
                primary,
                primary_srv: Some(primary_srv),
                backup,
                backup_srv,
                queue,
                repl,
                cut: None,
                replacement: None,
                restore: None,
                report: None,
            });
        }
        Self {
            cfg: cfg.clone(),
            strategy,
            obs: Arc::clone(obs),
            tracer: tracer.cloned(),
            ring,
            owner_of,
            nodes,
            tiers,
            slo: Arc::new(SloWindow::new(
                cfg.slo_target,
                cfg.slo_window_factor * cfg.ops_per_window,
            )),
        }
    }

    /// Node `node`'s phase machine.
    pub fn router(&self, node: usize) -> &Arc<DegradedRouter> {
        &self.tiers[node].router
    }

    /// The fleet's freshness SLO window.
    pub fn slo(&self) -> &Arc<SloWindow> {
        &self.slo
    }

    /// Node `node`'s backup server, the one server of the node that lives
    /// through the whole run (e.g. to attach an admin endpoint to).
    pub fn backup_server(&mut self, node: usize) -> &mut CacheServer {
        &mut self.nodes[node].backup_srv
    }

    /// Replays `events` against the fleet, then tears it down: every
    /// restore is joined and every server and replicator stopped before
    /// this returns.
    ///
    /// Per window: warnings, kills and restarts due in it; finished
    /// restores joined; then one window of Zipf reads (stream seeded by
    /// `seed`) through each owner's read plan, write-through-refilling
    /// misses at the write target; then the window's curves.
    /// `after_window` sees each window's index once it has closed. Runs
    /// until `observe_windows` past the last restart.
    pub fn run(
        mut self,
        events: &[StormEvent],
        seed: u64,
        mut after_window: impl FnMut(u64),
    ) -> FleetRun {
        assert!(!events.is_empty(), "a run must kill someone");
        let last_kill = events.iter().map(|e| e.kill_at).max().expect("non-empty");
        let horizon = events
            .iter()
            .map(|e| e.restart_at)
            .max()
            .expect("non-empty");
        let total_windows = horizon + self.cfg.observe_windows;

        let detector = StormDetector::new(self.cfg.detector_window, self.cfg.detector_threshold);
        let breach = BreachTracker::new(1.0);
        let fresh = DecaySeries::new();
        let served = DecaySeries::new();
        let stale = DecaySeries::new();
        let burn = DecaySeries::new();
        let degraded = DecaySeries::new();
        let zipf = ScrambledZipfian::new(self.cfg.key_space, self.cfg.theta);
        let mut ops_rng = StdRng::seed_from_u64(seed);
        let value = "x".repeat(VALUE_LEN);
        let mut killed = Vec::new();
        let mut kill_windows = Vec::new();
        let mut restart_windows = Vec::new();
        let mut max_degraded = 0usize;

        for w in 0..total_windows {
            let deadline = Instant::now() + self.cfg.window;
            for e in events.iter().filter(|e| e.warn_at == Some(w)) {
                self.warn(e.node as usize);
            }
            for e in events.iter().filter(|e| e.kill_at == w) {
                self.kill(e.node as usize);
                detector.record(w, 1);
                killed.push(e.node);
                kill_windows.push(w);
                restart_windows.push(e.warn_at.unwrap_or(e.restart_at));
            }
            for e in events.iter().filter(|e| e.restart_at == w) {
                self.restart(e.node as usize);
            }
            self.poll();
            // Only a primary or replacement answer is good for the
            // freshness SLO: a stale serve burns budget just like a miss.
            let tally = read_window(
                &mut self.tiers,
                self.cfg.ops_per_window,
                || {
                    let kid = zipf.sample(&mut ops_rng);
                    (self.owner_of[kid as usize], format!("{HOT_PREFIX}{kid}"))
                },
                value.as_bytes(),
                |answered| {
                    self.slo.record(matches!(
                        answered,
                        Some(ServeTarget::Primary | ServeTarget::Replacement)
                    ))
                },
                deadline,
            );
            let n = self.cfg.ops_per_window as f64;
            fresh.push(w, tally.fresh as f64 / n);
            stale.push(w, tally.stale as f64 / n);
            served.push(w, (tally.fresh + tally.stale) as f64 / n);
            let rate = self.slo.burn_rate();
            burn.push(w, rate.min(1e6)); // saturated burn stays JSON-finite
            breach.observe(w, rate);
            let deg = self
                .tiers
                .iter()
                .filter(|t| t.router.phase() == DrillPhase::Degraded)
                .count();
            degraded.push(w, deg as f64);
            max_degraded = max_degraded.max(deg);
            after_window(w);
        }

        // Stragglers are joined before their servers stop (a restore
        // writes to its replacement over the wire); the servers stop as
        // the fleet drops on return.
        let mut restores = Vec::with_capacity(self.nodes.len());
        let mut replication = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Some(handle) = node.restore.take() {
                node.report = Some(join_restore(handle, i, &self.strategy));
            }
            node.repl.stop();
            restores.push(node.report.take());
            replication.push(node.repl.stats());
        }
        trace::set_thread_context(None);

        let mean = |pts: &[(u64, f64)]| {
            if pts.is_empty() {
                0.0
            } else {
                pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
            }
        };
        let points = fresh.points();
        let steady_fresh = mean(&points[..(self.cfg.steady_windows as usize).min(points.len())]);
        let final_fresh = mean(&points[points.len().saturating_sub(5)..]);
        let recovery_windows = fresh
            .first_at_or_above(last_kill, self.cfg.recovery_fraction * steady_fresh)
            .map(|t| t - last_kill + 1);
        FleetRun {
            killed,
            kill_windows,
            restart_windows,
            last_kill,
            steady_fresh,
            final_fresh,
            recovery_windows,
            trigger_window: detector.triggered_at(),
            trigger_latency: detector.trigger_latency(),
            breaches: breach.intervals(),
            max_degraded,
            restores,
            replication,
            fresh,
            served,
            stale,
            burn,
            degraded,
        }
    }

    /// The rebalance warning: the router enters `Warning` and the strategy
    /// arms. Replay starts warming the replacement now; Checkpoint cuts
    /// its stream from the still-live primary and starts loading it;
    /// Hybrid cuts the stream, keeps it for the kill, and re-points the
    /// primary's tap at a fresh queue, so everything written after the
    /// cut becomes the top-up tail.
    fn warn(&mut self, i: usize) {
        marker(self.tracer.as_ref(), "warning");
        self.tiers[i].router.on_warning();
        let mode = self.strategy.mode();
        if mode == RecoveryMode::Replay {
            return self.launch(i, None, Vec::new());
        }
        let node = &mut self.nodes[i];
        let mut ckpt = Vec::new();
        write_checkpoint(
            &node.primary,
            0,
            &mut ckpt,
            Some(&self.obs),
            self.tracer.as_deref(),
        )
        .expect("warning-window checkpoint cut");
        if mode == RecoveryMode::Checkpoint {
            return self.launch(i, Some(ckpt), Vec::new());
        }
        let tail = ReplicationQueue::new(65_536, Some(HOT_PREFIX.as_bytes().to_vec()));
        node.primary.set_mutation_sink(Some(tail.clone()));
        node.cut = Some((ckpt, tail));
    }

    /// The revocation: the primary's server dies mid-traffic, the router
    /// degrades, and the replication stream dies with its source. A node
    /// whose restore already finished cuts over at once.
    fn kill(&mut self, i: usize) {
        marker(self.tracer.as_ref(), "kill");
        let (node, tiers) = (&mut self.nodes[i], &mut self.tiers[i]);
        if let Some(mut srv) = node.primary_srv.take() {
            srv.stop();
        }
        tiers.set_tier(ServeTarget::Primary, None);
        tiers.router.on_revoked();
        node.repl.stop();
        if node.report.is_some() {
            tiers.router.on_warmed();
            marker(self.tracer.as_ref(), "warmed");
        }
    }

    /// The replacement comes up: starts the restore unless the warning
    /// already did. Hybrid ships a tail on top of its checkpoint — the
    /// writes since the warning's cut, or, unwarned, the dead stream's
    /// undelivered backlog.
    fn restart(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        if node.replacement.is_some() {
            return;
        }
        let (ckpt, tail) = match node.cut.take() {
            Some((ckpt, since_cut)) => (Some(ckpt), drain(&since_cut)),
            None if self.strategy.mode() == RecoveryMode::Hybrid => (None, drain(&node.queue)),
            None => (None, Vec::new()),
        };
        self.launch(i, ckpt, tail);
    }

    /// Starts node `i`'s replacement server and a thread restoring it
    /// through the fleet's strategy from the backup, `ckpt` (a stream cut
    /// at the warning; `None` = cut from the backup inside the restore)
    /// and `tail`.
    fn launch(&mut self, i: usize, ckpt: Option<Vec<u8>>, tail: Vec<Mutation>) {
        let target = new_store(&self.cfg);
        let srv = start_in_lane(PID_REPLACEMENT, &target, &self.obs, self.tracer.as_ref());
        let target_addr = srv.addr();
        self.tiers[i].set_tier(ServeTarget::Replacement, Some(target_addr));
        let strategy = self.strategy.clone();
        let backup = Arc::clone(&self.nodes[i].backup);
        let obs = Arc::clone(&self.obs);
        let tracer = self.tracer.clone();
        // The restore thread keeps the caller's lane and trace context, so
        // pump and checkpoint spans (and the trace tokens their shipped
        // batches carry) stay inside the caller's trace.
        let (pid, ctx) = (trace::thread_pid(), trace::thread_context());
        let restore = std::thread::Builder::new()
            .name("fleet-restore".into())
            .spawn(move || {
                trace::set_thread_pid(pid);
                trace::set_thread_context(ctx);
                strategy.restore(&RestoreContext {
                    backup: &backup,
                    target_addr,
                    target_store: &target,
                    checkpoint: ckpt.as_deref(),
                    tail: &tail,
                    now: 0,
                    obs: Some(&obs),
                    tracer: tracer.as_deref(),
                })
            })
            .expect("spawn restore thread");
        let node = &mut self.nodes[i];
        node.replacement = Some(srv);
        node.restore = Some(restore);
    }

    /// Joins every finished restore; a node already revoked moves to
    /// `Warmed`.
    fn poll(&mut self) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !node.restore.as_ref().is_some_and(|h| h.is_finished()) {
                continue;
            }
            let handle = node.restore.take().expect("checked above");
            node.report = Some(join_restore(handle, i, &self.strategy));
            let router = &self.tiers[i].router;
            if router.phase() == DrillPhase::Degraded {
                router.on_warmed();
                marker(self.tracer.as_ref(), "warmed");
            }
        }
    }
}

fn new_store(cfg: &FleetConfig) -> Arc<Store> {
    Arc::new(Store::new(StoreConfig {
        capacity_bytes: cfg.store_bytes,
        shards: cfg.store_shards,
    }))
}

/// Runs one storm scenario against a fresh Replay fleet.
///
/// Per-scenario gauges land in `obs` under `storm_<name>_*`
/// (`recovery_windows`, `trigger_latency_windows`,
/// `max_degraded_routers`), and every revocation bumps
/// `storm_kills_total`.
pub fn run_scenario(cfg: &FleetConfig, sc: &Scenario, obs: &Arc<Obs>) -> FleetRun {
    let fleet = Fleet::start(
        cfg,
        RecoveryStrategy::Replay(cfg.pump.clone()),
        obs,
        None,
        None,
    );
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
    let wave1 = schedule_storm(&fleet.ring, &[], &spec, &mut sched_rng);
    let mut events: Vec<StormEvent> = wave1.events.clone();
    if sc.cascade {
        let second = StormSpec {
            start: start + cfg.cascade_delay,
            warning: None, // the second spike always lands unwarned
            ..spec
        };
        let wave2 = schedule_storm(&fleet.ring, &wave1.nodes(), &second, &mut sched_rng);
        events.extend(wave2.events);
    }
    let run = fleet.run(&events, cfg.seed ^ sc.salt ^ 0x5707_11d3, |_| {});

    obs.counter("storm_kills_total")
        .add(run.killed.len() as u64);
    let g = |suffix: &str| obs.gauge(&format!("storm_{}_{suffix}", sc.name));
    g("recovery_windows").set(run.recovery_windows.map_or(-1.0, |w| w as f64));
    g("trigger_latency_windows").set(run.trigger_latency.map_or(-1.0, |l| l as f64));
    g("max_degraded_routers").set(run.max_degraded as f64);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_recovery::checkpoint::CheckpointConfig;

    #[test]
    #[should_panic(expected = "node 0: checkpoint restore failed: link down")]
    fn a_failed_restore_fails_the_run() {
        let cfg = FleetConfig {
            nodes: 1,
            key_space: 16,
            theta: 0.99,
            ops_per_window: 8,
            window: Duration::from_millis(1),
            steady_windows: 1,
            storm_lead: 0,
            observe_windows: 1,
            warning_windows: 1,
            spread: 0,
            restart_delay: 1,
            restart_jitter: 0.0,
            cascade_delay: 0,
            slo_target: 0.9,
            slo_window_factor: 1,
            detector_window: 1,
            detector_threshold: 1,
            recovery_fraction: 0.9,
            pump: WarmupConfig::default(),
            store_bytes: 1 << 20,
            store_shards: 1,
            seed: 1,
        };
        let strategy = RecoveryStrategy::Checkpoint(CheckpointConfig::default());
        let mut fleet = Fleet::start(&cfg, strategy, &Arc::new(Obs::new()), None, None);
        let restore = std::thread::spawn(|| Err(io::Error::other("link down")));
        while !restore.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        fleet.nodes[0].restore = Some(restore);
        fleet.poll();
    }
}
