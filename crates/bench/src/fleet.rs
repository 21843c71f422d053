//! One live fleet: the machinery behind both live drills and the live
//! control loop.
//!
//! A [`Fleet`] is a set of members behind the production
//! [`LoadBalancer`]. Each member is a real reactor-backed primary
//! [`CacheServer`]; a spot member's hot-key writes replicate to its own
//! backup server (paper §3.3: a spot primary and its burstable backup).
//! Each member also has a [`DegradedRouter`] in the fleet's
//! [`RecoveryStrategy`]'s mode, and — once a restore is launched — a
//! replacement server warmed by a restore thread. One driver window is
//! one step: finished restores are joined, one window of Zipf reads goes
//! through each owner's read plan, and the window's decay curves are
//! recorded (fresh-hit rate, served rate, stale fraction, SLO burn,
//! simultaneously-degraded router count) into strictly-monotone
//! [`DecaySeries`], plus [`StormDetector`] trigger latency and
//! [`BreachTracker`] burn-breach intervals.
//!
//! Two drivers step it:
//!
//! * [`Fleet::run`] replays a list of [`StormEvent`]s (warn / kill /
//!   restart per node and window) over a fixed membership.
//!   `storm_drill` runs [`run_scenario`]: correlated storms whose
//!   timeline comes from `crate::faults::schedule_storm` (a contiguous
//!   hot-ring arc killed within a short spread, restarts decorrelated by
//!   jitter). `revocation_drill` runs one node per strategy, warned and
//!   unwarned, with one explicit event each.
//! * [`FleetSubstrate`] is the [`Substrate`](spotcache_core::Substrate)
//!   `ControlLoop` drives: membership follows each plan, and the cloud
//!   provider's warnings and revocations become the fleet's warn, kill
//!   and restart.
//!
//! # Keys and pools
//!
//! A read draws a Zipf rank. The rank's scrambled id names the key: `h<id>`
//! when the rank is below the fleet's hot cut, `c<id>` otherwise. The
//! key's pool ring picks its owner, and only `h` keys replicate. The
//! drills make every rank hot, so their keys and owners are those of a
//! single uniform ring.
//!
//! # The freshness SLO
//!
//! The fleet's [`SloWindow`] scores **freshness**: only a primary or
//! replacement answer is good; a stale-from-backup answer burns error
//! budget just like a miss. That is deliberate — through a revocation
//! availability barely moves (backups keep answering), so freshness is
//! the signal that actually decays and recovers, and the one whose burn
//! rate must not breach before the storm detector has fired.

mod substrate;

pub use substrate::FleetSubstrate;

use crate::faults::{schedule_storm, StormEvent, StormSpec};
use crate::live::{prefill_hot, read_window, start_server, RoutedTiers, WindowTally};
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
use spotcache_router::balancer::{LoadBalancer, NodeWeights, Pool};
use spotcache_router::degraded::{DegradedRouter, DrillPhase, ServeTarget};
use spotcache_router::hashring::{HashRing, NodeId};
use spotcache_workload::zipf::ScrambledZipfian;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes per cached value.
pub const VALUE_LEN: usize = 64;

/// Recovery = the fresh rate is back above this fraction of steady state.
pub const RECOVERY_FRACTION: f64 = 0.9;

/// Hot-key prefix: only these replicate to a backup (the paper's key
/// partitioner marks hot keys `h`, §4.2; here the plan's rank cut does).
const HOT_PREFIX: &str = "h";

/// Cold-key prefix.
const COLD_PREFIX: &str = "c";

/// What a missed read is refilled with.
const REFILL: [u8; VALUE_LEN] = [b'x'; VALUE_LEN];

// Logical process lanes for the Chrome trace export: every component
// thread is pinned to one of these via `trace::set_thread_pid`, so a
// traced run renders router, servers and replicator side by side.
const PID_DRIVER: u32 = 0;
const PID_PRIMARY: u32 = 1;
const PID_BACKUP: u32 = 2;
const PID_REPLACEMENT: u32 = 3;
const PID_REPLICATOR: u32 = 4;

/// Zipf skew over a fleet's key space.
pub const THETA: f64 = 0.99;

/// Fleet- and timing-shape of a run; scenario-independent.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Drill fleet size (ring members, each a live primary and backup
    /// server); a [`FleetSubstrate`]'s membership follows its plans.
    pub nodes: usize,
    /// Distinct keys, one per Zipf rank.
    pub key_space: u64,
    /// Reads issued per driver window.
    pub ops_per_window: usize,
    /// Wall-clock length of one driver window.
    pub window: Duration,
    /// Healthy windows before the first event (baseline measurement).
    pub steady_windows: u64,
    /// Windows observed past the last scheduled restart.
    pub observe_windows: u64,
    /// Advance notice, in windows, for warned revocations.
    pub warning_windows: u64,
    /// Freshness-SLO target ζ (good = fresh-tier answer).
    pub slo_target: f64,
    /// SLO window capacity as a multiple of `ops_per_window`.
    pub slo_window_factor: usize,
    /// Storm-detector trailing window, in driver windows.
    pub detector_window: u64,
    /// Revocations within the detector window that flag a storm.
    pub detector_threshold: u64,
    /// Replacement warm-up pacing for the Replay strategy.
    pub pump: WarmupConfig,
    /// Per-server store capacity.
    pub store_bytes: usize,
    /// Per-server store shard count.
    pub store_shards: usize,
    /// Base RNG seed; each scenario folds in its salt.
    pub seed: u64,
}

/// One storm scenario: its revocation wave, and whether a second spike
/// follows.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable scenario name (JSON key, metric prefix).
    pub name: &'static str,
    /// The first wave (kill fraction, timing, notice).
    pub storm: StormSpec,
    /// Whether a second, unwarned spike hits the survivors while the
    /// first wave's replacements still warm (see `scenario_events`).
    pub cascade: bool,
    /// Seed salt: scenarios sharing a salt face the *same* kill-set and
    /// kill times (see `crate::faults::schedule_storm`).
    pub salt: u64,
}

/// The four scenarios the checked-in `BENCH_storm.json` carries, on
/// waves shaped like `wave` (its `kill_frac` is replaced per scenario;
/// only `warned` keeps its `warning`).
///
/// `warned` and `unwarned` share a salt so they face the identical
/// storm — the pair behind the warned ≤ unwarned recovery-ordering
/// invariant. `cascade` adds a second spike mid-recovery;
/// `multi_router_degraded` doubles the kill fraction so several
/// routers sit in `Degraded` simultaneously.
pub fn default_scenarios(wave: StormSpec) -> [Scenario; 4] {
    let shaped = |kill_frac, warned: bool| StormSpec {
        kill_frac,
        warning: wave.warning.filter(|_| warned),
        ..wave
    };
    [
        Scenario {
            name: "warned",
            storm: shaped(0.33, true),
            cascade: false,
            salt: 0xA1,
        },
        Scenario {
            name: "unwarned",
            storm: shaped(0.33, false),
            cascade: false,
            salt: 0xA1,
        },
        Scenario {
            name: "cascade",
            storm: shaped(0.33, false),
            cascade: true,
            salt: 0xB2,
        },
        Scenario {
            name: "multi_router_degraded",
            storm: shaped(0.50, false),
            cascade: false,
            salt: 0xC3,
        },
    ]
}

/// The storm drill's fleet and wave shape: a full run, or the scaled-down
/// `--smoke` run CI takes.
///
/// The pump rate is picked so a warned pre-warm finishes comfortably
/// inside the warning window while an unwarned recovery pays
/// `restart_delay` + several pump windows — the gap the warned ≤
/// unwarned invariant measures. The SLO window spans several driver
/// windows so a single revocation cannot breach before the detector's
/// threshold (2 kills) is reachable; see RUNBOOK.md §"Storm drills".
/// Kills start `storm_lead` windows after steady state for every
/// scenario, warned or not — identical timelines are what make the
/// warned ≤ unwarned comparison meaningful — and the lead is longer
/// than the warning so a warned storm's notices land after the baseline.
pub fn storm_drill_shape(smoke: bool, seed: u64) -> (FleetConfig, StormSpec) {
    let (nodes, key_space, ops_per_window, window_ms) = if smoke {
        (4, 800, 120, 30)
    } else {
        (6, 1_800, 240, 50)
    };
    let (steady_windows, storm_lead, observe_windows, warning_windows, restart_delay) = if smoke {
        (6, 14, 30, 12, 5)
    } else {
        (8, 18, 48, 16, 6)
    };
    let fleet = FleetConfig {
        nodes,
        key_space,
        ops_per_window,
        window: Duration::from_millis(window_ms),
        steady_windows,
        observe_windows,
        warning_windows,
        slo_target: 0.8,
        slo_window_factor: 6,
        detector_window: 4,
        detector_threshold: 2,
        pump: WarmupConfig {
            max_items: key_space as usize,
            base_rate: 2_000.0,
            peak_rate: 2_000.0,
            initial_credits: 0.0,
            ..WarmupConfig::default()
        },
        store_bytes: 32 << 20,
        store_shards: 4,
        seed,
    };
    let wave = StormSpec {
        kill_frac: 0.0,
        start: steady_windows + storm_lead,
        spread: 2,
        warning: Some(warning_windows),
        restart_delay,
        restart_jitter: 0.4,
    };
    (fleet, wave)
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
    /// [`RECOVERY_FRACTION`] × `steady_fresh`, counting the kill window;
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
    /// Each restored node's restore report, by node id.
    pub restores: BTreeMap<NodeId, RestoreReport>,
    /// Each node's replication-link totals, by node id.
    pub replication: BTreeMap<NodeId, ReplicationStats>,
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

/// A spot member's backup: the server its hot writes replicate to.
struct Backup {
    store: Arc<Store>,
    srv: CacheServer,
    /// The primary's replication tap. Once the replicator stops, what it
    /// still holds is the dead stream's undelivered backlog.
    queue: Arc<ReplicationQueue>,
    repl: Replicator,
}

/// One member: a primary, its backup when it has one, and, once a
/// restore is launched, the replacement it warms.
struct FleetNode {
    id: NodeId,
    primary: Arc<Store>,
    primary_srv: Option<CacheServer>,
    backup: Option<Backup>,
    /// Hybrid after a warning: the checkpoint cut then, and the tap that
    /// has collected every write since.
    cut: Option<(Vec<u8>, Arc<ReplicationQueue>)>,
    replacement: Option<CacheServer>,
    restore: Option<JoinHandle<io::Result<RestoreReport>>>,
}

/// What the windows of a run record.
struct Curves {
    fresh: DecaySeries,
    served: DecaySeries,
    stale: DecaySeries,
    burn: DecaySeries,
    degraded: DecaySeries,
    detector: StormDetector,
    breach: BreachTracker,
    max_degraded: usize,
}

/// A live fleet, stepped one driver window at a time.
pub struct Fleet {
    cfg: FleetConfig,
    strategy: RecoveryStrategy,
    obs: Arc<Obs>,
    tracer: Option<Arc<Tracer>>,
    /// Announced by every routed client on connect.
    ctx: Option<TraceContext>,
    lb: LoadBalancer,
    /// Zipf ranks below this are hot: `h` keys, owned on the hot ring.
    hot_ranks: u64,
    zipf: ScrambledZipfian,
    ops_rng: StdRng,
    /// Members in join order; `tiers[i]` routes to `nodes[i]`.
    nodes: Vec<FleetNode>,
    tiers: Vec<RoutedTiers>,
    /// Every finished restore's report, by node id. A report that exists
    /// before its node is killed arms an immediate cut-over: `Warmed` is
    /// never entered while the primary still serves.
    restores: BTreeMap<NodeId, RestoreReport>,
    /// Every stopped replication link's totals, by node id.
    replication: BTreeMap<NodeId, ReplicationStats>,
    slo: Arc<SloWindow>,
    /// Index of the next driver window.
    window: u64,
    curves: Curves,
}

/// The fleet's trace lanes: logical pid and process name.
const LANES: [(u32, &str); 5] = [
    (PID_DRIVER, "drill-router"),
    (PID_PRIMARY, "primary-server"),
    (PID_BACKUP, "backup-server"),
    (PID_REPLACEMENT, "replacement-server"),
    (PID_REPLICATOR, "replicator"),
];

/// The process name [`register_lanes`] gives logical pid `pid`.
pub fn lane_name(pid: u32) -> Option<&'static str> {
    LANES.iter().find(|(p, _)| *p == pid).map(|(_, name)| *name)
}

/// Registers the fleet's trace lanes on `tracer` and puts the calling
/// thread in the router lane.
pub fn register_lanes(tracer: &Tracer) {
    for (pid, name) in LANES {
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
    node: NodeId,
    strategy: &RecoveryStrategy,
) -> RestoreReport {
    match handle.join() {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => panic!("node {node}: {} restore failed: {e}", strategy.name()),
        Err(_) => panic!("node {node}: {} restore thread panicked", strategy.name()),
    }
}

/// Joins `node`'s restore and stops its replication link, keeping what
/// each produced.
fn retire(
    node: &mut FleetNode,
    strategy: &RecoveryStrategy,
    restores: &mut BTreeMap<NodeId, RestoreReport>,
    replication: &mut BTreeMap<NodeId, ReplicationStats>,
) {
    if let Some(handle) = node.restore.take() {
        restores.insert(node.id, join_restore(handle, node.id, strategy));
    }
    if let Some(backup) = &mut node.backup {
        backup.repl.stop();
        replication.insert(node.id, backup.repl.stats());
    }
}

/// `n` members of equal weight in both pools.
fn uniform(n: usize) -> Vec<NodeWeights> {
    (0..n as NodeId)
        .map(|node| NodeWeights {
            node,
            hot: 1.0,
            cold: 1.0,
        })
        .collect()
}

impl Fleet {
    /// A fleet with no members; see [`Fleet::start`] for `tracer` and
    /// `ctx`.
    fn new(
        cfg: &FleetConfig,
        strategy: RecoveryStrategy,
        obs: &Arc<Obs>,
        tracer: Option<&Arc<Tracer>>,
        ctx: Option<TraceContext>,
    ) -> Self {
        trace::set_thread_context(ctx);
        Self {
            cfg: cfg.clone(),
            strategy,
            obs: Arc::clone(obs),
            tracer: tracer.cloned(),
            ctx,
            lb: LoadBalancer::new(),
            hot_ranks: cfg.key_space,
            zipf: ScrambledZipfian::new(cfg.key_space, THETA),
            ops_rng: StdRng::seed_from_u64(cfg.seed),
            nodes: Vec::new(),
            tiers: Vec::new(),
            restores: BTreeMap::new(),
            replication: BTreeMap::new(),
            slo: Arc::new(SloWindow::new(
                cfg.slo_target,
                cfg.slo_window_factor * cfg.ops_per_window,
            )),
            window: 0,
            curves: Curves {
                fresh: DecaySeries::new(),
                served: DecaySeries::new(),
                stale: DecaySeries::new(),
                burn: DecaySeries::new(),
                degraded: DecaySeries::new(),
                detector: StormDetector::new(cfg.detector_window, cfg.detector_threshold),
                breach: BreachTracker::new(1.0),
                max_degraded: 0,
            },
        }
    }

    /// Starts the drill fleet: `cfg.nodes` backed members of equal
    /// weight, every key hot. Each primary is prefilled with the keys it
    /// owns through the protocol (so values carry the wire framing and
    /// every set replicates), and the replication drains into the
    /// backups.
    ///
    /// With `tracer`, every component runs in its own trace lane. `ctx`,
    /// when given, becomes the calling thread's trace context before any
    /// replicator starts — every batch they ship carries it to the
    /// backups — and every routed client announces it on connect; the
    /// restore threads inherit it too.
    pub fn start(
        cfg: &FleetConfig,
        strategy: RecoveryStrategy,
        obs: &Arc<Obs>,
        tracer: Option<&Arc<Tracer>>,
        ctx: Option<TraceContext>,
    ) -> Self {
        let mut fleet = Self::new(cfg, strategy, obs, tracer, ctx);
        for node in 0..cfg.nodes as NodeId {
            fleet.join(node, true);
        }
        fleet.set_weights(&uniform(cfg.nodes), 1.0);
        for node in &fleet.nodes {
            let owned = (0..cfg.key_space).filter(|&kid| {
                let key = format!("{HOT_PREFIX}{kid}");
                fleet.lb.owner(Pool::Hot, key.as_bytes()) == Some(node.id)
            });
            prefill_hot(&node.primary, HOT_PREFIX, owned, VALUE_LEN);
            let backup = node.backup.as_ref().expect("drill members are backed");
            assert!(
                backup.repl.flush(Duration::from_secs(30)),
                "node {}: prefill replication must drain",
                node.id
            );
        }
        fleet
    }

    fn index(&self, node: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|n| n.id == node)
            .unwrap_or_else(|| panic!("node {node} is not a member"))
    }

    /// Node `node`'s phase machine.
    pub fn router(&self, node: NodeId) -> &Arc<DegradedRouter> {
        &self.tiers[self.index(node)].router
    }

    /// The fleet's freshness SLO window.
    pub fn slo(&self) -> &Arc<SloWindow> {
        &self.slo
    }

    /// Backed node `node`'s backup server, the one server of the node
    /// that lives through the whole run (e.g. to attach an admin endpoint
    /// to).
    pub fn backup_server(&mut self, node: NodeId) -> &mut CacheServer {
        let i = self.index(node);
        &mut self.nodes[i].backup.as_mut().expect("a backed member").srv
    }

    /// The balancer holding the newest weight table.
    pub fn balancer(&self) -> &LoadBalancer {
        &self.lb
    }

    /// Member ids, in join order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.id)
    }

    /// Node `node`'s primary store.
    pub fn primary(&self, node: NodeId) -> &Arc<Store> {
        &self.nodes[self.index(node)].primary
    }

    /// Node `node`'s primary server address; `None` once revoked.
    pub fn primary_addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.nodes[self.index(node)]
            .primary_srv
            .as_ref()
            .map(CacheServer::addr)
    }

    /// Node `node`'s backup store, if it has a backup.
    pub fn backup(&self, node: NodeId) -> Option<&Arc<Store>> {
        self.nodes[self.index(node)]
            .backup
            .as_ref()
            .map(|b| &b.store)
    }

    /// Every finished restore's report, by node id.
    pub fn restores(&self) -> &BTreeMap<NodeId, RestoreReport> {
        &self.restores
    }

    /// Starts member `node`: a cold primary and, when `backed`, a backup
    /// server its hot writes replicate to. It owns no keys until the next
    /// [`Fleet::set_weights`] gives it weight.
    fn join(&mut self, node: NodeId, backed: bool) {
        let primary = new_store(&self.cfg);
        let primary_srv = start_in_lane(PID_PRIMARY, &primary, &self.obs, self.tracer.as_ref());
        let backup = backed.then(|| {
            let store = new_store(&self.cfg);
            let srv = start_in_lane(PID_BACKUP, &store, &self.obs, self.tracer.as_ref());
            let queue = ReplicationQueue::new(65_536, Some(HOT_PREFIX.as_bytes().to_vec()));
            primary.set_mutation_sink(Some(queue.clone()));
            trace::set_thread_pid(PID_REPLICATOR);
            let repl = Replicator::start(
                srv.addr(),
                Arc::clone(&queue),
                ReplicationConfig::default(),
                Some(Arc::clone(&self.obs)),
                self.tracer.clone(),
            );
            trace::set_thread_pid(PID_DRIVER);
            Backup {
                store,
                srv,
                queue,
                repl,
            }
        });
        let router = Arc::new(DegradedRouter::new());
        router.set_mode(self.strategy.mode());
        let mut tiers = RoutedTiers::new(router, self.ctx);
        tiers.set_tier(ServeTarget::Primary, Some(primary_srv.addr()));
        tiers.set_tier(
            ServeTarget::BackupStale,
            backup.as_ref().map(|b| b.srv.addr()),
        );
        self.tiers.push(tiers);
        self.nodes.push(FleetNode {
            id: node,
            primary,
            primary_srv: Some(primary_srv),
            backup,
            cut: None,
            replacement: None,
            restore: None,
        });
    }

    /// Stops member `node` for good: its restore is joined, its
    /// replication link stopped, and its servers go with it.
    fn leave(&mut self, node: NodeId) {
        let i = self.index(node);
        self.tiers.remove(i);
        let mut gone = self.nodes.remove(i);
        retire(
            &mut gone,
            &self.strategy,
            &mut self.restores,
            &mut self.replication,
        );
    }

    /// Publishes a weight table: key ownership follows its hot and cold
    /// rings, and the top `hot_frac` of the Zipf ranks is hot.
    fn set_weights(&mut self, table: &[NodeWeights], hot_frac: f64) {
        self.lb.set_weights(table);
        let hot = (hot_frac.clamp(0.0, 1.0) * self.cfg.key_space as f64).round();
        self.hot_ranks = hot as u64;
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
        assert_eq!(self.window, 0, "a run starts on a fresh fleet");
        let last_kill = events.iter().map(|e| e.kill_at).max().expect("non-empty");
        let horizon = events
            .iter()
            .map(|e| e.restart_at)
            .max()
            .expect("non-empty");
        self.ops_rng = StdRng::seed_from_u64(seed);
        let mut killed = Vec::new();
        let mut kill_windows = Vec::new();
        let mut restart_windows = Vec::new();
        for w in 0..horizon + self.cfg.observe_windows {
            for e in events.iter().filter(|e| e.warn_at == Some(w)) {
                self.warn(e.node);
            }
            for e in events.iter().filter(|e| e.kill_at == w) {
                self.kill(e.node);
                killed.push(e.node);
                kill_windows.push(w);
                restart_windows.push(e.warn_at.unwrap_or(e.restart_at));
            }
            for e in events.iter().filter(|e| e.restart_at == w) {
                self.restart(e.node);
            }
            self.step();
            after_window(w);
        }
        // Stragglers are joined before their servers stop (a restore
        // writes to its replacement over the wire); the servers stop as
        // the fleet drops on return.
        self.close();
        trace::set_thread_context(None);

        let mean = |pts: &[(u64, f64)]| {
            if pts.is_empty() {
                0.0
            } else {
                pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
            }
        };
        let c = self.curves;
        let points = c.fresh.points();
        let steady_fresh = mean(&points[..(self.cfg.steady_windows as usize).min(points.len())]);
        let final_fresh = mean(&points[points.len().saturating_sub(5)..]);
        let recovery_windows = c
            .fresh
            .first_at_or_above(last_kill, RECOVERY_FRACTION * steady_fresh)
            .map(|t| t - last_kill + 1);
        FleetRun {
            killed,
            kill_windows,
            restart_windows,
            last_kill,
            steady_fresh,
            final_fresh,
            recovery_windows,
            trigger_window: c.detector.triggered_at(),
            trigger_latency: c.detector.trigger_latency(),
            breaches: c.breach.intervals(),
            max_degraded: c.max_degraded,
            restores: self.restores,
            replication: self.replication,
            fresh: c.fresh,
            served: c.served,
            stale: c.stale,
            burn: c.burn,
            degraded: c.degraded,
        }
    }

    /// One driver window: joins finished restores, drives one window of
    /// Zipf reads through each owner's read plan (write-through-refilling
    /// misses at the write target), sleeps out the window, and records
    /// its curves.
    fn step(&mut self) -> WindowTally {
        let w = self.window;
        self.window += 1;
        let deadline = Instant::now() + self.cfg.window;
        self.poll();
        let (zipf, rng, lb, nodes) = (&self.zipf, &mut self.ops_rng, &self.lb, &self.nodes);
        let (hot_ranks, slo) = (self.hot_ranks, &self.slo);
        let tally = read_window(
            &mut self.tiers,
            self.cfg.ops_per_window,
            || {
                let rank = zipf.inner().sample(rng);
                let (pool, prefix) = if rank < hot_ranks {
                    (Pool::Hot, HOT_PREFIX)
                } else {
                    (Pool::Cold, COLD_PREFIX)
                };
                let key = format!("{prefix}{}", zipf.key_for_rank(rank));
                let owner = lb.owner(pool, key.as_bytes())?;
                let i = nodes.iter().position(|n| n.id == owner);
                Some((i.expect("owners are members"), key))
            },
            &REFILL,
            // Only a primary or replacement answer is good for the
            // freshness SLO: a stale serve burns budget just like a miss.
            |answered| {
                slo.record(matches!(
                    answered,
                    Some(ServeTarget::Primary | ServeTarget::Replacement)
                ))
            },
            deadline,
        );
        let c = &mut self.curves;
        let n = self.cfg.ops_per_window as f64;
        c.fresh.push(w, tally.fresh as f64 / n);
        c.stale.push(w, tally.stale as f64 / n);
        c.served.push(w, (tally.fresh + tally.stale) as f64 / n);
        let rate = self.slo.burn_rate();
        c.burn.push(w, rate.min(1e6)); // saturated burn stays JSON-finite
        c.breach.observe(w, rate);
        let deg = self
            .tiers
            .iter()
            .filter(|t| t.router.phase() == DrillPhase::Degraded)
            .count();
        c.degraded.push(w, deg as f64);
        c.max_degraded = c.max_degraded.max(deg);
        tally
    }

    /// Joins every restore and stops every replication link.
    fn close(&mut self) {
        for node in &mut self.nodes {
            retire(
                node,
                &self.strategy,
                &mut self.restores,
                &mut self.replication,
            );
        }
    }

    /// The rebalance warning: the router enters `Warning` and the strategy
    /// arms. Replay starts warming the replacement now; Hybrid cuts its
    /// stream from the still-live primary, keeps it for the kill, and
    /// re-points the primary's tap at a fresh queue, so everything
    /// written after the cut becomes the top-up tail.
    fn warn(&mut self, node: NodeId) {
        marker(self.tracer.as_ref(), "warning");
        let i = self.index(node);
        self.tiers[i].router.on_warning();
        if let RecoveryStrategy::Replay(_) = self.strategy {
            return self.launch(i, None, Vec::new());
        }
        let n = &mut self.nodes[i];
        let mut ckpt = Vec::new();
        write_checkpoint(
            &n.primary,
            0,
            &mut ckpt,
            Some(&self.obs),
            self.tracer.as_deref(),
        )
        .expect("warning-window checkpoint cut");
        let tail = ReplicationQueue::new(65_536, Some(HOT_PREFIX.as_bytes().to_vec()));
        n.primary.set_mutation_sink(Some(tail.clone()));
        n.cut = Some((ckpt, tail));
    }

    /// The revocation: the primary's server dies mid-traffic, the router
    /// degrades, and the replication stream dies with its source. A node
    /// whose restore already finished cuts over at once.
    fn kill(&mut self, node: NodeId) {
        marker(self.tracer.as_ref(), "kill");
        self.curves.detector.record(self.window, 1);
        let i = self.index(node);
        let (n, tiers) = (&mut self.nodes[i], &mut self.tiers[i]);
        if let Some(mut srv) = n.primary_srv.take() {
            srv.stop();
        }
        tiers.set_tier(ServeTarget::Primary, None);
        tiers.router.on_revoked();
        if let Some(backup) = &mut n.backup {
            backup.repl.stop();
        }
        if self.restores.contains_key(&node) {
            tiers.router.on_warmed();
            marker(self.tracer.as_ref(), "warmed");
        }
    }

    /// The replacement comes up: starts the restore unless the warning
    /// already did. Hybrid ships a tail on top of its checkpoint — the
    /// writes since the warning's cut, or, unwarned, the dead stream's
    /// undelivered backlog; Replay ignores both.
    fn restart(&mut self, node: NodeId) {
        let i = self.index(node);
        let n = &mut self.nodes[i];
        if n.replacement.is_some() {
            return;
        }
        let (ckpt, tail) = match (n.cut.take(), &n.backup) {
            (Some((ckpt, since_cut)), _) => (Some(ckpt), drain(&since_cut)),
            (None, Some(backup)) if matches!(self.strategy, RecoveryStrategy::Hybrid { .. }) => {
                (None, drain(&backup.queue))
            }
            _ => (None, Vec::new()),
        };
        self.launch(i, ckpt, tail);
    }

    /// Starts member `i`'s replacement server and, when the member has a
    /// backup, a thread restoring it through the fleet's strategy from
    /// the backup, `ckpt` (a stream cut at the warning; `None` = cut from
    /// the backup inside the restore) and `tail`. Without a backup there
    /// is nothing to restore: the replacement warms from misses alone.
    fn launch(&mut self, i: usize, ckpt: Option<Vec<u8>>, tail: Vec<Mutation>) {
        let target = new_store(&self.cfg);
        let srv = start_in_lane(PID_REPLACEMENT, &target, &self.obs, self.tracer.as_ref());
        let target_addr = srv.addr();
        self.tiers[i].set_tier(ServeTarget::Replacement, Some(target_addr));
        let node = &mut self.nodes[i];
        node.replacement = Some(srv);
        let Some(backup) = node.backup.as_ref().map(|b| Arc::clone(&b.store)) else {
            return;
        };
        let strategy = self.strategy.clone();
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
        node.restore = Some(restore);
    }

    /// Joins every finished restore; a node already revoked moves to
    /// `Warmed`.
    fn poll(&mut self) {
        for (node, tiers) in self.nodes.iter_mut().zip(&self.tiers) {
            if !node.restore.as_ref().is_some_and(|h| h.is_finished()) {
                continue;
            }
            let handle = node.restore.take().expect("checked above");
            let report = join_restore(handle, node.id, &self.strategy);
            self.restores.insert(node.id, report);
            if tiers.router.phase() == DrillPhase::Degraded {
                tiers.router.on_warmed();
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

/// A scenario's storm timeline on `ring`: its wave and, for a cascade, a
/// second, unwarned wave on the survivors `2 × restart_delay` windows
/// later, while the first wave's replacements still warm. The schedule's
/// RNG is seeded by `seed ^ salt`, so scenarios sharing a salt revoke the
/// same nodes at the same times.
pub(crate) fn scenario_events(ring: &HashRing, seed: u64, sc: &Scenario) -> Vec<StormEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ sc.salt);
    let wave1 = schedule_storm(ring, &[], &sc.storm, &mut rng);
    let mut events = wave1.events.clone();
    if sc.cascade {
        let second = StormSpec {
            start: sc.storm.start + 2 * sc.storm.restart_delay,
            warning: None, // the second spike always lands unwarned
            ..sc.storm
        };
        events.extend(schedule_storm(ring, &wave1.nodes(), &second, &mut rng).events);
    }
    events
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
    let events = scenario_events(fleet.balancer().hot_ring(), cfg.seed, sc);
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
    use spotcache_cache::server::CacheClient;
    use spotcache_recovery::checkpoint::CheckpointConfig;
    use spotcache_recovery::strategy::TopUpConfig;

    /// A one-node fleet over 16 keys, under `strategy`.
    fn one_node(strategy: RecoveryStrategy) -> Fleet {
        let cfg = FleetConfig {
            nodes: 1,
            key_space: 16,
            ops_per_window: 8,
            window: Duration::from_millis(1),
            steady_windows: 1,
            observe_windows: 1,
            warning_windows: 1,
            slo_target: 0.9,
            slo_window_factor: 1,
            detector_window: 1,
            detector_threshold: 1,
            pump: WarmupConfig::default(),
            store_bytes: 1 << 20,
            store_shards: 1,
            seed: 1,
        };
        Fleet::start(&cfg, strategy, &Arc::new(Obs::new()), None, None)
    }

    fn hybrid() -> RecoveryStrategy {
        RecoveryStrategy::Hybrid {
            checkpoint: CheckpointConfig::default(),
            top_up: TopUpConfig::default(),
        }
    }

    #[test]
    #[should_panic(expected = "node 0: hybrid restore failed: link down")]
    fn a_failed_restore_fails_the_run() {
        let mut fleet = one_node(hybrid());
        let restore = std::thread::spawn(|| Err(io::Error::other("link down")));
        while !restore.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        fleet.nodes[0].restore = Some(restore);
        fleet.poll();
    }

    /// A write the primary takes after the warning's checkpoint cut
    /// reaches the replacement only through the Hybrid top-up tail: once
    /// the router is `Warmed`, the replacement answers it fresh, not with
    /// the value the cut holds.
    #[test]
    fn a_write_between_warning_and_kill_reads_fresh_once_warmed() {
        let mut fleet = one_node(hybrid());
        let router = Arc::clone(fleet.router(0));
        fleet.warn(0);
        let primary = fleet
            .primary_addr(0)
            .expect("the primary serves until the kill");
        let mut client = CacheClient::connect(primary).expect("connect to the primary");
        assert_eq!(
            client.set("h0", b"after-the-cut", 0).expect("set"),
            "STORED"
        );
        fleet.kill(0);
        fleet.restart(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while router.phase() != DrillPhase::Warmed {
            assert!(Instant::now() < deadline, "the restore never finished");
            std::thread::sleep(Duration::from_millis(1));
            fleet.poll();
        }
        assert_eq!(
            fleet.restores()[&0].topped_up,
            1,
            "the tail is the one write"
        );
        let plan = router.read_plan();
        assert_eq!(
            (plan.first, plan.fallback),
            (ServeTarget::Replacement, None)
        );
        let replacement = fleet.nodes[0].replacement.as_ref().expect("launched");
        let mut client = CacheClient::connect(replacement.addr()).expect("connect");
        assert_eq!(
            client.get("h0").expect("get").as_deref(),
            Some(&b"after-the-cut"[..])
        );
        fleet.close();
    }

    /// The storm drill's full-mode kill-sets, kill windows and restart
    /// (or warning) windows at seed 42, as the checked-in
    /// `BENCH_storm.json` records them, drawn on the hot ring the drill
    /// fleet's balancer builds. No server starts.
    #[test]
    fn storm_drill_kill_sets_do_not_move() {
        let (cfg, wave) = storm_drill_shape(false, 42);
        let mut lb = LoadBalancer::new();
        lb.set_weights(&uniform(cfg.nodes));
        // Per scenario: killed, kill windows, restart (or warning) windows.
        let expected: [(&str, [&[u64]; 3]); 4] = [
            ("warned", [&[5, 2], &[26, 27], &[10, 11]]),
            ("unwarned", [&[5, 2], &[26, 27], &[32, 33]]),
            (
                "cascade",
                [&[3, 2, 5, 4], &[27, 28, 38, 39], &[31, 35, 43, 46]],
            ),
            (
                "multi_router_degraded",
                [&[5, 3, 4], &[27, 28, 28], &[31, 34, 34]],
            ),
        ];
        for (sc, (name, [killed, kill_windows, restart_windows])) in
            default_scenarios(wave).iter().zip(expected)
        {
            assert_eq!(sc.name, name);
            let events = scenario_events(lb.hot_ring(), cfg.seed, sc);
            let got = |f: fn(&StormEvent) -> u64| events.iter().map(f).collect::<Vec<_>>();
            assert_eq!(got(|e| e.node), killed, "{name}: killed");
            assert_eq!(got(|e| e.kill_at), kill_windows, "{name}: kill windows");
            assert_eq!(
                got(|e| e.warn_at.unwrap_or(e.restart_at)),
                restart_windows,
                "{name}: restart windows"
            );
        }
    }
}
