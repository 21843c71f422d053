//! cluster_loadgen: the cluster-level benchmark — N reactor-backed
//! [`CacheServer`]s fronted by the `router` crate on real sockets, measured
//! against a one-node reference taken in the same run.
//!
//! Launches `--nodes` in-process cache servers (each with its own store
//! and observability registry), places the Zipf key space over them with
//! a weighted [`HashRing`], replicates the top-K hottest keys on every
//! node with a [`HotReplicaSet`] (reads sprayed round-robin, writes
//! fanned out to all copies), and drives the 90/10 get/set ScrambledZipf
//! workload (θ=0.99, YCSB-style) across the whole cluster:
//!
//! 1. **baseline** — one command per write/read round trip, and
//! 2. **pipelined** — deep batches per write, each batch bucketed by
//!    owning node, written to every touched node, responses drained in
//!    bulk (the batch-and-shard path, now cluster-wide).
//!
//! The **one-node reference** is a second cluster of exactly one node,
//! driven by the same driver at the same depth, multiget cap and seed
//! ladder; its pipelined slices alternate with the N-node ones so host
//! drift is charged to both. Results land in `BENCH_cluster.json` (schema
//! `spotcache-cluster-v1`, checked in) with per-node and aggregate ops/s,
//! p50/p95/p99, the reference figure and `scaleout_ratio`. The full run
//! asserts aggregate > reference only where the host can resolve it
//! (`host_cores ≥ nodes + conns`) and prints *unresolved* where it cannot.
//!
//! Flags: `--smoke` (small fixed-seed run with an ops/s floor for CI),
//! `--out PATH` (default `BENCH_cluster.json`), `--seed N`, `--conns N`
//! (driver threads, each holding one connection per node), `--nodes N`,
//! `--depth N`, `--batches N` and `--multiget N`. Node 0's admin
//! endpoint is always attached and its address printed, so `/metrics`
//! can be scraped by hand while the load runs.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spotcache_bench::heading;
use spotcache_bench::live::{prefill_hot, start_server, write_artifact, Flags};
use spotcache_cache::server::{CacheServer, ServerConfig};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::{Histogram, Obs};
use spotcache_router::{HashRing, HotReplicaSet, NodeId};
use spotcache_workload::zipf::ScrambledZipfian;

/// Value payload: CRLF-free filler so response framing is unambiguous.
const VALUE_LEN: usize = 100;
/// Fraction of operations that are gets (the rest are sets).
const GET_RATIO: f64 = 0.9;
/// Keys replicated on every node (the hottest head of the Zipf curve).
const HOT_REPLICAS: usize = 8;
/// Default cap on keys coalesced into one multi-get line (`--multiget`).
const MULTIGET_CAP: usize = 16;
/// Store shards per node.
const SHARDS_PER_NODE: usize = 8;

struct Config {
    smoke: bool,
    out: String,
    seed: u64,
    nodes: usize,
    conns: usize,
    key_space: u64,
    baseline_ops: usize,
    pipelined_batches: usize,
    pipeline_depth: usize,
    multiget_cap: usize,
}

impl Config {
    fn from_args() -> Self {
        let mut flags = Flags::from_env();
        let (smoke, out, seed) = flags.artifact_run("BENCH_cluster.json");
        let nodes: Option<usize> = flags.value("--nodes", "a value");
        let conns: Option<usize> = flags.value("--conns", "a value");
        let depth: Option<usize> = flags.value("--depth", "a value");
        let batches: Option<usize> = flags.value("--batches", "a value");
        let multiget = flags
            .value("--multiget", "a value")
            .unwrap_or(MULTIGET_CAP)
            .max(1);
        flags.finish();
        // (nodes, conns, key space, baseline ops, batches, depth)
        let d = if smoke {
            (2, 2, 2_000, 200, 15, 64)
        } else {
            (3, 3, 10_000, 1_000, 400, 384)
        };
        Self {
            smoke,
            out,
            seed,
            nodes: nodes.unwrap_or(d.0).max(1),
            conns: conns.unwrap_or(d.1),
            key_space: d.2,
            baseline_ops: d.3,
            pipelined_batches: batches.unwrap_or(d.4),
            pipeline_depth: depth.unwrap_or(d.5),
            multiget_cap: multiget,
        }
    }
}

/// One cache node: its store, its server, and its own metric registry.
struct Node {
    store: Arc<Store>,
    obs: Arc<Obs>,
    server: CacheServer,
}

/// The routing fabric shared (read-only / atomically) by driver threads.
///
/// The per-key decisions are precomputed at setup into flat tables — the
/// ring and the hot set make the placement, the tables make the per-op
/// lookup O(1), exactly as a production router caches its routing table
/// between control-plane epochs.
struct Fabric {
    hot: HotReplicaSet,
    node_ids: Vec<NodeId>,
    addrs: Vec<SocketAddr>,
    key_space: u64,
    /// Owning node index by key id (ring placement, frozen at setup).
    owner_of: Vec<usize>,
    /// Whether the key id is replicated on every node.
    is_hot: Vec<bool>,
    /// Pre-rendered `keyN` name per key id: the driver hot loop is pure
    /// memcpy, so shared-core cycles go to the servers under test.
    key_name: Vec<Vec<u8>>,
    /// Pre-rendered `set keyN ... <value>\r\n` per key id.
    set_cmd: Vec<Vec<u8>>,
}

impl Fabric {
    fn build(ring: &HashRing, hot: HotReplicaSet, nodes: &[Node], key_space: u64) -> Self {
        let owner_of = (0..key_space)
            .map(|kid| ring.lookup(format!("key{kid}").as_bytes()).expect("ring") as usize)
            .collect();
        let is_hot = (0..key_space)
            .map(|kid| hot.is_replicated(format!("key{kid}").as_bytes()))
            .collect();
        let value = "x".repeat(VALUE_LEN);
        let key_name = (0..key_space)
            .map(|kid| format!("key{kid}").into_bytes())
            .collect();
        let set_cmd = (0..key_space)
            .map(|kid| format!("set key{kid} 0 0 {VALUE_LEN}\r\n{value}\r\n").into_bytes())
            .collect();
        Self {
            hot,
            node_ids: (0..nodes.len() as NodeId).collect(),
            addrs: nodes.iter().map(|n| n.server.addr()).collect(),
            key_space,
            owner_of,
            is_hot,
            key_name,
            set_cmd,
        }
    }

    /// Routes one logical operation: the nodes it must touch.
    /// A hot get goes to one sprayed replica; a hot set fans out to every
    /// node; cold ops go to the ring owner alone.
    fn route(&self, kid: u64, is_get: bool, out: &mut Vec<usize>) {
        out.clear();
        if self.is_hot[kid as usize] {
            if is_get {
                let node = self.hot.route_read(&self.node_ids).expect("nodes");
                out.push(node as usize);
            } else {
                out.extend(0..self.node_ids.len());
            }
        } else {
            out.push(self.owner_of[kid as usize]);
        }
    }
}

/// Counts complete responses in `resp`: every command produces exactly one
/// `END\r\n` (get) or `STORED\r\n` (set) terminator, and neither string can
/// occur inside keys or the CRLF-free filler values.
fn count_responses(resp: &[u8]) -> usize {
    let count = |pat: &[u8]| resp.windows(pat.len()).filter(|w| *w == pat).count();
    count(b"END\r\n") + count(b"STORED\r\n")
}

/// Per-thread, per-phase drive result.
struct DriveResult {
    /// Batch round-trip times, microseconds.
    rtts: Vec<f64>,
    /// Client-visible ops driven (a fanned-out hot set counts once).
    client_ops: usize,
    /// Commands served per node (a fanned-out hot set counts per copy).
    node_ops: Vec<usize>,
}

/// Drives one thread's connections (one per node) for one phase.
fn drive(
    fabric: &Fabric,
    seed: u64,
    batches: usize,
    depth: usize,
    multiget_cap: usize,
) -> DriveResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ScrambledZipfian::new(fabric.key_space, 0.99);
    let n = fabric.addrs.len();
    let mut socks: Vec<TcpStream> = fabric
        .addrs
        .iter()
        .map(|a| {
            let s = TcpStream::connect(a).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    let mut reqs: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut expected: Vec<usize> = vec![0; n];
    // Keys in each node's currently open multi-get line (0 = none):
    // consecutive gets routed to the same node coalesce into one
    // `get k1 k2 ...` command — the router-side batching that feeds the
    // store's shard-grouped multi-get fast path, as production memcached
    // routers (mcrouter et al.) do.
    let mut open_gets: Vec<usize> = vec![0; n];
    let mut resp = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut targets = Vec::with_capacity(n);
    let mut result = DriveResult {
        rtts: Vec::with_capacity(batches),
        client_ops: 0,
        node_ops: vec![0; n],
    };
    for _ in 0..batches {
        for r in &mut reqs {
            r.clear();
        }
        expected.iter_mut().for_each(|e| *e = 0);
        for _ in 0..depth {
            let kid = zipf.sample(&mut rng);
            let is_get = rng.gen_range(0.0..1.0) < GET_RATIO;
            fabric.route(kid, is_get, &mut targets);
            for &t in &targets {
                if is_get {
                    if open_gets[t] == 0 || open_gets[t] >= multiget_cap {
                        if open_gets[t] >= multiget_cap {
                            reqs[t].extend_from_slice(b"\r\n");
                            expected[t] += 1;
                            open_gets[t] = 0;
                        }
                        reqs[t].extend_from_slice(b"get ");
                    } else {
                        reqs[t].push(b' ');
                    }
                    reqs[t].extend_from_slice(&fabric.key_name[kid as usize]);
                    open_gets[t] += 1;
                } else {
                    // A set closes the node's open get line first so the
                    // per-node command order is preserved.
                    if open_gets[t] > 0 {
                        reqs[t].extend_from_slice(b"\r\n");
                        expected[t] += 1;
                        open_gets[t] = 0;
                    }
                    reqs[t].extend_from_slice(&fabric.set_cmd[kid as usize]);
                    expected[t] += 1;
                }
                result.node_ops[t] += 1;
            }
            result.client_ops += 1;
        }
        for t in 0..n {
            if open_gets[t] > 0 {
                reqs[t].extend_from_slice(b"\r\n");
                expected[t] += 1;
                open_gets[t] = 0;
            }
        }
        let start = Instant::now();
        // Write every touched node first (the batches execute in
        // parallel across servers), then drain node by node.
        for t in 0..n {
            if !reqs[t].is_empty() {
                socks[t].write_all(&reqs[t]).expect("write");
            }
        }
        for t in 0..n {
            if expected[t] == 0 {
                continue;
            }
            resp.clear();
            // Incremental response counting: only bytes not yet scanned
            // are searched (minus a 7-byte overlap for terminators split
            // across reads).
            let mut seen = 0usize;
            let mut scanned = 0usize;
            while seen < expected[t] {
                let got = socks[t].read(&mut chunk).expect("read");
                assert!(got > 0, "node {t} closed mid-batch");
                resp.extend_from_slice(&chunk[..got]);
                let from = scanned.saturating_sub(b"STORED\r\n".len() - 1);
                seen += count_responses(&resp[from..]) - count_responses(&resp[from..scanned]);
                scanned = resp.len();
            }
        }
        result.rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    result
}

/// Aggregate + per-node numbers for one phase.
struct PhaseStats {
    ops_per_sec: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    node_ops_per_sec: Vec<f64>,
}

/// Runs one phase across `cfg.conns` driver threads; each holds a
/// connection to every node.
fn run_phase(
    name: &str,
    fabric: &Arc<Fabric>,
    cfg: &Config,
    seed: u64,
    batches: usize,
    depth: usize,
) -> PhaseStats {
    let (conns, multiget_cap) = (cfg.conns, cfg.multiget_cap);
    let hist = Histogram::new();
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|t| {
            let fabric = Arc::clone(fabric);
            let seed = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1));
            std::thread::spawn(move || drive(&fabric, seed, batches, depth, multiget_cap))
        })
        .collect();
    let mut client_ops = 0usize;
    let mut node_ops = vec![0usize; fabric.addrs.len()];
    for h in handles {
        let r = h.join().expect("driver thread");
        client_ops += r.client_ops;
        for (acc, x) in node_ops.iter_mut().zip(&r.node_ops) {
            *acc += x;
        }
        for rtt in r.rtts {
            hist.record(rtt / depth as f64);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = PhaseStats {
        ops_per_sec: client_ops as f64 / elapsed,
        p50_us: hist.quantile(0.5),
        p95_us: hist.quantile(0.95),
        p99_us: hist.quantile(0.99),
        node_ops_per_sec: node_ops.iter().map(|&o| o as f64 / elapsed).collect(),
    };
    println!(
        "{name}: {client_ops} client ops over {conns} drivers x {} nodes in {elapsed:.3}s \
         -> {:.0} ops/s aggregate (p50 {:.1}us p95 {:.1}us p99 {:.1}us)",
        fabric.addrs.len(),
        stats.ops_per_sec,
        stats.p50_us,
        stats.p95_us,
        stats.p99_us,
    );
    for (i, nps) in stats.node_ops_per_sec.iter().enumerate() {
        println!("  node{i}: {nps:.0} cmds/s");
    }
    stats
}

/// Picks the hot head of the Zipf curve by offline sampling, the same way
/// the control plane's sketch would: draw, count, keep the top-K.
fn build_hot_set(key_space: u64, seed: u64) -> HotReplicaSet {
    let zipf = ScrambledZipfian::new(key_space, 0.99);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_eed0_f40b);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..50_000 {
        *counts.entry(zipf.sample(&mut rng)).or_insert(0) += 1;
    }
    let mut hot = HotReplicaSet::new(HOT_REPLICAS, 2);
    for (kid, count) in counts {
        let key = format!("key{kid}");
        for _ in 0..count {
            hot.observe(key.as_bytes(), count);
        }
    }
    hot.refresh();
    hot
}

/// A live cluster: its nodes and the routing fabric over them.
struct Cluster {
    nodes: Vec<Node>,
    fabric: Arc<Fabric>,
    /// Resolved reactor pool size of every node.
    workers_per_node: usize,
}

impl Cluster {
    /// Stands up `n` nodes (one store + reactor server + registry each),
    /// builds the ring and hot set over them, and prefills every key onto
    /// its owner and every hot key onto every node.
    fn start(cfg: &Config, n: usize) -> Self {
        let workers_per_node = ServerConfig::default().effective_workers_for(SHARDS_PER_NODE);
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let store = Arc::new(Store::new(StoreConfig {
                    capacity_bytes: if cfg.smoke { 32 << 20 } else { 256 << 20 },
                    shards: SHARDS_PER_NODE,
                }));
                let obs = Arc::new(Obs::new());
                let server = start_server(&store, Some(&obs), None);
                // The resolved pool size is part of the benchmark's metadata
                // contract: what we report must be what actually ran.
                assert_eq!(
                    server.workers(),
                    workers_per_node,
                    "node {i}: resolved worker pool diverged from effective_workers_for"
                );
                Node { store, obs, server }
            })
            .collect();
        println!("{n} node(s) up, {workers_per_node} worker(s) x {SHARDS_PER_NODE} shards each");

        // Routing fabric: equal ring weights, hottest keys replicated.
        let weights: Vec<(NodeId, f64)> = (0..n as NodeId).map(|id| (id, 1.0)).collect();
        let ring = HashRing::build(&weights);
        let hot = build_hot_set(cfg.key_space, cfg.seed);
        println!(
            "hot set: {:?}",
            hot.replicated_keys()
                .iter()
                .map(|k| String::from_utf8_lossy(k).into_owned())
                .collect::<Vec<_>>()
        );
        let fabric = Arc::new(Fabric::build(&ring, hot, &nodes, cfg.key_space));
        for (i, node) in nodes.iter().enumerate() {
            let owned = (0..cfg.key_space)
                .filter(|&kid| fabric.is_hot[kid as usize] || fabric.owner_of[kid as usize] == i);
            prefill_hot(&node.store, "key", owned, VALUE_LEN);
        }
        println!(
            "prefilled {} keys x {VALUE_LEN}B across the ring",
            cfg.key_space
        );
        Self {
            nodes,
            fabric,
            workers_per_node,
        }
    }

    fn stop(&mut self) {
        for node in &mut self.nodes {
            node.server.stop();
        }
    }
}

fn best(runs: &[PhaseStats]) -> &PhaseStats {
    runs.iter()
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one pipelined run")
}

fn main() {
    let cfg = Config::from_args();
    heading("Cluster load generator (hashring + hot replicas over N reactors)");

    let mut cluster = Cluster::start(&cfg, cfg.nodes);
    // The one-node reference: the same set-up over a ring of one.
    let mut single = Cluster::start(&cfg, 1);

    let admin = cluster.nodes[0]
        .server
        .start_admin("127.0.0.1:0", None)
        .expect("start admin endpoint on node 0");
    println!("admin endpoint on node0 at {admin}");

    let baseline = run_phase(
        "baseline",
        &cluster.fabric,
        &cfg,
        cfg.seed,
        cfg.baseline_ops,
        1,
    );
    // The pipelined phase is scheduler-noise dominated on a small box
    // (every server, worker, and driver shares the cores), so the full
    // run takes 3 slices per side and reports the best of each; the
    // reference and the cluster alternate so drift hits both alike.
    let mut single_runs = Vec::new();
    let mut pipelined_runs = Vec::new();
    for r in 0..if cfg.smoke { 1 } else { 3 } {
        let seed = cfg.seed + 1 + r;
        let (batches, depth) = (cfg.pipelined_batches, cfg.pipeline_depth);
        for (label, side, runs) in [
            ("single", &single, &mut single_runs),
            ("pipelined", &cluster, &mut pipelined_runs),
        ] {
            let name = format!("{label}_r{r}");
            runs.push(run_phase(&name, &side.fabric, &cfg, seed, batches, depth));
        }
    }
    let pipelined = best(&pipelined_runs);
    let reference = best(&single_runs).ops_per_sec;
    let scaleout = pipelined.ops_per_sec / reference;
    cluster.stop();
    single.stop();

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nodes = &cluster.nodes;
    let workers_per_node = cluster.workers_per_node;
    let per_node_json: Vec<String> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let snap = node.store.snapshot();
            format!(
                "{{\"node\":{i},\"baseline_cmds_per_sec\":{:.1},\
                 \"pipelined_cmds_per_sec\":{:.1},\"connections\":{},\
                 \"gets\":{},\"hits\":{},\"misses\":{},\"stores\":{},\
                 \"items\":{},\"used_bytes\":{},\
                 \"reactor_epoll_waits\":{},\"reactor_wakeups\":{},\
                 \"reactor_rearms\":{}}}",
                baseline.node_ops_per_sec[i],
                pipelined.node_ops_per_sec[i],
                node.obs.counter("server_connections_total").get(),
                node.obs.counter("cache_get_total").get(),
                node.obs.counter("cache_get_hits_total").get(),
                node.obs.counter("cache_get_misses_total").get(),
                node.obs.counter("cache_store_total").get(),
                snap.items,
                snap.used_bytes,
                node.obs.counter("reactor_epoll_waits_total").get(),
                node.obs.counter("reactor_wakeups_total").get(),
                node.obs.counter("reactor_rearms_total").get(),
            )
        })
        .collect();
    let phase_json = |p: &PhaseStats| {
        format!(
            "{{\"ops_per_sec\":{:.1},\"p50_us\":{:.2},\"p95_us\":{:.2},\"p99_us\":{:.2}}}",
            p.ops_per_sec, p.p50_us, p.p95_us, p.p99_us
        )
    };
    let runs_json = |runs: &[PhaseStats]| {
        runs.iter()
            .map(|p| format!("{:.1}", p.ops_per_sec))
            .collect::<Vec<_>>()
            .join(",")
    };
    let json = format!(
        "{{\"schema\":\"spotcache-cluster-v1\",\"smoke\":{},\"seed\":{},\
         \"nodes\":{},\"conns\":{},\"host_cores\":{host_cores},\
         \"pipeline_depth\":{},\"key_space\":{},\
         \"get_ratio\":{GET_RATIO},\"value_len\":{VALUE_LEN},\
         \"hot_replicas\":{HOT_REPLICAS},\"shards_per_node\":{SHARDS_PER_NODE},\
         \"workers_per_node\":{workers_per_node},\
         \"single_server_pipelined_ops_per_sec\":{reference:.1},\
         \"single_server_runs\":[{}],\"scaleout_ratio\":{scaleout:.3},\
         \"baseline\":{},\"pipelined\":{},\"pipelined_runs\":[{}],\
         \"per_node\":[{}]}}",
        cfg.smoke,
        cfg.seed,
        cfg.nodes,
        cfg.conns,
        cfg.pipeline_depth,
        cfg.key_space,
        runs_json(&single_runs),
        phase_json(&baseline),
        phase_json(pipelined),
        runs_json(&pipelined_runs),
        per_node_json.join(","),
    );
    write_artifact(&cfg.out, &json);

    println!(
        "aggregate {:.0} ops/s over {} node(s) vs one-node reference {reference:.0} ops/s: \
         {scaleout:.2}x",
        pipelined.ops_per_sec, cfg.nodes
    );
    if cfg.smoke {
        // Conservative floor for a loaded single-core CI box.
        assert!(
            pipelined.ops_per_sec > 10_000.0,
            "cluster pipelined floor violated: {:.0} ops/s",
            pipelined.ops_per_sec
        );
    } else if cfg.nodes > 1 && host_cores >= cfg.nodes + cfg.conns {
        // Every node and every driver has a core of its own: scale-out
        // must actually scale.
        assert!(
            scaleout > 1.0,
            "cluster aggregate ({:.0} ops/s) must beat the one-node \
             reference ({reference:.0} ops/s) on {host_cores} cores",
            pipelined.ops_per_sec
        );
    } else {
        // Nodes and drivers time-share the cores (or the "cluster" is the
        // reference itself): the ratio is recorded, not judged.
        println!(
            "scale-out unresolved on {host_cores} cores ({} nodes + {} drivers)",
            cfg.nodes, cfg.conns
        );
    }
    println!("cluster loadgen OK");
}
