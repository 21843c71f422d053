//! The traced run: the per-layer ledger of one workload.
//!
//! Everything is measured from outside the program: harness timers and
//! harness spans around public calls, `schedstat`, `Store::stats()` /
//! `snapshot()`, `ReplicationStats`, `RestoreReport`, and — for the one
//! slice that runs with `CacheServer::start_full(.., Some(obs),
//! Some(tracer))` — the program's own registry. A data-plane workload's
//! traced run has four parts:
//!
//! 1. an **untraced** TCP slice (top-down figures: server CPU per command,
//!    busy shares, the client's own cost);
//! 2. a TCP replay of the stream's first [`REPLAY_CMDS`] commands, once
//!    plain and once with obs + tracer attached (tracing overhead,
//!    registry-derived counters and stage times);
//! 3. the same commands **in process**: `parse_request`, `serve_into` and
//!    direct `Store` calls, each against an identically prefilled store,
//!    with one harness span per call;
//! 4. probes of the layers the workload's own traffic does not reach
//!    (`replication` tap, `router`, `recovery`), over the workload's data.
//!
//! A metric no part produced stays out of the output map and is emitted
//! as 0 (see `benchmark/README.md`, "not measured").

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spotcache_cache::protocol::{encode_value, parse_request, serve_into, ParseError, Request};
use spotcache_cache::replication::ReplicationQueue;
use spotcache_cache::server::Clock;
use spotcache_cache::store::Store;
use spotcache_obs::{Obs, TraceConfig, Tracer};
use spotcache_recovery::checkpoint::{restore_checkpoint, write_checkpoint, CheckpointConfig};
use spotcache_recovery::replay::{pump_hot_set, WarmupConfig};
use spotcache_router::degraded::DegradedRouter;
use spotcache_router::hashring::HashRing;

use crate::alloc::thread_allocs;
use crate::gen::{prefill, Cmd, MixSpec, Pool, KEY_LEN};
use crate::harness::{CpuProbe, DriftGuard, Node, RunArgs, RunOutput};
use crate::loadgen::{run_closed, run_open, verify_offline, Checker, ClosedOpts, Lane, OpenOpts};
use crate::spans::{Recorder, ROOT};
use crate::workloads::closed::{self, ClosedSpec, Rig, Telemetry, WINDOW_NS};
use crate::workloads::{paced_get, revocation};

/// Commands of a workload's stream the replays cover.
pub const REPLAY_CMDS: u64 = 200_000;
/// Span trees the program's own tracer samples in the traced slice.
pub const TRACER_SAMPLE_EVERY: u64 = 64;
/// Capacity of the program's span buffer in the traced slice.
pub const TRACER_CAPACITY: usize = 1 << 18;
/// Share of a closed loop's server CPU per command the reconciliation row
/// may leave unexplained, either way, before the run says so in a note
/// (one disturbed 0.1 s replay moves the row, so it does not fail the run).
pub const RESIDUAL_LIMIT: f64 = 0.25;

/// A fresh registry and sampling tracer for a slice that runs with the
/// program's own telemetry on.
fn telemetry() -> Telemetry {
    let tracer = Tracer::new(TraceConfig {
        capacity: TRACER_CAPACITY,
        sample_every: TRACER_SAMPLE_EVERY,
    });
    (Arc::new(Obs::new()), tracer)
}

/// The stream the replays walk: the lanes' batches interleaved the way the
/// load generator starts them, up to `max_cmds` commands.
fn replay_order(pools: &[Pool], max_cmds: u64) -> Vec<(usize, usize)> {
    let mut order = Vec::new();
    let mut cmds = 0u64;
    let mut i = 0usize;
    'outer: loop {
        for (p, pool) in pools.iter().enumerate() {
            let b = i % pool.batches.len();
            order.push((p, b));
            cmds += pool.batch_cmds(b).len() as u64;
            if cmds >= max_cmds {
                break 'outer;
            }
        }
        i += 1;
    }
    order
}

/// What the in-process replay measured.
#[derive(Debug, Default)]
struct InProcess {
    cmds: u64,
    gets: u64,
    sets: u64,
    bytes_in: u64,
    bytes_out: u64,
    parse_ns: u64,
    serve_ns: u64,
    get_ns: u64,
    set_ns: u64,
    flush_ns: u64,
    touches: u64,
    allocs: u64,
    verify_ns: u64,
    verified: bool,
}

/// The value a `set` command stores, as the protocol layer would hand it
/// to the store: the four flag bytes, then the data block.
fn stored_form(cmd_bytes: &[u8]) -> Option<(Bytes, Bytes)> {
    match parse_request(cmd_bytes) {
        Ok((
            Request::Store {
                key, data, flags, ..
            },
            _,
        )) => Some((
            Bytes::copy_from_slice(key),
            Bytes::from(encode_value(flags, data)),
        )),
        _ => None,
    }
}

/// Replays `order` three times without a socket — a parse-only pass, a
/// `serve_into` pass against `serve_store`, a pass of direct store calls
/// against `direct_store` — with one harness span per call, and checks the
/// `serve_into` output. The passes run one after the other, each over the
/// whole stream, so each works on a warm cache as the server does.
#[allow(clippy::too_many_arguments)]
fn replay_in_process(
    mix: &MixSpec,
    pools: &[Pool],
    order: &[(usize, usize)],
    serve_store: &Store,
    direct_store: &Store,
    clock_every: Option<u64>,
    evicting: bool,
    rec: &mut Recorder,
) -> InProcess {
    let mut r = InProcess::default();
    let mut ok = true;
    // Logical time of the `n`-th write, as the client would have set it.
    let now_at = |n: usize| clock_every.map_or(0, |every| n as u64 / every);
    let batches = || {
        order
            .iter()
            .enumerate()
            .map(|(n, &(p, b))| (n as u32, now_at(n), &pools[p], b))
    };

    // protocol, parse only.
    let pass = rec.begin("replay.parse_pass", ROOT, 0);
    for (id, _, pool, b) in batches() {
        let bytes = pool.batch_bytes(b);
        let t0 = rec.now();
        rec.around("protocol.parse_request", pass, id, || {
            let mut off = 0;
            while off < bytes.len() {
                match parse_request(std::hint::black_box(&bytes[off..])) {
                    Ok((req, used)) => {
                        std::hint::black_box(&req);
                        off += used;
                    }
                    Err(ParseError::Incomplete) => break,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
        });
        r.parse_ns += rec.now() - t0;
    }
    rec.end(pass);

    // protocol + store, as the server runs them; then the client's own
    // cost of checking those replies.
    let pass = rec.begin("replay.serve_pass", ROOT, 0);
    let mut checker = Checker::new(mix.keys, evicting);
    let mut out = Vec::with_capacity(64 * 1024);
    for (id, now, pool, b) in batches() {
        let bytes = pool.batch_bytes(b);
        let cmds = pool.batch_cmds(b);
        checker.clock = now as u32;
        out.clear();
        let allocs0 = thread_allocs();
        let t0 = rec.now();
        let consumed = rec.around("protocol.serve_into", pass, id, || {
            serve_into(serve_store, bytes, now, &mut out)
        });
        r.serve_ns += rec.now() - t0;
        r.allocs += thread_allocs() - allocs0;
        ok &= consumed == bytes.len();
        r.bytes_in += bytes.len() as u64;
        r.bytes_out += out.len() as u64;
        r.cmds += cmds.len() as u64;
        let t0 = rec.now();
        ok &= rec.around("loadgen.verify", pass, id, || {
            verify_offline(cmds, &out, &mut checker)
        });
        r.verify_ns += rec.now() - t0;
    }
    rec.end(pass);

    // store, called directly: runs of gets through get_many_into, as the
    // protocol layer batches them; sets one by one; then what a reactor
    // worker does between event batches.
    let pass = rec.begin("replay.store_pass", ROOT, 0);
    let mut got = Vec::new();
    let mut key_buf: Vec<[u8; KEY_LEN]> = Vec::new();
    for (id, now, pool, b) in batches() {
        let cmds = pool.batch_cmds(b);
        let mut i = 0;
        while i < cmds.len() {
            if cmds[i].is_set {
                let c: &Cmd = &cmds[i];
                if let Some((key, raw)) = stored_form(pool.cmd_bytes(c)) {
                    let ttl = (c.ttl != 0).then_some(u64::from(c.ttl));
                    let t0 = rec.now();
                    rec.around("store.set_at", pass, id, || {
                        direct_store.set_at(key, raw, now, ttl)
                    });
                    r.set_ns += rec.now() - t0;
                    r.sets += 1;
                }
                i += 1;
            } else {
                key_buf.clear();
                while i < cmds.len() && !cmds[i].is_set {
                    key_buf.push(mix.keys.key(cmds[i].key));
                    i += 1;
                }
                let t0 = rec.now();
                rec.around("store.get_many_into", pass, id, || {
                    direct_store.get_many_into(key_buf.iter().map(|k| &k[..]), now, &mut got)
                });
                r.get_ns += rec.now() - t0;
                r.gets += key_buf.len() as u64;
                std::hint::black_box(&got);
            }
        }
        let t0 = rec.now();
        let rep = rec.around("store.flush_touches", pass, id, || {
            direct_store.flush_touches(now)
        });
        r.flush_ns += rec.now() - t0;
        r.touches += rep.drained;
    }
    rec.end(pass);

    r.verified = ok && checker.failed == 0;
    r
}

fn report_in_process(out: &mut RunOutput, r: &InProcess) {
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    out.set("protocol.parse_ns_per_cmd", per(r.parse_ns, r.cmds));
    out.set("protocol.serve_us_per_op", per(r.serve_ns, r.cmds) / 1e3);
    out.set(
        "protocol.self_ns_per_cmd",
        per(r.serve_ns.saturating_sub(r.get_ns + r.set_ns), r.cmds),
    );
    out.set("protocol.bytes_in_per_op", per(r.bytes_in, r.cmds));
    out.set("protocol.bytes_out_per_op", per(r.bytes_out, r.cmds));
    out.set("protocol.allocs_per_op", per(r.allocs, r.cmds));
    out.set("store.get_ns_per_key", per(r.get_ns, r.gets));
    out.set("store.set_ns_per_op", per(r.set_ns, r.sets));
    out.set("store.flush_ns_per_touch", per(r.flush_ns, r.touches));
    out.set("loadgen.verify_ns_per_op", per(r.verify_ns, r.cmds));
    out.attempted += r.cmds;
    if !r.verified {
        out.failed += 1;
        out.violations
            .push("the in-process serve_into replay produced a wrong or unframeable reply".into());
    }
}

/// Store-level figures read from `Store::stats()` / `snapshot()` after a
/// slice, plus the two snapshot walks.
fn report_store(out: &mut RunOutput, store: &Store, now: u64) {
    let snap = store.snapshot_at(now);
    out.set("store.evictions", snap.stats.evictions as f64);
    out.set("store.expired", snap.stats.expirations as f64);
    out.set("store.hit_rate", snap.stats.hit_rate());
    let t0 = Instant::now();
    let hot = store.hot_snapshot_at(snap.items, now);
    out.set("store.snapshot_ms", t0.elapsed().as_secs_f64() * 1e3);
    let payload: usize = hot.iter().map(|(k, v, _)| k.len() + v.len()).sum();
    out.set(
        "store.space_amp",
        snap.used_bytes as f64 / payload.max(1) as f64,
    );
}

/// Registry-derived figures of the slice that ran with obs + tracer.
fn report_registry(out: &mut RunOutput, (obs, tracer): &Telemetry, ops: u64) -> f64 {
    let ops_f = ops.max(1) as f64;
    let waits = obs.counter("reactor_epoll_waits_total").get() as f64;
    let events = obs.counter("reactor_events_total").get() as f64;
    out.set("server.epoll_waits_per_op", waits / ops_f);
    out.set("server.events_per_wait", events / waits.max(1.0));
    let read = obs.histogram("stage_read_us");
    let write = obs.histogram("stage_write_us");
    let ready = obs.histogram("stage_ready_us");
    out.set("server.stage_read_us", read.mean());
    out.set("server.stage_write_us", write.mean());
    out.set("server.stage_ready_us", ready.mean());
    out.set(
        "store.rlock_gets",
        obs.counter("store_rlock_gets_total").get() as f64,
    );
    out.set(
        "store.wlock_gets",
        obs.counter("store_wlock_gets_total").get() as f64,
    );
    out.set(
        "store.touch_dropped",
        obs.counter("store_touch_dropped_total").get() as f64,
    );
    out.set("obs.spans_recorded", tracer.len() as f64);
    out.set("obs.spans_dropped", tracer.dropped() as f64);
    // Microseconds of read + write syscalls per command, for the
    // reconciliation row.
    (read.sum() + write.sum()) / ops_f
}

/// Probes of the layers a workload's own traffic does not reach, run over
/// the workload's keys and values. `store` is a prefilled store the probes
/// may mutate; `target` is a live node the pump ships to.
fn probe_layers(out: &mut RunOutput, mix: &MixSpec, pools: &[Pool], store: &Store, target: &Node) {
    // replication: what the tap adds to a set.
    let sets: Vec<(Bytes, Bytes)> = pools
        .iter()
        .flat_map(|p| p.cmds.iter().filter(|c| c.is_set).map(move |c| (p, c)))
        .take(20_000)
        .filter_map(|(p, c)| stored_form(p.cmd_bytes(c)))
        .collect();
    if !sets.is_empty() {
        let time_sets = |store: &Store| {
            let t0 = Instant::now();
            for (k, v) in &sets {
                store.set_at(k.clone(), v.clone(), 0, None);
            }
            t0.elapsed().as_nanos() as f64 / sets.len() as f64
        };
        time_sets(store); // settle: every key present, slabs sized
        let plain = time_sets(store);
        let queue = ReplicationQueue::new(sets.len(), None);
        store.set_mutation_sink(Some(queue.clone()));
        let tapped = time_sets(store);
        store.set_mutation_sink(None);
        out.set("replication.tap_ns_per_set", tapped - plain);
    }

    // router: ring lookup and degraded-mode read plan.
    let ring = HashRing::build(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
    let keys: Vec<[u8; KEY_LEN]> = pools
        .iter()
        .flat_map(|p| p.cmds.iter())
        .take(100_000)
        .map(|c| mix.keys.key(c.key))
        .collect();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for k in &keys {
        acc = acc.wrapping_add(ring.lookup(std::hint::black_box(k)).unwrap_or(0));
    }
    std::hint::black_box(acc);
    out.set(
        "router.lookup_ns_per_key",
        t0.elapsed().as_nanos() as f64 / keys.len().max(1) as f64,
    );
    let router = DegradedRouter::new();
    router.on_revoked();
    let t0 = Instant::now();
    let plans = 1_000_000u32;
    for _ in 0..plans {
        std::hint::black_box(std::hint::black_box(&router).read_plan());
    }
    out.set(
        "router.read_plan_ns",
        t0.elapsed().as_nanos() as f64 / f64::from(plans),
    );

    // recovery: checkpoint cut, bulk load, and the paced pump at full rate.
    let mut ckpt = Vec::new();
    if let Ok(w) = write_checkpoint(store, 0, &mut ckpt, None, None) {
        out.set("recovery.ckpt_write_s", w.elapsed.as_secs_f64());
        out.set(
            "recovery.ckpt_write_mb_per_s",
            w.bytes as f64 / 1e6 / w.elapsed.as_secs_f64().max(1e-9),
        );
        out.set(
            "recovery.ckpt_bytes_per_item",
            w.bytes as f64 / w.items.max(1) as f64,
        );
        let fresh = Node::new_store(store.capacity_bytes());
        if let Ok(r) = restore_checkpoint(
            &mut &ckpt[..],
            &fresh,
            0,
            &CheckpointConfig::default(),
            None,
            None,
        ) {
            out.set(
                "recovery.ckpt_restore_items_per_s",
                r.items_stored as f64 / r.elapsed.as_secs_f64().max(1e-9),
            );
            if r.items_stored != w.items {
                out.violations.push(format!(
                    "checkpoint round trip lost items: wrote {}, restored {}",
                    w.items, r.items_stored
                ));
            }
        }
    }
    let pump = WarmupConfig {
        max_items: 5_000,
        base_rate: 1e9,
        peak_rate: 1e9,
        initial_credits: 1e9,
        tick: Duration::from_millis(1),
        ..WarmupConfig::default()
    };
    if let Ok(rep) = pump_hot_set(store, target.server.addr(), 0, &pump, None, None) {
        out.set("recovery.pump_items_per_s", rep.achieved_rate);
    }
}

fn write_spans(args: &RunArgs, workload: &str, rec: &Recorder, out: &mut RunOutput) {
    let path = args.out_dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(workload, args.seed).render()));
    if let Err(e) = written {
        out.violations
            .push(format!("could not write {}: {e}", path.display()));
    }
}

/// Longest a TCP replay may take: a shallow stream (one command per write,
/// one write outstanding) would otherwise need many seconds for
/// [`REPLAY_CMDS`] commands.
fn replay_cap(args: &RunArgs) -> Duration {
    Duration::from_secs_f64((args.seconds / 8.0).max(0.25))
}

/// One closed-loop TCP pass over the first `REPLAY_CMDS` commands of the
/// stream (or as many as fit in [`replay_cap`]) on a fresh set-up; returns
/// commands per second, commands sent, and the set-up, still running.
fn tcp_replay(
    spec: &ClosedSpec,
    args: &RunArgs,
    traced: Option<&Telemetry>,
    rec: Option<&mut Recorder>,
    out: &mut RunOutput,
) -> Result<(f64, u64, closed::Setup), String> {
    let (s, conns) = closed::setup(spec, args.seed, traced)?;
    let mut rig = Rig::new(spec, &s, conns);
    let t0 = Instant::now();
    let stats = run_closed(
        &mut rig.lanes,
        &mut rig.checker,
        ClosedOpts {
            max_cmds: Some(REPLAY_CMDS),
            clock_step: rig.step.as_mut(),
            spans: rec,
            ..ClosedOpts::timed(spec.depth, replay_cap(args), WINDOW_NS)
        },
    );
    let secs = t0.elapsed().as_secs_f64();
    rig.tally(out);
    drop(rig);
    Ok((stats.sent as f64 / secs, stats.sent, s))
}

/// The reconciliation row: server CPU per command measured from outside
/// (`top_down`, microseconds) against the sum of what the layers account
/// for.
fn reconcile(out: &mut RunOutput, workload: &str, top_down: f64, syscall_us_per_op: f64) {
    let get = |k: &str| out.metrics.get(k).copied().unwrap_or(0.0);
    let serve = get("protocol.serve_us_per_op");
    let protocol_self = get("protocol.self_ns_per_cmd") / 1e3;
    out.set("server.self_us_per_op", top_down - serve);
    let bottom_up = syscall_us_per_op + serve;
    let residual = if top_down > 0.0 {
        (top_down - bottom_up) / top_down
    } else {
        0.0
    };
    out.set("server.syscall_us_per_op", syscall_us_per_op);
    out.set("reconcile.residual_frac", residual);
    eprintln!(
        "reconcile {workload}: 1/ops_per_s x busy_frac = {top_down:.3} us/op | server.self {:.3} \
         (of which read+write syscalls {syscall_us_per_op:.3}) + protocol.self {protocol_self:.3} \
         + store {:.3} | unexplained {:.3} us/op = {residual:.3} of the total",
        top_down - serve,
        serve - protocol_self,
        top_down - bottom_up,
    );
}

/// Parts 2–4 of a traced run. Every data-plane workload describes its
/// stream with a `ClosedSpec`, which is all the replays need. Returns the
/// microseconds of read + write syscalls per command the traced replay's
/// registry accounted for.
fn replays_and_probes(
    spec: &ClosedSpec,
    args: &RunArgs,
    out: &mut RunOutput,
) -> Result<f64, String> {
    let mut rec = Recorder::new();

    // Part 2: TCP, plain then traced, same commands.
    let (plain_ops, _, mut plain) = tcp_replay(spec, args, None, None, out)?;
    out.set("server.stop_ms", plain.node.stop());
    out.set("server.connect_us", plain.connect_us);
    let cmds: u64 = plain.pools.iter().map(|p| p.cmds.len() as u64).sum();
    out.set(
        "loadgen.gen_ns_per_op",
        plain.gen_secs * 1e9 / cmds.max(1) as f64,
    );
    drop(plain);
    let traced = telemetry();
    let (traced_ops, traced_sent, mut s) =
        tcp_replay(spec, args, Some(&traced), Some(&mut rec), out)?;
    out.set("obs.traced_ops_per_s", traced_ops);
    out.set("obs.trace_overhead_frac", 1.0 - traced_ops / plain_ops);
    let syscall_us = report_registry(out, &traced, traced_sent);
    report_store(out, &s.node.store, s.node.clock.now());

    // Part 3: the same commands without a socket.
    let order = replay_order(&s.pools, REPLAY_CMDS);
    let serve_store = Node::new_store(spec.capacity);
    prefill(&serve_store, &s.mix, args.seed, 0);
    let direct_store = Node::new_store(spec.capacity);
    prefill(&direct_store, &s.mix, args.seed, 0);
    let r = replay_in_process(
        &s.mix,
        &s.pools,
        &order,
        &serve_store,
        &direct_store,
        spec.clock_every,
        spec.evicting,
        &mut rec,
    );
    report_in_process(out, &r);
    drop(serve_store);

    // Part 4: the layers this traffic does not reach.
    probe_layers(out, &s.mix, &s.pools, &direct_store, &s.node);
    s.node.stop();
    write_spans(args, spec.name, &rec, out);
    Ok(syscall_us)
}

/// Traced run of `pipelined_mix` / `write_evict`.
pub fn traced_closed(
    spec: &ClosedSpec,
    args: &RunArgs,
    pinned_self: bool,
) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut guard = DriftGuard::new();

    // Part 1: an untraced slice, a third of the run.
    let (mut s, conns) = closed::setup(spec, args.seed, None)?;
    out.set("setup_s", s.secs);
    let pinned = pinned_self && s.node.pinned;
    let mut rig = Rig::new(spec, &s, conns);
    let m = closed::measure(spec, &mut rig, &mut guard, args.seconds / 3.0);
    closed::report_measured(&mut out, &m, rig.checker.gets, rig.checker.hits);
    rig.tally(&mut out);
    drop(rig);
    s.node.stop();
    drop(s);

    let syscall_us = replays_and_probes(spec, args, &mut out)?;
    let top_down = out.metrics["server.cpu_us_per_op"];
    reconcile(&mut out, spec.name, top_down, syscall_us);
    let residual = out.metrics["reconcile.residual_frac"];
    if residual.abs() > RESIDUAL_LIMIT {
        out.notes.push(format!(
            "the ledger does not add up in this run: reconcile.residual_frac {residual:.3} is \
             outside +-{RESIDUAL_LIMIT}"
        ));
    }
    guard.report(&mut out, pinned);
    Ok(out)
}

/// One fresh `paced_get` set-up driven open-loop: all three steps over
/// `seconds` when `all_steps`, else the mid-rate step alone.
fn paced_steps(
    args: &RunArgs,
    traced: Option<&Telemetry>,
    all_steps: bool,
    seconds: f64,
    guard: &mut DriftGuard,
    out: &mut RunOutput,
) -> Result<(Vec<paced_get::Step>, closed::Setup), String> {
    let (mut s, mut conns) = closed::setup(&paced_get::SPEC, args.seed, traced)?;
    let mut lane = Lane::new(conns.pop().expect("one connection"), &s.pools[0]);
    let mut checker = Checker::new(s.mix.keys, false);
    let steps = if all_steps {
        paced_get::steps(&mut lane, &mut checker, guard, args.seed, seconds)
    } else {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let probe = CpuProbe::start();
        let stats = run_open(
            &mut lane,
            &mut checker,
            OpenOpts {
                rate: paced_get::RATES[1],
                duration: Duration::from_secs_f64(seconds.max(1.0)),
                window_ns: WINDOW_NS,
                rng: &mut rng,
                spans: None,
            },
        );
        let mut step = paced_get::Step::new(paced_get::RATES[1]);
        step.absorb_slice(stats, &probe.stop());
        vec![step]
    };
    out.attempted += checker.attempted;
    out.failed += checker.failed;
    drop(lane);
    s.node.stop();
    Ok((steps, s))
}

/// Traced run of `paced_get`: the three steps untraced (the latency grid
/// and the CPU shares), the replays and probes, then the mid-rate step
/// again with obs + tracer attached.
pub fn traced_paced(args: &RunArgs, pinned_self: bool) -> Result<RunOutput, String> {
    let spec = &paced_get::SPEC;
    let mut out = RunOutput::default();
    let mut guard = DriftGuard::new();
    let (steps, s) = paced_steps(args, None, true, args.seconds / 2.0, &mut guard, &mut out)?;
    out.set("setup_s", s.secs);
    let pinned = pinned_self && s.node.pinned;
    drop(s);
    paced_get::report_steps(&mut out, &steps);
    let cpu_per_op = |s: &paced_get::Step| s.cpu.server_run_s * 1e6 / s.stats.sent.max(1) as f64;
    let plain_mid = cpu_per_op(&steps[1]);

    replays_and_probes(spec, args, &mut out)?;

    // An open loop's throughput cannot move, so its tracing overhead is
    // read as server CPU per request at the same rate.
    let traced = telemetry();
    let (traced_steps, _) = paced_steps(
        args,
        Some(&traced),
        false,
        args.seconds / 6.0,
        &mut guard,
        &mut out,
    )?;
    let traced_step = &traced_steps[0];
    out.set("obs.traced_ops_per_s", traced_step.delivered());
    out.set(
        "obs.trace_overhead_frac",
        cpu_per_op(traced_step) / plain_mid - 1.0,
    );
    let syscall_us = report_registry(&mut out, &traced, traced_step.stats.sent);
    // Reconciled at the step the registry figures come from.
    reconcile(&mut out, spec.name, plain_mid, syscall_us);
    guard.report(&mut out, pinned);
    Ok(out)
}

/// Traced run of `revocation`: two rounds as in the untraced run, with the
/// replication lag measured at a quiesced instant, then the replays and
/// probes over the workload's stream against a single node. Where a round
/// and a probe yield the same metric, the round's figure is the one kept.
pub fn traced_revocation(args: &RunArgs, pinned_self: bool) -> Result<RunOutput, String> {
    const ROUNDS: usize = 2;
    let mut out = RunOutput::default();
    let mut guard = DriftGuard::new();
    let mix = revocation::SPEC.mix();
    let mut rounds = Vec::new();
    let mut pinned = pinned_self;
    for r in 0..ROUNDS {
        let (round, p) = revocation::round(
            &mix,
            args.seed.wrapping_add(r as u64),
            args.seconds * 2.0 / 3.0 / ROUNDS as f64,
            &mut guard,
            true,
            &mut out,
        )?;
        pinned &= p;
        rounds.push(round);
    }
    let mut of_rounds = RunOutput::default();
    revocation::report_rounds(&mut of_rounds, &rounds);
    out.violations.append(&mut of_rounds.violations);
    out.set(
        "server.cpu_us_per_op",
        of_rounds.metrics["server.cpu_us_per_op"],
    );
    let syscall_us = replays_and_probes(&revocation::SPEC, args, &mut out)?;
    out.metrics.extend(of_rounds.metrics);
    let top_down = out.metrics["server.cpu_us_per_op"];
    reconcile(&mut out, revocation::SPEC.name, top_down, syscall_us);
    guard.report(&mut out, pinned);
    Ok(out)
}
