//! `revocation`: the paper's own contribution under test. Each round runs
//! a primary with the replication tap shipping `h…` keys to a backup,
//! kills the primary without warning, restores an empty replacement with
//! `RecoveryStrategy::Hybrid` on a second thread, and keeps reading through
//! `DegradedRouter` the whole time. `replication`, `recovery` and
//! `router::degraded` do the work here and nothing in the other workloads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spotcache_cache::replication::{
    Mutation, ReplicationConfig, ReplicationQueue, ReplicationStats, Replicator,
};
use spotcache_cache::store::Store;
use spotcache_recovery::checkpoint::CheckpointConfig;
use spotcache_recovery::strategy::{RecoveryStrategy, RestoreContext, RestoreReport, TopUpConfig};
use spotcache_router::degraded::{DegradedRouter, ServeTarget};

use crate::framer::Reply;
use crate::gen::{
    build_pools, check_value, prefill, prefill_where, push_get, push_set, Cmd, MixSpec, Pool,
    ValueSizes,
};
use crate::harness::{availability, CpuProbe, CpuUse, DriftGuard, Node, RunArgs, RunOutput};
use crate::host;
use crate::layers;
use crate::loadgen::{
    roundtrip, run_closed, Checker, ClosedOpts, Conn, FineSlot, Lane, FINE_WINDOW_NS,
};
use crate::stats::{
    first_sustained, median, window_best_quartile, window_median, window_rate, WindowSummary,
};
use crate::workloads::closed::ClosedSpec;

/// Replicated keys (`h…`): the popular half of the key space.
pub const HOT_KEYS: u32 = 300_000;
/// Unreplicated keys (`c…`): the unpopular tail, about 2.4 % of the traffic,
/// so a replacement that holds the hot set again sits well above the
/// recovery threshold even before any cold key is refilled.
pub const COLD_KEYS: u32 = 100_000;
/// Bytes per value.
pub const VALUE_LEN: usize = 100;
/// Kill / restore rounds per run.
pub const ROUNDS: usize = 3;
/// Share of a round spent in steady state before the kill.
pub const STEADY_SHARE: f64 = 3.0 / 8.0;
/// Widest window steady-state throughput and latency use; a steady phase
/// too short for eight of them gets narrower ones (see [`window_ns`]).
pub const WINDOW_NS: u64 = 250_000_000;
/// The observe phase goes on past its nominal length while the fresh-hit
/// rate has not recovered, up to this many times that length: a slow
/// restore then reads as a long recovery, not as the length of the phase.
/// A round that has not recovered even then fails the run.
pub const OBSERVE_CAP: u32 = 3;
/// Fresh-hit rate, as a share of steady state, that counts as recovered.
pub const RECOVERED_FRAC: f64 = 0.9;
/// Consecutive fine windows that must clear [`RECOVERED_FRAC`].
pub const RECOVERED_RUN: usize = 3;
/// How long one synchronous exchange may take before it counts as failed.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(2);

/// The stream: 90/10 get/set, plain Zipf 0.99 over hot + cold keys of
/// 100 B, 16 commands per write, one write outstanding ("16-deep"). Each
/// of the three nodes has a 256 MiB store, which holds everything.
pub const SPEC: ClosedSpec = ClosedSpec {
    name: "revocation",
    capacity: 256 << 20,
    keys: HOT_KEYS + COLD_KEYS,
    theta: 0.99,
    get_frac: 0.9,
    per_batch: 16,
    sizes: ValueSizes::Fixed(VALUE_LEN),
    ttl: (0.0, (1, 1)),
    conns: 1,
    depth: 1,
    pool_batches: 16_384,
    evicting: false,
    clock_every: None,
    hot_cold: Some((HOT_KEYS, COLD_KEYS)),
};

/// Width of the steady-state windows of a round of `round_secs`: an eighth
/// of the steady phase, at most [`WINDOW_NS`].
pub fn window_ns(round_secs: f64) -> u64 {
    ((round_secs * STEADY_SHARE * 1e9 / 8.0) as u64).clamp(FINE_WINDOW_NS, WINDOW_NS)
}

/// The three nodes of a round and the replication link between the first
/// two.
pub struct Trio {
    /// The node that will be revoked.
    pub primary: Node,
    /// The passive backup holding the hot keys.
    pub backup: Node,
    /// The empty replacement.
    pub replacement: Node,
    /// Tap on the primary's store.
    pub queue: Arc<ReplicationQueue>,
    /// Shipper primary → backup.
    pub repl: Replicator,
    /// The round's request stream.
    pub pool: Pool,
    /// Seconds the set-up took.
    pub secs: f64,
    /// Whether every server thread is pinned.
    pub pinned: bool,
}

/// Builds a round: inputs, three prefilled-or-empty nodes, the tap and the
/// shipper.
pub fn setup(mix: &MixSpec, seed: u64) -> Result<Trio, String> {
    let t0 = Instant::now();
    let pool = build_pools(mix, seed, 1, SPEC.pool_batches).remove(0);
    let primary_store = Node::new_store(SPEC.capacity);
    let backup_store = Node::new_store(SPEC.capacity);
    prefill(&primary_store, mix, seed, 0);
    // The backup starts as an exact copy of the primary's hot keys; the
    // stream then only has to carry what changes.
    prefill_where(&backup_store, mix, seed, 0, |k| mix.keys.is_hot(k));
    let err = |e: std::io::Error| format!("server start: {e}");
    let primary = Node::start(primary_store, None, None).map_err(err)?;
    let backup = Node::start(backup_store, None, None).map_err(err)?;
    let replacement = Node::start(Node::new_store(SPEC.capacity), None, None).map_err(err)?;
    let queue = ReplicationQueue::new(1 << 16, Some(vec![mix.keys.hot_prefix]));
    primary.store.set_mutation_sink(Some(queue.clone()));
    let repl = Replicator::start(
        backup.server.addr(),
        Arc::clone(&queue),
        ReplicationConfig::default(),
        None,
        None,
    );
    let pinned = host::pin_server_threads();
    Ok(Trio {
        primary,
        backup,
        replacement,
        queue,
        repl,
        pool,
        secs: t0.elapsed().as_secs_f64(),
        pinned,
    })
}

/// What one round measured.
pub struct Round {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Steady-state windows.
    pub windows: Vec<WindowSummary>,
    /// Width of those windows.
    pub window_ns: u64,
    /// CPU use over the steady phase.
    pub cpu: CpuUse,
    /// Commands sent in the steady phase.
    pub steady_sent: u64,
    /// Steady-state fresh-hit rate.
    pub steady_fresh: f64,
    /// Fine windows of the whole round (steady, then kill → end).
    pub fine: Vec<FineSlot>,
    /// Seconds from the kill to the first of [`RECOVERED_RUN`] windows at
    /// [`RECOVERED_FRAC`] of steady. A round that never got there has
    /// failed the run and carries the length it was observed for.
    pub recovery_s: f64,
    /// Milliseconds `CacheServer::stop` of the primary took.
    pub stop_ms: f64,
    /// The restore's own report.
    pub restore: RestoreReport,
    /// Link statistics at the kill.
    pub repl: ReplicationStats,
    /// Seconds the link was up (for `shipped_per_s`).
    pub repl_secs: f64,
    /// Milliseconds `Replicator::flush` took at a quiesced instant in the
    /// middle of the steady phase (traced runs only, else 0).
    pub lag_ms: f64,
    /// `get`s in the observe phase, and how they were served.
    pub observe: Served,
    /// Hot keys that hold, after the round, an older value than the last
    /// one the replacement itself had acknowledged: the restore wrote over
    /// them (see [`diff_hot_set`]).
    pub items_lost: u64,
    /// Router phase transitions.
    pub transitions: u64,
}

/// How the observe phase's `get`s were answered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    /// All `get`s.
    pub gets: u64,
    /// Answered by the replacement with the last acknowledged value.
    pub fresh: u64,
    /// Answered by the backup.
    pub backup: u64,
    /// Answered by the replacement with an older value than the client
    /// had acknowledged (the restore overwrote a newer write).
    pub stale_replacement: u64,
}

/// State of the synchronous observe-phase driver.
struct Degraded<'a> {
    pool: &'a Pool,
    next_batch: usize,
    replacement: Conn,
    backup: Conn,
    router: &'a DegradedRouter,
    served: Served,
    scratch: Vec<u8>,
    fallback: Vec<Cmd>,
    refill: Vec<Cmd>,
    warmed: bool,
    /// Per key: it is a hot key and the replacement acknowledged a write of
    /// it while the restore was still running. The restore loads the
    /// backup's copy over whatever the replacement holds, so exactly these
    /// keys may come back older than the client's last write; any other
    /// stale answer is wrong.
    raced: Vec<bool>,
}

impl Degraded<'_> {
    /// One write of the stream through the router's current plan. Returns
    /// the commands completed.
    fn step(&mut self, checker: &mut Checker, fine_ns: u64) -> Result<u64, String> {
        let plan = self.router.read_plan();
        debug_assert_eq!(plan.first, ServeTarget::Replacement);
        debug_assert_eq!(self.router.write_target(), ServeTarget::Replacement);
        let i = self.next_batch;
        self.next_batch = (i + 1) % self.pool.batches.len();
        let cmds = self.pool.batch_cmds(i);
        let keys = checker.keys();
        self.fallback.clear();
        self.refill.clear();
        let io = |e: std::io::Error| format!("replacement exchange: {e}");

        // Everything goes to the replacement first: it is both the first
        // read target and the write target of a degraded or warmed router.
        let mut at = 0usize;
        let mut got: Option<Option<u32>> = None; // Some(None) = a bad VALUE
        let served = &mut self.served;
        let fallback = &mut self.fallback;
        let refill = &mut self.refill;
        let router = self.router;
        let has_fallback = plan.fallback.is_some();
        let warmed = self.warmed;
        let raced = &mut self.raced;
        roundtrip(
            &mut self.replacement,
            self.pool.batch_bytes(i),
            cmds.len(),
            EXCHANGE_TIMEOUT,
            |reply| {
                let c = &cmds[at];
                match (c.is_set, reply) {
                    (true, Reply::Stored) => {
                        checker.on_stored(c);
                        raced[c.key as usize] = !warmed && keys.is_hot(c.key);
                    }
                    (false, Reply::Value { key, data, .. }) => {
                        got = Some(match (keys.index(key), check_value(data, c.key)) {
                            (Some(k), Some(v)) if k == c.key && got.is_none() => Some(v),
                            _ => None,
                        });
                        return false;
                    }
                    (false, Reply::End) => {
                        checker.attempted += 1;
                        checker.gets += 1;
                        served.gets += 1;
                        checker.fine.at(fine_ns).gets += 1;
                        match got.take() {
                            Some(Some(v)) if v == checker.expected(c.key) => {
                                served.fresh += 1;
                                checker.hits += 1;
                                checker.fine.at(fine_ns).fresh += 1;
                                router.note_served(Some(ServeTarget::Replacement));
                            }
                            Some(Some(_)) if raced[c.key as usize] => {
                                served.stale_replacement += 1;
                                router.note_served(Some(ServeTarget::Replacement));
                            }
                            // A malformed value, or a stale one the restore
                            // race does not explain.
                            Some(_) => checker.fail(fine_ns),
                            None if has_fallback => fallback.push(*c),
                            // Every hot key was in the backup, so a warmed
                            // replacement that misses one has lost it.
                            None if warmed && keys.is_hot(c.key) => checker.fail(fine_ns),
                            None => {
                                router.note_served(None);
                                refill.push(*c);
                            }
                        }
                    }
                    _ => {
                        checker.attempted += 1;
                        checker.fail(fine_ns);
                        got = None;
                    }
                }
                at += 1;
                true
            },
        )
        .map_err(io)?;

        if !self.fallback.is_empty() {
            self.scratch.clear();
            for c in &self.fallback {
                push_get(&mut self.scratch, &keys.key(c.key));
            }
            let fallback = &self.fallback;
            let mut at = 0usize;
            let mut hit = false;
            let mut bad = false;
            roundtrip(
                &mut self.backup,
                &self.scratch,
                fallback.len(),
                EXCHANGE_TIMEOUT,
                |reply| {
                    let c = &fallback[at];
                    match reply {
                        Reply::Value { key, data, .. } => {
                            hit = true;
                            bad |= keys.index(key) != Some(c.key)
                                || check_value(data, c.key).is_none();
                            false
                        }
                        Reply::End => {
                            if bad {
                                checker.fail(fine_ns);
                            } else if hit {
                                served.backup += 1;
                                router.note_served(Some(ServeTarget::BackupStale));
                            } else {
                                router.note_served(None);
                                refill.push(*c);
                            }
                            hit = false;
                            bad = false;
                            at += 1;
                            true
                        }
                        _ => {
                            checker.fail(fine_ns);
                            at += 1;
                            true
                        }
                    }
                },
            )
            .map_err(|e| format!("backup exchange: {e}"))?;
        }

        if !self.refill.is_empty() {
            // Nobody had the key: fetch it from the (notional) backend and
            // write it through at the router's write target.
            self.scratch.clear();
            for c in &self.refill {
                push_set(
                    &mut self.scratch,
                    &keys,
                    c.key,
                    checker.expected(c.key),
                    0,
                    VALUE_LEN,
                );
            }
            let n = self.refill.len();
            let mut refused = 0u64;
            roundtrip(
                &mut self.replacement,
                &self.scratch,
                n,
                EXCHANGE_TIMEOUT,
                |reply| {
                    refused += u64::from(reply != Reply::Stored);
                    true
                },
            )
            .map_err(io)?;
            for _ in 0..refused {
                checker.fail(fine_ns);
            }
            for c in &self.refill {
                self.raced[c.key as usize] = !warmed && keys.is_hot(c.key);
            }
        }
        Ok(cmds.len() as u64)
    }
}

fn hybrid() -> RecoveryStrategy {
    RecoveryStrategy::Hybrid {
        checkpoint: CheckpointConfig::default(),
        top_up: TopUpConfig::default(),
    }
}

/// What the replacement holds for the hot set after a round, against the
/// client's view.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct HotDiff {
    /// Keys holding an older value than the last acknowledged one, each of
    /// them written by the client while the restore ran: the bulk load and
    /// the top-up store the backup's copy unconditionally, so they write
    /// over a newer value the replacement had already acknowledged. A
    /// defect of the restore path, measured as `recovery.items_lost`.
    pub overwritten: u64,
    /// Keys missing, malformed, or stale without that excuse: wrong.
    pub wrong: u64,
}

/// Compares every hot key of `replacement` with the last value the client
/// had acknowledged. `raced[k]`: the replacement acknowledged a write of
/// `k` while the restore ran.
pub fn diff_hot_set(replacement: &Store, checker: &Checker, raced: &[bool]) -> HotDiff {
    let keys = checker.keys();
    let mut diff = HotDiff::default();
    for k in 0..keys.hot {
        let held = replacement
            .get_at(&keys.key(k), 0)
            .filter(|raw| raw.len() >= 4)
            .and_then(|raw| check_value(&raw[4..], k));
        match held {
            Some(v) if v == checker.expected(k) => {}
            Some(_) if raced[k as usize] => diff.overwritten += 1,
            _ => diff.wrong += 1,
        }
    }
    diff
}

/// Seconds after the kill at which the fresh-hit rate of `after` (the fine
/// windows from the kill on) first held [`RECOVERED_FRAC`] of `steady_fresh`
/// for [`RECOVERED_RUN`] windows.
fn recovered_after(after: &[FineSlot], steady_fresh: f64) -> Option<f64> {
    let rates: Vec<f64> = after
        .iter()
        .map(|s| f64::from(s.fresh) / f64::from(s.gets.max(1)))
        .collect();
    first_sustained(&rates, RECOVERED_FRAC * steady_fresh, RECOVERED_RUN)
        .map(|i| i as f64 * FINE_WINDOW_NS as f64 / 1e9)
}

/// Runs one kill / restore round.
pub fn round(
    mix: &MixSpec,
    seed: u64,
    round_secs: f64,
    guard: &mut DriftGuard,
    measure_lag: bool,
    out: &mut RunOutput,
) -> Result<(Round, bool), String> {
    let mut trio = setup(mix, seed)?;
    let pinned = trio.pinned;
    let repl_t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b69_6c6c);
    // The kill instant is jittered so it does not always fall on the same
    // phase of the replicator's poll interval.
    let steady = Duration::from_secs_f64(round_secs * STEADY_SHARE)
        + Duration::from_micros(rng.gen_range(0..50_000));
    let observe = Duration::from_secs_f64(round_secs * (1.0 - STEADY_SHARE));
    let router = DegradedRouter::new();
    let strategy = hybrid();
    router.set_mode(strategy.mode());
    let mut checker = Checker::new(mix.keys, false);

    // Steady state: closed loop, one write of 16 outstanding, to the primary.
    let conn = Conn::connect(trio.primary.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut lanes = [Lane::new(conn, &trio.pool)];
    let mut lag_ms = 0.0;
    let repl = &trio.repl;
    let window_ns = window_ns(round_secs);
    // A traced round pauses half way to time a flush of the link.
    let parts = if measure_lag { 2 } else { 1 };
    let (windows, cpu, steady_sent) = guard.slice(|| {
        let probe = CpuProbe::start();
        let mut windows = Vec::new();
        let mut sent = 0;
        for part in 0..parts {
            if part > 0 {
                // Quiesced: everything the tap accepted is in the queue or
                // on the wire; how long until the backup has it all?
                let t0 = Instant::now();
                repl.flush(Duration::from_secs(5));
                lag_ms = t0.elapsed().as_secs_f64() * 1e3;
            }
            let stats = run_closed(
                &mut lanes,
                &mut checker,
                ClosedOpts::timed(SPEC.depth, steady / parts, window_ns),
            );
            windows.extend(stats.windows);
            sent += stats.sent;
        }
        (windows, probe.stop(), sent)
    });
    if windows.is_empty() {
        return Err(format!(
            "a steady phase of {:.3} s closed no {} ms window: --seconds is too short",
            steady.as_secs_f64(),
            window_ns / 1_000_000
        ));
    }
    let next_batch = lanes[0].position();
    let broken = lanes[0].broken;
    drop(lanes);
    if broken {
        return Err("the primary connection broke in steady state".into());
    }
    let steady_fresh = checker.hits as f64 / checker.gets.max(1) as f64;
    let kill_slot = (checker.fine.slots_len_ns() / FINE_WINDOW_NS) as usize;

    // The revocation, unwarned: no drain, no checkpoint cut in advance.
    let t_kill = Instant::now();
    let stop_ms = trio.primary.stop();
    router.on_revoked();
    trio.repl.stop();
    let repl_stats = trio.repl.stats();
    let repl_secs = repl_t0.elapsed().as_secs_f64();
    // What the tap had accepted and the link had not shipped becomes the
    // top-up tail.
    let mut tail: Vec<Mutation> = Vec::new();
    trio.queue.drain_into(&mut tail, usize::MAX);

    let backup_store = Arc::clone(&trio.backup.store);
    let target_store = Arc::clone(&trio.replacement.store);
    let target_addr = trio.replacement.server.addr();
    let restore = std::thread::Builder::new()
        .name("bench-restore".into())
        .spawn(move || {
            // Restore work belongs to the nodes, not to the client: it
            // shares the server CPU.
            host::pin_thread(0, host::SERVER_CPU);
            strategy.restore(&RestoreContext {
                backup: &backup_store,
                target_addr,
                target_store: &target_store,
                checkpoint: None,
                tail: &tail,
                now: 0,
                obs: None,
                tracer: None,
            })
        })
        .map_err(|e| format!("spawn restore: {e}"))?;
    let mut restore = Some(restore);
    let mut report: Option<RestoreReport> = None;

    let connect = |n: &Node| Conn::connect(n.server.addr()).map_err(|e| format!("connect: {e}"));
    let mut d = Degraded {
        pool: &trio.pool,
        next_batch,
        replacement: connect(&trio.replacement)?,
        backup: connect(&trio.backup)?,
        router: &router,
        served: Served::default(),
        scratch: Vec::new(),
        fallback: Vec::new(),
        refill: Vec::new(),
        warmed: false,
        raced: vec![false; mix.keys.n as usize],
    };
    let fine_base = kill_slot as u64 * FINE_WINDOW_NS;
    let mut step_err = None;
    loop {
        // Past its nominal length the phase goes on only while the client
        // has not got its fresh-hit rate back.
        let elapsed = t_kill.elapsed();
        if elapsed >= observe {
            let whole = kill_slot + (elapsed.as_nanos() as u64 / FINE_WINDOW_NS) as usize;
            let slots = checker.fine.slots();
            let after = &slots[kill_slot.min(slots.len())..whole.min(slots.len())];
            if elapsed >= observe * OBSERVE_CAP || recovered_after(after, steady_fresh).is_some() {
                break;
            }
        }
        if restore.as_ref().is_some_and(|h| h.is_finished()) {
            let r = restore.take().expect("checked above").join();
            report = Some(
                r.map_err(|_| "the restore thread panicked".to_string())?
                    .map_err(|e| format!("restore: {e}"))?,
            );
            router.on_warmed();
            d.warmed = true;
        }
        let fine_ns = fine_base + t_kill.elapsed().as_nanos() as u64;
        if let Err(e) = d.step(&mut checker, fine_ns) {
            step_err = Some(e);
            break;
        }
    }
    let observe_ns = t_kill.elapsed().as_nanos() as u64;
    let served = d.served;
    let raced = std::mem::take(&mut d.raced);
    drop(d);
    if let Some(h) = restore.take() {
        report = Some(
            h.join()
                .map_err(|_| "the restore thread panicked".to_string())?
                .map_err(|e| format!("restore: {e}"))?,
        );
    }
    let report = report.expect("joined above");
    if let Some(e) = step_err {
        out.violations.push(e);
    }

    let mut fine = std::mem::take(&mut checker.fine).into_slots();
    fine.resize(
        kill_slot + (observe_ns / FINE_WINDOW_NS) as usize,
        FineSlot::default(),
    );
    let observed_s = observe_ns as f64 / 1e9;
    let recovery_s = recovered_after(&fine[kill_slot..], steady_fresh).unwrap_or_else(|| {
        out.violations.push(format!(
            "a round did not get back to {RECOVERED_FRAC} of its steady fresh-hit rate \
             {steady_fresh:.3} within {observed_s:.2} s of the kill (the restore took {:.2} s)",
            report.elapsed.as_secs_f64()
        ));
        observed_s
    });

    let diff = diff_hot_set(&trio.replacement.store, &checker, &raced);
    if diff.wrong > 0 {
        out.violations.push(format!(
            "{} hot keys are missing, malformed or stale in the replacement after the restore \
             although the client wrote none of them while it ran",
            diff.wrong
        ));
    }
    // Every hot key compared counts as one checked output.
    out.attempted += checker.attempted + u64::from(mix.keys.hot);
    out.failed += checker.failed + diff.wrong;
    trio.backup.stop();
    trio.replacement.stop();
    Ok((
        Round {
            setup_s: trio.secs,
            windows,
            window_ns,
            cpu,
            steady_sent,
            steady_fresh,
            fine,
            recovery_s,
            stop_ms,
            restore: report,
            repl: repl_stats,
            repl_secs,
            lag_ms,
            observe: served,
            items_lost: diff.overwritten,
            transitions: router.transitions(),
        },
        pinned,
    ))
}

/// Writes every metric the rounds yield.
pub fn report_rounds(out: &mut RunOutput, rounds: &[Round]) {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let windows: Vec<WindowSummary> = rounds.iter().flat_map(|r| r.windows.clone()).collect();
    out.set("setup_s", med(&|r| r.setup_s));
    out.set("ops_per_s", window_rate(&windows, rounds[0].window_ns));
    out.set("lat_p50_us", window_best_quartile(&windows, |w| w.p50_us));
    out.set(
        "loadgen.batch_p99_us",
        window_median(&windows, |w| w.p99_us),
    );
    out.set("hit_rate", med(&|r| r.steady_fresh));
    // Steady windows sit at the steady rate, so the median the shared
    // definition compares against is the steady fresh-hit rate.
    let fine: Vec<FineSlot> = rounds.iter().flat_map(|r| r.fine.iter().copied()).collect();
    out.set("availability", availability(&fine));
    out.set("recovery.recovery_s", med(&|r| r.recovery_s));

    let cpu = rounds.iter().fold(CpuUse::default(), |mut a, r| {
        a.add(&r.cpu);
        a
    });
    let sent: u64 = rounds.iter().map(|r| r.steady_sent).sum();
    out.set("server.busy_frac", cpu.server_run_s / cpu.secs);
    out.set("server.runq_wait_frac", cpu.server_wait_s / cpu.secs);
    out.set(
        "server.cpu_us_per_op",
        cpu.server_run_s * 1e6 / sent.max(1) as f64,
    );
    out.set("loadgen.busy_frac", cpu.loadgen_run_s / cpu.secs);
    out.set("server.stop_ms", med(&|r| r.stop_ms));

    out.set(
        "replication.shipped_per_s",
        med(&|r| r.repl.shipped as f64 / r.repl_secs),
    );
    out.set(
        "replication.queue_dropped",
        med(&|r| r.repl.queue_dropped as f64),
    );
    out.set(
        "replication.link_errors",
        med(&|r| r.repl.link_errors as f64),
    );
    out.set("replication.lag_ms", med(&|r| r.lag_ms));
    out.set("recovery.topup_items", med(&|r| r.restore.topped_up as f64));
    out.set(
        "recovery.restore_s",
        med(&|r| r.restore.elapsed.as_secs_f64()),
    );
    out.set(
        "recovery.items_lost",
        rounds.iter().map(|r| r.items_lost).sum::<u64>() as f64,
    );
    let cut = |f: &dyn Fn(&spotcache_recovery::checkpoint::CkptWriteReport) -> f64| {
        median(
            &rounds
                .iter()
                .filter_map(|r| r.restore.ckpt_cut.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
    };
    out.set("recovery.ckpt_write_s", cut(&|c| c.elapsed.as_secs_f64()));
    out.set(
        "recovery.ckpt_write_mb_per_s",
        cut(&|c| c.bytes as f64 / 1e6 / c.elapsed.as_secs_f64().max(1e-9)),
    );
    out.set(
        "recovery.ckpt_bytes_per_item",
        cut(&|c| c.bytes as f64 / c.items.max(1) as f64),
    );
    out.set(
        "recovery.ckpt_restore_items_per_s",
        median(
            &rounds
                .iter()
                .filter_map(|r| r.restore.ckpt.as_ref())
                .map(|c| c.items_stored as f64 / c.elapsed.as_secs_f64().max(1e-9))
                .collect::<Vec<_>>(),
        ),
    );
    let gets: u64 = rounds.iter().map(|r| r.observe.gets).sum();
    let sum = |f: &dyn Fn(&Served) -> u64| rounds.iter().map(|r| f(&r.observe)).sum::<u64>() as f64;
    out.set(
        "router.served_backup_frac",
        sum(&|s| s.backup) / gets.max(1) as f64,
    );
    out.set(
        "router.stale_served_frac",
        sum(&|s| s.backup + s.stale_replacement) / gets.max(1) as f64,
    );
    out.set("router.transitions", med(&|r| r.transitions as f64));
}

/// Runs the workload.
pub fn run(args: &RunArgs, pinned_self: bool) -> Result<RunOutput, String> {
    if args.trace {
        return layers::traced_revocation(args, pinned_self);
    }
    let mut out = RunOutput::default();
    let mut guard = DriftGuard::new();
    let mix = SPEC.mix();
    let mut rounds = Vec::new();
    let mut pinned = pinned_self;
    for r in 0..ROUNDS {
        let (round, p) = round(
            &mix,
            args.seed.wrapping_add(r as u64),
            args.seconds / ROUNDS as f64,
            &mut guard,
            false,
            &mut out,
        )?;
        pinned &= p;
        rounds.push(round);
    }
    report_rounds(&mut out, &rounds);
    guard.report(&mut out, pinned);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fill_value, KeySpace};
    use spotcache_cache::protocol::encode_value;

    fn put(store: &Store, keys: &KeySpace, key: u32, version: u32) {
        let mut v = Vec::new();
        fill_value(&mut v, key, version, VALUE_LEN);
        store.set(keys.key(key).to_vec(), encode_value(0, &v));
    }

    fn stored(key: u32, version: u32) -> Cmd {
        Cmd {
            key,
            version,
            off: 0,
            len: 0,
            ttl: 0,
            is_set: true,
        }
    }

    #[test]
    fn only_the_restore_race_excuses_a_stale_hot_key() {
        let keys = KeySpace::hot_cold(5, 3);
        let store = Store::with_capacity(1 << 20);
        let mut checker = Checker::new(keys, false);
        let mut raced = vec![false; keys.n as usize];
        // 0: as acknowledged. 1: written during the restore, then
        // overwritten by it. 2: stale, and nobody wrote it meanwhile.
        // 3: gone. 4: another key's bytes under its name.
        put(&store, &keys, 0, 0);
        put(&store, &keys, 1, 0);
        checker.on_stored(&stored(1, 7));
        raced[1] = true;
        put(&store, &keys, 2, 0);
        checker.on_stored(&stored(2, 3));
        let mut wrong = Vec::new();
        fill_value(&mut wrong, 0, 0, VALUE_LEN);
        store.set(keys.key(4).to_vec(), encode_value(0, &wrong));
        // Cold keys are not the restore's business.
        checker.on_stored(&stored(6, 9));
        assert_eq!(
            diff_hot_set(&store, &checker, &raced),
            HotDiff {
                overwritten: 1,
                wrong: 3
            }
        );
    }

    #[test]
    fn recovery_is_the_first_sustained_return_to_the_steady_rate() {
        let slot = |fresh| FineSlot {
            gets: 100,
            fresh,
            failed: 0,
        };
        // 30 ms dark, one lucky window, 20 ms poor, then back for good.
        let mut after = vec![FineSlot::default(); 3];
        after.extend([slot(95), slot(40), slot(60)]);
        after.extend([slot(93); 5]);
        assert_eq!(recovered_after(&after, 1.0), Some(0.06));
        assert_eq!(recovered_after(&after[..8], 1.0), None);
        assert_eq!(recovered_after(&[], 1.0), None);
    }

    #[test]
    fn steady_windows_shrink_with_the_round() {
        // The contract length: 6 s rounds, 2.25 s steady, nine 250 ms windows.
        assert_eq!(window_ns(6.0), WINDOW_NS);
        // --smoke: 0.67 s rounds, 0.25 s steady, eight windows.
        assert_eq!(window_ns(2.0 / 3.0), 31_250_000);
        assert_eq!(window_ns(0.01), FINE_WINDOW_NS);
    }
}
