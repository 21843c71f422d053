//! revocation_drill: fault-injected revocation drills between real cache
//! servers, across all three recovery strategies (paper §3.3, Fig. 4;
//! ADR-003).
//!
//! Stands up a primary / backup / replacement trio of in-process
//! `CacheServer`s wired the way the paper wires spot nodes to their
//! burstable backups: the primary's hot-key mutations replicate through a
//! fault-injectable proxy into the backup, and on revocation a
//! [`RecoveryStrategy`] restores the replacement while a
//! [`DegradedRouter`] (told the strategy's
//! [`RecoveryMode`](spotcache_router::degraded::RecoveryMode)) picks
//! serve targets. The drill then:
//!
//! 1. runs a **with-warning** and a **no-warning** revocation for each of
//!    the three strategies — **Replay** (paced hot-set pump), **Checkpoint**
//!    (`spotcache-ckpt-v1` cut at the warning, bulk-loaded into the
//!    replacement), and **Hybrid** (checkpoint restore plus
//!    replication-tail top-up) — recording fresh / served / stale
//!    hit-rate curves for every run;
//! 2. races the two restore mechanisms head to head on the **full** hot
//!    set: the pump at its burstable-governed rate versus a checkpoint
//!    cut + restore, asserting the checkpoint path is faster;
//! 3. drives the replication link through the **failure matrix** (sever,
//!    stall, corrupt) mid-traffic, asserting the link never panics,
//!    surfaces every fault as `repl_*` counters and drill spans, and
//!    converges once healed;
//! 4. compares the measured no-warning Replay recovery against the Fig. 4
//!    [`WarmupModel`] prediction.
//!
//! Results land in `BENCH_drill.json` (schema `spotcache-drill-v2`,
//! checked in; see docs/RUNBOOK.md for the field guide). Flags: `--smoke`
//! (scaled-down CI run), `--out PATH`, `--seed N`, `--trace-out PATH`
//! (Chrome trace with `drill` / `replication` / `checkpoint` spans).
//!
//! Asserted invariants: steady-state mostly hits; every warned drill
//! recovers ≥90% of the steady fresh hit rate within the (scaled)
//! warning window; the unwarned Replay drill is measurably slower than
//! its warned twin; unwarned Checkpoint recovery is no slower than
//! unwarned Replay; the full-set checkpoint restore beats the full-set
//! pump; every injected link fault is observed and healed.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use spotcache_bench::faults::{FaultMode, FaultProxy};
use spotcache_bench::heading;
use spotcache_bench::live::{
    prefill_hot, read_window, start_server, write_artifact, write_trace, Flags, RoutedTiers, Tier,
    WindowTally,
};
use spotcache_cache::replication::{Mutation, ReplicationConfig, ReplicationQueue, Replicator};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::export::validate_prometheus_text;
use spotcache_obs::http::http_get;
use spotcache_obs::{
    trace, Obs, SloWindow, TraceConfig, TraceContext, Tracer, DEFAULT_TRACE_CAPACITY,
};
use spotcache_recovery::checkpoint::{restore_checkpoint, write_checkpoint, CheckpointConfig};
use spotcache_recovery::replay::{pump_hot_set, WarmupConfig};
use spotcache_recovery::strategy::{RecoveryStrategy, RestoreContext, RestoreReport, TopUpConfig};
use spotcache_router::degraded::{DegradedRouter, ServeTarget};
use spotcache_sim::recovery::WarmupModel;
use spotcache_workload::zipf::ScrambledZipfian;

/// Hot-key prefix: only these replicate to the backup (paper §4.2 key
/// partitioner marks hot keys `h`).
const HOT_PREFIX: &[u8] = b"h";
/// Zipf skew for the hot set (YCSB-style).
const THETA: f64 = 0.99;
/// Value payload length (CRLF-free filler).
const VALUE_LEN: usize = 64;
/// Fresh-hit recovery target, as a fraction of the steady-state rate.
const RECOVERY_FRACTION: f64 = 0.9;

// Logical process lanes for the Chrome trace export: every component
// thread is pinned to one of these via `trace::set_thread_pid`, so a
// stitched drill renders router, servers, and replicator side by side.
const PID_DRIVER: u32 = 0;
const PID_PRIMARY: u32 = 1;
const PID_BACKUP: u32 = 2;
const PID_REPLACEMENT: u32 = 3;
const PID_REPLICATOR: u32 = 4;

/// Trace id of the designated stitched drill (the warned Hybrid run):
/// the driver installs this as the root [`TraceContext`], and every
/// propagation hop — client trace lines, replication batch frames, the
/// restore thread — carries it into the other components.
const STITCH_TRACE_ID: u64 = 0xd811_0000_0000_0001;

/// Organic (un-propagated) span trees sample at 1-in-this. Effectively
/// only trees reached by the stitched run's context record, so the span
/// buffer holds the one interesting trace instead of drowning in
/// steady-state serve spans.
const ORGANIC_SAMPLE_EVERY: u64 = 1 << 30;

struct Config {
    smoke: bool,
    out: String,
    trace_out: Option<String>,
    seed: u64,
    hot_keys: u64,
    ops_per_window: usize,
    window: Duration,
    steady_windows: usize,
    warning_windows: usize,
    observe_windows: usize,
    pump: WarmupConfig,
}

impl Config {
    fn from_args() -> Self {
        let mut flags = Flags::from_env();
        let (smoke, out, seed) = flags.artifact_run("BENCH_drill.json");
        let trace_out: Option<String> = flags.value("--trace-out", "a path");
        flags.finish();
        // The 2-minute warning is time-scaled: full mode compresses 120 s
        // to 2 s (60×), smoke to 0.6 s. The pump rate is chosen so an
        // unwarned copy takes noticeably longer than one warning window
        // but still completes inside the observation period.
        let pump = |max_items, rate| WarmupConfig {
            max_items,
            base_rate: rate,
            peak_rate: rate,
            initial_credits: 0.0,
            ..WarmupConfig::default()
        };
        let full = Self {
            smoke,
            out,
            trace_out,
            seed,
            hot_keys: 2_000,
            ops_per_window: 400,
            window: Duration::from_millis(100),
            steady_windows: 10,
            warning_windows: 20, // 2 s scaled warning
            observe_windows: 60, // 6 s
            pump: pump(4_000, 1_000.0),
        };
        if !smoke {
            return full;
        }
        Self {
            hot_keys: 400,
            ops_per_window: 150,
            window: Duration::from_millis(50),
            steady_windows: 6,
            warning_windows: 12, // 0.6 s scaled warning
            observe_windows: 40, // 2 s
            pump: pump(1_000, 600.0),
            ..full
        }
    }

    /// The three drilled strategies, in artifact order.
    fn strategies(&self) -> Vec<RecoveryStrategy> {
        vec![
            RecoveryStrategy::Replay(self.pump.clone()),
            RecoveryStrategy::Checkpoint(CheckpointConfig::default()),
            RecoveryStrategy::Hybrid {
                checkpoint: CheckpointConfig::default(),
                top_up: TopUpConfig::default(),
            },
        ]
    }
}

struct DrillResult {
    strategy: &'static str,
    steady_fresh: f64,
    kill_window: usize,
    /// Per-window tallies; `fresh + stale` is the served (availability)
    /// count.
    samples: Vec<WindowTally>,
    recovery_windows: Option<usize>,
    restore: RestoreReport,
    repl_shipped: u64,
    repl_errors: u64,
}

impl DrillResult {
    fn recovery_secs(&self, window: Duration) -> Option<f64> {
        self.recovery_windows
            .map(|w| w as f64 * window.as_secs_f64())
    }
}

/// One full drill: prefill → replicate → steady state → (warning, where
/// Checkpoint/Hybrid cut their `spotcache-ckpt-v1` stream from the
/// still-live primary) → kill → restore via `strategy` → recovery, all
/// against live servers, with the router in the strategy's
/// [`RecoveryMode`](spotcache_router::degraded::RecoveryMode).
fn run_drill(
    cfg: &Config,
    strategy: &RecoveryStrategy,
    warned: bool,
    stitch: bool,
    obs: &Arc<Obs>,
    tracer: &Arc<Tracer>,
) -> DrillResult {
    let label = if warned { "with-warning" } else { "no-warning" };
    heading(&format!("revocation drill: {} / {label}", strategy.name()));

    let root_ctx = stitch.then_some(TraceContext {
        trace_id: STITCH_TRACE_ID,
        parent_span: 0,
        sampled: true,
    });

    let store_cfg = StoreConfig {
        capacity_bytes: 64 << 20,
        shards: 8,
    };
    let primary = Arc::new(Store::new(store_cfg));
    let backup = Arc::new(Store::new(store_cfg));
    let replacement = Arc::new(Store::new(store_cfg));

    // Each server's threads inherit the logical pid set at spawn time,
    // giving every component its own Chrome-trace process lane.
    let start_in_lane = |pid: u32, store: &Arc<Store>| {
        trace::set_thread_pid(pid);
        let srv = start_server(store, Some(obs), Some(tracer));
        trace::set_thread_pid(PID_DRIVER);
        srv
    };
    let mut primary_srv = start_in_lane(PID_PRIMARY, &primary);
    let mut backup_srv = start_in_lane(PID_BACKUP, &backup);
    let replacement_srv = start_in_lane(PID_REPLACEMENT, &replacement);

    // The stitched run installs its root context only now — after the
    // servers spawned, so their workers do NOT inherit it (they stitch
    // per-connection via `trace` lines instead), but before the
    // replicator spawns, so the shipper thread does: every batch it
    // ships then carries the context to the backup in-band.
    trace::set_thread_context(root_ctx);

    // Replication primary → proxy → backup (the proxy stays in Forward
    // mode here; the link-fault matrix is exercised separately).
    let mut proxy = FaultProxy::start(backup_srv.addr()).expect("fault proxy");
    let queue = ReplicationQueue::new(65_536, Some(HOT_PREFIX.to_vec()));
    primary.set_mutation_sink(Some(queue.clone()));
    trace::set_thread_pid(PID_REPLICATOR);
    let mut repl = Replicator::start(
        proxy.addr(),
        Arc::clone(&queue),
        ReplicationConfig::default(),
        Some(Arc::clone(obs)),
        Some(Arc::clone(tracer)),
    );
    trace::set_thread_pid(PID_DRIVER);

    // Prefill the hot set through the protocol so every value carries the
    // wire framing and every set replicates to the backup.
    prefill_hot(&primary, "h", 0..cfg.hot_keys, VALUE_LEN);
    assert!(
        repl.flush(Duration::from_secs(30)),
        "prefill replication must drain"
    );
    println!(
        "prefilled {} hot keys; backup holds {} items",
        cfg.hot_keys,
        backup.snapshot().items
    );

    let router = Arc::new(DegradedRouter::new());
    router.set_mode(strategy.mode());
    // Availability SLO over the most recent reads: 99% of reads must be
    // served by *some* tier. `/healthz` reports its burn rate live.
    let slo = Arc::new(SloWindow::new(0.99, 4_096));

    // Live telemetry endpoint, attached to the backup (the one server
    // that survives the whole drill): `/metrics`, `/trace`, `/journal`
    // from the shared obs/tracer, plus a `/healthz` assembled from the
    // router's phase machine and the SLO window.
    let hz_router = Arc::clone(&router);
    let hz_slo = Arc::clone(&slo);
    let admin_addr = backup_srv
        .start_admin(
            "127.0.0.1:0",
            Some(Box::new(move || {
                format!(
                    "{{\"status\":\"{}\",\"phase\":\"{}\",\"mode\":\"{}\",\
                     \"slo_target\":{},\"slo_bad_frac\":{:.6},\"slo_burn\":{:.3}}}",
                    if hz_slo.burn_rate() <= 1.0 {
                        "ok"
                    } else {
                        "burning"
                    },
                    hz_router.phase().as_str(),
                    hz_router.mode().as_str(),
                    hz_slo.target(),
                    hz_slo.bad_frac(),
                    hz_slo.burn_rate(),
                )
            })),
        )
        .expect("drill admin endpoint");

    // One routed node; the stitched run announces its root context on
    // every fresh connection so client-side serve spans join the trace.
    let mut tiers = RoutedTiers::new(Arc::clone(&router), root_ctx);
    tiers.set_tier(ServeTarget::Primary, Tier::Remote(primary_srv.addr()));
    tiers.set_tier(ServeTarget::BackupStale, Tier::Remote(backup_srv.addr()));
    tiers.set_tier(
        ServeTarget::Replacement,
        Tier::Remote(replacement_srv.addr()),
    );
    let zipf = ScrambledZipfian::new(cfg.hot_keys, THETA);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ warned as u64);
    let mut samples = Vec::new();
    // One paced window of Zipf reads; any tier answering is good for the
    // availability SLO.
    let value = "x".repeat(VALUE_LEN);
    let mut drive_window = || {
        read_window(
            std::slice::from_mut(&mut tiers),
            |t| t,
            cfg.ops_per_window,
            || (0, format!("h{}", zipf.sample(&mut rng))),
            value.as_bytes(),
            |answered| slo.record(answered.is_some()),
            Instant::now() + cfg.window,
        )
    };
    let rate = |count: usize| count as f64 / cfg.ops_per_window as f64;

    // Steady state.
    for _ in 0..cfg.steady_windows {
        samples.push(drive_window());
    }
    let steady_fresh =
        samples.iter().map(|s| rate(s.fresh)).sum::<f64>() / cfg.steady_windows.max(1) as f64;
    println!("steady-state fresh hit rate: {steady_fresh:.3}");

    // The restore runs on its own thread through the strategy layer.
    // `ckpt` is a stream pre-cut at the warning (None = cut inside the
    // restore, from the backup); `tail` is the replication tail a Hybrid
    // restore ships on top.
    let spawn_restore = |ckpt: Option<Vec<u8>>, tail: Vec<Mutation>| {
        let strategy = strategy.clone();
        let backup = Arc::clone(&backup);
        let target_store = Arc::clone(&replacement);
        let target_addr = replacement_srv.addr();
        let obs = Arc::clone(obs);
        let tracer = Arc::clone(tracer);
        // The restore thread keeps the driver's lane and trace context,
        // so pump/checkpoint spans (and the trace tokens their shipped
        // batches carry) stay inside the stitched drill trace.
        let spawn_pid = trace::thread_pid();
        let spawn_ctx = trace::thread_context();
        std::thread::spawn(move || {
            trace::set_thread_pid(spawn_pid);
            trace::set_thread_context(spawn_ctx);
            let ctx = RestoreContext {
                backup: &backup,
                target_addr,
                target_store: &target_store,
                checkpoint: ckpt.as_deref(),
                tail: &tail,
                now: 0,
                obs: Some(&obs),
                tracer: Some(&tracer),
            };
            strategy.restore(&ctx).expect("restore")
        })
    };
    let mut restore_handle = None;
    // Hybrid bookkeeping: the checkpoint cut at the warning, and the tap
    // that collects the post-cut mutation tail.
    let mut precut: Option<Vec<u8>> = None;
    let mut tail_queue: Option<Arc<ReplicationQueue>> = None;

    if warned {
        tracer.record_at("drill", "warning", tracer.now_us(), 0.0);
        router.on_warning();
        // Drain in-flight replication inside the warning window, then
        // arm the strategy.
        assert!(repl.flush(Duration::from_secs(5)), "warning-window drain");
        match strategy {
            // Replay pre-warms the replacement for the whole warning.
            RecoveryStrategy::Replay(_) => {
                restore_handle = Some(spawn_restore(None, Vec::new()));
            }
            // Checkpoint and Hybrid burst-snapshot the primary's full
            // state while it still lives.
            RecoveryStrategy::Checkpoint(_) | RecoveryStrategy::Hybrid { .. } => {
                let mut buf = Vec::new();
                let cut = write_checkpoint(&primary, 0, &mut buf, Some(obs), Some(tracer))
                    .expect("warning-window checkpoint cut");
                println!(
                    "checkpoint cut at warning: {} items, {} bytes in {:.3}s",
                    cut.items,
                    cut.bytes,
                    cut.elapsed.as_secs_f64()
                );
                if matches!(strategy, RecoveryStrategy::Checkpoint(_)) {
                    // Bulk-load it into the replacement right away.
                    restore_handle = Some(spawn_restore(Some(buf), Vec::new()));
                } else {
                    // Hybrid keeps the cut for the kill and re-points the
                    // primary's tap at a fresh queue, so everything mutated
                    // after the cut becomes the top-up tail.
                    precut = Some(buf);
                    let tq = ReplicationQueue::new(65_536, Some(HOT_PREFIX.to_vec()));
                    primary.set_mutation_sink(Some(tq.clone()));
                    tail_queue = Some(tq);
                }
            }
        }
        for _ in 0..cfg.warning_windows {
            samples.push(drive_window());
        }
    }

    // The revocation: kill the primary's server threads mid-traffic.
    tracer.record_at("drill", "kill", tracer.now_us(), 0.0);
    primary_srv.stop();
    router.on_revoked();
    repl.stop(); // the source is gone; the stream dies with it
    let kill_window = samples.len();

    // Mid-outage live scrape: `/healthz` must reflect the phase machine
    // the instant the primary dies, not at the next artifact dump.
    let (code, health) =
        http_get(admin_addr, "/healthz", Duration::from_secs(2)).expect("healthz scrape");
    assert_eq!(code, 200, "healthz must answer during the outage");
    assert!(
        health.contains("\"phase\":\"degraded\""),
        "healthz must report the kill: {health}"
    );
    assert!(
        health.contains(&format!("\"mode\":\"{}\"", router.mode().as_str())),
        "healthz must report the armed recovery mode: {health}"
    );
    if restore_handle.is_none() {
        let tail = match strategy {
            RecoveryStrategy::Hybrid { .. } => {
                let mut tail = Vec::new();
                match &tail_queue {
                    // Warned: everything the primary wrote after the cut.
                    Some(tq) => tq.drain_into(&mut tail, usize::MAX),
                    // Unwarned: the undelivered backlog the dead stream
                    // never shipped to the backup.
                    None => queue.drain_into(&mut tail, usize::MAX),
                }
                println!("hybrid tail: {} mutations to top up", tail.len());
                tail
            }
            _ => Vec::new(),
        };
        restore_handle = Some(spawn_restore(precut.take(), tail));
    }

    let mut restore_report = None;
    for _ in 0..cfg.observe_windows {
        samples.push(drive_window());
        if restore_handle.as_ref().is_some_and(|h| h.is_finished()) {
            restore_report = Some(
                restore_handle
                    .take()
                    .unwrap()
                    .join()
                    .expect("restore thread"),
            );
            tracer.record_at("drill", "warmed", tracer.now_us(), 0.0);
            router.on_warmed();
        }
    }
    let restore_report = restore_report.unwrap_or_else(|| {
        restore_handle
            .take()
            .expect("restore spawned")
            .join()
            .expect("restore thread")
    });

    // Recovery: first post-kill window whose fresh rate clears 90% of
    // steady state (windows are 1-indexed so "recovered in the first
    // window" still costs one window of degraded service).
    let threshold = RECOVERY_FRACTION * steady_fresh;
    let recovery_windows = samples[kill_window..]
        .iter()
        .position(|s| rate(s.fresh) >= threshold)
        .map(|w| w + 1);
    let stats = repl.stats();
    println!(
        "{} / {label}: kill at window {kill_window}, recovery in {:?} windows \
         ({} items restored in {:.3}s)",
        strategy.name(),
        recovery_windows,
        restore_report.items_restored,
        restore_report.elapsed.as_secs_f64(),
    );

    proxy.stop();
    let counts = router.counts();
    println!(
        "served: {} primary, {} stale-from-backup, {} replacement, {} missed",
        counts.primary, counts.backup_stale, counts.replacement, counts.missed
    );

    // End-of-run live scrape: the Prometheus exposition must parse
    // cleanly and carry the replication counters this run just drove.
    let (code, metrics) =
        http_get(admin_addr, "/metrics", Duration::from_secs(2)).expect("metrics scrape");
    assert_eq!(code, 200, "metrics scrape must succeed");
    validate_prometheus_text(&metrics)
        .unwrap_or_else(|at| panic!("scraped /metrics invalid at line {at}:\n{metrics}"));
    assert!(
        metrics.contains("repl_shipped_total"),
        "scraped metrics must include replication counters"
    );
    trace::set_thread_context(None);

    DrillResult {
        strategy: strategy.name(),
        steady_fresh,
        kill_window,
        samples,
        recovery_windows,
        restore: restore_report,
        repl_shipped: stats.shipped,
        repl_errors: stats.link_errors,
    }
}

/// Full-set restore race (the acceptance case for the checkpoint tier):
/// the pump replaying the backup's whole hot set at its
/// burstable-governed rate, versus a `spotcache-ckpt-v1` cut + bulk
/// restore of the same state. Returns `(items, replay, ckpt_write,
/// ckpt_restore)` timings.
struct FullSetRace {
    items: u64,
    replay: Duration,
    replay_rate: f64,
    ckpt_write: Duration,
    ckpt_restore: Duration,
    ckpt_bytes: u64,
}

fn run_full_set_race(cfg: &Config, obs: &Arc<Obs>, tracer: &Arc<Tracer>) -> FullSetRace {
    heading("full-set restore: replay-at-pump-rate vs checkpoint");
    let store_cfg = StoreConfig {
        capacity_bytes: 64 << 20,
        shards: 8,
    };
    let backup = Arc::new(Store::new(store_cfg));
    prefill_hot(&backup, "h", 0..cfg.hot_keys, VALUE_LEN);

    // Replay leg: full set over the wire at the paced pump rate.
    let replay_store = Arc::new(Store::new(store_cfg));
    let replay_srv = start_server(&replay_store, None, None);
    let pump_cfg = WarmupConfig {
        max_items: cfg.hot_keys as usize,
        ..cfg.pump.clone()
    };
    let report = pump_hot_set(
        &backup,
        replay_srv.addr(),
        0,
        &pump_cfg,
        Some(obs),
        Some(tracer),
    )
    .expect("full-set pump");
    assert_eq!(
        report.items_pumped as u64, cfg.hot_keys,
        "pump must move the whole set"
    );

    // Checkpoint leg: cut + bulk restore of the same full state.
    let ckpt_store = Store::new(store_cfg);
    let mut buf = Vec::new();
    let wrote = write_checkpoint(&backup, 0, &mut buf, Some(obs), Some(tracer))
        .expect("full-set checkpoint write");
    let restored = restore_checkpoint(
        &mut buf.as_slice(),
        &ckpt_store,
        0,
        &CheckpointConfig::default(),
        Some(obs),
        Some(tracer),
    )
    .expect("full-set checkpoint restore");
    assert_eq!(wrote.items, cfg.hot_keys, "checkpoint must hold the set");
    assert_eq!(
        restored.items_stored, cfg.hot_keys,
        "restore must land the whole set"
    );

    let race = FullSetRace {
        items: cfg.hot_keys,
        replay: report.elapsed,
        replay_rate: report.achieved_rate,
        ckpt_write: wrote.elapsed,
        ckpt_restore: restored.elapsed,
        ckpt_bytes: wrote.bytes,
    };
    println!(
        "full set ({} items): replay {:.3}s at {:.0} items/s; checkpoint {:.4}s \
         (write {:.4}s + restore {:.4}s, {} bytes)",
        race.items,
        race.replay.as_secs_f64(),
        race.replay_rate,
        (race.ckpt_write + race.ckpt_restore).as_secs_f64(),
        race.ckpt_write.as_secs_f64(),
        race.ckpt_restore.as_secs_f64(),
        race.ckpt_bytes,
    );
    race
}

struct LinkFaultOutcome {
    fault: &'static str,
    errors_seen: u64,
    healed: bool,
}

/// Drives the replication link through the failure matrix while writes
/// flow, asserting each fault is observed and healed.
fn run_link_faults(obs: &Arc<Obs>, tracer: &Arc<Tracer>) -> Vec<LinkFaultOutcome> {
    heading("replication link-fault matrix");
    let store_cfg = StoreConfig {
        capacity_bytes: 16 << 20,
        shards: 4,
    };
    let source = Arc::new(Store::new(store_cfg));
    let backup = Arc::new(Store::new(store_cfg));
    let backup_srv = start_server(&backup, None, None);
    let mut proxy = FaultProxy::start(backup_srv.addr()).expect("proxy");
    let queue = ReplicationQueue::new(16_384, None);
    source.set_mutation_sink(Some(queue.clone()));
    let mut repl = Replicator::start(
        proxy.addr(),
        Arc::clone(&queue),
        ReplicationConfig {
            io_timeout: Duration::from_millis(100),
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(20),
            max_batch_retries: 1_000, // long partitions may not drop here
            ..ReplicationConfig::default()
        },
        Some(Arc::clone(obs)),
        Some(Arc::clone(tracer)),
    );

    let mut outcomes = Vec::new();
    let mut key_seq = 0u64;
    for (fault, mode) in [
        ("sever", FaultMode::Sever),
        ("stall", FaultMode::Stall),
        ("corrupt", FaultMode::Corrupt),
    ] {
        let errors_before = repl.stats().link_errors;
        proxy.set_mode(mode);
        // Write through the fault so the shipper hits it repeatedly.
        let fault_until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < fault_until {
            source.set(format!("k{key_seq}").into_bytes(), b"v".to_vec());
            key_seq += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        proxy.set_mode(FaultMode::Forward);
        let sentinel = format!("sentinel-{fault}");
        source.set(sentinel.clone().into_bytes(), fault.as_bytes().to_vec());
        let healed =
            repl.flush(Duration::from_secs(30)) && backup.get(sentinel.as_bytes()).is_some();
        let errors_seen = repl.stats().link_errors - errors_before;
        println!("{fault}: {errors_seen} link errors observed, healed={healed}");
        assert!(errors_seen > 0, "{fault} fault must surface as link errors");
        assert!(healed, "{fault}: stream must converge once the link heals");
        outcomes.push(LinkFaultOutcome {
            fault,
            errors_seen,
            healed,
        });
    }
    let stats = repl.stats();
    assert_eq!(
        stats.shipped + stats.queue_dropped + stats.batch_dropped,
        queue.enqueued(),
        "every mutation must be accounted for"
    );
    repl.stop();
    proxy.stop();
    outcomes
}

/// Fig. 4 model prediction: seconds until warm mass reaches the recovery
/// threshold, with the pump copying hottest-first and misses refilling
/// organically — the same two processes the live Replay drill runs.
fn model_recovery_secs(cfg: &Config) -> f64 {
    let mut model = WarmupModel::new(cfg.hot_keys as f64, 1.0, THETA, 64);
    let read_rate = cfg.ops_per_window as f64 / cfg.window.as_secs_f64();
    let dt = 0.01;
    let mut t = 0.0;
    while model.warmed_mass() < RECOVERY_FRACTION && t < 120.0 {
        model.copy_step(cfg.pump.base_rate * dt);
        model.organic_step(read_rate, dt);
        t += dt;
    }
    t
}

fn curve_json(r: &DrillResult, cfg: &Config, pick: impl Fn(&WindowTally) -> usize) -> String {
    let n = cfg.ops_per_window as f64;
    let vals: Vec<String> = r
        .samples
        .iter()
        .map(|s| format!("{:.4}", pick(s) as f64 / n))
        .collect();
    format!("[{}]", vals.join(","))
}

fn drill_json(r: &DrillResult, cfg: &Config) -> String {
    let pump = r.restore.pump.as_ref().map_or("null".into(), |p| {
        format!(
            "{{\"items\":{},\"elapsed_s\":{:.3},\"rate_items_per_s\":{:.1},\"io_errors\":{}}}",
            p.items_pumped,
            p.elapsed.as_secs_f64(),
            p.achieved_rate,
            p.io_errors
        )
    });
    let ckpt_cell = |items: u64, bytes: u64, elapsed: Duration| {
        let secs = elapsed.as_secs_f64();
        format!("{{\"items\":{items},\"bytes\":{bytes},\"elapsed_s\":{secs:.4}}}")
    };
    let (ckpt, ckpt_cut) = (r.restore.ckpt.as_ref(), r.restore.ckpt_cut.as_ref());
    let ckpt = ckpt.map_or("null".into(), |c| {
        ckpt_cell(c.items_stored, c.bytes, c.elapsed)
    });
    let ckpt_cut = ckpt_cut.map_or("null".into(), |c| ckpt_cell(c.items, c.bytes, c.elapsed));
    format!(
        "{{\"strategy\":\"{}\",\"steady_fresh_rate\":{:.4},\"kill_window\":{},\
         \"recovery_windows\":{},\"recovery_s\":{},\
         \"restore_items\":{},\"restore_elapsed_s\":{:.4},\"topped_up\":{},\
         \"pump\":{},\"ckpt\":{},\"ckpt_cut\":{},\
         \"repl_shipped\":{},\"repl_link_errors\":{},\
         \"fresh\":{},\"served\":{},\"stale\":{}}}",
        r.strategy,
        r.steady_fresh,
        r.kill_window,
        r.recovery_windows.map_or("null".into(), |w| w.to_string()),
        r.recovery_secs(cfg.window)
            .map_or("null".into(), |s| format!("{s:.3}")),
        r.restore.items_restored,
        r.restore.elapsed.as_secs_f64(),
        r.restore.topped_up,
        pump,
        ckpt,
        ckpt_cut,
        r.repl_shipped,
        r.repl_errors,
        curve_json(r, cfg, |s| s.fresh),
        curve_json(r, cfg, |s| s.fresh + s.stale),
        curve_json(r, cfg, |s| s.stale),
    )
}

fn main() {
    let cfg = Config::from_args();
    heading("Revocation drill (all recovery strategies)");
    let obs = Arc::new(Obs::new());
    // Edge-sampled: organic span trees effectively never record; only
    // the stitched run's propagated context (sampled at the driver, the
    // edge) forces recording downstream, plus the always-recorded
    // logical drill markers. The buffer then holds one coherent trace.
    let tracer = Tracer::new(TraceConfig {
        capacity: DEFAULT_TRACE_CAPACITY,
        sample_every: ORGANIC_SAMPLE_EVERY,
    });
    tracer.register_process(PID_DRIVER, "drill-router");
    tracer.register_process(PID_PRIMARY, "primary-server");
    tracer.register_process(PID_BACKUP, "backup-server");
    tracer.register_process(PID_REPLACEMENT, "replacement-server");
    tracer.register_process(PID_REPLICATOR, "replicator");
    trace::set_thread_pid(PID_DRIVER);
    tracer.register_current_thread("drill-driver");

    // 3 strategies × {with, without} the 2-minute warning, every run
    // driving the DegradedRouter through its full phase machine. The
    // warned Hybrid run is the designated stitched trace: it alone
    // exercises every propagation hop (client trace lines, replication
    // frames, checkpoint cut, and the top-up tail to the replacement).
    let mut results: Vec<(DrillResult, DrillResult)> = Vec::new();
    for strategy in &cfg.strategies() {
        let stitch = matches!(strategy, RecoveryStrategy::Hybrid { .. });
        let warned = run_drill(&cfg, strategy, true, stitch, &obs, &tracer);
        let unwarned = run_drill(&cfg, strategy, false, false, &obs, &tracer);
        results.push((warned, unwarned));
    }

    // The stitched run must have produced one trace tree spanning the
    // distributed components — router/driver, servers, replicator — all
    // sharing the root trace id the driver installed.
    let stitched_pids: BTreeSet<u32> = tracer
        .spans()
        .iter()
        .filter(|s| s.trace_id == STITCH_TRACE_ID)
        .map(|s| s.pid)
        .collect();
    println!(
        "stitched trace {STITCH_TRACE_ID:#018x}: spans from {} logical processes {stitched_pids:?}",
        stitched_pids.len()
    );
    assert!(
        stitched_pids.len() >= 3,
        "stitched drill trace must span >=3 logical processes, got {stitched_pids:?}"
    );
    let race = run_full_set_race(&cfg, &obs, &tracer);
    let faults = run_link_faults(&obs, &tracer);
    let model_s = model_recovery_secs(&cfg);

    let warning_s = cfg.warning_windows as f64 * cfg.window.as_secs_f64();
    let recovery = |r: &DrillResult, label: &str| -> f64 {
        r.recovery_secs(cfg.window).unwrap_or_else(|| {
            panic!(
                "{} {label} drill must recover within the observation period",
                r.strategy
            )
        })
    };
    println!();
    for (warned, unwarned) in &results {
        let w = recovery(warned, "warned");
        let u = recovery(unwarned, "unwarned");
        println!(
            "{}: recovery to {:.0}% of steady state: warned {w:.2}s, unwarned {u:.2}s",
            warned.strategy,
            RECOVERY_FRACTION * 100.0
        );
        obs.gauge(&format!("drill_{}_warned_recovery_s", warned.strategy))
            .set(w);
        obs.gauge(&format!("drill_{}_unwarned_recovery_s", warned.strategy))
            .set(u);

        // Invariants that hold for every strategy.
        assert!(
            warned.steady_fresh >= 0.8 && unwarned.steady_fresh >= 0.8,
            "{}: steady state must mostly hit, got {:.3}/{:.3}",
            warned.strategy,
            warned.steady_fresh,
            unwarned.steady_fresh
        );
        assert!(
            w <= warning_s,
            "{}: warned recovery ({w:.2}s) must fit the warning window ({warning_s:.2}s)",
            warned.strategy
        );
    }
    println!("Fig.4 model (no warning, replay): {model_s:.2}s");

    let (replay_w, replay_u) = (&results[0].0, &results[0].1);
    let replay_warned_s = recovery(replay_w, "warned");
    let replay_unwarned_s = recovery(replay_u, "unwarned");
    let ckpt_unwarned_s = recovery(&results[1].1, "unwarned");

    // v1-compatible summary gauges (replay is the paper's §3.3 path).
    obs.gauge("drill_steady_fresh_rate")
        .set(replay_w.steady_fresh);
    obs.gauge("drill_warned_recovery_s").set(replay_warned_s);
    obs.gauge("drill_unwarned_recovery_s")
        .set(replay_unwarned_s);
    obs.gauge("drill_model_recovery_s").set(model_s);
    obs.gauge("drill_warning_window_s").set(warning_s);
    obs.gauge("drill_full_set_replay_s")
        .set(race.replay.as_secs_f64());
    obs.gauge("drill_full_set_checkpoint_s")
        .set((race.ckpt_write + race.ckpt_restore).as_secs_f64());

    // The paper's claim, asserted live: a warned Replay revocation hides
    // nearly the whole outage inside the warning window; an unwarned one
    // pays the paced copy time in degraded service.
    assert!(
        replay_unwarned_s >= replay_warned_s + 2.0 * cfg.window.as_secs_f64(),
        "no-warning replay recovery ({replay_unwarned_s:.2}s) must be measurably slower \
         than warned ({replay_warned_s:.2}s)"
    );
    // ADR-003's claim, asserted live: bulk-loading full state beats
    // replaying it at the pump rate.
    assert!(
        ckpt_unwarned_s <= replay_unwarned_s,
        "unwarned checkpoint recovery ({ckpt_unwarned_s:.2}s) must not lose to \
         unwarned replay ({replay_unwarned_s:.2}s)"
    );
    let ckpt_total = race.ckpt_write + race.ckpt_restore;
    assert!(
        ckpt_total < race.replay,
        "full-set checkpoint ({:.3}s) must beat replay-at-pump-rate ({:.3}s)",
        ckpt_total.as_secs_f64(),
        race.replay.as_secs_f64()
    );
    if !cfg.smoke {
        let ratio = replay_unwarned_s / model_s.max(1e-9);
        assert!(
            (1.0 / 6.0..=6.0).contains(&ratio),
            "no-warning replay recovery {replay_unwarned_s:.2}s strays from Fig.4 \
             model {model_s:.2}s (x{ratio:.2})"
        );
    }

    let strategy_cells: Vec<String> = results
        .iter()
        .map(|(w, u)| {
            format!(
                "\"{}\":{{\"with_warning\":{},\"no_warning\":{}}}",
                w.strategy,
                drill_json(w, &cfg),
                drill_json(u, &cfg)
            )
        })
        .collect();
    let fault_cells: Vec<String> = faults
        .iter()
        .map(|f| {
            format!(
                "\"{}\":{{\"link_errors\":{},\"healed\":{}}}",
                f.fault, f.errors_seen, f.healed
            )
        })
        .collect();
    let race_json = format!(
        "{{\"items\":{},\"replay_s\":{:.3},\"replay_rate_items_per_s\":{:.1},\
         \"checkpoint_write_s\":{:.4},\"checkpoint_restore_s\":{:.4},\
         \"checkpoint_s\":{:.4},\"checkpoint_bytes\":{},\"speedup\":{:.1}}}",
        race.items,
        race.replay.as_secs_f64(),
        race.replay_rate,
        race.ckpt_write.as_secs_f64(),
        race.ckpt_restore.as_secs_f64(),
        ckpt_total.as_secs_f64(),
        race.ckpt_bytes,
        race.replay.as_secs_f64() / ckpt_total.as_secs_f64().max(1e-9),
    );
    let json = format!(
        "{{\"schema\":\"spotcache-drill-v2\",\"smoke\":{},\"seed\":{},\
         \"window_s\":{:.3},\"warning_window_s\":{:.3},\"hot_keys\":{},\
         \"pump_base_rate\":{:.1},\"model_recovery_s\":{:.3},\
         \"strategies\":{{{}}},\"full_set_restore\":{},\"link_faults\":{{{}}},\
         \"obs\":{}}}",
        cfg.smoke,
        cfg.seed,
        cfg.window.as_secs_f64(),
        warning_s,
        cfg.hot_keys,
        cfg.pump.base_rate,
        model_s,
        strategy_cells.join(","),
        race_json,
        fault_cells.join(","),
        obs.json_snapshot(),
    );
    write_artifact(&cfg.out, &json);
    if let Some(path) = &cfg.trace_out {
        write_trace(path, &tracer, &["drill", "replication", "checkpoint"]);
    }
    println!("revocation drill OK");
}
