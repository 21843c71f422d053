//! revocation_drill: fault-injected revocation drills between real cache
//! servers, across both recovery strategies (paper §3.3, Fig. 4;
//! ADR-003).
//!
//! Each drill is a one-node [`Fleet`] wired the way the paper wires spot
//! nodes to their burstable backups: the primary's hot-key mutations
//! replicate into a backup server, and on revocation a
//! [`RecoveryStrategy`] restores a replacement while a
//! [`DegradedRouter`](spotcache_router::degraded::DegradedRouter)
//! (labelled with the strategy's
//! [`RecoveryMode`](spotcache_router::degraded::RecoveryMode)) picks
//! serve targets. The drill then:
//!
//! 1. runs a **with-warning** and a **no-warning** revocation for each of
//!    the two strategies — **Replay** (paced hot-set pump) and **Hybrid**
//!    (`spotcache-ckpt-v1` checkpoint bulk-loaded into the replacement,
//!    plus replication-tail top-up) — recording fresh / served / stale
//!    hit-rate curves for every run;
//! 2. races the two restore mechanisms head to head on the **full** hot
//!    set: the pump at its burstable-governed rate versus a checkpoint
//!    cut + restore, claiming the checkpoint path is faster;
//! 3. drives a replication link through a fault-injectable proxy and the
//!    **failure matrix** (sever, stall, corrupt) mid-traffic: the link
//!    must never panic, and the drill claims it surfaces every fault as
//!    `repl_*` counters and drill spans and converges once healed;
//! 4. compares the measured no-warning Replay recovery against the Fig. 4
//!    [`WarmupModel`] prediction.
//!
//! Results land in `BENCH_drill.json` (schema `spotcache-drill-v3`,
//! checked in; see docs/RUNBOOK.md for the field guide). Flags: `--smoke`
//! (scaled-down CI run), `--out PATH`, `--seed N`, `--trace-out PATH`
//! (Chrome trace with `drill` / `replication` / `checkpoint` spans).
//!
//! Claims (`drill:<slug>`, one [`claim`] line each on standard error,
//! cited in EXPERIMENTS.md): steady state mostly hits; every run
//! recovers and restores items; every warned drill recovers ≥90% of the
//! steady fresh hit rate within the (scaled) warning window; the
//! unwarned Replay drill is measurably slower than its warned twin;
//! unwarned Hybrid recovery is no slower than unwarned Replay; the
//! full-set checkpoint restore beats the full-set pump; every injected
//! link fault is observed and healed; the stitched trace spans the
//! primary, backup and replicator lanes; and, on full runs only, the
//! unwarned Replay recovery lands within 6× of the Fig. 4 model. The
//! artifact and trace are written whatever the verdicts; the drill then
//! exits 1 if a claim broke.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spotcache_bench::faults::{FaultMode, FaultProxy, StormEvent};
use spotcache_bench::fleet::{
    lane_name, register_lanes, Fleet, FleetConfig, FleetRun, RECOVERY_FRACTION, THETA, VALUE_LEN,
};
use spotcache_bench::live::{prefill_hot, start_server, write_artifact, write_trace, Flags};
use spotcache_bench::{claim, claims_hold, heading};
use spotcache_cache::replication::{ReplicationConfig, ReplicationQueue, Replicator};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::export::validate_prometheus_text;
use spotcache_obs::http::http_get;
use spotcache_obs::{DecaySeries, Obs, TraceConfig, TraceContext, Tracer, DEFAULT_TRACE_CAPACITY};
use spotcache_recovery::checkpoint::{restore_checkpoint, write_checkpoint, CheckpointConfig};
use spotcache_recovery::replay::{pump_hot_set, WarmupConfig};
use spotcache_recovery::strategy::{RecoveryStrategy, TopUpConfig};
use spotcache_sim::recovery::WarmupModel;

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
    fleet: FleetConfig,
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
        let full = FleetConfig {
            nodes: 1,
            key_space: 2_000,
            ops_per_window: 400,
            window: Duration::from_millis(100),
            steady_windows: 10,
            warning_windows: 20, // 2 s scaled warning
            observe_windows: 60, // 6 s
            slo_target: 0.99,
            slo_window_factor: 10,
            pump: pump(4_000, 1_000.0),
            store_bytes: 64 << 20,
            store_shards: 8,
            seed,
            detector_window: 1,
            detector_threshold: 1,
        };
        let fleet = if smoke {
            FleetConfig {
                key_space: 400,
                ops_per_window: 150,
                window: Duration::from_millis(50),
                steady_windows: 6,
                warning_windows: 12, // 0.6 s scaled warning
                observe_windows: 40, // 2 s
                pump: pump(1_000, 600.0),
                ..full
            }
        } else {
            full
        };
        Self {
            smoke,
            out,
            trace_out,
            fleet,
        }
    }

    /// The two drilled strategies, in artifact order.
    fn strategies(&self) -> Vec<RecoveryStrategy> {
        vec![
            RecoveryStrategy::Replay(self.fleet.pump.clone()),
            RecoveryStrategy::Hybrid {
                checkpoint: CheckpointConfig::default(),
                top_up: TopUpConfig::default(),
            },
        ]
    }
}

fn recovery_secs(run: &FleetRun, window: Duration) -> Option<f64> {
    run.recovery_windows
        .map(|w| w as f64 * window.as_secs_f64())
}

/// One drill: a one-node fleet restored by `strategy`, revoked once steady
/// state has been measured — at the end of the scaled warning when
/// `warned` — and restored the moment it dies. Its backup server (the one
/// server that lives through the whole drill) carries the live admin
/// endpoint: `/metrics`, `/trace`, `/journal` from the shared
/// obs/tracer, plus a `/healthz` assembled from the router's phase
/// machine and the fleet's freshness SLO, scraped right after the kill.
fn drill(
    cfg: &Config,
    strategy: &RecoveryStrategy,
    warned: bool,
    stitch: bool,
    obs: &Arc<Obs>,
    tracer: &Arc<Tracer>,
) -> FleetRun {
    let label = if warned { "with-warning" } else { "no-warning" };
    heading(&format!("revocation drill: {} / {label}", strategy.name()));
    let f = &cfg.fleet;
    let kill_at = f.steady_windows + if warned { f.warning_windows } else { 0 };
    let event = StormEvent {
        node: 0,
        warn_at: warned.then_some(f.steady_windows),
        kill_at,
        restart_at: kill_at,
    };
    let root_ctx = stitch.then_some(TraceContext {
        trace_id: STITCH_TRACE_ID,
        parent_span: 0,
        sampled: true,
    });
    let mut fleet = Fleet::start(f, strategy.clone(), obs, Some(tracer), root_ctx);

    let router = Arc::clone(fleet.router(0));
    let (hz_router, hz_slo) = (Arc::clone(&router), Arc::clone(fleet.slo()));
    let admin_addr = fleet
        .backup_server(0)
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

    let last_window = kill_at + f.observe_windows - 1;
    let run = fleet.run(&[event], f.seed ^ warned as u64, |w| {
        if w == kill_at {
            // Mid-outage live scrape: `/healthz` must reflect the phase
            // machine the window the primary dies (a restore that finished
            // inside the warning has cut over already), not at the next
            // artifact dump.
            let (code, health) =
                http_get(admin_addr, "/healthz", Duration::from_secs(2)).expect("healthz scrape");
            assert_eq!(code, 200, "healthz must answer during the outage");
            assert!(
                health.contains("\"phase\":\"degraded\"")
                    || health.contains("\"phase\":\"warmed\""),
                "healthz must report the kill: {health}"
            );
            assert!(
                health.contains(&format!("\"mode\":\"{}\"", router.mode().as_str())),
                "healthz must report the armed recovery mode: {health}"
            );
        }
        if w == last_window {
            // End-of-run live scrape: the Prometheus exposition must parse
            // cleanly and carry the replication counters this run drove.
            let (code, metrics) =
                http_get(admin_addr, "/metrics", Duration::from_secs(2)).expect("metrics scrape");
            assert_eq!(code, 200, "metrics scrape must succeed");
            validate_prometheus_text(&metrics)
                .unwrap_or_else(|at| panic!("scraped /metrics invalid at line {at}:\n{metrics}"));
            assert!(
                metrics.contains("repl_shipped_total"),
                "scraped metrics must include replication counters"
            );
        }
    });

    let restore = run.restores.get(&0).expect("the revoked node restores");
    println!(
        "{} / {label}: kill at window {kill_at}, recovery in {:?} windows \
         ({} items restored in {:.3}s)",
        strategy.name(),
        run.recovery_windows,
        restore.items_restored,
        restore.elapsed.as_secs_f64(),
    );
    let counts = router.counts();
    println!(
        "served: {} primary, {} stale-from-backup, {} replacement, {} missed",
        counts.primary, counts.backup_stale, counts.replacement, counts.missed
    );
    run
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
    let f = &cfg.fleet;
    let store_cfg = StoreConfig {
        capacity_bytes: f.store_bytes,
        shards: f.store_shards,
    };
    let backup = Arc::new(Store::new(store_cfg));
    prefill_hot(&backup, "h", 0..f.key_space, VALUE_LEN);

    // Replay leg: full set over the wire at the paced pump rate.
    let replay_store = Arc::new(Store::new(store_cfg));
    let replay_srv = start_server(&replay_store, None, None);
    let pump_cfg = WarmupConfig {
        max_items: f.key_space as usize,
        ..f.pump.clone()
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
        report.items_pumped as u64, f.key_space,
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
    assert_eq!(wrote.items, f.key_space, "checkpoint must hold the set");
    assert_eq!(
        restored.items_stored, f.key_space,
        "restore must land the whole set"
    );

    let race = FullSetRace {
        items: f.key_space,
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
/// flow, recording whether each fault was observed and healed.
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
fn model_recovery_secs(f: &FleetConfig) -> f64 {
    let mut model = WarmupModel::new(f.key_space as f64, 1.0, THETA, 64);
    let read_rate = f.ops_per_window as f64 / f.window.as_secs_f64();
    let dt = 0.01;
    let mut t = 0.0;
    while model.warmed_mass() < RECOVERY_FRACTION && t < 120.0 {
        model.copy_step(f.pump.base_rate * dt);
        model.organic_step(read_rate, dt);
        t += dt;
    }
    t
}

fn curve_json(series: &DecaySeries) -> String {
    let vals: Vec<String> = series
        .points()
        .iter()
        .map(|&(_, v)| format!("{v:.4}"))
        .collect();
    format!("[{}]", vals.join(","))
}

fn drill_json(strategy: &str, r: &FleetRun, cfg: &FleetConfig) -> String {
    let restore = r.restores.get(&0).expect("the revoked node restores");
    let pump = restore.pump.as_ref().map_or("null".into(), |p| {
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
    let (ckpt, ckpt_cut) = (restore.ckpt.as_ref(), restore.ckpt_cut.as_ref());
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
        strategy,
        r.steady_fresh,
        r.last_kill,
        r.recovery_windows.map_or("null".into(), |w| w.to_string()),
        recovery_secs(r, cfg.window).map_or("null".into(), |s| format!("{s:.3}")),
        restore.items_restored,
        restore.elapsed.as_secs_f64(),
        restore.topped_up,
        pump,
        ckpt,
        ckpt_cut,
        r.replication[&0].shipped,
        r.replication[&0].link_errors,
        curve_json(&r.fresh),
        curve_json(&r.served),
        curve_json(&r.stale),
    )
}

fn main() -> ExitCode {
    if !claims_hold(run) {
        return ExitCode::FAILURE;
    }
    println!("revocation drill OK");
    ExitCode::SUCCESS
}

/// The whole drill: every claim is decided before the artifact and the
/// trace are written, and none of them stops the run.
fn run() {
    let cfg = Config::from_args();
    let f = &cfg.fleet;
    heading("Revocation drill (both recovery strategies)");
    let obs = Arc::new(Obs::new());
    // Edge-sampled: organic span trees effectively never record; only
    // the stitched run's propagated context (sampled at the driver, the
    // edge) forces recording downstream, plus the always-recorded
    // logical drill markers. The buffer then holds one coherent trace.
    let tracer = Tracer::new(TraceConfig {
        capacity: DEFAULT_TRACE_CAPACITY,
        sample_every: ORGANIC_SAMPLE_EVERY,
    });
    register_lanes(&tracer);

    // 2 strategies × {with, without} the 2-minute warning, every run
    // driving the DegradedRouter through its full phase machine. The
    // warned Hybrid run is the designated stitched trace: it alone
    // exercises every propagation hop (client trace lines, replication
    // frames, checkpoint cut, and the top-up tail to the replacement).
    let mut results: Vec<(&'static str, FleetRun, FleetRun)> = Vec::new();
    for strategy in &cfg.strategies() {
        let stitch = matches!(strategy, RecoveryStrategy::Hybrid { .. });
        let warned = drill(&cfg, strategy, true, stitch, &obs, &tracer);
        let unwarned = drill(&cfg, strategy, false, false, &obs, &tracer);
        results.push((strategy.name(), warned, unwarned));
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
    let stitched: Vec<&str> = stitched_pids.iter().filter_map(|&p| lane_name(p)).collect();
    println!(
        "stitched trace {STITCH_TRACE_ID:#018x}: spans from {} logical processes {stitched:?}",
        stitched_pids.len()
    );
    claim(
        "drill:stitched_trace",
        stitched_pids.len() >= 3
            && ["primary-server", "backup-server", "replicator"]
                .iter()
                .all(|lane| stitched.contains(lane)),
        format!(
            "trace {STITCH_TRACE_ID:#018x} spans {stitched:?} (>= 3 processes, among them \
             primary-server, backup-server and replicator)"
        ),
    );
    let race = run_full_set_race(&cfg, &obs, &tracer);
    let faults = run_link_faults(&obs, &tracer);
    let model_s = model_recovery_secs(f);

    let warning_s = f.warning_windows as f64 * f.window.as_secs_f64();
    let secs = |r: &FleetRun| recovery_secs(r, f.window);
    let show = |s: Option<f64>| s.map_or("never".to_string(), |s| format!("{s:.2}s"));
    println!();
    for (strategy, warned, unwarned) in &results {
        let (w, u) = (secs(warned), secs(unwarned));
        println!(
            "{strategy}: recovery to {:.0}% of steady state: warned {}, unwarned {}",
            RECOVERY_FRACTION * 100.0,
            show(w),
            show(u)
        );
    }
    println!("Fig.4 model (no warning, replay): {model_s:.2}s");
    let runs = || {
        results
            .iter()
            .flat_map(|(s, w, u)| [(*s, "warned", w), (*s, "unwarned", u)])
    };
    let each = |cell: &dyn Fn(&FleetRun) -> String| {
        runs()
            .map(|(s, label, r)| format!("{s} {label} {}", cell(r)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    claim(
        "drill:steady_state_hits",
        runs().all(|(_, _, r)| r.steady_fresh >= 0.8),
        format!(
            "steady fresh rate {} (>= 0.8)",
            each(&|r| format!("{:.3}", r.steady_fresh))
        ),
    );
    let restored = |r: &FleetRun| r.restores.get(&0).map_or(0, |rep| rep.items_restored);
    claim(
        "drill:every_run_recovers",
        runs().all(|(_, _, r)| secs(r).is_some() && restored(r) > 0),
        format!(
            "recovered in {} (within the observation period, > 0 items restored)",
            each(&|r| format!("{} with {} items", show(secs(r)), restored(r)))
        ),
    );
    claim(
        "drill:warned_within_warning",
        results
            .iter()
            .all(|(_, w, _)| secs(w).is_some_and(|s| s <= warning_s)),
        format!(
            "warned recovery {} (<= the {warning_s:.2}s warning window)",
            results
                .iter()
                .map(|(s, w, _)| format!("{s} {}", show(secs(w))))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );

    let (_, replay_w, replay_u) = &results[0];
    let (replay_warned, replay_unwarned) = (secs(replay_w), secs(replay_u));
    let hybrid_unwarned = secs(&results[1].2);

    // The paper's claim, measured live: a warned Replay revocation hides
    // nearly the whole outage inside the warning window; an unwarned one
    // pays the paced copy time in degraded service.
    let margin = 2.0 * f.window.as_secs_f64();
    claim(
        "drill:unwarned_replay_pays_the_copy",
        matches!((replay_warned, replay_unwarned), (Some(w), Some(u)) if u >= w + margin),
        format!(
            "replay unwarned {} vs warned {} (>= {margin:.2}s slower)",
            show(replay_unwarned),
            show(replay_warned)
        ),
    );
    // ADR-003's claim, measured live: bulk-loading full state beats
    // replaying it at the pump rate.
    claim(
        "drill:unwarned_hybrid_not_slower",
        matches!((hybrid_unwarned, replay_unwarned), (Some(h), Some(r)) if h <= r),
        format!(
            "unwarned hybrid {} vs unwarned replay {}",
            show(hybrid_unwarned),
            show(replay_unwarned)
        ),
    );
    let ckpt_total = race.ckpt_write + race.ckpt_restore;
    claim(
        "drill:full_set_checkpoint_beats_replay",
        ckpt_total < race.replay,
        format!(
            "{} items: checkpoint {:.4}s vs replay at the pump rate {:.3}s",
            race.items,
            ckpt_total.as_secs_f64(),
            race.replay.as_secs_f64()
        ),
    );
    claim(
        "drill:link_faults_heal",
        faults.iter().all(|o| o.errors_seen > 0 && o.healed),
        faults
            .iter()
            .map(|o| {
                format!(
                    "{}: {} link errors, healed {}",
                    o.fault, o.errors_seen, o.healed
                )
            })
            .collect::<Vec<_>>()
            .join("; "),
    );
    if !cfg.smoke {
        let ratio = replay_unwarned.map_or(f64::INFINITY, |u| u / model_s.max(1e-9));
        claim(
            "drill:replay_near_fig4_model",
            (1.0 / 6.0..=6.0).contains(&ratio),
            format!(
                "unwarned replay {} vs the Fig. 4 model's {model_s:.2}s (x{ratio:.2}, 1/6-6)",
                show(replay_unwarned)
            ),
        );
    }

    let strategy_cells: Vec<String> = results
        .iter()
        .map(|(strategy, w, u)| {
            format!(
                "\"{strategy}\":{{\"with_warning\":{},\"no_warning\":{}}}",
                drill_json(strategy, w, f),
                drill_json(strategy, u, f)
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
        "{{\"schema\":\"spotcache-drill-v3\",\"smoke\":{},\"seed\":{},\
         \"window_s\":{:.3},\"warning_window_s\":{:.3},\"hot_keys\":{},\
         \"pump_base_rate\":{:.1},\"model_recovery_s\":{:.3},\
         \"strategies\":{{{}}},\"full_set_restore\":{},\"link_faults\":{{{}}},\
         \"obs\":{}}}",
        cfg.smoke,
        f.seed,
        f.window.as_secs_f64(),
        warning_s,
        f.key_space,
        f.pump.base_rate,
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
}
