//! The one observability run: every instrumented layer once, against one
//! [`Obs`] bundle and one [`Tracer`] that samples every span tree.
//!
//! 1. Control plane: a 21-day CDF-bid simulation (the naive bidder gets
//!    revoked, so revocation counters and journal events show up too).
//! 2. Recovery: the Figure 11 warm-up from a t2.medium backup, and from a
//!    nearly credit-drained, oversized t2.small whose pump must throttle.
//! 3. Data plane: a live server with its admin endpoint. While a client
//!    thread that announced a [`TraceContext`] sends set / get / miss /
//!    delete rounds, `/metrics` is scraped [`UNDER_LOAD_SCRAPES`] times;
//!    then `/healthz`, `/journal` and, last because reading it drains the
//!    span buffer, `/trace`, which must hold all four layers and the
//!    client's trace id. Every body is validated.
//! 4. Snapshot: the registry plus a *sample* of the journal, the first
//!    [`JOURNAL_SAMPLE`] events of each kind with every kind's count as a
//!    `journal_events_<kind>` gauge (the run journals ~4 000 events, 99 %
//!    of an unsampled snapshot's bytes; `/journal` serves them all).
//!
//! Any failed check panics; success prints `snapshot OK`. Flags:
//! `--metrics-out PATH` (default `BENCH_obs.json`), `--trace-out PATH`
//! (write the scraped `/trace` body there, so the file CI checks is the
//! one an operator's scrape returns; not written by default).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spotcache_bench::heading;
use spotcache_bench::live::{start_server, write_artifact, Flags};
use spotcache_cache::server::CacheClient;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::tracegen::paper_traces;
use spotcache_core::simulation::{HourlySim, SimConfig};
use spotcache_core::{Approach, ControlLoop, GlobalController};
use spotcache_obs::export::{json_snapshot, validate_json, validate_prometheus_text};
use spotcache_obs::http::http_get;
use spotcache_obs::{Journal, Obs, TraceContext, Tracer, DEFAULT_TRACE_CAPACITY};
use spotcache_sim::recovery::{simulate_recovery, BackupChoice, RecoveryConfig};

/// Events of each kind the artifact keeps.
const JOURNAL_SAMPLE: u64 = 8;
/// `/metrics` scrapes taken while the client is sending.
const UNDER_LOAD_SCRAPES: usize = 3;
/// Trace id the client propagates; must come back out of `/trace`.
const CLIENT_TRACE_ID: u64 = 0x7e1e_0000_0000_0001;
/// The span categories the trace must cover, one per layer.
const LAYERS: [&str; 4] = ["control", "protocol", "recovery", "server"];

/// GETs `path` from the admin endpoint; anything but a 200 panics.
fn scrape(admin: SocketAddr, path: &str) -> String {
    let (code, body) =
        http_get(admin, path, Duration::from_secs(2)).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(code, 200, "{path} must answer 200");
    body
}

/// Scrapes and checks `/metrics`; returns `cache_get_total`.
fn scrape_metrics(admin: SocketAddr) -> u64 {
    let metrics = scrape(admin, "/metrics");
    validate_prometheus_text(&metrics)
        .unwrap_or_else(|at| panic!("/metrics invalid at line {at}:\n{metrics}"));
    for series in [
        "cache_get_total",
        "cache_store_total",
        "cache_get_hits_total",
        "stage_read_us",
        "stage_parse_us",
        "journal_dropped_total",
    ] {
        assert!(metrics.contains(series), "/metrics missing {series}");
    }
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("cache_get_total ")?.trim().parse().ok())
        .expect("/metrics carries a cache_get_total sample")
}

/// Drives set (with a TTL) / get / miss / delete rounds until `done`,
/// counting finished rounds in `rounds`.
fn drive_client(addr: SocketAddr, rounds: &AtomicU64, done: &AtomicBool) {
    let mut client = CacheClient::connect(addr).expect("connect");
    client
        .send_trace(TraceContext {
            trace_id: CLIENT_TRACE_ID,
            parent_span: 0,
            sampled: true,
        })
        .expect("send trace context");
    let mut i = 0u64;
    while !done.load(Ordering::Acquire) {
        let key = format!("key{}", i % 16);
        assert_eq!(client.set(&key, b"value", 60).expect("set"), "STORED");
        assert_eq!(
            client.get(&key).expect("get").as_deref(),
            Some(&b"value"[..])
        );
        assert!(client.get("missing").expect("get miss").is_none());
        assert_eq!(client.delete(&key).expect("delete"), "DELETED");
        i += 1;
        rounds.store(i, Ordering::Release);
    }
}

fn main() {
    let mut flags = Flags::from_env();
    let out_path = flags
        .value("--metrics-out", "a path")
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    let trace_out: Option<String> = flags.value("--trace-out", "a path");
    flags.finish();
    let obs = Arc::new(Obs::new());
    let tracer = Tracer::all(DEFAULT_TRACE_CAPACITY);
    tracer.register_process(0, "obs-snapshot");
    tracer.register_current_thread("driver");

    heading("Observability run (every instrumented layer, admin endpoint under load)");

    // 1. Control plane.
    let traces = paper_traces(21);
    let cfg = SimConfig::paper_default(Approach::OdSpotCdf, 500_000.0, 100.0, 2.0);
    let sim = ControlLoop::new(GlobalController::new(cfg.controller.clone()), cfg.theta)
        .with_obs(Arc::clone(&obs))
        .with_tracer(Arc::clone(&tracer))
        .run(HourlySim::new(cfg, traces))
        .expect("simulation");
    println!(
        "sim: 21 days, total cost ${:.2}, {} revocation slots",
        sim.total_cost(),
        sim.slots.iter().filter(|s| s.revoked > 0).count()
    );

    // 2. Recovery.
    let rcfg = RecoveryConfig::figure11(BackupChoice::Instance(
        find_type("t2.medium").expect("t2.medium in catalog"),
    ));
    let tl = simulate_recovery(&rcfg, Some(&obs), Some(&tracer));
    println!(
        "recovery: recovered_at={:?}, overall p95 {:.0} us",
        tl.recovered_at,
        tl.overall_p95()
    );
    let small = find_type("t2.small").expect("t2.small in catalog");
    let mut rcfg2 = RecoveryConfig::figure11(BackupChoice::Instance(small));
    rcfg2.lost_hot_gb = small.ram_gb * 0.85;
    rcfg2.backup_credits_fraction = 0.01;
    let tl2 = simulate_recovery(&rcfg2, Some(&obs), Some(&tracer));
    println!(
        "recovery (t2.small, oversized): recovered_at={:?}",
        tl2.recovered_at
    );

    // 3. Data plane, scraped while the client sends.
    let store = Arc::new(Store::new(StoreConfig::default()));
    let mut server = start_server(&store, Some(&obs), Some(&tracer));
    let admin = server
        .start_admin("127.0.0.1:0", None)
        .expect("start admin endpoint");
    println!("server on {}, admin on {admin}", server.addr());
    let (rounds, done) = (AtomicU64::new(0), AtomicBool::new(false));
    let gets = std::thread::scope(|s| {
        let client = s.spawn(|| drive_client(server.addr(), &rounds, &done));
        let mut gets = Vec::new();
        for _ in 0..UNDER_LOAD_SCRAPES {
            // Two more rounds: the one in flight at the last scrape and
            // one wholly after it, so the next scrape must count more gets.
            let want = rounds.load(Ordering::Acquire) + 2;
            while rounds.load(Ordering::Acquire) < want {
                assert!(!client.is_finished(), "client stopped before the scrapes");
                std::thread::sleep(Duration::from_millis(1));
            }
            gets.push(scrape_metrics(admin));
        }
        done.store(true, Ordering::Release);
        client.join().expect("client thread");
        gets
    });
    assert!(
        gets.windows(2).all(|w| w[0] < w[1]),
        "cache_get_total must grow between under-load scrapes: {gets:?}"
    );
    println!(
        "/metrics: {UNDER_LOAD_SCRAPES} scrapes under load, cache_get_total {gets:?}; \
         client ran {} rounds",
        rounds.load(Ordering::Acquire)
    );

    let healthz = scrape(admin, "/healthz");
    validate_json(&healthz).unwrap_or_else(|at| panic!("/healthz invalid at byte {at}"));
    assert!(
        healthz.contains("\"status\":\"ok\""),
        "/healthz body: {healthz}"
    );

    let journal = scrape(admin, "/journal");
    for line in journal.lines() {
        validate_json(line).unwrap_or_else(|at| panic!("/journal line invalid at byte {at}"));
    }
    assert!(journal.contains("bid_placed"), "/journal has no bid_placed");
    let events = journal.lines().count();
    println!("/healthz: {healthz}; /journal: {events} NDJSON events");

    // Last, because reading /trace drains the span buffer: process and
    // thread metadata, serve spans, every layer, the propagated trace id.
    let spans = tracer.len();
    let trace_json = scrape(admin, "/trace");
    validate_json(&trace_json).unwrap_or_else(|at| panic!("/trace invalid at byte {at}"));
    let want = format!("{CLIENT_TRACE_ID:016x}");
    let layers = LAYERS.map(|layer| format!("\"cat\":\"{layer}\""));
    for needle in ["\"ph\":\"M\"", "\"name\":\"serve\"", &want]
        .into_iter()
        .chain(layers.iter().map(String::as_str))
    {
        assert!(trace_json.contains(needle), "/trace lacks {needle}");
    }
    server.stop();
    println!(
        "/trace: {spans} spans across {LAYERS:?}, {} bytes, stitched to trace {want}",
        trace_json.len()
    );
    if let Some(path) = &trace_out {
        write_artifact(path, &trace_json);
    }

    // 4. Snapshot: per-kind journal totals as gauges, the first few
    //    events of each kind verbatim.
    let sample = Journal::new();
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in obs.journal().events() {
        let seen = totals.entry(ev.kind.tag()).or_default();
        *seen += 1;
        if *seen <= JOURNAL_SAMPLE {
            sample.record(ev.t, ev.kind);
        }
    }
    for (tag, total) in &totals {
        obs.gauge(&format!("journal_events_{tag}"))
            .set(*total as f64);
    }
    let json = json_snapshot(obs.registry(), &sample);
    for series in [
        "control_plan_cost_dollars",
        "sim_slot_cost_dollars",
        "recovery_warmed_mass",
        "bucket_backup_cpu_level",
        "cache_get_total",
    ] {
        assert!(json.contains(series), "snapshot missing series {series}");
    }
    write_artifact(&out_path, &json);
    println!(
        "{out_path}: {} bytes, {} metrics, {} of {} journal events",
        json.len(),
        obs.registry().len(),
        sample.len(),
        obs.journal().len()
    );
    println!("snapshot OK");
}
