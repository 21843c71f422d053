//! telemetry_smoke: CI gate for the live telemetry endpoint.
//!
//! Stands up one observed + traced reactor `CacheServer` with its
//! admin listener attached, drives a few commands through a traced
//! client connection, then scrapes **all four admin routes over real
//! HTTP** and validates every body with the in-tree validators:
//!
//! - `/metrics` — Prometheus text exposition (server counters plus the
//!   `stage_*` latency-attribution histograms must be present),
//! - `/healthz` — the caller-composed JSON health payload,
//! - `/journal` — NDJSON, one valid JSON object per line,
//! - `/trace` — Chrome-trace JSON with process metadata and a serve
//!   span stitched to the client-propagated trace id.
//!
//! `/trace` is scraped last because draining it resets the span buffer.
//! Prints `telemetry OK` on success; any failure panics, so the ci.sh
//! grep doubles as the gate.

use std::sync::Arc;
use std::time::Duration;

use spotcache_bench::heading;
use spotcache_bench::live::start_server;
use spotcache_cache::server::CacheClient;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::export::{validate_json, validate_prometheus_text};
use spotcache_obs::http::http_get;
use spotcache_obs::{trace, EventKind, Obs, TraceConfig, TraceContext, Tracer};

/// Trace id the client propagates; must come back out of `/trace`.
const SMOKE_TRACE_ID: u64 = 0x7e1e_0000_0000_0001;

fn main() {
    heading("Telemetry endpoint smoke (scrape all four admin routes)");

    let obs = Arc::new(Obs::new());
    // sample_every = 1: every serve tree records, so even this tiny run
    // leaves spans for `/trace` to drain.
    let tracer = Arc::new(Tracer::new(TraceConfig {
        capacity: 8_192,
        sample_every: 1,
    }));
    trace::set_thread_pid(0);
    tracer.register_process(0, "telemetry-smoke");
    tracer.register_current_thread("driver");

    let store = Arc::new(Store::new(StoreConfig {
        capacity_bytes: 32 << 20,
        shards: 4,
    }));
    let mut server = start_server(&store, Some(&obs), Some(&tracer));
    let admin = server
        .start_admin(
            "127.0.0.1:0",
            Some(Box::new(|| {
                "{\"status\":\"ok\",\"phase\":\"healthy\"}".to_string()
            })),
        )
        .expect("start admin endpoint");
    println!("server on {}, admin on {admin}", server.addr());

    // Something for `/journal` to show.
    obs.event(
        0,
        EventKind::BidPlaced {
            label: "r3.large".to_string(),
            bid: 0.09,
            count: 1,
        },
    );

    // Traffic: a propagated trace context, then a few round trips.
    let mut client = CacheClient::connect(server.addr()).expect("connect");
    client
        .send_trace(TraceContext {
            trace_id: SMOKE_TRACE_ID,
            parent_span: 0,
            sampled: true,
        })
        .expect("send trace context");
    for i in 0..16 {
        let key = format!("key{i}");
        let reply = client.set(&key, b"telemetry-value", 0).expect("set");
        assert_eq!(reply, "STORED", "set reply");
        let got = client.get(&key).expect("get");
        assert_eq!(got.as_deref(), Some(&b"telemetry-value"[..]), "get reply");
    }
    client.get("missing").expect("miss get");
    drop(client);

    let scrape = |path: &str| -> String {
        let (code, body) =
            http_get(admin, path, Duration::from_secs(2)).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(code, 200, "{path} must answer 200");
        body
    };

    let metrics = scrape("/metrics");
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
    println!(
        "/metrics: {} lines, exposition valid",
        metrics.lines().count()
    );

    let healthz = scrape("/healthz");
    validate_json(&healthz).unwrap_or_else(|at| panic!("/healthz invalid at byte {at}"));
    assert!(
        healthz.contains("\"status\":\"ok\""),
        "/healthz body: {healthz}"
    );
    println!("/healthz: {healthz}");

    let journal = scrape("/journal");
    let lines: Vec<&str> = journal.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "/journal must carry the recorded event");
    for line in &lines {
        validate_json(line).unwrap_or_else(|at| panic!("/journal line invalid at byte {at}"));
    }
    assert!(journal.contains("bid_placed"), "/journal body: {journal}");
    println!("/journal: {} NDJSON event(s)", lines.len());

    // Last: draining `/trace` resets the span buffer.
    let trace_json = scrape("/trace");
    validate_json(&trace_json).unwrap_or_else(|at| panic!("/trace invalid at byte {at}"));
    assert!(
        trace_json.contains("\"ph\":\"M\""),
        "/trace must carry process/thread metadata records"
    );
    assert!(
        trace_json.contains("serve"),
        "/trace must carry protocol serve spans"
    );
    let want = format!("{SMOKE_TRACE_ID:016x}");
    assert!(
        trace_json.contains(&want),
        "/trace must contain the propagated trace id {want}"
    );
    println!(
        "/trace: {} bytes, stitched to trace {want}",
        trace_json.len()
    );

    server.stop();
    println!("telemetry OK");
}
