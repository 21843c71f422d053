//! trace_dump: exercise every instrumented layer and dump one combined
//! Chrome trace-event JSON.
//!
//! Runs, against a single shared [`Tracer`]:
//!
//! 1. the **data plane** — a reactor `CacheServer` driven over real
//!    TCP (`server.*` spans) whose protocol loop records per-request
//!    `protocol.*` spans,
//! 2. the **control plane** — a short hourly simulation (`control.*`
//!    spans: replan, bid placement, revocation handling), and
//! 3. a **failure recovery** — the Figure 11 warm-up timeline
//!    (`recovery.*` spans: warm-up pump, token-bucket refill, organic
//!    fill).
//!
//! The combined buffer is rendered as Chrome trace-event JSON (loadable
//! in Perfetto or `chrome://tracing`), validated with the in-tree JSON
//! validator, and checked for ≥1 span from each of the four layers — the
//! CI trace smoke gate.
//!
//! Flags: `--out PATH` (default `trace_dump.json`), `--smoke` (accepted
//! for gate symmetry; the run is always smoke-sized).

use std::sync::Arc;

use spotcache_bench::heading;
use spotcache_bench::live::{start_server, write_trace, Flags};
use spotcache_cache::server::CacheClient;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::tracegen::paper_traces;
use spotcache_core::simulation::{simulate_traced, SimConfig};
use spotcache_core::Approach;
use spotcache_obs::{Obs, Tracer, DEFAULT_TRACE_CAPACITY};
use spotcache_sim::recovery::{simulate_recovery, BackupChoice, RecoveryConfig};

/// The four span categories the dump must cover, one per layer.
const LAYERS: [&str; 4] = ["control", "protocol", "recovery", "server"];

fn main() {
    let mut flags = Flags::from_env();
    flags.switch("--smoke");
    let out = flags
        .value("--out", "a path")
        .unwrap_or_else(|| "trace_dump.json".to_string());
    flags.finish();
    heading("Span-trace dump across all instrumented layers");
    let tracer = Tracer::all(DEFAULT_TRACE_CAPACITY);

    // Layer 1+2: data plane over real TCP.
    let store = Arc::new(Store::new(StoreConfig {
        capacity_bytes: 16 << 20,
        shards: 4,
    }));
    let mut server = start_server(&store, None, Some(&tracer));
    {
        let mut client = CacheClient::connect(server.addr()).expect("connect");
        for i in 0..200 {
            let key = format!("key{i}");
            client.set(&key, b"abcd", 0).expect("set");
            assert!(client.get(&key).expect("get").is_some());
        }
    }
    server.stop();
    println!("data plane: {} spans so far", tracer.len());

    // Layer 3: control plane (10 simulated days, Prop_NoBackup).
    let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 320_000.0, 60.0, 2.0);
    cfg.days = 10;
    let obs = Arc::new(Obs::new());
    simulate_traced(
        &cfg,
        &paper_traces(10),
        Some(obs),
        Some(Arc::clone(&tracer)),
    )
    .expect("simulation");
    println!("control plane: {} spans so far", tracer.len());

    // Layer 4: failure recovery (Figure 11, t2.medium backup).
    let rcfg = RecoveryConfig::figure11(BackupChoice::Instance(
        find_type("t2.medium").expect("t2.medium in catalog"),
    ));
    simulate_recovery(&rcfg, None, Some(&tracer));
    println!("recovery: {} spans total", tracer.len());

    write_trace(&out, &tracer, &LAYERS);
    println!("trace OK");
}
