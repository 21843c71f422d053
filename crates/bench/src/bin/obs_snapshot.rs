//! Dumps a full observability snapshot to `BENCH_obs.json`.
//!
//! Runs the three instrumented layers against one shared [`Obs`] bundle —
//! an observed hourly simulation (control-loop + per-slot series), an
//! observed post-revocation recovery (warm-up + token-bucket series), and a
//! live observed cache server round-trip (per-op counters, latency
//! histogram, journal events) — then writes the JSON snapshot, checks it
//! against the crate's own validator, and prints a stable `snapshot OK`
//! line for CI to grep.
//!
//! The artifact carries a *sample* of the journal: the first
//! [`JOURNAL_SAMPLE`] events of each kind, with every kind's full count
//! as a `journal_events_<kind>` gauge. (The run journals ~4 000 events,
//! 99 % of the bytes of an unsampled snapshot; `Obs::json_snapshot` and
//! the `/journal` route still serve all of them.)
//!
//! Flags: `--metrics-out PATH` (default `BENCH_obs.json`).

use std::collections::BTreeMap;
use std::sync::Arc;

use spotcache_bench::heading;
use spotcache_bench::live::{start_server, write_artifact, Flags};
use spotcache_cache::server::CacheClient;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::tracegen::paper_traces;
use spotcache_core::simulation::{simulate_traced, SimConfig};
use spotcache_core::Approach;
use spotcache_obs::export::json_snapshot;
use spotcache_obs::{Journal, Obs};
use spotcache_sim::recovery::{simulate_recovery, BackupChoice, RecoveryConfig};

/// Events of each kind the artifact keeps.
const JOURNAL_SAMPLE: u64 = 8;

fn main() {
    let mut flags = Flags::from_env();
    let out_path = flags
        .value("--metrics-out", "a path")
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    flags.finish();
    let obs = Arc::new(Obs::new());

    heading("Observability snapshot");

    // 1. Control plane: a CDF-bid simulation over the paper's markets —
    //    the naive bidder gets revoked, so the snapshot exercises the
    //    revocation counters and journal events too.
    let traces = paper_traces(21);
    let cfg = SimConfig::paper_default(Approach::OdSpotCdf, 500_000.0, 100.0, 2.0);
    let sim = simulate_traced(&cfg, &traces, Some(Arc::clone(&obs)), None).expect("simulation");
    println!(
        "sim: 21 days, total cost ${:.2}, {} revocation slots",
        sim.total_cost(),
        sim.slots.iter().filter(|s| s.revoked > 0).count()
    );

    // 2. Recovery: figure-11 warm-up from a t2.medium burstable backup,
    //    plus a nearly credit-drained t2.small whose pump must throttle,
    //    so the bucket-throttle series is non-trivial.
    let rcfg = RecoveryConfig::figure11(BackupChoice::Instance(
        find_type("t2.medium").expect("t2.medium in catalog"),
    ));
    let tl = simulate_recovery(&rcfg, Some(&obs), None);
    println!(
        "recovery: recovered_at={:?}, overall p95 {:.0} us",
        tl.recovered_at,
        tl.overall_p95()
    );
    let small = find_type("t2.small").expect("t2.small in catalog");
    let mut rcfg2 = RecoveryConfig::figure11(BackupChoice::Instance(small));
    rcfg2.lost_hot_gb = small.ram_gb * 0.85;
    rcfg2.backup_credits_fraction = 0.01;
    let tl2 = simulate_recovery(&rcfg2, Some(&obs), None);
    println!(
        "recovery (t2.small, oversized): recovered_at={:?}",
        tl2.recovered_at
    );

    // 3. Cache tier: a live observed server and a handful of ops.
    let store = Arc::new(Store::new(StoreConfig::default()));
    let mut server = start_server(&store, Some(&obs), None);
    {
        let mut client = CacheClient::connect(server.addr()).expect("connect");
        client.set("alpha", b"1", 0).expect("set");
        client.set("beta", b"2", 60).expect("set");
        assert_eq!(
            client.get("alpha").expect("get").as_deref(),
            Some(&b"1"[..])
        );
        assert!(client.get("missing").expect("get miss").is_none());
        client.delete("alpha").expect("delete");
    }
    server.stop();
    println!("cache: 5 ops against a live observed server");

    // Sample the journal: per-kind totals as gauges, the first few events
    // of each kind verbatim.
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

    // Export, validate, and write.
    let json = json_snapshot(obs.registry(), &sample);
    let prom = obs.prometheus_text();
    for series in [
        "control_plan_cost_dollars",
        "sim_slot_cost_dollars",
        "recovery_warmed_mass",
        "bucket_backup_cpu_level",
        "cache_get_total",
    ] {
        assert!(prom.contains(series), "missing series {series}");
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
