//! The metric catalogue: every name the benchmark reports, with its unit,
//! its direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` and the
//! glossary tables of `README.md` are generated from this file
//! (`--emit-benchmark-json`, `--emit-glossary`), and a unit test keeps the
//! checked-in copies in step.

use crate::json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen.
    pub bound: f64,
    /// Where the number is read from.
    pub source: &'static str,
    /// Per-layer only: the end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        source,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        source,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system would see. Every workload reports every
/// one of them; the per-workload meaning is in `README.md`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, "harness timer around build inputs + prefill + start servers + connect; median of the run's set-ups"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "verified commands completed per window; upper quartile over windows (the better quarter)"),
    e2e("lat_p50_us", "us", Lower, 0.25, "per-window median latency; lower quartile over windows (the better quarter)"),
    e2e("hit_rate", "frac", Higher, 0.02, "client-observed fresh get hits / gets"),
    e2e("availability", "frac", Higher, 0.10, "share of 10 ms windows with fresh-hit rate >= 0.9 x steady and no failed reply"),
];

const CPU: &str = "lat_p50_us@paced_get, ops_per_s@pipelined_mix";
const PIPE: &str = "ops_per_s@pipelined_mix; flat on paced_get";
const REC: &str = "availability@revocation (through recovery.recovery_s)";
const PLAN: &str = "ops_per_s@plan_90d";

/// Metrics of single layers, from the traced run. No bound.
pub const PER_LAYER: &[MetricDef] = &[
    layer("server.cpu_us_per_op", "us", Lower, "schedstat run time of cache-*/repl-* threads / commands, untraced slice", CPU),
    layer("server.busy_frac", "frac", Lower, "schedstat run time of cache-*/repl-* threads / wall", CPU),
    layer("server.runq_wait_frac", "frac", Lower, "schedstat run-queue wait of cache-*/repl-* threads / wall", CPU),
    layer("server.self_us_per_op", "us", Lower, "server.cpu_us_per_op - protocol.serve_us_per_op", CPU),
    layer("server.syscall_us_per_op", "us", Lower, "registry stage_read_us + stage_write_us sums / commands, traced replay", CPU),
    layer("server.epoll_waits_per_op", "count", Lower, "registry reactor_epoll_waits_total / commands, traced replay", CPU),
    layer("server.events_per_wait", "count", Higher, "registry reactor_events_total / reactor_epoll_waits_total", CPU),
    layer("server.stage_read_us", "us", Lower, "registry stage_read_us mean per readiness pass", CPU),
    layer("server.stage_write_us", "us", Lower, "registry stage_write_us mean per readiness pass", CPU),
    layer("server.stage_ready_us", "us", Lower, "registry stage_ready_us mean per readiness pass", CPU),
    layer("server.connect_us", "us", Lower, "harness timer around TcpStream::connect", "setup_s"),
    layer("server.stop_ms", "ms", Lower, "harness timer around CacheServer::stop", "setup_s, availability@revocation"),
    layer("protocol.parse_ns_per_cmd", "ns", Lower, "harness span around parse_request over the stream's bytes", PIPE),
    layer("protocol.serve_us_per_op", "us", Lower, "harness span around serve_into, identically prefilled store", PIPE),
    layer("protocol.self_ns_per_cmd", "ns", Lower, "serve_into span - direct store spans", PIPE),
    layer("protocol.bytes_in_per_op", "B", Lower, "request bytes / commands", PIPE),
    layer("protocol.bytes_out_per_op", "B", Lower, "serve_into output bytes / commands", PIPE),
    layer("protocol.allocs_per_op", "count", Lower, "thread-local counting allocator around serve_into; exact", PIPE),
    layer("store.get_ns_per_key", "ns", Lower, "harness span around Store::get_many_into", "ops_per_s@pipelined_mix"),
    layer("store.set_ns_per_op", "ns", Lower, "harness span around Store::set_at", "ops_per_s@write_evict"),
    layer("store.flush_ns_per_touch", "ns", Lower, "harness span around Store::flush_touches / records drained", "ops_per_s@pipelined_mix"),
    layer("store.rlock_gets", "count", Lower, "registry store_rlock_gets_total, traced replay", "ops_per_s@pipelined_mix"),
    layer("store.wlock_gets", "count", Lower, "registry store_wlock_gets_total, traced replay", "ops_per_s@write_evict"),
    layer("store.evictions", "count", Lower, "Store::snapshot_at().stats.evictions after the traced replay", "hit_rate@write_evict"),
    layer("store.expired", "count", Lower, "Store::snapshot_at().stats.expirations after the traced replay", "hit_rate@write_evict"),
    layer("store.touch_dropped", "count", Lower, "registry store_touch_dropped_total, traced replay", "hit_rate@write_evict"),
    layer("store.hit_rate", "frac", Higher, "Store::snapshot_at().stats.hit_rate() after the traced replay", "hit_rate@write_evict"),
    layer("store.space_amp", "x", Lower, "snapshot used_bytes / key+value bytes of live items", "hit_rate@write_evict"),
    layer("store.snapshot_ms", "ms", Lower, "harness timer around Store::hot_snapshot_at(all items)", REC),
    layer("replication.tap_ns_per_set", "ns", Lower, "Store::set_at with a ReplicationQueue sink - without", "ops_per_s@revocation"),
    layer("replication.shipped_per_s", "1/s", Higher, "ReplicationStats.shipped / seconds the link was up", "ops_per_s@revocation"),
    layer("replication.queue_dropped", "count", Lower, "ReplicationStats.queue_dropped at the kill", "hit_rate@revocation"),
    layer("replication.link_errors", "count", Lower, "ReplicationStats.link_errors at the kill", "ops_per_s@revocation"),
    layer("replication.lag_ms", "ms", Lower, "harness timer around Replicator::flush at a quiesced instant mid-steady", "ops_per_s@revocation"),
    layer("router.lookup_ns_per_key", "ns", Lower, "harness timer around HashRing::lookup over the stream's keys", "hit_rate, availability@revocation"),
    layer("router.read_plan_ns", "ns", Lower, "harness timer around DegradedRouter::read_plan", "availability@revocation"),
    layer("router.served_backup_frac", "frac", Lower, "observe-phase gets answered by the backup / gets", "availability@revocation"),
    layer("router.stale_served_frac", "frac", Lower, "observe-phase gets answered by the backup, or by the replacement with a value the restore wrote over a newer one / gets", "hit_rate, availability@revocation"),
    layer("router.transitions", "count", Lower, "DegradedRouter::transitions per round", "availability@revocation"),
    layer("recovery.recovery_s", "s", Lower, "kill -> first of 3 consecutive 10 ms windows at >= 0.9 x steady fresh-hit; median of rounds (a round observes until it gets there; one that has not after 3 x the observe phase fails the run)", "availability@revocation"),
    layer("recovery.restore_s", "s", Lower, "RestoreReport.elapsed; median of rounds", REC),
    layer("recovery.ckpt_write_s", "s", Lower, "CkptWriteReport.elapsed (in-restore cut, or probe)", REC),
    layer("recovery.ckpt_write_mb_per_s", "MB/s", Higher, "CkptWriteReport.bytes / elapsed", REC),
    layer("recovery.ckpt_bytes_per_item", "B", Lower, "CkptWriteReport.bytes / items", REC),
    layer("recovery.ckpt_restore_items_per_s", "1/s", Higher, "CkptRestoreReport.items_stored / elapsed", REC),
    layer("recovery.topup_items", "count", Lower, "RestoreReport.topped_up; median of rounds", REC),
    layer("recovery.pump_items_per_s", "1/s", Higher, "WarmupReport.achieved_rate, Replay pump of a 5 k-item sample at unlimited credits", REC),
    layer("recovery.items_lost", "count", Lower, "hot keys left older than a write the replacement had acknowledged, because the restore loaded the backup's copy over it; summed over the rounds (a key lost any other way fails the run)", "hit_rate@revocation"),
    layer("core.plan_ms_per_slot", "ms", Lower, "simulate wall time / hour slots", PLAN),
    layer("optimizer.solve_us", "us", Lower, "GlobalController::plan - build_offers, per call", PLAN),
    layer("spotmodel.predict_us_per_call", "us", Lower, "harness timer around TemporalPredictor::predict", PLAN),
    layer("cloud.tracegen_ms", "ms", Lower, "harness timer around TraceGenerator::generate x 4 markets", "setup_s@plan_90d"),
    layer("sim.cost_norm", "x", Lower, "Prop total cost / OdOnly total cost; exact", PLAN),
    layer("loadgen.busy_frac", "frac", Lower, "schedstat run time of the load-generator thread / wall", "none (client cost)"),
    layer("loadgen.lag_p99_us", "us", Lower, "open loop: send time - due time, p99 at the top step", "none (client cost)"),
    layer("loadgen.max_backlog", "count", Lower, "open loop: most unanswered requests at the top step", "none (client cost)"),
    layer("loadgen.gen_ns_per_op", "ns", Lower, "harness timer around building the request stream / commands", "setup_s"),
    layer("loadgen.verify_ns_per_op", "ns", Lower, "harness span around framing + checking the replay's replies", "none (client cost)"),
    layer("loadgen.batch_p99_us", "us", Lower, "per-window p99 latency, median over windows (ungated: too noisy on this host)", "none"),
    layer("loadgen.p50_us_r20k", "us", Lower, "open loop latency from due time at 20 k/s, window-median", "none (ungated grid)"),
    layer("loadgen.p50_us_r40k", "us", Lower, "open loop latency from due time at 40 k/s, window-median", "none (ungated grid)"),
    layer("loadgen.p50_us_r80k", "us", Lower, "open loop latency from due time at 80 k/s, window-median", "none (ungated grid)"),
    layer("loadgen.p90_us_r20k", "us", Lower, "as above, p90", "none (ungated grid)"),
    layer("loadgen.p90_us_r40k", "us", Lower, "as above, p90", "none (ungated grid)"),
    layer("loadgen.p90_us_r80k", "us", Lower, "as above, p90", "none (ungated grid)"),
    layer("loadgen.p99_us_r20k", "us", Lower, "as above, p99", "none (ungated grid)"),
    layer("loadgen.p99_us_r40k", "us", Lower, "as above, p99", "none (ungated grid)"),
    layer("loadgen.p99_us_r80k", "us", Lower, "as above, p99", "none (ungated grid)"),
    layer("loadgen.max_rate_ok", "1/s", Higher, "highest step with window-median p99 <= 1000 us, delivered within 1 % and no backlog growth within any slice", "none (ungated grid)"),
    layer("loadgen.steps_failed", "count", Lower, "steps whose delivered rate missed the offered one by > 1 % or whose backlog grew from the first to the last third of any one-window slice", "ops_per_s@paced_get"),
    layer("host.calib_ns", "ns", Lower, "FNV calibration kernel, median of all readings", "none (host)"),
    layer("host.drift_frac", "frac", Lower, "largest before/after calibration difference among accepted slices", "none (host)"),
    layer("host.slice_reruns", "count", Lower, "slices measured again because calibrations differed by > 5 %", "none (host)"),
    layer("host.steal_frac", "frac", Lower, "/proc/stat steal jiffies / all jiffies over the run", "none (host)"),
    layer("host.pinned", "count", Higher, "1 when sched_setaffinity pinned every server thread and the load generator", "none (host)"),
    layer("host.fresh_page_us", "us", Lower, "harness timer around the first touch of 64 MiB of fresh memory before the first set-up, per page: about 2 when the guest's free pages are backed by the host, 30-45 when not", "none (host)"),
    layer("obs.traced_ops_per_s", "1/s", Higher, "commands / second of the replay with obs + tracer attached", "none (telemetry cost)"),
    layer("obs.trace_overhead_frac", "frac", Lower, "closed loop: 1 - traced/untraced replay throughput; open loop: traced/untraced server CPU per request - 1", "none (telemetry cost)"),
    layer("obs.spans_recorded", "count", Higher, "Tracer::len after the traced replay", "none (telemetry cost)"),
    layer("obs.spans_dropped", "count", Lower, "Tracer::dropped after the traced replay", "none (telemetry cost)"),
    layer("reconcile.residual_frac", "frac", Lower, "(server.cpu_us_per_op - server.syscall_us_per_op - protocol.serve_us_per_op) / server.cpu_us_per_op", "none (ledger check)"),
];

/// The five workloads with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("paced_get", "open loop, one command per write: syscalls and reactor wake-ups do the work, protocol/store almost none; bypasses any batching optimisation"),
    ("pipelined_mix", "closed loop, 32 commands per write, 90/10 get/set that fits: protocol parse/execute/serialize and the store read path do the work"),
    ("write_evict", "closed loop, 50/50 get/set, ETC sizes, TTLs, key space 4x the store: exclusive lock, LRU eviction, slab reuse, timer wheel"),
    ("revocation", "kill the primary unwarned, Hybrid-restore a replacement, read through DegradedRouter: replication, recovery, router::degraded"),
    ("plan_90d", "no sockets: simulate 90 days of four spot markets for Prop and OdOnly: spotmodel, optimizer, core::controlplane, sim, cloud"),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 18;

/// `BENCHMARK.json`, generated: one line per workload and per metric.
pub fn benchmark_json() -> String {
    fn array(items: Vec<Json>) -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    }
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))]))
        .collect();
    let metric = |m: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        array(workloads),
        array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

/// The glossary tables of `README.md`, generated.
pub fn glossary_markdown() -> String {
    let mut s = String::new();
    s.push_str(
        "| end-to-end metric | unit | better | bound | read from |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.source
        ));
    }
    s.push_str(
        "\n| per-layer metric | unit | better | read from | should move |\n|---|---|---|---|---|\n",
    );
    for m in PER_LAYER {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source,
            m.moves
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }

    #[test]
    fn readme_glossary_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        assert!(
            readme.contains(&glossary_markdown()),
            "regenerate the glossary tables with --emit-glossary"
        );
        for (name, _) in WORKLOADS {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README must describe {name}"
            );
        }
    }
}
