#!/usr/bin/env bash
# Full CI gate: build, tests, lints, formatting. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> benchmark harness tests (the library signatures benchmark/ pins)"
cargo test --manifest-path benchmark/Cargo.toml --offline -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings (libs, bins, tests, benches, examples)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> obs snapshot smoke test"
snap="$(mktemp /tmp/obs_snapshot.XXXXXX.json)"
hs="$(mktemp /tmp/hot_shard_ab.XXXXXX.json)"
trap 'rm -f "$snap" "$hs"' EXIT
cargo run --release -q -p spotcache-bench --bin obs_snapshot -- --metrics-out "$snap" \
    | grep -q "snapshot OK"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$snap" 2>/dev/null \
    || { echo "obs snapshot is not valid JSON"; exit 1; }

echo "==> hot-shard read-path A/B smoke test (4 readers, one hot shard)"
# The bin asserts deferred >= inline itself; re-check the snapshot schema
# and the A/B invariant here so the gate does not rely on the bin's
# asserts alone. (Single-server traffic over real sockets is driven, with
# replies verified, by the benchmark smokes at the end of this script.)
cargo run --release -q -p spotcache-bench --bin hot_shard_ab -- --smoke --out "$hs" \
    | grep -q "hot-shard A/B OK"
python3 - "$hs" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
g = doc["gauges"]
for key in (
    "loadgen_hot_inline_ops_per_sec", "loadgen_hot_deferred_ops_per_sec",
    "loadgen_hot_speedup", "loadgen_hot_keys", "loadgen_hot_readers",
):
    assert key in g, f"BENCH_hot_shard schema: missing gauge {key}"
assert g["loadgen_hot_readers"] >= 4, "hot-shard A/B needs >=4 reader threads"
assert g["loadgen_hot_deferred_ops_per_sec"] >= g["loadgen_hot_inline_ops_per_sec"], \
    "deferred read path lost the hot-key contention smoke"
PY

echo "==> trace smoke test (spans from every instrumented layer)"
tr="$(mktemp /tmp/trace_dump.XXXXXX.json)"
trap 'rm -f "$snap" "$hs" "$tr"' EXIT
# trace_dump exercises protocol, server, control, and recovery against one
# tracer and asserts >=1 span per layer itself; re-check the JSON and the
# per-layer coverage here so the gate does not rely on the bin's asserts.
cargo run --release -q -p spotcache-bench --bin trace_dump -- --smoke --out "$tr" \
    | grep -q "trace OK"
python3 - "$tr" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
cats = {e["cat"] for e in events}
missing = {"protocol", "server", "control", "recovery"} - cats
assert not missing, f"trace is missing layers: {missing}"
PY

echo "==> telemetry endpoint smoke test (live /metrics /healthz /trace /journal)"
cargo run --release -q -p spotcache-bench --bin telemetry_smoke | grep -q "telemetry OK"

echo "==> revocation drill smoke test (all strategies + link faults)"
dr="$(mktemp /tmp/revocation_drill.XXXXXX.json)"
drtr="$(mktemp /tmp/drill_trace.XXXXXX.json)"
trap 'rm -f "$snap" "$hs" "$tr" "$dr" "$drtr"' EXIT
# The bin asserts the recovery orderings (per-strategy warned <= warning
# window, replay unwarned > warned, checkpoint beating replay) and the
# link-fault healing itself; re-check the artifact's schema and the
# headline invariants here so the gate does not rely on the bin's
# asserts alone.
cargo run --release -q -p spotcache-bench --bin revocation_drill -- --smoke --out "$dr" \
    --trace-out "$drtr" | grep -q "revocation drill OK"
# Cross-process stitching: the warned hybrid drill propagates one trace
# context across router -> primary -> replicator -> backup/replacement,
# so the dumped Chrome trace must hold one trace id spanning >=3 of the
# drill's logical processes.
python3 - "$drtr" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
stitch = "d811000000000001"
pids = {e["pid"] for e in events
        if e.get("ph") == "X" and e.get("args", {}).get("trace") == stitch}
assert len(pids) >= 3, \
    f"stitched drill trace {stitch} must span >=3 logical processes, got {sorted(pids)}"
names = {e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert {"primary-server", "backup-server", "replicator"} <= names, names
PY
python3 - "$dr" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spotcache-drill-v2", doc.get("schema")
warning_s = doc["warning_window_s"]
for name in ("replay", "checkpoint", "hybrid"):
    strat = doc["strategies"][name]
    for drill in ("with_warning", "no_warning"):
        d = strat[drill]
        assert d["recovery_windows"] is not None, f"{name}/{drill}: never recovered"
        assert d["restore_items"] > 0, f"{name}/{drill}: restore moved nothing"
    assert strat["with_warning"]["recovery_s"] <= warning_s, \
        f"{name}: warned recovery must fit the warning window"
replay, ckpt = doc["strategies"]["replay"], doc["strategies"]["checkpoint"]
assert replay["no_warning"]["recovery_s"] > replay["with_warning"]["recovery_s"], \
    "unwarned replay should pay for the paced copy"
assert ckpt["no_warning"]["recovery_s"] <= replay["no_warning"]["recovery_s"], \
    "unwarned checkpoint recovery must not lose to unwarned replay"
race = doc["full_set_restore"]
assert race["checkpoint_s"] < race["replay_s"], \
    "full-set checkpoint restore must beat replay-at-pump-rate"
for fault in ("sever", "stall", "corrupt"):
    f = doc["link_faults"][fault]
    assert f["link_errors"] > 0 and f["healed"], f"link fault {fault}: not observed/healed"
PY

echo "==> cluster loadgen smoke test (reactor data plane, multi-node ring)"
cl="$(mktemp /tmp/cluster_loadgen.XXXXXX.json)"
trap 'rm -f "$snap" "$hs" "$tr" "$dr" "$drtr" "$cl"' EXIT
# The bin asserts its own smoke throughput floor; re-check the artifact's
# schema and the cluster-shape invariants here so the gate does not rely
# on the bin's asserts alone. The scrape leg polls node 0's live admin
# endpoint mid-run.
cargo run --release -q -p spotcache-bench --bin cluster_loadgen -- --smoke --out "$cl" \
    --scrape-interval 0.1 | grep -q "cluster loadgen OK"
python3 - "$cl" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spotcache-cluster-v1", doc.get("schema")
assert doc["nodes"] >= 2, "cluster smoke must span at least two nodes"
assert doc["workers_per_node"] >= 1, "resolved worker pool must be non-empty"
assert doc["pipelined"]["ops_per_sec"] > 0, "aggregate throughput missing"
assert len(doc["per_node"]) == doc["nodes"], "per-node stats incomplete"
for n in doc["per_node"]:
    assert n["connections"] > 0, f"node {n['node']}: no connections served"
assert doc.get("scrapes"), "--scrape-interval run must embed live /metrics snapshots"
PY

echo "==> storm drill smoke test (correlated revocation waves, decay curves)"
st="$(mktemp /tmp/storm_drill.XXXXXX.json)"
trap 'rm -f "$snap" "$hs" "$tr" "$dr" "$drtr" "$cl" "$st"' EXIT
# The bin asserts the recovery-ordering invariants itself (warned <=
# unwarned for the identical kill-set, no permanent floor loss, trigger
# before the first burn breach); re-check the artifact's schema and the
# headline invariants here so the gate does not rely on the bin's
# asserts alone.
cargo run --release -q -p spotcache-bench --bin storm_drill -- --smoke --out "$st" \
    | grep -q "storm drill OK"
python3 - "$st" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "spotcache-storm-v1", doc.get("schema")
scenarios = doc["scenarios"]
expect = {"warned", "unwarned", "cascade", "multi_router_degraded"}
assert expect <= set(scenarios), f"missing scenarios: {expect - set(scenarios)}"
rf = doc["recovery_fraction"]
for name, sc in scenarios.items():
    series = sc["series"]
    for curve in ("fresh", "served", "stale", "burn", "degraded"):
        pts = series[curve]
        assert pts, f"{name}: empty {curve} series"
        ts = [t for t, _ in pts]
        assert ts == sorted(ts) and len(ts) == len(set(ts)), \
            f"{name}: {curve} timestamps not strictly monotone"
    assert sc["recovery_windows"] is not None, f"{name}: never recovered"
    assert sc["storm_trigger_window"] is not None, f"{name}: detector never fired"
    assert sc["storm_trigger_latency_windows"] <= doc["storm_detector"]["window"], \
        f"{name}: trigger latency exceeds the detector window"
    assert sc["final_fresh_rate"] >= rf * sc["steady_fresh_rate"], \
        f"{name}: permanent hit-rate floor loss"
    if sc["burn_breaches"]:
        assert sc["storm_trigger_window"] <= sc["burn_breaches"][0][0], \
            f"{name}: storm trigger lagged the first SLO burn breach"
    assert len(sc["killed"]) == len(sc["kill_windows"]), f"{name}: kill bookkeeping"
w, u = scenarios["warned"], scenarios["unwarned"]
assert w["killed"] == u["killed"] and w["kill_windows"] == u["kill_windows"], \
    "warned/unwarned runs must face the identical storm"
assert w["recovery_windows"] <= u["recovery_windows"], \
    "warned recovery must not exceed unwarned for the same kill-set"
assert scenarios["multi_router_degraded"]["max_degraded_routers"] >= 2, \
    "multi-router scenario must degrade >=2 routers simultaneously"
assert len(scenarios["cascade"]["killed"]) > len(w["killed"]), \
    "cascade must out-kill a single wave"
PY

echo "==> results byte-identity (every experiment in 'repro --list' vs results/<name>.txt)"
# The hourly simulator and the spot models are bit-deterministic, so every
# checked-in table must reproduce exactly: a changed pivot, rounding or
# prediction anywhere in the planner shows up here as a diff. Runs
# $(nproc) experiments at a time; fig13 alone is 23-24 s of the measured
# wall time below, and the budget leaves a loaded host about three times
# that.
cargo build --release -q -p spotcache-bench --bin repro
repro=target/release/repro
gate_start=$(date +%s)
"$repro" --list | xargs -P "$(nproc)" -I{} bash -c '
    set -o pipefail
    t0=$(date +%s%N)
    if delta=$("$0" "$1" | diff - "results/$1.txt"); then verdict=ok; else verdict="results/$1.txt no longer reproduces"; fi
    ms=$(( ($(date +%s%N) - t0) / 1000000 ))
    printf "    %-20s %3d.%d s  %s\n" "$1" $((ms / 1000)) $((ms % 1000 / 100)) "$verdict"
    [ "$verdict" = ok ] || { printf "%s\n" "$delta"; exit 1; }
' "$repro" {} || { echo "results/ no longer reproduces (files named above)"; exit 1; }
gate_s=$(( $(date +%s) - gate_start ))
echo "    results gate: ${gate_s} s wall (measured 27-28 s on the 2-core host, budget 80 s)"
[ "$gate_s" -le 80 ] || { echo "results gate took ${gate_s} s, over its 80 s budget"; exit 1; }

# One short traced run per benchmark workload: the output check passes
# and no operation failed. paced_get / pipelined_mix / write_evict drive a
# single server over real sockets with every reply verified; revocation
# needs 6 s to fit its kill-and-restore round. write_evict also holds the
# write path to one allocation per `set` (an in-process count that repeats
# run after run: 0.51 per command at 50 % sets, 1.01 before PR 17). Its
# store.evictions / store.hit_rate are not gated here: over 2 s they
# follow the live slice and differ between two runs of one binary; nor are
# its server.busy_frac / server.epoll_waits_per_op, which are printed
# (≈ 0.97 and ≈ 0.005 when passes end on the reply-buffer bound and the two
# sides overlap, ≈ 0.8 and ≈ 0.0015 when they take turns): two seconds on a
# shared host is not a gate.
# pipelined_mix holds the read path to the same count (0.0999 per command,
# all of it the 10 % sets' values: staging a hit's bytes must not
# allocate) and to a touch log that never overflows. plan_90d holds seed
# 42's normalised cost to the bit: the harness only checks a run against
# itself, so a planner that is wrong the same way every repetition (a
# look-ahead that misses a trace's last sample read 0.40316) is `correct`.
# Its spotmodel.predict_us_per_call and core.plan_ms_per_slot are printed
# (≈ 1.5-1.7 us and ≈ 0.068-0.074 ms since the run scan became a tight
# loop and the count walk stopped solving LPs its counts rule out;
# 5.4-5.9 and 0.097-0.115 before), not asserted, for the same reason as
# write_evict's.
for spec in paced_get:2 pipelined_mix:2 write_evict:2 revocation:6 plan_90d:2; do
    w="${spec%%:*}"
    echo "==> benchmark $w smoke (traced; correct, nothing failed)"
    bash benchmark/run.sh --workload "$w" --seed 42 --seconds "${spec##*:}" --trace 1 \
        | tail -n 1 | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["correct"] is True, "%s output check failed" % sys.argv[1]
assert doc["failed"] == 0, "%s: %d failed operations" % (sys.argv[1], doc["failed"])
if sys.argv[1] == "write_evict":
    allocs = doc["metrics"]["protocol.allocs_per_op"]["value"]
    assert allocs <= 0.55, "write_evict: %.4f allocations per command, over 0.55" % allocs
    print("    write_evict: server.busy_frac %.3f, server.epoll_waits_per_op %.4f" % tuple(
        doc["metrics"][m]["value"] for m in ("server.busy_frac", "server.epoll_waits_per_op")))
if sys.argv[1] == "pipelined_mix":
    allocs = doc["metrics"]["protocol.allocs_per_op"]["value"]
    assert allocs <= 0.11, "pipelined_mix: %.4f allocations per command, over 0.11" % allocs
    dropped = doc["metrics"]["store.touch_dropped"]["value"]
    assert dropped == 0, "pipelined_mix: %d touch records dropped" % dropped
if sys.argv[1] == "plan_90d":
    norm = doc["metrics"]["sim.cost_norm"]["value"]
    assert norm == 0.40124861357755254, "plan_90d: sim.cost_norm %r moved" % norm
    print("    plan_90d: spotmodel.predict_us_per_call %.2f, core.plan_ms_per_slot %.4f" % tuple(
        doc["metrics"][m]["value"] for m in ("spotmodel.predict_us_per_call", "core.plan_ms_per_slot")))
' "$w"
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI OK"
