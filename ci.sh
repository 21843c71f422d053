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

echo "==> cargo clippy --workspace --all-targets -- -D warnings (libs, bins, tests, examples)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# same_names FRESH PINNED BIN: a checked-in artifact names every series its
# bin's registry holds and every field the bin writes, so a fresh smoke run
# must name the same counters, gauges and histograms (the `obs` snapshot,
# or the whole document for BENCH_obs.json) and the same key paths outside
# `obs`. A change that adds or removes one regenerates the file:
# `cargo run --release -p spotcache-bench --bin BIN` from the repo root.
same_names() {
python3 - "$@" <<'PY'
import json, sys
def split(doc):
    if "obs" not in doc:
        return doc, {}
    rest = dict(doc)
    return rest.pop("obs"), rest
def paths(node, at=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield f"{at}.{k}" if at else k
            yield from paths(v, f"{at}.{k}" if at else k)
    elif isinstance(node, list):
        for v in node:
            yield from paths(v, at + "[]")
(fresh, fresh_rest), (pinned, pinned_rest) = (split(json.load(open(p))) for p in sys.argv[1:3])
sets = [(k, set(fresh[k]), set(pinned[k])) for k in ("counters", "gauges", "histograms")]
sets.append(("key paths", set(paths(fresh_rest)), set(paths(pinned_rest))))
for kind, new, old in sets:
    assert new == old, f"{sys.argv[2]} {kind} are stale: new {sorted(new - old)}, " \
        f"gone {sorted(old - new)}; regenerate it with --bin {sys.argv[3]}"
PY
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> observability run (every layer once; admin endpoint scraped under load)"
# obs_snapshot drives the control loop, recovery and a live server against
# one registry and one tracer, scrapes /metrics while a client sends, then
# /healthz, /journal and /trace, and checks every body itself. Here: the
# snapshot names the checked-in series, and the scraped /trace body holds
# spans of all four layers, re-checked so the gate does not rely on the
# bin's asserts alone.
snap="$tmp/obs_snapshot.json"
tr="$tmp/obs_trace.json"
cargo run --release -q -p spotcache-bench --bin obs_snapshot -- --metrics-out "$snap" \
    --trace-out "$tr" | grep -q "snapshot OK"
same_names "$snap" BENCH_obs.json obs_snapshot
python3 - "$tr" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
cats = {e["cat"] for e in events}
missing = {"protocol", "server", "control", "recovery"} - cats
assert not missing, f"trace is missing layers: {missing}"
PY

echo "==> revocation drill smoke test (both strategies + link faults)"
dr="$tmp/revocation_drill.json"
drtr="$tmp/drill_trace.json"
# The bin asserts the recovery orderings (per-strategy warned <= warning
# window, replay unwarned > warned, hybrid beating replay) and the
# link-fault healing itself; re-check the artifact's schema and the
# headline invariants here so the gate does not rely on the bin's
# asserts alone.
cargo build --release -q -p spotcache-bench --bin revocation_drill
drill_start=$(date +%s%N)
target/release/revocation_drill --smoke --out "$dr" --trace-out "$drtr" \
    | grep -q "revocation drill OK"
echo "    revocation_drill --smoke: $(( ($(date +%s%N) - drill_start) / 1000000 )) ms wall"
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
assert doc["schema"] == "spotcache-drill-v3", doc.get("schema")
assert set(doc["strategies"]) == {"replay", "hybrid"}, sorted(doc["strategies"])
warning_s = doc["warning_window_s"]
for name in ("replay", "hybrid"):
    strat = doc["strategies"][name]
    for drill in ("with_warning", "no_warning"):
        d = strat[drill]
        assert d["recovery_windows"] is not None, f"{name}/{drill}: never recovered"
        assert d["restore_items"] > 0, f"{name}/{drill}: restore moved nothing"
    assert strat["with_warning"]["recovery_s"] <= warning_s, \
        f"{name}: warned recovery must fit the warning window"
replay, hybrid = doc["strategies"]["replay"], doc["strategies"]["hybrid"]
assert replay["no_warning"]["recovery_s"] > replay["with_warning"]["recovery_s"], \
    "unwarned replay should pay for the paced copy"
assert hybrid["no_warning"]["recovery_s"] <= replay["no_warning"]["recovery_s"], \
    "unwarned hybrid recovery must not lose to unwarned replay"
race = doc["full_set_restore"]
assert race["checkpoint_s"] < race["replay_s"], \
    "full-set checkpoint restore must beat replay-at-pump-rate"
for fault in ("sever", "stall", "corrupt"):
    f = doc["link_faults"][fault]
    assert f["link_errors"] > 0 and f["healed"], f"link fault {fault}: not observed/healed"
PY
same_names "$dr" BENCH_drill.json revocation_drill

echo "==> storm drill smoke test (correlated revocation waves, decay curves)"
st="$tmp/storm_drill.json"
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
same_names "$st" BENCH_storm.json storm_drill

echo "==> live fleet example (the control loop driving the fleet for 24 hourly slots)"
# The example asserts that every revoked member was restored from its
# backup and that most reads hit, then prints its OK line.
cargo build --release -q -p spotcache-bench --example live_fleet
fleet_start=$(date +%s%N)
target/release/examples/live_fleet | grep -q "live fleet OK"
echo "    live_fleet: $(( ($(date +%s%N) - fleet_start) / 1000000 )) ms wall"

echo "==> root examples (README's runnable examples, each run once)"
# Clippy only builds them; a panic in one shows here as a non-zero exit.
cargo build --release -q --examples -p spotcache
examples_start=$(date +%s%N)
for ex in cost_simulation failure_recovery hotcold_mixing memcached_protocol spot_prediction; do
    target/release/examples/"$ex" > /dev/null || { echo "example $ex failed"; exit 1; }
done
echo "    root examples: $(( ($(date +%s%N) - examples_start) / 1000000 )) ms wall"

echo "==> results byte-identity (every experiment in 'repro --list' vs results/<name>.txt)"
# The hourly simulator and the spot models are bit-deterministic, so every
# checked-in table must reproduce exactly: a changed pivot, rounding or
# prediction anywhere in the planner shows up here as a diff. Runs
# $(nproc) experiments at a time; fig13 alone is 12-13 s of the measured
# wall time below, and the budget leaves a loaded host about five times
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
echo "    results gate: ${gate_s} s wall (measured 14-16 s on the 2-core host, budget 80 s)"
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
# shared host is not a gate. The same two are printed for paced_get and
# revocation, whose depth-1 round trips are where a worker polls before it
# parks: server.busy_frac ≈ 0.99 on paced_get and ≈ 1.1 on revocation (all
# three nodes) while the polls catch the requests, ≈ 0.45 and ≈ 0.63 when
# every request has to wake a parked worker.
# revocation also holds the unwarned restore to its order: recovery.recovery_s
# (kill -> fresh-hit rate back) at most 0.7 x recovery.restore_s, both
# printed. Landing the hottest slice of every shard first reads about 0.4-0.5;
# cutting and loading one whole shard at a time read about 0.9. Beside them
# recovery.ckpt_write_mb_per_s and recovery.ckpt_restore_items_per_s are
# printed, not asserted (both follow the checkpoint CRC's speed).
# pipelined_mix holds the read path to the same count (0.0999 per command,
# all of it the 10 % sets' values: staging a hit's bytes must not
# allocate) and to a touch log that never overflows. plan_90d holds seed
# 42's normalised cost to the bit: the harness only checks a run against
# itself, so a planner that is wrong the same way every repetition (a
# look-ahead that misses a trace's last sample read 0.40316) is `correct`.
# It read 0.40138153519991876 before warned spot instances were billed
# through their 120 s warning (SpotTrace::lease).
# Its spotmodel.predict_us_per_call, optimizer.solve_us and
# core.plan_ms_per_slot are printed (≈ 1.5-1.7 us, ≈ 44-49 us and
# ≈ 0.035-0.038 ms since zero-rhs >= rows start on their slacks and
# fixed-count LPs drop zero-count offers; ≈ 90-100 us and 0.064-0.074 ms
# before), not asserted, for the same reason as write_evict's.
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
if sys.argv[1] in ("paced_get", "write_evict", "revocation"):
    print("    %s: server.busy_frac %.3f, server.epoll_waits_per_op %.4f" % ((sys.argv[1],) + tuple(
        doc["metrics"][m]["value"] for m in ("server.busy_frac", "server.epoll_waits_per_op"))))
if sys.argv[1] == "revocation":
    rec, res = (doc["metrics"][m]["value"] for m in ("recovery.recovery_s", "recovery.restore_s"))
    print("    revocation: recovery.recovery_s %.3f, recovery.restore_s %.3f (%.2f x)"
          % (rec, res, rec / res))
    print("    revocation: recovery.ckpt_write_mb_per_s %.0f, recovery.ckpt_restore_items_per_s %.0f"
          % tuple(doc["metrics"][m]["value"] for m in (
              "recovery.ckpt_write_mb_per_s", "recovery.ckpt_restore_items_per_s")))
    assert rec <= 0.7 * res, "revocation: fresh again only after %.2f of the restore; " \
        "the unwarned restore should land the hottest slice of every shard first" % (rec / res)
if sys.argv[1] == "pipelined_mix":
    allocs = doc["metrics"]["protocol.allocs_per_op"]["value"]
    assert allocs <= 0.11, "pipelined_mix: %.4f allocations per command, over 0.11" % allocs
    dropped = doc["metrics"]["store.touch_dropped"]["value"]
    assert dropped == 0, "pipelined_mix: %d touch records dropped" % dropped
if sys.argv[1] == "plan_90d":
    norm = doc["metrics"]["sim.cost_norm"]["value"]
    assert norm == 0.4015145357049416, "plan_90d: sim.cost_norm %r moved" % norm
    print("    plan_90d: spotmodel.predict_us_per_call %.2f, optimizer.solve_us %.1f, "
          "core.plan_ms_per_slot %.4f" % tuple(doc["metrics"][m]["value"] for m in (
              "spotmodel.predict_us_per_call", "optimizer.solve_us", "core.plan_ms_per_slot")))
' "$w"
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> *.rs lines per crate (informational, not a gate: a PR reports its net change from here)"
total=0
for d in crates/* src tests examples; do
    n=$(find "$d" -name '*.rs' -exec cat {} + | wc -l)
    total=$((total + n))
    printf "    %-20s %6d\n" "$d" "$n"
done
printf "    %-20s %6d\n" total "$total"

echo "CI OK"
