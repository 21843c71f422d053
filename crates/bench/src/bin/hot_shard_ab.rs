//! hot_shard_ab: the 4-reader hot-shard read-path A/B.
//!
//! `benchmark/` pins one server worker, so it cannot see what happens
//! when several readers contend for ONE shard — which is where the two
//! read planes differ. This bin drives 4 reader threads of uniform GETs
//! at a single shard of an in-process store, once on the frozen inline
//! (exclusive-lock) read path and once on the deferred (shared-lock +
//! touch-log) path, in alternated slices, and writes the before/after
//! table to `BENCH_hot_shard.json` (checked in). The full run requires
//! deferred ≥1.5× inline; smoke requires deferred ≥ inline.
//!
//! In-process on purpose: single-server throughput and latency over real
//! sockets are `benchmark/`'s `paced_get` and `pipelined_mix`; this
//! isolates the store's read path, where the inline plane serializes
//! (every GET takes the exclusive lock, and a key's first GET
//! random-writes a multi-million-slot LRU slab under it). The clock stands
//! at 0 throughout, so the store bumps each key once and every repeat GET
//! only checks its tick stamp — this is the one gate that runs that stamp
//! under four concurrent readers.
//!
//! Flags: `--smoke` (smaller key set for CI), `--out PATH` (default
//! `BENCH_hot_shard.json`), `--seed N`.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spotcache_bench::heading;
use spotcache_bench::live::{write_artifact, Flags};
use spotcache_cache::store::{ReadPath, Store, StoreConfig};
use spotcache_obs::Obs;

/// Keys per multiget — the pipelined protocol's batch shape.
const HOT_DEPTH: usize = 64;
/// Reader threads (the A/B's floor is 4).
const HOT_READERS: usize = 4;
/// Ops between `flush_touches` calls per reader — the reactor's
/// between-event-batches cadence under saturation, emulated. Long enough
/// that the log's drop-oldest bound actually engages (the design's
/// recency-maintenance cap), as it does on a loaded reactor worker.
const HOT_FLUSH_EVERY: usize = 65_536;
/// Small values: the phase measures recency-maintenance cost, not memcpy.
const HOT_VALUE_LEN: usize = 8;

/// Fixed-stride key set: every key hashes to shard 0 of an 8-way store
/// ("the hot shard"). Flat storage so sampling key `i` costs one cache
/// line, not a `Vec<Vec<u8>>` header hop plus a heap hop — overhead the
/// harness would otherwise charge identically to both legs, diluting the
/// measured read-path difference.
struct HotKeys {
    flat: Vec<u8>,
    count: usize,
}

/// Every key is `hot` + nine digits.
const KEY_WIDTH: usize = 12;

impl HotKeys {
    fn build(store: &Store, count: usize) -> Self {
        let mut flat = Vec::with_capacity(count * KEY_WIDTH);
        let mut id = 0u64;
        while flat.len() < count * KEY_WIDTH {
            let k = format!("hot{id:09}");
            debug_assert_eq!(k.len(), KEY_WIDTH);
            if store.shard_of(k.as_bytes()) == 0 {
                flat.extend_from_slice(k.as_bytes());
            }
            id += 1;
        }
        Self { flat, count }
    }

    #[inline]
    fn key(&self, i: usize) -> &[u8] {
        &self.flat[i * KEY_WIDTH..(i + 1) * KEY_WIDTH]
    }
}

/// Alternated A/B slices per plane. The host this runs on drifts ±20%
/// over seconds (shared tenancy), so one long leg per plane measures the
/// weather, not the store. Fine-grained alternation charges the drift to
/// both planes roughly equally.
const HOT_ROUNDS: usize = 8;

/// One timed slice: `HOT_READERS` threads drive `HOT_DEPTH`-key
/// multigets (the pipelined protocol's batch shape) at the hot shard;
/// returns elapsed seconds. Readers call `flush_touches` on a batch
/// cadence exactly as the reactor's workers do, so the deferred plane
/// pays its real recency-maintenance cost (one `fetch_add` per first
/// read, then the log drain and in-order LRU apply under the write lock),
/// not an idealized one.
fn hot_slice(
    store: &Arc<Store>,
    keys: &Arc<HotKeys>,
    ops_per_reader: usize,
    seed: u64,
) -> (usize, f64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..HOT_READERS)
        .map(|t| {
            let store = Arc::clone(store);
            let keys = Arc::clone(keys);
            let seed = seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1));
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut idxs = [0usize; HOT_DEPTH];
                let mut out = Vec::with_capacity(HOT_DEPTH);
                let mut hits = 0usize;
                let mut done = 0usize;
                while done < ops_per_reader {
                    for i in &mut idxs {
                        *i = rng.gen_range(0..keys.count);
                    }
                    store.get_many_into(idxs.iter().map(|&i| keys.key(i)), 0, &mut out);
                    hits += out.iter().filter(|o| o.is_some()).count();
                    done += HOT_DEPTH;
                    if done % HOT_FLUSH_EVERY < HOT_DEPTH {
                        store.flush_touches(0);
                    }
                }
                assert_eq!(hits, done, "every hot GET must hit");
                done
            })
        })
        .collect();
    let mut done = 0usize;
    for h in handles {
        done += h.join().expect("hot reader");
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(done >= HOT_READERS * ops_per_reader);
    (done, elapsed)
}

fn main() {
    let mut flags = Flags::from_env();
    let (smoke, out, seed) = flags.artifact_run("BENCH_hot_shard.json");
    flags.finish();
    let (hot_keys, ops_per_reader) = if smoke {
        (400_000, 150_000)
    } else {
        (1_500_000, 1_000_000)
    };
    heading("Hot-shard read-path A/B");

    let store_for = |mode| {
        Arc::new(Store::with_read_path(
            StoreConfig {
                capacity_bytes: 1 << 30,
                shards: 8,
            },
            mode,
        ))
    };
    // Both stores live side by side with the same key set (shard selection
    // is store-independent), measured in alternating slices: inline first.
    let stores = [store_for(ReadPath::Inline), store_for(ReadPath::Deferred)];
    let keys = Arc::new(HotKeys::build(&stores[0], hot_keys));
    let value = vec![b'v'; HOT_VALUE_LEN];
    for i in 0..keys.count {
        for store in &stores {
            store.set_at(keys.key(i).to_vec(), value.clone(), 0, None);
        }
    }
    println!(
        "hot shard: {hot_keys} keys x {HOT_VALUE_LEN}B, {HOT_READERS} readers x \
         {ops_per_reader} uniform GETs in depth-{HOT_DEPTH} multigets, flush every \
         {HOT_FLUSH_EVERY}, {HOT_ROUNDS} alternated rounds"
    );

    let slice_ops = (ops_per_reader / HOT_ROUNDS).max(1);
    // Untimed warmup: fault in both stores' slabs before the clock starts.
    for store in &stores {
        hot_slice(store, &keys, slice_ops / 4, seed);
    }
    let mut totals = [(0usize, 0.0f64); 2];
    for r in 0..HOT_ROUNDS {
        for (store, total) in stores.iter().zip(&mut totals) {
            let (ops, secs) = hot_slice(store, &keys, slice_ops, seed + 100 + r as u64);
            total.0 += ops;
            total.1 += secs;
        }
    }
    let [inline, deferred] = totals.map(|(ops, secs)| ops as f64 / secs);
    let speedup = deferred / inline;
    println!("hot-shard A/B (before/after):");
    println!("  plane     read lock  LRU touch       ops/s");
    println!("  inline    exclusive  inline     {inline:>9.0}");
    println!("  deferred  shared     log+drain  {deferred:>9.0}");
    println!("  speedup: {speedup:.2}x");

    let obs = Obs::new();
    obs.gauge("loadgen_seed").set(seed as f64);
    obs.gauge("loadgen_smoke").set(smoke as u64 as f64);
    obs.gauge("loadgen_hot_keys").set(hot_keys as f64);
    obs.gauge("loadgen_hot_readers").set(HOT_READERS as f64);
    obs.gauge("loadgen_hot_inline_ops_per_sec").set(inline);
    obs.gauge("loadgen_hot_deferred_ops_per_sec").set(deferred);
    obs.gauge("loadgen_hot_speedup").set(speedup);
    write_artifact(&out, &obs.json_snapshot());

    if smoke {
        // The shared-lock plane must never lose to the exclusive-lock
        // plane on its own headline workload.
        assert!(
            deferred >= inline,
            "deferred read path lost the hot-shard A/B: {deferred:.0} < {inline:.0} ops/s"
        );
    } else {
        assert!(
            speedup >= 1.5,
            "hot-shard A/B below the 1.5x bar: {speedup:.2}x ({deferred:.0} vs {inline:.0} ops/s)"
        );
    }
    println!("hot-shard A/B OK");
}
