//! The store against its sequential model.
//!
//! The store (shared-lock GETs + touch log + TTL wheel) must be
//! observably equivalent to the `HashMap` + `VecDeque` model of
//! `common/model.rs`, which moves each key inline and expires lazily:
//!
//! * **Byte-identical results.** Over arbitrary get / set / delete / `add`
//!   / `replace` / `Fill` / `update` / multi-get / multi-set interleavings —
//!   including eviction pressure — every operation returns exactly the
//!   same bytes / outcome on both sides. Recency-sensitive state (eviction
//!   order) matches whenever touches are flushed before the eviction
//!   happens; since every writer flushes opportunistically, any
//!   single-threaded sequence matches *without* an explicit flush.
//! * **Counters within the approximation bound.** `hits`/`misses`/`sets`/
//!   `deletes`/`evictions` match exactly. `expirations` may differ: the
//!   model counts an expired item only when something collides with it,
//!   the wheel counts every reaped record — both are bounded by the number
//!   of TTL'd inserts.
//! * **Per-worker touch order.** Touches from one thread are applied in
//!   the order they were recorded (never reordered), and a drop-oldest
//!   overflow only makes a key *colder*, never hotter.
//! * **Every hit accounted for.** With readers and a flusher running
//!   together, each hit either skipped its record (not the key's first in
//!   the tick), or its record was drained, or it was counted dropped.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

mod common;

use bytes::Bytes;
use common::{Model, Plane};
use proptest::prelude::*;
use spotcache_cache::store::{SetOutcome, SetPolicy, Store, StoreConfig, TOUCH_LOG_CAPACITY};
use spotcache_obs::Obs;

fn pair(capacity: usize) -> (Store, Model) {
    let cfg = StoreConfig {
        capacity_bytes: capacity,
        shards: 2,
    };
    (Store::new(cfg), Model::new(cfg))
}

/// One generated operation: `(op, key, size, ttl, now)` with small key and
/// time domains so collisions, overwrites, and expiries actually happen.
type Op = (u8, u8, u16, u8, u8);

fn key_of(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

/// What one op returned.
#[derive(Debug, PartialEq)]
enum Reply {
    Value(Option<Bytes>),
    Values(Vec<Option<Bytes>>),
    Outcome(Option<SetOutcome>),
    Removed(bool),
    Stored(usize),
    Nothing,
}

/// Applies one op at logical time `now`. The caller advances the clock
/// monotonically — the store's clock contract (a wheel reap at time `t`
/// must never be followed by a query at an earlier time).
fn apply_op(s: &mut impl Plane, (op, k, size, ttl, _dt): Op, now: u64) -> Reply {
    let key = key_of(k);
    let ttl = (ttl > 0).then_some(ttl as u64);
    let value = |fill: u8| Bytes::from(vec![fill; size as usize]);
    match op % 8 {
        0 => Reply::Value(s.get_at(&key, now)),
        1 => {
            s.set_at(key.into(), value(k ^ size as u8), now, ttl);
            Reply::Nothing
        }
        2 => Reply::Removed(s.delete_at(&key, now)),
        3 | 4 => {
            let (policy, fill) = match (op % 8, size % 2) {
                (3, 0) => (SetPolicy::IfAbsent, b'a'),
                (3, _) => (SetPolicy::Fill, b'f'),
                _ => (SetPolicy::IfPresent, b'r'),
            };
            let out = s.set_policy_at(key.into(), value(fill), now, ttl, policy);
            Reply::Outcome(Some(out))
        }
        // Every third update declines, which still touches the key.
        5 => Reply::Outcome(s.update_at(&key, now, |v| {
            let fill = v.first().map_or(0, |b| b.wrapping_add(1));
            (size % 3 != 0).then(|| value(fill))
        })),
        // A multi-get that names `k` twice.
        6 => {
            let keys = [k, k.wrapping_add(1), k, (size % 64) as u8].map(key_of);
            Reply::Values(s.get_many(&keys.each_ref().map(Vec::as_slice), now))
        }
        // A multi-set over both shards that writes `k` twice.
        _ => {
            let items = [(k, ttl), (k.wrapping_add(1), None), (k, None)];
            let items = items.map(|(k, ttl)| (key_of(k).into(), value(k), ttl));
            Reply::Stored(s.set_many_at(items.into(), now))
        }
    }
}

/// One shard's items at time 0, hottest first.
fn recency(s: &mut impl Plane, shard: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut items = Vec::new();
    s.visit_shard_at(shard, 0, |k, v, _| items.push((k.to_vec(), v.to_vec())));
    items
}

proptest! {
    /// No-TTL workloads under eviction pressure: every result and every
    /// counter (including evictions) is byte-identical, with the store
    /// flushed only by its own writers.
    #[test]
    fn no_ttl_sequences_are_byte_identical(
        ops in proptest::collection::vec((0u8..8, 0u8..40, 0u16..1500, 0u8..1, 0u8..1), 1..250)
    ) {
        let (mut d, mut i) = pair(16 * 1024);
        for op in ops {
            let rd = apply_op(&mut d, op, 0);
            let ri = apply_op(&mut i, op, 0);
            prop_assert_eq!(rd, ri);
        }
        prop_assert_eq!(d.stats(), i.snapshot_at(0).stats, "all counters identical without TTLs");
        // Final contents identical too, shard by shard in recency order:
        // one tick, so the once-per-tick rule holds both to the same LRU.
        for shard in 0..2 {
            prop_assert_eq!(recency(&mut d, shard), recency(&mut i, shard));
        }
    }

    /// TTL'd workloads without eviction pressure: results stay
    /// byte-identical (expiry is checked on read on both sides) and the
    /// counters stay within the documented approximation bound.
    #[test]
    fn ttl_sequences_serve_identical_results(
        ops in proptest::collection::vec((0u8..8, 0u8..30, 0u16..200, 0u8..10, 0u8..5), 1..250)
    ) {
        let (mut d, mut i) = pair(1 << 20);
        let mut clock = 0u64;
        let mut ttl_sets = 0u64;
        for op in ops {
            clock += op.4 as u64; // time moves forward as ops execute
            let rd = apply_op(&mut d, op, clock);
            let ri = apply_op(&mut i, op, clock);
            prop_assert_eq!(rd, ri);
            if matches!(op.0 % 8, 1 | 3 | 4 | 7) && op.3 > 0 {
                ttl_sets += 1;
            }
        }
        // Reap everything reapable, then compare within the bound.
        d.flush_touches(clock + 1000);
        let (sd, si) = (d.stats(), i.snapshot_at(0).stats);
        prop_assert_eq!(sd.hits, si.hits);
        prop_assert_eq!(sd.misses, si.misses);
        prop_assert_eq!(sd.sets, si.sets);
        prop_assert_eq!(sd.deletes, si.deletes);
        prop_assert_eq!(sd.evictions, 0u64);
        prop_assert_eq!(si.evictions, 0u64);
        // Approximation bound: both sides count each TTL'd insert at most
        // once, and the wheel never reaps less than the model's lazy
        // expiry observes *after a full reap* — the live item sets must
        // agree.
        prop_assert!(sd.expirations <= ttl_sets);
        prop_assert!(si.expirations <= ttl_sets);
        let now = clock + 1000;
        let mut cd = d.hot_snapshot_at(usize::MAX, now);
        let mut ci = i.hot_snapshot_at(usize::MAX, now);
        cd.sort();
        ci.sort();
        prop_assert_eq!(cd, ci, "live items agree after a full reap");
    }
}

/// Per-worker order: touches recorded by one thread are applied in
/// exactly the order they were made, so a flush leaves the same LRU order
/// as inline touching.
#[test]
fn touch_order_within_a_worker_is_preserved() {
    let (mut d, mut i) = pair(16 * 1024);
    for k in 0..8u8 {
        let op = (1u8, k, 500u16, 0u8, 0u8);
        apply_op(&mut d, op, 0);
        apply_op(&mut i, op, 0);
    }
    // A deliberately shuffled touch sequence, no flush in between.
    for k in [3u8, 1, 4, 1, 5, 2, 6, 3] {
        assert!(d.get(&key_of(k)).is_some());
        assert!(i.get_at(&key_of(k), 0).is_some());
    }
    d.flush_touches(0);
    // Recency order must now be identical: walk both stores hottest-first.
    let order_d: Vec<_> = d
        .hot_snapshot_at(usize::MAX, 0)
        .into_iter()
        .map(|(k, _, _)| k)
        .collect();
    let order_i: Vec<_> = i
        .hot_snapshot_at(usize::MAX, 0)
        .into_iter()
        .map(|(k, _, _)| k)
        .collect();
    assert_eq!(order_d, order_i);
}

/// Drop-oldest overflow only loses the *oldest* pending touches: the most
/// recent [`TOUCH_LOG_CAPACITY`] survive, so a hot key can look colder
/// than it is but never hotter.
#[test]
fn overflow_drops_make_keys_colder_never_hotter() {
    // One shard, so one log sees every touch, and more distinct first
    // reads between two flushes than it holds.
    const EXCESS: usize = 100;
    let keys: Vec<Vec<u8>> = (0..TOUCH_LOG_CAPACITY + EXCESS)
        .map(|k| format!("key-{k}").into_bytes())
        .collect();
    let d = Store::new(StoreConfig {
        capacity_bytes: 1 << 20,
        shards: 1,
    });
    let obs = Obs::new();
    d.attach_telemetry(&obs, None);
    for k in &keys {
        d.set(k.clone(), "v");
    }
    for k in &keys {
        assert!(d.get(k).is_some());
    }
    let rep = d.flush_touches(0);
    assert_eq!(
        rep.drained, TOUCH_LOG_CAPACITY as u64,
        "the log kept only the newest TOUCH_LOG_CAPACITY touches"
    );
    assert_eq!(rep.applied, rep.drained);
    assert_eq!(
        obs.counter("store_touch_dropped_total").get(),
        EXCESS as u64,
        "the overwritten records are counted when drained"
    );
    // The surviving touches are the newest ones, applied in order: the
    // four hottest keys are the last four read, newest first.
    let order: Vec<_> = d
        .hot_snapshot_at(4, 0)
        .into_iter()
        .map(|(k, _, _)| k)
        .collect();
    let want: Vec<Bytes> = keys
        .iter()
        .rev()
        .take(4)
        .cloned()
        .map(Bytes::from)
        .collect();
    assert_eq!(order, want);
}

/// Four readers and a flusher on one shard under a ticking clock: the
/// counters balance exactly. A hit that pushed a record is drained or
/// counted dropped, a hit that did not is counted skipped, and every
/// drained record is either applied or stale.
#[test]
fn four_readers_and_a_flusher_account_for_every_hit() {
    const READERS: usize = 4;
    const READS: u64 = 50_000;
    const KEYS: u64 = 64;
    let s = Store::new(StoreConfig {
        capacity_bytes: 1 << 20,
        shards: 1,
    });
    let obs = Obs::new();
    s.attach_telemetry(&obs, None);
    for k in 0..KEYS {
        s.set(k.to_be_bytes().to_vec(), "v");
    }
    let now = AtomicU64::new(0);
    let running = AtomicUsize::new(READERS);
    // Readers and flusher leave the barrier together, so the flusher's
    // drains run beside live pushers rather than after them.
    let start = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for r in 0..READERS as u64 {
            let (s, now, running, start) = (&s, &now, &running, &start);
            scope.spawn(move || {
                start.wait();
                let mut rng = 0x5eed_0020 + r;
                for _ in 0..READS {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let key = ((rng >> 33) % KEYS).to_be_bytes();
                    assert!(s.get_at(&key, now.load(Ordering::Relaxed)).is_some());
                }
                running.fetch_sub(1, Ordering::Release);
            });
        }
        start.wait();
        while running.load(Ordering::Acquire) != 0 {
            let rep = s.flush_touches(now.fetch_add(1, Ordering::Relaxed));
            assert_eq!(rep.applied + rep.stale, rep.drained, "{rep:?}");
        }
    });
    let rep = s.flush_touches(now.load(Ordering::Relaxed));
    assert_eq!(rep.applied + rep.stale, rep.drained, "{rep:?}");
    let count = |name: &str| obs.counter(name).get();
    let drained = count("store_touch_flush_records_total");
    let dropped = count("store_touch_dropped_total");
    let skipped = count("store_touch_skipped_total");
    let hits = s.stats().hits;
    assert_eq!(hits, READERS as u64 * READS);
    assert_eq!(hits, drained + dropped + skipped);
    assert_eq!(
        count("store_touch_flush_applied_total") + count("store_touch_flush_stale_total"),
        drained
    );
    assert!(
        drained > 0 && skipped > 0,
        "{drained} drained, {skipped} skipped"
    );
}

/// Eviction victims always come from the true LRU tail modulo unflushed
/// touches — and since every writer flushes first, a single-threaded
/// writer can never observe a stale tail.
#[test]
fn eviction_respects_flushed_recency() {
    let (mut d, mut i) = pair(16 * 1024);
    // Two shards: fill one shard close to capacity.
    for k in 0..14u8 {
        let op = (1u8, k, 900u16, 0u8, 0u8);
        apply_op(&mut d, op, 0);
        apply_op(&mut i, op, 0);
    }
    // Touch the oldest keys, then force evictions with fresh inserts.
    for k in 0..4u8 {
        d.get(&key_of(k));
        i.get_at(&key_of(k), 0);
    }
    for k in 100..106u8 {
        let op = (1u8, k, 900u16, 0u8, 0u8);
        apply_op(&mut d, op, 0);
        apply_op(&mut i, op, 0);
    }
    for k in 0..4u8 {
        assert_eq!(
            d.contains_at(&key_of(k), 0),
            i.contains_at(&key_of(k), 0),
            "touched key {k} must share its fate in store and model"
        );
    }
    assert_eq!(d.stats().evictions, i.snapshot_at(0).stats.evictions);
}
