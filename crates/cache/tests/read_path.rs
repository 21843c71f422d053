//! Equivalence between the two read planes (ISSUE 8 satellite).
//!
//! The deferred plane (shared-lock GETs + touch log + TTL wheel) must be
//! observably equivalent to the frozen inline plane:
//!
//! * **Byte-identical results.** Over arbitrary GET/SET/DELETE/`add`/
//!   `replace` interleavings — including eviction pressure — every
//!   operation returns exactly the same bytes/outcome on both planes.
//!   Recency-sensitive state (eviction order) matches whenever touches are
//!   flushed before the eviction happens; since every writer flushes
//!   opportunistically, any single-threaded sequence matches *without* an
//!   explicit flush.
//! * **Counters within the approximation bound.** `hits`/`misses`/`sets`/
//!   `deletes`/`evictions` match exactly. `expirations` may differ: the
//!   inline plane counts an expired item only when something collides with
//!   it, the wheel counts every reaped record — both are bounded by the
//!   number of TTL'd inserts.
//! * **Per-worker touch order.** Touches from one thread are applied in
//!   the order they were recorded (never reordered), and a drop-oldest
//!   overflow only makes a key *colder*, never hotter.
//! * **Every hit accounted for.** With readers and a flusher running
//!   together, each hit either skipped its record (not the key's first in
//!   the tick), or its record was drained, or it was counted dropped.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

use bytes::Bytes;
use proptest::prelude::*;
use spotcache_cache::store::{
    ReadPath, SetOutcome, SetPolicy, Store, StoreConfig, TOUCH_LOG_CAPACITY,
};
use spotcache_obs::Obs;

fn pair(capacity: usize) -> (Store, Store) {
    let cfg = StoreConfig {
        capacity_bytes: capacity,
        shards: 2,
    };
    (
        Store::with_read_path(cfg, ReadPath::Deferred),
        Store::with_read_path(cfg, ReadPath::Inline),
    )
}

/// One generated operation: `(op, key, size, ttl, now)` with small key and
/// time domains so collisions, overwrites, and expiries actually happen.
type Op = (u8, u8, u16, u8, u8);

fn key_of(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

/// Applies one op at logical time `clock`. The caller advances the clock
/// monotonically — the store's clock contract (a wheel reap at time `t`
/// must never be followed by a query at an earlier time).
fn apply_op(
    s: &Store,
    (op, k, size, ttl, _dt): Op,
    clock: u64,
) -> (Option<Bytes>, Option<SetOutcome>, Option<bool>) {
    let key = key_of(k);
    let now = clock;
    match op % 5 {
        0 => (s.get_at(&key, now), None, None),
        1 => {
            s.set_at(
                key,
                vec![k ^ size as u8; size as usize],
                now,
                (ttl > 0).then_some(ttl as u64),
            );
            (None, None, None)
        }
        2 => (None, None, Some(s.delete_at(&key, now))),
        3 => (
            None,
            Some(s.set_policy_at(
                key,
                vec![b'a'; size as usize],
                now,
                (ttl > 0).then_some(ttl as u64),
                SetPolicy::IfAbsent,
            )),
            None,
        ),
        _ => (
            None,
            Some(s.set_policy_at(
                key,
                vec![b'r'; size as usize],
                now,
                (ttl > 0).then_some(ttl as u64),
                SetPolicy::IfPresent,
            )),
            None,
        ),
    }
}

proptest! {
    /// No-TTL workloads under eviction pressure: every result and every
    /// counter (including evictions) is byte-identical, with the deferred
    /// plane flushed only by its own writers.
    #[test]
    fn no_ttl_sequences_are_byte_identical(
        ops in proptest::collection::vec((0u8..5, 0u8..40, 0u16..1500, 0u8..1, 0u8..1), 1..250)
    ) {
        let (d, i) = pair(16 * 1024);
        for op in ops {
            let rd = apply_op(&d, op, 0);
            let ri = apply_op(&i, op, 0);
            prop_assert_eq!(rd, ri);
        }
        prop_assert_eq!(d.stats(), i.stats(), "all counters identical without TTLs");
        // Final contents identical too (order-insensitive compare).
        let mut cd = d.hot_snapshot_at(usize::MAX, 0);
        let mut ci = i.hot_snapshot_at(usize::MAX, 0);
        cd.sort();
        ci.sort();
        prop_assert_eq!(cd, ci);
    }

    /// TTL'd workloads without eviction pressure: results stay
    /// byte-identical (expiry is checked on read on both planes) and the
    /// counters stay within the documented approximation bound.
    #[test]
    fn ttl_sequences_serve_identical_results(
        ops in proptest::collection::vec((0u8..5, 0u8..30, 0u16..200, 0u8..10, 0u8..5), 1..250)
    ) {
        let (d, i) = pair(1 << 20);
        let mut clock = 0u64;
        let mut ttl_sets = 0u64;
        for op in ops {
            clock += op.4 as u64; // time moves forward as ops execute
            let rd = apply_op(&d, op, clock);
            let ri = apply_op(&i, op, clock);
            prop_assert_eq!(rd, ri);
            if matches!(op.0 % 5, 1 | 3 | 4) && op.3 > 0 {
                ttl_sets += 1;
            }
        }
        // Reap everything reapable, then compare within the bound.
        d.flush_touches(clock + 1000);
        let (sd, si) = (d.stats(), i.stats());
        prop_assert_eq!(sd.hits, si.hits);
        prop_assert_eq!(sd.misses, si.misses);
        prop_assert_eq!(sd.sets, si.sets);
        prop_assert_eq!(sd.deletes, si.deletes);
        prop_assert_eq!(sd.evictions, 0u64);
        prop_assert_eq!(si.evictions, 0u64);
        // Approximation bound: both planes count each TTL'd insert at most
        // once, and the wheel never reaps less than an unlucky-GET plane
        // observes *after a full reap* — the live item sets must agree.
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
    let (d, i) = pair(16 * 1024);
    for k in 0..8u8 {
        let op = (1u8, k, 500u16, 0u8, 0u8);
        apply_op(&d, op, 0);
        apply_op(&i, op, 0);
    }
    // A deliberately shuffled touch sequence, no flush in between.
    for k in [3u8, 1, 4, 1, 5, 2, 6, 3] {
        assert!(d.get(&key_of(k)).is_some());
        assert!(i.get(&key_of(k)).is_some());
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
    let (d, i) = pair(16 * 1024);
    // Two shards: fill one shard close to capacity.
    for k in 0..14u8 {
        let op = (1u8, k, 900u16, 0u8, 0u8);
        apply_op(&d, op, 0);
        apply_op(&i, op, 0);
    }
    // Touch the oldest keys, then force evictions with fresh inserts.
    for k in 0..4u8 {
        d.get(&key_of(k));
        i.get(&key_of(k));
    }
    for k in 100..106u8 {
        let op = (1u8, k, 900u16, 0u8, 0u8);
        apply_op(&d, op, 0);
        apply_op(&i, op, 0);
    }
    for k in 0..4u8 {
        assert_eq!(
            d.contains(&key_of(k)),
            i.contains(&key_of(k)),
            "touched key {k} must share its fate across planes"
        );
    }
    assert_eq!(d.stats().evictions, i.stats().evictions);
}
