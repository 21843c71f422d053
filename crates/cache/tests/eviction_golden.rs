//! Eviction golden: "bit for bit" as a test.
//!
//! A seeded 240 000-operation get / set / add / replace / delete / TTL mix
//! runs against a small 4-shard store under eviction pressure, on both
//! read planes. Every reply, the final per-shard recency order
//! (`visit_shard_at`), the hottest-first snapshot and the counters are
//! folded into one FNV-1a fingerprint per plane.
//!
//! The mix runs under two clocks, and the two pairs of constants pin two
//! different things:
//!
//! * **One tick per operation** (`Clock::PerOp`; TTLs scaled by 150 so
//!   deadlines fall where they do under the other clock, multi-gets over
//!   distinct keys). No key is read twice in a tick, so tick-granular
//!   recency must be *exactly* the exact-LRU store: this pair descends
//!   (see the chain of custody below) from constants computed **at the
//!   last commit that bumped on every read** (PR 17, `802e791`). A store
//!   change that moves a victim, a TTL reap, a counter or a walk order
//!   fails here; do not regenerate them unless the change is meant to
//!   alter what an LRU store evicts.
//! * **One tick per 150 operations** (`Clock::Per150Ops`): hot keys are
//!   read many times per tick, so this schedule pins the tick rule itself
//!   — a read bumps its key once per tick, first-event order within one.
//!   Re-pinned once, when that rule landed; regenerate only when the rule
//!   changes. Under bump-on-every-read the same schedule read
//!   deferred `3_582_481_426_717_727_419` / inline
//!   `15_466_635_262_044_520_750` (taken on the pre-arena store, PR 17's
//!   parent, and held by PR 17).
//!
//! **The fold changed once, and the chain of custody runs through it.**
//! Up to and including PR 19 (`b448ba5`) operation 97 folded
//! `FlushReport::applied` as well as `expired`, and the four constants
//! read (the per-op pair taken at PR 17, all four held by PR 19): 150
//! ops/tick deferred `13_439_640_318_956_466_877` / inline
//! `10_142_391_092_961_387_008`; one tick per op deferred
//! `5_354_502_830_060_458_816` / inline `13_412_931_409_491_396_305`. The
//! touch log applies every record in
//! order where the old flush deduped first: under one tick per operation
//! a key read in two ticks between two flushes leaves two records, the
//! dedupe applied one and the log applies both — same final order, which
//! the state fold below proves — so `applied` stopped being a function of
//! store state and left the fold. The constants below were taken **at
//! PR 19 with that one line deleted and nothing else changed**, before the
//! log replaced the rings, and held through the replacement. So: PR 17 ≡
//! PR 19 under the old fold, PR 19 ≡ the log store under this one.

use bytes::Bytes;
use spotcache_cache::store::{ReadPath, SetPolicy, Store, StoreConfig};

const OPS: usize = 240_000;
const KEYS: u64 = 6_000;

const GOLDEN_PER_150_DEFERRED: u64 = 12_523_576_644_966_028_723;
const GOLDEN_PER_150_INLINE: u64 = 3_924_238_246_998_359_616;

const GOLDEN_PER_OP_DEFERRED: u64 = 14_659_691_682_383_482_913;
const GOLDEN_PER_OP_INLINE: u64 = 2_867_339_130_443_470_129;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt(&mut self, v: Option<u64>) {
        self.u64(v.unwrap_or(u64::MAX));
    }
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A key index skewed towards the low end (a hot set that survives
    /// eviction and a long tail that does not).
    fn key(&mut self) -> Vec<u8> {
        let (a, b) = (self.below(KEYS), self.below(KEYS));
        format!("key:{}", a * b / KEYS).into_bytes()
    }
}

/// How the logical clock moves under the mix.
#[derive(Clone, Copy)]
enum Clock {
    /// One tick per 150 operations: keys are read many times per tick.
    Per150Ops,
    /// One tick per operation, TTLs scaled by 150 so deadlines fall where
    /// they did, multi-gets over distinct keys: no key is read twice in a
    /// tick.
    PerOp,
}

fn fingerprint(mode: ReadPath, clock: Clock) -> u64 {
    let ttl_scale = match clock {
        Clock::Per150Ops => 1,
        Clock::PerOp => 150,
    };
    let store = Store::with_read_path(
        StoreConfig {
            capacity_bytes: 256 << 10,
            shards: 4,
        },
        mode,
    );
    let mut rng = SplitMix(0x5eed_0017);
    let mut fp = Fnv::new();
    let mut now = 1u64;
    let mut got = Vec::new();
    for i in 0..OPS {
        if matches!(clock, Clock::PerOp) || i % 150 == 149 {
            now += 1;
        }
        let op = rng.below(100);
        let key = rng.key();
        match op {
            0..=41 => match store.get_at(&key, now) {
                Some(v) => fp.bytes(&v),
                None => fp.u64(0),
            },
            42..=44 => {
                let mut keys: Vec<Vec<u8>> = (0..8).map(|_| rng.key()).collect();
                if matches!(clock, Clock::PerOp) {
                    keys.sort();
                    keys.dedup();
                }
                store.get_many_into(keys.iter().map(|k| k.as_slice()), now, &mut got);
                for v in &got {
                    fp.opt(v.as_ref().map(|v| v.len() as u64));
                }
            }
            45..=84 => {
                let len = 1 + rng.below(if op < 50 { 3_000 } else { 400 }) as usize;
                let ttl = (rng.below(10) < 3).then(|| rng.below(40) * ttl_scale);
                let mut value = vec![(i % 251) as u8; len];
                value[0] = op as u8;
                store.set_at(key, value, now, ttl);
            }
            85..=90 => {
                let policy = if op.is_multiple_of(2) {
                    SetPolicy::IfAbsent
                } else {
                    SetPolicy::IfPresent
                };
                let ttl = (rng.below(2) == 0).then(|| (1 + rng.below(20)) * ttl_scale);
                let value = vec![op as u8; 1 + rng.below(200) as usize];
                fp.u64(store.set_policy_at(key, value, now, ttl, policy) as u64);
            }
            91..=95 => fp.u64(store.delete_at(&key, now) as u64),
            96 => {
                let items: Vec<(Bytes, Bytes, Option<u64>)> = (0..6)
                    .map(|j| {
                        let v = vec![j as u8; 1 + rng.below(300) as usize];
                        (
                            Bytes::from(rng.key()),
                            Bytes::from(v),
                            (j == 2).then_some(9 * ttl_scale),
                        )
                    })
                    .collect();
                fp.u64(store.set_many_at(items, now) as u64);
            }
            97 => {
                let rep = store.flush_touches(now);
                fp.u64(rep.expired);
            }
            98 => fp.u64(store.contains_at(&key, now) as u64),
            _ => {
                let snap = store.snapshot_at(now);
                fp.u64(snap.items as u64);
                fp.u64(snap.used_bytes as u64);
            }
        }
    }
    for shard in 0..store.shard_count() {
        let seen = store.visit_shard_at(shard, now, |k, v, ttl| {
            fp.bytes(k);
            fp.u64(v.len() as u64);
            fp.opt(ttl);
        });
        fp.u64(seen as u64);
    }
    for (k, v, ttl) in store.hot_snapshot_at(500, now) {
        fp.bytes(&k);
        fp.bytes(&v);
        fp.opt(ttl);
    }
    let snap = store.snapshot_at(now);
    assert!(
        snap.stats.evictions > 10_000,
        "the mix must evict: {snap:?}"
    );
    assert!(snap.stats.expirations > 1_000, "and expire: {snap:?}");
    assert!(snap.stats.hits > 10_000 && snap.stats.misses > 10_000);
    for v in [
        snap.stats.hits,
        snap.stats.misses,
        snap.stats.evictions,
        snap.stats.sets,
        snap.stats.deletes,
        snap.stats.expirations,
        snap.used_bytes as u64,
        snap.items as u64,
    ] {
        fp.u64(v);
    }
    fp.0
}

#[test]
fn many_reads_per_tick_bump_each_key_once_per_tick() {
    assert_eq!(
        fingerprint(ReadPath::Deferred, Clock::Per150Ops),
        GOLDEN_PER_150_DEFERRED,
        "deferred plane"
    );
    assert_eq!(
        fingerprint(ReadPath::Inline, Clock::Per150Ops),
        GOLDEN_PER_150_INLINE,
        "inline plane"
    );
}

#[test]
fn one_read_per_key_per_tick_is_the_exact_lru_store() {
    assert_eq!(
        fingerprint(ReadPath::Deferred, Clock::PerOp),
        GOLDEN_PER_OP_DEFERRED,
        "deferred plane"
    );
    assert_eq!(
        fingerprint(ReadPath::Inline, Clock::PerOp),
        GOLDEN_PER_OP_INLINE,
        "inline plane"
    );
}
