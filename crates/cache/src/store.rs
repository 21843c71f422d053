//! A sharded LRU key-value store with byte-accurate memory accounting.
//!
//! Mirrors the memcached behaviours the paper's evaluation depends on:
//! least-recently-used eviction under a memory budget, get/set/delete,
//! optional TTLs (against a caller-supplied logical clock so simulations
//! stay deterministic), and hit/miss/eviction counters.
//!
//! # Layout and accounting
//!
//! Each shard keeps its items in one slot-indexed arena (`cache::arena`,
//! DESIGN.md §"The cache data plane"): a `u32` slot names an item in the
//! key index, the LRU links and every touch / TTL-wheel record. A key is
//! hashed **once** per operation — raw FNV-1a picks the shard, its
//! finalised form is the arena tag — and a `set` of a present key
//! overwrites in place under a fresh slot generation.
//!
//! The arena is a layout, not an allocator: a value over
//! `bytes::INLINE_CAP` is still its own heap block, and `used_bytes` is
//! still the `key + value + ITEM_OVERHEAD` **model** that picks victims,
//! not the bytes held. Making the two agree (slab chunks in the arena)
//! changes what is evicted; it is ROADMAP item 10. Measured for whoever
//! sizes it: `malloc` + `free` were ≈ 0.1 of `write_evict`'s 1.24 µs per
//! command, the rest of a `set` dependent cache misses; an O(1)
//! size-class allocator in place of the system one left a
//! `write_evict`-shaped `set` unmoved (1 012 / 935 against 914 / 1 113
//! ns), so the item buys RAM, not CPU.
//!
//! # Read-path concurrency
//!
//! Steady-state GETs take only a **shared** lock. Each shard is an
//! `RwLock<ShardData>`: a reader looks its key up under the read lock and,
//! on the key's **first hit in a clock tick**, records recency by
//! appending a `(slot, gen)` record to the shard's touch log
//! (`cache::touch`) instead of moving the LRU node inline; a
//! repeat hit in the same tick records nothing (memcached's
//! `ITEM_UPDATE_INTERVAL` rule with the interval fixed at one tick of
//! `now`; the per-slot stamp lives in `cache::arena`). Hit, miss and lock
//! counters are tallied per lock scope and added once, and the value is
//! lent to the caller under the lock — the protocol serialises it from
//! [`Store::get_many_with`]'s visitor straight into its reply,
//! [`Store::get_at`] / [`Store::get_many_into`] clone it — so a repeat
//! hit executes no locked instruction of its own and a tick's first hit
//! one (the `fetch_add` that claims its log position).
//!
//! A **batch** of gets is one lock scope: it read-locks every shard it
//! names, then walks its keys in input order with their lookups
//! prefetched in groups, so the dependent misses of different keys
//! overlap across shards (see [`Store::get_many_with`]). The **lock
//! order** that keeps this deadlock-free: a reader takes shard locks in
//! ascending shard order, and no thread takes a shard lock while it
//! holds a shard's write lock — every writer holds exactly one. A writer
//! therefore waits at most for the batches that hold its shard, never in
//! a cycle.
//!
//! The log is drained **in batches under the write lock** —
//! opportunistically by every writer before its own mutation, and by the
//! explicit [`Store::flush_touches`] hook the data planes call between
//! event batches — and each record is applied as it is read, in log
//! order. Pushes happen only under the read guard and drains only under
//! the write guard, so the lock itself keeps the two apart and the drain
//! costs no locked instruction. TTL expiry is driven by a per-shard
//! hierarchical timer wheel advanced on the same flush
//! cadence, so expired entries stop occupying LRU slots and memory without
//! waiting for an unlucky GET.
//!
//! The **approximation contract** (see DESIGN.md §"Read-path
//! concurrency"): recency order is exact across ticks and first-event
//! order within one — where no key is read twice in a tick the store is
//! exact LRU, bit for bit. A touch may be applied late, but touches from
//! one thread are never reordered against each other, and eviction
//! victims are always drawn from the true LRU tail *modulo unflushed
//! touches*. Every writer flushes before mutating, so any single-threaded
//! sequence of operations returns what a sequential LRU store that moves
//! each key inline, under the same once-per-tick rule, returns: the
//! `HashMap` + `VecDeque` model in `tests/common/model.rs`, which shares
//! no code with this one. Expiry is where the two may part: the wheel
//! reaps an expired item the model keeps until something collides with
//! it, so `expirations` may differ, and under eviction pressure so may
//! the victims.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use spotcache_obs::{Counter, Gauge, Obs, Tracer};

use crate::arena::{prefetch, Arena, Item};
use crate::touch::{TouchLog, TouchRec};
use crate::wheel::{TimerWheel, WheelRec};

/// A sink for store mutations, installed with [`Store::set_mutation_sink`].
///
/// The replication stream ([`crate::replication`]) implements this to tail
/// hot-key writes into its bounded queue. Callbacks run on the mutating
/// thread **after** the shard lock is released, so a sink may take its own
/// locks but must stay cheap — it sits on the data plane's write path.
pub trait MutationSink: Send + Sync {
    /// A key was stored (the value is the raw stored bytes, including the
    /// protocol's flag prefix when the write came through the protocol
    /// layer). `ttl` is the relative TTL the writer supplied, if any.
    fn on_set(&self, key: &Bytes, raw_value: &Bytes, ttl: Option<u64>);

    /// A key was deleted (only called when the key existed).
    fn on_delete(&self, key: &[u8]);
}

/// Fixed per-item metadata overhead we account alongside key+value bytes
/// (memcached's item header is ~48-56 bytes; we use a round number).
pub const ITEM_OVERHEAD: usize = 56;

/// Store construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Memory budget across all shards, bytes.
    pub capacity_bytes: usize,
    /// Number of shards (each with its own lock); clamped to
    /// `1..=MAX_SHARDS`.
    pub shards: usize,
}

/// Most shards a store has: a batch names its shards in one `u64` mask.
pub(crate) const MAX_SHARDS: usize = 64;

/// Keys a batched lookup carries through each prefetch stage before it
/// serves them: enough misses in flight to overlap, few enough that the
/// first stage's lines are still cached when the last stage reads them.
const PREFETCH_GROUP: usize = 16;

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 64 << 20,
            shards: 8,
        }
    }
}

/// Touch records a shard's log holds between two flushes of that shard.
/// One more first-read-of-a-tick than this overwrites the oldest record:
/// that key looks colder than it is, and the flush counts it in
/// `store_touch_dropped_total`.
pub const TOUCH_LOG_CAPACITY: usize = 4096;

/// What one touch-flush sweep accomplished (summed over the swept shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Touch records drained from the logs.
    pub drained: u64,
    /// Records applied to the LRU (generation-valid).
    pub applied: u64,
    /// Records dropped as stale: the generation check only — the slot was
    /// freed, reused or overwritten since the read.
    pub stale: u64,
    /// Entries reaped by the TTL wheel.
    pub expired: u64,
}

impl FlushReport {
    fn add(&mut self, other: &FlushReport) {
        self.drained += other.drained;
        self.applied += other.applied;
        self.stale += other.stale;
        self.expired += other.expired;
    }

    /// Whether the sweep did any work at all.
    pub(crate) fn any(&self) -> bool {
        self.drained != 0 || self.expired != 0
    }
}

/// Cumulative statistics, aggregated across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful gets.
    pub hits: u64,
    /// Gets that found nothing (or an expired item).
    pub misses: u64,
    /// Items evicted by the LRU policy.
    pub evictions: u64,
    /// Set operations.
    pub sets: u64,
    /// Delete operations that removed something.
    pub deletes: u64,
    /// Items removed past their TTL (reaped by the wheel, or purged by a
    /// write-path presence check).
    pub expirations: u64,
}

impl CacheStats {
    /// Hit rate over all gets; 0 when no gets happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.sets += other.sets;
        self.deletes += other.deletes;
        self.expirations += other.expirations;
    }
}

/// Conditional-store semantics for [`Store::set_policy_at`] (the store-side
/// counterpart of the protocol's `set`/`add`/`replace` verbs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetPolicy {
    /// Store unconditionally (`set`).
    Always,
    /// Store only when the key is absent (`add`).
    IfAbsent,
    /// Store only when the key is present (`replace`).
    IfPresent,
    /// Store only when the key is absent **and** the item fits the shard's
    /// free room, at the least-recently-used end, evicting nothing. The
    /// checkpoint loader's policy: records arrive hottest first, so each
    /// lands behind the ones before it, and a full shard refuses the rest
    /// rather than displace what it holds.
    Fill,
}

/// Outcome of a policy-checked store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOutcome {
    /// The item was stored.
    Stored,
    /// The policy rejected the store (key presence didn't match).
    NotStored,
    /// The item exceeds the shard budget and was rejected (any previous
    /// value under the key is gone, mirroring memcached's oversized-item
    /// behaviour).
    TooLarge,
}

/// One-sweep aggregate view of the store: statistics, occupancy, and
/// capacity gathered with a single pass over the shard locks.
///
/// Observability samplers should prefer one [`Store::snapshot_at`] call
/// over separate `stats()` / `used_bytes()` / `len()` calls — each of
/// those is itself a full sweep, so naive per-field sampling quadruples
/// lock traffic on the hot shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Cumulative operation statistics.
    pub stats: CacheStats,
    /// Bytes accounted to live items (keys + values + overhead).
    pub used_bytes: usize,
    /// Total capacity across shards.
    pub capacity_bytes: usize,
    /// Number of live items.
    pub items: usize,
}

/// FNV-1a over the key, computed once per operation: the raw value picks
/// the shard, its finalised form ([`tag_of`]) is the key's arena tag.
/// Cache keys are short (tens of bytes), where FNV beats SipHash by
/// ~100 ns per lookup.
#[inline]
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The arena tag of a key: the low 32 bits of a splitmix64-style
/// finalisation of its raw FNV-1a.
///
/// The finalizer is load-bearing, not decoration: shard selection uses
/// raw FNV, so every key inside one shard agrees on `fnv(key) % shards`.
/// Without a final bit-mix the index's home bucket (`tag & mask`) would
/// inherit that congruence and cluster probes by the shard count. This is
/// not a DoS-hardened hash; a cache whose keyspace is attacker-controlled
/// already concedes collision-flood behaviour at the shard selector,
/// which no index hash can repair.
#[inline]
fn tag_of(raw: u64) -> u32 {
    let mut z = raw;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as u32
}

/// What an item is accounted at: the `key + value + ITEM_OVERHEAD` model.
fn item_bytes(item: &Item) -> usize {
    item.key.len() + item.value.len() + ITEM_OVERHEAD
}

/// Everything behind a shard's `RwLock`: the item arena, the TTL wheel,
/// and the wheel's reusable scratch (kept here so steady-state flushes
/// allocate nothing — see `tests/zero_alloc.rs`).
struct ShardData {
    arena: Arena,
    used_bytes: usize,
    capacity_bytes: usize,
    /// Write-side statistics. `hits`/`misses` are **always zero** here —
    /// they live in the shard's lock-free atomics so the shared-lock read
    /// path never writes under the lock.
    wstats: CacheStats,
    wheel: TimerWheel,
    due_buf: Vec<(u32, u32)>,
}

impl ShardData {
    fn new(capacity_bytes: usize) -> Self {
        Self {
            arena: Arena::new(),
            used_bytes: 0,
            capacity_bytes,
            wstats: CacheStats::default(),
            wheel: TimerWheel::new(),
            due_buf: Vec::new(),
        }
    }

    /// Removes a live slot and returns its bytes to the budget.
    fn remove_slot(&mut self, slot: u32) {
        let item = self.arena.remove(slot);
        self.used_bytes -= item_bytes(&item);
    }

    /// The slot holding a **live** `key`. An expired-but-unreaped item
    /// does not count: it is purged first (counted as an expiration),
    /// exactly as if the reaper had already run.
    fn find_live(&mut self, tag: u32, key: &[u8], now: u64) -> Option<u32> {
        let slot = self.arena.find(tag, key)?;
        if self.arena.item(slot).expired(now) {
            self.remove_slot(slot);
            self.wstats.expirations += 1;
            return None;
        }
        Some(slot)
    }

    /// Third prefetch stage of a batched lookup: finds the key and starts
    /// loading every line its value's first 128 bytes touch — the bytes a
    /// hit copies first; a 100-byte value off a line boundary spans three.
    #[inline]
    fn prefetch_value(&self, tag: u32, key: &[u8]) {
        if let Some(slot) = self.arena.find(tag, key) {
            let value = &self.arena.item(slot).value;
            let head = value[..value.len().min(128)].as_ptr_range();
            let mut line = head.start.wrapping_sub(head.start as usize % 64);
            while line < head.end {
                prefetch(line);
                line = line.wrapping_add(64);
            }
        }
    }

    /// Applies a policy-checked store under the one lock the caller holds:
    /// one index probe decides presence (TTL-aware, see
    /// [`find_live`](Self::find_live)) and names the slot to overwrite.
    fn apply(
        &mut self,
        policy: SetPolicy,
        tag: u32,
        key: Bytes,
        value: Bytes,
        now: u64,
        ttl: Option<u64>,
    ) -> SetOutcome {
        let slot = self.find_live(tag, &key, now);
        let store_it = match policy {
            SetPolicy::Always => true,
            SetPolicy::IfAbsent | SetPolicy::Fill => slot.is_none(),
            SetPolicy::IfPresent => slot.is_some(),
        };
        if !store_it {
            return SetOutcome::NotStored;
        }
        let expires_at = ttl.map(|d| now + d);
        if policy == SetPolicy::Fill {
            return self.fill(tag, key, value, expires_at);
        }
        self.store(slot, tag, key, value, expires_at)
    }

    /// Stores an absent key's item at the LRU tail if it fits the free
    /// room; evicts nothing, and refuses ([`SetOutcome::NotStored`]) what
    /// does not fit.
    fn fill(&mut self, tag: u32, key: Bytes, value: Bytes, expires_at: Option<u64>) -> SetOutcome {
        let bytes = key.len() + value.len() + ITEM_OVERHEAD;
        if self.used_bytes + bytes > self.capacity_bytes {
            return SetOutcome::NotStored;
        }
        self.wstats.sets += 1;
        let item = Item {
            key,
            value,
            expires_at,
        };
        let slot = self.arena.insert_back(tag, item);
        self.file_expiry(slot, expires_at);
        self.used_bytes += bytes;
        SetOutcome::Stored
    }

    /// Stores an item unconditionally, TTL-blind: an expired holder of the
    /// key is overwritten like a live one, not counted as an expiration.
    fn set(
        &mut self,
        tag: u32,
        key: Bytes,
        value: Bytes,
        now: u64,
        ttl: Option<u64>,
    ) -> SetOutcome {
        let slot = self.arena.find(tag, &key);
        self.store(slot, tag, key, value, ttl.map(|d| now + d))
    }

    /// Stores an item whose key the probe found in `slot`, or nowhere.
    /// [`SetOutcome::TooLarge`] when it exceeds the shard budget: the item
    /// is rejected and any previous value is removed (memcached rejects
    /// items over the slab limit the same way; silently dropping would
    /// corrupt accounting).
    fn store(
        &mut self,
        slot: Option<u32>,
        tag: u32,
        key: Bytes,
        value: Bytes,
        expires_at: Option<u64>,
    ) -> SetOutcome {
        self.wstats.sets += 1;
        let bytes = key.len() + value.len() + ITEM_OVERHEAD;
        if let Some(slot) = slot {
            self.used_bytes -= item_bytes(self.arena.item(slot));
        }
        if bytes > self.capacity_bytes {
            if let Some(slot) = slot {
                self.arena.remove(slot);
            }
            return SetOutcome::TooLarge;
        }
        // An overwrite has the outcome of removing the old item and
        // inserting the new one — it moves to the front under a fresh
        // generation, and the old bytes are free before victims are chosen
        // — without leaving the index. The slot is at the front and not
        // counted while room is made: were the tail ever to reach it,
        // `used_bytes` would be 0 and the loop over.
        let slot = match slot {
            Some(slot) => {
                self.arena.overwrite_front(slot, value, expires_at);
                self.make_room(bytes);
                slot
            }
            None => {
                self.make_room(bytes);
                let item = Item {
                    key,
                    value,
                    expires_at,
                };
                self.arena.insert_front(tag, item)
            }
        };
        self.file_expiry(slot, expires_at);
        self.used_bytes += bytes;
        SetOutcome::Stored
    }

    /// Files a freshly stored slot's deadline, if it has one, in the wheel.
    fn file_expiry(&mut self, slot: u32, expires_at: Option<u64>) {
        if let Some(expires_at) = expires_at {
            self.wheel.insert(WheelRec {
                expires_at,
                idx: slot,
                gen: self.arena.gen(slot),
            });
        }
    }

    /// Unexpired items, hottest first, each with the TTL it has left.
    fn live(&self, now: u64) -> impl Iterator<Item = (&Item, Option<u64>)> + '_ {
        let live = self.arena.iter().filter(move |item| !item.expired(now));
        live.map(move |item| (item, item.expires_at.map(|t| t - now)))
    }

    /// Evicts from the LRU tail until `bytes` more fit the budget.
    fn make_room(&mut self, bytes: usize) {
        while self.used_bytes + bytes > self.capacity_bytes {
            let victim = self.arena.tail().expect("used > 0 implies a tail");
            self.remove_slot(victim);
            self.wstats.evictions += 1;
        }
    }
}

/// What one lock scope's GETs add to one shard's counters.
#[derive(Clone, Copy, Default)]
struct GetTally {
    hits: u64,
    misses: u64,
    /// Hits that owed no record: not the slot's first read this tick.
    skips: u64,
}

/// One shard: the locked data plus everything readers may touch without
/// the write lock — the touch log and the lock-free counters.
struct Shard {
    data: RwLock<ShardData>,
    /// Pushed to under `data`'s read guard, drained under its write guard.
    log: TouchLog,
    hits: AtomicU64,
    misses: AtomicU64,
    rlock_gets: AtomicU64,
    /// Records overwritten before a drain reached them, counted at that
    /// drain.
    touch_drops: AtomicU64,
    /// Hits that found their slot already stamped with the current tick
    /// and so recorded nothing.
    touch_skips: AtomicU64,
    flush_batches: AtomicU64,
    flush_records: AtomicU64,
    flush_applied: AtomicU64,
    flush_stale: AtomicU64,
    wheel_advances: AtomicU64,
    wheel_expired: AtomicU64,
    wheel_pending: AtomicU64,
    /// Lower bound on the wheel's earliest pending deadline
    /// (`u64::MAX` = empty), mirrored from under the write lock so
    /// [`Store::flush_touches`] can skip shards with nothing to reap.
    wheel_next: AtomicU64,
}

impl Shard {
    fn new(capacity_bytes: usize) -> Self {
        Self {
            data: RwLock::new(ShardData::new(capacity_bytes)),
            log: TouchLog::new(TOUCH_LOG_CAPACITY),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rlock_gets: AtomicU64::new(0),
            touch_drops: AtomicU64::new(0),
            touch_skips: AtomicU64::new(0),
            flush_batches: AtomicU64::new(0),
            flush_records: AtomicU64::new(0),
            flush_applied: AtomicU64::new(0),
            flush_stale: AtomicU64::new(0),
            wheel_advances: AtomicU64::new(0),
            wheel_expired: AtomicU64::new(0),
            wheel_pending: AtomicU64::new(0),
            wheel_next: AtomicU64::new(u64::MAX),
        }
    }

    /// Shared-lock GET: lookup + expiry check, and — only on the slot's
    /// first read in this tick — a touch-log push. Never mutates
    /// `ShardData` (the tick stamp is an atomic beside it); an expired
    /// entry simply serves a miss (the wheel reaps it on the flush
    /// cadence). The value is lent, not cloned: it lives as long as the
    /// read guard `d` came from.
    fn get_shared<'d>(
        log: &TouchLog,
        d: &'d ShardData,
        tag: u32,
        key: &[u8],
        now: u64,
        tally: &mut GetTally,
    ) -> Option<&'d Bytes> {
        let found = d
            .arena
            .find(tag, key)
            .map(|slot| (slot, d.arena.item(slot)));
        let Some((slot, item)) = found.filter(|(_, item)| !item.expired(now)) else {
            tally.misses += 1;
            return None;
        };
        tally.hits += 1;
        if d.arena.first_read_in(slot, now as u32) {
            log.push(TouchRec {
                idx: slot,
                gen: d.arena.gen(slot),
            });
        } else {
            tally.skips += 1;
        }
        Some(&item.value)
    }

    /// Adds one lock scope's GETs to the shard's counters, after its read
    /// lock is released.
    fn add_tally(&self, tally: &GetTally) {
        let add = |counter: &AtomicU64, n: u64| {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&self.rlock_gets, tally.hits + tally.misses);
        add(&self.hits, tally.hits);
        add(&self.misses, tally.misses);
        add(&self.touch_skips, tally.skips);
    }

    /// Runs a mutation under the write lock, flushing pending touches and
    /// advancing the TTL wheel **first** (so the mutation sees exact LRU
    /// order and reaped-at-`now` occupancy), and republishing the wheel's
    /// next deadline after.
    fn write_op<R>(&self, now: u64, f: impl FnOnce(&mut ShardData) -> R) -> R {
        let mut d = self.data.write();
        self.flush_locked(&mut d, now);
        let r = f(&mut d);
        self.publish_wheel(&d);
        r
    }

    fn publish_wheel(&self, d: &ShardData) {
        self.wheel_next.store(
            d.wheel.next_deadline().unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.wheel_pending
            .store(d.wheel.len() as u64, Ordering::Relaxed);
    }

    /// Drains the touch log, applying each record to the LRU as it is
    /// handed over, then advances the TTL wheel to `now` and reaps what's
    /// due. The caller holds the write guard `d` came from — which is what
    /// entitles this to drain. Steady state allocates nothing.
    fn flush_locked(&self, d: &mut ShardData, now: u64) -> FlushReport {
        let mut rep = FlushReport::default();
        let (seen, dropped) = self.log.drain(|t| {
            if d.arena.touch_if(t.idx, t.gen) {
                rep.applied += 1;
            } else {
                rep.stale += 1;
            }
        });
        rep.drained = seen;
        if dropped != 0 {
            self.touch_drops.fetch_add(dropped, Ordering::Relaxed);
        }
        if d.wheel.next_deadline().is_some_and(|t| t <= now) {
            let mut due = std::mem::take(&mut d.due_buf);
            due.clear();
            d.wheel.advance(now, &mut due);
            self.wheel_advances.fetch_add(1, Ordering::Relaxed);
            for &(slot, gen) in due.iter() {
                // A live generation match means the exact entry this record
                // was filed for is still in place (any overwrite or delete
                // bumps the slot generation) — reap it, by slot.
                if d.arena.is_live_gen(slot, gen) {
                    d.remove_slot(slot);
                    d.wstats.expirations += 1;
                    rep.expired += 1;
                }
            }
            d.due_buf = due;
        }
        if rep.any() {
            self.flush_batches.fetch_add(1, Ordering::Relaxed);
            self.flush_records.fetch_add(rep.drained, Ordering::Relaxed);
            self.flush_applied.fetch_add(rep.applied, Ordering::Relaxed);
            self.flush_stale.fetch_add(rep.stale, Ordering::Relaxed);
            self.wheel_expired.fetch_add(rep.expired, Ordering::Relaxed);
        }
        rep
    }
}

/// `store_*` / `ttl_wheel_*` observability wiring. The hot path only ever
/// touches the per-shard atomics; this struct is the bridge that adds
/// their **deltas** into the obs registry at flush/snapshot time.
struct StoreTelemetry {
    rlock_gets: Counter,
    touch_dropped: Counter,
    touch_skipped: Counter,
    flush_total: Counter,
    flush_records: Counter,
    flush_applied: Counter,
    flush_stale: Counter,
    wheel_advances: Counter,
    wheel_expired: Counter,
    wheel_pending: Gauge,
    tracer: Option<Arc<Tracer>>,
    /// Totals already pushed into the counters, so each sync adds only the
    /// delta. One mutex, taken on the flush cadence — never per-GET.
    synced: Mutex<[u64; 9]>,
}

impl StoreTelemetry {
    fn new(obs: &Obs, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            rlock_gets: obs.counter("store_rlock_gets_total"),
            touch_dropped: obs.counter("store_touch_dropped_total"),
            touch_skipped: obs.counter("store_touch_skipped_total"),
            flush_total: obs.counter("store_touch_flush_total"),
            flush_records: obs.counter("store_touch_flush_records_total"),
            flush_applied: obs.counter("store_touch_flush_applied_total"),
            flush_stale: obs.counter("store_touch_flush_stale_total"),
            wheel_advances: obs.counter("ttl_wheel_advances_total"),
            wheel_expired: obs.counter("ttl_wheel_expired_total"),
            wheel_pending: obs.gauge("ttl_wheel_pending"),
            tracer,
            synced: Mutex::new([0; 9]),
        }
    }

    fn sync(&self, shards: &[Shard]) {
        let mut totals = [0u64; 9];
        let mut pending = 0u64;
        for sh in shards {
            let sources = [
                &sh.rlock_gets,
                &sh.touch_drops,
                &sh.touch_skips,
                &sh.flush_batches,
                &sh.flush_records,
                &sh.flush_applied,
                &sh.flush_stale,
                &sh.wheel_advances,
                &sh.wheel_expired,
            ];
            for (total, source) in totals.iter_mut().zip(sources) {
                *total += source.load(Ordering::Relaxed);
            }
            pending += sh.wheel_pending.load(Ordering::Relaxed);
        }
        let mut last = self.synced.lock();
        let counters = [
            &self.rlock_gets,
            &self.touch_dropped,
            &self.touch_skipped,
            &self.flush_total,
            &self.flush_records,
            &self.flush_applied,
            &self.flush_stale,
            &self.wheel_advances,
            &self.wheel_expired,
        ];
        for (i, c) in counters.iter().enumerate() {
            c.add(totals[i].saturating_sub(last[i]));
        }
        *last = totals;
        drop(last);
        self.wheel_pending.set(pending as f64);
    }
}

/// A sharded LRU store.
///
/// Capacity is split evenly across shards, matching memcached's per-slab
/// independence: a hot shard can evict while another has room. See the
/// [module docs](crate::store) for the read-path concurrency model.
///
/// # Examples
///
/// ```
/// use spotcache_cache::store::Store;
///
/// let store = Store::with_capacity(1 << 20);
/// store.set("user:1", "alice");
/// assert_eq!(store.get(b"user:1").as_deref(), Some(b"alice".as_ref()));
/// assert!(store.delete(b"user:1"));
/// ```
pub struct Store {
    shards: Vec<Shard>,
    /// Optional mutation tap (replication), read-locked by each tapped
    /// write; installation is rare (topology changes).
    sink: RwLock<Option<Arc<dyn MutationSink>>>,
    /// Whether `sink` holds one, written by
    /// [`set_mutation_sink`](Store::set_mutation_sink) alone, so an
    /// untapped write learns that without taking the sink's lock.
    /// `Relaxed`: it publishes nothing — the sink itself is only ever
    /// read under its lock.
    sink_installed: AtomicBool,
    /// Optional obs wiring; absent until [`Store::attach_telemetry`].
    telemetry: RwLock<Option<StoreTelemetry>>,
}

thread_local! {
    /// Reusable per-key `(shard, tag)` scratch for the batched operations,
    /// so steady-state batches allocate nothing and hash each key once.
    static SHARD_SCRATCH: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

impl Store {
    /// Creates a store from a configuration.
    pub fn new(config: StoreConfig) -> Self {
        let n = config.shards.clamp(1, MAX_SHARDS);
        let per_shard = config.capacity_bytes / n;
        Self {
            shards: (0..n).map(|_| Shard::new(per_shard)).collect(),
            sink: RwLock::new(None),
            sink_installed: AtomicBool::new(false),
            telemetry: RwLock::new(None),
        }
    }

    /// Creates a single-shard store with the given byte budget.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        Self::new(StoreConfig {
            capacity_bytes,
            shards: 1,
        })
    }

    /// Registers the `store_*` / `ttl_wheel_*` metrics with `obs` and
    /// (optionally) a tracer for `store/flush_touches` spans. The hot path
    /// stays on plain per-shard atomics; their values are folded into the
    /// registry on the flush/snapshot cadence.
    pub fn attach_telemetry(&self, obs: &Obs, tracer: Option<Arc<Tracer>>) {
        let t = StoreTelemetry::new(obs, tracer);
        t.sync(&self.shards);
        *self.telemetry.write() = Some(t);
    }

    fn sync_telemetry(&self) {
        if let Some(t) = self.telemetry.read().as_ref() {
            t.sync(&self.shards);
        }
    }

    /// Installs (or removes, with `None`) the mutation tap. Subsequent
    /// successful sets and deletes are reported to the sink; in-flight
    /// operations on other threads may still miss it for one operation.
    pub fn set_mutation_sink(&self, sink: Option<Arc<dyn MutationSink>>) {
        let mut installed = self.sink.write();
        self.sink_installed.store(sink.is_some(), Ordering::Relaxed);
        *installed = sink;
    }

    #[inline]
    fn tap_set(&self, key: &Bytes, value: &Bytes, ttl: Option<u64>) {
        if let Some(s) = self.sink.read().as_ref() {
            s.on_set(key, value, ttl);
        }
    }

    #[inline]
    fn tap_delete(&self, key: &[u8]) {
        if let Some(s) = self.sink.read().as_ref() {
            s.on_delete(key);
        }
    }

    #[inline]
    fn sink_installed(&self) -> bool {
        self.sink_installed.load(Ordering::Relaxed)
    }

    /// The one hash of an operation: the key's shard index and arena tag.
    #[inline]
    fn locate(&self, key: &[u8]) -> (u32, u32) {
        let raw = fnv1a(key);
        ((raw % self.shards.len() as u64) as u32, tag_of(raw))
    }

    #[inline]
    fn shard_for(&self, key: &[u8]) -> (&Shard, u32) {
        let (shard, tag) = self.locate(key);
        (&self.shards[shard as usize], tag)
    }

    /// Fetches a key at logical time `now` (TTL-aware), under only the
    /// shard's **read** lock.
    pub fn get_at(&self, key: &[u8], now: u64) -> Option<Bytes> {
        let (sh, tag) = self.shard_for(key);
        let mut tally = GetTally::default();
        let found = Shard::get_shared(&sh.log, &sh.data.read(), tag, key, now, &mut tally).cloned();
        sh.add_tally(&tally);
        found
    }

    /// Fetches a key, ignoring TTLs (logical time 0).
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.get_at(key, 0)
    }

    /// The batched lookup: read-locks every shard the batch names, each
    /// once and in ascending order, and walks `keys` **in input order**
    /// under those locks, handing `visit` each key's input position and
    /// its value, lent for the call. Each shard therefore sees its keys in
    /// input order, as if the gets were issued one at a time: hit/miss
    /// accounting, TTL behaviour and recency order are identical (a key
    /// named twice is served twice and, like any second read in a tick,
    /// bumped once).
    ///
    /// The walk goes in groups of [`PREFETCH_GROUP`] keys and four passes
    /// per group — prefetch each home bucket, probe to the first tag match
    /// and prefetch its entry and stamp, find the key and prefetch its
    /// value, then serve — so a group's chains of dependent misses
    /// (bucket → entry → value) overlap across shards instead of running
    /// one after another. The counters of each shard are tallied locally
    /// and added once, after every lock is released.
    fn visit_many<'k, K>(&self, keys: K, now: u64, visit: impl FnMut(usize, Option<&Bytes>))
    where
        K: Iterator<Item = &'k [u8]> + Clone,
    {
        // The guard and tally tables are built and dropped whole on every
        // batch: sized for every store's shard count, a one-key batch of a
        // cached key would cost twice what it does sized for eight.
        if self.shards.len() <= 8 {
            self.visit_locked::<8, K>(keys, now, visit)
        } else {
            self.visit_locked::<MAX_SHARDS, K>(keys, now, visit)
        }
    }

    /// [`visit_many`](Self::visit_many) on a store of at most `N` shards.
    fn visit_locked<'k, const N: usize, K>(
        &self,
        mut keys: K,
        now: u64,
        mut visit: impl FnMut(usize, Option<&Bytes>),
    ) where
        K: Iterator<Item = &'k [u8]> + Clone,
    {
        let (ids, named) = self.by_shard(keys.clone());
        let mut held: [Option<RwLockReadGuard<'_, ShardData>>; N] = [const { None }; N];
        for s in shards_in(named) {
            held[s] = Some(self.shards[s].data.read());
        }
        let mut tally = [GetTally::default(); N];
        let data = |s: u32| {
            held[s as usize]
                .as_deref()
                .expect("a named shard is locked")
        };
        for (g, group) in ids.chunks(PREFETCH_GROUP).enumerate() {
            for &(s, tag) in group {
                data(s).arena.prefetch_home(tag);
            }
            for &(s, tag) in group {
                data(s).arena.prefetch_entry(tag);
            }
            for (&(s, tag), k) in group.iter().zip(keys.clone()) {
                data(s).prefetch_value(tag, k);
            }
            // The group comes first in the zip, so a key past it is not
            // taken from `keys`.
            for (j, (&(s, tag), k)) in group.iter().zip(&mut keys).enumerate() {
                let log = &self.shards[s as usize].log;
                let hit = Shard::get_shared(log, data(s), tag, k, now, &mut tally[s as usize]);
                visit(g * PREFETCH_GROUP + j, hit);
            }
        }
        drop(held);
        for s in shards_in(named) {
            self.shards[s].add_tally(&tally[s]);
        }
        SHARD_SCRATCH.with(|s| *s.borrow_mut() = ids);
    }

    /// Each key's `(shard, tag)` in input order, in this thread's
    /// `SHARD_SCRATCH` (the caller hands it back), and the batch's shard
    /// mask: bit `s` is set when some key lives in shard `s`, so a shard
    /// the batch does not name costs one test.
    fn by_shard<'k>(&self, keys: impl Iterator<Item = &'k [u8]>) -> (Vec<(u32, u32)>, u64) {
        let mut ids = SHARD_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        ids.clear();
        let mut named = 0u64;
        ids.extend(keys.map(|k| {
            let id = self.locate(k);
            named |= 1 << id.0;
            id
        }));
        (ids, named)
    }

    /// Batched fetch by visitor: `visit(i, value)` is called exactly once
    /// for the `i`-th key of `keys`, **in input order** (`i` = 0, 1, …),
    /// with the raw stored bytes on a hit. `visit` runs **under the read
    /// locks of every shard the batch names** and must not call back into
    /// the store; it copies what it keeps. No refcount is taken on the way
    /// out, which is why the protocol's `get` path reads through here and
    /// writes each reply line from inside `visit`.
    pub fn get_many_with<'k, K>(
        &self,
        keys: K,
        now: u64,
        mut visit: impl FnMut(usize, Option<&[u8]>),
    ) where
        K: Iterator<Item = &'k [u8]> + Clone,
    {
        self.visit_many(keys, now, |i, v| visit(i, v.map(|raw| &raw[..])));
    }

    /// Batched fetch: looks up every key of a pipelined batch, taking each
    /// named shard's **read** lock once per batch rather than once per
    /// key. Results land in `out` (cleared first) in input order; values
    /// are refcounted [`Bytes`] clones, so the bytes stay zero-copy for a
    /// caller that keeps them. Keys are processed in input order, so
    /// hit/miss accounting, TTL behaviour, and recency order are identical
    /// to issuing the gets one at a time.
    pub fn get_many_into<'k, K>(&self, keys: K, now: u64, out: &mut Vec<Option<Bytes>>)
    where
        K: Iterator<Item = &'k [u8]> + Clone,
    {
        out.clear();
        self.visit_many(keys, now, |_, v| out.push(v.cloned()));
    }

    /// Drains every shard's touch log and advances every TTL wheel to
    /// `now`, under each shard's write lock in turn. The data planes call
    /// this between event batches; shards with an empty log and no due
    /// wheel deadline are skipped without taking the lock.
    pub fn flush_touches(&self, now: u64) -> FlushReport {
        let mut total = FlushReport::default();
        let telemetry = self.telemetry.read();
        let _span = telemetry
            .as_ref()
            .and_then(|t| t.tracer.as_ref())
            .map(|t| t.span("store", "flush_touches"));
        for sh in &self.shards {
            let log_idle = sh.log.is_empty();
            let wheel_due = sh.wheel_next.load(Ordering::Relaxed) <= now;
            if log_idle && !wheel_due {
                continue;
            }
            let mut d = sh.data.write();
            let rep = sh.flush_locked(&mut d, now);
            sh.publish_wheel(&d);
            total.add(&rep);
        }
        if let Some(t) = telemetry.as_ref() {
            t.sync(&self.shards);
        }
        total
    }

    /// Batched insert: stores every `(key, value, ttl)` item, grouping by
    /// shard and taking each shard lock once per batch. Items mapping to
    /// the same shard are applied in input order, so the final state
    /// matches sequential `set_at` calls. Returns how many items were
    /// stored (an item is rejected only when it exceeds its shard budget).
    pub fn set_many_at(&self, items: Vec<(Bytes, Bytes, Option<u64>)>, now: u64) -> usize {
        self.set_many_policy_at(items, now, SetPolicy::Always)
    }

    /// [`set_many_at`](Self::set_many_at) under a [`SetPolicy`]: each item
    /// goes through the same presence check, under the same single lock
    /// acquisition, as [`set_policy_at`](Self::set_policy_at). Returns how
    /// many items were stored; one the policy turned away is not counted.
    ///
    /// The checkpoint bulk load uses [`SetPolicy::Fill`]: whatever the
    /// replacement already holds was acknowledged after the cut, and a
    /// record that does not fit is refused rather than evict it.
    ///
    /// Keys and values are moved into the shard. A batch whose keys all map
    /// to one shard (most batches of a checkpoint frame loaded into a store
    /// of the cut's shard count, or any single-shard store) takes that lock
    /// once and is consumed in place; a mixed batch is sorted out per shard.
    pub fn set_many_policy_at(
        &self,
        items: Vec<(Bytes, Bytes, Option<u64>)>,
        now: u64,
        policy: SetPolicy,
    ) -> usize {
        if items.is_empty() {
            return 0;
        }
        // The tap fires outside the shard locks; stored items are staged
        // only when a sink is installed (refcount clones, no byte copies).
        let tapping = self.sink_installed();
        let mut tapped: Vec<(Bytes, Bytes, Option<u64>)> = Vec::new();
        let mut put = |d: &mut ShardData, tag, (k, v, ttl): (Bytes, Bytes, Option<u64>)| {
            let staged = tapping.then(|| (k.clone(), v.clone(), ttl));
            let ok = SetOutcome::Stored
                == match policy {
                    SetPolicy::Always => d.set(tag, k, v, now, ttl),
                    _ => d.apply(policy, tag, k, v, now, ttl),
                };
            if ok {
                tapped.extend(staged);
            }
            ok as usize
        };
        let (ids, named) = self.by_shard(items.iter().map(|(k, _, _)| &k[..]));
        let first = ids[0].0;
        let stored = if ids.iter().all(|&(s, _)| s == first) {
            self.shards[first as usize].write_op(now, |d| {
                let tagged = items.into_iter().zip(ids.iter());
                tagged.map(|(item, &(_, tag))| put(d, tag, item)).sum()
            })
        } else {
            let mut slots: Vec<Option<(Bytes, Bytes, Option<u64>)>> =
                items.into_iter().map(Some).collect();
            let mut stored = 0usize;
            for s in shards_in(named) {
                stored += self.shards[s].write_op(now, |d| {
                    let mut stored = 0usize;
                    for (slot, &(id, tag)) in slots.iter_mut().zip(ids.iter()) {
                        if id as usize == s {
                            let item = slot.take().expect("each slot is taken exactly once");
                            stored += put(d, tag, item);
                        }
                    }
                    stored
                });
            }
            stored
        };
        SHARD_SCRATCH.with(|s| *s.borrow_mut() = ids);
        for (k, v, ttl) in &tapped {
            self.tap_set(k, v, *ttl);
        }
        stored
    }

    /// Inserts a key with an optional TTL at logical time `now`.
    pub fn set_at(
        &self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
        now: u64,
        ttl: Option<u64>,
    ) {
        self.set_owned(key.into(), value.into(), now, ttl);
    }

    fn set_owned(&self, key: Bytes, value: Bytes, now: u64, ttl: Option<u64>) {
        let (sh, tag) = self.shard_for(&key);
        // Key and value move into the shard. The tap fires after the shard
        // lock is released, from refcount clones made up front — and only
        // when a sink is installed: an untapped `set` pays no refcount
        // traffic for a tap that is not there.
        let staged = self.sink_installed().then(|| (key.clone(), value.clone()));
        let out = sh.write_op(now, |d| d.set(tag, key, value, now, ttl));
        if let (SetOutcome::Stored, Some((key, value))) = (out, &staged) {
            self.tap_set(key, value, ttl);
        }
    }

    /// Inserts a key with no TTL.
    pub fn set(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.set_at(key, value, 0, None);
    }

    /// Policy-checked insert (`set`/`add`/`replace` semantics): the
    /// presence check and the insertion happen under a single shard lock
    /// acquisition, unlike a `contains` + `set_at` + `contains` sequence
    /// which takes the lock three times per command.
    ///
    /// Presence is TTL-aware: an expired-but-unreaped entry is purged
    /// (counted as an expiration) before the check, so `add` treats it as
    /// absent and `replace` as missing.
    pub fn set_policy_at(
        &self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
        now: u64,
        ttl: Option<u64>,
        policy: SetPolicy,
    ) -> SetOutcome {
        let (key, value) = (key.into(), value.into());
        let (sh, tag) = self.shard_for(&key);
        let staged = self.sink_installed().then(|| (key.clone(), value.clone()));
        let out = sh.write_op(now, |d| d.apply(policy, tag, key, value, now, ttl));
        if let (SetOutcome::Stored, Some((key, value))) = (out, &staged) {
            self.tap_set(key, value, ttl);
        }
        out
    }

    /// Read-modify-write of one live item under a **single** shard lock
    /// (the protocol's `incr`/`decr`): `f` sees the raw stored value and
    /// returns its replacement, or `None` to leave the item as it is. The
    /// replacement keeps the item's deadline, and no writer can slip
    /// between the read and the write.
    ///
    /// `None` when the key holds no live item, otherwise what became of
    /// the store ([`SetOutcome::NotStored`] when `f` declined). Counted as
    /// the get and the set it stands for; the mutation tap sees the
    /// replacement with the TTL remaining at `now`.
    pub fn update_at(
        &self,
        key: &[u8],
        now: u64,
        f: impl FnOnce(&[u8]) -> Option<Bytes>,
    ) -> Option<SetOutcome> {
        let (sh, tag) = self.shard_for(key);
        let tapping = self.sink_installed();
        let mut staged = None;
        let out = sh.write_op(now, |d| {
            let Some(slot) = d.find_live(tag, key, now) else {
                sh.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            sh.hits.fetch_add(1, Ordering::Relaxed);
            let item = d.arena.item(slot);
            let Some(value) = f(&item.value) else {
                d.arena.touch(slot);
                return Some(SetOutcome::NotStored);
            };
            let (key, expires_at) = (item.key.clone(), item.expires_at);
            if tapping {
                staged = Some((key.clone(), value.clone(), expires_at.map(|t| t - now)));
            }
            Some(d.store(Some(slot), tag, key, value, expires_at))
        });
        if let (Some(SetOutcome::Stored), Some((key, value, ttl))) = (out, &staged) {
            self.tap_set(key, value, *ttl);
        }
        out
    }

    /// Deletes a key at logical time `now`; returns whether a **live**
    /// item was removed. An expired-but-unreaped entry is purged but
    /// reported as absent (counted as an expiration, not a delete),
    /// matching memcached's `DELETE` of an expired item.
    pub fn delete_at(&self, key: &[u8], now: u64) -> bool {
        let (sh, tag) = self.shard_for(key);
        let removed = sh.write_op(now, |d| {
            let Some(slot) = d.find_live(tag, key, now) else {
                return false;
            };
            d.remove_slot(slot);
            d.wstats.deletes += 1;
            true
        });
        if removed {
            self.tap_delete(key);
        }
        removed
    }

    /// Deletes a key, ignoring TTLs (logical time 0).
    pub fn delete(&self, key: &[u8]) -> bool {
        self.delete_at(key, 0)
    }

    /// Snapshot of live, unexpired items in approximate hottest-first
    /// order, up to `max_items`.
    ///
    /// "Hottest-first" is per-shard LRU recency (most-recently-used first)
    /// with the shards interleaved round-robin — the same
    /// hottest-first-copy order the recovery model assumes for the warm-up
    /// pump, to within shard granularity. Values are the raw stored bytes
    /// (flag prefix included when written through the protocol); the third
    /// element is the TTL remaining at `now`, if any. Pending touches are
    /// flushed first so the walk reflects exact recency; each shard lock
    /// is then held only while that shard is walked.
    ///
    /// Per-shard collection is capped by what the round-robin merge can
    /// actually take (computed from a cheap length pre-pass), so a call
    /// with a tight budget clones ~`max_items` entries total instead of up
    /// to `shards × max_items`; the merge then *moves* the collected items
    /// into the output. When expired-but-unreaped items inflate a shard's
    /// length the caps are approximate and the result may fall slightly
    /// short of `max_items` even though deeper live items exist — within
    /// the "approximate hottest-first" contract.
    pub fn hot_snapshot_at(&self, max_items: usize, now: u64) -> Vec<(Bytes, Bytes, Option<u64>)> {
        if max_items == 0 {
            return Vec::new();
        }
        self.flush_touches(now);
        // Length pre-pass: an upper bound on each shard's live items.
        let lens: Vec<usize> = self
            .shards
            .iter()
            .map(|s| s.data.read().arena.len())
            .collect();
        let quotas = round_robin_quotas(&lens, max_items);
        let mut per_shard: Vec<std::vec::IntoIter<(Bytes, Bytes, Option<u64>)>> =
            Vec::with_capacity(self.shards.len());
        let mut collected_total = 0usize;
        for (s, &quota) in self.shards.iter().zip(&quotas) {
            if quota == 0 {
                per_shard.push(Vec::new().into_iter());
                continue;
            }
            let sh = s.data.read();
            let hottest = sh.live(now).take(quota);
            let items: Vec<_> = hottest
                .map(|(item, ttl)| (item.key.clone(), item.value.clone(), ttl))
                .collect();
            collected_total += items.len();
            per_shard.push(items.into_iter());
        }
        // Round-robin merge: the i-th hottest of every shard before any
        // (i+1)-th, approximating global recency order. Items are moved
        // out of the per-shard vectors, not re-cloned.
        let mut out = Vec::with_capacity(collected_total.min(max_items));
        while out.len() < max_items {
            let mut any = false;
            for items in per_shard.iter_mut() {
                if let Some(item) = items.next() {
                    if out.len() < max_items {
                        out.push(item);
                    }
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        out
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stable shard index for `key`. Exposed so benchmarks and tests can
    /// construct deliberately skewed key sets (e.g. a batch whose keys all
    /// live in one shard).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.locate(key).0 as usize
    }

    /// One shard's items as slots, in LRU recency order (most-recently-used
    /// first), 4 bytes an item. The shard's pending touches are flushed and
    /// its due TTLs reaped first. Only the recency links are read, under
    /// the shard's write lock: an item that expired out of the reaper's
    /// sight is still listed, and [`visit_slots_at`](Self::visit_slots_at)
    /// skips it.
    ///
    /// This is the checkpoint cut's order (`spotcache-recovery`): it takes
    /// a shard's order once and walks it in slices with
    /// [`visit_slots_at`](Self::visit_slots_at), so the encoder runs
    /// under the read lock and the shard keeps serving meanwhile.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn recency_order_at(&self, shard: usize, now: u64) -> Vec<u32> {
        self.shards[shard].write_op(now, |d| d.arena.slots().collect())
    }

    /// Visits the items that `slots` (from
    /// [`recency_order_at`](Self::recency_order_at)) name in `shard`, in
    /// the order given, under the shard's **read** lock. A slot that holds
    /// no item any more, or whose item has expired at `now`, is skipped; a
    /// slot freed and filled again since the order was taken names the item
    /// that filled it. `visit` gets the key, the raw stored value and the
    /// TTL remaining at `now` (as [`hot_snapshot_at`](Self::hot_snapshot_at)
    /// reports it) by reference, so a record can be encoded straight from
    /// the shard with no intermediate copy; it must not call back into the
    /// store. Returns how many items `visit` saw.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn visit_slots_at(
        &self,
        shard: usize,
        slots: &[u32],
        now: u64,
        mut visit: impl FnMut(&[u8], &[u8], Option<u64>),
    ) -> usize {
        let d = self.shards[shard].data.read();
        let live = slots.iter().filter(|&&slot| d.arena.is_live(slot));
        let items = live.map(|&slot| d.arena.item(slot));
        let mut seen = 0usize;
        for item in items.filter(|item| !item.expired(now)) {
            visit(&item.key, &item.value, item.expires_at.map(|t| t - now));
            seen += 1;
        }
        seen
    }

    /// Visits one shard's live, unexpired items in LRU recency order
    /// (most-recently-used first): its whole
    /// [`recency_order_at`](Self::recency_order_at), through
    /// [`visit_slots_at`](Self::visit_slots_at). Returns how many items
    /// `visit` saw.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn visit_shard_at(
        &self,
        shard: usize,
        now: u64,
        visit: impl FnMut(&[u8], &[u8], Option<u64>),
    ) -> usize {
        let order = self.recency_order_at(shard, now);
        self.visit_slots_at(shard, &order, now, visit)
    }

    /// Whether a key holds a live (unexpired at `now`) item. Takes only
    /// the shard's read lock; never mutates, touches LRU order, or counts
    /// stats.
    pub fn contains_at(&self, key: &[u8], now: u64) -> bool {
        let (sh, tag) = self.shard_for(key);
        let d = sh.data.read();
        d.arena
            .find(tag, key)
            .is_some_and(|slot| !d.arena.item(slot).expired(now))
    }

    /// Whether a key is present, ignoring TTLs entirely (an
    /// expired-but-unreaped item still counts). Prefer
    /// [`contains_at`](Self::contains_at) when a logical time is known.
    pub fn contains(&self, key: &[u8]) -> bool {
        let (sh, tag) = self.shard_for(key);
        let d = sh.data.read();
        d.arena.find(tag, key).is_some()
    }

    /// Gathers statistics, occupancy, and capacity in **one** sweep over
    /// the shard locks, flushing pending touches and reaping expired
    /// entries first so `items`/`used_bytes` count only live data. Items
    /// that expired at or before `now` but are invisible to the reaper
    /// (`now` earlier than a previous flush) are filtered from the counts
    /// during the sweep.
    ///
    /// Prefer this over separate `stats` / `used_bytes`
    /// / [`len`](Self::len) calls when
    /// more than one field is needed (e.g. obs sampling, the protocol's
    /// `stats` command).
    pub fn snapshot_at(&self, now: u64) -> StoreSnapshot {
        self.flush_touches(now);
        let mut snap = StoreSnapshot::default();
        for s in &self.shards {
            let sh = s.data.read();
            snap.stats.add(&sh.wstats);
            snap.capacity_bytes += sh.capacity_bytes;
            for (item, _) in sh.live(now) {
                snap.used_bytes += item_bytes(item);
                snap.items += 1;
            }
            snap.stats.hits += s.hits.load(Ordering::Relaxed);
            snap.stats.misses += s.misses.load(Ordering::Relaxed);
        }
        self.sync_telemetry();
        snap
    }

    /// [`snapshot_at`](Self::snapshot_at) at logical time 0 — i.e. the raw
    /// occupancy view, where only never-valid (TTL 0 at time 0) items are
    /// filtered.
    pub(crate) fn snapshot(&self) -> StoreSnapshot {
        self.snapshot_at(0)
    }

    /// Total bytes accounted to items, ignoring TTLs (logical time 0).
    pub(crate) fn used_bytes(&self) -> usize {
        self.snapshot().used_bytes
    }

    /// Total capacity across shards.
    pub fn capacity_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.data.read().capacity_bytes)
            .sum()
    }

    /// Number of items live at `now`.
    pub fn len_at(&self, now: u64) -> usize {
        self.snapshot_at(now).items
    }

    /// Number of items, ignoring TTLs (logical time 0).
    pub fn len(&self) -> usize {
        self.snapshot().items
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated statistics across shards.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> CacheStats {
        self.snapshot().stats
    }

    /// Drops every item (a revoked node's RAM vanishing). Pending touch
    /// records and wheel entries are discarded; slot generations advance,
    /// so records still in flight on other threads can never act on
    /// post-clear items.
    pub(crate) fn clear(&self) {
        for sh in &self.shards {
            let mut d = sh.data.write();
            sh.log.drain(|_| {});
            d.arena.clear();
            d.used_bytes = 0;
            d.wheel = TimerWheel::new();
            sh.publish_wheel(&d);
        }
    }
}

/// The shards a batch's mask names, in ascending order.
fn shards_in(mut named: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let s = (named != 0).then(|| named.trailing_zeros() as usize)?;
        named &= named - 1;
        Some(s)
    })
}

/// Per-shard collection caps for [`Store::hot_snapshot_at`]: simulates
/// the round-robin merge over the shard lengths and returns how many
/// items the merge would actually take from each shard, so collection
/// clones only what the merge keeps. Quotas sum to
/// `min(budget, sum(lens))`.
fn round_robin_quotas(lens: &[usize], budget: usize) -> Vec<usize> {
    let total: usize = lens.iter().sum();
    if total <= budget {
        return lens.to_vec();
    }
    let mut quotas = vec![0usize; lens.len()];
    let mut remaining = budget;
    while remaining > 0 {
        let mut any = false;
        for (q, &len) in quotas.iter_mut().zip(lens) {
            if *q < len {
                *q += 1;
                remaining -= 1;
                any = true;
                if remaining == 0 {
                    break;
                }
            }
        }
        if !any {
            break;
        }
    }
    quotas
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("used_bytes", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Store {
        Store::with_capacity(10 * 1024)
    }

    #[test]
    fn get_set_delete_roundtrip() {
        let s = small();
        assert!(s.get(b"k").is_none());
        s.set("k", "v");
        assert_eq!(s.get(b"k").as_deref(), Some(b"v".as_ref()));
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert!(s.get(b"k").is_none());
        let st = s.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 2);
        assert_eq!(st.sets, 1);
        assert_eq!(st.deletes, 1);
    }

    #[test]
    fn overwrite_replaces_value_and_accounting() {
        let s = small();
        s.set("k", vec![0u8; 100]);
        let used1 = s.used_bytes();
        s.set("k", vec![0u8; 10]);
        let used2 = s.used_bytes();
        assert_eq!(s.len(), 1);
        assert_eq!(used1 - used2, 90);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        // Each item: 1-byte key + 1000-byte value + 56 overhead = 1057 B.
        // 10 KiB capacity fits 9 items.
        let s = small();
        for i in 0..20u8 {
            s.set(vec![i], vec![0u8; 1000]);
        }
        assert!(s.len() <= 9);
        assert!(s.used_bytes() <= s.capacity_bytes());
        // The most recent keys survive.
        assert!(s.contains(&[19]));
        assert!(!s.contains(&[0]));
        assert!(s.stats().evictions >= 11);
    }

    #[test]
    fn get_refreshes_recency() {
        // The GET only queues a touch, but every writer flushes before
        // mutating, so a single-threaded sequence sees exact LRU order.
        let s = small();
        for i in 0..9u8 {
            s.set(vec![i], vec![0u8; 1000]);
        }
        // Touch key 0 so it becomes MRU, then insert to force eviction.
        assert!(s.get(&[0]).is_some());
        s.set(vec![100], vec![0u8; 1000]);
        assert!(s.contains(&[0]), "recently-touched key must survive");
        assert!(!s.contains(&[1]), "LRU key must be evicted");
    }

    #[test]
    fn explicit_flush_applies_touches() {
        let s = small();
        for i in 0..9u8 {
            s.set(vec![i], vec![0u8; 1000]);
        }
        assert!(s.get(&[0]).is_some());
        assert!(s.get(&[2]).is_some());
        assert!(s.get(&[0]).is_some()); // a repeat hit in tick 0: [2, 0, 8, ...]
        let rep = s.flush_touches(0);
        // While every read left a record this was 3 drained, 2 applied and
        // the older touch of key 0 deduped as stale.
        assert_eq!((rep.drained, rep.applied, rep.stale), (2, 2, 0));
        assert!(s.get(&[0]).is_some());
        assert_eq!(s.flush_touches(0).drained, 0, "still tick 0");
        assert!(s.get_at(&[0], 1).is_some());
        assert_eq!(s.flush_touches(1).drained, 1, "the first hit of tick 1");
        // Evict twice: victims must be the true tail (1 then 3), with the
        // touched keys 0 and 2 refreshed.
        s.set_at(vec![100], vec![0u8; 1000], 1, None);
        s.set_at(vec![101], vec![0u8; 1000], 1, None);
        assert!(s.contains(&[0]) && s.contains(&[2]));
        assert!(!s.contains(&[1]) && !s.contains(&[3]));
    }

    #[test]
    fn a_ticking_clock_leaves_one_record_per_key_per_tick() {
        // 10 000 skewed reads over 400 keys, the clock advanced and the
        // logs flushed every 1 000: what the flushes drain is the number
        // of distinct (key, tick) pairs read, exactly, and every other hit
        // was skipped.
        let s = Store::new(StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 4,
        });
        let obs = Obs::new();
        s.attach_telemetry(&obs, None);
        for k in 0..400u32 {
            s.set(k.to_be_bytes().to_vec(), "v");
        }
        let mut pairs = std::collections::HashSet::new();
        let (mut drained, mut rng) = (0, 0x5eed_0019_u64);
        for i in 0..10_000u64 {
            let now = i / 1_000;
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Log-uniform rank: Zipf-like, rank 0 the hottest.
            let u = (rng >> 11) as f64 / (1u64 << 53) as f64;
            let key = (400f64.powf(u) as u32 - 1).to_be_bytes();
            assert!(s.get_at(&key, now).is_some());
            pairs.insert((key, now));
            if i % 1_000 == 999 {
                drained += s.flush_touches(now).drained;
            }
        }
        assert!(
            pairs.len() > 1_000 && pairs.len() < 4_000,
            "{}",
            pairs.len()
        );
        assert_eq!(drained, pairs.len() as u64);
        assert_eq!(
            obs.counter("store_touch_skipped_total").get(),
            10_000 - drained
        );
        assert_eq!(obs.counter("store_touch_dropped_total").get(), 0);
        assert_eq!(s.stats().hits, 10_000);
    }

    #[test]
    fn an_untapped_set_takes_only_its_shards_lock() {
        // With the sink's and the telemetry's locks held for writing, a
        // `set`, a policy `set`, an `update` and a batched `get` finish:
        // each takes its shard's lock and no other.
        let s = Arc::new(small());
        let (sink, telemetry) = (s.sink.write(), s.telemetry.write());
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn({
            let s = Arc::clone(&s);
            move || {
                s.set("k", "1");
                s.set_policy_at("k", "2", 0, None, SetPolicy::IfPresent);
                s.update_at(b"k", 0, |_| Some(Bytes::from("3")));
                s.get_many_with([&b"k"[..]].into_iter(), 0, |_, v| {
                    done.send(v.map(<[u8]>::to_vec)).unwrap()
                });
            }
        });
        let got = finished.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(got, Ok(Some(b"3".to_vec())), "blocked on a second lock");
        drop((sink, telemetry));
        worker.join().unwrap();
    }

    #[test]
    fn stale_touches_are_dropped() {
        let s = small();
        s.set("a", "1");
        assert!(s.get(b"a").is_some()); // queued touch for a's slot
        assert!(s.delete(b"a")); // flushes (applies it), slot freed
        s.set("b", "2"); // reuses the slot with a bumped generation
        assert!(s.get(b"a").is_none());
        let rep = s.flush_touches(0);
        assert_eq!(rep.applied, 0);
        assert_eq!(rep.drained, 0, "delete's opportunistic flush drained it");
    }

    #[test]
    fn oversized_items_are_rejected() {
        let s = Store::with_capacity(1000);
        s.set("big", vec![0u8; 5000]);
        assert!(!s.contains(b"big"));
        assert_eq!(s.used_bytes(), 0);
        // Over a value the key already holds, the old value goes too.
        s.set("big", "fits");
        s.set("big", vec![0u8; 5000]);
        assert!(!s.contains(b"big"));
        assert_eq!((s.used_bytes(), s.len(), s.stats().sets), (0, 0, 3));
    }

    #[test]
    fn ttl_expiry_counts_as_miss() {
        let s = small();
        s.set_at("k", "v", 100, Some(50));
        assert!(s.get_at(b"k", 120).is_some());
        assert!(s.get_at(b"k", 150).is_none()); // expired exactly at 150
        assert!(!s.contains_at(b"k", 150));
        // The shared-lock GET never mutates; the wheel reaps on the flush.
        assert!(s.contains(b"k"), "entry lingers until a flush");
        let rep = s.flush_touches(150);
        assert_eq!(rep.expired, 1);
        assert!(!s.contains(b"k"), "wheel reaped the expired item");
        let st = s.stats();
        assert_eq!(st.expirations, 1);
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn wheel_reaps_without_a_get() {
        // The whole point of the wheel: memory comes back without an
        // unlucky GET colliding with the expired entry.
        let s = small();
        s.set_at("short", "v", 0, Some(10));
        s.set_at("long", "v", 0, Some(1_000_000));
        s.set_at("forever", "v", 0, None);
        assert_eq!(s.len(), 3);
        let rep = s.flush_touches(10);
        assert_eq!(rep.expired, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().expirations, 1);
        assert!(!s.contains(b"short"));
        assert!(s.contains(b"long") && s.contains(b"forever"));
        // No due deadline: the flush fast-path skips the shard entirely.
        let rep = s.flush_touches(11);
        assert!(!rep.any());
    }

    #[test]
    fn wheel_records_for_overwritten_entries_go_stale() {
        let s = small();
        s.set_at("k", "v1", 0, Some(10));
        s.set_at("k", "v2", 0, None); // overwrite drops the TTL
        let rep = s.flush_touches(100);
        assert_eq!(rep.expired, 0, "stale wheel record must not reap v2");
        assert_eq!(s.get_at(b"k", 100).as_deref(), Some(b"v2".as_ref()));
    }

    #[test]
    fn expired_entry_unblocks_add_and_fails_replace() {
        // Presence is TTL-aware.
        let s = small();
        s.set_at("k", "old", 0, Some(10));
        assert_eq!(
            s.set_policy_at("k", "new", 20, None, SetPolicy::IfPresent),
            SetOutcome::NotStored,
            "replace must fail on an expired entry"
        );
        assert_eq!(
            s.set_policy_at("k", "new", 20, None, SetPolicy::IfAbsent),
            SetOutcome::Stored,
            "add must succeed over an expired entry"
        );
        assert_eq!(s.get_at(b"k", 20).as_deref(), Some(b"new".as_ref()));
        assert_eq!(s.stats().expirations, 1);
    }

    #[test]
    fn delete_of_expired_reports_not_found() {
        let s = small();
        s.set_at("k", "v", 0, Some(10));
        assert!(!s.delete_at(b"k", 20), "expired item deletes as absent");
        assert!(!s.contains(b"k"), "but it is purged");
        let st = s.stats();
        assert_eq!(st.deletes, 0);
        assert_eq!(st.expirations, 1);
    }

    #[test]
    fn snapshot_at_counts_only_live_items() {
        let s = small();
        s.set_at("t", vec![0u8; 100], 0, Some(10));
        s.set_at("p", vec![0u8; 100], 0, None);
        let before = s.snapshot_at(5);
        assert_eq!(before.items, 2);
        let after = s.snapshot_at(10);
        assert_eq!(after.items, 1, "expired item leaves the counts");
        assert_eq!(after.used_bytes, 1 + 100 + ITEM_OVERHEAD);
        assert_eq!(s.len_at(10), 1);
    }

    #[test]
    fn clear_empties_everything() {
        let s = small();
        for i in 0..5u8 {
            s.set_at(vec![i], "v", 0, Some(100));
        }
        s.get(&[0]); // leave a touch record in flight
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
        // Store remains usable; stale touch/wheel records are inert.
        s.set("x", "y");
        assert!(s.contains(b"x"));
        let rep = s.flush_touches(1_000);
        assert_eq!(rep.expired, 0);
        assert!(s.contains(b"x"));
    }

    #[test]
    fn sharding_distributes_keys() {
        let s = Store::new(StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 8,
        });
        for i in 0..1000u32 {
            s.set(i.to_be_bytes().to_vec(), "v");
        }
        assert_eq!(s.len(), 1000);
        let occupied = s
            .shards
            .iter()
            .filter(|sh| sh.data.read().arena.len() > 0)
            .count();
        assert!(
            occupied >= 6,
            "keys should spread over shards, got {occupied}"
        );
    }

    #[test]
    fn hit_rate_math() {
        let s = small();
        s.set("a", "1");
        s.get(b"a");
        s.get(b"a");
        s.get(b"nope");
        assert!((s.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn get_many_matches_sequential_gets() {
        let s = Store::new(StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 4,
        });
        let t = Store::new(StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 4,
        });
        for i in 0..64u32 {
            if i % 3 != 0 {
                s.set_at(i.to_be_bytes().to_vec(), "v", 0, Some(100));
                t.set_at(i.to_be_bytes().to_vec(), "v", 0, Some(100));
            }
        }
        let keys: Vec<Vec<u8>> = (0..64u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let mut batched = Vec::new();
        s.get_many_into(refs.iter().copied(), 50, &mut batched);
        let sequential: Vec<Option<Bytes>> = refs.iter().map(|k| t.get_at(k, 50)).collect();
        assert_eq!(batched, sequential);
        assert_eq!(s.stats(), t.stats(), "batched stats must match sequential");
        // Expired items behave identically too (TTL 100 at t=200).
        s.get_many_into(refs.iter().copied(), 200, &mut batched);
        assert!(batched.iter().all(|v| v.is_none()));
        assert_eq!(s.stats(), {
            refs.iter().for_each(|k| {
                t.get_at(k, 200);
            });
            t.stats()
        });
    }

    #[test]
    fn shards_clamp_to_the_mask_and_a_wide_store_batches_alike() {
        let wide = |shards| {
            let s = Store::new(StoreConfig {
                capacity_bytes: 1 << 20,
                shards,
            });
            for i in 0..300u32 {
                s.set_at(i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec(), 0, None);
            }
            s
        };
        let (s, t) = (wide(100), wide(MAX_SHARDS));
        assert_eq!(s.shard_count(), MAX_SHARDS);
        assert_eq!(wide(0).shard_count(), 1);
        let keys: Vec<[u8; 4]> = (0..320u32).rev().map(u32::to_be_bytes).collect();
        let mut seen = Vec::new();
        s.get_many_with(keys.iter().map(|k| &k[..]), 0, |i, v| {
            seen.push((i, v.map(<[u8]>::to_vec)))
        });
        let want = keys.iter().map(|k| t.get_at(k, 0).map(|v| v.to_vec()));
        assert_eq!(seen, want.enumerate().collect::<Vec<_>>());
        assert_eq!(s.stats(), t.stats());
    }

    #[test]
    fn set_many_groups_by_shard_and_preserves_order() {
        let s = Store::new(StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 4,
        });
        // Two writes to the same key in one batch: last one wins, exactly
        // as with sequential sets.
        let items = vec![
            (
                Bytes::copy_from_slice(b"dup"),
                Bytes::copy_from_slice(b"first"),
                None,
            ),
            (
                Bytes::copy_from_slice(b"a"),
                Bytes::copy_from_slice(b"1"),
                None,
            ),
            (
                Bytes::copy_from_slice(b"b"),
                Bytes::copy_from_slice(b"2"),
                Some(10),
            ),
            (
                Bytes::copy_from_slice(b"dup"),
                Bytes::copy_from_slice(b"last"),
                None,
            ),
        ];
        let stored = s.set_many_at(items, 0);
        assert_eq!(stored, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(b"dup").as_deref(), Some(b"last".as_ref()));
        assert!(
            s.get_at(b"b", 11).is_none(),
            "TTL applies through the batch"
        );
        assert_eq!(s.stats().sets, 4);
    }

    type Walked = Vec<(Vec<u8>, Vec<u8>, Option<u64>)>;

    /// One shard's `(key, value, ttl)` in visitor order.
    fn walk(s: &Store, shard: usize, now: u64) -> Walked {
        let mut seen = Vec::new();
        let n = s.visit_shard_at(shard, now, |k, v, ttl| {
            seen.push((k.to_vec(), v.to_vec(), ttl));
        });
        assert_eq!(n, seen.len());
        seen
    }

    #[test]
    fn set_many_takes_one_shard_batches_and_mixed_batches_alike() {
        #[derive(Default)]
        struct Tap(Mutex<Vec<Vec<u8>>>);
        impl MutationSink for Tap {
            fn on_set(&self, key: &Bytes, _: &Bytes, _: Option<u64>) {
                self.0.lock().push(key.to_vec());
            }
            fn on_delete(&self, _: &[u8]) {}
        }
        let config = StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 4,
        };
        let (batched, sequential) = (Store::new(config), Store::new(config));
        let tap = Arc::new(Tap::default());
        batched.set_mutation_sink(Some(tap.clone()));
        let keys: Vec<String> = (0..200).map(|i| format!("k{i}")).collect();
        let item = |k: &String, v: &str| {
            (
                Bytes::from(k.clone().into_bytes()),
                Bytes::from(v.as_bytes().to_vec()),
                None,
            )
        };
        // Every key of the first batch lives in shard 2; the second batch
        // is spread over all four and writes some of those keys again.
        let one_shard: Vec<_> = keys
            .iter()
            .filter(|k| batched.shard_of(k.as_bytes()) == 2)
            .map(|k| item(k, "old"))
            .collect();
        let mixed: Vec<_> = keys.iter().step_by(3).map(|k| item(k, "new")).collect();
        assert!(one_shard.len() > 20);
        for batch in [one_shard, mixed] {
            for (k, v, ttl) in batch.clone() {
                sequential.set_at(k, v, 0, ttl);
            }
            let n = batch.len();
            assert_eq!(batched.set_many_at(batch, 0), n);
            assert_eq!(tap.0.lock().len(), n, "every stored item is tapped");
            tap.0.lock().clear();
        }
        for shard in 0..4 {
            assert_eq!(walk(&batched, shard, 0), walk(&sequential, shard, 0));
        }
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.set_many_at(Vec::new(), 0), 0);
    }

    #[test]
    fn set_many_if_absent_keeps_what_the_store_already_holds() {
        let s = Store::new(StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 2,
        });
        s.set_at("live", "newer", 0, None);
        s.set_at("dying", "stale", 0, Some(10));
        let b = |x: &str| Bytes::copy_from_slice(x.as_bytes());
        let batch = || {
            vec![
                (b("live"), b("older"), None),
                (b("dying"), b("fresh"), Some(5)),
                (b("absent"), b("loaded"), None),
            ]
        };
        // At 20 `dying` has expired, unreaped: it counts as absent.
        assert_eq!(s.set_many_policy_at(batch(), 20, SetPolicy::IfAbsent), 2);
        assert_eq!(s.get_at(b"live", 20).as_deref(), Some(b"newer".as_ref()));
        assert_eq!(s.get_at(b"dying", 20).as_deref(), Some(b"fresh".as_ref()));
        assert_eq!(s.get_at(b"absent", 20).as_deref(), Some(b"loaded".as_ref()));
        assert!(s.get_at(b"dying", 25).is_none(), "the batch's TTL applies");
        // A second pass finds everything present and changes nothing.
        assert_eq!(s.set_many_policy_at(batch(), 20, SetPolicy::IfAbsent), 0);
        assert_eq!(s.set_many_policy_at(batch(), 20, SetPolicy::IfPresent), 3);
        assert_eq!(s.get_at(b"live", 20).as_deref(), Some(b"older".as_ref()));
    }

    /// One shard with room for exactly `items` items of a 2-byte key and
    /// a 2-byte value.
    fn fill_shard(items: usize) -> Store {
        Store::new(StoreConfig {
            capacity_bytes: items * (4 + ITEM_OVERHEAD),
            shards: 1,
        })
    }

    fn keys_of(s: &Store) -> Vec<Vec<u8>> {
        walk(s, 0, 0).into_iter().map(|(k, _, _)| k).collect()
    }

    #[test]
    fn fill_refuses_what_does_not_fit_and_evicts_nothing() {
        let s = fill_shard(2);
        s.set("k0", "v0");
        s.set("k1", "v1");
        let out = s.set_policy_at("k2", "v2", 0, None, SetPolicy::Fill);
        assert_eq!(out, SetOutcome::NotStored);
        assert_eq!(keys_of(&s), [b"k1", b"k0"]);
        assert_eq!(s.stats().evictions, 0);
        assert_eq!(s.stats().sets, 2, "a refused fill is not a set");
        // What fits the free room is stored; the rest of a batch is not.
        let s = fill_shard(2);
        s.set("k0", "v0");
        let b = |x: &str| Bytes::copy_from_slice(x.as_bytes());
        let batch = vec![(b("k1"), b("v1"), None), (b("k2"), b("v2"), None)];
        assert_eq!(s.set_many_policy_at(batch, 0, SetPolicy::Fill), 1);
        assert_eq!(keys_of(&s), [b"k0", b"k1"]);
        assert_eq!(s.stats().evictions, 0);
    }

    #[test]
    fn fill_lands_behind_the_tail() {
        let s = fill_shard(4);
        s.set("k0", "v0");
        s.set("k1", "v1");
        for k in ["f0", "f1"] {
            assert_eq!(
                s.set_policy_at(k, "vf", 0, None, SetPolicy::Fill),
                SetOutcome::Stored
            );
        }
        assert_eq!(keys_of(&s), [b"k1", b"k0", b"f0", b"f1"]);
        // Filled items are the first victims, in arrival order.
        s.set("k2", "v2");
        assert_eq!(keys_of(&s), [b"k2", b"k1", b"k0", b"f0"]);
        // And a read bumps a filled item like any other.
        assert!(s.get_at(b"f0", 1).is_some());
        assert_eq!(walk(&s, 0, 1)[0].0, b"f0");
    }

    #[test]
    fn fill_files_a_ttl_in_the_wheel() {
        let s = fill_shard(4);
        s.set_policy_at("f0", "vf", 0, Some(5), SetPolicy::Fill);
        assert_eq!(walk(&s, 0, 2), [(b"f0".to_vec(), b"vf".to_vec(), Some(3))]);
        // No read collides with it: the wheel alone reaps it.
        assert_eq!(s.flush_touches(10).expired, 1);
        assert_eq!(s.stats().expirations, 1);
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn fill_leaves_a_live_holder_untouched() {
        let s = fill_shard(4);
        s.set_at("k0", "v0", 0, Some(50));
        s.set("k1", "v1");
        let out = s.set_policy_at("k0", "vf", 10, None, SetPolicy::Fill);
        assert_eq!(out, SetOutcome::NotStored);
        assert_eq!(
            walk(&s, 0, 10),
            [
                (b"k1".to_vec(), b"v1".to_vec(), None),
                (b"k0".to_vec(), b"v0".to_vec(), Some(40)),
            ],
            "neither the value, the deadline nor the order moved"
        );
    }

    #[test]
    fn fill_replaces_an_expired_holder() {
        let s = fill_shard(4);
        s.set_at("k0", "v0", 0, Some(5));
        s.set("k1", "v1");
        let out = s.set_policy_at("k0", "vf", 20, None, SetPolicy::Fill);
        assert_eq!(out, SetOutcome::Stored);
        assert_eq!(s.get_at(b"k0", 20).as_deref(), Some(b"vf".as_ref()));
        assert_eq!(s.stats().expirations, 1);
        assert_eq!(keys_of(&s), [b"k0", b"k1"], "the read bumped it");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn a_recency_order_visit_skips_what_left_the_shard() {
        let s = fill_shard(8);
        for i in 0..5 {
            let ttl = (i == 2).then_some(5);
            s.set_at(format!("k{i}"), format!("v{i}"), 0, ttl);
        }
        let order = s.recency_order_at(0, 0);
        assert_eq!(order.len(), 5);
        s.delete(b"k3");
        let mut seen = Vec::new();
        let n = s.visit_slots_at(0, &order, 10, |k, v, ttl| {
            seen.push((k.to_vec(), v.to_vec(), ttl));
        });
        assert_eq!(n, seen.len());
        let keys: Vec<_> = seen.iter().map(|(k, _, _)| &k[..]).collect();
        assert_eq!(keys, [b"k4", b"k1", b"k0"], "k3 was deleted, k2 expired");
        // Slices of the order visit the same items, slice by slice.
        let halves: Vec<_> = order.chunks(3).collect();
        let mut sliced = Vec::new();
        for half in halves {
            s.visit_slots_at(0, half, 10, |k, _, _| sliced.push(k.to_vec()));
        }
        assert_eq!(sliced, keys);
    }

    #[test]
    fn visit_shard_walks_live_items_hottest_first() {
        let s = Store::new(StoreConfig {
            capacity_bytes: 1 << 20,
            shards: 2,
        });
        for i in 0..10 {
            let ttl = match i {
                3 => Some(5),  // gone by the walk at 10
                4 => Some(40), // 30 left
                _ => None,
            };
            s.set_at(format!("k{i}"), format!("v{i}"), 0, ttl);
        }
        // A read through the touch log: the walk must flush it first.
        assert!(s.get_at(b"k0", 1).is_some());
        let mut expect: Vec<Walked> = vec![Vec::new(); 2];
        for i in [0, 9, 8, 7, 6, 5, 4, 2, 1] {
            let key = format!("k{i}");
            expect[s.shard_of(key.as_bytes())].push((
                key.into_bytes(),
                format!("v{i}").into_bytes(),
                (i == 4).then_some(30),
            ));
        }
        for (shard, want) in expect.iter().enumerate() {
            assert_eq!(&walk(&s, shard, 10), want);
        }
    }

    #[test]
    fn set_policy_single_lock_semantics() {
        let s = small();
        assert_eq!(
            s.set_policy_at("k", "a", 0, None, SetPolicy::IfPresent),
            SetOutcome::NotStored
        );
        assert_eq!(
            s.set_policy_at("k", "a", 0, None, SetPolicy::IfAbsent),
            SetOutcome::Stored
        );
        assert_eq!(
            s.set_policy_at("k", "b", 0, None, SetPolicy::IfAbsent),
            SetOutcome::NotStored
        );
        assert_eq!(
            s.set_policy_at("k", "c", 0, None, SetPolicy::IfPresent),
            SetOutcome::Stored
        );
        assert_eq!(s.get(b"k").as_deref(), Some(b"c".as_ref()));
        let tiny = Store::with_capacity(128);
        assert_eq!(
            tiny.set_policy_at("big", vec![0u8; 500], 0, None, SetPolicy::Always),
            SetOutcome::TooLarge
        );
        assert!(!tiny.contains(b"big"));
    }

    #[test]
    fn update_rewrites_in_place_and_keeps_the_deadline() {
        let s = small();
        s.set_at("k", "1", 0, Some(50));
        let bump = |v: &[u8]| Some(Bytes::from(vec![v[0] + 1; 2]));
        assert_eq!(s.update_at(b"k", 10, bump), Some(SetOutcome::Stored));
        assert_eq!(s.update_at(b"k", 10, |_| None), Some(SetOutcome::NotStored));
        assert_eq!(s.get_at(b"k", 49).as_deref(), Some(b"22".as_ref()));
        assert!(s.get_at(b"k", 50).is_none(), "the deadline did not move");
        assert_eq!(s.update_at(b"k", 50, bump), None, "expired is absent");
        assert_eq!(s.update_at(b"nope", 50, bump), None);
        let st = s.stats();
        assert_eq!((st.sets, st.hits, st.misses), (2, 3, 3));
        assert_eq!(st.expirations, 1, "reaped or purged, once");
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn snapshot_is_one_sweep_view() {
        let s = small();
        s.set("a", "1");
        s.set("b", "22");
        s.get(b"a");
        s.get(b"missing");
        s.delete(b"b");
        let snap = s.snapshot();
        assert_eq!(snap.stats, s.stats());
        assert_eq!(snap.used_bytes, s.used_bytes());
        assert_eq!(snap.capacity_bytes, s.capacity_bytes());
        assert_eq!(snap.items, s.len());
        assert_eq!(snap.stats.deletes, 1);
    }

    #[test]
    fn telemetry_syncs_on_flush_cadence() {
        let obs = Obs::new();
        let s = small();
        s.attach_telemetry(&obs, None);
        s.set_at("k", "v", 0, Some(5));
        for _ in 0..3 {
            s.get_at(b"k", 1);
        }
        s.get_at(b"k", 2);
        s.get_at(b"missing", 2);
        s.flush_touches(10);
        assert_eq!(obs.counter("store_rlock_gets_total").get(), 5);
        assert_eq!(obs.counter("store_touch_flush_total").get(), 1);
        // One record per (key, tick) read, not per read: tick 1's three
        // hits left one (three, while every read left a record) and tick
        // 2's hit another. Both apply, in order (applied 1 / stale 1 while
        // the flush deduped: the older record was counted superseded).
        assert_eq!(obs.counter("store_touch_skipped_total").get(), 2);
        assert_eq!(obs.counter("store_touch_flush_records_total").get(), 2);
        assert_eq!(obs.counter("store_touch_flush_applied_total").get(), 2);
        assert_eq!(obs.counter("store_touch_flush_stale_total").get(), 0);
        assert_eq!(obs.counter("ttl_wheel_expired_total").get(), 1);
        assert!(obs.counter("ttl_wheel_advances_total").get() >= 1);
        assert_eq!(obs.gauge("ttl_wheel_pending").get(), 0.0);
        // Deltas, not absolutes: a second sync must not double-count.
        s.flush_touches(11);
        s.snapshot_at(11);
        assert_eq!(obs.counter("store_rlock_gets_total").get(), 5);
    }

    proptest! {
        /// Accounting invariants hold under arbitrary operation sequences:
        /// used_bytes matches the sum over live items and never exceeds
        /// capacity.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec(
            (0u8..3, 0u16..50, 0usize..2000), 1..300)) {
            let s = Store::new(StoreConfig { capacity_bytes: 64 * 1024, shards: 4 });
            for (op, key, size) in ops {
                let k = key.to_be_bytes().to_vec();
                match op {
                    0 => s.set(k, vec![0u8; size]),
                    1 => { s.get(&k); }
                    _ => { s.delete(&k); }
                }
                prop_assert!(s.used_bytes() <= s.capacity_bytes());
            }
            // Recompute used from scratch via per-item sizes.
            let mut expect = 0usize;
            for sh in &s.shards {
                let sh = sh.data.read();
                let acc: usize = sh.arena.iter().map(item_bytes).sum();
                expect += acc;
                prop_assert_eq!(acc, sh.used_bytes);
                prop_assert_eq!(sh.arena.iter().count(), sh.arena.len());
            }
            prop_assert_eq!(s.used_bytes(), expect);
        }
    }
}
