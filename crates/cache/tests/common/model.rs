//! A sequential model of `spotcache_cache::store::Store`, the reference
//! side of the differential tests. Per shard it keeps a `HashMap` from key
//! to entry and a `VecDeque` of keys in recency order, front = most
//! recently used.
//!
//! It shares no code with the store (no arena, touch log or timer wheel),
//! only its public types and the rules the store documents:
//!
//! * A key lives in shard `fnv1a(key) % shards`; each shard gets
//!   `capacity_bytes / shards` and an item costs
//!   `key + value + ITEM_OVERHEAD` bytes.
//! * Expiry is lazy: a presence check (`get`, `add` / `replace`,
//!   `update`, `delete`) purges an expired item and counts an expiration.
//!   Nothing else reaps; every other read filters expired items out.
//! * A read bumps its key once per clock tick, when the key's stamp is not
//!   `now`. An insert clears the stamp; an overwrite keeps it.
//! * A plain `set` is TTL-blind: it overwrites an expired holder in place.
//!   An overwrite moves the key to the front and frees its old bytes
//!   before victims are chosen. An item over the shard budget is
//!   `TooLarge` and takes any old value with it.
//! * `Fill` stores an absent key only if it fits the shard's free room,
//!   at the back of the recency list, and evicts nothing.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use spotcache_cache::store::{
    CacheStats, SetOutcome, SetPolicy, StoreConfig, StoreSnapshot, ITEM_OVERHEAD,
};

use super::{Item, Plane};

struct Entry {
    value: Bytes,
    expires_at: Option<u64>,
    /// The tick of the key's last read-bump; `None` until a read bumps it.
    stamp: Option<u64>,
}

impl Entry {
    fn expired(&self, now: u64) -> bool {
        self.expires_at.is_some_and(|t| t <= now)
    }

    fn ttl(&self, now: u64) -> Option<u64> {
        self.expires_at.map(|t| t - now)
    }
}

fn cost(key: &[u8], value: &[u8]) -> usize {
    key.len() + value.len() + ITEM_OVERHEAD
}

fn fnv1a(key: &[u8]) -> u64 {
    key.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[derive(Default)]
struct Shard {
    map: HashMap<Bytes, Entry>,
    /// Every key of `map`, most recently used first.
    recency: VecDeque<Bytes>,
    used: usize,
}

impl Shard {
    fn position(&self, key: &[u8]) -> usize {
        let at = self.recency.iter().position(|k| k[..] == *key);
        at.expect("every stored key is in the recency list")
    }

    fn bump(&mut self, key: &[u8]) {
        let k = self.recency.remove(self.position(key));
        self.recency.push_front(k.expect("a position is in range"));
    }

    fn remove(&mut self, key: &[u8]) -> Entry {
        self.recency.remove(self.position(key));
        let e = self.map.remove(key).expect("the key is stored");
        self.used -= cost(key, &e.value);
        e
    }

    /// Unexpired items, most recently used first.
    fn live(&self, now: u64) -> impl Iterator<Item = (&Bytes, &Entry)> + '_ {
        let items = self.recency.iter().map(|k| (k, &self.map[k]));
        items.filter(move |(_, e)| !e.expired(now))
    }
}

/// The model store. Counters are kept for the whole store, since the
/// store only ever reports their sum over the shards.
pub struct Model {
    shards: Vec<Shard>,
    budget: usize,
    stats: CacheStats,
}

impl Model {
    fn shard(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    /// Whether `key` holds a live item. An expired one is purged and
    /// counted as an expiration.
    fn live(&mut self, s: usize, key: &[u8], now: u64) -> bool {
        let sh = &mut self.shards[s];
        match sh.map.get(key) {
            Some(e) if e.expired(now) => {
                sh.remove(key);
                self.stats.expirations += 1;
                false
            }
            found => found.is_some(),
        }
    }

    /// Stores `key` in shard `s` whether or not it is present.
    fn store(&mut self, s: usize, key: Bytes, value: Bytes, expires_at: Option<u64>) -> SetOutcome {
        self.stats.sets += 1;
        let sh = &mut self.shards[s];
        let bytes = cost(&key, &value);
        let stamp = sh.map.contains_key(&key).then(|| sh.remove(&key).stamp);
        let stamp = stamp.flatten();
        if bytes > self.budget {
            return SetOutcome::TooLarge;
        }
        while sh.used + bytes > self.budget {
            let victim = sh.recency.pop_back().expect("used > 0 implies an item");
            let e = sh.map.remove(&victim).expect("the victim is stored");
            sh.used -= cost(&victim, &e.value);
            self.stats.evictions += 1;
        }
        sh.used += bytes;
        sh.recency.push_front(key.clone());
        let entry = Entry {
            value,
            expires_at,
            stamp,
        };
        sh.map.insert(key, entry);
        SetOutcome::Stored
    }
}

impl Model {
    /// Pushes an absent `key` to the back of shard `s` if it fits the free
    /// room; refuses it otherwise and evicts nothing.
    fn fill(&mut self, s: usize, key: Bytes, value: Bytes, expires_at: Option<u64>) -> SetOutcome {
        let sh = &mut self.shards[s];
        let bytes = cost(&key, &value);
        if sh.used + bytes > self.budget {
            return SetOutcome::NotStored;
        }
        self.stats.sets += 1;
        sh.used += bytes;
        sh.recency.push_back(key.clone());
        let entry = Entry {
            value,
            expires_at,
            stamp: None,
        };
        sh.map.insert(key, entry);
        SetOutcome::Stored
    }
}

impl Plane for Model {
    fn new(config: StoreConfig) -> Self {
        let n = config.shards.max(1);
        Self {
            shards: (0..n).map(|_| Shard::default()).collect(),
            budget: config.capacity_bytes / n,
            stats: CacheStats::default(),
        }
    }

    fn get_at(&mut self, key: &[u8], now: u64) -> Option<Bytes> {
        let s = self.shard(key);
        if !self.live(s, key, now) {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        let sh = &mut self.shards[s];
        let e = sh.map.get_mut(key).expect("live");
        let value = e.value.clone();
        if e.stamp != Some(now) {
            e.stamp = Some(now);
            sh.bump(key);
        }
        Some(value)
    }

    fn get_many(&mut self, keys: &[&[u8]], now: u64) -> Vec<Option<Bytes>> {
        keys.iter().map(|key| self.get_at(key, now)).collect()
    }

    fn set_at(&mut self, key: Bytes, value: Bytes, now: u64, ttl: Option<u64>) {
        let s = self.shard(&key);
        self.store(s, key, value, ttl.map(|d| now + d));
    }

    fn set_policy_at(
        &mut self,
        key: Bytes,
        value: Bytes,
        now: u64,
        ttl: Option<u64>,
        policy: SetPolicy,
    ) -> SetOutcome {
        let s = self.shard(&key);
        let present = self.live(s, &key, now);
        let store_it = match policy {
            SetPolicy::Always => true,
            SetPolicy::IfAbsent | SetPolicy::Fill => !present,
            SetPolicy::IfPresent => present,
        };
        if !store_it {
            return SetOutcome::NotStored;
        }
        if policy == SetPolicy::Fill {
            return self.fill(s, key, value, ttl.map(|d| now + d));
        }
        self.store(s, key, value, ttl.map(|d| now + d))
    }

    fn set_many_at(&mut self, items: Vec<Item>, now: u64) -> usize {
        let outcomes = items.into_iter().map(|(key, value, ttl)| {
            let s = self.shard(&key);
            self.store(s, key, value, ttl.map(|d| now + d))
        });
        outcomes.filter(|&out| out == SetOutcome::Stored).count()
    }

    fn update_at(
        &mut self,
        key: &[u8],
        now: u64,
        f: impl FnOnce(&[u8]) -> Option<Bytes>,
    ) -> Option<SetOutcome> {
        let s = self.shard(key);
        if !self.live(s, key, now) {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        let e = &self.shards[s].map[key];
        let expires_at = e.expires_at;
        let Some(value) = f(&e.value) else {
            self.shards[s].bump(key);
            return Some(SetOutcome::NotStored);
        };
        Some(self.store(s, Bytes::copy_from_slice(key), value, expires_at))
    }

    fn delete_at(&mut self, key: &[u8], now: u64) -> bool {
        let s = self.shard(key);
        let removed = self.live(s, key, now);
        if removed {
            self.shards[s].remove(key);
            self.stats.deletes += 1;
        }
        removed
    }

    fn contains_at(&mut self, key: &[u8], now: u64) -> bool {
        let sh = &self.shards[self.shard(key)];
        sh.map.get(key).is_some_and(|e| !e.expired(now))
    }

    /// Nothing is deferred: recency moves inline and expiry is lazy.
    fn flush_touches(&mut self, _now: u64) -> u64 {
        0
    }

    fn snapshot_at(&mut self, now: u64) -> StoreSnapshot {
        let mut snap = StoreSnapshot {
            stats: self.stats,
            capacity_bytes: self.budget * self.shards.len(),
            ..StoreSnapshot::default()
        };
        for (k, e) in self.shards.iter().flat_map(|sh| sh.live(now)) {
            snap.used_bytes += cost(k, &e.value);
            snap.items += 1;
        }
        snap
    }

    fn visit_shard_at(
        &mut self,
        shard: usize,
        now: u64,
        mut visit: impl FnMut(&[u8], &[u8], Option<u64>),
    ) -> usize {
        let items = self.shards[shard].live(now);
        items.map(|(k, e)| visit(k, &e.value, e.ttl(now))).count()
    }

    /// Each shard's quota is what a round-robin over its item count takes,
    /// expired items counted, as the store's length pre-pass counts them;
    /// the live items within the quotas are then merged round-robin.
    fn hot_snapshot_at(&mut self, max_items: usize, now: u64) -> Vec<Item> {
        let lens: Vec<usize> = self.shards.iter().map(|sh| sh.map.len()).collect();
        let mut quotas = vec![0usize; lens.len()];
        let mut left = max_items;
        for round in 0..lens.iter().copied().max().unwrap_or(0) {
            for (q, &len) in quotas.iter_mut().zip(&lens) {
                if left > 0 && round < len {
                    *q += 1;
                    left -= 1;
                }
            }
        }
        let shards = self.shards.iter().zip(quotas);
        let mut per_shard: Vec<_> = shards.map(|(sh, q)| sh.live(now).take(q)).collect();
        let mut out = Vec::new();
        loop {
            let before = out.len();
            for items in per_shard.iter_mut() {
                if out.len() < max_items {
                    let item = items.next();
                    out.extend(item.map(|(k, e)| (k.clone(), e.value.clone(), e.ttl(now))));
                }
            }
            if out.len() == before {
                return out;
            }
        }
    }
}
