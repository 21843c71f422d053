//! What `read_path.rs` and `eviction_golden.rs` share: the [`Plane`] trait,
//! which lets one schedule of operations run against the product [`Store`]
//! and against the sequential [`Model`] that is its reference.

// Each test target compiles this module and uses part of it.
#![allow(dead_code)]

mod model;

use bytes::Bytes;
use spotcache_cache::store::{SetOutcome, SetPolicy, Store, StoreConfig, StoreSnapshot};

pub use model::Model;

/// A stored item as the batch and snapshot calls carry it: key, value and
/// TTL (relative).
pub type Item = (Bytes, Bytes, Option<u64>);

/// The store operations the differential tests drive, with the store's
/// signatures and meaning.
pub trait Plane {
    fn new(config: StoreConfig) -> Self;
    fn get_at(&mut self, key: &[u8], now: u64) -> Option<Bytes>;
    fn get_many(&mut self, keys: &[&[u8]], now: u64) -> Vec<Option<Bytes>>;
    fn set_at(&mut self, key: Bytes, value: Bytes, now: u64, ttl: Option<u64>);
    fn set_policy_at(
        &mut self,
        key: Bytes,
        value: Bytes,
        now: u64,
        ttl: Option<u64>,
        policy: SetPolicy,
    ) -> SetOutcome;
    fn set_many_at(&mut self, items: Vec<Item>, now: u64) -> usize;
    fn update_at(
        &mut self,
        key: &[u8],
        now: u64,
        f: impl FnOnce(&[u8]) -> Option<Bytes>,
    ) -> Option<SetOutcome>;
    fn delete_at(&mut self, key: &[u8], now: u64) -> bool;
    fn contains_at(&mut self, key: &[u8], now: u64) -> bool;
    /// Applies deferred work up to `now`; returns the expired items it
    /// reaped.
    fn flush_touches(&mut self, now: u64) -> u64;
    fn snapshot_at(&mut self, now: u64) -> StoreSnapshot;
    fn visit_shard_at(
        &mut self,
        shard: usize,
        now: u64,
        visit: impl FnMut(&[u8], &[u8], Option<u64>),
    ) -> usize;
    fn hot_snapshot_at(&mut self, max_items: usize, now: u64) -> Vec<Item>;
}

impl Plane for Store {
    fn new(config: StoreConfig) -> Self {
        Store::new(config)
    }

    fn get_at(&mut self, key: &[u8], now: u64) -> Option<Bytes> {
        Store::get_at(self, key, now)
    }

    fn get_many(&mut self, keys: &[&[u8]], now: u64) -> Vec<Option<Bytes>> {
        let mut out = Vec::new();
        Store::get_many_into(self, keys.iter().copied(), now, &mut out);
        out
    }

    fn set_at(&mut self, key: Bytes, value: Bytes, now: u64, ttl: Option<u64>) {
        Store::set_at(self, key, value, now, ttl)
    }

    fn set_policy_at(
        &mut self,
        key: Bytes,
        value: Bytes,
        now: u64,
        ttl: Option<u64>,
        policy: SetPolicy,
    ) -> SetOutcome {
        Store::set_policy_at(self, key, value, now, ttl, policy)
    }

    fn set_many_at(&mut self, items: Vec<Item>, now: u64) -> usize {
        Store::set_many_at(self, items, now)
    }

    fn update_at(
        &mut self,
        key: &[u8],
        now: u64,
        f: impl FnOnce(&[u8]) -> Option<Bytes>,
    ) -> Option<SetOutcome> {
        Store::update_at(self, key, now, f)
    }

    fn delete_at(&mut self, key: &[u8], now: u64) -> bool {
        Store::delete_at(self, key, now)
    }

    fn contains_at(&mut self, key: &[u8], now: u64) -> bool {
        Store::contains_at(self, key, now)
    }

    fn flush_touches(&mut self, now: u64) -> u64 {
        Store::flush_touches(self, now).expired
    }

    fn snapshot_at(&mut self, now: u64) -> StoreSnapshot {
        Store::snapshot_at(self, now)
    }

    fn visit_shard_at(
        &mut self,
        shard: usize,
        now: u64,
        visit: impl FnMut(&[u8], &[u8], Option<u64>),
    ) -> usize {
        Store::visit_shard_at(self, shard, now, visit)
    }

    fn hot_snapshot_at(&mut self, max_items: usize, now: u64) -> Vec<Item> {
        Store::hot_snapshot_at(self, max_items, now)
    }
}
