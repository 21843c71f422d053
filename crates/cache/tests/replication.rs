//! Replay-convergence properties of the replication stream.
//!
//! The shipper re-sends whole batches after any link fault and the
//! warm-up pump replays a point-in-time snapshot over whatever live
//! replication already delivered — so the correctness of the whole
//! recovery story rests on replay being *idempotent* (applying a stream
//! again changes nothing) and, for set-only streams, *order-insensitive
//! across keys* (any interleaving that preserves each key's own write
//! order converges to the same store). Per-key order is the exact
//! guarantee the mutation tap provides: `Store::set_many_at` may tap
//! keys of different shards out of input order, but two writes to the
//! same key always tap in order (same key → same shard).

use proptest::prelude::*;
use spotcache_cache::replication::{Mutation, ReplicationQueue};
use spotcache_cache::store::{Store, StoreConfig};

fn fresh_store() -> Store {
    Store::new(StoreConfig {
        capacity_bytes: 4 << 20,
        shards: 4,
    })
}

/// The key a mutation writes.
fn key_of(m: &Mutation) -> &[u8] {
    match m {
        Mutation::Set { key, .. } | Mutation::Delete { key } => key,
    }
}

/// Applies a mutation directly to `store` at logical time `now`: the
/// loopback equivalent of shipping it over the wire.
fn apply(m: &Mutation, store: &Store, now: u64) {
    match m {
        Mutation::Set {
            key,
            raw_value,
            ttl,
        } => store.set_at(key.clone(), raw_value.clone(), now, *ttl),
        Mutation::Delete { key } => {
            store.delete(key);
        }
    }
}

/// Applies `ops` as sets to `store` (through the mutation tap when a
/// queue is installed) over a 10-key space.
fn apply_ops(store: &Store, ops: &[(u8, u8)]) {
    for &(kid, val) in ops {
        let key = format!("h{}", kid % 10);
        let value = vec![val; 1 + (val % 7) as usize];
        store.set(key.into_bytes(), value);
    }
}

/// Reorders `muts` while preserving each key's own order: mutations are
/// split into per-key FIFO queues and reassembled by `picks`.
fn reorder_preserving_per_key(muts: &[Mutation], picks: &[u8]) -> Vec<Mutation> {
    let mut buckets: Vec<(Vec<u8>, std::collections::VecDeque<Mutation>)> = Vec::new();
    for m in muts {
        let key = key_of(m).to_vec();
        match buckets.iter_mut().find(|(k, _)| *k == key) {
            Some((_, q)) => q.push_back(m.clone()),
            None => {
                let mut q = std::collections::VecDeque::new();
                q.push_back(m.clone());
                buckets.push((key, q));
            }
        }
    }
    let mut out = Vec::with_capacity(muts.len());
    let mut pick_idx = 0usize;
    while buckets.iter().any(|(_, q)| !q.is_empty()) {
        let nonempty: Vec<usize> = buckets
            .iter()
            .enumerate()
            .filter(|(_, (_, q))| !q.is_empty())
            .map(|(i, _)| i)
            .collect();
        let choice = picks.get(pick_idx).copied().unwrap_or(0) as usize % nonempty.len();
        pick_idx += 1;
        out.push(buckets[nonempty[choice]].1.pop_front().unwrap());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Set-only streams converge under per-key-order-preserving
    /// reordering plus arbitrary per-mutation duplication — the
    /// superset of every reordering/re-send the shipper and pump can
    /// produce.
    #[test]
    fn set_only_replay_is_order_insensitive_and_duplication_proof(
        ops in proptest::collection::vec((0u8..10, 0u8..=255u8), 1..60),
        picks in proptest::collection::vec(0u8..=255u8, 0..80),
        dups in proptest::collection::vec(1usize..4, 0..80),
    ) {
        let source = fresh_store();
        let queue = ReplicationQueue::new(1024, None);
        source.set_mutation_sink(Some(queue.clone()));
        apply_ops(&source, &ops);
        let mut tapped = Vec::new();
        queue.drain_into(&mut tapped, usize::MAX);
        prop_assert_eq!(tapped.len(), ops.len());

        // Reorder across keys, then duplicate each mutation in place
        // (a duplicated set is a re-shipped batch; in-place duplication
        // keeps per-key order, which re-shipping also does).
        let reordered = reorder_preserving_per_key(&tapped, &picks);
        let mut replay = Vec::new();
        for (i, m) in reordered.iter().enumerate() {
            for _ in 0..dups.get(i).copied().unwrap_or(1) {
                replay.push(m.clone());
            }
        }

        let backup = fresh_store();
        for m in &replay {
            apply(m, &backup, 0);
        }
        for kid in 0..10u8 {
            let key = format!("h{kid}");
            prop_assert_eq!(
                source.get(key.as_bytes()),
                backup.get(key.as_bytes()),
                "key {} diverged", key
            );
        }
    }

    /// Whole-stream replay is idempotent even with deletes in the mix,
    /// as long as order is preserved — replaying the entire tape again
    /// (the pump re-running after a crash) lands in the same state.
    #[test]
    fn in_order_replay_is_idempotent_with_deletes(
        ops in proptest::collection::vec((0u8..10, 0u8..=255u8, 0u8..=1), 1..60),
        replays in 2usize..4,
    ) {
        let source = fresh_store();
        let queue = ReplicationQueue::new(1024, None);
        source.set_mutation_sink(Some(queue.clone()));
        for &(kid, val, del) in &ops {
            let key = format!("h{}", kid % 10);
            if del == 1 {
                source.delete(key.as_bytes());
            } else {
                source.set(key.into_bytes(), vec![val; 1 + (val % 7) as usize]);
            }
        }
        let mut tape = Vec::new();
        queue.drain_into(&mut tape, usize::MAX);

        let backup = fresh_store();
        for _ in 0..replays {
            for m in &tape {
                apply(m, &backup, 0);
            }
        }
        for kid in 0..10u8 {
            let key = format!("h{kid}");
            prop_assert_eq!(
                source.get(key.as_bytes()),
                backup.get(key.as_bytes()),
                "key {} diverged", key
            );
        }
    }
}
