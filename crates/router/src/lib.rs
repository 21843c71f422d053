#![warn(missing_docs)]

//! The mcrouter substrate: request routing for the spot/burstable cache.
//!
//! The paper implements its load balancer and key partitioner inside
//! Facebook's mcrouter; this crate provides the same mechanisms:
//!
//! * [`CountMinSketch`] and [`BloomFilter`] — the sketch primitives,
//! * [`partitioner`] — access-frequency hot-key tracking that assigns each
//!   key its [`Pool`](balancer::Pool) (paper Section 4.2, "Key
//!   partitioner"); neither it nor the sketches has a request-path caller
//!   (ROADMAP item 9),
//! * [`hashring`] — weighted consistent hashing (mcrouter's
//!   `WeightedCh3`-style pools),
//! * [`balancer`] — the load balancer: hot and cold *virtual pools* over
//!   the same physical nodes, with weight updates from the global
//!   controller deciding which node owns each key, and
//! * [`degraded`] — the revocation-time state machine that serves
//!   stale-from-backup until the replacement is warmed (paper §3.3).

pub mod balancer;
pub mod degraded;
pub mod hashring;
// ROADMAP 9: the measured hot set gives these a request-path caller or deletes them.
pub mod partitioner;
mod sketch;

// ROADMAP 9: the sketches the measured hot set may count with.
pub use sketch::{BloomFilter, CountMinSketch};

/// A fast, seedable 64-bit hash (FNV-1a finished with a splitmix64 mix).
///
/// Deterministic across processes and Rust versions, which keeps every
/// simulation reproducible.
pub(crate) fn hash64(seed: u64, data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // splitmix64 finalizer for avalanche.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        assert_eq!(hash64(0, b"key"), hash64(0, b"key"));
        assert_ne!(hash64(0, b"key"), hash64(1, b"key"));
        assert_ne!(hash64(0, b"key"), hash64(0, b"kez"));
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        // Crude avalanche check: high bits differ across sequential keys.
        let mut buckets = [0u32; 16];
        for i in 0..1600u32 {
            let h = hash64(7, &i.to_be_bytes());
            buckets[(h >> 60) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((50..=150).contains(&b), "bucket {i} count {b}");
        }
    }
}
