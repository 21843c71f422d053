//! YCSB-style request stream generation.
//!
//! Binds a key-popularity generator to a read/write mix and an item size,
//! producing the read-heavy streams the paper evaluates with (its reference
//! workload, Facebook USR, is 99.8% reads; the prototype experiments use
//! 100% reads with 4 KB items).

use rand::Rng;

use crate::zipf::ScrambledZipfian;

/// One cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Key, as a stable 64-bit identifier.
    pub key: u64,
    /// Whether this is a read (`get`) as opposed to a write (`set`).
    pub is_read: bool,
    /// Value size in bytes (relevant for writes and for warm-up volume).
    pub value_size: usize,
}

impl Request {
    /// The key in its canonical byte representation (for stores/routers).
    pub fn key_bytes(&self) -> [u8; 8] {
        self.key.to_be_bytes()
    }
}

/// A request stream generator.
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    keys: ScrambledZipfian,
    read_fraction: f64,
    value_size: usize,
}

impl RequestGenerator {
    /// The paper's item size: 4 KB.
    pub const DEFAULT_VALUE_SIZE: usize = 4 * 1024;

    /// Creates a generator over `n` keys with Zipf skew `theta` and the
    /// given read fraction (clamped to `[0, 1]`).
    pub fn new(n: u64, theta: f64, read_fraction: f64) -> Self {
        Self {
            keys: ScrambledZipfian::new(n, theta),
            read_fraction: read_fraction.clamp(0.0, 1.0),
            value_size: Self::DEFAULT_VALUE_SIZE,
        }
    }

    /// The paper's prototype stream: 100% reads, 4 KB items.
    pub fn read_only(n: u64, theta: f64) -> Self {
        Self::new(n, theta, 1.0)
    }

    /// Overrides the value size.
    pub fn with_value_size(mut self, bytes: usize) -> Self {
        self.value_size = bytes;
        self
    }

    /// Draws the next request.
    pub fn next_request<R: Rng + ?Sized>(&self, rng: &mut R) -> Request {
        Request {
            key: self.keys.sample(rng),
            is_read: rng.gen::<f64>() < self.read_fraction,
            value_size: self.value_size,
        }
    }

    /// The key generator (for warm-up and placement logic).
    pub fn keys(&self) -> &ScrambledZipfian {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn read_only_stream_is_all_reads() {
        let g = RequestGenerator::read_only(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let r = g.next_request(&mut rng);
            assert!(r.is_read);
            assert_eq!(r.value_size, 4096);
            assert!(r.key < 1000);
        }
    }

    #[test]
    fn mixed_stream_respects_read_fraction() {
        let g = RequestGenerator::new(1000, 0.99, 0.8);
        let mut rng = StdRng::seed_from_u64(2);
        let reads = (0..10_000)
            .filter(|_| g.next_request(&mut rng).is_read)
            .count();
        let frac = reads as f64 / 10_000.0;
        assert!((frac - 0.8).abs() < 0.02, "{frac}");
    }

    #[test]
    fn value_size_override() {
        let g = RequestGenerator::read_only(10, 0.5).with_value_size(100);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(g.next_request(&mut rng).value_size, 100);
    }

    #[test]
    fn key_bytes_roundtrip() {
        let r = Request {
            key: 0xDEAD_BEEF,
            is_read: true,
            value_size: 1,
        };
        assert_eq!(u64::from_be_bytes(r.key_bytes()), 0xDEAD_BEEF);
    }

    #[test]
    fn skew_shows_up_in_the_stream() {
        let g = RequestGenerator::read_only(10_000, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(g.next_request(&mut rng).key).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(
            max > 25_000,
            "most popular key should dominate at Zipf 2.0, got {max}"
        );
    }
}
