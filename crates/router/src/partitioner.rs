//! The key partitioner: online hot/cold classification (paper Section 4.2).
//!
//! Access frequencies are tracked in a count-min sketch; keys whose
//! estimated frequency clears a threshold within the current window are
//! entered into a Bloom filter of hot keys. Periodic [`KeyPartitioner::refresh`]
//! rebuilds the filter and ages the sketch, so keys that cool down are
//! demoted and newly-popular keys are promoted — the "re-assign prefixes"
//! behaviour of the paper.

use crate::balancer::Pool;
use crate::sketch::{BloomFilter, CountMinSketch};

/// Online hot-key tracker.
#[derive(Debug, Clone)]
pub struct KeyPartitioner {
    sketch: CountMinSketch,
    hot: BloomFilter,
    /// Accesses within the window needed to call a key hot.
    threshold: u64,
    expected_keys: usize,
}

impl KeyPartitioner {
    /// Creates a partitioner sized for `expected_keys` distinct keys that
    /// calls a key hot once its windowed access count reaches `threshold`.
    pub fn new(expected_keys: usize, threshold: u64) -> Self {
        Self {
            sketch: CountMinSketch::for_keys(expected_keys),
            hot: BloomFilter::for_keys(expected_keys / 10 + 64),
            threshold: threshold.max(1),
            expected_keys,
        }
    }

    /// Records an access and promotes the key on the spot if it clears the
    /// threshold.
    pub fn observe(&mut self, key: &[u8]) {
        self.sketch.observe(key);
        if self.sketch.estimate(key) >= self.threshold && !self.hot.contains(key) {
            self.hot.insert(key);
        }
    }

    /// Whether the key is currently classified hot.
    pub fn is_hot(&self, key: &[u8]) -> bool {
        self.hot.contains(key)
    }

    /// The pool a key belongs to.
    pub fn pool(&self, key: &[u8]) -> Pool {
        if self.is_hot(key) {
            Pool::Hot
        } else {
            Pool::Cold
        }
    }

    /// Estimated windowed access count of a key.
    pub fn estimate(&self, key: &[u8]) -> u64 {
        self.sketch.estimate(key)
    }

    /// Ages the sketch and rebuilds the hot filter.
    ///
    /// The Bloom filter cannot delete, so demotion works by clearing it;
    /// still-hot keys re-qualify from their (halved) sketch counts on their
    /// next access. Callers invoke this once per control window.
    pub fn refresh(&mut self) {
        self.sketch.decay();
        self.hot = BloomFilter::for_keys(self.expected_keys / 10 + 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequent_keys_become_hot() {
        let mut p = KeyPartitioner::new(1000, 5);
        for _ in 0..5 {
            p.observe(b"popular");
        }
        p.observe(b"rare");
        assert!(p.is_hot(b"popular"));
        assert!(!p.is_hot(b"rare"));
        assert_eq!(p.pool(b"popular"), Pool::Hot);
        assert_eq!(p.pool(b"rare"), Pool::Cold);
    }

    #[test]
    fn refresh_demotes_cooled_keys() {
        let mut p = KeyPartitioner::new(1000, 8);
        for _ in 0..8 {
            p.observe(b"flash");
        }
        assert!(p.is_hot(b"flash"));
        // Two refreshes halve 8 -> 4 -> 2; one access brings it to 3 < 8.
        p.refresh();
        p.refresh();
        assert!(!p.is_hot(b"flash"));
        p.observe(b"flash");
        assert!(
            !p.is_hot(b"flash"),
            "cooled key must not re-qualify from one access"
        );
    }

    #[test]
    fn sustained_keys_survive_refresh() {
        let mut p = KeyPartitioner::new(1000, 4);
        for _ in 0..20 {
            p.observe(b"steady");
        }
        p.refresh(); // count 10 remains >= threshold
        p.observe(b"steady");
        assert!(p.is_hot(b"steady"));
    }

    #[test]
    fn skewed_stream_classifies_a_small_hot_set() {
        // 10 hot keys hammered, 1000 cold keys touched once each.
        let mut p = KeyPartitioner::new(2000, 50);
        for round in 0..100 {
            for h in 0..10u32 {
                p.observe(format!("hot{h}").as_bytes());
            }
            for c in 0..10u32 {
                p.observe(format!("cold{}", round * 10 + c).as_bytes());
            }
        }
        for h in 0..10u32 {
            assert!(p.is_hot(format!("hot{h}").as_bytes()));
        }
        let hot_cold = (0..1000u32)
            .filter(|c| p.is_hot(format!("cold{c}").as_bytes()))
            .count();
        assert!(hot_cold < 20, "{hot_cold} cold keys misclassified");
    }
}
