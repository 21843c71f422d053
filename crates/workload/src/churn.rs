//! Key-population churn: working sets that evolve over time.
//!
//! The paper's workloads vary in *size* (the Wikipedia trace's 25–60 GB
//! sweep); real cache populations also vary in *identity* — new content is
//! created, old content fades — which is what forces the paper's key
//! partitioner to re-mark hot keys (Section 4.2: "if certain cold data
//! becomes hot ... re-assign prefixes"), and what a measured hot-set
//! estimate has to follow. This module models identity churn: a sliding
//! window of live keys advances at a configurable rate, and the Zipfian
//! popularity ranks are assigned to positions *within* the window, so
//! today's hottest key is gone from the hot set tomorrow.

use rand::Rng;

use crate::ycsb::Request;
use crate::zipf::Zipfian;

/// Every request's value size.
const VALUE_SIZE: usize = 4 * 1024;

/// A churning Zipfian workload.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    ranks: Zipfian,
    window: u64,
    /// Keys entering (and leaving) the window per second.
    keys_per_sec: f64,
}

impl ChurnWorkload {
    /// Creates a workload over a window of `window` live keys with skew
    /// `theta`, where `churn_per_hour` is the fraction of the window
    /// replaced each hour.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (via the Zipfian constructor) or
    /// `churn_per_hour` is negative.
    pub fn new(window: u64, theta: f64, churn_per_hour: f64) -> Self {
        assert!(churn_per_hour >= 0.0, "negative churn");
        Self {
            ranks: Zipfian::new(window, theta),
            window,
            keys_per_sec: churn_per_hour * window as f64 / 3_600.0,
        }
    }

    /// The first live key id at time `t` (seconds).
    pub fn window_start(&self, t: u64) -> u64 {
        (self.keys_per_sec * t as f64) as u64
    }

    /// The key id a popularity rank maps to at time `t`.
    ///
    /// Rank 0 is pinned to the *newest* end of the window (fresh content is
    /// hot, matching content-serving workloads); deeper ranks reach further
    /// back, scrambled so the hot set is not a contiguous id range.
    pub fn key_for_rank(&self, rank: u64, t: u64) -> u64 {
        let start = self.window_start(t);
        // Scramble rank over the window, biased so low ranks sit near the
        // window's fresh end.
        let pos = mix(rank) % self.window;
        start + self.window - 1 - pos.min(self.window - 1)
    }

    /// Draws the next request at time `t`.
    pub fn next_request<R: Rng + ?Sized>(&self, rng: &mut R, t: u64) -> Request {
        let rank = self.ranks.sample(rng);
        Request {
            key: self.key_for_rank(rank, t),
            is_read: true,
            value_size: VALUE_SIZE,
        }
    }

    /// Fraction of the hot set (top `hot_ranks` ranks) whose key ids are
    /// shared between times `t0` and `t1` — the survival rate a hot-set
    /// estimate has to track.
    pub fn hot_set_overlap(&self, hot_ranks: u64, t0: u64, t1: u64) -> f64 {
        if hot_ranks == 0 {
            return 1.0;
        }
        let a: std::collections::HashSet<u64> =
            (0..hot_ranks).map(|r| self.key_for_rank(r, t0)).collect();
        let shared = (0..hot_ranks)
            .filter(|&r| a.contains(&self.key_for_rank(r, t1)))
            .count();
        shared as f64 / hot_ranks as f64
    }
}

fn mix(x: u64) -> u64 {
    let mut h = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_churn_is_static() {
        let w = ChurnWorkload::new(10_000, 0.99, 0.0);
        assert_eq!(w.window_start(0), 0);
        assert_eq!(w.window_start(1_000_000), 0);
        assert_eq!(w.key_for_rank(5, 0), w.key_for_rank(5, 1_000_000));
        assert_eq!(w.hot_set_overlap(100, 0, 1_000_000), 1.0);
    }

    #[test]
    fn churn_advances_the_window() {
        // 10% of a 36k-key window per hour = 1 key/sec.
        let w = ChurnWorkload::new(36_000, 0.99, 0.1);
        assert_eq!(w.window_start(0), 0);
        assert_eq!(w.window_start(3_600), 3_600);
        // All keys drawn at time t are inside [start, start + window).
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let k = w.next_request(&mut rng, 7_200).key;
            let start = w.window_start(7_200);
            assert!(k >= start && k < start + 36_000, "{k}");
        }
    }

    #[test]
    fn hot_set_decays_with_time() {
        let w = ChurnWorkload::new(36_000, 0.99, 0.1);
        let near = w.hot_set_overlap(200, 0, 600);
        let far = w.hot_set_overlap(200, 0, 12 * 3_600);
        assert_eq!(w.hot_set_overlap(200, 0, 0), 1.0);
        assert!(near >= far, "near {near} far {far}");
        assert!(
            far < 0.5,
            "after 12h of 10%/h churn most hot keys moved: {far}"
        );
    }

    #[test]
    fn ranks_map_to_distinct_keys() {
        let w = ChurnWorkload::new(100_000, 1.2, 0.05);
        let keys: std::collections::HashSet<u64> =
            (0..1_000).map(|r| w.key_for_rank(r, 0)).collect();
        assert!(
            keys.len() > 990,
            "{} distinct of 1000 (mix collisions)",
            keys.len()
        );
    }

    #[test]
    #[should_panic(expected = "negative churn")]
    fn negative_churn_panics() {
        ChurnWorkload::new(100, 0.9, -0.1);
    }
}
