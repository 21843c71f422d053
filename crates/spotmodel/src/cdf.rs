//! The CDF-of-prices baseline predictor (the paper's `OD+Spot_CDF`).
//!
//! Most prior work (paper Section 2.3 and 6) predicts spot behaviour from
//! the empirical cumulative distribution of historical prices:
//!
//! * `L̂^s(b) = H · P(p ≤ b)` — the history length scaled by the fraction of
//!   time the price was at or below the bid, and
//! * `p̄̂^s(b) = E[p | p ≤ b]` — the mean of below-bid samples.
//!
//! This treats availability as if it were spread uniformly over time and
//! discards all information about the *continuity* of below-bid periods:
//! a market that is below the bid 90% of the time in one solid block and a
//! market that flaps every ten minutes get the same prediction, even though
//! a spot instance lives ~45 days in the first and ~10 minutes in the
//! second.

use spotcache_cloud::spot::{Bid, SpotTrace};

use crate::{SpotFeatures, SpotPredictor};

/// The CDF-based baseline predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPredictor {
    /// History window `H`, seconds (paper: 7 days).
    pub(crate) window: u64,
}

impl CdfPredictor {
    /// Creates the paper-default baseline: 7-day window.
    pub fn paper_default() -> Self {
        Self {
            window: 7 * spotcache_cloud::DAY,
        }
    }

    /// Creates a baseline with a custom window.
    pub fn new(window: u64) -> Self {
        Self { window }
    }
}

impl SpotPredictor for CdfPredictor {
    fn predict(&self, trace: &SpotTrace, now: u64, bid: Bid) -> Option<SpotFeatures> {
        let from = now.saturating_sub(self.window);
        let (mut n, mut below, mut below_sum) = (0usize, 0usize, 0.0f64);
        for (_, p) in trace.samples(from, now) {
            n += 1;
            if bid.covers(p) {
                below += 1;
                below_sum += p;
            }
        }
        if n == 0 || below == 0 {
            return None;
        }
        let prob = below as f64 / n as f64;
        Some(SpotFeatures {
            lifetime: self.window as f64 * prob,
            avg_price: below_sum / below as f64,
        })
    }

    fn name(&self) -> &'static str {
        "cdf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::spot::MarketId;

    fn trace(prices: Vec<f64>) -> SpotTrace {
        SpotTrace::new(MarketId::new("m4.xlarge", "us-east-1c"), 0.239, prices)
    }

    #[test]
    fn lifetime_is_window_times_probability() {
        // Half the samples below the bid.
        let t = trace(vec![0.05, 0.9, 0.05, 0.9]);
        let m = CdfPredictor::new(t.duration());
        let f = m.predict(&t, t.end(), Bid(0.1)).unwrap();
        assert!((f.lifetime - 0.5 * t.duration() as f64).abs() < 1e-9);
        assert!((f.avg_price - 0.05).abs() < 1e-12);
        assert_eq!(m.name(), "cdf");
    }

    #[test]
    fn blind_to_continuity() {
        // The baseline's defining flaw: a flapping market and a
        // solid-block market with equal availability predict identically.
        let flap: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.05 } else { 0.9 })
            .collect();
        let mut block = vec![0.05; 50];
        block.extend(vec![0.9; 50]);
        let (tf, tb) = (trace(flap), trace(block));
        let m = CdfPredictor::new(tf.duration());
        let ff = m.predict(&tf, tf.end(), Bid(0.1)).unwrap();
        let fb = m.predict(&tb, tb.end(), Bid(0.1)).unwrap();
        assert!((ff.lifetime - fb.lifetime).abs() < 1e-9);
        assert!((ff.avg_price - fb.avg_price).abs() < 1e-9);
    }

    #[test]
    fn no_below_bid_samples_yields_none() {
        let t = trace(vec![0.9; 10]);
        assert!(CdfPredictor::new(t.duration())
            .predict(&t, t.end(), Bid(0.1))
            .is_none());
    }

    #[test]
    fn empty_window_yields_none() {
        let t = trace(vec![0.05; 10]);
        assert!(CdfPredictor::new(300).predict(&t, 0, Bid(0.1)).is_none());
    }
}
