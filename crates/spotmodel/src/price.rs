//! The `p̄^s(b)` average-price-during-lifetime model (paper Section 3.1).
//!
//! `p̄^s(b)` is the mean spot price over a contiguous below-bid run — what a
//! spot instance procured with bid `b` actually pays. The predictor is a
//! *recency-weighted, length-weighted* mean of the per-run averages in the
//! sliding window: length-weighting because long runs dominate what an
//! instance will actually experience, and recency-weighting because the
//! paper's whole premise is temporal locality — the quiet-regime price
//! drifts over days, and the next run will look like the latest runs, not
//! like the window average.

use spotcache_cloud::spot::{Bid, SpotTrace};

use crate::runs::{below_bid_runs, Run};

/// Recency- and length-weighted per-run average-price predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgPriceModel {
    /// Sliding history window, seconds (paper: 7 days).
    pub(crate) window: u64,
    /// Exponential recency half-life, seconds (default: window / 4).
    pub(crate) half_life: u64,
}

impl AvgPriceModel {
    /// Creates a model with the default half-life of a quarter window.
    pub fn new(window: u64) -> Self {
        Self {
            window,
            half_life: (window / 4).max(1),
        }
    }

    /// Overrides the recency half-life.
    #[cfg(test)]
    fn with_half_life(mut self, half_life: u64) -> Self {
        self.half_life = half_life.max(1);
        self
    }

    /// Predicts the average hourly price a `bid` placed at `now` will pay,
    /// from history in `[now - window, now)`.
    ///
    /// Returns `None` when the window contains no below-bid run.
    pub fn predict(&self, trace: &SpotTrace, now: u64, bid: Bid) -> Option<f64> {
        let from = now.saturating_sub(self.window);
        self.predict_from_runs(&below_bid_runs(trace, from, now, bid), now)
    }

    /// [`Self::predict`] over the window's already-extracted `runs`.
    pub(crate) fn predict_from_runs(&self, runs: &[Run], now: u64) -> Option<f64> {
        if runs.is_empty() {
            return None;
        }
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for r in runs {
            let age = now.saturating_sub(r.end()) as f64;
            let w = 0.5f64.powf(age / self.half_life as f64) * r.len as f64;
            num += w * r.avg_price;
            den += w;
        }
        (den > 0.0).then(|| num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::spot::MarketId;

    fn trace(prices: Vec<f64>) -> SpotTrace {
        SpotTrace::new(MarketId::new("m4.large", "us-east-1c"), 0.12, prices)
    }

    #[test]
    fn single_run_predicts_its_average() {
        let t = trace(vec![0.02, 0.04, 0.9]);
        let m = AvgPriceModel::new(t.duration());
        let pred = m.predict(&t, t.end(), Bid(0.2)).unwrap();
        assert!((pred - 0.03).abs() < 1e-12, "{pred}");
    }

    #[test]
    fn length_weighting_favors_long_runs() {
        // Long cheap run (4 samples at 0.02), short expensive run (1 at
        // 0.10), adjacent in time: length-weighting pulls toward 0.02.
        let t = trace(vec![0.02, 0.02, 0.02, 0.02, 0.9, 0.10, 0.9]);
        let m = AvgPriceModel::new(t.duration()).with_half_life(u64::MAX / 4);
        let pred = m.predict(&t, t.end(), Bid(0.2)).unwrap();
        assert!((pred - 0.036).abs() < 1e-9, "{pred}");
    }

    #[test]
    fn recency_weighting_tracks_drift() {
        // Old runs at 0.10, recent runs at 0.02: prediction must land much
        // closer to the recent level.
        let mut prices = Vec::new();
        for _ in 0..20 {
            prices.extend([0.10, 0.10, 0.9]);
        }
        for _ in 0..20 {
            prices.extend([0.02, 0.02, 0.9]);
        }
        let t = trace(prices);
        let m = AvgPriceModel::new(t.duration());
        let pred = m.predict(&t, t.end(), Bid(0.2)).unwrap();
        assert!(pred < 0.04, "{pred}");
    }

    #[test]
    fn no_runs_yields_none() {
        let t = trace(vec![0.9; 10]);
        assert!(AvgPriceModel::new(t.duration())
            .predict(&t, t.end(), Bid(0.2))
            .is_none());
    }

    #[test]
    fn prediction_never_exceeds_bid() {
        // By construction every run sample is <= bid, so any weighted mean
        // is too.
        let t = trace(vec![0.05, 0.19, 0.9, 0.12, 0.03, 0.9, 0.2]);
        let m = AvgPriceModel::new(t.duration());
        let pred = m.predict(&t, t.end(), Bid(0.2)).unwrap();
        assert!(pred <= 0.2 + 1e-12);
    }

    #[test]
    fn window_excludes_stale_runs() {
        let mut prices = vec![0.2; 10];
        prices.push(0.9);
        prices.extend(vec![0.02; 20]);
        let t = trace(prices);
        let m = AvgPriceModel::new(20 * 300);
        let pred = m.predict(&t, t.end(), Bid(0.3)).unwrap();
        assert!((pred - 0.02).abs() < 1e-12, "{pred}");
    }
}
