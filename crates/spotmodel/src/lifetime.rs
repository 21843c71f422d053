//! The `L^s(b)` lifetime model (paper Section 3.1).
//!
//! Builds the empirical distribution of *residual* below-bid lifetimes over
//! a sliding history window and predicts a conservative low percentile: if
//! the statistics of `L^s(b)` are stable over the window, a bid placed now
//! — at an arbitrary instant, not necessarily at a run boundary — survives
//! at least the predicted time with probability `1 − percentile`.
//!
//! Residual semantics matter: a bid is placed at a random instant inside
//! some below-bid run, so the distribution of the *remaining* run length is
//! the length-biased residual distribution, not the run-length distribution
//! itself. For observed run lengths `L_i`, the residual CDF is
//! `F(c) = Σ min(c, L_i) / Σ L_i`, and the model predicts the `q`-quantile
//! of that: the `c` solving `Σ min(c, L_i) = q · Σ L_i`.

use spotcache_cloud::spot::{Bid, SpotTrace};

use crate::runs::{below_bid_runs, Run};

/// Residual-lifetime percentile predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    /// Sliding history window, seconds (paper: 7 days).
    pub window: u64,
    /// Quantile of the residual-lifetime distribution to report
    /// (paper: 0.05).
    pub percentile: f64,
}

impl LifetimeModel {
    /// Creates a model; `percentile` is clamped to `[0, 1]`.
    pub fn new(window: u64, percentile: f64) -> Self {
        Self {
            window,
            percentile: percentile.clamp(0.0, 1.0),
        }
    }

    /// Predicts the residual lifetime (seconds) of a `bid` placed at `now`,
    /// from history in `[now - window, now)`.
    ///
    /// Returns `None` when the window contains no below-bid run at all.
    pub fn predict(&self, trace: &SpotTrace, now: u64, bid: Bid) -> Option<f64> {
        let from = now.saturating_sub(self.window);
        self.predict_from_runs(&below_bid_runs(trace, from, now, bid))
    }

    /// [`Self::predict`] over the window's already-extracted `runs`.
    ///
    /// Censored runs (cut by the window edges) are included at their
    /// observed length: they under-state true run lengths, which only makes
    /// the low-percentile prediction more conservative.
    pub(crate) fn predict_from_runs(&self, runs: &[Run]) -> Option<f64> {
        if runs.is_empty() {
            return None;
        }
        let lens: Vec<f64> = runs.iter().map(|r| r.len as f64).collect();
        Some(residual_quantile(&lens, self.percentile))
    }

    /// Number of distinct below-bid runs in the current window (useful as a
    /// stability signal: many short runs = flapping market).
    pub fn run_count(&self, trace: &SpotTrace, now: u64, bid: Bid) -> usize {
        let from = now.saturating_sub(self.window);
        below_bid_runs(trace, from, now, bid).len()
    }
}

/// The `q`-quantile of the residual distribution induced by run lengths:
/// the `c` with `Σ min(c, L_i) = q · Σ L_i`.
///
/// # Panics
///
/// Panics if `lens` is empty.
pub(crate) fn residual_quantile(lens: &[f64], q: f64) -> f64 {
    assert!(!lens.is_empty(), "residual quantile of empty slice");
    let total: f64 = lens.iter().sum();
    let target = q.clamp(0.0, 1.0) * total;
    let mut sorted = lens.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Walk c upward across the sorted lengths: on the segment where exactly
    // `alive` runs still exceed c, Σ min(c, L_i) grows at slope `alive`.
    let n = sorted.len();
    let mut acc = 0.0; // Σ min(c, L_i) at c = prev
    let mut prev = 0.0;
    for (i, &l) in sorted.iter().enumerate() {
        let alive = (n - i) as f64;
        let seg_end_acc = acc + alive * (l - prev);
        if seg_end_acc >= target {
            return prev + (target - acc) / alive;
        }
        acc = seg_end_acc;
        prev = l;
    }
    sorted[n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::spot::MarketId;

    fn trace(prices: Vec<f64>) -> SpotTrace {
        SpotTrace::new(MarketId::new("m4.xlarge", "us-east-1c"), 0.239, prices)
    }

    #[test]
    fn residual_quantile_single_run_is_linear() {
        // One run of length L: residual uniform on [0, L]; q-quantile = qL.
        assert!((residual_quantile(&[1000.0], 0.05) - 50.0).abs() < 1e-9);
        assert!((residual_quantile(&[1000.0], 0.5) - 500.0).abs() < 1e-9);
        assert_eq!(residual_quantile(&[1000.0], 1.0), 1000.0);
    }

    #[test]
    fn residual_quantile_mixed_runs() {
        // Runs 100 and 900: total 1000. F(c) = (min(c,100)+min(c,900))/1000.
        // q=0.5 → target 500: for c<=100 slope 2 → at c=100 acc=200; then
        // slope 1 → c = 100 + 300 = 400.
        assert!((residual_quantile(&[100.0, 900.0], 0.5) - 400.0).abs() < 1e-9);
        // q=0.1 → target 100 → c = 50 (slope-2 segment).
        assert!((residual_quantile(&[100.0, 900.0], 0.1) - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn residual_quantile_empty_panics() {
        residual_quantile(&[], 0.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// The residual quantile is monotone non-decreasing in `q`,
        /// bounded by the longest run, and hits the exact endpoints
        /// (0 at q=0, max run length at q=1).
        #[test]
        fn residual_quantile_monotone_in_q(
            lens in proptest::collection::vec(0.5f64..5e4, 1..40),
            qs in proptest::collection::vec(0.0f64..=1.0, 2..12),
        ) {
            use proptest::prelude::*;
            let longest = lens.iter().cloned().fold(0.0f64, f64::max);
            let mut sorted_q = qs;
            sorted_q.sort_by(f64::total_cmp);
            let mut prev = residual_quantile(&lens, sorted_q[0]);
            for &q in &sorted_q[1..] {
                let c = residual_quantile(&lens, q);
                prop_assert!(
                    c + 1e-9 >= prev,
                    "quantile regressed: q={q} gave {c} < {prev}"
                );
                prop_assert!(c <= longest + 1e-9, "{c} exceeds longest run {longest}");
                prev = c;
            }
            prop_assert!(residual_quantile(&lens, 0.0).abs() < 1e-9);
            prop_assert!((residual_quantile(&lens, 1.0) - longest).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_runs_predict_percentile_of_residual() {
        let mut prices = Vec::new();
        for _ in 0..30 {
            prices.extend([0.05, 0.05, 0.05, 0.9]); // 3-step (900 s) runs
        }
        let t = trace(prices);
        let m = LifetimeModel::new(t.duration(), 0.05);
        // Residual 5th percentile of identical 900 s runs = 45 s.
        let pred = m.predict(&t, t.end(), Bid(0.1)).unwrap();
        assert!((pred - 45.0).abs() < 1e-9, "{pred}");
    }

    #[test]
    fn percentile_is_conservative_with_mixed_runs() {
        // 9 short (1-step) runs and 1 long (20-step) run.
        let mut prices = Vec::new();
        for _ in 0..9 {
            prices.extend([0.05, 0.9]);
        }
        prices.extend(vec![0.05; 20]);
        prices.push(0.9);
        let t = trace(prices);
        let low = LifetimeModel::new(t.duration(), 0.05);
        let high = LifetimeModel::new(t.duration(), 1.0);
        let lo = low.predict(&t, t.end(), Bid(0.1)).unwrap();
        let hi = high.predict(&t, t.end(), Bid(0.1)).unwrap();
        assert!(lo < hi);
        assert_eq!(hi, 6_000.0); // the longest run
        assert!(lo <= 300.0, "conservative prediction, got {lo}");
    }

    #[test]
    fn no_signal_yields_none() {
        let t = trace(vec![0.9; 100]);
        let m = LifetimeModel::new(t.duration(), 0.05);
        assert!(m.predict(&t, t.end(), Bid(0.1)).is_none());
    }

    #[test]
    fn whole_window_below_bid_predicts_fraction_of_window() {
        let t = trace(vec![0.05; 288]);
        let m = LifetimeModel::new(t.duration(), 0.05);
        let pred = m.predict(&t, t.end(), Bid(0.1)).unwrap();
        assert!((pred - 0.05 * t.duration() as f64).abs() < 1e-6);
    }

    #[test]
    fn window_limits_history() {
        // Old history: flapping. Recent window: rock solid.
        let mut prices = Vec::new();
        for _ in 0..50 {
            prices.extend([0.05, 0.9]);
        }
        prices.extend(vec![0.05; 100]);
        let t = trace(prices);
        let m = LifetimeModel::new(100 * 300, 0.05);
        let pred = m.predict(&t, t.end(), Bid(0.1)).unwrap();
        assert!((pred - 0.05 * 100.0 * 300.0).abs() < 1e-6);
    }

    #[test]
    fn flapping_market_predicts_much_shorter_than_calm() {
        let mut flap = Vec::new();
        for _ in 0..50 {
            flap.extend([0.05, 0.9]);
        }
        let calm = vec![0.05; 100];
        let m = LifetimeModel::new(100 * 300, 0.05);
        let tf = trace(flap);
        let tc = trace(calm);
        let pf = m.predict(&tf, tf.end(), Bid(0.1)).unwrap();
        let pc = m.predict(&tc, tc.end(), Bid(0.1)).unwrap();
        assert!(pc > 10.0 * pf, "calm {pc} vs flapping {pf}");
    }

    #[test]
    fn run_count_reflects_flapping() {
        let mut prices = Vec::new();
        for _ in 0..10 {
            prices.extend([0.05, 0.9]);
        }
        let t = trace(prices);
        let m = LifetimeModel::new(t.duration(), 0.05);
        assert_eq!(m.run_count(&t, t.end(), Bid(0.1)), 10);
    }
}
