#![warn(missing_docs)]

//! Spot feature modeling (paper Section 3.1).
//!
//! A tenant deciding whether to bid `b` in market `s` needs two quantities:
//!
//! * `L^s(b)` — the length of a *contiguous* period during which the spot
//!   price stays at or below `b` (an upper bound on the lifetime of an
//!   instance procured with that bid), and
//! * `p̄^s(b)` — the average spot price over such a period (an estimate of
//!   what the instance will actually cost).
//!
//! The paper's predictor ([`lifetime::LifetimeModel`], [`price::AvgPriceModel`],
//! combined in [`TemporalPredictor`]) builds the empirical distribution of
//! these per-run quantities over a sliding history window and predicts a
//! conservative low percentile of lifetime and the mean per-run price. The
//! commonly used baseline ([`cdf::CdfPredictor`]) instead uses the plain CDF
//! of historical prices — which discards run-continuity information and is
//! shown (paper Table 2, Figure 8) to over-estimate lifetimes badly in
//! spiky markets.
//!
//! [`mod@assess`] implements the paper's walk-forward validation producing the
//! over-estimation rate `f^s(b)` and relative price deviation `ξ^s(b)` of
//! Table 2, and `arima` the AR(2) workload predictors the optimizer
//! consumes.

mod arima;
pub mod assess;
mod cdf;
pub mod diurnal;
pub mod lifetime;
mod price;
pub mod runs;

pub use arima::Ar2;
pub use cdf::CdfPredictor;
pub(crate) use lifetime::LifetimeModel;
pub use price::AvgPriceModel;
pub use runs::below_bid_runs;

use spotcache_cloud::spot::{Bid, SpotTrace};

/// A prediction of spot features for one `(market, bid)` at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotFeatures {
    /// Predicted residual lifetime `L̂^s(b)`, seconds.
    pub lifetime: f64,
    /// Predicted average price during that lifetime `p̄̂^s(b)`, $/hour.
    pub avg_price: f64,
}

/// A spot feature predictor: given history up to `now`, predict lifetime and
/// average price for a bid.
pub trait SpotPredictor {
    /// Predicts `(L̂, p̄̂)` for `bid` in `trace`'s market using only samples
    /// strictly before `now`.
    ///
    /// Returns `None` when the history window contains no usable signal
    /// (e.g. the price never dropped below the bid).
    fn predict(&self, trace: &SpotTrace, now: u64, bid: Bid) -> Option<SpotFeatures>;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's temporal-locality predictor: conservative lifetime percentile
/// plus mean per-run price, both over one sliding window.
#[derive(Debug, Clone, Copy)]
pub struct TemporalPredictor {
    /// Lifetime model (percentile of the per-run length distribution).
    pub(crate) lifetime: LifetimeModel,
    /// Average-price model (mean of per-run average prices), over the
    /// lifetime model's window.
    pub(crate) price: AvgPriceModel,
}

impl TemporalPredictor {
    /// Creates the paper-default predictor: 7-day window, 5th percentile.
    pub fn paper_default() -> Self {
        Self::new(7 * spotcache_cloud::DAY, 0.05)
    }

    /// Creates a predictor with a custom window and lifetime percentile.
    pub fn new(window: u64, percentile: f64) -> Self {
        Self {
            lifetime: LifetimeModel::new(window, percentile),
            price: AvgPriceModel::new(window),
        }
    }
}

impl SpotPredictor for TemporalPredictor {
    fn predict(&self, trace: &SpotTrace, now: u64, bid: Bid) -> Option<SpotFeatures> {
        // Both models read the same below-bid runs: extract them once.
        let from = now.saturating_sub(self.lifetime.window);
        let runs = below_bid_runs(trace, from, now, bid);
        let lifetime = self.lifetime.predict_from_runs(&runs)?;
        let avg_price = self.price.predict_from_runs(&runs, now)?;
        Some(SpotFeatures {
            lifetime,
            avg_price,
        })
    }

    fn name(&self) -> &'static str {
        "temporal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::spot::MarketId;

    fn trace(prices: Vec<f64>) -> SpotTrace {
        SpotTrace::new(MarketId::new("m4.large", "us-east-1d"), 0.12, prices)
    }

    #[test]
    fn temporal_predictor_combines_both_models() {
        // Alternate 4 cheap / 2 expensive steps.
        let mut prices = Vec::new();
        for _ in 0..50 {
            prices.extend([0.03, 0.03, 0.03, 0.03, 0.5, 0.5]);
        }
        let t = trace(prices);
        let p = TemporalPredictor::new(20 * 300 * 6, 0.05);
        let f = p.predict(&t, t.end(), Bid(0.1)).unwrap();
        // Every completed run is exactly 4 steps = 1200 s; the residual
        // 5th percentile of identical runs is 5% of the run length.
        assert!((f.lifetime - 60.0).abs() < 1e-9, "{}", f.lifetime);
        assert!((f.avg_price - 0.03).abs() < 1e-9);
        assert_eq!(p.name(), "temporal");
    }

    #[test]
    fn predictor_returns_none_without_signal() {
        let t = trace(vec![0.5; 100]);
        let p = TemporalPredictor::paper_default();
        assert!(p.predict(&t, t.end(), Bid(0.1)).is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 128, ..Default::default() })]

        /// Extracting the runs once changes nothing: the combined
        /// predictor equals the two models called on their own, to the bit,
        /// with or without a signal.
        #[test]
        fn temporal_predictor_equals_its_two_models(
            prices in proptest::collection::vec(0.01f64..0.6, 1..300),
            (bid_kind, bid_price) in (0usize..4, 0.01f64..0.7),
            window in 1u64..100_000,
            percentile in 0.0f64..=1.0,
            now_frac in 0.0f64..1.2,
        ) {
            use proptest::prelude::*;
            let t = trace(prices);
            let now = t.start + (now_frac * t.duration() as f64) as u64;
            // A quarter of the bids sit below every price: no run, no signal.
            let bid = Bid(if bid_kind == 0 { 0.001 } else { bid_price });
            let p = TemporalPredictor::new(window, percentile);
            let apart = p
                .lifetime
                .predict(&t, now, bid)
                .zip(p.price.predict(&t, now, bid))
                .map(|(l, a)| (l.to_bits(), a.to_bits()));
            let together = p
                .predict(&t, now, bid)
                .map(|f| (f.lifetime.to_bits(), f.avg_price.to_bits()));
            prop_assert_eq!(together, apart);
        }

        /// Nothing a predictor reads depends on the trace's epoch: the same
        /// prices starting at `S` instead of 0 — `S` on the step grid or
        /// off it, as `cloud::tracefile` produces — give the same runs and
        /// the same predictions at `now + S`, to the bit.
        #[test]
        fn predictions_do_not_depend_on_the_trace_epoch(
            prices in proptest::collection::vec(0.01f64..0.6, 1..300),
            step in 1u64..=700,
            (shift_steps, shift_off) in (1u64..5_000, 0u64..700),
            aligned in proptest::arbitrary::any::<bool>(),
            bid in 0.01f64..0.7,
            (window_frac, percentile) in (0.0f64..1.5, 0.0f64..=1.0),
            (from_frac, now_frac) in (0.0f64..1.2, 0.0f64..1.2),
        ) {
            use proptest::prelude::*;
            let mut t = trace(prices);
            t.step = step;
            let shift = shift_steps * step + if aligned { 0 } else { shift_off % step };
            let mut shifted = t.clone();
            shifted.start = shift;
            let bid = Bid(bid);
            let at = |frac: f64| (frac * t.duration() as f64) as u64;
            let (from, now) = (at(from_frac), at(now_frac));
            let window = at(window_frac).max(1);

            let runs = |tr: &SpotTrace, by: u64| -> Vec<_> {
                below_bid_runs(tr, from + by, now + by, bid)
                    .iter()
                    .map(|r| (r.start - by, r.len, r.avg_price.to_bits(), r.censored))
                    .collect()
            };
            prop_assert_eq!(runs(&shifted, shift), runs(&t, 0));

            let temporal = TemporalPredictor::new(window, percentile);
            let cdf = CdfPredictor::new(window);
            for p in [&temporal as &dyn SpotPredictor, &cdf] {
                let bits = |tr: &SpotTrace, by: u64| {
                    p.predict(tr, now + by, bid)
                        .map(|f| (f.lifetime.to_bits(), f.avg_price.to_bits()))
                };
                prop_assert_eq!(bits(&shifted, shift), bits(&t, 0), "{}", p.name());
            }
        }
    }
}
