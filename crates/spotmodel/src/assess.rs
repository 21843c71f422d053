//! Walk-forward validation of spot feature predictors (paper Table 2).
//!
//! At every evaluation instant where the bid currently covers the market
//! price, the predictor forecasts `(L̂, p̄̂)` from history alone; the ground
//! truth `(L, p̄)` is then read from the future of the trace. Two metrics
//! aggregate the comparison:
//!
//! * **over-estimation rate** `f^s(b)` — fraction of predictions with
//!   `L̂ > L` (the tenant was overly ambitious: it planned for a longer
//!   lifetime than it got), and
//! * **relative price deviation** `ξ^s(b)` — mean of `|p̄ − p̄̂| / p̄`.
//!
//! Lower is better for both.

use spotcache_cloud::spot::{Bid, SpotTrace};
use spotcache_cloud::HOUR;

use crate::runs::residual_run;
use crate::SpotPredictor;

/// Aggregated assessment of one predictor on one `(market, bid)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Market short label (paper style, e.g. `"m4.XL-c"`).
    pub(crate) market: String,
    /// The assessed bid, $/hour.
    pub(crate) bid: f64,
    /// Predictor name.
    pub(crate) predictor: &'static str,
    /// Number of scored predictions.
    pub samples: usize,
    /// Over-estimation rate `f^s(b)`.
    pub over_estimation_rate: f64,
    /// Relative price deviation `ξ^s(b)`.
    pub price_deviation: f64,
}

/// Runs the walk-forward assessment of `predictor` on `trace` for `bid`.
///
/// Predictions are issued every `stride` seconds over `[start, end)`;
/// instants where the bid is under water (no procurement possible) and
/// instants whose ground-truth lifetime is right-censored by the trace end
/// are skipped. Returns `None` when nothing could be scored.
pub(crate) fn assess(
    predictor: &dyn SpotPredictor,
    trace: &SpotTrace,
    bid: Bid,
    start: u64,
    end: u64,
    stride: u64,
) -> Option<Assessment> {
    assert!(stride > 0, "stride must be positive");
    let mut n = 0usize;
    let mut over = 0usize;
    let mut dev_sum = 0.0f64;
    let mut t = start;
    while t < end {
        if let Some(actual) = residual_run(trace, t, bid) {
            if let Some(pred) = predictor.predict(trace, t, bid) {
                // A right-censored ground truth (the run outlives the
                // trace) still scores when the prediction is at or below
                // the observed length — that is provably not an
                // over-estimate. A prediction *above* a censored length is
                // indeterminate and skipped.
                let scoreable = !actual.censored || pred.lifetime <= actual.len as f64;
                if scoreable {
                    n += 1;
                    if pred.lifetime > actual.len as f64 {
                        over += 1;
                    }
                    if actual.avg_price > 0.0 {
                        dev_sum += (actual.avg_price - pred.avg_price).abs() / actual.avg_price;
                    }
                }
            }
        }
        t += stride;
    }
    (n > 0).then(|| Assessment {
        market: trace.market.short_label(),
        bid: bid.dollars(),
        predictor: predictor.name(),
        samples: n,
        over_estimation_rate: over as f64 / n as f64,
        price_deviation: dev_sum / n as f64,
    })
}

/// Convenience: assess with hourly prediction instants over the whole trace
/// after an initial `training` period.
pub fn assess_hourly(
    predictor: &dyn SpotPredictor,
    trace: &SpotTrace,
    bid: Bid,
    training: u64,
) -> Option<Assessment> {
    assess(
        predictor,
        trace,
        bid,
        trace.start + training,
        trace.end(),
        HOUR,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdfPredictor, TemporalPredictor};
    use spotcache_cloud::spot::MarketId;

    fn trace(prices: Vec<f64>) -> SpotTrace {
        SpotTrace::new(MarketId::new("m4.xlarge", "us-east-1c"), 0.239, prices)
    }

    /// A market that flaps: 6 cheap steps (30 min), then 6 expensive steps.
    fn flapping(cycles: usize) -> SpotTrace {
        let mut prices = Vec::new();
        for _ in 0..cycles {
            prices.extend(vec![0.05; 6]);
            prices.extend(vec![0.9; 6]);
        }
        trace(prices)
    }

    #[test]
    fn temporal_beats_cdf_on_flapping_market() {
        // Our predictor learns that runs last 30 min; the CDF baseline
        // predicts window/2 — massively over-estimating every time.
        let t = flapping(60);
        let bid = Bid(0.2);
        let training = t.duration() / 4;
        let ours = assess_hourly(&TemporalPredictor::new(training, 0.05), &t, bid, training)
            .expect("ours scored");
        let cdf =
            assess_hourly(&CdfPredictor::new(training), &t, bid, training).expect("cdf scored");
        assert!(
            ours.over_estimation_rate < 0.12,
            "ours f = {}",
            ours.over_estimation_rate
        );
        assert!(
            cdf.over_estimation_rate > 0.9,
            "cdf f = {}",
            cdf.over_estimation_rate
        );
        assert!(ours.samples > 10);
    }

    #[test]
    fn perfect_price_prediction_on_constant_prices() {
        let t = flapping(60);
        let bid = Bid(0.2);
        let training = t.duration() / 4;
        let a = assess_hourly(&TemporalPredictor::new(training, 0.05), &t, bid, training).unwrap();
        assert!(a.price_deviation < 1e-9, "ξ = {}", a.price_deviation);
    }

    #[test]
    fn underwater_instants_are_skipped() {
        // Price above bid the whole time → nothing scored.
        let t = trace(vec![0.9; 2_000]);
        let r = assess_hourly(
            &TemporalPredictor::new(300 * 100, 0.05),
            &t,
            Bid(0.1),
            300 * 100,
        );
        assert!(r.is_none());
    }

    #[test]
    fn censored_ground_truth_scores_only_safe_predictions() {
        // Cheap forever: every residual run is right-censored. Early
        // instants see a long censored remainder, so small predictions
        // score as correct; instants near the trace end have predictions
        // above the censored remainder and are skipped.
        let t = trace(vec![0.05; 2_000]);
        let r = assess_hourly(
            &TemporalPredictor::new(300 * 100, 0.05),
            &t,
            Bid(0.1),
            300 * 100,
        )
        .expect("safe censored predictions score");
        assert_eq!(r.over_estimation_rate, 0.0);
        assert!(r.samples > 0);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_panics() {
        let t = flapping(4);
        let p = TemporalPredictor::paper_default();
        let _ = assess(&p, &t, Bid(0.2), 0, t.end(), 0);
    }
}
