//! Time-of-day-conditioned lifetime prediction (the paper's footnote-1
//! extension).
//!
//! The base model ignores *when* a bid is placed; the paper notes the
//! lifetime "could depend intimately on the time when a bid is placed" and
//! that the fix is "conceptually simple ... carry out our analysis
//! separately for each hour of the day (or another appropriate time
//! duration)". Spot markets do have diurnal structure (daytime demand
//! spikes), so a bid placed at 14:00 faces different odds than one at
//! 03:00.
//!
//! [`DiurnalLifetimeModel`] partitions the day into `buckets` equal slices
//! and builds a separate residual-lifetime distribution per slice, keyed by
//! the *prediction instant's* slice; samples come from run segments that
//! overlap the slice, weighted by the overlap (a run contributes residual
//! mass exactly where one could be standing inside it). Slices with too few
//! samples fall back to the unconditioned model.

use spotcache_cloud::spot::{Bid, SpotTrace};
use spotcache_cloud::DAY;

use crate::lifetime::LifetimeModel;
use crate::runs::below_bid_runs;

/// Hour-of-day-conditioned residual-lifetime predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalLifetimeModel {
    /// The unconditioned model (window, percentile, fallback).
    pub(crate) base: LifetimeModel,
    /// Number of equal time-of-day buckets (e.g. 24 for hourly).
    pub(crate) buckets: u32,
    /// Minimum per-bucket run segments before conditioning is trusted.
    pub(crate) min_samples: usize,
}

impl DiurnalLifetimeModel {
    /// Creates a model with `buckets` time-of-day slices.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or does not divide a day evenly.
    pub fn new(base: LifetimeModel, buckets: u32) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert_eq!(DAY % buckets as u64, 0, "buckets must divide the day");
        Self {
            base,
            buckets,
            min_samples: 6,
        }
    }

    /// The bucket index of a timestamp.
    pub(crate) fn bucket_of(&self, t: u64) -> u32 {
        ((t % DAY) / (DAY / self.buckets as u64)) as u32
    }

    /// Predicts the residual lifetime (seconds) of a `bid` placed at `now`,
    /// conditioned on `now`'s time of day; falls back to the unconditioned
    /// model when the bucket is data-poor.
    pub fn predict(&self, trace: &SpotTrace, now: u64, bid: Bid) -> Option<f64> {
        let from = now.saturating_sub(self.base.window);
        let runs = below_bid_runs(trace, from, now, bid);
        if runs.is_empty() {
            return None;
        }
        let bucket = self.bucket_of(now);
        let bucket_len = DAY / self.buckets as u64;
        // Collect residual lifetimes for standing points inside this
        // bucket: for each run, for each sample position within the run
        // that falls in the bucket, the residual is run.end - position.
        // Sampling positions at the trace step keeps this exact and cheap.
        let step = trace.step.max(1);
        let mut residuals: Vec<f64> = Vec::new();
        for r in &runs {
            let mut t = r.start;
            while t < r.end() {
                if (t % DAY) / bucket_len == bucket as u64 {
                    residuals.push((r.end() - t) as f64);
                }
                t += step;
            }
        }
        if residuals.len() < self.min_samples {
            return self.base.predict(trace, now, bid);
        }
        residuals.sort_by(f64::total_cmp);
        let pos = self.base.percentile * (residuals.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(residuals[lo] * (1.0 - frac) + residuals[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::spot::MarketId;
    use spotcache_cloud::HOUR;

    /// A market that spikes every day from 12:00 to 18:00 and is cheap the
    /// other 18 hours, for `days` days.
    fn diurnal_trace(days: u64) -> SpotTrace {
        let step = 300;
        let steps = (days * DAY / step) as usize;
        let prices: Vec<f64> = (0..steps)
            .map(|i| {
                let tod = (i as u64 * step) % DAY;
                if (12 * HOUR..18 * HOUR).contains(&tod) {
                    0.9
                } else {
                    0.05
                }
            })
            .collect();
        SpotTrace::new(MarketId::new("m4.large", "us-east-1d"), 0.12, prices)
    }

    fn model() -> DiurnalLifetimeModel {
        DiurnalLifetimeModel::new(LifetimeModel::new(7 * DAY, 0.05), 24)
    }

    #[test]
    fn bucket_arithmetic() {
        let m = model();
        assert_eq!(m.bucket_of(0), 0);
        assert_eq!(m.bucket_of(HOUR - 1), 0);
        assert_eq!(m.bucket_of(13 * HOUR), 13);
        assert_eq!(m.bucket_of(DAY + 5 * HOUR), 5);
    }

    #[test]
    fn morning_bids_predict_longer_than_pre_spike_bids() {
        // Bid at 19:00: the next spike is 17 h away. Bid at 10:00: the
        // spike hits in 2 h. Conditioned predictions must reflect that;
        // the unconditioned model gives both the same number.
        let t = diurnal_trace(14);
        let m = model();
        let bid = Bid(0.12);
        let evening = m.predict(&t, 10 * DAY + 19 * HOUR, bid).unwrap();
        let late_morning = m.predict(&t, 10 * DAY + 10 * HOUR, bid).unwrap();
        assert!(
            evening > 3.0 * late_morning,
            "evening {evening} vs late morning {late_morning}"
        );
        let base = m.base.predict(&t, 10 * DAY + 19 * HOUR, bid).unwrap();
        let base2 = m.base.predict(&t, 10 * DAY + 10 * HOUR, bid).unwrap();
        assert!(
            (base - base2).abs() < 1e-9,
            "unconditioned model is blind to time of day"
        );
    }

    #[test]
    fn conditioned_prediction_is_roughly_time_to_spike() {
        let t = diurnal_trace(14);
        let m = model();
        // Standing anywhere in the 10:00-11:00 bucket, the spike at 12:00
        // leaves a residual of 1-2 h; the 5th percentile sits just above
        // the 1 h floor.
        let pred = m.predict(&t, 10 * DAY + 10 * HOUR, Bid(0.12)).unwrap();
        assert!(
            (1.0 * HOUR as f64..1.4 * HOUR as f64).contains(&pred),
            "{pred}"
        );
    }

    #[test]
    fn sparse_buckets_fall_back_to_base() {
        // One-day window over a market that is above the bid during this
        // bucket on most days: few standing points → fallback.
        let t = diurnal_trace(14);
        let mut m = model();
        m.min_samples = usize::MAX; // force fallback
        let bid = Bid(0.12);
        let now = 10 * DAY + 19 * HOUR;
        assert_eq!(m.predict(&t, now, bid), m.base.predict(&t, now, bid));
    }

    #[test]
    fn no_signal_yields_none() {
        let t = diurnal_trace(14);
        let m = model();
        assert!(m.predict(&t, 10 * DAY, Bid(0.01)).is_none());
    }

    #[test]
    #[should_panic(expected = "divide the day")]
    fn uneven_buckets_panic() {
        DiurnalLifetimeModel::new(LifetimeModel::new(DAY, 0.05), 7);
    }
}
