//! Spot markets: identifiers, bids, and price traces.
//!
//! A *market* is an (instance type, availability zone) pair — each such pair
//! has its own independent price series on EC2. A tenant participates by
//! placing a *bid*: while the market price stays at or below the bid the
//! instance runs and is billed at the market price; the moment the price
//! exceeds the bid the instance is revoked (with a 2-minute warning).

use std::fmt;

use crate::TRACE_STEP;

/// Identifies one spot market: an instance type in an availability zone.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MarketId {
    /// EC2 instance type name, e.g. `"m4.xlarge"`.
    pub instance_type: String,
    /// Availability zone suffix, e.g. `"us-east-1c"`.
    pub zone: String,
}

impl MarketId {
    /// Creates a market id.
    pub fn new(instance_type: impl Into<String>, zone: impl Into<String>) -> Self {
        Self {
            instance_type: instance_type.into(),
            zone: zone.into(),
        }
    }

    /// Short display label in the paper's style, e.g. `"m4.XL-c"`.
    pub fn short_label(&self) -> String {
        let size = self
            .instance_type
            .split('.')
            .nth(1)
            .unwrap_or(&self.instance_type);
        let size = match size {
            "large" => "L",
            "xlarge" => "XL",
            "2xlarge" => "2XL",
            other => other,
        };
        let family = self.instance_type.split('.').next().unwrap_or("");
        let zone_letter = self.zone.chars().last().unwrap_or('?');
        format!("{family}.{size}-{zone_letter}")
    }
}

impl fmt::Display for MarketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.instance_type, self.zone)
    }
}

/// A bid, stored as an absolute hourly dollar price.
///
/// The paper expresses bids as multiples of the on-demand price `d`
/// (e.g. `0.5d`, `1d`, `5d`); [`Bid::times_od`] builds those.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bid(pub f64);

impl Bid {
    /// A bid of `k` times the on-demand price `od`.
    pub fn times_od(k: f64, od: f64) -> Self {
        Bid(k * od)
    }

    /// The absolute dollar value of the bid.
    pub fn dollars(&self) -> f64 {
        self.0
    }

    /// Whether this bid survives a given market price.
    pub fn covers(&self, price: f64) -> bool {
        price <= self.0 + 1e-12
    }
}

/// An evenly-sampled spot price trace for one market.
///
/// Sample `i` carries the timestamp `start + i * step`, and a read over
/// `[from, to)` — [`samples`](Self::samples), [`prices_in`](Self::prices_in),
/// [`mean_price`](Self::mean_price), [`availability`](Self::availability),
/// [`first_failure_in`](Self::first_failure_in) — sees exactly the samples
/// whose timestamp lies in that half-open interval, in trace order. The
/// window's two indices come from arithmetic on `start` and `step`, so a read
/// costs O(samples in the window) and never O(trace): an hour slot's 7-day
/// look-back touches 2 016 of a 90-day trace's 25 920 samples, its billing
/// look-ahead 12. `prices_in` hands out that window as a slice plus the
/// first sample's timestamp, for scans that index it directly (the planner's
/// below-bid run scan). [`next_failure`](Self::next_failure) is open-ended
/// and stops at the first exceedance; [`price_at`](Self::price_at) is O(1).
/// `step` must be at least 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotTrace {
    /// The market this trace belongs to.
    pub market: MarketId,
    /// Timestamp (seconds) of the first sample.
    pub start: u64,
    /// Sample interval in seconds.
    pub step: u64,
    /// Price samples, dollars per hour.
    pub prices: Vec<f64>,
    /// The market's on-demand reference price (the `d` bids are scaled by).
    pub od_price: f64,
}

impl SpotTrace {
    /// Builds a trace from raw samples at the default 5-minute resolution.
    pub fn new(market: MarketId, od_price: f64, prices: Vec<f64>) -> Self {
        Self {
            market,
            start: 0,
            step: TRACE_STEP,
            prices,
            od_price,
        }
    }

    /// Duration covered by the trace, in seconds.
    pub fn duration(&self) -> u64 {
        self.prices.len() as u64 * self.step
    }

    /// Timestamp one past the last sample's interval.
    pub fn end(&self) -> u64 {
        self.start + self.duration()
    }

    /// The price in effect at time `t` (zero-order hold). Clamps to the
    /// first/last sample outside the covered range; returns `None` for an
    /// empty trace.
    pub fn price_at(&self, t: u64) -> Option<f64> {
        if self.prices.is_empty() {
            return None;
        }
        let idx = if t <= self.start {
            0
        } else {
            (((t - self.start) / self.step) as usize).min(self.prices.len() - 1)
        };
        Some(self.prices[idx])
    }

    /// The samples whose timestamp lies in `[from, to)`: the index of the
    /// first one, and their prices. Two divisions, no scan.
    fn window(&self, from: u64, to: u64) -> (usize, &[f64]) {
        // Smallest `i` with `start + i * step >= t`, clamped to the length.
        // `div_ceil` does not add `step - 1` to its dividend, so
        // `t = u64::MAX` cannot wrap.
        let index = |t: u64| {
            if t <= self.start {
                0
            } else {
                (t - self.start)
                    .div_ceil(self.step)
                    .min(self.prices.len() as u64) as usize
            }
        };
        let first = index(from);
        (first, &self.prices[first..index(to).max(first)])
    }

    /// The prices over `[from, to)` and the timestamp of the first one:
    /// price `k` of the slice was sampled at `first + k * step`. The same
    /// samples as [`samples`](Self::samples), for a loop that indexes them.
    pub fn prices_in(&self, from: u64, to: u64) -> (u64, &[f64]) {
        let (first, prices) = self.window(from, to);
        (self.start + first as u64 * self.step, prices)
    }

    /// Iterates `(timestamp, price)` pairs over `[from, to)`.
    pub fn samples(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, f64)> + '_ {
        let (first, prices) = self.prices_in(from, to);
        let step = self.step;
        prices
            .iter()
            .enumerate()
            .map(move |(k, &p)| (first + k as u64 * step, p))
    }

    /// Average price over `[from, to)`; `None` when the window is empty.
    pub fn mean_price(&self, from: u64, to: u64) -> Option<f64> {
        let prices = self.window(from, to).1;
        // An explicit left-to-right sum from `0.0`, not `Iterator::sum`: the
        // planner's dollars are pinned to the bit.
        let mut sum = 0.0;
        for &p in prices {
            sum += p;
        }
        (!prices.is_empty()).then(|| sum / prices.len() as f64)
    }

    /// First time in `[from, to)` at which the price exceeds `bid`; `None`
    /// if the bid survives the window.
    pub fn first_failure_in(&self, from: u64, to: u64, bid: Bid) -> Option<u64> {
        self.samples(from, to)
            .find(|&(_, p)| !bid.covers(p))
            .map(|(t, _)| t)
    }

    /// First time `>= from` at which the price exceeds `bid`; `None` if the
    /// bid survives the rest of the trace.
    pub fn next_failure(&self, from: u64, bid: Bid) -> Option<u64> {
        self.first_failure_in(from, u64::MAX, bid)
    }

    /// Fraction of samples in `[from, to)` with price at or below `bid`.
    pub fn availability(&self, from: u64, to: u64, bid: Bid) -> f64 {
        let prices = self.window(from, to).1;
        if prices.is_empty() {
            return 0.0;
        }
        let ok = prices.iter().filter(|&&p| bid.covers(p)).count();
        ok as f64 / prices.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(prices: Vec<f64>) -> SpotTrace {
        SpotTrace::new(MarketId::new("m4.large", "us-east-1d"), 0.12, prices)
    }

    #[test]
    fn short_labels_match_paper_style() {
        assert_eq!(
            MarketId::new("m4.xlarge", "us-east-1c").short_label(),
            "m4.XL-c"
        );
        assert_eq!(
            MarketId::new("m4.large", "us-east-1d").short_label(),
            "m4.L-d"
        );
    }

    #[test]
    fn price_at_zero_order_hold_and_clamping() {
        let t = trace(vec![0.1, 0.2, 0.3]);
        assert_eq!(t.price_at(0), Some(0.1));
        assert_eq!(t.price_at(299), Some(0.1));
        assert_eq!(t.price_at(300), Some(0.2));
        assert_eq!(t.price_at(10_000), Some(0.3)); // clamps past end
        assert_eq!(trace(vec![]).price_at(0), None);
    }

    #[test]
    fn next_failure_finds_first_exceedance() {
        let t = trace(vec![0.1, 0.1, 0.5, 0.1]);
        assert_eq!(t.next_failure(0, Bid(0.2)), Some(600));
        assert_eq!(t.next_failure(601, Bid(0.2)), None); // sample at 900 is 0.1
        assert_eq!(t.next_failure(0, Bid(1.0)), None);
    }

    #[test]
    fn availability_counts_covered_samples() {
        let t = trace(vec![0.1, 0.3, 0.1, 0.3]);
        assert!((t.availability(0, 1200, Bid(0.2)) - 0.5).abs() < 1e-12);
        assert_eq!(t.availability(0, 0, Bid(0.2)), 0.0);
    }

    #[test]
    fn mean_price_over_window() {
        let t = trace(vec![0.1, 0.2, 0.3, 0.4]);
        assert!((t.mean_price(0, 600).unwrap() - 0.15).abs() < 1e-12);
        assert!(t.mean_price(5_000, 6_000).is_none());
    }

    #[test]
    fn open_ended_look_ahead_reaches_the_last_sample() {
        // Rounding the upper bound up as `(to - start + step - 1) / step`
        // wraps at `to = u64::MAX` in a release build: the window comes out
        // empty, the only exceedance is missed, and a 90-day plan still
        // checks as self-consistent at a cost 0.5 % off.
        for start in [0, 7] {
            let mut t = trace(vec![0.1, 0.1, 0.1, 0.5]);
            t.start = start;
            assert_eq!(t.next_failure(0, Bid(0.2)), Some(start + 900));
            assert_eq!(t.samples(start + 900, u64::MAX).count(), 1);
        }
    }

    /// The reference model of [`SpotTrace::window`]: every sample of the
    /// trace filtered on its timestamp, which is how each read was answered
    /// before it became index arithmetic.
    fn scan(t: &SpotTrace, from: u64, to: u64) -> Vec<(u64, f64)> {
        t.prices
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                let ts = t.start + i as u64 * t.step;
                (ts >= from && ts < to).then_some((ts, p))
            })
            .collect()
    }

    proptest::proptest! {
        /// Every windowed read equals the same read over the scanned
        /// samples — timestamps exactly, floats to the bit; `prices_in`'s
        /// slice and first timestamp, indexed, give `samples` — for windows
        /// before the start, unaligned to the step, past the end, inverted
        /// and open-ended.
        #[test]
        fn windowed_reads_equal_the_full_scan(
            (far, near) in (proptest::arbitrary::any::<bool>(), 0u64..5_000),
            step in 1u64..=700,
            prices in proptest::collection::vec(0.0f64..1.0, 0..300),
            (a, b) in (0.0f64..1.0, 0.0f64..1.0),
            (from_kind, to_kind) in (0u8..8, 0u8..4),
            bid in 0.0f64..1.0,
        ) {
            use proptest::prelude::*;
            let mut t = trace(prices);
            t.start = if far { (1 << 62) + near } else { near };
            t.step = step;
            // Bounds from two steps before the first sample (when the start
            // leaves room) to two past the last, to the second.
            let span = t.duration() + 4 * step;
            let at = |frac: f64| (t.start + (frac * span as f64) as u64).saturating_sub(2 * step);
            let from = if from_kind == 0 { u64::MAX } else { at(a) };
            let to = if to_kind == 0 { u64::MAX } else { at(b) };
            let bid = Bid(bid);

            let model = scan(&t, from, to);
            let bits = |v: &[(u64, f64)]| -> Vec<(u64, u64)> {
                v.iter().map(|&(ts, p)| (ts, p.to_bits())).collect()
            };
            let samples: Vec<_> = t.samples(from, to).collect();
            prop_assert_eq!(bits(&samples), bits(&model));
            let (first, prices) = t.prices_in(from, to);
            let indexed: Vec<_> = (0..)
                .map(|k: u64| first + k * step)
                .zip(prices.iter().copied())
                .collect();
            prop_assert_eq!(bits(&indexed), bits(&samples));

            let mut sum = 0.0;
            for &(_, p) in &model {
                sum += p;
            }
            let mean = (!model.is_empty()).then(|| sum / model.len() as f64);
            prop_assert_eq!(t.mean_price(from, to).map(f64::to_bits), mean.map(f64::to_bits));

            let ok = model.iter().filter(|&&(_, p)| bid.covers(p)).count();
            let avail = if model.is_empty() { 0.0 } else { ok as f64 / model.len() as f64 };
            prop_assert_eq!(t.availability(from, to, bid).to_bits(), avail.to_bits());

            let first_over = |v: &[(u64, f64)]| v.iter().find(|&&(_, p)| !bid.covers(p)).map(|&(ts, _)| ts);
            prop_assert_eq!(t.first_failure_in(from, to, bid), first_over(&model));
            prop_assert_eq!(t.next_failure(from, bid), first_over(&scan(&t, from, u64::MAX)));
        }
    }

    #[test]
    fn bid_covers_is_inclusive() {
        assert!(Bid(0.2).covers(0.2));
        assert!(Bid(0.2).covers(0.1));
        assert!(!Bid(0.2).covers(0.21));
        let b = Bid::times_od(5.0, 0.1);
        assert!((b.dollars() - 0.5).abs() < 1e-12);
    }
}
