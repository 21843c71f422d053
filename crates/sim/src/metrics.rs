//! Latency histograms, performance-violation accounting, and the unified
//! control-loop metrics record shared by every [`Substrate`] driver.
//!
//! [`Substrate`]: https://docs.rs/spotcache-core

use spotcache_cloud::billing::Ledger;
use spotcache_optimizer::problem::OfferKind;
use spotcache_optimizer::AllocationPlan;

/// A geometric-bucket latency histogram over microseconds.
///
/// Buckets span 1 µs to 10 s with a constant ratio, giving ~2.7% relative
/// quantile error — plenty for p95/p99 reporting.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: f64,
    max_us: f64,
}

const NUM_BUCKETS: usize = 600;
const MIN_US: f64 = 1.0;
const MAX_US: f64 = 1e7;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_us: 0.0,
            max_us: 0.0,
        }
    }

    fn bucket_of(us: f64) -> usize {
        let clamped = us.clamp(MIN_US, MAX_US);
        let frac = (clamped / MIN_US).ln() / (MAX_US / MIN_US).ln();
        ((frac * (NUM_BUCKETS - 1) as f64).round() as usize).min(NUM_BUCKETS - 1)
    }

    fn bucket_value(idx: usize) -> f64 {
        let frac = idx as f64 / (NUM_BUCKETS - 1) as f64;
        MIN_US * (MAX_US / MIN_US).powf(frac)
    }

    /// Records one latency observation (µs).
    pub(crate) fn record(&mut self, us: f64) {
        self.record_n(us, 1);
    }

    /// Records `n` identical observations (µs).
    pub(crate) fn record_n(&mut self, us: f64, n: u64) {
        if n == 0 || !us.is_finite() || us < 0.0 {
            return;
        }
        self.buckets[Self::bucket_of(us)] += n;
        self.count += n;
        self.sum_us += us * n as f64;
        self.max_us = self.max_us.max(us);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (µs); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// The `q`-quantile (µs); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_value(i);
            }
        }
        Self::bucket_value(NUM_BUCKETS - 1)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Per-day performance-violation accounting (paper Figure 7's "% of days
/// the performance target is violated": a day is violated when more than
/// `violation_frac` of its requests are affected by bid failures or miss
/// the latency target).
#[derive(Debug, Clone, Default)]
pub struct ViolationTracker {
    days: Vec<DayCounters>,
}

#[derive(Debug, Clone, Copy, Default)]
struct DayCounters {
    requests: u64,
    affected: u64,
}

impl ViolationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `requests` requests on `day`, of which `affected` were
    /// degraded (served from the backend due to a failure, or over target).
    pub fn record(&mut self, day: usize, requests: u64, affected: u64) {
        if self.days.len() <= day {
            self.days.resize(day + 1, DayCounters::default());
        }
        let d = &mut self.days[day];
        d.requests += requests;
        d.affected += affected.min(requests);
    }

    /// Number of days with any traffic.
    pub fn days(&self) -> usize {
        self.days.iter().filter(|d| d.requests > 0).count()
    }

    /// Whether `day` is violated at the given threshold (paper: 1%).
    pub(crate) fn is_violated(&self, day: usize, threshold: f64) -> bool {
        self.days
            .get(day)
            .is_some_and(|d| d.requests > 0 && d.affected as f64 > threshold * d.requests as f64)
    }

    /// Fraction of traffic-bearing days that are violated.
    pub fn violated_day_frac(&self, threshold: f64) -> f64 {
        let total = self.days();
        if total == 0 {
            return 0.0;
        }
        let bad = (0..self.days.len())
            .filter(|&d| self.is_violated(d, threshold))
            .count();
        bad as f64 / total as f64
    }
}

/// One control slot's allocation and impact snapshot.
///
/// Unifies the hourly simulation's `HourRecord` and the prototype's
/// `AllocationRecord`: every driver emits one of these per planning slot.
#[derive(Debug, Clone, Default)]
pub struct SlotRecord {
    /// Slot index from the start of metering.
    pub slot: u64,
    /// On-demand instances allocated this slot.
    pub od_count: u32,
    /// Spot instances per market label.
    pub spot_counts: Vec<(String, u32)>,
    /// Instances revoked during the slot.
    pub revoked: u32,
    /// Fraction of the slot's requests affected by failures/shortfall.
    pub affected_frac: f64,
    /// Cost accrued this slot (all categories).
    pub cost: f64,
}

impl SlotRecord {
    /// Slot `slot`'s record with `alloc`'s instance counts: the on-demand
    /// total and each spot offer's count, in plan order, offers with no
    /// instances skipped. Revocations, impact and cost start at zero for
    /// the substrate to meter.
    pub fn planned(slot: u64, alloc: &AllocationPlan) -> Self {
        let mut record = Self {
            slot,
            ..Self::default()
        };
        for e in alloc.entries.iter().filter(|e| e.count > 0) {
            match &e.offer.kind {
                OfferKind::OnDemand => record.od_count += e.count,
                OfferKind::Spot { .. } => record.spot_counts.push((e.offer.label.clone(), e.count)),
            }
        }
        record
    }
}

/// One fine-grained latency sample (the prototype's per-minute record).
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySample {
    /// Step index from the start of the run (e.g. minute number).
    pub step: u64,
    /// Mean request latency over the step (µs).
    pub avg_us: f64,
    /// 95th-percentile latency over the step (µs).
    pub p95_us: f64,
}

/// Request-serving counters for substrates that serve real requests
/// (the live fleet).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    /// Requests served from a primary node's store.
    pub hits: u64,
    /// Misses filled from the backend and cached.
    pub miss_filled: u64,
    /// Hot-item reads served by a backup after a primary failure.
    pub backup_hits: u64,
    /// Reads that fell through to the backend.
    pub backend: u64,
    /// Spot revocations absorbed.
    pub revocations: u32,
    /// Items streamed from backups during recoveries.
    pub items_copied: u64,
}

impl ServeCounters {
    /// Total read requests observed.
    pub fn requests(&self) -> u64 {
        self.hits + self.miss_filled + self.backup_hits + self.backend
    }

    /// In-memory hit rate (hits + backup hits over all requests).
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            (self.hits + self.backup_hits) as f64 / total as f64
        }
    }
}

/// Unified output of one control-loop run, regardless of substrate.
///
/// The hourly simulation fills `ledger`/`violations`/`slots`; the
/// per-minute prototype additionally fills `latency`/`samples`; the live
/// fleet fills `serve`. Fields a substrate does not meter stay at their
/// defaults.
#[derive(Debug, Clone, Default)]
pub struct ControlMetrics {
    /// Cost ledger across all categories.
    pub ledger: Ledger,
    /// Per-day performance-violation accounting.
    pub violations: ViolationTracker,
    /// Aggregate latency distribution over the whole run.
    pub latency: LatencyHistogram,
    /// Per-slot allocation records.
    pub slots: Vec<SlotRecord>,
    /// Fine-grained latency samples (empty for slot-granularity drivers).
    pub samples: Vec<LatencySample>,
    /// Request-serving counters (live substrate only).
    pub serve: ServeCounters,
    /// Spot revocations in the run. `HourlySim` and the live fleet count
    /// revoked instances; `MinutePrototype` counts revoked offers (one per
    /// failed allocation entry, whatever its instance count).
    pub revocations: u32,
    /// Reactive-controller interventions.
    pub reactions: u32,
}

impl ControlMetrics {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self {
            latency: LatencyHistogram::new(),
            ..Self::default()
        }
    }

    /// Total cost across all categories.
    pub fn total_cost(&self) -> f64 {
        self.ledger.grand_total()
    }

    /// Fraction of days violating the paper's 1% performance target.
    pub fn violated_day_frac(&self) -> f64 {
        self.violations.violated_day_frac(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.95), 0.0);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
        assert!((p95 - 950.0).abs() / 950.0 < 0.05, "p95 {p95}");
        assert!((h.mean() - 500.5).abs() < 1.0);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        a.record_n(100.0, 10);
        let mut b = LatencyHistogram::new();
        b.record_n(200.0, 10);
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert!((a.mean() - 150.0).abs() < 5.0);
    }

    #[test]
    fn garbage_inputs_ignored() {
        let mut h = LatencyHistogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        h.record_n(100.0, 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn extreme_values_clamped() {
        let mut h = LatencyHistogram::new();
        h.record(1e12);
        h.record(0.001);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) <= 1e7 + 1.0);
    }

    #[test]
    fn violation_tracker_threshold_logic() {
        let mut v = ViolationTracker::new();
        v.record(0, 1000, 5); // 0.5% — fine at 1%
        v.record(1, 1000, 20); // 2% — violated
        v.record(3, 500, 0);
        assert!(!v.is_violated(0, 0.01));
        assert!(v.is_violated(1, 0.01));
        assert!(!v.is_violated(2, 0.01)); // day with no traffic
        assert_eq!(v.days(), 3);
        assert!((v.violated_day_frac(0.01) - 1.0 / 3.0).abs() < 1e-12);
    }

    proptest::proptest! {
        /// Histogram quantiles track exact quantiles within the geometric
        /// bucket ratio, for arbitrary sample sets.
        #[test]
        fn quantiles_match_exact_within_bucket_error(
            samples in proptest::collection::vec(1.0f64..1e6, 10..500),
            q in 0.05f64..0.99,
        ) {
            use proptest::prelude::*;
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[idx - 1];
            let got = h.quantile(q);
            // Bucket ratio: (1e7)^(1/599) ≈ 1.0273 → allow 6% either way.
            prop_assert!(
                got >= exact / 1.06 && got <= exact * 1.06,
                "q{q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn violation_accumulates_within_day() {
        let mut v = ViolationTracker::new();
        v.record(0, 500, 4);
        v.record(0, 500, 4); // total 8/1000 = 0.8%
        assert!(!v.is_violated(0, 0.01));
        v.record(0, 0, 0);
        v.record(0, 100, 100);
        assert!(v.is_violated(0, 0.01));
    }
}
