//! Windowed time-series telemetry: sliding windows, ζ burn rate, and a
//! revocation-storm detector.
//!
//! PR 2's registry exports *instantaneous* values; the paper's claims are
//! trajectories — the availability constraint ζ (§3.2) holds or fails
//! over a billing period, and spot auto-scaling systems react to
//! *windowed* signals (revocation storms, demand ramps), not point
//! samples. This module adds the windowed layer:
//!
//! * [`SlidingWindow`] — a fixed-size ring of `(t, value)` samples with
//!   O(window) aggregates: mean, min/max, quantiles, and the sliding
//!   **rate** of a cumulative counter.
//! * [`SloWindow`] — per-slot good/bad accounting against an availability
//!   target ζ; [`SloWindow::burn_rate`] is the observed bad fraction
//!   divided by the allowed bad fraction `1 − ζ` (1.0 = exactly on
//!   budget, >1 = burning error budget too fast — the Google SRE
//!   burn-rate convention).
//! * [`StormDetector`] — a windowed revocation counter with a threshold:
//!   `count(window) ≥ threshold` flags a revocation storm, the early
//!   signal fault-tolerance-free spot provisioning needs. The first
//!   threshold crossing is latched ([`StormDetector::triggered_at`])
//!   together with the onset of the burst that caused it, so drills can
//!   report *trigger latency* — how far into a correlated storm the
//!   detector fired.
//! * [`DecaySeries`] — an append-only `(t, value)` curve with strictly
//!   monotone timestamps, the storage for the hit-rate/freshness decay
//!   curves a churn drill emits (non-monotone pushes are dropped and
//!   counted, never silently reordered).
//! * [`BreachTracker`] — turns a threshold-crossing signal (e.g. the
//!   [`SloWindow`] burn rate) into explicit breach intervals
//!   `[start, end)`, the "when was the SLO on fire" answer an incident
//!   review needs.
//!
//! Everything here is plain sequential state guarded by one mutex per
//! structure: windows are fed from control-loop cadence code (per-slot,
//! per-second), never from the cache hot path.

use std::fmt::Write as _;

use parking_lot::Mutex;

use crate::export::json_f64;

/// Aggregates of one window at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Samples currently retained.
    pub(crate) len: usize,
    /// Mean of retained values (0 when empty).
    pub mean: f64,
    /// Smallest retained value (0 when empty).
    pub(crate) min: f64,
    /// Largest retained value (0 when empty).
    pub(crate) max: f64,
    /// Median of retained values (0 when empty).
    pub(crate) p50: f64,
    /// 95th percentile of retained values (0 when empty).
    pub p95: f64,
    /// Sliding rate: `(v_last − v_first) / (t_last − t_first)`, the
    /// per-second rate of a cumulative counter over the window (0 when
    /// fewer than two samples or no time elapsed).
    pub(crate) rate: f64,
}

impl WindowStats {
    fn empty() -> Self {
        Self {
            len: 0,
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p95: 0.0,
            rate: 0.0,
        }
    }
}

struct WindowInner {
    /// `(t_secs, value)`, oldest first.
    samples: std::collections::VecDeque<(u64, f64)>,
}

/// A fixed-size sliding window of timestamped samples.
///
/// Feed it gauge readings to get windowed quantiles, or cumulative
/// counter readings to get a sliding rate; timestamps are the caller's
/// logical clock (slot/step seconds), so windowed telemetry from
/// deterministic replays is itself deterministic.
pub struct SlidingWindow {
    inner: Mutex<WindowInner>,
    capacity: usize,
}

impl SlidingWindow {
    /// A window retaining the most recent `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(WindowInner {
                samples: std::collections::VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Pushes a sample, evicting the oldest past capacity. Non-finite
    /// values are ignored (the policy NaN/Inf gauges follow in JSON
    /// export: they must never poison window aggregates).
    pub fn observe(&self, t: u64, v: f64) {
        if !v.is_finite() {
            return;
        }
        let mut w = self.inner.lock();
        if w.samples.len() == self.capacity {
            w.samples.pop_front();
        }
        w.samples.push_back((t, v));
    }

    /// All aggregates in one pass.
    pub fn stats(&self) -> WindowStats {
        let w = self.inner.lock();
        if w.samples.is_empty() {
            return WindowStats::empty();
        }
        let mut values: Vec<f64> = w.samples.iter().map(|&(_, v)| v).collect();
        values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let n = values.len();
        let q = |q: f64| values[(((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)];
        let (t0, v0) = *w.samples.front().expect("non-empty");
        let (t1, v1) = *w.samples.back().expect("non-empty");
        let rate = if t1 > t0 {
            (v1 - v0) / (t1 - t0) as f64
        } else {
            0.0
        };
        WindowStats {
            len: n,
            mean: values.iter().sum::<f64>() / n as f64,
            min: values[0],
            max: values[n - 1],
            p50: q(0.5),
            p95: q(0.95),
            rate,
        }
    }
}

/// Per-slot SLO accounting against an availability target ζ.
pub struct SloWindow {
    /// Required good fraction, e.g. the paper's ζ availability floor.
    target: f64,
    /// Ring of per-slot outcomes (`true` = slot met the SLO).
    outcomes: Mutex<std::collections::VecDeque<bool>>,
    capacity: usize,
}

impl SloWindow {
    /// A window of `capacity` slots against availability target
    /// `target` (clamped to `[0, 1)`... exactly-1 targets allow zero
    /// error budget; burn rate then saturates, see [`Self::burn_rate`]).
    pub fn new(target: f64, capacity: usize) -> Self {
        Self {
            target: target.clamp(0.0, 1.0),
            outcomes: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// The configured target.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Records one slot's outcome.
    pub fn record(&self, ok: bool) {
        let mut o = self.outcomes.lock();
        if o.len() == self.capacity {
            o.pop_front();
        }
        o.push_back(ok);
    }

    /// Fraction of windowed slots that failed the SLO (0 when empty).
    pub fn bad_frac(&self) -> f64 {
        let o = self.outcomes.lock();
        if o.is_empty() {
            return 0.0;
        }
        o.iter().filter(|&&ok| !ok).count() as f64 / o.len() as f64
    }

    /// Burn rate: observed bad fraction over the allowed bad fraction
    /// `1 − ζ`. 0 = clean window, 1 = exactly on budget, >1 = burning
    /// too fast. A zero error budget (ζ = 1) with any failure saturates
    /// to [`f64::MAX`] rather than dividing by zero.
    pub fn burn_rate(&self) -> f64 {
        let bad = self.bad_frac();
        let budget = 1.0 - self.target;
        if budget <= 0.0 {
            return if bad > 0.0 { f64::MAX } else { 0.0 };
        }
        bad / budget
    }
}

/// Windowed revocation counting with a storm threshold.
///
/// Auto-scaling over spot markets must distinguish a stray revocation
/// from a *storm* (a price spike clearing a whole market): the detector
/// keeps `(t, count)` revocation batches and flags a storm while the
/// total revoked within the trailing `window_secs` reaches `threshold`.
pub struct StormDetector {
    window_secs: u64,
    threshold: u64,
    inner: Mutex<StormInner>,
}

struct StormInner {
    /// `(t, count)` revocation batches within the trailing window.
    batches: std::collections::VecDeque<(u64, u64)>,
    /// Timestamp of the oldest batch still in-window when the threshold
    /// was first crossed: the onset of the burst that became a storm.
    onset: Option<u64>,
    /// Timestamp of the batch that crossed the threshold (latched until
    /// [`StormDetector::reset_trigger`]).
    triggered_at: Option<u64>,
}

impl StormDetector {
    /// A detector flagging `threshold`+ revocations within any trailing
    /// `window_secs`.
    pub fn new(window_secs: u64, threshold: u64) -> Self {
        Self {
            window_secs: window_secs.max(1),
            threshold: threshold.max(1),
            inner: Mutex::new(StormInner {
                batches: std::collections::VecDeque::new(),
                onset: None,
                triggered_at: None,
            }),
        }
    }

    /// Records `count` revocations at logical time `t`. The first time
    /// the trailing window reaches the threshold, the trigger is latched:
    /// [`Self::triggered_at`] keeps `t` and the burst onset until
    /// [`Self::reset_trigger`] re-arms the detector, so a slow poller
    /// never misses (or re-dates) the crossing.
    pub fn record(&self, t: u64, count: u64) {
        if count == 0 {
            return;
        }
        let mut s = self.inner.lock();
        s.batches.push_back((t, count));
        Self::evict(&mut s.batches, t, self.window_secs);
        if s.triggered_at.is_none()
            && s.batches.iter().map(|&(_, c)| c).sum::<u64>() >= self.threshold
        {
            s.onset = s.batches.front().map(|&(t0, _)| t0);
            s.triggered_at = Some(t);
        }
    }

    fn evict(b: &mut std::collections::VecDeque<(u64, u64)>, now: u64, window: u64) {
        let cutoff = now.saturating_sub(window);
        while b.front().is_some_and(|&(t, _)| t < cutoff) {
            b.pop_front();
        }
    }

    /// Revocations within the trailing window ending at `now`.
    pub(crate) fn windowed_count(&self, now: u64) -> u64 {
        let mut s = self.inner.lock();
        Self::evict(&mut s.batches, now, self.window_secs);
        s.batches.iter().map(|&(_, c)| c).sum()
    }

    /// Revocations per second over the trailing window.
    pub fn rate(&self, now: u64) -> f64 {
        self.windowed_count(now) as f64 / self.window_secs as f64
    }

    /// Whether the trailing window is at or past the storm threshold.
    pub fn is_storm(&self, now: u64) -> bool {
        self.windowed_count(now) >= self.threshold
    }

    /// When the trailing window first reached the threshold (the
    /// timestamp of the batch that crossed it), or `None` while the
    /// detector has not fired since construction / the last
    /// [`Self::reset_trigger`].
    pub fn triggered_at(&self) -> Option<u64> {
        self.inner.lock().triggered_at
    }

    /// Trigger latency: seconds between the onset of the burst (oldest
    /// in-window batch at crossing time) and the crossing itself. By
    /// construction `0 ≤ latency ≤ window_secs`. `None` until triggered.
    pub fn trigger_latency(&self) -> Option<u64> {
        let s = self.inner.lock();
        match (s.onset, s.triggered_at) {
            (Some(onset), Some(t)) => Some(t.saturating_sub(onset)),
            _ => None,
        }
    }

    /// Re-arms the trigger latch (e.g. after a storm subsides) so the
    /// next threshold crossing is dated afresh. Windowed counts are
    /// unaffected.
    pub fn reset_trigger(&self) {
        let mut s = self.inner.lock();
        s.onset = None;
        s.triggered_at = None;
    }
}

/// An append-only decay curve: `(t, value)` points with strictly
/// monotone timestamps.
///
/// Churn drills sample hit-rate/freshness once per driver window and
/// read the curve back to locate recovery points; both uses depend on
/// time strictly increasing. Rather than trusting every feeder, the
/// series enforces it: a push whose timestamp does not exceed the last
/// retained point (or whose value is non-finite) is dropped and counted
/// in [`Self::dropped`], never reordered or silently absorbed.
pub struct DecaySeries {
    inner: Mutex<DecayInner>,
}

struct DecayInner {
    points: Vec<(u64, f64)>,
    dropped: u64,
}

impl Default for DecaySeries {
    fn default() -> Self {
        Self::new()
    }
}

impl DecaySeries {
    /// An empty series.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(DecayInner {
                points: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// Appends `(t, v)`; returns whether the point was retained. Points
    /// with `t` ≤ the last retained timestamp, or a non-finite `v`, are
    /// dropped (and counted).
    pub fn push(&self, t: u64, v: f64) -> bool {
        let mut s = self.inner.lock();
        let monotone = s.points.last().is_none_or(|&(last, _)| t > last);
        if !monotone || !v.is_finite() {
            s.dropped += 1;
            return false;
        }
        s.points.push((t, v));
        true
    }

    /// Retained point count.
    pub fn len(&self) -> usize {
        self.inner.lock().points.len()
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes rejected for violating monotonicity or finiteness.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// All retained points, oldest first.
    pub fn points(&self) -> Vec<(u64, f64)> {
        self.inner.lock().points.clone()
    }

    /// First timestamp `≥ from_t` whose value is `≥ threshold` — the
    /// recovery-point query: "when did the curve climb back above X
    /// after the kill at `from_t`".
    pub fn first_at_or_above(&self, from_t: u64, threshold: f64) -> Option<u64> {
        self.inner
            .lock()
            .points
            .iter()
            .find(|&&(t, v)| t >= from_t && v >= threshold)
            .map(|&(t, _)| t)
    }

    /// The series as a JSON array of `[t, value]` pairs, oldest first.
    /// Always passes [`crate::export::validate_json`].
    pub fn json(&self) -> String {
        let s = self.inner.lock();
        let mut out = String::from("[");
        for (i, &(t, v)) in s.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{t},{}]", json_f64(v));
        }
        out.push(']');
        out
    }
}

/// Turns a threshold-crossing signal into explicit breach intervals.
///
/// Feed it one `(t, value)` observation per slot (e.g. the
/// [`SloWindow::burn_rate`] each driver window); it records the
/// half-open intervals `[start, end)` during which `value > threshold`.
/// An interval still open at snapshot time has `end == None`.
pub struct BreachTracker {
    threshold: f64,
    inner: Mutex<Vec<(u64, Option<u64>)>>,
}

impl BreachTracker {
    /// A tracker flagging observations strictly above `threshold`
    /// (non-finite observations other than `+∞` never breach — NaN
    /// comparisons are false — matching the gauge-export policy that
    /// NaN must not poison derived telemetry).
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Records the signal's value at time `t`: a rising edge opens an
    /// interval at `t`, a falling edge closes the open interval at `t`.
    pub fn observe(&self, t: u64, value: f64) {
        let breaching = value > self.threshold;
        let mut iv = self.inner.lock();
        match iv.last_mut() {
            Some((_, end @ None)) if !breaching => *end = Some(t),
            Some((_, None)) => {}
            _ if breaching => iv.push((t, None)),
            _ => {}
        }
    }

    /// All breach intervals, oldest first; an open interval ends `None`.
    pub fn intervals(&self) -> Vec<(u64, Option<u64>)> {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;

    #[test]
    fn sliding_window_aggregates() {
        let w = SlidingWindow::new(8);
        for t in 0..8u64 {
            w.observe(t, (t + 1) as f64);
        }
        let s = w.stats();
        assert_eq!(s.len, 8);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 8.0);
        assert!((s.mean - 4.5).abs() < 1e-12);
        assert_eq!(s.p50, 4.0);
        assert_eq!(s.p95, 8.0);
        // Cumulative interpretation: 1→8 over 7 seconds.
        assert!((s.rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_evicts_oldest() {
        let w = SlidingWindow::new(4);
        for t in 0..10u64 {
            w.observe(t, t as f64);
        }
        let s = w.stats();
        assert_eq!(s.len, 4);
        assert_eq!(s.min, 6.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn window_ignores_non_finite_and_handles_empty() {
        let w = SlidingWindow::new(4);
        assert_eq!(w.stats(), WindowStats::empty());
        w.observe(0, f64::NAN);
        w.observe(1, f64::INFINITY);
        assert_eq!(w.stats(), WindowStats::empty());
    }

    #[test]
    fn sliding_rate_of_cumulative_counter() {
        let w = SlidingWindow::new(16);
        // A counter advancing 50/step at 10-second steps: rate 5/s.
        for i in 0..10u64 {
            w.observe(i * 10, (i * 50) as f64);
        }
        assert!((w.stats().rate - 5.0).abs() < 1e-12);
        // Single sample or zero elapsed: no rate.
        let one = SlidingWindow::new(4);
        one.observe(5, 100.0);
        assert_eq!(one.stats().rate, 0.0);
        one.observe(5, 200.0);
        assert_eq!(one.stats().rate, 0.0);
    }

    #[test]
    fn burn_rate_against_zeta() {
        // ζ = 0.9 → 10% error budget.
        let slo = SloWindow::new(0.9, 10);
        for _ in 0..9 {
            slo.record(true);
        }
        slo.record(false);
        // 1 bad in 10 = exactly the budget.
        assert!((slo.burn_rate() - 1.0).abs() < 1e-12);
        slo.record(false); // evicts a good slot: 2 bad in 10
        assert!((slo.burn_rate() - 2.0).abs() < 1e-12);
        assert!((slo.bad_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn burn_rate_zero_budget_saturates() {
        let slo = SloWindow::new(1.0, 4);
        slo.record(true);
        assert_eq!(slo.burn_rate(), 0.0);
        slo.record(false);
        assert_eq!(slo.burn_rate(), f64::MAX);
    }

    #[test]
    fn storm_detector_flags_bursts_and_recovers() {
        let d = StormDetector::new(120, 5);
        d.record(0, 2);
        assert!(!d.is_storm(0));
        d.record(60, 3);
        assert!(d.is_storm(60), "5 revocations within 120s");
        assert!((d.rate(60) - 5.0 / 120.0).abs() < 1e-12);
        // 200s later the early batches age out.
        assert_eq!(d.windowed_count(260), 0);
        assert!(!d.is_storm(260));
    }

    #[test]
    fn storm_detector_ignores_empty_batches() {
        let d = StormDetector::new(60, 1);
        d.record(10, 0);
        assert_eq!(d.windowed_count(10), 0);
        assert_eq!(d.triggered_at(), None);
    }

    #[test]
    fn storm_trigger_latches_crossing_and_onset() {
        let d = StormDetector::new(120, 5);
        d.record(10, 2);
        assert_eq!(d.triggered_at(), None);
        d.record(70, 3);
        // Crossed at t=70; the burst began at t=10 → latency 60 ≤ window.
        assert_eq!(d.triggered_at(), Some(70));
        assert_eq!(d.trigger_latency(), Some(60));
        // The latch survives later activity and window queries.
        d.record(300, 9);
        assert_eq!(d.windowed_count(500), 0);
        assert_eq!(d.triggered_at(), Some(70));
        // Re-arming dates the next crossing afresh.
        d.reset_trigger();
        assert_eq!(d.triggered_at(), None);
        d.record(600, 5);
        assert_eq!(d.triggered_at(), Some(600));
        assert_eq!(d.trigger_latency(), Some(0), "single-batch burst");
    }

    #[test]
    fn decay_series_enforces_monotone_timestamps() {
        let s = DecaySeries::new();
        assert!(s.push(1, 1.0));
        assert!(s.push(5, 0.5));
        assert!(!s.push(5, 0.4), "equal timestamp dropped");
        assert!(!s.push(3, 0.9), "regressing timestamp dropped");
        assert!(!s.push(8, f64::NAN), "non-finite dropped");
        assert!(s.push(8, 0.8));
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.points(), vec![(1, 1.0), (5, 0.5), (8, 0.8)]);
        assert_eq!(s.json(), "[[1,1],[5,0.5],[8,0.8]]");
        validate_json(&s.json()).unwrap();
        assert_eq!(DecaySeries::new().json(), "[]");
        let z = DecaySeries::new();
        z.push(0, -0.0);
        assert_eq!(z.json(), "[[0,0]]", "negative zero exports as 0");
    }

    #[test]
    fn decay_series_recovery_queries() {
        let s = DecaySeries::new();
        for (t, v) in [(0, 0.99), (1, 0.2), (2, 0.4), (3, 0.95), (4, 0.97)] {
            assert!(s.push(t, v));
        }
        // Kill at t=1: recovery (≥0.9) at t=3.
        assert_eq!(s.first_at_or_above(1, 0.9), Some(3));
        assert_eq!(s.first_at_or_above(1, 0.999), None);
    }

    #[test]
    fn breach_tracker_records_intervals() {
        let b = BreachTracker::new(1.0);
        b.observe(0, 0.1);
        b.observe(1, 2.0); // rising edge
        b.observe(2, 3.0);
        b.observe(3, 0.5); // falling edge
        b.observe(4, 1.5); // second breach, still open
        assert_eq!(b.intervals(), vec![(1, Some(3)), (4, None)]);
        // Exactly-at-threshold is not a breach; NaN never breaches.
        let c = BreachTracker::new(1.0);
        c.observe(0, 1.0);
        c.observe(1, f64::NAN);
        assert!(c.intervals().is_empty());
    }
}
