//! Window statistics. Every timing the benchmark reports is taken per
//! fixed-width window and summarised **over windows**, never over the whole
//! run: a single descheduling that would move a whole-run p99 by a factor
//! of two lands in one window and leaves the others alone. The two gated
//! figures take the better quartile of the windows (upper for throughput,
//! lower for latency); everything else takes the median.

/// Nearest-rank quantile of an ascending slice; `0.0` for an empty one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One closed window: how many events completed in it and the latency
/// quantiles of the samples recorded in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Events counted (commands, not latency samples).
    pub events: u64,
    /// Latency samples recorded.
    pub samples: usize,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
}

/// Accumulates latency samples and event counts into fixed-width windows
/// keyed by the time each sample completed. Windows the clock skipped
/// entirely are recorded as empty, and the trailing partial window is
/// dropped by [`WindowSeries::finish`].
#[derive(Debug)]
pub struct WindowSeries {
    width_ns: u64,
    index: u64,
    events: u64,
    samples_ns: Vec<u64>,
    closed: Vec<WindowSummary>,
}

impl WindowSeries {
    /// A series of `width_ns`-wide windows starting at time zero.
    pub fn new(width_ns: u64) -> Self {
        Self {
            width_ns: width_ns.max(1),
            index: 0,
            events: 0,
            samples_ns: Vec::new(),
            closed: Vec::new(),
        }
    }

    fn close_current(&mut self) {
        self.samples_ns.sort_unstable();
        let us = |q: f64| {
            if self.samples_ns.is_empty() {
                return 0.0;
            }
            let rank = (q * self.samples_ns.len() as f64).ceil() as usize;
            self.samples_ns[rank.clamp(1, self.samples_ns.len()) - 1] as f64 / 1_000.0
        };
        self.closed.push(WindowSummary {
            events: self.events,
            samples: self.samples_ns.len(),
            p50_us: us(0.50),
            p90_us: us(0.90),
            p99_us: us(0.99),
        });
        self.samples_ns.clear();
        self.events = 0;
        self.index += 1;
    }

    fn roll_to(&mut self, at_ns: u64) {
        let target = at_ns / self.width_ns;
        while self.index < target {
            self.close_current();
        }
    }

    /// Records one latency sample that completed at `at_ns`, covering
    /// `events` commands.
    pub fn record(&mut self, at_ns: u64, latency_ns: u64, events: u64) {
        self.roll_to(at_ns);
        self.samples_ns.push(latency_ns);
        self.events += events;
    }

    /// Closes every window that ended at or before `end_ns` and returns
    /// them; samples in the partial window after that are discarded.
    pub fn finish(mut self, end_ns: u64) -> Vec<WindowSummary> {
        self.roll_to(end_ns);
        self.closed
    }
}

/// Median over windows of one field, ignoring windows with no samples.
pub fn window_median(windows: &[WindowSummary], field: impl Fn(&WindowSummary) -> f64) -> f64 {
    let v: Vec<f64> = windows
        .iter()
        .filter(|w| w.samples > 0)
        .map(field)
        .collect();
    median(&v)
}

/// Lower quartile over windows of a latency field, ignoring windows with
/// no samples. On a shared host interference only ever slows a window
/// down, so the better quarter of the windows repeats from run to run
/// where the median does not; the gated latency uses this.
pub fn window_best_quartile(
    windows: &[WindowSummary],
    field: impl Fn(&WindowSummary) -> f64,
) -> f64 {
    let mut v: Vec<f64> = windows
        .iter()
        .filter(|w| w.samples > 0)
        .map(field)
        .collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.25)
}

/// Upper quartile over windows of events per second: the gated throughput
/// (see [`window_best_quartile`] for why not the median).
pub fn window_rate(windows: &[WindowSummary], width_ns: u64) -> f64 {
    let mut v: Vec<f64> = windows
        .iter()
        .map(|w| w.events as f64 * 1e9 / width_ns as f64)
        .collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.75)
}

/// First index at which `run` consecutive values are all `>= threshold`.
pub fn first_sustained(values: &[f64], threshold: f64, run: usize) -> Option<usize> {
    if run == 0 {
        return Some(0);
    }
    let mut streak = 0;
    for (i, &v) in values.iter().enumerate() {
        if v >= threshold {
            streak += 1;
            if streak == run {
                return Some(i + 1 - run);
            }
        } else {
            streak = 0;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_outlier_window_does_not_move_the_window_median() {
        let mut s = WindowSeries::new(1_000);
        // Nine quiet windows at 10 us, one window where everything took 5 ms.
        for w in 0..10u64 {
            for i in 0..100u64 {
                let lat = if w == 4 { 5_000_000 } else { 10_000 + i };
                s.record(w * 1_000 + i, lat, 1);
            }
        }
        let windows = s.finish(10_000);
        assert_eq!(windows.len(), 10);
        let p99 = window_median(&windows, |w| w.p99_us);
        assert!((10.0..10.2).contains(&p99), "p99 {p99}");
        // The whole-run p99 would have been the outlier.
        assert_eq!(windows[4].p99_us, 5_000.0);
    }

    #[test]
    fn skipped_windows_are_empty_and_partial_tail_is_dropped() {
        let mut s = WindowSeries::new(100);
        s.record(10, 1_000, 2);
        s.record(350, 2_000, 3); // windows 1 and 2 saw nothing
        s.record(420, 9_000, 1); // partial: finish at 400 drops it
        let w = s.finish(400);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].events, 2);
        assert_eq!((w[1].samples, w[2].samples), (0, 0));
        assert_eq!(w[3].events, 3);
        // 2, 0, 0 and 3 events per 100 ns: the upper-quartile rate is 2e7/s.
        assert_eq!(window_rate(&w, 100), 2e7);
        assert_eq!(window_median(&w, |x| x.p50_us), 1.5);
        assert_eq!(window_best_quartile(&w, |x| x.p50_us), 1.0);
    }

    #[test]
    fn sustained_run_detection() {
        let v = [0.1, 0.95, 0.2, 0.91, 0.92, 0.93, 0.5];
        assert_eq!(first_sustained(&v, 0.9, 3), Some(3));
        assert_eq!(first_sustained(&v, 0.9, 1), Some(1));
        assert_eq!(first_sustained(&v, 0.99, 1), None);
    }
}
