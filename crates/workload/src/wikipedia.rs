//! A Wikipedia-shaped diurnal workload trace (paper Section 5.1).
//!
//! The paper scales the Wikipedia access trace (Urdaneta et al., 2009) "to
//! create workloads with different peak arrival rates and maximum working
//! set sizes". The published trace's salient shape is a strong diurnal
//! cycle (peak-to-trough ≈ 2:1), a mild weekly cycle (weekends ~10% lower),
//! and small high-frequency noise. This module generates an hourly trace
//! with exactly that structure from a seed, then rescales it to any
//! requested peak rate and maximum working-set size — preserving the
//! paper's methodology with a synthetic stand-in for the raw trace file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An hourly arrival-rate / working-set trace.
#[derive(Debug, Clone)]
pub struct WikipediaTrace {
    /// Request arrival rate per hour slot, ops/sec.
    pub(crate) hourly_rates: Vec<f64>,
    /// Working-set size per hour slot, GiB.
    pub(crate) hourly_wss_gb: Vec<f64>,
}

impl WikipediaTrace {
    /// Generates a `days`-long trace scaled so the peak arrival rate is
    /// `peak_ops` and the maximum working-set size is `max_wss_gb`.
    ///
    /// The working set follows the diurnal shape with a compressed dynamic
    /// range (the paper's prototype sweeps 25–60 GB, i.e. trough ≈ 0.4 ×
    /// peak), because content corpus size varies less than request rate.
    ///
    /// # Panics
    ///
    /// Panics if `days == 0` or either scale is non-positive.
    pub fn generate(days: u64, peak_ops: f64, max_wss_gb: f64, seed: u64) -> Self {
        assert!(days > 0, "empty trace");
        assert!(peak_ops > 0.0 && max_wss_gb > 0.0, "non-positive scale");
        let mut rng = StdRng::seed_from_u64(seed);
        let hours = (days * 24) as usize;
        let mut shape = Vec::with_capacity(hours);
        for h in 0..hours {
            let hour_of_day = (h % 24) as f64;
            let day = h / 24;
            // Diurnal: peak around 20:00 UTC, trough around 08:00.
            let diurnal = 1.0 + 0.35 * (std::f64::consts::TAU * (hour_of_day - 14.0) / 24.0).sin();
            // Weekly: ~10% dip on days 5 and 6 of each week.
            let weekly = if day % 7 >= 5 { 0.9 } else { 1.0 };
            let noise = 1.0 + 0.04 * (rng.gen::<f64>() - 0.5);
            shape.push(diurnal * weekly * noise);
        }
        let peak_shape = shape.iter().copied().fold(f64::MIN, f64::max);
        let hourly_rates: Vec<f64> = shape.iter().map(|s| s / peak_shape * peak_ops).collect();
        // Working set: same shape, compressed toward the peak.
        let hourly_wss_gb: Vec<f64> = shape
            .iter()
            .map(|s| {
                let frac = s / peak_shape; // in (0, 1]
                (0.4 + 0.6 * frac) * max_wss_gb
            })
            .collect();
        Self {
            hourly_rates,
            hourly_wss_gb,
        }
    }

    /// Number of hour slots.
    pub(crate) fn hours(&self) -> usize {
        self.hourly_rates.len()
    }

    /// Arrival rate (ops/sec) in the slot containing second `t`.
    pub fn rate_at(&self, t: u64) -> f64 {
        let idx = ((t / 3_600) as usize).min(self.hours() - 1);
        self.hourly_rates[idx]
    }

    /// Working-set size (GiB) in the slot containing second `t`.
    pub fn wss_at(&self, t: u64) -> f64 {
        let idx = ((t / 3_600) as usize).min(self.hours() - 1);
        self.hourly_wss_gb[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak_rate(t: &WikipediaTrace) -> f64 {
        t.hourly_rates.iter().copied().fold(f64::MIN, f64::max)
    }

    fn max_wss(t: &WikipediaTrace) -> f64 {
        t.hourly_wss_gb.iter().copied().fold(f64::MIN, f64::max)
    }

    #[test]
    fn scales_to_requested_peaks() {
        let t = WikipediaTrace::generate(30, 320_000.0, 60.0, 1);
        assert!((peak_rate(&t) - 320_000.0).abs() < 1.0);
        assert!((max_wss(&t) - 60.0).abs() < 1e-6);
        assert_eq!(t.hours(), 720);
    }

    #[test]
    fn diurnal_swing_is_realistic() {
        let t = WikipediaTrace::generate(7, 100_000.0, 100.0, 2);
        let min = t.hourly_rates.iter().copied().fold(f64::MAX, f64::min);
        let ratio = peak_rate(&t) / min;
        assert!((1.5..=3.5).contains(&ratio), "peak/trough {ratio}");
    }

    #[test]
    fn wss_range_matches_prototype_sweep() {
        // Paper prototype: "dynamic working set size to 25-60GB".
        let t = WikipediaTrace::generate(30, 320_000.0, 60.0, 3);
        let min = t.hourly_wss_gb.iter().copied().fold(f64::MAX, f64::min);
        assert!(min > 20.0 && min < 40.0, "min WSS {min}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WikipediaTrace::generate(5, 1000.0, 10.0, 9);
        let b = WikipediaTrace::generate(5, 1000.0, 10.0, 9);
        let c = WikipediaTrace::generate(5, 1000.0, 10.0, 10);
        assert_eq!(a.hourly_rates, b.hourly_rates);
        assert_ne!(a.hourly_rates, c.hourly_rates);
    }

    #[test]
    fn lookups_clamp_past_end() {
        let t = WikipediaTrace::generate(1, 1000.0, 10.0, 4);
        assert_eq!(t.rate_at(10_000_000), t.hourly_rates[23]);
        assert!(t.rate_at(0) > 0.0);
        assert!(t.wss_at(3_599) == t.hourly_wss_gb[0]);
    }

    #[test]
    fn weekend_dip_present() {
        let t = WikipediaTrace::generate(14, 100_000.0, 100.0, 5);
        let weekday_avg: f64 = t.hourly_rates[0..24].iter().sum::<f64>() / 24.0;
        let weekend_avg: f64 = t.hourly_rates[5 * 24..6 * 24].iter().sum::<f64>() / 24.0;
        assert!(weekend_avg < weekday_avg, "{weekend_avg} vs {weekday_avg}");
    }
}
