//! AR(2) workload predictors (paper Section 4.1).
//!
//! The optimizer needs one-slot-ahead forecasts of the request arrival rate
//! `λ̂_t` and the working-set size `M̂_t`. The paper suggests an AR(2) model
//! `x̂_t = γ₁ x_{t-1} + γ₂ x_{t-2}`; we fit the coefficients by ordinary
//! least squares over the observed history and refresh them on every
//! observation.

/// Observations a forecaster fits over: one week of hourly slots.
const MAX_HISTORY: usize = 168;

/// An online AR(2) forecaster over the last week (168 observations).
#[derive(Debug, Clone, Default)]
pub struct Ar2 {
    history: Vec<f64>,
}

impl Ar2 {
    /// Records an observation, dropping the oldest beyond the last week.
    pub fn observe(&mut self, x: f64) {
        self.history.push(x);
        if self.history.len() > MAX_HISTORY {
            let excess = self.history.len() - MAX_HISTORY;
            self.history.drain(..excess);
        }
    }

    /// Fits `(γ₁, γ₂)` by least squares; `None` with fewer than 4
    /// observations or a singular design.
    pub(crate) fn coefficients(&self) -> Option<(f64, f64)> {
        let h = &self.history;
        if h.len() < 4 {
            return None;
        }
        // Rows: x_t ~ g1*x_{t-1} + g2*x_{t-2}.
        let (mut s11, mut s12, mut s22, mut s1y, mut s2y) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for t in 2..h.len() {
            let (x1, x2, y) = (h[t - 1], h[t - 2], h[t]);
            s11 += x1 * x1;
            s12 += x1 * x2;
            s22 += x2 * x2;
            s1y += x1 * y;
            s2y += x2 * y;
        }
        let det = s11 * s22 - s12 * s12;
        if det.abs() < 1e-9 * (s11 * s22).max(1.0) {
            // Near-singular (e.g. constant series): fall back to persistence.
            return Some((1.0, 0.0));
        }
        let g1 = (s1y * s22 - s2y * s12) / det;
        let g2 = (s2y * s11 - s1y * s12) / det;
        Some((g1, g2))
    }

    /// One-step-ahead forecast.
    ///
    /// Falls back to persistence (last value) with short history, and to
    /// `None` with no history at all. Forecasts are floored at zero since
    /// the modeled quantities (rates, sizes) are non-negative.
    pub fn forecast(&self) -> Option<f64> {
        let h = &self.history;
        match h.len() {
            0 => None,
            1..=3 => Some(h[h.len() - 1]),
            _ => {
                let (g1, g2) = self.coefficients()?;
                Some((g1 * h[h.len() - 1] + g2 * h[h.len() - 2]).max(0.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_forecast() {
        assert!(Ar2::default().forecast().is_none());
    }

    #[test]
    fn short_history_uses_persistence() {
        let mut m = Ar2::default();
        m.observe(10.0);
        assert_eq!(m.forecast(), Some(10.0));
        m.observe(20.0);
        assert_eq!(m.forecast(), Some(20.0));
    }

    #[test]
    fn constant_series_forecasts_the_constant() {
        let mut m = Ar2::default();
        for _ in 0..20 {
            m.observe(42.0);
        }
        let f = m.forecast().unwrap();
        assert!((f - 42.0).abs() < 1e-6, "{f}");
    }

    #[test]
    fn linear_trend_is_tracked() {
        // x_t = t satisfies x_t = 2x_{t-1} - x_{t-2} exactly.
        let mut m = Ar2::default();
        for t in 1..=30 {
            m.observe(t as f64);
        }
        let f = m.forecast().unwrap();
        assert!((f - 31.0).abs() < 1e-3, "{f}");
    }

    #[test]
    fn sinusoid_is_fit_exactly() {
        // cos(wt) satisfies an exact AR(2) recurrence with g1 = 2cos(w).
        let w = 0.3f64;
        let mut m = Ar2::default();
        for t in 0..200 {
            m.observe(100.0 + 50.0 * (w * t as f64).cos());
        }
        // An AR(2) without intercept cannot capture the mean shift exactly,
        // but the forecast should still be in the right neighbourhood.
        let f = m.forecast().unwrap();
        let actual = 100.0 + 50.0 * (w * 200.0).cos();
        assert!((f - actual).abs() < 20.0, "forecast {f}, actual {actual}");
    }

    #[test]
    fn forecasts_are_non_negative() {
        let mut m = Ar2::default();
        for x in [100.0, 50.0, 10.0, 1.0, 0.5, 0.1] {
            m.observe(x);
        }
        assert!(m.forecast().unwrap() >= 0.0);
    }

    #[test]
    fn bounded_history_drops_old_samples() {
        let mut m = Ar2::default();
        for t in 0..2 * MAX_HISTORY {
            m.observe(t as f64);
        }
        assert_eq!(m.history.len(), MAX_HISTORY);
        assert_eq!(m.history[0], MAX_HISTORY as f64, "the oldest go first");
    }
}
