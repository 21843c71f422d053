//! Linear-regression pricing models (paper Table 1).
//!
//! The paper observes that EC2 on-demand prices are almost perfectly linear
//! in vCPU count and RAM capacity: `p = 0.0397·c + 0.0057·m` with R² = 0.99
//! for 25 US-West types, and that burstable prices are perfectly
//! proportional to RAM alone. This module re-fits both models over the
//! embedded catalog.

use crate::catalog::InstanceType;

/// A fitted `p = vcpu_unit·c + ram_unit·m` model (no intercept, matching the
/// paper's formulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceModel {
    /// Dollars per vCPU-hour.
    pub vcpu_unit: f64,
    /// Dollars per GB-hour.
    pub ram_unit: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Fits the two-predictor zero-intercept linear model over `types` by
/// ordinary least squares (normal equations).
///
/// Returns `None` when the system is singular (fewer than two independent
/// observations).
pub fn fit_price_model(types: &[InstanceType]) -> Option<PriceModel> {
    // Normal equations for p ~ a·c + b·m without intercept:
    //   [Σc²  Σcm] [a]   [Σcp]
    //   [Σcm  Σm²] [b] = [Σmp]
    let (mut scc, mut scm, mut smm, mut scp, mut smp) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for t in types {
        let (c, m, p) = (t.vcpus, t.ram_gb, t.od_price);
        scc += c * c;
        scm += c * m;
        smm += m * m;
        scp += c * p;
        smp += m * p;
    }
    let det = scc * smm - scm * scm;
    if det.abs() < 1e-12 {
        return None;
    }
    let a = (scp * smm - smp * scm) / det;
    let b = (smp * scc - scp * scm) / det;

    // R² against the mean-only model.
    let mean_p = types.iter().map(|t| t.od_price).sum::<f64>() / types.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for t in types {
        let pred = a * t.vcpus + b * t.ram_gb;
        ss_res += (t.od_price - pred).powi(2);
        ss_tot += (t.od_price - mean_p).powi(2);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Some(PriceModel {
        vcpu_unit: a,
        ram_unit: b,
        r_squared,
    })
}

/// Fits the burstable `p = ram_unit·m` single-predictor model.
pub fn fit_burstable_model(types: &[InstanceType]) -> Option<PriceModel> {
    let smm: f64 = types.iter().map(|t| t.ram_gb * t.ram_gb).sum();
    if smm < 1e-12 {
        return None;
    }
    let smp: f64 = types.iter().map(|t| t.ram_gb * t.od_price).sum();
    let b = smp / smm;
    let mean_p = types.iter().map(|t| t.od_price).sum::<f64>() / types.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for t in types {
        ss_res += (t.od_price - b * t.ram_gb).powi(2);
        ss_tot += (t.od_price - mean_p).powi(2);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Some(PriceModel {
        vcpu_unit: 0.0,
        ram_unit: b,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::REGULAR_TYPES;

    #[test]
    fn degenerate_fits_return_none() {
        assert!(fit_price_model(&[]).is_none());
        assert!(fit_burstable_model(&[]).is_none());
        // A single observation cannot pin down two coefficients.
        assert!(fit_price_model(&REGULAR_TYPES[..1]).is_none());
    }

    #[test]
    fn vcpu_is_the_expensive_resource() {
        // Section 5.5 relies on vCPU-hours being much pricier than GB-hours.
        let m = fit_price_model(REGULAR_TYPES).unwrap();
        assert!(m.vcpu_unit > 4.0 * m.ram_unit);
    }
}
