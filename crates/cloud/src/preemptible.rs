//! GCE-style preemptible instances (paper Section 1).
//!
//! The paper notes that Google Compute Engine's preemptible VMs, "despite
//! operational differences from EC2 spot instances, similarly offer lower
//! prices for poorer availability". The operational differences matter for
//! procurement:
//!
//! * **fixed price** — a flat ~70–80% discount off on-demand; no bidding,
//!   no price-driven revocation,
//! * **random preemption** — the provider reclaims capacity at its own
//!   discretion (empirically a roughly constant hazard, higher in busy
//!   zones), with a 30-second warning, and
//! * **24-hour cap** — a preemptible VM is always terminated within 24 h.
//!
//! This module prices such a market: the fixed discount, and a
//! conservative lifetime — a low quantile of the capped exponential the
//! hazard implies, the counterpart of the spot model's lifetime percentile
//! — so `repro preemptible_compare` can set it beside a spot market (the
//! "other cloud providers are likely to offer similar cheap instances"
//! generality the paper's conclusion claims). No substrate samples a
//! preemption.

/// A preemptible market: fixed discount, a constant preemption hazard.
#[derive(Debug, Clone)]
pub struct PreemptibleMarket {
    /// On-demand price of the equivalent machine type, $/h.
    pub(crate) od_price: f64,
    /// Fixed preemptible price, $/h (GCE: ~20–30% of on-demand).
    pub price: f64,
    /// Mean preemptions per instance-hour (empirical hazard).
    pub preemption_hazard_per_hour: f64,
}

impl PreemptibleMarket {
    /// A typical GCE-like market: 80% discount, ~5%/hour hazard.
    pub fn typical(od_price: f64) -> Self {
        Self {
            od_price,
            price: 0.2 * od_price,
            preemption_hazard_per_hour: 0.05,
        }
    }

    /// A *conservative* lifetime estimate analogous to the spot model's
    /// low percentile: the `q`-quantile of the capped exponential.
    pub fn lifetime_quantile_hours(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if self.preemption_hazard_per_hour <= 0.0 {
            return 24.0;
        }
        let t = -(1.0 - q).ln() / self.preemption_hazard_per_hour;
        t.min(24.0)
    }

    /// Fraction of the on-demand price paid.
    pub fn discount(&self) -> f64 {
        1.0 - self.price / self.od_price
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market() -> PreemptibleMarket {
        PreemptibleMarket::typical(0.095)
    }

    #[test]
    fn typical_pricing() {
        let m = market();
        assert!((m.price - 0.019).abs() < 1e-12);
        assert!((m.discount() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_conservative() {
        let m = market();
        let q05 = m.lifetime_quantile_hours(0.05);
        // 5th percentile of Exp(0.05/h) ≈ 1.03 h.
        assert!((0.9..1.2).contains(&q05), "{q05}");
        assert_eq!(m.lifetime_quantile_hours(1.0), 24.0);
    }
}
