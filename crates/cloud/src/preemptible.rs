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
//! This module models those semantics and adapts them to the optimizer's
//! offer interface, so the same controller can procure from either kind of
//! market — the "other cloud providers are likely to offer similar cheap
//! instances" generality the paper's conclusion claims.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hard lifetime cap of a preemptible VM (24 hours).
pub const MAX_LIFETIME: u64 = 24 * crate::HOUR;

/// A preemptible market: fixed discount, random reclamation.
#[derive(Debug, Clone)]
pub struct PreemptibleMarket {
    /// Market label (e.g. `"us-central1-a/n1-standard-2"`).
    pub name: String,
    /// On-demand price of the equivalent machine type, $/h.
    pub od_price: f64,
    /// Fixed preemptible price, $/h (GCE: ~20–30% of on-demand).
    pub price: f64,
    /// Mean preemptions per instance-hour (empirical hazard).
    pub preemption_hazard_per_hour: f64,
    /// Seed for preemption sampling.
    pub seed: u64,
}

impl PreemptibleMarket {
    /// A typical GCE-like market: 80% discount, ~5%/hour hazard.
    pub fn typical(name: impl Into<String>, od_price: f64, seed: u64) -> Self {
        Self {
            name: name.into(),
            od_price,
            price: 0.2 * od_price,
            preemption_hazard_per_hour: 0.05,
            seed,
        }
    }

    /// Expected lifetime of an instance, hours — `min(1/hazard, 24)`
    /// because of the hard cap.
    pub fn expected_lifetime_hours(&self) -> f64 {
        if self.preemption_hazard_per_hour <= 0.0 {
            return 24.0;
        }
        // E[min(Exp(h), 24)] = (1 - e^{-24 h}) / h.
        (1.0 - (-24.0 * self.preemption_hazard_per_hour).exp()) / self.preemption_hazard_per_hour
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

    /// Samples the lifetime (seconds) of an instance launched at `launch`
    /// (deterministic per (market seed, launch time)).
    pub fn sample_lifetime(&self, launch: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(self.seed ^ launch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if self.preemption_hazard_per_hour <= 0.0 {
            return MAX_LIFETIME;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let hours = -u.ln() / self.preemption_hazard_per_hour;
        ((hours * 3_600.0) as u64).min(MAX_LIFETIME)
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
        PreemptibleMarket::typical("us-central1-a/n1-standard-2", 0.095, 42)
    }

    #[test]
    fn typical_pricing() {
        let m = market();
        assert!((m.price - 0.019).abs() < 1e-12);
        assert!((m.discount() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn expected_lifetime_respects_the_cap() {
        let m = market();
        // 5%/h hazard → mean ~14 h after capping at 24 h.
        let e = m.expected_lifetime_hours();
        assert!((13.0..15.0).contains(&e), "{e}");
        let mut hazardless = market();
        hazardless.preemption_hazard_per_hour = 0.0;
        assert_eq!(hazardless.expected_lifetime_hours(), 24.0);
        let mut hot = market();
        hot.preemption_hazard_per_hour = 2.0;
        assert!(hot.expected_lifetime_hours() < 1.0);
    }

    #[test]
    fn quantile_is_conservative() {
        let m = market();
        let q05 = m.lifetime_quantile_hours(0.05);
        // 5th percentile of Exp(0.05/h) ≈ 1.03 h.
        assert!((0.9..1.2).contains(&q05), "{q05}");
        assert!(q05 < m.expected_lifetime_hours());
        assert_eq!(m.lifetime_quantile_hours(1.0), 24.0);
    }

    #[test]
    fn sampled_lifetimes_are_deterministic_and_capped() {
        let m = market();
        let a = m.sample_lifetime(1000);
        let b = m.sample_lifetime(1000);
        assert_eq!(a, b);
        for launch in 0..200 {
            assert!(m.sample_lifetime(launch * 3_600) <= MAX_LIFETIME);
        }
    }

    #[test]
    fn sampled_lifetimes_match_the_hazard() {
        let m = market();
        let mean: f64 = (0..2_000)
            .map(|i| m.sample_lifetime(i * 7_919) as f64 / 3_600.0)
            .sum::<f64>()
            / 2_000.0;
        let expect = m.expected_lifetime_hours();
        assert!(
            (mean - expect).abs() / expect < 0.1,
            "mean {mean} vs {expect}"
        );
    }
}
