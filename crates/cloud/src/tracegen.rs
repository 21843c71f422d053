//! Synthetic spot-price trace generation (substitute for the paper's
//! 90-day EC2 price history, Figure 2).
//!
//! The generator produces a regime-switching process:
//!
//! * a **quiet regime** where the log price mean-reverts
//!   (discretized Ornstein–Uhlenbeck) around a market-specific fraction of
//!   the on-demand price (real spot markets idle at ~0.15–0.35 × OD), and
//! * a **spike regime**, entered with a market-specific hazard rate, where
//!   the price jumps to a heavy-tailed multiple of the on-demand price for a
//!   geometrically distributed duration (real markets exhibit exactly these
//!   clustered excursions above OD).
//!
//! Markets differ in seed, quiet level, hazard rate and spike height, and a
//! profile may declare *hot windows* — day ranges with elevated hazard —
//! which we use to reproduce the paper's narrative that market `m4.XL-c`
//! spikes frequently between days 30 and 60 (Figure 8).
//!
//! Everything is deterministic given the profile's seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spot::{MarketId, SpotTrace};
use crate::{DAY, TRACE_STEP};

/// Parameters of one synthetic spot market.
#[derive(Debug, Clone)]
pub struct MarketProfile {
    /// Market identity.
    pub(crate) market: MarketId,
    /// On-demand reference price for this instance type.
    pub(crate) od_price: f64,
    /// Quiet-regime mean price, as a fraction of on-demand.
    pub(crate) quiet_mean_frac: f64,
    /// Stationary standard deviation of the quiet-regime log price.
    pub(crate) quiet_sigma: f64,
    /// Per-step mean-reversion strength of the OU recursion (0, 1].
    pub(crate) mean_reversion: f64,
    /// Expected spike-regime entries per hour in normal periods.
    pub(crate) spike_hazard_per_hour: f64,
    /// Median spike height as a multiple of the on-demand price.
    pub(crate) spike_median_mult: f64,
    /// Log-normal sigma of spike heights.
    pub(crate) spike_sigma: f64,
    /// Mean spike duration, in trace steps.
    pub(crate) spike_mean_steps: f64,
    /// `(start_day, end_day, hazard_multiplier)` windows of elevated spike
    /// hazard.
    pub(crate) hot_windows: Vec<(u64, u64, f64)>,
    /// RNG seed; the whole trace is a pure function of the profile.
    pub seed: u64,
}

/// A shared regional demand shock schedule.
///
/// Spot markets in one region are *not* independent: a regional capacity
/// crunch (an AZ losing capacity, a big customer's launch) raises prices in
/// several markets at once. Each participating market joins a regional
/// shock with probability [`RegionalSpikes::coupling`], so zone-level
/// diversity helps — but less than independence would suggest. This is
/// what makes the paper's `ζ` on-demand floor worth paying for.
#[derive(Debug, Clone)]
pub(crate) struct RegionalSpikes {
    /// Shared seed: every market in the region sees the same schedule.
    pub(crate) seed: u64,
    /// Regional shock arrivals per hour.
    pub(crate) hazard_per_hour: f64,
    /// Mean shock duration, in trace steps.
    pub(crate) mean_steps: f64,
    /// Probability a given market joins a given shock.
    pub(crate) coupling: f64,
}

impl RegionalSpikes {
    /// A typical region: one shock every ~4 days, ~2 h long, 70% coupling.
    pub(crate) fn typical(seed: u64) -> Self {
        Self {
            seed,
            hazard_per_hour: 0.01,
            mean_steps: 24.0,
            coupling: 0.7,
        }
    }

    /// The deterministic shock schedule over `steps` samples: for each
    /// step, the id of the active shock (0 = none).
    fn schedule(&self, steps: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let hazard_per_step = self.hazard_per_hour * TRACE_STEP as f64 / 3_600.0;
        let mut out = vec![0u32; steps];
        let mut active = 0u32;
        let mut left = 0u32;
        let mut next_id = 1u32;
        for slot in out.iter_mut() {
            if left == 0 {
                active = 0;
                if rng.gen::<f64>() < hazard_per_step {
                    active = next_id;
                    next_id += 1;
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    left = (1.0 + u.ln() / (1.0 - 1.0 / self.mean_steps.max(1.0)).ln()) as u32;
                    left = left.max(1);
                }
            } else {
                left -= 1;
            }
            *slot = active;
        }
        out
    }
}

/// Generates [`SpotTrace`]s from [`MarketProfile`]s.
#[derive(Debug, Default)]
pub struct TraceGenerator;

impl TraceGenerator {
    /// Generates a `days`-long trace at the standard 5-minute resolution.
    pub fn generate(profile: &MarketProfile, days: u64) -> SpotTrace {
        Self::generate_in_region(profile, days, None)
    }

    /// Generates a trace whose spikes additionally include the region's
    /// shared shocks (when `region` is given).
    pub(crate) fn generate_in_region(
        profile: &MarketProfile,
        days: u64,
        region: Option<&RegionalSpikes>,
    ) -> SpotTrace {
        let steps = (days * DAY / TRACE_STEP) as usize;
        let mut rng = StdRng::seed_from_u64(profile.seed);
        let mut prices = Vec::with_capacity(steps);
        let regional = region.map(|r| (r.schedule(steps), r.coupling));
        // Per-market membership decision per shock id (deterministic).
        let mut joined: std::collections::HashMap<u32, bool> = std::collections::HashMap::new();
        let mut membership_rng = StdRng::seed_from_u64(profile.seed ^ 0xDEAD_BEEF);

        let quiet_mu = (profile.quiet_mean_frac * profile.od_price).ln();
        // OU recursion x' = x + k(mu - x) + eps, eps ~ N(0, s) chosen so the
        // stationary std equals quiet_sigma.
        let k = profile.mean_reversion;
        let eps_sigma = profile.quiet_sigma * (k * (2.0 - k)).sqrt();

        let mut log_price = quiet_mu;
        let mut spike_left = 0u32; // remaining steps in the current spike
        let mut spike_level = 0.0f64;
        let hazard_per_step = profile.spike_hazard_per_hour * TRACE_STEP as f64 / 3_600.0;

        for i in 0..steps {
            let day = i as u64 * TRACE_STEP / DAY;
            let mult = profile
                .hot_windows
                .iter()
                .find(|&&(s, e, _)| day >= s && day < e)
                .map_or(1.0, |&(_, _, m)| m);

            // Join any active regional shock this market is coupled to.
            if let Some((schedule, coupling)) = &regional {
                let shock = schedule[i];
                if shock != 0 && spike_left == 0 {
                    let joins = *joined
                        .entry(shock)
                        .or_insert_with(|| membership_rng.gen::<f64>() < *coupling);
                    if joins {
                        let z: f64 = sample_standard_normal(&mut rng);
                        let height = profile.spike_median_mult * (profile.spike_sigma * z).exp();
                        spike_level =
                            (height.max(1.05) * profile.od_price).min(10.0 * profile.od_price);
                        // Ride the shock until the schedule releases it.
                        spike_left =
                            schedule[i..].iter().take_while(|&&s| s == shock).count() as u32;
                    }
                }
            }

            if spike_left == 0 && rng.gen::<f64>() < hazard_per_step * mult {
                // Enter the spike regime.
                let z: f64 = sample_standard_normal(&mut rng);
                let height = profile.spike_median_mult * (profile.spike_sigma * z).exp();
                spike_level = (height.max(1.05) * profile.od_price).min(10.0 * profile.od_price);
                let mean = profile.spike_mean_steps.max(1.0);
                // Geometric duration with the requested mean.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                spike_left = (1.0 + u.ln() / (1.0 - 1.0 / mean).max(1e-9).ln()) as u32;
                spike_left = spike_left.max(1);
            }

            let price = if spike_left > 0 {
                spike_left -= 1;
                // Small within-spike wobble keeps spikes from being flat.
                let z: f64 = sample_standard_normal(&mut rng);
                (spike_level * (0.03 * z).exp()).min(10.0 * profile.od_price)
            } else {
                let z: f64 = sample_standard_normal(&mut rng);
                log_price += k * (quiet_mu - log_price) + eps_sigma * z;
                log_price
                    .exp()
                    .clamp(0.05 * profile.od_price, 10.0 * profile.od_price)
            };
            prices.push(round_price(price));
        }

        SpotTrace::new(profile.market.clone(), profile.od_price, prices)
    }
}

/// EC2 publishes prices with 4 decimal digits.
fn round_price(p: f64) -> f64 {
    (p * 10_000.0).round() / 10_000.0
}

fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    // Box-Muller; rand's distributions module is avoided to keep the
    // dependency surface small.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The four spot markets of the paper's evaluation (Section 5.1):
/// m4.large and m4.xlarge in us-east-1c and us-east-1d.
///
/// `m4.XL-c` carries an elevated-hazard window over days 30–60 so the
/// Figure 8 narrative (frequent failures of the low bid in that interval)
/// reproduces.
pub fn paper_markets() -> Vec<MarketProfile> {
    let m4l_od = 0.12;
    let m4xl_od = 0.239;
    vec![
        MarketProfile {
            market: MarketId::new("m4.large", "us-east-1c"),
            od_price: m4l_od,
            quiet_mean_frac: 0.22,
            quiet_sigma: 0.10,
            mean_reversion: 0.08,
            spike_hazard_per_hour: 0.010,
            spike_median_mult: 2.0,
            spike_sigma: 0.45,
            spike_mean_steps: 4.0,
            hot_windows: vec![],
            seed: 0x5eed_0001,
        },
        MarketProfile {
            market: MarketId::new("m4.large", "us-east-1d"),
            od_price: m4l_od,
            quiet_mean_frac: 0.26,
            quiet_sigma: 0.14,
            mean_reversion: 0.06,
            spike_hazard_per_hour: 0.018,
            spike_median_mult: 2.2,
            spike_sigma: 0.5,
            spike_mean_steps: 6.0,
            hot_windows: vec![(40, 50, 3.0)],
            seed: 0x5eed_0002,
        },
        MarketProfile {
            market: MarketId::new("m4.xlarge", "us-east-1c"),
            od_price: m4xl_od,
            quiet_mean_frac: 0.20,
            quiet_sigma: 0.12,
            mean_reversion: 0.07,
            spike_hazard_per_hour: 0.012,
            spike_median_mult: 2.0,
            spike_sigma: 0.5,
            spike_mean_steps: 5.0,
            // The Figure 8 market: heavy spiking between days 30 and 60.
            hot_windows: vec![(30, 60, 8.0)],
            seed: 0x5eed_0003,
        },
        MarketProfile {
            market: MarketId::new("m4.xlarge", "us-east-1d"),
            od_price: m4xl_od,
            quiet_mean_frac: 0.24,
            quiet_sigma: 0.11,
            mean_reversion: 0.08,
            spike_hazard_per_hour: 0.008,
            spike_median_mult: 1.8,
            spike_sigma: 0.45,
            spike_mean_steps: 4.0,
            hot_windows: vec![],
            seed: 0x5eed_0004,
        },
    ]
}

/// Generates the four paper-evaluation traces for `days` days.
pub fn paper_traces(days: u64) -> Vec<SpotTrace> {
    paper_markets()
        .iter()
        .map(|p| TraceGenerator::generate(p, days))
        .collect()
}

/// The paper-evaluation markets with a shared `us-east-1` shock schedule —
/// the correlated-failure variant used by the `correlated_failures`
/// experiment.
pub fn correlated_paper_traces(days: u64) -> Vec<SpotTrace> {
    let region = RegionalSpikes::typical(0x0511_0511);
    paper_markets()
        .iter()
        .map(|p| TraceGenerator::generate_in_region(p, days, Some(&region)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spot::Bid;

    #[test]
    fn traces_are_deterministic() {
        let p = &paper_markets()[0];
        let a = TraceGenerator::generate(p, 10);
        let b = TraceGenerator::generate(p, 10);
        assert_eq!(a.prices, b.prices);
    }

    #[test]
    fn trace_has_expected_length_and_bounds() {
        let p = &paper_markets()[0];
        let t = TraceGenerator::generate(p, 90);
        assert_eq!(t.prices.len(), 90 * 288);
        for &price in &t.prices {
            assert!(price >= 0.05 * p.od_price - 1e-9);
            assert!(price <= 10.0 * p.od_price + 1e-9);
        }
    }

    #[test]
    fn quiet_price_is_well_below_od() {
        // The defining economics: spot idles far below on-demand.
        for p in paper_markets() {
            let t = TraceGenerator::generate(&p, 90);
            let mut sorted = t.prices.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            assert!(
                median < 0.5 * p.od_price,
                "{}: median {median} vs od {}",
                p.market,
                p.od_price
            );
        }
    }

    #[test]
    fn spikes_above_od_exist_but_are_rare() {
        for p in paper_markets() {
            let t = TraceGenerator::generate(&p, 90);
            let above = t.prices.iter().filter(|&&x| x > p.od_price).count();
            let frac = above as f64 / t.prices.len() as f64;
            assert!(frac > 0.0, "{}: no spikes at all", p.market);
            assert!(frac < 0.25, "{}: spiking {frac:.2} of the time", p.market);
        }
    }

    #[test]
    fn hot_window_concentrates_failures_in_xl_c() {
        // Figure 8: the m4.XL-c market fails the 1d bid frequently in days
        // 30-60 and rarely elsewhere.
        let p = paper_markets().remove(2);
        assert_eq!(p.market.short_label(), "m4.XL-c");
        let t = TraceGenerator::generate(&p, 90);
        let bid = Bid(p.od_price);
        let in_window = 1.0 - t.availability(30 * DAY, 60 * DAY, bid);
        let outside = 1.0 - t.availability(0, 30 * DAY, bid);
        assert!(
            in_window > 2.0 * outside.max(1e-4),
            "in-window failure frac {in_window} vs outside {outside}"
        );
    }

    #[test]
    fn regional_shocks_correlate_markets() {
        // Joint above-OD exceedance across correlated markets must far
        // exceed the product of marginals (the independence prediction).
        let days = 90;
        let correlated = correlated_paper_traces(days);
        let (a, b) = (&correlated[0], &correlated[2]);
        let n = a.prices.len().min(b.prices.len());
        let above = |t: &SpotTrace, i: usize| t.prices[i] > t.od_price;
        let pa = (0..n).filter(|&i| above(a, i)).count() as f64 / n as f64;
        let pb = (0..n).filter(|&i| above(b, i)).count() as f64 / n as f64;
        let joint = (0..n).filter(|&i| above(a, i) && above(b, i)).count() as f64 / n as f64;
        assert!(pa > 0.0 && pb > 0.0);
        assert!(
            joint > 5.0 * pa * pb,
            "joint {joint} vs independent {:.6}",
            pa * pb
        );
        // Independent generation stays (nearly) uncorrelated.
        let indep = paper_traces(days);
        let (c, d) = (&indep[0], &indep[2]);
        let pc = (0..n).filter(|&i| above(c, i)).count() as f64 / n as f64;
        let pd = (0..n).filter(|&i| above(d, i)).count() as f64 / n as f64;
        let joint_i = (0..n).filter(|&i| above(c, i) && above(d, i)).count() as f64 / n as f64;
        assert!(
            joint_i < 5.0 * (pc * pd).max(1e-5),
            "independent joint {joint_i}"
        );
    }

    #[test]
    fn regional_generation_is_deterministic() {
        let a = correlated_paper_traces(10);
        let b = correlated_paper_traces(10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.prices, y.prices);
        }
    }

    #[test]
    fn high_bid_is_nearly_always_available() {
        for p in paper_markets() {
            let t = TraceGenerator::generate(&p, 90);
            let avail = t.availability(0, t.end(), Bid(5.0 * p.od_price));
            assert!(avail > 0.9, "{}: 5d availability {avail}", p.market);
        }
    }
}
