//! Allocation plans: the optimizer's output, consumed by the controller.

use crate::problem::{Offer, WorkloadForecast};

/// One offer's share of the plan.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    /// The offer.
    pub offer: Offer,
    /// Instances to run under this offer (`N + Ñ`).
    pub count: u32,
    /// Hot working-set fraction placed here (`x`).
    pub hot_frac: f64,
    /// Cold working-set fraction placed here (`y`).
    pub cold_frac: f64,
}

impl PlanEntry {
    /// Change versus the offer's currently-running count (`Ñ`; negative
    /// means deallocate).
    pub fn delta(&self) -> i64 {
        self.count as i64 - self.offer.existing as i64
    }

    /// Per-instance hot weight (the paper distributes weights evenly among
    /// instances of the same market/bid).
    pub fn hot_weight_per_instance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.hot_frac / self.count as f64
        }
    }

    /// Per-instance cold weight.
    pub fn cold_weight_per_instance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cold_frac / self.count as f64
        }
    }
}

/// A complete allocation for one control slot.
#[derive(Debug, Clone)]
pub struct AllocationPlan {
    /// Per-offer assignments.
    pub entries: Vec<PlanEntry>,
    /// Modeled slot cost (resources + penalties), dollars.
    pub cost: f64,
    /// The optimum `z_LP` of the LP relaxation the solve started from,
    /// dollars: no plan with integer counts costs less, so
    /// [`Self::certified_gap`] bounds how far `cost` is from the best
    /// plan. 0 for a plan built with `Self::new`.
    pub(crate) relaxed_cost: f64,
    /// Slot length, hours.
    pub(crate) slot_hours: f64,
    /// LPs the solve ran: the relaxation, the rounded-up counts and every
    /// count-walk step it did not skip. 0 for a plan built with
    /// `Self::new`.
    pub lps_solved: u32,
    /// Count-walk steps the solve skipped unsolved because their counts'
    /// RAM or rate, in total or on the on-demand or spot offers, fell short
    /// of what the LP demands there — each an LP that could only have come
    /// back infeasible.
    pub lps_skipped: u32,
    /// Simplex pivots summed over the plan's feasible solves (the
    /// relaxation and every fixed-count LP that came back with a
    /// placement; `crate::simplex::LpSolution::pivots`).
    pub lp_pivots: u32,
}

impl AllocationPlan {
    /// Creates a plan.
    pub(crate) fn new(entries: Vec<PlanEntry>, cost: f64, slot_hours: f64) -> Self {
        Self {
            entries,
            cost,
            relaxed_cost: 0.0,
            slot_hours,
            lps_solved: 0,
            lps_skipped: 0,
            lp_pivots: 0,
        }
    }

    /// `cost / relaxed_cost − 1`: an upper bound on the plan's relative
    /// distance from the cheapest integer plan. 0 when the relaxation costs
    /// nothing.
    pub fn certified_gap(&self) -> f64 {
        if self.relaxed_cost > 0.0 {
            self.cost / self.relaxed_cost - 1.0
        } else {
            0.0
        }
    }

    /// Total instances across all offers.
    pub fn total_instances(&self) -> u32 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Instances on spot offers.
    pub fn spot_instances(&self) -> u32 {
        self.entries
            .iter()
            .filter(|e| e.offer.kind.is_spot())
            .map(|e| e.count)
            .sum()
    }

    /// Hot working-set fraction placed on spot offers (this is what the
    /// passive backup must replicate).
    pub fn hot_on_spot(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.offer.kind.is_spot())
            .map(|e| e.hot_frac)
            .sum()
    }

    /// Modeled resource-only cost of the slot (no penalties), dollars.
    pub fn resource_cost(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.offer.price * self.slot_hours * e.count as f64)
            .sum()
    }

    /// Panics unless the plan satisfies every constraint of `workload`
    /// (test support).
    #[doc(hidden)]
    pub fn assert_feasible(&self, workload: &WorkloadForecast) {
        let hot: f64 = self.entries.iter().map(|e| e.hot_frac).sum();
        let cold: f64 = self.entries.iter().map(|e| e.cold_frac).sum();
        assert!((hot - workload.hot_frac).abs() < 1e-6, "hot mass {hot}");
        assert!(
            (cold - (workload.alpha - workload.hot_frac)).abs() < 1e-6,
            "cold mass {cold}"
        );
        let r_h = workload.rate * workload.f_hot / workload.hot_frac;
        let cold_span = workload.alpha - workload.hot_frac;
        let r_c = if cold_span > 1e-12 {
            workload.rate * (workload.f_alpha - workload.f_hot) / cold_span
        } else {
            0.0
        };
        for e in &self.entries {
            let ram_need = (e.hot_frac + e.cold_frac) * workload.wss_gb;
            let ram_have = e.count as f64 * e.offer.usable_ram_gb;
            assert!(
                ram_have + 1e-6 >= ram_need,
                "{}: ram {ram_have} < {ram_need}",
                e.offer.label
            );
            let rate_need = e.hot_frac * r_h + e.cold_frac * r_c;
            let rate_have = e.count as f64 * e.offer.max_rate;
            assert!(
                rate_have + 1e-3 >= rate_need,
                "{}: rate {rate_have} < {rate_need}",
                e.offer.label
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::OfferKind;
    use spotcache_cloud::catalog::find_type;

    fn entry(count: u32, hot: f64, cold: f64, spot: bool, existing: u32) -> PlanEntry {
        let itype = find_type("m4.large").unwrap();
        PlanEntry {
            offer: Offer {
                label: "t".into(),
                itype,
                kind: if spot {
                    OfferKind::Spot {
                        market: spotcache_cloud::spot::MarketId::new("m4.large", "us-east-1d"),
                        bid: spotcache_cloud::spot::Bid(0.12),
                    }
                } else {
                    OfferKind::OnDemand
                },
                price: 0.1,
                lifetime_hours: 10.0,
                existing,
                max_rate: 10_000.0,
                usable_ram_gb: 6.8,
            },
            count,
            hot_frac: hot,
            cold_frac: cold,
        }
    }

    #[test]
    fn weights_distribute_evenly() {
        let e = entry(4, 0.2, 0.4, true, 0);
        assert!((e.hot_weight_per_instance() - 0.05).abs() < 1e-12);
        assert!((e.cold_weight_per_instance() - 0.1).abs() < 1e-12);
        let zero = entry(0, 0.0, 0.0, true, 0);
        assert_eq!(zero.hot_weight_per_instance(), 0.0);
    }

    #[test]
    fn delta_tracks_existing() {
        assert_eq!(entry(5, 0.0, 0.0, false, 3).delta(), 2);
        assert_eq!(entry(1, 0.0, 0.0, false, 3).delta(), -2);
    }

    #[test]
    fn aggregates() {
        let plan = AllocationPlan::new(
            vec![entry(3, 0.05, 0.2, false, 0), entry(5, 0.05, 0.7, true, 0)],
            1.23,
            1.0,
        );
        assert_eq!(plan.total_instances(), 8);
        assert_eq!(plan.spot_instances(), 5);
        assert!((plan.hot_on_spot() - 0.05).abs() < 1e-12);
        assert!((plan.resource_cost() - 0.8).abs() < 1e-12);
    }
}
