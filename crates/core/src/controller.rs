//! The global controller (paper Section 4.2).
//!
//! Once per control slot the controller: refreshes its AR(2) workload
//! forecasts, predicts spot features for every (market, bid) pair with the
//! approach's predictor, derives the hot-set size from the popularity
//! model, builds the [`ProcurementProblem`] and solves it, and finally
//! sizes the passive backup (for approaches that carry one). The result is
//! a [`SlotPlan`] — everything the load balancer and the provider need for
//! the next slot.

use std::collections::HashMap;

use spotcache_cloud::catalog::{find_type, memcached_od_candidates};
use spotcache_cloud::spot::{Bid, SpotTrace};
use spotcache_optimizer::latency::LatencyProfile;
use spotcache_optimizer::problem::{
    CostModel, Offer, OfferKind, ProcurementProblem, SolveError, WorkloadForecast,
};
use spotcache_optimizer::AllocationPlan;
use spotcache_spotmodel::{Ar2, CdfPredictor, SpotPredictor, TemporalPredictor};
use spotcache_workload::zipf::PopularityModel;

use crate::approaches::Approach;
use crate::backup::{size_backup, BackupPlan};

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// The procurement approach driving offer construction.
    pub approach: Approach,
    /// Bid multiples of the on-demand price (paper: `{1, 5}`).
    pub bid_multiples: Vec<f64>,
    /// Optimizer cost coefficients.
    pub cost: CostModel,
    /// Performance profile.
    pub profile: LatencyProfile,
    /// Mean-latency target, µs (paper: 800).
    pub target_avg_us: f64,
    /// p95 latency target, µs (paper: 1000).
    pub target_p95_us: f64,
    /// Fraction of the working set kept memory-resident (`α`).
    pub alpha: f64,
    /// Access mass defining the hot set (paper: 0.9).
    pub hot_mass: f64,
    /// Predictor sliding window, seconds (paper: 7 days).
    pub window: u64,
    /// Lifetime percentile for the temporal predictor (paper: 0.05).
    pub lifetime_percentile: f64,
    /// Cache item size, bytes.
    pub item_bytes: f64,
}

impl ControllerConfig {
    /// Paper-default configuration for an approach.
    pub fn paper_default(approach: Approach) -> Self {
        Self {
            approach,
            bid_multiples: vec![1.0, 5.0],
            cost: CostModel::paper_default(),
            profile: LatencyProfile::paper_default(),
            target_avg_us: 800.0,
            target_p95_us: 1_000.0,
            alpha: 1.0,
            hot_mass: 0.9,
            window: 7 * spotcache_cloud::DAY,
            lifetime_percentile: 0.05,
            item_bytes: 4_096.0,
        }
    }
}

/// The controller's output for one slot.
#[derive(Debug, Clone)]
pub struct SlotPlan {
    /// The solved allocation.
    pub alloc: AllocationPlan,
    /// The sized passive backup (empty for approaches without one).
    pub backup: BackupPlan,
    /// The hot fraction `H` used this slot.
    pub hot_frac: f64,
    /// The workload forecast the plan was built against.
    pub forecast: WorkloadForecast,
}

/// The global controller.
#[derive(Debug)]
pub struct GlobalController {
    cfg: ControllerConfig,
    temporal: TemporalPredictor,
    cdf: CdfPredictor,
    rate_model: Ar2,
    wss_model: Ar2,
    /// Running instance counts per offer label (`N_t` in the paper).
    existing: HashMap<String, u32>,
    /// Cache of hot-fraction computations keyed by (rounded item count,
    /// theta in millis) — each miss builds a `PopularityModel`, which sums
    /// a 100 000-term harmonic head. Values are `(H, F(H))`.
    hot_frac_cache: HashMap<(u64, u64), (f64, f64)>,
}

impl GlobalController {
    /// Creates a controller.
    pub fn new(cfg: ControllerConfig) -> Self {
        let temporal = TemporalPredictor::new(cfg.window, cfg.lifetime_percentile);
        let cdf = CdfPredictor::new(cfg.window);
        Self {
            cfg,
            temporal,
            cdf,
            rate_model: Ar2::with_max_history(168),
            wss_model: Ar2::with_max_history(168),
            existing: HashMap::new(),
            hot_frac_cache: HashMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Feeds the workload models one slot's observed rate and working set.
    pub fn observe(&mut self, rate: f64, wss_gb: f64) {
        self.rate_model.observe(rate);
        self.wss_model.observe(wss_gb);
    }

    /// One-slot-ahead workload forecast; `None` before any observation.
    pub fn forecast(&self) -> Option<(f64, f64)> {
        Some((self.rate_model.forecast()?, self.wss_model.forecast()?))
    }

    /// Records that `count` instances of `label` were revoked (so the next
    /// slot's deallocation damping does not bill for them).
    pub fn on_revocation(&mut self, label: &str, count: u32) {
        if let Some(n) = self.existing.get_mut(label) {
            *n = n.saturating_sub(count);
        }
    }

    /// Current running count for an offer label.
    pub fn existing(&self, label: &str) -> u32 {
        self.existing.get(label).copied().unwrap_or(0)
    }

    /// Smallest hot set the controller will plan for, in items.
    ///
    /// At extreme skews (Zipf 2.0) the 90%-of-accesses set can be a handful
    /// of keys; a real deployment still tracks and replicates a reasonable
    /// head of the key space (single keys cannot be spread across nodes by
    /// consistent hashing), so the hot set is floored here and its actual
    /// access mass `F(H)` recomputed.
    pub const MIN_HOT_ITEMS: u64 = 4_096;

    /// The hot working-set fraction `H` and its access mass `F(H)` for
    /// `wss_gb` at skew `theta` (cached).
    pub fn hot_fraction(&mut self, wss_gb: f64, theta: f64) -> (f64, f64) {
        let n_items = ((wss_gb * (1u64 << 30) as f64 / self.cfg.item_bytes).max(1.0)) as u64;
        // Round to ~2 significant figures for cache hits across similar
        // working-set sizes.
        let mut rounded = n_items;
        let mut scale = 1u64;
        while rounded >= 100 {
            rounded /= 10;
            scale *= 10;
        }
        let key = (rounded * scale, (theta * 1000.0) as u64);
        let hot_mass = self.cfg.hot_mass;
        *self.hot_frac_cache.entry(key).or_insert_with(|| {
            let n = key.0.max(1);
            let model = PopularityModel::new(n, theta);
            let floor = (Self::MIN_HOT_ITEMS.min(n) as f64 / n as f64).min(1.0);
            let h = model.hot_fraction(hot_mass).max(floor);
            let f_h = model.access_mass(h).max(hot_mass.min(1.0));
            (h, f_h)
        })
    }

    /// Builds the offer set for the current slot.
    pub fn build_offers(&self, traces: &[&SpotTrace], now: u64) -> Vec<Offer> {
        let hit_budget = self
            .cfg
            .profile
            .hit_budget_us(self.cfg.target_avg_us, 1.0)
            .unwrap_or(self.cfg.target_avg_us);
        let p95_budget = self.cfg.target_p95_us;
        let mut offers = Vec::new();
        for itype in memcached_od_candidates() {
            let label = format!("od:{}", itype.name);
            offers.push(Offer {
                existing: self.existing(&label),
                label,
                kind: OfferKind::OnDemand,
                price: itype.od_price,
                lifetime_hours: f64::INFINITY,
                max_rate: self
                    .cfg
                    .profile
                    .max_rate_for_targets(&itype, hit_budget, p95_budget, false),
                usable_ram_gb: itype.ram_gb * 0.85,
                itype,
            });
        }
        if !self.cfg.approach.uses_spot() {
            return offers;
        }
        let predictor: &dyn SpotPredictor = if self.cfg.approach.uses_our_spot_modeling() {
            &self.temporal
        } else {
            &self.cdf
        };
        for trace in traces {
            let Some(itype) = find_type(&trace.market.instance_type) else {
                continue;
            };
            for &mult in &self.cfg.bid_multiples {
                let bid = Bid::times_od(mult, trace.od_price);
                let Some(features) = predictor.predict(trace, now, bid) else {
                    continue;
                };
                let lifetime_hours = features.lifetime / 3_600.0;
                if lifetime_hours <= 0.0 {
                    continue;
                }
                let label = format!("{}@{}d", trace.market.short_label(), mult);
                offers.push(Offer {
                    existing: self.existing(&label),
                    label,
                    kind: OfferKind::Spot {
                        market: trace.market.clone(),
                        bid,
                    },
                    price: features.avg_price,
                    lifetime_hours,
                    max_rate: self
                        .cfg
                        .profile
                        .max_rate_for_targets(&itype, hit_budget, p95_budget, false),
                    usable_ram_gb: itype.ram_gb * 0.85,
                    itype,
                });
            }
        }
        offers
    }

    /// Plans the next slot.
    ///
    /// `rate`/`wss_gb` are the *forecasts* to plan against (callers decide
    /// whether those come from [`Self::forecast`] or from ground truth, as
    /// the offline baselines do).
    pub fn plan(
        &mut self,
        traces: &[&SpotTrace],
        now: u64,
        theta: f64,
        rate: f64,
        wss_gb: f64,
    ) -> Result<SlotPlan, SolveError> {
        let (hot_frac_ws, f_hot) = self.hot_fraction(wss_gb, theta);
        // `H` must satisfy 0 < H <= alpha.
        let hot_frac = hot_frac_ws.min(self.cfg.alpha).max(self.cfg.alpha * 1e-6);
        let forecast = WorkloadForecast {
            rate,
            wss_gb,
            alpha: self.cfg.alpha,
            hot_frac,
            f_hot: f_hot.min(1.0),
            f_alpha: 1.0,
        };
        let offers = self.build_offers(traces, now);
        // The configured β coefficients price *access mass*: losing the hot
        // set must hurt in proportion to the 90% of traffic it carries, not
        // the (possibly tiny) bytes it occupies. Convert them to the
        // paper's per-data-fraction form for this slot's H and F(H).
        let mut cost = self.cfg.cost;
        let hot_mass_ratio = forecast.f_hot / forecast.hot_frac.max(1e-12);
        let cold_span = (forecast.alpha - forecast.hot_frac).max(1e-12);
        let cold_mass_ratio = (forecast.f_alpha - forecast.f_hot) / cold_span;
        cost.beta_hot = self.cfg.cost.beta_hot * hot_mass_ratio;
        cost.beta_cold = self.cfg.cost.beta_cold * cold_mass_ratio;
        let separation = self.cfg.approach == Approach::OdSpotSep;
        if separation {
            // The separation baseline predates the ζ availability floor
            // (its hot set on on-demand *is* its availability story), and a
            // floor above H would make strict separation infeasible.
            cost.zeta = 0.0;
        }
        let problem = ProcurementProblem {
            offers,
            workload: forecast,
            cost,
            force_hot_on_od: separation,
            force_cold_on_spot: separation,
        };
        let alloc = problem.solve()?;
        // Publish the new counts as next slot's `N_t`.
        self.existing = alloc
            .entries
            .iter()
            .map(|e| (e.offer.label.clone(), e.count))
            .collect();
        let backup = if self.cfg.approach.has_backup() {
            size_backup(alloc.hot_on_spot() * wss_gb)
        } else {
            BackupPlan::empty()
        };
        Ok(SlotPlan {
            alloc,
            backup,
            hot_frac,
            forecast,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::tracegen::paper_traces;

    fn traces() -> Vec<SpotTrace> {
        paper_traces(30)
    }

    fn controller(approach: Approach) -> GlobalController {
        GlobalController::new(ControllerConfig::paper_default(approach))
    }

    #[test]
    fn od_only_builds_only_od_offers() {
        let c = controller(Approach::OdOnly);
        let tr = traces();
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        let offers = c.build_offers(&refs, 10 * spotcache_cloud::DAY);
        assert_eq!(offers.len(), 7);
        assert!(offers.iter().all(|o| !o.kind.is_spot()));
    }

    #[test]
    fn prop_builds_spot_offers_per_market_and_bid() {
        let c = controller(Approach::Prop);
        let tr = traces();
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        let offers = c.build_offers(&refs, 10 * spotcache_cloud::DAY);
        let spot = offers.iter().filter(|o| o.kind.is_spot()).count();
        // 4 markets × 2 bids (some may be skipped if no signal, but with
        // these traces all are predictable).
        assert_eq!(spot, 8);
        // Spot prices must be below on-demand.
        for o in offers.iter().filter(|o| o.kind.is_spot()) {
            assert!(o.price < o.itype.od_price, "{}: {}", o.label, o.price);
            assert!(o.lifetime_hours.is_finite());
        }
    }

    #[test]
    fn plan_produces_feasible_allocation_and_updates_existing() {
        let mut c = controller(Approach::PropNoBackup);
        let tr = traces();
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        let plan = c
            .plan(&refs, 10 * spotcache_cloud::DAY, 2.0, 320_000.0, 60.0)
            .unwrap();
        plan.alloc.assert_feasible(&plan.forecast, 0.0);
        assert!(plan.alloc.total_instances() > 0);
        // Existing counts published.
        let total: u32 = plan
            .alloc
            .entries
            .iter()
            .map(|e| c.existing(&e.offer.label))
            .sum();
        assert_eq!(total, plan.alloc.total_instances());
        // No backup for PropNoBackup.
        assert_eq!(plan.backup.count, 0);
    }

    #[test]
    fn prop_sizes_a_backup_for_hot_on_spot() {
        let mut c = controller(Approach::Prop);
        let tr = traces();
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        let plan = c
            .plan(&refs, 10 * spotcache_cloud::DAY, 2.0, 320_000.0, 60.0)
            .unwrap();
        if plan.alloc.hot_on_spot() > 1e-9 {
            assert!(plan.backup.count > 0);
            assert!(plan.backup.hourly_cost > 0.0);
        }
    }

    #[test]
    fn sep_never_places_hot_on_spot() {
        let mut c = controller(Approach::OdSpotSep);
        let tr = traces();
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        let plan = c
            .plan(&refs, 10 * spotcache_cloud::DAY, 1.0, 100_000.0, 30.0)
            .unwrap();
        assert!(plan.alloc.hot_on_spot() < 1e-9);
    }

    #[test]
    fn revocation_decrements_existing() {
        let mut c = controller(Approach::Prop);
        let tr = traces();
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        let plan = c
            .plan(&refs, 10 * spotcache_cloud::DAY, 2.0, 320_000.0, 60.0)
            .unwrap();
        if let Some(e) = plan
            .alloc
            .entries
            .iter()
            .find(|e| e.count > 0 && e.offer.kind.is_spot())
        {
            c.on_revocation(&e.offer.label, e.count);
            assert_eq!(c.existing(&e.offer.label), 0);
        }
    }

    #[test]
    fn forecast_needs_observations() {
        let mut c = controller(Approach::OdOnly);
        assert!(c.forecast().is_none());
        c.observe(100.0, 10.0);
        let (r, w) = c.forecast().unwrap();
        assert_eq!(r, 100.0);
        assert_eq!(w, 10.0);
    }

    #[test]
    fn hot_fraction_decreases_with_skew_and_caches() {
        let mut c = controller(Approach::Prop);
        let (h1, f1) = c.hot_fraction(60.0, 1.01);
        let (h2, f2) = c.hot_fraction(60.0, 2.0);
        assert!(h2 < h1);
        // The floored hot set still covers at least the target mass.
        assert!(f1 >= 0.9 && f2 >= 0.9);
        // Cache hit on repeat.
        assert_eq!(c.hot_fraction(60.0, 2.0), (h2, f2));
    }

    #[test]
    fn hot_fraction_is_floored_at_extreme_skew() {
        let mut c = controller(Approach::Prop);
        let (h, f) = c.hot_fraction(60.0, 2.0);
        // 60 GB / 4 KB ≈ 15.7M items; the unfloored 90% set is ~6 items.
        let n = 60.0 * (1u64 << 30) as f64 / 4096.0;
        assert!(h * n >= 1_000.0, "hot items {}", h * n);
        assert!(f > 0.9);
    }

    #[test]
    fn cdf_approach_differs_from_temporal_in_offers() {
        // In the spiky m4.XL-c market during the hot window, the CDF
        // predictor sees much longer lifetimes at the low bid than ours.
        let tr = traces();
        let xl_c = tr
            .iter()
            .find(|t| t.market.short_label() == "m4.XL-c")
            .unwrap();
        let ours = controller(Approach::PropNoBackup);
        let cdf = controller(Approach::OdSpotCdf);
        let now = 12 * spotcache_cloud::DAY; // before the hot window
        let o1 = ours.build_offers(&[xl_c], now);
        let o2 = cdf.build_offers(&[xl_c], now);
        let l1 = o1
            .iter()
            .find(|o| o.label.contains("@1d"))
            .map(|o| o.lifetime_hours);
        let l2 = o2
            .iter()
            .find(|o| o.label.contains("@1d"))
            .map(|o| o.lifetime_hours);
        if let (Some(a), Some(b)) = (l1, l2) {
            assert!(b > a, "cdf {b} should exceed temporal {a}");
        }
    }
}
