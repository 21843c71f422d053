//! The global controller (paper Section 4.2).
//!
//! Once per control slot the controller: refreshes its AR(2) workload
//! forecasts, predicts spot features for every (market, bid) pair with the
//! approach's predictor, derives the hot-set size from the popularity
//! model, builds the [`ProcurementProblem`] and solves it, and finally
//! sizes the passive backup (for approaches that carry one). The result is
//! a [`SlotPlan`] — everything the load balancer and the provider need for
//! the next slot. The replicated approach takes the same offers and places
//! its replicas on them by rule, without the LP.

use std::collections::HashMap;

use spotcache_cloud::catalog::{find_type, memcached_od_candidates, InstanceType};
use spotcache_cloud::spot::{Bid, MarketId, SpotTrace};
use spotcache_optimizer::latency::LatencyProfile;
use spotcache_optimizer::problem::{
    CostModel, Offer, OfferKind, ProcurementProblem, SolveError, WorkloadForecast,
};
use spotcache_optimizer::{AllocationPlan, PlanEntry};
use spotcache_spotmodel::{Ar2, CdfPredictor, SpotPredictor, TemporalPredictor};
use spotcache_workload::zipf::{PopularityModel, ZipfHead};

use crate::approaches::Approach;
use crate::backup::{size_backup, BackupPlan};

/// Bid multiples of the on-demand price (paper: `{1, 5}`). The replicated
/// approach bids the first only.
const BID_MULTIPLES: [f64; 2] = [1.0, 5.0];

/// Fraction of a node's RAM usable for cached items, on cache and backup
/// nodes alike.
pub const USABLE_RAM_FRACTION: f64 = 0.85;

/// Instance type of the replicated approach's on-demand write tier (the
/// related work's "small number of on-demand instances" for updates).
const WRITE_TIER_TYPE: &str = "m3.medium";

/// Performance profile; its `item_bytes` (4 KiB) is also the cache item
/// size the hot set is counted in.
pub(crate) const PROFILE: LatencyProfile = LatencyProfile::paper_default();

/// Mean-latency target, µs (paper: 800).
pub(crate) const TARGET_AVG_US: f64 = 800.0;

/// p95 latency target, µs (paper: 1000).
const TARGET_P95_US: f64 = 1_000.0;

/// Fraction of the working set kept memory-resident (`α`).
const ALPHA: f64 = 1.0;

/// Predictor sliding window, seconds (paper: 7 days).
const WINDOW: u64 = 7 * spotcache_cloud::DAY;

/// Controller configuration: what an approach or an ablation sets.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// The procurement approach driving offer construction.
    pub(crate) approach: Approach,
    /// Optimizer cost coefficients.
    pub cost: CostModel,
    /// Access mass defining the hot set (paper: 0.9).
    pub hot_mass: f64,
    /// Lifetime percentile for the temporal predictor (paper: 0.05).
    pub lifetime_percentile: f64,
}

impl ControllerConfig {
    /// Paper-default configuration for an approach.
    pub fn paper_default(approach: Approach) -> Self {
        Self {
            approach,
            cost: CostModel::paper_default(),
            hot_mass: 0.9,
            lifetime_percentile: 0.05,
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

/// What an offer is whatever the slot: its label, instance type,
/// per-instance rate under the configured latency targets (`λ^{sb}`) and
/// usable RAM. A slot's offer is this with its predicted price and
/// lifetime and its running count stamped on.
#[derive(Debug)]
struct OfferTemplate {
    label: String,
    itype: InstanceType,
    max_rate: f64,
    usable_ram_gb: f64,
}

impl OfferTemplate {
    fn new(label: String, itype: InstanceType) -> Self {
        let hit_budget = PROFILE
            .hit_budget_us(TARGET_AVG_US, 1.0)
            .unwrap_or(TARGET_AVG_US);
        Self {
            label,
            itype,
            max_rate: PROFILE.max_rate_for_targets(&itype, hit_budget, TARGET_P95_US, false),
            usable_ram_gb: itype.ram_gb * USABLE_RAM_FRACTION,
        }
    }

    fn offer(&self, kind: OfferKind, price: f64, lifetime_hours: f64, existing: u32) -> Offer {
        Offer {
            label: self.label.clone(),
            itype: self.itype,
            kind,
            price,
            lifetime_hours,
            existing,
            max_rate: self.max_rate,
            usable_ram_gb: self.usable_ram_gb,
        }
    }
}

/// A spot market's offer templates, one per bid multiple (none when the
/// catalog does not know its instance type).
#[derive(Debug)]
struct SpotMarketOffers {
    market: MarketId,
    bids: Vec<OfferTemplate>,
}

impl SpotMarketOffers {
    fn new(market: &MarketId) -> Self {
        let bids = match find_type(&market.instance_type) {
            Some(itype) => BID_MULTIPLES
                .iter()
                .map(|mult| {
                    let label = format!("{}@{}d", market.short_label(), mult);
                    OfferTemplate::new(label, itype)
                })
                .collect(),
            None => Vec::new(),
        };
        Self {
            market: market.clone(),
            bids,
        }
    }
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
    /// The on-demand offers' templates, in catalog order.
    od_offers: Vec<OfferTemplate>,
    /// The spot offers' templates of every market planned against so far.
    spot_offers: Vec<SpotMarketOffers>,
    /// Cache of hot-fraction computations keyed by (rounded item count,
    /// θ's bits). Values are `(H, F(H))`.
    hot_frac_cache: HashMap<(u64, u64), (f64, f64)>,
    /// The Zipf head of each θ a hot-fraction miss has needed, keyed by
    /// θ's bits: summed once, it is most of building a `PopularityModel`.
    zipf_heads: HashMap<u64, ZipfHead>,
}

impl GlobalController {
    /// Creates a controller.
    pub fn new(cfg: ControllerConfig) -> Self {
        let temporal = TemporalPredictor::new(WINDOW, cfg.lifetime_percentile);
        let cdf = CdfPredictor::new(WINDOW);
        let od_offers = memcached_od_candidates()
            .into_iter()
            .map(|itype| OfferTemplate::new(format!("od:{}", itype.name), itype))
            .collect();
        Self {
            cfg,
            temporal,
            cdf,
            rate_model: Ar2::default(),
            wss_model: Ar2::default(),
            existing: HashMap::new(),
            od_offers,
            spot_offers: Vec::new(),
            hot_frac_cache: HashMap::new(),
            zipf_heads: HashMap::new(),
        }
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Feeds the workload models one slot's observed rate and working set.
    pub fn observe(&mut self, rate: f64, wss_gb: f64) {
        self.rate_model.observe(rate);
        self.wss_model.observe(wss_gb);
    }

    /// One-slot-ahead workload forecast; `None` before any observation.
    pub(crate) fn forecast(&self) -> Option<(f64, f64)> {
        Some((self.rate_model.forecast()?, self.wss_model.forecast()?))
    }

    /// Records that `count` instances of `label` were revoked (so the next
    /// slot's deallocation damping does not bill for them).
    pub(crate) fn on_revocation(&mut self, label: &str, count: u32) {
        if let Some(n) = self.existing.get_mut(label) {
            *n = n.saturating_sub(count);
        }
    }

    /// Current running count for an offer label.
    pub(crate) fn existing(&self, label: &str) -> u32 {
        self.existing.get(label).copied().unwrap_or(0)
    }

    /// Smallest hot set the controller will plan for, in items.
    ///
    /// At extreme skews (Zipf 2.0) the 90%-of-accesses set can be a handful
    /// of keys; a real deployment still tracks and replicates a reasonable
    /// head of the key space (single keys cannot be spread across nodes by
    /// consistent hashing), so the hot set is floored here and its actual
    /// access mass `F(H)` recomputed.
    pub(crate) const MIN_HOT_ITEMS: u64 = 4_096;

    /// The hot working-set fraction `H` and its access mass `F(H)` for
    /// `wss_gb` at skew `theta` (cached).
    pub fn hot_fraction(&mut self, wss_gb: f64, theta: f64) -> (f64, f64) {
        let n_items = ((wss_gb * (1u64 << 30) as f64 / PROFILE.item_bytes).max(1.0)) as u64;
        // Round to ~2 significant figures for cache hits across similar
        // working-set sizes.
        let mut rounded = n_items;
        let mut scale = 1u64;
        while rounded >= 100 {
            rounded /= 10;
            scale *= 10;
        }
        let key = (rounded * scale, theta.to_bits());
        let hot_mass = self.cfg.hot_mass;
        let heads = &mut self.zipf_heads;
        *self.hot_frac_cache.entry(key).or_insert_with(|| {
            let n = key.0.max(1);
            let head = heads.entry(key.1).or_insert_with(|| ZipfHead::new(theta));
            let model = PopularityModel::with_head(n, head);
            let floor = (Self::MIN_HOT_ITEMS.min(n) as f64 / n as f64).min(1.0);
            let h = model.hot_fraction(hot_mass).max(floor);
            let f_h = model.access_mass(h).max(hot_mass.min(1.0));
            (h, f_h)
        })
    }

    /// Builds the offer set for the current slot.
    pub fn build_offers(&mut self, traces: &[&SpotTrace], now: u64) -> Vec<Offer> {
        let uses_spot = self.cfg.approach.uses_spot();
        let bids = match self.cfg.approach {
            Approach::Replicated(_) => &BID_MULTIPLES[..1],
            _ => &BID_MULTIPLES[..],
        };
        let spot_offers = if uses_spot {
            traces.len() * bids.len()
        } else {
            0
        };
        let mut offers = Vec::with_capacity(self.od_offers.len() + spot_offers);
        for t in &self.od_offers {
            let existing = self.existing(&t.label);
            offers.push(t.offer(
                OfferKind::OnDemand,
                t.itype.od_price,
                f64::INFINITY,
                existing,
            ));
        }
        if !uses_spot {
            return offers;
        }
        let predictor: &dyn SpotPredictor = if self.cfg.approach.uses_our_spot_modeling() {
            &self.temporal
        } else {
            &self.cdf
        };
        for trace in traces {
            let market = match self
                .spot_offers
                .iter()
                .position(|m| m.market == trace.market)
            {
                Some(i) => i,
                None => {
                    let market = SpotMarketOffers::new(&trace.market);
                    self.spot_offers.push(market);
                    self.spot_offers.len() - 1
                }
            };
            let templates = self.spot_offers[market].bids.iter();
            for (t, &mult) in templates.zip(bids) {
                let bid = Bid::times_od(mult, trace.od_price);
                let Some(features) = predictor.predict(trace, now, bid) else {
                    continue;
                };
                let lifetime_hours = features.lifetime / 3_600.0;
                if lifetime_hours <= 0.0 {
                    continue;
                }
                let kind = OfferKind::Spot {
                    market: trace.market.clone(),
                    bid,
                };
                let existing = self.existing(&t.label);
                offers.push(t.offer(kind, features.avg_price, lifetime_hours, existing));
            }
        }
        offers
    }

    /// The procurement problem of the slot at `now`, for `rate` ops/s over
    /// a `wss_gb` GiB working set at skew `theta`: this slot's offers over
    /// `traces`, the hot set `H` (clamped to `0 < H ≤ α`) and its access
    /// mass `F(H)`, and the configured cost model with `β` rescaled by
    /// access mass (and, for the separation baseline, `ζ = 0`).
    pub fn problem(
        &mut self,
        traces: &[&SpotTrace],
        now: u64,
        theta: f64,
        rate: f64,
        wss_gb: f64,
    ) -> ProcurementProblem {
        let (hot_frac_ws, f_hot) = self.hot_fraction(wss_gb, theta);
        // `H` must satisfy 0 < H <= alpha.
        let hot_frac = hot_frac_ws.clamp(ALPHA * 1e-6, ALPHA);
        let forecast = WorkloadForecast {
            rate,
            wss_gb,
            alpha: ALPHA,
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
        ProcurementProblem {
            offers,
            workload: forecast,
            cost,
            force_hot_on_od: separation,
            force_cold_on_spot: separation,
        }
    }

    /// Plans the next slot: solves [`Self::problem`] (or, for the replicated
    /// approach, places its replicas on the problem's offers) and sizes the
    /// backup.
    ///
    /// `rate`/`wss_gb` are the *forecasts* to plan against (callers decide
    /// whether those come from `Self::forecast` or from ground truth, as
    /// the offline baselines do).
    ///
    /// # Errors
    ///
    /// The solver's error, or [`SolveError::Infeasible`] for a replicated
    /// slot with no priced spot market to hold a replica.
    pub fn plan(
        &mut self,
        traces: &[&SpotTrace],
        now: u64,
        theta: f64,
        rate: f64,
        wss_gb: f64,
    ) -> Result<SlotPlan, SolveError> {
        let problem = self.problem(traces, now, theta, rate, wss_gb);
        let forecast = problem.workload;
        let alloc = match self.cfg.approach {
            Approach::Replicated(k) => replicate(problem, k)?,
            _ => problem.solve()?,
        };
        // Publish the new counts as next slot's `N_t`; a label the plan
        // leaves out runs none.
        self.existing.values_mut().for_each(|n| *n = 0);
        for e in &alloc.entries {
            match self.existing.get_mut(&e.offer.label) {
                Some(n) => *n = e.count,
                None => {
                    self.existing.insert(e.offer.label.clone(), e.count);
                }
            }
        }
        let backup = if self.cfg.approach.has_backup() {
            size_backup(alloc.hot_on_spot() * wss_gb)
        } else {
            BackupPlan::empty()
        };
        Ok(SlotPlan {
            alloc,
            backup,
            hot_frac: forecast.hot_frac,
            forecast,
        })
    }
}

/// The replicated approach's plan, built without the LP: one full replica
/// in each of the `k` spot offers of `problem` with the lowest predicted
/// price, each sized for the whole resident working set and the whole
/// rate, plus one on-demand write tier. A slot with no priced spot offer
/// (or `k` = 0) would have no replica to serve reads from, and is
/// [`SolveError::Infeasible`].
fn replicate(mut problem: ProcurementProblem, k: usize) -> Result<AllocationPlan, SolveError> {
    let w = problem.workload;
    let (mut replicas, od): (Vec<Offer>, Vec<Offer>) = std::mem::take(&mut problem.offers)
        .into_iter()
        .partition(|o| o.kind.is_spot());
    replicas.sort_by(|a, b| a.price.total_cmp(&b.price));
    replicas.truncate(k);
    if replicas.is_empty() {
        return Err(SolveError::Infeasible);
    }
    let write_tier = od
        .into_iter()
        .find(|o| o.itype.name == WRITE_TIER_TYPE)
        .expect("the write tier's type is an on-demand candidate");
    let mut entries: Vec<PlanEntry> = replicas
        .into_iter()
        .map(|offer| {
            let for_ram = (w.alpha * w.wss_gb / offer.usable_ram_gb).ceil();
            let for_rate = (w.rate / offer.max_rate).ceil();
            PlanEntry {
                count: for_ram.max(for_rate).max(1.0) as u32,
                hot_frac: w.hot_frac,
                cold_frac: w.alpha - w.hot_frac,
                offer,
            }
        })
        .collect();
    entries.push(PlanEntry {
        offer: write_tier,
        count: 1,
        hot_frac: 0.0,
        cold_frac: 0.0,
    });
    Ok(problem.priced(entries))
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
        let mut c = controller(Approach::OdOnly);
        let tr = traces();
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        let offers = c.build_offers(&refs, 10 * spotcache_cloud::DAY);
        assert_eq!(offers.len(), 7);
        assert!(offers.iter().all(|o| !o.kind.is_spot()));
    }

    #[test]
    fn prop_builds_spot_offers_per_market_and_bid() {
        let mut c = controller(Approach::Prop);
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
        plan.alloc.assert_feasible(&plan.forecast);
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

    /// The hot-set cache keys the skew by its bits: 0.99 and then 0.9905
    /// on one controller, less than 0.001 apart, each get the (H, F(H))
    /// a fresh controller computes.
    #[test]
    fn hot_fraction_keys_the_skew_by_its_bits() {
        let mut warm = controller(Approach::Prop);
        let both = [
            warm.hot_fraction(60.0, 0.99),
            warm.hot_fraction(60.0, 0.9905),
        ];
        let fresh =
            [0.99, 0.9905].map(|theta| controller(Approach::Prop).hot_fraction(60.0, theta));
        let bits = |(h, f): (f64, f64)| (h.to_bits(), f.to_bits());
        assert_eq!(both.map(bits), fresh.map(bits));
        assert_ne!(bits(both[0]), bits(both[1]));
    }

    /// A controller that has planned for weeks builds the offers a fresh
    /// one builds, field by field — its templates are the slot's offers —
    /// and each offer's running count is what the previous plan published
    /// for its label, less the revocations since (0 for a label it left
    /// out): hourly over 21 days of the paper's traces, demand varying so
    /// the plans change, and every seventh hour planned without the market
    /// the previous plan ran most spot instances on, so its offers drop
    /// out of the plan.
    #[test]
    fn a_warm_controllers_offers_equal_a_fresh_ones() {
        let tr = paper_traces(21);
        let refs: Vec<&SpotTrace> = tr.iter().collect();
        for approach in [Approach::Prop, Approach::OdSpotCdf, Approach::OdOnly] {
            let mut warm = controller(approach);
            let mut published: HashMap<String, u32> = HashMap::new();
            let mut busiest = None;
            for hour in 7 * 24..21 * 24 {
                let now = hour * spotcache_cloud::HOUR;
                let refs: Vec<&SpotTrace> = refs
                    .iter()
                    .copied()
                    .filter(|t| hour % 7 != 0 || busiest.as_ref() != Some(&t.market))
                    .collect();
                let offers = warm.build_offers(&refs, now);
                let fresh = controller(approach).build_offers(&refs, now);
                assert_eq!(offers.len(), fresh.len(), "{approach:?} hour {hour}");
                for (w, f) in offers.iter().zip(&fresh) {
                    assert_eq!(w.label, f.label);
                    assert_eq!(w.itype, f.itype);
                    assert_eq!(w.kind, f.kind);
                    for (a, b) in [
                        (w.price, f.price),
                        (w.lifetime_hours, f.lifetime_hours),
                        (w.max_rate, f.max_rate),
                        (w.usable_ram_gb, f.usable_ram_gb),
                    ] {
                        assert_eq!(a.to_bits(), b.to_bits(), "{} hour {hour}", w.label);
                    }
                    assert_eq!(f.existing, 0);
                    let want = published.get(&w.label).copied().unwrap_or(0);
                    assert_eq!(w.existing, want, "{} hour {hour}", w.label);
                }
                let rate = 150_000.0 + 40_000.0 * (hour % 9) as f64;
                let wss = 40.0 + 10.0 * (hour % 5) as f64;
                let plan = warm.plan(&refs, now, 0.99, rate, wss).unwrap();
                published = plan
                    .alloc
                    .entries
                    .iter()
                    .map(|e| (e.offer.label.clone(), e.count))
                    .collect();
                let spot = plan.alloc.entries.iter().filter(|e| e.offer.kind.is_spot());
                if let Some(e) = spot.max_by_key(|e| e.count) {
                    if let OfferKind::Spot { market, .. } = &e.offer.kind {
                        busiest = Some(market.clone());
                    }
                    // Every fifth hour the busiest spot entry loses two
                    // instances.
                    if hour % 5 == 0 {
                        warm.on_revocation(&e.offer.label, 2);
                        let n = published.get_mut(&e.offer.label).unwrap();
                        *n = n.saturating_sub(2);
                    }
                }
            }
        }
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
        let mut ours = controller(Approach::PropNoBackup);
        let mut cdf = controller(Approach::OdSpotCdf);
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
