//! An active geo-replication baseline in the style of the paper's closest
//! related work (Xu et al., INFOCOM'16 — the paper's reference \[50\]).
//!
//! Instead of hot-cold placement with a passive backup, that design keeps
//! `k` *full replicas* of the cache in weakly-correlated spot markets and
//! serves reads from all of them; a small on-demand tier absorbs writes.
//! Availability comes from market independence: the cache only goes dark
//! when every replica's market fails at once.
//!
//! The paper calls the two designs "highly complementary"; implementing the
//! replication baseline lets the trade-off be measured: replication pays
//! `k×` the RAM bill for near-perfect availability, while hot-cold mixing
//! pays for the data once and hedges with bids, lifetimes, and the
//! burstable backup.

use spotcache_cloud::billing::{CostCategory, Ledger};
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::spot::{Bid, SpotTrace};
use spotcache_cloud::{DAY, HOUR};
use spotcache_optimizer::latency::LatencyProfile;
use spotcache_sim::ViolationTracker;
use spotcache_spotmodel::AvgPriceModel;
use spotcache_workload::wikipedia::WikipediaTrace;

/// Bid multiple of on-demand placed in every replica market.
const BID_MULTIPLE: f64 = 1.0;

/// Mean-latency target, µs.
const TARGET_AVG_US: f64 = 800.0;

/// Usable RAM fraction per instance.
const USABLE_RAM_FRACTION: f64 = 0.85;

/// On-demand write-tier instances (the related work's "small number of
/// on-demand instances" for updates).
const WRITE_TIER_INSTANCES: u32 = 1;

/// Days of history consumed before billing starts.
const TRAINING_DAYS: u64 = 7;

/// Workload seed.
const SEED: u64 = 0xF00D;

/// Geo-replication-baseline configuration.
#[derive(Debug, Clone)]
pub struct GeoBaselineConfig {
    /// Number of full replicas (the related work uses 2–3).
    pub(crate) replicas: usize,
    /// Simulated days (the first seven are price history only, not billed).
    pub(crate) days: u64,
    /// Workload scale.
    pub(crate) peak_rate: f64,
    /// Maximum working-set size, GiB.
    pub(crate) max_wss_gb: f64,
}

impl GeoBaselineConfig {
    /// A paper-comparable setup.
    pub fn paper_default(replicas: usize, peak_rate: f64, max_wss_gb: f64) -> Self {
        Self {
            replicas: replicas.max(1),
            days: 90,
            peak_rate,
            max_wss_gb,
        }
    }
}

/// Geo-replication-baseline simulation output.
#[derive(Debug)]
pub struct GeoBaselineResult {
    /// Cost ledger.
    pub(crate) ledger: Ledger,
    /// Violation accounting (a day is violated only when *all* replicas
    /// were simultaneously unavailable for long enough).
    pub(crate) violations: ViolationTracker,
    /// Replica-loss events (one market failing).
    pub replica_losses: u32,
    /// Total-blackout events (all markets failing at once).
    pub blackouts: u32,
}

impl GeoBaselineResult {
    /// Total dollars.
    pub fn total_cost(&self) -> f64 {
        self.ledger.grand_total()
    }

    /// Fraction of days violating the 1% target.
    pub fn violated_day_frac(&self) -> f64 {
        self.violations.violated_day_frac(0.01)
    }
}

/// Simulates the geo-replication baseline over the given markets.
///
/// Each hour: the `k` cheapest markets (by predicted below-bid price) host
/// one full replica each; reads split evenly across live replicas, and
/// each replica's serving capacity is sized for `rate / (k-1)` so one
/// replica loss is absorbed without degradation (the availability-first
/// sizing of the related work). A market failure removes its replica for
/// the rest of the hour; requests are affected only by the capacity
/// squeeze on the survivors, or fully when no replica survives.
pub fn simulate_geo_baseline(cfg: &GeoBaselineConfig, markets: &[SpotTrace]) -> GeoBaselineResult {
    assert!(!markets.is_empty(), "need at least one market");
    let workload = WikipediaTrace::generate(cfg.days, cfg.peak_rate, cfg.max_wss_gb, SEED);
    let price_model = AvgPriceModel::new(7 * DAY);
    let mut ledger = Ledger::new();
    let mut violations = ViolationTracker::new();
    let mut replica_losses = 0;
    let mut blackouts = 0;

    let write_tier_type = find_type("m3.medium").expect("catalog");
    let profile = LatencyProfile::paper_default();

    for h in TRAINING_DAYS * 24..cfg.days * 24 {
        let t = h * HOUR;
        let rate = workload.rate_at(t);
        let wss = workload.wss_at(t);

        // Rank markets by predicted price under the bid; unpredictable
        // markets sort last.
        let mut ranked: Vec<&SpotTrace> = markets.iter().collect();
        ranked.sort_by(|a, b| {
            let pa = price_model
                .predict(a, t, Bid::times_od(BID_MULTIPLE, a.od_price))
                .unwrap_or(f64::INFINITY);
            let pb = price_model
                .predict(b, t, Bid::times_od(BID_MULTIPLE, b.od_price))
                .unwrap_or(f64::INFINITY);
            pa.total_cmp(&pb)
        });
        let chosen: Vec<&SpotTrace> = ranked.into_iter().take(cfg.replicas).collect();
        let k = chosen.len();

        // Size each replica: full working set in RAM, reads split k ways.
        let hit_budget = profile
            .hit_budget_us(TARGET_AVG_US, 1.0)
            .unwrap_or(TARGET_AVG_US);
        let mut capacities = Vec::with_capacity(k);
        let mut failures = Vec::with_capacity(k);
        for trace in &chosen {
            let itype = find_type(&trace.market.instance_type).expect("catalog");
            let per_ram = itype.ram_gb * USABLE_RAM_FRACTION;
            let per_rate = profile.max_rate_for_latency(&itype, hit_budget, false);
            let n_ram = (wss / per_ram).ceil();
            let share = (k as f64 - 1.0).max(1.0);
            let n_rate = (rate / share / per_rate.max(1.0)).ceil();
            let n = n_ram.max(n_rate).max(1.0);
            let bid = Bid::times_od(BID_MULTIPLE, trace.od_price);
            let lease = trace.lease(bid, t, t + HOUR);
            ledger.record(CostCategory::Spot, lease.dollars() * n);
            capacities.push(n * per_rate);
            failures.push(lease.loss(t).map(|loss| loss.at));
        }
        // Write tier (on-demand, always on).
        ledger.record(
            CostCategory::OnDemand,
            write_tier_type.od_price * f64::from(WRITE_TIER_INSTANCES),
        );

        // Failure accounting at minute resolution within the hour.
        let mut affected_mass_time = 0.0;
        let mut lost_any = vec![false; k];
        for m in 0..60u64 {
            let tm = t + m * 60;
            let mut live_capacity = 0.0;
            let mut live = 0;
            for (i, f) in failures.iter().enumerate() {
                if f.is_none_or(|tf| tm < tf) {
                    live_capacity += capacities[i];
                    live += 1;
                } else if !lost_any[i] {
                    lost_any[i] = true;
                    replica_losses += 1;
                }
            }
            if live == 0 {
                affected_mass_time += 1.0 / 60.0;
            } else if rate > live_capacity {
                affected_mass_time += (1.0 - live_capacity / rate) / 60.0;
            }
        }
        if lost_any.iter().all(|&l| l) && k > 0 {
            blackouts += 1;
        }
        let requests = (rate * 3_600.0) as u64;
        let affected = (affected_mass_time * rate * 3_600.0) as u64;
        violations.record((t / DAY) as usize, requests, affected);
    }

    GeoBaselineResult {
        ledger,
        violations,
        replica_losses,
        blackouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{simulate, SimConfig};
    use crate::Approach;
    use spotcache_cloud::tracegen::paper_traces;

    /// A RAM-bound workload (replication's weak spot: every replica pays
    /// the full memory bill).
    fn run(replicas: usize) -> GeoBaselineResult {
        let mut cfg = GeoBaselineConfig::paper_default(replicas, 50_000.0, 200.0);
        cfg.days = 21;
        simulate_geo_baseline(&cfg, &paper_traces(21))
    }

    #[test]
    fn more_replicas_cost_more() {
        let one = run(1);
        let three = run(3);
        assert!(
            three.total_cost() > 2.0 * one.total_cost(),
            "3 replicas {} vs 1 replica {}",
            three.total_cost(),
            one.total_cost()
        );
    }

    #[test]
    fn replication_rarely_blacks_out() {
        let r = run(3);
        // Individual replicas fail, but with failover headroom only a
        // simultaneous multi-market failure degrades service.
        assert!(r.replica_losses > 0, "markets should fail sometimes");
        assert!(r.blackouts <= r.replica_losses / 3 + 1);
        assert!(
            r.violated_day_frac() < 0.2,
            "violated {} of days",
            r.violated_day_frac()
        );
    }

    #[test]
    fn mixing_is_cheaper_than_double_replication() {
        // The paper's design point: pay for the data once.
        let rep = run(2);
        let mut cfg = SimConfig::paper_default(Approach::PropNoBackup, 50_000.0, 200.0, 0.99);
        cfg.days = 21;
        let prop = simulate(&cfg, &paper_traces(21)).unwrap();
        assert!(
            prop.total_cost() < rep.total_cost(),
            "prop {} vs replication {}",
            prop.total_cost(),
            rep.total_cost()
        );
    }

    #[test]
    fn write_tier_is_always_billed() {
        let r = run(2);
        assert!(r.ledger.total(CostCategory::OnDemand) > 0.0);
        assert!(r.ledger.total(CostCategory::Spot) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one market")]
    fn empty_markets_panic() {
        let cfg = GeoBaselineConfig::paper_default(2, 1_000.0, 1.0);
        simulate_geo_baseline(&cfg, &[]);
    }
}
