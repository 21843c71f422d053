//! An active geo-replication baseline in the style of the paper's closest
//! related work (Xu et al., INFOCOM'16 — the paper's reference \[50\]).
//!
//! Formerly `core::replication`; renamed so the geo-replication
//! *simulation baseline* no longer shares a name with the live
//! replication stream ([`spotcache_cache::replication`]), which is part
//! of the recovery stack, not a procurement approach.
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
use spotcache_spotmodel::{AvgPriceModel, SpotPredictor, TemporalPredictor};
use spotcache_workload::wikipedia::WikipediaTrace;

/// Geo-replication-baseline configuration.
#[derive(Debug, Clone)]
pub struct GeoBaselineConfig {
    /// Number of full replicas (the related work uses 2–3).
    pub replicas: usize,
    /// Bid multiple of on-demand placed in every replica market.
    pub bid_multiple: f64,
    /// Performance profile (for per-instance rate caps).
    pub profile: LatencyProfile,
    /// Mean-latency target, µs.
    pub target_avg_us: f64,
    /// Usable RAM fraction per instance.
    pub usable_ram_fraction: f64,
    /// On-demand write-tier instances (the related work's "small number of
    /// on-demand instances" for updates).
    pub write_tier_instances: u32,
    /// Provision each replica's serving capacity for `rate / (k-1)` so one
    /// replica loss is absorbed without degradation (the availability-first
    /// sizing of the related work). With `false`, capacity is `rate / k`.
    pub failover_headroom: bool,
    /// Simulated days and training days.
    pub days: u64,
    /// Days of history consumed before billing starts.
    pub training_days: u64,
    /// Workload scale.
    pub peak_rate: f64,
    /// Maximum working-set size, GiB.
    pub max_wss_gb: f64,
    /// Workload seed.
    pub seed: u64,
}

impl GeoBaselineConfig {
    /// A paper-comparable setup.
    pub fn paper_default(replicas: usize, peak_rate: f64, max_wss_gb: f64) -> Self {
        Self {
            replicas: replicas.max(1),
            bid_multiple: 1.0,
            profile: LatencyProfile::paper_default(),
            target_avg_us: 800.0,
            usable_ram_fraction: 0.85,
            write_tier_instances: 1,
            failover_headroom: true,
            days: 90,
            training_days: 7,
            peak_rate,
            max_wss_gb,
            seed: 0xF00D,
        }
    }
}

/// Geo-replication-baseline simulation output.
#[derive(Debug)]
pub struct GeoBaselineResult {
    /// Cost ledger.
    pub ledger: Ledger,
    /// Violation accounting (a day is violated only when *all* replicas
    /// were simultaneously unavailable for long enough).
    pub violations: ViolationTracker,
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
/// one full replica each; reads split evenly across live replicas. A
/// market failure removes its replica for the rest of the hour; requests
/// are affected only by the capacity squeeze on the survivors, or fully
/// when no replica survives.
pub fn simulate_geo_baseline(cfg: &GeoBaselineConfig, markets: &[SpotTrace]) -> GeoBaselineResult {
    assert!(!markets.is_empty(), "need at least one market");
    let workload = WikipediaTrace::generate(cfg.days, cfg.peak_rate, cfg.max_wss_gb, cfg.seed);
    let predictor = TemporalPredictor::paper_default();
    let price_model = AvgPriceModel::new(7 * DAY);
    let mut ledger = Ledger::new();
    let mut violations = ViolationTracker::new();
    let mut replica_losses = 0;
    let mut blackouts = 0;

    let write_tier_type = find_type("m3.medium").expect("catalog");

    for h in cfg.training_days * 24..cfg.days * 24 {
        let t = h * HOUR;
        let rate = workload.rate_at(t);
        let wss = workload.wss_at(t);

        // Rank markets by predicted price under the bid; unpredictable
        // markets sort last.
        let mut ranked: Vec<&SpotTrace> = markets.iter().collect();
        ranked.sort_by(|a, b| {
            let pa = price_model
                .predict(a, t, Bid::times_od(cfg.bid_multiple, a.od_price))
                .unwrap_or(f64::INFINITY);
            let pb = price_model
                .predict(b, t, Bid::times_od(cfg.bid_multiple, b.od_price))
                .unwrap_or(f64::INFINITY);
            pa.total_cmp(&pb)
        });
        let chosen: Vec<&SpotTrace> = ranked.into_iter().take(cfg.replicas).collect();
        let k = chosen.len();

        // Size each replica: full working set in RAM, reads split k ways.
        let hit_budget = cfg
            .profile
            .hit_budget_us(cfg.target_avg_us, 1.0)
            .unwrap_or(cfg.target_avg_us);
        let mut capacities = Vec::with_capacity(k);
        let mut failures = Vec::with_capacity(k);
        for trace in &chosen {
            let itype = find_type(&trace.market.instance_type).expect("catalog");
            let per_ram = itype.ram_gb * cfg.usable_ram_fraction;
            let per_rate = cfg.profile.max_rate_for_latency(&itype, hit_budget, false);
            let n_ram = (wss / per_ram).ceil();
            let share = if cfg.failover_headroom {
                (k as f64 - 1.0).max(1.0)
            } else {
                k as f64
            };
            let n_rate = (rate / share / per_rate.max(1.0)).ceil();
            let n = n_ram.max(n_rate).max(1.0);
            let bid = Bid::times_od(cfg.bid_multiple, trace.od_price);
            let failure = trace.first_failure_in(t, t + HOUR, bid);
            let billed_until = failure.unwrap_or(t + HOUR);
            let mean_price = trace.mean_price(t, billed_until.max(t + 1)).unwrap_or(0.0);
            let c = mean_price * n * (billed_until - t) as f64 / 3_600.0;
            ledger.record(CostCategory::Spot, t, c);
            capacities.push(n * per_rate);
            failures.push(failure);
            // A fresh prediction confirms the market still looks usable;
            // this mirrors the related work's per-slot re-ranking.
            let _ = predictor.predict(trace, t, bid);
        }
        // Write tier (on-demand, always on).
        ledger.record(
            CostCategory::OnDemand,
            t,
            write_tier_type.od_price * cfg.write_tier_instances as f64,
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
