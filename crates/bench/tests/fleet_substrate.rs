//! The live control loop on the fleet: `FleetSubstrate` reconciling
//! plans against the cloud provider, on small stores with 1 ms windows.
//!
//! Demand shapes and trace windows follow the root suite's simulations:
//! `paper_traces(30)` at day 10 for planning, and
//! `correlated_paper_traces(40)` from day 20, whose markets revoke `Prop`'s
//! spot instances within 72 hours (days 8–16 and 24–36 see none).

use spotcache_bench::fleet::{FleetConfig, FleetSubstrate};
use spotcache_cloud::billing::CostCategory;
use spotcache_cloud::catalog::find_type;
use spotcache_cloud::provider::Lease;
use spotcache_cloud::spot::SpotTrace;
use spotcache_cloud::tracegen::{correlated_paper_traces, paper_traces};
use spotcache_cloud::{DAY, HOUR, TRACE_STEP};
use spotcache_core::{Approach, ControlLoop, ControllerConfig, Demand, GlobalController, SlotPlan};
use spotcache_obs::{EventKind, Obs};
use spotcache_recovery::replay::WarmupConfig;
use spotcache_recovery::strategy::RecoveryStrategy;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_fleet(key_space: u64) -> FleetConfig {
    FleetConfig {
        nodes: 0,
        key_space,
        ops_per_window: 100,
        window: Duration::from_millis(1),
        steady_windows: 0,
        observe_windows: 0,
        warning_windows: 0,
        slo_target: 0.9,
        slo_window_factor: 4,
        detector_window: 12,
        detector_threshold: 2,
        pump: WarmupConfig {
            max_items: key_space as usize,
            base_rate: 100_000.0,
            peak_rate: 100_000.0,
            initial_credits: 0.0,
            ..WarmupConfig::default()
        },
        store_bytes: 1 << 20,
        store_shards: 1,
        seed: 7,
    }
}

/// A Replay-restoring substrate over `markets` from `start`, at constant
/// demand `d`.
fn substrate(
    key_space: u64,
    obs: &Arc<Obs>,
    markets: &[SpotTrace],
    start: u64,
    slots: u64,
    d: Demand,
) -> FleetSubstrate {
    let cfg = small_fleet(key_space);
    let strategy = RecoveryStrategy::Replay(cfg.pump.clone());
    FleetSubstrate::new(
        &cfg,
        strategy,
        obs,
        markets.to_vec(),
        start,
        slots,
        move |_| d,
    )
}

fn demand(rate: f64, wss_gb: f64) -> Demand {
    Demand { rate, wss_gb }
}

/// One manual control cycle: plan `d` at skew `theta` with `ctl` at the
/// provider's clock, and apply it.
fn replan(
    sub: &mut FleetSubstrate,
    ctl: &mut GlobalController,
    markets: &[SpotTrace],
    theta: f64,
    d: Demand,
) -> SlotPlan {
    let refs: Vec<&SpotTrace> = markets.iter().collect();
    let plan = ctl
        .plan(&refs, sub.provider().now(), theta, d.rate, d.wss_gb)
        .expect("plan");
    ctl.observe(d.rate, d.wss_gb);
    sub.apply_plan(&plan);
    plan
}

/// `n` fleet windows, one spot-price step each.
fn windows(sub: &mut FleetSubstrate, n: u64) {
    for _ in 0..n {
        let until = sub.provider().now() + TRACE_STEP;
        sub.window(until);
    }
}

fn controller(approach: Approach) -> GlobalController {
    GlobalController::new(ControllerConfig::paper_default(approach))
}

#[test]
fn the_first_plan_launches_a_serving_fleet() {
    let markets = paper_traces(30);
    let d = demand(50_000.0, 10.0);
    let mut sub = substrate(1_000, &Arc::new(Obs::new()), &markets, 10 * DAY, 1, d);
    let mut ctl = controller(Approach::PropNoBackup);
    replan(&mut sub, &mut ctl, &markets, 1.2, d);
    assert!(sub.fleet().members().count() > 0, "fleet launched");

    windows(&mut sub, 12);
    let s = *sub.serve();
    assert_eq!(s.requests(), 12 * 100);
    assert!(s.hit_rate() > 0.5, "warm cache hit rate {}", s.hit_rate());
    // Billing accrues as provider time advances.
    assert_eq!(sub.provider().now(), 10 * DAY + HOUR);
    assert!(sub.provider().ledger().grand_total() > 0.0);
}

#[test]
fn a_same_shape_replan_keeps_members_servers_and_backups() {
    let markets = paper_traces(30);
    let d = demand(100_000.0, 20.0);
    let mut sub = substrate(1_000, &Arc::new(Obs::new()), &markets, 10 * DAY, 2, d);
    let mut ctl = controller(Approach::Prop);
    replan(&mut sub, &mut ctl, &markets, 2.0, d);
    let fleet = sub.fleet();
    let before: Vec<_> = fleet
        .members()
        .map(|m| (m, fleet.primary_addr(m)))
        .collect();
    let backed = fleet
        .members()
        .find(|&m| fleet.backup(m).is_some())
        .expect("the plan puts hot data on spot");
    fleet.backup(backed).expect("backed").set("sentinel", "v");

    windows(&mut sub, 1);
    replan(&mut sub, &mut ctl, &markets, 2.0, d);
    let fleet = sub.fleet();
    let after: Vec<_> = fleet
        .members()
        .map(|m| (m, fleet.primary_addr(m)))
        .collect();
    assert_eq!(after, before, "same-shape replan keeps members and servers");
    let backup = fleet.backup(backed).expect("still backed");
    assert!(backup.get(b"sentinel").is_some(), "backup content survives");
}

#[test]
fn a_demand_drop_shrinks_the_fleet() {
    let markets = paper_traces(30);
    let mut sub = substrate(
        1_000,
        &Arc::new(Obs::new()),
        &markets,
        10 * DAY,
        2,
        demand(0.0, 0.0),
    );
    let mut ctl = controller(Approach::OdOnly);
    replan(&mut sub, &mut ctl, &markets, 1.2, demand(200_000.0, 40.0));
    let big = sub.fleet().members().count();
    // Deallocation damping retains some headroom but a large drop must
    // shrink the fleet.
    replan(&mut sub, &mut ctl, &markets, 1.2, demand(10_000.0, 2.0));
    let small = sub.fleet().members().count();
    assert!(small < big, "{big} -> {small}");
    assert_eq!(sub.fleet().balancer().weights().len(), small);
}

#[test]
fn spot_members_replicate_hot_keys_and_only_hot_keys() {
    let markets = paper_traces(30);
    let d = demand(80_000.0, 15.0);
    let key_space = 10_000;
    let mut sub = substrate(key_space, &Arc::new(Obs::new()), &markets, 10 * DAY, 1, d);
    let mut ctl = controller(Approach::Prop);
    let plan = replan(&mut sub, &mut ctl, &markets, 1.2, d);
    assert!(plan.forecast.hot_frac > 0.0 && plan.forecast.hot_frac < 1.0);
    windows(&mut sub, 12);

    let fleet = sub.fleet();
    let has = |store: &spotcache_cache::store::Store, prefix: &str, kid: u64| {
        store.contains(format!("{prefix}{kid}").as_bytes())
    };
    let mut replicated = 0;
    for m in fleet.members() {
        let spot = matches!(
            sub.provider().instance(m).expect("leased").lease,
            Lease::Spot { .. }
        );
        let Some(backup) = fleet.backup(m) else {
            assert!(!spot, "spot member {m} has no backup");
            continue;
        };
        assert!(spot, "on-demand member {m} has a backup");
        let primary = fleet.primary(m);
        let hot: Vec<u64> = (0..key_space).filter(|&k| has(primary, "h", k)).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while hot.iter().any(|&k| !has(backup, "h", k)) {
            assert!(
                Instant::now() < deadline,
                "member {m}: hot keys never replicated"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            (0..key_space).all(|k| !has(backup, "c", k)),
            "member {m}: a cold key reached the backup"
        );
        replicated += hot.len();
    }
    assert!(replicated > 0, "some spot member holds hot keys");
}

#[test]
fn the_control_loop_drives_the_fleet_through_correlated_revocations() {
    let obs = Arc::new(Obs::new());
    let start = 20 * DAY;
    let slots = 72;
    let mut sub = substrate(
        1_000,
        &obs,
        &correlated_paper_traces(40),
        start,
        slots,
        demand(80_000.0, 15.0),
    );
    let metrics = ControlLoop::new(controller(Approach::Prop), 1.2)
        .with_obs(Arc::clone(&obs))
        .run(&mut sub)
        .expect("plans");

    assert_eq!(metrics.slots.len(), slots as usize);
    assert_eq!(metrics.serve.requests(), slots * 12 * 100);
    assert_eq!(sub.provider().now(), start + slots * HOUR);
    assert!(metrics.revocations > 0, "the window must revoke");
    assert_eq!(sub.revocations().len(), metrics.revocations as usize);
    // Whatever failed, most traffic must still have been served from cache.
    assert!(
        metrics.serve.hit_rate() > 0.5,
        "hit rate {}",
        metrics.serve.hit_rate()
    );
    assert!(metrics.total_cost() > 0.0);

    let fleet = sub.fleet();
    let last_replan = start + (slots - 1) * HOUR;
    for &(node, at) in sub.revocations() {
        let report = fleet.restores().get(&node);
        let report = report.unwrap_or_else(|| panic!("revoked node {node} was never restored"));
        assert!(report.pump.is_some(), "node {node}: restored by Replay");
        if at < last_replan {
            assert!(
                fleet.members().all(|m| m != node),
                "revoked node {node} is still a member"
            );
            assert!(
                fleet.balancer().weights().iter().all(|w| w.node != node),
                "revoked node {node} is still in the routing table"
            );
        }
    }

    // The provider warns before every revocation, and the journal says so.
    let warned: Vec<bool> = obs
        .journal()
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Revocation { warned, .. } => Some(warned),
            _ => None,
        })
        .collect();
    assert_eq!(warned.len(), sub.revocations().len());
    assert!(warned.iter().all(|&w| w), "unwarned revocation journaled");

    // Spot was billed at spot prices: cheaper than the same instance-hours
    // on demand (every planned spot member here is an m4.large). The
    // backup tier is billed too.
    let spot_hours: u32 = metrics
        .slots
        .iter()
        .flat_map(|s| s.spot_counts.iter().map(|&(_, n)| n))
        .sum();
    let m4 = find_type("m4.large").expect("catalog");
    let spot = metrics.ledger.total(CostCategory::Spot);
    assert!(spot > 0.0);
    assert!(spot < f64::from(spot_hours) * m4.od_price, "{spot}");
    assert!(metrics.ledger.total(CostCategory::Backup) > 0.0);
}
