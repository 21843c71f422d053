//! The whole system, live: the control loop re-planning a fleet of real
//! cache servers every hour.
//!
//! Runs 24 hours of a Wikipedia-shaped workload against synthetic,
//! correlated spot markets, driven by the same [`ControlLoop`] that
//! powers the simulators. Every hour the loop re-plans and the
//! [`FleetSubstrate`] launches and terminates reactor servers to match;
//! every spot-price step (5 minutes, compressed to a 2 ms window) reads
//! through the routers; the provider's revocation warnings and
//! revocations kill spot primaries, and each one is restored from its
//! backup server into an on-demand replacement.
//!
//! Run with: `cargo run --release -p spotcache-bench --example live_fleet`

use std::sync::Arc;
use std::time::Duration;

use spotcache_bench::fleet::{FleetConfig, FleetSubstrate};
use spotcache_cloud::tracegen::correlated_paper_traces;
use spotcache_cloud::DAY;
use spotcache_core::{Approach, ControlLoop, ControllerConfig, Demand, GlobalController};
use spotcache_obs::Obs;
use spotcache_recovery::checkpoint::CheckpointConfig;
use spotcache_recovery::replay::WarmupConfig;
use spotcache_recovery::strategy::{RecoveryStrategy, TopUpConfig};
use spotcache_workload::WikipediaTrace;

fn main() {
    let cfg = FleetConfig {
        nodes: 0,
        key_space: 5_000,
        ops_per_window: 200,
        window: Duration::from_millis(2),
        steady_windows: 0,
        observe_windows: 0,
        warning_windows: 0,
        slo_target: 0.9,
        slo_window_factor: 4,
        detector_window: 12,
        detector_threshold: 2,
        pump: WarmupConfig::default(),
        store_bytes: 4 << 20,
        store_shards: 1,
        seed: 1,
    };
    let strategy = RecoveryStrategy::Hybrid {
        checkpoint: CheckpointConfig::default(),
        top_up: TopUpConfig::default(),
    };
    // Day 21 of these markets: a correlated spike revokes the spot tier
    // in hour 18.
    let workload = WikipediaTrace::generate(40, 100_000.0, 15.0, 7);
    let mut fleet = FleetSubstrate::new(
        &cfg,
        strategy,
        &Arc::new(Obs::new()),
        correlated_paper_traces(40),
        21 * DAY,
        24,
        move |t| Demand {
            rate: workload.rate_at(t),
            wss_gb: workload.wss_at(t),
        },
    );
    let controller = GlobalController::new(ControllerConfig::paper_default(Approach::Prop));
    let metrics = ControlLoop::new(controller, 1.2)
        .run(&mut fleet)
        .expect("plan");

    println!("hour  on-demand  spot  revoked");
    for s in &metrics.slots {
        let spot: u32 = s.spot_counts.iter().map(|&(_, n)| n).sum();
        println!(
            "{:>4}  {:>9}  {:>4}  {:>7}",
            s.slot, s.od_count, spot, s.revoked
        );
    }
    let s = metrics.serve;
    println!(
        "\ntotals: {} reads, {:.1}% hit rate ({} stale from a backup), \
         {} revocations, {} items restored",
        s.requests(),
        100.0 * s.hit_rate(),
        s.backup_hits,
        s.revocations,
        s.items_copied,
    );
    println!(
        "cost: ${:.4} ({})",
        metrics.total_cost(),
        metrics
            .ledger
            .breakdown()
            .iter()
            .map(|(c, v)| format!("{}=${v:.3}", c.label()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for &(node, _) in fleet.revocations() {
        assert!(
            fleet.fleet().restores().contains_key(&node),
            "revoked node {node} was never restored"
        );
    }
    assert!(s.hit_rate() > 0.5, "hit rate {}", s.hit_rate());
    println!("live fleet OK");
}
