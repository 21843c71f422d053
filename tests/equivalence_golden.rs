//! Equivalence regression: the unified `ControlLoop`/`Substrate` drivers
//! must reproduce the pre-refactor hand-rolled loops' results exactly.
//!
//! The golden values below were captured from the original
//! `core::simulation::simulate` / `core::prototype::run_prototype`
//! implementations (each carrying its own `for hour in`/`for minute in`
//! driver) immediately before the control-plane refactor, at two fixed
//! seeds/configurations per driver. A drift beyond 1e-9 relative means the
//! refactor changed behaviour, not just structure.
//!
//! Re-pinned once for a change of model, when the simulators started
//! leasing spot instances through `SpotTrace::lease`: a warned instance
//! now runs, and is billed, through its 120 s warning, and a backup's
//! warm-up starts at the warning. No revocation count or instance count
//! moved; the runs with warned revocations cost more, and the prototype's
//! Fig. 9 run loses its instance two minutes later. Before, those rows read:
//! the CDF run 3.970_953_833_333_325_06e2; `Prop`/90 d `0x40a75f1e36571bbe`,
//! `OdSpotSep`/21 d `0x40938f044ad1fcff`, `OdSpotCdf`/21 d
//! `0x4078d529d8f39348`; Fig. 9 1 727 975 samples at a mean of
//! 5.190_127_820_741_940_92e2 µs.
//!
//! Not re-pinned when a prototype loss began to strike at its own second
//! rather than at the start of its minute: the generated traces warn on
//! their 300 s grid, 120 s ahead, so every loss here already fell on a
//! whole minute and no figure moved.
//!
//! Literals are kept exactly as captured (`{:.17e}`, full f64 round-trip
//! precision), even where fewer digits would denote the same value.
#![allow(clippy::excessive_precision)]

use spotcache::cloud::tracegen::paper_traces;
use spotcache::core::controller::ControllerConfig;
use spotcache::core::prototype::{run_prototype, PrototypeConfig};
use spotcache::core::simulation::{simulate, SimConfig};
use spotcache::core::Approach;

fn assert_close(got: f64, want: f64, what: &str) {
    let tol = 1e-9 * want.abs().max(1.0);
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got:.17e}, want {want:.17e}"
    );
}

/// Online approach (`Prop`), all paper markets, 14 days, default seed.
#[test]
fn hourly_sim_reproduces_pre_refactor_prop_run() {
    let mut cfg = SimConfig::paper_default(Approach::Prop, 320_000.0, 60.0, 1.2);
    cfg.days = 14;
    let r = simulate(&cfg, &paper_traces(14)).unwrap();
    assert_close(r.total_cost(), 1.495_916_000_000_000_28e2, "total cost");
    assert_close(r.violated_day_frac(), 0.0, "violated day fraction");
    assert_eq!(r.revocations, 0);
}

/// CDF baseline, heavier workload, 21 days, seed 0xBEEF. This run suffers
/// hundreds of revocations, so it exercises the revocation event path and
/// the violation accounting end to end — including the qualitative
/// expectation that the naive CDF bidder violates a large share of days.
#[test]
fn hourly_sim_reproduces_pre_refactor_cdf_run() {
    let mut cfg = SimConfig::paper_default(Approach::OdSpotCdf, 500_000.0, 100.0, 2.0);
    cfg.days = 21;
    cfg.seed = 0xBEEF;
    let r = simulate(&cfg, &paper_traces(21)).unwrap();
    assert_close(r.total_cost(), 3.985_140_833_333_325_08e2, "total cost");
    assert_close(
        r.violated_day_frac(),
        4.285_714_285_714_285_48e-1,
        "violated day fraction",
    );
    assert_eq!(r.revocations, 315);
}

/// The benchmark's `plan_90d` configuration over the paper's traces, and
/// the other three spot approaches at 21 days, compared exactly — cost by
/// `to_bits()`, allocations by count — so one changed pivot or rounding
/// anywhere in a run fails.
///
/// Captured from the planner as it stood before its simplex tableau,
/// harmonic sums and run extraction were replaced by arithmetic-identical
/// faster ones, and held by them; re-pinned once since, when zero-rhs `≥`
/// rows started on their slacks. That start reaches the same optimum of
/// every LP but, where a slot's optimum is a face, another vertex of it,
/// and two rows moved. Before it they read `Prop`/90 d
/// `0x40a75c65566cf420` (2 990.1979), 6 revocations, and `OdSpotSep`/21 d
/// `0x40938e3cefc0a606` (1 251.5595), 4 revocations; their instance counts
/// and the other three rows did not move.
#[test]
fn hourly_sim_is_bit_identical_to_pre_optimisation_planner() {
    // (approach, days, total_cost bits, revocations, Σ od_count, Σ spot counts)
    #[rustfmt::skip]
    let golden: [(Approach, u64, u64, u32, u64, u64); 5] = [
        (Approach::Prop,         90, 0x40a75f25281d0dec,   1,  1_992, 78_408),
        (Approach::OdOnly,       90, 0x40bded88f5c28f56,   0, 72_967,      0),
        (Approach::PropNoBackup, 21, 0x407a133814c0c8f3,   0,    336, 13_239),
        (Approach::OdSpotSep,    21, 0x40938f129ab835f5,   2, 11_052,  1_880),
        (Approach::OdSpotCdf,    21, 0x4078eba747d805dd, 313,    336, 13_239),
    ];
    for (approach, days, cost_bits, revocations, od, spot) in golden {
        let mut cfg = SimConfig::paper_default(approach, 500_000.0, 100.0, 0.99);
        cfg.days = days;
        let r = simulate(&cfg, &paper_traces(days)).unwrap();
        let what = format!("{approach:?}/{days}d");
        assert_eq!(
            r.total_cost().to_bits(),
            cost_bits,
            "{what}: total cost {:.17e}",
            r.total_cost()
        );
        assert_eq!(r.revocations, revocations, "{what}: revocations");
        let od_sum: u64 = r.slots.iter().map(|s| u64::from(s.od_count)).sum();
        let spot_sum: u64 = r
            .slots
            .iter()
            .flat_map(|s| &s.spot_counts)
            .map(|(_, n)| u64::from(*n))
            .sum();
        assert_eq!((od_sum, spot_sum), (od, spot), "{what}: Σ od, Σ spot");
    }
}

/// Figure 9 setup: `Prop_NoBackup` on m4.XL-c day 51.
#[test]
fn prototype_reproduces_pre_refactor_fig9_run() {
    let market = paper_traces(90)
        .into_iter()
        .find(|t| t.market.short_label() == "m4.XL-c")
        .unwrap();
    let cfg = PrototypeConfig {
        controller: ControllerConfig::paper_default(Approach::PropNoBackup),
        start_day: 51,
        peak_rate: 320_000.0,
        max_wss_gb: 60.0,
        theta: 2.0,
        seed: 0xF19,
    };
    let r = run_prototype(&cfg, &market).unwrap();
    assert_eq!(r.revocations, 1);
    assert_eq!(r.latency.count(), 1_727_977);
    assert_close(r.latency.mean(), 5.144_888_466_660_369_20e2, "mean latency");
    assert_close(
        r.latency.quantile(0.95),
        9.295_665_071_788_849_90e2,
        "p95 latency",
    );
}

/// CDF baseline on m4.L-d day 45, seed 5.
#[test]
fn prototype_reproduces_pre_refactor_cdf_run() {
    let market = paper_traces(60).remove(1);
    let cfg = PrototypeConfig {
        controller: ControllerConfig::paper_default(Approach::OdSpotCdf),
        start_day: 45,
        peak_rate: 160_000.0,
        max_wss_gb: 30.0,
        theta: 1.2,
        seed: 5,
    };
    let r = run_prototype(&cfg, &market).unwrap();
    assert_eq!(r.revocations, 1);
    assert_eq!(r.latency.count(), 1_727_940);
    assert_close(r.latency.mean(), 5.107_324_785_641_857_83e2, "mean latency");
    assert_close(
        r.latency.quantile(0.95),
        9.295_665_071_788_849_90e2,
        "p95 latency",
    );
}
