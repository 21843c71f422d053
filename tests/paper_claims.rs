//! Integration tests asserting the paper's headline qualitative claims on
//! shortened (but otherwise faithful) versions of the evaluation.

use spotcache::cloud::billing::CostCategory;
use spotcache::cloud::catalog::find_type;
use spotcache::cloud::spot::Bid;
use spotcache::cloud::tracegen::paper_traces;
use spotcache::cloud::DAY;
use spotcache::core::simulation::{simulate, SimConfig};
use spotcache::core::Approach;
use spotcache::sim::{simulate_recovery, BackupChoice, RecoveryConfig};
use spotcache::spotmodel::assess::assess_hourly;
use spotcache::spotmodel::{CdfPredictor, SpotPredictor, TemporalPredictor};

fn quick_sim(approach: Approach, theta: f64) -> spotcache::core::SimResult {
    let mut cfg = SimConfig::paper_default(approach, 500_000.0, 100.0, theta);
    cfg.days = 21;
    simulate(&cfg, &paper_traces(21)).expect("simulation")
}

/// Abstract claim (Section 1): hot-cold mixing with our spot modeling
/// improves cost savings by 50-80% versus regular instances only.
#[test]
fn headline_savings_50_to_80_percent() {
    for theta in [0.99, 2.0] {
        let od = quick_sim(Approach::OdOnly, theta);
        let prop = quick_sim(Approach::PropNoBackup, theta);
        let savings = 1.0 - prop.total_cost() / od.total_cost();
        assert!(
            (0.5..=0.85).contains(&savings),
            "theta {theta}: savings {savings}"
        );
    }
}

/// Section 5.2: Prop_NoBackup matches OD+Spot_CDF's cost while violating
/// the performance target on far fewer days.
#[test]
fn our_modeling_cuts_violations_at_comparable_cost() {
    let traces = paper_traces(21);
    let mut ratios = Vec::new();
    // Single-market setting, as in Figure 7.
    for trace in &traces {
        let single = std::slice::from_ref(trace);
        let mut ours_cfg = SimConfig::paper_default(Approach::PropNoBackup, 500_000.0, 100.0, 2.0);
        ours_cfg.days = 21;
        let ours = simulate(&ours_cfg, single).unwrap();
        let mut cdf_cfg = SimConfig::paper_default(Approach::OdSpotCdf, 500_000.0, 100.0, 2.0);
        cdf_cfg.days = 21;
        let cdf = simulate(&cdf_cfg, single).unwrap();
        assert!(
            ours.violated_day_frac() <= cdf.violated_day_frac(),
            "{}: ours {} vs cdf {}",
            trace.market.short_label(),
            ours.violated_day_frac(),
            cdf.violated_day_frac()
        );
        assert!(
            ours.revocations <= cdf.revocations,
            "{}: revocations {} vs {}",
            trace.market.short_label(),
            ours.revocations,
            cdf.revocations
        );
        // Comparable cost per market (spiky markets can differ more on a
        // short horizon since ours buys safety).
        let ratio = ours.total_cost() / cdf.total_cost();
        assert!(
            ratio < 1.8,
            "{}: cost ratio {ratio}",
            trace.market.short_label()
        );
        ratios.push(ratio);
    }
    // Aggregated, the costs are close (paper: within ~5%; our shortened
    // horizon and synthetic markets allow a wider band).
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(mean < 1.35, "mean cost ratio {mean}");
}

/// Section 5.5: OD+Spot_Sep can cost *more* than ODOnly at high skew.
#[test]
fn separation_backfires_at_zipf_2() {
    let od = quick_sim(Approach::OdOnly, 2.0);
    let sep = quick_sim(Approach::OdSpotSep, 2.0);
    assert!(
        sep.total_cost() >= 0.95 * od.total_cost(),
        "sep {} vs od {}",
        sep.total_cost(),
        od.total_cost()
    );
    // ... while mixing still saves big.
    let prop = quick_sim(Approach::PropNoBackup, 2.0);
    assert!(prop.total_cost() < 0.5 * sep.total_cost());
}

/// Section 5.5: the backup's cost is visible at low skew, negligible at
/// high skew.
#[test]
fn backup_cost_shrinks_with_skew() {
    let low = quick_sim(Approach::Prop, 0.99);
    let high = quick_sim(Approach::Prop, 2.0);
    let share =
        |r: &spotcache::core::SimResult| r.ledger.total(CostCategory::Backup) / r.total_cost();
    assert!(
        share(&low) > 2.0 * share(&high),
        "{} vs {}",
        share(&low),
        share(&high)
    );
    assert!(
        share(&high) < 0.10,
        "high-skew backup share {}",
        share(&high)
    );
}

/// Abstract claim: the burstable backup improves the 95th-percentile
/// latency during failure recovery by ~25% versus a regular-instance
/// backup of similar price (m3.medium).
#[test]
fn burstable_backup_beats_regular_backup_tail() {
    let t2 = simulate_recovery(
        &RecoveryConfig::figure11(BackupChoice::Instance(find_type("t2.medium").unwrap())),
        None,
        None,
    );
    let m3 = simulate_recovery(
        &RecoveryConfig::figure11(BackupChoice::Instance(find_type("m3.medium").unwrap())),
        None,
        None,
    );
    let improvement = 1.0 - t2.overall_p95() / m3.overall_p95();
    assert!(
        (0.10..=0.60).contains(&improvement),
        "p95 improvement {improvement}"
    );
    // And the no-backup configuration is far worse than either.
    let none = simulate_recovery(&RecoveryConfig::figure11(BackupChoice::None), None, None);
    assert!(none.overall_p95() > m3.overall_p95());
}

/// Table 2: our predictor's over-estimation rate is at or below the CDF
/// baseline's at (almost) every (market, bid) pair.
#[test]
fn temporal_predictor_dominates_cdf_on_overestimation() {
    let traces = paper_traces(60);
    let ours = TemporalPredictor::paper_default();
    let cdf = CdfPredictor::paper_default();
    let mut wins = 0;
    let mut comparisons = 0;
    for trace in &traces {
        for mult in [0.5, 1.0, 2.0, 5.0] {
            let bid = Bid::times_od(mult, trace.od_price);
            let a = assess_hourly(&ours as &dyn SpotPredictor, trace, bid, 7 * DAY);
            let b = assess_hourly(&cdf as &dyn SpotPredictor, trace, bid, 7 * DAY);
            if let (Some(a), Some(b)) = (a, b) {
                comparisons += 1;
                if a.over_estimation_rate <= b.over_estimation_rate + 0.02 {
                    wins += 1;
                }
                assert!(
                    a.over_estimation_rate < 0.25,
                    "ours f = {}",
                    a.over_estimation_rate
                );
            }
        }
    }
    assert!(comparisons >= 8, "too few scoreable pairs: {comparisons}");
    assert!(
        wins as f64 >= 0.9 * comparisons as f64,
        "ours wins only {wins}/{comparisons}"
    );
}

/// ODPeak (static peak provisioning) is the costliest sane baseline.
#[test]
fn od_peak_is_the_most_expensive() {
    let peak = quick_sim(Approach::OdPeak, 0.99);
    for a in [Approach::OdOnly, Approach::PropNoBackup, Approach::Prop] {
        let r = quick_sim(a, 0.99);
        assert!(
            peak.total_cost() >= r.total_cost(),
            "{a} cost {} vs peak {}",
            r.total_cost(),
            peak.total_cost()
        );
    }
}
