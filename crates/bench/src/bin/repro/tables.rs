//! Paper Tables 1–4.

use spotcache_bench::{claim, heading, print_table};
use spotcache_cloud::catalog::{BURSTABLE_TYPES, REGULAR_TYPES};
use spotcache_cloud::pricing::{fit_burstable_model, fit_price_model};
use spotcache_cloud::spot::Bid;
use spotcache_cloud::{InstanceType, DAY};
use spotcache_core::Approach;
use spotcache_spotmodel::assess::assess_hourly;
use spotcache_spotmodel::{CdfPredictor, TemporalPredictor};

use crate::{markets, PAPER_DAYS};

/// **Table 1**: per-unit resource prices from the linear regression over
/// the instance catalog, smallest sizes, and CPU/network per unit RAM
/// ratios for regular, spot, and burstable offerings.
pub(crate) fn table1() {
    heading("Table 1: per-unit resource prices (linear regression)");

    let reg = fit_price_model(REGULAR_TYPES).expect("regression over 25 types");
    println!(
        "regular on-demand: p = {:.4}·vCPU + {:.4}·GB   (R² = {:.3}, {} types)",
        reg.vcpu_unit,
        reg.ram_unit,
        reg.r_squared,
        REGULAR_TYPES.len()
    );
    let burst = fit_burstable_model(BURSTABLE_TYPES).expect("burstable regression");
    println!(
        "burstable:         p = {:.4}·GB             (R² = {:.4}; CPU/network absent from the model)",
        burst.ram_unit, burst.r_squared
    );

    heading("Instance-class comparison (paper Table 1 rows)");
    let min_ratio = |f: &dyn Fn(&InstanceType) -> f64, set: &[InstanceType]| {
        set.iter().map(f).fold(f64::MAX, f64::min)
    };
    let max_ratio = |f: &dyn Fn(&InstanceType) -> f64, set: &[InstanceType]| {
        set.iter().map(f).fold(f64::MIN, f64::max)
    };
    let cpu_lo = min_ratio(&|t| t.cpu_per_ram(false), REGULAR_TYPES);
    let cpu_hi = max_ratio(&|t| t.cpu_per_ram(false), REGULAR_TYPES);
    let net_lo = min_ratio(&|t| t.net_per_ram(false), REGULAR_TYPES);
    let net_hi = max_ratio(&|t| t.net_per_ram(false), REGULAR_TYPES);
    let b_cpu_lo = min_ratio(&|t| t.cpu_per_ram(false), BURSTABLE_TYPES);
    let b_cpu_hi = max_ratio(&|t| t.cpu_per_ram(false), BURSTABLE_TYPES);
    let b_net = BURSTABLE_TYPES[0].net_per_ram(false);
    let p_cpu_lo = min_ratio(&|t| t.cpu_per_ram(true), BURSTABLE_TYPES);
    let p_cpu_hi = max_ratio(&|t| t.cpu_per_ram(true), BURSTABLE_TYPES);
    let p_net_lo = min_ratio(&|t| t.net_per_ram(true), BURSTABLE_TYPES);
    let p_net_hi = max_ratio(&|t| t.net_per_ram(true), BURSTABLE_TYPES);

    let rows = vec![
        vec![
            "Regular (OD)".into(),
            format!("{:.4}", reg.vcpu_unit),
            format!("{:.4}", reg.ram_unit),
            "1".into(),
            "3.75".into(),
            format!("{cpu_lo:.2}-{cpu_hi:.2}"),
            format!("{net_lo:.0}-{net_hi:.0}"),
        ],
        vec![
            "Spot".into(),
            "70-90% cheaper than OD".into(),
            "".into(),
            "1".into(),
            "3.75".into(),
            format!("{cpu_lo:.2}-{cpu_hi:.2}"),
            format!("{net_lo:.0}-{net_hi:.0}"),
        ],
        vec![
            "Burstable (base)".into(),
            "0".into(),
            format!("{:.3}", burst.ram_unit),
            format!("{b_cpu_lo:.3}"),
            "0.5".into(),
            format!("{b_cpu_lo:.3}-{b_cpu_hi:.2}"),
            format!("{b_net:.0}"),
        ],
        vec![
            "Burstable (peak)".into(),
            "".into(),
            "".into(),
            "1".into(),
            "0.5".into(),
            format!("{p_cpu_lo:.2}-{p_cpu_hi:.1}"),
            format!("{p_net_lo:.0}-{p_net_hi:.0}"),
        ],
    ];
    print_table(
        &[
            "class",
            "$/vCPU·h",
            "$/GB·h",
            "min vCPU",
            "min RAM",
            "vCPU/GB",
            "Mbps/GB",
        ],
        &rows,
    );

    println!();
    println!("paper: 0.0397 $/vCPU·h, 0.0057 $/GB·h, R² = 0.99; burstable 0.013 $/GB·h (exact).");

    let off = |fit: f64, paper: f64| (fit / paper - 1.0).abs();
    claim(
        "table1:regression_matches_paper",
        off(reg.vcpu_unit, 0.0397) <= 0.05
            && off(reg.ram_unit, 0.0057) <= 0.05
            && reg.r_squared >= 0.99
            && (burst.ram_unit - 0.013).abs() < 1e-6
            && burst.r_squared > 0.9999,
        format!(
            "$/vCPU·h {:.5} ({:.3} off 0.0397), $/GB·h {:.5} ({:.3} off 0.0057), both <= 0.05; \
             R² {:.4} (>= 0.99); burstable $/GB·h {:.7} (0.013 +- 1e-6), R² {:.6} (> 0.9999)",
            reg.vcpu_unit,
            off(reg.vcpu_unit, 0.0397),
            reg.ram_unit,
            off(reg.ram_unit, 0.0057),
            reg.r_squared,
            burst.ram_unit,
            burst.r_squared
        ),
    );
}

/// **Table 2**: the spot predictor assessment — lifetime over-estimation
/// rate `f^s(b)` and relative price deviation `ξ^s(b)` for our
/// temporal-locality predictor versus the CDF baseline, over two markets
/// and five bids with a 7-day history window.
pub(crate) fn table2() {
    heading("Table 2: f^s(b) and xi^s(b), ours vs CDF baseline (7-day window)");

    let traces = markets(PAPER_DAYS);
    let window = 7 * DAY;
    let ours = TemporalPredictor::new(window, 0.05);
    let cdf = CdfPredictor::new(window);

    // The paper's Table 2 prints the two m4.large markets (us-east-1c,
    // -1d); the claims below score bids up to 5d in all four.
    let mut rows = Vec::new();
    let (mut scored, mut close, mut worst_f) = (0, 0, 0.0f64);
    for trace in &traces {
        for mult in [0.5, 1.0, 2.0, 5.0, 10.0] {
            let bid = Bid::times_od(mult, trace.od_price);
            let a = assess_hourly(&ours, trace, bid, window);
            let b = assess_hourly(&cdf, trace, bid, window);
            if let (Some(a), Some(b), true) = (&a, &b, mult <= 5.0) {
                scored += 1;
                close += usize::from(a.over_estimation_rate <= b.over_estimation_rate + 0.02);
                worst_f = worst_f.max(a.over_estimation_rate);
            }
            if trace.market.instance_type != "m4.large" {
                continue;
            }
            let fmt = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.2}"));
            rows.push(vec![
                trace.market.short_label(),
                format!("{mult}d"),
                fmt(a.as_ref().map(|r| r.over_estimation_rate)),
                fmt(a.as_ref().map(|r| r.price_deviation)),
                fmt(b.as_ref().map(|r| r.over_estimation_rate)),
                fmt(b.as_ref().map(|r| r.price_deviation)),
                a.as_ref().map_or("0".into(), |r| r.samples.to_string()),
            ]);
        }
    }
    print_table(
        &["market", "bid", "f(b)", "xi(b)", "f(b)*", "xi(b)*", "n"],
        &rows,
    );
    println!();
    println!("f(b)/xi(b): ours; f(b)*/xi(b)*: CDF baseline. Lower is better.");
    println!("paper: ours mostly < 0.15 and <= the CDF baseline at almost every (market, bid).");

    claim(
        "table2:ours_at_or_below_cdf",
        scored >= 8 && close as f64 >= 0.9 * scored as f64 && worst_f < 0.25,
        format!(
            "ours' f <= CDF's + 0.02 on {close}/{scored} (market, bid) pairs (>= 90%), \
             worst f {worst_f:.3} (< 0.25)"
        ),
    );
}

/// **Table 3**: the cost of each t2 burstable type versus the on-demand
/// price of its *peak* capacity at the Table 1 unit prices — the arbitrage
/// the passive backup exploits.
pub(crate) fn table3() {
    heading("Table 3: burstable price vs peak-capacity OD-equivalent price");

    let model = fit_price_model(REGULAR_TYPES).expect("regression");
    let od_eqs: Vec<f64> = BURSTABLE_TYPES
        .iter()
        .map(|t| t.od_equivalent_price(model.vcpu_unit, model.ram_unit))
        .collect();
    let rows: Vec<Vec<String>> = BURSTABLE_TYPES
        .iter()
        .zip(&od_eqs)
        .map(|(t, &od_eq)| {
            vec![
                t.name.to_string(),
                format!("{:.4}", t.od_price),
                format!("{od_eq:.4}"),
                format!("{:.1}x", od_eq / t.od_price),
            ]
        })
        .collect();
    print_table(
        &["type", "unit price $/h", "OD-equivalent $/h", "discount"],
        &rows,
    );

    println!();
    println!("paper: t2.nano 0.0065 vs 0.0425, t2.micro 0.013 vs 0.0454, t2.small 0.026 vs");
    println!("0.0511, t2.medium 0.052 vs 0.1022, t2.large 0.104 vs 0.125.");

    const PAPER_OD_EQ: [f64; 5] = [0.0425, 0.0454, 0.0511, 0.1022, 0.125];
    let worst_off = od_eqs
        .iter()
        .zip(PAPER_OD_EQ)
        .map(|(od_eq, paper)| (od_eq / paper - 1.0).abs())
        .fold(0.0, f64::max);
    let discounts: Vec<f64> = BURSTABLE_TYPES
        .iter()
        .zip(&od_eqs)
        .map(|(t, od_eq)| od_eq / t.od_price)
        .collect();
    claim(
        "table3:burstable_beats_its_peak_price",
        BURSTABLE_TYPES.len() == PAPER_OD_EQ.len()
            && worst_off <= 0.02
            && discounts.iter().all(|&d| d > 1.0)
            && discounts[0] >= 6.0,
        format!(
            "OD-equivalent prices within {worst_off:.4} of the paper's (<= 0.02); discounts \
             {discounts:.2?} (each > 1, t2.nano >= 6)"
        ),
    );
}

/// **Table 4**: the feature matrix of the procurement approaches compared
/// in the evaluation.
pub(crate) fn table4() {
    heading("Table 4: procurement approaches");

    // (approach, spot modeling, mixing, backup): the paper's Table 4.
    use Approach::*;
    let paper = [
        (OdOnly, false, false, false),
        (OdSpotSep, true, false, false),
        (OdSpotCdf, false, true, false),
        (PropNoBackup, true, true, false),
        (Prop, true, true, true),
    ];
    let mark = |b: bool| if b { "yes" } else { "no" }.to_string();
    let rows: Vec<Vec<String>> = Approach::ALL
        .iter()
        .filter(|a| **a != Approach::OdPeak)
        .map(|a| {
            vec![
                a.name().to_string(),
                mark(a.uses_our_spot_modeling()),
                mark(a.uses_mixing()),
                mark(a.has_backup()),
            ]
        })
        .collect();
    print_table(
        &[
            "approach",
            "our spot modeling?",
            "hot-cold mixing?",
            "passive backup?",
        ],
        &rows,
    );
    println!();
    println!("(ODPeak — static peak provisioning — is the additional strawman of Section 2.3.)");

    let differ: Vec<&str> = paper
        .iter()
        .filter(|(a, modeling, mixing, backup)| {
            (a.uses_our_spot_modeling(), a.uses_mixing(), a.has_backup())
                != (*modeling, *mixing, *backup)
        })
        .map(|(a, ..)| a.name())
        .collect();
    claim(
        "table4:feature_matrix_is_the_papers",
        differ.is_empty() && rows.len() == paper.len(),
        format!(
            "{} of {} rows as in the paper; differing: {differ:?}",
            paper.len() - differ.len(),
            rows.len()
        ),
    );
}
