#![warn(missing_docs)]

//! Experiment regenerators and benchmark harness for `spotcache`.
//!
//! Every table, figure, ablation and extension experiment of the
//! evaluation is a function of the one `repro` binary under `src/bin/`
//! (`repro <name>` prints `results/<name>.txt`; see DESIGN.md for the
//! index), the other bins there are live drills and smokes, and
//! `benches/` holds Criterion micro-benchmarks over the core data
//! structures. This library crate carries small output helpers shared by
//! the binaries plus [`live`], what every live bin shares (flag parsing,
//! artifact writing, hot-set prefill, per-tier clients and the routed
//! read window), [`faults`], the fault-injecting TCP proxy the
//! `revocation_drill` bin aims replication links through (plus the
//! correlated-storm scheduler), [`storm`], the fleet-scale churn
//! engine behind `storm_drill`, and [`scrape`], the live-telemetry
//! poller behind `cluster_loadgen --scrape-interval`.

use spotcache_cloud::SpotTrace;
use spotcache_core::controller::{ControllerConfig, GlobalController};
use spotcache_core::Approach;
use spotcache_optimizer::problem::{CostModel, ProcurementProblem, WorkloadForecast};

pub mod faults;
pub mod live;
pub mod scrape;
pub mod storm;

/// Prints a fixed-width text table: a header row, a rule, then rows.
///
/// Column widths are sized to the widest cell.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    println!("{}", "-".repeat(total));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The procurement problem the controller would pose at `now` for `rate`
/// ops/s over a `wss_gb` GiB working set at skew `theta`: its own offers
/// over `traces`, its hot set, and `β` rescaled by access mass as
/// `GlobalController::plan` does.
pub fn controller_problem(
    traces: &[&SpotTrace],
    now: u64,
    rate: f64,
    wss_gb: f64,
    theta: f64,
) -> ProcurementProblem {
    let mut ctl = GlobalController::new(ControllerConfig::paper_default(Approach::PropNoBackup));
    let offers = ctl.build_offers(traces, now);
    let (h, f_hot) = ctl.hot_fraction(wss_gb, theta);
    let mut cost = CostModel::paper_default();
    cost.beta_hot *= f_hot / h;
    cost.beta_cold *= (1.0 - f_hot) / (1.0 - h);
    ProcurementProblem {
        offers,
        workload: WorkloadForecast {
            rate,
            wss_gb,
            alpha: 1.0,
            hot_frac: h.min(1.0),
            f_hot: f_hot.min(1.0),
            f_alpha: 1.0,
        },
        cost,
        force_hot_on_od: false,
        force_cold_on_spot: false,
    }
}

/// Prints a section heading.
pub fn heading(title: &str) {
    println!();
    println!("== {title}");
    println!();
}

/// Formats a dollar amount.
pub fn dollars(v: f64) -> String {
    format!("${v:.2}")
}

/// Formats a ratio as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(dollars(1.5), "$1.50");
        assert_eq!(pct(0.25), "25.0%");
        // Smoke-test the table printer (must not panic).
        print_table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }
}
