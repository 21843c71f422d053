#![warn(missing_docs)]

//! Experiment regenerators and benchmark harness for `spotcache`.
//!
//! Every table, figure, ablation and extension experiment of the
//! evaluation is a function of the one `repro` binary under `src/bin/`
//! (`repro <name>` prints `results/<name>.txt`; see DESIGN.md for the
//! index), and the other three are the two live drills and the one
//! observability run (`obs_snapshot`). Timings come from the benchmark
//! ledger (`benchmark/`), not from this crate. This library crate
//! carries small output helpers shared by the binaries plus [`live`],
//! what every live bin shares (flag parsing, artifact writing, hot-set
//! prefill, per-tier clients and the routed read window), [`fleet`], the
//! one live fleet both `revocation_drill` and `storm_drill` drive
//! (primaries replicating to backup servers, degraded routing, restores
//! through every recovery strategy) and the live substrate the control
//! loop drives (`examples/live_fleet.rs`), and [`faults`], the
//! fault-injecting TCP proxy behind
//! `revocation_drill`'s link-fault matrix plus the correlated-storm
//! scheduler.

pub mod faults;
pub mod fleet;
pub mod live;

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
