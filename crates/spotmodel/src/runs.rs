//! Extraction of contiguous below-bid price runs from a trace window.
//!
//! A *run* is a maximal contiguous sequence of samples whose price is at or
//! below a bid — the raw material for both `L^s(b)` and `p̄^s(b)` (paper
//! Figure 1).

use spotcache_cloud::spot::{Bid, SpotTrace};

/// One contiguous below-bid run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// Start time of the run (first covered sample).
    pub start: u64,
    /// Length in seconds (sample count × step).
    pub len: u64,
    /// Mean price over the run, $/hour.
    pub avg_price: f64,
    /// Whether the run was cut short by the window edge (left- or
    /// right-censored) rather than ended by a price exceedance.
    pub censored: bool,
}

impl Run {
    /// End time (exclusive) of the run.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Extracts all below-bid runs of `trace` within `[from, to)`.
///
/// Runs that touch the window edges are flagged `censored` — their true
/// length is only known to be *at least* the observed one. Callers decide
/// whether to include them (the lifetime model does: dropping long censored
/// runs would bias the lifetime distribution pessimistically).
pub fn below_bid_runs(trace: &SpotTrace, from: u64, to: u64, bid: Bid) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut current: Option<(u64, f64, u64)> = None; // (start, price_sum, count)
    let step = trace.step;
    for (t, p) in trace.samples(from, to) {
        if bid.covers(p) {
            match &mut current {
                Some((_, sum, n)) => {
                    *sum += p;
                    *n += 1;
                }
                None => current = Some((t, p, 1)),
            }
        } else if let Some((start, sum, n)) = current.take() {
            runs.push(Run {
                start,
                len: n * step,
                avg_price: sum / n as f64,
                censored: start <= from, // left-censored if it began at the window edge
            });
        }
    }
    if let Some((start, sum, n)) = current {
        // Right-censored: still running at the window end.
        runs.push(Run {
            start,
            len: n * step,
            avg_price: sum / n as f64,
            censored: true,
        });
    }
    runs
}

/// The run in progress at time `t` (price at `t` must be at or below `bid`),
/// extended forward until the first exceedance or the end of the trace.
///
/// This is the *actual* residual-lifetime ground truth used in validation:
/// how long an instance procured at `t` with `bid` would really live.
pub fn residual_run(trace: &SpotTrace, t: u64, bid: Bid) -> Option<Run> {
    let price_now = trace.price_at(t)?;
    if !bid.covers(price_now) {
        return None;
    }
    let step = trace.step;
    // Align t to its sample.
    let idx0 = ((t.saturating_sub(trace.start)) / step).min(trace.prices.len() as u64 - 1);
    let start = trace.start + idx0 * step;
    let (mut sum, mut n) = (0.0, 0u64);
    let mut censored = true;
    for i in idx0 as usize..trace.prices.len() {
        let p = trace.prices[i];
        if bid.covers(p) {
            sum += p;
            n += 1;
        } else {
            censored = false;
            break;
        }
    }
    Some(Run {
        start,
        len: n * step,
        avg_price: sum / n as f64,
        censored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cloud::spot::MarketId;

    fn trace(prices: Vec<f64>) -> SpotTrace {
        SpotTrace::new(MarketId::new("m4.large", "us-east-1d"), 0.12, prices)
    }

    #[test]
    fn extracts_interior_runs_with_lengths_and_prices() {
        // below, below, ABOVE, below, ABOVE, below(censored at end)
        let t = trace(vec![0.02, 0.04, 0.5, 0.06, 0.5, 0.08]);
        let runs = below_bid_runs(&t, 0, t.end(), Bid(0.1));
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].len, 600);
        assert!((runs[0].avg_price - 0.03).abs() < 1e-12);
        assert!(runs[0].censored); // starts at the window edge
        assert_eq!(runs[1].len, 300);
        assert!(!runs[1].censored);
        assert!(runs[2].censored); // still running at trace end
    }

    #[test]
    fn all_below_is_one_censored_run() {
        let t = trace(vec![0.03; 10]);
        let runs = below_bid_runs(&t, 0, t.end(), Bid(0.1));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 3_000);
        assert!(runs[0].censored);
    }

    #[test]
    fn all_above_is_no_runs() {
        let t = trace(vec![0.5; 10]);
        assert!(below_bid_runs(&t, 0, t.end(), Bid(0.1)).is_empty());
    }

    #[test]
    fn windowing_restricts_samples() {
        let t = trace(vec![0.03, 0.03, 0.5, 0.03, 0.03, 0.03]);
        let runs = below_bid_runs(&t, 900, 1_800, Bid(0.1));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].start, 900);
        assert_eq!(runs[0].len, 900);
    }

    #[test]
    fn residual_run_measures_forward_lifetime() {
        let t = trace(vec![0.03, 0.03, 0.03, 0.5, 0.03]);
        let r = residual_run(&t, 300, Bid(0.1)).unwrap();
        assert_eq!(r.len, 600); // samples at 300 and 600
        assert!(!r.censored);
        assert!(residual_run(&t, 900, Bid(0.1)).is_none()); // price above bid
        let r2 = residual_run(&t, 1_200, Bid(0.1)).unwrap();
        assert!(r2.censored); // runs to trace end
    }

    #[test]
    fn run_end_is_start_plus_len() {
        let r = Run {
            start: 600,
            len: 900,
            avg_price: 0.1,
            censored: false,
        };
        assert_eq!(r.end(), 1_500);
    }
}
