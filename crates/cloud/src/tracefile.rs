//! CSV import/export for spot price traces.
//!
//! The synthetic generator stands in for the paper's 90-day EC2 history,
//! but nothing downstream cares where the samples came from: this module
//! lets real price history (e.g. from `aws ec2 describe-spot-price-history`)
//! be loaded as a [`SpotTrace`] and traces be exported for plotting.
//!
//! Format (header optional, recognized and skipped):
//!
//! ```csv
//! timestamp,price
//! 0,0.0321
//! 300,0.0334
//! ```
//!
//! Timestamps are seconds from an arbitrary epoch; irregularly-sampled
//! input is resampled to the requested step with zero-order hold, matching
//! how EC2 price changes take effect.

use crate::spot::{MarketId, SpotTrace};
use crate::TRACE_STEP;

/// Most samples a parsed trace may hold after resampling: 2^24, which is
/// 159 years at the 5-minute step, 194 days at one second, 128 MiB of prices.
pub const MAX_SAMPLES: usize = 1 << 24;

/// Errors from [`parse_csv`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceFileError {
    /// A data line did not have two comma-separated fields.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse as a number, or a price was negative.
    BadValue {
        /// 1-based line number.
        line: usize,
    },
    /// Timestamps must be non-decreasing.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
    },
    /// No data rows were found.
    Empty,
    /// The resampling step was zero.
    ZeroStep,
    /// The rows span more than [`MAX_SAMPLES`] steps.
    TooLong,
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::BadLine { line } => write!(f, "line {line}: expected 2 fields"),
            TraceFileError::BadValue { line } => write!(f, "line {line}: bad number"),
            TraceFileError::OutOfOrder { line } => {
                write!(f, "line {line}: timestamps must be non-decreasing")
            }
            TraceFileError::Empty => write!(f, "no data rows"),
            TraceFileError::ZeroStep => write!(f, "resampling step must be at least 1 s"),
            TraceFileError::TooLong => {
                write!(f, "rows span more than {MAX_SAMPLES} resampling steps")
            }
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Parses CSV content into a trace for `market`, resampled to the standard
/// 5-minute step.
pub fn parse_csv(
    market: MarketId,
    od_price: f64,
    content: &str,
) -> Result<SpotTrace, TraceFileError> {
    parse_csv_with_step(market, od_price, content, TRACE_STEP)
}

/// Parses CSV content, resampling to `step` seconds.
pub fn parse_csv_with_step(
    market: MarketId,
    od_price: f64,
    content: &str,
    step: u64,
) -> Result<SpotTrace, TraceFileError> {
    if step == 0 {
        return Err(TraceFileError::ZeroStep);
    }
    let mut points: Vec<(u64, f64)> = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let a = fields.next().map(str::trim).unwrap_or("");
        let b = fields.next().map(str::trim);
        let Some(b) = b else {
            return Err(TraceFileError::BadLine { line: line_no });
        };
        if fields.next().is_some() {
            return Err(TraceFileError::BadLine { line: line_no });
        }
        // Header row: skip if the first field is not numeric and this is
        // the first content line.
        if points.is_empty()
            && a.parse::<u64>().is_err()
            && !a.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            continue;
        }
        let t: u64 = a
            .parse()
            .map_err(|_| TraceFileError::BadValue { line: line_no })?;
        let p: f64 = b
            .parse()
            .map_err(|_| TraceFileError::BadValue { line: line_no })?;
        if !p.is_finite() || p < 0.0 {
            return Err(TraceFileError::BadValue { line: line_no });
        }
        if let Some(&(prev, _)) = points.last() {
            if t < prev {
                return Err(TraceFileError::OutOfOrder { line: line_no });
            }
        }
        points.push((t, p));
    }
    if points.is_empty() {
        return Err(TraceFileError::Empty);
    }

    // Resample with zero-order hold onto [t0, t_last] at `step`.
    let t0 = points[0].0;
    let t_end = points.last().unwrap().0;
    // The last row's timestamp sizes the allocation: bound it first.
    let last = (t_end - t0) / step;
    if last >= MAX_SAMPLES as u64 {
        return Err(TraceFileError::TooLong);
    }
    let n = last as usize + 1;
    let mut prices = Vec::with_capacity(n);
    let mut cursor = 0usize;
    for i in 0..n {
        let t = t0 + i as u64 * step;
        while cursor + 1 < points.len() && points[cursor + 1].0 <= t {
            cursor += 1;
        }
        prices.push(points[cursor].1);
    }
    let mut trace = SpotTrace::new(market, od_price, prices);
    trace.start = t0;
    trace.step = step;
    Ok(trace)
}

/// Serializes a trace as CSV (with header), inverse of [`parse_csv`].
pub fn to_csv(trace: &SpotTrace) -> String {
    let mut out = String::with_capacity(trace.prices.len() * 16 + 16);
    out.push_str("timestamp,price\n");
    for (i, p) in trace.prices.iter().enumerate() {
        out.push_str(&format!("{},{p}\n", trace.start + i as u64 * trace.step));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market() -> MarketId {
        MarketId::new("m4.large", "us-east-1d")
    }

    #[test]
    fn parses_regular_csv_with_header() {
        let csv = "timestamp,price\n0,0.03\n300,0.04\n600,0.05\n";
        let t = parse_csv(market(), 0.12, csv).unwrap();
        assert_eq!(t.prices, vec![0.03, 0.04, 0.05]);
        assert_eq!(t.price_at(300), Some(0.04));
    }

    #[test]
    fn header_is_optional_and_comments_skip() {
        let csv = "# comment\n0,0.03\n300,0.04\n";
        let t = parse_csv(market(), 0.12, csv).unwrap();
        assert_eq!(t.prices.len(), 2);
    }

    #[test]
    fn irregular_samples_are_zero_order_held() {
        // Price changes at t=0 and t=700; resampled at 300 s: samples at
        // 0, 300, 600 hold 0.03; 900 holds 0.07.
        let csv = "0,0.03\n700,0.07\n900,0.07\n";
        let t = parse_csv(market(), 0.12, csv).unwrap();
        assert_eq!(t.prices, vec![0.03, 0.03, 0.03, 0.07]);
    }

    #[test]
    fn nonzero_epoch_is_preserved() {
        let csv = "6000,0.03\n6300,0.05\n";
        let t = parse_csv(market(), 0.12, csv).unwrap();
        assert_eq!(t.start, 6000);
        assert_eq!(t.price_at(6300), Some(0.05));
    }

    #[test]
    fn roundtrip_through_csv() {
        let orig = SpotTrace::new(market(), 0.12, vec![0.03, 0.04, 0.05, 0.5]);
        let csv = to_csv(&orig);
        let back = parse_csv(market(), 0.12, &csv).unwrap();
        assert_eq!(orig.prices, back.prices);
        assert_eq!(orig.start, back.start);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            parse_csv(market(), 0.12, "").unwrap_err(),
            TraceFileError::Empty
        );
        assert_eq!(
            parse_csv(market(), 0.12, "0\n").unwrap_err(),
            TraceFileError::BadLine { line: 1 }
        );
        assert_eq!(
            parse_csv(market(), 0.12, "0,abc\n").unwrap_err(),
            TraceFileError::BadValue { line: 1 }
        );
        assert_eq!(
            parse_csv(market(), 0.12, "0,0.03\n1,2,3\n").unwrap_err(),
            TraceFileError::BadLine { line: 2 }
        );
        assert_eq!(
            parse_csv(market(), 0.12, "300,0.03\n0,0.04\n").unwrap_err(),
            TraceFileError::OutOfOrder { line: 2 }
        );
        assert_eq!(
            parse_csv(market(), 0.12, "0,-1.0\n").unwrap_err(),
            TraceFileError::BadValue { line: 1 }
        );
    }

    #[test]
    fn zero_step_is_an_error_not_a_division() {
        assert_eq!(
            parse_csv_with_step(market(), 0.12, "0,0.03\n300,0.04\n", 0).unwrap_err(),
            TraceFileError::ZeroStep
        );
    }

    #[test]
    fn a_far_timestamp_is_an_error_not_an_allocation() {
        let csv = "0,0.03\n1000000000000000000,0.04\n";
        assert_eq!(
            parse_csv(market(), 0.12, csv).unwrap_err(),
            TraceFileError::TooLong
        );
        // The bound itself: a last row MAX_SAMPLES steps out is one sample
        // too many.
        let edge = format!("0,0.03\n{MAX_SAMPLES},0.04\n");
        assert_eq!(
            parse_csv_with_step(market(), 0.12, &edge, 1).unwrap_err(),
            TraceFileError::TooLong
        );
    }

    #[test]
    fn custom_step_resampling() {
        let csv = "0,0.01\n60,0.02\n120,0.03\n";
        let t = parse_csv_with_step(market(), 0.12, csv, 60).unwrap();
        assert_eq!(t.prices, vec![0.01, 0.02, 0.03]);
        assert_eq!(t.step, 60);
    }

    #[test]
    fn parsed_trace_feeds_the_predictors() {
        // End-to-end: a CSV trace works with the run-extraction machinery.
        let csv = "0,0.03\n300,0.03\n600,0.50\n900,0.03\n";
        let t = parse_csv(market(), 0.12, csv).unwrap();
        assert_eq!(
            t.first_failure_in(0, u64::MAX, crate::spot::Bid(0.1)),
            Some(600)
        );
    }
}
