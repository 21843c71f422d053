//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! Both exporters walk the registry in name order and the journal oldest
//! first, so two snapshots of identical state are byte-identical — the
//! property the determinism tests lean on.
//!
//! JSON is hand-rolled (the workspace builds offline with no serde); a
//! small recursive-descent validator is exposed so CI can check that the
//! emitted snapshot actually parses.

use std::fmt::Write as _;

use crate::journal::{Event, EventKind, Journal};
use crate::registry::{Metric, Registry};

/// Quantiles reported for every histogram.
pub(crate) const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == 0.0 {
        // Negative zero renders as `-0`; normalize so snapshots diff
        // cleanly (same policy as the JSON exporter).
        "0".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the registry in Prometheus text exposition format.
///
/// Counters and gauges become single samples; histograms become
/// summaries (`{quantile="..."}` samples plus `_sum`/`_count`/`_max`).
pub(crate) fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, metric) in registry.metrics() {
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", fmt_f64(g.get()));
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} summary");
                for q in SUMMARY_QUANTILES {
                    let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", fmt_f64(h.quantile(q)));
                }
                let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum()));
                let _ = writeln!(out, "{name}_count {}", h.count());
                let _ = writeln!(out, "{name}_max {}", fmt_f64(h.max()));
            }
        }
    }
    out
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The one JSON number policy of `obs` (gauges, journal events and
/// [`crate::DecaySeries::json`]): NaN/±Inf become `null` (JSON has no
/// non-finite numbers) and negative zero is normalized to `0` (`-0` is
/// technically valid JSON but round-trips as a surprise — see
/// `control_hot_on_spot_frac` in early BENCH_obs snapshots).
pub(crate) fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v}")
    }
}

fn json_event(ev: &Event) -> String {
    let mut fields = vec![
        format!("\"t\":{}", ev.t),
        format!("\"kind\":\"{}\"", ev.kind.tag()),
    ];
    match &ev.kind {
        EventKind::BidPlaced { label, bid, count } => {
            fields.push(format!("\"label\":\"{}\"", json_escape(label)));
            fields.push(format!("\"bid\":{}", json_f64(*bid)));
            fields.push(format!("\"count\":{count}"));
        }
        EventKind::Revocation {
            label,
            count,
            warned,
        } => {
            fields.push(format!("\"label\":\"{}\"", json_escape(label)));
            fields.push(format!("\"count\":{count}"));
            fields.push(format!("\"warned\":{warned}"));
        }
        EventKind::NodeLaunched { label, count } | EventKind::NodeDeallocated { label, count } => {
            fields.push(format!("\"label\":\"{}\"", json_escape(label)));
            fields.push(format!("\"count\":{count}"));
        }
        EventKind::BackupWarmupProgress {
            warmed_mass,
            pump_items_per_sec,
        } => {
            fields.push(format!("\"warmed_mass\":{}", json_f64(*warmed_mass)));
            fields.push(format!(
                "\"pump_items_per_sec\":{}",
                json_f64(*pump_items_per_sec)
            ));
        }
        EventKind::BucketThrottled {
            bucket,
            demand,
            achieved,
        } => {
            fields.push(format!("\"bucket\":\"{}\"", json_escape(bucket)));
            fields.push(format!("\"demand\":{}", json_f64(*demand)));
            fields.push(format!("\"achieved\":{}", json_f64(*achieved)));
        }
    }
    format!("{{{}}}", fields.join(","))
}

/// Renders registry + journal as one JSON document:
///
/// ```json
/// {"counters":{...},"gauges":{...},"histograms":{...},
///  "events":[...],"events_dropped":N}
/// ```
pub fn json_snapshot(registry: &Registry, journal: &Journal) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, metric) in registry.metrics() {
        let key = json_escape(&name);
        match metric {
            Metric::Counter(c) => counters.push(format!("\"{key}\":{}", c.get())),
            Metric::Gauge(g) => gauges.push(format!("\"{key}\":{}", json_f64(g.get()))),
            Metric::Histogram(h) => {
                let quantiles = SUMMARY_QUANTILES
                    .iter()
                    .map(|&q| format!("\"p{}\":{}", (q * 100.0).round(), json_f64(h.quantile(q))))
                    .collect::<Vec<_>>()
                    .join(",");
                histograms.push(format!(
                    "\"{key}\":{{\"count\":{},\"mean\":{},\"max\":{},{quantiles}}}",
                    h.count(),
                    json_f64(h.mean()),
                    json_f64(h.max()),
                ));
            }
        }
    }
    let events = journal
        .events()
        .iter()
        .map(json_event)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\"events\":[{}],\"events_dropped\":{}}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(","),
        events,
        journal.dropped(),
    )
}

/// Renders the journal as NDJSON: one event object per line, oldest
/// first, each line independently `validate_json`-clean. The `/journal`
/// scrape route serves this so operators can `tail`/`grep` it directly.
pub(crate) fn journal_ndjson(journal: &Journal) -> String {
    let events = journal.events();
    let mut out = String::new();
    for ev in &events {
        out.push_str(&json_event(ev));
        out.push('\n');
    }
    out
}

/// Validates Prometheus text exposition syntax: every line must be a
/// comment (`# ...`, with `# TYPE <name> <kind>` checked strictly) or a
/// sample `name[{labels}] value`, where label values escape backslash,
/// double quote and newline, and the value is a float, `NaN`, or
/// `±Inf`. Returns `Err(byte offset)` of the first violation — the
/// scrape-gate twin of [`validate_json`].
pub fn validate_prometheus_text(input: &str) -> Result<(), usize> {
    let mut offset = 0;
    for line in input.split('\n') {
        let res = validate_prometheus_line(line);
        if let Err(at) = res {
            return Err(offset + at);
        }
        offset += line.len() + 1;
    }
    Ok(())
}

fn is_metric_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b':'
}

fn is_metric_name_char(c: u8) -> bool {
    is_metric_name_start(c) || c.is_ascii_digit()
}

fn validate_prometheus_line(line: &str) -> Result<(), usize> {
    let b = line.as_bytes();
    if b.is_empty() {
        return Ok(());
    }
    if b[0] == b'#' {
        // `# TYPE <name> <kind>` is checked strictly; other comments pass.
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            let name_ok = !name.is_empty()
                && is_metric_name_start(name.as_bytes()[0])
                && name.bytes().all(is_metric_name_char);
            let kind_ok = matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            );
            if !name_ok || !kind_ok || parts.next().is_some() {
                return Err(0);
            }
        }
        return Ok(());
    }
    let mut pos = 0;
    if !is_metric_name_start(b[0]) {
        return Err(0);
    }
    while pos < b.len() && is_metric_name_char(b[pos]) {
        pos += 1;
    }
    if b.get(pos) == Some(&b'{') {
        pos += 1;
        loop {
            // label name
            let start = pos;
            while pos < b.len() && is_metric_name_char(b[pos]) {
                pos += 1;
            }
            if pos == start || b.get(pos) != Some(&b'=') {
                return Err(pos);
            }
            pos += 1;
            if b.get(pos) != Some(&b'"') {
                return Err(pos);
            }
            pos += 1;
            loop {
                match b.get(pos) {
                    Some(b'"') => {
                        pos += 1;
                        break;
                    }
                    Some(b'\\') => match b.get(pos + 1) {
                        Some(b'\\' | b'"' | b'n') => pos += 2,
                        _ => return Err(pos),
                    },
                    Some(b'\n') | None => return Err(pos),
                    Some(_) => pos += 1,
                }
            }
            match b.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(pos),
            }
        }
    }
    if b.get(pos) != Some(&b' ') {
        return Err(pos);
    }
    pos += 1;
    let value = &line[pos..];
    let value_ok = matches!(value, "NaN" | "+Inf" | "-Inf" | "Inf")
        || (!value.is_empty() && value.parse::<f64>().is_ok());
    if value_ok {
        Ok(())
    } else {
        Err(pos)
    }
}

/// Minimal recursive-descent JSON validator (structure only, no value
/// extraction). Returns `Err(byte offset)` at the first syntax error.
pub fn validate_json(input: &str) -> Result<(), usize> {
    let b = input.as_bytes();
    let mut pos = 0;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos == b.len() {
        Ok(())
    } else {
        Err(pos)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(*pos),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(*pos)
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(start);
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(*pos);
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(*pos);
        }
    }
    Ok(())
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    if b.get(*pos) != Some(&b'"') {
        return Err(*pos);
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(*pos);
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(*pos),
                }
            }
            c if c < 0x20 => return Err(*pos),
            _ => *pos += 1,
        }
    }
    Err(*pos)
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(*pos);
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(*pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> (Registry, Journal) {
        let r = Registry::new();
        r.counter("cache_ops_total").add(7);
        r.gauge("bucket_cpu_level").set(43.5);
        let h = r.histogram("cache_op_latency_us");
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        let j = Journal::new();
        j.record(
            3600,
            EventKind::BidPlaced {
                label: "m4.large".into(),
                bid: 0.12,
                count: 4,
            },
        );
        j.record(
            7200,
            EventKind::BucketThrottled {
                bucket: "cpu".into(),
                demand: 2.0,
                achieved: 0.5,
            },
        );
        (r, j)
    }

    #[test]
    fn prometheus_text_has_all_series() {
        let (r, _) = populated();
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE cache_ops_total counter"));
        assert!(text.contains("cache_ops_total 7"));
        assert!(text.contains("bucket_cpu_level 43.5"));
        assert!(text.contains("cache_op_latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("cache_op_latency_us_count 3"));
        assert!(text.contains("cache_op_latency_us_sum 60"));
    }

    #[test]
    fn json_snapshot_is_valid_and_complete() {
        let (r, j) = populated();
        let json = json_snapshot(&r, &j);
        validate_json(&json).unwrap_or_else(|off| panic!("invalid JSON at {off}: {json}"));
        assert!(json.contains("\"cache_ops_total\":7"));
        assert!(json.contains("\"bucket_cpu_level\":43.5"));
        assert!(json.contains("\"count\":3"));
        assert!(json.contains("\"kind\":\"bid_placed\""));
        assert!(json.contains("\"kind\":\"bucket_throttled\""));
        assert!(json.contains("\"events_dropped\":0"));
    }

    #[test]
    fn json_guards_non_finite_gauges() {
        let r = Registry::new();
        r.gauge("bad").set(f64::NAN);
        r.gauge("hi").set(f64::INFINITY);
        r.gauge("lo").set(f64::NEG_INFINITY);
        let j = Journal::new();
        let json = json_snapshot(&r, &j);
        validate_json(&json).expect("NaN/Inf must not leak into JSON");
        assert!(json.contains("\"bad\":null"));
        assert!(json.contains("\"hi\":null"));
        assert!(json.contains("\"lo\":null"));
    }

    #[test]
    fn negative_zero_gauges_normalize_to_zero() {
        let r = Registry::new();
        // The classic producer of -0: a negated zero-valued fraction.
        r.gauge("frac").set(-0.0);
        let j = Journal::new();
        let json = json_snapshot(&r, &j);
        validate_json(&json).unwrap();
        assert!(json.contains("\"frac\":0"), "got {json}");
        assert!(!json.contains("-0"), "negative zero leaked: {json}");
        let prom = prometheus_text(&r);
        assert!(prom.contains("frac 0\n"), "got {prom}");
    }

    #[test]
    fn snapshots_are_deterministic() {
        let (r, j) = populated();
        assert_eq!(json_snapshot(&r, &j), json_snapshot(&r, &j));
        assert_eq!(prometheus_text(&r), prometheus_text(&r));
    }

    #[test]
    fn prometheus_text_passes_its_own_validator() {
        let (r, _) = populated();
        r.gauge("weird_nan").set(f64::NAN);
        r.gauge("weird_inf").set(f64::INFINITY);
        r.gauge("weird_negzero").set(-0.0);
        let text = prometheus_text(&r);
        validate_prometheus_text(&text)
            .unwrap_or_else(|at| panic!("invalid prometheus text at byte {at}: {text}"));
        // NaN keeps its spelling; -0 normalizes to 0 (never `-0`).
        assert!(text.contains("weird_nan NaN"));
        assert!(text.contains("weird_inf +Inf"));
        assert!(text.contains("weird_negzero 0\n"));
        assert!(!text.contains("-0\n"));
    }

    #[test]
    fn escaped_label_values_validate() {
        for escaped in [
            "plain",
            "with \\\"quotes\\\"",
            "back\\\\slash",
            "new\\nline",
            "all\\\\three\\\"\\n",
            "",
        ] {
            let line = format!("series{{label=\"{escaped}\"}} 1");
            validate_prometheus_text(&line)
                .unwrap_or_else(|at| panic!("{escaped:?} invalid at {at}: {line}"));
        }
    }

    #[test]
    fn prometheus_validator_rejects_malformed() {
        for bad in [
            "1leading_digit 1",
            "name",                           // no value
            "name abc",                       // junk value
            "name{label=\"unterminated} 1",   // quote never closed
            "name{label=\"raw\nnewline\"} 1", // literal newline in value
            "name{label=\"bad\\q\"} 1",       // unknown escape
            "name{=\"x\"} 1",                 // empty label name
            "name{a=\"x\" b=\"y\"} 1",        // missing comma
            "# TYPE name nonsense",
            "# TYPE 9name counter",
            "# TYPE name counter extra",
        ] {
            assert!(validate_prometheus_text(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "",
            "# HELP anything goes here",
            "# TYPE cache_ops_total counter",
            "cache_ops_total 7",
            "lat{quantile=\"0.5\"} 12.5",
            "g NaN",
            "g -Inf",
            "multi{a=\"x\",b=\"y\"} 1e-3",
        ] {
            validate_prometheus_text(good).unwrap_or_else(|at| panic!("rejected {good:?} at {at}"));
        }
    }

    #[test]
    fn export_order_is_insertion_independent() {
        // The determinism lock-in: two registries populated in opposite
        // orders must export byte-identically (BTreeMap name ordering).
        let names = ["zeta_total", "alpha_total", "mid_level", "beta_lat"];
        let build = |order: &[usize]| {
            let r = Registry::new();
            for &i in order {
                match names[i] {
                    n if n.ends_with("_total") => r.counter(n).add(i as u64 + 1),
                    n if n.ends_with("_level") => r.gauge(n).set(i as f64),
                    n => {
                        r.histogram(n).record(i as f64 + 0.5);
                    }
                }
            }
            r
        };
        let fwd = build(&[0, 1, 2, 3]);
        let rev = build(&[3, 2, 1, 0]);
        assert_eq!(prometheus_text(&fwd), prometheus_text(&rev));
        let j = Journal::new();
        assert_eq!(json_snapshot(&fwd, &j), json_snapshot(&rev, &j));
        // And repeated scrapes of the same registry are byte-identical.
        assert_eq!(prometheus_text(&fwd), prometheus_text(&fwd));
    }

    #[test]
    fn journal_ndjson_roundtrips_events() {
        let (_, j) = populated();
        let body = journal_ndjson(&j);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            validate_json(line).unwrap_or_else(|at| panic!("bad line at {at}: {line}"));
        }
        assert!(lines[0].contains("\"kind\":\"bid_placed\""));
        assert!(journal_ndjson(&Journal::new()).is_empty());
    }

    #[test]
    fn validator_rejects_malformed() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "\"unterminated",
            "{} extra",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\n\\u0041\"}",
        ] {
            validate_json(good).unwrap_or_else(|off| panic!("rejected {good:?} at {off}"));
        }
    }
}
