#![warn(missing_docs)]

//! Observability layer for spotcache: metrics registry, bounded event
//! journal, sampled span tracing, windowed telemetry, and Prometheus/JSON
//! snapshot exporters.
//!
//! The crate has five parts:
//!
//! * `Registry` — named [`Counter`]/[`Gauge`]/[`Histogram`] series with
//!   lock-free recording and name-ordered (deterministic) enumeration.
//! * [`Journal`] — a bounded ring of structured `Event`s
//!   ([`EventKind`]: bids, revocations, node launches, warm-up progress,
//!   bucket throttles, cache ops) with drop-oldest overflow.
//! * [`trace`] — sampled spans ([`Tracer`]/[`SpanGuard`]) collected into
//!   a bounded lock-free buffer and exported as Chrome trace-event JSON
//!   (Perfetto-loadable); near-zero cost and provably allocation-free on
//!   the cache read path when sampling is off.
//! * `timeseries` — fixed-size sliding windows over counters/gauges
//!   ([`SlidingWindow`]), ζ burn-rate accounting ([`SloWindow`]), a
//!   windowed revocation-storm detector with trigger-latency latching
//!   ([`StormDetector`]), strictly-monotone decay curves
//!   ([`DecaySeries`]), and SLO breach-interval tracking
//!   ([`BreachTracker`]).
//! * [`export`] — Prometheus text exposition and a single-document JSON
//!   snapshot, plus a small JSON validator for smoke tests.
//!
//! [`Obs`] bundles a registry and a journal behind one `Arc`-able handle;
//! every instrumented layer takes an `Option<&Obs>` (or stores an
//! `Option<Arc<Obs>>`) so the un-instrumented path stays zero-cost.
//!
//! # Determinism
//!
//! Instrumentation must never perturb simulation results, and snapshots
//! from deterministic replays must compare byte-for-byte. Two rules make
//! that hold:
//!
//! 1. Event timestamps come from the recording layer's **logical clock**
//!    (substrate slot/step time, `Clock::now()`), never the wall clock.
//! 2. Recording only *reads* simulation state; nothing downstream
//!    branches on a metric value.

mod journal;
mod registry;

pub mod export;
pub mod http;
mod timeseries;
pub mod trace;

pub use http::AdminServer;
pub(crate) use journal::DEFAULT_JOURNAL_CAPACITY;
pub use journal::{EventKind, Journal};
pub(crate) use registry::Registry;
pub use registry::{Counter, Gauge, Histogram, Metric};
pub use timeseries::{BreachTracker, DecaySeries, SlidingWindow, SloWindow, StormDetector};
pub use trace::{SpanGuard, TraceConfig, TraceContext, Tracer, DEFAULT_TRACE_CAPACITY};

/// The bundle an instrumented layer holds: one registry + one journal.
pub struct Obs {
    registry: Registry,
    journal: Journal,
    /// Pre-registered `journal_dropped_total`: events evicted from the
    /// bounded journal to make room (a saturated journal is otherwise
    /// indistinguishable from a quiet one on the scrape path).
    journal_dropped: Counter,
}

impl Default for Obs {
    fn default() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Obs {
    /// Creates an empty bundle with the default journal capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bundle whose journal retains at most `capacity` events.
    pub(crate) fn with_journal_capacity(capacity: usize) -> Self {
        let registry = Registry::new();
        let journal_dropped = registry.counter("journal_dropped_total");
        Self {
            registry,
            journal: Journal::with_capacity(capacity),
            journal_dropped,
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// Appends `kind` to the journal at logical time `t`, bumping
    /// `journal_dropped_total` when the bounded journal had to evict.
    pub fn event(&self, t: u64, kind: EventKind) {
        if self.journal.record(t, kind) {
            self.journal_dropped.inc();
        }
    }

    /// The journal as NDJSON, one event object per line (the `/journal`
    /// scrape route's body).
    pub(crate) fn journal_ndjson(&self) -> String {
        export::journal_ndjson(&self.journal)
    }

    /// Prometheus text exposition of every registered series.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(&self.registry)
    }

    /// One JSON document with all series, events, and the drop count.
    pub fn json_snapshot(&self) -> String {
        export::json_snapshot(&self.registry, &self.journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_roundtrip() {
        let obs = Obs::new();
        obs.counter("x").add(2);
        obs.gauge("y").set(1.5);
        obs.histogram("z").record(10.0);
        obs.event(
            5,
            EventKind::NodeLaunched {
                label: "t2.medium".into(),
                count: 1,
            },
        );
        let json = obs.json_snapshot();
        export::validate_json(&json).unwrap();
        assert!(json.contains("\"x\":2"));
        assert!(json.contains("\"node_launched\""));
        let text = obs.prometheus_text();
        assert!(text.contains("x 2"));
        assert!(text.contains("y 1.5"));
    }

    #[test]
    fn journal_capacity_is_configurable() {
        let obs = Obs::with_journal_capacity(2);
        for t in 0..4 {
            obs.event(
                t,
                EventKind::NodeDeallocated {
                    label: "m4.large".into(),
                    count: 1,
                },
            );
        }
        assert_eq!(obs.journal().len(), 2);
        assert_eq!(obs.journal().dropped(), 2);
    }

    #[test]
    fn journal_drops_surface_as_a_counter() {
        let obs = Obs::with_journal_capacity(2);
        // Pre-registered: visible (as 0) before any drop happens.
        assert!(obs.prometheus_text().contains("journal_dropped_total 0"));
        for t in 0..5 {
            obs.event(
                t,
                EventKind::NodeDeallocated {
                    label: "m4.large".into(),
                    count: 1,
                },
            );
        }
        assert_eq!(obs.counter("journal_dropped_total").get(), 3);
        assert!(obs.prometheus_text().contains("journal_dropped_total 3"));
        assert!(obs.json_snapshot().contains("\"journal_dropped_total\":3"));
    }

    #[test]
    fn journal_ndjson_is_line_per_event() {
        let obs = Obs::new();
        obs.event(
            1,
            EventKind::NodeLaunched {
                label: "m4.large".into(),
                count: 2,
            },
        );
        obs.event(
            2,
            EventKind::BucketThrottled {
                bucket: "net".into(),
                demand: 3.5,
                achieved: 1.0,
            },
        );
        let body = obs.journal_ndjson();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            export::validate_json(line).unwrap_or_else(|at| panic!("bad line at {at}: {line}"));
        }
        assert!(lines[0].contains("\"kind\":\"node_launched\""));
        assert!(lines[1].contains("\"kind\":\"bucket_throttled\""));
    }
}
