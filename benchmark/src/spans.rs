//! The harness's own spans: one record per call the harness makes into a
//! layer, kept in memory and written out when the run ends. Nothing
//! outside `benchmark/` records these; the program under test is called
//! exactly as any client would call it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One span: a named interval with the span that caused it and the batch
/// (request group) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `protocol.serve_into`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the parent span, `u32::MAX` for a root.
    pub parent: u32,
    /// Identifier shared by the spans of one batch.
    pub batch: u32,
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// Most spans written to a span file; the totals are computed over all
/// spans recorded, and the file says when it was cut.
pub const FILE_SPAN_CAP: usize = 60_000;

/// In-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds on the recorder's clock.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its index; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, batch: u32) -> u32 {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            batch,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `idx` now.
    pub fn end(&mut self, idx: u32) {
        let t = self.now();
        self.spans[idx as usize].end_ns = t;
    }

    /// Records a span around `f`.
    pub fn around<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(name, parent, batch);
        let out = f();
        self.end(idx);
        out
    }

    /// Adds a span with explicit times (for intervals observed after the
    /// fact, such as a network round trip).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Per span name: `(count, total ns, self ns)`, where a span's self
    /// time is its duration minus the part its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &self.spans[s.parent as usize];
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                child_ns[s.parent as usize] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*kids);
        }
        out
    }

    /// The span file: the per-name totals over every span, and the first
    /// [`FILE_SPAN_CAP`] spans themselves.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let totals = self.totals();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .take(FILE_SPAN_CAP)
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Int(i as i64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        if s.parent == ROOT {
                            Json::Null
                        } else {
                            Json::Int(i64::from(s.parent))
                        },
                    ),
                    ("batch", Json::Int(i64::from(s.batch))),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed as i64)),
            ("spans_recorded", Json::Int(self.spans.len() as i64)),
            ("spans_written", Json::Int(spans.len() as i64)),
            (
                "totals",
                Json::Obj(
                    totals
                        .iter()
                        .map(|(name, t)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("count", Json::Int(t.count as i64)),
                                    ("total_ns", Json::Int(t.total_ns as i64)),
                                    ("self_ns", Json::Int(t.self_ns as i64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Aggregate of the spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus what direct children cover.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        let root = r.push(Span {
            name: "batch",
            start_ns: 0,
            end_ns: 100,
            parent: ROOT,
            batch: 7,
        });
        r.push(Span {
            name: "protocol.serve_into",
            start_ns: 10,
            end_ns: 60,
            parent: root,
            batch: 7,
        });
        let store = r.push(Span {
            name: "store.get_many_into",
            start_ns: 60,
            end_ns: 90,
            parent: root,
            batch: 7,
        });
        // A grandchild does not count against the root twice.
        r.push(Span {
            name: "store.lock",
            start_ns: 65,
            end_ns: 70,
            parent: store,
            batch: 7,
        });
        let t = r.totals();
        assert_eq!(
            t["batch"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(t["store.get_many_into"].self_ns, 25);
        assert_eq!(t["protocol.serve_into"].self_ns, 50);
        assert_eq!(t["store.lock"].total_ns, 5);
    }

    #[test]
    fn around_nests_by_explicit_parent() {
        let mut r = Recorder::new();
        let root = r.begin("batch", ROOT, 1);
        let v = r.around("store.set_at", root, 1, || 41 + 1);
        r.end(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans.len(), 2);
        let json = r.to_json("w", 1).render();
        assert!(json.contains("\"name\":\"store.set_at\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"spans_recorded\":2"));
    }
}
