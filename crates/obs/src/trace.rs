//! Low-overhead sampled span tracing with a Chrome trace-event exporter.
//!
//! A [`Tracer`] collects **spans** — named, categorized time intervals —
//! from every instrumented layer into one bounded lock-free buffer, and
//! renders them as Chrome trace-event JSON (the `[{"ph":"X",...}]` array
//! format) loadable in `chrome://tracing` or Perfetto.
//!
//! Design constraints, in priority order:
//!
//! * **Near-zero cost when disabled.** [`Tracer::span`] on a tracer whose
//!   sampling is off is one relaxed atomic load and returns an inert
//!   guard; no allocation, no branch on the hot path beyond the flag
//!   check. The cache read path keeps its zero-allocation guarantee with
//!   tracing compiled in (see `tests/zero_alloc.rs` in `spotcache-cache`).
//! * **Lock-free recording.** The buffer is a fixed array of slots; a
//!   writer reserves an index with one `fetch_add` and owns that slot
//!   outright, publishing it with a per-slot ready flag. When the buffer
//!   is full, new spans are counted as dropped rather than blocking.
//! * **No allocation per span.** Span names and categories are
//!   `&'static str`; timestamps are `f64` microseconds. A [`SpanRecord`]
//!   is `Copy`.
//! * **Sampling is per-tree.** The 1-in-N decision is taken at the root
//!   span of each thread's span stack; child spans follow their root's
//!   decision, so a sampled request is traced whole or not at all.
//!
//! # Clocks
//!
//! Wall-time layers (the cache data plane) open RAII spans with
//! [`Tracer::span`]: `ts`/`dur` are microseconds since the tracer was
//! created, measured with a monotonic clock. Logical-time layers (the
//! control loop, the recovery simulation) record **complete** spans with
//! [`Tracer::record_at`], supplying their own logical timestamp — so a
//! deterministic replay produces a deterministic trace. The two kinds
//! coexist in one buffer; exports label each span's category so mixed
//! timelines stay interpretable.
//!
//! # Cross-process stitching
//!
//! Every recorded span carries a **trace id** (the request tree it
//! belongs to), its own **span id**, and its **parent span id**. A
//! [`TraceContext`] is the compact, wire-safe triple `(trace_id,
//! parent_span, sampled)`; [`TraceContext::encode`] renders it as a
//! fixed-width ASCII token that rides on protocol frames (the cache
//! tier's `trace <token>` command, replication batch headers), and
//! [`set_thread_context`] installs a decoded token as the current
//! thread's ambient context so every span the thread opens joins the
//! remote caller's trace. Components identify themselves with a
//! **logical process id** ([`set_thread_pid`]) plus
//! [`Tracer::register_process`] metadata, so one drill spanning router,
//! server, replicator, and backup renders as a single stitched timeline
//! with named process lanes.

use std::cell::Cell;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// Default span-buffer capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The compact cross-process trace context: which trace a remote span
/// tree belongs to, which span is its parent, and whether the tree was
/// sampled at the origin (the receiver honors the origin's decision
/// instead of rolling its own 1-in-N).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace (request tree) identity, shared by every process.
    pub trace_id: u64,
    /// The span on the sending side that enclosed the handoff.
    pub parent_span: u64,
    /// The origin's sampling decision (forced on the receiver).
    pub sampled: bool,
}

/// Encoded length of a [`TraceContext`] token
/// (`<16 hex>-<16 hex>-<0|1>`).
pub(crate) const TRACE_CONTEXT_LEN: usize = 35;

impl TraceContext {
    /// Renders the context as its fixed-width wire token:
    /// `tttttttttttttttt-pppppppppppppppp-s` (hex trace id, hex parent
    /// span id, `1`/`0` sampled flag; `TRACE_CONTEXT_LEN` bytes).
    pub fn encode(&self) -> String {
        format!(
            "{:016x}-{:016x}-{}",
            self.trace_id,
            self.parent_span,
            u8::from(self.sampled)
        )
    }

    /// Parses a wire token produced by [`encode`](Self::encode). Returns
    /// `None` on any length or syntax mismatch — propagation is
    /// best-effort, a corrupt token never fails the carrying request.
    pub fn decode(token: &[u8]) -> Option<Self> {
        if token.len() != TRACE_CONTEXT_LEN || token[16] != b'-' || token[33] != b'-' {
            return None;
        }
        let hex = |b: &[u8]| -> Option<u64> {
            let s = std::str::from_utf8(b).ok()?;
            u64::from_str_radix(s, 16).ok()
        };
        let sampled = match token[34] {
            b'0' => false,
            b'1' => true,
            _ => return None,
        };
        Some(Self {
            trace_id: hex(&token[..16])?,
            parent_span: hex(&token[17..33])?,
            sampled,
        })
    }
}

/// One completed span. `Copy` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Category (the instrumented layer, e.g. `"protocol"`, `"server"`,
    /// `"control"`, `"recovery"`).
    pub cat: &'static str,
    /// Span name (e.g. `"parse"`, `"replan"`).
    pub name: &'static str,
    /// Start timestamp, microseconds (tracer-relative wall time for RAII
    /// spans; caller-supplied logical time for [`Tracer::record_at`]).
    pub ts_us: f64,
    /// Duration, microseconds.
    pub(crate) dur_us: f64,
    /// Track id: small per-thread integer for RAII spans, caller-chosen
    /// for logical spans.
    pub(crate) tid: u32,
    /// Nesting depth within its thread's span stack (0 = root).
    pub(crate) depth: u32,
    /// The trace (request tree) this span belongs to; shared across
    /// processes when a [`TraceContext`] was propagated.
    pub trace_id: u64,
    /// This span's unique id within its tracer.
    pub span_id: u64,
    /// The enclosing span's id (0 = no parent).
    pub parent_id: u64,
    /// Logical process id (the component lane: router, server,
    /// replicator, backup…), from [`set_thread_pid`].
    pub pid: u32,
}

/// Tuning for a [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Maximum retained spans; further spans are counted as dropped.
    pub capacity: usize,
    /// Sample 1 in `sample_every` span trees; `0` disables tracing
    /// entirely and `1` traces everything.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            capacity: DEFAULT_TRACE_CAPACITY,
            sample_every: 1,
        }
    }
}

/// A buffer slot: an index reserved via `fetch_add` is owned exclusively
/// by the reserving thread, which writes the record then publishes it by
/// storing `ready = true` with release ordering.
struct Slot {
    ready: AtomicBool,
    record: UnsafeCell<MaybeUninit<SpanRecord>>,
}

// SAFETY: a slot's `record` is written only by the single thread that
// reserved its index (unique `fetch_add` ticket) and read only after
// `ready` is observed `true` with acquire ordering, which happens-after
// the release store that published the write. Tickets stay unique across
// a [`Tracer::reset`]: it reopens the cursor only once every writer that
// reserved a slot before it has published (`Tracer::writers`), and it
// never runs while a reader walks the slots (`Tracer::readers`).
unsafe impl Sync for Slot {}

thread_local! {
    /// Depth of the current thread's span stack (RAII spans only).
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Whether the current span tree was sampled (valid when depth > 0).
    static TREE_SAMPLED: Cell<bool> = const { Cell::new(false) };
    /// Small per-thread track id, assigned on first use.
    static TRACK_ID: Cell<u32> = const { Cell::new(u32::MAX) };
    /// The current thread's ambient cross-process context, if any.
    static CURRENT_CTX: Cell<Option<TraceContext>> = const { Cell::new(None) };
    /// The current thread's logical process id (component lane).
    static LOGICAL_PID: Cell<u32> = const { Cell::new(0) };
    /// Trace id of the current (sampled) span tree.
    static TREE_TRACE_ID: Cell<u64> = const { Cell::new(0) };
    /// Span id of the innermost open sampled span (0 = none).
    static CUR_PARENT: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TRACK_ID: AtomicU64 = AtomicU64::new(1);

fn track_id() -> u32 {
    TRACK_ID.with(|t| {
        let cur = t.get();
        if cur != u32::MAX {
            return cur;
        }
        let id = NEXT_TRACK_ID.fetch_add(1, Ordering::Relaxed) as u32;
        t.set(id);
        id
    })
}

/// Installs (or clears, with `None`) the calling thread's ambient
/// [`TraceContext`]. While set, every span tree the thread opens joins
/// the context's trace (its sampling decision replaces the tracer's
/// 1-in-N roll, and root spans parent onto `ctx.parent_span`).
pub fn set_thread_context(ctx: Option<TraceContext>) {
    CURRENT_CTX.with(|c| c.set(ctx));
}

/// The calling thread's ambient [`TraceContext`], if any. Spawning code
/// captures this before `thread::spawn` and re-installs it inside the
/// child so context flows across thread boundaries.
pub fn thread_context() -> Option<TraceContext> {
    CURRENT_CTX.with(Cell::get)
}

/// Sets the calling thread's logical process id — the component lane
/// (router, server, replicator…) its spans render under. Threads default
/// to pid 0; spawners capture [`thread_pid`] and re-install it in
/// children, so a whole component's thread pool shares one lane.
pub fn set_thread_pid(pid: u32) {
    LOGICAL_PID.with(|p| p.set(pid));
}

/// The calling thread's logical process id (0 until set).
pub fn thread_pid() -> u32 {
    LOGICAL_PID.with(Cell::get)
}

/// The span collector.
pub struct Tracer {
    slots: Box<[Slot]>,
    cursor: AtomicUsize,
    /// Writers between reserving a ticket and publishing its slot; a
    /// reset waits for this to drain before it reopens the cursor.
    writers: AtomicUsize,
    /// Held by [`spans`](Self::spans) and [`reset`](Self::reset), so a
    /// reset never clears slots a reader is copying. Recording never
    /// takes it.
    readers: Mutex<()>,
    dropped: AtomicU64,
    /// `sample_every == 0` ⇒ disabled; cached as a bool for the hot path.
    enabled: bool,
    sample_every: u64,
    sample_counter: AtomicU64,
    /// Allocator for span ids (and trace ids: a fresh root's trace id is
    /// its own span id). Starts at 1 so 0 means "none".
    next_id: AtomicU64,
    origin: Instant,
    /// Logical pid → process name, for Chrome `"ph":"M"` metadata.
    processes: Mutex<BTreeMap<u32, String>>,
    /// Track id → (logical pid, thread name) metadata.
    threads: Mutex<BTreeMap<u32, (u32, String)>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.slots.len())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .field("sample_every", &self.sample_every)
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer with the given buffer capacity and sampling rate.
    pub fn new(cfg: TraceConfig) -> Arc<Self> {
        let capacity = cfg.capacity.max(1);
        Arc::new(Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    ready: AtomicBool::new(false),
                    record: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            cursor: AtomicUsize::new(0),
            writers: AtomicUsize::new(0),
            readers: Mutex::new(()),
            dropped: AtomicU64::new(0),
            enabled: cfg.sample_every > 0,
            sample_every: cfg.sample_every.max(1),
            sample_counter: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
            processes: Mutex::new(BTreeMap::new()),
            threads: Mutex::new(BTreeMap::new()),
        })
    }

    /// A tracer that records every span (sampling 1-in-1).
    pub fn all(capacity: usize) -> Arc<Self> {
        Self::new(TraceConfig {
            capacity,
            sample_every: 1,
        })
    }

    /// A compiled-in but switched-off tracer: every [`span`](Self::span)
    /// call is one atomic load and an inert guard.
    pub fn disabled() -> Arc<Self> {
        Self::new(TraceConfig {
            capacity: 1,
            sample_every: 0,
        })
    }

    /// Whether any recording can happen.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Names a logical process lane for the Chrome export
    /// (`"ph":"M"` `process_name` metadata). Pair with
    /// [`set_thread_pid`] on the component's threads.
    pub fn register_process(&self, pid: u32, name: &str) {
        self.processes.lock().insert(pid, name.to_string());
    }

    /// Names the calling thread's track in the Chrome export and returns
    /// its track id. The thread's current logical pid is captured, so
    /// call it after [`set_thread_pid`].
    pub fn register_current_thread(&self, name: &str) -> u32 {
        let tid = track_id();
        self.threads
            .lock()
            .insert(tid, (thread_pid(), name.to_string()));
        tid
    }

    /// Opens a wall-clock RAII span. The returned guard records the span
    /// when dropped. Sampling is decided at the root of each thread's
    /// span stack; nested calls inherit the decision (an ambient
    /// [`TraceContext`] overrides it with the origin's decision).
    #[inline]
    pub fn span<'a>(&'a self, cat: &'static str, name: &'static str) -> SpanGuard<'a> {
        if !self.is_enabled() {
            return SpanGuard { active: None };
        }
        self.span_slow(cat, name)
    }

    #[inline(never)]
    fn span_slow<'a>(&'a self, cat: &'static str, name: &'static str) -> SpanGuard<'a> {
        let depth = SPAN_DEPTH.with(Cell::get);
        let ctx = CURRENT_CTX.with(Cell::get);
        let sampled = if depth == 0 {
            let s = match ctx {
                // A propagated context carries the origin's decision.
                Some(c) => c.sampled,
                None => {
                    let n = self.sample_counter.fetch_add(1, Ordering::Relaxed);
                    n.is_multiple_of(self.sample_every)
                }
            };
            TREE_SAMPLED.with(|t| t.set(s));
            s
        } else {
            TREE_SAMPLED.with(Cell::get)
        };
        // Depth tracks even unsampled frames so a child opened under an
        // unsampled root still inherits "unsampled" rather than making a
        // fresh root decision.
        SPAN_DEPTH.with(|d| d.set(depth + 1));
        if !sampled {
            return SpanGuard {
                active: Some(ActiveSpan {
                    tracer: self,
                    cat,
                    name,
                    depth,
                    start: None,
                    trace_id: 0,
                    span_id: 0,
                    parent_id: 0,
                }),
            };
        }
        let span_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (trace_id, parent_id) = if depth == 0 {
            // Root: join the ambient context's trace, or start a fresh
            // one identified by this root's own span id.
            let (t, p) = match ctx {
                Some(c) => (c.trace_id, c.parent_span),
                None => (span_id, 0),
            };
            TREE_TRACE_ID.with(|id| id.set(t));
            (t, p)
        } else {
            (TREE_TRACE_ID.with(Cell::get), CUR_PARENT.with(Cell::get))
        };
        let prev_parent = CUR_PARENT.with(|p| p.replace(span_id));
        SpanGuard {
            active: Some(ActiveSpan {
                tracer: self,
                cat,
                name,
                depth,
                start: Some((Instant::now(), prev_parent)),
                trace_id,
                span_id,
                parent_id,
            }),
        }
    }

    /// Records a complete span with a caller-supplied (logical) timestamp
    /// and duration, both in microseconds. Bypasses sampling — logical
    /// layers emit few, coarse spans and want them all. The span joins
    /// the thread's ambient [`TraceContext`] trace when one is set.
    pub fn record_at(&self, cat: &'static str, name: &'static str, ts_us: f64, dur_us: f64) {
        if !self.is_enabled() {
            return;
        }
        let span_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (trace_id, parent_id) = match CURRENT_CTX.with(Cell::get) {
            Some(c) => (c.trace_id, c.parent_span),
            None => (span_id, 0),
        };
        self.push(SpanRecord {
            cat,
            name,
            ts_us,
            dur_us,
            tid: 0,
            depth: 0,
            trace_id,
            span_id,
            parent_id,
            pid: thread_pid(),
        });
    }

    /// [`record_at`](Self::record_at) through the sampler: the span is
    /// recorded only when the thread's ambient [`TraceContext`] says
    /// sampled, or (with no context) when the organic 1-in-N sampler
    /// picks it. High-frequency logical layers — reactor ticks,
    /// per-batch stage attribution — use this so a long run cannot
    /// flood the fill-once buffer that [`record_at`](Self::record_at)'s
    /// always-on markers share. With `sample_every == 1` the two
    /// methods behave identically.
    pub fn record_at_sampled(
        &self,
        cat: &'static str,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let sampled = match CURRENT_CTX.with(Cell::get) {
            Some(c) => c.sampled,
            None => {
                let n = self.sample_counter.fetch_add(1, Ordering::Relaxed);
                n.is_multiple_of(self.sample_every)
            }
        };
        if sampled {
            self.record_at(cat, name, ts_us, dur_us);
        }
    }

    fn push(&self, record: SpanRecord) {
        // Announce the write before taking a ticket (both `SeqCst`): a
        // reset that parks the cursor and then sees no writer knows that
        // every ticket taken before the park has been published.
        self.writers.fetch_add(1, Ordering::SeqCst);
        let idx = self.cursor.fetch_add(1, Ordering::SeqCst);
        if idx < self.slots.len() {
            let slot = &self.slots[idx];
            // SAFETY: `idx` was reserved exclusively by this thread's
            // `fetch_add`; nothing reads the cell until `ready` is true.
            unsafe { (*slot.record.get()).write(record) };
            slot.ready.store(true, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.writers.fetch_sub(1, Ordering::Release);
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Microseconds since this tracer was created (the RAII spans' time
    /// base), for callers that want to place logical spans alongside.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Snapshot of every published span, in reservation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let _readers = self.readers.lock();
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for slot in self.slots.iter().take(n) {
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: `ready == true` (acquire) happens-after the
                // publishing release store, and slots are never rewritten.
                out.push(unsafe { (*slot.record.get()).assume_init() });
            }
        }
        out
    }

    /// Resets the buffer to empty: retained spans and the dropped count
    /// are discarded; process/thread metadata is kept. Intended for the
    /// scrape endpoint's drain — spans recorded while it runs are
    /// dropped, not torn; quiesce writers for exact drains. It waits for
    /// readers and for writers that already hold a slot, never the other
    /// way round: recording stays lock-free.
    pub(crate) fn reset(&self) {
        let _readers = self.readers.lock();
        // Park the cursor at capacity so new writers drop cleanly, then
        // wait out the writers still filling a slot reserved before the
        // park: only then may a slot be handed out again.
        self.cursor.store(self.slots.len(), Ordering::SeqCst);
        while self.writers.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        for slot in self.slots.iter() {
            slot.ready.store(false, Ordering::Release);
        }
        self.dropped.store(0, Ordering::Relaxed);
        self.cursor.store(0, Ordering::SeqCst);
    }

    /// [`chrome_trace_json`](Self::chrome_trace_json), then
    /// [`reset`](Self::reset) — the `/trace` scrape endpoint's
    /// read-and-drain step.
    pub(crate) fn drain_chrome_trace_json(&self) -> String {
        let out = self.chrome_trace_json();
        self.reset();
        out
    }

    /// Renders every span as a Chrome trace-event JSON array: complete
    /// (`"ph":"X"`) events carrying `trace`/`span`/`parent` ids in
    /// `args`, preceded by `"ph":"M"` `process_name` / `thread_name`
    /// metadata for every registered process and thread — loadable in
    /// `chrome://tracing` or Perfetto. Output always passes
    /// [`crate::export::validate_json`].
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 140 + 2);
        out.push('[');
        let mut first = true;
        for (pid, name) in self.processes.lock().iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\
                 \"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                crate::export::json_escape(name),
            );
        }
        for (tid, (pid, name)) in self.threads.lock().iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\
                 \"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                pid,
                tid,
                crate::export::json_escape(name),
            );
        }
        for s in spans.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"depth\":{},\"trace\":\"{:016x}\",\
                 \"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}}}",
                s.name,
                s.cat,
                finite(s.ts_us),
                finite(s.dur_us),
                s.pid,
                s.tid,
                s.depth,
                s.trace_id,
                s.span_id,
                s.parent_id,
            );
        }
        out.push(']');
        out
    }

    /// Distinct categories present in the buffer, sorted (the layer
    /// coverage check used by CI and the trace smoke tests).
    pub fn categories(&self) -> Vec<&'static str> {
        let mut cats: Vec<&'static str> = self.spans().iter().map(|s| s.cat).collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    }
}

/// Non-finite microsecond values would corrupt the JSON; clamp to 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

struct ActiveSpan<'a> {
    tracer: &'a Tracer,
    cat: &'static str,
    name: &'static str,
    depth: u32,
    /// `None` for an unsampled frame (depth bookkeeping only); for a
    /// sampled frame, the start instant plus the parent-span id to
    /// restore on drop.
    start: Option<(Instant, u64)>,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
}

/// RAII guard: records its span (if sampled) when dropped.
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl SpanGuard<'_> {
    /// A [`TraceContext`] for handing off to another process/thread with
    /// this span as the parent, or `None` when the span is unsampled or
    /// the tracer disabled (propagate nothing: the receiver then rolls
    /// its own sampling).
    pub fn context(&self) -> Option<TraceContext> {
        let a = self.active.as_ref()?;
        a.start?;
        Some(TraceContext {
            trace_id: a.trace_id,
            parent_span: a.span_id,
            sampled: true,
        })
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let Some((start, prev_parent)) = a.start else {
            return;
        };
        CUR_PARENT.with(|p| p.set(prev_parent));
        let end = a.tracer.origin.elapsed().as_secs_f64() * 1e6;
        let dur = start.elapsed().as_secs_f64() * 1e6;
        a.tracer.push(SpanRecord {
            cat: a.cat,
            name: a.name,
            ts_us: end - dur,
            dur_us: dur,
            tid: track_id(),
            depth: a.depth,
            trace_id: a.trace_id,
            span_id: a.span_id,
            parent_id: a.parent_id,
            pid: thread_pid(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::validate_json;

    #[test]
    fn spans_nest_and_export_valid_chrome_json() {
        let t = Tracer::all(128);
        {
            let _root = t.span("proto", "serve");
            {
                let _child = t.span("proto", "parse");
            }
            let _child2 = t.span("proto", "store");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        // Children drop before the root: parse, store, serve.
        assert_eq!(spans[0].name, "parse");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[2].name, "serve");
        assert_eq!(spans[2].depth, 0);
        let json = t.chrome_trace_json();
        validate_json(&json).unwrap_or_else(|at| panic!("invalid trace JSON at {at}: {json}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"serve\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _s = t.span("proto", "serve");
            let _c = t.span("proto", "parse");
        }
        t.record_at("control", "replan", 0.0, 10.0);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.chrome_trace_json(), "[]");
    }

    #[test]
    fn sampling_decision_is_per_tree() {
        let t = Tracer::new(TraceConfig {
            capacity: 1024,
            sample_every: 2,
        });
        for _ in 0..10 {
            let _root = t.span("proto", "serve");
            let _child = t.span("proto", "parse");
        }
        // 1-in-2 trees sampled, 2 spans per sampled tree.
        assert_eq!(t.len(), 10);
        let spans = t.spans();
        // Every sampled tree is whole: equal numbers of roots and children.
        let roots = spans.iter().filter(|s| s.depth == 0).count();
        let children = spans.iter().filter(|s| s.depth == 1).count();
        assert_eq!(roots, 5);
        assert_eq!(children, 5);
    }

    #[test]
    fn buffer_bounds_and_drop_count() {
        let t = Tracer::all(4);
        for _ in 0..10 {
            let _s = t.span("x", "y");
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        validate_json(&t.chrome_trace_json()).unwrap();
    }

    #[test]
    fn logical_spans_keep_caller_timestamps() {
        let t = Tracer::all(16);
        t.record_at("control", "replan", 3_600e6, 250.0);
        t.record_at("recovery", "warmup_pump", 30e6, 1e6);
        let spans = t.spans();
        assert_eq!(spans[0].ts_us, 3_600e6);
        assert_eq!(spans[0].dur_us, 250.0);
        assert_eq!(t.categories(), vec!["control", "recovery"]);
        validate_json(&t.chrome_trace_json()).unwrap();
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let t = Tracer::all(4096);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let _s = t.span("mt", "op");
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.len(), 2000);
        assert_eq!(t.dropped(), 0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2000);
        // Four distinct worker tracks.
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn context_roundtrips_and_rejects_garbage() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_0bad_cafe,
            parent_span: 42,
            sampled: true,
        };
        let tok = ctx.encode();
        assert_eq!(tok.len(), TRACE_CONTEXT_LEN);
        assert_eq!(TraceContext::decode(tok.as_bytes()), Some(ctx));
        let off = TraceContext {
            trace_id: 1,
            parent_span: 0,
            sampled: false,
        };
        assert_eq!(TraceContext::decode(off.encode().as_bytes()), Some(off));
        for bad in [
            &b""[..],
            b"not-a-context",
            b"0000000000000000-0000000000000000-2",
            b"000000000000000g-0000000000000000-1",
            b"0000000000000000_0000000000000000-1",
        ] {
            assert_eq!(TraceContext::decode(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn spans_carry_trace_identity_and_parentage() {
        let t = Tracer::all(64);
        {
            let root = t.span("a", "root");
            let root_ctx = root.context().expect("sampled root has a context");
            {
                let _child = t.span("a", "child");
            }
            assert!(root_ctx.sampled);
        }
        let spans = t.spans();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.trace_id, root.span_id, "fresh root starts its trace");
        assert_eq!(root.parent_id, 0);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
        // Export carries the ids in args.
        let json = t.chrome_trace_json();
        assert!(json.contains(&format!("\"trace\":\"{:016x}\"", root.trace_id)));
        validate_json(&json).unwrap();
    }

    #[test]
    fn ambient_context_stitches_and_forces_sampling() {
        // sample_every=1000: without a context nothing after the first
        // tree would be sampled; the ambient context forces it.
        let t = Tracer::new(TraceConfig {
            capacity: 64,
            sample_every: 1000,
        });
        {
            let _burn = t.span("a", "burn"); // consumes the 1st free sample
        }
        {
            let _off = t.span("a", "unsampled");
        }
        set_thread_context(Some(TraceContext {
            trace_id: 0xabc,
            parent_span: 7,
            sampled: true,
        }));
        set_thread_pid(3);
        {
            let _remote = t.span("a", "remote_root");
        }
        t.record_at("a", "remote_logical", 1.0, 2.0);
        set_thread_context(None);
        set_thread_pid(0);
        let spans = t.spans();
        assert_eq!(spans.len(), 3, "{spans:?}");
        let remote = spans.iter().find(|s| s.name == "remote_root").unwrap();
        assert_eq!(remote.trace_id, 0xabc);
        assert_eq!(remote.parent_id, 7);
        assert_eq!(remote.pid, 3);
        let logical = spans.iter().find(|s| s.name == "remote_logical").unwrap();
        assert_eq!(logical.trace_id, 0xabc);
        assert_eq!(logical.pid, 3);
    }

    #[test]
    fn sampled_false_context_suppresses_recording() {
        let t = Tracer::all(16);
        set_thread_context(Some(TraceContext {
            trace_id: 9,
            parent_span: 0,
            sampled: false,
        }));
        {
            let root = t.span("a", "suppressed");
            assert!(
                root.context().is_none(),
                "unsampled spans propagate nothing"
            );
        }
        set_thread_context(None);
        assert!(t.is_empty());
    }

    #[test]
    fn process_and_thread_metadata_export() {
        let t = Tracer::all(16);
        t.register_process(1, "server-primary");
        t.register_process(2, "repl\"icator"); // name needing escaping
        set_thread_pid(1);
        let tid = t.register_current_thread("worker-0");
        {
            let _s = t.span("server", "accept");
        }
        set_thread_pid(0);
        let json = t.chrome_trace_json();
        validate_json(&json).unwrap_or_else(|at| panic!("invalid at {at}: {json}"));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"server-primary\""));
        assert!(json.contains("repl\\\"icator"));
        assert!(json.contains(&format!(
            "{{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},"
        )));
        // The span itself renders under pid 1.
        assert!(json.contains("\"ph\":\"X\",") && json.contains("\"pid\":1,"));
    }

    #[test]
    fn reset_drains_the_buffer() {
        let t = Tracer::all(4);
        for _ in 0..6 {
            let _s = t.span("x", "y");
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        let first = t.drain_chrome_trace_json();
        assert!(first.contains("\"ph\":\"X\""));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        {
            let _s = t.span("x", "z");
        }
        assert_eq!(t.len(), 1);
        assert!(t.chrome_trace_json().contains("\"name\":\"z\""));
    }

    #[test]
    fn drains_racing_writers_never_tear_a_span() {
        // A small buffer fills within a drain, so every drain reopens the
        // cursor under writers that hold tickets from before it. Names of
        // different lengths make a torn record show as a foreign name.
        const NAMES: [&str; 4] = ["a", "bb", "ccc", "dddd"];
        let t = Tracer::all(64);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for name in NAMES {
                let (t, stop) = (&t, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        {
                            let _root = t.span("stress", name);
                            let _child = t.span("stress", name);
                        }
                        t.record_at("stress", name, t.now_us(), 1.0);
                    }
                });
            }
            // Stops the writers however the drains end, so a failed
            // assertion fails the test instead of hanging its scope.
            struct Stop<'a>(&'a AtomicBool);
            impl Drop for Stop<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _stop = Stop(&stop);
            let mut drained = 0;
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            for _ in 0..300 {
                // Drain once the writers have put something in.
                while t.is_empty() && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let json = t.drain_chrome_trace_json();
                validate_json(&json).unwrap_or_else(|at| panic!("invalid at {at}: {json}"));
                for event in json.split("{\"name\":\"").skip(1) {
                    let name = &event[..event.find('"').expect("a closed name")];
                    assert!(NAMES.contains(&name), "span named {name:?}");
                    drained += 1;
                }
            }
            assert!(drained > 0, "no drain saw a span");
        });
    }
}
