//! Live hot-key replication: source → passive backup over the wire.
//!
//! The paper's robustness story (§3.3) keeps a cheap burstable *backup*
//! holding every hot item that lives on revocable spot nodes. This module
//! is the streaming leg of the unified recovery layer (the simulated
//! geo-replication baseline lives separately in
//! `spotcache_core::geo_baseline`): a source [`Store`] tails its hot-key
//! mutations through a [`MutationSink`] tap into a bounded
//! [`ReplicationQueue`], and a [`Replicator`] thread ships them to a real
//! backup server as memcached `set`/`delete` commands over TCP.
//!
//! Design points (see DESIGN.md §"Revocation drills" for the derivation):
//!
//! * **Bounded queue, drop-oldest.** Replication must never stall the data
//!   plane. When the backup link is slower than the write rate the queue
//!   drops its *oldest* entries first: a dropped old `set` is repaired by
//!   any newer write of the same key, and the warm-up pump replays the
//!   backup's whole hot set anyway, so old losses only widen the stale
//!   window rather than corrupt it.
//! * **Acked shipping.** Batches are shipped as replying (non-`noreply`)
//!   commands and every response line is validated, so a corrupted or
//!   desynchronized link is *detected* (→ reconnect + retry) instead of
//!   silently diverging. Sets are idempotent, so re-shipping a batch after
//!   a failed ack is safe.
//! * **Retry with exponential backoff, bounded.** A dead link backs off
//!   from [`ReplicationConfig::backoff_base`] to
//!   [`ReplicationConfig::backoff_max`]; after
//!   [`ReplicationConfig::max_batch_retries`] failed attempts the batch is
//!   dropped (counted), keeping memory bounded through long partitions.
//! * **Everything is counted.** Shipped, queue-dropped, batch-dropped,
//!   retries, reconnects and link errors surface as `repl_*` obs series
//!   and as `replication.*` trace spans; faults never panic the source.
//!
//! TTL fidelity: the tap records the *relative* TTL the writer supplied;
//! shipping re-bases it on the backup's clock, so a replicated item can
//! outlive its source copy by the replication delay. The paper's hot items
//! are effectively TTL-less, and the warm-up pump re-derives TTLs from the
//! backup's clock the same way.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use spotcache_obs::{trace, Obs, TraceContext, Tracer};

use crate::protocol::{decode_value, EXPTIME_ABSOLUTE_CUTOFF};
use crate::store::{MutationSink, Store};

/// Tuning knobs for the replication stream.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Mutations shipped per batch (one write + one ack read per batch).
    pub batch_max: usize,
    /// Per-link read/write timeout — a stalled backup trips this rather
    /// than hanging the shipper.
    pub io_timeout: Duration,
    /// First reconnect/retry delay after a link error.
    pub backoff_base: Duration,
    /// Backoff ceiling (doubling stops here).
    pub backoff_max: Duration,
    /// Multiplicative jitter applied to every backoff sleep: each delay is
    /// scaled by a uniform factor in `1 ± backoff_jitter`. Without it a
    /// fleet of replicators revived by the same revocation retries in
    /// lockstep, hammering the backup in synchronized bursts; ±25 % (the
    /// default) is enough to spread them out. `0.0` disables jitter
    /// (deterministic schedules, used by some tests).
    pub backoff_jitter: f64,
    /// Idle poll interval when the queue is empty.
    pub poll_interval: Duration,
    /// Ship attempts per batch before it is dropped (bounds memory and
    /// latency through long partitions; the pump repairs the loss).
    pub max_batch_retries: u32,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            batch_max: 64,
            io_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            backoff_jitter: 0.25,
            poll_interval: Duration::from_millis(1),
            max_batch_retries: 8,
        }
    }
}

/// One tailed store mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// A key was stored. `raw_value` is the raw stored bytes (flag prefix
    /// included when written through the protocol); `ttl` is the relative
    /// TTL the writer supplied.
    Set {
        /// The key.
        key: Bytes,
        /// Raw stored value.
        raw_value: Bytes,
        /// Relative TTL, if any.
        ttl: Option<u64>,
    },
    /// A key was deleted.
    Delete {
        /// The key.
        key: Bytes,
    },
}

impl Mutation {
    /// The mutation's key.
    pub fn key(&self) -> &Bytes {
        match self {
            Mutation::Set { key, .. } | Mutation::Delete { key } => key,
        }
    }

    /// Applies the mutation directly to a store at logical time `now` —
    /// the loopback equivalent of shipping it over the wire. Used by the
    /// replay-convergence tests; the live path always ships TCP.
    pub fn apply(&self, store: &Store, now: u64) {
        match self {
            Mutation::Set {
                key,
                raw_value,
                ttl,
            } => store.set_at(key.clone(), raw_value.clone(), now, *ttl),
            Mutation::Delete { key } => {
                store.delete(key);
            }
        }
    }
}

/// The bounded drop-oldest mutation queue between the tap and the shipper.
///
/// Install it as a store's [`MutationSink`] (via
/// [`Store::set_mutation_sink`]) to tail writes; an optional hot-key
/// prefix restricts replication to the hot tier, matching the paper's
/// "backup holds hot content only".
#[derive(Debug)]
pub struct ReplicationQueue {
    inner: Mutex<VecDeque<Mutation>>,
    capacity: usize,
    hot_prefix: Option<Vec<u8>>,
    enqueued: AtomicU64,
    dropped: AtomicU64,
}

impl ReplicationQueue {
    /// Creates a queue holding at most `capacity` mutations, replicating
    /// only keys starting with `hot_prefix` (`None` = every key).
    pub fn new(capacity: usize, hot_prefix: Option<Vec<u8>>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            hot_prefix,
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    fn admits(&self, key: &[u8]) -> bool {
        match &self.hot_prefix {
            Some(p) => key.starts_with(p),
            None => true,
        }
    }

    /// Enqueues a mutation, dropping the oldest entry when full.
    pub fn push(&self, m: Mutation) {
        let mut q = self.inner.lock();
        if q.len() >= self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(m);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves up to `max` mutations into `out` (appended, FIFO order).
    pub fn drain_into(&self, out: &mut Vec<Mutation>, max: usize) {
        let mut q = self.inner.lock();
        let n = max.min(q.len());
        out.extend(q.drain(..n));
    }

    /// Mutations currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutations accepted since creation (excludes filtered keys).
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Mutations dropped by the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl MutationSink for ReplicationQueue {
    fn on_set(&self, key: &Bytes, raw_value: &Bytes, ttl: Option<u64>) {
        if self.admits(key) {
            self.push(Mutation::Set {
                key: key.clone(),
                raw_value: raw_value.clone(),
                ttl,
            });
        }
    }

    fn on_delete(&self, key: &[u8]) {
        if self.admits(key) {
            self.push(Mutation::Delete {
                key: Bytes::copy_from_slice(key),
            });
        }
    }
}

/// Cumulative link statistics (also exported as `repl_*` obs counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Mutations acked by the backup.
    pub shipped: u64,
    /// Mutations dropped by the queue's drop-oldest policy.
    pub queue_dropped: u64,
    /// Mutations dropped after exhausting batch retries.
    pub batch_dropped: u64,
    /// Failed ship attempts (each is followed by a backoff).
    pub retries: u64,
    /// Successful link (re)connects after the first.
    pub reconnects: u64,
    /// I/O errors and bad acks observed on the link.
    pub link_errors: u64,
}

#[derive(Default)]
struct LinkShared {
    shipped: AtomicU64,
    batch_dropped: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    link_errors: AtomicU64,
}

/// The shipper: drains a [`ReplicationQueue`] to a backup server.
pub struct Replicator {
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<LinkShared>,
    queue: Arc<ReplicationQueue>,
}

/// Serializes a batch as replying memcached commands and the number of
/// response lines expected back.
///
/// When `ctx` is supplied the batch is prefixed with a `trace <token>`
/// line: the receiving server's serve tree joins the shipper's trace,
/// stitching source → backup into one cross-process Chrome trace. The
/// trace line elicits no response, so the expected-ack count is
/// unchanged.
fn serialize_batch(batch: &[Mutation], out: &mut Vec<u8>, ctx: Option<TraceContext>) -> usize {
    out.clear();
    if let Some(ctx) = ctx {
        out.extend_from_slice(b"trace ");
        out.extend_from_slice(ctx.encode().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    for m in batch {
        match m {
            Mutation::Set {
                key,
                raw_value,
                ttl,
            } => {
                // Values written through the protocol carry a 4-byte flag
                // prefix; re-frame them as proper protocol sets. Direct
                // store writes (no prefix) ship with flags 0.
                let (flags, data) = match decode_value(raw_value) {
                    Some((f, d)) => (f, d),
                    None => (0, &raw_value[..]),
                };
                // Clamp so a large relative TTL is not misread as an
                // absolute timestamp by the backup.
                let exptime = ttl.unwrap_or(0).min(EXPTIME_ABSOLUTE_CUTOFF - 1);
                out.extend_from_slice(b"set ");
                out.extend_from_slice(key);
                write!(out, " {flags} {exptime} {}\r\n", data.len())
                    .expect("writing to a Vec cannot fail");
                out.extend_from_slice(data);
                out.extend_from_slice(b"\r\n");
            }
            Mutation::Delete { key } => {
                out.extend_from_slice(b"delete ");
                out.extend_from_slice(key);
                out.extend_from_slice(b"\r\n");
            }
        }
    }
    batch.len()
}

/// Reads `expected` CRLF-terminated ack lines, validating each.
fn read_acks(stream: &mut TcpStream, expected: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    let mut chunk = [0u8; 4096];
    let mut seen = 0usize;
    let mut scanned = 0usize;
    while seen < expected {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "backup closed mid-ack",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let line = &buf[scanned..scanned + pos];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            match line {
                b"STORED" | b"DELETED" | b"NOT_FOUND" => {}
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad ack: {:?}", String::from_utf8_lossy(other)),
                    ));
                }
            }
            scanned += pos + 1;
            seen += 1;
            if seen == expected {
                break;
            }
        }
    }
    Ok(())
}

impl Replicator {
    /// Starts a shipper thread draining `queue` to the backup at `addr`.
    ///
    /// When `obs` is supplied, link activity surfaces as `repl_*` counters
    /// and the `repl_queue_depth` gauge; when `tracer` is supplied, batch
    /// ships, reconnects, and link faults appear as `replication.*` spans.
    pub fn start(
        addr: SocketAddr,
        queue: Arc<ReplicationQueue>,
        cfg: ReplicationConfig,
        obs: Option<Arc<Obs>>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(LinkShared::default());
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            // The shipper inherits the spawner's logical pid and ambient
            // trace context so its spans land on the right process lane
            // and join the caller's trace.
            let spawn_pid = trace::thread_pid();
            let spawn_ctx = trace::thread_context();
            std::thread::Builder::new()
                .name("repl-shipper".into())
                .spawn(move || {
                    trace::set_thread_pid(spawn_pid);
                    trace::set_thread_context(spawn_ctx);
                    if let Some(t) = tracer.as_deref() {
                        t.register_current_thread("repl-shipper");
                    }
                    ship_loop(addr, queue, cfg, obs, tracer, shutdown, shared)
                })
                .expect("spawn replication shipper")
        };
        Self {
            shutdown,
            handle: Some(handle),
            shared,
            queue,
        }
    }

    /// Current link statistics.
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            shipped: self.shared.shipped.load(Ordering::Relaxed),
            queue_dropped: self.queue.dropped(),
            batch_dropped: self.shared.batch_dropped.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
            link_errors: self.shared.link_errors.load(Ordering::Relaxed),
        }
    }

    /// Waits until every accepted mutation is accounted for (shipped or
    /// dropped) or `timeout` elapses; returns whether the stream drained.
    /// Writers should be quiesced first — this is the 2-minute-warning
    /// drain step.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.stats();
            if s.shipped + s.queue_dropped + s.batch_dropped >= self.queue.enqueued() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Signals shutdown and joins the shipper thread. Queued and in-flight
    /// mutations are abandoned; call [`flush`](Self::flush) first for a
    /// graceful drain.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Global seed counter for per-link jitter streams. Every [`Link`] draws a
/// distinct seed here, so replicators started (or revived) at the same
/// instant still jitter independently.
static JITTER_SEED: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

/// Draws a fresh, decorrelated jitter-RNG state.
fn next_jitter_seed() -> u64 {
    let mut s = JITTER_SEED.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    splitmix64(&mut s)
}

/// One step of the splitmix64 generator (tiny, seedable, dependency-free).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scales `base` by a uniform factor in `1 ± jitter`, advancing `state`.
///
/// `jitter <= 0` returns `base` unchanged (deterministic schedules).
fn jittered_backoff(base: Duration, jitter: f64, state: &mut u64) -> Duration {
    if jitter <= 0.0 {
        return base;
    }
    // 53 uniform bits → [0, 1), mapped to [1 - jitter, 1 + jitter).
    let unit = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + jitter * (2.0 * unit - 1.0);
    base.mul_f64(factor.max(0.0))
}

/// One outgoing link to a backup or replacement server, with the
/// discipline every shipper shares: bounded connect, no Nagle delay, an
/// I/O timeout so a stalled peer trips an error instead of hanging the
/// shipper, acked batches, reconnect after any error, and a jittered,
/// doubling back-off between failed attempts. What differs between the
/// replication shipper, the warm-up pump and the Hybrid top-up — where
/// batches come from, pacing, what exhausting the retries means — stays
/// with the caller.
pub struct Link {
    addr: SocketAddr,
    /// Read for `io_timeout` and the `backoff_*` schedule.
    cfg: ReplicationConfig,
    conn: Option<TcpStream>,
    req: Vec<u8>,
    ack_buf: Vec<u8>,
    /// The next [`back_off`](Self::back_off) sleep, before jitter.
    backoff: Duration,
    jitter_state: u64,
}

impl Link {
    /// A link to `addr`, not yet connected.
    pub fn new(addr: SocketAddr, cfg: &ReplicationConfig) -> Self {
        Self {
            addr,
            cfg: cfg.clone(),
            conn: None,
            req: Vec::new(),
            ack_buf: Vec::new(),
            backoff: cfg.backoff_base,
            jitter_state: next_jitter_seed(),
        }
    }

    /// Whether a connection is open (as far as this side knows).
    pub fn is_up(&self) -> bool {
        self.conn.is_some()
    }

    /// Opens the connection if it is down; a fresh connection restarts
    /// the back-off schedule. [`ship`](Self::ship) does this itself — call
    /// it separately only to tell a refused connect from a failed ship.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.conn.is_none() {
            let timeout = self.cfg.io_timeout;
            let s = TcpStream::connect_timeout(&self.addr, timeout)?;
            let _ = s.set_nodelay(true);
            let _ = s.set_read_timeout(Some(timeout));
            let _ = s.set_write_timeout(Some(timeout));
            self.conn = Some(s);
            self.backoff = self.cfg.backoff_base;
        }
        Ok(())
    }

    /// Ships `batch` as replying memcached commands (after `ctx`'s `trace`
    /// line, if any) and validates every ack, connecting first if the link
    /// is down. A corrupt or truncated link is an `Err` (`InvalidData` for
    /// a bad ack), never silent divergence, and drops the connection: its
    /// state is unknown, and mutations being idempotent the caller resyncs
    /// by shipping the same batch again.
    pub fn ship(&mut self, batch: &[Mutation], ctx: Option<TraceContext>) -> std::io::Result<()> {
        self.connect()?;
        let stream = self.conn.as_mut().expect("connect() left the link up");
        let expected = serialize_batch(batch, &mut self.req, ctx);
        let result = stream
            .write_all(&self.req)
            .and_then(|()| read_acks(stream, expected, &mut self.ack_buf));
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Sleeps out the current back-off (jittered) and doubles the next one
    /// up to the ceiling — a peer whose listener is a few milliseconds
    /// late must not burn every retry before it is up.
    pub fn back_off(&mut self) {
        let (jitter, state) = (self.cfg.backoff_jitter, &mut self.jitter_state);
        std::thread::sleep(jittered_backoff(self.backoff, jitter, state));
        self.backoff = (self.backoff * 2).min(self.cfg.backoff_max);
    }
}

fn ship_loop(
    addr: SocketAddr,
    queue: Arc<ReplicationQueue>,
    cfg: ReplicationConfig,
    obs: Option<Arc<Obs>>,
    tracer: Option<Arc<Tracer>>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<LinkShared>,
) {
    let c_shipped = obs.as_ref().map(|o| o.counter("repl_shipped_total"));
    let c_retries = obs.as_ref().map(|o| o.counter("repl_retries_total"));
    let c_reconn = obs.as_ref().map(|o| o.counter("repl_reconnects_total"));
    let c_errors = obs.as_ref().map(|o| o.counter("repl_link_errors_total"));
    let c_bdrop = obs.as_ref().map(|o| o.counter("repl_batch_dropped_total"));
    let c_qdrop = obs.as_ref().map(|o| o.counter("repl_queue_dropped_total"));
    let g_depth = obs.as_ref().map(|o| o.gauge("repl_queue_depth"));
    let mut qdrop_seen = 0u64;

    let fault = |kind: &'static str| {
        shared.link_errors.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &c_errors {
            c.inc();
        }
        if let Some(t) = tracer.as_deref() {
            if t.is_enabled() {
                // Zero-length marker span: faults show on the timeline.
                t.record_at("replication", kind, t.now_us(), 0.0);
            }
        }
    };

    let mut link = Link::new(addr, &cfg);
    let mut ever_connected = false;
    let mut batch: Vec<Mutation> = Vec::new();
    let mut attempts: u32 = 0;

    while !shutdown.load(Ordering::SeqCst) {
        if let (Some(g), Some(c)) = (&g_depth, &c_qdrop) {
            g.set(queue.len() as f64);
            let d = queue.dropped();
            if d > qdrop_seen {
                c.add(d - qdrop_seen);
                qdrop_seen = d;
            }
        }
        if batch.is_empty() {
            queue.drain_into(&mut batch, cfg.batch_max);
            if batch.is_empty() {
                std::thread::sleep(cfg.poll_interval);
                continue;
            }
        }
        // One attempt. Connecting apart from the ship tells a refused
        // connect from a failed ship and lets reconnects be counted.
        let attempt = (|| {
            if !link.is_up() {
                let _span = tracer.as_deref().map(|t| t.span("replication", "connect"));
                link.connect().map_err(|_| "connect_failed")?;
                if std::mem::replace(&mut ever_connected, true) {
                    shared.reconnects.fetch_add(1, Ordering::Relaxed);
                    if let Some(c) = &c_reconn {
                        c.inc();
                    }
                }
            }
            let span = tracer
                .as_deref()
                .map(|t| t.span("replication", "ship_batch"));
            // Propagate this ship's span as the batch's parent context;
            // when the span is unsampled (or tracing is off) fall back to
            // the ambient context so a drill-driven shipper still stitches.
            let ctx = span
                .as_ref()
                .and_then(|s| s.context())
                .or_else(trace::thread_context);
            link.ship(&batch, ctx).map_err(|e| match e.kind() {
                std::io::ErrorKind::InvalidData => "corrupt_ack",
                _ => "link_io_error",
            })
        })();
        match attempt {
            Ok(()) => {
                shared
                    .shipped
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                if let Some(c) = &c_shipped {
                    c.add(batch.len() as u64);
                }
                batch.clear();
                attempts = 0;
            }
            Err(kind) => {
                fault(kind);
                attempts = bump_attempts(attempts, &cfg, &mut batch, &shared, &c_bdrop, &c_retries);
                link.back_off();
            }
        }
    }
}

/// Counts a failed attempt; drops the batch once retries are exhausted.
fn bump_attempts(
    attempts: u32,
    cfg: &ReplicationConfig,
    batch: &mut Vec<Mutation>,
    shared: &LinkShared,
    c_bdrop: &Option<spotcache_obs::Counter>,
    c_retries: &Option<spotcache_obs::Counter>,
) -> u32 {
    shared.retries.fetch_add(1, Ordering::Relaxed);
    if let Some(c) = c_retries {
        c.inc();
    }
    let attempts = attempts + 1;
    if attempts > cfg.max_batch_retries {
        shared
            .batch_dropped
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        if let Some(c) = c_bdrop {
            c.add(batch.len() as u64);
        }
        batch.clear();
        return 0;
    }
    attempts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CacheServer, LogicalClock};
    use crate::store::StoreConfig;

    fn store() -> Arc<Store> {
        Arc::new(Store::new(StoreConfig {
            capacity_bytes: 4 << 20,
            shards: 4,
        }))
    }

    #[test]
    fn serialized_set_header_matches_the_formatted_expression() {
        // The header's three numbers, over their extremes, against the
        // `format!` the serializer used before it wrote into `out` directly.
        let lens = [0usize, 1, 9, 10, 4095, 70_000];
        let ttls = [
            None,
            Some(0),
            Some(1),
            Some(EXPTIME_ABSOLUTE_CUTOFF - 1),
            Some(EXPTIME_ABSOLUTE_CUTOFF),
            Some(u64::MAX),
        ];
        let mut out = Vec::new();
        for flags in [0u32, 1, 9, 10, 65_535, u32::MAX] {
            for ttl in ttls {
                for len in lens {
                    let data = vec![b'x'; len];
                    let batch = [Mutation::Set {
                        key: Bytes::from_static(b"k"),
                        raw_value: Bytes::from(crate::protocol::encode_value(flags, &data)),
                        ttl,
                    }];
                    assert_eq!(serialize_batch(&batch, &mut out, None), 1);
                    let exptime = ttl.unwrap_or(0).min(EXPTIME_ABSOLUTE_CUTOFF - 1);
                    let mut want = b"set k".to_vec();
                    want.extend_from_slice(format!(" {flags} {exptime} {}\r\n", len).as_bytes());
                    want.extend_from_slice(&data);
                    want.extend_from_slice(b"\r\n");
                    assert_eq!(out, want, "flags {flags} ttl {ttl:?} len {len}");
                }
            }
        }
        // A direct store write (no flag prefix) ships whole, with flags 0.
        let batch = [Mutation::Set {
            key: Bytes::from_static(b"k"),
            raw_value: Bytes::from_static(b"raw"),
            ttl: None,
        }];
        serialize_batch(&batch, &mut out, None);
        assert_eq!(out, b"set k 0 0 3\r\nraw\r\n");
    }

    #[test]
    fn jittered_backoff_stays_inside_the_band() {
        let base = Duration::from_millis(100);
        let mut state = next_jitter_seed();
        for _ in 0..1_000 {
            let d = jittered_backoff(base, 0.25, &mut state);
            assert!(d >= Duration::from_millis(75), "{d:?} below band");
            assert!(d < Duration::from_millis(125), "{d:?} above band");
        }
        // Zero jitter is exactly deterministic.
        assert_eq!(jittered_backoff(base, 0.0, &mut state), base);
    }

    #[test]
    fn two_replicators_retry_schedules_decorrelate() {
        // Two shippers revived by the same revocation draw distinct seeds
        // and so sleep for different jittered delays at every step of the
        // same base schedule — no lockstep reconnect storms.
        let mut a = next_jitter_seed();
        let mut b = next_jitter_seed();
        assert_ne!(a, b);
        let mut base = Duration::from_millis(10);
        let max = Duration::from_millis(500);
        let mut differing = 0;
        for _ in 0..16 {
            let da = jittered_backoff(base, 0.25, &mut a);
            let db = jittered_backoff(base, 0.25, &mut b);
            if da != db {
                differing += 1;
            }
            base = (base * 2).min(max);
        }
        assert!(
            differing >= 12,
            "schedules stayed correlated: only {differing}/16 steps differ"
        );
    }

    #[test]
    fn tap_captures_sets_and_deletes_with_prefix_filter() {
        let s = store();
        let q = ReplicationQueue::new(64, Some(b"h".to_vec()));
        s.set_mutation_sink(Some(q.clone()));
        s.set("h1", "hot");
        s.set("c1", "cold");
        s.delete(b"h1");
        s.delete(b"c1");
        s.delete(b"absent"); // no-op deletes are not tapped
        assert_eq!(q.enqueued(), 2);
        let mut out = Vec::new();
        q.drain_into(&mut out, 10);
        assert!(matches!(&out[0], Mutation::Set { key, .. } if key.as_ref() == b"h1"));
        assert!(matches!(&out[1], Mutation::Delete { key } if key.as_ref() == b"h1"));
        // Removing the sink stops the tap.
        s.set_mutation_sink(None);
        s.set("h2", "hot");
        assert_eq!(q.enqueued(), 2);
    }

    #[test]
    fn queue_drops_oldest_under_backpressure() {
        let q = ReplicationQueue::new(3, None);
        for i in 0..5u8 {
            q.push(Mutation::Delete {
                key: Bytes::copy_from_slice(&[i]),
            });
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.enqueued(), 5);
        let mut out = Vec::new();
        q.drain_into(&mut out, 10);
        // The two oldest (0, 1) are gone.
        assert_eq!(out[0].key().as_ref(), &[2]);
        assert_eq!(out[2].key().as_ref(), &[4]);
    }

    #[test]
    fn replicates_source_writes_to_backup_server() {
        let source = store();
        let backup = store();
        let clock = LogicalClock::new();
        let server = CacheServer::start(Arc::clone(&backup), Arc::clone(&clock), "127.0.0.1:0")
            .expect("backup server");
        let q = ReplicationQueue::new(1024, Some(b"h".to_vec()));
        source.set_mutation_sink(Some(q.clone()));
        let mut repl =
            Replicator::start(server.addr(), q, ReplicationConfig::default(), None, None);
        // Protocol-framed writes (flag prefix) and a delete.
        for i in 0..50u32 {
            let framed = crate::protocol::encode_value(7, format!("v{i}").as_bytes());
            source.set_at(format!("h{i}").into_bytes(), framed, 0, None);
        }
        source.delete(b"h0");
        assert!(repl.flush(Duration::from_secs(10)), "stream must drain");
        let stats = repl.stats();
        assert_eq!(stats.shipped, 51);
        assert_eq!(stats.batch_dropped + stats.queue_dropped, 0);
        // Backup converged: h0 deleted, the rest framed identically.
        assert!(backup.get(b"h0").is_none());
        for i in 1..50u32 {
            assert_eq!(
                backup.get(format!("h{i}").as_bytes()),
                source.get(format!("h{i}").as_bytes()),
                "key h{i} diverged"
            );
        }
        repl.stop();
    }

    #[test]
    fn dead_link_retries_then_drops_batches_without_panicking() {
        let q = ReplicationQueue::new(64, None);
        // Nothing listens here: grab an ephemeral port and close it.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = ReplicationConfig {
            io_timeout: Duration::from_millis(50),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            max_batch_retries: 2,
            ..ReplicationConfig::default()
        };
        let mut repl = Replicator::start(addr, q.clone(), cfg, None, None);
        q.push(Mutation::Delete {
            key: Bytes::copy_from_slice(b"k"),
        });
        assert!(repl.flush(Duration::from_secs(10)), "drop must account");
        let s = repl.stats();
        assert_eq!(s.shipped, 0);
        assert_eq!(s.batch_dropped, 1);
        assert!(s.retries >= 3, "retries before dropping: {}", s.retries);
        assert!(s.link_errors >= 3);
        repl.stop();
    }

    #[test]
    fn observed_replication_exports_counters() {
        let source = store();
        let backup = store();
        let clock = LogicalClock::new();
        let server = CacheServer::start(Arc::clone(&backup), clock, "127.0.0.1:0").expect("server");
        let q = ReplicationQueue::new(1024, None);
        source.set_mutation_sink(Some(q.clone()));
        let obs = Arc::new(Obs::new());
        let tracer = Tracer::all(4096);
        let mut repl = Replicator::start(
            server.addr(),
            q,
            ReplicationConfig::default(),
            Some(Arc::clone(&obs)),
            Some(Arc::clone(&tracer)),
        );
        source.set("a", "1");
        source.set("b", "2");
        assert!(repl.flush(Duration::from_secs(10)));
        repl.stop();
        assert_eq!(obs.counter("repl_shipped_total").get(), 2);
        assert!(tracer.categories().contains(&"replication"));
        let names: std::collections::BTreeSet<&'static str> =
            tracer.spans().iter().map(|r| r.name).collect();
        assert!(names.contains("ship_batch"), "{names:?}");
    }

    #[test]
    fn shipped_batches_stitch_into_the_backup_servers_trace() {
        // Source shipper and backup server share one in-process tracer
        // (the drill topology): the backup's serve tree must join the
        // shipper's trace via the propagated `trace` line.
        let source = store();
        let backup = store();
        let clock = LogicalClock::new();
        let tracer = Tracer::all(8192);
        let mut server = CacheServer::start_full(
            Arc::clone(&backup),
            clock,
            "127.0.0.1:0",
            crate::server::ServerConfig::default(),
            None,
            Some(Arc::clone(&tracer)),
        )
        .expect("backup server");
        let q = ReplicationQueue::new(1024, None);
        source.set_mutation_sink(Some(q.clone()));
        let mut repl = Replicator::start(
            server.addr(),
            q,
            ReplicationConfig::default(),
            None,
            Some(Arc::clone(&tracer)),
        );
        source.set("a", "1");
        assert!(repl.flush(Duration::from_secs(10)));
        repl.stop();
        server.stop();
        let spans = tracer.spans();
        let ships: Vec<_> = spans.iter().filter(|r| r.name == "ship_batch").collect();
        let serves: Vec<_> = spans.iter().filter(|r| r.name == "serve").collect();
        assert!(!ships.is_empty() && !serves.is_empty(), "{spans:?}");
        assert!(
            serves.iter().any(|sv| ships
                .iter()
                .any(|sh| sv.trace_id == sh.trace_id && sv.parent_id == sh.span_id)),
            "no serve span parented onto a ship_batch span:\nships={ships:?}\nserves={serves:?}"
        );
    }
}
