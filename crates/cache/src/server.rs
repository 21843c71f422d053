//! A TCP memcached server over the text-protocol codec.
//!
//! The data plane is a **readiness-driven reactor**: each worker owns an
//! epoll instance (`crate::reactor`) and a shard of the connections,
//! blocks in `epoll_wait` until a socket is actually readable or
//! writable, and rearms per-connection interest to follow its
//! backpressure state — an idle connection costs zero CPU, and ten
//! thousand idle connections cost the same. Before it blocks, a worker
//! whose idle gaps have stayed at or under 200 µs polls for up to its
//! `PollWindow` (the guest haltpoll rule), so a ping-pong client's next
//! request finds it awake instead of waking a halted CPU; a worker fed
//! more than 200 µs apart never polls, and the window closes by itself
//! once the gaps grow. The accept loop blocks in its
//! own poller rather than sleeping between polls, and every event loop
//! carries an eventfd wakeup so `stop()` and new-connection handoff are
//! deterministic instead of poll-sleep races.
//!
//! epoll and eventfd are Linux system calls and the server has no other
//! data plane: elsewhere [`CacheServer::start_full`] returns
//! [`std::io::ErrorKind::Unsupported`] (from `Poller::new`). The store,
//! the in-process [`crate::protocol::serve_into`] path and everything
//! built on them do not depend on it.
//!
//! Every connection keeps one input and one output buffer for its whole
//! lifetime; responses are appended by
//! [`crate::protocol::serve_instrumented_into`] so pipelined batches
//! execute as a unit. Both buffers are bounded: a reader that stops
//! draining its responses stops being read from (backpressure), a writer
//! that streams an endless unparseable "command" is disconnected, and a
//! buffer that ballooned under backpressure releases its capacity once
//! drained (slow readers cannot pin memory forever).
//!
//! The server shares a [`Store`] with its owner, so a store can be
//! driven over real sockets by any memcached client speaking the text
//! protocol while the owner reads and writes it directly.
//!
//! Time for TTLs comes from a [`Clock`] so tests (and simulations) can use
//! logical time while a production-style deployment uses the wall clock.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spotcache_obs::http::standard_routes;
use spotcache_obs::{trace, AdminServer, Counter, Obs, TraceContext, Tracer};

use crate::protocol::{find_crlf, serve_instrumented_into, ProtocolObs};
use crate::reactor::{Events, Interest, PollWindow, Poller, WakeFd, Woke};
use crate::store::Store;

/// A source of seconds for TTL handling.
pub trait Clock: Send + Sync + 'static {
    /// Current time, seconds.
    fn now(&self) -> u64;
}

/// A settable logical clock for tests and simulations.
#[derive(Debug, Default)]
pub struct LogicalClock(AtomicU64);

impl LogicalClock {
    /// Creates a clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self(AtomicU64::new(0)))
    }

    /// Sets the time.
    pub fn set(&self, t: u64) {
        self.0.store(t, Ordering::SeqCst);
    }
}

impl Clock for Arc<LogicalClock> {
    fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// How long the accept loop pauses after a transient `accept` failure.
/// Under fd exhaustion (`EMFILE`/`ENFILE`) the level-triggered listener
/// stays readable, so re-waiting at once would spin a core until fds free
/// up — on exactly the instances whose CPU credits are being banked.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(2);

/// Once this many flushed bytes accumulate at the front of a connection's
/// output buffer, compact it (amortizes the memmove over large writes).
const OUT_COMPACT_THRESHOLD: usize = 64 * 1024;

/// Capacity a connection buffer may keep after draining completely.
/// A burst (or a slow reader hitting its backpressure cap) can balloon a
/// buffer to megabytes; once the bytes are gone, capacity beyond this is
/// released so idle connections cannot pin burst-sized allocations.
const BUF_RETAIN_MAX: usize = 64 * 1024;

/// Cap on a connection's buffered unparsed input — and therefore the
/// largest value a `set` can carry to the server. A connection that
/// exceeds it without ever completing a command is disconnected (protocol
/// abuse guard); [`CacheClient`] refuses a `VALUE` header that claims more.
const MAX_PENDING_IN: usize = 8 * 1024 * 1024;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Longest response line [`CacheClient`] accepts: a `VALUE` header is a
/// key of at most 250 bytes plus two integers.
const CLIENT_MAX_LINE: usize = 4096;

/// Reactor token reserved for the per-worker wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Events drained per `epoll_wait` in a reactor worker.
const EVENT_BATCH: usize = 1024;

/// Tuning knobs for the server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker event loops. `0` (the default) auto-sizes to the machine:
    /// `available_parallelism`, clamped above by the store's shard count
    /// (more workers than shards only adds lock contention, never
    /// parallelism — see `ServerConfig::effective_workers_for`).
    /// Nonzero values are taken literally.
    pub workers: usize,
    /// Cap on unflushed response bytes per connection; past it the
    /// connection is not read from until the peer drains its responses
    /// (backpressure on slow readers).
    pub max_pending_out: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_pending_out: 4 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// The worker count serving a store with `shards` shards.
    ///
    /// `workers > 0` is honoured literally. `workers == 0` auto-sizes to
    /// `available_parallelism` clamped to `1..=shards`: one event loop
    /// per core up to the point where every worker can hold a distinct
    /// shard lock.
    pub(crate) fn effective_workers_for(&self, shards: usize) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, shards.max(1))
    }
}

/// Whether an accept error is transient (retry) rather than fatal.
///
/// `ECONNABORTED`/reset: the client vanished between SYN and accept.
/// `EMFILE`/`ENFILE` (raw 24/23): fd exhaustion — pressure that clears
/// as connections close, not a reason to kill the server.
fn transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
    ) || matches!(e.raw_os_error(), Some(23) | Some(24))
}

fn retriable_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One connection owned by a worker: the socket plus its two reusable
/// buffers. `pending_out[out_cursor..]` is response bytes not yet
/// accepted by the kernel.
struct Conn {
    stream: TcpStream,
    pending_in: Vec<u8>,
    pending_out: Vec<u8>,
    out_cursor: usize,
    eof: bool,
    /// The interest currently armed in the poller (readable, writable).
    armed_read: bool,
    armed_write: bool,
    /// Whether `pending_in` holds a CRLF: a complete command line whose
    /// data block is still arriving, which new bytes can finish (or
    /// prove malformed) without bringing a CRLF of their own.
    line_waiting: bool,
    /// `write` calls the kernel refused (`WouldBlock`).
    #[cfg(test)]
    refused_writes: usize,
    /// Times the read loop handed `pending_in` to the protocol.
    #[cfg(test)]
    serve_passes: usize,
}

enum ConnState {
    /// Still open. `yielded`: the pass ended on the reply-buffer bound
    /// with the socket not known to be drained.
    Open { yielded: bool },
    /// Finished or failed; the worker drops it.
    Closed,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            pending_in: Vec::new(),
            pending_out: Vec::new(),
            out_cursor: 0,
            eof: false,
            armed_read: true,
            armed_write: false,
            line_waiting: false,
            #[cfg(test)]
            refused_writes: 0,
            #[cfg(test)]
            serve_passes: 0,
        }
    }

    /// Writes as much buffered output as the kernel will take.
    /// Returns `false` when the connection is dead.
    fn flush_out(&mut self) -> bool {
        while self.out_cursor < self.pending_out.len() {
            match self.stream.write(&self.pending_out[self.out_cursor..]) {
                Ok(0) => return false,
                Ok(n) => self.out_cursor += n,
                Err(e) if retriable_io(&e) => {
                    #[cfg(test)]
                    {
                        self.refused_writes += 1;
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_cursor == self.pending_out.len() {
            // Fully drained: reset the cursor AND release burst capacity.
            // A slow reader can legitimately balloon this buffer to
            // max_pending_out; without the shrink every such episode
            // would pin that allocation for the connection's lifetime.
            self.pending_out.clear();
            self.out_cursor = 0;
            if self.pending_out.capacity() > BUF_RETAIN_MAX {
                self.pending_out.shrink_to(BUF_RETAIN_MAX);
            }
        } else if self.out_cursor > OUT_COMPACT_THRESHOLD {
            self.pending_out.drain(..self.out_cursor);
            self.out_cursor = 0;
        }
        true
    }

    /// Unflushed response bytes have reached the slow-reader cap.
    fn backpressured(&self, cfg: &ServerConfig) -> bool {
        self.pending_out.len() - self.out_cursor >= cfg.max_pending_out
    }

    /// The readiness this connection wants next: readable unless EOF'd or
    /// backpressured, writable while output remains unflushed.
    fn wants(&self, cfg: &ServerConfig) -> (bool, bool) {
        (
            !self.eof && !self.backpressured(cfg),
            self.out_cursor < self.pending_out.len(),
        )
    }

    /// One readiness pass: flush, read-and-serve, flush. Reading stops when
    /// the socket is drained, the peer is back-pressured, or
    /// [`BUF_RETAIN_MAX`] of replies are waiting: a deep pipeline's replies
    /// leave while its backlog is still queued, so the client works on them
    /// while the server works on the rest, and the worker gets back to its
    /// other connections, the clock and `shutdown`. Level-triggered epoll
    /// reports the still-readable socket again at once.
    ///
    /// `batch_start` is when the worker's `epoll_wait` returned: its gap to tick entry is the readiness stage of the
    /// per-request latency attribution. The read/write stages sum the
    /// actual syscall durations of this pass; the parse/lock/execute/
    /// serialize stages are recorded inside the protocol layer. With
    /// neither obs nor an enabled tracer all of it collapses to one
    /// relaxed atomic load.
    #[allow(clippy::too_many_arguments)]
    fn tick(
        &mut self,
        store: &Store,
        now: u64,
        obs: Option<&ProtocolObs>,
        tracer: Option<&Tracer>,
        cfg: &ServerConfig,
        buf: &mut [u8],
        batch_start: Option<Instant>,
    ) -> ConnState {
        let timing = obs.is_some() || tracer.is_some_and(|t| t.is_enabled());
        if timing {
            if let (Some(po), Some(b0)) = (obs, batch_start) {
                po.stage_ready_us.record(b0.elapsed().as_secs_f64() * 1e6);
            }
        }
        let mut read_us = 0.0f64;
        let mut write_us = 0.0f64;
        if !timed_flush(self, timing, &mut write_us) {
            return ConnState::Closed;
        }
        // Bytes left behind: the kernel is refusing, the peer reads slower
        // than it is served. Ending the pass early would only buy one more
        // refused write per chunk; such a pass reads on to the cap.
        let peer_keeps_up = self.out_cursor == self.pending_out.len();
        let mut yielded = false;
        if !self.eof && self.backpressured(cfg) {
            // The peer is not draining responses: this pass will not read.
            // Emitted as a zero-length marker span so stalls are visible
            // on the timeline.
            if let Some(t) = tracer {
                if t.is_enabled() {
                    t.record_at_sampled("server", "backpressure_stall", t.now_us(), 0.0);
                }
            }
        }
        while !self.eof && !self.backpressured(cfg) {
            let read_t0 = if timing { Some(Instant::now()) } else { None };
            let read_result = self.stream.read(buf);
            if let Some(t0) = read_t0 {
                read_us += t0.elapsed().as_secs_f64() * 1e6;
            }
            match read_result {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    let seam = self.pending_in.len().saturating_sub(1);
                    self.pending_in.extend_from_slice(&buf[..n]);
                    // Bytes that end no line cannot complete a command
                    // unless a line already waits for its data: serving
                    // them would only rescan the unfinished line from its
                    // first byte, O(n²) over a long one.
                    let mut consumed = 0;
                    if self.line_waiting || find_crlf(&self.pending_in[seam..]).is_some() {
                        #[cfg(test)]
                        {
                            self.serve_passes += 1;
                        }
                        consumed = serve_instrumented_into(
                            store,
                            &self.pending_in,
                            now,
                            obs,
                            tracer,
                            &mut self.pending_out,
                        );
                        self.pending_in.drain(..consumed);
                        self.line_waiting = find_crlf(&self.pending_in).is_some();
                    }
                    if self.pending_in.is_empty() && self.pending_in.capacity() > BUF_RETAIN_MAX {
                        // Same retention rule as the output side: a burst
                        // of pipelined input must not pin its high-water
                        // mark once consumed.
                        self.pending_in.shrink_to(BUF_RETAIN_MAX);
                    }
                    if consumed == 0 && self.pending_in.len() > MAX_PENDING_IN {
                        // An endless incomplete "command": cut it off.
                        return ConnState::Closed;
                    }
                    if n < buf.len() {
                        // Short read: the socket is drained for now.
                        break;
                    }
                    if peer_keeps_up && self.pending_out.len() - self.out_cursor >= BUF_RETAIN_MAX {
                        yielded = true;
                        break;
                    }
                }
                Err(e) if retriable_io(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnState::Closed,
            }
        }
        if !timed_flush(self, timing, &mut write_us) {
            return ConnState::Closed;
        }
        if timing {
            if let Some(po) = obs {
                if read_us > 0.0 {
                    po.stage_read_us.record(read_us);
                }
                if write_us > 0.0 {
                    po.stage_write_us.record(write_us);
                }
            }
            if let Some(t) = tracer.filter(|t| t.is_enabled()) {
                // Coarse sub-spans so the stages are visible on the
                // timeline next to the protocol-layer spans. Backdated by
                // their own duration: the syscalls happened just before.
                if read_us > 0.0 {
                    t.record_at_sampled("server", "stage_read", t.now_us() - read_us, read_us);
                }
                if write_us > 0.0 {
                    t.record_at_sampled("server", "stage_write", t.now_us() - write_us, write_us);
                }
            }
        }
        if self.eof && self.out_cursor == self.pending_out.len() {
            ConnState::Closed
        } else {
            ConnState::Open { yielded }
        }
    }
}

/// [`Conn::flush_out`] with the write stage's syscall time accumulated
/// into `write_us` when stage timing is live.
fn timed_flush(conn: &mut Conn, timing: bool, write_us: &mut f64) -> bool {
    let t0 = if timing { Some(Instant::now()) } else { None };
    let ok = conn.flush_out();
    if let Some(t0) = t0 {
        *write_us += t0.elapsed().as_secs_f64() * 1e6;
    }
    ok
}

/// The accept thread's handoff into a reactor worker: a queue of freshly
/// accepted sockets plus the eventfd that tells the worker to adopt them.
struct Injector {
    queue: parking_lot::Mutex<Vec<TcpStream>>,
    wake: WakeFd,
}

/// Reactor observability: `reactor_*` counters shared by all workers.
struct ReactorMetrics {
    waits: Counter,
    events: Counter,
    wakeups: Counter,
    rearms: Counter,
    yields: Counter,
    poll_hits: Counter,
    poll_misses: Counter,
    poll_us: Counter,
}

impl ReactorMetrics {
    fn new(obs: &Obs) -> Self {
        Self {
            waits: obs.counter("reactor_epoll_waits_total"),
            events: obs.counter("reactor_events_total"),
            wakeups: obs.counter("reactor_wakeups_total"),
            rearms: obs.counter("reactor_rearms_total"),
            yields: obs.counter("reactor_yields_total"),
            poll_hits: obs.counter("reactor_poll_hits_total"),
            poll_misses: obs.counter("reactor_poll_misses_total"),
            poll_us: obs.counter("reactor_poll_us_total"),
        }
    }

    /// One event batch: a wait, whatever polling preceded it. Events
    /// first, so a scrape never reads more waits than events.
    fn record_wait(&self, n: usize, woke: Woke) {
        self.events.add(n as u64);
        self.waits.inc();
        match woke {
            Woke::Polled => self.poll_hits.inc(),
            Woke::Parked { polled } if !polled.is_zero() => {
                self.poll_misses.inc();
                self.poll_us.add(polled.as_micros() as u64);
            }
            Woke::Parked { .. } => {}
        }
    }
}

/// One reactor worker: polls for its [`PollWindow`] and then blocks in
/// `epoll_wait`, ticks exactly the connections the kernel reports ready,
/// and rearms interest to follow each connection's backpressure state.
#[allow(clippy::too_many_arguments)]
fn reactor_worker_loop(
    poller: Poller,
    injector: Arc<Injector>,
    store: Arc<Store>,
    clock: Arc<dyn Clock>,
    shutdown: Arc<AtomicBool>,
    obs: Option<Arc<ProtocolObs>>,
    tracer: Option<Arc<Tracer>>,
    metrics: Option<Arc<ReactorMetrics>>,
    cfg: ServerConfig,
    active: Arc<AtomicUsize>,
) {
    // Connection slab: the reactor token is the slot index, so readiness
    // events map to connections without hashing. Closed slots recycle
    // through the free list.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    let mut buf = vec![0u8; READ_CHUNK];
    let mut events = Events::with_capacity(EVENT_BATCH);
    let mut window = PollWindow::default();
    'run: loop {
        let wait_start = tracer
            .as_deref()
            .filter(|t| t.is_enabled())
            .map(|t| t.now_us());
        let Ok(woke) = poller.wait_polled(&mut events, &mut window) else {
            break 'run;
        };
        if let Some(m) = &metrics {
            m.record_wait(events.len(), woke);
        }
        if let (Some(t), Some(t0)) = (tracer.as_deref(), wait_start) {
            t.record_at_sampled("reactor", "epoll_wait", t0, t.now_us() - t0);
        }
        // The instant readiness was reported: every connection ticked in
        // this batch measures its readiness stage from here.
        let batch_start = if obs.is_some() || wait_start.is_some() {
            Some(Instant::now())
        } else {
            None
        };
        let now = clock.now();
        for i in 0..events.len() {
            let ev = match events.get(i) {
                Some(ev) => ev,
                None => break,
            };
            if ev.token == WAKE_TOKEN {
                // Drain BEFORE reading the reasons: a wake arriving after
                // the drain re-readies the fd instead of being lost.
                injector.wake.drain();
                if let Some(m) = &metrics {
                    m.wakeups.inc();
                }
                if let Some(t) = tracer.as_deref() {
                    if t.is_enabled() {
                        t.record_at_sampled("reactor", "wakeup", t.now_us(), 0.0);
                    }
                }
                if shutdown.load(Ordering::SeqCst) {
                    break 'run;
                }
                let adopted = std::mem::take(&mut *injector.queue.lock());
                for s in adopted {
                    let idx = free.pop().unwrap_or_else(|| {
                        conns.push(None);
                        conns.len() - 1
                    });
                    let fd = s.as_raw_fd();
                    if poller.add(fd, idx as u64, Interest::READ).is_err() {
                        // Dead on arrival; dropping `s` closes it.
                        free.push(idx);
                        continue;
                    }
                    conns[idx] = Some(Conn::new(s));
                    live += 1;
                    active.fetch_add(1, Ordering::SeqCst);
                }
                continue;
            }
            let idx = ev.token as usize;
            // A slot may have closed earlier in this very batch; stale
            // events for it are skipped.
            let Some(slot) = conns.get_mut(idx) else {
                continue;
            };
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            match conn.tick(
                &store,
                now,
                obs.as_deref(),
                tracer.as_deref(),
                &cfg,
                &mut buf,
                batch_start,
            ) {
                ConnState::Closed => {
                    let _ = poller.delete(conn.stream.as_raw_fd());
                    *slot = None;
                    free.push(idx);
                    live -= 1;
                    active.fetch_sub(1, Ordering::SeqCst);
                }
                ConnState::Open { yielded } => {
                    if yielded {
                        if let Some(m) = &metrics {
                            m.yields.inc();
                        }
                    }
                    let (want_read, want_write) = conn.wants(&cfg);
                    if want_read != conn.armed_read || want_write != conn.armed_write {
                        let rearmed = poller.modify(
                            conn.stream.as_raw_fd(),
                            idx as u64,
                            Interest {
                                readable: want_read,
                                writable: want_write,
                            },
                        );
                        if rearmed.is_ok() {
                            conn.armed_read = want_read;
                            conn.armed_write = want_write;
                            if let Some(m) = &metrics {
                                m.rearms.inc();
                            }
                            if let Some(t) = tracer.as_deref() {
                                if t.is_enabled() {
                                    t.record_at_sampled("reactor", "rearm", t.now_us(), 0.0);
                                }
                            }
                        }
                        // On rearm failure the old interest stays armed;
                        // level-triggered readiness retries next wait.
                    }
                }
            }
        }
        // Between event batches: apply deferred recency touches and reap
        // due TTLs. A fully idle reactor parks in epoll_wait and flushes
        // on the next batch — writers flush opportunistically anyway, so
        // nothing is lost, and idle connections still cost zero CPU.
        store.flush_touches(clock.now());
    }
    // Shutdown (or poller failure): drop everything we own, keeping the
    // gauge honest. Queued-but-never-adopted connections were never
    // counted.
    active.fetch_sub(live, Ordering::SeqCst);
    drop(conns);
    injector.queue.lock().clear();
}

/// The reactor accept loop: blocks in its poller until the listener is
/// ready or the wakeup fd is poked (shutdown), then accepts a burst.
#[allow(clippy::too_many_arguments)]
fn accept_loop_reactor(
    listener: TcpListener,
    poller: Poller,
    wake: Arc<WakeFd>,
    shutdown: Arc<AtomicBool>,
    mut dispatch: impl FnMut(TcpStream),
    conn_counter: Option<Counter>,
    retry_counter: Option<Counter>,
    tracer: Option<Arc<Tracer>>,
) {
    const LISTENER_TOKEN: u64 = 0;
    const ACCEPT_WAKE_TOKEN: u64 = 1;
    let mut events = Events::with_capacity(8);
    'run: loop {
        if poller.wait(&mut events, -1).is_err() {
            break;
        }
        for ev in events.iter() {
            if ev.token == ACCEPT_WAKE_TOKEN {
                wake.drain();
                if shutdown.load(Ordering::SeqCst) {
                    break 'run;
                }
            }
            debug_assert!(ev.token == LISTENER_TOKEN || ev.token == ACCEPT_WAKE_TOKEN);
        }
        // Accept the whole burst; level-triggered readiness re-reports
        // anything left when the burst outruns one pass.
        loop {
            match listener.accept() {
                Ok((s, _)) => {
                    let _accept_span = tracer.as_deref().map(|t| t.span("server", "accept"));
                    if let Some(c) = &conn_counter {
                        c.inc();
                    }
                    if s.set_nonblocking(true).is_err() {
                        continue; // dead on arrival
                    }
                    let _ = s.set_nodelay(true);
                    dispatch(s);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if transient_accept_error(&e) => {
                    if let Some(c) = &retry_counter {
                        c.inc();
                    }
                    std::thread::sleep(ACCEPT_RETRY_PAUSE);
                    break;
                }
                Err(_) => break 'run,
            }
        }
    }
}

/// A running cache server.
pub struct CacheServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    active: Arc<AtomicUsize>,
    /// Kept for the admin scrape endpoint (`/metrics`, `/journal`).
    obs: Option<Arc<Obs>>,
    /// Kept for the admin `/trace` route.
    tracer: Option<Arc<Tracer>>,
    /// The live scrape endpoint, once [`Self::start_admin`] attaches one.
    admin: Option<AdminServer>,
    accept_wake: Arc<WakeFd>,
    injectors: Vec<Arc<Injector>>,
}

impl CacheServer {
    /// Starts a server for `store` on `addr` (use port 0 for an ephemeral
    /// port; the bound address is available via [`Self::addr`]).
    pub fn start(store: Arc<Store>, clock: impl Clock, addr: &str) -> std::io::Result<CacheServer> {
        Self::start_with(store, clock, addr, ServerConfig::default(), None)
    }

    /// [`start`](Self::start) with the worker count and buffer bounds from
    /// `config`, recording per-op protocol metrics, accept retries,
    /// connection counts, and `reactor_*` counters into `obs` when
    /// supplied.
    pub fn start_with(
        store: Arc<Store>,
        clock: impl Clock,
        addr: &str,
        config: ServerConfig,
        obs: Option<Arc<Obs>>,
    ) -> std::io::Result<CacheServer> {
        Self::start_full(store, clock, addr, config, obs, None)
    }

    /// [`start_with`](Self::start_with) plus span tracing: when `tracer`
    /// is supplied the server records `server.*` spans (accepted
    /// connections, backpressure stalls), `reactor.*` spans
    /// (`epoll_wait`, `wakeup`, `rearm`), and the protocol layer records
    /// per-request `protocol.*` spans.
    ///
    /// Linux-only: elsewhere this returns
    /// [`std::io::ErrorKind::Unsupported`].
    pub fn start_full(
        store: Arc<Store>,
        clock: impl Clock,
        addr: &str,
        config: ServerConfig,
        obs: Option<Arc<Obs>>,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<CacheServer> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept: pending-connection bursts drain without
        // blocking the loop between them.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let clock: Arc<dyn Clock> = Arc::new(clock);
        // Server threads inherit the spawner's logical pid and ambient
        // trace context: a drill that starts several in-process "nodes"
        // gets each node's server spans on that node's process lane in
        // the stitched Chrome trace.
        let spawn_pid = trace::thread_pid();
        let spawn_ctx = trace::thread_context();
        let proto_obs = obs
            .as_ref()
            .map(|o| Arc::new(ProtocolObs::new(Arc::clone(o))));
        let conn_counter = obs.as_ref().map(|o| o.counter("server_connections_total"));
        let retry_counter = obs
            .as_ref()
            .map(|o| o.counter("server_accept_transient_errors_total"));

        let n_workers = config.effective_workers_for(store.shard_count());
        if let Some(o) = &obs {
            o.gauge("reactor_workers").set(n_workers as f64);
            // Register the store_* / ttl_wheel_* read-path telemetry; the
            // per-shard atomics fold into the registry on the flush cadence.
            store.attach_telemetry(o, tracer.clone());
        }

        let metrics = obs.as_ref().map(|o| Arc::new(ReactorMetrics::new(o)));
        let mut worker_handles = Vec::with_capacity(n_workers);
        let mut injectors: Vec<Arc<Injector>> = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let poller = Poller::new()?;
            let injector = Arc::new(Injector {
                queue: parking_lot::Mutex::new(Vec::new()),
                wake: WakeFd::new()?,
            });
            poller.add(injector.wake.raw_fd(), WAKE_TOKEN, Interest::READ)?;
            injectors.push(Arc::clone(&injector));
            let store = Arc::clone(&store);
            let clock = Arc::clone(&clock);
            let shutdown = Arc::clone(&shutdown);
            let obs = proto_obs.clone();
            let tracer = tracer.clone();
            let metrics = metrics.clone();
            let cfg = config.clone();
            let active = Arc::clone(&active);
            let handle = std::thread::Builder::new()
                .name(format!("cache-reactor-{w}"))
                .spawn(move || {
                    trace::set_thread_pid(spawn_pid);
                    trace::set_thread_context(spawn_ctx);
                    if let Some(t) = tracer.as_deref() {
                        t.register_current_thread(&format!("cache-reactor-{w}"));
                    }
                    reactor_worker_loop(
                        poller, injector, store, clock, shutdown, obs, tracer, metrics, cfg, active,
                    )
                })?;
            worker_handles.push(handle);
        }

        // The accept loop blocks in its own poller; stop() pokes the
        // wakeup fd instead of racing a sleep with a nudge connection.
        let accept_poller = Poller::new()?;
        let accept_wake = Arc::new(WakeFd::new()?);
        accept_poller.add(listener.as_raw_fd(), 0, Interest::READ)?;
        accept_poller.add(accept_wake.raw_fd(), 1, Interest::READ)?;
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_tracer = tracer.clone();
        let wake = Arc::clone(&accept_wake);
        let dispatch_injectors = injectors.clone();
        let accept_handle = std::thread::Builder::new()
            .name("cache-accept".to_string())
            .spawn(move || {
                trace::set_thread_pid(spawn_pid);
                trace::set_thread_context(spawn_ctx);
                if let Some(t) = accept_tracer.as_deref() {
                    t.register_current_thread("cache-accept");
                }
                // Round-robin connection sharding onto workers; a handoff
                // to a worker that is already gone (shutdown race) is
                // dropped with its queue, closing the connection.
                let mut next = 0usize;
                let dispatch = move |s: TcpStream| {
                    let inj = &dispatch_injectors[next % dispatch_injectors.len()];
                    inj.queue.lock().push(s);
                    inj.wake.wake();
                    next = next.wrapping_add(1);
                };
                accept_loop_reactor(
                    listener,
                    accept_poller,
                    wake,
                    accept_shutdown,
                    dispatch,
                    conn_counter,
                    retry_counter,
                    accept_tracer,
                );
            })?;
        Ok(CacheServer {
            addr: local,
            shutdown,
            accept_handle: Some(accept_handle),
            worker_handles,
            active,
            obs,
            tracer,
            admin: None,
            accept_wake,
            injectors,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Attaches the live scrape endpoint (own thread, dependency-free
    /// HTTP/1.1) serving `/metrics` (Prometheus text), `/healthz`,
    /// `/trace` (drains the span buffer as Chrome-trace JSON), and
    /// `/journal` (NDJSON). Use port 0 in `bind` for an ephemeral port;
    /// returns the bound address. Requires a server started with `obs`.
    /// `healthz` is a caller-assembled `/healthz` body — the binary layer
    /// composes the phase machine and SLO burn state there (the server
    /// itself knows neither); `None` serves the default body.
    pub fn start_admin(
        &mut self,
        bind: &str,
        healthz: Option<Box<dyn Fn() -> String + Send + Sync>>,
    ) -> std::io::Result<SocketAddr> {
        let obs = self.obs.clone().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "admin endpoint requires a server started with obs",
            )
        })?;
        let routes = standard_routes(obs, self.tracer.clone(), healthz);
        let admin = AdminServer::start(bind, routes)?;
        let addr = admin.addr();
        self.admin = Some(admin);
        Ok(addr)
    }

    /// Connections currently owned by workers (monitoring/test hook).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// The resolved worker count.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.worker_handles.len()
    }

    /// Signals shutdown and quiesces: joins the accept loop and every
    /// worker, so no server thread outlives this call.
    ///
    /// Deterministic and fast: every event loop carries a wakeup fd that
    /// is poked here, so stop returns in milliseconds even with thousands
    /// of idle connections open (regression-tested at < 50 ms).
    pub fn stop(&mut self) {
        if let Some(mut admin) = self.admin.take() {
            admin.stop();
        }
        self.shutdown.store(true, Ordering::SeqCst);
        self.accept_wake.wake();
        for inj in &self.injectors {
            inj.wake.wake();
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        self.injectors.clear();
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A minimal blocking memcached text-protocol client (test/tooling use).
/// Replies are read through a buffer: a reply line costs one `read`, not
/// one per byte.
pub struct CacheClient {
    conn: BufReader<TcpStream>,
}

impl CacheClient {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            conn: BufReader::new(stream),
        })
    }

    fn send(&mut self, req: &[u8]) -> std::io::Result<()> {
        self.conn.get_mut().write_all(req)
    }

    /// Stores a value; returns the server's response line.
    pub fn set(&mut self, key: &str, value: &[u8], exptime: u64) -> std::io::Result<String> {
        let mut req = format!("set {key} 0 {exptime} {}\r\n", value.len()).into_bytes();
        req.extend_from_slice(value);
        req.extend_from_slice(b"\r\n");
        self.send(&req)?;
        self.read_line()
    }

    /// Fetches a value; `None` on miss.
    pub fn get(&mut self, key: &str) -> std::io::Result<Option<Vec<u8>>> {
        self.send(format!("get {key}\r\n").as_bytes())?;
        let header = self.read_line()?;
        if header == "END" {
            return Ok(None);
        }
        // VALUE <key> <flags> <bytes>: the length is the peer's claim, so
        // bound it before allocating for it.
        let bytes: usize = header
            .rsplit(' ')
            .next()
            .and_then(|b| b.parse().ok())
            .filter(|&b| b <= MAX_PENDING_IN)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, header.clone()))?;
        let mut data = vec![0u8; bytes + 2]; // data + CRLF
        self.conn.read_exact(&mut data)?;
        data.truncate(bytes);
        let end = self.read_line()?;
        if end != "END" {
            // Out of step with the server: every later reply would be
            // misread.
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, end));
        }
        Ok(Some(data))
    }

    /// Sends a `trace <token>` context line: the server stitches the
    /// spans of every later request on this connection into `ctx`'s
    /// trace. The line elicits no response bytes, so request/response
    /// accounting is unaffected.
    pub fn send_trace(&mut self, ctx: TraceContext) -> std::io::Result<()> {
        self.send(format!("trace {}\r\n", ctx.encode()).as_bytes())
    }

    /// Deletes a key; returns the response line.
    pub fn delete(&mut self, key: &str) -> std::io::Result<String> {
        self.send(format!("delete {key}\r\n").as_bytes())?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = Vec::new();
        // One byte past the limit tells a too-long line from a short one.
        let n = (&mut self.conn)
            .take(CLIENT_MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if line.pop() != Some(b'\n') {
            return Err(if n > CLIENT_MAX_LINE {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "response line exceeds the client's limit",
                )
            } else {
                std::io::ErrorKind::UnexpectedEof.into()
            });
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use std::time::{Duration, Instant};

    fn start_server() -> (CacheServer, Arc<Store>, Arc<LogicalClock>) {
        let store = Arc::new(Store::new(StoreConfig {
            capacity_bytes: 4 << 20,
            shards: 4,
        }));
        let clock = LogicalClock::new();
        let server =
            CacheServer::start(Arc::clone(&store), Arc::clone(&clock), "127.0.0.1:0").unwrap();
        (server, store, clock)
    }

    #[test]
    fn set_get_delete_over_tcp() {
        let (server, _store, _clock) = start_server();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        assert_eq!(client.set("greeting", b"hello world", 0).unwrap(), "STORED");
        assert_eq!(
            client.get("greeting").unwrap().as_deref(),
            Some(b"hello world".as_ref())
        );
        assert_eq!(client.delete("greeting").unwrap(), "DELETED");
        assert_eq!(client.get("greeting").unwrap(), None);
    }

    #[test]
    fn ttl_follows_the_logical_clock() {
        let (server, _store, clock) = start_server();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        clock.set(1_000);
        client.set("s", b"v", 60).unwrap();
        assert!(client.get("s").unwrap().is_some());
        clock.set(1_061);
        assert_eq!(client.get("s").unwrap(), None);
    }

    #[test]
    fn concurrent_clients_share_the_store() {
        let (server, store, _clock) = start_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = CacheClient::connect(addr).unwrap();
                    for i in 0..50 {
                        let key = format!("k{t}-{i}");
                        assert_eq!(c.set(&key, b"x", 0).unwrap(), "STORED");
                        assert!(c.get(&key).unwrap().is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn pipelined_batch_through_reactor() {
        // One write carrying many commands; the responses must come back
        // complete, in order, with nothing lost or duplicated.
        let (server, _store, _clock) = start_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        let mut req = Vec::new();
        let mut expect = Vec::new();
        for i in 0..200 {
            req.extend_from_slice(format!("set k{i} 0 0 2\r\nxy\r\nget k{i}\r\n").as_bytes());
            expect
                .extend_from_slice(format!("STORED\r\nVALUE k{i} 0 2\r\nxy\r\nEND\r\n").as_bytes());
        }
        s.write_all(&req).unwrap();
        let mut got = vec![0u8; expect.len()];
        s.read_exact(&mut got).unwrap();
        assert!(got == expect, "pipelined responses diverged");
    }

    #[test]
    fn server_store_is_shared_with_direct_access() {
        // The store's owner can read what clients wrote and vice
        // versa (the warm-up pump uses exactly this path).
        let (server, store, _clock) = start_server();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("from-client", b"1", 0).unwrap();
        assert!(store.get(b"from-client").is_some());
        // Note: direct store writes bypass the protocol's flag prefix, so
        // protocol reads of such keys are served but decode as empty — the
        // pump therefore always writes through `serve`/`execute`.
    }

    #[test]
    fn stop_terminates_accept_loop() {
        let (mut server, _store, _clock) = start_server();
        let addr = server.addr();
        server.stop();
        // Subsequent connections are refused or immediately closed.
        if let Ok(mut c) = CacheClient::connect(addr) {
            let r = c.set("x", b"y", 0);
            assert!(r.is_err() || TcpStream::connect(addr).is_err() || r.is_ok());
        }
    }

    #[test]
    fn stop_drains_in_flight_connections() {
        let (mut server, _store, _clock) = start_server();
        // Open several connections and leave them idle (their sockets sit
        // in a worker's readiness set).
        let clients: Vec<_> = (0..3)
            .map(|_| CacheClient::connect(server.addr()).unwrap())
            .collect();
        // Give the reactor a moment to adopt them all.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active_connections() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.active_connections(), 3);
        server.stop();
        // Quiesced: the workers dropped everything they owned.
        assert_eq!(server.active_connections(), 0);
        drop(clients);
    }

    #[test]
    fn stop_returns_under_50ms_with_idle_connections_open() {
        // The shutdown-latency regression test for the old "best-effort
        // nudge": stop() must not wait out accept polls or idle sleeps.
        let (mut server, _store, _clock) = start_server();
        let clients: Vec<_> = (0..8)
            .map(|_| CacheClient::connect(server.addr()).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active_connections() < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.active_connections(), 8);
        let t0 = Instant::now();
        server.stop();
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "stop() took {took:?} with idle connections open"
        );
        drop(clients);
    }

    #[test]
    fn closed_connections_are_reaped_while_running() {
        let (mut server, _store, _clock) = start_server();
        for _ in 0..5 {
            // Connect and immediately disconnect; the worker notices EOF.
            drop(CacheClient::connect(server.addr()).unwrap());
        }
        let _keep = CacheClient::connect(server.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = server.active_connections();
            if n <= 1 || Instant::now() > deadline {
                assert!(n <= 1, "closed connections not reaped: {n} tracked");
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let (mut server, _store, _clock) = start_server();
        server.stop();
        server.stop(); // second stop must not hang or panic
    }

    #[test]
    fn explicit_worker_count_is_honoured() {
        let store = Arc::new(Store::with_capacity(1 << 20));
        let clock = LogicalClock::new();
        let mut server = CacheServer::start_with(
            Arc::clone(&store),
            clock,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(server.workers(), 2);
        // Both workers serve traffic (round-robin hands them alternate
        // connections).
        for _ in 0..2 {
            let mut c = CacheClient::connect(server.addr()).unwrap();
            assert_eq!(c.set("k", b"v", 0).unwrap(), "STORED");
        }
        server.stop();
    }

    #[test]
    fn auto_worker_sizing_follows_parallelism_and_shards() {
        let cfg = ServerConfig::default();
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Auto-sizing is parallelism clamped by the shard count — no
        // arbitrary ceiling (the old clamp was 1..=4).
        assert_eq!(cfg.effective_workers_for(1024), par.clamp(1, 1024));
        assert_eq!(cfg.effective_workers_for(1), 1);
        assert_eq!(cfg.effective_workers_for(0), 1, "degenerate shard count");
        assert_eq!(cfg.effective_workers_for(usize::MAX), par);
        // Explicit counts are taken literally, shards notwithstanding.
        let explicit = ServerConfig {
            workers: 7,
            ..ServerConfig::default()
        };
        assert_eq!(explicit.effective_workers_for(2), 7);
    }

    /// A `Conn` over one end of a loopback socket pair and the peer's end,
    /// both non-blocking, ticked by hand: no reactor, no threads.
    fn conn_and_peer() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        peer.set_nonblocking(true).unwrap();
        (Conn::new(stream), peer)
    }

    /// Stores `value` under `key` the way a protocol `set` with flags 0
    /// would, so protocol `get`s serve it.
    fn prefill(store: &Store, key: &str, value: &[u8]) {
        let framed = crate::protocol::encode_value(0, value);
        store.set_at(key.as_bytes().to_vec(), framed, 0, None);
    }

    /// Writes as much of `bytes` as the kernel takes without a reader.
    fn write_until_refused(peer: &mut TcpStream, bytes: &[u8]) -> usize {
        let mut written = 0;
        while written < bytes.len() {
            match peer.write(&bytes[written..]) {
                Ok(n) => written += n,
                Err(e) if retriable_io(&e) => break,
                Err(e) => panic!("peer write failed: {e}"),
            }
        }
        written
    }

    #[test]
    fn slow_reader_buffers_release_burst_capacity_once_drained() {
        // A slow reader legitimately balloons pending_out up to the
        // backpressure cap; once the peer drains, the burst capacity must
        // be released (the old code retained it for the connection's
        // lifetime — unbounded aggregate memory across many connections).
        let (mut conn, mut peer) = conn_and_peer();

        let store = Store::with_capacity(64 << 20);
        let value_len = 8 * 1024;
        prefill(&store, "big", &vec![b'v'; value_len]);

        let cfg = ServerConfig {
            max_pending_out: 1 << 20, // 1 MiB backpressure cap
            ..ServerConfig::default()
        };
        let mut buf = vec![0u8; READ_CHUNK];

        // The peer pipelines 2000 gets of an 8 KiB value (≈16 MiB of
        // responses) and reads nothing yet.
        let n_gets = 2000usize;
        let req = "get big\r\n".repeat(n_gets);
        peer.write_all(req.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let mut ballooned = 0usize;
        let mut passes = 0usize;
        for _ in 0..50 {
            let refused = conn.refused_writes;
            match conn.tick(&store, 0, None, None, &cfg, &mut buf, None) {
                ConnState::Open { .. } => {}
                ConnState::Closed => panic!("connection died while serving"),
            }
            passes += 1;
            assert!(
                conn.refused_writes - refused <= 2,
                "a pass is refused at most by its opening and its closing flush"
            );
            ballooned = ballooned.max(conn.pending_out.capacity());
            if conn.backpressured(&cfg) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // One 16 KiB chunk of `get big` lines is ≈ 15 MB of replies: the
        // first pass alone crosses the cap, as it did before passes ended
        // on the reply-buffer bound.
        assert_eq!(passes, 1, "backpressure took {passes} passes to reach");
        assert!(
            ballooned > BUF_RETAIN_MAX,
            "test did not balloon the buffer (capacity {ballooned})"
        );

        // Now the peer drains everything while the server keeps flushing.
        let expected: usize = n_gets * ("VALUE big 0 \r\n\r\nEND\r\n".len() + 4 + value_len);
        let mut drained = 0usize;
        let mut chunk = vec![0u8; 256 * 1024];
        let deadline = Instant::now() + Duration::from_secs(30);
        while drained < expected {
            assert!(
                Instant::now() < deadline,
                "drain stalled at {drained} bytes"
            );
            match peer.read(&mut chunk) {
                Ok(0) => panic!("server closed mid-drain"),
                Ok(n) => drained += n,
                Err(e) if retriable_io(&e) => {}
                Err(e) => panic!("peer read failed: {e}"),
            }
            match conn.tick(&store, 0, None, None, &cfg, &mut buf, None) {
                ConnState::Open { .. } => {}
                ConnState::Closed => panic!("connection died while draining"),
            }
        }
        assert!(conn.pending_out.is_empty(), "output not fully flushed");
        assert_eq!(conn.out_cursor, 0, "cursor must reset on a full drain");
        assert!(
            conn.pending_out.capacity() <= BUF_RETAIN_MAX,
            "burst capacity retained: {} bytes",
            conn.pending_out.capacity()
        );
        assert!(
            conn.pending_in.capacity() <= BUF_RETAIN_MAX,
            "input burst capacity retained: {} bytes",
            conn.pending_in.capacity()
        );
    }

    #[test]
    fn deep_pipeline_is_served_in_bounded_passes_byte_for_byte() {
        // A seeded stream of ≥ 1 MiB: `get`s of 100 B values (≈ 14 reply
        // bytes per request byte), `set`s whose 8 KiB values straddle
        // read-chunk boundaries, misses, deletes of live keys. Every
        // command moves exactly one store counter, so the counters say how
        // many commands — hence how many reply bytes — a pass has served.
        let cfg = ServerConfig::default();
        let mut stream = Vec::new();
        let mut cmd_end = Vec::new(); // stream offset each command ends at
        let mut reply_end = vec![0usize]; // reply bytes after n commands
        let mut doomed = 0usize;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        while stream.len() < (1 << 20) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let k = (rng >> 32) % 64;
            let reply = match rng % 1000 {
                0..=4 => {
                    stream.extend_from_slice(format!("set s{k} 0 0 8192\r\n").as_bytes());
                    stream.resize(stream.len() + 8192, b'a' + k as u8 % 26);
                    stream.extend_from_slice(b"\r\n");
                    "STORED\r\n".len()
                }
                5..=24 => {
                    stream.extend_from_slice(format!("get nope{k}\r\n").as_bytes());
                    "END\r\n".len()
                }
                25..=39 => {
                    stream.extend_from_slice(format!("delete d{doomed}\r\n").as_bytes());
                    doomed += 1;
                    "DELETED\r\n".len()
                }
                _ => {
                    stream.extend_from_slice(format!("get g{k}\r\n").as_bytes());
                    format!("VALUE g{k} 0 100\r\n").len() + 100 + "\r\nEND\r\n".len()
                }
            };
            cmd_end.push(stream.len());
            reply_end.push(reply_end[reply_end.len() - 1] + reply);
        }
        let commands = cmd_end.len();

        let prefilled = || {
            let store = Store::with_capacity(64 << 20);
            for k in 0..64 {
                prefill(&store, &format!("g{k}"), &[b'g'; 100]);
            }
            for d in 0..doomed {
                prefill(&store, &format!("d{d}"), b"x");
            }
            store
        };
        let executed = |store: &Store| {
            let st = store.stats();
            (st.hits + st.misses + st.sets + st.deletes) as usize
        };
        let reference = prefilled();
        let mut expect = Vec::new();
        assert_eq!(
            crate::protocol::serve_into(&reference, &stream, 0, &mut expect),
            stream.len()
        );
        assert_eq!(expect.len(), reply_end[commands], "reply-length model");

        let store = prefilled();
        let base = executed(&store);
        let (mut conn, mut peer) = conn_and_peer();
        let mut buf = vec![0u8; READ_CHUNK];
        // Queued before the first pass: far more than one pass may serve.
        let mut sent = write_until_refused(&mut peer, &stream);
        // The peer keeps up: after every pass it takes each reply byte that
        // has arrived and tops the socket up with more commands.
        let mut got = Vec::with_capacity(expect.len());
        let mut take_replies = |peer: &mut TcpStream| {
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match peer.read(&mut chunk) {
                    Ok(0) => panic!("server closed mid-stream"),
                    Ok(n) => got.extend_from_slice(&chunk[..n]),
                    Err(e) if retriable_io(&e) => break,
                    Err(e) => panic!("peer read failed: {e}"),
                }
            }
            got.len()
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut served = 0usize;
        let (mut passes, mut yields, mut carried) = (0usize, 0usize, 0usize);
        while served < commands || conn.out_cursor < conn.pending_out.len() {
            assert!(Instant::now() < deadline, "stalled at {served} commands");
            // Nothing waiting: the opening flush cannot be refused, so the
            // reply-buffer bound applies to this pass.
            let kept_up = conn.pending_out.is_empty();
            let state = conn.tick(&store, 0, None, None, &cfg, &mut buf, None);
            let ConnState::Open { yielded } = state else {
                panic!("connection died at {served} commands");
            };
            // The pass read up to `read_to`, its last chunk from at most
            // `READ_CHUNK` before: what it served ahead of that chunk is
            // what was waiting when it chose to read on.
            let served_before = std::mem::replace(&mut served, executed(&store) - base);
            let read_to = cmd_end[..served].last().unwrap_or(&0) + conn.pending_in.len();
            let ahead = cmd_end.partition_point(|&e| e + READ_CHUNK <= read_to);
            let waiting = reply_end[ahead].saturating_sub(reply_end[served_before]);
            if kept_up {
                assert!(
                    waiting < BUF_RETAIN_MAX,
                    "pass {passes} read on with {waiting} reply bytes waiting"
                );
            }
            if passes == 0 {
                assert!(yielded, "the first pass must end on the reply-buffer bound");
                let queued_still = conn.stream.peek(&mut [0u8; 1]).unwrap();
                assert_eq!(queued_still, 1, "the first pass drained the socket");
            }
            passes += 1;
            yields += usize::from(yielded);
            carried += usize::from(!conn.pending_in.is_empty());
            take_replies(&mut peer);
            sent += write_until_refused(&mut peer, &stream[sent..]);
        }
        assert_eq!(sent, stream.len());
        assert!(yields > 1, "{yields} yields in {passes} passes");
        assert!(carried > 0, "no command straddled a pass boundary");
        assert!(conn.pending_in.is_empty(), "input left unserved");
        while take_replies(&mut peer) < expect.len() {
            assert!(Instant::now() < deadline, "replies lost in flight");
        }
        assert!(got == expect, "replies diverged from one serve_into call");
        assert_eq!(store.stats(), reference.stats());
        assert_eq!(store.len(), reference.len());
    }

    #[test]
    fn a_peer_that_stops_reading_costs_no_write_per_chunk() {
        // 100 B values: a 16 KiB chunk of `get s` lines is ≈ 285 KB of
        // replies, so passes end on the reply-buffer bound until the
        // kernel's buffers are full. From then on ending a pass early
        // would buy one refused write (and one `epoll_wait`) per chunk: a
        // pass whose opening flush is refused reads on as it always did.
        let (mut conn, mut peer) = conn_and_peer();
        let store = Store::with_capacity(64 << 20);
        prefill(&store, "s", &[b'v'; 100]);
        let cfg = ServerConfig {
            max_pending_out: 1 << 20,
            ..ServerConfig::default()
        };
        let mut buf = vec![0u8; READ_CHUNK];
        let req = "get s\r\n".repeat(1 << 20);
        write_until_refused(&mut peer, req.as_bytes());

        // What the worker arms, and how often it would have to change it.
        let mut armed = (conn.armed_read, conn.armed_write);
        let mut rearms = 0usize;
        let mut yields = 0usize;
        for pass in 0.. {
            assert!(pass < 100_000, "backpressure never reached");
            let refused = conn.refused_writes;
            let state = conn.tick(&store, 0, None, None, &cfg, &mut buf, None);
            let ConnState::Open { yielded } = state else {
                panic!("connection died while serving");
            };
            // Refused twice = at its opening flush too. Such a pass ends
            // where it did before the bound existed (socket drained or
            // cap reached), so backpressure takes no more passes to reach.
            let refused = conn.refused_writes - refused;
            assert!(refused <= 2, "pass {pass}: {refused} refused writes");
            assert!(
                !(yielded && refused == 2),
                "pass {pass} yielded to a refusing kernel"
            );
            yields += usize::from(yielded);
            if conn.wants(&cfg) != armed {
                armed = conn.wants(&cfg);
                rearms += 1;
            }
            if conn.backpressured(&cfg) {
                break;
            }
            std::thread::yield_now();
        }
        assert!(yields > 0, "the kernel refused before any pass yielded");
        // Into write-pending, into backpressure: yields re-arm nothing.
        assert_eq!(rearms, 2);
        assert_eq!(armed, (false, true));
    }

    /// Every reply byte that has reached `peer` so far, appended to `got`.
    fn drain_replies(peer: &mut TcpStream, got: &mut Vec<u8>) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match peer.read(&mut chunk) {
                Ok(0) => panic!("server closed mid-stream"),
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if retriable_io(&e) => break,
                Err(e) => panic!("peer read failed: {e}"),
            }
        }
    }

    #[test]
    fn an_endless_line_is_not_rescanned_on_every_read() {
        // 16 KiB writes of one line that never ends: the connection is cut
        // once more than MAX_PENDING_IN waits, and no read before that
        // serves, since none brings a CRLF (each pass used to rescan the
        // whole line: ~512 passes over up to 8 MiB).
        let (mut conn, mut peer) = conn_and_peer();
        let store = Store::with_capacity(1 << 20);
        let cfg = ServerConfig::default();
        let mut buf = vec![0u8; READ_CHUNK];
        let chunk = vec![b'x'; 16 * 1024];
        let mut sent = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "the endless line was never cut");
            sent += write_until_refused(&mut peer, &chunk);
            if let ConnState::Closed = conn.tick(&store, 0, None, None, &cfg, &mut buf, None) {
                break;
            }
        }
        assert!(sent > MAX_PENDING_IN, "cut after {sent} bytes");
        assert!(
            conn.serve_passes <= 4,
            "{} serve passes over one unterminated line",
            conn.serve_passes
        );
    }

    #[test]
    fn a_line_split_across_reads_is_answered_as_one_serve() {
        // A ~100 KiB `get` of 10 000 keys, written 1 000 bytes at a time,
        // then a `set` whose data block turns out malformed in a read that
        // brings no CRLF: replies match one serve_into over all the bytes.
        let (mut conn, mut peer) = conn_and_peer();
        let (store, reference) = (Store::with_capacity(8 << 20), Store::with_capacity(8 << 20));
        for i in (0..10_000).step_by(3) {
            let value = format!("value-{i}");
            prefill(&store, &format!("key-{i:06}"), value.as_bytes());
            prefill(&reference, &format!("key-{i:06}"), value.as_bytes());
        }
        let keys: Vec<String> = (0..10_000).map(|i| format!("key-{i:06}")).collect();
        let mut input = format!("get {}\r\n", keys.join(" ")).into_bytes();
        assert!(input.len() > 100 * 1024);
        let line_end = input.len();
        input.extend_from_slice(b"set k 0 0 3\r\nabcXY");
        let mut expect = Vec::new();
        assert_eq!(
            crate::protocol::serve_into(&reference, &input, 0, &mut expect),
            input.len() - 5,
            "the malformed block's bytes wait for a line end"
        );

        let cfg = ServerConfig::default();
        let mut buf = vec![0u8; READ_CHUNK];
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        for piece in input[..line_end]
            .chunks(1_000)
            .chain([&input[line_end..line_end + 13], &input[line_end + 13..]])
        {
            let mut sent = 0;
            while sent < piece.len() {
                assert!(Instant::now() < deadline, "the peer could not send");
                sent += write_until_refused(&mut peer, &piece[sent..]);
                // Let the bytes arrive, so every piece is its own read.
                std::thread::sleep(Duration::from_millis(1));
                let state = conn.tick(&store, 0, None, None, &cfg, &mut buf, None);
                assert!(matches!(state, ConnState::Open { .. }), "connection closed");
            }
        }
        while got.len() < expect.len() {
            assert!(Instant::now() < deadline, "replies lost in flight");
            let state = conn.tick(&store, 0, None, None, &cfg, &mut buf, None);
            assert!(matches!(state, ConnState::Open { .. }), "connection closed");
            drain_replies(&mut peer, &mut got);
        }
        assert!(got == expect, "replies diverged from one serve_into call");
        assert!(
            conn.serve_passes <= 4,
            "{} serve passes for one get line and one set",
            conn.serve_passes
        );
    }

    #[test]
    fn traced_server_records_reactor_and_protocol_spans() {
        let store = Arc::new(Store::new(StoreConfig {
            capacity_bytes: 4 << 20,
            shards: 4,
        }));
        let clock = LogicalClock::new();
        let tracer = Tracer::all(8192);
        let mut server = CacheServer::start_full(
            Arc::clone(&store),
            clock,
            "127.0.0.1:0",
            ServerConfig::default(),
            None,
            Some(Arc::clone(&tracer)),
        )
        .unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("k", b"v", 0).unwrap();
        assert!(client.get("k").unwrap().is_some());
        server.stop();
        let cats = tracer.categories();
        assert!(cats.contains(&"server"), "{cats:?}");
        assert!(cats.contains(&"protocol"), "{cats:?}");
        let names: std::collections::BTreeSet<&'static str> =
            tracer.spans().iter().map(|r| r.name).collect();
        for expect in ["accept", "serve"] {
            assert!(names.contains(expect), "missing {expect:?}: {names:?}");
        }
        assert!(cats.contains(&"reactor"), "{cats:?}");
        for expect in ["epoll_wait", "wakeup"] {
            assert!(names.contains(expect), "missing {expect:?}: {names:?}");
        }
        spotcache_obs::export::validate_json(&tracer.chrome_trace_json()).unwrap();
    }

    #[test]
    fn observed_server_records_ops_and_connections() {
        let store = Arc::new(Store::new(StoreConfig {
            capacity_bytes: 4 << 20,
            shards: 4,
        }));
        let clock = LogicalClock::new();
        clock.set(42);
        let obs = Arc::new(Obs::new());
        let mut server = CacheServer::start_with(
            Arc::clone(&store),
            Arc::clone(&clock),
            "127.0.0.1:0",
            ServerConfig::default(),
            Some(Arc::clone(&obs)),
        )
        .unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("k", b"v", 0).unwrap();
        assert!(client.get("k").unwrap().is_some());
        assert!(client.get("missing").unwrap().is_none());
        server.stop();
        assert_eq!(obs.counter("server_connections_total").get(), 1);
        assert_eq!(obs.counter("cache_store_total").get(), 1);
        assert_eq!(obs.counter("cache_get_total").get(), 2);
        assert_eq!(obs.counter("cache_get_hits_total").get(), 1);
        assert_eq!(obs.counter("cache_get_misses_total").get(), 1);
        assert!(obs.histogram("cache_op_latency_us").count() >= 3);
        assert!(obs.gauge("reactor_workers").get() >= 1.0);
        assert_poll_facts(&obs.prometheus_text());
        assert!(obs.counter("reactor_wakeups_total").get() >= 1);
        assert!(obs.journal().is_empty(), "ops never enter the journal");
    }

    /// A counter's value in a Prometheus exposition.
    fn scraped(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} not exposed:\n{text}"))
    }

    /// The polling series are exposed, and a wait is still one event
    /// batch: a zero-timeout poll that found nothing is not a wait.
    fn assert_poll_facts(text: &str) {
        let waits = scraped(text, "reactor_epoll_waits_total");
        assert!(waits >= 1);
        // Every counted wait delivered at least one event.
        assert!(waits <= scraped(text, "reactor_events_total"), "{text}");
        let hits = scraped(text, "reactor_poll_hits_total");
        let misses = scraped(text, "reactor_poll_misses_total");
        assert!(hits + misses <= waits, "{text}");
        scraped(text, "reactor_poll_us_total");
    }

    #[test]
    fn observed_server_fills_stage_histograms() {
        let store = Arc::new(Store::with_capacity(4 << 20));
        let clock = LogicalClock::new();
        let obs = Arc::new(Obs::new());
        let mut server = CacheServer::start_with(
            Arc::clone(&store),
            clock,
            "127.0.0.1:0",
            ServerConfig::default(),
            Some(Arc::clone(&obs)),
        )
        .unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("k", b"v", 0).unwrap();
        assert!(client.get("k").unwrap().is_some());
        server.stop();
        // Every stage of the attribution pipeline saw at least one sample:
        // readiness gap, read/write syscalls (server layer) and parse/
        // lock/execute/serialize (protocol layer).
        for stage in [
            "stage_ready_us",
            "stage_read_us",
            "stage_write_us",
            "stage_parse_us",
            "stage_lock_us",
            "stage_execute_us",
            "stage_serialize_us",
        ] {
            assert!(obs.histogram(stage).count() >= 1, "no samples in {stage}");
        }
    }

    #[test]
    fn trace_context_propagates_over_tcp() {
        let store = Arc::new(Store::with_capacity(4 << 20));
        let clock = LogicalClock::new();
        let tracer = Tracer::all(8192);
        let mut server = CacheServer::start_full(
            Arc::clone(&store),
            clock,
            "127.0.0.1:0",
            ServerConfig::default(),
            None,
            Some(Arc::clone(&tracer)),
        )
        .unwrap();
        let ctx = spotcache_obs::TraceContext {
            trace_id: 0xabcd_ef01,
            parent_span: 0x42,
            sampled: true,
        };
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(format!("trace {}\r\nget k\r\n", ctx.encode()).as_bytes())
            .unwrap();
        let mut got = vec![0u8; 5];
        s.read_exact(&mut got).unwrap();
        assert_eq!(got, b"END\r\n");
        server.stop();
        let serve_spans: Vec<_> = tracer
            .spans()
            .into_iter()
            .filter(|r| r.name == "serve")
            .collect();
        assert!(!serve_spans.is_empty());
        assert!(
            serve_spans
                .iter()
                .all(|r| r.trace_id == 0xabcd_ef01 && r.parent_id == 0x42),
            "serve spans must join the propagated trace: {serve_spans:?}"
        );
    }

    #[test]
    fn admin_endpoint_scrapes_a_live_server() {
        let store = Arc::new(Store::with_capacity(4 << 20));
        let clock = LogicalClock::new();
        let obs = Arc::new(Obs::new());
        let tracer = Tracer::all(8192);
        let mut server = CacheServer::start_full(
            Arc::clone(&store),
            clock,
            "127.0.0.1:0",
            ServerConfig::default(),
            Some(Arc::clone(&obs)),
            Some(Arc::clone(&tracer)),
        )
        .unwrap();
        let admin = server.start_admin("127.0.0.1:0", None).unwrap();
        let mut client = CacheClient::connect(server.addr()).unwrap();
        client.set("k", b"v", 0).unwrap();
        assert!(client.get("k").unwrap().is_some());

        let timeout = Duration::from_secs(2);
        let (code, body) = spotcache_obs::http::http_get(admin, "/metrics", timeout).unwrap();
        assert_eq!(code, 200);
        spotcache_obs::export::validate_prometheus_text(&body)
            .unwrap_or_else(|at| panic!("invalid exposition at line {at}:\n{body}"));
        assert!(body.contains("cache_get_total 1"), "{body}");
        assert!(body.contains("stage_ready_us"), "{body}");
        assert_poll_facts(&body);

        let (code, body) = spotcache_obs::http::http_get(admin, "/healthz", timeout).unwrap();
        assert_eq!(code, 200);
        spotcache_obs::export::validate_json(&body).unwrap();

        let (code, body) = spotcache_obs::http::http_get(admin, "/trace", timeout).unwrap();
        assert_eq!(code, 200);
        spotcache_obs::export::validate_json(&body).unwrap();
        assert!(body.contains("\"serve\""), "live spans drained: {body}");

        server.stop();
        assert!(
            spotcache_obs::http::http_get(admin, "/metrics", timeout).is_err(),
            "admin endpoint must stop with the server"
        );
    }

    /// A peer that answers one request with `reply`, written `chunk`
    /// bytes per `write` (each its own segment), and hangs up.
    fn fake_peer(reply: Vec<u8>, chunk: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut req = [0u8; 64];
            let _ = s.read(&mut req);
            for part in reply.chunks(chunk) {
                // The client may hang up mid-reply once it has seen enough.
                if s.write_all(part).is_err() {
                    return;
                }
                if chunk < reply.len() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn client_rejects_an_absurd_value_length() {
        let (addr, peer) = fake_peer(b"VALUE k 0 18446744073709551615\r\n".to_vec(), usize::MAX);
        let mut client = CacheClient::connect(addr).unwrap();
        let err = client.get("k").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn client_rejects_an_unterminated_line() {
        let (addr, peer) = fake_peer(vec![b'x'; 64 * 1024], usize::MAX);
        let mut client = CacheClient::connect(addr).unwrap();
        let err = client.get("k").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn client_parses_a_reply_split_across_tiny_writes() {
        let reply = b"VALUE k 0 12\r\nhello\r\nworld\r\nEND\r\n";
        for chunk in [1, 2, 3, 7] {
            let (addr, peer) = fake_peer(reply.to_vec(), chunk);
            let mut client = CacheClient::connect(addr).unwrap();
            let got = client.get("k").unwrap();
            assert_eq!(
                got.as_deref(),
                Some(b"hello\r\nworld".as_ref()),
                "chunk {chunk}"
            );
            peer.join().unwrap();
        }
    }

    #[test]
    fn client_rejects_a_value_not_followed_by_end() {
        // The header claims 3 bytes, the peer sends 5: the reply is out of
        // step, and a release build must say so rather than carry on.
        let (addr, peer) = fake_peer(b"VALUE k 0 3\r\nhello\r\nEND\r\n".to_vec(), usize::MAX);
        let mut client = CacheClient::connect(addr).unwrap();
        let err = client.get("k").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn start_admin_requires_obs() {
        let (mut server, _store, _clock) = start_server();
        assert!(server.start_admin("127.0.0.1:0", None).is_err());
        server.stop();
    }
}
