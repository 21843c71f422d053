//! The load generator: one thread, non-blocking sockets, pre-generated
//! bytes out, incrementally framed and fully verified replies in.
//!
//! Two drivers share the connection and verification code:
//!
//! * [`run_closed`] keeps a fixed number of writes outstanding per
//!   connection and sends the next one only when a reply batch completes,
//!   so a slower server is offered less load. It sleeps in `poll(2)` when
//!   nothing is readable.
//! * [`run_open`] sends one command per write on a Poisson schedule that
//!   ignores the server's progress, times every request from the instant
//!   it was **due**, and reports how late the generator itself ran. It
//!   spins between arrivals (the gaps are far below timer resolution), so
//!   its own CPU share is 1 by construction.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use spotcache_cache::server::LogicalClock;

use crate::framer::{Framer, Poll, Reply};
use crate::gen::{check_value, Cmd, KeySpace, Pool};
use crate::spans::{Recorder, Span, ROOT};
use crate::stats::{WindowSeries, WindowSummary};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Width of the fine windows availability and recovery are read from.
pub const FINE_WINDOW_NS: u64 = 10_000_000;

/// Free space a `read` call is always offered.
const READ_CHUNK: usize = 64 * 1024;

/// How long a driver waits for outstanding replies after its deadline
/// before counting them as timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// One non-blocking client connection with its receive buffer and framer.
pub struct Conn {
    stream: TcpStream,
    framer: Framer,
    /// Received bytes not yet framed are `rbuf[head..tail]`.
    rbuf: Vec<u8>,
    head: usize,
    tail: usize,
    /// Bytes a short write left behind; sent before anything newer.
    wpend: Vec<u8>,
    wpend_off: usize,
    /// Bytes written and read, for `protocol.bytes_*_per_op`.
    pub bytes_out: u64,
    /// See [`Conn::bytes_out`].
    pub bytes_in: u64,
}

impl Conn {
    /// Connects and switches the socket to non-blocking, no-delay mode.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            framer: Framer::new(),
            rbuf: vec![0; 4 * READ_CHUNK],
            head: 0,
            tail: 0,
            wpend: Vec::new(),
            wpend_off: 0,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    /// Whether a short write is still waiting to go out.
    pub fn has_pending_write(&self) -> bool {
        self.wpend_off < self.wpend.len()
    }

    /// Pushes out what a short write left behind; `Ok(true)` when nothing
    /// is left.
    pub fn flush_pending(&mut self) -> io::Result<bool> {
        while self.wpend_off < self.wpend.len() {
            match self.stream.write(&self.wpend[self.wpend_off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpend_off += n;
                    self.bytes_out += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wpend.clear();
        self.wpend_off = 0;
        Ok(true)
    }

    /// Sends `bytes` with one `write` call; whatever the kernel does not
    /// take is queued behind any earlier remainder.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.has_pending_write() {
            self.wpend.extend_from_slice(bytes);
            return Ok(());
        }
        let sent = loop {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 0,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        self.bytes_out += sent as u64;
        if sent < bytes.len() {
            self.wpend.extend_from_slice(&bytes[sent..]);
        }
        Ok(())
    }

    /// Reads whatever is available (one `read` call). `Ok(0)` means
    /// nothing was ready; a closed peer is an error. The buffer keeps its
    /// full length for the life of the connection, so a call costs the
    /// syscall and nothing else.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        } else if self.rbuf.len() - self.tail < READ_CHUNK {
            // Make room: move the unconsumed bytes to the front, and grow
            // when one reply is larger than the buffer.
            self.rbuf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
            if self.rbuf.len() - self.tail < READ_CHUNK {
                self.rbuf.resize(self.rbuf.len() * 2, 0);
            }
        }
        let got = loop {
            match self.stream.read(&mut self.rbuf[self.tail..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 0,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        self.tail += got;
        self.bytes_in += got as u64;
        Ok(got)
    }

    /// Frames every complete reply in the receive buffer and hands each to
    /// `on_reply`. `Err` when the stream stops being a reply stream.
    pub fn drain_replies(&mut self, mut on_reply: impl FnMut(Reply<'_>)) -> Result<(), ()> {
        loop {
            match self.framer.poll(&self.rbuf[self.head..self.tail]) {
                Poll::Need => return Ok(()),
                Poll::Malformed => return Err(()),
                Poll::Ready { reply, consumed } => {
                    on_reply(reply);
                    self.head += consumed;
                }
            }
        }
    }
}

/// Blocks until one of `conns` is readable (or writable, for those with a
/// pending write), at most `timeout_ms`.
pub fn wait_ready(conns: &[&Conn], timeout_ms: i32) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.fd(),
            events: POLLIN | if c.has_pending_write() { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, correctly laid out array of `fds.len()`
    // pollfd records for the duration of the call. A failed or interrupted
    // call only shortens the wait.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
}

/// Sends `bytes` and blocks until `cmds` commands have been answered,
/// handing every framed reply to `on_reply`, which returns whether the
/// reply completed a command.
pub fn roundtrip(
    conn: &mut Conn,
    bytes: &[u8],
    cmds: usize,
    timeout: Duration,
    mut on_reply: impl FnMut(Reply<'_>) -> bool,
) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    conn.send(bytes)?;
    let mut done = 0;
    while done < cmds {
        if conn.has_pending_write() {
            conn.flush_pending()?;
        }
        if conn.fill()? == 0 {
            if Instant::now() > deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            wait_ready(&[&*conn], 1);
            continue;
        }
        conn.drain_replies(|r| done += usize::from(on_reply(r)))
            .map_err(|()| io::Error::from(io::ErrorKind::InvalidData))?;
    }
    Ok(())
}

/// Counters of one fine window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FineSlot {
    /// `get`s answered.
    pub gets: u32,
    /// `get`s answered with the value of the last acknowledged `set`.
    pub fresh: u32,
    /// Replies that failed verification.
    pub failed: u32,
}

/// Per-10 ms counters, indexed by completion time.
#[derive(Debug, Default)]
pub struct FineWindows {
    slots: Vec<FineSlot>,
}

impl FineWindows {
    /// The slot of time `at_ns`, growing the series as needed.
    pub fn at(&mut self, at_ns: u64) -> &mut FineSlot {
        let i = (at_ns / FINE_WINDOW_NS) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, FineSlot::default());
        }
        &mut self.slots[i]
    }

    /// Every window touched so far, the current (partial) one included.
    pub fn slots(&self) -> &[FineSlot] {
        &self.slots
    }

    /// Every window touched so far.
    pub fn into_slots(self) -> Vec<FineSlot> {
        self.slots
    }

    /// Start of the next unused fine window, so consecutive slices append
    /// to one series instead of overlapping.
    pub fn slots_len_ns(&self) -> u64 {
        self.slots.len() as u64 * FINE_WINDOW_NS
    }
}

/// What the client knows about every key, and the tally of every reply
/// checked against it.
pub struct Checker {
    keys: KeySpace,
    /// Version of the last acknowledged `set` per key (0 = the prefill).
    expected: Vec<u32>,
    /// Logical time the last acknowledged `set` expires at, 0 = never.
    expires: Vec<u32>,
    /// Whether the store is smaller than the key space, which makes a miss
    /// a legal answer.
    evicting: bool,
    /// Logical time the server is at.
    pub clock: u32,
    /// Commands whose reply was checked.
    pub attempted: u64,
    /// Commands whose reply was refused, mis-framed, wrong-valued or
    /// missing.
    pub failed: u64,
    /// `get`s answered.
    pub gets: u64,
    /// `get`s answered with exactly the last acknowledged value.
    pub hits: u64,
    /// Per-10 ms tallies, continuous across the slices of a run.
    pub fine: FineWindows,
}

/// The `VALUE` part of a `get`, held until its `END`: the version it
/// carried, or `Err` when it was not a whole value of the requested key.
type Got = Result<u32, ()>;

impl Checker {
    /// A checker for a freshly prefilled store (every key at version 0).
    pub fn new(keys: KeySpace, evicting: bool) -> Self {
        Self {
            keys,
            expected: vec![0; keys.n as usize],
            expires: vec![0; keys.n as usize],
            evicting,
            clock: 0,
            attempted: 0,
            failed: 0,
            gets: 0,
            hits: 0,
            fine: FineWindows::default(),
        }
    }

    /// Counts one failed reply in the fine window of `at_ns`.
    pub fn fail(&mut self, at_ns: u64) {
        self.failed += 1;
        self.fine.at(at_ns).failed += 1;
    }

    /// The key names replies are checked against.
    pub fn keys(&self) -> KeySpace {
        self.keys
    }

    /// Version of the last acknowledged `set` of `key`.
    pub fn expected(&self, key: u32) -> u32 {
        self.expected[key as usize]
    }

    /// Records an acknowledged `set`.
    pub fn on_stored(&mut self, c: &Cmd) {
        self.attempted += 1;
        self.expected[c.key as usize] = c.version;
        self.expires[c.key as usize] = if c.ttl == 0 {
            0
        } else {
            self.clock + u32::from(c.ttl)
        };
    }

    fn on_get_done(&mut self, c: &Cmd, got: Option<Got>, at_ns: u64) {
        self.attempted += 1;
        self.gets += 1;
        let expiry = self.expires[c.key as usize];
        let expired = expiry != 0 && expiry <= self.clock;
        let fresh = got == Some(Ok(self.expected[c.key as usize])) && !expired;
        let legal_miss = got.is_none() && (self.evicting || expired);
        let slot = self.fine.at(at_ns);
        slot.gets += 1;
        if fresh {
            slot.fresh += 1;
            self.hits += 1;
        } else if !legal_miss {
            self.fail(at_ns);
        }
    }
}

/// Matches framed replies to the commands that caused them, in order, and
/// has the [`Checker`] judge each finished command.
#[derive(Debug, Default)]
pub struct Matcher {
    got: Option<Got>,
}

impl Matcher {
    /// Applies `reply` to command `c`; returns whether `c` is now fully
    /// answered.
    pub fn on_reply(
        &mut self,
        c: &Cmd,
        reply: Reply<'_>,
        checker: &mut Checker,
        fine_ns: u64,
    ) -> bool {
        match (c.is_set, reply) {
            (true, Reply::Stored) => {
                checker.on_stored(c);
                true
            }
            (false, Reply::Value { key, data, .. }) => {
                let ok = self.got.is_none() && checker.keys.index(key) == Some(c.key);
                self.got = Some(check_value(data, c.key).filter(|_| ok).ok_or(()));
                false
            }
            (false, Reply::End) => {
                checker.on_get_done(c, self.got.take(), fine_ns);
                true
            }
            _ => {
                // Refused or out of step: the command is answered, wrongly.
                checker.attempted += 1;
                checker.fail(fine_ns);
                self.got = None;
                true
            }
        }
    }
}

/// Checks a reply stream produced without a socket (the in-process replay)
/// against the commands that produced it. Returns whether the stream
/// framed cleanly and answered every command.
pub fn verify_offline(cmds: &[Cmd], replies: &[u8], checker: &mut Checker) -> bool {
    let mut framer = Framer::new();
    let mut matcher = Matcher::default();
    let mut at = 0usize;
    let mut off = 0usize;
    loop {
        match framer.poll(&replies[off..]) {
            Poll::Need => return off == replies.len() && at == cmds.len(),
            Poll::Malformed => return false,
            Poll::Ready { reply, consumed } => {
                let Some(c) = cmds.get(at) else {
                    return false;
                };
                at += usize::from(matcher.on_reply(c, reply, checker, 0));
                off += consumed;
            }
        }
    }
}

/// A write whose replies are still arriving.
#[derive(Debug, Clone, Copy)]
struct Flight {
    /// Next command to be answered (index into the pool's commands).
    cmd: u32,
    /// One past the flight's last command.
    end: u32,
    /// Commands in the flight.
    size: u32,
    /// Sequence number of the write on its lane (the span batch id).
    seq: u32,
    /// Time the latency is counted from: the send for a closed loop, the
    /// due time for an open one.
    t0_ns: u64,
}

/// One connection with its request stream and outstanding writes.
pub struct Lane<'p> {
    /// The socket.
    pub conn: Conn,
    pool: &'p Pool,
    next_batch: usize,
    sent_batches: u32,
    flights: VecDeque<Flight>,
    matcher: Matcher,
    /// Set when the reply stream could not be framed or the socket died.
    pub broken: bool,
}

impl<'p> Lane<'p> {
    /// A lane that will walk `pool` from its first batch.
    pub fn new(conn: Conn, pool: &'p Pool) -> Self {
        Self {
            conn,
            pool,
            next_batch: 0,
            sent_batches: 0,
            flights: VecDeque::new(),
            matcher: Matcher::default(),
            broken: false,
        }
    }

    /// Index of the next batch this lane would send.
    pub fn position(&self) -> usize {
        self.next_batch
    }

    fn outstanding_cmds(&self) -> u64 {
        self.flights.iter().map(|f| u64::from(f.end - f.cmd)).sum()
    }

    fn send_next(&mut self, t0_ns: u64) -> io::Result<u32> {
        let i = self.next_batch;
        self.next_batch = (i + 1) % self.pool.batches.len();
        let b = self.pool.batches[i];
        self.conn.send(self.pool.batch_bytes(i))?;
        let seq = self.sent_batches;
        self.sent_batches = seq.wrapping_add(1);
        self.flights.push_back(Flight {
            cmd: b.cmd_start,
            end: b.cmd_end,
            size: b.cmd_end - b.cmd_start,
            seq,
            t0_ns,
        });
        Ok(b.cmd_end - b.cmd_start)
    }

    /// Checks every framed reply against the oldest outstanding command.
    /// `done(t0_ns, commands, seq)` is called for each completed write.
    fn absorb(&mut self, checker: &mut Checker, fine_ns: u64, mut done: impl FnMut(u64, u64, u32)) {
        let pool = self.pool;
        let flights = &mut self.flights;
        let matcher = &mut self.matcher;
        let framed = self.conn.drain_replies(|reply| {
            let Some(f) = flights.front_mut() else {
                checker.fail(fine_ns); // a reply nobody asked for
                return;
            };
            if matcher.on_reply(&pool.cmds[f.cmd as usize], reply, checker, fine_ns) {
                f.cmd += 1;
                if f.cmd == f.end {
                    done(f.t0_ns, u64::from(f.size), f.seq);
                    flights.pop_front();
                }
            }
        });
        if framed.is_err() {
            self.broken = true;
        }
    }

    fn give_up(&mut self, checker: &mut Checker, fine_ns: u64) {
        let lost = self.outstanding_cmds();
        checker.attempted += lost;
        for _ in 0..lost {
            checker.fail(fine_ns);
        }
        self.flights.clear();
    }
}

/// What one driver call measured.
#[derive(Debug, Default)]
pub struct SliceStats {
    /// Closed windows.
    pub windows: Vec<WindowSummary>,
    /// Seconds the slice sent load for.
    pub secs: f64,
    /// Commands sent.
    pub sent: u64,
    /// Open loop: how late each send was, nanoseconds.
    pub lag_ns: Vec<u64>,
    /// Open loop: unanswered requests, sampled once a millisecond.
    pub backlog: Vec<u32>,
    /// Requests the schedule called for (open loop).
    pub offered: u64,
}

impl SliceStats {
    /// Appends a later slice of the same kind.
    pub fn absorb(&mut self, later: SliceStats) {
        self.windows.extend(later.windows);
        self.secs += later.secs;
        self.sent += later.sent;
        self.lag_ns.extend(later.lag_ns);
        self.backlog.extend(later.backlog);
        self.offered += later.offered;
    }
}

/// Advancing the server's logical clock from the client side.
pub struct ClockStep {
    /// The clock shared with the server.
    pub clock: Arc<LogicalClock>,
    /// Advance by one logical second every this many writes.
    pub every_batches: u64,
    /// Writes counted so far (kept across slices so the cadence does not
    /// restart with each one).
    pub batches: u64,
}

impl ClockStep {
    /// A stepper that has counted no writes yet.
    pub fn new(clock: Arc<LogicalClock>, every_batches: u64) -> Self {
        Self {
            clock,
            every_batches,
            batches: 0,
        }
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Parameters of [`run_closed`].
pub struct ClosedOpts<'a> {
    /// Writes kept outstanding per connection.
    pub depth: usize,
    /// How long to keep sending.
    pub duration: Duration,
    /// Stop sending after this many commands even if time remains.
    pub max_cmds: Option<u64>,
    /// Width of the summary windows.
    pub window_ns: u64,
    /// Client-driven logical clock, if the workload has TTLs.
    pub clock_step: Option<&'a mut ClockStep>,
    /// Where to record one `tcp.roundtrip` span per write (traced runs).
    pub spans: Option<&'a mut Recorder>,
}

impl ClosedOpts<'_> {
    /// `depth` writes outstanding for `duration`, one-second windows,
    /// nothing else.
    pub fn timed(depth: usize, duration: Duration, window_ns: u64) -> Self {
        Self {
            depth,
            duration,
            max_cmds: None,
            window_ns,
            clock_step: None,
            spans: None,
        }
    }
}

/// Closed loop over `lanes`: `depth` writes outstanding per connection
/// until the time or the command budget runs out, then a drain. With a
/// clock step, the pipeline is emptied before each tick of the logical
/// clock so every command executes at a known time and TTL expiry can be
/// checked exactly.
pub fn run_closed(
    lanes: &mut [Lane<'_>],
    checker: &mut Checker,
    mut o: ClosedOpts<'_>,
) -> SliceStats {
    let origin = Instant::now();
    let end_ns = o.duration.as_nanos() as u64;
    let fine_base = checker.fine.slots_len_ns();
    let span_base = o.spans.as_deref().map_or(0, Recorder::now);
    let mut series = WindowSeries::new(o.window_ns);
    let mut sent = 0u64;
    let mut stopped_at = None;
    let mut draining_for_tick = false;
    loop {
        let mut now = ns_since(origin);
        if stopped_at.is_none() && (now >= end_ns || o.max_cmds.is_some_and(|m| sent >= m)) {
            stopped_at = Some(now);
        }
        let mut progressed = false;
        let all_idle = lanes.iter().all(|l| l.flights.is_empty());
        if stopped_at.is_some() && all_idle {
            break;
        }
        let overdue = stopped_at.is_some_and(|t| now > t + DRAIN_TIMEOUT.as_nanos() as u64);
        if overdue || lanes.iter().any(|l| l.broken) {
            for l in lanes.iter_mut() {
                l.give_up(checker, fine_base + now);
            }
            break;
        }
        if draining_for_tick && all_idle {
            if let Some(step) = o.clock_step.as_deref_mut() {
                checker.clock += 1;
                step.clock.set(u64::from(checker.clock));
            }
            draining_for_tick = false;
        }
        for (lane_no, lane) in lanes.iter_mut().enumerate() {
            if lane.conn.has_pending_write() {
                match lane.conn.flush_pending() {
                    Ok(flushed) => progressed |= flushed,
                    Err(_) => lane.broken = true,
                }
            }
            while stopped_at.is_none()
                && !draining_for_tick
                && !lane.conn.has_pending_write()
                && lane.flights.len() < o.depth
                && o.max_cmds.is_none_or(|m| sent < m)
            {
                now = ns_since(origin);
                match lane.send_next(now) {
                    Ok(n) => sent += u64::from(n),
                    Err(_) => {
                        lane.broken = true;
                        break;
                    }
                }
                progressed = true;
                if let Some(step) = o.clock_step.as_deref_mut() {
                    step.batches += 1;
                    draining_for_tick = step.batches % step.every_batches == 0;
                }
            }
            match lane.conn.fill() {
                Ok(0) => {}
                Ok(_) => {
                    progressed = true;
                    now = ns_since(origin);
                    lane.absorb(checker, fine_base + now, |t0, n, seq| {
                        series.record(now, now.saturating_sub(t0), n);
                        if let Some(rec) = o.spans.as_deref_mut() {
                            rec.push(Span {
                                name: "tcp.roundtrip",
                                start_ns: span_base + t0,
                                end_ns: span_base + now,
                                parent: ROOT,
                                batch: seq.wrapping_mul(LANE_STRIDE).wrapping_add(lane_no as u32),
                            });
                        }
                    });
                }
                Err(_) => lane.broken = true,
            }
        }
        if !progressed {
            let conns: Vec<&Conn> = lanes.iter().map(|l| &l.conn).collect();
            wait_ready(&conns, 1);
        }
    }
    let sent_for = stopped_at.unwrap_or(end_ns).min(end_ns);
    SliceStats {
        windows: series.finish(sent_for),
        secs: sent_for as f64 / 1e9,
        sent,
        ..SliceStats::default()
    }
}

/// Span batch ids interleave lanes: `write number * LANE_STRIDE + lane`.
const LANE_STRIDE: u32 = 4;

/// Most requests the open loop leaves unanswered before it stops sending
/// (the schedule then falls behind, which `lag_ns` shows).
const OPEN_LOOP_CAP: usize = 16_384;

/// Parameters of [`run_open`].
pub struct OpenOpts<'a> {
    /// Arrivals per second.
    pub rate: f64,
    /// How long the schedule runs.
    pub duration: Duration,
    /// Width of the summary windows.
    pub window_ns: u64,
    /// Source of the Poisson gaps.
    pub rng: &'a mut StdRng,
    /// Where to record one `tcp.roundtrip` span per request (traced runs).
    pub spans: Option<&'a mut Recorder>,
}

/// Open loop on one connection: Poisson arrivals, one command per write,
/// latency from the due time.
pub fn run_open(lane: &mut Lane<'_>, checker: &mut Checker, mut o: OpenOpts<'_>) -> SliceStats {
    let origin = Instant::now();
    let end_ns = o.duration.as_nanos() as u64;
    let fine_base = checker.fine.slots_len_ns();
    let span_base = o.spans.as_deref().map_or(0, Recorder::now);
    let mut series = WindowSeries::new(o.window_ns);
    let mut stats = SliceStats {
        secs: o.duration.as_secs_f64(),
        ..SliceStats::default()
    };
    let rate = o.rate;
    let rng = &mut *o.rng;
    let mut gap = move || {
        let u: f64 = rng.gen();
        (-(1.0 - u).ln() / rate * 1e9) as u64
    };
    let mut next_due = gap();
    loop {
        let mut now = ns_since(origin);
        if now >= end_ns && lane.flights.is_empty() {
            break;
        }
        if now > end_ns + DRAIN_TIMEOUT.as_nanos() as u64 || lane.broken {
            lane.give_up(checker, fine_base + now);
            break;
        }
        if lane.conn.has_pending_write() && lane.conn.flush_pending().is_err() {
            lane.broken = true;
        }
        while next_due <= now && next_due < end_ns && lane.flights.len() < OPEN_LOOP_CAP {
            if lane.send_next(next_due).is_err() {
                lane.broken = true;
                break;
            }
            stats.lag_ns.push(now - next_due);
            stats.sent += 1;
            next_due += gap();
            now = ns_since(origin);
        }
        if now < end_ns && now / 1_000_000 >= stats.backlog.len() as u64 {
            stats.backlog.push(lane.flights.len() as u32);
        }
        match lane.conn.fill() {
            Ok(0) => {
                for _ in 0..32 {
                    std::hint::spin_loop();
                }
            }
            Ok(_) => {
                now = ns_since(origin);
                lane.absorb(checker, fine_base + now, |t0, n, seq| {
                    series.record(now, now.saturating_sub(t0), n);
                    if let Some(rec) = o.spans.as_deref_mut() {
                        rec.push(Span {
                            name: "tcp.roundtrip",
                            start_ns: span_base + t0,
                            end_ns: span_base + now,
                            parent: ROOT,
                            batch: seq,
                        });
                    }
                });
            }
            Err(_) => lane.broken = true,
        }
    }
    // Arrivals the schedule called for, whether or not they were sent.
    stats.offered = stats.sent;
    while next_due < end_ns {
        stats.offered += 1;
        next_due += gap();
    }
    stats.windows = series.finish(end_ns);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{build_pools, prefill, KeySampler, MixSpec, ValueSizes};
    use spotcache_cache::server::{CacheServer, ServerConfig};
    use spotcache_cache::store::{Store, StoreConfig};
    use spotcache_workload::zipf::ScrambledZipfian;

    fn spec(per_batch: usize) -> MixSpec {
        MixSpec {
            keys: KeySpace::uniform(2_000),
            sampler: KeySampler::Scrambled(ScrambledZipfian::new(2_000, 0.99)),
            get_frac: 0.9,
            per_batch,
            sizes: ValueSizes::Fixed(100),
            ttl_frac: 0.0,
            ttl_secs: (1, 1),
        }
    }

    fn server(spec: &MixSpec) -> (Arc<Store>, CacheServer) {
        let store = Arc::new(Store::new(StoreConfig {
            capacity_bytes: 16 << 20,
            shards: 4,
        }));
        prefill(&store, spec, 1, 0);
        let srv = CacheServer::start_with(
            Arc::clone(&store),
            LogicalClock::new(),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        (store, srv)
    }

    #[test]
    fn closed_loop_verifies_every_reply() {
        let s = spec(8);
        let (_store, mut srv) = server(&s);
        let pools = build_pools(&s, 3, 2, 64);
        let mut lanes: Vec<Lane<'_>> = pools
            .iter()
            .map(|p| Lane::new(Conn::connect(srv.addr()).unwrap(), p))
            .collect();
        let mut checker = Checker::new(s.keys, false);
        let stats = run_closed(
            &mut lanes,
            &mut checker,
            ClosedOpts::timed(4, Duration::from_millis(200), 50_000_000),
        );
        srv.stop();
        assert!(stats.sent > 1_000, "sent {}", stats.sent);
        assert_eq!(checker.attempted, stats.sent);
        assert_eq!(checker.failed, 0);
        assert_eq!(checker.hits, checker.gets);
        assert_eq!(stats.windows.len(), 4);
    }

    #[test]
    fn a_corrupted_store_is_caught() {
        let s = spec(8);
        let (store, mut srv) = server(&s);
        // Overwrite one popular key with another key's value.
        let victim = s.sampler.key_for_rank(0);
        let mut wrong = Vec::new();
        crate::gen::fill_value(&mut wrong, victim + 1, 0, 100);
        store.set(
            s.keys.key(victim).to_vec(),
            spotcache_cache::protocol::encode_value(0, &wrong),
        );
        let pools = build_pools(&s, 3, 1, 64);
        let mut lanes = vec![Lane::new(Conn::connect(srv.addr()).unwrap(), &pools[0])];
        let mut checker = Checker::new(s.keys, false);
        run_closed(
            &mut lanes,
            &mut checker,
            ClosedOpts::timed(2, Duration::from_millis(100), 50_000_000),
        );
        srv.stop();
        assert!(checker.failed > 0, "the wrong value must be noticed");
    }

    #[test]
    fn open_loop_delivers_the_offered_rate() {
        let s = spec(1);
        let (_store, mut srv) = server(&s);
        let pools = build_pools(&s, 3, 1, 4_096);
        let mut lane = Lane::new(Conn::connect(srv.addr()).unwrap(), &pools[0]);
        let mut checker = Checker::new(s.keys, false);
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(9);
        let stats = run_open(
            &mut lane,
            &mut checker,
            OpenOpts {
                rate: 5_000.0,
                duration: Duration::from_millis(400),
                window_ns: 100_000_000,
                rng: &mut rng,
                spans: None,
            },
        );
        srv.stop();
        assert_eq!(checker.failed, 0);
        assert_eq!(checker.attempted, stats.sent);
        assert_eq!(stats.sent, stats.offered);
        let expect = 5_000.0 * 0.4;
        assert!(
            (stats.sent as f64 - expect).abs() < expect * 0.15,
            "sent {}",
            stats.sent
        );
        assert_eq!(stats.lag_ns.len() as u64, stats.sent);
    }

    #[test]
    fn ttl_expiry_is_checked_against_the_logical_clock() {
        let mut s = spec(4);
        s.get_frac = 0.5;
        s.ttl_frac = 1.0;
        s.ttl_secs = (1, 2);
        let store = Arc::new(Store::new(StoreConfig {
            capacity_bytes: 16 << 20,
            shards: 4,
        }));
        prefill(&store, &s, 1, 0);
        let clock = LogicalClock::new();
        let mut srv = CacheServer::start_with(
            Arc::clone(&store),
            Arc::clone(&clock),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let pools = build_pools(&s, 3, 1, 256);
        let mut lanes = vec![Lane::new(Conn::connect(srv.addr()).unwrap(), &pools[0])];
        let mut checker = Checker::new(s.keys, false);
        let mut step = ClockStep::new(clock, 16);
        run_closed(
            &mut lanes,
            &mut checker,
            ClosedOpts {
                clock_step: Some(&mut step),
                ..ClosedOpts::timed(4, Duration::from_millis(200), 50_000_000)
            },
        );
        srv.stop();
        assert!(checker.clock > 3, "clock advanced to {}", checker.clock);
        assert!(checker.hits < checker.gets, "expired keys must miss");
        assert_eq!(checker.failed, 0, "every miss was a legal expiry");
    }
}
