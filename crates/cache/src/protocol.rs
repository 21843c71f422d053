//! The memcached text protocol: parsing, execution, and response encoding.
//!
//! The paper's system speaks to stock memcached; this module implements
//! the commands the system actually uses (plus the common administrative
//! ones) against a [`Store`], so a node can be driven with real protocol
//! traffic:
//!
//! ```text
//! set <key> <flags> <exptime> <bytes>\r\n<data>\r\n   -> STORED
//! add/replace ...                                     -> STORED | NOT_STORED
//! get <key>*\r\n                                      -> VALUE ... END
//! delete <key>\r\n                                    -> DELETED | NOT_FOUND
//! incr/decr <key> <delta>\r\n                         -> <value> | NOT_FOUND
//! flush_all\r\n                                       -> OK
//! version\r\n                                         -> VERSION ...
//! stats\r\n                                           -> STAT ... END
//! ```
//!
//! Flags are stored with the value (memcached treats them as opaque);
//! expiry uses the store's logical clock.
//!
//! # Data-plane hot path
//!
//! The serving path is built for pipelined batches and buffer reuse:
//!
//! * [`parse_request`] yields a **borrowed** [`Request`] whose keys and
//!   data are slices of the input buffer — no copies, no allocations.
//!   It is the only request representation.
//! * [`serve_into`] / [`serve_instrumented_into`] append responses to a
//!   caller-owned `&mut Vec<u8>`, so a connection reuses one output
//!   buffer for its whole lifetime.
//! * Consecutive pipelined `get` commands are executed **as one batch**
//!   through [`Store::get_many_with`], which read-locks each shard the
//!   batch names once and visits the keys in input order. Each hit's
//!   `VALUE` line and each command's `END` are written into the reply
//!   from inside that visit — the value is copied once, store → reply,
//!   and no refcount is taken, so a hit executes no locked instruction on
//!   the value's line.
//! * Response encoding never heap-allocates for hits, misses, `STORED`,
//!   `DELETED`, or error lines: integers are formatted through a stack
//!   buffer and all sentinel lines are static. (`stats` and the rare
//!   arithmetic error paths may allocate; they are off the hot path.)

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use spotcache_obs::{Counter, Histogram, Obs, SpanGuard, TraceContext, Tracer};

use crate::store::{SetOutcome, SetPolicy, Store};

/// Opens a span when a tracer is attached; a `None` tracer costs one
/// `match`, a disabled tracer one relaxed atomic load — the hot path's
/// tracing overhead budget.
#[inline]
fn maybe_span<'a>(
    tracer: Option<&'a Tracer>,
    cat: &'static str,
    name: &'static str,
) -> Option<SpanGuard<'a>> {
    tracer.map(|t| t.span(cat, name))
}

/// Maximum key length accepted (memcached's limit).
pub(crate) const MAX_KEY_LEN: usize = 250;

/// Exptime values above this are absolute Unix timestamps, not relative
/// TTLs (the memcached text protocol's 30-day cutoff).
pub(crate) const EXPTIME_ABSOLUTE_CUTOFF: u64 = 60 * 60 * 24 * 30;

/// Storage command semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store only if absent.
    Add,
    /// Store only if present.
    Replace,
}

/// A request parsed without copying: every key and data block is a slice
/// of the input buffer. This is what the pipelined serving loop executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// `get`/`gets`: the raw space-separated key list (already validated;
    /// iterate it with `request_keys`).
    Get {
        /// Raw key-list tail of the command line.
        keys: &'a [u8],
    },
    /// A storage command (`set`, `add`, `replace`).
    Store {
        /// Which storage semantic.
        verb: StoreVerb,
        /// The key.
        key: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// Expiry in seconds (0 = never).
        exptime: u64,
        /// The value payload.
        data: &'a [u8],
        /// `noreply` suppression.
        noreply: bool,
    },
    /// `delete <key>`.
    Delete {
        /// The key.
        key: &'a [u8],
        /// `noreply` suppression.
        noreply: bool,
    },
    /// `incr`/`decr <key> <delta>`.
    Arith {
        /// The key.
        key: &'a [u8],
        /// Delta magnitude.
        delta: u64,
        /// `true` for incr, `false` for decr.
        increment: bool,
        /// `noreply` suppression.
        noreply: bool,
    },
    /// `flush_all`.
    FlushAll,
    /// `version`.
    Version,
    /// `stats`.
    Stats,
    /// `trace <token>` — cross-process trace propagation. Carries an
    /// encoded [`TraceContext`] that spans opened while serving the rest
    /// of the batch adopt. Produces **no response bytes**, so response
    /// and ack counting (replication shippers, loadgens) are unaffected.
    Trace {
        /// The encoded context token (see [`TraceContext::decode`]),
        /// borrowed from the input.
        token: &'a [u8],
    },
}

/// Iterates the keys of a `get` key-list tail (as produced by
/// [`Request::Get`]), skipping runs of spaces.
pub(crate) fn request_keys(raw: &[u8]) -> impl Iterator<Item = &[u8]> + Clone {
    raw.split(|&b| b == b' ').filter(|p| !p.is_empty())
}

/// Parse errors, rendered as memcached `CLIENT_ERROR`/`ERROR` lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The command verb is unknown.
    UnknownCommand,
    /// The line is malformed for its verb.
    BadLine(&'static str),
    /// A key is empty, too long, or contains whitespace/control bytes.
    BadKey,
    /// The input does not yet contain a full request (need more bytes).
    Incomplete,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownCommand => write!(f, "ERROR"),
            ParseError::BadLine(m) => write!(f, "CLIENT_ERROR {m}"),
            ParseError::BadKey => write!(f, "CLIENT_ERROR bad key"),
            ParseError::Incomplete => write!(f, "CLIENT_ERROR incomplete request"),
        }
    }
}

fn valid_key(k: &[u8]) -> bool {
    !k.is_empty() && k.len() <= MAX_KEY_LEN && k.iter().all(|&b| b > 32 && b != 127)
}

/// Parses one request from `input` without copying: keys and data in the
/// returned [`Request`] borrow from `input`.
///
/// Returns the request and the number of bytes consumed, or
/// [`ParseError::Incomplete`] when more input is needed — the contract a
/// streaming reader wants.
pub fn parse_request(input: &[u8]) -> Result<(Request<'_>, usize), ParseError> {
    let line_end = find_crlf(input).ok_or(ParseError::Incomplete)?;
    let line = &input[..line_end];
    let mut consumed = line_end + 2;
    let mut parts = line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let verb = parts.next().ok_or(ParseError::UnknownCommand)?;

    match verb {
        b"get" | b"gets" => {
            // The key list is the raw tail of the line after the verb;
            // iterate it in place rather than collecting.
            let tail_start = (verb.as_ptr() as usize - line.as_ptr() as usize) + verb.len();
            let keys = &line[tail_start..];
            let mut any = false;
            for k in request_keys(keys) {
                if !valid_key(k) {
                    return Err(ParseError::BadKey);
                }
                any = true;
            }
            if !any {
                return Err(ParseError::BadLine("get needs at least one key"));
            }
            Ok((Request::Get { keys }, consumed))
        }
        b"set" | b"add" | b"replace" => {
            let sv = match verb {
                b"set" => StoreVerb::Set,
                b"add" => StoreVerb::Add,
                _ => StoreVerb::Replace,
            };
            let key = parts.next().ok_or(ParseError::BadLine("missing key"))?;
            if !valid_key(key) {
                return Err(ParseError::BadKey);
            }
            let flags = parse_u64(parts.next().ok_or(ParseError::BadLine("missing flags"))?)
                .ok_or(ParseError::BadLine("bad flags"))? as u32;
            let exptime = parse_u64(parts.next().ok_or(ParseError::BadLine("missing exptime"))?)
                .ok_or(ParseError::BadLine("bad exptime"))?;
            let bytes = parse_u64(parts.next().ok_or(ParseError::BadLine("missing bytes"))?)
                .ok_or(ParseError::BadLine("bad byte count"))? as usize;
            let noreply = matches!(parts.next(), Some(b"noreply"));
            // The data block: <bytes> bytes followed by CRLF.
            if input.len() < consumed + bytes + 2 {
                return Err(ParseError::Incomplete);
            }
            let data = &input[consumed..consumed + bytes];
            if &input[consumed + bytes..consumed + bytes + 2] != b"\r\n" {
                return Err(ParseError::BadLine("bad data chunk"));
            }
            consumed += bytes + 2;
            Ok((
                Request::Store {
                    verb: sv,
                    key,
                    flags,
                    exptime,
                    data,
                    noreply,
                },
                consumed,
            ))
        }
        b"delete" => {
            let key = parts.next().ok_or(ParseError::BadLine("missing key"))?;
            if !valid_key(key) {
                return Err(ParseError::BadKey);
            }
            let noreply = matches!(parts.next(), Some(b"noreply"));
            Ok((Request::Delete { key, noreply }, consumed))
        }
        b"incr" | b"decr" => {
            let key = parts.next().ok_or(ParseError::BadLine("missing key"))?;
            if !valid_key(key) {
                return Err(ParseError::BadKey);
            }
            let delta = parse_u64(parts.next().ok_or(ParseError::BadLine("missing delta"))?)
                .ok_or(ParseError::BadLine("bad delta"))?;
            let noreply = matches!(parts.next(), Some(b"noreply"));
            Ok((
                Request::Arith {
                    key,
                    delta,
                    increment: verb == b"incr",
                    noreply,
                },
                consumed,
            ))
        }
        b"flush_all" => Ok((Request::FlushAll, consumed)),
        b"version" => Ok((Request::Version, consumed)),
        b"stats" => Ok((Request::Stats, consumed)),
        b"trace" => {
            let token = parts
                .next()
                .ok_or(ParseError::BadLine("missing trace token"))?;
            Ok((Request::Trace { token }, consumed))
        }
        _ => Err(ParseError::UnknownCommand),
    }
}

pub(crate) fn find_crlf(input: &[u8]) -> Option<usize> {
    input.windows(2).position(|w| w == b"\r\n")
}

fn parse_u64(b: &[u8]) -> Option<u64> {
    std::str::from_utf8(b).ok()?.parse().ok()
}

/// Wire format of a stored value: 4-byte big-endian flags then the data,
/// built straight into the store's value type: one allocation and one
/// copy of `data` (none at all when the value fits inline). (Flags are
/// opaque to memcached but must round-trip.)
///
/// Public because the replication shipper and the warm-up pump read raw
/// store values and must re-frame them as protocol `set`s (see
/// [`crate::replication`]).
pub fn encode_value(flags: u32, data: &[u8]) -> Bytes {
    Bytes::from_parts(&flags.to_be_bytes(), data)
}

/// Splits a raw stored value into its client flags and data payload; `None`
/// when the value was stored without the protocol's flag prefix (a direct
/// [`Store`] write).
pub(crate) fn decode_value(raw: &[u8]) -> Option<(u32, &[u8])> {
    if raw.len() < 4 {
        return None;
    }
    let flags = u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]);
    Some((flags, &raw[4..]))
}

/// Decimal digits of a `u64` rendered into a stack buffer (the response
/// writer's allocation-free integer formatter).
struct U64Digits {
    buf: [u8; 20],
    start: usize,
}

impl U64Digits {
    fn new(mut v: u64) -> Self {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        Self { buf, start: i }
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(U64Digits::new(v).as_slice());
}

/// Appends one `VALUE <key> <flags> <len>\r\n<data>\r\n` block.
fn write_value_line(out: &mut Vec<u8>, key: &[u8], flags: u32, data: &[u8]) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    out.push(b' ');
    write_u64(out, flags as u64);
    out.push(b' ');
    write_u64(out, data.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Appends the wire rendering of a parse error (matches the `Display`
/// impl followed by CRLF, without allocating).
fn write_parse_error(out: &mut Vec<u8>, e: &ParseError) {
    match e {
        ParseError::UnknownCommand => out.extend_from_slice(b"ERROR\r\n"),
        ParseError::BadLine(m) => {
            out.extend_from_slice(b"CLIENT_ERROR ");
            out.extend_from_slice(m.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        ParseError::BadKey => out.extend_from_slice(b"CLIENT_ERROR bad key\r\n"),
        ParseError::Incomplete => out.extend_from_slice(b"CLIENT_ERROR incomplete request\r\n"),
    }
}

/// Memcached exptime semantics: 0 never expires, values up to 30 days are
/// relative TTLs, larger values are absolute Unix timestamps (converted
/// against the logical clock; an already-past timestamp yields a zero
/// TTL, i.e. immediately expired).
fn ttl_from_exptime(exptime: u64, now: u64) -> Option<u64> {
    match exptime {
        0 => None,
        e if e > EXPTIME_ABSOLUTE_CUTOFF => Some(e.saturating_sub(now)),
        e => Some(e),
    }
}

/// Appends one `STAT <name> <value>\r\n` line with an `f64` value.
/// Non-finite values render as `0` so the output stays parseable.
fn write_stat_f64(out: &mut Vec<u8>, name: &str, suffix: &str, v: f64) {
    out.extend_from_slice(b"STAT ");
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(suffix.as_bytes());
    out.push(b' ');
    if !v.is_finite() || v == 0.0 {
        // Non-finite renders as 0; `v == 0.0` also catches -0.0, which
        // would otherwise print as "-0".
        out.push(b'0');
    } else {
        out.extend_from_slice(format!("{v}").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
}

/// Appends the obs-registry series as `STAT` lines: counters and gauges
/// verbatim, histograms as `_count`/`_mean`/`_p50`/`_p95`/`_p99`/`_max`
/// summaries. Name-ordered (the registry enumerates deterministically).
fn write_registry_stats(out: &mut Vec<u8>, obs: &Obs) {
    for (name, metric) in obs.registry().metrics() {
        match metric {
            spotcache_obs::Metric::Counter(c) => {
                out.extend_from_slice(b"STAT ");
                out.extend_from_slice(name.as_bytes());
                out.push(b' ');
                write_u64(out, c.get());
                out.extend_from_slice(b"\r\n");
            }
            spotcache_obs::Metric::Gauge(g) => {
                write_stat_f64(out, &name, "", g.get());
            }
            spotcache_obs::Metric::Histogram(h) => {
                out.extend_from_slice(b"STAT ");
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(b"_count ");
                write_u64(out, h.count());
                out.extend_from_slice(b"\r\n");
                write_stat_f64(out, &name, "_mean", h.mean());
                write_stat_f64(out, &name, "_p50", h.quantile(0.50));
                write_stat_f64(out, &name, "_p95", h.quantile(0.95));
                write_stat_f64(out, &name, "_p99", h.quantile(0.99));
                write_stat_f64(out, &name, "_max", h.max());
            }
        }
    }
}

/// Executes a single non-`get` request, appending its response to `out`.
/// (`get`s are executed in batches and `trace` lines consumed by the
/// serving loop.) `obs` extends the `stats` response with the registry's
/// series. Returns the command's class for [`ProtocolObs::record`].
fn exec_mutation(
    store: &Store,
    req: &Request<'_>,
    now: u64,
    obs: Option<&ProtocolObs>,
    out: &mut Vec<u8>,
) -> &'static str {
    match *req {
        Request::Get { .. } | Request::Trace { .. } => {
            unreachable!("serve_loop batches gets and consumes trace lines itself")
        }
        Request::Store {
            verb,
            key,
            flags,
            exptime,
            data,
            noreply,
        } => {
            let policy = match verb {
                StoreVerb::Set => SetPolicy::Always,
                StoreVerb::Add => SetPolicy::IfAbsent,
                StoreVerb::Replace => SetPolicy::IfPresent,
            };
            // Presence check and insertion happen under one shard lock.
            let outcome = store.set_policy_at(
                Bytes::copy_from_slice(key),
                encode_value(flags, data),
                now,
                ttl_from_exptime(exptime, now),
                policy,
            );
            if !noreply {
                out.extend_from_slice(match outcome {
                    SetOutcome::Stored => b"STORED\r\n".as_ref(),
                    SetOutcome::NotStored => b"NOT_STORED\r\n".as_ref(),
                    // An over-budget item is rejected by the store; surface
                    // that as memcached's SERVER_ERROR.
                    SetOutcome::TooLarge => b"SERVER_ERROR object too large for cache\r\n".as_ref(),
                });
            }
            "store"
        }
        Request::Delete { key, noreply } => {
            // TTL-aware: deleting an expired-but-unreaped item purges it
            // but answers NOT_FOUND, like memcached.
            let found = store.delete_at(key, now);
            if !noreply {
                out.extend_from_slice(if found {
                    b"DELETED\r\n".as_ref()
                } else {
                    b"NOT_FOUND\r\n".as_ref()
                });
            }
            "delete"
        }
        Request::Arith {
            key,
            delta,
            increment,
            noreply,
        } => {
            // Read, rewrite and re-file under one shard lock: concurrent
            // `incr`s cannot both read *n*, and the item keeps its exptime.
            let mut digits = None;
            let outcome = store.update_at(key, now, |raw| {
                let (flags, data) = decode_value(raw)?;
                let value: u64 = std::str::from_utf8(data).ok()?.trim().parse().ok()?;
                let d = digits.insert(U64Digits::new(if increment {
                    value.wrapping_add(delta)
                } else {
                    value.saturating_sub(delta)
                }));
                Some(encode_value(flags, d.as_slice()))
            });
            if !noreply {
                match (outcome, &digits) {
                    (Some(SetOutcome::Stored), Some(d)) => {
                        out.extend_from_slice(d.as_slice());
                        out.extend_from_slice(b"\r\n");
                    }
                    (Some(SetOutcome::TooLarge), _) => {
                        out.extend_from_slice(b"SERVER_ERROR object too large for cache\r\n")
                    }
                    (Some(_), _) => out.extend_from_slice(
                        b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n",
                    ),
                    (None, _) => out.extend_from_slice(b"NOT_FOUND\r\n"),
                }
            }
            "arith"
        }
        Request::FlushAll => {
            store.clear();
            out.extend_from_slice(b"OK\r\n");
            "other"
        }
        Request::Version => {
            out.extend_from_slice(b"VERSION spotcache-1.0\r\n");
            "other"
        }
        Request::Stats => {
            // One sweep over the shard locks for every aggregate field;
            // TTL-aware at `now`, so expired-but-unreaped items don't
            // inflate `curr_items`/`bytes` (and pending touches flush).
            let snap = store.snapshot_at(now);
            for (k, v) in [
                ("get_hits", snap.stats.hits),
                ("get_misses", snap.stats.misses),
                ("evictions", snap.stats.evictions),
                ("cmd_set", snap.stats.sets),
                ("expired_unfetched", snap.stats.expirations),
                ("curr_items", snap.items as u64),
                ("bytes", snap.used_bytes as u64),
            ] {
                out.extend_from_slice(b"STAT ");
                out.extend_from_slice(k.as_bytes());
                out.push(b' ');
                write_u64(out, v);
                out.extend_from_slice(b"\r\n");
            }
            if let Some(po) = obs {
                write_registry_stats(out, po.bundle());
            }
            out.extend_from_slice(b"END\r\n");
            "other"
        }
    }
}

/// Per-operation recording handles for the protocol layer.
///
/// One instance is shared by every connection of a server (the handles
/// are atomic, so recording needs no lock). Latencies are wall-clock
/// service durations in microseconds; journal timestamps are the caller's
/// logical `now`, keeping event streams replayable.
pub struct ProtocolObs {
    obs: Arc<Obs>,
    get: Counter,
    store: Counter,
    delete: Counter,
    arith: Counter,
    other: Counter,
    hits: Counter,
    misses: Counter,
    parse_errors: Counter,
    latency_us: Histogram,
    /// Per-request stage attribution: where inside the data plane a
    /// request's latency went. The protocol layer records parse / shard
    /// lock / execute / serialize; the server layer records the epoll
    /// readiness gap and the read/write syscall stages (hence
    /// `pub(crate)`).
    stage_parse_us: Histogram,
    stage_lock_us: Histogram,
    stage_execute_us: Histogram,
    stage_serialize_us: Histogram,
    pub(crate) stage_ready_us: Histogram,
    pub(crate) stage_read_us: Histogram,
    pub(crate) stage_write_us: Histogram,
}

impl ProtocolObs {
    /// Registers the `cache_*` and `stage_*` series in `obs` and returns
    /// the handles.
    pub fn new(obs: Arc<Obs>) -> Self {
        Self {
            get: obs.counter("cache_get_total"),
            store: obs.counter("cache_store_total"),
            delete: obs.counter("cache_delete_total"),
            arith: obs.counter("cache_arith_total"),
            other: obs.counter("cache_other_total"),
            hits: obs.counter("cache_get_hits_total"),
            misses: obs.counter("cache_get_misses_total"),
            parse_errors: obs.counter("cache_parse_errors_total"),
            latency_us: obs.histogram("cache_op_latency_us"),
            stage_parse_us: obs.histogram("stage_parse_us"),
            stage_lock_us: obs.histogram("stage_lock_us"),
            stage_execute_us: obs.histogram("stage_execute_us"),
            stage_serialize_us: obs.histogram("stage_serialize_us"),
            stage_ready_us: obs.histogram("stage_ready_us"),
            stage_read_us: obs.histogram("stage_read_us"),
            stage_write_us: obs.histogram("stage_write_us"),
            obs,
        }
    }

    /// The underlying bundle (for snapshotting).
    pub(crate) fn bundle(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Counts one served command of class `op` and its service latency.
    /// Deliberately no journal event: per-op data lives in these
    /// counters and the histogram, and the bounded journal is kept for
    /// the rare events (revocations, bids, warm-up) an operator opens
    /// `/journal` to find.
    fn record(&self, op: &'static str, latency_us: f64) {
        let counter = match op {
            "get" => &self.get,
            "store" => &self.store,
            "delete" => &self.delete,
            "arith" => &self.arith,
            _ => &self.other,
        };
        counter.inc();
        self.latency_us.record(latency_us);
    }
}

/// Reusable per-thread scratch for the pipelined serving loop: pending
/// `get` key ranges, per-command key counts and hit counts. Kept
/// thread-local so steady-state serving allocates nothing.
#[derive(Default)]
struct ServeScratch {
    /// `(offset, len)` of each pending get key, relative to the input.
    key_ranges: Vec<(usize, usize)>,
    /// Number of keys per pending `get` command, in order.
    cmd_keys: Vec<usize>,
    /// Per-command hit counts of the last flushed batch.
    cmd_hits: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<ServeScratch> = RefCell::new(ServeScratch::default());
}

/// Flushes the pending pipelined `get` batch: one [`Store::get_many_with`]
/// pass under the batch's shard locks that visits the keys in input order,
/// so each hit's `VALUE` line and each command's `END` are written straight
/// into `out` as the pass reaches them.
fn flush_gets(
    store: &Store,
    input: &[u8],
    scratch: &mut ServeScratch,
    now: u64,
    obs: Option<&ProtocolObs>,
    tracer: Option<&Tracer>,
    out: &mut Vec<u8>,
) {
    if scratch.cmd_keys.is_empty() {
        return;
    }
    let _batch_span = maybe_span(tracer, "protocol", "get_batch");
    let start = obs.map(|_| Instant::now());
    {
        let _lookup_span = maybe_span(tracer, "protocol", "store_lookup");
        let ServeScratch {
            key_ranges,
            cmd_keys,
            cmd_hits,
        } = &mut *scratch;
        cmd_hits.clear();
        let mut sizes = cmd_keys.iter().copied();
        let (mut left, mut hits) = (sizes.next().unwrap_or(0), 0);
        let key = |i: usize| &input[key_ranges[i].0..key_ranges[i].0 + key_ranges[i].1];
        store.get_many_with((0..key_ranges.len()).map(key), now, |i, hit| {
            if let Some((flags, data)) = hit.and_then(decode_value) {
                write_value_line(out, key(i), flags, data);
                hits += 1;
            }
            left -= 1;
            if left == 0 {
                out.extend_from_slice(b"END\r\n");
                cmd_hits.push(hits);
                (left, hits) = (sizes.next().unwrap_or(0), 0);
            }
        });
    }
    let serialize_start = obs.map(|_| Instant::now());
    if let (Some(po), Some(t0)) = (obs, start) {
        // Batch start to the locks' release: the shard-lock stage of the
        // request's latency attribution, lookups and serialisation both.
        po.stage_lock_us.record(t0.elapsed().as_secs_f64() * 1e6);
    }
    let serialize_span = maybe_span(tracer, "protocol", "serialize");
    if let (Some(po), Some(start)) = (obs, start) {
        // The batch is timed as a unit; each command is attributed an
        // equal share so latency sums stay meaningful.
        let share = start.elapsed().as_secs_f64() * 1e6 / scratch.cmd_keys.len() as f64;
        for (&nk, &hits) in scratch.cmd_keys.iter().zip(&scratch.cmd_hits) {
            po.hits.add(hits as u64);
            po.misses.add((nk - hits) as u64);
            po.record("get", share);
        }
    }
    scratch.key_ranges.clear();
    scratch.cmd_keys.clear();
    drop(serialize_span);
    if let (Some(po), Some(t0)) = (obs, serialize_start) {
        po.stage_serialize_us
            .record(t0.elapsed().as_secs_f64() * 1e6);
    }
}

/// Decodes and installs a propagated trace context when tracing is live.
/// Returns whether a context was installed (so the caller clears it when
/// the batch ends instead of leaking it to the next connection served by
/// this thread).
#[inline]
fn adopt_trace_context(tracer: Option<&Tracer>, token: &[u8]) -> bool {
    if !tracer.is_some_and(|t| t.is_enabled()) {
        return false;
    }
    match TraceContext::decode(token) {
        Some(ctx) => {
            spotcache_obs::trace::set_thread_context(Some(ctx));
            true
        }
        None => false,
    }
}

fn serve_loop(
    store: &Store,
    input: &[u8],
    now: u64,
    obs: Option<&ProtocolObs>,
    tracer: Option<&Tracer>,
    out: &mut Vec<u8>,
    scratch: &mut ServeScratch,
) -> usize {
    let mut consumed = 0;
    let mut ctx_installed = false;
    // A propagated `trace <token>` prefix must be applied *before* the
    // root span opens: only depth-0 spans consult the ambient context, so
    // adopting it below the root would orphan the whole serve tree.
    while input[consumed..].starts_with(b"trace ") {
        match parse_request(&input[consumed..]) {
            Ok((Request::Trace { token }, n)) => {
                ctx_installed |= adopt_trace_context(tracer, token);
                consumed += n;
            }
            _ => break,
        }
    }
    let _serve_span = maybe_span(tracer, "protocol", "serve");
    while consumed < input.len() {
        let parse_span = maybe_span(tracer, "protocol", "parse");
        let parse_start = obs.map(|_| Instant::now());
        let parsed = parse_request(&input[consumed..]);
        if let (Some(po), Some(t0)) = (obs, parse_start) {
            po.stage_parse_us.record(t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(parse_span);
        match parsed {
            Ok((Request::Trace { token }, n)) => {
                // Mid-batch context line: applies to spans opened from
                // here on. No response bytes, not counted as an op.
                ctx_installed |= adopt_trace_context(tracer, token);
                consumed += n;
            }
            Ok((Request::Get { keys }, n)) => {
                // Defer: consecutive gets execute as one store batch.
                let mut nk = 0;
                for k in request_keys(keys) {
                    let off = k.as_ptr() as usize - input.as_ptr() as usize;
                    scratch.key_ranges.push((off, k.len()));
                    nk += 1;
                }
                scratch.cmd_keys.push(nk);
                consumed += n;
            }
            Ok((req, n)) => {
                flush_gets(store, input, scratch, now, obs, tracer, out);
                let _exec_span = maybe_span(tracer, "protocol", "execute");
                let start = obs.map(|_| Instant::now());
                let op = exec_mutation(store, &req, now, obs, out);
                if let (Some(po), Some(start)) = (obs, start) {
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    po.stage_execute_us.record(us);
                    po.record(op, us);
                }
                consumed += n;
            }
            Err(ParseError::Incomplete) => break,
            Err(e) => {
                flush_gets(store, input, scratch, now, obs, tracer, out);
                if let Some(po) = obs {
                    po.parse_errors.inc();
                }
                write_parse_error(out, &e);
                // Skip the offending line to resynchronize.
                match find_crlf(&input[consumed..]) {
                    Some(end) => consumed += end + 2,
                    None => break,
                }
            }
        }
    }
    flush_gets(store, input, scratch, now, obs, tracer, out);
    if ctx_installed {
        // Worker threads serve many connections; a propagated context
        // must not outlive the batch that carried it.
        spotcache_obs::trace::set_thread_context(None);
    }
    consumed
}

/// Parses and executes everything in `input`, returning the concatenated
/// responses and the bytes consumed — one call of a server's read loop.
pub fn serve(store: &Store, input: &[u8], now: u64) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let consumed = serve_into(store, input, now, &mut out);
    (out, consumed)
}

/// [`serve`], appending responses to a caller-owned buffer (the buffer is
/// not cleared, so a connection can keep unflushed output in it).
pub fn serve_into(store: &Store, input: &[u8], now: u64, out: &mut Vec<u8>) -> usize {
    serve_instrumented_into(store, input, now, None, None, out)
}

/// The full serving entry point: pipelined batch execution into a
/// caller-owned output buffer. Returns the bytes consumed; everything
/// after that is an incomplete trailing command the caller should retain
/// and retry with more input.
///
/// `obs` records per-op counters, latency and stage histograms (no
/// journal events); `tracer` records `protocol.*` spans. The two are
/// independent and neither changes the wire output. With `obs` `None` and
/// `tracer` disabled (or `None`) this is the [`serve_into`] hot path and
/// performs **zero heap allocations** per op in steady state —
/// `tests/zero_alloc.rs` proves it with a counting allocator.
pub fn serve_instrumented_into(
    store: &Store,
    input: &[u8],
    now: u64,
    obs: Option<&ProtocolObs>,
    tracer: Option<&Tracer>,
    out: &mut Vec<u8>,
) -> usize {
    let mut scratch = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let consumed = serve_loop(store, input, now, obs, tracer, out, &mut scratch);
    SCRATCH.with(|s| *s.borrow_mut() = scratch);
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::with_capacity(1 << 20)
    }

    fn run(s: &Store, req: &str) -> String {
        let (out, consumed) = serve(s, req.as_bytes(), 0);
        assert_eq!(consumed, req.len(), "whole request consumed");
        String::from_utf8(out).unwrap()
    }

    fn run_observed(s: &Store, input: &[u8], now: u64, po: &ProtocolObs) -> (Vec<u8>, usize) {
        let mut out = Vec::new();
        let consumed = serve_instrumented_into(s, input, now, Some(po), None, &mut out);
        (out, consumed)
    }

    #[test]
    fn set_then_get_roundtrip() {
        let s = store();
        assert_eq!(run(&s, "set foo 42 0 5\r\nhello\r\n"), "STORED\r\n");
        assert_eq!(run(&s, "get foo\r\n"), "VALUE foo 42 5\r\nhello\r\nEND\r\n");
    }

    #[test]
    fn get_multiple_keys_skips_missing() {
        let s = store();
        run(&s, "set a 0 0 1\r\nx\r\n");
        run(&s, "set c 0 0 1\r\ny\r\n");
        let out = run(&s, "get a b c\r\n");
        assert_eq!(out, "VALUE a 0 1\r\nx\r\nVALUE c 0 1\r\ny\r\nEND\r\n");
    }

    #[test]
    fn add_and_replace_semantics() {
        let s = store();
        assert_eq!(run(&s, "replace k 0 0 1\r\na\r\n"), "NOT_STORED\r\n");
        assert_eq!(run(&s, "add k 0 0 1\r\na\r\n"), "STORED\r\n");
        assert_eq!(run(&s, "add k 0 0 1\r\nb\r\n"), "NOT_STORED\r\n");
        assert_eq!(run(&s, "replace k 0 0 1\r\nc\r\n"), "STORED\r\n");
        assert_eq!(run(&s, "get k\r\n"), "VALUE k 0 1\r\nc\r\nEND\r\n");
    }

    #[test]
    fn delete_semantics() {
        let s = store();
        run(&s, "set k 0 0 1\r\nv\r\n");
        assert_eq!(run(&s, "delete k\r\n"), "DELETED\r\n");
        assert_eq!(run(&s, "delete k\r\n"), "NOT_FOUND\r\n");
    }

    #[test]
    fn incr_decr() {
        let s = store();
        run(&s, "set n 7 0 2\r\n10\r\n");
        assert_eq!(run(&s, "incr n 5\r\n"), "15\r\n");
        assert_eq!(run(&s, "decr n 20\r\n"), "0\r\n"); // saturates at 0
        assert_eq!(run(&s, "incr missing 1\r\n"), "NOT_FOUND\r\n");
        run(&s, "set t 0 0 3\r\nabc\r\n");
        assert!(run(&s, "incr t 1\r\n").starts_with("CLIENT_ERROR"));
        // Flags survive arithmetic.
        assert_eq!(run(&s, "get n\r\n"), "VALUE n 7 1\r\n0\r\nEND\r\n");
    }

    #[test]
    fn incr_keeps_the_exptime() {
        #[derive(Default)]
        struct Tap(parking_lot::Mutex<Vec<(Bytes, Option<u64>)>>);
        impl crate::store::MutationSink for Tap {
            fn on_set(&self, _: &Bytes, raw: &Bytes, ttl: Option<u64>) {
                self.0.lock().push((raw.clone(), ttl));
            }
            fn on_delete(&self, _: &[u8]) {}
        }
        let s = store();
        serve(&s, b"set n 3 60 2\r\n10\r\n", 100);
        let tap = Arc::new(Tap::default());
        s.set_mutation_sink(Some(tap.clone()));
        assert_eq!(serve(&s, b"incr n 1\r\n", 120).0, b"11\r\n");
        // The tap sees the rewritten value with the TTL that is left.
        assert_eq!(*tap.0.lock(), [(encode_value(3, b"11"), Some(40))]);
        assert_eq!(
            serve(&s, b"get n\r\n", 159).0,
            b"VALUE n 3 2\r\n11\r\nEND\r\n"
        );
        assert_eq!(serve(&s, b"get n\r\n", 160).0, b"END\r\n");
        // And the wheel still reaps it on time: the rewrite re-filed it.
        assert_eq!(s.flush_touches(160).expired, 1);
        assert_eq!(serve(&s, b"incr n 1\r\n", 161).0, b"NOT_FOUND\r\n");
        assert_eq!(tap.0.lock().len(), 1, "a refused incr taps nothing");
    }

    #[test]
    fn concurrent_incrs_lose_no_increment() {
        let s = store();
        run(&s, "set n 0 0 1\r\n0\r\n");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    start.wait();
                    for _ in 0..10_000 {
                        out.clear();
                        serve_into(&s, b"incr n 1\r\n", 0, &mut out);
                    }
                });
            }
        });
        assert_eq!(run(&s, "get n\r\n"), "VALUE n 0 5\r\n20000\r\nEND\r\n");
    }

    #[test]
    fn expiry_via_logical_clock() {
        let s = store();
        let (out, _) = serve(&s, b"set k 0 60 1\r\nv\r\n", 100);
        assert_eq!(out, b"STORED\r\n");
        let (out, _) = serve(&s, b"get k\r\n", 150);
        assert!(String::from_utf8(out).unwrap().starts_with("VALUE"));
        let (out, _) = serve(&s, b"get k\r\n", 161);
        assert_eq!(out, b"END\r\n");
    }

    #[test]
    fn relative_exptime_at_the_cutoff_is_still_relative() {
        // Exactly 30 days (2 592 000 s) is the largest relative TTL.
        let s = store();
        let now = 1_700_000_000; // a plausible "wall clock" logical time
        let req = format!("set k 0 {EXPTIME_ABSOLUTE_CUTOFF} 1\r\nv\r\n");
        let (out, _) = serve(&s, req.as_bytes(), now);
        assert_eq!(out, b"STORED\r\n");
        let (out, _) = serve(&s, b"get k\r\n", now + EXPTIME_ABSOLUTE_CUTOFF - 1);
        assert!(String::from_utf8(out).unwrap().starts_with("VALUE"));
        let (out, _) = serve(&s, b"get k\r\n", now + EXPTIME_ABSOLUTE_CUTOFF);
        assert_eq!(out, b"END\r\n");
    }

    #[test]
    fn absolute_exptime_expires_at_that_timestamp() {
        // Above the cutoff the value is an absolute Unix timestamp, NOT
        // a TTL of 1.7 billion seconds.
        let s = store();
        let now = 1_700_000_000u64;
        let expiry = now + 60;
        let (out, _) = serve(&s, format!("set k 0 {expiry} 1\r\nv\r\n").as_bytes(), now);
        assert_eq!(out, b"STORED\r\n");
        let (out, _) = serve(&s, b"get k\r\n", expiry - 1);
        assert!(String::from_utf8(out).unwrap().starts_with("VALUE"));
        let (out, _) = serve(&s, b"get k\r\n", expiry);
        assert_eq!(out, b"END\r\n");
    }

    #[test]
    fn already_expired_absolute_exptime_never_serves() {
        let s = store();
        let now = 1_700_000_000u64;
        let past = now - 3_600; // still > the 30-day cutoff
        assert!(past > EXPTIME_ABSOLUTE_CUTOFF);
        let (out, _) = serve(&s, format!("set k 0 {past} 1\r\nv\r\n").as_bytes(), now);
        assert_eq!(out, b"STORED\r\n");
        let (out, _) = serve(&s, b"get k\r\n", now);
        assert_eq!(out, b"END\r\n", "item stored in the past must be dead");
    }

    #[test]
    fn observed_serve_counts_ops_hits_and_errors() {
        let s = store();
        let obs = Arc::new(Obs::new());
        let po = ProtocolObs::new(Arc::clone(&obs));
        let input = b"set a 0 0 1\r\nx\r\nget a b\r\ndelete a\r\nbogus\r\n";
        let (_, consumed) = run_observed(&s, input, 7, &po);
        assert_eq!(consumed, input.len());
        assert_eq!(obs.counter("cache_store_total").get(), 1);
        assert_eq!(obs.counter("cache_get_total").get(), 1);
        assert_eq!(obs.counter("cache_delete_total").get(), 1);
        assert_eq!(obs.counter("cache_get_hits_total").get(), 1);
        assert_eq!(obs.counter("cache_get_misses_total").get(), 1);
        assert_eq!(obs.counter("cache_parse_errors_total").get(), 1);
        assert_eq!(obs.histogram("cache_op_latency_us").count(), 3);
        assert!(obs.journal().is_empty(), "ops never enter the journal");
    }

    #[test]
    fn observed_ops_do_not_evict_journal_events() {
        let s = store();
        let obs = Arc::new(Obs::new());
        let po = ProtocolObs::new(Arc::clone(&obs));
        obs.event(
            3,
            spotcache_obs::EventKind::Revocation {
                label: "m4.large".into(),
                count: 1,
                warned: false,
            },
        );
        run_observed(&s, b"set k 0 0 1\r\nv\r\n", 4, &po);
        // More gets than the journal holds, one command each.
        let gets = b"get k\r\n".repeat(10_000);
        let (_, consumed) = run_observed(&s, &gets, 5, &po);
        assert_eq!(consumed, gets.len());
        let events = obs.journal().events();
        assert_eq!(events.len(), 1, "only the revocation");
        assert_eq!(events[0].kind.tag(), "revocation");
        assert_eq!(obs.counter("journal_dropped_total").get(), 0);
        assert_eq!(obs.counter("cache_get_total").get(), 10_000);
        assert_eq!(obs.counter("cache_get_hits_total").get(), 10_000);
        assert_eq!(obs.histogram("cache_op_latency_us").count(), 10_001);
    }

    #[test]
    fn stats_reports_obs_registry_metrics_and_stays_parseable() {
        let s = store();
        let obs = Arc::new(Obs::new());
        obs.gauge("node_price").set(-0.0); // normalization exercised
        obs.gauge("bad_gauge").set(f64::NAN);
        let po = ProtocolObs::new(Arc::clone(&obs));
        // Drive some traffic so the cache_* series have values.
        run_observed(&s, b"set a 0 0 1\r\nx\r\nget a\r\nget zz\r\n", 0, &po);
        let (out, _) = run_observed(&s, b"stats\r\n", 0, &po);
        let text = String::from_utf8(out).unwrap();
        // Every line is `STAT <name> <value>` (value parses as f64) until
        // the END terminator — the memcached stats contract.
        let mut lines = text.split("\r\n").filter(|l| !l.is_empty()).peekable();
        let mut n = 0;
        while let Some(line) = lines.next() {
            if lines.peek().is_none() {
                assert_eq!(line, "END");
                break;
            }
            let mut parts = line.splitn(3, ' ');
            assert_eq!(parts.next(), Some("STAT"), "line {line:?}");
            assert!(parts.next().is_some(), "line {line:?}");
            let value = parts.next().expect("value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
            n += 1;
        }
        // Store snapshot fields plus registry series.
        assert!(n > 7, "expected registry stats beyond the store's 7 fields");
        assert!(text.contains("STAT cache_get_total 2"));
        assert!(text.contains("STAT cache_get_hits_total 1"));
        assert!(text.contains("STAT cache_op_latency_us_count 3"));
        assert!(text.contains("STAT cache_op_latency_us_p95 "));
        assert!(
            text.contains("STAT node_price 0\r\n"),
            "negative zero normalized"
        );
        assert!(text.contains("STAT bad_gauge 0\r\n"), "NaN rendered as 0");
        // The un-observed path still returns the plain snapshot.
        let plain = run(&s, "stats\r\n");
        assert!(!plain.contains("cache_get_total"));
    }

    #[test]
    fn traced_serve_output_is_byte_identical_and_spans_cover_the_layers() {
        let s = store();
        let s2 = store();
        let tracer = spotcache_obs::Tracer::all(1024);
        let input: &[u8] = b"set a 0 0 1\r\nx\r\nget a\r\nget a missing\r\ndelete a\r\nbogus\r\n";
        let mut traced = Vec::new();
        let mut plain = Vec::new();
        let n1 = serve_instrumented_into(&s, input, 0, None, Some(&tracer), &mut traced);
        let n2 = serve_into(&s2, input, 0, &mut plain);
        assert_eq!(n1, n2);
        assert_eq!(traced, plain, "tracing must not perturb wire output");
        let names: std::collections::BTreeSet<&'static str> =
            tracer.spans().iter().map(|r| r.name).collect();
        for expect in [
            "serve",
            "parse",
            "get_batch",
            "store_lookup",
            "serialize",
            "execute",
        ] {
            assert!(names.contains(expect), "missing span {expect:?}: {names:?}");
        }
        assert!(tracer.spans().iter().all(|r| r.cat == "protocol"));
        spotcache_obs::export::validate_json(&tracer.chrome_trace_json()).unwrap();
    }

    #[test]
    fn noreply_suppresses_output() {
        let s = store();
        assert_eq!(run(&s, "set k 0 0 1 noreply\r\nv\r\n"), "");
        assert_eq!(run(&s, "delete k noreply\r\n"), "");
        assert_eq!(run(&s, "delete k noreply\r\n"), "");
    }

    #[test]
    fn flush_version_stats() {
        let s = store();
        run(&s, "set k 0 0 1\r\nv\r\n");
        assert_eq!(run(&s, "flush_all\r\n"), "OK\r\n");
        assert_eq!(run(&s, "get k\r\n"), "END\r\n");
        assert!(run(&s, "version\r\n").starts_with("VERSION"));
        let stats = run(&s, "stats\r\n");
        assert!(stats.contains("STAT cmd_set 1"));
        assert!(stats.ends_with("END\r\n"));
    }

    #[test]
    fn pipelined_commands_in_one_buffer() {
        let s = store();
        let out = run(&s, "set a 0 0 1\r\nx\r\nget a\r\ndelete a\r\n");
        assert_eq!(out, "STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\nDELETED\r\n");
    }

    #[test]
    fn pipelined_get_batch_preserves_command_order() {
        // A run of consecutive gets executes as one store batch but the
        // responses come back in command order, byte-identical to
        // sequential execution.
        let s = store();
        run(&s, "set a 1 0 1\r\nx\r\nset b 2 0 2\r\nyy\r\n");
        let out = run(&s, "get a\r\nget missing\r\nget b a\r\nget b\r\n");
        assert_eq!(
            out,
            "VALUE a 1 1\r\nx\r\nEND\r\nEND\r\nVALUE b 2 2\r\nyy\r\nVALUE a 1 1\r\nx\r\nEND\r\nVALUE b 2 2\r\nyy\r\nEND\r\n"
        );
        // A mutation between gets splits the batch at the right point.
        let out = run(&s, "get a\r\ndelete a\r\nget a\r\n");
        assert_eq!(out, "VALUE a 1 1\r\nx\r\nEND\r\nDELETED\r\nEND\r\n");
    }

    #[test]
    fn a_key_named_twice_is_served_twice_and_bumped_once() {
        let s = store();
        run(&s, "set a 1 0 1\r\nx\r\nset b 2 0 1\r\ny\r\n");
        assert_eq!(
            run(&s, "get a b a\r\nget a\r\n"),
            "VALUE a 1 1\r\nx\r\nVALUE b 2 1\r\ny\r\nVALUE a 1 1\r\nx\r\nEND\r\nVALUE a 1 1\r\nx\r\nEND\r\n"
        );
        let rep = s.flush_touches(0);
        assert_eq!((rep.drained, rep.applied), (2, 2), "one record per key");
        assert_eq!(s.stats().hits, 4);
    }

    #[test]
    fn a_burst_of_large_values_round_trips() {
        // Eight pipelined gets over 1 MiB values serve 8 MiB in one batch,
        // written straight into the reply: the bytes a value-by-value
        // writer produces.
        let s = Store::with_capacity(64 << 20);
        let value = |i: usize| vec![b'a' + i as u8; 1 << 20];
        let (mut gets, mut want) = (Vec::new(), Vec::new());
        for i in 0..8 {
            let mut set = format!("set big{i} {i} 0 {}\r\n", 1 << 20).into_bytes();
            set.extend_from_slice(&value(i));
            set.extend_from_slice(b"\r\n");
            assert_eq!(serve(&s, &set, 0).0, b"STORED\r\n");
            gets.extend_from_slice(format!("get big{i} nothing\r\n").as_bytes());
            write_value_line(&mut want, format!("big{i}").as_bytes(), i as u32, &value(i));
            want.extend_from_slice(b"END\r\n");
        }
        let (out, consumed) = serve(&s, &gets, 0);
        assert_eq!(consumed, gets.len());
        assert!(out == want, "large values must round-trip byte for byte");
        // Small values afterwards are served as before.
        run(&s, "set k 0 0 1\r\nv\r\n");
        assert_eq!(run(&s, "get k\r\n"), "VALUE k 0 1\r\nv\r\nEND\r\n");
    }

    #[test]
    fn serve_into_appends_to_existing_buffer() {
        let s = store();
        run(&s, "set k 0 0 1\r\nv\r\n");
        let mut out = b"unflushed:".to_vec();
        let consumed = serve_into(&s, b"get k\r\n", 0, &mut out);
        assert_eq!(consumed, 7);
        assert_eq!(out, b"unflushed:VALUE k 0 1\r\nv\r\nEND\r\n");
    }

    #[test]
    fn incomplete_input_waits_for_more() {
        let s = store();
        let (out, consumed) = serve(&s, b"set k 0 0 10\r\npart", 0);
        assert!(out.is_empty());
        assert_eq!(consumed, 0);
        let (out, consumed) = serve(&s, b"get k\r\nget ", 0);
        assert_eq!(out, b"END\r\n");
        assert_eq!(consumed, 7);
    }

    #[test]
    fn errors_resynchronize() {
        let s = store();
        let out = run(&s, "bogus\r\nget missing\r\n");
        assert_eq!(out, "ERROR\r\nEND\r\n");
        let out = run(&s, "set onlykey\r\n");
        assert!(out.starts_with("CLIENT_ERROR"));
    }

    #[test]
    fn bad_keys_rejected() {
        let s = store();
        let long = "k".repeat(251);
        assert!(run(&s, &format!("get {long}\r\n")).starts_with("CLIENT_ERROR"));
        assert_eq!(
            parse_request(b"get \x01bad\r\n").unwrap_err(),
            ParseError::BadKey
        );
    }

    #[test]
    fn data_block_must_end_with_crlf() {
        let s = store();
        // No trailing CRLF after the declared 2 bytes: the command errors
        // and the reader resynchronizes at the next line boundary.
        let (out, consumed) = serve(&s, b"set k 0 0 2\r\nabXX", 0);
        assert!(String::from_utf8(out).unwrap().starts_with("CLIENT_ERROR"));
        assert_eq!(consumed, 13, "resynchronized past the command line");
    }

    #[test]
    fn oversized_object_reports_server_error() {
        let s = Store::with_capacity(128);
        let big = "v".repeat(500);
        let out = run(&s, &format!("set k 0 0 500\r\n{big}\r\n"));
        assert!(out.starts_with("SERVER_ERROR"), "{out}");
    }

    #[test]
    fn trace_command_is_silent_and_propagates_context() {
        let s = store();
        let tracer = spotcache_obs::Tracer::all(1024);
        let ctx = TraceContext {
            trace_id: 0x1234,
            parent_span: 0x99,
            sampled: true,
        };
        let input = format!("trace {}\r\nset a 0 0 1\r\nx\r\nget a\r\n", ctx.encode());
        let mut out = Vec::new();
        let n = serve_instrumented_into(&s, input.as_bytes(), 0, None, Some(&tracer), &mut out);
        assert_eq!(n, input.len(), "trace line fully consumed");
        assert_eq!(out, b"STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\n");
        let spans = tracer.spans();
        assert!(!spans.is_empty());
        assert!(
            spans.iter().all(|r| r.trace_id == 0x1234),
            "all spans join the propagated trace: {spans:?}"
        );
        let root = spans.iter().find(|r| r.name == "serve").unwrap();
        assert_eq!(root.parent_id, 0x99, "root parents onto the remote span");
        assert!(
            spotcache_obs::trace::thread_context().is_none(),
            "context must not leak past the serve call"
        );
    }

    #[test]
    fn trace_mid_batch_and_without_tracer_is_ignored() {
        let s = store();
        // No tracer attached: the line is consumed silently, no context
        // sticks to the thread, responses are unchanged.
        let out = run(
            &s,
            "set a 0 0 1\r\nx\r\ntrace 0000000000000001-0000000000000002-1\r\nget a\r\n",
        );
        assert_eq!(out, "STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\n");
        assert!(spotcache_obs::trace::thread_context().is_none());
        // A garbage token is consumed without erroring out the stream.
        let out = run(&s, "trace not-a-token\r\nget a\r\n");
        assert_eq!(out, "VALUE a 0 1\r\nx\r\nEND\r\n");
    }

    #[test]
    fn unsampled_context_suppresses_serve_spans() {
        let s = store();
        let tracer = spotcache_obs::Tracer::all(1024);
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 8,
            sampled: false,
        };
        let input = format!("trace {}\r\nget missing\r\n", ctx.encode());
        let mut out = Vec::new();
        serve_instrumented_into(&s, input.as_bytes(), 0, None, Some(&tracer), &mut out);
        assert_eq!(out, b"END\r\n");
        assert!(
            tracer.spans().is_empty(),
            "sampled=0 context must veto recording"
        );
    }

    #[test]
    fn observed_serve_populates_stage_histograms() {
        let s = store();
        let obs = Arc::new(Obs::new());
        let po = ProtocolObs::new(Arc::clone(&obs));
        run_observed(&s, b"set a 0 0 1\r\nx\r\nget a\r\n", 0, &po);
        assert!(obs.histogram("stage_parse_us").count() >= 2);
        assert_eq!(obs.histogram("stage_lock_us").count(), 1);
        assert_eq!(obs.histogram("stage_serialize_us").count(), 1);
        assert_eq!(obs.histogram("stage_execute_us").count(), 1);
        // The server-side stages exist (zero until a server records them).
        assert_eq!(obs.histogram("stage_ready_us").count(), 0);
        assert_eq!(obs.histogram("stage_read_us").count(), 0);
        assert_eq!(obs.histogram("stage_write_us").count(), 0);
    }

    #[test]
    fn write_u64_matches_display() {
        for v in [0u64, 1, 9, 10, 99, 12345, u64::MAX] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), v.to_string());
        }
    }
}
