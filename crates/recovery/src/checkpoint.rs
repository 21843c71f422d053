//! The `spotcache-ckpt-v1` checkpoint codec: streaming, slab-class-aware
//! full-state snapshots for revocation recovery.
//!
//! Replaying the backup's hot set (the [`replay`](crate::replay) pump)
//! repairs a replacement one acked memcached `set` at a time, paced by
//! burstable credits. The checkpoint tier takes the complementary path
//! the spot literature favors (ADR-003): on the 2-minute revocation
//! warning, burst-snapshot **full** shard state into a compact binary
//! stream, then restore the replacement by bulk-loading the stream —
//! one shard-lock acquisition per batch instead of one round trip per
//! item. The `revocation_drill` bench bin measures which side of that
//! trade wins for a given working-set size.
//!
//! # Wire format (`spotcache-ckpt-v1`)
//!
//! All integers are little-endian. The stream is written and read
//! strictly front to back — no seeking — so it can go straight to a
//! socket, a pipe, or local disk.
//!
//! ```text
//! header   := magic "SPCKPT" | version u16 (=1) | flags u32 (=0)
//!           | shard_count u32 | snapshot_now u64
//! shard    := magic "SHRD" | shard_idx u32 | record_count u64
//!           | payload_len u64 | payload | crc32(payload) u32
//! record   := key_len u32 | val_len u32 | slab_class u16
//!           | ttl u64 | key bytes | value bytes        (inside payload)
//! trailer  := magic "CKPT_END" | item_count u64
//! ```
//!
//! * Records inside a shard payload are in LRU recency order (hottest
//!   first), the same order the replay pump ships — a reader that stops
//!   early still holds the hottest prefix of every framed shard.
//! * `slab_class` is the index in [`SlabClasses::default_ladder`] that
//!   the item (key + value + [`ITEM_OVERHEAD`]) lands in, or
//!   [`NO_SLAB_CLASS`] for oversized items; it is advisory sizing
//!   metadata (per-class histograms in the reports), not required for
//!   decoding.
//! * `ttl` is the TTL *remaining at snapshot time*, or [`NO_TTL`] for
//!   items with no expiry. On restore, TTLs are re-based against the
//!   restorer's `now`, so a checkpoint is position-independent in time.
//! * Each shard payload carries its own CRC32 (IEEE); the restorer
//!   verifies the CRC **before** applying any record from the frame, so
//!   a corrupted frame can never half-apply.
//! * The trailer cross-checks the total record count; a truncated file
//!   fails with [`CkptError::Truncated`] rather than loading silently
//!   short.
//!
//! # Data path
//!
//! How long a replacement stays cold after an unwarned revocation is the
//! time this module takes, so each record is copied as few times as the
//! format allows.
//!
//! **Cut** (`Cutter`): [`Store::visit_shard_at`] walks one shard under
//! its lock and hands every live record to the encoder by reference; the
//! encoder appends it to one payload buffer reused from frame to frame.
//! The frame leaves as three writes — 24-byte head, payload, CRC — with
//! no second buffer to assemble it in. One pass from the shard to the
//! stream.
//!
//! **Load** (`Loader`): the frame's payload is read into one reused
//! buffer (the declared length, at most `MAX_PAYLOAD`, only caps the
//! read; nothing is zero-filled or allocated on its say-so). Then, in
//! this order: the CRC is verified; the whole payload is walked checking
//! every record's bounds and the absence of trailing bytes, which
//! allocates nothing beyond a reused index of where each batch starts;
//! and only a frame that passed both is decoded, `restore_batch` records
//! at a time, straight into the `Vec` handed to
//! [`Store::set_many_policy_at`], which moves keys and values into the
//! shard. Stored values are copies: nothing in the store aliases the
//! frame buffer, so eviction keeps freeing what the accounting says it
//! frees. One pass from the stream to the store.
//!
//! **Coldest first.** The wire order is hottest first, but a `set` puts
//! its item at the LRU head, so the loader applies each validated frame
//! back to front: the hottest record is stored last and the target shard
//! ends in the source's recency order. Loaded front to back, the hottest
//! item of every shard would be the first eviction victim, and a target
//! smaller than the cut would keep the coldest items.
//!
//! **If absent.** A record is stored only where the target holds no live
//! item under its key ([`SetPolicy::IfAbsent`], TTL-aware, one probe
//! under the shard lock). A replacement takes writes while it is being
//! restored; whatever it holds was acknowledged after the cut, and the
//! older copy must not replace it. The Hybrid top-up tail is exempt: it
//! ships plain `set`s over the wire like any replication batch, and a
//! tail entry can still land on a key the client has rewritten since
//! (ordering the tail against live writes needs versions the protocol
//! does not carry).
//!
//! **One frame in flight.** An unwarned restore
//! ([`RecoveryStrategy`](crate::strategy::RecoveryStrategy) with no
//! pre-cut stream) cuts a frame, loads it from the cutter's buffer, and
//! reuses the buffer for the next. Head, CRC and trailer go through the
//! same `FrameHead::parse` / `Loader` checks a stream read from a socket
//! does, so the extra memory of a restore is one shard's payload, not a
//! second copy of the hot set.
//!
//! **CRC32** is slice-by-8: eight `const` tables, eight bytes per step,
//! a bytewise tail, safe Rust. The polynomial is the IEEE one the format
//! has always used (not the Castagnoli polynomial of the hardware CRC32C
//! instruction), so every stream ever cut still verifies.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use bytes::Bytes;
use spotcache_cache::slab::SlabClasses;
use spotcache_cache::store::{SetPolicy, Store, ITEM_OVERHEAD};
use spotcache_obs::{Counter, Obs, Tracer};

/// Checkpoint stream magic, first bytes of the header.
pub const MAGIC: &[u8; 6] = b"SPCKPT";
/// Per-shard frame magic.
pub const SHARD_MAGIC: &[u8; 4] = b"SHRD";
/// Trailer magic.
pub const TRAILER_MAGIC: &[u8; 8] = b"CKPT_END";
/// Format version written and accepted by this codec.
pub const VERSION: u16 = 1;
/// `slab_class` sentinel for items too large for any slab class.
pub const NO_SLAB_CLASS: u16 = u16::MAX;
/// `ttl` sentinel for items with no expiry.
pub const NO_TTL: u64 = u64::MAX;

/// Decode/IO failures. Every corrupt-input path surfaces as a clean
/// error — the codec never panics on untrusted bytes, and the restorer
/// never applies records from a frame that failed validation.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying reader/writer error.
    Io(io::Error),
    /// Stream or shard-frame magic did not match.
    BadMagic,
    /// Header version is not [`VERSION`].
    BadVersion(u16),
    /// A frame header is self-inconsistent (e.g. payload shorter than
    /// its declared records, or a record overruns the payload).
    BadFrame(&'static str),
    /// A shard payload's CRC32 did not match; nothing from the frame
    /// was applied.
    CrcMismatch {
        /// Shard index from the frame header.
        shard: u32,
        /// CRC declared in the stream.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The stream ended before the declared structure was complete.
    Truncated,
    /// The trailer's item count disagreed with the records decoded.
    CountMismatch {
        /// Count declared in the trailer.
        declared: u64,
        /// Records actually decoded.
        decoded: u64,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a spotcache-ckpt-v1 stream (bad magic)"),
            CkptError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CkptError::BadFrame(why) => write!(f, "malformed checkpoint frame: {why}"),
            CkptError::CrcMismatch {
                shard,
                expected,
                actual,
            } => write!(
                f,
                "shard {shard} payload CRC mismatch (declared {expected:#010x}, computed {actual:#010x})"
            ),
            CkptError::Truncated => write!(f, "checkpoint stream truncated"),
            CkptError::CountMismatch { declared, decoded } => write!(
                f,
                "trailer declares {declared} items but {decoded} were decoded"
            ),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        // A reader that runs dry mid-structure is a truncation, not a
        // generic I/O failure — callers branch on this.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CkptError::Truncated
        } else {
            CkptError::Io(e)
        }
    }
}

impl From<CkptError> for io::Error {
    fn from(e: CkptError) -> Self {
        match e {
            CkptError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Reflected IEEE 802.3 polynomial — the one zlib and memcached's binary
/// protocol use.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE 802.3, reflected) over `bytes`, eight bytes per step
/// (slice-by-8) with a bytewise tail. Same polynomial and same values as
/// the one-table loop it replaced; the tests keep that loop as the
/// reference.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Knobs for checkpoint restore.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Items per [`Store::set_many_policy_at`] bulk-load batch on restore.
    /// Bounds how long each shard lock is held during the load.
    pub restore_batch: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self { restore_batch: 512 }
    }
}

/// What a checkpoint write accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptWriteReport {
    /// Shards framed.
    pub shards: u32,
    /// Records written across all shards.
    pub items: u64,
    /// Total stream size, bytes (header + frames + trailer).
    pub bytes: u64,
    /// Records per slab class (index = class in the default ladder;
    /// the final slot counts oversized / classless items).
    pub per_class: Vec<u64>,
    /// Wall-clock duration of the write.
    pub elapsed: Duration,
}

/// What a checkpoint restore accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptRestoreReport {
    /// Shard frames decoded.
    pub shards: u32,
    /// Records decoded from the stream.
    pub items_decoded: u64,
    /// Records stored in the target. A record is not stored when the
    /// target already holds a live item under its key (that item is
    /// newer than the cut), or when it exceeds its shard budget.
    pub items_stored: u64,
    /// Stream bytes consumed.
    pub bytes: u64,
    /// Records per slab class, as declared in the stream.
    pub per_class: Vec<u64>,
    /// Wall-clock duration of the restore.
    pub elapsed: Duration,
}

const HEADER_LEN: usize = 24;
const FRAME_HEAD_LEN: usize = 24;
const RECORD_HEAD_LEN: usize = 18;
const TRAILER_LEN: usize = 16;
/// Frame bytes around the payload: the head and the CRC.
const FRAME_OVERHEAD: u64 = FRAME_HEAD_LEN as u64 + 4;

/// Declared payload sizes beyond this are treated as malformed rather
/// than attempted — a corrupted length field must not become an
/// unbounded allocation.
const MAX_PAYLOAD: u64 = 1 << 32;

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}
fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

fn encode_header(shards: u32, now: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..6].copy_from_slice(MAGIC);
    h[6..8].copy_from_slice(&VERSION.to_le_bytes());
    // h[8..12]: flags, zero.
    h[12..16].copy_from_slice(&shards.to_le_bytes());
    h[16..24].copy_from_slice(&now.to_le_bytes());
    h
}

/// Checks magic and version; returns the shard count.
fn parse_header(h: &[u8; HEADER_LEN]) -> Result<u32, CkptError> {
    if &h[..6] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = u16::from_le_bytes([h[6], h[7]]);
    if version != VERSION {
        return Err(CkptError::BadVersion(version));
    }
    Ok(u32_at(h, 12))
}

fn encode_trailer(items: u64) -> [u8; TRAILER_LEN] {
    let mut t = [0u8; TRAILER_LEN];
    t[..8].copy_from_slice(TRAILER_MAGIC);
    t[8..].copy_from_slice(&items.to_le_bytes());
    t
}

/// Checks the magic; returns the declared item count.
fn parse_trailer(t: &[u8; TRAILER_LEN]) -> Result<u64, CkptError> {
    if &t[..8] != TRAILER_MAGIC {
        return Err(CkptError::BadMagic);
    }
    Ok(u64_at(t, 8))
}

/// A shard frame's head. [`FrameHead::parse`] is the only way to get one
/// from bytes, so a `FrameHead` a loader holds has passed the magic and
/// both bounds checks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameHead {
    shard: u32,
    records: u64,
    payload_len: u64,
}

impl FrameHead {
    fn encode(shard: u32, records: u64, payload_len: usize) -> [u8; FRAME_HEAD_LEN] {
        let mut h = [0u8; FRAME_HEAD_LEN];
        h[..4].copy_from_slice(SHARD_MAGIC);
        h[4..8].copy_from_slice(&shard.to_le_bytes());
        h[8..16].copy_from_slice(&records.to_le_bytes());
        h[16..24].copy_from_slice(&(payload_len as u64).to_le_bytes());
        h
    }

    pub(crate) fn parse(h: &[u8; FRAME_HEAD_LEN]) -> Result<Self, CkptError> {
        if &h[..4] != SHARD_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let records = u64_at(h, 8);
        let payload_len = u64_at(h, 16);
        if payload_len > MAX_PAYLOAD {
            return Err(CkptError::BadFrame("payload length implausibly large"));
        }
        if records > payload_len.div_ceil(RECORD_HEAD_LEN as u64).max(1) {
            // Each record costs at least its fixed header.
            return Err(CkptError::BadFrame("record count exceeds payload capacity"));
        }
        Ok(Self {
            shard: u32_at(h, 4),
            records,
            payload_len,
        })
    }
}

/// Slot of `class` in a `per_class` histogram of `slots` entries (the
/// last one counts classless items).
fn class_slot(class: u16, slots: usize) -> usize {
    (class as usize).min(slots - 1)
}

/// The cut side: encodes one shard at a time into a reused payload
/// buffer and keeps the running [`CkptWriteReport`]. The report counts
/// the bytes of the stream the frames make up, whether a caller writes
/// them out ([`write_checkpoint`]) or hands each payload straight to a
/// [`Loader`] (the unwarned restore).
pub(crate) struct Cutter<'a> {
    store: &'a Store,
    now: u64,
    classes: SlabClasses,
    tracer: Option<&'a Tracer>,
    c_items: Option<Counter>,
    c_bytes: Option<Counter>,
    payload: Vec<u8>,
    report: CkptWriteReport,
}

impl<'a> Cutter<'a> {
    pub(crate) fn new(
        store: &'a Store,
        now: u64,
        obs: Option<&Obs>,
        tracer: Option<&'a Tracer>,
    ) -> Self {
        let classes = SlabClasses::default_ladder();
        let mut cutter = Self {
            store,
            now,
            tracer,
            c_items: obs.map(|o| o.counter("ckpt_items_written_total")),
            c_bytes: obs.map(|o| o.counter("ckpt_bytes_written_total")),
            payload: Vec::new(),
            report: CkptWriteReport {
                shards: store.shard_count() as u32,
                items: 0,
                bytes: 0,
                per_class: vec![0; classes.count() + 1],
                elapsed: Duration::ZERO,
            },
            classes,
        };
        cutter.account(HEADER_LEN as u64);
        cutter
    }

    pub(crate) fn header(&self) -> [u8; HEADER_LEN] {
        encode_header(self.report.shards, self.now)
    }

    /// Encodes `shard`'s live records, hottest first, straight from the
    /// shard into the payload buffer (replacing the previous frame's) and
    /// returns the frame's head and the payload's CRC.
    pub(crate) fn cut_frame(&mut self, shard: usize) -> ([u8; FRAME_HEAD_LEN], u32) {
        let _span = self.tracer.map(|t| t.span("checkpoint", "write_shard"));
        let (classes, per_class) = (&self.classes, &mut self.report.per_class);
        let slots = per_class.len();
        let payload = &mut self.payload;
        payload.clear();
        let records = self
            .store
            .visit_shard_at(shard, self.now, |key, value, ttl| {
                let class = classes
                    .class_for(key.len() + value.len() + ITEM_OVERHEAD)
                    .map_or(NO_SLAB_CLASS, |c| c as u16);
                per_class[class_slot(class, slots)] += 1;
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
                payload.extend_from_slice(&class.to_le_bytes());
                payload.extend_from_slice(&ttl.unwrap_or(NO_TTL).to_le_bytes());
                payload.extend_from_slice(key);
                payload.extend_from_slice(value);
            }) as u64;
        self.report.items += records;
        if let Some(c) = &self.c_items {
            c.add(records);
        }
        self.account(FRAME_OVERHEAD + self.payload.len() as u64);
        (
            FrameHead::encode(shard as u32, records, self.payload.len()),
            crc32(&self.payload),
        )
    }

    fn account(&mut self, bytes: u64) {
        self.report.bytes += bytes;
        if let Some(c) = &self.c_bytes {
            c.add(bytes);
        }
    }

    /// The payload of the frame last cut.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    pub(crate) fn trailer(&self) -> [u8; TRAILER_LEN] {
        encode_trailer(self.report.items)
    }

    /// Accounts the trailer and closes the report over `elapsed`.
    pub(crate) fn finish(mut self, elapsed: Duration) -> CkptWriteReport {
        self.account(TRAILER_LEN as u64);
        self.report.elapsed = elapsed;
        self.report
    }
}

/// Snapshots `store`'s full live state at `now` into `out` as a
/// `spotcache-ckpt-v1` stream, one shard frame at a time.
///
/// Peak memory is one shard's encoded payload, not the whole store: the
/// writer walks a shard with [`Store::visit_shard_at`], encoding each
/// record straight into a reused payload buffer, and sends the frame as
/// three writes (head, payload, CRC) before locking the next shard. The
/// store stays live throughout — each shard lock is held only for its
/// walk, so a checkpoint cut during the revocation warning does not
/// stall the write path.
///
/// With `obs`, progress surfaces as `ckpt_items_written_total` and
/// `ckpt_bytes_written_total`; with `tracer`, each shard frame is a
/// `checkpoint`-category `write_shard` span.
pub fn write_checkpoint(
    store: &Store,
    now: u64,
    out: &mut impl Write,
    obs: Option<&Obs>,
    tracer: Option<&Tracer>,
) -> Result<CkptWriteReport, CkptError> {
    let start = Instant::now();
    let mut cutter = Cutter::new(store, now, obs, tracer);
    out.write_all(&cutter.header())?;
    for shard in 0..store.shard_count() {
        let (head, crc) = cutter.cut_frame(shard);
        out.write_all(&head)?;
        out.write_all(cutter.payload())?;
        out.write_all(&crc.to_le_bytes())?;
    }
    out.write_all(&cutter.trailer())?;
    out.flush()?;
    Ok(cutter.finish(start.elapsed()))
}

/// The load side: verifies, validates and applies one frame at a time
/// and keeps the running [`CkptRestoreReport`]. Frames come from a
/// stream ([`restore_checkpoint`]) or straight from a [`Cutter`] (the
/// unwarned restore); the checks are the same code either way.
pub(crate) struct Loader<'a> {
    store: &'a Store,
    now: u64,
    batch_cap: usize,
    tracer: Option<&'a Tracer>,
    c_items: Option<Counter>,
    c_bytes: Option<Counter>,
    /// Payload offset of every `batch_cap`-th record of the frame being
    /// loaded, filled by the validation pass.
    batch_starts: Vec<usize>,
    report: CkptRestoreReport,
}

impl<'a> Loader<'a> {
    /// Checks the stream header and starts a load into `store`.
    pub(crate) fn new(
        header: &[u8; HEADER_LEN],
        store: &'a Store,
        now: u64,
        cfg: &CheckpointConfig,
        obs: Option<&Obs>,
        tracer: Option<&'a Tracer>,
    ) -> Result<Self, CkptError> {
        let shards = parse_header(header)?;
        let mut loader = Self {
            store,
            now,
            batch_cap: cfg.restore_batch.max(1),
            tracer,
            c_items: obs.map(|o| o.counter("ckpt_items_restored_total")),
            c_bytes: obs.map(|o| o.counter("ckpt_bytes_restored_total")),
            batch_starts: Vec::new(),
            report: CkptRestoreReport {
                shards,
                items_decoded: 0,
                items_stored: 0,
                bytes: 0,
                per_class: vec![0; SlabClasses::default_ladder().count() + 1],
                elapsed: Duration::ZERO,
            },
        };
        loader.account(HEADER_LEN as u64);
        Ok(loader)
    }

    /// Frames the header declared.
    pub(crate) fn shards(&self) -> u32 {
        self.report.shards
    }

    /// Loads one frame: verifies `declared_crc` over `payload`, walks the
    /// whole payload checking every record's bounds (allocating nothing
    /// but a batch-start index), and only then stores the records, coldest
    /// first, `restore_batch` at a time and only where the target holds
    /// no live item under the key. A frame that fails any check leaves the
    /// target untouched.
    pub(crate) fn load_frame(
        &mut self,
        head: &FrameHead,
        payload: &[u8],
        declared_crc: u32,
    ) -> Result<(), CkptError> {
        let _span = self.tracer.map(|t| t.span("checkpoint", "restore_shard"));
        if payload.len() as u64 != head.payload_len {
            return Err(CkptError::Truncated);
        }
        let actual_crc = crc32(payload);
        if declared_crc != actual_crc {
            return Err(CkptError::CrcMismatch {
                shard: head.shard,
                expected: declared_crc,
                actual: actual_crc,
            });
        }

        let slots = self.report.per_class.len();
        self.batch_starts.clear();
        let mut off = 0usize;
        for i in 0..head.records {
            if i % self.batch_cap as u64 == 0 {
                self.batch_starts.push(off);
            }
            if payload.len() - off < RECORD_HEAD_LEN {
                return Err(CkptError::BadFrame("record header overruns payload"));
            }
            let body = u64::from(u32_at(payload, off)) + u64::from(u32_at(payload, off + 4));
            let class = u16::from_le_bytes([payload[off + 8], payload[off + 9]]);
            off += RECORD_HEAD_LEN;
            if ((payload.len() - off) as u64) < body {
                return Err(CkptError::BadFrame("record body overruns payload"));
            }
            off += body as usize;
            self.report.per_class[class_slot(class, slots)] += 1;
        }
        if off != payload.len() {
            return Err(CkptError::BadFrame("trailing bytes after last record"));
        }

        // Valid throughout: apply back to front, so the record that
        // travelled first (the hottest) is stored last and ends at the
        // LRU head, as it was in the source; a target too small for the
        // frame then evicts the coldest records, not the hottest.
        let mut remaining = head.records as usize;
        for &start in self.batch_starts.iter().rev() {
            let n = (remaining - 1) % self.batch_cap + 1;
            remaining -= n;
            let mut batch = Vec::with_capacity(n);
            let mut off = start;
            for _ in 0..n {
                let key_len = u32_at(payload, off) as usize;
                let val_len = u32_at(payload, off + 4) as usize;
                let ttl = u64_at(payload, off + 10);
                off += RECORD_HEAD_LEN;
                let key = Bytes::copy_from_slice(&payload[off..off + key_len]);
                off += key_len;
                let value = Bytes::copy_from_slice(&payload[off..off + val_len]);
                off += val_len;
                batch.push((key, value, (ttl != NO_TTL).then_some(ttl)));
            }
            batch.reverse();
            let stored = self
                .store
                .set_many_policy_at(batch, self.now, SetPolicy::IfAbsent)
                as u64;
            self.report.items_stored += stored;
            if let Some(c) = &self.c_items {
                c.add(stored);
            }
        }
        self.report.items_decoded += head.records;
        self.account(FRAME_OVERHEAD + payload.len() as u64);
        Ok(())
    }

    fn account(&mut self, bytes: u64) {
        self.report.bytes += bytes;
        if let Some(c) = &self.c_bytes {
            c.add(bytes);
        }
    }

    /// Checks the trailer against the records decoded and closes the
    /// report over `elapsed`.
    pub(crate) fn finish(
        mut self,
        trailer: &[u8; TRAILER_LEN],
        elapsed: Duration,
    ) -> Result<CkptRestoreReport, CkptError> {
        let declared = parse_trailer(trailer)?;
        self.account(TRAILER_LEN as u64);
        if declared != self.report.items_decoded {
            return Err(CkptError::CountMismatch {
                declared,
                decoded: self.report.items_decoded,
            });
        }
        self.report.elapsed = elapsed;
        Ok(self.report)
    }
}

fn read_array<const N: usize>(r: &mut impl Read) -> Result<[u8; N], CkptError> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

/// Restores a `spotcache-ckpt-v1` stream from `input` into `store`,
/// bulk-loading via [`Store::set_many_policy_at`] in batches of
/// `cfg.restore_batch`.
///
/// Each frame is read into one reused buffer, its CRC verified and its
/// whole structure validated before any of its records is applied; on any
/// decode error the restore stops with records from fully-validated
/// frames already loaded. Within a frame records are applied coldest
/// first, so each target shard ends in the source's recency order.
///
/// A record is stored only where the target holds no live item under its
/// key ([`SetPolicy::IfAbsent`]): a replacement that is already taking
/// writes acknowledged them after the cut, and an older copy must not
/// replace them. Re-running a restore is therefore still idempotent.
///
/// TTLs are re-based against `now`: a record checkpointed with 30
/// seconds remaining expires 30 seconds after the *restore*, matching
/// how the replay pump ships residual TTLs.
///
/// With `obs`, progress surfaces as `ckpt_items_restored_total` and
/// `ckpt_bytes_restored_total`; with `tracer`, each shard frame is a
/// `checkpoint`-category `restore_shard` span.
pub fn restore_checkpoint(
    input: &mut impl Read,
    store: &Store,
    now: u64,
    cfg: &CheckpointConfig,
    obs: Option<&Obs>,
    tracer: Option<&Tracer>,
) -> Result<CkptRestoreReport, CkptError> {
    let start = Instant::now();
    let mut loader = Loader::new(&read_array(input)?, store, now, cfg, obs, tracer)?;
    let mut payload = Vec::new();
    for _ in 0..loader.shards() {
        let head = FrameHead::parse(&read_array(input)?)?;
        // The declared length only caps the read: the buffer grows with
        // the bytes that actually arrive, and nothing is zero-filled.
        payload.clear();
        input
            .by_ref()
            .take(head.payload_len)
            .read_to_end(&mut payload)?;
        let declared_crc = u32::from_le_bytes(read_array(input)?);
        loader.load_frame(&head, &payload, declared_crc)?;
    }
    loader.finish(&read_array(input)?, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cache::store::StoreConfig;

    fn store(shards: usize) -> Store {
        Store::new(StoreConfig {
            capacity_bytes: 8 << 20,
            shards,
        })
    }

    fn fill(s: &Store, n: u32) {
        for i in 0..n {
            let ttl = (i % 3 == 0).then_some(1_000 + i as u64);
            s.set_at(
                format!("key-{i}").into_bytes(),
                format!("value-{i}").into_bytes(),
                0,
                ttl,
            );
        }
    }

    fn cut(s: &Store, now: u64) -> (Vec<u8>, CkptWriteReport) {
        let mut buf = Vec::new();
        let report = write_checkpoint(s, now, &mut buf, None, None).expect("write");
        (buf, report)
    }

    #[test]
    fn round_trip_restores_full_state() {
        let src = store(4);
        fill(&src, 300);
        let (buf, wrote) = cut(&src, 0);
        assert_eq!(wrote.items, 300);
        assert_eq!(wrote.bytes, buf.len() as u64);
        assert_eq!(wrote.per_class.iter().sum::<u64>(), 300);

        let dst = store(8); // shard count need not match
        let restored = restore_checkpoint(
            &mut buf.as_slice(),
            &dst,
            0,
            &CheckpointConfig::default(),
            None,
            None,
        )
        .expect("restore");
        assert_eq!(restored.items_decoded, 300);
        assert_eq!(restored.items_stored, 300);
        assert_eq!(restored.bytes, buf.len() as u64);
        for i in 0..300u32 {
            let key = format!("key-{i}");
            assert_eq!(
                dst.get(key.as_bytes()),
                src.get(key.as_bytes()),
                "key {key} diverged"
            );
        }
    }

    #[test]
    fn ttls_rebase_on_restore() {
        let src = store(1);
        src.set_at("k", "v", 100, Some(50)); // expires at 150
        let (buf, _) = cut(&src, 120); // 30 s remaining at snapshot
        let dst = store(1);
        restore_checkpoint(
            &mut buf.as_slice(),
            &dst,
            1_000,
            &CheckpointConfig::default(),
            None,
            None,
        )
        .expect("restore");
        assert!(dst.get_at(b"k", 1_029).is_some(), "should live ~30 s");
        assert!(dst.get_at(b"k", 1_031).is_none(), "should expire at 1030");
    }

    #[test]
    fn corrupted_frame_is_rejected_before_apply() {
        let src = store(2);
        fill(&src, 100);
        let (mut buf, _) = cut(&src, 0);
        // Flip a byte inside the first shard's payload (past the 24-byte
        // header and the 24-byte frame header).
        buf[60] ^= 0xFF;
        let dst = store(2);
        let err = restore_checkpoint(
            &mut buf.as_slice(),
            &dst,
            0,
            &CheckpointConfig::default(),
            None,
            None,
        )
        .expect_err("must reject");
        assert!(
            matches!(err, CkptError::CrcMismatch { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(dst.len(), 0, "corrupt frame must not half-apply");
    }

    #[test]
    fn truncated_stream_is_a_clean_error() {
        let src = store(2);
        fill(&src, 50);
        let (buf, _) = cut(&src, 0);
        for cut_at in [3, 20, buf.len() / 2, buf.len() - 1] {
            let dst = store(2);
            let err = restore_checkpoint(
                &mut &buf[..cut_at],
                &dst,
                0,
                &CheckpointConfig::default(),
                None,
                None,
            )
            .expect_err("must reject truncation");
            assert!(
                matches!(err, CkptError::Truncated | CkptError::BadMagic),
                "cut at {cut_at}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let src = store(1);
        fill(&src, 10);
        let (mut buf, _) = cut(&src, 0);
        buf[6] = 0x7F; // version low byte
        let err = restore_checkpoint(
            &mut buf.as_slice(),
            &store(1),
            0,
            &CheckpointConfig::default(),
            None,
            None,
        )
        .expect_err("must reject");
        assert!(matches!(err, CkptError::BadVersion(0x7F)), "{err}");
    }

    #[test]
    fn empty_store_round_trips() {
        let (buf, wrote) = cut(&store(4), 0);
        assert_eq!(wrote.items, 0);
        let dst = store(4);
        let restored = restore_checkpoint(
            &mut buf.as_slice(),
            &dst,
            0,
            &CheckpointConfig::default(),
            None,
            None,
        )
        .expect("restore");
        assert_eq!(restored.items_decoded, 0);
        assert_eq!(dst.len(), 0);
    }

    #[test]
    fn obs_and_spans_are_threaded() {
        let src = store(2);
        fill(&src, 40);
        let obs = Obs::new();
        let tracer = Tracer::all(256);
        let mut buf = Vec::new();
        write_checkpoint(&src, 0, &mut buf, Some(&obs), Some(&tracer)).expect("write");
        let dst = store(2);
        restore_checkpoint(
            &mut buf.as_slice(),
            &dst,
            0,
            &CheckpointConfig::default(),
            Some(&obs),
            Some(&tracer),
        )
        .expect("restore");
        assert_eq!(obs.counter("ckpt_items_written_total").get(), 40);
        assert_eq!(obs.counter("ckpt_items_restored_total").get(), 40);
        assert_eq!(
            obs.counter("ckpt_bytes_written_total").get(),
            buf.len() as u64
        );
        assert_eq!(
            obs.counter("ckpt_bytes_restored_total").get(),
            buf.len() as u64
        );
        assert!(tracer.categories().contains(&"checkpoint"));
    }

    /// The one-table bytewise loop [`crc32`] was before slice-by-8.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        let bytes: Vec<u8> = (0..64 + 8).map(|i| (i * 37 + 11) as u8).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[align..align + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "len {len} at offset {align}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(0u8..=255u8, 0..2_000),
            skip in 0usize..8,
        ) {
            let slice = &bytes[skip.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    /// Every shard's keys in visitor (hottest-first) order.
    fn recency(s: &Store) -> Vec<Vec<Vec<u8>>> {
        (0..s.shard_count())
            .map(|shard| {
                let mut keys = Vec::new();
                s.visit_shard_at(shard, 0, |k, _, _| keys.push(k.to_vec()));
                keys
            })
            .collect()
    }

    fn restore(buf: &[u8], dst: &Store) -> CkptRestoreReport {
        restore_checkpoint(
            &mut &buf[..],
            dst,
            0,
            &CheckpointConfig { restore_batch: 7 },
            None,
            None,
        )
        .expect("restore")
    }

    /// `n` keys, then reads that pull every third one back to the front.
    fn fill_and_touch(s: &Store, n: u32) {
        fill(s, n);
        for i in (0..n).step_by(3) {
            assert!(s.get(format!("key-{i}").as_bytes()).is_some());
        }
    }

    #[test]
    fn restore_keeps_each_shards_recency_order() {
        let src = store(4);
        fill_and_touch(&src, 200);
        let (buf, _) = cut(&src, 0);
        let dst = store(4);
        restore(&buf, &dst);
        assert_eq!(recency(&dst), recency(&src));
    }

    #[test]
    fn restore_into_more_shards_keeps_relative_order() {
        let src = store(4);
        fill_and_touch(&src, 200);
        let (buf, _) = cut(&src, 0);
        let dst = store(8);
        restore(&buf, &dst);
        // hash % 8 == t implies hash % 4 == t % 4: target shard t holds a
        // subsequence of source shard t % 4, and must hold it in order.
        let src_order = recency(&src);
        for (t, got) in recency(&dst).iter().enumerate() {
            let want: Vec<_> = src_order[t % 4]
                .iter()
                .filter(|k| dst.shard_of(k) == t)
                .cloned()
                .collect();
            assert!(!want.is_empty());
            assert_eq!(got, &want, "target shard {t}");
        }
    }

    #[test]
    fn restore_into_half_the_memory_keeps_the_hottest_prefix() {
        // Equal-sized items, so a shard's budget is a whole number of them.
        let item = 6 + 10 + ITEM_OVERHEAD;
        let sized = |items_per_shard: usize| {
            Store::new(StoreConfig {
                capacity_bytes: 2 * items_per_shard * item,
                shards: 2,
            })
        };
        let src = sized(100);
        for i in 100..300u32 {
            src.set(format!("key{i}").into_bytes(), vec![i as u8; 10]);
        }
        for i in (100..300u32).step_by(3) {
            assert!(src.get(format!("key{i}").as_bytes()).is_some());
        }
        let (buf, wrote) = cut(&src, 0);
        let dst = sized(40);
        let restored = restore(&buf, &dst);
        assert_eq!(restored.items_stored, wrote.items, "evicted, not refused");
        let src_order = recency(&src);
        for (shard, got) in recency(&dst).iter().enumerate() {
            assert_eq!(got.len(), 40.min(src_order[shard].len()));
            assert_eq!(got[..], src_order[shard][..got.len()], "shard {shard}");
        }
    }

    #[test]
    fn restore_does_not_write_over_what_the_target_holds() {
        let src = store(2);
        src.set("k", "cut-time");
        src.set("j", "only-in-the-cut");
        let (buf, _) = cut(&src, 0);
        let dst = store(2);
        dst.set("k", "acknowledged-after-the-cut");
        let first = restore(&buf, &dst);
        assert_eq!(first.items_decoded, 2);
        assert_eq!(first.items_stored, 1, "only `j` was absent");
        assert_eq!(
            dst.get(b"k").as_deref(),
            Some(b"acknowledged-after-the-cut".as_ref())
        );
        assert_eq!(dst.get(b"j").as_deref(), Some(b"only-in-the-cut".as_ref()));
        // Loading the same stream again changes nothing.
        let before = recency(&dst);
        assert_eq!(restore(&buf, &dst).items_stored, 0);
        assert_eq!(recency(&dst), before);
        assert_eq!(dst.len(), 2);
    }

    #[test]
    fn forged_frame_lengths_neither_allocate_nor_apply() {
        let src = store(1);
        fill(&src, 10);
        let (buf, _) = cut(&src, 0);
        let forge = |records: u64, payload_len: u64| {
            let mut b = buf.clone();
            b[HEADER_LEN + 8..HEADER_LEN + 16].copy_from_slice(&records.to_le_bytes());
            b[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&payload_len.to_le_bytes());
            let dst = store(1);
            let err = restore_checkpoint(
                &mut b.as_slice(),
                &dst,
                0,
                &CheckpointConfig::default(),
                None,
                None,
            )
            .expect_err("must reject");
            assert_eq!(dst.len(), 0);
            err
        };
        assert!(matches!(forge(10, MAX_PAYLOAD + 1), CkptError::BadFrame(_)));
        assert!(matches!(forge(u64::MAX, 400), CkptError::BadFrame(_)));
        // A length within bounds that the stream cannot back is read only
        // as far as the bytes go: truncation, not a 4 GiB buffer.
        assert!(matches!(forge(10, MAX_PAYLOAD), CkptError::Truncated));
        // One record fewer than the payload holds: the CRC passes, the
        // structure check does not.
        assert!(matches!(
            forge(9, (buf.len() - HEADER_LEN - 28 - TRAILER_LEN) as u64),
            CkptError::BadFrame(_)
        ));
    }
}
