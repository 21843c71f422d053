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
//!   `NO_SLAB_CLASS` for oversized items; it is advisory sizing
//!   metadata the restorer skips, not required for decoding.
//! * `ttl` is the TTL *remaining at snapshot time*, or `NO_TTL` for
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
//! **Cut** (`Cutter`): a frame is built from slices of shards' recency
//! orders. [`Store::recency_order_at`] lists a shard's live items as
//! 4-byte slots, hottest first, under the shard's write lock; then
//! [`Store::visit_slots_at`] walks a slice of that order under the read
//! lock and hands every record still live to the encoder by reference.
//! The encoder appends it to one payload buffer reused from frame to
//! frame. The frame leaves as three writes — 24-byte head, payload, CRC —
//! with no second buffer to assemble it in. One pass from the shard to
//! the stream. [`write_checkpoint`] cuts one whole shard per frame.
//!
//! **Load** (`Loader`): the frame's payload is read into one reused
//! buffer (the declared length, at most `MAX_PAYLOAD`, only caps the
//! read; nothing is zero-filled or allocated on its say-so). Then, in
//! this order: the CRC is verified; the whole payload is walked checking
//! every record's bounds and the absence of trailing bytes, which
//! allocates nothing; and only a frame that passed both is decoded front
//! to back, `RESTORE_BATCH` records at a time, straight into the `Vec`
//! handed to [`Store::set_many_policy_at`], which moves keys and values
//! into the shard. Stored values are copies: nothing in the store aliases
//! the frame buffer, so eviction keeps freeing what the accounting says
//! it frees. One pass from the stream to the store.
//!
//! **Hottest first, behind.** The wire order is hottest first, and the
//! loader applies each validated frame in that order with
//! [`SetPolicy::Fill`], which puts a record at the LRU **tail**: each
//! record lands behind the ones before it, so the target shard ends in
//! the source's recency order. `Fill` never evicts. A target smaller than
//! the cut keeps the hottest prefix of every shard and refuses the rest
//! (`items_stored < items_decoded`), and the replacement's own writes
//! during the restore, at the LRU head, are never displaced by older
//! records.
//!
//! **Fill.** A record is stored only where the target holds no live item
//! under its key (TTL-aware, one probe under the shard lock) and it fits
//! the shard's free room. A replacement takes writes while it is being
//! restored; whatever it holds was acknowledged after the cut, and the
//! older copy must not replace it. The Hybrid top-up tail is exempt: it
//! ships plain `set`s over the wire like any replication batch, and a
//! tail entry can still land on a key the client has rewritten since
//! (ordering the tail against live writes needs versions the protocol
//! does not carry).
//!
//! **One frame in flight.** An unwarned restore
//! ([`RecoveryStrategy`](crate::strategy::RecoveryStrategy) with no
//! pre-cut stream) takes every shard's recency order once, then cuts and
//! loads as many rounds as the source has shards: round r is one frame
//! holding slice r of every shard's order, so the hottest slice of every
//! shard lands before the next slice of any. Each frame is loaded from
//! the cutter's buffer before the next is cut into it. Head, CRC and
//! trailer go through the same `FrameHead::parse` / `Loader` checks a
//! stream read from a socket does, so the extra memory of a restore is
//! one frame's payload plus a 4-byte slot per item, not a second copy of
//! the hot set; and since the rounds are as many frames as a whole
//! stream has, the reports read what a whole stream's would.
//!
//! **CRC32** runs over every payload twice, once at the cut and once at
//! the load, so `crc32` has two kernels behind one entry point. On an
//! x86_64 host with PCLMULQDQ and SSE4.1 (checked with
//! `is_x86_feature_detected!` on every call), a buffer of 64 bytes or
//! more is folded by carry-less multiplication: four 128-bit lanes take
//! 64 bytes per step, single 16-byte folds follow, a Barrett reduction
//! yields the 32-bit register, and the tables finish the 0–15-byte tail.
//! Every shorter buffer, and every buffer on any other host, goes through
//! slice-by-16: sixteen `const` tables (16 KiB), sixteen bytes per step,
//! a bytewise tail, safe Rust. The tests hold both kernels to the
//! one-table loop. Nothing selects a kernel but the host and the length.
//! The polynomial is the IEEE one the format has always used (not the
//! Castagnoli polynomial of the hardware CRC32C instruction), so every
//! stream ever cut still verifies.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use bytes::Bytes;
use spotcache_cache::slab::SlabClasses;
use spotcache_cache::store::{SetPolicy, Store, ITEM_OVERHEAD};
use spotcache_obs::{Counter, Obs, Tracer};

/// Checkpoint stream magic, first bytes of the header.
pub(crate) const MAGIC: &[u8; 6] = b"SPCKPT";
/// Per-shard frame magic.
pub(crate) const SHARD_MAGIC: &[u8; 4] = b"SHRD";
/// Trailer magic.
pub(crate) const TRAILER_MAGIC: &[u8; 8] = b"CKPT_END";
/// Format version written and accepted by this codec.
pub(crate) const VERSION: u16 = 1;
/// `slab_class` sentinel for items too large for any slab class.
pub(crate) const NO_SLAB_CLASS: u16 = u16::MAX;
/// `ttl` sentinel for items with no expiry.
pub(crate) const NO_TTL: u64 = u64::MAX;

/// Decode/IO failures. Every corrupt-input path surfaces as a clean
/// error — the codec never panics on untrusted bytes, and the restorer
/// never applies records from a frame that failed validation.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying reader/writer error.
    Io(io::Error),
    /// Stream or shard-frame magic did not match.
    BadMagic,
    /// Header version is not `VERSION`.
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

/// Slice-by-16 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
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
    while k < 16 {
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

/// CRC32 (IEEE 802.3, reflected) over `bytes`. On an x86_64 host with
/// PCLMULQDQ and SSE4.1, a buffer of at least 64 bytes is folded by
/// carry-less multiplication (`clmul::crc32`); every shorter buffer,
/// and every buffer on any other host, goes through the slice-by-16
/// tables (`crc32_portable`). Both give the same value for every input.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::crc32` needs `pclmulqdq` and `sse4.1`, and
        // `is_x86_feature_detected!` found both on this host just above.
        return unsafe { clmul::crc32(bytes) };
    }
    crc32_portable(bytes)
}

/// [`crc32`] without the dispatch: slice-by-16 on every host and length.
fn crc32_portable(bytes: &[u8]) -> u32 {
    !slice16(!0, bytes)
}

/// Advances the CRC register `crc` (not inverted) over `bytes`, sixteen
/// bytes per step with a bytewise tail. Same values as the one-table loop
/// it replaced; the tests keep that loop as the reference.
fn slice16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(16);
    for w in &mut words {
        let mut w: [u8; 16] = w.try_into().expect("16 bytes");
        for (b, c) in w.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        crc = (0..16).fold(0, |acc, j| acc ^ t[15 - j][w[j] as usize]);
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009), bit-reflected. Four 128-bit lanes fold 64 bytes per
/// step; the lanes fold into one, which then folds 16 bytes per step;
/// the last 128 bits reduce to 64, a Barrett reduction takes those to the
/// 32-bit register, and the slice-by-16 tables finish the 0–15-byte tail.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// The shortest buffer [`crc32`] takes: one 64-byte step.
    pub(super) const MIN_LEN: usize = 64;

    // Fold constants: x^n mod P(x) for the IEEE polynomial P, bit-reflected
    // and shifted left by one (reflection puts a product one bit low).
    // x^(4·128+32) and x^(4·128−32) mod P: fold a lane 64 bytes forward.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    // x^(128+32) and x^(128−32) mod P: fold 16 bytes forward.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    // x^64 mod P: 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    // P(x) itself and μ = ⌊x^64 / P(x)⌋, reflected: the Barrett pair.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// CRC32 of `bytes`, which must be at least [`MIN_LEN`] long. Call it
    /// only where both target features were detected.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks
            .split_first_chunk::<4>()
            .expect("crc32 dispatches only buffers of MIN_LEN bytes or more");
        let mut x = first.map(|b| load(&b));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!0)); // the initial register

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(4);
        for quad in &mut quads {
            for (lane, b) in x.iter_mut().zip(quad) {
                *lane = fold16(*lane, load(b), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold16(fold16(fold16(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        for b in quads.remainder() {
            acc = fold16(acc, load(b), k3k4);
        }

        // 128 bits to 96 (the low half times K4), then 96 to 64 (the low
        // 32 bits times K5).
        let lo32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, lo32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // register is the upper half of R ^ T2 (reflected).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, lo32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, lo32), pu);
        let reg = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        !super::slice16(reg, tail)
    }

    /// `acc` carried 128 bits forward (its two halves times the two
    /// constants in `k`), folded into `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn fold16(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(next, _mm_clmulepi64_si128::<0x00>(acc, k)),
            _mm_clmulepi64_si128::<0x11>(acc, k),
        )
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` takes any
        // alignment; SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// Checkpoint restore settings. It has none left; the type stays because
/// callers still pass it (ROADMAP 14(d) drops it).
#[derive(Debug, Clone, Default)]
pub struct CheckpointConfig {}

/// Items per [`Store::set_many_policy_at`] bulk-load batch on restore.
/// Bounds how long each shard lock is held during the load.
const RESTORE_BATCH: usize = 512;

/// What a checkpoint write accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptWriteReport {
    /// Shards framed.
    pub(crate) shards: u32,
    /// Records written across all shards.
    pub items: u64,
    /// Total stream size, bytes (header + frames + trailer).
    pub bytes: u64,
    /// Wall-clock duration of the write.
    pub elapsed: Duration,
}

/// What a checkpoint restore accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptRestoreReport {
    /// Shard frames decoded.
    pub(crate) shards: u32,
    /// Records decoded from the stream.
    pub items_decoded: u64,
    /// Records stored in the target. A record is not stored when the
    /// target already holds a live item under its key (that item is
    /// newer than the cut), or when it does not fit its shard's free room.
    pub items_stored: u64,
    /// Stream bytes consumed.
    pub bytes: u64,
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

/// The cut side: encodes one frame at a time, from slices of shards'
/// recency orders, into a reused payload buffer and keeps the running
/// [`CkptWriteReport`]. The report counts the bytes of the stream the
/// frames make up, whether a caller writes them out
/// ([`write_checkpoint`]) or hands each payload straight to a [`Loader`]
/// (the unwarned restore).
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
                elapsed: Duration::ZERO,
            },
            classes: SlabClasses::default_ladder(),
        };
        cutter.account(HEADER_LEN as u64);
        cutter
    }

    pub(crate) fn header(&self) -> [u8; HEADER_LEN] {
        encode_header(self.report.shards, self.now)
    }

    /// Encodes frame `idx` straight from the store into the payload
    /// buffer (replacing the previous frame's): for each `(shard, slots)`
    /// in turn, the records those slots of a
    /// [`Store::recency_order_at`] still name. Returns the frame's head
    /// and the payload's CRC.
    pub(crate) fn cut_frame<'o>(
        &mut self,
        idx: u32,
        slices: impl IntoIterator<Item = (usize, &'o [u32])>,
    ) -> ([u8; FRAME_HEAD_LEN], u32) {
        let _span = self.tracer.map(|t| t.span("checkpoint", "write_shard"));
        let classes = &self.classes;
        let payload = &mut self.payload;
        payload.clear();
        let mut records = 0u64;
        for (shard, order) in slices {
            let visited = self
                .store
                .visit_slots_at(shard, order, self.now, |key, value, ttl| {
                    let class = classes
                        .class_for(key.len() + value.len() + ITEM_OVERHEAD)
                        .map_or(NO_SLAB_CLASS, |c| c as u16);
                    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                    payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    payload.extend_from_slice(&class.to_le_bytes());
                    payload.extend_from_slice(&ttl.unwrap_or(NO_TTL).to_le_bytes());
                    payload.extend_from_slice(key);
                    payload.extend_from_slice(value);
                });
            records += visited as u64;
        }
        self.report.items += records;
        if let Some(c) = &self.c_items {
            c.add(records);
        }
        self.account(FRAME_OVERHEAD + self.payload.len() as u64);
        (
            FrameHead::encode(idx, records, self.payload.len()),
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
/// Peak memory is one shard's encoded payload and recency order, not the
/// whole store: the writer takes a shard's order with
/// [`Store::recency_order_at`], walks it with [`Store::visit_slots_at`],
/// encoding each record straight into a reused payload buffer, and sends
/// the frame as three writes (head, payload, CRC) before the next shard.
/// The store stays live throughout — a shard's write lock is held only
/// while its order is listed and the encoding runs under its read lock,
/// so a checkpoint cut during the revocation warning does not stall the
/// data path.
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
        let order = store.recency_order_at(shard, now);
        let (head, crc) = cutter.cut_frame(shard as u32, [(shard, &order[..])]);
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
    tracer: Option<&'a Tracer>,
    c_items: Option<Counter>,
    c_bytes: Option<Counter>,
    report: CkptRestoreReport,
}

impl<'a> Loader<'a> {
    /// Checks the stream header and starts a load into `store`.
    pub(crate) fn new(
        header: &[u8; HEADER_LEN],
        store: &'a Store,
        now: u64,
        obs: Option<&Obs>,
        tracer: Option<&'a Tracer>,
    ) -> Result<Self, CkptError> {
        let shards = parse_header(header)?;
        let mut loader = Self {
            store,
            now,
            tracer,
            c_items: obs.map(|o| o.counter("ckpt_items_restored_total")),
            c_bytes: obs.map(|o| o.counter("ckpt_bytes_restored_total")),
            report: CkptRestoreReport {
                shards,
                items_decoded: 0,
                items_stored: 0,
                bytes: 0,
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
    /// whole payload checking every record's bounds (allocating nothing),
    /// and only then stores the records in frame order, `RESTORE_BATCH`
    /// at a time, with [`SetPolicy::Fill`]: each behind the ones before it,
    /// only where the target holds no live item under the key and only
    /// if it fits. A frame that fails any check leaves the target
    /// untouched.
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

        let mut off = 0usize;
        for _ in 0..head.records {
            if payload.len() - off < RECORD_HEAD_LEN {
                return Err(CkptError::BadFrame("record header overruns payload"));
            }
            let body = u64::from(u32_at(payload, off)) + u64::from(u32_at(payload, off + 4));
            off += RECORD_HEAD_LEN;
            if ((payload.len() - off) as u64) < body {
                return Err(CkptError::BadFrame("record body overruns payload"));
            }
            off += body as usize;
        }
        if off != payload.len() {
            return Err(CkptError::BadFrame("trailing bytes after last record"));
        }

        // Valid throughout: apply front to back, each record behind the
        // one before, so the hottest leads as it did in the source; a
        // target too small for the frame refuses the coldest records.
        let mut remaining = head.records as usize;
        let mut off = 0usize;
        while remaining > 0 {
            let n = remaining.min(RESTORE_BATCH);
            remaining -= n;
            let mut batch = Vec::with_capacity(n);
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
            let stored =
                self.store
                    .set_many_policy_at(batch, self.now, SetPolicy::Fill) as u64;
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
/// `RESTORE_BATCH` (512) records. `_cfg` holds no setting.
///
/// Each frame is read into one reused buffer, its CRC verified and its
/// whole structure validated before any of its records is applied; on any
/// decode error the restore stops with records from fully-validated
/// frames already loaded. Records are applied hottest first, each at the
/// LRU tail behind the ones before it ([`SetPolicy::Fill`]), so each
/// target shard ends in the source's recency order.
///
/// A record is stored only where the target holds no live item under its
/// key and only if it fits the shard's free room; nothing is evicted. A
/// replacement that is already taking writes acknowledged them after the
/// cut, and an older copy must neither replace nor displace them; a
/// target too small for the stream keeps the hottest prefix of every
/// shard and reports the rest as not stored. Re-running a restore is
/// therefore still idempotent.
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
    _cfg: &CheckpointConfig,
    obs: Option<&Obs>,
    tracer: Option<&Tracer>,
) -> Result<CkptRestoreReport, CkptError> {
    let start = Instant::now();
    let mut loader = Loader::new(&read_array(input)?, store, now, obs, tracer)?;
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

    /// A flipped payload byte is caught before any record is applied: in
    /// the first 64-byte block, and where the carry-less fold reads (from
    /// offset 64 up to the last whole 16-byte block).
    #[test]
    fn corrupted_frame_is_rejected_before_apply() {
        let src = store(1);
        fill(&src, 300);
        let (buf, _) = cut(&src, 0);
        let payload_len = u64::from_le_bytes(
            buf[HEADER_LEN + 16..HEADER_LEN + FRAME_HEAD_LEN]
                .try_into()
                .expect("8 bytes"),
        ) as usize;
        assert!(payload_len >= 4096, "payload of {payload_len} B");
        let last_block = payload_len - payload_len % 16 - 1;
        for off in [12, 64, payload_len / 2, last_block] {
            let mut bad = buf.clone();
            bad[HEADER_LEN + FRAME_HEAD_LEN + off] ^= 0xFF;
            let dst = store(1);
            let err = restore_checkpoint(
                &mut bad.as_slice(),
                &dst,
                0,
                &CheckpointConfig::default(),
                None,
                None,
            )
            .expect_err("must reject");
            assert!(
                matches!(err, CkptError::CrcMismatch { shard: 0, .. }),
                "payload offset {off}: unexpected error: {err}"
            );
            assert_eq!(
                dst.len(),
                0,
                "payload offset {off}: corrupt frame half-applied"
            );
        }
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

    /// The one-table bytewise loop [`crc32`] was before slicing.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    type Kernel = fn(&[u8]) -> u32;

    /// Both kernels: the dispatched entry point (the carry-less fold on a
    /// PCLMULQDQ host) and the portable slice-by-16 path.
    const KERNELS: [(&str, Kernel); 2] = [("crc32", crc32), ("crc32_portable", crc32_portable)];

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        for (name, f) in KERNELS {
            assert_eq!(f(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(f(b""), 0, "{name}");
        }
    }

    /// Lengths 0..=320 at 16 alignments: bytewise only (< 64), one 64-byte
    /// block, the four-lane loop, single 16-byte folds, every 1–15-byte
    /// tail.
    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        let bytes: Vec<u8> = (0..320 + 16).map(|i| (i * 37 + 11) as u8).collect();
        for align in 0..16 {
            for len in 0..=320 {
                let slice = &bytes[align..align + len];
                let want = crc32_bytewise(slice);
                for (name, f) in KERNELS {
                    assert_eq!(f(slice), want, "{name}: len {len} at offset {align}");
                }
            }
        }
    }

    /// CRC32 detects every single-bit error; so must each kernel.
    #[test]
    fn crc32_changes_on_every_single_bit_flip() {
        let mut bytes: Vec<u8> = (0..4096u32).map(|i| (i * 131 + 7) as u8).collect();
        for (name, f) in KERNELS {
            let clean = f(&bytes);
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(f(&bytes), clean, "{name}: flip of bit {bit} went unseen");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(0u8..=255u8, 0..16 * 1024),
            skip in 0usize..16,
        ) {
            let slice = &bytes[skip.min(bytes.len())..];
            let want = crc32_bytewise(slice);
            for (name, f) in KERNELS {
                proptest::prop_assert_eq!(f(slice), want, "{}", name);
            }
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
            &CheckpointConfig::default(),
            None,
            None,
        )
        .expect("restore")
    }

    /// `n` keys, then reads that pull every third one back to the front;
    /// every shard must end up applied in more than one restore batch.
    fn fill_and_touch(s: &Store, n: u32) {
        fill(s, n);
        for i in (0..n).step_by(3) {
            assert!(s.get(format!("key-{i}").as_bytes()).is_some());
        }
        assert!(recency(s).iter().all(|keys| keys.len() > RESTORE_BATCH));
    }

    #[test]
    fn restore_keeps_each_shards_recency_order() {
        let src = store(4);
        fill_and_touch(&src, 2_400);
        let (buf, _) = cut(&src, 0);
        let dst = store(4);
        restore(&buf, &dst);
        assert_eq!(recency(&dst), recency(&src));
    }

    #[test]
    fn restore_into_more_shards_keeps_relative_order() {
        let src = store(4);
        fill_and_touch(&src, 2_400);
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
        // Equal-sized items, so a shard's budget is a whole number of them;
        // a source frame spans two restore batches, and the target refuses
        // records in both.
        let item = 7 + 10 + ITEM_OVERHEAD;
        let sized = |items_per_shard: usize| {
            Store::new(StoreConfig {
                capacity_bytes: 2 * items_per_shard * item,
                shards: 2,
            })
        };
        let src = sized(700);
        for i in 1_000..2_200u32 {
            src.set(format!("key{i}").into_bytes(), vec![i as u8; 10]);
        }
        for i in (1_000..2_200u32).step_by(3) {
            assert!(src.get(format!("key{i}").as_bytes()).is_some());
        }
        let src_order = recency(&src);
        assert!(src_order.iter().all(|keys| keys.len() > RESTORE_BATCH));
        let (buf, _) = cut(&src, 0);
        let dst = sized(300);
        let restored = restore(&buf, &dst);
        assert_eq!(restored.items_stored, 2 * 300, "refused, not evicted");
        for (shard, got) in recency(&dst).iter().enumerate() {
            assert_eq!(got.len(), 300.min(src_order[shard].len()));
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
