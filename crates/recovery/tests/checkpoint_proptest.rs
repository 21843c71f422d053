//! Property coverage for the `spotcache-ckpt-v1` codec.
//!
//! The checkpoint stream is the one artifact in the recovery stack that
//! crosses a trust boundary (it can sit on disk or transit a faulty
//! link between cut and restore), so its decoder must hold two
//! properties over *arbitrary* content: a faithful round trip for
//! anything the writer can produce, and a clean, panic-free rejection
//! of anything mangled in between — truncation, bit flips, and header
//! forgeries.

use proptest::prelude::*;
use spotcache_cache::slab::PAGE_SIZE;
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_recovery::checkpoint::{
    restore_checkpoint, write_checkpoint, CheckpointConfig, CkptError,
};
use spotcache_recovery::strategy::{RecoveryStrategy, RestoreContext, TopUpConfig};

fn fresh_store(shards: usize) -> Store {
    Store::new(StoreConfig {
        capacity_bytes: 16 << 20,
        shards,
    })
}

/// Loads a generated item set into a store. Keys are derived from the
/// id so duplicates exercise last-write-wins; values carry arbitrary
/// bytes (including b"\r\n" and NULs — the binary codec must not care).
fn load(
    store: &Store,
    items: &[(u16, u8, u8, u16)], // (key id, value byte, value len, ttl)
    now: u64,
) {
    for &(kid, vbyte, vlen, ttl) in items {
        let key = format!("key-{kid}");
        let mut value = vec![vbyte; 1 + vlen as usize];
        value.extend_from_slice(b"\r\n\0tail");
        let ttl = (ttl > 0).then_some(ttl as u64);
        store.set_at(key.into_bytes(), value, now, ttl);
    }
}

/// Every shard's `(key, value, ttl)` at `now`, hottest first.
type Recency = Vec<Vec<(Vec<u8>, Vec<u8>, Option<u64>)>>;

fn recency(store: &Store, now: u64) -> Recency {
    let shards = 0..store.shard_count();
    let walk = |shard| {
        let mut items = Vec::new();
        store.visit_shard_at(shard, now, |k, v, ttl| {
            items.push((k.to_vec(), v.to_vec(), ttl))
        });
        items
    };
    shards.map(walk).collect()
}

/// `per_shard` × the store's shard count keys more (`bulk-<i>`, no TTL):
/// at least one shard, and so one whole-shard frame, then holds more than
/// the loader's 512-record restore batch when `per_shard` exceeds it.
fn load_bulk(store: &Store, per_shard: usize, now: u64) {
    for i in 0..per_shard * store.shard_count() {
        store.set_at(
            format!("bulk-{i}").into_bytes(),
            i.to_le_bytes().to_vec(),
            now,
            None,
        );
    }
}

/// What a frame must exceed to be applied in more than one batch.
const RESTORE_BATCH: usize = 512;

fn cut(store: &Store, now: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_checkpoint(store, now, &mut buf, None, None).expect("write_checkpoint");
    buf
}

/// The round trip at one fixed point the random cases below do not reach:
/// values spanning several slab classes (64 B … 7 KiB), a 4-shard source
/// restored into 8 shards, and residual TTLs probed on both sides of every
/// expiry (`now+10 … now+60`) out to the far future.
#[test]
fn round_trip_across_slab_classes_from_4_to_8_shards() {
    let now = 100u64;
    let src = fresh_store(4);
    for k in 0..400u32 {
        let value = vec![(k % 251) as u8; 64 + (k as usize % 8) * 1024];
        let ttl = match k % 3 {
            0 => None,
            1 => Some(60),
            _ => Some(10 + k as u64 % 50),
        };
        src.set_at(format!("smoke-{k}").into_bytes(), value, now, ttl);
    }
    let buf = cut(&src, now);

    let dst = fresh_store(8);
    let cfg = CheckpointConfig::default();
    let report = restore_checkpoint(&mut buf.as_slice(), &dst, now, &cfg, None, None)
        .expect("restore must succeed on a pristine stream");
    assert_eq!(report.items_decoded, 400);
    assert_eq!(report.items_stored, 400);
    assert_eq!(dst.len(), src.len());
    for k in 0..400u32 {
        let key = format!("smoke-{k}");
        for probe in [now, now + 5, now + 30, now + 59, now + 61, now + 1000] {
            assert_eq!(
                dst.get_at(key.as_bytes(), probe),
                src.get_at(key.as_bytes(), probe),
                "{key} diverged at t={probe}"
            );
        }
    }
}

// Each property runs 64 cases; in about a quarter of the two round trips'
// cases a frame is over one restore batch. The whole file runs in about
// 0.2 s in a debug build on a 2-core x86_64 host.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: restore(write(store)) reproduces every live item —
    /// same raw value bytes, same residual TTL — across arbitrary item
    /// sets and shard counts, with frames on both sides of one restore
    /// batch.
    #[test]
    fn round_trip_reproduces_every_item(
        items in proptest::collection::vec(
            (0u16..200, 0u8..=255u8, 0u8..64, 0u16..100), 0..120),
        src_shards in 1usize..6,
        dst_shards in 1usize..6,
        bulk in 0u8..4,
    ) {
        let now = 50u64;
        let src = fresh_store(src_shards);
        load(&src, &items, now);
        if bulk == 0 {
            load_bulk(&src, RESTORE_BATCH + 88, now);
        }
        let buf = cut(&src, now);

        let dst = fresh_store(dst_shards);
        let cfg = CheckpointConfig::default();
        let report = restore_checkpoint(&mut buf.as_slice(), &dst, now, &cfg, None, None)
            .expect("restore must succeed on a pristine stream");
        prop_assert_eq!(report.items_decoded, src.len() as u64);
        prop_assert_eq!(report.items_stored, report.items_decoded);
        prop_assert_eq!(dst.len(), src.len());
        // Every item, the bulk ones too, by key: the shard counts differ.
        let sorted = |store: &Store| {
            let mut items = recency(store, now).concat();
            items.sort();
            items
        };
        prop_assert_eq!(sorted(&dst), sorted(&src));
        for &(kid, ..) in &items {
            let key = format!("key-{kid}");
            // Value equality now, and TTL equality probed at the far
            // future edge: both copies must agree at every time.
            prop_assert_eq!(dst.get_at(key.as_bytes(), now), src.get_at(key.as_bytes(), now));
            for probe in [now + 1, now + 50, now + 99, now + 200] {
                prop_assert_eq!(
                    dst.get_at(key.as_bytes(), probe).is_some(),
                    src.get_at(key.as_bytes(), probe).is_some(),
                    "key {} diverged at t={}", key, probe
                );
            }
        }
    }

    /// Truncation at any point yields a clean error (never a panic,
    /// never a silent success), and a frame cut short never half-applies
    /// its own records beyond fully-validated earlier frames.
    #[test]
    fn truncation_is_rejected_cleanly(
        items in proptest::collection::vec(
            (0u16..100, 0u8..=255u8, 0u8..32, 0u16..50), 1..60),
        shards in 1usize..5,
        frac in 0.0f64..1.0,
    ) {
        let src = fresh_store(shards);
        load(&src, &items, 0);
        let buf = cut(&src, 0);
        let cut_at = ((buf.len() - 1) as f64 * frac) as usize;
        let dst = fresh_store(shards);
        let err = restore_checkpoint(
            &mut &buf[..cut_at], &dst, 0, &CheckpointConfig::default(), None, None,
        );
        prop_assert!(err.is_err(), "truncated stream (cut at {}) must not restore", cut_at);
        prop_assert!(
            matches!(err.unwrap_err(), CkptError::Truncated | CkptError::BadMagic),
            "truncation must surface as Truncated/BadMagic"
        );
    }

    /// A single flipped byte anywhere in the stream is rejected (CRC,
    /// magic, version, length, or count check — some guard fires), or,
    /// at worst, restores *exactly* the original item set (flips in
    /// ignored header fields such as `flags` or `snapshot_now`).
    #[test]
    fn single_byte_corruption_never_loads_silently_wrong(
        items in proptest::collection::vec(
            (0u16..100, 0u8..=255u8, 0u8..32, 0u16..50), 1..60),
        shards in 1usize..5,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255u8,
    ) {
        let src = fresh_store(shards);
        load(&src, &items, 0);
        let mut buf = cut(&src, 0);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= flip;
        let dst = fresh_store(shards);
        let result = restore_checkpoint(
            &mut buf.as_slice(), &dst, 0, &CheckpointConfig::default(), None, None,
        );
        match result {
            Err(_) => {} // rejected: the common, expected outcome
            Ok(report) => {
                // The only survivable flips are in fields the decoder
                // deliberately ignores — the restore must be perfect.
                prop_assert_eq!(report.items_decoded, src.len() as u64);
                prop_assert_eq!(dst.len(), src.len());
                for &(kid, ..) in &items {
                    let key = format!("key-{kid}");
                    prop_assert_eq!(
                        dst.get_at(key.as_bytes(), 0),
                        src.get_at(key.as_bytes(), 0),
                        "flip at {} byte {:#04x} silently diverged key {}", pos, flip, key
                    );
                }
            }
        }
    }

    /// Every version other than 1 is rejected as `BadVersion` — the
    /// field is honored, not ignored.
    #[test]
    fn wrong_version_headers_are_rejected(raw in 0u16..=u16::MAX) {
        let version = if raw == 1 { 0 } else { raw }; // any version but the real one
        let src = fresh_store(2);
        src.set("k", "v");
        let mut buf = cut(&src, 0);
        buf[6..8].copy_from_slice(&version.to_le_bytes());
        let err = restore_checkpoint(
            &mut buf.as_slice(), &fresh_store(2), 0,
            &CheckpointConfig::default(), None, None,
        ).expect_err("forged version must be rejected");
        prop_assert!(matches!(err, CkptError::BadVersion(v) if v == version));
    }

    /// The unwarned restore (cut inline, hottest slice of every shard
    /// first) and a whole stream (`write_checkpoint` then
    /// `restore_checkpoint`) leave the same target: the same items in the
    /// same per-shard recency order, whatever the shard count, the TTLs,
    /// the reads that reordered the source, the classless values over a
    /// slab page, a target too small to take everything, and frames on
    /// both sides of one restore batch.
    #[test]
    fn inline_unwarned_restore_equals_a_whole_stream(
        items in proptest::collection::vec(
            (0u16..150, 0u8..=255u8, 0u8..16, 0u16..60), 0..80),
        reads in proptest::collection::vec((0u16..150, 0u64..3), 0..80),
        shards in 1usize..=8,
        shard_room in 0usize..3,
        bulk in 0u8..4,
    ) {
        let now = 20u64;
        let src = fresh_store(shards);
        if bulk == 0 {
            // Each of the inline restore's rounds holds a slice of every
            // shard, so these frames are over one restore batch too.
            load_bulk(&src, RESTORE_BATCH + 88, 0);
        }
        for &(kid, vbyte, size, ttl) in &items {
            let len = if size == 15 { PAGE_SIZE + 100 } else { size as usize * 37 };
            let ttl = (ttl > 0).then_some(ttl as u64);
            src.set_at(format!("key-{kid}").into_bytes(), vec![vbyte; len], 0, ttl);
        }
        let mut tick = 0;
        for &(kid, dt) in &reads {
            tick = (tick + dt).min(now);
            src.get_at(format!("key-{kid}").as_bytes(), tick);
        }
        let target = || Store::new(StoreConfig {
            capacity_bytes: shards * [2 << 10, 8 << 10, 16 << 20][shard_room],
            shards,
        });
        let cfg = CheckpointConfig::default();

        let streamed = target();
        let whole = restore_checkpoint(&mut cut(&src, now).as_slice(), &streamed, now, &cfg, None, None)
            .expect("restore must succeed on a pristine stream");

        let inline = target();
        let addr = "127.0.0.1:9".parse().expect("an address");
        let report = RecoveryStrategy::Hybrid { checkpoint: cfg, top_up: TopUpConfig::default() }
            .restore(&RestoreContext {
                backup: &src,
                target_addr: addr,
                target_store: &inline,
                checkpoint: None,
                tail: &[],
                now,
                obs: None,
                tracer: None,
            })
            .expect("an unwarned checkpoint restore touches no socket");
        let ckpt = report.ckpt.expect("a checkpoint report");
        prop_assert_eq!(ckpt.items_stored, whole.items_stored);
        prop_assert_eq!(ckpt.items_decoded, whole.items_decoded);
        prop_assert_eq!(recency(&inline, now), recency(&streamed, now));
        if shard_room == 2 {
            prop_assert_eq!(recency(&inline, now), recency(&src, now));
        }
    }
}
