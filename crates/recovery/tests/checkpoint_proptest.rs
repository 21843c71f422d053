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
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_recovery::checkpoint::{
    restore_checkpoint, write_checkpoint, CheckpointConfig, CkptError,
};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: restore(write(store)) reproduces every live item —
    /// same raw value bytes, same residual TTL — across arbitrary item
    /// sets, shard counts, and restore batch sizes.
    #[test]
    fn round_trip_reproduces_every_item(
        items in proptest::collection::vec(
            (0u16..200, 0u8..=255u8, 0u8..64, 0u16..100), 0..120),
        src_shards in 1usize..6,
        dst_shards in 1usize..6,
        batch in 1usize..300,
    ) {
        let now = 50u64;
        let src = fresh_store(src_shards);
        load(&src, &items, now);
        let buf = cut(&src, now);

        let dst = fresh_store(dst_shards);
        let cfg = CheckpointConfig { restore_batch: batch };
        let report = restore_checkpoint(&mut buf.as_slice(), &dst, now, &cfg, None, None)
            .expect("restore must succeed on a pristine stream");
        prop_assert_eq!(report.items_decoded, src.len() as u64);
        prop_assert_eq!(report.items_stored, report.items_decoded);
        prop_assert_eq!(dst.len(), src.len());
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
}
