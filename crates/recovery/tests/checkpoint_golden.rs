//! The `spotcache-ckpt-v1` bytes, pinned.
//!
//! Both stores below were cut by the writer as it stood before the
//! data path was rebuilt (PR 14): the large one is pinned by length,
//! CRC32 and FNV-1a of the whole stream, the small one is checked in
//! byte for byte as `fixtures/parent_v1_small.ckpt`. A writer that moves
//! one byte of the format, or a reader that no longer takes a stream an
//! older build cut, fails here.

use spotcache_cache::store::{Store, StoreConfig};
use spotcache_recovery::checkpoint::{restore_checkpoint, write_checkpoint, CheckpointConfig};

/// Sets happen at this logical time, the cut at [`CUT_AT`].
const SET_AT: u64 = 10;
const CUT_AT: u64 = 77;

/// Length, CRC32 and FNV-1a of the stream the pre-PR-14 writer cut from
/// [`big_store`] at [`CUT_AT`].
const GOLDEN_LEN: usize = 2_171_016;
const GOLDEN_CRC32: u32 = 0x611e_d25b;
const GOLDEN_FNV: u64 = 0x677a_2735_7f5f_f05d;

/// A stream the pre-PR-14 writer cut from [`small_store`] at [`CUT_AT`].
const PARENT_SMALL: &[u8] = include_bytes!("fixtures/parent_v1_small.ckpt");

fn value_for(i: u32) -> Vec<u8> {
    match i {
        // No slab class holds these: `slab_class` is the sentinel.
        150 | 350 => vec![i as u8; (1 << 20) + 4_096],
        // At most 22 bytes: `Bytes` keeps them inline, no heap block.
        _ if i.is_multiple_of(7) => format!("v{i}").into_bytes(),
        _ => (0..40 + i % 300).map(|b| (b ^ i) as u8).collect(),
    }
}

fn ttl_for(i: u32) -> Option<u64> {
    i.is_multiple_of(3).then_some(1_000 + u64::from(i))
}

fn fill(store: &Store, n: u32) {
    for i in 0..n {
        store.set_at(
            format!("g-{i}").into_bytes(),
            value_for(i),
            SET_AT,
            ttl_for(i),
        );
    }
    // Reads reorder the LRU through the touch log; the cut must flush
    // it first or the record order moves.
    for i in (0..n).step_by(5) {
        assert!(store.get_at(format!("g-{i}").as_bytes(), SET_AT).is_some());
    }
    // Two items that expire before the cut: they must not be written.
    store.set_at("gone-1", "x", SET_AT, Some(5));
    store.set_at("gone-2", vec![7u8; 200], SET_AT, Some(CUT_AT - SET_AT));
}

/// 400 items over 4 shards: TTL'd, oversized and inline values.
fn big_store() -> Store {
    let store = Store::new(StoreConfig {
        capacity_bytes: 64 << 20,
        shards: 4,
    });
    fill(&store, 400);
    store
}

/// 24 small items over 2 shards.
fn small_store() -> Store {
    let store = Store::new(StoreConfig {
        capacity_bytes: 1 << 20,
        shards: 2,
    });
    fill(&store, 24);
    store
}

fn cut(store: &Store) -> Vec<u8> {
    let mut buf = Vec::new();
    let report = write_checkpoint(store, CUT_AT, &mut buf, None, None).expect("cut");
    assert_eq!(report.bytes, buf.len() as u64);
    buf
}

/// Bytewise CRC32 (IEEE, reflected), independent of the codec's own.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn writer_reproduces_the_parent_stream_of_the_big_store() {
    let buf = cut(&big_store());
    assert_eq!(
        (buf.len(), crc32_reference(&buf), fnv1a(&buf)),
        (GOLDEN_LEN, GOLDEN_CRC32, GOLDEN_FNV),
        "the spotcache-ckpt-v1 bytes moved"
    );
}

#[test]
fn writer_reproduces_the_parent_fixture_byte_for_byte() {
    assert_eq!(cut(&small_store()), PARENT_SMALL);
}

#[test]
fn reader_restores_the_parent_fixture_item_for_item() {
    let restore_at = 5_000;
    let dst = Store::new(StoreConfig {
        capacity_bytes: 1 << 20,
        shards: 3,
    });
    let report = restore_checkpoint(
        &mut &PARENT_SMALL[..],
        &dst,
        restore_at,
        &CheckpointConfig::default(),
        None,
        None,
    )
    .expect("restore");
    assert_eq!(report.items_decoded, 24);
    assert_eq!(report.items_stored, 24);
    assert_eq!(report.bytes, PARENT_SMALL.len() as u64);
    assert_eq!(dst.len_at(restore_at), 24);
    for i in 0..24u32 {
        let key = format!("g-{i}");
        assert_eq!(
            dst.get_at(key.as_bytes(), restore_at).as_deref(),
            Some(value_for(i).as_slice()),
            "{key}"
        );
        // TTLs travel as what remained at the cut and restart at the
        // restore's clock.
        if let Some(ttl) = ttl_for(i) {
            let left = ttl - (CUT_AT - SET_AT);
            assert!(dst.contains_at(key.as_bytes(), restore_at + left - 1));
            assert!(!dst.contains_at(key.as_bytes(), restore_at + left));
        } else {
            assert!(dst.contains_at(key.as_bytes(), u64::MAX));
        }
    }
    assert!(!dst.contains(b"gone-1") && !dst.contains(b"gone-2"));
}
