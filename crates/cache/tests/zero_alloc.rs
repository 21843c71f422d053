//! Steady-state allocation accounting for the protocol response path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass (which sizes the thread-local scratch and the reusable
//! output buffer), serving pipelined get hits, get misses, delete misses,
//! and parse errors must allocate **nothing**. Storage commands allocate
//! only the value: an overwriting or evicting `set` costs **exactly one**
//! block when the stored value (4 flag bytes + data) is larger than
//! `bytes::INLINE_CAP` and none when it fits inline — keys this short are
//! inline, the arena reuses slots, the index stays put. A `delete` hit, a
//! touch flush and a TTL-wheel reap cost nothing.
//!
//! This file holds exactly one `#[test]` so no concurrent test can
//! perturb the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spotcache_cache::protocol::{serve_instrumented_into, serve_into};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::Tracer;

struct CountingAlloc;

// Per-thread counting: a process-global counter also picks up stray
// allocations from the libtest harness's own threads, which made the
// zero-allocation assertions flaky. Const-initialized TLS is itself
// allocation-free, and `try_with` tolerates thread teardown.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(p, l, new_size)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[test]
fn response_path_is_allocation_free_in_steady_state() {
    let store = Store::new(StoreConfig {
        capacity_bytes: 4 << 20,
        shards: 4,
    });

    // Populate the keys the read-path buffer will hit.
    let mut prefill = Vec::new();
    for i in 0..16 {
        prefill
            .extend_from_slice(format!("set key{i} 7 0 32\r\n{}\r\n", "v".repeat(32)).as_bytes());
    }
    let mut out = Vec::new();
    assert_eq!(serve_into(&store, &prefill, 0, &mut out), prefill.len());

    // The read-path workload: pipelined single- and multi-key get hits,
    // misses, delete misses, and two flavours of parse error, then one
    // run of 48 consecutive gets that executes as a single store batch.
    let mut input = Vec::new();
    for i in 0..16 {
        input.extend_from_slice(format!("get key{i}\r\n").as_bytes());
        input.extend_from_slice(format!("get key{i} key{} nokey{i}\r\n", (i + 3) % 16).as_bytes());
        input.extend_from_slice(format!("get missing{i}\r\n").as_bytes());
        input.extend_from_slice(format!("delete missing{i}\r\n").as_bytes());
        input.extend_from_slice(b"bogus junk\r\n");
        input.extend_from_slice(b"get\r\n");
    }
    for i in 0..16 {
        let run = format!(
            "get key{i} key{} absent{i}\r\nget absent{i}\r\nget key{i}\r\n",
            (i + 5) % 16
        );
        input.extend_from_slice(run.as_bytes());
    }

    // Warm up: first pass grows the output buffer and the thread-local
    // serve scratch to their steady-state sizes.
    for _ in 0..3 {
        out.clear();
        assert_eq!(serve_into(&store, &input, 0, &mut out), input.len());
    }

    let before = allocs();
    for _ in 0..100 {
        out.clear();
        let consumed = serve_into(&store, &input, 0, &mut out);
        assert_eq!(consumed, input.len());
    }
    let read_path_allocs = allocs() - before;
    assert_eq!(
        read_path_allocs, 0,
        "hits/misses/errors must not allocate in steady state"
    );

    // Tracing compiled in but disabled must keep the guarantee: the
    // instrumented entry point with no obs and a switched-off tracer is
    // the same hot path plus one relaxed atomic load per span point.
    let tracer = Tracer::disabled();
    for _ in 0..3 {
        out.clear();
        serve_instrumented_into(&store, &input, 0, None, Some(&tracer), &mut out);
    }
    let before = allocs();
    for _ in 0..100 {
        out.clear();
        let consumed = serve_instrumented_into(&store, &input, 0, None, Some(&tracer), &mut out);
        assert_eq!(consumed, input.len());
    }
    assert_eq!(
        allocs() - before,
        0,
        "a disabled tracer must not allocate on the read path"
    );

    // Storage commands: overwriting sets in steady state. Keys are
    // inline, the arena keeps slot and index entry, so the one block each
    // command allocates is the 36-byte stored value — replied or not.
    let sets = |prefix: &str, exptime: u64, data: &str, tail: &str| {
        let mut buf = Vec::new();
        for i in 0..16 {
            let len = data.len();
            buf.extend_from_slice(
                format!("set {prefix}{i} 7 {exptime} {len}{tail}\r\n{data}\r\n").as_bytes(),
            );
        }
        buf
    };
    // Allocations over 50 passes of `input` (16 commands each), after
    // three warm-up passes.
    let measure = |store: &Store, out: &mut Vec<u8>, input: &[u8]| {
        let mut before = 0;
        for pass in 0..53 {
            if pass == 3 {
                before = allocs();
            }
            out.clear();
            assert_eq!(serve_into(store, input, 0, out), input.len());
        }
        allocs() - before
    };
    let big = "w".repeat(32);
    let replied = measure(&store, &mut out, &sets("key", 0, &big, ""));
    let silent = measure(&store, &mut out, &sets("key", 0, &big, " noreply"));
    assert_eq!(
        (replied, silent),
        (800, 800),
        "an overwriting set allocates its value and nothing else"
    );
    let inline = measure(&store, &mut out, &sets("key", 0, &"w".repeat(18), ""));
    assert_eq!(inline, 0, "a stored value of 22 bytes lives inline");

    // A delete hit frees; it never allocates. Each pass stores 16 inline
    // values and deletes them again.
    let mut churn = sets("gone", 0, "abcd", " noreply");
    for i in 0..16 {
        churn.extend_from_slice(format!("delete gone{i}\r\n").as_bytes());
    }
    assert_eq!(
        measure(&store, &mut out, &churn),
        0,
        "set inline + delete hit"
    );
    assert_eq!(out, b"DELETED\r\n".repeat(16));

    // Evicting sets: a one-shard store that holds 16 of the 64 keys the
    // passes cycle through, so every set inserts an absent key and evicts
    // the tail into the slot it then reuses.
    let small = Store::with_capacity(16 * (3 + 36 + 56));
    let batches: Vec<Vec<u8>> = ["a", "b", "c", "d"]
        .iter()
        .map(|p| sets(p, 0, &big, ""))
        .collect();
    let mut before = (0, 0);
    for pass in 0..58 {
        if pass == 8 {
            before = (allocs(), small.snapshot_at(0).stats.evictions);
        }
        out.clear();
        serve_into(&small, &batches[pass % 4], 0, &mut out);
    }
    assert_eq!(
        (
            allocs() - before.0,
            small.snapshot_at(0).stats.evictions - before.1
        ),
        (800, 800),
        "an evicting set allocates its value only"
    );

    // TTL wheel: each pass stores 16 items that expire one tick later, so
    // the next pass's first write per shard reaps that shard's share
    // before inserting. The warm-up turns the wheel past a level-0
    // rotation, so every slot the measured ticks use has its capacity.
    let before_expired = store.snapshot_at(0).stats.expirations;
    let mut spent = 0;
    for now in 0..120u64 {
        let batch = sets("ttl", 1, &big, " noreply");
        let at = allocs();
        serve_into(&store, &batch, now, &mut out);
        if now >= 70 {
            spent += allocs() - at;
        }
    }
    assert_eq!(spent, 800, "a wheel reap must not allocate");
    assert_eq!(
        store.snapshot_at(0).stats.expirations - before_expired,
        119 * 16
    );

    // Touch flushes: each pass is a tick of its own, in which 32 gets read
    // 16 keys twice (no writer in between to drain them). A key's first
    // read in a tick queues one record and its repeat none, so the
    // explicit flush hook drains and applies 16 out of the shard's own
    // scratch — 32 drained / 16 applied while every read left a record. A
    // second round in the same tick queues, and drains, nothing.
    let gets: Vec<u8> = (0..32)
        .flat_map(|i| format!("get key{}\r\n", i % 16).into_bytes())
        .collect();
    let mut before = 0;
    for pass in 0..53u64 {
        if pass == 3 {
            before = allocs();
        }
        let now = 120 + pass;
        for records in [16, 0] {
            out.clear();
            serve_into(&store, &gets, now, &mut out);
            let flushed = store.flush_touches(now);
            assert_eq!((flushed.drained, flushed.applied), (records, records));
        }
    }
    assert_eq!(allocs() - before, 0, "a touch flush must not allocate");
}
