//! Steady-state allocation accounting for the protocol response path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass (which sizes the thread-local scratch and the reusable
//! output buffer), serving pipelined get hits, get misses, delete misses,
//! and parse errors must allocate **nothing**. Storage commands allocate
//! only the store-side key/value copies: a `set` with a reply and the
//! same `set noreply` must allocate identically, proving the response
//! writer itself adds zero allocations.
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
    // misses, delete misses, and two flavours of parse error.
    let mut input = Vec::new();
    for i in 0..16 {
        input.extend_from_slice(format!("get key{i}\r\n").as_bytes());
        input.extend_from_slice(format!("get key{i} key{} nokey{i}\r\n", (i + 3) % 16).as_bytes());
        input.extend_from_slice(format!("get missing{i}\r\n").as_bytes());
        input.extend_from_slice(format!("delete missing{i}\r\n").as_bytes());
        input.extend_from_slice(b"bogus junk\r\n");
        input.extend_from_slice(b"get\r\n");
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

    // Storage commands: overwriting sets in steady state. The replied
    // and noreply variants must allocate identically — the store copies
    // the key and value either way, and the STORED line must cost
    // nothing on top.
    let mut set_reply = Vec::new();
    let mut set_noreply = Vec::new();
    for i in 0..16 {
        let v = "w".repeat(32);
        set_reply.extend_from_slice(format!("set key{i} 7 0 32\r\n{v}\r\n").as_bytes());
        set_noreply.extend_from_slice(format!("set key{i} 7 0 32 noreply\r\n{v}\r\n").as_bytes());
    }
    for _ in 0..3 {
        out.clear();
        serve_into(&store, &set_reply, 0, &mut out);
        out.clear();
        serve_into(&store, &set_noreply, 0, &mut out);
    }

    let before = allocs();
    for _ in 0..50 {
        out.clear();
        serve_into(&store, &set_reply, 0, &mut out);
    }
    let replied = allocs() - before;

    let before = allocs();
    for _ in 0..50 {
        out.clear();
        serve_into(&store, &set_noreply, 0, &mut out);
    }
    let silent = allocs() - before;

    assert_eq!(
        replied, silent,
        "a STORED reply must not add allocations over noreply"
    );
}
