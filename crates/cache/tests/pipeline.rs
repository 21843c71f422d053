//! Data-plane integration tests: the pipelined serving path must be
//! invisible to clients. Splitting a command stream at arbitrary byte
//! boundaries, batching runs of `get`s, and multiplexing connections
//! across the reactor workers may change *how* commands execute, but never
//! the bytes that come back or the store state left behind.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use spotcache_cache::protocol::{serve, serve_instrumented_into, serve_into, ProtocolObs};
use spotcache_cache::server::{CacheClient, CacheServer, LogicalClock, ServerConfig};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::{Obs, Tracer};

fn fresh_store() -> Store {
    Store::new(StoreConfig {
        capacity_bytes: 4 << 20,
        shards: 4,
    })
}

/// Renders op tuples into a protocol stream over a small shared key space,
/// so the mix includes hits, misses, overwrites, deletes of live and dead
/// keys, contended `add`s, multi-key `get`s, and parse errors.
fn build_stream(ops: &[(u8, u8, u8)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &(op, kid, x) in ops {
        let k = kid % 12;
        match op % 7 {
            0 | 1 => {
                let len = (x % 40) as usize;
                let val = vec![b'a' + (x % 26); len];
                buf.extend_from_slice(format!("set key{k} {x} 0 {len}\r\n").as_bytes());
                buf.extend_from_slice(&val);
                buf.extend_from_slice(b"\r\n");
            }
            2 => buf.extend_from_slice(format!("get key{k}\r\n").as_bytes()),
            3 => buf.extend_from_slice(
                format!("get key{k} key{} key{}\r\n", (k + 1) % 12, (k + 5) % 12).as_bytes(),
            ),
            4 => buf.extend_from_slice(format!("delete key{k}\r\n").as_bytes()),
            5 => buf.extend_from_slice(format!("add key{k} 0 0 1\r\ny\r\n").as_bytes()),
            _ => buf.extend_from_slice(b"bogus junk\r\n"),
        }
    }
    buf
}

/// Renders op tuples into bytes no client should send, mixed with valid
/// commands: truncated commands, data blocks of the wrong length, runs of
/// bare CR and LF, and pseudo-random bytes.
fn build_hostile(ops: &[(u8, u8, u8)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &(op, kid, x) in ops {
        match op % 6 {
            0 | 1 => buf.extend_from_slice(&build_stream(&[(x, kid, x.rotate_left(3))])),
            2 => {
                let cmd = build_stream(&[(x, kid, x)]);
                buf.extend_from_slice(&cmd[..x as usize % cmd.len()]);
            }
            3 => {
                let (claimed, sent) = (x % 9, (x / 9) % 9);
                buf.extend_from_slice(format!("set key{} 0 0 {claimed}\r\n", kid % 12).as_bytes());
                buf.extend_from_slice(&vec![b'd'; sent as usize]);
                if x & 1 == 0 {
                    buf.extend_from_slice(b"\r\n");
                }
            }
            4 => buf.extend((0..x % 8).map(|i| if (x >> i) & 1 == 1 { b'\r' } else { b'\n' })),
            _ => {
                let mut state = u32::from(x) << 8 | u32::from(kid);
                buf.extend((0..x % 24).map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 24) as u8
                }));
            }
        }
    }
    buf
}

/// Serves `input` in the pieces `points` cut it into, carrying the
/// unconsumed tail from one call to the next as a connection does. With
/// `skip_unended`, a piece is served only when it (with the byte before
/// it) holds a CRLF or the tail already did: the server's rule for
/// skipping reads that cannot complete a command. Returns the replies,
/// the bytes consumed in all, and the store.
fn serve_in_pieces(input: &[u8], points: &[usize], skip_unended: bool) -> (Vec<u8>, usize, Store) {
    let crlf = |b: &[u8]| b.windows(2).any(|w| w == b"\r\n");
    let store = fresh_store();
    let mut pending: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    let (mut fed, mut line_waiting) = (0usize, false);
    for &p in points {
        let seam = pending.len().saturating_sub(1);
        pending.extend_from_slice(&input[fed..p.max(fed)]);
        fed = fed.max(p);
        if skip_unended && !line_waiting && !crlf(&pending[seam..]) {
            continue;
        }
        let n = serve_into(&store, &pending, 0, &mut out);
        assert!(
            n <= pending.len(),
            "consumed {n} of {} bytes",
            pending.len()
        );
        pending.drain(..n);
        line_waiting = crlf(&pending);
    }
    (out, input.len() - pending.len(), store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding a stream in arbitrary chunks through the incremental
    /// `serve_into` path produces byte-identical output — and an
    /// identical store — to single-shot `serve` over the whole buffer.
    #[test]
    fn chunked_serving_matches_single_shot(
        ops in proptest::collection::vec((0u8..7, 0u8..12, 0u8..=255u8), 1..40),
        cuts in proptest::collection::vec(0u32..1000, 0..8),
    ) {
        let input = build_stream(&ops);

        let s1 = fresh_store();
        let (expect, consumed_single) = serve(&s1, &input, 0);

        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize * input.len() / 1000)
            .collect();
        points.push(input.len());
        points.sort_unstable();

        let s2 = fresh_store();
        let mut pending: Vec<u8> = Vec::new();
        let mut out = Vec::new();
        let mut fed = 0usize;
        for &p in &points {
            if p > fed {
                pending.extend_from_slice(&input[fed..p]);
                fed = p;
            }
            let n = serve_into(&s2, &pending, 0, &mut out);
            pending.drain(..n);
        }

        prop_assert_eq!(&out, &expect, "response bytes diverged");
        prop_assert_eq!(input.len() - pending.len(), consumed_single);
        prop_assert_eq!(s2.snapshot_at(0).stats, s1.snapshot_at(0).stats);
        prop_assert_eq!(s2.len(), s1.len());
        prop_assert_eq!(s2.snapshot_at(0).used_bytes, s1.snapshot_at(0).used_bytes);
    }

    /// The same chunk-boundary property through the instrumented entry
    /// under every `(obs, tracer)` combination: metrics and spans are
    /// recorded on the side, and the wire bytes, consumed count, and
    /// store state stay byte-identical to the uninstrumented single shot.
    #[test]
    fn chunked_serving_with_tracing_matches_single_shot(
        ops in proptest::collection::vec((0u8..7, 0u8..12, 0u8..=255u8), 1..40),
        cuts in proptest::collection::vec(0u32..1000, 0..8),
    ) {
        let input = build_stream(&ops);

        let s1 = fresh_store();
        let (expect, consumed_single) = serve(&s1, &input, 0);

        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize * input.len() / 1000)
            .collect();
        points.push(input.len());
        points.sort_unstable();

        for (observed, traced) in [(false, false), (true, false), (false, true), (true, true)] {
            let obs = Arc::new(Obs::new());
            let po = observed.then(|| ProtocolObs::new(Arc::clone(&obs)));
            let tracer = traced.then(|| Tracer::all(1 << 16));
            let s2 = fresh_store();
            let mut pending: Vec<u8> = Vec::new();
            let mut out = Vec::new();
            let mut fed = 0usize;
            for &p in &points {
                if p > fed {
                    pending.extend_from_slice(&input[fed..p]);
                    fed = p;
                }
                let n = serve_instrumented_into(
                    &s2, &pending, 0, po.as_ref(), tracer.as_deref(), &mut out,
                );
                pending.drain(..n);
            }

            prop_assert_eq!(
                &out, &expect,
                "obs={} tracer={} perturbed the wire output", observed, traced
            );
            prop_assert_eq!(input.len() - pending.len(), consumed_single);
            prop_assert_eq!(s2.snapshot_at(0).stats, s1.snapshot_at(0).stats);
            prop_assert_eq!(s2.len(), s1.len());
            prop_assert_eq!(s2.snapshot_at(0).used_bytes, s1.snapshot_at(0).used_bytes);
            if let Some(tracer) = &tracer {
                prop_assert!(!tracer.is_empty(), "enabled tracer recorded nothing");
                prop_assert!(tracer.spans().iter().all(|r| r.cat == "protocol"));
            }
            // Every complete command is either counted as an op or as a
            // parse error; without obs the registry stays empty.
            let counted: u64 = ["get", "store", "delete", "arith", "other"]
                .iter()
                .map(|op| obs.counter(&format!("cache_{op}_total")).get())
                .sum::<u64>()
                + obs.counter("cache_parse_errors_total").get();
            prop_assert_eq!(counted, if observed { ops.len() as u64 } else { 0 });
        }
    }

    /// The TCP data plane is invisible: the same op stream, written over a
    /// socket at arbitrary chunk boundaries, comes back byte-identical to
    /// single-shot in-process `serve`, leaving identical store state
    /// behind.
    #[test]
    fn tcp_serving_is_byte_identical_to_in_process_serve(
        ops in proptest::collection::vec((0u8..7, 0u8..12, 0u8..=255u8), 1..40),
        cuts in proptest::collection::vec(0u32..1000, 0..6),
    ) {
        let input = build_stream(&ops);

        let s1 = fresh_store();
        let (expect, _) = serve(&s1, &input, 0);

        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize * input.len() / 1000)
            .collect();
        points.push(input.len());
        points.sort_unstable();

        let store = Arc::new(fresh_store());
        let clock = LogicalClock::new();
        let mut server = CacheServer::start_full(
            Arc::clone(&store),
            clock,
            "127.0.0.1:0",
            ServerConfig { workers: 1, ..ServerConfig::default() },
            None,
            None,
        )
        .unwrap();
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut fed = 0usize;
        for &p in &points {
            if p > fed {
                sock.write_all(&input[fed..p]).unwrap();
                fed = p;
            }
        }
        let mut got = vec![0u8; expect.len()];
        sock.read_exact(&mut got).expect("server under-delivered");
        drop(sock);
        server.stop();

        prop_assert_eq!(&got, &expect, "reactor diverged from serve()");
        prop_assert_eq!(store.snapshot_at(0).stats, s1.snapshot_at(0).stats);
        prop_assert_eq!(store.len(), s1.len());
        prop_assert_eq!(store.snapshot_at(0).used_bytes, s1.snapshot_at(0).used_bytes);
    }

    /// Bytes no client should send never panic the protocol or make it
    /// consume more than it was given, and serving them in arbitrary
    /// pieces (a CRLF split between two included) gives the replies, the
    /// consumed count and the store of one call over all of them, whether
    /// every piece is served or only those the server would serve.
    #[test]
    fn hostile_bytes_serve_alike_in_any_pieces(
        ops in proptest::collection::vec((0u8..6, 0u8..12, 0u8..=255u8), 1..60),
        cuts in proptest::collection::vec(0u32..1000, 0..12),
    ) {
        let input = build_hostile(&ops);
        let single = fresh_store();
        let (expect, consumed) = serve(&single, &input, 0);
        prop_assert!(consumed <= input.len());

        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize * input.len() / 1000)
            .collect();
        // Cut inside the first CRLF too, so its halves arrive apart.
        if let Some(at) = input.windows(2).position(|w| w == b"\r\n") {
            points.push(at + 1);
        }
        points.push(input.len());
        points.sort_unstable();
        for skip_unended in [false, true] {
            let (out, total, store) = serve_in_pieces(&input, &points, skip_unended);
            prop_assert_eq!(&out, &expect, "replies diverged (skip_unended {})", skip_unended);
            prop_assert_eq!(total, consumed);
            prop_assert_eq!(store.snapshot_at(0).stats, single.snapshot_at(0).stats);
            prop_assert_eq!(store.len(), single.len());
        }
    }
}

/// N concurrent clients hammer the server with
/// pipelined batches on thread-unique keys; every batch's response must
/// come back complete, in order, with nothing lost or duplicated.
#[test]
fn hammer_pipelined_clients_lose_nothing() {
    hammer(None);
}

/// The same hammer with span tracing enabled on the server: responses
/// stay byte-exact while the tracer fills with server+protocol spans.
#[test]
fn hammer_with_tracing_enabled_stays_byte_exact() {
    let tracer = Tracer::all(1 << 16);
    hammer(Some(Arc::clone(&tracer)));
    let cats = tracer.categories();
    assert!(cats.contains(&"protocol"), "{cats:?}");
    assert!(cats.contains(&"server"), "{cats:?}");
    spotcache_obs::export::validate_json(&tracer.chrome_trace_json()).unwrap();
}

fn hammer(tracer: Option<Arc<Tracer>>) {
    let store = Arc::new(fresh_store());
    let clock = LogicalClock::new();
    let mut server = CacheServer::start_full(
        store,
        clock,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        None,
        tracer,
    )
    .unwrap();
    let addr = server.addr();

    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_nodelay(true).unwrap();
                for batch in 0..8 {
                    let mut req = Vec::new();
                    let mut expect = Vec::new();
                    for i in 0..32 {
                        let key = format!("t{t}b{batch}i{i}");
                        req.extend_from_slice(
                            format!("set {key} 0 0 2\r\nxy\r\nget {key}\r\n").as_bytes(),
                        );
                        expect.extend_from_slice(
                            format!("STORED\r\nVALUE {key} 0 2\r\nxy\r\nEND\r\n").as_bytes(),
                        );
                    }
                    s.write_all(&req).unwrap();
                    let mut got = vec![0u8; expect.len()];
                    s.read_exact(&mut got).unwrap();
                    assert!(
                        got == expect,
                        "thread {t} batch {batch}: responses lost, duplicated, or reordered"
                    );
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    server.stop();
    assert_eq!(server.active_connections(), 0);
}

/// One worker, two connections: a deep pipeline streams `get`s as fast as
/// its socket takes them while a neighbour sends one `get` every 2 ms. A
/// pass over the stream ends once 64 KiB of replies are waiting, so the
/// worker is back in `epoll_wait` — and at the neighbour — at least once
/// per (64 KiB + one read chunk's replies) it serves. Gated on those
/// counts; the latencies are printed (`--nocapture`), not asserted.
#[test]
fn a_streaming_connection_does_not_starve_its_neighbour() {
    const KEY: &str = "a-key-of-thirty-two-bytes-------";
    const REPLY_BOUND: usize = 64 * 1024; // server::BUF_RETAIN_MAX
    const READ_CHUNK: usize = 16 * 1024; // server::READ_CHUNK
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let command = format!("get {KEY}\r\n");
    let reply = format!("VALUE {KEY} 0 100\r\n").len() + 100 + "\r\nEND\r\n".len();
    let per_pass = REPLY_BOUND + (READ_CHUNK / command.len() + 1) * reply;

    let obs = Arc::new(Obs::new());
    let mut server = CacheServer::start_full(
        Arc::new(fresh_store()),
        LogicalClock::new(),
        "127.0.0.1:0",
        cfg,
        Some(Arc::clone(&obs)),
        None,
    )
    .unwrap();
    let yields = || obs.counter("reactor_yields_total").get();
    let waits = || obs.counter("reactor_epoll_waits_total").get();

    let mut paced = CacheClient::connect(server.addr()).unwrap();
    assert_eq!(paced.set(KEY, &[b'v'; 100], 0).unwrap(), "STORED");
    let mut pace = |n: usize| {
        let mut lat: Vec<Duration> = (0..n)
            .map(|_| {
                let t0 = Instant::now();
                assert!(paced.get(KEY).unwrap().is_some());
                let took = t0.elapsed();
                std::thread::sleep(Duration::from_millis(2));
                took
            })
            .collect();
        lat.sort_unstable();
        (lat[n / 2], lat[n - 1])
    };

    let alone = pace(50);
    assert_eq!(yields(), 0, "one reply per pass never fills the buffer");

    let waits_before = waits();
    let mut tx = TcpStream::connect(server.addr()).unwrap();
    let mut rx = tx.try_clone().unwrap();
    let done = AtomicBool::new(false);
    // The writer gives up by itself, so a failed assertion below unwinds
    // through the scope instead of waiting on it for ever.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (beside, stop_took, reply_bytes) = std::thread::scope(|scope| {
        // Either end may find the socket gone once the server stops.
        scope.spawn(|| {
            let batch = command.repeat(1024);
            while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
                if tx.write_all(batch.as_bytes()).is_err() {
                    break;
                }
            }
            let _ = tx.shutdown(Shutdown::Write);
        });
        let discard = scope.spawn(|| {
            let mut chunk = vec![0u8; 256 * 1024];
            let mut total = 0usize;
            while let Ok(n @ 1..) = rx.read(&mut chunk) {
                total += n;
            }
            total
        });
        while yields() == 0 {
            assert!(Instant::now() < deadline, "the stream never yielded");
            std::thread::sleep(Duration::from_millis(1));
        }
        let beside = pace(150);
        let t0 = Instant::now();
        server.stop();
        let stop_took = t0.elapsed();
        done.store(true, Ordering::SeqCst);
        (beside, stop_took, discard.join().unwrap())
    });
    let passes = waits() - waits_before;
    println!(
        "neighbour p50/max: alone {:?}/{:?}, beside the stream {:?}/{:?}; stop() under \
         the stream {stop_took:?}; {reply_bytes} reply bytes, {passes} epoll_waits, {} yields",
        alone.0,
        alone.1,
        beside.0,
        beside.1,
        yields()
    );
    assert!(
        passes as usize >= reply_bytes / per_pass,
        "{reply_bytes} reply bytes in {passes} passes: over {per_pass} a pass"
    );
}
