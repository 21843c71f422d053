//! The reactor's headline property, measured: idle connections cost zero
//! CPU, and polling happens only while it pays. These tests live in
//! their own integration binary, and run one at a time, so the process's
//! `/proc/self/stat` CPU accounting covers (almost) nothing but the
//! server under test.
//!
//! The old spin-then-sleep worker pool polled every connection every
//! 500 µs forever; a thousand idle connections kept a core measurably
//! busy doing nothing. The reactor parks every worker in `epoll_wait`,
//! so the same thousand connections cost *no* cycles until a byte
//! actually arrives — which is what lets a spot-instance cache node ride
//! out quiet periods on a burstable instance's baseline credits (the
//! paper's cost argument) instead of burning them on polling. A worker
//! polls before it parks only while its idle gaps stay at or under
//! 200 µs (the guest haltpoll rule, `reactor::PollWindow`): a ping-pong
//! client is polled, a client trickling requests 2 ms apart never is,
//! and once the ping-pong stops the worker is parked again.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spotcache_cache::server::{CacheClient, CacheServer, LogicalClock, ServerConfig};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::Obs;

/// Held by every test: a CPU reading must not see another test's work.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // The lock guards no data: a test that failed holding it leaves
    // nothing for the next one to distrust.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A default-configured server with obs attached, for its `reactor_*`
/// counters.
fn observed_server() -> (CacheServer, Arc<Obs>) {
    let store = Arc::new(Store::new(StoreConfig {
        capacity_bytes: 16 << 20,
        shards: 8,
    }));
    let obs = Arc::new(Obs::new());
    let server = CacheServer::start_with(
        store,
        LogicalClock::new(),
        "127.0.0.1:0",
        ServerConfig::default(),
        Some(Arc::clone(&obs)),
    )
    .unwrap();
    (server, obs)
}

/// `reactor_poll_hits_total`, `_misses_total`, `_us_total` and
/// `reactor_epoll_waits_total`, in that order.
fn poll_counters(obs: &Obs) -> [u64; 4] {
    [
        "reactor_poll_hits_total",
        "reactor_poll_misses_total",
        "reactor_poll_us_total",
        "reactor_epoll_waits_total",
    ]
    .map(|name| obs.counter(name).get())
}

/// Process CPU time (user + system) in clock ticks, from
/// `/proc/self/stat` fields 14 and 15. The comm field can contain spaces,
/// so parsing starts after the last `)`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at overall field 3 (state), so utime (field 14) and
    // stime (field 15) are at indices 11 and 12 here.
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

#[test]
fn a_thousand_idle_connections_cost_near_zero_cpu() {
    const CONNS: usize = 1_000;
    let _serial = serial();

    let store = Arc::new(Store::new(StoreConfig {
        capacity_bytes: 16 << 20,
        shards: 8,
    }));
    let clock = LogicalClock::new();
    let mut server = CacheServer::start(Arc::clone(&store), clock, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Open the fleet and hold it open, idle.
    let conns: Vec<TcpStream> = (0..CONNS)
        .map(|i| {
            TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("connect #{i} failed: {e} (check `ulimit -n`)"))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.active_connections() < CONNS {
        assert!(
            Instant::now() < deadline,
            "only {} of {CONNS} connections adopted",
            server.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Let accept/adoption churn settle, then measure a 2 s idle window.
    std::thread::sleep(Duration::from_millis(200));
    let t0 = cpu_ticks();
    std::thread::sleep(Duration::from_secs(2));
    let spent = cpu_ticks() - t0;

    // "Near zero": allow a generous 25 ticks (250 ms of CPU at the
    // standard CLK_TCK=100) for kernel bookkeeping and the test's own
    // sleeps — the polling pool burned vastly more; a truly parked
    // reactor spends ~0.
    assert!(
        spent <= 25,
        "{CONNS} idle connections burned {spent} ticks (~{} ms CPU) over a 2 s window",
        spent * 10
    );

    // The parked server is still alive: a fresh client gets served.
    let mut c = CacheClient::connect(addr).unwrap();
    assert_eq!(c.set("still-alive", b"yes", 0).unwrap(), "STORED");
    assert_eq!(
        c.get("still-alive").unwrap().as_deref(),
        Some(b"yes".as_ref())
    );

    // And shutdown stays prompt with the whole idle fleet open.
    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "stop() took {took:?} with {CONNS} idle connections open"
    );
    drop(conns);
}

/// A half-closed connection with a full write backlog must *park*, not
/// spin: the client pipelines a large response backlog, half-closes its
/// write side (so the server sees `EPOLLRDHUP`), and then reads nothing.
/// The server writes until the socket buffer fills and must then sleep in
/// `epoll_wait` — a reactor that leaves read/RDHUP interest armed on the
/// drained, half-closed socket would wake continuously instead.
/// (Distilled from a PR 7 scratch test; the slow-*reader* variant also
/// measured legitimate write work and was too machine-dependent.)
#[test]
fn half_closed_backpressured_reader_parks() {
    let _serial = serial();
    let store = Arc::new(Store::new(StoreConfig {
        capacity_bytes: 64 << 20,
        shards: 8,
    }));
    let clock = LogicalClock::new();
    let mut server = CacheServer::start(Arc::clone(&store), clock, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Store a large value, then pipeline many gets and half-close.
    let mut c = CacheClient::connect(addr).unwrap();
    let val = vec![b'v'; 16 * 1024];
    c.set("big", &val, 0).unwrap();
    drop(c);

    let s = TcpStream::connect(addr).unwrap();
    let mut w = &s;
    let req = "get big\r\n".repeat(4000); // ~64 MiB of responses
    w.write_all(req.as_bytes()).unwrap();
    s.shutdown(Shutdown::Write).unwrap();

    // Let the server fill the socket buffer and hit backpressure, then
    // measure a 2 s window in which the client reads *nothing*: every
    // worker should be parked the whole time.
    std::thread::sleep(Duration::from_millis(500));
    let t0 = cpu_ticks();
    std::thread::sleep(Duration::from_secs(2));
    let spent = cpu_ticks() - t0;
    assert!(
        spent <= 25,
        "hot spin on half-closed backpressured socket: {spent} ticks (~{} ms CPU)",
        spent * 10
    );
    server.stop();
    drop(s);
}

/// Requests 2 ms apart: every idle gap is past the 200 µs cap, so the
/// window never opens and a trickle-fed server (a backup on its
/// baseline credits) costs what it did before polling existed.
#[test]
fn a_trickle_never_polls() {
    let _serial = serial();
    let (mut server, obs) = observed_server();
    // Every gap the worker sees is long: its start to the handoff, the
    // handoff to the first request, and each request to the next.
    std::thread::sleep(Duration::from_millis(5));
    let mut c = CacheClient::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let t0 = Instant::now();
    let mut gets = 0u64;
    while t0.elapsed() < Duration::from_secs(1) {
        assert_eq!(c.get("k").unwrap(), None);
        gets += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    let [hits, misses, poll_us, waits] = poll_counters(&obs);
    assert!(waits > gets, "{waits} waits for {gets} requests");
    assert_eq!(
        (hits, misses, poll_us),
        (0, 0, 0),
        "a trickle was polled: {hits} hits, {misses} misses, {poll_us} µs"
    );
    server.stop();
}

/// Back-to-back requests: each arrives within microseconds of the last
/// reply, so nearly every batch is caught by a poll — no park, no
/// wake-up. Once the client stops, the window runs out and the worker
/// parks again at zero cost.
#[test]
fn a_ping_pong_is_polled_then_reparks() {
    let _serial = serial();
    let (mut server, obs) = observed_server();
    let mut c = CacheClient::connect(server.addr()).unwrap();
    assert_eq!(c.set("k", b"v", 0).unwrap(), "STORED");
    let [hits0, _, _, waits0] = poll_counters(&obs);
    let t0 = Instant::now();
    let mut gets = 0u64;
    while t0.elapsed() < Duration::from_secs(1) {
        assert!(c.get("k").unwrap().is_some());
        gets += 1;
    }
    let [hits, misses, poll_us, waits] = poll_counters(&obs);
    let (hits, waits) = (hits - hits0, waits - waits0);
    println!("ping-pong: {gets} requests, {waits} waits, {hits} poll hits, {misses} misses");
    assert!(
        hits as f64 >= 0.9 * waits as f64,
        "polls caught {hits} of {waits} batches over {gets} requests \
         ({misses} misses, {poll_us} µs polled in vain)"
    );

    // The client stays connected and goes quiet.
    std::thread::sleep(Duration::from_millis(200));
    let t0 = cpu_ticks();
    std::thread::sleep(Duration::from_secs(2));
    let spent = cpu_ticks() - t0;
    println!("after the ping-pong: {spent} ticks in 2 s");
    assert!(
        spent <= 25,
        "the worker kept polling after the ping-pong stopped: {spent} ticks (~{} ms CPU)",
        spent * 10
    );
    server.stop();
    drop(c);
}

/// `stop()` reaches a worker that is polling, not parked: the wake is
/// one more readiness a poll catches.
#[test]
fn stop_is_prompt_while_a_ping_pong_is_polled() {
    let _serial = serial();
    let (mut server, obs) = observed_server();
    let addr = server.addr();
    let client = std::thread::spawn(move || {
        let mut c = CacheClient::connect(addr).unwrap();
        c.set("k", b"v", 0).unwrap();
        // Until the server goes away under it.
        while c.get("k").is_ok() {}
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while poll_counters(&obs)[0] < 1_000 {
        assert!(
            Instant::now() < deadline,
            "polls never caught the ping-pong"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    println!("stop() under a polled ping-pong: {took:?}");
    assert!(
        took < Duration::from_millis(250),
        "stop() took {took:?} under a polled ping-pong"
    );
    client.join().unwrap();
}
