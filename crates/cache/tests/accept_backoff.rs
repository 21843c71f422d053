//! The accept loop must not burn a core while the process is out of file
//! descriptors.
//!
//! Under `EMFILE` the pending connection stays in the listen queue, so
//! the level-triggered listener reports readable on every wait; without a
//! pause between retries the loop spins at 100 % CPU until fds free up —
//! on exactly the instance class whose CPU credits the paper banks.
//!
//! This file holds exactly one `#[test]` and lowers `RLIMIT_NOFILE`, so it
//! needs a process of its own.

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::raw::c_int;
use std::sync::Arc;
use std::time::Duration;

use spotcache_cache::server::{CacheServer, LogicalClock, ServerConfig};
use spotcache_cache::store::Store;
use spotcache_obs::Obs;

/// The kernel's `struct rlimit` (`rlim_t` is 64 bits on 64-bit Linux).
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn set_nofile_limit(cur: u64, max: u64) {
    let lim = RLimit { cur, max };
    // SAFETY: `lim` is a valid, initialised `struct rlimit` for the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit");
}

#[test]
fn fd_exhaustion_does_not_spin_the_accept_loop() {
    let store = Arc::new(Store::with_capacity(1 << 20));
    let obs = Arc::new(Obs::new());
    let mut server = CacheServer::start_with(
        store,
        LogicalClock::new(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        Some(Arc::clone(&obs)),
    )
    .unwrap();
    let retries = obs.counter("server_accept_transient_errors_total");

    let mut old = RLimit { cur: 0, max: 0 };
    // SAFETY: `old` is a valid out-pointer for one `struct rlimit`.
    assert_eq!(
        unsafe { getrlimit(RLIMIT_NOFILE, &mut old) },
        0,
        "getrlimit"
    );
    set_nofile_limit(64, old.max);

    // Fill the fd table, then trade the last slot for a client socket:
    // the connection completes in the listen queue, but the server's
    // `accept` has no descriptor to give it.
    let mut hogs = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        hogs.push(f);
    }
    hogs.pop();
    let mut client = TcpStream::connect(server.addr()).unwrap();

    std::thread::sleep(Duration::from_millis(300));
    let spins = retries.get();

    drop(hogs);
    set_nofile_limit(old.cur, old.max);

    // One retry per pause: ~150 in 300 ms. An unpaused loop makes
    // hundreds of thousands.
    assert!(spins >= 1, "accept never hit the fd limit");
    assert!(
        spins < 1_000,
        "accept loop spun {spins} times in 300 ms of fd exhaustion"
    );

    // With descriptors back, the queued connection is served.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client.write_all(b"get k\r\n").unwrap();
    let mut got = [0u8; 5];
    client.read_exact(&mut got).unwrap();
    assert_eq!(&got, b"END\r\n");
    server.stop();
}
