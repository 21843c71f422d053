//! Readiness-driven I/O primitives: a minimal epoll wrapper plus an
//! eventfd wakeup channel.
//!
//! The data plane's event loops ([`crate::server`]) need exactly three
//! kernel facilities: *tell me which of these sockets are ready*
//! (`epoll_wait`), *change what "ready" means per socket*
//! (`epoll_ctl`), and *let another thread interrupt the wait
//! deterministically* (`eventfd`). This module wraps those three raw
//! syscalls behind a safe API and nothing more — no external crate, per
//! the workspace's offline-shims policy; the `extern "C"` declarations
//! below bind the C library symbols every Linux target already links.
//!
//! Design constraints, in order:
//!
//! * **Zero cost while idle.** A [`Poller::wait`] with a negative timeout
//!   blocks in the kernel until a registered fd becomes ready or a
//!   [`WakeFd`] is poked — an idle event loop consumes no CPU at all,
//!   unlike the spin-then-sleep polling it replaces.
//! * **Deterministic wakeup.** [`WakeFd::wake`] makes the next (or the
//!   current) `epoll_wait` return; it cannot be missed the way a
//!   best-effort "nudge connection" can. Wakes coalesce (an eventfd is a
//!   counter, not a queue), so wake-storms cost one event.
//! * **Level-triggered readiness.** Events repeat while the condition
//!   holds, so a handler that drains *some* input and leaves the rest is
//!   re-notified — the failure mode of edge-triggered loops (stranded
//!   data after a partial drain) cannot happen. The server's interest
//!   rearming ([`Interest`]) keeps the loop quiet instead: a connection
//!   with nothing to write is simply not armed for writability.
//!
//! epoll and eventfd are Linux system calls. Elsewhere the module still
//! compiles, but [`Poller::new`] and [`WakeFd::new`] return
//! [`io::ErrorKind::Unsupported`] — which is what the server's start
//! reports there; it has no other data plane.

use std::io;
use std::os::unix::io::RawFd;

/// Raw syscall bindings (libc symbols; no external crate).
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`. On x86-64 the ABI packs it
    /// (4-byte aligned u64); elsewhere it uses natural alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// The kernel's `struct epoll_event` (naturally aligned variant).
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
    }

    /// Off Linux the four symbols above do not exist. These stand-ins keep
    /// the crate linking; `require_linux` fails every constructor first,
    /// so none of them is ever called.
    #[cfg(not(target_os = "linux"))]
    mod absent {
        use super::{c_int, EpollEvent};

        pub unsafe fn epoll_create1(_: c_int) -> c_int {
            -1
        }
        pub unsafe fn epoll_ctl(_: c_int, _: c_int, _: c_int, _: *mut EpollEvent) -> c_int {
            -1
        }
        pub unsafe fn epoll_wait(_: c_int, _: *mut EpollEvent, _: c_int, _: c_int) -> c_int {
            -1
        }
        pub unsafe fn eventfd(_: u32, _: c_int) -> c_int {
            -1
        }
    }
    #[cfg(not(target_os = "linux"))]
    pub use absent::*;

    extern "C" {
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// What a registered fd should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Notify when the fd has input to read (or the peer hung up).
    pub readable: bool,
    /// Notify when the fd can accept more output.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the state of a freshly adopted connection).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            // RDHUP rides with read interest only. Arming it
            // unconditionally hot-spins a backpressured half-closed
            // connection: read interest off, socket unwritable, yet the
            // level-triggered RDHUP re-fires on every wait. A write-only
            // registration still learns of aborts via EPOLLHUP/EPOLLERR,
            // which epoll always reports, and sees the orderly half-close
            // as soon as backpressure clears and read interest re-arms.
            m |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable, hung up, or in error (a read will not block).
    pub readable: bool,
    /// The fd is writable or in error (a write will not block).
    pub writable: bool,
}

/// A reusable batch buffer for [`Poller::wait`] results.
pub struct Events {
    raw: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// Creates a buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            raw: vec![sys::EpollEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// Events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th event of the last wait.
    pub fn get(&self, i: usize) -> Option<Event> {
        if i >= self.len {
            return None;
        }
        // Copy out of the (possibly packed) raw struct before reading
        // fields, so no unaligned reference is ever formed.
        let e = self.raw[i];
        let bits = { e.events };
        let token = { e.data };
        Some(Event {
            token,
            readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP | sys::EPOLLERR) != 0,
            writable: bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
        })
    }

    /// Iterates the events of the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.len).filter_map(move |i| self.get(i))
    }
}

/// An epoll instance: register fds with a token + [`Interest`], then
/// block in [`wait`](Self::wait) until something is ready.
///
/// All methods take `&self`: the kernel serializes `epoll_ctl` against
/// `epoll_wait`, so one thread may rearm interest while another waits
/// (the server does not need this — each worker owns its poller — but
/// the wakeup fd *is* written from foreign threads, which is the whole
/// point).
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

// The epoll fd is just an fd; the kernel synchronizes operations on it.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

/// Fails with `Unsupported` where the kernel has no epoll/eventfd.
fn require_linux() -> io::Result<()> {
    if cfg!(target_os = "linux") {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll and eventfd need Linux",
        ))
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        require_linux()?;
        let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Self { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest.mask(),
            data: token,
        };
        cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest of an already registered fd (a *rearm*).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the poller. Closing an fd removes it implicitly,
    /// but explicit removal keeps the sequencing obvious.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    /// Blocks until at least one registered fd is ready, a [`WakeFd`]
    /// registered on this poller is poked, or `timeout_ms` elapses
    /// (negative = wait forever). Fills `events` and returns the count;
    /// `Interrupted` (signal) is retried internally.
    pub fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
        events.len = 0;
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    events.raw.as_mut_ptr(),
                    events.raw.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                events.len = n as usize;
                return Ok(events.len);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// A cross-thread wakeup channel for a [`Poller`]: an eventfd registered
/// read-side on the poller; any thread may [`wake`](Self::wake) it to
/// make the owning loop's `epoll_wait` return.
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

impl WakeFd {
    /// Creates a nonblocking eventfd.
    pub fn new() -> io::Result<Self> {
        require_linux()?;
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Self { fd })
    }

    /// The fd to register on a poller (readable interest).
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the next (or current) wait on the registered poller return.
    /// Wakes coalesce; failure is impossible short of fd closure (a full
    /// counter still leaves the fd readable, which is all we need).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            sys::write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Consumes pending wakes so the fd stops reading as ready. Call once
    /// per delivered wake event, before processing the reasons for it
    /// (shutdown flag, injection queue): a wake arriving *after* the drain
    /// re-readies the fd rather than being lost.
    pub fn drain(&self) {
        let mut buf = 0u64;
        unsafe {
            sys::read(self.fd, (&mut buf as *mut u64).cast(), 8);
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn wakefd_interrupts_a_blocking_wait() {
        let poller = Poller::new().unwrap();
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        poller.add(wake.raw_fd(), 7, Interest::READ).unwrap();
        let w = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
        });
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        let n = poller.wait(&mut events, 5_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.get(0).unwrap().token, 7);
        assert!(start.elapsed() < Duration::from_secs(2), "wakeup missed");
        wake.drain();
        // Drained: a zero-timeout wait sees nothing.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        // Wakes coalesce but never vanish: poke twice, one event.
        wake.wake();
        wake.wake();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 1);
        t.join().unwrap();
    }

    #[test]
    fn socket_readiness_and_rearm() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let fd = server.as_raw_fd();
        poller.add(fd, 1, Interest::READ).unwrap();

        let mut events = Events::with_capacity(4);
        // Nothing to read yet.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        client.write_all(b"hello").unwrap();
        // Level-triggered: the event repeats until the data is drained.
        for _ in 0..2 {
            assert_eq!(poller.wait(&mut events, 1_000).unwrap(), 1);
            let ev = events.get(0).unwrap();
            assert_eq!(ev.token, 1);
            assert!(ev.readable);
        }
        // Rearm for writability only: the pending input stops reporting,
        // and the idle socket reports writable immediately.
        poller
            .modify(
                fd,
                1,
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .unwrap();
        assert_eq!(poller.wait(&mut events, 1_000).unwrap(), 1);
        let ev = events.get(0).unwrap();
        assert!(ev.writable && !ev.readable);
        // Deregister: silence.
        poller.delete(fd).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        drop(client);
    }

    #[test]
    fn peer_hangup_reports_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);
        assert!(events.get(0).unwrap().readable, "hangup must wake readers");
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF after hangup");
    }
}
