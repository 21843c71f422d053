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
//! * **Zero cost while idle; polling only while it pays.** A
//!   [`Poller::wait`] with a negative timeout blocks in the kernel until a
//!   registered fd becomes ready or a [`WakeFd`] is poked — an idle event
//!   loop consumes no CPU at all. [`Poller::wait_polled`] first polls for
//!   up to a [`PollWindow`], so a request arriving a few microseconds
//!   after the last reply finds its worker awake instead of waking a
//!   halted CPU. The window is the guest haltpoll governor's rule: it
//!   opens only while idle gaps stay at or under [`POLL_MAX`] (200 µs),
//!   is bounded by it, and closes by itself once gaps grow longer — a
//!   server whose arrivals are more than 200 µs apart never polls, and
//!   an idle one still parks at zero cost.
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
use std::time::{Duration, Instant};

/// Raw syscall bindings (libc symbols; no external crate).
mod sys {
    use std::os::raw::{c_int, c_void};

    pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(crate) const EPOLL_CTL_ADD: c_int = 1;
    pub(crate) const EPOLL_CTL_DEL: c_int = 2;
    pub(crate) const EPOLL_CTL_MOD: c_int = 3;
    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;
    pub(crate) const EFD_CLOEXEC: c_int = 0o2000000;
    pub(crate) const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`. On x86-64 the ABI packs it
    /// (4-byte aligned u64); elsewhere it uses natural alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub(crate) events: u32,
        pub(crate) data: u64,
    }

    /// The kernel's `struct epoll_event` (naturally aligned variant).
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub(crate) events: u32,
        pub(crate) data: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub(crate) fn epoll_create1(flags: c_int) -> c_int;
        pub(crate) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(crate) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub(crate) fn eventfd(initval: u32, flags: c_int) -> c_int;
    }

    /// Off Linux the four symbols above do not exist. These stand-ins keep
    /// the crate linking; `require_linux` fails every constructor first,
    /// so none of them is ever called.
    #[cfg(not(target_os = "linux"))]
    mod absent {
        use super::{c_int, EpollEvent};

        pub(crate) unsafe fn epoll_create1(_: c_int) -> c_int {
            -1
        }
        pub(crate) unsafe fn epoll_ctl(_: c_int, _: c_int, _: c_int, _: *mut EpollEvent) -> c_int {
            -1
        }
        pub(crate) unsafe fn epoll_wait(_: c_int, _: *mut EpollEvent, _: c_int, _: c_int) -> c_int {
            -1
        }
        pub(crate) unsafe fn eventfd(_: u32, _: c_int) -> c_int {
            -1
        }
    }
    #[cfg(not(target_os = "linux"))]
    pub(crate) use absent::*;

    extern "C" {
        pub(crate) fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub(crate) fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub(crate) fn close(fd: c_int) -> c_int;
    }
}

/// What a registered fd should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Notify when the fd has input to read (or the peer hung up).
    pub(crate) readable: bool,
    /// Notify when the fd can accept more output.
    pub(crate) writable: bool,
}

impl Interest {
    /// Read-only interest (the state of a freshly adopted connection).
    pub(crate) const READ: Interest = Interest {
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
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub(crate) token: u64,
}

/// A reusable batch buffer for [`Poller::wait`] results.
pub(crate) struct Events {
    raw: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// Creates a buffer receiving at most `capacity` events per wait.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            raw: vec![sys::EpollEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// Events delivered by the last wait.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The `i`-th event of the last wait.
    pub(crate) fn get(&self, i: usize) -> Option<Event> {
        if i >= self.len {
            return None;
        }
        // Copy out of the (possibly packed) raw struct before reading
        // the field, so no unaligned reference is ever formed.
        let e = self.raw[i];
        Some(Event { token: { e.data } })
    }

    /// Iterates the events of the last wait.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Event> + '_ {
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
pub(crate) struct Poller {
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
    pub(crate) fn new() -> io::Result<Self> {
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
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest of an already registered fd (a *rearm*).
    pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the poller. Closing an fd removes it implicitly,
    /// but explicit removal keeps the sequencing obvious.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    /// Blocks until at least one registered fd is ready, a [`WakeFd`]
    /// registered on this poller is poked, or `timeout_ms` elapses
    /// (negative = wait forever). Fills `events` and returns the count;
    /// `Interrupted` (signal) is retried internally.
    pub(crate) fn wait(&self, events: &mut Events, timeout_ms: i32) -> io::Result<usize> {
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

    /// Polls for up to `window` — `epoll_wait` with timeout 0, then
    /// [`std::thread::yield_now`] so any runnable thread on this CPU gets
    /// it — and blocks as [`wait(events, -1)`](Self::wait) only once the
    /// window has elapsed without events; a closed window is exactly that
    /// blocking wait. Then feeds the wait's idle time (its start to its
    /// events) to `window`'s rule.
    pub(crate) fn wait_polled(
        &self,
        events: &mut Events,
        window: &mut PollWindow,
    ) -> io::Result<Woke> {
        let start = Instant::now();
        let limit = window.get();
        let mut polled = Duration::ZERO;
        if !limit.is_zero() {
            loop {
                if self.wait(events, 0)? > 0 {
                    window.observe(start.elapsed());
                    return Ok(Woke::Polled);
                }
                polled = start.elapsed();
                if polled >= limit {
                    break;
                }
                std::thread::yield_now();
            }
        }
        self.wait(events, -1)?;
        window.observe(start.elapsed());
        Ok(Woke::Parked { polled })
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// Longest a [`PollWindow`] grows to, and the idle gap past which it
/// shrinks: the guest haltpoll governor's `guest_halt_poll_ns`.
pub(crate) const POLL_MAX: Duration = Duration::from_micros(200);

/// What a closed [`PollWindow`] opens to, and below which a shrinking one
/// closes: haltpoll's `guest_halt_poll_grow_start`.
pub(crate) const POLL_GROW_START: Duration = Duration::from_micros(50);

/// How long a worker polls before it parks: the guest haltpoll
/// governor's `adjust_poll_limit` (grow ×2, shrink ÷2), moved into user
/// space.
///
/// Starts closed (zero). After every wait, [`observe`](Self::observe)
/// gets the wait's idle time:
///
/// * `window < idle ≤ POLL_MAX`: a longer poll would have caught that
///   arrival, so the window doubles, to at least [`POLL_GROW_START`] and
///   at most [`POLL_MAX`];
/// * `idle > POLL_MAX`: parking was right, so the window halves, and
///   closes once it would fall below [`POLL_GROW_START`] (as the host's
///   KVM halt polling does), so three long gaps close a full window;
/// * otherwise (a poll caught the events) it stays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PollWindow(Duration);

impl PollWindow {
    /// The current window; zero when closed.
    pub(crate) fn get(self) -> Duration {
        self.0
    }

    /// Applies the rule to one wait's idle time.
    pub(crate) fn observe(&mut self, idle: Duration) {
        if idle > POLL_MAX {
            let halved = self.0 / 2;
            self.0 = if halved < POLL_GROW_START {
                Duration::ZERO
            } else {
                halved
            };
        } else if idle > self.0 {
            self.0 = (self.0 * 2).clamp(POLL_GROW_START, POLL_MAX);
        }
    }
}

/// How a [`Poller::wait_polled`] found its events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Woke {
    /// A zero-timeout poll inside the window caught them: no park, no
    /// wake-up.
    Polled,
    /// The worker parked after polling for `polled` (zero when the
    /// window was closed).
    Parked {
        /// Time spent polling before the park.
        polled: Duration,
    },
}

/// A cross-thread wakeup channel for a [`Poller`]: an eventfd registered
/// read-side on the poller; any thread may [`wake`](Self::wake) it to
/// make the owning loop's `epoll_wait` return.
#[derive(Debug)]
pub(crate) struct WakeFd {
    fd: RawFd,
}

unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

impl WakeFd {
    /// Creates a nonblocking eventfd.
    pub(crate) fn new() -> io::Result<Self> {
        require_linux()?;
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Self { fd })
    }

    /// The fd to register on a poller (readable interest).
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the next (or current) wait on the registered poller return.
    /// Wakes coalesce; failure is impossible short of fd closure (a full
    /// counter still leaves the fd readable, which is all we need).
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            sys::write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Consumes pending wakes so the fd stops reading as ready. Call once
    /// per delivered wake event, before processing the reasons for it
    /// (shutdown flag, injection queue): a wake arriving *after* the drain
    /// re-readies the fd rather than being lost.
    pub(crate) fn drain(&self) {
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

#[cfg(test)]
mod window_tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn the_window_follows_the_haltpoll_rule() {
        let mut w = PollWindow::default();
        assert_eq!(w.get(), Duration::ZERO);
        // A short gap opens a closed window to the grow start.
        w.observe(us(30));
        assert_eq!(w.get(), us(50));
        // Gaps the window missed double it, up to the cap.
        w.observe(us(60));
        assert_eq!(w.get(), us(100));
        w.observe(us(150));
        assert_eq!(w.get(), us(200));
        w.observe(us(200));
        assert_eq!(w.get(), us(200), "the cap holds");
        // A gap the window covered changes nothing.
        w.observe(us(120));
        w.observe(Duration::ZERO);
        assert_eq!(w.get(), us(200));
        // A long gap halves it; below the grow start it closes.
        w.observe(us(1_000));
        assert_eq!(w.get(), us(100));
        w.observe(us(201));
        assert_eq!(w.get(), us(50));
        w.observe(us(1_000));
        assert_eq!(w.get(), Duration::ZERO);
        // Closed, long gaps keep it closed: such a server never polls.
        w.observe(us(2_000));
        assert_eq!(w.get(), Duration::ZERO);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

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
    fn a_polled_wait_polls_its_window_then_parks() {
        let poller = Poller::new().unwrap();
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        poller.add(wake.raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Events::with_capacity(4);
        let mut window = PollWindow::default();
        // Closed: the blocking wait. A ready fd is a short gap, so the
        // window opens.
        wake.wake();
        let woke = poller.wait_polled(&mut events, &mut window).unwrap();
        assert_eq!(
            woke,
            Woke::Parked {
                polled: Duration::ZERO
            }
        );
        assert_eq!(events.len(), 1);
        assert_eq!(window.get(), POLL_GROW_START);
        wake.drain();
        // Open, and readiness is there: a poll catches it.
        wake.wake();
        let woke = poller.wait_polled(&mut events, &mut window).unwrap();
        assert_eq!(woke, Woke::Polled);
        assert_eq!(events.len(), 1);
        wake.drain();
        // Open, and nothing comes inside it: the window is polled out,
        // then the wait parks until the wake 5 ms later — a long gap, so
        // the window closes.
        let w = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            w.wake();
        });
        let woke = poller.wait_polled(&mut events, &mut window).unwrap();
        let Woke::Parked { polled } = woke else {
            panic!("nothing was ready inside the window: {woke:?}");
        };
        assert!(polled >= POLL_GROW_START, "polled only {polled:?}");
        assert_eq!(events.len(), 1);
        assert_eq!(window.get(), Duration::ZERO);
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
        assert_eq!(events.get(0).unwrap().token, 1);
        // Deregister: silence.
        poller.delete(fd).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        drop(client);
    }

    #[test]
    fn peer_hangup_delivers_the_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);
        assert_eq!(events.get(0).unwrap().token, 9, "hangup must wake readers");
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF after hangup");
    }
}
