//! Fault injection for replication links: a TCP proxy that can sever,
//! stall, or corrupt traffic on command.
//!
//! The `revocation_drill` bin never talks to the backup directly — the
//! replication stream is pointed at a [`FaultProxy`] so the drill can
//! flip the link through the failure matrix (DESIGN.md §"Revocation
//! drills") mid-traffic and assert that the shipper survives:
//!
//! * [`FaultMode::Forward`] — healthy pass-through,
//! * [`FaultMode::Sever`] — existing connections are closed and new ones
//!   are accepted-then-dropped (a hard partition: the shipper sees EOF /
//!   connection reset and reconnects with backoff),
//! * [`FaultMode::Stall`] — bytes are accepted but not forwarded (a hung
//!   peer: the shipper's per-link I/O timeout trips), and
//! * [`FaultMode::Corrupt`] — the backup's *response* bytes are
//!   bit-flipped (a desynced or damaged link: ack validation fails).
//!
//! Only the response direction is corrupted, deliberately: a flipped ack
//! is what the link layer can *detect* (the shipper validates every
//! reply), whereas flipping request payload bytes would be stored
//! silently — guarding against that needs end-to-end checksums, which
//! the memcached text protocol does not carry. The drill therefore
//! asserts detection of link corruption, not payload integrity.
//!
//! The module also hosts the *storm scheduler* ([`schedule_storm`]):
//! fleet-level fault timelines for the `storm_drill` bin, where the
//! failure is not one flaky link but a correlated revocation wave —
//! a kill-set drawn as a contiguous arc of the hashring (spot-market
//! spikes clear adjacently-placed instances together) with kill times
//! packed into a short spread and restarts decorrelated by per-node
//! jitter (thundering-herd recovery is its own failure mode).

use rand::Rng;
use spotcache_router::hashring::{HashRing, NodeId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does with traffic right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Pass bytes through unmodified.
    Forward,
    /// Close existing connections; accept-then-drop new ones.
    Sever,
    /// Accept bytes but forward nothing (trips peer I/O timeouts).
    Stall,
    /// Forward, but bit-flip response bytes (breaks ack validation).
    Corrupt,
}

const M_FORWARD: u8 = 0;
const M_SEVER: u8 = 1;
const M_STALL: u8 = 2;
const M_CORRUPT: u8 = 3;

/// Link-level event counts, snapshot by [`FaultProxy::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Connections accepted and relayed.
    pub connections: u64,
    /// Connections dropped by [`FaultMode::Sever`].
    pub severed: u64,
    /// Response chunks corrupted by [`FaultMode::Corrupt`].
    pub corrupted_chunks: u64,
}

struct Shared {
    mode: AtomicU8,
    shutdown: AtomicBool,
    connections: AtomicU64,
    severed: AtomicU64,
    corrupted: AtomicU64,
}

/// The fault-injecting TCP proxy; see the module docs.
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
}

/// Poll interval for mode/shutdown checks inside relay loops.
const RELAY_TICK: Duration = Duration::from_millis(10);

fn relay(mut from: TcpStream, mut to: TcpStream, shared: Arc<Shared>, corruptible: bool) {
    let _ = from.set_read_timeout(Some(RELAY_TICK));
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match shared.mode.load(Ordering::Relaxed) {
            M_SEVER => return, // dropping both streams closes the link
            M_STALL => {
                // Swallow time, not data: nothing is read or forwarded,
                // so the peer's I/O timeout trips.
                std::thread::sleep(RELAY_TICK);
                continue;
            }
            _ => {}
        }
        match from.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if corruptible && shared.mode.load(Ordering::Relaxed) == M_CORRUPT {
                    // One flipped bit per chunk is enough to break an ack.
                    chunk[0] ^= 0x40;
                    shared.corrupted.fetch_add(1, Ordering::Relaxed);
                }
                if to.write_all(&chunk[..n]).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral localhost port forwarding to
    /// `upstream`, initially in [`FaultMode::Forward`].
    pub fn start(upstream: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            mode: AtomicU8::new(M_FORWARD),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            severed: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
        });
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fault-proxy".into())
                .spawn(move || {
                    while !shared.shutdown.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                if shared.mode.load(Ordering::Relaxed) == M_SEVER {
                                    shared.severed.fetch_add(1, Ordering::Relaxed);
                                    drop(client); // accept-then-drop
                                    continue;
                                }
                                let Ok(server) =
                                    TcpStream::connect_timeout(&upstream, Duration::from_secs(1))
                                else {
                                    continue;
                                };
                                shared.connections.fetch_add(1, Ordering::Relaxed);
                                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone())
                                else {
                                    continue;
                                };
                                // Requests flow uncorrupted; responses are
                                // the corruptible direction.
                                let sh = Arc::clone(&shared);
                                std::thread::spawn(move || relay(client, server, sh, false));
                                let sh = Arc::clone(&shared);
                                std::thread::spawn(move || relay(s2, c2, sh, true));
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn fault proxy")
        };
        Ok(Self {
            addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The proxy's listen address — point the replication link here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the fault mode; takes effect within one relay tick.
    pub fn set_mode(&self, mode: FaultMode) {
        let m = match mode {
            FaultMode::Forward => M_FORWARD,
            FaultMode::Sever => M_SEVER,
            FaultMode::Stall => M_STALL,
            FaultMode::Corrupt => M_CORRUPT,
        };
        self.shared.mode.store(m, Ordering::Relaxed);
    }

    /// Event counts so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            severed: self.shared.severed.load(Ordering::Relaxed),
            corrupted_chunks: self.shared.corrupted.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting; relay threads notice within one tick.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One node's timeline in a revocation storm. All times are integer
/// *driver windows* (the storm drill's unit of progress), not seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormEvent {
    /// The doomed node.
    pub node: NodeId,
    /// When the rebalance warning arrives, if the storm is warned at
    /// all (`None` models an unwarned revocation: the two-minute notice
    /// never fires, so recovery cannot start until the control plane
    /// notices the corpse).
    pub warn_at: Option<u64>,
    /// When the instance is revoked.
    pub kill_at: u64,
    /// When the replacement instance comes up (unwarned storms start
    /// warming only from here).
    pub restart_at: u64,
}

/// Shape of one correlated revocation wave; see [`schedule_storm`].
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// Fraction of the fleet revoked, of the *whole* ring (a 0.33 storm
    /// on a 6-node ring kills `ceil(0.33 * 6) = 2` nodes). Clamped so at
    /// least one eligible node dies.
    pub kill_frac: f64,
    /// First window in which a kill may land.
    pub start: u64,
    /// Kills land uniformly in `[start, start + spread]` — a correlated
    /// storm is *tight*, not simultaneous (markets clear in seconds, not
    /// one instant).
    pub spread: u64,
    /// Advance notice in windows (`Some(w)` ⇒ each node's `warn_at` is
    /// `kill_at - w`, saturating); `None` ⇒ unwarned.
    pub warning: Option<u64>,
    /// Base delay from kill to replacement launch.
    pub restart_delay: u64,
    /// Fractional decorrelation of restarts: each node's delay is
    /// scaled by `1 ± restart_jitter` (uniform, min 1 window) so
    /// replacements do not stampede the backups in lockstep.
    pub restart_jitter: f64,
}

/// A storm's full timeline: events sorted by kill time.
#[derive(Debug, Clone, Default)]
pub struct StormSchedule {
    /// Per-node timelines, ordered by `kill_at` (ties by node id).
    pub events: Vec<StormEvent>,
}

impl StormSchedule {
    /// The doomed nodes, in kill order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.events.iter().map(|e| e.node).collect()
    }
}

/// Draws one correlated revocation wave against `ring`.
///
/// The kill-set is a contiguous **arc** of the hashring starting from a
/// uniform random point ([`HashRing::arc_nodes`]): adjacent placement is
/// what makes real spot revocations correlated, and an arc is also the
/// worst case for consistent hashing (a dead arc's keys all land on the
/// same few clockwise survivors). Nodes in `exclude` are skipped — a
/// cascade's second wave passes the first wave's victims here so it
/// strikes only survivors.
///
/// Kill times are uniform in `[start, start + spread]`; warnings (when
/// `spec.warning` is set) precede each kill by the same fixed notice;
/// restart delays are decorrelated per node by `±restart_jitter`. The
/// RNG stream is consumed identically whether or not the storm is
/// warned, so a warned and an unwarned run from the same seed revoke
/// the *same nodes at the same times* — the property the drill's
/// recovery-ordering invariant (warned ≤ unwarned) leans on.
pub fn schedule_storm<R: Rng + ?Sized>(
    ring: &HashRing,
    exclude: &[NodeId],
    spec: &StormSpec,
    rng: &mut R,
) -> StormSchedule {
    let total = ring.node_count();
    let eligible = total.saturating_sub(exclude.len());
    if eligible == 0 {
        return StormSchedule::default();
    }
    let want = (spec.kill_frac * total as f64).ceil() as usize;
    let k = want.clamp(1, eligible);
    let probe = rng.gen::<u64>();
    let doomed: Vec<NodeId> = ring
        .arc_nodes(probe, total)
        .into_iter()
        .filter(|n| !exclude.contains(n))
        .take(k)
        .collect();
    let mut events: Vec<StormEvent> = doomed
        .into_iter()
        .map(|node| {
            let kill_at = spec.start + rng.gen_range(0..spec.spread + 1);
            let jitter = 1.0 + spec.restart_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
            let delay = ((spec.restart_delay as f64 * jitter).round() as u64).max(1);
            StormEvent {
                node,
                warn_at: spec.warning.map(|w| kill_at.saturating_sub(w)),
                kill_at,
                restart_at: kill_at + delay,
            }
        })
        .collect();
    events.sort_unstable_by_key(|e| (e.kill_at, e.node));
    StormSchedule { events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut s = stream;
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn roundtrip(addr: SocketAddr, msg: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_millis(500)))?;
        s.write_all(msg)?;
        let mut buf = vec![0u8; msg.len()];
        s.read_exact(&mut buf)?;
        Ok(buf)
    }

    #[test]
    fn forward_passes_bytes_through() {
        let upstream = echo_server();
        let proxy = FaultProxy::start(upstream).unwrap();
        assert_eq!(roundtrip(proxy.addr(), b"hello").unwrap(), b"hello");
        assert_eq!(proxy.stats().connections, 1);
    }

    #[test]
    fn sever_drops_new_connections() {
        let upstream = echo_server();
        let proxy = FaultProxy::start(upstream).unwrap();
        proxy.set_mode(FaultMode::Sever);
        assert!(roundtrip(proxy.addr(), b"hello").is_err());
        assert!(proxy.stats().severed >= 1);
        proxy.set_mode(FaultMode::Forward);
        assert_eq!(roundtrip(proxy.addr(), b"back").unwrap(), b"back");
    }

    #[test]
    fn stall_trips_read_timeouts_then_recovers() {
        let upstream = echo_server();
        let proxy = FaultProxy::start(upstream).unwrap();
        proxy.set_mode(FaultMode::Stall);
        let err = roundtrip(proxy.addr(), b"hello");
        assert!(err.is_err(), "stalled link must time out");
        proxy.set_mode(FaultMode::Forward);
        assert_eq!(roundtrip(proxy.addr(), b"back").unwrap(), b"back");
    }

    #[test]
    fn corrupt_flips_response_bytes() {
        let upstream = echo_server();
        let proxy = FaultProxy::start(upstream).unwrap();
        proxy.set_mode(FaultMode::Corrupt);
        let got = roundtrip(proxy.addr(), b"hello").unwrap();
        assert_ne!(got, b"hello");
        assert!(proxy.stats().corrupted_chunks >= 1);
    }
}

#[cfg(test)]
mod storm_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn ring(n: u64) -> HashRing {
        let w: Vec<(NodeId, f64)> = (0..n).map(|i| (i, 1.0)).collect();
        HashRing::build(&w)
    }

    fn spec(warning: Option<u64>) -> StormSpec {
        StormSpec {
            kill_frac: 0.34,
            start: 20,
            spread: 3,
            warning,
            restart_delay: 6,
            restart_jitter: 0.4,
        }
    }

    #[test]
    fn kill_set_size_and_time_bounds() {
        let ring = ring(6);
        let mut rng = StdRng::seed_from_u64(7);
        let s = schedule_storm(&ring, &[], &spec(Some(5)), &mut rng);
        assert_eq!(s.events.len(), 3, "ceil(0.34 * 6)");
        for e in &s.events {
            assert!((20..=23).contains(&e.kill_at), "kill in spread: {e:?}");
            assert_eq!(e.warn_at, Some(e.kill_at - 5));
            assert!(e.restart_at > e.kill_at, "restart after kill: {e:?}");
        }
        let mut nodes = s.nodes();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "distinct victims");
    }

    #[test]
    fn same_seed_same_kill_set_warned_or_not() {
        // The recovery-ordering invariant needs warned and unwarned runs
        // to face the *same* storm; only warn_at may differ.
        let ring = ring(8);
        let warned = schedule_storm(&ring, &[], &spec(Some(8)), &mut StdRng::seed_from_u64(42));
        let unwarned = schedule_storm(&ring, &[], &spec(None), &mut StdRng::seed_from_u64(42));
        assert_eq!(warned.events.len(), unwarned.events.len());
        for (w, u) in warned.events.iter().zip(&unwarned.events) {
            assert_eq!(w.node, u.node);
            assert_eq!(w.kill_at, u.kill_at);
            assert_eq!(w.restart_at, u.restart_at);
            assert!(w.warn_at.is_some() && u.warn_at.is_none());
        }
    }

    #[test]
    fn exclude_spares_first_wave_victims() {
        let ring = ring(6);
        let mut rng = StdRng::seed_from_u64(3);
        let first = schedule_storm(&ring, &[], &spec(None), &mut rng);
        let second = schedule_storm(&ring, &first.nodes(), &spec(None), &mut rng);
        assert!(!second.events.is_empty());
        for e in &second.events {
            assert!(!first.nodes().contains(&e.node), "cascade hit a corpse");
        }
        // Demanding more than the survivors can supply kills them all.
        let mut greedy = spec(None);
        greedy.kill_frac = 2.0;
        let rest = schedule_storm(&ring, &first.nodes(), &greedy, &mut rng);
        assert_eq!(rest.events.len(), 6 - first.events.len());
        // And a fully-excluded ring yields an empty schedule.
        let all: Vec<NodeId> = (0..6).collect();
        assert!(schedule_storm(&ring, &all, &spec(None), &mut rng)
            .events
            .is_empty());
    }

    #[test]
    fn restarts_are_decorrelated() {
        // With jitter on an 8-node full wipe, restart delays must not
        // all collapse to one value (the stampede the jitter prevents).
        let ring = ring(8);
        let mut s = spec(None);
        s.kill_frac = 1.0;
        s.restart_jitter = 0.5;
        let sched = schedule_storm(&ring, &[], &s, &mut StdRng::seed_from_u64(11));
        let delays: std::collections::BTreeSet<u64> = sched
            .events
            .iter()
            .map(|e| e.restart_at - e.kill_at)
            .collect();
        assert!(delays.len() > 1, "all delays identical: {delays:?}");
        assert!(delays.iter().all(|&d| d >= 1));
    }
}
