//! What every *live* bench bin needs and used to spell out for itself:
//! a flag parser ([`Flags`]), artifact writing ([`write_artifact`],
//! [`write_trace`]), a loopback server ([`start_server`]), the hot-set
//! prefill ([`prefill_hot`]), lazily connected per-[`ServeTarget`] clients
//! behind a [`DegradedRouter`] ([`RoutedTiers`]), and the paced
//! read-through-the-router window with write-through refill
//! ([`read_window`]). Nothing here knows which bin is calling; each
//! experiment passes its own SLO scoring into [`read_window`].

use std::net::SocketAddr;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use spotcache_cache::protocol::serve;
use spotcache_cache::server::{CacheClient, CacheServer, LogicalClock, ServerConfig};
use spotcache_cache::store::Store;
use spotcache_obs::export::validate_json;
use spotcache_obs::{Obs, TraceContext, Tracer};
use spotcache_router::degraded::{DegradedRouter, ServeTarget};

/// The process's command-line flags, consumed as they are asked for.
///
/// Each bin takes the flags it knows ([`switch`](Self::switch),
/// [`value`](Self::value)) and then calls [`finish`](Self::finish),
/// which panics on whatever is left — so a typo fails loudly instead of
/// silently running the default.
pub struct Flags(Vec<String>);

impl Flags {
    /// The arguments this process was started with.
    pub fn from_env() -> Self {
        Self(std::env::args().skip(1).collect())
    }

    /// The three flags every artifact-writing bin takes: `--smoke`,
    /// `--out PATH` (default `default_out`) and `--seed N` (default 42).
    pub fn artifact_run(&mut self, default_out: &str) -> (bool, String, u64) {
        (
            self.switch("--smoke"),
            self.value("--out", "a path")
                .unwrap_or_else(|| default_out.to_string()),
            self.value("--seed", "a value").unwrap_or(42),
        )
    }

    /// Whether the value-less flag `name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    /// The parsed value following `name`, if the flag was given (the
    /// last occurrence wins). Panics with `"{name} needs {what}"` when
    /// the value is missing or does not parse.
    pub fn value<T: FromStr>(&mut self, name: &str, what: &str) -> Option<T> {
        let mut last = None;
        while let Some(at) = self.0.iter().position(|a| a == name) {
            assert!(at + 1 < self.0.len(), "{name} needs {what}");
            let raw = self.0.remove(at + 1);
            self.0.remove(at);
            last = Some(
                raw.parse()
                    .unwrap_or_else(|_| panic!("{name} needs {what}, got {raw:?}")),
            );
        }
        last
    }

    /// Panics with `"unknown flag …"` if any argument was not consumed.
    pub fn finish(self) {
        if let Some(other) = self.0.first() {
            panic!("unknown flag {other}");
        }
    }
}

/// Validates `json` with the in-tree validator, writes it to `path` and
/// prints the `wrote` line. An artifact that does not validate is never
/// written.
pub fn write_artifact(path: &str, json: &str) {
    validate_json(json).unwrap_or_else(|at| panic!("{path}: JSON invalid at byte {at}"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Writes `tracer`'s buffer to `path` as Chrome trace-event JSON after
/// checking it holds at least one span of every category in `layers`.
pub fn write_trace(path: &str, tracer: &Tracer, layers: &[&str]) {
    let cats = tracer.categories();
    for layer in layers {
        assert!(
            cats.contains(layer),
            "trace missing {layer} spans: {cats:?}"
        );
    }
    write_artifact(path, &tracer.chrome_trace_json());
    println!(
        "{path}: {} spans across {cats:?} ({} dropped)",
        tracer.len(),
        tracer.dropped()
    );
}

/// Starts a reactor server for `store` on an ephemeral loopback port with
/// the default config and its own logical clock at zero.
pub fn start_server(
    store: &Arc<Store>,
    obs: Option<&Arc<Obs>>,
    tracer: Option<&Arc<Tracer>>,
) -> CacheServer {
    CacheServer::start_full(
        Arc::clone(store),
        LogicalClock::new(),
        "127.0.0.1:0",
        ServerConfig::default(),
        obs.cloned(),
        tracer.cloned(),
    )
    .expect("start cache server")
}

/// Stores `{prefix}{id}` → `value_len` bytes of CRLF-free filler for
/// every `id`, through the protocol parser so values carry the wire flag
/// prefix (and any mutation sink on `store` sees the sets).
pub fn prefill_hot(
    store: &Store,
    prefix: &str,
    ids: impl IntoIterator<Item = u64>,
    value_len: usize,
) {
    let value = "x".repeat(value_len);
    let mut buf = Vec::new();
    for id in ids {
        buf.extend_from_slice(
            format!("set {prefix}{id} 0 0 {value_len}\r\n{value}\r\n").as_bytes(),
        );
    }
    let (_, consumed) = serve(store, &buf, 0);
    assert_eq!(consumed, buf.len(), "prefill must parse cleanly");
}

/// Where one serve tier of a routed node lives.
pub enum Tier {
    /// Nothing there (not launched yet, or revoked): every read misses.
    Absent,
    /// An in-process store read directly and never written: a passive
    /// backup only mirrors replication.
    Local(Arc<Store>),
    /// A live server, connected on first use.
    Remote(SocketAddr),
}

/// One routed node: its [`DegradedRouter`] and a lazily connected client
/// per [`ServeTarget`]. Any transport error reads as a miss and drops
/// the connection (the next call reconnects), so a dead server can
/// never wedge the driver.
pub struct RoutedTiers {
    /// The node's phase machine; picks the read plan and write target.
    pub router: Arc<DegradedRouter>,
    tiers: [Tier; 3],
    conns: [Option<CacheClient>; 3],
    /// Announced on every fresh connection so the server stitches the
    /// connection's serve spans into the caller's trace.
    ctx: Option<TraceContext>,
}

fn slot(t: ServeTarget) -> usize {
    match t {
        ServeTarget::Primary => 0,
        ServeTarget::BackupStale => 1,
        ServeTarget::Replacement => 2,
    }
}

impl RoutedTiers {
    /// A node with every tier [`Tier::Absent`].
    pub fn new(router: Arc<DegradedRouter>, ctx: Option<TraceContext>) -> Self {
        Self {
            router,
            tiers: [Tier::Absent, Tier::Absent, Tier::Absent],
            conns: [None, None, None],
            ctx,
        }
    }

    /// Points target `t` at `tier`, dropping any connection to the old one.
    pub fn set_tier(&mut self, t: ServeTarget, tier: Tier) {
        self.tiers[slot(t)] = tier;
        self.conns[slot(t)] = None;
    }

    fn conn(&mut self, i: usize, addr: SocketAddr) -> Option<&mut CacheClient> {
        if self.conns[i].is_none() {
            self.conns[i] = CacheClient::connect(addr).ok();
            if let (Some(c), Some(ctx)) = (self.conns[i].as_mut(), self.ctx) {
                if c.send_trace(ctx).is_err() {
                    self.conns[i] = None;
                }
            }
        }
        self.conns[i].as_mut()
    }

    /// Whether target `t` holds `key`.
    fn get(&mut self, t: ServeTarget, key: &str) -> bool {
        let i = slot(t);
        match self.tiers[i] {
            Tier::Absent => false,
            Tier::Local(ref store) => store.get_at(key.as_bytes(), 0).is_some(),
            Tier::Remote(addr) => match self.conn(i, addr).map(|c| c.get(key)) {
                Some(Ok(v)) => v.is_some(),
                _ => {
                    self.conns[i] = None;
                    false
                }
            },
        }
    }

    /// Stores `key` → `value` at target `t`, dropping errors as `get` does.
    fn set(&mut self, t: ServeTarget, key: &str, value: &[u8]) {
        let i = slot(t);
        if let Tier::Remote(addr) = self.tiers[i] {
            if self
                .conn(i, addr)
                .map(|c| c.set(key, value, 0))
                .is_none_or(|r| r.is_err())
            {
                self.conns[i] = None;
            }
        }
    }
}

/// What one [`read_window`] saw; `fresh + stale + missed` is the
/// window's op count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTally {
    /// Reads answered by a primary or a replacement.
    pub fresh: usize,
    /// Reads answered stale by a backup.
    pub stale: usize,
    /// Reads nobody answered (refilled at the write target).
    pub missed: usize,
}

/// Drives one window of `ops` reads, then sleeps out the rest of the
/// window (until `deadline`).
///
/// `next` yields each read's `(node index, key)`; `tiers_of` finds that
/// node's [`RoutedTiers`] inside the caller's fleet element. A read goes
/// through the node's current read plan (first target, then the
/// fallback); a miss everywhere is refilled write-through at the
/// router's write target, as a cache-aside client would after fetching
/// from the backend. Fresh or stale follows the *answering* target, not
/// the plan order, so stale-first (checkpoint-mode) windows tally
/// exactly like replacement-first ones. `score` is the caller's SLO:
/// it sees every read's answering target (`None` = missed).
pub fn read_window<N>(
    fleet: &mut [N],
    tiers_of: impl Fn(&mut N) -> &mut RoutedTiers,
    ops: usize,
    mut next: impl FnMut() -> (usize, String),
    refill: &[u8],
    mut score: impl FnMut(Option<ServeTarget>),
    deadline: Instant,
) -> WindowTally {
    let mut tally = WindowTally::default();
    for _ in 0..ops {
        let (node, key) = next();
        let tiers = tiers_of(&mut fleet[node]);
        let plan = tiers.router.read_plan();
        let answered = if tiers.get(plan.first, &key) {
            Some(plan.first)
        } else {
            plan.fallback.filter(|&fb| tiers.get(fb, &key))
        };
        tiers.router.note_served(answered);
        if answered.is_none() {
            tiers.set(tiers.router.write_target(), &key, refill);
        }
        match answered {
            Some(ServeTarget::BackupStale) => tally.stale += 1,
            Some(_) => tally.fresh += 1,
            None => tally.missed += 1,
        }
        score(answered);
    }
    if let Some(rest) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(rest);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cache::store::StoreConfig;
    use spotcache_router::degraded::DrillPhase;

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|a| a.to_string()).collect())
    }

    fn store() -> Arc<Store> {
        Arc::new(Store::new(StoreConfig {
            capacity_bytes: 4 << 20,
            shards: 2,
        }))
    }

    #[test]
    fn typed_getters_parse_and_consume() {
        let mut f = flags(&[
            "--seed", "7", "--smoke", "--out", "x.json", "--rate", "0.5", "--seed", "9",
        ]);
        assert!(!f.switch("--verbose"));
        let (smoke, out, seed) = f.artifact_run("default.json");
        assert_eq!(
            (smoke, out.as_str(), seed),
            (true, "x.json", 9),
            "last wins"
        );
        assert_eq!(f.value::<f64>("--rate", "seconds"), Some(0.5));
        assert_eq!(f.value::<usize>("--conns", "a value"), None);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "unknown flag --bogus")]
    fn unknown_flag_panics() {
        let mut f = flags(&["--smoke", "--bogus"]);
        f.switch("--smoke");
        f.finish();
    }

    #[test]
    #[should_panic(expected = "--out needs a path")]
    fn missing_value_panics() {
        flags(&["--smoke", "--out"]).value::<String>("--out", "a path");
    }

    #[test]
    #[should_panic(expected = "--seed needs a value")]
    fn unparseable_value_panics() {
        flags(&["--seed", "forty-two"]).value::<u64>("--seed", "a value");
    }

    #[test]
    fn stopped_server_reads_as_a_miss_and_the_client_reconnects() {
        let s = store();
        prefill_hot(&s, "h", 0..10, 8);
        let mut srv = start_server(&s, None, None);
        let addr = srv.addr();
        let mut tiers = RoutedTiers::new(Arc::new(DegradedRouter::new()), None);
        assert!(!tiers.get(ServeTarget::Primary, "h3"), "absent tier misses");
        tiers.set_tier(ServeTarget::Primary, Tier::Remote(addr));
        assert!(tiers.get(ServeTarget::Primary, "h3"));
        assert!(tiers.conns[0].is_some());

        srv.stop();
        assert!(
            !tiers.get(ServeTarget::Primary, "h3"),
            "dead server is a miss"
        );
        assert!(tiers.conns[0].is_none(), "the broken connection is dropped");
        tiers.set(ServeTarget::Primary, "h3", b"v"); // must not wedge or panic
        assert!(tiers.conns[0].is_none());

        // The server returns on the same address: the next read connects
        // again without the caller re-pointing the tier.
        let mut back = CacheServer::start(Arc::clone(&s), LogicalClock::new(), &addr.to_string())
            .expect("rebind the freed port");
        assert!(tiers.get(ServeTarget::Primary, "h3"));
        assert!(tiers.conns[0].is_some());
        back.stop();
    }

    #[test]
    fn read_window_accounts_for_every_op_in_each_phase() {
        // Primary holds h0..h40; the backup mirrors the hotter half; the
        // replacement starts empty and fills through write-through refill.
        let (primary, backup, replacement) = (store(), store(), store());
        prefill_hot(&primary, "h", 0..40, 16);
        prefill_hot(&backup, "h", 0..20, 16);
        let mut primary_srv = start_server(&primary, None, None);
        let mut replacement_srv = start_server(&replacement, None, None);

        let router = Arc::new(DegradedRouter::new());
        let mut fleet = [RoutedTiers::new(Arc::clone(&router), None)];
        fleet[0].set_tier(ServeTarget::Primary, Tier::Remote(primary_srv.addr()));
        fleet[0].set_tier(ServeTarget::BackupStale, Tier::Local(Arc::clone(&backup)));
        fleet[0].set_tier(
            ServeTarget::Replacement,
            Tier::Remote(replacement_srv.addr()),
        );

        const OPS: usize = 60;
        let tally = |fresh, stale, missed| WindowTally {
            fresh,
            stale,
            missed,
        };
        let window = |fleet: &mut [RoutedTiers]| {
            let mut k = 0u64;
            let mut scored = 0usize;
            let tally = read_window(
                fleet,
                |t| t,
                OPS,
                || {
                    k += 1;
                    (0, format!("h{}", k % 60)) // h40..h59 exist nowhere
                },
                b"refilled",
                |_| scored += 1,
                Instant::now(),
            );
            assert_eq!(tally.fresh + tally.stale + tally.missed, OPS);
            assert_eq!(scored, OPS, "the caller's SLO sees every read");
            tally
        };

        assert_eq!(router.phase(), DrillPhase::Healthy);
        assert_eq!(window(&mut fleet), tally(40, 0, 20));
        // The 20 misses were refilled at the primary (the write target).
        assert_eq!(window(&mut fleet), tally(OPS, 0, 0));

        router.on_warning();
        assert_eq!(router.phase(), DrillPhase::Warning);
        assert_eq!(window(&mut fleet), tally(OPS, 0, 0));

        primary_srv.stop();
        fleet[0].set_tier(ServeTarget::Primary, Tier::Absent);
        router.on_revoked();
        assert_eq!(router.phase(), DrillPhase::Degraded);
        // Empty replacement first, stale backup behind it.
        assert_eq!(window(&mut fleet), tally(0, 20, 40));
        // The misses refilled the replacement; the backup's half is
        // still served stale because a stale answer is not a miss.
        assert_eq!(window(&mut fleet), tally(40, 20, 0));

        router.on_warmed();
        assert_eq!(router.phase(), DrillPhase::Warmed);
        // No fallback once warmed: the backup-only keys miss.
        assert_eq!(window(&mut fleet), tally(40, 0, 20));
        assert_eq!(router.counts().total() as usize, 6 * OPS);
        replacement_srv.stop();
    }
}
