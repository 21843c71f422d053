//! The warm-up pump: replaying a backup's hot set into a replacement
//! server at a burstable-governed rate (paper §3.3, Fig. 4).
//!
//! This is the [`RecoveryStrategy::Replay`](crate::strategy::RecoveryStrategy)
//! restore path. When a spot node is revoked, its passive backup holds
//! the hot set but is too small to serve the full load; the paper's
//! recovery copies that hot set into the replacement node, pacing the
//! copy by what a burstable instance can actually push — CPU credits and
//! network allowance, modeled here by
//! [`spotcache_cloud::burstable::TokenBucket`], the same bucket
//! `sim::recovery` uses for its Fig. 4 curves. With the 2-minute warning
//! the pump starts *before* the kill and the replacement is nearly warm
//! at cutover; without it, warming starts cold at revocation and the
//! miss window is the full copy time. The `revocation_drill` bench bin
//! measures both against the Fig. 4 model (`spotcache_sim::recovery::Warmup`
//! stepped at this pump's rate), and measures this pump against the
//! [`checkpoint`](crate::checkpoint) tier's bulk restore.
//!
//! Rate derivation: 1 300 items/s per vCPU, the per-vCPU rate of
//! `sim::recovery`'s backup pump, bounds the CPU side; a t2-class backup
//! sustains its baseline fraction of a core indefinitely and a full core
//! while credits last, so
//! the pump's defaults are `peak = 1 300`, `base = baseline × peak`, with
//! enough initial credits for a one-minute burst. Network framing is
//! identical to live replication ([`spotcache_cache::replication`]): acked memcached
//! `set`s, flag prefixes preserved, so a corrupted pump link surfaces as
//! an error — never a silently cold replacement.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use spotcache_cache::replication::{Link, Mutation, ReplicationConfig};
use spotcache_cache::store::Store;
use spotcache_cloud::burstable::TokenBucket;
use spotcache_obs::{Obs, Tracer};

/// Tuning knobs for the warm-up pump.
#[derive(Debug, Clone)]
pub struct WarmupConfig {
    /// Hot items to replay, hottest first (LRU recency order).
    pub max_items: usize,
    /// Sustained pump rate, items/second (the burstable baseline).
    pub base_rate: f64,
    /// Burst pump rate, items/second (full-core copy speed, 1 300 per
    /// vCPU as in `sim::recovery`'s backup pump).
    pub peak_rate: f64,
    /// Initial credit, in items, available for bursting above baseline.
    pub initial_credits: f64,
    /// Pacing tick: credits are spent and a batch shipped once per tick.
    pub tick: Duration,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        Self {
            max_items: 50_000,
            // t2-class defaults: 1 vCPU at a 20% baseline, one minute of
            // full-core burst banked.
            base_rate: 260.0,
            peak_rate: 1_300.0,
            initial_credits: 78_000.0,
            tick: Duration::from_millis(5),
        }
    }
}

/// What a pump run accomplished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupReport {
    /// Hot items found in the backup (≤ `max_items`).
    pub(crate) items_total: usize,
    /// Items acked by the replacement.
    pub items_pumped: usize,
    /// Link errors survived along the way (reconnect + re-ship).
    pub io_errors: u64,
    /// Wall-clock duration of the pump run.
    pub elapsed: Duration,
    /// Average achieved rate, items/second.
    pub achieved_rate: f64,
}

/// Replays `backup`'s hot set into the server at `target`, hottest items
/// first, pacing by the token bucket in `cfg`. Blocks until the snapshot
/// is fully pumped or one batch fails more often than the replicator's
/// own link policy allows: [`Link::deliver`] under
/// `ReplicationConfig::default()` (500 ms I/O timeout, 8 retries, 10 ms
/// back-off doubling to 500 ms, ±25 % jitter), so a replacement whose
/// listener is late is waited out. Credits keep accruing while a batch
/// backs off; the next tick spends them.
///
/// `now` is the backup's logical time (used to snapshot residual TTLs).
/// With `obs`, progress surfaces as `warmup_pumped_total`,
/// `warmup_errors_total`, and the `warmup_progress` gauge (0..1); with
/// `tracer`, each shipped batch is a `drill`-category `pump_batch` span.
///
/// The snapshot is taken once, up front: items the primary wrote *after*
/// the revocation go to the replacement directly (see
/// `DegradedRouter::write_target`), so replaying a point-in-time hot set
/// is exactly the paper's semantics — the backup repairs history, the
/// write path repairs the present.
pub fn pump_hot_set(
    backup: &Store,
    target: SocketAddr,
    now: u64,
    cfg: &WarmupConfig,
    obs: Option<&Obs>,
    tracer: Option<&Tracer>,
) -> std::io::Result<WarmupReport> {
    let snapshot: Vec<Mutation> = backup
        .hot_snapshot_at(cfg.max_items, now)
        .into_iter()
        .map(|(key, raw_value, ttl)| Mutation::Set {
            key,
            raw_value,
            ttl,
        })
        .collect();
    let total = snapshot.len();

    let c_pumped = obs.map(|o| o.counter("warmup_pumped_total"));
    let c_errors = obs.map(|o| o.counter("warmup_errors_total"));
    let g_progress = obs.map(|o| o.gauge("warmup_progress"));
    if let Some(g) = &g_progress {
        g.set(if total == 0 { 1.0 } else { 0.0 });
    }

    let start = Instant::now();
    if total == 0 {
        return Ok(WarmupReport {
            items_total: 0,
            items_pumped: 0,
            io_errors: 0,
            elapsed: start.elapsed(),
            achieved_rate: 0.0,
        });
    }

    let mut bucket = TokenBucket::new(
        cfg.initial_credits,
        cfg.initial_credits.max(cfg.peak_rate),
        cfg.base_rate,
        cfg.base_rate,
        cfg.peak_rate,
    );
    let policy = ReplicationConfig::default();
    let mut link = Link::new(target, &policy);
    let mut io_errors = 0u64;
    let mut idx = 0usize;
    let mut carry = 0.0f64;
    let mut last = Instant::now();

    while idx < total {
        std::thread::sleep(cfg.tick);
        let tick_end = Instant::now();
        let dt = (tick_end - last).as_secs_f64();
        last = tick_end;
        carry += bucket.consume(cfg.peak_rate, dt) * dt;
        let quota = carry as usize;
        if quota == 0 {
            continue;
        }
        let end = (idx + quota).min(total);
        let mut attempts = 0u32;
        let span = tracer.map(|t| (t, "drill", "pump_batch"));
        link.deliver(&snapshot[idx..end], span, |_| {
            io_errors += 1;
            if let Some(c) = &c_errors {
                c.inc();
            }
            attempts += 1;
            attempts <= policy.max_batch_retries
        })?;
        let n = end - idx;
        carry -= n as f64;
        idx = end;
        if let Some(c) = &c_pumped {
            c.add(n as u64);
        }
        if let Some(g) = &g_progress {
            g.set(idx as f64 / total as f64);
        }
    }

    let elapsed = start.elapsed();
    Ok(WarmupReport {
        items_total: total,
        items_pumped: idx,
        io_errors,
        elapsed,
        achieved_rate: idx as f64 / elapsed.as_secs_f64().max(1e-9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotcache_cache::protocol::encode_value;
    use spotcache_cache::server::{CacheServer, LogicalClock};
    use spotcache_cache::store::StoreConfig;
    use std::sync::Arc;

    fn store() -> Arc<Store> {
        Arc::new(Store::new(StoreConfig {
            capacity_bytes: 4 << 20,
            shards: 4,
        }))
    }

    fn fast_cfg() -> WarmupConfig {
        WarmupConfig {
            base_rate: 100_000.0,
            peak_rate: 100_000.0,
            initial_credits: 100_000.0,
            tick: Duration::from_millis(1),
            ..WarmupConfig::default()
        }
    }

    #[test]
    fn pump_replays_backup_into_replacement() {
        let backup = store();
        for i in 0..200u32 {
            let framed = encode_value(3, format!("v{i}").as_bytes());
            backup.set(format!("h{i}").into_bytes(), framed);
        }
        let replacement = store();
        let server =
            CacheServer::start(Arc::clone(&replacement), LogicalClock::new(), "127.0.0.1:0")
                .expect("replacement server");
        let report =
            pump_hot_set(&backup, server.addr(), 0, &fast_cfg(), None, None).expect("pump");
        assert_eq!(report.items_total, 200);
        assert_eq!(report.items_pumped, 200);
        assert_eq!(report.io_errors, 0);
        for i in 0..200u32 {
            let key = format!("h{i}");
            assert_eq!(
                replacement.get(key.as_bytes()),
                backup.get(key.as_bytes()),
                "key {key} diverged"
            );
        }
    }

    #[test]
    fn pump_paces_by_the_token_bucket() {
        let backup = store();
        for i in 0..100u32 {
            backup.set(format!("k{i}").into_bytes(), b"v".to_vec());
        }
        let replacement = store();
        let server =
            CacheServer::start(Arc::clone(&replacement), LogicalClock::new(), "127.0.0.1:0")
                .expect("server");
        // No credits, 500 items/s baseline → 100 items need ≥ ~0.2 s.
        let cfg = WarmupConfig {
            base_rate: 500.0,
            peak_rate: 500.0,
            initial_credits: 0.0,
            tick: Duration::from_millis(1),
            ..WarmupConfig::default()
        };
        let report = pump_hot_set(&backup, server.addr(), 0, &cfg, None, None).expect("pump");
        assert_eq!(report.items_pumped, 100);
        assert!(
            report.elapsed >= Duration::from_millis(150),
            "pump finished implausibly fast: {:?}",
            report.elapsed
        );
        assert!(report.achieved_rate <= 700.0, "{}", report.achieved_rate);
    }

    #[test]
    fn pump_against_dead_target_errors_without_panicking() {
        let backup = store();
        backup.set("k", "v");
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        // Eight retries on the default schedule: about 1.6 s of back-off.
        let err = pump_hot_set(&backup, addr, 0, &fast_cfg(), None, None);
        assert!(err.is_err());
    }

    #[test]
    fn pump_reaches_a_target_that_listens_late() {
        let backup = store();
        for i in 0..20u32 {
            backup.set(format!("k{i}").into_bytes(), b"v".to_vec());
        }
        // Reserve a port, free it, and bring the replacement's server up
        // on it only 100 ms after the pump has started.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let replacement = store();
        let late_store = Arc::clone(&replacement);
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            CacheServer::start(late_store, LogicalClock::new(), &addr.to_string())
                .expect("late listener")
        });
        // The default 5 ms tick: eight ticks were all the patience the
        // pump had while it retried on its pacing tick alone.
        let cfg = WarmupConfig {
            tick: WarmupConfig::default().tick,
            ..fast_cfg()
        };
        let report = pump_hot_set(&backup, addr, 0, &cfg, None, None);
        let mut srv = late.join().expect("late listener thread");
        srv.stop();
        let report = report.expect("the pump must wait out a late listener");
        assert_eq!(report.items_pumped, 20);
        assert!(report.io_errors >= 1, "the first connect was refused");
        assert!(replacement.get(b"k19").is_some());
    }

    #[test]
    fn pump_exports_obs_and_spans() {
        let backup = store();
        for i in 0..20u32 {
            backup.set(format!("k{i}").into_bytes(), b"v".to_vec());
        }
        let replacement = store();
        let server =
            CacheServer::start(Arc::clone(&replacement), LogicalClock::new(), "127.0.0.1:0")
                .expect("server");
        let obs = Obs::new();
        let tracer = Tracer::all(1024);
        let report = pump_hot_set(
            &backup,
            server.addr(),
            0,
            &fast_cfg(),
            Some(&obs),
            Some(&tracer),
        )
        .expect("pump");
        assert_eq!(report.items_pumped, 20);
        assert_eq!(obs.counter("warmup_pumped_total").get(), 20);
        assert!((obs.gauge("warmup_progress").get() - 1.0).abs() < 1e-9);
        assert!(tracer.categories().contains(&"drill"));
    }
}
