//! The [`RecoveryStrategy`] selector: one abstraction owning the restore
//! path after a spot revocation, in the two flavors the drill measures.
//!
//! * **Replay** — the paper's §3.3 recovery: pump the backup's hot set
//!   into the replacement as acked memcached `set`s, paced by burstable
//!   credits ([`crate::replay`]). Cheap to arm (nothing happens until
//!   restore), bounded by the pump rate.
//! * **Hybrid** — ADR-003's alternative: bulk-load a `spotcache-ckpt-v1`
//!   full-state snapshot ([`crate::checkpoint`]) into the replacement's
//!   store directly, at memory/bulk-load speed rather than at the pump
//!   rate, then top up whatever mutated after the cut by shipping the
//!   replication-stream tail ([`spotcache_cache::replication`]) to the
//!   replacement. With an empty tail it is a plain checkpoint restore.
//!
//! The strategy also names itself to the router
//! ([`RecoveryStrategy::mode`]), a label `/healthz` reports; the read
//! plan is the same for both.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use spotcache_cache::replication::{Link, Mutation, ReplicationConfig};
use spotcache_cache::store::Store;
use spotcache_obs::{Obs, Tracer};
use spotcache_router::degraded::RecoveryMode;

use crate::checkpoint::{
    restore_checkpoint, CheckpointConfig, CkptRestoreReport, CkptWriteReport, Cutter, FrameHead,
    Loader,
};
use crate::replay::{pump_hot_set, WarmupConfig, WarmupReport};

/// Mutations per shipped batch in the Hybrid top-up phase.
const TOP_UP_BATCH_MAX: usize = 128;

/// Knobs for the Hybrid top-up phase (shipping the replication tail).
#[derive(Debug, Clone)]
pub struct TopUpConfig {
    /// Per-link read/write timeout.
    pub(crate) io_timeout: Duration,
    /// Connect/ship attempts before the top-up gives up with an error.
    pub(crate) max_retries: u32,
}

impl Default for TopUpConfig {
    fn default() -> Self {
        Self {
            io_timeout: Duration::from_millis(500),
            max_retries: 8,
        }
    }
}

/// How to bring a replacement node up to serving state after a
/// revocation. See the module docs for the trade each arm makes.
#[derive(Debug, Clone)]
pub enum RecoveryStrategy {
    /// Replay the backup's hot set through the paced warm-up pump.
    Replay(WarmupConfig),
    /// Bulk-load a `spotcache-ckpt-v1` checkpoint into the replacement,
    /// then ship the replication tail on top.
    Hybrid {
        /// Checkpoint restore settings (none left).
        checkpoint: CheckpointConfig,
        /// Tail-shipping knobs.
        top_up: TopUpConfig,
    },
}

impl RecoveryStrategy {
    /// The label [`spotcache_router::degraded::DegradedRouter`] reports while this
    /// strategy's restore runs.
    pub fn mode(&self) -> RecoveryMode {
        match self {
            RecoveryStrategy::Replay(_) => RecoveryMode::Replay,
            RecoveryStrategy::Hybrid { .. } => RecoveryMode::Hybrid,
        }
    }

    /// Short lowercase name, as used in drill artifacts and logs.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryStrategy::Replay(_) => "replay",
            RecoveryStrategy::Hybrid { .. } => "hybrid",
        }
    }

    /// Runs this strategy's restore path against `ctx`, blocking until
    /// the replacement holds the recovered state (or a link fault
    /// exhausts the retries).
    ///
    /// * `Replay` pumps `ctx.backup`'s hot set to `ctx.target_addr`.
    /// * `Hybrid` bulk-loads `ctx.checkpoint` into `ctx.target_store`;
    ///   when no pre-cut checkpoint is supplied (unwarned revocation) it
    ///   cuts one from `ctx.backup` inside the restore, hottest first
    ///   across shards: one frame per round, round r holding slice r of
    ///   every shard's recency order, each loaded before the next is cut
    ///   — the cut is part of the measured restore, exactly the cost an
    ///   unwarned operator pays, and `ckpt_cut` / `ckpt` report what a
    ///   whole stream would have, with `elapsed` summed per phase. Then
    ///   it ships `ctx.tail` to `ctx.target_addr` as acked memcached
    ///   commands (nothing to ship, no connection, when it is empty).
    pub fn restore(&self, ctx: &RestoreContext<'_>) -> io::Result<RestoreReport> {
        let start = Instant::now();
        match self {
            RecoveryStrategy::Replay(cfg) => {
                let pump = pump_hot_set(
                    ctx.backup,
                    ctx.target_addr,
                    ctx.now,
                    cfg,
                    ctx.obs,
                    ctx.tracer,
                )?;
                Ok(RestoreReport {
                    items_restored: pump.items_pumped as u64,
                    ckpt_cut: None,
                    ckpt: None,
                    topped_up: 0,
                    pump: Some(pump),
                    elapsed: start.elapsed(),
                })
            }
            RecoveryStrategy::Hybrid { top_up, .. } => {
                let (cut, restored) = self.checkpoint_step(ctx)?;
                let topped_up = ship_tail(ctx.tail, ctx.target_addr, top_up, ctx.tracer)?;
                Ok(RestoreReport {
                    items_restored: restored.items_stored + topped_up,
                    ckpt_cut: cut,
                    ckpt: Some(restored),
                    topped_up,
                    pump: None,
                    elapsed: start.elapsed(),
                })
            }
        }
    }

    fn checkpoint_step(
        &self,
        ctx: &RestoreContext<'_>,
    ) -> io::Result<(Option<CkptWriteReport>, CkptRestoreReport)> {
        if let Some(mut stream) = ctx.checkpoint {
            let restored = restore_checkpoint(
                &mut stream,
                ctx.target_store,
                ctx.now,
                &CheckpointConfig::default(),
                ctx.obs,
                ctx.tracer,
            )?;
            return Ok((None, restored));
        }
        // Unwarned: every shard's recency order once, then as many rounds
        // as shards, round r one frame of slice r of every order, loaded
        // from the cutter's buffer before the next round is cut into it
        // (the `checkpoint` module docs say why). Head, CRC and trailer
        // still go through the loader's checks, exactly as if they had
        // crossed a wire.
        let start = Instant::now();
        let backup = ctx.backup;
        let rounds = backup.shard_count();
        let orders: Vec<Vec<u32>> = (0..rounds)
            .map(|shard| backup.recency_order_at(shard, ctx.now))
            .collect();
        let mut cutter = Cutter::new(backup, ctx.now, ctx.obs, ctx.tracer);
        let mut loader = Loader::new(
            &cutter.header(),
            ctx.target_store,
            ctx.now,
            ctx.obs,
            ctx.tracer,
        )?;
        let (mut cut_time, mut load_time) = (start.elapsed(), Duration::ZERO);
        for round in 0..rounds {
            let start = Instant::now();
            let slices = orders.iter().enumerate().map(|(shard, order)| {
                let at = |r: usize| order.len() * r / rounds;
                (shard, &order[at(round)..at(round + 1)])
            });
            let (head, crc) = cutter.cut_frame(round as u32, slices);
            let cut_done = Instant::now();
            loader.load_frame(&FrameHead::parse(&head)?, cutter.payload(), crc)?;
            cut_time += cut_done - start;
            load_time += cut_done.elapsed();
        }
        let trailer = cutter.trailer();
        let cut = cutter.finish(cut_time);
        let restored = loader.finish(&trailer, load_time)?;
        Ok((Some(cut), restored))
    }
}

/// Everything a restore needs, borrowed from the drill or operator.
pub struct RestoreContext<'a> {
    /// The surviving backup store (replay source; checkpoint-cut source
    /// when no pre-cut stream is supplied).
    pub backup: &'a Store,
    /// The replacement server's socket address (replay and tail
    /// shipping go over the wire, like a real cross-node restore).
    pub target_addr: SocketAddr,
    /// The replacement's store, for direct checkpoint bulk-load.
    pub target_store: &'a Store,
    /// A `spotcache-ckpt-v1` stream cut earlier (at the warning), if
    /// any. `None` means cut from `backup` now, inside the restore.
    pub checkpoint: Option<&'a [u8]>,
    /// Replication-stream tail to ship after the checkpoint lands
    /// (Hybrid only; Replay ignores it).
    pub tail: &'a [Mutation],
    /// Logical time of the restore, for TTL re-basing.
    pub now: u64,
    /// Optional metrics sink (`ckpt_*`, `warmup_*` series).
    pub obs: Option<&'a Obs>,
    /// Optional span sink (`checkpoint`, `drill` categories).
    pub tracer: Option<&'a Tracer>,
}

/// What a [`RecoveryStrategy::restore`] run accomplished.
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// Items landed in the replacement (pumped, bulk-loaded, and/or
    /// topped up).
    pub items_restored: u64,
    /// Checkpoint cut inside the restore (unwarned case), if one was.
    pub ckpt_cut: Option<CkptWriteReport>,
    /// Checkpoint restore report (Hybrid).
    pub ckpt: Option<CkptRestoreReport>,
    /// Tail mutations shipped on top (Hybrid).
    pub topped_up: u64,
    /// Pump report (Replay).
    pub pump: Option<WarmupReport>,
    /// Wall-clock duration of the whole restore.
    pub elapsed: Duration,
}

/// Ships `tail` to `target` in acked batches, reconnecting on link
/// errors up to `cfg.max_retries`, pausing between attempts on the
/// replicator's own schedule (`ReplicationConfig::default()`: 10 ms
/// doubling to 500 ms, ±25 % jitter) — a replacement whose listener is a
/// few milliseconds late must not burn every retry before it is up.
/// Returns mutations shipped.
fn ship_tail(
    tail: &[Mutation],
    target: SocketAddr,
    cfg: &TopUpConfig,
    tracer: Option<&Tracer>,
) -> io::Result<u64> {
    if tail.is_empty() {
        return Ok(0);
    }
    let mut link = Link::new(
        target,
        &ReplicationConfig {
            io_timeout: cfg.io_timeout,
            ..ReplicationConfig::default()
        },
    );
    let mut idx = 0usize;
    let mut attempts = 0u32;
    while idx < tail.len() {
        let end = (idx + TOP_UP_BATCH_MAX).min(tail.len());
        let span = tracer.map(|t| t.span("checkpoint", "top_up_batch"));
        let ctx = span
            .as_ref()
            .and_then(|s| s.context())
            .or_else(spotcache_obs::trace::thread_context);
        let result = link.ship(&tail[idx..end], ctx);
        drop(span);
        match result {
            Ok(()) => {
                idx = end;
                attempts = 0;
            }
            Err(e) => {
                attempts += 1;
                if attempts > cfg.max_retries {
                    return Err(e);
                }
                link.back_off(); // mutations are idempotent; re-ship the batch
            }
        }
    }
    Ok(idx as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use spotcache_cache::protocol::encode_value;
    use spotcache_cache::server::{CacheServer, LogicalClock};
    use spotcache_cache::store::{MutationSink, StoreConfig};
    use std::sync::Arc;

    fn store() -> Arc<Store> {
        Arc::new(Store::new(StoreConfig {
            capacity_bytes: 8 << 20,
            shards: 4,
        }))
    }

    fn fast_pump() -> WarmupConfig {
        WarmupConfig {
            base_rate: 100_000.0,
            peak_rate: 100_000.0,
            initial_credits: 100_000.0,
            tick: Duration::from_millis(1),
            ..WarmupConfig::default()
        }
    }

    fn fill(s: &Store, n: u32) {
        for i in 0..n {
            let framed = encode_value(0, format!("v{i}").as_bytes());
            s.set(format!("k{i}").into_bytes(), framed);
        }
    }

    struct Rig {
        backup: Arc<Store>,
        replacement: Arc<Store>,
        server: CacheServer,
    }

    fn rig(items: u32) -> Rig {
        let backup = store();
        fill(&backup, items);
        let replacement = store();
        let server =
            CacheServer::start(Arc::clone(&replacement), LogicalClock::new(), "127.0.0.1:0")
                .expect("server");
        Rig {
            backup,
            replacement,
            server,
        }
    }

    /// Hybrid with default top-up knobs; with an empty tail, a plain
    /// checkpoint restore.
    fn hybrid() -> RecoveryStrategy {
        RecoveryStrategy::Hybrid {
            checkpoint: CheckpointConfig::default(),
            top_up: TopUpConfig::default(),
        }
    }

    fn ctx<'a>(
        r: &'a Rig,
        checkpoint: Option<&'a [u8]>,
        tail: &'a [Mutation],
    ) -> RestoreContext<'a> {
        RestoreContext {
            backup: &r.backup,
            target_addr: r.server.addr(),
            target_store: &r.replacement,
            checkpoint,
            tail,
            now: 0,
            obs: None,
            tracer: None,
        }
    }

    #[test]
    fn modes_and_names_line_up() {
        let replay = RecoveryStrategy::Replay(WarmupConfig::default());
        let hybrid = hybrid();
        assert_eq!(replay.mode(), RecoveryMode::Replay);
        assert_eq!(hybrid.mode(), RecoveryMode::Hybrid);
        assert_eq!(replay.name(), "replay");
        assert_eq!(hybrid.name(), "hybrid");
    }

    #[test]
    fn replay_strategy_pumps_over_the_wire() {
        let r = rig(150);
        let strategy = RecoveryStrategy::Replay(fast_pump());
        let report = strategy.restore(&ctx(&r, None, &[])).expect("restore");
        assert_eq!(report.items_restored, 150);
        assert!(report.pump.is_some());
        assert_eq!(r.replacement.get(b"k0"), r.backup.get(b"k0"));
    }

    #[test]
    fn checkpoint_strategy_restores_a_precut_stream() {
        let r = rig(200);
        let mut buf = Vec::new();
        write_checkpoint(&r.backup, 0, &mut buf, None, None).expect("cut");
        let strategy = hybrid();
        let report = strategy
            .restore(&ctx(&r, Some(&buf), &[]))
            .expect("restore");
        assert_eq!(report.topped_up, 0, "empty tail: nothing shipped");
        assert_eq!(report.items_restored, 200);
        assert!(report.ckpt_cut.is_none(), "pre-cut stream: no cut inside");
        for i in 0..200u32 {
            let key = format!("k{i}");
            assert_eq!(
                r.replacement.get(key.as_bytes()),
                r.backup.get(key.as_bytes()),
                "key {key} diverged"
            );
        }
    }

    #[test]
    fn unwarned_checkpoint_reports_what_a_whole_stream_would() {
        let r = rig(300);
        let mut buf = Vec::new();
        let whole_cut = write_checkpoint(&r.backup, 0, &mut buf, None, None).expect("cut");
        let whole_load = restore_checkpoint(
            &mut buf.as_slice(),
            &store(),
            0,
            &CheckpointConfig::default(),
            None,
            None,
        )
        .expect("load");

        let obs = Obs::new();
        let strategy = hybrid();
        let report = strategy
            .restore(&RestoreContext {
                obs: Some(&obs),
                ..ctx(&r, None, &[])
            })
            .expect("restore");
        assert_eq!(report.items_restored, 300);
        // Frame by frame, nothing written out — and yet the reports of a
        // 300-item stream, byte for byte.
        let cut = report.ckpt_cut.expect("unwarned restore cuts inline");
        assert_eq!(
            CkptWriteReport {
                elapsed: whole_cut.elapsed,
                ..cut
            },
            whole_cut
        );
        let load = report.ckpt.expect("checkpoint restore report");
        assert_eq!(
            CkptRestoreReport {
                elapsed: whole_load.elapsed,
                ..load
            },
            whole_load
        );
        assert_eq!(
            obs.counter("ckpt_bytes_written_total").get(),
            buf.len() as u64
        );
        assert_eq!(
            obs.counter("ckpt_bytes_restored_total").get(),
            buf.len() as u64
        );
        assert_eq!(obs.counter("ckpt_items_restored_total").get(), 300);
        // The replacement is the backup, shard by shard, hottest first.
        for shard in 0..r.backup.shard_count() {
            let walk = |s: &Store| {
                let mut items = Vec::new();
                s.visit_shard_at(shard, 0, |k, v, _| items.push((k.to_vec(), v.to_vec())));
                items
            };
            assert_eq!(walk(&r.replacement), walk(&r.backup), "shard {shard}");
        }
    }

    #[test]
    fn unwarned_restore_lands_each_slice_of_every_shard_before_the_next() {
        #[derive(Default)]
        struct Recorder(std::sync::Mutex<Vec<Vec<u8>>>);
        impl MutationSink for Recorder {
            fn on_set(&self, key: &bytes::Bytes, _: &bytes::Bytes, _: Option<u64>) {
                self.0.lock().unwrap().push(key.to_vec());
            }
            fn on_delete(&self, _: &[u8]) {}
        }
        // Four rounds of about 600 records each: every frame is applied
        // in more than one 512-record restore batch.
        const ITEMS: u32 = 2_400;
        let r = rig(ITEMS);
        for i in (0..ITEMS).step_by(7) {
            assert!(r.backup.get(format!("k{i}").as_bytes()).is_some());
        }
        // Each key's round: its rank in its shard's recency order, the
        // order cut into as many slices as there are shards.
        let rounds = r.backup.shard_count();
        let mut round_of = std::collections::HashMap::new();
        for shard in 0..rounds {
            let mut keys = Vec::new();
            r.backup
                .visit_shard_at(shard, 0, |k, _, _| keys.push(k.to_vec()));
            let n = keys.len();
            for (rank, key) in keys.into_iter().enumerate() {
                let round = (0..rounds).find(|&round| rank < n * (round + 1) / rounds);
                round_of.insert(key, round.expect("a rank below n has a round"));
            }
        }
        let recorder = Arc::new(Recorder::default());
        r.replacement.set_mutation_sink(Some(recorder.clone()));
        let report = hybrid().restore(&ctx(&r, None, &[])).expect("restore");
        assert_eq!(report.items_restored, u64::from(ITEMS));
        let stored = recorder.0.lock().unwrap();
        let seq: Vec<usize> = stored.iter().map(|k| round_of[k]).collect();
        assert_eq!(seq.len(), ITEMS as usize);
        assert!(
            seq.windows(2).all(|w| w[0] <= w[1]),
            "a later round landed before an earlier one: {seq:?}"
        );
        assert_eq!(seq.last(), Some(&(rounds - 1)));
    }

    #[test]
    fn hybrid_strategy_tops_up_the_tail() {
        let r = rig(100);
        let mut buf = Vec::new();
        write_checkpoint(&r.backup, 0, &mut buf, None, None).expect("cut");
        // Mutations that arrived after the cut: one overwrite, one new
        // key, one delete.
        let tail = vec![
            Mutation::Set {
                key: bytes::Bytes::from_static(b"k0"),
                raw_value: encode_value(0, b"fresher"),
                ttl: None,
            },
            Mutation::Set {
                key: bytes::Bytes::from_static(b"tail-key"),
                raw_value: encode_value(0, b"tail-val"),
                ttl: None,
            },
            Mutation::Delete {
                key: bytes::Bytes::from_static(b"k1"),
            },
        ];
        let strategy = hybrid();
        let report = strategy
            .restore(&ctx(&r, Some(&buf), &tail))
            .expect("restore");
        assert_eq!(report.topped_up, 3);
        assert_eq!(report.items_restored, 100 + 3);
        assert_eq!(r.replacement.get(b"k0"), Some(encode_value(0, b"fresher")));
        assert!(r.replacement.get(b"tail-key").is_some());
        assert!(r.replacement.get(b"k1").is_none(), "tail delete applied");
        assert_eq!(r.replacement.get(b"k2"), r.backup.get(b"k2"));
    }

    #[test]
    fn hybrid_tops_up_a_target_that_listens_late() {
        let r = rig(10);
        // Reserve a port, free it, and bring the replacement's server up
        // on it only 30 ms after the restore has started.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let late_store = Arc::clone(&r.replacement);
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            CacheServer::start(late_store, LogicalClock::new(), &addr.to_string())
                .expect("late listener")
        });
        let tail: Vec<Mutation> = (0..5)
            .map(|i| Mutation::Set {
                key: bytes::Bytes::from(format!("t{i}")),
                raw_value: encode_value(0, b"v"),
                ttl: None,
            })
            .collect();
        let strategy = hybrid();
        let ctx = RestoreContext {
            backup: &r.backup,
            target_addr: addr,
            target_store: &r.replacement,
            checkpoint: None,
            tail: &tail,
            now: 0,
            obs: None,
            tracer: None,
        };
        let report = strategy.restore(&ctx);
        let mut srv = late.join().expect("late listener thread");
        srv.stop();
        let report = report.expect("the top-up must wait out a late listener");
        assert_eq!(report.topped_up, tail.len() as u64);
        assert!(r.replacement.get(b"t4").is_some());
    }

    #[test]
    fn hybrid_against_dead_target_errors_cleanly() {
        let r = rig(10);
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let tail = vec![Mutation::Set {
            key: bytes::Bytes::from_static(b"t"),
            raw_value: encode_value(0, b"v"),
            ttl: None,
        }];
        let strategy = RecoveryStrategy::Hybrid {
            checkpoint: CheckpointConfig::default(),
            top_up: TopUpConfig {
                io_timeout: Duration::from_millis(20),
                max_retries: 2,
            },
        };
        let ctx = RestoreContext {
            backup: &r.backup,
            target_addr: addr,
            target_store: &r.replacement,
            checkpoint: None,
            tail: &tail,
            now: 0,
            obs: None,
            tracer: None,
        };
        assert!(strategy.restore(&ctx).is_err());
    }

    #[test]
    fn corrupt_checkpoint_surfaces_as_io_error() {
        let r = rig(50);
        let mut buf = Vec::new();
        write_checkpoint(&r.backup, 0, &mut buf, None, None).expect("cut");
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let strategy = hybrid();
        let err = strategy.restore(&ctx(&r, Some(&buf), &[]));
        assert!(err.is_err(), "corrupt stream must not restore");
    }
}
