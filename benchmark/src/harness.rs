//! What every workload shares: the result of a run, the drift guard that
//! brackets timed slices with the calibration kernel, CPU accounting read
//! from `schedstat`, and the in-process cache node the data-plane
//! workloads talk to.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use spotcache_cache::server::{CacheServer, LogicalClock, ServerConfig};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::{Obs, Tracer};

use crate::host::{self, SchedStat};
use crate::stats::median;

/// Arguments of one run, as the driver passes them.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Directory span files are written to.
    pub out_dir: std::path::PathBuf,
}

/// Result of one run of one workload.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Commands whose reply was checked.
    pub attempted: u64,
    /// Commands that were refused, timed out, mis-framed or wrong-valued.
    pub failed: u64,
    /// Output checks beyond per-command ones (golden comparisons, state
    /// diffs) that did not hold, as human-readable lines.
    pub violations: Vec<String>,
    /// Observations that do not make the outputs wrong but a reader should
    /// see (a rate step that was not sustained, a round that never
    /// recovered): they show in the metrics too.
    pub notes: Vec<String>,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl RunOutput {
    /// Sets one metric. Only catalogued names: what a run reports is what
    /// `BENCHMARK.json` and the glossary list.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            crate::metrics::END_TO_END
                .iter()
                .chain(crate::metrics::PER_LAYER)
                .any(|m| m.name == name),
            "{name} is not in the metric catalogue"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Largest calibration drift across a slice that is still accepted.
pub const MAX_DRIFT: f64 = 0.05;
/// Slices a run may repeat because the host drifted under them.
pub const MAX_RERUNS: u32 = 2;

/// Brackets timed slices with the calibration kernel and repeats a slice
/// whose two readings disagree by more than [`MAX_DRIFT`].
pub struct DriftGuard {
    calib_ns: Vec<f64>,
    /// Slices repeated so far.
    pub reruns: u32,
    /// Largest drift among accepted slices.
    pub max_drift: f64,
    steal0: (u64, u64),
}

impl Default for DriftGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl DriftGuard {
    /// A guard whose steal accounting starts now.
    pub fn new() -> Self {
        Self {
            calib_ns: Vec::new(),
            reruns: 0,
            max_drift: 0.0,
            steal0: host::read_cpu_steal(),
        }
    }

    /// Runs `slice` between two calibrations; repeats it (at most
    /// [`MAX_RERUNS`] times per run) while the readings drift apart.
    pub fn slice<T>(&mut self, mut slice: impl FnMut() -> T) -> T {
        loop {
            let before = host::calibrate();
            let out = slice();
            let after = host::calibrate();
            let drift = (after - before).abs() / before;
            if drift <= MAX_DRIFT || self.reruns >= MAX_RERUNS {
                self.calib_ns.extend([before, after]);
                self.max_drift = self.max_drift.max(drift);
                return out;
            }
            self.reruns += 1;
        }
    }

    /// Median calibration reading, nanoseconds.
    pub fn calib_ns(&self) -> f64 {
        median(&self.calib_ns)
    }

    /// Share of all CPU time since the guard was made that the hypervisor
    /// gave to someone else.
    pub fn steal_frac(&self) -> f64 {
        let (s1, t1) = host::read_cpu_steal();
        let (s0, t0) = self.steal0;
        if t1 > t0 {
            (s1 - s0) as f64 / (t1 - t0) as f64
        } else {
            0.0
        }
    }

    /// Writes the `host.*` metrics.
    pub fn report(&self, out: &mut RunOutput, pinned: bool) {
        out.set("host.calib_ns", self.calib_ns());
        out.set("host.drift_frac", self.max_drift);
        out.set("host.slice_reruns", f64::from(self.reruns));
        out.set("host.steal_frac", self.steal_frac());
        out.set("host.pinned", if pinned { 1.0 } else { 0.0 });
    }
}

/// CPU time of the server threads and of the calling (load generator)
/// thread over an interval, from `schedstat`.
pub struct CpuProbe {
    t0: Instant,
    server0: SchedStat,
    own0: SchedStat,
    own_tid: i32,
}

/// What a [`CpuProbe`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuUse {
    /// Wall seconds.
    pub secs: f64,
    /// Server threads: seconds on a CPU.
    pub server_run_s: f64,
    /// Server threads: seconds runnable but waiting for a CPU.
    pub server_wait_s: f64,
    /// Load generator thread: seconds on a CPU.
    pub loadgen_run_s: f64,
}

impl CpuUse {
    /// Adds another interval.
    pub fn add(&mut self, other: &CpuUse) {
        self.secs += other.secs;
        self.server_run_s += other.server_run_s;
        self.server_wait_s += other.server_wait_s;
        self.loadgen_run_s += other.loadgen_run_s;
    }
}

impl CpuProbe {
    /// Starts an interval.
    pub fn start() -> Self {
        let own_tid = host::current_tid();
        Self {
            t0: Instant::now(),
            server0: host::schedstat_of(host::SERVER_THREADS),
            own0: host::read_schedstat(own_tid).unwrap_or_default(),
            own_tid,
        }
    }

    /// Ends the interval. Server threads must still be alive.
    pub fn stop(self) -> CpuUse {
        let server = host::schedstat_of(host::SERVER_THREADS).since(&self.server0);
        let own = host::read_schedstat(self.own_tid)
            .unwrap_or_default()
            .since(&self.own0);
        CpuUse {
            secs: self.t0.elapsed().as_secs_f64(),
            server_run_s: server.run_ns as f64 / 1e9,
            server_wait_s: server.wait_ns as f64 / 1e9,
            loadgen_run_s: own.run_ns as f64 / 1e9,
        }
    }
}

/// One in-process cache node: a store, the server in front of it (one
/// worker, pinned to the server CPU) and the logical clock they share.
pub struct Node {
    /// The store.
    pub store: Arc<Store>,
    /// The server.
    pub server: CacheServer,
    /// The clock TTLs run on.
    pub clock: Arc<LogicalClock>,
    /// Whether every server thread took its CPU pin.
    pub pinned: bool,
}

/// Shards of every benchmark store (the repository's default).
pub const SHARDS: usize = 8;

impl Node {
    /// Starts a node over an existing (possibly prefilled) store.
    pub fn start(
        store: Arc<Store>,
        obs: Option<Arc<Obs>>,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<Self> {
        let clock = LogicalClock::new();
        let server = CacheServer::start_full(
            Arc::clone(&store),
            Arc::clone(&clock),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            obs,
            tracer,
        )?;
        let pinned = host::pin_server_threads();
        Ok(Self {
            store,
            server,
            clock,
            pinned,
        })
    }

    /// An empty store of `capacity_bytes`.
    pub fn new_store(capacity_bytes: usize) -> Arc<Store> {
        Arc::new(Store::new(StoreConfig {
            capacity_bytes,
            shards: SHARDS,
        }))
    }

    /// Stops the server and returns how long that took, milliseconds.
    pub fn stop(&mut self) -> f64 {
        let t0 = Instant::now();
        self.server.stop();
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Share of fine windows in which the client got at least `0.9 ×` the
/// run's median fresh-hit rate and no failed reply. Windows with no `get`
/// at all count as unavailable.
pub fn availability(slots: &[crate::loadgen::FineSlot]) -> f64 {
    let rate = |s: &crate::loadgen::FineSlot| f64::from(s.fresh) / f64::from(s.gets);
    let rates: Vec<f64> = slots.iter().filter(|s| s.gets > 0).map(rate).collect();
    let steady = median(&rates);
    let ok = slots
        .iter()
        .filter(|s| s.gets > 0 && s.failed == 0 && rate(s) >= 0.9 * steady)
        .count();
    ok as f64 / slots.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::FineSlot;

    #[test]
    fn availability_counts_dips_gaps_and_failures() {
        let good = FineSlot {
            gets: 100,
            fresh: 100,
            failed: 0,
        };
        let mut slots = vec![good; 10];
        assert_eq!(availability(&slots), 1.0);
        slots[3] = FineSlot {
            gets: 100,
            fresh: 80,
            failed: 0,
        }; // below 0.9 x steady
        slots[4] = FineSlot::default(); // nothing answered
        slots[5] = FineSlot {
            gets: 100,
            fresh: 100,
            failed: 1,
        };
        assert_eq!(availability(&slots), 0.7);
        assert_eq!(availability(&[]), 0.0);
    }
}
