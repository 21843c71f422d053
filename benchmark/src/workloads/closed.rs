//! The two closed-loop data-plane workloads, `pipelined_mix` and
//! `write_evict`: the same driver over two traffic mixes that lean on
//! opposite halves of `protocol` and `store`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spotcache_workload::zipf::{ScrambledZipfian, Zipfian};

use crate::gen::{build_pools, prefill, KeySampler, KeySpace, MixSpec, Pool, ValueSizes};
use crate::harness::{availability, CpuProbe, CpuUse, DriftGuard, Node, RunArgs, RunOutput};
use crate::layers;
use crate::loadgen::{
    run_closed, Checker, ClockStep, ClosedOpts, Conn, FineSlot, Lane, FINE_WINDOW_NS,
};
use crate::stats::{median, window_best_quartile, window_median, window_rate, WindowSummary};

/// Parameters of a closed-loop workload.
pub struct ClosedSpec {
    /// Workload name.
    pub name: &'static str,
    /// Store capacity, bytes.
    pub capacity: usize,
    /// Key indexes.
    pub keys: u32,
    /// Zipf skew of the scrambled key popularity.
    pub theta: f64,
    /// Share of `get`s.
    pub get_frac: f64,
    /// Commands per write.
    pub per_batch: usize,
    /// Value sizes.
    pub sizes: ValueSizes,
    /// Share of `set`s with a TTL, and the TTL range in logical seconds.
    pub ttl: (f64, (u16, u16)),
    /// Connections (all driven by the one load-generator thread).
    pub conns: usize,
    /// Writes kept outstanding per connection.
    pub depth: usize,
    /// Pre-generated writes per connection; the stream wraps after them.
    pub pool_batches: usize,
    /// Whether the key space outgrows the store (a miss is then legal).
    pub evicting: bool,
    /// Writes per tick of the logical clock (`None`: the clock stands).
    pub clock_every: Option<u64>,
    /// `Some((hot, cold))`: keys are `hot` `h…` names followed by `cold`
    /// `c…` names and popularity follows the index (plain Zipf), so the
    /// replicated half is the popular half. `None`: `k…` names, scrambled.
    pub hot_cold: Option<(u32, u32)>,
}

/// 90/10 get/set over 100 k keys that fit, 32 commands per write on two
/// connections: syscalls are amortised, so `protocol` parse / execute /
/// serialize and the `store` shared-lock read path do most of the work.
pub const PIPELINED_MIX: ClosedSpec = ClosedSpec {
    name: "pipelined_mix",
    capacity: 256 << 20,
    keys: 100_000,
    theta: 0.99,
    get_frac: 0.9,
    per_batch: 32,
    sizes: ValueSizes::Fixed(100),
    ttl: (0.0, (1, 1)),
    conns: 2,
    depth: 16,
    pool_batches: 4_096,
    evicting: false,
    clock_every: None,
    hot_cold: None,
};

/// 50/50 get/set with ETC-sized values and TTLs into a 64 MiB store a
/// quarter the size of the key space: exclusive lock, LRU eviction, slab
/// reuse, timer wheel and large-value copies.
pub const WRITE_EVICT: ClosedSpec = ClosedSpec {
    name: "write_evict",
    capacity: 64 << 20,
    keys: 500_000,
    theta: 0.8,
    get_frac: 0.5,
    per_batch: 16,
    sizes: ValueSizes::Etc { min: 64, max: 8192 },
    ttl: (0.25, (2, 20)),
    conns: 1,
    depth: 64,
    pool_batches: 8_192,
    evicting: true,
    clock_every: Some(512),
    hot_cold: None,
};

/// Width of the windows throughput and latency are summarised over.
pub const WINDOW_NS: u64 = 1_000_000_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

impl ClosedSpec {
    /// The traffic mix.
    pub fn mix(&self) -> MixSpec {
        let n = u64::from(self.keys);
        let (keys, sampler) = match self.hot_cold {
            Some((hot, cold)) => (
                KeySpace::hot_cold(hot, cold),
                KeySampler::Ranked(Zipfian::new(n, self.theta)),
            ),
            None => (
                KeySpace::uniform(self.keys),
                KeySampler::Scrambled(ScrambledZipfian::new(n, self.theta)),
            ),
        };
        MixSpec {
            keys,
            sampler,
            get_frac: self.get_frac,
            per_batch: self.per_batch,
            sizes: self.sizes,
            ttl_frac: self.ttl.0,
            ttl_secs: self.ttl.1,
        }
    }
}

/// The program's own registry and tracer, for the one slice that runs
/// with them attached.
pub type Telemetry = (Arc<spotcache_obs::Obs>, Arc<spotcache_obs::Tracer>);

/// Everything a set-up produces.
pub struct Setup {
    /// The node under test.
    pub node: Node,
    /// One request stream per connection.
    pub pools: Vec<Pool>,
    /// The mix the streams were drawn from.
    pub mix: MixSpec,
    /// Seconds from first input byte generated to last connection open.
    pub secs: f64,
    /// Seconds generating the request streams alone.
    pub gen_secs: f64,
    /// Microseconds to open one connection (the accept hand-off included).
    pub connect_us: f64,
}

/// Builds inputs, prefills the store, starts the server and opens the
/// connections; returns the set-up and its connections.
pub fn setup(
    spec: &ClosedSpec,
    seed: u64,
    telemetry: Option<&Telemetry>,
) -> Result<(Setup, Vec<Conn>), String> {
    let t0 = Instant::now();
    let mix = spec.mix();
    let pools = build_pools(&mix, seed, spec.conns, spec.pool_batches);
    let gen_secs = t0.elapsed().as_secs_f64();
    let store = Node::new_store(spec.capacity);
    prefill(&store, &mix, seed, 0);
    let (obs, tracer) = telemetry.cloned().unzip();
    let node = Node::start(store, obs, tracer).map_err(|e| format!("server start: {e}"))?;
    let c0 = Instant::now();
    let mut conns = Vec::new();
    for _ in 0..spec.conns {
        conns.push(Conn::connect(node.server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let connect_us = c0.elapsed().as_secs_f64() * 1e6 / spec.conns as f64;
    Ok((
        Setup {
            node,
            pools,
            mix,
            secs: t0.elapsed().as_secs_f64(),
            gen_secs,
            connect_us,
        },
        conns,
    ))
}

/// The client side of a set-up: one lane per connection, the checker, and
/// the logical-clock stepper when the workload has TTLs.
pub struct Rig<'a> {
    /// One lane per connection.
    pub lanes: Vec<Lane<'a>>,
    /// What the client knows about every key.
    pub checker: Checker,
    /// Client-driven clock, for workloads with TTLs.
    pub step: Option<ClockStep>,
}

impl<'a> Rig<'a> {
    /// Lanes over `s`'s streams on `conns`, a checker for its freshly
    /// prefilled store.
    pub fn new(spec: &ClosedSpec, s: &'a Setup, conns: Vec<Conn>) -> Self {
        Self {
            lanes: conns
                .into_iter()
                .zip(&s.pools)
                .map(|(c, p)| Lane::new(c, p))
                .collect(),
            checker: Checker::new(s.mix.keys, spec.evicting),
            step: spec
                .clock_every
                .map(|every| ClockStep::new(Arc::clone(&s.node.clock), every)),
        }
    }

    /// Adds the rig's tallies to `out` and reports a broken connection.
    pub fn tally(&self, out: &mut RunOutput) {
        out.attempted += self.checker.attempted;
        out.failed += self.checker.failed;
        if self.lanes.iter().any(|l| l.broken) {
            out.violations
                .push("a connection broke or its reply stream could not be framed".into());
        }
    }
}

/// What the measured slices of a closed-loop run add up to.
#[derive(Default)]
pub struct Measured {
    /// Every closed window of every accepted slice.
    pub windows: Vec<WindowSummary>,
    /// CPU use over the accepted slices.
    pub cpu: CpuUse,
    /// Commands sent in the accepted slices.
    pub sent: u64,
}

/// Drives `rig` for `seconds`, one guarded slice per window: a window
/// whose bracketing calibrations disagree is measured again.
pub fn measure(
    spec: &ClosedSpec,
    rig: &mut Rig<'_>,
    guard: &mut DriftGuard,
    seconds: f64,
) -> Measured {
    let slice = Duration::from_nanos(WINDOW_NS);
    let mut m = Measured::default();
    for _ in 0..whole_windows(seconds) {
        let (stats, cpu) = guard.slice(|| {
            let probe = CpuProbe::start();
            let stats = run_closed(
                &mut rig.lanes,
                &mut rig.checker,
                ClosedOpts {
                    clock_step: rig.step.as_mut(),
                    ..ClosedOpts::timed(spec.depth, slice, WINDOW_NS)
                },
            );
            (stats, probe.stop())
        });
        m.windows.extend(stats.windows);
        m.cpu.add(&cpu);
        m.sent += stats.sent;
    }
    m
}

/// Whole windows in a run of `seconds`.
pub fn whole_windows(seconds: f64) -> usize {
    (seconds * 1e9 / WINDOW_NS as f64).round().max(1.0) as usize
}

/// Writes the metrics every closed-loop run reports, traced or not.
pub fn report_measured(out: &mut RunOutput, m: &Measured, gets: u64, hits: u64) {
    out.set("ops_per_s", window_rate(&m.windows, WINDOW_NS));
    out.set("lat_p50_us", window_best_quartile(&m.windows, |w| w.p50_us));
    out.set(
        "loadgen.batch_p99_us",
        window_median(&m.windows, |w| w.p99_us),
    );
    out.set("hit_rate", hits as f64 / gets.max(1) as f64);
    out.set("server.busy_frac", m.cpu.server_run_s / m.cpu.secs);
    out.set("server.runq_wait_frac", m.cpu.server_wait_s / m.cpu.secs);
    out.set(
        "server.cpu_us_per_op",
        m.cpu.server_run_s * 1e6 / m.sent.max(1) as f64,
    );
    out.set("loadgen.busy_frac", m.cpu.loadgen_run_s / m.cpu.secs);
}

/// One set-up and the share of the run measured on it. Each set-up
/// allocates its store, buffers and streams afresh, so a run samples
/// several memory layouts instead of betting on one.
struct Segment {
    setup_s: f64,
    measured: Measured,
    gets: u64,
    hits: u64,
    fine: Vec<FineSlot>,
    stop_ms: f64,
    pinned: bool,
}

fn segment(
    spec: &ClosedSpec,
    seed: u64,
    seconds: f64,
    guard: &mut DriftGuard,
    out: &mut RunOutput,
) -> Result<Segment, String> {
    let (mut s, conns) = setup(spec, seed, None)?;
    let mut rig = Rig::new(spec, &s, conns);
    // Warm-up, checked but not timed: buffers grow to size, the allocator
    // and the LRU settle.
    run_closed(
        &mut rig.lanes,
        &mut rig.checker,
        ClosedOpts {
            clock_step: rig.step.as_mut(),
            ..ClosedOpts::timed(spec.depth, Duration::from_millis(300), WINDOW_NS)
        },
    );
    let (warm_gets, warm_hits) = (rig.checker.gets, rig.checker.hits);
    let warm_fine = (rig.checker.fine.slots_len_ns() / FINE_WINDOW_NS) as usize;
    let measured = measure(spec, &mut rig, guard, seconds);
    rig.tally(out);
    let Rig {
        lanes, mut checker, ..
    } = rig;
    drop(lanes);
    let mut fine = std::mem::take(&mut checker.fine).into_slots();
    Ok(Segment {
        setup_s: s.secs,
        measured,
        gets: checker.gets - warm_gets,
        hits: checker.hits - warm_hits,
        fine: fine.split_off(warm_fine),
        stop_ms: s.node.stop(),
        pinned: s.node.pinned,
    })
}

/// Runs a closed-loop workload: [`SETUPS`] set-ups, a third of the
/// measured time on each.
pub fn run(spec: &ClosedSpec, args: &RunArgs, pinned_self: bool) -> Result<RunOutput, String> {
    if args.trace {
        return layers::traced_closed(spec, args, pinned_self);
    }
    let mut out = RunOutput::default();
    let mut guard = DriftGuard::new();
    let mut segments = Vec::new();
    for _ in 0..SETUPS {
        let share = args.seconds / SETUPS as f64;
        segments.push(segment(spec, args.seed, share, &mut guard, &mut out)?);
    }
    let mut all = Measured::default();
    let mut fine = Vec::new();
    for seg in &mut segments {
        all.windows.append(&mut seg.measured.windows);
        all.cpu.add(&seg.measured.cpu);
        all.sent += seg.measured.sent;
        fine.append(&mut seg.fine);
    }
    let of = |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", of(&|s| s.setup_s));
    out.set("server.stop_ms", of(&|s| s.stop_ms));
    let gets: u64 = segments.iter().map(|s| s.gets).sum();
    let hits: u64 = segments.iter().map(|s| s.hits).sum();
    report_measured(&mut out, &all, gets, hits);
    out.set("availability", availability(&fine));
    guard.report(&mut out, pinned_self && segments.iter().all(|s| s.pinned));
    Ok(out)
}
