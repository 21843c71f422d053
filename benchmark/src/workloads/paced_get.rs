//! `paced_get`: the open-loop workload. One connection, one command per
//! write, Poisson arrivals at three fixed rates. Per-request syscalls and
//! reactor wake-ups do nearly all the server's work here and `protocol` /
//! `store` almost none, so this is the workload a batching optimisation
//! must leave unchanged — and the one that yields latency-versus-load
//! points.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::ValueSizes;
use crate::harness::{availability, CpuProbe, CpuUse, DriftGuard, RunArgs, RunOutput};
use crate::layers;
use crate::loadgen::{run_open, Checker, Lane, OpenOpts, SliceStats, FINE_WINDOW_NS};
use crate::stats::{median, quantile_sorted, window_best_quartile, window_median, WindowSummary};
use crate::workloads::closed::{setup, whole_windows, ClosedSpec, SETUPS, WINDOW_NS};

/// Offered rates, requests per second. Fixed: the latency grid is only
/// comparable between commits at equal rates.
pub const RATES: [f64; 3] = [20_000.0, 40_000.0, 80_000.0];
/// Metric-name suffixes of [`RATES`].
pub const RATE_TAGS: [&str; 3] = ["r20k", "r40k", "r80k"];
/// Window-median p99 above which a step does not count as sustained.
pub const P99_LIMIT_US: f64 = 1_000.0;

/// 95/5 get/set, scrambled Zipf 0.99 over 100 k keys of 100 B that fit.
pub const SPEC: ClosedSpec = ClosedSpec {
    name: "paced_get",
    capacity: 256 << 20,
    keys: 100_000,
    theta: 0.99,
    get_frac: 0.95,
    per_batch: 1,
    sizes: ValueSizes::Fixed(100),
    ttl: (0.0, (1, 1)),
    conns: 1,
    // Used by the traced run's closed-loop replay only.
    depth: 1,
    pool_batches: 262_144,
    evicting: false,
    clock_every: None,
    hot_cold: None,
};

/// One rate step: the slices driven at one rate, on every set-up.
pub struct Step {
    /// Offered rate.
    pub rate: f64,
    /// Driver statistics of all slices.
    pub stats: SliceStats,
    /// CPU use over the step.
    pub cpu: CpuUse,
    /// The slice whose backlog grew most, as the medians of its first and
    /// its last third, if any slice's did.
    pub grew: Option<(f64, f64)>,
}

/// Median backlog over the first and the last third of one slice's
/// once-a-millisecond samples.
pub fn backlog_first_last(samples: &[u32]) -> (f64, f64) {
    let b: Vec<f64> = samples.iter().map(|&n| f64::from(n)).collect();
    let third = b.len() / 3;
    (median(&b[..third]), median(&b[b.len() - third..]))
}

/// Whether a queue of unanswered requests that went from `first` to `last`
/// kept growing (a stall shows as a spike, not as growth, so medians of
/// millisecond samples are compared, not maxima).
pub fn grew((first, last): (f64, f64)) -> bool {
    last > 4.0 * first + 32.0
}

impl Step {
    /// A step at `rate` with no slice yet.
    pub fn new(rate: f64) -> Self {
        Self {
            rate,
            stats: SliceStats::default(),
            cpu: CpuUse::default(),
            grew: None,
        }
    }

    /// Adds one slice. Every slice starts with an empty pipeline and
    /// drains at its end, so growth is judged inside each slice, never
    /// across them.
    pub fn absorb_slice(&mut self, stats: SliceStats, cpu: &CpuUse) {
        let ends = backlog_first_last(&stats.backlog);
        if grew(ends) && self.grew.is_none_or(|(_, worst)| ends.1 > worst) {
            self.grew = Some(ends);
        }
        self.stats.absorb(stats);
        self.cpu.add(cpu);
    }

    /// Adds the same step measured on another set-up.
    pub fn merge(&mut self, other: Step) {
        if other
            .grew
            .is_some_and(|(_, last)| self.grew.is_none_or(|(_, worst)| last > worst))
        {
            self.grew = other.grew;
        }
        self.stats.absorb(other.stats);
        self.cpu.add(&other.cpu);
    }

    /// Requests completed per second over the step's whole windows.
    pub fn delivered(&self) -> f64 {
        let n = self.stats.windows.len().max(1) as f64;
        self.stats.windows.iter().map(|w| w.events).sum::<u64>() as f64 / n * 1e9 / WINDOW_NS as f64
    }

    /// Requests the schedule called for per second.
    pub fn offered(&self) -> f64 {
        self.stats.offered as f64 / self.stats.secs
    }

    fn windows(&self) -> &[WindowSummary] {
        &self.stats.windows
    }

    /// Whether the backlog kept growing through any slice of the step.
    pub fn backlog_growing(&self) -> bool {
        self.grew.is_some()
    }

    /// Largest backlog sampled.
    pub fn max_backlog(&self) -> f64 {
        f64::from(self.stats.backlog.iter().copied().max().unwrap_or(0))
    }
}

/// Runs the three steps on an existing lane, each as a sequence of guarded
/// one-window slices at the step's rate: `seconds` split evenly between
/// the steps, in whole windows.
pub fn steps(
    lane: &mut Lane<'_>,
    checker: &mut Checker,
    guard: &mut DriftGuard,
    seed: u64,
    seconds: f64,
) -> Vec<Step> {
    let windows = whole_windows(seconds / RATES.len() as f64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_6973_736f_6e21);
    RATES
        .iter()
        .map(|&rate| {
            let mut step = Step::new(rate);
            for _ in 0..windows {
                let (stats, cpu) = guard.slice(|| {
                    let probe = CpuProbe::start();
                    let opts = OpenOpts {
                        rate,
                        duration: Duration::from_nanos(WINDOW_NS),
                        window_ns: WINDOW_NS,
                        rng: &mut rng,
                        spans: None,
                    };
                    let stats = run_open(lane, checker, opts);
                    (stats, probe.stop())
                });
                step.absorb_slice(stats, &cpu);
            }
            step
        })
        .collect()
}

/// Writes the metrics of the steps: the end-to-end ones and the ungated
/// latency grid.
pub fn report_steps(out: &mut RunOutput, steps: &[Step]) {
    let top = steps.last().expect("at least one step");
    let mid = &steps[steps.len() / 2];
    out.set("ops_per_s", top.delivered());
    out.set(
        "lat_p50_us",
        window_best_quartile(mid.windows(), |w| w.p50_us),
    );
    let mut max_ok = 0.0;
    let mut steps_failed = 0.0;
    for (step, tag) in steps.iter().zip(RATE_TAGS) {
        let p99 = window_median(step.windows(), |w| w.p99_us);
        out.set(
            &format!("loadgen.p50_us_{tag}"),
            window_median(step.windows(), |w| w.p50_us),
        );
        out.set(
            &format!("loadgen.p90_us_{tag}"),
            window_median(step.windows(), |w| w.p90_us),
        );
        out.set(&format!("loadgen.p99_us_{tag}"), p99);
        let delivered_ok = (step.delivered() - step.offered()).abs() <= 0.01 * step.offered();
        if p99 <= P99_LIMIT_US && !step.backlog_growing() && delivered_ok {
            max_ok = step.rate;
        }
        if !delivered_ok || step.backlog_growing() {
            steps_failed += 1.0;
        }
        if !delivered_ok {
            out.notes.push(format!(
                "step {tag}: delivered {:.0}/s is not within 1% of the offered {:.0}/s",
                step.delivered(),
                step.offered()
            ));
        }
        if let Some(ends) = step.grew {
            out.notes.push(format!(
                "step {tag}: backlog grew through a slice (median of its first/last third {ends:?})"
            ));
        }
    }
    out.set("loadgen.max_rate_ok", max_ok);
    out.set("loadgen.steps_failed", steps_failed);
    let mut lag: Vec<f64> = top.stats.lag_ns.iter().map(|&n| n as f64 / 1e3).collect();
    lag.sort_by(f64::total_cmp);
    out.set("loadgen.lag_p99_us", quantile_sorted(&lag, 0.99));
    out.set("loadgen.max_backlog", top.max_backlog());
    // CPU shares are read at the top step: the acceptance test is that the
    // server is *not* the bottleneck there.
    out.set("server.busy_frac", top.cpu.server_run_s / top.cpu.secs);
    out.set(
        "server.runq_wait_frac",
        top.cpu.server_wait_s / top.cpu.secs,
    );
    out.set(
        "server.cpu_us_per_op",
        top.cpu.server_run_s * 1e6 / top.stats.sent.max(1) as f64,
    );
    out.set("loadgen.busy_frac", top.cpu.loadgen_run_s / top.cpu.secs);
}

/// Runs the workload: [`SETUPS`] set-ups, the three steps on each for a
/// third of the measured time, merged step by step.
pub fn run(args: &RunArgs, pinned_self: bool) -> Result<RunOutput, String> {
    if args.trace {
        return layers::traced_paced(args, pinned_self);
    }
    let mut out = RunOutput::default();
    let mut guard = DriftGuard::new();
    let mut setup_secs = Vec::new();
    let mut stop_ms = Vec::new();
    let mut merged: Vec<Step> = Vec::new();
    let mut fine = Vec::new();
    let (mut gets, mut hits) = (0u64, 0u64);
    let mut pinned = pinned_self;
    for _ in 0..SETUPS {
        let (mut s, mut conns) = setup(&SPEC, args.seed, None)?;
        setup_secs.push(s.secs);
        pinned &= s.node.pinned;
        let mut lane = Lane::new(conns.pop().expect("one connection"), &s.pools[0]);
        let mut checker = Checker::new(s.mix.keys, false);
        // Warm-up at the middle rate, checked but not timed.
        let mut warm_rng = StdRng::seed_from_u64(args.seed);
        run_open(
            &mut lane,
            &mut checker,
            OpenOpts {
                rate: RATES[1],
                duration: Duration::from_millis(300),
                window_ns: WINDOW_NS,
                rng: &mut warm_rng,
                spans: None,
            },
        );
        let (warm_gets, warm_hits) = (checker.gets, checker.hits);
        let warm_fine = (checker.fine.slots_len_ns() / FINE_WINDOW_NS) as usize;
        let share = args.seconds / SETUPS as f64;
        let steps = steps(&mut lane, &mut checker, &mut guard, args.seed, share);
        if merged.is_empty() {
            merged = steps;
        } else {
            for (into, step) in merged.iter_mut().zip(steps) {
                into.merge(step);
            }
        }
        gets += checker.gets - warm_gets;
        hits += checker.hits - warm_hits;
        fine.extend(
            std::mem::take(&mut checker.fine)
                .into_slots()
                .split_off(warm_fine),
        );
        out.attempted += checker.attempted;
        out.failed += checker.failed;
        if lane.broken {
            out.violations
                .push("the connection broke or its reply stream could not be framed".into());
        }
        drop(lane);
        stop_ms.push(s.node.stop());
    }
    out.set("setup_s", median(&setup_secs));
    out.set("server.stop_ms", median(&stop_ms));
    report_steps(&mut out, &merged);
    out.set("hit_rate", hits as f64 / gets.max(1) as f64);
    out.set("availability", availability(&fine));
    guard.report(&mut out, pinned);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(backlog: Vec<u32>) -> SliceStats {
        SliceStats {
            backlog,
            ..SliceStats::default()
        }
    }

    #[test]
    fn a_queue_that_climbs_inside_a_slice_counts_as_growth() {
        // 0 -> 600 unanswered requests over one second of millisecond samples.
        let climbing: Vec<u32> = (0..1_000).map(|ms| ms * 6 / 10).collect();
        assert!(grew(backlog_first_last(&climbing)));
        // A flat, noisy queue and a 50 ms stall in the middle do not.
        let flat: Vec<u32> = (0..1_000).map(|ms| 3 + ms % 5).collect();
        assert!(!grew(backlog_first_last(&flat)));
        let mut stall = flat.clone();
        for s in &mut stall[480..530] {
            *s = 4_000;
        }
        assert!(!grew(backlog_first_last(&stall)));
    }

    #[test]
    fn growth_is_judged_per_slice_not_across_slices() {
        let climbing: Vec<u32> = (0..1_000).map(|ms| ms * 6 / 10).collect();
        let flat: Vec<u32> = vec![4; 1_000];
        // Three slices that each climb from empty: concatenated, the first
        // third looks like the last, but every slice grew.
        let mut step = Step::new(80_000.0);
        for _ in 0..3 {
            step.absorb_slice(slice(climbing.clone()), &CpuUse::default());
        }
        assert!(!grew(backlog_first_last(&step.stats.backlog)));
        assert!(step.backlog_growing());
        // One bad slice among good ones is enough, and survives a merge.
        let mut good = Step::new(80_000.0);
        good.absorb_slice(slice(flat.clone()), &CpuUse::default());
        assert!(!good.backlog_growing());
        good.merge(step);
        assert!(good.backlog_growing());
        assert_eq!(good.stats.backlog.len(), 4_000);
    }
}
