//! The host side of a measurement: CPU pinning, per-thread CPU accounting
//! read from `/proc`, the calibration kernel that brackets every timed
//! slice, and the fingerprint written into `result.json`.
//!
//! Everything here reads the machine from outside the program under test:
//! no call in this file reaches into `crates/`.

use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn gettid() -> i32;
}

/// Kernel thread id of the calling thread.
pub fn current_tid() -> i32 {
    // SAFETY: `gettid` takes no arguments and cannot fail.
    unsafe { gettid() }
}

/// CPUs the process may run on, as seen by the first call. `main` makes
/// that call before any thread is pinned: `available_parallelism` reads
/// the calling thread's affinity mask and would answer 1 afterwards.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Pins thread `tid` (0 = the caller) to one CPU; `false` when the kernel
/// refuses (the run then goes on unpinned and says so in `host.pinned`).
pub fn pin_thread(tid: i32, cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte buffer and the length passed is
    // exactly its size; the kernel only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU the load generator owns (the last one) and the CPU every server
/// thread is confined to (the first).
pub fn loadgen_cpu() -> usize {
    nproc() - 1
}

/// See [`loadgen_cpu`].
pub const SERVER_CPU: usize = 0;

/// Threads of this process whose `comm` starts with one of `prefixes`.
pub fn threads_named(prefixes: &[&str]) -> Vec<(i32, String)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        let comm = comm.trim_end().to_string();
        if prefixes.iter().any(|p| comm.starts_with(p)) {
            out.push((tid, comm));
        }
    }
    out.sort();
    out
}

/// `comm` prefixes of the threads the program under test spawns.
pub const SERVER_THREADS: &[&str] = &["cache-", "repl-"];

/// Pins every server-side thread to [`SERVER_CPU`]; returns whether all of
/// them (and at least one) took the pin.
pub fn pin_server_threads() -> bool {
    let threads = threads_named(SERVER_THREADS);
    !threads.is_empty() && threads.iter().all(|(tid, _)| pin_thread(*tid, SERVER_CPU))
}

/// One reading of `/proc/<pid>/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Timeslices run.
    pub slices: u64,
}

impl SchedStat {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }
}

/// Parses the three-field `schedstat` line.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_ascii_whitespace();
    let run_ns = it.next()?.parse().ok()?;
    let wait_ns = it.next()?.parse().ok()?;
    let slices = it.next()?.parse().ok()?;
    Some(SchedStat {
        run_ns,
        wait_ns,
        slices,
    })
}

/// Reads one thread's scheduler accounting; `None` when the kernel does
/// not expose it or the thread is gone.
pub fn read_schedstat(tid: i32) -> Option<SchedStat> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    parse_schedstat(&text)
}

/// Summed scheduler accounting of every thread matching `prefixes`.
pub fn schedstat_of(prefixes: &[&str]) -> SchedStat {
    let mut total = SchedStat::default();
    for (tid, _) in threads_named(prefixes) {
        if let Some(s) = read_schedstat(tid) {
            total.run_ns += s.run_ns;
            total.wait_ns += s.wait_ns;
            total.slices += s.slices;
        }
    }
    total
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_line(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Reads [`parse_cpu_line`] from the live `/proc/stat`.
pub fn read_cpu_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_cpu_line(&t))
        .unwrap_or((0, 0))
}

const CALIB_BYTES: usize = 256 * 1024;
const CALIB_PASSES: usize = 1;
const CALIB_REPEATS: usize = 40;

/// The fixed calibration kernel: byte-wise FNV-1a over a cache-resident
/// 256 KiB buffer, best of forty (about 12 ms in all), in nanoseconds. It
/// touches no code of the program under test, so two readings differ only
/// when the host (frequency, steal, a noisy neighbour) changed between
/// them.
pub fn calibrate() -> f64 {
    let buf: Vec<u8> = (0..CALIB_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    let mut best = f64::INFINITY;
    for _ in 0..CALIB_REPEATS {
        let t0 = Instant::now();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..CALIB_PASSES {
            for &b in std::hint::black_box(&buf) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        std::hint::black_box(h);
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Microseconds the first touch of a fresh anonymous page costs, measured
/// over 64 MiB before a run's first set-up.
///
/// The development host is a guest with free-page reporting: memory the
/// guest has had free for a while is handed back to the hypervisor, and
/// touching such a page costs 30–45 µs instead of 2 µs. A run that starts
/// on unbacked memory has set-ups and restores several times slower than
/// one that reuses the pages the previous run freed a moment ago. Touching
/// the memory ahead of the run was tried and did not bring such a run back
/// to speed, so the harness only reports which state the run started in.
pub fn fresh_page_us() -> f64 {
    const PAGE: usize = 4096;
    const BYTES: usize = 64 << 20;
    let t0 = Instant::now();
    let mut block = vec![0u8; BYTES];
    for b in block.iter_mut().step_by(PAGE) {
        *b = 1;
    }
    std::hint::black_box(&block);
    t0.elapsed().as_secs_f64() * 1e6 / (BYTES / PAGE) as f64
}

/// What `result.json` records about the machine and the build.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// CPUs available to the process.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// cpufreq governor of CPU 0, or `none` where the guest has no cpufreq.
    pub governor: String,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn file_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

impl Fingerprint {
    /// Collects the fingerprint (spawns `git` and `rustc` once each and
    /// waits for them).
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            nproc: nproc(),
            kernel: file_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            governor: file_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(|| "none".into()),
            cpu_model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line_parses() {
        let s = parse_schedstat("527908711 3660927 35\n").unwrap();
        assert_eq!(
            s,
            SchedStat {
                run_ns: 527_908_711,
                wait_ns: 3_660_927,
                slices: 35
            }
        );
        assert!(parse_schedstat("12 x 3").is_none());
        assert!(parse_schedstat("12 13").is_none());
    }

    #[test]
    fn schedstat_delta_saturates() {
        let a = SchedStat {
            run_ns: 10,
            wait_ns: 5,
            slices: 1,
        };
        let b = SchedStat {
            run_ns: 25,
            wait_ns: 5,
            slices: 4,
        };
        assert_eq!(
            b.since(&a),
            SchedStat {
                run_ns: 15,
                wait_ns: 0,
                slices: 3
            }
        );
        assert_eq!(a.since(&b), SchedStat::default());
    }

    #[test]
    fn own_thread_has_schedstat_and_it_grows() {
        let tid = current_tid();
        let Some(before) = read_schedstat(tid) else {
            return; // kernel without schedstats: nothing to check
        };
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 20 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        let after = read_schedstat(tid).unwrap();
        assert!(after.since(&before).run_ns >= 5_000_000);
    }

    #[test]
    fn cpu_line_reads_steal() {
        let text = "cpu  86489 0 32722 314619 5094 0 15782 880 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let (steal, total) = parse_cpu_line(text).unwrap();
        assert_eq!(steal, 880);
        assert_eq!(total, 86489 + 32722 + 314619 + 5094 + 15782 + 880);
    }

    #[test]
    fn threads_are_found_by_comm_prefix() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("cache-probe-x".into())
            .spawn(move || {
                ready_tx.send(()).unwrap();
                let _ = rx.recv();
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let found = threads_named(&["cache-probe"]);
        drop(tx);
        h.join().unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, "cache-probe-x");
    }
}
