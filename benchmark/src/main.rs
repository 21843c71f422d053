//! `spotcache-benchmark`: the one benchmark a PR is held to.
//!
//! Two ways in:
//!
//! * **one run** — `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   runs one workload once and prints, as the last line of standard
//!   output, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with
//!   every end-to-end metric (`--trace 0`) or every per-layer metric
//!   (`--trace 1`);
//! * **the suite** — without `--workload`, all five workloads untraced,
//!   then all five traced, every metric printed by name with its unit,
//!   outputs checked, `benchmark/out/result.json` written. `--repeat` runs
//!   the suite twice (two seeds) and holds the difference of every
//!   end-to-end metric to its bound.
//!
//! See `benchmark/README.md` for what every workload and metric means.

mod alloc;
mod framer;
mod gen;
mod harness;
mod host;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{RunArgs, RunOutput};
use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed of the first set of a `--repeat` check (and the default seed).
const DEFAULT_SEED: u64 = 42;
/// Seconds each phase measures for under `--smoke`.
const SMOKE_SECONDS: f64 = 2.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: bool,
    out_dir: PathBuf,
    emit: Option<&'static str>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: None,
        repeat: false,
        out_dir: PathBuf::from("benchmark/out"),
        emit: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => cli.seconds = SMOKE_SECONDS,
            "--repeat" => cli.repeat = true,
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--emit-benchmark-json" => cli.emit = Some("benchmark"),
            "--emit-glossary" => cli.emit = Some("glossary"),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// The metrics a run must emit, in catalogue order, with what the run
/// measured (0 where the workload does not exercise the layer).
fn selected<'a>(out: &RunOutput, defs: &'a [MetricDef]) -> Vec<(&'a MetricDef, f64)> {
    defs.iter()
        .map(|d| {
            let v = out.metrics.get(d.name).copied().unwrap_or(0.0);
            (d, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

fn result_line(out: &RunOutput, defs: &[MetricDef]) -> String {
    let metrics = selected(out, defs)
        .into_iter()
        .map(|(d, v)| {
            (
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Int(out.attempted.max(1) as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn print_run(workload: &str, trace: bool, out: &RunOutput) {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "\n== {workload} ({}) — attempted {} failed {} correct {}",
        if trace {
            "traced run, per-layer"
        } else {
            "untraced run, end-to-end"
        },
        out.attempted,
        out.failed,
        out.correct()
    );
    for (d, v) in selected(out, defs) {
        let measured = out.metrics.contains_key(d.name);
        println!(
            "  {:<36} {:>18} {:<6}{}",
            d.name,
            format_value(v),
            d.unit,
            if measured {
                ""
            } else {
                " (not measured by this workload)"
            }
        );
    }
    for v in &out.violations {
        println!("  VIOLATION: {v}");
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Everything one suite pass produced, keyed `workload` → run.
struct SuitePass {
    seed: u64,
    untraced: BTreeMap<String, RunOutput>,
    traced: BTreeMap<String, RunOutput>,
}

impl SuitePass {
    fn correct(&self) -> bool {
        self.untraced
            .values()
            .chain(self.traced.values())
            .all(RunOutput::correct)
    }
}

fn suite_pass(cli: &Cli, seed: u64) -> Result<SuitePass, String> {
    let mut pass = SuitePass {
        seed,
        untraced: BTreeMap::new(),
        traced: BTreeMap::new(),
    };
    for trace in [false, true] {
        for name in workloads::NAMES {
            let args = RunArgs {
                seed,
                seconds: cli.seconds,
                trace,
                out_dir: cli.out_dir.clone(),
            };
            let out = workloads::run(name, &args).map_err(|e| format!("{name}: {e}"))?;
            print_run(name, trace, &out);
            if trace {
                pass.traced.insert(name.to_string(), out);
            } else {
                pass.untraced.insert(name.to_string(), out);
            }
        }
    }
    Ok(pass)
}

fn run_json(out: &RunOutput) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        (
            "failed_frac",
            Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        (
            "violations",
            Json::Arr(out.violations.iter().map(Json::str).collect()),
        ),
        (
            "notes",
            Json::Arr(out.notes.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::num_map(&out.metrics)),
    ])
}

fn pass_json(pass: &SuitePass) -> Json {
    let side = |runs: &BTreeMap<String, RunOutput>| {
        Json::Obj(runs.iter().map(|(w, o)| (w.clone(), run_json(o))).collect())
    };
    Json::obj([
        ("seed", Json::Int(pass.seed as i64)),
        ("untraced", side(&pass.untraced)),
        ("traced", side(&pass.traced)),
    ])
}

fn fingerprint_json(pinned: bool) -> Json {
    let f = host::Fingerprint::collect();
    Json::obj([
        ("commit", Json::str(f.commit)),
        ("rustc", Json::str(f.rustc)),
        ("nproc", Json::Int(f.nproc as i64)),
        ("kernel", Json::str(f.kernel)),
        ("governor", Json::str(f.governor)),
        ("cpu_model", Json::str(f.cpu_model)),
        ("pinned", Json::Bool(pinned)),
        ("server_cpu", Json::Int(host::SERVER_CPU as i64)),
        ("loadgen_cpu", Json::Int(host::loadgen_cpu() as i64)),
    ])
}

fn write_json(cli: &Cli, file: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let path = cli.out_dir.join(file);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn all_pinned(pass: &SuitePass) -> bool {
    pass.untraced
        .values()
        .all(|o| o.metrics.get("host.pinned").copied() == Some(1.0))
}

fn suite(cli: &Cli) -> Result<bool, String> {
    let first = suite_pass(cli, cli.seed)?;
    let mut ok = first.correct();
    let mut doc = vec![
        ("schema", Json::str("spotcache-benchmark-v1")),
        ("seconds", Json::Num(cli.seconds)),
        ("host", fingerprint_json(all_pinned(&first))),
    ];
    if !cli.repeat {
        doc.push(("run", pass_json(&first)));
        write_json(cli, "result.json", &Json::obj(doc))?;
        return Ok(ok);
    }
    let second = suite_pass(cli, cli.seed + 1)?;
    ok &= second.correct();
    println!(
        "\n== repeat check: seed {} against seed {}",
        first.seed, second.seed
    );
    let mut rows = Vec::new();
    for name in workloads::NAMES {
        for d in END_TO_END {
            let a = first.untraced[name]
                .metrics
                .get(d.name)
                .copied()
                .unwrap_or(0.0);
            let b = second.untraced[name]
                .metrics
                .get(d.name)
                .copied()
                .unwrap_or(0.0);
            // The two sets are peers, so a difference either way counts.
            let diff = if a == 0.0 { 0.0 } else { (a - b).abs() / a };
            let within = diff <= d.bound;
            ok &= within;
            println!(
                "  {:<14} {:<14} {:>16} {:>16}  diff {:>7.4}  bound {:<5} {}",
                name,
                d.name,
                format_value(a),
                format_value(b),
                diff,
                d.bound,
                if within { "ok" } else { "BREACH" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(name)),
                ("metric", Json::str(d.name)),
                ("first", Json::Num(a)),
                ("second", Json::Num(b)),
                ("rel_diff", Json::Num(diff)),
                ("bound", Json::Num(d.bound)),
                ("within", Json::Bool(within)),
            ]));
        }
    }
    doc.push((
        "runs",
        Json::Arr(vec![pass_json(&first), pass_json(&second)]),
    ));
    write_json(cli, "result.json", &Json::obj(doc))?;
    write_json(
        cli,
        "repeat.json",
        &Json::obj([
            (
                "seeds",
                Json::Arr(vec![
                    Json::Int(first.seed as i64),
                    Json::Int(second.seed as i64),
                ]),
            ),
            ("within_bounds", Json::Bool(ok)),
            ("rows", Json::Arr(rows)),
        ]),
    )?;
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    host::nproc(); // read the CPU count before any thread is pinned
    let cli = parse_cli()?;
    match cli.emit {
        Some("benchmark") => {
            print!("{}", metrics::benchmark_json());
            return Ok(true);
        }
        Some(_) => {
            print!("{}", metrics::glossary_markdown());
            return Ok(true);
        }
        None => {}
    }
    let Some(workload) = cli.workload.clone() else {
        return suite(&cli);
    };
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; the workloads are {:?}",
            workloads::NAMES
        ));
    }
    let trace = cli.trace.unwrap_or(false);
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace,
        out_dir: cli.out_dir.clone(),
    };
    let out = workloads::run(&workload, &args)?;
    print_run(&workload, trace, &out);
    println!(
        "{}",
        result_line(&out, if trace { PER_LAYER } else { END_TO_END })
    );
    Ok(out.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("spotcache-benchmark: an output check or a bound did not hold");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("spotcache-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
