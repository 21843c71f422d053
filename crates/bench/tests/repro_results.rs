//! `repro` against the checked-in `results/`: the name table and the
//! directory stay in bijection, the fast experiments reproduce byte for
//! byte with every paper claim they decide holding (`ci.sh` runs all of
//! them from the release build), and anything but one known name or
//! `--list` is refused.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn listed() -> Vec<String> {
    let out = repro(&["--list"]);
    assert!(out.status.success(), "repro --list failed");
    String::from_utf8(out.stdout)
        .expect("utf-8 names")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn every_result_has_an_experiment_and_every_experiment_a_result() {
    let names = listed();
    let unique: BTreeSet<String> = names.iter().cloned().collect();
    assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
    let files: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("read results/")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter_map(|f| f.strip_suffix(".txt").map(str::to_string))
        .collect();
    assert_eq!(
        unique, files,
        "repro --list and results/*.txt must name the same experiments"
    );
}

/// Every experiment but `fig13` (~10 s in release; `ci.sh` runs it).
#[test]
fn fast_experiments_reproduce_byte_for_byte() {
    for name in listed().iter().filter(|name| *name != "fig13") {
        let out = repro(&[name]);
        assert!(
            out.status.success(),
            "repro {name} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let want = std::fs::read(results_dir().join(format!("{name}.txt"))).expect("result file");
        assert!(
            out.stdout == want,
            "results/{name}.txt no longer reproduces:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn anything_else_is_refused_with_the_name_list() {
    let names = listed();
    for args in [
        &["fig14"][..],
        &["fig7", "--fast"],
        &["--fast"],
        &["fig7", "fig8"],
        &[],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "repro {args:?} printed a result");
        let err = String::from_utf8_lossy(&out.stderr);
        for name in &names {
            assert!(err.contains(name), "repro {args:?} did not list {name}");
        }
    }
}
