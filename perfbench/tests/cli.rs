//! The benchmark binary end to end: the build guard, usage errors, and
//! worktree hygiene (a run leaves `git status` and the repository's
//! `BENCH_*.json` snapshots as they were).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmc-perfbench"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn git_status() -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["status", "--porcelain"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Modification times of the repository's `BENCH_*.json` snapshots.
fn snapshots() -> Vec<(String, Option<SystemTime>)> {
    let mut out: Vec<_> = std::fs::read_dir(repo_root())
        .expect("repository root is readable")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("BENCH_"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                e.metadata().and_then(|m| m.modified()).ok(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn a_run_is_refused_in_debug_builds_and_leaves_the_worktree_alone_in_release() {
    let (status, snaps) = (git_status(), snapshots());
    let out = bench()
        .args([
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "a refused run prints no result");
        return;
    }
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with(r#"{"correct":true,"attempted":"#),
        "{last}"
    );
    for key in [
        r#""failed":0,"#,
        r#""metrics":{"setup_s":{"value":"#,
        r#""rps":{"value":"#,
    ] {
        assert!(last.contains(key), "{key} missing from {last}");
    }
    assert!(
        stdout.contains(r#""seed":7"#),
        "the seed is recorded: {stdout}"
    );
    assert_eq!(git_status(), status, "a run must not change git status");
    assert_eq!(
        snapshots(),
        snaps,
        "a run must not write BENCH_*.json snapshots"
    );
}

#[test]
fn a_fresh_process_job_prints_the_entry_point_bytes() {
    // `flat-analyze` job 2 is `repro analyze --kernel 'matmul(n=16)'
    // --threads 1 --format json`.
    let out = bench()
        .args(["job", "flat-analyze", "1", "2"])
        .env("DMC_BENCH_DIR", std::env::temp_dir())
        .output()
        .expect("benchmark binary runs");
    if cfg!(debug_assertions) {
        assert_eq!(out.status.code(), Some(2), "debug builds are refused");
        return;
    }
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expect = dmc_bench::analyze_kernel_spec_with(
        "matmul(n=16)",
        4,
        1,
        dmc_bench::ReportFormat::Json,
        dmc_bench::AnalyzeOptions::default(),
    )
    .expect("entry point");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expect);
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "hier-scale",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "hier-scale",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "hier-scale", "--seed", "1", "--seconds", "1"],
    ] {
        let out = bench().args(args).output().expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
