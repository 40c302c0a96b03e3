//! `BENCH_*.json` wall-clock snapshots.
//!
//! The `repro` binary records machine-readable wall-clock timings for
//! the timed experiments (E16 scale, mincut, analyze, …): one run each,
//! a smoke number next to the output (the repository's performance is
//! measured by `BENCHMARK.json` and `perfbench/`). Snapshots
//! are **process-opt-in**: nothing is written unless [`enable_from_env`]
//! ran first, which only the `repro` binary does — library users, unit
//! tests, and criterion benches never touch the filesystem.
//!
//! Each record lands in `$DMC_BENCH_DIR` (or the workspace root when the
//! variable is unset, falling back to the current directory outside a
//! workspace) as `BENCH_<name>.json`, one JSON object per file,
//! overwritten on every run. Anchoring the default at the workspace root
//! keeps every snapshot in one place no matter which directory `repro`
//! is invoked from.
//!
//! Determinism: wall-clock numbers are inherently run-varying, which is
//! exactly why they are quarantined in side files instead of the
//! experiment tables the determinism contract covers.

use serde::json::Value;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

static BENCH_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Enables snapshot writing for the rest of this process, targeting
/// `$DMC_BENCH_DIR` when set, else the enclosing workspace root, else the
/// current directory. Called once by the `repro` binary's `main`;
/// idempotent, and a no-op everywhere else.
pub fn enable_from_env() {
    let dir = match std::env::var("DMC_BENCH_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => std::env::current_dir()
            .ok()
            .and_then(|cwd| dmc_lint::find_workspace_root(&cwd))
            .unwrap_or_else(|| PathBuf::from(".")),
    };
    let _ = BENCH_DIR.set(dir);
}

/// The snapshot directory, when enabled.
pub fn enabled_dir() -> Option<&'static Path> {
    BENCH_DIR.get().map(PathBuf::as_path)
}

/// Writes `BENCH_<name>.json` with `payload` if snapshots are enabled;
/// silently does nothing otherwise. Write errors are reported to stderr
/// but never fail the experiment — a read-only checkout still reproduces
/// every table.
pub fn write(name: &str, payload: &impl Serialize) {
    let Some(dir) = enabled_dir() else {
        return;
    };
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut json = serde::json::to_string(payload);
    json.push('\n');
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Runs `f`, and if snapshots are enabled records its wall-clock time as
/// `BENCH_<name>.json` (`{"experiment", "threads", "wall_ms"}`).
pub fn timed<T>(name: &str, threads: usize, f: impl FnOnce() -> T) -> T {
    if enabled_dir().is_none() {
        return f();
    }
    // dmc-lint: allow(d2) -- the snapshot's whole purpose is recording wall-clock time; results go to BENCH_*.json side files, never into the deterministic experiment tables
    let t0 = std::time::Instant::now();
    let out = f();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    write(
        name,
        &Value::object([
            ("experiment", name.to_json()),
            ("threads", (threads as u64).to_json()),
            ("wall_ms", wall_ms.to_json()),
        ]),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_in_library_use() {
        // Unit tests never call enable_from_env, so nothing is written
        // and `timed` is a transparent passthrough.
        assert!(enabled_dir().is_none());
        assert_eq!(timed("never_written", 1, || 41 + 1), 42);
        write("never_written", &Value::object([]));
        assert!(!std::path::Path::new("BENCH_never_written.json").exists());
    }
}
