//! Smoke tests for the `repro` binary's argument dispatch.

use std::process::Command;

/// The `repro` binary, with its `BENCH_*.json` timing snapshots sent to
/// the test scratch directory instead of the committed files at the
/// workspace root.
fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.env("DMC_BENCH_DIR", env!("CARGO_TARGET_TMPDIR"));
    cmd
}

#[test]
fn unknown_experiment_exits_with_usage_error() {
    let out = repro()
        .arg("definitely-not-an-experiment")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown experiment must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'definitely-not-an-experiment'"),
        "stderr names the bad argument: {stderr}"
    );
    // The error must list the valid experiments so the message stays in
    // sync with the dispatch table.
    for exp in [
        "table1",
        "sec3",
        "cg",
        "gmres",
        "jacobi",
        "pebbling",
        "mincut",
        "analyze",
        "catalog",
        "simulate",
        "list",
        "partition",
        "parallel",
        "figures",
        "all",
    ] {
        assert!(
            stderr.contains(exp),
            "usage message lists '{exp}': {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "nothing on stdout for bad args");
}

#[test]
fn table1_prints_the_balance_table() {
    let out = repro().arg("table1").output().expect("repro binary runs");
    assert!(out.status.success(), "table1 must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("IBM BG/Q"), "Table 1 lists BG/Q: {stdout}");
    assert!(stdout.contains("Cray XT5"), "Table 1 lists XT5: {stdout}");
}

#[test]
fn mincut_honours_threads_flag() {
    let out = repro()
        .args(["mincut", "--threads", "2"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "mincut --threads 2 must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("engine scaling"),
        "mincut prints the engine scaling table: {stdout}"
    );
    assert!(
        stdout.contains("adaptive"),
        "mincut prints the adaptive ablation row: {stdout}"
    );
}

#[test]
fn bad_threads_value_exits_with_usage_error() {
    let out = repro()
        .args(["mincut", "--threads", "lots"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "bad --threads must exit 2");
}

/// Path to a `.cdag` file shipped under the repository's
/// `examples/graphs/` (two directories up from this crate).
fn graph_path(name: &str) -> String {
    format!(
        "{}/../../examples/graphs/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn analyze_without_file_prints_the_kernel_table() {
    let out = repro().arg("analyze").output().expect("repro binary runs");
    assert!(out.status.success(), "analyze must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("unified bound-analysis pipeline"),
        "{stdout}"
    );
    assert!(stdout.contains("Theorem-2"), "{stdout}");
}

#[test]
fn analyze_reports_provenance_tree_for_shipped_composite() {
    let out = repro()
        .args(["analyze", &graph_path("composite.cdag"), "--threads", "2"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "analyze composite.cdag must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("weakly-connected components: 2"),
        "{stdout}"
    );
    assert!(
        stdout.contains("composed per-component bound (Theorem 2)"),
        "{stdout}"
    );
    assert!(stdout.contains("machine-balance verdicts"), "{stdout}");
}

#[test]
fn analyze_json_output_is_json_shaped() {
    let out = repro()
        .args([
            "analyze",
            &graph_path("composite.cdag"),
            "--threads",
            "2",
            "--format",
            "json",
        ])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "analyze --format json must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let body = stdout.trim();
    assert!(body.starts_with('{') && body.ends_with('}'), "{stdout}");
    for key in ["\"component_count\":2", "\"bound\":", "\"children\":["] {
        assert!(body.contains(key), "missing {key}: {stdout}");
    }
    // Balanced braces/brackets — a cheap structural check that keeps the
    // emitter honest without a JSON parser in the test.
    let depth = body.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON: {stdout}");
}

/// The top-level elements of the JSON array whose `[` is at `body[open]`.
fn array_elements(body: &str, open: usize) -> Vec<&str> {
    let (mut depth, mut in_str, mut escaped, mut from) = (0, false, false, open + 1);
    let mut elements = Vec::new();
    for (i, c) in body.char_indices().skip_while(|&(i, _)| i < open) {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ',' if depth == 1 => {
                elements.push(&body[from..i]);
                from = i + 1;
            }
            ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    if i > from {
                        elements.push(&body[from..i]);
                    }
                    break;
                }
            }
            _ => {}
        }
    }
    elements
}

/// The flat portfolio is the trivial bound, then the wavefront member:
/// every candidate list in the composite's JSON report — whole graph and
/// each component — holds exactly those two, in that order.
#[test]
fn analyze_json_candidate_lists_are_trivial_then_wavefront() {
    let out = repro()
        .args(["analyze", &graph_path("composite.cdag"), "--format", "json"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "analyze --format json must exit 0");
    let body = String::from_utf8_lossy(&out.stdout);
    let mut lists = 0;
    for key in ["\"whole_graph\":[", "\"candidates\":["] {
        for (at, _) in body.match_indices(key) {
            // An IoBound's own `method` precedes its `children`.
            let methods: Vec<&str> = array_elements(&body, at + key.len() - 1)
                .iter()
                .map(|e| {
                    e.split("\"method\":\"")
                        .nth(1)
                        .map_or("", |m| &m[..m.find('"').unwrap_or(0)])
                })
                .collect();
            assert_eq!(methods.len(), 2, "{key} {methods:?}");
            assert_eq!(methods[0], "trivial", "{key} {methods:?}");
            assert!(
                matches!(methods[1], "tagging (Theorem 3)" | "wavefront (Lemma 2)"),
                "{key} {methods:?}"
            );
            lists += 1;
        }
    }
    assert_eq!(lists, 3, "whole graph plus two components: {body}");
}

#[test]
fn analyze_missing_file_exits_with_error() {
    let out = repro()
        .args(["analyze", "no-such-file.cdag"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(1), "missing file must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-file.cdag"), "{stderr}");
}

/// Regression: `--sram`/`--format` used to be parsed and then silently
/// dropped by every mode except `analyze <file>` — e.g. `analyze
/// --format json` printed the *text* kernel table with exit 0.
#[test]
fn sram_and_format_rejected_where_they_do_not_apply() {
    for (args, msg) in [
        (
            &["analyze", "--format", "json"][..],
            "--format only applies",
        ),
        (&["analyze", "--sram", "9"][..], "--sram only applies"),
        (&["table1", "--format", "json"][..], "--format only applies"),
        (&["mincut", "--sram", "8"][..], "--sram only applies"),
        (
            &["table1", "--policy", "lru"][..],
            "only apply to 'simulate'",
        ),
        (
            &["analyze", "--sram-sweep", "2:8:2"][..],
            "only apply to 'simulate'",
        ),
    ] {
        let out = repro().args(args).output().expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
    }
    // Same rule for --threads on experiments that cannot use it.
    for args in [
        &["table1", "--threads", "2"][..],
        &["figures", "--threads", "2"][..],
    ] {
        let out = repro().args(args).output().expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--threads only applies to"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn list_prints_the_kernel_catalog() {
    let out = repro().arg("list").output().expect("repro binary runs");
    assert!(out.status.success(), "list must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kernel catalog"), "{stdout}");
    assert!(stdout.contains("spec grammar"), "{stdout}");
    // Ranges and defaults for a parameterized and a choice param.
    assert!(
        stdout.contains("jacobi(n=8,d=2,t=4,stencil=star)"),
        "{stdout}"
    );
    assert!(stdout.contains("star|box"), "{stdout}");
    assert!(stdout.contains("default"), "{stdout}");
}

#[test]
fn catalog_experiment_sweeps_the_registry() {
    let out = repro()
        .args(["catalog", "--threads", "2"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "catalog must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("kernel catalog through the pipeline"),
        "{stdout}"
    );
    for spec in ["jacobi(", "fft(", "matmul(", "composite(", "gmres("] {
        assert!(
            stdout.contains(spec),
            "catalog table lists {spec}: {stdout}"
        );
    }
}

/// The `--kernel` + `--format json` round trip: the JSON report carries
/// the canonical spec, and re-running `repro` with that canonical spec
/// reproduces the report byte for byte.
#[test]
fn analyze_kernel_json_round_trips_through_the_canonical_spec() {
    let run = |spec: &str| {
        let out = repro()
            .args([
                "analyze",
                "--kernel",
                spec,
                "--threads",
                "1",
                "--format",
                "json",
            ])
            .output()
            .expect("repro binary runs");
        assert!(
            out.status.success(),
            "analyze --kernel '{spec}' must exit 0"
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run("jacobi(n=8,d=2,t=4)");
    let body = first.trim();
    assert!(body.starts_with('{') && body.ends_with('}'), "{first}");
    // The canonical spec (defaults filled in) is embedded in the report.
    let canonical = "jacobi(n=8,d=2,t=4,stencil=star)";
    assert!(
        body.contains(&format!(r#""kernel":{{"spec":"{canonical}""#)),
        "{first}"
    );
    assert!(body.contains(r#""analytic_lower":"#), "{first}");
    // Balanced braces/brackets — cheap structural JSON check.
    let depth = body.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON: {first}");
    // Round trip: the canonical spec reproduces the exact same report.
    assert_eq!(run(canonical), first, "canonical spec must round-trip");
}

/// The §5.1 heat equation is a catalog kernel: a bare name analyzes with
/// its declared defaults.
#[test]
fn analyze_heat_kernel_reports_its_canonical_spec() {
    let out = repro()
        .args(["analyze", "--kernel", "heat", "--format", "json"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "analyze --kernel heat must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(r#""spec":"heat(n=8,t=2)""#), "{stdout}");
}

/// Satellite acceptance: a bad spec is a *usage* error — exit code 2 and
/// a message that names the problem and points at the catalog.
#[test]
fn analyze_bad_kernel_spec_exits_2_with_helpful_message() {
    let cases: &[(&str, &str)] = &[
        ("jacobbi(n=8)", "unknown kernel 'jacobbi'"),
        ("jacobi(q=8)", "unknown parameter 'q'"),
        ("jacobi(d=99)", "out of range"),
        ("jacobi(stencil=hex)", "star|box"),
        ("fft(n=12)", "power of two"),
        ("jacobi(n=8", "missing closing"),
    ];
    for (spec, needle) in cases {
        let out = repro()
            .args(["analyze", "--kernel", spec])
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(2), "'{spec}' must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "'{spec}': {stderr}");
        assert!(
            stderr.contains("repro list"),
            "'{spec}' should point at the catalog: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing on stdout for bad specs");
    }
}

#[test]
fn kernel_flag_rejected_outside_analyze_and_with_a_file() {
    let out = repro()
        .args(["table1", "--kernel", "fft(n=8)"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--kernel only applies to 'analyze'"),
        "{stderr}"
    );
    let out = repro()
        .args(["analyze", "some.cdag", "--kernel", "fft(n=8)"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not both"), "{stderr}");
}

#[test]
fn bad_format_value_exits_with_usage_error() {
    let out = repro()
        .args(["analyze", "--format", "yaml"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "bad --format must exit 2");
}

#[test]
fn default_argument_is_all() {
    // No argument behaves like `all`; just check it starts cleanly by
    // running the cheapest single experiment instead of the full sweep.
    let out = repro().arg("sec3").output().expect("repro binary runs");
    assert!(out.status.success(), "sec3 must exit 0");
    assert!(!out.stdout.is_empty(), "sec3 prints a table");
}

#[test]
fn simulate_prints_the_sandwich_table() {
    let out = repro()
        .args([
            "simulate",
            "--kernel",
            "fft(n=8)",
            "--sram-sweep",
            "3:12:3",
            "--threads",
            "2",
        ])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "simulate must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sandwich"), "{stdout}");
    assert!(stdout.contains("fft(n=8)"), "{stdout}");
    // 3:12:3 → four sweep rows, all sandwiched.
    assert_eq!(stdout.matches("yes").count(), 4, "{stdout}");
}

#[test]
fn simulate_json_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = repro()
            .args([
                "simulate",
                "--kernel",
                "jacobi(n=8,d=1,t=4)",
                "--sram-sweep",
                "4:16:4",
                "--format",
                "json",
                "--threads",
                threads,
            ])
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "simulate --format json must exit 0");
        out.stdout
    };
    let base = run("1");
    let body = String::from_utf8_lossy(&base);
    assert!(body.trim().starts_with('{'), "{body}");
    for key in [
        "\"sandwich_holds\":true",
        "\"measured_opt\"",
        "\"measured_lru\"",
    ] {
        assert!(body.contains(key), "missing {key}: {body}");
    }
    for threads in ["2", "4"] {
        assert_eq!(run(threads), base, "JSON differs @ {threads} threads");
    }
}

#[test]
fn simulate_policy_filter_and_errors() {
    let out = repro()
        .args(["simulate", "--kernel", "fft(n=8)", "--policy", "opt"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "simulate --policy opt must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The LRU column (4th) is dashed out when only OPT is measured.
    assert!(
        stdout
            .lines()
            .any(|l| l.split_whitespace().nth(3) == Some("-")
                && l.split_whitespace().nth(2) != Some("-")),
        "{stdout}"
    );

    let out = repro().arg("simulate").output().expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "simulate needs --kernel");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--kernel"), "{stderr}");

    let out = repro()
        .args(["simulate", "--kernel", "fft(n=8)", "--policy", "mru"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "bad --policy must exit 2");

    let out = repro()
        .args(["simulate", "--kernel", "fft(n=8)", "--sram-sweep", "4-16"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "bad --sram-sweep must exit 2");

    let out = repro()
        .args(["simulate", "--kernel", "warp_drive"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown kernel must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("repro list"), "{stderr}");
}

#[test]
fn simulate_machine_prints_the_roofline_table() {
    let out = repro()
        .args(["simulate", "--machine", "IBM BG/Q", "--kernel", "fft(n=8)"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "simulate --machine must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("== repro simulate --machine IBM BG/Q --kernel fft(n=8) =="),
        "{stdout}"
    );
    assert!(stdout.contains("on IBM BG/Q"), "{stdout}");
    assert!(stdout.contains("round-robin wavefront split"), "{stdout}");
    // Every cache boundary gets a row, plus the network row's verdict.
    for needle in ["registers", "LLC", "network"] {
        assert!(stdout.contains(needle), "missing {needle}: {stdout}");
    }
    assert!(
        stdout.contains("memory-bound")
            || stdout.contains("compute-bound")
            || stdout.contains("network-bound"),
        "a roofline verdict is printed: {stdout}"
    );
}

#[test]
fn simulate_machine_json_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = repro()
            .args([
                "simulate",
                "--machine",
                "all",
                "--kernel",
                "jacobi(n=8,d=1,t=4)",
                "--format",
                "json",
                "--threads",
                threads,
            ])
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "machine json must exit 0");
        out.stdout
    };
    let base = run("1");
    let body = String::from_utf8_lossy(&base);
    assert!(body.trim().starts_with("{\"reports\":["), "{body}");
    for key in [
        "\"machine\":\"IBM BG/Q\"",
        "\"machine\":\"Cray XT5\"",
        "\"machine\":\"K computer\"",
        "\"network_verdict\"",
        "\"levels\"",
    ] {
        assert!(body.contains(key), "missing {key}: {body}");
    }
    for threads in ["2", "4"] {
        assert_eq!(
            run(threads),
            base,
            "machine JSON differs @ {threads} threads"
        );
    }
}

#[test]
fn simulate_machine_accepts_a_spec_file() {
    let dir = std::env::temp_dir().join(format!("repro-machine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("toy.machine");
    std::fs::write(
        &path,
        "# a toy machine\n\
         name = Toy\n\
         nodes = 1\n\
         cores_per_node = 2\n\
         gflops_per_core = 1.0\n\
         memory_gb = 1.0\n\
         llc_mb = 0.5\n\
         dram_bandwidth_gbs = 10.0\n\
         network_bandwidth_gbs = 5.0\n\
         word_bytes = 8\n",
    )
    .expect("spec file written");
    let out = repro()
        .args([
            "simulate",
            "--machine",
            path.to_str().expect("utf8 temp path"),
            "--kernel",
            "fft(n=8)",
        ])
        .output()
        .expect("repro binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "spec-file machine must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("on Toy"), "{stdout}");
}

#[test]
fn simulate_machine_errors_are_loud() {
    let out = repro()
        .args(["simulate", "--machine", "bogus", "--kernel", "fft(n=8)"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown machine must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown machine 'bogus'"),
        "stderr names the bad machine: {stderr}"
    );
    for entry in ["IBM BG/Q", "Cray XT5", "K computer"] {
        assert!(stderr.contains(entry), "catalog entry {entry}: {stderr}");
    }

    let out = repro()
        .args(["analyze", "--machine", "IBM BG/Q"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "--machine outside simulate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("only applies to 'simulate'"), "{stderr}");

    let out = repro()
        .args([
            "simulate",
            "--machine",
            "IBM BG/Q",
            "--kernel",
            "fft(n=8)",
            "--sram-sweep",
            "4:16:4",
        ])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "--sram-sweep with --machine");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--sram-sweep does not apply"), "{stderr}");

    let out = repro()
        .args([
            "simulate",
            "--machine",
            "IBM BG/Q",
            "--kernel",
            "fft(n=8)",
            "--sram",
            "0",
        ])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2), "--sram 0 must exit 2");
}
