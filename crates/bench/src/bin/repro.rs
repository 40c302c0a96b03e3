//! `repro` — regenerates every table and figure of the paper's evaluation,
//! and runs the unified bound-analysis pipeline on arbitrary `.cdag` files
//! or kernel-catalog specs.
//!
//! Usage:
//! ```text
//! repro [table1|sec3|cg|gmres|jacobi|pebbling|mincut|analyze|catalog|simulate|scale|partition|parallel|figures|all]
//!       [--threads N]
//! repro list
//! repro analyze <file.cdag> [--sram S] [--threads N] [--format text|json]
//!               [--hierarchical [--clusters K]]
//! repro analyze --kernel '<spec>' [--sram S] [--threads N] [--format text|json]
//!               [--hierarchical [--clusters K]] [--max-vertices N]
//! repro simulate --kernel '<spec>' [--sram-sweep lo:hi:step] [--policy lru|opt]
//!                [--threads N] [--format text|json]
//! repro simulate --machine <name|'all'|spec-file> [--kernel '<spec>'] [--sram S1]
//!                [--policy lru|opt] [--threads N] [--format text|json]
//! repro lint [--format text|json] [--rules d1,d2,...]
//! repro serve [--addr HOST:PORT] [--workers N] [--threads N]
//!             [--cache-entries K] [--cache-bytes B] [--max-vertices N]
//! repro loadgen [--workers N]
//! ```
//!
//! `--threads N` pins the worker count for the wavefront engine and the
//! pipeline's component fan-out (`0` or omitted =
//! `std::thread::available_parallelism`). `analyze` without a file prints
//! the pipeline table over the seed kernels; with a `.cdag` file or a
//! `--kernel` spec (e.g. `jacobi(n=8,d=2,t=4)` — see `repro list` for the
//! catalog) it reports the full provenance tree (`--format json` for
//! machine-readable output). `--hierarchical` switches that report to
//! the partition → per-cluster trivial bound → Theorem-2 composition
//! pipeline (`--clusters K` pins the cluster count), `--max-vertices N`
//! raises or lowers the catalog's build-admission limit, and `scale`
//! runs the E16 curve of sparse random DAGs from 2^20 past 10^7
//! vertices through the hierarchical mode. The binary also records
//! wall-clock perf snapshots as `BENCH_<experiment>.json` (in
//! `$DMC_BENCH_DIR`, default the current directory). `simulate` executes the kernel's schedule
//! hook on the cache simulator across the S-sweep and sandwiches the
//! measured I/O between the certified lower and upper bounds (the sweep
//! defaults to three octaves up from the schedule's minimum feasible S;
//! `--policy` restricts measurement to one eviction policy). `simulate
//! --machine` instead judges kernels against a *machine*: the DAG is dealt
//! round-robin across the node's cores and measured at every boundary of
//! the machine's register/LLC/DRAM hierarchy, each level a certified
//! sandwich plus the Equation-7/8 roofline verdicts (`<name>` is a catalog
//! entry — see the E1 table — `all` sweeps the catalog, any other value is
//! read as a `key = value` spec file; `--sram S1` sets the per-core
//! level-1 words, default 64; omitting `--kernel` sweeps the E17 set, and
//! the snapshot lands in `BENCH_machine.json`). `lint` runs
//! the `dmc-lint` determinism/soundness pass over the workspace sources
//! (exit 0 clean, 1 on violations, 2 on unused waivers; `--rules`
//! restricts to a comma-separated rule subset, e.g. `d1,s1`). `serve`
//! starts the bounds-as-a-service daemon (`dmc-serve`): the analysis
//! pipeline behind HTTP with a content-addressed result cache
//! (`--cache-entries`/`--cache-bytes` bound it, `--workers` sizes the
//! handler pool, `--max-vertices` the admission limit; stop it with
//! `POST /shutdown`). `loadgen` hammers a fresh in-process daemon with
//! a hot/cold client mix and records the throughput/latency/hit-rate
//! numbers as `BENCH_serve.json`.

use dmc_bench::ReportFormat;
use dmc_core::job::{parse_sweep, JobKind, JobOption, DEFAULT_SRAM};
use dmc_sim::CachePolicy;

fn usage_error(msg: &str) -> ! {
    eprintln!(
        "{msg}; expected one of: table1 sec3 cg gmres \
         jacobi pebbling mincut analyze catalog simulate scale lint list partition parallel \
         figures serve loadgen all (plus optional --threads N; analyze also takes \
         <file.cdag> or --kernel '<spec>', --sram S, --format text|json, \
         --hierarchical, --clusters K, --max-vertices N; \
         simulate takes --kernel '<spec>', --sram-sweep lo:hi:step, \
         --policy lru|opt, --format text|json, or --machine \
         <name|'all'|spec-file> with --sram S1; \
         lint takes --format text|json and --rules d1,d2,d3,s1,s2; \
         serve takes --addr HOST:PORT, --workers N, --threads N, \
         --cache-entries K, --cache-bytes B, --max-vertices N; \
         loadgen takes --workers N)"
    );
    std::process::exit(2);
}

struct Args {
    experiment: Option<String>,
    file: Option<String>,
    kernel: Option<String>,
    threads: Option<usize>,
    /// `--sram` / `--format` / `--sram-sweep` / `--policy` stay `None`
    /// unless given explicitly, so the dispatcher can reject them for
    /// experiments they do not apply to instead of silently ignoring
    /// them.
    sram: Option<u64>,
    format: Option<ReportFormat>,
    sram_sweep: Option<(u64, u64, u64)>,
    policy: Option<CachePolicy>,
    machine: Option<String>,
    rules: Option<String>,
    hierarchical: bool,
    clusters: Option<usize>,
    max_vertices: Option<u64>,
    addr: Option<String>,
    workers: Option<usize>,
    cache_entries: Option<usize>,
    cache_bytes: Option<usize>,
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        experiment: None,
        file: None,
        kernel: None,
        threads: None,
        sram: None,
        format: None,
        sram_sweep: None,
        policy: None,
        machine: None,
        rules: None,
        hierarchical: false,
        clusters: None,
        max_vertices: None,
        addr: None,
        workers: None,
        cache_entries: None,
        cache_bytes: None,
    };
    let take_value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (a.clone(), None),
        };
        match flag.as_str() {
            "--threads" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--threads"));
                parsed.threads = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_error("--threads needs a non-negative integer")),
                );
            }
            "--sram" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--sram"));
                parsed.sram =
                    Some(v.parse().ok().filter(|&s| s >= 1).unwrap_or_else(|| {
                        usage_error("--sram needs a positive integer word count")
                    }));
            }
            "--format" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--format"));
                parsed.format = Some(match v.as_str() {
                    "text" => ReportFormat::Text,
                    "json" => ReportFormat::Json,
                    _ => usage_error("--format must be 'text' or 'json'"),
                });
            }
            "--kernel" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--kernel"));
                parsed.kernel = Some(v);
            }
            "--sram-sweep" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--sram-sweep"));
                parsed.sram_sweep = Some(parse_sweep(&v).unwrap_or_else(|| {
                    usage_error("--sram-sweep needs lo:hi:step (three positive integers)")
                }));
            }
            "--policy" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--policy"));
                parsed.policy = Some(match v.as_str() {
                    "lru" => CachePolicy::Lru,
                    "opt" => CachePolicy::Opt,
                    _ => usage_error("--policy must be 'lru' or 'opt'"),
                });
            }
            "--machine" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--machine"));
                parsed.machine = Some(v);
            }
            "--rules" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--rules"));
                parsed.rules = Some(v);
            }
            "--hierarchical" => {
                if inline.is_some() {
                    usage_error("--hierarchical takes no value");
                }
                parsed.hierarchical = true;
            }
            "--clusters" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--clusters"));
                parsed.clusters = Some(v.parse().ok().filter(|&k| k >= 1).unwrap_or_else(|| {
                    usage_error("--clusters needs a positive integer cluster count")
                }));
            }
            "--max-vertices" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--max-vertices"));
                parsed.max_vertices =
                    Some(v.parse().ok().filter(|&m| m >= 1).unwrap_or_else(|| {
                        usage_error("--max-vertices needs a positive integer vertex count")
                    }));
            }
            "--addr" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--addr"));
                parsed.addr = Some(v);
            }
            "--workers" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--workers"));
                parsed.workers = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_error("--workers needs a non-negative integer")),
                );
            }
            "--cache-entries" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--cache-entries"));
                parsed.cache_entries =
                    Some(v.parse().ok().filter(|&k| k >= 1).unwrap_or_else(|| {
                        usage_error("--cache-entries needs a positive integer entry count")
                    }));
            }
            "--cache-bytes" => {
                let v = inline.unwrap_or_else(|| take_value(args, &mut i, "--cache-bytes"));
                parsed.cache_bytes =
                    Some(v.parse().ok().filter(|&b| b >= 1).unwrap_or_else(|| {
                        usage_error("--cache-bytes needs a positive integer byte count")
                    }));
            }
            _ if a.starts_with('-') => usage_error(&format!("unknown flag '{a}'")),
            _ if parsed.experiment.is_none() => parsed.experiment = Some(a.clone()),
            _ if parsed.experiment.as_deref() == Some("analyze") && parsed.file.is_none() => {
                parsed.file = Some(a.clone());
            }
            _ => usage_error(&format!("unknown experiment '{a}'")),
        }
        i += 1;
    }
    parsed
}

/// Runs the `dmc-lint` static-analysis pass over the enclosing workspace
/// and exits with the report's exit code (0 clean, 1 violations, 2 unused
/// waivers). The workspace root is located by walking up from the current
/// directory, so `repro lint` works from any subdirectory of the repo.
fn run_lint(rules: Option<&str>, format: ReportFormat) -> ! {
    let cwd = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("cannot determine current directory: {e}");
        std::process::exit(2);
    });
    let root = dmc_lint::find_workspace_root(&cwd).unwrap_or_else(|| {
        eprintln!("no Cargo workspace found above {}", cwd.display());
        std::process::exit(2);
    });
    match dmc_lint::lint_workspace(&root, rules) {
        Ok(report) => {
            match format {
                ReportFormat::Text => print!("{}", report.render_text()),
                ReportFormat::Json => println!("{}", serde::json::to_string(&report)),
            }
            std::process::exit(report.exit_code());
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Boots the `dmc-serve` daemon from the CLI flags and blocks until
/// `POST /shutdown`; exits 0 on a clean drain, 1 on a socket error.
fn run_serve(args: &Args, threads: usize) -> ! {
    use dmc_serve::{CacheConfig, Limits, Server, ServerConfig, ServiceConfig};
    let defaults = CacheConfig::default();
    let config = ServerConfig {
        addr: args
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        workers: args.workers.unwrap_or(0),
        limits: Limits::default(),
        service: ServiceConfig {
            max_vertices: args
                .max_vertices
                .unwrap_or(dmc_kernels::catalog::DEFAULT_MAX_BUILD_VERTICES),
            threads,
            cache: CacheConfig {
                max_entries: args.cache_entries.unwrap_or(defaults.max_entries),
                max_bytes: args.cache_bytes.unwrap_or(defaults.max_bytes),
            },
        },
        log: true,
    };
    let server = Server::bind(config).unwrap_or_else(|e| {
        eprintln!("cannot bind serve daemon: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[serve] listening on http://{} (POST /shutdown to stop)",
        server.local_addr()
    );
    match server.run() {
        Ok(summary) => {
            eprintln!(
                "[serve] drained: {} requests handled, {} dead connections",
                summary.requests, summary.dead_connections
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[serve] accept loop failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Perf-trajectory snapshots (`BENCH_*.json` in `$DMC_BENCH_DIR` or
    // the current directory) are enabled for the binary only — library
    // users, unit tests, and criterion benches never write them.
    dmc_bench::snapshot::enable_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args);
    let arg = args.experiment.clone().unwrap_or_else(|| "all".to_string());
    // Flags an experiment would silently drop are rejected loudly:
    // `--kernel`/`--format` only shape the analyze/simulate reports, the
    // job options only the jobs that take them (the job's rule decides,
    // these messages are the CLI's), and `--threads` only drives the
    // threaded stages.
    let simulating = arg == "simulate";
    let job_kind = match (arg.as_str(), &args.machine) {
        ("analyze", _) if args.file.is_some() || args.kernel.is_some() => Some(JobKind::Analyze),
        ("simulate", Some(_)) => Some(JobKind::Machine),
        ("simulate", None) => Some(JobKind::Sweep),
        _ => None,
    };
    let stray = |option| !job_kind.is_some_and(|k| k.takes(option, args.hierarchical));
    if args.kernel.is_some() && !(arg == "analyze" || simulating) {
        usage_error("--kernel only applies to 'analyze' and 'simulate'");
    }
    if args.kernel.is_some() && args.file.is_some() {
        usage_error("give either a <file.cdag> or --kernel '<spec>', not both");
    }
    if simulating && args.kernel.is_none() && args.machine.is_none() {
        usage_error("simulate needs --kernel '<spec>' or --machine <name> (see `repro list`)");
    }
    if args.machine.is_some() && stray(JobOption::Machine) {
        usage_error("--machine only applies to 'simulate'");
    }
    let machine_sim = job_kind == Some(JobKind::Machine);
    if args.sram.is_some() && stray(JobOption::Sram) {
        usage_error(
            "--sram only applies to 'analyze <file.cdag>', 'analyze --kernel', \
             and 'simulate --machine' (the per-core S1)",
        );
    }
    if args.sram_sweep.is_some() && machine_sim {
        usage_error("--sram-sweep does not apply to 'simulate --machine'; use --sram to set S1");
    }
    let linting = arg == "lint";
    if args.format.is_some() && job_kind.is_none() && !linting {
        usage_error(
            "--format only applies to 'analyze <file.cdag>', 'analyze --kernel', \
             'simulate', and 'lint'",
        );
    }
    if args.rules.is_some() && !linting {
        usage_error("--rules only applies to 'lint'");
    }
    if (args.sram_sweep.is_some() && stray(JobOption::SramSweep))
        || (args.policy.is_some() && stray(JobOption::Policy))
    {
        usage_error("--sram-sweep and --policy only apply to 'simulate'");
    }
    if args.hierarchical && stray(JobOption::Hierarchical) {
        usage_error("--hierarchical only applies to 'analyze <file.cdag>' or 'analyze --kernel'");
    }
    if args.clusters.is_some() && stray(JobOption::Clusters) {
        usage_error("--clusters needs --hierarchical");
    }
    let serving = arg == "serve";
    let loadgenning = arg == "loadgen";
    if args.max_vertices.is_some() && !(arg == "analyze" && args.kernel.is_some()) && !serving {
        usage_error(
            "--max-vertices only applies to 'analyze --kernel' and 'serve' (the admission limit)",
        );
    }
    if args.addr.is_some() && !serving {
        usage_error("--addr only applies to 'serve'");
    }
    if args.workers.is_some() && !(serving || loadgenning) {
        usage_error("--workers only applies to 'serve' and 'loadgen'");
    }
    if (args.cache_entries.is_some() || args.cache_bytes.is_some()) && !serving {
        usage_error("--cache-entries and --cache-bytes only apply to 'serve'");
    }
    if args.threads.is_some()
        && !matches!(
            arg.as_str(),
            "mincut" | "analyze" | "catalog" | "simulate" | "scale" | "serve" | "all"
        )
    {
        usage_error(
            "--threads only applies to 'mincut', 'analyze', 'catalog', 'simulate', 'scale', 'serve', and 'all'",
        );
    }
    let threads = args.threads.unwrap_or(0);
    if serving {
        // `serve` owns its lifecycle (it blocks until `POST /shutdown`),
        // so like `lint` it never enters the snapshot-timed dispatcher.
        run_serve(&args, threads);
    }
    if loadgenning {
        // `loadgen` writes its own `BENCH_serve.json`; keep it out of
        // the timed dispatcher so no stray `BENCH_loadgen.json` appears.
        match dmc_bench::loadgen::loadgen_experiment(args.workers.unwrap_or(0)) {
            Ok(table) => {
                print!("{table}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    if linting {
        // `lint` owns the process exit code (0 clean / 1 violations /
        // 2 stale waivers), so it never falls through to the generic
        // experiment dispatcher below.
        run_lint(
            args.rules.as_deref(),
            args.format.unwrap_or(ReportFormat::Text),
        );
    }
    // `simulate --machine` gets its own perf-snapshot series
    // (`BENCH_machine.json`) so the machine sweep's trajectory is
    // tracked separately from the single-cache sweep's.
    let snap_name = if machine_sim { "machine" } else { arg.as_str() };
    let out = dmc_bench::snapshot::timed(snap_name, threads, || match arg.as_str() {
        "table1" => dmc_bench::table1(),
        "sec3" => dmc_bench::sec3_composite(&[2, 4, 8]),
        "cg" => dmc_bench::cg_experiment(),
        "gmres" => dmc_bench::gmres_experiment(),
        "jacobi" => dmc_bench::jacobi_experiment(),
        "pebbling" | "validate" => dmc_bench::pebbling_experiment(),
        "mincut" => dmc_bench::mincut_experiment_with(threads),
        "analyze" => {
            let sram = args.sram.unwrap_or(DEFAULT_SRAM);
            let format = args.format.unwrap_or(ReportFormat::Text);
            let opts = dmc_bench::AnalyzeOptions {
                hierarchical: args.hierarchical,
                clusters: args.clusters,
                max_vertices: args.max_vertices,
            };
            match (&args.kernel, &args.file) {
                (Some(spec), None) => {
                    dmc_bench::analyze_kernel_spec_with(spec, sram, threads, format, opts)
                        .unwrap_or_else(|e| {
                            // Bad specs are usage errors: loud message, exit 2.
                            eprintln!("{e}");
                            std::process::exit(2);
                        })
                }
                (None, Some(path)) => dmc_bench::analyze_file_with(
                    path, sram, threads, format, opts,
                )
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(1);
                }),
                _ => dmc_bench::analyze_experiment_with(threads),
            }
        }
        "catalog" => dmc_bench::catalog_experiment_with(threads),
        "simulate" => {
            let format = args.format.unwrap_or(ReportFormat::Text);
            if let Some(machine) = args.machine.as_deref() {
                dmc_bench::simulate_machine(
                    machine,
                    args.kernel.as_deref(),
                    args.sram.unwrap_or(dmc_bench::DEFAULT_MACHINE_S1),
                    args.policy,
                    threads,
                    format,
                )
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            } else {
                // Checked above, but routed through the usage error rather
                // than a panic so the path stays panic-free (lint rule S1).
                let Some(spec) = args.kernel.as_deref() else {
                    usage_error("simulate needs --kernel '<spec>' (see `repro list`)");
                };
                dmc_bench::simulate_kernel_spec(spec, args.sram_sweep, args.policy, threads, format)
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    })
            }
        }
        "scale" => dmc_bench::scale_experiment_with(threads),
        "list" => dmc_bench::list_catalog(),
        "partition" => dmc_bench::partition_experiment(),
        "parallel" => dmc_bench::parallel_experiment(),
        "figures" | "fig1" => dmc_bench::figures(),
        "all" => dmc_bench::run_all_with(threads),
        other => usage_error(&format!("unknown experiment '{other}'")),
    });
    print!("{out}");
}
