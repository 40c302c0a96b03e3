//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flat-analyze|validate-sweep|hier-scale|serve-mix> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one named workload through the entry points `repro` uses, checks
//! every output, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1`. The lines before it hold the run's provenance and details;
//! the same, plus the traced run's spans, are written under
//! `perfbench/out/`. See `perfbench/README.md` for the workloads, the
//! metric definitions and the layer map.

mod analysis;
mod json;
mod refs;
mod serve;
mod stats;
mod trace;

use serde::json::Value;
use serde::Serialize as _;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics and units, in output order (as in BENCHMARK.json).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rps", "1/s"),
];

/// Per-layer metrics and units, in output order (as in BENCHMARK.json).
/// A layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("cdag.engine_s", "s"),
    ("cdag.engine.anchors_considered", "count"),
    ("cdag.engine.anchors_evaluated", "count"),
    ("cdag.engine_t1_s", "s"),
    ("cdag.engine.speedup", "x"),
    ("cdag.components_s", "s"),
    ("cdag.topo_s", "s"),
    ("cdag.coarsen_s", "s"),
    ("cdag.decompose_s", "s"),
    ("kernels.admit_s", "s"),
    ("kernels.build_s", "s"),
    ("kernels.vertices", "count"),
    ("kernels.edges", "count"),
    ("kernels.schedule_s", "s"),
    ("core.analyze_s", "s"),
    ("core.untag_s", "s"),
    ("core.partition2s_s", "s"),
    ("core.wavefront.runs", "count"),
    ("core.wavefront.wins", "count"),
    ("core.lower_s", "s"),
    ("core.lower.calls", "count"),
    ("core.validate_s", "s"),
    ("core.validate_machine_s", "s"),
    ("core.hier_s", "s"),
    ("core.hier.clusters", "count"),
    ("core.cluster_s", "s"),
    ("core.games.execute_s", "s"),
    ("core.games.moves", "count"),
    ("core.games.validate_s", "s"),
    ("core.serialize_s", "s"),
    ("core.serialize.bytes", "bytes"),
    ("sim.opt_s", "s"),
    ("sim.lru_s", "s"),
    ("sim.loads", "count"),
    ("sim.stores", "count"),
    ("sim.hits", "count"),
    ("sim.evictions", "count"),
    ("sim.split_s", "s"),
    ("sim.remote_words", "count"),
    ("serve.service.hit_us", "us"),
    ("serve.service.miss_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.coalesced", "count"),
    ("serve.analyses_performed", "count"),
    ("serve.errors_total", "count"),
    ("self.repro_s", "s"),
    ("self.kernels_s", "s"),
    ("self.cdag_s", "s"),
    ("self.core_s", "s"),
    ("self.sim_s", "s"),
    ("self.serve_s", "s"),
    ("self.perfbench_s", "s"),
    ("trace.overhead_ms", "ms"),
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlatAnalyze,
    ValidateSweep,
    HierScale,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FlatAnalyze,
        Workload::ValidateSweep,
        Workload::HierScale,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatAnalyze => "flat-analyze",
            Workload::ValidateSweep => "validate-sweep",
            Workload::HierScale => "hier-scale",
            Workload::ServeMix => "serve-mix",
        }
    }

    fn jobs(self, seed: u64) -> Vec<analysis::Job> {
        match self {
            Workload::FlatAnalyze => analysis::flat_jobs(),
            Workload::ValidateSweep => analysis::validate_jobs(),
            Workload::HierScale => analysis::hier_jobs(seed),
            Workload::ServeMix => Vec::new(),
        }
    }
}

/// Passes over an analysis workload's jobs per run: at least this many,
/// more while they fit in the run's seconds.
const MIN_PASSES: usize = 2;

/// What one run measured and checked.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub details: Value,
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// Turns the spans under each pass's roots into per-layer metrics: for
/// every span name `x` with a metric `x_s`, its total seconds per pass,
/// each layer's self time as `self.<layer>_s`, and the counters divided
/// by the pass count. Time metrics are medians over the passes.
pub fn add_span_metrics(
    metrics: &mut BTreeMap<&'static str, f64>,
    tr: &Tracer,
    passes: &[&[usize]],
) {
    let known = |name: String| PER_LAYER.iter().find(|(m, _)| *m == name).map(|(m, _)| *m);
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for roots in passes {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for &root in *roots {
            for (name, secs) in tr.sums(root) {
                if let Some(m) = known(format!("{name}_s")) {
                    *sums.entry(m).or_insert(0.0) += secs;
                }
            }
            for (layer, secs) in tr.self_times(root) {
                if let Some(m) = known(format!("self.{layer}_s")) {
                    *sums.entry(m).or_insert(0.0) += secs;
                }
            }
        }
        for (m, v) in sums {
            per_pass.entry(m).or_default().push(v);
        }
    }
    for (m, v) in per_pass {
        metrics.insert(m, median(&v).unwrap_or(0.0));
    }
    for (name, _) in PER_LAYER {
        let c = tr.counter(name);
        if c != 0.0 {
            metrics.insert(name, c / passes.len() as f64);
        }
    }
    if let (Some(&t1), Some(&t2)) = (
        metrics.get("cdag.engine_t1_s"),
        metrics.get("cdag.engine_s"),
    ) {
        if t2 > 0.0 {
            metrics.insert("cdag.engine.speedup", t1 / t2);
        }
    }
}

/// Fresh-process set-ups timed per run: at least [`MIN_SETUPS`], at most
/// [`MAX_SETUPS`], stopping once they take [`SETUP_BUDGET_S`] together.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET_S: f64 = 3.0;

/// A child process of this binary, as every process the benchmark starts
/// is run: stdin closed, `DMC_BENCH_DIR` pointed at the output directory.
fn child(args: &[&str], out_dir: &Path) -> Result<std::process::Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(args)
        .env("DMC_BENCH_DIR", out_dir)
        .stdin(std::process::Stdio::null());
    Ok(cmd)
}

/// `setup_s` of an analysis workload: the median time a fresh process
/// takes from spawn until it is ready to run the workload's first job
/// (see [`setup_in_process`]), timed in child processes of this binary up
/// to their `ready` line (see [`setup_probe`]). Returns the median and
/// every probe's time.
fn analysis_setup(w: Workload, seed: u64, out_dir: &Path) -> Result<(f64, Vec<f64>), String> {
    use std::io::BufRead;
    let mut times = Vec::new();
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t = Instant::now();
        let mut probe = child(&["setup-probe", w.name(), &seed.to_string()], out_dir)?
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
        let mut line = String::new();
        if let Some(out) = probe.stdout.take() {
            std::io::BufReader::new(out)
                .read_line(&mut line)
                .map_err(|e| format!("set-up probe: {e}"))?;
        }
        times.push(t.elapsed().as_secs_f64());
        let status = probe.wait().map_err(|e| format!("set-up probe: {e}"))?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("set-up probe failed ({status})"));
        }
    }
    Ok((median(&times).unwrap_or(0.0), times))
}

/// The set-up a process does before an analysis workload's first job:
/// the output directory, the shared kernel registry, admission of every
/// job's spec, machine resolution and, with `build`, one build of every
/// job's graph, which checks that each input builds before timing starts.
fn setup_in_process(jobs: &[analysis::Job], out_dir: &Path, build: bool) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    for job in jobs {
        let spec = job.admit()?;
        if build {
            std::hint::black_box(spec.build());
        }
    }
    Ok(())
}

fn workload_and_seed(args: &[String]) -> Option<(Workload, u64)> {
    let w = Workload::ALL
        .into_iter()
        .find(|w| Some(w.name()) == args.first().map(String::as_str))?;
    Some((w, args.get(1)?.parse().ok()?))
}

/// The child side of [`analysis_setup`]: set up, say `ready`, exit.
fn setup_probe(args: &[String], out_dir: &Path) -> i32 {
    let Some((w, seed)) = workload_and_seed(args) else {
        eprintln!("usage: dmc-perfbench setup-probe <workload> <seed>");
        return 2;
    };
    match setup_in_process(&w.jobs(seed), out_dir, true) {
        Ok(()) => {
            println!("ready");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Starts the stderr line on which a job process reports its peak
/// resident memory, in MiB, after its report.
const PEAK_RSS_TAG: &str = "perfbench: peak_rss_mb ";

/// The child side of [`fresh_process_job`]: runs one job through its
/// entry point and prints its stdout, as the `repro` command does, then
/// its peak resident memory on stderr.
fn job_main(args: &[String]) -> i32 {
    let index = args.get(2).and_then(|s| s.parse::<usize>().ok());
    let (Some((w, seed)), Some(index)) = (workload_and_seed(args), index) else {
        eprintln!("usage: dmc-perfbench job <workload> <seed> <index>");
        return 2;
    };
    let out = w
        .jobs(seed)
        .get(index)
        .ok_or_else(|| format!("{} has no job {index}", w.name()))
        .and_then(analysis::Job::run);
    match out {
        Ok(out) => {
            print!("{out}");
            match peak_rss_mb("/proc/self/status") {
                Ok(mb) => {
                    eprintln!("{PEAK_RSS_TAG}{mb}");
                    0
                }
                Err(e) => {
                    eprintln!("{e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Checks one job's output; an error, a panic or a failed check is a
/// failed operation, reported on stderr. `how` says how the job ran.
fn verdict(
    w: Workload,
    checker: &mut analysis::Checker,
    (index, job): (usize, &analysis::Job),
    seed: u64,
    out: Result<String, String>,
    how: &str,
) -> bool {
    match out.and_then(|out| checker.check(index, job, seed, &out)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("{}{how}: {} failed: {e}", w.name(), job.repro_command());
            false
        }
    }
}

/// One job run in a fresh process: its seconds, its peak resident
/// memory, and whether it passed its checks.
struct JobRun {
    wall_s: f64,
    peak_rss_mb: f64,
    ok: bool,
}

/// Runs job `index` the way `repro` runs it, in a fresh process (of this
/// binary, see [`job_main`]), from spawn to exit.
fn fresh_process_job(
    w: Workload,
    checker: &mut analysis::Checker,
    index: usize,
    job: &analysis::Job,
    seed: u64,
    out_dir: &Path,
) -> JobRun {
    let t = Instant::now();
    let run = child(
        &["job", w.name(), &seed.to_string(), &index.to_string()],
        out_dir,
    )
    .and_then(|mut cmd| {
        cmd.output()
            .map_err(|e| format!("cannot start the job: {e}"))
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut peak_rss_mb = 0.0;
    let out = run.and_then(|o| {
        let stderr = String::from_utf8_lossy(&o.stderr);
        if !o.status.success() {
            return Err(format!("exited with {}: {}", o.status, stderr.trim()));
        }
        peak_rss_mb = stderr
            .lines()
            .find_map(|l| l.strip_prefix(PEAK_RSS_TAG)?.parse().ok())
            .ok_or("the job reported no peak memory")?;
        String::from_utf8(o.stdout).map_err(|e| format!("non-UTF-8 report: {e}"))
    });
    JobRun {
        wall_s,
        peak_rss_mb,
        ok: verdict(w, checker, (index, job), seed, out, ""),
    }
}

/// The untraced run of an analysis workload: passes over its jobs, each
/// job in a fresh process as `repro` runs it, until the next pass would
/// overrun `seconds`, and at least [`MIN_PASSES`]. `wall_s` is a pass of
/// median jobs: the sum over the jobs of each one's median seconds, so a
/// slow sample of one job and a slow sample of another in a different
/// pass are both left out.
fn run_analysis(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Result<RunResult, String> {
    let (setup_s, setups_s) = analysis_setup(w, seed, out_dir)?;
    let jobs = w.jobs(seed);
    setup_in_process(&jobs, out_dir, false)?;
    let mut checker = analysis::Checker::default();
    let mut pass_wall = Vec::new();
    let mut job_wall: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let (mut failed, mut peak) = (0u64, 0.0f64);
    let t0 = Instant::now();
    loop {
        let mut wall = 0.0;
        for (i, job) in jobs.iter().enumerate() {
            let run = fresh_process_job(w, &mut checker, i, job, seed, out_dir);
            wall += run.wall_s;
            job_wall[i].push(run.wall_s);
            peak = peak.max(run.peak_rss_mb);
            failed += u64::from(!run.ok);
        }
        pass_wall.push(wall);
        if pass_wall.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let measured = t0.elapsed().as_secs_f64();
    let attempted = (jobs.len() * pass_wall.len()) as u64;
    let metrics = BTreeMap::from([
        ("setup_s", setup_s),
        (
            "wall_s",
            job_wall.iter().filter_map(|v| median(v)).sum::<f64>(),
        ),
        ("peak_rss_mb", peak),
        ("rps", (attempted - failed) as f64 / measured.max(1e-9)),
    ]);
    let details = Value::object([
        ("passes", pass_wall.len().to_json()),
        ("pass_wall_s", pass_wall.to_json()),
        ("job_wall_s", job_wall.to_json()),
        ("setups_s", setups_s.to_json()),
        (
            "jobs",
            jobs.iter()
                .map(|j| j.repro_command())
                .collect::<Vec<_>>()
                .to_json(),
        ),
    ]);
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        details,
    })
}

/// The traced run of an analysis workload: passes of the traced replay
/// of every job plus its layer probes, each job under one `perfbench.job`
/// span, while time remains. The replay's output gets the same checks as
/// the entry point's.
fn run_analysis_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    tr: &mut Tracer,
) -> Result<RunResult, String> {
    let jobs = w.jobs(seed);
    setup_in_process(&jobs, out_dir, false)?;
    let t0 = Instant::now();
    let mut checker = analysis::Checker::default();
    let mut failed = 0u64;
    let mut passes: Vec<Vec<usize>> = Vec::new();
    let mut details = Vec::new();
    loop {
        let pass_start = Instant::now();
        let mut roots = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            tr.set_job(i as u64);
            let depth = tr.depth();
            roots.push(tr.enter("perfbench.job"));
            let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                analysis::traced(job, tr)
            }));
            tr.close_to(depth);
            let out = match replay {
                Ok(Ok((out, d))) => {
                    if passes.is_empty() {
                        details.push(d);
                    }
                    Ok(out)
                }
                Ok(Err(e)) => Err(e),
                Err(_) => Err("panicked".to_string()),
            };
            failed += u64::from(!verdict(w, &mut checker, (i, job), seed, out, " (traced)"));
        }
        passes.push(roots);
        let pass = pass_start.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() + pass > seconds {
            break;
        }
    }
    let mut metrics = BTreeMap::new();
    let pass_roots: Vec<&[usize]> = passes.iter().map(Vec::as_slice).collect();
    add_span_metrics(&mut metrics, tr, &pass_roots);
    let own_s = tr.own_cost_s();
    metrics.insert("trace.overhead_ms", own_s / passes.len() as f64 * 1e3);
    let reading = match w {
        Workload::ValidateSweep => analysis::opt_cost_reading()?,
        _ => Value::Null,
    };
    let details = Value::object([
        ("traced_passes", passes.len().to_json()),
        ("tracer_own_s", own_s.to_json()),
        ("jobs", Value::Array(details)),
        ("opt_cost_reading", reading),
    ]);
    Ok(RunResult {
        attempted: (jobs.len() * passes.len()) as u64,
        failed,
        metrics,
        details,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: dmc-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let get = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let name = get("--workload");
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'")));
    let seed = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed needs a non-negative integer"));
    let seconds = get("--seconds")
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds needs a positive number"));
    let trace = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace needs 0 or 1"),
    };
    if args.len() != 8 {
        usage("expected exactly --workload, --seed, --seconds and --trace");
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// The repository this benchmark sits in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(steal, total)` jiffies of the machine's CPUs so far, from the first
/// line of `/proc/stat`; `None` where it cannot be read.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of CPU time the hypervisor took from this machine between
/// two [`cpu_jiffies`] readings: runs that disagree usually differ here.
fn steal_share(start: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (start?, cpu_jiffies()?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

fn provenance(a: &Args, steal: Option<f64>) -> Value {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let serve = a.workload == Workload::ServeMix;
    Value::object([
        ("workload", a.workload.name().to_json()),
        ("seed", a.seed.to_json()),
        ("seconds", a.seconds.to_json()),
        ("trace", a.trace.to_json()),
        (
            "git_rev",
            rev.unwrap_or_else(|| "unknown".to_string()).to_json(),
        ),
        ("git_dirty", dirty.to_json()),
        ("nproc", nproc.to_json()),
        ("rustc", env!("PERFBENCH_RUSTC").to_json()),
        ("cpu_steal_share", steal.to_json()),
        ("debug_assertions", cfg!(debug_assertions).to_json()),
        (
            "threads",
            (if serve {
                serve::DAEMON_THREADS
            } else {
                analysis::THREADS
            })
            .to_json(),
        ),
        ("workers", serve.then_some(serve::WORKERS).to_json()),
        ("clients", serve.then_some(serve::CLIENTS).to_json()),
        (
            "cache_entries",
            serve.then_some(serve::CACHE_ENTRIES).to_json(),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Debug builds re-check every warm min-cut solve against a fresh one
    // and so measure a different program.
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions; build with --release");
        std::process::exit(2);
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match args.first().map(String::as_str) {
        Some("daemon") => std::process::exit(serve::daemon_main()),
        Some("setup-probe") => std::process::exit(setup_probe(&args[1..], &out_dir)),
        Some("job") => std::process::exit(job_main(&args[1..])),
        _ => {}
    }
    let a = parse_args(&args);
    let jiffies = cpu_jiffies();
    let mut tr = Tracer::default();
    let result = match (a.workload, a.trace) {
        (Workload::ServeMix, false) => serve::run(a.seed, a.seconds, &out_dir),
        (Workload::ServeMix, true) => serve::run_traced(a.seed, a.seconds, &out_dir, &mut tr),
        (w, false) => run_analysis(w, a.seed, a.seconds, &out_dir),
        (w, true) => run_analysis_traced(w, a.seed, a.seconds, &out_dir, &mut tr),
    };
    let r = result.unwrap_or_else(|e| {
        eprintln!("{}: {e}", a.workload.name());
        std::process::exit(1);
    });
    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = Value::Object(
        table
            .iter()
            .map(|&(name, unit)| {
                let v = r.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Value::object([("value", v.to_json()), ("unit", unit.to_json())]),
                )
            })
            .collect(),
    );
    let line = Value::object([
        ("correct", (r.failed == 0).to_json()),
        ("attempted", r.attempted.to_json()),
        ("failed", r.failed.to_json()),
        ("metrics", metrics),
    ]);
    let prov = provenance(&a, steal_share(jiffies));
    let stem = format!(
        "{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    );
    let record = Value::object([
        ("provenance", prov.clone()),
        ("details", r.details.clone()),
        ("result", line.clone()),
    ]);
    let write = |name: String, v: &Value| {
        if let Err(e) = std::fs::write(out_dir.join(&name), format!("{v}\n")) {
            eprintln!("cannot write {name}: {e}");
        }
    };
    write(format!("{stem}.json"), &record);
    if a.trace {
        write(format!("{stem}-spans.json"), &tr.to_json());
    }
    println!("{}", Value::object([("provenance", prov)]));
    println!("{}", Value::object([("details", r.details)]));
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_names_the_printed_metrics_and_workloads() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .map(Json::arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.str_at(&[f]).expect("name and unit").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), printed(&END_TO_END));
        assert_eq!(listed("per_layer"), printed(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn a_job_without_a_matching_reference_counts_as_failed() {
        let job = analysis::Job::Analyze {
            spec: "matmul(n=4)".to_string(),
            hierarchical: false,
        };
        let mut checker = analysis::Checker::default();
        let out = job.run();
        assert!(out.is_ok());
        let ok = verdict(Workload::FlatAnalyze, &mut checker, (0, &job), 1, out, "");
        assert!(!ok, "an unchecked output must not count as a success");
    }
}
