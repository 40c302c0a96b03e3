//! The `serve-mix` workload: `repro serve --workers 2 --threads 1` under
//! a closed loop of two client connections, one request per connection.
//!
//! About 90% of requests are hot `POST /analyze` of three small catalog
//! specs, warmed during set-up, so they read the result cache; about 10%
//! are cold, unique `random(layers=8,width=32,deg=3,seed=…)` specs that
//! all share one shape, so every miss costs about the same. The cache
//! holds fewer entries than a run sends cold specs, so misses also evict.

use crate::stats::{median, quantile, SplitMix};
use crate::trace::Tracer;
use crate::RunResult;
use dmc_bench::{AnalyzeOptions, ReportFormat};
use dmc_serve::{CacheConfig, Limits, Server, ServerConfig, ServiceConfig};
use serde::json::Value;
use serde::Serialize as _;
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The hot set: the same three specs `repro loadgen` repeats.
pub const HOT: [&str; 3] = ["diamond", "fft(n=8)", "reduction(leaves=16)"];
/// Daemon handler threads (`--workers`).
pub const WORKERS: usize = 2;
/// Analysis threads per request (`--threads`).
pub const DAEMON_THREADS: usize = 1;
/// Concurrent client connections in the closed loop.
pub const CLIENTS: usize = 2;
/// `--cache-entries`: below the cold specs of any run longer than a few
/// seconds (about 40 cold requests per second arrive), so misses evict.
pub const CACHE_ENTRIES: usize = 64;
/// One request in this many is cold, on average.
const COLD_ONE_IN: u64 = 10;
/// Requests per "pass" for `wall_s`: the time to complete this many.
const PASS_REQUESTS: usize = 100;
/// Set-ups measured per run (`setup_s` is their median).
const SETUPS: usize = 5;
/// Cold bodies re-checked against in-process JSON after the timed phase.
const COLD_SAMPLE: usize = 16;

/// `repro analyze --format json`'s stdout for `spec`, computed in this
/// process with the daemon's thread count — what every 200 body must
/// equal byte for byte.
fn in_process_json(spec: &str) -> Result<String, String> {
    dmc_bench::analyze_kernel_spec_with(
        spec,
        crate::analysis::ANALYZE_SRAM,
        DAEMON_THREADS,
        ReportFormat::Json,
        AnalyzeOptions::default(),
    )
}

/// The daemon's configuration: `repro serve`'s, with this workload's
/// flags and an ephemeral port.
fn server_config(log: bool) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        limits: Limits::default(),
        service: ServiceConfig {
            max_vertices: dmc_kernels::catalog::DEFAULT_MAX_BUILD_VERTICES,
            threads: DAEMON_THREADS,
            cache: CacheConfig {
                max_entries: CACHE_ENTRIES,
                ..CacheConfig::default()
            },
        },
        log,
    }
}

/// The child-process entry: boots the daemon as `repro serve` does,
/// prints its address on stdout and serves until `POST /shutdown`.
pub fn daemon_main() -> i32 {
    let server = match Server::bind(server_config(true)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind serve daemon: {e}");
            return 1;
        }
    };
    println!("{}", server.local_addr());
    if std::io::stdout().flush().is_err() {
        return 1;
    }
    match server.run() {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("[serve] accept loop failed: {e}");
            1
        }
    }
}

/// A running daemon child; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(out_dir: &std::path::Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // The per-request access log goes nowhere: writing it to a file
        // would put disk latency on the request path.
        let mut child = Command::new(exe)
            .arg("daemon")
            .env("DMC_BENCH_DIR", out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let mut daemon = Daemon {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, line.trim().parse()) {
            (Some(Ok(n)), Ok(addr)) if n > 0 => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!("daemon printed no address (got {line:?})")),
        }
    }

    /// Peak resident memory of the daemon so far, in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    fn shutdown(mut self) -> Result<(), String> {
        let (status, _, _) = request(self.addr, "POST", "/shutdown", "")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(exit)) if status == 200 && exit.success() => return Ok(()),
                Ok(Some(exit)) => {
                    return Err(format!("daemon exited with {exit} (shutdown {status})"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not drain within 20 s".to_string()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// When a request's phases happened.
#[derive(Clone, Copy)]
struct Stamps {
    start: Instant,
    connected: Instant,
    first_byte: Instant,
    end: Instant,
}

/// One HTTP exchange on a fresh connection: status, body, timestamps.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, Stamps), String> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let connected = Instant::now();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let n = s.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
    let first_byte = Instant::now();
    resp.extend_from_slice(&chunk[..n]);
    s.read_to_end(&mut resp).map_err(|e| format!("recv: {e}"))?;
    let end = Instant::now();
    let resp = String::from_utf8(resp).map_err(|e| format!("non-UTF-8 response: {e}"))?;
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable response: {resp:.80?}"))?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((
        status,
        body,
        Stamps {
            start,
            connected,
            first_byte,
            end,
        },
    ))
}

/// One planned request: the spec, and the hot-set index for hot ones.
struct Planned {
    spec: String,
    hot: Option<usize>,
}

/// The seeded request order: hot specs drawn uniformly from [`HOT`],
/// cold specs with distinct generator seeds drawn from the workload seed.
fn plan(seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed ^ 0x5EED_5E4E);
    let mut seen = HashSet::new();
    (0..n)
        .map(|_| {
            if rng.below(COLD_ONE_IN) == 0 {
                let mut s = rng.next_u64();
                while !seen.insert(s) {
                    s = rng.next_u64();
                }
                Planned {
                    spec: format!("random(layers=8,width=32,deg=3,seed={s})"),
                    hot: None,
                }
            } else {
                let h = rng.below(HOT.len() as u64) as usize;
                Planned {
                    spec: HOT[h].to_string(),
                    hot: Some(h),
                }
            }
        })
        .collect()
}

/// What one request of a timed phase produced.
struct Sample {
    index: usize,
    hot: bool,
    ok: bool,
    stamps: Stamps,
    /// Kept for cold requests, for the after-phase byte check.
    body: Option<String>,
}

/// Set-up: the output directory, daemon boot, hot-set warm-up and
/// in-process references.
fn setup(out_dir: &std::path::Path) -> Result<(Daemon, Vec<String>), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let daemon = Daemon::spawn(out_dir)?;
    let mut refs = Vec::new();
    for spec in HOT {
        let expect = in_process_json(spec)?;
        let (status, body, _) = request(daemon.addr, "POST", "/analyze", spec)?;
        if status != 200 || body != expect {
            return Err(format!(
                "warm-up {spec}: status {status}, body differs from in-process JSON"
            ));
        }
        refs.push(expect);
    }
    Ok((daemon, refs))
}

/// A closed loop of [`CLIENTS`] connections over `plan[from..]` until
/// `seconds` pass; returns the samples and the phase's duration.
fn closed_loop(
    addr: SocketAddr,
    plan: &[Planned],
    from: usize,
    refs: &[String],
    seconds: f64,
) -> Result<(Vec<Sample>, f64), String> {
    let next = AtomicUsize::new(from);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(index) else { break };
                        let t = Instant::now();
                        let (ok, body, stamps) = match request(addr, "POST", "/analyze", &p.spec) {
                            Ok((status, body, stamps)) => (
                                status == 200 && p.hot.is_none_or(|h| body == refs[h]),
                                body,
                                stamps,
                            ),
                            Err(e) => {
                                eprintln!("serve-mix: request {index} ({}) failed: {e}", p.spec);
                                let now = Instant::now();
                                let stamps = Stamps {
                                    start: t,
                                    connected: now,
                                    first_byte: now,
                                    end: now,
                                };
                                (false, String::new(), stamps)
                            }
                        };
                        out.push(Sample {
                            index,
                            hot: p.hot.is_some(),
                            ok,
                            stamps,
                            body: p.hot.is_none().then_some(body),
                        });
                    }
                    Ok::<_, String>(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }
    samples.sort_by_key(|s| s.stamps.end);
    let elapsed = samples
        .last()
        .map_or(0.0, |s| (s.stamps.end - t0).as_secs_f64());
    Ok((samples, elapsed))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latencies(samples: &[Sample], hot: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.hot == hot)
        .map(|s| ms(s.stamps.end - s.stamps.start))
        .collect()
}

/// Re-checks a seeded sample of cold bodies against in-process JSON;
/// returns the indices of samples that differ.
fn check_cold_sample(
    samples: &[Sample],
    plan: &[Planned],
    seed: u64,
    mut compute: impl FnMut(&str) -> Result<String, String>,
) -> Result<Vec<usize>, String> {
    let cold: Vec<&Sample> = samples.iter().filter(|s| s.body.is_some()).collect();
    let mut rng = SplitMix::new(seed ^ 0xC01D);
    let mut picked = BTreeMap::new();
    while picked.len() < COLD_SAMPLE.min(cold.len()) {
        let s = cold[rng.below(cold.len() as u64) as usize];
        picked.insert(s.index, s);
    }
    let mut bad = Vec::new();
    for (index, s) in picked {
        if s.body.as_deref() != Some(compute(&plan[index].spec)?.as_str()) {
            eprintln!(
                "serve-mix: cold body for {} differs from in-process JSON",
                plan[index].spec
            );
            bad.push(index);
        }
    }
    Ok(bad)
}

/// Final `/metrics` counters of the daemon.
fn metrics(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body, _) = request(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics -> {status}"));
    }
    Ok(body
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect())
}

/// Requests enough for any run: the loop never runs dry before time.
fn plan_len(seconds: f64) -> usize {
    (seconds.max(1.0) * 2000.0) as usize
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, out_dir: &std::path::Path) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (daemon, refs) = setup(out_dir)?;
        let plan = plan(seed, plan_len(seconds));
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            daemon.shutdown()?;
        } else {
            kept = Some((daemon, refs, plan));
        }
    }
    let (daemon, refs, plan) = kept.ok_or("no set-up ran")?;

    let (samples, elapsed) = closed_loop(daemon.addr, &plan, 0, &refs, seconds)?;
    let peak = daemon.peak_rss_mb()?;
    let stats = metrics(daemon.addr)?;
    daemon.shutdown()?;
    let bad = check_cold_sample(&samples, &plan, seed, in_process_json)?;

    let failed = samples
        .iter()
        .filter(|s| !s.ok || bad.contains(&s.index))
        .count() as u64;
    let ends: Vec<Instant> = samples.iter().map(|s| s.stamps.end).collect();
    let start = samples.first().map(|s| s.stamps.start);
    let pass_s: Vec<f64> = (0..ends.len() / PASS_REQUESTS)
        .map(|k| {
            let end = ends[(k + 1) * PASS_REQUESTS - 1];
            let begin = if k == 0 {
                start.unwrap_or(end)
            } else {
                ends[k * PASS_REQUESTS - 1]
            };
            (end - begin).as_secs_f64()
        })
        .collect();
    let (hit, miss) = (latencies(&samples, true), latencies(&samples, false));
    let ok200 = samples.iter().filter(|s| s.ok).count() as f64;
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    let metrics = BTreeMap::from([
        ("setup_s", median(&setups).unwrap_or(0.0)),
        (
            "wall_s",
            median(&pass_s).ok_or("fewer requests than one pass")?,
        ),
        ("peak_rss_mb", peak),
        ("rps", ok200 / elapsed.max(1e-9)),
    ]);
    let details = Value::object([
        ("requests", samples.len().to_json()),
        ("hot_requests", hit.len().to_json()),
        ("cold_requests", miss.len().to_json()),
        ("passes", pass_s.len().to_json()),
        ("pass_requests", PASS_REQUESTS.to_json()),
        ("cold_sample_checked", COLD_SAMPLE.min(miss.len()).to_json()),
        (
            "cache_evictions",
            stats
                .get("cache_evictions")
                .copied()
                .unwrap_or(0.0)
                .to_json(),
        ),
        ("setups_s", setups.to_json()),
        ("hit_p50_ms", q(&hit, 0.50).to_json()),
        ("hit_p99_ms", q(&hit, 0.99).to_json()),
        ("miss_p50_ms", q(&miss, 0.50).to_json()),
        ("miss_p90_ms", q(&miss, 0.90).to_json()),
    ]);
    Ok(RunResult {
        attempted: samples.len() as u64,
        failed,
        metrics,
        details,
    })
}

/// The traced run: a closed-loop phase whose client timestamps become
/// spans, then `Service::handle` in-process on the same request mix.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
    tr: &mut Tracer,
) -> Result<RunResult, String> {
    let half = (seconds / 2.0).max(0.5);
    let (daemon, refs) = setup(out_dir)?;
    let plan = plan(seed, plan_len(seconds));

    let (traced, _) = closed_loop(daemon.addr, &plan, 0, &refs, half)?;
    let (first, last) = match (traced.first(), traced.last()) {
        (Some(a), Some(b)) => (a.stamps.start, b.stamps.end),
        _ => return Err("the traced phase sent no request".to_string()),
    };
    let root = tr.record("perfbench.http", first, last, None);
    for s in &traced {
        tr.set_job(s.index as u64);
        let st = s.stamps;
        let req = tr.record("serve.request", st.start, st.end, Some(root));
        tr.record("serve.connect", st.start, st.connected, Some(req));
        tr.record("serve.wait", st.connected, st.first_byte, Some(req));
        tr.record("serve.recv", st.first_byte, st.end, Some(req));
    }
    let stats = metrics(daemon.addr)?;
    daemon.shutdown()?;

    // `Service::handle` in-process on the same mix: warm the hot set,
    // then replay as many requests as the traced phase sent.
    let service = dmc_serve::Service::new(server_config(false).service);
    let handle = |spec: &str| {
        service.handle(&dmc_serve::http::Request {
            method: "POST".to_string(),
            path: "/analyze".to_string(),
            query: Vec::new(),
            body: spec.to_string(),
        })
    };
    for spec in HOT {
        handle(spec);
    }
    let replay = tr.enter("perfbench.service");
    let t0 = Instant::now();
    let mut service_failed = 0u64;
    let mut replayed = 0usize;
    for (i, p) in plan.iter().enumerate().take(traced.len().max(1)) {
        if t0.elapsed().as_secs_f64() > half {
            break;
        }
        tr.set_job(i as u64);
        let name = if p.hot.is_some() {
            "serve.service.hit"
        } else {
            "serve.service.miss"
        };
        let reply = tr.leaf(name, || handle(&p.spec));
        replayed += 1;
        let ok = reply.status == 200 && p.hot.is_none_or(|h| *reply.body == refs[h]);
        service_failed += u64::from(!ok);
    }
    tr.exit(replay);

    // The seeded cold-body check, through the entry's own calls so the
    // JSON render is timed on serve-mix misses.
    let check = tr.enter("perfbench.cold_check");
    let bad = check_cold_sample(&traced, &plan, seed, |spec| {
        let parsed = dmc_kernels::catalog::Registry::shared()
            .parse(spec)
            .map_err(|e| format!("{spec}: {e}"))?;
        let analyzer = dmc_core::Analyzer::new(dmc_core::AnalyzerConfig {
            sram: crate::analysis::ANALYZE_SRAM,
            threads: DAEMON_THREADS,
            verdicts: true,
            ..dmc_core::AnalyzerConfig::default()
        });
        let report = tr.leaf("core.analyze", || analyzer.analyze_kernel(&parsed));
        let mut json = tr.leaf("core.serialize", || serde::json::to_string(&report));
        json.push('\n');
        tr.count("core.serialize.bytes", json.len() as f64);
        Ok(json)
    })?;
    tr.exit(check);

    let per_call = |name: &str, scale: f64| -> f64 {
        let v: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * scale)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let hot_traced: Vec<&Sample> = traced.iter().filter(|s| s.hot).collect();
    let med = |f: &dyn Fn(&Stamps) -> Duration| -> f64 {
        median(
            &hot_traced
                .iter()
                .map(|s| ms(f(&s.stamps)))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let hit_p50 = med(&|st| st.end - st.start);
    let (hit, miss) = (latencies(&traced, true), latencies(&traced, false));
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    let hit_us = per_call("serve.service.hit", 1e6);
    // The client spans are recorded after the phase, so the tracer's own
    // cost lands on the replay; priced per pass of `PASS_REQUESTS`.
    let own_s = tr.own_cost_s();
    let stat = |k: &str| stats.get(k).copied().unwrap_or(0.0);
    let lookups = stat("cache_hits") + stat("cache_misses") + stat("cache_coalesced");
    let mut metrics = BTreeMap::from([
        ("serve.service.hit_us", hit_us),
        ("serve.service.miss_ms", per_call("serve.service.miss", 1e3)),
        ("serve.connect_ms", med(&|st| st.connected - st.start)),
        ("serve.ttfb_ms", med(&|st| st.first_byte - st.start)),
        ("serve.transport_ms", hit_p50 - hit_us / 1e3),
        ("serve.hit_p50_ms", hit_p50),
        ("serve.hit_p99_ms", q(&hit, 0.99)),
        ("serve.miss_p50_ms", q(&miss, 0.50)),
        ("serve.miss_p90_ms", q(&miss, 0.90)),
        (
            "serve.cache.hit_rate",
            if lookups > 0.0 {
                stat("cache_hits") / lookups
            } else {
                0.0
            },
        ),
        ("serve.cache.evictions", stat("cache_evictions")),
        ("serve.cache.coalesced", stat("cache_coalesced")),
        ("serve.analyses_performed", stat("analyses_performed")),
        ("serve.errors_total", stat("errors_total")),
        (
            "trace.overhead_ms",
            own_s * PASS_REQUESTS as f64 / replayed.max(1) as f64 * 1e3,
        ),
    ]);
    crate::add_span_metrics(&mut metrics, tr, &[&[root, replay, check]]);
    let failed = traced
        .iter()
        .filter(|s| !s.ok || bad.contains(&s.index))
        .count() as u64
        + service_failed;
    let details = Value::object([
        ("hit_p50_ms", hit_p50.to_json()),
        ("service_replayed", replayed.to_json()),
        ("http_requests", traced.len().to_json()),
        ("tracer_own_s", own_s.to_json()),
    ]);
    Ok(RunResult {
        attempted: (traced.len() + replayed) as u64,
        failed,
        metrics,
        details,
    })
}
