//! Request routing and the analysis compute paths.
//!
//! The service is deliberately a thin shim over the same library calls
//! the `repro` CLI makes: `POST /analyze` runs exactly the pipeline of
//! `repro analyze --kernel <spec> --format json` (same
//! [`AnalyzerConfig`], same
//! `serde::json::to_string(&report)` + trailing newline), so a cached
//! HTTP body is byte-for-byte the CLI's stdout. The equivalence is
//! pinned by a test in `crates/bench/tests` (which can see both crates).
//!
//! Every response is computed through the [`ResultCache`]: the cache key
//! is the *canonical* input — [`KernelSpec::render`](dmc_kernels::catalog::KernelSpec::render) for specs, the
//! FNV-1a [`content_hash`](dmc_cdag::Cdag::content_hash) of the
//! canonical text for uploaded graphs — plus the options that change the
//! report. `threads` is deliberately **excluded** from keys: the repo's
//! determinism contract (lint rule D2, `docs/DETERMINISM.md`) makes
//! every report bit-identical at any worker count, so thread count is a
//! wall-clock knob, not an input.

use crate::cache::{CacheConfig, Outcome, ResultCache};
use crate::http::Request;
use dmc_core::pipeline::{Analyzer, AnalyzerConfig, HierarchicalOptions};
use dmc_kernels::catalog::{Registry, SpecError, DEFAULT_MAX_BUILD_VERTICES};
use dmc_sim::CachePolicy;
use std::sync::atomic::{AtomicU64, Ordering};

/// Knobs of the compute layer (the server adds socket/pool knobs on top).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Build-admission limit: requests whose graph would exceed this
    /// many vertices get HTTP 413 before anything is built
    /// (`--max-vertices`).
    pub max_vertices: u64,
    /// Worker threads handed to the analysis pipeline per request
    /// (`--threads`; `0` = `std::thread::available_parallelism`). A
    /// per-request `threads` query parameter overrides it. Never part
    /// of a cache key — reports are thread-invariant by contract.
    pub threads: usize,
    /// Result-cache caps (`--cache-entries` / `--cache-bytes`).
    pub cache: CacheConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_vertices: DEFAULT_MAX_BUILD_VERTICES,
            threads: 0,
            cache: CacheConfig::default(),
        }
    }
}

/// A fully-formed response, ready for
/// [`write_response`](crate::http::write_response).
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The fixed reason phrase for `status`.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body. `Arc` so cache hits never copy the report.
    pub body: std::sync::Arc<String>,
    /// How the cache served this (analysis endpoints only).
    pub outcome: Option<Outcome>,
    /// Set by `POST /shutdown`: the server should drain and exit.
    pub shutdown: bool,
}

impl Reply {
    fn plain(status: u16, body: String) -> Reply {
        Reply {
            status,
            reason: reason_phrase(status),
            content_type: "text/plain; charset=utf-8",
            body: std::sync::Arc::new(body),
            outcome: None,
            shutdown: false,
        }
    }

    fn json(body: std::sync::Arc<String>, outcome: Outcome) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body,
            outcome: Some(outcome),
            shutdown: false,
        }
    }
}

/// The fixed reason phrase for each status the daemon emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// An error response in the making: status + loud plain-text body.
struct HttpError {
    status: u16,
    body: String,
}

impl HttpError {
    fn bad_request(body: String) -> HttpError {
        HttpError { status: 400, body }
    }
}

/// Request counters beyond the cache's own (all monotonic).
#[derive(Default)]
struct Counters {
    requests_total: AtomicU64,
    analyze_requests: AtomicU64,
    simulate_requests: AtomicU64,
    errors_total: AtomicU64,
    analyses_performed: AtomicU64,
}

/// The shared compute layer: routes requests, owns the result cache and
/// the counters. One instance serves all worker threads.
pub struct Service {
    config: ServiceConfig,
    cache: ResultCache,
    counters: Counters,
}

impl Service {
    /// A fresh service with an empty cache.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            cache: ResultCache::new(config.cache),
            config,
            counters: Counters::default(),
        }
    }

    /// Routes one parsed request to a response. Panics in the analysis
    /// pipeline are contained (500), so a poisoned request can never
    /// take a worker or wedge the cache's in-flight markers.
    pub fn handle(&self, req: &Request) -> Reply {
        self.counters.requests_total.fetch_add(1, Ordering::Relaxed);
        let reply = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/") => Reply::plain(200, index_page()),
            ("GET", "/healthz") => Reply::plain(200, "ok\n".to_string()),
            ("GET", "/catalog") => Reply::plain(200, Registry::shared().format_catalog()),
            ("GET", "/metrics") => Reply::plain(200, self.metrics_text()),
            ("POST", "/analyze") => {
                self.counters.analyze_requests.fetch_add(1, Ordering::Relaxed);
                self.cached(req, Endpoint::Analyze)
            }
            ("POST", "/simulate") => {
                self.counters
                    .simulate_requests
                    .fetch_add(1, Ordering::Relaxed);
                self.cached(req, Endpoint::Simulate)
            }
            ("POST", "/shutdown") => {
                let mut r = Reply::plain(200, "shutting down: draining in-flight requests\n".into());
                r.shutdown = true;
                r
            }
            (_, "/" | "/healthz" | "/catalog" | "/metrics" | "/analyze" | "/simulate"
            | "/shutdown") => Reply::plain(
                405,
                format!(
                    "method {} not allowed on {} (GET for reads, POST for /analyze, /simulate, /shutdown)\n",
                    req.method, req.path
                ),
            ),
            (_, path) => Reply::plain(
                404,
                format!("no route {path}; endpoints: GET / /healthz /catalog /metrics, POST /analyze /simulate /shutdown\n"),
            ),
        };
        if reply.status >= 400 {
            self.counters.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        reply
    }

    /// One analysis endpoint through the cache: build the canonical key,
    /// then `get_or_compute` with the panic-contained pipeline call.
    fn cached(&self, req: &Request, endpoint: Endpoint) -> Reply {
        let plan = match self.plan(req, endpoint) {
            Ok(p) => p,
            Err(e) => return Reply::plain(e.status, e.body),
        };
        let result = self.cache.get_or_compute(&plan.key, || {
            // A panicking analysis must not leak the in-flight marker
            // (waiters would block forever) or kill the worker, so it is
            // demoted to a plain 500 right here.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.counters
                    .analyses_performed
                    .fetch_add(1, Ordering::Relaxed);
                plan.run()
            }))
            .unwrap_or_else(|_| {
                Err(HttpError {
                    status: 500,
                    body: "analysis panicked; see server log\n".to_string(),
                })
            })
        });
        match result {
            Ok((body, outcome)) => Reply::json(body, outcome),
            Err(e) => Reply::plain(e.status, e.body),
        }
    }

    /// The `/metrics` body: stable `name value` lines, one per counter.
    pub fn metrics_text(&self) -> String {
        let c = &self.counters;
        let s = self.cache.stats();
        format!(
            "requests_total {}\nanalyze_requests {}\nsimulate_requests {}\nerrors_total {}\nanalyses_performed {}\ncache_hits {}\ncache_misses {}\ncache_coalesced {}\ncache_evictions {}\ncache_entries {}\ncache_bytes {}\n",
            c.requests_total.load(Ordering::Relaxed),
            c.analyze_requests.load(Ordering::Relaxed),
            c.simulate_requests.load(Ordering::Relaxed),
            c.errors_total.load(Ordering::Relaxed),
            c.analyses_performed.load(Ordering::Relaxed),
            s.hits,
            s.misses,
            s.coalesced,
            s.evictions,
            s.entries,
            s.bytes,
        )
    }

    /// Parses query parameters + body into a validated compute plan (or
    /// the 400/413 that rejects it), without running anything yet.
    fn plan(&self, req: &Request, endpoint: Endpoint) -> Result<Plan, HttpError> {
        let threads = match req.query_param("threads") {
            Some(v) => v.parse().map_err(|_| {
                HttpError::bad_request(format!(
                    "query parameter threads={v:?} needs a non-negative integer\n"
                ))
            })?,
            None => self.config.threads,
        };
        if req.body.trim().is_empty() {
            return Err(HttpError::bad_request(format!(
                "{} needs a request body: a kernel spec string (see GET /catalog) or `.cdag` text\n",
                endpoint.path()
            )));
        }
        match endpoint {
            Endpoint::Analyze => self.plan_analyze(req, threads),
            Endpoint::Simulate => self.plan_simulate(req, threads),
        }
    }

    fn plan_analyze(&self, req: &Request, threads: usize) -> Result<Plan, HttpError> {
        let sram = match req.query_param("sram") {
            Some(v) => v.parse::<u64>().ok().filter(|&s| s >= 1).ok_or_else(|| {
                HttpError::bad_request(format!(
                    "query parameter sram={v:?} needs a positive integer word count\n"
                ))
            })?,
            None => 4,
        };
        let hierarchical = truthy_flag(req, "hierarchical")?;
        let clusters = match req.query_param("clusters") {
            Some(v) => Some(v.parse::<usize>().ok().filter(|&k| k >= 1).ok_or_else(|| {
                HttpError::bad_request(format!(
                    "query parameter clusters={v:?} needs a positive integer cluster count\n"
                ))
            })?),
            None => None,
        };
        if clusters.is_some() && !hierarchical {
            return Err(HttpError::bad_request(
                "query parameter clusters needs hierarchical=true\n".to_string(),
            ));
        }
        let clusters_key = clusters.map_or("auto".to_string(), |k| k.to_string());
        if looks_like_cdag_text(&req.body) {
            let g = dmc_cdag::textio::from_text(&req.body).map_err(|e| {
                HttpError::bad_request(format!("cannot parse request body as `.cdag` text: {e}\n"))
            })?;
            if g.num_vertices() as u64 > self.config.max_vertices {
                return Err(HttpError {
                    status: 413,
                    body: format!(
                        "graph has {} vertices, above the admission limit of {} (restart the daemon with a higher --max-vertices)\n",
                        g.num_vertices(),
                        self.config.max_vertices
                    ),
                });
            }
            let key = format!(
                "analyze cdag={:016x} sram={sram} hier={hierarchical} clusters={clusters_key}",
                g.content_hash()
            );
            Ok(Plan {
                key,
                kind: PlanKind::AnalyzeCdag {
                    g,
                    sram,
                    threads,
                    hierarchical,
                    clusters,
                },
            })
        } else {
            let spec = req.body.trim().to_string();
            let parsed = self.admit(&spec)?;
            let key = format!(
                "analyze spec={} sram={sram} hier={hierarchical} clusters={clusters_key}",
                parsed.render()
            );
            Ok(Plan {
                key,
                kind: PlanKind::AnalyzeSpec {
                    spec,
                    sram,
                    threads,
                    hierarchical,
                    clusters,
                },
            })
        }
    }

    fn plan_simulate(&self, req: &Request, threads: usize) -> Result<Plan, HttpError> {
        let policy = match req.query_param("policy") {
            Some("lru") => Some(CachePolicy::Lru),
            Some("opt") => Some(CachePolicy::Opt),
            Some("both") | None => None,
            Some(other) => {
                return Err(HttpError::bad_request(format!(
                    "query parameter policy={other:?} must be 'lru', 'opt', or 'both'\n"
                )))
            }
        };
        let sweep = match req.query_param("sram-sweep") {
            Some(raw) => {
                let parts: Vec<Option<u64>> = raw.split(':').map(|p| p.parse().ok()).collect();
                match parts.as_slice() {
                    [Some(lo), Some(hi), Some(step)] => Some((*lo, *hi, *step)),
                    _ => {
                        return Err(HttpError::bad_request(format!(
                            "query parameter sram-sweep={raw:?} needs lo:hi:step (three positive integers)\n"
                        )))
                    }
                }
            }
            None => None,
        };
        let spec = req.body.trim().to_string();
        let parsed = self.admit(&spec)?;
        let policy_key = match policy {
            Some(CachePolicy::Lru) => "lru",
            Some(CachePolicy::Opt) => "opt",
            None => "both",
        };
        if let Some(machine_arg) = req.query_param("machine") {
            // Machine-hierarchy simulation (`repro simulate --machine`).
            // Only catalog names resolve here — the daemon never reads
            // spec files off its own filesystem.
            if sweep.is_some() {
                return Err(HttpError::bad_request(
                    "query parameter sram-sweep does not apply with machine=...; use sram to set S1
"
                    .to_string(),
                ));
            }
            let machines = if machine_arg.eq_ignore_ascii_case("all")
                || machine_arg.eq_ignore_ascii_case("catalog")
            {
                dmc_machine::specs::machine_catalog()
            } else {
                match dmc_machine::specs::find_machine(machine_arg) {
                    Some(m) => vec![m],
                    None => {
                        return Err(HttpError::bad_request(format!(
                            "query parameter machine={machine_arg:?} is not a catalog entry ({}) — use a catalog name or 'all'
",
                            dmc_machine::specs::catalog_names().join(", ")
                        )))
                    }
                }
            };
            let s1 = match req.query_param("sram") {
                Some(v) => v.parse::<u64>().ok().filter(|&s| s >= 1).ok_or_else(|| {
                    HttpError::bad_request(format!(
                        "query parameter sram={v:?} needs a positive integer word count (the per-core S1)
"
                    ))
                })?,
                // Mirrors `dmc_bench::DEFAULT_MACHINE_S1`.
                None => 64,
            };
            let machine_key = machines
                .iter()
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>()
                .join(",");
            let key = format!(
                "simulate spec={} machine={machine_key} s1={s1} policy={policy_key}",
                parsed.render()
            );
            return Ok(Plan {
                key,
                kind: PlanKind::SimulateMachine {
                    spec,
                    machines,
                    s1,
                    policy,
                    threads,
                },
            });
        }
        let sweep_key = sweep.map_or("auto".to_string(), |(lo, hi, st)| format!("{lo}:{hi}:{st}"));
        let key = format!(
            "simulate spec={} policy={policy_key} sweep={sweep_key}",
            parsed.render()
        );
        Ok(Plan {
            key,
            kind: PlanKind::Simulate {
                spec,
                sweep,
                policy,
                threads,
            },
        })
    }

    /// Catalog admission: parse under the configured vertex ceiling,
    /// mapping "too big" to 413 and everything else to 400 — both with
    /// the catalog's own loud message.
    fn admit(&self, spec: &str) -> Result<dmc_kernels::catalog::KernelSpec<'static>, HttpError> {
        Registry::shared()
            .parse_within(spec, self.config.max_vertices)
            .map_err(|e| {
                let status = match e {
                    SpecError::TooLarge { .. } => 413,
                    _ => 400,
                };
                HttpError {
                    status,
                    body: format!("{e}\n(run `repro list` for the catalog)\n"),
                }
            })
    }
}

/// Which analysis endpoint a plan belongs to.
#[derive(Clone, Copy)]
enum Endpoint {
    Analyze,
    Simulate,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Analyze => "POST /analyze",
            Endpoint::Simulate => "POST /simulate",
        }
    }
}

/// A validated compute plan: the cache key plus everything `run` needs.
struct Plan {
    key: String,
    kind: PlanKind,
}

enum PlanKind {
    AnalyzeSpec {
        spec: String,
        sram: u64,
        threads: usize,
        hierarchical: bool,
        clusters: Option<usize>,
    },
    AnalyzeCdag {
        g: dmc_cdag::Cdag,
        sram: u64,
        threads: usize,
        hierarchical: bool,
        clusters: Option<usize>,
    },
    Simulate {
        spec: String,
        sweep: Option<(u64, u64, u64)>,
        policy: Option<CachePolicy>,
        threads: usize,
    },
    SimulateMachine {
        spec: String,
        machines: Vec<dmc_machine::MachineSpec>,
        s1: u64,
        policy: Option<CachePolicy>,
        threads: usize,
    },
}

impl Plan {
    /// Runs the pipeline. These paths mirror the `repro` CLI backends
    /// line for line (same analyzer config, same JSON render, same
    /// trailing newline) — that is the byte-identity contract.
    fn run(&self) -> Result<String, HttpError> {
        match &self.kind {
            PlanKind::AnalyzeSpec {
                spec,
                sram,
                threads,
                hierarchical,
                clusters,
            } => {
                // Mirrors `dmc_bench::analyze_kernel_spec_with` (Json).
                let parsed = Registry::shared()
                    .parse_within(spec, u64::MAX)
                    .map_err(|e| HttpError::bad_request(format!("{e}\n")))?;
                let analyzer = Analyzer::new(AnalyzerConfig {
                    sram: *sram,
                    threads: *threads,
                    verdicts: true,
                });
                let report = if *hierarchical {
                    let hopts = HierarchicalOptions {
                        clusters: *clusters,
                        ..HierarchicalOptions::default()
                    };
                    analyzer.analyze_kernel_hierarchical(&parsed, &hopts)
                } else {
                    analyzer.analyze_kernel(&parsed)
                };
                let mut json = serde::json::to_string(&report);
                json.push('\n');
                Ok(json)
            }
            PlanKind::AnalyzeCdag {
                g,
                sram,
                threads,
                hierarchical,
                clusters,
            } => {
                // Mirrors `dmc_bench::analyze_file_with` (Json), minus
                // the filesystem read (the body is the file).
                let analyzer = Analyzer::new(AnalyzerConfig {
                    sram: *sram,
                    threads: *threads,
                    verdicts: true,
                });
                let report = if *hierarchical {
                    let hopts = HierarchicalOptions {
                        clusters: *clusters,
                        ..HierarchicalOptions::default()
                    };
                    analyzer.analyze_hierarchical(g, &hopts)
                } else {
                    analyzer.analyze(g)
                };
                let mut json = serde::json::to_string(&report);
                json.push('\n');
                Ok(json)
            }
            PlanKind::Simulate {
                spec,
                sweep,
                policy,
                threads,
            } => {
                // Mirrors `dmc_bench::simulate_kernel_spec` (Json),
                // including the sweep validation messages.
                let parsed = Registry::shared()
                    .parse(spec)
                    .map_err(|e| HttpError::bad_request(format!("{e}\n")))?;
                let g = parsed.build();
                let srams: Vec<u64> = match sweep {
                    Some((lo, hi, step)) => {
                        if *lo == 0 || *step == 0 || hi < lo {
                            return Err(HttpError::bad_request(
                                "sram-sweep needs lo:hi:step with 1 <= lo <= hi and step >= 1\n"
                                    .to_string(),
                            ));
                        }
                        let points = (hi - lo) / step + 1;
                        if points > 256 {
                            return Err(HttpError::bad_request(format!(
                                "sram-sweep spans {points} points (limit 256); widen the step\n"
                            )));
                        }
                        (*lo..=*hi).step_by(*step as usize).collect()
                    }
                    None => {
                        let required = dmc_sim::simulation::min_feasible_capacity(&g) as u64;
                        vec![required, 2 * required, 4 * required]
                    }
                };
                let analyzer = Analyzer::new(AnalyzerConfig {
                    threads: *threads,
                    ..AnalyzerConfig::default()
                });
                let report = analyzer.validate_built(&parsed, &g, &srams, *policy);
                let mut json = serde::json::to_string(&report);
                json.push('\n');
                Ok(json)
            }
            PlanKind::SimulateMachine {
                spec,
                machines,
                s1,
                policy,
                threads,
            } => {
                // Mirrors `dmc_bench::simulate_machine` (Json): one
                // machine renders the bare report, several wrap in a
                // `{"reports": [...]}` envelope, machines in sweep order.
                use serde::Serialize;
                let analyzer = Analyzer::new(AnalyzerConfig {
                    threads: *threads,
                    ..AnalyzerConfig::default()
                });
                let mut reports = Vec::new();
                for machine in machines {
                    let r = analyzer
                        .validate_machine_spec(spec, machine, *s1, *policy)
                        .map_err(|e| HttpError::bad_request(format!("{e}\n")))?;
                    reports.push(r);
                }
                let mut json = if reports.len() == 1 {
                    serde::json::to_string(&reports[0])
                } else {
                    serde::json::to_string(&serde::json::Value::object([(
                        "reports",
                        reports.to_json(),
                    )]))
                };
                json.push('\n');
                Ok(json)
            }
        }
    }
}

/// `hierarchical=...`-style boolean query flags: presence alone or an
/// explicit true/1 is on, false/0 is off, anything else is a loud 400.
fn truthy_flag(req: &Request, name: &str) -> Result<bool, HttpError> {
    match req.query_param(name) {
        None => Ok(false),
        Some("" | "true" | "1") => Ok(true),
        Some("false" | "0") => Ok(false),
        Some(other) => Err(HttpError::bad_request(format!(
            "query parameter {name}={other:?} must be true/1 or false/0\n"
        ))),
    }
}

/// Does the body look like `.cdag` text (vs a one-line kernel spec)?
/// The text format always carries a `cdag N` header line, possibly after
/// comments; a catalog spec never contains one.
fn looks_like_cdag_text(body: &str) -> bool {
    body.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .is_some_and(|l| l.starts_with("cdag "))
}

/// The `GET /` index: a one-screen map of the API.
fn index_page() -> String {
    "dmc-serve: bounds-as-a-service over the dmc analysis pipeline\n\
     \n\
     GET  /          this page\n\
     GET  /healthz   liveness probe (\"ok\")\n\
     GET  /catalog   the kernel-spec catalog (same as `repro list`)\n\
     GET  /metrics   request + cache counters, one `name value` per line\n\
     POST /analyze   body: kernel spec (e.g. jacobi(n=64,d=2,t=8)) or `.cdag` text\n\
     \x20               query: sram=S threads=N hierarchical[=true] clusters=K\n\
     \x20               -> the certified-bound report as JSON, byte-identical to\n\
     \x20                  `repro analyze --kernel <spec> --format json`\n\
     POST /simulate  body: kernel spec\n\
     \x20               query: sram-sweep=lo:hi:step policy=lru|opt|both threads=N\n\
     \x20               -> the validation-sandwich report as JSON\n\
     \x20               query: machine=<catalog name|all> [sram=S1]\n\
     \x20               -> the machine-hierarchy roofline report as JSON,\n\
     \x20                  byte-identical to `repro simulate --machine ...\n\
     \x20                  --kernel <spec> --format json`\n\
     POST /shutdown  drain in-flight requests and exit\n\
     \n\
     Results are cached by canonical content (spec render / graph hash);\n\
     identical requests are answered from the cache, concurrent duplicates\n\
     share one in-flight analysis.\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.to_string(),
        }
    }

    fn service() -> Service {
        Service::new(ServiceConfig::default())
    }

    #[test]
    fn health_catalog_and_index_routes() {
        let s = service();
        assert_eq!(*s.handle(&req("GET", "/healthz", &[], "")).body, "ok\n");
        let cat = s.handle(&req("GET", "/catalog", &[], ""));
        assert_eq!(cat.status, 200);
        assert!(cat.body.contains("jacobi("), "{}", cat.body);
        let idx = s.handle(&req("GET", "/", &[], ""));
        assert!(idx.body.contains("/analyze"));
    }

    #[test]
    fn unknown_route_404_and_wrong_method_405() {
        let s = service();
        assert_eq!(s.handle(&req("GET", "/nope", &[], "")).status, 404);
        assert_eq!(s.handle(&req("POST", "/healthz", &[], "x")).status, 405);
        assert_eq!(s.handle(&req("GET", "/analyze", &[], "")).status, 405);
    }

    #[test]
    fn analyze_caches_by_canonical_spec() {
        let s = service();
        // Same kernel, different spelling (whitespace + defaulted param
        // order is normalized by the catalog render).
        let a = s.handle(&req("POST", "/analyze", &[], "diamond"));
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(a.outcome, Some(Outcome::Miss));
        let b = s.handle(&req("POST", "/analyze", &[], " diamond "));
        assert_eq!(b.outcome, Some(Outcome::Hit));
        assert_eq!(a.body, b.body);
        assert!(a.body.ends_with('\n'));
    }

    #[test]
    fn analyze_distinguishes_options_in_the_key() {
        let s = service();
        let a = s.handle(&req("POST", "/analyze", &[], "diamond"));
        let b = s.handle(&req("POST", "/analyze", &[("sram", "8")], "diamond"));
        assert_eq!(b.outcome, Some(Outcome::Miss), "different sram, new key");
        assert_ne!(a.body, b.body);
        // threads must NOT change the key (reports are thread-invariant).
        let c = s.handle(&req("POST", "/analyze", &[("threads", "2")], "diamond"));
        assert_eq!(c.outcome, Some(Outcome::Hit));
        assert_eq!(a.body, c.body);
    }

    #[test]
    fn analyze_accepts_cdag_text_bodies() {
        let s = service();
        let text = "cdag 3\nv 0 in \"a\"\nv 1 op \"b\"\nv 2 out \"c\"\ne 0 1\ne 1 2\n";
        let a = s.handle(&req("POST", "/analyze", &[], text));
        assert_eq!(a.status, 200, "{}", a.body);
        // Same graph, different comment/whitespace spelling: same key.
        let noisy = format!("# hello\n\n{text}");
        let b = s.handle(&req("POST", "/analyze", &[], &noisy));
        assert_eq!(b.outcome, Some(Outcome::Hit));
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn bad_spec_is_400_naming_the_catalog() {
        let s = service();
        let r = s.handle(&req("POST", "/analyze", &[], "warp_drive(n=4)"));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("repro list"), "{}", r.body);
    }

    #[test]
    fn oversized_spec_is_413_naming_the_limit() {
        let s = service();
        let r = s.handle(&req(
            "POST",
            "/analyze",
            &[],
            "random(layers=1000,width=65536,deg=3,seed=7)",
        ));
        assert_eq!(r.status, 413, "{}", r.body);
        assert!(r.body.contains("--max-vertices"), "{}", r.body);
    }

    #[test]
    fn simulate_runs_and_caches() {
        let s = service();
        let a = s.handle(&req("POST", "/simulate", &[], "matmul(n=3)"));
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(a.outcome, Some(Outcome::Miss));
        let b = s.handle(&req(
            "POST",
            "/simulate",
            &[("policy", "both")],
            "matmul(n=3)",
        ));
        assert_eq!(b.outcome, Some(Outcome::Hit), "explicit 'both' = default");
        let c = s.handle(&req(
            "POST",
            "/simulate",
            &[("policy", "lru")],
            "matmul(n=3)",
        ));
        assert_eq!(c.outcome, Some(Outcome::Miss));
    }

    #[test]
    fn simulate_rejects_bad_sweeps_loudly() {
        let s = service();
        let r = s.handle(&req(
            "POST",
            "/simulate",
            &[("sram-sweep", "8:4:1")],
            "fft(n=8)",
        ));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("lo:hi:step"), "{}", r.body);
        let r = s.handle(&req(
            "POST",
            "/simulate",
            &[("sram-sweep", "1:10000:1")],
            "fft(n=8)",
        ));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("limit 256"), "{}", r.body);
    }

    #[test]
    fn simulate_machine_runs_and_caches() {
        let s = service();
        let a = s.handle(&req(
            "POST",
            "/simulate",
            &[("machine", "IBM BG/Q")],
            "fft(n=8)",
        ));
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(a.outcome, Some(Outcome::Miss));
        assert!(a.body.contains("\"machine\":\"IBM BG/Q\""), "{}", a.body);
        assert!(a.body.ends_with('\n'));
        // Case-insensitive catalog lookup and an explicit default S1 land
        // on the same cache entry.
        let b = s.handle(&req(
            "POST",
            "/simulate",
            &[("machine", "ibm bg/q"), ("sram", "64")],
            "fft(n=8)",
        ));
        assert_eq!(b.outcome, Some(Outcome::Hit));
        assert_eq!(a.body, b.body);
        // threads must NOT change the key (reports are thread-invariant).
        let c = s.handle(&req(
            "POST",
            "/simulate",
            &[("machine", "IBM BG/Q"), ("threads", "2")],
            "fft(n=8)",
        ));
        assert_eq!(c.outcome, Some(Outcome::Hit));
        assert_eq!(a.body, c.body);
        // A different S1 is a different key.
        let d = s.handle(&req(
            "POST",
            "/simulate",
            &[("machine", "IBM BG/Q"), ("sram", "8")],
            "fft(n=8)",
        ));
        assert_eq!(d.outcome, Some(Outcome::Miss));
        assert_ne!(a.body, d.body);
    }

    #[test]
    fn simulate_machine_all_wraps_reports() {
        let s = service();
        let r = s.handle(&req("POST", "/simulate", &[("machine", "all")], "fft(n=8)"));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.starts_with("{\"reports\":["), "{}", r.body);
        assert!(r.body.contains("Cray XT5"), "{}", r.body);
        assert!(r.body.contains("K computer"), "{}", r.body);
    }

    #[test]
    fn simulate_machine_rejects_bad_inputs_loudly() {
        let s = service();
        let r = s.handle(&req(
            "POST",
            "/simulate",
            &[("machine", "bogus")],
            "fft(n=8)",
        ));
        assert_eq!(r.status, 400);
        assert!(
            r.body.contains("IBM BG/Q, Cray XT5, K computer"),
            "{}",
            r.body
        );
        let r = s.handle(&req(
            "POST",
            "/simulate",
            &[("machine", "IBM BG/Q"), ("sram-sweep", "4:16:4")],
            "fft(n=8)",
        ));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("sram-sweep"), "{}", r.body);
        let r = s.handle(&req(
            "POST",
            "/simulate",
            &[("machine", "IBM BG/Q"), ("sram", "0")],
            "fft(n=8)",
        ));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("positive integer"), "{}", r.body);
    }

    #[test]
    fn metrics_track_the_traffic() {
        let s = service();
        s.handle(&req("POST", "/analyze", &[], "diamond"));
        s.handle(&req("POST", "/analyze", &[], "diamond"));
        s.handle(&req("POST", "/analyze", &[], "nonsense!!"));
        let m = s.metrics_text();
        assert!(m.contains("analyze_requests 3"), "{m}");
        assert!(m.contains("cache_hits 1"), "{m}");
        assert!(m.contains("cache_misses 1"), "{m}");
        assert!(m.contains("errors_total 1"), "{m}");
        assert!(m.contains("analyses_performed 1"), "{m}");
    }

    #[test]
    fn shutdown_flag_is_set() {
        let s = service();
        let r = s.handle(&req("POST", "/shutdown", &[], ""));
        assert_eq!(r.status, 200);
        assert!(r.shutdown);
    }
}
