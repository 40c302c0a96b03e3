//! Request routing and admission in front of the shared job path.
//!
//! `POST /analyze` and `POST /simulate` parse their query parameters,
//! reject any name outside [`JobOption::ALL`] and `threads` and every
//! option the job does not take ([`JobKind::takes`]), admit the
//! body (a catalog spec under `--max-vertices`, or `.cdag` text) and
//! build a [`Job`], which checks every value — all before anything is
//! built or cached. On a miss the cache runs the admitted job and stores
//! its JSON line, so a cached body is byte-for-byte the `--format json`
//! stdout of `repro`, which runs the same [`dmc_core::job`] path (pinned
//! by a test in `crates/bench/tests`, which sees both crates).
//!
//! The cache key is the job's canonical form: the *canonical* input —
//! [`KernelSpec::render`](dmc_kernels::catalog::KernelSpec::render) for specs, the
//! FNV-1a [`content_hash`](dmc_cdag::Cdag::content_hash) of the
//! canonical text for uploaded graphs — plus every resolved option that
//! changes the report. `threads` is deliberately **excluded** from keys:
//! the repo's determinism contract (DESIGN.md, "Determinism contract")
//! makes every report bit-identical at any worker count, so thread count
//! is a wall-clock knob, not an input.

use crate::cache::{CacheConfig, Outcome, ResultCache};
use crate::http::Request;
use dmc_core::job::{catalog_machines, parse_sweep, Input, Job, JobError, JobKind, JobOption};
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
                self.cached(req)
            }
            ("POST", "/simulate") => {
                self.counters
                    .simulate_requests
                    .fetch_add(1, Ordering::Relaxed);
                self.cached(req)
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

    /// One analysis endpoint through the cache: build the job and its
    /// key, then `get_or_compute` with the panic-contained job run.
    fn cached(&self, req: &Request) -> Reply {
        // A misspelled option must not silently yield another report.
        let known =
            |name: &str| name == "threads" || JobOption::ALL.iter().any(|o| o.name() == name);
        if let Some((name, _)) = req.query.iter().find(|(name, _)| !known(name)) {
            let accepted: Vec<&str> = JobOption::ALL.iter().map(|o| o.name()).collect();
            return Reply::plain(
                400,
                format!(
                    "unknown query parameter {name:?}; accepted: {}, threads\n",
                    accepted.join(", ")
                ),
            );
        }
        let threads = match req.query_param("threads") {
            Some(v) => match v.parse() {
                Ok(t) => t,
                Err(_) => {
                    return Reply::plain(
                        400,
                        format!("query parameter threads={v:?} needs a non-negative integer\n"),
                    )
                }
            },
            None => self.config.threads,
        };
        let (key, job) = match self.job(req) {
            Ok(j) => j,
            Err(e) => return Reply::plain(e.status, e.body),
        };
        let result = self.cache.get_or_compute(&key, || {
            // A panicking analysis must not leak the in-flight marker
            // (waiters would block forever) or kill the worker, so it is
            // demoted to a plain 500 right here.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.counters
                    .analyses_performed
                    .fetch_add(1, Ordering::Relaxed);
                Ok(job.run(threads).to_json_line())
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

    /// Parses query parameters and body into a validated job plus its
    /// cache key (or the 400/413 that rejects them), without building or
    /// running anything yet.
    fn job(&self, req: &Request) -> Result<(String, Job), HttpError> {
        if req.body.trim().is_empty() {
            return Err(HttpError::bad_request(format!(
                "POST {} needs a request body: a kernel spec string (see GET /catalog) or `.cdag` text\n",
                req.path
            )));
        }
        let machine = req.query_param("machine");
        let kind = match (req.path.as_str(), machine) {
            ("/analyze", _) => JobKind::Analyze,
            (_, Some(_)) => JobKind::Machine,
            (_, None) => JobKind::Sweep,
        };
        let sram = positive(
            req,
            "sram",
            match kind {
                JobKind::Machine => "word count (the per-core S1)",
                _ => "word count",
            },
        )?;
        let hierarchical = truthy_flag(req, "hierarchical")?;
        let clusters = positive(req, "clusters", "cluster count")?;
        let sweep = req
            .query_param("sram-sweep")
            .map(|raw| {
                parse_sweep(raw).ok_or_else(|| {
                    HttpError::bad_request(format!(
                        "query parameter sram-sweep={raw:?} needs lo:hi:step (three positive integers)\n"
                    ))
                })
            })
            .transpose()?;
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
        // Any parameter the job does not take is an error, whatever its
        // value (`policy=both` on /analyze included).
        if let Some(option) = JobOption::ALL
            .into_iter()
            .find(|&o| req.query_param(o.name()).is_some() && !kind.takes(o, hierarchical))
        {
            return Err(job_error(JobError::does_not_apply(option, kind)));
        }
        let hierarchical = hierarchical.then_some(clusters);
        let job = if kind == JobKind::Analyze && looks_like_cdag_text(&req.body) {
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
            Job::analyze(Input::Graph(g), sram, hierarchical)
        } else {
            let spec = self.admit(req.body.trim())?;
            match (kind, machine) {
                (JobKind::Analyze, _) => Job::analyze(Input::Spec(spec), sram, hierarchical),
                // Only catalog names resolve here — the daemon never reads
                // spec files off its own filesystem.
                (_, Some(name)) => {
                    let machines = catalog_machines(name).ok_or_else(|| {
                        HttpError::bad_request(format!(
                            "query parameter machine={name:?} is not a catalog entry ({}) — use a catalog name or 'all'\n",
                            dmc_machine::specs::catalog_names().join(", ")
                        ))
                    })?;
                    Job::machine(vec![spec], machines, sram, policy)
                }
                (_, None) => Job::sweep(spec, sweep, policy),
            }
        }
        .map_err(job_error)?;
        // The job's canonical form names the input and every resolved
        // value that changes the report, and never `threads`.
        Ok((job.to_string(), job))
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

/// A rejected job as a 400 naming the query parameter.
fn job_error(e: JobError) -> HttpError {
    HttpError::bad_request(format!("query parameter {e}\n"))
}

/// An optional positive-integer query parameter.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    req: &Request,
    name: &str,
    what: &str,
) -> Result<Option<T>, HttpError> {
    match req.query_param(name) {
        Some(v) => match v.parse::<T>() {
            Ok(n) if n >= T::from(1) => Ok(Some(n)),
            _ => Err(HttpError::bad_request(format!(
                "query parameter {name}={v:?} needs a positive integer {what}\n"
            ))),
        },
        None => Ok(None),
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
     A query parameter a job does not take, or one not listed here, is a\n\
     400 naming it. Results are cached by canonical content (spec render /\n\
     graph hash); identical requests are answered from the cache, concurrent\n\
     duplicates share one in-flight analysis.\n"
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
    fn an_admitted_spec_is_not_parsed_again_at_the_default_limit() {
        // 2^25 vertices: above the catalog's default 2^24 limit, within
        // this daemon's. The sweep rule must answer, not a second
        // admission, and nothing may be built.
        let s = Service::new(ServiceConfig {
            max_vertices: 1 << 26,
            ..ServiceConfig::default()
        });
        let r = s.handle(&req(
            "POST",
            "/simulate",
            &[("sram-sweep", "8:4:1")],
            "random(layers=512,width=65536,deg=3,seed=7)",
        ));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("lo:hi:step"), "{}", r.body);
        assert!(s.metrics_text().contains("analyses_performed 0"));
    }

    #[test]
    fn bad_sweeps_never_reach_the_cache() {
        let s = service();
        for sweep in ["8:4:1", "1:10000:1"] {
            let r = s.handle(&req(
                "POST",
                "/simulate",
                &[("sram-sweep", sweep)],
                "fft(n=8)",
            ));
            assert_eq!(r.status, 400, "{sweep}: {}", r.body);
        }
        let m = s.metrics_text();
        assert!(m.contains("analyses_performed 0"), "{m}");
        assert!(m.contains("cache_misses 0"), "{m}");
    }

    #[test]
    fn parameters_the_job_does_not_take_are_400s_naming_them() {
        let s = service();
        for (path, query, named) in [
            ("/simulate", &[("sram", "8")][..], "sram does not apply"),
            (
                "/simulate",
                &[("hierarchical", "true")][..],
                "hierarchical does not apply",
            ),
            (
                "/analyze",
                &[
                    ("policy", "lru"),
                    ("sram-sweep", "4:8:4"),
                    ("machine", "bogus"),
                ][..],
                "sram-sweep does not apply",
            ),
            (
                "/analyze",
                &[("policy", "both")][..],
                "policy does not apply",
            ),
            (
                "/analyze",
                &[("machine", "IBM BG/Q")][..],
                "machine does not apply",
            ),
            (
                "/analyze",
                &[("clusters", "3")][..],
                "clusters needs hierarchical",
            ),
        ] {
            let r = s.handle(&req("POST", path, query, "fft(n=8)"));
            assert_eq!(r.status, 400, "{path} {query:?}: {}", r.body);
            assert!(r.body.contains(named), "{path} {query:?}: {}", r.body);
        }
        let m = s.metrics_text();
        assert!(m.contains("cache_hits 0"), "{m}");
        assert!(m.contains("cache_misses 0"), "{m}");
    }

    #[test]
    fn unknown_query_parameters_are_400s_before_the_cache() {
        let s = service();
        let r = s.handle(&req(
            "POST",
            "/simulate",
            &[("sram_sweep", "8:4:1")],
            "fft(n=8)",
        ));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("\"sram_sweep\""), "{}", r.body);
        assert!(r.body.contains("sram-sweep"), "{}", r.body);
        assert!(r.body.contains("threads"), "{}", r.body);
        let r = s.handle(&req(
            "POST",
            "/analyze",
            &[("sram", "8"), ("verbose", "1")],
            "fft(n=8)",
        ));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("\"verbose\""), "{}", r.body);
        let m = s.metrics_text();
        assert!(m.contains("analyses_performed 0"), "{m}");
        assert!(m.contains("cache_misses 0"), "{m}");
        assert!(m.contains("cache_entries 0"), "{m}");
        // Every accepted name still gets through to the job.
        let ok = s.handle(&req(
            "POST",
            "/analyze",
            &[("sram", "8"), ("threads", "1")],
            "fft(n=8)",
        ));
        assert_eq!(ok.status, 200, "{}", ok.body);
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
