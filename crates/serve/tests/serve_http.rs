//! End-to-end tests of the daemon over real sockets: a raw `TcpStream`
//! test client (no HTTP library on either side), the hostile-input
//! error paths, and the concurrent-determinism contract — exactly one
//! analysis per distinct key at any worker count, byte-identical bodies
//! across repeats and across `--workers 1/2/4`.

use dmc_serve::cache::CacheConfig;
use dmc_serve::http::Limits;
use dmc_serve::server::{Server, ServerConfig};
use dmc_serve::service::ServiceConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Starts a daemon on an ephemeral port; returns its address and the
/// thread running the accept loop (joined by `stop`).
fn start(workers: usize, limits: Limits) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        limits,
        service: ServiceConfig {
            cache: CacheConfig::default(),
            ..ServiceConfig::default()
        },
        log: false,
    };
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        server.run().expect("serve loop");
    });
    (addr, handle)
}

fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _) = request(addr, "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    handle.join().expect("server thread exits cleanly");
}

/// The raw test client: writes `raw` verbatim, reads to EOF, returns
/// (status, body).
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw.as_bytes()).expect("send");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    parse_response(&resp)
}

fn parse_response(resp: &str) -> (u16, String) {
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {resp:?}"));
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    request(addr, &format!("GET {target} HTTP/1.1\r\n\r\n"))
}

/// Pulls one counter off a `/metrics` body.
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from metrics:\n{metrics}"))
}

#[test]
fn health_catalog_metrics_roundtrip() {
    let (addr, handle) = start(2, Limits::default());
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = get(addr, "/catalog");
    assert_eq!(status, 200);
    assert!(body.contains("jacobi("), "{body}");
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metric(&body, "requests_total") >= 2);
    stop(addr, handle);
}

#[test]
fn analyze_twice_is_one_analysis_and_identical_bytes() {
    let (addr, handle) = start(2, Limits::default());
    let (s1, b1) = post(addr, "/analyze?sram=4", "diamond");
    assert_eq!(s1, 200, "{b1}");
    let (s2, b2) = post(addr, "/analyze?sram=4", "diamond");
    assert_eq!(s2, 200);
    assert_eq!(b1, b2, "cache hit must be byte-identical");
    let (_, m) = get(addr, "/metrics");
    assert_eq!(metric(&m, "analyses_performed"), 1);
    assert_eq!(metric(&m, "cache_hits"), 1);
    assert_eq!(metric(&m, "cache_misses"), 1);
    stop(addr, handle);
}

#[test]
fn error_paths_over_the_wire() {
    let (addr, handle) = start(
        2,
        Limits {
            header_bytes: 512,
            body_bytes: 256,
            read_timeout: Duration::from_millis(300),
        },
    );
    // Bad spec: 400 naming the catalog command.
    let (status, body) = post(addr, "/analyze", "warp_drive(n=4)");
    assert_eq!(status, 400);
    assert!(body.contains("repro list"), "{body}");
    // Oversized build: 413 naming --max-vertices.
    let (status, body) = post(
        addr,
        "/analyze",
        "random(layers=1000,width=65536,deg=3,seed=7)",
    );
    assert_eq!(status, 413);
    assert!(body.contains("--max-vertices"), "{body}");
    // A `.cdag` header with no vertices: 400, and nothing is allocated
    // from the declared count (4e9 labels would abort the daemon).
    let (status, body) = post(addr, "/analyze", "cdag 4000000000");
    assert_eq!(status, 400);
    assert!(body.contains("bad or duplicate vertex id 0"), "{body}");
    // Unknown route: 404.
    let (status, _) = get(addr, "/bounds-for-free");
    assert_eq!(status, 404);
    // Wrong method on a known route: 405.
    let (status, _) = get(addr, "/analyze");
    assert_eq!(status, 405);
    // Oversized declared body: 413 before the body is read.
    let (status, body) = request(
        addr,
        "POST /analyze HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
    );
    assert_eq!(status, 413);
    assert!(body.contains("256-byte"), "{body}");
    // Slow-loris: an unfinished request head times out as 408.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(b"POST /analyze HTTP/1.1\r\nConte")
        .expect("send");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read 408");
    let (status, _) = parse_response(&resp);
    assert_eq!(status, 408);
    // Garbage request line: 400.
    let (status, _) = request(addr, "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    // Unsupported protocol: 400.
    let (status, _) = request(addr, "GET / HTTP/3.0\r\n\r\n");
    assert_eq!(status, 400);
    // And after all that abuse the daemon still serves.
    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    stop(addr, handle);
}

#[test]
fn huge_header_section_is_431() {
    let (addr, handle) = start(
        1,
        Limits {
            header_bytes: 256,
            body_bytes: 1024,
            read_timeout: Duration::from_secs(2),
        },
    );
    let padding = "X-Filler: ".to_string() + &"a".repeat(512);
    let (status, _) = request(addr, &format!("GET /healthz HTTP/1.1\r\n{padding}\r\n\r\n"));
    assert_eq!(status, 431);
    stop(addr, handle);
}

/// The concurrent-determinism contract: 8 client threads hammering a
/// hot/cold mix, exactly one analysis per distinct key, and the body
/// bytes identical no matter which thread, repeat, or worker count
/// served them.
#[test]
fn concurrent_duplicates_coalesce_and_agree_at_any_worker_count() {
    const CLIENTS: usize = 8;
    const SPECS: [&str; 3] = ["diamond", "fft(n=8)", "reduction(leaves=16)"];
    let mut golden: Vec<Option<String>> = vec![None; SPECS.len()];
    for workers in [1usize, 2, 4] {
        let (addr, handle) = start(workers, Limits::default());
        let bodies: Vec<Vec<(usize, String)>> = dmc_cdag::fanout::fan_out_indexed(
            CLIENTS,
            CLIENTS,
            || (),
            |(), i| {
                // Each client posts every spec twice (first wave may
                // coalesce, second wave must hit).
                (0..2)
                    .map(|round| {
                        let spec_idx = (i + round) % SPECS.len();
                        let (status, body) = post(addr, "/analyze", SPECS[spec_idx]);
                        assert_eq!(status, 200, "worker={workers} client={i}: {body}");
                        (spec_idx, body)
                    })
                    .collect()
            },
        );
        let (_, m) = get(addr, "/metrics");
        assert_eq!(
            metric(&m, "analyses_performed"),
            SPECS.len() as u64,
            "workers={workers}: exactly one analysis per distinct key\n{m}"
        );
        assert_eq!(metric(&m, "cache_misses"), SPECS.len() as u64);
        for (spec_idx, body) in bodies.into_iter().flatten() {
            match &golden[spec_idx] {
                None => golden[spec_idx] = Some(body),
                Some(g) => assert_eq!(
                    g, &body,
                    "workers={workers}: body for {} diverged",
                    SPECS[spec_idx]
                ),
            }
        }
        stop(addr, handle);
    }
}

#[test]
fn shutdown_refuses_new_connections() {
    let (addr, handle) = start(2, Limits::default());
    stop(addr, handle);
    // The listener is gone: connecting (or speaking) must fail.
    let refused = match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            matches!(s.read_to_string(&mut out), Ok(0) | Err(_)) || out.is_empty()
        }
    };
    assert!(refused, "daemon still answering after shutdown");
}

#[test]
fn simulate_endpoint_roundtrip() {
    let (addr, handle) = start(2, Limits::default());
    let (status, b1) = post(addr, "/simulate?policy=lru", "matmul(n=3)");
    assert_eq!(status, 200, "{b1}");
    assert!(b1.ends_with('\n'));
    let (_, b2) = post(addr, "/simulate?policy=lru", "matmul(n=3)");
    assert_eq!(b1, b2);
    let (status, body) = post(addr, "/simulate?sram-sweep=8:4:1", "fft(n=8)");
    assert_eq!(status, 400);
    assert!(body.contains("lo:hi:step"), "{body}");
    stop(addr, handle);
}

/// The machine-hierarchy endpoint over real sockets: cached under the
/// content-addressed key, loud on bad machines, and byte-identical
/// across `--workers 1/2/4`.
#[test]
fn simulate_machine_endpoint_roundtrip_at_any_worker_count() {
    let mut golden: Option<String> = None;
    for workers in [1usize, 2, 4] {
        let (addr, handle) = start(workers, Limits::default());
        // `IBM+BG%2FQ` — spaces and slashes cannot ride raw in the
        // request target; the daemon percent-decodes query values.
        let (status, b1) = post(addr, "/simulate?machine=IBM+BG%2FQ", "fft(n=8)");
        assert_eq!(status, 200, "workers={workers}: {b1}");
        assert!(b1.contains("\"machine\":\"IBM BG/Q\""), "{b1}");
        assert!(b1.ends_with('\n'));
        // Same key: the explicit default S1 must hit the cache.
        let (_, b2) = post(addr, "/simulate?machine=IBM+BG%2FQ&sram=64", "fft(n=8)");
        assert_eq!(b1, b2, "workers={workers}: cached body diverged");
        let (_, m) = get(addr, "/metrics");
        assert_eq!(
            metric(&m, "cache_hits"),
            1,
            "workers={workers}: default S1 must land on the same key\n{m}"
        );
        // Unknown machine: 400 naming the catalog.
        let (status, body) = post(addr, "/simulate?machine=bogus", "fft(n=8)");
        assert_eq!(status, 400);
        assert!(body.contains("IBM BG/Q, Cray XT5, K computer"), "{body}");
        match &golden {
            None => golden = Some(b1),
            Some(g) => assert_eq!(g, &b1, "workers={workers}: body diverged"),
        }
        stop(addr, handle);
    }
}
