//! The serve ↔ CLI byte-identity contract and the loadgen floors.
//!
//! `repro analyze|simulate` and `dmc-serve` build and run the same
//! `dmc_core::job::Job` and print the same `JobReport::to_json_line`, so
//! what can still drift is what each front end keeps for itself: argv
//! vs query parsing, admission, the cache. This test — in the one crate
//! that sees both — pins them together: for every spec and option
//! combination tried, the HTTP body must equal
//! `analyze_kernel_spec_with(..., Json)` / `simulate_kernel_spec(...,
//! Json)` / `simulate_machine(..., Json)` byte for byte, cache hits
//! included. It also runs the loadgen harness once and asserts the
//! acceptance floors: ≥ 100 req/s against a warm cache, a sane hit rate,
//! zero failures.

use dmc_bench::{analyze_kernel_spec_with, simulate_kernel_spec, AnalyzeOptions, ReportFormat};
use dmc_serve::{Limits, Server, ServerConfig, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn start() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        limits: Limits::default(),
        service: ServiceConfig::default(),
        log: false,
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        server.run().expect("serve loop");
    });
    (addr, handle)
}

fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes()).expect("send");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("recv");
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("status line");
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn stop(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("clean exit");
}

#[test]
fn analyze_bodies_match_the_cli_byte_for_byte() {
    let (addr, handle) = start();
    let cases: [(&str, &str, u64, bool); 4] = [
        ("diamond", "/analyze", 4, false),
        ("fft(n=8)", "/analyze?sram=8", 8, false),
        ("jacobi(n=8,d=1,t=8)", "/analyze?sram=6", 6, false),
        ("ladder(w=6,h=6)", "/analyze?hierarchical=true", 4, true),
    ];
    for (spec, target, sram, hierarchical) in cases {
        let (status, http_body) = post(addr, target, spec);
        assert_eq!(status, 200, "{spec}: {http_body}");
        let cli = analyze_kernel_spec_with(
            spec,
            sram,
            1,
            ReportFormat::Json,
            AnalyzeOptions {
                hierarchical,
                ..AnalyzeOptions::default()
            },
        )
        .expect("CLI path succeeds");
        assert_eq!(
            http_body, cli,
            "{spec}: HTTP body diverged from `repro analyze --format json`"
        );
        // And a second request (cache hit) serves the same bytes.
        let (_, again) = post(addr, target, spec);
        assert_eq!(again, cli, "{spec}: cached body diverged");
    }
    stop(addr, handle);
}

#[test]
fn simulate_bodies_match_the_cli_byte_for_byte() {
    let (addr, handle) = start();
    let (status, http_body) = post(addr, "/simulate", "matmul(n=3)");
    assert_eq!(status, 200, "{http_body}");
    let cli = simulate_kernel_spec("matmul(n=3)", None, None, 1, ReportFormat::Json)
        .expect("CLI path succeeds");
    assert_eq!(http_body, cli, "simulate body diverged from the CLI");
    let (_, lru) = post(addr, "/simulate?policy=lru", "fft(n=8)");
    let cli_lru = simulate_kernel_spec(
        "fft(n=8)",
        None,
        Some(dmc_sim::CachePolicy::Lru),
        1,
        ReportFormat::Json,
    )
    .expect("CLI path succeeds");
    assert_eq!(lru, cli_lru, "policy=lru body diverged from the CLI");
    stop(addr, handle);
}

#[test]
fn simulate_machine_bodies_match_the_cli_byte_for_byte() {
    let (addr, handle) = start();
    // `machine=IBM+BG%2FQ` — the request target cannot hold raw spaces
    // or slashes; the daemon percent-decodes query values.
    let target = "/simulate?machine=IBM+BG%2FQ";
    let (status, http_body) = post(addr, target, "fft(n=8)");
    assert_eq!(status, 200, "{http_body}");
    let cli = dmc_bench::simulate_machine(
        "IBM BG/Q",
        Some("fft(n=8)"),
        dmc_bench::DEFAULT_MACHINE_S1,
        None,
        1,
        ReportFormat::Json,
    )
    .expect("CLI path succeeds");
    assert_eq!(
        http_body, cli,
        "machine body diverged from `repro simulate --machine --format json`"
    );
    // The cache hit serves the same bytes.
    let (_, again) = post(addr, target, "fft(n=8)");
    assert_eq!(again, cli, "cached machine body diverged");
    // The whole-catalog sweep wraps in the same envelope as the CLI.
    let (status, all_body) = post(addr, "/simulate?machine=all&sram=8", "fft(n=8)");
    assert_eq!(status, 200, "{all_body}");
    let cli_all =
        dmc_bench::simulate_machine("all", Some("fft(n=8)"), 8, None, 1, ReportFormat::Json)
            .expect("CLI path succeeds");
    assert_eq!(all_body, cli_all, "machine=all body diverged from the CLI");
    stop(addr, handle);
}

#[test]
fn loadgen_meets_the_acceptance_floors() {
    let r = dmc_bench::loadgen::run(dmc_bench::loadgen::LoadConfig {
        clients: 8,
        requests_per_client: 50,
        workers: 4,
    })
    .expect("loadgen runs");
    assert_eq!(r.failed, 0, "no request may fail:\n{}", r.table);
    assert!(
        r.rps >= 100.0,
        "warm-cache throughput floor (>=100 req/s):\n{}",
        r.table
    );
    assert!(
        r.hit_rate >= 0.70,
        "hit-rate floor (>=70% on the 90/10 mix):\n{}",
        r.table
    );
    // The hot set costs exactly 3 analyses; every other analysis is a
    // cold unique. With 40 cold requests the daemon must not have
    // analyzed more than warmup + cold (i.e. no duplicate work).
    assert!(
        r.analyses_performed <= 3 + 8 * 5,
        "duplicate analyses happened:\n{}",
        r.table
    );
}
