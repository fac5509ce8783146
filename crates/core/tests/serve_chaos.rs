//! Service-level chaos suite for `cogent serve`.
//!
//! Each test throws one class of hostility at a real (loopback) server —
//! malformed bytes, slowloris dribble, mid-request disconnects, injected
//! worker panics, corrupted cache shards, overload bursts, abrupt kills —
//! and asserts the contract: typed degradation codes, bounded queues, no
//! process death, and byte-identical warm results across a kill/restart.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cogent_core::serve::{ReadLimits, ServeConfig, Server};

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cogent-chaos-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("creating temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn chaos_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 4,
        limits: ReadLimits {
            max_head_bytes: 2 * 1024,
            max_body_bytes: 16 * 1024,
            head_timeout: Duration::from_millis(400),
            body_timeout: Duration::from_millis(600),
            read_timeout: Duration::from_millis(100),
        },
        drain_timeout: Duration::from_secs(5),
        allow_fault_injection: true,
        ..ServeConfig::default()
    }
}

/// Sends raw bytes, reads the whole response, returns (status, body).
/// Write and read errors are tolerated: a server that rejects early
/// (431, 413) closes the socket while the client is still writing, and
/// that reset is part of what the suite exercises.
fn raw(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(bytes);
    let mut buffer = Vec::new();
    let _ = stream.read_to_end(&mut buffer);
    parse_response(&String::from_utf8_lossy(&buffer))
}

fn parse_response(response: &str) -> (u16, String) {
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

/// The server is alive and admitting work.
fn assert_healthy(addr: SocketAddr) {
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "healthz after chaos: {body}");
    let (status, body) = post(
        addr,
        "/v1/generate",
        r#"{"contraction":"ij-ik-kj","uniform":8}"#,
    );
    assert_eq!(status, 200, "generate after chaos: {body}");
}

#[test]
fn malformed_and_hostile_requests_get_typed_errors() {
    let server = Server::spawn(chaos_config()).expect("spawn");
    let addr = server.addr();

    // Garbage request line.
    let (status, body) = raw(addr, b"U\x00TTERGARBAGE\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("malformed_request"), "{body}");

    // Valid HTTP, body is not JSON.
    let (status, body) = post(addr, "/v1/generate", "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("malformed_request"), "{body}");

    // Valid JSON, invalid contraction.
    let (status, body) = post(addr, "/v1/generate", r#"{"contraction":"!!!","uniform":8}"#);
    assert_eq!(status, 400);
    assert!(body.contains("invalid_contraction"), "{body}");

    // Oversized declared body.
    let (status, body) = raw(
        addr,
        b"POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");

    // Oversized head.
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(64 * 1024)
    );
    let (status, _) = raw(addr, huge_header.as_bytes());
    assert_eq!(status, 431);

    // Chunked transfer encoding is refused, not mis-read.
    let (status, body) = raw(
        addr,
        b"POST /v1/generate HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert!(body.contains("malformed_request"), "{body}");

    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn slowloris_and_truncated_requests_time_out() {
    let server = Server::spawn(chaos_config()).expect("spawn");
    let addr = server.addr();

    // Slowloris: dribble a byte, then stall past the head deadline.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /he").expect("write");
    std::thread::sleep(Duration::from_millis(600));
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (status, _) = parse_response(&response);
    assert_eq!(status, 408, "slowloris must 408, got: {response}");

    // Truncated body: declare more bytes than are ever sent.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: 500\r\n\r\n{\"con")
        .expect("write");
    std::thread::sleep(Duration::from_millis(800));
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (status, _) = parse_response(&response);
    assert_eq!(status, 408, "truncated body must 408, got: {response}");

    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn mid_request_disconnects_never_kill_the_server() {
    let server = Server::spawn(chaos_config()).expect("spawn");
    let addr = server.addr();

    for fragment in [
        &b""[..],
        b"GET",
        b"POST /v1/generate HTTP/1.1\r\n",
        b"POST /v1/generate HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"half",
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        if !fragment.is_empty() {
            stream.write_all(fragment).expect("write");
        }
        drop(stream); // hang up mid-request
    }
    // Give the connection threads a moment to observe the disconnects.
    std::thread::sleep(Duration::from_millis(300));
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn injected_worker_panic_is_a_typed_500_not_a_crash() {
    let server = Server::spawn(chaos_config()).expect("spawn");
    let addr = server.addr();

    for _ in 0..3 {
        let (status, body) = post(
            addr,
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":8,"inject":"panic"}"#,
        );
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("worker_panic"), "{body}");
    }
    // All workers have panicked at least once; the pool must still serve.
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn fault_injection_is_rejected_on_production_servers() {
    let server = Server::spawn(ServeConfig {
        allow_fault_injection: false,
        ..chaos_config()
    })
    .expect("spawn");
    let addr = server.addr();
    let (status, body) = post(
        addr,
        "/v1/generate",
        r#"{"contraction":"ij-ik-kj","uniform":8,"inject":"panic"}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("fault_injection_disabled"), "{body}");
    server.shutdown();
}

#[test]
fn overload_burst_gets_429_with_retry_after_and_bounded_queue() {
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_depth: 2,
        ..chaos_config()
    })
    .expect("spawn");
    let addr = server.addr();

    // Stall the lone worker, then burst past the queue depth.
    let stall = std::thread::spawn(move || {
        post(
            addr,
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":8,"inject":{"stall_ms":1200}}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(200));

    let burst: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let body = r#"{"contraction":"abc-bda-dc","uniform":8}"#;
                stream
                    .write_all(
                        format!(
                        "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                        .as_bytes(),
                    )
                    .expect("write");
                let mut response = String::new();
                stream.read_to_string(&mut response).expect("read");
                (parse_response(&response), response)
            })
        })
        .collect();

    let mut rejected = 0;
    for handle in burst {
        let ((status, body), full) = handle.join().expect("burst thread");
        match status {
            200 | 504 => {}
            429 => {
                rejected += 1;
                assert!(body.contains("overloaded"), "{body}");
                assert!(
                    full.to_ascii_lowercase().contains("retry-after:"),
                    "429 must carry Retry-After:\n{full}"
                );
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(
        rejected >= 2,
        "queue depth 2 + 1 worker must shed most of an 8-request burst, shed {rejected}"
    );

    let (_, _) = stall.join().expect("stalled request");
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn corrupted_cache_files_are_quarantined_not_fatal() {
    let dir = TempDir::new("quarantine");

    // Warm a cache and shut down cleanly so shards exist on disk.
    let server = Server::spawn(ServeConfig {
        cache_dir: Some(dir.path().to_path_buf()),
        ..chaos_config()
    })
    .expect("spawn");
    let addr = server.addr();
    let (status, _) = post(
        addr,
        "/v1/generate",
        r#"{"contraction":"ij-ik-kj","uniform":8}"#,
    );
    assert_eq!(status, 200);
    server.shutdown();

    // Corrupt every shard file: flip bytes in some, truncate others.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(dir.path()).expect("read_dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("shard-") || !name.ends_with(".json") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("read shard");
        if bytes.is_empty() {
            continue;
        }
        if corrupted % 2 == 0 {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).expect("write corrupt shard");
        } else {
            std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate shard");
        }
        corrupted += 1;
    }
    assert!(corrupted > 0, "warm shutdown must have written shards");

    // Restart over the corrupted directory: must start, quarantine, serve.
    let server = Server::spawn(ServeConfig {
        cache_dir: Some(dir.path().to_path_buf()),
        ..chaos_config()
    })
    .expect("restart over corrupted cache");
    let addr = server.addr();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"quarantined_files\":"),
        "healthz reports quarantine: {body}"
    );
    let quarantined = std::fs::read_dir(dir.path())
        .expect("read_dir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.path()
                .to_str()
                .is_some_and(|p| p.ends_with(".quarantined"))
        })
        .count();
    assert!(quarantined > 0, "corrupt shards must be quarantined aside");
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn kill_and_restart_preserves_warm_results_byte_for_byte() {
    let dir = TempDir::new("restart");
    let body = r#"{"contraction":"abcd-aebf-dfce","uniform":16}"#;

    // Server A: cold generate, then abrupt kill (no final persist — the
    // incremental checkpoint written at insert time must be enough).
    let server_a = Server::spawn(ServeConfig {
        cache_dir: Some(dir.path().to_path_buf()),
        ..chaos_config()
    })
    .expect("spawn A");
    let (status, cold) = post(server_a.addr(), "/v1/generate", body);
    assert_eq!(status, 200, "{cold}");
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    server_a.kill();

    // Server B over the same directory: the same request must be a warm
    // hit, byte-identical modulo the hit/miss marker.
    let server_b = Server::spawn(ServeConfig {
        cache_dir: Some(dir.path().to_path_buf()),
        ..chaos_config()
    })
    .expect("spawn B");
    let (status, warm) = post(server_b.addr(), "/v1/generate", body);
    assert_eq!(status, 200, "{warm}");
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    assert_eq!(
        warm.replace("\"cache\":\"hit\"", "\"cache\":\"miss\""),
        cold,
        "warm restart response must be byte-identical to the cold one"
    );
    server_b.shutdown();
}

#[test]
fn deadline_exceeded_is_a_typed_504() {
    let server = Server::spawn(chaos_config()).expect("spawn");
    let addr = server.addr();
    // Deterministic expiry: the injected stall outlives the deadline, so
    // by the time the worker reaches the search the budget is gone.
    let (status, body) = post(
        addr,
        "/v1/generate",
        r#"{"contraction":"ij-ik-kj","uniform":8,"deadline_ms":100,"inject":{"stall_ms":400}}"#,
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline_exceeded"), "{body}");
    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn tight_deadline_degrades_to_a_truncated_search_not_an_error() {
    let server = Server::spawn(chaos_config()).expect("spawn");
    let addr = server.addr();
    // A 1 ms budget is enough to start but not finish the search: the
    // server answers with a best-effort truncated kernel (200) or, if
    // the deadline lapses before the worker picks the job up, a 504 —
    // never a 5xx crash.
    let (status, body) = post(
        addr,
        "/v1/generate",
        r#"{"contraction":"abcdef-dega-gfbc","uniform":24,"deadline_ms":1}"#,
    );
    match status {
        200 => assert!(body.contains("\"truncated\":true"), "{body}"),
        504 => assert!(body.contains("deadline_exceeded"), "{body}"),
        other => panic!("unexpected status {other}: {body}"),
    }
    // Truncated results must NOT poison the cache: a patient caller
    // later gets the complete search, not the rushed one.
    let (status, body) = post(
        addr,
        "/v1/generate",
        r#"{"contraction":"abcdef-dega-gfbc","uniform":24}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cache\":\"miss\""), "{body}");
    assert!(body.contains("\"truncated\":false"), "{body}");
    assert_healthy(addr);
    server.shutdown();
}

/// Like [`post`], but with a client-chosen `X-Request-Id`; returns
/// (status, body, full response text) so headers are assertable.
fn post_with_id(addr: SocketAddr, path: &str, id: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nX-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    let mut buffer = Vec::new();
    let _ = stream.read_to_end(&mut buffer);
    let full = String::from_utf8_lossy(&buffer).to_string();
    let (status, body) = parse_response(&full);
    (status, body, full)
}

#[test]
fn worker_panic_dumps_a_flight_recording_with_the_failing_request() {
    let dir = TempDir::new("flight-panic");
    let server = Server::spawn(ServeConfig {
        flight_dir: Some(dir.path().to_path_buf()),
        ..chaos_config()
    })
    .expect("spawn");
    let addr = server.addr();

    let (status, body, full) = post_with_id(
        addr,
        "/v1/generate",
        "chaos-panic-7",
        r#"{"contraction":"ij-ik-kj","uniform":8,"inject":"panic"}"#,
    );
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("worker_panic"), "{body}");
    assert!(
        body.contains("\"request_id\":\"chaos-panic-7\""),
        "the 500 envelope must carry the request id: {body}"
    );
    assert!(full.contains("X-Request-Id: chaos-panic-7"), "{full}");

    // The dump is written on the worker thread right after the reply;
    // give it a moment to land.
    std::thread::sleep(Duration::from_millis(300));
    let dump_path = std::fs::read_dir(dir.path())
        .expect("read_dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-panic-") && n.ends_with(".json"))
        })
        .expect("a panic must produce a flight dump");
    let text = std::fs::read_to_string(&dump_path).expect("read dump");
    let records = cogent_obs::flight::parse_dump(&text).expect("valid cogent.flight.v1 dump");
    let record = records
        .iter()
        .find(|r| r.id == "chaos-panic-7")
        .expect("the failing request is in the dump");
    assert_eq!(record.status, 500);
    assert_eq!(record.endpoint, "generate");
    for label in ["accepted", "queued", "started", "panic", "responded"] {
        assert!(
            record.events.iter().any(|e| e.label == label),
            "panic timeline missing {label:?}: {:?}",
            record.events
        );
    }

    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn request_ids_echo_through_429_504_and_500() {
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..chaos_config()
    })
    .expect("spawn");
    let addr = server.addr();

    // 500: injected panic.
    let (status, body, full) = post_with_id(
        addr,
        "/v1/generate",
        "chaos-id-500",
        r#"{"contraction":"ij-ik-kj","uniform":8,"inject":"panic"}"#,
    );
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"request_id\":\"chaos-id-500\""), "{body}");
    assert!(full.contains("X-Request-Id: chaos-id-500"), "{full}");

    // 504: the injected stall outlives the deadline.
    let (status, body, full) = post_with_id(
        addr,
        "/v1/generate",
        "chaos-id-504",
        r#"{"contraction":"ij-ik-kj","uniform":8,"deadline_ms":100,"inject":{"stall_ms":400}}"#,
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"request_id\":\"chaos-id-504\""), "{body}");
    assert!(full.contains("X-Request-Id: chaos-id-504"), "{full}");

    // 429: stall the lone worker, fill the one queue slot, then knock.
    let stall = std::thread::spawn(move || {
        post(
            addr,
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":8,"inject":{"stall_ms":1500}}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(200));
    let filler = std::thread::spawn(move || {
        post(
            addr,
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":8,"inject":{"stall_ms":100}}"#,
        )
    });
    std::thread::sleep(Duration::from_millis(200));
    let (status, body, full) = post_with_id(
        addr,
        "/v1/generate",
        "chaos-id-429",
        r#"{"contraction":"abc-bda-dc","uniform":8}"#,
    );
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("\"request_id\":\"chaos-id-429\""), "{body}");
    assert!(full.contains("X-Request-Id: chaos-id-429"), "{full}");
    let _ = stall.join();
    let _ = filler.join();

    assert_healthy(addr);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_then_refuses() {
    let server = Server::spawn(chaos_config()).expect("spawn");
    let addr = server.addr();
    let (status, _) = post(
        addr,
        "/v1/generate",
        r#"{"contraction":"ij-ik-kj","uniform":8}"#,
    );
    assert_eq!(status, 200);
    server.shutdown();
    // The listener is gone (or at least no longer answering) after drain.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err();
    assert!(refused, "a drained server must not accept new connections");
}
