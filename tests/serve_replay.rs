//! Service-level replay of a seeded request trace against a live
//! `cogent serve` over loopback.
//!
//! The trace is fully deterministic (fixed seed, no wall-clock input):
//!
//! * a **cold phase** issues each of 24 unique contractions once — 16 TCCG
//!   entries and 8 seeded pseudo-random ones, so the trace is not biased
//!   toward the suite's index structure — and every request must miss;
//! * a **warm phase** replays 240 zipf-distributed draws over that working
//!   set, every fifth one to `/v1/explain`, and every request must hit.
//!
//! Both phases run from 4 concurrent clients against 2 workers, and every
//! response must be a 200. A cache that stops hitting, a key that starts
//! depending on the request, or a request the server drops or rejects
//! fails here.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use cogent::generator::{ServeConfig, Server};

const CLIENTS: usize = 4;
const WORKERS: usize = 2;
const TCCG_ENTRIES: usize = 16;
const RANDOM_CONTRACTIONS: usize = 8;
const WARM_DRAWS: usize = 240;

/// Deterministic xorshift64* generator: the trace must not depend on
/// process entropy, or the hit counts could not be exact.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A seeded pseudo-random contraction in the generator's supported shape:
/// 1-2 external indices per input, 1-2 contracted, rotated input layouts.
fn random_spec(rng: &mut Rng) -> String {
    let na = 1 + rng.below(2);
    let nb = 1 + rng.below(2);
    let ni = 1 + rng.below(2);
    let letters: Vec<char> = (0..na + nb + ni)
        .map(|i| (b'a' + i as u8) as char)
        .collect();
    let c: String = letters[..na + nb].iter().collect();
    let mut a: Vec<char> = letters[..na]
        .iter()
        .chain(&letters[na + nb..])
        .copied()
        .collect();
    let mut b: Vec<char> = letters[na..].to_vec();
    let rot_a = rng.below(a.len());
    let rot_b = rng.below(b.len());
    a.rotate_left(rot_a);
    b.rotate_left(rot_b);
    let (a, b): (String, String) = (a.into_iter().collect(), b.into_iter().collect());
    format!("{c}-{a}-{b}")
}

/// The cold working set (sorted request bodies) and the warm draws
/// (endpoint, body) over it.
fn trace() -> (Vec<String>, Vec<(&'static str, String)>) {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    let mut unique: Vec<String> = cogent::tccg::suite()
        .iter()
        .take(TCCG_ENTRIES)
        .map(|e| format!(r#"{{"contraction":"{}","uniform":16}}"#, e.spec))
        .collect();
    for _ in 0..RANDOM_CONTRACTIONS {
        unique.push(format!(
            r#"{{"contraction":"{}","uniform":{}}}"#,
            random_spec(&mut rng),
            8 + 4 * rng.below(3)
        ));
    }
    unique.sort();
    unique.dedup();

    // Zipf popularity over the working set: weight 1/(rank+1).
    let weights: Vec<f64> = (0..unique.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    let warm = (0..WARM_DRAWS)
        .map(|draw| {
            let mut point = (rng.next() as f64 / u64::MAX as f64) * total_weight;
            let mut pick = 0;
            for (rank, w) in weights.iter().enumerate() {
                point -= w;
                if point <= 0.0 {
                    pick = rank;
                    break;
                }
            }
            let endpoint = if draw % 5 == 4 {
                "/v1/explain"
            } else {
                "/v1/generate"
            };
            (endpoint, unique[pick].clone())
        })
        .collect();
    (unique, warm)
}

/// One POST over a fresh loopback connection: the HTTP status and whether
/// the body reports a cache hit.
fn issue(addr: &str, path: &str, body: &str) -> (u16, bool) {
    let mut stream = TcpStream::connect(addr).expect("connect to the server");
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, response.contains("\"cache\":\"hit\""))
}

/// Replays `jobs` from [`CLIENTS`] concurrent threads; returns the
/// non-200 responses and the cache hits.
fn replay(addr: &str, jobs: &[(&'static str, String)]) -> (Vec<String>, usize) {
    let next = AtomicUsize::new(0);
    let per_client: Vec<(Vec<String>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut failures, mut hits) = (Vec::new(), 0);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((endpoint, body)) = jobs.get(i) else {
                            return (failures, hits);
                        };
                        let (status, hit) = issue(addr, endpoint, body);
                        if status != 200 {
                            failures.push(format!("{endpoint} {body}: HTTP {status}"));
                        }
                        hits += usize::from(hit);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client panicked"))
            .collect()
    });
    per_client
        .into_iter()
        .fold((Vec::new(), 0), |(mut failures, hits), (f, h)| {
            failures.extend(f);
            (failures, hits + h)
        })
}

#[test]
fn seeded_trace_misses_once_per_key_then_always_hits() {
    let (unique, warm) = trace();
    assert_eq!(unique.len(), TCCG_ENTRIES + RANDOM_CONTRACTIONS);
    let cold: Vec<(&'static str, String)> = unique
        .iter()
        .map(|body| ("/v1/generate", body.clone()))
        .collect();

    let server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_depth: CLIENTS.max(WORKERS) * 4,
        max_conns: CLIENTS * 8,
        cache_capacity: unique.len() * 4,
        ..ServeConfig::default()
    })
    .expect("spawn the server");
    let addr = server.addr().to_string();
    let (cold_failures, cold_hits) = replay(&addr, &cold);
    let (warm_failures, warm_hits) = replay(&addr, &warm);
    server.shutdown();

    assert_eq!(cold_failures, Vec::<String>::new(), "cold phase");
    assert_eq!(warm_failures, Vec::<String>::new(), "warm phase");
    assert_eq!(cold_hits, 0, "every cold request is a new key");
    assert_eq!(warm_hits, WARM_DRAWS, "every warm request repeats a key");
}
