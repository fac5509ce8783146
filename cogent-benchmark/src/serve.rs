//! `serve_warm_zipf` and `serve_cold_churn`: `cogent serve` over
//! loopback, driven from client threads in the same process.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cogent::generator::{CacheKey, Cogent, GeneratedKernel, KernelCache, ServeConfig, Server};
use cogent::kir::{estimate_traffic, lower_to_kir};
use cogent::obs::json::Json;

use crate::compile::{recompose, Kind, LayerCounts};
use crate::inputs::{suite_jobs, warm_draws, Churn, Endpoint, Job};
use crate::report::{fnv1a, set_entry_metrics, Outcome};
use crate::spans::{cpu_seconds, Tracer};
use crate::stats::{fastest, geomean, median, percentile, tail_is_supported};
use crate::Opts;

/// Offered load of the warm open loop.
const RATE_PER_S: u32 = 200;
/// Independent open-loop clients; with 2 workers this fits 2 cores.
const CLIENTS: usize = 2;
/// Requests at least: p99 has ten samples beyond it, and every churn
/// entry comes round 21 times.
const MIN_REQUESTS: usize = 1008;
const TRACE_WARM: usize = 1000;
const TRACE_CHURN: usize = 240;
const QUICK_REQUESTS: usize = 100;
/// Every 16th cold response is checked against in-process generation.
const CHECK_EVERY: usize = 16;
/// 8 shards of 32 entries: the 48 fill keys never evict one another.
const WARM_CAPACITY: usize = 256;
/// As many entries as fill keys, so every cold insert evicts.
const CHURN_CAPACITY: usize = 48;
/// `X-Request-Id` prefix of traced requests, joining them to the log.
const TRACE_ID: &str = "trace";

/// One timed request.
struct Sample {
    due: Instant,
    start: Instant,
    connected: Instant,
    sent: Instant,
    first_byte: Instant,
    done: Instant,
    /// 0 when the exchange failed below HTTP.
    status: u16,
    hash: u64,
    bytes: usize,
    /// The body, for the requests a check or recomposition needs, or
    /// the error when the exchange failed.
    body: Option<String>,
}

impl Sample {
    fn client_ms(&self) -> f64 {
        ms(self.start, self.done)
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// One request on a fresh connection (the server answers
/// `Connection: close`), timed at each socket phase.
fn exchange(
    addr: SocketAddr,
    path: &str,
    body: Option<&str>,
    id: Option<&str>,
    due: Instant,
    keep_body: bool,
) -> Sample {
    let start = Instant::now();
    let mut sample = Sample {
        due,
        start,
        connected: start,
        sent: start,
        first_byte: start,
        done: start,
        status: 0,
        hash: 0,
        bytes: 0,
        body: None,
    };
    if let Err(e) = exchange_into(&mut sample, addr, path, body, id, keep_body) {
        sample.status = 0;
        sample.body = Some(e.to_string());
        sample.done = Instant::now();
    }
    sample
}

fn exchange_into(
    s: &mut Sample,
    addr: SocketAddr,
    path: &str,
    body: Option<&str>,
    id: Option<&str>,
    keep_body: bool,
) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    s.connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_nodelay(true)?;
    let method = if body.is_some() { "POST" } else { "GET" };
    let body = body.unwrap_or("");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    if let Some(id) = id {
        request.push_str(&format!("X-Request-Id: {id}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(request.as_bytes())?;
    s.sent = Instant::now();
    let mut raw = Vec::with_capacity(32 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut first = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&chunk[..n]);
    }
    s.done = Instant::now();
    s.first_byte = first.unwrap_or(s.done);
    let bad = |why: &str| Error::new(ErrorKind::InvalidData, why.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header end"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 header"))?;
    s.status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let payload = &raw[split + 4..];
    s.hash = fnv1a(payload);
    s.bytes = payload.len();
    if keep_body {
        s.body = Some(String::from_utf8_lossy(payload).into_owned());
    }
    Ok(())
}

/// A request the load generator sends.
struct Request {
    path: &'static str,
    body: String,
}

enum Pace {
    /// Request `i` is due `i / RATE_PER_S` after the start, whatever
    /// happened before it; `CLIENTS` threads take turns.
    Open,
    /// One client sends each request when the previous reply is in, and
    /// stops once it has sent `min` and `budget` has passed.
    Closed {
        min: usize,
        budget: Option<Duration>,
    },
}

fn load(
    addr: SocketAddr,
    requests: &[Request],
    pace: Pace,
    ids: Option<&str>,
    keep_body: impl Fn(usize) -> bool + Sync,
) -> Vec<Sample> {
    let send = |i: usize, due: Instant| {
        let id = ids.map(|prefix| format!("{prefix}-{i}"));
        let r = &requests[i];
        exchange(
            addr,
            r.path,
            Some(&r.body),
            id.as_deref(),
            due,
            keep_body(i),
        )
    };
    match pace {
        Pace::Closed { min, budget } => {
            let start = Instant::now();
            let mut samples = Vec::new();
            for i in 0..requests.len() {
                if i >= min && budget.is_none_or(|b| start.elapsed() >= b) {
                    break;
                }
                samples.push(send(i, Instant::now()));
            }
            samples
        }
        Pace::Open => {
            let t0 = Instant::now() + Duration::from_millis(20);
            let interval = Duration::from_secs(1) / RATE_PER_S;
            let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let send = &send;
                        scope.spawn(move || {
                            (c..requests.len())
                                .step_by(CLIENTS)
                                .map(|i| {
                                    let due = t0 + interval * i as u32;
                                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                        std::thread::sleep(wait);
                                    }
                                    (i, send(i, due))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .flat_map(|c| c.join().expect("a client thread panicked"))
                    .collect()
            });
            samples.sort_by_key(|(i, _)| *i);
            samples.into_iter().map(|(_, s)| s).collect()
        }
    }
}

fn spawn_server(capacity: usize, access_log: Option<PathBuf>) -> Server {
    Server::spawn(ServeConfig {
        workers: 2,
        cache_capacity: capacity,
        access_log,
        ..ServeConfig::default()
    })
    .expect("the server starts on loopback")
}

/// A server whose cache holds the fill kernels, filled over HTTP.
fn filled_server(capacity: usize, access_log: Option<PathBuf>, fill: &[Job]) -> Server {
    let server = spawn_server(capacity, access_log);
    for job in fill {
        let s = exchange(
            server.addr(),
            Endpoint::Generate.path(),
            Some(&job.body()),
            None,
            Instant::now(),
            false,
        );
        assert_eq!(s.status, 200, "filling {} failed: {:?}", job.name, s.body);
    }
    server
}

/// `(generate, explain)` body hashes of a warm hit per fill key.
fn reference_bodies(server: &Server, fill: &[Job]) -> Vec<[u64; 2]> {
    fill.iter()
        .map(|job| {
            [Endpoint::Generate, Endpoint::Explain].map(|ep| {
                let s = exchange(
                    server.addr(),
                    ep.path(),
                    Some(&job.body()),
                    None,
                    Instant::now(),
                    false,
                );
                assert_eq!(s.status, 200, "reference {} failed", job.name);
                s.hash
            })
        })
        .collect()
}

/// Cache counters from `/healthz`: `[hits, misses, evictions, entries]`.
fn cache_counts(addr: SocketAddr) -> [f64; 4] {
    let s = exchange(addr, "/healthz", None, None, Instant::now(), true);
    let json = s.body.as_deref().and_then(|b| Json::parse(b).ok());
    let cache = json.as_ref().and_then(|j| j.get("cache"));
    ["hits", "misses", "evictions", "entries"].map(|k| {
        cache
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .expect("/healthz reports cache counters")
    })
}

/// The server's cached kernels, ordered by key so sums repeat exactly.
fn snapshot(server: &Server) -> Vec<(CacheKey, GeneratedKernel)> {
    let cache = &server.state().cache;
    let mut kernels: Vec<(CacheKey, GeneratedKernel)> = (0..cache.shard_count())
        .flat_map(|i| cache.snapshot_shard(i))
        .map(|(k, g, _)| (k, g))
        .collect();
    kernels.sort_by(|a, b| {
        a.0.parts()
            .0
            .cmp(b.0.parts().0)
            .then(a.0.parts().1.cmp(b.0.parts().1))
    });
    kernels
}

/// Geomean of predicted global requests of the served kernels (the
/// server emits without passes, so the program is the lowered plan).
fn gmem_geomean(kernels: &[(CacheKey, GeneratedKernel)]) -> f64 {
    let requests: Vec<f64> = kernels
        .iter()
        .filter_map(|(_, g)| lower_to_kir(&g.plan).ok())
        .filter_map(|p| estimate_traffic(&p).ok())
        .map(|t| t.global_requests as f64)
        .collect();
    geomean(&requests)
}

/// Setup repeated `reps` times (each a new server); returns the last
/// server and the fastest setup's seconds.
fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> (Server, T)) -> (Server, T, f64) {
    let mut times = Vec::new();
    let mut kept: Option<(Server, T)> = None;
    for _ in 0..reps {
        if let Some((old, _)) = kept.take() {
            old.shutdown();
        }
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    let (server, extra) = kept.expect("at least one setup");
    (server, extra, fastest(&times))
}

fn warm_requests(opts: &Opts, n: usize, fill: &[Job]) -> (Vec<usize>, Vec<Request>) {
    warm_draws(opts.seed, n, fill.len())
        .into_iter()
        .map(|(key, ep)| {
            let request = Request {
                path: ep.path(),
                body: fill[key].body(),
            };
            (key * 2 + usize::from(ep == Endpoint::Explain), request)
        })
        .unzip()
}

/// Marks failed samples (non-200 or a failed check) and returns each
/// sample's latency from its due time, +∞ when failed.
fn latencies(
    samples: &[Sample],
    ok: impl Fn(usize, &Sample) -> bool,
    out: &mut Outcome,
) -> Vec<f64> {
    out.attempted = samples.len() as u64;
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if s.status != 200 {
                let why: String = s.body.as_deref().unwrap_or("").chars().take(200).collect();
                out.fail(1, format!("request {i}: status {}: {why}", s.status));
            } else if !ok(i, s) {
                out.fail(1, format!("request {i}: output check failed"));
            } else {
                return ms(s.due, s.done);
            }
            f64::INFINITY
        })
        .collect()
}

pub fn warm(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let fill = suite_jobs(1);
    let (server, (refs, kernels), setup_s) = repeated_setup(opts.setup_reps(), || {
        let server = filled_server(WARM_CAPACITY, None, &fill);
        let refs = reference_bodies(&server, &fill);
        assert_eq!(
            cache_counts(server.addr())[3] as usize,
            fill.len(),
            "the warm cache must hold every fill kernel"
        );
        let kernels = snapshot(&server);
        (server, (refs, kernels))
    });
    out.set("setup_s", setup_s);

    let n = if opts.quick {
        QUICK_REQUESTS
    } else {
        (RATE_PER_S as usize * opts.seconds as usize).max(MIN_REQUESTS)
    };
    let (slots, requests) = warm_requests(opts, n, &fill);
    let samples = load(server.addr(), &requests, Pace::Open, None, |_| false);
    server.shutdown();

    let lat = latencies(
        &samples,
        |i, s| s.hash == refs[slots[i] / 2][slots[i] % 2],
        &mut out,
    );
    let span_s = samples.iter().map(|s| s.done).max().map_or(1.0, |end| {
        end.saturating_duration_since(samples[0].due).as_secs_f64()
    });
    let per_key: Vec<f64> = (0..fill.len())
        .filter_map(|key| {
            let of_key: Vec<f64> = (0..n)
                .filter(|&i| slots[i] / 2 == key)
                .map(|i| lat[i])
                .collect();
            (!of_key.is_empty()).then(|| median(&of_key))
        })
        .collect();
    out.set("ops_per_s", n as f64 / span_s);
    out.set("op_geomean_ms", geomean(&per_key));
    out.set("op_median_ms", percentile(&lat, 0.5));
    out.set("op_tail_ms", percentile(&lat, 0.99));
    if !tail_is_supported(n, 0.99) {
        out.notes.push(format!(
            "p99 over {n} requests has fewer than ten beyond it"
        ));
    }
    out.set("kernel_gmem_requests_geomean", gmem_geomean(&kernels));
    out
}

/// Cold requests, pre-drawn: enough for the time budget at any rate a
/// full search allows.
fn churn_jobs(opts: &Opts, fill: &[Job], n: usize) -> Vec<Job> {
    Churn::new(opts.seed, fill).take(n).collect()
}

fn generate_requests(jobs: &[Job]) -> Vec<Request> {
    jobs.iter()
        .map(|job| Request {
            path: Endpoint::Generate.path(),
            body: job.body(),
        })
        .collect()
}

/// A string member of a JSON response body.
fn served_member(body: Option<&str>, member: &str) -> Option<String> {
    Json::parse(body?)
        .ok()?
        .get(member)?
        .as_str()
        .map(str::to_string)
}

pub fn churn(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let fill = suite_jobs(1);
    let (server, kernels, setup_s) = repeated_setup(opts.setup_reps(), || {
        let server = filled_server(CHURN_CAPACITY, None, &fill);
        let kernels = snapshot(&server);
        (server, kernels)
    });
    out.set("setup_s", setup_s);

    let (min, budget) = if opts.quick {
        (QUICK_REQUESTS, None)
    } else {
        (MIN_REQUESTS, Some(Duration::from_secs(opts.seconds)))
    };
    // A cold search takes milliseconds, so 200 requests per second of
    // budget is more than the loop can send.
    let jobs = churn_jobs(opts, &fill, min.max(200 * opts.seconds as usize));
    let requests = generate_requests(&jobs);
    let samples = load(
        server.addr(),
        &requests,
        Pace::Closed { min, budget },
        None,
        |i| i % CHECK_EVERY == 0,
    );
    server.shutdown();

    let lat = latencies(
        &samples,
        |i, s| {
            if i % CHECK_EVERY != 0 {
                return true;
            }
            let job = &jobs[i];
            let want = Cogent::new()
                .generate(&job.tc, &job.sizes)
                .map(|g| g.config.to_string());
            served_member(s.body.as_deref(), "config") == want.ok()
        },
        &mut out,
    );
    // In a closed loop each request is due when it is sent, so `lat` is
    // the client's send-to-reply time. Requests cycle through the entries.
    let by_entry: Vec<Vec<f64>> = (0..fill.len())
        .map(|e| lat.iter().skip(e).step_by(fill.len()).copied().collect())
        .collect();
    set_entry_metrics(&by_entry, &mut out);
    out.set("kernel_gmem_requests_geomean", gmem_geomean(&kernels));
    out
}

/// One access-log line: `(queue_wait_ns, search_ns, total_ns)` by id.
fn read_access_log(path: &PathBuf) -> Vec<(String, [f64; 3])> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    text.lines()
        .filter_map(|line| {
            let j = Json::parse(line).ok()?;
            let id = j.get("id")?.as_str()?.to_string();
            let ns = |k| j.get(k).and_then(Json::as_f64);
            Some((
                id,
                [ns("queue_wait_ns")?, ns("search_ns")?, ns("total_ns")?],
            ))
        })
        .collect()
}

/// A fresh access-log file inside the benchmark's own work directory.
fn access_log_path() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"));
    std::fs::create_dir_all(&dir).expect("the work directory is writable");
    dir.join(format!("access-{}.log", std::process::id()))
}

/// Client socket phases as spans (roots named `request`, so they do not
/// count towards the recomposition's coverage) and the serve-layer
/// metrics from joining them with the access log on the request id.
fn serve_layers(
    samples: &[Sample],
    log: &[(String, [f64; 3])],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let mut server = Vec::new();
    let mut unattributed = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let op = i as u32;
        tr.record(op, "loadgen.late", None, s.due, s.start);
        let root = tr.record(op, "request", None, s.start, s.done);
        tr.record(op, "serve.connect", Some(root), s.start, s.connected);
        tr.record(op, "serve.write", Some(root), s.connected, s.sent);
        tr.record(op, "serve.ttfb", Some(root), s.sent, s.first_byte);
        tr.record(op, "serve.read", Some(root), s.first_byte, s.done);
        let id = format!("{TRACE_ID}-{i}");
        if let Some((_, ns)) = log.iter().find(|(l, _)| *l == id) {
            server.push(ns.map(|v| v / 1e6));
            unattributed.push(s.client_ms() - ns[2] / 1e6);
        }
    }
    let col = |k: usize| server.iter().map(|v| v[k]).collect::<Vec<f64>>();
    let phase = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let ttfb = phase(|s| ms(s.sent, s.first_byte));
    let client_total: f64 = samples.iter().map(Sample::client_ms).sum();
    out.set(
        "serve.connect_p50_ms",
        percentile(&phase(|s| ms(s.start, s.connected)), 0.5),
    );
    out.set("serve.ttfb_p50_ms", percentile(&ttfb, 0.5));
    out.set("serve.ttfb_p99_ms", percentile(&ttfb, 0.99));
    out.set(
        "loadgen.late_p99_ms",
        percentile(&phase(|s| ms(s.due, s.start)), 0.99),
    );
    out.set(
        "serve.response_bytes",
        samples.iter().map(|s| s.bytes as f64).sum::<f64>() / samples.len() as f64,
    );
    if server.len() < samples.len() {
        out.fail(
            (samples.len() - server.len()) as u64,
            format!(
                "{} requests missing from the access log",
                samples.len() - server.len()
            ),
        );
    }
    if server.is_empty() {
        return;
    }
    out.set("serve.queue_wait_p50_ms", percentile(&col(0), 0.5));
    out.set("serve.queue_wait_p99_ms", percentile(&col(0), 0.99));
    out.set("serve.search_p50_ms", percentile(&col(1), 0.5));
    out.set("serve.server_total_p50_ms", percentile(&col(2), 0.5));
    out.set("serve.server_total_p99_ms", percentile(&col(2), 0.99));
    out.set("serve.unattributed_p50_ms", percentile(&unattributed, 0.5));
    out.set("serve.unattributed_p99_ms", percentile(&unattributed, 0.99));
    out.set(
        "serve.unattributed_share",
        unattributed.iter().sum::<f64>() / client_total,
    );
}

fn cache_deltas(before: [f64; 4], after: [f64; 4], out: &mut Outcome) {
    let (hits, misses) = (after[0] - before[0], after[1] - before[1]);
    out.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    out.set("cache.evictions", after[2] - before[2]);
}

/// Mean microseconds of a `KernelCache::get` hit on a cache holding
/// `kernels`, sized like the warm server's.
fn cache_get_us(kernels: &[(CacheKey, GeneratedKernel)]) -> f64 {
    let cache = KernelCache::new(WARM_CAPACITY);
    for (k, g) in kernels {
        cache.insert(k.clone(), g.clone());
    }
    let reps = 50;
    let start = Instant::now();
    for _ in 0..reps {
        for (k, _) in kernels {
            std::hint::black_box(cache.get(k));
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (reps * kernels.len()) as f64
}

/// Mean microseconds of a `KernelCache::insert` of a new key into a full
/// cache sized like the churn server's (each insert evicts).
fn cache_insert_us(kernels: &[(CacheKey, GeneratedKernel)], fresh: &[Job]) -> f64 {
    let cache = KernelCache::new(CHURN_CAPACITY);
    for (k, g) in kernels {
        cache.insert(k.clone(), g.clone());
    }
    let items: Vec<(CacheKey, GeneratedKernel)> = fresh
        .iter()
        .zip(kernels.iter().cycle())
        .map(|(job, (_, g))| (job.key(), g.clone()))
        .collect();
    let count = items.len();
    let start = Instant::now();
    for (k, g) in items {
        cache.insert(k, g);
    }
    start.elapsed().as_secs_f64() * 1e6 / count as f64
}

/// Median client time of a phase, for the overhead ratio.
fn median_client(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(Sample::client_ms).collect::<Vec<_>>())
}

pub fn trace_warm(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let fill = suite_jobs(1);
    let n = if opts.quick {
        QUICK_REQUESTS
    } else {
        TRACE_WARM
    };
    let (slots, requests) = warm_requests(opts, n, &fill);

    let server = filled_server(WARM_CAPACITY, None, &fill);
    let cpu0 = cpu_seconds();
    let plain = load(server.addr(), &requests, Pace::Open, None, |_| false);
    out.set(
        "process.cpu_ms_per_op",
        (cpu_seconds() - cpu0) * 1e3 / n as f64,
    );
    server.shutdown();

    let log = access_log_path();
    let server = filled_server(WARM_CAPACITY, Some(log.clone()), &fill);
    let refs = reference_bodies(&server, &fill);
    let kernels = snapshot(&server);
    let before = cache_counts(server.addr());
    let traced = load(server.addr(), &requests, Pace::Open, Some(TRACE_ID), |_| {
        false
    });
    let after = cache_counts(server.addr());
    server.shutdown();
    let lines = read_access_log(&log);

    let identical = |i: usize, s: &Sample| s.hash == refs[slots[i] / 2][slots[i] % 2];
    let lat = latencies(&traced, identical, &mut out);
    let mut tr = Tracer::default();
    serve_layers(&traced, &lines, &mut tr, &mut out);
    cache_deltas(before, after, &mut out);
    out.set("cache.get_us", cache_get_us(&kernels));
    let share = out
        .values
        .get("serve.unattributed_share")
        .copied()
        .unwrap_or(1.0);
    out.set("trace.coverage", 1.0 - share);
    out.set(
        "trace.identity_ratio",
        lat.iter().filter(|l| l.is_finite()).count() as f64 / n as f64,
    );
    out.set(
        "trace.overhead_ratio",
        median_client(&traced) / median_client(&plain),
    );
    out.spans = Some(tr.to_json());
    out
}

pub fn trace_churn(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let fill = suite_jobs(1);
    let n = if opts.quick {
        QUICK_REQUESTS
    } else {
        TRACE_CHURN
    };
    let jobs = churn_jobs(opts, &fill, 2 * n);
    let (plain_jobs, traced_jobs) = jobs.split_at(n);
    let closed = || Pace::Closed {
        min: n,
        budget: None,
    };

    let server = filled_server(CHURN_CAPACITY, None, &fill);
    let cpu0 = cpu_seconds();
    let plain = load(
        server.addr(),
        &generate_requests(plain_jobs),
        closed(),
        None,
        |_| false,
    );
    out.set(
        "process.cpu_ms_per_op",
        (cpu_seconds() - cpu0) * 1e3 / n as f64,
    );
    server.shutdown();

    let log = access_log_path();
    let server = filled_server(CHURN_CAPACITY, Some(log.clone()), &fill);
    let kernels = snapshot(&server);
    let before = cache_counts(server.addr());
    let traced = load(
        server.addr(),
        &generate_requests(traced_jobs),
        closed(),
        Some(TRACE_ID),
        |_| true,
    );
    let after = cache_counts(server.addr());
    server.shutdown();
    let lines = read_access_log(&log);

    latencies(&traced, |_, _| true, &mut out);
    let mut tr = Tracer::default();
    serve_layers(&traced, &lines, &mut tr, &mut out);
    cache_deltas(before, after, &mut out);
    out.set("cache.insert_us", cache_insert_us(&kernels, traced_jobs));

    // The served generations rebuilt in process from public calls, each
    // compared with what the server sent for the same request.
    let mut counts = LayerCounts::default();
    for (i, (job, s)) in traced_jobs.iter().zip(&traced).enumerate() {
        match recompose(Kind::Cold, job, &mut tr, i as u32) {
            Ok(r) => {
                let body = s.body.as_deref();
                let identical = served_member(body, "config").as_deref() == Some(r.config.as_str())
                    && served_member(body, "cuda_source").as_deref() == Some(r.cuda.as_str())
                    && served_member(body, "opencl_source").as_deref() == Some(r.opencl.as_str());
                counts.add(&r, identical);
            }
            Err(e) => out.fail(1, format!("recomposing request {i}: {e}")),
        }
    }
    counts.report(&tr, n, &mut out);
    out.set(
        "trace.overhead_ratio",
        median_client(&traced) / median_client(&plain),
    );
    out.spans = Some(tr.to_json());
    out
}
