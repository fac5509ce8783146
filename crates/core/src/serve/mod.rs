//! `cogent serve`: a hardened, long-lived kernel-generation daemon.
//!
//! The server speaks minimal HTTP/1.1 over [`std::net::TcpListener`] —
//! no async runtime, no HTTP dependency — because the workload is a
//! handful of concurrent, CPU-bound kernel searches, not a C10K fan-out.
//! Every robustness mechanism is explicit:
//!
//! - **Backpressure.** Connection threads parse and validate cheaply,
//!   then `try_push` onto a bounded [`queue::JobQueue`]. A full queue is
//!   an immediate `429` with an honest `Retry-After` derived from the
//!   observed service-latency EWMA — never a hidden latency cliff.
//! - **Deadlines.** Every request carries a deadline (`deadline_ms`,
//!   clamped to a server maximum). It bounds queue wait *and* search
//!   time: expired-in-queue jobs answer `504` without running, and live
//!   jobs pass the remaining budget to the search as
//!   [`SearchOptions::time_budget`](crate::select::SearchOptions).
//! - **Panic isolation.** Workers run jobs under
//!   [`std::panic::catch_unwind`]; a panicking job becomes a typed `500`
//!   (`worker_panic`) and the worker lives on. The process never dies
//!   from a request.
//! - **Crash-safe persistence.** With a cache directory configured, the
//!   kernel cache is checkpointed through [`crate::persist`] after every
//!   insert and restored at startup (corrupt shards quarantined, never
//!   fatal), so a killed server restarts with byte-identical warm
//!   responses.
//! - **Graceful drain.** Shutdown stops accepting, lets queued jobs
//!   finish inside a drain budget, then persists the cache. The abrupt
//!   [`Server::kill`] path skips the final persist to emulate a crash
//!   for the chaos suite.

pub mod fault;
pub mod handlers;
pub mod http;
pub mod queue;

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cogent_obs::flight::{FlightRecorder, FlightTimeline};
use cogent_obs::json::Json;
use cogent_obs::{metrics_snapshot, render_prometheus, Capture};

use crate::cache::KernelCache;
use crate::persist::{CachePersister, PersistError};

pub use fault::ServeFault;
pub use handlers::{GenerateSpec, JobKind};
pub use http::{ReadLimits, Request, Response};
pub use queue::{JobQueue, PushError};

/// Everything [`Server::spawn`] needs. [`ServeConfig::default`] binds an
/// ephemeral loopback port (test-friendly); the CLI overrides the
/// address and applies strict environment parsing via
/// [`ServeConfig::from_env`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7437`. Port `0` picks a free port.
    pub addr: String,
    /// Worker threads running kernel generation.
    pub workers: usize,
    /// Bounded admission-queue depth (beyond it: `429`).
    pub queue_depth: usize,
    /// Concurrent-connection cap (beyond it: `503`).
    pub max_conns: usize,
    /// Deadline applied when a request has no `deadline_ms`.
    pub default_deadline: Duration,
    /// Upper clamp for client-supplied deadlines.
    pub max_deadline: Duration,
    /// How long shutdown waits for queued jobs before joining workers.
    pub drain_timeout: Duration,
    /// Socket read limits (slowloris/oversize defense).
    pub limits: ReadLimits,
    /// Kernel-cache capacity (entries).
    pub cache_capacity: usize,
    /// Cache persistence directory; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Honor the `"inject"` request member (chaos tests only).
    pub allow_fault_injection: bool,
    /// Requests slower than this trigger a flight dump (when a flight
    /// directory is configured).
    pub slow_threshold: Duration,
    /// How many recent requests the flight recorder retains.
    pub flight_capacity: usize,
    /// Directory receiving `cogent.flight.v1` dumps on panic, slow
    /// requests, and drain; `None` disables file dumps (the
    /// `GET /v1/debug/flight` endpoint still works).
    pub flight_dir: Option<PathBuf>,
    /// Structured access log destination (`-` for stdout); `None`
    /// disables the log.
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            max_conns: 64,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(10),
            limits: ReadLimits::default(),
            cache_capacity: crate::cache::DEFAULT_CAPACITY,
            cache_dir: None,
            allow_fault_injection: false,
            slow_threshold: Duration::from_secs(10),
            flight_capacity: 256,
            flight_dir: None,
            access_log: None,
        }
    }
}

impl ServeConfig {
    /// Defaults overlaid with the `COGENT_*` environment, parsed
    /// *strictly*: a daemon that silently ignored a typo'd
    /// `COGENT_CACHE_CAP=10O` would run for weeks with the wrong
    /// capacity, so any malformed value refuses startup.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic naming the offending variable and value.
    pub fn from_env() -> Result<Self, String> {
        let mut config = Self {
            cache_capacity: crate::cache::capacity_from_env()?,
            workers: crate::select::threads_from_env_checked()?,
            ..Self::default()
        };
        if let Ok(dir) = std::env::var(crate::persist::CACHE_DIR_ENV_VAR) {
            if !dir.is_empty() {
                config.cache_dir = Some(PathBuf::from(dir));
            }
        }
        Ok(config)
    }
}

/// Where the structured access log goes.
enum AccessLogSink {
    /// `--access-log -`.
    Stdout,
    /// `--access-log FILE` (append).
    File(std::fs::File),
}

impl AccessLogSink {
    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        match self {
            AccessLogSink::Stdout => {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                writeln!(lock, "{line}")
            }
            AccessLogSink::File(file) => writeln!(file, "{line}"),
        }
    }
}

/// Issues fallback request ids (`req-000001`, ...) for requests that do
/// not carry an `X-Request-Id` header. Process-wide and monotone, so ids
/// in a flight dump sort in admission order.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(1);

fn next_request_id() -> String {
    format!("req-{:06}", REQUEST_SEQ.fetch_add(1, Ordering::Relaxed))
}

/// The request's id: the client-supplied `X-Request-Id` when it is
/// printable ASCII of sane length, a generated counter id otherwise.
fn request_id_of(request: &Request) -> String {
    match request.header("x-request-id") {
        Some(id)
            if !id.is_empty() && id.len() <= 128 && id.bytes().all(|b| b.is_ascii_graphic()) =>
        {
            id.to_string()
        }
        _ => next_request_id(),
    }
}

/// State shared by connection threads, workers, and handlers.
pub struct SharedState {
    /// The kernel cache serving warm requests.
    pub cache: Arc<KernelCache>,
    /// Crash-safe checkpointing, when a cache directory is configured.
    pub persister: Option<CachePersister>,
    /// Whether requests may carry an `"inject"` fault (chaos tests).
    pub allow_fault_injection: bool,
    /// Deadline for requests without `deadline_ms`.
    pub default_deadline: Duration,
    /// Upper clamp for client deadlines.
    pub max_deadline: Duration,
    /// The flight recorder holding recent request timelines.
    pub flight: FlightRecorder,
    draining: AtomicBool,
    quarantined_files: AtomicUsize,
    started: Instant,
    slow_threshold: Duration,
    flight_dir: Option<PathBuf>,
    flight_dumps: AtomicUsize,
    access_log: Option<Mutex<AccessLogSink>>,
}

impl SharedState {
    /// Minimal state for handler unit tests: no persistence, generous
    /// deadlines.
    pub fn for_tests(cache: Arc<KernelCache>, allow_fault_injection: bool) -> Self {
        Self {
            cache,
            persister: None,
            allow_fault_injection,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(300),
            flight: FlightRecorder::new(64),
            draining: AtomicBool::new(false),
            quarantined_files: AtomicUsize::new(0),
            started: Instant::now(),
            slow_threshold: Duration::from_secs(10),
            flight_dir: None,
            flight_dumps: AtomicUsize::new(0),
            access_log: None,
        }
    }

    /// Whether the server is draining (shutdown in progress).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Closes a request's timeline: writes the access-log line, folds the
    /// per-endpoint SLO histograms, pushes the record into the flight
    /// ring, and dumps the ring when the request breached the slow
    /// threshold. The single exit point every request outcome funnels
    /// through, whichever thread ends up owning the timeline.
    fn finish_request(&self, timeline: FlightTimeline, status: u16) {
        let record = timeline.finish(status);
        if let Some(sink) = &self.access_log {
            let line = record.access_log_line();
            let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
            if sink.write_line(&line).is_err() {
                cogent_obs::counter("serve.access_log.error", 1);
            }
        }
        cogent_obs::histogram(
            &format!("serve.endpoint.{}.latency_ns", record.endpoint),
            u128::from(record.total_ns),
        );
        cogent_obs::histogram(
            &format!("serve.endpoint.{}.queue_wait_ns", record.endpoint),
            u128::from(record.queue_wait_ns),
        );
        let slow = u128::from(record.total_ns) > self.slow_threshold.as_nanos();
        self.flight.record(record);
        if slow {
            cogent_obs::counter("serve.flight.slow_request", 1);
            self.dump_flight("slow");
        }
    }

    /// Writes the flight ring as a `cogent.flight.v1` JSON file into the
    /// configured flight directory (`flight-<reason>-<seq>.json`). A
    /// no-op without a directory; write failures are counted, never
    /// fatal.
    fn dump_flight(&self, reason: &str) {
        let Some(dir) = &self.flight_dir else {
            return;
        };
        let seq = self.flight_dumps.fetch_add(1, Ordering::SeqCst);
        let path = dir.join(format!("flight-{reason}-{seq:04}.json"));
        let mut text = String::new();
        self.flight.to_json().write(&mut text);
        text.push('\n');
        if std::fs::write(&path, text).is_err() {
            cogent_obs::counter("serve.flight.dump_error", 1);
        }
    }
}

/// One admitted request, in flight between a connection thread and a
/// worker. Dropping a `Job` unanswered (abrupt kill) disconnects the
/// reply channel, which the connection thread answers as a `503`.
struct Job {
    kind: handlers::JobKind,
    deadline: Instant,
    /// When the connection thread pushed the job (queue-wait attribution).
    enqueued: Instant,
    /// The request's flight timeline; the worker finishes it.
    timeline: FlightTimeline,
    reply: mpsc::SyncSender<Response>,
}

/// Why the server failed to start or persist.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind.
    Bind {
        /// The requested address.
        addr: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Cache persistence failed at the directory level.
    Persist(PersistError),
    /// A thread could not be spawned.
    Spawn(std::io::Error),
    /// Environment configuration was malformed.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Persist(err) => write!(f, "{err}"),
            ServeError::Spawn(err) => write!(f, "cannot spawn server thread: {err}"),
            ServeError::Config(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PersistError> for ServeError {
    fn from(err: PersistError) -> Self {
        ServeError::Persist(err)
    }
}

/// A running server. Keep the handle alive; dropping it leaks the
/// threads until process exit (use [`Server::shutdown`] or
/// [`Server::kill`]).
pub struct Server {
    addr: SocketAddr,
    state: Arc<SharedState>,
    queue: Arc<JobQueue<Job>>,
    stop_accepting: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
}

impl Server {
    /// Binds, restores the cache from disk (if configured), and starts
    /// the accept loop plus worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the bind, the cache directory, or a thread
    /// spawn fails. Corrupt cache *content* is never an error — shards
    /// that fail checksum or semantic validation are quarantined and the
    /// server starts with whatever survived.
    pub fn spawn(config: ServeConfig) -> Result<Server, ServeError> {
        cogent_obs::set_enabled(true);
        let cache = Arc::new(KernelCache::new(config.cache_capacity));
        let mut quarantined = 0;
        let persister = match &config.cache_dir {
            None => None,
            Some(dir) => {
                let persister = CachePersister::new(dir)?;
                let report = persister.load(&cache)?;
                quarantined = report.quarantined.len();
                // Rewrite the on-disk state right away: quarantined
                // shards are rebuilt from the surviving entries and a
                // changed shard count is renormalized.
                persister.save_all(&cache)?;
                Some(persister)
            }
        };
        let flight_dir = match &config.flight_dir {
            None => None,
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(ServeError::Spawn)?;
                Some(dir.clone())
            }
        };
        let access_log = match &config.access_log {
            None => None,
            Some(path) if path.as_os_str() == "-" => Some(Mutex::new(AccessLogSink::Stdout)),
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(ServeError::Spawn)?;
                Some(Mutex::new(AccessLogSink::File(file)))
            }
        };
        let state = Arc::new(SharedState {
            cache,
            persister,
            allow_fault_injection: config.allow_fault_injection,
            default_deadline: config.default_deadline,
            max_deadline: config.max_deadline,
            flight: FlightRecorder::new(config.flight_capacity),
            draining: AtomicBool::new(false),
            quarantined_files: AtomicUsize::new(quarantined),
            started: Instant::now(),
            slow_threshold: config.slow_threshold,
            flight_dir,
            flight_dumps: AtomicUsize::new(0),
            access_log,
        });
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let addr = listener.local_addr().map_err(ServeError::Spawn)?;
        // Non-blocking accept so the loop can observe the stop flag:
        // glibc installs SA_RESTART semantics, so a blocking accept would
        // never return on a handled signal.
        listener.set_nonblocking(true).map_err(ServeError::Spawn)?;

        let worker_count = config.workers.max(1);
        let queue = Arc::new(JobQueue::new(config.queue_depth));
        let stop_accepting = Arc::new(AtomicBool::new(false));

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name(format!("cogent-worker-{i}"))
                .spawn(move || worker_loop(&queue, &state))
                .map_err(ServeError::Spawn)?;
            workers.push(handle);
        }

        let accept_thread = {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop_accepting);
            let limits = config.limits;
            let max_conns = config.max_conns.max(1);
            std::thread::Builder::new()
                .name("cogent-accept".to_string())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &stop,
                        &state,
                        &queue,
                        &limits,
                        max_conns,
                        worker_count,
                    );
                })
                .map_err(ServeError::Spawn)?
        };

        Ok(Server {
            addr,
            state,
            queue,
            stop_accepting,
            accept_thread: Some(accept_thread),
            workers,
            drain_timeout: config.drain_timeout,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (cache, persistence), for tests and the CLI.
    pub fn state(&self) -> &Arc<SharedState> {
        &self.state
    }

    /// Graceful drain: stop accepting, answer new pushes with `503`,
    /// let queued jobs finish within the drain budget, join the threads,
    /// and persist the final cache state.
    pub fn shutdown(mut self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.stop_accepting.store(true, Ordering::SeqCst);
        self.queue.close();
        let drain_by = Instant::now() + self.drain_timeout;
        while !self.queue.is_empty() && Instant::now() < drain_by {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Past the budget: drop whatever is still queued so workers can
        // exit; their reply channels disconnect and the waiting
        // connections answer 503.
        self.queue.clear();
        self.join_threads();
        // Drain dump: the final flight ring is an operator artifact for
        // post-mortems even on clean shutdowns.
        self.state.dump_flight("drain");
        if let Some(persister) = &self.state.persister {
            if persister.save_all(&self.state.cache).is_err() {
                cogent_obs::counter("serve.persist.error", 1);
            }
        }
    }

    /// Abrupt stop that emulates a crash for the chaos suite: queued
    /// jobs are dropped and the final [`CachePersister::save_all`] is
    /// *skipped* — the on-disk state must already be recoverable from
    /// the incremental checkpoints alone.
    pub fn kill(mut self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.stop_accepting.store(true, Ordering::SeqCst);
        self.queue.close();
        self.queue.clear();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        for thread in self.workers.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Polls for connections until the stop flag rises. Each connection gets
/// its own short-lived thread, bounded by `max_conns`.
fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    state: &Arc<SharedState>,
    queue: &Arc<JobQueue<Job>>,
    limits: &ReadLimits,
    max_conns: usize,
    worker_count: usize,
) {
    let conns = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let active = conns.fetch_add(1, Ordering::SeqCst) + 1;
                if active > max_conns {
                    conns.fetch_sub(1, Ordering::SeqCst);
                    Response::error(
                        503,
                        "Service Unavailable",
                        "too_many_connections",
                        "connection limit reached; retry shortly",
                    )
                    .with_request_id(&next_request_id())
                    .send(&mut stream);
                    continue;
                }
                let state = Arc::clone(state);
                let queue = Arc::clone(queue);
                let conn_count = Arc::clone(&conns);
                let limits = *limits;
                let spawned = std::thread::Builder::new()
                    .name("cogent-conn".to_string())
                    .spawn(move || {
                        // Accepted sockets may inherit the listener's
                        // non-blocking mode on some platforms; the read
                        // path relies on timeouts instead.
                        let _ = stream.set_nonblocking(false);
                        handle_connection(&mut stream, &state, &queue, &limits, worker_count);
                        conn_count.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Reads one request, routes it, sends one response, closes. Metrics are
/// recorded under a per-connection capture so they reach the process
/// registry.
fn handle_connection(
    stream: &mut TcpStream,
    state: &Arc<SharedState>,
    queue: &Arc<JobQueue<Job>>,
    limits: &ReadLimits,
    worker_count: usize,
) {
    let accepted = Instant::now();
    let capture = Capture::start("serve.conn");
    let response = match http::read_request(stream, limits) {
        Ok(request) => Some(route(&request, state, queue, worker_count, accepted)),
        Err(err) => match err.status() {
            Some((status, reason, code)) => {
                cogent_obs::counter("serve.http_error", 1);
                let id = next_request_id();
                state.finish_request(
                    FlightTimeline::start_at(accepted, &id, "http_error"),
                    status,
                );
                Some(Response::error(status, reason, code, &err.detail()).with_request_id(&id))
            }
            // Mid-request disconnect: nobody is listening; just count it.
            None => {
                cogent_obs::counter("serve.disconnect", 1);
                None
            }
        },
    };
    if let Some(response) = response {
        cogent_obs::counter(&format!("serve.status.{}", response.status), 1);
        response.send(stream);
    }
    let _ = capture.finish();
}

/// Records the flight timeline for an endpoint answered inline on the
/// connection thread (no queue hop) and tags the response with the id.
fn finish_simple(
    state: &SharedState,
    accepted: Instant,
    id: &str,
    endpoint: &str,
    response: Response,
) -> Response {
    state.finish_request(
        FlightTimeline::start_at(accepted, id, endpoint),
        response.status,
    );
    response.with_request_id(id)
}

/// A flight-record endpoint label for a request that never parsed far
/// enough to know its handler (`/v1/generate` → `generate`).
fn endpoint_label(path: &str) -> String {
    let trimmed = path.trim_start_matches("/v1/").trim_matches('/');
    if trimmed.is_empty() {
        "unknown".to_string()
    } else {
        trimmed.replace('/', "_")
    }
}

fn route(
    request: &Request,
    state: &Arc<SharedState>,
    queue: &Arc<JobQueue<Job>>,
    worker_count: usize,
    accepted: Instant,
) -> Response {
    let id = request_id_of(request);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => finish_simple(
            state,
            accepted,
            &id,
            "healthz",
            healthz(state, queue, worker_count),
        ),
        ("GET", "/metrics") => finish_simple(
            state,
            accepted,
            &id,
            "metrics",
            Response::text(200, "OK", render_prometheus(&metrics_snapshot())),
        ),
        ("GET", "/v1/debug/flight") => finish_simple(
            state,
            accepted,
            &id,
            "debug_flight",
            Response::json(200, "OK", &state.flight.to_json()),
        ),
        ("GET", _) => finish_simple(
            state,
            accepted,
            &id,
            "not_found",
            Response::error(
                404,
                "Not Found",
                "not_found",
                "known GET endpoints: /healthz, /metrics, /v1/debug/flight",
            ),
        ),
        ("POST", path) => dispatch(
            path,
            &request.body,
            state,
            queue,
            worker_count,
            accepted,
            &id,
        ),
        (method, _) => finish_simple(
            state,
            accepted,
            &id,
            "method_not_allowed",
            Response::error(
                405,
                "Method Not Allowed",
                "method_not_allowed",
                &format!("method {method:?} not supported; use GET or POST"),
            ),
        ),
    }
}

/// Parses, admits, and awaits one POST job. Parse failures answer 4xx
/// without consuming a queue slot; admission failures are the explicit
/// backpressure path.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    path: &str,
    body: &[u8],
    state: &Arc<SharedState>,
    queue: &Arc<JobQueue<Job>>,
    worker_count: usize,
    accepted: Instant,
    id: &str,
) -> Response {
    if state.draining() {
        return finish_simple(
            state,
            accepted,
            id,
            &endpoint_label(path),
            draining_response(),
        );
    }
    let (kind, deadline) = match handlers::parse_job(path, body, state) {
        Ok(parsed) => parsed,
        Err(response) => {
            cogent_obs::counter("serve.request.rejected", 1);
            return finish_simple(state, accepted, id, &endpoint_label(path), response);
        }
    };
    cogent_obs::counter(&format!("serve.request.{}", kind.endpoint()), 1);
    let mut timeline = FlightTimeline::start_at(accepted, id, kind.endpoint());
    timeline.mark("queued");
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = Job {
        kind,
        deadline,
        enqueued: Instant::now(),
        timeline,
        reply: reply_tx,
    };
    match queue.try_push(job) {
        Ok(depth) => cogent_obs::gauge("serve.queue_depth", depth as f64),
        Err(PushError::Full(job)) => {
            cogent_obs::counter("serve.backpressure.rejected", 1);
            let mut timeline = job.timeline;
            timeline.mark("rejected.queue_full");
            state.finish_request(timeline, 429);
            return Response::error(
                429,
                "Too Many Requests",
                "overloaded",
                "admission queue is full; retry after the indicated delay",
            )
            .with_header(
                "Retry-After",
                queue.retry_after_secs(worker_count).to_string(),
            )
            .with_request_id(id);
        }
        Err(PushError::Closed(job)) => {
            let mut timeline = job.timeline;
            timeline.mark("rejected.draining");
            state.finish_request(timeline, 503);
            return draining_response().with_request_id(id);
        }
    }
    // The worker enforces the deadline itself (expired-in-queue jobs
    // answer 504 without running); the grace here only covers a worker
    // wedged inside non-interruptible code.
    let grace = deadline.saturating_duration_since(Instant::now()) + Duration::from_secs(10);
    match reply_rx.recv_timeout(grace) {
        // The worker tagged the response and finished the timeline.
        Ok(response) => response,
        // The worker still owns the real timeline; an orphan record keeps
        // the outcome the *client* saw visible in the flight ring.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            let mut orphan = FlightTimeline::start_at(accepted, id, "reply_timeout");
            orphan.mark("reply.timeout");
            let response = handlers::deadline_response().with_request_id(id);
            state.finish_request(orphan, response.status);
            response
        }
        // The job was dropped unanswered (abrupt shutdown).
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let mut orphan = FlightTimeline::start_at(accepted, id, "reply_dropped");
            orphan.mark("reply.dropped");
            let response = draining_response().with_request_id(id);
            state.finish_request(orphan, response.status);
            response
        }
    }
}

fn draining_response() -> Response {
    Response::error(
        503,
        "Service Unavailable",
        "draining",
        "server is shutting down and no longer admits work",
    )
}

fn healthz(state: &Arc<SharedState>, queue: &Arc<JobQueue<Job>>, worker_count: usize) -> Response {
    let draining = state.draining();
    let stats = state.cache.stats();
    let body = Json::obj([
        (
            "status",
            Json::Str(if draining { "draining" } else { "ok" }.to_string()),
        ),
        (
            "uptime_s",
            Json::UInt(u128::from(state.started.elapsed().as_secs())),
        ),
        ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
        (
            "cores_visible",
            Json::UInt(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as u128,
            ),
        ),
        (
            "queue",
            Json::obj([
                ("depth", Json::UInt(queue.len() as u128)),
                ("capacity", Json::UInt(queue.capacity() as u128)),
                (
                    "wait_ewma_ns",
                    Json::UInt(u128::from(queue.queue_wait_ewma_ns())),
                ),
            ]),
        ),
        ("workers", Json::UInt(worker_count as u128)),
        (
            "cache",
            Json::obj([
                ("entries", Json::UInt(stats.entries as u128)),
                ("capacity", Json::UInt(stats.capacity as u128)),
                ("hits", Json::UInt(u128::from(stats.hits))),
                ("misses", Json::UInt(u128::from(stats.misses))),
                ("evictions", Json::UInt(u128::from(stats.evictions))),
            ]),
        ),
        (
            "persistence",
            Json::obj([
                ("enabled", Json::Bool(state.persister.is_some())),
                (
                    "quarantined_files",
                    Json::UInt(state.quarantined_files.load(Ordering::SeqCst) as u128),
                ),
            ]),
        ),
    ]);
    if draining {
        Response::json(503, "Service Unavailable", &body)
    } else {
        Response::json(200, "OK", &body)
    }
}

/// The worker loop: pop, enforce the deadline, run the job inside the
/// panic-isolation boundary, reply, record latency.
fn worker_loop(queue: &Arc<JobQueue<Job>>, state: &Arc<SharedState>) {
    while let Some(job) = queue.pop() {
        let started = Instant::now();
        let capture = Capture::start("serve.job");
        let Job {
            kind,
            deadline,
            enqueued,
            mut timeline,
            reply,
        } = job;
        let wait = started.duration_since(enqueued);
        queue.record_queue_wait(wait);
        timeline.set_queue_wait_ns(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        timeline.mark("started");
        let mut panicked = false;
        let response = if started >= deadline {
            cogent_obs::counter("serve.deadline.queued_expired", 1);
            timeline.mark("deadline.queued_expired");
            handlers::deadline_response()
        } else {
            match catch_unwind(AssertUnwindSafe(|| {
                handlers::execute(&kind, deadline, state, &mut timeline)
            })) {
                Ok(response) => response,
                Err(_) => {
                    panicked = true;
                    cogent_obs::counter("serve.worker_panic", 1);
                    Response::error(
                        500,
                        "Internal Server Error",
                        "worker_panic",
                        "the worker panicked on this job; the panic was isolated \
                         and the server remains healthy",
                    )
                }
            }
        };
        if panicked {
            timeline.mark("panic");
        }
        cogent_obs::histogram("serve.latency_ns", started.elapsed().as_nanos());
        queue.record_latency(started.elapsed());
        let response = response.with_request_id(timeline.id());
        let status = response.status;
        // The connection may have given up (timeout / disconnect); an
        // unreceived reply is not an error.
        let _ = reply.send(response);
        state.finish_request(timeline, status);
        if panicked {
            // After finish_request, so the dump contains this request's
            // own record with its panic-marked timeline.
            state.dump_flight("panic");
        }
        let _ = capture.finish();
    }
}

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn note_shutdown_signal(_signum: i32) {
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGTERM (15) and SIGINT (2) raise a flag polled by `run`; the
    // handler itself is async-signal-safe (one atomic store).
    let handler = note_shutdown_signal as *const () as usize;
    unsafe {
        signal(15, handler);
        signal(2, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Runs a server in the foreground until SIGTERM/SIGINT, then drains
/// gracefully. This is the `cogent serve` entry point.
///
/// # Errors
///
/// [`ServeError`] when startup fails; a received signal is a normal
/// return.
pub fn run(config: ServeConfig) -> Result<(), ServeError> {
    let server = Server::spawn(config)?;
    eprintln!("cogent serve: listening on http://{}", server.addr());
    install_signal_handlers();
    while !SIGNAL_SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("cogent serve: shutdown signal received, draining");
    server.shutdown();
    eprintln!("cogent serve: drained and persisted, bye");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn spawn_test_server(configure: impl FnOnce(&mut ServeConfig)) -> Server {
        let mut config = ServeConfig {
            workers: 2,
            queue_depth: 8,
            ..ServeConfig::default()
        };
        configure(&mut config);
        Server::spawn(config).expect("server spawns")
    }

    fn request_full(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
        let response = request_full(addr, raw);
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .expect("status line");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn healthz_metrics_and_generate_round_trip() {
        let server = spawn_test_server(|_| {});
        let addr = server.addr();
        let (status, body) = request(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"uptime_s\":"), "{body}");
        assert!(
            body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
            "{body}"
        );
        assert!(body.contains("\"cores_visible\":"), "{body}");
        assert!(body.contains("\"wait_ewma_ns\":"), "{body}");

        let (status, body) = post(
            addr,
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":16}"#,
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cache\":\"miss\""), "{body}");
        let (status, body) = post(
            addr,
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":16}"#,
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"cache\":\"hit\""), "{body}");

        let (status, metrics) = request(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("cogent_serve_request_generate_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("cogent_serve_endpoint_generate_latency_ns"),
            "{metrics}"
        );
        server.shutdown();
    }

    #[test]
    fn request_ids_echo_and_the_flight_ring_round_trips() {
        let server = spawn_test_server(|_| {});
        let addr = server.addr();
        let body = r#"{"contraction":"ij-ik-kj","uniform":8}"#;
        let full = request_full(
            addr,
            &format!(
                "POST /v1/generate HTTP/1.1\r\nHost: t\r\nX-Request-Id: test-abc-1\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(full.starts_with("HTTP/1.1 200"), "{full}");
        assert!(full.contains("X-Request-Id: test-abc-1"), "{full}");

        // A generated fallback id appears when the client sends none.
        let full = request_full(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(full.contains("X-Request-Id: req-"), "{full}");

        let (status, dump) = request(addr, "GET /v1/debug/flight HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let records = cogent_obs::flight::parse_dump(&dump).expect("valid flight schema");
        let record = records
            .iter()
            .find(|r| r.id == "test-abc-1")
            .expect("the generate request is in the ring");
        assert_eq!(record.endpoint, "generate");
        assert_eq!(record.status, 200);
        for label in ["accepted", "queued", "started", "responded"] {
            assert!(
                record.events.iter().any(|e| e.label == label),
                "timeline missing {label:?}: {:?}",
                record.events
            );
        }
        server.shutdown();
    }

    #[test]
    fn draining_server_refuses_new_work() {
        let server = spawn_test_server(|_| {});
        let addr = server.addr();
        server.state().draining.store(true, Ordering::SeqCst);
        let (status, body) = post(
            addr,
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":8}"#,
        );
        assert_eq!(status, 503);
        assert!(body.contains("draining"), "{body}");
        let (status, _) = request(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 503, "healthz reports draining");
        server.kill();
    }

    #[test]
    fn unknown_paths_and_methods_are_typed_errors() {
        let server = spawn_test_server(|_| {});
        let addr = server.addr();
        let (status, _) = request(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);
        let (status, body) = request(addr, "DELETE /v1/generate HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 405);
        assert!(body.contains("method_not_allowed"), "{body}");
        server.shutdown();
    }
}
