//! Observability for the COGENT pipeline.
//!
//! This crate provides hierarchical wall-clock **spans** with attached
//! **counters**, collected into a [`PipelineTrace`] that the generator
//! attaches to every kernel it produces (and that `cogent explain`
//! renders). It is deliberately dependency-free: timings come from
//! [`std::time::Instant`], serialization is a hand-rolled JSON subset
//! ([`json`]), and thread safety comes from [`std::sync`] atomics plus a
//! thread-local span stack.
//!
//! # Model
//!
//! - Tracing is **globally opt-in** via [`set_enabled`] (or the
//!   `COGENT_TRACE` environment variable through [`init_from_env`]).
//!   While disabled, [`span`], [`counter`] and [`Capture::start`] are a
//!   single relaxed atomic load and allocate nothing — verified by the
//!   [`nodes_allocated`] statistic.
//! - A [`Capture`] opens a trace on the **current thread**; [`span`]
//!   guards opened underneath it nest into a tree, and [`counter`] calls
//!   accumulate `phase.metric`-style counters on the innermost open span.
//!   Per-thread collection means parallel pipeline runs (e.g. the bench
//!   binaries) never interleave each other's spans.
//! - Finished traces can be published to a process-wide [`registry`] so
//!   worker threads can hand traces to a writer thread. Independently of
//!   traces, every closed span folds its counters, histograms, gauges and
//!   duration into a per-thread **metric shard**; shards register
//!   themselves on first use, drain into a global accumulator when their
//!   thread exits, and merge losslessly into a process-wide
//!   [`registry::metrics_snapshot`] (rendered by
//!   [`registry::render_prometheus`]).
//! - Worker threads can contribute spans to a trace owned by another
//!   thread through [`fork`]: the parent forks a handle while its capture
//!   is open, each worker opens a span against the handle, and the parent
//!   [`TraceFork::attach`]es the collected subtrees in a deterministic
//!   order after joining. Every span carries the [`thread_ordinal`] of
//!   the thread that recorded it, so [`chrome`] exports render real
//!   per-worker timelines.
//!
//! # Example
//!
//! ```
//! cogent_obs::set_enabled(true);
//! let capture = cogent_obs::Capture::start("generate");
//! {
//!     let _s = cogent_obs::span("enumerate");
//!     cogent_obs::counter("enumerate.configs", 1296);
//! }
//! let trace = capture.finish().expect("tracing is enabled");
//! cogent_obs::set_enabled(false);
//! assert_eq!(trace.root.name, "generate");
//! assert_eq!(trace.root.children[0].counter("enumerate.configs"), Some(1296));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod render;

pub use registry::{
    live_shards, metrics_snapshot, render_prometheus, reset_metrics, threads_seen, MetricsShard,
};

use metrics::Histogram;

/// Schema identifier embedded in every serialized trace: spans with
/// counters, histograms, gauges and a `thread` ordinal, plus a derived
/// top-level `profile` section.
pub const TRACE_SCHEMA: &str = "cogent.trace.v3";

/// Environment variable that enables tracing for the CLI and benches.
pub const TRACE_ENV_VAR: &str = "COGENT_TRACE";

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// One timed phase of the pipeline, with counters, histograms, gauges and
/// nested child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Phase name, e.g. `"enumerate"` or `"simulate"`.
    pub name: String,
    /// Start offset in nanoseconds relative to the capture's start.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (always at least 1 once closed).
    pub duration_ns: u64,
    /// `phase.metric`-named counters, in first-touch order.
    pub counters: Vec<(String, u128)>,
    /// `phase.metric`-named log-bucketed histograms, in first-touch order.
    pub histograms: Vec<(String, Histogram)>,
    /// `phase.metric`-named last-value gauges, in first-touch order.
    pub gauges: Vec<(String, f64)>,
    /// [`thread_ordinal`] of the thread that recorded this span (0 for
    /// spans parsed from pre-v3 documents).
    pub thread: u32,
    /// Nested spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &str, start_ns: u64) -> Self {
        NODES_ALLOCATED.fetch_add(1, Ordering::Relaxed);
        Self::closed(name, start_ns, 0)
    }

    /// Adds `value` to the counter `name`, creating it at zero if absent.
    pub fn add_counter(&mut self, name: &str, value: u128) {
        if let Some((_, v)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *v += value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }

    /// Records `value` into the histogram `name`, creating it if absent.
    pub fn record_histogram(&mut self, name: &str, value: u128) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.push((name.to_string(), h));
        }
    }

    /// Sets the gauge `name` to `value`, creating it if absent.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if let Some((_, g)) = self.gauges.iter_mut().find(|(n, _)| n == name) {
            *g = value;
        } else {
            self.gauges.push((name.to_string(), value));
        }
    }

    /// Returns the histogram `name` on this span, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Returns the value of gauge `name` on this span, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Returns the value of counter `name` on this span, if present.
    pub fn counter(&self, name: &str) -> Option<u128> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Depth-first search for the first descendant (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Collects every span (self included) named `name`, depth-first.
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a SpanNode>) {
        if self.name == name {
            out.push(self);
        }
        for child in &self.children {
            child.find_all(name, out);
        }
    }

    /// Sums, over this subtree, every counter whose name starts with
    /// `prefix`.
    pub fn counter_sum_prefix(&self, prefix: &str) -> u128 {
        let own: u128 = self
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum();
        own + self
            .children
            .iter()
            .map(|c| c.counter_sum_prefix(prefix))
            .sum::<u128>()
    }

    /// A closed span of `duration_ns` (at least 1) from `start_ns`,
    /// built from instants taken outside a capture, such as the `read`
    /// and `queue` spans of a served request's record. Not counted by
    /// [`nodes_allocated`], which counts what tracing allocates.
    pub fn closed(name: &str, start_ns: u64, duration_ns: u64) -> Self {
        Self {
            name: name.to_string(),
            start_ns,
            duration_ns: duration_ns.max(1),
            counters: Vec::new(),
            histograms: Vec::new(),
            gauges: Vec::new(),
            thread: thread_ordinal(),
            children: Vec::new(),
        }
    }

    /// Moves this subtree `offset_ns` later (earlier when negative,
    /// clamped at 0): onto the clock of an enclosing span that started
    /// earlier, or onto its own start.
    pub fn shift(&mut self, offset_ns: i64) {
        self.start_ns = self.start_ns.saturating_add_signed(offset_ns);
        for child in &mut self.children {
            child.shift(offset_ns);
        }
    }
}

/// A finished trace of one pipeline run: a tree of [`SpanNode`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    /// The outermost span (usually `"generate"`).
    pub root: SpanNode,
}

impl PipelineTrace {
    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        self.root.find(name)
    }

    /// Collects every span named `name`, depth-first.
    pub fn find_all(&self, name: &str) -> Vec<&SpanNode> {
        let mut out = Vec::new();
        self.root.find_all(name, &mut out);
        out
    }

    /// Sums every counter in the trace whose name starts with `prefix`.
    pub fn counter_sum_prefix(&self, prefix: &str) -> u128 {
        self.root.counter_sum_prefix(prefix)
    }

    /// Renders an indented text tree with durations and counters.
    pub fn render_text(&self) -> String {
        render::render_text(self)
    }

    /// Serializes to the stable `cogent.trace.v3` JSON schema. Histograms
    /// carry their raw buckets plus derived `p50`/`p90`/`p99` summaries,
    /// and the document carries a derived per-phase `profile` section
    /// (see [`profile::PhaseProfile`]); both are recomputable and ignored
    /// by the reader, but convenient for downstream consumers.
    pub fn to_json(&self) -> json::Json {
        fn histogram(h: &Histogram) -> json::Json {
            let mut members = vec![
                ("count".into(), json::Json::UInt(h.count())),
                ("sum".into(), json::Json::UInt(h.sum())),
                ("min".into(), json::Json::UInt(h.min().unwrap_or(0))),
                ("max".into(), json::Json::UInt(h.max().unwrap_or(0))),
                (
                    "buckets".into(),
                    json::Json::Array(
                        h.buckets()
                            .iter()
                            .map(|&(b, c)| {
                                json::Json::Array(vec![
                                    json::Json::UInt(b.into()),
                                    json::Json::UInt(c),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ];
            for (key, value) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
                if let Some(v) = value {
                    members.push((key.into(), json::Json::UInt(v)));
                }
            }
            json::Json::Object(members)
        }
        fn node(span: &SpanNode) -> json::Json {
            json::Json::Object(vec![
                ("name".into(), json::Json::Str(span.name.clone())),
                ("start_ns".into(), json::Json::UInt(span.start_ns.into())),
                (
                    "duration_ns".into(),
                    json::Json::UInt(span.duration_ns.into()),
                ),
                (
                    "counters".into(),
                    json::Json::Object(
                        span.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), json::Json::UInt(*v)))
                            .collect(),
                    ),
                ),
                (
                    "histograms".into(),
                    json::Json::Object(
                        span.histograms
                            .iter()
                            .map(|(k, h)| (k.clone(), histogram(h)))
                            .collect(),
                    ),
                ),
                (
                    "gauges".into(),
                    json::Json::Object(
                        span.gauges
                            .iter()
                            .map(|(k, v)| (k.clone(), json::Json::Float(*v)))
                            .collect(),
                    ),
                ),
                ("thread".into(), json::Json::UInt(span.thread.into())),
                (
                    "children".into(),
                    json::Json::Array(span.children.iter().map(node).collect()),
                ),
            ])
        }
        json::Json::Object(vec![
            ("schema".into(), json::Json::Str(TRACE_SCHEMA.into())),
            ("root".into(), node(&self.root)),
            (
                "profile".into(),
                profile::PhaseProfile::from_trace(self).to_json(),
            ),
        ])
    }

    /// Serializes to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a trace previously produced by [`Self::to_json_string`]
    /// ([`TRACE_SCHEMA`] only). The derived `profile` section is ignored —
    /// it is recomputed on the next serialization.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not valid JSON, the schema tag
    /// is missing or unknown, or a span field has the wrong type.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        Self::from_json(&json::Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// Parses a trace from an already parsed [`Self::to_json`] document,
    /// e.g. the `trace` member of a [`flight`] line.
    ///
    /// # Errors
    ///
    /// As [`Self::from_json_str`], less the JSON syntax errors.
    pub fn from_json(value: &json::Json) -> Result<Self, String> {
        let schema = value
            .get("schema")
            .and_then(json::Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != TRACE_SCHEMA {
            return Err(format!("unknown trace schema {schema:?}"));
        }
        fn histogram(value: &json::Json, key: &str) -> Result<Histogram, String> {
            let field = |name: &str| {
                value
                    .get(name)
                    .and_then(json::Json::as_u128)
                    .ok_or_else(|| format!("histogram {key:?} missing {name}"))
            };
            let buckets = value
                .get("buckets")
                .and_then(json::Json::as_array)
                .ok_or_else(|| format!("histogram {key:?} missing buckets"))?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().unwrap_or(&[]);
                    match (
                        pair.first().and_then(json::Json::as_u128),
                        pair.get(1).and_then(json::Json::as_u128),
                    ) {
                        (Some(b), Some(c)) if b < metrics::NUM_BUCKETS as u128 => Ok((b as u8, c)),
                        _ => Err(format!("histogram {key:?} has a malformed bucket")),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            Histogram::from_parts(
                field("count")?,
                field("sum")?,
                field("min")?,
                field("max")?,
                buckets,
            )
            .map_err(|e| format!("histogram {key:?}: {e}"))
        }
        fn node(value: &json::Json) -> Result<SpanNode, String> {
            let name = value
                .get("name")
                .and_then(json::Json::as_str)
                .ok_or("span missing name")?
                .to_string();
            let start_ns = value
                .get("start_ns")
                .and_then(json::Json::as_u128)
                .ok_or("span missing start_ns")? as u64;
            let duration_ns = value
                .get("duration_ns")
                .and_then(json::Json::as_u128)
                .ok_or("span missing duration_ns")? as u64;
            let counters = value
                .get("counters")
                .and_then(json::Json::as_object)
                .ok_or("span missing counters")?
                .iter()
                .map(|(k, v)| {
                    v.as_u128()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("counter {k:?} is not an unsigned integer"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let histograms = value
                .get("histograms")
                .and_then(json::Json::as_object)
                .ok_or("span missing histograms")?
                .iter()
                .map(|(k, v)| histogram(v, k).map(|h| (k.clone(), h)))
                .collect::<Result<Vec<_>, _>>()?;
            let gauges = value
                .get("gauges")
                .and_then(json::Json::as_object)
                .ok_or("span missing gauges")?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("gauge {k:?} is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let thread = value
                .get("thread")
                .and_then(json::Json::as_u128)
                .filter(|&t| t <= u128::from(u32::MAX))
                .ok_or("span thread is missing or not a u32")? as u32;
            let children = value
                .get("children")
                .and_then(json::Json::as_array)
                .ok_or("span missing children")?
                .iter()
                .map(node)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SpanNode {
                name,
                start_ns,
                duration_ns,
                counters,
                histograms,
                gauges,
                thread,
                children,
            })
        }
        let root = node(value.get("root").ok_or("missing root span")?)?;
        Ok(Self { root })
    }
}

// ---------------------------------------------------------------------------
// Global switch and statistics
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static NODES_ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static NEXT_THREAD_ORDINAL: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ORDINAL: u32 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
}

/// Turns tracing on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled. A single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Small dense ordinal of the calling thread, assigned on first use and
/// stable for the thread's lifetime. Recorded on every [`SpanNode`] so
/// multi-thread traces can be split back into per-worker timelines (the
/// [`chrome`] export uses it as the `tid`).
pub fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|t| *t)
}

/// Enables tracing when `COGENT_TRACE` is set to `1`, `true`, `on` or
/// `yes` (case-insensitive). Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(value) = std::env::var(TRACE_ENV_VAR) {
        let v = value.to_ascii_lowercase();
        if matches!(v.as_str(), "1" | "true" | "on" | "yes") {
            set_enabled(true);
        }
    }
    enabled()
}

/// Total [`SpanNode`]s ever allocated by the tracing machinery, the
/// copies a nested capture's [`Capture::finish`] makes included. Used to
/// assert that disabled tracing allocates nothing.
pub fn nodes_allocated() -> usize {
    NODES_ALLOCATED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Thread-local collection
// ---------------------------------------------------------------------------

struct Builder {
    epoch: Instant,
    /// Open spans, outermost first. Parallel with `starts`.
    stack: Vec<SpanNode>,
    starts: Vec<Instant>,
}

impl Builder {
    fn push(&mut self, name: &str) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(SpanNode::new(name, start_ns));
        self.starts.push(Instant::now());
    }

    fn pop(&mut self) -> SpanNode {
        let start = self.starts.pop().expect("span stack underflow");
        let mut node = self.stack.pop().expect("span stack underflow");
        node.duration_ns = (start.elapsed().as_nanos() as u64).max(1);
        node
    }
}

thread_local! {
    static BUILDER: RefCell<Option<Builder>> = const { RefCell::new(None) };
}

/// RAII guard for one pipeline phase; closing (dropping) it attaches the
/// span to its parent.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span named `name` under the current thread's capture.
///
/// Inert (no allocation, no timing) when tracing is disabled or when no
/// [`Capture`] is open on this thread.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    BUILDER.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(builder) => {
                builder.push(name);
                SpanGuard { active: true }
            }
            None => SpanGuard { active: false },
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        BUILDER.with(|cell| {
            let mut slot = cell.borrow_mut();
            if let Some(builder) = slot.as_mut() {
                let node = builder.pop();
                registry::fold_span(&node);
                if let Some(parent) = builder.stack.last_mut() {
                    parent.children.push(node);
                }
                // A guard outliving its capture is a misuse; the node is
                // silently discarded rather than panicking in a destructor.
            }
        });
    }
}

/// Adds `value` to counter `name` on the innermost open span of the
/// current thread. A no-op when tracing is disabled or no span is open.
pub fn counter(name: &str, value: u128) {
    if !enabled() {
        return;
    }
    BUILDER.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(builder) = slot.as_mut() {
            if let Some(top) = builder.stack.last_mut() {
                top.add_counter(name, value);
            }
        }
    });
}

/// Records `value` into histogram `name` on the innermost open span of
/// the current thread. A no-op when tracing is disabled or no span is
/// open.
pub fn histogram(name: &str, value: u128) {
    if !enabled() {
        return;
    }
    BUILDER.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(builder) = slot.as_mut() {
            if let Some(top) = builder.stack.last_mut() {
                top.record_histogram(name, value);
            }
        }
    });
}

/// Sets gauge `name` to `value` on the innermost open span of the current
/// thread. A no-op when tracing is disabled or no span is open.
pub fn gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    BUILDER.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some(builder) = slot.as_mut() {
            if let Some(top) = builder.stack.last_mut() {
                top.set_gauge(name, value);
            }
        }
    });
}

/// Opens (or nests into) a trace on the current thread.
///
/// The first `Capture` on a thread owns the trace; captures started while
/// another is open become nested spans, and their [`finish`](Self::finish)
/// returns a clone of just their subtree (with timestamps rebased to the
/// subtree start). Either way, `finish` returns `Some` whenever tracing
/// was enabled at start time.
#[must_use = "dropping a capture discards its trace; call finish()"]
pub struct Capture {
    active: bool,
    owns: bool,
}

impl Capture {
    /// Starts a capture named `name`. Inert when tracing is disabled.
    pub fn start(name: &str) -> Self {
        if !enabled() {
            return Self {
                active: false,
                owns: false,
            };
        }
        BUILDER.with(|cell| {
            let mut slot = cell.borrow_mut();
            match slot.as_mut() {
                Some(builder) => {
                    builder.push(name);
                    Self {
                        active: true,
                        owns: false,
                    }
                }
                None => {
                    let mut builder = Builder {
                        epoch: Instant::now(),
                        stack: Vec::new(),
                        starts: Vec::new(),
                    };
                    builder.push(name);
                    *slot = Some(builder);
                    Self {
                        active: true,
                        owns: true,
                    }
                }
            }
        })
    }

    /// Closes the capture and returns its trace (`None` when tracing was
    /// disabled at [`start`](Self::start)).
    pub fn finish(mut self) -> Option<PipelineTrace> {
        self.close(true)
    }

    /// Closes the span; a nested capture copies its subtree only when
    /// `keep` asks for the trace (the parent keeps the original).
    fn close(&mut self, keep: bool) -> Option<PipelineTrace> {
        if !self.active {
            return None;
        }
        self.active = false;
        BUILDER.with(|cell| {
            let mut slot = cell.borrow_mut();
            let builder = slot.as_mut()?;
            let node = builder.pop();
            registry::fold_span(&node);
            if self.owns {
                *slot = None;
                return Some(PipelineTrace { root: node });
            }
            let subtree = keep.then(|| node.clone());
            if let Some(parent) = builder.stack.last_mut() {
                parent.children.push(node);
            }
            subtree.map(|mut root| {
                fn count(node: &SpanNode) -> usize {
                    1 + node.children.iter().map(count).sum::<usize>()
                }
                NODES_ALLOCATED.fetch_add(count(&root), Ordering::Relaxed);
                root.shift(-(root.start_ns as i64));
                PipelineTrace { root }
            })
        })
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        // Keeps the thread-local stack balanced when a capture is dropped
        // without finish() (e.g. on an early return); the trace is
        // discarded, and a nested capture copies nothing.
        let _ = self.close(false);
    }
}

// ---------------------------------------------------------------------------
// Cross-thread span relay
// ---------------------------------------------------------------------------

/// A handle that lets worker threads contribute spans to the trace open
/// on the forking thread. See [`fork`].
pub struct TraceFork {
    /// The parent capture's epoch, so worker `start_ns` offsets land on
    /// the same timeline as the parent's spans.
    epoch: Instant,
    /// Closed worker subtrees, keyed by the caller-supplied index so
    /// [`attach`](Self::attach) can order them deterministically.
    sink: Mutex<Vec<(usize, SpanNode)>>,
}

/// Forks the trace currently open on this thread for use by worker
/// threads. Returns `None` when tracing is disabled or no span is open
/// (workers then skip instrumentation entirely).
///
/// Workers call [`TraceFork::open`] to start a span recorded on *their*
/// thread (carrying their [`thread_ordinal`]); after joining them, the
/// forking thread calls [`TraceFork::attach`] to splice the collected
/// subtrees into the still-open parent span, sorted by worker index so
/// the merged trace is deterministic regardless of scheduling.
///
/// # Examples
///
/// ```
/// cogent_obs::set_enabled(true);
/// let capture = cogent_obs::Capture::start("batch");
/// let fork = cogent_obs::fork().expect("capture is open");
/// std::thread::scope(|scope| {
///     for index in 0..2 {
///         let fork = &fork;
///         scope.spawn(move || {
///             let _w = fork.open("job", index);
///             cogent_obs::counter("prune.checked", 10);
///         });
///     }
/// });
/// fork.attach();
/// let trace = capture.finish().unwrap();
/// cogent_obs::set_enabled(false);
/// assert_eq!(trace.root.children.len(), 2);
/// assert_eq!(trace.counter_sum_prefix("prune.checked"), 20);
/// ```
pub fn fork() -> Option<TraceFork> {
    if !enabled() {
        return None;
    }
    BUILDER.with(|cell| {
        let slot = cell.borrow();
        slot.as_ref()
            .filter(|builder| !builder.stack.is_empty())
            .map(|builder| TraceFork {
                epoch: builder.epoch,
                sink: Mutex::new(Vec::new()),
            })
    })
}

impl TraceFork {
    /// Opens a span named `name` on the calling worker thread. When the
    /// guard drops, the closed subtree is handed back to the fork under
    /// `index` (workers must use distinct indices — chunk or job numbers).
    ///
    /// If the calling thread already has a trace open (nested
    /// parallelism), the span nests there instead of the fork, so spans
    /// are never lost or double-attached.
    pub fn open(&self, name: &str, index: usize) -> ForkGuard<'_> {
        BUILDER.with(|cell| {
            let mut slot = cell.borrow_mut();
            match slot.as_mut() {
                Some(builder) => {
                    builder.push(name);
                    ForkGuard {
                        fork: self,
                        index,
                        owns: false,
                    }
                }
                None => {
                    let mut builder = Builder {
                        epoch: self.epoch,
                        stack: Vec::new(),
                        starts: Vec::new(),
                    };
                    builder.push(name);
                    *slot = Some(builder);
                    ForkGuard {
                        fork: self,
                        index,
                        owns: true,
                    }
                }
            }
        })
    }

    /// Splices every collected worker subtree into the innermost span
    /// open on the calling thread, ordered by worker index. Call after
    /// joining the workers, while the forked span is still open. Subtrees
    /// are discarded if no span is open (e.g. the capture already closed).
    pub fn attach(self) {
        let mut nodes = self.sink.into_inner().unwrap_or_else(|e| e.into_inner());
        nodes.sort_by_key(|&(index, _)| index);
        BUILDER.with(|cell| {
            let mut slot = cell.borrow_mut();
            if let Some(builder) = slot.as_mut() {
                if let Some(top) = builder.stack.last_mut() {
                    top.children.extend(nodes.into_iter().map(|(_, node)| node));
                }
            }
        });
    }
}

/// RAII guard for a worker span opened through [`TraceFork::open`].
#[must_use = "dropping the guard immediately closes the worker span"]
pub struct ForkGuard<'fork> {
    fork: &'fork TraceFork,
    index: usize,
    /// Whether this guard installed the thread's builder (and must remove
    /// it and ship the span to the fork) or merely nested into one.
    owns: bool,
}

impl Drop for ForkGuard<'_> {
    fn drop(&mut self) {
        BUILDER.with(|cell| {
            let mut slot = cell.borrow_mut();
            let Some(builder) = slot.as_mut() else {
                return;
            };
            let node = builder.pop();
            registry::fold_span(&node);
            if self.owns {
                *slot = None;
                let mut sink = self.fork.sink.lock().unwrap_or_else(|e| e.into_inner());
                sink.push((self.index, node));
            } else if let Some(parent) = builder.stack.last_mut() {
                parent.children.push(node);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global flag.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
        let _guard = LOCK.lock().unwrap();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn capture_builds_span_tree() {
        let trace = with_tracing(|| {
            let capture = Capture::start("generate");
            {
                let _a = span("enumerate");
                counter("enumerate.configs", 10);
                counter("enumerate.configs", 5);
            }
            {
                let _b = span("prune");
                {
                    let _c = span("relax");
                }
            }
            capture.finish().unwrap()
        });
        assert_eq!(trace.root.name, "generate");
        assert_eq!(trace.root.children.len(), 2);
        let enumerate = &trace.root.children[0];
        assert_eq!(enumerate.counter("enumerate.configs"), Some(15));
        assert!(enumerate.duration_ns >= 1);
        assert_eq!(trace.root.children[1].children[0].name, "relax");
        assert!(trace.find("relax").is_some());
        assert!(trace.find("missing").is_none());
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(false);
        let before = nodes_allocated();
        let capture = Capture::start("generate");
        {
            let _s = span("enumerate");
            counter("enumerate.configs", 3);
        }
        assert!(capture.finish().is_none());
        assert_eq!(nodes_allocated(), before);
    }

    #[test]
    fn nested_capture_returns_subtree() {
        let (outer, inner) = with_tracing(|| {
            let outer = Capture::start("cli");
            let inner = Capture::start("generate");
            {
                let _s = span("codegen");
            }
            let inner_trace = inner.finish().unwrap();
            (outer.finish().unwrap(), inner_trace)
        });
        assert_eq!(inner.root.name, "generate");
        assert_eq!(inner.root.start_ns, 0, "nested capture is rebased");
        assert_eq!(inner.root.children[0].name, "codegen");
        // The outer trace still contains the full tree.
        assert_eq!(outer.root.name, "cli");
        assert!(outer.find("codegen").is_some());
    }

    #[test]
    fn dropped_nested_capture_copies_nothing() {
        let (kept, dropped, outer) = with_tracing(|| {
            let outer = Capture::start("cli");
            let [kept, dropped] = [true, false].map(|keep| {
                let before = nodes_allocated();
                let inner = Capture::start("generate");
                drop(span("search"));
                if keep {
                    assert!(inner.finish().is_some());
                } else {
                    drop(inner);
                }
                nodes_allocated() - before
            });
            (kept, dropped, outer.finish().unwrap())
        });
        assert_eq!(dropped, 2, "the two spans, and no copy of them");
        assert_eq!(kept, 4, "finish() copies the two-span subtree");
        assert_eq!(outer.find_all("generate").len(), 2, "both stay nested");
    }

    #[test]
    fn counter_sum_prefix_walks_subtree() {
        let trace = with_tracing(|| {
            let capture = Capture::start("generate");
            {
                let _s = span("prune");
                counter("prune.reject.smem", 7);
                counter("prune.reject.regs", 3);
                counter("prune.survivors", 100);
            }
            capture.finish().unwrap()
        });
        assert_eq!(trace.counter_sum_prefix("prune.reject."), 10);
        assert_eq!(trace.counter_sum_prefix("prune."), 110);
    }

    #[test]
    fn span_without_capture_is_inert() {
        with_tracing(|| {
            let before = nodes_allocated();
            let _s = span("orphan");
            counter("orphan.count", 1);
            assert_eq!(nodes_allocated(), before);
        });
    }

    #[test]
    fn dropped_capture_keeps_stack_balanced() {
        let trace = with_tracing(|| {
            {
                let _abandoned = Capture::start("abandoned");
                let _s = span("child");
            }
            let capture = Capture::start("fresh");
            capture.finish().unwrap()
        });
        assert_eq!(trace.root.name, "fresh");
        assert!(trace.root.children.is_empty());
    }

    #[test]
    fn json_round_trip_preserves_trace() {
        let trace = with_tracing(|| {
            let capture = Capture::start("generate");
            {
                let _s = span("simulate");
                counter("sim.transactions.load_a", u128::from(u64::MAX) + 7);
            }
            capture.finish().unwrap()
        });
        let text = trace.to_json_string();
        let back = PipelineTrace::from_json_str(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn histograms_and_gauges_attach_to_spans() {
        let trace = with_tracing(|| {
            let capture = Capture::start("audit");
            {
                let _s = span("contraction");
                histogram("audit.rel_error_ppm", 12_000);
                histogram("audit.rel_error_ppm", 45_000);
                histogram("audit.rel_error_ppm", 3_000);
                gauge("audit.spearman", 0.5);
                gauge("audit.spearman", 0.97); // overwrites
            }
            capture.finish().unwrap()
        });
        let span = &trace.root.children[0];
        let h = span.histogram("audit.rel_error_ppm").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(3_000));
        assert_eq!(h.max(), Some(45_000));
        assert_eq!(span.gauge("audit.spearman"), Some(0.97));
        assert_eq!(span.gauge("missing"), None);
    }

    #[test]
    fn v3_round_trip_preserves_metrics() {
        let trace = with_tracing(|| {
            let capture = Capture::start("audit");
            histogram("lat_ns", 1);
            histogram("lat_ns", 900);
            histogram("lat_ns", u128::from(u64::MAX) + 1);
            gauge("occupancy", 0.75);
            gauge("regret", 0.0);
            capture.finish().unwrap()
        });
        let text = trace.to_json_string();
        assert!(text.contains("\"schema\":\"cogent.trace.v3\""));
        assert!(text.contains("\"profile\":"));
        let back = PipelineTrace::from_json_str(&text).unwrap();
        assert_eq!(back, trace);
        let h = back.root.histogram("lat_ns").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.p99(), Some(u128::from(u64::MAX) + 1));
    }

    #[test]
    fn fork_relays_worker_spans_in_index_order() {
        let trace = with_tracing(|| {
            let capture = Capture::start("cogent");
            {
                let _batch = span("batch");
                let fork = fork().expect("span is open");
                std::thread::scope(|scope| {
                    for index in [1usize, 0] {
                        let fork = &fork;
                        scope.spawn(move || {
                            let _w = fork.open("job", index);
                            counter("prune.checked", (index as u128 + 1) * 10);
                        });
                    }
                });
                fork.attach();
            }
            capture.finish().unwrap()
        });
        let batch = trace.find("batch").unwrap();
        assert_eq!(batch.children.len(), 2);
        // Attached in index order, not join order.
        assert_eq!(batch.children[0].counter("prune.checked"), Some(10));
        assert_eq!(batch.children[1].counter("prune.checked"), Some(20));
        // Worker spans carry their own thread ordinals, distinct from the
        // forking thread's and from each other.
        let tids: Vec<u32> = batch.children.iter().map(|c| c.thread).collect();
        assert_ne!(tids[0], tids[1]);
        assert!(tids.iter().all(|&t| t != batch.thread));
        // Worker timelines share the parent epoch.
        for child in &batch.children {
            assert!(child.start_ns >= batch.start_ns);
        }
    }

    #[test]
    fn fork_requires_tracing_and_an_open_span() {
        let _guard = LOCK.lock().unwrap();
        set_enabled(false);
        assert!(fork().is_none());
        set_enabled(true);
        assert!(fork().is_none(), "no capture is open");
        let capture = Capture::start("c");
        assert!(fork().is_some());
        drop(capture);
        set_enabled(false);
    }

    #[test]
    fn from_json_rejects_inconsistent_histogram() {
        let bad = concat!(
            r#"{"schema":"cogent.trace.v3","root":{"name":"g","#,
            r#""start_ns":0,"duration_ns":1,"counters":{},"#,
            r#""histograms":{"h":{"count":5,"sum":9,"min":1,"max":8,"#,
            r#""buckets":[[1,2]]}},"gauges":{},"thread":0,"children":[]}}"#,
        );
        let err = PipelineTrace::from_json_str(bad).unwrap_err();
        assert!(err.contains("bucket counts sum to 2"), "{err}");
    }

    #[test]
    fn from_json_rejects_bad_schema() {
        assert!(PipelineTrace::from_json_str("{}").is_err());
        assert!(
            PipelineTrace::from_json_str(r#"{"schema":"other.v9","root":{}}"#)
                .unwrap_err()
                .contains("unknown trace schema")
        );
    }

    #[test]
    fn env_var_enables_tracing() {
        let _guard = LOCK.lock().unwrap();
        // Only exercise the "unset" path deterministically; mutating the
        // process environment would race other tests.
        if std::env::var(TRACE_ENV_VAR).is_err() {
            set_enabled(false);
            assert!(!init_from_env());
        }
    }
}
