//! A request-scoped **flight recorder**: a bounded, always-on ring
//! buffer of per-request event timelines for `cogent serve`.
//!
//! Process-global metrics ([`crate::registry`]) answer "how is the
//! server doing overall"; the flight recorder answers "what did *that*
//! request do". Each admitted request carries a [`FlightTimeline`] that
//! marks coarse lifecycle seams (`accepted` → `queued` → `started` →
//! search phases → `responded`) plus outcome facts (status, cache
//! hit/miss, truncation, provenance). When the request finishes, the
//! closed [`FlightRecord`] is pushed into a [`FlightRecorder`] — a
//! fixed-size slot ring whose write path is one `fetch_add` to claim a
//! slot plus one uncontended per-slot mutex store, so recording costs
//! nanoseconds and the buffer never grows.
//!
//! Dumps serialize as the stable `cogent.flight.v1` schema
//! ([`FLIGHT_SCHEMA`]); [`parse_dump`] reads them back, and
//! [`FlightRecord::to_trace`] lowers a timeline to a synthetic
//! [`PipelineTrace`] so the existing [`crate::profile::PhaseProfile`]
//! machinery can attribute time across many requests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::{PipelineTrace, SpanNode};

/// Schema identifier embedded in every flight dump.
pub const FLIGHT_SCHEMA: &str = "cogent.flight.v1";

/// One timestamped seam in a request's lifecycle, offset from the moment
/// the connection was accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// What happened, e.g. `"queued"` or `"phase:prune"`.
    pub label: String,
    /// Nanoseconds since the request was accepted.
    pub at_ns: u64,
}

/// The closed record of one request: identity, outcome, and timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlightRecord {
    /// The request id (client-supplied `X-Request-Id` or generated).
    pub id: String,
    /// Endpoint label, e.g. `"generate"` or `"healthz"`.
    pub endpoint: String,
    /// Final HTTP status.
    pub status: u16,
    /// Time spent waiting in the admission queue.
    pub queue_wait_ns: u64,
    /// Time spent inside the kernel search (0 for non-search requests).
    pub search_ns: u64,
    /// Accepted → responded wall time.
    pub total_ns: u64,
    /// Cache outcome: `"hit"`, `"miss"`, or `""` when not applicable.
    pub cache: String,
    /// Whether the search was truncated by the deadline budget.
    pub truncated: bool,
    /// Plan provenance summary (empty when not applicable).
    pub provenance: String,
    /// The event timeline, sorted by `at_ns`.
    pub events: Vec<FlightEvent>,
}

impl FlightRecord {
    /// Serializes one record (an element of a dump's `requests` array).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("endpoint", Json::Str(self.endpoint.clone())),
            ("status", Json::UInt(u128::from(self.status))),
            ("queue_wait_ns", Json::UInt(u128::from(self.queue_wait_ns))),
            ("search_ns", Json::UInt(u128::from(self.search_ns))),
            ("total_ns", Json::UInt(u128::from(self.total_ns))),
            ("cache", Json::Str(self.cache.clone())),
            ("truncated", Json::Bool(self.truncated)),
            ("provenance", Json::Str(self.provenance.clone())),
            (
                "events",
                Json::Array(
                    self.events
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("label", Json::Str(e.label.clone())),
                                ("at_ns", Json::UInt(u128::from(e.at_ns))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses one record previously produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped member.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        fn str_member(value: &Json, name: &str) -> Result<String, String> {
            value
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("flight record missing string {name:?}"))
        }
        fn u64_member(value: &Json, name: &str) -> Result<u64, String> {
            value
                .get(name)
                .and_then(Json::as_u128)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("flight record missing integer {name:?}"))
        }
        let status = u64_member(value, "status")?;
        let status = u16::try_from(status).map_err(|_| format!("status {status} is not a u16"))?;
        let truncated = match value.get("truncated") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("flight record missing bool \"truncated\"".to_string()),
        };
        let events = value
            .get("events")
            .and_then(Json::as_array)
            .ok_or("flight record missing events array")?
            .iter()
            .map(|e| {
                Ok(FlightEvent {
                    label: str_member(e, "label")?,
                    at_ns: u64_member(e, "at_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            id: str_member(value, "id")?,
            endpoint: str_member(value, "endpoint")?,
            status,
            queue_wait_ns: u64_member(value, "queue_wait_ns")?,
            search_ns: u64_member(value, "search_ns")?,
            total_ns: u64_member(value, "total_ns")?,
            cache: str_member(value, "cache")?,
            truncated,
            provenance: str_member(value, "provenance")?,
            events,
        })
    }

    /// One compact JSON line for the access log: the outcome facts
    /// without the event timeline.
    pub fn access_log_line(&self) -> String {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("endpoint", Json::Str(self.endpoint.clone())),
            ("status", Json::UInt(u128::from(self.status))),
            ("queue_wait_ns", Json::UInt(u128::from(self.queue_wait_ns))),
            ("search_ns", Json::UInt(u128::from(self.search_ns))),
            ("total_ns", Json::UInt(u128::from(self.total_ns))),
            ("cache", Json::Str(self.cache.clone())),
            ("truncated", Json::Bool(self.truncated)),
        ])
        .to_string()
    }

    /// Lowers the timeline to a synthetic [`PipelineTrace`] so
    /// [`crate::profile::PhaseProfile`] can attribute time across
    /// requests: the root span is named `"request"` and each child
    /// covers the interval from one event to the next, named after the
    /// earlier event.
    pub fn to_trace(&self) -> PipelineTrace {
        let children: Vec<SpanNode> = self
            .events
            .windows(2)
            .map(|pair| SpanNode {
                name: pair[0].label.clone(),
                start_ns: pair[0].at_ns,
                duration_ns: pair[1].at_ns.saturating_sub(pair[0].at_ns).max(1),
                counters: Vec::new(),
                histograms: Vec::new(),
                gauges: Vec::new(),
                thread: 0,
                children: Vec::new(),
            })
            .collect();
        PipelineTrace {
            root: SpanNode {
                name: "request".to_string(),
                start_ns: 0,
                duration_ns: self.total_ns.max(1),
                counters: Vec::new(),
                histograms: Vec::new(),
                gauges: Vec::new(),
                thread: 0,
                children,
            },
        }
    }
}

/// An open, per-request timeline. Owned by whichever thread currently
/// holds the request (connection thread, then worker, then connection
/// thread again); closing it with [`finish`](Self::finish) yields the
/// immutable [`FlightRecord`].
#[derive(Debug)]
pub struct FlightTimeline {
    epoch: Instant,
    record: FlightRecord,
}

impl FlightTimeline {
    /// Opens a timeline whose clock starts now.
    pub fn start(id: &str, endpoint: &str) -> Self {
        Self::start_at(Instant::now(), id, endpoint)
    }

    /// Opens a timeline against an earlier epoch (the connection-accept
    /// instant), so `accepted` sits at offset 0 of that clock.
    pub fn start_at(epoch: Instant, id: &str, endpoint: &str) -> Self {
        Self {
            epoch,
            record: FlightRecord {
                id: id.to_string(),
                endpoint: endpoint.to_string(),
                events: vec![FlightEvent {
                    label: "accepted".to_string(),
                    at_ns: 0,
                }],
                ..FlightRecord::default()
            },
        }
    }

    /// A throwaway timeline for unit tests and non-server callers of
    /// [`execute`](../../cogent_core/serve/handlers/fn.execute.html).
    pub fn detached() -> Self {
        Self::start("detached", "test")
    }

    /// The request id this timeline records.
    pub fn id(&self) -> &str {
        &self.record.id
    }

    /// Nanoseconds elapsed since the timeline's epoch.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The epoch this timeline's offsets are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Marks an event at the current instant; returns its offset.
    pub fn mark(&mut self, label: &str) -> u64 {
        let at_ns = self.elapsed_ns();
        self.mark_at(label, at_ns);
        at_ns
    }

    /// Marks an event at an explicit offset (used to splice search-phase
    /// seams recorded on another clock).
    pub fn mark_at(&mut self, label: &str, at_ns: u64) {
        self.record.events.push(FlightEvent {
            label: label.to_string(),
            at_ns,
        });
    }

    /// Records the admission-queue wait.
    pub fn set_queue_wait_ns(&mut self, ns: u64) {
        self.record.queue_wait_ns = ns;
    }

    /// Records the in-search time.
    pub fn set_search_ns(&mut self, ns: u64) {
        self.record.search_ns = ns;
    }

    /// Adds to the in-search time (batch requests accumulate one search
    /// per job).
    pub fn add_search_ns(&mut self, ns: u64) {
        self.record.search_ns = self.record.search_ns.saturating_add(ns);
    }

    /// Records the cache outcome (`"hit"` / `"miss"`).
    pub fn set_cache(&mut self, cache: &str) {
        self.record.cache = cache.to_string();
    }

    /// Records whether the search was budget-truncated.
    pub fn set_truncated(&mut self, truncated: bool) {
        self.record.truncated = truncated;
    }

    /// Records the plan provenance summary.
    pub fn set_provenance(&mut self, provenance: &str) {
        self.record.provenance = provenance.to_string();
    }

    /// Closes the timeline: marks `responded`, fixes the total duration,
    /// sorts events by offset (stable, so same-instant events keep
    /// insertion order), and returns the record.
    pub fn finish(mut self, status: u16) -> FlightRecord {
        let at_ns = self.mark("responded");
        self.record.status = status;
        self.record.total_ns = at_ns.max(1);
        self.record.events.sort_by_key(|e| e.at_ns);
        self.record
    }
}

/// The bounded ring of recent [`FlightRecord`]s.
///
/// Writers claim a slot with one atomic `fetch_add` and store under that
/// slot's own mutex — two writers only contend when the ring has wrapped
/// all the way around between them. Readers ([`snapshot`](Self::snapshot))
/// lock slots one at a time, so a dump never blocks the request path for
/// more than one slot store.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightRecord>>>,
    pushes: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` requests
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            pushes: AtomicU64::new(0),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (not the count currently held).
    pub fn recorded(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Pushes one closed record, overwriting the oldest once the ring is
    /// full.
    pub fn record(&self, record: FlightRecord) {
        let n = self.pushes.fetch_add(1, Ordering::Relaxed);
        let slot = (n % self.slots.len() as u64) as usize;
        let mut guard = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(record);
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let capacity = self.slots.len() as u64;
        let total = self.pushes.load(Ordering::Relaxed);
        let (start, count) = if total <= capacity {
            (0, total)
        } else {
            (total % capacity, capacity)
        };
        (0..count)
            .filter_map(|i| {
                let slot = ((start + i) % capacity) as usize;
                self.slots[slot]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone()
            })
            .collect()
    }

    /// Serializes the current ring contents as a `cogent.flight.v1` dump.
    pub fn to_json(&self) -> Json {
        let requests = self.snapshot();
        Json::obj([
            ("schema", Json::Str(FLIGHT_SCHEMA.to_string())),
            ("capacity", Json::UInt(self.capacity() as u128)),
            ("recorded", Json::UInt(u128::from(self.recorded()))),
            (
                "requests",
                Json::Array(requests.iter().map(FlightRecord::to_json).collect()),
            ),
        ])
    }
}

/// Parses a `cogent.flight.v1` dump back into its records.
///
/// # Errors
///
/// A message when the text is not JSON, the schema tag is missing or
/// unknown, or a record is malformed.
pub fn parse_dump(text: &str) -> Result<Vec<FlightRecord>, String> {
    let value = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = value
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema tag")?;
    if schema != FLIGHT_SCHEMA {
        return Err(format!("unknown flight schema {schema:?}"));
    }
    value
        .get("requests")
        .and_then(Json::as_array)
        .ok_or("missing requests array")?
        .iter()
        .map(FlightRecord::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseProfile;

    fn record(id: &str, total_ns: u64) -> FlightRecord {
        FlightRecord {
            id: id.to_string(),
            endpoint: "generate".to_string(),
            status: 200,
            queue_wait_ns: 10,
            search_ns: total_ns / 2,
            total_ns,
            cache: "miss".to_string(),
            truncated: false,
            provenance: "search".to_string(),
            events: vec![
                FlightEvent {
                    label: "accepted".to_string(),
                    at_ns: 0,
                },
                FlightEvent {
                    label: "started".to_string(),
                    at_ns: total_ns / 4,
                },
                FlightEvent {
                    label: "responded".to_string(),
                    at_ns: total_ns,
                },
            ],
        }
    }

    #[test]
    fn timeline_marks_are_monotonic_and_sorted() {
        let mut timeline = FlightTimeline::start("req-1", "generate");
        let a = timeline.mark("queued");
        let b = timeline.mark("started");
        assert!(b >= a);
        // Out-of-order explicit mark: finish() restores sorted order.
        timeline.mark_at("phase:enumerate", 1);
        timeline.set_cache("miss");
        timeline.set_truncated(true);
        timeline.set_provenance("search");
        let record = timeline.finish(200);
        assert_eq!(record.id, "req-1");
        assert_eq!(record.status, 200);
        assert_eq!(record.cache, "miss");
        assert!(record.truncated);
        assert!(record.total_ns >= b);
        assert_eq!(
            record.events.first().map(|e| e.label.as_str()),
            Some("accepted")
        );
        assert_eq!(
            record.events.last().map(|e| e.label.as_str()),
            Some("responded")
        );
        let offsets: Vec<u64> = record.events.iter().map(|e| e.at_ns).collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted);
    }

    #[test]
    fn ring_keeps_newest_records_in_order() {
        let recorder = FlightRecorder::new(3);
        assert!(recorder.snapshot().is_empty());
        for i in 0..5u64 {
            recorder.record(record(&format!("req-{i}"), 100 + i));
        }
        assert_eq!(recorder.recorded(), 5);
        let ids: Vec<String> = recorder.snapshot().into_iter().map(|r| r.id).collect();
        assert_eq!(ids, ["req-2", "req-3", "req-4"]);
    }

    #[test]
    fn concurrent_pushes_never_lose_the_count() {
        let recorder = std::sync::Arc::new(FlightRecorder::new(8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let recorder = std::sync::Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..25 {
                        recorder.record(record(&format!("t{t}-{i}"), 1));
                    }
                });
            }
        });
        assert_eq!(recorder.recorded(), 100);
        assert_eq!(recorder.snapshot().len(), 8);
    }

    #[test]
    fn dump_round_trips_through_the_schema() {
        let recorder = FlightRecorder::new(4);
        recorder.record(record("req-a", 1000));
        recorder.record(record("req-b", 2000));
        let mut text = String::new();
        recorder.to_json().write(&mut text);
        assert!(text.contains("\"schema\":\"cogent.flight.v1\""));
        let back = parse_dump(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], record("req-a", 1000));
        assert_eq!(back[1], record("req-b", 2000));
    }

    #[test]
    fn parse_dump_rejects_bad_schemas() {
        assert!(parse_dump("not json").is_err());
        assert!(parse_dump("{}").unwrap_err().contains("missing schema"));
        assert!(parse_dump(r#"{"schema":"other.v9","requests":[]}"#)
            .unwrap_err()
            .contains("unknown flight schema"));
        assert!(parse_dump(r#"{"schema":"cogent.flight.v1","requests":[{}]}"#).is_err());
    }

    #[test]
    fn to_trace_feeds_phase_profile() {
        let r = record("req-a", 1000);
        let trace = r.to_trace();
        assert_eq!(trace.root.name, "request");
        assert_eq!(trace.root.duration_ns, 1000);
        // Two intervals: accepted→started, started→responded.
        assert_eq!(trace.root.children.len(), 2);
        let profile = PhaseProfile::from_trace(&trace);
        let mut merged = profile.clone();
        merged.merge(&PhaseProfile::from_trace(&record("req-b", 3000).to_trace()));
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.wall_ns, 4000);
        assert!(merged.phases.iter().any(|p| p.name == "started"));
    }
}
