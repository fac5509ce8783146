//! The **flight recorder** of `cogent serve`, and the JSON-lines format
//! that it and the figure binaries write traces in: one
//! `{"label": <id>, "trace": <cogent.trace.v3>}` object per line.
//!
//! A request's record is an ordinary [`PipelineTrace`] labelled with the
//! request id, on the request clock (offset 0 is the accept). The root
//! span is named after the endpoint, its children are `read`, `queue`
//! and the worker's `serve.job` capture with the whole search under it,
//! and the outcome facts (`serve.status.<code>`, `cache.hit`/`miss`,
//! `serve.truncated`, `serve.provenance.*`, failures) are root counters.
//! [`RequestSummary`] derives the access-log line from a record. The
//! [`FlightRecorder`] ring's write path is one `fetch_add` to claim a
//! slot plus one uncontended per-slot mutex store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::PipelineTrace;

/// Appends one `{"label": ..., "trace": {...}}` line to `out`.
pub fn write_line(out: &mut String, label: &str, trace: &PipelineTrace) {
    Json::obj([
        ("label", Json::Str(label.to_string())),
        ("trace", trace.to_json()),
    ])
    .write(out);
    out.push('\n');
}

/// Parses text written by [`write_line`] back into `(label, trace)`
/// pairs, skipping blank lines.
///
/// # Errors
///
/// A message naming the first line that is not such a pair.
pub fn parse_lines(text: &str) -> Result<Vec<(String, PipelineTrace)>, String> {
    let parse = |line: &str| -> Result<(String, PipelineTrace), String> {
        let value = Json::parse(line).map_err(|e| e.to_string())?;
        let label = value.get("label").and_then(Json::as_str);
        let label = label.ok_or("missing string \"label\"")?.to_string();
        let trace = PipelineTrace::from_json(value.get("trace").ok_or("missing \"trace\"")?)?;
        Ok((label, trace))
    };
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| parse(line).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

/// The access-log view of one record: the request's outcome facts
/// without its span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSummary {
    /// The record's label: the request id.
    pub id: String,
    /// The root span's name: the endpoint label.
    pub endpoint: String,
    /// From the root's `serve.status.<code>` counter (0 when absent).
    pub status: u16,
    /// The `queue` span.
    pub queue_wait_ns: u64,
    /// The summed `serve.search` and `serve.audit` spans.
    pub search_ns: u64,
    /// The root span.
    pub total_ns: u64,
    /// `"miss"` when any lookup missed, `"hit"` when one hit, else `""`.
    pub cache: String,
    /// Whether a search was truncated by the deadline budget.
    pub truncated: bool,
}

impl RequestSummary {
    /// Derives the summary of the record `trace` labelled `id`.
    pub fn of(id: &str, trace: &PipelineTrace) -> Self {
        let root = &trace.root;
        let counted = |name: &str| root.counter(name).is_some_and(|v| v > 0);
        let status = root
            .counters
            .iter()
            .find_map(|(name, _)| name.strip_prefix("serve.status.")?.parse().ok())
            .unwrap_or(0);
        let spans_ns =
            |name: &str| -> u64 { trace.find_all(name).iter().map(|s| s.duration_ns).sum() };
        // A miss anywhere means the request searched.
        let cache = ["miss", "hit"]
            .into_iter()
            .find(|c| counted(&format!("cache.{c}")));
        Self {
            id: id.to_string(),
            endpoint: root.name.clone(),
            status,
            queue_wait_ns: spans_ns("queue"),
            search_ns: spans_ns("serve.search") + spans_ns("serve.audit"),
            total_ns: root.duration_ns,
            cache: cache.unwrap_or_default().to_string(),
            truncated: counted("serve.truncated"),
        }
    }

    /// One compact JSON line for the access log.
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
}

/// The bounded ring of recent records.
///
/// Writers claim a slot with one atomic `fetch_add` and store under that
/// slot's own mutex — two writers only contend when the ring has wrapped
/// all the way around between them. Readers ([`snapshot`](Self::snapshot))
/// lock slots one at a time, so a dump never blocks the request path for
/// more than one slot store.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(String, PipelineTrace)>>>,
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

    /// Pushes one record, overwriting the oldest once the ring is full.
    /// The overwritten trace is freed after the slot's lock is released.
    pub fn record(&self, label: String, trace: PipelineTrace) {
        let n = self.pushes.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let _old = slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .replace((label, trace));
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<(String, PipelineTrace)> {
        let capacity = self.slots.len() as u64;
        let total = self.pushes.load(Ordering::Relaxed);
        (total.saturating_sub(capacity)..total)
            .filter_map(|n| {
                let slot = &self.slots[(n % capacity) as usize];
                slot.lock().unwrap_or_else(|e| e.into_inner()).clone()
            })
            .collect()
    }

    /// The retained records as JSON lines, oldest first.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (label, trace) in self.snapshot() {
            write_line(&mut out, &label, &trace);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanNode;

    fn record(status: u16) -> PipelineTrace {
        let mut root = SpanNode::closed("generate", 0, 1_000);
        root.add_counter(&format!("serve.status.{status}"), 1);
        root.add_counter("cache.hit", 1);
        root.children = vec![
            SpanNode::closed("queue", 10, 7),
            SpanNode::closed("serve.search", 20, 300),
        ];
        PipelineTrace { root }
    }

    #[test]
    fn ring_keeps_newest_records_in_order() {
        let recorder = FlightRecorder::new(3);
        for i in 0..5 {
            recorder.record(format!("req-{i}"), record(200 + i));
        }
        let labels: Vec<String> = recorder.snapshot().into_iter().map(|r| r.0).collect();
        assert_eq!(labels, ["req-2", "req-3", "req-4"]);
    }

    #[test]
    fn concurrent_pushes_never_lose_the_count() {
        let recorder = FlightRecorder::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let recorder = &recorder;
                scope.spawn(move || {
                    (0..25).for_each(|i| recorder.record(format!("{t}-{i}"), record(200)))
                });
            }
        });
        assert_eq!(recorder.pushes.load(Ordering::Relaxed), 100);
        assert_eq!(recorder.snapshot().len(), 8);
    }

    #[test]
    fn dump_round_trips_through_the_schema() {
        let recorder = FlightRecorder::new(4);
        recorder.record("req-a".to_string(), record(200));
        recorder.record("req-b".to_string(), record(504));
        let back = parse_lines(&format!("\n{}", recorder.to_lines())).unwrap();
        assert_eq!(
            back,
            [("req-a".into(), record(200)), ("req-b".into(), record(504))]
        );
    }

    #[test]
    fn parse_lines_rejects_bad_lines() {
        let bad = record(200).to_json_string().replace("trace.v3", "trace.v9");
        for (line, why) in [
            ("not json", "line 1: "),
            ("{\"trace\":{}}", "line 1: missing string \"label\""),
            ("{\"label\":\"x\"}", "line 1: missing \"trace\""),
            (
                &format!("{{\"label\":\"x\",\"trace\":{bad}}}"),
                "line 1: unknown trace schema",
            ),
        ] {
            assert!(parse_lines(line).unwrap_err().starts_with(why), "{line}");
        }
    }

    #[test]
    fn the_access_log_line_is_a_view_of_the_record() {
        let line = RequestSummary::of("req-1", &record(429)).access_log_line();
        let expected = r#"{"id":"req-1","endpoint":"generate","status":429,"queue_wait_ns":7,"search_ns":300,"total_ns":1000,"cache":"hit","truncated":false}"#;
        assert_eq!(line, expected);
    }
}
