//! Chrome trace-event export: renders a [`PipelineTrace`] span timeline
//! as the JSON Array Format understood by `chrome://tracing` and
//! Perfetto (<https://ui.perfetto.dev>).
//!
//! Each span becomes one complete (`"ph": "X"`) event with microsecond
//! `ts`/`dur`; counters and gauges ride along in `args` so they show in
//! the event detail pane. Every span's recording thread (its
//! [`SpanNode::thread`] ordinal) becomes the event `tid`, so a trace
//! containing relayed worker spans (see [`crate::fork`]) renders one
//! timeline row per worker; a `thread_name` metadata event labels each
//! row.

use std::collections::BTreeSet;

use crate::json::Json;
use crate::{PipelineTrace, SpanNode};

/// Converts `trace` into a Chrome trace-event JSON document.
///
/// # Examples
///
/// ```
/// cogent_obs::set_enabled(true);
/// let capture = cogent_obs::Capture::start("generate");
/// drop(cogent_obs::span("enumerate"));
/// let trace = capture.finish().unwrap();
/// cogent_obs::set_enabled(false);
///
/// let doc = cogent_obs::chrome::to_chrome_trace(&trace);
/// let events = doc.get("traceEvents").unwrap().as_array().unwrap();
/// // One thread_name metadata event plus one complete event per span.
/// assert_eq!(events.len(), 3);
/// ```
pub fn to_chrome_trace(trace: &PipelineTrace) -> Json {
    let mut events = Vec::new();
    let mut tids = BTreeSet::new();
    collect_tids(&trace.root, &mut tids);
    for &tid in &tids {
        let label = if tid == trace.root.thread {
            format!("t{tid} (capture)")
        } else {
            format!("t{tid} (worker)")
        };
        events.push(Json::obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::UInt(tid.into())),
            ("args", Json::obj([("name", Json::Str(label))])),
        ]));
    }
    push_events(&trace.root, &mut events);
    Json::obj([
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

fn collect_tids(span: &SpanNode, out: &mut BTreeSet<u32>) {
    out.insert(span.thread);
    for child in &span.children {
        collect_tids(child, out);
    }
}

/// Serializes [`to_chrome_trace`] output as a compact JSON string.
pub fn to_chrome_trace_string(trace: &PipelineTrace) -> String {
    to_chrome_trace(trace).to_string()
}

fn push_events(span: &SpanNode, out: &mut Vec<Json>) {
    let mut args: Vec<(String, Json)> = span
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
        .collect();
    args.extend(
        span.gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::Float(*v))),
    );
    for (k, h) in &span.histograms {
        let mut summary = vec![
            ("count".to_string(), Json::UInt(h.count())),
            ("mean".to_string(), Json::Float(h.mean().unwrap_or(0.0))),
        ];
        for (name, value) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
            if let Some(v) = value {
                summary.push((name.to_string(), Json::UInt(v)));
            }
        }
        args.push((k.clone(), Json::Object(summary)));
    }
    out.push(Json::obj([
        ("name", Json::Str(span.name.clone())),
        ("ph", Json::from("X")),
        // Trace-event timestamps are in microseconds (fractions allowed).
        ("ts", Json::Float(span.start_ns as f64 / 1_000.0)),
        ("dur", Json::Float(span.duration_ns as f64 / 1_000.0)),
        ("pid", Json::from(1u64)),
        ("tid", Json::UInt(span.thread.into())),
        ("args", Json::Object(args)),
    ]));
    for child in &span.children {
        push_events(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn leaf(name: &str, start_ns: u64, duration_ns: u64) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            start_ns,
            duration_ns,
            counters: Vec::new(),
            histograms: Vec::new(),
            gauges: Vec::new(),
            thread: 0,
            children: Vec::new(),
        }
    }

    #[test]
    fn emits_one_complete_event_per_span() {
        let mut root = leaf("generate", 0, 10_000);
        root.counters.push(("enumerate.configs".to_string(), 42));
        root.gauges.push(("occupancy".to_string(), 0.5));
        let mut h = Histogram::new();
        h.record(100);
        root.histograms.push(("lat".to_string(), h));
        root.children.push(leaf("prune", 2_000, 3_000));
        let doc = to_chrome_trace(&PipelineTrace { root });
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // One thread_name metadata event, then the two span events.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        let first = &events[1];
        assert_eq!(first.get("name").unwrap().as_str(), Some("generate"));
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(first.get("dur").unwrap().as_f64(), Some(10.0));
        let args = first.get("args").unwrap();
        assert_eq!(args.get("enumerate.configs").unwrap().as_u128(), Some(42));
        assert_eq!(args.get("occupancy").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            args.get("lat").unwrap().get("p50").unwrap().as_u128(),
            Some(100)
        );
        assert_eq!(events[2].get("ts").unwrap().as_f64(), Some(2.0));
        // The document must parse as standalone JSON.
        assert!(Json::parse(&doc.to_string()).is_ok());
    }

    #[test]
    fn worker_spans_render_on_their_own_timeline_rows() {
        let mut root = leaf("cogent stats", 0, 10_000);
        let mut batch = leaf("batch", 1_000, 5_000);
        let mut w0 = leaf("job", 1_100, 2_000);
        w0.thread = 5;
        let mut w1 = leaf("job", 1_100, 2_100);
        w1.thread = 6;
        batch.children.push(w0);
        batch.children.push(w1);
        root.children.push(batch);
        let doc = to_chrome_trace(&PipelineTrace { root });
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Three distinct tids → three metadata events + four span events.
        assert_eq!(events.len(), 7);
        let span_tids: std::collections::BTreeSet<u128> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("tid").unwrap().as_u128().unwrap())
            .collect();
        assert_eq!(span_tids.into_iter().collect::<Vec<_>>(), vec![0, 5, 6]);
        let meta_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            meta_names,
            vec!["t0 (capture)", "t5 (worker)", "t6 (worker)"]
        );
    }
}
