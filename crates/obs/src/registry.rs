//! Process-wide collection points: a registry for finished **traces**
//! and a sharded registry for **metrics**.
//!
//! # Traces
//!
//! The bench binaries run pipelines from worker threads; each worker
//! [`publish`]es its labelled trace here and the main thread [`drain`]s
//! them for writing (e.g. as JSON lines next to the result tables).
//!
//! # Metrics
//!
//! Every span closed anywhere in the process folds its counters,
//! histograms, gauges and duration into a per-thread [`MetricsShard`]
//! (see [`fold_span`]). Shards register themselves in a global list on a
//! thread's first fold and are **drained on thread exit** into a global
//! accumulator, so metrics survive worker joins. [`metrics_snapshot`]
//! merges the accumulator with every live shard losslessly:
//!
//! - counters add,
//! - histograms merge bucket-by-bucket ([`crate::metrics::Histogram::merge`]),
//! - gauges resolve last-writer-wins via a global sequence number,
//!
//! so the merged result is independent of thread scheduling and merge
//! order. [`render_prometheus`] renders a snapshot in the Prometheus
//! text exposition format (served by `cogent stats`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::Histogram;
use crate::{PipelineTrace, SpanNode};

static REGISTRY: Mutex<Vec<(String, PipelineTrace)>> = Mutex::new(Vec::new());

/// Appends a labelled trace to the registry.
pub fn publish(label: &str, trace: PipelineTrace) {
    REGISTRY
        .lock()
        .expect("trace registry poisoned")
        .push((label.to_string(), trace));
}

/// Removes and returns every published trace, in publish order.
pub fn drain() -> Vec<(String, PipelineTrace)> {
    std::mem::take(&mut *REGISTRY.lock().expect("trace registry poisoned"))
}

// ---------------------------------------------------------------------------
// Global metrics: per-thread shards, drain-on-join, lossless merge
// ---------------------------------------------------------------------------

/// One thread's (or one test's) accumulated metrics. Shards merge
/// losslessly and the merge is associative and order-insensitive, so a
/// snapshot taken after any interleaving of threads equals the serial
/// single-thread result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsShard {
    /// Monotone counters, by metric name.
    pub counters: BTreeMap<String, u128>,
    /// Log-bucketed histograms, by metric name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Gauges as `(sequence, value)`: the globally-issued sequence number
    /// makes "last writer" well defined across threads, and breaking ties
    /// by the value's bit pattern keeps the merge a total order.
    pub gauges: BTreeMap<String, (u64, f64)>,
    /// Spans folded into this shard.
    pub spans_closed: u64,
}

impl MetricsShard {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the shard holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.gauges.is_empty()
            && self.spans_closed == 0
    }

    /// Adds `value` to counter `name`.
    pub fn add_counter(&mut self, name: &str, value: u128) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// Records `value` into histogram `name`.
    pub fn record_histogram(&mut self, name: &str, value: u128) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Sets gauge `name` to `value` under an explicit sequence number
    /// (kept only if it outranks the stored write; see [`MetricsShard`]).
    pub fn set_gauge_seq(&mut self, name: &str, seq: u64, value: f64) {
        match self.gauges.get_mut(name) {
            Some(slot) => {
                if (seq, value.to_bits()) > (slot.0, slot.1.to_bits()) {
                    *slot = (seq, value);
                }
            }
            None => {
                self.gauges.insert(name.to_string(), (seq, value));
            }
        }
    }

    /// Sets gauge `name` to `value` under a freshly issued global
    /// sequence number (i.e. "now" is the last write).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.set_gauge_seq(name, next_gauge_seq(), value);
    }

    /// Folds `other` into `self` losslessly.
    pub fn merge(&mut self, other: &MetricsShard) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
        for (name, &(seq, value)) in &other.gauges {
            self.set_gauge_seq(name, seq, value);
        }
        self.spans_closed += other.spans_closed;
    }
}

/// Issues gauge sequence numbers; strictly increasing process-wide.
static GAUGE_SEQ: AtomicU64 = AtomicU64::new(1);

fn next_gauge_seq() -> u64 {
    GAUGE_SEQ.fetch_add(1, Ordering::Relaxed)
}

type SharedShard = Arc<Mutex<MetricsShard>>;

/// Live per-thread shards, in registration order.
static LIVE_SHARDS: Mutex<Vec<SharedShard>> = Mutex::new(Vec::new());

/// Metrics recovered from threads that have exited.
static DRAINED: Mutex<MetricsShard> = Mutex::new(MetricsShard {
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
    gauges: BTreeMap::new(),
    spans_closed: 0,
});

/// Total shards ever registered (threads that recorded at least one span).
static THREADS_SEEN: AtomicU64 = AtomicU64::new(0);

/// Owns a thread's shard registration; the destructor runs at thread
/// exit and drains the shard into [`DRAINED`] ("drain-on-join").
struct ShardHandle {
    shard: SharedShard,
}

impl ShardHandle {
    fn register() -> Self {
        let shard: SharedShard = Arc::new(Mutex::new(MetricsShard::new()));
        LIVE_SHARDS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&shard));
        THREADS_SEEN.fetch_add(1, Ordering::Relaxed);
        Self { shard }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        let data = std::mem::take(&mut *self.shard.lock().unwrap_or_else(|e| e.into_inner()));
        DRAINED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&data);
        LIVE_SHARDS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|s| !Arc::ptr_eq(s, &self.shard));
    }
}

thread_local! {
    static LOCAL_SHARD: ShardHandle = ShardHandle::register();
}

/// Folds a closed span's metrics (and its duration, as the histogram
/// `span.<name>.duration_ns`) into the calling thread's shard. Called by
/// the span machinery on every close; a no-op only if the thread is
/// already tearing down its locals.
pub(crate) fn fold_span(node: &SpanNode) {
    let _ = LOCAL_SHARD.try_with(|handle| {
        let mut shard = handle.shard.lock().unwrap_or_else(|e| e.into_inner());
        for (name, value) in &node.counters {
            shard.add_counter(name, *value);
        }
        for (name, histogram) in &node.histograms {
            shard
                .histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
        for (name, value) in &node.gauges {
            shard.set_gauge(name, *value);
        }
        shard.record_histogram(
            &format!("span.{}.duration_ns", node.name),
            u128::from(node.duration_ns),
        );
        shard.spans_closed += 1;
    });
}

/// A merged, point-in-time view of every shard (drained and live).
pub fn metrics_snapshot() -> MetricsShard {
    let mut merged = DRAINED.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let live = LIVE_SHARDS.lock().unwrap_or_else(|e| e.into_inner());
    for shard in live.iter() {
        merged.merge(&shard.lock().unwrap_or_else(|e| e.into_inner()));
    }
    merged
}

/// Clears the drained accumulator and every live shard (live threads
/// keep their registration and continue recording into emptied shards).
pub fn reset_metrics() {
    *DRAINED.lock().unwrap_or_else(|e| e.into_inner()) = MetricsShard::new();
    let live = LIVE_SHARDS.lock().unwrap_or_else(|e| e.into_inner());
    for shard in live.iter() {
        *shard.lock().unwrap_or_else(|e| e.into_inner()) = MetricsShard::new();
    }
}

/// Number of currently registered (live) thread shards.
pub fn live_shards() -> usize {
    LIVE_SHARDS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Total threads that ever registered a shard.
pub fn threads_seen() -> u64 {
    THREADS_SEEN.load(Ordering::Relaxed)
}

/// Maps a dotted internal metric name (`serve.queue_depth`) onto the
/// Prometheus name charset `[a-zA-Z0-9_:]`; every other character
/// becomes `_`. An empty name renders as a single `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    if name.is_empty() {
        return "_".to_string();
    }
    name.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => c,
            _ => '_',
        })
        .collect()
}

/// Escapes a `# HELP` docstring (backslash and newline, per the text
/// exposition format).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Groups metrics by their sanitized family name. Distinct internal
/// names that collide after sanitization merge into one family (the
/// HELP line lists every source name), so the rendering stays valid for
/// strict parsers no matter what was recorded.
fn families<'a, V>(
    metrics: impl IntoIterator<Item = (&'a String, V)>,
    suffix: &str,
) -> BTreeMap<String, (Vec<&'a str>, Vec<V>)> {
    let mut grouped: BTreeMap<String, (Vec<&'a str>, Vec<V>)> = BTreeMap::new();
    for (name, value) in metrics {
        let family = format!("cogent_{}{suffix}", sanitize_metric_name(name));
        let entry = grouped.entry(family).or_default();
        entry.0.push(name);
        entry.1.push(value);
    }
    grouped
}

/// Renders a snapshot in the Prometheus text exposition format (v0.0.4).
/// Each internal metric becomes its own family with `# HELP` / `# TYPE`
/// lines and a name sanitized to `[a-zA-Z0-9_:]` (counters get a
/// `_total` suffix); histograms render as summaries with nearest-rank
/// quantiles plus `_sum` / `_count`. Deterministic: families are emitted
/// in sorted order and collisions after sanitization merge losslessly.
pub fn render_prometheus(snapshot: &MetricsShard) -> String {
    let mut out = String::new();
    out.push_str(
        "# cogent.stats.v2 — merged process-wide metrics (Prometheus text format v0.0.4)\n",
    );
    for (family, (sources, values)) in families(&snapshot.counters, "_total") {
        out.push_str(&format!(
            "# HELP {family} Counter {} (merged across threads).\n",
            escape_help(&sources.join(", "))
        ));
        out.push_str(&format!("# TYPE {family} counter\n"));
        let total: u128 = values.iter().copied().sum();
        out.push_str(&format!("{family} {total}\n"));
    }
    for (family, (sources, values)) in families(&snapshot.gauges, "") {
        out.push_str(&format!(
            "# HELP {family} Gauge {} (last writer wins).\n",
            escape_help(&sources.join(", "))
        ));
        out.push_str(&format!("# TYPE {family} gauge\n"));
        // Colliding gauges resolve exactly like a shard merge would:
        // highest (sequence, bit-pattern) write wins.
        if let Some(&&(_, value)) = values
            .iter()
            .max_by_key(|&&&(seq, value)| (seq, value.to_bits()))
        {
            out.push_str(&format!("{family} {value}\n"));
        }
    }
    for (family, (sources, values)) in families(&snapshot.histograms, "") {
        out.push_str(&format!(
            "# HELP {family} Histogram {} (log-bucketed; nearest-rank quantiles).\n",
            escape_help(&sources.join(", "))
        ));
        out.push_str(&format!("# TYPE {family} summary\n"));
        let mut merged = Histogram::new();
        for histogram in values {
            merged.merge(histogram);
        }
        for (q, value) in [
            ("0.5", merged.p50()),
            ("0.9", merged.p90()),
            ("0.99", merged.p99()),
        ] {
            if let Some(v) = value {
                out.push_str(&format!("{family}{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        out.push_str(&format!("{family}_sum {}\n", merged.sum()));
        out.push_str(&format!("{family}_count {}\n", merged.count()));
    }
    out.push_str("# HELP cogent_spans_closed Spans folded into the metric registry.\n");
    out.push_str("# TYPE cogent_spans_closed counter\n");
    out.push_str(&format!("cogent_spans_closed {}\n", snapshot.spans_closed));
    out.push_str("# HELP cogent_threads_seen Threads that ever registered a metric shard.\n");
    out.push_str("# TYPE cogent_threads_seen counter\n");
    out.push_str(&format!("cogent_threads_seen {}\n", threads_seen()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanNode;

    fn trace(name: &str) -> PipelineTrace {
        PipelineTrace {
            root: SpanNode {
                name: name.to_string(),
                start_ns: 0,
                duration_ns: 1,
                counters: Vec::new(),
                histograms: Vec::new(),
                gauges: Vec::new(),
                thread: 0,
                children: Vec::new(),
            },
        }
    }

    #[test]
    fn publish_and_drain_from_threads() {
        // Drain anything left over from other tests first.
        let _ = drain();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    publish(&format!("job-{i}"), trace("generate"));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut drained = drain();
        drained.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(drained.len(), 4);
        assert_eq!(drained[0].0, "job-0");
        assert!(drain().is_empty());
    }

    #[test]
    fn shard_merge_is_lossless() {
        let mut a = MetricsShard::new();
        a.add_counter("c", 3);
        a.record_histogram("h", 10);
        a.set_gauge_seq("g", 1, 0.25);
        a.spans_closed = 2;
        let mut b = MetricsShard::new();
        b.add_counter("c", 4);
        b.add_counter("only_b", 1);
        b.record_histogram("h", 1_000_000);
        b.set_gauge_seq("g", 2, 0.75);
        b.spans_closed = 1;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.counters["c"], 7);
        assert_eq!(ab.counters["only_b"], 1);
        assert_eq!(ab.histograms["h"].count(), 2);
        assert_eq!(ab.gauges["g"], (2, 0.75), "higher sequence wins");
        assert_eq!(ab.spans_closed, 3);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_escaped() {
        let mut shard = MetricsShard::new();
        shard.add_counter("cache.hit", 12);
        shard.set_gauge_seq("audit.spearman", 7, 0.9375);
        shard.record_histogram("lat_ns", 100);
        shard.record_histogram("lat_ns", 200);
        shard.spans_closed = 5;
        let text = render_prometheus(&shard);
        assert!(text.contains("# HELP cogent_cache_hit_total Counter cache.hit"));
        assert!(text.contains("# TYPE cogent_cache_hit_total counter\n"));
        assert!(text.contains("cogent_cache_hit_total 12\n"));
        assert!(text.contains("# TYPE cogent_audit_spearman gauge\n"));
        assert!(text.contains("cogent_audit_spearman 0.9375\n"));
        assert!(text.contains("# TYPE cogent_lat_ns summary\n"));
        assert!(text.contains("cogent_lat_ns_count 2\n"));
        assert!(text.contains("cogent_lat_ns_sum 300\n"));
        assert!(text.contains("cogent_lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("# TYPE cogent_spans_closed counter\n"));
        assert!(text.contains("cogent_spans_closed 5\n"));
        assert_eq!(text, render_prometheus(&shard), "stable output");
    }

    #[test]
    fn prometheus_names_stay_inside_the_charset() {
        let mut shard = MetricsShard::new();
        shard.add_counter("weird\"name\\x", 1);
        shard.add_counter("weird name x", 2); // collides after sanitizing
        shard.add_counter("serve.status.200", 3);
        shard.set_gauge_seq("Ünïcode metric", 1, 1.5);
        shard.record_histogram("latency (ns)", 10);
        let text = render_prometheus(&shard);
        // Every exposed metric name uses only [a-zA-Z0-9_:] — check each
        // non-comment line up to the first '{' or ' '.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name: &str = line.split(['{', ' ']).next().unwrap_or(line);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in line {line:?}"
            );
        }
        // Colliding names merge into one counter family and add up.
        assert!(text.contains("cogent_weird_name_x_total 3\n"));
        assert!(text
            .contains("# HELP cogent_weird_name_x_total Counter weird name x, weird\"name\\\\x"));
        assert!(text.contains("cogent_serve_status_200_total 3\n"));
        assert!(text.contains("cogent__n_code_metric 1.5\n"));
        assert!(text.contains("cogent_latency__ns__count 1\n"));
        assert_eq!(sanitize_metric_name(""), "_");
    }
}
