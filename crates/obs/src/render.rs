//! Text rendering of a [`PipelineTrace`] as an indented tree.

use crate::{PipelineTrace, SpanNode};

/// Formats a nanosecond duration with a human-friendly unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

pub(crate) fn render_text(trace: &PipelineTrace) -> String {
    let mut out = String::new();
    render_span(&trace.root, trace.root.thread, 0, &mut out);
    out
}

fn render_span(span: &SpanNode, root_thread: u32, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let name_width = 28usize.saturating_sub(indent.len()).max(1);
    out.push_str(&format!(
        "{indent}{:<name_width$} {:>10}",
        span.name,
        fmt_ns(span.duration_ns),
    ));
    // Tag spans recorded off the capture's thread so multi-thread runs
    // are legible in plain text.
    if span.thread != root_thread {
        out.push_str(&format!(" @t{}", span.thread));
    }
    let mut metrics: Vec<String> = span
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    metrics.extend(span.gauges.iter().map(|(k, v)| format!("{k}={v}")));
    metrics.extend(span.histograms.iter().map(|(k, h)| {
        format!(
            "{k}{{n={} p50={} p99={}}}",
            h.count(),
            h.p50().unwrap_or(0),
            h.p99().unwrap_or(0),
        )
    }));
    if !metrics.is_empty() {
        out.push_str(&format!("  [{}]", metrics.join(" ")));
    }
    out.push('\n');
    for child in &span.children {
        render_span(child, root_thread, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }

    #[test]
    fn renders_tree_with_counters() {
        let mut lat = crate::metrics::Histogram::new();
        lat.record(5);
        lat.record(5);
        let trace = PipelineTrace {
            root: SpanNode {
                name: "generate".into(),
                start_ns: 0,
                duration_ns: 2_000_000,
                counters: vec![],
                histograms: vec![],
                gauges: vec![("audit.spearman".into(), 0.95)],
                thread: 3,
                children: vec![
                    SpanNode {
                        name: "prune".into(),
                        start_ns: 10,
                        duration_ns: 1_000,
                        counters: vec![("prune.survivors".into(), 42)],
                        histograms: vec![("prune.lat_ns".into(), lat)],
                        gauges: vec![],
                        thread: 3,
                        children: vec![],
                    },
                    SpanNode {
                        name: "job".into(),
                        start_ns: 20,
                        duration_ns: 500,
                        counters: vec![],
                        histograms: vec![],
                        gauges: vec![],
                        thread: 7,
                        children: vec![],
                    },
                ],
            },
        };
        let text = trace.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("generate"));
        assert!(lines[0].contains("audit.spearman=0.95"));
        assert!(lines[1].starts_with("  prune"));
        assert!(lines[1].contains("prune.survivors=42"));
        assert!(lines[1].contains("prune.lat_ns{n=2 p50=5 p99=5}"));
        // Same-thread spans carry no tag; cross-thread spans do.
        assert!(!lines[1].contains("@t"));
        assert!(lines[2].contains("@t7"));
    }
}
