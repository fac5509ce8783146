//! Outside-in spans around calls into the program's layers, plus the
//! process counters (CPU time, peak RSS) a workload reports.
//!
//! Spans stay in memory and are serialized once, after the run.

use std::collections::BTreeMap;
use std::time::Instant;

use cogent::obs::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    /// The operation (request or generation) the span belongs to.
    pub op: u32,
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span whose ends were taken elsewhere; returns its index.
    pub fn record(
        &mut self,
        op: u32,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Opens a span; [`Tracer::close`] sets its end.
    pub fn open(&mut self, op: u32, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(op, name, parent, now, now)
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span that is a child of `parent`.
    pub fn time<T>(
        &mut self,
        op: u32,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(op, name, Some(parent), start, Instant::now());
        out
    }

    /// Total nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name).or_insert(0) += s.ns();
        }
        totals
    }

    /// Mean milliseconds per op spent in spans called `name`.
    pub fn ms_per_op(&self, name: &str, ops: usize) -> f64 {
        let ns = self.totals().get(name).copied().unwrap_or(0);
        if ops == 0 {
            0.0
        } else {
            ns as f64 / 1e6 / ops as f64
        }
    }

    /// Share of the time inside `op` root spans that their direct child
    /// spans account for.
    pub fn coverage(&self) -> f64 {
        let (mut roots, mut children) = (0u64, 0u64);
        for s in &self.spans {
            match s.parent {
                None if s.name == "op" => roots += s.ns(),
                Some(p) if self.spans[p].name == "op" => children += s.ns(),
                _ => {}
            }
        }
        if roots == 0 {
            0.0
        } else {
            children as f64 / roots as f64
        }
    }

    /// `[op, name, parent, start_ns, end_ns]` rows; a root's parent is -1.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::Array(vec![
                        Json::UInt(u128::from(s.op)),
                        Json::Str(s.name.to_string()),
                        s.parent
                            .map_or(Json::Float(-1.0), |p| Json::UInt(p as u128)),
                        Json::UInt(u128::from(s.start_ns)),
                        Json::UInt(u128::from(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// User plus system CPU seconds of this process, all threads
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After ')' field 3 (state) is index 0, so utime (14) is 11, stime 12.
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_direct_children_of_ops() {
        let mut t = Tracer::default();
        let origin = t.origin;
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        let root = t.record(0, "op", None, at(0), at(100));
        let child = t.record(0, "a", Some(root), at(0), at(60));
        t.record(0, "nested", Some(child), at(0), at(50));
        t.record(0, "b", Some(root), at(60), at(90));
        t.record(0, "probe", None, at(100), at(500));
        assert!((t.coverage() - 0.9).abs() < 1e-12);
        assert_eq!(t.totals()["nested"], 50);
        assert!((t.ms_per_op("a", 1) - 60e-6).abs() < 1e-15);
    }

    #[test]
    fn process_counters_read_proc() {
        assert!(peak_rss_mib() > 0.0);
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(cpu_seconds() > 0.0);
    }
}
