//! Metric tables and the per-workload outcome every workload returns.

use std::collections::BTreeMap;

use cogent::obs::json::Json;

use crate::stats::{geomean, median, percentile};

/// End-to-end metrics, `(name, unit)`, reported by every workload of an
/// untraced run. `BENCHMARK.json` declares the same list with bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_geomean_ms", "ms"),
    ("op_median_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("kernel_gmem_requests_geomean", "count"),
];

/// Per-layer metrics, `(name, unit)`, reported by every workload of a
/// traced run. A layer that is not on a workload's path reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("select.search_ms", "ms"),
    ("select.enumerated", "count"),
    ("select.survivor_ratio", "ratio"),
    ("config.lower_ms", "ms"),
    ("guard.validate_ms", "ms"),
    ("gpu_sim.simulate_ms", "ms"),
    ("gpu_sim.simulate_calls", "count"),
    ("gpu_sim.refine_changed_ratio", "ratio"),
    ("gpu_sim.execute_ms", "ms"),
    ("gpu_sim.pred_gflops_geomean", "GFLOP/s"),
    ("kir.lower_ms", "ms"),
    ("kir.passes_ms", "ms"),
    ("kir.print_ms", "ms"),
    ("kir.passes_applied", "count"),
    ("kir.smem_replays_mean", "count"),
    ("kir.barriers_mean", "count"),
    ("kir.interpret_ms", "ms"),
    ("kir.interpret_vs_execute", "ratio"),
    ("codegen.driver_ms", "ms"),
    ("codegen.cuda_bytes", "bytes"),
    ("guard.divergence_ms", "ms"),
    ("tensor.reference_ms", "ms"),
    ("tensor.inputs_ms", "ms"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("serve.connect_p50_ms", "ms"),
    ("serve.ttfb_p50_ms", "ms"),
    ("serve.ttfb_p99_ms", "ms"),
    ("serve.server_total_p50_ms", "ms"),
    ("serve.server_total_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.search_p50_ms", "ms"),
    ("serve.unattributed_p50_ms", "ms"),
    ("serve.unattributed_p99_ms", "ms"),
    ("serve.unattributed_share", "ratio"),
    ("serve.response_bytes", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("process.cpu_ms_per_op", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.identity_ratio", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Diagnostics: failed checks, unsupported tail percentiles.
    pub notes: Vec<String>,
    /// Raw spans of a traced run.
    pub spans: Option<Json>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Marks `count` more operations as failed, never more than attempted.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed = (self.failed + count).min(self.attempted);
        self.notes.push(why);
    }

    /// The workload's result as the child process prints it.
    pub fn to_json(&self, traced: bool) -> Json {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics = table.iter().map(|&(name, unit)| {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            (
                name,
                Json::obj([
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        });
        let mut out = vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(u128::from(self.attempted))),
            ("failed", Json::UInt(u128::from(self.failed))),
            ("metrics", Json::obj(metrics)),
            (
                "notes",
                Json::Array(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ];
        if let Some(spans) = &self.spans {
            out.push(("spans", spans.clone()));
        }
        Json::obj(out)
    }
}

/// Sets the latency metrics of a workload that repeats the same entries
/// (rounds of the 48 suite entries, cycles of the 48 churn entries) from
/// each entry's latencies in ms. An entry's latency is the 10th
/// percentile of its repetitions: the host's speed drifts by a quarter
/// over seconds to minutes and contention only adds time, so the fast
/// repetitions are the ones that repeat across runs. An entry that
/// failed once has no latency (+∞).
pub fn set_entry_metrics(by_entry: &[Vec<f64>], out: &mut Outcome) {
    let fast: Vec<f64> = by_entry
        .iter()
        .map(|samples| {
            if samples.iter().all(|l| l.is_finite()) {
                percentile(samples, 0.1)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    out.set(
        "ops_per_s",
        fast.len() as f64 * 1e3 / fast.iter().sum::<f64>(),
    );
    out.set("op_geomean_ms", geomean(&fast));
    out.set("op_median_ms", median(&fast));
    out.set("op_tail_ms", fast.iter().copied().fold(0.0, f64::max));
}

/// FNV-1a 64-bit, the hash of the golden emit corpus.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and `BENCHMARK.json` must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let coded: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, coded, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn failures_are_capped_and_flip_correct() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        assert_eq!(o.to_json(false).get("correct"), Some(&Json::Bool(true)));
        o.fail(5, "x".into());
        assert_eq!(o.failed, 3);
        assert_eq!(o.to_json(false).get("correct"), Some(&Json::Bool(false)));
        let traced = o.to_json(true);
        let metrics = traced.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn entry_metrics_take_each_entrys_fast_repetitions() {
        let slow: Vec<f64> = (1..=10).map(|v| f64::from(v) * 10.0).collect();
        let fast: Vec<f64> = (1..=10).map(f64::from).collect();
        let mut out = Outcome::default();
        set_entry_metrics(&[fast.clone(), slow.clone()], &mut out);
        assert!((out.values["ops_per_s"] - 2e3 / 11.0).abs() < 1e-9);
        assert!((out.values["op_geomean_ms"] - 10f64.sqrt()).abs() < 1e-12);
        assert_eq!(out.values["op_median_ms"], 5.5);
        assert_eq!(out.values["op_tail_ms"], 10.0);
        let mut failed = slow;
        failed[9] = f64::INFINITY;
        set_entry_metrics(&[fast, failed], &mut out);
        assert!(out.values["op_tail_ms"].is_infinite());
        assert_eq!(out.values["ops_per_s"], 0.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
