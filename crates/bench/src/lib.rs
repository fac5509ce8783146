//! Shared harness utilities for the figure-regeneration binaries.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation:
//!
//! | Binary          | Reproduces |
//! |-----------------|------------|
//! | `fig4_5`        | Figs. 4–5: COGENT vs NWChem-gen vs TAL_SH on the 48 TCCG benchmarks (FP64), P100/V100 |
//! | `fig6_7`        | Figs. 6–7: COGENT vs Tensor Comprehensions (tuned/untuned) on the SD2 subset (FP32) |
//! | `fig8`          | Fig. 8: TC best-so-far GFLOPS vs autotuning iterations on SD2_1 |
//! | `pruning_stats` | §IV statistics: raw space size, enumerated/pruned counts |

use std::path::Path;
use std::time::Instant;

use cogent_baselines::{measure_cogent, Measurement, NwchemLikeGenerator, TtgtEngine};
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_obs::json::Json;
use cogent_tccg::TccgEntry;

/// Geometric mean of positive values. Returns `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / n as f64).exp()
}

/// Parses `--device p100|v100` from an argument list (defaults to V100).
pub fn parse_device(args: &[String]) -> GpuDevice {
    match args
        .iter()
        .position(|a| a == "--device")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("p100") => GpuDevice::p100(),
        Some("v100") | None => GpuDevice::v100(),
        Some(other) => {
            eprintln!("unknown device {other:?}, using v100");
            GpuDevice::v100()
        }
    }
}

/// Whether a `--quick` flag is present (binaries shrink their workloads).
pub fn quick_mode(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quick")
}

/// One row of the Fig. 4/5 comparison.
#[derive(Debug, Clone)]
pub struct Fig45Row {
    /// The benchmark.
    pub entry: TccgEntry,
    /// COGENT's simulated GFLOPS.
    pub cogent: Measurement,
    /// The NWChem-like generator's simulated GFLOPS.
    pub nwchem: Measurement,
    /// The TAL_SH-like TTGT engine's simulated GFLOPS.
    pub talsh: Measurement,
    /// Seconds COGENT spent generating (search + lowering + simulation).
    pub generation_s: f64,
}

/// Runs `f` under a [`cogent_obs::Capture`] and publishes the resulting
/// pipeline trace to the global registry under `label`. A no-op wrapper
/// while tracing is disabled.
pub fn with_published_trace<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let capture = cogent_obs::Capture::start(label);
    let value = f();
    if let Some(trace) = capture.finish() {
        cogent_obs::registry::publish(label, trace);
    }
    value
}

/// Drains the trace registry and writes one JSON object per line
/// (`{"label": ..., "trace": {...}}`) to `path`, creating parent
/// directories as needed. Returns how many traces were written; writes
/// nothing (and leaves any existing file alone) when the registry is
/// empty.
pub fn write_trace_jsonl(path: &Path) -> std::io::Result<usize> {
    let traces = cogent_obs::registry::drain();
    if traces.is_empty() {
        return Ok(0);
    }
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out = String::new();
    let count = traces.len();
    for (label, trace) in traces {
        let line = Json::Object(vec![
            ("label".to_string(), Json::Str(label)),
            ("trace".to_string(), trace.to_json()),
        ]);
        line.write(&mut out);
        out.push('\n');
    }
    std::fs::write(path, out)?;
    Ok(count)
}

/// Runs the three FP64 frameworks of Figs. 4–5 on one benchmark.
pub fn run_fig45_entry(entry: &TccgEntry, device: &GpuDevice) -> Fig45Row {
    let tc = entry.contraction();
    let sizes = entry.sizes();
    let start = Instant::now();
    let cogent = with_published_trace(&entry.name, || {
        measure_cogent(&tc, &sizes, device, Precision::F64)
    });
    let generation_s = start.elapsed().as_secs_f64();
    let nwchem = NwchemLikeGenerator::new().measure(&tc, &sizes, device, Precision::F64);
    let talsh = TtgtEngine::new().measure(&tc, &sizes, device, Precision::F64);
    Fig45Row {
        entry: entry.clone(),
        cogent,
        nwchem,
        talsh,
        generation_s,
    }
}

/// Formats a GFLOPS column.
pub fn fmt_gflops(m: &Measurement) -> String {
    format!("{:9.1}", m.gflops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn parse_device_flags() {
        let p = parse_device(&["--device".into(), "p100".into()]);
        assert_eq!(p.sm_count, 56);
        let v = parse_device(&[]);
        assert_eq!(v.sm_count, 80);
    }

    #[test]
    fn quick_flag() {
        assert!(quick_mode(&["--quick".into()]));
        assert!(!quick_mode(&[]));
    }

    #[test]
    fn published_traces_written_as_jsonl() {
        cogent_obs::set_enabled(true);
        let value = with_published_trace("jsonl_test", || {
            cogent_obs::counter("test.touched", 1);
            42
        });
        cogent_obs::set_enabled(false);
        assert_eq!(value, 42);

        let path = std::env::temp_dir().join("cogent_bench_trace_test.jsonl");
        let written = write_trace_jsonl(&path).unwrap();
        assert!(written >= 1);
        let text = std::fs::read_to_string(&path).unwrap();
        // Concurrent tests may publish too; every line must parse and
        // ours must be among them.
        let mut found = false;
        for line in text.lines() {
            let json = Json::parse(line).unwrap();
            if json.get("label").and_then(Json::as_str) == Some("jsonl_test") {
                assert!(json.get("trace").and_then(|t| t.get("root")).is_some());
                found = true;
            }
        }
        assert!(found, "published trace missing from {text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fig45_row_runs_one_entry() {
        let entry = &cogent_tccg::suite()[11]; // Eq. 1
        let row = run_fig45_entry(entry, &GpuDevice::v100());
        assert!(row.cogent.gflops > 0.0);
        assert!(row.nwchem.gflops > 0.0);
        assert!(row.talsh.gflops > 0.0);
        assert!(row.generation_s > 0.0);
    }
}
