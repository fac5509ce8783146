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

use std::error::Error;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use cogent_baselines::{measure_cogent, Measurement, NwchemLikeGenerator, TtgtEngine};
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_tccg::TccgEntry;

/// Geometric mean of positive values. Returns `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / n as f64).exp()
}

/// Runs the figure binary `name`: `figure` gets the arguments and the
/// process's one stdout writer. A closed stdout (`fig4_5 | head -3`) ends
/// the run with exit 0 and nothing on stderr; another write error exits
/// 1; any other error is a usage error, printed as `<name>: <message>`
/// with exit 2.
pub fn run_figure(
    name: &str,
    figure: impl FnOnce(&[String], &mut dyn Write) -> Result<(), Box<dyn Error>>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let Err(e) = figure(&args, &mut out).and_then(|()| Ok(out.flush()?)) else {
        return ExitCode::SUCCESS;
    };
    match e.downcast_ref::<io::Error>() {
        Some(io) if io.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Some(io) => {
            eprintln!("{name}: writing stdout: {io}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{name}: {e}");
            ExitCode::from(2)
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
    for (label, trace) in &traces {
        cogent_obs::flight::write_line(&mut out, label, trace);
    }
    let count = traces.len();
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
        let records = cogent_obs::flight::parse_lines(&text).unwrap();
        let (_, trace) = records
            .iter()
            .find(|(label, _)| label == "jsonl_test")
            .expect("the published trace is written");
        assert_eq!(trace.root.counter("test.touched"), Some(1));
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
