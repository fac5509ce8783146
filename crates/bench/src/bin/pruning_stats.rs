//! Regenerates the §IV search-space statistics: the raw configuration
//! space (|mapping| × |tilesize| — 3,981,312 for Eq. 1), the size of
//! COGENT's structured enumeration, and the fraction removed by the
//! hardware/performance pruning (the paper reports ≈97% pruned across the
//! evaluated benchmarks). Search times go to stderr, so the table on
//! stdout is a pure function of the code.
//!
//! Usage: `cargo run -p cogent-bench --bin pruning_stats [--quick]`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use cogent_bench::{quick_mode, run_figure, with_published_trace};
use cogent_core::select::{search, SearchOptions};
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_tccg::suite;

fn main() -> ExitCode {
    run_figure("pruning_stats", figure)
}

fn figure(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let device = GpuDevice::v100();
    // Per-contraction search traces (enumerate/prune/rank spans with the
    // per-rule reject counters) land in results/ as JSONL.
    cogent_obs::set_enabled(true);
    let entries = suite();
    let entries: Vec<_> = if quick_mode(args) {
        entries.into_iter().step_by(8).collect()
    } else {
        entries
    };

    writeln!(out, "COGENT search-space statistics (V100, FP64)")?;
    writeln!(
        out,
        "{:>3} {:<8} {:<22} {:>14} {:>8} {:>9} {:>8}",
        "#", "name", "contraction", "raw space", "enum", "survive", "pruned"
    )?;

    let mut pruned_fractions = Vec::new();
    for entry in &entries {
        let tc = entry.contraction();
        let sizes = entry.sizes();
        let start = Instant::now();
        let outcome = with_published_trace(&entry.name, || {
            search(
                &tc,
                &sizes,
                &device,
                Precision::F64,
                &SearchOptions::default(),
            )
        });
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        writeln!(
            out,
            "{:>3} {:<8} {:<22} {:>14} {:>8} {:>9} {:>7.1}%",
            entry.id,
            entry.name,
            entry.spec,
            outcome.raw_space,
            outcome.enumerated,
            outcome.survivors,
            outcome.pruned_fraction() * 100.0
        )?;
        eprintln!("{}: searched in {elapsed:.2} ms", entry.name);
        pruned_fractions.push(outcome.pruned_fraction());
    }

    let avg = pruned_fractions.iter().sum::<f64>() / pruned_fractions.len() as f64;
    writeln!(
        out,
        "\naverage pruned fraction: {:.1}% (paper: ~97% of configurations pruned before cost evaluation)",
        avg * 100.0,
    )?;

    // The paper's worked example.
    let eq1 = &suite()[11];
    let outcome = search(
        &eq1.contraction(),
        &eq1.sizes(),
        &device,
        Precision::F64,
        &SearchOptions::default(),
    );
    writeln!(
        out,
        "Eq. 1 ({}): raw space {} (paper: 3,981,312), structured enumeration {}, cost model evaluated {} survivors",
        eq1.spec, outcome.raw_space, outcome.enumerated, outcome.survivors,
    )?;

    let trace_path = std::path::Path::new("results/pruning_stats_traces.jsonl");
    match cogent_bench::write_trace_jsonl(trace_path) {
        Ok(n) if n > 0 => eprintln!("wrote {n} search traces to {}", trace_path.display()),
        Ok(_) => {}
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
    Ok(())
}
