//! Regenerates Fig. 6 (P100) / Fig. 7 (V100): single-precision GFLOPS of
//! COGENT versus Tensor Comprehensions (with and without autotuning) on
//! the SD2 CCSD(T) contractions, including TC's tuning effort — the
//! paper's headline contrast between model-driven selection (seconds) and
//! genetic autotuning (hours on real hardware; thousands of simulated
//! kernel evaluations here). COGENT's generation times go to stderr, so
//! the table on stdout is a pure function of the code.
//!
//! Usage: `cargo run --release -p cogent-bench --bin fig6_7 -- --device v100 [--quick]`

use std::time::Instant;

use cogent_baselines::{measure_cogent, TcAutotuner};
use cogent_bench::{geomean, parse_device, quick_mode, with_published_trace};
use cogent_gpu_model::Precision;
use cogent_tccg::sd2_entries;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let device = parse_device(&args);
    let quick = quick_mode(&args);
    // COGENT's per-contraction pipeline traces go to results/ as JSONL.
    cogent_obs::set_enabled(true);

    let mut tuner = TcAutotuner::new(); // paper settings: pop 100, 20 gens
    if quick {
        tuner.population = 20;
        tuner.generations = 5;
    }

    println!(
        "SD2 CCSD(T) contractions, FP32, on {} — COGENT vs Tensor Comprehensions",
        device
    );
    println!(
        "{:<7} {:<22} {:>10} {:>12} {:>12} {:>12}",
        "name", "contraction", "COGENT", "TC (tuned)", "TC (untuned)", "tune evals"
    );

    let mut cogent_all = Vec::new();
    let mut tc_all = Vec::new();
    for entry in sd2_entries() {
        let tc_expr = entry.contraction();
        let sizes = entry.sizes();
        let start = Instant::now();
        let cogent = with_published_trace(&entry.name, || {
            measure_cogent(&tc_expr, &sizes, &device, Precision::F32)
        });
        let gen_s = start.elapsed().as_secs_f64();
        let tuned = tuner.tune(&tc_expr, &sizes, &device, Precision::F32);
        println!(
            "{:<7} {:<22} {:>10.1} {:>12.1} {:>12.3} {:>12}",
            entry.name,
            entry.spec,
            cogent.gflops,
            tuned.tuned.gflops,
            tuned.untuned.gflops,
            tuned.evaluations,
        );
        eprintln!("{}: generated in {gen_s:.3} s", entry.name);
        cogent_all.push(cogent.gflops);
        tc_all.push(tuned.tuned.gflops);
    }

    println!(
        "\ngeomean GFLOPS: COGENT {:.1}, TC tuned {:.1} → COGENT is {:.2}x faster with no autotuning",
        geomean(&cogent_all),
        geomean(&tc_all),
        geomean(&cogent_all) / geomean(&tc_all),
    );

    let trace_path = std::path::Path::new("results/fig6_7_traces.jsonl");
    match cogent_bench::write_trace_jsonl(trace_path) {
        Ok(n) if n > 0 => eprintln!("wrote {n} pipeline traces to {}", trace_path.display()),
        Ok(_) => {}
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
}
