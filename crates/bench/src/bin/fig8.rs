//! Regenerates Fig. 8: Tensor Comprehensions' best-so-far GFLOPS as a
//! function of the number of autotuning iterations (code versions
//! evaluated), on the SD2_1 benchmark (`abcdef-gdab-efgc`, FP32, V100),
//! with COGENT's instantly-selected configuration as the reference line.
//! Wall-clock times go to stderr, so the table on stdout is a pure
//! function of the code.
//!
//! Usage: `cargo run --release -p cogent-bench --bin fig8 [--quick]`

use std::time::Instant;

use cogent_baselines::{measure_cogent, SearchStrategy, TcAutotuner};
use cogent_bench::quick_mode;
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_tccg::sd2_entries;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let device = GpuDevice::v100();
    let entry = sd2_entries().into_iter().next().expect("sd2_1 exists");
    assert_eq!(entry.spec, "abcdef-gdab-efgc");
    let tc = entry.contraction();
    let sizes = entry.sizes();

    let start = Instant::now();
    let cogent = measure_cogent(&tc, &sizes, &device, Precision::F32);
    let cogent_s = start.elapsed().as_secs_f64();

    let mut tuner = TcAutotuner::new();
    if quick_mode(&args) {
        tuner.population = 20;
        tuner.generations = 5;
    }
    let start = Instant::now();
    let result = tuner.tune(&tc, &sizes, &device, Precision::F32);
    let tune_s = start.elapsed().as_secs_f64();
    let mut random = tuner.clone();
    random.strategy = SearchStrategy::Random;
    let random_result = random.tune(&tc, &sizes, &device, Precision::F32);

    println!(
        "SD2_1 ({}) on {}, FP32 — TC best-so-far GFLOPS vs code versions evaluated",
        entry.spec, device
    );
    println!("TC untuned: {:.3} GFLOPS", result.untuned.gflops);
    println!(
        "COGENT (model-driven, no tuning): {:.1} GFLOPS",
        cogent.gflops
    );
    eprintln!("COGENT selected in {cogent_s:.3} s, TC tuned in {tune_s:.1} s");
    println!(
        "\n{:>10} {:>14} {:>16}",
        "versions", "GA best", "random best"
    );
    let step = (result.trace.len() / 40).max(1);
    for (point, rnd) in result.trace.iter().zip(&random_result.trace).step_by(step) {
        println!(
            "{:>10} {:>14.1} {:>16.1}",
            point.evaluations, point.gflops, rnd.gflops
        );
    }
    if let (Some(last), Some(rlast)) = (result.trace.last(), random_result.trace.last()) {
        println!(
            "{:>10} {:>14.1} {:>16.1}",
            last.evaluations, last.gflops, rlast.gflops
        );
    }
    println!(
        "\nTC evaluated {} code versions (simulated); best {:.1} GFLOPS — {:.2}x {} COGENT's untuned pick",
        result.evaluations,
        result.tuned.gflops,
        (result.tuned.gflops / cogent.gflops).max(cogent.gflops / result.tuned.gflops),
        if result.tuned.gflops >= cogent.gflops { "above" } else { "below" },
    );
}
