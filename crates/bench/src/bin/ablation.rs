//! Ablations of COGENT's design choices, quantifying what each mechanism
//! contributes on representative benchmarks:
//!
//! * **cost-model ranking** — simulated GFLOPS of the model's #1 pick vs
//!   the median and worst surviving configurations, and vs an oracle that
//!   simulates a sample of survivors (upper bound);
//! * **pruning rules** — survivor counts and achieved GFLOPS with each
//!   performance rule disabled;
//! * **simulator refinement depth** — `refine_top` 1 vs 4 vs 16 (the
//!   generation times go to stderr, so the tables on stdout are a pure
//!   function of the code).
//!
//! Usage: `cargo run --release -p cogent-bench --bin ablation`

use cogent_core::select::{search, SearchOptions};
use cogent_core::Cogent;
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::simulate;
use cogent_ir::{Contraction, ContractionAnalysis, SizeMap};

fn gflops_of_rank(
    outcome: &cogent_core::SearchOutcome,
    sizes: &SizeMap,
    device: &GpuDevice,
    rank: usize,
) -> f64 {
    let r = &outcome.ranked[rank.min(outcome.ranked.len() - 1)];
    let plan = r
        .config
        .lower(&outcome.contraction, sizes)
        .expect("lowerable");
    let report = simulate(&plan, device, Precision::F64);
    let flops = ContractionAnalysis::new(&outcome.contraction).flops(sizes) as f64;
    flops / report.time.total_s / 1e9
}

fn main() {
    let device = GpuDevice::v100();
    let benches = [
        ("eq1_4d", "abcd-aebf-dfce", 48usize),
        ("sd2_1", "abcdef-gdab-efgc", 20),
        ("ttm_3d", "abc-acd-db", 152),
    ];

    println!("Ablation study on {} (FP64)\n", device);

    println!("--- cost-model ranking quality (simulated GFLOPS) ---");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>14}",
        "bench", "model #1", "median", "worst", "oracle(top64)"
    );
    for (name, spec, n) in benches {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        let opts = SearchOptions {
            top_k: usize::MAX, // keep the full ranking for this study
            ..SearchOptions::default()
        };
        let outcome = search(&tc, &sizes, &device, Precision::F64, &opts);
        let k = outcome.ranked.len();
        let best = gflops_of_rank(&outcome, &sizes, &device, 0);
        let median = gflops_of_rank(&outcome, &sizes, &device, k / 2);
        let worst = gflops_of_rank(&outcome, &sizes, &device, k - 1);
        let oracle = (0..k.min(64))
            .map(|r| gflops_of_rank(&outcome, &sizes, &device, r))
            .fold(0.0f64, f64::max);
        println!("{name:<8} {best:>10.1} {median:>10.1} {worst:>10.1} {oracle:>14.1}");
    }

    println!("\n--- pruning-rule ablation (survivors / picked GFLOPS) ---");
    println!(
        "{:<8} {:>18} {:>18} {:>18} {:>18}",
        "bench", "all rules", "no FVI rule", "no min-blocks", "no occupancy"
    );
    for (name, spec, n) in benches {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        let mut row = format!("{name:<8}");
        for variant in 0..4 {
            let mut opts = SearchOptions::default();
            match variant {
                1 => opts.rules.require_input_fvi_coalescing = false,
                2 => opts.rules.min_blocks_per_sm = 0.0,
                3 => opts.rules.min_occupancy = 0.0,
                _ => {}
            }
            let outcome = search(&tc, &sizes, &device, Precision::F64, &opts);
            let g = gflops_of_rank(&outcome, &sizes, &device, 0);
            row.push_str(&format!(" {:>9}/{:>8.1}", outcome.survivors, g));
        }
        println!("{row}");
    }

    println!("\n--- simulator refinement depth (picked GFLOPS) ---");
    println!(
        "{:<8} {:>9} {:>9} {:>9}",
        "bench", "refine=1", "refine=4", "refine=16"
    );
    for (name, spec, n) in benches {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        let mut row = format!("{name:<8}");
        for k in [1usize, 4, 16] {
            let start = std::time::Instant::now();
            let g = Cogent::new().refine_top(k).generate(&tc, &sizes).unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            let flops = ContractionAnalysis::new(&g.contraction).flops(&sizes) as f64;
            let gf = flops / g.report.time.total_s / 1e9;
            row.push_str(&format!(" {gf:>9.1}"));
            eprintln!("{name} refine={k}: generated in {elapsed:.2} s");
        }
        println!("{row}");
    }
}
