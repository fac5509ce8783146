//! CPU-framework comparison (§VI of the paper: TTGT-with-HPTT vs the
//! direct GETT approach on a multicore CPU). Unlike the GPU figures these
//! are *real wall-clock measurements* of this workspace's host kernels:
//! the naive reference, the TTGT pipeline (permute + GEMM + permute) and
//! the GETT pack-based direct contraction.
//!
//! Usage: `cargo run --release -p cogent-bench --bin cpu_frameworks [--quick]`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use cogent_bench::{quick_mode, run_figure};
use cogent_ir::{Contraction, ContractionAnalysis, SizeMap};
use cogent_tensor::gett::GettPlan;
use cogent_tensor::reference::{contract_reference, random_inputs};
use cogent_tensor::ttgt::TtgtPlan;

fn time_gflops(flops: f64, mut f: impl FnMut()) -> f64 {
    // One warmup, then best of three.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// (name, TCCG spec, extents).
type Case = (&'static str, &'static str, Vec<(&'static str, usize)>);

fn main() -> ExitCode {
    run_figure("cpu_frameworks", figure)
}

fn figure(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let shrink = if quick_mode(args) { 2 } else { 1 };

    let cases: Vec<Case> = vec![
        (
            "matmul",
            "ij-ik-kj",
            vec![
                ("i", 256 / shrink),
                ("j", 256 / shrink),
                ("k", 256 / shrink),
            ],
        ),
        (
            "ttm_3d",
            "abc-acd-db",
            vec![
                ("a", 96 / shrink),
                ("b", 96 / shrink),
                ("c", 96 / shrink),
                ("d", 96 / shrink),
            ],
        ),
        (
            "eq1_4d",
            "abcd-aebf-dfce",
            vec![
                ("a", 24 / shrink),
                ("b", 24 / shrink),
                ("c", 24 / shrink),
                ("d", 24 / shrink),
                ("e", 24 / shrink),
                ("f", 24 / shrink),
            ],
        ),
        (
            "sd2_1",
            "abcdef-gdab-efgc",
            vec![
                ("a", 8),
                ("b", 8),
                ("c", 8),
                ("d", 12 / shrink),
                ("e", 12 / shrink),
                ("f", 12 / shrink),
                ("g", 12),
            ],
        ),
    ];

    writeln!(
        out,
        "host CPU contraction kernels — measured GFLOPS (single thread)"
    )?;
    writeln!(
        out,
        "{:<8} {:<22} {:>10} {:>10} {:>10}",
        "bench", "contraction", "reference", "TTGT", "GETT"
    )?;
    for (name, spec, size_pairs) in cases {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::from_pairs(size_pairs.iter().copied());
        let flops = ContractionAnalysis::new(&tc).flops(&sizes) as f64;
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 1);

        let r = time_gflops(flops, || {
            std::hint::black_box(contract_reference(&tc, &sizes, &a, &b));
        });
        let ttgt_plan = TtgtPlan::new(&tc, &sizes);
        let t = time_gflops(flops, || {
            std::hint::black_box(ttgt_plan.execute(&a, &b));
        });
        let gett_plan = GettPlan::new(&tc, &sizes);
        let g = time_gflops(flops, || {
            std::hint::black_box(gett_plan.execute(&a, &b));
        });
        writeln!(out, "{name:<8} {spec:<22} {r:>10.3} {t:>10.3} {g:>10.3}")?;
    }
    writeln!(
        out,
        "\n(the direct approaches avoid the transposition traffic the paper's §II motivates)"
    )?;
    Ok(())
}
