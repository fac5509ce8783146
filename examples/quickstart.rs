//! Quickstart: generate a CUDA kernel for the paper's running example
//! (Eq. 1), inspect the search statistics, verify the selected mapping
//! functionally, and print the emitted source.
//!
//! Run with: `cargo run --example quickstart`

use cogent::prelude::*;
use cogent::tensor::reference::{contract_reference, random_inputs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Eq. 1 of the paper: C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e].
    let tc: Contraction = "abcd-aebf-dfce".parse()?;
    let sizes = SizeMap::uniform(&tc, 24);
    println!("contraction:          {tc}");
    println!("representative sizes: {sizes}");

    // Model-driven generation for the V100 (the paper's main platform).
    let generated = Cogent::new().generate(&tc, &sizes)?;

    println!("\n=== search ===");
    println!("raw configuration space: {}", generated.search.raw_space);
    println!("structured enumeration:  {}", generated.search.enumerated);
    println!("after pruning:           {}", generated.search.survivors);
    println!(
        "pruned fraction:         {:.1}%",
        generated.search.pruned_fraction() * 100.0
    );

    println!("\n=== selected configuration ===");
    println!("{}", generated.config);
    println!("{}", generated.plan);
    println!(
        "simulated: {:.1} GFLOPS ({:.3} ms), occupancy {:.0}%, {} DRAM transactions",
        generated.report.gflops,
        generated.report.time.total_s * 1e3,
        generated.report.occupancy.fraction * 100.0,
        generated.report.trace.total(),
    );

    // Functional verification: run the kernel plan on the virtual GPU and
    // compare against the naive reference contraction.
    let (a, b) = random_inputs::<f64>(&generated.contraction, &sizes, 7);
    let got = interpret_plan(&generated.plan, &a, &b)?;
    let want = contract_reference(&generated.contraction, &sizes, &a, &b);
    assert!(got.approx_eq(&want, 1e-11));
    println!("\nfunctional check: generated kernel matches the reference contraction ✓");

    println!("\n=== generated CUDA (first 40 lines) ===");
    for line in generated.cuda_source.lines().take(40) {
        println!("{line}");
    }
    println!(
        "... ({} lines total)",
        generated.cuda_source.lines().count()
    );
    Ok(())
}
