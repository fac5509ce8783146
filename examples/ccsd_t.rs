//! CCSD(T) case study: the quantum-chemistry workload that motivates the
//! paper. Compares the three FP64 frameworks on the SD1/SD2 triples
//! contractions and verifies that all execution paths agree numerically.
//!
//! Run with: `cargo run --release --example ccsd_t`

use cogent::baselines::{measure_cogent, NwchemLikeGenerator, TtgtEngine};
use cogent::prelude::*;
use cogent::tensor::reference::{contract_reference, random_inputs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = GpuDevice::v100();
    println!(
        "CCSD(T) triples contractions on {} (FP64, simulated)\n",
        device
    );
    println!(
        "{:<7} {:<22} {:>10} {:>10} {:>10}",
        "kernel", "contraction", "COGENT", "NWChem", "TAL_SH"
    );

    let entries: Vec<_> = cogent::tccg::sd1_entries()
        .into_iter()
        .take(3)
        .chain(cogent::tccg::sd2_entries().into_iter().take(3))
        .collect();

    for entry in &entries {
        let tc = entry.contraction();
        let sizes = entry.sizes();
        let cogent = measure_cogent(&tc, &sizes, &device, Precision::F64);
        let nwchem = NwchemLikeGenerator::new().measure(&tc, &sizes, &device, Precision::F64);
        let talsh = TtgtEngine::new().measure(&tc, &sizes, &device, Precision::F64);
        println!(
            "{:<7} {:<22} {:>10.1} {:>10.1} {:>10.1}",
            entry.name, entry.spec, cogent.gflops, nwchem.gflops, talsh.gflops
        );
    }

    // Numerical cross-check at a reduced size: the COGENT kernel plan, the
    // NWChem-like plan and the TTGT pipeline must all reproduce the naive
    // reference.
    let entry = &entries[0];
    let tc = entry.contraction().normalized();
    let sizes = entry.sizes().scaled_down(4);
    let (a, b) = random_inputs::<f64>(&tc, &sizes, 13);
    let want = contract_reference(&tc, &sizes, &a, &b);

    let generated = Cogent::new().generate(&tc, &sizes)?;
    let via_cogent = interpret_plan(&generated.plan, &a, &b)?;
    let via_nwchem = NwchemLikeGenerator::new().execute(&tc, &sizes, &a, &b);
    let via_ttgt = TtgtEngine::new().execute(&tc, &sizes, &a, &b);

    assert!(via_cogent.approx_eq(&want, 1e-11));
    assert!(via_nwchem.approx_eq(&want, 1e-11));
    assert!(via_ttgt.approx_eq(&want, 1e-11));
    println!(
        "\nnumerical cross-check on {} at reduced size {}: all frameworks agree ✓",
        entry.name, sizes
    );
    Ok(())
}
