//! The full-suite correctness sweep: every one of the 48 TCCG
//! contractions, shrunk to a functionally-testable size, must execute
//! correctly through (a) COGENT's generated plan, (b) the NWChem-like
//! fixed-recipe plan, and (c) the TTGT pipeline.

use cogent::baselines::{NwchemLikeGenerator, TtgtEngine};
use cogent::prelude::*;
use cogent::tensor::reference::{contract_reference, random_inputs};

/// Shrinks an entry's sizes so the functional test stays fast: every
/// extent is reduced to at most `cap` (but at least 2 where possible).
fn test_sizes(entry: &cogent::tccg::TccgEntry, cap: usize) -> SizeMap {
    let mut out = SizeMap::new();
    for (idx, extent) in entry.sizes().iter() {
        out.set(idx.clone(), extent.min(cap).max(1));
    }
    out
}

#[test]
fn all_48_entries_execute_correctly_via_cogent() {
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        let sizes = test_sizes(&entry, 5);
        let generated = Cogent::new()
            .generate(&tc, &sizes)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let (a, b) = random_inputs::<f64>(&generated.contraction, &sizes, entry.id as u64);
        let got = interpret_plan(&generated.plan, &a, &b).unwrap();
        let want = contract_reference(&generated.contraction, &sizes, &a, &b);
        assert!(
            got.approx_eq(&want, 1e-10),
            "{}: diverged by {}",
            entry.name,
            got.max_abs_diff(&want)
        );
    }
}

#[test]
fn all_48_entries_execute_correctly_via_nwchem_like() {
    let engine = NwchemLikeGenerator::new();
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction().normalized();
        let sizes = test_sizes(&entry, 5);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, entry.id as u64 + 1000);
        let got = engine.execute(&tc, &sizes, &a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(
            got.approx_eq(&want, 1e-10),
            "{}: diverged by {}",
            entry.name,
            got.max_abs_diff(&want)
        );
    }
}

#[test]
fn all_48_entries_execute_correctly_via_ttgt() {
    let engine = TtgtEngine::new();
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        let sizes = test_sizes(&entry, 5);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, entry.id as u64 + 2000);
        let got = engine.execute(&tc, &sizes, &a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(
            got.approx_eq(&want, 1e-10),
            "{}: diverged by {}",
            entry.name,
            got.max_abs_diff(&want)
        );
    }
}

#[test]
fn all_48_entries_have_finite_simulated_measurements() {
    use cogent::baselines::measure_cogent;
    let device = GpuDevice::v100();
    for entry in cogent::tccg::suite().into_iter().step_by(5) {
        let tc = entry.contraction();
        let sizes = entry.sizes();
        let m = measure_cogent(&tc, &sizes, &device, Precision::F64);
        assert!(m.time_s.is_finite() && m.time_s > 0.0, "{}", entry.name);
        assert!(
            m.gflops > 1.0 && m.gflops < device.peak_gflops_f64,
            "{}: {} GFLOPS",
            entry.name,
            m.gflops
        );
    }
}
