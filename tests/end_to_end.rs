//! End-to-end integration: generate → lower → interpret → verify, across
//! crates, on representative contractions of every TCCG group.

use cogent::prelude::*;
use cogent::tensor::reference::{contract_reference, random_inputs};

/// Generates a kernel for the entry at a functionally-testable size and
/// checks the interpreted kernel against the reference contraction.
fn verify_entry(entry: &cogent::tccg::TccgEntry, shrink: usize) {
    let tc = entry.contraction();
    let sizes = entry.sizes().scaled_down(shrink);
    let generated = Cogent::new()
        .generate(&tc, &sizes)
        .unwrap_or_else(|e| panic!("{}: generation failed: {e}", entry.name));
    let (a, b) = random_inputs::<f64>(&generated.contraction, &sizes, entry.id as u64);
    let got = interpret_plan(&generated.plan, &a, &b).unwrap();
    let want = contract_reference(&generated.contraction, &sizes, &a, &b);
    assert!(
        got.approx_eq(&want, 1e-10),
        "{}: kernel diverged by {}",
        entry.name,
        got.max_abs_diff(&want)
    );
    // The emitted CUDA reflects the same plan.
    assert!(generated.cuda_source.contains("__global__"));
    for b in generated.plan.bindings() {
        assert!(
            generated
                .cuda_source
                .contains(&format!("#define T_{} {}", b.name, b.tile)),
            "{}: tile constant for {} missing",
            entry.name,
            b.name
        );
    }
}

#[test]
fn ml_group_representative() {
    let suite = cogent::tccg::suite();
    verify_entry(&suite[0], 16); // abc-acd-db
    verify_entry(&suite[5], 8); // abcd-abed-ce
}

#[test]
fn aomo_group_representative() {
    let suite = cogent::tccg::suite();
    verify_entry(&suite[8], 8); // abcd-ebcd-ae
}

#[test]
fn ccsd_group_representative() {
    let suite = cogent::tccg::suite();
    verify_entry(&suite[11], 8); // Eq. 1
    verify_entry(&suite[12], 24); // ab-acd-dbc
    verify_entry(&suite[24], 8); // abcd-efab-cdfe
}

#[test]
fn ccsdt_group_representative() {
    let suite = cogent::tccg::suite();
    verify_entry(&suite[30], 3); // sd1_1
    verify_entry(&suite[39], 3); // sd2_1
}

#[test]
fn generated_kernel_is_size_agnostic() {
    // The kernel is generated against one representative size but must be
    // correct for others: lower the SAME configuration at different sizes.
    let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
    let rep = SizeMap::uniform(&tc, 32);
    let generated = Cogent::new().generate(&tc, &rep).unwrap();

    for extent in [5usize, 9, 17] {
        let sizes = SizeMap::uniform(&tc, extent);
        let plan = generated
            .config
            .lower(&generated.contraction, &sizes)
            .expect("configuration lowers at any size");
        let (a, b) = random_inputs::<f64>(&generated.contraction, &sizes, extent as u64);
        let got = interpret_plan(&plan, &a, &b).unwrap();
        let want = contract_reference(&generated.contraction, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-11), "extent {extent}");
    }
}

#[test]
fn explicit_notation_round_trip() {
    // NWChem-style multi-character index names flow through the whole
    // pipeline.
    let tc: Contraction = "T3[h1,h2,p4,p5] = T2[h3,p4,h1] * V2[p5,h3,h2]"
        .parse()
        .unwrap();
    let sizes = SizeMap::from_pairs([("h1", 6), ("h2", 6), ("h3", 8), ("p4", 10), ("p5", 10)]);
    let generated = Cogent::new().generate(&tc, &sizes).unwrap();
    let (a, b) = random_inputs::<f64>(&generated.contraction, &sizes, 5);
    let got = interpret_plan(&generated.plan, &a, &b).unwrap();
    let want = contract_reference(&generated.contraction, &sizes, &a, &b);
    assert!(got.approx_eq(&want, 1e-11));
    assert!(generated.cuda_source.contains("N_h3"));
}

#[test]
fn matvec_shape_generates_and_executes() {
    // Regression: B purely internal (no externals) must still generate —
    // TBy is legitimately empty and the block is one thread tall.
    let tc: Contraction = "i-ik-k".parse().unwrap();
    let sizes = SizeMap::from_pairs([("i", 512), ("k", 64)]);
    let g = Cogent::new().generate(&tc, &sizes).unwrap();
    let (a, b) = random_inputs::<f64>(&g.contraction, &sizes, 9);
    let got = interpret_plan(&g.plan, &a, &b).unwrap();
    let want = contract_reference(&g.contraction, &sizes, &a, &b);
    assert!(got.approx_eq(&want, 1e-11));
}

#[test]
fn f32_pipeline_end_to_end() {
    let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
    let sizes = SizeMap::uniform(&tc, 5);
    let generated = Cogent::new()
        .precision(Precision::F32)
        .generate(&tc, &sizes)
        .unwrap();
    let (a, b) = random_inputs::<f32>(&generated.contraction, &sizes, 3);
    let got = interpret_plan(&generated.plan, &a, &b).unwrap();
    let want = contract_reference(&generated.contraction, &sizes, &a, &b);
    assert!(got.approx_eq(&want, 1e-3));
}
