//! Differential pinning of the KIR pass pipeline: for every entry of the
//! 48-benchmark TCCG suite, the lowered program transformed by the
//! default pass pipeline (vectorize → pad → double-buffer) must still
//! interpret to the sequential reference result, lint clean under the
//! pass-aware structural checks, and never predict more global-memory
//! traffic than the baseline.
//!
//! Extents are ragged (not divisible by typical tiles), so partial-tile
//! guards, the vector alignment fallback, and prologue/prefetch staging
//! are all exercised on most entries. Both the base and the transformed
//! program must also reproduce their golden output bits exactly.

mod common;

use cogent::kir::{estimate_traffic, interpret, lint_kernel_program, lower_to_kir, PassManager};
use cogent::prelude::*;
use cogent::tensor::reference::{contract_reference, random_inputs};

#[test]
fn default_pipeline_is_sound_on_all_48_entries() {
    let mut applied_any = 0usize;
    for (i, entry) in cogent::tccg::suite().into_iter().enumerate() {
        let tc = entry.contraction();
        let sizes = SizeMap::uniform(&tc, 4 + (i % 3));
        let g = Cogent::new()
            .generate(&tc, &sizes)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));

        let base = lower_to_kir(&g.plan).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let before = estimate_traffic(&base)
            .unwrap_or_else(|e| panic!("{}: baseline traffic: {e}", entry.name));

        let mut prog = base.clone();
        let report = PassManager::default_pipeline(2)
            .run(&mut prog)
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", entry.name));
        let applied = report.applied();
        assert_eq!(
            prog.meta.passes, applied,
            "{}: provenance must match the pipeline report",
            entry.name
        );
        if !applied.is_empty() {
            applied_any += 1;
        }

        let plan_sizes = SizeMap::from_pairs(
            g.plan
                .bindings()
                .iter()
                .map(|b| (b.name.as_str(), b.extent)),
        );
        let (a, b) = random_inputs::<f64>(g.plan.contraction(), &plan_sizes, 83 + i as u64);
        let want = contract_reference(g.plan.contraction(), &plan_sizes, &a, &b);
        let got = interpret(&prog, &plan_sizes, &a, &b).unwrap_or_else(|e| {
            panic!("{}: interpreter failed after {applied:?}: {e}", entry.name)
        });
        assert!(
            got.approx_eq(&want, 1e-10),
            "{}: passes {:?} diverge from reference by {:e}",
            entry.name,
            applied,
            got.max_abs_diff(&want)
        );
        common::assert_golden_bits(&entry.name, "passes", &got);
        let got_base = interpret(&base, &plan_sizes, &a, &b).unwrap_or_else(|e| {
            panic!(
                "{}: interpreter failed on the base program: {e}",
                entry.name
            )
        });
        common::assert_golden_bits(&entry.name, "base", &got_base);

        let lint = lint_kernel_program(&prog);
        assert!(
            lint.is_clean(),
            "{}: passes {:?} fail lint: {:?}",
            entry.name,
            applied,
            lint.findings
        );

        let after = estimate_traffic(&prog)
            .unwrap_or_else(|e| panic!("{}: transformed traffic: {e}", entry.name));
        assert!(
            after.global_requests <= before.global_requests,
            "{}: pipeline regressed global requests {} -> {}",
            entry.name,
            before.global_requests,
            after.global_requests
        );
        assert!(
            after.barriers <= before.barriers,
            "{}: pipeline regressed barriers {} -> {}",
            entry.name,
            before.barriers,
            after.barriers
        );
    }
    assert!(
        applied_any >= 16,
        "default pipeline applied nothing on {}/48 entries",
        48 - applied_any
    );
}

/// At the real TCCG benchmark sizes the pipeline must pay for itself:
/// predicted global-memory warp requests strictly reduced on at least a
/// third of the suite, and never increased anywhere.
#[test]
fn default_pipeline_strictly_reduces_requests_on_a_third_of_the_suite() {
    let mut improved = 0usize;
    let mut total = 0usize;
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        let sizes = entry.sizes();
        let g = Cogent::new()
            .generate(&tc, &sizes)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let base = lower_to_kir(&g.plan).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let before = estimate_traffic(&base)
            .unwrap_or_else(|e| panic!("{}: baseline traffic: {e}", entry.name));
        let mut prog = base;
        PassManager::default_pipeline(2)
            .run(&mut prog)
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", entry.name));
        let after = estimate_traffic(&prog)
            .unwrap_or_else(|e| panic!("{}: transformed traffic: {e}", entry.name));
        assert!(
            after.global_requests <= before.global_requests,
            "{}: pipeline regressed global requests {} -> {}",
            entry.name,
            before.global_requests,
            after.global_requests
        );
        total += 1;
        if after.global_requests < before.global_requests {
            improved += 1;
        }
    }
    assert!(
        improved * 3 >= total,
        "requests strictly reduced on only {improved}/{total} entries"
    );
}
