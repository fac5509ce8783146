//! The guard-layer sweep over the full TCCG suite: with numeric
//! verification switched on, `Cogent::generate` must never panic, every
//! produced kernel must carry honest provenance, and any degradation must
//! be visible — a fallback kernel still computes the right answer.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cogent::generator::PlanSource;
use cogent::prelude::*;
use cogent::tensor::reference::{contract_reference, random_inputs};

/// Shrinks an entry's sizes so the functional sweep stays fast.
fn test_sizes(entry: &cogent::tccg::TccgEntry, cap: usize) -> SizeMap {
    let mut out = SizeMap::new();
    for (idx, extent) in entry.sizes().iter() {
        out.set(idx.clone(), extent.min(cap).max(1));
    }
    out
}

#[test]
fn generate_with_verification_never_panics_across_the_suite() {
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        let sizes = test_sizes(&entry, 5);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Cogent::new().verify_numeric(true).generate(&tc, &sizes)
        }));
        let result = outcome.unwrap_or_else(|_| panic!("{}: generate panicked", entry.name));
        let generated = result.unwrap_or_else(|e| panic!("{}: {e}", entry.name));

        // Provenance is honest: a search-sourced kernel that passed the
        // divergence gate reports verified; a fallback reports degraded.
        match generated.provenance.source {
            PlanSource::Search { .. } => assert!(
                generated.provenance.numeric_verified,
                "{}: search kernel skipped verification",
                entry.name
            ),
            PlanSource::NaiveFallback => assert!(
                generated.provenance.degraded(),
                "{}: fallback not reported as degraded",
                entry.name
            ),
        }

        // Whatever rung of the ladder won, the answer is right.
        let (a, b) = random_inputs::<f64>(&generated.contraction, &sizes, entry.id as u64 + 3000);
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
fn suite_generation_is_undegraded_at_production_sizes() {
    // Sampled (every 7th entry) at the paper's real sizes: the validator
    // must not reject the model's choice, and nothing should fall back.
    for entry in cogent::tccg::suite().into_iter().step_by(7) {
        let tc = entry.contraction();
        let sizes = entry.sizes();
        let generated = Cogent::new()
            .generate(&tc, &sizes)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert!(
            !generated.provenance.degraded(),
            "{}: degraded at production sizes: {}",
            entry.name,
            generated.provenance
        );
    }
}
