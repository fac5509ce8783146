//! Property test over the whole generator: for random valid contractions
//! and random (small) extents, `Cogent::generate` must succeed, the chosen
//! plan must compute the reference answer, and the emitted sources must
//! lint clean.

use cogent_core::codegen::lint_kernel_source;
use cogent_core::Cogent;
use cogent_ir::{Contraction, SizeMap, TensorRef};
use cogent_kir::interpret_plan;
use cogent_tensor::reference::{contract_reference, random_inputs};
use proptest::prelude::*;

/// Random contraction with 1–2 externals per input, 1–2 internals, rotated
/// input layouts, extents 2..8.
fn case_strategy() -> impl Strategy<Value = (Contraction, SizeMap)> {
    (
        1usize..=2,
        1usize..=2,
        1usize..=2,
        0usize..4,
        0usize..4,
        prop::collection::vec(2usize..8, 6),
    )
        .prop_map(|(na, nb, ni, rot_a, rot_b, extents)| {
            let total = na + nb + ni;
            let letters: Vec<String> = (0..total)
                .map(|i| ((b'a' + i as u8) as char).to_string())
                .collect();
            let ext_a = &letters[..na];
            let ext_b = &letters[na..na + nb];
            let ints = &letters[na + nb..];
            let c_idx: Vec<&str> = ext_a
                .iter()
                .chain(ext_b.iter())
                .map(String::as_str)
                .collect();
            let mut a_idx: Vec<&str> = ext_a
                .iter()
                .chain(ints.iter())
                .map(String::as_str)
                .collect();
            let mut b_idx: Vec<&str> = ext_b
                .iter()
                .chain(ints.iter())
                .map(String::as_str)
                .collect();
            let (la, lb) = (a_idx.len(), b_idx.len());
            a_idx.rotate_left(rot_a % la);
            b_idx.rotate_left(rot_b % lb);
            let tc = Contraction::new(
                TensorRef::new("C", c_idx),
                TensorRef::new("A", a_idx),
                TensorRef::new("B", b_idx),
            )
            .expect("valid");
            let sizes = SizeMap::from_pairs(
                letters
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (l.as_str(), extents[i % extents.len()])),
            );
            (tc, sizes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generate_execute_verify((tc, sizes) in case_strategy(), seed in 0u64..50) {
        let generated = Cogent::new().generate(&tc, &sizes).expect("generates");
        let (a, b) = random_inputs::<f64>(&generated.contraction, &sizes, seed);
        let got = interpret_plan(&generated.plan, &a, &b).expect("interprets");
        let want = contract_reference(&generated.contraction, &sizes, &a, &b);
        prop_assert!(
            got.approx_eq(&want, 1e-10),
            "{}: diverged by {}",
            generated.contraction,
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn emitted_sources_lint_clean((tc, sizes) in case_strategy()) {
        let generated = Cogent::new().generate(&tc, &sizes).expect("generates");
        let cuda = lint_kernel_source(&generated.cuda_source);
        prop_assert!(cuda.is_empty(), "CUDA: {cuda:?}");
        let ocl = lint_kernel_source(&generated.opencl_source);
        prop_assert!(ocl.is_empty(), "OpenCL: {ocl:?}");
    }

    /// The no-panic guarantee: whatever `generate` thinks of the input —
    /// including size maps with missing entries — it must return a typed
    /// `CogentError`, never unwind.
    #[test]
    fn generate_never_panics((tc, sizes) in case_strategy(), drop in 0usize..4, verify in 0usize..2) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let verify = verify == 1;
        // Sometimes drop an index to exercise the incomplete-sizes path.
        let sizes = if drop == 0 {
            let mut pruned = cogent_ir::SizeMap::new();
            for (i, name) in tc.all_indices().enumerate() {
                if i != 0 {
                    pruned.set(name.clone(), sizes.extent_of(name));
                }
            }
            pruned
        } else {
            sizes
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Cogent::new()
                .verify_numeric(verify)
                .generate(&tc, &sizes)
                .map(|g| g.provenance.degraded())
        }));
        prop_assert!(outcome.is_ok(), "{tc}: generate panicked");
        if drop == 0 {
            prop_assert!(
                matches!(outcome.unwrap(), Err(cogent_core::CogentError::IncompleteSizes { .. })),
                "{tc}: missing extents must surface as IncompleteSizes"
            );
        }
    }

    #[test]
    fn search_statistics_are_consistent((tc, sizes) in case_strategy()) {
        let generated = Cogent::new().generate(&tc, &sizes).expect("generates");
        let s = &generated.search;
        prop_assert!(s.survivors <= s.enumerated);
        prop_assert!((s.enumerated as u128) <= s.raw_space.max(s.enumerated as u128));
        if !s.rules_relaxed {
            let pruned: usize = s.prune_histogram.values().sum();
            prop_assert_eq!(pruned + s.survivors, s.enumerated);
        }
    }
}
