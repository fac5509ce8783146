//! Batched (Hadamard-index) contractions — the extension beyond the
//! paper's strict contraction class. A batch index appears in all three
//! tensors and is mapped onto the grid dimension; every execution path
//! that supports it must agree with the reference.

use cogent::baselines::{NaiveDirect, NwchemLikeGenerator};
use cogent::prelude::*;
use cogent::tensor::reference::{contract_reference, random_inputs};
use cogent_ir::TensorRef;

/// Batched matrix multiply: C[i,j,n] = A[i,k,n] * B[k,j,n].
fn batched_matmul() -> Contraction {
    Contraction::with_batch(
        TensorRef::new("C", ["i", "j", "n"]),
        TensorRef::new("A", ["i", "k", "n"]),
        TensorRef::new("B", ["k", "j", "n"]),
    )
    .unwrap()
}

#[test]
fn strict_constructor_still_rejects_batch() {
    let err = Contraction::new(
        TensorRef::new("C", ["i", "j", "n"]),
        TensorRef::new("A", ["i", "k", "n"]),
        TensorRef::new("B", ["k", "j", "n"]),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        cogent_ir::ValidateContractionError::BatchIndex { .. }
    ));
}

#[test]
fn reference_handles_batch_indices() {
    let tc = batched_matmul();
    let sizes = SizeMap::from_pairs([("i", 4), ("j", 5), ("k", 6), ("n", 3)]);
    let (a, b) = random_inputs::<f64>(&tc, &sizes, 1);
    let c = contract_reference(&tc, &sizes, &a, &b);
    // Each batch slice is an independent matmul.
    for n in 0..3 {
        for i in 0..4 {
            for j in 0..5 {
                let mut want = 0.0;
                for k in 0..6 {
                    want += a.get(&[i, k, n]) * b.get(&[k, j, n]);
                }
                assert!((c.get(&[i, j, n]) - want).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn cogent_generates_and_executes_batched_contraction() {
    let tc = batched_matmul();
    let sizes = SizeMap::from_pairs([("i", 24), ("j", 20), ("k", 16), ("n", 6)]);
    let g = Cogent::new().generate(&tc, &sizes).unwrap();
    // The batch index must end up grid-mapped with tile 1.
    assert_eq!(g.plan.binding("n").unwrap().tile, 1);
    assert_eq!(g.plan.binding("n").unwrap().dim, cogent::sim::MapDim::Grid,);
    let (a, b) = random_inputs::<f64>(&g.contraction, &sizes, 2);
    let got = interpret_plan(&g.plan, &a, &b).unwrap();
    let want = contract_reference(&g.contraction, &sizes, &a, &b);
    assert!(got.approx_eq(&want, 1e-11));
    // The emitted CUDA treats n as a grid dimension with tile 1.
    assert!(g.cuda_source.contains("#define T_n 1"));
}

#[test]
fn batched_6d_contraction_with_register_tiles() {
    // C[a,b,c,d,n] = A[a,e,b,n] * B[d,e,c,n]: batch n, internals e.
    let tc = Contraction::with_batch(
        TensorRef::new("C", ["a", "b", "c", "d", "n"]),
        TensorRef::new("A", ["a", "e", "b", "n"]),
        TensorRef::new("B", ["d", "e", "c", "n"]),
    )
    .unwrap();
    let sizes = SizeMap::from_pairs([("a", 8), ("b", 6), ("c", 7), ("d", 5), ("e", 9), ("n", 4)]);
    let g = Cogent::new().generate(&tc, &sizes).unwrap();
    let (a, b) = random_inputs::<f64>(&g.contraction, &sizes, 3);
    let got = interpret_plan(&g.plan, &a, &b).unwrap();
    let want = contract_reference(&g.contraction, &sizes, &a, &b);
    assert!(got.approx_eq(&want, 1e-11));
}

#[test]
fn baselines_handle_batch_indices() {
    let tc = batched_matmul();
    let sizes = SizeMap::from_pairs([("i", 10), ("j", 8), ("k", 6), ("n", 3)]);
    let (a, b) = random_inputs::<f64>(&tc.normalized(), &sizes, 4);
    let want = contract_reference(&tc.normalized(), &sizes, &a, &b);
    let via_nwchem = NwchemLikeGenerator::new().execute(&tc, &sizes, &a, &b);
    assert!(via_nwchem.approx_eq(&want, 1e-11));
    let via_naive = NaiveDirect::new().execute(&tc, &sizes, &a, &b);
    assert!(via_naive.approx_eq(&want, 1e-11));
}

#[test]
#[should_panic(expected = "TTGT does not support batch")]
fn ttgt_rejects_batch_indices() {
    let tc = batched_matmul();
    let sizes = SizeMap::from_pairs([("i", 4), ("j", 4), ("k", 4), ("n", 2)]);
    let _ = cogent::tensor::ttgt::TtgtPlan::new(&tc, &sizes);
}

#[test]
fn batched_flops_and_blocks_scale_with_batch() {
    let tc = batched_matmul();
    let small = SizeMap::from_pairs([("i", 32), ("j", 32), ("k", 32), ("n", 2)]);
    let large = SizeMap::from_pairs([("i", 32), ("j", 32), ("k", 32), ("n", 8)]);
    let gs = Cogent::new().generate(&tc, &small).unwrap();
    let gl = Cogent::new().generate(&tc, &large).unwrap();
    assert_eq!(gl.plan.true_flops(), 4 * gs.plan.true_flops());
    assert_eq!(gl.plan.num_blocks() % gs.plan.num_blocks(), 0);
}
