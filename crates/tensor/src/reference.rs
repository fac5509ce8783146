//! Naive reference contraction — ground truth for every other execution
//! path in the workspace.

use cogent_ir::{Contraction, IndexName, SizeMap};

use crate::dense::DenseTensor;
use crate::element::Element;
use crate::layout::Layout;

/// Allocates a tensor shaped according to `tensor_indices` under `sizes`.
fn extents_of(indices: &[IndexName], sizes: &SizeMap) -> Vec<usize> {
    indices.iter().map(|i| sizes.extent_of(i)).collect()
}

/// Allocates input tensors `(A, B)` for `tc` with deterministic random
/// contents — a convenience for tests and examples.
pub fn random_inputs<T: Element>(
    tc: &Contraction,
    sizes: &SizeMap,
    seed: u64,
) -> (DenseTensor<T>, DenseTensor<T>) {
    let a = DenseTensor::random(&extents_of(tc.a().indices(), sizes), seed);
    let b = DenseTensor::random(&extents_of(tc.b().indices(), sizes), seed.wrapping_add(1));
    (a, b)
}

/// Directly evaluates `C[ext] = sum_int A * B` with nested loops.
///
/// The implementation iterates every output element and accumulates over the
/// full internal iteration space — `O(prod N_i)` work with no blocking. It
/// exists to be obviously correct, not fast.
///
/// # Panics
///
/// Panics when `sizes` does not cover the contraction or the operand shapes
/// do not match `sizes`.
///
/// # Examples
///
/// ```
/// use cogent_ir::{Contraction, SizeMap};
/// use cogent_tensor::{reference::{contract_reference, random_inputs}, DenseTensor};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let sizes = SizeMap::uniform(&tc, 4);
/// let (a, b) = random_inputs::<f64>(&tc, &sizes, 42);
/// let c = contract_reference(&tc, &sizes, &a, &b);
/// assert_eq!(c.len(), 4usize.pow(4));
/// # Ok::<(), cogent_ir::ParseContractionError>(())
/// ```
pub fn contract_reference<T: Element>(
    tc: &Contraction,
    sizes: &SizeMap,
    a: &DenseTensor<T>,
    b: &DenseTensor<T>,
) -> DenseTensor<T> {
    assert!(sizes.covers(tc), "sizes must cover every index");
    let a_extents = extents_of(tc.a().indices(), sizes);
    let b_extents = extents_of(tc.b().indices(), sizes);
    assert_eq!(a.layout().extents(), &a_extents[..], "A shape mismatch");
    assert_eq!(b.layout().extents(), &b_extents[..], "B shape mismatch");

    let c_extents = extents_of(tc.c().indices(), sizes);
    let mut c = DenseTensor::<T>::zeros(&c_extents);

    // Loop order: output indices (externals then batch), then internals.
    // Each operand is viewed over a run of loop indices as a layout: its
    // own stride for an index it has, stride 0 for one it lacks.
    let loop_indices: Vec<&IndexName> = tc.all_indices().collect();
    let (ext, int) = loop_indices.split_at(tc.external_indices().len() + tc.batch_indices().len());
    let view = |t: &cogent_ir::TensorRef, layout: &Layout, over: &[&IndexName]| {
        Layout::new(over.iter().map(|i| {
            let stride = t.position(i).map_or(0, |p| layout.strides()[p]);
            (sizes.extent_of(i), stride)
        }))
    };
    let (a_ext, a_int) = (view(tc.a(), a.layout(), ext), view(tc.a(), a.layout(), int));
    let (b_ext, b_int) = (view(tc.b(), b.layout(), ext), view(tc.b(), b.layout(), int));
    let c_ext = view(tc.c(), c.layout(), ext);

    let (av, bv) = (a.as_slice(), b.as_slice());
    for p in 0..c_ext.size() {
        let (a0, b0) = (a_ext.apply(p), b_ext.apply(p));
        let acc = if int.is_empty() {
            av[a0] * bv[b0]
        } else {
            (0..a_int.size()).fold(T::ZERO, |acc, q| {
                av[a0 + a_int.apply(q)].mul_add_(bv[b0 + b_int.apply(q)], acc)
            })
        };
        c.as_mut_slice()[c_ext.apply(p)] = acc;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_gemm() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 7), ("j", 5), ("k", 9)]);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 3);
        let c = contract_reference(&tc, &sizes, &a, &b);
        let want = crate::gemm::matmul(&a, &b);
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn transposed_matmul() {
        // C[i,j] = A[k,i] * B[j,k]: both inputs "transposed".
        let tc: Contraction = "ij-ki-jk".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 4), ("j", 3), ("k", 5)]);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 7);
        let c = contract_reference(&tc, &sizes, &a, &b);
        for i in 0..4 {
            for j in 0..3 {
                let mut want = 0.0;
                for k in 0..5 {
                    want += a.get(&[k, i]) * b.get(&[j, k]);
                }
                assert!((c.get(&[i, j]) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn outer_product() {
        let tc: Contraction = "ij-i-j".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 3), ("j", 2)]);
        let a = DenseTensor::from_vec(&[3], vec![1.0f64, 2.0, 3.0]);
        let b = DenseTensor::from_vec(&[2], vec![10.0f64, 100.0]);
        let c = contract_reference(&tc, &sizes, &a, &b);
        assert_eq!(c.get(&[2, 1]), 300.0);
        assert_eq!(c.get(&[0, 0]), 10.0);
    }

    #[test]
    fn inner_product_to_rank1() {
        // C[i] = A[i,k] * B[k]: contraction to a vector.
        let tc: Contraction = "i-ik-k".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 2), ("k", 3)]);
        let a = DenseTensor::from_vec(&[2, 3], vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseTensor::from_vec(&[3], vec![1.0f64, 1.0, 1.0]);
        let c = contract_reference(&tc, &sizes, &a, &b);
        // A col-major: A[0,:] = 1,3,5 ; A[1,:] = 2,4,6.
        assert_eq!(c.get(&[0]), 9.0);
        assert_eq!(c.get(&[1]), 12.0);
    }

    #[test]
    fn eq1_4d_contraction_shape_and_symmetry() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes =
            SizeMap::from_pairs([("a", 2), ("b", 3), ("c", 2), ("d", 3), ("e", 4), ("f", 2)]);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 11);
        let c = contract_reference(&tc, &sizes, &a, &b);
        assert_eq!(c.layout().extents(), &[2, 3, 2, 3]);
        // Spot check one element against a hand-rolled quadruple loop.
        let (ai, bi, ci, di) = (1, 2, 1, 2);
        let mut want = 0.0;
        for e in 0..4 {
            for f in 0..2 {
                want += a.get(&[ai, e, bi, f]) * b.get(&[di, f, ci, e]);
            }
        }
        assert!((c.get(&[ai, bi, ci, di]) - want).abs() < 1e-12);
    }

    #[test]
    fn sd2_1_6d_contraction() {
        let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 3);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 21);
        let c = contract_reference(&tc, &sizes, &a, &b);
        assert_eq!(c.len(), 3usize.pow(6));
        // Spot check.
        let p = [1usize, 2, 0, 1, 2, 0]; // (a,b,c,d,e,f)
        let mut want = 0.0;
        for g in 0..3 {
            want += a.get(&[g, p[3], p[0], p[1]]) * b.get(&[p[4], p[5], g, p[2]]);
        }
        assert!((c.get(&p) - want).abs() < 1e-12);
    }

    #[test]
    fn swapped_operands_same_result() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 3);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 31);
        let c1 = contract_reference(&tc, &sizes, &a, &b);
        let c2 = contract_reference(&tc.swapped(), &sizes, &b, &a);
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn rejects_wrong_shape() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 2), ("j", 2), ("k", 2)]);
        let a = DenseTensor::<f64>::zeros(&[3, 2]);
        let b = DenseTensor::<f64>::zeros(&[2, 2]);
        let _ = contract_reference(&tc, &sizes, &a, &b);
    }
}
