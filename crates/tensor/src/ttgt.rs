//! The TTGT (Transpose-Transpose-GEMM-Transpose) contraction pipeline.
//!
//! This is the classical approach the paper contrasts with: permute both
//! inputs so that all contraction indices are contiguous, flatten groups of
//! indices into single virtual indices, multiply the resulting matrices with
//! GEMM, and permute the product back into the requested output layout.
//!
//! The plan records which permutations are the identity so a performance
//! model can skip their cost, mirroring how TAL_SH avoids no-op transposes.

use cogent_ir::{Contraction, IndexName, SizeMap, TensorRef};

use crate::dense::DenseTensor;
use crate::element::Element;
use crate::gemm::gemm;
use crate::permute::{is_identity_permutation, permutation_between, permute};

/// A fully-resolved TTGT execution plan for one contraction and size map.
///
/// # Examples
///
/// ```
/// use cogent_ir::{Contraction, SizeMap};
/// use cogent_tensor::{reference, ttgt::TtgtPlan};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let sizes = SizeMap::uniform(&tc, 4);
/// let plan = TtgtPlan::new(&tc, &sizes);
/// let (a, b) = reference::random_inputs::<f64>(&tc, &sizes, 1);
/// let c = plan.execute(&a, &b);
/// let want = reference::contract_reference(&tc, &sizes, &a, &b);
/// assert!(c.approx_eq(&want, 1e-12));
/// # Ok::<(), cogent_ir::ParseContractionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TtgtPlan {
    contraction: Contraction,
    /// Permutation applied to `A` producing `TA[ext_a..., ints...]`.
    perm_a: Vec<usize>,
    /// Permutation applied to `B` producing `TB[ints..., ext_b...]`.
    perm_b: Vec<usize>,
    /// Permutation applied to the GEMM product `MC[ext_a..., ext_b...]`
    /// producing `C` in the requested index order.
    perm_c: Vec<usize>,
    /// GEMM dimensions: `MA` is `m×k`, `MB` is `k×n`.
    m: usize,
    n: usize,
    k: usize,
    a_extents: Vec<usize>,
    b_extents: Vec<usize>,
    c_extents: Vec<usize>,
}

impl TtgtPlan {
    /// Builds a TTGT plan.
    ///
    /// External indices of each input keep the relative order in which they
    /// appear in the *output* tensor, so the GEMM result needs only one
    /// final permutation; internal indices keep their order in `A`.
    ///
    /// # Panics
    ///
    /// Panics when `sizes` does not cover the contraction or when the
    /// contraction has batch indices (TTGT would need a *batched* GEMM;
    /// use the direct generator for batched contractions).
    pub fn new(tc: &Contraction, sizes: &SizeMap) -> Self {
        assert!(sizes.covers(tc), "sizes must cover every index");
        assert!(
            tc.batch_indices().is_empty(),
            "TTGT does not support batch indices"
        );
        let ext_a: Vec<IndexName> = tc
            .external_indices()
            .iter()
            .filter(|i| tc.a().contains(i))
            .cloned()
            .collect();
        let ext_b: Vec<IndexName> = tc
            .external_indices()
            .iter()
            .filter(|i| tc.b().contains(i))
            .cloned()
            .collect();
        let ints: Vec<IndexName> = tc.internal_indices().to_vec();

        let ta_order: Vec<IndexName> = ext_a.iter().chain(ints.iter()).cloned().collect();
        let tb_order: Vec<IndexName> = ints.iter().chain(ext_b.iter()).cloned().collect();
        let mc_order: Vec<IndexName> = ext_a.iter().chain(ext_b.iter()).cloned().collect();

        let ta = TensorRef::new("TA", ta_order.iter().map(IndexName::as_str));
        let tb = TensorRef::new("TB", tb_order.iter().map(IndexName::as_str));
        let mc = TensorRef::new("MC", mc_order.iter().map(IndexName::as_str));

        let prod = |names: &[IndexName]| -> usize {
            names
                .iter()
                .map(|i| sizes.extent_of(i))
                .product::<usize>()
                .max(1)
        };

        let extents = |t: &TensorRef| -> Vec<usize> {
            t.indices().iter().map(|i| sizes.extent_of(i)).collect()
        };

        Self {
            perm_a: permutation_between(tc.a(), &ta),
            perm_b: permutation_between(tc.b(), &tb),
            perm_c: permutation_between(&mc, tc.c()),
            m: prod(&ext_a),
            n: prod(&ext_b),
            k: prod(&ints),
            a_extents: extents(tc.a()),
            b_extents: extents(tc.b()),
            c_extents: extents(tc.c()),
            contraction: tc.clone(),
        }
    }

    /// The contraction this plan implements.
    pub fn contraction(&self) -> &Contraction {
        &self.contraction
    }

    /// GEMM dimensions `(m, n, k)` after flattening.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    /// The permutation applied to `A` (output dim `d` = input dim
    /// `perm[d]`).
    pub fn perm_a(&self) -> &[usize] {
        &self.perm_a
    }

    /// The permutation applied to `B`.
    pub fn perm_b(&self) -> &[usize] {
        &self.perm_b
    }

    /// The permutation applied to the GEMM product to reach `C`'s layout.
    pub fn perm_c(&self) -> &[usize] {
        &self.perm_c
    }

    /// Extents of `A` in storage order.
    pub fn a_extents(&self) -> &[usize] {
        &self.a_extents
    }

    /// Extents of `B` in storage order.
    pub fn b_extents(&self) -> &[usize] {
        &self.b_extents
    }

    /// Extents of `C` in storage order.
    pub fn c_extents(&self) -> &[usize] {
        &self.c_extents
    }

    /// Whether the `A` permutation is a no-op.
    pub fn a_transpose_is_identity(&self) -> bool {
        is_identity_permutation(&self.perm_a)
    }

    /// Whether the `B` permutation is a no-op.
    pub fn b_transpose_is_identity(&self) -> bool {
        is_identity_permutation(&self.perm_b)
    }

    /// Whether the output permutation is a no-op.
    pub fn c_transpose_is_identity(&self) -> bool {
        is_identity_permutation(&self.perm_c)
    }

    /// Executes the plan on host tensors.
    ///
    /// # Panics
    ///
    /// Panics when operand shapes do not match the plan's size map.
    pub fn execute<T: Element>(&self, a: &DenseTensor<T>, b: &DenseTensor<T>) -> DenseTensor<T> {
        assert_eq!(
            a.layout().extents(),
            &self.a_extents[..],
            "A shape mismatch"
        );
        assert_eq!(
            b.layout().extents(),
            &self.b_extents[..],
            "B shape mismatch"
        );

        let ta = if self.a_transpose_is_identity() {
            a.clone()
        } else {
            permute(a, &self.perm_a)
        };
        let tb = if self.b_transpose_is_identity() {
            b.clone()
        } else {
            permute(b, &self.perm_b)
        };

        let mut mc = vec![T::ZERO; self.m * self.n];
        gemm(
            self.m,
            self.n,
            self.k,
            ta.as_slice(),
            tb.as_slice(),
            &mut mc,
        );

        // Reshape MC to the unpermuted multi-dimensional output and apply
        // the final permutation. MC's dims are (ext_a..., ext_b...) with
        // extents recoverable from the output: C dim d is MC dim perm_c[d].
        let mut mc_shape = vec![0usize; self.perm_c.len()];
        for (d, &p) in self.perm_c.iter().enumerate() {
            mc_shape[p] = self.c_extents[d];
        }
        let mc_tensor = DenseTensor::from_vec(&mc_shape, mc);
        if self.c_transpose_is_identity() {
            mc_tensor
        } else {
            permute(&mc_tensor, &self.perm_c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{contract_reference, random_inputs};

    fn check(tccg: &str, sizes: &[(&str, usize)]) {
        let tc: Contraction = tccg.parse().unwrap();
        let sizes = SizeMap::from_pairs(sizes.iter().copied());
        let plan = TtgtPlan::new(&tc, &sizes);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 99);
        let got = plan.execute(&a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(
            got.approx_eq(&want, 1e-11),
            "{tccg}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn plain_matmul_needs_no_transposes() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 4), ("j", 5), ("k", 6)]);
        let plan = TtgtPlan::new(&tc, &sizes);
        assert!(plan.a_transpose_is_identity());
        assert!(plan.b_transpose_is_identity());
        assert!(plan.c_transpose_is_identity());
        assert_eq!(plan.gemm_dims(), (4, 5, 6));
        check("ij-ik-kj", &[("i", 4), ("j", 5), ("k", 6)]);
    }

    #[test]
    fn eq1_matches_reference() {
        check(
            "abcd-aebf-dfce",
            &[("a", 3), ("b", 4), ("c", 3), ("d", 2), ("e", 5), ("f", 2)],
        );
    }

    #[test]
    fn eq1_gemm_dims() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes =
            SizeMap::from_pairs([("a", 3), ("b", 4), ("c", 3), ("d", 2), ("e", 5), ("f", 2)]);
        let plan = TtgtPlan::new(&tc, &sizes);
        // m = |a||b| = 12, n = |c||d| = 6, k = |e||f| = 10.
        assert_eq!(plan.gemm_dims(), (12, 6, 10));
        assert!(!plan.a_transpose_is_identity());
        assert!(!plan.b_transpose_is_identity());
    }

    #[test]
    fn sd2_1_matches_reference() {
        check(
            "abcdef-gdab-efgc",
            &[
                ("a", 3),
                ("b", 2),
                ("c", 3),
                ("d", 2),
                ("e", 3),
                ("f", 2),
                ("g", 4),
            ],
        );
    }

    #[test]
    fn ccsd_style_4d_4d() {
        check(
            "abcd-aebf-fdec",
            &[("a", 3), ("b", 3), ("c", 3), ("d", 3), ("e", 4), ("f", 4)],
        );
    }

    #[test]
    fn tensor_matrix_multiply() {
        check("abc-adc-bd", &[("a", 4), ("b", 5), ("c", 3), ("d", 6)]);
    }

    #[test]
    fn outer_product_k_is_one() {
        let tc: Contraction = "ij-i-j".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 3), ("j", 4)]);
        let plan = TtgtPlan::new(&tc, &sizes);
        assert_eq!(plan.gemm_dims(), (3, 4, 1));
        check("ij-i-j", &[("i", 3), ("j", 4)]);
    }

    #[test]
    fn f32_execution() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 3);
        let plan = TtgtPlan::new(&tc, &sizes);
        let (a, b) = random_inputs::<f32>(&tc, &sizes, 5);
        let got = plan.execute(&a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn execute_validates_shapes() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 2), ("j", 2), ("k", 2)]);
        let plan = TtgtPlan::new(&tc, &sizes);
        let bad = DenseTensor::<f64>::zeros(&[3, 2]);
        let b = DenseTensor::<f64>::zeros(&[2, 2]);
        let _ = plan.execute(&bad, &b);
    }
}
