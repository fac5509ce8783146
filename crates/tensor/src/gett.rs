//! A GETT-style direct CPU contraction.
//!
//! GETT (Springer & Bientinesi) computes tensor contractions *without*
//! explicit transposition by fusing the layout change into the packing
//! step of a BLIS-style GEMM: logical `m`/`n`/`k` dimensions are formed by
//! flattening the A-external, B-external and internal index groups;
//! blocks of `A` and `B` are gathered ("packed") into contiguous panels
//! through strided reads, a cache-resident macro-kernel multiplies the
//! panels, and the result is scattered into `C`'s native layout.
//!
//! The paper evaluates GETT (via TCCG) as the state of the art for direct
//! CPU contractions; this module is that comparator, and also serves as a
//! second, independently-structured implementation to cross-check the
//! TTGT pipeline and the reference contraction — all three must agree.

use cogent_ir::{Contraction, IndexName, SizeMap, TensorRef};

use crate::dense::DenseTensor;
use crate::element::Element;
use crate::gemm::gemm;
use crate::layout::Layout;

/// Cache block sizes for the packed panels (elements).
const MC: usize = 96;
const NC: usize = 96;
const KC: usize = 96;

/// A flattened dimension group viewed inside one tensor: one
/// `(extent, stride)` mode per member index, in group order, so that
/// `apply(p)` is the offset of flat group position `p`.
fn group_view(group: &[IndexName], tensor: &TensorRef, sizes: &SizeMap) -> Layout {
    let extents: Vec<usize> = tensor
        .indices()
        .iter()
        .map(|i| sizes.extent_of(i))
        .collect();
    let strides = Layout::packed(&extents).strides().to_vec();
    Layout::new(group.iter().map(|g| {
        let pos = tensor.position(g).expect("group index belongs to tensor");
        (extents[pos], strides[pos])
    }))
}

/// A GETT execution plan: the index groups and their per-tensor views.
#[derive(Debug, Clone)]
pub struct GettPlan {
    contraction: Contraction,
    a_m: Layout,
    a_k: Layout,
    b_k: Layout,
    b_n: Layout,
    c_m: Layout,
    c_n: Layout,
    m: usize,
    n: usize,
    k: usize,
    a_extents: Vec<usize>,
    b_extents: Vec<usize>,
    c_extents: Vec<usize>,
}

impl GettPlan {
    /// Builds a plan for `tc` under `sizes`.
    ///
    /// # Panics
    ///
    /// Panics when `sizes` does not cover the contraction or the
    /// contraction has batch indices (loop over batch slices instead).
    ///
    /// # Examples
    ///
    /// ```
    /// use cogent_ir::{Contraction, SizeMap};
    /// use cogent_tensor::{gett::GettPlan, reference};
    ///
    /// let tc: Contraction = "abcd-aebf-dfce".parse()?;
    /// let sizes = SizeMap::uniform(&tc, 5);
    /// let plan = GettPlan::new(&tc, &sizes);
    /// let (a, b) = reference::random_inputs::<f64>(&tc, &sizes, 1);
    /// let got = plan.execute(&a, &b);
    /// let want = reference::contract_reference(&tc, &sizes, &a, &b);
    /// assert!(got.approx_eq(&want, 1e-12));
    /// # Ok::<(), cogent_ir::ParseContractionError>(())
    /// ```
    pub fn new(tc: &Contraction, sizes: &SizeMap) -> Self {
        assert!(sizes.covers(tc), "sizes must cover every index");
        assert!(
            tc.batch_indices().is_empty(),
            "GETT plans are per batch slice"
        );
        let m_group: Vec<IndexName> = tc
            .external_indices()
            .iter()
            .filter(|i| tc.a().contains(i))
            .cloned()
            .collect();
        let n_group: Vec<IndexName> = tc
            .external_indices()
            .iter()
            .filter(|i| tc.b().contains(i))
            .cloned()
            .collect();
        let k_group: Vec<IndexName> = tc.internal_indices().to_vec();

        let a_m = group_view(&m_group, tc.a(), sizes);
        let a_k = group_view(&k_group, tc.a(), sizes);
        let b_k = group_view(&k_group, tc.b(), sizes);
        let b_n = group_view(&n_group, tc.b(), sizes);
        let c_m = group_view(&m_group, tc.c(), sizes);
        let c_n = group_view(&n_group, tc.c(), sizes);
        let extents_of = |t: &TensorRef| -> Vec<usize> {
            t.indices().iter().map(|i| sizes.extent_of(i)).collect()
        };
        Self {
            m: a_m.size(),
            n: b_n.size(),
            k: a_k.size().max(1),
            a_extents: extents_of(tc.a()),
            b_extents: extents_of(tc.b()),
            c_extents: extents_of(tc.c()),
            contraction: tc.clone(),
            a_m,
            a_k,
            b_k,
            b_n,
            c_m,
            c_n,
        }
    }

    /// The logical GEMM dimensions `(m, n, k)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    /// The contraction this plan implements.
    pub fn contraction(&self) -> &Contraction {
        &self.contraction
    }

    /// Executes the contraction: pack → macro-kernel → scatter.
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
        let mut c = DenseTensor::<T>::zeros(&self.c_extents);

        let av = a.as_slice();
        let bv = b.as_slice();
        let cv = c.as_mut_slice();

        let mut pack_a = [T::ZERO; MC * KC];
        let mut pack_b = [T::ZERO; KC * NC];
        let mut pack_c = [T::ZERO; MC * NC];

        for nc in (0..self.n).step_by(NC) {
            let n_hi = (nc + NC).min(self.n);
            for kc in (0..self.k).step_by(KC) {
                let k_hi = (kc + KC).min(self.k);
                // Pack B panel: (k_hi-kc) × (n_hi-nc), k fastest.
                let kb = k_hi - kc;
                for (jn, nn) in (nc..n_hi).enumerate() {
                    let boff_n = self.b_n.apply(nn);
                    for (jk, kk) in (kc..k_hi).enumerate() {
                        pack_b[jk + kb * jn] = bv[boff_n + self.b_k.apply(kk)];
                    }
                }
                for mc in (0..self.m).step_by(MC) {
                    let m_hi = (mc + MC).min(self.m);
                    let mb = m_hi - mc;
                    // Pack A panel: mb × kb, m fastest.
                    for (jk, kk) in (kc..k_hi).enumerate() {
                        let aoff_k = self.a_k.apply(kk);
                        for (jm, mm) in (mc..m_hi).enumerate() {
                            pack_a[jm + mb * jk] = av[aoff_k + self.a_m.apply(mm)];
                        }
                    }
                    // Macro-kernel on the packed panels.
                    let nb = n_hi - nc;
                    pack_c[..mb * nb].iter_mut().for_each(|v| *v = T::ZERO);
                    gemm(
                        mb,
                        nb,
                        kb,
                        &pack_a[..mb * kb],
                        &pack_b[..kb * nb],
                        &mut pack_c[..mb * nb],
                    );
                    // Scatter-accumulate into C's native layout.
                    for (jn, nn) in (nc..n_hi).enumerate() {
                        let coff_n = self.c_n.apply(nn);
                        for (jm, mm) in (mc..m_hi).enumerate() {
                            let dst = coff_n + self.c_m.apply(mm);
                            cv[dst] += pack_c[jm + mb * jn];
                        }
                    }
                }
            }
        }
        c
    }
}

/// Convenience: one-shot GETT contraction.
pub fn contract_gett<T: Element>(
    tc: &Contraction,
    sizes: &SizeMap,
    a: &DenseTensor<T>,
    b: &DenseTensor<T>,
) -> DenseTensor<T> {
    GettPlan::new(tc, sizes).execute(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{contract_reference, random_inputs};
    use crate::ttgt::TtgtPlan;

    fn check(tccg: &str, sizes: &[(&str, usize)]) {
        let tc: Contraction = tccg.parse().unwrap();
        let sizes = SizeMap::from_pairs(sizes.iter().copied());
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 23);
        let got = contract_gett(&tc, &sizes, &a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(
            got.approx_eq(&want, 1e-11),
            "{tccg}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn matmul() {
        check("ij-ik-kj", &[("i", 37), ("j", 29), ("k", 41)]);
    }

    #[test]
    fn matmul_crossing_block_boundaries() {
        check("ij-ik-kj", &[("i", 200), ("j", 150), ("k", 120)]);
    }

    #[test]
    fn eq1() {
        check(
            "abcd-aebf-dfce",
            &[("a", 5), ("b", 4), ("c", 5), ("d", 4), ("e", 6), ("f", 3)],
        );
    }

    #[test]
    fn sd2_1() {
        check(
            "abcdef-gdab-efgc",
            &[
                ("a", 3),
                ("b", 3),
                ("c", 3),
                ("d", 4),
                ("e", 4),
                ("f", 4),
                ("g", 5),
            ],
        );
    }

    #[test]
    fn outer_product() {
        check("ij-i-j", &[("i", 10), ("j", 9)]);
    }

    #[test]
    fn all_three_paths_agree() {
        // GETT, TTGT and the reference are three structurally different
        // computations of the same contraction.
        let tc: Contraction = "abc-aefb-fce".parse().unwrap();
        let sizes = SizeMap::from_pairs([("a", 6), ("b", 5), ("c", 6), ("e", 4), ("f", 7)]);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 31);
        let via_ref = contract_reference(&tc, &sizes, &a, &b);
        let via_gett = contract_gett(&tc, &sizes, &a, &b);
        let via_ttgt = TtgtPlan::new(&tc, &sizes).execute(&a, &b);
        assert!(via_gett.approx_eq(&via_ref, 1e-11));
        assert!(via_ttgt.approx_eq(&via_ref, 1e-11));
    }

    #[test]
    fn dims_flatten_groups() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes =
            SizeMap::from_pairs([("a", 3), ("b", 4), ("c", 5), ("d", 6), ("e", 7), ("f", 2)]);
        let plan = GettPlan::new(&tc, &sizes);
        assert_eq!(plan.dims(), (12, 30, 14));
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn validates_shapes() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 4);
        let plan = GettPlan::new(&tc, &sizes);
        let bad = DenseTensor::<f64>::zeros(&[3, 4]);
        let b = DenseTensor::<f64>::zeros(&[4, 4]);
        let _ = plan.execute(&bad, &b);
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn validates_extents_not_just_element_count() {
        // Same element count, transposed extents: must panic, not return
        // silently wrong numbers.
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 3), ("j", 5), ("k", 4)]);
        let plan = GettPlan::new(&tc, &sizes);
        let bad = DenseTensor::<f64>::zeros(&[4, 3]); // should be [3, 4]
        let b = DenseTensor::<f64>::zeros(&[4, 5]);
        let _ = plan.execute(&bad, &b);
    }

    #[test]
    fn f32_path() {
        let tc: Contraction = "abc-acd-db".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 12);
        let (a, b) = random_inputs::<f32>(&tc, &sizes, 3);
        let got = contract_gett(&tc, &sizes, &a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-3));
    }
}
