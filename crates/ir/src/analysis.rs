//! Index classification and data-reuse analysis.
//!
//! The COGENT strategy rests on one domain property (§II of the paper): in a
//! tensor contraction every loop index occurs in exactly two of the three
//! tensors, so each index is a **reuse dimension for exactly one tensor** —
//! the tensor that it does *not* index. Iterating that loop re-accesses the
//! same elements of that tensor. This partitions the loop indices of an
//! arbitrary-dimensional contraction into three groups, which is what makes
//! the pruned mapping space tractable.

use crate::expr::Contraction;
use crate::index::IndexName;
use crate::size::SizeMap;

/// Which of the three tensors a statement refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorRole {
    /// The output tensor `C`.
    C,
    /// The left input tensor `A`.
    A,
    /// The right input tensor `B`.
    B,
}

impl TensorRole {
    /// All three roles, in `C`, `A`, `B` order.
    pub const ALL: [TensorRole; 3] = [TensorRole::C, TensorRole::A, TensorRole::B];
}

/// Classification of a loop index by the set of tensors it occurs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexClass {
    /// External index shared by `A` and `C` — a reuse dimension for `B`.
    ExternalA,
    /// External index shared by `B` and `C` — a reuse dimension for `A`.
    ExternalB,
    /// Internal (contracted) index shared by `A` and `B` — a reuse dimension
    /// for `C`.
    Internal,
    /// Batch (Hadamard) index present in all three tensors — no reuse
    /// dimension; only valid for contractions built with
    /// [`Contraction::with_batch`](crate::Contraction::with_batch).
    Batch,
}

impl IndexClass {
    /// The tensor for which an index of this class is a reuse dimension
    /// (i.e. the tensor not indexed by it), or `None` for batch indices,
    /// which index all three tensors.
    pub fn reuse_tensor(self) -> Option<TensorRole> {
        match self {
            IndexClass::ExternalA => Some(TensorRole::B),
            IndexClass::ExternalB => Some(TensorRole::A),
            IndexClass::Internal => Some(TensorRole::C),
            IndexClass::Batch => None,
        }
    }

    /// Whether the index appears in the output tensor but is not a batch
    /// index (i.e. it is an external of exactly one input).
    pub fn is_external(self) -> bool {
        matches!(self, IndexClass::ExternalA | IndexClass::ExternalB)
    }
}

/// Precomputed classification of every index of a contraction, plus derived
/// arithmetic-intensity statistics.
///
/// # Examples
///
/// ```
/// use cogent_ir::{Contraction, ContractionAnalysis, IndexClass, SizeMap, TensorRole};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let analysis = ContractionAnalysis::new(&tc);
/// assert_eq!(analysis.classify("a"), Some(IndexClass::ExternalA));
/// assert_eq!(analysis.classify("c"), Some(IndexClass::ExternalB));
/// assert_eq!(analysis.classify("e"), Some(IndexClass::Internal));
/// assert_eq!(
///     analysis.classify("e").unwrap().reuse_tensor(),
///     Some(TensorRole::C),
/// );
///
/// let sizes = SizeMap::uniform(&tc, 10);
/// assert_eq!(analysis.flops(&sizes), 2_000_000); // 2 * 10^6
/// # Ok::<(), cogent_ir::ParseContractionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContractionAnalysis {
    contraction: Contraction,
    externals_a: Vec<IndexName>,
    externals_b: Vec<IndexName>,
}

impl ContractionAnalysis {
    /// Analyzes a contraction.
    pub fn new(contraction: &Contraction) -> Self {
        let mut externals_a = Vec::new();
        let mut externals_b = Vec::new();
        for idx in contraction.external_indices() {
            if contraction.a().contains(idx) {
                externals_a.push(idx.clone());
            } else {
                externals_b.push(idx.clone());
            }
        }
        Self {
            contraction: contraction.clone(),
            externals_a,
            externals_b,
        }
    }

    /// The analyzed contraction.
    pub fn contraction(&self) -> &Contraction {
        &self.contraction
    }

    /// Classifies `index`, or `None` when the contraction does not use it.
    pub fn classify(&self, index: impl AsRef<str>) -> Option<IndexClass> {
        let index = index.as_ref();
        if self.externals_a.iter().any(|i| i.as_str() == index) {
            Some(IndexClass::ExternalA)
        } else if self.externals_b.iter().any(|i| i.as_str() == index) {
            Some(IndexClass::ExternalB)
        } else if self.contraction.is_internal(index) {
            Some(IndexClass::Internal)
        } else if self.contraction.is_batch(index) {
            Some(IndexClass::Batch)
        } else {
            None
        }
    }

    /// Batch indices, in output order.
    pub fn batch(&self) -> &[IndexName] {
        self.contraction.batch_indices()
    }

    /// External indices shared by `A` and `C`, in output order.
    pub fn externals_a(&self) -> &[IndexName] {
        &self.externals_a
    }

    /// External indices shared by `B` and `C`, in output order.
    pub fn externals_b(&self) -> &[IndexName] {
        &self.externals_b
    }

    /// Internal indices, in `A` order.
    pub fn internals(&self) -> &[IndexName] {
        self.contraction.internal_indices()
    }

    /// Whether the output tensor's fastest varying index lives in `A`.
    ///
    /// Algorithm 2 of the paper assumes it does; use
    /// [`Contraction::normalized`] to establish the assumption.
    pub fn output_fvi_in_a(&self) -> bool {
        self.contraction.a().contains(self.contraction.c().fvi())
    }

    /// Total floating point operations (one multiply + one add per innermost
    /// iteration): `2 * prod_i N_i` over all loop indices.
    ///
    /// # Panics
    ///
    /// Panics when `sizes` is missing an extent.
    pub fn flops(&self, sizes: &SizeMap) -> u128 {
        2 * self
            .contraction
            .all_indices()
            .map(|i| sizes.extent_of(i) as u128)
            .product::<u128>()
    }

    /// Total tensor footprint in elements: `|A| + |B| + |C|`.
    ///
    /// # Panics
    ///
    /// Panics when `sizes` is missing an extent.
    pub fn footprint_elements(&self, sizes: &SizeMap) -> u128 {
        [
            self.contraction.c(),
            self.contraction.a(),
            self.contraction.b(),
        ]
        .into_iter()
        .map(|t| {
            t.indices()
                .iter()
                .map(|i| sizes.extent_of(i) as u128)
                .product::<u128>()
        })
        .sum()
    }

    /// Arithmetic intensity in FLOPs per element touched (assuming each
    /// tensor is read/written exactly once): `flops / footprint`.
    pub fn arithmetic_intensity(&self, sizes: &SizeMap) -> f64 {
        self.flops(sizes) as f64 / self.footprint_elements(sizes) as f64
    }

    /// Product of the extents of the internal indices — the number of terms
    /// summed into each output element.
    pub fn contraction_length(&self, sizes: &SizeMap) -> u128 {
        self.internals()
            .iter()
            .map(|i| sizes.extent_of(i) as u128)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq1() -> Contraction {
        "abcd-aebf-dfce".parse().unwrap()
    }

    #[test]
    fn classification_partitions_indices() {
        let tc = eq1();
        let an = ContractionAnalysis::new(&tc);
        let a: Vec<_> = an.externals_a().iter().map(IndexName::as_str).collect();
        let b: Vec<_> = an.externals_b().iter().map(IndexName::as_str).collect();
        let i: Vec<_> = an.internals().iter().map(IndexName::as_str).collect();
        assert_eq!(a, ["a", "b"]);
        assert_eq!(b, ["c", "d"]);
        assert_eq!(i, ["e", "f"]);
        assert_eq!(a.len() + b.len() + i.len(), tc.num_indices());
    }

    #[test]
    fn reuse_tensor_property() {
        // Each index is a reuse dimension for exactly the tensor that does
        // not contain it.
        let tc = eq1();
        let an = ContractionAnalysis::new(&tc);
        for idx in tc.all_indices() {
            let class = an.classify(idx).unwrap();
            let reused = match class.reuse_tensor().expect("no batch indices here") {
                TensorRole::C => tc.c(),
                TensorRole::A => tc.a(),
                TensorRole::B => tc.b(),
            };
            assert!(!reused.contains(idx), "reuse tensor must not contain {idx}");
        }
    }

    #[test]
    fn classify_unknown_index() {
        let an = ContractionAnalysis::new(&eq1());
        assert_eq!(an.classify("z"), None);
    }

    #[test]
    fn flops_matmul() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let an = ContractionAnalysis::new(&tc);
        let sizes = SizeMap::from_pairs([("i", 3), ("j", 4), ("k", 5)]);
        assert_eq!(an.flops(&sizes), 2 * 3 * 4 * 5);
        assert_eq!(an.footprint_elements(&sizes), 12 + 15 + 20);
        assert_eq!(an.contraction_length(&sizes), 5);
    }

    #[test]
    fn arithmetic_intensity_grows_with_size() {
        let tc = eq1();
        let an = ContractionAnalysis::new(&tc);
        let small = SizeMap::uniform(&tc, 8);
        let large = SizeMap::uniform(&tc, 32);
        assert!(an.arithmetic_intensity(&large) > an.arithmetic_intensity(&small));
    }

    #[test]
    fn output_fvi_in_a() {
        let an = ContractionAnalysis::new(&eq1());
        assert!(an.output_fvi_in_a());
        let swapped = eq1().swapped();
        let an2 = ContractionAnalysis::new(&swapped);
        assert!(!an2.output_fvi_in_a());
        let norm = ContractionAnalysis::new(&swapped.normalized());
        assert!(norm.output_fvi_in_a());
    }

    #[test]
    fn index_class_external() {
        assert!(IndexClass::ExternalA.is_external());
        assert!(IndexClass::ExternalB.is_external());
        assert!(!IndexClass::Internal.is_external());
    }

    #[test]
    fn roles_all() {
        assert_eq!(TensorRole::ALL.len(), 3);
    }

    #[test]
    fn batch_classification() {
        use crate::TensorRef;
        let tc = Contraction::with_batch(
            TensorRef::new("C", ["i", "j", "n"]),
            TensorRef::new("A", ["i", "k", "n"]),
            TensorRef::new("B", ["k", "j", "n"]),
        )
        .unwrap();
        let an = ContractionAnalysis::new(&tc);
        assert_eq!(an.classify("n"), Some(IndexClass::Batch));
        assert_eq!(an.classify("n").unwrap().reuse_tensor(), None);
        assert!(!IndexClass::Batch.is_external());
        assert_eq!(an.batch(), tc.batch_indices());
        // flops count the batch dimension once.
        let sizes = SizeMap::from_pairs([("i", 2), ("j", 3), ("k", 4), ("n", 5)]);
        assert_eq!(an.flops(&sizes), 2 * 2 * 3 * 4 * 5);
    }
}
