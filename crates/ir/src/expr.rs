//! Tensor references and validated contraction expressions.

use std::fmt;

use crate::error::ValidateContractionError;
use crate::index::IndexName;

/// A reference to one tensor: a name plus an ordered list of index names.
///
/// The index list is ordered **fastest-varying first** (generalized
/// column-major). `TensorRef::new("A", ["a", "e", "b", "f"])` denotes the 4D
/// tensor `A[a,e,b,f]` in which consecutive elements along `a` are adjacent
/// in memory — `a` is the tensor's *fastest varying index* (FVI).
///
/// # Examples
///
/// ```
/// use cogent_ir::TensorRef;
///
/// let a = TensorRef::new("A", ["a", "e", "b", "f"]);
/// assert_eq!(a.rank(), 4);
/// assert_eq!(a.fvi().as_str(), "a");
/// assert!(a.contains("e"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorRef {
    name: Box<str>,
    indices: Vec<IndexName>,
}

impl TensorRef {
    /// Creates a tensor reference.
    ///
    /// # Panics
    ///
    /// Panics if the index list is empty or contains a duplicate index, or
    /// if `name` is empty. Use [`TensorRef::try_new`] for a fallible variant.
    pub fn new<I, N>(name: &str, indices: I) -> Self
    where
        I: IntoIterator<Item = N>,
        N: Into<IndexName>,
    {
        Self::try_new(name, indices).expect("invalid tensor reference")
    }

    /// Creates a tensor reference, validating that the name is non-empty,
    /// the index list is non-empty, and no index repeats.
    pub fn try_new<I, N>(name: &str, indices: I) -> Result<Self, ValidateContractionError>
    where
        I: IntoIterator<Item = N>,
        N: Into<IndexName>,
    {
        let indices: Vec<IndexName> = indices.into_iter().map(Into::into).collect();
        if name.is_empty() {
            return Err(ValidateContractionError::EmptyTensorName);
        }
        if indices.is_empty() {
            return Err(ValidateContractionError::EmptyIndexList {
                tensor: name.to_owned(),
            });
        }
        for (i, idx) in indices.iter().enumerate() {
            if indices[..i].contains(idx) {
                return Err(ValidateContractionError::RepeatedIndexInTensor {
                    tensor: name.to_owned(),
                    index: idx.clone(),
                });
            }
        }
        Ok(Self {
            name: name.into(),
            indices,
        })
    }

    /// The tensor's name (e.g. `"A"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered index list, fastest-varying first.
    pub fn indices(&self) -> &[IndexName] {
        &self.indices
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// The fastest varying index (first in the list).
    pub fn fvi(&self) -> &IndexName {
        &self.indices[0]
    }

    /// The slowest varying index (last in the list).
    pub fn svi(&self) -> &IndexName {
        self.indices.last().expect("index list is never empty")
    }

    /// Whether this tensor is indexed by `index`.
    pub fn contains(&self, index: impl AsRef<str>) -> bool {
        let index = index.as_ref();
        self.indices.iter().any(|i| i.as_str() == index)
    }

    /// Position of `index` in this tensor's index list (0 = fastest varying).
    pub fn position(&self, index: impl AsRef<str>) -> Option<usize> {
        let index = index.as_ref();
        self.indices.iter().position(|i| i.as_str() == index)
    }

    /// Returns a copy with the same name and permuted indices.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank()`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.rank(), "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "not a permutation: {perm:?}");
            seen[p] = true;
        }
        Self {
            name: self.name.clone(),
            indices: perm.iter().map(|&p| self.indices[p].clone()).collect(),
        }
    }
}

impl fmt::Display for TensorRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.name)?;
        for (i, idx) in self.indices.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{idx}")?;
        }
        f.write_str("]")
    }
}

/// A validated tensor contraction `C = A * B`.
///
/// Validation enforces the defining property of a contraction, which the
/// COGENT code-generation strategy depends on: **every index appears in
/// exactly two of the three tensors**. Indices shared by `A` and `C` or by
/// `B` and `C` are *external*; indices shared by `A` and `B` are *internal*
/// (contracted / summed).
///
/// # Examples
///
/// ```
/// use cogent_ir::{Contraction, TensorRef};
///
/// let tc = Contraction::new(
///     TensorRef::new("C", ["a", "b", "c", "d"]),
///     TensorRef::new("A", ["a", "e", "b", "f"]),
///     TensorRef::new("B", ["d", "f", "c", "e"]),
/// )?;
/// assert_eq!(tc.internal_indices().len(), 2); // e, f
/// # Ok::<(), cogent_ir::ValidateContractionError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Contraction {
    c: TensorRef,
    a: TensorRef,
    b: TensorRef,
    /// External indices in output order (i.e. the order they appear in `C`).
    externals: Vec<IndexName>,
    /// Internal (contracted) indices in the order they appear in `A`.
    internals: Vec<IndexName>,
    /// Batch (Hadamard) indices present in all three tensors, in output
    /// order. Empty for the strict contraction class of the paper; see
    /// [`Contraction::with_batch`].
    batch: Vec<IndexName>,
}

impl Contraction {
    /// Creates and validates a contraction.
    ///
    /// # Errors
    ///
    /// Returns an error when an index appears in only one tensor, in all
    /// three tensors (a batch/Hadamard index, outside the contraction class
    /// handled by the paper), or when tensor names collide.
    pub fn new(c: TensorRef, a: TensorRef, b: TensorRef) -> Result<Self, ValidateContractionError> {
        Self::build(c, a, b, false)
    }

    /// Like [`Contraction::new`] but also accepts *batch* (Hadamard)
    /// indices — indices present in all three tensors, as in the batched
    /// matrix product `C[i,j,n] = A[i,k,n] * B[k,j,n]`. This generalizes
    /// the paper's contraction class; the code generator maps batch
    /// indices onto the grid dimension.
    ///
    /// # Errors
    ///
    /// Same as [`Contraction::new`], except that batch indices are
    /// accepted instead of rejected.
    ///
    /// # Examples
    ///
    /// ```
    /// use cogent_ir::{Contraction, TensorRef};
    ///
    /// let tc = Contraction::with_batch(
    ///     TensorRef::new("C", ["i", "j", "n"]),
    ///     TensorRef::new("A", ["i", "k", "n"]),
    ///     TensorRef::new("B", ["k", "j", "n"]),
    /// )?;
    /// assert_eq!(tc.batch_indices().len(), 1);
    /// assert_eq!(tc.internal_indices().len(), 1);
    /// # Ok::<(), cogent_ir::ValidateContractionError>(())
    /// ```
    pub fn with_batch(
        c: TensorRef,
        a: TensorRef,
        b: TensorRef,
    ) -> Result<Self, ValidateContractionError> {
        Self::build(c, a, b, true)
    }

    fn build(
        c: TensorRef,
        a: TensorRef,
        b: TensorRef,
        allow_batch: bool,
    ) -> Result<Self, ValidateContractionError> {
        if c.name() == a.name() || c.name() == b.name() || a.name() == b.name() {
            return Err(ValidateContractionError::DuplicateTensorName);
        }

        let mut externals = Vec::new();
        let mut batch = Vec::new();
        for idx in c.indices() {
            let in_a = a.contains(idx);
            let in_b = b.contains(idx);
            match (in_a, in_b) {
                (true, false) | (false, true) => externals.push(idx.clone()),
                (true, true) if allow_batch => batch.push(idx.clone()),
                (true, true) => {
                    return Err(ValidateContractionError::BatchIndex { index: idx.clone() })
                }
                (false, false) => {
                    return Err(ValidateContractionError::UnmatchedIndex {
                        index: idx.clone(),
                        tensor: c.name().to_owned(),
                    })
                }
            }
        }

        let mut internals = Vec::new();
        for idx in a.indices() {
            if c.contains(idx) {
                continue;
            }
            if b.contains(idx) {
                internals.push(idx.clone());
            } else {
                return Err(ValidateContractionError::UnmatchedIndex {
                    index: idx.clone(),
                    tensor: a.name().to_owned(),
                });
            }
        }
        for idx in b.indices() {
            if !c.contains(idx) && !a.contains(idx) {
                return Err(ValidateContractionError::UnmatchedIndex {
                    index: idx.clone(),
                    tensor: b.name().to_owned(),
                });
            }
        }

        Ok(Self {
            c,
            a,
            b,
            externals,
            internals,
            batch,
        })
    }

    /// The output tensor.
    pub fn c(&self) -> &TensorRef {
        &self.c
    }

    /// The left input tensor.
    pub fn a(&self) -> &TensorRef {
        &self.a
    }

    /// The right input tensor.
    pub fn b(&self) -> &TensorRef {
        &self.b
    }

    /// External indices (those appearing in the output), in output order.
    pub fn external_indices(&self) -> &[IndexName] {
        &self.externals
    }

    /// Internal (contracted) indices, in the order they appear in `A`.
    pub fn internal_indices(&self) -> &[IndexName] {
        &self.internals
    }

    /// Batch (Hadamard) indices present in all three tensors, in output
    /// order. Empty unless built with [`Contraction::with_batch`].
    pub fn batch_indices(&self) -> &[IndexName] {
        &self.batch
    }

    /// All distinct indices: externals (output order), then batch indices,
    /// then internals.
    pub fn all_indices(&self) -> impl Iterator<Item = &IndexName> {
        self.externals
            .iter()
            .chain(self.batch.iter())
            .chain(self.internals.iter())
    }

    /// Indices that appear in the output tensor (externals + batch):
    /// exactly `C`'s index set, in externals-then-batch order.
    pub fn output_indices(&self) -> impl Iterator<Item = &IndexName> {
        self.externals.iter().chain(self.batch.iter())
    }

    /// Total number of distinct loop indices.
    pub fn num_indices(&self) -> usize {
        self.externals.len() + self.batch.len() + self.internals.len()
    }

    /// Whether `index` is a batch index.
    pub fn is_batch(&self, index: impl AsRef<str>) -> bool {
        let index = index.as_ref();
        self.batch.iter().any(|i| i.as_str() == index)
    }

    /// Whether `index` is an internal (contracted) index.
    pub fn is_internal(&self, index: impl AsRef<str>) -> bool {
        let index = index.as_ref();
        self.internals.iter().any(|i| i.as_str() == index)
    }

    /// Whether `index` is an external index.
    pub fn is_external(&self, index: impl AsRef<str>) -> bool {
        let index = index.as_ref();
        self.externals.iter().any(|i| i.as_str() == index)
    }

    /// Returns a copy with `A` and `B` swapped (the product is commutative,
    /// the kernel-generation strategy is not: it assumes `A` holds the
    /// output's FVI).
    pub fn swapped(&self) -> Self {
        Self::build(self.c.clone(), self.b.clone(), self.a.clone(), true)
            .expect("swapping preserves validity")
    }

    /// Returns `self` if `A` contains the output's FVI, otherwise the
    /// swapped contraction (so that the returned value always satisfies the
    /// code generator's normalization assumption).
    ///
    /// The output FVI is external, so exactly one input contains it.
    pub fn normalized(&self) -> Self {
        if self.a.contains(self.c.fvi()) {
            self.clone()
        } else {
            self.swapped()
        }
    }

    /// Formats the contraction in TCCG string notation when every index is a
    /// single character (e.g. `"abcd-aebf-dfce"`), otherwise `None`.
    pub fn to_tccg_string(&self) -> Option<String> {
        let part = |t: &TensorRef| -> Option<String> {
            t.indices()
                .iter()
                .map(|i| (i.as_str().len() == 1).then(|| i.as_str().to_owned()))
                .collect()
        };
        Some(format!(
            "{}-{}-{}",
            part(&self.c)?,
            part(&self.a)?,
            part(&self.b)?
        ))
    }
}

impl fmt::Display for Contraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {} * {}", self.c, self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq1() -> Contraction {
        Contraction::new(
            TensorRef::new("C", ["a", "b", "c", "d"]),
            TensorRef::new("A", ["a", "e", "b", "f"]),
            TensorRef::new("B", ["d", "f", "c", "e"]),
        )
        .unwrap()
    }

    #[test]
    fn tensor_ref_basics() {
        let t = TensorRef::new("A", ["a", "e", "b", "f"]);
        assert_eq!(t.name(), "A");
        assert_eq!(t.rank(), 4);
        assert_eq!(t.fvi().as_str(), "a");
        assert_eq!(t.svi().as_str(), "f");
        assert_eq!(t.position("b"), Some(2));
        assert_eq!(t.position("z"), None);
        assert_eq!(t.to_string(), "A[a,e,b,f]");
    }

    #[test]
    fn tensor_ref_rejects_duplicates() {
        let err = TensorRef::try_new("A", ["a", "a"]).unwrap_err();
        assert!(matches!(
            err,
            ValidateContractionError::RepeatedIndexInTensor { .. }
        ));
    }

    #[test]
    fn tensor_ref_rejects_empty() {
        assert!(TensorRef::try_new("A", Vec::<IndexName>::new()).is_err());
        assert!(TensorRef::try_new("", ["a"]).is_err());
    }

    #[test]
    fn permuted() {
        let t = TensorRef::new("A", ["a", "b", "c"]);
        let p = t.permuted(&[2, 0, 1]);
        let names: Vec<_> = p.indices().iter().map(IndexName::as_str).collect();
        assert_eq!(names, ["c", "a", "b"]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_rejects_non_permutation() {
        let t = TensorRef::new("A", ["a", "b", "c"]);
        let _ = t.permuted(&[0, 0, 1]);
    }

    #[test]
    fn eq1_classification() {
        let tc = eq1();
        let ext: Vec<_> = tc
            .external_indices()
            .iter()
            .map(IndexName::as_str)
            .collect();
        let int: Vec<_> = tc
            .internal_indices()
            .iter()
            .map(IndexName::as_str)
            .collect();
        assert_eq!(ext, ["a", "b", "c", "d"]);
        assert_eq!(int, ["e", "f"]);
        assert!(tc.is_internal("e"));
        assert!(!tc.is_internal("a"));
        assert!(tc.is_external("d"));
    }

    #[test]
    fn matmul_classification() {
        // C[i,j] = A[i,k] * B[k,j]
        let tc = Contraction::new(
            TensorRef::new("C", ["i", "j"]),
            TensorRef::new("A", ["i", "k"]),
            TensorRef::new("B", ["k", "j"]),
        )
        .unwrap();
        assert_eq!(tc.internal_indices().len(), 1);
        assert_eq!(tc.num_indices(), 3);
    }

    #[test]
    fn rejects_batch_index() {
        // "a" in all three tensors.
        let err = Contraction::new(
            TensorRef::new("C", ["a", "b"]),
            TensorRef::new("A", ["a", "k"]),
            TensorRef::new("B", ["a", "k", "b"]),
        )
        .unwrap_err();
        assert!(matches!(err, ValidateContractionError::BatchIndex { .. }));
    }

    #[test]
    fn rejects_free_index() {
        // "z" appears only in A.
        let err = Contraction::new(
            TensorRef::new("C", ["a", "b"]),
            TensorRef::new("A", ["a", "k", "z"]),
            TensorRef::new("B", ["k", "b"]),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ValidateContractionError::UnmatchedIndex { .. }
        ));
    }

    #[test]
    fn rejects_output_only_index() {
        let err = Contraction::new(
            TensorRef::new("C", ["a", "b", "z"]),
            TensorRef::new("A", ["a", "k"]),
            TensorRef::new("B", ["k", "b"]),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ValidateContractionError::UnmatchedIndex { .. }
        ));
    }

    #[test]
    fn rejects_duplicate_tensor_names() {
        let err = Contraction::new(
            TensorRef::new("T", ["a", "b"]),
            TensorRef::new("T", ["a", "k"]),
            TensorRef::new("B", ["k", "b"]),
        )
        .unwrap_err();
        assert!(matches!(err, ValidateContractionError::DuplicateTensorName));
    }

    #[test]
    fn swap_roundtrip() {
        let tc = eq1();
        let sw = tc.swapped();
        assert_eq!(sw.a().name(), "B");
        assert_eq!(sw.b().name(), "A");
        assert_eq!(sw.swapped(), tc);
        // Classification is preserved up to ordering.
        let mut i1: Vec<_> = tc.internal_indices().to_vec();
        let mut i2: Vec<_> = sw.internal_indices().to_vec();
        i1.sort();
        i2.sort();
        assert_eq!(i1, i2);
    }

    #[test]
    fn normalized_keeps_a_with_output_fvi() {
        let tc = eq1();
        // "a" is C's FVI and is in A already.
        assert_eq!(tc.normalized(), tc);

        // Build one where the output FVI lives in B.
        let tc2 = Contraction::new(
            TensorRef::new("C", ["d", "a", "b", "c"]),
            TensorRef::new("A", ["a", "e", "b", "f"]),
            TensorRef::new("B", ["d", "f", "c", "e"]),
        )
        .unwrap();
        let n = tc2.normalized();
        assert!(n.a().contains(n.c().fvi()));
        assert_eq!(n.a().name(), "B");
    }

    #[test]
    fn outer_product_is_valid() {
        // No internal index at all: C[i,j] = A[i] * B[j].
        let tc = Contraction::new(
            TensorRef::new("C", ["i", "j"]),
            TensorRef::new("A", ["i"]),
            TensorRef::new("B", ["j"]),
        )
        .unwrap();
        assert!(tc.internal_indices().is_empty());
    }

    #[test]
    fn tccg_string() {
        assert_eq!(eq1().to_tccg_string().unwrap(), "abcd-aebf-dfce");
        let tc = Contraction::new(
            TensorRef::new("C", ["h3", "p6"]),
            TensorRef::new("A", ["h3", "h7"]),
            TensorRef::new("B", ["p6", "h7"]),
        )
        .unwrap();
        assert_eq!(tc.to_tccg_string(), None);
    }

    #[test]
    fn display() {
        assert_eq!(eq1().to_string(), "C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]");
    }
}
