//! Representative problem sizes.

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::{Contraction, TensorRef};
use crate::index::IndexName;

/// A map from index name to extent (`N_i` in the paper's terminology).
///
/// The code generator does not require the exact problem size at generation
/// time — only a *representative* size used for performance modelling and
/// tile-size selection. The generated kernel itself supports arbitrary
/// extents.
///
/// # Examples
///
/// ```
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let sizes = SizeMap::uniform(&tc, 24);
/// assert_eq!(sizes.extent("a"), Some(24));
/// assert_eq!(sizes.linear_size(tc.a()), Some(24usize.pow(4)));
/// # Ok::<(), cogent_ir::ParseContractionError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeMap {
    extents: BTreeMap<IndexName, usize>,
}

impl SizeMap {
    /// Creates an empty size map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a size map assigning the same extent to every index of the
    /// contraction.
    pub fn uniform(contraction: &Contraction, extent: usize) -> Self {
        let mut m = Self::new();
        for idx in contraction.all_indices() {
            m.set(idx.clone(), extent);
        }
        m
    }

    /// Builds a size map from `(index, extent)` pairs.
    ///
    /// # Examples
    ///
    /// ```
    /// let sizes = cogent_ir::SizeMap::from_pairs([("a", 16), ("b", 24)]);
    /// assert_eq!(sizes.extent("b"), Some(24));
    /// ```
    pub fn from_pairs<I, N>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (N, usize)>,
        N: Into<IndexName>,
    {
        let mut m = Self::new();
        for (name, extent) in pairs {
            m.set(name.into(), extent);
        }
        m
    }

    /// Sets the extent of one index, returning the previous extent if any.
    ///
    /// # Panics
    ///
    /// Panics if `extent` is zero.
    pub fn set(&mut self, index: impl Into<IndexName>, extent: usize) -> Option<usize> {
        assert!(extent > 0, "extent must be positive");
        self.extents.insert(index.into(), extent)
    }

    /// The extent of `index`, or `None` when unset.
    pub fn extent(&self, index: impl AsRef<str>) -> Option<usize> {
        self.extents.get(index.as_ref()).copied()
    }

    /// The extent of `index`.
    ///
    /// # Panics
    ///
    /// Panics when the extent is unset.
    pub fn extent_of(&self, index: impl AsRef<str>) -> usize {
        let index = index.as_ref();
        self.extent(index)
            .unwrap_or_else(|| panic!("no extent for index {index}"))
    }

    /// Whether every index of `contraction` has an extent.
    pub fn covers(&self, contraction: &Contraction) -> bool {
        contraction.all_indices().all(|i| self.extent(i).is_some())
    }

    /// Number of elements of the given tensor, or `None` if an extent is
    /// missing.
    pub fn linear_size(&self, tensor: &TensorRef) -> Option<usize> {
        tensor
            .indices()
            .iter()
            .map(|i| self.extent(i))
            .try_fold(1usize, |acc, e| e.map(|e| acc * e))
    }

    /// Iterates over `(index, extent)` pairs in index-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&IndexName, usize)> {
        self.extents.iter().map(|(k, &v)| (k, v))
    }

    /// Number of indices with a recorded extent.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Returns a copy with every extent divided by `factor` (rounded up,
    /// minimum 1). Useful for shrinking a benchmark problem to a
    /// functional-test size.
    pub fn scaled_down(&self, factor: usize) -> Self {
        assert!(factor > 0, "factor must be positive");
        Self {
            extents: self
                .extents
                .iter()
                .map(|(k, &v)| (k.clone(), v.div_ceil(factor).max(1)))
                .collect(),
        }
    }
}

impl fmt::Display for SizeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        f.write_str("}")
    }
}

impl<N: Into<IndexName>> FromIterator<(N, usize)> for SizeMap {
    fn from_iter<I: IntoIterator<Item = (N, usize)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

impl<N: Into<IndexName>> Extend<(N, usize)> for SizeMap {
    fn extend<I: IntoIterator<Item = (N, usize)>>(&mut self, iter: I) {
        for (n, e) in iter {
            self.set(n.into(), e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq1() -> Contraction {
        "abcd-aebf-dfce".parse().unwrap()
    }

    #[test]
    fn uniform_covers_all() {
        let tc = eq1();
        let s = SizeMap::uniform(&tc, 16);
        assert!(s.covers(&tc));
        assert_eq!(s.len(), 6);
        assert_eq!(s.extent_of("f"), 16);
    }

    #[test]
    fn linear_size() {
        let tc = eq1();
        let s = SizeMap::from_pairs([("a", 2), ("b", 3), ("c", 4), ("d", 5), ("e", 6), ("f", 7)]);
        assert_eq!(s.linear_size(tc.c()), Some(2 * 3 * 4 * 5));
        assert_eq!(s.linear_size(tc.a()), Some(2 * 6 * 3 * 7));
        assert_eq!(s.linear_size(tc.b()), Some(5 * 7 * 4 * 6));
    }

    #[test]
    fn linear_size_missing_extent() {
        let tc = eq1();
        let s = SizeMap::from_pairs([("a", 2)]);
        assert_eq!(s.linear_size(tc.c()), None);
    }

    #[test]
    fn set_returns_previous() {
        let mut s = SizeMap::new();
        assert_eq!(s.set("a", 4), None);
        assert_eq!(s.set("a", 8), Some(4));
        assert_eq!(s.extent("a"), Some(8));
    }

    #[test]
    #[should_panic(expected = "extent must be positive")]
    fn zero_extent_panics() {
        SizeMap::new().set("a", 0);
    }

    #[test]
    #[should_panic(expected = "no extent for index")]
    fn extent_of_missing_panics() {
        SizeMap::new().extent_of("a");
    }

    #[test]
    fn scaled_down() {
        let s = SizeMap::from_pairs([("a", 64), ("b", 3), ("c", 1)]);
        let t = s.scaled_down(4);
        assert_eq!(t.extent("a"), Some(16));
        assert_eq!(t.extent("b"), Some(1));
        assert_eq!(t.extent("c"), Some(1));
    }

    #[test]
    fn display() {
        let s = SizeMap::from_pairs([("b", 2), ("a", 1)]);
        assert_eq!(s.to_string(), "{a: 1, b: 2}");
    }

    #[test]
    fn collect_and_extend() {
        let mut s: SizeMap = [("a", 1), ("b", 2)].into_iter().collect();
        s.extend([("c", 3)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }
}
