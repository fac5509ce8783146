//! Dense tensor storage.

use std::fmt;

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::element::{approx_eq_slices, max_abs_diff, Element};
use crate::layout::Layout;

/// A dense tensor with a generalized column-major layout.
///
/// # Examples
///
/// ```
/// use cogent_tensor::DenseTensor;
///
/// let mut t = DenseTensor::<f64>::zeros(&[2, 3]);
/// t.set(&[1, 2], 42.0);
/// assert_eq!(t.get(&[1, 2]), 42.0);
/// assert_eq!(t.as_slice().iter().filter(|&&v| v != 0.0).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor<T> {
    layout: Layout,
    data: Vec<T>,
}

/// The packed layout of a tensor with `extents`.
///
/// # Panics
///
/// Panics when `extents` is empty or any extent is zero.
fn packed(extents: &[usize]) -> Layout {
    assert!(
        !extents.is_empty(),
        "layout must have at least one dimension"
    );
    assert!(
        extents.iter().all(|&e| e > 0),
        "extents must be positive: {extents:?}"
    );
    Layout::packed(extents)
}

impl<T: Element> DenseTensor<T> {
    /// Creates a tensor filled with zeros.
    pub fn zeros(extents: &[usize]) -> Self {
        let layout = packed(extents);
        let data = vec![T::ZERO; layout.size()];
        Self { layout, data }
    }

    /// Creates a tensor whose element at linear offset `i` is `i` (useful
    /// for layout-sensitive tests: every element value encodes its storage
    /// position).
    pub fn sequential(extents: &[usize]) -> Self {
        let layout = packed(extents);
        let data = (0..layout.size()).map(|i| T::from_f64(i as f64)).collect();
        Self { layout, data }
    }

    /// Creates a tensor from a function of the coordinates.
    pub fn from_fn(extents: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let layout = packed(extents);
        let mut data = Vec::with_capacity(layout.size());
        for coords in layout.iter_coords() {
            data.push(f(&coords));
        }
        Self { layout, data }
    }

    /// Creates a tensor with deterministic pseudo-random contents in
    /// `[-1, 1)`, seeded by `seed`.
    pub fn random(extents: &[usize], seed: u64) -> Self {
        let layout = packed(extents);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0f64, 1.0);
        let data = (0..layout.size())
            .map(|_| T::from_f64(dist.sample(&mut rng)))
            .collect();
        Self { layout, data }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` does not match the layout size.
    pub fn from_vec(extents: &[usize], data: Vec<T>) -> Self {
        let layout = packed(extents);
        assert_eq!(
            data.len(),
            layout.size(),
            "data length does not match extents {extents:?}"
        );
        Self { layout, data }
    }

    /// The tensor's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements (never true).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The element at `coords`.
    #[inline]
    pub fn get(&self, coords: &[usize]) -> T {
        self.data[self.layout.offset(coords)]
    }

    /// Sets the element at `coords`.
    #[inline]
    pub fn set(&mut self, coords: &[usize], value: T) {
        let off = self.layout.offset(coords);
        self.data[off] = value;
    }

    /// Borrows the underlying storage (layout order).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the underlying storage (layout order).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(
            self.layout.extents(),
            other.layout.extents(),
            "shape mismatch"
        );
        max_abs_diff(&self.data, &other.data)
    }

    /// Whether `self` and `other` agree element-wise to tolerance `tol`
    /// (relative to magnitude, absolute near zero).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.layout.extents() == other.layout.extents()
            && approx_eq_slices(&self.data, &other.data, tol)
    }
}

impl<T: Element> fmt::Display for DenseTensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DenseTensor{:?} of {} elements",
            self.layout.extents(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros() {
        let t = DenseTensor::<f64>::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        assert!(!t.is_empty());
    }

    #[test]
    fn sequential_encodes_offsets() {
        let t = DenseTensor::<f64>::sequential(&[2, 3]);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[1, 0]), 1.0); // first dim fastest
        assert_eq!(t.get(&[0, 1]), 2.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    fn from_fn_coords() {
        let t = DenseTensor::<f64>::from_fn(&[3, 3], |c| (10 * c[0] + c[1]) as f64);
        assert_eq!(t.get(&[2, 1]), 21.0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let t1 = DenseTensor::<f64>::random(&[4, 4], 7);
        let t2 = DenseTensor::<f64>::random(&[4, 4], 7);
        let t3 = DenseTensor::<f64>::random(&[4, 4], 8);
        assert_eq!(t1.as_slice(), t2.as_slice());
        assert_ne!(t1.as_slice(), t3.as_slice());
        assert!(t1.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = DenseTensor::<f32>::zeros(&[3, 2, 2]);
        t.set(&[2, 1, 1], 9.0);
        assert_eq!(t.get(&[2, 1, 1]), 9.0);
        assert_eq!(t.as_slice()[t.layout().offset(&[2, 1, 1])], 9.0);
    }

    #[test]
    fn from_vec_validates_len() {
        let t = DenseTensor::from_vec(&[2, 2], vec![1.0f64, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(&[1, 1]), 4.0);
    }

    #[test]
    #[should_panic(expected = "data length does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = DenseTensor::from_vec(&[2, 2], vec![1.0f64]);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = DenseTensor::<f64>::random(&[4, 4], 1);
        let mut b = a.clone();
        assert!(a.approx_eq(&b, 1e-15));
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let v = b.get(&[0, 0]);
        b.set(&[0, 0], v + 0.5);
        assert!(!a.approx_eq(&b, 1e-3));
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_shape_mismatch_panics() {
        let a = DenseTensor::<f64>::zeros(&[2, 2]);
        let b = DenseTensor::<f64>::zeros(&[4]);
        let _ = a.max_abs_diff(&b);
    }

    #[test]
    fn into_vec_and_mut_slice() {
        let mut t = DenseTensor::<f64>::zeros(&[2]);
        t.as_mut_slice()[1] = 3.0;
        assert_eq!(t.into_vec(), vec![0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_extents_panic() {
        let _ = DenseTensor::<f64>::zeros(&[]);
    }

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn zero_extent_panics() {
        let _ = DenseTensor::<f64>::zeros(&[2, 0]);
    }

    #[test]
    fn display() {
        let t = DenseTensor::<f64>::zeros(&[2, 3]);
        assert!(t.to_string().contains("[2, 3]"));
    }
}
