//! The layout algebra: one type for tensors, views, tiles and warp
//! address patterns.
//!
//! A [`Layout`] is a list of *modes* — `(shape, stride)` pairs — that
//! names a function from a coordinate to a memory offset. A linear index
//! is decomposed mixed-radix over the shapes (first mode fastest, the
//! generalized column-major convention of Algorithm 1, where the first
//! index of a [`TensorRef`](cogent_ir::TensorRef) is its fastest varying
//! index) and each digit is scaled by its stride. A dense tensor is the
//! [`Layout::packed`] layout of its extents; a strided view (an operand
//! seen over a loop nest, a GETT index group, a transpose's output seen
//! in input order, a padded shared-memory tile) is the same type with
//! other strides.
//!
//! The algebra is the standard one ("CuTe Layout Representation and
//! Algebra"): [`Layout::coalesce`] merges adjacent modes that are
//! contiguous in memory, [`Layout::compose`] chains two layouts into the
//! function `self(other(i))`, [`Layout::complement`] names the offsets a
//! layout does *not* reach inside a containing extent, and
//! [`Layout::divide`] splits a layout into a tile and the iteration over
//! tile repetitions. Composition and complement are partial (the result
//! must again be expressible as shape/stride modes), so both return
//! `Option`; the exhaustive property suite at the bottom checks the
//! algebra *functionally* — whenever an operation succeeds, the returned
//! layout computes exactly the composed/complementary function.

use std::fmt;

/// A shape/stride layout: the function `i ↦ Σ digit_k(i) * stride_k`,
/// where the digits are the mixed-radix decomposition of `i` over the
/// shapes, first mode fastest.
///
/// # Examples
///
/// ```
/// use cogent_tensor::Layout;
///
/// let l = Layout::packed(&[3, 4, 5]);
/// assert_eq!(l.strides(), &[1, 3, 12]);
/// assert_eq!(l.size(), 60);
/// assert_eq!(l.offset(&[2, 1, 0]), 5);
/// assert_eq!(l.digits(5), vec![2, 1, 0]);
///
/// // The transpose of a 3×4 matrix, seen in the original's coordinates.
/// let t = Layout::new([(3, 4), (4, 1)]);
/// assert_eq!(t.apply(5), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    extents: Vec<usize>,
    strides: Vec<usize>,
}

impl Layout {
    /// A layout from explicit `(shape, stride)` modes, first mode fastest.
    pub fn new(modes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let (extents, strides) = modes.into_iter().unzip();
        Layout { extents, strides }
    }

    /// The compact column-major layout of `shape`: stride 1 on the first
    /// mode, each later stride the product of the shapes before it.
    ///
    /// # Panics
    ///
    /// Panics when the size overflows `usize`.
    pub fn packed(shape: &[usize]) -> Self {
        let mut stride = 1usize;
        Self::new(shape.iter().map(|&s| {
            let mode = (s, stride);
            stride = stride.checked_mul(s).expect("layout size overflows usize");
            mode
        }))
    }

    /// The `(shape, stride)` modes, first mode fastest.
    pub fn modes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.extents
            .iter()
            .copied()
            .zip(self.strides.iter().copied())
    }

    /// The shape (extent) of each mode.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// The stride of each mode, in elements.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of modes.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// The domain size: product of the shapes.
    pub fn size(&self) -> usize {
        self.extents.iter().product()
    }

    /// One past the largest offset the layout reaches (0 for an empty
    /// domain): the footprint an array backing this layout needs.
    pub fn cosize(&self) -> usize {
        if self.size() == 0 {
            return 0;
        }
        1 + self.modes().map(|(s, d)| (s - 1) * d).sum::<usize>()
    }

    /// Applies the layout function to a linear index.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        let mut rem = i;
        let mut off = 0usize;
        for (s, d) in self.modes() {
            if s == 0 {
                return 0;
            }
            off += (rem % s) * d;
            rem /= s;
        }
        off
    }

    /// The mixed-radix digits of linear index `i` over the shapes, first
    /// mode fastest: the coordinates of the `i`-th point in layout order.
    ///
    /// # Panics
    ///
    /// Panics when `i >= size()`.
    pub fn digits(&self, i: usize) -> Vec<usize> {
        assert!(i < self.size(), "index {i} out of bounds of {self}");
        let mut rem = i;
        self.extents
            .iter()
            .map(|&s| {
                let digit = rem % s;
                rem /= s;
                digit
            })
            .collect()
    }

    /// The offset of the point at `coords`: `Σ coords_k * stride_k`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `coords` is out of bounds or has the
    /// wrong rank.
    #[inline]
    pub fn offset(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.rank(), "coordinate rank mismatch");
        let mut off = 0;
        for (d, (&c, (s, stride))) in coords.iter().zip(self.modes()).enumerate() {
            debug_assert!(c < s, "coordinate {c} out of bounds in mode {d}");
            off += c * stride;
        }
        off
    }

    /// Advances `coords` to the next point in layout order (fastest mode
    /// first). Returns `false` when iteration wrapped past the last point.
    #[inline]
    pub fn advance(&self, coords: &mut [usize]) -> bool {
        for (c, &s) in coords.iter_mut().zip(&self.extents) {
            *c += 1;
            if *c < s {
                return true;
            }
            *c = 0;
        }
        false
    }

    /// Iterates over all coordinate tuples in layout order.
    pub fn iter_coords(&self) -> CoordIter<'_> {
        let left = self.size();
        CoordIter {
            layout: self,
            next: (left > 0).then(|| vec![0; self.rank()]),
            left,
        }
    }

    /// Merges adjacent modes that are contiguous (`stride_{k+1} ==
    /// stride_k * shape_k`) and drops size-1 modes. The returned layout
    /// computes the same function with the fewest modes; its first-mode
    /// shape is the contiguous run length of the access pattern, which is
    /// exactly what vectorization legality and the transaction estimate
    /// need.
    pub fn coalesce(&self) -> Layout {
        let mut modes: Vec<(usize, usize)> = Vec::with_capacity(self.rank());
        for (s, d) in self.modes() {
            if s == 1 {
                continue;
            }
            match modes.last_mut() {
                Some((ps, pd)) if *pd * *ps == d => *ps *= s,
                _ => modes.push((s, d)),
            }
        }
        if modes.is_empty() {
            modes.push((1, 0));
        }
        Layout::new(modes)
    }

    /// Composes `self ∘ other`: the layout computing `self(other(i))`
    /// for every `i < other.size()`. Partial — returns `None` when the
    /// composite is not expressible as shape/stride modes: either a
    /// stride of `other` straddles a mode boundary of `self`
    /// non-divisibly, or two modes of `other` interact through a carry
    /// across a radix boundary of `self` (the by-mode construction is
    /// checked against the true composition over the whole domain before
    /// being returned).
    pub fn compose(&self, other: &Layout) -> Option<Layout> {
        let mut modes = Vec::new();
        for (s, d) in other.modes() {
            modes.extend(self.compose_mode(s, d)?);
        }
        let candidate = Layout::new(modes);
        let n = other.size();
        for i in 0..n {
            if candidate.apply(i) != self.apply(other.apply(i)) {
                return None;
            }
        }
        Some(candidate)
    }

    /// Composes `self` with the single mode `(shape, stride)`: the layout
    /// of `i ↦ self(i * stride)` for `i < shape`.
    fn compose_mode(&self, shape: usize, stride: usize) -> Option<Vec<(usize, usize)>> {
        if shape == 1 {
            return Some(vec![(1, 0)]);
        }
        let flat = self.coalesce();
        let mut rest_shape = shape;
        let mut rest_stride = stride;
        let mut out = Vec::new();
        for (k, (s, d)) in flat.modes().enumerate() {
            if rest_shape == 1 {
                break;
            }
            if rest_stride >= s {
                // The offset skips this whole mode; it must do so evenly.
                if !rest_stride.is_multiple_of(s) {
                    return None;
                }
                rest_stride /= s;
                continue;
            }
            // The mode is entered at multiples of rest_stride.
            if s % rest_stride != 0 {
                return None;
            }
            let avail = s / rest_stride;
            let take = rest_shape.min(avail);
            out.push((take, d * rest_stride));
            if take < rest_shape {
                // Spill into the next mode: only legal on an exact fill of
                // this one, and the remaining count must split evenly.
                if take != avail || !rest_shape.is_multiple_of(take) {
                    return None;
                }
                rest_shape /= take;
                rest_stride = 1;
            } else {
                rest_shape = 1;
            }
            if rest_shape > 1 && k + 1 == flat.rank() {
                // Out of modes with index range left over: out of bounds.
                return None;
            }
        }
        if rest_shape > 1 {
            // The index range never entered any mode (stride beyond the
            // layout's domain).
            return None;
        }
        Some(out)
    }

    /// The complement of `self` inside `[0, within)`: a layout whose
    /// offsets are exactly the cosets `self` misses, so that
    /// concatenating `self`'s modes with the complement's modes gives a
    /// bijection onto `[0, within)`. Partial — requires `self` to be
    /// non-overlapping with strides that nest evenly inside `within`.
    pub fn complement(&self, within: usize) -> Option<Layout> {
        let mut sorted: Vec<(usize, usize)> =
            self.coalesce().modes().filter(|&(s, _)| s > 1).collect();
        sorted.sort_by_key(|&(_, d)| d);
        let mut modes = Vec::new();
        let mut current = 1usize;
        for &(s, d) in &sorted {
            if d % current != 0 {
                return None;
            }
            if d / current > 1 {
                modes.push((d / current, current));
            }
            current = d * s;
        }
        if current == 0 || !within.is_multiple_of(current) {
            return None;
        }
        if within / current > 1 {
            modes.push((within / current, current));
        }
        if modes.is_empty() {
            modes.push((1, 0));
        }
        Some(Layout::new(modes))
    }

    /// Logical divide: splits `self` by `tiler` into `(tile, rest)` —
    /// the layout of one tile (`self ∘ tiler`) and the layout iterating
    /// over tile repetitions (`self ∘ complement(tiler, self.size())`).
    /// Partial like its two constituents.
    pub fn divide(&self, tiler: &Layout) -> Option<(Layout, Layout)> {
        let tile = self.compose(tiler)?;
        let rest = self.compose(&tiler.complement(self.size())?)?;
        Some((tile, rest))
    }
}

/// CuTe notation: `(shapes):(strides)`, e.g. `(2,3):(1,2)`.
impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        write!(f, "({}):({})", join(&self.extents), join(&self.strides))
    }
}

/// Iterator over all coordinates of a [`Layout`], fastest mode first.
#[derive(Debug, Clone)]
pub struct CoordIter<'a> {
    layout: &'a Layout,
    next: Option<Vec<usize>>,
    left: usize,
}

impl Iterator for CoordIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        let mut following = current.clone();
        if self.layout.advance(&mut following) {
            self.next = Some(following);
        }
        self.left -= 1;
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for CoordIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every layout with up to `max_modes` modes, shapes from `shapes`,
    /// strides from `strides` — the exhaustive enumeration the property
    /// suite sweeps.
    fn enumerate_layouts(max_modes: usize, shapes: &[usize], strides: &[usize]) -> Vec<Layout> {
        let mut out = vec![Layout::new(vec![])];
        let mut frontier = vec![Vec::new()];
        for _ in 0..max_modes {
            let mut next = Vec::new();
            for prefix in &frontier {
                for &s in shapes {
                    for &d in strides {
                        let mut modes: Vec<(usize, usize)> = prefix.clone();
                        modes.push((s, d));
                        out.push(Layout::new(modes.clone()));
                        next.push(modes);
                    }
                }
            }
            frontier = next;
        }
        out
    }

    fn offsets(l: &Layout) -> Vec<usize> {
        (0..l.size()).map(|i| l.apply(i)).collect()
    }

    /// A layout is injective when no two domain points share an offset.
    fn injective(l: &Layout) -> bool {
        let mut seen = std::collections::HashSet::new();
        offsets(l).into_iter().all(|o| seen.insert(o))
    }

    #[test]
    fn packed_layout_is_the_identity_function() {
        for shape in [vec![4], vec![3, 5], vec![2, 3, 4]] {
            let l = Layout::packed(&shape);
            for i in 0..l.size() {
                assert_eq!(l.apply(i), i, "packed{shape:?} must be identity");
            }
            assert_eq!(l.cosize(), l.size());
        }
    }

    #[test]
    fn strides_column_major() {
        assert_eq!(Layout::packed(&[2, 3, 4]).strides(), &[1, 2, 6]);
        assert_eq!(Layout::packed(&[7]).strides(), &[1]);
        assert_eq!(Layout::packed(&[2, 3, 4]).rank(), 3);
    }

    #[test]
    fn size_and_cosize_invariants_hold_exhaustively() {
        for l in enumerate_layouts(2, &[1, 2, 3, 4], &[1, 2, 3, 4, 8]) {
            let max = offsets(&l).into_iter().max().unwrap_or(0);
            if l.size() == 0 {
                assert_eq!(l.cosize(), 0);
            } else {
                assert_eq!(l.cosize(), max + 1, "{l}: cosize is max offset + 1");
            }
            // Injective layouts need at least as much room as domain.
            if injective(&l) {
                assert!(l.cosize() >= l.size(), "{l}");
            }
        }
    }

    #[test]
    fn offset_coords_roundtrip() {
        // digits, offset, advance and iter_coords must agree with apply,
        // in layout order, on strided and broadcast (stride 0) layouts.
        for l in enumerate_layouts(3, &[1, 2, 3], &[0, 1, 2, 5]) {
            let all: Vec<Vec<usize>> = l.iter_coords().collect();
            assert_eq!(all.len(), l.size(), "{l}");
            let mut c = vec![0; l.rank()];
            for (i, coords) in all.iter().enumerate() {
                assert_eq!(coords, &l.digits(i), "{l} at {i}");
                assert_eq!(l.offset(coords), l.apply(i), "{l} at {i}");
                assert_eq!(coords, &c, "{l} at {i}");
                assert_eq!(l.advance(&mut c), i + 1 < l.size(), "{l} at {i}");
            }
        }
    }

    #[test]
    fn iter_coords_size_hint() {
        let l = Layout::packed(&[2, 2]);
        let mut it = l.iter_coords();
        assert_eq!(it.len(), 4);
        assert_eq!(it.next(), Some(vec![0, 0]));
        assert_eq!(it.next(), Some(vec![1, 0])); // first mode fastest
        assert_eq!(it.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coords_out_of_bounds() {
        let _ = Layout::packed(&[2, 2]).digits(4);
    }

    #[test]
    fn display_mentions_strides() {
        assert_eq!(Layout::packed(&[2, 3]).to_string(), "(2,3):(1,2)");
    }

    #[test]
    fn coalesce_preserves_the_function_and_is_idempotent() {
        for l in enumerate_layouts(3, &[1, 2, 3], &[1, 2, 3, 6]) {
            let c = l.coalesce();
            assert_eq!(c.size(), l.size().max(c.size().min(l.size())), "{l}");
            for i in 0..l.size() {
                assert_eq!(c.apply(i), l.apply(i), "{l} -> {c} at {i}");
            }
            assert_eq!(c.coalesce(), c, "{l}: coalesce must be idempotent");
        }
    }

    #[test]
    fn coalesce_merges_contiguous_runs() {
        // (4,1)(8,4) is one contiguous run of 32.
        let l = Layout::new(vec![(4, 1), (8, 4)]);
        assert_eq!(l.coalesce(), Layout::new(vec![(32, 1)]));
        // A padded inner mode breaks the run.
        let p = Layout::new(vec![(4, 1), (8, 5)]);
        assert_eq!(p.coalesce(), p);
    }

    #[test]
    fn compose_computes_the_functional_composition_exhaustively() {
        let outers = enumerate_layouts(2, &[2, 3, 4], &[1, 2, 4, 12]);
        let inners = enumerate_layouts(2, &[1, 2, 3], &[1, 2, 4]);
        let mut succeeded = 0usize;
        for a in &outers {
            for b in &inners {
                // Only meaningful when b stays inside a's domain.
                if b.size() == 0 || b.cosize() > a.size() {
                    continue;
                }
                if let Some(c) = a.compose(b) {
                    succeeded += 1;
                    assert_eq!(c.size(), b.size(), "{a} ∘ {b} = {c}");
                    for i in 0..b.size() {
                        assert_eq!(
                            c.apply(i),
                            a.apply(b.apply(i)),
                            "{a} ∘ {b} = {c} diverges at {i}"
                        );
                    }
                }
            }
        }
        assert!(succeeded > 500, "only {succeeded} compositions succeeded");
    }

    #[test]
    fn compose_with_identity_round_trips() {
        for a in enumerate_layouts(2, &[2, 3, 4], &[1, 2, 4]) {
            if a.size() == 0 {
                continue;
            }
            let id = Layout::packed(&[a.size()]);
            let c = a.compose(&id).expect("composition with identity");
            for i in 0..a.size() {
                assert_eq!(c.apply(i), a.apply(i), "{a} ∘ id diverges at {i}");
            }
        }
    }

    #[test]
    fn complement_partitions_the_containing_extent_exhaustively() {
        for a in enumerate_layouts(2, &[1, 2, 3, 4], &[1, 2, 4, 8]) {
            if !injective(&a) || a.size() == 0 {
                continue;
            }
            for within in [a.cosize(), a.cosize() * 2, 48] {
                if within < a.cosize() {
                    continue;
                }
                let Some(b) = a.complement(within) else {
                    continue;
                };
                // (A, B) concatenated must reach every offset of
                // [0, within) exactly once.
                let mut seen = vec![false; within];
                for j in 0..b.size() {
                    for i in 0..a.size() {
                        let off = a.apply(i) + b.apply(j);
                        assert!(off < within, "{a} ⊕ {b} overflows {within}");
                        assert!(!seen[off], "{a} ⊕ {b} hits {off} twice");
                        seen[off] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "{a} ⊕ {b} misses offsets");
            }
        }
    }

    #[test]
    fn divide_after_compose_is_the_identity_partition() {
        // Dividing a packed layout by a packed tiler and re-walking
        // (tile, rest) must enumerate the domain exactly once: the
        // divide ∘ compose identity.
        for (shape, tile) in [
            (vec![12], vec![4]),
            (vec![8, 6], vec![2]),
            (vec![16], vec![16]),
        ] {
            let a = Layout::packed(&shape);
            let t = Layout::packed(&tile);
            let (tile_l, rest_l) = a.divide(&t).expect("packed divide succeeds");
            let mut seen = vec![false; a.size()];
            for r in 0..rest_l.size() {
                for i in 0..tile_l.size() {
                    let off = tile_l.apply(i) + rest_l.apply(r);
                    assert!(!seen[off], "divide revisits {off}");
                    seen[off] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "divide misses elements");
        }
    }
}
