//! Out-of-place index permutation (tensor transposition).
//!
//! This is the CPU analogue of HPTT/cuTT: the TTGT baseline uses it to
//! reshape tensors into GEMM-able matrices. The implementation walks the
//! input in blocks over the two cache-critical dimensions — the input's
//! fastest varying dimension and the input dimension that becomes the
//! output's fastest varying dimension — so that both the read and the write
//! streams touch memory with bounded stride within a block.

use cogent_ir::TensorRef;

use crate::dense::DenseTensor;
use crate::element::Element;
use crate::layout::Layout;

/// Tile edge used for the blocked 2D copy. 32×32 `f64` elements = 8 KiB,
/// comfortably inside L1.
const BLOCK: usize = 32;

/// Permutes `input` so that output dimension `d` is input dimension
/// `perm[d]`: `out[c0, ..., cn] = in[c_{perm[0]}, ...]` — equivalently
/// `out.extents()[d] == in.extents()[perm[d]]`.
///
/// # Panics
///
/// Panics when `perm` is not a permutation of `0..input.layout().rank()`.
///
/// # Examples
///
/// ```
/// use cogent_tensor::{permute::permute, DenseTensor};
///
/// // 2D transpose.
/// let t = DenseTensor::<f64>::sequential(&[2, 3]);
/// let tt = permute(&t, &[1, 0]);
/// assert_eq!(tt.layout().extents(), &[3, 2]);
/// assert_eq!(tt.get(&[2, 1]), t.get(&[1, 2]));
/// ```
pub fn permute<T: Element>(input: &DenseTensor<T>, perm: &[usize]) -> DenseTensor<T> {
    let rank = input.layout().rank();
    assert_eq!(perm.len(), rank, "permutation rank mismatch");
    let mut seen = vec![false; rank];
    for &p in perm {
        assert!(p < rank && !seen[p], "not a permutation: {perm:?}");
        seen[p] = true;
    }

    let in_layout = input.layout();
    let out_extents: Vec<usize> = perm.iter().map(|&p| in_layout.extents()[p]).collect();
    let out_layout = Layout::packed(&out_extents);

    // The output layout's modes listed in input order: input coordinates
    // to output offsets.
    let mut out_modes = vec![(0, 0); rank];
    for (out_d, &in_d) in perm.iter().enumerate() {
        out_modes[in_d] = (out_extents[out_d], out_layout.strides()[out_d]);
    }
    let out_of_in = Layout::new(out_modes);

    let mut out = vec![T::ZERO; out_layout.size()];
    let data = input.as_slice();

    // The two cache-critical input dimensions.
    let d_read = 0; // input FVI: contiguous reads
    let d_write = perm[0]; // becomes output FVI: contiguous writes

    // Walk every dimension but those two (the slabs), then copy each slab.
    let slabs = |l: &Layout| {
        Layout::new(
            l.modes()
                .enumerate()
                .filter(|&(d, _)| d != d_read && d != d_write)
                .map(|(_, m)| m),
        )
    };
    let (in_slabs, out_slabs) = (slabs(in_layout), slabs(&out_of_in));
    let n_read = in_layout.extents()[d_read];
    for s in 0..in_slabs.size() {
        let (in_base, out_base) = (in_slabs.apply(s), out_slabs.apply(s));
        if d_read == d_write {
            // The FVI is preserved; copy the whole contiguous run.
            out[out_base..out_base + n_read].copy_from_slice(&data[in_base..in_base + n_read]);
        } else {
            copy_blocked(
                &data[in_base..],
                &mut out[out_base..],
                n_read,
                out_of_in.strides()[d_read],
                in_layout.extents()[d_write],
                in_layout.strides()[d_write],
                out_of_in.strides()[d_write],
            );
        }
    }

    DenseTensor::from_vec(&out_extents, out)
}

/// 2D blocked copy of one slab over (input FVI, output FVI source dim):
/// `n_read` elements along the input FVI (input stride 1) times `n_write`
/// along the dimension that becomes the output FVI.
fn copy_blocked<T: Element>(
    data: &[T],
    out: &mut [T],
    n_read: usize,
    out_stride_read: usize,
    n_write: usize,
    in_stride_write: usize,
    out_stride_write: usize,
) {
    for bw in (0..n_write).step_by(BLOCK) {
        let w_hi = (bw + BLOCK).min(n_write);
        for br in (0..n_read).step_by(BLOCK) {
            let r_hi = (br + BLOCK).min(n_read);
            for w in bw..w_hi {
                let in_row = w * in_stride_write;
                let out_row = w * out_stride_write;
                for r in br..r_hi {
                    out[out_row + r * out_stride_read] = data[in_row + r];
                }
            }
        }
    }
}

/// Computes the permutation `perm` such that permuting data laid out as
/// `from` produces data laid out as `to` — i.e. `to`'s dimension `d` is
/// `from`'s dimension `perm[d]`. Both refs must use the same index set.
///
/// # Panics
///
/// Panics when the index sets differ.
///
/// # Examples
///
/// ```
/// use cogent_ir::TensorRef;
/// use cogent_tensor::permute::permutation_between;
///
/// let from = TensorRef::new("A", ["a", "e", "b", "f"]);
/// let to = TensorRef::new("TA", ["a", "b", "e", "f"]);
/// assert_eq!(permutation_between(&from, &to), vec![0, 2, 1, 3]);
/// ```
pub fn permutation_between(from: &TensorRef, to: &TensorRef) -> Vec<usize> {
    assert_eq!(from.rank(), to.rank(), "rank mismatch");
    to.indices()
        .iter()
        .map(|idx| {
            from.position(idx)
                .unwrap_or_else(|| panic!("index {idx} missing from {from}"))
        })
        .collect()
}

/// Whether `perm` is the identity (no data movement needed).
pub fn is_identity_permutation(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference permutation for validation.
    fn permute_naive<T: Element>(input: &DenseTensor<T>, perm: &[usize]) -> DenseTensor<T> {
        let in_extents = input.layout().extents();
        let out_extents: Vec<usize> = perm.iter().map(|&p| in_extents[p]).collect();
        let mut out = DenseTensor::<T>::zeros(&out_extents);
        let out_layout = out.layout().clone();
        for out_coords in out_layout.iter_coords() {
            // Output dim d has the coordinate of input dim perm[d].
            let mut ic = vec![0usize; perm.len()];
            for (d, &p) in perm.iter().enumerate() {
                ic[p] = out_coords[d];
            }
            out.set(&out_coords, input.get(&ic));
        }
        out
    }

    #[test]
    fn transpose_2d() {
        let t = DenseTensor::<f64>::sequential(&[4, 3]);
        let tt = permute(&t, &[1, 0]);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(tt.get(&[j, i]), t.get(&[i, j]));
            }
        }
    }

    #[test]
    fn identity_permutation_copies() {
        let t = DenseTensor::<f64>::random(&[3, 5, 2], 3);
        let p = permute(&t, &[0, 1, 2]);
        assert_eq!(p.as_slice(), t.as_slice());
    }

    #[test]
    fn matches_naive_3d() {
        let t = DenseTensor::<f64>::random(&[5, 4, 3], 11);
        for perm in [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let fast = permute(&t, &perm);
            let slow = permute_naive(&t, &perm);
            assert_eq!(fast.as_slice(), slow.as_slice(), "perm {perm:?}");
        }
    }

    #[test]
    fn matches_naive_4d_large_enough_to_block() {
        let t = DenseTensor::<f64>::random(&[40, 3, 37, 2], 5);
        for perm in [[2usize, 0, 3, 1], [3, 2, 1, 0], [1, 3, 0, 2], [0, 3, 2, 1]] {
            let fast = permute(&t, &perm);
            let slow = permute_naive(&t, &perm);
            assert_eq!(fast.as_slice(), slow.as_slice(), "perm {perm:?}");
        }
    }

    #[test]
    fn double_permutation_roundtrips() {
        let t = DenseTensor::<f64>::random(&[6, 5, 4], 9);
        let perm = [2usize, 0, 1];
        let mut inv = [0usize; 3];
        for (d, &p) in perm.iter().enumerate() {
            inv[p] = d;
        }
        let back = permute(&permute(&t, &perm), &inv);
        assert_eq!(back.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_bad_perm() {
        let t = DenseTensor::<f64>::zeros(&[2, 2]);
        let _ = permute(&t, &[0, 0]);
    }

    #[test]
    fn permutation_between_refs() {
        let a = TensorRef::new("A", ["a", "e", "b", "f"]);
        let ta = TensorRef::new("TA", ["a", "b", "e", "f"]);
        let perm = permutation_between(&a, &ta);
        assert_eq!(perm, vec![0, 2, 1, 3]);
        // Applying it moves data as expected.
        let t = DenseTensor::<f64>::random(&[2, 3, 4, 5], 13);
        let p = permute(&t, &perm);
        assert_eq!(p.layout().extents(), &[2, 4, 3, 5]);
        assert_eq!(p.get(&[1, 3, 2, 4]), t.get(&[1, 2, 3, 4]));
    }

    #[test]
    #[should_panic(expected = "missing from")]
    fn permutation_between_mismatched_indices() {
        let a = TensorRef::new("A", ["a", "b"]);
        let z = TensorRef::new("Z", ["a", "z"]);
        let _ = permutation_between(&a, &z);
    }

    #[test]
    fn traffic_and_identity() {
        assert!(is_identity_permutation(&[0, 1, 2]));
        assert!(!is_identity_permutation(&[1, 0]));
    }
}
