//! The random-but-legal kernel plans shared by the plan property tests
//! (`cogent-gpu-sim`'s structure invariants and tracer-vs-brute-force
//! check, and `cogent-kir`'s interpreter-vs-reference check).

use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
use cogent_ir::{Contraction, TensorRef};
use proptest::prelude::*;

/// Builds a random-but-legal plan: A-externals distributed over
/// ThreadX/RegX/Grid, B-externals over ThreadY/RegY/Grid, internals on
/// SerialK, with tile sizes in `1..=extent`.
pub fn plan_strategy() -> impl Strategy<Value = KernelPlan> {
    (
        1usize..=2,                          // externals in A
        1usize..=2,                          // externals in B
        1usize..=2,                          // internals
        prop::collection::vec(2usize..7, 6), // extents
        prop::collection::vec(0usize..3, 6), // dim choice per index
        prop::collection::vec(1usize..7, 6), // tile seed per index
        0usize..4,                           // rotation of A's layout
        0usize..4,                           // rotation of B's layout
    )
        .prop_map(|(na, nb, ni, extents, dims, tiles, rot_a, rot_b)| {
            let total = na + nb + ni;
            let letters: Vec<String> = (0..total)
                .map(|i| ((b'a' + i as u8) as char).to_string())
                .collect();
            let ext_a = &letters[..na];
            let ext_b = &letters[na..na + nb];
            let ints = &letters[na + nb..];
            let c_idx: Vec<&str> = ext_a
                .iter()
                .chain(ext_b.iter())
                .map(String::as_str)
                .collect();
            let mut a_idx: Vec<&str> = ext_a
                .iter()
                .chain(ints.iter())
                .map(String::as_str)
                .collect();
            let mut b_idx: Vec<&str> = ext_b
                .iter()
                .chain(ints.iter())
                .map(String::as_str)
                .collect();
            let (la, lb) = (a_idx.len(), b_idx.len());
            a_idx.rotate_left(rot_a % la);
            b_idx.rotate_left(rot_b % lb);
            let tc = Contraction::new(
                TensorRef::new("C", c_idx),
                TensorRef::new("A", a_idx),
                TensorRef::new("B", b_idx),
            )
            .expect("valid contraction");

            let mut bindings = Vec::new();
            // Ensure at least one ThreadX/ThreadY index: force the first
            // A-external to ThreadX and first B-external to ThreadY.
            for (i, name) in letters.iter().enumerate() {
                let extent = extents[i % extents.len()];
                let tile = 1 + tiles[i % tiles.len()] % extent;
                let dim = if i < na {
                    if i == 0 {
                        MapDim::ThreadX
                    } else {
                        match dims[i % dims.len()] {
                            0 => MapDim::ThreadX,
                            1 => MapDim::RegX,
                            _ => MapDim::Grid,
                        }
                    }
                } else if i < na + nb {
                    if i == na {
                        MapDim::ThreadY
                    } else {
                        match dims[i % dims.len()] {
                            0 => MapDim::ThreadY,
                            1 => MapDim::RegY,
                            _ => MapDim::Grid,
                        }
                    }
                } else {
                    MapDim::SerialK
                };
                let tile = if dim == MapDim::Grid { 1 } else { tile };
                bindings.push(IndexBinding::new(name.as_str(), extent, tile, dim));
            }
            KernelPlan::new(&tc, bindings).expect("legal plan")
        })
}
