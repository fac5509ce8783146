//! An NWChem-like direct-contraction generator.
//!
//! NWChem's CUDA generator (Ma et al.) produces *direct* contraction
//! kernels — no transposition — but with a fixed tiling recipe rather than
//! COGENT's model-driven search: thread blocks of a fixed shape, indices
//! assigned greedily in storage order, one k-tile depth. The paper's
//! explanation for the COGENT-vs-NWChem gap is exactly this missing
//! mapping/tile-size search; this engine reproduces the fixed recipe so
//! the gap is attributable to the search.

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
use cogent_gpu_sim::simulate;
use cogent_ir::{Contraction, ContractionAnalysis, IndexName, SizeMap};
use cogent_kir::interpret_plan;
use cogent_tensor::{DenseTensor, Element};

use crate::engine::Measurement;

/// The fixed-recipe direct generator (NWChem stand-in).
#[derive(Debug, Clone)]
pub struct NwchemLikeGenerator {
    /// Target threads along X (fixed, not searched). NWChem uses 16.
    pub tb_target: usize,
    /// Fixed k-tile depth.
    pub k_tile: usize,
    /// Fixed register-tile target per dimension (NWChem's CCSD(T) kernels
    /// keep a small per-thread tile).
    pub reg_target: usize,
}

impl Default for NwchemLikeGenerator {
    fn default() -> Self {
        Self {
            tb_target: 16,
            k_tile: 16,
            reg_target: 4,
        }
    }
}

/// Greedily assigns indices from `pool` (in the given order) to a
/// dimension until the tile product reaches `target`; the crossing index
/// is clipped.
fn greedy<'a>(
    pool: impl Iterator<Item = &'a IndexName>,
    sizes: &SizeMap,
    target: usize,
) -> (Vec<(IndexName, usize)>, Vec<IndexName>) {
    let mut used = Vec::new();
    let mut rest = Vec::new();
    let mut product = 1usize;
    for idx in pool {
        if product >= target {
            rest.push(idx.clone());
            continue;
        }
        let extent = sizes.extent_of(idx);
        let tile = extent.min((target / product).max(1));
        product *= tile;
        used.push((idx.clone(), tile));
    }
    (used, rest)
}

impl NwchemLikeGenerator {
    /// Creates the generator with NWChem's fixed 16×16 recipe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the fixed-recipe plan for a contraction.
    ///
    /// The recipe (no search): normalize so `A` holds the output FVI; walk
    /// `A`'s externals *in A's storage order* onto ThreadX until 16 threads
    /// are reached, `B`'s externals onto ThreadY likewise; take a fixed
    /// 2×2 register tile from the next unmapped externals when available;
    /// grid-map the rest; tile the internals in `A`'s order to a fixed
    /// k-depth.
    ///
    /// # Panics
    ///
    /// Panics when `sizes` does not cover the contraction.
    pub fn plan(&self, tc: &Contraction, sizes: &SizeMap) -> KernelPlan {
        let tc = tc.normalized();
        let analysis = ContractionAnalysis::new(&tc);

        // A-externals in A storage order (output FVI first for stores —
        // unless the FVI is a batch index, which must stay grid-mapped).
        let c_fvi = tc.c().fvi().clone();
        let fvi_is_external = analysis.externals_a().contains(&c_fvi);
        let mut a_ext: Vec<IndexName> = if fvi_is_external {
            vec![c_fvi.clone()]
        } else {
            Vec::new()
        };
        a_ext.extend(
            tc.a()
                .indices()
                .iter()
                .filter(|i| analysis.externals_a().contains(i) && **i != c_fvi)
                .cloned(),
        );
        let b_ext: Vec<IndexName> = tc
            .b()
            .indices()
            .iter()
            .filter(|i| analysis.externals_b().contains(i))
            .cloned()
            .collect();

        let (tbx, rest_a) = greedy(a_ext.iter(), sizes, self.tb_target);
        let (tby, rest_b) = greedy(b_ext.iter(), sizes, self.tb_target);
        let (regx, grid_a) = greedy(rest_a.iter(), sizes, self.reg_target);
        let (regy, grid_b) = greedy(rest_b.iter(), sizes, self.reg_target);
        let (tbk, rest_k) = greedy(tc.internal_indices().iter(), sizes, self.k_tile);

        let push_all = |list: Vec<(IndexName, usize)>, dim: MapDim, out: &mut Vec<IndexBinding>| {
            for (name, tile) in list {
                let extent = sizes.extent_of(&name);
                out.push(IndexBinding::new(name, extent, tile, dim));
            }
        };
        let mut out = Vec::new();
        push_all(tbx, MapDim::ThreadX, &mut out);
        push_all(regx, MapDim::RegX, &mut out);
        push_all(tby, MapDim::ThreadY, &mut out);
        push_all(regy, MapDim::RegY, &mut out);
        push_all(tbk, MapDim::SerialK, &mut out);
        for idx in rest_k {
            out.push(IndexBinding::new(
                idx.clone(),
                sizes.extent_of(&idx),
                1,
                MapDim::SerialK,
            ));
        }
        for idx in grid_a
            .into_iter()
            .chain(grid_b)
            .chain(tc.batch_indices().iter().cloned())
        {
            out.push(IndexBinding::new(
                idx.clone(),
                sizes.extent_of(&idx),
                1,
                MapDim::Grid,
            ));
        }
        KernelPlan::new(&tc, out).expect("fixed recipe produces a legal plan")
    }

    /// Simulated end-to-end measurement.
    pub fn measure(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        device: &GpuDevice,
        precision: Precision,
    ) -> Measurement {
        let plan = self.plan(tc, sizes);
        let report = simulate(&plan, device, precision);
        Measurement::from_time(tc, sizes, report.time.total_s)
    }

    /// Functional execution (correctness path): interprets the kernel
    /// lowered from the plan. Panics when the operands do not match `sizes`.
    pub fn execute<T: Element>(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        a: &DenseTensor<T>,
        b: &DenseTensor<T>,
    ) -> DenseTensor<T> {
        interpret_plan(&self.plan(tc, sizes), a, b).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogent_tensor::reference::{contract_reference, random_inputs};

    #[test]
    fn plan_uses_fixed_block_shape() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let plan = NwchemLikeGenerator::new().plan(&tc, &sizes);
        assert_eq!(plan.threads_per_block(), 256); // 16×16 recipe
    }

    #[test]
    fn functional_execution_matches_reference() {
        let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 4);
        let (a, b) = random_inputs::<f64>(&tc.normalized(), &sizes, 3);
        let got = NwchemLikeGenerator::new().execute(&tc, &sizes, &a, &b);
        let want = contract_reference(&tc.normalized(), &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn measure_is_plausible() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let d = GpuDevice::v100();
        let m = NwchemLikeGenerator::new().measure(&tc, &sizes, &d, Precision::F64);
        assert!(m.gflops > 10.0);
        assert!(m.gflops < d.peak_gflops_f64);
    }

    #[test]
    fn handles_batch_output_fvi() {
        // Output FVI is a batch index: it must be grid-mapped, not seeded
        // onto ThreadX.
        use cogent_ir::TensorRef;
        let tc = Contraction::with_batch(
            TensorRef::new("C", ["n", "i", "j"]),
            TensorRef::new("A", ["n", "i", "k"]),
            TensorRef::new("B", ["k", "j", "n"]),
        )
        .unwrap();
        let sizes = SizeMap::from_pairs([("n", 4), ("i", 32), ("j", 32), ("k", 32)]);
        let plan = NwchemLikeGenerator::new().plan(&tc, &sizes);
        assert_eq!(plan.binding("n").unwrap().dim, MapDim::Grid);
        // And the plan still computes the right answer.
        let (a, b) = random_inputs::<f64>(&tc.normalized(), &sizes.scaled_down(4), 1);
        let small = sizes.scaled_down(4);
        let got = NwchemLikeGenerator::new().execute(&tc, &small, &a, &b);
        let want = contract_reference(&tc.normalized(), &small, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn handles_small_extents() {
        let tc: Contraction = "abcdef-gfec-abdg".parse().unwrap();
        let sizes = SizeMap::from_pairs([
            ("a", 16),
            ("b", 16),
            ("c", 16),
            ("d", 24),
            ("e", 24),
            ("f", 24),
            ("g", 16),
        ]);
        let plan = NwchemLikeGenerator::new().plan(&tc, &sizes);
        assert!(plan.num_blocks() > 0);
        assert!(plan.threads_per_block() >= 16);
    }
}
