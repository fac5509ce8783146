//! The naive direct baseline: one thread per output element, minimal
//! staging, no register tiling — the performance floor any reasonable
//! strategy must beat (and roughly what an untransformed nested-loop
//! kernel achieves).

use cogent_core::guard::naive_plan;
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::KernelPlan;
use cogent_gpu_sim::simulate;
use cogent_ir::{Contraction, SizeMap};
use cogent_kir::interpret_plan;
use cogent_tensor::{DenseTensor, Element};

use crate::engine::Measurement;

/// The naive direct engine.
#[derive(Debug, Clone, Default)]
pub struct NaiveDirect;

impl NaiveDirect {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }

    /// The naive plan ([`naive_plan`]): the output FVI gets a 32-wide
    /// thread dimension (one warp), every other external is grid-mapped,
    /// internals are walked one element per step (no k-tiling, no
    /// register tiles).
    pub fn plan(&self, tc: &Contraction, sizes: &SizeMap) -> KernelPlan {
        naive_plan(tc, sizes).unwrap_or_else(|e| panic!("naive plan: {e}"))
    }

    /// Simulated end-to-end measurement.
    pub fn measure(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        device: &GpuDevice,
        precision: Precision,
    ) -> Measurement {
        let report = simulate(&self.plan(tc, sizes), device, precision);
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
    fn naive_execution_matches_reference() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 5);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 1);
        let got = NaiveDirect::new().execute(&tc, &sizes, &a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn naive_is_slower_than_nwchem_like() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let d = GpuDevice::v100();
        let naive = NaiveDirect::new().measure(&tc, &sizes, &d, Precision::F64);
        let nwchem = crate::NwchemLikeGenerator::new().measure(&tc, &sizes, &d, Precision::F64);
        assert!(naive.gflops < nwchem.gflops);
    }

    #[test]
    fn plan_has_one_warp_blocks() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let plan = NaiveDirect::new().plan(&tc, &sizes);
        assert_eq!(plan.threads_per_block(), 32);
        assert_eq!(plan.outputs_per_thread(), 1);
    }
}
