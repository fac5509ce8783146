//! The TAL_SH-like TTGT engine.
//!
//! TAL_SH implements tensor contractions as
//! Transpose–Transpose–GEMM–Transpose, delegating the permutations to cuTT
//! and the matrix product to cuBLAS. This engine reproduces that cost
//! structure: the cuTT-like model prices each non-identity permutation,
//! the cuBLAS-like model prices the flattened GEMM (including its
//! sensitivity to highly rectangular shapes), and the host-side
//! [`TtgtPlan`] provides a functional execution path for correctness
//! checks.

use cogent_gpu_model::{gemm_model, transpose_model, GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};
use cogent_tensor::ttgt::TtgtPlan;
use cogent_tensor::{DenseTensor, Element};

use crate::engine::Measurement;

/// A TTGT-based contraction engine (TAL_SH stand-in).
#[derive(Debug, Clone, Default)]
pub struct TtgtEngine;

/// Detailed timing of one TTGT execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtgtTiming {
    /// Seconds to permute `A` (0 when the permutation is the identity).
    pub transpose_a_s: f64,
    /// Seconds to permute `B`.
    pub transpose_b_s: f64,
    /// Seconds for the flattened GEMM.
    pub gemm_s: f64,
    /// Seconds to permute the product into the output layout.
    pub transpose_c_s: f64,
}

impl TtgtTiming {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.transpose_a_s + self.transpose_b_s + self.gemm_s + self.transpose_c_s
    }

    /// Fraction of the total spent on transposition — the overhead the
    /// paper's direct approach eliminates.
    pub fn transpose_fraction(&self) -> f64 {
        let t = self.transpose_a_s + self.transpose_b_s + self.transpose_c_s;
        t / self.total_s()
    }
}

impl TtgtEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }

    /// Predicts per-phase times for a contraction.
    pub fn timing(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        device: &GpuDevice,
        precision: Precision,
    ) -> TtgtTiming {
        let plan = TtgtPlan::new(tc, sizes);
        let (m, n, k) = plan.gemm_dims();
        TtgtTiming {
            transpose_a_s: transpose_model::transpose_time_s(
                device,
                plan.a_extents(),
                plan.perm_a(),
                precision,
            ),
            transpose_b_s: transpose_model::transpose_time_s(
                device,
                plan.b_extents(),
                plan.perm_b(),
                precision,
            ),
            gemm_s: gemm_model::gemm_time_s(device, m, n, k, precision),
            transpose_c_s: {
                // The final permutation moves the *output* tensor; its
                // extents in MC order are the pre-image of C's extents.
                let mut mc_extents = vec![0usize; plan.perm_c().len()];
                for (d, &p) in plan.perm_c().iter().enumerate() {
                    mc_extents[p] = plan.c_extents()[d];
                }
                transpose_model::transpose_time_s(device, &mc_extents, plan.perm_c(), precision)
            },
        }
    }

    /// Simulated end-to-end measurement.
    ///
    /// # Examples
    ///
    /// ```
    /// use cogent_baselines::TtgtEngine;
    /// use cogent_gpu_model::{GpuDevice, Precision};
    /// use cogent_ir::{Contraction, SizeMap};
    ///
    /// let tc: Contraction = "abcd-aebf-dfce".parse()?;
    /// let sizes = SizeMap::uniform(&tc, 48);
    /// let m = TtgtEngine::new().measure(&tc, &sizes, &GpuDevice::v100(), Precision::F64);
    /// assert!(m.gflops > 0.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn measure(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        device: &GpuDevice,
        precision: Precision,
    ) -> Measurement {
        let timing = self.timing(tc, sizes, device, precision);
        Measurement::from_time(tc, sizes, timing.total_s())
    }

    /// Functionally executes the contraction on host tensors (the
    /// correctness path).
    pub fn execute<T: Element>(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        a: &DenseTensor<T>,
        b: &DenseTensor<T>,
    ) -> DenseTensor<T> {
        TtgtPlan::new(tc, sizes).execute(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogent_tensor::reference::{contract_reference, random_inputs};

    #[test]
    fn ccsdt_contraction_is_transpose_dominated() {
        // SD2_1: low arithmetic intensity per element, 6D output → the
        // transposes dominate, which is why TAL_SH stalls near 390 GFLOPS
        // on the V100 in the paper.
        let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
        let sizes = SizeMap::from_pairs([
            ("a", 16),
            ("b", 16),
            ("c", 16),
            ("d", 24),
            ("e", 24),
            ("f", 24),
            ("g", 24),
        ]);
        let t = TtgtEngine::new().timing(&tc, &sizes, &GpuDevice::v100(), Precision::F64);
        // A large share of the time goes to data movement the direct
        // approach avoids entirely (the small-k GEMM takes the rest).
        assert!(
            t.transpose_fraction() > 0.3,
            "fraction {}",
            t.transpose_fraction()
        );
    }

    #[test]
    fn fat_4d_contraction_is_gemm_dominated() {
        // 4D=4D*4D with two contracted indices flattens to a big, fat
        // GEMM: transposition cost is amortized, TAL_SH is competitive.
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let t = TtgtEngine::new().timing(&tc, &sizes, &GpuDevice::v100(), Precision::F64);
        assert!(t.gemm_s > t.transpose_a_s + t.transpose_b_s + t.transpose_c_s);
    }

    #[test]
    fn plain_matmul_pays_no_transpose() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 512);
        let t = TtgtEngine::new().timing(&tc, &sizes, &GpuDevice::v100(), Precision::F64);
        assert_eq!(t.transpose_a_s, 0.0);
        assert_eq!(t.transpose_b_s, 0.0);
        assert_eq!(t.transpose_c_s, 0.0);
        assert!(t.gemm_s > 0.0);
    }

    #[test]
    fn measurement_is_positive_and_below_peak() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let d = GpuDevice::v100();
        let m = TtgtEngine::new().measure(&tc, &sizes, &d, Precision::F64);
        assert!(m.gflops > 0.0);
        assert!(m.gflops < d.peak_gflops_f64);
    }

    #[test]
    fn functional_execution_matches_reference() {
        let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 3);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 9);
        let got = TtgtEngine::new().execute(&tc, &sizes, &a, &b);
        let want = contract_reference(&tc, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn v100_faster_than_p100() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let e = TtgtEngine::new();
        let v = e.measure(&tc, &sizes, &GpuDevice::v100(), Precision::F64);
        let p = e.measure(&tc, &sizes, &GpuDevice::p100(), Precision::F64);
        assert!(v.gflops > p.gflops);
    }
}
