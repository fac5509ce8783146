//! Calibration constants for the performance models.
//!
//! Every empirical constant used by the timing models lives here so the
//! whole stack can be tuned coherently. Values were chosen so that the
//! simulated GFLOPS of the reproduced frameworks land in the bands the
//! paper reports (e.g. COGENT ≈ 1800–2100 GFLOPS and TAL_SH ≈ 390 GFLOPS
//! for CCSD(T) contractions on the V100); the comparative *shapes* in
//! Figs. 4–8 are what the reproduction targets.

/// Kernel launch overhead, seconds. Each kernel (including every transpose
/// in a TTGT pipeline) pays this once.
pub const KERNEL_LAUNCH_OVERHEAD_S: f64 = 4.0e-6;

/// Fraction of peak DRAM bandwidth achievable by a perfectly coalesced
/// stream (ECC and refresh overheads keep real kernels below the headline
/// number).
pub const STREAM_BANDWIDTH_EFFICIENCY: f64 = 0.82;

/// Occupancy (fraction of max resident warps) needed to saturate DRAM
/// bandwidth. Below this, achievable bandwidth degrades roughly linearly —
/// there is not enough memory-level parallelism in flight.
pub const OCCUPANCY_FOR_PEAK_BANDWIDTH: f64 = 0.25;

/// Occupancy needed to saturate the floating-point pipelines given the
/// instruction-level parallelism of an unrolled register-tiled kernel.
pub const OCCUPANCY_FOR_PEAK_COMPUTE: f64 = 0.50;

/// Fraction of peak FLOPS reachable by the best register-tiled direct
/// contraction kernel (issue limits, address arithmetic, sync overhead).
/// Large register tiles with full ILP get close to what cuBLAS reaches.
pub const DIRECT_KERNEL_COMPUTE_EFFICIENCY: f64 = 0.75;

/// Fraction of peak FLOPS cuBLAS reaches on large square GEMMs (the
/// flattened matrices TTGT produces are typically transposed-layout
/// kernels, a notch below the absolute DGEMM peak).
pub const CUBLAS_PEAK_EFFICIENCY: f64 = 0.75;

/// GEMM dimension (elements) above which cuBLAS tiles are fully utilized
/// along that dimension; smaller extents waste a fraction of each tile.
pub const CUBLAS_TILE_MN: f64 = 128.0;

/// The contracted dimension k saturates more quickly than m/n.
pub const CUBLAS_TILE_K: f64 = 16.0;

/// Additional small-k pipeline penalty scale for cuBLAS: efficiency factor
/// `k / (k + CUBLAS_SMALL_K)`.
pub const CUBLAS_SMALL_K: f64 = 64.0;

/// Bandwidth efficiency of a cuTT-style transpose whose fastest varying
/// dimension is preserved (pure coalesced copy with index remap).
pub const TRANSPOSE_EFF_FVI_PRESERVED: f64 = 0.75;

/// Bandwidth efficiency of a cuTT-style transpose that changes the fastest
/// varying dimension (tiled through shared memory).
pub const TRANSPOSE_EFF_FVI_CHANGED: f64 = 0.45;

/// Penalty applied to the achievable bandwidth when the innermost
/// contiguous run of a transpose is shorter than a transaction: efficiency
/// is scaled by `run_bytes / transaction_bytes` down to this floor.
pub const TRANSPOSE_MIN_EFFICIENCY: f64 = 0.08;

/// Efficiency loss applied per `__syncthreads()`-separated stage relative
/// to an ideal pipeline; multiplies compute efficiency as
/// `1 / (1 + SYNC_OVERHEAD * stages_per_element)`.
pub const SYNC_OVERHEAD: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_sane_fractions() {
        for &f in &[
            STREAM_BANDWIDTH_EFFICIENCY,
            OCCUPANCY_FOR_PEAK_BANDWIDTH,
            OCCUPANCY_FOR_PEAK_COMPUTE,
            DIRECT_KERNEL_COMPUTE_EFFICIENCY,
            CUBLAS_PEAK_EFFICIENCY,
            TRANSPOSE_EFF_FVI_PRESERVED,
            TRANSPOSE_EFF_FVI_CHANGED,
            TRANSPOSE_MIN_EFFICIENCY,
        ] {
            assert!(f > 0.0 && f <= 1.0);
        }
        let overhead = KERNEL_LAUNCH_OVERHEAD_S;
        assert!(overhead > 0.0);
        let (kept, changed) = (TRANSPOSE_EFF_FVI_PRESERVED, TRANSPOSE_EFF_FVI_CHANGED);
        assert!(kept > changed);
    }
}
