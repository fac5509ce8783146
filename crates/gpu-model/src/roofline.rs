//! Roofline-style kernel time prediction.
//!
//! Combines the DRAM traffic measured (or analytically estimated) for a
//! kernel with its FLOP count, occupancy, and grid size into a predicted
//! wall-clock time: `max(compute time, memory time) + launch overhead`,
//! with both components degraded at low occupancy and by partial-wave
//! (tail) effects when the grid does not fill the machine.

use crate::calib;
use crate::device::{GpuDevice, Precision};
use crate::memory;
use crate::occupancy::Occupancy;

/// Everything the roofline needs to know about one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Total floating-point operations.
    pub flops: u128,
    /// Total 128-byte DRAM transactions (loads + stores).
    pub transactions: u128,
    /// Achieved occupancy of the launch.
    pub occupancy: Occupancy,
    /// Total thread blocks in the grid.
    pub total_blocks: usize,
    /// `__syncthreads()`-separated staging steps per block (the k-loop trip
    /// count in Algorithm 1); adds a small serialization overhead.
    pub steps_per_block: usize,
    /// Independent accumulators per thread (`REGx × REGy`): register tiling
    /// creates instruction-level parallelism that hides pipeline latency,
    /// letting low-occupancy kernels still saturate the FP units.
    pub outputs_per_thread: usize,
    /// Precision of the arithmetic.
    pub precision: Precision,
}

/// Predicted execution time and its components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Time the FP pipelines need, seconds.
    pub compute_s: f64,
    /// Time the DRAM traffic needs, seconds.
    pub memory_s: f64,
    /// Total predicted time (max of the above, plus overheads), seconds.
    pub total_s: f64,
    /// Achieved GFLOP/s implied by `total_s`.
    pub gflops: f64,
    /// Fraction of the machine kept busy after wave quantization.
    pub wave_efficiency: f64,
}

/// Fraction of the machine busy across all waves of the grid: a grid of
/// `total_blocks` runs in `ceil(total / capacity)` waves of
/// `capacity = sm_count * blocks_per_sm` blocks; the last partial wave
/// leaves SMs idle.
pub fn wave_efficiency(device: &GpuDevice, total_blocks: usize, blocks_per_sm: usize) -> f64 {
    if total_blocks == 0 || blocks_per_sm == 0 {
        return 0.0;
    }
    let capacity = device.sm_count * blocks_per_sm;
    let waves = total_blocks.div_ceil(capacity);
    total_blocks as f64 / (waves * capacity) as f64
}

/// Predicts the execution time of a kernel launch.
///
/// # Examples
///
/// ```
/// use cogent_gpu_model::*;
///
/// let device = GpuDevice::v100();
/// let occ = occupancy(
///     &device,
///     BlockResources { threads: 256, smem_bytes: 16 * 1024, registers_per_thread: 64 },
/// );
/// let profile = KernelProfile {
///     flops: 1 << 30,
///     transactions: 1 << 20,
///     occupancy: occ,
///     total_blocks: 4096,
///     steps_per_block: 64,
///     outputs_per_thread: 16,
///     precision: Precision::F64,
/// };
/// let t = predict_time_s(&device, &profile);
/// assert!(t.total_s > 0.0);
/// assert!(t.gflops > 0.0);
/// ```
pub fn predict_time_s(device: &GpuDevice, profile: &KernelProfile) -> TimeBreakdown {
    let occ = profile.occupancy.fraction.clamp(0.0, 1.0);
    let wave_eff = wave_efficiency(
        device,
        profile.total_blocks,
        profile.occupancy.blocks_per_sm.max(1),
    );

    if occ == 0.0 || wave_eff == 0.0 {
        // Infeasible launch: report an effectively infinite time.
        return TimeBreakdown {
            compute_s: f64::INFINITY,
            memory_s: f64::INFINITY,
            total_s: f64::INFINITY,
            gflops: 0.0,
            wave_efficiency: 0.0,
        };
    }

    // Compute throughput: a register-tiled kernel reaches a fixed fraction
    // of peak, further reduced when too few warps hide pipeline latency and
    // by per-step synchronization. Latency hiding comes from warps (occ)
    // AND in-thread ILP (independent accumulators), so the occupancy needed
    // for peak shrinks with the register-tile size.
    let ilp = (profile.outputs_per_thread.max(1) as f64).sqrt();
    let occ_factor = (occ * ilp / calib::OCCUPANCY_FOR_PEAK_COMPUTE).min(1.0);
    let sync_factor = 1.0 / (1.0 + calib::SYNC_OVERHEAD);
    let eff_flops = device.peak_gflops(profile.precision)
        * 1e9
        * calib::DIRECT_KERNEL_COMPUTE_EFFICIENCY
        * occ_factor
        * sync_factor
        * wave_eff;
    let compute_s = profile.flops as f64 / eff_flops.max(1.0);

    // Memory: traffic at occupancy-limited bandwidth; a partial wave also
    // leaves memory controllers idle.
    let memory_s = memory::transfer_time_s(device, profile.transactions, occ) / wave_eff;

    let total_s = compute_s.max(memory_s) + calib::KERNEL_LAUNCH_OVERHEAD_S;
    TimeBreakdown {
        compute_s,
        memory_s,
        total_s,
        gflops: profile.flops as f64 / total_s / 1e9,
        wave_efficiency: wave_eff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::{occupancy, BlockResources};

    fn profile(flops: u128, transactions: u128) -> KernelProfile {
        let device = GpuDevice::v100();
        let occ = occupancy(
            &device,
            BlockResources {
                threads: 256,
                smem_bytes: 16 * 1024,
                registers_per_thread: 64,
            },
        );
        KernelProfile {
            flops,
            transactions,
            occupancy: occ,
            total_blocks: 8192,
            steps_per_block: 32,
            outputs_per_thread: 16,
            precision: Precision::F64,
        }
    }

    #[test]
    fn compute_bound_kernel() {
        let d = GpuDevice::v100();
        let p = profile(1 << 36, 1 << 10);
        let t = predict_time_s(&d, &p);
        assert!(t.compute_s > t.memory_s);
        assert!(t.total_s >= t.compute_s);
    }

    #[test]
    fn memory_bound_kernel() {
        let d = GpuDevice::v100();
        let p = profile(1 << 10, 1 << 30);
        let t = predict_time_s(&d, &p);
        assert!(t.memory_s > t.compute_s);
    }

    #[test]
    fn gflops_below_peak() {
        let d = GpuDevice::v100();
        let p = profile(1 << 34, 1 << 20);
        let t = predict_time_s(&d, &p);
        assert!(t.gflops < d.peak_gflops_f64);
        assert!(t.gflops > 0.0);
    }

    #[test]
    fn infeasible_occupancy_is_infinite() {
        let d = GpuDevice::v100();
        let mut p = profile(1 << 20, 1 << 10);
        p.occupancy = occupancy(
            &d,
            BlockResources {
                threads: 2048,
                smem_bytes: 0,
                registers_per_thread: 32,
            },
        );
        let t = predict_time_s(&d, &p);
        assert!(t.total_s.is_infinite());
        assert_eq!(t.gflops, 0.0);
    }

    #[test]
    fn wave_quantization() {
        let d = GpuDevice::v100();
        // Capacity with 4 blocks/SM on 80 SMs = 320.
        assert!((wave_efficiency(&d, 320, 4) - 1.0).abs() < 1e-12);
        assert!((wave_efficiency(&d, 321, 4) - 321.0 / 640.0).abs() < 1e-12);
        assert!(wave_efficiency(&d, 16, 4) < 0.1);
        assert_eq!(wave_efficiency(&d, 0, 4), 0.0);
    }

    #[test]
    fn small_grid_is_slower() {
        let d = GpuDevice::v100();
        let mut big = profile(1 << 32, 1 << 24);
        let mut small = big;
        big.total_blocks = 10_000;
        small.total_blocks = 16;
        let tb = predict_time_s(&d, &big);
        let ts = predict_time_s(&d, &small);
        assert!(ts.total_s > tb.total_s);
    }

    #[test]
    fn more_traffic_never_faster() {
        let d = GpuDevice::v100();
        let t1 = predict_time_s(&d, &profile(1 << 30, 1 << 20));
        let t2 = predict_time_s(&d, &profile(1 << 30, 1 << 26));
        assert!(t2.total_s >= t1.total_s);
    }
}
