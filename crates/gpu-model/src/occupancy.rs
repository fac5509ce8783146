//! CUDA occupancy calculation.

use crate::device::GpuDevice;

/// Per-block resource usage of a kernel, the inputs to the occupancy
/// calculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockResources {
    /// Threads per block.
    pub threads: usize,
    /// Static + dynamic shared memory per block, bytes.
    pub smem_bytes: usize,
    /// 32-bit registers per thread.
    pub registers_per_thread: usize,
}

/// Result of the occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: usize,
    /// Warps resident per SM.
    pub warps_per_sm: usize,
    /// Fraction of the SM's maximum resident warps, in `[0, 1]`.
    pub fraction: f64,
    /// Which resource limited the block count.
    pub limiter: Limiter,
}

/// The resource that bounds how many blocks fit on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Thread capacity (or the per-SM block cap).
    Threads,
    /// Shared memory capacity.
    SharedMemory,
    /// Register file capacity.
    Registers,
    /// The block is infeasible (exceeds a hard per-block limit).
    Infeasible,
}

/// Computes achievable occupancy of a kernel on `device`.
///
/// Returns [`Limiter::Infeasible`] with zero occupancy when the block
/// exceeds a hard limit (threads per block, shared memory per block, or
/// registers per thread).
///
/// # Examples
///
/// ```
/// use cogent_gpu_model::{occupancy, BlockResources, GpuDevice};
///
/// let occ = occupancy(
///     &GpuDevice::v100(),
///     BlockResources { threads: 256, smem_bytes: 16 * 1024, registers_per_thread: 64 },
/// );
/// assert!(occ.blocks_per_sm >= 4);
/// assert!(occ.fraction > 0.4);
/// ```
pub fn occupancy(device: &GpuDevice, block: BlockResources) -> Occupancy {
    let infeasible = Occupancy {
        blocks_per_sm: 0,
        warps_per_sm: 0,
        fraction: 0.0,
        limiter: Limiter::Infeasible,
    };
    if block.threads == 0
        || block.threads > device.max_threads_per_block
        || block.smem_bytes > device.smem_per_block_bytes
        || block.registers_per_thread > device.max_registers_per_thread
    {
        return infeasible;
    }

    // Warp-granular thread allocation.
    let warps_per_block = block.threads.div_ceil(device.warp_size);
    let by_threads = (device.max_threads_per_sm / (warps_per_block * device.warp_size))
        .min(device.max_blocks_per_sm);

    // Shared memory allocation granularity: 256 bytes.
    let smem_alloc = block.smem_bytes.div_ceil(256) * 256;
    let by_smem = device
        .smem_per_sm_bytes
        .checked_div(smem_alloc)
        .unwrap_or(device.max_blocks_per_sm);

    // Register allocation granularity: 8 registers per thread, allocated
    // per warp.
    let regs_per_thread = block.registers_per_thread.max(16).div_ceil(8) * 8;
    let regs_per_block = regs_per_thread * warps_per_block * device.warp_size;
    let by_regs = device
        .registers_per_sm
        .checked_div(regs_per_block)
        .unwrap_or(device.max_blocks_per_sm);

    let blocks = by_threads.min(by_smem).min(by_regs);
    if blocks == 0 {
        return infeasible;
    }
    let limiter = if blocks == by_threads {
        Limiter::Threads
    } else if blocks == by_smem {
        Limiter::SharedMemory
    } else {
        Limiter::Registers
    };

    let warps = blocks * warps_per_block;
    Occupancy {
        blocks_per_sm: blocks,
        warps_per_sm: warps,
        fraction: warps as f64 / device.max_warps_per_sm() as f64,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> GpuDevice {
        GpuDevice::v100()
    }

    #[test]
    fn small_block_is_thread_limited() {
        let occ = occupancy(
            &v100(),
            BlockResources {
                threads: 64,
                smem_bytes: 0,
                registers_per_thread: 32,
            },
        );
        // 64-thread blocks: capped at 32 blocks/SM → 64 warps... but
        // register file: 32→32 regs * 64 thr = 2048/block * 32 = 65536: fits.
        assert_eq!(occ.blocks_per_sm, 32);
        assert_eq!(occ.warps_per_sm, 64);
        assert!((occ.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smem_limits_blocks() {
        let occ = occupancy(
            &v100(),
            BlockResources {
                threads: 128,
                smem_bytes: 40 * 1024,
                registers_per_thread: 32,
            },
        );
        // 96 KiB / 40 KiB = 2 blocks per SM.
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn registers_limit_blocks() {
        let occ = occupancy(
            &v100(),
            BlockResources {
                threads: 1024,
                smem_bytes: 0,
                registers_per_thread: 128,
            },
        );
        // 128 regs * 1024 threads = 131072 > 65536 per SM → 0 blocks →
        // infeasible at that size? No: by_regs = 65536/131072 = 0.
        assert_eq!(occ.limiter, Limiter::Infeasible);
        assert_eq!(occ.fraction, 0.0);
    }

    #[test]
    fn register_limited_but_feasible() {
        let occ = occupancy(
            &v100(),
            BlockResources {
                threads: 256,
                smem_bytes: 0,
                registers_per_thread: 255,
            },
        );
        // 256 regs/thread (rounded) * 256 threads = 65536 → exactly 1 block.
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limiter, Limiter::Registers);
    }

    #[test]
    fn oversized_block_is_infeasible() {
        for block in [
            BlockResources {
                threads: 2048,
                smem_bytes: 0,
                registers_per_thread: 32,
            },
            BlockResources {
                threads: 256,
                smem_bytes: 100 * 1024,
                registers_per_thread: 32,
            },
            BlockResources {
                threads: 256,
                smem_bytes: 0,
                registers_per_thread: 300,
            },
            BlockResources {
                threads: 0,
                smem_bytes: 0,
                registers_per_thread: 32,
            },
        ] {
            assert_eq!(occupancy(&v100(), block).limiter, Limiter::Infeasible);
        }
    }

    #[test]
    fn fraction_monotone_in_register_pressure() {
        let mk = |r| {
            occupancy(
                &v100(),
                BlockResources {
                    threads: 256,
                    smem_bytes: 8 * 1024,
                    registers_per_thread: r,
                },
            )
            .fraction
        };
        assert!(mk(32) >= mk(64));
        assert!(mk(64) >= mk(128));
    }

    #[test]
    fn p100_smem_capacity_differs() {
        let occ_p = occupancy(
            &GpuDevice::p100(),
            BlockResources {
                threads: 128,
                smem_bytes: 30 * 1024,
                registers_per_thread: 32,
            },
        );
        let occ_v = occupancy(
            &v100(),
            BlockResources {
                threads: 128,
                smem_bytes: 30 * 1024,
                registers_per_thread: 32,
            },
        );
        // P100 has 64 KiB/SM → 2 blocks; V100 has 96 KiB/SM → 3 blocks.
        assert_eq!(occ_p.blocks_per_sm, 2);
        assert_eq!(occ_v.blocks_per_sm, 3);
    }

    #[test]
    fn non_warp_multiple_threads_round_up() {
        let occ = occupancy(
            &v100(),
            BlockResources {
                threads: 33,
                smem_bytes: 0,
                registers_per_thread: 32,
            },
        );
        // 33 threads occupy 2 warps.
        assert_eq!(occ.warps_per_sm, occ.blocks_per_sm * 2);
    }
}
