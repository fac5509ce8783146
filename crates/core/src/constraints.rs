//! Hardware and performance pruning (§IV-A of the paper).
//!
//! Enumerated configurations are discarded before cost evaluation when
//! they violate hard hardware limits (shared memory, registers, thread
//! count) or the paper's performance rules: the fastest varying index of
//! each input tensor must be mapped so its loads coalesce, the grid must
//! contain enough thread blocks to load-balance the SMs, and the
//! occupancy achievable with the configuration's resource usage must not
//! collapse.

use cogent_gpu_model::{occupancy, BlockResources, GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};

use crate::config::KernelConfig;
use crate::cost::num_thread_blocks;
use crate::intern::{ConfigDims, SearchTables};

/// Why a configuration was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PruneReason {
    /// Shared memory for the two staged tiles exceeds the per-block limit.
    SharedMemoryExceeded,
    /// More threads than a block may hold, or fewer than one warp.
    BadThreadCount,
    /// Register-tile footprint exceeds the per-thread register budget.
    TooManyRegisters,
    /// Grid too small to keep the SMs busy (§IV-A2 load balancing).
    TooFewBlocks,
    /// Achievable occupancy below the floor.
    LowOccupancy,
    /// An input tensor's FVI is not mapped for coalesced loading.
    UncoalescedInputFvi,
}

impl PruneReason {
    /// Every reason, in a fixed order ([`index`](Self::index) inverts it).
    /// Lets the prune loops tally rejections in a plain array instead of a
    /// string-keyed map.
    pub const ALL: [PruneReason; 6] = [
        PruneReason::SharedMemoryExceeded,
        PruneReason::BadThreadCount,
        PruneReason::TooManyRegisters,
        PruneReason::TooFewBlocks,
        PruneReason::LowOccupancy,
        PruneReason::UncoalescedInputFvi,
    ];

    /// This reason's position in [`ALL`](Self::ALL).
    pub fn index(&self) -> usize {
        match self {
            PruneReason::SharedMemoryExceeded => 0,
            PruneReason::BadThreadCount => 1,
            PruneReason::TooManyRegisters => 2,
            PruneReason::TooFewBlocks => 3,
            PruneReason::LowOccupancy => 4,
            PruneReason::UncoalescedInputFvi => 5,
        }
    }

    /// The stable `prune.reject.<rule>` counter name this reason reports
    /// under in pipeline traces (see the `cogent-obs` crate).
    pub fn counter_key(&self) -> &'static str {
        match self {
            PruneReason::SharedMemoryExceeded => "prune.reject.shared_memory_exceeded",
            PruneReason::BadThreadCount => "prune.reject.bad_thread_count",
            PruneReason::TooManyRegisters => "prune.reject.too_many_registers",
            PruneReason::TooFewBlocks => "prune.reject.too_few_blocks",
            PruneReason::LowOccupancy => "prune.reject.low_occupancy",
            PruneReason::UncoalescedInputFvi => "prune.reject.uncoalesced_input_fvi",
        }
    }

    /// The `prune.relaxed.reject.<rule>` counter name used when this
    /// reason rejects a configuration during a progressive-relaxation
    /// pass — kept distinct from [`counter_key`](Self::counter_key) so the
    /// strict pass's tallies stay comparable across runs while relaxed
    /// re-checks remain visible instead of vanishing.
    pub fn relaxed_counter_key(&self) -> &'static str {
        match self {
            PruneReason::SharedMemoryExceeded => "prune.relaxed.reject.shared_memory_exceeded",
            PruneReason::BadThreadCount => "prune.relaxed.reject.bad_thread_count",
            PruneReason::TooManyRegisters => "prune.relaxed.reject.too_many_registers",
            PruneReason::TooFewBlocks => "prune.relaxed.reject.too_few_blocks",
            PruneReason::LowOccupancy => "prune.relaxed.reject.low_occupancy",
            PruneReason::UncoalescedInputFvi => "prune.relaxed.reject.uncoalesced_input_fvi",
        }
    }
}

impl std::fmt::Display for PruneReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PruneReason::SharedMemoryExceeded => "shared memory exceeded",
            PruneReason::BadThreadCount => "bad thread count",
            PruneReason::TooManyRegisters => "too many registers",
            PruneReason::TooFewBlocks => "too few thread blocks",
            PruneReason::LowOccupancy => "low occupancy",
            PruneReason::UncoalescedInputFvi => "uncoalesced input FVI",
        };
        f.write_str(s)
    }
}

/// Tunable pruning thresholds.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PruneRules {
    /// Minimum threads per block (one warp by default).
    pub min_threads: usize,
    /// Minimum thread blocks in the grid, as a multiple of the SM count.
    pub min_blocks_per_sm: f64,
    /// Minimum acceptable occupancy fraction.
    pub min_occupancy: f64,
    /// Enforce that each input's FVI is mapped for coalescing.
    pub require_input_fvi_coalescing: bool,
    /// Minimum tile size demanded of an input FVI (clipped to its extent).
    pub min_fvi_tile: usize,
}

impl Default for PruneRules {
    fn default() -> Self {
        Self {
            min_threads: 32,
            min_blocks_per_sm: 2.0,
            min_occupancy: 0.25,
            require_input_fvi_coalescing: true,
            min_fvi_tile: 4,
        }
    }
}

/// Checks one configuration against all rules.
///
/// The contraction must be normalized (as the enumerator produces).
/// Returns `Ok(())` when the configuration survives, or the first
/// [`PruneReason`] that disqualifies it.
///
/// # Examples
///
/// ```
/// use cogent_core::{constraints::{check_config, PruneRules}, KernelConfig};
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "ij-ik-kj".parse()?;
/// let sizes = SizeMap::uniform(&tc, 1024);
/// let cfg = KernelConfig {
///     tbx: vec![("i".into(), 16)],
///     regx: vec![],
///     tby: vec![("j".into(), 16)],
///     regy: vec![],
///     tbk: vec![("k".into(), 8)],
/// };
/// assert!(check_config(
///     &tc, &cfg, &sizes, &GpuDevice::v100(), Precision::F64, &PruneRules::default(),
/// ).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_config(
    tc: &Contraction,
    cfg: &KernelConfig,
    sizes: &SizeMap,
    device: &GpuDevice,
    precision: Precision,
    rules: &PruneRules,
) -> Result<(), PruneReason> {
    let (tables, dims, tiles) = SearchTables::intern_config(tc, cfg, sizes);
    check_interned(&tables, dims, &tiles, device, precision, rules)
}

/// The §IV-A rules over interned search state, in order: thread-count
/// bounds, shared memory, registers, input-FVI coalescing, grid size,
/// occupancy. Reads the candidate's list-size products ([`ConfigDims`])
/// and its flat tile row (tile per index id, 1 when grid-mapped).
///
/// §IV-A2: "while choosing indices mapped to TBx or TBy, we always include
/// the FVI of the input tensor". Staging loads are cooperative over the
/// whole tile, so the contiguous run length in global memory is governed
/// by the *tile size* of each input's FVI, whichever dimension it is
/// mapped to (thread, register or serial): that tile must reach
/// `min_fvi_tile` (or the full extent).
pub(crate) fn check_interned(
    tables: &SearchTables,
    dims: ConfigDims,
    tiles: &[usize],
    device: &GpuDevice,
    precision: Precision,
    rules: &PruneRules,
) -> Result<(), PruneReason> {
    let threads = dims.tbx * dims.tby;
    if threads > device.max_threads_per_block || threads < rules.min_threads {
        return Err(PruneReason::BadThreadCount);
    }

    let smem_elements = (dims.tbx * dims.regx + dims.tby * dims.regy) * dims.tbk;
    let smem_bytes = smem_elements * precision.bytes();
    if smem_bytes > device.smem_per_block_bytes {
        return Err(PruneReason::SharedMemoryExceeded);
    }

    let words = precision.bytes().div_ceil(4);
    let regs = (dims.regx * dims.regy + dims.regx + dims.regy) * words + 24;
    if regs > device.max_registers_per_thread {
        return Err(PruneReason::TooManyRegisters);
    }

    if rules.require_input_fvi_coalescing {
        for fvi in [tables.fvi_a, tables.fvi_b] {
            let need = rules.min_fvi_tile.min(tables.extent(fvi));
            if tiles[fvi as usize] < need {
                return Err(PruneReason::UncoalescedInputFvi);
            }
        }
    }

    let blocks = num_thread_blocks(tables, tiles);
    let min_blocks = (device.sm_count as f64 * rules.min_blocks_per_sm).ceil() as u128;
    if blocks < min_blocks {
        return Err(PruneReason::TooFewBlocks);
    }

    let occ = occupancy(
        device,
        BlockResources {
            threads,
            smem_bytes,
            registers_per_thread: regs,
        },
    );
    // A launch that cannot place even one block is infeasible no matter
    // how lax the thresholds are.
    if occ.blocks_per_sm == 0 {
        return Err(PruneReason::LowOccupancy);
    }
    if occ.fraction < rules.min_occupancy {
        return Err(PruneReason::LowOccupancy);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq1() -> (Contraction, SizeMap) {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 64);
        (tc, sizes)
    }

    fn good_cfg() -> KernelConfig {
        KernelConfig {
            tbx: vec![("a".into(), 16)],
            regx: vec![("b".into(), 4)],
            tby: vec![("c".into(), 16)],
            regy: vec![("d".into(), 4)],
            tbk: vec![("e".into(), 8), ("f".into(), 1)],
        }
    }

    fn check(cfg: &KernelConfig) -> Result<(), PruneReason> {
        let (tc, sizes) = eq1();
        check_config(
            &tc,
            cfg,
            &sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &PruneRules::default(),
        )
    }

    #[test]
    fn good_config_survives() {
        // B's FVI (d) carries a tile of 4 via REGy — enough for coalesced
        // staging loads even though it is not on TBy.
        assert_eq!(check(&good_cfg()), Ok(()));
        let on_thread_dim = KernelConfig {
            tbx: vec![("a".into(), 16)],
            regx: vec![("b".into(), 4)],
            tby: vec![("d".into(), 16)],
            regy: vec![("c".into(), 4)],
            tbk: vec![("e".into(), 8), ("f".into(), 1)],
        };
        assert_eq!(check(&on_thread_dim), Ok(()));
    }

    #[test]
    fn unmapped_input_fvi_is_pruned() {
        // B's FVI d grid-mapped (tile 1): staging loads of B cannot
        // coalesce.
        let cfg = KernelConfig {
            tbx: vec![("a".into(), 16)],
            regx: vec![("b".into(), 4)],
            tby: vec![("c".into(), 16)],
            regy: vec![],
            tbk: vec![("e".into(), 8), ("f".into(), 1)],
        };
        assert_eq!(check(&cfg), Err(PruneReason::UncoalescedInputFvi));
    }

    #[test]
    fn hard_infeasible_launch_pruned_even_with_relaxed_rules() {
        // 1024 threads × a large register tile cannot place a single
        // block per SM; even zeroed thresholds must reject it.
        let (tc, sizes) = eq1();
        let cfg = KernelConfig {
            tbx: vec![("a".into(), 32)],
            regx: vec![("b".into(), 8)],
            tby: vec![("d".into(), 32)],
            regy: vec![("c".into(), 8)],
            tbk: vec![("e".into(), 4), ("f".into(), 1)],
        };
        let rules = PruneRules {
            min_occupancy: 0.0,
            min_blocks_per_sm: 0.0,
            min_threads: 1,
            ..PruneRules::default()
        };
        let r = check_config(
            &tc,
            &cfg,
            &sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &rules,
        );
        assert_eq!(r, Err(PruneReason::LowOccupancy));
    }

    #[test]
    fn smem_limit() {
        let cfg = KernelConfig {
            tbx: vec![("a".into(), 16)],
            regx: vec![("b".into(), 8)],
            tby: vec![("d".into(), 16)],
            regy: vec![("c".into(), 8)],
            tbk: vec![("e".into(), 32), ("f".into(), 1)],
        };
        // smem = (16*8 + 16*8) * 32 * 8B = 64 KiB > 48 KiB.
        assert_eq!(check(&cfg), Err(PruneReason::SharedMemoryExceeded));
    }

    #[test]
    fn thread_count_limits() {
        let too_many = KernelConfig {
            tbx: vec![("a".into(), 64)],
            regx: vec![],
            tby: vec![("d".into(), 64)],
            regy: vec![],
            tbk: vec![("e".into(), 4), ("f".into(), 1)],
        };
        assert_eq!(check(&too_many), Err(PruneReason::BadThreadCount));
        let too_few = KernelConfig {
            tbx: vec![("a".into(), 4)],
            regx: vec![],
            tby: vec![("d".into(), 4)],
            regy: vec![],
            tbk: vec![("e".into(), 4), ("f".into(), 1)],
        };
        assert_eq!(check(&too_few), Err(PruneReason::BadThreadCount));
    }

    #[test]
    fn min_blocks_rule() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32); // grid = 2×2 blocks of 16×16
        let cfg = KernelConfig {
            tbx: vec![("i".into(), 16)],
            regx: vec![],
            tby: vec![("j".into(), 16)],
            regy: vec![],
            tbk: vec![("k".into(), 8)],
        };
        let r = check_config(
            &tc,
            &cfg,
            &sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &PruneRules::default(),
        );
        assert_eq!(r, Err(PruneReason::TooFewBlocks));
    }

    #[test]
    fn fvi_tile_too_small() {
        let cfg = KernelConfig {
            tbx: vec![("a".into(), 2), ("b".into(), 8)],
            regx: vec![],
            tby: vec![("d".into(), 16)],
            regy: vec![("c".into(), 4)],
            tbk: vec![("e".into(), 8), ("f".into(), 1)],
        };
        // a (A's and C's FVI) has tile 2 < 4.
        assert_eq!(check(&cfg), Err(PruneReason::UncoalescedInputFvi));
    }

    #[test]
    fn internal_fvi_needs_large_k_tile() {
        // B = B[f,...]: f internal. Its tile must reach min_fvi_tile.
        let tc: Contraction = "abcd-aebf-fdce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 64);
        let bad = KernelConfig {
            tbx: vec![("a".into(), 16)],
            regx: vec![("b".into(), 4)],
            tby: vec![("d".into(), 16)],
            regy: vec![("c".into(), 4)],
            tbk: vec![("e".into(), 8), ("f".into(), 1)],
        };
        let good = KernelConfig {
            tbk: vec![("f".into(), 8), ("e".into(), 1)],
            ..bad.clone()
        };
        let rules = PruneRules::default();
        let d = GpuDevice::v100();
        assert_eq!(
            check_config(&tc, &bad, &sizes, &d, Precision::F64, &rules),
            Err(PruneReason::UncoalescedInputFvi)
        );
        assert_eq!(
            check_config(&tc, &good, &sizes, &d, Precision::F64, &rules),
            Ok(())
        );
    }

    #[test]
    fn rules_can_be_relaxed() {
        let rules = PruneRules {
            require_input_fvi_coalescing: false,
            min_occupancy: 0.0,
            min_blocks_per_sm: 0.0,
            min_threads: 1,
            ..PruneRules::default()
        };
        let (tc, sizes) = eq1();
        assert_eq!(
            check_config(
                &tc,
                &good_cfg(),
                &sizes,
                &GpuDevice::v100(),
                Precision::F64,
                &rules,
            ),
            Ok(())
        );
    }

    #[test]
    fn reason_display() {
        assert_eq!(
            PruneReason::TooFewBlocks.to_string(),
            "too few thread blocks"
        );
    }

    #[test]
    fn all_and_index_are_inverse() {
        for (i, r) in PruneReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
