//! Hardware and performance pruning (§IV-A of the paper).
//!
//! Enumerated configurations are discarded before cost evaluation when
//! they violate hard hardware limits (shared memory, registers, thread
//! count) or the paper's performance rules: the fastest varying index of
//! each input tensor must be mapped so its loads coalesce, the grid must
//! contain enough thread blocks to load-balance the SMs, and the
//! occupancy achievable with the configuration's resource usage must not
//! collapse.

use std::collections::BTreeMap;
use std::time::Instant;

use cogent_gpu_model::{occupancy, BlockResources, GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};

use crate::config::KernelConfig;
use crate::cost::num_thread_blocks;
use crate::enumerate::{rows_before, Enumeration};
use crate::intern::{CompiledList, ConfigDims, MenuChoice, SearchTables};

/// Why a configuration was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq)]
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
    // The configuration as a group whose row already holds every tile,
    // with one TBk entry that adds none.
    let class = TbkClass {
        product: dims.tbk,
        entries: vec![(0, 0)],
        by_mask: [1, 0, 0, 0],
    };
    let mut reasons = [0; PruneReason::ALL.len()];
    let r = Rules::new(&tables, device, precision, rules);
    r.decide(&tables, dims, &tiles, &[class], &mut reasons, |_| {});
    match reasons.iter().position(|&n| n > 0) {
        Some(i) => Err(PruneReason::ALL[i]),
        None => Ok(()),
    }
}

/// The §IV-A rules of one pass, with its thresholds resolved against one
/// search's tables.
struct Rules<'a> {
    device: &'a GpuDevice,
    precision: Precision,
    rules: &'a PruneRules,
    /// The ids of `A`'s and `B`'s FVIs, and the tile each must reach
    /// (`min_fvi_tile`, clipped to its extent).
    fvi: [u32; 2],
    need: [usize; 2],
    min_blocks: u128,
}

/// Both inputs' FVIs reach their coalescing tile (see [`Rules::fvi_mask`]).
const FVI_OK: u8 = 0b11;

impl<'a> Rules<'a> {
    fn new(
        t: &SearchTables,
        device: &'a GpuDevice,
        precision: Precision,
        rules: &'a PruneRules,
    ) -> Self {
        let fvi = [t.fvi_a, t.fvi_b];
        Self {
            device,
            precision,
            rules,
            fvi,
            need: fvi.map(|id| rules.min_fvi_tile.min(t.extent(id))),
            min_blocks: (device.sm_count as f64 * rules.min_blocks_per_sm).ceil() as u128,
        }
    }

    /// Bit `t` set when input `t`'s FVI (0: `A`, 1: `B`) reaches its
    /// coalescing tile under `tile_of`. A candidate's FVI tile is the
    /// larger of the tiles its group and its TBk entry give it (the index
    /// is in at most one of them), so it passes when the two masks
    /// together make [`FVI_OK`].
    fn fvi_mask(&self, tile_of: impl Fn(u32) -> usize) -> u8 {
        (0..2).fold(0, |mask, t| {
            mask | u8::from(tile_of(self.fvi[t]) >= self.need[t]) << t
        })
    }

    /// Decides the §IV-A rules for every candidate of a group: the
    /// group's list-size products `dims` (`dims.tbk` is not read) and tile
    /// row `row`, combined with each TBk entry of `classes`. Each rule is
    /// decided at the level that fixes its inputs — the thread count,
    /// registers and grid size per group, shared memory and occupancy per
    /// class, the FVI tiles per group and per entry — and a rejected
    /// candidate is counted in `reasons` (indexed by
    /// [`PruneReason::index`]) once, under the first rule it fails, in
    /// order: thread-count bounds, shared memory, registers, input-FVI
    /// coalescing, grid size, occupancy. `keep` receives each survivor's
    /// TBk entry.
    ///
    /// §IV-A2: "while choosing indices mapped to TBx or TBy, we always
    /// include the FVI of the input tensor". Staging loads are cooperative
    /// over the whole tile, so the contiguous run length in global memory
    /// is governed by the *tile size* of each input's FVI, whichever
    /// dimension it is mapped to (thread, register or serial): that tile
    /// must reach `min_fvi_tile` (or the full extent).
    fn decide(
        &self,
        tables: &SearchTables,
        dims: ConfigDims,
        row: &[usize],
        classes: &[TbkClass],
        reasons: &mut [usize; PruneReason::ALL.len()],
        mut keep: impl FnMut(u32),
    ) {
        let (device, bytes) = (self.device, self.precision.bytes());
        let mut reject = |reason: PruneReason, n: usize| reasons[reason.index()] += n;
        if !self.threads_in_bounds(dims) {
            let rows = classes.iter().map(|c| c.entries.len()).sum();
            return reject(PruneReason::BadThreadCount, rows);
        }
        let threads = dims.tbx * dims.tby;
        let regs = (dims.regx * dims.regy + dims.regx + dims.regy) * bytes.div_ceil(4) + 24;
        let group_mask = self.fvi_mask(|id| row[id as usize]);
        let coalesced =
            |mask: u8| !self.rules.require_input_fvi_coalescing || mask | group_mask == FVI_OK;
        let mut too_few_blocks = None;
        // With the thread count and registers fixed, occupancy only falls
        // as shared memory grows: once one class (in decreasing product
        // order) passes the floor, every later class does too.
        let mut occupied = false;
        for class in classes {
            let count = class.entries.len();
            let smem_bytes = (dims.tbx * dims.regx + dims.tby * dims.regy) * class.product * bytes;
            if smem_bytes > device.smem_per_block_bytes {
                reject(PruneReason::SharedMemoryExceeded, count);
                continue;
            }
            if regs > device.max_registers_per_thread {
                reject(PruneReason::TooManyRegisters, count);
                continue;
            }
            let by_mask = (0..4)
                .filter(|&m| coalesced(m))
                .map(|m| class.by_mask[m as usize]);
            let passing: usize = by_mask.sum();
            reject(PruneReason::UncoalescedInputFvi, count - passing);
            let blocks = || num_thread_blocks(tables, row) < self.min_blocks;
            if passing == 0 {
                continue;
            } else if *too_few_blocks.get_or_insert_with(blocks) {
                reject(PruneReason::TooFewBlocks, passing);
            } else if !occupied && self.low_occupancy(threads, smem_bytes, regs) {
                reject(PruneReason::LowOccupancy, passing);
            } else {
                occupied = true;
                for &(k, _) in class.entries.iter().filter(|&&(_, mask)| coalesced(mask)) {
                    keep(k);
                }
            }
        }
    }

    /// Whether the thread count `TBx × TBy` is in bounds: the one rule
    /// [`Self::decide`] settles without reading the group's tile row.
    fn threads_in_bounds(&self, dims: ConfigDims) -> bool {
        let threads = dims.tbx * dims.tby;
        threads <= self.device.max_threads_per_block && threads >= self.rules.min_threads
    }

    fn low_occupancy(&self, threads: usize, smem_bytes: usize, regs: usize) -> bool {
        let resources = BlockResources {
            threads,
            smem_bytes,
            registers_per_thread: regs,
        };
        let occ = occupancy(self.device, resources);
        // A launch that cannot place even one block is infeasible no
        // matter how lax the thresholds are.
        occ.blocks_per_sm == 0 || occ.fraction < self.rules.min_occupancy
    }
}

/// TBk entries that share a tile product: shared memory and occupancy
/// decide them alike, so they are decided once.
struct TbkClass {
    product: usize,
    /// `(entry, FVI mask)` in menu order; the mask holds the bits of the
    /// FVIs the entry itself tiles far enough.
    entries: Vec<(u32, u8)>,
    /// How many entries carry each mask.
    by_mask: [usize; 4],
}

/// The classes of a TBk menu, in decreasing product order.
fn tbk_classes(rules: &Rules, tbk: &[CompiledList]) -> Vec<TbkClass> {
    let mut order: Vec<usize> = (0..tbk.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(tbk[k].product));
    let mut classes: Vec<TbkClass> = Vec::new();
    for k in order {
        let (pairs, product) = (&tbk[k].pairs, tbk[k].product);
        let mask = rules.fvi_mask(|id| pairs.iter().find(|p| p.0 == id).map_or(1, |p| p.1));
        if classes.last().is_none_or(|c| c.product != product) {
            let (entries, by_mask) = (Vec::new(), [0; 4]);
            classes.push(TbkClass {
                product,
                entries,
                by_mask,
            });
        }
        let class = classes.last_mut().expect("a class was pushed");
        class.entries.push((k as u32, mask));
        class.by_mask[mask as usize] += 1;
    }
    classes
}

/// Accumulated results of one pruning pass (strict or relaxed).
#[derive(Default)]
pub(crate) struct PrunePass {
    /// Surviving candidates, group by group in enumeration order.
    pub survivors: Vec<MenuChoice>,
    /// Rejections per rule, indexed by [`PruneReason::index`]. Static
    /// tallies only — the string-keyed histogram the outcome reports is
    /// folded from these once, at assembly, instead of `format!`-ing a
    /// key per rejection.
    pub reasons: [usize; PruneReason::ALL.len()],
    /// Rule checks performed (candidates decided).
    pub checked: usize,
    /// Whether the deadline expired before the pass saw every candidate.
    pub truncated: bool,
}

impl PrunePass {
    /// Reports this pass (`prune.checked` and a counter per rule) and folds
    /// its rejections into the outcome's histogram, keyed by the rule name
    /// and `prune.reject.<rule>` for the strict pass, and by `"<tag>:
    /// <rule>"` and `prune.relaxed.reject.<rule>` for relaxation passes.
    pub fn report(&self, histogram: &mut BTreeMap<String, usize>, relaxed_tag: Option<&str>) {
        cogent_obs::counter("prune.checked", self.checked as u128);
        for (reason, &count) in PruneReason::ALL.iter().zip(&self.reasons) {
            if count > 0 {
                let (key, counter) = match relaxed_tag {
                    None => (reason.to_string(), reason.counter_key()),
                    Some(tag) => (format!("{tag}: {reason}"), reason.relaxed_counter_key()),
                };
                cogent_obs::counter(counter, count as u128);
                *histogram.entry(key).or_default() += count;
            }
        }
    }
}

/// One pass of the §IV-A rules over an enumeration's groups, in order
/// ([`Rules::decide`] per group). A set `deadline` is re-checked every 128
/// candidates ([`rows_before`]); expiry stops the pass and marks it
/// truncated.
pub(crate) fn prune_pass(
    en: &Enumeration,
    device: &GpuDevice,
    precision: Precision,
    rules: &PruneRules,
    deadline: Option<Instant>,
) -> PrunePass {
    let (tables, menus) = (&en.tables, &en.compiled);
    let r = Rules::new(tables, device, precision, rules);
    let classes = tbk_classes(&r, &menus.tbk);
    let mut row = vec![1; tables.num_indices()];
    let mut pass = PrunePass::default();
    for group in &en.groups {
        // A group cut short by the budget or the deadline gets classes of
        // its own.
        let rows = rows_before(deadline, pass.checked, group.tbk as usize);
        let cut;
        let classes = if rows == menus.tbk.len() {
            &classes
        } else {
            cut = tbk_classes(&r, &menus.tbk[..rows]);
            &cut
        };
        let dims = menus.dims(group.choice(0));
        // `decide` rejects a thread count out of bounds before it reads
        // the row, so such a group skips filling it.
        if r.threads_in_bounds(dims) {
            menus.fill_group(group.menus, &mut row);
        }
        let keep = |k| pass.survivors.push(group.choice(k));
        r.decide(tables, dims, &row, classes, &mut pass.reasons, keep);
        pass.checked += rows;
        if rows < group.tbk as usize {
            pass.truncated = true;
            break;
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    type List<'a> = &'a [(&'a str, usize)];

    /// A configuration from its five `(index, tile)` lists.
    fn cfg(tbx: List, regx: List, tby: List, regy: List, tbk: List) -> KernelConfig {
        let list = |l: List| l.iter().map(|&(n, t)| (n.into(), t)).collect();
        KernelConfig {
            tbx: list(tbx),
            regx: list(regx),
            tby: list(tby),
            regy: list(regy),
            tbk: list(tbk),
        }
    }

    fn good_cfg() -> KernelConfig {
        cfg(
            &[("a", 16)],
            &[("b", 4)],
            &[("c", 16)],
            &[("d", 4)],
            &[("e", 8), ("f", 1)],
        )
    }

    /// `cfg` checked for `spec` at uniform extent `n` on a V100 in F64.
    fn check_on(
        spec: &str,
        n: usize,
        cfg: &KernelConfig,
        rules: &PruneRules,
    ) -> Result<(), PruneReason> {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        check_config(&tc, cfg, &sizes, &GpuDevice::v100(), Precision::F64, rules)
    }

    fn check(cfg: &KernelConfig) -> Result<(), PruneReason> {
        check_on("abcd-aebf-dfce", 64, cfg, &PruneRules::default())
    }

    #[test]
    fn good_config_survives() {
        // B's FVI (d) carries a tile of 4 via REGy — enough for coalesced
        // staging loads even though it is not on TBy.
        assert_eq!(check(&good_cfg()), Ok(()));
        let on_thread_dim = cfg(
            &[("a", 16)],
            &[("b", 4)],
            &[("d", 16)],
            &[("c", 4)],
            &[("e", 8), ("f", 1)],
        );
        assert_eq!(check(&on_thread_dim), Ok(()));
    }

    #[test]
    fn unmapped_input_fvi_is_pruned() {
        // B's FVI d grid-mapped (tile 1): staging loads of B cannot
        // coalesce.
        let unmapped = cfg(
            &[("a", 16)],
            &[("b", 4)],
            &[("c", 16)],
            &[],
            &[("e", 8), ("f", 1)],
        );
        assert_eq!(check(&unmapped), Err(PruneReason::UncoalescedInputFvi));
    }

    #[test]
    fn hard_infeasible_launch_pruned_even_with_relaxed_rules() {
        // 1024 threads × a large register tile cannot place a single
        // block per SM; even zeroed thresholds must reject it.
        let big = cfg(
            &[("a", 32)],
            &[("b", 8)],
            &[("d", 32)],
            &[("c", 8)],
            &[("e", 4), ("f", 1)],
        );
        let rules = PruneRules {
            min_occupancy: 0.0,
            min_blocks_per_sm: 0.0,
            min_threads: 1,
            ..PruneRules::default()
        };
        let r = check_on("abcd-aebf-dfce", 64, &big, &rules);
        assert_eq!(r, Err(PruneReason::LowOccupancy));
    }

    #[test]
    fn smem_limit() {
        let staged = cfg(
            &[("a", 16)],
            &[("b", 8)],
            &[("d", 16)],
            &[("c", 8)],
            &[("e", 32), ("f", 1)],
        );
        // smem = (16*8 + 16*8) * 32 * 8B = 64 KiB > 48 KiB.
        assert_eq!(check(&staged), Err(PruneReason::SharedMemoryExceeded));
    }

    #[test]
    fn thread_count_limits() {
        let too_many = cfg(&[("a", 64)], &[], &[("d", 64)], &[], &[("e", 4), ("f", 1)]);
        assert_eq!(check(&too_many), Err(PruneReason::BadThreadCount));
        let too_few = cfg(&[("a", 4)], &[], &[("d", 4)], &[], &[("e", 4), ("f", 1)]);
        assert_eq!(check(&too_few), Err(PruneReason::BadThreadCount));
    }

    #[test]
    fn min_blocks_rule() {
        // grid = 2×2 blocks of 16×16
        let small = cfg(&[("i", 16)], &[], &[("j", 16)], &[], &[("k", 8)]);
        let r = check_on("ij-ik-kj", 32, &small, &PruneRules::default());
        assert_eq!(r, Err(PruneReason::TooFewBlocks));
    }

    #[test]
    fn fvi_tile_too_small() {
        let narrow = cfg(
            &[("a", 2), ("b", 8)],
            &[],
            &[("d", 16)],
            &[("c", 4)],
            &[("e", 8), ("f", 1)],
        );
        // a (A's and C's FVI) has tile 2 < 4.
        assert_eq!(check(&narrow), Err(PruneReason::UncoalescedInputFvi));
    }

    #[test]
    fn internal_fvi_needs_large_k_tile() {
        // B = B[f,...]: f internal. Its tile must reach min_fvi_tile.
        let bad = cfg(
            &[("a", 16)],
            &[("b", 4)],
            &[("d", 16)],
            &[("c", 4)],
            &[("e", 8), ("f", 1)],
        );
        let good = KernelConfig {
            tbk: vec![("f".into(), 8), ("e".into(), 1)],
            ..bad.clone()
        };
        let rules = PruneRules::default();
        assert_eq!(
            check_on("abcd-aebf-fdce", 64, &bad, &rules),
            Err(PruneReason::UncoalescedInputFvi)
        );
        assert_eq!(check_on("abcd-aebf-fdce", 64, &good, &rules), Ok(()));
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
        assert_eq!(check_on("abcd-aebf-dfce", 64, &good_cfg(), &rules), Ok(()));
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
