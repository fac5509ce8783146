//! The analytical DRAM-transaction cost model (Algorithm 3 of the paper).
//!
//! For each tensor the model estimates the number of global-memory
//! transactions a configuration incurs: the number of contiguous elements
//! available in the staged hyper-rectangle (`cal_Cont`) bounds how
//! coalesced each warp-row's access can be; rows per step, steps, and
//! thread blocks scale the per-row count up to the whole launch.
//!
//! Two variants are provided:
//!
//! * [`paper_transaction_cost`] — the literal Algorithm 3 arithmetic, whose
//!   unit is "coalesced row segments";
//! * [`transaction_cost`] — the same structure expressed in aligned
//!   128-byte hardware transactions (what the tracer in `cogent-gpu-sim`
//!   measures), which is what ranking uses.

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};

use crate::config::KernelConfig;
use crate::intern::{ConfigDims, SearchTables};

/// Per-tensor cost split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Estimated transactions to load `A` over the whole launch.
    pub load_a: u128,
    /// Estimated transactions to load `B`.
    pub load_b: u128,
    /// Estimated transactions to store `C`.
    pub store_c: u128,
}

impl CostBreakdown {
    /// Total estimated transactions.
    pub fn total(&self) -> u128 {
        self.load_a + self.load_b + self.store_c
    }
}

/// Estimates the launch-total DRAM transactions of `cfg` in hardware
/// 128-byte units (loads of both inputs plus the output store).
///
/// The contraction must be normalized (output FVI in `A`), as produced by
/// [`Contraction::normalized`]; configurations from
/// [`enumerate_configs`](crate::enumerate::enumerate_configs) already are.
///
/// # Examples
///
/// ```
/// use cogent_core::{cost::transaction_cost, KernelConfig};
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "ij-ik-kj".parse()?;
/// let sizes = SizeMap::uniform(&tc, 256);
/// let cfg = KernelConfig {
///     tbx: vec![("i".into(), 16)],
///     regx: vec![],
///     tby: vec![("j".into(), 16)],
///     regy: vec![],
///     tbk: vec![("k".into(), 8)],
/// };
/// let cost = transaction_cost(&tc, &cfg, &sizes, &GpuDevice::v100(), Precision::F64);
/// assert!(cost.total() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn transaction_cost(
    tc: &Contraction,
    cfg: &KernelConfig,
    sizes: &SizeMap,
    device: &GpuDevice,
    precision: Precision,
) -> CostBreakdown {
    let (tables, dims, tiles) = SearchTables::intern_config(tc, cfg, sizes);
    cogent_obs::counter("cost.model_evaluations", 1);
    transaction_cost_interned(&tables, dims, &tiles, device, precision)
}

/// The literal Algorithm 3 count (unit: coalesced row segments), kept for
/// fidelity tests and comparison against [`transaction_cost`].
pub fn paper_transaction_cost(
    tc: &Contraction,
    cfg: &KernelConfig,
    sizes: &SizeMap,
) -> CostBreakdown {
    let (tables, dims, tiles) = SearchTables::intern_config(tc, cfg, sizes);
    algorithm3(
        &tables,
        dims,
        &tiles,
        row_transactions_paper,
        row_transactions_paper,
    )
}

/// [`transaction_cost`] over interned search state: what the search ranks
/// by. Callers count their evaluations on the `cost.model_evaluations`
/// counter of the enclosing trace span (the search in bulk), so
/// model-vs-trace discrepancies are attributable per generate request.
pub(crate) fn transaction_cost_interned(
    tables: &SearchTables,
    dims: ConfigDims,
    tiles: &[usize],
    device: &GpuDevice,
    precision: Precision,
) -> CostBreakdown {
    let per_row = |row_len, cont| row_transactions_hw(device, precision, row_len, cont);
    algorithm3(tables, dims, tiles, per_row, per_row)
}

/// A lower bound on [`transaction_cost`] for every candidate of one
/// `(TBx, REGx, TBy, REGy)` group: Algorithm 3 over the group's tile row
/// (internal indices at 1) with one TBk row, and each input row counted
/// as its bytes in whole transactions. No internal index enters the
/// output store or the block count, so both are exact. Each input load is
/// at least the bound's: `steps × TBk rows` of any candidate cover every
/// internal extent, which the untiled row's steps equal, and a row costs
/// at least its bytes in whole transactions, however its runs split.
pub(crate) fn group_lower_bound(
    tables: &SearchTables,
    dims: ConfigDims,
    tiles: &[usize],
    device: &GpuDevice,
    precision: Precision,
) -> u128 {
    let load_row = |row_len: usize, _| {
        (row_len * precision.bytes()).div_ceil(device.transaction_bytes) as u128
    };
    let store_row = |row_len, cont| row_transactions_hw(device, precision, row_len, cont);
    let dims = ConfigDims { tbk: 1, ..dims };
    algorithm3(tables, dims, tiles, load_row, store_row).total()
}

/// Algorithm 3 over a candidate's list-size products ([`ConfigDims`]) and
/// flat tile row; `load_row(row_len, cont)` and `store_row(..)` count the
/// transactions of one row of threads reading an input and writing the
/// output. Inputs: per-row count × `TBk` rows × the register multiplier ×
/// steps × blocks; the output: per-row count × `TBy` rows × the register
/// tile × blocks (saturating, in that order).
fn algorithm3(
    tables: &SearchTables,
    dims: ConfigDims,
    tiles: &[usize],
    load_row: impl Fn(usize, usize) -> u128,
    store_row: impl Fn(usize, usize) -> u128,
) -> CostBreakdown {
    let steps = num_steps(tables, tiles);
    let blocks = num_thread_blocks(tables, tiles);
    let rows_k = dims.tbk.max(1) as u128;
    let input = |ids: &[u32], row_len: usize, reg_mult: usize| {
        let cont = contiguous_elements(ids, tables, tiles);
        load_row(row_len, cont)
            .saturating_mul(rows_k)
            .saturating_mul(reg_mult as u128)
            .saturating_mul(steps)
            .saturating_mul(blocks)
    };
    let cont_c = contiguous_elements(&tables.c_ids, tables, tiles);
    let store_c = store_row(dims.tbx, cont_c)
        .saturating_mul(dims.tby.max(1) as u128)
        .saturating_mul((dims.regx * dims.regy) as u128)
        .saturating_mul(blocks);
    CostBreakdown {
        load_a: input(&tables.a_ids, dims.tbx, dims.regx.max(1)),
        load_b: input(&tables.b_ids, dims.tby, dims.regy.max(1)),
        store_c,
    }
}

/// `cal_Cont`: contiguous elements at the start of the staged
/// hyper-rectangle of the tensor whose indices are `ids` — the product of
/// tile sizes of the leading dimensions whose tiles cover the full extent,
/// times the first partial tile.
fn contiguous_elements(ids: &[u32], tables: &SearchTables, tiles: &[usize]) -> usize {
    let mut cont = 1usize;
    for &id in ids {
        let extent = tables.extent(id);
        let tile = tiles[id as usize].min(extent);
        cont *= tile;
        if tile < extent {
            break;
        }
    }
    cont
}

/// Number of thread blocks for the configuration (`cal_Num_TBs`).
pub(crate) fn num_thread_blocks(tables: &SearchTables, tiles: &[usize]) -> u128 {
    tables
        .out_ids
        .iter()
        .map(|&id| {
            let n = tables.extent(id);
            n.div_ceil(tiles[id as usize].min(n)) as u128
        })
        .product()
}

/// Number of serial steps per block (`cal_Steps`).
fn num_steps(tables: &SearchTables, tiles: &[usize]) -> u128 {
    tables
        .int_ids
        .iter()
        .map(|&id| {
            let n = tables.extent(id);
            n.div_ceil(tiles[id as usize].min(n)) as u128
        })
        .product::<u128>()
        .max(1)
}

/// Transactions per "row" of `row_len` threads reading elements whose
/// contiguous runs hold `cont` elements, in hardware 128-byte units.
fn row_transactions_hw(
    device: &GpuDevice,
    precision: Precision,
    row_len: usize,
    cont: usize,
) -> u128 {
    if row_len == 0 {
        return 0;
    }
    let run = cont.min(row_len).max(1);
    let runs = row_len.div_ceil(run) as u128;
    let bytes_per_run = run * precision.bytes();
    runs * bytes_per_run.div_ceil(device.transaction_bytes) as u128
}

/// Literal Algorithm 3: transactions counted as coalesced row segments
/// (`numTransTx = size_TBx / min(size_Cont, size_TBx)`).
fn row_transactions_paper(row_len: usize, cont: usize) -> u128 {
    if row_len == 0 {
        return 0;
    }
    let run = cont.min(row_len).max(1);
    row_len.div_ceil(run) as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul() -> (Contraction, SizeMap) {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 256);
        (tc, sizes)
    }

    fn cfg(ti: usize, tj: usize, tk: usize) -> KernelConfig {
        KernelConfig {
            tbx: vec![("i".into(), ti)],
            regx: vec![],
            tby: vec![("j".into(), tj)],
            regy: vec![],
            tbk: vec![("k".into(), tk)],
        }
    }

    #[test]
    fn contiguous_elements_walks_leading_full_tiles() {
        let (tc, sizes) = matmul();
        let cont_a = |c: &KernelConfig| {
            let (tables, _, tiles) = SearchTables::intern_config(&tc, c, &sizes);
            contiguous_elements(&tables.a_ids, &tables, &tiles)
        };
        // A[i,k]: tile i = 256 is the full extent, so the walk continues
        // into the partial k tile → 256 * 8.
        assert_eq!(cont_a(&cfg(256, 16, 8)), 256 * 8);
        // tile i = 16 < 256 → cont = 16.
        assert_eq!(cont_a(&cfg(16, 16, 8)), 16);
    }

    #[test]
    fn blocks_and_steps() {
        let (tc, sizes) = matmul();
        let (tables, _, tiles) = SearchTables::intern_config(&tc, &cfg(16, 16, 8), &sizes);
        assert_eq!(num_thread_blocks(&tables, &tiles), 16 * 16);
        assert_eq!(num_steps(&tables, &tiles), 32);
    }

    #[test]
    fn larger_k_tile_reduces_total_cost() {
        let (tc, sizes) = matmul();
        let d = GpuDevice::v100();
        // Larger TBk stages more per step but proportionally fewer steps;
        // the input loads stay constant while the model's row count per
        // step scales — total input traffic is invariant, but a larger
        // k-tile improves nothing here. Instead verify reuse: larger TBx/y
        // tiles cut the *other* input's reloads.
        let small = transaction_cost(&tc, &cfg(4, 4, 8), &sizes, &d, Precision::F64);
        let large = transaction_cost(&tc, &cfg(16, 16, 8), &sizes, &d, Precision::F64);
        assert!(large.total() < small.total());
    }

    #[test]
    fn coalesced_fvi_tile_is_cheaper() {
        let (tc, sizes) = matmul();
        let d = GpuDevice::v100();
        // Same thread count; tile along i (the FVI of A and C) of 16 vs a
        // 4-wide FVI tile with the rest on j.
        let coalesced = transaction_cost(&tc, &cfg(16, 16, 8), &sizes, &d, Precision::F64);
        let scattered = transaction_cost(&tc, &cfg(4, 64, 8), &sizes, &d, Precision::F64);
        let per_elem_c = coalesced.total() as f64 / 1.0;
        let per_elem_s = scattered.total() as f64 / 1.0;
        assert!(per_elem_c < per_elem_s);
    }

    #[test]
    fn paper_variant_matches_structure() {
        let (tc, sizes) = matmul();
        let c = cfg(16, 16, 16);
        let p = paper_transaction_cost(&tc, &c, &sizes);
        // A: rows of 16 threads, cont = 16 → 1 segment per row; 16 rows
        // (TBk); 16 steps; 256 blocks → 65536.
        assert_eq!(p.load_a, 65_536);
        assert_eq!(p.load_b, 65_536);
        // C: 16 rows (TBy) × 1 segment × 256 blocks.
        assert_eq!(p.store_c, 4_096);
    }

    #[test]
    fn hw_variant_scales_with_element_size() {
        let (tc, sizes) = matmul();
        let d = GpuDevice::v100();
        let c = cfg(16, 16, 16);
        let f64c = transaction_cost(&tc, &c, &sizes, &d, Precision::F64);
        let f32c = transaction_cost(&tc, &c, &sizes, &d, Precision::F32);
        assert!(f32c.total() <= f64c.total());
    }

    #[test]
    fn register_tiling_reduces_store_row_count() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 64);
        let d = GpuDevice::v100();
        let with_reg = KernelConfig {
            tbx: vec![("a".into(), 16)],
            regx: vec![("b".into(), 4)],
            tby: vec![("c".into(), 16)],
            regy: vec![("d".into(), 4)],
            tbk: vec![("e".into(), 8), ("f".into(), 1)],
        };
        let without = KernelConfig {
            tbx: vec![("a".into(), 16)],
            regx: vec![],
            tby: vec![("c".into(), 16)],
            regy: vec![],
            tbk: vec![("e".into(), 8), ("f".into(), 1)],
        };
        let r = transaction_cost(&tc, &with_reg, &sizes, &d, Precision::F64);
        let n = transaction_cost(&tc, &without, &sizes, &d, Precision::F64);
        // Register tiling amortizes input loads over 16 outputs per
        // thread; per launch the input traffic must be lower.
        assert!(r.load_a + r.load_b < n.load_a + n.load_b);
    }

    #[test]
    fn model_cost_correlates_with_simulated_traffic() {
        use crate::select::{search, SearchOptions};

        // The cost model predicts DRAM transactions; the tracer measures
        // them. Ranking by one should broadly agree with the other:
        // check rank correlation is positive over the top candidates.
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32);
        let device = GpuDevice::v100();
        let outcome = search(
            &tc,
            &sizes,
            &device,
            Precision::F64,
            &SearchOptions::default(),
        );
        let take = outcome.ranked.len().min(8);
        let mut pairs: Vec<(u128, u128)> = Vec::new();
        for r in outcome.ranked.iter().take(take) {
            let plan = r.config.lower(&outcome.contraction, &sizes).unwrap();
            let sim = cogent_gpu_sim::simulate(&plan, &device, Precision::F64);
            pairs.push((r.cost.total(), sim.trace.total()));
        }
        // Count concordant vs discordant pairs (Kendall-style).
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..pairs.len() {
            for j in i + 1..pairs.len() {
                let dm = pairs[i].0.cmp(&pairs[j].0);
                let ds = pairs[i].1.cmp(&pairs[j].1);
                if dm == ds {
                    concordant += 1;
                } else if dm != std::cmp::Ordering::Equal && ds != std::cmp::Ordering::Equal {
                    discordant += 1;
                }
            }
        }
        assert!(
            concordant >= discordant,
            "model and tracer disagree: {concordant} vs {discordant}"
        );
    }

    #[test]
    fn group_bound_never_exceeds_a_candidates_cost() {
        use crate::enumerate::{enumerate_interned, EnumerationBudget, EnumerationOptions};
        use Precision::{F32, F64};

        for entry in cogent_tccg::suite() {
            let norm = entry.contraction().normalized();
            let sizes = entry.sizes().scaled_down(16);
            let options = EnumerationOptions::default();
            let en = enumerate_interned(&norm, &sizes, &options, &EnumerationBudget::unlimited());
            let mut row = vec![1; en.tables.num_indices()];
            let devices = [GpuDevice::v100(), GpuDevice::p100()];
            for (device, precision) in devices.iter().flat_map(|d| [(d, F64), (d, F32)]) {
                for group in &en.groups {
                    en.compiled.fill_group(group.menus, &mut row);
                    let dims = en.compiled.dims(group.choice(0));
                    let bound = group_lower_bound(&en.tables, dims, &row, device, precision);
                    for cfg in (0..group.tbk).map(|k| en.menus.materialize(group.choice(k))) {
                        let cost = transaction_cost(&norm, &cfg, &sizes, device, precision);
                        assert!(bound <= cost.total(), "{}: {cfg} {bound}", entry.name);
                    }
                }
            }
        }
    }

    #[test]
    fn cost_zero_free_dims() {
        // Degenerate row length guard.
        assert_eq!(row_transactions_paper(0, 4), 0);
        assert_eq!(
            row_transactions_hw(&GpuDevice::v100(), Precision::F64, 0, 4),
            0
        );
    }
}
