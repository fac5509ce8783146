//! Warp-level global-memory address tracing.
//!
//! The paper's cost model *estimates* the number of 128-byte DRAM
//! transactions analytically (Algorithm 3). This module *measures* that
//! quantity for a [`KernelPlan`] by walking the addresses every warp
//! touches — loads of the `A`/`B` tiles and stores of the output register
//! tiles — and counting distinct aligned 128-byte segments per warp-wide
//! access, exactly as the hardware coalescer does.
//!
//! Neither walk splits a lane's address into coordinates or sorts a
//! warp's addresses per access:
//!
//! * **Tile loads** read a staged tile in tile-linear order, which is the
//!   tensor's own storage order, so a warp's in-bounds addresses already
//!   increase strictly. The tile is walked as rows along its stride-1
//!   dimension (an odometer steps the others); where a row meets a warp
//!   its in-bounds part is one contiguous interval, whose segments follow
//!   from its two ends.
//! * **Output stores**: every dimension of `C` takes its in-tile
//!   coordinate from exactly one hardware dimension, so a lane's offset is
//!   `X[tx] + Y[ty] + RX[rx] + RY[ry]` plus the block's grid offset, from
//!   per-block tables with out-of-bounds entries marked. Each warp's
//!   `(tx, ty)` pattern is sorted and merged into contiguous runs once;
//!   every register slot shifts it by a constant, which keeps it sorted.
//!
//! Tracing every block of a large grid would be wasteful: interior blocks
//! all behave identically. [`TraceOptions`] controls how many blocks and
//! serial steps are sampled (evenly spaced, always including the first);
//! totals are extrapolated from the sample means.

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::TensorRef;

use crate::plan::{KernelPlan, MapDim};

/// Sampling controls for the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Maximum thread blocks to trace (evenly spaced over the grid).
    pub max_block_samples: usize,
    /// Maximum serial steps to trace per block (evenly spaced).
    pub max_step_samples: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            max_block_samples: 8,
            max_step_samples: 4,
        }
    }
}

impl TraceOptions {
    /// Trace every block and every step (exact counts).
    pub fn exhaustive() -> Self {
        Self {
            max_block_samples: usize::MAX,
            max_step_samples: usize::MAX,
        }
    }
}

/// Traced DRAM transaction counts for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceReport {
    /// Transactions loading tiles of `A` (whole launch).
    pub load_a: u128,
    /// Transactions loading tiles of `B` (whole launch).
    pub load_b: u128,
    /// Transactions storing the output (whole launch).
    pub store_c: u128,
}

impl TraceReport {
    /// Total transactions.
    pub fn total(&self) -> u128 {
        self.load_a + self.load_b + self.store_c
    }

    /// Total bytes moved, given the device's transaction size.
    pub fn bytes(&self, device: &GpuDevice) -> u128 {
        self.total() * device.transaction_bytes as u128
    }
}

/// Tail-guard and divergence statistics accumulated over the sampled
/// warp accesses (not extrapolated to the full launch).
#[derive(Debug, Default, Clone, Copy)]
struct GuardCounters {
    /// Warp-wide accesses inspected.
    warp_accesses: u128,
    /// Accesses where at least one lane was masked off by a bounds guard
    /// (the partial-tile "tail" of a ragged extent) — divergent warps.
    divergent_warps: u128,
    /// Individual lanes masked off across all accesses.
    oob_lane_skips: u128,
}

impl GuardCounters {
    fn record(&mut self, lanes: usize, active: usize) {
        self.warp_accesses += 1;
        if active < lanes {
            self.divergent_warps += 1;
            self.oob_lane_skips += (lanes - active) as u128;
        }
    }
}

/// Evenly-spaced sample of `take` values from `0..n` (always non-empty,
/// always starts at 0).
fn sample_indices(n: usize, take: usize) -> Vec<usize> {
    let take = take.clamp(1, n.max(1));
    (0..take).map(|i| i * n / take).collect()
}

/// One dimension of a tensor under a plan.
#[derive(Debug, Clone)]
struct DimSpec {
    /// Index into `plan.bindings()`.
    binding: usize,
    extent: usize,
    tile: usize,
    /// Stride of this dimension in the tensor's global layout.
    global_stride: usize,
    /// The hardware dimension whose decomposition supplies the in-tile
    /// coordinate, and this dimension's position in its group (0 =
    /// fastest).
    group: (MapDim, usize),
}

/// How one tensor is addressed under a plan: its dimensions in the
/// tensor's own storage order (fastest first).
struct TensorAccess {
    dims: Vec<DimSpec>,
    tile_elems: usize,
}

impl TensorAccess {
    /// Panics when the plan does not bind one of `tensor`'s indices.
    fn new(plan: &KernelPlan, tensor: &TensorRef) -> Self {
        let mut dims = Vec::with_capacity(tensor.rank());
        let mut global_stride = 1usize;
        let mut tile_elems = 1usize;
        for idx in tensor.indices() {
            let (b_pos, binding) = plan
                .bindings()
                .iter()
                .enumerate()
                .find(|(_, b)| &b.name == idx)
                .unwrap_or_else(|| panic!("plan has no binding for index {idx}"));
            let group_pos = plan
                .group_bindings(binding.dim)
                .take_while(|b| b.name != binding.name)
                .count();
            dims.push(DimSpec {
                binding: b_pos,
                extent: binding.extent,
                tile: binding.tile,
                global_stride,
                group: (binding.dim, group_pos),
            });
            global_stride *= binding.extent;
            tile_elems *= binding.tile;
        }
        Self { dims, tile_elems }
    }
}

/// The warp geometry of one traced launch.
struct WarpShape {
    threads: usize,
    warp: usize,
    elem_bytes: usize,
    segment_bytes: usize,
}

/// Aligned segments touched by one warp access whose in-bounds byte
/// addresses arrive in increasing order, as intervals `[first, last]`.
/// Divides only when an interval opens a new segment.
#[derive(Default)]
struct Segments {
    count: usize,
    /// Index of the first segment past those counted.
    next: usize,
}

impl Segments {
    fn add(&mut self, first: usize, last: usize, segment_bytes: usize) {
        let end = self.next * segment_bytes;
        if last < end {
            return;
        }
        let from = if first < end {
            self.next
        } else {
            first / segment_bytes
        };
        self.next = last / segment_bytes + 1;
        self.count += self.next - from;
    }
}

/// A mixed-radix walk over the in-tile coordinates of some dimensions
/// (radix = tile, first dimension fastest) that keeps the element offset
/// and the number of out-of-bounds coordinates up to date as it steps.
#[derive(Default)]
struct Odometer {
    coords: Vec<usize>,
    offset: usize,
    out_of_bounds: usize,
}

impl Odometer {
    /// Rewinds to in-tile coordinate 0 everywhere. A block's or step's
    /// base is always inside the extent, so every coordinate starts in
    /// bounds.
    fn reset(&mut self, dims: &[DimSpec], base: &[usize]) {
        self.coords.clear();
        self.coords.resize(dims.len(), 0);
        self.offset = dims.iter().map(|d| base[d.binding] * d.global_stride).sum();
        self.out_of_bounds = 0;
    }

    fn advance(&mut self, dims: &[DimSpec], base: &[usize]) {
        for (d, c) in dims.iter().zip(&mut self.coords) {
            let limit = d.extent - base[d.binding];
            *c += 1;
            self.offset += d.global_stride;
            if *c < d.tile {
                self.out_of_bounds += usize::from(*c == limit);
                return;
            }
            *c = 0;
            self.offset -= d.tile * d.global_stride;
            self.out_of_bounds -= usize::from(limit < d.tile);
        }
    }
}

/// Traces the DRAM transactions of `plan` on `device` at the given
/// precision.
///
/// # Examples
///
/// ```
/// use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
/// use cogent_gpu_sim::trace::{trace_transactions, TraceOptions};
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_ir::Contraction;
///
/// let tc: Contraction = "ij-ik-kj".parse()?;
/// let plan = KernelPlan::new(&tc, vec![
///     IndexBinding::new("i", 64, 16, MapDim::ThreadX),
///     IndexBinding::new("j", 64, 16, MapDim::ThreadY),
///     IndexBinding::new("k", 64, 8, MapDim::SerialK),
/// ])?;
/// let report = trace_transactions(
///     &plan, &GpuDevice::v100(), Precision::F64, TraceOptions::exhaustive());
/// assert!(report.total() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn trace_transactions(
    plan: &KernelPlan,
    device: &GpuDevice,
    precision: Precision,
    options: TraceOptions,
) -> TraceReport {
    let tc = plan.contraction();
    let acc_a = TensorAccess::new(plan, tc.a());
    let acc_b = TensorAccess::new(plan, tc.b());
    let mut store = StoreTracer::new(&TensorAccess::new(plan, tc.c()));
    let shape = WarpShape {
        threads: plan.threads_per_block(),
        warp: device.warp_size,
        elem_bytes: precision.bytes(),
        segment_bytes: device.transaction_bytes,
    };

    let num_blocks = plan.num_blocks();
    let steps = plan.steps();
    let blocks = sample_indices(num_blocks, options.max_block_samples);
    let step_samples = sample_indices(steps, options.max_step_samples);

    let mut base = vec![0usize; plan.bindings().len()];
    let mut rows = Odometer::default();
    let mut load_a_sum = 0u128;
    let mut load_b_sum = 0u128;
    let mut store_c_sum = 0u128;
    let mut guards = GuardCounters::default();

    for &block in &blocks {
        plan.block_base_offsets(block, &mut base);
        for &step in &step_samples {
            plan.step_base_offsets(step, &mut base);
            load_a_sum += trace_tile_load(&shape, &acc_a, &base, &mut rows, &mut guards);
            load_b_sum += trace_tile_load(&shape, &acc_b, &base, &mut rows, &mut guards);
        }
        store_c_sum += store.trace(&shape, &base, &mut guards);
    }

    // Sample-scope statistics (no extrapolation): how much the bounds
    // guards actually masked, and how divergent the warps were.
    cogent_obs::counter("trace.sampled.warp_accesses", guards.warp_accesses);
    cogent_obs::counter("trace.sampled.divergent_warps", guards.divergent_warps);
    cogent_obs::counter("trace.sampled.oob_lane_skips", guards.oob_lane_skips);
    cogent_obs::counter("trace.sampled.blocks", blocks.len() as u128);
    cogent_obs::counter("trace.sampled.steps", step_samples.len() as u128);

    let scale_blocks = num_blocks as u128;
    let nb = blocks.len() as u128;
    let ns = step_samples.len() as u128;
    // Accumulating stores (C += ...) read each output element before
    // writing it: double the output traffic.
    let store_factor = match plan.store_mode() {
        crate::plan::StoreMode::Assign => 1,
        crate::plan::StoreMode::Accumulate => 2,
    };
    TraceReport {
        load_a: load_a_sum * scale_blocks * steps as u128 / (nb * ns),
        load_b: load_b_sum * scale_blocks * steps as u128 / (nb * ns),
        store_c: store_c_sum * scale_blocks * store_factor / nb,
    }
}

/// Transactions for loading one staged tile: `threads` linear threads
/// cooperatively read `tile_elems` elements in tile-linear order, one
/// element per thread per round (the emitted kernel's cooperative-load
/// loop).
///
/// The tile is walked once, row by row along its stride-1 dimension, with
/// `rows` stepping the other dimensions. Each piece of a row inside one
/// warp is a contiguous run of addresses, clipped to the row's in-bounds
/// prefix.
fn trace_tile_load(
    shape: &WarpShape,
    acc: &TensorAccess,
    base: &[usize],
    rows: &mut Odometer,
    guards: &mut GuardCounters,
) -> u128 {
    let Some((row_dim, outer)) = acc.dims.split_first() else {
        return 0;
    };
    let row_len = row_dim.tile;
    let row_base = base[row_dim.binding];
    let row_valid = row_len.min(row_dim.extent - row_base);
    let eb = shape.elem_bytes;
    rows.reset(outer, base);
    // Tile-linear index of the current row's first element.
    let mut row_start = 0;
    let mut total = 0u128;

    for round_base in (0..acc.tile_elems).step_by(shape.threads) {
        let round_end = acc.tile_elems.min(round_base + shape.threads);
        for warp_start in (round_base..round_end).step_by(shape.warp) {
            let warp_end = round_end.min(warp_start + shape.warp);
            let mut segments = Segments::default();
            let mut active = 0;
            let mut e = warp_start;
            while e < warp_end {
                // This warp covers row positions `lo..hi` of the current row.
                let lo = e - row_start;
                let hi = row_len.min(warp_end - row_start);
                let valid_hi = hi.min(row_valid);
                if rows.out_of_bounds == 0 && lo < valid_hi {
                    let first = rows.offset + row_base + lo;
                    let last = first + valid_hi - lo - 1;
                    segments.add(first * eb, last * eb, shape.segment_bytes);
                    active += valid_hi - lo;
                }
                e = row_start + hi;
                if hi == row_len {
                    row_start += row_len;
                    rows.advance(outer, base);
                }
            }
            guards.record(warp_end - warp_start, active);
            total += segments.count as u128;
        }
    }
    total
}

/// The hardware dimensions that can supply an output coordinate.
const STORE_DIMS: [MapDim; 5] = [
    MapDim::ThreadX,
    MapDim::ThreadY,
    MapDim::RegX,
    MapDim::RegY,
    MapDim::Grid,
];

/// Traces the output store from per-block offset tables, one per
/// hardware dimension: `tables[h][lin]` is the part of a `C` element's
/// byte offset contributed by the dimensions whose coordinate hardware
/// dimension `h` supplies at linear position `lin`, or `None` when one of
/// them falls outside its extent.
struct StoreTracer {
    /// `C`'s dimensions grouped by [`STORE_DIMS`], in group order.
    groups: [Vec<DimSpec>; 5],
    tables: [Vec<Option<usize>>; 5],
    odometer: Odometer,
    /// One warp's in-bounds `(tx, ty)` byte offsets, sorted and merged
    /// into runs of adjacent elements `(first, last)`.
    pattern: Vec<(usize, usize)>,
}

impl StoreTracer {
    fn new(acc_c: &TensorAccess) -> Self {
        let mut dims = acc_c.dims.clone();
        dims.sort_by_key(|d| d.group.1);
        let groups = STORE_DIMS.map(|h| dims.iter().filter(|d| d.group.0 == h).cloned().collect());
        Self {
            groups,
            tables: Default::default(),
            odometer: Odometer::default(),
            pattern: Vec::new(),
        }
    }

    /// Transactions for the output store of the block at `base`: one
    /// warp-wide store per register slot `(rx, ry)` per warp.
    fn trace(&mut self, shape: &WarpShape, base: &[usize], guards: &mut GuardCounters) -> u128 {
        let eb = shape.elem_bytes;
        for (dims, table) in self.groups.iter().zip(&mut self.tables) {
            let size: usize = dims.iter().map(|d| d.tile).product();
            table.clear();
            self.odometer.reset(dims, base);
            for _ in 0..size {
                let odo = &self.odometer;
                table.push((odo.out_of_bounds == 0).then_some(odo.offset * eb));
                self.odometer.advance(dims, base);
            }
        }
        let [tx_table, ty_table, rx_table, ry_table, grid] = &self.tables;
        let tbx = tx_table.len();
        let (mut tx, mut ty) = (0, 0);
        let mut total = 0u128;
        for warp_start in (0..shape.threads).step_by(shape.warp) {
            let lanes = shape.warp.min(shape.threads - warp_start);
            self.pattern.clear();
            for _ in 0..lanes {
                if let (Some(x), Some(y)) = (tx_table[tx], ty_table[ty]) {
                    self.pattern.push((x + y, x + y));
                }
                tx += 1;
                if tx == tbx {
                    tx = 0;
                    ty += 1;
                }
            }
            let active = self.pattern.len();
            self.pattern.sort_unstable();
            self.pattern.dedup_by(|next, run| {
                let adjacent = next.0 == run.1 + eb;
                if adjacent {
                    run.1 = next.1;
                }
                adjacent
            });
            for ry in ry_table {
                for rx in rx_table {
                    let (Some(g), Some(x), Some(y)) = (grid[0], rx, ry) else {
                        guards.record(lanes, 0);
                        continue;
                    };
                    guards.record(lanes, active);
                    let slot = g + x + y;
                    let mut segments = Segments::default();
                    for &(first, last) in &self.pattern {
                        segments.add(first + slot, last + slot, shape.segment_bytes);
                    }
                    total += segments.count as u128;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IndexBinding;
    use cogent_ir::Contraction;

    fn v100() -> GpuDevice {
        GpuDevice::v100()
    }

    fn matmul_plan(ti: usize, tj: usize, tk: usize) -> KernelPlan {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 64, ti, MapDim::ThreadX),
                IndexBinding::new("j", 64, tj, MapDim::ThreadY),
                IndexBinding::new("k", 64, tk, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    #[test]
    fn coalesced_matmul_counts() {
        // 16×16 threads; A tile 16×16 elements contiguous along i (extent
        // 64 → runs of 16 doubles = 128 B exactly per 16 lanes).
        let plan = matmul_plan(16, 16, 16);
        let r = trace_transactions(&plan, &v100(), Precision::F64, TraceOptions::exhaustive());
        // A tile: 256 elements / 256 threads = 1 round; each warp covers 2
        // columns of 16 contiguous doubles. A 16-double run = 128 B but can
        // straddle at most one boundary only if misaligned; i-runs start at
        // multiples of 16 elements → aligned. 2 segments per warp, 8 warps
        // = 16 transactions per step; 4 steps per block; 16 blocks.
        assert_eq!(r.load_a, 16 * 4 * 16);
        // B tile: 16(k)×16(j); k is B's FVI with tile 16 → same structure.
        assert_eq!(r.load_b, 16 * 4 * 16);
        // Store: 1 reg slot; 8 warps each covering 2 columns of C → 2
        // segments per warp; 16 blocks.
        assert_eq!(r.store_c, 16 * 8 * 2);
        assert_eq!(r.total(), r.load_a + r.load_b + r.store_c);
    }

    #[test]
    fn uncoalesced_access_costs_more() {
        // Tiny tiles along the FVI → short runs → more transactions for
        // the same data volume.
        let coalesced = trace_transactions(
            &matmul_plan(16, 16, 16),
            &v100(),
            Precision::F64,
            TraceOptions::exhaustive(),
        );
        let scattered = trace_transactions(
            &matmul_plan(4, 4, 16),
            &v100(),
            Precision::F64,
            TraceOptions::exhaustive(),
        );
        // Normalize per useful element: same total data, more transactions.
        assert!(scattered.total() > coalesced.total());
    }

    #[test]
    fn sampling_matches_exhaustive_on_uniform_grid() {
        let plan = matmul_plan(16, 16, 8);
        let exact = trace_transactions(&plan, &v100(), Precision::F64, TraceOptions::exhaustive());
        let sampled = trace_transactions(&plan, &v100(), Precision::F64, TraceOptions::default());
        assert_eq!(exact, sampled);
    }

    #[test]
    fn f32_halves_transactions_for_same_elements() {
        let plan = matmul_plan(16, 16, 16);
        let f64t = trace_transactions(&plan, &v100(), Precision::F64, TraceOptions::exhaustive());
        let f32t = trace_transactions(&plan, &v100(), Precision::F32, TraceOptions::exhaustive());
        assert!(f32t.total() <= f64t.total());
        assert!(f32t.total() >= f64t.total() / 2);
    }

    #[test]
    fn ragged_edges_do_not_overcount() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 60, 16, MapDim::ThreadX),
                IndexBinding::new("j", 60, 16, MapDim::ThreadY),
                IndexBinding::new("k", 60, 16, MapDim::SerialK),
            ],
        )
        .unwrap();
        let r = trace_transactions(&plan, &v100(), Precision::F64, TraceOptions::exhaustive());
        // A 60-extent tensor is not 128-byte aligned per run, so each
        // 16-double run may straddle a transaction boundary: the count can
        // exceed the aligned padded 64^3 case, but never by more than 2×.
        let padded = trace_transactions(
            &matmul_plan(16, 16, 16),
            &v100(),
            Precision::F64,
            TraceOptions::exhaustive(),
        );
        assert!(r.total() > 0);
        assert!(r.total() <= 2 * padded.total());
    }

    #[test]
    fn bytes_uses_transaction_size() {
        let plan = matmul_plan(16, 16, 16);
        let r = trace_transactions(&plan, &v100(), Precision::F64, TraceOptions::exhaustive());
        assert_eq!(r.bytes(&v100()), r.total() * 128);
    }

    #[test]
    fn sample_indices_cover_range() {
        assert_eq!(sample_indices(10, 3), vec![0, 3, 6]);
        assert_eq!(sample_indices(2, 8), vec![0, 1]);
        assert_eq!(sample_indices(1, 1), vec![0]);
    }
}
