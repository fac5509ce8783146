//! Warp-level global-memory address tracing.
//!
//! The paper's cost model *estimates* the number of 128-byte DRAM
//! transactions analytically (Algorithm 3). This module *measures* that
//! quantity for a [`KernelPlan`] by enumerating the addresses every warp
//! touches — loads of the `A`/`B` tiles and stores of the output register
//! tiles — and counting distinct aligned 128-byte segments per warp-wide
//! access, exactly as the hardware coalescer does.
//!
//! Tracing every block of a large grid would be wasteful: interior blocks
//! all behave identically. [`TraceOptions`] controls how many blocks and
//! serial steps are sampled (evenly spaced, always including the first);
//! totals are extrapolated from the sample means.

use cogent_gpu_model::{GpuDevice, Precision};

use crate::access::TensorAccess;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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

/// Counts the aligned 128-byte segments touched by a warp given the byte
/// addresses of its active lanes.
fn segments(device: &GpuDevice, addrs: &mut Vec<usize>) -> usize {
    if addrs.is_empty() {
        return 0;
    }
    let tb = device.transaction_bytes;
    addrs.sort_unstable();
    let mut count = 1;
    let mut current = addrs[0] / tb;
    for &a in addrs.iter().skip(1) {
        let seg = a / tb;
        if seg != current {
            count += 1;
            current = seg;
        }
    }
    addrs.clear();
    count
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
    let acc_c = TensorAccess::new(plan, tc.c());

    let num_blocks = plan.num_blocks();
    let steps = plan.steps();
    let blocks = sample_indices(num_blocks, options.max_block_samples);
    let step_samples = sample_indices(steps, options.max_step_samples);

    let mut base = vec![0usize; plan.bindings().len()];
    let mut load_a_sum = 0u128;
    let mut load_b_sum = 0u128;
    let mut store_c_sum = 0u128;
    let mut guards = GuardCounters::default();

    for &block in &blocks {
        plan.block_base_offsets(block, &mut base);
        for &step in &step_samples {
            plan.step_base_offsets(step, &mut base);
            load_a_sum += trace_tile_load(plan, device, precision, &acc_a, &base, &mut guards);
            load_b_sum += trace_tile_load(plan, device, precision, &acc_b, &base, &mut guards);
        }
        store_c_sum += trace_store(plan, device, precision, &acc_c, &base, &mut guards);
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
fn trace_tile_load(
    plan: &KernelPlan,
    device: &GpuDevice,
    precision: Precision,
    acc: &TensorAccess,
    base: &[usize],
    guards: &mut GuardCounters,
) -> u128 {
    let threads = plan.threads_per_block();
    let warp = device.warp_size;
    let elem_bytes = precision.bytes();
    let tile_elems = acc.tile_elems;
    let mut total = 0u128;
    let mut addrs: Vec<usize> = Vec::with_capacity(warp);

    let rounds = tile_elems.div_ceil(threads);
    for r in 0..rounds {
        let round_base = r * threads;
        let active = threads.min(tile_elems - round_base);
        for warp_start in (0..active).step_by(warp) {
            let lanes = warp.min(active - warp_start);
            for lane in 0..lanes {
                let e = round_base + warp_start + lane;
                // Decompose tile-linear e into per-dim in-tile coords.
                let mut rem = e;
                let mut off = 0usize;
                let mut in_bounds = true;
                for d in &acc.dims {
                    let c = rem % d.tile;
                    rem /= d.tile;
                    let g = base[d.binding] + c;
                    if g >= d.extent {
                        in_bounds = false;
                        break;
                    }
                    off += g * d.global_stride;
                }
                if in_bounds {
                    addrs.push(off * elem_bytes);
                }
            }
            guards.record(lanes, addrs.len());
            total += segments(device, &mut addrs) as u128;
        }
    }
    total
}

/// Transactions for the output store: one warp-wide store per register
/// slot `(rx, ry)` per warp.
fn trace_store(
    plan: &KernelPlan,
    device: &GpuDevice,
    precision: Precision,
    acc_c: &TensorAccess,
    base: &[usize],
    guards: &mut GuardCounters,
) -> u128 {
    let tbx = plan.group_size(MapDim::ThreadX);
    let tby = plan.group_size(MapDim::ThreadY);
    let regx = plan.group_size(MapDim::RegX);
    let regy = plan.group_size(MapDim::RegY);
    let threads = tbx * tby;
    let warp = device.warp_size;
    let elem_bytes = precision.bytes();
    let mut total = 0u128;
    let mut addrs: Vec<usize> = Vec::with_capacity(warp);
    let tables = crate::access::output_coord_tables(plan, acc_c);

    for ry in 0..regy {
        for rx in 0..regx {
            for warp_start in (0..threads).step_by(warp) {
                let lanes = warp.min(threads - warp_start);
                for lane in 0..lanes {
                    let t = warp_start + lane;
                    let (tx, ty) = (t % tbx, t / tbx);
                    let mut off = 0usize;
                    let mut in_bounds = true;
                    for (d, table) in acc_c.dims.iter().zip(&tables) {
                        let crate::access::CoordSource::Group(dim, _) = d.source;
                        let lin = match dim {
                            MapDim::ThreadX => tx,
                            MapDim::ThreadY => ty,
                            MapDim::RegX => rx,
                            MapDim::RegY => ry,
                            MapDim::Grid => 0,
                            MapDim::SerialK => unreachable!("C has no internal index"),
                        };
                        let g = base[d.binding] + table[lin];
                        if g >= d.extent {
                            in_bounds = false;
                            break;
                        }
                        off += g * d.global_stride;
                    }
                    if in_bounds {
                        addrs.push(off * elem_bytes);
                    }
                }
                guards.record(lanes, addrs.len());
                total += segments(device, &mut addrs) as u128;
            }
        }
    }
    total
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
