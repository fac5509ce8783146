//! Shared-memory bank-conflict analysis.
//!
//! The paper's cost model only prices DRAM traffic; shared-memory bank
//! conflicts are a second-order effect the generated kernels can still
//! suffer from (e.g. when the register-tile stride hits a multiple of the
//! bank count). This module measures them so a user can diagnose a
//! configuration: for every warp-wide shared-memory read in the compute
//! phase (the `r_A`/`r_B` loads of Algorithm 1), it computes the conflict
//! degree — the maximum number of lanes addressing *different* words in
//! the same bank, i.e. the serialization factor of that access.
//!
//! The result is diagnostic: it is reported alongside the simulation but
//! deliberately not folded into the calibrated time model.

use cogent_gpu_model::{GpuDevice, Precision};

use crate::access::TensorAccess;
use crate::plan::{KernelPlan, MapDim};

/// Number of shared-memory banks on all modeled devices.
const BANKS: usize = 32;

/// Bank-conflict statistics for one kernel plan.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BankConflictReport {
    /// Average serialization factor of the `r_A` loads (1.0 = conflict
    /// free; 2.0 = every access replays once; ...).
    pub a_load_factor: f64,
    /// Average serialization factor of the `r_B` loads.
    pub b_load_factor: f64,
}

impl BankConflictReport {
    /// Worst of the two factors.
    pub fn worst(&self) -> f64 {
        self.a_load_factor.max(self.b_load_factor)
    }

    /// Whether the plan is conflict-free (broadcasts do not count as
    /// conflicts).
    pub fn is_conflict_free(&self) -> bool {
        self.worst() <= 1.0 + 1e-9
    }
}

/// Serialization factor of one warp access given each active lane's word
/// address: lanes reading the *same* word broadcast (no conflict); lanes
/// reading different words in the same bank serialize.
fn conflict_degree(addresses: &[usize]) -> usize {
    let mut per_bank: [Vec<usize>; BANKS] = std::array::from_fn(|_| Vec::new());
    for &w in addresses {
        let bank = w % BANKS;
        if !per_bank[bank].contains(&w) {
            per_bank[bank].push(w);
        }
    }
    per_bank.iter().map(Vec::len).max().unwrap_or(1).max(1)
}

/// Analyzes the shared-memory access pattern of the compute phase.
///
/// # Examples
///
/// ```
/// use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
/// use cogent_gpu_sim::smem::analyze_bank_conflicts;
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_ir::Contraction;
///
/// let tc: Contraction = "ij-ik-kj".parse()?;
/// let plan = KernelPlan::new(&tc, vec![
///     IndexBinding::new("i", 64, 16, MapDim::ThreadX),
///     IndexBinding::new("j", 64, 16, MapDim::ThreadY),
///     IndexBinding::new("k", 64, 8, MapDim::SerialK),
/// ])?;
/// let r = analyze_bank_conflicts(&plan, &GpuDevice::v100(), Precision::F64);
/// assert!(r.a_load_factor >= 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_bank_conflicts(
    plan: &KernelPlan,
    device: &GpuDevice,
    precision: Precision,
) -> BankConflictReport {
    let tc = plan.contraction();
    let acc_a = TensorAccess::new(plan, tc.a());
    let acc_b = TensorAccess::new(plan, tc.b());

    let tbx = plan.group_size(MapDim::ThreadX);
    let tby = plan.group_size(MapDim::ThreadY);
    let threads = tbx * tby;
    let warp = device.warp_size;
    // Bank position is computed at *element* granularity: for f32 an
    // element is one 4-byte bank word; for f64 the hardware splits each
    // 8-byte access into two half-warp phases, which makes consecutive
    // doubles span all banks exactly once — equivalent to 8-byte banks.
    let _ = precision;

    let a_tx = acc_a.tile_offset_table(plan, MapDim::ThreadX);
    let a_rx = acc_a.tile_offset_table(plan, MapDim::RegX);
    let a_k = acc_a.tile_offset_table(plan, MapDim::SerialK);
    let b_ty = acc_b.tile_offset_table(plan, MapDim::ThreadY);
    let b_ry = acc_b.tile_offset_table(plan, MapDim::RegY);
    let b_k = acc_b.tile_offset_table(plan, MapDim::SerialK);

    // Sample the first k iteration and the first register slot: the bank
    // pattern repeats across j/rx with constant offsets, so the conflict
    // structure is representative.
    let mut a_total = 0usize;
    let mut b_total = 0usize;
    let mut accesses = 0usize;
    let mut addrs = Vec::with_capacity(warp);
    for warp_start in (0..threads).step_by(warp) {
        let lanes = warp.min(threads - warp_start);
        // r_A load: offset depends on tx (and rx, j fixed at 0).
        addrs.clear();
        for lane in 0..lanes {
            let t = warp_start + lane;
            let (tx, _ty) = (t % tbx.max(1), t / tbx.max(1));
            addrs.push(a_tx[tx] + a_rx[0] + a_k[0]);
        }
        a_total += conflict_degree(&addrs);
        // r_B load: offset depends on ty.
        addrs.clear();
        for lane in 0..lanes {
            let t = warp_start + lane;
            let ty = t / tbx.max(1);
            addrs.push(b_ty[ty] + b_ry[0] + b_k[0]);
        }
        b_total += conflict_degree(&addrs);
        accesses += 1;
    }

    let n = accesses.max(1) as f64;
    BankConflictReport {
        a_load_factor: a_total as f64 / n,
        b_load_factor: b_total as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IndexBinding;
    use cogent_ir::Contraction;

    fn matmul_plan(ti: usize, tj: usize) -> KernelPlan {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 64, ti, MapDim::ThreadX),
                IndexBinding::new("j", 64, tj, MapDim::ThreadY),
                IndexBinding::new("k", 64, 8, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    #[test]
    fn contiguous_tx_access_is_conflict_free() {
        // r_A[tx] walks consecutive smem elements within a warp's tx span:
        // conflict-free for f64 too (two-phase 64-bit access).
        let r = analyze_bank_conflicts(&matmul_plan(16, 16), &GpuDevice::v100(), Precision::F64);
        assert!(r.is_conflict_free(), "{r:?}");
        let r32 = analyze_bank_conflicts(&matmul_plan(32, 8), &GpuDevice::v100(), Precision::F64);
        assert!(r32.is_conflict_free(), "{r32:?}");
    }

    #[test]
    fn broadcast_access_has_no_conflict() {
        // r_B depends only on ty: all lanes of a warp with the same ty
        // read the SAME word → broadcast.
        let r = analyze_bank_conflicts(&matmul_plan(32, 8), &GpuDevice::v100(), Precision::F64);
        assert!((r.b_load_factor - 1.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn strided_access_conflicts() {
        // tx span of 2 with f32: within a warp, ty varies 16 times, each
        // mapping to the same two words → heavy broadcast, no conflict;
        // compare against a pattern engineered to stride by 32 words:
        // a 4D case where the A-tile stride of the tx index is 32 elems.
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                // A = [a,e,b,f]: tx index b has tile-stride T_a*T_e = 32
                // f32 words × ... engineered conflict.
                IndexBinding::new("a", 64, 8, MapDim::RegX),
                IndexBinding::new("b", 64, 32, MapDim::ThreadX),
                IndexBinding::new("c", 64, 8, MapDim::ThreadY),
                IndexBinding::new("d", 64, 1, MapDim::Grid),
                IndexBinding::new("e", 64, 4, MapDim::SerialK),
                IndexBinding::new("f", 64, 1, MapDim::SerialK),
            ],
        )
        .unwrap();
        // b's tile stride in A's tile = T_a * T_e = 32 elements → every
        // tx lane hits bank (32*tx)%32 = 0: 32-way conflict.
        let r = analyze_bank_conflicts(&plan, &GpuDevice::v100(), Precision::F32);
        assert!(r.a_load_factor > 8.0, "{r:?}");
    }

    #[test]
    fn report_helpers() {
        let r = BankConflictReport {
            a_load_factor: 1.0,
            b_load_factor: 1.0,
        };
        assert!(r.is_conflict_free());
        assert_eq!(r.worst(), 1.0);
        let r2 = BankConflictReport {
            a_load_factor: 4.0,
            b_load_factor: 1.0,
        };
        assert!(!r2.is_conflict_free());
        assert_eq!(r2.worst(), 4.0);
    }

    #[test]
    fn conflict_degree_counts_distinct_words_per_bank() {
        // Same word twice = broadcast.
        assert_eq!(conflict_degree(&[0, 0, 0]), 1);
        // 0 and 32 share bank 0 but are different words.
        assert_eq!(conflict_degree(&[0, 32]), 2);
        // Fully spread.
        let spread: Vec<usize> = (0..32).collect();
        assert_eq!(conflict_degree(&spread), 1);
        assert_eq!(conflict_degree(&[]), 1);
    }
}
