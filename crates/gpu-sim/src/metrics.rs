//! End-to-end simulation: plan → traced traffic → occupancy → predicted
//! time and GFLOPS.

use cogent_gpu_model::{
    occupancy, predict_time_s, BlockResources, GpuDevice, KernelProfile, Occupancy, Precision,
    TimeBreakdown,
};

use crate::plan::KernelPlan;
use crate::trace::{trace_transactions, TraceOptions, TraceReport};

/// Complete simulation result for one kernel plan on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Traced DRAM transactions.
    pub trace: TraceReport,
    /// Achieved occupancy.
    pub occupancy: Occupancy,
    /// Predicted execution time and its components.
    pub time: TimeBreakdown,
    /// Useful GFLOP/s: true (unpadded) FLOPs over predicted time.
    pub gflops: f64,
    /// Thread blocks launched.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Shared memory per block, bytes.
    pub smem_bytes: usize,
}

/// Simulates `plan` on `device` at `precision`.
///
/// This is the reproduction's stand-in for "run the generated kernel and
/// time it": the transaction tracer plays the role of the DRAM, the
/// occupancy calculator the role of the SM scheduler, and the roofline the
/// role of the stopwatch.
///
/// # Examples
///
/// ```
/// use cogent_gpu_sim::{plan::{IndexBinding, KernelPlan, MapDim}, simulate};
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_ir::Contraction;
///
/// let tc: Contraction = "ij-ik-kj".parse()?;
/// let plan = KernelPlan::new(&tc, vec![
///     IndexBinding::new("i", 1024, 16, MapDim::ThreadX),
///     IndexBinding::new("j", 1024, 16, MapDim::ThreadY),
///     IndexBinding::new("k", 1024, 8, MapDim::SerialK),
/// ])?;
/// let report = simulate(&plan, &GpuDevice::v100(), Precision::F64);
/// assert!(report.gflops > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(plan: &KernelPlan, device: &GpuDevice, precision: Precision) -> SimReport {
    let _span = cogent_obs::span("simulate");
    let threads = plan.threads_per_block();
    let smem = plan.smem_bytes(precision.bytes());
    let occ = occupancy(
        device,
        BlockResources {
            threads,
            smem_bytes: smem,
            registers_per_thread: plan.registers_per_thread(precision.bytes()),
        },
    );
    // An infeasible launch never runs; skip the (possibly expensive)
    // address trace and report the infinite time directly.
    let trace = if occ.fraction == 0.0 {
        TraceReport {
            load_a: 0,
            load_b: 0,
            store_c: 0,
        }
    } else {
        trace_transactions(plan, device, precision, TraceOptions::default())
    };
    let profile = KernelProfile {
        flops: plan.padded_flops(),
        transactions: trace.total(),
        occupancy: occ,
        total_blocks: plan.num_blocks(),
        steps_per_block: plan.steps(),
        outputs_per_thread: plan.outputs_per_thread(),
        precision,
    };
    let time = predict_time_s(device, &profile);
    // Per-tensor GMEM transactions plus launch shape, for comparison with
    // the analytical model's `cost.*` counters on the same trace.
    cogent_obs::counter("sim.transactions.load_a", trace.load_a);
    cogent_obs::counter("sim.transactions.load_b", trace.load_b);
    cogent_obs::counter("sim.transactions.store_c", trace.store_c);
    cogent_obs::counter("sim.blocks", plan.num_blocks() as u128);
    cogent_obs::counter("sim.occupancy_permille", (occ.fraction * 1000.0) as u128);
    if time.total_s.is_finite() {
        cogent_obs::counter("sim.predicted_ns", (time.total_s * 1e9) as u128);
    }
    SimReport {
        trace,
        occupancy: occ,
        gflops: plan.true_flops() as f64 / time.total_s / 1e9,
        blocks: plan.num_blocks(),
        threads_per_block: threads,
        smem_bytes: smem,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{IndexBinding, MapDim};
    use cogent_ir::Contraction;

    fn plan(ti: usize, reg: bool) -> KernelPlan {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let (bdim, ddim) = if reg {
            (MapDim::RegX, MapDim::RegY)
        } else {
            (MapDim::Grid, MapDim::Grid)
        };
        let btile = if reg { 4 } else { 1 };
        KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("a", 64, ti, MapDim::ThreadX),
                IndexBinding::new("b", 64, btile, bdim),
                IndexBinding::new("c", 64, 16, MapDim::ThreadY),
                IndexBinding::new("d", 64, btile, ddim),
                IndexBinding::new("e", 32, 8, MapDim::SerialK),
                IndexBinding::new("f", 32, 2, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    #[test]
    fn produces_finite_positive_time() {
        let r = simulate(&plan(16, true), &GpuDevice::v100(), Precision::F64);
        assert!(r.time.total_s.is_finite());
        assert!(r.time.total_s > 0.0);
        assert!(r.gflops > 0.0);
        assert!(r.gflops < GpuDevice::v100().peak_gflops_f64);
    }

    #[test]
    fn register_tiling_reduces_traffic_per_flop() {
        let d = GpuDevice::v100();
        let with_reg = simulate(&plan(16, true), &d, Precision::F64);
        let without = simulate(&plan(16, false), &d, Precision::F64);
        // Same contraction, same FLOPs. Register tiling gives each thread
        // more reuse, so total transactions per flop must drop.
        let flops = plan(16, true).true_flops() as f64;
        let t1 = with_reg.trace.total() as f64 / flops;
        let t2 = without.trace.total() as f64 / flops;
        assert!(t1 < t2, "reg {t1} vs flat {t2}");
    }

    #[test]
    fn better_plan_is_faster() {
        let d = GpuDevice::v100();
        let good = simulate(&plan(16, true), &d, Precision::F64);
        let bad = simulate(&plan(4, false), &d, Precision::F64);
        assert!(good.gflops > bad.gflops);
    }

    #[test]
    fn p100_slower_than_v100() {
        let pl = plan(16, true);
        let p = simulate(&pl, &GpuDevice::p100(), Precision::F64);
        let v = simulate(&pl, &GpuDevice::v100(), Precision::F64);
        assert!(v.gflops > p.gflops);
    }

    #[test]
    fn report_fields_consistent() {
        let pl = plan(16, true);
        let r = simulate(&pl, &GpuDevice::v100(), Precision::F64);
        assert_eq!(r.blocks, pl.num_blocks());
        assert_eq!(r.threads_per_block, pl.threads_per_block());
        assert_eq!(r.smem_bytes, pl.smem_bytes(8));
    }
}
