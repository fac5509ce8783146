//! Property test: the transaction tracer agrees with a per-lane
//! brute-force counter — every lane's address from its coordinates, each
//! warp access sorted, distinct 128-byte segments counted — on random
//! legal plans with ragged extents, at both precisions, in both store
//! modes and under three sampling settings. Reports and the
//! `trace.sampled.*` guard counters must match exactly.

mod strategy;

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim, StoreMode};
use cogent_gpu_sim::trace::{trace_transactions, TraceOptions, TraceReport};
use cogent_ir::TensorRef;
use proptest::prelude::*;
use strategy::plan_strategy;

/// Element offset of one lane's access to `tensor`, or `None` when a
/// bounds guard masks it; `coord(k, b)` is the in-tile coordinate of the
/// tensor's `k`-th index.
fn offset(
    plan: &KernelPlan,
    tensor: &TensorRef,
    base: &[usize],
    coord: impl Fn(usize, &IndexBinding) -> usize,
) -> Option<usize> {
    let (mut off, mut stride) = (0, 1);
    for (k, idx) in tensor.indices().iter().enumerate() {
        let pos = plan.bindings().iter().position(|b| &b.name == idx)?;
        let b = &plan.bindings()[pos];
        let g = base[pos] + coord(k, b);
        if g >= b.extent {
            return None;
        }
        off += g * stride;
        stride *= b.extent;
    }
    Some(off)
}

/// The per-lane algorithm: the report plus the warp-access, divergent-warp
/// and masked-lane counts over the sampled accesses.
fn brute_force(
    plan: &KernelPlan,
    dev: &GpuDevice,
    prec: Precision,
    opt: TraceOptions,
) -> (TraceReport, [u128; 3]) {
    let sample = |n: usize, take: usize| {
        let take = take.clamp(1, n.max(1));
        (0..take).map(|i| i * n / take).collect::<Vec<_>>()
    };
    let blocks = sample(plan.num_blocks(), opt.max_block_samples);
    let steps = sample(plan.steps(), opt.max_step_samples);
    let (threads, warp) = (plan.threads_per_block(), dev.warp_size);
    let tbx = plan.group_size(MapDim::ThreadX);
    let (mut sums, mut guards) = ([0u128; 3], [0u128; 3]);
    let mut access = |lanes: usize, offs: Vec<usize>| {
        guards[0] += 1;
        guards[1] += u128::from(offs.len() < lanes);
        guards[2] += (lanes - offs.len()) as u128;
        let segment = |o: &usize| o * prec.bytes() / dev.transaction_bytes;
        let mut segs: Vec<usize> = offs.iter().map(segment).collect();
        segs.sort_unstable();
        segs.dedup();
        segs.len() as u128
    };
    let tc = plan.contraction();
    let mut base = vec![0; plan.bindings().len()];
    for &block in &blocks {
        plan.block_base_offsets(block, &mut base);
        for &step in &steps {
            plan.step_base_offsets(step, &mut base);
            for (k, t) in [tc.a(), tc.b()].into_iter().enumerate() {
                // Tile-linear stride of each index of the staged tile.
                let mut strides = vec![1];
                for idx in t.indices() {
                    strides.push(strides[strides.len() - 1] * plan.binding(idx).unwrap().tile);
                }
                let tile_elems = strides.pop().unwrap();
                for round in (0..tile_elems).step_by(threads) {
                    let round_end = tile_elems.min(round + threads);
                    for w in (round..round_end).step_by(warp) {
                        let lanes = warp.min(round_end - w);
                        let offs = (w..w + lanes)
                            .filter_map(|e| offset(plan, t, &base, |k, b| e / strides[k] % b.tile));
                        sums[k] += access(lanes, offs.collect());
                    }
                }
            }
        }
        for ry in 0..plan.group_size(MapDim::RegY) {
            for rx in 0..plan.group_size(MapDim::RegX) {
                for w in (0..threads).step_by(warp) {
                    let lanes = warp.min(threads - w);
                    let offs = (w..w + lanes).filter_map(|t| {
                        offset(plan, tc.c(), &base, |_, b| {
                            let lin = match b.dim {
                                MapDim::ThreadX => t % tbx,
                                MapDim::ThreadY => t / tbx,
                                MapDim::RegX => rx,
                                MapDim::RegY => ry,
                                _ => 0,
                            };
                            let pos = plan.group_bindings(b.dim).position(|g| g.name == b.name);
                            plan.decompose_in_group(b.dim, lin)[pos.unwrap()]
                        })
                    });
                    sums[2] += access(lanes, offs.collect());
                }
            }
        }
    }
    let (nb, ns) = (blocks.len() as u128, steps.len() as u128);
    let (all_blocks, all_steps) = (plan.num_blocks() as u128, plan.steps() as u128);
    let store_factor = 1 + u128::from(plan.store_mode() == StoreMode::Accumulate);
    let report = TraceReport {
        load_a: sums[0] * all_blocks * all_steps / (nb * ns),
        load_b: sums[1] * all_blocks * all_steps / (nb * ns),
        store_c: sums[2] * all_blocks * store_factor / nb,
    };
    (report, guards)
}

fn check(plan: &KernelPlan) {
    cogent_obs::set_enabled(true);
    let dev = GpuDevice::v100();
    let mut settings = vec![TraceOptions::default()];
    settings.push(TraceOptions {
        max_block_samples: 3,
        max_step_samples: 2,
    });
    // Exhaustive only where the brute force stays cheap.
    if plan.num_blocks() * plan.steps() <= 4096 {
        settings.push(TraceOptions::exhaustive());
    }
    for prec in [Precision::F64, Precision::F32] {
        for mode in [StoreMode::Assign, StoreMode::Accumulate] {
            let plan = plan.clone().with_store_mode(mode);
            for &opt in &settings {
                let capture = cogent_obs::Capture::start("trace");
                let got = trace_transactions(&plan, &dev, prec, opt);
                let trace = capture.finish().expect("tracing is enabled");
                let counter = |name| trace.root.counter(&format!("trace.sampled.{name}"));
                let guards = ["warp_accesses", "divergent_warps", "oob_lane_skips"].map(counter);
                let want = brute_force(&plan, &dev, prec, opt);
                assert_eq!(
                    (got, guards.map(Option::unwrap)),
                    want,
                    "{plan} {prec} {mode:?} {opt:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Extents stretched to `extent * factor + pad` (tiles unchanged) give
    /// long, misaligned rows that cross 128-byte boundaries at every
    /// offset; `factor` 1 keeps the shared strategy's plan as drawn.
    #[test]
    fn tracer_matches_per_lane_brute_force(
        plan in plan_strategy(),
        factor in 1usize..9,
        pad in 0usize..8,
    ) {
        let stretch = |b: &IndexBinding| b.extent * factor + pad % factor;
        let bindings = plan
            .bindings()
            .iter()
            .map(|b| IndexBinding::new(b.name.clone(), stretch(b), b.tile, b.dim))
            .collect();
        check(&KernelPlan::new(plan.contraction(), bindings).unwrap());
    }
}
