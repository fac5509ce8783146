//! Predicted-benefit model: warp-level traffic estimation.
//!
//! The pass pipeline's claims are quantitative — fewer global-memory
//! requests (vectorization), fewer bank-conflict replays (padding),
//! fewer barriers (double buffering) — so the audit gate needs numbers,
//! not adjectives. This module predicts all three from the schedule
//! metadata ([`crate::ast::KernelMeta`]) the lowering records, by
//! exhaustively enumerating the distinct *tail classes* a block/step can
//! fall into and simulating one representative of each:
//!
//! * **Global requests** — one per warp per executed global load/store
//!   instruction with at least one active lane (the LSU issue count, the
//!   quantity vectorization divides by the lane width). Bytes moved are
//!   invariant under vectorization; issue slots are not.
//! * **SMEM replays** — for each compute-phase shared-tile read, lanes'
//!   element addresses are binned into 32 banks; each bank serving more
//!   than one *distinct* address costs `distinct - 1` replays
//!   (broadcasts are free). Guards never cover these reads, so the count
//!   is tail-independent and scales with the total step count.
//! * **Barriers** — `2 · steps` for the baseline schema, `1 + steps`
//!   when double-buffered.
//!
//! A block's staging/store guards depend only on each index's in-tile
//! availability `min(T_i, N_i - base_i)`, which takes one of two values
//! (full tile or tail tile). Enumerating the `2^k` combinations with
//! their multiplicities — instead of every block — makes the estimate
//! exact at trivial cost.

use std::collections::HashMap;

use cogent_gpu_sim::plan::MapDim;
use cogent_ir::IndexName;
use cogent_tensor::Layout;

use crate::ast::{BindingMeta, KernelProgram};
use crate::error::KirError;

const WARP: usize = 32;
const BANKS: usize = 32;

/// The predicted per-launch traffic of one kernel program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficReport {
    /// Warp-level global-memory requests (loads + stores) issued.
    pub global_requests: u64,
    /// Shared-memory bank-conflict replay cycles in the compute phase.
    pub smem_replays: u64,
    /// Block-wide barriers executed across the whole grid.
    pub barriers: u64,
}

/// One tail class: each index's in-tile availability plus how many
/// blocks/steps share it.
struct Class {
    avail: HashMap<String, usize>,
    mult: u64,
}

fn classes(of: &[&BindingMeta]) -> Vec<Class> {
    let mut out = vec![Class {
        avail: HashMap::new(),
        mult: 1,
    }];
    for b in of {
        let full = b.extent / b.tile.max(1);
        let tail = b.extent % b.tile.max(1);
        let mut next = Vec::new();
        for c in &out {
            if full > 0 {
                let mut avail = c.avail.clone();
                avail.insert(b.name.to_string(), b.tile);
                next.push(Class {
                    avail,
                    mult: c.mult * full as u64,
                });
            }
            if tail > 0 {
                let mut avail = c.avail.clone();
                avail.insert(b.name.to_string(), tail);
                next.push(Class {
                    avail,
                    mult: c.mult,
                });
            }
        }
        out = next;
    }
    out
}

/// Warp-level request count of one cooperative staging loop over the
/// packed `tile` with per-mode availabilities `avails`. `vwidth == 0` is
/// the scalar loop; otherwise the vectorized loop on its aligned path.
fn staging_requests(tile: &Layout, avails: &[usize], threads: usize, vwidth: usize) -> u64 {
    let elems = tile.size();
    if elems == 0 || threads == 0 {
        return 0;
    }
    let lane_span = vwidth.max(1);
    let mut req = 0u64;
    let mut m = 0usize;
    while m * threads * lane_span < elems {
        for w0 in (0..threads).step_by(WARP) {
            if vwidth == 0 {
                let mut any = false;
                for l in w0..(w0 + WARP).min(threads) {
                    let p = l + m * threads;
                    if p >= elems {
                        continue;
                    }
                    let d = tile.digits(p);
                    if d.iter().zip(avails).all(|(d, a)| d < a) {
                        any = true;
                    }
                }
                req += u64::from(any);
            } else {
                let mut taken = false;
                let mut lane_v = vec![false; vwidth];
                for l in w0..(w0 + WARP).min(threads) {
                    let p = (l + m * threads) * vwidth;
                    if p >= elems {
                        continue;
                    }
                    let d = tile.digits(p);
                    let d0 = d.first().copied().unwrap_or(0);
                    let a0 = avails.first().copied().unwrap_or(0);
                    let rest_ok = d.iter().zip(avails).skip(1).all(|(d, a)| d < a);
                    if rest_ok && d0 + vwidth - 1 < a0 {
                        taken = true;
                    } else {
                        for (v, slot) in lane_v.iter_mut().enumerate() {
                            if rest_ok && d0 + v < a0 {
                                *slot = true;
                            }
                        }
                    }
                }
                req += u64::from(taken) + lane_v.iter().filter(|x| **x).count() as u64;
            }
        }
        m += 1;
    }
    req
}

/// Replay cycles of one warp access: per bank, each distinct address
/// beyond the first costs a replay.
fn replays(addrs: &[usize]) -> u64 {
    let mut banks: Vec<Vec<usize>> = vec![Vec::new(); BANKS];
    for &a in addrs {
        let bank = a % BANKS;
        if !banks[bank].contains(&a) {
            banks[bank].push(a);
        }
    }
    banks
        .iter()
        .map(|b| b.len().saturating_sub(1) as u64)
        .max()
        .unwrap_or(0)
}

/// Where an index's compute-phase coordinate comes from.
#[derive(Clone, Copy)]
enum Coord {
    X(usize),
    Y(usize),
    Rx(usize),
    Ry(usize),
    K(usize),
    Zero,
}

/// Estimates the per-launch traffic of `prog` at the extents its plan
/// was built for (recorded in `prog.meta.bindings`).
///
/// # Errors
///
/// [`KirError::UnboundIndex`] when a tensor index has no recorded
/// binding (a malformed program).
pub fn estimate_traffic(prog: &KernelProgram) -> Result<TrafficReport, KirError> {
    let meta = &prog.meta;
    let bind = |idx: &IndexName| -> Result<&BindingMeta, KirError> {
        meta.bindings
            .iter()
            .find(|b| b.name == *idx)
            .ok_or_else(|| KirError::UnboundIndex { index: idx.clone() })
    };
    let group = |dim: MapDim| -> Vec<&BindingMeta> {
        meta.bindings.iter().filter(|b| b.dim == dim).collect()
    };
    let (gx, gy) = (group(MapDim::ThreadX), group(MapDim::ThreadY));
    let (grx, gry) = (group(MapDim::RegX), group(MapDim::RegY));
    let gk = group(MapDim::SerialK);
    let tiles_of = |g: &[&BindingMeta]| g.iter().map(|b| b.tile).collect::<Vec<_>>();
    let size_of = |g: &[&BindingMeta]| g.iter().map(|b| b.tile).product::<usize>();
    let (tbx, tby) = (size_of(&gx), size_of(&gy));
    let threads = tbx * tby;
    let (regx, regy, ktile) = (size_of(&grx), size_of(&gry), size_of(&gk));

    let external: Vec<&BindingMeta> = meta
        .bindings
        .iter()
        .filter(|b| b.dim != MapDim::SerialK)
        .collect();
    let ceil_tiles = |b: &BindingMeta| b.extent.div_ceil(b.tile.max(1)).max(1) as u64;
    let num_blocks: u64 = external.iter().map(|b| ceil_tiles(b)).product();
    let num_steps: u64 = gk.iter().map(|b| ceil_tiles(b)).product();

    let coord_of = |b: &BindingMeta| -> Coord {
        let pos = |g: &[&BindingMeta]| g.iter().position(|x| x.name == b.name).unwrap_or(0);
        match b.dim {
            MapDim::ThreadX => Coord::X(pos(&gx)),
            MapDim::ThreadY => Coord::Y(pos(&gy)),
            MapDim::RegX => Coord::Rx(pos(&grx)),
            MapDim::RegY => Coord::Ry(pos(&gry)),
            MapDim::SerialK => Coord::K(pos(&gk)),
            MapDim::Grid => Coord::Zero,
        }
    };
    // Precomputed digit tables for every hardware coordinate.
    let table = |g: &[&BindingMeta]| -> Vec<Vec<usize>> {
        let tile = Layout::packed(&tiles_of(g));
        (0..tile.size()).map(|v| tile.digits(v)).collect()
    };
    let (xdig, ydig) = (table(&gx), table(&gy));
    let (rxdig, rydig, kdig) = (table(&grx), table(&gry), table(&gk));
    let coord_val = |c: Coord, tx: usize, ty: usize, rx: usize, ry: usize, j: usize| -> usize {
        match c {
            Coord::X(p) => xdig[tx].get(p).copied().unwrap_or(0),
            Coord::Y(p) => ydig[ty].get(p).copied().unwrap_or(0),
            Coord::Rx(p) => rxdig[rx].get(p).copied().unwrap_or(0),
            Coord::Ry(p) => rydig[ry].get(p).copied().unwrap_or(0),
            Coord::K(p) => kdig[j].get(p).copied().unwrap_or(0),
            Coord::Zero => 0,
        }
    };

    // --- global requests: staging loads -------------------------------
    let ext_classes = classes(&external);
    let ser_classes = classes(&gk);
    let mut tensor_info = Vec::new();
    for indices in [&prog.shapes.a, &prog.shapes.b] {
        let binds = indices.iter().map(&bind).collect::<Result<Vec<_>, _>>()?;
        let tile = Layout::packed(&binds.iter().map(|b| b.tile).collect::<Vec<_>>());
        let names: Vec<String> = binds.iter().map(|b| b.name.to_string()).collect();
        let aligned = binds
            .first()
            .is_some_and(|b| meta.vec_width > 0 && b.extent % meta.vec_width == 0);
        tensor_info.push((tile, names, aligned));
    }
    let mut load_requests = 0u64;
    for ec in &ext_classes {
        for sc in &ser_classes {
            for (tile, names, aligned) in &tensor_info {
                let avails: Vec<usize> = names
                    .iter()
                    .map(|n| {
                        ec.avail
                            .get(n)
                            .or_else(|| sc.avail.get(n))
                            .copied()
                            .unwrap_or(1)
                    })
                    .collect();
                let vwidth = if *aligned { meta.vec_width } else { 0 };
                load_requests +=
                    ec.mult * sc.mult * staging_requests(tile, &avails, threads, vwidth);
            }
        }
    }

    // --- global requests: output stores -------------------------------
    let mut c_coords = Vec::new();
    for idx in prog.shapes.c.iter() {
        let b = bind(idx)?;
        c_coords.push((b.name.to_string(), coord_of(b)));
    }
    let mut store_requests = 0u64;
    for ec in &ext_classes {
        let mut per_block = 0u64;
        for ry in 0..regy.max(1) {
            for rx in 0..regx.max(1) {
                for w0 in (0..threads).step_by(WARP) {
                    let mut any = false;
                    for l in w0..(w0 + WARP).min(threads) {
                        let (tx, ty) = (l % tbx.max(1), l / tbx.max(1));
                        let ok = c_coords.iter().all(|(name, c)| {
                            coord_val(*c, tx, ty, rx, ry, 0)
                                < ec.avail.get(name).copied().unwrap_or(1)
                        });
                        if ok {
                            any = true;
                        }
                    }
                    per_block += u64::from(any);
                }
            }
        }
        store_requests += ec.mult * per_block;
    }

    // --- shared-memory bank replays in the compute phase --------------
    // Addresses are guard-free and tail-independent: one count per step.
    let mut replays_per_step = 0u64;
    for (indices, reg_iters, use_rx) in [
        (&prog.shapes.a, regx.max(1), true),
        (&prog.shapes.b, regy.max(1), false),
    ] {
        let binds = indices.iter().map(&bind).collect::<Result<Vec<_>, _>>()?;
        let coords: Vec<Coord> = binds.iter().map(|b| coord_of(b)).collect();
        // The shared tile: packed over the tiles, the first mode's pitch
        // padded when `smem-pad` applied.
        let mut pitch: Vec<usize> = binds.iter().map(|b| b.tile).collect();
        if meta.smem_pad > 0 && pitch.len() >= 2 {
            pitch[0] += meta.smem_pad;
        }
        let smem = Layout::new(
            binds
                .iter()
                .map(|b| b.tile)
                .zip(Layout::packed(&pitch).strides().iter().copied()),
        );
        let mut point = vec![0; coords.len()];
        let mut addrs = Vec::with_capacity(WARP);
        for j in 0..ktile.max(1) {
            for r in 0..reg_iters {
                let (rx, ry) = if use_rx { (r, 0) } else { (0, r) };
                for w0 in (0..threads).step_by(WARP) {
                    addrs.clear();
                    for l in w0..(w0 + WARP).min(threads) {
                        let (tx, ty) = (l % tbx.max(1), l / tbx.max(1));
                        for (p, c) in point.iter_mut().zip(&coords) {
                            *p = coord_val(*c, tx, ty, rx, ry, j);
                        }
                        addrs.push(smem.offset(&point));
                    }
                    replays_per_step += replays(&addrs);
                }
            }
        }
    }
    let smem_replays = replays_per_step * num_blocks * num_steps;

    // --- barriers ------------------------------------------------------
    let per_block = if meta.double_buffered {
        1 + num_steps
    } else {
        2 * num_steps
    };

    Ok(TrafficReport {
        global_requests: load_requests + store_requests,
        smem_replays,
        barriers: num_blocks * per_block,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_to_kir;
    use crate::pass::{DoubleBuffer, Pass, PassManager, SmemPad, VectorizeLoads};
    use cogent_gpu_sim::plan::{IndexBinding, KernelPlan};
    use cogent_ir::Contraction;

    fn matmul_plan() -> KernelPlan {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 16, 4, MapDim::ThreadX),
                IndexBinding::new("j", 16, 4, MapDim::ThreadY),
                IndexBinding::new("k", 8, 4, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scalar_matmul_requests_are_hand_checkable() {
        // 16 blocks, 2 steps each. Per step each tensor's 16-element
        // tile is staged by 16 threads (one warp slot) = 1 request;
        // 2 tensors * 2 steps = 4 loads/block. Stores: REGX = REGY = 1,
        // one warp, all lanes in bounds = 1 store/block.
        let prog = lower_to_kir(&matmul_plan()).unwrap();
        let t = estimate_traffic(&prog).unwrap();
        assert_eq!(t.global_requests, 16 * (4 + 1));
        assert_eq!(t.barriers, 16 * 2 * 2);
    }

    /// A plan whose 32-element staged tiles take two scalar iterations
    /// per 16-thread block, so vectorization has slack to reclaim.
    fn deep_plan() -> KernelPlan {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 16, 4, MapDim::ThreadX),
                IndexBinding::new("j", 16, 4, MapDim::ThreadY),
                IndexBinding::new("k", 16, 8, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    #[test]
    fn vectorization_reduces_requests_and_never_increases_them() {
        let prog = lower_to_kir(&deep_plan()).unwrap();
        let scalar = estimate_traffic(&prog).unwrap();
        let mut vectorized = prog.clone();
        let pass = VectorizeLoads::new(2);
        pass.applicability(&vectorized).unwrap();
        pass.run(&mut vectorized).unwrap();
        let vec = estimate_traffic(&vectorized).unwrap();
        assert!(
            vec.global_requests < scalar.global_requests,
            "vectorized {} !< scalar {}",
            vec.global_requests,
            scalar.global_requests
        );

        // Ragged extents: still never worse than scalar.
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        for (ni, nj, nk) in [(15, 13, 7), (18, 10, 9), (16, 16, 8), (17, 15, 10)] {
            let plan = KernelPlan::new(
                &tc,
                vec![
                    IndexBinding::new("i", ni, 4, MapDim::ThreadX),
                    IndexBinding::new("j", nj, 4, MapDim::ThreadY),
                    IndexBinding::new("k", nk, 4, MapDim::SerialK),
                ],
            )
            .unwrap();
            let base = lower_to_kir(&plan).unwrap();
            let s = estimate_traffic(&base).unwrap();
            let mut v = base.clone();
            VectorizeLoads::new(2).run(&mut v).unwrap();
            let t = estimate_traffic(&v).unwrap();
            assert!(
                t.global_requests <= s.global_requests,
                "({ni},{nj},{nk}): vectorized {} > scalar {}",
                t.global_requests,
                s.global_requests
            );
        }
    }

    #[test]
    fn padding_kills_a_constructed_bank_conflict() {
        // tbx = 1, tby = 32: a warp's lanes differ only in ty. s_B is
        // T_k x T_j = 32 x 32, read at k + 32 * y_j -- all 32 lanes in
        // one bank (31 replays per access). Pitch 33 spreads them.
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 4, 1, MapDim::ThreadX),
                IndexBinding::new("j", 64, 32, MapDim::ThreadY),
                IndexBinding::new("k", 64, 32, MapDim::SerialK),
            ],
        )
        .unwrap();
        let base = lower_to_kir(&plan).unwrap();
        let before = estimate_traffic(&base).unwrap();
        assert!(before.smem_replays > 0, "expected a conflicted baseline");
        let mut padded = base.clone();
        SmemPad::new(1).run(&mut padded).unwrap();
        let after = estimate_traffic(&padded).unwrap();
        assert_eq!(after.smem_replays, 0, "pitch 33 must spread the banks");
        assert_eq!(after.global_requests, before.global_requests);
    }

    #[test]
    fn double_buffering_halves_steady_state_barriers() {
        let base = lower_to_kir(&matmul_plan()).unwrap();
        let before = estimate_traffic(&base).unwrap();
        let mut db = base.clone();
        DoubleBuffer::new().run(&mut db).unwrap();
        let after = estimate_traffic(&db).unwrap();
        // 2 steps: 4 barriers/block before, 3 after (prologue + 1/step).
        assert_eq!(before.barriers, 16 * 4);
        assert_eq!(after.barriers, 16 * 3);
        assert_eq!(after.global_requests, before.global_requests);
    }

    #[test]
    fn full_pipeline_improves_every_metric_on_an_aligned_plan() {
        let base = lower_to_kir(&deep_plan()).unwrap();
        let before = estimate_traffic(&base).unwrap();
        let mut opt = base.clone();
        let report = PassManager::default_pipeline(2).run(&mut opt).unwrap();
        assert_eq!(report.applied().len(), 3);
        let after = estimate_traffic(&opt).unwrap();
        assert!(after.global_requests < before.global_requests);
        assert!(after.smem_replays <= before.smem_replays);
        assert!(after.barriers < before.barriers);
    }
}
