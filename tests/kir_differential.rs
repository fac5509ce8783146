//! Differential pinning of the kernel-IR interpreter: for every entry of
//! the 48-benchmark TCCG suite, the lowered [`cogent::kir::KernelProgram`]
//! interpreted over random inputs must agree with the sequential reference
//! contraction and reproduce its golden output bits exactly.
//!
//! The interpreter consumes the *same tree the backends print*, so this
//! test certifies the semantics of the emitted kernel text itself — the
//! staging loops, the mixed-radix index arithmetic, the guards — not just
//! the plan it was lowered from. Extents are shrunk to keep the
//! interpreter affordable while staying ragged (not divisible by typical
//! tiles), which keeps every partial-tile guard in play.

mod common;

use cogent::kir::{apply_exec_faults, interpret, interpret_plan, lower_to_kir};
use cogent::prelude::*;
use cogent::sim::{ExecFaults, FaultKind, IndexBinding, MapDim};
use cogent::tensor::reference::{contract_reference, random_inputs};

#[test]
fn interpreter_matches_reference_on_all_48_entries() {
    for (i, entry) in cogent::tccg::suite().into_iter().enumerate() {
        let tc = entry.contraction();
        // Small ragged extents: large enough for multi-tile grids, small
        // enough that 48 interpreted kernels stay fast.
        let sizes = SizeMap::uniform(&tc, 4 + (i % 3));
        let g = Cogent::new()
            .generate(&tc, &sizes)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let plan_sizes = SizeMap::from_pairs(
            g.plan
                .bindings()
                .iter()
                .map(|b| (b.name.as_str(), b.extent)),
        );
        let (a, b) = random_inputs::<f64>(g.plan.contraction(), &plan_sizes, 29 + i as u64);

        let want = contract_reference(g.plan.contraction(), &plan_sizes, &a, &b);
        let interp = interpret_plan(&g.plan, &a, &b)
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", entry.name));

        assert!(
            interp.approx_eq(&want, 1e-10),
            "{}: interpreter vs reference diff {:e}",
            entry.name,
            interp.max_abs_diff(&want)
        );
        common::assert_golden_bits(&entry.name, "plan", &interp);
    }
}

/// Each dynamic fault, as a rewrite of the ragged Eq. 1 program, still
/// computes exactly the wrong answer it computed when the golden bits
/// were captured — so a faster interpreter cannot quietly change what
/// the fault matrix detects.
#[test]
fn faulted_programs_reproduce_their_golden_bits() {
    let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
    let plan = KernelPlan::new(
        &tc,
        vec![
            IndexBinding::new("a", 7, 2, MapDim::ThreadX),
            IndexBinding::new("b", 6, 2, MapDim::RegX),
            IndexBinding::new("c", 7, 2, MapDim::ThreadY),
            IndexBinding::new("d", 5, 2, MapDim::RegY),
            IndexBinding::new("e", 6, 4, MapDim::SerialK),
            IndexBinding::new("f", 5, 2, MapDim::SerialK),
        ],
    )
    .unwrap();
    let prog = lower_to_kir(&plan).unwrap();
    let sizes = SizeMap::from_pairs(plan.bindings().iter().map(|b| (b.name.as_str(), b.extent)));
    let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, 17);
    for kind in FaultKind::ALL.into_iter().filter(|k| !k.is_static()) {
        let faulted = apply_exec_faults(&prog, &ExecFaults::for_kind(kind));
        let got = interpret(&faulted, &sizes, &a, &b)
            .unwrap_or_else(|e| panic!("{}: faulted interpretation failed: {e}", kind.name()));
        common::assert_golden_bits("ragged_eq1", kind.name(), &got);
    }
}
