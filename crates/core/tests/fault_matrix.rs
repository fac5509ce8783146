//! The fault-detection matrix: every [`FaultKind`] crossed with the
//! detection layer that must flag it. Static faults (illegal plans) are
//! rejected by the plan validator before anything executes; dynamic faults
//! (misbehaving execution) are rewrites of the lowered kernel tree whose
//! interpreted answers measurably diverge from the reference contraction,
//! and the two that break a structural invariant are also caught by the
//! IR lint. The invariant under test is *no silent wrong answers*: for
//! each fault class at least one layer fires, and it is exactly the layer
//! the taxonomy assigns.

use cogent_core::guard::validate_plan;
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
use cogent_gpu_sim::{ExecFaults, FaultInjector, FaultKind};
use cogent_ir::{Contraction, SizeMap};
use cogent_kir::{apply_exec_faults, interpret, lint_kernel_program, lower_to_kir};
use cogent_tensor::reference::{contract_reference, random_inputs};

/// Eq. 1 of the paper with ragged extents so every mapping dimension has
/// a tail (the regime where dropped guards and truncated staging bite).
fn ragged_plan() -> (KernelPlan, SizeMap) {
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
    let sizes = SizeMap::from_pairs([("a", 7), ("b", 6), ("c", 7), ("d", 5), ("e", 6), ("f", 5)]);
    (plan, sizes)
}

#[test]
fn clean_plan_passes_both_detection_layers() {
    let (plan, sizes) = ragged_plan();
    let device = GpuDevice::v100();
    validate_plan(&plan, &device, Precision::F64).expect("clean plan validates");
    let prog = lower_to_kir(&plan).expect("ragged plan lowers");
    assert!(lint_kernel_program(&prog).is_clean());
    let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, 11);
    let got = interpret(&prog, &sizes, &a, &b).expect("clean program interprets");
    let want = contract_reference(plan.contraction(), &sizes, &a, &b);
    assert!(got.approx_eq(&want, 1e-11));
}

/// The matrix itself. Each fault kind is injected with several seeds; the
/// assigned layer must flag every instance.
#[test]
fn every_fault_kind_is_caught_by_its_assigned_layer() {
    let (plan, sizes) = ragged_plan();
    let device = GpuDevice::v100();
    let prog = lower_to_kir(&plan).expect("ragged plan lowers");

    for kind in FaultKind::ALL {
        for seed in 0..5u64 {
            if kind.is_static() {
                // Layer 1: the plan validator. The corrupted plan must be
                // rejected with at least one violation.
                let bad = FaultInjector::new(seed).inject_plan(&plan, kind);
                let violations = validate_plan(&bad, &device, Precision::F64)
                    .expect_err(&format!("{} (seed {seed}) must be rejected", kind.name()));
                assert!(
                    !violations.is_empty(),
                    "{}: rejection carries no violations",
                    kind.name()
                );
            } else {
                // Layer 2: numeric divergence. A static-layer pass is
                // expected (the plan is untouched)...
                let untouched = FaultInjector::new(seed).inject_plan(&plan, kind);
                validate_plan(&untouched, &device, Precision::F64)
                    .expect("dynamic faults leave the plan statically valid");
                // ...but the faulted kernel tree, interpreted, must
                // measurably diverge.
                let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, 7 + seed);
                let want = contract_reference(plan.contraction(), &sizes, &a, &b);
                let faulted = apply_exec_faults(&prog, &ExecFaults::for_kind(kind));
                let got = interpret(&faulted, &sizes, &a, &b).unwrap_or_else(|e| {
                    panic!(
                        "{} (seed {seed}): faulted interpretation failed: {e}",
                        kind.name()
                    )
                });
                let diff = got.max_abs_diff(&want);
                assert!(
                    diff > 1e-9,
                    "{} (seed {seed}): silent wrong answer (diff {diff:e} below threshold)",
                    kind.name()
                );
                // Guard-coverage and barrier-placement faults also violate
                // the tree's structural invariants, so the lint fires
                // before any execution happens at all.
                if matches!(kind, FaultKind::DroppedTailGuard | FaultKind::SkippedSync) {
                    assert!(
                        !lint_kernel_program(&faulted).is_clean(),
                        "{}: structural lint missed the faulted tree",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// Static faults never reach execution in the real pipeline, but even if
/// they did, the validator firing first is what the ladder relies on:
/// check the validator rejects them *for the right resource*.
#[test]
fn static_fault_violations_name_the_exhausted_resource() {
    use cogent_core::PlanViolation;
    type Matcher = fn(&PlanViolation) -> bool;
    let (plan, _) = ragged_plan();
    let device = GpuDevice::v100();
    let cases: [(FaultKind, Matcher); 4] = [
        (FaultKind::SmemOverflow, |v| {
            matches!(v, PlanViolation::SharedMemoryExceeded { .. })
        }),
        (FaultKind::ThreadOverflow, |v| {
            matches!(v, PlanViolation::ThreadsExceeded { .. })
        }),
        (FaultKind::RegisterOverflow, |v| {
            matches!(v, PlanViolation::RegistersExceeded { .. })
        }),
        (FaultKind::ForeignIndex, |v| {
            matches!(
                v,
                PlanViolation::UnboundIndex { .. } | PlanViolation::ForeignIndex { .. }
            )
        }),
    ];
    for (kind, matches_resource) in cases {
        let bad = FaultInjector::new(3).inject_plan(&plan, kind);
        let violations = validate_plan(&bad, &device, Precision::F64).unwrap_err();
        assert!(
            violations.iter().any(matches_resource),
            "{}: violations {violations:?} do not name the exhausted resource",
            kind.name()
        );
    }
}
