//! Fault injection as tree rewrites.
//!
//! The simulator's [`ExecFaults`] describe four dynamic bug classes the
//! fault matrix must catch. Each fault becomes a small *rewrite of the
//! program tree itself*, so the faulted artifact is the same object the
//! printers print and the interpreter runs: a detection layer that flags
//! the faulted tree flags the exact kernel text a buggy lowering would
//! have emitted.
//!
//! | fault                 | rewrite                                                |
//! |-----------------------|--------------------------------------------------------|
//! | `truncate_staging`    | halve the cooperative staging loop's element count     |
//! | `corrupt_accumulation`| shorten the in-tile k loop to `KTILE - 1`              |
//! | `drop_tail_guard`     | replace guarded loads with clamped unguarded loads     |
//! | `skip_sync`           | hoist the compute phase ahead of the staging phases    |

use cogent_gpu_sim::ExecFaults;

use crate::ast::{BinOp, Expr, KernelProgram, LValue, LineItem, PhaseTag, Stmt};

fn extent_product(indices: &[cogent_ir::IndexName]) -> Expr {
    let mut it = indices.iter();
    let first = match it.next() {
        Some(i) => Expr::sym(format!("N_{i}")),
        None => return Expr::Int(1),
    };
    it.fold(first, |acc, i| {
        Expr::bin(BinOp::Mul, acc, Expr::sym(format!("N_{i}")))
    })
}

/// In a staging phase body: halve the staging loop's upper bound.
fn truncate_staging(stmts: &mut [Stmt]) {
    for s in stmts {
        match s {
            Stmt::For { limit, body, .. } => {
                *limit = Expr::bin(BinOp::Div, Expr::paren(limit.clone()), Expr::Int(2));
                let _ = body;
                return;
            }
            Stmt::Phase { body, .. } => truncate_staging(body),
            _ => {}
        }
    }
}

/// In a staging phase body: replace the guarded ternary load with a
/// direct load whose offset is clamped to the tensor's last element —
/// the classic "dropped tail guard" bug, expressed so the interpreter
/// stays in bounds while producing wrong tail values.
fn drop_tail_guard(stmts: &mut [Stmt], total: &Expr) {
    for s in stmts {
        match s {
            Stmt::For { body, .. } | Stmt::Phase { body, .. } => drop_tail_guard(body, total),
            Stmt::Line(items) => {
                for item in items {
                    if let LineItem::Assign {
                        target: LValue::Elem(array, _),
                        value,
                        ..
                    } = item
                    {
                        if !array.starts_with("s_") {
                            continue;
                        }
                        if let Expr::Cond(_, then, _) = value {
                            if let Expr::Index(gmem, subs) = then.as_mut() {
                                let clamped = Expr::Min(
                                    Box::new(Expr::paren(
                                        subs.first().cloned().unwrap_or(Expr::Int(0)),
                                    )),
                                    Box::new(Expr::paren(Expr::bin(
                                        BinOp::Sub,
                                        Expr::paren(total.clone()),
                                        Expr::Int(1),
                                    ))),
                                );
                                *value = Expr::Index(gmem.clone(), vec![clamped]);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// In the compute phase: shorten the in-tile k loop by one iteration.
fn corrupt_accumulation(stmts: &mut [Stmt]) {
    for s in stmts {
        match s {
            Stmt::For { limit, body, .. } => {
                if matches!(limit, Expr::Sym(n) if n == "KTILE") {
                    *limit = Expr::bin(BinOp::Sub, Expr::sym("KTILE"), Expr::Int(1));
                    return;
                }
                corrupt_accumulation(body);
            }
            Stmt::Phase { body, .. } => corrupt_accumulation(body),
            _ => {}
        }
    }
}

/// In the step loop: move the compute phase ahead of the staging phases,
/// so step 0 computes on zero-initialized tiles and every later step
/// computes on the previous step's stale tiles — what a missing
/// `__syncthreads()` between the phases allows.
fn skip_sync(stmts: &mut Vec<Stmt>) {
    let compute_at = stmts.iter().position(|s| {
        matches!(
            s,
            Stmt::Phase {
                tag: PhaseTag::Compute,
                ..
            }
        )
    });
    let first_stage = stmts.iter().position(|s| {
        matches!(
            s,
            Stmt::Phase {
                tag: PhaseTag::StageA | PhaseTag::StageB,
                ..
            }
        )
    });
    if let (Some(compute_at), Some(first_stage)) = (compute_at, first_stage) {
        if first_stage < compute_at {
            let compute = stmts.remove(compute_at);
            stmts.insert(first_stage, compute);
        }
    }
}

fn for_each_phase(stmts: &mut [Stmt], tag: PhaseTag, f: &mut impl FnMut(&mut Vec<Stmt>)) {
    for s in stmts {
        match s {
            Stmt::Phase { tag: t, body } => {
                if *t == tag {
                    f(body);
                } else {
                    for_each_phase(body, tag, f);
                }
            }
            Stmt::For { body, .. } => for_each_phase(body, tag, f),
            Stmt::If {
                body, else_body, ..
            } => {
                for_each_phase(body, tag, f);
                for_each_phase(else_body, tag, f);
            }
            _ => {}
        }
    }
}

fn step_loop_body(stmts: &mut [Stmt]) -> Option<&mut Vec<Stmt>> {
    fn has_compute(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Phase { tag, body } => *tag == PhaseTag::Compute || has_compute(body),
            Stmt::For { body, .. } => has_compute(body),
            Stmt::If {
                body, else_body, ..
            } => has_compute(body) || has_compute(else_body),
            _ => false,
        })
    }
    for s in stmts {
        match s {
            Stmt::For { body, .. } if has_compute(body) => return Some(body),
            Stmt::Phase { body, .. } => {
                if let Some(found) = step_loop_body(body) {
                    return Some(found);
                }
            }
            _ => {}
        }
    }
    None
}

/// Applies the requested dynamic faults to a copy of the program.
pub fn apply_exec_faults(prog: &KernelProgram, faults: &ExecFaults) -> KernelProgram {
    let mut out = prog.clone();
    if faults.truncate_staging {
        for_each_phase(&mut out.body, PhaseTag::StageA, &mut |b| {
            truncate_staging(b)
        });
        for_each_phase(&mut out.body, PhaseTag::StageB, &mut |b| {
            truncate_staging(b)
        });
    }
    if faults.drop_tail_guard {
        let total_a = extent_product(&prog.shapes.a);
        let total_b = extent_product(&prog.shapes.b);
        for_each_phase(&mut out.body, PhaseTag::StageA, &mut |b| {
            drop_tail_guard(b, &total_a)
        });
        for_each_phase(&mut out.body, PhaseTag::StageB, &mut |b| {
            drop_tail_guard(b, &total_b)
        });
    }
    if faults.corrupt_accumulation {
        for_each_phase(&mut out.body, PhaseTag::Compute, &mut |b| {
            corrupt_accumulation(b)
        });
    }
    if faults.skip_sync {
        if let Some(body) = step_loop_body(&mut out.body) {
            skip_sync(body);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret_plan;
    use crate::lower::lower_to_kir;
    use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
    use cogent_ir::{Contraction, SizeMap};
    use cogent_tensor::reference::{contract_reference, random_inputs};

    fn ragged_plan() -> KernelPlan {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        KernelPlan::new(
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
        .unwrap()
    }

    #[test]
    fn every_dynamic_fault_diverges_under_the_interpreter() {
        let plan = ragged_plan();
        let prog = lower_to_kir(&plan).unwrap();
        let sizes =
            SizeMap::from_pairs(plan.bindings().iter().map(|b| (b.name.as_str(), b.extent)));
        let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, 17);
        let want = contract_reference(plan.contraction(), &sizes, &a, &b);

        let clean = interpret_plan(&plan, &a, &b).unwrap();
        assert!(clean.approx_eq(&want, 1e-11));

        for (label, faults) in [
            (
                "drop_tail_guard",
                ExecFaults {
                    drop_tail_guard: true,
                    ..ExecFaults::NONE
                },
            ),
            (
                "truncate_staging",
                ExecFaults {
                    truncate_staging: true,
                    ..ExecFaults::NONE
                },
            ),
            (
                "corrupt_accumulation",
                ExecFaults {
                    corrupt_accumulation: true,
                    ..ExecFaults::NONE
                },
            ),
            (
                "skip_sync",
                ExecFaults {
                    skip_sync: true,
                    ..ExecFaults::NONE
                },
            ),
        ] {
            let faulted = apply_exec_faults(&prog, &faults);
            let got = crate::interp::interpret(&faulted, &sizes, &a, &b).unwrap();
            assert!(
                got.max_abs_diff(&want) > 1e-9,
                "fault {label} went undetected by the interpreter"
            );
        }
    }
}
