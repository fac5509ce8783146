//! # cogent-kir — the typed kernel IR
//!
//! A `KernelPlan` says *what* to generate (index→dimension mapping, tile
//! sizes, store mode); this crate says *how the kernel is shaped*. One
//! call to [`lower_to_kir`] turns a validated plan into a
//! [`KernelProgram`]: a typed AST of the four-phase schema from the
//! COGENT paper's Algorithm 1 — cooperative GMEM→SMEM staging,
//! SMEM→register loads, the register-tile outer product over serial
//! k-tiles, and the guarded REG→GMEM store.
//!
//! Three independent clients consume the same tree:
//!
//! - [`print_kernel`] pretty-prints it in a [`Dialect`] ([`CUDA`],
//!   [`OPENCL`], [`HIP`]) — byte-stable because every grouping decision
//!   is an explicit [`Expr::Paren`] node made at lowering time.
//! - [`interpret`] runs it in lockstep over dense tensors, giving a
//!   reference semantics for the *emitted artifact* (not just the plan)
//!   that differential tests pin against `contract_reference`.
//! - [`lint_kernel_program`] checks structural invariants — symbol
//!   discipline, barrier placement, guard coverage — on the tree itself.
//!
//! [`fault::apply_exec_faults`] rewrites the tree to model the
//! simulator's dynamic fault classes, closing the loop: the fault matrix
//! can demonstrate that each injected bug class is caught by the
//! interpreter and/or the structural lint.
//!
//! On top of the lowered tree sits the optimization layer:
//! [`pass::PassManager`] runs rewrites of the tree (vectorized staging,
//! shared-memory padding re-pitched through a [`SymLayout`], double
//! buffering), and [`traffic::estimate_traffic`] predicts each
//! variant's warp-level global-memory requests, bank-conflict replays
//! and barrier count — the numbers the `cogent audit` benefit gate
//! compares.

pub mod ast;
pub mod error;
pub mod fault;
pub mod interp;
pub mod layout;
pub mod lint;
pub mod lower;
pub mod pass;
pub mod print;
pub mod traffic;

pub use ast::{
    ArrayDecl, AssignOp, BinOp, Define, Expr, KernelMeta, KernelProgram, LValue, Launch, LineItem,
    LoopStep, MemSpace, PhaseTag, Stmt, TensorParam, TensorShapes,
};
pub use error::KirError;
pub use fault::apply_exec_faults;
pub use interp::{interpret, interpret_plan};
pub use layout::{SymLayout, SymMode};
pub use lint::{lint_kernel_program, IrLintReport};
pub use lower::{kernel_name, lower_to_kir};
pub use pass::{pipeline_from_names, Pass, PassManager, PassOutcome, PassReport};
pub use print::{ctype, print_kernel, Dialect, CUDA, HIP, OPENCL, OPENCL_FP64_PREAMBLE};
pub use traffic::{estimate_traffic, TrafficReport};
