//! A virtual GPU for tensor-contraction kernel plans.
//!
//! The COGENT paper evaluates generated CUDA on real P100/V100 GPUs. This
//! crate is the substitute substrate: it defines the [`KernelPlan`] — the
//! exact mapping/tiling structure a generated kernel embodies (Algorithm 1
//! of the paper) — and
//!
//! * **traces its DRAM traffic** ([`trace`]): enumerates the global-memory
//!   addresses each warp touches and counts aligned 128-byte transactions,
//!   the quantity the paper's cost model estimates analytically;
//! * **predicts its wall-clock time** ([`metrics`]): occupancy + traced
//!   traffic + FLOPs through the roofline model of `cogent-gpu-model`;
//! * **corrupts it on purpose** ([`fault`]): the seeded fault injector
//!   behind the guard layer's detection matrix.
//!
//! Running a plan on data is not this crate's job: `cogent-kir` lowers the
//! plan to the kernel program that is printed and interprets that program
//! (`cogent_kir::interpret_plan`).
//!
//! # Examples
//!
//! ```
//! use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
//! use cogent_ir::{Contraction, SizeMap};
//!
//! let tc: Contraction = "ij-ik-kj".parse()?;
//! let plan = KernelPlan::new(
//!     &tc,
//!     vec![
//!         IndexBinding::new("i", 32, 16, MapDim::ThreadX),
//!         IndexBinding::new("j", 32, 16, MapDim::ThreadY),
//!         IndexBinding::new("k", 32, 8, MapDim::SerialK),
//!     ],
//! )?;
//! assert_eq!(plan.threads_per_block(), 256);
//! assert_eq!(plan.num_blocks(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod access;
pub mod fault;
pub mod metrics;
pub mod plan;
pub mod smem;
pub mod trace;

pub use fault::{ExecFaults, FaultInjector, FaultKind};
pub use metrics::{simulate, SimReport};
pub use plan::{IndexBinding, KernelPlan, MapDim, PlanError, StoreMode};
pub use smem::{analyze_bank_conflicts, BankConflictReport};
pub use trace::{trace_transactions, TraceOptions, TraceReport};
