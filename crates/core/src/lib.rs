//! COGENT: a model-driven code generator for tensor contractions on GPUs.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Kim et al., *A Code Generator for High-Performance Tensor Contractions
//! on GPUs*, CGO 2019). Given an arbitrary tensor contraction and a
//! representative problem size, it
//!
//! 1. **enumerates** candidate kernel configurations — mappings of loop
//!    indices to thread-block X/Y, per-thread register tiles, and the
//!    serial contracted dimension, with tile sizes (Algorithm 2, [`enumerate`]);
//! 2. **prunes** configurations violating hardware limits (shared memory,
//!    registers, threads) or performance rules (coalescing of each
//!    tensor's fastest varying index, minimum parallelism, occupancy —
//!    §IV-A, [`constraints`]);
//! 3. **ranks** the survivors with an analytical DRAM-transaction cost
//!    model (Algorithm 3, [`cost`]) — no code is run during the search;
//! 4. **lowers** the best few to executable [`KernelPlan`]s
//!    ([`KernelConfig::lower`]), keeps the one that simulates fastest on
//!    the virtual GPU (§VI, in [`Cogent::generate`]) and **emits** the
//!    corresponding CUDA kernel and host driver ([`codegen`]).
//!
//! The front door is [`Cogent`]:
//!
//! ```
//! use cogent_core::Cogent;
//! use cogent_ir::{Contraction, SizeMap};
//!
//! // Eq. 1 of the paper.
//! let tc: Contraction = "abcd-aebf-dfce".parse()?;
//! let sizes = SizeMap::uniform(&tc, 24);
//! let generated = Cogent::new().generate(&tc, &sizes)?;
//! assert!(generated.cuda_source.contains("__global__"));
//! assert!(generated.search.enumerated > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`KernelPlan`]: cogent_gpu_sim::KernelPlan

pub mod api;
pub mod audit;
pub mod cache;
pub mod codegen;
pub mod config;
pub mod constraints;
pub mod cost;
pub mod enumerate;
pub mod guard;
pub mod intern;
pub mod library;
pub mod persist;
pub mod request;
pub mod select;
pub mod serve;

pub use api::{threads_from_env, Cogent, GeneratedKernel, THREADS_ENV_VAR};
pub use audit::{
    audit_contraction, spearman, AuditOptions, AuditReport, ConfigAudit, ContractionAudit,
    AUDIT_SCHEMA,
};
pub use cache::{CacheKey, CacheStats, KernelCache, CACHE_CAP_ENV_VAR};
pub use config::KernelConfig;
pub use constraints::{PruneReason, PruneRules};
pub use cost::transaction_cost;
pub use enumerate::{
    enumerate_configs, enumerate_configs_bounded, EnumerationBudget, EnumerationOptions,
};
pub use guard::{
    validate_plan, CogentError, PlanSource, PlanViolation, Provenance, RejectReason,
    RejectedCandidate,
};
pub use library::{KernelLibrary, KernelVersion};
pub use persist::{CachePersister, LoadReport, PersistError, SaveReport, CACHE_DIR_ENV_VAR};
pub use select::{search, RankedConfig, SearchOptions, SearchOutcome};
pub use serve::{ServeConfig, ServeError, Server};
