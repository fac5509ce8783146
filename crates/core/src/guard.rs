//! cogent-guard: plan validation, numeric divergence checking, and the
//! structured error taxonomy behind the graceful-degradation ladder.
//!
//! COGENT's pruner (§IV of the paper) guarantees by construction that
//! every surviving configuration respects the device's shared-memory,
//! register, and thread-count limits. This module is the *trust but
//! verify* counterpart: [`validate_plan`] re-checks every invariant the
//! pruner assumes directly on the lowered [`KernelPlan`], so a bug
//! anywhere upstream (enumeration, pruning, lowering, or a caller
//! hand-building plans) is caught before the plan reaches simulation or
//! code emission. [`divergence_check`] closes the remaining gap — a plan
//! can be resource-legal yet compute the wrong answer — by executing the
//! plan functionally on small random inputs and comparing against the
//! reference contraction.
//!
//! On top of the two checks sits the degradation ladder used by
//! `Cogent::generate`: walk the ranked configurations until one passes,
//! and when none does, fall back to [`naive_plan`] — one thread per
//! output element, tile size 1 everywhere except the output's fastest
//! varying index — which is safe for any contraction the device can
//! address. Every decision is recorded in [`Provenance`] and mirrored
//! into `guard.*` observability counters.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim, PlanError, StoreMode};
use cogent_gpu_sim::{try_execute_plan, ExecError};
use cogent_ir::{Contraction, ContractionAnalysis, IndexClass, IndexName, SizeMap};
use cogent_kir::KernelProgram;
use cogent_tensor::reference::{contract_reference, random_inputs};

use crate::config::KernelConfig;

/// CUDA's grid launch limit along `x`: \(2^{31} - 1\) blocks. Plans are
/// launched with a 1-D grid (the linear block id is decomposed in the
/// kernel), so the total block count must stay below this.
pub const MAX_GRID_BLOCKS: u128 = (1 << 31) - 1;

/// One invariant a kernel plan violates.
///
/// [`validate_plan`] returns *all* violations it finds, not just the
/// first, so diagnostics (and the `guard.violation.*` counters) show the
/// complete failure picture for a rejected candidate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanViolation {
    /// A contraction index has no binding.
    UnboundIndex {
        /// The index the plan fails to bind.
        index: IndexName,
    },
    /// A binding names an index the contraction does not use.
    ForeignIndex {
        /// The unknown index.
        index: IndexName,
    },
    /// An index is bound more than once.
    DuplicateBinding {
        /// The index bound twice.
        index: IndexName,
    },
    /// A tile size is zero or exceeds its index's (padded) extent.
    TileOutOfRange {
        /// The offending index.
        index: IndexName,
        /// The tile size given.
        tile: usize,
        /// The index's extent.
        extent: usize,
    },
    /// A grid-mapped index has a tile size other than one.
    GridTileNotOne {
        /// The offending index.
        index: IndexName,
        /// The tile size given.
        tile: usize,
    },
    /// An index is mapped to a hardware dimension its class forbids.
    BadMapping {
        /// The offending index.
        index: IndexName,
        /// The dimension it was mapped to.
        dim: MapDim,
    },
    /// The staged tiles exceed the device's shared memory per block.
    SharedMemoryExceeded {
        /// Bytes the plan would stage.
        required: u128,
        /// The device limit.
        limit: usize,
    },
    /// The estimated register footprint exceeds the per-thread limit.
    RegistersExceeded {
        /// Registers the plan would use per thread.
        required: u128,
        /// The device limit.
        limit: usize,
    },
    /// The block shape exceeds the device's threads-per-block limit.
    ThreadsExceeded {
        /// Threads the plan would launch per block.
        required: u128,
        /// The device limit.
        limit: usize,
    },
    /// The grid exceeds the CUDA launch limit.
    GridExceeded {
        /// Blocks the plan would launch.
        blocks: u128,
        /// The launch limit ([`MAX_GRID_BLOCKS`]).
        limit: u128,
    },
    /// The plan's store mode differs from the requested one.
    StoreModeMismatch {
        /// The mode the caller asked for.
        expected: StoreMode,
        /// The mode the plan carries.
        actual: StoreMode,
    },
    /// Functional execution of the plan diverged from the reference
    /// contraction.
    NumericDivergence {
        /// Largest absolute element difference observed.
        max_abs_diff: f64,
    },
    /// Functional execution failed outright.
    ExecutionFailed {
        /// The executor's message.
        detail: String,
    },
}

impl PlanViolation {
    /// The observability counter bumped when this violation is recorded.
    pub fn counter_key(&self) -> &'static str {
        match self {
            PlanViolation::UnboundIndex { .. } => "guard.violation.unbound_index",
            PlanViolation::ForeignIndex { .. } => "guard.violation.foreign_index",
            PlanViolation::DuplicateBinding { .. } => "guard.violation.duplicate_binding",
            PlanViolation::TileOutOfRange { .. } => "guard.violation.tile_out_of_range",
            PlanViolation::GridTileNotOne { .. } => "guard.violation.grid_tile_not_one",
            PlanViolation::BadMapping { .. } => "guard.violation.bad_mapping",
            PlanViolation::SharedMemoryExceeded { .. } => "guard.violation.shared_memory",
            PlanViolation::RegistersExceeded { .. } => "guard.violation.registers",
            PlanViolation::ThreadsExceeded { .. } => "guard.violation.threads",
            PlanViolation::GridExceeded { .. } => "guard.violation.grid",
            PlanViolation::StoreModeMismatch { .. } => "guard.violation.store_mode",
            PlanViolation::NumericDivergence { .. } => "guard.violation.numeric_divergence",
            PlanViolation::ExecutionFailed { .. } => "guard.violation.execution_failed",
        }
    }
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::UnboundIndex { index } => {
                write!(f, "contraction index {index} has no binding")
            }
            PlanViolation::ForeignIndex { index } => {
                write!(f, "binding {index} is not an index of the contraction")
            }
            PlanViolation::DuplicateBinding { index } => {
                write!(f, "index {index} is bound more than once")
            }
            PlanViolation::TileOutOfRange {
                index,
                tile,
                extent,
            } => write!(f, "tile {tile} for index {index} is outside 1..={extent}"),
            PlanViolation::GridTileNotOne { index, tile } => {
                write!(f, "grid-mapped index {index} has tile {tile}, want 1")
            }
            PlanViolation::BadMapping { index, dim } => {
                write!(f, "index {index} cannot map to {dim}")
            }
            PlanViolation::SharedMemoryExceeded { required, limit } => write!(
                f,
                "plan stages {required} B of shared memory, device allows {limit} B per block"
            ),
            PlanViolation::RegistersExceeded { required, limit } => write!(
                f,
                "plan needs ~{required} registers per thread, device allows {limit}"
            ),
            PlanViolation::ThreadsExceeded { required, limit } => write!(
                f,
                "plan launches {required} threads per block, device allows {limit}"
            ),
            PlanViolation::GridExceeded { blocks, limit } => {
                write!(f, "plan launches {blocks} blocks, launch limit is {limit}")
            }
            PlanViolation::StoreModeMismatch { expected, actual } => write!(
                f,
                "plan stores with {actual:?}, caller requested {expected:?}"
            ),
            PlanViolation::NumericDivergence { max_abs_diff } => write!(
                f,
                "functional execution diverged from the reference by {max_abs_diff:e}"
            ),
            PlanViolation::ExecutionFailed { detail } => {
                write!(f, "functional execution failed: {detail}")
            }
        }
    }
}

/// Re-checks every device and structural invariant the pruner assumes,
/// directly on a lowered plan. Returns all violations found.
///
/// The checks never panic and never overflow, whatever the plan's tile
/// and extent values: products are computed in `u128` with saturation, a
/// tile of zero is treated as one for the derived-quantity checks (it is
/// already reported as [`PlanViolation::TileOutOfRange`]), and indices
/// missing a binding are skipped in resource sums (already reported as
/// [`PlanViolation::UnboundIndex`]).
///
/// # Errors
///
/// The complete list of violations, when any invariant fails.
///
/// # Examples
///
/// ```
/// use cogent_core::guard::validate_plan;
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
/// use cogent_ir::Contraction;
///
/// let tc: Contraction = "ij-ik-kj".parse()?;
/// let plan = KernelPlan::new(
///     &tc,
///     vec![
///         IndexBinding::new("i", 64, 16, MapDim::ThreadX),
///         IndexBinding::new("j", 64, 16, MapDim::ThreadY),
///         IndexBinding::new("k", 64, 8, MapDim::SerialK),
///     ],
/// )?;
/// assert!(validate_plan(&plan, &GpuDevice::v100(), Precision::F64).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn validate_plan(
    plan: &KernelPlan,
    device: &GpuDevice,
    precision: Precision,
) -> Result<(), Vec<PlanViolation>> {
    let mut violations = Vec::new();
    let tc = plan.contraction();
    let analysis = ContractionAnalysis::new(tc);

    // Coverage: every contraction index bound exactly once, no strays.
    let mut bound_count: BTreeMap<&str, usize> = BTreeMap::new();
    for b in plan.bindings() {
        *bound_count.entry(b.name.as_str()).or_insert(0) += 1;
    }
    for idx in tc.all_indices() {
        match bound_count.get(idx.as_str()) {
            None => violations.push(PlanViolation::UnboundIndex { index: idx.clone() }),
            Some(n) if *n > 1 => {
                violations.push(PlanViolation::DuplicateBinding { index: idx.clone() })
            }
            _ => {}
        }
    }

    // Per-binding: classification, tile range, mapping legality.
    for b in plan.bindings() {
        let class = analysis.classify(&b.name);
        if class.is_none() {
            violations.push(PlanViolation::ForeignIndex {
                index: b.name.clone(),
            });
        }
        if b.tile == 0 || b.tile > b.extent {
            violations.push(PlanViolation::TileOutOfRange {
                index: b.name.clone(),
                tile: b.tile,
                extent: b.extent,
            });
        }
        let legal = match (b.dim, class) {
            (_, None) => true, // already reported as ForeignIndex
            (MapDim::ThreadX | MapDim::RegX, Some(c)) => c == IndexClass::ExternalA,
            (MapDim::ThreadY | MapDim::RegY, Some(c)) => c == IndexClass::ExternalB,
            (MapDim::SerialK, Some(c)) => c == IndexClass::Internal,
            (MapDim::Grid, Some(c)) => c != IndexClass::Internal,
        };
        if !legal {
            violations.push(PlanViolation::BadMapping {
                index: b.name.clone(),
                dim: b.dim,
            });
        }
        if b.dim == MapDim::Grid && b.tile != 1 {
            violations.push(PlanViolation::GridTileNotOne {
                index: b.name.clone(),
                tile: b.tile,
            });
        }
    }

    let wide_product = |tiles: &mut dyn Iterator<Item = usize>| {
        tiles.fold(1u128, |acc, t| acc.saturating_mul(t.max(1) as u128))
    };

    // Threads per block.
    let threads = wide_product(
        &mut plan
            .group_bindings(MapDim::ThreadX)
            .chain(plan.group_bindings(MapDim::ThreadY))
            .map(|b| b.tile),
    );
    if threads > device.max_threads_per_block as u128 {
        violations.push(PlanViolation::ThreadsExceeded {
            required: threads,
            limit: device.max_threads_per_block,
        });
    }

    // Shared memory: staged A and B tiles. Computed here rather than via
    // `KernelPlan::smem_bytes` so unbound indices are skipped instead of
    // panicking and huge tiles saturate instead of overflowing.
    let staged = |indices: &[IndexName]| {
        wide_product(&mut indices.iter().filter_map(|i| {
            plan.bindings()
                .iter()
                .find(|b| b.name == *i)
                .map(|b| b.tile)
        }))
    };
    let smem = (staged(tc.a().indices()).saturating_add(staged(tc.b().indices())))
        .saturating_mul(precision.bytes() as u128);
    if smem > device.smem_per_block_bytes as u128 {
        violations.push(PlanViolation::SharedMemoryExceeded {
            required: smem,
            limit: device.smem_per_block_bytes,
        });
    }

    // Registers per thread (same model as `KernelPlan::registers_per_thread`).
    let rx = wide_product(&mut plan.group_bindings(MapDim::RegX).map(|b| b.tile));
    let ry = wide_product(&mut plan.group_bindings(MapDim::RegY).map(|b| b.tile));
    let words = precision.bytes().div_ceil(4) as u128;
    let registers = rx
        .saturating_mul(ry)
        .saturating_add(rx)
        .saturating_add(ry)
        .saturating_mul(words)
        .saturating_add(24);
    if registers > device.max_registers_per_thread as u128 {
        violations.push(PlanViolation::RegistersExceeded {
            required: registers,
            limit: device.max_registers_per_thread,
        });
    }

    // Grid launch limit.
    let blocks = plan.external_bindings_c_order().fold(1u128, |acc, b| {
        acc.saturating_mul((b.extent.div_ceil(b.tile.max(1))).max(1) as u128)
    });
    if blocks > MAX_GRID_BLOCKS {
        violations.push(PlanViolation::GridExceeded {
            blocks,
            limit: MAX_GRID_BLOCKS,
        });
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// [`validate_plan`] plus the store-mode consistency check applied to
/// plans about to be handed to the user.
///
/// # Errors
///
/// The complete list of violations, when any invariant fails.
pub fn validate_generated(
    plan: &KernelPlan,
    device: &GpuDevice,
    precision: Precision,
    expected: StoreMode,
) -> Result<(), Vec<PlanViolation>> {
    let mut violations = match validate_plan(plan, device, precision) {
        Ok(()) => Vec::new(),
        Err(v) => v,
    };
    if plan.store_mode() != expected {
        violations.push(PlanViolation::StoreModeMismatch {
            expected,
            actual: plan.store_mode(),
        });
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Bumps one `guard.violation.*` counter per violation (no-op when
/// tracing is disabled).
pub fn record_violations(violations: &[PlanViolation]) {
    for v in violations {
        cogent_obs::counter(v.counter_key(), 1);
    }
}

/// Executes `plan` functionally on small random inputs and compares
/// against the reference contraction, in two layers:
///
/// 1. the fast plan-level executor at the plan's own extents, and
/// 2. the kernel-IR interpreter running `prog` — the program lowered from
///    `plan` with the configured passes, i.e. the kernel that is printed —
///    at tile-clamped extents (each extent cut to `tile + 1`), which is
///    cheap but exercises every partial-tile guard, vector fallback and
///    prefetch in the emitted artifact.
///
/// # Errors
///
/// [`PlanViolation::ExecutionFailed`] when the executor or the
/// interpreter rejects the operands, [`PlanViolation::NumericDivergence`]
/// when the largest absolute element difference exceeds `tolerance`.
pub fn divergence_check(
    plan: &KernelPlan,
    prog: &KernelProgram,
    seed: u64,
    tolerance: f64,
) -> Result<(), PlanViolation> {
    let sizes = SizeMap::from_pairs(plan.bindings().iter().map(|b| (b.name.as_str(), b.extent)));
    let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, seed);
    let got = try_execute_plan(plan, &a, &b).map_err(|e| PlanViolation::ExecutionFailed {
        detail: e.to_string(),
    })?;
    let want = contract_reference(plan.contraction(), &sizes, &a, &b);
    let max_abs_diff = got.max_abs_diff(&want);
    if max_abs_diff > tolerance {
        return Err(PlanViolation::NumericDivergence { max_abs_diff });
    }

    let sizes = SizeMap::from_pairs(
        plan.bindings()
            .iter()
            .map(|b| (b.name.as_str(), b.extent.min(b.tile + 1))),
    );
    let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, seed.wrapping_add(1));
    let got = cogent_kir::interpret(prog, &sizes, &a, &b).map_err(|e| {
        PlanViolation::ExecutionFailed {
            detail: format!("kernel IR interpreter: {e}"),
        }
    })?;
    let want = contract_reference(plan.contraction(), &sizes, &a, &b);
    let max_abs_diff = got.max_abs_diff(&want);
    if max_abs_diff > tolerance {
        Err(PlanViolation::NumericDivergence { max_abs_diff })
    } else {
        Ok(())
    }
}

/// The guaranteed-safe fallback plan: the output's fastest varying index
/// gets a thread dimension of at most one warp, every other external and
/// batch index is grid-mapped, internals are walked one element per step.
/// No register tiles, at most 32·`TBk` staged elements — within limits on
/// any real device.
///
/// Mirrors the `NaiveDirect` baseline's plan so the fallback's behavior
/// matches the performance floor reported by the baseline suite.
///
/// # Errors
///
/// [`CogentError::IncompleteSizes`] when `sizes` misses an index.
pub fn naive_plan(tc: &Contraction, sizes: &SizeMap) -> Result<KernelPlan, CogentError> {
    let tc = tc.normalized();
    let missing: Vec<IndexName> = tc
        .all_indices()
        .filter(|i| sizes.extent(i).is_none())
        .cloned()
        .collect();
    if !missing.is_empty() {
        return Err(CogentError::IncompleteSizes { missing });
    }
    let analysis = ContractionAnalysis::new(&tc);
    let c_fvi = tc.c().fvi().clone();
    let mut bindings = Vec::new();
    for idx in tc.external_indices() {
        let extent = sizes.extent_of(idx);
        if *idx == c_fvi {
            bindings.push(IndexBinding::new(
                idx.clone(),
                extent,
                extent.min(32),
                MapDim::ThreadX,
            ));
        } else {
            bindings.push(IndexBinding::new(idx.clone(), extent, 1, MapDim::Grid));
        }
    }
    for idx in tc.batch_indices() {
        bindings.push(IndexBinding::new(
            idx.clone(),
            sizes.extent_of(idx),
            1,
            MapDim::Grid,
        ));
    }
    for idx in analysis.internals() {
        bindings.push(IndexBinding::new(
            idx.clone(),
            sizes.extent_of(idx),
            1,
            MapDim::SerialK,
        ));
    }
    KernelPlan::new(&tc, bindings).map_err(CogentError::Plan)
}

/// The [`KernelConfig`] describing a plan's mapping (grid-mapped indices
/// are omitted, matching the config convention). Used to report the
/// fallback plan in `GeneratedKernel::config`.
pub fn naive_config(plan: &KernelPlan) -> KernelConfig {
    let mapped = |dim: MapDim| {
        plan.group_bindings(dim)
            .map(|b| (b.name.clone(), b.tile))
            .collect()
    };
    KernelConfig {
        tbx: mapped(MapDim::ThreadX),
        regx: mapped(MapDim::RegX),
        tby: mapped(MapDim::ThreadY),
        regy: mapped(MapDim::RegY),
        tbk: mapped(MapDim::SerialK),
    }
}

/// Where the returned kernel came from.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanSource {
    /// A ranked search candidate (0 = the cost model's first choice).
    Search {
        /// Rank of the candidate in the model's ordering.
        model_rank: usize,
    },
    /// The guaranteed-safe naive fallback: every ranked candidate was
    /// rejected.
    NaiveFallback,
}

/// Why one ranked candidate was passed over.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// Lowering the configuration to a plan failed.
    Lowering(PlanError),
    /// The lowered plan failed [`validate_generated`].
    Invalid(Vec<PlanViolation>),
    /// The plan failed the numeric [`divergence_check`].
    Divergence {
        /// Largest absolute element difference observed.
        max_abs_diff: f64,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Lowering(e) => write!(f, "lowering failed: {e}"),
            RejectReason::Invalid(vs) => {
                write!(f, "validation failed: ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            RejectReason::Divergence { max_abs_diff } => {
                write!(f, "numeric divergence of {max_abs_diff:e}")
            }
        }
    }
}

/// One candidate the ladder rejected on the way to the returned kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedCandidate {
    /// Rank of the candidate in the cost model's ordering.
    pub model_rank: usize,
    /// Why it was passed over.
    pub reason: RejectReason,
}

/// Degradation report attached to every generated kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Where the returned plan came from.
    pub source: PlanSource,
    /// Candidates rejected before it, in rank order.
    pub rejected: Vec<RejectedCandidate>,
    /// Whether the returned plan passed the numeric divergence check.
    pub numeric_verified: bool,
    /// KIR optimization passes applied to the emitted kernel, in
    /// application order (empty for the baseline emission).
    pub passes: Vec<String>,
}

impl Provenance {
    /// Whether generation degraded: candidates were rejected or the
    /// naive fallback was used.
    pub fn degraded(&self) -> bool {
        !self.rejected.is_empty() || self.source == PlanSource::NaiveFallback
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            PlanSource::Search { model_rank } if self.rejected.is_empty() => {
                write!(f, "search candidate (model rank {model_rank})")
            }
            PlanSource::Search { model_rank } => write!(
                f,
                "degraded: search candidate (model rank {model_rank}) after {} rejected candidate(s)",
                self.rejected.len()
            ),
            PlanSource::NaiveFallback => write!(
                f,
                "degraded: naive fallback plan after {} rejected candidate(s)",
                self.rejected.len()
            ),
        }?;
        if !self.passes.is_empty() {
            write!(f, "; passes: {}", self.passes.join(", "))?;
        }
        Ok(())
    }
}

/// Structured error for the generation pipeline.
///
/// Replaces the former two-variant `GenerateError`: every failure mode is
/// typed, and inner causes are chained through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CogentError {
    /// The size map misses extents for some contraction indices.
    IncompleteSizes {
        /// The indices without extents, in contraction order.
        missing: Vec<IndexName>,
    },
    /// Enumeration and progressive rule relaxation produced no
    /// configuration.
    NoConfiguration,
    /// Every candidate — including the naive fallback — was rejected.
    NoViablePlan {
        /// The violations that rejected the final fallback.
        violations: Vec<PlanViolation>,
    },
    /// A plan-construction error.
    Plan(PlanError),
    /// A functional-execution error.
    Exec(ExecError),
    /// The enumeration budget was exhausted before any configuration was
    /// produced.
    BudgetExhausted {
        /// The configured cap on enumerated configurations.
        max_configs: usize,
        /// The configured wall-clock budget, if any.
        time_budget: Option<Duration>,
    },
    /// [`KernelLibrary::build`](crate::library::KernelLibrary::build) was
    /// given an empty representative-size slate.
    NoRepresentatives,
    /// A `--passes` list named a pass the KIR pipeline does not know.
    UnknownPass {
        /// The offending pass name.
        name: String,
    },
    /// A KIR optimization pass failed on the lowered program.
    PassFailed {
        /// The pass's own diagnostic.
        detail: String,
    },
}

impl fmt::Display for CogentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CogentError::IncompleteSizes { missing } => {
                write!(f, "size map is missing extents for:")?;
                for idx in missing {
                    write!(f, " {idx}")?;
                }
                Ok(())
            }
            CogentError::NoConfiguration => {
                f.write_str("no kernel configuration found even after relaxing rules")
            }
            CogentError::NoViablePlan { violations } => {
                write!(
                    f,
                    "no viable plan: even the naive fallback was rejected ({} violation(s))",
                    violations.len()
                )
            }
            CogentError::Plan(e) => write!(f, "plan construction failed: {e}"),
            CogentError::Exec(e) => write!(f, "functional execution failed: {e}"),
            CogentError::BudgetExhausted {
                max_configs,
                time_budget,
            } => {
                write!(f, "enumeration budget (max_configs={max_configs}")?;
                if let Some(t) = time_budget {
                    write!(f, ", time_budget={t:?}")?;
                }
                f.write_str(") exhausted before any configuration was produced")
            }
            CogentError::NoRepresentatives => {
                f.write_str("kernel library needs at least one representative size")
            }
            CogentError::UnknownPass { name } => {
                write!(
                    f,
                    "unknown KIR pass {name:?} (expected vectorize-loads, smem-pad or double-buffer)"
                )
            }
            CogentError::PassFailed { detail } => {
                write!(f, "KIR pass pipeline failed: {detail}")
            }
        }
    }
}

impl Error for CogentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CogentError::Plan(e) => Some(e),
            CogentError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for CogentError {
    fn from(e: PlanError) -> Self {
        CogentError::Plan(e)
    }
}

impl From<ExecError> for CogentError {
    fn from(e: ExecError) -> Self {
        CogentError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogent_gpu_sim::{FaultInjector, FaultKind};

    fn fig2_plan() -> KernelPlan {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("a", 16, 8, MapDim::ThreadX),
                IndexBinding::new("b", 16, 4, MapDim::RegX),
                IndexBinding::new("c", 16, 8, MapDim::ThreadY),
                IndexBinding::new("d", 16, 4, MapDim::RegY),
                IndexBinding::new("e", 16, 4, MapDim::SerialK),
                IndexBinding::new("f", 16, 2, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_plan_passes() {
        let plan = fig2_plan();
        assert!(validate_plan(&plan, &GpuDevice::v100(), Precision::F64).is_ok());
        assert!(validate_plan(&plan, &GpuDevice::p100(), Precision::F32).is_ok());
    }

    #[test]
    fn every_static_fault_is_rejected() {
        let plan = fig2_plan();
        let device = GpuDevice::v100();
        for kind in FaultKind::ALL.into_iter().filter(|k| k.is_static()) {
            let corrupted = FaultInjector::new(3).inject_plan(&plan, kind);
            let violations = validate_plan(&corrupted, &device, Precision::F64)
                .expect_err(&format!("{} passed validation", kind.name()));
            assert!(!violations.is_empty());
        }
    }

    #[test]
    fn violations_accumulate() {
        let plan = fig2_plan();
        let mut inj = FaultInjector::new(5);
        let mut corrupted = inj.inject_plan(&plan, FaultKind::OversizedTile);
        corrupted = inj.inject_plan(&corrupted, FaultKind::SmemOverflow);
        let violations = validate_plan(&corrupted, &GpuDevice::v100(), Precision::F64).unwrap_err();
        assert!(violations.len() >= 2, "{violations:?}");
    }

    #[test]
    fn store_mode_mismatch_is_flagged() {
        let plan = fig2_plan();
        let err = validate_generated(
            &plan,
            &GpuDevice::v100(),
            Precision::F64,
            StoreMode::Accumulate,
        )
        .unwrap_err();
        assert!(matches!(
            err.as_slice(),
            [PlanViolation::StoreModeMismatch { .. }]
        ));
    }

    #[test]
    fn grid_limit_is_enforced() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 3_000_000, 1, MapDim::ThreadX),
                IndexBinding::new("j", 3_000_000, 1, MapDim::ThreadY),
                IndexBinding::new("k", 4, 1, MapDim::SerialK),
            ],
        )
        .unwrap();
        let violations = validate_plan(&plan, &GpuDevice::v100(), Precision::F64).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, PlanViolation::GridExceeded { .. })));
    }

    #[test]
    fn divergence_check_accepts_correct_plan() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 9, 4, MapDim::ThreadX),
                IndexBinding::new("j", 7, 4, MapDim::ThreadY),
                IndexBinding::new("k", 5, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        let prog = cogent_kir::lower_to_kir(&plan).unwrap();
        assert!(divergence_check(&plan, &prog, 11, 1e-10).is_ok());
    }

    /// The gate interprets the program it is handed, not a fresh lowering
    /// of the plan: a corrupted program over a correct plan is rejected.
    #[test]
    fn divergence_check_rejects_a_corrupted_program() {
        use cogent_gpu_sim::ExecFaults;
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 9, 4, MapDim::ThreadX),
                IndexBinding::new("j", 7, 4, MapDim::ThreadY),
                IndexBinding::new("k", 5, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        let prog = cogent_kir::lower_to_kir(&plan).unwrap();
        let faulted = cogent_kir::apply_exec_faults(
            &prog,
            &ExecFaults {
                corrupt_accumulation: true,
                ..ExecFaults::NONE
            },
        );
        assert!(matches!(
            divergence_check(&plan, &faulted, 11, 1e-10),
            Err(PlanViolation::NumericDivergence { .. })
        ));
    }

    #[test]
    fn divergence_check_rejects_everything_at_negative_tolerance() {
        let plan = fig2_plan();
        let prog = cogent_kir::lower_to_kir(&plan).unwrap();
        assert!(matches!(
            divergence_check(&plan, &prog, 11, -1.0),
            Err(PlanViolation::NumericDivergence { .. })
        ));
    }

    #[test]
    fn naive_plan_is_always_viable() {
        // Small extents: the divergence check runs the full functional
        // executor, which is O(product of extents) in a debug build.
        for eq in ["ij-ik-kj", "abcd-aebf-dfce", "abc-bda-dc"] {
            let tc: Contraction = eq.parse().unwrap();
            let sizes = SizeMap::uniform(&tc, 6);
            let plan = naive_plan(&tc, &sizes).unwrap();
            assert!(validate_plan(&plan, &GpuDevice::v100(), Precision::F64).is_ok());
            let prog = cogent_kir::lower_to_kir(&plan).unwrap();
            assert!(divergence_check(&plan, &prog, 1, 1e-9).is_ok());
        }
    }

    #[test]
    fn naive_plan_reports_missing_sizes() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 8)]);
        let err = naive_plan(&tc, &sizes).unwrap_err();
        assert!(matches!(err, CogentError::IncompleteSizes { ref missing }
            if missing.len() == 2));
    }

    #[test]
    fn naive_config_round_trips_the_plan() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 20);
        let plan = naive_plan(&tc, &sizes).unwrap();
        let cfg = naive_config(&plan);
        assert_eq!(cfg.threads_per_block(), plan.threads_per_block());
        assert_eq!(cfg.outputs_per_thread(), plan.outputs_per_thread());
    }

    #[test]
    fn error_sources_chain() {
        let plan_err = PlanError::GridTileNotOne { index: "i".into() };
        let err = CogentError::from(plan_err.clone());
        assert_eq!(err.source().unwrap().to_string(), plan_err.to_string());
        assert!(CogentError::NoConfiguration.source().is_none());
    }

    #[test]
    fn provenance_reports_degradation() {
        let clean = Provenance {
            source: PlanSource::Search { model_rank: 0 },
            rejected: Vec::new(),
            numeric_verified: true,
            passes: Vec::new(),
        };
        assert!(!clean.degraded());
        let degraded = Provenance {
            source: PlanSource::NaiveFallback,
            rejected: vec![RejectedCandidate {
                model_rank: 0,
                reason: RejectReason::Divergence { max_abs_diff: 1.0 },
            }],
            numeric_verified: false,
            passes: vec!["smem-pad".into()],
        };
        assert!(degraded.degraded());
        assert!(degraded.to_string().contains("naive fallback"));
        assert!(degraded.to_string().contains("passes: smem-pad"));
    }
}
