//! Seeded fault injection for kernel plans.
//!
//! The guard subsystem (`cogent-core`'s plan validator plus the numeric
//! divergence check against the reference contraction) claims that no
//! broken plan produces a silent wrong answer: *static* faults — plans
//! violating a device or structural invariant — are rejected before any
//! execution, and *dynamic* faults — a kernel whose generated code
//! misbehaves at runtime — change the computed output enough for the
//! divergence check to flag them. This module provides the vocabulary
//! that makes the claim testable: a deterministic [`FaultInjector`] that
//! corrupts validated plans in controlled ways, and [`ExecFaults`], the
//! dynamic misbehaviors that `cogent_kir::apply_exec_faults` writes into
//! a lowered kernel program.
//!
//! Every fault class in [`FaultKind`] maps to exactly one detection layer
//! (`FaultKind::is_static`), so a table-driven test can assert the full
//! detection matrix.

use cogent_ir::IndexName;

use crate::plan::{KernelPlan, MapDim};

/// The classes of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A tile size larger than its index's extent (static).
    OversizedTile,
    /// A tile blown up until the staged slices exceed the device's shared
    /// memory per block (static).
    SmemOverflow,
    /// A thread-dimension tile blown up past the threads-per-block limit
    /// (static).
    ThreadOverflow,
    /// A register-tile size blown up past the per-thread register budget
    /// (static).
    RegisterOverflow,
    /// A binding renamed to an index the contraction does not use, leaving
    /// a contraction index unbound (static).
    ForeignIndex,
    /// The staging bounds guard removed: out-of-bounds tail positions read
    /// clamped boundary data instead of zeros (dynamic).
    DroppedTailGuard,
    /// Shared-memory staging stops halfway through each tile (dynamic).
    TruncatedStaging,
    /// The register-tile accumulation drops the last serial in-tile
    /// iteration (dynamic).
    CorruptedAccumulation,
    /// A missing sync point: every compute phase reads the *previous*
    /// step's shared-memory tiles (dynamic).
    SkippedSync,
}

impl FaultKind {
    /// Every fault class, static kinds first.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::OversizedTile,
        FaultKind::SmemOverflow,
        FaultKind::ThreadOverflow,
        FaultKind::RegisterOverflow,
        FaultKind::ForeignIndex,
        FaultKind::DroppedTailGuard,
        FaultKind::TruncatedStaging,
        FaultKind::CorruptedAccumulation,
        FaultKind::SkippedSync,
    ];

    /// Whether the fault lives in the plan itself (and must be caught by
    /// the static plan validator) rather than in execution behavior (to be
    /// caught by the numeric divergence check).
    pub fn is_static(self) -> bool {
        matches!(
            self,
            FaultKind::OversizedTile
                | FaultKind::SmemOverflow
                | FaultKind::ThreadOverflow
                | FaultKind::RegisterOverflow
                | FaultKind::ForeignIndex
        )
    }

    /// Stable lowercase name (used in test diagnostics and counters).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::OversizedTile => "oversized_tile",
            FaultKind::SmemOverflow => "smem_overflow",
            FaultKind::ThreadOverflow => "thread_overflow",
            FaultKind::RegisterOverflow => "register_overflow",
            FaultKind::ForeignIndex => "foreign_index",
            FaultKind::DroppedTailGuard => "dropped_tail_guard",
            FaultKind::TruncatedStaging => "truncated_staging",
            FaultKind::CorruptedAccumulation => "corrupted_accumulation",
            FaultKind::SkippedSync => "skipped_sync",
        }
    }
}

/// Which execution-level misbehaviors are switched on. All off by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecFaults {
    /// Clamp instead of zero-fill out-of-bounds staged positions.
    pub drop_tail_guard: bool,
    /// Stage only the first half of each shared-memory tile.
    pub truncate_staging: bool,
    /// Drop the last serial in-tile iteration of the accumulation.
    pub corrupt_accumulation: bool,
    /// Compute on the previous step's shared-memory tiles.
    pub skip_sync: bool,
}

impl ExecFaults {
    /// No faults: normal execution.
    pub const NONE: ExecFaults = ExecFaults {
        drop_tail_guard: false,
        truncate_staging: false,
        corrupt_accumulation: false,
        skip_sync: false,
    };

    /// The fault set exercising one dynamic [`FaultKind`]. Static kinds
    /// map to [`ExecFaults::NONE`] (they never reach execution).
    pub fn for_kind(kind: FaultKind) -> Self {
        let mut f = ExecFaults::NONE;
        match kind {
            FaultKind::DroppedTailGuard => f.drop_tail_guard = true,
            FaultKind::TruncatedStaging => f.truncate_staging = true,
            FaultKind::CorruptedAccumulation => f.corrupt_accumulation = true,
            FaultKind::SkippedSync => f.skip_sync = true,
            _ => {}
        }
        f
    }
}

/// Deterministic plan corrupter: the same seed and fault kind applied to
/// the same plan always produce the same corrupted plan, so detection
/// failures reproduce exactly.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// Creates an injector from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// SplitMix64 step.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Index of a randomly chosen binding mapped to one of `dims`, falling
    /// back to a uniformly random binding when no group member exists.
    fn pick_binding(&mut self, plan: &KernelPlan, dims: &[MapDim]) -> usize {
        let candidates: Vec<usize> = plan
            .bindings()
            .iter()
            .enumerate()
            .filter(|(_, b)| dims.contains(&b.dim))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            self.pick(plan.bindings().len())
        } else {
            candidates[self.pick(candidates.len())]
        }
    }

    /// Returns a copy of `plan` corrupted according to a *static*
    /// [`FaultKind`], bypassing [`KernelPlan::new`] validation. Dynamic
    /// kinds return the plan unchanged (their fault lives in execution;
    /// see [`ExecFaults::for_kind`]).
    pub fn inject_plan(&mut self, plan: &KernelPlan, kind: FaultKind) -> KernelPlan {
        let mut out = plan.clone();
        match kind {
            FaultKind::OversizedTile => {
                let pos = self.pick(out.bindings().len());
                let extent = out.bindings()[pos].extent;
                out.set_tile_raw(pos, extent + 1 + self.pick(7));
            }
            FaultKind::SmemOverflow => {
                // Any staged index works: one 2^17-element tile dimension
                // alone exceeds every real device's smem per block.
                let pos = self.pick_binding(plan, &[MapDim::SerialK, MapDim::ThreadX]);
                out.set_tile_raw(pos, 1 << 17);
            }
            FaultKind::ThreadOverflow => {
                let pos = self.pick_binding(plan, &[MapDim::ThreadX, MapDim::ThreadY]);
                out.set_tile_raw(pos, 4096);
            }
            FaultKind::RegisterOverflow => {
                let pos = self.pick_binding(plan, &[MapDim::RegX, MapDim::RegY]);
                out.set_tile_raw(pos, 1024);
            }
            FaultKind::ForeignIndex => {
                let pos = self.pick(out.bindings().len());
                out.rename_binding_raw(pos, IndexName::new("zz_fault"));
            }
            _ => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IndexBinding;
    use cogent_ir::Contraction;

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
    fn injector_is_deterministic() {
        let plan = ragged_plan();
        for kind in FaultKind::ALL {
            let one = FaultInjector::new(42).inject_plan(&plan, kind);
            let two = FaultInjector::new(42).inject_plan(&plan, kind);
            assert_eq!(one, two, "{}", kind.name());
        }
    }

    #[test]
    fn static_faults_break_a_plan_invariant() {
        let plan = ragged_plan();
        for kind in FaultKind::ALL.into_iter().filter(|k| k.is_static()) {
            let corrupted = FaultInjector::new(7).inject_plan(&plan, kind);
            assert_ne!(corrupted, plan, "{} left the plan intact", kind.name());
            // Re-validating the corrupted bindings through the constructor
            // must fail: the corruption is structural, not cosmetic.
            assert!(
                KernelPlan::new(plan.contraction(), corrupted.bindings().to_vec()).is_err()
                    || corrupted.smem_bytes(8) > 96 * 1024
                    || corrupted.threads_per_block() > 1024,
                "{} produced a still-legal plan",
                kind.name()
            );
        }
    }
}
