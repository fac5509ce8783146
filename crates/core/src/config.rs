//! Kernel configurations — the code generator's parameters (Table II of
//! the paper).

use std::fmt;

use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim, PlanError};
use cogent_ir::{Contraction, ContractionAnalysis, IndexClass, IndexName, SizeMap};

/// One index mapped onto a hardware dimension with a tile size.
pub type MappedIndex = (IndexName, usize);

/// A kernel configuration: the paper's `l_TBx`, `l_TBy`, `l_TBk`,
/// `l_Tiles` parameters plus the register-tile mappings.
///
/// Within each list, earlier indices are faster varying. External indices
/// of the contraction that appear in no list are grid-mapped with tile
/// size 1 (the paper: "technically mapped on TBx or TBy with tile-size of
/// 1").
///
/// The derived [`Ord`] (lexicographic over the five lists) is a total
/// order used by the search as a deterministic tie-break between
/// equal-cost configurations: the winner never depends on enumeration or
/// thread-interleaving order.
///
/// # Examples
///
/// ```
/// use cogent_core::KernelConfig;
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let cfg = KernelConfig {
///     tbx: vec![("a".into(), 8)],
///     regx: vec![("b".into(), 4)],
///     tby: vec![("c".into(), 8)],
///     regy: vec![("d".into(), 4)],
///     tbk: vec![("e".into(), 4), ("f".into(), 2)],
/// };
/// assert_eq!(cfg.threads_per_block(), 64);
/// assert_eq!(cfg.outputs_per_thread(), 16);
/// let sizes = SizeMap::uniform(&tc, 16);
/// let plan = cfg.lower(&tc, &sizes)?;
/// assert_eq!(plan.num_blocks(), 2 * 4 * 2 * 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelConfig {
    /// External indices mapped on thread-block X (`l_TBx`), fastest first.
    pub tbx: Vec<MappedIndex>,
    /// External indices mapped on the register-tile X dimension.
    pub regx: Vec<MappedIndex>,
    /// External indices mapped on thread-block Y (`l_TBy`).
    pub tby: Vec<MappedIndex>,
    /// External indices mapped on the register-tile Y dimension.
    pub regy: Vec<MappedIndex>,
    /// Internal indices with their per-step tile sizes (`l_TBk`).
    pub tbk: Vec<MappedIndex>,
}

impl KernelConfig {
    fn size_of(list: &[MappedIndex]) -> usize {
        list.iter().map(|(_, t)| *t).product()
    }

    /// `TBx`: threads along the block's X dimension.
    pub fn tbx_size(&self) -> usize {
        Self::size_of(&self.tbx)
    }

    /// `TBy`: threads along the block's Y dimension.
    pub fn tby_size(&self) -> usize {
        Self::size_of(&self.tby)
    }

    /// `REGx`: register-tile width.
    pub fn regx_size(&self) -> usize {
        Self::size_of(&self.regx)
    }

    /// `REGy`: register-tile height.
    pub fn regy_size(&self) -> usize {
        Self::size_of(&self.regy)
    }

    /// `TBk`: elements of the contracted dimension staged per step.
    pub fn tbk_size(&self) -> usize {
        Self::size_of(&self.tbk)
    }

    /// Threads per block (`TBx * TBy`).
    pub fn threads_per_block(&self) -> usize {
        self.tbx_size() * self.tby_size()
    }

    /// Output elements per thread (`REGx * REGy`).
    pub fn outputs_per_thread(&self) -> usize {
        self.regx_size() * self.regy_size()
    }

    /// Shared memory elements per block:
    /// `(TBx·REGx + TBy·REGy) · TBk` (§IV-A1).
    pub fn smem_elements(&self) -> usize {
        (self.tbx_size() * self.regx_size() + self.tby_size() * self.regy_size()) * self.tbk_size()
    }

    /// The tile size this configuration assigns to `index`: its mapped
    /// tile, or 1 when the index is grid-mapped (absent from all lists).
    pub fn tile_of(&self, index: impl AsRef<str>) -> usize {
        let index = index.as_ref();
        self.lists()
            .into_iter()
            .flatten()
            .find(|(n, _)| n.as_str() == index)
            .map_or(1, |(_, t)| *t)
    }

    /// Whether `index` appears in any mapping list.
    pub fn maps(&self, index: impl AsRef<str>) -> bool {
        let index = index.as_ref();
        self.lists()
            .into_iter()
            .flatten()
            .any(|(n, _)| n.as_str() == index)
    }

    fn lists(&self) -> [&[MappedIndex]; 5] {
        [&self.tbx, &self.regx, &self.tby, &self.regy, &self.tbk]
    }

    /// Lowers this configuration to an executable kernel plan under the
    /// given contraction and representative sizes.
    ///
    /// Externals missing from the mapping lists become grid-mapped with
    /// tile 1. Tile sizes are clipped to the index extents.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the configuration is inconsistent with
    /// the contraction (e.g. maps a `B`-external on the X group) or when
    /// `sizes` has no extent for one of the contraction's indices.
    pub fn lower(&self, tc: &Contraction, sizes: &SizeMap) -> Result<KernelPlan, PlanError> {
        let extent_or = |name: &IndexName| {
            sizes
                .extent(name)
                .ok_or_else(|| PlanError::BindingMismatch {
                    detail: format!("size map has no extent for index {name}"),
                })
        };
        let mut bindings = Vec::with_capacity(tc.num_indices());
        for (list, dim) in [
            (&self.tbx, MapDim::ThreadX),
            (&self.regx, MapDim::RegX),
            (&self.tby, MapDim::ThreadY),
            (&self.regy, MapDim::RegY),
            (&self.tbk, MapDim::SerialK),
        ] {
            for (name, tile) in list.iter() {
                let extent = extent_or(name)?;
                bindings.push(IndexBinding::new(
                    name.clone(),
                    extent,
                    (*tile).min(extent).max(1),
                    dim,
                ));
            }
        }
        for idx in tc.output_indices() {
            if !self.maps(idx) {
                bindings.push(IndexBinding::new(
                    idx.clone(),
                    extent_or(idx)?,
                    1,
                    MapDim::Grid,
                ));
            }
        }
        // Internal indices not listed in tbk default to tile 1 on SerialK.
        for idx in tc.internal_indices() {
            if !self.maps(idx) {
                bindings.push(IndexBinding::new(
                    idx.clone(),
                    extent_or(idx)?,
                    1,
                    MapDim::SerialK,
                ));
            }
        }
        KernelPlan::new(tc, bindings)
    }

    /// A canonical key for deduplication: the sorted multiset of
    /// `(index, dimension, tile)` assignments.
    pub fn canonical_key(&self) -> Vec<(String, &'static str, usize)> {
        let mut key: Vec<(String, &'static str, usize)> = Vec::new();
        let tag = |list: &[MappedIndex], name: &'static str, key: &mut Vec<_>| {
            for (pos, (idx, tile)) in list.iter().enumerate() {
                // Position matters for thread dims (coalescing) but not for
                // serial/reg products; keep it for exactness.
                key.push((format!("{idx}#{pos}"), name, *tile));
            }
        };
        tag(&self.tbx, "tbx", &mut key);
        tag(&self.regx, "regx", &mut key);
        tag(&self.tby, "tby", &mut key);
        tag(&self.regy, "regy", &mut key);
        tag(&self.tbk, "tbk", &mut key);
        key.sort();
        key
    }

    /// Validates that the lists are disjoint and consistent with the
    /// contraction's index classes (X ⊆ A-externals, Y ⊆ B-externals,
    /// K = internals).
    pub fn is_consistent_with(&self, tc: &Contraction) -> bool {
        let analysis = ContractionAnalysis::new(tc);
        let mut seen = std::collections::BTreeSet::new();
        for (list, want) in [
            (&self.tbx, IndexClass::ExternalA),
            (&self.regx, IndexClass::ExternalA),
            (&self.tby, IndexClass::ExternalB),
            (&self.regy, IndexClass::ExternalB),
            (&self.tbk, IndexClass::Internal),
        ] {
            for (idx, tile) in list {
                if *tile == 0 || analysis.classify(idx) != Some(want) || !seen.insert(idx.clone()) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let part = |list: &[MappedIndex]| -> String {
            list.iter()
                .map(|(n, t)| format!("{n}:{t}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "TBx[{}] REGx[{}] TBy[{}] REGy[{}] TBk[{}]",
            part(&self.tbx),
            part(&self.regx),
            part(&self.tby),
            part(&self.regy),
            part(&self.tbk)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq1() -> Contraction {
        "abcd-aebf-dfce".parse().unwrap()
    }

    fn fig2_config() -> KernelConfig {
        KernelConfig {
            tbx: vec![("a".into(), 2)],
            regx: vec![("b".into(), 2)],
            tby: vec![("c".into(), 2)],
            regy: vec![("d".into(), 2)],
            tbk: vec![("e".into(), 4), ("f".into(), 2)],
        }
    }

    #[test]
    fn sizes() {
        let c = fig2_config();
        assert_eq!(c.tbx_size(), 2);
        assert_eq!(c.tbk_size(), 8);
        assert_eq!(c.threads_per_block(), 4);
        assert_eq!(c.outputs_per_thread(), 4);
        // (TBx*REGx + TBy*REGy) * TBk = (4+4)*8.
        assert_eq!(c.smem_elements(), 64);
    }

    #[test]
    fn tile_of_defaults_to_one() {
        let c = KernelConfig {
            tbx: vec![("a".into(), 8)],
            regx: vec![],
            tby: vec![("c".into(), 8)],
            regy: vec![],
            tbk: vec![("e".into(), 4), ("f".into(), 2)],
        };
        assert_eq!(c.tile_of("a"), 8);
        assert_eq!(c.tile_of("b"), 1); // unmapped → grid
        assert!(!c.maps("b"));
    }

    #[test]
    fn lower_produces_valid_plan() {
        let tc = eq1();
        let sizes = SizeMap::uniform(&tc, 16);
        let plan = fig2_config().lower(&tc, &sizes).unwrap();
        assert_eq!(plan.threads_per_block(), 4);
        assert_eq!(plan.num_blocks(), 8usize.pow(4)); // ceil(16/2)^4
        assert_eq!(plan.steps(), 4 * 8); // ceil(16/4)*ceil(16/2)
    }

    #[test]
    fn lower_clips_tiles_to_extents() {
        let tc = eq1();
        let sizes = SizeMap::uniform(&tc, 3); // smaller than tiles of 4
        let plan = fig2_config().lower(&tc, &sizes).unwrap();
        assert_eq!(plan.binding("e").unwrap().tile, 3);
    }

    #[test]
    fn lower_grid_maps_missing_externals() {
        let tc = eq1();
        let sizes = SizeMap::uniform(&tc, 8);
        let cfg = KernelConfig {
            tbx: vec![("a".into(), 8)],
            regx: vec![],
            tby: vec![("c".into(), 8)],
            regy: vec![],
            tbk: vec![("e".into(), 8), ("f".into(), 2)],
        };
        let plan = cfg.lower(&tc, &sizes).unwrap();
        assert_eq!(plan.binding("b").unwrap().tile, 1);
        assert_eq!(plan.binding("d").unwrap().tile, 1);
        assert_eq!(plan.num_blocks(), 64);
    }

    #[test]
    fn lower_rejects_misclassified_index() {
        let tc = eq1();
        let sizes = SizeMap::uniform(&tc, 8);
        let cfg = KernelConfig {
            tbx: vec![("c".into(), 8)], // B-external on the X group
            regx: vec![],
            tby: vec![("a".into(), 8)],
            regy: vec![],
            tbk: vec![("e".into(), 8), ("f".into(), 2)],
        };
        assert!(cfg.lower(&tc, &sizes).is_err());
        assert!(!cfg.is_consistent_with(&tc));
    }

    #[test]
    fn consistency() {
        assert!(fig2_config().is_consistent_with(&eq1()));
        // Duplicate index.
        let dup = KernelConfig {
            tbx: vec![("a".into(), 2), ("a".into(), 2)],
            ..fig2_config()
        };
        assert!(!dup.is_consistent_with(&eq1()));
    }

    #[test]
    fn canonical_key_detects_equal_configs() {
        let c1 = fig2_config();
        let mut c2 = fig2_config();
        assert_eq!(c1.canonical_key(), c2.canonical_key());
        c2.tbk = vec![("f".into(), 2), ("e".into(), 4)];
        assert_ne!(c1.canonical_key(), c2.canonical_key());
    }

    #[test]
    fn display_lists_all_groups() {
        let s = fig2_config().to_string();
        for part in [
            "TBx[a:2]",
            "REGx[b:2]",
            "TBy[c:2]",
            "REGy[d:2]",
            "TBk[e:4,f:2]",
        ] {
            assert!(s.contains(part), "{s}");
        }
    }
}
