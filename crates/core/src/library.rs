//! Multi-version kernel libraries with runtime selection.
//!
//! §IV-B of the paper: *"When the code generator receives a set of
//! representative problem sizes, it can generate different code versions
//! targeted at each representative problem size. ... the kernel is
//! selected at runtime based on the closest representative"* — every
//! generated kernel is correct for any extents, so selection only affects
//! performance.
//!
//! [`KernelLibrary`] packages that workflow: build one kernel per
//! representative, then [`KernelLibrary::select`] the version whose
//! representative is nearest (in log-space, so a 2× difference counts the
//! same whether the extent is 8 or 800).

use cogent_ir::{Contraction, SizeMap};

use crate::api::{Cogent, GeneratedKernel};
use crate::guard::CogentError;

/// A set of generated kernel versions for one contraction, each targeted
/// at a different representative problem size.
///
/// # Examples
///
/// ```
/// use cogent_core::{library::KernelLibrary, Cogent};
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "ij-ik-kj".parse()?;
/// let library = KernelLibrary::build(
///     &Cogent::new(),
///     &tc,
///     &[SizeMap::uniform(&tc, 64), SizeMap::uniform(&tc, 2048)],
/// )?;
/// assert_eq!(library.len(), 2);
/// // An 80^3 problem selects the version tuned for 64^3.
/// let chosen = library.select(&SizeMap::uniform(&tc, 80));
/// assert_eq!(chosen.representative.extent("i"), Some(64));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct KernelLibrary {
    contraction: Contraction,
    versions: Vec<KernelVersion>,
}

/// One version of the library: the representative it was tuned for plus
/// the generated kernel.
#[derive(Debug, Clone)]
pub struct KernelVersion {
    /// The representative problem size this version was generated for.
    pub representative: SizeMap,
    /// The generated kernel.
    pub kernel: GeneratedKernel,
}

/// Squared log-space distance between two size maps over the contraction's
/// indices. Extents are clamped to ≥ 1 — a missing or zero extent (a
/// deserialized `SizeMap` can hold zeros even though `set` rejects them)
/// must not poison the ordering with `ln(0)` = −∞ or a NaN ratio.
fn log_distance(tc: &Contraction, x: &SizeMap, y: &SizeMap) -> f64 {
    tc.all_indices()
        .map(|i| {
            let [a, b] = [x, y].map(|s| s.extent(i).unwrap_or(1).max(1) as f64);
            let d = (a / b).ln();
            d * d
        })
        .sum()
}

impl KernelLibrary {
    /// Generates one kernel version per representative size, one after
    /// the other. An attached [`KernelCache`](crate::cache::KernelCache)
    /// deduplicates repeated representatives.
    ///
    /// # Errors
    ///
    /// Returns [`CogentError::NoRepresentatives`] when `representatives`
    /// is empty, otherwise the first generation error in representative
    /// order (each representative must cover the contraction).
    pub fn build(
        generator: &Cogent,
        tc: &Contraction,
        representatives: &[SizeMap],
    ) -> Result<Self, CogentError> {
        if representatives.is_empty() {
            return Err(CogentError::NoRepresentatives);
        }
        let versions = representatives
            .iter()
            .map(|sizes| {
                generator.generate(tc, sizes).map(|kernel| KernelVersion {
                    representative: sizes.clone(),
                    kernel,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            contraction: tc.normalized(),
            versions,
        })
    }

    /// The contraction the library serves (normalized).
    pub fn contraction(&self) -> &Contraction {
        &self.contraction
    }

    /// Number of versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the library is empty (never true: `build` requires at least
    /// one representative).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterates over the versions in build order.
    pub fn iter(&self) -> impl Iterator<Item = &KernelVersion> {
        self.versions.iter()
    }

    /// Selects the version whose representative is closest to `actual`
    /// (log-space Euclidean distance over all index extents). Equidistant
    /// representatives tie-break to the earliest in build order, so
    /// selection is deterministic whatever the distance landscape.
    ///
    /// # Panics
    ///
    /// Panics when `actual` does not cover the contraction.
    pub fn select(&self, actual: &SizeMap) -> &KernelVersion {
        assert!(
            actual.covers(&self.contraction),
            "actual sizes must cover every index"
        );
        self.versions
            .iter()
            .enumerate()
            .min_by(|(ix, x), (iy, y)| {
                let dx = log_distance(&self.contraction, actual, &x.representative);
                let dy = log_distance(&self.contraction, actual, &y.representative);
                dx.total_cmp(&dy).then(ix.cmp(iy))
            })
            .map(|(_, version)| version)
            .expect("library is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogent_kir::interpret_plan;
    use cogent_tensor::reference::{contract_reference, random_inputs};

    fn matmul_library() -> (Contraction, KernelLibrary) {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let lib = KernelLibrary::build(
            &Cogent::new(),
            &tc,
            &[SizeMap::uniform(&tc, 64), SizeMap::uniform(&tc, 1024)],
        )
        .unwrap();
        (tc, lib)
    }

    #[test]
    fn selects_nearest_representative() {
        let (tc, lib) = matmul_library();
        assert_eq!(lib.len(), 2);
        assert!(!lib.is_empty());
        let small = lib.select(&SizeMap::uniform(&tc, 96));
        assert_eq!(small.representative.extent("i"), Some(64));
        let large = lib.select(&SizeMap::uniform(&tc, 700));
        assert_eq!(large.representative.extent("i"), Some(1024));
    }

    #[test]
    fn selection_can_differ_per_index() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let skinny = SizeMap::from_pairs([("i", 4096), ("j", 16), ("k", 256)]);
        let square = SizeMap::uniform(&tc, 256);
        let lib = KernelLibrary::build(&Cogent::new(), &tc, &[skinny.clone(), square]).unwrap();
        let chosen = lib.select(&SizeMap::from_pairs([("i", 2048), ("j", 24), ("k", 128)]));
        assert_eq!(chosen.representative, skinny);
    }

    #[test]
    fn selected_version_is_correct_at_the_actual_size() {
        // The kernel is generated for the representative but must be
        // correct at the actual size (lower its configuration there).
        let (tc, lib) = matmul_library();
        let actual = SizeMap::uniform(&tc, 50);
        let version = lib.select(&actual);
        let plan = version
            .kernel
            .config
            .lower(&version.kernel.contraction, &actual)
            .unwrap();
        let (a, b) = random_inputs::<f64>(&version.kernel.contraction, &actual, 2);
        let got = interpret_plan(&plan, &a, &b).unwrap();
        let want = contract_reference(&version.kernel.contraction, &actual, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn versions_differ_when_sizes_demand_it() {
        // A tiny and a huge representative should not pick identical
        // configurations (tile sizes adapt to the problem).
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let lib = KernelLibrary::build(
            &Cogent::new(),
            &tc,
            &[SizeMap::uniform(&tc, 8), SizeMap::uniform(&tc, 64)],
        )
        .unwrap();
        let v: Vec<_> = lib.iter().collect();
        assert_ne!(v[0].kernel.config, v[1].kernel.config);
    }

    #[test]
    fn empty_representatives_is_a_typed_error() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let err = KernelLibrary::build(&Cogent::new(), &tc, &[]).unwrap_err();
        assert!(matches!(err, CogentError::NoRepresentatives));
        assert!(err.to_string().contains("representative"));
    }

    #[test]
    fn log_distance_guards_missing_and_zero_extents() {
        // A representative that misses an index (or, via deserialization,
        // carries a zero) must yield a finite distance, not NaN/∞.
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let full = SizeMap::uniform(&tc, 64);
        let missing = SizeMap::from_pairs([("i", 64), ("j", 64)]);
        let d = log_distance(&tc, &missing, &full);
        assert!(d.is_finite(), "distance is {d}");
        // The guard treats the missing extent as 1.
        let ones = SizeMap::from_pairs([("i", 64), ("j", 64), ("k", 1)]);
        assert_eq!(d, log_distance(&tc, &ones, &full));
    }

    #[test]
    fn equidistant_representatives_select_the_earliest() {
        // Two representatives with identical extents on the contraction's
        // indices (distinguished only by an extent the contraction never
        // reads) are exactly equidistant from any query: the tie-break
        // must deterministically pick the earlier one in build order.
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let mut first = SizeMap::uniform(&tc, 64);
        first.set("z", 7);
        let mut second = SizeMap::uniform(&tc, 64);
        second.set("z", 9);
        let lib =
            KernelLibrary::build(&Cogent::new(), &tc, &[first.clone(), second.clone()]).unwrap();
        let chosen = lib.select(&SizeMap::uniform(&tc, 96));
        assert_eq!(chosen.representative, first);
        // Reversed build order flips the winner.
        let lib = KernelLibrary::build(&Cogent::new(), &tc, &[second.clone(), first]).unwrap();
        let chosen = lib.select(&SizeMap::uniform(&tc, 96));
        assert_eq!(chosen.representative, second);
    }

    #[test]
    fn build_dedups_repeated_representatives_through_the_cache() {
        use crate::cache::KernelCache;
        use std::sync::Arc;

        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let cache = Arc::new(KernelCache::new(8));
        let gen = Cogent::new().cache(Arc::clone(&cache));
        // A duplicated representative is served from the cache.
        let rep = SizeMap::uniform(&tc, 64);
        let lib = KernelLibrary::build(&gen, &tc, &[rep.clone(), rep.clone(), rep]).unwrap();
        assert_eq!(lib.len(), 3);
        let v: Vec<_> = lib.iter().collect();
        assert_eq!(v[0].kernel.cuda_source, v[1].kernel.cuda_source);
        assert_eq!(v[1].kernel.cuda_source, v[2].kernel.cuda_source);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2), "{stats:?}");
    }
}
