//! Configuration enumeration (Algorithm 2 of the paper).
//!
//! For each hardware dimension the enumerator builds candidate index lists
//! whose tile-size product reaches a target size:
//!
//! * **TBx** — starts from the output tensor's FVI (mandatory for
//!   coalesced stores), then accumulates further `A`-externals in rotated
//!   orders (the paper's `s_idx` loop), clipping the last index's tile so
//!   the product equals the target (∈ {4, 8, 16});
//! * **REGx** — accumulates remaining `A`-externals towards a register
//!   tile target (∈ {2, 4, 6, 8}), plus the empty mapping (`REGx = 1`);
//! * **TBy/REGy** — the same over `B`-externals (no forced first index —
//!   the FVI-coalescing rule is applied as a pruning constraint);
//! * **TBk** — the internal indices towards a serial-tile target
//!   (∈ {4, 8, 16}); internals beyond the target keep tile 1.
//!
//! The full candidate set is the Cartesian product of the partial
//! enumerations (§IV-A3), whose menus ([`RawMenus`]) are built once per
//! search.
//!
//! The walk over the product writes no per-candidate rows: it emits one
//! [`Group`] per `(TBx, REGx, TBy, REGy)` choice, standing for that
//! choice combined with each TBk entry. The search decides the §IV-A
//! rules and bounds Algorithm 3 per group (see [`crate::select`]);
//! [`enumerate_configs`] expands the groups into owned [`KernelConfig`]s.

use std::time::Instant;

use cogent_ir::{Contraction, ContractionAnalysis, IndexName, SizeMap};

use crate::config::{KernelConfig, MappedIndex};
use crate::intern::{CompiledMenus, MenuChoice, SearchTables};

/// Hard bounds on the enumeration, so pathological high-rank contractions
/// truncate gracefully instead of exhausting memory or wall-clock time.
///
/// The bounds apply to the *enumeration* only: downstream pruning still
/// sees every emitted configuration, so the prune-histogram invariants
/// (`pruned + survivors == enumerated`) hold whether or not the space was
/// truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationBudget {
    /// Stop after this many configurations have been emitted.
    pub max_configs: usize,
    /// Stop when the wall clock passes this instant.
    pub deadline: Option<Instant>,
}

impl EnumerationBudget {
    /// No bounds.
    pub fn unlimited() -> Self {
        Self {
            max_configs: usize::MAX,
            deadline: None,
        }
    }
}

impl Default for EnumerationBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// How often the search's phases re-read the wall clock when a deadline is
/// set, in rows (`Instant::now` costs far more than deciding a row).
pub(crate) const DEADLINE_CHECK_INTERVAL: usize = 128;

/// How many of the `rows` rows after the first `done` a phase may work
/// through before `deadline`: the clock is read at each multiple of
/// [`DEADLINE_CHECK_INTERVAL`] rows visited (kept or not), and the rows
/// from the first one past the deadline on are cut. Row 0 is such a
/// multiple, so an expired deadline admits no row at all.
pub(crate) fn rows_before(deadline: Option<Instant>, done: usize, rows: usize) -> usize {
    if let Some(deadline) = deadline {
        let mut at = done.next_multiple_of(DEADLINE_CHECK_INTERVAL);
        while at < done + rows {
            if Instant::now() >= deadline {
                return at - done;
            }
            at += DEADLINE_CHECK_INTERVAL;
        }
    }
    rows
}

/// Tunable menus for the enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumerationOptions {
    /// Target sizes for `TBx`/`TBy` (threads). The paper limits these to
    /// `{4, 8, 16}` "to maintain good occupancy"; the default here also
    /// includes 2 and 32 and lets the pruning rules reject the extremes,
    /// which reproduces the paper's high pruned fraction.
    pub tb_sizes: Vec<usize>,
    /// Target sizes for `REGx`/`REGy` (register tiles). Paper: `{2, 4, 6, 8}`.
    pub reg_sizes: Vec<usize>,
    /// Target sizes for `TBk` (serial k-tile). Paper: `{4, 8, 16}`
    /// (extended here, see `tb_sizes`).
    pub tbk_sizes: Vec<usize>,
}

impl Default for EnumerationOptions {
    fn default() -> Self {
        Self {
            tb_sizes: vec![2, 4, 8, 16, 32],
            reg_sizes: vec![2, 4, 6, 8],
            tbk_sizes: vec![2, 4, 8, 16, 32],
        }
    }
}

impl EnumerationOptions {
    /// Size of the *unpruned* configuration space the paper contrasts
    /// against in §IV: `|mapping| × |tilesize|`. For Eq. 1 (four external
    /// and two internal indices) this reproduces the paper's 3,981,312.
    pub fn raw_space_size(tc: &Contraction) -> u128 {
        let e = tc.external_indices().len() as u32;
        let i = tc.internal_indices().len() as u32;
        let mapping = 4u128.pow(e) * 2u128.pow(i.saturating_sub(1));
        let tilesize = 6u128.pow(e + i.saturating_sub(1));
        mapping * tilesize
    }
}

/// One partial mapping for a hardware dimension.
type PartialList = Vec<MappedIndex>;

/// Accumulates indices from `order` (already rotated) into a list whose
/// tile product reaches `target` (Algorithm 2 lines 11–42). The final
/// index's tile is clipped to `⌊target / product_so_far⌋` so the product
/// never overshoots the target; it equals the target exactly only when
/// the accumulated product divides it, and otherwise *undershoots* (e.g.
/// tiles `3 × 16` towards target 8 clip to `3 × 2 = 6`). Inexact clips
/// are tallied on the `enumerate.clip_inexact` counter.
///
/// Returns `None` when even the full index set cannot reach the target and
/// `accept_partial` is false.
fn accumulate(
    order: &[(&IndexName, usize)],
    target: usize,
    seed: Option<MappedIndex>,
    accept_partial: bool,
) -> Option<PartialList> {
    let mut list: PartialList = Vec::new();
    let mut v_prev = 1usize;
    if let Some((name, size)) = seed {
        if size >= target {
            list.push((name, target));
            return Some(list);
        }
        list.push((name.clone(), size));
        v_prev *= size;
    }
    for &(name, size) in order {
        let v = v_prev * size;
        if v >= target {
            let clip = (target / v_prev).max(1);
            if v_prev * clip != target {
                cogent_obs::counter("enumerate.clip_inexact", 1);
            }
            list.push((name.clone(), clip));
            return Some(list);
        }
        list.push((name.clone(), size));
        v_prev = v;
    }
    // Exhausted without reaching the target.
    if accept_partial && !list.is_empty() {
        Some(list)
    } else {
        None
    }
}

/// All rotations of `candidates` (the `s_idx` loop of Algorithm 2).
fn rotations<'a>(candidates: &'a [(&'a IndexName, usize)]) -> Vec<Vec<(&'a IndexName, usize)>> {
    if candidates.is_empty() {
        return vec![Vec::new()];
    }
    (0..candidates.len())
        .map(|s| {
            candidates[s..]
                .iter()
                .chain(candidates[..s].iter())
                .copied()
                .collect()
        })
        .collect()
}

/// The distinct lists [`accumulate`] builds from every rotation of
/// `candidates` towards each of `targets` (partial lists accepted), in
/// first-seen order after the lists of `out` (the empty mapping `REG = 1`
/// for register menus).
fn enum_lists(
    candidates: &[(&IndexName, usize)],
    targets: &[usize],
    seed: Option<MappedIndex>,
    mut out: Vec<PartialList>,
) -> Vec<PartialList> {
    for &target in targets {
        for order in rotations(candidates) {
            if let Some(list) = accumulate(&order, target, seed.clone(), true) {
                if !out.contains(&list) {
                    out.push(list);
                }
            }
        }
    }
    out
}

/// The structured menus of one enumeration, with the register menus
/// precomputed per thread-list entry (the register menu is a function of
/// which externals the thread list consumed, nothing else — recomputing
/// it per Cartesian-product visit, as the original loop did, repeated the
/// same work thousands of times).
#[derive(Debug)]
pub(crate) struct RawMenus {
    pub tbx: Vec<PartialList>,
    /// Per `tbx` entry: the REGx menu over the remaining `A`-externals.
    pub regx: Vec<Vec<PartialList>>,
    pub tby: Vec<PartialList>,
    /// Per `tby` entry: the REGy menu over the remaining `B`-externals.
    pub regy: Vec<Vec<PartialList>>,
    pub tbk: Vec<PartialList>,
}

impl RawMenus {
    /// Owned [`KernelConfig`] for one menu choice (used to materialize
    /// survivors at the API boundary; the hot loops never call this).
    pub fn materialize(&self, choice: MenuChoice) -> KernelConfig {
        let [x, rx, y, ry, k] = choice;
        KernelConfig {
            tbx: self.tbx[x as usize].clone(),
            regx: self.regx[x as usize][rx as usize].clone(),
            tby: self.tby[y as usize].clone(),
            regy: self.regy[y as usize][ry as usize].clone(),
            tbk: self.tbk[k as usize].clone(),
        }
    }
}

fn build_raw_menus(norm: &Contraction, sizes: &SizeMap, options: &EnumerationOptions) -> RawMenus {
    let analysis = ContractionAnalysis::new(norm);
    let c_fvi = norm.c().fvi().clone();

    let ext_a: Vec<(&IndexName, usize)> = analysis
        .externals_a()
        .iter()
        .filter(|n| **n != c_fvi)
        .map(|n| (n, sizes.extent_of(n)))
        .collect();
    let ext_b: Vec<(&IndexName, usize)> = analysis
        .externals_b()
        .iter()
        .map(|n| (n, sizes.extent_of(n)))
        .collect();
    let ints: Vec<(&IndexName, usize)> = analysis
        .internals()
        .iter()
        .map(|n| (n, sizes.extent_of(n)))
        .collect();

    let fvi_size = sizes.extent_of(&c_fvi);
    let tbx = enum_lists(
        &ext_a,
        &options.tb_sizes,
        Some((c_fvi.clone(), fvi_size)),
        vec![],
    );
    // An input with no external indices (e.g. matrix-vector shapes like
    // `i-ik-k`) legitimately leaves TBy empty: the block is 1-thread tall.
    let tby = if ext_b.is_empty() {
        vec![Vec::new()]
    } else {
        enum_lists(&ext_b, &options.tb_sizes, None, vec![])
    };
    let tbk = if ints.is_empty() {
        vec![Vec::new()]
    } else {
        enum_lists(&ints, &options.tbk_sizes, None, vec![])
    };
    // Per thread-list entry: the register menu over the externals it left.
    let reg_menus = |lists: &[PartialList], externals: &[(&IndexName, usize)]| {
        let menu = |list: &PartialList| {
            let rem: Vec<(&IndexName, usize)> = externals
                .iter()
                .filter(|(n, _)| list.iter().all(|(m, _)| m != *n))
                .copied()
                .collect();
            enum_lists(&rem, &options.reg_sizes, None, vec![Vec::new()])
        };
        lists.iter().map(menu).collect()
    };
    let regx = reg_menus(&tbx, &ext_a);
    let regy = reg_menus(&tby, &ext_b);

    RawMenus {
        tbx,
        regx,
        tby,
        regy,
        tbk,
    }
}

/// One `(TBx, REGx, TBy, REGy)` menu choice and the number of TBk entries
/// the enumeration reached under it: the whole TBk menu, except in the
/// group where `max_configs` or the deadline cut the space. Its rows are
/// the choice combined with TBk entries `0..tbk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    pub menus: [u32; 4],
    pub tbk: u32,
}

impl Group {
    /// The full menu choice of this group's row with TBk entry `k`.
    pub fn choice(&self, k: u32) -> MenuChoice {
        let [x, rx, y, ry] = self.menus;
        [x, rx, y, ry, k]
    }
}

/// Everything one enumeration produced, in interned form: the tables,
/// the raw menus, their compiled counterparts, and the rows as groups.
pub(crate) struct Enumeration {
    pub tables: SearchTables,
    pub menus: RawMenus,
    pub compiled: CompiledMenus,
    /// The enumerated rows in enumeration order, one group per
    /// `(TBx, REGx, TBy, REGy)` choice.
    pub groups: Vec<Group>,
    /// The number of enumerated rows (the groups' `tbk` summed).
    pub rows: usize,
    pub truncated: bool,
}

impl Enumeration {
    /// Every enumerated row's menu choice, in enumeration order.
    pub fn choices(&self) -> impl Iterator<Item = MenuChoice> + '_ {
        self.groups
            .iter()
            .flat_map(|g| (0..g.tbk).map(move |k| g.choice(k)))
    }
}

/// Runs the structured enumeration for an already-normalized contraction:
/// the Cartesian product of the menus, walked TBx → REGx → TBy → REGy →
/// TBk and emitted as [`Group`]s. Both the search and the public
/// [`enumerate_configs_bounded`] run on it.
pub(crate) fn enumerate_interned(
    norm: &Contraction,
    sizes: &SizeMap,
    options: &EnumerationOptions,
    budget: &EnumerationBudget,
) -> Enumeration {
    let tables = SearchTables::new(norm, sizes);
    let menus = build_raw_menus(norm, sizes, options);
    let compiled = CompiledMenus::compile(&menus, &tables);

    // Menu sizes of the structured enumeration; attributed to whichever
    // span (normally "enumerate") is open on this thread.
    cogent_obs::counter("enumerate.tbx_lists", compiled.tbx.len() as u128);
    cogent_obs::counter("enumerate.tby_lists", compiled.tby.len() as u128);
    cogent_obs::counter("enumerate.tbk_lists", compiled.tbk.len() as u128);

    // Every 5-tuple drawn from the menus is a distinct configuration:
    // each menu holds pairwise-distinct lists, the X/Y/K index sets are
    // disjoint, and a REGx list never repeats a TBx index (it draws from
    // the remaining externals). `enumerated_configs_are_distinct` pins it.
    let tbk = compiled.tbk.len();
    let mut groups = Vec::new();
    let mut rows = 0usize;
    let mut truncated = false;
    'space: for (x, regx) in compiled.regx.iter().enumerate() {
        for rx in 0..regx.len() {
            for (y, regy) in compiled.regy.iter().enumerate() {
                for ry in 0..regy.len() {
                    let fit = tbk.min(budget.max_configs.saturating_sub(rows));
                    let take = rows_before(budget.deadline, rows, fit);
                    if take > 0 {
                        groups.push(Group {
                            menus: [x as u32, rx as u32, y as u32, ry as u32],
                            tbk: take as u32,
                        });
                        rows += take;
                    }
                    if take < tbk {
                        truncated = true;
                        break 'space;
                    }
                }
            }
        }
    }
    if truncated {
        cogent_obs::counter("enumerate.truncated", 1);
    }
    Enumeration {
        tables,
        menus,
        compiled,
        groups,
        rows,
        truncated,
    }
}

/// Enumerates the pruned-but-unevaluated configuration space for a
/// contraction (the input to the cost model).
///
/// The contraction is normalized first so that `A` holds the output's FVI,
/// matching the paper's assumption; the returned configurations refer to
/// the normalized orientation (use [`Contraction::normalized`] before
/// lowering them).
///
/// # Examples
///
/// ```
/// use cogent_core::enumerate::{enumerate_configs, EnumerationOptions};
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let sizes = SizeMap::uniform(&tc, 32);
/// let configs = enumerate_configs(&tc, &sizes, &EnumerationOptions::default());
/// assert!(!configs.is_empty());
/// // Every configuration keeps the output FVI on TBx (coalesced stores).
/// assert!(configs.iter().all(|c| c.tbx[0].0.as_str() == "a"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn enumerate_configs(
    tc: &Contraction,
    sizes: &SizeMap,
    options: &EnumerationOptions,
) -> Vec<KernelConfig> {
    enumerate_configs_bounded(tc, sizes, options, &EnumerationBudget::unlimited()).0
}

/// [`enumerate_configs`] under a budget. Returns the configurations and
/// whether the budget truncated the space before it was exhausted.
pub fn enumerate_configs_bounded(
    tc: &Contraction,
    sizes: &SizeMap,
    options: &EnumerationOptions,
    budget: &EnumerationBudget,
) -> (Vec<KernelConfig>, bool) {
    let norm = tc.normalized();
    let en = enumerate_interned(&norm, sizes, options, budget);
    let configs = en.choices().map(|c| en.menus.materialize(c)).collect();
    (configs, en.truncated)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn eq1() -> Contraction {
        "abcd-aebf-dfce".parse().unwrap()
    }

    /// `spec`'s enumeration at uniform extent `n` under the default menus.
    fn configs(spec: &str, n: usize) -> Vec<KernelConfig> {
        let tc: Contraction = spec.parse().unwrap();
        enumerate_configs(
            &tc,
            &SizeMap::uniform(&tc, n),
            &EnumerationOptions::default(),
        )
    }

    #[test]
    fn raw_space_reproduces_paper_number() {
        // §IV: for Eq. 1, (4^4 × 2) × 6^5 = 3,981,312.
        assert_eq!(EnumerationOptions::raw_space_size(&eq1()), 3_981_312);
    }

    #[test]
    fn accumulate_reaches_target_exactly() {
        let e = IndexName::new("e");
        let f = IndexName::new("f");
        let order = [(&e, 16usize), (&f, 16usize)];
        let list = accumulate(&order, 8, None, false).unwrap();
        assert_eq!(list, vec![(e.clone(), 8)]);
        let list = accumulate(&order, 16, None, false).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].1, 16);
    }

    #[test]
    fn accumulate_spans_multiple_indices() {
        let e = IndexName::new("e");
        let f = IndexName::new("f");
        let order = [(&e, 4usize), (&f, 16usize)];
        let list = accumulate(&order, 16, None, false).unwrap();
        // e contributes all 4, f is clipped to 16/4 = 4.
        assert_eq!(list, vec![(e, 4), (f, 4)]);
    }

    #[test]
    fn accumulate_clip_floors_and_undershoots_on_indivisible_targets() {
        // The clip is ⌊target / product⌋: with 3 already accumulated and a
        // target of 8, the final tile is 2 and the product 6 — the list
        // undershoots rather than overshooting. This is the documented
        // behavior (and what the original rustdoc misstated as "equals
        // the target exactly when possible").
        let e = IndexName::new("e");
        let f = IndexName::new("f");
        let order = [(&e, 3usize), (&f, 16usize)];
        let list = accumulate(&order, 8, None, false).unwrap();
        assert_eq!(list, vec![(e.clone(), 3), (f.clone(), 2)]);
        assert_eq!(list.iter().map(|(_, t)| t).product::<usize>(), 6);
        // A divisible target still lands exactly.
        let order = [(&e, 4usize), (&f, 16usize)];
        let list = accumulate(&order, 8, None, false).unwrap();
        assert_eq!(list.iter().map(|(_, t)| t).product::<usize>(), 8);
    }

    #[test]
    fn accumulate_partial_acceptance() {
        let e = IndexName::new("e");
        let order = [(&e, 2usize)];
        assert!(accumulate(&order, 16, None, false).is_none());
        let partial = accumulate(&order, 16, None, true).unwrap();
        assert_eq!(partial, vec![(e, 2)]);
    }

    #[test]
    fn seed_reaching_target_alone() {
        let a = IndexName::new("a");
        let list = accumulate(&[], 8, Some((a.clone(), 32)), false).unwrap();
        assert_eq!(list, vec![(a, 8)]);
    }

    #[test]
    fn enumeration_is_nonempty_and_consistent() {
        let configs = configs("abcd-aebf-dfce", 24);
        assert!(!configs.is_empty());
        for cfg in &configs {
            assert!(cfg.is_consistent_with(&eq1()), "{cfg}");
        }
    }

    #[test]
    fn enumerated_configs_are_distinct() {
        // The Cartesian product over the menus never repeats a
        // configuration (see the comment in `enumerate_interned`).
        for (spec, n) in [("abcd-aebf-dfce", 24), ("ij-ik-kj", 64), ("abc-bda-dc", 16)] {
            let configs = configs(spec, n);
            let distinct: BTreeSet<_> = configs.iter().map(|c| c.canonical_key()).collect();
            assert_eq!(distinct.len(), configs.len(), "{spec} emitted duplicates");
        }
    }

    #[test]
    fn output_fvi_always_first_on_tbx() {
        for cfg in configs("abcd-aebf-dfce", 24) {
            assert_eq!(cfg.tbx[0].0.as_str(), "a", "{cfg}");
        }
    }

    #[test]
    fn enumeration_much_smaller_than_raw_space() {
        let n = configs("abcd-aebf-dfce", 24).len() as u128;
        assert!(n * 100 < EnumerationOptions::raw_space_size(&eq1()));
    }

    #[test]
    fn matmul_enumeration() {
        let configs = configs("ij-ik-kj", 1024);
        assert!(!configs.is_empty());
        // Only one external per side: REG lists must be empty.
        assert!(configs
            .iter()
            .all(|c| c.regx.is_empty() && c.regy.is_empty()));
        // All internal indices appear in tbk.
        assert!(configs
            .iter()
            .all(|c| c.tbk.len() == 1 && c.tbk[0].0.as_str() == "k"));
    }

    #[test]
    fn small_extents_still_enumerable() {
        // Every extent smaller than the targets.
        assert!(!configs("abcd-aebf-dfce", 2).is_empty());
    }

    #[test]
    fn normalization_applies_when_output_fvi_in_b() {
        // Swap A and B textually: output FVI 'a' lives in the second input.
        let tc: Contraction = "abcd-dfce-aebf".parse().unwrap();
        let configs = configs("abcd-dfce-aebf", 16);
        // Configs are expressed against the normalized contraction: 'a'
        // (an external of the *second* input here) leads TBx.
        assert!(configs.iter().all(|c| c.tbx[0].0.as_str() == "a"));
        for cfg in &configs {
            assert!(cfg.is_consistent_with(&tc.normalized()));
        }
    }

    #[test]
    fn matvec_shape_with_no_b_externals_enumerates() {
        // C[i] = A[i,k] * B[k]: B is purely internal; TBy stays empty.
        let configs = configs("i-ik-k", 256);
        assert!(!configs.is_empty());
        assert!(configs
            .iter()
            .all(|c| c.tby.is_empty() && c.regy.is_empty()));
    }

    #[test]
    fn budget_truncates_and_reports() {
        let tc = eq1();
        let sizes = SizeMap::uniform(&tc, 24);
        let options = EnumerationOptions::default();
        let (full, truncated) =
            enumerate_configs_bounded(&tc, &sizes, &options, &EnumerationBudget::unlimited());
        assert!(!truncated);
        assert!(full.len() > 10);
        let budget = EnumerationBudget {
            max_configs: 10,
            deadline: None,
        };
        let (bounded, truncated) = enumerate_configs_bounded(&tc, &sizes, &options, &budget);
        assert!(truncated);
        assert_eq!(bounded.len(), 10);
        assert_eq!(&full[..10], &bounded[..]);
    }

    #[test]
    fn expired_deadline_truncates_immediately() {
        let tc = eq1();
        let sizes = SizeMap::uniform(&tc, 24);
        let budget = EnumerationBudget {
            max_configs: usize::MAX,
            deadline: Some(Instant::now()),
        };
        let (configs, truncated) =
            enumerate_configs_bounded(&tc, &sizes, &EnumerationOptions::default(), &budget);
        assert!(truncated);
        assert!(configs.is_empty());
    }

    #[test]
    fn deadline_is_rechecked_on_iterations_not_emissions() {
        // Regression for the starvation bug: the deadline used to be
        // consulted only when `out.len() % 128 == 0`, so a loop that
        // stopped emitting (then: dedup hits; in principle: any
        // emission-gated path) never re-read the clock. The check is now
        // keyed on rows visited (`rows_before`), so a deadline expiring
        // mid-enumeration truncates within one 128-row interval — pin
        // that by expiring the deadline immediately and confirming row 0
        // already honors it on a large space.
        let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        let budget = EnumerationBudget {
            max_configs: usize::MAX,
            deadline: Some(Instant::now()),
        };
        let (configs, truncated) =
            enumerate_configs_bounded(&tc, &sizes, &EnumerationOptions::default(), &budget);
        assert!(truncated);
        assert!(configs.is_empty());
    }

    #[test]
    fn rotations_cover_all_starts() {
        let e = IndexName::new("e");
        let f = IndexName::new("f");
        let g = IndexName::new("g");
        let cands = [(&e, 2usize), (&f, 3usize), (&g, 4usize)];
        let rots = rotations(&cands);
        assert_eq!(rots.len(), 3);
        assert_eq!(rots[1][0].0.as_str(), "f");
        assert_eq!(rots[2][0].0.as_str(), "g");
    }
}
