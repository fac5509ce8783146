//! Model-driven configuration selection: enumerate → prune → rank.
//!
//! The search runs on its caller's thread. It is cheap by design — the
//! §IV-A rules leave a few thousand configurations and Algorithm 3 ranks
//! them without running a kernel — so parallelism lives one level up,
//! across independent jobs (`Cogent::generate_many`, `cogent serve`'s
//! workers). The result is deterministic: the final ranking uses a stable
//! sort keyed by `(model cost, total config order)`, so equal-cost
//! candidates never depend on enumeration order.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};

use crate::config::KernelConfig;
use crate::constraints::{check_interned, PruneReason, PruneRules};
use crate::cost::{transaction_cost_interned, CostBreakdown};
use crate::enumerate::{enumerate_interned, Enumeration, EnumerationBudget, EnumerationOptions};

/// A configuration together with its modelled cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedConfig {
    /// The kernel configuration.
    pub config: KernelConfig,
    /// Modelled DRAM transactions (lower is better).
    pub cost: CostBreakdown,
}

/// Statistics and results of one model-driven search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The normalized contraction the configurations refer to.
    pub contraction: Contraction,
    /// Size of the raw (unpruned) space per the paper's §IV arithmetic.
    pub raw_space: u128,
    /// Configurations produced by the structured enumeration.
    pub enumerated: usize,
    /// Configurations surviving the hardware/performance pruning.
    pub survivors: usize,
    /// How many configurations each pruning rule rejected. Strict-pass
    /// rejections use the rule name alone; rejections during progressive
    /// relaxation are folded in under distinct `relaxed(...)` keys, so a
    /// configuration re-checked by a relaxed pass is counted once per
    /// pass (the histogram tallies *work*, not unique configurations).
    pub prune_histogram: BTreeMap<String, usize>,
    /// Whether the thresholds had to be progressively relaxed because the
    /// strict rules pruned everything (tiny problems).
    pub rules_relaxed: bool,
    /// Whether any phase stopped early on a budget: the enumeration hit
    /// `max_configs` (pathological high-rank contractions), or the
    /// `time_budget` deadline expired during enumeration, pruning or
    /// ranking. A truncated outcome is best-effort and is never cached.
    pub truncated: bool,
    /// Survivors ranked by modelled cost, best first (truncated to the
    /// requested `top_k`). Equal costs are broken by the configuration's
    /// total order, so the ranking is a pure function of the candidate
    /// *set*.
    pub ranked: Vec<RankedConfig>,
}

impl SearchOutcome {
    /// The best configuration, when any survived.
    pub fn best(&self) -> Option<&RankedConfig> {
        self.ranked.first()
    }

    /// Fraction of enumerated configurations pruned before cost
    /// evaluation (the paper reports ≈97% across the benchmarks).
    pub fn pruned_fraction(&self) -> f64 {
        if self.enumerated == 0 {
            return 0.0;
        }
        1.0 - self.survivors as f64 / self.enumerated as f64
    }
}

/// Search controls.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Enumeration menus.
    pub enumeration: EnumerationOptions,
    /// Pruning thresholds.
    pub rules: PruneRules,
    /// How many ranked survivors to keep.
    pub top_k: usize,
    /// Enumeration budget: stop after this many configurations. The
    /// default is far above any benchmark in the TCCG suite (Eq. 1
    /// enumerates a few thousand) but bounds memory on pathological
    /// high-rank contractions.
    pub max_configs: usize,
    /// Wall-clock budget for the whole search, measured from its start.
    /// The deadline is enforced in every phase — enumeration, each prune
    /// pass, and ranking all re-check it on a 128-iteration interval and
    /// stop early with [`SearchOutcome::truncated`] set. `None` (the
    /// default) means unbounded.
    pub time_budget: Option<Duration>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            enumeration: EnumerationOptions::default(),
            rules: PruneRules::default(),
            top_k: 16,
            max_configs: 262_144,
            time_budget: None,
        }
    }
}

/// How often the prune/rank loops re-read the wall clock when a deadline
/// is set (`Instant::now` costs far more than one rule check). Iteration 0
/// is a multiple of the interval, so an already-expired deadline stops a
/// pass before any work happens.
const DEADLINE_CHECK_INTERVAL: usize = 128;

/// Accumulated results of one pruning pass (strict or relaxed).
#[derive(Default)]
struct PrunePass {
    /// Surviving arena indices, in enumeration order.
    survivors: Vec<u32>,
    /// Rejections per rule, indexed by [`PruneReason::index`]. Static
    /// tallies only — the string-keyed histogram the outcome reports is
    /// folded from these once, at assembly, instead of `format!`-ing a
    /// key per rejection.
    reasons: [usize; PruneReason::ALL.len()],
    /// Rule checks performed.
    checked: usize,
    /// Whether the deadline expired before the pass saw every candidate.
    truncated: bool,
}

impl PrunePass {
    fn absorb(&mut self, other: PrunePass) {
        self.survivors.extend(other.survivors);
        for (mine, theirs) in self.reasons.iter_mut().zip(other.reasons) {
            *mine += theirs;
        }
        self.checked += other.checked;
        self.truncated |= other.truncated;
    }

    /// Folds the static tallies into the outcome's human-readable
    /// histogram under this pass's key scheme (rule name alone for the
    /// strict pass, `"<tag>: <rule>"` for relaxation passes).
    fn fold_into(&self, histogram: &mut BTreeMap<String, usize>, relaxed_tag: Option<&str>) {
        for (reason, &count) in PruneReason::ALL.iter().zip(&self.reasons) {
            if count > 0 {
                let key = match relaxed_tag {
                    None => reason.to_string(),
                    Some(tag) => format!("{tag}: {reason}"),
                };
                *histogram.entry(key).or_default() += count;
            }
        }
    }
}

/// One full pass of the §IV-A rules over every enumerated candidate, in
/// enumeration order. `relaxed` selects the `prune.relaxed.reject.*`
/// counter names so relaxation passes stay distinguishable from the
/// strict pass. A set `deadline` is re-checked every
/// [`DEADLINE_CHECK_INTERVAL`] candidates; expiry stops the pass and
/// marks it truncated.
fn prune_pass(
    en: &Enumeration,
    device: &GpuDevice,
    precision: Precision,
    rules: &PruneRules,
    relaxed: bool,
    deadline: Option<Instant>,
) -> PrunePass {
    let mut pass = PrunePass::default();
    for i in 0..en.arena.len() {
        if let Some(d) = deadline {
            if i.is_multiple_of(DEADLINE_CHECK_INTERVAL) && Instant::now() >= d {
                pass.truncated = true;
                break;
            }
        }
        pass.checked += 1;
        match check_interned(
            &en.tables,
            en.compiled.dims(en.arena.choice(i)),
            en.arena.tiles(i),
            device,
            precision,
            rules,
        ) {
            Ok(()) => pass.survivors.push(i as u32),
            Err(reason) => pass.reasons[reason.index()] += 1,
        }
    }
    cogent_obs::counter("prune.checked", pass.checked as u128);
    for (reason, &count) in PruneReason::ALL.iter().zip(&pass.reasons) {
        if count > 0 {
            let key = if relaxed {
                reason.relaxed_counter_key()
            } else {
                reason.counter_key()
            };
            cogent_obs::counter(key, count as u128);
        }
    }
    pass
}

/// Costs the surviving candidates in survivor order. Returns `(scored,
/// truncated)`: a set `deadline` stops the scoring (same interval
/// discipline as pruning) and reports the truncation.
fn rank_pass(
    en: &Enumeration,
    survivors: &[u32],
    device: &GpuDevice,
    precision: Precision,
    deadline: Option<Instant>,
) -> (Vec<(u32, CostBreakdown)>, bool) {
    // A dedicated "cost" span: the model evaluation is the hot part of
    // ranking and the profiler attributes it separately from the sort.
    let _cost = cogent_obs::span("cost");
    let mut scored = Vec::with_capacity(survivors.len());
    for (k, &i) in survivors.iter().enumerate() {
        if let Some(d) = deadline {
            if k.is_multiple_of(DEADLINE_CHECK_INTERVAL) && Instant::now() >= d {
                return (scored, true);
            }
        }
        let cost = transaction_cost_interned(
            &en.tables,
            en.compiled.dims(en.arena.choice(i as usize)),
            en.arena.tiles(i as usize),
            device,
            precision,
        );
        scored.push((i, cost));
    }
    (scored, false)
}

/// The strict rules, then the rungs the search relaxes to when a pass
/// prunes everything, each with its histogram tag: first the parallelism
/// and occupancy floors go, then the coalescing requirement as well.
fn relaxation_ladder(strict: &PruneRules) -> [(Option<&'static str>, PruneRules); 3] {
    let parallelism = PruneRules {
        min_blocks_per_sm: 0.0,
        min_occupancy: 0.0,
        min_threads: 1,
        ..strict.clone()
    };
    let coalescing = PruneRules {
        require_input_fvi_coalescing: false,
        ..parallelism.clone()
    };
    [
        (None, strict.clone()),
        (Some("relaxed(parallelism)"), parallelism),
        (Some("relaxed(coalescing)"), coalescing),
    ]
}

/// Runs the full model-driven search for `tc` under the representative
/// `sizes` on `device`.
///
/// When pruning eliminates everything (tiny problems on a big device), the
/// rules are progressively relaxed — first the parallelism/occupancy
/// floors, then the coalescing requirement — so a best-effort
/// configuration is always produced if the enumeration is non-empty.
///
/// The search runs on the caller's thread and is deterministic:
/// equal-cost candidates are ordered by the configuration's total order
/// rather than by enumeration position.
///
/// # Examples
///
/// ```
/// use cogent_core::select::{search, SearchOptions};
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let sizes = SizeMap::uniform(&tc, 48);
/// let outcome = search(
///     &tc, &sizes, &GpuDevice::v100(), Precision::F64, &SearchOptions::default(),
/// );
/// let best = outcome.best().expect("a configuration survives");
/// assert!(best.cost.total() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn search(
    tc: &Contraction,
    sizes: &SizeMap,
    device: &GpuDevice,
    precision: Precision,
    options: &SearchOptions,
) -> SearchOutcome {
    // One parent span for the whole selection: the inter-phase seams
    // (survivor collection, outcome assembly, freeing the enumeration)
    // attribute to `search` self time instead of vanishing into the
    // caller's span, so `cogent profile` coverage stays honest.
    let _span = cogent_obs::span("search");
    let norm = tc.normalized();
    let raw_space = EnumerationOptions::raw_space_size(&norm);

    let deadline = options.time_budget.map(|t| Instant::now() + t);
    let budget = EnumerationBudget {
        max_configs: options.max_configs,
        deadline,
    };
    let en = {
        let _span = cogent_obs::span("enumerate");
        let en = enumerate_interned(&norm, sizes, &options.enumeration, &budget);
        cogent_obs::counter("enumerate.configs", en.arena.len() as u128);
        cogent_obs::counter("enumerate.raw_space", raw_space);
        en
    };
    let enumerated = en.arena.len();

    let prune_span = cogent_obs::span("prune");
    // Progressive relaxation for small problems: walk the ladder until a
    // rung leaves survivors or a pass is cut short. Every relaxed check is
    // accounted: the passes add to `checked` and fold their rejections
    // into the histogram/counters under distinct keys, so `cogent explain`
    // reports the work actually done. A deadline already expired after
    // the strict pass skips relaxation and marks the pass truncated — the
    // budget is blown (whether it cut enumeration or the strict pass
    // short), and the empty survivor set reflects truncation, not
    // genuinely unprunable rules.
    let mut pruned = PrunePass::default();
    let mut histogram = BTreeMap::new();
    let mut rules_relaxed = false;
    for (rung, (tag, rules)) in relaxation_ladder(&options.rules).iter().enumerate() {
        if rung > 0 {
            if !pruned.survivors.is_empty() || pruned.truncated {
                break;
            }
            if rung == 1 && deadline.is_some_and(|d| Instant::now() >= d) {
                pruned.truncated = true;
                break;
            }
            rules_relaxed = true;
        }
        let pass = prune_pass(&en, device, precision, rules, tag.is_some(), deadline);
        pass.fold_into(&mut histogram, *tag);
        pruned.absorb(pass);
    }
    let survivors = pruned.survivors;
    let prune_truncated = pruned.truncated;
    cogent_obs::counter("prune.survivors", survivors.len() as u128);
    cogent_obs::counter("prune.relaxed", u128::from(rules_relaxed));
    drop(prune_span);

    let survivor_count = survivors.len();
    let rank_span = cogent_obs::span("rank");
    let (mut scored, rank_truncated) = rank_pass(&en, &survivors, device, precision, deadline);
    // Deterministic ranking: stable sort on (modelled cost, config total
    // order) — the compiled menus' rank keys reproduce `KernelConfig`'s
    // derived `Ord` without materializing a config per comparison. Two
    // entries compare equal only when they are the same configuration, so
    // the result is independent of enumeration order.
    scored.sort_by_key(|&(i, cost)| {
        (
            cost.total(),
            en.compiled.rank_key(en.arena.choice(i as usize)),
        )
    });
    scored.truncate(options.top_k);
    // Only the kept top-k candidates are ever materialized into owned
    // `KernelConfig`s.
    let ranked: Vec<RankedConfig> = scored
        .into_iter()
        .map(|(i, cost)| RankedConfig {
            config: en.menus.materialize(en.arena.choice(i as usize)),
            cost,
        })
        .collect();
    cogent_obs::counter("rank.kept", ranked.len() as u128);
    if let Some(best) = ranked.first() {
        cogent_obs::counter("rank.best_model_cost", best.cost.total());
    }
    drop(rank_span);

    SearchOutcome {
        contraction: norm,
        raw_space,
        enumerated,
        survivors: survivor_count,
        prune_histogram: histogram,
        rules_relaxed,
        truncated: en.truncated || prune_truncated || rank_truncated,
        ranked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tccg: &str, n: usize) -> SearchOutcome {
        let tc: Contraction = tccg.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        search(
            &tc,
            &sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &SearchOptions::default(),
        )
    }

    #[test]
    fn eq1_search_finds_config() {
        let o = run("abcd-aebf-dfce", 48);
        assert!(o.enumerated > 0);
        assert!(o.best().is_some());
        // Costs are sorted ascending.
        for pair in o.ranked.windows(2) {
            assert!(pair[0].cost.total() <= pair[1].cost.total());
        }
    }

    #[test]
    fn pruning_removes_a_large_fraction() {
        // On realistic CCSD(T)-like shapes most enumerated configs violate
        // a constraint; the paper reports ~97%.
        let o = run("abcdef-gdab-efgc", 16);
        assert!(o.enumerated > o.survivors);
        assert!(o.pruned_fraction() > 0.3, "pruned {}", o.pruned_fraction());
    }

    #[test]
    fn histogram_accounts_for_all_pruned() {
        let o = run("abcd-aebf-dfce", 48);
        if !o.rules_relaxed {
            let pruned: usize = o.prune_histogram.values().sum();
            assert_eq!(pruned + o.survivors, o.enumerated);
        }
    }

    #[test]
    fn tiny_problem_relaxation_still_yields_config() {
        let o = run("ij-ik-kj", 8);
        assert!(o.best().is_some(), "relaxation must keep a config");
    }

    #[test]
    fn relaxed_pass_rejections_reach_the_histogram() {
        let o = run("ij-ik-kj", 8);
        assert!(o.rules_relaxed, "an 8^3 matmul must relax on a V100");
        assert!(
            o.prune_histogram.keys().any(|k| k.starts_with("relaxed(")),
            "relaxed rejections missing from histogram: {:?}",
            o.prune_histogram
        );
        // The strict pass rejected everything; its entries are intact.
        let strict: usize = o
            .prune_histogram
            .iter()
            .filter(|(k, _)| !k.starts_with("relaxed("))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(strict, o.enumerated);
    }

    #[test]
    fn equal_cost_ties_follow_config_order() {
        let o = run("abcd-aebf-dfce", 48);
        for pair in o.ranked.windows(2) {
            if pair[0].cost.total() == pair[1].cost.total() {
                assert!(
                    pair[0].config < pair[1].config,
                    "tie not broken by config order: {} vs {}",
                    pair[0].config,
                    pair[1].config
                );
            }
        }
    }

    #[test]
    fn best_config_is_lowerable_and_correct() {
        use cogent_kir::interpret_plan;
        use cogent_tensor::reference::{contract_reference, random_inputs};

        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 12);
        let o = search(
            &tc,
            &sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &SearchOptions::default(),
        );
        let best = o.best().unwrap();
        let norm = tc.normalized();
        let plan = best.config.lower(&norm, &sizes).unwrap();
        let (a, b) = random_inputs::<f64>(&norm, &sizes, 17);
        let got = interpret_plan(&plan, &a, &b).unwrap();
        let want = contract_reference(&norm, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn top_k_truncates() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let opts = SearchOptions {
            top_k: 3,
            ..SearchOptions::default()
        };
        let o = search(&tc, &sizes, &GpuDevice::v100(), Precision::F64, &opts);
        assert!(o.ranked.len() <= 3);
    }

    #[test]
    fn enumeration_budget_truncates_search() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let opts = SearchOptions {
            max_configs: 64,
            ..SearchOptions::default()
        };
        let o = search(&tc, &sizes, &GpuDevice::v100(), Precision::F64, &opts);
        assert!(o.truncated);
        assert_eq!(o.enumerated, 64);
        // Histogram consistency holds for the truncated space too.
        if !o.rules_relaxed {
            let pruned: usize = o.prune_histogram.values().sum();
            assert_eq!(pruned + o.survivors, o.enumerated);
        }
    }

    #[test]
    fn expired_deadline_truncates_the_whole_search() {
        // Regression: time_budget used to cover only enumeration. A search
        // started with an already-expired deadline must come back truncated
        // without doing per-candidate work in any phase.
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let opts = SearchOptions {
            time_budget: Some(Duration::ZERO),
            ..SearchOptions::default()
        };
        let o = search(&tc, &sizes, &GpuDevice::v100(), Precision::F64, &opts);
        assert!(o.truncated);
        assert_eq!(o.enumerated, 0);
        assert!(o.ranked.is_empty());
        assert!(o.prune_histogram.is_empty());
        assert!(
            !o.rules_relaxed,
            "truncation must not masquerade as relaxation"
        );
    }

    #[test]
    fn expired_deadline_truncates_prune_and_rank_phases() {
        use crate::enumerate::enumerate_interned;

        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let norm = tc.normalized();
        let sizes = SizeMap::uniform(&norm, 48);
        let en = enumerate_interned(
            &norm,
            &sizes,
            &EnumerationOptions::default(),
            &EnumerationBudget::unlimited(),
        );
        let all: Vec<u32> = (0..en.arena.len() as u32).collect();
        assert!(all.len() > DEADLINE_CHECK_INTERVAL);
        let device = GpuDevice::v100();
        let rules = PruneRules::default();
        let prune = |deadline| prune_pass(&en, &device, Precision::F64, &rules, false, deadline);
        let expired = Some(Instant::now());

        // Prune: iteration 0 already honors the deadline.
        let pass = prune(expired);
        assert!(pass.truncated);
        assert!(pass.survivors.is_empty());
        assert_eq!(pass.checked, 0);

        // Rank likewise scores nothing.
        let (scored, truncated) = rank_pass(&en, &all, &device, Precision::F64, expired);
        assert!(truncated);
        assert!(scored.is_empty());

        // A generous deadline changes nothing relative to no deadline.
        let generous = Some(Instant::now() + Duration::from_secs(3600));
        let with = prune(generous);
        let without = prune(None);
        assert!(!with.truncated);
        assert_eq!(with.survivors, without.survivors);
        assert_eq!(with.reasons, without.reasons);
    }

    #[test]
    fn raw_space_reported() {
        let o = run("abcd-aebf-dfce", 48);
        assert_eq!(o.raw_space, 3_981_312);
        assert!((o.enumerated as u128) < o.raw_space);
    }
}
