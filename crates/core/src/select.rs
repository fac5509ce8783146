//! Model-driven configuration selection: enumerate → prune → rank.
//!
//! The search runs on its caller's thread. It is cheap by design — the
//! §IV-A rules leave a few thousand configurations and Algorithm 3 ranks
//! them without running a kernel — so parallelism lives one level up,
//! across independent jobs (`Cogent::generate_many`, `cogent serve`'s
//! workers). The result is deterministic: candidates are ranked by
//! `(model cost, total config order)`, a total order, so equal-cost
//! candidates never depend on enumeration order.
//!
//! No phase works per candidate where a whole menu group decides: the
//! enumeration emits `(TBx, REGx, TBy, REGy)` groups, pruning decides the
//! rules per group and per class of TBk entries and counts rejections in
//! bulk, and ranking scores a group's survivors only while the group's
//! lower bound on Algorithm 3 can still enter the top k.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::{Duration, Instant};

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};

use crate::config::KernelConfig;
use crate::constraints::{prune_pass, PrunePass, PruneRules};
use crate::cost::{group_lower_bound, transaction_cost_interned, CostBreakdown};
use crate::enumerate::{
    enumerate_interned, rows_before, Enumeration, EnumerationBudget, EnumerationOptions,
};
use crate::intern::MenuChoice;

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
    /// The `top_k` survivors of lowest modelled cost, best first — the
    /// prefix a stable sort of all survivors by cost would give. Equal
    /// costs are broken by the configuration's total order, so the ranking
    /// is a pure function of the candidate *set*.
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
    /// pass, and ranking all re-check it every 128 candidates and stop
    /// early with [`SearchOutcome::truncated`] set. `None` (the default)
    /// means unbounded.
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

/// A scored candidate: `(total cost, config order, choice, [load_a,
/// load_b, store_c])`. The first two fields alone decide the order.
type Scored = (u128, [u32; 5], MenuChoice, [u128; 3]);

/// What the rank pass kept and how much of the model it ran.
struct RankPass {
    /// The `top_k` candidates of lowest `(cost, config order)`, best first.
    kept: Vec<Scored>,
    /// Candidates the cost model scored.
    evaluated: usize,
    /// Candidates left unscored: their group's bound was above the k-th.
    skipped: usize,
    /// Whether the deadline expired before every candidate was decided.
    truncated: bool,
}

/// Keeps the `top_k` survivors of lowest `(cost, config order)` — a total
/// order, since only the same configuration compares equal — in a bounded
/// max-heap. Survivors come in groups sharing `(TBx, REGx, TBy, REGy)`,
/// and each group gets a lower bound on Algorithm 3 over its rows
/// ([`group_lower_bound`]). The groups of the `top_k + 1` smallest bounds
/// go first, in bound order: they hold more than `top_k` survivors, so the
/// heap fills and the k-th cost nears its final value early. After that,
/// a group whose bound is strictly above the k-th cost cannot place a row
/// in the top k and is skipped unscored; rows that merely tie it are
/// still scored, since the config order decides among them. The visit
/// order changes which rows are scored, never the kept list. A set
/// `deadline` is re-checked every 128 scored candidates.
fn rank_pass(
    en: &Enumeration,
    survivors: &[MenuChoice],
    device: &GpuDevice,
    precision: Precision,
    top_k: usize,
    deadline: Option<Instant>,
) -> RankPass {
    let (tables, compiled) = (&en.tables, &en.compiled);
    let mut row = vec![1; tables.num_indices()];
    let group_of = |&[x, rx, y, ry, _]: &MenuChoice| [x, rx, y, ry];
    let mut groups: Vec<(u128, &[MenuChoice])> = survivors
        .chunk_by(|a, b| group_of(a) == group_of(b))
        .map(|run| {
            compiled.fill_group(group_of(&run[0]), &mut row);
            let dims = compiled.dims(run[0]);
            (
                group_lower_bound(tables, dims, &row, device, precision),
                run,
            )
        })
        .collect();
    let first = top_k.min(groups.len().saturating_sub(1));
    if !groups.is_empty() {
        let key = |&(bound, run): &(u128, &[MenuChoice])| (bound, run[0]);
        groups.select_nth_unstable_by_key(first, key);
        groups[..=first].sort_unstable_by_key(key);
    }

    let mut heap: BinaryHeap<Scored> = BinaryHeap::new();
    let (mut evaluated, mut skipped, mut truncated) = (0, 0, false);
    for &(bound, run) in &groups {
        if heap.len() == top_k && heap.peek().is_none_or(|worst| bound > worst.0) {
            skipped += run.len();
            continue;
        }
        let rows = rows_before(deadline, evaluated, run.len());
        compiled.fill_group(group_of(&run[0]), &mut row);
        for &choice in &run[..rows] {
            compiled.patch_tbk(choice[4], &tables.int_ids, &mut row);
            let dims = compiled.dims(choice);
            let cost = transaction_cost_interned(tables, dims, &row, device, precision);
            let parts = [cost.load_a, cost.load_b, cost.store_c];
            let scored = (cost.total(), compiled.rank_key(choice), choice, parts);
            if heap.len() < top_k {
                heap.push(scored);
            } else if let Some(mut worst) = heap.peek_mut() {
                if scored < *worst {
                    *worst = scored;
                }
            }
        }
        evaluated += rows;
        if rows < run.len() {
            truncated = true;
            break;
        }
    }
    RankPass {
        kept: heap.into_sorted_vec(),
        evaluated,
        skipped,
        truncated,
    }
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
/// The search runs on the caller's thread and is deterministic: it keeps
/// the `top_k` survivors of lowest `(model cost, configuration order)` —
/// the list a stable sort of every survivor by cost would start with —
/// and scores only the survivors whose group's lower bound on the cost
/// can still enter that list.
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
        cogent_obs::counter("enumerate.configs", en.rows as u128);
        cogent_obs::counter("enumerate.raw_space", raw_space);
        en
    };
    let enumerated = en.rows;

    let prune_span = cogent_obs::span("prune");
    // Progressive relaxation for small problems: walk the ladder until a
    // rung leaves survivors or a pass is cut short. Every pass counts its
    // checks and folds its rejections into the histogram and counters
    // under its own keys, so `cogent explain` reports the work done. A
    // deadline already expired after the strict pass skips relaxation and
    // marks the pass truncated: the empty survivor set then reflects the
    // blown budget, not genuinely unprunable rules.
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
        let pass = prune_pass(&en, device, precision, rules, deadline);
        pass.report(&mut histogram, *tag);
        // A rung runs only after the one before it left no survivors and
        // ran to the end, so the last pass holds the outcome.
        pruned = pass;
    }
    let survivors = pruned.survivors;
    cogent_obs::counter("prune.survivors", survivors.len() as u128);
    cogent_obs::counter("prune.relaxed", u128::from(rules_relaxed));
    drop(prune_span);

    let rank_span = cogent_obs::span("rank");
    let ranking = {
        // A dedicated "cost" span: the model evaluation is the hot part of
        // ranking and the profiler attributes it separately.
        let _cost = cogent_obs::span("cost");
        let ranking = rank_pass(&en, &survivors, device, precision, options.top_k, deadline);
        cogent_obs::counter("cost.model_evaluations", ranking.evaluated as u128);
        ranking
    };
    cogent_obs::counter("rank.bound_skipped", ranking.skipped as u128);
    // Only the kept top-k candidates are ever materialized into owned
    // `KernelConfig`s.
    let ranked: Vec<RankedConfig> = ranking
        .kept
        .iter()
        .map(|&(_, _, choice, [load_a, load_b, store_c])| RankedConfig {
            config: en.menus.materialize(choice),
            cost: CostBreakdown {
                load_a,
                load_b,
                store_c,
            },
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
        survivors: survivors.len(),
        prune_histogram: histogram,
        rules_relaxed,
        truncated: en.truncated || pruned.truncated || ranking.truncated,
        ranked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tccg: &str, n: usize) -> SearchOutcome {
        run_with(tccg, n, SearchOptions::default())
    }

    fn run_with(tccg: &str, n: usize, options: SearchOptions) -> SearchOutcome {
        let tc: Contraction = tccg.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        search(&tc, &sizes, &GpuDevice::v100(), Precision::F64, &options)
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
        let o = run("abcd-aebf-dfce", 12);
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
        let opts = SearchOptions {
            top_k: 3,
            ..SearchOptions::default()
        };
        assert!(run_with("abcd-aebf-dfce", 48, opts).ranked.len() <= 3);
    }

    #[test]
    fn enumeration_budget_truncates_search() {
        let opts = SearchOptions {
            max_configs: 64,
            ..SearchOptions::default()
        };
        let o = run_with("abcd-aebf-dfce", 48, opts);
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
        let opts = SearchOptions {
            time_budget: Some(Duration::ZERO),
            ..SearchOptions::default()
        };
        let o = run_with("abcd-aebf-dfce", 48, opts);
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
        use crate::enumerate::{enumerate_interned, DEADLINE_CHECK_INTERVAL};

        let norm = "abcd-aebf-dfce"
            .parse::<Contraction>()
            .unwrap()
            .normalized();
        let (sizes, options) = (SizeMap::uniform(&norm, 48), EnumerationOptions::default());
        let en = enumerate_interned(&norm, &sizes, &options, &EnumerationBudget::unlimited());
        let all: Vec<MenuChoice> = en.choices().collect();
        assert!(all.len() > DEADLINE_CHECK_INTERVAL);
        let device = GpuDevice::v100();
        let rules = PruneRules::default();
        let prune = |deadline| prune_pass(&en, &device, Precision::F64, &rules, deadline);
        let expired = Some(Instant::now());

        // Prune: row 0 already honors the deadline.
        let pass = prune(expired);
        assert!(pass.truncated);
        assert!(pass.survivors.is_empty());
        assert_eq!(pass.checked, 0);

        // Rank likewise scores nothing.
        let ranking = rank_pass(&en, &all, &device, Precision::F64, 16, expired);
        assert!(ranking.truncated);
        assert!(ranking.kept.is_empty());
        assert_eq!(ranking.evaluated, 0);

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
