//! Model-driven configuration selection: enumerate → prune → rank.
//!
//! Pruning and cost ranking are embarrassingly parallel — every
//! configuration is checked and costed independently — so both phases can
//! be chunked across [`SearchOptions::threads`] worker threads (the
//! `COGENT_THREADS` environment variable seeds the default). The result
//! is **bit-for-bit identical** to the serial search: chunks are merged
//! in enumeration order, per-chunk prune histograms are folded
//! deterministically, and the final ranking uses a stable sort keyed by
//! `(model cost, total config order)` so equal-cost candidates never
//! depend on enumeration or interleaving order.
//!
//! Observability follows the work, not the coordinator: each chunk
//! records its counters on the thread that ran it. Serially they attach
//! to the open `prune`/`rank` span; in parallel they attach to relayed
//! `prune.worker`/`rank.worker` spans ([`cogent_obs::fork`]) that carry
//! the worker's thread id and merge into the parent trace in chunk
//! order, and the same metrics reach the process-global registry
//! through each worker's own shard.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};

use crate::config::KernelConfig;
use crate::constraints::{check_interned, PruneReason, PruneRules};
use crate::cost::{transaction_cost_interned, CostBreakdown};
use crate::enumerate::{enumerate_interned, Enumeration, EnumerationBudget, EnumerationOptions};

/// Environment variable seeding [`SearchOptions::threads`] (and the
/// worker count of `Cogent::generate_many`). Unset, empty or unparsable
/// values mean `1` (serial).
pub const THREADS_ENV_VAR: &str = "COGENT_THREADS";

/// Reads [`THREADS_ENV_VAR`], clamped to at least 1. Malformed values
/// fall back to serial; front-ends that want to reject them instead (the
/// CLI exits 2, `cogent serve` refuses to start) should call
/// [`threads_from_env_checked`] first.
pub fn threads_from_env() -> usize {
    threads_from_env_checked().unwrap_or(1).max(1)
}

/// Reads [`THREADS_ENV_VAR`] strictly: unset or empty means 1, and
/// anything that does not parse as a positive integer — including `0` —
/// is an error (one-line diagnostic, without the `cogent: ` prefix).
pub fn threads_from_env_checked() -> Result<usize, String> {
    parse_threads(std::env::var(THREADS_ENV_VAR).ok().as_deref())
}

/// The parsing rule behind [`threads_from_env_checked`], split out so the
/// diagnostic is testable without touching the process environment.
pub fn parse_threads(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(1);
    };
    let value = raw.trim();
    if value.is_empty() {
        return Ok(1);
    }
    match value.parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "{THREADS_ENV_VAR}: invalid value {value:?} (want a positive integer)"
        )),
        Ok(n) => Ok(n),
    }
}

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
    /// *set* — serial and parallel searches agree byte for byte.
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
    /// Worker threads for the prune and rank phases (1 = serial). The
    /// default comes from the `COGENT_THREADS` environment variable
    /// ([`threads_from_env`]). The search outcome is identical for every
    /// thread count; only wall-clock time changes.
    pub threads: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            enumeration: EnumerationOptions::default(),
            rules: PruneRules::default(),
            top_k: 16,
            max_configs: 262_144,
            time_budget: None,
            threads: threads_from_env(),
        }
    }
}

/// How many worker threads to actually use for `len` items.
fn effective_threads(threads: usize, len: usize) -> usize {
    threads.max(1).min(len.max(1))
}

/// Runs `work` over `items` split into at most `threads` contiguous
/// chunks, returning the per-chunk results **in chunk order**. With one
/// effective thread the work runs inline on the caller's thread, so
/// observability metrics fired inside `work` attach to the open phase
/// span exactly as before threading existed. Otherwise each chunk runs
/// on its own scoped thread under a relayed `<phase>.worker` span
/// ([`cogent_obs::fork`]): worker-side counters and histograms land on
/// that span (and merge into the global metric registry from the worker
/// thread itself), and the worker subtrees are attached to the parent
/// trace in chunk order after the join — no main-thread re-counting.
fn run_chunked<'e, T, R>(
    items: &'e [T],
    threads: usize,
    phase: &str,
    work: impl Fn(&'e [T]) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        return vec![work(items)];
    }
    let chunk_len = items.len().div_ceil(threads);
    let fork = cogent_obs::fork();
    let results = std::thread::scope(|scope| {
        let fork = fork.as_ref();
        let work = &work;
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(index, chunk)| {
                scope.spawn(move || {
                    let _worker = fork.map(|f| f.open(&format!("{phase}.worker"), index));
                    work(chunk)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    // All workers have joined; splice their spans under the open phase
    // span in chunk order.
    if let Some(fork) = fork {
        fork.attach();
    }
    results
}

/// How often the prune/rank loops re-read the wall clock when a deadline
/// is set (`Instant::now` costs far more than one rule check). Iteration 0
/// is a multiple of the interval, so an already-expired deadline stops a
/// chunk before any work happens.
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

/// The inputs a prune pass shares across all of its chunks: what to check
/// against, and whether this is a relaxation pass (`relaxed` selects the
/// `prune.relaxed.reject.*` counter names so relaxation passes stay
/// distinguishable from the strict pass).
#[derive(Clone, Copy)]
struct PruneCtx<'a> {
    device: &'a GpuDevice,
    precision: Precision,
    rules: &'a PruneRules,
    relaxed: bool,
}

/// One full pass of the §IV-A rules over the arena candidates named by
/// `indices`, chunked across `threads` workers and merged in enumeration
/// order. A set `deadline` is re-checked every
/// [`DEADLINE_CHECK_INTERVAL`] candidates; expiry stops the chunk and
/// marks the pass truncated.
fn prune_pass(
    en: &Enumeration,
    indices: &[u32],
    ctx: PruneCtx<'_>,
    threads: usize,
    deadline: Option<Instant>,
) -> PrunePass {
    let chunks = run_chunked(indices, threads, "prune", |chunk: &[u32]| {
        let mut pass = PrunePass::default();
        for (k, &i) in chunk.iter().enumerate() {
            if let Some(d) = deadline {
                if k.is_multiple_of(DEADLINE_CHECK_INTERVAL) && Instant::now() >= d {
                    pass.truncated = true;
                    break;
                }
            }
            pass.checked += 1;
            let i = i as usize;
            match check_interned(
                &en.tables,
                en.compiled.dims(en.arena.choice(i)),
                en.arena.tiles(i),
                ctx.device,
                ctx.precision,
                ctx.rules,
            ) {
                Ok(()) => pass.survivors.push(i as u32),
                Err(reason) => pass.reasons[reason.index()] += 1,
            }
        }
        // Recorded here, on the thread doing the work: serially these
        // land on the open "prune" span; on a worker thread they land on
        // its relayed "prune.worker" span and reach the global metric
        // registry through the worker's own shard.
        cogent_obs::counter("prune.checked", pass.checked as u128);
        for (reason, &count) in PruneReason::ALL.iter().zip(&pass.reasons) {
            if count > 0 {
                let key = if ctx.relaxed {
                    reason.relaxed_counter_key()
                } else {
                    reason.counter_key()
                };
                cogent_obs::counter(key, count as u128);
            }
        }
        pass
    });
    let mut merged = PrunePass::default();
    for chunk in chunks {
        merged.absorb(chunk);
    }
    merged
}

/// Costs the surviving candidates, chunked across `threads` workers and
/// merged in survivor order. Returns `(scored, truncated)`: a set
/// `deadline` stops a chunk mid-scoring (same interval discipline as
/// pruning) and reports the truncation.
fn rank_pass(
    en: &Enumeration,
    survivors: &[u32],
    device: &GpuDevice,
    precision: Precision,
    threads: usize,
    deadline: Option<Instant>,
) -> (Vec<(u32, CostBreakdown)>, bool) {
    let chunks = run_chunked(survivors, threads, "rank", |chunk: &[u32]| {
        // A dedicated "cost" span: the model evaluation is the hot part
        // of ranking and the profiler attributes it separately from the
        // sort. transaction_cost_interned counts each evaluation on the
        // evaluating thread — worker evaluations reach the trace through
        // their relayed spans, with no main-thread re-counting.
        let _cost = cogent_obs::span("cost");
        let mut scored = Vec::with_capacity(chunk.len());
        let mut truncated = false;
        for (k, &i) in chunk.iter().enumerate() {
            if let Some(d) = deadline {
                if k.is_multiple_of(DEADLINE_CHECK_INTERVAL) && Instant::now() >= d {
                    truncated = true;
                    break;
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
        (scored, truncated)
    });
    let mut scored = Vec::with_capacity(survivors.len());
    let mut truncated = false;
    for (chunk, chunk_truncated) in chunks {
        scored.extend(chunk);
        truncated |= chunk_truncated;
    }
    (scored, truncated)
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
/// The search is deterministic: for a given input it returns the same
/// [`SearchOutcome`] whatever [`SearchOptions::threads`] is set to, and
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
    let threads = options.threads.max(1);

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
    let all_indices: Vec<u32> = (0..enumerated as u32).collect();

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
        let ctx = PruneCtx {
            device,
            precision,
            rules,
            relaxed: tag.is_some(),
        };
        let pass = prune_pass(&en, &all_indices, ctx, threads, deadline);
        pass.fold_into(&mut histogram, *tag);
        pruned.absorb(pass);
    }
    let survivors = pruned.survivors;
    let prune_truncated = pruned.truncated;
    // Per-check counters were recorded by the pruning threads themselves;
    // only the pass-level summary belongs to the main thread.
    cogent_obs::counter("prune.survivors", survivors.len() as u128);
    cogent_obs::counter("prune.relaxed", u128::from(rules_relaxed));
    drop(prune_span);

    let survivor_count = survivors.len();
    let rank_span = cogent_obs::span("rank");
    let (mut scored, rank_truncated) =
        rank_pass(&en, &survivors, device, precision, threads, deadline);
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

    fn run_with_threads(tccg: &str, n: usize, threads: usize) -> SearchOutcome {
        let tc: Contraction = tccg.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        let opts = SearchOptions {
            threads,
            ..SearchOptions::default()
        };
        search(&tc, &sizes, &GpuDevice::v100(), Precision::F64, &opts)
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
    fn serial_and_parallel_searches_are_identical() {
        for (tccg, n) in [
            ("abcd-aebf-dfce", 48),
            ("abcdef-gdab-efgc", 16),
            ("ij-ik-kj", 8),
        ] {
            let serial = run_with_threads(tccg, n, 1);
            for threads in [2, 4, 7] {
                let parallel = run_with_threads(tccg, n, threads);
                assert_eq!(serial, parallel, "{tccg} diverges at {threads} threads");
            }
        }
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
        let ctx = PruneCtx {
            device: &device,
            precision: Precision::F64,
            rules: &rules,
            relaxed: false,
        };
        let expired = Some(Instant::now());

        // Prune: iteration 0 already honors the deadline.
        let pass = prune_pass(&en, &all, ctx, 1, expired);
        assert!(pass.truncated);
        assert!(pass.survivors.is_empty());
        assert_eq!(pass.checked, 0);

        // Rank likewise scores nothing.
        let (scored, truncated) = rank_pass(&en, &all, &device, Precision::F64, 1, expired);
        assert!(truncated);
        assert!(scored.is_empty());

        // A generous deadline changes nothing relative to no deadline.
        let generous = Some(Instant::now() + Duration::from_secs(3600));
        let with = prune_pass(&en, &all, ctx, 1, generous);
        let without = prune_pass(&en, &all, ctx, 1, None);
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

    #[test]
    fn run_chunked_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 4, 16] {
            let doubled: Vec<usize> = run_chunked(&items, threads, "test", |chunk: &[usize]| {
                chunk.iter().map(|x| x * 2).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn threads_env_parsing_defaults_to_one() {
        // The variable is read through SearchOptions::default(); exercise
        // the parser's fallback directly without mutating the process
        // environment (that would race other tests).
        assert!(threads_from_env() >= 1);
        assert!(SearchOptions::default().threads >= 1);
    }

    #[test]
    fn threads_parsing_is_strict_about_malformed_values() {
        assert_eq!(parse_threads(None), Ok(1));
        assert_eq!(parse_threads(Some("")), Ok(1));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(8));
        let err = parse_threads(Some("zero")).unwrap_err();
        assert_eq!(
            err,
            "COGENT_THREADS: invalid value \"zero\" (want a positive integer)"
        );
        // 0 threads is meaningless, not "serial": it must be rejected so a
        // typo'd deployment does not silently run with a different shape.
        assert!(parse_threads(Some("0")).is_err());
        assert!(parse_threads(Some("-2")).is_err());
    }
}
