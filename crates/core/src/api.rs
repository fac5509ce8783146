//! The COGENT front door.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cogent_gpu_model::debug_text::{parse_value, DebugStruct};
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::StoreMode;
use cogent_gpu_sim::{simulate, KernelPlan, SimReport};
use cogent_ir::transform::merge_all;
use cogent_ir::{Contraction, IndexName, SizeMap};
use cogent_kir::KernelProgram;

use crate::cache::{CacheKey, KernelCache};
use crate::codegen::{emit_driver, lower_with_passes, print_backend, Backend, PassConfig};
use crate::config::KernelConfig;
use crate::constraints::PruneRules;
use crate::enumerate::EnumerationOptions;
use crate::guard::{
    divergence_check, naive_config, naive_plan, record_violations, validate_generated, CogentError,
    PlanSource, PlanViolation, Provenance, RejectReason, RejectedCandidate,
};
use crate::select::{search, SearchOptions, SearchOutcome};

/// Everything produced for one contraction: the chosen configuration, the
/// executable plan, the CUDA source, the simulated performance report and
/// the search statistics.
#[derive(Debug, Clone)]
pub struct GeneratedKernel {
    /// The normalized contraction the kernel implements.
    pub contraction: Contraction,
    /// The selected configuration.
    pub config: KernelConfig,
    /// The lowered plan; [`interpret_plan`](cogent_kir::interpret_plan)
    /// runs the kernel program lowered from it.
    pub plan: KernelPlan,
    /// Complete CUDA translation unit (kernel + host driver).
    pub cuda_source: String,
    /// The same kernel emitted as OpenCL C (kernel only).
    pub opencl_source: String,
    /// Simulated performance on the target device.
    pub report: SimReport,
    /// Search statistics (enumerated/pruned/ranked).
    pub search: SearchOutcome,
    /// Where the plan came from: which ranked candidate won, which were
    /// rejected and why, and whether the guard degraded to the naive
    /// fallback.
    pub provenance: Provenance,
    /// Pipeline trace of this generation run. Populated whenever tracing
    /// is enabled (see [`cogent_obs::set_enabled`]), `None` otherwise.
    pub trace: Option<cogent_obs::PipelineTrace>,
}

/// The model-driven code generator: device + precision + search settings.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Cogent {
    device: GpuDevice,
    precision: Precision,
    options: SearchOptions,
    refine_top: usize,
    store_mode: StoreMode,
    verify_numeric: bool,
    divergence_tolerance: f64,
    passes: PassConfig,
    cache: Option<Arc<KernelCache>>,
}

impl Default for Cogent {
    fn default() -> Self {
        Self::new()
    }
}

impl Cogent {
    /// A generator targeting the V100 at double precision with default
    /// search settings (the paper's primary evaluation platform).
    pub fn new() -> Self {
        Self {
            device: GpuDevice::v100(),
            precision: Precision::F64,
            options: SearchOptions::default(),
            refine_top: 4,
            store_mode: StoreMode::Assign,
            verify_numeric: false,
            divergence_tolerance: 1e-8,
            passes: PassConfig::None,
            cache: None,
        }
    }

    /// Sets the target device.
    pub fn device(mut self, device: GpuDevice) -> Self {
        self.device = device;
        self
    }

    /// Sets the arithmetic precision.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Replaces the search options (enumeration menus, pruning rules,
    /// ranking depth).
    pub fn search_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// How many of the model's top configurations to discriminate with the
    /// simulator (1 = trust the model outright).
    pub fn refine_top(mut self, k: usize) -> Self {
        self.refine_top = k.max(1);
        self
    }

    /// Selects assignment (`C = A*B`) or accumulation (`C += A*B`) output
    /// semantics; NWChem-style triples kernels use accumulation.
    pub fn store_mode(mut self, mode: StoreMode) -> Self {
        self.store_mode = mode;
        self
    }

    /// Enables the numeric divergence check: every candidate's emitted
    /// kernel program is interpreted at tile-clamped extents and compared
    /// to the reference contraction before being returned
    /// ([`divergence_check`]). Off by default.
    pub fn verify_numeric(mut self, on: bool) -> Self {
        self.verify_numeric = on;
        self
    }

    /// Maximum absolute element difference tolerated by the divergence
    /// check (default `1e-8`).
    pub fn divergence_tolerance(mut self, tolerance: f64) -> Self {
        self.divergence_tolerance = tolerance;
        self
    }

    /// Selects the KIR optimization-pass pipeline applied between
    /// lowering and emission (default [`PassConfig::None`], which keeps
    /// the emitted kernels byte-identical to the baseline generator).
    /// Applied passes are recorded in
    /// [`GeneratedKernel::provenance`]`.passes`.
    pub fn passes(mut self, passes: PassConfig) -> Self {
        self.passes = passes;
        self
    }

    /// The configured pass pipeline.
    pub fn pass_config(&self) -> &PassConfig {
        &self.passes
    }

    /// Attaches a kernel cache. `generate` consults it before searching
    /// and stores fresh results in it; a warm hit skips the entire
    /// pipeline. The cache is behind an [`Arc`], so several generators
    /// (or threads — see [`Cogent::generate_many`]) can share one.
    pub fn cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a fresh cache sized by the `COGENT_CACHE_CAP` environment
    /// variable (see [`KernelCache::from_env`]).
    pub fn with_default_cache(self) -> Self {
        self.cache(Arc::new(KernelCache::from_env()))
    }

    /// The attached cache, if any (e.g. to read
    /// [`stats`](KernelCache::stats) after a sweep).
    pub fn kernel_cache(&self) -> Option<&Arc<KernelCache>> {
        self.cache.as_ref()
    }

    /// Flattens every generator knob that can change the emitted kernel
    /// into a stable string for the cache key. `time_budget` is
    /// deliberately excluded: a search the budget cut short is never
    /// cached, and one it did not cut short is the unbudgeted search, so
    /// budgeted and unbudgeted callers share entries. The
    /// constant `time_budget=None` field keeps the text, and so the keys
    /// already persisted on disk and their shard placement, what it was
    /// when the budget was part of the key.
    pub fn options_fingerprint(&self) -> String {
        format!(
            "enum={:?};rules={:?};top_k={};max_configs={};time_budget=None;refine_top={};store={:?};verify={};tol={:e};passes={}",
            self.options.enumeration,
            self.options.rules,
            self.options.top_k,
            self.options.max_configs,
            self.refine_top,
            self.store_mode,
            self.verify_numeric,
            self.divergence_tolerance,
            self.passes.fingerprint(),
        )
    }

    /// The inverse of [`Cogent::options_fingerprint`]: a generator on the
    /// default device and precision whose fingerprint is `text`. The
    /// knobs the fingerprint leaves out (`time_budget`, the cache) keep
    /// their defaults.
    ///
    /// # Errors
    ///
    /// A one-line reason naming the field that does not parse back.
    pub(crate) fn from_options_fingerprint(text: &str) -> Result<Self, String> {
        let names = "enum rules top_k max_configs time_budget refine_top store verify tol passes";
        let mut values = [""; 10];
        // `splitn` leaves the last field, the pass list, whole.
        let mut parts = text.splitn(values.len(), ';');
        for (name, value) in names.split(' ').zip(&mut values) {
            *value = parts
                .next()
                .and_then(|part| part.strip_prefix(name)?.strip_prefix('='))
                .ok_or_else(|| format!("options: missing `{name}=`"))?;
        }
        let [menus, rules, top_k, max_configs, time_budget, refine_top, store, verify, tol, passes] =
            values;
        if time_budget != "None" {
            return Err(format!("time_budget: {time_budget:?} is not None"));
        }
        let menus = DebugStruct::parse(menus, "EnumerationOptions")?;
        let rules = DebugStruct::parse(rules, "PruneRules")?;
        let options = SearchOptions {
            enumeration: EnumerationOptions {
                tb_sizes: menus.list("tb_sizes")?,
                reg_sizes: menus.list("reg_sizes")?,
                tbk_sizes: menus.list("tbk_sizes")?,
            },
            rules: PruneRules {
                min_threads: rules.get("min_threads")?,
                min_blocks_per_sm: rules.get("min_blocks_per_sm")?,
                min_occupancy: rules.get("min_occupancy")?,
                require_input_fvi_coalescing: rules.get("require_input_fvi_coalescing")?,
                min_fvi_tile: rules.get("min_fvi_tile")?,
            },
            top_k: parse_value("top_k", top_k)?,
            max_configs: parse_value("max_configs", max_configs)?,
            ..SearchOptions::default()
        };
        let store_mode = match store {
            "Assign" => StoreMode::Assign,
            "Accumulate" => StoreMode::Accumulate,
            other => return Err(format!("store: unknown mode {other:?}")),
        };
        Ok(Self::new()
            .search_options(options)
            .refine_top(parse_value("refine_top", refine_top)?)
            .store_mode(store_mode)
            .verify_numeric(parse_value("verify", verify)?)
            .divergence_tolerance(parse_value("tol", tol)?)
            .passes(PassConfig::from_fingerprint(passes)?))
    }

    /// The configured device.
    pub fn target_device(&self) -> &GpuDevice {
        &self.device
    }

    /// The configured precision.
    pub fn target_precision(&self) -> Precision {
        self.precision
    }

    /// Like [`Cogent::generate`], but first applies the free
    /// index-merging transform (§IV: "merging dimensions helps to achieve
    /// coalescing if the extent of each dimension is very small") and
    /// keeps whichever version simulates faster.
    ///
    /// When the merged version wins, the returned kernel's contraction and
    /// size map differ from the caller's: the operand buffers must be
    /// reinterpreted with the merged shapes (a zero-copy reshape, since
    /// only storage-adjacent indices are fused). The returned `SizeMap`
    /// always matches the returned kernel.
    ///
    /// # Errors
    ///
    /// Same as [`Cogent::generate`].
    pub fn generate_with_merging(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
    ) -> Result<(GeneratedKernel, SizeMap), CogentError> {
        let plain = self.generate(tc, sizes)?;
        let (merged_tc, merged_sizes) = merge_all(tc, sizes);
        if merged_tc.num_indices() == tc.num_indices() {
            return Ok((plain, sizes.clone()));
        }
        let merged = self.generate(&merged_tc, &merged_sizes)?;
        if merged.report.time.total_s < plain.report.time.total_s {
            Ok((merged, merged_sizes))
        } else {
            Ok((plain, sizes.clone()))
        }
    }

    /// Runs the full pipeline for one contraction: enumerate → prune →
    /// cost-rank → lower, validate and simulate the top few → emit CUDA
    /// for the winner.
    ///
    /// Every candidate plan passes [`validate_plan`](crate::guard::validate_plan) (and, when
    /// [`Cogent::verify_numeric`] is on, the numeric divergence check
    /// against the reference contraction) before it can win. Candidates
    /// that fail are skipped and recorded in
    /// [`GeneratedKernel::provenance`]; when every ranked candidate is
    /// rejected, generation degrades to the guaranteed-safe naive plan
    /// (one thread per output element) instead of failing.
    ///
    /// # Errors
    ///
    /// Returns [`CogentError::IncompleteSizes`] when `sizes` misses an
    /// index, [`CogentError::NoConfiguration`] when nothing could be
    /// enumerated, [`CogentError::BudgetExhausted`] when the enumeration
    /// budget ran out before producing anything, and
    /// [`CogentError::NoViablePlan`] when even the naive fallback fails
    /// validation (e.g. the problem exceeds the device's launch limits).
    pub fn generate(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
    ) -> Result<GeneratedKernel, CogentError> {
        self.generate_keeping_trace(tc, sizes, true)
    }

    /// [`Cogent::generate`]; with `keep_trace` off, for a caller whose own
    /// open capture keeps the run, `kernel.trace` stays `None` instead of
    /// holding a copy of it.
    pub(crate) fn generate_keeping_trace(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        keep_trace: bool,
    ) -> Result<GeneratedKernel, CogentError> {
        if !sizes.covers(tc) {
            let missing: Vec<IndexName> = tc
                .all_indices()
                .filter(|i| sizes.extent(i).is_none())
                .cloned()
                .collect();
            return Err(CogentError::IncompleteSizes { missing });
        }
        // One capture per generation; when tracing is disabled this (and
        // every span below) is a single atomic load.
        let capture = cogent_obs::Capture::start("generate");
        // Dropping the capture unfinished closes it without a copy.
        let finish = || keep_trace.then(|| capture.finish()).flatten();
        let key = self.cache.as_ref().map(|cache| {
            (
                cache,
                CacheKey::new(
                    tc,
                    sizes,
                    &self.device,
                    self.precision,
                    &self.options_fingerprint(),
                ),
            )
        });
        if let Some((cache, key)) = &key {
            if let Some(hit) = cache.get(key) {
                // The caller owns its kernel, so the hit is copied out of
                // the shared entry here. Cached kernels carry no trace;
                // attach this lookup's own (it records the cache.hit
                // counter above).
                let mut hit = GeneratedKernel::clone(&hit);
                hit.trace = finish();
                return Ok(hit);
            }
        }
        let mut kernel = self.generate_uncached(tc, sizes)?;
        if let Some((cache, key)) = key {
            // The cache keeps no trace (`insert` drops it). Truncated
            // searches are best-effort under a budget that may have been
            // this request's alone — never cache them, so a later request
            // with a generous (or no) deadline redoes the full search
            // instead of inheriting a degraded kernel.
            if !kernel.search.truncated {
                cache.insert(key, kernel.clone());
            }
        }
        kernel.trace = finish();
        Ok(kernel)
    }

    /// The uncached pipeline behind [`Cogent::generate`]: search → lower /
    /// validate / simulate → guard ladder → emit. Assumes `sizes` covers
    /// `tc` and that the caller owns the obs capture.
    fn generate_uncached(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
    ) -> Result<GeneratedKernel, CogentError> {
        let outcome = search(tc, sizes, &self.device, self.precision, &self.options);
        if outcome.ranked.is_empty() {
            // An empty ranking from a truncated search means a budget
            // (max_configs or the time deadline, in whichever phase) ran
            // out before any candidate was ranked — not that the space is
            // genuinely unenumerable.
            if outcome.truncated {
                return Err(CogentError::BudgetExhausted {
                    max_configs: self.options.max_configs,
                    time_budget: self.options.time_budget,
                });
            }
            return Err(CogentError::NoConfiguration);
        }

        // Degradation ladder, stage 1: lower + validate + simulate the
        // ranked candidates until `refine_top` viable ones are collected.
        let mut rejected: Vec<RejectedCandidate> = Vec::new();
        let mut viable: Vec<(usize, KernelPlan, SimReport)> = Vec::new();
        let mut checked = 0usize;
        {
            let _span = cogent_obs::span("lower");
            for (model_rank, ranked) in outcome.ranked.iter().enumerate() {
                if viable.len() >= self.refine_top {
                    break;
                }
                checked += 1;
                let plan = match ranked.config.lower(&outcome.contraction, sizes) {
                    Ok(plan) => plan.with_store_mode(self.store_mode),
                    Err(e) => {
                        cogent_obs::counter("guard.violation.lowering", 1);
                        rejected.push(RejectedCandidate {
                            model_rank,
                            reason: RejectReason::Lowering(e),
                        });
                        continue;
                    }
                };
                if let Err(violations) =
                    validate_generated(&plan, &self.device, self.precision, self.store_mode)
                {
                    record_violations(&violations);
                    rejected.push(RejectedCandidate {
                        model_rank,
                        reason: RejectReason::Invalid(violations),
                    });
                    continue;
                }
                let report = simulate(&plan, &self.device, self.precision);
                viable.push((model_rank, plan, report));
            }
            cogent_obs::counter("lower.candidates", checked as u128);
        }
        viable.sort_by(|x, y| x.2.time.total_s.total_cmp(&y.2.time.total_s));

        // Stage 2: numeric divergence gate (optional) — first passing
        // candidate wins. The gate interprets the candidate's post-pass
        // program, which codegen then prints as is.
        let mut winner: Option<(usize, KernelPlan, SimReport)> = None;
        let mut gated: Option<(KernelProgram, Vec<String>)> = None;
        let mut numeric_verified = false;
        for (model_rank, plan, report) in viable {
            if !self.verify_numeric {
                winner = Some((model_rank, plan, report));
                break;
            }
            let lowered = lower_with_passes(&plan, self.precision, &self.passes)?;
            match divergence_check(&plan, &lowered.0, 23, self.divergence_tolerance) {
                Ok(()) => {
                    numeric_verified = true;
                    winner = Some((model_rank, plan, report));
                    gated = Some(lowered);
                    break;
                }
                Err(PlanViolation::NumericDivergence { max_abs_diff }) => {
                    cogent_obs::counter("guard.violation.numeric_divergence", 1);
                    rejected.push(RejectedCandidate {
                        model_rank,
                        reason: RejectReason::Divergence { max_abs_diff },
                    });
                }
                Err(violation) => {
                    record_violations(std::slice::from_ref(&violation));
                    rejected.push(RejectedCandidate {
                        model_rank,
                        reason: RejectReason::Invalid(vec![violation]),
                    });
                }
            }
        }

        // Stage 3: naive fallback. Exempt from the divergence gate — its
        // one-element-per-step walk is the same order the reference uses,
        // and a fallback that could itself be rejected for floating-point
        // rounding would defeat graceful degradation; `numeric_verified`
        // stays false to keep the exemption visible.
        let (source, config, plan, report) = match winner {
            Some((model_rank, plan, report)) => {
                let config = outcome.ranked[model_rank].config.clone();
                (PlanSource::Search { model_rank }, config, plan, report)
            }
            None => {
                let plan = naive_plan(tc, sizes)?.with_store_mode(self.store_mode);
                if let Err(violations) =
                    validate_generated(&plan, &self.device, self.precision, self.store_mode)
                {
                    record_violations(&violations);
                    cogent_obs::counter("guard.fallback.unviable", 1);
                    return Err(CogentError::NoViablePlan { violations });
                }
                let report = simulate(&plan, &self.device, self.precision);
                (PlanSource::NaiveFallback, naive_config(&plan), plan, report)
            }
        };
        {
            let _span = cogent_obs::span("guard");
            cogent_obs::counter("guard.candidates.checked", checked as u128);
            cogent_obs::counter("guard.fallback.rejected", rejected.len() as u128);
            cogent_obs::counter(
                "guard.fallback.naive",
                u128::from(source == PlanSource::NaiveFallback),
            );
        }
        let (cuda_source, opencl_source, applied_passes) = {
            let _span = cogent_obs::span("codegen");
            // Lower once, run the configured pass pipeline once (unless
            // the gate already did), and print every dialect from the same
            // transformed tree. With `PassConfig::None` this is
            // byte-identical to the baseline emitters.
            let (prog, applied) = match gated {
                Some(lowered) => lowered,
                None => lower_with_passes(&plan, self.precision, &self.passes)?,
            };
            let cuda = format!(
                "{}\n{}",
                print_backend(&prog, self.precision, Backend::Cuda),
                emit_driver(&plan, self.precision)
            );
            let opencl = print_backend(&prog, self.precision, Backend::OpenCl);
            cogent_obs::counter("codegen.cuda_lines", cuda.lines().count() as u128);
            cogent_obs::counter("codegen.cuda_bytes", cuda.len() as u128);
            cogent_obs::counter("codegen.opencl_bytes", opencl.len() as u128);
            cogent_obs::counter("codegen.passes_applied", applied.len() as u128);
            (cuda, opencl, applied)
        };
        let provenance = Provenance {
            source,
            rejected,
            numeric_verified,
            passes: applied_passes,
        };
        Ok(GeneratedKernel {
            contraction: outcome.contraction.clone(),
            config,
            plan,
            cuda_source,
            opencl_source,
            report,
            search: outcome,
            provenance,
            trace: None,
        })
    }

    /// Generates kernels for a whole slate of contractions, sharing this
    /// generator's cache (when attached) and spreading the jobs over
    /// `workers` threads (clamped to `1..=jobs.len()`; see
    /// [`threads_from_env`] for the conventional default). Results come
    /// back in job order, one `Result` per job — a failed job does not
    /// abort the rest of the slate.
    ///
    /// Jobs are the unit of parallelism: each job's search runs on the
    /// worker that claimed it. The emitted kernels are byte-identical to
    /// one-at-a-time [`Cogent::generate`] calls: the search is
    /// deterministic, and cache entries are keyed by everything that
    /// affects the output.
    ///
    /// Every batch records per-kernel traces when tracing is enabled:
    /// each worker opens its own capture, and the per-worker metrics
    /// (counters, histograms, span durations) merge into the process
    /// global registry ([`cogent_obs::metrics_snapshot`]). If the caller
    /// additionally has a span open, each job is wrapped in a relayed
    /// `job` span ([`cogent_obs::fork`]) so the caller's trace shows one
    /// timeline row per worker thread.
    ///
    /// # Errors
    ///
    /// Each slot carries the same errors as [`Cogent::generate`] for its
    /// job.
    pub fn generate_many(
        &self,
        jobs: &[(Contraction, SizeMap)],
        workers: usize,
    ) -> Vec<Result<GeneratedKernel, CogentError>> {
        let workers = workers.clamp(1, jobs.len().max(1));
        if workers == 1 {
            return jobs
                .iter()
                .map(|(tc, sizes)| self.generate(tc, sizes))
                .collect();
        }
        // Worker `w` starts on job `w`, so every spawned thread does work,
        // then claims the next unclaimed job until none is left.
        let next = AtomicUsize::new(workers);
        let slots: Mutex<Vec<Option<Result<GeneratedKernel, CogentError>>>> =
            Mutex::new((0..jobs.len()).map(|_| None).collect());
        let fork = cogent_obs::fork();
        std::thread::scope(|scope| {
            let fork = fork.as_ref();
            let next = &next;
            let slots = &slots;
            for first in 0..workers {
                scope.spawn(move || {
                    let mut i = first;
                    while let Some((tc, sizes)) = jobs.get(i) {
                        let _job = fork.map(|relay| relay.open("job", i));
                        let result = self.generate(tc, sizes);
                        slots.lock().unwrap_or_else(|poison| poison.into_inner())[i] = Some(result);
                        i = next.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        if let Some(fork) = fork {
            fork.attach();
        }
        slots
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
            .into_iter()
            .map(|slot| match slot {
                Some(result) => result,
                // Unreachable: the scope joins every worker, and each
                // claimed index is filled before the next claim.
                None => Err(CogentError::NoConfiguration),
            })
            .collect()
    }
}

/// Environment variable seeding the worker count of a job pool: the
/// default of `cogent serve --workers` and of the `--threads` that
/// `cogent batch`/`cogent stats` hand to [`Cogent::generate_many`]. A
/// single generation never reads it. Unset or empty means `1`.
pub const THREADS_ENV_VAR: &str = "COGENT_THREADS";

/// Reads [`THREADS_ENV_VAR`], clamped to at least 1. Malformed values
/// fall back to one worker; front-ends that want to reject them instead
/// (the CLI exits 2, `cogent serve` refuses to start) should call
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

#[cfg(test)]
mod tests {
    use super::*;
    use cogent_kir::interpret_plan;
    use cogent_tensor::reference::{contract_reference, random_inputs};

    #[test]
    fn end_to_end_eq1() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        let g = Cogent::new().generate(&tc, &sizes).unwrap();
        assert!(g.cuda_source.contains("__global__"));
        assert!(g.opencl_source.contains("__kernel"));
        assert!(g.report.gflops > 0.0);
        assert!(g.search.enumerated > 0);

        // The emitted plan computes the right answer.
        let (a, b) = random_inputs::<f64>(&g.contraction, &sizes, 5);
        let got = interpret_plan(&g.plan, &a, &b).unwrap();
        let want = contract_reference(&g.contraction, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn incomplete_sizes_error() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 8)]);
        let err = Cogent::new().generate(&tc, &sizes).unwrap_err();
        assert!(matches!(err, CogentError::IncompleteSizes { ref missing }
            if missing.iter().map(|i| i.as_str()).collect::<Vec<_>>() == ["j", "k"]));
    }

    #[test]
    fn p100_f32_configuration() {
        let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        let g = Cogent::new()
            .device(GpuDevice::p100())
            .precision(Precision::F32)
            .generate(&tc, &sizes)
            .unwrap();
        assert!(g.cuda_source.contains("__shared__ float s_A"));
        assert!(g.cuda_source.contains("float* h_C"));
    }

    #[test]
    fn builder_accessors() {
        let c = Cogent::new()
            .device(GpuDevice::p100())
            .precision(Precision::F32);
        assert_eq!(c.target_device().name, "Tesla P100");
        assert_eq!(c.target_precision(), Precision::F32);
    }

    #[test]
    fn refine_top_one_trusts_model() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 24);
        let g = Cogent::new().refine_top(1).generate(&tc, &sizes).unwrap();
        // Winner must be the model's first choice.
        assert_eq!(g.config, g.search.ranked[0].config);
    }

    #[test]
    fn merging_small_dims_helps_and_is_selected() {
        // Internals k,l of extent 4 each, adjacent in both inputs; the
        // merged candidate fuses them into one 16-wide contracted index.
        let tc: Contraction = "ab-akl-klb".parse().unwrap();
        let sizes = SizeMap::from_pairs([("a", 256), ("b", 256), ("k", 4), ("l", 4)]);
        let (kernel, ksizes) = Cogent::new().generate_with_merging(&tc, &sizes).unwrap();
        // Whichever version won, it must cover its own contraction and be
        // no slower than the unmerged kernel (the merged candidate was
        // evaluated; our enumerator already composes adjacent small dims,
        // so either outcome is legitimate).
        assert!(ksizes.covers(&kernel.contraction));
        assert!(kernel.contraction.num_indices() <= 4);
        let plain = Cogent::new().generate(&tc, &sizes).unwrap();
        assert!(kernel.report.time.total_s <= plain.report.time.total_s);
    }

    #[test]
    fn merging_is_a_noop_when_nothing_merges() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 24);
        let (kernel, ksizes) = Cogent::new().generate_with_merging(&tc, &sizes).unwrap();
        assert_eq!(kernel.contraction.num_indices(), 6);
        assert_eq!(ksizes, sizes);
    }

    #[test]
    fn accumulate_mode_reaches_the_emitted_source() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 64);
        let g = Cogent::new()
            .store_mode(StoreMode::Accumulate)
            .generate(&tc, &sizes)
            .unwrap();
        assert_eq!(g.plan.store_mode(), StoreMode::Accumulate);
        assert!(g.cuda_source.contains("+= r_C[ry][rx];"));
        assert!(g.opencl_source.contains("+= r_C[ry][rx];"));
        // The report accounts for the read-modify-write of C.
        let assign = Cogent::new().generate(&tc, &sizes).unwrap();
        assert!(g.report.trace.store_c > assign.report.trace.store_c);
    }

    #[test]
    fn error_display() {
        let err = CogentError::IncompleteSizes {
            missing: vec!["j".into(), "k".into()],
        };
        assert!(err.to_string().contains("size map"));
        assert!(err.to_string().contains('j'));
    }

    #[test]
    fn clean_generation_has_undegraded_provenance() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        let g = Cogent::new().generate(&tc, &sizes).unwrap();
        assert!(!g.provenance.degraded(), "{}", g.provenance);
        assert!(matches!(g.provenance.source, PlanSource::Search { .. }));
        assert!(g.provenance.rejected.is_empty());
    }

    #[test]
    fn numeric_verification_marks_provenance() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 12);
        let g = Cogent::new()
            .verify_numeric(true)
            .generate(&tc, &sizes)
            .unwrap();
        assert!(g.provenance.numeric_verified);
        assert!(!g.provenance.degraded());
    }

    #[test]
    fn impossible_tolerance_degrades_to_naive_fallback() {
        // A negative tolerance fails every candidate's divergence check,
        // forcing the ladder all the way down to the naive plan — which is
        // exempt from the gate, still executes correctly, and reports the
        // degradation.
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 12);
        let g = Cogent::new()
            .verify_numeric(true)
            .divergence_tolerance(-1.0)
            .generate(&tc, &sizes)
            .unwrap();
        assert_eq!(g.provenance.source, PlanSource::NaiveFallback);
        assert!(!g.provenance.numeric_verified);
        assert!(!g.provenance.rejected.is_empty());
        assert!(g
            .provenance
            .rejected
            .iter()
            .all(|r| matches!(r.reason, RejectReason::Divergence { .. })));
        assert!(g.provenance.to_string().contains("naive fallback"));
        // The fallback still computes the right answer.
        let (a, b) = random_inputs::<f64>(&g.contraction, &sizes, 3);
        let got = interpret_plan(&g.plan, &a, &b).unwrap();
        let want = contract_reference(&g.contraction, &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn oversized_grid_is_no_viable_plan() {
        // Externals so large that even one-thread-per-element exceeds the
        // 2^31-1 block launch limit: every candidate and the naive
        // fallback are rejected.
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::from_pairs([("i", 3_000_000), ("j", 3_000_000), ("k", 2)]);
        let err = Cogent::new().generate(&tc, &sizes).unwrap_err();
        assert!(matches!(err, CogentError::NoViablePlan { ref violations }
            if violations.iter().any(|v| matches!(v, PlanViolation::GridExceeded { .. }))));
    }

    #[test]
    fn cached_generate_is_byte_identical_to_cold() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        let gen = Cogent::new().cache(Arc::new(KernelCache::new(8)));
        let cold = gen.generate(&tc, &sizes).unwrap();
        let warm = gen.generate(&tc, &sizes).unwrap();
        assert_eq!(cold.cuda_source, warm.cuda_source);
        assert_eq!(cold.opencl_source, warm.opencl_source);
        assert_eq!(cold.config, warm.config);
        assert_eq!(cold.search, warm.search);
        let stats = gen.kernel_cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn options_fingerprint_separates_cache_entries() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32);
        let cache = Arc::new(KernelCache::new(8));
        let assign = Cogent::new().cache(Arc::clone(&cache));
        let accumulate = Cogent::new()
            .store_mode(StoreMode::Accumulate)
            .cache(Arc::clone(&cache));
        assign.generate(&tc, &sizes).unwrap();
        let g = accumulate.generate(&tc, &sizes).unwrap();
        // Different store mode must not hit the assign entry.
        assert_eq!(g.plan.store_mode(), StoreMode::Accumulate);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn a_time_budget_shares_cache_entries_with_unbudgeted_callers() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32);
        let cache = Arc::new(KernelCache::new(8));
        let budgeted = Cogent::new()
            .search_options(SearchOptions {
                time_budget: Some(std::time::Duration::from_secs(600)),
                ..SearchOptions::default()
            })
            .cache(Arc::clone(&cache));
        let unbudgeted = Cogent::new().cache(Arc::clone(&cache));
        let cold = budgeted.generate(&tc, &sizes).unwrap();
        assert!(!cold.search.truncated);
        let warm = unbudgeted.generate(&tc, &sizes).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(cold.cuda_source, warm.cuda_source);
        assert_eq!(cold.opencl_source, warm.opencl_source);
    }

    #[test]
    fn generate_many_matches_one_at_a_time() {
        let specs = ["abcd-aebf-dfce", "ij-ik-kj", "abc-bda-dc"];
        let jobs: Vec<(Contraction, SizeMap)> = specs
            .iter()
            .map(|s| {
                let tc: Contraction = s.parse().unwrap();
                let sizes = SizeMap::uniform(&tc, 12);
                (tc, sizes)
            })
            .collect();
        let batch = Cogent::new()
            .cache(Arc::new(KernelCache::new(8)))
            .generate_many(&jobs, 3);
        assert_eq!(batch.len(), jobs.len());
        for ((tc, sizes), result) in jobs.iter().zip(&batch) {
            let one = Cogent::new().generate(tc, sizes).unwrap();
            let many = result.as_ref().unwrap();
            assert_eq!(one.cuda_source, many.cuda_source);
            assert_eq!(one.config, many.config);
        }
    }

    #[test]
    fn generate_many_reports_per_job_errors_in_order() {
        let good: Contraction = "ij-ik-kj".parse().unwrap();
        let bad_sizes = SizeMap::from_pairs([("i", 8)]);
        let good_sizes = SizeMap::uniform(&good, 8);
        let jobs = vec![
            (good.clone(), bad_sizes),
            (good.clone(), good_sizes.clone()),
        ];
        let batch = Cogent::new().generate_many(&jobs, 2);
        assert!(matches!(batch[0], Err(CogentError::IncompleteSizes { .. })));
        assert!(batch[1].is_ok());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 24);
        let opts = SearchOptions {
            max_configs: 0,
            ..SearchOptions::default()
        };
        let err = Cogent::new()
            .search_options(opts)
            .generate(&tc, &sizes)
            .unwrap_err();
        assert!(matches!(err, CogentError::BudgetExhausted { .. }));
    }

    #[test]
    fn threads_env_parsing_defaults_to_one() {
        // Exercise the reader without mutating the process environment
        // (that would race other tests).
        assert!(threads_from_env() >= 1);
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
        // 0 workers is meaningless, not "serial": it must be rejected so a
        // typo'd deployment does not silently run with a different shape.
        assert!(parse_threads(Some("0")).is_err());
        assert!(parse_threads(Some("-2")).is_err());
    }
}
