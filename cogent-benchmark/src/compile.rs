//! `cold_tccg48` and `verify_passes48`: in-process generation of the 48
//! TCCG entries from one closed-loop thread, with a freshly spawned thread
//! per round so the thread-local enumeration menu cache starts cold, as
//! in a new `cogent batch`.

use std::time::{Duration, Instant};

use cogent::generator::codegen::{emit_driver, lower_with_passes, vector_width, PassConfig};
use cogent::generator::guard::validate_generated;
use cogent::generator::{search, Cogent, GeneratedKernel, SearchOptions};
use cogent::gpu::{GpuDevice, Precision};
use cogent::ir::SizeMap;
use cogent::kir::{
    estimate_traffic, interpret, interpret_plan, lower_to_kir, print_kernel, Dialect,
    KernelProgram, PassManager, CUDA, OPENCL, OPENCL_FP64_PREAMBLE,
};
use cogent::sim::{simulate, try_execute_plan, IndexBinding, KernelPlan, StoreMode};
use cogent::tensor::reference::{contract_reference, random_inputs};

use crate::inputs::{suite_jobs, Job};
use crate::report::{fnv1a, set_entry_metrics, Outcome};
use crate::spans::{cpu_seconds, Tracer};
use crate::stats::{fastest, geomean};
use crate::Opts;

/// At least this many rounds, so each entry's 10th percentile is over
/// at least 21 repetitions.
const MIN_ROUNDS: usize = 21;
/// Rounds of a traced run (each traced round is paired with a plain one).
const TRACE_ROUNDS: usize = 3;
/// `Cogent::new()`'s refinement depth, mirrored by the recomposition.
const REFINE_TOP: usize = 4;
/// The seed `Cogent::generate` passes to its divergence check.
const DIVERGENCE_SEED: u64 = 23;
const TOLERANCE: f64 = 1e-8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Default generator at suite sizes: search, refine, emit.
    Cold,
    /// Default KIR passes plus the numeric divergence gate, at suite
    /// sizes scaled down 16×.
    Verify,
}

impl Kind {
    fn generator(self) -> Cogent {
        match self {
            Kind::Cold => Cogent::new(),
            Kind::Verify => Cogent::new()
                .passes(PassConfig::Default)
                .verify_numeric(true),
        }
    }

    fn jobs(self) -> Vec<Job> {
        suite_jobs(match self {
            Kind::Cold => 1,
            Kind::Verify => 16,
        })
    }
}

type Timed = (f64, Result<GeneratedKernel, String>);

/// Every job once, in order, on a fresh thread; per-op milliseconds.
fn round(generator: &Cogent, jobs: &[Job]) -> Vec<Timed> {
    std::thread::scope(|s| {
        s.spawn(|| {
            jobs.iter()
                .map(|job| {
                    let start = Instant::now();
                    let result = generator.generate(&job.tc, &job.sizes);
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    (ms, result.map_err(|e| e.to_string()))
                })
                .collect()
        })
        .join()
        .expect("a generation round panicked")
    })
}

/// Content hash of everything `generate` hands the user for one entry.
fn fingerprint(g: &GeneratedKernel) -> u64 {
    let text = format!("{}\0{}\0{}", g.config, g.cuda_source, g.opencl_source);
    fnv1a(text.as_bytes())
}

/// The kernel text of a CUDA translation unit, without the host driver
/// `generate` appends to it.
fn cuda_kernel(g: &GeneratedKernel) -> &str {
    let driver = emit_driver(&g.plan, Precision::F64);
    g.cuda_source
        .strip_suffix(driver.as_str())
        .and_then(|s| s.strip_suffix('\n'))
        .unwrap_or(&g.cuda_source)
}

fn opencl_f64() -> Dialect {
    Dialect {
        preamble: OPENCL_FP64_PREAMBLE,
        ..OPENCL
    }
}

/// The program `generate` printed: the winner's plan lowered with the
/// workload's passes.
fn emitted_program(kind: Kind, g: &GeneratedKernel) -> Result<KernelProgram, String> {
    lower_with_passes(&g.plan, Precision::F64, kind.generator().pass_config())
        .map(|(prog, _)| prog)
        .map_err(|e| e.to_string())
}

/// The plan with every extent cut to one more than its tile, so each
/// partial-tile guard runs.
fn tile_clamped(plan: &KernelPlan) -> Result<KernelPlan, String> {
    let bindings: Vec<IndexBinding> = plan
        .bindings()
        .iter()
        .map(|b| IndexBinding::new(b.name.clone(), b.extent.min(b.tile + 1), b.tile, b.dim))
        .collect();
    KernelPlan::new(plan.contraction(), bindings)
        .map(|p| p.with_store_mode(plan.store_mode()))
        .map_err(|e| e.to_string())
}

fn extents(plan: &KernelPlan) -> SizeMap {
    SizeMap::from_pairs(plan.bindings().iter().map(|b| (b.name.as_str(), b.extent)))
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for _ in 0..opts.setup_reps() {
        let start = Instant::now();
        let jobs = kind.jobs();
        let _ = round(&kind.generator(), &jobs);
        setups.push(start.elapsed().as_secs_f64());
    }
    out.set("setup_s", fastest(&setups));

    let (jobs, generator) = (kind.jobs(), kind.generator());
    let min_rounds = if opts.quick { 2 } else { MIN_ROUNDS };
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut prints: Vec<Vec<Option<u64>>> = Vec::new();
    let mut first: Vec<Result<GeneratedKernel, String>> = Vec::new();
    while latencies.len() < min_rounds || (!opts.quick && start.elapsed() < budget) {
        let results = round(&generator, &jobs);
        latencies.push(results.iter().map(|r| r.0).collect());
        prints.push(
            results
                .iter()
                .map(|r| r.1.as_ref().ok().map(fingerprint))
                .collect(),
        );
        if first.is_empty() {
            first = results.into_iter().map(|r| r.1).collect();
        }
    }
    out.attempted = (latencies.len() * jobs.len()) as u64;

    // Output checks, after the timed phase.
    let golden = match kind {
        Kind::Cold => golden_hashes(),
        Kind::Verify => Ok(Vec::new()),
    };
    let mut bad_entry = vec![false; jobs.len()];
    for (e, job) in jobs.iter().enumerate() {
        let why = match (&first[e], &golden) {
            (Err(err), _) => Some(format!("{}: generate failed: {err}", job.name)),
            (_, Err(err)) => Some(format!("golden emit corpus: {err}")),
            (Ok(g), Ok(golden)) => check_entry(kind, job, g, golden, opts.seed).err(),
        };
        if let Some(why) = why {
            bad_entry[e] = true;
            out.fail(latencies.len() as u64, why);
        }
    }
    for (r, round_prints) in prints.iter().enumerate().skip(1) {
        for (e, print) in round_prints.iter().enumerate() {
            if !bad_entry[e] && *print != prints[0][e] {
                latencies[r][e] = f64::INFINITY;
                out.fail(
                    1,
                    format!("{}: round {r} emitted different output", jobs[e].name),
                );
            }
        }
    }
    for (e, bad) in bad_entry.iter().enumerate() {
        if *bad {
            latencies
                .iter_mut()
                .for_each(|round| round[e] = f64::INFINITY);
        }
    }

    let by_entry: Vec<Vec<f64>> = (0..jobs.len())
        .map(|e| latencies.iter().map(|round| round[e]).collect())
        .collect();
    set_entry_metrics(&by_entry, &mut out);
    let requests: Vec<f64> = first
        .iter()
        .filter_map(|g| g.as_ref().ok())
        .filter_map(|g| emitted_program(kind, g).ok())
        .filter_map(|p| estimate_traffic(&p).ok())
        .map(|t| t.global_requests as f64)
        .collect();
    out.set("kernel_gmem_requests_geomean", geomean(&requests));
    out
}

/// Checks one entry's emitted kernel: for `Cold`, the kernel text hashes
/// to the golden emit corpus; for `Verify`, the post-pass program is the
/// one printed and interprets to the reference at tile-clamped extents.
fn check_entry(
    kind: Kind,
    job: &Job,
    g: &GeneratedKernel,
    golden: &[(String, String, String)],
    seed: u64,
) -> Result<(), String> {
    let name = &job.name;
    match kind {
        Kind::Cold => {
            for (backend, text) in [
                ("cuda", cuda_kernel(g)),
                ("opencl", g.opencl_source.as_str()),
            ] {
                let want = golden
                    .iter()
                    .find(|(e, b, _)| e == name && b == backend)
                    .map(|(_, _, h)| h.as_str());
                let got = format!("{:016x}", fnv1a(text.as_bytes()));
                if want != Some(got.as_str()) {
                    return Err(format!("{name} {backend}: hash {got}, golden {want:?}"));
                }
            }
            Ok(())
        }
        Kind::Verify => {
            let prog = emitted_program(kind, g)?;
            if print_kernel(&prog, Precision::F64, &CUDA) != cuda_kernel(g) {
                return Err(format!(
                    "{name}: the checked program is not the one emitted"
                ));
            }
            let clamped = tile_clamped(&g.plan)?;
            let sizes = extents(&clamped);
            let (a, b) = random_inputs::<f64>(clamped.contraction(), &sizes, seed);
            let got = interpret(&prog, &sizes, &a, &b).map_err(|e| format!("{name}: {e}"))?;
            let want = contract_reference(clamped.contraction(), &sizes, &a, &b);
            let diff = got.max_abs_diff(&want);
            if diff > TOLERANCE {
                return Err(format!(
                    "{name}: interpreter differs from reference by {diff:e}"
                ));
            }
            Ok(())
        }
    }
}

/// `(entry, backend, hash)` lines of the golden emit corpus, read from
/// the repository's test data (never written).
fn golden_hashes() -> Result<Vec<(String, String, String)>, String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../tests/golden/emit_hashes.txt"
    );
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.into(), f.next()?.into(), f.next()?.into()))
        })
        .collect())
}

/// What the outside-in recomposition of one `generate` call produced.
pub struct Recomposed {
    pub config: String,
    pub cuda: String,
    pub opencl: String,
    plan: KernelPlan,
    prog: KernelProgram,
    model_rank: usize,
    enumerated: usize,
    survivors: usize,
    simulate_calls: usize,
    gflops: f64,
    passes_applied: usize,
}

/// Today's `Cogent::generate` pipeline rebuilt from public calls, with a
/// span around each: search; lower, validate and simulate ranked
/// candidates until `REFINE_TOP` are viable; for `Verify`, the divergence
/// check in simulated order; then lower to KIR, run passes, print both
/// dialects and emit the host driver for the winner.
pub fn recompose(kind: Kind, job: &Job, tr: &mut Tracer, op: u32) -> Result<Recomposed, String> {
    let (device, precision) = (GpuDevice::v100(), Precision::F64);
    let root = tr.open(op, "op", None);
    let result: Result<Recomposed, String> = (|| {
        let options = SearchOptions::default();
        let outcome = tr.time(op, root, "select.search", || {
            search(&job.tc, &job.sizes, &device, precision, &options)
        });
        let mut viable = Vec::new();
        let mut simulate_calls = 0;
        for (rank, ranked) in outcome.ranked.iter().enumerate() {
            if viable.len() >= REFINE_TOP {
                break;
            }
            let lowered = tr.time(op, root, "config.lower", || {
                ranked.config.lower(&outcome.contraction, &job.sizes)
            });
            let Ok(plan) = lowered else { continue };
            let plan = plan.with_store_mode(StoreMode::Assign);
            let valid = tr.time(op, root, "guard.validate", || {
                validate_generated(&plan, &device, precision, StoreMode::Assign)
            });
            if valid.is_err() {
                continue;
            }
            let report = tr.time(op, root, "gpu_sim.simulate", || {
                simulate(&plan, &device, precision)
            });
            simulate_calls += 1;
            viable.push((rank, plan, report));
        }
        viable.sort_by(|x, y| x.2.time.total_s.total_cmp(&y.2.time.total_s));
        let winner = match kind {
            Kind::Cold => viable.into_iter().next(),
            Kind::Verify => viable
                .into_iter()
                .find(|(_, plan, _)| divergence(plan, tr, op, root)),
        };
        let (model_rank, plan, report) =
            winner.ok_or("no candidate survived (naive fallback is not recomposed)")?;
        let mut prog = tr
            .time(op, root, "kir.lower", || lower_to_kir(&plan))
            .map_err(|e| e.to_string())?;
        let passes_applied = match kind {
            Kind::Cold => 0,
            Kind::Verify => tr
                .time(op, root, "kir.passes", || {
                    PassManager::default_pipeline(vector_width(precision)).run(&mut prog)
                })
                .map_err(|e| e.to_string())?
                .applied()
                .len(),
        };
        let cuda = tr.time(op, root, "kir.print", || {
            print_kernel(&prog, precision, &CUDA)
        });
        let opencl = tr.time(op, root, "kir.print", || {
            print_kernel(&prog, precision, &opencl_f64())
        });
        let cuda = tr.time(op, root, "codegen.driver", || {
            format!("{cuda}\n{}", emit_driver(&plan, precision))
        });
        Ok(Recomposed {
            config: outcome.ranked[model_rank].config.to_string(),
            cuda,
            opencl,
            plan,
            prog,
            model_rank,
            enumerated: outcome.enumerated,
            survivors: outcome.survivors,
            simulate_calls,
            gflops: report.gflops,
            passes_applied,
        })
    })();
    tr.close(root);
    result
}

/// `guard::divergence_check` split into its layer calls: the plan
/// executor and the reference at the plan's extents, then the KIR
/// interpreter and the reference at tile-clamped extents.
fn divergence(plan: &KernelPlan, tr: &mut Tracer, op: u32, root: usize) -> bool {
    let span = tr.open(op, "guard.divergence", Some(root));
    let passed = (|| {
        let sizes = extents(plan);
        let (a, b) = tr.time(op, span, "tensor.inputs", || {
            random_inputs::<f64>(plan.contraction(), &sizes, DIVERGENCE_SEED)
        });
        let got = tr
            .time(op, span, "gpu_sim.execute", || {
                try_execute_plan(plan, &a, &b)
            })
            .ok()?;
        let want = tr.time(op, span, "tensor.reference", || {
            contract_reference(plan.contraction(), &sizes, &a, &b)
        });
        if got.max_abs_diff(&want) > TOLERANCE {
            return Some(false);
        }
        let clamped = tile_clamped(plan).ok()?;
        let sizes = extents(&clamped);
        let (a, b) = tr.time(op, span, "tensor.inputs", || {
            random_inputs::<f64>(clamped.contraction(), &sizes, DIVERGENCE_SEED + 1)
        });
        let got = tr
            .time(op, span, "kir.interpret", || {
                interpret_plan(&clamped, &a, &b)
            })
            .ok()?;
        let want = tr.time(op, span, "tensor.reference", || {
            contract_reference(clamped.contraction(), &sizes, &a, &b)
        });
        Some(got.max_abs_diff(&want) <= TOLERANCE)
    })();
    tr.close(span);
    passed == Some(true)
}

/// Per-op counts of recomposed generations, folded into per-layer metrics.
#[derive(Default)]
pub struct LayerCounts {
    ops: usize,
    enumerated: f64,
    survivors: f64,
    simulate_calls: f64,
    refine_changed: f64,
    gflops: Vec<f64>,
    passes_applied: f64,
    replays: f64,
    barriers: f64,
    cuda_bytes: f64,
    identical: usize,
}

impl LayerCounts {
    /// Adds one recomposed op; `identical` says whether it reproduced the
    /// program's own config and sources.
    pub fn add(&mut self, r: &Recomposed, identical: bool) {
        self.ops += 1;
        self.enumerated += r.enumerated as f64;
        self.survivors += r.survivors as f64;
        self.simulate_calls += r.simulate_calls as f64;
        self.refine_changed += f64::from(u8::from(r.model_rank != 0));
        self.gflops.push(r.gflops);
        self.passes_applied += r.passes_applied as f64;
        if let Ok(t) = estimate_traffic(&r.prog) {
            self.replays += t.smem_replays as f64;
            self.barriers += t.barriers as f64;
        }
        self.cuda_bytes += r.cuda.len() as f64;
        self.identical += usize::from(identical);
    }

    /// Sets the generation-layer metrics from `counts` and the spans.
    pub fn report(&self, tr: &Tracer, attempted: usize, out: &mut Outcome) {
        let n = self.ops.max(1) as f64;
        let per_op = |name| tr.ms_per_op(name, self.ops);
        for (metric, span) in [
            ("select.search_ms", "select.search"),
            ("config.lower_ms", "config.lower"),
            ("guard.validate_ms", "guard.validate"),
            ("gpu_sim.simulate_ms", "gpu_sim.simulate"),
            ("gpu_sim.execute_ms", "gpu_sim.execute"),
            ("kir.lower_ms", "kir.lower"),
            ("kir.passes_ms", "kir.passes"),
            ("kir.print_ms", "kir.print"),
            ("kir.interpret_ms", "kir.interpret"),
            ("codegen.driver_ms", "codegen.driver"),
            ("guard.divergence_ms", "guard.divergence"),
            ("tensor.reference_ms", "tensor.reference"),
            ("tensor.inputs_ms", "tensor.inputs"),
        ] {
            out.set(metric, per_op(span));
        }
        out.set("select.enumerated", self.enumerated / n);
        out.set(
            "select.survivor_ratio",
            self.survivors / self.enumerated.max(1.0),
        );
        out.set("gpu_sim.simulate_calls", self.simulate_calls / n);
        out.set("gpu_sim.refine_changed_ratio", self.refine_changed / n);
        if !self.gflops.is_empty() {
            out.set("gpu_sim.pred_gflops_geomean", geomean(&self.gflops));
        }
        out.set("kir.passes_applied", self.passes_applied / n);
        out.set("kir.smem_replays_mean", self.replays / n);
        out.set("kir.barriers_mean", self.barriers / n);
        out.set("codegen.cuda_bytes", self.cuda_bytes / n);
        out.set("trace.coverage", tr.coverage());
        out.set(
            "trace.identity_ratio",
            self.identical as f64 / attempted.max(1) as f64,
        );
    }
}

/// The traced run: `TRACE_ROUNDS` pairs of a plain round and a recomposed
/// round, each on a fresh thread. The plain round is the untraced
/// reference for overhead and for output identity.
pub fn trace(kind: Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (jobs, generator) = (kind.jobs(), kind.generator());
    let mut tr = Tracer::default();
    let mut counts = LayerCounts::default();
    let (mut plain_ms, mut traced_ms, mut plain_cpu_s) = (0.0, 0.0, 0.0);
    let (mut interpret_ns, mut execute_ns) = (0u128, 0u128);
    let rounds = if opts.quick { 1 } else { TRACE_ROUNDS };
    for r in 0..rounds {
        let cpu0 = cpu_seconds();
        let plain = round(&generator, &jobs);
        plain_cpu_s += cpu_seconds() - cpu0;
        plain_ms += plain.iter().map(|p| p.0).sum::<f64>();
        let traced: Vec<Result<Recomposed, String>> = std::thread::scope(|s| {
            s.spawn(|| {
                jobs.iter()
                    .enumerate()
                    .map(|(e, job)| recompose(kind, job, &mut tr, (r * jobs.len() + e) as u32))
                    .collect()
            })
            .join()
            .expect("a traced round panicked")
        });
        for (e, (p, t)) in plain.iter().zip(&traced).enumerate() {
            out.attempted += 1;
            let (Ok(g), Ok(t)) = (&p.1, t) else {
                out.fail(
                    1,
                    format!("{}: generate or recomposition failed", jobs[e].name),
                );
                continue;
            };
            let identical = g.config.to_string() == t.config
                && g.cuda_source == t.cuda
                && g.opencl_source == t.opencl;
            counts.add(t, identical);
            if kind == Kind::Verify {
                let (i, x) = interpret_vs_execute(&t.plan, opts.seed);
                interpret_ns += i;
                execute_ns += x;
            }
        }
    }
    for s in tr.spans.iter().filter(|s| s.name == "op") {
        traced_ms += s.ns() as f64 / 1e6;
    }
    counts.report(&tr, out.attempted as usize, &mut out);
    out.set("trace.overhead_ratio", traced_ms / plain_ms);
    out.set(
        "process.cpu_ms_per_op",
        plain_cpu_s * 1e3 / (rounds * jobs.len()) as f64,
    );
    if execute_ns > 0 {
        out.set(
            "kir.interpret_vs_execute",
            interpret_ns as f64 / execute_ns as f64,
        );
    }
    out.spans = Some(tr.to_json());
    out
}

/// Nanoseconds of `interpret_plan` and of `try_execute_plan` on the same
/// plan and inputs at the plan's own extents.
fn interpret_vs_execute(plan: &KernelPlan, seed: u64) -> (u128, u128) {
    let sizes = extents(plan);
    let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, seed);
    let start = Instant::now();
    let _ = std::hint::black_box(try_execute_plan(plan, &a, &b));
    let execute = start.elapsed().as_nanos();
    let start = Instant::now();
    let _ = std::hint::black_box(interpret_plan(plan, &a, &b));
    (start.elapsed().as_nanos(), execute)
}
