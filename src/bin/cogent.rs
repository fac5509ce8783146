//! The COGENT command-line tool — the reproduction of the original
//! artifact's workflow (a contraction string in, a CUDA file out), plus
//! inspection commands.
//!
//! ```text
//! cogent generate "abcd-aebf-dfce" --size 32 -o kernel.cu
//! cogent generate "C[i,j] = A[i,k] * B[k,j]" --sizes i=1024,j=1024,k=512 --opencl
//! cogent search   "abcdef-gdab-efgc" --size 20 --top 8
//! cogent batch    --suite --group ccsdt --threads 4 -o kernels/
//! cogent bench    "abcd-aebf-dfce" --size 48 --device p100
//! cogent explain  "abcd-aebf-dfce" --size 32 --json
//! cogent profile  "abcd-aebf-dfce" --size 32 --runs 5 --folded stacks.txt
//! cogent stats    --suite --threads 4
//! cogent audit    --suite tccg --top 8 --json
//! cogent suite
//! ```
//!
//! Setting `COGENT_TRACE=1` makes every subcommand print its pipeline
//! trace (span tree with timings, counters, histograms and gauges) to
//! stderr on completion; `--trace-out FILE` instead writes the trace as
//! `cogent.trace.v3` JSON to a file (`-` keeps the stderr tree).
//! `COGENT_THREADS` is the default worker count of `batch`, `stats` and
//! `serve` (one job per worker; a single generation never reads it);
//! `COGENT_CACHE_CAP` sizes the kernel cache used by `batch` and `serve`.
//! Neither changes the emitted kernels.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use cogent::baselines::{measure_cogent, NwchemLikeGenerator, TtgtEngine};
use cogent::generator::codegen::{emit_backend_kernel_with_passes, Backend};
use cogent::generator::request::{flag_value, has_flag, Request, RequestError};
use cogent::generator::select::{search, SearchOptions};
use cogent::prelude::*;

/// A CLI failure, classified for the exit code: `2` for malformed
/// invocations (bad flags, sizes, devices — one-line diagnostic), `1` for
/// runtime failures (generation errors, I/O — diagnostic plus usage), `0`
/// for a stdout whose reader went away (nothing printed).
#[derive(Debug, Clone, PartialEq, Eq)]
struct CliError {
    message: String,
    exit: u8,
}

impl CliError {
    /// A malformed invocation: exits 2 with a one-line diagnostic.
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit: 2,
        }
    }

    /// A runtime failure: exits 1 and also prints the usage text.
    fn runtime(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit: 1,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::runtime(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::runtime(message)
    }
}

/// A bad request value is a malformed invocation.
impl From<RequestError> for CliError {
    fn from(e: RequestError) -> Self {
        CliError::usage(e.message)
    }
}

/// A failed write to stdout. A closed pipe (`cogent suite | head -1`) is
/// not a failure: the command stops and the process exits 0 silently.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            Self {
                message: String::new(),
                exit: 0,
            }
        } else {
            CliError::runtime(format!("writing stdout: {e}"))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace-out` is stripped before dispatch (its value would otherwise
    // be mistaken for a positional contraction spec); it implies tracing.
    let (args, trace_out) = match split_trace_out(args) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("cogent: {}", e.message);
            return ExitCode::from(e.exit);
        }
    };
    // COGENT_TRACE=1 traces any subcommand; the tree goes to stderr so
    // stdout (generated sources, tables) is unchanged.
    let env_on = cogent::obs::init_from_env();
    if trace_out.is_some() {
        cogent::obs::set_enabled(true);
    }
    let capture = (env_on || trace_out.is_some())
        .then(|| cogent::obs::Capture::start(&format!("cogent {}", args.join(" "))));
    // Every command writes its stdout through this one handle.
    let mut stdout = std::io::stdout();
    let result = run(&args, &mut stdout).and_then(|()| stdout.flush().map_err(CliError::from));
    if let Some(trace) = capture.and_then(cogent::obs::Capture::finish) {
        match trace_out.as_deref() {
            Some(path) if path != "-" => match std::fs::write(path, trace.to_json_string()) {
                Ok(()) => eprintln!("wrote trace to {path}"),
                Err(e) => eprintln!("cogent: writing trace to {path}: {e}"),
            },
            _ => {
                eprintln!("--- pipeline trace ({}) ---", cogent::obs::TRACE_ENV_VAR);
                eprint!("{}", trace.render_text());
            }
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.exit == 0 => ExitCode::SUCCESS,
        Err(e) if e.exit == 2 => {
            eprintln!("cogent: {}", e.message);
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {}", e.message);
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(e.exit)
        }
    }
}

const USAGE: &str = "usage:
  cogent generate <contraction> [REQUEST] [--backend cuda|opencl|hip] [-o FILE]
  cogent search   <contraction> [REQUEST] [--top K]
  cogent batch    [<contraction>...] [--suite] [--group ml|aomo|ccsd|ccsdt]
                  [REQUEST] [--threads N] [-o DIR]
  cogent bench    <contraction> [REQUEST]
  cogent explain  <contraction> [REQUEST] [--backend cuda|opencl|hip]
                  [--json] [--chrome-trace FILE]
  cogent profile  <contraction> [REQUEST] [--runs N] [--json] [--folded FILE]
  cogent stats    [<contraction>...] [--suite] [--group ml|aomo|ccsd|ccsdt]
                  [REQUEST] [--threads N]
  cogent audit    [<contraction>...] [--suite [tccg]] [--group ml|aomo|ccsd|ccsdt]
                  [REQUEST] [--top K] [--exhaustive] [--json]
  cogent suite    [--group ml|aomo|ccsd|ccsdt]
  cogent serve    [--addr HOST:PORT] [--workers N] [--queue-depth N]
                  [--max-conns N] [--deadline-ms N] [--max-deadline-ms N]
                  [--cache-dir DIR] [--allow-fault-injection]
                  [--slow-threshold-ms N] [--flight-dir DIR]
                  [--access-log FILE|-]
  cogent flight   <dump.jsonl> [--top N]

REQUEST is [--size N | --sizes i=N,j=M,...] [--device v100|p100] [--f32]
[--accumulate] [--passes none|default|LIST], read the same way by every
command (search ignores the store mode and passes, bench uses FP64)

every command also accepts --trace-out FILE to write its pipeline trace
as cogent.trace.v3 JSON (\"-\" prints the stderr tree instead)

--passes selects the KIR optimization pipeline: none (baseline, the
default), default (vectorize-loads, smem-pad, double-buffer), or a
comma-separated list of those pass names in application order

contractions use TCCG notation (\"abcd-aebf-dfce\") or the explicit form
(\"C[i,j] = A[i,k] * B[k,j]\"); set COGENT_TRACE=1 to print any command's
pipeline trace to stderr, COGENT_THREADS to set the default worker count
of batch, stats and serve (one job per worker), COGENT_CACHE_CAP to size
the kernel cache (0 disables it), and COGENT_CACHE_DIR to persist the
serve cache across restarts";

fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    validate_env()?;
    let command = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    match command.as_str() {
        "generate" => cmd_generate(rest, out),
        "search" => cmd_search(rest, out),
        "batch" => cmd_batch(rest, out),
        "bench" => cmd_bench(rest, out),
        "explain" => cmd_explain(rest, out),
        "profile" => cmd_profile(rest, out),
        "stats" => cmd_stats(rest, out),
        "audit" => cmd_audit(rest, out),
        "suite" => cmd_suite(rest, out),
        "serve" => cmd_serve(rest),
        "flight" => cmd_flight(rest, out),
        other => Err(CliError::runtime(format!("unknown command {other:?}"))),
    }
}

/// Strict validation of the `COGENT_*` environment, run before any
/// command: a typo'd `COGENT_CACHE_CAP=10O` must be a loud exit-2
/// diagnostic, not a silently applied default.
fn validate_env() -> Result<(), CliError> {
    cogent::generator::cache::capacity_from_env().map_err(CliError::usage)?;
    cogent::generator::api::threads_from_env_checked().map_err(CliError::usage)?;
    Ok(())
}

/// Removes `--trace-out FILE` from the argument list, returning the
/// remaining arguments and the requested destination.
///
/// # Errors
///
/// A usage error when the flag is present without a following value.
fn split_trace_out(mut args: Vec<String>) -> Result<(Vec<String>, Option<String>), CliError> {
    match args.iter().position(|a| a == "--trace-out") {
        None => Ok((args, None)),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(CliError::usage("--trace-out needs a file argument"));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            Ok((args, Some(value)))
        }
    }
}

/// The request of a one-contraction command: its first positional
/// argument under the command's flags.
fn request(args: &[String]) -> Result<Request, CliError> {
    let spec = positional_specs(args)
        .into_iter()
        .next()
        .ok_or_else(|| CliError::usage("missing contraction argument"))?;
    Ok(Request::from_args(spec, args)?)
}

/// The value of count flag `flag` (`--top`, `--runs`, `--workers`, ...),
/// if given: a positive integer.
fn positive(args: &[String], flag: &str) -> Result<Option<usize>, CliError> {
    let Some(raw) = flag_value(args, flag) else {
        return Ok(None);
    };
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(CliError::usage(format!(
            "bad {flag} value {raw:?} (want a positive integer)"
        ))),
    }
}

/// Runs `f` with tracing on, then restores the previous setting.
fn traced<T>(f: impl FnOnce() -> T) -> T {
    let was_enabled = cogent::obs::enabled();
    cogent::obs::set_enabled(true);
    let out = f();
    cogent::obs::set_enabled(was_enabled);
    out
}

/// The lines `generate`, `explain` and `profile` report for a kernel:
/// what was generated, from which candidate, and its predicted speed.
fn kernel_summary(request: &Request, kernel: &GeneratedKernel) -> String {
    // The provenance line also names the applied passes.
    format!(
        "contraction:   {}\nconfiguration: {}\nprovenance:    {}\npredicted:     {:.1} GFLOPS at {} ({} candidates enumerated, {:.1}% pruned)\n",
        request.contraction,
        kernel.config,
        kernel.provenance,
        kernel.report.gflops,
        request.sizes,
        kernel.search.enumerated,
        kernel.search.pruned_fraction() * 100.0
    )
}

/// Resolves the code-generation backend from `--backend`, honoring the
/// deprecated `--opencl` spelling (with a one-line warning).
fn parse_backend(args: &[String]) -> Result<Backend, CliError> {
    if let Some(value) = flag_value(args, "--backend") {
        return value
            .parse::<Backend>()
            .map_err(|e| CliError::usage(format!("{e}")));
    }
    if has_flag(args, "--opencl") {
        eprintln!("warning: --opencl is deprecated; use --backend opencl");
        return Ok(Backend::OpenCl);
    }
    Ok(Backend::Cuda)
}

fn cmd_generate(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let request = request(args)?;
    let backend = parse_backend(args)?;
    let generated = request
        .generator()
        .generate(&request.contraction, &request.sizes)
        .map_err(|e| format!("{e}"))?;
    eprint!("{}", kernel_summary(&request, &generated));
    eprintln!("backend:       {backend}");
    let hip_source;
    let source = match backend {
        Backend::Cuda => &generated.cuda_source,
        Backend::OpenCl => &generated.opencl_source,
        Backend::Hip => {
            // HIP sources are not carried on GeneratedKernel, so the HIP
            // print re-runs the same lower-then-pass pipeline here.
            let (precision, passes) = (request.precision, &request.passes);
            hip_source =
                emit_backend_kernel_with_passes(&generated.plan, precision, Backend::Hip, passes)
                    .map_err(|e| format!("{e}"))?
                    .0;
            &hip_source
        }
    };
    match flag_value(args, "-o") {
        Some(path) => {
            std::fs::write(path, source).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => writeln!(out, "{source}")?,
    }
    Ok(())
}

fn cmd_search(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let req = request(args)?;
    let top = positive(args, "--top")?.unwrap_or(8);
    let options = SearchOptions {
        top_k: top,
        ..SearchOptions::default()
    };
    let outcome = search(
        &req.contraction,
        &req.sizes,
        &req.device,
        req.precision,
        &options,
    );
    writeln!(
        out,
        "raw space {} | enumerated {} | survivors {} ({:.1}% pruned{})",
        outcome.raw_space,
        outcome.enumerated,
        outcome.survivors,
        outcome.pruned_fraction() * 100.0,
        if outcome.rules_relaxed {
            ", rules relaxed"
        } else {
            ""
        },
    )?;
    writeln!(
        out,
        "{:<4} {:>14} {:>10}  configuration",
        "#", "model cost", "GFLOPS"
    )?;
    for (rank, r) in outcome.ranked.iter().enumerate() {
        let plan = r
            .config
            .lower(&outcome.contraction, &req.sizes)
            .map_err(|e| format!("{e}"))?;
        let report = cogent::sim::simulate(&plan, &req.device, req.precision);
        writeln!(
            out,
            "{:<4} {:>14} {:>10.1}  {}",
            rank + 1,
            r.cost.total(),
            report.gflops,
            r.config
        )?;
    }
    Ok(())
}

/// Flags whose following token is a value, not a positional argument.
const VALUE_FLAGS: &[&str] = &[
    "--backend",
    "--size",
    "--sizes",
    "--device",
    "--group",
    "--threads",
    "--top",
    "--runs",
    "--folded",
    "--passes",
    "--trace-out",
    "--chrome-trace",
    "-o",
    "--addr",
    "--workers",
    "--queue-depth",
    "--max-conns",
    "--deadline-ms",
    "--max-deadline-ms",
    "--cache-dir",
    "--slow-threshold-ms",
    "--flight-dir",
    "--access-log",
];

/// Short tag for a suite entry's group, as `--group` accepts it.
fn group_tag(group: cogent::tccg::BenchGroup) -> &'static str {
    match group {
        cogent::tccg::BenchGroup::MachineLearning => "ml",
        cogent::tccg::BenchGroup::AoToMo => "aomo",
        cogent::tccg::BenchGroup::Ccsd => "ccsd",
        cogent::tccg::BenchGroup::CcsdT => "ccsdt",
    }
}

/// The TCCG entries `--group` selects: all of them without the flag.
///
/// # Errors
///
/// A usage error when the tag names no group (every group has entries).
fn suite_entries(args: &[String]) -> Result<Vec<cogent::tccg::TccgEntry>, CliError> {
    let entries = cogent::tccg::suite();
    let Some(tag) = flag_value(args, "--group") else {
        return Ok(entries);
    };
    let picked: Vec<_> = entries
        .into_iter()
        .filter(|e| group_tag(e.group) == tag)
        .collect();
    if picked.is_empty() {
        return Err(CliError::usage(format!(
            "unknown group {tag:?} (want ml|aomo|ccsd|ccsdt)"
        )));
    }
    Ok(picked)
}

/// The labelled requests of `batch`, `stats` and `audit`: the
/// `--group`-filtered suite when `--suite` is given (at the entry's own
/// sizes unless `--size`/`--sizes` override them), then each positional
/// spec, labelled by `spec_label`. Every request shares the flags.
fn collect_jobs(
    args: &[String],
    spec_label: fn(&str) -> String,
) -> Result<Vec<(String, Request)>, CliError> {
    // `--suite` optionally names the suite; only "tccg" exists. The name
    // is removed before positional parsing so it isn't taken for a spec.
    let mut args: Vec<String> = args.to_vec();
    if let Some(i) = args.iter().position(|a| a == "--suite") {
        if let Some(value) = args.get(i + 1) {
            if !value.starts_with('-') && !value.contains('-') && !value.contains('[') {
                if value != "tccg" {
                    return Err(CliError::usage(format!(
                        "unknown suite {value:?} (only tccg)"
                    )));
                }
                args.remove(i + 1);
            }
        }
    }
    let args = &args[..];
    let explicit_sizes = has_flag(args, "--size") || has_flag(args, "--sizes");
    let mut jobs = Vec::new();
    if has_flag(args, "--suite") {
        for entry in suite_entries(args)? {
            let mut request = Request::from_args(&entry.spec, args)?;
            if !explicit_sizes {
                request.sizes = entry.sizes();
            }
            jobs.push((entry.name.to_string(), request));
        }
    }
    for spec in positional_specs(args) {
        jobs.push((spec_label(spec), Request::from_args(spec, args)?));
    }
    Ok(jobs)
}

/// Each job's `(contraction, sizes)`, as `generate_many` takes them.
type Pairs = Vec<(Contraction, SizeMap)>;

/// A runtime failure when any of `total` generations failed.
fn all_generated(failures: usize, total: usize) -> Result<(), CliError> {
    match failures {
        0 => Ok(()),
        n => Err(format!("{n} of {total} generations failed").into()),
    }
}

/// The generator `jobs` share (`None` for no jobs), the worker count
/// (`--threads`, defaulting to `COGENT_THREADS`) and the jobs' [`Pairs`].
fn job_generator(
    args: &[String],
    jobs: &[(String, Request)],
) -> Result<Option<(Cogent, usize, Pairs)>, CliError> {
    let Some((_, first)) = jobs.first() else {
        return Ok(None);
    };
    let threads = positive(args, "--threads")?.unwrap_or_else(cogent::generator::threads_from_env);
    let pairs = jobs
        .iter()
        .map(|(_, r)| (r.contraction.clone(), r.sizes.clone()))
        .collect();
    Ok(Some((first.generator(), threads, pairs)))
}

/// Positional (non-flag) tokens, skipping every value that belongs to a
/// flag in [`VALUE_FLAGS`].
fn positional_specs(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if VALUE_FLAGS.contains(&arg.as_str()) {
            skip_value = true;
            continue;
        }
        if arg.starts_with('-') {
            continue;
        }
        out.push(arg.as_str());
    }
    out
}

/// A file stem for a contraction spec (`abcd-aebf-dfce` stays readable,
/// explicit forms lose their punctuation).
fn spec_file_stem(spec: &str) -> String {
    spec.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Generates kernels for a slate of contractions — positional specs, the
/// TCCG suite (`--suite`, optionally `--group`-filtered), or both —
/// through one shared cache and one `generate_many` thread pool.
fn cmd_batch(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let jobs = collect_jobs(args, spec_file_stem)?;
    let Some((generator, threads, pairs)) = job_generator(args, &jobs)? else {
        return Err(CliError::usage(
            "nothing to generate: pass contractions and/or --suite",
        ));
    };
    let generator = generator.with_default_cache();

    let out_dir = flag_value(args, "-o");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    }

    let started = Instant::now();
    let results = generator.generate_many(&pairs, threads);
    let elapsed = started.elapsed();

    let mut failures = 0usize;
    for ((label, request), result) in jobs.iter().zip(&results) {
        match result {
            Ok(kernel) => {
                writeln!(
                    out,
                    "ok    {label:<24} {:>8.1} GFLOPS at {}",
                    kernel.report.gflops, request.sizes
                )?;
                if let Some(dir) = out_dir {
                    let path = format!("{dir}/{label}.cu");
                    std::fs::write(&path, &kernel.cuda_source)
                        .map_err(|e| format!("writing {path}: {e}"))?;
                }
            }
            Err(e) => {
                failures += 1;
                writeln!(out, "fail  {label:<24} {e}")?;
            }
        }
    }
    let stats = generator.kernel_cache().map(|cache| cache.stats());
    eprintln!(
        "generated {}/{} kernels in {:.2}s on {} thread(s)",
        results.len() - failures,
        results.len(),
        elapsed.as_secs_f64(),
        threads,
    );
    if let Some(stats) = stats {
        eprintln!(
            "cache: capacity {} | hits {} | misses {} | evictions {} | entries {}",
            stats.capacity, stats.hits, stats.misses, stats.evictions, stats.entries
        );
    }
    all_generated(failures, results.len())
}

fn cmd_bench(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let r = request(args)?;
    let (tc, sizes, device) = (&r.contraction, &r.sizes, &r.device);
    writeln!(out, "{tc} at {sizes} on {device} (FP64, simulated)")?;
    let cogent = measure_cogent(tc, sizes, device, Precision::F64);
    writeln!(out, "  COGENT          {:>10.1} GFLOPS", cogent.gflops)?;
    let nwchem = NwchemLikeGenerator::new().measure(tc, sizes, device, Precision::F64);
    writeln!(out, "  NWChem-like     {:>10.1} GFLOPS", nwchem.gflops)?;
    if tc.batch_indices().is_empty() {
        let talsh = TtgtEngine::new().measure(tc, sizes, device, Precision::F64);
        writeln!(out, "  TAL_SH (TTGT)   {:>10.1} GFLOPS", talsh.gflops)?;
    } else {
        writeln!(
            out,
            "  TAL_SH (TTGT)   skipped (batch indices unsupported by TTGT)"
        )?;
    }
    Ok(())
}

fn cmd_explain(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "{}", explain_report(args)?)?;
    Ok(())
}

/// Runs the full pipeline with tracing forced on and renders the
/// resulting [`cogent::obs::PipelineTrace`] — as an indented span tree by
/// default, or as `cogent.trace.v3` JSON with `--json`. With
/// `--chrome-trace FILE` the span timeline is also written in the Chrome
/// trace-event format (load it in `chrome://tracing` or Perfetto).
fn explain_report(args: &[String]) -> Result<String, CliError> {
    let request = request(args)?;
    let backend = parse_backend(args)?;

    let generator = request.generator();
    let generated = traced(|| generator.generate(&request.contraction, &request.sizes))
        .map_err(|e| format!("{e}"))?;
    let trace = generated
        .trace
        .as_ref()
        .ok_or("pipeline finished without producing a trace")?;

    if let Some(path) = flag_value(args, "--chrome-trace") {
        let doc = cogent::obs::chrome::to_chrome_trace_string(trace);
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path}");
    }

    if has_flag(args, "--json") {
        return Ok(trace.to_json_string());
    }
    Ok(format!(
        "{}backend:       {backend}\n\n{}",
        kernel_summary(&request, &generated),
        trace.render_text().trim_end()
    ))
}

fn cmd_profile(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    write!(out, "{}", profile_report(args)?)?;
    Ok(())
}

/// Profiles the cold generation path: runs the full pipeline (no cache,
/// tracing forced on) `--runs` times and attributes the wall time to
/// phases with a self/total split — as a fixed-width self-time table by
/// default, as `cogent.profile.v1` JSON with `--json`. With
/// `--folded FILE` the per-call-path self times are also written as
/// flamegraph-compatible folded stacks (`flamegraph.pl` / speedscope).
fn profile_report(args: &[String]) -> Result<String, CliError> {
    let request = request(args)?;
    let runs = positive(args, "--runs")?.unwrap_or(1);
    // Deliberately cache-less: every run exercises the cold path the
    // profile is meant to explain.
    let generator = request.generator();
    let mut folded = std::collections::BTreeMap::new();
    let (summary, profile) = traced(|| -> Result<_, CliError> {
        let mut profile: Option<cogent::obs::profile::PhaseProfile> = None;
        let mut summary = String::new();
        for _ in 0..runs {
            let kernel = generator
                .generate(&request.contraction, &request.sizes)
                .map_err(|e| format!("{e}"))?;
            summary = kernel_summary(&request, &kernel);
            let trace = kernel
                .trace
                .ok_or("pipeline finished without producing a trace")?;
            cogent::obs::profile::fold_stacks_into(&trace, &mut folded);
            let run_profile = cogent::obs::profile::PhaseProfile::from_trace(&trace);
            match profile.as_mut() {
                Some(acc) => acc.merge(&run_profile),
                None => profile = Some(run_profile),
            }
        }
        Ok((summary, profile))
    })?;
    let profile = profile.expect("runs >= 1: profile accumulated");

    if let Some(path) = flag_value(args, "--folded") {
        let doc = cogent::obs::profile::render_folded(&folded);
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote folded stacks to {path}");
    }

    if has_flag(args, "--json") {
        Ok(format!("{}\n", profile.to_json()))
    } else {
        Ok(format!(
            "{summary}{runs} cold run(s), {:?} on {}\n{}",
            request.precision,
            request.device,
            profile.render_table()
        ))
    }
}

/// Runs a slate of generations (like `batch`, minus the kernel output)
/// with tracing forced on, then prints a Prometheus-style text exposition
/// of the process-global metrics registry — every counter, histogram
/// quantile and gauge recorded by any worker thread.
fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let jobs = collect_jobs(args, str::to_string)?;
    let Some((generator, threads, pairs)) = job_generator(args, &jobs)? else {
        return Err(CliError::usage(
            "nothing to measure: pass contractions and/or --suite",
        ));
    };
    // Fresh window: only this slate's activity shows in the exposition.
    cogent::obs::reset_metrics();
    let results = traced(|| generator.generate_many(&pairs, threads));

    let mut failures = 0usize;
    for ((label, _), result) in jobs.iter().zip(&results) {
        if let Err(e) = result {
            failures += 1;
            eprintln!("fail  {label:<24} {e}");
        }
    }
    write!(
        out,
        "{}",
        cogent::obs::render_prometheus(&cogent::obs::metrics_snapshot())
    )?;
    all_generated(failures, results.len())
}

/// Audits the cost model against the `gpu-sim` transaction tracer: for
/// each contraction, the model's top-K configurations are measured and
/// summarized as relative-error percentiles, Spearman rank correlation,
/// and the regret of the model's pick (see `cogent::generator::audit`).
fn cmd_audit(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let top = positive(args, "--top")?.unwrap_or(8);

    let jobs = collect_jobs(args, str::to_string)?;
    if jobs.is_empty() {
        return Err(CliError::usage(
            "nothing to audit: pass contractions and/or --suite",
        ));
    }

    let mut options = cogent::generator::AuditOptions {
        top_k: top,
        ..cogent::generator::AuditOptions::default()
    };
    if has_flag(args, "--exhaustive") {
        options.trace = cogent::sim::TraceOptions::exhaustive();
    }
    let mut audits = Vec::new();
    for (name, r) in &jobs {
        let audit = cogent::generator::audit_contraction(
            name,
            &r.contraction,
            &r.sizes,
            &r.device,
            r.precision,
            &options,
        )
        .map_err(|e| format!("auditing {name}: {e}"))?;
        audits.push(audit);
    }
    let report = cogent::generator::AuditReport::from_contractions(top, audits);
    if has_flag(args, "--json") {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{}", report.render_text())?;
    }
    Ok(())
}

/// Builds a [`cogent::generator::ServeConfig`] from the environment
/// (strictly) plus command-line flags.
fn parse_serve_config(args: &[String]) -> Result<cogent::generator::ServeConfig, CliError> {
    let mut config = cogent::generator::ServeConfig::from_env().map_err(CliError::usage)?;
    config.addr = flag_value(args, "--addr")
        .unwrap_or("127.0.0.1:7437")
        .to_string();
    if let Some(n) = positive(args, "--workers")? {
        config.workers = n;
    }
    if let Some(n) = positive(args, "--queue-depth")? {
        config.queue_depth = n;
    }
    if let Some(n) = positive(args, "--max-conns")? {
        config.max_conns = n;
    }
    if let Some(ms) = positive(args, "--deadline-ms")? {
        config.default_deadline = std::time::Duration::from_millis(ms as u64);
    }
    if let Some(ms) = positive(args, "--max-deadline-ms")? {
        config.max_deadline = std::time::Duration::from_millis(ms as u64);
    }
    if let Some(dir) = flag_value(args, "--cache-dir") {
        config.cache_dir = Some(dir.into());
    }
    if has_flag(args, "--allow-fault-injection") {
        config.allow_fault_injection = true;
    }
    if let Some(ms) = positive(args, "--slow-threshold-ms")? {
        config.slow_threshold = std::time::Duration::from_millis(ms as u64);
    }
    if let Some(dir) = flag_value(args, "--flight-dir") {
        config.flight_dir = Some(dir.into());
    }
    if let Some(dest) = flag_value(args, "--access-log") {
        config.access_log = Some(dest.into());
    }
    Ok(config)
}

/// Runs the kernel-generation daemon in the foreground until SIGTERM or
/// SIGINT (see `cogent::generator::serve`).
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let config = parse_serve_config(args)?;
    cogent::generator::serve::run(config).map_err(|e| CliError::runtime(format!("{e}")))
}

/// Analyzes a file of `{"label", "trace"}` JSON lines: a flight dump
/// (from `--flight-dir` or `GET /v1/debug/flight`) or a figure binary's
/// `results/*_traces.jsonl`. Tables the slowest records with their
/// access-log columns and largest self-time phase, then merges every
/// trace into one phase profile.
fn cmd_flight(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use cogent::obs::flight::{parse_lines, RequestSummary};
    use cogent::obs::profile::PhaseProfile;
    let path = positional_specs(args)
        .into_iter()
        .next()
        .ok_or_else(|| CliError::usage("missing flight dump argument"))?;
    let top = positive(args, "--top")?.unwrap_or(10);
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let traces = parse_lines(&text).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    let mut records: Vec<(RequestSummary, PhaseProfile)> = traces
        .iter()
        .map(|(id, t)| (RequestSummary::of(id, t), PhaseProfile::from_trace(t)))
        .collect();
    if records.is_empty() {
        writeln!(out, "flight dump {path}: no recorded requests")?;
        return Ok(());
    }
    records.sort_by_key(|(summary, _)| std::cmp::Reverse(summary.total_ns));

    let n = records.len();
    writeln!(out, "flight dump {path}: {n} request(s)\n")?;
    writeln!(
        out,
        "{:<24} {:>4} {:<10} {:>12} {:>12} {:>12}  {:<5} slowest phase",
        "id", "code", "endpoint", "total_ms", "queue_ms", "search_ms", "cache"
    )?;
    for (summary, profile) in records.iter().take(top) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let slowest = profile
            .phases
            .first()
            .map(|p| format!("{} ({:.1}ms)", p.name, p.self_ns as f64 / 1e6))
            .unwrap_or_else(|| "-".to_string());
        writeln!(
            out,
            "{:<24} {:>4} {:<10} {:>12.2} {:>12.2} {:>12.2}  {:<5} {}",
            summary.id,
            summary.status,
            summary.endpoint,
            ms(summary.total_ns),
            ms(summary.queue_wait_ns),
            ms(summary.search_ns),
            summary.cache,
            slowest
        )?;
    }
    if n > top {
        writeln!(out, "... {} more (raise --top to see them)", n - top)?;
    }

    let mut merged = records[0].1.clone();
    for (_, profile) in &records[1..] {
        merged.merge(profile);
    }
    writeln!(out, "\n--- merged phase attribution ({n} requests) ---")?;
    write!(out, "{}", merged.render_table())?;
    Ok(())
}

fn cmd_suite(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    for entry in suite_entries(args)? {
        writeln!(out, "{entry}  ({:.2} GFLOP)", entry.flops() as f64 / 1e9)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `explain_report`, `profile_report` and `cmd_stats` save, set and
    /// restore the process-global tracing flag, so a test reaching them
    /// holds this lock: otherwise a sibling's restore can switch tracing
    /// off halfway through its run.
    static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tracing_lock() -> std::sync::MutexGuard<'static, ()> {
        // A test that failed while holding the lock leaves nothing to repair.
        TRACING.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["--size", "48", "--device", "p100", "--f32"]);
        assert_eq!(flag_value(&args, "--size"), Some("48"));
        assert_eq!(flag_value(&args, "--device"), Some("p100"));
        assert!(has_flag(&args, "--f32"));
        assert!(!has_flag(&args, "--opencl"));
    }

    #[test]
    fn sizes_uniform_and_explicit() {
        let sizes = |flags: &[&str]| request(&s(&[&["ij-ik-kj"], flags].concat())).map(|r| r.sizes);
        assert_eq!(sizes(&["--size", "64"]).unwrap().extent("i"), Some(64));
        let e = sizes(&["--sizes", "i=4,j=8,k=16"]).unwrap();
        assert_eq!(e.extent("k"), Some(16));
        assert!(sizes(&["--size", "0"]).is_err());
        assert!(sizes(&["--sizes", "i=4,j=8"]).is_err());
        assert!(sizes(&["--sizes", "i=4,j=8,k=x"]).is_err());
        assert!(sizes(&["--sizes", "i=0,j=8,k=4"]).is_err());
    }

    #[test]
    fn contraction_argument_skips_flags() {
        // The contraction is the first positional argument, wherever the
        // flags and their values sit.
        for args in [["--size", "8", "ij-ik-kj"], ["ij-ik-kj", "--size", "8"]] {
            assert_eq!(request(&s(&args)).unwrap().spec, "ij-ik-kj");
        }
        let e = request(&s(&["--size", "8"])).unwrap_err();
        assert_eq!(
            (e.exit, e.message.as_str()),
            (2, "missing contraction argument")
        );
    }

    #[test]
    fn backend_parsing() {
        assert_eq!(parse_backend(&s(&[])).unwrap(), Backend::Cuda);
        assert_eq!(
            parse_backend(&s(&["--backend", "opencl"])).unwrap(),
            Backend::OpenCl
        );
        assert_eq!(
            parse_backend(&s(&["--backend", "hip"])).unwrap(),
            Backend::Hip
        );
        // Deprecated spelling still selects OpenCL.
        assert_eq!(parse_backend(&s(&["--opencl"])).unwrap(), Backend::OpenCl);
        // --backend wins over the deprecated alias.
        assert_eq!(
            parse_backend(&s(&["--opencl", "--backend", "cuda"])).unwrap(),
            Backend::Cuda
        );
        let e = parse_backend(&s(&["--backend", "metal"])).unwrap_err();
        assert_eq!(e.exit, 2);
        assert!(e.message.contains("metal"));
    }

    #[test]
    fn device_parsing() {
        let device =
            |flags: &[&str]| request(&s(&[&["ij-ik-kj"], flags].concat())).map(|r| r.device);
        assert_eq!(device(&[]).unwrap().sm_count, 80);
        assert_eq!(device(&["--device", "p100"]).unwrap().sm_count, 56);
        assert!(device(&["--device", "h100"]).is_err());
    }

    #[test]
    fn run_rejects_unknown_command() {
        assert!(run(&s(&["frobnicate"]), &mut Vec::new()).is_err());
        assert!(run(&s(&[]), &mut Vec::new()).is_err());
    }

    #[test]
    fn serve_config_parses_flags() {
        let config = parse_serve_config(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--queue-depth",
            "5",
            "--deadline-ms",
            "1500",
            "--allow-fault-injection",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.workers, 3);
        assert_eq!(config.queue_depth, 5);
        assert_eq!(
            config.default_deadline,
            std::time::Duration::from_millis(1500)
        );
        assert!(config.allow_fault_injection);
    }

    #[test]
    fn serve_config_parses_flight_flags() {
        let config = parse_serve_config(&s(&[
            "--slow-threshold-ms",
            "250",
            "--flight-dir",
            "/tmp/flight",
            "--access-log",
            "-",
        ]))
        .unwrap();
        assert_eq!(config.slow_threshold, std::time::Duration::from_millis(250));
        assert_eq!(
            config.flight_dir.as_deref(),
            Some(std::path::Path::new("/tmp/flight"))
        );
        assert_eq!(
            config.access_log.as_deref(),
            Some(std::path::Path::new("-"))
        );

        let defaults = parse_serve_config(&s(&[])).unwrap();
        assert!(defaults.flight_dir.is_none());
        assert!(defaults.access_log.is_none());
    }

    #[test]
    fn serve_config_rejects_bad_flags() {
        for bad in [
            &["--workers", "0"][..],
            &["--workers", "two"],
            &["--queue-depth", "-1"],
            &["--deadline-ms", "soon"],
            &["--slow-threshold-ms", "0"],
        ] {
            let e = parse_serve_config(&s(bad)).unwrap_err();
            assert_eq!(e.exit, 2, "{bad:?}");
        }
    }

    #[test]
    fn flight_command_analyzes_a_dump() {
        use cogent::obs::flight::FlightRecorder;
        use cogent::obs::{PipelineTrace, SpanNode};
        let recorder = FlightRecorder::new(8);
        for (id, endpoint) in [("req-a", "generate"), ("req-b", "explain")] {
            let mut root = SpanNode::closed(endpoint, 0, 3_000);
            root.add_counter("serve.status.200", 1);
            root.add_counter("cache.miss", 1);
            root.children = vec![
                SpanNode::closed("read", 0, 1_000),
                SpanNode::closed("queue", 1_000, 500),
                SpanNode::closed("serve.job", 1_500, 1_400),
            ];
            recorder.record(id.to_string(), PipelineTrace { root });
        }
        let path = std::env::temp_dir().join("cogent_flight_cli_test.jsonl");
        std::fs::write(&path, recorder.to_lines()).unwrap();
        let path_s = path.to_str().unwrap().to_string();

        let mut table = Vec::new();
        assert!(cmd_flight(&s(&[&path_s]), &mut table).is_ok());
        let table = String::from_utf8(table).unwrap();
        assert!(table.contains("2 request(s)"), "{table}");
        let row = table.lines().find(|l| l.starts_with("req-a")).unwrap();
        let columns = "req-a 200 generate 0.00 0.00 0.00 miss serve.job (0.0ms)";
        assert!(row.split_whitespace().eq(columns.split(' ')), "{row}");
        assert!(table.contains("merged phase attribution (2 requests)"));
        assert!(cmd_flight(&s(&["--top", "1", &path_s]), &mut Vec::new()).is_ok());
        let e = cmd_flight(&s(&[&path_s, "--top", "0"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);

        std::fs::write(&path, "{\"schema\":\"bogus\"}").unwrap();
        assert!(cmd_flight(&s(&[&path_s]), &mut Vec::new()).is_err());
        let _ = std::fs::remove_file(&path);

        // A figure binary's trace file reads the same way.
        let traces = concat!(env!("CARGO_MANIFEST_DIR"), "/results/");
        let traces = format!("{traces}pruning_stats_traces.jsonl");
        assert!(cmd_flight(&s(&[&traces]), &mut Vec::new()).is_ok());

        let e = cmd_flight(&s(&[]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2, "missing dump argument is a usage error");
    }

    #[test]
    fn suite_command_runs() {
        let mut out = Vec::new();
        cmd_suite(&s(&["--group", "ccsdt"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 18, "{text}");
    }

    #[test]
    fn positional_specs_skip_flag_values() {
        let args = s(&[
            "ij-ik-kj",
            "--size",
            "8",
            "--device",
            "v100",
            "abc-bda-dc",
            "--f32",
        ]);
        assert_eq!(positional_specs(&args), vec!["ij-ik-kj", "abc-bda-dc"]);
    }

    #[test]
    fn spec_file_stems_are_filesystem_safe() {
        assert_eq!(spec_file_stem("abcd-aebf-dfce"), "abcd-aebf-dfce");
        assert_eq!(
            spec_file_stem("C[i,j] = A[i,k] * B[k,j]"),
            "C_i_j____A_i_k____B_k_j_"
        );
    }

    #[test]
    fn batch_command_generates_multiple_kernels() {
        let dir = std::env::temp_dir().join("cogent_batch_test");
        let dir_s = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        let args = s(&[
            "ij-ik-kj",
            "abc-bda-dc",
            "--size",
            "12",
            "--threads",
            "2",
            "-o",
            &dir_s,
        ]);
        cmd_batch(&args, &mut Vec::new()).unwrap();
        assert!(dir.join("ij-ik-kj.cu").exists());
        assert!(dir.join("abc-bda-dc.cu").exists());
        let src = std::fs::read_to_string(dir.join("ij-ik-kj.cu")).unwrap();
        assert!(src.contains("__global__"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_without_jobs_is_a_usage_error() {
        let e = cmd_batch(&s(&["--size", "8"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);
        assert!(e.message.contains("nothing to generate"));
    }

    #[test]
    fn batch_rejects_bad_threads() {
        let e = cmd_batch(&s(&["ij-ik-kj", "--threads", "zero"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);
    }

    #[test]
    fn split_trace_out_strips_flag_and_value() {
        let (rest, out) =
            split_trace_out(s(&["explain", "ij-ik-kj", "--trace-out", "t.json"])).unwrap();
        assert_eq!(rest, s(&["explain", "ij-ik-kj"]));
        assert_eq!(out.as_deref(), Some("t.json"));
        let (rest, out) = split_trace_out(s(&["suite"])).unwrap();
        assert_eq!(rest, s(&["suite"]));
        assert_eq!(out, None);
        let e = split_trace_out(s(&["suite", "--trace-out"])).unwrap_err();
        assert_eq!(e.exit, 2);
    }

    #[test]
    fn audit_command_reports_fidelity() {
        // Ad-hoc spec path (no suite): must succeed and print a table.
        assert!(cmd_audit(
            &s(&["ij-ik-kj", "--size", "24", "--top", "3"]),
            &mut Vec::new()
        )
        .is_ok());
        // JSON mode on the same contraction.
        assert!(cmd_audit(
            &s(&["ij-ik-kj", "--size", "24", "--top", "3", "--json"]),
            &mut Vec::new()
        )
        .is_ok());
    }

    #[test]
    fn audit_suite_name_is_consumed_not_parsed_as_spec() {
        // "--suite tccg" with a group filter: the word "tccg" must not be
        // treated as a contraction spec.
        assert!(cmd_audit(
            &s(&["--suite", "tccg", "--group", "ml", "--size", "8", "--top", "2"]),
            &mut Vec::new()
        )
        .is_ok());
        let e = cmd_audit(&s(&["--suite", "gett", "--top", "2"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);
        assert!(e.message.contains("unknown suite"));
    }

    #[test]
    fn audit_without_jobs_or_bad_top_is_a_usage_error() {
        let e = cmd_audit(&s(&["--top", "4"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);
        assert!(e.message.contains("nothing to audit"));
        let e = cmd_audit(&s(&["ij-ik-kj", "--top", "0"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);
    }

    #[test]
    fn explain_writes_chrome_trace_file() {
        let _tracing = tracing_lock();
        let path = std::env::temp_dir().join("cogent_chrome_test.json");
        let path_s = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        explain_report(&s(&["ij-ik-kj", "--size", "8", "--chrome-trace", &path_s])).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = cogent::obs::json::Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| e.get("name").unwrap().as_str() == Some("enumerate")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_reports_phase_self_times() {
        let _tracing = tracing_lock();
        let out = profile_report(&s(&["ij-ik-kj", "--size", "8", "--runs", "2"])).unwrap();
        assert!(out.contains("phase"), "no table header in:\n{out}");
        assert!(out.contains("coverage:"), "no coverage line in:\n{out}");
        for phase in ["enumerate", "prune", "rank", "lower", "codegen"] {
            assert!(out.contains(phase), "phase {phase} missing from:\n{out}");
        }
        assert!(out.contains("2 cold run(s)"));
    }

    #[test]
    fn profile_json_follows_the_schema() {
        let _tracing = tracing_lock();
        let out = profile_report(&s(&["ij-ik-kj", "--size", "8", "--json"])).unwrap();
        let doc = cogent::obs::json::Json::parse(&out).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("cogent.profile.v1")
        );
        assert_eq!(doc.get("runs").unwrap().as_u128(), Some(1));
        assert!(doc.get("wall_ns").unwrap().as_u128().unwrap() > 0);
        assert!(!doc.get("phases").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn profile_writes_folded_stacks() {
        let _tracing = tracing_lock();
        let path = std::env::temp_dir().join("cogent_folded_test.txt");
        let path_s = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        profile_report(&s(&["ij-ik-kj", "--size", "8", "--folded", &path_s])).unwrap();
        let folded = std::fs::read_to_string(&path).unwrap();
        // Every line is `path;to;span self_ns`, rooted at the generate span.
        assert!(folded.lines().count() > 3);
        assert!(folded.lines().all(|l| l
            .rsplit_once(' ')
            .is_some_and(|(_, ns)| ns.parse::<u128>().is_ok())));
        assert!(
            folded
                .lines()
                .any(|l| l.starts_with("generate;search;prune ")),
            "no generate;search;prune path in:\n{folded}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_rejects_bad_runs() {
        let _tracing = tracing_lock();
        let e = profile_report(&s(&["ij-ik-kj", "--runs", "0"])).unwrap_err();
        assert_eq!(e.exit, 2);
        let e = profile_report(&s(&["ij-ik-kj", "--runs", "many"])).unwrap_err();
        assert_eq!(e.exit, 2);
    }

    #[test]
    fn stats_without_jobs_is_a_usage_error() {
        let _tracing = tracing_lock();
        let e = cmd_stats(&s(&["--size", "8"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);
        assert!(e.message.contains("nothing to measure"));
    }

    #[test]
    fn bench_command_runs_small() {
        assert!(cmd_bench(&s(&["ij-ik-kj", "--size", "128"]), &mut Vec::new()).is_ok());
    }

    /// Every pipeline phase must show up as a span line in the rendered
    /// `explain` tree (golden structure, not golden bytes: timings vary).
    #[test]
    fn explain_text_has_one_span_per_phase() {
        let _tracing = tracing_lock();
        let out = explain_report(&s(&["abcd-aebf-dfce", "--size", "16"])).unwrap();
        for phase in ["enumerate", "prune", "rank", "lower", "codegen", "simulate"] {
            let hits = out
                .lines()
                .filter(|l| l.trim_start().starts_with(phase))
                .count();
            assert!(hits >= 1, "phase {phase} missing from:\n{out}");
        }
        // Single-shot phases appear exactly once; `simulate` repeats (one
        // span per refined candidate), which the tree makes visible.
        for phase in ["enumerate", "prune", "rank", "codegen"] {
            let hits = out
                .lines()
                .filter(|l| l.trim_start().starts_with(phase))
                .count();
            assert_eq!(hits, 1, "phase {phase} duplicated in:\n{out}");
        }
    }

    #[test]
    fn explain_json_round_trips_with_required_spans() {
        let _tracing = tracing_lock();
        let out = explain_report(&s(&["abcd-aebf-dfce", "--size", "16", "--json"])).unwrap();
        let trace = cogent::obs::PipelineTrace::from_json_str(&out).unwrap();
        for phase in ["enumerate", "prune", "rank", "lower", "codegen", "simulate"] {
            let span = trace
                .find(phase)
                .unwrap_or_else(|| panic!("span {phase} missing from JSON trace"));
            assert!(span.duration_ns > 0, "{phase} has zero duration");
            assert!(!span.counters.is_empty(), "{phase} has no counters");
        }
    }
}
