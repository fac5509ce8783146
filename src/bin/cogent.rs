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
//! `COGENT_THREADS` parallelizes the search (and `batch` jobs);
//! `COGENT_CACHE_CAP` sizes the kernel cache used by `batch` and
//! `explain`. Neither changes the emitted kernels.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use cogent::baselines::{measure_cogent, NwchemLikeGenerator, TtgtEngine};
use cogent::generator::codegen::{emit_backend_kernel_with_passes, Backend, PassConfig};
use cogent::generator::select::{search, SearchOptions};
use cogent::prelude::*;
use cogent::sim::plan::StoreMode;

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
  cogent generate <contraction> [--size N | --sizes i=N,j=M,...]
                  [--device v100|p100] [--f32] [--accumulate]
                  [--backend cuda|opencl|hip] [--passes none|default|LIST]
                  [-o FILE]
  cogent search   <contraction> [--size N | --sizes ...] [--device ...] [--top K]
  cogent batch    [<contraction>...] [--suite] [--group ml|aomo|ccsd|ccsdt]
                  [--size N | --sizes ...] [--device ...] [--f32] [--threads N] [-o DIR]
  cogent bench    <contraction> [--size N | --sizes ...] [--device ...]
  cogent explain  <contraction> [--size N | --sizes ...] [--device ...] [--f32]
                  [--backend cuda|opencl|hip] [--passes none|default|LIST]
                  [--json] [--chrome-trace FILE]
  cogent profile  <contraction> [--size N | --sizes ...] [--device ...] [--f32]
                  [--runs N] [--json] [--folded FILE]
  cogent stats    [<contraction>...] [--suite] [--group ml|aomo|ccsd|ccsdt]
                  [--size N | --sizes ...] [--device ...] [--f32] [--threads N]
  cogent audit    [<contraction>...] [--suite [tccg]] [--group ml|aomo|ccsd|ccsdt]
                  [--size N | --sizes ...] [--device ...] [--f32] [--top K]
                  [--exhaustive] [--json]
  cogent suite    [--group ml|aomo|ccsd|ccsdt]
  cogent serve    [--addr HOST:PORT] [--workers N] [--queue-depth N]
                  [--max-conns N] [--deadline-ms N] [--max-deadline-ms N]
                  [--cache-dir DIR] [--allow-fault-injection]
                  [--slow-threshold-ms N] [--flight-dir DIR]
                  [--access-log FILE|-]
  cogent flight   <dump.json> [--top N]

every command also accepts --trace-out FILE to write its pipeline trace
as cogent.trace.v3 JSON (\"-\" prints the stderr tree instead)

--passes selects the KIR optimization pipeline: none (baseline, the
default), default (vectorize-loads, smem-pad, double-buffer), or a
comma-separated list of those pass names in application order

contractions use TCCG notation (\"abcd-aebf-dfce\") or the explicit form
(\"C[i,j] = A[i,k] * B[k,j]\"); set COGENT_TRACE=1 to print any command's
pipeline trace to stderr, COGENT_THREADS to parallelize the search,
COGENT_CACHE_CAP to size the kernel cache (0 disables it), and
COGENT_CACHE_DIR to persist the serve cache across restarts";

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
    cogent::generator::select::threads_from_env_checked().map_err(CliError::usage)?;
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

/// Returns the value following `flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_contraction(args: &[String]) -> Result<Contraction, CliError> {
    let spec = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or_else(|| CliError::usage("missing contraction argument"))?;
    cogent::ir::parse::parse_allowing_batch(spec).map_err(|e| CliError::usage(format!("{e}")))
}

/// Builds the size map from `--size N` (uniform) or `--sizes i=4,j=8,...`.
fn parse_sizes(args: &[String], tc: &Contraction) -> Result<SizeMap, CliError> {
    if let Some(list) = flag_value(args, "--sizes") {
        let mut sizes = SizeMap::new();
        for part in list.split(',') {
            let (name, value) = part.split_once('=').ok_or_else(|| {
                CliError::usage(format!("bad size entry {part:?} (want index=extent)"))
            })?;
            let extent: usize = value
                .parse()
                .map_err(|_| CliError::usage(format!("bad extent {value:?} for index {name}")))?;
            if extent == 0 {
                return Err(CliError::usage(format!(
                    "extent for {name} must be positive"
                )));
            }
            sizes.set(
                cogent::ir::IndexName::try_new(name.trim())
                    .ok_or_else(|| CliError::usage(format!("bad index name {name:?}")))?,
                extent,
            );
        }
        if !sizes.covers(tc) {
            return Err(CliError::usage(
                "--sizes does not cover every contraction index",
            ));
        }
        Ok(sizes)
    } else {
        let n: usize = flag_value(args, "--size")
            .unwrap_or("32")
            .parse()
            .map_err(|_| CliError::usage("bad --size value"))?;
        if n == 0 {
            return Err(CliError::usage("--size must be positive"));
        }
        Ok(SizeMap::uniform(tc, n))
    }
}

fn parse_device(args: &[String]) -> Result<GpuDevice, CliError> {
    match flag_value(args, "--device") {
        None | Some("v100") => Ok(GpuDevice::v100()),
        Some("p100") => Ok(GpuDevice::p100()),
        Some(other) => Err(CliError::usage(format!(
            "unknown device {other:?} (want v100 or p100)"
        ))),
    }
}

fn parse_precision(args: &[String]) -> Precision {
    if has_flag(args, "--f32") {
        Precision::F32
    } else {
        Precision::F64
    }
}

/// Resolves the KIR pass pipeline from `--passes`. Pass names are
/// validated at pipeline build time, inside generation, so a typo is a
/// runtime error carrying the offending name.
fn parse_passes(args: &[String]) -> PassConfig {
    match flag_value(args, "--passes") {
        Some(spec) => PassConfig::parse(spec),
        None => PassConfig::None,
    }
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
    let tc = parse_contraction(args)?;
    let sizes = parse_sizes(args, &tc)?;
    let device = parse_device(args)?;
    let precision = parse_precision(args);
    let backend = parse_backend(args)?;
    let passes = parse_passes(args);
    let mut generator = Cogent::new()
        .device(device)
        .precision(precision)
        .passes(passes.clone());
    if has_flag(args, "--accumulate") {
        generator = generator.store_mode(StoreMode::Accumulate);
    }
    let generated = generator
        .generate(&tc, &sizes)
        .map_err(|e| format!("{e}"))?;

    eprintln!("contraction:   {tc}");
    eprintln!("configuration: {}", generated.config);
    eprintln!("provenance:    {}", generated.provenance);
    if !generated.provenance.passes.is_empty() {
        eprintln!("passes:        {}", generated.provenance.passes.join(", "));
    }
    eprintln!(
        "predicted:     {:.1} GFLOPS at {sizes} ({} candidates enumerated, {:.1}% pruned)",
        generated.report.gflops,
        generated.search.enumerated,
        generated.search.pruned_fraction() * 100.0
    );
    eprintln!("backend:       {backend}");
    let hip_source;
    let source = match backend {
        Backend::Cuda => &generated.cuda_source,
        Backend::OpenCl => &generated.opencl_source,
        Backend::Hip => {
            // HIP sources are not carried on GeneratedKernel, so the HIP
            // print re-runs the same lower-then-pass pipeline here.
            hip_source =
                emit_backend_kernel_with_passes(&generated.plan, precision, Backend::Hip, &passes)
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
    let tc = parse_contraction(args)?;
    let sizes = parse_sizes(args, &tc)?;
    let device = parse_device(args)?;
    let precision = parse_precision(args);
    let top: usize = flag_value(args, "--top")
        .unwrap_or("8")
        .parse()
        .map_err(|_| CliError::usage("bad --top value"))?;

    let options = SearchOptions {
        top_k: top,
        ..SearchOptions::default()
    };
    let outcome = search(&tc, &sizes, &device, precision, &options);
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
            .lower(&outcome.contraction, &sizes)
            .map_err(|e| format!("{e}"))?;
        let report = cogent::sim::simulate(&plan, &device, precision);
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

/// The `(label, contraction, sizes)` jobs of `batch`, `stats` and
/// `audit`: the `--group`-filtered suite when `--suite` is given (at the
/// entry's own sizes unless `--size`/`--sizes` override them), then each
/// positional spec, labelled by `spec_label`.
fn collect_jobs(
    args: &[String],
    spec_label: fn(&str) -> String,
) -> Result<Vec<(String, Contraction, SizeMap)>, CliError> {
    let explicit_sizes = has_flag(args, "--size") || has_flag(args, "--sizes");
    let mut jobs = Vec::new();
    if has_flag(args, "--suite") {
        for entry in suite_entries(args)? {
            let tc = entry.contraction();
            let sizes = if explicit_sizes {
                parse_sizes(args, &tc)?
            } else {
                entry.sizes()
            };
            jobs.push((entry.name.to_string(), tc, sizes));
        }
    }
    for spec in positional_specs(args) {
        let tc = cogent::ir::parse::parse_allowing_batch(spec)
            .map_err(|e| CliError::usage(format!("{e}")))?;
        let sizes = parse_sizes(args, &tc)?;
        jobs.push((spec_label(spec), tc, sizes));
    }
    Ok(jobs)
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
    let device = parse_device(args)?;
    let precision = parse_precision(args);
    let jobs = collect_jobs(args, spec_file_stem)?;
    if jobs.is_empty() {
        return Err(CliError::usage(
            "nothing to generate: pass contractions and/or --suite",
        ));
    }

    let mut options = cogent::generator::SearchOptions::default();
    if let Some(threads) = flag_value(args, "--threads") {
        options.threads = threads
            .parse()
            .map_err(|_| CliError::usage("bad --threads value"))?;
    }
    let threads = options.threads.max(1);
    let generator = Cogent::new()
        .device(device)
        .precision(precision)
        .search_options(options)
        .with_default_cache();

    let out_dir = flag_value(args, "-o");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    }

    let pairs: Vec<(Contraction, SizeMap)> = jobs
        .iter()
        .map(|(_, tc, sizes)| (tc.clone(), sizes.clone()))
        .collect();
    let started = Instant::now();
    let results = generator.generate_many(&pairs);
    let elapsed = started.elapsed();

    let mut failures = 0usize;
    for ((label, _, sizes), result) in jobs.iter().zip(&results) {
        match result {
            Ok(kernel) => {
                writeln!(
                    out,
                    "ok    {label:<24} {:>8.1} GFLOPS at {sizes}",
                    kernel.report.gflops
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
    if failures > 0 {
        return Err(CliError::runtime(format!(
            "{failures} of {} generations failed",
            results.len()
        )));
    }
    Ok(())
}

fn cmd_bench(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let tc = parse_contraction(args)?;
    let sizes = parse_sizes(args, &tc)?;
    let device = parse_device(args)?;
    writeln!(out, "{tc} at {sizes} on {device} (FP64, simulated)")?;
    let cogent = measure_cogent(&tc, &sizes, &device, Precision::F64);
    writeln!(out, "  COGENT          {:>10.1} GFLOPS", cogent.gflops)?;
    let nwchem = NwchemLikeGenerator::new().measure(&tc, &sizes, &device, Precision::F64);
    writeln!(out, "  NWChem-like     {:>10.1} GFLOPS", nwchem.gflops)?;
    if tc.batch_indices().is_empty() {
        let talsh = TtgtEngine::new().measure(&tc, &sizes, &device, Precision::F64);
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
    let tc = parse_contraction(args)?;
    let sizes = parse_sizes(args, &tc)?;
    let device = parse_device(args)?;
    let precision = parse_precision(args);
    let backend = parse_backend(args)?;

    let was_enabled = cogent::obs::enabled();
    cogent::obs::set_enabled(true);
    let generator = Cogent::new()
        .device(device)
        .precision(precision)
        .passes(parse_passes(args))
        .with_default_cache();
    let result = generator.generate(&tc, &sizes);
    cogent::obs::set_enabled(was_enabled);
    let generated = result.map_err(|e| format!("{e}"))?;
    let trace = generated
        .trace
        .ok_or("pipeline finished without producing a trace")?;

    if let Some(path) = flag_value(args, "--chrome-trace") {
        let doc = cogent::obs::chrome::to_chrome_trace_string(&trace);
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path}");
    }

    if has_flag(args, "--json") {
        Ok(trace.to_json_string())
    } else {
        let cache_line = match generator.kernel_cache() {
            Some(cache) => {
                let stats = cache.stats();
                format!(
                    "cache:         capacity {} ({}={}) | hits {} | misses {} | evictions {}\n",
                    stats.capacity,
                    cogent::generator::CACHE_CAP_ENV_VAR,
                    stats.capacity,
                    stats.hits,
                    stats.misses,
                    stats.evictions,
                )
            }
            None => String::new(),
        };
        let passes_line = if generated.provenance.passes.is_empty() {
            String::new()
        } else {
            format!(
                "passes:        {}\n",
                generated.provenance.passes.join(", ")
            )
        };
        Ok(format!(
            "contraction:   {tc}\nconfiguration: {}\nprovenance:    {}\n{passes_line}backend:       {backend}\npredicted:     {:.1} GFLOPS at {sizes}\n{cache_line}\n{}",
            generated.config,
            generated.provenance,
            generated.report.gflops,
            trace.render_text().trim_end()
        ))
    }
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
    let tc = parse_contraction(args)?;
    let sizes = parse_sizes(args, &tc)?;
    let device = parse_device(args)?;
    let precision = parse_precision(args);
    let runs: u64 = flag_value(args, "--runs")
        .unwrap_or("1")
        .parse()
        .map_err(|_| CliError::usage("bad --runs value"))?;
    if runs == 0 {
        return Err(CliError::usage("--runs must be positive"));
    }

    // Deliberately cache-less: every run exercises the cold path the
    // profile is meant to explain.
    let generator = Cogent::new().device(device.clone()).precision(precision);
    let was_enabled = cogent::obs::enabled();
    cogent::obs::set_enabled(true);
    let mut profile: Option<cogent::obs::profile::PhaseProfile> = None;
    let mut folded = std::collections::BTreeMap::new();
    let mut failure = None;
    for _ in 0..runs {
        match generator.generate(&tc, &sizes) {
            Ok(kernel) => {
                let Some(trace) = kernel.trace else {
                    failure = Some(CliError::runtime(
                        "pipeline finished without producing a trace",
                    ));
                    break;
                };
                cogent::obs::profile::fold_stacks_into(&trace, &mut folded);
                let run_profile = cogent::obs::profile::PhaseProfile::from_trace(&trace);
                match profile.as_mut() {
                    Some(acc) => acc.merge(&run_profile),
                    None => profile = Some(run_profile),
                }
            }
            Err(e) => {
                failure = Some(CliError::runtime(format!("{e}")));
                break;
            }
        }
    }
    cogent::obs::set_enabled(was_enabled);
    if let Some(e) = failure {
        return Err(e);
    }
    let profile = profile.expect("runs >= 1 and no failure: profile accumulated");

    if let Some(path) = flag_value(args, "--folded") {
        let doc = cogent::obs::profile::render_folded(&folded);
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote folded stacks to {path}");
    }

    if has_flag(args, "--json") {
        Ok(format!("{}\n", profile.to_json()))
    } else {
        Ok(format!(
            "contraction: {tc} at {sizes} ({runs} cold run(s), {precision:?} on {device})\n{}",
            profile.render_table()
        ))
    }
}

/// Runs a slate of generations (like `batch`, minus the kernel output)
/// with tracing forced on, then prints a Prometheus-style text exposition
/// of the process-global metrics registry — every counter, histogram
/// quantile and gauge recorded by any worker thread.
fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let device = parse_device(args)?;
    let precision = parse_precision(args);
    let jobs = collect_jobs(args, str::to_string)?;
    if jobs.is_empty() {
        return Err(CliError::usage(
            "nothing to measure: pass contractions and/or --suite",
        ));
    }

    let mut options = cogent::generator::SearchOptions::default();
    if let Some(threads) = flag_value(args, "--threads") {
        options.threads = threads
            .parse()
            .map_err(|_| CliError::usage("bad --threads value"))?;
    }
    let generator = Cogent::new()
        .device(device)
        .precision(precision)
        .search_options(options);

    let pairs: Vec<(Contraction, SizeMap)> = jobs
        .iter()
        .map(|(_, tc, sizes)| (tc.clone(), sizes.clone()))
        .collect();
    // Fresh window: only this slate's activity shows in the exposition.
    cogent::obs::reset_metrics();
    let was_enabled = cogent::obs::enabled();
    cogent::obs::set_enabled(true);
    let results = generator.generate_many(&pairs);
    cogent::obs::set_enabled(was_enabled);

    let mut failures = 0usize;
    for ((label, _, _), result) in jobs.iter().zip(&results) {
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
    if failures > 0 {
        return Err(CliError::runtime(format!(
            "{failures} of {} generations failed",
            results.len()
        )));
    }
    Ok(())
}

/// Audits the cost model against the `gpu-sim` transaction tracer: for
/// each contraction, the model's top-K configurations are measured and
/// summarized as relative-error percentiles, Spearman rank correlation,
/// and the regret of the model's pick (see `cogent::generator::audit`).
fn cmd_audit(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let device = parse_device(args)?;
    let precision = parse_precision(args);
    let top: usize = flag_value(args, "--top")
        .unwrap_or("8")
        .parse()
        .map_err(|_| CliError::usage("bad --top value"))?;
    if top == 0 {
        return Err(CliError::usage("--top must be positive"));
    }

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
    for (name, tc, sizes) in &jobs {
        let audit =
            cogent::generator::audit_contraction(name, tc, sizes, &device, precision, &options)
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
    let positive = |flag: &str| -> Result<Option<usize>, CliError> {
        match flag_value(args, flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .map(Some)
                .ok_or_else(|| {
                    CliError::usage(format!(
                        "bad {flag} value {raw:?} (want a positive integer)"
                    ))
                }),
        }
    };
    if let Some(n) = positive("--workers")? {
        config.workers = n;
    }
    if let Some(n) = positive("--queue-depth")? {
        config.queue_depth = n;
    }
    if let Some(n) = positive("--max-conns")? {
        config.max_conns = n;
    }
    if let Some(ms) = positive("--deadline-ms")? {
        config.default_deadline = std::time::Duration::from_millis(ms as u64);
    }
    if let Some(ms) = positive("--max-deadline-ms")? {
        config.max_deadline = std::time::Duration::from_millis(ms as u64);
    }
    if let Some(dir) = flag_value(args, "--cache-dir") {
        config.cache_dir = Some(dir.into());
    }
    if has_flag(args, "--allow-fault-injection") {
        config.allow_fault_injection = true;
    }
    if let Some(ms) = positive("--slow-threshold-ms")? {
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

/// Analyzes a `cogent.flight.v1` dump (from `--flight-dir` or
/// `GET /v1/debug/flight`): tables the slowest requests with phase
/// attribution, then merges every timeline into one phase profile.
fn cmd_flight(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let path = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or_else(|| CliError::usage("missing flight dump argument"))?;
    let top: usize = match flag_value(args, "--top") {
        None => 10,
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| CliError::usage(format!("bad --top value {raw:?}")))?,
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let mut records = cogent::obs::flight::parse_dump(&text)
        .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    if records.is_empty() {
        writeln!(out, "flight dump {path}: no recorded requests")?;
        return Ok(());
    }
    records.sort_by_key(|r| std::cmp::Reverse(r.total_ns));

    writeln!(out, "flight dump {path}: {} request(s)", records.len())?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<24} {:>4} {:<10} {:>12} {:>12} {:>12}  {:<5} slowest phase",
        "id", "code", "endpoint", "total_ms", "queue_ms", "search_ms", "cache"
    )?;
    for record in records.iter().take(top) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let profile = cogent::obs::profile::PhaseProfile::from_trace(&record.to_trace());
        let slowest = profile
            .phases
            .iter()
            .max_by_key(|p| p.total_ns)
            .map(|p| format!("{} ({:.1}ms)", p.name, p.total_ns as f64 / 1e6))
            .unwrap_or_else(|| "-".to_string());
        writeln!(
            out,
            "{:<24} {:>4} {:<10} {:>12.2} {:>12.2} {:>12.2}  {:<5} {}",
            record.id,
            record.status,
            record.endpoint,
            ms(record.total_ns),
            ms(record.queue_wait_ns),
            ms(record.search_ns),
            record.cache,
            slowest
        )?;
    }
    if records.len() > top {
        writeln!(
            out,
            "... {} more (raise --top to see them)",
            records.len() - top
        )?;
    }

    let mut merged: Option<cogent::obs::profile::PhaseProfile> = None;
    for record in &records {
        let profile = cogent::obs::profile::PhaseProfile::from_trace(&record.to_trace());
        match &mut merged {
            None => merged = Some(profile),
            Some(acc) => acc.merge(&profile),
        }
    }
    if let Some(merged) = merged {
        writeln!(out)?;
        writeln!(
            out,
            "--- merged phase attribution ({} requests) ---",
            records.len()
        )?;
        write!(out, "{}", merged.render_table())?;
    }
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
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let u = parse_sizes(&s(&["--size", "64"]), &tc).unwrap();
        assert_eq!(u.extent("i"), Some(64));
        let e = parse_sizes(&s(&["--sizes", "i=4,j=8,k=16"]), &tc).unwrap();
        assert_eq!(e.extent("k"), Some(16));
        assert!(parse_sizes(&s(&["--size", "0"]), &tc).is_err());
        assert!(parse_sizes(&s(&["--sizes", "i=4,j=8"]), &tc).is_err());
        assert!(parse_sizes(&s(&["--sizes", "i=4,j=8,k=x"]), &tc).is_err());
        assert!(parse_sizes(&s(&["--sizes", "i=0,j=8,k=4"]), &tc).is_err());
    }

    #[test]
    fn contraction_argument_skips_flags() {
        let args = s(&["--size", "8", "ij-ik-kj"]);
        // "8" is a value, not a flag — the parser finds the first
        // non-dash token; size values that parse as contractions would be
        // ambiguous, so commands put the contraction first by convention.
        // Here "8" fails to parse as a contraction, which is acceptable
        // behavior to document:
        assert!(parse_contraction(&args).is_err() || parse_contraction(&args).is_ok());
        let args = s(&["ij-ik-kj", "--size", "8"]);
        assert!(parse_contraction(&args).is_ok());
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
        assert_eq!(parse_device(&s(&[])).unwrap().sm_count, 80);
        assert_eq!(
            parse_device(&s(&["--device", "p100"])).unwrap().sm_count,
            56
        );
        assert!(parse_device(&s(&["--device", "h100"])).is_err());
    }

    #[test]
    fn run_rejects_unknown_command() {
        assert!(run(&s(&["frobnicate"]), &mut Vec::new()).is_err());
        assert!(run(&s(&[]), &mut Vec::new()).is_err());
    }

    /// Malformed invocations classify as usage errors (exit 2) with the
    /// exact one-line diagnostic; runtime failures stay exit 1.
    #[test]
    fn errors_classify_by_exit_code() {
        // "j=" splits into ("j", "") — an empty, unparsable extent.
        let e = run(
            &s(&["generate", "ij-ik-kj", "--sizes", "i=4,j="]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.exit, 2);
        assert_eq!(e.message, "bad extent \"\" for index j");

        // "j" has no '=' at all — a malformed entry.
        let e = run(
            &s(&["generate", "ij-ik-kj", "--sizes", "i=4,j"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.exit, 2);
        assert_eq!(e.message, "bad size entry \"j\" (want index=extent)");

        let e = run(
            &s(&["generate", "ij-ik-kj", "--sizes", "i=4,j=x,k=4"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.exit, 2);
        assert_eq!(e.message, "bad extent \"x\" for index j");

        let e = run(
            &s(&["generate", "ij-ik-kj", "--device", "h100"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(e.exit, 2);
        assert_eq!(e.message, "unknown device \"h100\" (want v100 or p100)");

        // Runtime failures (here: unknown command) keep exit 1.
        assert_eq!(
            run(&s(&["frobnicate"]), &mut Vec::new()).unwrap_err().exit,
            1
        );
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
        use cogent::obs::flight::{FlightRecorder, FlightTimeline};
        let recorder = FlightRecorder::new(8);
        for (id, endpoint) in [("req-a", "generate"), ("req-b", "explain")] {
            let mut timeline = FlightTimeline::start(id, endpoint);
            timeline.mark("queued");
            timeline.mark("started");
            recorder.record(timeline.finish(200));
        }
        let mut text = String::new();
        recorder.to_json().write(&mut text);
        let path = std::env::temp_dir().join("cogent_flight_cli_test.json");
        std::fs::write(&path, &text).unwrap();
        let path_s = path.to_str().unwrap().to_string();

        assert!(cmd_flight(&s(&[&path_s]), &mut Vec::new()).is_ok());
        assert!(cmd_flight(&s(&[&path_s, "--top", "1"]), &mut Vec::new()).is_ok());
        let e = cmd_flight(&s(&[&path_s, "--top", "0"]), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit, 2);

        std::fs::write(&path, "{\"schema\":\"bogus\"}").unwrap();
        assert!(cmd_flight(&s(&[&path_s]), &mut Vec::new()).is_err());
        let _ = std::fs::remove_file(&path);

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
    fn explain_mentions_the_cache() {
        let _tracing = tracing_lock();
        let out = explain_report(&s(&["ij-ik-kj", "--size", "8"])).unwrap();
        assert!(out.contains("cache:"), "no cache line in:\n{out}");
        assert!(out.contains("COGENT_CACHE_CAP"));
        assert!(
            out.contains("misses 1"),
            "fresh cache must miss once:\n{out}"
        );
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
