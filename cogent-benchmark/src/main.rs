//! `cogent-benchmark`: the repository's end-to-end and per-layer
//! benchmark. See README.md for the workloads, the metrics and why each
//! was chosen.
//!
//! ```text
//! cogent-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! cogent-benchmark trace [--workload W] [--seed N] [--quick] [--out FILE]
//! cogent-benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Each workload runs in a child process of its own (`child`), started
//! with the `COGENT_*` tuning variables removed from its environment.

mod compare;
mod compile;
mod inputs;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use cogent::obs::json::Json;

use crate::compile::Kind;
use crate::report::{END_TO_END, PER_LAYER};

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: &[&str] = &[
    "cold_tccg48",
    "verify_passes48",
    "serve_warm_zipf",
    "serve_cold_churn",
];

/// Variables that tune the program; a workload must not inherit them.
const SCRUBBED_ENV: &[&str] = &[
    "COGENT_THREADS",
    "COGENT_CACHE_CAP",
    "COGENT_CACHE_DIR",
    "COGENT_TRACE",
];

const USAGE: &str = "usage:
  cogent-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  cogent-benchmark trace [--workload W] [--seed N] [--quick] [--out FILE]
  cogent-benchmark compare PARENT_DIR CHANGE_DIR";

#[derive(Debug, Clone)]
pub struct Opts {
    pub workloads: Vec<String>,
    pub seed: u64,
    /// How long the timed phase of a workload lasts at least.
    pub seconds: u64,
    pub trace: bool,
    /// Smoke mode: 2 rounds or 100 requests, one setup.
    pub quick: bool,
    pub out: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String], trace: bool) -> Result<Opts, String> {
        let mut opts = Opts {
            workloads: Vec::new(),
            seed: 1,
            seconds: 15,
            trace,
            quick: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!(
                            "unknown workload {w:?}; known: {}",
                            WORKLOADS.join(", ")
                        ));
                    }
                    opts.workloads.push(w.clone());
                }
                "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
                "--seconds" => {
                    opts.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or("--seconds wants a positive integer")?
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace wants 0 or 1".into()),
                    }
                }
                "--quick" => opts.quick = true,
                "--out" => opts.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if opts.workloads.is_empty() {
            opts.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
        }
        if opts.quick && opts.out.is_some() {
            return Err("--quick numbers are a smoke test, not results: drop --out".into());
        }
        Ok(opts)
    }

    /// Setup repetitions; `setup_s` is the fastest.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => Opts::parse(rest, false).and_then(|o| run(&o)),
        Some("trace") => Opts::parse(rest, true).and_then(|o| run(&o)),
        Some("child") => Opts::parse(rest, false).and_then(|o| child(&o)),
        Some("compare") => compare::main(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("cogent-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result as the last
/// line of standard output.
fn child(opts: &Opts) -> Result<bool, String> {
    let [workload] = opts.workloads.as_slice() else {
        return Err("child runs exactly one --workload".into());
    };
    let mut outcome = match (workload.as_str(), opts.trace) {
        ("cold_tccg48", false) => compile::run(Kind::Cold, opts),
        ("cold_tccg48", true) => compile::trace(Kind::Cold, opts),
        ("verify_passes48", false) => compile::run(Kind::Verify, opts),
        ("verify_passes48", true) => compile::trace(Kind::Verify, opts),
        ("serve_warm_zipf", false) => serve::warm(opts),
        ("serve_warm_zipf", true) => serve::trace_warm(opts),
        ("serve_cold_churn", false) => serve::churn(opts),
        (_, _) => serve::trace_churn(opts),
    };
    if !opts.trace {
        outcome.set("peak_rss_mb", spans::peak_rss_mib());
    }
    println!("{}", outcome.to_json(opts.trace));
    Ok(true)
}

/// Starts `workload` in a child process with the scrubbed environment and
/// returns the result it printed.
fn spawn_child(opts: &Opts, workload: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| format!("{workload} printed no result: {e}"))
}

fn run(opts: &Opts) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut results = Vec::new();
    for workload in &opts.workloads {
        let result = spawn_child(opts, workload)?;
        for (name, _) in table {
            let metric = result.get("metrics").and_then(|m| m.get(name));
            let value = metric.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let unit = metric.and_then(|m| m.get("unit")).and_then(Json::as_str);
            println!(
                "{workload}/{name} {} {}",
                value.map_or("inf".into(), |v| v.to_string()),
                unit.unwrap_or("")
            );
        }
        for count in ["attempted", "failed"] {
            let n = result.get(count).and_then(Json::as_u128).unwrap_or(0);
            println!("{workload}/{count} {n} count");
        }
        for note in result
            .get("notes")
            .and_then(Json::as_array)
            .unwrap_or_default()
        {
            eprintln!("{workload}: {}", note.as_str().unwrap_or_default());
        }
        results.push((workload.clone(), result));
    }
    let correct = results
        .iter()
        .all(|(_, r)| r.get("correct") == Some(&Json::Bool(true)));
    if let Some(path) = &opts.out {
        write_results(opts, &results, path)?;
    }
    if let [(_, result)] = results.as_slice() {
        let contract = ["correct", "attempted", "failed", "metrics"]
            .map(|k| (k, result.get(k).cloned().unwrap_or(Json::Null)));
        println!("{}", Json::obj(contract));
    }
    Ok(correct)
}

fn write_results(opts: &Opts, results: &[(String, Json)], path: &PathBuf) -> Result<(), String> {
    let json = Json::obj([
        ("schema", Json::Str("cogent.benchmark.run.v1".into())),
        ("machine", machine()),
        ("seed", Json::UInt(u128::from(opts.seed))),
        ("seconds", Json::UInt(u128::from(opts.seconds))),
        ("trace", Json::Bool(opts.trace)),
        ("workloads", Json::Object(results.to_vec())),
    ]);
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Identity of the machine and build a result was measured with.
pub fn machine() -> Json {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let capture = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(repo)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        (
            "git_sha",
            Json::Str(capture(
                "git",
                &["describe", "--always", "--dirty", "--abbrev=40"],
            )),
        ),
        ("rustc", Json::Str(capture("rustc", &["-V"]))),
        ("nproc", Json::UInt(nproc as u128)),
        ("cpu_model", Json::Str(cpu.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_flags_parse() {
        let o = Opts::parse(
            &args("--workload serve_warm_zipf --seed 7 --seconds 3 --trace 1"),
            false,
        )
        .unwrap();
        assert_eq!(o.workloads, ["serve_warm_zipf"]);
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (7, 3, true, false));
        assert_eq!(Opts::parse(&[], false).unwrap().workloads.len(), 4);
    }

    #[test]
    fn bad_flags_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
            "--quick --out results/x.json",
        ] {
            assert!(
                Opts::parse(&args(bad), false).is_err(),
                "{bad} was accepted"
            );
        }
    }
}
