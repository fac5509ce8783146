//! The checked-in figure tables are what the figure binaries print.
//!
//! Each test runs one binary and compares its stdout byte for byte with
//! the table under `results/`. The binaries print wall-clock times to
//! stderr only, so a table is a pure function of the code.
//! `results/cpu_frameworks.txt` is left out: it is a host wall-clock
//! measurement. Two more tests pin how the binaries end on a closed
//! stdout and on an unknown `--device`.
//!
//! The binaries run in a temporary working directory, so the
//! `results/*_traces.jsonl` files they write land there and the ones in
//! the repo stay as they are.
//!
//! Regenerate the tables deliberately (after a reviewed change that moves
//! a figure) with: `cargo test -p cogent-bench --test figures -- --ignored bless`

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// `(table under results/, binary, arguments)`.
const FIGURES: [(&str, &str, &[&str]); 7] = [
    (
        "fig4_p100.txt",
        env!("CARGO_BIN_EXE_fig4_5"),
        &["--device", "p100"],
    ),
    (
        "fig5_v100.txt",
        env!("CARGO_BIN_EXE_fig4_5"),
        &["--device", "v100"],
    ),
    (
        "fig6_p100.txt",
        env!("CARGO_BIN_EXE_fig6_7"),
        &["--device", "p100"],
    ),
    (
        "fig7_v100.txt",
        env!("CARGO_BIN_EXE_fig6_7"),
        &["--device", "v100"],
    ),
    ("fig8.txt", env!("CARGO_BIN_EXE_fig8"), &[]),
    (
        "pruning_stats.txt",
        env!("CARGO_BIN_EXE_pruning_stats"),
        &[],
    ),
    ("ablation.txt", env!("CARGO_BIN_EXE_ablation"), &[]),
];

fn table_path(table: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(table)
}

/// Runs `binary` with `args` in a fresh working directory.
fn run(binary: &str, args: &[&str], stdout: impl Into<Stdio>) -> Output {
    let name = Path::new(binary).file_name().expect("a binary path");
    let dir = std::env::temp_dir().join(format!(
        "cogent_figures_{}_{}_{}",
        std::process::id(),
        name.to_string_lossy(),
        args.join("_")
    ));
    std::fs::create_dir_all(&dir).expect("creating the working directory");
    let out = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .unwrap_or_else(|e| panic!("spawning {binary}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// What the binary behind `table` prints.
fn print_table(table: &str) -> String {
    let (_, binary, args) = FIGURES
        .into_iter()
        .find(|(name, _, _)| *name == table)
        .expect("a table listed in FIGURES");
    let out = run(binary, args, Stdio::piped());
    assert!(out.status.success(), "{binary} {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("tables are UTF-8")
}

fn check(table: &str) {
    let path = table_path(table);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing ({e}); run the bless test", path.display()));
    let got = print_table(table);
    if let Some((line, (g, w))) = got
        .lines()
        .chain(["<end>"])
        .zip(want.lines().chain(["<end>"]))
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!(
            "results/{table} is stale at line {}:\n  printed: {g}\n  file:    {w}\n\
             rerun the bless test if the change is intended",
            line + 1
        );
    }
    assert_eq!(got, want, "results/{table}: trailing bytes differ");
}

#[test]
fn fig4_p100_matches_results() {
    check("fig4_p100.txt");
}

#[test]
fn fig5_v100_matches_results() {
    check("fig5_v100.txt");
}

#[test]
fn fig6_p100_matches_results() {
    check("fig6_p100.txt");
}

#[test]
fn fig7_v100_matches_results() {
    check("fig7_v100.txt");
}

#[test]
fn fig8_matches_results() {
    check("fig8.txt");
}

#[test]
fn pruning_stats_matches_results() {
    check("pruning_stats.txt");
}

#[test]
fn ablation_matches_results() {
    check("ablation.txt");
}

/// A closed stdout (`fig4_5 | head -3`) is not a failure: every binary
/// stops with exit 0 and nothing on stderr.
#[test]
fn closed_stdout_exits_0_silently() {
    for (binary, args) in [
        (env!("CARGO_BIN_EXE_fig4_5"), &["--quick"][..]),
        (env!("CARGO_BIN_EXE_fig6_7"), &["--quick"]),
        (env!("CARGO_BIN_EXE_fig8"), &["--quick"]),
        (env!("CARGO_BIN_EXE_pruning_stats"), &["--quick"]),
        (env!("CARGO_BIN_EXE_ablation"), &[]),
        (env!("CARGO_BIN_EXE_cpu_frameworks"), &["--quick"]),
    ] {
        let (reader, writer) = std::io::pipe().expect("creating a pipe");
        drop(reader);
        let out = run(binary, args, writer);
        assert_eq!(out.status.code(), Some(0), "{binary}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), "", "{binary}");
    }
}

#[test]
fn unknown_device_exits_2() {
    let out = run(
        env!("CARGO_BIN_EXE_fig4_5"),
        &["--device", "h100", "--quick"],
        Stdio::piped(),
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "fig4_5: unknown device \"h100\" (want v100 or p100)\n"
    );
}

/// Rewrites every table under `results/` from the current code
/// (`--ignored bless`), when a change of a figure is intended.
#[test]
#[ignore = "regenerates the figure tables"]
fn bless() {
    for (table, _, _) in FIGURES {
        let path = table_path(table);
        std::fs::write(&path, print_table(table))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}
