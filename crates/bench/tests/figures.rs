//! The checked-in figure tables are what the figure binaries print.
//!
//! Each test runs one binary and compares its stdout byte for byte with
//! the table under `results/`. The binaries print wall-clock times to
//! stderr only, so a table is a pure function of the code.
//! `results/cpu_frameworks.txt` is left out: it is a host wall-clock
//! measurement.
//!
//! The binaries run in a temporary working directory, so the
//! `results/*_traces.jsonl` files they write land there and the ones in
//! the repo stay as they are.
//!
//! Regenerate the tables deliberately (after a reviewed change that moves
//! a figure) with: `cargo test -p cogent-bench --test figures -- --ignored bless`

use std::path::{Path, PathBuf};
use std::process::Command;

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

/// What the binary behind `table` prints, run in a fresh directory.
fn print_table(table: &str) -> String {
    let (_, binary, args) = FIGURES
        .into_iter()
        .find(|(name, _, _)| *name == table)
        .expect("a table listed in FIGURES");
    let dir = std::env::temp_dir().join(format!("cogent_figures_{}_{table}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the working directory");
    let out = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawning {binary}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
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
