//! `compare PARENT_DIR CHANGE_DIR`: the verdict on a change from two sets
//! of `run --out` files, under the bounds `BENCHMARK.json` declares.
//!
//! Runs pair up in file-name order (name them so the i-th files of both
//! directories were measured back to back). Per workload and end-to-end
//! metric a change is
//! - improved when it wins at least 9 of every 10 pairs (ties count for
//!   neither side) and the medians differ by more than the parent's
//!   interquartile range;
//! - regressed when its median is worse than the parent's by more than
//!   the metric's bound;
//! - unresolved when the parent's own spread is wider than the bound,
//!   unless every change run reads better than every parent run;
//! - unchanged otherwise.

use std::path::Path;

use cogent::obs::json::Json;

use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// The verdict for one metric; `parent` and `change` are paired by index.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = if parent.len() >= 2 {
        quartiles(parent)
    } else {
        (pm, pm)
    };
    let worse = if lower_is_better { cm - pm } else { pm - cm };
    let worse_by = worse / pm.abs().max(f64::MIN_POSITIVE);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > q3 - q1 {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if (q3 - q1) / pm.abs().max(f64::MIN_POSITIVE) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every `*.json` run file of a directory, in file-name order.
fn runs(dir: &str) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir}: no run files"));
    }
    paths.iter().map(|p| read_json(p)).collect()
}

fn value(run: &Json, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// The machine identity without the commit, which is meant to differ.
fn host(run: &Json) -> String {
    let m = run.get("machine");
    ["rustc", "nproc", "cpu_model"]
        .map(|k| {
            m.and_then(|m| m.get(k)).map_or("?".into(), |v| {
                v.as_str().map_or(v.to_string(), str::to_string)
            })
        })
        .join(" | ")
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [parent_dir, change_dir] = args else {
        return Err("compare wants PARENT_DIR CHANGE_DIR".into());
    };
    let (parent, change) = (runs(parent_dir)?, runs(change_dir)?);
    let spec = read_json(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    )))?;
    let hosts: Vec<String> = parent.iter().chain(&change).map(host).collect();
    if hosts.iter().any(|h| *h != hosts[0]) {
        println!("warning: runs come from different machines or toolchains:");
        let mut distinct = hosts.clone();
        distinct.dedup();
        for h in distinct {
            println!("  {h}");
        }
    }
    println!(
        "{} parent runs, {} change runs; medians with [q1, q3]",
        parent.len(),
        change.len()
    );
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut regressed = false;
    for workload in crate::WORKLOADS {
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let collect = |set: &[Json]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| value(r, workload, name))
                    .collect()
            };
            let (p, c) = (collect(&parent), collect(&change));
            if p.len() < 2 || c.len() < 2 {
                continue;
            }
            let pairs = p.len().min(c.len());
            let better = |a: f64, b: f64| if lower { a < b } else { a > b };
            let wins = (0..pairs).filter(|&i| better(c[i], p[i])).count();
            let v = verdict(&p, &c, lower, bound);
            regressed |= v == Verdict::Regressed;
            let summary = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.6} [{:.6}, {:.6}]", median(x), q1, q3)
            };
            println!(
                "{workload}/{name}: parent {} change {} wins {wins}/{pairs} bound {bound} -> {v:?}",
                summary(&p),
                summary(&c)
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clear_win_is_improved() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let change = parent.map(|v| v * 0.8);
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Regressed);
    }

    #[test]
    fn noise_within_the_bound_is_unchanged() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let change = [10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.0, 9.9, 10.1, 10.0];
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let change = [10.5, 9.0, 12.0, 8.0, 10.0, 11.0, 9.5, 10.0, 10.5, 9.0];
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_regress_on_any_increase() {
        let parent = [100.0; 5];
        assert_eq!(
            verdict(&parent, &[100.0; 5], true, 0.001),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&parent, &[101.0; 5], true, 0.001),
            Verdict::Regressed
        );
    }
}
