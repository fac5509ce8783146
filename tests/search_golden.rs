//! Golden results of the model-driven search and its public rule and
//! cost entry points.
//!
//! `tests/golden/search_hashes.txt` pins, per key, an FNV-1a hash of:
//!
//! * `search <entry> <sizes> <precision>` — the `Debug` form of the
//!   [`SearchOutcome`] for every TCCG entry at suite sizes and at
//!   `scaled_down(16)`, under `SearchOptions::default()`, on the V100;
//! * `search <entry> <sizes> <precision> p100` — the same on the P100,
//!   whose limits (SM count, shared memory, occupancy) move the rules'
//!   verdicts and the bound the ranking prunes with;
//! * `check <entry> <precision>` — the public [`check_config`] result of
//!   every enumerated configuration at `scaled_down(16)` under each rung
//!   of the search's relaxation ladder (strict, parallelism floors off,
//!   then coalescing off as well); the tiny sizes are where the ladder
//!   fires;
//! * `cost <entry> <precision>` — [`transaction_cost`] of the same
//!   configurations;
//! * `paper <entry>` — [`paper_transaction_cost`] of the same
//!   configurations.
//!
//! Every enumerated configuration is checked (no sampling stride). The
//! ranking, the prune histogram and the relaxation flag are all derived
//! from these numbers, so a change to the §IV-A rules or to Algorithm 3 —
//! even one that only moves a rejected configuration's reason — shows up
//! here by name.
//!
//! Regenerate deliberately (after a reviewed change of the rules or the
//! model) with: `cargo test --test search_golden -- --ignored bless`
//!
//! `search_matches_the_brute_force_reference` checks [`search`] against a
//! reference built only from public single-configuration calls —
//! [`enumerate_configs_bounded`], [`check_config`] per ladder rung,
//! [`transaction_cost`], a stable sort and a truncation — over random
//! extents, both devices and both precisions.

mod golden;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cogent::generator::constraints::{check_config, PruneRules};
use cogent::generator::cost::{paper_transaction_cost, transaction_cost};
use cogent::generator::persist::fnv1a64;
use cogent::generator::select::{search, RankedConfig, SearchOptions, SearchOutcome};
use cogent::generator::{
    enumerate_configs, enumerate_configs_bounded, EnumerationBudget, EnumerationOptions,
};
use cogent::prelude::*;
use proptest::prelude::*;

const GOLDEN: &str = "tests/golden/search_hashes.txt";

fn hash(record: &str) -> String {
    format!("{:016x}", fnv1a64(record.as_bytes()))
}

/// The strict rules and the two relaxed rungs the search falls back to
/// when everything is pruned.
fn ladder() -> [PruneRules; 3] {
    ladder_from(PruneRules::default())
}

fn ladder_from(strict: PruneRules) -> [PruneRules; 3] {
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
    [strict, parallelism, coalescing]
}

/// Hashes the whole case matrix and returns `key -> hash` in
/// deterministic order.
fn current_hashes() -> BTreeMap<String, String> {
    let device = GpuDevice::v100();
    let p100 = GpuDevice::p100();
    let options = SearchOptions::default();
    let ladder = ladder();
    let mut out = BTreeMap::new();
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        for (label, shrink) in [("suite", 1), ("div16", 16)] {
            let sizes = entry.sizes().scaled_down(shrink);
            for precision in [Precision::F64, Precision::F32] {
                let outcome = search(&tc, &sizes, &device, precision, &options);
                out.insert(
                    format!("search {} {label} {precision}", entry.name),
                    hash(&format!("{outcome:?}")),
                );
                let outcome = search(&tc, &sizes, &p100, precision, &options);
                out.insert(
                    format!("search {} {label} {precision} p100", entry.name),
                    hash(&format!("{outcome:?}")),
                );
            }
        }

        let norm = tc.normalized();
        let sizes = entry.sizes().scaled_down(16);
        let configs = enumerate_configs(&norm, &sizes, &EnumerationOptions::default());
        assert!(!configs.is_empty(), "{}: nothing enumerated", entry.name);
        for precision in [Precision::F64, Precision::F32] {
            let mut checks = String::new();
            let mut costs = String::new();
            for cfg in &configs {
                for rules in &ladder {
                    let result = check_config(&norm, cfg, &sizes, &device, precision, rules);
                    let _ = write!(checks, "{result:?} ");
                }
                checks.push('\n');
                let cost = transaction_cost(&norm, cfg, &sizes, &device, precision);
                let _ = writeln!(costs, "{cost:?}");
            }
            out.insert(format!("check {} {precision}", entry.name), hash(&checks));
            out.insert(format!("cost {} {precision}", entry.name), hash(&costs));
        }
        let mut paper = String::new();
        for cfg in &configs {
            let _ = writeln!(paper, "{:?}", paper_transaction_cost(&norm, cfg, &sizes));
        }
        out.insert(format!("paper {}", entry.name), hash(&paper));
    }
    out
}

#[test]
fn search_results_match_the_golden_hashes() {
    golden::assert_matches(GOLDEN, &current_hashes());
}

/// Writes the current hashes to the golden file. Run explicitly
/// (`--ignored bless`) when a change of the rules or the model is
/// intended.
#[test]
#[ignore = "regenerates the golden search hashes"]
fn bless_search_hashes() {
    golden::bless(
        GOLDEN,
        "# FNV-1a 64 of SearchOutcome, check_config, transaction_cost and\n\
         # paper_transaction_cost results; see tests/search_golden.rs.\n",
        &current_hashes(),
    );
}

/// The search as a brute-force loop over public single-configuration
/// calls: enumerate under the same `max_configs` cut, check every
/// configuration against each ladder rung until one leaves survivors
/// (tallying rejections under the search's histogram keys), cost every
/// survivor, stable-sort by `(cost, configuration)` and truncate.
fn reference_search(
    tc: &Contraction,
    sizes: &SizeMap,
    device: &GpuDevice,
    precision: Precision,
    options: &SearchOptions,
) -> SearchOutcome {
    let norm = tc.normalized();
    let budget = EnumerationBudget {
        max_configs: options.max_configs,
        deadline: None,
    };
    let (configs, truncated) =
        enumerate_configs_bounded(&norm, sizes, &options.enumeration, &budget);
    let tags = [
        None,
        Some("relaxed(parallelism)"),
        Some("relaxed(coalescing)"),
    ];
    let mut histogram = BTreeMap::new();
    let mut survivors = Vec::new();
    let mut rules_relaxed = false;
    for (rung, (tag, rules)) in tags
        .iter()
        .zip(ladder_from(options.rules.clone()))
        .enumerate()
    {
        if rung > 0 {
            if !survivors.is_empty() {
                break;
            }
            rules_relaxed = true;
        }
        for cfg in &configs {
            match check_config(&norm, cfg, sizes, device, precision, &rules) {
                Ok(()) => survivors.push(cfg),
                Err(reason) => {
                    let key = match tag {
                        None => reason.to_string(),
                        Some(tag) => format!("{tag}: {reason}"),
                    };
                    *histogram.entry(key).or_default() += 1;
                }
            }
        }
    }
    let mut ranked: Vec<RankedConfig> = survivors
        .iter()
        .map(|cfg| RankedConfig {
            config: (*cfg).clone(),
            cost: transaction_cost(&norm, cfg, sizes, device, precision),
        })
        .collect();
    ranked.sort_by(|a, b| (a.cost.total(), &a.config).cmp(&(b.cost.total(), &b.config)));
    ranked.truncate(options.top_k);
    SearchOutcome {
        raw_space: EnumerationOptions::raw_space_size(&norm),
        contraction: norm,
        enumerated: configs.len(),
        survivors: survivors.len(),
        prune_histogram: histogram,
        rules_relaxed,
        truncated,
        ranked,
    }
}

/// `top_k` values: one, a few, the default, and more than any entry's
/// survivors.
const TOP_KS: [usize; 4] = [1, 4, 16, 1 << 20];

fn assert_search_matches_reference(
    tc: &Contraction,
    sizes: &SizeMap,
    device: &GpuDevice,
    precision: Precision,
    options: &SearchOptions,
) {
    let got = search(tc, sizes, device, precision, options);
    let want = reference_search(tc, sizes, device, precision, options);
    assert_eq!(
        got, want,
        "{tc} at {sizes:?} on {} {precision}, top_k {}, max_configs {}",
        device.name, options.top_k, options.max_configs
    );
}

#[test]
fn search_matches_the_reference_on_relaxing_and_cut_spaces() {
    let matmul: Contraction = "ij-ik-kj".parse().unwrap();
    let sd2_1: Contraction = "abcdef-gdab-efgc".parse().unwrap();
    for device in [GpuDevice::v100(), GpuDevice::p100()] {
        for precision in [Precision::F64, Precision::F32] {
            for top_k in TOP_KS {
                // An 8^3 matmul prunes everything under the strict rules
                // and walks the relaxation ladder.
                let options = SearchOptions {
                    top_k,
                    ..SearchOptions::default()
                };
                let sizes = SizeMap::uniform(&matmul, 8);
                assert_search_matches_reference(&matmul, &sizes, &device, precision, &options);
                // A `max_configs` cut that ends inside a TBk menu.
                let options = SearchOptions {
                    top_k,
                    max_configs: 1_001,
                    ..SearchOptions::default()
                };
                let sizes = SizeMap::uniform(&sd2_1, 16);
                assert_search_matches_reference(&sd2_1, &sizes, &device, precision, &options);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn search_matches_the_brute_force_reference(
        entry in 0usize..48,
        extents in prop::collection::vec(1usize..=40, 10),
        device in 0usize..2,
        precision in 0usize..2,
        top_k in 0usize..4,
        cut in (0usize..4, 1usize..4_000),
    ) {
        let suite = cogent::tccg::suite();
        let entry = &suite[entry % suite.len()];
        let tc = entry.contraction();
        let mut sizes = SizeMap::uniform(&tc, 1);
        for (index, extent) in tc.all_indices().zip(&extents) {
            sizes.set(index.clone(), *extent);
        }
        let device = [GpuDevice::v100(), GpuDevice::p100()][device].clone();
        let precision = [Precision::F64, Precision::F32][precision];
        // One case in four cuts the enumeration at a random row.
        let max_configs = match cut {
            (0, rows) => rows,
            _ => SearchOptions::default().max_configs,
        };
        let options = SearchOptions {
            top_k: TOP_KS[top_k],
            max_configs,
            ..SearchOptions::default()
        };
        assert_search_matches_reference(&tc, &sizes, &device, precision, &options);
    }
}
