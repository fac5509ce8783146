//! Golden results of the model-driven search and its public rule and
//! cost entry points.
//!
//! `tests/golden/search_hashes.txt` pins, per key, an FNV-1a hash of:
//!
//! * `search <entry> <sizes> <precision>` — the `Debug` form of the
//!   [`SearchOutcome`] for every TCCG entry at suite sizes and at
//!   `scaled_down(16)`, under `SearchOptions::default()`;
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

mod golden;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cogent::generator::constraints::{check_config, PruneRules};
use cogent::generator::cost::{paper_transaction_cost, transaction_cost};
use cogent::generator::persist::fnv1a64;
use cogent::generator::select::{search, SearchOptions};
use cogent::generator::{enumerate_configs, EnumerationOptions};
use cogent::prelude::*;

const GOLDEN: &str = "tests/golden/search_hashes.txt";

fn hash(record: &str) -> String {
    format!("{:016x}", fnv1a64(record.as_bytes()))
}

/// The strict rules and the two relaxed rungs the search falls back to
/// when everything is pruned.
fn ladder() -> [PruneRules; 3] {
    let strict = PruneRules::default();
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
