//! Golden counts of the sampled transaction tracer.
//!
//! `tests/golden/trace_hashes.txt` pins, per `<entry> <sizes> <precision>
//! <store> <sampling>` key, the FNV-1a hash of what
//! [`trace_transactions`] reported for the entry's first four candidates
//! that pass `validate_generated`, in model-rank order: the
//! [`TraceReport`] and the three `trace.sampled.*` guard counters. The
//! refinement step ranks candidates by these numbers, so any change to
//! how the tracer counts — even one that only moves a divergence counter
//! — shows up here by name.
//!
//! Regenerate deliberately (after a reviewed change of the counting
//! rules) with: `cargo test --test trace_golden -- --ignored bless`

mod golden;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cogent::generator::guard::validate_generated;
use cogent::generator::persist::fnv1a64;
use cogent::generator::select::{search, SearchOptions};
use cogent::prelude::*;
use cogent::sim::trace::{trace_transactions, TraceOptions, TraceReport};
use cogent::sim::StoreMode;

const GOLDEN: &str = "tests/golden/trace_hashes.txt";

/// Candidates traced per (entry, sizes, precision).
const CANDIDATES: usize = 4;

const SAMPLED_COUNTERS: [&str; 3] = [
    "trace.sampled.warp_accesses",
    "trace.sampled.divergent_warps",
    "trace.sampled.oob_lane_skips",
];

/// The first [`CANDIDATES`] ranked configurations that lower and pass
/// `validate_generated`, with their model ranks.
fn valid_candidates(
    tc: &Contraction,
    sizes: &SizeMap,
    precision: Precision,
) -> Vec<(usize, KernelPlan)> {
    let device = GpuDevice::v100();
    let outcome = search(tc, sizes, &device, precision, &SearchOptions::default());
    outcome
        .ranked
        .iter()
        .enumerate()
        .filter_map(|(rank, ranked)| {
            let plan = ranked.config.lower(&outcome.contraction, sizes).ok()?;
            validate_generated(&plan, &device, precision, StoreMode::Assign).ok()?;
            Some((rank, plan))
        })
        .take(CANDIDATES)
        .collect()
}

/// One traced call: the report plus the sampled guard counters it
/// recorded on its capture.
fn traced(plan: &KernelPlan, precision: Precision, options: TraceOptions) -> String {
    let capture = cogent::obs::Capture::start("trace");
    let TraceReport {
        load_a,
        load_b,
        store_c,
    } = trace_transactions(plan, &GpuDevice::v100(), precision, options);
    let trace = capture.finish().expect("tracing is enabled");
    let mut line = format!("{load_a} {load_b} {store_c}");
    for name in SAMPLED_COUNTERS {
        let value = trace.root.counter(name);
        let _ = write!(
            line,
            " {}",
            value.unwrap_or_else(|| panic!("{name} not recorded"))
        );
    }
    line
}

/// Traces the whole case matrix and returns `key -> hash` in
/// deterministic order.
fn current_hashes() -> BTreeMap<String, String> {
    cogent::obs::set_enabled(true);
    let default = ("default", TraceOptions::default());
    let exhaustive = ("exhaustive", TraceOptions::exhaustive());
    // (label, scale-down factor, samplings traced at those sizes).
    let scales = [
        ("suite", 1, vec![default]),
        ("div16", 16, vec![default, exhaustive]),
    ];
    let mut out = BTreeMap::new();
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        for precision in [Precision::F64, Precision::F32] {
            for (label, shrink, samplings) in &scales {
                let sizes = entry.sizes().scaled_down(*shrink);
                let candidates = valid_candidates(&tc, &sizes, precision);
                assert!(!candidates.is_empty(), "{}: no valid candidate", entry.name);
                for store in [StoreMode::Assign, StoreMode::Accumulate] {
                    for (sampling, options) in samplings {
                        let mut record = String::new();
                        for (rank, plan) in &candidates {
                            let plan = plan.clone().with_store_mode(store);
                            let _ =
                                writeln!(record, "{rank} {}", traced(&plan, precision, *options));
                        }
                        out.insert(
                            format!("{} {label} {precision} {store:?} {sampling}", entry.name),
                            format!("{:016x}", fnv1a64(record.as_bytes())),
                        );
                    }
                }
            }
        }
    }
    out
}

#[test]
fn sampled_trace_counts_match_the_golden_hashes() {
    golden::assert_matches(GOLDEN, &current_hashes());
}

/// Writes the current hashes to the golden file. Run explicitly
/// (`--ignored bless`) when a change of the counting rules is intended.
#[test]
#[ignore = "regenerates the golden trace hashes"]
fn bless_trace_hashes() {
    golden::bless(
        GOLDEN,
        "# FNV-1a 64 of trace_transactions' report and trace.sampled.* counters\n\
         # for the first 4 valid candidates; see tests/trace_golden.rs.\n",
        &current_hashes(),
    );
}
