//! Golden output bits of the host tensor kernels and golden traffic
//! estimates of the emitted programs.
//!
//! `tests/golden/layout_hashes.txt` pins, per key, an FNV-1a hash of:
//!
//! * `<entry> reference|ttgt|gett|permute` — the exact f64 output bits of
//!   `contract_reference`, `TtgtPlan::execute`, `GettPlan::execute` and
//!   `permute` of A by the reverse permutation, on every TCCG entry at the
//!   small ragged sizes the interpreter differentials use;
//! * `<entry> traffic <precision> <passes>` — the `Debug` form of
//!   `estimate_traffic`'s report on the winning program at suite sizes,
//!   lowered without passes and through the default pipeline.
//!
//! All of these walk a tensor layout; a tolerance check would accept a
//! reordered sum or an off-by-one tile stride that happens to cancel,
//! these hashes do not.
//!
//! Regenerate deliberately (after a reviewed change of what these
//! functions compute) with: `cargo test --test layout_golden -- --ignored bless`

mod golden;

use std::collections::BTreeMap;

use cogent::generator::codegen::{lower_with_passes, PassConfig};
use cogent::generator::persist::fnv1a64;
use cogent::kir::estimate_traffic;
use cogent::prelude::*;
use cogent::tensor::gett::GettPlan;
use cogent::tensor::permute::permute;
use cogent::tensor::reference::{contract_reference, random_inputs};
use cogent::tensor::ttgt::TtgtPlan;

const GOLDEN: &str = "tests/golden/layout_hashes.txt";

fn bits_hash(t: &DenseTensor<f64>) -> String {
    let bytes: Vec<u8> = t
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    format!("{:016x}", fnv1a64(&bytes))
}

/// Computes every golden key and returns `key -> hash` in deterministic
/// order.
fn current_hashes() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (i, entry) in cogent::tccg::suite().into_iter().enumerate() {
        let tc = entry.contraction();
        let sizes = SizeMap::uniform(&tc, 4 + (i % 3));
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 41 + i as u64);
        let reverse: Vec<usize> = (0..tc.a().rank()).rev().collect();
        let outputs = [
            ("reference", contract_reference(&tc, &sizes, &a, &b)),
            ("ttgt", TtgtPlan::new(&tc, &sizes).execute(&a, &b)),
            ("gett", GettPlan::new(&tc, &sizes).execute(&a, &b)),
            ("permute", permute(&a, &reverse)),
        ];
        for (what, t) in &outputs {
            out.insert(format!("{} {what}", entry.name), bits_hash(t));
        }

        let sizes = entry.sizes();
        for precision in [Precision::F64, Precision::F32] {
            for passes in [PassConfig::None, PassConfig::Default] {
                let g = Cogent::new()
                    .precision(precision)
                    .passes(passes.clone())
                    .generate(&tc, &sizes)
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
                let (prog, _) = lower_with_passes(&g.plan, precision, &passes)
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
                let report = estimate_traffic(&prog)
                    .unwrap_or_else(|e| panic!("{}: traffic: {e}", entry.name));
                out.insert(
                    format!(
                        "{} traffic {precision} {}",
                        entry.name,
                        passes.fingerprint()
                    ),
                    format!("{:016x}", fnv1a64(format!("{report:?}").as_bytes())),
                );
            }
        }
    }
    out
}

#[test]
fn host_kernels_and_traffic_match_the_golden_hashes() {
    golden::assert_matches(GOLDEN, &current_hashes());
}

/// Writes the current hashes to the golden file. Run explicitly
/// (`--ignored bless`) when a change of these outputs is intended.
#[test]
#[ignore = "regenerates the golden layout hashes"]
fn bless_layout_hashes() {
    golden::bless(
        GOLDEN,
        "# FNV-1a 64 of host contraction/permute output bits and of\n\
         # estimate_traffic reports; see tests/layout_golden.rs.\n",
        &current_hashes(),
    );
}
