//! Byte-identity pinning of the whole emit corpus: with no KIR passes
//! enabled, every TCCG entry × every backend dialect must print byte-for-
//! byte what the pre-layout-algebra lowering printed. The corpus is too
//! large to check in verbatim (48 × 3 sources), so each source is pinned
//! by a 64-bit FNV-1a content hash in `tests/golden/emit_hashes.txt`,
//! captured from the last pre-refactor build. Any drift in lowering or
//! printing shows up as a named (entry, backend) hash mismatch.
//!
//! Regenerate the corpus deliberately (after a reviewed snapshot change)
//! with: `cargo test --test emit_identity -- --ignored bless`

mod golden;

use std::collections::BTreeMap;

use cogent::generator::codegen::{emit_backend_kernel, Backend};
use cogent::generator::persist::fnv1a64;
use cogent::prelude::*;

const CORPUS: &str = "tests/golden/emit_hashes.txt";

/// Emits the full corpus and returns `<entry> <backend> -> hash` in
/// deterministic order.
fn current_corpus() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        let sizes = entry.sizes();
        let g = Cogent::new()
            .generate(&tc, &sizes)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        for backend in Backend::ALL {
            let source = emit_backend_kernel(&g.plan, Precision::F64, backend);
            out.insert(
                format!("{} {backend}", entry.name),
                format!("{:016x}", fnv1a64(source.as_bytes())),
            );
        }
    }
    out
}

#[test]
fn all_48x3_sources_match_the_pre_refactor_hash_corpus() {
    golden::assert_matches(CORPUS, &current_corpus());
}

/// Writes the current corpus hashes to the golden file. Run explicitly
/// (`--ignored bless`) when a byte-level emission change is intended.
#[test]
#[ignore = "regenerates the golden hash corpus"]
fn bless_emit_hash_corpus() {
    golden::bless(CORPUS, "", &current_corpus());
}
