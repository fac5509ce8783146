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

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cogent::generator::codegen::{emit_backend_kernel, Backend};
use cogent::generator::persist::fnv1a64;
use cogent::prelude::*;

const CORPUS: &str = "tests/golden/emit_hashes.txt";

/// Emits the full corpus and returns `(entry, backend) -> hash` in
/// deterministic order.
fn current_corpus() -> BTreeMap<(String, String), u64> {
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
                (entry.name.to_string(), backend.to_string()),
                fnv1a64(source.as_bytes()),
            );
        }
    }
    out
}

fn render(corpus: &BTreeMap<(String, String), u64>) -> String {
    let mut out = String::new();
    for ((entry, backend), hash) in corpus {
        let _ = writeln!(out, "{entry} {backend} {hash:016x}");
    }
    out
}

#[test]
fn all_48x3_sources_match_the_pre_refactor_hash_corpus() {
    let want = std::fs::read_to_string(CORPUS)
        .unwrap_or_else(|e| panic!("{CORPUS} missing ({e}); run the bless test to create it"));
    let got = render(&current_corpus());
    let want_map: BTreeMap<&str, &str> = want.lines().filter_map(|l| l.rsplit_once(' ')).collect();
    let got_map: BTreeMap<&str, &str> = got.lines().filter_map(|l| l.rsplit_once(' ')).collect();
    let mut drifted = Vec::new();
    for (key, want_hash) in &want_map {
        match got_map.get(key) {
            Some(got_hash) if got_hash == want_hash => {}
            Some(got_hash) => drifted.push(format!("{key}: {want_hash} -> {got_hash}")),
            None => drifted.push(format!("{key}: missing from emitted corpus")),
        }
    }
    for key in got_map.keys() {
        if !want_map.contains_key(key) {
            drifted.push(format!("{key}: not in {CORPUS}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "emit corpus drifted from the pre-refactor bytes:\n{}",
        drifted.join("\n")
    );
}

/// Writes the current corpus hashes to the golden file. Run explicitly
/// (`--ignored bless`) when a byte-level emission change is intended.
#[test]
#[ignore = "regenerates the golden hash corpus"]
fn bless_emit_hash_corpus() {
    std::fs::write(CORPUS, render(&current_corpus())).expect("writing the corpus");
}
