//! Golden files of `<key> <hash>` lines, after optional `#` comment
//! lines: the one comparison and re-blessing routine of the hash-pinning
//! tests (`emit_identity`, `search_golden`, `trace_golden`,
//! `layout_golden`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Asserts that `got` matches the golden file at `path` key for key,
/// naming every key whose hash drifted, that was not computed, or that
/// the file lacks.
pub fn assert_matches(path: &str, got: &BTreeMap<String, String>) {
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} missing ({e}); run the bless test to create it"));
    let want: BTreeMap<&str, &str> = want
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    let mut drifted = Vec::new();
    for (key, want_hash) in &want {
        match got.get(*key) {
            Some(got_hash) if got_hash == want_hash => {}
            Some(got_hash) => drifted.push(format!("{key}: {want_hash} -> {got_hash}")),
            None => drifted.push(format!("{key}: not computed")),
        }
    }
    for key in got.keys() {
        if !want.contains_key(key.as_str()) {
            drifted.push(format!("{key}: not in {path}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "drifted from {path}:\n{}",
        drifted.join("\n")
    );
}

/// Rewrites the golden file at `path` from `got`, after the `#` comment
/// lines `header` (may be empty).
pub fn bless(path: &str, header: &str, got: &BTreeMap<String, String>) {
    let mut out = header.to_owned();
    for (key, hash) in got {
        let _ = writeln!(out, "{key} {hash}");
    }
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}
