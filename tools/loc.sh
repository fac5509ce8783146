#!/usr/bin/env bash
# Lines of Rust per workspace package and in total: the size metric
# ROADMAP aim 2 tracks. Vendored stand-ins (vendor/), build output
# (target/) and the benchmark harness (cogent-benchmark/) are left out.
# Prints `<lines> <package>` rows, then `<lines> total`.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() {
    find "$@" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l
}

printf '%7d %s\n' "$(lines src tests examples)" cogent
for manifest in crates/*/Cargo.toml tools/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    printf '%7d %s\n' "$(lines "${manifest%/Cargo.toml}")" "$name"
done
printf '%7d total\n' "$(lines . -not -path './vendor/*' -not -path './cogent-benchmark/*')"
