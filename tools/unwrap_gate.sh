#!/usr/bin/env bash
# Grep-gate for the no-panic guarantee: non-test library code under
# crates/core/src and crates/gpu-sim/src must not grow new `.unwrap()` /
# `.expect(` calls. Each file has a frozen budget in
# tools/unwrap_allowlist.txt (the count at the time the guard subsystem
# landed); going over the budget fails CI, going under is encouraged —
# shrink the allowlist entry when you remove one.
#
# Only code before the first `#[cfg(test)]` in each file is counted:
# unwraps in unit tests are fine (a failed unwrap there *is* the test
# failing).
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=tools/unwrap_allowlist.txt
GATED_DIRS=(crates/core/src crates/gpu-sim/src crates/kir/src)

if [[ "${1:-}" == "--print" ]]; then
    # Regenerate allowlist contents (for updating the frozen budgets).
    while IFS= read -r file; do
        count=$(awk '/#!?\[cfg\(test\)\]/{exit} /\.unwrap\(\)|\.expect\(/{n++} END{print n+0}' "$file")
        [[ "$count" -gt 0 ]] && echo "$file $count"
    done < <(find "${GATED_DIRS[@]}" -name '*.rs' | sort)
    exit 0
fi

fail=0
# The serve layer is frozen at a zero budget: a long-lived daemon must
# never panic on request-handling paths, so serve files may not be added
# to the allowlist at all.
if awk '$1 ~ /^crates\/core\/src\/serve\// {found=1} END{exit !found}' "$ALLOWLIST"; then
    echo "unwrap gate: crates/core/src/serve/ files may not appear in the allowlist (zero budget)" >&2
    fail=1
fi
while IFS= read -r file; do
    count=$(awk '/#!?\[cfg\(test\)\]/{exit} /\.unwrap\(\)|\.expect\(/{n++} END{print n+0}' "$file")
    budget=$(awk -v f="$file" '$1 == f {print $2}' "$ALLOWLIST")
    budget=${budget:-0}
    if [[ "$count" -gt "$budget" ]]; then
        echo "unwrap gate: $file has $count unwrap/expect call(s) in non-test code (budget $budget)" >&2
        echo "  prefer a typed error (PlanError / CogentError); see crates/core/src/guard.rs" >&2
        fail=1
    fi
done < <(find "${GATED_DIRS[@]}" -name '*.rs' | sort)

if [[ "$fail" -ne 0 ]]; then
    echo "unwrap gate: FAILED" >&2
    exit 1
fi
echo "unwrap gate: ok" >&2
