#!/usr/bin/env bash
# Local/CI gate: build, test, lint, format — exactly what the GitHub
# Actions workflow runs. All dependencies are vendored in vendor/, so the
# whole gate works offline; when the network (or a pre-populated cargo
# registry) is unavailable we pass --offline explicitly.
set -euo pipefail
cd "$(dirname "$0")"

OFFLINE=""
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "cargo metadata failed without --offline; falling back to offline mode" >&2
    OFFLINE="--offline"
fi

run() {
    echo "+ $*" >&2
    "$@"
}

run cargo build --release $OFFLINE
# Every vendored stand-in must be a dependency of a default member: one
# that nothing reaches is dead code the workspace still builds.
reachable=$(cargo tree $OFFLINE -e normal,dev,build --prefix none)
for manifest in vendor/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    if ! grep -q "^$name v.*(.*/vendor/" <<<"$reachable"; then
        echo "vendored package $name (${manifest%/Cargo.toml}) is not reachable from any default member" >&2
        exit 1
    fi
done
run cargo test -q --workspace $OFFLINE
# Determinism sweep under both thread settings: serial and chunked
# parallel search must emit byte-identical kernels for every TCCG entry.
run env COGENT_THREADS=1 cargo test -q --test determinism $OFFLINE
run env COGENT_THREADS=4 cargo test -q --test determinism $OFFLINE
# Profiler + global-metrics smoke: `cogent profile` must attribute the
# cold path on a TCCG entry (table + folded stacks), and `cogent stats`
# must expose the merged cross-thread registry.
run cargo run --release $OFFLINE --bin cogent -- profile "abcd-aebf-dfce" --size 24 \
    --runs 2 --folded target/profile_smoke.folded
test -s target/profile_smoke.folded
run env COGENT_THREADS=4 cargo run --release $OFFLINE --bin cogent -- stats \
    "abcd-aebf-dfce" --size 24 --threads 4 > target/stats_smoke.prom
grep -q 'cogent_prune_checked_total' target/stats_smoke.prom
# Serve daemon smoke check: the binary must refuse malformed env/flags
# with exit 2 and a one-line diagnostic.
if COGENT_CACHE_CAP=banana cargo run --release $OFFLINE --bin cogent -- serve 2>/dev/null; then
    echo "serve smoke: malformed COGENT_CACHE_CAP must refuse startup" >&2
    exit 1
fi
# Flight-recorder smoke: a live daemon must echo request ids, serve the
# cogent.flight.v1 debug endpoint, write slow/drain dumps plus the
# structured access log, and round-trip through `cogent flight`.
run ./tools/flight_smoke.sh
# Emission gate: every TCCG entry x every backend dialect (CUDA, OpenCL,
# HIP) must emit and pass both the text lint and the structural IR lint.
run cargo run --release $OFFLINE -p cogent-emit-gate --bin emit_gate
# Interpreter-heavy benchmark smoke: the verify_passes48 workload (default
# KIR passes plus the numeric divergence gate, 48 TCCG entries) in quick
# mode. It exits 1 when any output check fails — the printed post-pass
# program must interpret to the reference contraction.
run cargo run --release $OFFLINE --manifest-path cogent-benchmark/Cargo.toml -- \
    run --workload verify_passes48 --quick
# Cold-generate smoke: the 48 TCCG entries at suite sizes. It exits 1 when
# any emitted CUDA/OpenCL kernel misses its hash in
# tests/golden/emit_hashes.txt, so a tracer change that flips a
# refinement winner fails here.
run cargo run --release $OFFLINE --manifest-path cogent-benchmark/Cargo.toml -- \
    run --workload cold_tccg48 --quick
# The benchmark harness's own unit tests (a package of its own, outside
# the workspace).
run cargo test -q --manifest-path cogent-benchmark/Cargo.toml $OFFLINE
run ./tools/unwrap_gate.sh
run cargo clippy --workspace --all-targets $OFFLINE -- -D warnings
run cargo fmt --all -- --check

echo "ci.sh: all checks passed" >&2
