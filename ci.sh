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
# Every cogent-* dependency a crate declares must be named by one of its
# sources: one that no .rs file uses only lengthens the build graph.
for manifest in crates/*/Cargo.toml; do
    crate=${manifest%/Cargo.toml}
    for dep in $(grep -o '^cogent-[a-z-]*' "$manifest"); do
        if ! grep -rqw --include='*.rs' "${dep//-/_}" "$crate"; then
            echo "$crate declares $dep, but none of its .rs files names ${dep//-/_}" >&2
            exit 1
        fi
    done
done
run cargo test -q --workspace $OFFLINE
# Determinism sweep under both worker settings: COGENT_THREADS sizes
# generate_many's worker pool, and a batch on one worker or on four must
# emit byte-identical kernels for every TCCG entry.
run env COGENT_THREADS=1 cargo test -q --test determinism $OFFLINE
run env COGENT_THREADS=4 cargo test -q --test determinism $OFFLINE
# A single generation never reads COGENT_THREADS: the span trees and
# counters the CLI and the pipeline tests assert must not move under it.
run env COGENT_THREADS=4 cargo test -q --bin cogent $OFFLINE
run env COGENT_THREADS=4 cargo test -q -p cogent-core --test trace_pipeline $OFFLINE
# Profiler + global-metrics smoke: `cogent profile` must attribute the
# cold path on a TCCG entry (table + folded stacks), and `cogent stats`
# over a multi-job slate on two workers must expose the merged
# cross-thread registry.
run cargo run --release $OFFLINE --bin cogent -- profile "abcd-aebf-dfce" --size 24 \
    --runs 2 --folded target/profile_smoke.folded
test -s target/profile_smoke.folded
run cargo run --release $OFFLINE --bin cogent -- stats \
    --suite --group ccsd --threads 2 > target/stats_smoke.prom
grep -q 'cogent_prune_checked_total' target/stats_smoke.prom
# The ranking's branch and bound must stay on: the group bound skips most
# survivors, so the cost model runs on fewer candidates than survive
# pruning, and the skipped ones are counted.
grep -q '^cogent_rank_bound_skipped_total ' target/stats_smoke.prom
evaluations=$(sed -n 's/^cogent_cost_model_evaluations_total //p' target/stats_smoke.prom)
survivors=$(sed -n 's/^cogent_prune_survivors_total //p' target/stats_smoke.prom)
if [ "${evaluations:-0}" -ge "${survivors:-0}" ]; then
    echo "stats smoke: $evaluations cost-model evaluations for $survivors survivors (the bound skipped nothing)" >&2
    exit 1
fi
# Serve daemon smoke check: the binary must refuse malformed env/flags
# with exit 2 and a one-line diagnostic.
if COGENT_CACHE_CAP=banana cargo run --release $OFFLINE --bin cogent -- serve 2>/dev/null; then
    echo "serve smoke: malformed COGENT_CACHE_CAP must refuse startup" >&2
    exit 1
fi
# Flight-recorder smoke: a live daemon must echo request ids, serve its
# flight ring at the debug endpoint as JSON lines of labelled
# cogent.trace.v3 traces (the search at full depth), write slow/drain
# dumps plus the structured access log, and round-trip through
# `cogent flight`.
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
# Serve smokes: both serve workloads in quick trace mode. Each exits 1
# when a warm 200 body differs from its reference or a request is
# missing from the server's access log.
run cargo run --release $OFFLINE --manifest-path cogent-benchmark/Cargo.toml -- \
    trace --workload serve_warm_zipf --quick
run cargo run --release $OFFLINE --manifest-path cogent-benchmark/Cargo.toml -- \
    trace --workload serve_cold_churn --quick
# The benchmark harness's own unit tests (a package of its own, outside
# the workspace).
run cargo test -q --manifest-path cogent-benchmark/Cargo.toml $OFFLINE
run ./tools/unwrap_gate.sh
# Lines of Rust per package (informational: the size ROADMAP aim 2
# tracks; nothing gates on it).
run ./tools/loc.sh
run cargo clippy --workspace --all-targets $OFFLINE -- -D warnings
run cargo fmt --all -- --check

echo "ci.sh: all checks passed" >&2
