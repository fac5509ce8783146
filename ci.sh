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
run cargo test -q --workspace $OFFLINE
# The fault-injection suite on its own: a fast, named signal that the
# guard layer's detection matrix (static faults → validator, dynamic
# faults → divergence check) still holds.
run cargo test -q -p cogent-gpu-sim $OFFLINE fault
run cargo test -q -p cogent-core --test fault_matrix $OFFLINE
# Determinism sweep under both thread settings: serial and chunked
# parallel search must emit byte-identical kernels for every TCCG entry.
run env COGENT_THREADS=1 cargo test -q --test determinism $OFFLINE
run env COGENT_THREADS=4 cargo test -q --test determinism $OFFLINE
# search_bench smoke: the serial/parallel/warm-cache sweep must agree
# byte-for-byte (the binary asserts it) and produce a report.
run cargo run --release $OFFLINE -p cogent-bench --bin search_bench -- \
    --quick --out target/search_bench_smoke.json
test -s target/search_bench_smoke.json
# Cold-path latency gate: the smoke run's per-entry cold_ms, summed over
# the entries shared with the checked-in baseline, must stay under a
# loose ratio ceiling (wall clock varies across machines; the gate
# catches order-of-magnitude regressions, not noise). Regenerate
# results/search_bench.json intentionally with:
#   cargo run --release -p cogent-bench --bin search_bench
run cargo run --release $OFFLINE -p cogent-search-diff --bin search_diff -- \
    results/search_bench.json target/search_bench_smoke.json
# Audit smoke + perf-regression gate: audit a TCCG subset (small K) and
# compare it against the checked-in baseline. bench_diff matches entries
# by name, prints every offending metric, and exits nonzero when rank
# correlation drops or regret/relative error/search latency rise beyond
# tolerance. Regenerate results/audit_baseline.json intentionally with:
#   cargo run --release -p cogent-bench --bin audit_bench
run cargo run --release $OFFLINE -p cogent-bench --bin audit_bench -- \
    --quick --out target/audit_smoke.json
run cargo run --release $OFFLINE -p cogent-bench-diff --bin bench_diff -- \
    results/audit_baseline.json target/audit_smoke.json
# Observability overhead gate: the instrumented build with tracing
# disabled must stay within a fixed ratio of a stripped build (the
# `strip` feature compiles cogent-obs out). Stripped first: its build
# replaces the normal artifacts, and the instrumented run below restores
# them for the steps after.
run cargo run --release $OFFLINE -p cogent-bench --bin overhead_gate --features strip -- \
    --quick --out target/overhead_stripped.json
run cargo run --release $OFFLINE -p cogent-bench --bin overhead_gate -- \
    --quick --out target/overhead_instrumented.json
run cargo run --release $OFFLINE -p cogent-overhead-diff --bin overhead_diff -- \
    target/overhead_stripped.json target/overhead_instrumented.json
# Profiler + global-metrics smoke: `cogent profile` must attribute the
# cold path on a TCCG entry (table + folded stacks), and `cogent stats`
# must expose the merged cross-thread registry.
run cargo run --release $OFFLINE --bin cogent -- profile "abcd-aebf-dfce" --size 24 \
    --runs 2 --folded target/profile_smoke.folded
test -s target/profile_smoke.folded
run env COGENT_THREADS=4 cargo run --release $OFFLINE --bin cogent -- stats \
    "abcd-aebf-dfce" --size 24 --threads 4 > target/stats_smoke.prom
grep -q 'cogent_prune_checked_total' target/stats_smoke.prom
# Serve robustness: the service-level chaos suite (malformed requests,
# slowloris, worker panics, corrupted cache files, kill-and-restart
# byte-identity) and a daemon smoke check — the binary must refuse
# malformed env/flags with exit 2 and a one-line diagnostic.
run cargo test -q -p cogent-core --test serve_chaos $OFFLINE
run cargo test -q -p cogent-core --test persist_prop $OFFLINE
if COGENT_CACHE_CAP=banana cargo run --release $OFFLINE --bin cogent -- serve 2>/dev/null; then
    echo "serve smoke: malformed COGENT_CACHE_CAP must refuse startup" >&2
    exit 1
fi
# Flight-recorder smoke: a live daemon must echo request ids, serve the
# cogent.flight.v1 debug endpoint, write slow/drain dumps plus the
# structured access log, and round-trip through `cogent flight`.
run ./tools/flight_smoke.sh
# Traffic replay gate: a deterministic seeded request trace over loopback
# must match the checked-in service baseline (exact warm hit counts, zero
# errors; latency gated only against catastrophic regressions).
# Regenerate results/traffic_replay.json intentionally with:
#   cargo run --release -p cogent-bench --bin traffic_replay
run cargo run --release $OFFLINE -p cogent-bench --bin traffic_replay -- \
    --out target/traffic_replay_ci.json --check results/traffic_replay.json
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
