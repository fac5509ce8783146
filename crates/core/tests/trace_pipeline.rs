//! Pipeline-trace integration tests: a traced `generate` must produce a
//! span for every phase, the per-rule prune counters must agree with
//! `SearchOutcome::prune_histogram`, and the trace must survive a JSON
//! round trip.

use cogent_core::Cogent;
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};
use cogent_obs::PipelineTrace;

/// One traced generation; the global flag is restored so this file's
/// tests compose regardless of execution order.
fn traced_generate(tccg: &str, n: usize) -> (cogent_core::GeneratedKernel, PipelineTrace) {
    let tc: Contraction = tccg.parse().unwrap();
    let sizes = SizeMap::uniform(&tc, n);
    cogent_obs::set_enabled(true);
    let kernel = Cogent::new()
        .device(GpuDevice::v100())
        .precision(Precision::F64)
        .generate(&tc, &sizes)
        .unwrap();
    let trace = kernel
        .trace
        .clone()
        .expect("tracing enabled: trace attached");
    (kernel, trace)
}

#[test]
fn every_phase_has_a_span_with_counters() {
    let (_, trace) = traced_generate("abcd-aebf-dfce", 16);
    for phase in ["enumerate", "prune", "rank", "lower", "codegen", "simulate"] {
        let span = trace
            .find(phase)
            .unwrap_or_else(|| panic!("no span for phase {phase}"));
        assert!(span.duration_ns > 0, "{phase} has zero duration");
        assert!(!span.counters.is_empty(), "{phase} recorded no counters");
    }
}

#[test]
fn prune_reject_counters_sum_to_histogram() {
    let (kernel, trace) = traced_generate("abcd-aebf-dfce", 48);
    // This case needs no relaxation, so the histogram holds only
    // strict-pass keys and must agree exactly with the `prune.reject.*`
    // counters; `prune.checked` is exactly one pass over the enumeration.
    assert!(!kernel.search.rules_relaxed);
    let histogram_total: usize = kernel.search.prune_histogram.values().sum();
    assert_eq!(
        trace.counter_sum_prefix("prune.reject."),
        histogram_total as u128,
        "per-rule counters disagree with prune_histogram"
    );
    let prune = trace.find("prune").unwrap();
    assert_eq!(
        prune.counter("prune.checked"),
        Some(kernel.search.enumerated as u128)
    );
}

#[test]
fn relaxed_pruning_accounts_every_check() {
    // An 8^3 matmul on a V100 forces progressive relaxation: the strict
    // pass rejects everything, then one or two relaxed passes re-check
    // the full enumeration. `prune.checked` must count every rule check
    // across all rungs of the relaxation ladder, and relaxed rejections
    // must reach both the histogram (under `relaxed(...)` keys) and their
    // own `prune.relaxed.reject.*` counters.
    let (kernel, trace) = traced_generate("ij-ik-kj", 8);
    assert!(kernel.search.rules_relaxed, "8^3 must relax on a V100");
    let enumerated = kernel.search.enumerated as u128;
    assert!(enumerated > 0);

    let prune = trace.find("prune").unwrap();
    let checked = prune.counter("prune.checked").unwrap();
    assert!(
        checked > enumerated,
        "checked ({checked}) must exceed one pass ({enumerated})"
    );
    // Each pass covers the whole enumeration, no more, no less.
    assert_eq!(
        checked % enumerated,
        0,
        "checked is not a whole number of passes"
    );

    // The strict pass rejected everything (that is what triggered
    // relaxation), and its counters say so.
    assert_eq!(trace.counter_sum_prefix("prune.reject."), enumerated);

    // Relaxed-pass rejections agree between counters and histogram.
    let relaxed_hist: usize = kernel
        .search
        .prune_histogram
        .iter()
        .filter(|(key, _)| key.starts_with("relaxed("))
        .map(|(_, count)| count)
        .sum();
    assert!(relaxed_hist > 0, "no relaxed keys in the histogram");
    assert_eq!(
        trace.counter_sum_prefix("prune.relaxed.reject."),
        relaxed_hist as u128,
        "relaxed counters disagree with the relaxed histogram keys"
    );

    // Full accounting: every check is either a survivor or a histogram
    // entry (strict and relaxed passes alike).
    let histogram_total: usize = kernel.search.prune_histogram.values().sum();
    let survivors_across_passes = checked as usize - histogram_total;
    assert!(
        survivors_across_passes >= kernel.search.survivors,
        "survivors unaccounted for"
    );
}

#[test]
fn parallel_workers_relay_spans_with_distinct_thread_ids() {
    let jobs: Vec<(Contraction, SizeMap)> = [
        "abcd-aebf-dfce",
        "abcd-aebd-ce",
        "abcd-ea-ebcd",
        "abcdef-gdab-efgc",
    ]
    .iter()
    .map(|spec| {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        (tc, sizes)
    })
    .collect();
    cogent_obs::set_enabled(true);
    let capture = cogent_obs::Capture::start("batch");
    let kernels = Cogent::new()
        .device(GpuDevice::v100())
        .precision(Precision::F64)
        .generate_many(&jobs, 4);
    let trace = capture.finish().expect("tracing enabled: capture finishes");

    // Job workers relay their spans back into the capture: one `job`
    // child per job, and at least two of them ran on threads other than
    // the capture thread.
    let workers = trace.find_all("job");
    assert_eq!(workers.len(), jobs.len(), "one job span per job");
    let tids: std::collections::BTreeSet<u32> = workers.iter().map(|w| w.thread).collect();
    assert!(
        tids.len() >= 2,
        "worker spans share one thread id: {tids:?}"
    );
    assert!(
        !tids.contains(&trace.root.thread),
        "worker spans claim the capture thread's id"
    );

    // Worker-side counters reached the relayed spans: summed across the
    // whole tree they account for exactly one pass over each job's
    // enumeration (none of these jobs relaxes its rules).
    let enumerated: usize = kernels
        .iter()
        .map(|k| {
            let search = &k.as_ref().expect("job generates").search;
            assert!(!search.rules_relaxed);
            search.enumerated
        })
        .sum();
    assert_eq!(
        trace.counter_sum_prefix("prune.checked"),
        enumerated as u128,
        "worker-side prune.checked lost in the relay"
    );
}

#[test]
fn trace_round_trips_through_json() {
    let (_, trace) = traced_generate("abcd-aebf-dfce", 16);
    let json = trace.to_json_string();
    let back = PipelineTrace::from_json_str(&json).unwrap();
    assert_eq!(back, trace);
    assert!(json.contains("\"schema\":\"cogent.trace.v3\""));
    // v3 documents embed a derived per-phase profile section.
    assert!(json.contains("\"profile\":"));
}

#[test]
fn simulate_spans_nest_under_lower() {
    let (_, trace) = traced_generate("abcd-aebf-dfce", 16);
    let lower = trace.find("lower").unwrap();
    // The refinement loop simulates each top-k candidate, so the lower
    // span owns at least one simulate child with traced transactions.
    let mut sims = Vec::new();
    lower.find_all("simulate", &mut sims);
    assert!(!sims.is_empty(), "no simulate spans under lower");
    assert!(sims
        .iter()
        .any(|s| s.counter("sim.transactions.load_a").unwrap_or(0) > 0));
}
