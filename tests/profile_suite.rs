//! Phase-profiler acceptance suite: across the full 48-entry TCCG
//! benchmark, the span instrumentation must explain (attribute to named
//! phases below the root) at least 95% of the measured cold wall time,
//! and a multi-worker `generate_many` must export a Chrome trace with
//! real per-worker timelines (distinct `tid`s).
//!
//! Tests in this file share the process-global tracing flag, so every
//! test holds [`OBS_LOCK`] while the flag is on.

use std::sync::Mutex;

use cogent::obs::profile::PhaseProfile;
use cogent::prelude::*;

/// Serializes tests that flip the global tracing flag.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Shrinks an entry's sizes so the sweep stays fast in debug builds; the
/// span tree (and therefore the profile shape) does not depend on the
/// extents.
fn test_sizes(entry: &cogent::tccg::TccgEntry, cap: usize) -> SizeMap {
    let mut out = SizeMap::new();
    for (idx, extent) in entry.sizes().iter() {
        out.set(idx.clone(), extent.min(cap).max(1));
    }
    out
}

/// One traced cold generation (no cache) under the lock.
fn traced_generate(tc: &Contraction, sizes: &SizeMap) -> cogent::generator::GeneratedKernel {
    let kernel = Cogent::new()
        .device(GpuDevice::v100())
        .precision(Precision::F64)
        .generate(tc, sizes)
        .expect("suite entry generates");
    assert!(kernel.trace.is_some(), "tracing on: trace attached");
    kernel
}

/// Cold runs per entry whose merged profile is held to the coverage
/// floor. One sub-millisecond run on a loaded machine can lose a few
/// percent to a single descheduling; three runs of the same entry
/// cannot all be hit the same way.
const COVERAGE_RUNS: usize = 3;

/// ISSUE 6 acceptance: `cogent profile` on all 48 TCCG entries attributes
/// at least 95% of measured cold wall time to named phases — per entry,
/// over [`COVERAGE_RUNS`] cold runs — and on every run the per-phase self
/// times sum to the root's wall clock.
#[test]
fn profiler_attributes_cold_wall_time_across_the_whole_suite() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cogent::obs::set_enabled(true);
    let mut entries = 0usize;
    for entry in cogent::tccg::suite() {
        let tc = entry.contraction();
        let sizes = test_sizes(&entry, 24);
        let mut merged: Option<PhaseProfile> = None;
        for _ in 0..COVERAGE_RUNS {
            let kernel = traced_generate(&tc, &sizes);
            let trace = kernel.trace.expect("trace attached");
            let profile = PhaseProfile::from_trace(&trace);

            // Self times partition the wall clock: the per-span clock
            // reads can jitter, but never by more than a percent of the
            // run.
            let attributed = profile.attributed_ns();
            assert!(
                attributed <= profile.wall_ns,
                "{}: attributed {attributed} exceeds wall {}",
                entry.name,
                profile.wall_ns
            );
            assert!(
                attributed as f64 >= profile.wall_ns as f64 * 0.99,
                "{}: self times sum to {attributed} of wall {}",
                entry.name,
                profile.wall_ns
            );
            match &mut merged {
                Some(merged) => merged.merge(&profile),
                None => merged = Some(profile),
            }
        }
        let profile = merged.expect("at least one run");

        // >= 95% of the wall time is explained by phases below the root.
        assert!(
            profile.coverage() >= 0.95,
            "{}: coverage {:.1}% < 95% over {COVERAGE_RUNS} runs:\n{}",
            entry.name,
            profile.coverage() * 100.0,
            profile.render_table()
        );

        // The profile names the pipeline phases the paper's Algorithm 1
        // prescribes, and every phase was actually entered.
        for phase in ["enumerate", "prune", "rank", "cost", "lower", "codegen"] {
            let stat = profile
                .phases
                .iter()
                .find(|p| p.name == phase)
                .unwrap_or_else(|| panic!("{}: no {phase} phase", entry.name));
            assert!(stat.calls > 0 && stat.total_ns > 0, "{phase} never ran");
        }
        entries += 1;
    }
    cogent::obs::set_enabled(false);
    assert_eq!(entries, 48, "the TCCG suite has 48 entries");
}

/// A traced 4-worker `generate_many` over four jobs exports a Chrome
/// trace whose events span at least two distinct worker-thread timelines
/// (`tid`s beyond the capture thread), each announced by a `thread_name`
/// metadata event.
#[test]
fn chrome_export_shows_distinct_worker_timelines() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
    cogent::obs::set_enabled(true);
    let capture = cogent::obs::Capture::start("batch");
    for kernel in Cogent::new().generate_many(&jobs, 4) {
        kernel.expect("job generates");
    }
    let trace = capture.finish().expect("capture finishes");
    cogent::obs::set_enabled(false);
    let root_tid = trace.root.thread;

    let doc = cogent::obs::chrome::to_chrome_trace_string(&trace);
    let parsed = cogent::obs::json::Json::parse(&doc).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();

    // Worker timelines: complete ("X") events on tids other than the
    // capture thread's.
    let worker_tids: std::collections::BTreeSet<u128> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(|t| t.as_u128()))
        .filter(|tid| *tid != u128::from(root_tid))
        .collect();
    assert!(
        worker_tids.len() >= 2,
        "expected >= 2 distinct worker timelines, got {worker_tids:?}"
    );

    // Every tid is announced with a thread_name metadata event, workers
    // labelled as such.
    let metadata_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
        })
        .collect();
    assert!(
        metadata_names
            .iter()
            .filter(|name| name.ends_with("(worker)"))
            .count()
            >= 2,
        "worker thread_name metadata missing: {metadata_names:?}"
    );
}
