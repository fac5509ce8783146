//! Cross-thread metrics aggregation: N threads recording concurrently
//! through the public span API must merge into exactly the same global
//! snapshot as one thread doing all the work serially — counters add,
//! histogram buckets add, gauges resolve last-writer-wins.
//!
//! These tests share the process-global metric registry (and the global
//! tracing flag), so they serialize on a file-local mutex and diff
//! snapshots instead of assuming a pristine registry.

use std::sync::Mutex;

use cogent_obs::metrics::Histogram;
use cogent_obs::registry::{self, MetricsShard};
use cogent_obs::{set_enabled, Capture};

static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with tracing enabled and a reset registry; returns the
/// snapshot accumulated by `f`.
fn snapshot_of(f: impl FnOnce()) -> MetricsShard {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    registry::reset_metrics();
    set_enabled(true);
    f();
    set_enabled(false);
    registry::metrics_snapshot()
}

/// One "worker's worth" of recording through the public API.
fn record_workload(worker: usize) {
    let capture = Capture::start("job");
    cogent_obs::counter("work.items", 10 + worker as u128);
    cogent_obs::counter("work.items", 1);
    cogent_obs::histogram("work.latency_ns", (worker as u128 + 1) * 1_000);
    cogent_obs::histogram("work.latency_ns", 7);
    drop(capture.finish());
}

#[test]
fn concurrent_recording_equals_serial_merge() {
    const N: usize = 8;
    let concurrent = snapshot_of(|| {
        std::thread::scope(|scope| {
            for worker in 0..N {
                scope.spawn(move || record_workload(worker));
            }
        });
    });
    let serial = snapshot_of(|| {
        for worker in 0..N {
            record_workload(worker);
        }
    });

    // Counters: sum over workers, independent of scheduling.
    let expected: u128 = (0..N).map(|w| 10 + w as u128 + 1).sum();
    assert_eq!(concurrent.counters["work.items"], expected);
    assert_eq!(serial.counters["work.items"], expected);

    // Histograms: bucket-exact equality, not just summary statistics.
    let mut expected_hist = Histogram::new();
    for worker in 0..N {
        expected_hist.record((worker as u128 + 1) * 1_000);
        expected_hist.record(7);
    }
    assert_eq!(concurrent.histograms["work.latency_ns"], expected_hist);
    assert_eq!(
        concurrent.histograms["work.latency_ns"],
        serial.histograms["work.latency_ns"]
    );

    // Span durations differ run to run, but their counts must match.
    assert_eq!(
        concurrent.histograms["span.job.duration_ns"].count(),
        serial.histograms["span.job.duration_ns"].count(),
    );
    assert_eq!(concurrent.spans_closed, serial.spans_closed);
    assert_eq!(concurrent.spans_closed, N as u64);
}

#[test]
fn gauge_last_writer_wins_across_threads() {
    // Spawn-and-join each thread in turn so "last writer" is well
    // defined; the winning value must survive the shard merges.
    let snapshot = snapshot_of(|| {
        for value in [0.25, 0.5, 0.9375] {
            std::thread::spawn(move || {
                let capture = Capture::start("job");
                cogent_obs::gauge("work.occupancy", value);
                drop(capture.finish());
            })
            .join()
            .unwrap();
        }
    });
    assert_eq!(snapshot.gauges["work.occupancy"].1, 0.9375);
}

#[test]
fn exited_threads_drain_into_the_accumulator() {
    // Only the drained counter is asserted: `live_shards()` is process
    // global, and a sibling test thread exiting can change it at any time.
    let snapshot = snapshot_of(|| {
        std::thread::spawn(|| {
            let capture = Capture::start("job");
            cogent_obs::counter("drain.check", 42);
            drop(capture.finish());
        })
        .join()
        .unwrap();
    });
    // The worker's shard is gone with its thread, but its metrics survived
    // the join, counted once.
    assert_eq!(snapshot.counters["drain.check"], 42);
}

#[test]
fn reset_clears_drained_and_live_shards() {
    let snapshot = snapshot_of(|| {
        // Both a live shard (this thread) and a drained one (the worker).
        let capture = Capture::start("job");
        cogent_obs::counter("stale.counter", 1);
        drop(capture.finish());
        std::thread::spawn(|| {
            let capture = Capture::start("job");
            cogent_obs::counter("stale.counter", 1);
            drop(capture.finish());
        })
        .join()
        .unwrap();
        assert_eq!(registry::metrics_snapshot().counters["stale.counter"], 2);
        registry::reset_metrics();
        // Live threads keep recording into their emptied shards.
        let capture = Capture::start("job");
        cogent_obs::counter("fresh.counter", 5);
        drop(capture.finish());
    });
    assert!(!snapshot.counters.contains_key("stale.counter"));
    assert_eq!(snapshot.counters["fresh.counter"], 5);
}

#[test]
fn disabled_recording_reaches_no_shard() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    registry::reset_metrics();
    set_enabled(false);
    let capture = Capture::start("job");
    cogent_obs::counter("ghost.counter", 99);
    assert!(capture.finish().is_none());
    let snapshot = registry::metrics_snapshot();
    assert!(!snapshot.counters.contains_key("ghost.counter"));
    assert_eq!(snapshot.spans_closed, 0);
}
