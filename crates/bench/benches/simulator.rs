//! Benchmarks the virtual GPU's transaction tracer and simulation (the
//! per-candidate cost of the TC-like autotuner).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
use cogent_gpu_sim::simulate;
use cogent_gpu_sim::trace::{trace_transactions, TraceOptions};
use cogent_ir::Contraction;

fn eq1_plan(n: usize) -> KernelPlan {
    let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
    KernelPlan::new(
        &tc,
        vec![
            IndexBinding::new("a", n, 8.min(n), MapDim::ThreadX),
            IndexBinding::new("b", n, 4.min(n), MapDim::RegX),
            IndexBinding::new("c", n, 8.min(n), MapDim::ThreadY),
            IndexBinding::new("d", n, 4.min(n), MapDim::RegY),
            IndexBinding::new("e", n, 4.min(n), MapDim::SerialK),
            IndexBinding::new("f", n, 2.min(n), MapDim::SerialK),
        ],
    )
    .unwrap()
}

fn bench_trace_and_simulate(c: &mut Criterion) {
    let plan = eq1_plan(48);
    let device = GpuDevice::v100();
    c.bench_function("trace_sampled_48^6", |b| {
        b.iter(|| {
            trace_transactions(
                black_box(&plan),
                &device,
                Precision::F64,
                TraceOptions::default(),
            )
        })
    });
    c.bench_function("simulate_48^6", |b| {
        b.iter(|| simulate(black_box(&plan), &device, Precision::F64))
    });
}

criterion_group!(benches, bench_trace_and_simulate);
criterion_main!(benches);
