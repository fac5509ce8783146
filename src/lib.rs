//! COGENT-RS: a model-driven code generator for high-performance tensor
//! contractions on GPUs.
//!
//! This is a from-scratch Rust reproduction of Kim et al., *"A Code
//! Generator for High-Performance Tensor Contractions on GPUs"* (CGO
//! 2019), including every substrate the paper's evaluation depends on: a
//! functional virtual GPU, analytical P100/V100 performance models, the
//! TTGT / NWChem-like / Tensor-Comprehensions-like baselines, and a
//! reconstructed TCCG benchmark suite.
//!
//! The facade re-exports the workspace crates:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`ir`] | `cogent-ir` | contraction IR, parsing, index analysis |
//! | [`tensor`] | `cogent-tensor` | dense tensors, permutation, GEMM, reference contraction, host TTGT |
//! | [`gpu`] | `cogent-gpu-model` | device descriptions, occupancy, roofline models |
//! | [`sim`] | `cogent-gpu-sim` | kernel plans, transaction tracer, performance simulation, fault injection |
//! | [`kir`] | `cogent-kir` | typed kernel IR: lowering, dialect printers (CUDA/OpenCL/HIP), interpreter, structural lint |
//! | [`generator`] | `cogent-core` | **the paper**: enumeration, pruning, cost model, kernel emission |
//! | [`baselines`] | `cogent-baselines` | TTGT, NWChem-like, TC-like autotuner, naive floor |
//! | [`tccg`] | `cogent-tccg` | the 48-entry benchmark suite |
//! | [`obs`] | `cogent-obs` | pipeline tracing: spans, counters, trace JSON |
//!
//! # Quickstart
//!
//! ```
//! use cogent::prelude::*;
//!
//! // Eq. 1 of the paper: C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e].
//! let tc: Contraction = "abcd-aebf-dfce".parse()?;
//! let sizes = SizeMap::uniform(&tc, 10);
//!
//! // Model-driven generation for a V100.
//! let generated = Cogent::new().generate(&tc, &sizes)?;
//! println!("selected configuration: {}", generated.config);
//! assert!(generated.cuda_source.contains("__global__"));
//!
//! // The generated kernel computes the right answer.
//! let (a, b) = cogent::tensor::reference::random_inputs::<f64>(&generated.contraction, &sizes, 1);
//! let got = interpret_plan(&generated.plan, &a, &b)?;
//! let want = cogent::tensor::reference::contract_reference(&generated.contraction, &sizes, &a, &b);
//! assert!(got.approx_eq(&want, 1e-11));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use cogent_baselines as baselines;
pub use cogent_core as generator;
pub use cogent_gpu_model as gpu;
pub use cogent_ir as ir;
pub use cogent_kir as kir;
pub use cogent_obs as obs;
pub use cogent_tccg as tccg;
pub use cogent_tensor as tensor;

/// `cogent-gpu-sim`: kernel plans, the transaction tracer and the
/// performance simulation.
pub mod sim {
    pub use cogent_gpu_sim::*;
    /// Kept only for the `cogent-benchmark` harness, which still imports
    /// this name; it is the kernel-IR interpreter. Nothing else in the
    /// repository uses it: call [`cogent_kir::interpret_plan`] directly.
    pub use cogent_kir::interpret_plan as try_execute_plan;
}

/// The most common imports in one place.
pub mod prelude {
    pub use cogent_core::{Cogent, CogentError, GeneratedKernel, KernelConfig, Provenance};
    pub use cogent_gpu_model::{GpuDevice, Precision};
    pub use cogent_gpu_sim::{simulate, KernelPlan};
    pub use cogent_ir::{Contraction, SizeMap, TensorRef};
    pub use cogent_kir::interpret_plan;
    pub use cogent_tensor::DenseTensor;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        assert_eq!(tc.internal_indices().len(), 1);
        let d = GpuDevice::p100();
        assert_eq!(d.sm_count, 56);
    }
}
