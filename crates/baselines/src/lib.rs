//! Baseline tensor-contraction frameworks the paper compares against.
//!
//! Each baseline is rebuilt as a synthetic equivalent running on the same
//! virtual GPU (`cogent-gpu-sim`) and device models (`cogent-gpu-model`)
//! as the COGENT reproduction, so the comparisons in Figs. 4–8 measure the
//! *strategies*, not unrelated implementation artifacts:
//!
//! * [`ttgt`] — a TAL_SH-like Transpose-Transpose-GEMM-Transpose pipeline
//!   (cuTT-like transpose model + cuBLAS-like GEMM model), with a
//!   functional host execution path;
//! * [`nwchem`] — an NWChem-like direct-contraction generator with fixed
//!   tiling heuristics and no model-driven search;
//! * [`tc`] — a Tensor-Comprehensions-like genetic autotuner over the raw
//!   (unpruned) mapping space, evaluating candidates on the simulator;
//! * [`naive`] — a one-thread-per-output direct kernel, the sanity floor.
//!
//! All engines produce a [`Measurement`]; [`measure_cogent`] wraps the
//! COGENT generator with the same interface.

pub mod engine;
pub mod naive;
pub mod nwchem;
pub mod tc;
pub mod ttgt;

pub use engine::{measure_cogent, Measurement};
pub use naive::NaiveDirect;
pub use nwchem::NwchemLikeGenerator;
pub use tc::{SearchStrategy, TcAutotuner, TcResult, TracePoint};
pub use ttgt::TtgtEngine;
