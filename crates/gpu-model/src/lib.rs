//! Analytical GPU architecture and performance models.
//!
//! The paper evaluates generated CUDA kernels on Nvidia P100 (Pascal) and
//! V100 (Volta) GPUs. This reproduction has no GPU, so the crate provides
//! the synthetic equivalent: device descriptions ([`GpuDevice`]), a CUDA
//! occupancy calculator ([`occupancy()`]), a DRAM bandwidth model
//! ([`memory`]), cuBLAS-like and cuTT-like timing models used by the TTGT
//! baseline ([`gemm_model`], [`transpose_model`]), and a roofline-style
//! kernel time predictor ([`roofline`]).
//!
//! All timing constants are collected in [`calib`] so the whole performance
//! stack can be calibrated in one place.
//!
//! # Examples
//!
//! ```
//! use cogent_gpu_model::GpuDevice;
//!
//! let v100 = GpuDevice::v100();
//! assert_eq!(v100.sm_count, 80);
//! assert!(v100.peak_gflops_f64 > 6000.0);
//! ```

pub mod calib;
pub mod debug_text;
pub mod device;
pub mod gemm_model;
pub mod memory;
pub mod occupancy;
pub mod roofline;
pub mod transpose_model;

pub use device::{GpuDevice, Precision};
pub use occupancy::{occupancy, BlockResources, Occupancy};
pub use roofline::{predict_time_s, wave_efficiency, KernelProfile, TimeBreakdown};
