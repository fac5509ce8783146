//! GPU device descriptions.

use std::fmt;

use crate::debug_text::DebugStruct;

/// Floating-point precision of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// IEEE binary32 (`float`). Used for the Tensor Comprehensions
    /// comparison (Figs. 6–8).
    F32,
    /// IEEE binary64 (`double`). Used for the main evaluation (Figs. 4–5).
    F64,
}

impl Precision {
    /// Element size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::F32 => f.write_str("f32"),
            Precision::F64 => f.write_str("f64"),
        }
    }
}

/// Static description of a GPU, sufficient for occupancy calculation and
/// roofline-style performance prediction.
///
/// Fields are public: this is a passive, C-style data record describing
/// hardware; presets are provided for the paper's two evaluation platforms.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GpuDevice {
    /// Marketing name, e.g. `"Tesla V100"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Peak double-precision throughput in GFLOP/s.
    pub peak_gflops_f64: f64,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops_f32: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbs: f64,
    /// Shared memory available per thread block, in bytes (the default
    /// 48 KiB CUDA limit on both evaluation platforms).
    pub smem_per_block_bytes: usize,
    /// Shared memory per SM, in bytes (bounds how many blocks co-reside).
    pub smem_per_sm_bytes: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Maximum 32-bit registers per thread.
    pub max_registers_per_thread: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Size of one global-memory transaction, in bytes. The paper's cost
    /// model assumes 128-byte transactions (16 doubles) aligned to 128-byte
    /// boundaries.
    pub transaction_bytes: usize,
}

impl GpuDevice {
    /// The Nvidia Tesla P100 (Pascal, 56 SMs) used for Figs. 4 and 6.
    pub fn p100() -> Self {
        Self {
            name: "Tesla P100".to_owned(),
            sm_count: 56,
            peak_gflops_f64: 4_700.0,
            peak_gflops_f32: 9_300.0,
            dram_bandwidth_gbs: 732.0,
            smem_per_block_bytes: 48 * 1024,
            smem_per_sm_bytes: 64 * 1024,
            registers_per_sm: 64 * 1024,
            max_registers_per_thread: 255,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            warp_size: 32,
            transaction_bytes: 128,
        }
    }

    /// The Nvidia Tesla V100 (Volta, 80 SMs) used for Figs. 5, 7 and 8.
    pub fn v100() -> Self {
        Self {
            name: "Tesla V100".to_owned(),
            sm_count: 80,
            peak_gflops_f64: 7_000.0,
            peak_gflops_f32: 14_000.0,
            dram_bandwidth_gbs: 900.0,
            smem_per_block_bytes: 48 * 1024,
            smem_per_sm_bytes: 96 * 1024,
            registers_per_sm: 64 * 1024,
            max_registers_per_thread: 255,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            warp_size: 32,
            transaction_bytes: 128,
        }
    }

    /// The Nvidia A100 (Ampere, 108 SMs) — not part of the paper's
    /// evaluation, provided to show the models generalize to newer parts.
    pub fn a100() -> Self {
        Self {
            name: "A100".to_owned(),
            sm_count: 108,
            peak_gflops_f64: 9_700.0,
            peak_gflops_f32: 19_500.0,
            dram_bandwidth_gbs: 1_555.0,
            smem_per_block_bytes: 48 * 1024,
            smem_per_sm_bytes: 164 * 1024,
            registers_per_sm: 64 * 1024,
            max_registers_per_thread: 255,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            warp_size: 32,
            transaction_bytes: 128,
        }
    }

    /// The inverse of `format!("{device:?}")`, the device text a kernel
    /// cache key stores.
    ///
    /// # Errors
    ///
    /// A one-line reason naming the field that does not parse back.
    pub fn from_debug_text(text: &str) -> Result<Self, String> {
        let fields = DebugStruct::parse(text, "GpuDevice")?;
        Ok(Self {
            name: fields.string("name")?,
            sm_count: fields.get("sm_count")?,
            peak_gflops_f64: fields.get("peak_gflops_f64")?,
            peak_gflops_f32: fields.get("peak_gflops_f32")?,
            dram_bandwidth_gbs: fields.get("dram_bandwidth_gbs")?,
            smem_per_block_bytes: fields.get("smem_per_block_bytes")?,
            smem_per_sm_bytes: fields.get("smem_per_sm_bytes")?,
            registers_per_sm: fields.get("registers_per_sm")?,
            max_registers_per_thread: fields.get("max_registers_per_thread")?,
            max_threads_per_sm: fields.get("max_threads_per_sm")?,
            max_threads_per_block: fields.get("max_threads_per_block")?,
            max_blocks_per_sm: fields.get("max_blocks_per_sm")?,
            warp_size: fields.get("warp_size")?,
            transaction_bytes: fields.get("transaction_bytes")?,
        })
    }

    /// Peak throughput for the given precision, GFLOP/s.
    pub fn peak_gflops(&self, precision: Precision) -> f64 {
        match precision {
            Precision::F32 => self.peak_gflops_f32,
            Precision::F64 => self.peak_gflops_f64,
        }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> usize {
        self.max_threads_per_sm / self.warp_size
    }

    /// Elements of the given precision per memory transaction.
    pub fn elements_per_transaction(&self, precision: Precision) -> usize {
        self.transaction_bytes / precision.bytes()
    }
}

impl fmt::Display for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.0} GB/s, {:.0}/{:.0} GFLOPS f64/f32)",
            self.name,
            self.sm_count,
            self.dram_bandwidth_gbs,
            self.peak_gflops_f64,
            self.peak_gflops_f32
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_platforms() {
        let p = GpuDevice::p100();
        let v = GpuDevice::v100();
        assert_eq!(p.sm_count, 56);
        assert_eq!(v.sm_count, 80);
        assert!(v.dram_bandwidth_gbs > p.dram_bandwidth_gbs);
        assert!(v.peak_gflops_f64 > p.peak_gflops_f64);
    }

    #[test]
    fn transaction_granularity() {
        let v = GpuDevice::v100();
        // The paper: 128 bytes = 16 double-precision elements.
        assert_eq!(v.elements_per_transaction(Precision::F64), 16);
        assert_eq!(v.elements_per_transaction(Precision::F32), 32);
    }

    #[test]
    fn debug_text_reads_back() {
        for device in [GpuDevice::p100(), GpuDevice::v100(), GpuDevice::a100()] {
            let text = format!("{device:?}");
            assert_eq!(GpuDevice::from_debug_text(&text), Ok(device));
        }
        assert!(GpuDevice::from_debug_text("GpuDevice { name: 3 }").is_err());
    }

    #[test]
    fn warps_per_sm() {
        assert_eq!(GpuDevice::v100().max_warps_per_sm(), 64);
    }

    #[test]
    fn a100_extends_the_lineup() {
        let a = GpuDevice::a100();
        assert!(a.dram_bandwidth_gbs > GpuDevice::v100().dram_bandwidth_gbs);
        assert!(a.peak_gflops_f64 > GpuDevice::v100().peak_gflops_f64);
        assert_eq!(a.sm_count, 108);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F64.bytes(), 8);
        assert_eq!(Precision::F64.to_string(), "f64");
    }

    #[test]
    fn peak_selector() {
        let v = GpuDevice::v100();
        assert_eq!(v.peak_gflops(Precision::F32), v.peak_gflops_f32);
        assert_eq!(v.peak_gflops(Precision::F64), v.peak_gflops_f64);
    }

    #[test]
    fn display_contains_name() {
        assert!(GpuDevice::p100().to_string().contains("P100"));
    }
}
