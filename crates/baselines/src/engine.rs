//! The common measurement type and the COGENT wrapper.

use cogent_core::Cogent;
use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::{Contraction, ContractionAnalysis, SizeMap};

/// A simulated end-to-end measurement of one framework on one contraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Predicted wall-clock seconds for the whole contraction (including
    /// any transposes the strategy performs).
    pub time_s: f64,
    /// Useful GFLOP/s (`2·prod(N) / time`).
    pub gflops: f64,
}

impl Measurement {
    /// Builds a measurement from a time and the contraction's FLOP count.
    pub fn from_time(tc: &Contraction, sizes: &SizeMap, time_s: f64) -> Self {
        let flops = ContractionAnalysis::new(tc).flops(sizes) as f64;
        Self {
            time_s,
            gflops: flops / time_s / 1e9,
        }
    }
}

/// Measures the COGENT reproduction itself: run the model-driven search,
/// lower the winner, simulate it.
///
/// # Panics
///
/// Panics when generation fails (sizes not covering the contraction).
///
/// # Examples
///
/// ```
/// use cogent_baselines::measure_cogent;
/// use cogent_gpu_model::{GpuDevice, Precision};
/// use cogent_ir::{Contraction, SizeMap};
///
/// let tc: Contraction = "abcd-aebf-dfce".parse()?;
/// let sizes = SizeMap::uniform(&tc, 48);
/// let m = measure_cogent(&tc, &sizes, &GpuDevice::v100(), Precision::F64);
/// assert!(m.gflops > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn measure_cogent(
    tc: &Contraction,
    sizes: &SizeMap,
    device: &GpuDevice,
    precision: Precision,
) -> Measurement {
    let generated = Cogent::new()
        .device(device.clone())
        .precision(precision)
        .generate(tc, sizes)
        .expect("COGENT generates for any valid contraction");
    Measurement::from_time(tc, sizes, generated.report.time.total_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_time_computes_gflops() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 100);
        let m = Measurement::from_time(&tc, &sizes, 1e-3);
        // 2e6 flops in 1 ms = 2 GFLOPS.
        assert!((m.gflops - 2.0e-3 * 1e3).abs() < 1e-9);
    }

    #[test]
    fn cogent_measures_reasonably_on_v100() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 48);
        let m = measure_cogent(&tc, &sizes, &GpuDevice::v100(), Precision::F64);
        assert!(m.time_s > 0.0);
        assert!(m.gflops > 100.0, "implausibly slow: {}", m.gflops);
        assert!(m.gflops < 7000.0, "faster than peak: {}", m.gflops);
    }
}
