//! Global-memory bandwidth model.

use crate::calib;
use crate::device::GpuDevice;

/// Achievable DRAM bandwidth (GB/s) at a given occupancy fraction.
///
/// Bandwidth saturates once enough warps are in flight
/// ([`calib::OCCUPANCY_FOR_PEAK_BANDWIDTH`]); below that it degrades
/// linearly (little memory-level parallelism hides DRAM latency).
pub fn achievable_bandwidth_gbs(device: &GpuDevice, occupancy_fraction: f64) -> f64 {
    let occ = occupancy_fraction.clamp(0.0, 1.0);
    let mlp = (occ / calib::OCCUPANCY_FOR_PEAK_BANDWIDTH).min(1.0);
    device.dram_bandwidth_gbs * calib::STREAM_BANDWIDTH_EFFICIENCY * mlp
}

/// Time in seconds to move `transactions` 128-byte transactions at the
/// bandwidth achievable under `occupancy_fraction`.
pub fn transfer_time_s(device: &GpuDevice, transactions: u128, occupancy_fraction: f64) -> f64 {
    let bytes = transactions as f64 * device.transaction_bytes as f64;
    let bw = achievable_bandwidth_gbs(device, occupancy_fraction).max(1e-9);
    bytes / (bw * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> GpuDevice {
        GpuDevice::v100()
    }

    #[test]
    fn bandwidth_saturates() {
        let d = v100();
        let at_peak = achievable_bandwidth_gbs(&d, 1.0);
        let at_knee = achievable_bandwidth_gbs(&d, calib::OCCUPANCY_FOR_PEAK_BANDWIDTH);
        assert!((at_peak - at_knee).abs() < 1e-9);
        assert!(at_peak <= d.dram_bandwidth_gbs);
        assert!(at_peak > 0.7 * d.dram_bandwidth_gbs);
    }

    #[test]
    fn bandwidth_degrades_at_low_occupancy() {
        let d = v100();
        let low = achievable_bandwidth_gbs(&d, 0.05);
        let high = achievable_bandwidth_gbs(&d, 0.5);
        assert!(low < high);
        assert!(low > 0.0);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let d = v100();
        let t1 = transfer_time_s(&d, 1_000, 1.0);
        let t2 = transfer_time_s(&d, 2_000, 1.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
