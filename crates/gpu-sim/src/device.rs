//! Device constants for the performance model.

/// An accelerator described by the handful of parameters the roofline
/// model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Effective HBM bandwidth in bytes/second (peak × streaming
    /// efficiency).
    pub mem_bw: f64,
    /// Effective FP16 Tensor-Core throughput in FLOP/s.
    pub tc_flops: f64,
    /// Effective CUDA-core (scalar FP) throughput in FLOP/s, used for
    /// de-quantization work.
    pub cuda_flops: f64,
    /// Fixed cost of launching one kernel, seconds.
    pub launch_overhead: f64,
    /// Cost of one inter-threadblock global reduction (split-k
    /// synchronization), seconds.
    pub sync_cost: f64,
    /// Number of streaming multiprocessors (used to decide when split-k
    /// is needed to fill the machine).
    pub sm_count: usize,
    /// Total device memory in bytes (for out-of-memory checks).
    pub vram_bytes: u64,
}

impl Device {
    /// An NVIDIA A100-40GB with standard sustained-efficiency factors:
    /// 1555 GB/s HBM at 85%, 312 TFLOPS FP16 Tensor Core at 70%,
    /// 19.5 TFLOPS FP32 CUDA cores at 50%.
    pub fn a100_40gb() -> Self {
        Self {
            mem_bw: 1555e9 * 0.85,
            tc_flops: 312e12 * 0.70,
            cuda_flops: 19.5e12 * 0.50,
            launch_overhead: 5e-6,
            sync_cost: 3e-6,
            sm_count: 108,
            vram_bytes: 40 * (1u64 << 30),
        }
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::a100_40gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants_are_sane() {
        let d = Device::a100_40gb();
        assert!(d.mem_bw > 1e12 && d.mem_bw < 1.6e12);
        assert!(d.tc_flops > 2e14 && d.tc_flops < 3.2e14);
        assert!(d.vram_bytes == 40 * (1u64 << 30));
    }
}
