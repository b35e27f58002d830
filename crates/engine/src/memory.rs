//! Memory-hierarchy model.
//!
//! The paper's challenge list (§V-B5) calls out the "overhead of data
//! staging to matrix engines": unlike vector registers, ME operands live in
//! a separate memory hierarchy. This module models a cache hierarchy plus
//! an explicit staging buffer, so the execution model's memory times — and
//! the staging-overhead ablation — derive from hit/miss accounting instead
//! of a single bandwidth scalar.

/// One cache level.
#[derive(Debug, Clone, Copy)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub capacity: usize,
    /// Bandwidth to the level below (GB/s).
    pub bandwidth_gbs: f64,
    /// Access latency (ns) — charged once per miss stream.
    pub latency_ns: f64,
}

/// A memory hierarchy: L1..Ln then DRAM/HBM.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// Cache levels, innermost first.
    pub levels: Vec<CacheLevel>,
    /// Main-memory bandwidth (GB/s).
    pub dram_gbs: f64,
    /// Main-memory latency (ns).
    pub dram_latency_ns: f64,
}

impl MemoryHierarchy {
    /// V100-like: 128 KiB L1/SM aggregated, 6 MiB L2, 900 GB/s HBM2.
    pub fn v100_like() -> Self {
        MemoryHierarchy {
            levels: vec![
                CacheLevel { capacity: 10 << 20, bandwidth_gbs: 14_000.0, latency_ns: 28.0 },
                CacheLevel { capacity: 6 << 20, bandwidth_gbs: 3_000.0, latency_ns: 193.0 },
            ],
            dram_gbs: 900.0,
            dram_latency_ns: 400.0,
        }
    }

    /// Xeon-like: 32 KiB L1 + 256 KiB L2 per core (aggregated for 24
    /// cores), 30 MiB shared L3, dual-socket DDR4.
    pub fn xeon_like() -> Self {
        MemoryHierarchy {
            levels: vec![
                CacheLevel { capacity: (24 * 32) << 10, bandwidth_gbs: 4_000.0, latency_ns: 1.5 },
                CacheLevel { capacity: (24 * 256) << 10, bandwidth_gbs: 2_000.0, latency_ns: 4.0 },
                CacheLevel { capacity: 30 << 20, bandwidth_gbs: 700.0, latency_ns: 12.0 },
            ],
            dram_gbs: 153.6,
            dram_latency_ns: 90.0,
        }
    }

    /// Time (s) to stream a working set of `bytes`, `passes` times, with a
    /// simple inclusive-capacity model: data that fits in a level streams
    /// at that level's bandwidth on repeat passes; the first pass always
    /// comes from DRAM.
    pub fn stream_time(&self, bytes: f64, passes: u32) -> f64 {
        if bytes <= 0.0 || passes == 0 {
            return 0.0;
        }
        let first = bytes / (self.dram_gbs * 1e9) + self.dram_latency_ns * 1e-9;
        let repeat_bw = self
            .levels
            .iter()
            .find(|l| bytes <= l.capacity as f64)
            .map(|l| l.bandwidth_gbs)
            .unwrap_or(self.dram_gbs);
        let repeats = (passes - 1) as f64 * (bytes / (repeat_bw * 1e9));
        first + repeats
    }

    /// Staging overhead (s) for moving an `m×k` + `k×n` operand pair into
    /// an ME-private buffer and `m×n` results back (§V-B5): one extra pass
    /// over the operands at the innermost level's bandwidth.
    pub fn staging_time(&self, m: usize, n: usize, k: usize, elem_bytes: usize) -> f64 {
        let bytes = ((m * k + k * n + m * n) * elem_bytes) as f64;
        let bw = self.levels.first().map(|l| l.bandwidth_gbs).unwrap_or(self.dram_gbs);
        bytes / (bw * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sets_stream_from_cache() {
        let h = MemoryHierarchy::xeon_like();
        let small = h.stream_time((64 << 10) as f64, 10);
        let large = h.stream_time(256.0 * (1 << 20) as f64, 10);
        // 10 passes over 256 MiB stream from DRAM; 64 KiB from L1 after the
        // first touch: per-byte cost differs by orders of magnitude.
        let small_per_byte = small / (10.0 * (64.0 * 1024.0));
        let large_per_byte = large / (10.0 * 256.0 * (1 << 20) as f64);
        assert!(small_per_byte < large_per_byte / 5.0);
    }

    #[test]
    fn staging_scales_with_operands() {
        let h = MemoryHierarchy::v100_like();
        let s1 = h.staging_time(128, 128, 128, 2);
        let s2 = h.staging_time(256, 256, 256, 2);
        assert!(s2 > 3.9 * s1 && s2 < 4.1 * s1);
    }

    #[test]
    fn zero_work_is_free() {
        let h = MemoryHierarchy::v100_like();
        assert_eq!(h.stream_time(0.0, 5), 0.0);
        assert_eq!(h.stream_time(100.0, 0), 0.0);
        assert_eq!(h.staging_time(0, 0, 0, 8), 0.0);
    }

    #[test]
    fn staging_is_small_vs_dram_for_large_gemm() {
        // The staging pass runs at L1 bandwidth, so it is cheap relative to
        // streaming the data from DRAM — the reason MEs still win for
        // level-3 BLAS despite §V-B5's overhead.
        let h = MemoryHierarchy::v100_like();
        let n = 4096;
        let staging = h.staging_time(n, n, n, 2);
        let dram = h.stream_time((3 * n * n * 2) as f64, 1);
        assert!(staging < dram);
    }
}
