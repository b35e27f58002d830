//! Cluster-scale communication model.
//!
//! The paper's Fig 4 caveat and §V discussion note that at machine scale,
//! communication dilutes whatever a matrix engine accelerates. This module
//! provides a latency-bandwidth (α-β) collective model and a strong-scaling
//! analysis of a GEMM-bearing application: as node counts grow, the
//! GEMM fraction (and therefore the ME's leverage) shrinks.

/// An interconnect in the α-β model.
#[derive(Debug, Clone, Copy)]
pub struct Interconnect {
    /// Per-message latency α, seconds.
    pub alpha_s: f64,
    /// Inverse bandwidth β, seconds per byte.
    pub beta_s_per_byte: f64,
}

impl Interconnect {
    /// Tofu/InfiniBand-class fabric: ~1.5 µs latency, ~10 GB/s per link.
    pub fn hpc_fabric() -> Self {
        Interconnect { alpha_s: 1.5e-6, beta_s_per_byte: 1.0 / 10.0e9 }
    }

    /// Point-to-point message time.
    pub fn p2p(&self, bytes: f64) -> f64 {
        self.alpha_s + self.beta_s_per_byte * bytes
    }

    /// Recursive-doubling allreduce over `p` ranks: `2·log2(p)` rounds of
    /// (α + β·bytes) (the classic Rabenseifner bound, simplified).
    pub fn allreduce(&self, bytes: f64, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let rounds = 2.0 * (ranks as f64).log2().ceil();
        rounds * (self.alpha_s + self.beta_s_per_byte * bytes)
    }

    /// Broadcast over `p` ranks (binomial tree).
    pub fn broadcast(&self, bytes: f64, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        (ranks as f64).log2().ceil() * (self.alpha_s + self.beta_s_per_byte * bytes)
    }
}

/// A distributed application phase profile at one scale.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Node count.
    pub nodes: usize,
    /// Compute time per iteration, s.
    pub compute_s: f64,
    /// GEMM share of the compute time.
    pub gemm_share_of_compute: f64,
    /// Communication time per iteration, s.
    pub comm_s: f64,
}

impl ScalePoint {
    /// GEMM share of total (compute + comm) time — what a profiler at this
    /// scale would report, and what Fig 4 would have to use.
    pub fn gemm_share_of_total(&self) -> f64 {
        self.compute_s * self.gemm_share_of_compute / (self.compute_s + self.comm_s)
    }

    /// Parallel efficiency vs a 1-node baseline compute time.
    pub fn efficiency(&self, single_node_compute_s: f64) -> f64 {
        single_node_compute_s / (self.nodes as f64 * (self.compute_s + self.comm_s))
    }
}

/// Strong-scale an HPL-like iteration: total compute `work_s` (of which
/// `gemm_share` is GEMM) divides across nodes; each iteration pays one
/// allreduce of `msg_bytes` and one broadcast of `panel_bytes`.
pub fn strong_scale(
    work_s: f64,
    gemm_share: f64,
    msg_bytes: f64,
    panel_bytes: f64,
    net: Interconnect,
    node_counts: &[usize],
) -> Vec<ScalePoint> {
    node_counts
        .iter()
        .map(|&p| {
            let compute = work_s / p.max(1) as f64;
            let comm = net.allreduce(msg_bytes, p) + net.broadcast(panel_bytes, p);
            ScalePoint {
                nodes: p,
                compute_s: compute,
                gemm_share_of_compute: gemm_share,
                comm_s: comm,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_scale_logarithmically() {
        let net = Interconnect::hpc_fabric();
        let t2 = net.allreduce(1e6, 2);
        let t1024 = net.allreduce(1e6, 1024);
        // log2(1024)/log2(2) = 10x rounds.
        assert!((t1024 / t2 - 10.0).abs() < 1e-9);
        assert_eq!(net.allreduce(1e6, 1), 0.0);
    }

    #[test]
    fn gemm_share_shrinks_at_scale() {
        // The §V insight quantified: at 1 node the profiler sees 76.8% GEMM
        // (HPL); at thousands of nodes, communication has diluted it.
        let pts = strong_scale(
            100.0,
            0.7681,
            8.0 * 1e6,
            8.0 * 1e7,
            Interconnect::hpc_fabric(),
            &[1, 16, 256, 4096, 65536],
        );
        let shares: Vec<f64> = pts.iter().map(|p| p.gemm_share_of_total()).collect();
        for w in shares.windows(2) {
            assert!(w[1] < w[0], "GEMM share must shrink with scale: {shares:?}");
        }
        assert!(shares[0] > 0.76);
        assert!(shares[4] < 0.65, "at 65536 nodes: {}", shares[4]);
    }

    #[test]
    fn efficiency_decays() {
        let pts = strong_scale(100.0, 0.5, 1e6, 1e7, Interconnect::hpc_fabric(), &[1, 64, 4096]);
        let e: Vec<f64> = pts.iter().map(|p| p.efficiency(100.0)).collect();
        assert!((e[0] - 1.0).abs() < 1e-9);
        assert!(e[1] < 1.0 && e[2] < e[1]);
    }

    #[test]
    fn p2p_latency_floor() {
        let net = Interconnect::hpc_fabric();
        assert!(net.p2p(0.0) == net.alpha_s);
        assert!(net.p2p(1e9) > 0.1);
    }

    #[test]
    fn me_leverage_at_scale() {
        // Compose with the Amdahl model: a 4x ME applied to the *measured*
        // GEMM share at 4096 nodes buys less than at 1 node.
        let pts = strong_scale(100.0, 0.7681, 8e6, 8e7, Interconnect::hpc_fabric(), &[1, 4096]);
        let saving = |share: f64| share * (1.0 - 1.0 / 4.0);
        let s1 = saving(pts[0].gemm_share_of_total());
        let s4096 = saving(pts[1].gemm_share_of_total());
        assert!(s4096 < s1);
    }
}
