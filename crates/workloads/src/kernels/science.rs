//! Science/engineering mini-kernels — the "other" (non-ME-accelerable)
//! compute patterns that dominate Fig 3.

use super::KernelStats;

fn lcg(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
}

fn seeded(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e3779b97f4a7c15) | 1
}

/// 7-point stencil over an `n³` grid (one Jacobi sweep).
pub fn stencil7_kernel(n: usize) -> KernelStats {
    if n < 3 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let mut state = seeded(21);
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    let grid: Vec<f64> = (0..n * n * n).map(|_| lcg(&mut state)).collect();
    let mut out = vec![0.0f64; n * n * n];
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            for k in 1..n - 1 {
                out[idx(i, j, k)] = (grid[idx(i - 1, j, k)]
                    + grid[idx(i + 1, j, k)]
                    + grid[idx(i, j - 1, k)]
                    + grid[idx(i, j + 1, k)]
                    + grid[idx(i, j, k - 1)]
                    + grid[idx(i, j, k + 1)]
                    - 6.0 * grid[idx(i, j, k)])
                    * (1.0 / 6.0);
            }
        }
    }
    let interior = ((n - 2) as f64).powi(3);
    KernelStats {
        flops: 8.0 * interior,
        bytes: 8.0 * 2.0 * (n as f64).powi(3) * 8.0,
        checksum: out.iter().sum(),
    }
}

/// 27-point stencil over an `n³` grid.
pub fn stencil27_kernel(n: usize) -> KernelStats {
    if n < 3 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let mut state = seeded(22);
    let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
    let grid: Vec<f64> = (0..n * n * n).map(|_| lcg(&mut state)).collect();
    let mut acc = 0.0f64;
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            for k in 1..n - 1 {
                let mut s = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        for dk in 0..3 {
                            s += grid[idx(i + di - 1, j + dj - 1, k + dk - 1)];
                        }
                    }
                }
                acc += s / 27.0;
            }
        }
    }
    let interior = ((n - 2) as f64).powi(3);
    KernelStats { flops: 28.0 * interior, bytes: 27.0 * interior * 8.0, checksum: acc }
}

/// CSR sparse matrix-vector product: 5-point 2D Laplacian on an `n×n` grid.
pub fn spmv_kernel(n: usize) -> KernelStats {
    let (rows, cols, vals, x) = laplacian_csr(n);
    let mut y = vec![0.0f64; n * n];
    let nnz = vals.len();
    for i in 0..n * n {
        let mut acc = 0.0;
        for p in rows[i]..rows[i + 1] {
            acc += vals[p] * x[cols[p]];
        }
        y[i] = acc;
    }
    KernelStats {
        flops: 2.0 * nnz as f64,
        bytes: (nnz * (8 + 4) + n * n * 16) as f64,
        checksum: y.iter().sum(),
    }
}

fn laplacian_csr(n: usize) -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>) {
    let mut rows = Vec::with_capacity(n * n + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    rows.push(0);
    for i in 0..n {
        for j in 0..n {
            let id = i * n + j;
            cols.push(id);
            vals.push(4.0);
            if i > 0 {
                cols.push(id - n);
                vals.push(-1.0);
            }
            if i + 1 < n {
                cols.push(id + n);
                vals.push(-1.0);
            }
            if j > 0 {
                cols.push(id - 1);
                vals.push(-1.0);
            }
            if j + 1 < n {
                cols.push(id + 1);
                vals.push(-1.0);
            }
            rows.push(cols.len());
        }
    }
    let mut state = seeded(23);
    let x: Vec<f64> = (0..n * n).map(|_| lcg(&mut state)).collect();
    (rows, cols, vals, x)
}

/// A few conjugate-gradient iterations on the 2D Laplacian (`n×n` grid) —
/// the HPCG / miniFE compute pattern (SpMV + BLAS-1).
pub fn cg_kernel(n: usize) -> KernelStats {
    if n == 0 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let (rows, cols, vals, b) = laplacian_csr(n);
    let dim = n * n;
    let mut x = vec![0.0f64; dim];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rsold: f64 = r.iter().map(|v| v * v).sum();
    let iters = 8.min(dim);
    let mut flops = 0.0;
    for _ in 0..iters {
        // Ap = A * p
        let mut ap = vec![0.0f64; dim];
        for i in 0..dim {
            let mut acc = 0.0;
            for q in rows[i]..rows[i + 1] {
                acc += vals[q] * p[cols[q]];
            }
            ap[i] = acc;
        }
        let pap: f64 = p.iter().zip(&ap).map(|(a, c)| a * c).sum();
        if pap == 0.0 {
            break;
        }
        let alpha = rsold / pap;
        for i in 0..dim {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rsnew: f64 = r.iter().map(|v| v * v).sum();
        let beta = rsnew / rsold;
        for i in 0..dim {
            p[i] = r[i] + beta * p[i];
        }
        rsold = rsnew;
        flops += 2.0 * vals.len() as f64 + 10.0 * dim as f64;
    }
    KernelStats { flops, bytes: flops * 6.0, checksum: x.iter().sum() }
}

/// In-place radix-2 complex FFT of length `2^ceil(log2 n)`.
pub fn fft_kernel(n: usize) -> KernelStats {
    let len = n.max(2).next_power_of_two();
    let mut state = seeded(24);
    let mut re: Vec<f64> = (0..len).map(|_| lcg(&mut state)).collect();
    let mut im = vec![0.0f64; len];
    // bit reversal
    let mut j = 0usize;
    for i in 1..len {
        let mut bit = len >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut size = 2;
    while size <= len {
        let ang = -2.0 * std::f64::consts::PI / size as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < len {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..size / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + size / 2] * cr - im[i + k + size / 2] * ci,
                    re[i + k + size / 2] * ci + im[i + k + size / 2] * cr,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + size / 2] = ur - vr;
                im[i + k + size / 2] = ui - vi;
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
            i += size;
        }
        size <<= 1;
    }
    let lf = len as f64;
    KernelStats {
        flops: 5.0 * lf * lf.log2(),
        bytes: 2.0 * lf * lf.log2() * 8.0,
        checksum: re.iter().sum::<f64>() + im.iter().sum::<f64>(),
    }
}

/// Lennard-Jones force computation for `n` particles with a cutoff
/// (O(n²) reference loop, the CoMD/MODYLAS pattern).
pub fn md_kernel(n: usize) -> KernelStats {
    let mut state = seeded(25);
    let pos: Vec<[f64; 3]> = (0..n)
        .map(|_| [lcg(&mut state) * 10.0, lcg(&mut state) * 10.0, lcg(&mut state) * 10.0])
        .collect();
    let mut forces = vec![[0.0f64; 3]; n];
    let cutoff2 = 6.25;
    let mut pair_flops = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = pos[i][0] - pos[j][0];
            let dy = pos[i][1] - pos[j][1];
            let dz = pos[i][2] - pos[j][2];
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 < cutoff2 && r2 > 1e-12 {
                let inv2 = 1.0 / r2;
                let inv6 = inv2 * inv2 * inv2;
                let f = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                forces[i][0] += f * dx;
                forces[i][1] += f * dy;
                forces[i][2] += f * dz;
                forces[j][0] -= f * dx;
                forces[j][1] -= f * dy;
                forces[j][2] -= f * dz;
                pair_flops += 30;
            }
        }
    }
    let checksum = forces.iter().map(|f| f[0] + f[1] + f[2]).sum();
    KernelStats {
        flops: (n * (n.saturating_sub(1)) / 2 * 9) as f64 + pair_flops as f64,
        bytes: (n * n * 24) as f64,
        checksum,
    }
}

/// Direct N-body gravity step for `n` bodies.
pub fn nbody_kernel(n: usize) -> KernelStats {
    let mut state = seeded(26);
    let pos: Vec<[f64; 3]> =
        (0..n).map(|_| [lcg(&mut state), lcg(&mut state), lcg(&mut state)]).collect();
    let mut acc = vec![[0.0f64; 3]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = pos[j][0] - pos[i][0];
            let dy = pos[j][1] - pos[i][1];
            let dz = pos[j][2] - pos[i][2];
            let r2 = dx * dx + dy * dy + dz * dz + 1e-6;
            let inv = 1.0 / (r2 * r2.sqrt());
            acc[i][0] += dx * inv;
            acc[i][1] += dy * inv;
            acc[i][2] += dz * inv;
        }
    }
    KernelStats {
        flops: (n * n * 20) as f64,
        bytes: (n * n * 24) as f64,
        checksum: acc.iter().map(|a| a[0] + a[1] + a[2]).sum(),
    }
}

/// Streaming SU(3)-like complex 3x3 matrix products over `n` lattice links,
/// written as interleaved scalar complex arithmetic (the RIKEN QCD code
/// path, which the paper's instrumentation does NOT tag as GEMM).
pub fn su3_kernel(n: usize) -> KernelStats {
    let mut state = seeded(27);
    let mut u = [[(0.0f64, 0.0f64); 3]; 3];
    for row in &mut u {
        for v in row.iter_mut() {
            *v = (lcg(&mut state), lcg(&mut state));
        }
    }
    let mut acc = (0.0f64, 0.0f64);
    let mut x = u;
    for _ in 0..n {
        let mut y = [[(0.0f64, 0.0f64); 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                let mut s = (0.0, 0.0);
                for k in 0..3 {
                    let (ar, ai) = u[i][k];
                    let (br, bi) = x[k][j];
                    s.0 += ar * br - ai * bi;
                    s.1 += ar * bi + ai * br;
                }
                y[i][j] = s;
            }
        }
        // renormalize to keep bounded
        let norm: f64 =
            y.iter().flatten().map(|(r, i)| r * r + i * i).sum::<f64>().sqrt().max(1e-30);
        for row in &mut y {
            for v in row.iter_mut() {
                v.0 /= norm;
                v.1 /= norm;
            }
        }
        acc.0 += y[0][0].0;
        acc.1 += y[0][0].1;
        x = y;
    }
    KernelStats {
        flops: n as f64 * (3.0 * 3.0 * 3.0 * 8.0 + 40.0),
        bytes: n as f64 * 9.0 * 16.0 * 2.0,
        checksum: acc.0 + acc.1,
    }
}

/// Smith-Waterman local alignment of two length-`n` sequences.
pub fn smith_waterman_kernel(n: usize) -> KernelStats {
    if n == 0 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let mut state = seeded(28);
    let a: Vec<u8> = (0..n).map(|_| ((lcg(&mut state) + 0.5) * 4.0) as u8 % 4).collect();
    let b: Vec<u8> = (0..n).map(|_| ((lcg(&mut state) + 0.5) * 4.0) as u8 % 4).collect();
    let mut prev = vec![0i64; n + 1];
    let mut best = 0i64;
    for i in 1..=n {
        let mut cur = vec![0i64; n + 1];
        for j in 1..=n {
            let m = if a[i - 1] == b[j - 1] { 3 } else { -1 };
            let v = (prev[j - 1] + m).max(prev[j] - 2).max(cur[j - 1] - 2).max(0);
            cur[j] = v;
            if v > best {
                best = v;
            }
        }
        prev = cur;
    }
    KernelStats { flops: 0.0, bytes: (n * n * 8) as f64, checksum: best as f64 }
}

/// BFS over a deterministic synthetic graph with `n` vertices.
pub fn bfs_kernel(n: usize) -> KernelStats {
    if n == 0 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    // ring + skip edges
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, nbrs) in adj.iter_mut().enumerate() {
        nbrs.push((i + 1) % n);
        nbrs.push((i + 7) % n);
        nbrs.push((i * 13 + 5) % n);
    }
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[0] = 0;
    queue.push_back(0);
    let mut visited = 0u64;
    while let Some(u) = queue.pop_front() {
        visited += 1;
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    let sum_d: usize = dist.iter().filter(|&&d| d != usize::MAX).sum();
    KernelStats {
        flops: 0.0,
        bytes: (n * 3 * 8) as f64,
        checksum: (visited as f64) + sum_d as f64 * 1e-6,
    }
}

/// Monte-Carlo cross-section lookups (XSBench pattern): `n` binary searches
/// plus interpolation over a synthetic nuclide grid.
pub fn mc_lookup_kernel(n: usize) -> KernelStats {
    let grid_len = 1usize << 12;
    let grid: Vec<f64> = (0..grid_len).map(|i| i as f64 / grid_len as f64).collect();
    let xs: Vec<f64> = (0..grid_len).map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0).collect();
    let mut state = seeded(29);
    let mut acc = 0.0f64;
    for _ in 0..n {
        let e = lcg(&mut state) + 0.5; // [0,1)
        let e = e.clamp(0.0, 0.999_999);
        let idx = grid.partition_point(|&g| g <= e).saturating_sub(1);
        let idx = idx.min(grid_len - 2);
        let f = (e - grid[idx]) / (grid[idx + 1] - grid[idx]);
        acc += xs[idx] * (1.0 - f) + xs[idx + 1] * f;
    }
    KernelStats { flops: 5.0 * n as f64, bytes: (n as f64) * 12.0 * 8.0, checksum: acc }
}

/// AMR refinement flagging: mark cells of an `n×n` grid whose gradient
/// exceeds a threshold, then count refined patches (miniAMR pattern).
pub fn amr_kernel(n: usize) -> KernelStats {
    if n < 2 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let mut state = seeded(30);
    let grid: Vec<f64> = (0..n * n).map(|_| lcg(&mut state)).collect();
    let mut flagged = 0u64;
    for i in 0..n - 1 {
        for j in 0..n - 1 {
            let g = (grid[i * n + j + 1] - grid[i * n + j]).abs()
                + (grid[(i + 1) * n + j] - grid[i * n + j]).abs();
            if g > 0.6 {
                flagged += 1;
            }
        }
    }
    KernelStats {
        flops: 4.0 * ((n - 1) * (n - 1)) as f64,
        bytes: (n * n * 8) as f64,
        checksum: flagged as f64,
    }
}

/// Key sort of `n` integers (data-movement bound, the x264/xz stand-in for
/// media/compression codes' data shuffling).
pub fn sort_kernel(n: usize) -> KernelStats {
    let mut state = seeded(31);
    let mut keys: Vec<u64> = (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 16
        })
        .collect();
    keys.sort_unstable();
    let check = keys.iter().step_by((n / 17).max(1)).fold(0u64, |a, &k| a.wrapping_add(k));
    KernelStats {
        flops: 0.0,
        bytes: (n as f64) * 8.0 * ((n.max(2) as f64).log2()),
        checksum: (check % (1u64 << 52)) as f64,
    }
}

/// Branchy integer state machine (gcc/perlbench/omnetpp stand-in).
pub fn integer_logic_kernel(n: usize) -> KernelStats {
    let mut x = 0x12345678u64;
    let mut acc = 0u64;
    for i in 0..n as u64 {
        x = if x & 1 == 1 { x.wrapping_mul(3).wrapping_add(1) } else { x >> 1 };
        if x == 0 {
            x = i | 1;
        }
        match x % 5 {
            0 => acc = acc.wrapping_add(x),
            1 => acc ^= x,
            2 => acc = acc.rotate_left(7),
            3 => acc = acc.wrapping_sub(x >> 3),
            _ => acc = acc.wrapping_mul(2654435761),
        }
    }
    KernelStats { flops: 0.0, bytes: n as f64 * 16.0, checksum: (acc % (1u64 << 52)) as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_conserves_nothing_but_runs() {
        let s = stencil7_kernel(12);
        assert!(s.flops > 0.0 && s.checksum.is_finite());
        let s27 = stencil27_kernel(8);
        assert!(s27.flops > 0.0);
    }

    #[test]
    fn spmv_laplacian_row_sums() {
        // Laplacian rows sum to >= 0; applying to the constant vector 1
        // gives boundary residuals only. Spot-check via direct computation.
        let (rows, cols, vals, _) = laplacian_csr(4);
        let ones = [1.0; 16];
        let mut y = [0.0; 16];
        for i in 0..16 {
            for p in rows[i]..rows[i + 1] {
                y[i] += vals[p] * ones[cols[p]];
            }
        }
        // interior rows (full 5-point stencil) give 0
        assert_eq!(y[5], 0.0);
        assert_eq!(y[10], 0.0);
        // corner rows give 2
        assert_eq!(y[0], 2.0);
    }

    #[test]
    fn cg_reduces_residual() {
        // After a few CG iterations on the SPD Laplacian the solution
        // checksum is finite and nonzero.
        let s = cg_kernel(8);
        assert!(s.checksum.is_finite() && s.checksum != 0.0);
    }

    #[test]
    fn fft_parseval_sanity() {
        // Energy is preserved up to the unnormalized transform's factor len.
        let s = fft_kernel(64);
        assert!(s.checksum.is_finite());
        assert!(s.flops > 0.0);
    }

    #[test]
    fn md_forces_antisymmetric() {
        // Newton's third law: total force sums to ~0.
        let s = md_kernel(40);
        assert!(s.checksum.abs() < 1e-9, "net force {}", s.checksum);
    }

    #[test]
    fn bfs_visits_connected_graph() {
        let s = bfs_kernel(100);
        assert!(s.checksum >= 100.0, "ring graph must be fully reachable");
    }

    #[test]
    fn smith_waterman_score_nonnegative() {
        let s = smith_waterman_kernel(50);
        assert!(s.checksum >= 0.0);
    }

    #[test]
    fn sort_is_deterministic() {
        assert_eq!(sort_kernel(1000).checksum, sort_kernel(1000).checksum);
    }
}
