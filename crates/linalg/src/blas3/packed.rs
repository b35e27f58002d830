//! Prepacked B operands: pack once, multiply many times.
//!
//! The serving workload (me-serve, Table V replay) multiplies thousands
//! of skinny `A` operands against a small set of long-lived weight
//! matrices `B`. The packed GEMM core used to rebuild the NR-column/
//! KC-block panel layout of `B` from scratch on every call — for
//! `m ∈ {1, 2}` requests the pack dominates the FLOPs. [`PackedB`]
//! splits the pack out: [`pack_b_matrix`] runs the *same* `pack_b`
//! routine the fresh path uses over the whole matrix once, and the
//! compute step consumes the stored panels byte-for-byte as if it had
//! just packed them — so prepacked and fresh-pack GEMMs are **bitwise
//! identical** (same panels, same kc grid, same FMA order; DESIGN.md
//! §12 states the layout contract).
//!
//! A [`PackedB`] is immutable after construction and `Send + Sync`, so
//! one `Arc<PackedB>` can feed every shard/worker concurrently — the
//! substrate of me-serve's weight cache.

use super::blocking::Blocking;
use super::pack_b;
use super::ukernel::{selected_kernel, NR};
use crate::mat::{Mat, Scalar};

/// A B operand packed into the micro-kernel panel layout.
///
/// # Layout contract
///
/// For `B` of shape `k × n` packed under blocking `(kc, nc)` (with `nc`
/// a multiple of NR):
///
/// - columns are split into NC blocks `bj` covering `[bj·nc, bj·nc+ncb)`
///   with `ncb = min(nc, n − bj·nc)`;
/// - rows are split into KC chunks `bk` covering `[bk·kc, bk·kc+kcb)`
///   with `kcb = min(kc, k − bk·kc)`;
/// - panel `(bj, bk)` is a contiguous run of
///   `ceil(ncb / NR) · NR · kcb` elements laid out tile-major: tile
///   `jt` stores, for each k step `p` (ascending), the NR values
///   `B[bk·kc + p][bj·nc + jt·NR + j]`, zero-padded past `n`;
/// - panels are concatenated `bk`-major within `bj`
///   (`panel_index = bj · nblocks_k + bk`).
///
/// This is exactly the buffer the fresh-pack path builds per `(bj, bk)`
/// iteration, so the compute loop cannot distinguish the two sources.
#[derive(Debug, Clone)]
pub struct PackedB<T: Scalar> {
    k: usize,
    n: usize,
    blocking: Blocking,
    nblocks_k: usize,
    /// Start offset of each panel in `data`, plus a final end sentinel.
    offsets: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> PackedB<T> {
    /// Inner dimension of the packed operand (rows of B).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns of the packed operand (columns of B).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The blocking this operand was packed under. The compute step
    /// replays this `kc`/`nc` grid; a consumer that must be bitwise
    /// comparable to a fresh-pack GEMM has to run the same `kc`.
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// Number of KC chunks along k.
    pub fn nblocks_k(&self) -> usize {
        self.nblocks_k
    }

    /// Packed payload size in bytes — what a cache hit saves repacking
    /// (and what a bounded cache budgets against).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Borrow panel `(bj, bk)` (NC block `bj`, KC chunk `bk`).
    ///
    /// # Panics
    /// If the indices are out of range.
    #[inline]
    pub fn panel(&self, bj: usize, bk: usize) -> &[T] {
        debug_assert!(bk < self.nblocks_k, "KC chunk index out of range");
        let idx = bj * self.nblocks_k + bk;
        &self.data[self.offsets[idx]..self.offsets[idx + 1]]
    }
}

/// Pack a whole `B` matrix into the panel layout under `blocking`
/// (normalized first). Runs the same `pack_b` routine the fresh-pack
/// GEMM path uses per `(bj, bk)` iteration, so the stored panels are
/// byte-identical to what that path builds in scratch. The pack runs on
/// the selected kernel variant, which changes its speed, not its bytes.
///
/// Degenerate shapes (`k == 0` or `n == 0`) pack to an empty payload;
/// the compute step then reduces to `C ← β·C` exactly like the fresh
/// path.
pub fn pack_b_matrix<T: Scalar>(b: &Mat<T>, blocking: Blocking) -> PackedB<T> {
    let blocking = blocking.normalized();
    let (k, n) = b.shape();
    let (kc, nc) = (blocking.kc, blocking.nc);
    let nblocks_k = if k == 0 { 0 } else { k.div_ceil(kc) };
    let nblocks_j = if n == 0 { 0 } else { n.div_ceil(nc) };
    let mut offsets = Vec::with_capacity(nblocks_j * nblocks_k + 1);
    let mut total = 0usize;
    offsets.push(0);
    for bj in 0..nblocks_j {
        let jb = bj * nc;
        let ntiles = nc.min(n - jb).div_ceil(NR);
        for bk in 0..nblocks_k {
            let kb = bk * kc;
            total += ntiles * NR * kc.min(k - kb);
            offsets.push(total);
        }
    }
    let mut data = vec![T::ZERO; total];
    let variant = selected_kernel();
    for bj in 0..nblocks_j {
        let jb = bj * nc;
        let ncb = nc.min(n - jb);
        for bk in 0..nblocks_k {
            let kb = bk * kc;
            let kcb = kc.min(k - kb);
            let idx = bj * nblocks_k + bk;
            pack_b(variant, b, kb, kcb, jb, ncb, &mut data[offsets[idx]..offsets[idx + 1]]);
        }
    }
    PackedB { k, n, blocking, nblocks_k, offsets, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::MR;

    fn mk(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    #[test]
    fn panel_bytes_match_fresh_pack() {
        // Every panel of a PackedB must equal what pack_b writes into a
        // fresh buffer for the same (kb, jb) window.
        let blocking = Blocking { mc: 8, kc: 5, nc: 16 }.normalized();
        let (k, n) = (12, 37);
        let b = mk(k, n, 7);
        let packed = pack_b_matrix(&b, blocking);
        assert_eq!(packed.nblocks_k(), k.div_ceil(blocking.kc));
        for bj in 0..n.div_ceil(blocking.nc) {
            let jb = bj * blocking.nc;
            let ncb = blocking.nc.min(n - jb);
            for bk in 0..packed.nblocks_k() {
                let kb = bk * blocking.kc;
                let kcb = blocking.kc.min(k - kb);
                let mut fresh = vec![0.0f64; ncb.div_ceil(NR) * NR * kcb];
                pack_b(selected_kernel(), &b, kb, kcb, jb, ncb, &mut fresh);
                assert_eq!(
                    packed.panel(bj, bk),
                    &fresh[..],
                    "panel ({bj},{bk}) diverges from the fresh pack"
                );
            }
        }
    }

    /// `B[r][c] = r·n + c + 1`: every element distinct and nonzero, and
    /// exact in f32 for every shape below (< 2^24).
    fn index_mat<T: Scalar>(k: usize, n: usize) -> Mat<T> {
        Mat::from_fn(k, n, |r, c| T::from_f64((r * n + c + 1) as f64))
    }

    /// Check `panel` word by word against the §12 definition of the
    /// `kcb × ncb` window at (`kb`, `jb`), computed from the index
    /// formula: `panel[jt·NR·kcb + p·NR + j] = B[kb + p][jb + jt·NR + j]`,
    /// or +0 past the matrix's right edge.
    fn check_panel<T: Scalar>(
        b: &Mat<T>,
        (kb, kcb, jb, ncb): (usize, usize, usize, usize),
        panel: &[T],
        what: std::fmt::Arguments<'_>,
    ) {
        let n = b.cols();
        assert_eq!(panel.len(), ncb.div_ceil(NR) * NR * kcb, "{what}: panel length");
        for (i, &got) in panel.iter().enumerate() {
            let (jt, p, j) = (i / (NR * kcb), i % (NR * kcb) / NR, i % NR);
            let col = jb + jt * NR + j;
            let got = got.to_f64().to_bits();
            if col < n {
                let want = ((kb + p) * n + col + 1) as f64;
                assert_eq!(got, want.to_bits(), "{what}: data word {i} (jt {jt}, p {p}, j {j})");
            } else {
                assert_eq!(got, 0f64.to_bits(), "{what}: padding word {i} (jt {jt}, p {p}, j {j})");
            }
        }
    }

    /// The layout oracle: every word `pack_b` writes on every variant the
    /// host runs, and every word of `pack_b_matrix` on the selected one,
    /// against [`check_panel`] over shapes straddling the 16-row pack
    /// block, the NR tile and the 8 × 24 register block.
    fn layout_oracle<T: Scalar>() {
        let mut scratch = Vec::new();
        for k in [1usize, 15, 16, 17, 255, 256, 257, 600] {
            for n in [1usize, 7, 8, 9, 23, 24, 25, 832, 1030] {
                let b = index_mat::<T>(k, n);
                for kc in [1usize, 5, 16, 17, 256] {
                    for nc in [8usize, 24, 4096] {
                        oracle_case(&b, Blocking { mc: MR, kc, nc }, &mut scratch);
                    }
                }
            }
        }
    }

    /// One oracle shape: `b` packed under `blocking`, whole and panel by
    /// panel. `pack_b`'s buffer starts as NaN (never a packed value), so
    /// a word it leaves unwritten shows. One buffer serves every call,
    /// refilled before each, as the GEMM scratch is reused.
    fn oracle_case<T: Scalar>(b: &Mat<T>, blocking: Blocking, scratch: &mut Vec<T>) {
        let ((k, n), Blocking { kc, nc, .. }) = (b.shape(), blocking.normalized());
        let packed = pack_b_matrix(b, blocking);
        let mut words = 0;
        for (bj, jb) in (0..n).step_by(nc).enumerate() {
            let ncb = nc.min(n - jb);
            for (bk, kb) in (0..k).step_by(kc).enumerate() {
                let kcb = kc.min(k - kb);
                let win = (kb, kcb, jb, ncb);
                let at = (k, n, kc, nc, bj, bk);
                let panel = packed.panel(bj, bk);
                check_panel(b, win, panel, format_args!("pack_b_matrix (k n kc nc bj bk) {at:?}"));
                let len = panel.len();
                words += len;
                for v in crate::blas3::available_variants() {
                    scratch.clear();
                    scratch.resize(len, T::from_f64(f64::NAN));
                    pack_b(v, b, kb, kcb, jb, ncb, scratch);
                    check_panel(b, win, scratch, format_args!("pack_b {v} {at:?}"));
                }
            }
        }
        assert_eq!(words * std::mem::size_of::<T>(), packed.bytes(), "{k}x{n} {blocking:?}");
    }

    #[test]
    fn pack_b_layout_oracle_f64() {
        layout_oracle::<f64>();
    }

    #[test]
    fn pack_b_layout_oracle_f32() {
        layout_oracle::<f32>();
    }

    #[test]
    fn bytes_accounts_for_padding() {
        // n = 9 with NR = 8 packs two tiles per full-width block.
        let b = mk(4, 9, 3);
        let packed = pack_b_matrix(&b, Blocking { mc: MR, kc: 256, nc: 4096 });
        assert_eq!(packed.bytes(), 2 * NR * 4 * std::mem::size_of::<f64>());
        assert_eq!((packed.k(), packed.n()), (4, 9));
    }

    #[test]
    fn degenerate_shapes_pack_empty() {
        for (k, n) in [(0usize, 5usize), (5, 0), (0, 0)] {
            let packed = pack_b_matrix(&mk(k, n, 1), Blocking::DEFAULT);
            assert_eq!(packed.bytes(), 0, "k={k} n={n}");
            assert_eq!(packed.nblocks_k(), if k == 0 { 0 } else { 1 });
        }
    }
}
