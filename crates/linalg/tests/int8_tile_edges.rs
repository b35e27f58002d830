//! Tile-edge differential of the int8 engine call.
//!
//! `gemm_i8_i32` computes 8 × 32 register tiles over groups of 4 k values,
//! so its edges are m and n one below, at and one above a multiple of 8 or
//! 32, and kc below, at and one above a multiple of 4. The grid here
//! crosses m, n ∈ {0, 1, 7, 8, 9, 31, 32, 33, 129} with
//! kc ∈ {0, 1, 3, 4, 5, 255, 256}, packs both operands once the way the
//! Ozaki driver does, and compares every variant the host runs against
//! `dot_i8_scalar`, exact i32 for exact i32, on operands at the ±64 edge
//! of the slice domain: all +64, all −64, alternating ±64 and seeded
//! values in [−64, 64] — and, since no kernel saturates, on seeded values
//! over the whole i8 range.

use me_linalg::{available_variants, dot_i8_scalar, gemm_i8_i32, PanelLayout};
use me_numerics::Rng64;

const DIMS: [usize; 9] = [0, 1, 7, 8, 9, 31, 32, 33, 129];
const KCS: [usize; 7] = [0, 1, 3, 4, 5, 255, 256];
const LINES: usize = 129;

/// `LINES` lines of length `kc` (line-major) in one operand pattern.
fn lines(pattern: usize, kc: usize, rng: &mut Rng64) -> Vec<i8> {
    (0..LINES * kc)
        .map(|i| match pattern {
            0 => 64,
            1 => -64,
            2 => {
                if (i / kc + i % kc).is_multiple_of(2) {
                    64
                } else {
                    -64
                }
            }
            3 => (rng.range_usize(0, 129) as i32 - 64) as i8,
            _ => (rng.range_usize(0, 256) as i32 - 128) as i8,
        })
        .collect()
}

/// The first `count` lines packed into `layout` (one chunk of `kc`).
fn pack(layout: PanelLayout, lines: &[i8], count: usize, kc: usize) -> Vec<i8> {
    let kb = kc.max(1);
    let mut panel = layout.blank(count, kc, kb);
    for li in 0..count {
        layout.put_line(&mut panel, li, &lines[li * kc..(li + 1) * kc], kb);
    }
    panel
}

#[test]
fn every_variant_matches_scalar_dots_across_tile_edges() {
    let mut rng = Rng64::seed_from_u64(0x1e8);
    let variants = available_variants();
    for kc in KCS {
        for pattern in 0..5 {
            let a = lines(pattern, kc, &mut rng);
            let bt = lines(pattern, kc, &mut rng);
            let row = |x: &[i8], i: usize| x[i * kc..(i + 1) * kc].to_vec();
            let dots: Vec<i32> = (0..LINES * LINES)
                .map(|x| dot_i8_scalar(&row(&a, x / LINES), &row(&bt, x % LINES)))
                .collect();
            for m in DIMS {
                let pa = pack(PanelLayout::I8_A, &a, m, kc);
                for n in DIMS {
                    let pb = pack(PanelLayout::I8_B, &bt, n, kc);
                    let want: Vec<i32> = (0..m * n).map(|x| dots[x / n * LINES + x % n]).collect();
                    for &v in &variants {
                        let ca = PanelLayout::I8_A.chunk(&pa, 0, 0, kc, kc.max(1));
                        let cb = PanelLayout::I8_B.chunk(&pb, 0, 0, kc, kc.max(1));
                        let mut out = vec![i32::MIN; m * n];
                        gemm_i8_i32(v, m, n, kc, ca, cb, &mut out);
                        if let Some(x) = (0..m * n).find(|&x| out[x] != want[x]) {
                            panic!(
                                "{v}: m {m} n {n} kc {kc} pattern {pattern}: ({}, {}) {} != {}",
                                x / n,
                                x % n,
                                out[x],
                                want[x]
                            );
                        }
                    }
                }
            }
        }
    }
}
