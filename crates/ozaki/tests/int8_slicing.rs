//! Property tests for the error-free integer slicing behind the INT8
//! Ozaki path (satellite of the INT8-emulation tentpole).
//!
//! The slicing's three load-bearing claims, enforced over seeded inputs
//! spanning subnormals, signed zeros, and mixed-exponent lines:
//!
//! 1. **Error-free**: a complete split reconstructs the input exactly —
//!    bitwise for every nonzero entry (zeros collapse to +0.0 because
//!    the reconstruction sums `-0.0 + 0.0`, which IEEE defines as +0.0).
//! 2. **i8-safe**: every slice integer `v · 2^(β − e)` is an integer of
//!    magnitude ≤ 2^β; at the Int8Engine's β ≤ 6 cap it fits an `i8`
//!    even on the round-to-nearest edge that produces exactly ±2^β —
//!    which is why `beta` caps at 6 and not 7.
//! 3. **Correctly-rounded dot**: the Exact-target INT8 path matches a
//!    correctly rounded reference dot (f64 expansion arithmetic via
//!    two_prod/two_sum, summed without error and rounded once).

use me_linalg::Mat;
use me_numerics::eft::{two_prod, two_sum};
use me_numerics::Rng64;
use me_ozaki::int8::Int8Engine;
use me_ozaki::{ozaki_gemm, split_cols, split_rows, SliceEngine, TargetAccuracy};

/// Draw one entry: moderate values salted with the special values the
/// slicing must survive — exact ±0, subnormals, and huge/tiny exponents
/// mixed into the same lines.
fn special_f64(rng: &mut Rng64) -> f64 {
    match rng.range_usize(0, 12) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(rng.next_u64() & 0x000f_ffff_ffff_ffff),
        3 => -f64::from_bits(rng.next_u64() & 0x000f_ffff_ffff_ffff),
        4 => rng.range_f64(-1.0, 1.0) * 2f64.powi(700),
        5 => rng.range_f64(-1.0, 1.0) * 2f64.powi(-700),
        6 => rng.range_f64(-1.0, 1.0) * 2f64.powi(-1000),
        _ => rng.range_f64(-1.0, 1.0),
    }
}

fn special_mat(rng: &mut Rng64, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| special_f64(rng))
}

/// Exact scale by 2^se, two-step when the factor itself is out of range.
fn scale_pow2(v: f64, se: i32) -> f64 {
    if se > 1023 {
        (v * 2f64.powi(1023)) * 2f64.powi(se - 1023)
    } else if se < -1023 {
        (v * 2f64.powi(-1023)) * 2f64.powi(se + 1023)
    } else {
        v * 2f64.powi(se)
    }
}

/// Claim 1: complete splits reconstruct the input exactly, in both line
/// orientations, across magnitude-torture inputs.
#[test]
fn complete_split_reconstructs_bitwise() {
    for (seed, beta) in [(1u64, 6u32), (2, 3), (3, 6), (4, 11), (5, 1)] {
        let mut rng = Rng64::seed_from_u64(seed);
        let a = special_mat(&mut rng, 17, 13);
        for split in [split_rows(&a, beta, 4096), split_cols(&a, beta, 4096)] {
            assert!(split.complete, "seed {seed} beta {beta}: split did not terminate");
            let r = split.reconstruct();
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    let (x, y) = (a[(i, j)], r[(i, j)]);
                    if x == 0.0 {
                        assert!(y == 0.0, "seed {seed} beta {beta} ({i},{j}): zero became {y:e}");
                    } else {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "seed {seed} beta {beta} ({i},{j}): {x:e} reconstructed as {y:e}"
                        );
                    }
                }
            }
        }
    }
}

/// Claim 2: every slice value is an integer multiple of its grid with
/// magnitude ≤ 2^β — including on subnormal lines, where the grid clamps
/// at 2^-1074.
#[test]
fn slice_integers_bounded_by_two_pow_beta() {
    for (seed, beta) in [(11u64, 6u32), (12, 5), (13, 6), (14, 2)] {
        let mut rng = Rng64::seed_from_u64(seed);
        let a = special_mat(&mut rng, 9, 21);
        let split = split_rows(&a, beta, 4096);
        for (s, exps) in split.slices.iter().zip(&split.scale_exp) {
            for li in 0..s.rows() {
                let se = beta as i32 - exps[li];
                for p in 0..s.cols() {
                    let v = s[(li, p)];
                    if v == 0.0 {
                        continue;
                    }
                    let int = scale_pow2(v, se.min(1080));
                    assert!(
                        int.fract() == 0.0 && int.abs() <= (1u64 << beta) as f64,
                        "seed {seed} beta {beta} line {li}: slice int {int} (e={})",
                        exps[li]
                    );
                }
            }
        }
    }
}

/// Claim 2's edge: round-to-nearest extraction of `1 − 2^-53` (the value
/// closest to the binade top) emits the slice integer exactly ±2^β. At
/// β = 6 that is ±64 — inside i8 — and the full INT8 GEMM runs through
/// it; β = 7 would need ±128, which is why `beta` caps at 6.
#[test]
fn round_to_nearest_edge_hits_exactly_two_pow_beta() {
    let top = 1.0 - 2f64.powi(-53);
    let a = Mat::from_fn(1, 2, |_, j| if j == 0 { top } else { -top });
    let split = split_rows(&a, 6, 64);
    let e = split.scale_exp[0][0];
    let i0 = a[(0, 0)].signum() * split.slices[0][(0, 0)] * 2f64.powi(6 - e);
    assert_eq!(i0.abs(), 64.0, "edge value must round to exactly 2^beta");

    // The full INT8 path (which packs these integers into i8) survives it.
    let b = Mat::from_fn(2, 1, |_, _| top);
    let engine = Int8Engine::default();
    let r = ozaki_gemm(&a, &b, &engine);
    assert_eq!(r.beta, 6);
    let want = top * top - top * top; // top·top + (−top)·top = 0 exactly
    assert_eq!(r.c[(0, 0)], want);
}

/// `beta` never exceeds the i8 cap for any (acc_bits, k_block, k), and
/// its chunk sums always fit the real i32 accumulator, whatever `acc_bits`
/// claims: the properties behind claim 2's "fits i8" guarantee and the
/// engine's exactness.
#[test]
fn slice_bits_capped_at_six_everywhere() {
    for acc_bits in [2u32, 8, 16, 24, 31, 64] {
        for k_block in [1usize, 2, 17, 256, 4096, 1 << 20] {
            for k in [1usize, 7, 256, 100_000, 1 << 20] {
                let e = Int8Engine { acc_bits, k_block, ..Int8Engine::default() };
                let beta = e.beta(k);
                assert!((1..=6).contains(&beta), "acc={acc_bits} kb={k_block} k={k}: beta {beta}");
                assert!(
                    k_block.min(k) << (2 * beta) < 1 << 31,
                    "acc={acc_bits} kb={k_block} k={k}: beta {beta} overflows i32"
                );
            }
        }
    }
}

/// An accumulator configured wider than i32 must not widen the slices: a
/// 2^20-long all-ones dot in one engine call sums 2^20 · 2^(2β), which at
/// β = 6 wraps the i32 accumulator to 0.
#[test]
fn wide_acc_bits_dot_stays_exact_in_i32() {
    let k = 1usize << 20;
    let engine = Int8Engine { acc_bits: 40, k_block: k, ..Int8Engine::default() };
    let r = ozaki_gemm(&Mat::from_fn(1, k, |_, _| 1.0), &Mat::from_fn(k, 1, |_, _| 1.0), &engine);
    assert_eq!(r.c[(0, 0)], k as f64, "beta {}", r.beta);
}

/// Sum a list of f64 exactly as a nonoverlapping expansion
/// (Shewchuk-style grow-expansion via two_sum), returning the correctly
/// rounded f64 total: the sum of the expansion components in increasing
/// magnitude order, which rounds once because the components do not
/// overlap.
fn exact_sum(terms: &[f64]) -> f64 {
    let mut exp: Vec<f64> = Vec::new();
    for &t in terms {
        let mut carry = t;
        let mut next = Vec::with_capacity(exp.len() + 1);
        for &c in &exp {
            let (hi, lo) = two_sum(carry, c);
            if lo != 0.0 {
                next.push(lo);
            }
            carry = hi;
        }
        if carry != 0.0 {
            next.push(carry);
        }
        exp = next;
    }
    exp.iter().sum()
}

/// Correctly rounded dot product via exact products + exact summation.
fn reference_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut terms = Vec::with_capacity(2 * a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (hi, lo) = two_prod(x, y);
        terms.push(hi);
        if lo != 0.0 {
            terms.push(lo);
        }
    }
    exact_sum(&terms)
}

/// Claim 3: the Exact-target INT8 path reproduces the correctly rounded
/// dot product bitwise — slicing, i8 engine calls, and double-double
/// recombination introduce no error at all.
#[test]
fn exact_target_int8_dot_is_correctly_rounded() {
    let engine = Int8Engine { target: TargetAccuracy::Exact, ..Int8Engine::default() };
    for seed in [21u64, 22, 23, 24] {
        let mut rng = Rng64::seed_from_u64(seed);
        let k = 40;
        // Mixed exponents but products kept in range: exponent scale
        // ±2^±40 so no product over/underflows.
        let gen = |rng: &mut Rng64| {
            let e = rng.range_usize(0, 80) as i32 - 40;
            rng.range_f64(-1.0, 1.0) * 2f64.powi(e)
        };
        let av: Vec<f64> = (0..k).map(|_| gen(&mut rng)).collect();
        let bv: Vec<f64> = (0..k).map(|_| gen(&mut rng)).collect();
        let a = Mat::from_fn(1, k, |_, j| av[j]);
        let b = Mat::from_fn(k, 1, |i, _| bv[i]);
        let r = ozaki_gemm(&a, &b, &engine);
        assert!(r.split_exact, "seed {seed}: Exact target must exhaust the residual");
        let want = reference_dot(&av, &bv);
        assert!(
            r.c[(0, 0)].to_bits() == want.to_bits(),
            "seed {seed}: int8 dot {:e} vs correctly rounded {want:e}",
            r.c[(0, 0)]
        );
    }
}
