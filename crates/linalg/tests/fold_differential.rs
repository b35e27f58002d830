//! Differential of the double-double tile fold.
//!
//! `fold_tile` adds each chunk sum `s · 2^(e_a[i] + e_b[j] − 2β)` into a
//! struct-of-arrays `(hi, lo)` pair on the kernel variant it is given:
//! 8-lane AVX-512 and 4-lane AVX2 vectors with a scalar tail, or one
//! element at a time. The reference here is the scalar
//! `Accumulator::add` on the same term, zero sums skipped, and every
//! variant the host runs must match it bit for bit on both `hi` and `lo`:
//!
//! - i32 sums with `i32::MIN`, `i32::MAX`, 0 and ±1 among seeded values,
//!   f32 sums with ±0 and 1 among seeded values, and f64 sums;
//! - n ∈ {1, 3, 4, 7, 8, 9, 33, 128} (below, at and above the 4- and
//!   8-lane widths) and rows ∈ {0, 1, 5};
//! - exponent sums reaching exactly −1022 and +1023 (the in-register
//!   scale's edges), one past either, and a normal tile with one sum out
//!   of range — the last three fold on the `pow2_checked` path;
//! - accumulators seeded with large values of the opposite sign to the
//!   sums, with nonzero `lo`.

use me_linalg::{available_variants, fold_tile, FoldSum};
use me_numerics::formats::pow2_checked;
use me_numerics::sum::Accumulator;
use me_numerics::Rng64;

const NS: [usize; 8] = [1, 3, 4, 7, 8, 9, 33, 128];
const ROWS: [usize; 3] = [0, 1, 5];
const BETA: u32 = 6;

/// Exponent sets as (label, A exponents, B exponents) for a rows × n
/// tile: `e_a[i] + e_b[j] − 2β` stays normal, or touches or crosses an
/// edge of the normal range at one cell.
fn exponents(rows: usize, n: usize, rng: &mut Rng64) -> Vec<(&'static str, Vec<i32>, Vec<i32>)> {
    let two_beta = 2 * BETA as i32;
    let mut small = |len| (0..len).map(|_| rng.range_usize(0, 41) as i32 - 20).collect::<Vec<_>>();
    let (a, b) = (small(rows), small(n));
    // Put the extreme sum at the last cell, all others well inside.
    let edge = |target: i32| {
        let mut a = a.clone();
        let mut b = b.clone();
        if let (Some(x), Some(y)) = (a.last_mut(), b.last_mut()) {
            *x = (target + two_beta) / 2;
            *y = target + two_beta - *x;
        }
        (a, b)
    };
    let (lo_a, lo_b) = edge(-1022);
    let (hi_a, hi_b) = edge(1023);
    let (under_a, under_b) = edge(-1023);
    let (over_a, over_b) = edge(1024);
    let (mix_a, mix_b) = edge(-1100);
    vec![
        ("normal", a.clone(), b.clone()),
        ("sum −1022", lo_a, lo_b),
        ("sum +1023", hi_a, hi_b),
        ("sum −1023", under_a, under_b),
        ("sum +1024", over_a, over_b),
        ("one sum far below", mix_a, mix_b),
    ]
}

/// Accumulators seeded with large values of sign `sign` and a nonzero
/// low part.
fn seeded(cells: usize, sign: f64, rng: &mut Rng64) -> Vec<Accumulator> {
    (0..cells)
        .map(|_| {
            let mut acc = Accumulator::new();
            acc.add(sign * rng.range_f64(1.0, 2.0) * 2f64.powi(60));
            acc.add(sign * rng.range_f64(1.0, 2.0));
            acc
        })
        .collect()
}

/// The reference: `Accumulator::add(s · 2^(e_a + e_b − 2β))` per nonzero
/// sum, row by row.
fn reference<T: FoldSum>(tile: &[T], a: &[i32], b: &[i32], acc: &mut [Accumulator]) {
    let two_beta = 2 * BETA as i32;
    for (i, &ea) in a.iter().enumerate() {
        for (j, &eb) in b.iter().enumerate() {
            let s: f64 = tile[i * b.len() + j].into();
            if s != 0.0 {
                acc[i * b.len() + j].add(s * pow2_checked(ea + eb - two_beta));
            }
        }
    }
}

/// Every variant's fold of `tile` against the reference, from accumulators
/// seeded against the sign of the sums.
fn check<T: FoldSum>(label: &str, tile: &[T], sign: f64, rng: &mut Rng64) {
    let cells = tile.len();
    for rows in ROWS {
        for n in NS {
            if rows * n > cells {
                continue;
            }
            let tile = &tile[..rows * n];
            for (edge, a, b) in exponents(rows, n, rng) {
                let seed = seeded(rows * n, sign, rng);
                let mut want = seed.clone();
                reference(tile, &a, &b, &mut want);
                for v in available_variants() {
                    let mut hi: Vec<f64> = seed.iter().map(|x| x.parts().0).collect();
                    let mut lo: Vec<f64> = seed.iter().map(|x| x.parts().1).collect();
                    fold_tile(v, tile, &a, &b, BETA, &mut hi, &mut lo);
                    for (c, w) in want.iter().enumerate() {
                        let (wh, wl) = w.parts();
                        assert_eq!(
                            (hi[c].to_bits(), lo[c].to_bits()),
                            (wh.to_bits(), wl.to_bits()),
                            "{label}, {edge}, {v}, {rows}x{n}, cell {c}: ({}, {}) vs ({wh}, {wl})",
                            hi[c],
                            lo[c]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn i32_sums_match_accumulator_add_bitwise() {
    let mut rng = Rng64::seed_from_u64(0xf01d);
    let cells = 5 * 128;
    let tile: Vec<i32> = (0..cells)
        .map(|c| match c % 9 {
            0 => i32::MIN,
            1 => i32::MAX,
            2 => 0,
            3 => 1,
            4 => -1,
            _ => rng.range_usize(0, 1 << 21) as i32 - (1 << 20),
        })
        .collect();
    check("i32", &tile, -1.0, &mut rng);
    let positive: Vec<i32> = tile.iter().map(|s| s.saturating_abs()).collect();
    check("i32, positive", &positive, -1.0, &mut rng);
}

#[test]
fn f32_sums_match_accumulator_add_bitwise() {
    let mut rng = Rng64::seed_from_u64(0xf32);
    let cells = 5 * 128;
    let tile: Vec<f32> = (0..cells)
        .map(|c| match c % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            _ => rng.range_f64(-1.0, 1.0) as f32 * 16_777_216.0,
        })
        .collect();
    check("f32", &tile, 1.0, &mut rng);
    let negative: Vec<f32> = tile.iter().map(|s| -s.abs()).collect();
    check("f32, negative", &negative, 1.0, &mut rng);
}

#[test]
fn f64_sums_match_accumulator_add_bitwise() {
    let mut rng = Rng64::seed_from_u64(0xf64);
    let tile: Vec<f64> =
        (0..5 * 128).map(|c| if c % 3 == 0 { 0.0 } else { rng.range_f64(-1e9, 1e9) }).collect();
    check("f64", &tile, -1.0, &mut rng);
}
