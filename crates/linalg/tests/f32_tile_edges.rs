//! Tile-edge differential of the f32 engine call.
//!
//! `gemm_f32_f32` and `gemm_half_f32` compute 8 × 32 register tiles (the
//! AVX2 kernel in 4 × 16 passes), so their edges are m and n one below, at
//! and one above a multiple of 8, 16 or 32. The grid here crosses
//! m, n ∈ {0, 1, 7, 8, 9, 31, 32, 33, 129} with
//! kc ∈ {0, 1, 2, 17, 255, 256}, packs both operands once the way the Ozaki
//! split does (`PanelLayout::put_lines` over every line), and compares
//! every variant the host runs against the ascending scalar `mul_add`
//! chain, bit for bit. The f32 front runs on integer-valued slices (sums
//! exact, and sums past 2^24 that round) and on non-integer values whose
//! sums round, so a reordered or split FMA shows; the half front runs on
//! binary16 and bfloat16 words. A second test reads two k-chunks of one
//! panel packed in chunks of 256.

use me_linalg::{
    available_variants, gemm_f32_f32, gemm_half_f32, HalfKind, KernelVariant, PanelLayout,
    PanelWord,
};
use me_numerics::Rng64;

const DIMS: [usize; 9] = [0, 1, 7, 8, 9, 31, 32, 33, 129];
const KCS: [usize; 6] = [0, 1, 2, 17, 255, 256];
const LINES: usize = 129;

/// What the operand lines hold.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Integers in [−128, 128]: slice values, every chunk sum exact.
    SmallInts,
    /// Integers in [−2048, 2048]: sums past 2^24 round.
    WideInts,
    /// Non-integers in (−2, 2): every sum rounds.
    Reals,
    /// Non-integers narrowed to a half format, run on the half front.
    Half(HalfKind),
}

const ALL_VALUES: [Values; 5] = [
    Values::SmallInts,
    Values::WideInts,
    Values::Reals,
    Values::Half(HalfKind::F16),
    Values::Half(HalfKind::Bf16),
];

/// `LINES` lines of length `k`, line-major, as f32 values (for the half
/// front, values the format holds exactly).
fn lines(values: Values, k: usize, rng: &mut Rng64) -> Vec<f32> {
    let int = |rng: &mut Rng64, b: usize| (rng.range_usize(0, 2 * b + 1) as f32) - b as f32;
    let real = |rng: &mut Rng64| (rng.next_f64() * 4.0 - 2.0) as f32;
    (0..LINES * k)
        .map(|_| match values {
            Values::SmallInts => int(rng, 128),
            Values::WideInts => int(rng, 2048),
            Values::Reals => real(rng),
            Values::Half(kind) => kind.widen(kind.narrow(real(rng))),
        })
        .collect()
}

/// The first `count` lines of `words` (length `k` each) packed into
/// `layout` in chunks of `kb`, in one `put_lines` as the Ozaki split does.
fn pack<W: PanelWord>(
    layout: PanelLayout,
    words: &[W],
    count: usize,
    k: usize,
    kb: usize,
) -> Vec<W> {
    let mut panel = layout.blank(count, k, kb);
    layout.put_lines(&mut panel, 0, &words[..count * k], k, &[], kb);
    panel
}

/// The ascending scalar chain over values `k0..k0 + kc` of A line `i`
/// and B line `j` (length `k` each).
fn chain(a: &[f32], bt: &[f32], i: usize, j: usize, k: usize, k0: usize, kc: usize) -> f32 {
    let (ra, rb) = (&a[i * k + k0..i * k + k0 + kc], &bt[j * k + k0..j * k + k0 + kc]);
    ra.iter().zip(rb).fold(0.0f32, |s, (&x, &y)| x.mul_add(y, s))
}

/// Both operands of one case, packed for the front they run on.
enum Panels {
    F32(Vec<f32>, Vec<f32>),
    Half(HalfKind, Vec<u16>, Vec<u16>),
}

impl Panels {
    /// The first `m` lines of `a` and `n` of `bt` (length `k` each),
    /// packed in chunks of `kb`.
    fn new(
        values: Values,
        a: &[f32],
        bt: &[f32],
        (m, n): (usize, usize),
        k: usize,
        kb: usize,
    ) -> Self {
        let (la, lb) = (PanelLayout::F32_A, PanelLayout::F32_B);
        match values {
            Values::Half(kind) => {
                let narrow = |x: &[f32]| x.iter().map(|&v| kind.narrow(v)).collect::<Vec<u16>>();
                Panels::Half(kind, pack(la, &narrow(a), m, k, kb), pack(lb, &narrow(bt), n, k, kb))
            }
            _ => Panels::F32(pack(la, a, m, k, kb), pack(lb, bt, n, k, kb)),
        }
    }

    /// One engine call on chunk `k0..k0 + kc` (lines of length `k` in
    /// chunks of `kb`).
    fn call(
        &self,
        v: KernelVariant,
        (m, n): (usize, usize),
        (k0, kc, k, kb): (usize, usize, usize, usize),
        out: &mut [f32],
    ) {
        let (la, lb) = (PanelLayout::F32_A, PanelLayout::F32_B);
        match self {
            Panels::Half(kind, a, b) => {
                let (ca, cb) = (la.chunk(a, 0, k0, k, kb), lb.chunk(b, 0, k0, k, kb));
                gemm_half_f32(v, m, n, kc, ca, cb, *kind, out);
            }
            Panels::F32(a, b) => {
                let (ca, cb) = (la.chunk(a, 0, k0, k, kb), lb.chunk(b, 0, k0, k, kb));
                gemm_f32_f32(v, m, n, kc, ca, cb, out);
            }
        }
    }
}

/// Panic at the first output whose bits differ from `want`.
fn check(label: &str, n: usize, out: &[f32], want: &[f32]) {
    if let Some(x) = (0..want.len()).find(|&x| out[x].to_bits() != want[x].to_bits()) {
        panic!("{label}: ({}, {}) {:e} != {:e}", x / n, x % n, out[x], want[x]);
    }
}

#[test]
fn every_variant_matches_the_scalar_chain_across_tile_edges() {
    let mut rng = Rng64::seed_from_u64(0xf32e);
    let variants = available_variants();
    for kc in KCS {
        for values in ALL_VALUES {
            let (a, bt) = (lines(values, kc, &mut rng), lines(values, kc, &mut rng));
            let chains: Vec<f32> = (0..LINES * LINES)
                .map(|x| chain(&a, &bt, x / LINES, x % LINES, kc, 0, kc))
                .collect();
            let kb = kc.max(1);
            for m in DIMS {
                for n in DIMS {
                    let p = Panels::new(values, &a, &bt, (m, n), kc, kb);
                    let want: Vec<f32> =
                        (0..m * n).map(|x| chains[x / n * LINES + x % n]).collect();
                    for &v in &variants {
                        let mut out = vec![f32::NAN; m * n];
                        p.call(v, (m, n), (0, kc, kc, kb), &mut out);
                        check(&format!("{v} {values:?} m {m} n {n} kc {kc}"), n, &out, &want);
                    }
                }
            }
        }
    }
}

#[test]
fn two_chunks_of_one_panel_match_the_scalar_chain() {
    // k = 300 in chunks of 256: one whole chunk and a ragged one, read
    // from the same panels at k0 = 0 and k0 = 256.
    let (k, kb) = (300, 256);
    let mut rng = Rng64::seed_from_u64(0x2c4);
    let variants = available_variants();
    for values in ALL_VALUES {
        let (a, bt) = (lines(values, k, &mut rng), lines(values, k, &mut rng));
        for (m, n) in [(33, 129), (129, 31), (9, 1), (1, 33)] {
            let p = Panels::new(values, &a, &bt, (m, n), k, kb);
            for k0 in [0, kb] {
                let kc = kb.min(k - k0);
                let want: Vec<f32> =
                    (0..m * n).map(|x| chain(&a, &bt, x / n, x % n, k, k0, kc)).collect();
                for &v in &variants {
                    let mut out = vec![f32::NAN; m * n];
                    p.call(v, (m, n), (k0, kc, k, kb), &mut out);
                    check(&format!("{v} {values:?} m {m} n {n} chunk at {k0}"), n, &out, &want);
                }
            }
        }
    }
}
