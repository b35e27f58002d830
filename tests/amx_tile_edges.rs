//! Tile-edge differential of the AMX engine calls, and the routing that
//! keeps the simulated matrix engine off AMX outside its exact domain.
//!
//! On an AMX host the `Avx512` variant runs `gemm_i8_i32` on `tdpbusd`
//! and `gemm_bf16_f32` on `tdpbf16ps`: 2 × 2 blocks of 16-column tiles
//! over 64-byte k steps, A tiles of 8 (int8) or 16 (bf16) rows, and a k
//! remainder copied into zero-padded tiles. So the edges are m and n one
//! below, at and one above a multiple of 16 or 32, and kc around the
//! k-step (64 int8 or 32 bf16 values) and its pairs and quads. The grid
//! crosses m, n ∈ {0, 1, 15, 16, 17, 31, 32, 33, 129} with
//! kc ∈ {0, 1, 2, 31, 32, 33, 63, 64, 65, 255, 256} and checks both arms
//! against exact integer dots: the AMX arm (`Avx512`), and the SIMD arm of
//! every variant the host runs (`gemm_i8_i32_simd`, and `gemm_f32_f32` on
//! the same values in the f32 layouts, which is where the simulated matrix
//! engine runs off AMX) plus `gemm_bf16_f32`'s widening path on the other
//! variants. The bf16 words are integers in [−256, 256], and one pattern
//! is all ±256, whose sums at kc = 256 reach ±2^24: the edge of exactness.
//! A second test reads two k-chunks of one panel. On a host without AMX
//! the AMX arm runs the SIMD tile, and the tests say the arm was skipped.

use me_linalg::blas3::panel::chunk_sums;
use me_linalg::{
    amx_bf16_supported, amx_int8_supported, available_variants, gemm_bf16_f32, gemm_f32_f32,
    gemm_i8_i32, gemm_i8_i32_simd, HalfKind, KernelVariant, PanelLayout, PanelWord,
};
use me_numerics::Rng64;
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{ozaki_gemm_on, OzakiConfig};
use std::sync::Mutex;

const DIMS: [usize; 9] = [0, 1, 15, 16, 17, 31, 32, 33, 129];
const KCS: [usize; 11] = [0, 1, 2, 31, 32, 33, 63, 64, 65, 255, 256];
const LINES: usize = 129;

/// Serializes the tests: the routing test reads process-wide counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// `LINES` lines of length `k`, line-major: integers up to `bound` in
/// magnitude, in one of five patterns (all +bound, all −bound,
/// alternating ±bound, seeded in [−bound, bound], seeded over [−128, 127]
/// for int8).
fn lines(pattern: usize, bound: i32, k: usize, rng: &mut Rng64) -> Vec<i32> {
    (0..LINES * k)
        .map(|i| match pattern {
            0 => bound,
            1 => -bound,
            2 => {
                if (i / k + i % k).is_multiple_of(2) {
                    bound
                } else {
                    -bound
                }
            }
            3 => rng.range_usize(0, 2 * bound as usize + 1) as i32 - bound,
            _ => rng.range_usize(0, 256) as i32 - 128,
        })
        .collect()
}

/// The first `count` lines of `words` (length `k` each) packed into
/// `layout` in chunks of `kb`, in one `put_lines` as the Ozaki split does
/// (whole tiles take the constant-shape writers).
fn pack<W: PanelWord>(
    layout: PanelLayout,
    words: &[W],
    count: usize,
    k: usize,
    kb: usize,
) -> Vec<W> {
    let words = &words[..count * k];
    let sums: Vec<i32> = words.chunks(k.max(1)).flat_map(|w| chunk_sums(w, kb)).collect();
    let mut panel = layout.blank(count, k, kb);
    layout.put_lines(&mut panel, 0, words, k, &sums, kb);
    panel
}

/// Exact dot of values `k0..k0 + kc` of A line `i` and B line `j`.
fn dot(a: &[i32], bt: &[i32], (i, j): (usize, usize), (k, k0, kc): (usize, usize, usize)) -> i64 {
    let (ra, rb) = (&a[i * k + k0..i * k + k0 + kc], &bt[j * k + k0..j * k + k0 + kc]);
    ra.iter().zip(rb).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum()
}

/// Panic at the first output that differs from `want`.
fn check<T: PartialEq + std::fmt::Debug>(label: &str, n: usize, out: &[T], want: &[T]) {
    if let Some(x) = (0..want.len()).find(|&x| out[x] != want[x]) {
        panic!("{label}: ({}, {}) {:?} != {:?}", x / n, x % n, out[x], want[x]);
    }
}

/// The int8 operands of one case, packed once.
struct Int8Case {
    a: Vec<i8>,
    b: Vec<i8>,
}

/// The bf16 operands of one case, and the same values in the f32 layouts.
struct Bf16Case {
    a: Vec<u16>,
    b: Vec<u16>,
    a32: Vec<f32>,
    b32: Vec<f32>,
}

/// Run every arm on chunk `k0..k0 + kc` of lines of length `k` in chunks
/// of `kb` and compare with the exact dots.
fn run_arms(
    label: &str,
    (i8c, bfc): (&Int8Case, &Bf16Case),
    (m, n): (usize, usize),
    (k0, kc, k, kb): (usize, usize, usize, usize),
    want: (&[i32], &[f32]),
) {
    let (ca, cb) = (
        PanelLayout::I8_A.chunk(&i8c.a, 0, k0, k, kb),
        PanelLayout::I8_B.chunk(&i8c.b, 0, k0, k, kb),
    );
    let mut out = vec![i32::MIN; m * n];
    gemm_i8_i32(KernelVariant::Avx512, m, n, kc, ca, cb, &mut out);
    check(&format!("amx int8 {label}"), n, &out, want.0);
    let (ba, bb) = (
        PanelLayout::BF16_A.chunk(&bfc.a, 0, k0, k, kb),
        PanelLayout::BF16_B.chunk(&bfc.b, 0, k0, k, kb),
    );
    let mut outf = vec![f32::NAN; m * n];
    gemm_bf16_f32(KernelVariant::Avx512, m, n, kc, ba, bb, &mut outf);
    check(&format!("amx bf16 {label}"), n, &outf, want.1);
    for v in available_variants() {
        let mut out = vec![i32::MIN; m * n];
        gemm_i8_i32_simd(v, m, n, kc, ca, cb, &mut out);
        check(&format!("{v} int8 {label}"), n, &out, want.0);
        let mut outf = vec![f32::NAN; m * n];
        let (fa, fb) = (
            PanelLayout::F32_A.chunk(&bfc.a32, 0, k0, k, kb),
            PanelLayout::F32_B.chunk(&bfc.b32, 0, k0, k, kb),
        );
        gemm_f32_f32(v, m, n, kc, fa, fb, &mut outf);
        check(&format!("{v} f32 tile {label}"), n, &outf, want.1);
        if v != KernelVariant::Avx512 {
            let mut outf = vec![f32::NAN; m * n];
            gemm_bf16_f32(v, m, n, kc, ba, bb, &mut outf);
            check(&format!("{v} bf16 widened {label}"), n, &outf, want.1);
        }
    }
}

/// The int8 and bf16 cases of the first `m` A lines and `n` B lines.
fn cases(
    (a8, b8): (&[i32], &[i32]),
    (abf, bbf): (&[i32], &[i32]),
    (m, n): (usize, usize),
    k: usize,
    kb: usize,
) -> (Int8Case, Bf16Case) {
    let i8s =
        |x: &[i32]| x.iter().map(|&v| i8::try_from(v).expect("int8 pattern")).collect::<Vec<_>>();
    let f32s = |x: &[i32]| x.iter().map(|&v| v as f32).collect::<Vec<_>>();
    let bf16s = |x: &[i32]| x.iter().map(|&v| HalfKind::Bf16.narrow(v as f32)).collect::<Vec<_>>();
    let (fa, fb) = (f32s(abf), f32s(bbf));
    for (w, f) in bf16s(abf).iter().zip(&fa) {
        assert_eq!(HalfKind::Bf16.widen(*w), *f, "bf16 words must be exact");
    }
    (
        Int8Case {
            a: pack(PanelLayout::I8_A, &i8s(a8), m, k, kb),
            b: pack(PanelLayout::I8_B, &i8s(b8), n, k, kb),
        },
        Bf16Case {
            a: pack(PanelLayout::BF16_A, &bf16s(abf), m, k, kb),
            b: pack(PanelLayout::BF16_B, &bf16s(bbf), n, k, kb),
            a32: pack(PanelLayout::F32_A, &fa, m, k, kb),
            b32: pack(PanelLayout::F32_B, &fb, n, k, kb),
        },
    )
}

/// Say so when the AMX arm ran the SIMD tile.
fn announce_skip() {
    if !amx_int8_supported() || !amx_bf16_supported() {
        eprintln!(
            "amx_tile_edges: host lacks AMX (int8 {}, bf16 {}); the AMX arm was skipped \
             (Avx512 ran the SIMD tile)",
            amx_int8_supported(),
            amx_bf16_supported()
        );
    }
}

#[test]
fn amx_and_simd_arms_match_exact_dots_across_tile_edges() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    announce_skip();
    let mut rng = Rng64::seed_from_u64(0xa3c);
    for kc in KCS {
        for pattern in 0..5 {
            let (a8, b8) = (lines(pattern, 64, kc, &mut rng), lines(pattern, 64, kc, &mut rng));
            let bf = |rng: &mut Rng64| lines(pattern.min(3), 256, kc, rng);
            let (abf, bbf) = (bf(&mut rng), bf(&mut rng));
            let full = |a: &[i32], b: &[i32]| -> Vec<i64> {
                (0..LINES * LINES).map(|x| dot(a, b, (x / LINES, x % LINES), (kc, 0, kc))).collect()
            };
            let (d8, dbf) = (full(&a8, &b8), full(&abf, &bbf));
            assert!(dbf.iter().all(|d| d.abs() <= 1 << 24), "bf16 sums stay exact in f32");
            if pattern < 2 && kc == 256 {
                assert!(dbf.iter().all(|d| d.abs() == 1 << 24), "the exactness edge is reached");
            }
            let kb = kc.max(1);
            for m in DIMS {
                for n in DIMS {
                    let (i8c, bfc) = cases((&a8, &b8), (&abf, &bbf), (m, n), kc, kb);
                    let at = |x: usize| x / n * LINES + x % n;
                    let want8: Vec<i32> = (0..m * n).map(|x| d8[at(x)] as i32).collect();
                    let wantf: Vec<f32> = (0..m * n).map(|x| dbf[at(x)] as f32).collect();
                    let label = format!("m {m} n {n} kc {kc} pattern {pattern}");
                    run_arms(&label, (&i8c, &bfc), (m, n), (0, kc, kc, kb), (&want8, &wantf));
                }
            }
        }
    }
}

#[test]
fn two_chunks_of_one_panel_match_exact_dots() {
    // k = 300 in chunks of 256: a whole chunk and a ragged one, read from
    // the same panels at k0 = 0 and k0 = 256, so the A tiles of the second
    // chunk sit at the panel's tile stride, not right after the first.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    announce_skip();
    let (k, kb) = (300, 256);
    let mut rng = Rng64::seed_from_u64(0x2c5);
    let (a8, b8) = (lines(3, 64, k, &mut rng), lines(3, 64, k, &mut rng));
    let (abf, bbf) = (lines(3, 128, k, &mut rng), lines(3, 128, k, &mut rng));
    for (m, n) in [(33, 129), (129, 31), (17, 1), (1, 33), (48, 64)] {
        let (i8c, bfc) = cases((&a8, &b8), (&abf, &bbf), (m, n), k, kb);
        for k0 in [0, kb] {
            let kc = kb.min(k - k0);
            let want8: Vec<i32> =
                (0..m * n).map(|x| dot(&a8, &b8, (x / n, x % n), (k, k0, kc)) as i32).collect();
            let wantf: Vec<f32> =
                (0..m * n).map(|x| dot(&abf, &bbf, (x / n, x % n), (k, k0, kc)) as f32).collect();
            let label = format!("m {m} n {n} chunk at {k0}");
            run_arms(&label, (&i8c, &bfc), (m, n), (k0, kc, k, kb), (&want8, &wantf));
        }
    }
}

/// FNV-1a over the result bits of `cfg` on three shapes (one with two
/// k-chunks), serial, on `kernel`.
fn digest(cfg: &OzakiConfig, kernel: KernelVariant) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (s, (m, k, n)) in [(128, 128, 128), (37, 300, 29), (19, 600, 23)].into_iter().enumerate() {
        let a = ranged_matrix(m, k, 16.0, 40 + s as u64);
        let b = ranged_matrix(k, n, 16.0, 50 + s as u64);
        for x in ozaki_gemm_on(&a, &b, cfg, kernel, None).c.as_slice() {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn simulated_me_outside_the_bf16_domain_never_reaches_amx() {
    // A 40-bit accumulator widens β past bf16's 8-bit significand, so the
    // simulated matrix engine must stay on f32 words and the f32 tile:
    // no call lands on AMX, and the bits are those of the scalar chain.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    announce_skip();
    let wide = OzakiConfig { acc_precision: 40, ..OzakiConfig::dgemm_tc() };
    let scalar = digest(&wide, KernelVariant::Scalar);
    me_trace::set_enabled(true);
    let avx512 = digest(&wide, KernelVariant::Avx512);
    me_trace::set_enabled(false);
    let trace = me_trace::take_snapshot();
    let count = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("ukernel.amx.bf16"), 0, "acc_precision 40 reached the AMX bf16 tile");
    assert_eq!(count("ukernel.amx.int8"), 0, "the simulated engine reached the AMX int8 tile");
    assert_eq!(avx512, scalar, "acc_precision 40: Avx512 bits differ from the scalar chain");
    assert_eq!(scalar, 0xceb2_06ab_9f68_f4cb, "acc_precision 40 digest {scalar:#018x}");
    // The default config is inside the domain: on an AMX host its calls
    // do land on AMX, with the scalar chain's bits.
    let tc = OzakiConfig::dgemm_tc();
    me_trace::set_enabled(true);
    let on_amx = digest(&tc, KernelVariant::Avx512);
    me_trace::set_enabled(false);
    let trace = me_trace::take_snapshot();
    if me_trace::compiled() && amx_bf16_supported() {
        assert!(trace.counters.get("ukernel.amx.bf16").copied().unwrap_or(0) > 0);
    }
    assert_eq!(on_amx, digest(&tc, KernelVariant::Scalar), "dgemm_tc: AMX bits differ");
}
