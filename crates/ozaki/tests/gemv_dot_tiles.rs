//! `ozaki_gemv` and `ozaki_dot` on the f32 engine call's padded tiles.
//!
//! A GEMV's one column of B, and a dot product's one row and one column,
//! each fill one line of a 32-column B tile (and a dot's A one row of an
//! 8-row tile): the rest of each tile is padding. The digest below was
//! captured while these calls ran on the 4 × 8 f32 micro-kernel, before
//! the engine call got its own 8 × 32 tile, and is checked on every kernel
//! variant the host runs (the only test in this binary, so the process-wide
//! kernel override it sets reaches no other test).

use me_linalg::{available_variants, set_kernel_override};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{ozaki_dot, ozaki_gemv, OzakiConfig};

/// FNV-1a over the bits of `xs`, continuing from `h`.
fn fnv(mut h: u64, xs: &[f64]) -> u64 {
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// GEMV over rows {1, 7, 8, 9, 33} and dots, at k from 1 to two and a
/// half 256-chunks, ranges 1e0 and 1e16, on three configurations (one
/// chunking k at 64).
fn digest() -> u64 {
    let chunked = OzakiConfig { k_block: 64, ..OzakiConfig::dgemm_tc() };
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (ki, k) in [1usize, 17, 256, 300, 600].into_iter().enumerate() {
        for decades in [0.0, 16.0] {
            let seed = 10 * ki as u64 + decades as u64;
            let a = ranged_matrix(33, k, decades, seed);
            let x = ranged_matrix(1, k, decades, seed + 1).as_slice().to_vec();
            for cfg in [OzakiConfig::dgemm_tc(), OzakiConfig::sgemm_tc(), chunked] {
                for m in [1usize, 7, 8, 9, 33] {
                    let rows = ranged_matrix(m, k, decades, seed + 2 + m as u64);
                    h = fnv(h, &ozaki_gemv(&rows, &x, &cfg));
                }
                h = fnv(h, &ozaki_gemv(&a, &x, &cfg));
                h = fnv(h, &[ozaki_dot(a.row(0), &x, &cfg), ozaki_dot(&x, &x, &cfg)]);
            }
        }
    }
    h
}

#[test]
fn gemv_and_dot_digest_is_pinned_on_every_variant() {
    for v in available_variants() {
        set_kernel_override(Some(v));
        let d = digest();
        assert_eq!(d, 0xaf27_1d3e_8ede_5adf, "{v}: gemv/dot digest {d:#018x}");
    }
    set_kernel_override(None);
}
