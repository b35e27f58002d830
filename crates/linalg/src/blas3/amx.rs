//! The host's matrix engine: engine calls on Intel AMX tiles.
//!
//! The paper asks whether matrix engines pay for HPC; on an AMX host the
//! measured substrate has one. Inside [`KernelVariant::Avx512`], when
//! CPUID, XCR0 and the kernel's one-time permission request allow it, two
//! engine calls run on AMX instead of AVX-512:
//!
//! - [`super::gemm_i8_i32`] on `tdpbusd` (u8 × i8 → i32), reading its
//!   [`PanelLayout::I8_A`] / [`PanelLayout::I8_B`] panels as tiles: a
//!   16-row `I8_A` tile block is one A tile (its rows are row-major, 64
//!   bytes per k step), and each 128-byte `I8_B` group row is one row of
//!   two 16-column B tiles. `tdpbusd`, like `vpdpbusd`, sums in
//!   i32 without saturating, so the offset-A sum is the VNNI kernel's sum
//!   modulo 2^32; the accumulators start at the `−128·colsum` correction
//!   instead of subtracting it at the end.
//! - [`super::gemm_bf16_f32`] on `tdpbf16ps` (bf16 × bf16 → f32), on
//!   [`PanelLayout::BF16_A`] (16-row tiles, row-major) and
//!   [`PanelLayout::BF16_B`] (32-column tiles, k pairs per column).
//!   AMX sums pairs of products in an order of its own, so the call is
//!   only bitwise equal to the f32 engine tile where every partial sum is
//!   exact: the caller keeps every word an integer of magnitude at most
//!   2^8 and `kc · 2^16 ≤ 2^24` (the Ozaki driver routes only such
//!   configs here).
//!
//! Each call loads the tile configuration on the calling thread
//! (`ldtilecfg`) and releases the tiles at its end (`tilerelease`), so no
//! tile state outlives a call or leaks between pool workers. A C block is
//! 2 × 2 tiles: two A tiles (rows) by the two 16-column halves of one
//! 32-column B panel tile, four accumulators, with B panel tiles outer so
//! one stays in L1 while the A tiles stream past. A k remainder shorter
//! than one 64-byte step is copied into zero-padded tiles first.
//!
//! The AMX intrinsics are unstable on the toolchain this crate builds
//! with, so the tile instructions and the permission request are stable
//! `asm!`.

use super::panel::PanelChunk;
#[cfg(doc)]
use super::panel::PanelLayout;
use super::ukernel::{KernelVariant, NR_F32};

/// Rows of an AMX A tile, and of the A panel tiles of both AMX calls
/// ([`PanelLayout::I8_A`], [`PanelLayout::BF16_A`]).
pub const MR_AMX: usize = 16;
/// Bytes of one tile row: one k step of an A row, or one row of a B tile
/// (16 columns × 4 bytes).
const ROW: usize = 64;
/// Bytes of one group row of a 32-column B panel tile: two B tile rows.
const B_ROW: usize = 2 * ROW;
/// Rows of a B tile: the k groups one step consumes.
const B_ROWS: usize = 16;
/// Bytes of B one step consumes in a 32-column panel tile.
const B_STEP: usize = B_ROWS * B_ROW;

/// Which AMX operations this process may run: each needs its CPUID bit,
/// AMX-TILE, the OS enabling tile state in XCR0 and the kernel granting
/// this process tile data.
#[derive(Debug, Clone, Copy, Default)]
struct AmxOps {
    int8: bool,
    bf16: bool,
}

/// Does this process run `tdpbusd` (AMX-INT8)? Detected once.
pub fn amx_int8_supported() -> bool {
    amx_ops().int8
}

/// Does this process run `tdpbf16ps` (AMX-BF16)? Detected once.
pub fn amx_bf16_supported() -> bool {
    amx_ops().bf16
}

fn amx_ops() -> AmxOps {
    static OPS: std::sync::OnceLock<AmxOps> = std::sync::OnceLock::new();
    *OPS.get_or_init(detect)
}

/// CPUID leaf 7 EDX bits 22 (AMX-BF16), 24 (AMX-TILE) and 25 (AMX-INT8),
/// XCR0 bits 17–18 (tile config and data enabled by the OS), then the
/// `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` request, which
/// Linux requires once per process before the first tile instruction.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn detect() -> AmxOps {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
    const XFEATURE_XTILEDATA: u64 = 18;
    const SYS_ARCH_PRCTL: u64 = 158;
    const XCR0_TILE: u64 = 0b11 << 17;
    if __cpuid(0).eax < 7 || __cpuid(1).ecx & (1 << 27) == 0 {
        return AmxOps::default();
    }
    let edx = __cpuid_count(7, 0).edx;
    let bit = |b: u32| edx & (1 << b) != 0;
    if !bit(24) {
        return AmxOps::default();
    }
    let (lo, hi): (u32, u32);
    // SAFETY: CPUID.1:ECX.OSXSAVE (checked above) means the OS enabled
    // XSAVE, so `xgetbv` with ECX = 0 reads XCR0 and cannot fault.
    unsafe {
        std::arch::asm!("xgetbv", in("ecx") 0u32, out("eax") lo, out("edx") hi,
            options(nomem, nostack, preserves_flags));
    }
    if ((u64::from(hi) << 32) | u64::from(lo)) & XCR0_TILE != XCR0_TILE {
        return AmxOps::default();
    }
    let ret: i64;
    // SAFETY: the Linux x86-64 syscall ABI: number in rax, arguments in
    // rdi and rsi, result in rax, rcx and r11 clobbered. `arch_prctl`
    // with ARCH_REQ_XCOMP_PERM only updates this process's permitted
    // xstate features and touches no memory of ours.
    unsafe {
        std::arch::asm!("syscall",
            inlateout("rax") SYS_ARCH_PRCTL => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM, in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _, lateout("r11") _, options(nostack));
    }
    if ret != 0 {
        return AmxOps::default();
    }
    AmxOps { int8: bit(25), bf16: bit(22) }
}

/// Off x86-64 Linux there is no AMX to request.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn detect() -> AmxOps {
    AmxOps::default()
}

/// Does `variant` run the int8 engine call on AMX?
pub(crate) fn int8_on(variant: KernelVariant) -> bool {
    variant == KernelVariant::Avx512 && amx_int8_supported()
}

/// Does `variant` run the bf16 engine call on AMX?
pub fn bf16_on(variant: KernelVariant) -> bool {
    variant == KernelVariant::Avx512 && amx_bf16_supported()
}

/// The tile instruction of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `tdpbusd`: u8 × i8 quads summed into i32.
    Int8,
    /// `tdpbf16ps`: bf16 pairs summed into f32.
    Bf16,
}

/// The 64-byte `ldtilecfg` operand: palette 1; tmm0–7 (the C tiles
/// tmm0–3, the A tiles tmm4–5, the B tiles tmm6–7) all 16 rows of 64
/// bytes.
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

impl TileConfig {
    const ALL_16X64: TileConfig = {
        let mut cfg = [0u8; 64];
        cfg[0] = 1;
        let mut t = 0;
        while t < 8 {
            cfg[16 + 2 * t] = ROW as u8;
            cfg[48 + t] = B_ROWS as u8;
            t += 1;
        }
        TileConfig(cfg)
    };
}

/// 32 accumulator start values, aligned so each 16-value tile row is one
/// cache line.
#[repr(C, align(64))]
struct StartRow([i32; NR_F32]);

/// The int8 engine call on AMX: `out[i·n + j] = Σ a_i[p]·b_j[p]` over one
/// chunk of `kcp` (padded) k values of `I8_A` / `I8_B` panels, exact in
/// i32 by the int8 module's argument. Callers check [`int8_on`] first.
pub(crate) fn gemm_i8_i32(
    m: usize,
    n: usize,
    kcp: usize,
    a: PanelChunk<'_, i8>,
    b: PanelChunk<'_, i8>,
    out: &mut [i32],
) {
    assert!(amx_int8_supported(), "AMX-INT8 call on a host without it");
    let sums = NR_F32 * kcp;
    let b_len = NR_F32 * (kcp + super::panel::SUM_WORDS);
    let init = |bp: &[i8]| {
        std::array::from_fn(|j| {
            let at = sums + 4 * j;
            let sum = i32::from_le_bytes(std::array::from_fn(|i| bp[at + i] as u8));
            0i32.wrapping_sub(sum.wrapping_shl(7))
        })
    };
    tiles(Op::Int8, m, n, kcp, (a, b, b_len), init, out);
}

/// The bf16 engine call on AMX over one chunk of `kcp` (padded) k values
/// of `BF16_A` / `BF16_B` panels (see the module docs for when it is
/// exact). Callers check [`bf16_on`] first.
pub(crate) fn gemm_bf16_f32(
    m: usize,
    n: usize,
    kcp: usize,
    a: PanelChunk<'_, u16>,
    b: PanelChunk<'_, u16>,
    out: &mut [f32],
) {
    assert!(amx_bf16_supported(), "AMX-BF16 call on a host without it");
    let b_len = NR_F32 * kcp;
    tiles(Op::Bf16, m, n, kcp, (a, b, b_len), |_| [0; NR_F32], out);
}

/// The tile loop of an engine call: per 32-column B panel tile, its
/// accumulator start row `init(B tile block)` (bit patterns of the
/// 4-byte sums), then per pair of 16-row A panel tiles one 2 × 2 block (or
/// 1 × 2 past the last pair) over every 64-byte k step, then the k
/// remainder from zero-padded copies; each block lands in `out` directly
/// when whole, else through a spill buffer.
// me-verify: hot
fn tiles<W: Copy + Default, S: Copy + Default>(
    op: Op,
    m: usize,
    n: usize,
    kcp: usize,
    (a, b, b_len): (PanelChunk<'_, W>, PanelChunk<'_, W>, usize),
    init: impl Fn(&[W]) -> [i32; NR_F32],
    out: &mut [S],
) {
    const { assert!(size_of::<S>() == 4, "AMX sums are 4 bytes") };
    assert!(out.len() >= m * n, "AMX engine call: output too short");
    if m == 0 || n == 0 {
        return;
    }
    // Words per 64-byte tile row; whole k steps and the words left over.
    let wpr = ROW / size_of::<W>();
    let (steps, tail) = (kcp / wpr, kcp % wpr);
    let row_bytes = kcp * size_of::<W>();
    // Zero-padded copies of the last partial k step, rows `wpr` words
    // apart: A words past the chunk and B rows past its last group read
    // as zeros.
    let mut a_tail = [[W::default(); B_ROWS * ROW]; 2];
    let mut b_tail = [W::default(); B_STEP];
    let mut spill = [[S::default(); NR_F32]; 2 * B_ROWS];
    let a_tiles = m.div_ceil(MR_AMX);
    let cfg = TileConfig::ALL_16X64;
    // SAFETY: `amx_*_supported()` (asserted by both callers) proved the
    // tile instructions, their OS state and this process's permission.
    // The configuration is loaded on this thread before the first tile
    // instruction and released after the last. Every pointer handed to
    // `block_*` comes from a slice checked here: `a.tile`/`b.tile` panic
    // unless the A tile holds 16 rows of `kcp` words (so each of the
    // `steps` 64-byte steps of each row is inside it) and the B tile
    // `b_len >= 32·kcp` words (`steps·16` group rows of 128 bytes); the
    // tail copies hold 16 rows of 64 bytes (A) and 16 rows of 128 bytes
    // (B); `init_row` is 128 bytes; and a direct store covers rows
    // `r0..r0 + rows` and columns `j0..j0 + 32` of the `m × n` output only
    // when both fit in it.
    unsafe {
        std::arch::asm!("ldtilecfg [{}]", in(reg) cfg.0.as_ptr(), options(nostack, readonly));
        for jt in 0..n.div_ceil(NR_F32) {
            let bp = b.tile(jt, b_len);
            let init_row = StartRow(init(bp));
            b_tail[..NR_F32 * tail].copy_from_slice(&bp[NR_F32 * (kcp - tail)..NR_F32 * kcp]);
            let j0 = jt * NR_F32;
            for it in (0..a_tiles).step_by(2) {
                let two = it + 1 < a_tiles;
                let at = [a.tile(it, MR_AMX * kcp), a.tile(it + usize::from(two), MR_AMX * kcp)];
                let ap = at.map(|t| t.as_ptr().cast::<u8>());
                block_init(init_row.0.as_ptr().cast());
                block_steps(op, two, ap, row_bytes, bp.as_ptr().cast(), steps);
                if tail > 0 {
                    for (dst, src) in a_tail.iter_mut().zip(at) {
                        for (d, row) in dst.chunks_exact_mut(wpr).zip(src.chunks_exact(kcp)) {
                            d[..tail].copy_from_slice(&row[kcp - tail..]);
                        }
                    }
                    let ap = a_tail.each_ref().map(|t| t.as_ptr().cast::<u8>());
                    block_steps(op, two, ap, ROW, b_tail.as_ptr().cast(), 1);
                }
                let r0 = it * MR_AMX;
                let rows = MR_AMX * (1 + usize::from(two));
                if r0 + rows <= m && j0 + NR_F32 <= n {
                    let c = out.as_mut_ptr().add(r0 * n + j0).cast::<u8>();
                    block_store(two, c, MR_AMX * n * 4, n * 4);
                } else {
                    block_store(two, spill.as_mut_ptr().cast(), MR_AMX * B_ROW, B_ROW);
                    let valid = NR_F32.min(n - j0);
                    for (r, row) in spill.iter().enumerate().take(rows.min(m - r0)) {
                        let at = (r0 + r) * n + j0;
                        out[at..at + valid].copy_from_slice(&row[..valid]);
                    }
                }
            }
        }
        std::arch::asm!("tilerelease", options(nostack, nomem));
    }
}

/// Load the accumulators tmm0–3 with the 32 sums at `init`: every row of
/// tmm0 and tmm2 with sums 0..16, of tmm1 and tmm3 with sums 16..32 (a
/// zero row stride repeats the one row).
///
/// # Safety
///
/// A [`TileConfig`] is loaded on this thread and `init` points to 128
/// readable bytes.
// me-verify: hot
#[inline(always)]
unsafe fn block_init(init: *const u8) {
    std::arch::asm!(
        "tileloadd tmm0, [{lo} + {z}*1]",
        "tileloadd tmm1, [{hi} + {z}*1]",
        "tileloadd tmm2, [{lo} + {z}*1]",
        "tileloadd tmm3, [{hi} + {z}*1]",
        lo = in(reg) init, hi = in(reg) init.add(ROW), z = in(reg) 0usize,
        options(nostack, readonly),
    );
}

/// `steps` k steps of one block: per step the A tiles at `a[0]`, `a[1]`
/// (rows `a_stride` bytes apart) advance 64 bytes and the B tiles at `b`
/// (rows 128 bytes apart) 16 rows; tmm0/1 += A0·B halves, and with `two`
/// tmm2/3 += A1·B halves.
///
/// # Safety
///
/// A [`TileConfig`] is loaded on this thread, the host runs `op`, each A
/// tile pointer reaches `steps` 64-byte steps of its configured rows, and
/// `b` reaches `steps · 2048` bytes.
// me-verify: hot
#[inline(always)]
unsafe fn block_steps(
    op: Op,
    two: bool,
    a: [*const u8; 2],
    a_stride: usize,
    b: *const u8,
    steps: usize,
) {
    macro_rules! step {
        ($tdp:literal, $q:expr) => {
            if two {
                std::arch::asm!(
                    "tileloadd tmm4, [{a0} + {sa}*1]",
                    "tileloadd tmm5, [{a1} + {sa}*1]",
                    "tileloadd tmm6, [{b} + {sb}*1]",
                    "tileloadd tmm7, [{b} + {sb}*1 + 64]",
                    concat!($tdp, " tmm0, tmm4, tmm6"),
                    concat!($tdp, " tmm1, tmm4, tmm7"),
                    concat!($tdp, " tmm2, tmm5, tmm6"),
                    concat!($tdp, " tmm3, tmm5, tmm7"),
                    a0 = in(reg) a[0].add($q * ROW), a1 = in(reg) a[1].add($q * ROW),
                    sa = in(reg) a_stride, b = in(reg) b.add($q * B_STEP), sb = in(reg) B_ROW,
                    options(nostack, readonly),
                );
            } else {
                std::arch::asm!(
                    "tileloadd tmm4, [{a0} + {sa}*1]",
                    "tileloadd tmm6, [{b} + {sb}*1]",
                    "tileloadd tmm7, [{b} + {sb}*1 + 64]",
                    concat!($tdp, " tmm0, tmm4, tmm6"),
                    concat!($tdp, " tmm1, tmm4, tmm7"),
                    a0 = in(reg) a[0].add($q * ROW),
                    sa = in(reg) a_stride, b = in(reg) b.add($q * B_STEP), sb = in(reg) B_ROW,
                    options(nostack, readonly),
                );
            }
        };
    }
    for q in 0..steps {
        match op {
            Op::Int8 => step!("tdpbusd", q),
            Op::Bf16 => step!("tdpbf16ps", q),
        }
    }
}

/// Store tmm0/1 (and with `two` tmm2/3) as the block at `c`: rows
/// `stride` bytes apart, tmm1/3 64 bytes right of tmm0/2, tmm2/3
/// `half` bytes below tmm0/1.
///
/// # Safety
///
/// A [`TileConfig`] is loaded on this thread and every row of every
/// stored tile is writable: `(two ? half : 0) + (rows − 1)·stride + 128`
/// bytes from `c`.
// me-verify: hot
#[inline(always)]
unsafe fn block_store(two: bool, c: *mut u8, half: usize, stride: usize) {
    std::arch::asm!(
        "tilestored [{c0} + {s}*1], tmm0",
        "tilestored [{c0} + {s}*1 + 64], tmm1",
        c0 = in(reg) c, s = in(reg) stride, options(nostack),
    );
    if two {
        std::arch::asm!(
            "tilestored [{c1} + {s}*1], tmm2",
            "tilestored [{c1} + {s}*1 + 64], tmm3",
            c1 = in(reg) c.add(half), s = in(reg) stride, options(nostack),
        );
    }
}
