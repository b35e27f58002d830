//! Runtime-dispatched SIMD micro-kernels for the packed GEMM core.
//!
//! The paper frames matrix engines as the "next natural step" after SIMD
//! (§II-A, §V-B1) — which only means something if the SIMD baseline being
//! stepped past is credible. This module gives the measured host substrate
//! real arch-specific kernels instead of one scalar `mul_add` chain:
//!
//! - [`KernelVariant::Scalar`] — the original strictly-scalar MR×NR
//!   register tile (one `mul_add` per accumulator per k step), and the
//!   fallback on every host without AVX2,
//! - [`KernelVariant::Avx2`] — hand-written `core::arch::x86_64`
//!   intrinsics: 4-lane `__m256d` accumulator tiles for f64 (two registers
//!   per row) and an 8-lane `__m256` sibling for f32, selected only when
//!   `is_x86_feature_detected!` proves AVX2 *and* FMA at startup.
//! - [`KernelVariant::Avx512`] — an 8 × 24 f64 register block (below)
//!   and a 16-lane `__m512` 4 × 8 f32 tile packing two C rows per
//!   register, AVX512F-only intrinsics, selected when
//!   `is_x86_feature_detected!("avx512f")` holds.
//!
//! **The AVX-512 f64 register block.** The packed layout is the 4 × 8
//! one for every variant (`pack_a` writes MR = 4-row A micro-panels,
//! `pack_b` NR = 8-column B micro-panels). On AVX-512, f64 is computed
//! over [`BLOCK_RA`] = 2 adjacent A micro-panels × [`BLOCK_CB`] = 3
//! adjacent B micro-panels at once: 8 × 24 elements in 24 `__m512d`
//! accumulators, fed per k step by three B loads and eight broadcasts
//! into 24 `vfmadd231pd`; a 4 × 8 tile holds only four, whose chains at
//! FMA latency cap it at one FMA per cycle. One const-generic kernel,
//! `avx512_f64_block::<RA, CB>`, covers the full block and the edge
//! groups (`<1, 3>`, `<2, 1>`, `<1, 1>`, the last being the 4 × 8
//! tile). [`micro_block`] is the one entry point:
//! [`block_shape`] tells the caller how many micro-panels a block spans
//! (2 × 3 for f64 on AVX-512, 1 × 1 elsewhere), and AVX2, scalar and
//! every f32 path run their 4 × 8 tile per (A panel, B panel) pair.
//!
//! **Bitwise-identity contract.** Every variant performs, for each
//! accumulator of its tile or block, exactly one fused multiply-add per
//! k step in ascending-k order. IEEE-754 FMA is correctly rounded, and
//! the hardware `vfmadd` lanes compute the same correctly-rounded fused
//! result as the scalar `f64::mul_add` libm path — so all variants return
//! the *same bits* for the same packed panels, and the parallel GEMM's fixed-kernel
//! guarantee (serial ≡ parallel at every thread count) extends across
//! kernel variants. `tests/kernel_differential.rs` enforces this over a
//! seeded shape × alpha/beta × special-value grid rather than asserting it.
//!
//! **The f32 engine-call tile.** The Ozaki f32 slice products
//! (`gemm_f32_f32` / `gemm_half_f32`) do not run on the MR×NR GEMM tile:
//! `engine_tile` computes an [`MR_F32`] × [`NR_F32`] (8 × 32) tile, the
//! shape of the int8 engine tile, on panels in `PanelLayout::F32_A` /
//! `F32_B`. On AVX-512 each row is two `__m512`, 16 accumulators fed by
//! two B loads and one broadcast per row per k step, where the 4×8 f32
//! tile keeps two accumulators and permutes three times per step. AVX2
//! runs the same tile in 4-row × 16-column passes (8 `__m256`
//! accumulators), the scalar kernel the plain `mul_add` loop. The same
//! one-FMA-per-accumulator-per-ascending-k contract holds, so the bits
//! are those of the scalar chain; `crates/linalg/tests/f32_tile_edges.rs`
//! checks every variant across the tile edges.
//!
//! Selection happens once at startup through the [`KernelDispatch`] table:
//! the `ME_KERNEL` environment variable (`scalar` | `avx2` | `avx512`)
//! overrides the best-detected default, and benches/tests can override at
//! runtime with [`set_kernel_override`] for A/B comparisons. Every GEMM
//! reports the variant it ran through `me-trace` counters
//! (`ukernel.<variant>`) and span tags (`gemm.kernel.<variant>`).

use crate::mat::Scalar;

/// Micro-tile height in C rows (register rows per kernel invocation).
pub const MR: usize = 4;
/// Micro-tile width in C columns — one 8-lane f32 register, or two 4-lane
/// f64 registers.
pub const NR: usize = 8;
/// A micro-panels (MR rows each) per register block of the AVX-512 f64
/// kernel.
pub(crate) const BLOCK_RA: usize = 2;
/// B micro-panels (NR columns each) per register block of the AVX-512
/// f64 kernel.
pub(crate) const BLOCK_CB: usize = 3;
/// Rows of the largest register block (8): the parallel fronts cut C into
/// row panels at multiples of it, so no worker gets a lone 4-row tile
/// mid-panel.
pub(crate) const BLOCK_ROWS: usize = BLOCK_RA * MR;
/// One register block's accumulators as [`micro_block`] writes them: row
/// `q·MR + r` of A micro-panel `q`, column slot `c` for B micro-panel `c`.
pub(crate) type Block<T> = [[[T; NR]; BLOCK_CB]; BLOCK_ROWS];
/// Rows of the f32 engine-call register tile (`engine_tile`).
pub const MR_F32: usize = 8;
/// Columns of the f32 engine-call register tile: two 16-lane f32
/// registers.
pub const NR_F32: usize = 32;

/// Environment variable forcing a kernel variant at startup
/// (`scalar` | `avx2` | `avx512`, case-insensitive).
pub const KERNEL_ENV: &str = "ME_KERNEL";

/// One compiled-in micro-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Strictly scalar reference kernel (one `mul_add` chain per
    /// accumulator); the baseline every other variant must match bitwise,
    /// and the fallback when AVX2 is unavailable.
    Scalar,
    /// Hand-written AVX2+FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
    /// Hand-written AVX-512F intrinsics: 8-wide f64 / 16-wide f32 tiles
    /// (x86-64 only, runtime-detected); on AMX hosts the int8 and bf16
    /// engine calls run on AMX tiles (`blas3::amx`).
    Avx512,
}

impl KernelVariant {
    /// Every variant, in preference order (best last). A variant's
    /// position here is its one integer encoding (`index`).
    pub const ALL: [KernelVariant; 3] =
        [KernelVariant::Scalar, KernelVariant::Avx2, KernelVariant::Avx512];

    /// Position in [`Self::ALL`]: the index of this variant's slot in
    /// every per-variant table (dispatch override, blocking).
    pub(crate) fn index(self) -> usize {
        Self::ALL.iter().position(|&v| v == self).unwrap_or(0)
    }

    /// Short lower-case name, as accepted by `ME_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Avx2 => "avx2",
            KernelVariant::Avx512 => "avx512",
        }
    }

    /// Span name tagging work executed with this variant
    /// (`gemm.kernel.<name>`), plumbed into the `me-par` worker lanes.
    pub fn tag(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "gemm.kernel.scalar",
            KernelVariant::Avx2 => "gemm.kernel.avx2",
            KernelVariant::Avx512 => "gemm.kernel.avx512",
        }
    }

    /// `me-trace` counter name counting packed-panel invocations of this
    /// variant (`ukernel.<name>`).
    pub fn counter(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "ukernel.scalar",
            KernelVariant::Avx2 => "ukernel.avx2",
            KernelVariant::Avx512 => "ukernel.avx512",
        }
    }

    /// `me-trace` counter name counting int8 engine-call invocations of
    /// this variant (`ukernel.int8.<name>`, see `blas3::int8`).
    pub fn int8_counter(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "ukernel.int8.scalar",
            KernelVariant::Avx2 => "ukernel.int8.avx2",
            KernelVariant::Avx512 => "ukernel.int8.avx512",
        }
    }

    /// `me-trace` counter name counting half-precision engine-call
    /// invocations of this variant (`ukernel.half.<name>`, see
    /// `blas3::half`).
    pub fn half_counter(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "ukernel.half.scalar",
            KernelVariant::Avx2 => "ukernel.half.avx2",
            KernelVariant::Avx512 => "ukernel.half.avx512",
        }
    }

    /// Parse a `ME_KERNEL` value (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelVariant> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelVariant::Scalar),
            "avx2" => Some(KernelVariant::Avx2),
            "avx512" => Some(KernelVariant::Avx512),
            _ => None,
        }
    }

    /// Is this variant runnable on the current host?
    pub fn supported(self) -> bool {
        match self {
            KernelVariant::Scalar => true,
            KernelVariant::Avx2 => avx2_supported(),
            KernelVariant::Avx512 => avx512_supported(),
        }
    }

    /// This variant if the host supports it, else the fallback that runs
    /// everywhere ([`KernelVariant::Scalar`]). Public GEMM entry points
    /// sanitize through this, so an `Avx2` request on a non-AVX2 host
    /// degrades instead of executing illegal instructions.
    pub fn resolve_supported(self) -> KernelVariant {
        if self.supported() {
            self
        } else {
            KernelVariant::Scalar
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Does the host expose AVX2 *and* FMA? Both are required: AVX2 for the
/// 256-bit integer/permute support and FMA for `vfmadd` — the fused
/// operation the bitwise-identity contract is built on. Always `false`
/// off x86-64.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Does the host expose AVX-512 Foundation? AVX512F alone suffices: the
/// kernels use only `vmovup{s,d}`, `vbroadcasts{s,d}`-class splats,
/// `vpermps`, and `vfmadd` at 512-bit width — all Foundation
/// instructions (no DQ/BW/VL dependency). Always `false` off x86-64.
pub fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The variants the current host can actually run, in preference order
/// (best last). The differential harness iterates exactly this list.
pub fn available_variants() -> Vec<KernelVariant> {
    KernelVariant::ALL.iter().copied().filter(|v| v.supported()).collect()
}

/// The process-wide kernel dispatch table: a startup default resolved
/// once from `ME_KERNEL` + CPUID, plus a runtime override slot for A/B
/// benches. All GEMM entry points without an explicit variant read
/// [`KernelDispatch::selected`] through [`selected_kernel`].
#[derive(Debug)]
pub struct KernelDispatch {
    default: KernelVariant,
    /// 0 = no override; otherwise 1 + the variant's position in
    /// [`KernelVariant::ALL`]. An atomic (not a lock) so the hot GEMM
    /// entry pays one relaxed load.
    override_slot: std::sync::atomic::AtomicU8,
}

impl KernelDispatch {
    /// The lazily-initialized global table. The `ME_KERNEL` environment
    /// variable is read exactly once, on first use ("selected once at
    /// startup"); later env mutations are ignored by design.
    // me-verify: env-startup
    pub fn global() -> &'static KernelDispatch {
        static TABLE: std::sync::OnceLock<KernelDispatch> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| KernelDispatch {
            default: resolve_startup(std::env::var(KERNEL_ENV).ok().as_deref()),
            override_slot: std::sync::atomic::AtomicU8::new(0),
        })
    }

    /// The startup default (env override or best detected variant),
    /// unaffected by [`Self::set_override`].
    pub fn startup_default(&self) -> KernelVariant {
        self.default
    }

    /// The variant GEMMs run with right now: the runtime override if one
    /// is set, else the startup default.
    pub fn selected(&self) -> KernelVariant {
        let raw = self.override_slot.load(std::sync::atomic::Ordering::Relaxed) as usize;
        raw.checked_sub(1).and_then(|i| KernelVariant::ALL.get(i).copied()).unwrap_or(self.default)
    }

    /// Install (or with `None`, clear) a runtime override. Unsupported
    /// variants are sanitized at the GEMM entry, so installing `Avx2` on
    /// a non-AVX2 host is safe — it just runs `Scalar`.
    pub fn set_override(&self, v: Option<KernelVariant>) {
        let raw = v.map_or(0, |v| v.index() as u8 + 1);
        self.override_slot.store(raw, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Resolve the startup default from an optional `ME_KERNEL` value: a
/// recognized, supported name wins; a recognized-but-unsupported or
/// unrecognized value falls back to the best detected variant (with a
/// one-line note on stderr, never a panic).
fn resolve_startup(env: Option<&str>) -> KernelVariant {
    let best = if avx512_supported() {
        KernelVariant::Avx512
    } else if avx2_supported() {
        KernelVariant::Avx2
    } else {
        KernelVariant::Scalar
    };
    let Some(raw) = env else {
        return best;
    };
    match KernelVariant::parse(raw) {
        Some(v) if v.supported() => v,
        Some(v) => {
            eprintln!(
                "me-linalg: {KERNEL_ENV}={} not supported on this host; using {}",
                v.name(),
                v.resolve_supported().name()
            );
            v.resolve_supported()
        }
        None => {
            eprintln!(
                "me-linalg: unrecognized {KERNEL_ENV}={raw:?} (want scalar|avx2|avx512); \
                 using {}",
                best.name()
            );
            best
        }
    }
}

/// The variant GEMMs without an explicit `_with` argument run right now.
pub fn selected_kernel() -> KernelVariant {
    KernelDispatch::global().selected()
}

/// Install (or clear) the process-wide kernel override — the A/B switch
/// for benches and experiments. Safe with any variant; unsupported
/// requests degrade to `Scalar` at the GEMM entry.
pub fn set_kernel_override(v: Option<KernelVariant>) {
    KernelDispatch::global().set_override(v);
}

/// Plain Rust loops that [`KernelVariant::run`] compiles once per kernel
/// variant, for the compiler to vectorize at that variant's width.
/// Implementations mark [`Self::call`], and every helper its loops call,
/// `#[inline(always)]`: the loops must be compiled inside each variant's
/// copy of `run`, not once for baseline x86-64.
pub trait VariantWork {
    /// What the work returns.
    type Output;
    /// Do the work.
    fn call(self) -> Self::Output;
}

impl KernelVariant {
    /// Run `work` compiled for this variant's instruction set, after
    /// [`Self::resolve_supported`]: AVX-512F, AVX2, or the baseline. The
    /// compiler only chooses instructions: it neither fuses a multiply and
    /// an add into an FMA nor reorders floating-point operations, so the
    /// work computes the same bits on every variant.
    pub fn run<K: VariantWork>(self, work: K) -> K::Output {
        match self.resolve_supported() {
            // SAFETY: resolved, so `Avx512` means `avx512_supported()`
            // proved AVX512F, the only feature `run_avx512` enables.
            KernelVariant::Avx512 => unsafe { run_avx512(work) },
            // SAFETY: resolved, so `Avx2` means `avx2_supported()` proved
            // AVX2 and FMA, the features `run_avx2` enables.
            KernelVariant::Avx2 => unsafe { run_avx2(work) },
            KernelVariant::Scalar => work.call(),
        }
    }
}

/// [`VariantWork::call`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<K: VariantWork>(work: K) -> K::Output {
    work.call()
}

/// [`VariantWork::call`] compiled with AVX2 and FMA, so a `mul_add` in
/// the work is one `vfmadd` rather than a libm call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_avx2<K: VariantWork>(work: K) -> K::Output {
    work.call()
}

/// Non-x86 stand-in (never chosen there).
#[cfg(not(target_arch = "x86_64"))]
fn run_avx512<K: VariantWork>(work: K) -> K::Output {
    work.call()
}

/// Non-x86 stand-in (never chosen there).
#[cfg(not(target_arch = "x86_64"))]
fn run_avx2<K: VariantWork>(work: K) -> K::Output {
    work.call()
}

/// The register block `variant` computes for element type `T`, as
/// (A micro-panels, B micro-panels): [`BLOCK_RA`] × [`BLOCK_CB`] (8 × 24
/// elements) for f64 on AVX-512, one 4 × 8 tile everywhere else.
pub(crate) fn block_shape<T: Scalar>(variant: KernelVariant) -> (usize, usize) {
    if variant == KernelVariant::Avx512 && is::<T, f64>() {
        (BLOCK_RA, BLOCK_CB)
    } else {
        (1, 1)
    }
}

/// Compute one register block over packed micro-panels: `ap` holds `ra`
/// adjacent A micro-panels (`kc` steps of MR values each, as `pack_a`
/// lays them out), `bp` holds `cb` adjacent B micro-panels (`kc` steps of
/// NR values each, as `pack_b` lays them out). The MR × NR tile of A
/// panel `q` and B panel `c` lands in rows `q·MR..(q + 1)·MR`, column slot
/// `c` of `out`; the caller owns the write-back (which stays scalar in
/// every variant, preserving bitwise identity).
///
/// AVX-512 f64 computes the block in registers (up to 8 × 24, see
/// [`avx512_f64_block`]); every other variant and element type runs its
/// 4 × 8 tile once per (A panel, B panel) pair, which [`block_shape`]
/// keeps at one pair. `variant` must be supported on this host — public
/// entry points guarantee that via [`KernelVariant::resolve_supported`].
// me-verify: hot
#[inline]
pub(crate) fn micro_block<T: Scalar>(
    variant: KernelVariant,
    ap: &[T],
    bp: &[T],
    kc: usize,
    (ra, cb): (usize, usize),
    out: &mut Block<T>,
) {
    assert!(
        (1..=BLOCK_RA).contains(&ra) && (1..=BLOCK_CB).contains(&cb),
        "register block of {ra}x{cb} micro-panels exceeds {BLOCK_RA}x{BLOCK_CB}"
    );
    assert!(ap.len() >= ra * MR * kc && bp.len() >= cb * NR * kc, "packed panel too short");
    match variant {
        KernelVariant::Scalar => tiles(ap, bp, kc, (ra, cb), out, micro_kernel_scalar),
        KernelVariant::Avx2 => micro_block_avx2(ap, bp, kc, (ra, cb), out),
        KernelVariant::Avx512 => micro_block_avx512(ap, bp, kc, (ra, cb), out),
    }
}

/// Run a 4 × 8 `tile` kernel on every (A panel, B panel) pair of an
/// `ra` × `cb` block.
// me-verify: hot
#[inline(always)]
fn tiles<T: Scalar>(
    ap: &[T],
    bp: &[T],
    kc: usize,
    (ra, cb): (usize, usize),
    out: &mut Block<T>,
    tile: impl Fn(&[T], &[T], usize) -> [[T; NR]; MR],
) {
    for q in 0..ra {
        let apq = &ap[q * MR * kc..(q + 1) * MR * kc];
        for c in 0..cb {
            let acc = tile(apq, &bp[c * NR * kc..(c + 1) * NR * kc], kc);
            for (outr, accr) in out[q * MR..(q + 1) * MR].iter_mut().zip(acc) {
                outr[c] = accr;
            }
        }
    }
}

/// The original strictly scalar kernel: every accumulator receives
/// exactly one `mul_add` per k step, in ascending-k order — the rounding
/// order every other variant reproduces.
// me-verify: hot
#[inline]
fn micro_kernel_scalar<T: Scalar>(ap: &[T], bp: &[T], kc: usize) -> [[T; NR]; MR] {
    let mut acc = [[T::ZERO; NR]; MR];
    for p in 0..kc {
        let av = &ap[p * MR..(p + 1) * MR];
        let bv = &bp[p * NR..(p + 1) * NR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (accv, &bvv) in accr.iter_mut().zip(bv) {
                *accv = ar.mul_add(bvv, *accv);
            }
        }
    }
    acc
}

/// Is `T` the type `U`?
fn is<T: 'static, U: 'static>() -> bool {
    std::any::TypeId::of::<T>() == std::any::TypeId::of::<U>()
}

/// AVX2 dispatcher: picks the f64 or f32 intrinsic tile by element type.
/// Reaching this with an unsupported type (impossible for the two
/// `Scalar` impls in this crate) falls back to the scalar kernel.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[inline]
fn micro_block_avx2<T: Scalar>(
    ap: &[T],
    bp: &[T],
    kc: usize,
    shape: (usize, usize),
    out: &mut Block<T>,
) {
    if is::<T, f64>() {
        // SAFETY: `TypeId` equality proves `T` *is* `f64`, so the slice
        // and block reinterpretations are identity casts (same layout,
        // same length). `avx2_f64` requires AVX2+FMA, which the dispatch
        // contract guarantees (the `Avx2` variant is only selectable when
        // `avx2_supported()` holds), and `micro_block`'s panel-length
        // assert covers every tile's in-bounds requirement.
        unsafe {
            let ap64 = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), ap.len());
            let bp64 = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), bp.len());
            let out64 = &mut *(out as *mut Block<T>).cast::<Block<f64>>();
            tiles(ap64, bp64, kc, shape, out64, |a, b, kc| avx2_f64(a, b, kc));
        }
    } else if is::<T, f32>() {
        // SAFETY: as above with `T` == `f32`: identity casts, AVX2+FMA
        // guaranteed by the dispatch contract, and panel lengths asserted
        // in bounds.
        unsafe {
            let ap32 = std::slice::from_raw_parts(ap.as_ptr().cast::<f32>(), ap.len());
            let bp32 = std::slice::from_raw_parts(bp.as_ptr().cast::<f32>(), bp.len());
            let out32 = &mut *(out as *mut Block<T>).cast::<Block<f32>>();
            tiles(ap32, bp32, kc, shape, out32, |a, b, kc| avx2_f32(a, b, kc));
        }
    } else {
        tiles(ap, bp, kc, shape, out, micro_kernel_scalar);
    }
}

/// Non-x86 stand-in: the `Avx2` variant is never available here
/// ([`avx2_supported`] is `false`), so this only exists to keep the
/// dispatch total; it runs the scalar kernel.
// me-verify: hot
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn micro_block_avx2<T: Scalar>(
    ap: &[T],
    bp: &[T],
    kc: usize,
    shape: (usize, usize),
    out: &mut Block<T>,
) {
    tiles(ap, bp, kc, shape, out, micro_kernel_scalar);
}

/// 4×8 f64 micro-kernel on AVX2+FMA.
///
/// Register layout: `acc[r]` holds row `r` of the C tile as two 4-lane
/// `__m256d` (columns 0..4 and 4..8). Per k step: two unaligned loads of
/// the packed-B row, then for each of the MR rows one broadcast of the
/// packed-A value and one `vfmaddpd` per half — exactly one fused
/// multiply-add per accumulator per k step, ascending k, matching the
/// scalar kernel's rounding order lane for lane.
///
/// # Safety
///
/// Caller must guarantee AVX2+FMA are available (runtime-detected) and
/// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_f64(ap: &[f64], bp: &[f64], kc: usize) -> [[f64; NR]; MR] {
    use std::arch::x86_64::{
        _mm256_broadcast_sd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    let mut acc = [[_mm256_setzero_pd(); 2]; MR];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc and the caller guarantees
        // bp holds kc * NR elements, so both 4-lane loads stay in bounds.
        let b0 = _mm256_loadu_pd(bp.as_ptr().add(p * NR));
        let b1 = _mm256_loadu_pd(bp.as_ptr().add(p * NR + 4));
        let av = &ap[p * MR..(p + 1) * MR];
        for (accr, ar) in acc.iter_mut().zip(av) {
            let a = _mm256_broadcast_sd(ar);
            accr[0] = _mm256_fmadd_pd(a, b0, accr[0]);
            accr[1] = _mm256_fmadd_pd(a, b1, accr[1]);
        }
    }
    let mut out = [[0.0f64; NR]; MR];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: outr is an [f64; 8]; the two stores cover lanes 0..4
        // and 4..8 exactly.
        _mm256_storeu_pd(outr.as_mut_ptr(), accr[0]);
        _mm256_storeu_pd(outr.as_mut_ptr().add(4), accr[1]);
    }
    out
}

/// 4×8 f32 micro-kernel on AVX2+FMA: one 8-lane `__m256` accumulator per
/// C-tile row, one `vfmaddps` per row per k step (ascending k) — the
/// 8-lane sibling of [`avx2_f64`] with the identical rounding order.
///
/// # Safety
///
/// Caller must guarantee AVX2+FMA are available (runtime-detected) and
/// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_f32(ap: &[f32], bp: &[f32], kc: usize) -> [[f32; NR]; MR] {
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let mut acc = [_mm256_setzero_ps(); MR];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc and the caller guarantees
        // bp holds kc * NR elements, so the 8-lane load stays in bounds.
        let b = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
        let av = &ap[p * MR..(p + 1) * MR];
        for (accr, ar) in acc.iter_mut().zip(av) {
            let a = _mm256_broadcast_ss(ar);
            *accr = _mm256_fmadd_ps(a, b, *accr);
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: outr is an [f32; 8]; one 8-lane store covers it exactly.
        _mm256_storeu_ps(outr.as_mut_ptr(), *accr);
    }
    out
}

/// AVX-512 dispatcher: f64 runs the register block, split into
/// [`avx512_f64_block`] instances; f32 runs the 4 × 8 [`avx512_f32`]
/// tile per pair. Unsupported element types fall back to the scalar
/// kernel.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[inline]
fn micro_block_avx512<T: Scalar>(
    ap: &[T],
    bp: &[T],
    kc: usize,
    (ra, cb): (usize, usize),
    out: &mut Block<T>,
) {
    if is::<T, f64>() {
        // SAFETY: `TypeId` equality proves `T` *is* `f64`, so the slice
        // and block reinterpretations are identity casts (same layout,
        // same length). `avx512_f64_block` requires AVX512F, which the
        // dispatch contract guarantees (the `Avx512` variant is only
        // selectable when `avx512_supported()` holds). `micro_block`
        // asserted `ra <= 2`, `cb <= 3`, `ap.len() >= ra·MR·kc` and
        // `bp.len() >= cb·NR·kc`, so each instance below gets its
        // `RA·MR·kc` A values and `CB·NR·kc` B values (B panel `c` starts
        // at `c·NR·kc`), and `c + CB <= 3` column slots.
        unsafe {
            let ap = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), ap.len());
            let bp = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), bp.len());
            let out = &mut *(out as *mut Block<T>).cast::<Block<f64>>();
            match (ra, cb) {
                (BLOCK_RA, BLOCK_CB) => avx512_f64_block::<BLOCK_RA, BLOCK_CB>(ap, bp, kc, out, 0),
                (1, BLOCK_CB) => avx512_f64_block::<1, BLOCK_CB>(ap, bp, kc, out, 0),
                // Edge groups (past the last whole 24 columns): one B
                // micro-panel at a time.
                (BLOCK_RA, _) => {
                    for c in 0..cb {
                        avx512_f64_block::<BLOCK_RA, 1>(ap, &bp[c * NR * kc..], kc, out, c);
                    }
                }
                _ => {
                    for c in 0..cb {
                        avx512_f64_block::<1, 1>(ap, &bp[c * NR * kc..], kc, out, c);
                    }
                }
            }
        }
    } else if is::<T, f32>() {
        // SAFETY: as above with `T` == `f32`: identity casts, AVX512F
        // guaranteed by the dispatch contract, and panel lengths asserted
        // in bounds for every 4 × 8 tile.
        unsafe {
            let ap32 = std::slice::from_raw_parts(ap.as_ptr().cast::<f32>(), ap.len());
            let bp32 = std::slice::from_raw_parts(bp.as_ptr().cast::<f32>(), bp.len());
            let out32 = &mut *(out as *mut Block<T>).cast::<Block<f32>>();
            tiles(ap32, bp32, kc, (ra, cb), out32, |a, b, kc| avx512_f32(a, b, kc));
        }
    } else {
        tiles(ap, bp, kc, (ra, cb), out, micro_kernel_scalar);
    }
}

/// Non-x86 stand-in: the `Avx512` variant is never available here
/// ([`avx512_supported`] is `false`), so this only exists to keep the
/// dispatch total; it runs the scalar kernel.
// me-verify: hot
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn micro_block_avx512<T: Scalar>(
    ap: &[T],
    bp: &[T],
    kc: usize,
    shape: (usize, usize),
    out: &mut Block<T>,
) {
    tiles(ap, bp, kc, shape, out, micro_kernel_scalar);
}

/// The f64 register block on AVX512F: `RA` adjacent A micro-panels × `CB`
/// adjacent B micro-panels, `RA·MR` C rows × `CB·NR` columns held in
/// `RA·MR·CB` 8-lane `__m512d` accumulators (24 for the full 8 × 24
/// block; the `<1, 1>` instance is the 4 × 8 tile). Per k step: `CB`
/// unaligned loads of the packed-B rows, then for each of the `RA·MR`
/// rows one broadcast of the packed-A value and `CB` `vfmadd231pd` —
/// exactly one fused multiply-add per accumulator per k step, ascending
/// k, matching the scalar kernel's rounding order lane for lane (a
/// correctly-rounded FMA is the same bits wherever it runs). Results land
/// in rows `0..RA·MR`, column slots `c0..c0 + CB` of `out`.
///
/// # Safety
///
/// Caller must guarantee AVX512F is available (runtime-detected),
/// `ap.len() >= RA·MR·kc`, `bp.len() >= CB·NR·kc` (panels `MR·kc` and
/// `NR·kc` apart, as packed) and `c0 + CB <= BLOCK_CB`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_f64_block<const RA: usize, const CB: usize>(
    ap: &[f64],
    bp: &[f64],
    kc: usize,
    out: &mut Block<f64>,
    c0: usize,
) {
    use std::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd,
    };
    let mut acc = [[[_mm512_setzero_pd(); CB]; MR]; RA];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc, c < CB and q < RA, so each
        // 8-lane B load ends at most at CB·NR·kc <= bp.len() and each A
        // read at RA·MR·kc <= ap.len().
        let mut b = [_mm512_setzero_pd(); CB];
        for (c, bc) in b.iter_mut().enumerate() {
            *bc = _mm512_loadu_pd(bp.as_ptr().add(c * NR * kc + p * NR));
        }
        for (q, accq) in acc.iter_mut().enumerate() {
            let av = ap.as_ptr().add(q * MR * kc + p * MR);
            for (r, accr) in accq.iter_mut().enumerate() {
                let a = _mm512_set1_pd(*av.add(r));
                for (accv, bc) in accr.iter_mut().zip(&b) {
                    *accv = _mm512_fmadd_pd(a, *bc, *accv);
                }
            }
        }
    }
    for (q, accq) in acc.iter().enumerate() {
        for (r, accr) in accq.iter().enumerate() {
            for (c, accv) in accr.iter().enumerate() {
                // SAFETY: the slot is an [f64; 8]; one 8-lane store
                // covers it exactly.
                _mm512_storeu_pd(out[q * MR + r][c0 + c].as_mut_ptr(), *accv);
            }
        }
    }
}

/// 4×8 f32 micro-kernel on AVX512F: two 16-lane `__m512` accumulators,
/// each packing two adjacent C rows (lanes 0..8 = row 2q, lanes 8..16 =
/// row 2q+1). Per k step: the 8-value packed-B row is loaded once and
/// lane-duplicated into both halves with `vpermps`, the A pair is
/// pair-broadcast the same way, and each accumulator receives one
/// `vfmadd231ps` — still exactly one fused multiply-add per scalar
/// accumulator lane per k step, ascending k, so the bitwise-identity
/// contract holds.
///
/// Only AVX512F instructions are used: `_mm512_permutexvar_ps` indexes
/// never select lanes above 7, so the undefined upper lanes of the
/// 128/256→512 casts are never observed.
///
/// # Safety
///
/// Caller must guarantee AVX512F is available (runtime-detected) and
/// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_f32(ap: &[f32], bp: &[f32], kc: usize) -> [[f32; NR]; MR] {
    use std::arch::x86_64::{
        _mm256_loadu_ps, _mm512_castps128_ps512, _mm512_castps256_ps512, _mm512_fmadd_ps,
        _mm512_permutexvar_ps, _mm512_setr_epi32, _mm512_setzero_ps, _mm512_storeu_ps,
        _mm_loadu_ps,
    };
    // Duplicate B's 8 lanes into both 256-bit halves.
    let dup_b = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7);
    // Broadcast A lane 2q into the low half and lane 2q+1 into the high.
    let pair0 = _mm512_setr_epi32(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1);
    let pair1 = _mm512_setr_epi32(2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
    let mut acc = [_mm512_setzero_ps(); MR / 2];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc and the caller guarantees
        // bp holds kc * NR elements and ap holds kc * MR, so the 8-lane B
        // load and the widened A splat stay in bounds.
        let b8 = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
        let b = _mm512_permutexvar_ps(dup_b, _mm512_castps256_ps512(b8));
        // MR = 4 A values in one 4-lane load; the pair permutes read only
        // lanes 0..4, so the cast's undefined upper lanes are never used.
        let a4 = _mm512_castps128_ps512(_mm_loadu_ps(ap.as_ptr().add(p * MR)));
        let a01 = _mm512_permutexvar_ps(pair0, a4);
        let a23 = _mm512_permutexvar_ps(pair1, a4);
        acc[0] = _mm512_fmadd_ps(a01, b, acc[0]);
        acc[1] = _mm512_fmadd_ps(a23, b, acc[1]);
    }
    let mut out = [[0.0f32; NR]; MR];
    let out_ptr = out.as_mut_ptr().cast::<f32>();
    // SAFETY: out is a contiguous [[f32; 8]; 4] = 32 f32; the two 16-lane
    // stores cover rows 0..2 and 2..4 exactly.
    _mm512_storeu_ps(out_ptr, acc[0]);
    _mm512_storeu_ps(out_ptr.add(16), acc[1]);
    out
}

/// One [`MR_F32`] × [`NR_F32`] tile of the f32 engine call: `ap` holds
/// `kc` steps of 8 A values, `bp` `kc` steps of 32 B values (the
/// `PanelLayout::F32_A` / `F32_B` tile blocks). Rows from `mr` and
/// columns from `nr` on are padding the caller drops; a kernel may leave
/// them unset. Every valid accumulator gets one correctly-rounded FMA per
/// ascending k step on every variant, so every variant returns the scalar
/// bits.
// me-verify: hot
pub(crate) fn engine_tile(
    variant: KernelVariant,
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    mr: usize,
    nr: usize,
) -> [[f32; NR_F32]; MR_F32] {
    assert!(ap.len() >= kc * MR_F32 && bp.len() >= kc * NR_F32, "packed tile too short");
    assert!(mr <= MR_F32 && nr <= NR_F32, "engine tile: {mr}x{nr} exceeds the tile");
    #[cfg(target_arch = "x86_64")]
    {
        let v = variant.resolve_supported();
        if v != KernelVariant::Scalar {
            // SAFETY: resolved, so `Avx512` means `avx512_supported()`
            // proved AVX512F and `Avx2` that `avx2_supported()` proved
            // AVX2 and FMA, the features each kernel enables; the asserts
            // above cover every load either makes.
            return unsafe {
                if v == KernelVariant::Avx512 {
                    engine_tile_avx512(ap, bp, kc)
                } else {
                    engine_tile_avx2(ap, bp, kc, mr, nr)
                }
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = variant;
    engine_tile_scalar(ap, bp, kc, mr, nr)
}

/// The scalar engine tile: one `mul_add` per valid accumulator per k step,
/// ascending k — the chain every other variant reproduces.
// me-verify: hot
fn engine_tile_scalar(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    mr: usize,
    nr: usize,
) -> [[f32; NR_F32]; MR_F32] {
    let mut acc = [[0.0f32; NR_F32]; MR_F32];
    for p in 0..kc {
        let av = &ap[p * MR_F32..(p + 1) * MR_F32];
        let bv = &bp[p * NR_F32..p * NR_F32 + nr];
        for (accr, &a) in acc.iter_mut().zip(av).take(mr) {
            for (accv, &b) in accr.iter_mut().zip(bv) {
                *accv = a.mul_add(b, *accv);
            }
        }
    }
    acc
}

/// 8×32 f32 engine tile on AVX512F: `acc[r]` holds row `r` as two 16-lane
/// `__m512`, 16 accumulators in all. Per k step: two loads of the 32 B
/// values, and per row one broadcast of the A value and two
/// `vfmadd231ps` — one fused multiply-add per accumulator per k step,
/// ascending k.
///
/// # Safety
///
/// Caller must guarantee AVX512F (runtime-detected) and
/// `ap.len() >= 8·kc`, `bp.len() >= 32·kc`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn engine_tile_avx512(ap: &[f32], bp: &[f32], kc: usize) -> [[f32; NR_F32]; MR_F32] {
    use std::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    let mut acc = [[_mm512_setzero_ps(); 2]; MR_F32];
    for p in 0..kc {
        // SAFETY (pointers): p < kc, so the two 16-lane B loads end at
        // most at 32·kc <= bp.len(), and each A read at 8·p + 8 <= ap.len().
        let b = bp.as_ptr().add(p * NR_F32);
        let (b0, b1) = (_mm512_loadu_ps(b), _mm512_loadu_ps(b.add(16)));
        let av = ap.as_ptr().add(p * MR_F32);
        for (r, accr) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*av.add(r));
            accr[0] = _mm512_fmadd_ps(a, b0, accr[0]);
            accr[1] = _mm512_fmadd_ps(a, b1, accr[1]);
        }
    }
    let mut out = [[0.0f32; NR_F32]; MR_F32];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: outr is an [f32; 32]; the two 16-lane stores cover it.
        _mm512_storeu_ps(outr.as_mut_ptr(), accr[0]);
        _mm512_storeu_ps(outr.as_mut_ptr().add(16), accr[1]);
    }
    out
}

/// The 8×32 f32 engine tile on AVX2+FMA, in passes of 4 rows × 16
/// columns: 8 `__m256` accumulators, and per k step two loads of B and,
/// per row, one broadcast of A and two `vfmaddps` — one fused
/// multiply-add per accumulator per k step, ascending k. Passes wholly
/// past `mr` rows or `nr` columns are skipped.
///
/// # Safety
///
/// Caller must guarantee AVX2 and FMA (runtime-detected),
/// `ap.len() >= 8·kc`, `bp.len() >= 32·kc`, `mr <= 8` and `nr <= 32`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn engine_tile_avx2(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    mr: usize,
    nr: usize,
) -> [[f32; NR_F32]; MR_F32] {
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    const ROWS: usize = 4;
    const COLS: usize = 16;
    let mut out = [[0.0f32; NR_F32]; MR_F32];
    for r0 in (0..mr).step_by(ROWS) {
        for j0 in (0..nr).step_by(COLS) {
            let mut acc = [[_mm256_setzero_ps(); 2]; ROWS];
            for p in 0..kc {
                // SAFETY (pointers): p < kc, r0 <= 4 and j0 <= 16, so the
                // two 8-lane B loads end at most at 32·kc <= bp.len(), and
                // each A read at 8·p + 8 <= ap.len().
                let b = bp.as_ptr().add(p * NR_F32 + j0);
                let (b0, b1) = (_mm256_loadu_ps(b), _mm256_loadu_ps(b.add(8)));
                let av = ap.as_ptr().add(p * MR_F32 + r0);
                for (r, accr) in acc.iter_mut().enumerate() {
                    let a = _mm256_broadcast_ss(&*av.add(r));
                    accr[0] = _mm256_fmadd_ps(a, b0, accr[0]);
                    accr[1] = _mm256_fmadd_ps(a, b1, accr[1]);
                }
            }
            for (outr, accr) in out[r0..r0 + ROWS].iter_mut().zip(&acc) {
                // SAFETY: j0 <= 16 and outr is an [f32; 32], so the two
                // 8-lane stores end at most at its end.
                _mm256_storeu_ps(outr.as_mut_ptr().add(j0), accr[0]);
                _mm256_storeu_ps(outr.as_mut_ptr().add(j0 + 8), accr[1]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(kc: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let ap: Vec<f64> = (0..kc * BLOCK_ROWS).map(|_| next()).collect();
        let bp: Vec<f64> = (0..kc * BLOCK_CB * NR).map(|_| next()).collect();
        (ap, bp)
    }

    /// Every block shape of `variant` against the scalar 4 × 8 tile of
    /// each (A panel, B panel) pair, bit for bit.
    fn check_blocks<T: Scalar + std::fmt::Debug>(
        variant: KernelVariant,
        ap: &[T],
        bp: &[T],
        kc: usize,
    ) {
        for ra in 1..=BLOCK_RA {
            for cb in 1..=BLOCK_CB {
                let mut out = [[[T::ZERO; NR]; BLOCK_CB]; BLOCK_ROWS];
                micro_block(variant, ap, bp, kc, (ra, cb), &mut out);
                for q in 0..ra {
                    for c in 0..cb {
                        let want = micro_kernel_scalar(
                            &ap[q * MR * kc..(q + 1) * MR * kc],
                            &bp[c * NR * kc..(c + 1) * NR * kc],
                            kc,
                        );
                        for (r, wr) in want.iter().enumerate() {
                            assert_eq!(
                                &out[q * MR + r][c],
                                wr,
                                "{variant} {ra}x{cb} block != scalar at kc={kc} row {} panel {c}",
                                q * MR + r
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_matches_scalar_bitwise_when_available() {
        if !avx2_supported() {
            return;
        }
        for kc in [1usize, 3, 64, 256] {
            let (ap, bp) = panels(kc, 1000 + kc as u64);
            check_blocks(KernelVariant::Avx2, &ap, &bp, kc);
        }
    }

    #[test]
    fn avx512_matches_scalar_bitwise_when_available() {
        if !avx512_supported() {
            eprintln!("ukernel tests: host lacks avx512f; skipping avx512 bitwise pin");
            return;
        }
        assert_eq!(block_shape::<f64>(KernelVariant::Avx512), (BLOCK_RA, BLOCK_CB));
        for kc in [1usize, 3, 64, 256] {
            let (ap, bp) = panels(kc, 5000 + kc as u64);
            check_blocks(KernelVariant::Avx512, &ap, &bp, kc);
        }
    }

    #[test]
    fn f32_variants_agree_bitwise() {
        let kc = 37;
        let ap: Vec<f32> = (0..kc * BLOCK_ROWS).map(|i| (i as f32).sin()).collect();
        let bp: Vec<f32> = (0..kc * BLOCK_CB * NR).map(|i| (i as f32).cos()).collect();
        for v in available_variants() {
            assert_eq!(block_shape::<f32>(v), (1, 1), "{v}: f32 keeps the 4x8 tile");
            check_blocks(v, &ap, &bp, kc);
        }
    }

    #[test]
    fn parse_and_names_roundtrip() {
        for (i, v) in KernelVariant::ALL.into_iter().enumerate() {
            assert_eq!(v.index(), i);
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
            assert_eq!(KernelVariant::parse(&v.name().to_uppercase()), Some(v));
            assert!(v.tag().ends_with(v.name()));
            assert!(v.counter().ends_with(v.name()));
        }
        assert_eq!(KernelVariant::parse("neon"), None);
        assert_eq!(KernelVariant::parse("portable"), None);
        assert_eq!(KernelVariant::parse(""), None);
    }

    #[test]
    fn startup_resolution_policy() {
        let best = if avx512_supported() {
            KernelVariant::Avx512
        } else if avx2_supported() {
            KernelVariant::Avx2
        } else {
            KernelVariant::Scalar
        };
        assert_eq!(resolve_startup(None), best);
        assert_eq!(resolve_startup(Some("SCALAR")), KernelVariant::Scalar);
        assert_eq!(resolve_startup(Some("bogus")), best);
        // The retired `portable` variant is just an unrecognized value now.
        assert_eq!(resolve_startup(Some("portable")), best);
        // avx2/avx512 requested: honored when detected, degraded otherwise.
        let got = resolve_startup(Some("avx2"));
        assert_eq!(got, if avx2_supported() { KernelVariant::Avx2 } else { KernelVariant::Scalar });
        let got = resolve_startup(Some("AVX512"));
        assert_eq!(
            got,
            if avx512_supported() { KernelVariant::Avx512 } else { KernelVariant::Scalar }
        );
    }

    #[test]
    fn available_variants_always_contains_scalar() {
        let avail = available_variants();
        assert!(avail.contains(&KernelVariant::Scalar));
        assert_eq!(avail.contains(&KernelVariant::Avx2), avx2_supported());
        assert_eq!(avail.contains(&KernelVariant::Avx512), avx512_supported());
        for v in avail {
            assert_eq!(v.resolve_supported(), v);
        }
    }

    #[test]
    fn override_slot_wins_and_clears() {
        let table = KernelDispatch {
            default: KernelVariant::Scalar,
            override_slot: std::sync::atomic::AtomicU8::new(0),
        };
        assert_eq!(table.selected(), KernelVariant::Scalar);
        for v in KernelVariant::ALL {
            table.set_override(Some(v));
            assert_eq!(table.selected(), v);
            assert_eq!(table.startup_default(), KernelVariant::Scalar);
        }
        table.set_override(None);
        assert_eq!(table.selected(), KernelVariant::Scalar);
    }

    #[test]
    fn unsupported_resolves_to_scalar() {
        if avx2_supported() {
            assert_eq!(KernelVariant::Avx2.resolve_supported(), KernelVariant::Avx2);
        } else {
            assert_eq!(KernelVariant::Avx2.resolve_supported(), KernelVariant::Scalar);
        }
        if avx512_supported() {
            assert_eq!(KernelVariant::Avx512.resolve_supported(), KernelVariant::Avx512);
        } else {
            assert_eq!(KernelVariant::Avx512.resolve_supported(), KernelVariant::Scalar);
        }
        assert_eq!(KernelVariant::Scalar.resolve_supported(), KernelVariant::Scalar);
    }
}
