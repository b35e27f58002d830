//! The Ozaki-scheme GEMM, dot product and GEMV (steps 2–3 of the scheme),
//! written once for every substrate.
//!
//! A substrate is a [`SliceEngine`]. It decides only what Uchino & Ozaki
//! show differs between substrates: the slice width β (its storage and
//! accumulator caps), the stored slice word with its exact narrowing, the
//! packed panel layouts its kernel streams, the engine call, and the names
//! it traces under. The driver behind every GEMM entry point
//! ([`ozaki_gemm_on`]) does the rest once: split each line of A (rows) and
//! B (columns) straight into one panel of words per slice, packed as the
//! split writes it into the engine's panel layout
//! ([`SliceEngine::LAYOUT_A`], [`SliceEngine::LAYOUT_B`]; a layout also
//! carries any operand format its kernel wants, such as INT8's offset A
//! bytes and B column sums) — so each slice is packed once per call and
//! every engine call only computes — and fold the
//! slice-pair engine calls into a row panel of accumulators in a fixed
//! `(p, q) → k-chunk → element` order. Because that per-element order never
//! depends on the row partition, [`ozaki_gemm_parallel`] — which fans row
//! panels, rounded to A's tile height, over a persistent
//! [`me_par::WorkerPool`] — is bitwise identical to [`ozaki_gemm`] for any
//! thread count. Each substrate gets its own monomorphized copy of the
//! driver.
//!
//! The FP64 work around the engine calls runs on the kernel variant the
//! call resolved, like the calls themselves. The split is compiled per
//! variant ([`me_linalg::KernelVariant::run`], see [`crate::split`]). The
//! accumulators are struct-of-arrays double-doubles (`hi`, `lo`; C is
//! `hi + lo`), and every engine call's tile is folded into them by
//! [`me_linalg::fold_tile`]: 8 or 4 lanes of `Accumulator::add`'s
//! operations, in its order, with no multiply fused into an add. Neither
//! changes a bit, on any variant (DESIGN §9).
//!
//! [`OzakiConfig`], the simulated f16-multiply/f32-accumulate matrix
//! engine, stores integer-valued `f32` slices and runs every engine call —
//! in GEMM, GEMV and dot alike — through [`me_linalg::gemm_f32_f32`]: the
//! packed 8 × 32 f32 engine tile on the kernel variant the host selected
//! at startup ([`selected_kernel`]), the same core the host-f16 substrate
//! reaches through `gemm_half_f32`. Each kernel variant performs one
//! correctly-rounded FMA per accumulator per ascending k step (DESIGN §9),
//! so a chunk sum carries the bits of the ascending scalar `mul_add` chain
//! over the chunk — exact or not — and the result does not depend on the
//! kernel the host picked. On an AMX host a GEMM whose slices fit bf16
//! and whose chunk sums are exact in any order runs instead as
//! [`Bf16Words`], on the host's own matrix engine: exact sums are the
//! chain's bits whatever order the engine adds in.

use crate::split::{ceil_log2, required_beta, split_rows, Call, Pack, Panels, Plan, Source, SplitMatrix};
use crate::workspace::{with_arena, ALIGNED_PANELS};
use me_engine::{catalog, Device, EngineKind, NumericFormat};
use me_linalg::blas3::amx::bf16_on;
use me_linalg::{
    fold_tile, gemm_bf16_f32, gemm_f32_f32, selected_kernel, AlignedBuf, FoldSum, HalfKind,
    KernelVariant, Mat, PanelChunk, PanelLayout, PanelWord, Pod,
};
use me_numerics::formats::narrow_f32_exact;
use me_par::WorkerPool;

/// Target accuracy / truncation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetAccuracy {
    /// Keep slicing until the residual is exactly zero and compute the full
    /// all-to-all product: the result is the error-free product rounded
    /// once at the end ("most accurate" mode of the paper).
    Exact,
    /// Slice and truncate so the result matches what a correctly-functioning
    /// DGEMM would produce (~f64-accuracy): slices cover `53 + ⌈log₂k⌉`
    /// bits below each line's maximum, and slice pairs with
    /// `p + q ≥ cutoff` are skipped.
    DgemmEquivalent,
    /// Like `DgemmEquivalent` but targeting f32 (SGEMM) accuracy:
    /// `24 + ⌈log₂k⌉` bits.
    SgemmEquivalent,
}

/// Configuration of the simulated matrix engine and accuracy target.
#[derive(Debug, Clone, Copy)]
pub struct OzakiConfig {
    /// Precision (significand bits incl. implicit bit) of the engine's
    /// multiply format: 11 for f16 Tensor Cores.
    pub mul_precision: u32,
    /// Precision of the engine's accumulator: 24 for f32 accumulation.
    pub acc_precision: u32,
    /// Accuracy target.
    pub target: TargetAccuracy,
    /// Hard cap on slices per operand (safety bound).
    pub max_slices: usize,
    /// Inner-dimension blocking: the engine accumulates at most `k_block`
    /// products in its narrow accumulator before the partial result is
    /// folded into the f64 accumulation. The published DGEMM-TC does the
    /// same — it lets β grow (`required_beta(k_block)` instead of
    /// `required_beta(k)`), reducing the slice count for large k.
    pub k_block: usize,
}

impl Default for OzakiConfig {
    fn default() -> Self {
        // V100 Tensor Core: f16 multiply, f32 accumulate.
        OzakiConfig {
            mul_precision: 11,
            acc_precision: 24,
            target: TargetAccuracy::DgemmEquivalent,
            max_slices: 128,
            k_block: 256,
        }
    }
}

impl OzakiConfig {
    /// Tensor-core configuration at DGEMM-equivalent accuracy
    /// (the paper's "DGEMM-TC").
    pub fn dgemm_tc() -> Self {
        Self::default()
    }

    /// Tensor-core configuration at SGEMM-equivalent accuracy ("SGEMM-TC").
    pub fn sgemm_tc() -> Self {
        OzakiConfig { target: TargetAccuracy::SgemmEquivalent, ..Self::default() }
    }
}

pub(crate) mod sealed {
    use me_linalg::KernelVariant;

    /// Closes [`super::SliceEngine`] to the crate's three substrates: the
    /// driver's exactness rests on each implementation's β cap.
    pub trait Sealed {
        /// The bf16-word form the driver runs this engine as, for inner
        /// dimension `k` on resolved `kernel`, if it has one there: only
        /// the simulated matrix engine does ([`super::Bf16Words`]).
        fn bf16_words(&self, _k: usize, _kernel: KernelVariant) -> Option<super::Bf16Words> {
            None
        }
    }
}

/// The span and counter names one substrate traces under.
#[derive(Debug, Clone, Copy)]
pub struct SliceTrace {
    /// Span over the split and the slice packing.
    pub split: &'static str,
    /// Span over one row panel's engine calls and fold.
    pub accumulate: &'static str,
    /// Span over one engine call, inside `accumulate`.
    pub products: &'static str,
    /// Counter: slices of A.
    pub slices_a: &'static str,
    /// Counter: slices of B.
    pub slices_b: &'static str,
    /// Counter: slice pairs computed.
    pub products_computed: &'static str,
    /// Counter: slice pairs skipped by the cutoff.
    pub products_skipped: &'static str,
    /// Counter: engine calls (pairs × k-chunks).
    pub engine_calls: &'static str,
    /// Counter: slice panels packed into the engine's layout, one per
    /// slice of A and of B (`s_a + s_b` per GEMM).
    pub panel_packs: &'static str,
}

/// The [`SliceTrace`] whose names are `$prefix.split`, `$prefix.accumulate`,
/// `$prefix.products` and so on.
macro_rules! slice_trace {
    ($prefix:literal) => {
        $crate::gemm::SliceTrace {
            split: concat!($prefix, ".split"),
            accumulate: concat!($prefix, ".accumulate"),
            products: concat!($prefix, ".products"),
            slices_a: concat!($prefix, ".slices_a"),
            slices_b: concat!($prefix, ".slices_b"),
            products_computed: concat!($prefix, ".products_computed"),
            products_skipped: concat!($prefix, ".products_skipped"),
            engine_calls: concat!($prefix, ".engine_calls"),
            panel_packs: concat!($prefix, ".panel_packs"),
        }
    };
}
pub(crate) use slice_trace;

/// One Ozaki substrate: what differs between the simulated matrix engine
/// ([`OzakiConfig`]), the host f16 kernels
/// ([`crate::host_f16::HostF16Engine`]) and the host INT8 kernels
/// ([`crate::int8::Int8Engine`]). Everything else — split, budget and
/// cutoff, panel packing, pool fan-out and fold — is the one driver in
/// this module. Sealed: only these three implement it.
pub trait SliceEngine: sealed::Sealed {
    /// The stored slice word: integer-valued `f32`, binary16 bits or `i8`.
    type Word: PanelWord + Send + Sync;
    /// One engine call's chunk sum: `f32`, or `i32` for INT8.
    type Sum: FoldSum + Pod;
    /// Span and counter names.
    const TRACE: SliceTrace;

    /// Slice width β for inner dimension `k`: the widest slice whose
    /// integers fit the stored word and whose [`Self::effective_k`]-long
    /// chunk sums fit the accumulator's exactness budget.
    fn beta(&self, k: usize) -> u32;
    /// Accuracy target.
    fn target(&self) -> TargetAccuracy;
    /// Hard cap on slices per operand.
    fn max_slices(&self) -> usize;
    /// Inner-dimension blocking: the accumulation length of one engine
    /// call.
    fn k_block(&self) -> usize;
    /// Packed layout of A's slice panels (rows).
    const LAYOUT_A: PanelLayout;
    /// Packed layout of B's slice panels (columns).
    const LAYOUT_B: PanelLayout;

    /// Narrow a scaled slice integer into the stored word, exactly.
    fn narrow(x: f64) -> Self::Word;
    /// One engine call on kernel `variant` over one k-chunk of the packed
    /// panels: `out[i·n + j] = Σ_{p<kc} a_i[p] · b_j[p]` for the `m` rows of
    /// `a` and the `n` columns of `b`.
    fn engine_call(
        variant: KernelVariant,
        m: usize,
        n: usize,
        kc: usize,
        a: PanelChunk<'_, Self::Word>,
        b: PanelChunk<'_, Self::Word>,
        out: &mut [Self::Sum],
    );
    /// The device, engine and format [`crate::perf::project_emulated`]
    /// charges the slice products on.
    fn charged_on() -> (Device, EngineKind, NumericFormat);

    /// Accumulation length of one engine call for inner dimension `k`.
    fn effective_k(&self, k: usize) -> usize {
        k.max(1).min(self.k_block().max(1))
    }

    /// Slice budget and pair cutoff for inner dimension `k` at width
    /// `beta`: each extraction advances at least β bits, so covering the
    /// target's bits needs `⌈target/β⌉` slices (plus guard), and slice
    /// pairs `(p, q)` with `p + q` beyond the same depth contribute below
    /// the target.
    fn budget_and_cutoff(&self, k: usize, beta: u32) -> (usize, usize) {
        let log2k = ceil_log2(k.max(1));
        let target_bits = match self.target() {
            TargetAccuracy::Exact => return (self.max_slices(), usize::MAX),
            TargetAccuracy::DgemmEquivalent => 53 + log2k + 2,
            TargetAccuracy::SgemmEquivalent => 24 + log2k + 2,
        };
        let depth = (target_bits as usize).div_ceil(beta as usize);
        (depth.saturating_add(2).min(self.max_slices()), depth.saturating_add(1))
    }
}

impl sealed::Sealed for OzakiConfig {
    /// On an AMX-BF16 host ([`bf16_on`]), the slices where every integer
    /// fits bf16's 8-bit significand (β ≤ 8) and every partial chunk sum
    /// is an exact f32 integer in any order (`kc · 2^(2β) ≤ 2^24`): there
    /// `tdpbf16ps` returns the f32 tile's bits. Every other config, and
    /// every other kernel, keeps the f32 words.
    fn bf16_words(&self, k: usize, kernel: KernelVariant) -> Option<Bf16Words> {
        let beta = self.beta(k);
        let exact = beta <= BF16_SLICE_BITS
            && self.effective_k(k) <= (1usize << F32_EXACT_BITS) >> (2 * beta);
        (exact && bf16_on(kernel)).then_some(Bf16Words(*self))
    }
}

impl SliceEngine for OzakiConfig {
    type Word = f32;
    type Sum = f32;
    const TRACE: SliceTrace = slice_trace!("ozaki");

    /// [`required_beta`] over the chunk length, capped by `mul_precision`.
    fn beta(&self, k: usize) -> u32 {
        required_beta(self.effective_k(k), self.acc_precision, self.mul_precision)
    }

    fn target(&self) -> TargetAccuracy {
        self.target
    }

    fn max_slices(&self) -> usize {
        self.max_slices
    }

    fn k_block(&self) -> usize {
        self.k_block
    }

    /// The f32 engine call's 8-row tiles.
    const LAYOUT_A: PanelLayout = PanelLayout::F32_A;
    /// The f32 engine call's 32-column tiles.
    const LAYOUT_B: PanelLayout = PanelLayout::F32_B;

    #[inline(always)]
    fn narrow(x: f64) -> f32 {
        narrow_f32_exact(x)
    }

    /// f32 multiplies and accumulation on the dispatched engine tile
    /// (exactness under the β budget verified by `f32_products_are_exact`).
    fn engine_call(
        variant: KernelVariant,
        m: usize,
        n: usize,
        kc: usize,
        a: PanelChunk<'_, f32>,
        b: PanelChunk<'_, f32>,
        out: &mut [f32],
    ) {
        gemm_f32_f32(variant, m, n, kc, a, b, out);
    }

    /// The V100's f16 Tensor Cores, where Table VIII was measured.
    fn charged_on() -> (Device, EngineKind, NumericFormat) {
        (catalog::v100(), EngineKind::MatrixEngine, NumericFormat::F16xF32)
    }
}

/// Significand bits of bf16: slice integers of magnitude at most 2^8 are
/// exact in it.
const BF16_SLICE_BITS: u32 = 8;
/// Integers of magnitude at most 2^24 are exact in f32.
const F32_EXACT_BITS: u32 = 24;

/// The simulated matrix engine ([`OzakiConfig`]) on bfloat16 slice words,
/// run on the host's AMX `tdpbf16ps` tiles ([`gemm_bf16_f32`]). The driver
/// takes this form only inside the exact domain
/// ([`sealed::Sealed::bf16_words`]), where each chunk sum is the exact
/// integer whatever order AMX adds in, so the bits are those of the f32
/// tile; the split packs each slice once into the AMX layouts, half the
/// bytes of the f32 panels. Same β, budget, cutoff and trace names as
/// the config it wraps.
#[derive(Debug, Clone, Copy)]
pub struct Bf16Words(OzakiConfig);

impl sealed::Sealed for Bf16Words {}

impl SliceEngine for Bf16Words {
    type Word = u16;
    type Sum = f32;
    const TRACE: SliceTrace = OzakiConfig::TRACE;

    fn beta(&self, k: usize) -> u32 {
        self.0.beta(k)
    }

    fn target(&self) -> TargetAccuracy {
        self.0.target
    }

    fn max_slices(&self) -> usize {
        self.0.max_slices
    }

    fn k_block(&self) -> usize {
        self.0.k_block
    }

    /// AMX A tiles: 16 rows, row-major chunks of k pairs.
    const LAYOUT_A: PanelLayout = PanelLayout::BF16_A;
    /// AMX B tiles: 32 columns, k pairs per column.
    const LAYOUT_B: PanelLayout = PanelLayout::BF16_B;

    /// bfloat16 bits of the slice integer, exact for magnitudes up to 2^8:
    /// sign, exponent rebiased from 1023 to 127, top 7 significand bits.
    #[inline(always)]
    fn narrow(x: f64) -> u16 {
        let bits = x.to_bits();
        let magnitude = (bits & !(1 << 63)) >> 45;
        let rebiased = if magnitude == 0 { 0 } else { magnitude - ((1023 - 127) << 7) };
        let word = (rebiased | (bits >> 63 << 15)) as u16;
        debug_assert!(
            word == HalfKind::Bf16.narrow(narrow_f32_exact(x))
                && f64::from(HalfKind::Bf16.widen(word)) == x,
            "slice value {x} is not exactly representable in bfloat16"
        );
        word
    }

    fn engine_call(
        variant: KernelVariant,
        m: usize,
        n: usize,
        kc: usize,
        a: PanelChunk<'_, u16>,
        b: PanelChunk<'_, u16>,
        out: &mut [f32],
    ) {
        gemm_bf16_f32(variant, m, n, kc, a, b, out);
    }

    fn charged_on() -> (Device, EngineKind, NumericFormat) {
        OzakiConfig::charged_on()
    }
}

/// Result of an Ozaki-scheme GEMM on any substrate, with the counters the
/// performance model (Table VIII) needs.
#[derive(Debug, Clone)]
pub struct OzakiReport {
    /// The computed product.
    pub c: Mat<f64>,
    /// Number of slices of A.
    pub s_a: usize,
    /// Number of slices of B.
    pub s_b: usize,
    /// Slice-pair GEMMs executed on the engine.
    pub products_computed: usize,
    /// Slice pairs skipped by the accuracy cutoff.
    pub products_skipped: usize,
    /// Engine calls (slice pairs × k-chunks) — a property of the
    /// schedule, identical for every partition and kernel variant.
    pub engine_calls: usize,
    /// Slice bit width β.
    pub beta: u32,
    /// Whether both splits were exact decompositions.
    pub split_exact: bool,
    /// The host kernel variant the engine calls ran on.
    pub kernel: KernelVariant,
}

/// Emulated high-precision GEMM `C = A·B` via the Ozaki scheme on
/// `engine`, serial, on the process-selected kernel.
///
/// The slice-pair products run on integer-valued slices — exact under
/// each engine's β budget, as Tensor-Core f32 accumulation is — and are
/// recombined in f64 with a deterministic double-double accumulator, so
/// the result is bitwise reproducible.
pub fn ozaki_gemm<E: SliceEngine>(a: &Mat<f64>, b: &Mat<f64>, engine: &E) -> OzakiReport {
    ozaki_gemm_on(a, b, engine, selected_kernel(), None)
}

/// Row-parallel [`ozaki_gemm`]: the per-line splits run one line per job,
/// and the accumulator grid is divided into disjoint row panels, one job
/// each. The result and every report counter are **bitwise identical** to
/// the serial path for any thread count — the reproducibility property
/// the paper highlights, under real parallel execution.
///
/// `threads == 0` resolves through [`me_par::resolve_threads`] (the
/// `ME_THREADS` knob, then the OS).
pub fn ozaki_gemm_parallel<E: SliceEngine>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &E,
    threads: usize,
) -> OzakiReport {
    with_pool(a.rows(), threads, |pool| ozaki_gemm_on(a, b, engine, selected_kernel(), pool))
}

/// Run `f` on the pool a `threads` request resolves to for an `m`-row
/// GEMM: none at one thread, the global pool at its width, else a fresh
/// pool.
pub(crate) fn with_pool<R>(
    m: usize,
    threads: usize,
    f: impl FnOnce(Option<&WorkerPool>) -> R,
) -> R {
    let nthreads = me_par::resolve_threads(threads).min(m.max(1));
    if nthreads <= 1 {
        f(None)
    } else if nthreads == me_par::global().threads() {
        f(Some(me_par::global()))
    } else {
        f(Some(&WorkerPool::new(nthreads)))
    }
}

/// The driver behind every GEMM entry point, pinned to a kernel variant
/// (unsupported variants degrade via `resolve_supported`) and a pool
/// (`None` runs serially). The differential suites and the scaling benches
/// call it directly.
///
/// Splits both operands straight into their word panels — A's `m×k`, B's
/// transposed to `n×k` — and folds the scheduled slice-pair engine calls
/// into per-element accumulators, over the whole grid or over disjoint
/// row panels, one pool job per panel. Outputs in the row or column of a
/// line the split poisoned (non-finite, or overflowing) are NaN. The
/// simulated matrix engine runs as [`Bf16Words`] where that form exists.
pub fn ozaki_gemm_on<E: SliceEngine>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &E,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
) -> OzakiReport {
    let kernel = kernel.resolve_supported();
    match engine.bf16_words(a.cols(), kernel) {
        Some(bf16) => drive(a, b, &bf16, kernel, pool),
        None => drive(a, b, engine, kernel, pool),
    }
}

/// [`ozaki_gemm_on`] on `engine` as it is, on resolved `kernel`.
fn drive<E: SliceEngine>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &E,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
) -> OzakiReport {
    assert_eq!(a.cols(), b.rows(), "ozaki_gemm: inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let names = E::TRACE;
    let beta = engine.beta(k);
    let (_, cutoff) = engine.budget_and_cutoff(k, beta);
    let ((s_a, s_b, split_exact), c) =
        with_split(engine, (Source::Rows(a), Source::Cols(b)), kernel, pool, |call| {
            let split = (call.a.len(), call.b.len(), call.a.complete && call.b.complete);
            (split, multiply(engine, call, k, kernel, pool))
        });

    let (computed, skipped) = pair_counts(s_a, s_b, cutoff);
    let engine_calls = computed * k.div_ceil(engine.k_block().max(1));
    for (name, count) in [
        (names.slices_a, s_a),
        (names.slices_b, s_b),
        (names.products_computed, computed),
        (names.products_skipped, skipped),
        (names.engine_calls, engine_calls),
    ] {
        me_trace::counter_add(name, count as u64);
    }

    OzakiReport {
        c: Mat::from_vec(m, n, c),
        s_a,
        s_b,
        products_computed: computed,
        products_skipped: skipped,
        engine_calls,
        beta,
        split_exact,
        kernel,
    }
}

/// Split `sources` (A's lines, then B's, of length `k`) into `engine`'s
/// word panels in the calling thread's workspace ([`crate::workspace`]),
/// at its β and slice budget for `k`, each slice packed once into its
/// layout ([`SliceEngine::LAYOUT_A`], [`SliceEngine::LAYOUT_B`]) on
/// `kernel`, then run `f` on the split with its accumulators and fold
/// tiles (one per row panel of [`row_panel`]).
fn with_split<E: SliceEngine, R>(
    engine: &E,
    sources: (Source<'_>, Source<'_>),
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
    f: impl FnOnce(Call<'_, E::Word, E::Sum>) -> R,
) -> R {
    let (m, n, k) = (sources.0.lines(), sources.1.lines(), sources.0.len());
    let beta = engine.beta(k);
    let (budget, _) = engine.budget_and_cutoff(k, beta);
    let kb = engine.k_block().max(1);
    let packs = (Pack { layout: E::LAYOUT_A, kb }, Pack { layout: E::LAYOUT_B, kb });
    let rows = row_panel(m, n, pool, E::LAYOUT_A.tile);
    let jobs = pool.map_or(1, WorkerPool::threads);
    let fold = (m * n, m.next_multiple_of(rows) * n);
    let mut plan = Plan::<E::Word, E::Sum>::new(sources, packs, (beta, budget), jobs, fold);
    with_arena(|arena| {
        let split_span = me_trace::span(E::TRACE.split, "ozaki");
        let split = plan.split(arena, kernel, pool, &|r, _| E::narrow(r));
        drop(split_span);
        let call = plan.carve(arena, split);
        let panels = || call.a.iter().chain(call.b.iter()).map(|(w, _)| w);
        let aligned = panels().filter(|w| w.as_ptr().addr().is_multiple_of(AlignedBuf::ALIGN));
        me_trace::counter_add(ALIGNED_PANELS, aligned.count() as u64);
        me_trace::counter_add(E::TRACE.panel_packs, (call.a.len() + call.b.len()) as u64);
        f(call)
    })
}

/// Rows per row panel of an `m × n` product on `pool`: one panel per
/// worker, rounded up to A's `tile` height; all `m` rows serially.
fn row_panel(m: usize, n: usize, pool: Option<&WorkerPool>, tile: usize) -> usize {
    match pool {
        Some(pl) if pl.threads() > 1 && m >= 2 && n > 0 => {
            m.div_ceil(pl.threads()).next_multiple_of(tile)
        }
        _ => m.max(1),
    }
}

/// `C = A·B` (row-major `m × n`, the lines of A and B) from the split's
/// packed word panels: each row panel ([`row_panel`]) folds every
/// scheduled engine call into its part of the call's accumulators, on
/// its own fold tile ([`fold_panel`]). Row panels start on A's tile grid.
/// `C = hi + lo` is written straight into the returned vector.
fn multiply<E: SliceEngine>(
    engine: &E,
    call: Call<'_, E::Word, E::Sum>,
    k: usize,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
) -> Vec<f64> {
    let Call { hi, lo, tiles, a: pa, b: pb } = call;
    let (m, n) = (pa.lines, pb.lines);
    let beta = engine.beta(k);
    let (_, cutoff) = engine.budget_and_cutoff(k, beta);
    let schedule = Schedule { k, kb: engine.k_block().max(1), cutoff, beta, kernel };
    let rows = row_panel(m, n, pool, E::LAYOUT_A.tile);
    match pool {
        Some(pl) if rows < m => {
            let mut panels: Vec<_> = hi
                .chunks_mut(rows * n)
                .zip(lo.chunks_mut(rows * n))
                .zip(tiles.chunks_mut(rows * n))
                .enumerate()
                .map(|(t, panel)| (t * rows, panel))
                .collect();
            pl.for_each_mut(&mut panels, |_, (r0, ((hi, lo), tile))| {
                fold_panel::<E>(&pa, &pb, *r0, (hi, lo, tile), schedule)
            });
        }
        _ => fold_panel::<E>(&pa, &pb, 0, (hi, lo, tiles), schedule),
    }
    let mut c: Vec<f64> = hi.iter().zip(lo.iter()).map(|(h, l)| h + l).collect();
    poison(&mut c, n, pa.poisoned(), pb.poisoned());
    c
}

/// What [`fold_panel`] folds: inner dimension `k` in chunks of `kb`,
/// slice pairs below `cutoff`, width `beta`, engine calls on `kernel`.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    k: usize,
    kb: usize,
    cutoff: usize,
    beta: u32,
    kernel: KernelVariant,
}

/// Fold one row panel (rows `r0..`, as many as `hi` holds) of `C = A·B`:
/// reset its accumulators `hi`/`lo`, then fold every scheduled engine call
/// into them in `(p, q)` pair (p outer) → k-chunk → element order, as
/// `engine_exec` does, so the bits never depend on the partition. Each
/// engine call's sums land in `tile`. One `accumulate` span per row panel
/// (on the worker that owns it), one `products` span per engine call
/// inside it.
// me-verify: hot
fn fold_panel<E: SliceEngine>(
    pa: &Panels<'_, E::Word>,
    pb: &Panels<'_, E::Word>,
    r0: usize,
    (hi, lo, tile): (&mut [f64], &mut [f64], &mut [E::Sum]),
    Schedule { k, kb, cutoff, beta, kernel }: Schedule,
) {
    hi.fill(0.0);
    lo.fill(0.0);
    let n = pb.lines;
    let rows = hi.len().checked_div(n).unwrap_or(0);
    if rows == 0 || k == 0 {
        return;
    }
    let names = E::TRACE;
    let _t = me_trace::span(names.accumulate, "ozaki");
    let (la, lb) = (E::LAYOUT_A, E::LAYOUT_B);
    let tile = &mut tile[..rows * n];
    for (p, (wa, ea)) in pa.iter().enumerate() {
        for (q, (wb, eb)) in pb.iter().enumerate() {
            if p + q >= cutoff {
                continue;
            }
            for k0 in (0..k).step_by(kb) {
                let kc = kb.min(k - k0);
                let a = la.chunk(wa, r0, k0, k, kb);
                let b = lb.chunk(wb, 0, k0, k, kb);
                {
                    let _p = me_trace::span(names.products, "ozaki");
                    E::engine_call(kernel, rows, n, kc, a, b, tile);
                }
                fold_tile(kernel, tile, &ea[r0..r0 + rows], eb, beta, hi, lo);
            }
        }
    }
}

/// Set every output in rows `rows` and columns `cols` of the row-major
/// `c` (`n` columns) to NaN: the split could not represent their line.
pub(crate) fn poison(
    c: &mut [f64],
    n: usize,
    rows: impl Iterator<Item = usize>,
    cols: impl Iterator<Item = usize>,
) {
    for i in rows {
        c[i * n..(i + 1) * n].fill(f64::NAN);
    }
    for j in cols {
        c.iter_mut().skip(j).step_by(n).for_each(|v| *v = f64::NAN);
    }
}

/// Slice pairs `(p, q)` computed and skipped by the cutoff `p + q ≥
/// cutoff`: a property of the schedule, never of the partition, so every
/// driver counts once per call, not once per row panel.
pub(crate) fn pair_counts(s_a: usize, s_b: usize, cutoff: usize) -> (usize, usize) {
    let mut computed = 0usize;
    let mut skipped = 0usize;
    for p in 0..s_a {
        for q in 0..s_b {
            if p + q >= cutoff {
                skipped += 1;
            } else {
                computed += 1;
            }
        }
    }
    (computed, skipped)
}

/// Ozaki-scheme dot product (paper §IV-B note (2): the scheme extends to
/// BLAS-1/2, letting MEs serve those levels' internals).
///
/// Runs directly on per-line splits — no 1×k/k×1 matrix shims.
pub fn ozaki_dot(x: &[f64], y: &[f64], cfg: &OzakiConfig) -> f64 {
    assert_eq!(x.len(), y.len(), "ozaki_dot: length mismatch");
    let k = x.len();
    let kernel = selected_kernel().resolve_supported();
    with_split(cfg, (Source::Line(x), Source::Line(y)), kernel, None, |call| {
        multiply(cfg, call, k, kernel, None)[0]
    })
}

/// Ozaki-scheme matrix-vector product `y = A·x`: per-row splits of A
/// against a single line split of x.
pub fn ozaki_gemv(a: &Mat<f64>, x: &[f64], cfg: &OzakiConfig) -> Vec<f64> {
    assert_eq!(a.cols(), x.len(), "ozaki_gemv: inner dimension mismatch");
    let k = x.len();
    let kernel = selected_kernel().resolve_supported();
    with_split(cfg, (Source::Rows(a), Source::Line(x)), kernel, None, |call| {
        multiply(cfg, call, k, kernel, None)
    })
}

/// Reference product computed with doubled-precision dot products
/// (Ogita–Rump–Oishi Dot2): the accuracy yardstick for the tests.
pub fn reference_gemm(a: &Mat<f64>, b: &Mat<f64>) -> Mat<f64> {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Mat::zeros(m, n);
    let mut col = vec![0.0f64; k];
    for j in 0..n {
        for (p, cv) in col.iter_mut().enumerate() {
            *cv = b[(p, j)];
        }
        for i in 0..m {
            c[(i, j)] = me_numerics::eft::dot2(a.row(i), &col);
        }
    }
    c
}

/// Expose the split types for callers assembling custom pipelines.
pub fn split_for_gemm(a: &Mat<f64>, k: usize, cfg: &OzakiConfig) -> (SplitMatrix, u32) {
    let beta = cfg.beta(k);
    (split_rows(a, beta, cfg.max_slices), beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_cols;
    use me_numerics::formats::{pow2, pow2_checked};
    use me_numerics::sum::Accumulator;
    use me_numerics::{max_rel_err, ulp_diff};

    fn mk(m: usize, n: usize, seed: u64, range_decades: i32) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 33) as f64 / (1u64 << 31) as f64;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = ((state >> 33) as f64 / (1u64 << 31) as f64) / 2.0;
            (u - 1.0) * (10.0f64).powf(d * range_decades as f64)
        })
    }

    #[test]
    fn f32_products_are_exact() {
        // The exactness precondition: beta-bit integer dots of length k fit
        // the f32 mantissa. Verify against i64 arithmetic.
        let k = 64;
        let beta = required_beta(k, 24, 11);
        let mask = (1i64 << beta) - 1;
        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as i64 & mask) - (mask / 2)
        };
        let xs: Vec<i64> = (0..k).map(|_| next()).collect();
        let ys: Vec<i64> = (0..k).map(|_| next()).collect();
        let exact: i64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        let f32sum: f32 = xs.iter().zip(&ys).map(|(&a, &b)| a as f32 * b as f32).sum();
        assert_eq!(f32sum as i64, exact, "f32 accumulation must be exact at beta={beta}");
    }

    #[test]
    fn dgemm_equivalent_accuracy_narrow_range() {
        let a = mk(12, 16, 1, 1);
        let b = mk(16, 10, 2, 1);
        let r = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        let c_ref = reference_gemm(&a, &b);
        let err = max_rel_err(r.c.as_slice(), c_ref.as_slice());
        assert!(err < 1e-14, "DGEMM-equivalent rel err {err}");
        assert!(r.split_exact);
    }

    #[test]
    fn dgemm_equivalent_accuracy_wide_range() {
        let a = mk(8, 12, 3, 8);
        let b = mk(12, 8, 4, 8);
        let r = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        let c_ref = reference_gemm(&a, &b);
        // With wide-range inputs the row/column-max-relative truncation
        // bounds the error like real DGEMM's backward error:
        // |err_ij| ≲ eps · k · max|A_i*| · max|B_*j|.
        for i in 0..8 {
            let amax: f64 = (0..12).map(|p| a[(i, p)].abs()).fold(0.0, f64::max);
            for j in 0..8 {
                let bmax: f64 = (0..12).map(|p| b[(p, j)].abs()).fold(0.0, f64::max);
                let scale = amax * bmax * 12.0;
                let e = (r.c[(i, j)] - c_ref[(i, j)]).abs();
                assert!(
                    e <= 1e-13 * scale.max(c_ref[(i, j)].abs()),
                    "({i},{j}): err {e} vs scale {scale}"
                );
            }
        }
    }

    #[test]
    fn exact_mode_is_correctly_rounded_quality() {
        let a = mk(6, 9, 5, 4);
        let b = mk(9, 7, 6, 4);
        let cfg = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
        let r = ozaki_gemm(&a, &b, &cfg);
        assert!(r.split_exact, "exact mode must exhaust the residual");
        assert_eq!(r.products_skipped, 0);
        let c_ref = reference_gemm(&a, &b);
        for (x, y) in r.c.as_slice().iter().zip(c_ref.as_slice()) {
            assert!(ulp_diff(*x, *y) <= 2, "{x} vs {y}: {} ulps", ulp_diff(*x, *y));
        }
    }

    #[test]
    fn sgemm_equivalent_is_cheaper_and_coarser() {
        let a = mk(10, 32, 7, 6);
        let b = mk(32, 10, 8, 6);
        let rd = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        let rs = ozaki_gemm(&a, &b, &OzakiConfig::sgemm_tc());
        assert!(
            rs.products_computed < rd.products_computed,
            "SGEMM-TC must need fewer products ({} vs {})",
            rs.products_computed,
            rd.products_computed
        );
        let c_ref = reference_gemm(&a, &b);
        let err_s = max_rel_err(rs.c.as_slice(), c_ref.as_slice());
        let err_d = max_rel_err(rd.c.as_slice(), c_ref.as_slice());
        assert!(err_d <= err_s, "DGEMM-TC must be at least as accurate");
        assert!(err_s < 1e-5, "SGEMM-equivalent rel err {err_s}");
    }

    #[test]
    fn products_grow_with_input_range() {
        // The Table VIII effect at the algorithm level.
        let cfg = OzakiConfig::dgemm_tc();
        let counts: Vec<usize> = [2, 10, 22]
            .iter()
            .map(|&dec| {
                let a = mk(8, 16, 9, dec);
                let b = mk(16, 8, 10, dec);
                ozaki_gemm(&a, &b, &cfg).products_computed
            })
            .collect();
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2], "{counts:?}");
        assert!(counts[2] > counts[0], "{counts:?}");
    }

    #[test]
    fn bitwise_reproducibility() {
        // The paper's feature (1): the result is bit-identical regardless of
        // how the computation is partitioned. Our implementation is
        // deterministic by construction; verify repeated runs and a
        // row-partitioned run agree bitwise.
        let a = mk(9, 14, 11, 10);
        let b = mk(14, 9, 12, 10);
        let cfg = OzakiConfig::dgemm_tc();
        let r1 = ozaki_gemm(&a, &b, &cfg);
        let r2 = ozaki_gemm(&a, &b, &cfg);
        for (x, y) in r1.c.as_slice().iter().zip(r2.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Row partition: compute rows 0..4 and 4..9 separately.
        let a_top = Mat::from_fn(4, 14, |i, j| a[(i, j)]);
        let a_bot = Mat::from_fn(5, 14, |i, j| a[(i + 4, j)]);
        let rt = ozaki_gemm(&a_top, &b, &cfg);
        let rb = ozaki_gemm(&a_bot, &b, &cfg);
        for i in 0..4 {
            for j in 0..9 {
                assert_eq!(rt.c[(i, j)].to_bits(), r1.c[(i, j)].to_bits(), "top ({i},{j})");
            }
        }
        for i in 0..5 {
            for j in 0..9 {
                assert_eq!(rb.c[(i, j)].to_bits(), r1.c[(i + 4, j)].to_bits(), "bot ({i},{j})");
            }
        }
    }

    #[test]
    fn dot_and_gemv_front_ends() {
        let x = [1.0, 1e16, -1e16, 3.0];
        let y = [1.0, 1.0, 1.0, 0.5];
        // Naive dot cancels catastrophically; Ozaki recovers 2.5.
        let cfg = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
        assert_eq!(ozaki_dot(&x, &y, &cfg), 2.5);

        let a = mk(5, 4, 13, 3);
        let xv = [0.5, -1.5, 2.0, 0.25];
        let yv = ozaki_gemv(&a, &xv, &OzakiConfig::dgemm_tc());
        for (i, &yi) in yv.iter().enumerate() {
            let expect = me_numerics::eft::dot2(a.row(i), &xv);
            assert!((yi - expect).abs() <= 1e-14 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn degenerate_inputs() {
        let z = Mat::<f64>::zeros(3, 4);
        let b = mk(4, 2, 15, 2);
        let r = ozaki_gemm(&z, &b, &OzakiConfig::dgemm_tc());
        assert_eq!(r.c, Mat::zeros(3, 2));
        assert_eq!(r.products_computed, 0);

        let empty = ozaki_dot(&[], &[], &OzakiConfig::dgemm_tc());
        assert_eq!(empty, 0.0);
    }

    /// The retired engine call: one chunk sum as an ascending scalar
    /// `mul_add` chain. `inexact` counts the sums the chain rounded — the
    /// f64 sum is exact for β ≤ 11 slice integers at every test length.
    fn chain(x: &[f32], y: &[f32], inexact: &mut usize) -> f32 {
        let mut s = 0.0f32;
        for (&a, &b) in x.iter().zip(y) {
            s = a.mul_add(b, s);
        }
        let exact: f64 = x.iter().zip(y).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
        if f64::from(s) != exact {
            *inexact += 1;
        }
        s
    }

    /// The retired slice packing: each line of each dense slice scaled by
    /// `2^(β − e)` to its integer and narrowed to f32, zeros left +0.
    fn pack(s: &SplitMatrix) -> Vec<Vec<f32>> {
        let by_rows = s.by_rows;
        let scale = |v: f64, se: i32| {
            if se > 1023 {
                (v * pow2(1023)) * pow2(se - 1023)
            } else {
                v * pow2_checked(se)
            }
        };
        let mut panels = Vec::new();
        for (x, exps) in s.slices.iter().zip(&s.scale_exp) {
            let len = if by_rows { x.cols() } else { x.rows() };
            let mut buf = vec![0.0f32; exps.len() * len];
            for (li, &e) in exps.iter().enumerate() {
                for (p, out) in buf[li * len..(li + 1) * len].iter_mut().enumerate() {
                    let v = if by_rows { x[(li, p)] } else { x[(p, li)] };
                    if v != 0.0 {
                        *out = narrow_f32_exact(scale(v, s.beta as i32 - e));
                    }
                }
            }
            panels.push(buf);
        }
        panels
    }

    /// One line as a 1×k split.
    fn split_vec(x: &[f64], beta: u32, budget: usize) -> SplitMatrix {
        split_rows(&Mat::from_vec(1, x.len(), x.to_vec()), beta, budget)
    }

    /// The retired simulated-ME GEMM: the same split, integer panels and
    /// fold order, with every C element of every slice pair and k-chunk
    /// its own [`chain`]. Returns C and the count of inexact chunk sums.
    fn oracle_gemm(a: &Mat<f64>, b: &Mat<f64>, cfg: &OzakiConfig) -> (Mat<f64>, usize) {
        let (m, k) = a.shape();
        let n = b.cols();
        let beta = required_beta(cfg.effective_k(k), cfg.acc_precision, cfg.mul_precision);
        let (budget, cutoff) = cfg.budget_and_cutoff(k, beta);
        let (sa, sb) = (split_rows(a, beta, budget), split_cols(b, beta, budget));
        let (ia, ib) = (pack(&sa), pack(&sb));
        let kb = cfg.k_block.max(1);
        let mut acc = vec![Accumulator::new(); m * n];
        let mut inexact = 0;
        for (p, (xa, ea)) in ia.iter().zip(&sa.scale_exp).enumerate() {
            for (q, (xb, eb)) in ib.iter().zip(&sb.scale_exp).enumerate() {
                if p + q >= cutoff {
                    continue;
                }
                for k0 in (0..k).step_by(kb) {
                    let kc = kb.min(k - k0);
                    for i in 0..m {
                        for j in 0..n {
                            let arow = &xa[i * k + k0..i * k + k0 + kc];
                            let brow = &xb[j * k + k0..j * k + k0 + kc];
                            let s = chain(arow, brow, &mut inexact);
                            if s == 0.0 {
                                continue;
                            }
                            let scale = pow2_checked(ea[i] + eb[j] - 2 * beta as i32);
                            acc[i * n + j].add(s as f64 * scale);
                        }
                    }
                }
            }
        }
        (Mat::from_fn(m, n, |i, j| acc[i * n + j].value()), inexact)
    }

    /// The retired `ozaki_dot` engine loop, one [`chain`] per chunk.
    fn oracle_dot(x: &[f64], y: &[f64], cfg: &OzakiConfig) -> f64 {
        let k = x.len();
        let beta = required_beta(cfg.effective_k(k), cfg.acc_precision, cfg.mul_precision);
        let (budget, cutoff) = cfg.budget_and_cutoff(k, beta);
        let (sx, sy) = (split_vec(x, beta, budget), split_vec(y, beta, budget));
        let kb = cfg.k_block.max(1);
        let mut acc = Accumulator::new();
        for (p, (xs, ex)) in pack(&sx).iter().zip(&sx.scale_exp).enumerate() {
            for (q, (ys, ey)) in pack(&sy).iter().zip(&sy.scale_exp).enumerate() {
                if p + q >= cutoff {
                    continue;
                }
                for k0 in (0..k).step_by(kb) {
                    let kc = kb.min(k - k0);
                    let s = chain(&xs[k0..k0 + kc], &ys[k0..k0 + kc], &mut 0);
                    if s != 0.0 {
                        acc.add(s as f64 * pow2_checked(ex[0] + ey[0] - 2 * beta as i32));
                    }
                }
            }
        }
        acc.value()
    }

    /// The retired `ozaki_gemv` engine loop, one [`chain`] per row chunk.
    fn oracle_gemv(a: &Mat<f64>, x: &[f64], cfg: &OzakiConfig) -> Vec<f64> {
        let (m, k) = a.shape();
        let beta = required_beta(cfg.effective_k(k), cfg.acc_precision, cfg.mul_precision);
        let (budget, cutoff) = cfg.budget_and_cutoff(k, beta);
        let (sa, sx) = (split_rows(a, beta, budget), split_vec(x, beta, budget));
        let kb = cfg.k_block.max(1);
        let mut acc = vec![Accumulator::new(); m];
        for (p, (ia, ea)) in pack(&sa).iter().zip(&sa.scale_exp).enumerate() {
            for (q, (xs, ex)) in pack(&sx).iter().zip(&sx.scale_exp).enumerate() {
                if p + q >= cutoff {
                    continue;
                }
                for k0 in (0..k).step_by(kb) {
                    let kc = kb.min(k - k0);
                    for (i, ai) in acc.iter_mut().enumerate() {
                        let s = chain(&ia[i * k + k0..i * k + k0 + kc], &xs[k0..k0 + kc], &mut 0);
                        if s != 0.0 {
                            ai.add(s as f64 * pow2_checked(ea[i] + ex[0] - 2 * beta as i32));
                        }
                    }
                }
            }
        }
        acc.iter().map(Accumulator::value).collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn engine_call_matches_retired_scalar_chain_bitwise() {
        // The dispatched micro-kernel replays the retired per-element chain
        // (DESIGN §9), serial and at 2/3/5 threads, across chunked k, every
        // target, a narrow multiply format, a subnormal line, and a wide
        // accumulator whose chunk sums round — so the identity rests on the
        // FMA order, not only on exactness.
        let mut sub_a = mk(7, 40, 31, 6);
        for p in 0..40 {
            sub_a[(2, p)] *= 1e-312;
        }
        assert!(sub_a.row(2).iter().all(|v| v.abs() < f64::MIN_POSITIVE), "row 2 is subnormal");
        let cases = [
            (
                "dgemm, k=700, k_block=64",
                mk(11, 700, 23, 12),
                mk(700, 7, 24, 12),
                OzakiConfig { k_block: 64, ..OzakiConfig::dgemm_tc() },
            ),
            (
                "exact, k=700",
                mk(6, 700, 25, 3),
                mk(700, 5, 26, 3),
                OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() },
            ),
            (
                "sgemm, k_block=100",
                mk(9, 300, 27, 8),
                mk(300, 6, 28, 8),
                OzakiConfig { k_block: 100, ..OzakiConfig::sgemm_tc() },
            ),
            (
                "mul_precision 6",
                mk(8, 300, 29, 10),
                mk(300, 6, 30, 10),
                OzakiConfig { mul_precision: 6, ..OzakiConfig::dgemm_tc() },
            ),
            ("subnormal line", sub_a, mk(40, 5, 32, 6), OzakiConfig::dgemm_tc()),
            (
                "acc_precision 40",
                mk(7, 700, 33, 4),
                mk(700, 6, 34, 4),
                OzakiConfig { acc_precision: 40, ..OzakiConfig::dgemm_tc() },
            ),
        ];
        for (label, a, b, cfg) in &cases {
            let (want, inexact) = oracle_gemm(a, b, cfg);
            if cfg.acc_precision > 24 {
                assert!(inexact > 0, "{label}: the wide accumulator must round some chunk sums");
            } else {
                assert_eq!(inexact, 0, "{label}: the β budget keeps every chunk sum exact");
            }
            assert_eq!(bits(ozaki_gemm(a, b, cfg).c.as_slice()), bits(want.as_slice()), "{label}");
            for threads in [2, 3, 5] {
                let par = ozaki_gemm_parallel(a, b, cfg, threads);
                assert_eq!(bits(par.c.as_slice()), bits(want.as_slice()), "{label}, {threads}t");
            }
        }
    }

    #[test]
    fn dot_and_gemv_match_retired_scalar_chain_bitwise() {
        let chunked = OzakiConfig { k_block: 64, ..OzakiConfig::dgemm_tc() };
        let exact = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
        let a = mk(9, 700, 35, 10);
        let x = mk(1, 700, 36, 10).as_slice().to_vec();
        let y = mk(1, 700, 37, 10).as_slice().to_vec();
        for cfg in [chunked, exact, OzakiConfig::sgemm_tc()] {
            assert_eq!(ozaki_dot(&x, &y, &cfg).to_bits(), oracle_dot(&x, &y, &cfg).to_bits());
            assert_eq!(bits(&ozaki_gemv(&a, &x, &cfg)), bits(&oracle_gemv(&a, &x, &cfg)));
        }
    }

    #[test]
    fn dot_and_gemv_scale_subnormal_lines() {
        // A line whose maximum is subnormal needs `2^(β − e)` beyond f64
        // range; the single-line scaling once overflowed it to inf and the
        // dot came back NaN. Both fronts must agree with the GEMM.
        let x = [3e-310, -1e-311, 2.5e-309];
        let y = [1.0, 2.0, 3.0];
        let cfg = OzakiConfig::dgemm_tc();
        let (xm, ym) = (Mat::from_vec(1, 3, x.to_vec()), Mat::from_vec(3, 1, y.to_vec()));
        let c = ozaki_gemm(&xm, &ym, &cfg);
        assert!(c.c[(0, 0)] > 0.0);
        assert_eq!(ozaki_dot(&x, &y, &cfg).to_bits(), c.c[(0, 0)].to_bits());
        assert_eq!(ozaki_dot(&y, &x, &cfg).to_bits(), c.c[(0, 0)].to_bits());
        let yx = ozaki_gemv(&Mat::from_vec(1, 3, y.to_vec()), &x, &cfg);
        assert_eq!(yx[0].to_bits(), c.c[(0, 0)].to_bits());
    }

    #[test]
    fn handles_negative_and_mixed_signs() {
        let a = Mat::from_vec(2, 2, vec![-1.5, 2.25, 0.0, -1e-8]);
        let b = Mat::from_vec(2, 2, vec![4.0, -0.5, 1e8, 2.0]);
        let cfg = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
        let r = ozaki_gemm(&a, &b, &cfg);
        let c_ref = reference_gemm(&a, &b);
        for (x, y) in r.c.as_slice().iter().zip(c_ref.as_slice()) {
            assert!(ulp_diff(*x, *y) <= 2, "{x} vs {y}");
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;

    fn mk(m: usize, n: usize, seed: u64, range_decades: i32) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 33) as f64 / (1u64 << 31) as f64;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = ((state >> 33) as f64 / (1u64 << 31) as f64) / 2.0;
            (u - 1.0) * (10.0f64).powf(d * range_decades as f64)
        })
    }

    #[test]
    fn parallel_is_bit_identical() {
        let a = mk(23, 17, 1, 9);
        let b = mk(17, 11, 2, 9);
        let cfg = OzakiConfig::dgemm_tc();
        let serial = ozaki_gemm(&a, &b, &cfg);
        for threads in [2, 3, 5, 8] {
            let par = ozaki_gemm_parallel(&a, &b, &cfg, threads);
            for (x, y) in serial.c.as_slice().iter().zip(par.c.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_single_thread_delegates() {
        let a = mk(4, 4, 3, 2);
        let b = mk(4, 4, 4, 2);
        let cfg = OzakiConfig::sgemm_tc();
        let s = ozaki_gemm(&a, &b, &cfg);
        let p = ozaki_gemm_parallel(&a, &b, &cfg, 1);
        assert_eq!(s.c, p.c);
        assert_eq!(s.products_computed, p.products_computed);
    }

    #[test]
    fn parallel_more_threads_than_rows() {
        let a = mk(3, 6, 5, 4);
        let b = mk(6, 3, 6, 4);
        let cfg = OzakiConfig::dgemm_tc();
        let s = ozaki_gemm(&a, &b, &cfg);
        let p = ozaki_gemm_parallel(&a, &b, &cfg, 64);
        for (x, y) in s.c.as_slice().iter().zip(p.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn parallel_counters_match_serial() {
        // Regression for the old row-stitching front, which summed each
        // panel's products_computed (one engine-call count per panel) and
        // so over-reported the Table VIII cost.
        let a = mk(23, 17, 1, 9);
        let b = mk(17, 11, 2, 9);
        let cfg = OzakiConfig::dgemm_tc();
        let s = ozaki_gemm(&a, &b, &cfg);
        for threads in [2, 3, 8] {
            let p = ozaki_gemm_parallel(&a, &b, &cfg, threads);
            assert_eq!(p.products_computed, s.products_computed, "threads={threads}");
            assert_eq!(p.products_skipped, s.products_skipped, "threads={threads}");
            assert_eq!(p.s_a, s.s_a);
            assert_eq!(p.s_b, s.s_b);
            assert_eq!(p.beta, s.beta);
            assert_eq!(p.split_exact, s.split_exact);
        }
    }

    #[test]
    fn products_computed_matches_analytic_count_at_uneven_splits() {
        // m = 23 over 2/3/5 threads gives uneven row panels (12+11,
        // 8+8+7, 5+5+5+5+3). The pair schedule is a property of the slice
        // depths and the cutoff alone — never of the partition — so the
        // report's counter must equal the closed-form count
        // Σ_p min(s_b, cutoff − p) for every width, and computed + skipped
        // must tile the full s_a × s_b grid.
        let a = mk(23, 17, 21, 9);
        let b = mk(17, 11, 22, 9);
        for cfg in [OzakiConfig::dgemm_tc(), OzakiConfig::sgemm_tc()] {
            let mut counts = Vec::new();
            for threads in [1usize, 2, 3, 5] {
                let r = ozaki_gemm_parallel(&a, &b, &cfg, threads);
                let (_, cutoff) = cfg.budget_and_cutoff(a.cols(), r.beta);
                let analytic: usize =
                    (0..r.s_a).map(|p| r.s_b.min(cutoff.saturating_sub(p))).sum();
                assert_eq!(
                    r.products_computed, analytic,
                    "threads={threads}: counter must match the closed form"
                );
                assert_eq!(
                    r.products_computed + r.products_skipped,
                    r.s_a * r.s_b,
                    "threads={threads}: computed + skipped must tile the pair grid"
                );
                counts.push(r.products_computed);
            }
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?} must not vary");
        }
    }

    #[test]
    fn parallel_on_explicit_pool() {
        let a = mk(16, 8, 7, 6);
        let b = mk(8, 5, 8, 6);
        let cfg = OzakiConfig::dgemm_tc();
        let s = ozaki_gemm(&a, &b, &cfg);
        let pool = me_par::WorkerPool::new(4);
        let p = ozaki_gemm_on(&a, &b, &cfg, selected_kernel(), Some(&pool));
        for (x, y) in s.c.as_slice().iter().zip(p.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
