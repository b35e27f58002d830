//! Error-free matrix slicing (step 1 of the Ozaki scheme). Every
//! extraction goes through [`split_panels`]; DESIGN §4 has its exactness.
//!
//! Per slice, each tile of lines is extracted into a tile buffer — the
//! residual update, the narrowing to the engine's word and, for INT8's B,
//! each chunk's column sum, in one pass per line — and written into the
//! slice's panel by one [`PanelLayout::put_lines`]. That pass is plain
//! Rust compiled once per kernel variant ([`KernelVariant::run`]), so it
//! vectorizes at the width of the variant the engine calls run on; the
//! compiler only picks instructions, so every variant writes the same
//! bits. Lines, panels, exponents and tile buffers live in the calling
//! thread's workspace ([`crate::workspace`], laid out by [`Plan`]).

use crate::workspace::{with_arena, Arena};
use me_linalg::{
    selected_kernel, KernelVariant, Mat, PanelLayout, PanelWord, Pod, Regions, VariantWork,
};
use me_numerics::formats::pow2;
use me_par::WorkerPool;

/// The slice bit width β for a given inner dimension `k` and accumulator
/// precision (in bits, e.g. 24 for f32, 53 for f64):
/// the dot product of two β-bit integer slices of length k is bounded by
/// `k · 2^(2β)`, which must stay below `2^acc_p` for exactness, so
/// `β = ⌊(acc_p − 1 − ⌈log₂k⌉) / 2⌋` (one guard bit).
///
/// The result is additionally clamped to the multiply format's precision
/// `mul_p` (a slice must be exactly representable where it is multiplied).
pub fn required_beta(k: usize, acc_p: u32, mul_p: u32) -> u32 {
    let budget = acc_p.saturating_sub(1).saturating_sub(ceil_log2(k.max(1)));
    (budget / 2).clamp(1, mul_p)
}

/// `⌈log₂ k⌉` computed exactly in integer arithmetic (`k ≥ 1`).
///
/// The float route (`(k as f64).log2().ceil()`) silently loses: for
/// `k = 2^53 + 1` the conversion to `f64` rounds to `2^53`, so the ceiling
/// comes back one too small and [`required_beta`] hands out a slice width
/// whose dot products can overflow the accumulator.
pub(crate) fn ceil_log2(k: usize) -> u32 {
    debug_assert!(k >= 1, "ceil_log2: k must be >= 1");
    if k <= 1 {
        0
    } else if k.is_power_of_two() {
        k.trailing_zeros()
    } else {
        usize::BITS - k.leading_zeros()
    }
}

/// One matrix expressed as an exact sum of low-precision slices.
///
/// `slices[p]` holds the p-th extraction; summing all slices elementwise
/// reconstructs the original matrix exactly (when `complete` is true).
/// `scale_exp[p][i]` is the power-of-two exponent `e` such that every
/// element of row (or column) `i` of slice `p` is an integer multiple of
/// `2^(e − β)` with magnitude at most `2^e` — i.e.
/// `slice[p][(i,j)] · 2^(β − e)` is a β-bit integer, exactly representable
/// in the engine's multiply format.
///
/// A line with a non-finite element, or whose first slice overflows to
/// `2^1024`, is not split: its slice-0 entries are NaN, `complete` false.
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    /// Slice matrices, highest-order first.
    pub slices: Vec<Mat<f64>>,
    /// Per-slice, per-line scale exponents (lines are rows for A, columns
    /// for B).
    pub scale_exp: Vec<Vec<i32>>,
    /// Slice bit width β used for the extraction.
    pub beta: u32,
    /// Whether the residual reached exactly zero (the split is an exact
    /// decomposition) within the slice budget.
    pub complete: bool,
    /// Whether lines are rows (`true`, for A) or columns (`false`, for B).
    pub by_rows: bool,
}

impl SplitMatrix {
    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True if no slices were produced (zero matrix).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Reconstruct the (partial) sum of all slices.
    pub fn reconstruct(&self) -> Mat<f64> {
        let (r, c) = if let Some(first) = self.slices.first() {
            first.shape()
        } else {
            return Mat::zeros(0, 0);
        };
        let mut out = Mat::zeros(r, c);
        for s in &self.slices {
            for (o, v) in out.as_mut_slice().iter_mut().zip(s.as_slice()) {
                *o += *v;
            }
        }
        out
    }
}

/// `1.5 · 2^52`: for `|y| ≤ 2^51`, `((|y| + ROUND) − ROUND)` is `|y|`
/// rounded to an integer, ties to even.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Every bit of an f64 but the sign.
const MAGNITUDE: u64 = !(1 << 63);
/// Magnitude bits of `+inf`: at or above it an element is not finite.
const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// Ceiling of log2|x| as an exponent: the smallest `e` with `|x| ≤ 2^e`,
/// read off the exponent and significand bits (`x` nonzero; `1024` for
/// an infinity).
#[inline(always)]
fn ceil_exp(x: f64) -> i32 {
    let bits = x.to_bits() & MAGNITUDE;
    debug_assert!(bits != 0, "ceil_exp of zero");
    let (biased, frac) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    if biased == 0 {
        // Subnormal: |x| = frac · 2^-1074, so e = ⌈log₂ frac⌉ − 1074.
        (u64::BITS - (frac - 1).leading_zeros()) as i32 - 1074
    } else {
        biased - 1023 + i32::from(frac != 0)
    }
}

/// One extraction over `line` at scale exponent `e`: each element `x`
/// splits into the slice value `hi = round_ties_even(x / q) · q`, `q =
/// 2^(e − β)`, and the residual `x − hi` left in place, and `out[t] =
/// word(hi / q, hi)` with `−0` made `+0`. `sums[c]` gets the wrapping sum
/// of the words of the `c`-th `kb`-long chunk ([`PanelWord::sum_term`]),
/// taken in the same pass. Returns the residual's largest magnitude bits.
/// The quotient is a multiplication where `2^(β − e)` is normal, else
/// (subnormal line maxima) a division.
#[inline(always)]
fn extract<W: PanelWord>(
    line: &mut [f64],
    out: &mut [W],
    sums: &mut [i32],
    e: i32,
    beta: u32,
    kb: usize,
    word: &impl Fn(f64, f64) -> W,
) -> u64 {
    let se = beta as i32 - e;
    // Clamp the grid at the smallest subnormal: once `2^(e − β)` falls
    // below 2^-1074 every remaining residual is an exact multiple of the
    // clamped grid, so `hi = x` and the residual terminates at zero.
    let q = pow2((-se).max(-1074));
    if (-1022..=1023).contains(&se) {
        let scale = pow2(se);
        extract_with(line, out, sums, kb, word, &|x: f64| {
            let y = x * scale;
            let r = ((y.abs() + ROUND) - ROUND).copysign(y);
            (r, r * q)
        })
    } else {
        extract_with(line, out, sums, kb, word, &|x: f64| {
            let hi = (x / q).round_ties_even() * q;
            // `2^se` may exceed f64 range here: scale in two exact steps.
            (if se > 1023 { hi * pow2(1023) * pow2(se - 1023) } else { hi * pow2(se) }, hi)
        })
    }
}

/// [`extract`]'s pass, with `slice(x)` giving the integer and the slice
/// value of `x`.
#[inline(always)]
fn extract_with<W: PanelWord>(
    line: &mut [f64],
    out: &mut [W],
    sums: &mut [i32],
    kb: usize,
    word: &impl Fn(f64, f64) -> W,
    slice: &impl Fn(f64) -> (f64, f64),
) -> u64 {
    let mut mx = 0;
    for ((xs, ws), sum) in line.chunks_mut(kb).zip(out.chunks_mut(kb)).zip(sums) {
        let mut s = 0i32;
        for (x, w) in xs.iter_mut().zip(ws) {
            let (int, hi) = slice(*x);
            *x -= hi;
            *w = word(int + 0.0, hi);
            s = s.wrapping_add(w.sum_term());
            mx = mx.max(x.to_bits() & MAGNITUDE);
        }
        *sum = s;
    }
    mx
}

/// The next slice of each live line in a block: `rest` holds the lines
/// back to back, `out` the block's run of whole tiles of the slice panel,
/// `exp` and `mx` one entry per line, `buf` and `sums` one tile's words
/// and chunk sums. The lines of one tile are extracted into `buf`, with
/// their chunk sums, and the tile is packed from there in one
/// [`PanelLayout::put_lines`]. The panel is reused storage, so whatever
/// an engine call reads that no line writes is blanked to the layout's
/// stored zero first: a tile with no live line, and a live tile's padding
/// (rows past the last line, k values past a chunk's end). Dead lines get
/// exponent 0.
struct ExtractLines<'a, W, F> {
    rest: &'a mut [f64],
    out: &'a mut [W],
    exp: &'a mut [i32],
    mx: &'a mut [u64],
    buf: &'a mut [W],
    sums: &'a mut [i32],
    beta: u32,
    pack: Pack,
    word: &'a F,
}

impl<W: PanelWord, F: Fn(f64, f64) -> W> VariantWork for ExtractLines<'_, W, F> {
    type Output = ();

    // me-verify: hot
    #[inline(always)]
    fn call(self) {
        let ExtractLines { rest, out, exp, mx, buf, sums, beta, pack, word } = self;
        let len = rest.len().checked_div(exp.len()).unwrap_or(0);
        if len == 0 {
            return;
        }
        let layout = pack.layout;
        let (tile, chunks) = (layout.tile, len.div_ceil(pack.kb));
        let (stride, zero) = (layout.tile_stride(len, pack.kb), layout.zero::<W>());
        let pads = layout.pads(len, pack.kb);
        let tiles = rest.chunks_mut(tile * len).zip(exp.chunks_mut(tile).zip(mx.chunks_mut(tile)));
        for (t, (x, (e, m))) in tiles.enumerate() {
            let rows = e.len();
            let live = m.iter().any(|m| (1..INF_BITS).contains(m));
            if !live || rows < tile || pads {
                out[t * stride..(t + 1) * stride].fill(zero);
            }
            if !live {
                e.fill(0);
                continue;
            }
            for (r, ((x, e), m)) in
                x.chunks_mut(len).zip(e.iter_mut()).zip(m.iter_mut()).enumerate()
            {
                let (w, s) =
                    (&mut buf[r * len..(r + 1) * len], &mut sums[r * chunks..(r + 1) * chunks]);
                if (1..INF_BITS).contains(m) {
                    *e = ceil_exp(f64::from_bits(*m));
                    *m = extract(x, w, s, *e, beta, pack.kb, word);
                } else {
                    *e = 0;
                    w.fill(W::default());
                    s.fill(0);
                }
            }
            let (words, sums) = (&buf[..rows * len], &sums[..rows * chunks]);
            layout.put_lines(out, t * tile, words, len, sums, pack.kb);
        }
    }
}

/// Where [`split_panels`] packs each slice: the engine's panel layout and
/// its k-chunk length.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pack {
    pub layout: PanelLayout,
    pub kb: usize,
}

impl Pack {
    /// Plain line-major panels of `len`-long lines.
    pub fn lines(len: usize) -> Self {
        Pack { layout: PanelLayout::LINES, kb: len.max(1) }
    }
}

/// Where a split reads one operand's lines from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a> {
    /// The rows of a matrix (A's lines).
    Rows(&'a Mat<f64>),
    /// The columns of a matrix (B's lines).
    Cols(&'a Mat<f64>),
    /// One line.
    Line(&'a [f64]),
}

impl Source<'_> {
    /// Number of lines.
    pub fn lines(&self) -> usize {
        match self {
            Source::Rows(a) => a.rows(),
            Source::Cols(b) => b.cols(),
            Source::Line(_) => 1,
        }
    }

    /// Length of each line.
    pub fn len(&self) -> usize {
        match self {
            Source::Rows(a) => a.cols(),
            Source::Cols(b) => b.rows(),
            Source::Line(x) => x.len(),
        }
    }

    /// Write the lines back to back into `out` (`lines · len` long).
    fn write(&self, out: &mut [f64]) {
        match *self {
            Source::Rows(a) => out.copy_from_slice(a.as_slice()),
            Source::Line(x) => out.copy_from_slice(x),
            Source::Cols(b) => {
                // Eight rows of B at a time, so each pass writes a whole
                // cache line of every line.
                let (k, n) = b.shape();
                if out.is_empty() {
                    return;
                }
                for (p0, rows) in b.as_slice().chunks(8 * n).enumerate() {
                    for (j, line) in out.chunks_exact_mut(k).enumerate() {
                        let dst = &mut line[8 * p0..];
                        for (d, row) in dst.iter_mut().zip(rows.chunks_exact(n)) {
                            *d = row[j];
                        }
                    }
                }
            }
        }
    }
}

/// Slices any line can take at width `beta`. An extraction at scale `e`
/// leaves a residual of magnitude at most `2^(e − β − 1)`, so the next
/// scale is at least `β + 1` lower, and a line is exhausted once its grid
/// `2^(e − β)` reaches `2^-1074`; from a first scale of at most 1024 that
/// is at most `⌊2098 / (β + 1)⌋ + 2` extractions.
fn most_slices(beta: u32) -> usize {
    2098 / (beta as usize + 1) + 2
}

/// Where one operand's split sits in the workspace arena
/// ([`crate::workspace`]), and how its slices are laid out there: each
/// line's residual maximum, then one slot of per-line exponents per
/// possible slice, then the slice panels one after another. Every slot
/// is a whole number of 64-byte blocks, so every slice panel starts on a
/// 64-byte boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operand {
    /// Lines, and the length of each.
    lines: usize,
    len: usize,
    /// Where each slice is packed.
    pack: Pack,
    /// Words of one slice panel, and from one panel's start to the next.
    panel: usize,
    slot: usize,
    /// Exponents from one slice's to the next.
    exp_slot: usize,
    /// Slices at most.
    budget: usize,
    /// Byte offset of the operand in the arena.
    at: usize,
}

impl Operand {
    /// `src` split at width `beta` into at most `budget` slices of `W`s
    /// packed by `pack`, at byte `at` of the arena.
    fn new<W>(src: Source<'_>, pack: Pack, beta: u32, budget: usize, at: usize) -> Self {
        let (lines, len) = (src.lines(), src.len());
        let panel = pack.layout.len(lines, len, pack.kb);
        Operand {
            lines,
            len,
            pack,
            panel,
            slot: Regions::bytes::<W>(panel) / size_of::<W>(),
            exp_slot: Regions::bytes::<i32>(lines) / size_of::<i32>(),
            budget: budget.min(most_slices(beta)),
            at,
        }
    }

    /// Byte offset of the first slice panel.
    fn panels_at(&self) -> usize {
        self.at
            + Regions::bytes::<u64>(self.lines)
            + Regions::bytes::<i32>(self.budget * self.exp_slot)
    }

    /// Byte offset just past `slices` slice panels of `W`s.
    fn end<W>(&self, slices: usize) -> usize {
        self.panels_at() + slices * self.slot * size_of::<W>()
    }

    /// The line maxima, the exponent slots and the first `slices` slice
    /// panels, from `r` (not past the operand).
    #[allow(clippy::type_complexity)]
    fn carve<'a, W: Pod>(
        &self,
        r: &mut Regions<'a>,
        slices: usize,
    ) -> (&'a mut [u64], &'a mut [i32], &'a mut [W]) {
        let mx = r.seek(self.at).take(self.lines);
        let exps = r.take(self.budget * self.exp_slot);
        (mx, exps, r.take(slices * self.slot))
    }
}

/// A matrix's lines split into β-bit slices and packed as words: a view
/// of one operand's slices in the workspace arena.
#[derive(Debug)]
pub(crate) struct Panels<'a, W> {
    /// Number of lines.
    pub lines: usize,
    /// Whether every line's residual reached exactly zero.
    pub complete: bool,
    slices: usize,
    panel: usize,
    slot: usize,
    exp_slot: usize,
    words: &'a [W],
    exps: &'a [i32],
    mx: &'a [u64],
}

impl<'a, W: Pod> Panels<'a, W> {
    /// `op`'s first `slices` slices, carved from `r`.
    fn new(op: &Operand, r: &mut Regions<'a>, (slices, complete): (usize, bool)) -> Self {
        let (mx, exps, words) = op.carve::<W>(r, slices);
        let Operand { lines, panel, slot, exp_slot, .. } = *op;
        Panels { lines, complete, slices, panel, slot, exp_slot, words, exps, mx }
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices
    }

    /// Slice `p`: its panel of words in the [`Pack`] layout, reading as
    /// zeros past a line's last slice, and each line's scale exponent (0
    /// past its last slice).
    pub fn slice(&self, p: usize) -> (&'a [W], &'a [i32]) {
        assert!(p < self.slices, "slice {p} of {}", self.slices);
        (&self.words[p * self.slot..][..self.panel], &self.exps[p * self.exp_slot..][..self.lines])
    }

    /// Every slice, highest order first.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [W], &'a [i32])> + '_ {
        (0..self.slices).map(|p| self.slice(p))
    }

    /// Lines that hold a non-finite element or whose extraction
    /// overflowed; they stopped splitting.
    pub fn poisoned(&self) -> impl Iterator<Item = usize> + 'a {
        let mx = self.mx;
        (0..mx.len()).filter(move |&li| mx[li] >= INF_BITS)
    }
}

/// The accumulators, fold tiles and split operands of one call, in the
/// workspace arena ([`Plan::carve`]).
pub(crate) struct Call<'a, W, S> {
    /// The double-double accumulators, `C = hi + lo`, row-major.
    pub hi: &'a mut [f64],
    pub lo: &'a mut [f64],
    /// The fold tiles: one engine call's sums per row panel.
    pub tiles: &'a mut [S],
    /// A's and B's slices.
    pub a: Panels<'a, W>,
    pub b: Panels<'a, W>,
}

/// Where one call keeps its state in the calling thread's workspace arena
/// ([`crate::workspace`]), each region starting on a 64-byte boundary.
/// The split's state — the residual lines (A's, then B's) and each split
/// job's tile buffer — and the fold's — the accumulators `hi` and `lo`
/// and the fold tiles (sums `S`) — share the arena's start, since the
/// fold begins only once the split is done and resets its accumulators
/// first. After both come A's [`Operand`] and, from the end of A's last
/// slice panel on, B's, with slice words `W`.
pub(crate) struct Plan<'s, W, S> {
    sources: (Source<'s>, Source<'s>),
    beta: u32,
    acc: usize,
    tiles: usize,
    scratch_at: usize,
    jobs: usize,
    job_words: usize,
    job_sums: usize,
    a: Operand,
    b: Operand,
    _types: std::marker::PhantomData<(W, S)>,
}

impl<'s, W: PanelWord + Send + Sync, S: Pod> Plan<'s, W, S> {
    /// A call splitting `sources` (A's lines, B's lines of the same
    /// length) at width `beta` into at most `budget` slices each, packed
    /// by `packs`, with `jobs` split jobs at once, `acc` accumulators and
    /// `tiles` fold-tile sums.
    pub fn new(
        sources: (Source<'s>, Source<'s>),
        packs: (Pack, Pack),
        (beta, budget): (u32, usize),
        jobs: usize,
        (acc, tiles): (usize, usize),
    ) -> Self {
        let (sa, sb) = sources;
        let residual = (sa.lines() * sa.len()).max(sb.lines() * sb.len());
        let scratch_at = Regions::bytes::<f64>(residual);
        let tile = packs.0.layout.tile.max(packs.1.layout.tile);
        let len = sa.len().max(sb.len());
        let chunks = sa.len().div_ceil(packs.0.kb).max(sb.len().div_ceil(packs.1.kb));
        let (job_words, job_sums) = (tile * len, tile * chunks);
        let split_end = scratch_at
            + Regions::bytes::<W>(jobs * job_words)
            + Regions::bytes::<i32>(jobs * job_sums);
        let fold_end = 2 * Regions::bytes::<f64>(acc) + Regions::bytes::<S>(tiles);
        let a_at = split_end.max(fold_end);
        Plan {
            sources,
            beta,
            acc,
            tiles,
            scratch_at,
            jobs,
            job_words,
            job_sums,
            a: Operand::new::<W>(sa, packs.0, beta, budget, a_at),
            b: Operand::new::<W>(sb, packs.1, beta, budget, a_at),
            _types: std::marker::PhantomData,
        }
    }

    /// Split A's lines, then B's, into their slice panels in `arena`
    /// ([`split_panels`]), writing `word(integer, slice value)` per
    /// element; returns each operand's slice count and whether its split
    /// was exact.
    pub fn split(
        &mut self,
        arena: &mut Arena<'_>,
        kernel: KernelVariant,
        pool: Option<&WorkerPool>,
        word: &(impl Fn(f64, f64) -> W + Sync),
    ) -> [(usize, bool); 2] {
        let a = split_panels(arena, self, &self.a, self.sources.0, kernel, pool, word);
        self.b.at = self.a.end::<W>(a.0);
        let b = split_panels(arena, self, &self.b, self.sources.1, kernel, pool, word);
        [a, b]
    }

    /// The accumulators, fold tiles and both operands' slices in `arena`,
    /// after [`Self::split`] returned `split`.
    pub fn carve<'a>(&self, arena: &'a mut Arena<'_>, split: [(usize, bool); 2]) -> Call<'a, W, S> {
        let mut r = arena.regions();
        let (hi, lo, tiles) = (r.take(self.acc), r.take(self.acc), r.take(self.tiles));
        let a = Panels::new(&self.a, &mut r, split[0]);
        let b = Panels::new(&self.b, &mut r, split[1]);
        Call { hi, lo, tiles, a, b }
    }
}

/// Split `src`'s lines (those of `op`, a [`Plan`] operand) into at most
/// its budget of β-bit slices in `arena`, writing `word(integer, slice
/// value)` per element straight into each slice's panel in the operand's
/// layout: every slice is packed once, here, compiled for `kernel`'s
/// instruction set ([`KernelVariant::run`]; the bits never depend on it).
/// The lines are first written into the arena as the residual the split
/// consumes. A pool takes each slice's lines in contiguous blocks of
/// whole tiles, each block with its own tile buffer; lines never
/// interact, so any pool width gives the serial bits. Returns the slice
/// count and whether every line's residual reached exactly zero.
// me-verify: hot
pub(crate) fn split_panels<W: PanelWord + Send + Sync, S: Pod>(
    arena: &mut Arena<'_>,
    plan: &Plan<'_, W, S>,
    op: &Operand,
    src: Source<'_>,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
    word: &(impl Fn(f64, f64) -> W + Sync),
) -> (usize, bool) {
    let beta = plan.beta;
    assert!((1..=26).contains(&beta), "beta out of range: {beta}");
    let (lines, len, pack) = (op.lines, op.len, op.pack);
    arena.reserve(op.panels_at());
    {
        let mut r = arena.regions();
        let rest = r.take::<f64>(lines * len);
        src.write(rest);
        let (mx, _, _) = op.carve::<W>(&mut r, 0);
        // Each line's largest magnitude bits, with every `−0` made `+0` so
        // that a zero element packs to the all-zero word.
        mx.fill(0);
        for (m, line) in mx.iter_mut().zip(rest.chunks_mut(len.max(1))) {
            *m = line.iter_mut().fold(0, |m, x| {
                *x += 0.0;
                m.max(x.to_bits() & MAGNITUDE)
            });
        }
    }
    let mut slices = 0;
    loop {
        let (mx, _, _) = op.carve::<W>(&mut arena.regions(), 0);
        if slices == op.budget || !mx.iter().any(|m| (1..INF_BITS).contains(m)) {
            return (slices, mx.iter().all(|&m| m == 0));
        }
        arena.reserve(op.end::<W>(slices + 1));
        let mut r = arena.regions();
        let rest = r.take::<f64>(lines * len);
        let buf = r.seek(plan.scratch_at).take::<W>(plan.jobs * plan.job_words);
        let sums = r.take::<i32>(plan.jobs * plan.job_sums);
        let (mx, exps, panels) = op.carve::<W>(&mut r, slices + 1);
        let exp = &mut exps[slices * op.exp_slot..][..lines];
        let out = &mut panels[slices * op.slot..][..op.panel];
        let work = ExtractLines { rest, out, exp, mx, buf, sums, beta, pack, word };
        match pool {
            Some(p) => fan_out(p, kernel, work, (plan.job_words, plan.job_sums)),
            None => kernel.run(work),
        }
        slices += 1;
    }
}

/// `work` as contiguous blocks of whole tiles of its lines, one pool job
/// each, each job with its own `words`-long tile buffer and `sums` chunk
/// sums out of `work`'s.
fn fan_out<W: PanelWord + Send + Sync, F: Fn(f64, f64) -> W + Sync>(
    pool: &WorkerPool,
    kernel: KernelVariant,
    work: ExtractLines<'_, W, F>,
    (words, sums): (usize, usize),
) {
    let ExtractLines { rest, out, exp, mx, buf, sums: sum_buf, beta, pack, word } = work;
    let (lines, tile) = (exp.len(), pack.layout.tile);
    let len = rest.len() / lines.max(1);
    let stride = pack.layout.tile_stride(len, pack.kb);
    let block = lines.div_ceil(pool.threads()).next_multiple_of(tile);
    let mut jobs: Vec<_> = rest
        .chunks_mut(block * len)
        .zip(out.chunks_mut(block / tile * stride))
        .zip(exp.chunks_mut(block).zip(mx.chunks_mut(block)))
        .zip(buf.chunks_mut(words).zip(sum_buf.chunks_mut(sums)))
        .collect();
    pool.for_each_mut(&mut jobs, |_, (((rest, out), (exp, mx)), (buf, sums))| {
        kernel.run(ExtractLines { rest, out, exp, mx, buf, sums, beta, pack, word })
    });
}

/// Split `A` by rows into β-bit slices (for the left operand of GEMM).
///
/// `max_slices` bounds the number of extractions; if the residual is not
/// exhausted by then, the result is marked incomplete (lossy), which is the
/// "reduced number of split matrices" mode the paper mentions for
/// DGEMM-equivalent (rather than exact) accuracy.
pub fn split_rows(a: &Mat<f64>, beta: u32, max_slices: usize) -> SplitMatrix {
    split_matrix(a, beta, max_slices, true, selected_kernel(), None)
}

/// Split `B` by columns into β-bit slices (for the right operand of GEMM).
pub fn split_cols(b: &Mat<f64>, beta: u32, max_slices: usize) -> SplitMatrix {
    split_matrix(b, beta, max_slices, false, selected_kernel(), None)
}

/// [`split_rows`] with the per-line extractions fanned out over `pool`.
///
/// Lines are independent in the Ozaki extraction (a row of A never looks at
/// another row), so the result is **bitwise identical** to the serial split
/// for any pool width.
pub fn split_rows_parallel(
    a: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    pool: &WorkerPool,
) -> SplitMatrix {
    split_matrix(a, beta, max_slices, true, selected_kernel(), Some(pool))
}

/// [`split_cols`] with the per-line extractions fanned out over `pool`.
pub fn split_cols_parallel(
    b: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    pool: &WorkerPool,
) -> SplitMatrix {
    split_matrix(b, beta, max_slices, false, selected_kernel(), Some(pool))
}

/// The dense f64 form of [`split_panels`]: each slice's words are its
/// values, copied out of the workspace into a matrix of `a`'s shape.
fn split_matrix(
    a: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    by_rows: bool,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
) -> SplitMatrix {
    let src = if by_rows { Source::Rows(a) } else { Source::Cols(a) };
    let (lines, len) = (src.lines(), src.len());
    let pack = Pack::lines(len);
    let jobs = pool.map_or(1, WorkerPool::threads);
    let sources = (src, Source::Line(&[]));
    let mut plan = Plan::<f64, f64>::new(sources, (pack, pack), (beta, max_slices), jobs, (0, 0));
    let (mut words, mut scale_exp, poisoned, complete) = with_arena(|arena| {
        let split = plan.split(arena, kernel, pool, &|_, hi| hi);
        let p = plan.carve(arena, split).a;
        let words: Vec<Vec<f64>> = p.iter().map(|(w, _)| w.to_vec()).collect();
        let exps: Vec<Vec<i32>> = p.iter().map(|(_, e)| e.to_vec()).collect();
        (words, exps, p.poisoned().collect::<Vec<_>>(), p.complete)
    });
    if words.is_empty() && !poisoned.is_empty() {
        words.push(vec![0.0; lines * len]);
        scale_exp.push(vec![0; lines]);
    }
    for &li in &poisoned {
        words[0][li * len..(li + 1) * len].fill(f64::NAN);
    }
    let (r, c) = a.shape();
    let slices = words.into_iter().map(|w| {
        if by_rows {
            Mat::from_vec(r, c, w)
        } else {
            Mat::from_vec(c, r, w).transpose()
        }
    });
    SplitMatrix { slices: slices.collect(), scale_exp, beta, complete, by_rows }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(m: usize, n: usize, seed: u64, range_decades: i32) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 33) as f64 / (1u64 << 31) as f64; // [0,2)
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = ((state >> 33) as f64 / (1u64 << 31) as f64) / 2.0; // [0,1)
            let mag = (10.0f64).powf(d * range_decades as f64);
            (u - 1.0) * mag
        })
    }

    #[test]
    fn beta_matches_tensor_core_budget() {
        // f32 accumulate (24-bit), f16 multiply (11-bit).
        assert_eq!(required_beta(8192, 24, 11), 5); // (23-13)/2
        assert_eq!(required_beta(1024, 24, 11), 6); // (23-10)/2
        assert_eq!(required_beta(16, 24, 11), 9); // (23-4)/2
        assert_eq!(required_beta(1, 24, 11), 11); // clamped to mul precision
        // f64 accumulate allows wide slices, clamped by f16 multiply.
        assert_eq!(required_beta(1024, 53, 11), 11);
    }

    #[test]
    fn beta_integer_log2_boundaries() {
        // k = 2^j and k = 2^j + 1 straddle the ⌈log₂⌉ step.
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        for j in 1..60u32 {
            let k = 1usize << j;
            assert_eq!(ceil_log2(k), j, "k=2^{j}");
            assert_eq!(ceil_log2(k + 1), j + 1, "k=2^{j}+1");
        }
        // The step must show up in the beta budget.
        assert_eq!(required_beta(8192, 24, 11), 5); // (23-13)/2
        assert_eq!(required_beta(8193, 24, 11), 4); // (23-14)/2
        // Regression: (2^53 + 1) as f64 rounds to 2^53, so the float
        // ⌈log₂⌉ came back 53 instead of 54 — one slice bit too generous.
        assert_eq!(required_beta((1usize << 53) + 1, 120, 64), 32);
    }

    #[test]
    fn beta_boundaries_across_all_binades() {
        // k = 2^j − 1, 2^j, 2^j + 1 up to the f64-mantissa binade j = 53:
        // ⌈log₂⌉ must be exact in integer arithmetic at every boundary
        // (the float route already fails at j = 53), and required_beta
        // must hold steady inside a binade and step down exactly when k
        // first exceeds 2^j.
        let acc_p = 120u32; // wide accumulator: the budget, not mul_p, decides
        let mul_p = 64u32;
        for j in 2..=53u32 {
            let k = 1usize << j;
            assert_eq!(ceil_log2(k - 1), j, "k=2^{j}-1");
            assert_eq!(ceil_log2(k), j, "k=2^{j}");
            assert_eq!(ceil_log2(k + 1), j + 1, "k=2^{j}+1");
            let expect_at = ((acc_p - 1 - j) / 2).clamp(1, mul_p);
            let expect_above = ((acc_p - 1 - (j + 1)) / 2).clamp(1, mul_p);
            assert_eq!(required_beta(k - 1, acc_p, mul_p), expect_at, "below, j={j}");
            assert_eq!(required_beta(k, acc_p, mul_p), expect_at, "at, j={j}");
            assert_eq!(required_beta(k + 1, acc_p, mul_p), expect_above, "above, j={j}");
        }
    }

    #[test]
    fn parallel_split_is_bit_identical_to_serial() {
        let a = mk(17, 11, 23, 12);
        let serial_r = split_rows(&a, 5, 64);
        let serial_c = split_cols(&a, 5, 64);
        for threads in [1, 2, 3, 8] {
            let pool = me_par::WorkerPool::new(threads);
            let par_r = split_rows_parallel(&a, 5, 64, &pool);
            assert_eq!(par_r.len(), serial_r.len(), "threads={threads}");
            assert_eq!(par_r.complete, serial_r.complete);
            assert_eq!(par_r.scale_exp, serial_r.scale_exp);
            for (p, s) in par_r.slices.iter().zip(&serial_r.slices) {
                assert_eq!(p, s, "threads={threads}: row slice differs");
            }
            let par_c = split_cols_parallel(&a, 5, 64, &pool);
            assert_eq!(par_c.scale_exp, serial_c.scale_exp);
            for (p, s) in par_c.slices.iter().zip(&serial_c.slices) {
                assert_eq!(p, s, "threads={threads}: col slice differs");
            }
        }
    }

    #[test]
    fn split_reconstructs_exactly_narrow_range() {
        let a = mk(13, 9, 1, 0);
        let s = split_rows(&a, 5, 64);
        assert!(s.complete, "narrow-range split must terminate ({} slices)", s.len());
        assert_eq!(s.reconstruct(), a);
        // Narrow range (all magnitudes within one decade): about
        // ceil(53/5)+1 = 12 slices.
        assert!(s.len() <= 14, "too many slices: {}", s.len());
    }

    #[test]
    fn split_reconstructs_exactly_wide_range() {
        let a = mk(8, 8, 2, 16);
        let s = split_rows(&a, 5, 128);
        assert!(s.complete);
        assert_eq!(s.reconstruct(), a);
    }

    #[test]
    fn slice_count_grows_with_dynamic_range() {
        // The Table VIII effect: wider input ranges need more slices.
        let narrow = split_rows(&mk(16, 16, 3, 8), 5, 256).len();
        let mid = split_rows(&mk(16, 16, 3, 16), 5, 256).len();
        let wide = split_rows(&mk(16, 16, 3, 32), 5, 256).len();
        assert!(narrow < mid && mid < wide, "{narrow} {mid} {wide}");
    }

    #[test]
    fn slices_are_beta_bit_integers_at_their_scale() {
        let a = mk(6, 10, 7, 10);
        let beta = 5;
        let s = split_rows(&a, beta, 64);
        for (slice, exps) in s.slices.iter().zip(&s.scale_exp) {
            for (i, &ei) in exps.iter().enumerate() {
                if ei == 0 && slice.row(i).iter().all(|&v| v == 0.0) {
                    continue;
                }
                let q = pow2((ei - beta as i32).max(-1074));
                for &v in slice.row(i) {
                    if v == 0.0 {
                        continue;
                    }
                    let scaled = v / q;
                    assert_eq!(scaled.fract(), 0.0, "slice element {v} not on the grid");
                    assert!(
                        scaled.abs() <= (1u64 << beta) as f64,
                        "slice integer {scaled} exceeds 2^beta"
                    );
                }
            }
        }
    }

    #[test]
    fn split_cols_mirrors_split_rows_on_transpose() {
        let a = mk(5, 8, 11, 6);
        let at = a.transpose();
        let by_cols = split_cols(&a, 5, 64);
        let by_rows = split_rows(&at, 5, 64);
        assert_eq!(by_cols.len(), by_rows.len());
        for (sc, sr) in by_cols.slices.iter().zip(&by_rows.slices) {
            assert_eq!(&sc.transpose(), sr);
        }
    }

    #[test]
    fn zero_matrix_splits_to_nothing() {
        let z = Mat::<f64>::zeros(4, 4);
        let s = split_rows(&z, 5, 16);
        assert!(s.complete);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn incomplete_split_is_flagged() {
        let a = mk(4, 4, 13, 20);
        let s = split_rows(&a, 5, 2); // far too few slices
        assert!(!s.complete);
        assert!(s.reconstruct().max_abs_diff(&a) > 0.0);
    }

    #[test]
    fn ceil_exp_exact_powers() {
        assert_eq!(ceil_exp(1.0), 0);
        assert_eq!(ceil_exp(2.0), 1);
        assert_eq!(ceil_exp(0.5), -1);
        assert_eq!(ceil_exp(3.0), 2);
        assert_eq!(ceil_exp(0.75), 0);
        assert_eq!(ceil_exp(-3.0), 2);
    }

    #[test]
    fn ceil_exp_reads_subnormals_and_the_top_binade_off_the_bits() {
        assert_eq!(ceil_exp(pow2(-1074)), -1074);
        assert_eq!(ceil_exp(3.0 * pow2(-1074)), -1072);
        assert_eq!(ceil_exp(pow2(-1023) + pow2(-1074)), -1022);
        assert_eq!(ceil_exp(f64::MIN_POSITIVE), -1022);
        assert_eq!(ceil_exp(pow2(1023)), 1023);
        // The old log2 search saturated at i32::MAX and stepped down ~2^31
        // times for these two.
        assert_eq!(ceil_exp(f64::MAX), 1024);
        assert_eq!(ceil_exp(f64::INFINITY), 1024);
    }
}
