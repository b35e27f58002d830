//! Error-free matrix slicing (step 1 of the Ozaki scheme). Every
//! extraction goes through [`split_panels`]; DESIGN §4 has its exactness.
//!
//! Each operand's residual is kept in the order its engine's
//! [`PanelLayout`] stores words, so that residual `i` becomes word `i` of
//! every slice panel; padding rows, k pads and INT8 sum slots hold `+0`.
//! [`Source::write`] fills it once per call, with each line's maximum.
//! Each slice is then one elementwise pass over it ([`slice_pass`], in
//! me-linalg): the residual update, the narrowing to the engine's word
//! straight into the slice panel and, for INT8's B, each chunk's sum —
//! the explicit AVX-512 kernel on that variant, plain Rust compiled per
//! variant ([`KernelVariant::run`]) elsewhere, the same bits on every
//! one. Residual, panels and exponents live in the calling thread's
//! workspace ([`crate::workspace`], laid out by [`Plan`]).

use crate::workspace::{with_arena, Arena};
use me_linalg::blas3::ukernel::MR_F32;
use me_linalg::{
    selected_kernel, slice_pass, KernelVariant, Mat, PanelFormat, PanelLayout, PanelWord, Pod,
    Regions, SliceLanes, SliceWord, VariantWork, SUM_WORDS,
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

/// The shape of one operand's split: slice width β, where each slice is
/// packed, and the length of each line.
#[derive(Debug, Clone, Copy)]
struct Shape {
    beta: u32,
    pack: Pack,
    len: usize,
}

/// Lines per tile of any layout a split packs, and lanes per period of
/// any grouped one (`tile · group`: 8, 32, 64 or 128).
const MAX_TILE: usize = 32;
const MAX_PERIOD: usize = 128;

/// How a split stores each element: `narrow(integer, slice value)`, and
/// the AVX-512 conversion that gives the same word from the integer,
/// where there is one ([`slice_pass`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Words<F> {
    pub narrow: F,
    pub simd: Option<SliceWord>,
}

/// Slices a split takes per visit to a tile, while the tile's residual
/// stays in cache: each line's next exponent needs only its own
/// residual, so a tile runs several slices before the next tile starts.
const BATCH: usize = 4;

/// The next `batch` slices of the lines of a run of whole tiles: `rest`
/// is the tiles' residual in panel order, `out[k]` their words in slice
/// `k`'s panel (`rest[i]` becomes `out[k][i]`), `exp[k]` their lines'
/// exponents in slice `k`, `mx` one maximum per line.
struct SliceTiles<'a, W, F> {
    rest: &'a mut [f64],
    out: [&'a mut [W]; BATCH],
    exp: [&'a mut [i32]; BATCH],
    mx: &'a mut [u64],
    batch: usize,
    shape: Shape,
    words: &'a Words<F>,
    kernel: KernelVariant,
}

impl<W: PanelWord, F: Fn(f64, f64) -> W> VariantWork for SliceTiles<'_, W, F> {
    /// Bit `k` set: some line was live at slice `k`.
    type Output = u32;

    // me-verify: hot
    #[inline(always)]
    fn call(self) -> u32 {
        let SliceTiles { rest, mut out, mut exp, mx, batch, shape, words, kernel } = self;
        let (tile, kb) = (shape.pack.layout.tile, shape.pack.kb);
        if shape.len == 0 {
            return 0;
        }
        let stride = shape.pack.layout.tile_stride(shape.len, kb);
        let (mut live, mut lanes) = (0, TileLanes::new());
        for (t, (x, m)) in rest.chunks_mut(stride).zip(mx.chunks_mut(tile)).enumerate() {
            for (k, (out, exp)) in out.iter_mut().zip(exp.iter_mut()).take(batch).enumerate() {
                let (w, e) = (&mut out[t * stride..][..stride], &mut exp[t * tile..][..m.len()]);
                if slice_tile(x, w, e, m, &mut lanes, shape, words, kernel) {
                    live |= 1 << k;
                }
            }
        }
        live
    }
}

/// One tile's lanes for [`slice_pass`], reused tile after tile: line `r`
/// of the tile has lanes `r · g .. (r + 1) · g` of a grouped layout's
/// period, lane `r` of a row-major one.
struct TileLanes {
    scale: [f64; MAX_PERIOD],
    grid: [f64; MAX_PERIOD],
    max: [u64; MAX_PERIOD],
    sum: [i64; MAX_PERIOD],
}

impl TileLanes {
    fn new() -> Self {
        TileLanes {
            scale: [0.0; MAX_PERIOD],
            grid: [0.0; MAX_PERIOD],
            max: [0; MAX_PERIOD],
            sum: [0; MAX_PERIOD],
        }
    }
}

/// One tile's next slice: its residual `x` and words `w` (one tile
/// stride each), its lines' exponents `e` and maxima `m`. Each live line
/// gets its scale exponent from its maximum, and the tile's residual is
/// split by [`slice_pass`], one chunk block at a time, the lines' factors
/// at their lanes; every word of the tile is written, since padding,
/// dead lines and sum slots hold `+0` (and get zero factors). INT8 B's
/// chunk sums are written from the lane sums. A line whose `2^(β − e)` is
/// not normal, or at the top binade, is split element by element instead
/// ([`split_line`]); a line whose slice overflowed has its residual
/// zeroed. A tile with no live line gets the layout's zero words; dead
/// lines get exponent 0. Returns whether any line was live.
// me-verify: hot
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn slice_tile<W: PanelWord, F: Fn(f64, f64) -> W>(
    x: &mut [f64],
    w: &mut [W],
    e: &mut [i32],
    m: &mut [u64],
    lanes: &mut TileLanes,
    shape: Shape,
    words: &Words<F>,
    kernel: KernelVariant,
) -> bool {
    let Shape { beta, pack: Pack { layout, kb }, len } = shape;
    let (tile, gw) = (layout.tile, layout.group.max(1));
    let width = tile * gw;
    let (mut live, mut odd) = (0u64, 0u64);
    for r in 0..tile {
        // Zero factors keep a zero residual zero and give zero words.
        let (mut s, mut q) = (0.0, 0.0);
        if r < m.len() {
            e[r] = 0;
            if (1..INF_BITS).contains(&m[r]) {
                live |= 1 << r;
                e[r] = ceil_exp(f64::from_bits(m[r]));
                let se = beta as i32 - e[r];
                // Lines at the top binade (`e = 1024`) split element by
                // element too: their slice can round up to `2^1024`.
                if (-1022..=1023).contains(&se) && e[r] < 1024 {
                    (s, q) = (pow2(se), pow2(-se));
                } else {
                    odd |= 1 << r;
                }
            }
        }
        lanes.scale[r * gw..(r + 1) * gw].fill(s);
        lanes.grid[r * gw..(r + 1) * gw].fill(q);
    }
    if live == 0 {
        w.fill(layout.zero());
        return false;
    }
    let sums = layout.format == PanelFormat::ChunkSums;
    lanes.max[..width].fill(0);
    for c in 0..len.div_ceil(kb) {
        let kc = kb.min(len - c * kb);
        let cl = layout.chunk_len(kc);
        let at = tile * c * layout.chunk_len(kb);
        // A row-major chunk is one run of `cl` per line; a grouped one
        // repeats the lanes, and its values and pads end before its sums.
        let (run, n) = match layout.group {
            0 => (cl, tile * cl),
            _ => (1, tile * kc.next_multiple_of(layout.k_pad)),
        };
        if sums {
            lanes.sum[..width].fill(0);
        }
        let pass = SliceLanes {
            scale: &lanes.scale[..width],
            grid: &lanes.grid[..width],
            max: &mut lanes.max[..width],
            sum: if sums { &mut lanes.sum[..width] } else { &mut [] },
        };
        let (xb, wb) = (&mut x[at..at + n], &mut w[at..at + n]);
        slice_pass(kernel, xb, wb, run, pass, layout.format, &words.narrow, words.simd);
        if sums {
            // Each line's chunk sum sits where its next k values would:
            // in the row of groups after the block's values.
            for (r, s) in lanes.sum[..width].chunks_exact(gw).enumerate() {
                let s: i64 = s.iter().sum();
                w[at + n + r * gw..][..SUM_WORDS].copy_from_slice(&W::sum_words(s as i32));
            }
        }
    }
    for (r, m) in m.iter_mut().enumerate() {
        if live & (1 << r) == 0 {
            continue;
        }
        *m = if odd & (1 << r) != 0 {
            split_line(x, w, r, e[r], shape, &words.narrow)
        } else {
            lanes.max[r * gw..(r + 1) * gw].iter().copied().fold(0, u64::max)
        };
        if *m >= INF_BITS {
            zero_line(x, r, shape.pack, len);
        }
    }
    true
}

/// Line `r` of a tile's next slice at scale exponent `e`, element by
/// element, for a `2^(β − e)` outside f64's normal range or a line at the
/// top binade: each element `x` splits into `hi = round_ties_even(x / q)
/// · q`, `q = 2^(e − β)`, and the residual `x − hi`, and its word is
/// `narrow(hi / q, hi)` (the integer scaled in two exact steps where
/// `2^(β − e)` exceeds f64's range), with its chunk's sum. Where `2^(β −
/// e)` is normal the integer is `round_ties_even(x · 2^(β − e))`, as in
/// [`slice_pass`], and where it is below that range (`q > 2^1022`) it is
/// `round_ties_even(x / q)`, so a first slice that rounds up to `2^1024`
/// still stores its integer. Returns the residual's largest magnitude
/// bits.
fn split_line<W: PanelWord>(
    x: &mut [f64],
    w: &mut [W],
    r: usize,
    e: i32,
    Shape { beta, pack: Pack { layout, kb }, len }: Shape,
    narrow: &impl Fn(f64, f64) -> W,
) -> u64 {
    let se = beta as i32 - e;
    // Clamp the grid at the smallest subnormal: once `2^(e − β)` falls
    // below 2^-1074 every remaining residual is an exact multiple of the
    // clamped grid, so `hi = x` and the residual terminates at zero.
    let q = pow2((-se).max(-1074));
    let mut mx = 0;
    for c in 0..len.div_ceil(kb) {
        let kc = kb.min(len - c * kb);
        let mut sum = 0i64;
        for p in 0..kc {
            let i = layout.slot(r, c, p, len, kb);
            let (int, hi) = if (-1022..=1023).contains(&se) {
                let int = (x[i] * pow2(se)).round_ties_even();
                (int, int * q)
            } else if se < 0 {
                // A grid above 2^1022 (β = 1 at the top binade): `x / q`
                // is exact, and the integer is kept even where `hi`
                // rounds up to 2^1024.
                let int = (x[i] / q).round_ties_even();
                (int, int * q)
            } else {
                let hi = (x[i] / q).round_ties_even() * q;
                (hi * pow2(1023) * pow2(se - 1023), hi)
            };
            x[i] -= hi;
            w[i] = narrow(int + 0.0, hi).stored(layout.format);
            sum += int as i64;
            mx = mx.max(x[i].to_bits() & MAGNITUDE);
        }
        if layout.format == PanelFormat::ChunkSums {
            let end = kc.next_multiple_of(layout.k_pad);
            for (i, b) in W::sum_words(sum as i32).into_iter().enumerate() {
                w[layout.slot(r, c, end + i, len, kb)] = b;
            }
        }
    }
    mx
}

/// Zero line `r`'s residual in a tile of `len`-long lines (panel order).
fn zero_line(x: &mut [f64], r: usize, Pack { layout, kb }: Pack, len: usize) {
    for c in 0..len.div_ceil(kb) {
        for p in 0..kb.min(len - c * kb) {
            x[layout.slot(r, c, p, len, kb)] = 0.0;
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

    /// The lines as a strided view: value `p` of line `li` is
    /// `data[li · line + p · step]`.
    fn view(&self) -> (&[f64], usize, usize) {
        match *self {
            Source::Rows(a) => (a.as_slice(), a.cols(), 1),
            Source::Cols(b) => (b.as_slice(), 1, b.cols()),
            Source::Line(x) => (x, 0, 1),
        }
    }

    /// Write the lines into `out` as the residual a split consumes, in
    /// `pack`'s panel order (`out` is one panel long): each value where
    /// its word goes, every `−0` made `+0` so that a zero packs to the
    /// all-zero word, and `+0` wherever no value lands (padding rows, k
    /// pads, chunk sums). Each line's largest magnitude bits go to `mx`;
    /// a line holding ±inf or NaN keeps its maximum, at least `+inf`'s
    /// bits (the poison mark), and a zero residual. Inlined into
    /// [`Gather`], so it compiles per variant.
    #[inline(always)]
    fn write(&self, pack: Pack, out: &mut [f64], mx: &mut [u64]) {
        let (data, line, step) = self.view();
        let (lines, len) = (self.lines(), self.len());
        let Pack { layout, kb } = pack;
        let (tile, g) = (layout.tile, layout.group);
        let magnitude = |v: &f64| v.to_bits() & MAGNITUDE;
        // Positions no value lands on hold `+0`.
        let full = lines.is_multiple_of(tile) && !layout.pads(len, kb);
        if !full || layout.format == PanelFormat::ChunkSums {
            out.fill(0.0);
        }
        mx.fill(0);
        if len == 0 || lines == 0 {
            return;
        }
        if step == 1 {
            for (li, m) in mx.iter_mut().enumerate() {
                *m = data[li * line..][..len].iter().map(magnitude).fold(0, u64::max);
            }
        } else {
            // `line` is 1: value `p` of every line is one row of `data`.
            for row in data.chunks_exact(step) {
                for (m, v) in mx.iter_mut().zip(row) {
                    *m = (*m).max(magnitude(v));
                }
            }
        }
        let width = tile * g;
        let stride = layout.tile_stride(len, kb);
        for (t, tx) in out.chunks_mut(stride).enumerate() {
            let first = t * tile;
            let rows = tile.min(lines - first);
            for c in 0..len.div_ceil(kb) {
                let (k0, kc) = (c * kb, kb.min(len - c * kb));
                let cl = layout.chunk_len(kc);
                let block = &mut tx[tile * c * layout.chunk_len(kb)..][..tile * cl];
                // The values of the tile's line `r`, where `step` is 1.
                let own = |r: usize| &data[(first + r) * line + k0..][..kc];
                if g == 0 && step == 1 {
                    // Line `r`'s values form one run of `cl` words.
                    for r in 0..rows {
                        put(block[r * cl..][..kc].iter_mut(), own(r).iter());
                    }
                } else if g == 0 {
                    // `line` is 1: eight values of each line at a time, so
                    // each pass over the lines reads whole cache lines of
                    // eight rows of `data`.
                    for p in (0..kc).step_by(MR_F32) {
                        let values = &data[(k0 + p) * step + first..];
                        for r in 0..rows {
                            let src = values[r..].iter().step_by(step);
                            put(block[r * cl + p..][..MR_F32.min(kc - p)].iter_mut(), src);
                        }
                    }
                } else if step == 1 && (g, tile, rows) == (1, MR_F32, MR_F32) {
                    // A whole `F32_A` tile: its 8 lines transposed.
                    interleave::<MR_F32>(block, std::array::from_fn(own));
                } else if step == 1 {
                    // Line `r`'s `g` values of a group sit at `r · g` in
                    // the group's row of `width` words.
                    for r in 0..rows {
                        let groups = block[r * g..].chunks_mut(width).zip(own(r).chunks(g));
                        for (dst, vs) in groups {
                            put(dst.iter_mut(), vs.iter());
                        }
                    }
                } else {
                    // `line` is 1: value `p` of the tile's lines is
                    // contiguous.
                    let values = |p: usize| &data[(k0 + p) * step + first..][..rows];
                    for (q, row) in block.chunks_exact_mut(width).take(kc.div_ceil(g)).enumerate() {
                        let p = q * g;
                        match g {
                            1 => put(row.iter_mut(), values(p).iter()),
                            2 if p + 2 <= kc => interleave::<2>(row, [values(p), values(p + 1)]),
                            4 if p + 4 <= kc => interleave::<4>(
                                row,
                                [values(p), values(p + 1), values(p + 2), values(p + 3)],
                            ),
                            _ => {
                                for d in 0..g.min(kc - p) {
                                    put(row[d..].iter_mut().step_by(g), values(p + d).iter());
                                }
                            }
                        }
                    }
                }
            }
            for r in 0..rows {
                if mx[first + r] >= INF_BITS {
                    zero_line(tx, r, pack, len);
                }
            }
        }
    }
}

/// [`Source::write`] of `src` in `pack`'s order into `out`, maxima into
/// `mx`, as a [`VariantWork`].
struct Gather<'a> {
    src: Source<'a>,
    pack: Pack,
    out: &'a mut [f64],
    mx: &'a mut [u64],
}

impl VariantWork for Gather<'_> {
    type Output = ();

    #[inline(always)]
    fn call(self) {
        self.src.write(self.pack, self.out, self.mx)
    }
}

/// Copy `src` into `dst`, every `−0` made `+0`.
#[inline(always)]
fn put<'a, 'b>(dst: impl Iterator<Item = &'a mut f64>, src: impl Iterator<Item = &'b f64>) {
    for (d, &v) in dst.zip(src) {
        *d = v + 0.0;
    }
}

/// One row of groups of `G` values: value `j` of line `r`'s group,
/// `src[j][r]`, at `row[r · G + j]`, every `−0` made `+0`.
#[inline(always)]
fn interleave<const G: usize>(row: &mut [f64], src: [&[f64]; G]) {
    for (r, dst) in row.chunks_exact_mut(G).take(src[0].len()).enumerate() {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s[r] + 0.0;
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
/// The split's state — the residual, one slice panel long, in panel
/// order (A's, then B's) — and the fold's — the accumulators `hi` and
/// `lo` and the fold tiles (sums `S`) — share the arena's start, since
/// the fold begins only once the split is done and resets its
/// accumulators first. After both come A's [`Operand`] and, from the end
/// of A's last slice panel on, B's, with slice words `W`.
pub(crate) struct Plan<'s, W, S> {
    sources: (Source<'s>, Source<'s>),
    beta: u32,
    acc: usize,
    tiles: usize,
    a: Operand,
    b: Operand,
    _types: std::marker::PhantomData<(W, S)>,
}

impl<'s, W: PanelWord + Send + Sync, S: Pod> Plan<'s, W, S> {
    /// A call splitting `sources` (A's lines, B's lines of the same
    /// length) at width `beta` into at most `budget` slices each, packed
    /// by `packs`, with `acc` accumulators and `tiles` fold-tile sums.
    pub fn new(
        sources: (Source<'s>, Source<'s>),
        packs: (Pack, Pack),
        (beta, budget): (u32, usize),
        (acc, tiles): (usize, usize),
    ) -> Self {
        let (sa, sb) = sources;
        let mut a = Operand::new::<W>(sa, packs.0, beta, budget, 0);
        let mut b = Operand::new::<W>(sb, packs.1, beta, budget, 0);
        let split_end = Regions::bytes::<f64>(a.panel.max(b.panel));
        let fold_end = 2 * Regions::bytes::<f64>(acc) + Regions::bytes::<S>(tiles);
        (a.at, b.at) = (split_end.max(fold_end), split_end.max(fold_end));
        Plan { sources, beta, acc, tiles, a, b, _types: std::marker::PhantomData }
    }

    /// Split A's lines, then B's, into their slice panels in `arena`
    /// ([`split_panels`]), storing each element as `words` says; returns
    /// each operand's slice count and whether its split was exact.
    pub fn split(
        &mut self,
        arena: &mut Arena<'_>,
        kernel: KernelVariant,
        pool: Option<&WorkerPool>,
        words: &Words<impl Fn(f64, f64) -> W + Sync>,
    ) -> [(usize, bool); 2] {
        let shape = |op: &Operand| Shape { beta: self.beta, pack: op.pack, len: op.len };
        let a = split_panels(arena, &self.a, shape(&self.a), self.sources.0, kernel, pool, words);
        self.b.at = self.a.end::<W>(a.0);
        let b = split_panels(arena, &self.b, shape(&self.b), self.sources.1, kernel, pool, words);
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

/// Split `src`'s lines (those of `op`, a [`Plan`] operand of `shape`)
/// into at most its budget of β-bit slices in `arena`, storing each
/// element as `words` says straight into each slice's panel in the
/// operand's layout: every slice is packed once, here, compiled for
/// `kernel`'s instruction set ([`KernelVariant::run`]; the bits never
/// depend on it). The lines are first written into the arena as the
/// residual the split consumes, in the panel's order, so that each slice
/// is one elementwise pass over it ([`slice_pass`]). Slices go in batches
/// of up to [`BATCH`], each tile taking the whole batch in turn; a batch
/// counts its slices up to the last one with a live line (liveness only
/// ever ends), and any later panel of it is left unused. A pool takes the
/// lines in contiguous blocks of whole tiles; lines never interact, so
/// any pool width gives the serial bits. Returns the slice count and
/// whether every line's residual reached exactly zero.
// me-verify: hot
fn split_panels<W: PanelWord + Send + Sync>(
    arena: &mut Arena<'_>,
    op: &Operand,
    shape: Shape,
    src: Source<'_>,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
    words: &Words<impl Fn(f64, f64) -> W + Sync>,
) -> (usize, bool) {
    let beta = shape.beta;
    assert!((1..=26).contains(&beta), "beta out of range: {beta}");
    let layout = op.pack.layout;
    assert!(
        layout.tile <= MAX_TILE
            && layout.tile * layout.group <= MAX_PERIOD
            && (layout.group == 0 || layout.group.is_power_of_two())
            && (layout.format != PanelFormat::ChunkSums || layout.group == SUM_WORDS),
        "split: no lane pattern for {layout:?}"
    );
    arena.reserve(op.panels_at());
    {
        let mut r = arena.regions();
        let rest = r.take::<f64>(op.panel);
        let (mx, _, _) = op.carve::<W>(&mut r, 0);
        kernel.run(Gather { src, pack: op.pack, out: rest, mx });
    }
    let mut slices = 0;
    loop {
        let (mx, _, _) = op.carve::<W>(&mut arena.regions(), 0);
        if slices == op.budget || !mx.iter().any(|m| (1..INF_BITS).contains(m)) {
            return (slices, mx.iter().all(|&m| m == 0));
        }
        let batch = BATCH.min(op.budget - slices);
        arena.reserve(op.end::<W>(slices + batch));
        let mut r = arena.regions();
        let rest = r.take::<f64>(op.panel);
        let (mx, exps, panels) = op.carve::<W>(&mut r, slices + batch);
        let (mut exps, mut panels) =
            (&mut exps[slices * op.exp_slot..], &mut panels[slices * op.slot..]);
        let mut out: [&mut [W]; BATCH] = Default::default();
        let mut exp: [&mut [i32]; BATCH] = Default::default();
        for (o, e) in out.iter_mut().zip(exp.iter_mut()).take(batch) {
            let (w, rest) = std::mem::take(&mut panels).split_at_mut(op.panel);
            (*o, panels) = (w, &mut rest[op.slot - op.panel..]);
            let (x, rest) = std::mem::take(&mut exps).split_at_mut(op.lines);
            (*e, exps) = (x, &mut rest[op.exp_slot - op.lines..]);
        }
        let work = SliceTiles { rest, out, exp, mx, batch, shape, words, kernel };
        let live = match pool {
            Some(p) => fan_out(p, work),
            None => kernel.run(work),
        };
        slices += live.trailing_ones() as usize;
    }
}

/// `work` as contiguous blocks of whole tiles of its lines, one pool job
/// each; returns the union of the jobs' live bits.
fn fan_out<W: PanelWord + Send + Sync, F: Fn(f64, f64) -> W + Sync>(
    pool: &WorkerPool,
    work: SliceTiles<'_, W, F>,
) -> u32 {
    let SliceTiles { rest, out, exp, mx, batch, shape, words, kernel } = work;
    let tile = shape.pack.layout.tile;
    let stride = shape.pack.layout.tile_stride(shape.len, shape.pack.kb);
    let block = mx.len().div_ceil(pool.threads()).next_multiple_of(tile);
    let words_per_job = block / tile * stride;
    let mut outs = out.map(|o| o.chunks_mut(words_per_job));
    let mut exps = exp.map(|e| e.chunks_mut(block));
    let mut jobs: Vec<_> = rest
        .chunks_mut(words_per_job)
        .zip(mx.chunks_mut(block))
        .map(|(rest, mx)| {
            let out = outs.each_mut().map(|o| o.next().unwrap_or_default());
            (rest, out, exps.each_mut().map(|e| e.next().unwrap_or_default()), mx, 0)
        })
        .collect();
    pool.for_each_mut(&mut jobs, |_, (rest, out, exp, mx, live)| {
        let (out, exp) = (out.each_mut().map(|o| &mut **o), exp.each_mut().map(|e| &mut **e));
        *live = kernel.run(SliceTiles { rest, out, exp, mx, batch, shape, words, kernel });
    });
    jobs.iter().fold(0, |live, job| live | job.4)
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
    let sources = (src, Source::Line(&[]));
    let mut plan = Plan::<f64, f64>::new(sources, (pack, pack), (beta, max_slices), (0, 0));
    let (mut words, mut scale_exp, poisoned, complete) = with_arena(|arena| {
        let split = plan.split(arena, kernel, pool, &Words { narrow: |_, hi| hi, simd: None });
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
