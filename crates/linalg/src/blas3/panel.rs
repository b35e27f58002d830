//! Packed operand panels for the engine calls.
//!
//! An engine call ([`super::gemm_f32_f32`], [`super::gemm_half_f32`],
//! [`super::gemm_i8_i32`]) multiplies an `m × kc` block of A rows by the
//! transpose of an `n × kc` block of B columns, one k-chunk of a longer
//! product. The caller packs each operand once, for every chunk at once,
//! into the layout the kernel's register tile streams, and every later call
//! only computes: no per-call pack.
//!
//! A panel holds `lines` lines (rows of A, or columns of B) of `k` words
//! each. Lines are grouped into tiles of [`PanelLayout::tile`] lines, the
//! last one padded. Each tile holds its lines' whole k extent chunk by
//! chunk (chunks of `kb` words, the last one shorter), each chunk padded to
//! a multiple of [`PanelLayout::k_pad`]. Inside a chunk, the tile's lines
//! are interleaved in groups of [`PanelLayout::group`] consecutive k
//! values; `group == 0` stores each line's whole padded chunk in turn, so
//! the chunk is row-major. Padding holds the stored zero
//! ([`PanelLayout::blank`]).
//!
//! So the block of one chunk of one tile is contiguous, a row panel whose
//! first line starts a tile is a run of whole tiles, and a pool can split a
//! panel into disjoint runs of tiles.
//!
//! The f32 engine layouts ([`PanelLayout::F32_A`], 8-row tiles, and
//! [`PanelLayout::F32_B`], 32-column tiles, both one k value per group)
//! share the 8 × 32 register tile of the f32 engine call; the int8 ones
//! feed the 8 × 32 int8 register tile two 8-row halves of each 16-row A
//! tile.
//! The bf16 layouts ([`PanelLayout::BF16_A`], 16-row row-major tiles, and
//! [`PanelLayout::BF16_B`], 32-column tiles of k pairs) are AMX tiles as
//! they stand, like the int8 ones ([`super::amx`]).
//!
//! **Writing a panel.** [`PanelLayout::put_lines`] writes consecutive
//! lines a tile at a time; [`PanelLayout::put_line`] is its one-line form.
//! They serve tests and benches; the Ozaki split writes its panels from a
//! residual kept in the panel's own order ([`PanelLayout::slot`] names
//! each position), one slice pass at a time ([`super::slice`]).
//!
//! **The int8 operand format** lives here, in the two int8 layouts'
//! [`PanelFormat`], and [`PanelLayout::put_lines`] applies it: callers pack
//! plain i8 values. [`PanelLayout::I8_A`] stores each `a` as the bits of
//! the u8 `a + 128`, the unsigned operand of `vpdpbusd`.
//! [`PanelLayout::I8_B`] follows each line's chunk with the chunk's
//! wrapping i32 sum as [`SUM_WORDS`] little-endian bytes, where k values
//! would come next: each chunk block of a B tile ends in one 128-byte row
//! of column sums, the kernel's `128·colsum` correction
//! ([`super::int8`]). The caller passes the sums in, so a producer can
//! take them in the pass that makes the words ([`chunk_sums`] otherwise).

use super::amx::MR_AMX;
use super::int8::NR_I8;
use super::ukernel::{MR_F32, NR_F32};

/// How a layout stores its words, beyond where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelFormat {
    /// Each word as it is.
    Plain,
    /// Each i8 `x` as the bits of the u8 `x + 128` (A of the int8 engine
    /// call).
    Offset,
    /// Each i8 as it is, each chunk of each line followed by its wrapping
    /// i32 sum in [`SUM_WORDS`] little-endian bytes (B of the int8 engine
    /// call).
    ChunkSums,
}

/// Words of the sum after each line's chunk in [`PanelFormat::ChunkSums`].
pub const SUM_WORDS: usize = 4;

/// A word a packed panel holds: plain old data, so a panel can live in
/// an [`crate::AlignedBuf`]. Only `i8` takes the int8 formats.
pub trait PanelWord: crate::Pod {
    /// Does the type take [`PanelFormat::Offset`] and
    /// [`PanelFormat::ChunkSums`]?
    const INT8: bool = false;
    /// `self` as `format` stores it.
    #[inline(always)]
    fn stored(self, _format: PanelFormat) -> Self {
        self
    }
    /// This word's term in a chunk sum: its value for `INT8` types, else
    /// 0 (so a sum over non-int8 words folds away).
    #[inline(always)]
    fn sum_term(self) -> i32 {
        0
    }
    /// The words [`PanelFormat::ChunkSums`] stores for a chunk whose
    /// [`Self::sum_term`]s add up to `sum` (only asked of `INT8` types).
    fn sum_words(_sum: i32) -> [Self; SUM_WORDS] {
        [Self::default(); SUM_WORDS]
    }
}

impl PanelWord for f64 {}
impl PanelWord for f32 {}
impl PanelWord for u16 {}

impl PanelWord for i8 {
    const INT8: bool = true;

    #[inline(always)]
    fn stored(self, format: PanelFormat) -> i8 {
        if format == PanelFormat::Offset {
            self ^ i8::MIN
        } else {
            self
        }
    }

    #[inline(always)]
    fn sum_term(self) -> i32 {
        i32::from(self)
    }

    fn sum_words(sum: i32) -> [i8; SUM_WORDS] {
        sum.to_le_bytes().map(|b| i8::from_le_bytes([b]))
    }
}

/// The wrapping sum of each `kb`-long chunk of `words`, as
/// [`PanelFormat::ChunkSums`] stores it.
pub fn chunk_sums<W: PanelWord>(words: &[W], kb: usize) -> Vec<i32> {
    words
        .chunks(kb.max(1))
        .map(|c| c.iter().fold(0i32, |s, w| s.wrapping_add(w.sum_term())))
        .collect()
}

/// Geometry and format of a packed operand panel (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelLayout {
    /// Lines per tile.
    pub tile: usize,
    /// Consecutive k values of one line stored together; 0 for a whole
    /// padded chunk.
    pub group: usize,
    /// Each chunk's length is padded to a multiple of this.
    pub k_pad: usize,
    /// How the words are stored.
    pub format: PanelFormat,
}

impl PanelLayout {
    /// One line after another, unpadded: the plain line-major form.
    pub const LINES: PanelLayout =
        PanelLayout { tile: 1, group: 0, k_pad: 1, format: PanelFormat::Plain };
    /// A of the f32 engine call: [`MR_F32`]-row tiles of its register
    /// tile, one k step of 8 values after another.
    pub const F32_A: PanelLayout =
        PanelLayout { tile: MR_F32, group: 1, k_pad: 1, format: PanelFormat::Plain };
    /// B of the f32 engine call: [`NR_F32`]-column tiles, one k step of 32
    /// values (two 16-lane loads) after another.
    pub const F32_B: PanelLayout =
        PanelLayout { tile: NR_F32, group: 1, k_pad: 1, format: PanelFormat::Plain };
    /// A of the int8 engine call: [`MR_AMX`]-row tiles (an AMX A tile;
    /// the SIMD kernels read each as two 8-row register tiles),
    /// each chunk row-major and padded to whole groups of 4, stored as
    /// offset bytes.
    pub const I8_A: PanelLayout =
        PanelLayout { tile: MR_AMX, group: 0, k_pad: 4, format: PanelFormat::Offset };
    /// B of the int8 engine call: [`NR_I8`]-column tiles, each chunk
    /// stored as groups of 4 k values per column, column after column —
    /// one 128-byte row of `vpdpbusd` operands per group (the AMX B-tile
    /// layout) — then one row of the chunk's column sums.
    pub const I8_B: PanelLayout =
        PanelLayout { tile: NR_I8, group: 4, k_pad: 4, format: PanelFormat::ChunkSums };
    /// A of the bf16 engine call: [`MR_AMX`]-row tiles (an AMX A tile),
    /// each chunk row-major and padded to whole k pairs.
    pub const BF16_A: PanelLayout =
        PanelLayout { tile: MR_AMX, group: 0, k_pad: 2, format: PanelFormat::Plain };
    /// B of the bf16 engine call: [`NR_F32`]-column tiles, each chunk
    /// stored as pairs of k values per column, column after column — one
    /// 128-byte row of two AMX B tiles per pair.
    pub const BF16_B: PanelLayout =
        PanelLayout { tile: NR_F32, group: 2, k_pad: 2, format: PanelFormat::Plain };

    /// Words one line takes in a chunk of `len` k values: padded, plus
    /// the sum in [`PanelFormat::ChunkSums`].
    pub fn chunk_len(&self, len: usize) -> usize {
        let tail = if self.format == PanelFormat::ChunkSums { SUM_WORDS } else { 0 };
        len.next_multiple_of(self.k_pad) + tail
    }

    /// Words of one line of length `k` in chunks of `kb`.
    pub fn line_len(&self, k: usize, kb: usize) -> usize {
        assert!(kb > 0, "panel layout: zero chunk length");
        let last = if k.is_multiple_of(kb) { 0 } else { self.chunk_len(k % kb) };
        (k / kb) * self.chunk_len(kb) + last
    }

    /// Words between the starts of consecutive tiles.
    pub fn tile_stride(&self, k: usize, kb: usize) -> usize {
        self.tile * self.line_len(k, kb)
    }

    /// Words of a panel of `lines` lines of length `k` in chunks of `kb`.
    pub fn len(&self, lines: usize, k: usize, kb: usize) -> usize {
        lines.div_ceil(self.tile) * self.tile_stride(k, kb)
    }

    /// The word a blank position holds: zero in this layout's format.
    pub fn zero<W: PanelWord>(&self) -> W {
        W::default().stored(self.format)
    }

    /// Whether a panel of lines of length `k` in chunks of `kb` pads some
    /// chunk: holds words past a chunk's last k value that no line's
    /// words or sums land on.
    pub fn pads(&self, k: usize, kb: usize) -> bool {
        let full = k >= kb && !kb.is_multiple_of(self.k_pad);
        full || !(k % kb).is_multiple_of(self.k_pad)
    }

    /// A panel of `lines` lines of length `k` in chunks of `kb` whose every
    /// line reads as zeros, ready for [`Self::put_line`].
    pub fn blank<W: PanelWord>(&self, lines: usize, k: usize, kb: usize) -> Vec<W> {
        vec![self.zero(); self.len(lines, k, kb)]
    }

    /// Write line `line`'s `words` (its whole k extent) into `panel`, a
    /// panel (or a run of whole tiles of one) in this layout with chunks
    /// of `kb`, in this layout's format. The one-line form of
    /// [`Self::put_lines`], computing the chunk sums itself.
    pub fn put_line<W: PanelWord>(&self, panel: &mut [W], line: usize, words: &[W], kb: usize) {
        let sums =
            if self.format == PanelFormat::ChunkSums { chunk_sums(words, kb) } else { Vec::new() };
        self.put_lines(panel, line, words, words.len(), &sums, kb);
    }

    /// Write the lines of length `k` held back to back in `words` as lines
    /// `first, first + 1, …` of `panel` (a panel, or a run of whole tiles
    /// of one, in this layout with chunks of `kb`), in this layout's
    /// format. For [`PanelFormat::ChunkSums`], `sums` holds each line's
    /// chunk sums ([`chunk_sums`]), line after line; other formats ignore
    /// it.
    pub fn put_lines<W: PanelWord>(
        &self,
        panel: &mut [W],
        first: usize,
        words: &[W],
        k: usize,
        sums: &[i32],
        kb: usize,
    ) {
        assert!(
            self.format == PanelFormat::Plain || W::INT8,
            "panel layout: int8 format on non-i8 words"
        );
        if k == 0 {
            return;
        }
        let chunks = k.div_ceil(kb);
        let count = words.len() / k;
        let with_sums = self.format == PanelFormat::ChunkSums;
        assert!(!with_sums || sums.len() >= count * chunks, "panel layout: chunk sums missing");
        let stride = self.tile_stride(k, kb);
        let mut done = 0;
        while done < count {
            let line = first + done;
            let (t, r0) = (line / self.tile, line % self.tile);
            let rows = (self.tile - r0).min(count - done);
            let lines = &words[done * k..(done + rows) * k];
            for c in 0..chunks {
                let (k0, kc) = (c * kb, kb.min(k - c * kb));
                let cl = self.chunk_len(kc);
                let at = t * stride + self.tile * c * self.chunk_len(kb);
                let block = &mut panel[at..at + self.tile * cl];
                if self.format == PanelFormat::Offset {
                    self.put_block(block, r0, rows, lines, k, k0, kc, |w: W| {
                        w.stored(PanelFormat::Offset)
                    });
                } else {
                    self.put_block(block, r0, rows, lines, k, k0, kc, |w: W| w);
                }
                if with_sums {
                    // The sum sits where the next k values would.
                    let p = kc.next_multiple_of(self.k_pad);
                    for r in 0..rows {
                        let sum = W::sum_words(sums[(done + r) * chunks + c]);
                        for (i, w) in sum.into_iter().enumerate() {
                            block[self.value_at(r0 + r, p + i, cl)] = w;
                        }
                    }
                }
            }
            done += rows;
        }
    }

    /// Where position `p` of chunk `c` of line `line` sits in a panel of
    /// lines of length `k` in chunks of `kb`: below the chunk's length `p`
    /// is the line's value `c · kb + p`; past it come the chunk's k pads
    /// and, in [`PanelFormat::ChunkSums`], its sum.
    pub fn slot(&self, line: usize, c: usize, p: usize, k: usize, kb: usize) -> usize {
        let cl = self.chunk_len(kb.min(k - c * kb));
        (line / self.tile) * self.tile_stride(k, kb)
            + self.tile * c * self.chunk_len(kb)
            + self.value_at(line % self.tile, p, cl)
    }

    /// Where value `p` of row `r` sits in a chunk block whose lines take
    /// `cl` words.
    #[inline(always)]
    fn value_at(&self, r: usize, p: usize, cl: usize) -> usize {
        let g = if self.group == 0 { cl } else { self.group };
        (p / g) * self.tile * g + r * g + p % g
    }

    /// Store values `k0..k0 + kc` of `rows` lines of `lines` (length `k`
    /// each), mapped by `f`, as rows `r0..r0 + rows` of one chunk block.
    #[allow(clippy::too_many_arguments)]
    fn put_block<W: PanelWord>(
        &self,
        block: &mut [W],
        r0: usize,
        rows: usize,
        lines: &[W],
        k: usize,
        k0: usize,
        kc: usize,
        f: impl Fn(W) -> W,
    ) {
        let cl = self.chunk_len(kc);
        for (r, line) in lines.chunks_exact(k).take(rows).enumerate() {
            for (p, &w) in line[k0..k0 + kc].iter().enumerate() {
                block[self.value_at(r0 + r, p, cl)] = f(w);
            }
        }
    }

    /// The chunk that starts at `k0` (a multiple of `kb`) of the tiles of
    /// `panel` from line `first` (a multiple of the tile) on; lines have
    /// length `k`.
    pub fn chunk<'a, W>(
        &self,
        panel: &'a [W],
        first: usize,
        k0: usize,
        k: usize,
        kb: usize,
    ) -> PanelChunk<'a, W> {
        debug_assert!(
            first.is_multiple_of(self.tile) && k0.is_multiple_of(kb),
            "chunk off the tile grid"
        );
        let stride = self.tile_stride(k, kb);
        let at = (first / self.tile) * stride + self.tile * (k0 / kb) * self.chunk_len(kb);
        PanelChunk { words: &panel[at.min(panel.len())..], stride, layout: *self }
    }
}

/// One k-chunk of a packed panel, seen from its first tile: tile `t`'s
/// block starts `t · stride` words in.
#[derive(Debug, Clone, Copy)]
pub struct PanelChunk<'a, W> {
    words: &'a [W],
    stride: usize,
    layout: PanelLayout,
}

impl<'a, W> PanelChunk<'a, W> {
    /// A chunk whose tiles are `stride` words apart from `words[0]` on,
    /// in `layout`.
    pub fn new(words: &'a [W], stride: usize, layout: PanelLayout) -> Self {
        PanelChunk { words, stride, layout }
    }

    /// The layout the chunk was packed in.
    pub fn layout(&self) -> PanelLayout {
        self.layout
    }

    /// The first `len` words of tile `t`'s block.
    #[inline]
    pub fn tile(&self, t: usize, len: usize) -> &'a [W] {
        &self.words[t * self.stride..t * self.stride + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PanelWord for u32 {}

    /// Where value `p` of chunk `c` of line `line` lands (`p` up to the
    /// padded chunk end, there the chunk's sum), by the module-doc
    /// definition.
    fn at(l: PanelLayout, line: usize, c: usize, p: usize, k: usize, kb: usize) -> usize {
        let g = if l.group == 0 { l.chunk_len(kb.min(k - c * kb)) } else { l.group };
        (line / l.tile) * l.tile_stride(k, kb)
            + l.tile * c * l.chunk_len(kb)
            + (p / g) * l.tile * g
            + (line % l.tile) * g
            + p % g
    }

    /// Where word `t` of line `line` lands.
    fn index(l: PanelLayout, line: usize, t: usize, k: usize, kb: usize) -> usize {
        at(l, line, t / kb, t % kb, k, kb)
    }

    #[test]
    fn put_line_follows_the_layout_and_leaves_padding() {
        let plain = PanelFormat::Plain;
        let layouts = [
            PanelLayout::LINES,
            PanelLayout { tile: 4, group: 1, k_pad: 1, format: plain },
            PanelLayout { tile: 8, group: 0, k_pad: 4, format: plain },
            PanelLayout { tile: 32, group: 4, k_pad: 4, format: plain },
        ];
        for l in layouts {
            for (lines, k, kb) in [(1, 1, 1), (9, 13, 5), (33, 10, 10), (7, 9, 256), (3, 0, 4)] {
                let mut panel = vec![u32::MAX; l.len(lines, k, kb)];
                for line in 0..lines {
                    let words: Vec<u32> = (0..k).map(|t| (line * 1000 + t) as u32).collect();
                    l.put_line(&mut panel, line, &words, kb);
                }
                let mut hit = vec![false; panel.len()];
                for line in 0..lines {
                    for t in 0..k {
                        let at = index(l, line, t, k, kb);
                        assert_eq!(panel[at], (line * 1000 + t) as u32, "{l:?} {line} {t}");
                        hit[at] = true;
                    }
                }
                let pads = panel.iter().zip(&hit).filter(|(_, &h)| !h);
                assert!(pads.into_iter().all(|(&w, _)| w == u32::MAX), "{l:?}: pad overwritten");
            }
        }
    }

    #[test]
    fn int8_layouts_store_offset_a_and_chunk_sums_after_b() {
        // 35 lines of 11 values in chunks of 4 (the last one 3 long): A
        // words land offset, B words as they are with each chunk's sum as
        // 4 LE bytes where values 4..8 of the chunk would go; blank lines
        // read as zeros with zero sums.
        let (lines, k, kb) = (35, 11, 4);
        let value = |line: usize, t: usize| ((line * 37 + t * 11) % 256) as u8 as i8;
        for l in [PanelLayout::I8_A, PanelLayout::I8_B] {
            let mut panel: Vec<i8> = l.blank(lines + 2, k, kb);
            for line in 0..lines {
                let words: Vec<i8> = (0..k).map(|t| value(line, t)).collect();
                l.put_line(&mut panel, line, &words, kb);
            }
            for line in 0..lines + 2 {
                let live = |t| if line < lines { value(line, t) } else { 0 };
                for t in 0..k {
                    let at = index(l, line, t, k, kb);
                    assert_eq!(panel[at], live(t).stored(l.format), "{l:?} line {line} t {t}");
                }
                if l.format == PanelFormat::ChunkSums {
                    for c in 0..k.div_ceil(kb) {
                        let want: i32 =
                            (c * kb..(c * kb + kb).min(k)).map(|t| i32::from(live(t))).sum();
                        let end = (kb.min(k - c * kb)).next_multiple_of(4);
                        let at = at(l, line, c, end, k, kb);
                        let got = i32::from_le_bytes(std::array::from_fn(|i| panel[at + i] as u8));
                        assert_eq!(got, want, "line {line} chunk {c}");
                    }
                }
            }
        }
        assert_eq!(0i8.stored(PanelFormat::Offset), i8::MIN);
        assert_eq!((-128i8).stored(PanelFormat::Offset), 0);
    }

    #[test]
    fn put_lines_matches_put_line_one_line_at_a_time() {
        // Runs of lines starting on and off a tile, whole tiles (the
        // constant-shape writers) and partial ones, tail chunks and tail
        // groups, for every engine layout and a plain 32 × 4 one.
        let plain = PanelLayout { tile: 32, group: 4, k_pad: 4, format: PanelFormat::Plain };
        let layouts = [
            PanelLayout::LINES,
            PanelLayout::F32_A,
            PanelLayout::F32_B,
            PanelLayout::BF16_A,
            PanelLayout::BF16_B,
            PanelLayout::I8_A,
            PanelLayout::I8_B,
            plain,
        ];
        let value = |line: usize, t: usize| ((line * 37 + t * 11) % 256) as u8 as i8;
        for l in layouts {
            for (lines, k, kb) in [(70, 13, 5), (64, 9, 256), (33, 11, 4), (8, 1, 1)] {
                for first in [0, 1, l.tile] {
                    let words: Vec<i8> =
                        (0..lines * k).map(|x| value(first + x / k, x % k)).collect();
                    let sums: Vec<i32> = words.chunks(k).flat_map(|w| chunk_sums(w, kb)).collect();
                    let mut want: Vec<i8> = l.blank(first + lines, k, kb);
                    for (li, line) in words.chunks(k).enumerate() {
                        l.put_line(&mut want, first + li, line, kb);
                    }
                    let mut got: Vec<i8> = l.blank(first + lines, k, kb);
                    l.put_lines(&mut got, first, &words, k, &sums, kb);
                    assert_eq!(got, want, "{l:?}, {lines} lines from {first}, k {k}, kb {kb}");
                }
            }
        }
    }

    #[test]
    fn pads_says_whether_a_chunk_has_words_no_value_lands_on() {
        let plain = |l: PanelLayout| PanelLayout { format: PanelFormat::Plain, ..l };
        let layouts = [PanelLayout::LINES, PanelLayout::F32_A, plain(PanelLayout::I8_A)];
        for l in layouts.into_iter().chain([plain(PanelLayout::I8_B), PanelLayout::BF16_B]) {
            for (k, kb) in [(0, 4), (1, 1), (7, 3), (8, 4), (9, 4), (10, 6), (12, 6), (13, 256)] {
                let lines = l.tile;
                let mut panel = vec![u32::MAX; l.len(lines, k, kb)];
                for line in 0..lines {
                    l.put_line(&mut panel, line, &vec![0u32; k], kb);
                }
                let untouched = panel.contains(&u32::MAX);
                assert_eq!(l.pads(k, kb), untouched, "{l:?} k {k} kb {kb}");
            }
        }
    }

    #[test]
    fn chunk_views_start_at_the_tile_block() {
        for l in [PanelLayout::I8_A, PanelLayout::I8_B] {
            let (lines, k, kb) = (65, 11, 6);
            let panel: Vec<usize> = (0..l.len(lines, k, kb)).collect();
            for first in (0..lines).step_by(l.tile) {
                for k0 in [0, 6] {
                    let c = l.chunk(&panel, first, k0, k, kb);
                    assert_eq!(c.tile(0, 1)[0], index(l, first, k0, k, kb));
                    if first + l.tile < lines {
                        assert_eq!(c.tile(1, 1)[0], index(l, first + l.tile, k0, k, kb));
                    }
                }
            }
        }
    }
}
