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
//! **The int8 operand format** lives here, in the two int8 layouts'
//! [`PanelFormat`], and [`PanelLayout::put_line`] applies it: callers pack
//! plain i8 values. [`PanelLayout::I8_A`] stores each `a` as the bits of
//! the u8 `a + 128`, the unsigned operand of `vpdpbusd`.
//! [`PanelLayout::I8_B`] follows each line's chunk with the chunk's
//! wrapping i32 sum as [`SUM_WORDS`] little-endian bytes, where k values
//! would come next: each chunk block of a B tile ends in one 128-byte row
//! of column sums, the kernel's `128·colsum` correction
//! ([`super::int8`]).

use super::int8::{MR_I8, NR_I8};
use super::ukernel::{MR, NR};

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

/// A word a packed panel holds. Only `i8` takes the int8 formats.
pub trait PanelWord: Copy + Default {
    /// Does the type take [`PanelFormat::Offset`] and
    /// [`PanelFormat::ChunkSums`]?
    const INT8: bool = false;
    /// `self` as `format` stores it.
    #[inline]
    fn stored(self, _format: PanelFormat) -> Self {
        self
    }
    /// The words [`PanelFormat::ChunkSums`] stores after `chunk` (only
    /// asked of `INT8` types).
    fn chunk_sum(_chunk: &[Self]) -> [Self; SUM_WORDS] {
        [Self::default(); SUM_WORDS]
    }
}

impl PanelWord for f64 {}
impl PanelWord for f32 {}
impl PanelWord for u16 {}

impl PanelWord for i8 {
    const INT8: bool = true;

    #[inline]
    fn stored(self, format: PanelFormat) -> i8 {
        if format == PanelFormat::Offset {
            self ^ i8::MIN
        } else {
            self
        }
    }

    fn chunk_sum(chunk: &[i8]) -> [i8; SUM_WORDS] {
        let sum = chunk.iter().fold(0i32, |s, &x| s.wrapping_add(i32::from(x)));
        sum.to_le_bytes().map(|b| i8::from_le_bytes([b]))
    }
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
    /// A of the f32 engine call: the [`MR`]-row micro-panels of the f32
    /// micro-kernel, one k step of MR values after another.
    pub const F32_A: PanelLayout =
        PanelLayout { tile: MR, group: 1, k_pad: 1, format: PanelFormat::Plain };
    /// B of the f32 engine call: [`NR`]-column micro-panels.
    pub const F32_B: PanelLayout =
        PanelLayout { tile: NR, group: 1, k_pad: 1, format: PanelFormat::Plain };
    /// A of the int8 engine call: [`MR_I8`]-row tiles, each chunk
    /// row-major and padded to whole groups of 4 (the rows an AMX A tile
    /// loads at a stride), stored as offset bytes.
    pub const I8_A: PanelLayout =
        PanelLayout { tile: MR_I8, group: 0, k_pad: 4, format: PanelFormat::Offset };
    /// B of the int8 engine call: [`NR_I8`]-column tiles, each chunk
    /// stored as groups of 4 k values per column, column after column —
    /// one 128-byte row of `vpdpbusd` operands per group (the AMX B-tile
    /// layout) — then one row of the chunk's column sums.
    pub const I8_B: PanelLayout =
        PanelLayout { tile: NR_I8, group: 4, k_pad: 4, format: PanelFormat::ChunkSums };

    /// Words one line takes in a chunk of `len` k values: padded, plus
    /// the sum in [`PanelFormat::ChunkSums`].
    fn chunk_len(&self, len: usize) -> usize {
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

    /// A panel of `lines` lines of length `k` in chunks of `kb` whose every
    /// line reads as zeros, ready for [`Self::put_line`].
    pub fn blank<W: PanelWord>(&self, lines: usize, k: usize, kb: usize) -> Vec<W> {
        vec![W::default().stored(self.format); self.len(lines, k, kb)]
    }

    /// Write line `line`'s `words` (its whole k extent) into `panel`, a
    /// panel (or a run of whole tiles of one) in this layout with chunks
    /// of `kb`, in this layout's format.
    // me-verify: hot
    pub fn put_line<W: PanelWord>(&self, panel: &mut [W], line: usize, words: &[W], kb: usize) {
        assert!(
            self.format == PanelFormat::Plain || W::INT8,
            "panel layout: int8 format on non-i8 words"
        );
        let base = (line / self.tile) * self.tile_stride(words.len(), kb);
        let r = line % self.tile;
        for (c, chunk) in words.chunks(kb).enumerate() {
            let g = if self.group == 0 { self.chunk_len(chunk.len()) } else { self.group };
            let at = base + self.tile * c * self.chunk_len(kb) + r * g;
            self.put_run(panel, at, chunk, g);
            if self.format == PanelFormat::ChunkSums {
                // The sum sits where the next k values would.
                let p = chunk.len().next_multiple_of(self.k_pad);
                self.put_run(panel, at + (p / g) * self.tile * g + p % g, &W::chunk_sum(chunk), g);
            }
        }
    }

    /// Store `run`, consecutive k values of one line from the word at
    /// `at` on, in groups of `g`.
    #[inline]
    fn put_run<W: PanelWord>(&self, panel: &mut [W], at: usize, run: &[W], g: usize) {
        let f = self.format;
        if g == 1 {
            for (p, &w) in run.iter().enumerate() {
                panel[at + p * self.tile] = w.stored(f);
            }
        } else {
            for (q, part) in run.chunks(g).enumerate() {
                let at = at + q * self.tile * g;
                for (d, &w) in panel[at..at + part.len()].iter_mut().zip(part) {
                    *d = w.stored(f);
                }
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
