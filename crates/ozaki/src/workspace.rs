//! One reused, 64-byte-aligned workspace per thread for every Ozaki call.
//!
//! An Ozaki call keeps a lot of state for a short time: A's rows and B's
//! transposed columns as residual lines, every slice of both operands
//! packed into the engine's panel layouts with its per-line exponents,
//! the split's tile buffers, the fold tiles and the double-double
//! accumulators `hi`/`lo`. All of it lives in one byte arena per thread
//! ([`me_linalg::AlignedBuf`]), shared by every substrate and every entry
//! point (GEMM, dot, GEMV, the dense split, the systolic executor), and
//! laid out per call by [`crate::split::Plan`]. Every region starts on a
//! 64-byte boundary, so every slice panel an engine call reads does too.
//! A thread's arena only grows, to the largest single call it has run, so
//! a steady-state call allocates only the C it returns; each growth adds
//! one to the `ozaki.workspace_grow` trace counter.
//!
//! Borrowed like `me_linalg::mat::with_pack_scratch`: a call that finds
//! the arena already borrowed (an Ozaki call nested inside another on the
//! same thread) runs on a fresh arena of its own, which it frees on
//! return. A call that leaves the arena larger than [`RETAIN_BYTES`]
//! frees it on return, so one huge call does not pin its memory to the
//! thread for good.

use me_linalg::{AlignedBuf, Regions};
use std::cell::RefCell;

/// Bytes a thread's arena may keep between calls: a call that grew it
/// past this frees it when it returns. 64 MiB holds about two 512³ f32
/// simulated-me calls at the default slice budget (12 slices of 1 MiB per
/// operand, 4 MiB of accumulators: about 29 MiB); a thread that runs
/// 1024³ calls frees its arena after each.
pub const RETAIN_BYTES: usize = 64 << 20;

/// Trace counter: growths of an Ozaki arena.
pub const WORKSPACE_GROW: &str = "ozaki.workspace_grow";

/// Trace counter: slice panels packed at a 64-byte-aligned address (all
/// of them; the per-substrate `panel_packs` counters count every one).
pub const ALIGNED_PANELS: &str = "ozaki.aligned_panels";

thread_local! {
    static ARENA: RefCell<AlignedBuf> = const { RefCell::new(AlignedBuf::new()) };
}

/// The calling thread's arena, borrowed for one call.
pub(crate) struct Arena<'a>(&'a mut AlignedBuf);

impl Arena<'_> {
    /// Hold at least `bytes` bytes, counting a growth.
    pub fn reserve(&mut self, bytes: usize) {
        if self.0.reserve_bytes(bytes) {
            me_trace::counter_add(WORKSPACE_GROW, 1);
        }
    }

    /// The held bytes as typed regions from byte 0 on.
    pub fn regions(&mut self) -> Regions<'_> {
        self.0.regions()
    }
}

/// Run `f` on this thread's arena (a fresh one if it is already
/// borrowed), then free the arena if it outgrew [`RETAIN_BYTES`].
pub(crate) fn with_arena<R>(f: impl FnOnce(&mut Arena<'_>) -> R) -> R {
    ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            let r = f(&mut Arena(&mut buf));
            if buf.len_bytes() > RETAIN_BYTES {
                *buf = AlignedBuf::new();
            }
            r
        }
        Err(_) => f(&mut Arena(&mut AlignedBuf::new())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_get_a_fresh_arena_and_big_ones_are_freed() {
        let outer = with_arena(|outer| {
            outer.reserve(256);
            let p = outer.regions().take::<u8>(1).as_ptr() as usize;
            let inner = with_arena(|inner| {
                inner.reserve(256);
                inner.regions().take::<u8>(1).as_ptr() as usize
            });
            assert_ne!(p, inner, "a nested call must not share the outer arena");
            p
        });
        // The same thread reuses its arena.
        let again = with_arena(|a| a.regions().take::<u8>(1).as_ptr() as usize);
        assert_eq!(outer, again);
        // An arena grown past the retention bound is freed on return.
        with_arena(|a| a.reserve(RETAIN_BYTES + 64));
        ARENA.with(|cell| assert_eq!(cell.borrow().len_bytes(), 0));
    }
}
