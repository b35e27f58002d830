//! A bounded, lock-free MPMC ring (Vyukov-style sequence slots).
//!
//! This is the hot admission path of every scheduler shard queue:
//! producers and consumers synchronize exclusively
//! through `std` atomics — one CAS per push and one per pop on the
//! uncontended path, no mutex anywhere. The algorithm is Dmitry Vyukov's
//! bounded MPMC queue: every slot carries a *sequence* number that
//! encodes, relative to the ring positions, whether the slot is free,
//! published, or still being consumed:
//!
//! - slot `i` starts with `seq = i`: free for the producer that claims
//!   position `i`;
//! - after the producer writes the value it stores `seq = i + 1`
//!   (`Release`): published, claimable by the consumer of position `i`;
//! - after the consumer reads the value it stores `seq = i + cap`
//!   (`Release`): free for the producer of position `i + cap`.
//!
//! Claiming a position is a `compare_exchange_weak` on the shared
//! `enqueue_pos`/`dequeue_pos` counter, so a stalled producer never
//! blocks other producers (they claim later positions), and the value
//! write itself is unsynchronized — made safe by the slot's sequence
//! handshake (the `// SAFETY:` proofs below, budgeted exactly in
//! `verify.allow`).
//!
//! FIFO guarantees: positions are claimed in CAS order, so the queue is
//! linearizable per position; one producer's pushes occupy increasing
//! positions (its program order), and one consumer's pops claim
//! increasing positions — hence per-producer FIFO is preserved within
//! any single consumer's pop stream. The `ring` integration suite
//! asserts exactly-once/no-loss/no-duplication accounting across
//! producer × consumer grids and a ≥1000-seed model-checked sweep.
//!
//! The ring itself never parks: full/empty are immediate `Err`/`None`.
//! The scheduler layers `Condvar` parking for the *idle edge only* on
//! top (see `scheduler::RingQueue`).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One ring slot: the sequence handshake word plus the (unsynchronized)
/// value cell it guards.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Pads the producer and consumer cursors to their own cache lines so
/// push-side and pop-side CAS traffic do not false-share.
#[repr(align(64))]
struct Pad64<T>(T);

/// A bounded, lock-free multi-producer multi-consumer FIFO ring.
///
/// Capacity rounds up to the next power of two (for mask indexing);
/// [`MpmcRing::capacity`] reports the physical size. `push` on a full
/// ring and `pop` on an empty ring return immediately — callers that
/// need blocking behavior must layer their own parking (the scheduler
/// parks on a `Condvar` only at the idle edge).
pub struct MpmcRing<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: Pad64<AtomicUsize>,
    dequeue_pos: Pad64<AtomicUsize>,
}

// SAFETY: the ring hands each value from exactly one producer to exactly
// one consumer: the slot's sequence word (Release store after the value
// write, Acquire load before the value read) makes the producer's write
// happen-before the consumer's read, and position claiming via CAS makes
// the slot exclusively owned between those two points. No `&T` to a cell
// is ever exposed, so `T: Send` is all the cross-thread transfer needs.
unsafe impl<T: Send> Send for MpmcRing<T> {}
// SAFETY: same argument as `Send` — shared `&MpmcRing` access only ever
// touches a slot's value cell between winning that slot's position CAS
// and publishing the flipped sequence, which is mutual exclusion per
// slot; everything else is atomics.
unsafe impl<T: Send> Sync for MpmcRing<T> {}

impl<T> MpmcRing<T> {
    /// Build a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2 — the sequence arithmetic needs cap ≥ 2).
    pub fn new(capacity: usize) -> MpmcRing<T> {
        let cap = capacity.max(2).next_power_of_two();
        let buf: Vec<Slot<T>> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcRing {
            buf: buf.into_boxed_slice(),
            mask: cap - 1,
            enqueue_pos: Pad64(AtomicUsize::new(0)),
            dequeue_pos: Pad64(AtomicUsize::new(0)),
        }
    }

    /// Physical slot count (the requested capacity rounded up to a
    /// power of two).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Push a value; `Err(value)` when the ring is full. Equivalent to
    /// [`MpmcRing::push_with`] with an empty hook.
    // me-verify: hot
    pub fn push(&self, value: T) -> Result<(), T> {
        self.push_with(value, || {})
    }

    /// Push a value, running `before_publish` after the slot is claimed
    /// (admission is decided) but *before* the slot's sequence store
    /// makes the value visible to consumers. The scheduler uses the hook
    /// to bump its admission counters so no consumer can observe (and
    /// resolve) a request whose `enqueued` count is not yet visible —
    /// the snapshot-monotonicity contract. Keep hooks tiny: they run
    /// inside the slot's exclusive window.
    // me-verify: hot
    pub fn push_with(&self, value: T, before_publish: impl FnOnce()) -> Result<(), T> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos) as isize;
            if dif == 0 {
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS above claimed position `pos`
                        // exclusively, and `seq == pos` proved the slot
                        // is free (its previous consumer, if any,
                        // already flipped it with a Release store we
                        // Acquire-read). Until the sequence store below,
                        // no other thread touches this cell, so writing
                        // the (possibly uninitialized) cell is exclusive.
                        unsafe { (*slot.value.get()).write(value) };
                        before_publish();
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                return Err(value);
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest value; `None` when the ring is empty.
    // me-verify: hot
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos.wrapping_add(1)) as isize;
            if dif == 0 {
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed position `pos`
                        // exclusively and `seq == pos + 1` proved the
                        // producer of this position published a value
                        // (its Release store, Acquire-read above, makes
                        // the value write visible). Reading it out once
                        // and then flipping the sequence transfers
                        // ownership of the value to this thread and the
                        // slot back to the ring.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Whether no published value is currently claimable at the head.
    /// Exact for a single consumer; under concurrent pops it is a
    /// transient snapshot (used by the scheduler's parking protocol,
    /// whose SeqCst fences make "empty then park" safe — see
    /// DESIGN.md §14).
    // me-verify: hot
    pub fn is_empty(&self) -> bool {
        let pos = self.dequeue_pos.0.load(Ordering::Acquire);
        let seq = self.buf[pos & self.mask].seq.load(Ordering::Acquire);
        (seq.wrapping_sub(pos.wrapping_add(1)) as isize) < 0
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        // Drain the leftovers through the normal pop path so every
        // published-but-unconsumed value runs its destructor exactly
        // once; claimed-but-unpublished slots are untouched (their
        // values were never completed, so there is nothing to drop).
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for MpmcRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpmcRing").field("capacity", &self.buf.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_single_thread() {
        let r: MpmcRing<u32> = MpmcRing::new(4);
        assert!(r.is_empty());
        for v in 0..4 {
            r.push(v).expect("ring has room");
        }
        assert!(r.push(99).is_err(), "full ring rejects");
        for v in 0..4 {
            assert_eq!(r.pop(), Some(v));
        }
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(MpmcRing::<u8>::new(0).capacity(), 2);
        assert_eq!(MpmcRing::<u8>::new(5).capacity(), 8);
        assert_eq!(MpmcRing::<u8>::new(8).capacity(), 8);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let r: MpmcRing<usize> = MpmcRing::new(2);
        for round in 0..1000 {
            r.push(round).expect("room");
            assert_eq!(r.pop(), Some(round));
        }
    }

    #[test]
    fn push_with_hook_runs_before_value_is_poppable() {
        use std::sync::atomic::AtomicBool;
        let r: MpmcRing<u8> = MpmcRing::new(2);
        let hooked = AtomicBool::new(false);
        r.push_with(7, || hooked.store(true, Ordering::Relaxed)).expect("room");
        assert!(hooked.load(Ordering::Relaxed), "hook ran during push");
        assert_eq!(r.pop(), Some(7));
    }

    #[test]
    fn drop_releases_leftovers() {
        use std::sync::Arc;
        let payload = Arc::new(0u64);
        {
            let r: MpmcRing<Arc<u64>> = MpmcRing::new(8);
            for _ in 0..5 {
                r.push(Arc::clone(&payload)).expect("room");
            }
            assert_eq!(Arc::strong_count(&payload), 6);
        }
        assert_eq!(Arc::strong_count(&payload), 1, "drop drained the ring");
    }
}
