//! Linearizability stress for the Vyukov MPMC ring (`me_serve::MpmcRing`).
//!
//! The scheduler's lock-free queue (DESIGN.md §14) is only as sound as the
//! ring underneath it, so this suite proves the queue-level contract
//! directly, without any scheduler machinery on top:
//!
//! - **Exactly-once**: across N producers × M consumers, every pushed
//!   value is popped exactly once — no loss, no duplication — checked by
//!   multiset accounting over (producer, sequence) pairs.
//! - **Per-producer FIFO**: a single consumer observes each producer's
//!   values in strictly increasing sequence order (the Vyukov ring is
//!   linearizable per slot; with one consumer, per-producer order is
//!   total).
//! - **Edge storms**: capacity-2 rings hammered at the full edge and
//!   empty edge, where the seq-versus-pos `dif` arithmetic and slot
//!   recycling are most fragile.
//! - **Model equivalence**: ≥1000 seeded random push/pop interleavings
//!   replayed against a `VecDeque` reference model.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use me_numerics::Rng64;
use me_serve::MpmcRing;

/// One tagged value: which producer made it, and its per-producer seq.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Tagged {
    producer: u32,
    seq: u64,
}

/// Run `producers`×`consumers` threads over one ring of `capacity`,
/// pushing `per_producer` tagged values each (spinning on full), popping
/// until every value is accounted for. Returns each consumer's pop
/// stream in arrival order.
fn stress(producers: u32, consumers: u32, capacity: usize, per_producer: u64) -> Vec<Vec<Tagged>> {
    let ring: Arc<MpmcRing<Tagged>> = Arc::new(MpmcRing::new(capacity));
    let done = Arc::new(AtomicBool::new(false));
    let mut prod_handles = Vec::new();
    for producer in 0..producers {
        let ring = Arc::clone(&ring);
        prod_handles.push(thread::spawn(move || {
            for seq in 0..per_producer {
                let mut v = Tagged { producer, seq };
                loop {
                    match ring.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            thread::yield_now();
                        }
                    }
                }
            }
        }));
    }
    let mut cons_handles = Vec::new();
    for _ in 0..consumers {
        let ring = Arc::clone(&ring);
        let done = Arc::clone(&done);
        cons_handles.push(thread::spawn(move || {
            let mut seen = Vec::new();
            loop {
                match ring.pop() {
                    Some(v) => seen.push(v),
                    None => {
                        if done.load(Ordering::Acquire) {
                            // Producers are finished; one final drain pass
                            // races the other consumers for leftovers.
                            while let Some(v) = ring.pop() {
                                seen.push(v);
                            }
                            return seen;
                        }
                        thread::yield_now();
                    }
                }
            }
        }));
    }
    for h in prod_handles {
        h.join().expect("producer panicked");
    }
    done.store(true, Ordering::Release);
    cons_handles.into_iter().map(|h| h.join().expect("consumer panicked")).collect()
}

/// Assert the exactly-once contract over the union of all pop streams.
fn assert_exactly_once(streams: &[Vec<Tagged>], producers: u32, per_producer: u64) {
    let mut counts: HashMap<Tagged, u64> = HashMap::new();
    for stream in streams {
        for &v in stream {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let expected = producers as u64 * per_producer;
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    assert_eq!(total, expected, "popped count != pushed count");
    for producer in 0..producers {
        for seq in 0..per_producer {
            let v = Tagged { producer, seq };
            assert_eq!(
                counts.get(&v).copied().unwrap_or(0),
                1,
                "value {v:?} not popped exactly once"
            );
        }
    }
}

#[test]
fn exactly_once_across_widths() {
    // (producers, consumers) grids at the issue's widths; capacity far
    // smaller than the traffic so wraparound recycles every slot many
    // times over.
    for &(producers, consumers) in &[(1u32, 1u32), (2, 2), (8, 8), (32, 4), (4, 32), (32, 32)] {
        let per_producer = 20_000 / u64::from(producers).max(1);
        let streams = stress(producers, consumers, 64, per_producer);
        assert_exactly_once(&streams, producers, per_producer);
    }
}

#[test]
fn single_consumer_sees_per_producer_fifo() {
    for &producers in &[1u32, 2, 8, 32] {
        let streams = stress(producers, 1, 16, 4_000 / u64::from(producers));
        assert_eq!(streams.len(), 1);
        let mut last: HashMap<u32, u64> = HashMap::new();
        for v in &streams[0] {
            if let Some(&prev) = last.get(&v.producer) {
                assert!(
                    v.seq > prev,
                    "producer {} reordered: {} after {}",
                    v.producer,
                    v.seq,
                    prev
                );
            }
            last.insert(v.producer, v.seq);
        }
    }
}

#[test]
fn full_edge_storm_on_capacity_two() {
    // Capacity rounds to 2; producers outnumber slots 8:1 so nearly every
    // push lands on the full edge and nearly every pop on a freshly
    // recycled slot.
    let streams = stress(16, 2, 2, 2_000);
    assert_exactly_once(&streams, 16, 2_000);
}

#[test]
fn empty_edge_storm_on_capacity_two() {
    // Consumers outnumber producers 8:1: the ring is empty almost always
    // and pops race each other for each single published slot.
    let streams = stress(2, 16, 2, 4_000);
    assert_exactly_once(&streams, 2, 4_000);
}

#[test]
fn seeded_interleavings_match_vecdeque_model() {
    // ≥1000 seeds: single-threaded random push/pop schedules against the
    // reference model, over the full width sweep. Deterministic, so any
    // failure names its seed.
    for seed in 0..1_200u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let capacity = [1usize, 2, 8, 32][(seed % 4) as usize];
        let ring: MpmcRing<u64> = MpmcRing::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for _ in 0..256 {
            if rng.next_u64() % 2 == 0 {
                match ring.push(next) {
                    Ok(()) => {
                        assert!(
                            model.len() < ring.capacity(),
                            "seed {seed}: push succeeded on a full model"
                        );
                        model.push_back(next);
                        next += 1;
                    }
                    Err(v) => {
                        assert_eq!(v, next, "seed {seed}: rejected push returned wrong value");
                        assert_eq!(
                            model.len(),
                            ring.capacity(),
                            "seed {seed}: push failed while model had room"
                        );
                    }
                }
            } else {
                let got = ring.pop();
                let want = model.pop_front();
                assert_eq!(got, want, "seed {seed}: pop diverged from model");
            }
            assert_eq!(ring.is_empty(), model.is_empty(), "seed {seed}: emptiness diverged");
        }
        // Drain and compare the tails.
        while let Some(want) = model.pop_front() {
            assert_eq!(ring.pop(), Some(want), "seed {seed}: tail diverged");
        }
        assert_eq!(ring.pop(), None, "seed {seed}: ring not empty after drain");
    }
}
