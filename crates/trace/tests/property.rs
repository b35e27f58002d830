//! Deterministic seeded-RNG property sweep for the collector
//! (satellite: ISSUE 3). N threads emit randomly nested spans and
//! histogram samples; the snapshot must be a well-nested,
//! monotonically-timestamped trace per lane, and every histogram must
//! satisfy `count == Σ buckets` with an exact `sum`.
//!
//! Runs only when the `enabled` feature is compiled in; in no-op builds
//! the collector has nothing to test (a separate test asserts emptiness).

use me_trace::{Histogram, TraceEvent};

/// Tiny deterministic LCG (Numerical Recipes constants) so the sweep is
/// reproducible without external RNG crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Span names used by the sweep, indexed by nesting depth.
const NAMES: [&str; 4] = ["sweep.d0", "sweep.d1", "sweep.d2", "sweep.d3"];

/// Emit a randomly shaped tree of nested spans (RAII guarantees proper
/// nesting); returns the exact sum of histogram values recorded.
fn emit_tree(rng: &mut Lcg, depth: usize, budget: &mut u32) -> u128 {
    let mut hist_sum = 0u128;
    let _guard = me_trace::span(NAMES[depth], "sweep");
    let value = rng.next() % (1 << (8 + 4 * depth));
    me_trace::hist_record("sweep.values", value);
    me_trace::counter_add("sweep.spans", 1);
    hist_sum += value as u128;
    while depth + 1 < NAMES.len() && *budget > 0 && rng.next() % 3 != 0 {
        *budget -= 1;
        hist_sum += emit_tree(rng, depth + 1, budget);
    }
    hist_sum
}

/// Check the well-nestedness property on one lane: any two spans are
/// either disjoint or one contains the other (never partially overlap).
fn assert_well_nested(lane: &[&TraceEvent]) {
    for (i, a) in lane.iter().enumerate() {
        for b in &lane[i + 1..] {
            let (a0, a1) = (a.start_ns, a.start_ns + a.dur_ns);
            let (b0, b1) = (b.start_ns, b.start_ns + b.dur_ns);
            let disjoint = a1 <= b0 || b1 <= a0;
            let a_in_b = b0 <= a0 && a1 <= b1;
            let b_in_a = a0 <= b0 && b1 <= a1;
            assert!(
                disjoint || a_in_b || b_in_a,
                "partial overlap on tid {}: [{a0},{a1}) vs [{b0},{b1})",
                a.tid
            );
        }
    }
}

#[test]
fn concurrent_random_spans_yield_well_nested_monotonic_trace() {
    if !me_trace::compiled() {
        assert!(me_trace::take_snapshot().is_empty());
        return;
    }
    const NTHREADS: u64 = 4;
    const ROUNDS: u32 = 64;

    me_trace::set_enabled(true);
    let mut expect_sum = 0u128;
    let mut handles = Vec::new();
    for t in 0..NTHREADS {
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0x9e3779b97f4a7c15 ^ (t + 1));
            let mut sum = 0u128;
            for _ in 0..ROUNDS {
                let mut budget = 8;
                sum += emit_tree(&mut rng, 0, &mut budget);
            }
            me_trace::flush_thread();
            sum
        }));
    }
    for h in handles {
        expect_sum += h.join().expect("sweep thread panicked");
    }
    me_trace::set_enabled(false);
    let trace = me_trace::take_snapshot();

    // Every span the threads emitted is present and on a measured lane.
    let spans: Vec<&TraceEvent> = trace.events.iter().filter(|e| e.cat == "sweep").collect();
    let total = trace.counters.get("sweep.spans").copied().unwrap_or(0);
    assert!(total >= NTHREADS * ROUNDS as u64, "at least one span per round");
    assert_eq!(spans.len() as u64, total, "span count matches counter");
    assert!(spans.iter().all(|e| !e.virtual_lane));

    // Timestamps are monotone within the snapshot's sorted order and
    // well-nested per lane.
    let mut tids: Vec<u32> = spans.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() as u64 >= NTHREADS, "one lane per sweep thread");
    for tid in tids {
        let lane: Vec<&TraceEvent> = spans.iter().filter(|e| e.tid == tid).copied().collect();
        for pair in lane.windows(2) {
            assert!(
                pair[0].start_ns <= pair[1].start_ns,
                "snapshot not start-sorted within tid {tid}"
            );
        }
        assert_well_nested(&lane);
        // Every lane has a registered name.
        assert!(trace.thread_names.contains_key(&tid), "unnamed lane {tid}");
    }

    // Histogram invariants: count == Σ buckets, exact sum, exact count.
    let hist = trace.hists.get("sweep.values").cloned().unwrap_or_default();
    assert!(hist.is_consistent(), "count != sum of buckets");
    assert_eq!(hist.count, total, "one histogram record per span");
    assert_eq!(hist.sum, expect_sum, "histogram sum is exact");
    // And each recorded value landed in the right bucket by definition:
    // replay the generators and rebuild the histogram independently.
    let mut replay = Histogram::default();
    for t in 0..NTHREADS {
        let mut rng = Lcg(0x9e3779b97f4a7c15 ^ (t + 1));
        for _ in 0..ROUNDS {
            let mut budget = 8;
            replay_tree(&mut rng, 0, &mut budget, &mut replay);
        }
    }
    assert_eq!(replay.count, hist.count);
    assert_eq!(replay.sum, hist.sum);
    assert_eq!(replay.buckets, hist.buckets);
}

/// Re-run the RNG schedule of [`emit_tree`] without the collector to
/// predict the exact histogram contents.
fn replay_tree(rng: &mut Lcg, depth: usize, budget: &mut u32, hist: &mut Histogram) {
    let value = rng.next() % (1 << (8 + 4 * depth));
    hist.record(value);
    while depth + 1 < NAMES.len() && *budget > 0 && rng.next() % 3 != 0 {
        *budget -= 1;
        replay_tree(rng, depth + 1, budget, hist);
    }
}

/// Percentile extraction pinned against the exact sorted-sample
/// reference: for seeded random sample sets and a quantile sweep,
/// `Histogram::quantile(q)` must bracket the true order statistic
/// `sorted[⌈q·N⌉ − 1]` from above by less than one log2 bucket width
/// (the bucket's upper bound is returned, so the true value lies in
/// `(upper/2, upper]` — i.e. `upper < 2·true + 2`). This is the
/// no-collector contract the serve SLO gates build on.
#[test]
fn quantile_brackets_exact_order_statistic_within_bucket_width() {
    let qs = [0.0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0];
    for seed in 0..200u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(seed + 1));
        // Mix scales so samples span many buckets, including bucket 0.
        let n = 1 + (rng.next() % 500) as usize;
        let mut samples: Vec<u64> = (0..n)
            .map(|_| {
                let shift = rng.next() % 40;
                rng.next() >> (13 + shift.min(40))
            })
            .collect();
        let mut hist = Histogram::default();
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();
        for &q in &qs {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1];
            let got = hist.quantile(q);
            assert!(
                got >= exact,
                "seed {seed} q {q}: quantile {got} below exact order statistic {exact}"
            );
            // The bucket holding `exact` has upper bound < 2·exact + 2
            // (log2 buckets: upper = 2^(bits(exact)) − 1 ≤ 2·exact + 1).
            assert!(
                got <= 2 * exact + 1,
                "seed {seed} q {q}: quantile {got} overshoots exact {exact} by more \
                 than one bucket width"
            );
        }
    }
    // Degenerate inputs stay total: empty histogram and out-of-range q.
    let empty = Histogram::default();
    assert_eq!(empty.quantile(0.5), 0);
    let mut one = Histogram::default();
    one.record(42);
    assert_eq!(one.quantile(-1.0), one.quantile(0.0));
    assert_eq!(one.quantile(2.0), one.quantile(1.0));
}
