//! Compensated and reproducible summation.
//!
//! The Ozaki scheme (paper §IV-B) advertises *bitwise reproducibility*
//! "independent of the thread count". That property comes from the final
//! accumulation: the all-to-all products are exact, so any summation that is
//! itself deterministic — e.g. a fixed-order compensated sum or an
//! exponent-binned fixed-point sum — yields bit-identical results no matter
//! how the work was partitioned. This module provides those accumulators.

use crate::eft::{fast_two_sum, two_sum};

/// Kahan compensated summation.
pub fn kahan_sum(xs: &[f64]) -> f64 {
    let mut s = 0.0;
    let mut c = 0.0;
    for &x in xs {
        let y = x - c;
        let t = s + y;
        c = (t - s) - y;
        s = t;
    }
    s
}

/// Neumaier's improved compensated summation (handles |x| > |s|).
pub fn neumaier_sum(xs: &[f64]) -> f64 {
    let mut s = 0.0;
    let mut c = 0.0;
    for &x in xs {
        let t = s + x;
        if s.abs() >= x.abs() {
            c += (s - t) + x;
        } else {
            c += (x - t) + s;
        }
        s = t;
    }
    s + c
}

/// Pairwise (cascade) summation: O(log n) error growth; the deterministic
/// tree makes it reproducible for a fixed input order.
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    const BASE: usize = 32;
    if xs.len() <= BASE {
        return xs.iter().sum();
    }
    let mid = xs.len() / 2;
    pairwise_sum(&xs[..mid]) + pairwise_sum(&xs[mid..])
}

/// Bitwise-reproducible sum: sorts the addends by a total order on their bit
/// patterns before a compensated accumulation, so the result is independent
/// of the input permutation (and therefore of any parallel partitioning).
///
/// The result is the correctly-rounded-quality compensated sum of the sorted
/// sequence; permuting the input does not change it.
pub fn reproducible_sum(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| {
        // Total order: by absolute value, then by sign, then bit pattern.
        a.abs()
            .partial_cmp(&b.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.to_bits().cmp(&b.to_bits()))
    });
    neumaier_sum(&v)
}

/// A running error-compensated accumulator holding the sum as an unevaluated
/// `hi + lo` pair (a "double-double"-lite). Used as the deterministic final
/// reduction of the Ozaki scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accumulator {
    hi: f64,
    lo: f64,
}

impl Accumulator {
    /// Fresh zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a term exactly (up to the double-double representation).
    #[inline]
    pub fn add(&mut self, x: f64) {
        let (s, e) = two_sum(self.hi, x);
        let lo = self.lo + e;
        let (hi, lo) = fast_two_sum(s, lo);
        self.hi = hi;
        self.lo = lo;
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &Accumulator) {
        self.add(other.hi);
        self.add(other.lo);
    }

    /// Round the accumulated value to f64.
    #[inline]
    pub fn value(&self) -> f64 {
        self.hi + self.lo
    }

    /// The unevaluated (hi, lo) pair.
    pub fn parts(&self) -> (f64, f64) {
        (self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ill_conditioned() -> Vec<f64> {
        // Large cancellation: pairs (M, -M) plus tiny residuals.
        let mut v = Vec::new();
        for i in 0..100 {
            let m = (10.0f64).powi(i % 16 + 1);
            v.push(m);
            v.push(-m);
            v.push(1e-10);
        }
        v
    }

    #[test]
    fn compensated_sums_recover_cancellation() {
        let v = ill_conditioned();
        let exact = 100.0 * 1e-10;
        // Kahan's single compensation loses the running sum when an addend
        // is much larger than it (the classic limitation); Neumaier and the
        // reproducible sum recover the exact result.
        assert!((neumaier_sum(&v) - exact).abs() < 1e-20, "neumaier {}", neumaier_sum(&v));
        assert!((reproducible_sum(&v) - exact).abs() < 1e-20);
    }

    #[test]
    fn kahan_recovers_small_addends_into_large_sum() {
        // The classic Kahan case: each addend is below ulp(sum)/2 and a
        // naive sum drops every one of them; the compensation recovers them.
        let mut v = vec![1.0];
        v.extend(std::iter::repeat_n(1e-17, 1000));
        let exact = 1.0 + 1000.0 * 1e-17;
        let naive: f64 = v.iter().sum();
        assert_eq!(naive, 1.0, "naive sum must drop the tail for this test to be meaningful");
        assert!((kahan_sum(&v) - exact).abs() < 1e-16, "kahan {}", kahan_sum(&v));
    }

    #[test]
    fn neumaier_handles_large_addend() {
        // Classic Kahan failure case: [1, 1e100, 1, -1e100] sums to 2.
        let v = [1.0, 1e100, 1.0, -1e100];
        assert_eq!(neumaier_sum(&v), 2.0);
    }

    #[test]
    fn pairwise_matches_naive_on_benign_input() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        let exact: f64 = (0..1000).map(|i| i as f64 * 0.25).sum();
        assert_eq!(pairwise_sum(&v), exact);
    }

    #[test]
    fn reproducible_sum_is_permutation_invariant() {
        let mut v = ill_conditioned();
        let a = reproducible_sum(&v);
        v.reverse();
        let b = reproducible_sum(&v);
        // rotate for a third permutation
        v.rotate_left(17);
        let c = reproducible_sum(&v);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), c.to_bits());
    }

    #[test]
    fn accumulator_tracks_residuals() {
        let mut acc = Accumulator::new();
        acc.add(1.0);
        acc.add(1e-30);
        acc.add(-1.0);
        assert_eq!(acc.value(), 1e-30);
    }

    #[test]
    fn accumulator_merge_associates() {
        let xs: Vec<f64> =
            (0..64).map(|i| (i as f64).exp2() * if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let mut whole = Accumulator::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &xs[..32] {
            left.add(x);
        }
        for &x in &xs[32..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(whole.value(), left.value());
    }

    #[test]
    fn empty_sums_are_zero() {
        assert_eq!(kahan_sum(&[]), 0.0);
        assert_eq!(neumaier_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(reproducible_sum(&[]), 0.0);
        assert_eq!(Accumulator::new().value(), 0.0);
    }
}
