//! Order statistics over the benchmark's own samples.

use std::time::Instant;

/// Exact nearest-rank quantile: the smallest sample with at least a
/// share `q` of the samples at or below it. Sorts `xs` in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median wall time of `calls` calls of `f`, in seconds.
pub fn median_time(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// Fixed-resolution histogram: order statistics exact to one bin
/// width, in memory that does not grow with the number of samples
/// (samples past the last bin are kept as they are).
pub struct Hist {
    bin_s: f64,
    counts: Vec<u32>,
    over: Vec<f64>,
    n: u64,
}

impl Hist {
    pub fn new(bin_s: f64, max_s: f64) -> Hist {
        let bins = (max_s / bin_s).ceil() as usize;
        Hist {
            bin_s,
            counts: vec![0; bins],
            over: Vec::new(),
            n: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        match self.counts.get_mut((x / self.bin_s) as usize) {
            Some(c) => *c += 1,
            None => self.over.push(x),
        }
        self.n += 1;
    }

    /// Nearest-rank quantile, as the midpoint of the bin holding it.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return (i as f64 + 0.5) * self.bin_s;
            }
        }
        self.over.sort_by(f64::total_cmp);
        self.over[(rank - seen) as usize - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut xs, 0.5), 3.0);
        assert_eq!(quantile(&mut xs, 0.99), 5.0);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
    }

    #[test]
    fn hist_matches_sorted_samples() {
        let mut h = Hist::new(1.0, 10.0);
        for x in [0.2, 3.7, 3.1, 9.5, 42.0] {
            h.record(x);
        }
        assert_eq!(h.quantile(0.5), 3.5);
        assert_eq!(h.quantile(0.8), 9.5);
        assert_eq!(h.quantile(1.0), 42.0);
    }
}
