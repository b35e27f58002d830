//! The traced run's layer breakdown, from `me-trace` spans.
//!
//! During the traced phase `me-trace` records the library's own spans
//! (categories `linalg`, `par`, `ozaki`, `serve`) and the benchmark's
//! spans around each of its calls into the library, whose category names
//! the layer called (`me-linalg`, `me-ozaki`, `me-serve`) or `bench` for
//! the benchmark's own work. A span's self time is its duration less that
//! of the spans directly inside it on the same thread; on every thread
//! that recorded a span, the time inside no span is the residue.

use std::collections::BTreeMap;
use std::fs;

use me_trace::{take_snapshot, SpanGuard, Trace};

/// Library span names reported one by one (`trace.<name>.self_ms`);
/// `gemm.kernel.<variant>` spans are folded into `gemm.kernel`.
pub const LIBRARY_SPANS: [&str; 16] = [
    "gemm.kernel",
    "gemm.pack_a",
    "gemm.pack_b",
    "gemm.micro_kernel",
    "par.batch",
    "par.job",
    "ozaki.split",
    "ozaki.accumulate",
    "ozaki.int8.split",
    "ozaki.int8.accumulate",
    "ozaki.host_f16.split",
    "ozaki.host_f16.accumulate",
    "serve.enqueue",
    "serve.batch",
    "serve.exec_stacked",
    "serve.cache.pack",
];

/// Layers, by the category of the spans they own.
pub const LAYERS: [&str; 5] = ["me-linalg", "me-par", "me-ozaki", "me-serve", "bench"];

/// Chrome trace events written at most, so the file stays small.
const MAX_WRITTEN: usize = 100_000;

/// A span around one of the benchmark's own calls.
pub fn span(layer: &'static str, name: &'static str) -> SpanGuard {
    me_trace::span(name, layer)
}

/// Start recording; returns the phase's start on the trace clock.
pub fn start() -> u64 {
    me_trace::set_enabled(true);
    me_trace::now_ns()
}

/// Stop recording; returns the phase's end on the trace clock.
pub fn stop() -> u64 {
    let t = me_trace::now_ns();
    me_trace::set_enabled(false);
    t
}

fn layer_of(cat: &str) -> &str {
    match cat {
        "linalg" => "me-linalg",
        "par" => "me-par",
        "ozaki" => "me-ozaki",
        "serve" => "me-serve",
        other => other,
    }
}

/// Self times of one traced phase.
pub struct Breakdown {
    /// Self time per layer, ms, with the residue under `residue`.
    pub layers: BTreeMap<String, f64>,
    /// Self time per span name, ms (`gemm.kernel.*` folded).
    pub spans: BTreeMap<String, f64>,
    /// Self time per (root span name, span name), ms: what ran inside
    /// each of the benchmark's top-level calls.
    under_root: BTreeMap<(String, String), f64>,
    /// Threads that recorded a span.
    pub threads: usize,
    /// Wall time of the phase, ms.
    pub wall_ms: f64,
}

impl Breakdown {
    /// Drain `me-trace` (every thread that recorded spans must have
    /// flushed: pool workers flush per job, other threads on exit), fold
    /// the spans of `[t0, t1)` and write them, clipped to that window, to
    /// `path` as a Chrome `trace_event` file.
    pub fn collect(t0: u64, t1: u64, path: &str) -> Breakdown {
        let mut trace = take_snapshot();
        trace
            .events
            .retain(|e| !e.virtual_lane && e.start_ns < t1 && e.start_ns + e.dur_ns > t0);
        for e in &mut trace.events {
            let end = (e.start_ns + e.dur_ns).min(t1);
            e.start_ns = e.start_ns.max(t0);
            e.dur_ns = end - e.start_ns;
        }
        let b = Breakdown::fold(&trace, t1 - t0);
        write_chrome(trace, path);
        b
    }

    /// `events` must be sorted by (tid, start, longest first), as
    /// `take_snapshot` sorts them.
    fn fold(trace: &Trace, wall_ns: u64) -> Breakdown {
        let events = &trace.events;
        let mut self_ns: Vec<i128> = events.iter().map(|e| i128::from(e.dur_ns)).collect();
        let mut root = vec![0usize; events.len()];
        let mut top_ns = 0u64;
        let mut threads = 0;
        let mut open: Vec<usize> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if i == 0 || events[i - 1].tid != e.tid {
                open.clear();
                threads += 1;
            }
            while open
                .last()
                .is_some_and(|&p| events[p].start_ns + events[p].dur_ns <= e.start_ns)
            {
                open.pop();
            }
            match open.last() {
                Some(&p) => {
                    self_ns[p] -= i128::from(e.dur_ns);
                    root[i] = root[p];
                }
                None => {
                    top_ns += e.dur_ns;
                    root[i] = i;
                }
            }
            open.push(i);
        }
        let ms = |ns: i128| ns as f64 / 1e6;
        let mut b = Breakdown {
            layers: BTreeMap::new(),
            spans: BTreeMap::new(),
            under_root: BTreeMap::new(),
            threads,
            wall_ms: wall_ns as f64 / 1e6,
        };
        for (i, e) in events.iter().enumerate() {
            let name = if e.name.starts_with("gemm.kernel.") {
                "gemm.kernel"
            } else {
                &e.name
            };
            let t = ms(self_ns[i]);
            *b.layers.entry(layer_of(e.cat).to_string()).or_insert(0.0) += t;
            *b.spans.entry(name.to_string()).or_insert(0.0) += t;
            let key = (events[root[i]].name.to_string(), name.to_string());
            *b.under_root.entry(key).or_insert(0.0) += t;
        }
        let residue = threads as f64 * b.wall_ms - top_ns as f64 / 1e6;
        b.layers.insert("residue".into(), residue);
        b
    }

    /// Self time of everything that ran inside the top-level spans named
    /// `root`, except the spans named in `except`.
    pub fn under(&self, root: &str, except: &[&str]) -> f64 {
        self.under_root
            .iter()
            .filter(|((r, n), _)| r == root && !except.contains(&n.as_str()))
            .map(|(_, t)| t)
            .sum()
    }
}

fn write_chrome(mut trace: Trace, path: &str) {
    let kept = trace.events.len().min(MAX_WRITTEN);
    trace.events.truncate(kept);
    let written = std::path::Path::new(path)
        .parent()
        .map_or(Ok(()), fs::create_dir_all)
        .and_then(|()| fs::write(path, trace.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("me-benchmark: {kept} spans written to {path}"),
        Err(e) => eprintln!("me-benchmark: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use me_trace::TraceEvent;

    fn ev(
        tid: u32,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat,
            tid,
            virtual_lane: false,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_times_and_residue() {
        let trace = Trace {
            events: vec![
                ev(0, "call", "me-ozaki", 0, 10),
                ev(0, "ozaki.split", "ozaki", 1, 3),
                ev(0, "gemm.kernel.avx2", "linalg", 5, 4),
                ev(0, "gemm.pack_a", "linalg", 6, 1),
                ev(0, "check", "bench", 12, 2),
                ev(1, "serve.batch", "serve", 2, 6),
            ],
            ..Trace::default()
        };
        let b = Breakdown::fold(&trace, 20);
        let ns = |ms: f64| (ms * 1e6).round() as i64;
        assert_eq!(b.threads, 2);
        assert_eq!(ns(b.layers["me-ozaki"]), 3 + 3);
        assert_eq!(ns(b.layers["me-linalg"]), 3 + 1);
        assert_eq!(ns(b.layers["me-serve"]), 6);
        assert_eq!(ns(b.layers["residue"]), (20 - 12) + (20 - 6));
        assert_eq!(ns(b.spans["gemm.kernel"]), 3);
        assert_eq!(ns(b.under("call", &["ozaki.split"])), 3 + 3 + 1);
        assert_eq!(ns(b.layers.values().sum()), 40);
    }
}
