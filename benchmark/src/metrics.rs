//! Metric tables and the result line.
//!
//! Every run prints every metric of its mode: the end-to-end table with
//! `--trace 0`, the per-layer table with `--trace 1`. A per-layer
//! metric of a layer the workload never calls reads 0 (see NOTES.md).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{LAYERS, LIBRARY_SPANS};

/// End-to-end metrics, identical on every workload (NOTES.md defines
/// each per workload).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("gflops", "GFLOP/s"),
    ("req_per_s", "1/s"),
];

/// The Ozaki substrates, by [`me_ozaki::OzakiBackend::label`].
pub const SUBSTRATES: [&str; 3] = ["simulated-me", "host-int8", "host-f16"];

/// Per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("linalg.pack_b_ms", "ms"),
        ("linalg.prepacked_1t_ms", "ms"),
        ("linalg.gemm_1t_gflops", "GFLOP/s"),
        ("linalg.flops", "flop"),
        ("linalg.bytes_computed", "B"),
        ("linalg.flops_per_byte", "flop/B"),
        ("par.efficiency", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for s in SUBSTRATES {
        for (field, unit) in [
            ("gflops", "GFLOP/s"),
            ("split_ms", "ms"),
            ("products_ms", "ms"),
            ("slices", "count"),
            ("products_computed", "count"),
            ("products_skipped", "count"),
            ("max_rel_err", "ratio"),
        ] {
            out.push((format!("ozaki.{s}.{field}"), unit));
        }
    }
    for (n, u) in [
        ("serve.submit_us_p50", "us"),
        ("serve.submit_us_p99", "us"),
        ("serve.resolve_ms_p50", "ms"),
        ("serve.batch_mean", "count"),
        ("serve.rows_per_batch", "count"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.cache_lookups", "count"),
        ("serve.cache_evictions", "count"),
        ("serve.pack_bytes_saved", "B"),
        ("serve.cache_hit_us", "us"),
        ("serve.cache_miss_ms", "ms"),
        ("serve.queue_high_water", "count"),
        ("serve.retries", "count"),
        ("serve.outcome_ok", "count"),
        ("serve.outcome_timed_out", "count"),
        ("serve.outcome_shed", "count"),
        ("serve.outcome_failed", "count"),
        ("serve.rejected_full", "count"),
        ("serve.client_wait_share", "ratio"),
        ("serve.client_cpu_share", "ratio"),
        ("latency_p50_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("host.steal_pct", "%"),
        ("host.cpu_share", "ratio"),
        ("busy_share", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    for s in SUBSTRATES {
        out.push((format!("trace.ozaki.{s}.products_ms"), "ms"));
    }
    for layer in LAYERS.into_iter().chain(["residue"]) {
        out.push((format!("trace.{layer}.self_ms"), "ms"));
    }
    for name in LIBRARY_SPANS {
        out.push((format!("trace.{name}.self_ms"), "ms"));
    }
    for (n, u) in [
        ("trace.sum_ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("trace.threads", "count"),
        ("trace.overhead_pct", "%"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Report {
    /// Operations the workload issued (GEMM calls, emulated GEMMs,
    /// serve submissions).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// CPU steal over the measured window, as a share of CPU time.
    pub steal_share: Option<f64>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a check; a failed one fails the run and counts as a
    /// failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with every metric of the selected table.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let table: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|(n, _)| n == *k))
        {
            let table = if trace { "per-layer" } else { "end-to-end" };
            return Err(format!("metric {stray} is not in the {table} table"));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                // A layer this workload never calls.
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
