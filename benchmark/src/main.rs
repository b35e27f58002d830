//! `me-benchmark`: the repository benchmark.
//!
//! One command per workload runs the hot path of the matrix-engines
//! library on inputs generated from `--seed`, checks every output,
//! and prints each metric by name with its unit. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs the same workload with
//! `me-trace` spans recorded, in the library and around every public
//! call, and prints the per-layer metrics. See NOTES.md for the
//! workloads and the metric table.
//!
//! Usage:
//! `me-benchmark --workload <dgemm|ozaki|serve-decode|serve-mixed>
//!  --seed <u64> --seconds <n> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The line before it
//! records the host fingerprint. The exit code is 0 when every check
//! passed, 1 when a check failed and 2 on a usage or environment error.

mod dgemm;
mod host;
mod metrics;
mod ozaki;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use host::StateSampler;
use metrics::Report;
use trace::Breakdown;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub measure: Duration,
    /// Per-layer run with spans (`true`) or end-to-end run (`false`).
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Set the workload up [`SETUPS`] times and keep the last instance.
/// Each set-up is timed as the CPU time all of the process's threads
/// spend in it (see [`host::CpuClock`] for why CPU time). Each earlier
/// instance is dropped, and its threads joined, before the next set-up
/// starts, so no thread exits inside a timed set-up.
pub fn time_setups<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let cpu = host::process_cpu_s();
        last = Some(setup());
        times.push(host::process_cpu_s() - cpu);
    }
    (stats::median(&mut times), last.expect("SETUPS > 0"))
}

/// Operations completed in one measured phase and its wall time.
pub struct Phase {
    pub ops: u64,
    pub wall_s: f64,
}

impl Phase {
    fn per_op_s(&self) -> f64 {
        self.wall_s / self.ops.max(1) as f64
    }
}

/// The share of the measured time the working threads were running or
/// runnable rather than blocked (see [`StateSampler`]): near 1 while they
/// never wait, lower when they idle on a lock, a condvar or each other.
/// End-to-end rates are CPU-time rates scaled by it, so that waiting
/// counts. Below [`MIN_BUSY_SHARE`] the run fails: its threads spent most
/// of the measured time waiting.
pub fn busy_share(report: &mut Report, sampler: StateSampler) -> f64 {
    let share = sampler.finish();
    report.check(share >= MIN_BUSY_SHARE, || {
        format!("busy share {share:.3} < {MIN_BUSY_SHARE}: the working threads mostly waited")
    });
    share
}

/// The least [`busy_share`] a run may have.
const MIN_BUSY_SHARE: f64 = 0.5;

/// Where the traced phase's spans are written.
pub fn trace_path(args: &Args) -> String {
    format!(".bench_out/{}-seed{}.trace.json", args.workload, args.seed)
}

/// The traced run's layer breakdown: self time per layer and per
/// library span, the residue, their sum next to the wall time, and the
/// tracing overhead (traced minus untraced wall time per operation, in
/// the same process).
pub fn report_trace(report: &mut Report, b: &Breakdown, untraced: &Phase, traced: &Phase) {
    for layer in trace::LAYERS.into_iter().chain(["residue"]) {
        let ms = b.layers.get(layer).copied().unwrap_or(0.0);
        report.set(&format!("trace.{layer}.self_ms"), ms);
    }
    for name in trace::LIBRARY_SPANS {
        let ms = b.spans.get(name).copied().unwrap_or(0.0);
        report.set(&format!("trace.{name}.self_ms"), ms);
    }
    report.set("trace.sum_ms", b.layers.values().sum());
    report.set("trace.wall_ms", b.wall_ms);
    report.set("trace.threads", b.threads as f64);
    report.set(
        "trace.overhead_pct",
        (traced.per_op_s() / untraced.per_op_s() - 1.0) * 100.0,
    );
}

const WORKLOADS: [&str; 4] = ["dgemm", "ozaki", "serve-decode", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(0.5..=120.0).contains(&seconds) {
        return Err("--seconds must lie in 0.5..=120".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("me-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::refuse_pinned_env() {
        eprintln!("me-benchmark: {e}");
        return ExitCode::from(2);
    }
    let mut report: Report = match args.workload.as_str() {
        "dgemm" => dgemm::run(&args),
        "ozaki" => ozaki::run(&args),
        "serve-decode" => serve::run(&args, serve::Mix::decode()),
        _ => serve::run(&args, serve::Mix::mixed()),
    };
    if let Some(s) = report.steal_share.filter(|_| args.trace) {
        report.set("host.steal_pct", s * 100.0);
    }
    for note in &report.errors {
        eprintln!("me-benchmark: check failed: {note}");
    }
    println!("{}", host::fingerprint_json(&args, report.steal_share));
    match report.to_json(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("me-benchmark: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
