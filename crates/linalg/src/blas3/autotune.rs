//! GEMMbench-style startup autotune sweep over the blocking grid.
//!
//! Lokhmotov & Grigori's GEMMbench argument (arXiv:1511.03742) is that
//! GEMM performance claims are only reproducible when the blocking
//! parameters are *searched*, not assumed. This module replaces the old
//! hard-coded `KC = 256` / `MC = 64` with a timed sweep over a small
//! `(mc, kc, nc)` candidate grid per available [`KernelVariant`], run
//! through [`crate::blas3::gemm_tiled_with_blocking`] (no global state is
//! touched while timing), persisted to `artifacts/autotune.json` and
//! installed as runtime overrides via [`apply`].
//!
//! **Knob priority** is `ME_BLOCKING` > autotune artifact > compiled
//! defaults: [`apply`] skips any variant the environment configured
//! explicitly. The artifact is **never** loaded implicitly at library
//! init — only an explicit [`ensure_autotuned`] / [`read_artifact`] call
//! consults it, so a stale file can't silently change test behavior.
//!
//! The artifact records the host it was swept on ([`HostKey`]: the kernel
//! variants it could run and its CPU model). [`ensure_autotuned`] only
//! reuses winners swept on the current host; on any other it re-sweeps
//! and rewrites the file.
//!
//! Every candidate keeps `kc ≥ 128`: `kc` is the one numerically
//! observable parameter (it sets the per-element FMA grouping, see
//! [`super::blocking`]), and the repo's bitwise differential suites pin
//! shapes with `k ≤ NR + 1`, which stay single-chunk for any such `kc`.

use super::blocking::{blocking_env_configured, set_blocking_override, Blocking};
use super::gemm_tiled_with_blocking;
use super::ukernel::{available_variants, KernelVariant};
use crate::mat::Mat;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Schema version stamped into the artifact; bump on layout changes so
/// [`read_artifact`] rejects files written by an incompatible build.
pub const ARTIFACT_VERSION: u32 = 2;

/// The machine a sweep timed: what [`ensure_autotuned`] compares before
/// it reuses an artifact's winners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostKey {
    /// The names of [`available_variants`], space-separated, in order.
    pub variants: String,
    /// The first `model name` in `/proc/cpuinfo`; empty where there is
    /// none. Characters the artifact reader treats as structure are
    /// dropped.
    pub cpu: String,
}

impl HostKey {
    /// The host this process runs on.
    pub fn current() -> HostKey {
        let names: Vec<&str> = available_variants().iter().map(|v| v.name()).collect();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines().find_map(|line| {
                    let (key, value) = line.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_string())
                })
            })
            .unwrap_or_default();
        let cpu = cpu.chars().filter(|c| !"\"\\{}[]".contains(*c)).collect();
        HostKey { variants: names.join(" "), cpu }
    }
}

/// One sweep winner: the best-timed blocking for one kernel variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedEntry {
    /// The micro-kernel variant this blocking was tuned for.
    pub variant: KernelVariant,
    /// The winning `(mc, kc, nc)` triple.
    pub blocking: Blocking,
    /// Best observed throughput for the sweep shape, in GFLOP/s.
    pub gflops: f64,
}

/// The sweep output: one [`TunedEntry`] per swept variant, plus the
/// shape the timings were taken on (recorded for reproducibility).
#[derive(Debug, Clone, PartialEq)]
pub struct AutotuneResult {
    /// The machine the sweep ran on.
    pub host: HostKey,
    /// `(m, k, n)` of the timing GEMM.
    pub shape: (usize, usize, usize),
    /// Winners, one per swept variant.
    pub entries: Vec<TunedEntry>,
}

/// Sweep dimensions and repetitions.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Rows of the timing A/C operands.
    pub m: usize,
    /// Shared dimension of the timing GEMM.
    pub k: usize,
    /// Columns of the timing B/C operands.
    pub n: usize,
    /// Timed repetitions per candidate; the best (minimum) time wins.
    pub reps: usize,
}

impl SweepConfig {
    /// The full startup sweep: a mid-size square-ish shape where the
    /// blocking choice is actually visible in the timings.
    pub const DEFAULT: SweepConfig = SweepConfig { m: 192, k: 384, n: 192, reps: 3 };

    /// A CI-smoke sweep: small enough to finish in well under a second
    /// per variant while still exercising every candidate.
    pub const QUICK: SweepConfig = SweepConfig { m: 64, k: 256, n: 64, reps: 1 };
}

/// The candidate grid each variant is timed over. All `kc ≥ 128` (see
/// the module docs for why), `mc` spans the L1/L2 trade-off, and `nc`
/// contrasts a column-blocked pass against the classic full-width pack.
pub fn candidate_grid() -> Vec<Blocking> {
    let mut grid = Vec::new();
    for &mc in &[32usize, 64, 128] {
        for &kc in &[128usize, 256, 512] {
            for &nc in &[256usize, 4096] {
                grid.push(Blocking { mc, kc, nc }.normalized());
            }
        }
    }
    grid
}

fn bench_matrix(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1) | 1;
    Mat::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    })
}

/// Time every [`candidate_grid`] triple for every host-supported variant
/// and return the per-variant winners. Pure with respect to the global
/// blocking table: timing goes through
/// [`gemm_tiled_with_blocking`], so concurrent GEMMs elsewhere in the
/// process are unaffected until [`apply`] installs the winners.
pub fn sweep(config: SweepConfig) -> AutotuneResult {
    let (m, k, n) = (config.m.max(1), config.k.max(1), config.n.max(1));
    let reps = config.reps.max(1);
    let a = bench_matrix(m, k, 11);
    let b = bench_matrix(k, n, 13);
    let flops = 2.0 * (m as f64) * (k as f64) * (n as f64);
    let mut entries = Vec::new();
    for variant in available_variants() {
        let mut best: Option<(Blocking, f64)> = None;
        for cand in candidate_grid() {
            // One untimed warm-up sizes the pack scratch so the timed
            // reps see the steady (zero-allocation) state.
            let mut c = Mat::zeros(m, n);
            gemm_tiled_with_blocking(variant, cand, 1.0, &a, &b, 0.0, &mut c);
            let mut best_secs = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                gemm_tiled_with_blocking(variant, cand, 1.0, &a, &b, 0.0, &mut c);
                best_secs = best_secs.min(t0.elapsed().as_secs_f64());
            }
            let gflops = flops / best_secs.max(1e-12) / 1e9;
            if best.map(|(_, g)| gflops > g).unwrap_or(true) {
                best = Some((cand, gflops));
            }
        }
        if let Some((blocking, gflops)) = best {
            entries.push(TunedEntry { variant, blocking, gflops });
        }
    }
    AutotuneResult { host: HostKey::current(), shape: (m, k, n), entries }
}

/// Install the sweep winners as runtime blocking overrides, skipping any
/// variant `ME_BLOCKING` configured explicitly (knob priority: env >
/// artifact > defaults). Returns how many overrides were installed.
pub fn apply(result: &AutotuneResult) -> usize {
    let mut installed = 0;
    for e in &result.entries {
        if blocking_env_configured(e.variant) {
            continue;
        }
        set_blocking_override(e.variant, Some(e.blocking));
        installed += 1;
    }
    installed
}

/// Serialize an [`AutotuneResult`] to the artifact JSON (see
/// `DESIGN.md` §12 for the schema).
pub fn to_json(result: &AutotuneResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {ARTIFACT_VERSION},\n"));
    let HostKey { variants, cpu } = &result.host;
    out.push_str(&format!("  \"host\": {{\"variants\": \"{variants}\", \"cpu\": \"{cpu}\"}},\n"));
    let (m, k, n) = result.shape;
    out.push_str(&format!("  \"shape\": {{\"m\": {m}, \"k\": {k}, \"n\": {n}}},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in result.entries.iter().enumerate() {
        let sep = if i + 1 == result.entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"mc\": {}, \"kc\": {}, \"nc\": {}, \"gflops\": {:.3}}}{sep}\n",
            e.variant.name(),
            e.blocking.mc,
            e.blocking.kc,
            e.blocking.nc,
            e.gflops
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse the artifact JSON written by [`to_json`]. This is a minimal
/// schema-specific reader (the workspace carries no JSON dependency):
/// it understands exactly the object layout [`to_json`] emits, rejects
/// other versions, and returns `None` on any structural surprise.
pub fn from_json(text: &str) -> Option<AutotuneResult> {
    if json_usize_field(text, "version")? != ARTIFACT_VERSION as usize {
        return None;
    }
    let host_obj = json_object_after(text, "host")?;
    let host = HostKey {
        variants: json_str_field(host_obj, "variants")?.to_string(),
        cpu: json_str_field(host_obj, "cpu")?.to_string(),
    };
    let shape_obj = json_object_after(text, "shape")?;
    let shape = (
        json_usize_field(shape_obj, "m")?,
        json_usize_field(shape_obj, "k")?,
        json_usize_field(shape_obj, "n")?,
    );
    let list = json_array_after(text, "entries")?;
    let mut entries = Vec::new();
    for obj in json_objects(list) {
        let variant = KernelVariant::parse(json_str_field(obj, "variant")?)?;
        let blocking = Blocking {
            mc: json_usize_field(obj, "mc")?,
            kc: json_usize_field(obj, "kc")?,
            nc: json_usize_field(obj, "nc")?,
        }
        .normalized();
        let gflops = json_f64_field(obj, "gflops")?;
        entries.push(TunedEntry { variant, blocking, gflops });
    }
    Some(AutotuneResult { host, shape, entries })
}

/// Write the artifact JSON to `path`, creating parent directories.
pub fn write_artifact(path: &Path, result: &AutotuneResult) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(result).as_bytes())
}

/// Read and parse an artifact; `Ok(None)` when the file doesn't exist,
/// `Err` on IO failure or a file that doesn't parse as a current-version
/// artifact (a stale artifact should be loud, not silently ignored).
pub fn read_artifact(path: &Path) -> std::io::Result<Option<AutotuneResult>> {
    match std::fs::read_to_string(path) {
        Ok(text) => from_json(&text).map(Some).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a version-{ARTIFACT_VERSION} autotune artifact", path.display()),
            )
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The startup entry point benches and apps call: load `path` if a valid
/// artifact swept on this host ([`HostKey::current`]) exists there, else
/// (none, another host's, or another [`ARTIFACT_VERSION`]'s) run [`sweep`]
/// with `config` and persist it over whatever was there;
/// then [`apply`] the winners (honoring `ME_BLOCKING` priority) and
/// return the result. Library code never calls this implicitly.
pub fn ensure_autotuned(path: &Path, config: SweepConfig) -> std::io::Result<AutotuneResult> {
    let result = load_or_sweep(path, config)?;
    apply(&result);
    Ok(result)
}

/// [`ensure_autotuned`] without the [`apply`]: the artifact at `path` if
/// it was swept on this host under this [`ARTIFACT_VERSION`], else a
/// fresh sweep written over it. An artifact of another version is stale
/// like another host's; I/O errors and files that are not an artifact at
/// all stay errors.
fn load_or_sweep(path: &Path, config: SweepConfig) -> std::io::Result<AutotuneResult> {
    let cached = match read_artifact(path) {
        Ok(cached) => cached,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData && other_version(path) => None,
        Err(e) => return Err(e),
    };
    match cached {
        Some(cached) if cached.host == HostKey::current() => Ok(cached),
        _ => {
            let fresh = sweep(config);
            write_artifact(path, &fresh)?;
            Ok(fresh)
        }
    }
}

/// Does `path` hold an artifact stamped with a version other than
/// [`ARTIFACT_VERSION`]?
fn other_version(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json_usize_field(&text, "version"))
        .is_some_and(|v| v != ARTIFACT_VERSION as usize)
}

// --- minimal schema-specific JSON scanning helpers ---

/// The raw text following `"key":`, trimmed.
fn json_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    rest.strip_prefix(':').map(str::trim_start)
}

fn json_usize_field(text: &str, key: &str) -> Option<usize> {
    let rest = json_after(text, key)?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_f64_field(text: &str, key: &str) -> Option<f64> {
    let rest = json_after(text, key)?;
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_str_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_after(text, key)?.strip_prefix('"')?;
    rest.split('"').next()
}

fn json_object_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_after(text, key)?.strip_prefix('{')?;
    rest.split('}').next()
}

fn json_array_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_after(text, key)?.strip_prefix('[')?;
    rest.split(']').next()
}

/// Iterate the `{...}` objects of a flat (non-nested) array body.
fn json_objects(list: &str) -> impl Iterator<Item = &str> {
    list.split('{').skip(1).filter_map(|chunk| chunk.split('}').next())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AutotuneResult {
        AutotuneResult {
            host: HostKey { variants: "scalar avx2".into(), cpu: "Sample CPU @ 2.0GHz".into() },
            shape: (64, 256, 64),
            entries: vec![
                TunedEntry {
                    variant: KernelVariant::Scalar,
                    blocking: Blocking { mc: 32, kc: 128, nc: 256 },
                    gflops: 1.5,
                },
                TunedEntry {
                    variant: KernelVariant::Avx2,
                    blocking: Blocking { mc: 128, kc: 512, nc: 4096 },
                    gflops: 9.25,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let parsed = from_json(&to_json(&r)).expect("roundtrip must parse");
        assert_eq!(parsed.host, r.host);
        assert_eq!(parsed.shape, r.shape);
        assert_eq!(parsed.entries.len(), r.entries.len());
        for (a, b) in parsed.entries.iter().zip(&r.entries) {
            assert_eq!(a.variant, b.variant);
            assert_eq!(a.blocking, b.blocking);
            assert!((a.gflops - b.gflops).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_foreign_or_stale_json() {
        assert!(from_json("").is_none());
        assert!(from_json("{\"version\": 999, \"entries\": []}").is_none());
        let v = ARTIFACT_VERSION;
        let bare = format!("{{\"version\": {v}}}");
        assert!(from_json(&bare).is_none(), "missing host/shape/entries");
        // A version-1 artifact (no host) is stale.
        let mut old = to_json(&sample()).replace(&format!("\"version\": {v}"), "\"version\": 1");
        assert!(from_json(&old).is_none(), "version 1");
        old = to_json(&sample()).replace("  \"host\"", "  \"hostname\"");
        assert!(from_json(&old).is_none(), "no host");
        // A valid shell with an undecodable entry fails loudly.
        // `portable` is a retired variant: an artifact naming it is stale.
        for variant in ["warp9", "portable"] {
            let bad = to_json(&sample()).replacen("\"scalar\"", &format!("\"{variant}\""), 1);
            assert!(bad.contains(variant) && from_json(&bad).is_none(), "{variant}");
        }
    }

    #[test]
    fn host_key_names_the_runnable_variants() {
        let host = HostKey::current();
        let names: Vec<&str> = available_variants().iter().map(|v| v.name()).collect();
        assert_eq!(host.variants, names.join(" "));
        assert!(!host.cpu.contains(['"', '{', '}']), "{host:?}");
    }

    #[test]
    fn another_hosts_artifact_is_re_swept_and_this_hosts_is_reused() {
        let dir = std::env::temp_dir().join(format!("me_autotune_host_{}", std::process::id()));
        let path = dir.join("autotune.json");
        let tiny = SweepConfig { m: 8, k: 128, n: 8, reps: 1 };
        // Forged: the sample's winners, stamped with another machine.
        let forged = AutotuneResult {
            host: HostKey { cpu: "Forged CPU".into(), ..HostKey::current() },
            ..sample()
        };
        write_artifact(&path, &forged).expect("write forged artifact");
        let got = load_or_sweep(&path, tiny).expect("re-sweep");
        assert_eq!(got.host, HostKey::current());
        assert_eq!(got.shape, (8, 128, 8), "forged winners were reused");
        let back = read_artifact(&path).expect("parses").expect("exists");
        assert_eq!((back.host, back.shape), (got.host, got.shape), "artifact not rewritten");
        // Stamped with this machine: loaded as it is, no sweep.
        let ours = AutotuneResult { host: HostKey::current(), ..sample() };
        write_artifact(&path, &ours).expect("write artifact");
        assert_eq!(load_or_sweep(&path, tiny).expect("load").shape, ours.shape);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_versions_artifact_is_re_swept_and_garbage_stays_loud() {
        let dir = std::env::temp_dir().join(format!("me_autotune_version_{}", std::process::id()));
        let path = dir.join("autotune.json");
        let tiny = SweepConfig { m: 8, k: 128, n: 8, reps: 1 };
        // A version-1 artifact: no host, the sample's winners.
        let ours = AutotuneResult { host: HostKey::current(), ..sample() };
        let current = format!("\"version\": {ARTIFACT_VERSION}");
        let v1 = to_json(&ours).replace(&current, "\"version\": 1");
        std::fs::create_dir_all(&dir).expect("create dir");
        std::fs::write(&path, &v1).expect("write version-1 artifact");
        // `load_or_sweep` is `ensure_autotuned` without installing the
        // winners, which would change `kc` under concurrent tests.
        let got = load_or_sweep(&path, tiny).expect("re-sweep over a version-1 artifact");
        assert_eq!((got.host, got.shape), (HostKey::current(), (8, 128, 8)), "winners reused");
        let back = std::fs::read_to_string(&path).expect("artifact rewritten");
        assert_eq!(json_usize_field(&back, "version"), Some(ARTIFACT_VERSION as usize));
        // Not an artifact at all: an error, and the file is left alone.
        std::fs::write(&path, "not json").expect("write garbage");
        let err = load_or_sweep(&path, tiny).expect_err("garbage must stay loud");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&path).expect("still there"), "not json");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn candidate_grid_keeps_kc_at_least_128() {
        let grid = candidate_grid();
        assert!(!grid.is_empty());
        assert!(grid.iter().all(|b| b.kc >= 128), "kc < 128 would break the single-chunk suites");
        assert!(grid.iter().all(|b| b.nc % crate::blas3::NR == 0));
    }

    #[test]
    fn quick_sweep_produces_entries_and_correct_results() {
        let r = sweep(SweepConfig { m: 16, k: 160, n: 24, reps: 1 });
        assert_eq!(r.entries.len(), available_variants().len());
        for e in &r.entries {
            assert!(e.gflops > 0.0, "{:?} gflops must be positive", e.variant);
            assert!(e.blocking.kc >= 128);
        }
    }
}
