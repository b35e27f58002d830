//! # me-profiler
//!
//! A Score-P-like region profiler with dense-linear-algebra classification —
//! the measurement methodology of the paper's §III-D2 rebuilt as a library.
//!
//! The paper instruments 77 HPC benchmarks by wrapping every function in the
//! MKL dense-algebra headers ((C)BLAS, PBLAS, (Sca)LAPACK), manually
//! instrumenting hand-written GEMM kernels found by roofline analysis, and
//! excluding initialization/post-processing phases and `MPI_Init/Finalize`
//! from the accounting (footnote 13). This crate reproduces each piece:
//!
//! - [`RegionClass`] — the four compute-region categories of Fig 3
//!   (GEMM / BLAS non-GEMM / (Sca)LAPACK / other) plus the excluded
//!   phases (MPI, init/post),
//! - [`classify_symbol`] — the "library wrapper": maps BLAS/LAPACK symbol
//!   names to classes the way the Score-P wrapper tables do,
//! - [`Profiler`] — thread-safe region accounting accepting both
//!   wall-clock-timed closures and modeled durations (the workload models
//!   report simulated seconds),
//! - [`Profile`] — the per-class runtime fractions with the paper's
//!   exclusion rule applied.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Classification of a profiled region, mirroring Fig 3's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionClass {
    /// Matrix-matrix multiplication (directly ME-accelerable).
    Gemm,
    /// BLAS level-1 (vector-vector; paper: unlikely to benefit from MEs).
    BlasL1,
    /// BLAS level-2 (matrix-vector; potentially indirectly accelerable).
    BlasL2,
    /// BLAS level-3 other than GEMM (syrk, trsm, symm, ...).
    BlasL3NonGemm,
    /// LAPACK routines.
    Lapack,
    /// ScaLAPACK routines.
    ScaLapack,
    /// MPI communication (excluded only for Init/Finalize; other MPI time
    /// counts as Other in the paper — we keep it separate for analysis and
    /// fold it into the included total).
    Mpi,
    /// Initialization / post-processing phases (excluded from fractions).
    InitPost,
    /// Everything else.
    Other,
}

impl RegionClass {
    /// Whether this class is excluded from the runtime denominator
    /// (the paper's footnote 13).
    pub fn excluded(self) -> bool {
        matches!(self, RegionClass::InitPost)
    }

    /// Fig 3 legend grouping: GEMM / BLAS(non-GEMM) / (Sca)LAPACK / other.
    pub fn fig3_group(self) -> Fig3Group {
        match self {
            RegionClass::Gemm => Fig3Group::Gemm,
            RegionClass::BlasL1 | RegionClass::BlasL2 | RegionClass::BlasL3NonGemm => {
                Fig3Group::BlasNonGemm
            }
            RegionClass::Lapack | RegionClass::ScaLapack => Fig3Group::Lapack,
            RegionClass::Mpi | RegionClass::Other | RegionClass::InitPost => Fig3Group::Other,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RegionClass::Gemm => "GEMM",
            RegionClass::BlasL1 => "BLAS-L1",
            RegionClass::BlasL2 => "BLAS-L2",
            RegionClass::BlasL3NonGemm => "BLAS-L3 (non-GEMM)",
            RegionClass::Lapack => "LAPACK",
            RegionClass::ScaLapack => "ScaLAPACK",
            RegionClass::Mpi => "MPI",
            RegionClass::InitPost => "init/post",
            RegionClass::Other => "other",
        }
    }
}

/// The four groups of the paper's Fig 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig3Group {
    /// Directly ME-accelerable.
    Gemm,
    /// Potentially indirectly accelerable (BLAS L1/L2/L3-non-GEMM).
    BlasNonGemm,
    /// Potentially indirectly accelerable ((Sca)LAPACK).
    Lapack,
    /// Most probably not accelerable.
    Other,
}

/// Map a linear-algebra symbol name to its region class, the way the
/// paper's Score-P library wrapper classifies MKL entry points.
///
/// Recognizes the BLAS naming convention with optional precision prefix
/// (`s`/`d`/`c`/`z`) and `cblas_` / trailing-underscore decorations.
pub fn classify_symbol(symbol: &str) -> RegionClass {
    let s = symbol.to_ascii_lowercase();
    let s = s.strip_prefix("cblas_").unwrap_or(&s);
    let s = s.strip_suffix('_').unwrap_or(s);
    // ScaLAPACK: p-prefixed LAPACK/BLAS names (pdgemm is still GEMM, the
    // paper counts ScaLAPACK's PBLAS GEMM as GEMM).
    let (scalapack, s) = if let Some(rest) = s.strip_prefix('p') {
        if rest.len() >= 4 && has_precision_prefix(rest) {
            (true, rest)
        } else {
            (false, s)
        }
    } else {
        (false, s)
    };
    let core = strip_precision(s);

    if core == "gemm" || core == "gemm3m" || core == "gemmt" || core == "matmul" {
        return RegionClass::Gemm;
    }
    if matches!(core, "symm" | "hemm" | "syrk" | "herk" | "syr2k" | "her2k" | "trmm" | "trsm") {
        return RegionClass::BlasL3NonGemm;
    }
    if matches!(
        core,
        "gemv"
            | "gbmv"
            | "symv"
            | "sbmv"
            | "spmv"
            | "trmv"
            | "tbmv"
            | "tpmv"
            | "trsv"
            | "tbsv"
            | "tpsv"
            | "ger"
            | "syr"
            | "spr"
            | "syr2"
            | "spr2"
            | "hemv"
            | "her"
            | "her2"
    ) {
        return RegionClass::BlasL2;
    }
    if matches!(
        core,
        "dot"
            | "dotu"
            | "dotc"
            | "axpy"
            | "scal"
            | "copy"
            | "swap"
            | "nrm2"
            | "asum"
            | "amax"
            | "iamax"
            | "rot"
            | "rotg"
            | "rotm"
            | "rotmg"
            | "sdot"
            | "dsdot"
    ) {
        return RegionClass::BlasL1;
    }
    if matches!(
        core,
        "getrf"
            | "getrs"
            | "gesv"
            | "potrf"
            | "potrs"
            | "posv"
            | "geqrf"
            | "orgqr"
            | "ormqr"
            | "gesvd"
            | "gesdd"
            | "syev"
            | "syevd"
            | "syevr"
            | "geev"
            | "getri"
            | "trtrs"
            | "laswp"
            | "gels"
    ) {
        return if scalapack { RegionClass::ScaLapack } else { RegionClass::Lapack };
    }
    if scalapack {
        return RegionClass::ScaLapack;
    }
    if s.starts_with("mpi_") {
        return RegionClass::Mpi;
    }
    RegionClass::Other
}

fn has_precision_prefix(s: &str) -> bool {
    matches!(s.as_bytes().first(), Some(b's' | b'd' | b'c' | b'z'))
}

fn strip_precision(s: &str) -> &str {
    if s.len() > 3 && has_precision_prefix(s) {
        &s[1..]
    } else {
        s
    }
}

/// One aggregated profile entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Region name (symbol or phase label).
    pub name: String,
    /// Classification.
    pub class: RegionClass,
    /// Accumulated seconds.
    pub seconds: f64,
    /// Number of visits.
    pub count: u64,
}

#[derive(Default)]
struct State {
    entries: Vec<Entry>,
    index: HashMap<(String, RegionClass), usize>,
}

/// Thread-safe region profiler.
#[derive(Default)]
pub struct Profiler {
    state: Mutex<State>,
}

impl Profiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a region visit with a modeled (simulated) duration.
    pub fn record(&self, class: RegionClass, name: &str, seconds: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite(), "invalid duration {seconds}");
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&i) = st.index.get(&(name.to_string(), class)) {
            st.entries[i].seconds += seconds;
            st.entries[i].count += 1;
        } else {
            let i = st.entries.len();
            st.index.insert((name.to_string(), class), i);
            st.entries.push(Entry { name: name.to_string(), class, seconds, count: 1 });
        }
    }

    /// Record a region visit classified from its symbol name.
    pub fn record_symbol(&self, symbol: &str, seconds: f64) {
        self.record(classify_symbol(symbol), symbol, seconds);
    }

    /// Time a closure with the wall clock and record it.
    pub fn time<R>(&self, class: RegionClass, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(class, name, t0.elapsed().as_secs_f64());
        r
    }

    /// Snapshot the accumulated profile.
    pub fn profile(&self) -> Profile {
        let st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Profile { entries: st.entries.clone() }
    }

    /// Drop all recorded data.
    pub fn reset(&self) {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.entries.clear();
        st.index.clear();
    }
}

/// An immutable profile snapshot with the paper's accounting rules.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Aggregated entries.
    pub entries: Vec<Entry>,
}

impl Profile {
    /// Total runtime including everything.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|e| e.seconds).sum()
    }

    /// Denominator for fractions: total minus excluded phases
    /// (init/post-processing — the paper's footnote 13).
    pub fn total_included(&self) -> f64 {
        self.entries.iter().filter(|e| !e.class.excluded()).map(|e| e.seconds).sum()
    }

    /// Seconds in a class.
    pub fn seconds_in(&self, class: RegionClass) -> f64 {
        self.entries.iter().filter(|e| e.class == class).map(|e| e.seconds).sum()
    }

    /// Fraction of included runtime spent in a class.
    pub fn fraction(&self, class: RegionClass) -> f64 {
        let denom = self.total_included();
        if denom == 0.0 {
            0.0
        } else {
            self.seconds_in(class) / denom
        }
    }

    /// Fraction of included runtime per Fig 3 group.
    pub fn fig3_fractions(&self) -> Fig3Fractions {
        let denom = self.total_included();
        let mut f = Fig3Fractions::default();
        if denom == 0.0 {
            return f;
        }
        for e in &self.entries {
            if e.class.excluded() {
                continue;
            }
            let frac = e.seconds / denom;
            match e.class.fig3_group() {
                Fig3Group::Gemm => f.gemm += frac,
                Fig3Group::BlasNonGemm => f.blas_non_gemm += frac,
                Fig3Group::Lapack => f.lapack += frac,
                Fig3Group::Other => f.other += frac,
            }
        }
        f
    }

    /// Merge another profile into this one (multi-rank aggregation).
    pub fn merge(&mut self, other: &Profile) {
        for e in &other.entries {
            if let Some(mine) =
                self.entries.iter_mut().find(|m| m.name == e.name && m.class == e.class)
            {
                mine.seconds += e.seconds;
                mine.count += e.count;
            } else {
                self.entries.push(e.clone());
            }
        }
    }
}

/// The four stacked fractions of one Fig 3 bar.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fig3Fractions {
    /// Directly accelerable GEMM fraction.
    pub gemm: f64,
    /// BLAS non-GEMM fraction.
    pub blas_non_gemm: f64,
    /// (Sca)LAPACK fraction.
    pub lapack: f64,
    /// Unaccelerable remainder.
    pub other: f64,
}

impl Fig3Fractions {
    /// The fraction a matrix engine could accelerate directly (GEMM) or
    /// indirectly (BLAS + LAPACK), used by the Fig 4 extrapolations.
    pub fn accelerable(&self) -> f64 {
        self.gemm + self.lapack
    }

    /// Sum of all fractions (≈ 1 for a nonempty profile).
    pub fn sum(&self) -> f64 {
        self.gemm + self.blas_non_gemm + self.lapack + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_blas_symbols() {
        assert_eq!(classify_symbol("dgemm"), RegionClass::Gemm);
        assert_eq!(classify_symbol("SGEMM_"), RegionClass::Gemm);
        assert_eq!(classify_symbol("cblas_dgemm"), RegionClass::Gemm);
        assert_eq!(classify_symbol("matmul"), RegionClass::Gemm);
        assert_eq!(classify_symbol("dsyrk"), RegionClass::BlasL3NonGemm);
        assert_eq!(classify_symbol("dtrsm"), RegionClass::BlasL3NonGemm);
        assert_eq!(classify_symbol("dgemv"), RegionClass::BlasL2);
        assert_eq!(classify_symbol("dger"), RegionClass::BlasL2);
        assert_eq!(classify_symbol("ddot"), RegionClass::BlasL1);
        assert_eq!(classify_symbol("daxpy"), RegionClass::BlasL1);
        assert_eq!(classify_symbol("dnrm2"), RegionClass::BlasL1);
        assert_eq!(classify_symbol("idamax"), RegionClass::Other); // i-prefix handled as-is
        assert_eq!(classify_symbol("dgetrf"), RegionClass::Lapack);
        assert_eq!(classify_symbol("dpotrf"), RegionClass::Lapack);
        assert_eq!(classify_symbol("pdgetrf"), RegionClass::ScaLapack);
        assert_eq!(classify_symbol("pdgemm"), RegionClass::Gemm);
        assert_eq!(classify_symbol("mpi_allreduce"), RegionClass::Mpi);
        assert_eq!(classify_symbol("compute_forces"), RegionClass::Other);
    }

    #[test]
    fn record_and_fractions() {
        let p = Profiler::new();
        p.record(RegionClass::Gemm, "dgemm", 3.0);
        p.record(RegionClass::Other, "stencil", 6.0);
        p.record(RegionClass::InitPost, "init", 100.0);
        p.record(RegionClass::BlasL1, "ddot", 1.0);
        let prof = p.profile();
        assert_eq!(prof.total(), 110.0);
        assert_eq!(prof.total_included(), 10.0);
        assert!((prof.fraction(RegionClass::Gemm) - 0.3).abs() < 1e-15);
        let f = prof.fig3_fractions();
        assert!((f.gemm - 0.3).abs() < 1e-15);
        assert!((f.blas_non_gemm - 0.1).abs() < 1e-15);
        assert!((f.other - 0.6).abs() < 1e-15);
        assert!((f.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_by_name() {
        let p = Profiler::new();
        for _ in 0..5 {
            p.record(RegionClass::Gemm, "dgemm", 1.0);
        }
        let prof = p.profile();
        assert_eq!(prof.entries.len(), 1);
        assert_eq!(prof.entries[0].count, 5);
        assert_eq!(prof.entries[0].seconds, 5.0);
    }

    #[test]
    fn wall_clock_timing() {
        let p = Profiler::new();
        let v = p.time(RegionClass::Other, "work", || {
            let mut s = 0u64;
            for i in 0..100_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(v > 0);
        let prof = p.profile();
        assert!(prof.seconds_in(RegionClass::Other) > 0.0);
    }

    #[test]
    fn merge_profiles() {
        let p1 = Profiler::new();
        p1.record(RegionClass::Gemm, "dgemm", 1.0);
        let p2 = Profiler::new();
        p2.record(RegionClass::Gemm, "dgemm", 2.0);
        p2.record(RegionClass::Other, "x", 1.0);
        let mut a = p1.profile();
        a.merge(&p2.profile());
        assert_eq!(a.seconds_in(RegionClass::Gemm), 3.0);
        assert_eq!(a.total(), 4.0);
    }

    #[test]
    fn empty_profile_is_sane() {
        let p = Profiler::new().profile();
        assert_eq!(p.total(), 0.0);
        assert_eq!(p.fraction(RegionClass::Gemm), 0.0);
        assert_eq!(p.fig3_fractions().sum(), 0.0);
    }

    #[test]
    fn threaded_recording() {
        let p = std::sync::Arc::new(Profiler::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pc = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    pc.record(RegionClass::Gemm, "dgemm", 0.01);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let prof = p.profile();
        assert_eq!(prof.entries[0].count, 800);
        assert!((prof.seconds_in(RegionClass::Gemm) - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn rejects_negative_durations() {
        Profiler::new().record(RegionClass::Gemm, "x", -1.0);
    }

    #[test]
    fn reset_clears() {
        let p = Profiler::new();
        p.record(RegionClass::Gemm, "dgemm", 1.0);
        p.reset();
        assert_eq!(p.profile().total(), 0.0);
    }
}

// ---------------------------------------------------------------------------
// RAII region guards with call-path tracking (the Score-P call-tree view).
// ---------------------------------------------------------------------------

use std::cell::RefCell;

thread_local! {
    static CALL_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard: records the region (with its call path, `outer/inner`) when
/// dropped, using wall-clock time — the `Profiler::time` closure API's
/// structured sibling for code that cannot be wrapped in a closure.
pub struct RegionGuard<'p> {
    profiler: &'p Profiler,
    class: RegionClass,
    path: String,
    start: Instant,
    finished: bool,
}

impl Profiler {
    /// Enter a region; it is recorded (under its full call path) when the
    /// returned guard drops.
    pub fn enter(&self, class: RegionClass, name: &str) -> RegionGuard<'_> {
        let path = CALL_STACK.with(|s| {
            let mut st = s.borrow_mut();
            let path =
                if st.is_empty() { name.to_string() } else { format!("{}/{}", st.join("/"), name) };
            st.push(name.to_string());
            path
        });
        RegionGuard { profiler: self, class, path, start: Instant::now(), finished: false }
    }
}

impl RegionGuard<'_> {
    /// The full call path this guard will record under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finished = true;
            CALL_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            self.profiler.record(self.class, &self.path, self.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;

    #[test]
    fn nested_guards_build_call_paths() {
        let p = Profiler::new();
        {
            let outer = p.enter(RegionClass::Other, "solver");
            assert_eq!(outer.path(), "solver");
            {
                let inner = p.enter(RegionClass::Gemm, "dgemm");
                assert_eq!(inner.path(), "solver/dgemm");
            }
            {
                let inner2 = p.enter(RegionClass::BlasL1, "ddot");
                assert_eq!(inner2.path(), "solver/ddot");
            }
        }
        let prof = p.profile();
        let names: Vec<&str> = prof.entries.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"solver"));
        assert!(names.contains(&"solver/dgemm"));
        assert!(names.contains(&"solver/ddot"));
        // Nested time is also inside the parent (inclusive accounting, like
        // Score-P's call tree).
        assert!(prof.seconds_in(RegionClass::Other) > 0.0);
    }

    #[test]
    fn guard_stack_unwinds_on_sequential_use() {
        let p = Profiler::new();
        {
            let _a = p.enter(RegionClass::Gemm, "a");
        }
        {
            let b = p.enter(RegionClass::Gemm, "b");
            assert_eq!(b.path(), "b", "stack must have unwound after a dropped");
        }
    }

    #[test]
    fn guards_work_across_threads_independently() {
        let p = std::sync::Arc::new(Profiler::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let pc = p.clone();
            handles.push(std::thread::spawn(move || {
                let g = pc.enter(RegionClass::Other, &format!("t{t}"));
                assert_eq!(g.path(), format!("t{t}"), "no cross-thread path leakage");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.profile().entries.len(), 4);
    }
}
