//! The configuration under test and the host it ran on.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use me_linalg::{avx2_supported, avx512_supported, blocking_for, selected_kernel};

use crate::Args;

/// Environment knobs that would change the configuration under test.
/// The benchmark measures the startup defaults only, so it refuses to
/// run while any of these is set.
const PINNED_ENV: [&str; 8] = [
    "ME_KERNEL",
    "ME_BLOCKING",
    "ME_THREADS",
    "ME_SHARDS",
    "ME_QUEUE",
    "ME_WEIGHT_CACHE",
    "ME_TENANT_WEIGHTS",
    "ME_AUTOTUNE",
];

pub fn refuse_pinned_env() -> Result<(), String> {
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the defaults",
            set.join(", ")
        ))
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

fn steal_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// CPU steal over an interval: the hypervisor's share of this guest's
/// CPU time, so a noisy-neighbour run can be told from a regression.
pub struct StealClock {
    start: Instant,
    ticks: Option<u64>,
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock {
            start: Instant::now(),
            ticks: steal_ticks(),
        }
    }

    /// Steal since [`StealClock::start`] as a share of all CPUs' time.
    pub fn share(&self) -> Option<f64> {
        let wall = self.start.elapsed().as_secs_f64();
        let ticks = steal_ticks()?.checked_sub(self.ticks?)?;
        Some(ticks as f64 / USER_HZ / (wall * nproc() as f64))
    }
}

/// How often [`StateSampler`] looks at its threads.
const SAMPLE_EVERY: Duration = Duration::from_millis(1);

/// A thread that looks at some threads of this process every
/// [`SAMPLE_EVERY`] and measures the share of the time they were not
/// blocked on a lock, a condvar or I/O.
///
/// Each look reads a thread's state (`R`, running or runnable, in
/// `/proc/self/task/<tid>/stat`) and its CPU clock. Steal does not change
/// a thread's state, so a thread found `R` counts as busy whatever the
/// host took from its CPU. A thread found blocked counts as busy by the
/// share of the last interval that the host took from another `R` thread
/// of the set (wall time less that thread's CPU time): it was waiting
/// for that thread, and on dedicated CPUs would have waited that much
/// less.
pub struct StateSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<f64>,
}

impl StateSampler {
    pub fn start(tids: Vec<u32>) -> StateSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let paths: Vec<String> = tids
                    .iter()
                    .map(|t| format!("/proc/self/task/{t}/stat"))
                    .collect();
                let clocks: Vec<i32> = tids.iter().map(|&t| thread_clock(t)).collect();
                let read = || -> Vec<f64> { clocks.iter().map(|&c| cpu_clock_s(c)).collect() };
                let (mut looks, mut busy) = (0u64, 0.0);
                let (mut cpu0, mut t0) = (read(), Instant::now());
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    let running: Vec<bool> = paths
                        .iter()
                        .map(|p| {
                            let stat = fs::read_to_string(p).unwrap_or_default();
                            // The state follows the parenthesised thread name.
                            let state = stat.rsplit_once(") ").and_then(|(_, r)| r.chars().next());
                            state == Some('R')
                        })
                        .collect();
                    let (cpu, t) = (read(), Instant::now());
                    let dt = (t - t0).as_secs_f64();
                    let stolen: Vec<f64> = running
                        .iter()
                        .zip(cpu.iter().zip(&cpu0))
                        .map(|(&r, (c, c0))| {
                            if r {
                                (1.0 - (c - c0) / dt).clamp(0.0, 1.0)
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    for (i, &r) in running.iter().enumerate() {
                        looks += 1;
                        busy += if r {
                            1.0
                        } else {
                            (0..running.len())
                                .filter(|&j| j != i)
                                .map(|j| stolen[j])
                                .fold(0.0, f64::max)
                        };
                    }
                    (cpu0, t0) = (cpu, t);
                }
                busy / looks.max(1) as f64
            })
            .expect("the sampler thread starts");
        StateSampler { stop, handle }
    }

    /// Stop sampling; the busy share of the looks.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("the sampler thread exits")
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("the benchmark reads thread CPU clocks through the x86-64 Linux syscall ABI");

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SYS_CLOCK_GETTIME: i64 = 228;

/// `clock_gettime(2)` on a CPU-time clock, in seconds. The standard
/// library has no CPU clocks, and `/proc/<tid>/schedstat` advances only
/// at scheduler ticks (4 ms here), too coarse for a per-call time.
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime(2) writes one `struct timespec` (two i64 on
    // x86-64) through its second argument, which points at `ts`, live
    // and writable for the whole call. The `syscall` instruction
    // clobbers only rcx and r11, declared below, and uses no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") i64::from(clock),
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "clock_gettime({clock}) failed");
    ts[0] as f64 + ts[1] as f64 / 1e9
}

/// CPU time the kernel has charged to some of this process's threads.
/// With paravirtual steal accounting, which the reference host has,
/// time the hypervisor stole from a vCPU is not charged to the thread
/// that was on it, so CPU time measures the code rather than the
/// neighbours; neither is time spent blocked.
pub struct CpuClock {
    clocks: Vec<i32>,
    tids: Vec<u32>,
}

impl CpuClock {
    /// The calling thread (when `current`) and every live thread whose
    /// name starts with one of `prefixes`.
    pub fn new(current: bool, prefixes: &[&str]) -> CpuClock {
        let (mut clocks, mut tids) = (Vec::new(), Vec::new());
        if current {
            clocks.push(CLOCK_THREAD_CPUTIME_ID);
            // `/proc/thread-self` links to `<pid>/task/<tid>`.
            let link = fs::read_link("/proc/thread-self").expect("/proc names this thread");
            let tid = link.file_name().and_then(|t| t.to_str()?.parse().ok());
            tids.push(tid.expect("/proc/thread-self ends in a thread id"));
        }
        let tasks = fs::read_dir("/proc/self/task").expect("/proc lists this process's threads");
        for task in tasks.flatten() {
            let name = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let tid: Option<u32> = task.file_name().to_str().and_then(|t| t.parse().ok());
            if let Some(tid) = tid.filter(|_| prefixes.iter().any(|p| name.starts_with(p))) {
                clocks.push(thread_clock(tid));
                tids.push(tid);
            }
        }
        CpuClock { clocks, tids }
    }

    /// The threads' ids, in the order of [`CpuClock::read`].
    pub fn tids(&self) -> Vec<u32> {
        self.tids.clone()
    }

    pub fn threads(&self) -> usize {
        self.clocks.len()
    }

    /// Median CPU time of the first thread over `calls` calls of `f`, in
    /// seconds.
    pub fn median_of(&self, calls: usize, mut f: impl FnMut()) -> f64 {
        let mut times: Vec<f64> = (0..calls)
            .map(|_| {
                let t = cpu_clock_s(self.clocks[0]);
                f();
                cpu_clock_s(self.clocks[0]) - t
            })
            .collect();
        crate::stats::median(&mut times)
    }

    /// Each thread's CPU time so far, in seconds.
    pub fn read(&self) -> Vec<f64> {
        self.clocks.iter().map(|&c| cpu_clock_s(c)).collect()
    }
}

/// The kernel's CPU clock id of thread `tid` of this process, as
/// pthread_getcpuclockid(3) builds it.
fn thread_clock(tid: u32) -> i32 {
    ((!tid) << 3) as i32 | 6
}

/// CPU time charged to the calling thread so far, in seconds (steal
/// excluded, as for [`CpuClock`]).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time charged to all threads of this process so far, in seconds
/// (steal excluded, as for [`CpuClock`]).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The revision of the checkout: git's `HEAD` when the checkout is a
/// git repository, `none` otherwise.
fn git_revision() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest over the library sources (`crates/*/src/**/*.rs`, in
/// path order), which names the code under test where git does not.
fn source_digest() -> String {
    let mut files = Vec::new();
    if let Ok(entries) = fs::read_dir("crates") {
        for e in entries.flatten() {
            collect_rs(&e.path().join("src"), &mut files);
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}/{}", files.len())
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// One JSON line naming the configuration and host of this run.
pub fn fingerprint_json(args: &Args, steal_share: Option<f64>) -> String {
    let kernel = selected_kernel();
    let b = blocking_for(kernel);
    let steal = steal_share.map_or("null".to_string(), |s| format!("{s}"));
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"avx2\": {}, \"avx512f\": {}, \"kernel\": \"{}\", \"blocking\": [{}, {}, {}], \
         \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"steal_share\": {steal}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        avx2_supported(),
        avx512_supported(),
        kernel.name(),
        b.mc,
        b.kc,
        b.nc,
        git_revision(),
        source_digest(),
    )
}
