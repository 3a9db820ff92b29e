//! What the host charges for a pass: wall and CPU clocks, kernel
//! counters, the counting allocator and the spin kernel that gauges how
//! quiet the box is.
//!
//! The process clock and `getrusage` are the only sources that include
//! threads which have already exited — the pooled executor spawns and
//! joins its worker inside every `Universe::run`, so `/proc/self/task/*`
//! would miss exactly the thread that did the work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::{c_int, c_long};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use crate::estim::quiet_s;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    unused_a: [c_long; 3],
    minflt: c_long,
    majflt: c_long,
    unused_b: [c_long; 6],
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const RUSAGE_SELF: c_int = 0;
const M_MMAP_THRESHOLD: c_int = -3;

/// Environment variable that, set to `default`, leaves glibc's malloc
/// policy alone. The traced run starts one such child to report what the
/// pin hides (`host.malloc_default_ratio`).
pub const MALLOC_ENV: &str = "BENCHMARK_MALLOC";

/// Pin glibc's `mmap` threshold at its 128 KiB default, which also
/// switches off its habit of raising the threshold to the size of the
/// last freed block. With the habit on, the coroutine stacks of every
/// universe but a process's first come from per-thread heaps, and what
/// they cost (zeroing, page faults, retained memory) depends on which
/// arena the worker thread was handed and on what sits on top of that
/// heap: `figs_pooled` passes of 0.09 s at 164 MiB and of 0.27 s at
/// 68 MiB came from one binary and seed, and consecutive ladder rungs
/// did not even order. Pinned, every universe maps its stacks afresh
/// and faults in only the pages it touches, as the first universe of
/// any process does (0.017 s, 6 MiB).
pub fn pin_malloc_policy() {
    if std::env::var(MALLOC_ENV).as_deref() == Ok("default") {
        return;
    }
    // SAFETY: `mallopt` only updates malloc's own parameters; called
    // once at start-up, before any other thread exists.
    let rc = unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
    assert_eq!(rc, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// CPU seconds the whole process (every thread, live or joined) has
/// consumed so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout the
    // 64-bit Linux ABI defines; the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Kernel counters of the whole process, exited threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCounters {
    /// Page faults served without I/O (first touch of fresh memory).
    pub minor_faults: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl KernelCounters {
    pub fn now() -> Self {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `rusage` of the 64-bit
        // Linux layout (144 bytes); the call writes only into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        Self {
            minor_faults: ru.minflt as u64,
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            minor_faults: self.minor_faults - earlier.minor_faults,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// What one timed region cost, and how fast the host was around it.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Mean wall seconds of the spin kernel run just before and just
    /// after the region.
    pub spin_s: f64,
}

/// Run `f` between two runs of the spin kernel and report what it cost.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let before = spin_kernel_s();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let spin_s = (before + spin_kernel_s()) / 2.0;
    (
        out,
        Cost {
            wall_s,
            cpu_s,
            spin_s,
        },
    )
}

/// Wall seconds of the region behind `costs` at the host's quiet speed
/// ([`quiet_s`] of their walls).
pub fn quiet_wall_s(costs: &[Cost]) -> f64 {
    let samples: Vec<(f64, f64)> = costs.iter().map(|c| (c.wall_s, c.spin_s)).collect();
    quiet_s(&samples, fastest_spin_s())
}

/// Bits of the fastest spin-kernel time this process has seen.
static FASTEST_SPIN: AtomicU64 = AtomicU64::new(f64::INFINITY.to_bits());

/// A fixed in-cache integer kernel, 2.9 ms at the host's quiet speed.
/// The work never changes, so its wall time is a speedometer of the
/// host: the sandbox slows everything by about 1.3 for most of a minute
/// at a time, kernel and pass alike (README "Why these estimators").
pub fn spin_kernel_s() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1_500_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    let s = t0.elapsed().as_secs_f64();
    // Positive floats order as their bits do.
    FASTEST_SPIN.fetch_min(s.to_bits(), Relaxed);
    s
}

/// The fastest spin-kernel time so far: even a loud minute leaves gaps
/// of 3 ms, so this reads the host's quiet speed to within 1 %.
pub fn fastest_spin_s() -> f64 {
    f64::from_bits(FASTEST_SPIN.load(Relaxed))
}

/// Wraps the system allocator and, while armed, counts every allocation.
/// Disarmed (every untraced run) it costs one relaxed load per call.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn count_alloc(size: usize) {
    if ARMED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
    }
}

fn count_dealloc(size: usize) {
    if ARMED.load(Relaxed) {
        // Blocks allocated before arming are freed against a counter
        // that never saw them: saturate instead of wrapping.
        let _ = LIVE_BYTES.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size as u64)));
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counters are
// plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_dealloc(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_dealloc(layout.size());
        count_alloc(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounters {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCounters {
    pub fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Relaxed),
            bytes: ALLOC_BYTES.load(Relaxed),
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Start or stop counting allocations (traced runs only, around the one
/// counted pass, so that no timing pays for the counters).
pub fn arm_alloc_counting(on: bool) {
    ARMED.store(on, Relaxed);
}

/// Highest number of bytes live at once since arming.
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_advances_with_work() {
        let (_, cost) = timed(spin_kernel_s);
        assert!(cost.wall_s > 0.0 && cost.cpu_s > 0.0 && cost.spin_s > 0.0);
        assert!(cost.cpu_s < cost.wall_s * 1.5 + 0.01);
        assert!(fastest_spin_s() <= cost.spin_s);
    }

    #[test]
    fn kernel_counters_and_rss_read() {
        let a = KernelCounters::now();
        let v = vec![1u8; 8 << 20];
        std::hint::black_box(&v);
        let d = KernelCounters::now().since(a);
        assert!(d.minor_faults > 0, "touching 8 MiB must fault");
        assert!(peak_rss_mib() > 1.0);
    }
}
