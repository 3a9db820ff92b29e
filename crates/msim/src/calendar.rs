//! The event-calendar executor (`ExecMode::Events`).
//!
//! Phantom-payload runs only need the *schedule* of a collective — the
//! modeled virtual times — not real data movement. This executor drops
//! the worker pool entirely: one driver thread resumes rank coroutines
//! in virtual-time order off a binary-heap calendar keyed on
//! `(virtual_time, rank, seq)`. Rank stacks are carved out of a single
//! lazily-committed arena (`mmap` with `MAP_NORESERVE` on Linux), so a
//! 262 144-rank universe reserves address space per rank but commits
//! only the few pages each shallow rank program actually touches. That
//! is what lifts the practical ceiling from ~4 096 ranks (one
//! eagerly-allocated stack each) to the node counts where the hybrid
//! MPI+MPI design differentiates from flat MPI.
//!
//! Determinism: virtual time is computed purely from modeled costs
//! along each rank's own program order (see [`simnet::Clock`]) and
//! never observes the executor, so the calendar ordering is a
//! *scheduling* choice — results, clocks, and canonical traces are
//! byte-identical to pooled and thread-per-rank execution. The
//! differential wall in `tests/calendar.rs` and
//! `crates/core/tests/events_conformance.rs` enforces exactly that.
//!
//! Calendar ordering contract: every schedulable rank sits in the heap
//! exactly once, keyed by `(vtime_bits, rank, seq)` where `vtime_bits`
//! is the rank's virtual clock as published at its last blocking entry
//! point (`f64::to_bits`, order-preserving for the non-negative clock),
//! `rank` breaks virtual-time ties deterministically, and `seq` is a
//! monotone insertion counter (ties on `(vtime, rank)` cannot occur —
//! a rank is never in the heap twice — but the full key keeps the
//! ordering total and pinned by the property tests below).
//!
//! Phantom-only: real payloads would make window reads observe
//! *scheduling* (a reader resumed before the writer sees different
//! bytes), and the race detector requires real payloads; both are
//! rejected up front with [`crate::SimError::UnsupportedExec`] by
//! `Universe` — silent divergence is not an option. FaultPlan kills,
//! delays and schedule fuzz all work: kills panic the victim coroutine
//! in its own context, and adversarial ready-queue picking is simply
//! superseded by the calendar's canonical order.

use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::ctx::Ctx;
use crate::exec::{self, CoroTask, Intent, LaunchPack, RankOutcome};
use crate::universe::Shared;

/// Scheduling status of one rank in the calendar.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EvStatus {
    /// In the heap, waiting to be resumed.
    Scheduled,
    /// Being resumed by the driver. `token` records a wake that arrived
    /// mid-run (a send to self-resumed rank, an expired-park re-ready)
    /// so a racing park re-schedules instead of sleeping through it.
    Running { token: bool },
    /// Parked until woken or `deadline` (wall clock).
    Parked { deadline: Instant },
    /// Finished (outcome recorded).
    Done,
}

#[derive(Debug)]
struct CalState {
    /// Min-heap on `(vtime_bits, rank, seq)`; holds exactly the
    /// `Scheduled` ranks, each once. Unused (left empty) in controlled
    /// mode, where the probe picks straight from the `Scheduled`
    /// statuses.
    heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
    status: Vec<EvStatus>,
    /// Monotone heap-insertion counter (the final tiebreak).
    seq: u64,
    /// Ranks not yet `Done`.
    live: usize,
    /// Model-checker mode: scheduling order comes from the probe, not
    /// the virtual-time heap.
    controlled: bool,
}

/// The shared calendar of one events-mode universe. Lives in
/// [`crate::universe::Shared`] (via [`crate::exec::ExecCtl::Events`]) so
/// mailbox pushes and rendezvous completions can wake parked ranks.
/// Single-threaded by construction — the mutex is uncontended and only
/// exists so the type is `Send + Sync` without unsafe impls.
#[derive(Debug)]
pub(crate) struct CalendarCore {
    state: Mutex<CalState>,
    /// Last published virtual clock per rank, as order-preserving bits.
    /// Outside the mutex: a rank publishes at every potentially-blocking
    /// call, most of which find their packet and never park. `Relaxed`
    /// suffices — ranks and driver share one thread, and the value only
    /// orders resumes (see [`crate::Ctx::publish_vtime`]).
    vtimes: Vec<AtomicU64>,
    /// Model-checker controller: when present, it makes every
    /// scheduling decision (the virtual-time heap is bypassed) so the
    /// calendar shares the pooled executor's decision-point model and
    /// replays the same certificates.
    controller: Option<Arc<crate::mcheck::Probe>>,
    /// Infrastructure failures observed by the driver (rank, message).
    infra: Mutex<Vec<(usize, String)>>,
}

impl CalendarCore {
    pub(crate) fn new(nranks: usize, controller: Option<Arc<crate::mcheck::Probe>>) -> Self {
        let controlled = controller.is_some();
        let mut state = CalState {
            heap: BinaryHeap::with_capacity(nranks),
            status: vec![EvStatus::Scheduled; nranks],
            seq: 0,
            live: nranks,
            controlled,
        };
        // Seed the calendar: every rank starts at virtual time zero, in
        // rank order (controlled mode reads the statuses instead).
        if !controlled {
            for rank in 0..nranks {
                state.heap.push(Reverse((0, rank, state.seq)));
                state.seq += 1;
            }
        }
        Self {
            state: Mutex::new(state),
            vtimes: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            controller,
            infra: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CalState> {
        // Mirrors PoolCore: a panic while holding the lock never leaves
        // the state torn (all mutations are single assignments).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish `rank`'s virtual clock, the heap key of its next
    /// scheduling. Called by the blocking entry points *before* the
    /// corresponding park, so the value is current whenever it is read.
    pub(crate) fn publish_vtime(&self, rank: usize, t: f64) {
        debug_assert!(t >= 0.0, "virtual time is non-negative");
        // `to_bits` is order-preserving on non-negative floats, giving
        // the heap a total integer ordering with no NaN edge cases.
        self.vtimes[rank].store(t.to_bits(), Ordering::Relaxed);
    }

    /// Make `rank` schedulable: into the heap under its current
    /// published clock, or (controlled mode) just status-marked.
    fn schedule(&self, g: &mut CalState, rank: usize) {
        g.status[rank] = EvStatus::Scheduled;
        if !g.controlled {
            let vtime_bits = self.vtimes[rank].load(Ordering::Relaxed);
            g.heap.push(Reverse((vtime_bits, rank, g.seq)));
            g.seq += 1;
        }
    }

    /// Make `rank` schedulable if it is parked; remember the signal if
    /// it is currently being resumed (so a racing park re-schedules
    /// instead of sleeping through it).
    pub(crate) fn wake(&self, rank: usize) {
        let mut g = self.lock();
        match g.status[rank] {
            EvStatus::Parked { .. } => self.schedule(&mut g, rank),
            EvStatus::Running { ref mut token } => *token = true,
            EvStatus::Scheduled | EvStatus::Done => {}
        }
    }

    /// Commit the yield of the rank just resumed (`None` on the first
    /// call), then claim the next rank in calendar order — one lock
    /// acquisition per resume — or return `None` when every rank is done.
    /// Sleeps while all live ranks are parked with future deadlines (a
    /// timeout-only wait: nothing else can wake them — the driver is the
    /// only thread that runs rank programs).
    fn advance(&self, yielded: Option<(usize, Intent)>) -> Option<usize> {
        let mut g = self.lock();
        if let Some((rank, intent)) = yielded {
            self.commit(&mut g, rank, intent);
        }
        loop {
            if g.live == 0 {
                return None;
            }
            let next = match &self.controller {
                Some(probe) => {
                    let ready: Vec<usize> = (0..g.status.len())
                        .filter(|&r| g.status[r] == EvStatus::Scheduled)
                        .collect();
                    (!ready.is_empty()).then(|| probe.pick(&ready))
                }
                None => g.heap.pop().map(|Reverse((_, rank, _))| rank),
            };
            if let Some(rank) = next {
                debug_assert_eq!(g.status[rank], EvStatus::Scheduled);
                g.status[rank] = EvStatus::Running { token: false };
                return Some(rank);
            }
            // Calendar empty: every live rank is parked (nothing can be
            // Running here — this is the only driver). Re-schedule the
            // expired parks (their owners recheck their wait condition
            // and report timeouts themselves), else sleep until the
            // nearest deadline.
            let now = Instant::now();
            let mut nearest: Option<Instant> = None;
            let mut expired = false;
            for r in 0..g.status.len() {
                if let EvStatus::Parked { deadline } = g.status[r] {
                    if deadline <= now {
                        self.schedule(&mut g, r);
                        expired = true;
                    } else {
                        nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
                    }
                }
            }
            if expired {
                continue;
            }
            let nearest = nearest.expect(
                "event calendar stalled: live ranks but nothing scheduled or parked (lost wake)",
            );
            let wait = nearest
                .saturating_duration_since(now)
                .min(Duration::from_secs(1));
            drop(g);
            std::thread::sleep(wait);
            g = self.lock();
        }
    }

    /// Commit a coroutine's yield now that its context is fully saved.
    fn commit(&self, g: &mut CalState, rank: usize, intent: Intent) {
        match intent {
            Intent::Done => {
                g.status[rank] = EvStatus::Done;
                g.live -= 1;
            }
            Intent::Park { deadline } => {
                let token = matches!(g.status[rank], EvStatus::Running { token: true });
                if token {
                    self.schedule(g, rank);
                } else {
                    g.status[rank] = EvStatus::Parked { deadline };
                }
            }
            Intent::None => unreachable!("coroutine yielded without an intent"),
        }
    }

    fn record_infra_failure(&self, rank: usize, message: String) {
        self.infra
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((rank, message));
        // The run is over; let `pop_next` return None.
        self.lock().live = 0;
    }
}

// ---------------------------------------------------------------------------
// The stack arena.
// ---------------------------------------------------------------------------

/// One reservation holding every rank's coroutine stack. On Linux this
/// is an anonymous `MAP_NORESERVE` mapping: 262 144 ranks × 64 KiB is
/// 16 GiB of *address space*, but only the pages a rank program
/// actually touches (typically 2–4) are ever committed. Elsewhere it
/// falls back to one zeroed heap allocation, which on every mainstream
/// allocator is also lazily committed at these sizes.
struct StackArena {
    base: *mut u8,
    len: usize,
    stack_size: usize,
    mmapped: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw syscall bindings (the workspace links no external crates;
    //! `std` already links libc, so declaring the symbols suffices).
    use core::ffi::c_void;

    unsafe extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

impl StackArena {
    fn layout(len: usize) -> Layout {
        // 16-byte alignment satisfies both ABIs; `prepare_stack`
        // re-aligns the top of each slot anyway.
        Layout::from_size_align(len, 16).expect("arena size overflows a Layout")
    }

    fn new(nranks: usize, stack_size: usize) -> Self {
        let len = nranks
            .checked_mul(stack_size)
            .expect("stack arena size overflows usize");
        if len == 0 {
            return Self {
                base: std::ptr::null_mut(),
                len: 0,
                stack_size,
                mmapped: false,
            };
        }
        #[cfg(target_os = "linux")]
        {
            // SAFETY: an anonymous private mapping with a null hint has
            // no preconditions; the result is checked against
            // MAP_FAILED before use.
            let p = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            if p != sys::MAP_FAILED {
                return Self {
                    base: p.cast(),
                    len,
                    stack_size,
                    mmapped: true,
                };
            }
        }
        // SAFETY: `len` is non-zero and the layout is valid (checked by
        // `Self::layout`).
        let base = unsafe { std::alloc::alloc_zeroed(Self::layout(len)) };
        if base.is_null() {
            std::alloc::handle_alloc_error(Self::layout(len));
        }
        Self {
            base,
            len,
            stack_size,
            mmapped: false,
        }
    }

    /// The stack slot of `rank`.
    ///
    /// # Safety
    /// The caller must not hold another live borrow of the same slot;
    /// the driver only borrows a slot once, inside the rank's first
    /// activation, before any switch into it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn stack(&self, rank: usize) -> &mut [u8] {
        debug_assert!((rank + 1) * self.stack_size <= self.len);
        // SAFETY: the slot is in-bounds of the arena allocation and,
        // per the contract above, not aliased by another borrow.
        unsafe {
            std::slice::from_raw_parts_mut(self.base.add(rank * self.stack_size), self.stack_size)
        }
    }
}

impl Drop for StackArena {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        if self.mmapped {
            #[cfg(target_os = "linux")]
            // SAFETY: `base`/`len` came from the successful mmap in
            // `new`, and no stack in the arena is live at drop time
            // (the driver joined every coroutine first).
            unsafe {
                sys::munmap(self.base.cast(), self.len);
            }
        } else {
            // SAFETY: allocated in `new` with the identical layout.
            unsafe {
                std::alloc::dealloc(self.base, Self::layout(self.len));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The single-threaded run driver.
// ---------------------------------------------------------------------------

/// One rank's executor cell: switch cell + launch pack + outcome. The
/// stack lives in the arena, not here. `UnsafeCell` because the
/// coroutine mutates these through raw pointers while the driver holds
/// a shared borrow of the table; accesses strictly alternate with the
/// context switches on the single driver thread.
struct EvCell<'f, T, F> {
    task: UnsafeCell<CoroTask>,
    pack: UnsafeCell<LaunchPack<'f, T, F>>,
    out: UnsafeCell<Option<RankOutcome<T>>>,
}

/// Run `f` once per rank on the calling thread, in calendar order.
/// Returns per-rank outcomes (`None` for ranks orphaned by an
/// infrastructure failure) plus the recorded infrastructure failures.
#[allow(clippy::type_complexity)]
pub(crate) fn run_events<T, F>(
    shared: &Arc<Shared>,
    core: &Arc<CalendarCore>,
    stack_size: usize,
    f: &F,
) -> (Vec<Option<RankOutcome<T>>>, Vec<(usize, String)>)
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let nranks = shared.map.nranks();
    // Same floor as the pool: the entry frame + canary must fit.
    let stack_size = stack_size.max(16 * 1024);
    let arena = StackArena::new(nranks, stack_size);
    let cells: Vec<EvCell<'_, T, F>> = (0..nranks)
        .map(|rank| EvCell {
            task: UnsafeCell::new(CoroTask {
                sp: 0,
                worker_sp: 0,
                intent: Intent::None,
                stack_base: std::ptr::null_mut(),
            }),
            pack: UnsafeCell::new(LaunchPack {
                rank,
                shared: Arc::clone(shared),
                f,
                out: std::ptr::null_mut(),
                task: std::ptr::null_mut(),
            }),
            out: UnsafeCell::new(None),
        })
        .collect();

    let mut current_rank = usize::MAX;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut yielded = None;
        while let Some(rank) = core.advance(yielded) {
            current_rank = rank;
            yielded = Some((rank, resume_event(&cells, &arena, rank)));
        }
    }));
    if let Err(payload) = caught {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string driver panic>".into()
        };
        core.record_infra_failure(current_rank, message);
    }

    let outcomes = cells
        .into_iter()
        .map(|cell| cell.out.into_inner())
        .collect();
    let infra = core
        .infra
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    (outcomes, infra)
}

/// Resume `rank` until its next yield; returns what it yielded for.
fn resume_event<T, F>(cells: &[EvCell<'_, T, F>], arena: &StackArena, rank: usize) -> Intent
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let cell = &cells[rank];
    let task = cell.task.get();
    // SAFETY: the calendar handed the driver exclusive ownership of
    // `rank` (status `Running`); there is no other thread, and the cell
    // is only touched between switches, never while the coroutine runs.
    unsafe {
        if (*task).sp == 0 {
            // First activation: carve the stack slot (pages commit on
            // touch) and set up the entry frame.
            let stack = arena.stack(rank);
            let pack = cell.pack.get();
            (*pack).out = cell.out.get();
            (*pack).task = task;
            (*task).stack_base = stack.as_mut_ptr();
            (*task).sp = exec::prepare_stack(
                stack,
                exec::coro_entry::<T, F> as *const () as usize,
                pack as usize,
            );
        }
        (*task).intent = Intent::None;
        let prev = exec::CURRENT_TASK.with(|c| c.replace(task));
        exec::msim_switch_stacks(&mut (*task).worker_sp, &(*task).sp);
        exec::CURRENT_TASK.with(|c| c.set(prev));
        let canary_ok = ((*task).stack_base as *const u64).read() == exec::STACK_CANARY
            && (((*task).stack_base as *const u64).add(1)).read() == exec::STACK_CANARY;
        assert!(
            canary_ok,
            "rank {rank} overflowed its {}-byte coroutine stack \
             (raise SimConfig::stack_size)",
            arena.stack_size
        );
        (*task).intent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::mix;

    /// Pop every entry of a seeded-shuffle insertion and return the key
    /// sequence. Exercises the raw heap ordering with full control of
    /// the keys (including `(vtime, rank)` collisions, which the
    /// executor itself can never produce).
    fn drain_after_shuffled_insert(
        keys: &[(u64, usize, u64)],
        seed: u64,
    ) -> Vec<(u64, usize, u64)> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        // Fisher–Yates off the deterministic mix stream.
        for i in (1..order.len()).rev() {
            let j = (mix(seed, i as u64, keys.len() as u64, 0xCA1E) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut heap = BinaryHeap::new();
        for &i in &order {
            heap.push(Reverse(keys[i]));
        }
        let mut out = Vec::with_capacity(keys.len());
        while let Some(Reverse(k)) = heap.pop() {
            out.push(k);
        }
        out
    }

    /// The calendar key is a total lexicographic order: virtual time
    /// first, then rank, then insertion seq — whatever order entries
    /// were inserted in.
    #[test]
    fn heap_respects_vtime_rank_seq_tiebreak_under_random_insertion() {
        let keys: Vec<(u64, usize, u64)> = vec![
            // Distinct vtimes.
            (3.5f64.to_bits(), 0, 10),
            (1.0f64.to_bits(), 7, 11),
            (2.25f64.to_bits(), 3, 12),
            // vtime tie broken by rank.
            (1.0f64.to_bits(), 2, 13),
            (1.0f64.to_bits(), 5, 14),
            // (vtime, rank) tie broken by seq.
            (2.25f64.to_bits(), 3, 2),
            (2.25f64.to_bits(), 3, 7),
            (0.0f64.to_bits(), 9, 1),
        ];
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        for seed in 0..16 {
            assert_eq!(
                drain_after_shuffled_insert(&keys, seed),
                sorted,
                "insertion order (seed {seed}) leaked into the pop order"
            );
        }
    }

    /// `f64::to_bits` must preserve the ordering of virtual clocks
    /// (non-negative by construction) — the property the integer heap
    /// key rests on.
    #[test]
    fn vtime_bits_preserve_float_order() {
        let ts = [0.0, 1e-12, 0.5, 1.0, 1.0 + f64::EPSILON, 3.7e9];
        for w in ts.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
    }

    /// Same-seed re-runs of the full calendar protocol (publish, wake
    /// in seeded-random order, drain) produce byte-identical pop
    /// sequences — determinism pinned at the data-structure level.
    #[test]
    fn same_seed_reruns_pop_identically() {
        let n = 24;
        let run = |seed: u64| -> Vec<usize> {
            let core = CalendarCore::new(n, None);
            // Drain the initial seeding and park everyone far out.
            let far = Instant::now() + Duration::from_secs(3600);
            let mut first = Vec::new();
            for _ in 0..n {
                let r = core.advance(None).unwrap();
                first.push(r);
                core.publish_vtime(r, mix(seed, r as u64, n as u64, 0xF00D) as f64);
                core.commit(&mut core.lock(), r, Intent::Park { deadline: far });
            }
            // Wake in a seeded-random order; pops must come back in
            // calendar order regardless.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = (mix(seed, i as u64, n as u64, 0xBEEF) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for &r in &order {
                core.wake(r);
            }
            let mut seq = first;
            for _ in 0..n {
                let r = core.advance(None).unwrap();
                seq.push(r);
                core.commit(&mut core.lock(), r, Intent::Done);
            }
            assert!(core.advance(None).is_none());
            seq
        };
        for seed in [1u64, 2, 42] {
            let a = run(seed);
            let b = run(seed);
            assert_eq!(a, b, "seed {seed} re-run diverged");
            // And the woken half is sorted by the published vtimes,
            // not by the wake order.
            let woken = &a[n..];
            let vt = |r: usize| mix(seed, r as u64, n as u64, 0xF00D) as f64;
            for w in woken.windows(2) {
                assert!(
                    (vt(w[0]), w[0]) <= (vt(w[1]), w[1]),
                    "seed {seed}: ranks {} and {} popped out of calendar order",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// A wake that lands while the rank is being resumed is tokenized:
    /// the following park re-schedules immediately instead of sleeping
    /// through its signal.
    #[test]
    fn wake_during_running_is_not_lost() {
        let core = CalendarCore::new(1, None);
        let r = core.advance(None).unwrap();
        assert_eq!(r, 0);
        core.wake(0); // arrives "mid-run"
        core.commit(
            &mut core.lock(),
            0,
            Intent::Park {
                deadline: Instant::now() + Duration::from_secs(3600),
            },
        );
        // Must be immediately schedulable, not parked for an hour.
        assert_eq!(core.advance(None), Some(0));
        core.commit(&mut core.lock(), 0, Intent::Done);
        assert_eq!(core.advance(None), None);
    }

    /// An expired park deadline re-schedules the rank so timeout-based
    /// waits (and the deadlock detector built on them) still fire.
    #[test]
    fn expired_parks_are_rescheduled() {
        let core = CalendarCore::new(1, None);
        let r = core.advance(None).unwrap();
        core.commit(
            &mut core.lock(),
            r,
            Intent::Park {
                deadline: Instant::now() + Duration::from_millis(5),
            },
        );
        let t0 = Instant::now();
        assert_eq!(core.advance(None), Some(0));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "expired park should be re-scheduled promptly"
        );
        core.commit(&mut core.lock(), 0, Intent::Done);
    }
}
