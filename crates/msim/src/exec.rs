//! The coroutine rank executor: one scheduler core at every width.
//!
//! [`crate::Universe::run`] historically spawned one OS thread per
//! simulated rank, which caps a run at a few thousand ranks before the
//! host thrashes. This module multiplexes every rank program onto a
//! bounded worker pool (default `min(ranks, available_parallelism)`):
//! each rank runs as a *stackful coroutine* on its slot of one stack
//! arena ([`StackArena`], kept by the launching thread between
//! universes), and whenever it would block — a `recv`/`wait_flag` with
//! no matching packet, or a setup-collective rendezvous that is not yet
//! complete — it parks the coroutine and returns its worker to the pool
//! instead of blocking an OS thread. The matching
//! `send`/`post_flag`/rendezvous completion wakes the parked rank, which
//! re-enters the ready queue.
//!
//! A pool of one worker spawns no thread at all: the launching thread
//! runs the worker loop itself. [`ExecMode::Events`] is exactly that pool
//! — width 1, FIFO picks — restricted by `Universe` to phantom payloads,
//! which is what the 65 536- and 262 144-rank scale points run on: the
//! arena reserves address space per rank but commits only the few pages
//! each shallow rank program touches.
//!
//! Determinism: virtual time in this simulator is computed purely from
//! modeled costs along each rank's own program order (see
//! [`simnet::Clock`]); it never observes wall-clock scheduling. Pooling
//! therefore changes *when* (in wall-clock time) a rank executes, but
//! never *what* it computes: results, clocks, and canonical traces are
//! byte-identical to thread-per-rank execution. This is enforced by the
//! differential tests in `tests/pooled.rs` and by the figure goldens in
//! `crates/bench/tests/regression.rs`.
//!
//! Scheduling order: under [`crate::SchedulePolicy::Fifo`] a one-worker
//! pool pops the node-affine FIFO of [`crate::ready::ReadyQueue`] (one
//! node's ready ranks are drained before the next node's turn, so
//! consecutive resumes stay on warm memory) and a wider pool pops one
//! flat FIFO (see [`ReadySet`]); under
//! [`crate::SchedulePolicy::Adversarial`] the next rank is drawn from
//! the ready set by a seeded hash, so schedule fuzzing perturbs the
//! pooled execution order exactly as it perturbs thread wake-ups in
//! thread-per-rank mode. Under [`crate::SchedulePolicy::Replay`] (and
//! during `msim::mcheck` exploration) every pick is delegated to the
//! model checker's probe — see [`PickPolicy::Controlled`] and
//! `docs/model-checking.md`.
//!
//! The context switch itself is ~20 instructions of architecture
//! specific assembly (x86_64 SysV and aarch64 AAPCS64): save the callee
//! saved registers on the current stack, swap stack pointers, restore.
//! Rank panics (including injected [`crate::fault::KillRule`] kills and
//! deadlock reports) are caught by a `catch_unwind` at the base of every
//! coroutine, so unwinding never crosses the assembly boundary.

use std::alloc::Layout;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use simnet::rng::mix;
use simnet::RankMap;

use crate::ctx::Ctx;
use crate::ready::ReadyQueue;
use crate::universe::{Shared, SimStats};

/// How [`crate::Universe::run`] executes rank programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One OS thread per rank (the historical model). Kept for
    /// differential testing of the pooled executor; caps out at a few
    /// thousand ranks.
    ThreadPerRank,
    /// Multiplex ranks onto a bounded worker pool of stackful
    /// coroutines. `workers: None` means
    /// `min(ranks, available_parallelism)`.
    Pooled {
        /// Worker thread count override.
        workers: Option<usize>,
    },
    /// The one-worker pool, driven by the thread that launched the
    /// universe (no thread is spawned), always popping the node-affine
    /// FIFO (a node's ready ranks are drained before the next node's
    /// turn — a host-side choice that results, clocks and traces never
    /// observe; an adversarial schedule seed is inert here). It differs
    /// from `Pooled { workers: Some(1) }` only in what `Universe` lets it
    /// run: phantom payloads only (real payloads and the race detector
    /// are rejected with [`crate::SimError::UnsupportedExec`]), which is
    /// what the scale sweeps to hundreds of thousands of ranks use.
    Events,
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Pooled { workers: None }
    }
}

impl ExecMode {
    /// The pooled mode with the default worker count.
    pub fn pooled() -> Self {
        ExecMode::Pooled { workers: None }
    }

    /// Resolve the worker count for `nranks` ranks.
    pub(crate) fn worker_count(&self, nranks: usize) -> usize {
        match self {
            ExecMode::ThreadPerRank => nranks,
            ExecMode::Pooled { workers } => {
                let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                workers.unwrap_or(hw).clamp(1, nranks.max(1))
            }
            ExecMode::Events => 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Context switching.
// ---------------------------------------------------------------------------

/// Whether the current target has a coroutine context switch. On other
/// targets the universe silently falls back to thread-per-rank.
pub(crate) const POOL_SUPPORTED: bool = cfg!(all(
    unix,
    any(target_arch = "x86_64", target_arch = "aarch64")
));

#[cfg(all(unix, target_arch = "x86_64"))]
std::arch::global_asm!(
    r#"
    .text
    .globl msim_switch_stacks
    .p2align 4
msim_switch_stacks:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    mov [rdi], rsp
    mov rsp, [rsi]
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret

    // First-entry shim: the initial saved frame puts the coroutine
    // argument in r12 and the (monomorphized) entry function in rbx.
    .globl msim_coro_thunk
    .p2align 4
msim_coro_thunk:
    mov rdi, r12
    call rbx
    ud2
"#
);

#[cfg(all(unix, target_arch = "aarch64"))]
std::arch::global_asm!(
    r#"
    .text
    .globl msim_switch_stacks
    .p2align 4
msim_switch_stacks:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8,  d9,  [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    ldr x9, [x1]
    mov sp, x9
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8,  d9,  [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    ret

    // First-entry shim: argument in x19, entry function in x20.
    .globl msim_coro_thunk
    .p2align 4
msim_coro_thunk:
    mov x0, x19
    blr x20
    brk #1
"#
);

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe extern "C" {
    /// Save the callee-saved register context on the current stack,
    /// store the stack pointer into `*save`, then load `*load` as the
    /// new stack pointer and restore its context.
    ///
    /// # Safety
    /// `*load` must be a stack pointer previously produced by this
    /// function or by [`prepare_stack`], on memory that is still alive.
    fn msim_switch_stacks(save: *mut usize, load: *const usize);
    /// Label only; never called directly from Rust.
    fn msim_coro_thunk();
}

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn msim_switch_stacks(_save: *mut usize, _load: *const usize) {
    unreachable!("pooled execution is not supported on this target");
}

/// Canary written at the low end of every coroutine stack; checked on
/// every return to the worker to detect stack overflows (coroutine
/// stacks have no guard page).
const STACK_CANARY: u64 = 0x5ca1_ab1e_dead_beef;

/// Lay out a fresh coroutine stack so that the first
/// `msim_switch_stacks` into it lands in `msim_coro_thunk`, which calls
/// `entry(arg)`. Returns the initial saved stack pointer.
///
/// # Safety
/// `stack` must outlive every switch into the returned context.
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe fn prepare_stack(stack: &mut [u8], entry: usize, arg: usize) -> usize {
    let base = stack.as_mut_ptr() as usize;
    // SAFETY: `stack` is a live allocation of at least 16 KiB (clamped in
    // `CellTable::new`), so the two canary words at its low end are in-bounds
    // writes to memory this function exclusively borrows.
    unsafe {
        (base as *mut u64).write(STACK_CANARY);
        ((base + 8) as *mut u64).write(STACK_CANARY);
    }
    // 16-align the top; both ABIs want 16-byte stack alignment.
    let top = (base + stack.len()) & !15;
    // SAFETY: the frame is 7 words (x86_64) / 160 bytes (aarch64) below
    // `top`, which the 16 KiB minimum stack size keeps well above `base`;
    // every write lands inside the borrowed stack slice. The layouts
    // mirror what `msim_switch_stacks` pops on its first switch in.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // Layout (ascending from the saved sp): r15 r14 r13 r12 rbx rbp
        // [return address]. The thunk expects arg in r12, entry in rbx.
        let mut sp = top as *mut usize;
        sp = sp.sub(1);
        sp.write(msim_coro_thunk as *const () as usize);
        sp = sp.sub(1);
        sp.write(0); // rbp
        sp = sp.sub(1);
        sp.write(entry); // rbx
        sp = sp.sub(1);
        sp.write(arg); // r12
        sp = sp.sub(3); // r13, r14, r15
        sp.write(0);
        sp.add(1).write(0);
        sp.add(2).write(0);
        sp as usize
    }
    // SAFETY: see the x86_64 arm above — same in-bounds argument.
    #[cfg(target_arch = "aarch64")]
    unsafe {
        // 160-byte register save area; x19 = arg, x20 = entry,
        // x30 (lr) = thunk. sp after restore = `top`, 16-aligned.
        let area = (top - 160) as *mut usize;
        for i in 0..20 {
            area.add(i).write(0);
        }
        area.write(arg); // x19
        area.add(1).write(entry); // x20
        area.add(11).write(msim_coro_thunk as *const () as usize); // x30
        area as usize
    }
}

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn prepare_stack(_stack: &mut [u8], _entry: usize, _arg: usize) -> usize {
    unreachable!("pooled execution is not supported on this target");
}

// ---------------------------------------------------------------------------
// Pool core: rank states, ready queue, parking protocol.
// ---------------------------------------------------------------------------

/// What a coroutine asked for when it last switched back to its worker.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Intent {
    /// Nothing yet (freshly created / mid-run).
    None,
    /// Park until woken or until `deadline` (wall clock); the rank
    /// rechecks its own wait condition on resume, so spurious wake-ups
    /// are harmless.
    Park { deadline: Instant },
    /// The rank program returned (or panicked; the outcome slot has it).
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RankState {
    /// In the ready queue.
    Ready,
    /// On a worker. `token` records a wake that arrived mid-run so a
    /// racing park is re-readied instead of sleeping through its signal.
    Running { token: bool },
    /// Parked until woken or `deadline`.
    Parked { deadline: Instant },
    /// Finished (outcome recorded).
    Done,
}

/// How the ready queue picks the next rank to run. This is *the*
/// decision point of the pooled executor: everything else about a run is
/// a deterministic function of the pick sequence.
#[derive(Debug, Clone)]
pub(crate) enum PickPolicy {
    /// First-in, first-out (natural order).
    Fifo,
    /// Seeded pseudo-random picking (adversarial schedule fuzzing).
    Seeded(u64),
    /// Every pick is delegated to the model checker's probe, which also
    /// records the ready-set snapshot for DPOR analysis.
    Controlled(Arc<crate::mcheck::Probe>),
}

/// The pool's ready set: what [`PickPolicy`] picks from.
#[derive(Debug)]
enum ReadySet {
    /// [`PickPolicy::Fifo`] with a single worker: the node-affine FIFO.
    NodeAffine(ReadyQueue),
    /// One flat queue. Plain FIFO for wider pools: several workers
    /// draining one node contend for that node's mailboxes and flags, and
    /// with two workers the node-affine order measured no faster and made
    /// wall-clock failure detection stall-sensitive (docs/simulator.md,
    /// *Resume order*). Drawn from by a seeded hash of the pick counter
    /// under [`PickPolicy::Seeded`] (an index into the queue, so its
    /// order is part of every fuzz seed's schedule), and by the probe
    /// under [`PickPolicy::Controlled`], which sorts what it is shown and
    /// decides by rank — there the queue's order means nothing.
    Flat {
        ready: VecDeque<usize>,
        pick: PickPolicy,
        /// Picks so far (seeded policy input).
        picks: u64,
    },
}

impl ReadySet {
    /// Every rank ready, in rank order, to be popped by `workers` threads.
    fn full(map: &RankMap, pick: PickPolicy, workers: usize) -> Self {
        match pick {
            PickPolicy::Fifo if workers == 1 => ReadySet::NodeAffine(ReadyQueue::full(map)),
            pick => ReadySet::Flat {
                ready: (0..map.nranks()).collect(),
                pick,
                picks: 0,
            },
        }
    }

    fn push(&mut self, rank: usize) {
        match self {
            ReadySet::NodeAffine(queue) => queue.push(rank),
            ReadySet::Flat { ready, .. } => ready.push_back(rank),
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let (ready, pick, picks) = match self {
            ReadySet::NodeAffine(queue) => return queue.pop(),
            ReadySet::Flat { ready, pick, picks } => (ready, pick, picks),
        };
        if ready.is_empty() {
            return None;
        }
        let at = match pick {
            PickPolicy::Fifo => 0,
            PickPolicy::Seeded(seed) => {
                let n = ready.len() as u64;
                let at = (mix(*seed, *picks, n, 0x9D1C) % n) as usize;
                *picks += 1;
                at
            }
            PickPolicy::Controlled(probe) => {
                let rank = probe.pick(ready.iter().copied());
                ready
                    .iter()
                    .position(|&r| r == rank)
                    .expect("controlled pick chose a rank outside the ready set")
            }
        };
        ready.remove(at)
    }
}

#[derive(Debug)]
struct CoreState {
    ranks: Vec<RankState>,
    ready: ReadySet,
    /// Ranks not yet `Done`.
    live: usize,
    /// See [`SimStats::resumes`].
    resumes: u64,
    /// See [`SimStats::wakes`].
    wakes: u64,
    /// Workers currently sleeping on the scheduler condvar. Notifies are
    /// skipped when zero: futex condvars pay a syscall per notify even
    /// with no waiters, and with few workers the common case is none.
    idle_workers: usize,
}

impl CoreState {
    fn make_ready(&mut self, rank: usize) {
        self.ranks[rank] = RankState::Ready;
        self.ready.push(rank);
    }
}

/// The shared scheduler state of one coroutine-executed universe. Lives
/// in [`crate::universe::Shared`] (via [`ExecCtl`]) so that mailbox pushes
/// and rendezvous completions can wake parked ranks. With one worker the
/// mutex is uncontended and the condvar never waited on by anyone else;
/// they exist so every width runs the same code.
#[derive(Debug)]
pub(crate) struct PoolCore {
    state: Mutex<CoreState>,
    cv: Condvar,
    /// Infrastructure failures observed by workers (rank, message).
    infra: Mutex<Vec<(usize, String)>>,
}

impl PoolCore {
    /// A core whose ready set `workers` threads will pop.
    pub(crate) fn new(map: &RankMap, pick: PickPolicy, workers: usize) -> Self {
        let nranks = map.nranks();
        Self {
            state: Mutex::new(CoreState {
                ranks: vec![RankState::Ready; nranks],
                ready: ReadySet::full(map, pick, workers),
                live: nranks,
                resumes: 0,
                wakes: 0,
                idle_workers: 0,
            }),
            cv: Condvar::new(),
            infra: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CoreState> {
        // A worker that dies while holding the scheduler lock never
        // leaves the state torn (all mutations are single assignments),
        // so peers may keep scheduling and surface the failure.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The run's executor counters (the arena fields are the caller's).
    fn stats(&self) -> SimStats {
        let g = self.lock();
        SimStats {
            resumes: g.resumes,
            wakes: g.wakes,
            node_turns: match &g.ready {
                ReadySet::NodeAffine(queue) => queue.node_turns(),
                ReadySet::Flat { .. } => 0,
            },
            ..SimStats::default()
        }
    }

    /// Make `rank` runnable if it is parked; remember the signal if it
    /// is currently running (so a racing park re-readies immediately).
    pub(crate) fn wake(&self, rank: usize) {
        let mut g = self.lock();
        g.wakes += 1;
        match g.ranks[rank] {
            RankState::Parked { .. } => {
                g.make_ready(rank);
                if g.idle_workers > 0 {
                    self.cv.notify_one();
                }
            }
            RankState::Running { ref mut token } => *token = true,
            RankState::Ready | RankState::Done => {}
        }
    }

    /// Commit the yield of the rank this worker just resumed (`None` on
    /// its first call), then claim the next rank to run — one lock
    /// acquisition per resume — or return `None` when every rank is done.
    /// Blocks (on the scheduler condvar, not on a rank!) while all live
    /// ranks are parked or running on other workers.
    ///
    /// # Panics
    /// Panics when live ranks remain but none is ready, parked or
    /// running: a wake was lost, and sleeping would hang the run. The
    /// worker loop reports it as an infrastructure failure.
    fn advance(&self, yielded: Option<(usize, Intent)>) -> Option<usize> {
        let mut g = self.lock();
        if let Some((rank, intent)) = yielded {
            self.commit(&mut g, rank, intent);
        }
        loop {
            if g.live == 0 {
                if g.idle_workers > 0 {
                    self.cv.notify_all();
                }
                return None;
            }
            if let Some(r) = g.ready.pop() {
                g.ranks[r] = RankState::Running { token: false };
                g.resumes += 1;
                return Some(r);
            }
            // Nothing ready: wake expired parks (their owners recheck
            // their wait condition and report the timeout themselves),
            // else sleep until the nearest deadline or a notification.
            let now = Instant::now();
            let mut nearest: Option<Instant> = None;
            let mut expired = false;
            let mut running = false;
            for r in 0..g.ranks.len() {
                match g.ranks[r] {
                    RankState::Parked { deadline } if deadline <= now => {
                        g.make_ready(r);
                        expired = true;
                    }
                    RankState::Parked { deadline } => {
                        nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
                    }
                    RankState::Running { .. } => running = true,
                    RankState::Ready | RankState::Done => {}
                }
            }
            if expired {
                continue;
            }
            assert!(
                nearest.is_some() || running,
                "scheduler stalled: live ranks but nothing ready, parked or running (lost wake)"
            );
            let wait = nearest
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(100))
                .min(Duration::from_secs(1));
            g.idle_workers += 1;
            let (guard, _) = self
                .cv
                .wait_timeout(g, wait)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            g.idle_workers -= 1;
        }
    }

    /// Commit a coroutine's yield now that its context is fully saved.
    fn commit(&self, g: &mut CoreState, rank: usize, intent: Intent) {
        match intent {
            Intent::Done => {
                g.ranks[rank] = RankState::Done;
                g.live -= 1;
                if g.idle_workers > 0 {
                    self.cv.notify_all();
                }
            }
            Intent::Park { deadline } => {
                let token = matches!(g.ranks[rank], RankState::Running { token: true });
                if token {
                    g.make_ready(rank);
                } else {
                    g.ranks[rank] = RankState::Parked { deadline };
                }
                // Either way sleeping workers may need to re-derive
                // their deadline horizon.
                if g.idle_workers > 0 {
                    self.cv.notify_one();
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
        // Unblock everyone; the run is over.
        let mut g = self.lock();
        g.live = 0;
        self.cv.notify_all();
    }
}

/// Handle through which the blocking wait-paths (mailbox, rendezvous)
/// reach the executor. `Threads` preserves the historical
/// condvar-per-structure blocking; `Pool` parks coroutines instead.
#[derive(Clone)]
pub(crate) enum ExecCtl {
    /// Thread-per-rank: block the OS thread on the structure's condvar.
    Threads,
    /// Coroutines at any pool width: park the caller; wakes come through
    /// the core.
    Pool(Arc<PoolCore>),
}

impl std::fmt::Debug for ExecCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecCtl::Threads => f.write_str("ExecCtl::Threads"),
            ExecCtl::Pool(_) => f.write_str("ExecCtl::Pool"),
        }
    }
}

impl ExecCtl {
    /// True when rank programs run as coroutines that park through the
    /// executor instead of blocking an OS thread on a structure condvar.
    pub(crate) fn parks_ranks(&self) -> bool {
        matches!(self, ExecCtl::Pool(_))
    }

    /// Wake `rank` if it is parked, or tokenize the wake if it is
    /// running (no-op in threads mode — there the structure's own condvar
    /// does the waking). Callers wake only a rank waiting on what they
    /// just published: a mailbox push only the owner blocked on the
    /// pushed key, a rendezvous completion only its parked members.
    pub(crate) fn wake(&self, rank: usize) {
        match self {
            ExecCtl::Threads => {}
            ExecCtl::Pool(core) => core.wake(rank),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-worker current-coroutine pointer, used by the park path.
// ---------------------------------------------------------------------------

/// The switch cell of one coroutine: both stack pointers plus the yield
/// intent, shared between the worker (outside) and the coroutine
/// (inside). Exclusive access alternates strictly with the context
/// switches, and cross-worker handoffs synchronize through the core
/// mutex.
#[derive(Debug)]
struct CoroTask {
    /// Saved coroutine stack pointer (0 = not started yet).
    sp: usize,
    /// Saved worker stack pointer, valid while the coroutine runs.
    worker_sp: usize,
    intent: Intent,
    /// Low end of the stack allocation, for the canary check.
    stack_base: *mut u8,
}

thread_local! {
    static CURRENT_TASK: Cell<*mut CoroTask> = const { Cell::new(std::ptr::null_mut()) };
}

/// Park the calling coroutine until its executor wakes it
/// ([`PoolCore::wake`]) or `deadline` expires.
/// Must only be called from inside a coroutine-hosted rank program (the
/// blocking wait-paths guarantee this by checking [`ExecCtl::parks_ranks`]).
///
/// Never inlined: a pooled coroutine may resume on a different worker
/// thread than the one it parked on, and a caller that parks in a loop
/// must look `CURRENT_TASK` up afresh each time — inlined, the compiler
/// is free to compute the thread-local's address once before the loop,
/// leaving later iterations with the previous worker's slot.
#[inline(never)]
pub(crate) fn park_current(deadline: Instant) {
    let task = CURRENT_TASK.with(|c| c.get());
    assert!(
        !task.is_null(),
        "park_current called outside a pooled rank coroutine"
    );
    // SAFETY: `task` is the live switch cell installed by the worker
    // that resumed us; writing the intent and switching back is the
    // protocol it expects.
    unsafe {
        (*task).intent = Intent::Park { deadline };
        msim_switch_stacks(&mut (*task).sp, &(*task).worker_sp);
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
///
/// The mapping is plain bytes with no per-run structure: each run carves
/// it afresh by its own stride (`rank * stack_size`), and a stack needs
/// no initial contents beyond what [`prepare_stack`] writes, so a mapping
/// another universe dirtied is as good as a fresh one — better, its
/// pages are already faulted in.
struct StackArena {
    base: *mut u8,
    len: usize,
    mmapped: bool,
}

/// Largest mapping a thread keeps between universes. A kept mapping
/// holds whatever pages earlier runs touched, so the cap bounds what an
/// idle thread can pin: 1 GiB covers every pooled point of the `scale`
/// ladder (4096 ranks × 256 KiB) and the benchmark's 4096 × 64 KiB
/// `Events` runs, while the 65 536- and 262 144-rank `Events` points
/// (4 and 16 GiB of address space) are unmapped when they finish.
const ARENA_RETAIN_MAX: usize = 1 << 30;

thread_local! {
    /// The mapping this thread's last universe used, if it was worth
    /// keeping. Taken (not borrowed) by the next launch and put back
    /// when that run's [`ArenaLease`] drops, so a universe launched from
    /// inside a rank program on this thread, or one that unwinds, never
    /// shares a mapping with a run still using it.
    static KEPT_ARENA: Cell<Option<StackArena>> = const { Cell::new(None) };
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

    fn map(len: usize) -> Self {
        if len == 0 {
            return Self {
                base: std::ptr::null_mut(),
                len: 0,
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
            mmapped: false,
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
            // `map`, and no stack in the arena is live: an arena is only
            // dropped by the lease of a finished run or as a thread's
            // kept (idle) mapping.
            unsafe {
                sys::munmap(self.base.cast(), self.len);
            }
        } else {
            // SAFETY: allocated in `map` with the identical layout.
            unsafe {
                std::alloc::dealloc(self.base, Self::layout(self.len));
            }
        }
    }
}

/// One run's exclusive hold on a stack arena: the launching thread's
/// kept mapping when it is large enough, a fresh one otherwise. Dropping
/// the lease hands the mapping back to the thread (or unmaps it, above
/// [`ARENA_RETAIN_MAX`]).
struct ArenaLease {
    /// `Some` until drop.
    arena: Option<StackArena>,
    reused: bool,
}

impl ArenaLease {
    /// An arena of at least `len` bytes for the calling thread's next run.
    fn take(len: usize) -> Self {
        let kept = KEPT_ARENA.try_with(Cell::take).ok().flatten();
        match kept {
            Some(arena) if arena.len >= len => Self {
                arena: Some(arena),
                reused: true,
            },
            too_small => {
                // Unmap first, so the two never count against the
                // address space together.
                drop(too_small);
                Self {
                    arena: Some(StackArena::map(len)),
                    reused: false,
                }
            }
        }
    }

    fn arena(&self) -> &StackArena {
        self.arena
            .as_ref()
            .expect("the lease holds its arena until drop")
    }
}

impl Drop for ArenaLease {
    fn drop(&mut self) {
        let arena = self.arena.take();
        if arena.as_ref().is_some_and(|a| a.len <= ARENA_RETAIN_MAX) {
            // Replaces (and so unmaps) whatever a nested universe put
            // back meanwhile. On a thread whose locals are already gone
            // the arena is simply dropped.
            let _ = KEPT_ARENA.try_with(|kept| kept.set(arena));
        }
    }
}

// ---------------------------------------------------------------------------
// Rank cells: what the workers resume.
// ---------------------------------------------------------------------------

pub(crate) type RankOutcome<T> = std::thread::Result<(T, f64)>;

/// Everything a coroutine needs to run its rank program. Lives in the
/// per-rank cell (never on the coroutine stack), so dropping the cell
/// after the run releases all captured state.
struct LaunchPack<'f, T, F> {
    rank: usize,
    shared: Arc<Shared>,
    f: &'f F,
    out: *mut Option<RankOutcome<T>>,
    task: *mut CoroTask,
}

/// One rank's executor cell: switch cell + launch pack + outcome. The
/// stack is the rank's slot of the table's arena. `UnsafeCell` because
/// the coroutine mutates these through raw pointers while the executor
/// holds a shared borrow of the table; accesses strictly alternate with
/// the context switches.
struct RankCell<'f, T, F> {
    task: UnsafeCell<CoroTask>,
    pack: UnsafeCell<LaunchPack<'f, T, F>>,
    out: UnsafeCell<Option<RankOutcome<T>>>,
}

/// The cells of one run plus the arena lease their stacks live in.
/// Executors access disjoint cells (ownership is mediated by the core's
/// rank states: exactly one worker holds a rank in `Running`).
struct CellTable<'f, T, F> {
    cells: Vec<RankCell<'f, T, F>>,
    stack_size: usize,
    lease: ArenaLease,
}
// SAFETY: sharing the table only hands workers *potential* access to
// every cell; actual access is serialized per cell by the core's rank
// states (a cell is touched only by the single worker holding its rank
// in `Running`, and transitions go through the core mutex, which
// provides the necessary ordering). `T: Send` because outcomes move to
// the collecting thread; `F: Sync` because all workers call `f`. The
// lease's arena is never touched through the table after construction
// except as the disjoint per-rank slots recorded in each cell's
// `stack_base`, and it is taken and dropped on the launching thread.
unsafe impl<T: Send, F: Sync> Sync for CellTable<'_, T, F> {}

impl<'f, T, F> CellTable<'f, T, F>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    /// One unstarted cell per rank, stacks carved from the calling
    /// thread's arena (pages commit on first touch).
    fn new(shared: &Arc<Shared>, stack_size: usize, f: &'f F) -> Self {
        let nranks = shared.map.nranks();
        // Stacks must hold at least the entry frame + canary; clamp tiny
        // configs rather than corrupting memory.
        let stack_size = stack_size.max(16 * 1024);
        let lease = ArenaLease::take(
            nranks
                .checked_mul(stack_size)
                .expect("stack arena size overflows usize"),
        );
        let base = lease.arena().base;
        let cells = (0..nranks)
            .map(|rank| RankCell {
                task: UnsafeCell::new(CoroTask {
                    sp: 0,
                    worker_sp: 0,
                    intent: Intent::None,
                    // In bounds: `rank * stack_size` is below the
                    // arena's length, which `take` made at least
                    // `nranks * stack_size`.
                    stack_base: base.wrapping_add(rank * stack_size),
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
        Self {
            cells,
            stack_size,
            lease,
        }
    }

    /// `stats` with this run's arena facts filled in.
    fn stats_into(&self, stats: SimStats) -> SimStats {
        SimStats {
            arena_reused: self.lease.reused,
            arena_mapped_bytes: self.lease.arena().len as u64,
            ..stats
        }
    }

    /// Switch into `rank` until its next yield; returns what it yielded
    /// for. Panics (on the executor's own stack) if the coroutine ran
    /// over the low end of its stack slot.
    ///
    /// # Safety
    /// The caller must hold `rank` exclusively — claimed from its core as
    /// `Running` and not yet committed back — and must commit the
    /// returned intent to the core only after this returns.
    unsafe fn resume(&self, rank: usize) -> Intent {
        let cell = &self.cells[rank];
        let task = cell.task.get();
        // SAFETY: per the contract no other thread touches this cell
        // until the coroutine yields and the caller publishes the
        // transition, and the cell is only touched between switches,
        // never while the coroutine runs. The stack slice is the rank's
        // own slot of the leased arena (in bounds, see `new`), disjoint
        // from every other rank's, borrowed once, before the first
        // switch into it; whatever an earlier universe left there is
        // dead memory that `prepare_stack` overwrites where it matters.
        unsafe {
            if (*task).sp == 0 {
                // First activation: set up the entry frame.
                let pack = cell.pack.get();
                (*pack).out = cell.out.get();
                (*pack).task = task;
                let stack = std::slice::from_raw_parts_mut((*task).stack_base, self.stack_size);
                (*task).sp = prepare_stack(
                    stack,
                    coro_entry::<T, F> as *const () as usize,
                    pack as usize,
                );
            }
            (*task).intent = Intent::None;
            let prev = CURRENT_TASK.with(|c| c.replace(task));
            msim_switch_stacks(&mut (*task).worker_sp, &(*task).sp);
            CURRENT_TASK.with(|c| c.set(prev));
            let canary_ok = ((*task).stack_base as *const u64).read() == STACK_CANARY
                && (((*task).stack_base as *const u64).add(1)).read() == STACK_CANARY;
            assert!(
                canary_ok,
                "rank {rank} overflowed its {}-byte coroutine stack \
                 (raise SimConfig::stack_size)",
                self.stack_size
            );
            (*task).intent
        }
    }

    /// Per-rank outcomes (`None` for ranks that never finished); ends
    /// the arena lease.
    fn into_outcomes(self) -> Vec<Option<RankOutcome<T>>> {
        self.cells
            .into_iter()
            .map(|cell| cell.out.into_inner())
            .collect()
    }
}

extern "C" fn coro_entry<T, F>(pack: *mut LaunchPack<'_, T, F>)
where
    F: Fn(&mut Ctx) -> T,
{
    // SAFETY: the pack outlives the coroutine (it lives in the cell
    // table, which the run driver keeps alive until every executor
    // thread is done).
    let pack = unsafe { &mut *pack };
    // Catch *everything* before it can unwind into the assembly
    // trampoline: rank panics (asserts, injected kills, deadlock
    // reports) become outcome payloads exactly as in thread mode.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = Ctx::new(pack.rank, pack.shared.clone());
        let out = (pack.f)(&mut ctx);
        (out, ctx.now())
    }));
    // SAFETY: the outcome slot is only read after the core marks this
    // rank Done (mutex-ordered).
    unsafe {
        *pack.out = Some(result);
        (*pack.task).intent = Intent::Done;
        loop {
            // A Done coroutine is never resumed; the loop is a
            // belt-and-braces guard against a buggy scheduler.
            msim_switch_stacks(&mut (*pack.task).sp, &(*pack.task).worker_sp);
        }
    }
}

/// The message of a panic caught at an executor's own boundary.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string executor panic>".into()
    }
}

// ---------------------------------------------------------------------------
// The pooled run driver.
// ---------------------------------------------------------------------------

/// What the coroutine executor hands back: per-rank outcomes (`None` for
/// ranks orphaned by an infrastructure failure), the recorded
/// infrastructure failures, and the run's counters.
pub(crate) type RunOut<T> = (Vec<Option<RankOutcome<T>>>, Vec<(usize, String)>, SimStats);

/// Run `f` once per rank on a pool of `workers`: the calling thread
/// itself when that is one, scoped worker threads otherwise.
pub(crate) fn run_pool<T, F>(
    shared: &Arc<Shared>,
    core: &Arc<PoolCore>,
    workers: usize,
    stack_size: usize,
    f: &F,
) -> RunOut<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let cells = CellTable::new(shared, stack_size, f);

    if workers == 1 {
        worker_loop(core, &cells);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let cells = &cells;
                let core = Arc::clone(core);
                std::thread::Builder::new()
                    .name(format!("msim-worker{w}"))
                    .spawn_scoped(scope, move || worker_loop(&core, cells))
                    .expect("failed to spawn pool worker");
            }
        });
    }

    let stats = cells.stats_into(core.stats());
    let infra = core
        .infra
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    (cells.into_outcomes(), infra, stats)
}

fn worker_loop<T, F>(core: &PoolCore, cells: &CellTable<'_, T, F>)
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let mut current_rank = usize::MAX;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut yielded = None;
        while let Some(rank) = core.advance(yielded) {
            current_rank = rank;
            // SAFETY: `advance` handed this worker exclusive ownership of
            // `rank` (state `Running`), and the yield is committed by the
            // next `advance`, after the coroutine has switched back.
            yielded = Some((rank, unsafe { cells.resume(rank) }));
        }
    }));
    if let Err(payload) = caught {
        core.record_infra_failure(current_rank, panic_message(payload.as_ref()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{SimConfig, Universe};
    use crate::SimError;
    use simnet::{ClusterSpec, CostModel, Placement};

    fn cfg(exec: ExecMode) -> SimConfig {
        SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test())
            .phantom()
            .with_exec(exec)
    }

    /// A one-rank core popped by `workers` threads (driven here by one).
    fn one_rank(workers: usize) -> PoolCore {
        let map = Placement::SmpBlock.build(&ClusterSpec::regular(1, 1));
        PoolCore::new(&map, PickPolicy::Fifo, workers)
    }

    fn park(after: Duration) -> Intent {
        Intent::Park {
            deadline: Instant::now() + after,
        }
    }

    /// A wake that lands while the rank is being resumed is tokenized:
    /// the following park re-schedules immediately instead of sleeping
    /// through its signal.
    #[test]
    fn wake_during_running_is_not_lost() {
        for workers in [1, 2] {
            let core = one_rank(workers);
            assert_eq!(core.advance(None), Some(0));
            core.wake(0); // arrives "mid-run"
                          // Must be immediately schedulable, not parked for an hour.
            let parked = Some((0, park(Duration::from_secs(3600))));
            assert_eq!(core.advance(parked), Some(0), "width {workers}");
            assert_eq!(core.advance(Some((0, Intent::Done))), None);
        }
    }

    /// An expired park deadline re-schedules the rank so timeout-based
    /// waits (and the deadlock detector built on them) still fire.
    #[test]
    fn expired_parks_are_rescheduled() {
        for workers in [1, 2] {
            let core = one_rank(workers);
            let r = core.advance(None).unwrap();
            let t0 = Instant::now();
            let parked = Some((r, park(Duration::from_millis(5))));
            assert_eq!(core.advance(parked), Some(0), "width {workers}");
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "expired park should be re-scheduled promptly"
            );
            assert_eq!(core.advance(Some((0, Intent::Done))), None);
        }
    }

    /// Live ranks with nothing ready, parked or running cannot make
    /// progress; every width reports that instead of sleeping forever.
    #[test]
    fn a_lost_wake_is_reported_not_slept_through() {
        for workers in [1, 2] {
            let core = one_rank(workers);
            assert_eq!(core.advance(None), Some(0));
            // Lose the rank: neither running nor anywhere a wake finds it.
            core.lock().ranks[0] = RankState::Ready;
            let stalled = std::panic::catch_unwind(AssertUnwindSafe(|| core.advance(None)));
            let message = panic_message(stalled.unwrap_err().as_ref());
            assert!(message.contains("lost wake"), "width {workers}: {message}");
        }
    }

    /// The canary is a real guard, not decoration: a write that lands
    /// past the low end of a coroutine stack is caught as an
    /// `ExecutorFailure` naming the overflow, never silent corruption —
    /// also on a slot an earlier universe used, whose canary words that
    /// universe wrote too. And the executor panic that reports it leaves
    /// an arena the next universe runs on.
    #[test]
    fn clobbered_stack_canary_is_reported_as_overflow() {
        if !POOL_SUPPORTED {
            return;
        }
        for exec in [ExecMode::Events, ExecMode::Pooled { workers: Some(1) }] {
            // A thread of its own: no arena kept by another test.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let clean = || Universe::run(cfg(exec), |ctx| ctx.rank()).unwrap();
                    assert!(!clean().stats.arena_reused, "{exec:?}");
                    let err = Universe::run(cfg(exec), |ctx| {
                        if ctx.rank() == 0 {
                            let task = CURRENT_TASK.with(|c| c.get());
                            assert!(!task.is_null(), "rank must be running as a coroutine");
                            // Simulate the last store of a stack overflow:
                            // clobber the canary word at the low end of
                            // this coroutine's own stack.
                            // SAFETY: `task` is this coroutine's live
                            // switch cell and `stack_base` points at its
                            // stack slot, so the write stays inside memory
                            // this run owns — the *check* failing is the
                            // point, not UB.
                            unsafe {
                                ((*task).stack_base as *mut u64).write(0);
                            }
                        }
                    })
                    .unwrap_err();
                    match err {
                        SimError::ExecutorFailure { message, .. } => {
                            assert!(message.contains("overflowed"), "{exec:?}: {message}");
                        }
                        other => panic!("{exec:?}: expected an executor failure, got {other}"),
                    }
                    let after = clean();
                    assert!(after.stats.arena_reused, "{exec:?}");
                    assert_eq!(after.per_rank, vec![0, 1], "{exec:?}");
                });
            });
        }
    }

    /// `SimConfig::with_stack_size` below the 16 KiB floor is clamped,
    /// not honored: the entry frame and canary always fit.
    #[test]
    fn tiny_stack_configs_are_clamped_to_the_floor() {
        if !POOL_SUPPORTED {
            return;
        }
        let exec = ExecMode::Pooled { workers: Some(1) };
        let r = Universe::run(cfg(exec).with_stack_size(1), |ctx| ctx.rank()).unwrap();
        assert_eq!(r.per_rank, vec![0, 1]);
    }
}
