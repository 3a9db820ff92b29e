//! The event-calendar executor (`ExecMode::Events`).
//!
//! Phantom-payload runs only need the *schedule* of a collective — the
//! modeled virtual times — not real data movement. This executor drops
//! the worker pool entirely: one driver thread resumes rank coroutines
//! off the node-affine ready queue it shares with the one-worker pool
//! ([`crate::ready::ReadyQueue`]). Rank stacks are carved out of a single
//! lazily-committed arena (`mmap` with `MAP_NORESERVE` on Linux, see
//! `exec.rs`), so a 262 144-rank universe reserves address space per rank
//! but commits only the few pages each shallow rank program actually
//! touches. That is what lifts the practical ceiling from ~4 096 ranks
//! (one eagerly-allocated stack each) to the node counts where the hybrid
//! MPI+MPI design differentiates from flat MPI.
//!
//! Determinism: virtual time is computed purely from modeled costs
//! along each rank's own program order (see [`simnet::Clock`]) and
//! never observes the executor, so the resume order is a *scheduling*
//! choice — results, clocks, and canonical traces are byte-identical to
//! pooled and thread-per-rank execution. The differential wall in
//! `tests/calendar.rs` and `crates/core/tests/events_conformance.rs`
//! enforces exactly that.
//!
//! Resume order contract: every schedulable rank sits in the ready queue
//! exactly once. The queue is FIFO within a node, and the node being
//! served is drained until it has no ready rank before the node that has
//! waited longest takes its turn — chosen for the host's caches: most
//! wakes of a node-aware collective stay on the node, and any single
//! global order (by virtual time, say) walks every rank's cold stack
//! between two resumes of one node. Progress: rank programs are finite and
//! a rank re-enters the queue only when a *running* rank's send, flag
//! post or rendezvous wakes it, so a node's turn ends after finitely
//! many resumes and every waiting node is reached; parked ranks whose
//! wall-clock deadline expired are re-readied whenever nothing is ready,
//! so timeout-based waits and the deadlock detector fire as in the pool.
//!
//! Phantom-only: real payloads would make window reads observe
//! *scheduling* (a reader resumed before the writer sees different
//! bytes), and the race detector requires real payloads; both are
//! rejected up front with [`crate::SimError::UnsupportedExec`] by
//! `Universe` — silent divergence is not an option. FaultPlan kills,
//! delays and schedule fuzz all work: kills panic the victim coroutine
//! in its own context, and adversarial ready-queue picking is simply
//! superseded by the calendar's own order.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use simnet::RankMap;

use crate::ctx::Ctx;
use crate::exec::{self, CellTable, Intent, RunOut};
use crate::ready::ReadyQueue;
use crate::universe::{Shared, SimStats};

/// Scheduling status of one rank in the calendar.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EvStatus {
    /// In the ready queue, waiting to be resumed.
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
    /// Holds exactly the `Scheduled` ranks, each once. Unused (left
    /// empty) in controlled mode, where the probe picks straight from
    /// the `Scheduled` statuses.
    ready: ReadyQueue,
    status: Vec<EvStatus>,
    /// Ranks not yet `Done`.
    live: usize,
    /// Model-checker mode: scheduling order comes from the probe, not
    /// the ready queue.
    controlled: bool,
    /// See [`SimStats::resumes`].
    resumes: u64,
}

impl CalState {
    /// Make `rank` schedulable: into the ready queue, or (controlled
    /// mode) just status-marked.
    fn schedule(&mut self, rank: usize) {
        self.status[rank] = EvStatus::Scheduled;
        if !self.controlled {
            self.ready.push(rank);
        }
    }
}

/// The shared calendar of one events-mode universe. Lives in
/// [`crate::universe::Shared`] (via [`crate::exec::ExecCtl::Events`]) so
/// mailbox pushes and rendezvous completions can wake parked ranks.
/// Single-threaded by construction — the mutex is uncontended and only
/// exists so the type is `Send + Sync` without unsafe impls.
#[derive(Debug)]
pub(crate) struct CalendarCore {
    state: Mutex<CalState>,
    /// Model-checker controller: when present, it makes every
    /// scheduling decision (the ready queue is bypassed) so the
    /// calendar shares the pooled executor's decision-point model and
    /// replays the same certificates.
    controller: Option<Arc<crate::mcheck::Probe>>,
    /// Infrastructure failures observed by the driver (rank, message).
    infra: Mutex<Vec<(usize, String)>>,
}

impl CalendarCore {
    pub(crate) fn new(map: &RankMap, controller: Option<Arc<crate::mcheck::Probe>>) -> Self {
        let nranks = map.nranks();
        let controlled = controller.is_some();
        Self {
            state: Mutex::new(CalState {
                // Every rank starts ready, in rank order (controlled
                // mode reads the statuses instead).
                ready: if controlled {
                    ReadyQueue::new(map)
                } else {
                    ReadyQueue::full(map)
                },
                status: vec![EvStatus::Scheduled; nranks],
                live: nranks,
                controlled,
                resumes: 0,
            }),
            controller,
            infra: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CalState> {
        // Mirrors PoolCore: a panic while holding the lock never leaves
        // the state torn (all mutations are single assignments).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The run's executor counters (the arena fields are the caller's).
    fn stats(&self) -> SimStats {
        let g = self.lock();
        SimStats {
            resumes: g.resumes,
            node_turns: g.ready.node_turns(),
            ..SimStats::default()
        }
    }

    /// Make `rank` schedulable if it is parked; remember the signal if
    /// it is currently being resumed (so a racing park re-schedules
    /// instead of sleeping through it).
    pub(crate) fn wake(&self, rank: usize) {
        let mut g = self.lock();
        match g.status[rank] {
            EvStatus::Parked { .. } => {
                g.schedule(rank);
            }
            EvStatus::Running { ref mut token } => *token = true,
            EvStatus::Scheduled | EvStatus::Done => {}
        }
    }

    /// Commit the yield of the rank just resumed (`None` on the first
    /// call), then claim the next rank in queue order — one lock
    /// acquisition per resume — or return `None` when every rank is done.
    /// Sleeps while all live ranks are parked with future deadlines (a
    /// timeout-only wait: nothing else can wake them — the driver is the
    /// only thread that runs rank programs).
    fn advance(&self, yielded: Option<(usize, Intent)>) -> Option<usize> {
        let mut g = self.lock();
        if let Some((rank, intent)) = yielded {
            Self::commit(&mut g, rank, intent);
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
                None => g.ready.pop(),
            };
            if let Some(rank) = next {
                debug_assert_eq!(g.status[rank], EvStatus::Scheduled);
                g.status[rank] = EvStatus::Running { token: false };
                g.resumes += 1;
                return Some(rank);
            }
            // Nothing ready: every live rank is parked (nothing can be
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
                        g.schedule(r);
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
    fn commit(g: &mut CalState, rank: usize, intent: Intent) {
        match intent {
            Intent::Done => {
                g.status[rank] = EvStatus::Done;
                g.live -= 1;
            }
            Intent::Park { deadline } => {
                let token = matches!(g.status[rank], EvStatus::Running { token: true });
                if token {
                    g.schedule(rank);
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
        // The run is over; let `advance` return None.
        self.lock().live = 0;
    }
}

/// Run `f` once per rank on the calling thread, in ready-queue order.
pub(crate) fn run_events<T, F>(
    shared: &Arc<Shared>,
    core: &Arc<CalendarCore>,
    stack_size: usize,
    f: &F,
) -> RunOut<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let cells = CellTable::new(shared, stack_size, f);

    let mut current_rank = usize::MAX;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut yielded = None;
        while let Some(rank) = core.advance(yielded) {
            current_rank = rank;
            // SAFETY: `advance` handed the driver exclusive ownership of
            // `rank` (status `Running`) — there is no other thread — and
            // the yield is committed by the next `advance`, after the
            // coroutine has switched back.
            yielded = Some((rank, unsafe { cells.resume(rank) }));
        }
    }));
    if let Err(payload) = caught {
        core.record_infra_failure(current_rank, exec::panic_message(payload.as_ref()));
    }

    let stats = cells.stats_into(core.stats());
    let infra = core
        .infra
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    (cells.into_outcomes(), infra, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ClusterSpec, Placement};

    fn one_rank() -> CalendarCore {
        let map = Placement::SmpBlock.build(&ClusterSpec::regular(1, 1));
        CalendarCore::new(&map, None)
    }

    fn commit(core: &CalendarCore, rank: usize, intent: Intent) {
        CalendarCore::commit(&mut core.lock(), rank, intent);
    }

    /// A wake that lands while the rank is being resumed is tokenized:
    /// the following park re-schedules immediately instead of sleeping
    /// through its signal.
    #[test]
    fn wake_during_running_is_not_lost() {
        let core = one_rank();
        let r = core.advance(None).unwrap();
        assert_eq!(r, 0);
        core.wake(0); // arrives "mid-run"
        commit(
            &core,
            0,
            Intent::Park {
                deadline: Instant::now() + Duration::from_secs(3600),
            },
        );
        // Must be immediately schedulable, not parked for an hour.
        assert_eq!(core.advance(None), Some(0));
        commit(&core, 0, Intent::Done);
        assert_eq!(core.advance(None), None);
    }

    /// An expired park deadline re-schedules the rank so timeout-based
    /// waits (and the deadlock detector built on them) still fire.
    #[test]
    fn expired_parks_are_rescheduled() {
        let core = one_rank();
        let r = core.advance(None).unwrap();
        commit(
            &core,
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
        commit(&core, 0, Intent::Done);
    }
}
