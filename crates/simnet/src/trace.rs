//! Event tracing.
//!
//! When enabled, every rank records the schedule-level actions it performs
//! (messages, explicit copies, modeled compute, window allocation,
//! synchronization). Tests use traces to assert *structural* properties of
//! the paper's approach — e.g. that the hybrid allgather performs **zero**
//! intra-node data copies while the pure-MPI baseline performs many, or
//! that per-node shared-window memory stays constant as processes-per-node
//! grows.

use std::sync::{Arc, Mutex, PoisonError};

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Posted a message of `bytes` to global rank `to` (`intra` = same node).
    Send {
        to: usize,
        bytes: usize,
        intra: bool,
    },
    /// Completed a receive of `bytes` from global rank `from`.
    Recv {
        from: usize,
        bytes: usize,
        intra: bool,
    },
    /// Explicit data copy through shared memory (memcpy).
    Copy { bytes: usize },
    /// Modeled computation.
    Compute { flops: f64 },
    /// Allocated `bytes` of shared-window memory on the rank's node.
    WinAlloc { bytes: usize },
    /// Completed a barrier (any implementation).
    Barrier,
    /// Summary of a shared-window happens-before race sweep: how many
    /// (coalesced) window accesses were checked and how many race reports
    /// survived canonicalization. Recorded once per run, at rank 0 and
    /// virtual time 0.0, only when the detector is enabled — so traces of
    /// detector-off runs (all goldens) are byte-identical to before.
    RaceCheck {
        /// Coalesced window-access records swept.
        accesses: usize,
        /// Confirmed race reports (after dedup/cap).
        races: usize,
    },
    /// A fault-tolerance recovery step completed on this rank: the
    /// protected operation `op` was interrupted, the survivors agreed on
    /// the `dead` set and entered recovery epoch `epoch` with `survivors`
    /// members. Charged no virtual time; recorded by every surviving rank
    /// so same-seed recovery traces are byte-identical.
    Recovery {
        /// Label of the protected operation that was re-run.
        op: String,
        /// Recovery epoch entered (1 for the first recovery).
        epoch: u64,
        /// Globally agreed dead ranks (sorted global ranks).
        dead: Vec<usize>,
        /// Number of surviving members after the shrink (after the grow,
        /// for a grow phase: survivors plus recruits).
        survivors: usize,
        /// Replacement ranks recruited from the respawn pool in a grow
        /// phase (ascending global ranks; empty for a plain shrink).
        grown: Vec<usize>,
    },
    /// An algorithm-selection decision made by a `SelectionPolicy`
    /// (operation, chosen algorithm name, free-form "why" string). Charged
    /// no virtual time; recorded so traces explain *which* schedule ran.
    Decision {
        /// Operation key, e.g. `"allgather"`.
        op: String,
        /// Chosen algorithm name, e.g. `"allgather.ring"`.
        algo: String,
        /// Human-readable reason (policy kind, thresholds or estimates).
        why: String,
    },
    /// A nonblocking request was started (`icollective`/`irecv` layer).
    /// Charged no virtual time and recorded **only** by the request entry
    /// points — a program that makes no nonblocking call produces a trace
    /// byte-identical to before the feature existed.
    ReqStart {
        /// Operation key, e.g. `"iallgather"`.
        op: String,
        /// Per-rank request sequence number (deterministic across runs).
        id: u64,
    },
    /// A nonblocking request completed (its `wait`/final `poll`). Carries
    /// the same `op`/`id` as the matching [`EventKind::ReqStart`].
    ReqComplete {
        /// Operation key, e.g. `"iallgather"`.
        op: String,
        /// Per-rank request sequence number of the matching start.
        id: u64,
    },
}

impl EventKind {
    /// Whether this event is a nonblocking-request lifecycle marker
    /// (`ReqStart`/`ReqComplete`). Markers annotate a trace without
    /// perturbing the underlying operation schedule, so equivalence
    /// checks between blocking and split-phase runs strip them first.
    pub fn is_req_marker(&self) -> bool {
        matches!(
            self,
            EventKind::ReqStart { .. } | EventKind::ReqComplete { .. }
        )
    }
}

/// A single trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global rank that performed the action.
    pub rank: usize,
    /// Virtual time (µs) at which the action completed.
    pub time: f64,
    /// The action.
    pub kind: EventKind,
}

/// A shared, thread-safe event sink.
///
/// Cloning is cheap (it is an `Arc`); all clones append to the same log.
/// A disabled tracer records nothing and costs one branch per event.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Vec<Event>>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A tracer that records everything.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record an event (no-op when disabled).
    pub fn record(&self, rank: usize, time: f64, kind: EventKind) {
        self.record_with(rank, time, || kind);
    }

    /// Record the event `kind()` builds, calling it only when enabled: an
    /// event that owns strings costs nothing on an untraced run.
    pub fn record_with(&self, rank: usize, time: f64, kind: impl FnOnce() -> EventKind) {
        if let Some(log) = &self.inner {
            let kind = kind();
            // Ranks may be killed (fault injection) while other ranks keep
            // tracing, so ignore lock poisoning: the Vec is never left in a
            // torn state by a panic outside the guard scope.
            log.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Event { rank, time, kind });
        }
    }

    /// Snapshot of all events recorded so far, in canonical order: grouped
    /// by rank (each rank's own events in that rank's program order).
    ///
    /// Ranks are real threads, so the raw append order of the shared log
    /// is wall-clock interleaving — nondeterministic even for a perfectly
    /// deterministic program. The per-rank sequences *are* deterministic,
    /// so sorting stably by rank yields a schedule-independent trace that
    /// tests can compare across runs and fuzz seeds.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(log) => {
                let mut events = log.lock().unwrap_or_else(PoisonError::into_inner).clone();
                events.sort_by_key(|e| e.rank);
                events
            }
            None => Vec::new(),
        }
    }

    /// Drop all recorded events.
    pub fn clear(&self) {
        if let Some(log) = &self.inner {
            log.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Total bytes moved by explicit copies (across all ranks).
    pub fn total_copy_bytes(&self) -> usize {
        self.events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Copy { bytes } => Some(bytes),
                _ => None,
            })
            .sum()
    }

    /// Number of intra-node messages recorded (send side).
    pub fn intra_node_sends(&self) -> usize {
        self.events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { intra: true, .. }))
            .count()
    }

    /// Number of inter-node messages recorded (send side).
    pub fn inter_node_sends(&self) -> usize {
        self.events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { intra: false, .. }))
            .count()
    }

    /// Total shared-window bytes allocated, summed per event.
    pub fn total_window_bytes(&self) -> usize {
        self.events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::WinAlloc { bytes } => Some(bytes),
                _ => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        t.record(0, 1.0, EventKind::Barrier);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_records_and_clears() {
        let t = Tracer::enabled();
        t.record(0, 1.0, EventKind::Copy { bytes: 64 });
        t.record(1, 2.0, EventKind::Copy { bytes: 36 });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.total_copy_bytes(), 100);
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn clones_share_the_log() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t2.record(3, 0.5, EventKind::Barrier);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].rank, 3);
    }

    #[test]
    fn send_classification() {
        let t = Tracer::enabled();
        t.record(
            0,
            0.0,
            EventKind::Send {
                to: 1,
                bytes: 8,
                intra: true,
            },
        );
        t.record(
            0,
            0.0,
            EventKind::Send {
                to: 9,
                bytes: 8,
                intra: false,
            },
        );
        t.record(
            0,
            0.0,
            EventKind::Send {
                to: 9,
                bytes: 8,
                intra: false,
            },
        );
        assert_eq!(t.intra_node_sends(), 1);
        assert_eq!(t.inter_node_sends(), 2);
    }

    #[test]
    fn window_bytes_sum() {
        let t = Tracer::enabled();
        t.record(0, 0.0, EventKind::WinAlloc { bytes: 1024 });
        t.record(4, 0.0, EventKind::WinAlloc { bytes: 512 });
        assert_eq!(t.total_window_bytes(), 1536);
    }
}
