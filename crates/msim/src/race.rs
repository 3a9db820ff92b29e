//! Vector-clock happens-before race detection for shared-memory windows.
//!
//! The paper's programming model makes window accesses safe only through
//! explicit synchronization — barriers, flag pairs, point-to-point
//! messages — around every conflicting access ([`crate::SharedWindow`]
//! deliberately uses relaxed atomics, so a missing barrier produces
//! silent data corruption rather than a crash). This module turns that
//! convention into a checked property: when
//! [`crate::SimConfig::race_detect`] is on (or `MSIM_RACE=1`), every
//! window access is logged with the owning rank's vector clock, and
//! happens-before edges are derived from the runtime's existing
//! synchronization events:
//!
//! * point-to-point `send`/`recv` and `post_flag`/`wait_flag` pairs
//!   (the sender's clock snapshot travels on the [`crate::msg::Packet`]),
//! * out-of-band rendezvous — `oob_fence`, `Comm_split`, window
//!   allocation — where every member joins every other member's clock.
//!
//! Message-based barriers (e.g. dissemination) need no special casing:
//! their happens-before edges arise transitively from their packets.
//!
//! After the run, `RaceState::detect` sweeps the records of each
//! window in element order and reports every pair of overlapping
//! accesses from different ranks, at least one a write, that are not
//! ordered by happens-before. Reports are canonically sorted so equal
//! seeds produce byte-identical reports in both execution modes.
//!
//! Known non-goal: nothing is detected in [`crate::DataMode::Phantom`]
//! universes — phantom windows have no storage, so there is no data to
//! race on and the detector is not armed (see `docs/race-detection.md`).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::oob::BoardKey;

/// Merge window for access coalescing: a new access may extend any of
/// the last `K` records (same window, kind and epoch). Four is enough to
/// absorb the alternating read/write streams of per-element copy loops.
const COALESCE_WINDOW: usize = 4;
/// Recent synchronization events kept per rank for report context.
const TRAIL_LEN: usize = 4;
/// At most this many reports survive (after canonical sort + dedup).
const REPORT_CAP: usize = 32;

/// A per-rank logical clock: component `i` counts synchronization
/// releases performed by rank `i` that this clock has observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The initial clock of `rank`: own component 1 (so two ranks that
    /// never synchronized are *not* ordered), everything else 0.
    fn initial(rank: usize, nranks: usize) -> Self {
        let mut v = vec![0u64; nranks];
        v[rank] = 1;
        Self(v)
    }

    fn tick(&mut self, rank: usize) {
        self.0[rank] += 1;
    }

    fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    fn component(&self, rank: usize) -> u64 {
        self.0[rank]
    }
}

/// Whether a window access loaded or stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// A load (`read`, `read_into`, `snapshot`, `payload`).
    Read,
    /// A store (`write`, `write_from`, `fill_with`, `write_payload`).
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// One logged window access (coalesced; ranges are absolute element
/// offsets into the window allocation).
#[derive(Debug, Clone)]
struct AccessRecord {
    win: u64,
    start: usize,
    len: usize,
    kind: AccessKind,
    /// Synchronization epoch: bumped on every clock change, so records
    /// may only coalesce within one epoch.
    epoch: u64,
    vc: Arc<VectorClock>,
    trail: Arc<Vec<String>>,
}

#[derive(Debug)]
struct RankRace {
    vc: Arc<VectorClock>,
    epoch: u64,
    log: Vec<AccessRecord>,
    /// Ring of the most recent synchronization descriptions, shared by
    /// the records logged since (rebuilt on each sync).
    trail: Arc<Vec<String>>,
}

/// Clock deposits of one in-flight OOB rendezvous (fence, split, window
/// allocation). The board rendezvous only returns after every member
/// deposited, and each member's clock deposit precedes its board deposit
/// in program order — so by the time any member joins, all snapshots are
/// present.
#[derive(Debug)]
struct FenceCell {
    expected: usize,
    snaps: Vec<Arc<VectorClock>>,
    taken: usize,
}

/// One side of a reported race: who accessed what, plus the rank's last
/// few synchronization events before the access (the "how did we get
/// here" context of the report).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceAccess {
    /// Global rank that performed the access.
    pub rank: usize,
    /// First element offset of the accessed range (absolute).
    pub start: usize,
    /// Length of the accessed range in elements.
    pub len: usize,
    /// Load or store.
    pub kind: AccessKind,
    /// The rank's most recent synchronization events before the access,
    /// oldest first (at most four).
    pub recent_syncs: Vec<String>,
}

impl fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} {} of [{}, {})",
            self.rank,
            self.kind,
            self.start,
            self.start + self.len
        )?;
        if self.recent_syncs.is_empty() {
            write!(f, " (no prior sync)")
        } else {
            write!(f, " (after {})", self.recent_syncs.join(", "))
        }
    }
}

/// A pair of conflicting, concurrent (not happens-before ordered)
/// accesses to one shared window.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceReport {
    /// Deterministic window identity: allocating leader's global rank in
    /// the high 32 bits, that rank's allocation sequence number in the
    /// low 32.
    pub window: u64,
    /// One side of the conflict (canonically the smaller access).
    pub first: RaceAccess,
    /// The other side.
    pub second: RaceAccess,
}

impl RaceReport {
    fn new(window: u64, a: RaceAccess, b: RaceAccess) -> Self {
        let (first, second) = if a <= b { (a, b) } else { (b, a) };
        Self {
            window,
            first,
            second,
        }
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window {:#x}: {} races with {}",
            self.window, self.first, self.second
        )
    }
}

/// The universe-wide detector state (armed only when
/// [`crate::SimConfig::race_detect`] is on and the data mode is real).
#[derive(Debug)]
pub(crate) struct RaceState {
    per_rank: Vec<Mutex<RankRace>>,
    fences: Mutex<HashMap<BoardKey, FenceCell>>,
}

impl RaceState {
    pub(crate) fn new(nranks: usize) -> Self {
        Self {
            per_rank: (0..nranks)
                .map(|r| {
                    Mutex::new(RankRace {
                        vc: Arc::new(VectorClock::initial(r, nranks)),
                        epoch: 0,
                        log: Vec::new(),
                        trail: Arc::new(Vec::new()),
                    })
                })
                .collect(),
            fences: Mutex::new(HashMap::new()),
        }
    }

    // Ranks killed by fault injection may die holding a detector lock;
    // every mutation completes before any panic point, so clearing the
    // poison is safe (the convention throughout this runtime).
    fn rank(&self, rank: usize) -> MutexGuard<'_, RankRace> {
        self.per_rank[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn note_sync(r: &mut RankRace, desc: String) {
        let mut trail: Vec<String> = (*r.trail).clone();
        if trail.len() == TRAIL_LEN {
            trail.remove(0);
        }
        trail.push(desc);
        r.trail = Arc::new(trail);
    }

    /// Release side of a p2p edge (`send`, `post_flag`): snapshot the
    /// current clock for the packet, **then** advance the own component —
    /// so accesses after the send are not falsely ordered before the
    /// receiver's.
    pub(crate) fn on_send(&self, rank: usize, desc: String) -> Arc<VectorClock> {
        let mut r = self.rank(rank);
        let snap = Arc::clone(&r.vc);
        Arc::make_mut(&mut r.vc).tick(rank);
        r.epoch += 1;
        Self::note_sync(&mut r, desc);
        snap
    }

    /// Acquire side of a p2p edge (`recv`, `wait_flag`): join the
    /// sender's snapshot. `None` snapshots (packets injected by tests)
    /// contribute no edge.
    pub(crate) fn on_recv(&self, rank: usize, snap: Option<&Arc<VectorClock>>, desc: String) {
        let mut r = self.rank(rank);
        if let Some(s) = snap {
            Arc::make_mut(&mut r.vc).join(s);
        }
        r.epoch += 1;
        Self::note_sync(&mut r, desc);
    }

    /// Deposit this rank's clock for the OOB rendezvous under `key`.
    /// Must be called *before* the board rendezvous (see [`FenceCell`]).
    pub(crate) fn fence_deposit(&self, rank: usize, key: BoardKey, expected: usize) {
        let snap = Arc::clone(&self.rank(rank).vc);
        let mut fences = self.fences.lock().unwrap_or_else(PoisonError::into_inner);
        let cell = fences.entry(key).or_insert_with(|| FenceCell {
            expected,
            snaps: Vec::with_capacity(expected),
            taken: 0,
        });
        debug_assert_eq!(cell.expected, expected, "fence members disagree on size");
        cell.snaps.push(snap);
    }

    /// Join every member's deposit after the board rendezvous returned,
    /// then advance the own component (so accesses after the rendezvous
    /// on different ranks are mutually unordered, as barrier semantics
    /// require). The last member to join removes the cell.
    pub(crate) fn fence_join(&self, rank: usize, key: BoardKey, desc: String) {
        let snaps = {
            let mut fences = self.fences.lock().unwrap_or_else(PoisonError::into_inner);
            let cell = fences.get_mut(&key).expect("fence join without deposit");
            cell.taken += 1;
            if cell.taken == cell.expected {
                fences.remove(&key).expect("cell present").snaps
            } else {
                cell.snaps.clone()
            }
        };
        let mut r = self.rank(rank);
        let vc = Arc::make_mut(&mut r.vc);
        for s in &snaps {
            vc.join(s);
        }
        vc.tick(rank);
        r.epoch += 1;
        Self::note_sync(&mut r, desc);
    }

    /// Log a window access of `[start, start+len)` (absolute elements).
    pub(crate) fn record(&self, rank: usize, win: u64, start: usize, len: usize, kind: AccessKind) {
        if len == 0 {
            return;
        }
        let mut r = self.rank(rank);
        let epoch = r.epoch;
        let first = r.log.len().saturating_sub(COALESCE_WINDOW);
        for rec in r.log[first..].iter_mut() {
            if rec.win == win && rec.kind == kind && rec.epoch == epoch {
                if start == rec.start + rec.len {
                    rec.len += len;
                    return;
                }
                if start >= rec.start && start + len <= rec.start + rec.len {
                    return; // already covered
                }
            }
        }
        let vc = Arc::clone(&r.vc);
        let trail = Arc::clone(&r.trail);
        r.log.push(AccessRecord {
            win,
            start,
            len,
            kind,
            epoch,
            vc,
            trail,
        });
    }

    /// Sweep all logged accesses for conflicting concurrent pairs.
    /// Returns `(total records, canonical reports)`; the report list is
    /// sorted, deduplicated and capped at [`REPORT_CAP`].
    pub(crate) fn detect(&self) -> (usize, Vec<RaceReport>) {
        let mut all: Vec<(usize, AccessRecord)> = Vec::new();
        for (rank, cell) in self.per_rank.iter().enumerate() {
            let r = cell.lock().unwrap_or_else(PoisonError::into_inner);
            all.extend(r.log.iter().map(|rec| (rank, rec.clone())));
        }
        let accesses = all.len();
        // Deterministic total order; the sweep below relies only on the
        // (win, start) prefix.
        all.sort_by(|(ra, a), (rb, b)| {
            (a.win, a.start, a.len, *ra, a.kind, a.epoch)
                .cmp(&(b.win, b.start, b.len, *rb, b.kind, b.epoch))
        });
        let mut reports = Vec::new();
        for i in 0..all.len() {
            let (ri, a) = &all[i];
            for (rj, b) in &all[i + 1..] {
                if b.win != a.win || b.start >= a.start + a.len {
                    break; // sorted by start: nothing further overlaps `a`
                }
                if ri == rj || (a.kind == AccessKind::Read && b.kind == AccessKind::Read) {
                    continue;
                }
                // `a` happened-before `b` iff `b`'s clock has observed
                // rank `ri` at least up to `a`'s own component.
                let a_hb_b = a.vc.component(*ri) <= b.vc.component(*ri);
                let b_hb_a = b.vc.component(*rj) <= a.vc.component(*rj);
                if a_hb_b || b_hb_a {
                    continue;
                }
                reports.push(RaceReport::new(
                    a.win,
                    Self::access(*ri, a),
                    Self::access(*rj, b),
                ));
            }
        }
        reports.sort();
        reports.dedup();
        reports.truncate(REPORT_CAP);
        (accesses, reports)
    }

    fn access(rank: usize, rec: &AccessRecord) -> RaceAccess {
        RaceAccess {
            rank,
            start: rec.start,
            len: rec.len,
            kind: rec.kind,
            recent_syncs: (*rec.trail).clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> BoardKey {
        (1, 0, 2)
    }

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let s = RaceState::new(2);
        s.record(0, 7, 0, 4, AccessKind::Write);
        s.record(1, 7, 2, 4, AccessKind::Write);
        let (accesses, reports) = s.detect();
        assert_eq!(accesses, 2);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window, 7);
        assert_eq!(reports[0].first.rank, 0);
        assert_eq!(reports[0].second.rank, 1);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let s = RaceState::new(2);
        s.record(0, 7, 0, 4, AccessKind::Read);
        s.record(1, 7, 0, 4, AccessKind::Read);
        assert!(s.detect().1.is_empty());
    }

    #[test]
    fn disjoint_ranges_do_not_race() {
        let s = RaceState::new(2);
        s.record(0, 7, 0, 4, AccessKind::Write);
        s.record(1, 7, 4, 4, AccessKind::Write);
        assert!(s.detect().1.is_empty());
    }

    #[test]
    fn different_windows_do_not_race() {
        let s = RaceState::new(2);
        s.record(0, 7, 0, 4, AccessKind::Write);
        s.record(1, 8, 0, 4, AccessKind::Write);
        assert!(s.detect().1.is_empty());
    }

    #[test]
    fn send_recv_orders_the_racing_pair() {
        let s = RaceState::new(2);
        s.record(0, 7, 0, 4, AccessKind::Write);
        let snap = s.on_send(0, "send to g1 tag 0".into());
        s.on_recv(1, Some(&snap), "recv from g0 tag 0".into());
        s.record(1, 7, 0, 4, AccessKind::Read);
        assert!(s.detect().1.is_empty());
    }

    #[test]
    fn access_after_send_is_not_ordered_before_receiver() {
        let s = RaceState::new(2);
        let snap = s.on_send(0, "send to g1 tag 0".into());
        s.record(0, 7, 0, 4, AccessKind::Write); // after the release
        s.on_recv(1, Some(&snap), "recv from g0 tag 0".into());
        s.record(1, 7, 0, 4, AccessKind::Read);
        let (_, reports) = s.detect();
        assert_eq!(reports.len(), 1, "post-send write must not be ordered");
    }

    #[test]
    fn fence_orders_all_members() {
        let s = RaceState::new(3);
        s.record(0, 7, 0, 6, AccessKind::Write);
        for r in 0..3 {
            s.fence_deposit(r, key(), 3);
        }
        for r in 0..3 {
            s.fence_join(r, key(), "oob fence #0".into());
        }
        for r in 1..3 {
            s.record(r, 7, 0, 6, AccessKind::Read);
        }
        assert!(s.detect().1.is_empty());
    }

    #[test]
    fn accesses_after_a_fence_remain_concurrent() {
        let s = RaceState::new(2);
        for r in 0..2 {
            s.fence_deposit(r, key(), 2);
        }
        for r in 0..2 {
            s.fence_join(r, key(), "oob fence #0".into());
        }
        s.record(0, 7, 0, 4, AccessKind::Write);
        s.record(1, 7, 0, 4, AccessKind::Write);
        assert_eq!(s.detect().1.len(), 1);
    }

    #[test]
    fn contiguous_same_epoch_accesses_coalesce() {
        let s = RaceState::new(1);
        for i in 0..100 {
            s.record(0, 7, i, 1, AccessKind::Write);
        }
        assert_eq!(s.detect().0, 1, "per-element loop must coalesce");
    }

    #[test]
    fn alternating_kinds_coalesce_within_the_merge_window() {
        let s = RaceState::new(1);
        // Per-element copy loop: read src cell, write dst cell.
        for i in 0..50 {
            s.record(0, 7, 100 + i, 1, AccessKind::Read);
            s.record(0, 7, i, 1, AccessKind::Write);
        }
        assert_eq!(s.detect().0, 2, "read and write streams must coalesce");
    }

    #[test]
    fn zero_length_accesses_are_ignored() {
        let s = RaceState::new(2);
        s.record(0, 7, 0, 0, AccessKind::Write);
        s.record(1, 7, 0, 0, AccessKind::Write);
        assert_eq!(s.detect(), (0, Vec::new()));
    }

    #[test]
    fn reports_are_canonical_and_capped() {
        let s = RaceState::new(2);
        for i in 0..100 {
            s.record(0, 7, 2 * i, 1, AccessKind::Write);
            s.on_send(0, format!("send to g1 tag {i}")); // split epochs: no coalescing
            s.record(1, 7, 2 * i, 1, AccessKind::Write);
            s.on_send(1, format!("send to g0 tag {i}"));
        }
        let (_, reports) = s.detect();
        assert_eq!(reports.len(), REPORT_CAP);
        let mut sorted = reports.clone();
        sorted.sort();
        assert_eq!(reports, sorted);
    }
}
