//! Per-rank incoming message queues with `(comm, src, tag)` matching.
//!
//! Under an adversarial [`crate::SchedulePolicy`], each mailbox may attach
//! a [`StageFuzz`]: arriving packets are withheld in a staging buffer and
//! flushed to the matchable queues in a seeded permutation. Per-key FIFO
//! order is always preserved (MPI's non-overtaking guarantee); only the
//! interleaving *across* keys — which is unordered anyway — is fuzzed.
//! Receivers force a flush before matching, so staging can delay a match
//! in wall-clock time but can never cause a spurious deadlock.

use crate::exec::{self, ExecCtl};
use crate::msg::Packet;
use simnet::rng::{mix, Rng64};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Matching key: (communicator context id, source rank in that
/// communicator, user tag).
pub(crate) type MatchKey = (u32, usize, u32);

/// Multiply-rotate hash of a [`MatchKey`]'s three small integers. The
/// keys are minted by the simulator itself (context ids, ranks, tags),
/// never taken from outside the program, so SipHash's protection against
/// crafted collisions buys nothing here and costs two rounds per message.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The multiply pushes entropy towards the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }
}

/// The packets queued under one key. Almost every key holds at most one
/// packet at a time (a collective round's message, a flag), so that one
/// lives in the map bucket itself; a queue is allocated only when a
/// second packet arrives before the first was matched.
#[derive(Debug)]
enum Slot {
    One(Packet),
    /// Two or more at the time of the spill; never empty.
    Many(VecDeque<Packet>),
}

/// Per-key FIFO packet queues: the matchable part of a [`Mailbox`] and
/// the progress engine's stash in [`crate::Ctx`]. Nothing iterates it —
/// every access names its key — so no observable order depends on the
/// hasher.
#[derive(Debug, Default)]
pub(crate) struct SlotMap {
    slots: HashMap<MatchKey, Slot, BuildHasherDefault<KeyHasher>>,
    /// Packets held over all keys.
    len: usize,
}

impl SlotMap {
    /// Queue `packet` behind whatever `key` already holds.
    pub(crate) fn push_back(&mut self, key: MatchKey, packet: Packet) {
        self.len += 1;
        match self.slots.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Slot::One(packet));
            }
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                let mut queue = match std::mem::replace(slot, Slot::Many(VecDeque::new())) {
                    // A key that queues two usually queues more (a sender
                    // streaming under one tag): start where a fresh
                    // `VecDeque` would, not at two.
                    Slot::One(first) => {
                        let mut queue = VecDeque::with_capacity(4);
                        queue.push_back(first);
                        queue
                    }
                    Slot::Many(queue) => queue,
                };
                queue.push_back(packet);
                *slot = Slot::Many(queue);
            }
        }
    }

    /// Take the oldest packet under `key`, dropping the entry (and a
    /// spilled queue) with its last packet.
    pub(crate) fn pop_front(&mut self, key: MatchKey) -> Option<Packet> {
        // `remove`, not `entry`: a miss must not reserve table space, and
        // the usual hit empties the slot anyway.
        let packet = match self.slots.remove(&key)? {
            Slot::One(packet) => packet,
            Slot::Many(mut queue) => {
                let packet = queue.pop_front()?;
                if !queue.is_empty() {
                    self.slots.insert(key, Slot::Many(queue));
                }
                packet
            }
        };
        self.len -= 1;
        Some(packet)
    }

    /// Packets held over all keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `key`'s packets have spilled into a queue (`None`: no
    /// packet under `key`).
    #[cfg(test)]
    fn spilled(&self, key: MatchKey) -> Option<bool> {
        self.slots.get(&key).map(|s| matches!(s, Slot::Many(_)))
    }
}

/// Seeded delivery-order fuzzing for one mailbox (see module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageFuzz {
    pub(crate) seed: u64,
    /// Flush whenever at least this many packets are staged (re-drawn per
    /// flush in `1..=max_stage`).
    pub(crate) max_stage: usize,
}

#[derive(Debug, Default)]
struct State {
    queues: SlotMap,
    /// Packets withheld by the fuzzer, in arrival order.
    staged: Vec<(MatchKey, Packet)>,
    /// Total pushes / flushes so far — the fuzzer's event counters.
    pushes: u64,
    flushes: u64,
}

impl State {
    /// Move every staged packet into the matchable queues, inserting
    /// key-groups in a seeded permutation while keeping arrival order
    /// within each key.
    fn flush(&mut self, fuzz: &StageFuzz) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        // Group by key, preserving in-key arrival order.
        let mut keys: Vec<MatchKey> = Vec::new();
        let mut groups: HashMap<MatchKey, Vec<Packet>> = HashMap::new();
        for (key, packet) in staged {
            groups.entry(key).or_insert_with(|| {
                keys.push(key);
                Vec::new()
            });
            groups.get_mut(&key).unwrap().push(packet);
        }
        let mut rng = Rng64::new(mix(fuzz.seed, self.flushes, 0, 0xF1A5));
        rng.shuffle(&mut keys);
        self.flushes += 1;
        for key in keys {
            for packet in groups.remove(&key).unwrap() {
                self.queues.push_back(key, packet);
            }
        }
    }
}

/// One rank's incoming mailbox.
///
/// Senders push eagerly (never block); receivers block until a matching
/// packet exists or the deadlock timeout fires. Matching is exact — there
/// is no `ANY_SOURCE`/`ANY_TAG` — which is what makes the whole simulation
/// deterministic.
#[derive(Debug)]
pub(crate) struct Mailbox {
    state: Mutex<State>,
    arrived: Condvar,
    fuzz: Option<StageFuzz>,
    /// Global rank this mailbox belongs to — the rank the executor wakes
    /// when a packet arrives.
    owner: usize,
    exec: ExecCtl,
}

impl Mailbox {
    /// The mailbox of global rank `owner`, blocking through `exec`,
    /// optionally fuzzing its delivery order per `fuzz`.
    pub(crate) fn new(owner: usize, exec: ExecCtl, fuzz: Option<StageFuzz>) -> Self {
        Self {
            state: Mutex::new(State::default()),
            arrived: Condvar::new(),
            fuzz,
            owner,
            exec,
        }
    }

    /// A thread-mode mailbox for unit tests (pop blocks on the condvar).
    #[cfg(test)]
    pub(crate) fn unpooled(fuzz: Option<StageFuzz>) -> Self {
        Self::new(0, ExecCtl::Threads, fuzz)
    }

    // A rank killed by fault injection may die while holding a mailbox
    // lock; the state is never left torn (all mutations complete before
    // any panic point), so peers may safely clear the poison and keep
    // draining — which is what lets Universe::run report the failure
    // instead of deadlocking on a poisoned mutex.
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposit a packet (called from the sender's thread/coroutine).
    pub(crate) fn push(&self, key: MatchKey, packet: Packet) {
        let mut s = self.lock();
        s.pushes += 1;
        match self.fuzz {
            None => s.queues.push_back(key, packet),
            Some(fuzz) => {
                s.staged.push((key, packet));
                let threshold = 1 + (mix(fuzz.seed, s.pushes, 0, 0x7B05) as usize) % fuzz.max_stage;
                if s.staged.len() >= threshold {
                    s.flush(&fuzz);
                }
            }
        }
        if self.exec.parks_ranks() {
            drop(s);
            // The owner may be parked in `pop`; hand the wake to the
            // executor after releasing the mailbox lock. Nobody ever
            // waits on `arrived` in pooled mode, so skip the notify —
            // futex condvars pay a syscall per notify even with no
            // waiters, and pushes are the hottest path in the simulator.
            self.exec.wake(self.owner);
        } else {
            self.arrived.notify_all();
        }
    }

    /// Pop a packet matching `key` if one is immediately matchable
    /// (flushing staged packets first, as any blocking receiver would).
    fn try_pop(s: &mut State, fuzz: Option<StageFuzz>, key: MatchKey) -> Option<Packet> {
        if let Some(fuzz) = fuzz {
            // The receiver is about to block: everything that has
            // arrived must become matchable, else staging could turn
            // a valid schedule into a timeout.
            s.flush(&fuzz);
        }
        s.queues.pop_front(key)
    }

    /// Block until a packet matching `key` is available, or `timeout`
    /// elapses (returns `None` — the caller reports a deadlock). In
    /// pooled mode "block" means parking the calling coroutine, freeing
    /// its worker thread to run other ranks. A zero `timeout` looks once
    /// and never blocks or parks: the claim primitive of the per-rank
    /// progress engine and of polls (staged fuzz packets are flushed
    /// first, exactly as for a blocking receiver, so polling can never
    /// turn a valid schedule into a timeout).
    pub(crate) fn pop(&self, key: MatchKey, timeout: Duration) -> Option<Packet> {
        let mut s = self.lock();
        if let Some(packet) = Self::try_pop(&mut s, self.fuzz, key) {
            return Some(packet);
        }
        // Only a receiver that has to wait reads the wall clock.
        if timeout.is_zero() {
            return None;
        }
        let deadline = Instant::now() + timeout;
        if self.exec.parks_ranks() {
            drop(s);
            return self.pop_parked(key, deadline);
        }
        let mut remaining = timeout;
        loop {
            s = self
                .arrived
                .wait_timeout(s, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            // Recheck the queue *before* the deadline: a push that raced
            // the deadline must deliver, not time out.
            if let Some(packet) = Self::try_pop(&mut s, self.fuzz, key) {
                return Some(packet);
            }
            remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
        }
    }

    /// The wait half of [`Mailbox::pop`] under a parking executor, entered
    /// after a first match attempt missed.
    fn pop_parked(&self, key: MatchKey, deadline: Instant) -> Option<Packet> {
        loop {
            // A push that landed since the miss (between unlock and park)
            // still wakes us: the executor records the wake token against
            // our Running state and re-readies the park immediately.
            exec::park_current(deadline);
            let mut s = self.lock();
            // Recheck the queue *before* the deadline: a wake that raced
            // the deadline must deliver, not time out.
            if let Some(packet) = Self::try_pop(&mut s, self.fuzz, key) {
                return Some(packet);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Number of queued packets, staged or matchable (diagnostics).
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        let s = self.lock();
        s.queues.len() + s.staged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;
    use simnet::rng::check_cases;
    use std::cell::Cell;
    use std::sync::Arc;

    fn pkt(src: usize, tag: u32) -> Packet {
        Packet {
            src,
            tag,
            payload: Payload::empty(),
            arrival: 0.0,
            vc: None,
            beat: None,
        }
    }

    #[test]
    fn push_pop_matches_by_key() {
        let mb = Mailbox::unpooled(None);
        mb.push((0, 1, 7), pkt(1, 7));
        mb.push((0, 2, 7), pkt(2, 7));
        let got = mb.pop((0, 2, 7), Duration::from_secs(1)).unwrap();
        assert_eq!(got.src, 2);
        assert_eq!(mb.queued(), 1);
    }

    #[test]
    fn fifo_within_a_key() {
        let mb = Mailbox::unpooled(None);
        let mut a = pkt(0, 0);
        a.arrival = 1.0;
        let mut b = pkt(0, 0);
        b.arrival = 2.0;
        mb.push((0, 0, 0), a);
        mb.push((0, 0, 0), b);
        assert_eq!(
            mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap().arrival,
            1.0
        );
        assert_eq!(
            mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap().arrival,
            2.0
        );
    }

    #[test]
    fn timeout_returns_none() {
        let mb = Mailbox::unpooled(None);
        assert!(mb.pop((0, 0, 0), Duration::from_millis(10)).is_none());
    }

    #[test]
    fn cross_thread_delivery() {
        let mb = Arc::new(Mailbox::unpooled(None));
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.pop((1, 0, 3), Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        mb.push((1, 0, 3), pkt(0, 3));
        assert!(h.join().unwrap().is_some());
    }

    #[test]
    fn fuzzed_mailbox_preserves_per_key_fifo() {
        for seed in 0..32 {
            let mb = Mailbox::unpooled(Some(StageFuzz { seed, max_stage: 4 }));
            // Interleave two streams; each must stay FIFO within its key.
            for i in 0..10 {
                let mut a = pkt(0, 0);
                a.arrival = i as f64;
                mb.push((0, 0, 0), a);
                let mut b = pkt(1, 0);
                b.arrival = 100.0 + i as f64;
                mb.push((0, 1, 0), b);
            }
            for i in 0..10 {
                let a = mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap();
                assert_eq!(a.arrival, i as f64, "seed {seed}: key (0,0,0) reordered");
                let b = mb.pop((0, 1, 0), Duration::from_secs(1)).unwrap();
                assert_eq!(
                    b.arrival,
                    100.0 + i as f64,
                    "seed {seed}: key (0,1,0) reordered"
                );
            }
            assert_eq!(mb.queued(), 0);
        }
    }

    #[test]
    fn fuzzed_mailbox_actually_stages() {
        // With max_stage = 8 and a single push, the packet usually stays
        // staged until a pop forces the flush; verify the staging path and
        // that pop still finds the packet.
        let mut staged_at_least_once = false;
        for seed in 0..16 {
            let mb = Mailbox::unpooled(Some(StageFuzz { seed, max_stage: 8 }));
            mb.push((0, 0, 0), pkt(0, 0));
            let s = mb.lock();
            staged_at_least_once |= !s.staged.is_empty();
            drop(s);
            assert!(mb.pop((0, 0, 0), Duration::from_secs(1)).is_some());
        }
        assert!(
            staged_at_least_once,
            "staging never engaged across 16 seeds"
        );
    }

    #[test]
    fn fuzzed_cross_thread_delivery_under_load() {
        for seed in [3u64, 17, 99] {
            let mb = Arc::new(Mailbox::unpooled(Some(StageFuzz { seed, max_stage: 4 })));
            let mb2 = Arc::clone(&mb);
            let h = std::thread::spawn(move || {
                (0..50)
                    .map(|i| mb2.pop((0, 0, i), Duration::from_secs(5)).unwrap().src)
                    .collect::<Vec<_>>()
            });
            for i in 0..50u32 {
                mb.push((0, 0, i), pkt(i as usize, i));
            }
            let got = h.join().unwrap();
            assert_eq!(got, (0..50usize).collect::<Vec<_>>());
        }
    }

    /// Random push/pop interleavings over a few keys against a per-key
    /// `VecDeque` model: pops come back in per-key FIFO order, a pop on
    /// an empty key (zero timeout) misses at once, `queued()` matches the
    /// model after every step — fuzzed or not — and the slots really go
    /// inline → spilled → inline again along the way.
    #[test]
    fn random_interleavings_match_a_per_key_fifo_model() {
        for fuzzed in [false, true] {
            let cycled = Cell::new(false);
            check_cases(0x5107, 200, |rng| {
                let fuzz = fuzzed.then(|| StageFuzz {
                    seed: rng.next_u64(),
                    max_stage: rng.usize_in(1, 5),
                });
                let mb = Mailbox::unpooled(fuzz);
                let nkeys = rng.usize_in(1, 5);
                let keys: Vec<MatchKey> = (0..nkeys).map(|k| (k as u32 % 2, k, 7)).collect();
                let mut model = vec![VecDeque::new(); nkeys];
                // Per key: the distinct slot shapes seen so far, as
                // spilled-or-not (an emptied key does not reset it).
                let mut shapes: Vec<Vec<bool>> = vec![Vec::new(); nkeys];
                let mut stamp = 0.0;
                for _ in 0..rng.usize_in(20, 120) {
                    let k = rng.usize_in(0, nkeys);
                    if model[k].len() < 5 && rng.chance(0.55) {
                        stamp += 1.0;
                        let mut p = pkt(keys[k].1, keys[k].2);
                        p.arrival = stamp;
                        mb.push(keys[k], p);
                        model[k].push_back(stamp);
                    } else {
                        let got = mb.pop(keys[k], Duration::ZERO).map(|p| p.arrival);
                        assert_eq!(got, model[k].pop_front(), "key {k} lost FIFO order");
                    }
                    assert_eq!(mb.queued(), model.iter().map(VecDeque::len).sum::<usize>());
                    let s = mb.lock();
                    for (key, seen) in keys.iter().zip(&mut shapes) {
                        if let Some(spilled) = s.queues.spilled(*key) {
                            if seen.last() != Some(&spilled) {
                                seen.push(spilled);
                            }
                        }
                    }
                }
                if shapes
                    .iter()
                    .any(|seen| seen.starts_with(&[false, true, false]))
                {
                    cycled.set(true);
                }
            });
            assert!(
                cycled.get(),
                "fuzzed={fuzzed}: no key ever went inline -> spilled -> inline"
            );
        }
    }
}
