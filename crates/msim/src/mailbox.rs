//! Per-rank incoming message queues with `(comm, src, tag)` matching.
//!
//! Packets are matchable the moment they are pushed, in per-key FIFO
//! order (MPI's non-overtaking guarantee). Every access names its key and
//! nothing iterates the queues, so the order *across* keys is never
//! observed — which is why schedule fuzzing perturbs who runs when, not
//! the mailboxes.
//!
//! A push wakes the owner only when the owner is blocked on the pushed
//! key (`State::awaiting`). A receiver that is running, or waiting on
//! some other key, finds the packet the next time it looks, so waking it
//! would only cost the scheduler lock and a resume that re-parks.

use crate::exec::{self, PoolCore};
use crate::msg::Packet;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Matching key: (communicator context id, source rank in that
/// communicator, user tag). Ranks fit in `u32`: the universe checks its
/// rank count once, when it is built.
pub(crate) type MatchKey = (u32, u32, u32);

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
        // Not `entry`: a miss must not reserve table space. A spilled
        // queue with more to come pops in place — in a ring pipeline
        // every packet takes this path — and only the emptying pop
        // removes the entry.
        let packet = match self.slots.get_mut(&key)? {
            Slot::Many(queue) if queue.len() > 1 => queue.pop_front()?,
            _ => match self.slots.remove(&key)? {
                Slot::One(packet) => packet,
                Slot::Many(mut queue) => queue.pop_front()?,
            },
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

#[derive(Debug, Default)]
struct State {
    queues: SlotMap,
    /// The key the owner is blocked on: set when its match misses and it
    /// is about to park, taken by the push that wakes it, cleared
    /// whenever the owner looks again.
    awaiting: Option<MatchKey>,
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
    /// Global rank this mailbox belongs to — the rank the executor wakes
    /// when a packet arrives.
    owner: usize,
    exec: Arc<PoolCore>,
}

impl Mailbox {
    /// The mailbox of global rank `owner`, parking and waking through
    /// `exec`.
    pub(crate) fn new(owner: usize, exec: Arc<PoolCore>) -> Self {
        Self {
            state: Mutex::new(State::default()),
            owner,
            exec,
        }
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
        s.queues.push_back(key, packet);
        // Wake the owner only if it is blocked on this very key (at most
        // once per miss: the wake takes `awaiting`). A receiver that is
        // running, or waiting on another key, finds the packet when it
        // next looks; rendezvous and FT waits have wakers and deadlines
        // of their own. So a packet that is already there when its
        // receiver looks costs this lock and the pop's, and nothing else.
        if s.awaiting != Some(key) {
            return;
        }
        s.awaiting = None;
        drop(s);
        // After releasing the mailbox lock: the executor's wake takes
        // the core lock.
        self.exec.wake(self.owner);
    }

    /// Block until a packet matching `key` is available, or `timeout`
    /// elapses (returns `None` — the caller reports a deadlock). "Block"
    /// means parking the calling coroutine, freeing its worker thread to
    /// run other ranks. A zero `timeout` looks once
    /// and never blocks or parks: the claim primitive of the per-rank
    /// progress engine and of polls.
    pub(crate) fn pop(&self, key: MatchKey, timeout: Duration) -> Option<Packet> {
        let mut s = self.lock();
        if let Some(packet) = s.queues.pop_front(key) {
            return Some(packet);
        }
        // Only a receiver that has to wait reads the wall clock.
        if timeout.is_zero() {
            return None;
        }
        let deadline = Instant::now() + timeout;
        loop {
            // Missed: until the owner looks again, a push of `key` is
            // the one that wakes it.
            s.awaiting = Some(key);
            drop(s);
            // A push that lands between unlock and park still wakes us:
            // the executor records the wake token against our Running
            // state and re-readies the park immediately.
            exec::park_current(deadline);
            s = self.lock();
            s.awaiting = None;
            // Recheck the queue *before* the deadline: a push that raced
            // the deadline must deliver, not time out.
            if let Some(packet) = s.queues.pop_front(key) {
                return Some(packet);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Number of queued packets (diagnostics).
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.lock().queues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PickPolicy;
    use crate::msg::Payload;
    use crate::universe::tests::on_ranks;
    use simnet::rng::check_cases;
    use simnet::{ClusterSpec, Placement};
    use std::cell::Cell;

    /// The mailbox of the only rank of a one-rank core: enough for tests
    /// whose pops never wait (the push of an unawaited key wakes nobody).
    fn unparked() -> Mailbox {
        let map = Placement::SmpBlock.build(&ClusterSpec::regular(1, 1));
        Mailbox::new(0, Arc::new(PoolCore::new(&map, PickPolicy::Fifo, 1)))
    }

    fn pkt(arrival: f64) -> Packet {
        Packet {
            payload: Payload::empty(),
            arrival,
            vc: None,
            beat: None,
        }
    }

    /// A queued packet and its key together are what a table bucket
    /// holds; after a world barrier a rank's mailbox holds 16–32 of them,
    /// most of a rank's heap at scale.
    #[test]
    fn a_keyed_slot_fits_in_80_bytes() {
        assert!(std::mem::size_of::<(MatchKey, Slot)>() <= 80);
    }

    #[test]
    fn push_pop_matches_by_key() {
        let mb = unparked();
        mb.push((0, 1, 7), pkt(1.0));
        mb.push((0, 2, 7), pkt(2.0));
        let got = mb.pop((0, 2, 7), Duration::from_secs(1)).unwrap();
        assert_eq!(got.arrival, 2.0);
        assert_eq!(mb.queued(), 1);
    }

    #[test]
    fn fifo_within_a_key() {
        let mb = unparked();
        mb.push((0, 0, 0), pkt(1.0));
        mb.push((0, 0, 0), pkt(2.0));
        assert_eq!(
            mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap().arrival,
            1.0
        );
        assert_eq!(
            mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap().arrival,
            2.0
        );
    }

    /// A pop that waits parks its rank until the deadline, then misses.
    #[test]
    fn timeout_returns_none() {
        for workers in [1, 2] {
            let got = on_ranks(2, workers, |shared, rank| {
                shared.mailboxes[rank]
                    .pop((0, 0, 0), Duration::from_millis(10))
                    .is_none()
            });
            assert_eq!(got.unwrap(), vec![true, true], "width {workers}");
        }
    }

    /// A receiver parked on its key is woken by the push of that key
    /// from another rank, at every pool width.
    #[test]
    fn cross_rank_delivery() {
        for workers in [1, 2] {
            let got = on_ranks(2, workers, |shared, rank| {
                if rank == 0 {
                    shared.mailboxes[0]
                        .pop((1, 0, 3), Duration::from_secs(5))
                        .map(|p| p.arrival)
                } else {
                    shared.mailboxes[0].push((1, 0, 3), pkt(3.0));
                    None
                }
            });
            assert_eq!(got.unwrap(), vec![Some(3.0), None], "width {workers}");
        }
    }

    /// Random push/pop interleavings over a few keys against a per-key
    /// `VecDeque` model: pops come back in per-key FIFO order, a pop on
    /// an empty key (zero timeout) misses at once, `queued()` matches the
    /// model after every step, and the slots really go inline → spilled →
    /// inline again along the way, with spilled queues growing past their
    /// initial capacity of four and draining in place, as a ring
    /// pipeline's do.
    #[test]
    fn random_interleavings_match_a_per_key_fifo_model() {
        let (cycled, deepest) = (Cell::new(false), Cell::new(0));
        check_cases(0x5107, 200, |rng| {
            let mb = unparked();
            let nkeys = rng.usize_in(1, 5);
            let keys: Vec<MatchKey> = (0..nkeys as u32).map(|k| (k % 2, k, 7)).collect();
            let mut model = vec![VecDeque::new(); nkeys];
            // Per key: the distinct slot shapes seen so far, as
            // spilled-or-not (an emptied key does not reset it).
            let mut shapes: Vec<Vec<bool>> = vec![Vec::new(); nkeys];
            let mut stamp = 0.0;
            for _ in 0..rng.usize_in(20, 120) {
                let k = rng.usize_in(0, nkeys);
                if model[k].len() < 40 && rng.chance(0.55) {
                    stamp += 1.0;
                    mb.push(keys[k], pkt(stamp));
                    model[k].push_back(stamp);
                    deepest.set(deepest.get().max(model[k].len()));
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
        assert!(cycled.get(), "no key ever went inline -> spilled -> inline");
        assert!(deepest.get() > 8, "no queue outgrew its initial capacity");
    }
}
