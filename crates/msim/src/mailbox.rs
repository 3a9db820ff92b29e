//! Per-rank incoming message queues with `(comm, src, tag)` matching.
//!
//! Packets are matchable the moment they are pushed, in per-key FIFO
//! order (MPI's non-overtaking guarantee). Every access names its key and
//! nothing iterates the queues, so the order *across* keys is never
//! observed — which is why schedule fuzzing perturbs who runs when, not
//! the mailboxes.
//!
//! A push wakes the owner only when the owner is blocked on the pushed
//! key (`Waiter::Blocked`), and then hands it the packet directly
//! (`Waiter::Handed`): the packet never enters the table. A receiver
//! that is running, or waiting on some other key, finds the packet the
//! next time it looks, so waking it would only cost the scheduler lock
//! and a resume that re-parks.

use crate::exec::{self, PoolCore, Woke};
use crate::hash::KeyMap;
use crate::msg::Packet;
use std::cell::UnsafeCell;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Matching key: (communicator context id, source rank in that
/// communicator, user tag). Ranks fit in `u32`: the universe checks its
/// rank count once, when it is built.
pub(crate) type MatchKey = (u32, u32, u32);

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
    slots: KeyMap<MatchKey, Slot>,
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

/// A test-and-set lock: one `compare_exchange` to take it, one
/// `Release` store to give it back (the unlock of `std`'s futex mutex is
/// an `xchg`, a full barrier, because it must learn whether to wake a
/// sleeper). A mailbox is held for a table operation and nothing else —
/// never across a park or a wake — so a contender spins briefly and then
/// yields its thread rather than sleeping.
///
/// There is no poisoning: the guard releases on drop, unwinding
/// included, and every critical section completes its mutation before
/// any point that can panic, so a rank that dies holding it (an injected
/// kill, an allocation failure) leaves the state whole and the lock
/// free for the peers that keep draining — which is what lets
/// `Universe::run` report the failure instead of hanging.
struct SpinLock<T> {
    held: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: `value` is only reached through a `SpinGuard`, and `held`
// admits one guard at a time (acquired with `Acquire`, released with
// `Release`, so each holder sees its predecessor's writes). `T: Send`
// because the value is handed from thread to thread.
unsafe impl<T: Send> Sync for SpinLock<T> {}

/// Tries before a contender yields its thread.
const SPINS: u32 = 64;

impl<T> SpinLock<T> {
    fn new(value: T) -> Self {
        Self {
            held: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    fn lock(&self) -> SpinGuard<'_, T> {
        if self
            .held
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.contend();
        }
        SpinGuard { lock: self }
    }

    #[cold]
    fn contend(&self) {
        loop {
            for _ in 0..SPINS {
                std::hint::spin_loop();
                if !self.held.load(Ordering::Relaxed)
                    && self
                        .held
                        .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    return;
                }
            }
            std::thread::yield_now();
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpinLock")
            .field("held", &self.held.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard is the one holder of the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard is the one holder of the lock.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.held.store(false, Ordering::Release);
    }
}

/// What the owner of a mailbox is doing about it.
#[derive(Debug, Default)]
enum Waiter {
    /// Running, ready, or parked on something other than this mailbox.
    #[default]
    Idle,
    /// Parked on a miss for this key: the next push of it goes here, not
    /// into the table. Nothing is queued under the key meanwhile (the
    /// miss found it empty, and every push of it since was handed over),
    /// so handing the packet over keeps per-key FIFO order.
    Blocked(MatchKey),
    /// The packet the push of the awaited key handed over, for the owner
    /// to take when it resumes, before it looks in the table: a later
    /// push of the same key queues behind it there.
    Handed(Packet),
}

#[derive(Debug, Default)]
struct State {
    queues: SlotMap,
    waiter: Waiter,
}

/// One rank's incoming mailbox.
///
/// Senders push eagerly (never block); receivers block until a matching
/// packet exists or the deadlock timeout fires. Matching is exact — there
/// is no `ANY_SOURCE`/`ANY_TAG` — which is what makes the whole simulation
/// deterministic.
#[derive(Debug)]
pub(crate) struct Mailbox {
    state: SpinLock<State>,
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
            state: SpinLock::new(State::default()),
            owner,
            exec,
        }
    }

    fn lock(&self) -> SpinGuard<'_, State> {
        self.state.lock()
    }

    /// Deposit a packet (called from the sender's thread/coroutine).
    pub(crate) fn push(&self, key: MatchKey, packet: Packet) {
        let mut s = self.lock();
        // Wake the owner only if it is blocked on this very key, and hand
        // it the packet (at most once per miss: the handoff ends
        // `Blocked`). A receiver that is running, or waiting on another
        // key, finds the packet when it next looks; rendezvous and FT
        // waits have wakers of their own. So a packet that is already
        // there when its receiver looks costs this lock and the pop's,
        // and nothing else.
        if !matches!(s.waiter, Waiter::Blocked(k) if k == key) {
            s.queues.push_back(key, packet);
            return;
        }
        s.waiter = Waiter::Handed(packet);
        drop(s);
        // After releasing the mailbox lock: the executor's wake takes
        // the core lock.
        self.exec.wake(self.owner);
    }

    /// Take the oldest packet matching `key`, parking until one is
    /// pushed if there is none. "Park" frees the calling coroutine's
    /// worker to run other ranks. The park ends with the packet, or
    /// without it when the owner is woken for some other reason (a death,
    /// a stale wake token: `Err(Woke::Signal)`, for the caller to recheck
    /// what it waits for and call again) or when the pool stalls for
    /// `budget` (`Err(Woke::Expired)`). A zero budget looks once and never
    /// parks: the claim primitive of the per-rank progress engine and of
    /// polls.
    pub(crate) fn pop(&self, key: MatchKey, budget: Duration) -> Result<Packet, Woke> {
        let mut s = self.lock();
        if let Some(packet) = s.queues.pop_front(key) {
            return Ok(packet);
        }
        if budget.is_zero() {
            return Err(Woke::Expired);
        }
        // Missed: until the owner looks again, a push of `key` is the one
        // that wakes it, and hands it the packet.
        s.waiter = Waiter::Blocked(key);
        drop(s);
        // A push that lands between unlock and park still wakes us: the
        // executor records the wake token against our Running state and
        // re-readies the park immediately.
        let woke = exec::park_current(budget);
        // The handed packet first, even past the budget: a push that
        // raced the expiry must deliver, not time out. Nothing of `key`
        // can be in the table (see `Waiter::Blocked`).
        match std::mem::take(&mut self.lock().waiter) {
            Waiter::Handed(packet) => Ok(packet),
            _ => Err(woke),
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
    use crate::universe::{Shared, SimConfig, SimResult, Universe};
    use crate::ExecMode;
    use simnet::rng::check_cases;
    use simnet::{ClusterSpec, CostModel, Placement};
    use std::cell::Cell;

    const LOOK: Duration = Duration::ZERO;
    const PATIENT: Duration = Duration::from_secs(5);

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
        let got = mb.pop((0, 2, 7), PATIENT).unwrap();
        assert_eq!(got.arrival, 2.0);
        assert_eq!(mb.queued(), 1);
    }

    #[test]
    fn fifo_within_a_key() {
        let mb = unparked();
        mb.push((0, 0, 0), pkt(1.0));
        mb.push((0, 0, 0), pkt(2.0));
        assert_eq!(mb.pop((0, 0, 0), PATIENT).unwrap().arrival, 1.0);
        assert_eq!(mb.pop((0, 0, 0), PATIENT).unwrap().arrival, 2.0);
    }

    /// Two ranks of one node on a pool of `workers`, the whole result
    /// kept: its counters are what the handoff tests read.
    fn run_two<T: Send>(
        workers: usize,
        f: impl Fn(&Shared, usize) -> T + Send + Sync,
    ) -> SimResult<T> {
        let cfg = SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test())
            .phantom()
            .with_exec(ExecMode::Pooled {
                workers: Some(workers),
            });
        Universe::run(cfg, |ctx| f(ctx.shared(), ctx.rank())).unwrap()
    }

    /// Spin (yielding the thread) until the owner of `mb` is parked on a
    /// miss. At width 1 it already is when the pusher runs: the pool
    /// runs rank 0 first.
    fn await_blocked(mb: &Mailbox) {
        while !matches!(mb.lock().waiter, Waiter::Blocked(_)) {
            std::thread::yield_now();
        }
    }

    /// A mailbox entry costs a rank 128 bytes at most, the handoff slot
    /// included.
    #[test]
    fn a_mailbox_fits_in_128_bytes() {
        assert!(std::mem::size_of::<Mailbox>() <= 128);
    }

    /// The push that meets its receiver blocked on its key hands the
    /// packet over: it never enters the table, and it costs the one wake
    /// it always did, at every pool width.
    #[test]
    fn a_receiver_blocked_on_its_key_is_handed_the_packet() {
        const KEY: MatchKey = (1, 0, 3);
        for workers in [1, 2] {
            let r = run_two(workers, |shared, rank| {
                let mb = &shared.mailboxes[0];
                if rank == 0 {
                    return mb.pop(KEY, PATIENT).ok().map(|p| p.arrival);
                }
                await_blocked(mb);
                mb.push(KEY, pkt(3.0));
                assert_eq!(mb.queued(), 0, "width {workers}: the packet was tabled");
                if workers == 1 {
                    assert!(matches!(mb.lock().waiter, Waiter::Handed(_)));
                }
                None
            });
            assert_eq!(r.per_rank, [Some(3.0), None], "width {workers}");
            assert_eq!(r.stats.wakes, 1, "width {workers}");
        }
    }

    /// A second push of the awaited key, landing before the woken
    /// receiver runs, queues in the table behind the handed packet: the
    /// receiver takes the two in push order.
    #[test]
    fn a_push_behind_a_handed_packet_keeps_fifo_order() {
        const KEY: MatchKey = (1, 0, 3);
        for workers in [1, 2] {
            let r = run_two(workers, |shared, rank| {
                let mb = &shared.mailboxes[0];
                if rank == 0 {
                    return [KEY, KEY]
                        .map(|k| mb.pop(k, PATIENT).ok().map(|p| p.arrival))
                        .to_vec();
                }
                await_blocked(mb);
                mb.push(KEY, pkt(1.0));
                mb.push(KEY, pkt(2.0));
                if workers == 1 {
                    let s = mb.lock();
                    assert!(matches!(s.waiter, Waiter::Handed(_)));
                    assert_eq!(s.queues.len(), 1);
                }
                vec![]
            });
            assert_eq!(r.per_rank[0], [Some(1.0), Some(2.0)], "width {workers}");
        }
    }

    /// The lock has no poison to clear: a panic while its guard is held
    /// releases it on the way out, and the mailbox keeps its packets and
    /// its order.
    #[test]
    fn a_panic_under_the_lock_leaves_the_mailbox_usable() {
        let mb = unparked();
        mb.push((0, 0, 0), pkt(1.0));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = mb.lock();
            panic!("a rank dies holding its mailbox");
        }));
        assert!(died.is_err());
        mb.push((0, 0, 0), pkt(2.0));
        let got: Vec<_> = (0..3)
            .map(|_| mb.pop((0, 0, 0), LOOK).ok().map(|p| p.arrival))
            .collect();
        assert_eq!(got, [Some(1.0), Some(2.0), None]);
    }

    /// A pop that waits parks its rank until the pool stalls for its
    /// budget, then misses.
    #[test]
    fn timeout_returns_expired() {
        for workers in [1, 2] {
            let got = on_ranks(2, workers, |shared, rank| {
                shared.mailboxes[rank].pop((0, 0, 0), Duration::from_millis(10))
            });
            let expired: Vec<_> = got.unwrap().into_iter().map(|r| r.err()).collect();
            assert_eq!(expired, [Some(Woke::Expired); 2], "width {workers}");
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
                        .pop((1, 0, 3), PATIENT)
                        .ok()
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
                    let got = mb.pop(keys[k], LOOK).ok().map(|p| p.arrival);
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
