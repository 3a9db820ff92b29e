//! Per-rank incoming message queues with `(comm, src, tag)` matching.
//!
//! Packets are matchable the moment they are pushed, in per-key FIFO
//! order (MPI's non-overtaking guarantee). Every access names its key and
//! nothing iterates the queues, so the order *across* keys is never
//! observed — which is why schedule fuzzing perturbs who runs when, not
//! the mailboxes.
//!
//! The queues are one open-addressed table per mailbox ([`SlotMap`]): a
//! power-of-two array of `(key, first and last packet)` entries, probed
//! linearly from a one-multiply hash of the key, over a slab of packet
//! nodes that threads each key's FIFO. Every push and every pop is one
//! probe, and once the slab has grown to a rank's usual depth neither
//! allocates.
//!
//! A push wakes the owner only when the owner is blocked on the pushed
//! key (`Waiter::Blocked`), and then hands it the packet directly
//! (`Waiter::Handed`): the packet never enters the table. A receiver
//! that is running, or waiting on some other key, finds the packet the
//! next time it looks, so waking it would only cost the scheduler lock
//! and a resume that re-parks.

use crate::exec::{self, PoolCore, Woke};
use crate::msg::Packet;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Matching key: (communicator context id, source rank in that
/// communicator, user tag). Ranks fit in `u32`: the universe checks its
/// rank count once, when it is built.
pub(crate) type MatchKey = (u32, u32, u32);

/// No node: the end of a slab list, and the `head` of a vacant entry.
const NIL: u32 = u32::MAX;

/// Entries of a table's first allocation.
const MIN_ENTRIES: usize = 8;

/// Most keys a table of `entries` holds before it doubles: three
/// quarters full, where a linear probe stays short. Four in five
/// mailboxes of a 4096-rank world never hold more than six keys at once,
/// so they never leave their first allocation.
fn max_keys(entries: usize) -> usize {
    entries / 4 * 3
}

/// Slab nodes a table keeps once it has drained. A larger slab — a ring
/// burst, a flood under one key — is compacted into a fresh one this
/// size as it drains, so the heap does not keep every rank's deepest
/// burst at once.
const SLAB_FLOOR: usize = 8;

/// The packets of one key, oldest first, as a list through the slab.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

/// A table entry; vacant when `head` is [`NIL`].
type Entry = (MatchKey, Fifo);

const VACANT: Entry = (
    (0, 0, 0),
    Fifo {
        head: NIL,
        tail: NIL,
    },
);

/// The entry `key`'s probe starts at in a table of `size` entries: the
/// top bits of one multiply (Fibonacci hashing), which every bit of the
/// key reaches. The entry of a table of half the size is the same bits
/// but the last. (On the never-allocated table the shift is zero, and
/// nobody reads the index.)
///
/// No two fields that sit side by side in the key meet in one operand:
/// the compiler would read them with one 8-byte load, and a key just
/// written field by field cannot be forwarded to it from the store
/// buffer — that stall was the hottest sampled instruction of a receive.
fn home(key: MatchKey, size: usize) -> usize {
    let (comm, src, tag) = key;
    let x = (u64::from(tag) << 32 | u64::from(comm)) ^ u64::from(src) << 16;
    (x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - size.trailing_zeros())) as usize
}

/// One slab slot: a packet and the next node of its list — the key's
/// FIFO, or the free list when `packet` is `None`.
#[derive(Debug)]
struct Node {
    packet: Option<Packet>,
    next: u32,
}

/// Per-key FIFO packet queues: the matchable part of a [`Mailbox`] and
/// the progress engine's stash in [`crate::Ctx`].
///
/// A power-of-two array of entries, each a key and the first and last
/// node of its packets in `slab`. A key's home entry is the top bits of
/// one multiply of its three integers; a lookup probes linearly from
/// there to the key or to a vacant entry, and a removal shifts the
/// entries behind it back (no tombstones), so every probe ends at most
/// a run of occupied entries later. Packets sit in slab nodes, threaded
/// per key; freed nodes go on a free list. Every access names its key —
/// only a doubling walks the entries, to rehash them — so no observable
/// order depends on the hash.
#[derive(Debug)]
pub(crate) struct SlotMap {
    /// Empty until the first push.
    entries: Box<[Entry]>,
    slab: Vec<Node>,
    /// First free node of `slab`.
    free: u32,
    /// Occupied entries.
    keys: u32,
    /// Packets held under keys.
    len: u32,
    /// Nodes held by no key (see [`SlotMap::hold`]).
    loose: u32,
}

impl Default for SlotMap {
    fn default() -> Self {
        Self {
            entries: Box::default(),
            slab: Vec::new(),
            free: NIL,
            keys: 0,
            len: 0,
            loose: 0,
        }
    }
}

impl SlotMap {
    /// The entry holding `key`, or the vacant entry where its probe
    /// ended.
    fn probe(&self, key: MatchKey) -> Result<usize, usize> {
        let mask = self.entries.len().wrapping_sub(1);
        let mut i = home(key, self.entries.len());
        if self.keys == 0 {
            return Err(i);
        }
        loop {
            let (k, fifo) = &self.entries[i];
            if fifo.head == NIL {
                return Err(i);
            }
            if *k == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// A node holding `packet`, off the free list if it has one.
    #[inline]
    fn alloc(&mut self, packet: Packet) -> u32 {
        if self.free == NIL {
            if self.slab.len() == self.slab.capacity() {
                self.grow_slab();
            }
            self.slab.push(Node {
                packet: Some(packet),
                next: NIL,
            });
            return (self.slab.len() - 1) as u32;
        }
        let n = self.free;
        let node = &mut self.slab[n as usize];
        self.free = node.next;
        *node = Node {
            packet: Some(packet),
            next: NIL,
        };
        n
    }

    /// Grow the slab from one node: doubling up to four, then by half
    /// (1, 2, 4, 6, 9, 13, …). A mailbox that only ever holds a handed
    /// packet or a lone message keeps one node, and the usual depth of
    /// five to thirteen costs less than under doubling (`scale_events`
    /// peak live heap 5.2 MB against 5.7).
    #[cold]
    #[inline(never)]
    fn grow_slab(&mut self) {
        let cap = self.slab.capacity();
        self.slab
            .reserve_exact(if cap < 4 { cap.max(1) } else { cap / 2 });
        // Node indices are `u32`, with `NIL` reserved.
        assert!(
            self.slab.capacity() < NIL as usize,
            "a slab of 2^32 packets"
        );
    }

    /// Free node `n`, returning its packet. A slab grown past
    /// [`SLAB_FLOOR`] is compacted once it holds at most half that many
    /// packets.
    #[inline]
    fn release(&mut self, n: u32) -> Packet {
        let node = &mut self.slab[n as usize];
        let packet = node.packet.take().expect("a held node has a packet");
        node.next = self.free;
        self.free = n;
        let cap = self.slab.capacity();
        if cap > SLAB_FLOOR && self.loose == 0 && self.len as usize <= SLAB_FLOOR / 2 {
            self.compact();
        }
        packet
    }

    /// Move the queued packets into a fresh slab of [`SLAB_FLOOR`] nodes,
    /// threading each key's FIFO anew, and free the old one. So a burst
    /// is released as it drains even while other keys keep the table
    /// from emptying: released only with an empty table, the slabs of
    /// the leaders' bridge ring stayed at their deepest (262144 ranks:
    /// 2225 MiB of peak RSS against 1691 before the slab). A fresh
    /// slab, not `shrink_to`: a block shrunk in place keeps the head of
    /// the old one, and those heads, left between freed bursts, kept the
    /// allocator from reusing the space (`stream_pooled` peak RSS 5.3 →
    /// 7.5 MiB). Compacting at a quarter full instead, to twice the
    /// packets left, cost the ring probe about 5 %. Handed nodes are
    /// never moved, since the waiter holds their index: a slab holding
    /// one waits for the next pop.
    #[cold]
    #[inline(never)]
    fn compact(&mut self) {
        let mut slab = Vec::with_capacity(SLAB_FLOOR);
        for (_, fifo) in self.entries.iter_mut().filter(|e| e.1.head != NIL) {
            let mut n = fifo.head;
            fifo.head = slab.len() as u32;
            loop {
                let node = &mut self.slab[n as usize];
                slab.push(Node {
                    packet: node.packet.take(),
                    next: slab.len() as u32 + 1,
                });
                if n == fifo.tail {
                    break;
                }
                n = node.next;
            }
            fifo.tail = slab.len() as u32 - 1;
            slab[fifo.tail as usize].next = NIL;
        }
        self.slab = slab;
        self.free = NIL;
    }

    /// Queue `packet` behind whatever `key` already holds. Whatever
    /// allocates — a doubling, a slab growth — comes before the first
    /// change, so a failure leaves the table as it was.
    pub(crate) fn push_back(&mut self, key: MatchKey, packet: Packet) {
        let slot = match self.probe(key) {
            Err(_) if self.keys as usize >= max_keys(self.entries.len()) => {
                self.grow();
                self.probe(key)
            }
            found => found,
        };
        let n = self.alloc(packet);
        self.len += 1;
        match slot {
            Ok(i) => {
                let fifo = &mut self.entries[i].1;
                self.slab[fifo.tail as usize].next = n;
                fifo.tail = n;
            }
            Err(i) => {
                self.entries[i] = (key, Fifo { head: n, tail: n });
                self.keys += 1;
            }
        }
    }

    /// Double the table (or allocate its first) and rehash every entry
    /// into it.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let size = (self.entries.len() * 2).max(MIN_ENTRIES);
        let old = std::mem::replace(&mut self.entries, vec![VACANT; size].into_boxed_slice());
        for &(key, fifo) in old.iter().filter(|e| e.1.head != NIL) {
            let mut i = home(key, size);
            while self.entries[i].1.head != NIL {
                i = (i + 1) & (size - 1);
            }
            self.entries[i] = (key, fifo);
        }
    }

    /// Take the oldest packet under `key`, vacating its entry with its
    /// last packet.
    #[inline]
    pub(crate) fn pop_front(&mut self, key: MatchKey) -> Option<Packet> {
        let i = self.probe(key).ok()?;
        let fifo = self.entries[i].1;
        if fifo.head == fifo.tail {
            self.vacate(i);
        } else {
            self.entries[i].1.head = self.slab[fifo.head as usize].next;
        }
        self.len -= 1;
        Some(self.release(fifo.head))
    }

    /// Vacate entry `i`. When the entry after it is vacant too, no probe
    /// passes through `i`, and that is all; otherwise see
    /// [`SlotMap::shift_back`].
    fn vacate(&mut self, i: usize) {
        self.keys -= 1;
        let mask = self.entries.len() - 1;
        if self.entries[(i + 1) & mask].1.head == NIL {
            self.entries[i].1.head = NIL;
        } else {
            self.shift_back(i);
        }
    }

    /// Backward-shift deletion: walk the run after the hole at `hole`
    /// and move back into it every entry whose home lies at or before the
    /// hole (cyclically), so each stays reachable from its home without a
    /// tombstone; the last hole is vacated.
    #[inline(never)]
    fn shift_back(&mut self, mut hole: usize) {
        let mask = self.entries.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let entry = self.entries[j];
            if entry.1.head == NIL {
                break;
            }
            let from = home(entry.0, self.entries.len());
            if j.wrapping_sub(from) & mask >= j.wrapping_sub(hole) & mask {
                self.entries[hole] = entry;
                hole = j;
            }
        }
        self.entries[hole].1.head = NIL;
    }

    /// Keep `packet` in a node of no key (a handoff), for [`SlotMap::take`].
    pub(crate) fn hold(&mut self, packet: Packet) -> u32 {
        let n = self.alloc(packet);
        self.loose += 1;
        n
    }

    /// The packet [`SlotMap::hold`] put in node `n`.
    pub(crate) fn take(&mut self, n: u32) -> Packet {
        self.loose -= 1;
        self.release(n)
    }

    /// Packets held under keys.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether `key` holds two or more packets (`None`: no packet under
    /// `key`).
    #[cfg(test)]
    fn spilled(&self, key: MatchKey) -> Option<bool> {
        let fifo = self.entries[self.probe(key).ok()?].1;
        Some(fifo.head != fifo.tail)
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
    /// The packet the push of the awaited key handed over, held in this
    /// slab node of no key, for the owner to take when it resumes, before
    /// it looks in the table: a later push of the same key queues behind
    /// it there.
    Handed(u32),
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
        s.waiter = Waiter::Handed(s.queues.hold(packet));
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
        let mut s = self.lock();
        match std::mem::take(&mut s.waiter) {
            Waiter::Handed(n) => Ok(s.queues.take(n)),
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
    use simnet::rng::{check_cases, Rng64};
    use simnet::{ClusterSpec, CostModel, Placement};
    use std::cell::Cell;
    use std::collections::VecDeque;

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

    /// A queued packet lives in a slab node and its key in a table entry;
    /// after a world barrier a rank's mailbox holds 16–32 of them, most of
    /// a rank's heap at scale.
    #[test]
    fn a_slab_node_fits_in_72_bytes_and_an_entry_in_20() {
        assert!(std::mem::size_of::<Node>() <= 72);
        assert!(std::mem::size_of::<Entry>() <= 20);
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

    /// A key the test has not drawn, from `rng`.
    fn fresh_key(rng: &mut Rng64, taken: &[MatchKey]) -> MatchKey {
        loop {
            let key = (
                rng.usize_in(0, 4) as u32,
                rng.usize_in(0, 1 << 16) as u32,
                rng.next_u64() as u32,
            );
            if !taken.contains(&key) {
                return key;
            }
        }
    }

    /// `n` more keys, all homed at entry `at` of a 128-entry table — and
    /// so at `at >> s` of a table `2^s` times smaller: the keys collide
    /// at every size. Homed at 127, they are homed at the last entry of
    /// every table, so their run wraps around the end of the array.
    fn keys_homed_at(rng: &mut Rng64, at: usize, n: usize, keys: &mut Vec<MatchKey>) {
        for _ in 0..n {
            let key = loop {
                let key = fresh_key(rng, keys);
                if home(key, 128) == at {
                    break key;
                }
            };
            keys.push(key);
        }
    }

    /// Whether popping `key` vacates an entry whose run continues across
    /// the end of the array, so the backward shift walks round it.
    fn shift_wraps(t: &SlotMap, key: MatchKey) -> bool {
        let Ok(i) = t.probe(key) else { return false };
        let fifo = t.entries[i].1;
        let mask = t.entries.len() - 1;
        let mut j = i;
        fifo.head == fifo.tail
            && std::iter::from_fn(|| {
                j = (j + 1) & mask;
                (t.entries[j].1.head != NIL).then_some(j)
            })
            .any(|j| j == 0)
    }

    /// The table's whole state against the model: each occupied entry is
    /// reachable from its home (no vacant entry in between), holds a
    /// drawn key once and threads exactly that key's model FIFO, every
    /// key with packets has an entry, the load stays at most three
    /// quarters, and the slab holds packets in exactly the queued and
    /// handed nodes.
    fn check_table(t: &SlotMap, keys: &[MatchKey], model: &[VecDeque<f64>], handed: usize) {
        let size = t.entries.len();
        let mask = size.wrapping_sub(1);
        let mut seen = Vec::new();
        for (i, &(key, fifo)) in t.entries.iter().enumerate() {
            if fifo.head == NIL {
                continue;
            }
            let mut j = home(key, size);
            while j != i {
                assert_ne!(
                    t.entries[j].1.head, NIL,
                    "{key:?} at {i} unreachable from {j}"
                );
                j = (j + 1) & mask;
            }
            let k = keys.iter().position(|x| *x == key).expect("a drawn key");
            assert!(!seen.contains(&k), "{key:?} entered twice");
            seen.push(k);
            let mut fifo_order = VecDeque::new();
            let mut n = fifo.head;
            loop {
                let node = &t.slab[n as usize];
                fifo_order.push_back(node.packet.as_ref().expect("a queued packet").arrival);
                if n == fifo.tail {
                    assert_eq!(node.next, NIL, "{key:?}: its tail has a next");
                    break;
                }
                n = node.next;
            }
            assert_eq!(fifo_order, model[k], "{key:?} lost FIFO order");
        }
        let nonempty = model.iter().filter(|q| !q.is_empty()).count();
        assert_eq!((seen.len(), t.keys as usize), (nonempty, nonempty));
        assert!(t.keys as usize <= max_keys(size));
        assert_eq!(t.len(), model.iter().map(VecDeque::len).sum::<usize>());
        let full = t.slab.iter().filter(|n| n.packet.is_some()).count();
        assert_eq!(full, t.len() + handed);
    }

    /// The table as a data structure: 1..=64 keys, some of them sharing
    /// one home and some homed at the last entry, under random pushes,
    /// pops and handoffs (`hold`/`take`) against a per-key `VecDeque`
    /// model, filling then draining. After every step the table is
    /// whole ([`check_table`]), and a table that empties keeps a slab of
    /// at most `SLAB_FLOOR` nodes. Between them the cases double a table
    /// to 128 entries and shift entries back round the end of the array.
    #[test]
    fn open_addressing_matches_a_per_key_fifo_model() {
        let (largest, wrapped) = (Cell::new(0), Cell::new(0));
        check_cases(0x7ab1e, 300, |rng| {
            let nkeys = rng.usize_in(1, 65);
            let clustered = rng.usize_in(0, nkeys + 1);
            let mut keys = Vec::new();
            keys_homed_at(rng, 127, clustered / 2, &mut keys);
            let shared = rng.usize_in(0, 128);
            keys_homed_at(rng, shared, clustered - clustered / 2, &mut keys);
            while keys.len() < nkeys {
                let key = fresh_key(rng, &keys);
                keys.push(key);
            }
            rng.shuffle(&mut keys);
            let mut t = SlotMap::default();
            let mut model = vec![VecDeque::new(); nkeys];
            let mut handed: Vec<(u32, f64)> = Vec::new();
            let mut stamp = 0.0;
            let steps = rng.usize_in(nkeys, 8 * nkeys + 40);
            for step in 0..2 * steps {
                let fill = if step < steps { 0.7 } else { 0.25 };
                let k = rng.usize_in(0, nkeys);
                let roll = rng.unit();
                if roll < 0.04 {
                    stamp += 1.0;
                    handed.push((t.hold(pkt(stamp)), stamp));
                } else if roll < 0.08 && !handed.is_empty() {
                    let (n, want) = handed.swap_remove(rng.usize_in(0, handed.len()));
                    assert_eq!(t.take(n).arrival, want, "a handed packet changed");
                } else if roll < fill {
                    stamp += 1.0;
                    t.push_back(keys[k], pkt(stamp));
                    model[k].push_back(stamp);
                } else {
                    if shift_wraps(&t, keys[k]) {
                        wrapped.set(wrapped.get() + 1);
                    }
                    let got = t.pop_front(keys[k]).map(|p| p.arrival);
                    assert_eq!(got, model[k].pop_front(), "key {k} lost FIFO order");
                }
                check_table(&t, &keys, &model, handed.len());
                if t.len() + handed.len() == 0 {
                    assert!(
                        t.slab.capacity() <= SLAB_FLOOR,
                        "an empty table kept its slab"
                    );
                }
                largest.set(largest.get().max(t.entries.len()));
            }
        });
        assert_eq!(largest.get(), 128, "no table doubled to 128 entries");
        assert!(
            wrapped.get() > 0,
            "no backward shift wrapped round the array"
        );
    }
}
