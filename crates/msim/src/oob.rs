//! Out-of-band rendezvous for *setup* collectives.
//!
//! `MPI_Comm_split`, `MPI_Comm_split_type` and `MPI_Win_allocate_shared`
//! are one-off setup operations whose cost the paper explicitly excludes
//! from measurements ("the extra one-off activities are not evaluated").
//! They still need real coordination between ranks, which this
//! module provides: every member deposits a value under a shared key; the
//! last member to arrive runs a finisher over all deposits; everyone
//! receives the shared result. No virtual time is charged.

use crate::exec::{self, PoolCore};
use crate::ft::{FtWatch, WaitError};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// (communicator context id, per-handle op sequence, op kind)
pub(crate) type BoardKey = (u32, u32, u8);

pub(crate) const KIND_SPLIT: u8 = 0;
pub(crate) const KIND_WIN_ALLOC: u8 = 1;
pub(crate) const KIND_FENCE: u8 = 2;
pub(crate) const KIND_SETUP: u8 = 3;

struct Entry {
    expected: usize,
    deposits: Vec<(usize, Box<dyn Any + Send>)>,
    /// One bit per member, set at its deposit: the O(1) answer to "has
    /// member `m` deposited?" (`deposits` is in arrival order, and a
    /// world-sized rendezvous asks once per member).
    deposited: Vec<u64>,
    result: Option<Arc<dyn Any + Send + Sync>>,
    taken: usize,
    /// Global ranks parked waiting for the result; the last depositor
    /// drains this and wakes each through the executor.
    waiting: Vec<usize>,
}

/// The global rendezvous board shared by all ranks of a universe.
#[derive(Default)]
pub(crate) struct OobBoard {
    entries: Mutex<HashMap<BoardKey, Entry>>,
}

impl Entry {
    fn has_deposited(&self, member: usize) -> bool {
        self.deposited
            .get(member / 64)
            .is_some_and(|word| word & (1 << (member % 64)) != 0)
    }
}

impl OobBoard {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Deposit `value` for `member` under `key`; block until all
    /// `expected` members have deposited; return the shared result
    /// computed by `finish` (run once, by the last depositor, over
    /// deposits sorted by member id). "Block" parks the calling coroutine
    /// (`me_global` is the waker's handle to it).
    ///
    /// With a fault-tolerance `watch`: when some watched member is dead
    /// (or diverted into recovery) *without having deposited*, the
    /// rendezvous can never complete, so the waiter unwinds with a typed
    /// [`WaitError`] instead of timing out. A failed member that already
    /// deposited keeps the rendezvous alive — the remaining live members
    /// can still complete it.
    ///
    /// # Panics
    /// Panics on timeout (a setup-collective deadlock: not all members of
    /// the communicator made the same call) or on type confusion.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rendezvous<V, R>(
        &self,
        exec: &PoolCore,
        me_global: usize,
        key: BoardKey,
        member: usize,
        expected: usize,
        value: V,
        timeout: Duration,
        watch: Option<&FtWatch>,
        finish: impl FnOnce(Vec<(usize, V)>) -> R,
    ) -> Arc<R>
    where
        V: Send + 'static,
        R: Send + Sync + 'static,
    {
        // Setup collectives never run concurrently with injected kills in
        // a way that tears an entry (deposits complete before any panic
        // point), so recovering from poison is safe.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = entries.entry(key).or_insert_with(|| Entry {
            expected,
            deposits: Vec::with_capacity(expected),
            deposited: vec![0; expected.div_ceil(64)],
            result: None,
            taken: 0,
            waiting: Vec::new(),
        });
        assert_eq!(
            entry.expected, expected,
            "rendezvous members disagree on the group size (SPMD bug)"
        );
        assert!(
            member < expected,
            "member {member} is outside the rendezvous group of {expected} (SPMD bug)"
        );
        assert!(
            !entry.has_deposited(member),
            "member {member} deposited twice under the same key (SPMD bug)"
        );
        entry.deposited[member / 64] |= 1 << (member % 64);
        entry.deposits.push((member, Box::new(value)));

        if entry.deposits.len() == expected {
            // Last one in computes the result.
            let mut deposits = std::mem::take(&mut entry.deposits);
            deposits.sort_by_key(|(m, _)| *m);
            let typed: Vec<(usize, V)> = deposits
                .into_iter()
                .map(|(m, b)| {
                    (
                        m,
                        *b.downcast::<V>()
                            .expect("rendezvous deposit type mismatch (SPMD bug)"),
                    )
                })
                .collect();
            let result: Arc<R> = Arc::new(finish(typed));
            entry.result = Some(result.clone());
            let waiting = std::mem::take(&mut entry.waiting);
            Self::take(&mut entries, key);
            drop(entries);
            // Wake parked members after releasing the board lock: the
            // result is published, so every woken coroutine finds it.
            for rank in waiting {
                exec.wake(rank);
            }
            return result;
        }
        entry.waiting.push(me_global);

        // Wait for the result.
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(entry) = entries.get(&key) {
                if let Some(result) = &entry.result {
                    let result = result
                        .clone()
                        .downcast::<R>()
                        .expect("rendezvous result type mismatch (SPMD bug)");
                    Self::take(&mut entries, key);
                    return result;
                }
                if let Some(w) = watch {
                    // Result not published (checked above, under the same
                    // lock hold): a watched member that is dead/diverted
                    // and never deposited can no longer arrive, so the
                    // rendezvous is unfinishable — unwind with the typed
                    // error. `deposited` is keyed by communicator-local
                    // rank, matching `w.members` order.
                    for (l, &g) in w.members.iter().enumerate() {
                        if l == member {
                            continue;
                        }
                        let dead = w.live.is_dead(g);
                        if (dead || w.live.diverted_past(g, w.epoch)) && !entry.has_deposited(l) {
                            std::panic::panic_any(if dead {
                                WaitError::RankFailed {
                                    rank: me_global,
                                    failed: g,
                                    comm: key.0,
                                    tag: key.1,
                                }
                            } else {
                                WaitError::PeerDiverted {
                                    rank: me_global,
                                    peer: g,
                                    comm: key.0,
                                    tag: key.1,
                                }
                            });
                        }
                    }
                }
            } else {
                // Entry vanished: everyone else already took the result
                // after we deposited — cannot happen because we only remove
                // once all `expected` takers are counted.
                unreachable!("rendezvous entry removed before all members took the result");
            }
            assert!(
                Instant::now() < deadline,
                "setup-collective rendezvous timed out \
                 (did every member of the communicator make the same call?)"
            );
            // With a watch, wake in short slices so failures are noticed
            // promptly even though no completion will ever signal us.
            let slice_deadline = if watch.is_some() {
                deadline.min(Instant::now() + crate::ft::FT_POLL_SLICE)
            } else {
                deadline
            };
            drop(entries);
            // A completion landing between unlock and park still wakes us
            // (the executor tokenizes wakes against Running ranks); the
            // executor also re-readies expired parks so the timeout
            // assertion above fires eventually.
            exec::park_current(slice_deadline);
            entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn take(entries: &mut HashMap<BoardKey, Entry>, key: BoardKey) {
        let entry = entries
            .get_mut(&key)
            .expect("entry must exist while taking");
        entry.taken += 1;
        if entry.taken == entry.expected {
            entries.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::tests::on_ranks;
    use crate::SimError;

    #[test]
    fn all_members_get_the_same_result() {
        for workers in [1, 2] {
            let board = OobBoard::new();
            let n = 8;
            let got = on_ranks(n, workers, |shared, m| {
                *board.rendezvous(
                    &shared.exec,
                    m,
                    (0, 0, KIND_SPLIT),
                    m,
                    n,
                    m * 10,
                    Duration::from_secs(5),
                    None,
                    |vals| vals.iter().map(|(_, v)| *v).sum::<usize>(),
                )
            });
            let want = (0..8).map(|m| m * 10).sum::<usize>();
            assert_eq!(got.unwrap(), vec![want; n], "width {workers}");
        }
    }

    #[test]
    fn deposits_are_sorted_by_member() {
        for workers in [1, 2] {
            let board = OobBoard::new();
            let n = 4;
            let got = on_ranks(n, workers, |shared, rank| {
                // Ranks run in rank order at width 1: member ids reversed
                // make the deposits arrive out of order.
                let m = n - 1 - rank;
                board
                    .rendezvous(
                        &shared.exec,
                        rank,
                        (1, 0, KIND_SPLIT),
                        m,
                        n,
                        m,
                        Duration::from_secs(5),
                        None,
                        |vals| vals.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
                    )
                    .to_vec()
            });
            for members in got.unwrap() {
                assert_eq!(members, vec![0, 1, 2, 3], "width {workers}");
            }
        }
    }

    #[test]
    fn board_is_reusable_across_keys() {
        for workers in [1, 2] {
            let board = OobBoard::new();
            let got = on_ranks(2, workers, |shared, m| {
                (0..3u32)
                    .map(|seq| {
                        *board.rendezvous(
                            &shared.exec,
                            m,
                            (0, seq, KIND_WIN_ALLOC),
                            m,
                            2,
                            m,
                            Duration::from_secs(5),
                            None,
                            |v| v.len(),
                        )
                    })
                    .collect::<Vec<_>>()
            });
            assert_eq!(got.unwrap(), vec![vec![2; 3]; 2], "width {workers}");
            assert!(
                board.entries.lock().unwrap().is_empty(),
                "entries must be cleaned up"
            );
        }
    }

    /// Deposit for `member` with nobody else coming: the call must panic
    /// (in the depositor, which is what `catch_unwind` observes here);
    /// returns the message. A timed-out deposit stays on the board.
    fn lone_deposit_panic(
        board: &OobBoard,
        shared: &crate::universe::Shared,
        member: usize,
        expected: usize,
    ) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            board.rendezvous(
                &shared.exec,
                0,
                (3, 0, KIND_SETUP),
                member,
                expected,
                (),
                Duration::from_millis(1),
                None,
                |_| (),
            )
        }))
        .expect_err("a lone deposit cannot complete");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => (*p.downcast::<&str>().expect("string panic payload")).to_string(),
        }
    }

    /// Run `f` as the only rank of a universe.
    fn alone(f: impl Fn(&crate::universe::Shared) + Send + Sync) {
        on_ranks(1, 1, |shared, _| f(shared)).unwrap();
    }

    #[test]
    fn duplicate_deposit_panics_in_the_depositor_across_bitset_words() {
        alone(|shared| {
            for member in [0, 63, 64, 65] {
                let board = OobBoard::new();
                let first = lone_deposit_panic(&board, shared, member, 130);
                assert!(first.contains("timed out"), "member {member}: {first}");
                let again = lone_deposit_panic(&board, shared, member, 130);
                assert!(
                    again.contains(&format!(
                        "member {member} deposited twice under the same key"
                    )),
                    "member {member}: {again}"
                );
                // The neighbouring bits stay clear: a different member is a
                // first deposit, not a duplicate.
                let other = lone_deposit_panic(&board, shared, member + 1, 130);
                assert!(
                    other.contains("timed out"),
                    "member {}: {other}",
                    member + 1
                );
            }
        });
    }

    #[test]
    fn member_outside_the_group_panics_instead_of_indexing_out_of_bounds() {
        alone(|shared| {
            // 64 members fill exactly one bitset word; member 64 would
            // index the word after it.
            for (member, expected) in [(2, 2), (64, 64), (200, 3)] {
                let msg = lone_deposit_panic(&OobBoard::new(), shared, member, expected);
                assert!(
                    msg.contains(&format!(
                        "member {member} is outside the rendezvous group of {expected}"
                    )),
                    "{msg}"
                );
            }
        });
    }

    #[test]
    fn missing_member_times_out() {
        for workers in [1, 2] {
            let board = OobBoard::new();
            let err = on_ranks(2, workers, |shared, rank| {
                if rank == 0 {
                    board.rendezvous(
                        &shared.exec,
                        0,
                        (9, 9, KIND_SPLIT),
                        0,
                        2,
                        (),
                        Duration::from_millis(20),
                        None,
                        |_| (),
                    );
                }
            })
            .unwrap_err();
            match err {
                SimError::RankPanicked { rank: 0, message } => {
                    assert!(message.contains("timed out"), "width {workers}: {message}");
                }
                other => panic!("width {workers}: expected a timeout, got {other}"),
            }
        }
    }
}
