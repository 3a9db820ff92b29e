//! Exchange and reduce schedules as data, and the one driver that runs
//! them.
//!
//! A [`Schedule`] is a pure function of `(p, me, layout, round)`: for one
//! round it names the send (peer and region), the receive (peer and
//! region, and whether the payload overwrites the region or is combined
//! into it by the caller's reduction) and the local copies around them,
//! or `None` once the schedule is done. A round may lack either side or
//! both: the fold and unfold of recursive-doubling allreduce and linear
//! alltoallv's eager sends are one-sided, and a binomial bcast rank sits
//! out the rounds before it holds the message. A schedule also names the
//! copies before round 0 (own-block placement, Bruck's seed of its
//! rotated temporary, alltoall-Bruck's rotation, a reduction's staging
//! copy) and after the last round (the inverse rotations,
//! reduce-scatter's copy out). Nothing here allocates; this is the
//! schedule-as-data design of libNBC (Hoefler, Lumsdaine and Rehm,
//! SC'07).
//!
//! [`Rounds`] is the one split-phase driver: it holds the round cursor and
//! whether the current round's send is posted, and performs each round as
//! post-send, then `step_recv` under the caller's [`Drive`]. A combining
//! receive charges one op per element after the combine. Blocking entry
//! points are `run_blocking` of a `Drive::Block` drive.
//!
//! A [`Layout`] says where each block sits. At `Uniform(count)` the ring
//! and Bruck of allgather are exactly those of allgatherv over equal
//! counts, so one ring and one Bruck serve allgather, allgatherv (with or
//! without a send buffer) and the hybrid k-leader stripe; only the tag,
//! which the driver carries, differs. Alltoallv's blocks lie by its send
//! counts in the send buffer and by its receive counts in the result, so
//! its layout has 2p blocks: the result's, then the send buffer's. A
//! rooted schedule (the bcasts) indexes blocks and peers relative to its
//! root and maps peers back in one place, so van de Geijn's allgather
//! half is the ring of `Ring` over root-relative blocks.

use msim::{Buf, Communicator, Ctx, Drive, ShmElem, WaitError};

use crate::op::ReduceOp;

/// Where rank `r`'s block sits in a buffer laid out by rank.
#[derive(Debug, Clone, Copy)]
pub enum Layout<'a> {
    /// Every block holds `count` elements, back to back in rank order.
    Uniform(usize),
    /// Block `r` holds `counts[r]` elements at offset `displs[r]`.
    Counts {
        /// Elements per block.
        counts: &'a [usize],
        /// Offset of each block.
        displs: &'a [usize],
    },
    /// `total` elements in `parts` blocks back to back, the first
    /// `total % parts` of them one element longer.
    Balanced {
        /// Elements in all.
        total: usize,
        /// Number of blocks.
        parts: usize,
    },
}

impl Layout<'_> {
    /// Elements of block `r`.
    pub(crate) fn count(self, r: usize) -> usize {
        match self {
            Layout::Uniform(count) => count,
            Layout::Counts { counts, .. } => counts[r],
            Layout::Balanced { total, parts } => total / parts + usize::from(r < total % parts),
        }
    }

    /// Offset of block `r`.
    pub(crate) fn displ(self, r: usize) -> usize {
        match self {
            Layout::Uniform(count) => r * count,
            Layout::Counts { displs, .. } => displs[r],
            Layout::Balanced { total, parts } => r * (total / parts) + r.min(total % parts),
        }
    }

    /// Where the last of `p` blocks ends: the whole buffer when the
    /// blocks lie back to back.
    pub(crate) fn total(self, p: usize) -> usize {
        match self {
            Layout::Balanced { total, .. } => total,
            _ => self.displ(p - 1) + self.count(p - 1),
        }
    }

    /// Blocks `a .. a + n`, which must lie back to back, in `buf`.
    fn span(self, buf: Buffer, a: usize, n: usize) -> Region {
        let end = self.displ(a + n - 1) + self.count(a + n - 1);
        Region::new(buf, self.displ(a), end - self.displ(a))
    }

    /// Offset of slot `j` (`0 ≤ j ≤ p`) in rank `me`'s rotated temporary,
    /// which holds blocks `me, me + 1, …` (mod p) back to back. Needs the
    /// blocks back to back in rank order.
    fn rot(self, p: usize, me: usize, j: usize) -> usize {
        let wrap = if me + j >= p { self.total(p) } else { 0 };
        self.displ((me + j) % p) + wrap - self.displ(me)
    }
}

/// Which buffer a region lies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Buffer {
    /// The caller's send buffer.
    Send,
    /// The caller's result buffer.
    Recv,
    /// The driver's rank-private temporary.
    Tmp,
}

/// `len` elements at offset `off` of `buf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Region {
    /// The buffer.
    pub(crate) buf: Buffer,
    /// First element.
    pub(crate) off: usize,
    /// Element count.
    pub(crate) len: usize,
}

impl Region {
    fn new(buf: Buffer, off: usize, len: usize) -> Self {
        Self { buf, off, len }
    }
}

/// One side of a round's message: the peer and the region sent from or
/// received into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Xfer {
    /// Communicator rank of the peer.
    pub(crate) peer: usize,
    /// The region.
    pub(crate) region: Region,
}

/// A set of block copies, charged as one copy of their summed length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Copies {
    /// One block: `.0` into `.1`.
    Block(Region, Region),
    /// Send block `(me + j) mod p` into slot `j` of the temporary, for
    /// every `j` (alltoall Bruck's first phase).
    Rotate,
    /// Slot `j` of the temporary into result block `(me + j) mod p`
    /// (Bruck's inverse rotation).
    Unrotate,
    /// Slot `j` of the temporary into result block `(me − j) mod p`
    /// (alltoall Bruck's last phase; uniform layouts only).
    Unreverse,
    /// Alltoall Bruck's round `k`: every slot whose index has bit `k` set,
    /// in order, into the pack area after the slots.
    Pack(usize),
    /// The inverse of `Pack`.
    Unpack(usize),
}

/// How many of the `p` slots have bit `k` set.
fn packed(p: usize, k: usize) -> usize {
    p / (2 * k) * k + (p % (2 * k)).saturating_sub(k)
}

impl Copies {
    /// Number of block copies.
    pub(crate) fn count(self, p: usize) -> usize {
        match self {
            Copies::Block(..) => 1,
            Copies::Rotate | Copies::Unrotate | Copies::Unreverse => p,
            Copies::Pack(k) | Copies::Unpack(k) => packed(p, k),
        }
    }

    /// Copy `i`: `(from, to)`.
    pub(crate) fn block(
        self,
        p: usize,
        me: usize,
        layout: Layout<'_>,
        i: usize,
    ) -> (Region, Region) {
        // Slot j of the rotated temporary holds block (me + j) mod p.
        let slot = |j: usize| {
            Region::new(
                Buffer::Tmp,
                layout.rot(p, me, j),
                layout.count((me + j) % p),
            )
        };
        let block = |buf, r: usize| Region::new(buf, layout.displ(r), layout.count(r));
        match self {
            Copies::Block(from, to) => (from, to),
            Copies::Rotate => (block(Buffer::Send, (me + i) % p), slot(i)),
            Copies::Unrotate => (slot(i), block(Buffer::Recv, (me + i) % p)),
            Copies::Unreverse => (slot(i), block(Buffer::Recv, (me + p - i) % p)),
            Copies::Pack(k) | Copies::Unpack(k) => {
                // The i-th index with bit k set: runs of k from k, 3k, 5k, …
                let from = slot(i / k * 2 * k + k + i % k);
                let area = Region::new(Buffer::Tmp, layout.total(p) + i * from.len, from.len);
                match self {
                    Copies::Pack(_) => (from, area),
                    _ => (area, from),
                }
            }
        }
    }
}

/// What a round's receive does with its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The payload overwrites the region.
    Overwrite,
    /// The payload is combined into the region by the caller's
    /// reduction, which is then charged per element.
    Combine,
}

/// One round: post `send`, receive into `recv` by `mode`, with `pack`
/// copies before the send and `unpack` copies after the receive. A rank
/// with no part in a round has neither side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Round {
    /// The message this rank sends, if any.
    pub(crate) send: Option<Xfer>,
    /// The message this rank receives, if any.
    pub(crate) recv: Option<Xfer>,
    /// What the receive does with its region.
    pub(crate) mode: Mode,
    /// Copies before the send.
    pub(crate) pack: Option<Copies>,
    /// Copies after the receive.
    pub(crate) unpack: Option<Copies>,
}

impl Round {
    fn new(send: Option<Xfer>, recv: Option<Xfer>, mode: Mode) -> Self {
        Self {
            send,
            recv,
            mode,
            pack: None,
            unpack: None,
        }
    }
}

/// The schedules: allgather(v) `Local`, `RecursiveDoubling`, `Bruck` and
/// `Ring` over the result buffer, the alltoall `Pairwise` and
/// `AlltoallBruck` and the alltoallv `Shifted` and `Linear` from the send
/// buffer, the bcast `Binomial` and `ScatterAllgather` in place, the
/// allreduce `ReduceDoubling` and `Rabenseifner` over the whole vector,
/// and the reduce-scatter `RecursiveHalving` and `ReducePairwise`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Own-block placement only (one-member communicators).
    Local,
    /// log₂ p rounds; in round k exchange the 2^k blocks held so far with
    /// `me XOR 2^k`. Power-of-two communicators only.
    RecursiveDoubling,
    /// ⌈log₂ p⌉ rounds over a rotated temporary, then an inverse
    /// rotation into rank order. Blocks must lie back to back.
    Bruck,
    /// p − 1 neighbour steps, each forwarding the block received in the
    /// step before.
    Ring,
    /// p − 1 direct exchanges with the XOR partner (power-of-two p) or the
    /// rank k away.
    Pairwise,
    /// ⌈log₂ p⌉ rounds, each shipping every block whose distance to its
    /// destination has bit k set, with a local rotation before and after.
    AlltoallBruck,
    /// p − 1 direct exchanges, in round k sending to the rank k away and
    /// receiving from the rank k back, for every p. Layout blocks `p..2p`
    /// are the send buffer's (alltoallv's send counts), blocks `0..p` the
    /// result's.
    Shifted,
    /// The p − 1 sends of `Shifted` posted eagerly, one per round, then
    /// its p − 1 receives drained in the same order.
    Linear,
    /// Binomial-tree bcast from `root`: ⌈log₂ p⌉ rounds, round j moving
    /// the whole buffer the distance `2^(⌈log₂ p⌉ − 1 − j)`. A rank
    /// receives in the round of its lowest set bit and forwards in every
    /// later one.
    Binomial {
        /// The rank that holds the message.
        root: usize,
    },
    /// van de Geijn's bcast from `root`: a binomial scatter of the
    /// balanced blocks by recursive range splitting (⌈log₂ p⌉ rounds),
    /// then a `Ring` allgather of them.
    ScatterAllgather {
        /// The rank that holds the message.
        root: usize,
    },
    /// Allreduce for any p: the ranks from 2^⌊log₂ p⌋ up fold their
    /// vector into the rank that many below, the rest exchange and
    /// combine full vectors with `me XOR 2^k` for log₂ rounds, and an
    /// unfold hands the folded ranks the result.
    ReduceDoubling,
    /// Rabenseifner's allreduce: recursive halving in place over the
    /// result, then `RecursiveDoubling` of the reduced blocks.
    /// Power-of-two communicators only.
    Rabenseifner,
    /// Reduce-scatter over a full-vector temporary: log₂ p rounds, each
    /// sending the half of the held blocks the XOR partner keeps and
    /// combining the half this rank keeps. Power-of-two communicators
    /// only.
    RecursiveHalving,
    /// Reduce-scatter in p − 1 steps: send block `me + k` to its owner,
    /// combine block `me` from rank `me − k` into the result.
    ReducePairwise,
}

impl Schedule {
    /// Elements of the temporary the schedule needs, if any.
    pub(crate) fn scratch(self, p: usize, layout: Layout<'_>) -> Option<usize> {
        match self {
            Schedule::Bruck | Schedule::RecursiveHalving => Some(layout.total(p)),
            // The rotated blocks, then the pack area.
            Schedule::AlltoallBruck => Some(2 * layout.total(p)),
            _ => None,
        }
    }

    /// Copies before round 0. `in_place`: there is no send buffer and the
    /// own block already sits in the result.
    pub(crate) fn prologue(
        self,
        p: usize,
        me: usize,
        layout: Layout<'_>,
        in_place: bool,
    ) -> Option<Copies> {
        let (off, len) = (layout.displ(me), layout.count(me));
        let own = Region::new(Buffer::Recv, off, len);
        let from = Region::new(Buffer::Send, 0, len);
        let all = |buf| Region::new(buf, 0, layout.total(p));
        match self {
            Schedule::Local | Schedule::RecursiveDoubling | Schedule::Ring if !in_place => {
                Some(Copies::Block(from, own))
            }
            Schedule::Local | Schedule::RecursiveDoubling | Schedule::Ring => None,
            Schedule::Bruck => {
                let seed = Region::new(Buffer::Tmp, 0, len);
                Some(Copies::Block(if in_place { own } else { from }, seed))
            }
            Schedule::Pairwise => Some(Copies::Block(Region { off, ..from }, own)),
            Schedule::Shifted | Schedule::Linear => {
                let off = layout.displ(p + me);
                Some(Copies::Block(Region { off, ..from }, own))
            }
            Schedule::AlltoallBruck => Some(Copies::Rotate),
            Schedule::Binomial { .. } | Schedule::ScatterAllgather { .. } => None,
            Schedule::ReduceDoubling | Schedule::Rabenseifner => {
                Some(Copies::Block(all(Buffer::Send), all(Buffer::Recv)))
            }
            Schedule::RecursiveHalving => Some(Copies::Block(all(Buffer::Send), all(Buffer::Tmp))),
            Schedule::ReducePairwise => Some(Copies::Block(
                Region { off, ..from },
                Region { off: 0, ..own },
            )),
        }
    }

    /// Round `r` of rank `me`, or `None` once the schedule is done.
    pub(crate) fn round(self, p: usize, me: usize, layout: Layout<'_>, r: usize) -> Option<Round> {
        let at = |buf, b: usize| Region::new(buf, layout.displ(b), layout.count(b));
        let xfer = |peer, region| Some(Xfer { peer, region });
        let plain = |send, recv| Round::new(send, recv, Mode::Overwrite);
        match self {
            Schedule::Local => None,
            Schedule::RecursiveDoubling => {
                let mask = 1usize.checked_shl(r as u32).filter(|&m| m < p)?;
                let partner = me ^ mask;
                let held = |q: usize| layout.span(Buffer::Recv, q & !(mask - 1), mask);
                Some(plain(xfer(partner, held(me)), xfer(partner, held(partner))))
            }
            Schedule::Bruck => {
                let dist = 1usize.checked_shl(r as u32).filter(|&d| d < p)?;
                let blocks = dist.min(p - dist);
                let rot = |j| layout.rot(p, me, j);
                let sent = Region::new(Buffer::Tmp, 0, rot(blocks));
                let got = Region::new(Buffer::Tmp, rot(dist), rot(dist + blocks) - rot(dist));
                Some(plain(
                    xfer((me + p - dist) % p, sent),
                    xfer((me + dist) % p, got),
                ))
            }
            Schedule::Ring => ring(p, me, me, layout, r),
            Schedule::Pairwise => {
                let k = r + 1;
                if k >= p {
                    return None;
                }
                let (dst, src) = if p.is_power_of_two() {
                    (me ^ k, me ^ k)
                } else {
                    ((me + k) % p, (me + p - k) % p)
                };
                Some(plain(
                    xfer(dst, at(Buffer::Send, dst)),
                    xfer(src, at(Buffer::Recv, src)),
                ))
            }
            Schedule::Shifted | Schedule::Linear => {
                // Linear runs the sends of rounds 0..p−1, then the receives.
                let (k, sends, recvs) = match self {
                    Schedule::Shifted => (r + 1, true, true),
                    _ if r + 1 < p => (r + 1, true, false),
                    _ => (r + 2 - p, false, true),
                };
                if k >= p {
                    return None;
                }
                let (dst, src) = ((me + k) % p, (me + p - k) % p);
                Some(plain(
                    xfer(dst, at(Buffer::Send, p + dst)).filter(|_| sends),
                    xfer(src, at(Buffer::Recv, src)).filter(|_| recvs),
                ))
            }
            Schedule::Binomial { root } | Schedule::ScatterAllgather { root } => {
                self.rooted(p, me, root, layout, r)
            }
            Schedule::AlltoallBruck => {
                let k = 1usize.checked_shl(r as u32).filter(|&k| k < p)?;
                let area =
                    Region::new(Buffer::Tmp, layout.total(p), packed(p, k) * layout.count(0));
                Some(Round {
                    pack: Some(Copies::Pack(k)),
                    unpack: Some(Copies::Unpack(k)),
                    ..plain(xfer((me + k) % p, area), xfer((me + p - k) % p, area))
                })
            }
            Schedule::ReduceDoubling => {
                let pof2 = 1 << p.ilog2();
                let (rem, log) = (p - pof2, pof2.trailing_zeros() as usize);
                let all = Region::new(Buffer::Recv, 0, layout.total(p));
                let one = |peer| xfer(peer, all);
                let (send, recv, mode) = match r {
                    // Fold.
                    0 if me >= pof2 => (one(me - pof2), None, Mode::Combine),
                    0 if me < rem => (None, one(me + pof2), Mode::Combine),
                    r if (1..=log).contains(&r) && me < pof2 => {
                        let partner = me ^ (1 << (r - 1));
                        (one(partner), one(partner), Mode::Combine)
                    }
                    // Unfold.
                    r if r == log + 1 && me < rem => (one(me + pof2), None, Mode::Overwrite),
                    r if r == log + 1 && me >= pof2 => (None, one(me - pof2), Mode::Overwrite),
                    r if r <= log + 1 => (None, None, Mode::Overwrite),
                    _ => return None,
                };
                Some(Round::new(send, recv, mode))
            }
            Schedule::Rabenseifner => {
                let log = p.trailing_zeros() as usize;
                match r.checked_sub(log) {
                    None => Some(halving(p, me, layout, r, Buffer::Recv)),
                    Some(r) => Schedule::RecursiveDoubling.round(p, me, layout, r),
                }
            }
            Schedule::RecursiveHalving => {
                (r < p.trailing_zeros() as usize).then(|| halving(p, me, layout, r, Buffer::Tmp))
            }
            Schedule::ReducePairwise => {
                let k = r + 1;
                if k >= p {
                    return None;
                }
                let (dst, src) = ((me + k) % p, (me + p - k) % p);
                let own = Region::new(Buffer::Recv, 0, layout.count(me));
                Some(Round::new(
                    xfer(dst, at(Buffer::Send, dst)),
                    xfer(src, own),
                    Mode::Combine,
                ))
            }
        }
    }

    /// Round `r` of a rooted schedule from `root`: blocks are indexed
    /// relative to the root, and so is `rr`; `xfer` maps a root-relative
    /// peer back to its communicator rank, the one place that does. The
    /// ring's neighbours need no mapping: `rr ± 1` is `me ± 1`. Out of
    /// line, so the frame of [`Schedule::round`] stays small.
    #[inline(never)]
    fn rooted(
        self,
        p: usize,
        me: usize,
        root: usize,
        layout: Layout<'_>,
        r: usize,
    ) -> Option<Round> {
        let shift = |q: usize, by: usize| if q + by < p { q + by } else { q + by - p };
        let rr = shift(me, p - root);
        let log = p.next_power_of_two().trailing_zeros() as usize;
        let one = |send, recv| Some(Round::new(send, recv, Mode::Overwrite));
        let xfer = |q, region| {
            Some(Xfer {
                peer: shift(q, root),
                region,
            })
        };
        if let Schedule::Binomial { .. } = self {
            let mask = 1 << log.checked_sub(r + 1)?;
            let all = Region::new(Buffer::Recv, 0, layout.total(p));
            // Bits of rr below 2·mask: none, it holds the message by now;
            // mask alone, it gets it now.
            return match rr & (2 * mask - 1) {
                0 if rr + mask < p => one(xfer(rr + mask, all), None),
                low if low == mask => one(None, xfer(rr - mask, all)),
                _ => one(None, None),
            };
        }
        if r >= log {
            return ring(p, me, rr, layout, r - log);
        }
        // Replay the range splits down to depth r: [lo, hi) holds rr, and
        // its leader lo hands the upper part to mid.
        let mid = |lo: usize, hi: usize| lo + (hi - lo).div_ceil(2);
        let (mut lo, mut hi) = (0, p);
        for _ in 0..r {
            let m = mid(lo, hi);
            (lo, hi) = if rr < m { (lo, m) } else { (m, hi) };
        }
        let m = mid(lo, hi);
        if hi - lo < 2 {
            return one(None, None);
        }
        let upper = layout.span(Buffer::Recv, m, hi - m);
        if rr == lo {
            one(xfer(m, upper), None)
        } else if rr == m {
            one(None, xfer(lo, upper))
        } else {
            one(None, None)
        }
    }

    /// Copies after the last round.
    pub(crate) fn epilogue(self, me: usize, layout: Layout<'_>) -> Option<Copies> {
        match self {
            Schedule::Bruck => Some(Copies::Unrotate),
            Schedule::AlltoallBruck => Some(Copies::Unreverse),
            Schedule::RecursiveHalving => {
                let len = layout.count(me);
                Some(Copies::Block(
                    Region::new(Buffer::Tmp, layout.displ(me), len),
                    Region::new(Buffer::Recv, 0, len),
                ))
            }
            _ => None,
        }
    }
}

/// Round `r` of the ring at rank `me`, whose own block is `own`: forward
/// block `own − r` to `me + 1` and take block `own − r − 1` from `me − 1`.
#[inline]
fn ring(p: usize, me: usize, own: usize, layout: Layout<'_>, r: usize) -> Option<Round> {
    if r + 1 >= p {
        return None;
    }
    let at = |b: usize| Region::new(Buffer::Recv, layout.displ(b), layout.count(b));
    let (send_block, recv_block) = ((own + p - r) % p, (own + p - r - 1) % p);
    let xfer = |peer, b| {
        Some(Xfer {
            peer,
            region: at(b),
        })
    };
    Some(Round::new(
        xfer((me + 1) % p, send_block),
        xfer((me + p - 1) % p, recv_block),
        Mode::Overwrite,
    ))
}

/// Round `r` of recursive halving over `buf` (power-of-two `p`): with
/// `mask = p / 2^(r+1)`, send the aligned run of `mask` blocks the XOR
/// partner keeps and combine its copy of the run holding block `me`.
fn halving(p: usize, me: usize, layout: Layout<'_>, r: usize, buf: Buffer) -> Round {
    let mask = p >> (r + 1);
    let partner = me ^ mask;
    let held = |q: usize| layout.span(buf, q & !(mask - 1), mask);
    let xfer = |region| {
        Some(Xfer {
            peer: partner,
            region,
        })
    };
    Round::new(xfer(held(partner)), xfer(held(me)), Mode::Combine)
}

/// The reduction an exchange schedule is driven with: it has no
/// combining receive, so nothing calls it.
#[derive(Debug, Clone, Copy)]
struct Exchange;

impl<T: ShmElem> ReduceOp<T> for Exchange {
    fn combine(self, _: T, _: T) -> T {
        unreachable!("an exchange schedule combines nothing")
    }
}

/// The split-phase driver of one [`Schedule`] run (see the module docs).
#[derive(Debug)]
pub struct Rounds<T: ShmElem> {
    schedule: Schedule,
    tag: u32,
    started: bool,
    round: usize,
    posted: bool,
    tmp: Option<Buf<T>>,
}

impl<T: ShmElem> Rounds<T> {
    /// A run of `schedule` on a `p`-member communicator, sending on `tag`.
    ///
    /// # Panics
    /// Panics on recursive doubling, Rabenseifner or recursive halving
    /// over a `p` that is not a power of two.
    pub fn new(schedule: Schedule, tag: u32, p: usize) -> Self {
        let halves = matches!(
            schedule,
            Schedule::RecursiveDoubling | Schedule::Rabenseifner | Schedule::RecursiveHalving
        );
        assert!(
            !halves || p.is_power_of_two(),
            "{schedule:?} requires a power-of-two communicator"
        );
        Self {
            schedule,
            tag,
            started: false,
            round: 0,
            posted: false,
            tmp: None,
        }
    }

    /// Advance an exchange schedule under `how`; `Ok(true)` when it
    /// completed. The result buffer is `recv`, laid out by `layout`;
    /// `send = None` runs in place.
    pub fn drive(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        layout: Layout<'_>,
        bufs: (Option<&Buf<T>>, &mut Buf<T>),
        how: Drive,
    ) -> Result<bool, WaitError> {
        self.drive_reduce(ctx, comm, layout, bufs, Exchange, how)
    }

    /// [`Rounds::drive`] of any schedule, combining by `op`.
    pub(crate) fn drive_reduce<O: ReduceOp<T>>(
        &mut self,
        ctx: &mut Ctx,
        comm: &Communicator,
        layout: Layout<'_>,
        (send, recv): (Option<&Buf<T>>, &mut Buf<T>),
        op: O,
        how: Drive,
    ) -> Result<bool, WaitError> {
        let (p, me) = (comm.size(), comm.rank());
        let s = self.schedule;
        let blocks = |c: Copies| (0..c.count(p)).map(move |i| c.block(p, me, layout, i));
        if !self.started {
            self.started = true;
            self.tmp = s.scratch(p, layout).map(|len| ctx.buf_zeroed(len));
            if let Some(c) = s.prologue(p, me, layout, send.is_none()) {
                copy(ctx, blocks(c), send, recv, &mut self.tmp);
            }
        }
        while let Some(round) = s.round(p, me, layout, self.round) {
            if !self.posted {
                if let Some(c) = round.pack {
                    copy(ctx, blocks(c), send, recv, &mut self.tmp);
                }
                if let Some(Xfer { peer, region }) = round.send {
                    let from = match (region.buf, &self.tmp) {
                        (Buffer::Send, _) => sent(send),
                        (Buffer::Recv, _) => &*recv,
                        (Buffer::Tmp, tmp) => tmp.as_ref().expect("the schedule has a temporary"),
                    };
                    ctx.send_region(comm, peer, self.tag, from, region.off, region.len);
                }
                self.posted = true;
            }
            if let Some(Xfer { peer, region: to }) = round.recv {
                let Some(payload) = ctx.step_recv(comm, peer, self.tag, how)? else {
                    return Ok(false);
                };
                let dst = match (to.buf, &mut self.tmp) {
                    (Buffer::Recv, _) => &mut *recv,
                    (Buffer::Tmp, Some(tmp)) => tmp,
                    (buf, _) => unreachable!("no schedule receives into {buf:?}"),
                };
                match round.mode {
                    Mode::Overwrite => dst.write_payload(to.off, &payload),
                    Mode::Combine => {
                        dst.combine_payload(to.off, &payload, |a, b| op.combine(a, b));
                        ctx.compute(to.len as f64 * O::FLOPS_PER_ELEM);
                    }
                }
            }
            if let Some(c) = round.unpack {
                copy(ctx, blocks(c), send, recv, &mut self.tmp);
            }
            self.round += 1;
            self.posted = false;
        }
        if let Some(c) = s.epilogue(me, layout) {
            copy(ctx, blocks(c), send, recv, &mut self.tmp);
        }
        Ok(true)
    }
}

fn sent<T>(send: Option<&Buf<T>>) -> &Buf<T> {
    send.expect("a send region needs a send buffer")
}

/// Perform `copies` in order, then charge their summed length as one
/// copy.
fn copy<T: ShmElem>(
    ctx: &mut Ctx,
    copies: impl Iterator<Item = (Region, Region)>,
    send: Option<&Buf<T>>,
    recv: &mut Buf<T>,
    tmp: &mut Option<Buf<T>>,
) {
    let mut elems = 0;
    for (from, to) in copies {
        let (src, dst, len) = (from.off, to.off, from.len);
        match (from.buf, to.buf, tmp.as_mut()) {
            (Buffer::Send, Buffer::Recv, _) => recv.copy_from(dst, sent(send), src, len),
            (Buffer::Send, Buffer::Tmp, Some(t)) => t.copy_from(dst, sent(send), src, len),
            (Buffer::Recv, Buffer::Tmp, Some(t)) => t.copy_from(dst, recv, src, len),
            (Buffer::Tmp, Buffer::Recv, Some(t)) => recv.copy_from(dst, t, src, len),
            (Buffer::Tmp, Buffer::Tmp, Some(t)) => t.copy_within(src, dst, len),
            (a, b, _) => unreachable!("no schedule copies {a:?} into {b:?}"),
        }
        elems += len;
    }
    ctx.charge_copy(elems * T::SIZE);
}

#[cfg(test)]
mod tests {
    //! The schedules as data, walked with no simulator: every rank's
    //! rounds run in lockstep over symbolic buffers whose elements are
    //! labelled by the ranks whose contributions they hold.

    use std::collections::VecDeque;

    use super::*;
    use crate::util::displs_of;
    use simnet::rng::Rng64;

    /// `(contributors, destination rank, element)`: a bitmask of the ranks
    /// combined into the element (one bit for a block moved unreduced);
    /// allgather blocks and reduced vectors have destination 0. Reduced
    /// elements are numbered across the whole vector.
    type Label = Option<(u64, usize, usize)>;

    #[derive(Default)]
    struct Rank {
        send: Vec<Label>,
        recv: Vec<Label>,
        tmp: Vec<Label>,
        recv_writes: Vec<u32>,
        tmp_writes: Vec<u32>,
    }

    impl Rank {
        fn read(&self, r: Region) -> Vec<Label> {
            let buf = match r.buf {
                Buffer::Send => &self.send,
                Buffer::Recv => &self.recv,
                Buffer::Tmp => &self.tmp,
            };
            buf[r.off..r.off + r.len].to_vec()
        }

        fn write(&mut self, r: Region, data: &[Label], mode: Mode) {
            let (buf, writes) = match r.buf {
                Buffer::Recv => (&mut self.recv, &mut self.recv_writes),
                Buffer::Tmp => (&mut self.tmp, &mut self.tmp_writes),
                Buffer::Send => panic!("a schedule wrote its send buffer"),
            };
            assert_eq!(r.len, data.len());
            for (i, &got) in data.iter().enumerate() {
                let at = &mut buf[r.off + i];
                *at = match mode {
                    Mode::Overwrite => got,
                    Mode::Combine => {
                        let ((a, da, ea), (b, db, eb)) =
                            (at.expect("combine into a set element"), got.expect("set"));
                        assert_eq!((da, ea), (db, eb), "combined two different elements");
                        assert_eq!(a & b, 0, "element {ea} combines a contribution twice");
                        Some((a | b, da, ea))
                    }
                };
                writes[r.off + i] += 1;
            }
        }

        fn copy(&mut self, c: Copies, p: usize, me: usize, layout: Layout<'_>) {
            for i in 0..c.count(p) {
                let (from, to) = c.block(p, me, layout, i);
                assert_eq!(from.len, to.len, "{c:?} copy {i}");
                let data = self.read(from);
                self.write(to, &data, Mode::Overwrite);
            }
        }
    }

    /// Walk `s` on `p` ranks, every rank's blocks laid out by `layout` (see
    /// [`walk_with`]).
    fn walk(s: Schedule, p: usize, layout: Layout<'_>, len: usize, in_place: bool) -> usize {
        walk_with(s, p, |_| layout, len, in_place)
    }

    /// Walk `s` on `p` ranks, rank `me`'s blocks laid out by
    /// `layouts(me)` and its result at least `len` elements long; return
    /// the number of rounds. Each round every rank sends, then every rank
    /// receives the oldest message from its peer (FIFO per source and
    /// destination, as one tag per schedule matches): one sent in this
    /// round or an earlier one, as long as the region, or the walk stalls.
    /// No message is left unreceived. For the exchange schedules, every
    /// result element is written exactly once (an in-place own block by
    /// Bruck only) and ends holding its block, and Bruck's temporary is
    /// written at most once per element. A bcast leaves every element of
    /// every rank holding the root's; a binomial writes it once off the
    /// root and never on it, van de Geijn at least once off the root and
    /// at most twice anywhere. For the reduce schedules, every combine
    /// joins two disjoint contributor sets of one element, and every
    /// result element ends with all `p` contributors.
    fn walk_with<'a>(
        s: Schedule,
        p: usize,
        layouts: impl Fn(usize) -> Layout<'a>,
        len: usize,
        in_place: bool,
    ) -> usize {
        use Schedule::{Rabenseifner, RecursiveHalving, ReduceDoubling, ReducePairwise};
        // Alltoallv's send blocks are its layout's blocks p..2p.
        let v = matches!(s, Schedule::Shifted | Schedule::Linear);
        let alltoall = v || matches!(s, Schedule::Pairwise | Schedule::AlltoallBruck);
        let root = match s {
            Schedule::Binomial { root } | Schedule::ScatterAllgather { root } => Some(root),
            _ => None,
        };
        let root_binomial = matches!(s, Schedule::Binomial { .. });
        let scatter = matches!(s, RecursiveHalving | ReducePairwise);
        let reduce = scatter || matches!(s, ReduceDoubling | Rabenseifner);
        let bit = |r: usize| 1u64 << r;
        let all = u64::MAX >> (64 - p);
        let label = |r: usize, d: usize, n: usize| (0..n).map(move |i| Some((bit(r), d, i)));
        let mut ranks: Vec<Rank> = (0..p)
            .map(|me| {
                let layout = layouts(me);
                let sent = |d: usize| layout.count(if v { p + d } else { d });
                let len = if scatter {
                    layout.count(me)
                } else {
                    len.max(layout.total(p))
                };
                let mut rank = Rank {
                    send: if reduce {
                        (0..layout.total(p))
                            .map(|i| Some((bit(me), 0, i)))
                            .collect()
                    } else if alltoall {
                        (0..p).flat_map(|d| label(me, d, sent(d))).collect()
                    } else {
                        label(me, 0, layout.count(me)).collect()
                    },
                    recv: if root == Some(me) {
                        label(me, 0, len).collect()
                    } else {
                        vec![None; len]
                    },
                    tmp: vec![None; s.scratch(p, layout).unwrap_or(0)],
                    ..Rank::default()
                };
                rank.recv_writes = vec![0; len];
                rank.tmp_writes = vec![0; rank.tmp.len()];
                if in_place {
                    let own = Region::new(Buffer::Recv, layout.displ(me), layout.count(me));
                    let off = own.off;
                    rank.recv[off..off + own.len].copy_from_slice(&rank.send);
                }
                if let Some(c) = s.prologue(p, me, layout, in_place) {
                    rank.copy(c, p, me, layout);
                }
                rank
            })
            .collect();
        // Messages in flight, oldest first, at `from * p + to`.
        let mut queues: Vec<VecDeque<Vec<Label>>> = vec![VecDeque::new(); p * p];
        let mut r = 0;
        loop {
            let rounds: Vec<Option<Round>> =
                (0..p).map(|me| s.round(p, me, layouts(me), r)).collect();
            if rounds.iter().all(Option::is_none) {
                break;
            }
            let rounds: Vec<Round> = rounds
                .into_iter()
                .map(|x| x.expect("every rank runs the same number of rounds"))
                .collect();
            let at = format!("{s:?} p={p} round {r}");
            for (me, round) in rounds.iter().enumerate() {
                if let Some(c) = round.pack {
                    ranks[me].copy(c, p, me, layouts(me));
                }
                if let Some(Xfer { peer, region }) = round.send {
                    queues[me * p + peer].push_back(ranks[me].read(region));
                }
            }
            for (me, round) in rounds.iter().enumerate() {
                if let Some(Xfer { peer, region }) = round.recv {
                    let msg = queues[peer * p + me]
                        .pop_front()
                        .unwrap_or_else(|| panic!("{at}: {me} stalls on {peer}"));
                    assert_eq!(msg.len(), region.len, "{at}: {peer} → {me}");
                    ranks[me].write(region, &msg, round.mode);
                }
                if let Some(c) = round.unpack {
                    ranks[me].copy(c, p, me, layouts(me));
                }
            }
            r += 1;
        }
        if let Some(i) = queues.iter().position(|q| !q.is_empty()) {
            panic!("{s:?} p={p}: {} never receives from {}", i % p, i / p);
        }
        for (me, rank) in ranks.iter_mut().enumerate() {
            let layout = layouts(me);
            if let Some(c) = s.epilogue(me, layout) {
                rank.copy(c, p, me, layout);
            }
            if reduce {
                let first = if scatter { layout.displ(me) } else { 0 };
                for (i, &got) in rank.recv.iter().enumerate() {
                    let want = Some((all, 0, first + i));
                    assert_eq!(got, want, "{s:?} p={p}: rank {me} element {i}");
                }
                continue;
            }
            if let Some(root) = root {
                let want: Vec<Label> = label(root, 0, rank.recv.len()).collect();
                assert_eq!(rank.recv, want, "{s:?} p={p}: rank {me}");
                // van de Geijn's ring brings again what its scatter handed
                // on, and the root its own blocks.
                let once = u32::from(me != root);
                let most = if root_binomial { once } else { 2 };
                let writes = &rank.recv_writes;
                let ok = writes.iter().all(|&w| (once..=most).contains(&w));
                assert!(ok, "{s:?} p={p}: rank {me} writes {writes:?}");
                continue;
            }
            for b in 0..p {
                let region = Region::new(Buffer::Recv, layout.displ(b), layout.count(b));
                let to = if alltoall { me } else { 0 };
                let want: Vec<Label> = label(b, to, region.len).collect();
                assert_eq!(rank.read(region), want, "{s:?} p={p}: rank {me} block {b}");
                let writes = &rank.recv_writes[region.off..region.off + region.len];
                // Only Bruck's inverse rotation rewrites an in-place own block.
                let once = u32::from(!in_place || b != me || s == Schedule::Bruck);
                assert!(
                    writes.iter().all(|&w| w == once),
                    "{s:?} p={p}: rank {me} block {b}"
                );
            }
            if s == Schedule::Bruck {
                assert!(rank.tmp_writes.iter().all(|&w| w <= 1), "{s:?} p={p}");
            }
        }
        r
    }

    fn log2_ceil(p: usize) -> usize {
        p.next_power_of_two().trailing_zeros() as usize
    }

    #[test]
    fn every_schedule_delivers_every_block_once_in_its_round_count() {
        let mut rng = Rng64::new(43);
        for p in 1..=40 {
            let count = rng.usize_in(0, 4);
            let counts = rng.vec_usize(p, 0, 5);
            let displs = displs_of(&counts);
            let total: usize = counts.iter().sum();
            // A stripe: segments at increasing offsets with gaps between.
            let gaps: Vec<usize> = counts
                .iter()
                .scan(0, |at, &c| {
                    let d = *at + 1;
                    *at = d + c;
                    Some(d)
                })
                .collect();
            let uniform = Layout::Uniform(count);
            let vector = Layout::Counts {
                counts: &counts,
                displs: &displs,
            };
            let stripe = Layout::Counts {
                counts: &counts,
                displs: &gaps,
            };
            let stripe_len = stripe.total(p) + 1;
            let ring = p - 1;
            let log = log2_ceil(p);
            for in_place in [false, true] {
                assert_eq!(walk(Schedule::Ring, p, uniform, p * count, in_place), ring);
                assert_eq!(walk(Schedule::Ring, p, vector, total, in_place), ring);
                assert_eq!(walk(Schedule::Ring, p, stripe, stripe_len, in_place), ring);
                assert_eq!(walk(Schedule::Bruck, p, uniform, p * count, in_place), log);
                assert_eq!(walk(Schedule::Bruck, p, vector, total, in_place), log);
                if p.is_power_of_two() {
                    let rd = Schedule::RecursiveDoubling;
                    assert_eq!(walk(rd, p, uniform, p * count, in_place), log);
                    assert_eq!(walk(rd, p, vector, total, in_place), log);
                }
            }
            assert_eq!(walk(Schedule::Pairwise, p, uniform, p * count, false), ring);
            assert_eq!(
                walk(Schedule::AlltoallBruck, p, uniform, p * count, false),
                log
            );
        }
        assert_eq!(walk(Schedule::Local, 1, Layout::Uniform(3), 3, false), 0);
    }

    #[test]
    fn every_reduce_schedule_combines_each_contribution_once_in_its_round_count() {
        let mut rng = Rng64::new(46);
        for p in 1..=64 {
            let count = rng.usize_in(0, 4);
            let counts = rng.vec_usize(p, 0, 5);
            let displs = displs_of(&counts);
            let total: usize = counts.iter().sum();
            let vector = Layout::Counts {
                counts: &counts,
                displs: &displs,
            };
            // Whole vectors in balanced blocks: p·count elements, then a
            // total that leaves a remainder (and fewer elements than
            // ranks when p is large).
            let even = Layout::Balanced {
                total: p * count,
                parts: p,
            };
            let odd = Layout::Balanced {
                total: rng.usize_in(1, 3 * p),
                parts: p,
            };
            let log = p.ilog2() as usize;
            for layout in [even, odd] {
                let len = layout.total(p);
                let rd = walk(Schedule::ReduceDoubling, p, layout, len, false);
                assert_eq!(rd, log + 2, "fold, log₂ exchanges, unfold");
                if p.is_power_of_two() {
                    let rab = walk(Schedule::Rabenseifner, p, layout, len, false);
                    assert_eq!(rab, 2 * log);
                }
            }
            for layout in [Layout::Uniform(count), vector] {
                let pw = walk(Schedule::ReducePairwise, p, layout, total, false);
                assert_eq!(pw, p - 1);
                if p.is_power_of_two() {
                    let rh = walk(Schedule::RecursiveHalving, p, layout, total, false);
                    assert_eq!(rh, log);
                }
            }
        }
    }

    #[test]
    fn every_bcast_schedule_hands_every_rank_the_root_message_in_its_round_count() {
        let mut rng = Rng64::new(47);
        for p in 1..=40 {
            let log = log2_ceil(p);
            // Fewer elements than ranks (empty blocks), then more.
            for len in [rng.usize_in(0, p + 1), rng.usize_in(p, 4 * p)] {
                let layout = Layout::Balanced {
                    total: len,
                    parts: p,
                };
                for root in [0, p / 2, p - 1] {
                    let binomial = Schedule::Binomial { root };
                    assert_eq!(walk(binomial, p, layout, len, false), log);
                    let vdg = Schedule::ScatterAllgather { root };
                    assert_eq!(walk(vdg, p, layout, len, false), log + p - 1);
                }
            }
        }
    }

    #[test]
    fn both_alltoallv_schedules_deliver_every_block_once_in_their_round_count() {
        let mut rng = Rng64::new(48);
        for p in 1..=40 {
            // sends[s][d]: what rank s sends rank d, zeros included.
            let sends: Vec<Vec<usize>> = (0..p).map(|_| rng.vec_usize(p, 0, 4)).collect();
            let recvs: Vec<Vec<usize>> = (0..p)
                .map(|d| (0..p).map(|s| sends[s][d]).collect())
                .collect();
            // Rank me's layout: its result's blocks, then its send buffer's.
            let counts: Vec<Vec<usize>> = (0..p)
                .map(|me| [&recvs[me][..], &sends[me]].concat())
                .collect();
            let displs: Vec<Vec<usize>> = (0..p)
                .map(|me| [displs_of(&recvs[me]), displs_of(&sends[me])].concat())
                .collect();
            let layouts = |me: usize| Layout::Counts {
                counts: &counts[me],
                displs: &displs[me],
            };
            assert_eq!(walk_with(Schedule::Shifted, p, layouts, 0, false), p - 1);
            assert_eq!(
                walk_with(Schedule::Linear, p, layouts, 0, false),
                2 * (p - 1)
            );
        }
    }

    /// The reference split of `len` elements into `p` segments, the
    /// remainder spread over the lowest.
    fn segment_counts(len: usize, p: usize) -> Vec<usize> {
        let (base, rem) = (len / p, len % p);
        (0..p).map(|i| base + usize::from(i < rem)).collect()
    }

    #[test]
    fn balanced_blocks_are_the_segment_counts() {
        for total in [0, 1, 7, 16, 17, 100] {
            for parts in [1, 2, 3, 5, 8, 24] {
                let counts = segment_counts(total, parts);
                let displs = displs_of(&counts);
                let layout = Layout::Balanced { total, parts };
                for r in 0..parts {
                    assert_eq!((layout.count(r), layout.displ(r)), (counts[r], displs[r]));
                }
                // Every element in one block, the blocks within one of
                // each other.
                let got: Vec<usize> = (0..parts).map(|r| layout.count(r)).collect();
                assert_eq!(got.iter().sum::<usize>(), total);
                assert_eq!(layout.total(parts), total);
                let (max, min) = (got.iter().max().unwrap(), got.iter().min().unwrap());
                assert!(max - min <= 1, "balanced split");
            }
        }
    }
}
