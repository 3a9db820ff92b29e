//! Pipelined large-message hybrid allgather.
//!
//! The paper stops its evaluation at 256 KiB and notes that beyond that "a
//! pipeline method could be applied" (its reference \[30\], Träff et al.,
//! "A simple, pipelined algorithm for large, irregular all-gather
//! problems"). This module provides it: the bridge exchange runs a
//! segmented ring in which segment `k` of a block is forwarded one ring
//! hop per slot, so all links stream concurrently and the completion time
//! drops from `(p−1)·(α + n·β)` to `≈ (p−1)·α + (p−2+S)·(α + n/S·β)`.

use collectives::util::displs_of;
use collectives::{allgatherv, tags};
use msim::{Buf, Ctx, ShmElem};

use crate::allgather::HyAllgatherv;
use crate::hybrid::HybridComm;

/// A hybrid allgather whose bridge exchange is a segmented pipelined ring.
#[derive(Debug, Clone)]
pub struct HyAllgatherPipelined<T> {
    inner: HyAllgatherv<T>,
    hc: HybridComm,
    bridge_counts: Vec<usize>,
    segment_elems: usize,
}

impl<T: ShmElem> HyAllgatherPipelined<T> {
    /// One-off setup for `count` elements per rank with ring segments of
    /// `segment_elems` elements.
    pub fn new(ctx: &mut Ctx, hc: &HybridComm, count: usize, segment_elems: usize) -> Self {
        assert!(segment_elems > 0, "segment size must be positive");
        let counts = vec![count; hc.comm().size()];
        let inner = HyAllgatherv::new(ctx, hc, &counts);
        let bridge_counts: Vec<usize> = hc
            .hierarchy()
            .group_members
            .iter()
            .map(|members| members.len() * count)
            .collect();
        Self {
            inner,
            hc: hc.clone(),
            bridge_counts,
            segment_elems,
        }
    }

    /// Initialize this rank's partition in place.
    pub fn write_my_block(&self, ctx: &Ctx, data: &[T]) {
        self.inner.write_my_block(ctx, data);
    }

    /// Read parent rank `r`'s block.
    pub fn read_block(&self, r: usize) -> Vec<T> {
        self.inner.read_block(r)
    }

    /// The collective: same synchronization envelope as the plain hybrid
    /// allgather, but the bridge exchange is pipelined.
    pub fn execute(&self, ctx: &mut Ctx) {
        let h = self.hc.hierarchy();
        let sync = self.hc.sync();
        if self.hc.single_node() {
            sync.full(ctx, &h.shm);
            return;
        }
        sync.arrive(ctx, &h.shm);
        if let Some(bridge) = &h.bridge {
            let mut view = Buf::Shared(self.inner.window().clone());
            pipelined_ring_in_place(
                ctx,
                bridge,
                &self.bridge_counts,
                &mut view,
                self.segment_elems,
            );
        }
        sync.release(ctx, &h.shm);
    }
}

/// Segmented pipelined ring allgatherv with `MPI_IN_PLACE` semantics.
///
/// Slot `s` handles every (ring step `r`, segment `k`) pair with
/// `r + k = s`: the segment received at slot `s` is forwarded at slot
/// `s + 1`, which is the classic transmission schedule of a pipelined
/// ring. Exposed for direct use and for the ablation bench.
pub fn pipelined_ring_in_place<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &msim::Communicator,
    counts: &[usize],
    recv: &mut Buf<T>,
    segment_elems: usize,
) {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(counts.len(), p, "one count per rank required");
    assert_eq!(
        recv.len(),
        counts.iter().sum::<usize>(),
        "recv must hold the full result"
    );
    assert!(segment_elems > 0, "segment size must be positive");
    if p == 1 {
        return;
    }
    if counts.iter().all(|&c| c <= segment_elems) {
        // No block needs segmentation — identical to the plain ring.
        allgatherv::ring_in_place(ctx, comm, counts, recv);
        return;
    }
    let displs = displs_of(counts);
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    let nseg = |block: usize| counts[block].div_ceil(segment_elems).max(1);
    let max_nseg = (0..p).map(nseg).max().expect("p >= 1");

    // Slots 0 ..= (p-2) + (max_nseg-1). All of a slot's sends are posted
    // *before* its blocking receives: a segment received in slot s is
    // forwarded in slot s+1, and no receive of slot s can stall the sends
    // of slot s (which would serialize the pipeline around the ring).
    for slot in 0..(p - 1) + (max_nseg - 1) {
        for r in 0..p - 1 {
            let Some(k) = slot.checked_sub(r) else {
                continue;
            };
            let send_block = (me + p - r) % p;
            if k < nseg(send_block) {
                let off = displs[send_block] + k * segment_elems;
                let len = segment_elems.min(counts[send_block] - k * segment_elems);
                ctx.send_region(comm, right, tags::ALLGATHERV + 8, recv, off, len);
            }
        }
        for r in 0..p - 1 {
            let Some(k) = slot.checked_sub(r) else {
                continue;
            };
            let recv_block = (me + p - r - 1) % p;
            if k < nseg(recv_block) {
                let payload = ctx.recv(comm, left, tags::ALLGATHERV + 8);
                let off = displs[recv_block] + k * segment_elems;
                recv.write_payload(off, &payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Tuning;
    use msim::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel};

    fn check(nodes: usize, ppn: usize, count: usize, seg: usize) {
        let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test());
        let p = nodes * ppn;
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let ag = HyAllgatherPipelined::<f64>::new(ctx, &hc, count, seg);
            let mine: Vec<f64> = (0..count).map(|i| (ctx.rank() * 1000 + i) as f64).collect();
            ag.write_my_block(ctx, &mine);
            ag.execute(ctx);
            (0..ctx.nranks())
                .flat_map(|rk| ag.read_block(rk))
                .collect::<Vec<f64>>()
        })
        .unwrap();
        let expected: Vec<f64> = (0..p)
            .flat_map(|rk| (0..count).map(move |i| (rk * 1000 + i) as f64))
            .collect();
        for (rank, got) in r.per_rank.iter().enumerate() {
            assert_eq!(got, &expected, "rank {rank} (seg {seg})");
        }
    }

    #[test]
    fn correct_various_segment_sizes() {
        for seg in [1, 3, 7, 16, 1000] {
            check(3, 2, 16, seg);
        }
        check(4, 2, 5, 2);
        check(2, 3, 1, 4);
    }

    #[test]
    fn pipelining_beats_plain_ring_for_large_messages() {
        // Large blocks over many nodes, 1 rank per node: the pipelined
        // ring should beat the unsegmented one.
        let count = 1 << 15;
        let nodes = 8;
        let time_pipelined = {
            let cfg =
                SimConfig::new(ClusterSpec::regular(nodes, 1), CostModel::cray_aries()).phantom();
            Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let counts = vec![count; world.size()];
                let mut recv = ctx.buf_zeroed::<f64>(count * world.size());
                pipelined_ring_in_place(ctx, &world, &counts, &mut recv, 4096);
                ctx.now()
            })
            .unwrap()
            .makespan()
        };
        let time_plain = {
            let cfg =
                SimConfig::new(ClusterSpec::regular(nodes, 1), CostModel::cray_aries()).phantom();
            Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let counts = vec![count; world.size()];
                let mut recv = ctx.buf_zeroed::<f64>(count * world.size());
                collectives::allgatherv::ring_in_place(ctx, &world, &counts, &mut recv);
                ctx.now()
            })
            .unwrap()
            .makespan()
        };
        assert!(
            time_pipelined < time_plain,
            "pipelined ({time_pipelined}) must beat plain ring ({time_plain})"
        );
    }

    #[test]
    fn small_messages_fall_back_to_plain_ring() {
        // When every block fits in one segment the schedules are identical.
        let run_with = |pipelined: bool| {
            let cfg = SimConfig::new(ClusterSpec::regular(4, 1), CostModel::cray_aries());
            Universe::run(cfg, move |ctx| {
                let world = ctx.world();
                let counts = vec![8usize; world.size()];
                let mut recv = ctx.buf_zeroed::<f64>(8 * world.size());
                recv.copy_from(8 * ctx.rank(), &Buf::Real(vec![1.0; 8]), 0, 8);
                if pipelined {
                    pipelined_ring_in_place(ctx, &world, &counts, &mut recv, 64);
                } else {
                    collectives::allgatherv::ring_in_place(ctx, &world, &counts, &mut recv);
                }
                ctx.now()
            })
            .unwrap()
            .clocks
        };
        assert_eq!(run_with(true), run_with(false));
    }
}
