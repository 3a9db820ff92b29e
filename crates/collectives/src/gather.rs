//! Gather algorithms (`MPI_Gather` / `MPI_Gatherv`).
//!
//! [`binomial`] is MPICH's tree gather for regular block sizes;
//! [`linear_v`] is the straightforward irregular gather (root receives one
//! message per rank), which is what libraries commonly do for `Gatherv`.

use msim::{Buf, Communicator, Ctx, ShmElem};

use crate::tags;
use crate::util::displs_of;

/// Binomial-tree gather of `count` elements per rank to `root`. On the
/// root, `recv` receives p·count elements in rank order; on other ranks
/// `recv` is ignored (pass an empty buffer).
pub fn binomial<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    recv: &mut Buf<T>,
    root: usize,
) {
    let p = comm.size();
    let me = comm.rank();
    assert!(root < p, "gather root {root} out of range");
    let count = send.len();
    if me == root {
        assert_eq!(recv.len(), p * count, "root recv must hold p blocks");
    }
    if p == 1 {
        recv.copy_from(0, send, 0, count);
        ctx.charge_copy(count * T::SIZE);
        return;
    }
    let rr = (me + p - root) % p;

    // Subtree accumulation in relative-rank order: tmp[j] holds the block
    // of relative rank rr + j.
    let max_subtree = {
        // Size of the subtree rooted at rr in a binomial tree of p nodes.
        let mut mask = 1usize;
        while mask < p && rr & mask == 0 {
            mask <<= 1;
        }
        mask.min(p - rr)
    };
    let mut tmp = ctx.buf_zeroed::<T>(max_subtree * count);
    tmp.copy_from(0, send, 0, count);
    ctx.charge_copy(count * T::SIZE);

    let mut filled = 1usize; // blocks held
    let mut mask = 1usize;
    while mask < p {
        if rr & mask != 0 {
            // Send the whole accumulated subtree to the parent and stop.
            let parent = (rr - mask + root) % p;
            ctx.send_region(comm, parent, tags::GATHER, &tmp, 0, filled * count);
            break;
        }
        // Receive the child's subtree, if that child exists. The child at
        // distance `mask` roots a subtree of min(mask, p - child_rr)
        // blocks.
        let child_rr = rr + mask;
        if child_rr < p {
            let child = (child_rr + root) % p;
            let child_blocks = mask.min(p - child_rr);
            let payload = ctx.recv(comm, child, tags::GATHER);
            debug_assert_eq!(payload.len(), child_blocks * count * T::SIZE);
            tmp.write_payload(filled * count, &payload);
            filled += child_blocks;
        }
        mask <<= 1;
    }

    if me == root {
        // tmp holds blocks for relative ranks 0..p; rotate into rank order.
        #[allow(clippy::needless_range_loop)] // rotation indexes two buffers
        for j in 0..p {
            let abs = (j + root) % p;
            recv.copy_from(abs * count, &tmp, j * count, count);
        }
        ctx.charge_copy(p * count * T::SIZE);
    }
}

/// Linear irregular gather: every non-root sends its block straight to
/// the root, which receives them in rank order.
pub fn linear_v<T: ShmElem>(
    ctx: &mut Ctx,
    comm: &Communicator,
    send: &Buf<T>,
    counts: &[usize],
    recv: &mut Buf<T>,
    root: usize,
) {
    let p = comm.size();
    let me = comm.rank();
    assert!(root < p, "gather root {root} out of range");
    assert_eq!(counts.len(), p, "one count per rank required");
    assert_eq!(
        send.len(),
        counts[me],
        "send length must equal counts[rank]"
    );
    let displs = displs_of(counts);
    let total: usize = counts.iter().sum();
    if me == root {
        assert_eq!(recv.len(), total, "root recv must hold the total");
        recv.copy_from(displs[me], send, 0, counts[me]);
        ctx.charge_copy(counts[me] * T::SIZE);
        #[allow(clippy::needless_range_loop)] // src doubles as the message source
        for src in 0..p {
            if src != root {
                let payload = ctx.recv(comm, src, tags::GATHER + 1);
                recv.write_payload(displs[src], &payload);
            }
        }
    } else {
        ctx.send_region(comm, root, tags::GATHER + 1, send, 0, counts[me]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{datum, expected_allgather, expected_allgatherv, run};

    fn check_binomial(nodes: usize, ppn: usize, count: usize, root: usize) {
        let p = nodes * ppn;
        let r = run(nodes, ppn, move |ctx| {
            let world = ctx.world();
            let send = ctx.buf_from_fn(count, |i| datum(ctx.rank(), i));
            let mut recv = if ctx.rank() == root {
                ctx.buf_zeroed(count * world.size())
            } else {
                ctx.buf_zeroed(0)
            };
            binomial(ctx, &world, &send, &mut recv, root);
            recv.as_slice().unwrap().to_vec()
        });
        assert_eq!(
            r.per_rank[root],
            expected_allgather(p, count),
            "root content"
        );
        for (rank, got) in r.per_rank.iter().enumerate() {
            if rank != root {
                assert!(got.is_empty(), "non-root {rank} must not receive data");
            }
        }
    }

    #[test]
    fn binomial_various_shapes_and_roots() {
        for (nodes, ppn) in [(1, 1), (1, 4), (1, 5), (2, 3), (2, 4)] {
            let p = nodes * ppn;
            for root in [0, p / 2, p - 1] {
                check_binomial(nodes, ppn, 3, root);
            }
        }
    }

    #[test]
    fn linear_v_irregular() {
        let counts = vec![2usize, 0, 3, 1];
        let expected = expected_allgatherv(&counts);
        for root in 0..4 {
            let counts = counts.clone();
            let expected = expected.clone();
            let r = run(2, 2, move |ctx| {
                let world = ctx.world();
                let send = ctx.buf_from_fn(counts[ctx.rank()], |i| datum(ctx.rank(), i));
                let mut recv = if ctx.rank() == root {
                    ctx.buf_zeroed(counts.iter().sum())
                } else {
                    ctx.buf_zeroed(0)
                };
                linear_v(ctx, &world, &send, &counts, &mut recv, root);
                recv.as_slice().unwrap().to_vec()
            });
            assert_eq!(r.per_rank[root], expected, "root {root}");
        }
    }

    #[test]
    fn binomial_scales_logarithmically() {
        let time = |p: usize| {
            run(1, p, |ctx| {
                let world = ctx.world();
                let send = ctx.buf_from_fn(1, |i| datum(ctx.rank(), i));
                let mut recv = if ctx.rank() == 0 {
                    ctx.buf_zeroed(world.size())
                } else {
                    ctx.buf_zeroed(0)
                };
                binomial(ctx, &world, &send, &mut recv, 0);
                ctx.now()
            })
            .makespan()
        };
        let (t4, t16) = (time(4), time(16));
        assert!(
            t16 < t4 * 3.5,
            "binomial gather should scale ~log p: t4={t4} t16={t16}"
        );
    }
}
