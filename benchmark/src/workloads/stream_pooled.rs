//! `stream_pooled` — the few-ranks / deep-stream use of `msim`: one
//! 192-rank phantom universe on the pooled executor whose set-up is paid
//! once and then amortised over `ROUNDS` rounds of five collectives and
//! a 16-message ring. The steady-state per-operation host cost — mailbox
//! match, coroutine switch, cost model, `DriveOp` blocking *and*
//! split-phase — dominates; a launch- or calendar-only gain must leave
//! this workload unchanged.
//!
//! The seed draws the broadcast root of every round and the size of
//! every ring message.

use collectives::testutil::{datum, expected_allgather, expected_allreduce_sum, expected_bcast};
use collectives::{allgather, barrier, op::Sum, Tuning};
use hmpi::{HyAllgather, HyAllreduce, HyBcast, HybridComm, SyncMethod};
use msim::{Ctx, ExecMode, Request, SimConfig};
use simnet::rng::Rng64;
use simnet::{ClusterSpec, CostModel};

use super::{expect_same_bits, launch, max, Arm, PassOut, Rung, Traffic, Workload, POOLED_1};

const ROUNDS: usize = 8;
/// Ring messages each rank sends (and receives) per round.
const RING_MSGS: usize = 16;
/// Collective calls per rank per round.
const COLLECTIVES: usize = 5;
const STACK: usize = 256 << 10;
const RING_TAG: u32 = 7;

/// Element counts of the handles.
#[derive(Clone, Copy)]
struct Sizes {
    allgather: usize,
    bcast: usize,
    allreduce: usize,
}

pub struct StreamPooled {
    spec: ClusterSpec,
    cost: CostModel,
    tuning: Tuning,
    sizes: Sizes,
    /// Broadcast root of each round.
    roots: Vec<usize>,
    /// Byte length of ring message `m` of round `r` at `[r * RING_MSGS + m]`.
    msg_bytes: Vec<usize>,
}

impl StreamPooled {
    pub fn new(nodes: usize, ppn: usize, seed: u64) -> Self {
        let mut rng = Rng64::new(seed);
        Self {
            spec: ClusterSpec::regular(nodes, ppn),
            cost: CostModel::cray_aries(),
            tuning: Tuning::cray_mpich(),
            sizes: Sizes {
                allgather: 512,
                bcast: 4096,
                allreduce: 1024,
            },
            roots: rng.vec_usize(ROUNDS, 0, nodes * ppn),
            msg_bytes: rng.vec_usize(ROUNDS * RING_MSGS, 8, 1025),
        }
    }

    pub fn standard(seed: u64) -> Self {
        Self::new(8, 24, seed)
    }

    /// Per-rank modeled time of the `ROUNDS` rounds under `exec`.
    fn run(
        &self,
        exec: ExecMode,
        rung: Rung,
        arm: Arm,
        traffic: &mut Traffic,
    ) -> Result<Vec<f64>, String> {
        let cfg = SimConfig::new(self.spec.clone(), self.cost.clone())
            .phantom()
            .with_stack_size(STACK)
            .with_exec(exec);
        let rounds = if rung == Rung::Full { ROUNDS } else { 0 };
        let per_rank = launch("universe", cfg, arm, traffic, move |ctx| {
            stream(ctx, rung, rounds, self).unwrap_or((0.0, true))
        })?;
        if let Some(rank) = per_rank.iter().position(|&(_, ok)| !ok) {
            return Err(format!(
                "rank {rank} received a message or result it was not sent"
            ));
        }
        Ok(per_rank.into_iter().map(|(elapsed, _)| elapsed).collect())
    }

    /// One round with real payloads on a 2 × 4 cluster: every collective
    /// must deliver what the closed-form oracles say, every ring message
    /// its sender's bytes.
    fn real_replica(&self) -> Result<(), String> {
        let small = StreamPooled {
            spec: ClusterSpec::regular(2, 4),
            cost: self.cost.clone(),
            tuning: self.tuning.clone(),
            sizes: Sizes {
                allgather: 6,
                bcast: 10,
                allreduce: 7,
            },
            roots: vec![self.roots[0] % 8],
            msg_bytes: self.msg_bytes[..RING_MSGS].to_vec(),
        };
        // `run` without `.phantom()`: the same program over real buffers.
        let cfg = SimConfig::new(small.spec.clone(), small.cost.clone()).with_exec(POOLED_1);
        let oks = launch("replica", cfg, Arm::Plain, &mut Traffic::default(), |ctx| {
            stream(ctx, Rung::Full, 1, &small).is_some_and(|(_, ok)| ok)
        })?;
        match oks.iter().position(|ok| !ok) {
            Some(rank) => Err(format!(
                "real-payload replica: rank {rank} read data the oracles do not give"
            )),
            None => Ok(()),
        }
    }
}

/// The rank program: set-up up to `rung`, then `rounds` rounds. Returns
/// the modeled time of the rounds and, in a real-data universe, whether
/// every result matched its oracle (`None` when `rung` stops before the
/// timed region exists).
fn stream(ctx: &mut Ctx, rung: Rung, rounds: usize, w: &StreamPooled) -> Option<(f64, bool)> {
    if rung < Rung::Comm {
        return None;
    }
    let world = ctx.world();
    let (p, me) = (world.size(), world.rank());
    let real = !ctx.mode_is_phantom();
    let hc = HybridComm::with_sync(ctx, &world, w.tuning.clone(), SyncMethod::Barrier);
    if rung < Rung::Window {
        return None;
    }
    let n = w.sizes;
    let ag = HyAllgather::<f64>::new(ctx, &hc, n.allgather);
    let bc = HyBcast::<f64>::new(ctx, &hc, n.bcast);
    let ar = HyAllreduce::<f64>::new(ctx, &hc, n.allreduce);
    let contribution = ctx.buf_from_fn(n.allreduce, |i| datum(me, i));
    let send = ctx.buf_from_fn(n.allgather, |i| datum(me, i));
    let mut recv = ctx.buf_zeroed::<f64>(n.allgather * p);
    if rung < Rung::Setup {
        return None;
    }
    if real {
        let mine: Vec<f64> = (0..n.allgather).map(|i| datum(me, i)).collect();
        ag.write_my_block(ctx, &mine);
    }
    barrier::tuned(ctx, &world);

    let mut ok = true;
    let (right, left) = ((me + 1) % p, (me + p - 1) % p);
    let gathered =
        |ag: &HyAllgather<f64>| (0..p).flat_map(|r| ag.read_block(r)).collect::<Vec<f64>>();
    let t0 = ctx.now();
    for round in 0..rounds {
        ag.execute(ctx);
        if real {
            ok &= gathered(&ag) == expected_allgather(p, n.allgather);
        }

        let root = w.roots[round];
        if real && me == root {
            bc.write_message(ctx, &expected_bcast(root, n.bcast));
        }
        bc.execute(ctx, root);
        if real {
            ok &= bc.read_message() == expected_bcast(root, n.bcast);
        }

        ar.execute(ctx, &contribution, Sum);
        if real {
            let got = ar.read_result();
            let want = expected_allreduce_sum(p, n.allreduce);
            ok &= got
                .iter()
                .zip(&want)
                .all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1.0));
        }

        allgather::tuned(ctx, &world, &send, &mut recv, &w.tuning);
        if real {
            ok &= recv.as_slice() == Some(&expected_allgather(p, n.allgather)[..]);
        }

        // Split-phase allgather in flight around the p2p ring.
        let request = ag.iexecute(ctx);
        for m in 0..RING_MSGS {
            let bytes = w.msg_bytes[round * RING_MSGS + m];
            let fill = (me + m) as u8;
            let out = ctx.buf_from_fn::<u8>(bytes, |_| fill);
            ctx.send(&world, right, RING_TAG, out.payload_all());
        }
        for m in 0..RING_MSGS {
            let got = ctx.recv(&world, left, RING_TAG);
            let bytes = w.msg_bytes[round * RING_MSGS + m];
            ok &= got.len() == bytes;
            if real {
                let fill = (left + m) as u8;
                ok &= got.bytes().iter().all(|&b| b == fill);
            }
        }
        request.wait(ctx);
        if real {
            ok &= gathered(&ag) == expected_allgather(p, n.allgather);
        }
    }
    Some((ctx.now() - t0, ok))
}

impl Workload for StreamPooled {
    fn name(&self) -> &'static str {
        "stream_pooled"
    }

    fn op_unit(&self) -> &'static str {
        "one rank completing one collective, or one delivered message"
    }

    fn ops_per_pass(&self) -> u64 {
        (ROUNDS * self.spec.total_cores() * (COLLECTIVES + RING_MSGS)) as u64
    }

    fn pass(&self, rung: Rung, arm: Arm) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        out.clocks = self.run(POOLED_1, rung, arm, &mut out.traffic)?;
        out.virt_us = max(&out.clocks);
        Ok(out)
    }

    fn verify(&self, full: &PassOut) -> Result<(), String> {
        let events = self.run(
            ExecMode::Events,
            Rung::Full,
            Arm::Plain,
            &mut Traffic::default(),
        )?;
        expect_same_bits("pooled vs events clocks", &full.clocks, &events)?;
        self.real_replica()
    }
}
