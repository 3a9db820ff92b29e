//! The collective-algorithm registry: every named schedule in one
//! catalog, keyed by operation.
//!
//! Each schedule is one [`Algo`] variant, its typed identity from the
//! tuning table to the kernel; its key (`"allgather.ring"`) is parsed
//! once, at the edge, by [`Algo::from_key`]. An [`AlgorithmSpec`] gives
//! the schedule an applicability predicate over the [`CommCase`] at hand
//! and a closed-form cost estimate the autotuning policy ranks candidates
//! by (`simnet::Estimator`).
//!
//! The registry holds *selection metadata only*. Execution stays with
//! each operation module's `dispatch` function (collective kernels are
//! generic over the element type, which rules out trait-object
//! dispatch), so adding an algorithm is: add an [`Algo`] variant, write
//! the kernel, add its `dispatch` arm, and list one [`AlgorithmSpec`] in
//! the module's `SPECS`.

use simnet::Estimator;

/// Which collective operation an algorithm implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectiveOp {
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Allgatherv`.
    Allgatherv,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Alltoallv`.
    Alltoallv,
    /// `MPI_Reduce_scatter`.
    ReduceScatter,
    /// `MPI_Barrier`.
    Barrier,
    /// The hybrid collectives' on-node arrive/release synchronization
    /// (paper §6) — selected per `HybridComm`, like any other algorithm.
    Sync,
}

impl CollectiveOp {
    /// The stable string key (used in decision logs, tuning tables and
    /// algorithm name prefixes).
    pub fn key(self) -> &'static str {
        match self {
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Allgatherv => "allgatherv",
            CollectiveOp::Bcast => "bcast",
            CollectiveOp::Allreduce => "allreduce",
            CollectiveOp::Alltoall => "alltoall",
            CollectiveOp::Alltoallv => "alltoallv",
            CollectiveOp::ReduceScatter => "reduce_scatter",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Sync => "sync",
        }
    }

    /// Parse a string key back to the operation.
    pub fn from_key(key: &str) -> Option<Self> {
        Self::all().into_iter().find(|op| op.key() == key)
    }

    /// All operations, in catalog order.
    pub fn all() -> [CollectiveOp; 9] {
        [
            CollectiveOp::Allgather,
            CollectiveOp::Allgatherv,
            CollectiveOp::Bcast,
            CollectiveOp::Allreduce,
            CollectiveOp::Alltoall,
            CollectiveOp::Alltoallv,
            CollectiveOp::ReduceScatter,
            CollectiveOp::Barrier,
            CollectiveOp::Sync,
        ]
    }
}

/// The selection situation one collective call faces: the operation, the
/// communicator's shape, and the op-specific size measure.
///
/// `total_bytes` means, per operation:
/// * allgather / allgatherv — total result bytes (sum over all blocks);
/// * bcast / allreduce / reduce_scatter — the message/vector bytes;
/// * alltoall — bytes of one rank-to-rank block;
/// * barrier / sync — 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommCase {
    /// The operation being selected for.
    pub op: CollectiveOp,
    /// Number of ranks in the communicator.
    pub comm_size: usize,
    /// Number of distinct nodes the communicator's members live on.
    pub num_nodes: usize,
    /// Op-specific size measure in bytes (see type docs).
    pub total_bytes: usize,
    /// Whether a node-shared result window exists for this call — makes
    /// the hybrid (`hy_*`) schedules applicable.
    pub windowed: bool,
    /// Leader slots per node available to this call (1 = the classic
    /// single-leader hierarchy) — makes the multi-leader (`hy_kleader`)
    /// schedules applicable when ≥ 2.
    pub leaders: usize,
}

impl CommCase {
    /// A case for `op` over a communicator of `comm_size` ranks spanning
    /// `num_nodes` nodes, moving `total_bytes` (op-specific measure).
    pub fn new(op: CollectiveOp, comm_size: usize, num_nodes: usize, total_bytes: usize) -> Self {
        Self {
            op,
            comm_size,
            num_nodes,
            total_bytes,
            windowed: false,
            leaders: 1,
        }
    }

    /// Builder: mark that a node-shared window backs this call.
    pub fn windowed(mut self) -> Self {
        self.windowed = true;
        self
    }

    /// Builder: make `k` leader slots per node available.
    pub fn with_leaders(mut self, k: usize) -> Self {
        self.leaders = k.max(1);
        self
    }

    /// Whether the communicator spans more than one node.
    pub fn spans_nodes(&self) -> bool {
        self.num_nodes > 1
    }

    /// Bytes of one per-rank block (`total_bytes / comm_size`, for the
    /// block-symmetric operations).
    pub fn block_bytes(&self) -> usize {
        self.total_bytes / self.comm_size.max(1)
    }
}

/// Declares [`Algo`]: one variant per registered schedule, with its
/// operation and its `"<op>.<algorithm>"` key.
macro_rules! algos {
    ($($variant:ident => $op:ident $key:literal,)+) => {
        /// One registered collective schedule — the typed identity a
        /// selection hands from the tuning table or policy to the kernel.
        ///
        /// Variants are declared op by op in registration order, so
        /// [`AlgorithmRegistry::best`] breaks ties toward the earlier one.
        /// Traces, decision logs and tuning tables print [`Algo::key`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Algo {
            $(#[doc = concat!("`", $key, "`")] $variant,)+
        }

        impl Algo {
            /// Every schedule, in declaration order.
            pub const ALL: &'static [Algo] = &[$(Algo::$variant),+];

            /// The stable `"<op>.<algorithm>"` key.
            pub fn key(self) -> &'static str {
                match self {
                    $(Algo::$variant => $key,)+
                }
            }

            /// The operation this schedule implements.
            pub fn op(self) -> CollectiveOp {
                match self {
                    $(Algo::$variant => CollectiveOp::$op,)+
                }
            }

            /// Parse a key back to the schedule.
            pub fn from_key(key: &str) -> Option<Self> {
                Algo::ALL.iter().copied().find(|a| a.key() == key)
            }
        }
    };
}

algos! {
    AllgatherLocal => Allgather "allgather.local",
    AllgatherRecursiveDoubling => Allgather "allgather.recursive_doubling",
    AllgatherBruck => Allgather "allgather.bruck",
    AllgatherRing => Allgather "allgather.ring",
    AllgatherHySharedWindow => Allgather "allgather.hy_shared_window",
    AllgatherHyKleader => Allgather "allgather.hy_kleader",
    AllgathervLocal => Allgatherv "allgatherv.local",
    AllgathervBruck => Allgatherv "allgatherv.bruck",
    AllgathervRing => Allgatherv "allgatherv.ring",
    AllgathervHyKleader => Allgatherv "allgatherv.hy_kleader",
    BcastBinomial => Bcast "bcast.binomial",
    BcastScatterAllgather => Bcast "bcast.scatter_allgather",
    BcastHyKleaderSegmented => Bcast "bcast.hy_kleader_segmented",
    AllreduceRecursiveDoubling => Allreduce "allreduce.recursive_doubling",
    AllreduceRabenseifner => Allreduce "allreduce.rabenseifner",
    AllreduceHyKleader => Allreduce "allreduce.hy_kleader",
    AlltoallBruck => Alltoall "alltoall.bruck",
    AlltoallPairwise => Alltoall "alltoall.pairwise",
    AlltoallvPairwise => Alltoallv "alltoallv.pairwise",
    AlltoallvLinear => Alltoallv "alltoallv.linear",
    ReduceScatterLocal => ReduceScatter "reduce_scatter.local",
    ReduceScatterRecursiveHalving => ReduceScatter "reduce_scatter.recursive_halving",
    ReduceScatterPairwise => ReduceScatter "reduce_scatter.pairwise",
    BarrierDissemination => Barrier "barrier.dissemination",
    BarrierShmDissemination => Barrier "barrier.shm_dissemination",
    SyncBarrier => Sync "sync.barrier",
    SyncSharedFlags => Sync "sync.shared_flags",
    SyncP2p => Sync "sync.p2p",
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Compares by key, so a test can state the expected pick as a string.
impl PartialEq<&str> for Algo {
    fn eq(&self, other: &&str) -> bool {
        self.key() == *other
    }
}

/// Selection metadata for one schedule: when it can run and what it
/// costs. Each collective module lists its own next to its kernels.
pub struct AlgorithmSpec {
    /// The schedule (its key and operation).
    pub algo: Algo,
    /// Whether the schedule can run the given case at all (e.g.
    /// recursive doubling needs a power-of-two communicator).
    pub applicable: fn(&CommCase) -> bool,
    /// Closed-form cost estimate (µs) for ranking candidates. Only the
    /// *ordering* matters; see `simnet::estimate`.
    pub estimate: fn(&Estimator, &CommCase) -> f64,
}

impl AlgorithmSpec {
    /// The schedule's `"<op>.<algorithm>"` key.
    pub fn name(&self) -> &'static str {
        self.algo.key()
    }

    /// Whether the schedule can run `case`.
    pub fn applicable(&self, case: &CommCase) -> bool {
        (self.applicable)(case)
    }

    /// The closed-form cost estimate (µs) of `case`.
    pub fn estimate(&self, est: &Estimator, case: &CommCase) -> f64 {
        (self.estimate)(est, case)
    }
}

/// Every op's specs, indexed by [`CollectiveOp`] in declaration order:
/// each collective module's (its hybrid schedules, which `hmpi` runs,
/// after its flat ones), then the on-node sync flavors.
static SPECS: [&[AlgorithmSpec]; 9] = [
    crate::allgather::SPECS,
    crate::allgatherv::SPECS,
    crate::bcast::SPECS,
    crate::allreduce::SPECS,
    crate::alltoall::SPECS,
    crate::alltoallv::SPECS,
    crate::reduce_scatter::SPECS,
    crate::barrier::SPECS,
    SYNC,
];

/// The algorithm catalog: one static table of every module's specs.
#[derive(Debug)]
pub struct AlgorithmRegistry;

impl AlgorithmRegistry {
    /// The specs of `op`, in [`Algo`] declaration order.
    pub fn candidates(&self, op: CollectiveOp) -> &'static [AlgorithmSpec] {
        SPECS[op as usize]
    }

    /// The candidates applicable to `case`.
    pub fn applicable<'c>(
        &self,
        case: &'c CommCase,
    ) -> impl Iterator<Item = &'static AlgorithmSpec> + 'c {
        self.candidates(case.op)
            .iter()
            .filter(move |s| s.applicable(case))
    }

    /// The cheapest applicable candidate for `case` under `est`, with its
    /// estimate. Ties break toward the earlier declaration, so results
    /// are deterministic.
    pub fn best(&self, est: &Estimator, case: &CommCase) -> Option<(&'static AlgorithmSpec, f64)> {
        let mut best: Option<(&'static AlgorithmSpec, f64)> = None;
        for cand in self.applicable(case) {
            let cost = cand.estimate(est, case);
            match &best {
                Some((_, c)) if cost >= *c => {}
                _ => best = Some((cand, cost)),
            }
        }
        best
    }
}

/// The registry of every built-in algorithm.
pub fn global() -> &'static AlgorithmRegistry {
    &AlgorithmRegistry
}

/// The on-node synchronization flavors of the hybrid collectives. Only
/// metadata lives here — the implementations are in the `hmpi` crate,
/// which names these schedules in its decisions.
const SYNC: &[AlgorithmSpec] = &[
    AlgorithmSpec {
        algo: Algo::SyncBarrier,
        applicable: |_| true,
        // arrive + release are each a full MPI_Barrier: entry fee plus a
        // flag-dissemination round ladder.
        estimate: |e, c| 2.0 * (e.cost().barrier_entry_us + e.barrier(c.comm_size)),
    },
    AlgorithmSpec {
        algo: Algo::SyncSharedFlags,
        applicable: |_| true,
        // Fan-in: children post one flag each, leader polls s−1 flags;
        // fan-out: one multicast flag, each child polls once.
        estimate: |e, c| {
            let s = c.comm_size;
            if s <= 1 {
                return 0.0;
            }
            let m = e.cost();
            let arrive = m.flag_post_us + m.flag_latency_us + (s - 1) as f64 * m.flag_poll_us;
            let release = m.flag_post_us + m.flag_latency_us + m.flag_poll_us;
            arrive + release
        },
    },
    AlgorithmSpec {
        algo: Algo::SyncP2p,
        applicable: |_| true,
        // Zero-byte message pairs through the MPI stack, serialized at
        // the leader in both directions.
        estimate: |e, c| {
            let s = c.comm_size;
            if s <= 1 {
                return 0.0;
            }
            2.0 * (s - 1) as f64 * e.msg(0)
        },
    },
];

/// The spec of a k-leader hybrid schedule (run by `hmpi`): it needs a
/// window, two or more leader slots and more than one node, and costs
/// [`kleader_estimate`] at the case's leader count.
pub(crate) const fn kleader_spec(algo: Algo) -> AlgorithmSpec {
    fn applicable(c: &CommCase) -> bool {
        c.windowed && c.leaders >= 2 && c.spans_nodes()
    }
    fn estimate(e: &Estimator, c: &CommCase) -> f64 {
        kleader_estimate(e, c, c.leaders)
    }
    AlgorithmSpec {
        algo,
        applicable,
        estimate,
    }
}

/// Extra on-node coordination of the k-leader envelope beyond the plain
/// arrive/release sync: the go (rank 0 → leader slots) and quiesce
/// (leader slots → rank 0) flag hops. Zero at k = 1, where the envelope
/// collapses to the classic single-leader arrive/release.
fn kleader_envelope(m: &simnet::CostModel, k: usize) -> f64 {
    if k <= 1 {
        0.0
    } else {
        2.0 * (m.flag_post_us + m.flag_latency_us + k as f64 * m.flag_poll_us)
    }
}

/// Closed-form cost (µs) of the k-leader hybrid schedules, for any
/// k ≥ 1: arrive, the go/quiesce envelope, k concurrent stripe-bridge
/// schedules each moving 1/k of the node aggregate, and release. At
/// k = 1 this collapses to the single-leader designs — for allgather the
/// `allgather.hy_shared_window` estimate whenever the bridge ring is the
/// better schedule, and never above it (the real single-leader bridge is
/// adaptive, Bruck at short totals) — so one function prices the whole
/// k axis and [`recommended_leaders`] can find the crossover.
///
/// `e` must be the inter-node estimator of the case (bridge links);
/// the on-node parts are priced over shared memory internally.
pub fn kleader_estimate(e: &Estimator, c: &CommCase, k: usize) -> f64 {
    let nodes = c.num_nodes.max(1);
    let k = k.max(1);
    let ppn = c.comm_size.div_ceil(nodes);
    let shm = Estimator::for_span(e.cost(), false);
    let env = kleader_envelope(e.cost(), k);
    match c.op {
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
            let sync = 2.0 * shm.barrier(ppn);
            if nodes == 1 {
                return sync / 2.0;
            }
            let node_block = c.total_bytes / nodes;
            let bridge = if k == 1 {
                // The single-leader bridge exchange is adaptive (Bruck
                // for short totals, ring for long, as
                // `allgatherv::InPlaceSm::new` picks them):
                // price it as the better of the two so the k = 1
                // baseline is not handicapped at small sizes.
                let bruck = e.copy(node_block)
                    + e.doubling_rounds(nodes, node_block, c.total_bytes)
                    + e.copy(c.total_bytes);
                let ring = e.uniform_rounds(nodes - 1, node_block);
                bruck.min(ring)
            } else {
                // Each stripe rings its 1/k of every node block.
                e.uniform_rounds(nodes - 1, node_block.div_ceil(k))
            };
            sync + env + bridge
        }
        CollectiveOp::Bcast => {
            // Root forward, k stripes each van-de-Geijn broadcasting its
            // 1/k segment over the bridge, release.
            let seg = c.total_bytes.div_ceil(k);
            let bridge = if nodes == 1 {
                0.0
            } else {
                e.halving_rounds(nodes, seg) + e.uniform_rounds(nodes - 1, seg / nodes)
            };
            shm.barrier(ppn) + env + bridge
        }
        CollectiveOp::Allreduce => {
            let elems = c.total_bytes / 8;
            let intra = if k == 1 {
                // Leader-only binomial reduce over the node group.
                shm.copy(c.total_bytes)
                    + ceil_log2(ppn) as f64
                        * (shm.msg(c.total_bytes) + shm.reduce_compute(elems, 1.0))
            } else {
                // Cooperative fill: every rank writes its contribution
                // row, then reduces a 1/ppn slice across all ppn rows.
                shm.copy(c.total_bytes)
                    + ppn as f64 * shm.copy(c.total_bytes / ppn.max(1))
                    + shm.reduce_compute(elems, 1.0)
            };
            let bridge = if nodes == 1 {
                0.0
            } else {
                // Per stripe: Rabenseifner over 1/k of the vector.
                let seg = c.total_bytes.div_ceil(k);
                e.copy(seg)
                    + e.halving_rounds(nodes, seg)
                    + e.reduce_compute(seg / 8, 1.0)
                    + e.doubling_rounds(nodes, seg / nodes, seg)
            };
            2.0 * shm.barrier(ppn) + env + intra + bridge
        }
        _ => f64::INFINITY,
    }
}

/// The estimated-best leader count for a windowed hybrid case on the
/// given cluster: evaluates [`kleader_estimate`] at k = 1, 2, 4, … up to
/// `min(max_k, ppn)` and returns the argmin (ties toward smaller k).
/// This is how Legacy/Table/Autotune callers discover the ppn- and
/// size-dependent k > 1 crossovers without sweeping the simulator.
pub fn recommended_leaders(cost: &simnet::CostModel, c: &CommCase, max_k: usize) -> usize {
    let e = Estimator::for_span(cost, c.spans_nodes());
    let ppn = c.comm_size.div_ceil(c.num_nodes.max(1));
    let mut best_k = 1;
    let mut best_t = kleader_estimate(&e, c, 1);
    let mut k = 2;
    while k <= max_k.min(ppn) {
        let t = kleader_estimate(&e, c, k);
        if t < best_t {
            best_k = k;
            best_t = t;
        }
        k *= 2;
    }
    best_k
}

/// Number of ⌈log₂ p⌉ rounds (0 for p ≤ 1) — shared by the per-module
/// estimate functions.
pub fn ceil_log2(p: usize) -> usize {
    if p <= 1 {
        0
    } else {
        p.next_power_of_two().trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{CostModel, LinkClass};

    /// The spec of `algo`.
    fn spec(algo: Algo) -> &'static AlgorithmSpec {
        let specs = global().candidates(algo.op());
        specs.iter().find(|s| s.algo == algo).unwrap()
    }

    #[test]
    fn every_algo_round_trips_its_key() {
        assert_eq!(Algo::ALL.len(), 28);
        for &algo in Algo::ALL {
            assert_eq!(Algo::from_key(algo.key()), Some(algo));
            let (op, _) = algo.key().split_once('.').unwrap();
            assert_eq!(op, algo.op().key(), "{algo}");
        }
        assert_eq!(Algo::from_key("allgather.nonsense"), None);
    }

    #[test]
    fn every_algo_has_one_spec_in_declaration_order() {
        for op in CollectiveOp::all() {
            let listed: Vec<Algo> = global().candidates(op).iter().map(|s| s.algo).collect();
            let declared: Vec<Algo> = Algo::ALL.iter().copied().filter(|a| a.op() == op).collect();
            assert_eq!(listed, declared, "{op:?}");
        }
    }

    #[test]
    fn op_keys_round_trip() {
        for op in CollectiveOp::all() {
            assert_eq!(CollectiveOp::from_key(op.key()), Some(op));
        }
        assert_eq!(CollectiveOp::from_key("nonsense"), None);
    }

    #[test]
    fn applicability_respects_power_of_two() {
        let rd = spec(Algo::AllgatherRecursiveDoubling);
        let pow2 = CommCase::new(CollectiveOp::Allgather, 8, 2, 1024);
        let odd = CommCase::new(CollectiveOp::Allgather, 6, 2, 1024);
        assert!(rd.applicable(&pow2));
        assert!(!rd.applicable(&odd));
    }

    #[test]
    fn windowed_gates_hybrid_schedule() {
        let hy = spec(Algo::AllgatherHySharedWindow);
        let case = CommCase::new(CollectiveOp::Allgather, 8, 2, 1024);
        assert!(!hy.applicable(&case));
        assert!(hy.applicable(&case.windowed()));
    }

    #[test]
    fn best_is_deterministic_and_applicable() {
        let m = CostModel::cray_aries();
        let est = Estimator::new(&m, LinkClass::Network);
        let case = CommCase::new(CollectiveOp::Allgather, 6, 6, 48 * 1024);
        let (a, cost) = global().best(&est, &case).unwrap();
        assert!(a.applicable(&case));
        assert!(cost.is_finite() && cost > 0.0);
        let (b, _) = global().best(&est, &case).unwrap();
        assert_eq!(a.algo, b.algo);
    }

    #[test]
    fn shared_flags_estimate_undercuts_barrier() {
        // The autotuner's strict-win lever: for any on-node group size,
        // flag sync must rank cheaper than two full barriers (proven
        // against the simulator in hmpi's flags_are_cheaper_than_barrier).
        for model in [CostModel::cray_aries(), CostModel::nec_infiniband()] {
            let est = Estimator::new(&model, LinkClass::SharedMem);
            for s in [2usize, 3, 6, 12, 16, 24] {
                let case = CommCase::new(CollectiveOp::Sync, s, 1, 0);
                let flags = spec(Algo::SyncSharedFlags).estimate(&est, &case);
                let barrier = spec(Algo::SyncBarrier).estimate(&est, &case);
                assert!(flags < barrier, "s={s}: flags {flags} vs barrier {barrier}");
            }
        }
    }

    #[test]
    fn kleader_specs_gate_on_window_leaders_and_span() {
        for algo in [
            Algo::AllgatherHyKleader,
            Algo::AllgathervHyKleader,
            Algo::BcastHyKleaderSegmented,
            Algo::AllreduceHyKleader,
        ] {
            let spec = spec(algo);
            let op = algo.op();
            let base = CommCase::new(op, 48, 4, 64 * 1024);
            assert!(!spec.applicable(&base), "{algo}: no window");
            assert!(!spec.applicable(&base.windowed()), "{algo}: k=1");
            assert!(
                !spec.applicable(
                    &CommCase::new(op, 12, 1, 64 * 1024)
                        .windowed()
                        .with_leaders(4)
                ),
                "{algo}: single node"
            );
            assert!(
                spec.applicable(&base.windowed().with_leaders(2)),
                "{algo}: should apply"
            );
        }
    }

    #[test]
    fn kleader_estimate_collapses_to_single_leader_at_k1() {
        // At k = 1 the allgather pricing is the adaptive single-leader
        // bridge: never above the registered ring-priced schedule, and
        // exactly it where the ring is the better choice (large blocks),
        // so the k axis has a consistent origin.
        let m = CostModel::cray_aries();
        let est = Estimator::new(&m, LinkClass::Network);
        for (nodes, ppn, bytes) in [(4usize, 12usize, 96 * 1024usize), (2, 6, 4096), (8, 24, 1)] {
            let case = CommCase::new(CollectiveOp::Allgather, nodes * ppn, nodes, bytes).windowed();
            let single = spec(Algo::AllgatherHySharedWindow).estimate(&est, &case);
            assert!(kleader_estimate(&est, &case, 1) <= single);
        }
        // Ring-optimal regime: large per-node blocks, exact collapse.
        let case = CommCase::new(CollectiveOp::Allgather, 48, 4, 4 * 1024 * 1024).windowed();
        let single = spec(Algo::AllgatherHySharedWindow).estimate(&est, &case);
        assert_eq!(kleader_estimate(&est, &case, 1), single);
    }

    #[test]
    fn recommended_leaders_finds_size_dependent_crossover() {
        let m = CostModel::cray_aries();
        // Tiny messages: the envelope flags outweigh any bandwidth split.
        let small = CommCase::new(CollectiveOp::Allgather, 96, 4, 96 * 8).windowed();
        assert_eq!(recommended_leaders(&m, &small, 8), 1);
        // Large messages on fat nodes: striping the bridge ring wins.
        let large = CommCase::new(CollectiveOp::Allgather, 96, 4, 16 * 1024 * 1024).windowed();
        assert!(recommended_leaders(&m, &large, 8) > 1);
        // The recommendation never exceeds ppn.
        let thin = CommCase::new(CollectiveOp::Allgather, 8, 4, 16 * 1024 * 1024).windowed();
        assert!(recommended_leaders(&m, &thin, 8) <= 2);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(24), 5);
    }
}
