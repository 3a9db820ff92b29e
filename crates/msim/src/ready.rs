//! The node-affine ready queue of the coroutine executor: the ready set
//! wherever a single thread resumes the ranks in FIFO order (`Events`,
//! and `Pooled` when it has one worker).
//!
//! Most messages of a node-aware collective never leave the node (the
//! hybrid collectives' two on-node barriers per call are the extreme
//! case), so the rank a resumed rank wakes is usually its neighbour.
//! Resuming ranks in one global order walks every rank's cold stack
//! between two resumes of the same node; this queue instead keeps one
//! FIFO of ready ranks per node and drains the *current* node until it
//! has no ready rank before the next node takes its turn. Consecutive
//! resumes then touch the handful of stacks, mailboxes and window flags
//! one node shares, while they are still in cache.
//!
//! The next turn goes to the first node after the current one, in node
//! order and wrapping around, that has a ready rank: a cyclic sweep. The
//! traffic that does leave a node mostly runs in node order — the
//! leaders' bridge ring of every hybrid collective, each leader waiting
//! on its left neighbour — so when the sweep reaches a node, its left
//! neighbour has just run and its messages are there. Serving nodes in
//! the order they first had a ready rank instead follows whichever far
//! node's barrier round happened to wake them, and the bridge ring then
//! advances one step per resume (docs/simulator.md, *Resume order*).
//!
//! The order is a host-side choice only: virtual time never observes
//! which ready rank ran first (see `exec.rs`), so any order gives the
//! same results, clocks and traces. What the order must provide is
//! progress, and it does: every ready rank sits in its node's FIFO, and
//! that node is either the current one or waiting; a turn ends as soon
//! as the node has no ready rank, which finite rank programs reach after
//! finitely many resumes (a rank re-enters the queue only when a
//! *running* rank's send, flag post or rendezvous wakes it), and the
//! sweep reaches every waiting node within one lap.

use std::collections::VecDeque;

use simnet::RankMap;

/// Ready ranks, one FIFO per node, nodes served in a cyclic sweep.
#[derive(Debug)]
pub(crate) struct ReadyQueue {
    /// Node of each rank ([`RankMap::node_of`], narrowed).
    node_of: Vec<u32>,
    /// Ready ranks of each node, oldest first. A rank is ready at most
    /// once, so the capacity reserved up front (the node's rank count) is
    /// never exceeded and a push never allocates.
    per_node: Vec<VecDeque<usize>>,
    /// One bit per node, set while the node has a ready rank and waits
    /// for its turn (never the current node's). Finding the next turn
    /// scans at most one word per 64 nodes: 64 words at 262 144 ranks of
    /// 64 per node.
    waiting: Vec<u64>,
    /// The node being drained.
    current: u32,
    len: usize,
    /// See [`crate::SimStats::node_turns`].
    node_turns: u64,
}

impl ReadyQueue {
    /// An empty queue over the nodes of `map`.
    pub(crate) fn new(map: &RankMap) -> Self {
        let nodes = map.num_nodes();
        assert!(
            u32::try_from(nodes).is_ok(),
            "node count {nodes} exceeds the ready queue's u32 node index"
        );
        Self {
            node_of: (0..map.nranks()).map(|r| map.node_of(r) as u32).collect(),
            per_node: (0..nodes)
                .map(|n| VecDeque::with_capacity(map.ranks_on(n).len()))
                .collect(),
            waiting: vec![0; nodes.div_ceil(64)],
            current: 0,
            len: 0,
            node_turns: 0,
        }
    }

    /// A queue holding every rank of `map`, in rank order.
    pub(crate) fn full(map: &RankMap) -> Self {
        let mut q = Self::new(map);
        for rank in 0..map.nranks() {
            q.push(rank);
        }
        q
    }

    /// Turns taken so far (see [`crate::SimStats::node_turns`]).
    pub(crate) fn node_turns(&self) -> u64 {
        self.node_turns
    }

    /// Make `rank` ready. The caller guarantees it is not already queued
    /// (the executors' rank states do).
    pub(crate) fn push(&mut self, rank: usize) {
        let node = self.node_of[rank];
        self.per_node[node as usize].push_back(rank);
        if node != self.current {
            if self.len == 0 {
                // Nothing else is ready (so no node is waiting either):
                // this node's turn starts now.
                self.current = node;
                self.node_turns += 1;
            } else {
                self.waiting[node as usize / 64] |= 1 << (node % 64);
            }
        }
        self.len += 1;
    }

    /// The next rank to resume: the oldest ready rank of the current
    /// node, else of the next waiting node in the sweep; `None` when no
    /// rank is ready.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        loop {
            if let Some(rank) = self.per_node[self.current as usize].pop_front() {
                self.len -= 1;
                return Some(rank);
            }
            if self.len == 0 {
                return None;
            }
            // The current node has no ready rank: its turn is over.
            let next = self.next_waiting();
            self.waiting[next / 64] &= !(1 << (next % 64));
            self.current = next as u32;
            self.node_turns += 1;
        }
    }

    /// The first waiting node after the current one, wrapping around.
    /// The caller guarantees that some node waits.
    fn next_waiting(&self) -> usize {
        let words = self.waiting.len();
        let from = (self.current as usize + 1) % (words * 64);
        let (w, bit) = (from / 64, from % 64);
        // The rest of that word, then every word once, wrapping; the last
        // one visited is that word again, whose low bits are the nodes
        // before `from`.
        let tail = self.waiting[w] & (!0 << bit);
        if tail != 0 {
            return w * 64 + tail.trailing_zeros() as usize;
        }
        (1..=words)
            .map(|i| (w + i) % words)
            .find(|&i| self.waiting[i] != 0)
            .map(|i| i * 64 + self.waiting[i].trailing_zeros() as usize)
            .expect("ranks are ready, so some node waits for its turn")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::{check_cases, Rng64};
    use simnet::{ClusterSpec, Placement};

    /// The specification, written the slow obvious way.
    struct Model {
        node_of: Vec<usize>,
        ready: Vec<VecDeque<usize>>,
        current: Option<usize>,
    }

    impl Model {
        fn new(map: &RankMap) -> Self {
            Self {
                node_of: (0..map.nranks()).map(|r| map.node_of(r)).collect(),
                ready: vec![VecDeque::new(); map.num_nodes()],
                current: None,
            }
        }

        fn push(&mut self, rank: usize) {
            let node = self.node_of[rank];
            if self.ready.iter().all(|q| q.is_empty()) {
                self.current = Some(node);
            }
            self.ready[node].push_back(rank);
        }

        fn pop(&mut self) -> Option<usize> {
            let current = self.current?;
            if self.ready[current].is_empty() {
                // The next node after `current` with a ready rank,
                // wrapping around.
                let nodes = self.ready.len();
                self.current = (1..=nodes)
                    .map(|i| (current + i) % nodes)
                    .find(|&n| !self.ready[n].is_empty());
            }
            self.ready[self.current?].pop_front()
        }
    }

    /// A random cluster (regular or not, block or round-robin placed;
    /// sometimes over more than one 64-node word of the sweep's bitset)
    /// and a random interleaving of pushes (`Some(rank)`) and pops
    /// (`None`) over it in which a rank is queued at most once at a time
    /// and may be queued again after it popped — the executors' usage.
    fn random_script(rng: &mut Rng64) -> (RankMap, Vec<Option<usize>>) {
        let nodes = if rng.chance(0.3) {
            rng.usize_in(60, 200)
        } else {
            rng.usize_in(1, 7)
        };
        let spec = ClusterSpec::irregular(rng.vec_usize(nodes, 1, 6));
        let placement = if rng.chance(0.5) {
            Placement::SmpBlock
        } else {
            Placement::RoundRobin
        };
        let map = placement.build(&spec);
        // The model says which rank a pop returns, i.e. which becomes
        // pushable again.
        let mut model = Model::new(&map);
        let mut idle: Vec<usize> = (0..map.nranks()).collect();
        let mut script = Vec::new();
        for _ in 0..rng.usize_in(1, 200) {
            if !idle.is_empty() && rng.chance(0.55) {
                let rank = idle.swap_remove(rng.usize_in(0, idle.len()));
                model.push(rank);
                script.push(Some(rank));
            } else {
                idle.extend(model.pop());
                script.push(None);
            }
        }
        (map, script)
    }

    /// The pop sequence of `script` (`None` for a pop that found nothing
    /// ready), then whatever a final drain returns.
    fn pops(map: &RankMap, script: &[Option<usize>]) -> (Vec<Option<usize>>, Vec<usize>) {
        let mut q = ReadyQueue::new(map);
        let during = script
            .iter()
            .filter_map(|step| match *step {
                Some(rank) => {
                    q.push(rank);
                    None
                }
                None => Some(q.pop()),
            })
            .collect();
        let drained = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(q.len, 0);
        (during, drained)
    }

    /// Every pop agrees with the model: FIFO within a node, the current
    /// node drained before the next node's turn, and nodes taking turns
    /// in a cyclic sweep of node order.
    #[test]
    fn pops_follow_the_node_affine_model() {
        check_cases(0x5EAD_1E55, 300, |rng| {
            let (map, script) = random_script(rng);
            let mut model = Model::new(&map);
            let want: Vec<Option<usize>> = script
                .iter()
                .filter_map(|step| match *step {
                    Some(rank) => {
                        model.push(rank);
                        None
                    }
                    None => Some(model.pop()),
                })
                .collect();
            assert_eq!(pops(&map, &script).0, want);
        });
    }

    /// Every pushed rank pops exactly once, and a pop finds nothing only
    /// when nothing is ready: a ready rank on another node runs as soon
    /// as the current node has none.
    #[test]
    fn every_pushed_rank_pops_exactly_once() {
        check_cases(0x0DD_BA11, 300, |rng| {
            let (map, script) = random_script(rng);
            let (during, drained) = pops(&map, &script);
            let mut queued = vec![false; map.nranks()];
            let mut depth = 0usize;
            let mut during = during.into_iter();
            for step in &script {
                match *step {
                    Some(rank) => {
                        assert!(!std::mem::replace(&mut queued[rank], true));
                        depth += 1;
                    }
                    None => match during.next().expect("one result per pop") {
                        Some(rank) => {
                            assert!(std::mem::replace(&mut queued[rank], false), "{rank} twice");
                            depth -= 1;
                        }
                        None => assert_eq!(depth, 0, "pop found nothing with ranks ready"),
                    },
                }
            }
            for rank in drained {
                assert!(std::mem::replace(&mut queued[rank], false), "{rank} twice");
            }
            assert!(queued.iter().all(|&q| !q), "a pushed rank never popped");
        });
    }

    /// A pop moves to another node only if the previous pop left its
    /// node with no ready rank (pushes since then cannot take the turn
    /// back), and `node_turns` counts those moves.
    #[test]
    fn a_turn_ends_only_when_the_node_has_no_ready_rank() {
        check_cases(0x7A6_7EA4, 300, |rng| {
            let (map, script) = random_script(rng);
            let mut q = ReadyQueue::new(&map);
            let mut ready_on = vec![0usize; map.num_nodes()];
            // Node of the last pop, and whether that pop drained it.
            let mut last: Option<(usize, bool)> = None;
            let mut changes = 0;
            for step in &script {
                match *step {
                    Some(rank) => {
                        q.push(rank);
                        ready_on[map.node_of(rank)] += 1;
                    }
                    None => {
                        let Some(rank) = q.pop() else { continue };
                        let node = map.node_of(rank);
                        if let Some((prev, drained)) = last.filter(|&(prev, _)| prev != node) {
                            assert!(drained, "left node {prev} for {node} with ranks ready");
                            changes += 1;
                        }
                        ready_on[node] -= 1;
                        last = Some((node, ready_on[node] == 0));
                    }
                }
            }
            // A turn that starts on a push and ends before any pop is
            // counted but not seen here, hence `>=`.
            assert!(q.node_turns >= changes, "{} < {changes}", q.node_turns);
        });
    }

    /// Same push sequence ⇒ same pop sequence.
    #[test]
    fn same_pushes_pop_identically() {
        check_cases(0x5A4E_5EED, 100, |rng| {
            let (map, script) = random_script(rng);
            assert_eq!(pops(&map, &script), pops(&map, &script));
        });
        // The executors' seeding: every rank pops node by node, in rank
        // order within a node, one turn per node after the first.
        let map = Placement::RoundRobin.build(&ClusterSpec::irregular(vec![2, 1, 3]));
        let mut q = ReadyQueue::full(&map);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        let by_node: Vec<usize> = (0..3).flat_map(|n| map.ranks_on(n).to_vec()).collect();
        assert_eq!(order, by_node);
        assert_eq!(q.node_turns, 2);
    }
}
