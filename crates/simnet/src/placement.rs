//! Rank placement: which node each global rank lives on.
//!
//! The paper assumes SMP-style (block) placement for its main results and
//! discusses other placements in §6; the hybrid collectives remain correct
//! for any placement because they derive node membership from the placement
//! itself (the "node-sorted global rank array" technique of \[31\]).

use crate::cost::LinkClass;
use crate::topology::ClusterSpec;

/// A policy assigning global ranks to nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// SMP-style: consecutive ranks fill a node before moving to the next.
    SmpBlock,
    /// Round-robin over nodes (skipping nodes that are already full, so the
    /// policy is well defined on irregular clusters).
    RoundRobin,
    /// Explicit rank→node assignment.
    Custom(Vec<usize>),
}

impl Placement {
    /// Materialize this policy on a cluster into a [`RankMap`].
    ///
    /// The number of ranks always equals `spec.total_cores()` — the paper's
    /// experiments vary processes-per-node by varying the *cluster spec*.
    ///
    /// # Panics
    /// Panics if a custom assignment overflows a node's capacity, names a
    /// nonexistent node, or has the wrong length.
    pub fn build(&self, spec: &ClusterSpec) -> RankMap {
        let nranks = spec.total_cores();
        let nnodes = spec.num_nodes();
        let node_of: Vec<usize> = match self {
            Placement::SmpBlock => {
                let mut v = Vec::with_capacity(nranks);
                for node in 0..nnodes {
                    v.extend(std::iter::repeat_n(node, spec.cores_on(node)));
                }
                v
            }
            Placement::RoundRobin => {
                let mut remaining: Vec<usize> = spec.cores_per_node().to_vec();
                let mut v = Vec::with_capacity(nranks);
                let mut node = 0;
                for _ in 0..nranks {
                    // Find the next node with free cores, cycling.
                    let mut tries = 0;
                    while remaining[node] == 0 {
                        node = (node + 1) % nnodes;
                        tries += 1;
                        assert!(tries <= nnodes, "all nodes full before all ranks placed");
                    }
                    v.push(node);
                    remaining[node] -= 1;
                    node = (node + 1) % nnodes;
                }
                v
            }
            Placement::Custom(assignment) => {
                assert_eq!(
                    assignment.len(),
                    nranks,
                    "custom placement must assign exactly {nranks} ranks"
                );
                let mut used = vec![0usize; nnodes];
                for (rank, &node) in assignment.iter().enumerate() {
                    assert!(
                        node < nnodes,
                        "rank {rank} assigned to nonexistent node {node}"
                    );
                    used[node] += 1;
                    assert!(
                        used[node] <= spec.cores_on(node),
                        "node {node} over capacity ({} cores)",
                        spec.cores_on(node)
                    );
                }
                assignment.clone()
            }
        };

        let mut ranks_of_node: Vec<Vec<usize>> = vec![Vec::new(); nnodes];
        for (rank, &node) in node_of.iter().enumerate() {
            ranks_of_node[node].push(rank);
        }
        RankMap {
            node_of,
            ranks_of_node,
        }
    }
}

/// The materialized rank→node mapping for a concrete cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMap {
    node_of: Vec<usize>,
    ranks_of_node: Vec<Vec<usize>>,
}

impl RankMap {
    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes (including any left empty by a custom placement).
    pub fn num_nodes(&self) -> usize {
        self.ranks_of_node.len()
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Global ranks on `node`, in ascending order.
    pub fn ranks_on(&self, node: usize) -> &[usize] {
        &self.ranks_of_node[node]
    }

    /// The node leader: the lowest global rank on the rank's node
    /// (the paper's leader convention, Fig. 2).
    pub fn leader_of(&self, rank: usize) -> usize {
        self.ranks_of_node[self.node_of(rank)][0]
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    /// Link class between two ranks.
    pub fn link(&self, a: usize, b: usize) -> LinkClass {
        if self.node_of(a) == self.node_of(b) {
            LinkClass::SharedMem
        } else {
            LinkClass::Network
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smp_block_fills_nodes_in_order() {
        let spec = ClusterSpec::regular(2, 3);
        let map = Placement::SmpBlock.build(&spec);
        assert_eq!(
            (0..6).map(|r| map.node_of(r)).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1]
        );
        assert_eq!(map.ranks_on(1), &[3, 4, 5]);
    }

    #[test]
    fn round_robin_cycles() {
        let spec = ClusterSpec::regular(2, 2);
        let map = Placement::RoundRobin.build(&spec);
        assert_eq!(
            (0..4).map(|r| map.node_of(r)).collect::<Vec<_>>(),
            vec![0, 1, 0, 1]
        );
    }

    #[test]
    fn round_robin_skips_full_nodes_on_irregular_cluster() {
        let spec = ClusterSpec::irregular(vec![1, 3]);
        let map = Placement::RoundRobin.build(&spec);
        // rank0->node0 (now full), rank1->node1, rank2->node1, rank3->node1
        assert_eq!(
            (0..4).map(|r| map.node_of(r)).collect::<Vec<_>>(),
            vec![0, 1, 1, 1]
        );
    }

    #[test]
    fn leaders_are_lowest_rank_per_node() {
        let spec = ClusterSpec::regular(2, 3);
        let map = Placement::SmpBlock.build(&spec);
        assert!(map.is_leader(0));
        assert!(!map.is_leader(1));
        assert!(map.is_leader(3));
        assert_eq!(map.leader_of(5), 3);
    }

    #[test]
    fn round_robin_leaders_differ_from_block() {
        let spec = ClusterSpec::regular(2, 2);
        let map = Placement::RoundRobin.build(&spec);
        // node0 = {0, 2}, node1 = {1, 3}
        assert_eq!(map.leader_of(2), 0);
        assert_eq!(map.leader_of(3), 1);
    }

    #[test]
    fn link_classes() {
        let spec = ClusterSpec::regular(2, 2);
        let map = Placement::SmpBlock.build(&spec);
        assert_eq!(map.link(0, 1), LinkClass::SharedMem);
        assert_eq!(map.link(1, 2), LinkClass::Network);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn custom_over_capacity_panics() {
        let spec = ClusterSpec::regular(2, 1);
        Placement::Custom(vec![0, 0]).build(&spec);
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn custom_bad_node_panics() {
        let spec = ClusterSpec::regular(2, 1);
        Placement::Custom(vec![0, 5]).build(&spec);
    }

    #[test]
    fn custom_roundtrip() {
        let spec = ClusterSpec::irregular(vec![2, 2]);
        let map = Placement::Custom(vec![1, 0, 1, 0]).build(&spec);
        assert_eq!(map.ranks_on(0), &[1, 3]);
        assert_eq!(map.ranks_on(1), &[0, 2]);
        assert_eq!(map.leader_of(2), 0);
    }
}
