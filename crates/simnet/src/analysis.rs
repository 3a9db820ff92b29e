//! Trace analysis: turn an event log into communication statistics.
//!
//! Used by the structural tests (e.g. "zero intra-node payload traffic")
//! and by the `trace_report` harness to characterize an algorithm's
//! schedule: message counts and volumes per link class, and the
//! node-to-node traffic matrix.

use crate::placement::RankMap;
use crate::trace::{Event, EventKind};

/// Aggregate statistics of one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficStats {
    /// Number of intra-node messages (send side), payload or empty.
    pub intra_msgs: usize,
    /// Number of inter-node messages.
    pub inter_msgs: usize,
    /// Payload bytes moved inside nodes.
    pub intra_bytes: usize,
    /// Payload bytes moved across the network.
    pub inter_bytes: usize,
    /// Bytes moved by explicit copies (memcpy through shared memory).
    pub copy_bytes: usize,
    /// Modeled flops.
    pub flops: f64,
    /// Barrier completions observed (all ranks combined).
    pub barriers: usize,
    /// Shared-window bytes allocated (sum of per-rank requests).
    pub window_bytes: usize,
    /// Algorithm-selection decisions recorded (all ranks combined).
    pub decisions: usize,
}

impl TrafficStats {
    /// Compute the aggregate statistics of `events`.
    pub fn of(events: &[Event]) -> Self {
        let mut s = Self::default();
        for e in events {
            match e.kind {
                EventKind::Send { bytes, intra, .. } => {
                    if intra {
                        s.intra_msgs += 1;
                        s.intra_bytes += bytes;
                    } else {
                        s.inter_msgs += 1;
                        s.inter_bytes += bytes;
                    }
                }
                EventKind::Copy { bytes } => s.copy_bytes += bytes,
                EventKind::Compute { flops } => s.flops += flops,
                EventKind::Barrier => s.barriers += 1,
                EventKind::WinAlloc { bytes } => s.window_bytes += bytes,
                EventKind::Decision { .. } => s.decisions += 1,
                EventKind::Recv { .. }
                | EventKind::RaceCheck { .. }
                | EventKind::Recovery { .. }
                | EventKind::ReqStart { .. }
                | EventKind::ReqComplete { .. } => {}
            }
        }
        s
    }
}

/// The node-to-node payload traffic matrix: entry (a, b) is the number
/// of bytes sent from a rank on node `a` to a rank on node `b`.
pub fn node_traffic_matrix(events: &[Event], map: &RankMap) -> Vec<Vec<usize>> {
    let n = map.num_nodes();
    let mut m = vec![vec![0usize; n]; n];
    for e in events {
        if let EventKind::Send { to, bytes, .. } = e.kind {
            let from_node = map.node_of(e.rank);
            let to_node = map.node_of(to);
            m[from_node][to_node] += bytes;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::topology::ClusterSpec;

    fn ev(rank: usize, kind: EventKind) -> Event {
        Event {
            rank,
            time: 0.0,
            kind,
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(
                0,
                EventKind::Send {
                    to: 1,
                    bytes: 100,
                    intra: true,
                },
            ),
            ev(
                0,
                EventKind::Send {
                    to: 2,
                    bytes: 50,
                    intra: false,
                },
            ),
            ev(
                1,
                EventKind::Send {
                    to: 3,
                    bytes: 8,
                    intra: false,
                },
            ),
            ev(2, EventKind::Copy { bytes: 64 }),
            ev(3, EventKind::Compute { flops: 1000.0 }),
            ev(3, EventKind::Barrier),
            ev(0, EventKind::WinAlloc { bytes: 4096 }),
            ev(
                1,
                EventKind::Recv {
                    from: 0,
                    bytes: 100,
                    intra: true,
                },
            ),
        ]
    }

    #[test]
    fn aggregate_stats() {
        let s = TrafficStats::of(&sample_events());
        assert_eq!(s.intra_msgs, 1);
        assert_eq!(s.inter_msgs, 2);
        assert_eq!(s.intra_bytes, 100);
        assert_eq!(s.inter_bytes, 58);
        assert_eq!(s.copy_bytes, 64);
        assert_eq!(s.flops, 1000.0);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.window_bytes, 4096);
    }

    #[test]
    fn traffic_matrix_routes_by_node() {
        // 2 nodes x 2 cores: ranks 0,1 on node 0; ranks 2,3 on node 1.
        let map = Placement::SmpBlock.build(&ClusterSpec::regular(2, 2));
        let m = node_traffic_matrix(&sample_events(), &map);
        assert_eq!(m[0][0], 100); // 0 -> 1
        assert_eq!(m[0][1], 58); // 0 -> 2 plus 1 -> 3
        assert_eq!(m[1][0], 0);
        assert_eq!(m[1][1], 0);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        assert_eq!(TrafficStats::of(&[]), TrafficStats::default());
    }
}
