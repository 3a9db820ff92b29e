//! Communicator API invariants: rank translation, nested splits,
//! determinism of the split machinery.

use msim::{Communicator, Ctx, Payload, SimConfig, Universe};
use simnet::{ClusterSpec, CostModel};

fn cfg(nodes: usize, ppn: usize) -> SimConfig {
    SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test())
}

#[test]
fn translation_roundtrips_on_world() {
    let r = Universe::run(cfg(2, 3), |ctx| {
        let world = ctx.world();
        let mut ok = true;
        for local in 0..world.size() {
            let g = world.global_of(local);
            ok &= world.local_of(g) == Some(local);
        }
        ok &= world.local_of(999).is_none();
        ok
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

#[test]
fn translation_roundtrips_on_subcomms() {
    let r = Universe::run(cfg(2, 3), |ctx| {
        let world = ctx.world();
        let color = (ctx.rank() % 3) as i64;
        let c = world.split(ctx, Some(color), 0).unwrap();
        // Every member's global rank maps back to its local rank.
        let mut ok = c.members().len() == c.size();
        for local in 0..c.size() {
            ok &= c.local_of(c.global_of(local)) == Some(local);
        }
        // Non-members are not translatable.
        for g in 0..ctx.nranks() {
            let member = c.members().contains(&g);
            ok &= c.local_of(g).is_some() == member;
        }
        ok
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

#[test]
fn nested_splits_compose() {
    // world -> row comms -> per-row pair comms; traffic stays scoped.
    let r = Universe::run(cfg(2, 4), |ctx| {
        let world = ctx.world();
        let row = world.split(ctx, Some((ctx.rank() / 4) as i64), 0).unwrap();
        let pair = row.split(ctx, Some((row.rank() / 2) as i64), 0).unwrap();
        assert_eq!(pair.size(), 2);
        // Ping within the pair.
        let peer = 1 - pair.rank();
        ctx.send(&pair, peer, 3, Payload::empty());
        ctx.recv(&pair, peer, 3);
        (row.rank(), pair.rank(), pair.members().to_vec())
    })
    .unwrap();
    // Rank 5 (row 1, index 1) pairs with rank 4.
    assert_eq!(r.per_rank[5].2, vec![4, 5]);
    assert_eq!(r.per_rank[5].1, 1);
}

#[test]
fn comm_ids_are_unique_across_groups() {
    let r = Universe::run(cfg(1, 6), |ctx| {
        let world = ctx.world();
        let a = world.split(ctx, Some((ctx.rank() % 2) as i64), 0).unwrap();
        let b = world.split(ctx, Some((ctx.rank() % 3) as i64), 0).unwrap();
        (world.id(), a.id(), b.id())
    })
    .unwrap();
    for (w, a, b) in &r.per_rank {
        assert_ne!(w, a);
        assert_ne!(a, b);
        assert_ne!(w, b);
    }
    // Different colors of the same split have different ids.
    assert_ne!(r.per_rank[0].1, r.per_rank[1].1);
}

#[test]
fn sequential_splits_on_one_comm_do_not_collide() {
    // Repeatedly splitting the same communicator must produce fresh,
    // functional communicators every time (per-rank op sequencing).
    let r = Universe::run(cfg(1, 4), |ctx| {
        let world = ctx.world();
        let mut last_id = world.id();
        for round in 0..5i64 {
            let c = world.split(ctx, Some(round % 2), 0).unwrap();
            assert_ne!(c.id(), last_id);
            last_id = c.id();
            // Use it: a tiny ring to prove it routes.
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            ctx.send(&c, next, round as u32, Payload::empty());
            ctx.recv(&c, prev, round as u32);
        }
        true
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

#[test]
fn undefined_color_excludes_rank_everywhere() {
    let r = Universe::run(cfg(1, 5), |ctx| {
        let world = ctx.world();
        let c = world.split(ctx, (ctx.rank() < 2).then_some(0), 0);
        match c {
            Some(c) => {
                assert_eq!(c.size(), 2);
                true
            }
            None => ctx.rank() >= 2,
        }
    })
    .unwrap();
    assert!(r.per_rank.iter().all(|&ok| ok));
}

/// The reference `Communicator::num_nodes` replaced: collect every
/// member's node, sort, dedup, count.
fn nodes_by_sort_dedup(ctx: &Ctx, comm: &Communicator) -> usize {
    let mut nodes: Vec<usize> = comm
        .members()
        .iter()
        .map(|&g| ctx.map().node_of(g))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len()
}

#[test]
fn num_nodes_matches_sort_dedup_on_world_shm_bridge_and_strided_comms() {
    for spec in [
        ClusterSpec::regular(4, 6),
        ClusterSpec::irregular(vec![1, 3, 4]),
    ] {
        let nodes = spec.num_nodes();
        let r = Universe::run(SimConfig::new(spec, CostModel::uniform_test()), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let bridge = world.split_bridge(ctx, &shm);
            // Every third rank: members skip nodes unevenly.
            let strided = world.split(ctx, Some((ctx.rank() % 3) as i64), 0).unwrap();
            let mut counts = Vec::new();
            for comm in [Some(&world), Some(&shm), bridge.as_ref(), Some(&strided)] {
                let Some(comm) = comm else { continue };
                let n = comm.num_nodes(ctx.map());
                assert_eq!(n, nodes_by_sort_dedup(ctx, comm));
                // The cached answer is the same answer.
                assert_eq!(n, comm.num_nodes(ctx.map()));
                counts.push(n);
            }
            counts
        })
        .unwrap();
        // Rank 0 leads its node, so it holds all four communicators:
        // world and bridge span every node, shm exactly one.
        assert_eq!(r.per_rank[0][..3], [nodes, 1, nodes]);
    }
}
