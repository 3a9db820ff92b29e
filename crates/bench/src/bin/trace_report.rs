//! Schedule report: the structural difference between the hybrid and the
//! SMP-aware pure-MPI allgather, straight from the runtime's event trace
//! (message counts, volumes per link class, copies, node traffic), plus
//! the decision log of an autotuned run — which algorithm the policy
//! picked for every case, and why.
//!
//! This is the paper's Fig. 3 rendered as numbers.

use bench::table::print_table;
use bench::Machine;
use collectives::{smp_aware::SmpAware, SelectionPolicy, Tuning};
use hmpi::{HyAllgather, HybridComm};
use msim::{SimConfig, Universe};
use simnet::analysis::{node_traffic_matrix, TrafficStats};
use simnet::{ClusterSpec, EventKind, Placement};

fn main() {
    let m = Machine::hazel_hen();
    let spec = ClusterSpec::regular(4, 8);
    let elems = 1024usize;
    let map = Placement::SmpBlock.build(&spec);

    let run_traced = |hybrid: bool| {
        let cfg = SimConfig::new(spec.clone(), m.cost.clone())
            .phantom()
            .traced();
        let tuning = m.tuning.clone();
        let r = Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            if hybrid {
                let hc = HybridComm::new(ctx, &world, tuning.clone());
                let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
                ag.execute(ctx);
            } else {
                let sa = SmpAware::new(ctx, &world, Tuning::cray_mpich());
                let send = ctx.buf_zeroed::<f64>(elems);
                let mut recv = ctx.buf_zeroed::<f64>(elems * world.size());
                sa.allgather(ctx, &send, &mut recv);
            }
        })
        .expect("traced run");
        r.tracer.events()
    };

    let mut rows = Vec::new();
    let mut matrices = Vec::new();
    for (name, hybrid) in [
        ("Allgather (pure, SMP-aware)", false),
        ("Hy_Allgather (hybrid)", true),
    ] {
        let events = run_traced(hybrid);
        let s = TrafficStats::of(&events);
        rows.push(vec![
            name.to_string(),
            s.intra_msgs.to_string(),
            s.intra_bytes.to_string(),
            s.inter_msgs.to_string(),
            s.inter_bytes.to_string(),
            s.copy_bytes.to_string(),
            s.window_bytes.to_string(),
        ]);
        matrices.push((name, node_traffic_matrix(&events, &map)));
    }
    print_table(
        "Schedule structure — allgather of 1024 doubles/rank, 4 nodes x 8 ppn",
        &[
            "variant",
            "intra msgs",
            "intra B",
            "inter msgs",
            "inter B",
            "copied B",
            "window B",
        ],
        &rows,
    );

    for (name, m) in matrices {
        println!("\nnode-to-node payload bytes — {name}:");
        for row in &m {
            println!(
                "  {}",
                row.iter()
                    .map(|b| format!("{b:>9}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }

    // Decision log: the same hybrid allgather under the autotune policy.
    // Each row is one distinct (op, algorithm) selection with the cost
    // estimate that justified it; the count says how many ranks recorded
    // it (also visible in the trace as `decisions` events). Only the rank
    // that selects first computes the estimate — the others hit the
    // policy's shared cache — and which rank that is depends on the
    // executor's resume order, so the row shows the estimate whoever
    // recorded it (the smallest, should one pair have several): the
    // report must not change with the schedule.
    let policy = SelectionPolicy::autotune(m.tuning.clone());
    let handle = policy.clone();
    let cfg = SimConfig::new(spec.clone(), m.cost.clone())
        .phantom()
        .traced();
    let r = Universe::run(cfg, move |ctx| {
        let world = ctx.world();
        let hc = HybridComm::with_policy(ctx, &world, policy.clone());
        let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
        ag.execute(ctx);
    })
    .expect("traced autotune run");
    let traced = TrafficStats::of(&r.tracer.events()).decisions;

    let mut rows: Vec<(String, String, String, usize)> = Vec::new();
    for d in handle.log().decisions() {
        match rows
            .iter_mut()
            .find(|(op, algo, _, _)| *op == d.op.key() && *algo == d.algo)
        {
            Some(row) => {
                row.3 += 1;
                let is_hit = |why: &str| why.contains("cache hit");
                if (is_hit(&d.why), &d.why) < (is_hit(&row.2), &row.2) {
                    row.2 = d.why;
                }
            }
            None => rows.push((d.op.key().to_string(), d.algo.to_string(), d.why, 1)),
        }
    }
    print_table(
        &format!(
            "Decision log — autotuned Hy_Allgather, {} decisions recorded ({} traced)",
            handle.log().len(),
            traced
        ),
        &["op", "algorithm", "why", "ranks"],
        &rows
            .into_iter()
            .map(|(op, algo, why, n)| vec![op, algo, why, n.to_string()])
            .collect::<Vec<_>>(),
    );

    // Race sweep: the same hybrid allgather once more in *real* data mode
    // with the happens-before detector armed (the traffic runs above are
    // phantom, where the detector is a documented non-goal — see
    // docs/race-detection.md). The RaceCheck trace event summarizes the
    // sweep; a non-zero race count would have failed the run outright.
    let cfg = SimConfig::new(spec.clone(), m.cost.clone())
        .traced()
        .with_race_detect(true);
    let tuning = m.tuning.clone();
    let r = Universe::run(cfg, move |ctx| {
        let world = ctx.world();
        let hc = HybridComm::new(ctx, &world, tuning.clone());
        let ag = HyAllgather::<f64>::new(ctx, &hc, elems);
        ag.execute(ctx);
    })
    .expect("race-checked run (a detected race fails here)");
    let (accesses, races) = r
        .tracer
        .events()
        .iter()
        .find_map(|e| match e.kind {
            EventKind::RaceCheck { accesses, races } => Some((accesses, races)),
            _ => None,
        })
        .expect("detector-on traced run records a RaceCheck summary");
    print_table(
        "Race sweep — Hy_Allgather, real mode, MSIM_RACE-equivalent run",
        &["window accesses swept", "races"],
        &[vec![accesses.to_string(), races.to_string()]],
    );
}
