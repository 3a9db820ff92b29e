//! Race-detector integration tests: seeded mutants of the paper's
//! shared-window synchronization patterns must fire deterministically,
//! their corrected versions must be clean, and reports must be identical
//! across repeated runs and executor modes.
//!
//! The two mutants are the ones pinned by the issue:
//! 1. a hybrid allgather whose leader forgets the post-bridge-exchange
//!    release flag (children read the result window unsynchronized), and
//! 2. a flag-pair producer that posts the release flag *before* the data
//!    store (a reordered release).

use std::time::Duration;

use msim::{Ctx, ExecMode, FaultPlan, Payload, SharedWindow, SimConfig, SimError, Universe};
use simnet::{ClusterSpec, CostModel, EventKind};

fn cfg(nodes: usize, ppn: usize) -> SimConfig {
    SimConfig::new(ClusterSpec::regular(nodes, ppn), CostModel::uniform_test())
        .with_recv_timeout(Duration::from_millis(300))
        .with_race_detect(true)
}

const ARRIVE: u32 = 10;
const BRIDGE: u32 = 20;
const RELEASE: u32 = 30;

/// The paper's hybrid allgather (Fig. 4 shape) on leader-allocated
/// windows: everyone stores its block, children signal arrival, leaders
/// exchange node blocks over the bridge, then (unless mutated) release
/// the children with a multicast flag before anyone reads the result.
fn hybrid_allgather(ctx: &mut Ctx, release: bool) -> Vec<u64> {
    let world = ctx.world();
    let shm = world.split_shared(ctx);
    let bridge = world.split_bridge(ctx, &shm);
    let n = world.size();
    let my_len = if shm.rank() == 0 { n } else { 0 };
    let win: SharedWindow<u64> = SharedWindow::allocate(ctx, &shm, my_len);
    // Store this rank's contribution in its world slot.
    win.write(ctx.rank(), ctx.rank() as u64 + 1);
    if shm.rank() == 0 {
        for child in 1..shm.size() {
            ctx.recv(&shm, child, ARRIVE);
        }
        let br = bridge.expect("leader joins the bridge");
        let other = 1 - br.rank();
        let my_base = shm.size() * ctx.node();
        ctx.send(&br, other, BRIDGE, win.payload(my_base, shm.size()));
        let p = ctx.recv(&br, other, BRIDGE);
        let other_base = shm.size() * (1 - ctx.node());
        win.write_payload(other_base, &p);
        if release {
            // The release store of the paper's flag synchronization: the
            // mutant deletes exactly this.
            ctx.post_flag_multicast(&shm, RELEASE);
        }
    } else {
        ctx.send(&shm, 0, ARRIVE, Payload::empty());
        if release {
            ctx.wait_flag(&shm, 0, RELEASE);
        }
    }
    win.snapshot()
}

/// A producer/consumer flag pair on one node: rank 0 fills the window and
/// posts a flag; everyone else waits for the flag and reads. The mutant
/// posts the flag *before* the fill — a reordered release store.
fn flag_pair(ctx: &mut Ctx, reordered: bool) -> Vec<u64> {
    let world = ctx.world();
    let shm = world.split_shared(ctx);
    let len = 8usize;
    let my_len = if shm.rank() == 0 { len } else { 0 };
    let win: SharedWindow<u64> = SharedWindow::allocate(ctx, &shm, my_len);
    if shm.rank() == 0 {
        if reordered {
            ctx.post_flag_multicast(&shm, 7);
            win.fill_with(0, len, |i| i as u64);
        } else {
            win.fill_with(0, len, |i| i as u64);
            ctx.post_flag_multicast(&shm, 7);
        }
        win.snapshot()
    } else {
        ctx.wait_flag(&shm, 0, 7);
        let mut out = vec![0u64; len];
        win.read_into(0, &mut out);
        out
    }
}

fn race_reports(err: &SimError) -> &[msim::RaceReport] {
    match err {
        SimError::RaceDetected { reports, .. } => reports,
        other => panic!("expected RaceDetected, got {other}"),
    }
}

#[test]
fn correct_hybrid_allgather_is_clean() {
    let r = Universe::run(cfg(2, 3), |ctx| hybrid_allgather(ctx, true)).unwrap();
    for got in &r.per_rank {
        assert_eq!(got, &[1, 2, 3, 4, 5, 6]);
    }
}

#[test]
fn missing_release_fires_the_detector() {
    let err = Universe::run(cfg(2, 3), |ctx| hybrid_allgather(ctx, false)).unwrap_err();
    assert!(err.is_race(), "{err}");
    let reports = race_reports(&err);
    assert!(!reports.is_empty());
    // Every report involves a child's unsynchronized read of the result
    // window; each pair must conflict (not read/read) and overlap.
    for r in reports {
        assert!(
            r.first.kind == msim::AccessKind::Write || r.second.kind == msim::AccessKind::Write
        );
        assert_ne!(r.first.rank, r.second.rank);
        let a = (r.first.start, r.first.start + r.first.len);
        let b = (r.second.start, r.second.start + r.second.len);
        assert!(a.0 < b.1 && b.0 < a.1, "ranges must overlap: {r}");
    }
    // The display form names the window and both ranks.
    let shown = err.to_string();
    assert!(shown.contains("data race"), "{shown}");
}

#[test]
fn reordered_release_store_fires_the_detector() {
    let err = Universe::run(cfg(1, 4), |ctx| flag_pair(ctx, true)).unwrap_err();
    let reports = race_reports(&err);
    // Rank 0's late fill races each consumer's read.
    assert!(reports
        .iter()
        .any(|r| r.first.kind != r.second.kind || r.first.kind == msim::AccessKind::Write));
    // The sync trail in the report mentions the flag, pointing at the
    // reordered release.
    assert!(
        reports.iter().any(|r| {
            let syncs = r
                .first
                .recent_syncs
                .iter()
                .chain(r.second.recent_syncs.iter());
            syncs.into_iter().any(|s| s.contains("flag"))
        }),
        "{reports:?}"
    );
}

#[test]
fn correct_flag_pair_is_clean() {
    let r = Universe::run(cfg(1, 4), |ctx| flag_pair(ctx, false)).unwrap();
    for got in &r.per_rank {
        assert_eq!(got, &[0, 1, 2, 3, 4, 5, 6, 7]);
    }
}

#[test]
fn reports_are_identical_across_repeated_runs() {
    let run = || {
        let err = Universe::run(cfg(2, 3), |ctx| hybrid_allgather(ctx, false)).unwrap_err();
        format!("{:?}", race_reports(&err))
    };
    let first = run();
    for _ in 0..4 {
        assert_eq!(run(), first);
    }
}

#[test]
fn reports_agree_across_pool_widths() {
    const ONE: ExecMode = ExecMode::Pooled { workers: Some(1) };
    const TWO: ExecMode = ExecMode::Pooled { workers: Some(2) };
    let with_mode = |mode: ExecMode| {
        let err = Universe::run(cfg(2, 3).with_exec(mode), |ctx| {
            hybrid_allgather(ctx, false)
        })
        .unwrap_err();
        format!("{:?}", race_reports(&err))
    };
    assert_eq!(with_mode(ONE), with_mode(TWO));
    // Both mutants, both widths.
    let flag_mode = |mode: ExecMode| {
        let err = Universe::run(cfg(1, 4).with_exec(mode), |ctx| flag_pair(ctx, true)).unwrap_err();
        format!("{:?}", race_reports(&err))
    };
    assert_eq!(flag_mode(ONE), flag_mode(TWO));
}

#[test]
fn race_is_reported_even_when_a_fault_kills_the_racing_rank() {
    // Kill child rank 1 at its first message op — the arrive send, which
    // happens *after* its window write. The leader then deadlocks waiting
    // for the arrival, and the kill raises a rank panic; the surviving
    // sibling's unsynchronized snapshot still races the dead rank's write,
    // and that race must win over both the panic and the deadlock.
    let plan = FaultPlan::none().with_kill(1, 0);
    let err = Universe::run(cfg(2, 3).with_fault(plan), |ctx| {
        hybrid_allgather(ctx, false)
    })
    .unwrap_err();
    match &err {
        SimError::RaceDetected {
            reports,
            fault_context,
        } => {
            assert!(!reports.is_empty());
            // The fault plan rides along so the run is reproducible.
            assert!(fault_context.contains("kill"), "{fault_context}");
            // The dead rank's pre-kill write is part of some report.
            assert!(
                reports
                    .iter()
                    .any(|r| r.first.rank == 1 || r.second.rank == 1),
                "{reports:?}"
            );
        }
        other => panic!("expected the race to outrank the injected kill, got {other}"),
    }
}

#[test]
fn detector_off_lets_the_mutant_run_silently() {
    // Without the detector the missing release is invisible: the run
    // completes (possibly with stale reads) — the motivating gap.
    let config = cfg(2, 3).with_race_detect(false);
    Universe::run(config, |ctx| hybrid_allgather(ctx, false)).unwrap();
}

#[test]
fn phantom_mode_disarms_the_detector() {
    // Phantom windows have no storage to race on; detection is a
    // documented non-goal there.
    let config = cfg(2, 3).phantom();
    Universe::run(config, |ctx| hybrid_allgather(ctx, false)).unwrap();
}

#[test]
fn oob_fence_orders_conflicting_accesses() {
    let program = |ctx: &mut Ctx, fence: bool| {
        let world = ctx.world();
        let shm = world.split_shared(ctx);
        let my_len = if shm.rank() == 0 { 4 } else { 0 };
        let win: SharedWindow<u64> = SharedWindow::allocate(ctx, &shm, my_len);
        if shm.rank() == 0 {
            win.fill_with(0, 4, |i| 100 + i as u64);
        }
        if fence {
            ctx.oob_fence(&shm);
        }
        win.read(2)
    };
    let ok = Universe::run(cfg(1, 3), move |ctx| program(ctx, true)).unwrap();
    assert!(ok.per_rank.iter().all(|&v| v == 102));
    let err = Universe::run(cfg(1, 3), move |ctx| program(ctx, false)).unwrap_err();
    assert!(err.is_race(), "{err}");
}

#[test]
fn trace_carries_a_race_check_summary() {
    // Detector on + tracing on: exactly one RaceCheck event, at rank 0
    // and virtual time zero, counting the swept accesses.
    let r = Universe::run(cfg(2, 3).traced(), |ctx| hybrid_allgather(ctx, true)).unwrap();
    let events = r.tracer.events();
    let checks: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RaceCheck { .. }))
        .collect();
    assert_eq!(checks.len(), 1);
    let check = checks[0];
    assert_eq!(check.rank, 0);
    assert_eq!(check.time, 0.0);
    match check.kind {
        EventKind::RaceCheck { accesses, races } => {
            assert!(accesses > 0);
            assert_eq!(races, 0);
        }
        _ => unreachable!(),
    }
    // Detector off: no RaceCheck event, so goldens of detector-off traced
    // runs are unaffected.
    let off = Universe::run(cfg(2, 3).with_race_detect(false).traced(), |ctx| {
        hybrid_allgather(ctx, true)
    })
    .unwrap();
    assert!(!off
        .tracer
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::RaceCheck { .. })));
}

#[test]
fn report_display_is_actionable() {
    let err = Universe::run(cfg(1, 4), |ctx| flag_pair(ctx, true)).unwrap_err();
    let reports = race_reports(&err);
    let shown = reports[0].to_string();
    // window id, both ranks, kinds and ranges all appear.
    assert!(shown.contains("window"), "{shown}");
    assert!(shown.contains("rank"), "{shown}");
    assert!(
        shown.contains("write") || shown.contains("Write"),
        "{shown}"
    );
}
