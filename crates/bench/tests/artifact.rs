//! Sanity checks on the committed `BENCH_scale.json`,
//! `BENCH_overlap.json` and `BENCH_ft.json` artifacts.
//!
//! A CI restructure once quietly clobbered the committed sweep with a
//! single 96-rank smoke point (every CI `scale` invocation wrote to the
//! default path). These tests pin the artifacts' *shape* so that
//! regression can never land silently again: canonical round-trip, the
//! full pooled ladder with monotonically increasing rank counts,
//! event-calendar points up to 262144 ranks, and — for the overlap
//! artifact — an overlap win for every application plus bit-identical
//! virtual times across the three executors.

use std::collections::BTreeMap;

use bench::artifact::load_canonical;
use collectives::json::Json;

/// A committed artifact, loaded through the canonical-form check that
/// every test here therefore also makes (regenerate a stale one with
/// `cargo run --release -p bench -- <command>`).
fn load(name: &str) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    load_canonical(&path, "").unwrap_or_else(|e| panic!("{e}"))
}

/// Each point as (exec label, ranks), in artifact order.
fn points(doc: &Json) -> Vec<(String, usize)> {
    doc.get("points")
        .and_then(|p| p.as_arr())
        .expect("artifact must have a points array")
        .iter()
        .map(|p| {
            let exec = p
                .get("exec")
                .and_then(|e| e.as_str())
                .expect("every point carries an exec label")
                .to_string();
            let ranks = p
                .get("ranks")
                .and_then(|r| r.as_f64())
                .expect("every point carries a rank count") as usize;
            (exec, ranks)
        })
        .collect()
}

#[test]
fn pooled_ladder_is_complete_and_monotonic() {
    let doc = load("BENCH_scale.json");
    let pooled: Vec<usize> = points(&doc)
        .into_iter()
        .filter(|(e, _)| e == "pooled")
        .map(|(_, r)| r)
        .collect();
    assert_eq!(
        pooled,
        vec![48, 96, 192, 384, 768, 1536, 3072, 4096],
        "the committed artifact must hold the full pooled sweep, ascending"
    );
}

#[test]
fn events_ladder_reaches_262144_ranks() {
    let doc = load("BENCH_scale.json");
    let events: Vec<usize> = points(&doc)
        .into_iter()
        .filter(|(e, _)| e == "events")
        .map(|(_, r)| r)
        .collect();
    assert_eq!(
        events,
        vec![8192, 16384, 65536, 262144],
        "the committed artifact must hold the full event-calendar sweep, ascending"
    );
}

#[test]
fn events_points_ran_on_a_single_thread() {
    let doc = load("BENCH_scale.json");
    for p in doc.get("points").and_then(|p| p.as_arr()).unwrap() {
        if p.get("exec").and_then(|e| e.as_str()) == Some("events") {
            assert_eq!(
                p.get("peak_threads").and_then(|t| t.as_f64()),
                Some(1.0),
                "Events drives every rank from one thread"
            );
        }
    }
}

/// Every point shows the mechanism next to the wall clock it bought:
/// the executor's resume and node-turn counts and the stack arena it
/// ran on, each rank resumed at least once.
#[test]
fn every_point_carries_the_executor_counters() {
    let doc = load("BENCH_scale.json");
    for p in doc.get("points").and_then(|p| p.as_arr()).unwrap() {
        let count = |key: &str| {
            p.get(key)
                .and_then(|v| v.as_usize())
                .unwrap_or_else(|| panic!("point lacks the {key} counter: {p:?}"))
        };
        let ranks = count("ranks");
        assert!(count("resumes") >= ranks, "{p:?}");
        assert!(count("arena_mapped_bytes") >= ranks * (64 << 10), "{p:?}");
        assert!(p.get("arena_reused").is_some(), "{p:?}");
        count("node_turns");
    }
}

#[test]
fn every_app_overlaps_to_a_win_under_every_executor() {
    let doc = load("BENCH_overlap.json");
    // app -> exec -> saw a strict win
    let mut wins: BTreeMap<(String, String), bool> = BTreeMap::new();
    for p in doc.get("points").and_then(|p| p.as_arr()).unwrap() {
        let app = p.get("app").and_then(|a| a.as_str()).unwrap().to_string();
        let exec = p.get("exec").and_then(|e| e.as_str()).unwrap().to_string();
        let blocking = p.get("blocking_us").and_then(|v| v.as_f64()).unwrap();
        let overlapped = p.get("overlapped_us").and_then(|v| v.as_f64()).unwrap();
        assert!(blocking > 0.0 && overlapped > 0.0);
        let won = wins.entry((app, exec)).or_insert(false);
        *won = *won || overlapped < blocking;
    }
    for app in ["summa", "cg", "stencil"] {
        for exec in ["pooled", "threads", "events"] {
            assert_eq!(
                wins.get(&(app.to_string(), exec.to_string())),
                Some(&true),
                "{app} must have an overlap win under {exec}"
            );
        }
    }
}

/// The determinism contract extends to the overlapped kernels: the same
/// (app, size) point must report bit-identical virtual times under all
/// three executors. A wall-clock race leaking into virtual time (the
/// failure mode the claim-suppressed nonblocking starts exist to
/// prevent) breaks this immediately.
#[test]
fn overlap_times_are_executor_invariant() {
    let doc = load("BENCH_overlap.json");
    let mut by_point: BTreeMap<(String, u64), Vec<(f64, f64)>> = BTreeMap::new();
    for p in doc.get("points").and_then(|p| p.as_arr()).unwrap() {
        let app = p.get("app").and_then(|a| a.as_str()).unwrap().to_string();
        let size = p.get("size").and_then(|v| v.as_f64()).unwrap() as u64;
        let blocking = p.get("blocking_us").and_then(|v| v.as_f64()).unwrap();
        let overlapped = p.get("overlapped_us").and_then(|v| v.as_f64()).unwrap();
        by_point
            .entry((app, size))
            .or_default()
            .push((blocking, overlapped));
    }
    for ((app, size), times) in by_point {
        assert_eq!(times.len(), 3, "{app}/{size}: one point per executor");
        assert!(
            times.windows(2).all(|w| w[0] == w[1]),
            "{app}/{size}: executors disagree on virtual time: {times:?}"
        );
    }
}

/// The elastic ladder must cover the same scales as the failover ladder
/// and carry all three recovery flavors per point: shrink-only,
/// shrink+grow (a spare recruited back to full size) and
/// shrink+grow+rebalance (k=2 leaders recomputed on the regrown world).
#[test]
fn grow_ladder_is_complete_with_all_three_recovery_flavors() {
    let doc = load("BENCH_ft.json");
    let grow = doc
        .get("grow_points")
        .and_then(|p| p.as_arr())
        .expect("BENCH_ft.json must carry a grow_points array");
    let ranks: Vec<usize> = grow
        .iter()
        .map(|p| p.get("ranks").and_then(|r| r.as_f64()).unwrap() as usize)
        .collect();
    assert_eq!(
        ranks,
        vec![8, 16, 32, 64],
        "the committed artifact must hold the full elastic ladder, ascending"
    );
    for p in grow {
        let ranks = p.get("ranks").and_then(|v| v.as_f64()).unwrap();
        let shrink = p.get("shrink_us").and_then(|v| v.as_f64()).unwrap();
        let grow_full = p.get("grow_us").and_then(|v| v.as_f64()).unwrap();
        let rebalance = p.get("grow_rebalance_us").and_then(|v| v.as_f64()).unwrap();
        assert!(
            shrink > 0.0 && rebalance > 0.0,
            "{ranks}: spans must be positive"
        );
        assert!(
            grow_full > shrink,
            "{ranks}: regrowing to full size costs a roll-call plus the larger world \
             (grow {grow_full} us vs shrink {shrink} us)"
        );
        let overhead = p.get("grow_overhead_us").and_then(|v| v.as_f64()).unwrap();
        assert!(
            (overhead - (grow_full - shrink)).abs() < 2e-3,
            "{ranks}: grow_overhead_us must be the grow-minus-shrink delta"
        );
    }
}
