//! Multi-leader hybrid allgather sweep, `BENCH_multileader.json`: where
//! does k > 1 beat the single-leader design? Walks a (ppn, size, k) grid
//! on the Cray machine model — the repo's record that striping the
//! bridge exchange over k leader slots buys real time on fat nodes,
//! gated by `ci.sh multileader`.
//!
//! Each point also records `estimated_k` — what
//! [`collectives::registry::recommended_leaders`] picks for the cell —
//! so the artifact doubles as a regression check that the registry
//! estimator discovers the same ppn- and size-dependent crossovers the
//! simulator measures.

use std::collections::BTreeMap;

use collectives::json::Json;
use collectives::registry::recommended_leaders;
use collectives::{CollectiveOp, CommCase};
use hmpi::SyncMethod;
use msim::ExecMode;
use simnet::{ClusterSpec, Placement};

use super::nonempty;
use crate::cli::Args;
use crate::{allgather_latency, AllgatherVariant, Machine};

const NODES: usize = 8;
const PPNS: [usize; 3] = [4, 12, 24];
const POWS: [usize; 4] = [6, 10, 14, 17];
const KS: [usize; 4] = [1, 2, 4, 8];
const MAX_K: usize = 8;

struct Point {
    ppn: usize,
    elems: usize,
    k: usize,
    latency_us: f64,
    estimated_k: usize,
}

fn to_json(points: &[Point]) -> Json {
    let mut root = BTreeMap::new();
    root.insert("bench".into(), Json::Str("multileader".into()));
    root.insert("cluster".into(), Json::Str("hazel_hen".into()));
    root.insert("nodes".into(), Json::Num(NODES as f64));
    let points = points.iter().map(|p| {
        let mut m = BTreeMap::new();
        m.insert("elems".into(), Json::Num(p.elems as f64));
        m.insert("estimated_k".into(), Json::Num(p.estimated_k as f64));
        m.insert("k".into(), Json::Num(p.k as f64));
        m.insert("latency_us".into(), Json::Num(p.latency_us));
        m.insert("ppn".into(), Json::Num(p.ppn as f64));
        m.insert("ranks".into(), Json::Num((NODES * p.ppn) as f64));
        Json::Obj(m)
    });
    root.insert("points".into(), Json::Arr(points.collect()));
    Json::Obj(root)
}

pub fn build(_: &Args) -> Result<String, String> {
    let machine = Machine::hazel_hen();
    let mut points = Vec::new();
    for &ppn in &PPNS {
        for &pow in &POWS {
            let elems = 1usize << pow;
            let bytes = elems * 8 * NODES * ppn;
            let case = CommCase::new(CollectiveOp::Allgather, NODES * ppn, NODES, bytes).windowed();
            let estimated_k = recommended_leaders(&machine.cost, &case, MAX_K.min(ppn));
            for k in KS.into_iter().filter(|&k| k <= ppn) {
                let latency_us = allgather_latency(
                    ClusterSpec::regular(NODES, ppn),
                    &machine,
                    elems,
                    AllgatherVariant::HybridKLeader {
                        leaders: k,
                        sync: SyncMethod::SharedFlags,
                    },
                    Placement::SmpBlock,
                    ExecMode::default(),
                );
                println!(
                    "multileader: ppn {ppn:>2} elems {elems:>7} k {k}: {latency_us:>10.2} us \
                     (estimator: k={estimated_k})"
                );
                points.push(Point {
                    ppn,
                    elems,
                    k,
                    latency_us,
                    estimated_k,
                });
            }
        }
    }
    Ok(to_json(&points).pretty())
}

/// Grid sanity plus the acceptance bars: k > 1 strictly wins in some
/// (ppn, size) cell, and the estimator agrees with the measurement about
/// *whether* multi-leader pays in every cell.
pub fn check(doc: &Json) -> Result<String, String> {
    let points = nonempty(doc, "points")?;
    // Regroup into (ppn, elems) cells: k -> latency, plus the estimate.
    let mut cells: BTreeMap<(usize, usize), BTreeMap<usize, f64>> = BTreeMap::new();
    let mut estimates: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        let get = |key: &str| p.get(key).and_then(|v| v.as_f64());
        let (Some(ppn), Some(elems), Some(k), Some(lat)) =
            (get("ppn"), get("elems"), get("k"), get("latency_us"))
        else {
            return Err(format!("point {i} lacks ppn/elems/k/latency_us"));
        };
        if lat <= 0.0 || k < 1.0 {
            return Err(format!("point {i} has a non-positive latency or k"));
        }
        let cell = (ppn as usize, elems as usize);
        cells.entry(cell).or_default().insert(k as usize, lat);
        if let Some(est) = get("estimated_k") {
            estimates.insert(cell, est as usize);
        }
    }
    let mut multi_wins = 0usize;
    for ((ppn, elems), by_k) in &cells {
        let Some(&base) = by_k.get(&1) else {
            return Err(format!("cell ppn={ppn} elems={elems} has no k=1 baseline"));
        };
        let best_multi = (by_k.iter())
            .filter(|(&k, _)| k > 1)
            .map(|(_, &lat)| lat)
            .fold(f64::INFINITY, f64::min);
        let measured_multi_wins = best_multi < base;
        multi_wins += usize::from(measured_multi_wins);
        if let Some(&est) = estimates.get(&(*ppn, *elems)) {
            if (est > 1) != measured_multi_wins {
                return Err(format!(
                    "cell ppn={ppn} elems={elems}: estimator recommends k={est} but the measured \
                     best multi-leader latency is {best_multi:.2} us vs {base:.2} us at k=1"
                ));
            }
        }
    }
    if multi_wins == 0 {
        return Err("no (ppn, size) cell where k > 1 beats k = 1".into());
    }
    Ok(format!(
        "{} points, k > 1 wins in {multi_wins}/{} cells, estimator agrees everywhere",
        points.len(),
        cells.len()
    ))
}
