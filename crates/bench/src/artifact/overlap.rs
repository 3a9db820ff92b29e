//! Comm/compute overlap sweep, `BENCH_overlap.json`: blocking vs
//! overlapped hybrid kernels for SUMMA, CG and the Jacobi stencil, per
//! size — the repo's record that the split-phase collectives buy the
//! applications time, gated by `ci.sh overlap`.
//!
//! `--app` restricts the sweep to one application; by default it walks
//! every app's size ladder. Every row carries `"exec": "pooled"`, the
//! executor every universe runs on. The check enforces the acceptance
//! bar: every application has a point where the overlapped variant is
//! strictly faster.

use std::collections::BTreeMap;

use collectives::json::Json;
use msim::ExecMode;

use super::{nonempty, round};
use crate::cli::{Args, Flags};
use crate::{overlap_latency, Machine, OverlapApp};

pub const FLAGS: Flags = &[
    ("--app", "summa|cg|stencil"),
    ("--out", "PATH"),
    ("--verify", "PATH"),
];

/// The `exec` label of every row.
const EXEC_LABEL: &str = "pooled";

struct Point {
    app: OverlapApp,
    size: usize,
    blocking_us: f64,
    overlapped_us: f64,
}

fn to_json(points: &[Point]) -> Json {
    let mut root = BTreeMap::new();
    root.insert("bench".into(), Json::Str("overlap".into()));
    root.insert("cluster".into(), Json::Str("hazel_hen".into()));
    let points = points.iter().map(|p| {
        let (nodes, ppn, _) = p.app.ladder();
        let mut m = BTreeMap::new();
        m.insert("app".into(), Json::Str(p.app.label().into()));
        m.insert("blocking_us".into(), Json::Num(p.blocking_us));
        m.insert("exec".into(), Json::Str(EXEC_LABEL.into()));
        m.insert("nodes".into(), Json::Num(nodes as f64));
        m.insert("overlapped_us".into(), Json::Num(p.overlapped_us));
        m.insert("ppn".into(), Json::Num(ppn as f64));
        m.insert("ranks".into(), Json::Num((nodes * ppn) as f64));
        m.insert("size".into(), Json::Num(p.size as f64));
        // Rounded for human diffs; the exact latencies above are the
        // pinned quantities.
        let speedup = round(p.blocking_us / p.overlapped_us, 1e4);
        m.insert("speedup".into(), Json::Num(speedup));
        Json::Obj(m)
    });
    root.insert("points".into(), Json::Arr(points.collect()));
    Json::Obj(root)
}

pub fn build(args: &Args) -> Result<String, String> {
    let apps = OverlapApp::ALL.map(|app| (app.label(), app));
    let apps: Vec<OverlapApp> = match args.pick("--app", &apps)? {
        Some(app) => vec![app],
        None => OverlapApp::ALL.to_vec(),
    };
    let machine = Machine::hazel_hen();
    let mut points = Vec::new();
    for &app in &apps {
        let (_, _, sizes) = app.ladder();
        for &size in sizes {
            let (blocking_us, overlapped_us) =
                overlap_latency(app, size, &machine, ExecMode::default());
            println!(
                "overlap: {} size {}: blocking {:.1} us, overlapped {:.1} us ({:.3}x)",
                app.label(),
                size,
                blocking_us,
                overlapped_us,
                blocking_us / overlapped_us
            );
            points.push(Point {
                app,
                size,
                blocking_us,
                overlapped_us,
            });
        }
    }
    Ok(to_json(&points).pretty())
}

/// Recognized labels, positive latencies, and every app overlaps to a
/// strict win somewhere.
pub fn check(doc: &Json) -> Result<String, String> {
    let points = nonempty(doc, "points")?;
    let mut wins: BTreeMap<&str, bool> =
        OverlapApp::ALL.iter().map(|a| (a.label(), false)).collect();
    for (i, p) in points.iter().enumerate() {
        let app = p.get("app").and_then(|a| a.as_str()).unwrap_or_default();
        let Some(win) = wins.get_mut(app) else {
            return Err(format!("point {i} has unknown app {app:?}"));
        };
        if p.get("exec").and_then(|e| e.as_str()) != Some(EXEC_LABEL) {
            return Err(format!("point {i} lacks \"exec\": \"{EXEC_LABEL}\""));
        }
        let blocking = p.get("blocking_us").and_then(|v| v.as_f64());
        let overlapped = p.get("overlapped_us").and_then(|v| v.as_f64());
        match (blocking, overlapped) {
            (Some(b), Some(o)) if o > 0.0 && b > 0.0 => *win |= o < b,
            _ => return Err(format!("point {i} lacks positive latencies")),
        }
    }
    if let Some((app, _)) = wins.iter().find(|(_, won)| !**won) {
        return Err(format!(
            "no point where {app}'s overlapped variant beats blocking"
        ));
    }
    Ok(format!("{} points, every app wins somewhere", points.len()))
}
