//! The report and artifact tables match the committed files: every
//! `results/*.txt` has exactly one report, every committed canonical-JSON
//! file exactly one artifact entry whose check it passes, and
//! `results --check` names a file that no longer matches its render.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use bench::artifact::{load_canonical, ARTIFACTS};
use bench::reports::{render_all, stale, REPORTS};
use collectives::json::Json;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The files in `dir` (relative to the repository root) whose names
/// start with `prefix` and end with `suffix`, as root-relative paths.
fn committed(dir: &str, prefix: &str, suffix: &str) -> BTreeSet<String> {
    let entries = fs::read_dir(repo().join(dir)).expect("directory must exist");
    let names = entries.map(|e| {
        e.expect("readable entry")
            .file_name()
            .into_string()
            .unwrap()
    });
    let matching = names.filter(|n| n.starts_with(prefix) && n.ends_with(suffix));
    matching
        .map(|n| Path::new(dir).join(n).to_str().unwrap().to_string())
        .collect()
}

#[test]
fn every_results_table_has_exactly_one_report() {
    let names: Vec<&str> = REPORTS.iter().map(|r| r.name).collect();
    let unique: BTreeSet<String> = names.iter().map(|n| format!("results/{n}.txt")).collect();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate report names: {names:?}"
    );
    assert_eq!(unique, committed("results", "", ".txt"));
}

#[test]
fn every_committed_artifact_has_exactly_one_entry_and_passes_its_check() {
    let paths: Vec<&str> = ARTIFACTS.iter().map(|a| a.path).collect();
    let unique: BTreeSet<String> = paths.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        unique.len(),
        paths.len(),
        "duplicate artifact paths: {paths:?}"
    );
    let mut files = committed("", "BENCH_", ".json");
    files.extend(committed("results/tuning", "", ".json"));
    assert_eq!(unique, files, "no orphan file, no unregistered output");
    for a in ARTIFACTS {
        let doc = load_canonical(repo().join(a.path).to_str().unwrap(), a.trailer).unwrap();
        (a.check)(&doc).unwrap_or_else(|e| panic!("{}: {e}", a.path));
    }
}

/// The loader accepts exactly one byte form per trailer: a stray or a
/// missing final newline fails the canonical check.
#[test]
fn load_canonical_requires_the_exact_trailer() {
    let canonical = Json::parse(r#"{"a": [1, 2]}"#).unwrap().pretty();
    let path = std::env::temp_dir().join(format!("bench-trailer-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let loads = |text: String, trailer: &str| {
        fs::write(&path, text).unwrap();
        load_canonical(path_str, trailer).is_ok()
    };
    let results = [
        loads(canonical.clone(), ""),
        loads(format!("{canonical}\n"), "\n"),
        loads(format!("{canonical}\n"), ""),
        loads(canonical.clone(), "\n"),
    ];
    fs::remove_file(&path).unwrap();
    assert_eq!(results, [true, true, false, false]);
}

#[test]
fn results_check_names_a_file_with_one_flipped_byte() {
    let cheap: Vec<_> = REPORTS
        .iter()
        .filter(|r| ["osu_p2p", "trace_report"].contains(&r.name))
        .copied()
        .collect();
    let dir = std::env::temp_dir().join(format!("bench-results-check-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    for (r, text) in cheap.iter().zip(render_all(&cheap)) {
        fs::write(dir.join(format!("{}.txt", r.name)), text).unwrap();
    }
    assert!(
        stale(&dir, &cheap).is_empty(),
        "a fresh render must match itself"
    );

    let flipped = dir.join("trace_report.txt");
    let mut bytes = fs::read(&flipped).unwrap();
    bytes[40] ^= 1;
    fs::write(&flipped, bytes).unwrap();
    let found = stale(&dir, &cheap);
    fs::remove_dir_all(&dir).unwrap();
    assert_eq!(found, vec![flipped]);
}
