//! The committed canonical-JSON artifacts, one [`Artifact`] each: the
//! sweep that builds the file, and the check every written or committed
//! copy must pass after loading through [`load_canonical`].
//!
//! `bench <command> [--out PATH]` builds an artifact, writes it (by
//! default over the committed file) and checks what it wrote;
//! `bench <command> --verify PATH` checks an existing file.

use std::fs;
use std::path::Path;

use collectives::json::Json;
use msim::ExecMode;

use crate::cli::{Args, Flags};

mod ft;
mod multileader;
mod overlap;
mod scale;
mod tune;

/// One committed artifact.
pub struct Artifact {
    /// The subcommand that builds it.
    pub command: &'static str,
    /// The committed file, relative to the repository root.
    pub path: &'static str,
    /// What the file carries after the canonical serialization: the
    /// tuning tables end in one more newline, the rest in none.
    pub trailer: &'static str,
    /// The subcommand's flags.
    pub flags: Flags,
    /// Run the sweep; the file's canonical text.
    pub build: fn(&Args) -> Result<String, String>,
    /// Check a loaded document; a one-line summary of what it holds.
    pub check: fn(&Json) -> Result<String, String>,
}

impl Artifact {
    /// The file name without its extension.
    pub fn stem(&self) -> &str {
        let path = Path::new(self.path).file_stem();
        path.and_then(|s| s.to_str())
            .expect("artifact paths are UTF-8 file names")
    }
}

/// Every committed artifact. A command with several entries (`tune`,
/// one table per cost-model preset) picks one with `--cluster`, the
/// entry's file stem.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        command: "scale",
        path: "BENCH_scale.json",
        trailer: "",
        flags: scale::FLAGS,
        build: scale::build,
        check: scale::check,
    },
    Artifact {
        command: "ft",
        path: "BENCH_ft.json",
        trailer: "",
        flags: OUT_VERIFY,
        build: ft::build,
        check: ft::check,
    },
    Artifact {
        command: "overlap",
        path: "BENCH_overlap.json",
        trailer: "",
        flags: overlap::FLAGS,
        build: overlap::build,
        check: overlap::check,
    },
    Artifact {
        command: "multileader",
        path: "BENCH_multileader.json",
        trailer: "",
        flags: OUT_VERIFY,
        build: multileader::build,
        check: multileader::check,
    },
    Artifact {
        command: "tune",
        path: "results/tuning/cray_aries.json",
        trailer: "\n",
        flags: tune::FLAGS,
        build: |_| tune::build("cray_aries"),
        check: tune::check,
    },
    Artifact {
        command: "tune",
        path: "results/tuning/nec_infiniband.json",
        trailer: "\n",
        flags: tune::FLAGS,
        build: |_| tune::build("nec_infiniband"),
        check: tune::check,
    },
];

/// The flags every artifact command takes.
const OUT_VERIFY: Flags = &[("--out", "PATH"), ("--verify", "PATH")];

/// The executors a sweep can be restricted to, by `--exec` name.
const EXECS: &[(&str, ExecMode)] = &[
    ("pooled", ExecMode::Pooled { workers: None }),
    ("threads", ExecMode::ThreadPerRank),
    ("events", ExecMode::Events),
];

/// The artifact label of an executor.
fn exec_label(exec: ExecMode) -> &'static str {
    match exec {
        ExecMode::ThreadPerRank => "threads",
        ExecMode::Pooled { .. } => "pooled",
        ExecMode::Events => "events",
    }
}

/// Round to a multiple of `1 / per_unit`, so wall-clock and derived
/// fields stay human-diffable.
fn round(v: f64, per_unit: f64) -> f64 {
    (v * per_unit).round() / per_unit
}

/// The document's `key` array, which must not be empty.
fn nonempty<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key).and_then(Json::as_arr) {
        Some(items) if !items.is_empty() => Ok(items),
        _ => Err(format!("has no {key}")),
    }
}

/// Read and parse an artifact, and require its text to be canonical:
/// exactly what the canonical serializer writes for the parsed document,
/// followed by `trailer` (the artifact's [`Artifact::trailer`]).
pub fn load_canonical(path: &str, trailer: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path} does not parse: {e}"))?;
    if text.strip_suffix(trailer) != Some(doc.pretty().as_str()) {
        return Err(format!(
            "{path} is not in canonical form (parse→serialize changed the bytes)"
        ));
    }
    Ok(doc)
}

/// Build, write and check one of `entries` (all of one command), or
/// with `--verify` check an existing file.
pub fn run(entries: &[&Artifact], args: &Args) -> Result<(), String> {
    let by_stem: Vec<(&str, &Artifact)> = entries.iter().map(|a| (a.stem(), *a)).collect();
    let a = args.pick("--cluster", &by_stem)?.unwrap_or(entries[0]);
    let path = match args.value("--verify") {
        Some(path) => path,
        None => {
            let out = args.value("--out").unwrap_or(a.path);
            let text = (a.build)(args)?;
            if let Some(dir) = Path::new(out).parent() {
                fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {out}'s directory: {e}"))?;
            }
            fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("{}: wrote {out}", a.command);
            out
        }
    };
    let doc = load_canonical(path, a.trailer)?;
    let summary = (a.check)(&doc).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{}: {path} round-trips byte-for-byte ({summary})",
        a.command
    );
    Ok(())
}
