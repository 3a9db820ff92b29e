//! The repo benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark suite [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark aa [FILE_A FILE_B] [--seed N] [--seconds S]
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload in one
//! process, every metric printed by name and unit, the result object on
//! the last line. `suite` runs the four workloads, each in a process of
//! its own so that `peak_rss_mib` is per workload; `aa` runs the suite
//! twice, or reads two `suite --out` files, and holds the differences to
//! the bounds.

mod aa;
mod estim;
mod harness;
mod host;
mod probes;
mod spans;
mod spec;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// `--seconds` when the caller gives none: the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

/// The options every form shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<String>,
    /// Arguments that are not options: the sub-command and its files.
    pub positional: Vec<String>,
}

impl Options {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut o = Options {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            out: None,
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => o.workload = Some(value()?),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                        return Err(format!("--seconds {} is outside (0, 600]", o.seconds));
                    }
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--out" => o.out = Some(value()?),
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                _ => o.positional.push(arg),
            }
        }
        Ok(o)
    }
}

/// Run one workload in this process and print its metrics; the result
/// object is the last line.
fn run_workload(name: &str, o: &Options) -> Result<(), String> {
    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    let w = workloads::by_name(name, o.seed).ok_or(format!(
        "unknown workload {name:?}; the workloads are {known:?}"
    ))?;
    println!(
        "{name}: seed {}, {} s, {} ops per pass (op = {}), {}",
        o.seed,
        o.seconds,
        w.ops_per_pass(),
        w.op_unit(),
        if o.trace {
            "traced run"
        } else {
            "end-to-end run"
        }
    );
    let (outcome, table) = if o.trace {
        let outcome = harness::traced(w.as_ref(), o.seed, o.seconds);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}.json"));
        spans::write_json(&path, name)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
        (outcome, &spec::PER_LAYER[..])
    } else {
        (
            harness::end_to_end(w.as_ref(), o.seconds),
            &spec::END_TO_END[..],
        )
    };
    spec::print_table(table, &outcome.values);
    println!(
        "  ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{}",
        spec::result_line(table, &outcome.values, outcome.attempted, outcome.failed)
    );
    Ok(())
}

fn main() -> ExitCode {
    host::pin_malloc_policy();
    // The executor and the race detector are set per universe; nothing
    // inherited from the caller's shell may change them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MSIM_") {
            std::env::remove_var(key);
        }
    }
    let run = || -> Result<bool, String> {
        let o = Options::parse(std::env::args().skip(1))?;
        match (o.positional.first().map(String::as_str), &o.workload) {
            (None, Some(name)) => run_workload(name, &o).map(|()| true),
            (Some("suite"), None) => aa::suite(&o).map(|_| true),
            (Some("aa"), None) => aa::run(&o),
            _ => Err(
                "give --workload NAME, or the sub-command suite or aa (see benchmark/README.md)"
                    .into(),
            ),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_form_parses() {
        let o = parse(&[
            "--workload",
            "figs_pooled",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("figs_pooled"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 25.0, true));
        let o = parse(&["aa", "a.json", "b.json"]).unwrap();
        assert_eq!(o.positional, ["aa", "a.json", "b.json"]);
        assert_eq!((o.seed, o.seconds, o.trace), (1, DEFAULT_SECONDS, false));
    }

    #[test]
    fn malformed_arguments_are_refused() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "nan"]).is_err());
        assert!(parse(&["--trace", "yes"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
