//! The `bench` command line: one dispatcher and one argument parser for
//! every subcommand.
//!
//! A subcommand declares its flags as `(flag, value placeholder)` pairs,
//! with an empty placeholder for a switch. [`Args::parse`] rejects an
//! unknown flag or a missing value, and the typed getters reject an
//! unparsable number or an unknown name — each with the subcommand's
//! usage line, so a typo is an error, never a silent default.

use std::str::FromStr;

use crate::artifact::{self, ARTIFACTS};
use crate::reports::{self, REPORTS};
use crate::{chaos, mcheck};

/// A subcommand's flags: `(flag, value placeholder)`, `""` for a switch.
pub type Flags = &'static [(&'static str, &'static str)];

/// What a tool subcommand runs.
type Tool = fn(&Args) -> Result<(), String>;

/// The subcommands that are neither a report nor an artifact.
const TOOLS: &[(&str, Flags, Tool)] = &[
    ("results", &[("--check", "")], reports::results),
    ("sweep", reports::SWEEP_FLAGS, reports::sweep),
    ("chaos", chaos::FLAGS, chaos::run),
    ("mcheck", mcheck::FLAGS, mcheck::run),
];

/// Run `bench <name> [args]`: print a report, build or verify an
/// artifact, or run a tool.
pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(commands());
    };
    if let Some(report) = REPORTS.iter().find(|r| r.name == name) {
        Args::parse(name, &[], rest)?;
        print!("{}", (report.render)());
        return Ok(());
    }
    if let Some(&(_, flags, tool)) = TOOLS.iter().find(|t| t.0 == name) {
        return tool(&Args::parse(name, flags, rest)?);
    }
    let entries: Vec<&artifact::Artifact> =
        ARTIFACTS.iter().filter(|a| a.command == name).collect();
    match entries.first() {
        Some(first) => artifact::run(&entries, &Args::parse(name, first.flags, rest)?),
        None => Err(commands()),
    }
}

/// The top-level usage: every subcommand by kind.
fn commands() -> String {
    let reports: Vec<&str> = REPORTS.iter().map(|r| r.name).collect();
    let mut artifacts: Vec<&str> = ARTIFACTS.iter().map(|a| a.command).collect();
    artifacts.dedup();
    let tools: Vec<&str> = TOOLS.iter().map(|t| t.0).collect();
    format!(
        "usage: bench <command> [args]\n  reports (print results/<command>.txt): {}\n  \
         artifacts (build, write, check): {}\n  tools: {}",
        reports.join(" "),
        artifacts.join(" "),
        tools.join(" ")
    )
}

/// One subcommand's parsed arguments.
pub struct Args {
    usage: String,
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `argv` against `command`'s flags.
    pub fn parse(command: &str, flags: Flags, argv: &[String]) -> Result<Args, String> {
        let mut usage = format!("usage: bench {command}");
        for (flag, placeholder) in flags {
            usage += &match *placeholder {
                "" => format!(" [{flag}]"),
                p => format!(" [{flag} {p}]"),
            };
        }
        let mut args = Args {
            usage,
            given: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let Some(&(flag, placeholder)) = flags.iter().find(|(f, _)| f == arg) else {
                return Err(args.error(&format!("unknown argument {arg:?}")));
            };
            let value = match placeholder {
                "" => String::new(),
                _ => (argv.next().cloned())
                    .ok_or_else(|| args.error(&format!("{flag} needs {placeholder}")))?,
            };
            args.given.push((flag, value));
        }
        Ok(args)
    }

    /// `msg` followed by the usage line.
    pub fn error(&self, msg: &str) -> String {
        format!("{msg}\n{}", self.usage)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag` (the last one, if given twice).
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.given.iter().rev().find(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// `flag`'s value as a number.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| self.error(&format!("{flag} needs a number, not {v:?}")))
        };
        self.value(flag).map(parse).transpose()
    }

    /// `flag`'s value as a positive integer.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>, String> {
        match self.num(flag)? {
            Some(0) => Err(self.error(&format!("{flag} needs a positive integer"))),
            n => Ok(n),
        }
    }

    /// `flag`'s value looked up by name in `names`.
    pub fn pick<T: Clone>(&self, flag: &str, names: &[(&str, T)]) -> Result<Option<T>, String> {
        let Some(v) = self.value(flag) else {
            return Ok(None);
        };
        match names.iter().find(|(n, _)| *n == v) {
            Some((_, t)) => Ok(Some(t.clone())),
            None => {
                let known: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
                Err(self.error(&format!(
                    "unknown {flag} {v:?} (one of {})",
                    known.join(", ")
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::run;

    fn bench(argv: &[&str]) -> Result<(), String> {
        run(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn rejects(argv: &[&str], why: &str) {
        let err = bench(argv).expect_err("must be rejected");
        assert!(err.contains(why), "{argv:?}: {err}");
        assert!(
            err.contains("usage: bench"),
            "{argv:?} must print the usage: {err}"
        );
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        // `tune --out` used to fall back to overwriting the committed golden.
        rejects(&["tune", "--out"], "--out needs PATH");
    }

    #[test]
    fn an_unknown_machine_is_an_error() {
        rejects(
            &["sweep", "--machine", "hazel"],
            "unknown --machine \"hazel\"",
        );
    }

    #[test]
    fn an_unknown_placement_is_an_error() {
        rejects(
            &["sweep", "--placement", "block"],
            "unknown --placement \"block\"",
        );
    }

    #[test]
    fn an_unparsable_number_is_an_error() {
        rejects(&["sweep", "--nodes", "16x"], "--nodes needs a number");
    }

    #[test]
    fn an_unknown_flag_or_command_is_an_error() {
        rejects(
            &["fig7", "--leaders", "2"],
            "unknown argument \"--leaders\"",
        );
        rejects(&["scale", "--ci"], "unknown argument \"--ci\"");
        assert!(bench(&["fig13"])
            .unwrap_err()
            .contains("usage: bench <command>"));
    }
}
