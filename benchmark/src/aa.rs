//! `suite` runs the four workloads, each in a child process; `aa` is the
//! benchmark's check on itself: two suites of the same code must agree
//! within the bounds the end-to-end metrics carry, or no later
//! before/after can be read.

use std::collections::BTreeMap;
use std::process::Command;

use collectives::json::Json;

use crate::estim::worsening;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::Options;

/// The result object of every workload, by workload name.
pub type Results = BTreeMap<String, Json>;

/// Run every workload in a process of its own, echo what it prints, and
/// collect the result lines (also into `--out`, as one JSON object).
pub fn suite(o: &Options) -> Result<Results, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut results = Results::new();
    let mut lines = Vec::new();
    for (name, _) in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &o.seed.to_string()])
            .args([
                "--seconds",
                &o.seconds.to_string(),
                "--trace",
                if o.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        if !child.status.success() {
            return Err(format!(
                "{name} exited with {}: {}",
                child.status,
                String::from_utf8_lossy(&child.stderr)
            ));
        }
        let line = stdout
            .lines()
            .last()
            .ok_or(format!("{name} printed nothing"))?;
        results.insert(
            name.to_string(),
            Json::parse(line).map_err(|e| format!("{name}: result line: {e}"))?,
        );
        lines.push(format!("\"{name}\": {line}"));
    }
    if let Some(path) = &o.out {
        let doc = format!("{{\n{}\n}}\n", lines.join(",\n"));
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(results)
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .as_obj()
        .ok_or(format!("{path}: not a JSON object"))?
        .clone())
}

/// The value of metric `name` in one result object.
pub fn value_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn metric(results: &Results, workload: &str, name: &str) -> Result<f64, String> {
    let value = results.get(workload).and_then(|r| value_of(r, name));
    value.ok_or(format!("no {name} of {workload} in the results"))
}

/// Print, per workload and end-to-end metric, how far B is from A beside
/// the metric's bound. `Ok(false)` when a bound is breached in either
/// direction (the two sides ran the same code) or an operation failed.
pub fn compare(a: &Results, b: &Results) -> Result<bool, String> {
    let mut green = true;
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (metric(a, workload, m.name)?, metric(b, workload, m.name)?);
            let worse = worsening(va, vb, m.lower_is_better);
            let breach = worse.abs() > m.bound;
            green &= !breach;
            println!(
                "{workload:<14} {:<13} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>6.0}%{}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
        for (side, results) in [("A", a), ("B", b)] {
            if results.get::<str>(workload).and_then(|r| r.get("correct"))
                != Some(&Json::Bool(true))
            {
                println!("{workload:<14} side {side} reports failed operations");
                green = false;
            }
        }
    }
    println!(
        "A/A {}",
        if green {
            "green: every difference is within its bound"
        } else {
            "RED"
        }
    );
    Ok(green)
}

/// `aa FILE_A FILE_B` compares two `suite --out` files; `aa` alone runs
/// the suite twice first.
pub fn run(o: &Options) -> Result<bool, String> {
    match &o.positional[1..] {
        [] => {
            let end_to_end = Options {
                trace: false,
                out: None,
                ..o.clone()
            };
            let a = suite(&end_to_end)?;
            compare(&a, &suite(&end_to_end)?)
        }
        [a, b] => compare(&load(a)?, &load(b)?),
        _ => Err("aa takes no file or two".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{result_line, Values};

    fn results(pass_s: f64, failed: u64) -> Results {
        let values: Values = END_TO_END
            .iter()
            .map(|m| (m.name, if m.name == "pass_s" { pass_s } else { 2.0 }))
            .collect();
        let line = result_line(&END_TO_END, &values, 10, failed);
        WORKLOADS
            .iter()
            .map(|(name, _)| (name.to_string(), Json::parse(&line).unwrap()))
            .collect()
    }

    #[test]
    fn differences_are_held_to_the_bounds_both_ways() {
        assert_eq!(compare(&results(1.0, 0), &results(1.05, 0)), Ok(true));
        assert_eq!(compare(&results(1.0, 0), &results(1.4, 0)), Ok(false));
        assert_eq!(compare(&results(1.4, 0), &results(1.0, 0)), Ok(false));
        assert_eq!(compare(&results(1.0, 0), &results(1.0, 3)), Ok(false));
        assert!(compare(&results(1.0, 0), &Results::new()).is_err());
    }
}
