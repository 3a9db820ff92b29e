//! Seeded mutation fuzzing of the two parsers that read files from
//! outside the program: `TuningTable::parse` (persisted tuning tables
//! under `results/tuning/`) and `ScheduleCertificate::from_json`
//! (committed model-checking certificates). Each case mutates a committed
//! file by truncations, byte flips and splices. The parser must return
//! `Ok` or `Err` and never panic. A table that still parses must steer
//! every op to an algorithm registered for that op, whatever its rows
//! name.

use std::sync::atomic::{AtomicUsize, Ordering};

use collectives::{registry, CollectiveOp, CommCase, SelectionPolicy, Tuning, TuningTable};
use msim::ScheduleCertificate;
use simnet::rng::{check_cases, Rng64};
use simnet::CostModel;

const TABLE: &str = include_str!("../../../results/tuning/cray_aries.json");
const CERT: &str = include_str!("../../msim/tests/certs/dropped_go_all.json");

/// What a byte flip writes, half the time: JSON structure, digits, the
/// quote and the escape. The other half writes an arbitrary byte.
const FLIP: &[u8] = b"{}[]:,\"\\-.0123456789eE \n";

/// A random sub-range `a..b` of `0..len`.
fn range(rng: &mut Rng64, len: usize) -> (usize, usize) {
    let a = rng.usize_in(0, len + 1);
    (a, rng.usize_in(a, len + 1))
}

/// The byte ranges of the `"…"` string tokens, quotes included (paired
/// naively; a fuzzer needs no escape handling).
fn strings(bytes: &[u8]) -> Vec<(usize, usize)> {
    let quotes: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'"').collect();
    quotes.chunks_exact(2).map(|q| (q[0], q[1] + 1)).collect()
}

/// One to three mutations of `base`: a truncation, a byte flip, a splice
/// of one random range over another, or (twice as likely, since it keeps
/// the JSON well formed) a token splice: one string token replaces
/// another, e.g. one row's algorithm name lands in a row of another op.
fn mutate(rng: &mut Rng64, base: &str) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..rng.usize_in(1, 4) {
        match rng.usize_in(0, 5) {
            0 => bytes.truncate(rng.usize_in(0, bytes.len() + 1)),
            1 if !bytes.is_empty() => {
                let at = rng.usize_in(0, bytes.len());
                bytes[at] = if rng.chance(0.5) {
                    *rng.pick(FLIP)
                } else {
                    rng.next_u64() as u8
                };
            }
            2 => {
                let (a, b) = range(rng, bytes.len());
                let piece = bytes[a..b].to_vec();
                let (c, d) = range(rng, bytes.len());
                bytes.splice(c..d, piece);
            }
            _ => {
                let tokens = strings(&bytes);
                if tokens.len() >= 2 {
                    let (a, b) = *rng.pick(&tokens);
                    let (c, d) = *rng.pick(&tokens);
                    let piece = bytes[a..b].to_vec();
                    bytes.splice(c..d, piece);
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_tuning_tables_parse_or_refuse_and_never_cross_ops() {
    let cost = CostModel::cray_aries();
    let parsed = AtomicUsize::new(0);
    let crossed = AtomicUsize::new(0);
    check_cases(0x7AB1E, 1000, |rng| {
        let text = mutate(rng, TABLE);
        let Ok(table) = TuningTable::parse(&text) else {
            return;
        };
        parsed.fetch_add(1, Ordering::Relaxed);
        let cross = table.entries.iter().any(|e| {
            registry::global()
                .lookup(&e.algo)
                .is_some_and(|a| a.op() != e.op)
        });
        if cross {
            crossed.fetch_add(1, Ordering::Relaxed);
        }
        let policy = SelectionPolicy::table(Tuning::cray_mpich(), table);
        for op in CollectiveOp::all() {
            for p in [1usize, 2, 6, 8, 24, 96] {
                for bytes in [0usize, 64, 8192, 1 << 20] {
                    let case = CommCase::new(op, p, p.div_ceil(24), bytes);
                    let algo = policy.choose_offline(&cost, &case);
                    let found = registry::global()
                        .lookup(algo)
                        .unwrap_or_else(|| panic!("{op:?}: unregistered {algo:?}"));
                    assert_eq!(found.op(), op, "{op:?} p={p} bytes={bytes} ran {algo:?}");
                }
            }
        }
    });
    // The fuzz reaches the interesting inputs: tables that still parse,
    // some of them with a row naming another op's algorithm.
    let (parsed, crossed) = (parsed.into_inner(), crossed.into_inner());
    assert!(parsed >= 60, "only {parsed} of 1000 mutated tables parsed");
    assert!(crossed >= 10, "only {crossed} parsed tables cross ops");
}

#[test]
fn mutated_certificates_parse_or_refuse() {
    let parsed = AtomicUsize::new(0);
    check_cases(0xCE27, 2000, |rng| {
        let text = mutate(rng, CERT);
        if let Ok(cert) = ScheduleCertificate::from_json(&text) {
            parsed.fetch_add(1, Ordering::Relaxed);
            // What parses re-encodes canonically and reads back unchanged.
            assert_eq!(ScheduleCertificate::from_json(&cert.to_json()), Ok(cert));
        }
    });
    let parsed = parsed.into_inner();
    assert!(
        parsed >= 60,
        "only {parsed} of 2000 mutated certificates parsed"
    );
}
