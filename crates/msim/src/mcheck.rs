//! Systematic concurrency model checking: exhaustive schedule
//! exploration with dynamic partial-order reduction (DPOR).
//!
//! The fuzzing harness ([`crate::SchedulePolicy::Adversarial`]) samples
//! schedules; this module *enumerates* them. Every nondeterministic pick
//! of the single-worker pool (`Pooled` clamped to one worker, or
//! `Events`) — which ready rank runs next — is routed through a
//! [`Probe`] controller, so a schedule is exactly a sequence of decisions
//! `d_0, d_1, …` ("at the i-th pick, resume rank `d_i`"). [`explore`]
//! drives the program through a depth-first search over those decision
//! sequences:
//!
//! * **Segments.** One decision resumes a rank until it parks or
//!   finishes; everything it does in between (window accesses, mailbox
//!   pushes/pops, failed polls, OOB rendezvous steps) is that segment's
//!   *footprint*, recorded by probe hooks in `ctx`/`window`/`comm`.
//! * **Happens-before.** Program order, matched `push → pop` pairs
//!   (per-`(comm, src, tag)` FIFO, keyed by destination), and OOB
//!   rendezvous (every deposit precedes every join) order segments —
//!   the same HB relation the PR 4 race detector computes over vector
//!   clocks, lifted to schedule segments.
//! * **DPOR.** After each run, every *dependent*, differently-ranked,
//!   non-HB-ordered segment pair is a reversible race: the earlier
//!   decision point gains backtrack candidates (Flanagan–Godefroid).
//!   Sleep sets prune interleavings already proven equivalent, and an
//!   optional preemption bound caps the search for larger configs.
//! * **Dependence.** Two segments are dependent iff their window
//!   accesses overlap with at least one write, or one *polled*
//!   nonblockingly (a `Drive::Poll` step, `try_recv`) — hit or miss — on a
//!   key the other pushed: either way the poll's outcome flips when the
//!   push moves across it. A successful poll additionally carries the
//!   matching push → poll HB edge, which the race scan bypasses for
//!   that pair so the reversal (poll first → miss) is still seeded.
//!   Blocking pops are *not* dependent on their pushes beyond the HB
//!   edge: per-key FIFO plus source-exact matching fixes the outcome
//!   under every schedule.
//!
//! Every explored schedule runs the full checking stack: deadlock
//! detection, the end-of-run race sweep, panic triage, plus a
//! *divergence* check (the determinism contract — results and virtual
//! clocks must be bit-identical across schedules). A violation is
//! delta-debugged down to a short decision prefix and emitted as a
//! canonical-JSON [`ScheduleCertificate`] that
//! [`crate::SchedulePolicy::Replay`] reproduces byte-identically —
//! certificates are committed as regression tests.
//!
//! A correct program explores **exactly one** schedule: determinism
//! makes every segment pair either HB-ordered or independent, so no
//! backtrack points arise. That is the exhaustiveness proof, and also
//! why DPOR beats naive enumeration by orders of magnitude (see
//! `docs/model-checking.md` for size guidance).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::ctx::Ctx;
use crate::error::SimError;
use crate::exec::ExecMode;
use crate::fault::SchedulePolicy;
use crate::mailbox::MatchKey;
use crate::oob::BoardKey;
use crate::universe::{SimConfig, SimResult, Universe};

// ---------------------------------------------------------------------------
// The probe: decision control + footprint recording.
// ---------------------------------------------------------------------------

/// One observable operation inside a schedule segment (the footprint
/// alphabet of the dependence relation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    /// Shared-window access of `[lo, hi)` (absolute element offsets).
    Win {
        id: u64,
        lo: u64,
        hi: u64,
        write: bool,
    },
    /// Mailbox push of `key` into global rank `dst`'s mailbox.
    Push { key: MatchKey, dst: usize },
    /// Blocking consumption of a packet for `key` by global rank `dst`.
    Pop { key: MatchKey, dst: usize },
    /// Successful nonblocking poll for `key` by global rank `dst`:
    /// unlike a blocking [`Op::Pop`], scheduling the poller before the
    /// push turns this into a miss, so the push → poll reversal is a
    /// real schedule race the DPOR scan must seed.
    PollHit { key: MatchKey, dst: usize },
    /// Failed nonblocking poll for `key` by global rank `dst`.
    PollMiss { key: MatchKey, dst: usize },
    /// OOB rendezvous deposit under `key`.
    OobDeposit { key: BoardKey },
    /// OOB rendezvous completion under `key`.
    OobJoin { key: BoardKey },
}

/// One decision point as executed: the (sorted) ready set it chose from,
/// the chosen rank, and the segment footprint that followed.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) rank: usize,
    pub(crate) ready: Vec<usize>,
    pub(crate) ops: Vec<Op>,
}

#[derive(Debug, Default)]
struct ProbeInner {
    /// Forced decision prefix; picks beyond it take the canonical
    /// default (lowest ready rank).
    forced: Vec<usize>,
    /// Executed decision points, in order.
    steps: Vec<Step>,
}

/// The schedule controller installed into the executors. Each ready-queue
/// pick calls [`Probe::pick`]; the probe hooks in `ctx`/`window`/`comm`
/// attribute footprint ops to the segment the latest pick opened (the
/// controlled executors are single-threaded, so attribution is exact).
#[derive(Debug, Default)]
pub(crate) struct Probe {
    inner: Mutex<ProbeInner>,
}

impl Probe {
    /// A controller forcing the decision prefix `forced`.
    pub(crate) fn controlled(forced: Vec<usize>) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(ProbeInner {
                forced,
                steps: Vec::new(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Choose the next rank out of `ready` (the executor's ready set, in
    /// whatever order it holds it): the forced decision when still in
    /// the prefix and runnable, else the lowest ready rank. Records the
    /// decision point either way, so a replayed certificate stays
    /// meaningful even when shrinking removed some of its decisions.
    pub(crate) fn pick(&self, ready: impl IntoIterator<Item = usize>) -> usize {
        let mut ready: Vec<usize> = ready.into_iter().collect();
        ready.sort_unstable();
        let mut g = self.lock();
        let i = g.steps.len();
        let rank = match g.forced.get(i) {
            Some(&r) if ready.contains(&r) => r,
            _ => ready[0],
        };
        g.steps.push(Step {
            rank,
            ready,
            ops: Vec::new(),
        });
        rank
    }

    /// Record `op` into the current segment (no-op before the first
    /// pick, which only happens in uncontrolled thread-per-rank mode).
    pub(crate) fn record(&self, op: Op) {
        let mut g = self.lock();
        if let Some(s) = g.steps.last_mut() {
            s.ops.push(op);
        }
    }

    /// Take the executed decision trace (resets the probe's log).
    fn take_steps(&self) -> Vec<Step> {
        std::mem::take(&mut self.lock().steps)
    }
}

// ---------------------------------------------------------------------------
// Violations and certificates.
// ---------------------------------------------------------------------------

/// What kind of property an explored schedule violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A rank blocked past the deadlock timeout.
    Deadlock,
    /// The end-of-run race sweep reported conflicts.
    Race,
    /// A rank program panicked.
    Panic,
    /// Results or clocks differed from the first explored schedule
    /// (determinism-contract breach).
    Divergence,
    /// The executor itself failed (or rejected the configuration).
    Executor,
}

impl ViolationKind {
    fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "deadlock" => ViolationKind::Deadlock,
            "race" => ViolationKind::Race,
            "panic" => ViolationKind::Panic,
            "divergence" => ViolationKind::Divergence,
            "executor" => ViolationKind::Executor,
            _ => return None,
        })
    }
}

/// A canonicalized property violation: the kind plus its canonical-JSON
/// description. Two schedules exhibit *the same* violation iff the JSON
/// is byte-identical — that is the shrinker's preservation criterion and
/// the replay tests' byte-identity assertion. Schedule-dependent context
/// (like the fault plan's own decision trace) is deliberately excluded
/// so a certificate's violation matches across explore, shrink, and
/// replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated property.
    pub kind: ViolationKind,
    /// Canonical JSON (sorted keys, no whitespace) describing it.
    pub json: String,
}

/// A replayable counterexample: the decision prefix that steers the
/// controlled executors into a violating schedule, plus the violation it
/// produces. Serialized as canonical JSON (see
/// `docs/model-checking.md#certificate-format`); committed certificates
/// are regression tests replayed by `SchedulePolicy::Replay`.
#[derive(Clone, PartialEq, Eq)]
pub struct ScheduleCertificate {
    /// Format version (currently 1).
    pub version: u32,
    /// Name of the checked program (human label, round-tripped).
    pub program: String,
    /// Human-readable configuration summary (round-tripped).
    pub config: String,
    /// The shrunk decision prefix: pick `decisions[i]` at the i-th
    /// ready-queue decision point, defaults afterwards.
    pub decisions: Vec<usize>,
    /// The violation this schedule produces.
    pub violation: Violation,
}

// The compact Debug matters: `SchedulePolicy::Replay` embeds the
// certificate, and `FaultPlan`'s Debug feeds fault-context strings — a
// derive would splice the whole decision trace into every error report.
impl fmt::Debug for ScheduleCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ScheduleCertificate(v{}, {:?}, {} decisions, {:?})",
            self.version,
            self.program,
            self.decisions.len(),
            self.violation.kind
        )
    }
}

impl ScheduleCertificate {
    /// Canonical JSON encoding: keys sorted, no whitespace, the
    /// violation embedded as its (already canonical) JSON string.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"config\":");
        json_string(&mut s, &self.config);
        s.push_str(",\"decisions\":[");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_string());
        }
        s.push_str("],\"program\":");
        json_string(&mut s, &self.program);
        s.push_str(",\"version\":");
        s.push_str(&self.version.to_string());
        s.push_str(",\"violation\":");
        json_string(&mut s, &self.violation.json);
        s.push('}');
        s
    }

    /// Parse a certificate from its canonical JSON (tolerates
    /// insignificant whitespace).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut p = JsonParser::new(text);
        let fields = p.object()?;
        p.end()?;
        let get = |k: &str| {
            fields
                .get(k)
                .ok_or_else(|| format!("certificate is missing the {k:?} field"))
        };
        let config = get("config")?.as_string()?;
        let decisions = get("decisions")?.as_usize_array()?;
        let program = get("program")?.as_string()?;
        let version = get("version")?.as_u64()? as u32;
        let vjson = get("violation")?.as_string()?;
        let kind = violation_kind_of(&vjson)
            .ok_or_else(|| format!("unrecognized violation kind in {vjson:?}"))?;
        Ok(Self {
            version,
            program,
            config,
            decisions,
            violation: Violation { kind, json: vjson },
        })
    }
}

/// Extract the `"kind"` tag out of a canonical violation JSON string,
/// parsing structurally so user-influenced string fields serialized
/// ahead of `"kind"` (e.g. `UnsupportedExec`'s `exec`) can never be
/// mistaken for the tag.
fn violation_kind_of(json: &str) -> Option<ViolationKind> {
    let mut p = JsonParser::new(json);
    let fields = p.object().ok()?;
    p.end().ok()?;
    match fields.get("kind")? {
        JsonValue::String(tag) => ViolationKind::from_tag(tag),
        _ => None,
    }
}

/// Append `value` as a JSON string literal.
fn json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON scalar or array (the only shapes certificates and
/// violation descriptions use).
enum JsonValue {
    String(String),
    Number(u64),
    Array(Vec<JsonValue>),
}

impl JsonValue {
    fn as_string(&self) -> Result<String, String> {
        match self {
            JsonValue::String(s) => Ok(s.clone()),
            _ => Err("expected a JSON string".into()),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            _ => Err("expected a JSON number".into()),
        }
    }

    fn as_usize_array(&self) -> Result<Vec<usize>, String> {
        match self {
            JsonValue::Array(v) => v
                .iter()
                .map(|x| x.as_u64().map(|n| n as usize))
                .collect::<Result<_, _>>()
                .map_err(|_| "expected a JSON array of numbers".into()),
            _ => Err("expected a JSON array of numbers".into()),
        }
    }
}

/// Minimal parser for the flat object shapes certificates and
/// violation descriptions serialize to: one object of string /
/// non-negative-integer / array (of scalars) fields.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn object(&mut self) -> Result<BTreeMap<String, JsonValue>, String> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.insert(key, value);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'0'..=b'9') => Ok(JsonValue::Number(self.number()?)),
            _ => Err(format!("unsupported JSON value at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err("unsupported string escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing content at byte {}", self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// Outcome canonicalization.
// ---------------------------------------------------------------------------

/// One FNV-1a step: fold `bytes` into the running hash `h`. Public so
/// golden tests can extend [`outcome_digest`] over further observables
/// (e.g. the canonical trace).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the run's observable outcome: per-rank results (via
/// `Debug`) and final virtual clocks. Schedule-invariant for correct
/// programs (the determinism contract); any difference is a divergence.
pub fn outcome_digest<T: fmt::Debug>(res: &SimResult<T>) -> u64 {
    let mut h = fnv1a(
        0xcbf2_9ce4_8422_2325,
        format!("{:?}", res.per_rank).as_bytes(),
    );
    for c in &res.clocks {
        h = fnv1a(h, &c.to_bits().to_le_bytes());
    }
    h
}

/// Canonicalize a run outcome into a violation, if it is one. The JSON
/// deliberately excludes the fault context (it embeds the schedule
/// policy — a replay certificate would describe itself) so violations
/// compare byte-identically across explore, shrink, and replay.
fn classify<T: fmt::Debug>(
    out: &Result<SimResult<T>, SimError>,
    reference: Option<u64>,
) -> (Option<Violation>, Option<u64>) {
    match out {
        Ok(res) => {
            let digest = outcome_digest(res);
            match reference {
                Some(want) if want != digest => (
                    Some(Violation {
                        kind: ViolationKind::Divergence,
                        json: format!(
                            "{{\"digest\":\"{digest:016x}\",\"kind\":\"divergence\",\"reference\":\"{want:016x}\"}}"
                        ),
                    }),
                    Some(digest),
                ),
                _ => (None, Some(digest)),
            }
        }
        Err(e) => (Some(violation_of_error(e)), None),
    }
}

fn violation_of_error(e: &SimError) -> Violation {
    match e {
        SimError::DeadlockSuspected {
            rank,
            comm,
            src,
            tag,
        } => Violation {
            kind: ViolationKind::Deadlock,
            json: format!(
                "{{\"comm\":{comm},\"kind\":\"deadlock\",\"rank\":{rank},\"src\":{src},\"tag\":{tag}}}"
            ),
        },
        SimError::RaceDetected { reports, .. } => {
            let mut json = String::from("{\"kind\":\"race\",\"reports\":[");
            for (i, r) in reports.iter().enumerate() {
                if i > 0 {
                    json.push(',');
                }
                json_string(&mut json, &r.to_string());
            }
            json.push_str("]}");
            Violation {
                kind: ViolationKind::Race,
                json,
            }
        }
        SimError::RankPanicked { rank, message } => {
            let mut json = String::from("{\"kind\":\"panic\",\"message\":");
            json_string(&mut json, message);
            json.push_str(&format!(",\"rank\":{rank}}}"));
            Violation {
                kind: ViolationKind::Panic,
                json,
            }
        }
        SimError::ExecutorFailure { rank, message, .. } => {
            let mut json = String::from("{\"kind\":\"executor\",\"message\":");
            json_string(&mut json, message);
            json.push_str(&format!(",\"rank\":{rank}}}"));
            Violation {
                kind: ViolationKind::Executor,
                json,
            }
        }
        SimError::UnsupportedExec { exec, feature } => {
            let mut json = String::from("{\"exec\":");
            json_string(&mut json, exec);
            json.push_str(",\"feature\":");
            json_string(&mut json, feature);
            json.push_str(",\"kind\":\"executor\"}");
            Violation {
                kind: ViolationKind::Executor,
                json,
            }
        }
    }
}

/// The reference digest a divergence certificate was judged against,
/// parsed back out of its canonical violation JSON.
fn reference_of(v: &Violation) -> Option<u64> {
    if v.kind != ViolationKind::Divergence {
        return None;
    }
    let at = v.json.find("\"reference\":\"")? + "\"reference\":\"".len();
    u64::from_str_radix(v.json.get(at..at + 16)?, 16).ok()
}

// ---------------------------------------------------------------------------
// Dependence and happens-before over a decision trace.
// ---------------------------------------------------------------------------

fn ops_dependent(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (
            Op::Win {
                id: ia,
                lo: la,
                hi: ha,
                write: wa,
            },
            Op::Win {
                id: ib,
                lo: lb,
                hi: hb,
                write: wb,
            },
        ) => ia == ib && la < hb && lb < ha && (*wa || *wb),
        (Op::PollMiss { key: ka, dst: da }, Op::Push { key: kb, dst: db })
        | (Op::Push { key: kb, dst: db }, Op::PollMiss { key: ka, dst: da })
        | (Op::PollHit { key: ka, dst: da }, Op::Push { key: kb, dst: db })
        | (Op::Push { key: kb, dst: db }, Op::PollHit { key: ka, dst: da }) => ka == kb && da == db,
        _ => false,
    }
}

fn segs_dependent(a: &[Op], b: &[Op]) -> bool {
    a.iter().any(|x| b.iter().any(|y| ops_dependent(x, y)))
}

/// A successful-poll race: one segment's `PollHit` consumed the other
/// segment's `Push`. The match itself contributes a push → poll HB edge
/// (the data did flow in this trace), yet the reversal — poller
/// scheduled first, poll misses — is a genuinely different schedule, so
/// these pairs bypass the `hb.has` skip in the DPOR race scan.
fn poll_race(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (Op::PollHit { key: ka, dst: da }, Op::Push { key: kb, dst: db })
        | (Op::Push { key: kb, dst: db }, Op::PollHit { key: ka, dst: da }) => ka == kb && da == db,
        _ => false,
    }
}

fn segs_poll_race(a: &[Op], b: &[Op]) -> bool {
    a.iter().any(|x| b.iter().any(|y| poll_race(x, y)))
}

/// Word-packed predecessor bitsets: `preds[j]` holds the transitive HB
/// predecessors of segment `j` (every edge points forward in the trace,
/// so one increasing pass computes the closure).
struct HbPreds {
    words: Vec<u64>,
    stride: usize,
}

impl HbPreds {
    fn new(n: usize) -> Self {
        let stride = n.div_ceil(64);
        Self {
            words: vec![0; n * stride],
            stride,
        }
    }

    fn has(&self, j: usize, i: usize) -> bool {
        self.words[j * self.stride + i / 64] >> (i % 64) & 1 == 1
    }

    /// Add the direct edge `i → j` (absorbing `i`'s predecessors).
    fn add_edge(&mut self, i: usize, j: usize) {
        if i >= j {
            return;
        }
        let (lo, hi) = self.words.split_at_mut(j * self.stride);
        let src = &lo[i * self.stride..(i + 1) * self.stride];
        let dst = &mut hi[..self.stride];
        for (d, s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
        dst[i / 64] |= 1 << (i % 64);
    }
}

/// The transitive HB closure of a decision trace.
fn happens_before(steps: &[Step]) -> HbPreds {
    let n = steps.len();
    let mut hb = HbPreds::new(n);
    let mut last_of_rank: BTreeMap<usize, usize> = BTreeMap::new();
    let mut pushes: BTreeMap<(MatchKey, usize), std::collections::VecDeque<usize>> =
        BTreeMap::new();
    let mut oob_deposits: BTreeMap<BoardKey, Vec<usize>> = BTreeMap::new();
    for (j, step) in steps.iter().enumerate() {
        if let Some(&prev) = last_of_rank.get(&step.rank) {
            hb.add_edge(prev, j);
        }
        last_of_rank.insert(step.rank, j);
        for op in &step.ops {
            match op {
                Op::Push { key, dst } => {
                    pushes.entry((*key, *dst)).or_default().push_back(j);
                }
                // Per-key FIFO: the m-th consumption matches the m-th
                // push. A PollHit is a consumption too — it gets the
                // same (causal, trace-accurate) HB edge; the DPOR scan
                // bypasses that edge for the directly-matching pair so
                // the push/poll reversal still seeds a backtrack point.
                Op::Pop { key, dst } | Op::PollHit { key, dst } => {
                    if let Some(i) = pushes.get_mut(&(*key, *dst)).and_then(|q| q.pop_front()) {
                        hb.add_edge(i, j);
                    }
                }
                Op::OobDeposit { key } => {
                    oob_deposits.entry(*key).or_default().push(j);
                }
                Op::OobJoin { key } => {
                    if let Some(deps) = oob_deposits.get(key) {
                        for &i in deps {
                            hb.add_edge(i, j);
                        }
                    }
                }
                Op::Win { .. } | Op::PollMiss { .. } => {}
            }
        }
    }
    hb
}

// ---------------------------------------------------------------------------
// The DPOR explorer.
// ---------------------------------------------------------------------------

/// Knobs of one [`explore`] call.
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Stop after this many schedules (the search reports `capped`).
    pub max_schedules: u64,
    /// Skip backtrack points whose schedule prefix would exceed this
    /// many preemptions (BPOR); `None` = unbounded (exhaustive).
    pub preemption_bound: Option<u32>,
    /// Disable DPOR and sleep sets: branch on *every* ready rank at
    /// every decision point (the naive-enumeration baseline the pruning
    /// ratio is measured against).
    pub naive: bool,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        Self {
            max_schedules: 50_000,
            preemption_bound: None,
            naive: false,
        }
    }
}

/// Search statistics of one [`explore`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules actually executed.
    pub schedules: u64,
    /// Longest decision trace seen (segments).
    pub max_depth: usize,
    /// Total decision points executed across all schedules.
    pub decision_points: u64,
    /// Backtrack candidates skipped by sleep sets.
    pub sleep_skips: u64,
    /// Alternative ready ranks at executed decision points that DPOR
    /// never needed to branch on (a naive enumerator forks on each).
    pub pruned_branches: u64,
    /// True when the search stopped at `max_schedules` or the
    /// preemption bound pruned backtrack points (result not exhaustive).
    pub capped: bool,
}

/// The result of one [`explore`] call: statistics plus the shrunk
/// certificate of the first violation found (`None` = all inequivalent
/// schedules pass).
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Search statistics.
    pub stats: ExploreStats,
    /// The first violation, shrunk and replay-ready.
    pub certificate: Option<ScheduleCertificate>,
}

/// One node of the current DFS path: the pre-state of a decision point.
struct Node {
    chosen: usize,
    ready: Vec<usize>,
    /// Footprint of `chosen`'s segment in the current run.
    fp: Vec<Op>,
    /// Ranks that must (still) be explored from this node.
    backtrack: BTreeSet<usize>,
    /// Ranks already explored (or dismissed) from this node.
    explored: BTreeSet<usize>,
    /// Sleeping transitions: explored here or inherited from ancestors,
    /// with the footprints that justify skipping them.
    sleep: Vec<(usize, Vec<Op>)>,
    /// Preemptions in the path strictly before this decision.
    preempt_before: u32,
}

impl Node {
    /// Whether choosing `rank` here preempts the previous segment's rank
    /// (it was still runnable but got descheduled).
    fn preempts(&self, prev_rank: Option<usize>, rank: usize) -> bool {
        prev_rank.is_some_and(|p| p != rank && self.ready.contains(&p))
    }
}

/// A human-readable one-line summary of the explored configuration,
/// embedded in certificates.
fn config_summary(base: &SimConfig) -> String {
    format!(
        "spec={:?} mode={:?} recv_timeout_ms={} race_detect={}",
        base.spec,
        base.mode,
        base.recv_timeout.as_millis(),
        base.race_detect
    )
}

fn run_controlled(base: &SimConfig, forced: Vec<usize>) -> (SimConfig, Arc<Probe>) {
    let probe = Probe::controlled(forced);
    let mut cfg = base.clone();
    // The probe makes every pick; single-worker pooled execution makes
    // segment attribution exact, and a clean Fifo plan keeps wall-clock
    // sleeps out of the controlled run.
    cfg.exec = ExecMode::Pooled { workers: Some(1) };
    cfg.fault.schedule = SchedulePolicy::Fifo;
    cfg.mcheck_probe = Some(Arc::clone(&probe));
    (cfg, probe)
}

/// Exhaustively explore all inequivalent schedules of `f` over `base`,
/// checking each for deadlocks, races, panics, and result divergence.
///
/// The base configuration's data mode, race-detector arming, fault
/// kills, and deadlock timeout are honored; the executor is forced to
/// single-worker pooled mode (the decision-point model) and the
/// schedule policy is overridden by the controller. On the first
/// violation the search stops, delta-debugs the decision trace, and
/// returns a [`ScheduleCertificate`]; otherwise the report proves every
/// inequivalent schedule of this configuration passes.
pub fn explore<T, F>(base: &SimConfig, program: &str, opts: &ExploreOpts, f: F) -> ExploreReport
where
    T: Send + fmt::Debug,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let mut stats = ExploreStats::default();
    let mut path: Vec<Node> = Vec::new();
    let mut reference: Option<u64> = None;
    loop {
        stats.schedules += 1;
        let forced: Vec<usize> = path.iter().map(|n| n.chosen).collect();
        let switch_depth = forced.len().saturating_sub(1);
        let (cfg, probe) = run_controlled(base, forced);
        let out = Universe::run(cfg, &f);
        let steps = probe.take_steps();
        stats.decision_points += steps.len() as u64;
        stats.max_depth = stats.max_depth.max(steps.len());

        // Refresh the switch node's footprint (its chosen rank changed
        // since the footprint was recorded) and extend the path with the
        // fresh suffix this run executed.
        if let (Some(node), Some(step)) = (path.get_mut(switch_depth), steps.get(switch_depth)) {
            debug_assert_eq!(node.chosen, step.rank);
            node.fp = step.ops.clone();
        }
        for d in path.len()..steps.len() {
            let step = &steps[d];
            let (sleep, preempt_before) = match path.last() {
                None => (Vec::new(), 0),
                Some(parent) => {
                    let sleep = parent
                        .sleep
                        .iter()
                        .filter(|(r, fp)| *r != parent.chosen && !segs_dependent(fp, &parent.fp))
                        .cloned()
                        .collect();
                    let prev_prev = (d >= 2).then(|| steps[d - 2].rank);
                    let pb = parent.preempt_before
                        + u32::from(parent.preempts(prev_prev, parent.chosen));
                    (sleep, pb)
                }
            };
            stats.pruned_branches += (step.ready.len() - 1) as u64;
            let backtrack = if opts.naive {
                step.ready.iter().copied().collect()
            } else {
                BTreeSet::from([step.rank])
            };
            path.push(Node {
                chosen: step.rank,
                ready: step.ready.clone(),
                fp: step.ops.clone(),
                backtrack,
                explored: BTreeSet::from([step.rank]),
                sleep,
                preempt_before,
            });
        }

        // Check this schedule.
        let (violation, digest) = classify(&out, reference);
        if let Some(v) = violation {
            let decisions: Vec<usize> = steps.iter().map(|s| s.rank).collect();
            let certificate = shrink(base, program, &f, &v, decisions, reference);
            return ExploreReport {
                stats,
                certificate: Some(certificate),
            };
        }
        if reference.is_none() {
            reference = digest;
        }

        // No decision points — either the program is trivially sequential
        // or the platform fell back to an uncontrollable executor. One
        // run is the whole search space.
        if steps.is_empty() {
            return ExploreReport {
                stats,
                certificate: None,
            };
        }

        // DPOR: every dependent, unordered, differently-ranked segment
        // pair is a reversible race — seed backtrack points.
        if !opts.naive {
            let hb = happens_before(&steps);
            for j in 0..steps.len() {
                for i in 0..j {
                    // An HB-ordered pair is not reversible — except when
                    // the ordering is (or includes) a successful-poll
                    // match, whose reversal (poll first → miss) is a
                    // distinct schedule that must be explored.
                    if steps[i].rank == steps[j].rank
                        || !segs_dependent(&steps[i].ops, &steps[j].ops)
                        || (hb.has(j, i) && !segs_poll_race(&steps[i].ops, &steps[j].ops))
                    {
                        continue;
                    }
                    // Initials of the pursuit from i's pre-state: rank_j
                    // plus every trace rank between them that leads to j.
                    let mut cands = BTreeSet::from([steps[j].rank]);
                    for (k, step) in steps.iter().enumerate().take(j).skip(i + 1) {
                        if hb.has(j, k) {
                            cands.insert(step.rank);
                        }
                    }
                    let node = &mut path[i];
                    let in_ready: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|r| node.ready.contains(r))
                        .collect();
                    if in_ready.is_empty() {
                        node.backtrack.extend(node.ready.iter().copied());
                    } else {
                        node.backtrack.extend(in_ready);
                    }
                }
            }
        }

        if stats.schedules >= opts.max_schedules {
            stats.capped = true;
            return ExploreReport {
                stats,
                certificate: None,
            };
        }

        // Deepest node with an unexplored backtrack candidate.
        let mut switched = false;
        'descend: while let Some(depth) = path.len().checked_sub(1) {
            let prev_rank = depth.checked_sub(1).map(|d| path[d].chosen);
            let node = &mut path[depth];
            let todo: Vec<usize> = node
                .backtrack
                .iter()
                .copied()
                .filter(|r| !node.explored.contains(r))
                .collect();
            for r in todo {
                if !opts.naive && node.sleep.iter().any(|(s, _)| *s == r) {
                    stats.sleep_skips += 1;
                    node.explored.insert(r);
                    continue;
                }
                if let Some(bound) = opts.preemption_bound {
                    let p = node.preempt_before + u32::from(node.preempts(prev_rank, r));
                    if p > bound {
                        stats.capped = true;
                        node.explored.insert(r);
                        continue;
                    }
                }
                // Switch this node to r; the subtree under the old
                // choice is complete, so the old choice goes to sleep.
                let old_fp = std::mem::take(&mut node.fp);
                node.sleep.push((node.chosen, old_fp));
                node.explored.insert(r);
                node.chosen = r;
                switched = true;
                break 'descend;
            }
            path.pop();
        }
        if !switched {
            return ExploreReport {
                stats,
                certificate: None,
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Shrinking and replay.
// ---------------------------------------------------------------------------

/// Wall-clock budget for the shrinker, in replay runs. Each run of a
/// deadlock certificate costs a full `recv_timeout`, so the budget keeps
/// shrinking bounded rather than minimal.
const SHRINK_BUDGET: u32 = 96;

/// Delta-debug `decisions` down to a short prefix that still reproduces
/// `violation` byte-identically: first the shortest reproducing prefix
/// (galloping + binary search, verified), then greedy single-decision
/// removal until the budget runs out or a fixpoint is reached.
fn shrink<T, F>(
    base: &SimConfig,
    program: &str,
    f: &F,
    violation: &Violation,
    decisions: Vec<usize>,
    reference: Option<u64>,
) -> ScheduleCertificate
where
    T: Send + fmt::Debug,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let budget = std::cell::Cell::new(SHRINK_BUDGET);
    let reproduces = |cand: &[usize]| -> bool {
        if budget.get() == 0 {
            return false;
        }
        budget.set(budget.get() - 1);
        let (cfg, _probe) = run_controlled(base, cand.to_vec());
        let out = Universe::run(cfg, f);
        let (v, _) = classify(&out, reference);
        v.as_ref() == Some(violation)
    };

    let mut cur = decisions;
    // Shortest reproducing prefix. Reproduction is not guaranteed
    // monotone in the prefix length, so the binary search is a guided
    // guess verified at the end; the full trace is the safe fallback.
    if reproduces(&[]) {
        cur = Vec::new();
    } else {
        let (mut lo, mut hi) = (0usize, cur.len());
        // Galloping upper bound for the first reproducing length.
        let mut step = 1;
        while lo + step < hi {
            if reproduces(&cur[..lo + step]) {
                hi = lo + step;
                break;
            }
            lo += step;
            step *= 2;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if reproduces(&cur[..mid]) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        if hi < cur.len() && reproduces(&cur[..hi]) {
            cur.truncate(hi);
        }
    }
    // Greedy removal to a fixpoint (budget-capped).
    let mut i = cur.len();
    while i > 0 && budget.get() > 0 {
        i -= 1;
        let mut cand = cur.clone();
        cand.remove(i);
        if reproduces(&cand) {
            cur = cand;
        }
    }

    ScheduleCertificate {
        version: 1,
        program: program.to_string(),
        config: config_summary(base),
        decisions: cur,
        violation: violation.clone(),
    }
}

/// Re-run `f` under the certificate's decision trace (via the public
/// [`SchedulePolicy::Replay`] hook) and return the violation the run
/// produces, if any. Byte-identity of the returned violation's JSON
/// against `cert.violation.json` is the replay test's assertion. The
/// base configuration's executor is honored: pooled (single-worker) and
/// events executors follow the decisions exactly; thread-per-rank mode
/// cannot be controlled, so there the decisions are inert and only
/// schedule-independent violations (deadlocks, races) reproduce.
pub fn replay<T, F>(base: &SimConfig, cert: &ScheduleCertificate, f: F) -> Option<Violation>
where
    T: Send + fmt::Debug,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let mut cfg = base.clone();
    if let ExecMode::Pooled { .. } = cfg.exec {
        cfg.exec = ExecMode::Pooled { workers: Some(1) };
    }
    cfg.fault.schedule = SchedulePolicy::Replay(cert.clone());
    let reference = reference_of(&cert.violation);
    let out = Universe::run(cfg, f);
    let (v, _) = classify(&out, reference);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cert() -> ScheduleCertificate {
        ScheduleCertificate {
            version: 1,
            program: "toy \"quoted\"".into(),
            config: "spec=2x2".into(),
            decisions: vec![0, 3, 1, 1],
            violation: Violation {
                kind: ViolationKind::Deadlock,
                json: "{\"comm\":0,\"kind\":\"deadlock\",\"rank\":2,\"src\":0,\"tag\":7}".into(),
            },
        }
    }

    #[test]
    fn certificate_json_round_trips() {
        let cert = sample_cert();
        let json = cert.to_json();
        let back = ScheduleCertificate::from_json(&json).unwrap();
        assert_eq!(back, cert);
        assert_eq!(back.to_json(), json, "canonical form is a fixpoint");
    }

    #[test]
    fn certificate_json_is_canonical() {
        let json = sample_cert().to_json();
        // No whitespace outside string content.
        assert!(!json.contains(": ") && !json.contains(", "), "{json}");
        assert!(json.starts_with("{\"config\":"), "sorted keys: {json}");
    }

    #[test]
    fn certificate_debug_is_compact() {
        let mut cert = sample_cert();
        cert.decisions = vec![0; 10_000];
        let dbg = format!("{cert:?}");
        assert!(dbg.len() < 120, "compact debug, got {} bytes", dbg.len());
        assert!(dbg.contains("10000 decisions"), "{dbg}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(ScheduleCertificate::from_json("").is_err());
        assert!(ScheduleCertificate::from_json("{}").is_err());
        assert!(ScheduleCertificate::from_json("{\"version\":1}").is_err());
        assert!(ScheduleCertificate::from_json("not json").is_err());
    }

    #[test]
    fn divergence_reference_round_trips() {
        let v = Violation {
            kind: ViolationKind::Divergence,
            json: "{\"digest\":\"00000000000000aa\",\"kind\":\"divergence\",\"reference\":\"00000000000000bb\"}".into(),
        };
        assert_eq!(reference_of(&v), Some(0xbb));
    }

    #[test]
    fn window_overlap_dependence() {
        let w = |lo, hi, write| Op::Win {
            id: 1,
            lo,
            hi,
            write,
        };
        assert!(ops_dependent(&w(0, 4, true), &w(2, 6, false)));
        assert!(
            !ops_dependent(&w(0, 4, false), &w(2, 6, false)),
            "read–read"
        );
        assert!(!ops_dependent(&w(0, 4, true), &w(4, 8, true)), "disjoint");
        let other = Op::Win {
            id: 2,
            lo: 0,
            hi: 4,
            write: true,
        };
        assert!(!ops_dependent(&w(0, 4, true), &other), "different window");
    }

    #[test]
    fn poll_miss_push_dependence() {
        let key = (0, 1, 7);
        let miss = Op::PollMiss { key, dst: 3 };
        let push = Op::Push { key, dst: 3 };
        let push_other = Op::Push { key, dst: 2 };
        assert!(ops_dependent(&miss, &push));
        assert!(ops_dependent(&push, &miss));
        assert!(!ops_dependent(&miss, &push_other), "different destination");
        let pop = Op::Pop { key, dst: 3 };
        assert!(
            !ops_dependent(&pop, &push),
            "blocking pops are HB, not deps"
        );
    }

    #[test]
    fn poll_hit_push_dependence_bypasses_hb() {
        let key = (0, 0, 7);
        let hit = Op::PollHit { key, dst: 1 };
        let push = Op::Push { key, dst: 1 };
        assert!(ops_dependent(&hit, &push));
        assert!(ops_dependent(&push, &hit));
        assert!(poll_race(&hit, &push) && poll_race(&push, &hit));
        let other_dst = Op::Push { key, dst: 2 };
        assert!(!poll_race(&hit, &other_dst), "different destination");
        let miss = Op::PollMiss { key, dst: 1 };
        assert!(!poll_race(&miss, &push), "a miss has no HB edge to bypass");
        let pop = Op::Pop { key, dst: 1 };
        assert!(!poll_race(&pop, &push), "blocking pops are not reversible");
    }

    #[test]
    fn poll_hit_consumes_the_fifo_slot() {
        // Two pushes of the same key from different ranks; a PollHit
        // consumes the first, so the following Pop must match the
        // *second* push (FIFO), not the first again.
        let key = (0, 0, 7);
        let steps = vec![
            Step {
                rank: 0,
                ready: vec![0, 1, 2],
                ops: vec![Op::Push { key, dst: 1 }],
            },
            Step {
                rank: 2,
                ready: vec![1, 2],
                ops: vec![Op::Push { key, dst: 1 }],
            },
            Step {
                rank: 1,
                ready: vec![1],
                ops: vec![Op::PollHit { key, dst: 1 }],
            },
            Step {
                rank: 1,
                ready: vec![1],
                ops: vec![Op::Pop { key, dst: 1 }],
            },
        ];
        let hb = happens_before(&steps);
        assert!(hb.has(2, 0), "the poll hit matches the first push");
        assert!(hb.has(3, 1), "the pop matches the second push");
    }

    #[test]
    fn violation_kind_parses_structurally() {
        // A user-influenced field serialized ahead of "kind" must not be
        // mistaken for the tag, even when it embeds one.
        let mut json = String::from("{\"exec\":");
        json_string(&mut json, "evil\"kind\":\"deadlock\" payload");
        json.push_str(",\"feature\":\"f\",\"kind\":\"executor\"}");
        assert_eq!(violation_kind_of(&json), Some(ViolationKind::Executor));
        // Race violations carry string arrays.
        assert_eq!(
            violation_kind_of("{\"kind\":\"race\",\"reports\":[\"a\",\"b\"]}"),
            Some(ViolationKind::Race)
        );
        assert_eq!(violation_kind_of("{\"kind\":\"nope\"}"), None);
        assert_eq!(violation_kind_of("not json"), None);
    }

    #[test]
    fn hb_closure_is_transitive() {
        // r0 pushes (seg 0) → r1 pops (seg 1) → r1 pushes → r2 pops (seg 2).
        let key_a = ((0, 0, 1), 1);
        let key_b = ((0, 1, 2), 2);
        let steps = vec![
            Step {
                rank: 0,
                ready: vec![0, 1, 2],
                ops: vec![Op::Push {
                    key: key_a.0,
                    dst: key_a.1,
                }],
            },
            Step {
                rank: 1,
                ready: vec![1, 2],
                ops: vec![
                    Op::Pop {
                        key: key_a.0,
                        dst: key_a.1,
                    },
                    Op::Push {
                        key: key_b.0,
                        dst: key_b.1,
                    },
                ],
            },
            Step {
                rank: 2,
                ready: vec![2],
                ops: vec![Op::Pop {
                    key: key_b.0,
                    dst: key_b.1,
                }],
            },
        ];
        let hb = happens_before(&steps);
        assert!(hb.has(1, 0));
        assert!(hb.has(2, 1));
        assert!(hb.has(2, 0), "transitively closed");
    }

    #[test]
    fn oob_deposits_order_joins() {
        let key = (5, 0, 2);
        let steps = vec![
            Step {
                rank: 0,
                ready: vec![0, 1],
                ops: vec![Op::OobDeposit { key }],
            },
            Step {
                rank: 1,
                ready: vec![0, 1],
                ops: vec![Op::OobDeposit { key }, Op::OobJoin { key }],
            },
            Step {
                rank: 0,
                ready: vec![0],
                ops: vec![Op::OobJoin { key }],
            },
        ];
        let hb = happens_before(&steps);
        assert!(hb.has(2, 1), "rank 1's deposit precedes rank 0's join");
        assert!(hb.has(1, 0), "rank 0's deposit precedes rank 1's join");
    }

    #[test]
    fn probe_forces_prefix_then_defaults() {
        let p = Probe::controlled(vec![2, 9]);
        assert_eq!(p.pick([1, 2, 0]), 2, "forced and ready");
        assert_eq!(p.pick([1, 0]), 0, "forced rank 9 not ready → default");
        assert_eq!(p.pick([3, 1]), 1, "past the prefix → lowest rank");
        let steps = p.take_steps();
        assert_eq!(
            steps.iter().map(|s| s.rank).collect::<Vec<_>>(),
            vec![2, 0, 1]
        );
        assert_eq!(steps[0].ready, vec![0, 1, 2], "ready snapshots sorted");
    }
}
