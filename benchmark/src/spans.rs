//! Spans of a traced run: recorded from the benchmark's own files around
//! the calls into each layer, kept in memory, written out once at exit.
//!
//! Only the driver thread records (every workload runs one busy thread
//! and launches its universes from the driver), so a thread-local
//! recorder needs no lock and an untraced run pays one branch per span.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (traced runs only).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Run `f` inside a span called `name`, child of the innermost open span.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            rec.spans.push(Span {
                name: name.to_string(),
                start_us: rec.t0.elapsed().as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: rec.open.last().copied(),
            });
            rec.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_us = rec.t0.elapsed().as_secs_f64() * 1e6;
                rec.open.pop();
            }
        });
    }
    out
}

/// Number of spans recorded so far (0 when not recording).
pub fn count() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len()))
}

/// Seconds each finished span called `name` took, among the spans with
/// an id of at least `from` (a [`count`] taken earlier).
pub fn durations_s(name: &str, from: usize) -> Vec<f64> {
    RECORDER.with(|r| {
        let r = r.borrow();
        let spans = r.iter().flat_map(|rec| rec.spans.iter().skip(from));
        spans
            .filter(|sp| sp.name == name && sp.end_us.is_finite())
            .map(|sp| (sp.end_us - sp.start_us) * 1e-6)
            .collect()
    })
}

/// Every span as one JSON document; `workload` is the identifier all
/// spans of the run share.
pub fn to_json(workload: &str) -> String {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut s = format!("{{\"workload\":\"{workload}\",\"unit\":\"us\",\"spans\":[\n");
        for (id, sp) in r.iter().flat_map(|rec| rec.spans.iter().enumerate()) {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id == 0 { "" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}{{\"id\":{id},\"name\":\"{}\",\"start\":{:.1},\"end\":{:.1},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                sp.name, sp.start_us, sp.end_us
            );
        }
        s.push_str("\n]}\n");
        s
    })
}

/// Write [`to_json`] to `path`, creating its directory.
pub fn write_json(path: &Path, workload: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::json::Json;

    #[test]
    fn spans_nest_and_serialize() {
        assert_eq!(span("ignored", count), 0, "nothing records before start()");
        start();
        span("outer", || span("inner", || ()));
        assert_eq!(count(), 2);
        assert_eq!(durations_s("inner", 0).len(), 1);
        assert!(durations_s("inner", 2).is_empty() && durations_s("absent", 0).is_empty());
        let doc = Json::parse(&to_json("unit")).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(spans[1].get("parent").and_then(Json::as_usize), Some(0));
        let dur = |s: &Json| {
            s.get("end").and_then(Json::as_f64).unwrap()
                - s.get("start").and_then(Json::as_f64).unwrap()
        };
        assert!(dur(&spans[0]) >= dur(&spans[1]));
    }
}
