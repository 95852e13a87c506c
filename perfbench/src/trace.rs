//! A span recorder for the traced run. Spans (name, start, end, parent,
//! thread) are kept in memory and written out as Chrome trace-event JSON
//! when the run ends, viewable offline in Perfetto or `chrome://tracing`.
//!
//! A span's self time is its duration minus the part of its interval its
//! child spans cover. Children that ran in parallel on several threads
//! are merged into one covered set first, so overlap is not subtracted
//! twice.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    // A small stable number per thread for the trace's `tid` field. The
    // counter publishes no other data, so a relaxed increment suffices.
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder timing spans from `origin`; recorders sharing an origin
    /// share one timeline.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` under `parent`; `f` gets the new
    /// span's id to parent spans of its own. A parent is recorded before
    /// its children, so its id is smaller than theirs.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let tid = TID.with(|t| *t);
        let id = {
            let mut spans = self.lock();
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                parent,
                tid,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// The recorded spans, in the order they were opened.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a span panicked while holding the recorder")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span panicked while holding the recorder")
    }
}

/// Self time of every span in nanoseconds, index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + run.map_or(0, |(ra, rb)| rb - ra)
}

/// Chrome trace-event JSON for groups of spans: one complete (`"X"`)
/// event per span in microseconds, `pid` naming the group (one traced
/// repetition), and the span's id and parent id (`-1` for a root) in
/// `args`.
///
/// # Panics
/// Panics on a span name outside `[a-z0-9._]`: names are written
/// unescaped.
pub fn chrome_trace_json(groups: &[(u32, &[Span])]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    let mut sep = "\n";
    for &(pid, spans) in groups {
        for (id, s) in spans.iter().enumerate() {
            assert!(
                s.name.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'.'
                    || b == b'_'),
                "span name {:?} needs escaping",
                s.name
            );
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.tid
            )
            .expect("writing to a String cannot fail");
            sep = ",\n";
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two children overlap (parallel workers), one runs past the
        // parent's end, and a grandchild counts against its own parent
        // only.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 90, 120),
            span("d", Some(1), 12, 28),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 4, 30, 30, 16]);
    }

    #[test]
    fn recorder_nests_spans_across_threads() {
        let rec = Recorder::new(Instant::now());
        rec.span("root", None, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| rec.span("leaf", Some(root), |_| ()));
                }
            });
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        for leaf in &spans[1..] {
            assert_eq!(leaf.parent, Some(0));
            assert!(leaf.start_ns >= spans[0].start_ns && leaf.end_ns <= spans[0].end_ns);
        }
        assert_ne!(spans[1].tid, spans[2].tid);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("enrich", None, 0, 2_000),
            span("termex.extract", Some(0), 500, 1_500),
        ];
        let json = chrome_trace_json(&[(1, spans.as_slice()), (2, &spans[..1])]);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert!(json.contains("\"name\": \"termex.extract\", \"cat\": \"termex\""));
        assert!(json.contains("\"ts\": 0.500, \"dur\": 1.000, \"pid\": 1"));
        assert!(json.contains("\"args\": {\"id\": 0, \"parent\": -1}"));
        assert!(json.contains("\"args\": {\"id\": 1, \"parent\": 0}"));
        assert!(!json.contains(",\n]"));
        assert!(json.starts_with('{') && json.trim_end().ends_with("]}"));
    }

    #[test]
    #[should_panic(expected = "needs escaping")]
    fn chrome_trace_refuses_names_that_need_escaping() {
        let bad = [span("a\"b", None, 0, 1)];
        chrome_trace_json(&[(1, &bad[..])]);
    }
}
