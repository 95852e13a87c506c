//! [`PerfReport`]: meta entries plus timed stage records, written as
//! JSON.

/// One timed stage of a perf report: wall-clock milliseconds for a
/// stage run at a given thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (e.g. `steps_iii_iv`).
    pub stage: String,
    /// Thread count the stage ran with.
    pub threads: usize,
    /// Best-of-runs wall-clock time, in milliseconds.
    pub wall_ms: f64,
    /// Number of timed runs the minimum was taken over.
    pub runs: usize,
}

/// A machine-readable benchmark report, serialized as JSON by hand (the
/// offline build has no serde). Meta entries and stage records keep
/// insertion order so reports diff cleanly run-to-run.
#[derive(Debug, Default)]
pub struct PerfReport {
    meta: Vec<(String, MetaValue)>,
    stages: Vec<StageRecord>,
}

#[derive(Debug, Clone, PartialEq)]
enum MetaValue {
    Num(f64),
    Str(String),
}

impl PerfReport {
    /// An empty report tagged with `bench`.
    pub fn new(bench: &str) -> Self {
        let mut r = PerfReport::default();
        r.set_str("bench", bench);
        r
    }

    /// Set (or overwrite) a numeric meta entry.
    pub fn set_num(&mut self, key: &str, value: f64) {
        self.set(key, MetaValue::Num(value));
    }

    /// Set (or overwrite) a string meta entry.
    pub fn set_str(&mut self, key: &str, value: &str) {
        self.set(key, MetaValue::Str(value.to_owned()));
    }

    fn set(&mut self, key: &str, value: MetaValue) {
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.meta.push((key.to_owned(), value)),
        }
    }

    /// Record one timed stage.
    pub fn record(&mut self, stage: &str, threads: usize, wall_ms: f64, runs: usize) {
        self.stages.push(StageRecord {
            stage: stage.to_owned(),
            threads,
            wall_ms,
            runs,
        });
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (k, v) in &self.meta {
            out.push_str(&format!("  {}: ", json_string(k)));
            match v {
                MetaValue::Num(n) => out.push_str(&json_number(*n)),
                MetaValue::Str(s) => out.push_str(&json_string(s)),
            }
            out.push_str(",\n");
        }
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": {}, \"threads\": {}, \"wall_ms\": {}, \"runs\": {}}}{}\n",
                json_string(&s.stage),
                s.threads,
                json_number(s.wall_ms),
                s.runs,
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON report to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// JSON string literal with the escapes the report can actually contain.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (JSON has no NaN/Inf; clamp those to null).
fn json_number(n: f64) -> String {
    if n.is_finite() {
        format!("{n:.3}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_report_round_trips_to_json() {
        let mut r = PerfReport::new("BENCH_T");
        r.set_num("corpus_tokens", 1234.0);
        r.set_num("corpus_tokens", 5678.0); // overwrite, not duplicate
        r.record("steps_iii_iv", 1, 100.0, 3);
        r.record("steps_iii_iv", 4, 25.0, 3);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"BENCH_T\""), "{json}");
        assert!(json.contains("\"corpus_tokens\": 5678.000"), "{json}");
        assert!(!json.contains("1234"), "{json}");
        assert!(json.contains("\"threads\": 4"), "{json}");
        // Exactly one trailing-comma-free array: valid JSON by eyeball —
        // and by the cheap structural checks below.
        assert_eq!(json.matches("\"stage\":").count(), 2);
        assert!(!json.contains(",]") && !json.contains(",}"), "{json}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5), "1.500");
    }
}
