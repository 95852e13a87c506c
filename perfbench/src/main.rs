//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed generates one workload's inputs: a `World::generate` world
//! rendered to raw document texts and the ontology's `.boe` text, which
//! is all the library is given, as with `boe pipeline`. Then:
//!
//! - `--trace 0` repeats, for `--seconds`, one set-up (raw inputs to a
//!   ready `Corpus` and `Ontology`) followed by one
//!   `EnrichmentPipeline::run`, and reports the end-to-end metrics. Each
//!   iteration is bracketed by a pass of a fixed reference kernel
//!   ([`calib`]) and its times are rescaled to a host where that pass
//!   takes [`calib::NOMINAL_S`], so a shared host's slow phases cancel
//!   out; the raw readings are printed on stderr;
//! - `--trace 1` alternates untraced pipeline runs with a traced rebuild
//!   of the pipeline from each layer's public functions ([`layers`]) and
//!   reports per-layer times and counters. It writes the spans as Chrome
//!   trace-event JSON to `.bench_out/<workload>-seed<n>.trace.json` and
//!   the layer table to `.bench_out/<workload>-seed<n>.layers.json`.
//!
//! Before timing, the same inputs run once at the workload's other thread
//! count. That run must be clean and reach the workload's Step II
//! outcome, and its report digest is the reference: output is
//! bit-identical at any thread count, so a later run that differs counts
//! as a failed operation instead of a timing. The last line of stdout is
//! the JSON result; a refusal exits with code 2 and prints none.

mod calib;
mod digest;
mod layers;
mod stats;
mod sys;
mod trace;
mod workload;

use boe_bench::harness::PerfReport;
use boe_core::diagnostics::DetectorOutcome;
use boe_core::report::EnrichmentReport;
use boe_core::{EnrichError, EnrichmentPipeline};
use stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Inputs, Workload};

/// Fewest timed runs per invocation, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// Where the traced run writes its trace and layer table, relative to
/// the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics, reported with `--trace 0`: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("enrich_s", "s"),
    ("enrich_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// `table`'s metrics picked out of `values`, in table order.
fn metrics(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<String, f64>,
) -> Result<Vec<Metric>, String> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            Ok(Metric { name, value, unit })
        })
        .collect()
}

/// The result line: one JSON object, values with all their digits.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Operations attempted and failed; the first few failures are printed.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("perfbench: failed operation: {e}");
            }
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                w = Some(workload::find(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (known: {})", workload::names())
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--seconds takes a positive number, not {value:?}")
                        })?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let args = parse_args(args)?;
    let w = args.workload;
    if boe_chaos::is_enabled() {
        return Err(
            "a chaos plan is armed (BOE_CHAOS): timings would be meaningless; \
                    unset it or set BOE_CHAOS=off"
                .into(),
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < w.threads {
        return Err(format!(
            "{} runs {} threads but this host grants {cores} core(s): \
             its timings would time-slice one core",
            w.name, w.threads
        ));
    }
    let inputs = Inputs::generate(w, args.seed);
    eprintln!(
        "perfbench: {} seed {}: {} documents, {} thread(s), {cores} core(s) available",
        w.name,
        args.seed,
        inputs.docs(),
        w.threads
    );
    let (tally, metrics) = if args.trace {
        layers_mode(w, &inputs, args.seed, args.seconds)?
    } else {
        end_to_end_mode(w, &inputs, args.seconds)?
    };
    Ok(result_json(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

/// Set-up + pipeline runs for `seconds`, after the reference run.
fn end_to_end_mode(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
) -> Result<(Tally, Vec<Metric>), String> {
    let pipeline = EnrichmentPipeline::new(w.pipeline_config());
    boe_par::set_threads(Some(w.reference_threads()));
    let (corpus, onto) = inputs.setup()?;
    let reference =
        check_run(w, &pipeline.run(&corpus, &onto), None).map_err(|e| precondition(w, &e))?;
    drop((corpus, onto));

    boe_par::set_threads(Some(w.threads));
    let kernel = calib::Kernel::new();
    kernel.time_s();
    let rss_resettable = sys::reset_peak_rss().is_ok();
    if !rss_resettable {
        eprintln!("perfbench: cannot reset the peak RSS; peak_rss_mb is the whole process's peak");
    }
    // Raw readings, and a kernel reading before the first iteration and
    // after each one.
    let (mut setup_s, mut enrich_s, mut cpu_s, mut rss_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut kernel_s = vec![kernel.time_s()];
    let mut tally = Tally::default();
    let start = Instant::now();
    while enrich_s.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        if rss_resettable {
            sys::reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;
        }
        let t = Instant::now();
        let (corpus, onto) = inputs.setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        let cpu = sys::process_cpu_s().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let run = pipeline.run(&corpus, &onto);
        enrich_s.push(t.elapsed().as_secs_f64());
        cpu_s.push(sys::process_cpu_s().map_err(|e| e.to_string())? - cpu);
        rss_mb.push(sys::peak_rss_mb().map_err(|e| e.to_string())?);
        tally.record(check_run(w, &run, Some(reference)).map(drop));
        drop((run, corpus, onto));
        kernel_s.push(kernel.time_s());
    }
    // The host-speed scale of each iteration, from the readings around it.
    let scale: Vec<f64> = kernel_s
        .windows(2)
        .map(|k| calib::NOMINAL_S * 2.0 / (k[0] + k[1]))
        .collect();
    let scaled = |xs: &[f64]| -> Vec<f64> { xs.iter().zip(&scale).map(|(x, s)| x * s).collect() };
    for (name, xs) in [
        ("setup_s", &setup_s),
        ("enrich_s", &enrich_s),
        ("enrich_cpu_s", &cpu_s),
        ("peak_rss_mb", &rss_mb),
        ("kernel_s", &kernel_s),
    ] {
        eprintln!("perfbench: raw {name:<12} {}", stats::describe(xs));
    }
    let (setup_s, enrich_s, cpu_s) = (scaled(&setup_s), scaled(&enrich_s), scaled(&cpu_s));
    for (name, xs) in [
        ("setup_s", &setup_s),
        ("enrich_s", &enrich_s),
        ("enrich_cpu_s", &cpu_s),
    ] {
        eprintln!("perfbench: scaled {name:<12} {}", stats::describe(xs));
    }
    let values = BTreeMap::from([
        ("enrich_s".to_owned(), median(&enrich_s)),
        // /proc/self/stat counts 10 ms ticks, so a per-run median would be
        // quantised; the mean over the same runs is not.
        (
            "enrich_cpu_s".to_owned(),
            cpu_s.iter().sum::<f64>() / cpu_s.len() as f64,
        ),
        ("setup_s".to_owned(), median(&setup_s)),
        ("peak_rss_mb".to_owned(), median(&rss_mb)),
    ]);
    Ok((tally, metrics(&END_TO_END, &values)?))
}

/// Untraced pipeline runs alternated with traced rebuilds for `seconds`,
/// after a traced reference run at the other thread count.
fn layers_mode(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
) -> Result<(Tally, Vec<Metric>), String> {
    let origin = Instant::now();
    let pipeline = EnrichmentPipeline::new(w.pipeline_config());
    boe_par::set_threads(Some(w.reference_threads()));
    let check = layers::traced_run(w, inputs, origin).map_err(|e| precondition(w, &e))?;
    check_outcome(w, check.counters.trained).map_err(|e| precondition(w, &e))?;
    let reference = digest::report_digest(&check.report);
    let counters = check.counters;

    boe_par::set_threads(Some(w.threads));
    let mut enrich_ms = Vec::new();
    let mut reps = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    while enrich_ms.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let (corpus, onto) = inputs.setup()?;
        let t = Instant::now();
        let run = pipeline.run(&corpus, &onto);
        enrich_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record(check_run(w, &run, Some(reference)).map(drop));
        drop((run, corpus, onto));
        match layers::traced_run(w, inputs, origin) {
            Ok(traced) => {
                tally.record(
                    check_digest(digest::report_digest(&traced.report), Some(reference))
                        .map(drop)
                        .and_then(|()| check_counters(&traced.counters, &counters)),
                );
                reps.push(traced);
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    if reps.is_empty() {
        return Err("no traced repetition completed".into());
    }
    eprintln!(
        "perfbench: enrich_ms (untraced) {}",
        stats::describe(&enrich_ms)
    );
    let self_ms = layers::median_self_ms(&reps);
    for (span, ms) in &self_ms {
        eprintln!("perfbench: self {span:<26} {ms:>10.3} ms");
    }
    let values = layers::per_layer(&reps, w.threads, median(&enrich_ms));
    let metrics = metrics(&layers::PER_LAYER, &values)?;
    write_outputs(w, seed, &reps, &self_ms, &metrics)?;
    Ok((tally, metrics))
}

/// The Chrome trace of every repetition (one `pid` each) and the layer
/// table, written with the bench harness's report writer.
fn write_outputs(
    w: &Workload,
    seed: u64,
    reps: &[layers::TracedRun],
    self_ms: &[(&str, f64)],
    metrics: &[Metric],
) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{}-seed{seed}", w.name);
    let groups: Vec<(u32, &[trace::Span])> = reps
        .iter()
        .zip(1u32..)
        .map(|(r, pid)| (pid, r.spans.as_slice()))
        .collect();
    let path = format!("{stem}.trace.json");
    std::fs::write(&path, trace::chrome_trace_json(&groups))
        .map_err(|e| format!("writing {path}: {e}"))?;
    let mut table = PerfReport::new("perfbench");
    table.set_str("workload", w.name);
    table.set_str("seed", &seed.to_string());
    for m in metrics {
        table.set_num(m.name, m.value);
    }
    for &(span, ms) in self_ms {
        table.record(span, w.threads, ms, reps.len());
    }
    let path = format!("{stem}.layers.json");
    table
        .write(Path::new(&path))
        .map_err(|e| format!("writing {path}: {e}"))
}

fn precondition(w: &Workload, e: &str) -> String {
    format!(
        "precondition failed for {} at {} thread(s): {e}",
        w.name,
        w.reference_threads()
    )
}

/// A pipeline run's digest, or why it is not a correct operation: an
/// error, any warning, degradation, trip or truncated term, the wrong
/// Step II outcome, or a digest other than `reference`.
fn check_run(
    w: &Workload,
    run: &Result<EnrichmentReport, EnrichError>,
    reference: Option<u64>,
) -> Result<u64, String> {
    let report = run.as_ref().map_err(|e| format!("run failed: {e}"))?;
    let diag = &report.diagnostics;
    if diag.is_degraded() || !diag.truncated.is_empty() || report.terms.iter().any(|t| t.truncated)
    {
        return Err(format!(
            "run degraded: {} warning(s), degradation(s) or trip(s)",
            diag.warning_count()
        ));
    }
    let trained = match diag.detector {
        DetectorOutcome::Trained { .. } => true,
        DetectorOutcome::Fallback { .. } => false,
        DetectorOutcome::NotAttempted => return Err("Step II training was not attempted".into()),
    };
    check_outcome(w, trained)?;
    check_digest(digest::report_digest(report), reference)
}

fn check_outcome(w: &Workload, trained: bool) -> Result<(), String> {
    if trained == w.trains {
        return Ok(());
    }
    Err(format!(
        "Step II {} but {} expects it to {}",
        if trained { "trained" } else { "fell back" },
        w.name,
        if w.trains { "train" } else { "fall back" }
    ))
}

fn check_digest(digest: u64, reference: Option<u64>) -> Result<u64, String> {
    match reference {
        Some(r) if r != digest => Err(format!(
            "report digest {digest:016x} differs from the reference {r:016x}"
        )),
        _ => Ok(digest),
    }
}

fn check_counters(got: &layers::Counters, reference: &layers::Counters) -> Result<(), String> {
    if got == reference {
        return Ok(());
    }
    Err(format!(
        "counters {got:?} differ from the reference {reference:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = parse_args(&strings(&[
            "--workload",
            "trained-s-1t",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("trained-s-1t", 7, 2.5, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let ok = [
            "--workload",
            "trained-s",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ];
        for (i, bad) in [(1, "nope"), (3, "-1"), (5, "0"), (7, "2")] {
            let mut args = ok;
            args[i] = bad;
            assert!(parse_args(&strings(&args)).is_err(), "{args:?}");
        }
        assert!(parse_args(&strings(&ok[..6])).is_err(), "missing --trace");
        assert!(
            parse_args(&strings(&ok[..7])).is_err(),
            "flag without value"
        );
        assert!(parse_args(&strings(&ok)).is_ok());
    }

    #[test]
    fn result_line_is_one_json_object_with_every_digit() {
        let m = [
            Metric {
                name: "enrich_s",
                value: 0.123456789,
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: 2.0,
                unit: "s",
            },
        ];
        assert_eq!(
            result_json(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"enrich_s": {"value": 0.123456789, "unit": "s"}, "setup_s": {"value": 2, "unit": "s"}}}"#
        );
    }

    #[test]
    fn metrics_refuse_missing_or_non_finite_values() {
        let mut v = BTreeMap::from([("enrich_s".to_owned(), 1.0)]);
        assert!(metrics(&[("enrich_s", "s")], &v).is_ok());
        assert!(metrics(&[("setup_s", "s")], &v).is_err());
        v.insert("enrich_s".to_owned(), f64::NAN);
        assert!(metrics(&[("enrich_s", "s")], &v).is_err());
    }

    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for w in &workload::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&layers::PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            workload::WORKLOADS.len() + END_TO_END.len() + layers::PER_LAYER.len()
        );
    }
}
