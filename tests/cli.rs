//! Integration: drive the `boe` CLI binary end to end through its real
//! argv interface (compiled binary via `CARGO_BIN_EXE_boe`).

use std::io::Write;
use std::process::Command;

fn boe(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_boe"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("boe-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const CORPUS: &str = "Corneal injuries damage the epithelium stroma tissue. \
Corneal injuries resemble corneal diseases of the epithelium.\n\
\n\
Corneal diseases affect the epithelium stroma tissue. \
Corneal injuries heal in the epithelium stroma tissue.\n\
\n\
Eye diseases involve the retina nerve. Corneal diseases worsen.\n";

const ONTOLOGY: &str = "! demo en\nC 0 eye diseases\nC 1 corneal diseases\nL 1 0\n";

#[test]
fn extract_lists_ranked_terms() {
    let corpus = write_temp("c1.txt", CORPUS);
    let out = boe(&["extract", corpus.to_str().expect("utf8"), "--top", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("corneal injuries"), "{stdout}");
    assert!(stdout.contains("top 5 by lidf-value"), "{stdout}");
}

#[test]
fn link_proposes_ontology_positions() {
    let corpus = write_temp("c2.txt", CORPUS);
    let onto = write_temp("o2.boe", ONTOLOGY);
    let out = boe(&[
        "link",
        corpus.to_str().expect("utf8"),
        onto.to_str().expect("utf8"),
        "corneal injuries",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("corneal diseases"), "{stdout}");
    assert!(stdout.contains("cosine"), "{stdout}");
}

#[test]
fn pipeline_prints_a_report() {
    let corpus = write_temp("c3.txt", CORPUS);
    let onto = write_temp("o3.boe", ONTOLOGY);
    let out = boe(&[
        "pipeline",
        corpus.to_str().expect("utf8"),
        onto.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("enrichment report"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let out = boe(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    // `boe` loads the corpus in the ontology's language and holds no
    // cancel token, so its usage text names neither exit code 4
    // (language mismatch) nor 9 (cancelled).
    let codes = stderr.split("exit codes:").nth(1).expect("exit code list");
    for gone in ["4 ", "9 ", "language mismatch", "cancelled"] {
        assert!(!codes.contains(gone), "usage names {gone:?}: {stderr}");
    }

    let out = boe(&[]);
    assert!(!out.status.success());

    let out = boe(&["extract", "/nonexistent/file.txt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn unknown_flag_is_rejected_listing_valid_flags() {
    let corpus = write_temp("c5.txt", CORPUS);
    let out = boe(&["extract", corpus.to_str().expect("utf8"), "--topp", "5"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --topp"), "{stderr}");
    assert!(stderr.contains("--top"), "must list valid flags: {stderr}");
    assert!(stderr.contains("--measure"), "{stderr}");
}

#[test]
fn exit_codes_distinguish_error_classes() {
    // Usage error: 2.
    assert_eq!(boe(&["frobnicate"]).status.code(), Some(2));
    // I/O error: 1.
    let out = boe(&["extract", "/nonexistent/file.txt"]);
    assert_eq!(out.status.code(), Some(1));
    // Invalid input (no documents): 3.
    let empty = write_temp("empty.txt", "\n\n\n");
    let out = boe(&["extract", empty.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(3));
    // Unknown term: 5.
    let corpus = write_temp("c6.txt", CORPUS);
    let out = boe(&["senses", corpus.to_str().expect("utf8"), "zyzzyva"]);
    assert_eq!(out.status.code(), Some(5));
    assert!(String::from_utf8_lossy(&out.stderr).contains("zyzzyva"));
}

#[test]
fn strict_mode_promotes_warnings_to_errors() {
    // A single-document corpus triggers a validation warning; --strict
    // turns the degraded run into exit code 7.
    let one_doc = "Corneal injuries damage the epithelium stroma tissue. \
                   Corneal diseases affect the epithelium stroma tissue.\n";
    let corpus = write_temp("c7.txt", one_doc);
    let onto = write_temp("o7.boe", ONTOLOGY);
    let c = corpus.to_str().expect("utf8");
    let o = onto.to_str().expect("utf8");

    let lenient = boe(&["pipeline", c, o]);
    assert!(lenient.status.success(), "lenient run must pass");
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(
        stderr.contains("warning"),
        "warnings go to stderr: {stderr}"
    );

    let strict = boe(&["pipeline", c, o, "--strict"]);
    assert_eq!(strict.status.code(), Some(7), "degraded under --strict");
    assert!(String::from_utf8_lossy(&strict.stderr).contains("strict"));
}

#[test]
fn zero_deadline_exits_8_after_printing_the_truncated_report() {
    let corpus = write_temp("c8.txt", CORPUS);
    let onto = write_temp("o8.boe", ONTOLOGY);
    let out = boe(&[
        "pipeline",
        corpus.to_str().expect("utf8"),
        onto.to_str().expect("utf8"),
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(8), "deadline trips exit 8");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("truncated stages"),
        "the truncated report is still printed: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline exceeded"), "{stderr}");
}

#[test]
fn zero_memory_budget_exits_10() {
    // The binary installs the counting allocator, so any allocation
    // past the governor's baseline exhausts a 0 MiB budget.
    let corpus = write_temp("c9.txt", CORPUS);
    let onto = write_temp("o9.boe", ONTOLOGY);
    let out = boe(&[
        "pipeline",
        corpus.to_str().expect("utf8"),
        onto.to_str().expect("utf8"),
        "--max-alloc-mb",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(10), "alloc budget trips exit 10");
    assert!(String::from_utf8_lossy(&out.stderr).contains("memory budget"));
}

#[test]
fn bad_budget_flag_value_is_a_usage_error() {
    let corpus = write_temp("c10.txt", CORPUS);
    let onto = write_temp("o10.boe", ONTOLOGY);
    let out = boe(&[
        "pipeline",
        corpus.to_str().expect("utf8"),
        onto.to_str().expect("utf8"),
        "--deadline-ms",
        "soon",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline-ms"));
}

#[test]
fn unknown_measure_is_rejected() {
    let corpus = write_temp("c4.txt", CORPUS);
    let out = boe(&[
        "extract",
        corpus.to_str().expect("utf8"),
        "--measure",
        "made-up",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown measure"));
}

#[test]
fn unparsable_ontology_exits_3() {
    let corpus = write_temp("c11.txt", CORPUS);
    let onto = write_temp("o11.boe", "this is not an ontology\n");
    let out = boe(&[
        "pipeline",
        corpus.to_str().expect("utf8"),
        onto.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(3), "invalid input exits 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "{stderr}");
}

#[test]
fn link_with_a_term_absent_from_the_corpus_exits_5() {
    let corpus = write_temp("c12.txt", CORPUS);
    let onto = write_temp("o12.boe", ONTOLOGY);
    let out = boe(&[
        "link",
        corpus.to_str().expect("utf8"),
        onto.to_str().expect("utf8"),
        "zyzzyva keratitis",
    ]);
    assert_eq!(out.status.code(), Some(5), "unknown term exits 5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("zyzzyva keratitis"), "{stderr}");
}
