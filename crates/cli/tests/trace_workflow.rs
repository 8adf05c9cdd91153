//! End-to-end flight-recorder workflow: record a trace of an optimize
//! run, round-trip it through export, and gate the timeline report's
//! phase coverage — the same pipeline `scripts/check.sh` smoke-tests
//! through the binary.
//!
//! Lives in its own integration-test binary so the process-global
//! recorder is not shared with the other CLI test binaries.

use std::path::PathBuf;
use std::sync::Mutex;
use votekg_cli::{
    ask, build, gen_corpus, optimize_instrumented, parse_chrome_trace, trace_export, trace_record,
    trace_report, vote, CliError, OptimizeStrategy, TelemetryMode,
};

/// The recorder is process-global; serialize the tests that use it.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("votekg-trace-wf-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// gen-corpus → build → a few negative votes, ready to optimize.
fn setup(tag: &str) -> (TempDir, PathBuf, PathBuf) {
    let tmp = TempDir::new(tag);
    let corpus = tmp.path("corpus.json");
    let system = tmp.path("system.json");
    let log = tmp.path("votes.jsonl");
    gen_corpus(80, 7, &corpus).unwrap();
    build(&corpus, &system, 2, 2).unwrap();
    for (q, pick) in [
        ("refund order rules", 2usize),
        ("cart checkout quantity", 1),
        ("delivery tracking package", 1),
    ] {
        let ranked = ask(&system, q, 10).unwrap().ranked;
        if ranked.len() > pick && ranked[pick].1 > 0.0 {
            let target = ranked[pick].0.clone();
            vote(&system, &log, q, &target, 10).unwrap();
        }
    }
    (tmp, system, log)
}

#[test]
fn record_export_report_round_trip() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (tmp, system, log) = setup("roundtrip");
    let out = tmp.path("run.trace.json");
    let before = std::fs::read_to_string(&system).unwrap();

    let (report, parsed) = trace_record(&system, &log, OptimizeStrategy::Multi, 0, &out).unwrap();
    assert!(!report.outcomes.is_empty());
    assert!(
        parsed.spans.len() > 1,
        "expected phase spans, got {parsed:?}"
    );
    // `trace record` is a pure observation: the bundle is untouched.
    assert_eq!(before, std::fs::read_to_string(&system).unwrap());

    // The round span and at least one inner phase must be present.
    let names: Vec<&str> = parsed.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"votekg.votes.multi"), "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("votekg.votes.solve.")),
        "{names:?}"
    );

    // Export normalizes; the normalized file parses to the same spans.
    let (exported, normalized) = trace_export(&out).unwrap();
    assert_eq!(exported.spans, parsed.spans);
    let norm_path = tmp.path("normalized.trace.json");
    std::fs::write(&norm_path, &normalized).unwrap();
    let reparsed = parse_chrome_trace(&normalized).unwrap();
    assert_eq!(reparsed.spans, parsed.spans);

    // The report finds the round and attributes >=95% of its wall-clock
    // to phases (the ISSUE acceptance bound).
    let (timeline, rendered) = trace_report(&out, Some(0.95)).unwrap();
    assert!(!timeline.rounds.is_empty());
    assert!(rendered.contains("votekg.votes.multi"), "{rendered}");
    // An impossible floor trips the gate.
    let err = trace_report(&out, Some(1.01)).unwrap_err();
    assert!(matches!(err, CliError::Trace(_)), "{err}");
}

#[test]
fn optimize_trace_flag_writes_loadable_trace() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (tmp, system, log) = setup("optflag");
    let out = tmp.path("opt.trace.json");
    let (report, dump) = optimize_instrumented(
        &system,
        &log,
        OptimizeStrategy::SplitMerge { workers: 2 },
        0,
        TelemetryMode::Off,
        None,
        Some(&out),
        None,
    )
    .unwrap();
    assert!(!report.outcomes.is_empty());
    assert!(dump.is_none(), "--telemetry off must still produce no dump");
    let parsed = parse_chrome_trace(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let names: Vec<&str> = parsed.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"votekg.cluster.round"), "{names:?}");
    assert!(names.contains(&"votekg.cluster.solve_all"), "{names:?}");
    // The CLI runs the framework's round, which wraps the cluster round.
    // The cluster round's own self time counts as unattributed, so the
    // 95% gate still requires ap/solve/merge to account for it.
    let (timeline, _) = trace_report(&out, None).unwrap();
    let round = timeline
        .rounds
        .iter()
        .find(|r| r.name == "votekg.framework.round")
        .expect("framework round in report");
    assert!(
        round
            .phases
            .iter()
            .any(|p| p.name == "votekg.cluster.round"),
        "{:?}",
        round.phases
    );
    assert!(
        round.coverage >= 0.95,
        "framework round coverage {:.3} below 95%",
        round.coverage
    );
}

#[test]
fn bad_trace_files_are_rejected() {
    let tmp = TempDir::new("bad");
    let p = tmp.path("x.trace.json");
    std::fs::write(&p, "{\"traceEvents\": []}").unwrap();
    let err = trace_export(&p).unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");
    let missing = tmp.path("nope.trace.json");
    assert!(matches!(
        trace_report(&missing, None),
        Err(CliError::Io { .. })
    ));
}
