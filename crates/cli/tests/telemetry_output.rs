//! Shape of the structured telemetry report emitted by
//! `votekg optimize --telemetry json|prom`.
//!
//! Lives in its own integration-test binary so the process-global
//! telemetry registry is not shared with the workflow tests.

use serde::Value;
use std::path::PathBuf;
use std::sync::Mutex;
use votekg_cli::{
    ask, build, gen_corpus, optimize_instrumented, vote, OptimizeStrategy, TelemetryMode,
};

/// The telemetry registry is process-global; serialize the tests that
/// enable/reset it.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "votekg-telemetry-test-{tag}-{}",
            std::process::id()
        ));
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

/// The acceptance shape: a split-and-merge run's JSON dump carries the
/// per-phase span durations, the per-solver iteration counters with
/// convergence reasons, and the violated-vote counts before/after.
#[test]
fn json_dump_has_per_phase_and_per_solver_shape() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_tmp, system, log) = setup("json");
    let (report, dump) = optimize_instrumented(
        &system,
        &log,
        OptimizeStrategy::SplitMerge { workers: 2 },
        0,
        TelemetryMode::Json,
        None,
        None,
        None,
    )
    .unwrap();
    assert!(!report.outcomes.is_empty());
    let dump = dump.expect("json mode returns a dump");
    let v: Value = serde_json::from_str(&dump).expect("telemetry dump is valid JSON");

    // Per-phase span durations for the split-merge round.
    let spans = v.get("spans").expect("spans section");
    for phase in [
        "votekg.cluster.round",
        "votekg.cluster.footprint",
        "votekg.cluster.similarity",
        "votekg.cluster.ap",
        "votekg.cluster.solve",
        "votekg.cluster.merge",
    ] {
        let stats = spans
            .get(phase)
            .unwrap_or_else(|| panic!("missing span {phase}: {dump}"));
        assert!(
            stats.get("count").unwrap().as_u64().unwrap() >= 1,
            "{phase}"
        );
        for field in ["total_ns", "mean_ns", "max_ns"] {
            assert!(stats.get(field).is_some(), "span {phase} lacks {field}");
        }
    }

    // Per-solver iteration counts and convergence reasons.
    let counters = v.get("counters").expect("counters section");
    let entries = counters.as_object().expect("counters is an object");
    assert!(counters.get("votekg.sgp.solves").is_some(), "{dump}");
    assert!(
        counters
            .get("votekg.sgp.inner_iterations")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0,
        "{dump}"
    );
    assert!(
        entries
            .iter()
            .any(|(k, _)| k.starts_with("votekg.sgp.inner_steps{optimizer=")),
        "no per-optimizer iteration counter: {dump}"
    );
    assert!(
        entries
            .iter()
            .any(|(k, _)| k.starts_with("votekg.sgp.converged{reason=")),
        "no convergence-reason counter: {dump}"
    );

    // Violated-vote counts before/after from the per-cluster multi solves.
    let violated = |which: &str| {
        entries
            .iter()
            .filter(|(k, _)| k.starts_with(&format!("votekg.votes.violated_{which}{{")))
            .map(|(_, v)| v.as_u64().unwrap())
            .sum::<u64>()
    };
    let before = violated("before");
    let after = violated("after");
    assert!(before >= 1, "negative votes start violated: {dump}");
    assert!(after <= before, "optimization should not add violations");
    assert_eq!(
        before,
        report.violated_votes_before() as u64,
        "counter disagrees with the report"
    );

    // Per-vote recent spans carry the solve outcome fields.
    let recent = v.get("recent_spans").expect("recent_spans section");
    let multi = recent
        .as_array()
        .unwrap()
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("votekg.votes.multi"))
        .expect("multi solve span recorded");
    let fields = multi.get("fields").unwrap();
    for f in ["votes", "violated_before", "violated_after", "discarded"] {
        assert!(
            fields.get(f).is_some(),
            "multi span lacks field {f}: {dump}"
        );
    }
}

#[test]
fn prometheus_dump_renders_exposition_format() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_tmp, system, log) = setup("prom");
    let (_, dump) = optimize_instrumented(
        &system,
        &log,
        OptimizeStrategy::Multi,
        0,
        TelemetryMode::Prom,
        None,
        None,
        None,
    )
    .unwrap();
    let dump = dump.expect("prom mode returns a dump");
    assert!(
        dump.contains("# TYPE votekg_sgp_solves_total counter"),
        "{dump}"
    );
    assert!(
        dump.contains("votekg_sgp_inner_steps_total{optimizer="),
        "{dump}"
    );
    assert!(
        dump.contains("_bucket{"),
        "histograms render buckets: {}",
        &dump[..dump.len().min(400)]
    );
}

#[test]
fn off_mode_returns_no_dump() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_tmp, system, log) = setup("off");
    let (report, dump) = optimize_instrumented(
        &system,
        &log,
        OptimizeStrategy::Multi,
        0,
        TelemetryMode::Off,
        None,
        None,
        None,
    )
    .unwrap();
    assert!(dump.is_none());
    assert!(!report.outcomes.is_empty());
}
