//! End-to-end CLI workflow: gen-corpus → build → ask → vote → optimize →
//! ask again, all against real files in a temp directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use votekg_cli::{
    ask, build, gen_corpus, optimize, optimize_instrumented, stats, vote, CliError,
    OptimizeStrategy, SystemBundle, TelemetryMode,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("votekg-cli-test-{tag}-{}", std::process::id()));
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

fn setup(tag: &str) -> (TempDir, PathBuf, PathBuf) {
    let tmp = TempDir::new(tag);
    let corpus = tmp.path("corpus.json");
    let system = tmp.path("system.json");
    let n = gen_corpus(80, 7, &corpus).unwrap();
    assert_eq!(n, 80);
    build(&corpus, &system, 2, 2).unwrap();
    (tmp, corpus, system)
}

#[test]
fn full_workflow_improves_the_voted_question() {
    let (tmp, _corpus, system) = setup("workflow");
    let log = tmp.path("votes.jsonl");
    let question = "how to refund an order after the deadline";

    // Initial ranking.
    let before = ask(&system, question, 10).unwrap();
    assert!(!before.ranked.is_empty());
    assert!(before.ranked[0].1 > 0.0, "question should match something");

    // Vote for the 3rd-ranked document (a negative vote).
    let target = before.ranked[2].0.clone();
    let (v, negative) = vote(&system, &log, question, &target, 10).unwrap();
    assert!(negative);
    assert_eq!(v.best_rank(), 3);
    assert!(log.exists());

    // Optimize and re-ask: the voted document must now rank first.
    let report = optimize(&system, &log, OptimizeStrategy::Multi, 0).unwrap();
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.outcomes[0].rank_after, 1, "{report:?}");

    let after = ask(&system, question, 10).unwrap();
    assert_eq!(after.ranked[0].0, target, "voted doc should rank first");
}

#[test]
fn multiple_votes_accumulate_in_the_log() {
    let (tmp, _corpus, system) = setup("multilog");
    let log = tmp.path("votes.jsonl");
    for (q, pick) in [
        ("refund order rules", 1usize),
        ("cart checkout quantity", 2),
        ("delivery tracking package", 1),
    ] {
        let ranked = ask(&system, q, 10).unwrap().ranked;
        if ranked.len() > pick && ranked[pick].1 > 0.0 {
            let target = ranked[pick].0.clone();
            vote(&system, &log, q, &target, 10).unwrap();
        }
    }
    let report = optimize(
        &system,
        &log,
        OptimizeStrategy::SplitMerge { workers: 2 },
        0,
    )
    .unwrap();
    assert!(!report.outcomes.is_empty());
    assert!(report.omega() >= 0, "{report:?}");
}

#[test]
fn incremental_optimize_satisfies_the_voted_question() {
    let (tmp, _corpus, system) = setup("incremental");
    let log = tmp.path("votes.jsonl");
    let mut voted = Vec::new();
    for (q, pick) in [
        ("refund order rules", 2usize),
        ("cart checkout quantity", 2),
        ("delivery tracking package", 1),
    ] {
        let ranked = ask(&system, q, 10).unwrap().ranked;
        if ranked.len() > pick && ranked[pick].1 > 0.0 {
            let target = ranked[pick].0.clone();
            vote(&system, &log, q, &target, 10).unwrap();
            voted.push((q, target));
        }
    }
    assert!(!voted.is_empty());
    // Batches of one vote: every vote is its own solve + publish round.
    let report = optimize(&system, &log, OptimizeStrategy::Multi, 1).unwrap();
    assert_eq!(report.outcomes.len(), voted.len(), "{report:?}");
    // The last-voted question's pick must now rank first in the
    // persisted bundle (earlier picks may be displaced by later batches).
    let (q, target) = voted.last().unwrap();
    let after = ask(&system, q, 10).unwrap();
    assert_eq!(&after.ranked[0].0, target, "voted doc should rank first");
}

#[test]
fn solve_timeout_is_plumbed_to_the_solver() {
    // `--solve-timeout-ms 0` (the degenerate budget) must reach the
    // solver: every solve stops at its first deadline check and is
    // classified TimedOut, while the bundle stays intact.
    let (tmp, _corpus, system) = setup("timeout");
    let log = tmp.path("votes.jsonl");
    let ranked = ask(&system, "refund order rules", 10).unwrap().ranked;
    assert!(ranked.len() > 2 && ranked[2].1 > 0.0);
    vote(
        &system,
        &log,
        "refund order rules",
        &ranked[2].0.clone(),
        10,
    )
    .unwrap();

    let (report, _) = votekg_cli::optimize_instrumented(
        &system,
        &log,
        OptimizeStrategy::Multi,
        0,
        votekg_cli::TelemetryMode::Off,
        Some(std::time::Duration::ZERO),
        None,
        None,
    )
    .unwrap();
    assert_eq!(report.timed_out_solves(), 1, "{report:?}");
    // The bundle file is still loadable after the truncated round.
    ask(&system, "refund order rules", 5).unwrap();
}

#[test]
fn durable_optimize_writes_a_recoverable_wal() {
    let (tmp, _corpus, system) = setup("durable");
    let log = tmp.path("votes.jsonl");
    let wal_dir = tmp.path("wal");
    let question = "refund order rules";
    let ranked = ask(&system, question, 10).unwrap().ranked;
    assert!(ranked.len() > 2 && ranked[2].1 > 0.0);
    let target = ranked[2].0.clone();
    vote(&system, &log, question, &target, 10).unwrap();

    // Keep a copy of the pre-optimize bundle: the "crashed before
    // persisting" scenario recovers it from the WAL alone.
    let stale = tmp.path("system-stale.json");
    std::fs::copy(&system, &stale).unwrap();

    let (report, _) = votekg_cli::optimize_instrumented(
        &system,
        &log,
        OptimizeStrategy::Multi,
        1,
        votekg_cli::TelemetryMode::Off,
        None,
        None,
        Some(&wal_dir),
    )
    .unwrap();
    assert_eq!(report.outcomes.len(), 1);
    assert!(wal_dir.join("wal.log").exists());
    let after = ask(&system, question, 10).unwrap();
    assert_eq!(after.ranked[0].0, target);

    // Recover the stale bundle from the WAL: the ranking must match the
    // persisted optimized bundle exactly.
    let recovered = tmp.path("system-recovered.json");
    let outcome = votekg_cli::recover(&stale, &wal_dir, Some(&recovered)).unwrap();
    assert!(outcome.report.torn_tail.is_none());
    let from_wal = ask(&recovered, question, 10).unwrap();
    assert_eq!(from_wal.ranked, after.ranked);

    // Recovery is idempotent: a second run lands on the same state.
    let again = votekg_cli::recover(&recovered, &wal_dir, Some(&recovered)).unwrap();
    assert_eq!(
        again.report.recovered_version,
        outcome.report.recovered_version
    );
    assert_eq!(again.report.weights_crc, outcome.report.weights_crc);
}

/// Votes on three questions; returns the log path.
fn vote_three(tmp: &TempDir, system: &Path) -> PathBuf {
    let log = tmp.path("votes.jsonl");
    for (q, pick) in [
        ("refund order rules", 2usize),
        ("cart checkout quantity", 2),
        ("delivery tracking package", 1),
    ] {
        let ranked = ask(system, q, 10).unwrap().ranked;
        if ranked.len() > pick && ranked[pick].1 > 0.0 {
            vote(system, &log, q, &ranked[pick].0.clone(), 10).unwrap();
        }
    }
    log
}

fn weight_bits(system: &Path) -> Vec<u64> {
    let bundle = SystemBundle::load(system).unwrap();
    bundle.graph.edges.iter().map(|e| e.2.to_bits()).collect()
}

#[test]
fn plain_batched_and_durable_optimize_persist_identical_weights() {
    let (tmp, _corpus, system) = setup("three-modes");
    let log = vote_three(&tmp, &system);
    let votes = std::fs::read_to_string(&log).unwrap().lines().count() - 1;
    assert!(votes >= 2, "expected several votes, got {votes}");
    let mut persisted = Vec::new();
    for (mode, batch, wal) in [
        ("plain", 0, None),
        ("batch", votes + 1, None),
        ("wal", 0, Some(tmp.path("wal"))),
    ] {
        let copy = tmp.path(&format!("system-{mode}.json"));
        std::fs::copy(&system, &copy).unwrap();
        let (report, _) = optimize_instrumented(
            &copy,
            &log,
            OptimizeStrategy::Multi,
            batch,
            TelemetryMode::Off,
            None,
            None,
            wal.as_deref(),
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), votes, "{mode}: {report:?}");
        persisted.push((mode, weight_bits(&copy)));
    }
    assert_ne!(
        persisted[0].1,
        weight_bits(&system),
        "the votes moved weights"
    );
    for (mode, bits) in &persisted[1..] {
        assert!(*bits == persisted[0].1, "{mode} weights differ from plain");
    }
}

#[test]
fn unknown_flags_are_rejected_before_any_work() {
    let (tmp, _corpus, system) = setup("unknown-flags");
    let log = vote_three(&tmp, &system);
    let before = std::fs::read_to_string(&system).unwrap();
    for (flag, value) in [("--stratgy", "single"), ("--serve-workers", "2")] {
        let out = Command::new(env!("CARGO_BIN_EXE_votekg"))
            .arg("optimize")
            .arg("--system")
            .arg(&system)
            .arg("--log")
            .arg(&log)
            .args([flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted: {stderr}");
        assert!(
            stderr.contains(flag),
            "error does not name {flag}: {stderr}"
        );
        assert_eq!(std::fs::read_to_string(&system).unwrap(), before);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_votekg"))
        .args(["stats", "--system"])
        .arg(&system)
        .args(["--verbose", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--verbose"));
}

#[test]
fn vote_for_unknown_document_fails_cleanly() {
    let (tmp, _corpus, system) = setup("unknown");
    let log = tmp.path("votes.jsonl");
    let err = vote(&system, &log, "refund order", "no-such-doc", 10).unwrap_err();
    assert!(matches!(err, CliError::NotFound(_)), "{err}");
    assert!(!log.exists(), "failed vote must not write the log");
}

#[test]
fn vote_for_document_outside_topk_fails_cleanly() {
    let (tmp, _corpus, system) = setup("outside");
    let log = tmp.path("votes.jsonl");
    let ranked = ask(&system, "refund order", 3).unwrap().ranked;
    // Find a doc not in the top-3.
    let all = ask(&system, "refund order", 100).unwrap().ranked;
    let outside = all
        .iter()
        .map(|(d, _)| d)
        .find(|d| !ranked.iter().any(|(r, _)| r == *d))
        .expect("corpus has more than 3 docs");
    let err = vote(&system, &log, "refund order", outside, 3).unwrap_err();
    assert!(matches!(err, CliError::NotFound(_)), "{err}");
}

#[test]
fn optimize_without_votes_fails_cleanly() {
    let (tmp, _corpus, system) = setup("novotes");
    let log = tmp.path("votes.jsonl");
    let err = optimize(&system, &log, OptimizeStrategy::Multi, 0).unwrap_err();
    assert!(matches!(err, CliError::Io { .. }), "{err}");
}

#[test]
fn stats_reports_counts() {
    let (_tmp, _corpus, system) = setup("stats");
    let text = stats(&system).unwrap();
    assert!(text.contains("documents: 80"), "{text}");
    assert!(text.contains("vocabulary:"), "{text}");
    assert!(text.contains("L = 2"), "{text}");
}

#[test]
fn build_rejects_garbage_corpus() {
    let tmp = TempDir::new("garbage");
    let corpus = tmp.path("bad.json");
    std::fs::write(&corpus, "not json at all").unwrap();
    let err = build(&corpus, &tmp.path("out.json"), 2, 2).unwrap_err();
    assert!(matches!(err, CliError::Parse { .. }), "{err}");
}

#[test]
fn ask_does_not_mutate_the_bundle() {
    let (_tmp, _corpus, system) = setup("readonly");
    let before = std::fs::read_to_string(&system).unwrap();
    ask(&system, "refund order", 5).unwrap();
    let after = std::fs::read_to_string(&system).unwrap();
    assert_eq!(before, after);
}

#[test]
fn explain_lists_relation_chains() {
    let (_tmp, _corpus, system) = setup("explain");
    let ranked = votekg_cli::ask(&system, "refund order rules", 3)
        .unwrap()
        .ranked;
    assert!(ranked[0].1 > 0.0);
    let lines = votekg_cli::explain(&system, "refund order rules", &ranked[0].0, 4).unwrap();
    assert!(!lines.is_empty() && lines.len() <= 4);
    // Every explanation line carries a percentage and an arrow chain.
    for l in &lines {
        assert!(l.contains('%'), "{l}");
        assert!(l.contains("->"), "{l}");
    }
}

#[test]
fn explain_unreachable_doc_fails_cleanly() {
    let (_tmp, _corpus, system) = setup("explain-miss");
    let err = votekg_cli::explain(&system, "zebra talk", "doc-0", 3).unwrap_err();
    assert!(matches!(err, CliError::NotFound(_)), "{err}");
}
