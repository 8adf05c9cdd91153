//! Concurrency stress suite: reader threads racing a live incremental
//! optimization must only ever observe internally-consistent rankings.
//!
//! The contract under test is snapshot isolation: every ranking a
//! [`votekg::ServeHandle`] returns is byte-identical to an *uncached*
//! [`kg_sim::rank_answers`] evaluation of the exact [`GraphSnapshot`] it
//! was served from, no matter how the optimizer interleaves. Epochs are
//! monotone per reader, and once the writer quiesces every handle serves
//! the final graph exactly.
//!
//! Budget knobs (all optional):
//!
//! * `VOTEKG_STRESS_MS` — wall-clock budget for the optimization loop
//!   (default 400).
//! * `VOTEKG_STRESS_READERS` — reader thread count (default 4).

use kg_sim::{rank_answers, BatchQuery};
use kg_votes::Vote;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use votekg::{Framework, FrameworkConfig, GraphSnapshot, Strategy};

mod common {
    use kg_datasets::{simulate_user_study, UserStudy, UserStudyConfig};

    /// A small-but-nontrivial study: enough queries for cache churn and
    /// enough edges for solves to take a visible amount of time.
    pub fn study() -> UserStudy {
        simulate_user_study(&UserStudyConfig {
            entities: 90,
            edges: 900,
            n_docs: 60,
            n_votes: 12,
            n_test: 6,
            top_k: 8,
            seed: 7,
            ..Default::default()
        })
    }

    pub fn env_num(name: &str, default: u64) -> u64 {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// N readers hammer cloned handles while the writer loops incremental
/// optimization rounds for the whole budget. Every observed ranking is
/// verified against an uncached evaluation of its own snapshot after the
/// fact; epochs must never move backwards within one reader.
#[test]
fn readers_racing_optimization_observe_only_snapshot_consistent_rankings() {
    let study = common::study();
    let budget = Duration::from_millis(common::env_num("VOTEKG_STRESS_MS", 400));
    let readers = common::env_num("VOTEKG_STRESS_READERS", 4).max(1) as usize;
    let k = 8usize;

    let config = FrameworkConfig::default();
    let sim = config.sim();
    let mut fw = Framework::new(study.deployed.clone(), config);
    let handle = fw.handle();
    let questions: Vec<(kg_graph::NodeId, Vec<kg_graph::NodeId>)> = study
        .votes
        .votes
        .iter()
        .map(|v| (v.query, v.answers.clone()))
        .collect();

    let stop = AtomicBool::new(false);
    // (epoch, query) -> (snapshot, answers index, ranking): dedup keeps
    // memory bounded while still covering every distinct observation.
    type Observed =
        HashMap<(u64, kg_graph::NodeId), (GraphSnapshot, usize, Vec<kg_sim::RankedAnswer>)>;
    let mut per_reader: Vec<Observed> = Vec::new();

    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..readers {
            let handle = handle.clone();
            let stop = &stop;
            let questions = &questions;
            joins.push(s.spawn(move || {
                let mut seen: Observed = HashMap::new();
                let mut last_epoch = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let qi = i % questions.len();
                    let (q, answers) = &questions[qi];
                    i += 1;
                    let (snap, ranking) = handle.rank_snapshot(*q, answers, k);
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards within one reader: {} -> {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    assert!(!ranking.is_empty());
                    seen.entry((snap.epoch(), *q))
                        .or_insert((snap, qi, ranking));
                }
                seen
            }));
        }

        // Writer: replay the study's votes in incremental batches over
        // and over until the budget runs out. Each round republishes, so
        // readers see a stream of epochs.
        let started = Instant::now();
        while started.elapsed() < budget {
            for v in &study.votes.votes {
                fw.record_vote(Vote::new(v.query, v.answers.clone(), v.best));
            }
            fw.optimize_incremental(Strategy::MultiVote, 3);
        }
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            per_reader.push(j.join().expect("reader thread"));
        }
    });

    // Post-hoc verification: every distinct (epoch, query) observation
    // must match an uncached evaluation of the snapshot it came from.
    let mut verified = 0usize;
    for seen in &per_reader {
        for ((epoch, q), (snap, qi, ranking)) in seen {
            assert_eq!(snap.epoch(), *epoch);
            let expect = rank_answers(snap, *q, &questions[*qi].1, &sim, k);
            assert_eq!(
                ranking, &expect,
                "served ranking diverged from its own snapshot at epoch {epoch}"
            );
            verified += 1;
        }
    }
    assert!(verified > 0, "stress run observed no rankings");

    // Post-quiescence: handles converge on the final graph exactly.
    let final_snap = fw.publish();
    assert_eq!(handle.epoch(), fw.graph().version());
    for (q, answers) in &questions {
        assert_eq!(
            handle.rank(*q, answers, k),
            rank_answers(&final_snap, *q, answers, &sim, k),
            "post-quiescence ranking mismatch"
        );
    }
}

/// Ranking is a pure function of (graph, query, answers, k): worker
/// count and cache temperature must never change a single byte of
/// output. Scores are compared via `f64::to_bits` for exactness.
#[test]
fn rankings_are_independent_of_worker_count_and_cache_state() {
    let study = common::study();
    let config = FrameworkConfig::default();
    let sim = config.sim();
    let questions: Vec<(kg_graph::NodeId, Vec<kg_graph::NodeId>)> = study
        .votes
        .votes
        .iter()
        .map(|v| (v.query, v.answers.clone()))
        .collect();
    let requests: Vec<BatchQuery<'_>> = questions
        .iter()
        .map(|(q, answers)| BatchQuery {
            query: *q,
            answers,
            k: 8,
        })
        .collect();

    let bits = |rankings: &[Vec<kg_sim::RankedAnswer>]| -> Vec<Vec<(u32, u64, usize)>> {
        rankings
            .iter()
            .map(|r| {
                r.iter()
                    .map(|a| (a.node.0, a.score.to_bits(), a.rank))
                    .collect()
            })
            .collect()
    };

    // Direct evaluation: rank_many across worker counts.
    let reference = bits(&kg_sim::rank_many(&study.deployed, &requests, &sim, 1));
    for workers in [2usize, 8] {
        assert_eq!(
            bits(&kg_sim::rank_many(
                &study.deployed,
                &requests,
                &sim,
                workers
            )),
            reference,
            "rank_many diverged at {workers} workers"
        );
    }

    // Served evaluation: cold cache, then warm cache, across worker
    // counts — all byte-identical to the reference.
    for workers in [1usize, 2, 8] {
        let fw = Framework::new(study.deployed.clone(), FrameworkConfig::default())
            .with_serve_workers(workers);
        let cold = bits(&fw.rank_batch(&requests));
        let warm = bits(&fw.rank_batch(&requests));
        assert_eq!(cold, reference, "cold serve diverged ({workers} workers)");
        assert_eq!(warm, reference, "warm serve diverged ({workers} workers)");
        let stats = fw.serve_stats();
        assert!(stats.hits > 0, "second batch should hit the cache");
    }
}

/// An optimization between two identical batches must leave the *new*
/// rankings equal to direct evaluation of the *new* graph — the cache
/// can never serve pre-optimization bytes for an affected query.
#[test]
fn cache_never_serves_stale_bytes_across_an_optimization() {
    let study = common::study();
    let config = FrameworkConfig::default();
    let sim = config.sim();
    let mut fw = Framework::new(study.deployed.clone(), config);
    let questions: Vec<(kg_graph::NodeId, Vec<kg_graph::NodeId>)> = study
        .votes
        .votes
        .iter()
        .map(|v| (v.query, v.answers.clone()))
        .collect();

    // Warm the cache.
    for (q, answers) in &questions {
        fw.rank(*q, answers, 8);
    }
    for v in &study.votes.votes {
        fw.record_vote(Vote::new(v.query, v.answers.clone(), v.best));
    }
    fw.optimize(Strategy::MultiVote);

    for (q, answers) in &questions {
        assert_eq!(
            fw.rank(*q, answers, 8),
            rank_answers(fw.graph(), *q, answers, &sim, 8),
            "stale ranking served after optimization"
        );
    }
}
