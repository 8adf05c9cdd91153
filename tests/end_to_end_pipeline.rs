//! Cross-crate integration: the full pipeline from a simulated user study
//! (kg-datasets) through vote optimization (kg-votes) to ranking metrics
//! (kg-metrics), plus the `votekg::Framework` facade.

use kg_datasets::{simulate_user_study, UserStudyConfig};
use kg_metrics::{hits_at_k, mean_rank, mrr};
use kg_votes::{solve_multi_votes, solve_single_votes, MultiVoteOptions, SingleVoteOptions};
use votekg::{Framework, FrameworkConfig, Strategy};

fn study_cfg() -> UserStudyConfig {
    UserStudyConfig {
        entities: 120,
        edges: 1_200,
        n_docs: 80,
        n_votes: 15,
        n_test: 15,
        top_k: 10,
        ..Default::default()
    }
}

#[test]
fn multi_vote_improves_held_out_ranking() {
    let study = simulate_user_study(&study_cfg());
    let sim = study_cfg().sim;
    let before = study.test_ranks(&study.deployed, &sim);

    let mut g = study.deployed.clone();
    let report = solve_multi_votes(&mut g, &study.votes, &MultiVoteOptions::default());
    let after = study.test_ranks(&g, &sim);

    // The votes themselves must be better satisfied…
    assert!(report.omega() > 0, "votes not improved: {report:?}");
    // …and the improvement must transfer to held-out similar questions.
    assert!(
        mean_rank(&after) < mean_rank(&before),
        "held-out mean rank {} -> {}",
        mean_rank(&before),
        mean_rank(&after)
    );
    assert!(mrr(&after) > mrr(&before));
}

#[test]
fn multi_vote_beats_single_vote_on_votes() {
    let study = simulate_user_study(&study_cfg());

    let mut g_multi = study.deployed.clone();
    let multi = solve_multi_votes(&mut g_multi, &study.votes, &MultiVoteOptions::default());

    let mut g_single = study.deployed.clone();
    let single = solve_single_votes(&mut g_single, &study.votes, &SingleVoteOptions::default());

    assert!(
        multi.omega() >= single.omega(),
        "multi {} vs single {}",
        multi.omega(),
        single.omega()
    );
}

#[test]
fn hits_at_k_improves_for_small_k() {
    let study = simulate_user_study(&study_cfg());
    let sim = study_cfg().sim;
    let before = study.test_ranks(&study.deployed, &sim);
    let mut g = study.deployed.clone();
    solve_multi_votes(&mut g, &study.votes, &MultiVoteOptions::default());
    let after = study.test_ranks(&g, &sim);
    assert!(
        hits_at_k(&after, 3) >= hits_at_k(&before, 3),
        "H@3 {} -> {}",
        hits_at_k(&before, 3),
        hits_at_k(&after, 3)
    );
}

#[test]
fn framework_facade_runs_the_same_pipeline() {
    let study = simulate_user_study(&study_cfg());
    let mut fw = Framework::new(study.deployed.clone(), FrameworkConfig::default());
    for vote in study.votes.votes.clone() {
        fw.record_vote(vote);
    }
    let report = fw.optimize(Strategy::MultiVote);
    assert_eq!(report.outcomes.len(), study.votes.len());

    // The facade's graph must match a direct solve with the same options.
    let mut direct = study.deployed.clone();
    solve_multi_votes(&mut direct, &study.votes, &MultiVoteOptions::default());
    for e in direct.edges() {
        assert!(
            (fw.graph().weight(e.edge) - e.weight).abs() < 1e-12,
            "facade and direct solve diverge on {:?}",
            e.edge
        );
    }

    // Revert restores the deployed weights exactly.
    assert!(fw.revert_last_optimization().unwrap());
    for e in study.deployed.edges() {
        assert_eq!(fw.graph().weight(e.edge), e.weight);
    }
}

#[test]
fn optimization_is_deterministic() {
    let study = simulate_user_study(&study_cfg());
    let run = || {
        let mut g = study.deployed.clone();
        solve_multi_votes(&mut g, &study.votes, &MultiVoteOptions::default());
        g.weights().to_vec()
    };
    assert_eq!(run(), run());
}
