//! The multi-vote solution (Section V of the paper).
//!
//! All negative and positive votes are judged, encoded into *one* SGP
//! program, and solved in a single batch. Conflicts between votes are
//! absorbed by deviation variables (Eq. 15) whose positive excursions are
//! counted — smoothly, via the steep sigmoid (Eq. 17–18) — and traded off
//! against weight drift by the combined objective (Eq. 19).

use crate::encode::{encode_multi, EncodeOptions, MultiParams};
use crate::judge::{judge_vote, JudgeOutcome};
use crate::report::{NormalizeMode, OptimizationReport, SolveOutcome, VoteOutcome};
use crate::single::{apply_guarded, validate_votes};
use crate::solver_choice::{run_solver_resilient, InnerOpt, RetryPolicy};
use crate::vote::{Vote, VoteSet};
use kg_graph::KnowledgeGraph;
use kg_sim::topk::rank_of;
use serde::{Deserialize, Serialize};
use sgp::SolveOptions;
use std::time::Instant;

/// Controls for [`solve_multi_votes`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiVoteOptions {
    /// Vote-encoding parameters.
    pub encode: EncodeOptions,
    /// Multi-vote objective parameters (λ1, λ2, sigmoid steepness, form).
    pub params: MultiParams,
    /// SGP solver parameters.
    pub solve: SolveOptions,
    /// Use the augmented-Lagrangian solver (only relevant with explicit
    /// deviation variables, which add real constraints).
    pub use_auglag: bool,
    /// Inner optimizer for the SGP solves.
    pub inner: InnerOpt,
    /// Run the extreme-condition judgment and discard erroneous votes
    /// before encoding (Section V prescribes this).
    pub judge: bool,
    /// Shared-edge constant used by the judgment.
    pub shared_weight: f64,
    /// Post-application weight normalization. Defaults to `None`: unlike
    /// Algorithm 1, the paper's multi-vote solution (Section V) does not
    /// re-normalize — and re-normalizing can invert the solved margins
    /// when rows end up with different totals.
    pub normalize: NormalizeMode,
    /// Fallback chain for failed solves.
    pub retry: RetryPolicy,
}

impl Default for MultiVoteOptions {
    fn default() -> Self {
        MultiVoteOptions {
            encode: EncodeOptions::default(),
            params: MultiParams::default(),
            solve: SolveOptions::default(),
            use_auglag: false,
            inner: InnerOpt::Adam,
            judge: true,
            shared_weight: 0.5,
            normalize: NormalizeMode::None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Runs the multi-vote solution over the whole vote set, mutating `graph`
/// in place.
pub fn solve_multi_votes(
    graph: &mut KnowledgeGraph,
    votes: &VoteSet,
    opts: &MultiVoteOptions,
) -> OptimizationReport {
    let mut span = kg_telemetry::span!("votekg.votes.multi", {
        votes: votes.len(),
        deviation_vars: opts.params.deviation_vars,
    });
    let started = Instant::now();
    let mut report = OptimizationReport::default();

    // Validation pass: a vote whose best answer cannot be ranked is
    // recorded as discarded (with a reason) instead of poisoning the
    // whole round.
    let ranks_before = {
        let _phase = kg_telemetry::span!("votekg.votes.validate");
        validate_votes(graph, votes, &opts.encode, &mut report)
    };

    // Judgment pass: keep encodable votes (positives always pass).
    let mut kept: Vec<&Vote> = Vec::with_capacity(votes.len());
    let mut kept_idx: Vec<usize> = Vec::with_capacity(votes.len());
    let mut kept_mask = vec![false; votes.len()];
    let judge_phase = kg_telemetry::span!("votekg.votes.judge");
    for (idx, vote) in votes.votes.iter().enumerate() {
        if ranks_before[idx].is_none() {
            continue;
        }
        if opts.judge
            && judge_vote(graph, vote, &opts.encode, opts.shared_weight) == JudgeOutcome::Erroneous
        {
            report.exclude_vote(
                idx,
                "judged erroneous by the extreme-condition judgment".to_string(),
                false,
            );
            continue;
        }
        kept_mask[idx] = true;
        kept.push(vote);
        kept_idx.push(idx);
    }
    drop(judge_phase);

    if !kept.is_empty() {
        let kept_owned: Vec<Vote> = kept.iter().map(|v| (*v).clone()).collect();
        let solve_started = Instant::now();
        // One deadline shared by every continuation stage: each stage
        // gets whatever is left of the round's budget, so the whole
        // sequence — not each solve — honors `time_budget`.
        let deadline = opts.solve.time_budget.map(|b| solve_started + b);
        // Encoded once per round: the stages differ only in the sigmoid
        // steepness and the start point.
        let mut prog = {
            let _phase = kg_telemetry::span!("votekg.votes.encode");
            encode_multi(graph, &kept_owned, &opts.encode, &opts.params)
        };
        if prog.problem.n_vars() > 0 {
            span.field("constraints", prog.problem.n_constraints());
            let w_final = opts.params.steepness;
            // The explicit deviation form carries real constraints whose
            // pressure must reach the weight variables even when slack; the
            // augmented Lagrangian's multipliers provide that, whereas the
            // exterior penalty goes silent on feasible iterates. It is
            // solved once, at `w_final`.
            let deviation = opts.params.deviation_vars;
            let use_auglag = opts.use_auglag || deviation;
            // Eliminated form with steepness continuation: a sigmoid at
            // the paper's w = 300 saturates on margins of a few percent
            // and its gradient vanishes, stranding badly-violated votes.
            // Solving a sequence of sharpening sigmoids (each warm-starting
            // the next) keeps a usable gradient at every stage — the final
            // stage is exactly the paper's objective (Eq. 19). The shallow
            // warm-up stages only pay off when something is violated; on an
            // already-satisfied batch they would add gratuitous drift (their
            // wide sigmoids push satisfied margins further negative than the
            // w_final objective wants).
            let mut stages: Vec<f64> =
                if !deviation && prog.violated_margins(&prog.problem.vars.initial_point()) > 0 {
                    [w_final / 30.0, w_final / 10.0, w_final / 3.0]
                        .into_iter()
                        .filter(|&w| w >= 1.0 && w < w_final)
                        .collect()
                } else {
                    Vec::new()
                };
            stages.push(w_final);
            let mut best_x: Option<Vec<f64>> = None;
            let mut inner_total = 0usize;
            let mut total_retries = 0usize;
            let mut fallback = String::new();
            let mut timed_out = false;
            let mut stage_failure: Option<String> = None;
            for (si, &stage_w) in stages.iter().enumerate() {
                // Retune the encoded program's sigmoid to this stage;
                // warm-start from the previous stage's solution. The
                // proximal anchors must stay at the *original* weights,
                // so only the variable initials move.
                prog.problem.objective.set_sigmoid_steepness(stage_w);
                if let Some(x) = &best_x {
                    for (i, xi) in x.iter().enumerate() {
                        prog.problem.vars.set_initial(sgp::VarId(i as u32), *xi);
                    }
                }
                let mut stage_opts = opts.solve.clone();
                if let Some(d) = deadline {
                    stage_opts.time_budget = Some(d.saturating_duration_since(Instant::now()));
                }
                let solved = run_solver_resilient(
                    &prog.problem,
                    &stage_opts,
                    use_auglag,
                    opts.inner,
                    &opts.retry,
                );
                match solved.outcome {
                    SolveOutcome::Applied => {}
                    SolveOutcome::Degraded {
                        fallback: f,
                        retries,
                    } => {
                        total_retries += retries;
                        fallback = f;
                    }
                    SolveOutcome::TimedOut => timed_out = true,
                    SolveOutcome::Failed { error } => {
                        // A later stage failing leaves the previous
                        // stage's solution in force; only a failure with
                        // nothing solved yet aborts the batch.
                        if best_x.is_none() {
                            stage_failure = Some(error);
                        } else {
                            total_retries += solved.retries;
                            fallback = format!("stopped at continuation stage {si}: {error}");
                        }
                        break;
                    }
                }
                if let Some(result) = solved.result {
                    inner_total += result.inner_iterations;
                    best_x = Some(result.x);
                }
                if timed_out {
                    // Best iterate so far is still applied below.
                    break;
                }
            }
            report.solver_inner_iterations = inner_total;
            if let (true, Some(x)) = (deviation, &best_x) {
                record_deviation_magnitudes(&prog, x);
            }
            let _apply_phase = kg_telemetry::span!("votekg.votes.apply");
            match best_x {
                Some(x) => match apply_guarded(&prog, &x, graph, opts.normalize) {
                    Ok(changed) => {
                        report.edges_changed = changed.len();
                        let outcome = if timed_out {
                            SolveOutcome::TimedOut
                        } else if total_retries > 0 || !fallback.is_empty() {
                            SolveOutcome::Degraded {
                                fallback,
                                retries: total_retries,
                            }
                        } else {
                            SolveOutcome::Applied
                        };
                        report.solves.push(outcome);
                    }
                    Err(reason) => {
                        report.solves.push(SolveOutcome::Failed {
                            error: reason.clone(),
                        });
                        quarantine_all(&mut report, &kept_idx, &mut kept_mask, &reason);
                    }
                },
                None => {
                    let error =
                        stage_failure.unwrap_or_else(|| "solver produced no solution".to_string());
                    let reason = format!("solver failed: {error}");
                    report.solves.push(SolveOutcome::Failed { error });
                    quarantine_all(&mut report, &kept_idx, &mut kept_mask, &reason);
                }
            }
        }
        report.solver_elapsed = solve_started.elapsed();
    }

    let rerank_phase = kg_telemetry::span!("votekg.votes.rerank");
    for (idx, vote) in votes.votes.iter().enumerate() {
        let Some(rank_before) = ranks_before[idx] else {
            continue;
        };
        let rank_after = rank_of(
            graph,
            vote.query,
            &vote.answers,
            &opts.encode.sim,
            vote.best,
        )
        .unwrap_or(rank_before);
        report.outcomes.push(VoteOutcome {
            vote_index: idx,
            kind: vote.kind(),
            rank_before,
            rank_after,
            encoded: kept_mask[idx],
            feasible: None,
        });
    }
    drop(rerank_phase);
    report.total_elapsed = started.elapsed();
    crate::record_vote_telemetry("multi", &mut span, &report);
    report
}

/// Quarantines every kept vote after a batch-level failure: the shared
/// solve produced nothing applicable, so no kept vote reached the graph.
fn quarantine_all(
    report: &mut OptimizationReport,
    kept_idx: &[usize],
    kept_mask: &mut [bool],
    reason: &str,
) {
    for &idx in kept_idx {
        kept_mask[idx] = false;
        report.exclude_vote(idx, reason.to_string(), true);
    }
}

/// Records the magnitudes of the deviation variables (Eq. 15) after an
/// explicit-deviation solve: each solved value minus [`DEVIATION_SHIFT`]
/// is that vote-pair's residual conflict. Magnitudes land in the
/// `votekg.votes.deviation_magnitude_milli` histogram (scaled ×1000 so
/// the log-2 buckets resolve sub-unit values) and the maximum in a gauge.
fn record_deviation_magnitudes(prog: &crate::encode::VoteProgram, x: &[f64]) {
    if !kg_telemetry::is_enabled() {
        return;
    }
    let hist = kg_telemetry::histogram("votekg.votes.deviation_magnitude_milli");
    let mut max_mag = 0.0f64;
    for &xi in &x[prog.n_edge_vars()..] {
        let mag = (xi - crate::encode::DEVIATION_SHIFT).abs();
        max_mag = max_mag.max(mag);
        hist.record((mag * 1000.0).round() as u64);
    }
    kg_telemetry::gauge("votekg.votes.deviation_magnitude_max").set(max_mag);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::{GraphBuilder, NodeId, NodeKind};

    /// Two answers off separate hubs; a1 wins initially.
    fn scene() -> (KnowledgeGraph, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let h1 = b.add_node("h1", NodeKind::Entity);
        let h2 = b.add_node("h2", NodeKind::Entity);
        let a1 = b.add_node("a1", NodeKind::Answer);
        let a2 = b.add_node("a2", NodeKind::Answer);
        b.add_edge(q, h1, 0.5).unwrap();
        b.add_edge(q, h2, 0.5).unwrap();
        b.add_edge(h1, a1, 0.7).unwrap();
        b.add_edge(h2, a2, 0.3).unwrap();
        (b.build(), q, a1, a2)
    }

    fn fast_opts() -> MultiVoteOptions {
        MultiVoteOptions {
            normalize: NormalizeMode::None,
            solve: SolveOptions {
                max_inner_iters: 2000,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn single_negative_vote_is_satisfied() {
        let (mut g, q, a1, a2) = scene();
        let votes = VoteSet::from_votes(vec![Vote::new(q, vec![a1, a2], a2)]);
        let report = solve_multi_votes(&mut g, &votes, &fast_opts());
        assert_eq!(report.outcomes[0].rank_after, 1, "{report:?}");
        assert_eq!(report.omega(), 1);
    }

    #[test]
    fn positive_vote_protects_the_top_answer() {
        // Negative vote on one query, positive vote on another query that
        // shares the *same* edges: the positive vote should stop the top
        // answer from being degraded.
        let mut b = GraphBuilder::new();
        let q1 = b.add_node("q1", NodeKind::Query);
        let q2 = b.add_node("q2", NodeKind::Query);
        let h1 = b.add_node("h1", NodeKind::Entity);
        let h2 = b.add_node("h2", NodeKind::Entity);
        let a1 = b.add_node("a1", NodeKind::Answer);
        let a2 = b.add_node("a2", NodeKind::Answer);
        b.add_edge(q1, h1, 0.5).unwrap();
        b.add_edge(q1, h2, 0.5).unwrap();
        // q2 leans on h1 much more.
        b.add_edge(q2, h1, 0.9).unwrap();
        b.add_edge(q2, h2, 0.1).unwrap();
        b.add_edge(h1, a1, 0.7).unwrap();
        b.add_edge(h2, a2, 0.3).unwrap();
        let mut g = b.build();
        let votes = VoteSet::from_votes(vec![
            Vote::new(q1, vec![a1, a2], a2), // negative
            Vote::new(q2, vec![a1, a2], a1), // positive: keep a1 on top for q2
        ]);
        let report = solve_multi_votes(&mut g, &votes, &fast_opts());
        // The positive vote's answer must not fall below rank 1.
        assert_eq!(report.outcomes[1].rank_after, 1, "{report:?}");
    }

    #[test]
    fn erroneous_votes_are_discarded_by_judgment() {
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let h1 = b.add_node("h1", NodeKind::Entity);
        let a1 = b.add_node("a1", NodeKind::Answer);
        let a2 = b.add_node("a2", NodeKind::Answer);
        b.add_edge(q, h1, 1.0).unwrap();
        b.add_edge(h1, a1, 1.0).unwrap();
        let mut g = b.build();
        let votes = VoteSet::from_votes(vec![Vote::new(q, vec![a1, a2], a2)]);
        let report = solve_multi_votes(&mut g, &votes, &fast_opts());
        assert_eq!(report.discarded_votes, 1);
        assert!(!report.outcomes[0].encoded);
    }

    #[test]
    fn deviation_form_also_satisfies_votes() {
        let (mut g, q, a1, a2) = scene();
        let votes = VoteSet::from_votes(vec![Vote::new(q, vec![a1, a2], a2)]);
        let mut opts = fast_opts();
        opts.params.deviation_vars = true;
        let report = solve_multi_votes(&mut g, &votes, &opts);
        assert_eq!(report.outcomes[0].rank_after, 1, "{report:?}");
    }

    #[test]
    fn eliminated_and_deviation_forms_agree_on_outcome() {
        let build_votes = |q, a1, a2| VoteSet::from_votes(vec![Vote::new(q, vec![a1, a2], a2)]);
        let (mut g1, q, a1, a2) = scene();
        let r1 = solve_multi_votes(&mut g1, &build_votes(q, a1, a2), &fast_opts());
        let (mut g2, q, a1, a2) = scene();
        let mut opts = fast_opts();
        opts.params.deviation_vars = true;
        let r2 = solve_multi_votes(&mut g2, &build_votes(q, a1, a2), &opts);
        assert_eq!(r1.outcomes[0].rank_after, r2.outcomes[0].rank_after);
    }

    #[test]
    fn conflicting_votes_resolve_to_majority() {
        // Two votes want a2 on top, one wants a1: the sigmoid counter
        // should prefer satisfying two out of three.
        let mut b = GraphBuilder::new();
        let qs: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(format!("q{i}"), NodeKind::Query))
            .collect();
        let h1 = b.add_node("h1", NodeKind::Entity);
        let h2 = b.add_node("h2", NodeKind::Entity);
        let a1 = b.add_node("a1", NodeKind::Answer);
        let a2 = b.add_node("a2", NodeKind::Answer);
        for &q in &qs {
            b.add_edge(q, h1, 0.5).unwrap();
            b.add_edge(q, h2, 0.5).unwrap();
        }
        b.add_edge(h1, a1, 0.55).unwrap();
        b.add_edge(h2, a2, 0.45).unwrap();
        let mut g = b.build();
        // All three votes see identical structure; two pull a2 up, one
        // confirms a1.
        let votes = VoteSet::from_votes(vec![
            Vote::new(qs[0], vec![a1, a2], a2),
            Vote::new(qs[1], vec![a1, a2], a2),
            Vote::new(qs[2], vec![a1, a2], a1),
        ]);
        let report = solve_multi_votes(&mut g, &votes, &fast_opts());
        // Majority satisfied: a2 on top for votes 0 and 1.
        assert_eq!(report.outcomes[0].rank_after, 1, "{report:?}");
        assert_eq!(report.outcomes[1].rank_after, 1);
        assert!(report.omega() >= 1, "{report:?}");
    }

    #[test]
    fn empty_vote_set_is_a_noop() {
        let (mut g, _, _, _) = scene();
        let snap = kg_graph::WeightSnapshot::capture(&g);
        let report = solve_multi_votes(&mut g, &VoteSet::new(), &fast_opts());
        assert!(report.outcomes.is_empty());
        assert_eq!(snap.squared_distance(&g), 0.0);
    }
}
