//! Framework-level fault tolerance: injected solver faults must surface
//! through [`Framework::optimize`] as report classifications — degraded,
//! failed, or timed-out solves — never as a panic, and the revert
//! snapshot must stay usable throughout.
//!
//! Every test installs a global fault plan via [`sgp::fault::inject`]
//! (or an empty one), whose guard also serializes the tests: the plan's
//! call counter is process-wide. This binary is the only core test
//! process that injects.

use kg_graph::{GraphBuilder, KnowledgeGraph, NodeId, NodeKind, WeightSnapshot};
use kg_votes::{SolveOutcome, Vote};
use sgp::fault::{inject, FaultAction, FaultPlan};
use votekg::{Framework, FrameworkConfig, Strategy};

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

#[test]
fn transient_solver_error_degrades_but_still_satisfies() {
    let _guard = inject(FaultPlan::new().at(0, FaultAction::Error));
    let (g, q, a1, a2) = scene();
    let mut fw = Framework::new(g, FrameworkConfig::default());
    fw.record_vote(Vote::new(q, vec![a1, a2], a2));
    let report = fw.optimize(Strategy::MultiVote);
    assert_eq!(report.degraded_solves(), 1, "{report:?}");
    assert_eq!(report.outcomes[0].rank_after, 1, "{report:?}");
    // The fallback chain recovered, so the round is revertible as usual.
    assert!(fw.revert_last_optimization().unwrap());
    assert_eq!(fw.rank(q, &[a1, a2], 2)[0].node, a1);
}

#[test]
fn persistent_solver_failure_quarantines_and_keeps_the_graph() {
    let _guard = inject(FaultPlan::new().from_call(0, FaultAction::Error));
    let (g, q, a1, a2) = scene();
    let snap = WeightSnapshot::capture(&g);
    let mut fw = Framework::new(g, FrameworkConfig::default());
    fw.record_vote(Vote::new(q, vec![a1, a2], a2));
    let report = fw.optimize(Strategy::MultiVote);
    assert_eq!(report.failed_solves(), 1, "{report:?}");
    assert_eq!(report.quarantined_votes, 1, "{report:?}");
    assert!(matches!(report.solves[0], SolveOutcome::Failed { .. }));
    assert_eq!(
        snap.squared_distance(fw.graph()),
        0.0,
        "graph must be untouched"
    );
    // Nothing was applied, but the revert snapshot is still consistent.
    assert!(fw.revert_last_optimization().unwrap());
    assert_eq!(snap.squared_distance(fw.graph()), 0.0);
}

#[test]
fn set_solve_timeout_reaches_every_pipeline() {
    let _guard = inject(FaultPlan::new());
    for strategy in [
        Strategy::SingleVote,
        Strategy::MultiVote,
        Strategy::SplitMerge,
    ] {
        let (g, q, a1, a2) = scene();
        let mut config = FrameworkConfig::default();
        config.set_solve_timeout(Some(std::time::Duration::ZERO));
        let mut fw = Framework::new(g, config);
        fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        let report = fw.optimize(strategy);
        assert_eq!(
            report.timed_out_solves(),
            1,
            "{strategy:?} ignored the budget: {report:?}"
        );
        for e in fw.graph().edges() {
            assert!(e.weight.is_finite());
        }
    }
}
