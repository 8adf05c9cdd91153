//! # votekg — Optimizing Knowledge Graphs through Voting-based User Feedback
//!
//! A complete Rust implementation of the ICDE 2020 paper by Yang, Lin,
//! Xu, Yang and He: an interactive framework that refines the edge
//! weights of a knowledge graph from users' best-answer votes.
//!
//! The crates composing the system (all re-exported here):
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | weighted digraph substrate (CSR, augmentation, snapshots, I/O) |
//! | [`sim`] | PPR, extended inverse P-distance, top-k ranking, baselines |
//! | [`sgp`] | signomial geometric programming expressions and solvers |
//! | [`votes`] | vote model, SGP encoding, single-/multi-vote solutions |
//! | [`cluster`] | affinity propagation + split-and-merge scaling |
//! | [`qa`] | corpus → knowledge graph question answering, IR baseline |
//! | [`serve`] | snapshot ranking cache, advanced once per publish by affected-set eviction |
//! | [`metrics`] | Ω, H@k, MRR, MAP, PD |
//! | [`telemetry`] | zero-dependency counters, spans, exporters, logging |
//!
//! The highest-level entry point is [`Framework`]:
//!
//! ```
//! use votekg::{Framework, FrameworkConfig, Strategy};
//! use votekg::graph::{GraphBuilder, NodeKind};
//! use votekg::votes::Vote;
//!
//! // A toy augmented graph: query -> hubs -> answers.
//! let mut b = GraphBuilder::new();
//! let q = b.add_node("q", NodeKind::Query);
//! let h1 = b.add_node("h1", NodeKind::Entity);
//! let h2 = b.add_node("h2", NodeKind::Entity);
//! let a1 = b.add_node("a1", NodeKind::Answer);
//! let a2 = b.add_node("a2", NodeKind::Answer);
//! b.add_edge(q, h1, 0.5).unwrap();
//! b.add_edge(q, h2, 0.5).unwrap();
//! b.add_edge(h1, a1, 0.7).unwrap();
//! b.add_edge(h2, a2, 0.3).unwrap();
//!
//! let mut fw = Framework::new(b.build(), FrameworkConfig::default());
//! let ranked = fw.rank(q, &[a1, a2], 2);
//! assert_eq!(ranked[0].node, a1); // a1 wins initially
//!
//! // The user votes a2 as the best answer -> negative vote.
//! fw.record_vote(Vote::new(q, vec![a1, a2], a2));
//! let report = fw.optimize(Strategy::MultiVote);
//! assert_eq!(report.outcomes[0].rank_after, 1); // a2 now on top
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod framework;

pub use durable::{DurableOptions, RecoveryReport};
pub use framework::{Framework, FrameworkConfig, Strategy};
pub use kg_graph::{GraphSnapshot, SharedGraph};
pub use kg_serve::{ServeHandle, SnapshotServer};
pub use kg_votes::wal::{TornTail, WalError};

pub use kg_cluster as cluster;
pub use kg_graph as graph;
pub use kg_metrics as metrics;
pub use kg_qa as qa;
pub use kg_serve as serve;
pub use kg_sim as sim;
pub use kg_telemetry as telemetry;
pub use kg_votes as votes;
pub use sgp;
