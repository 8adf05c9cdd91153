//! Similarity evaluation over knowledge graphs (Sections III–IV of the
//! paper).
//!
//! Three engines, all measuring the same quantity — the Personalized
//! PageRank (PPR) mass an answer node receives from a query node — with
//! different cost profiles:
//!
//! * [`ppr`] — classic PPR power iteration on the whole graph (Eq. 1).
//! * [`pdist`] — the paper's **extended inverse P-distance** `Φ(v_q, v_a)`
//!   (Eq. 7–9): a sum over all walks of length ≤ `L` from the query,
//!   computed numerically by frontier propagation in `O(L·|E|)` *per
//!   query* (independent of the number of answers), or symbolically by
//!   path enumeration for the SGP vote encoding.
//! * [`random_walk`] — the per-answer baseline of Yang et al. (AAAI'17),
//!   whose cost grows linearly with the number of answers (Table VI), plus
//!   a Monte-Carlo sampler used for statistical cross-validation.
//!
//! Theorem 1 of the paper states `Φ ≡ PPR` on weighted graphs; the
//! integration tests in `tests/theorem1.rs` verify it numerically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod delta;
pub mod engine;
pub mod explain;
pub mod par;
pub mod pdist;
pub mod ppr;
pub mod random_walk;
pub mod topk;
pub mod workspace;

pub use batch::{rank_many, BatchQuery};
pub use config::SimilarityConfig;
pub use delta::affected_queries;
pub use engine::{BackwardWalkEngine, MonteCarloEngine, PdistEngine, PprEngine, SimilarityEngine};
pub use explain::{explain_ranking, Explanation};
pub use par::run_worker_loop;
pub use pdist::{enumerate_paths, phi_from_paths, phi_single, phi_vector, Path, PathSet};
pub use ppr::{ppr_vector, PprOptions};
pub use random_walk::{monte_carlo_similarity, random_walk_similarity, MonteCarloOptions};
pub use topk::{by_score_then_id, rank_answers, rank_scored, RankedAnswer};
pub use workspace::{with_local_workspace, PhiWorkspace};
