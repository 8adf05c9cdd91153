//! Workload inputs: the fixed data universe and the seeded traffic
//! schedule laid over it.
//!
//! The graph and vote pool come from kg-datasets with a constant dataset
//! seed; `--seed` chooses the traffic (read orders, which questions are
//! hot). The votes go in pool order. Scenario-to-scenario cost differs by
//! up to 3× between dataset seeds (DIGG multi-vote round p50 57–188 ms
//! over dataset seeds 1–3 on a 2-vCPU host), which no run length averages
//! out, while the spread between traffic seeds over one universe stays
//! within host noise.

use kg_datasets::{generate_votes, synthesize, DatasetSpec, VoteGenConfig, DIGG};
use kg_graph::{KnowledgeGraph, NodeId};
use kg_sim::SimilarityConfig;
use kg_votes::Vote;

/// Seed of the synthetic dataset every workload runs on.
const DATASET_SEED: u64 = 7;

/// Answers returned per rank request.
pub const TOP_K: usize = 10;

/// Votes per optimization round in the multi-vote workloads.
pub const ROUND_VOTES: usize = 8;

/// Rounds of the fixed feedback prelude that `rank_hot` spreads over its
/// segments.
pub const PRELUDE_ROUNDS: usize = 40;

/// Votes the kg-cluster probe clusters on the multi-vote workloads.
pub const CLUSTER_PROBE_VOTES: usize = 64;

/// A question the clients ask: a query node plus its candidate answers.
#[derive(Debug, Clone)]
pub struct Question {
    pub query: NodeId,
    pub answers: Vec<NodeId>,
}

/// Which synthetic dataset a workload serves.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    pub spec: &'static DatasetSpec,
    pub votes: usize,
    pub scale: f64,
}

pub const DIGG_400: Dataset = Dataset {
    spec: &DIGG,
    votes: 400,
    scale: 0.4,
};

/// The served graph, its vote pool and the distinct questions they ask.
pub struct Universe {
    pub dataset: Dataset,
    pub graph: KnowledgeGraph,
    pub votes: Vec<Vote>,
    /// Distinct questions, in vote-pool order.
    pub questions: Vec<Question>,
}

impl Universe {
    /// The Section VII-A vote scenario of `dataset`, as the repository's
    /// experiments build it.
    pub fn build(dataset: Dataset) -> Universe {
        let scale = dataset.scale;
        let base = synthesize(dataset.spec, scale, DATASET_SEED);
        let scaled = |full: usize, min: usize| ((full as f64 * scale).round() as usize).max(min);
        let generated = generate_votes(
            &base,
            &VoteGenConfig {
                n_queries: (dataset.votes * 2).max(8),
                n_answers: scaled(2_379, 30),
                subgraph_nodes: scaled(10_000, 50),
                link_degree: 4,
                top_k: 20,
                target_best_rank: 10,
                positive_fraction: 0.5,
                sim: SimilarityConfig::default(),
                seed: DATASET_SEED,
            },
        );
        let mut votes = generated.votes.votes;
        votes.truncate(dataset.votes);
        let mut questions: Vec<Question> = Vec::new();
        for v in &votes {
            if !questions.iter().any(|q| q.query == v.query) {
                questions.push(Question {
                    query: v.query,
                    answers: v.answers.clone(),
                });
            }
        }
        Universe {
            dataset,
            graph: generated.graph,
            votes,
            questions,
        }
    }
}

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Work quotas per second of `--seconds`, sized so a run measures for
/// about that long on a 2-vCPU host (rank_hot: ~28k requests/s;
/// feedback_loop: ~10 cycles/s). The work is fixed; a faster program
/// finishes sooner.
pub const HOT_REQUESTS_PER_SEC: usize = 20_000;
pub const FEEDBACK_CYCLES_PER_SEC: f64 = 8.0;

/// Zipf(1.1) popularity over the pool questions, one seeded permutation
/// per run. The hot phase's draws are made chunk by chunk, when the chunk
/// is about to be sent, so the harness never holds the whole phase.
#[derive(Debug, Clone, PartialEq)]
pub struct HotPlan {
    seed: u64,
    order: Vec<usize>,
    cdf: Vec<f64>,
    /// Requests in the whole hot phase.
    pub requests: usize,
}

impl HotPlan {
    fn new(seed: u64, questions: usize, requests: usize) -> HotPlan {
        let order = Rng::new(seed, 1).permutation(questions);
        let mut cdf = Vec::with_capacity(questions);
        let mut total = 0.0;
        for rank in 1..=questions {
            total += 1.0 / (rank as f64).powf(1.1);
            cdf.push(total);
        }
        HotPlan {
            seed,
            order,
            cdf,
            requests,
        }
    }

    /// Question indices of chunk `i` of `parts` near-equal chunks, in
    /// sending order: a pure function of the seed, `i` and `parts`.
    pub fn chunk(&self, i: usize, parts: usize) -> Vec<usize> {
        let n = self.requests * (i + 1) / parts - self.requests * i / parts;
        let mut rng = Rng::new(self.seed, 1_000 + i as u64);
        let total = *self.cdf.last().expect("at least one question");
        (0..n)
            .map(|_| {
                let u = rng.unit() * total;
                self.order[self
                    .cdf
                    .partition_point(|&c| c <= u)
                    .min(self.order.len() - 1)]
            })
            .collect()
    }
}

/// Rounds of multi-vote feedback on one fresh durable framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass {
    /// Vote-pool indices, `ROUND_VOTES` per round, each used once.
    pub votes: Vec<usize>,
    /// Per round, the order every question is read in afterwards (empty
    /// when the workload reads on its own schedule).
    pub reads: Vec<Vec<usize>>,
}

impl Pass {
    /// The pass's rounds, in order.
    pub fn batches(&self) -> std::slice::Chunks<'_, usize> {
        self.votes.chunks(ROUND_VOTES)
    }
}

/// The traffic of one workload run: a pure function of the seed, the
/// run length and the pool sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    RankHot {
        /// The fixed prelude: the first `PRELUDE_ROUNDS` rounds' votes of
        /// the pool in pool order, the same for every seed.
        prelude: Pass,
        hot: HotPlan,
    },
    FeedbackLoop {
        /// The pass every repetition runs, each on a fresh framework.
        pass: Pass,
        repetitions: usize,
    },
}

impl Schedule {
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: u64,
        pool_votes: usize,
        questions: usize,
    ) -> Schedule {
        let secs = seconds.max(1) as f64;
        match workload {
            "rank_hot" => Schedule::RankHot {
                prelude: Pass {
                    votes: (0..PRELUDE_ROUNDS * ROUND_VOTES).collect(),
                    reads: Vec::new(),
                },
                hot: HotPlan::new(
                    seed,
                    questions,
                    HOT_REQUESTS_PER_SEC * seconds.max(1) as usize,
                ),
            },
            "feedback_loop" => {
                // Every pool vote once, in pool order for every seed: Ω per
                // vote differs by vote order (4.92–5.32 over ten seeded
                // orders, a 0.04 spread), so a seeded order would make the
                // seed, not the program, move `omega_avg` and the rounds'
                // work. The seed picks the read orders.
                let rounds = pool_votes / ROUND_VOTES;
                let votes = (0..rounds * ROUND_VOTES).collect();
                let mut rng = Rng::new(seed, 100);
                let reads = (0..rounds).map(|_| rng.permutation(questions)).collect();
                Schedule::FeedbackLoop {
                    pass: Pass { votes, reads },
                    repetitions: ((secs * FEEDBACK_CYCLES_PER_SEC / rounds as f64).round()
                        as usize)
                        .max(1),
                }
            }
            other => panic!("unknown workload {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        for w in ["rank_hot", "feedback_loop"] {
            let a = Schedule::new(w, 42, 2, 400, 400);
            assert_eq!(a, Schedule::new(w, 42, 2, 400, 400), "{w}: same seed");
            assert_ne!(a, Schedule::new(w, 43, 2, 400, 400), "{w}: another seed");
        }
        let Schedule::RankHot { prelude, hot } = Schedule::new("rank_hot", 1, 2, 400, 400) else {
            unreachable!()
        };
        let Schedule::RankHot { prelude: other, .. } = Schedule::new("rank_hot", 2, 2, 400, 400)
        else {
            unreachable!()
        };
        assert_eq!(prelude, other, "the prelude does not depend on the seed");
        assert_eq!(hot.chunk(3, 8), hot.chunk(3, 8), "a chunk is pure");
        let sent: usize = (0..8).map(|i| hot.chunk(i, 8).len()).sum();
        assert_eq!(sent, hot.requests, "the chunks make up the hot phase");
    }

    #[test]
    fn zipf_draws_favour_one_hot_question() {
        let plan = HotPlan::new(5, 400, 20_000);
        let mut counts = vec![0usize; 400];
        for d in plan.chunk(0, 1) {
            counts[d] += 1;
        }
        counts.sort_unstable();
        let top = counts[399] as f64 / 20_000.0;
        assert!(top > 0.1 && top < 0.25, "top question share {top}");
    }

    #[test]
    fn a_pass_applies_every_vote_once() {
        let Schedule::FeedbackLoop { pass, repetitions } =
            Schedule::new("feedback_loop", 9, 30, 400, 400)
        else {
            unreachable!()
        };
        assert_eq!(repetitions, 5, "30 s at 8 rounds/s is five 50-round passes");
        assert_eq!(pass.votes, (0..400).collect::<Vec<_>>());
        assert_eq!(pass.reads.len(), pass.batches().len());
        let Schedule::FeedbackLoop { pass: other, .. } =
            Schedule::new("feedback_loop", 10, 30, 400, 400)
        else {
            unreachable!()
        };
        assert_eq!(
            pass.votes, other.votes,
            "the votes do not depend on the seed"
        );
        assert_ne!(pass.reads, other.reads, "the reads do");
    }
}
