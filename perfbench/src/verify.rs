//! Bit-exact checking of served rankings against the uncached oracle.

use crate::sched::{Universe, TOP_K};
use crate::wire::WireRanking;
use kg_graph::GraphSnapshot;
use kg_sim::{rank_answers, SimilarityConfig};
use std::collections::HashMap;
use std::time::Instant;

/// FNV-1a over a ranking's `(node, score bits)` pairs.
pub fn fingerprint(ranking: &[(u32, u64)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &(node, bits) in ranking {
        for b in u64::from(node)
            .to_le_bytes()
            .into_iter()
            .chain(bits.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Every distinct `(epoch, question)` checked once against
/// `kg_sim::rank_answers` on that epoch's snapshot; the oracle's timings
/// are the kg-sim kernel samples.
#[derive(Default)]
pub struct Verifier {
    /// First fingerprint per `(epoch, question)`, with the ranking until
    /// it is checked.
    seen: HashMap<(u64, usize), (u64, Option<WireRanking>)>,
    /// Responses whose ranking differed from an earlier one for the same
    /// `(epoch, question)`.
    pub repeat_mismatches: u64,
    pub checked: u64,
    pub mismatches: u64,
    /// Responses for an epoch other than the published one at check time.
    pub stale: u64,
    pub kernel_us: Vec<f64>,
}

impl Verifier {
    /// Records a served ranking; a repeat must match the first response.
    pub fn record(&mut self, epoch: u64, question: usize, ranking: WireRanking) {
        let fp = fingerprint(&ranking);
        match self.seen.get(&(epoch, question)) {
            Some(&(seen, _)) if seen != fp => self.repeat_mismatches += 1,
            Some(_) => {}
            None => {
                self.seen.insert((epoch, question), (fp, Some(ranking)));
            }
        }
    }

    /// Checks every ranking not yet checked; call between timed spans,
    /// while `snap` is the snapshot the responses were served from. Keys of
    /// older epochs are dropped afterwards: no valid response can carry
    /// them any more (one that does is stale at the next check), and the
    /// map stays as small as one epoch's questions.
    pub fn check(&mut self, snap: &GraphSnapshot, uni: &Universe, sim: &SimilarityConfig) {
        for (&(epoch, qi), (_, ranking)) in self.seen.iter_mut() {
            let Some(served) = ranking.take() else {
                continue;
            };
            if epoch != snap.epoch() {
                self.stale += 1;
                continue;
            }
            let q = &uni.questions[qi];
            let started = Instant::now();
            let oracle = rank_answers(snap, q.query, &q.answers, sim, TOP_K);
            self.kernel_us.push(started.elapsed().as_secs_f64() * 1e6);
            let expect: WireRanking = oracle
                .iter()
                .map(|a| (a.node.0, a.score.to_bits()))
                .collect();
            self.checked += 1;
            if expect != served {
                self.mismatches += 1;
            }
        }
        self.seen.retain(|&(epoch, _), _| epoch == snap.epoch());
    }

    /// Forgets every key once all are checked: a fresh framework numbers
    /// its epochs from the start again.
    pub fn retire(&mut self) {
        debug_assert!(self.seen.values().all(|(_, r)| r.is_none()));
        self.seen.clear();
    }

    pub fn failures(&self) -> u64 {
        self.repeat_mismatches + self.mismatches + self.stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_must_match_the_first_response() {
        let mut seen = Verifier::default();
        seen.record(1, 0, vec![(3, 7)]);
        seen.record(1, 0, vec![(3, 7)]);
        assert_eq!(seen.repeat_mismatches, 0);
        seen.record(1, 0, vec![(3, 8)]);
        assert_eq!(seen.repeat_mismatches, 1);
        seen.record(2, 0, vec![(3, 8)]);
        assert_eq!(seen.repeat_mismatches, 1, "another epoch is another key");
    }
}
