//! Composite objectives: the function family of Eq. 19,
//! `λ1 Σ (x − x0)² + λ2 Σ σ(w·g_i(x))`, generalized as a sum of typed
//! terms. This is the symbolic form; solvers evaluate values and exact
//! gradients through [`crate::CompiledProblem`].

use crate::sigmoid::sigmoid;
use crate::signomial::Signomial;
use crate::var::VarId;
use serde::{Deserialize, Serialize};

/// One additive term of a [`CompositeObjective`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObjectiveTerm {
    /// A plain signomial term.
    Signomial(Signomial),
    /// The proximal drift term `weight · Σ_j (x_j − anchor_j)²` over the
    /// listed variables (Eq. 12). Listing variables keeps the term sparse:
    /// the vote encoding only penalizes drift on edges touched by votes.
    QuadraticProximal {
        /// Scale `λ1`.
        weight: f64,
        /// `(variable, anchor value x0)` pairs.
        anchors: Vec<(VarId, f64)>,
    },
    /// The relaxed violation counter `weight · σ(steepness · inner(x))`
    /// (Eq. 18), where `inner` is typically the constraint margin
    /// `S(q, a) − S(q, a*)` of one vote.
    SigmoidPenalty {
        /// Scale `λ2`.
        weight: f64,
        /// Sigmoid steepness `w` (the paper uses 300).
        steepness: f64,
        /// The signomial fed into the sigmoid.
        inner: Signomial,
    },
}

impl ObjectiveTerm {
    /// Evaluates the term at `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        match self {
            ObjectiveTerm::Signomial(s) => s.eval(x),
            ObjectiveTerm::QuadraticProximal { weight, anchors } => {
                weight
                    * anchors
                        .iter()
                        .map(|&(v, x0)| {
                            let d = x[v.index()] - x0;
                            d * d
                        })
                        .sum::<f64>()
            }
            ObjectiveTerm::SigmoidPenalty {
                weight,
                steepness,
                inner,
            } => weight * sigmoid(inner.eval(x), *steepness),
        }
    }
}

/// A sum of [`ObjectiveTerm`]s.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CompositeObjective {
    terms: Vec<ObjectiveTerm>,
}

impl CompositeObjective {
    /// An empty (identically zero) objective.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a term.
    pub fn push(&mut self, term: ObjectiveTerm) {
        self.terms.push(term);
    }

    /// The terms.
    pub fn terms(&self) -> &[ObjectiveTerm] {
        &self.terms
    }

    /// Evaluates the objective at `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|t| t.eval(x)).sum()
    }

    /// Sets the steepness `w` of every [`ObjectiveTerm::SigmoidPenalty`]
    /// (one stage of the multi-vote steepness continuation).
    pub fn set_sigmoid_steepness(&mut self, w: f64) {
        for t in &mut self.terms {
            if let ObjectiveTerm::SigmoidPenalty { steepness, .. } = t {
                *steepness = w;
            }
        }
    }
}

impl From<Signomial> for CompositeObjective {
    fn from(s: Signomial) -> Self {
        CompositeObjective {
            terms: vec![ObjectiveTerm::Signomial(s)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledProblem;
    use crate::problem::SgpProblem;
    use crate::var::VarSpace;

    /// Value and gradient of `obj` at `x` through the compiled evaluator.
    fn value_and_grad(obj: &CompositeObjective, x: &[f64]) -> (f64, Vec<f64>) {
        let p = SgpProblem::new(VarSpace::new(), obj.clone());
        let mut g = vec![0.0; x.len()];
        let v = CompiledProblem::new(&p).objective(x, &mut g);
        (v, g)
    }

    fn single(term: ObjectiveTerm) -> CompositeObjective {
        let mut obj = CompositeObjective::new();
        obj.push(term);
        obj
    }

    #[test]
    fn proximal_term_is_zero_at_anchor() {
        let t = ObjectiveTerm::QuadraticProximal {
            weight: 0.5,
            anchors: vec![(VarId(0), 0.3), (VarId(1), 0.7)],
        };
        assert_eq!(t.eval(&[0.3, 0.7]), 0.0);
        assert_eq!(value_and_grad(&single(t), &[0.3, 0.7]).1, vec![0.0, 0.0]);
    }

    #[test]
    fn proximal_term_value_and_grad() {
        let t = ObjectiveTerm::QuadraticProximal {
            weight: 2.0,
            anchors: vec![(VarId(0), 1.0)],
        };
        // 2 * (3 - 1)^2 = 8 ; grad = 2*2*(3-1) = 8
        assert!((t.eval(&[3.0]) - 8.0).abs() < 1e-12);
        let (v, g) = value_and_grad(&single(t), &[3.0]);
        assert!((v - 8.0).abs() < 1e-12);
        assert!((g[0] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_penalty_counts_violations() {
        // inner = x - 0.5 ; steep sigmoid ~ indicator(x > 0.5)
        let inner = Signomial::linear(VarId(0), 1.0) - Signomial::constant(0.5);
        let t = ObjectiveTerm::SigmoidPenalty {
            weight: 1.0,
            steepness: 300.0,
            inner,
        };
        assert!(t.eval(&[0.9]) > 0.999);
        assert!(t.eval(&[0.1]) < 0.001);
    }

    #[test]
    fn composite_sums_terms() {
        let mut obj = CompositeObjective::new();
        obj.push(ObjectiveTerm::Signomial(Signomial::constant(1.0)));
        obj.push(ObjectiveTerm::QuadraticProximal {
            weight: 1.0,
            anchors: vec![(VarId(0), 0.0)],
        });
        // 1 + x^2 at x = 2 -> 5
        assert!((obj.eval(&[2.0]) - 5.0).abs() < 1e-12);
        let (_, g) = value_and_grad(&obj, &[2.0]);
        assert!((g[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn composite_grad_matches_finite_difference() {
        let inner = Signomial::linear(VarId(0), 2.0) - Signomial::linear(VarId(1), 1.0);
        let mut obj = CompositeObjective::new();
        obj.push(ObjectiveTerm::SigmoidPenalty {
            weight: 0.5,
            steepness: 20.0,
            inner,
        });
        obj.push(ObjectiveTerm::QuadraticProximal {
            weight: 0.25,
            anchors: vec![(VarId(0), 0.4), (VarId(1), 0.6)],
        });
        let x = [0.45, 0.55];
        let (_, g) = value_and_grad(&obj, &x);
        let h = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let fd = (obj.eval(&xp) - obj.eval(&xm)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4, "var {i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn set_sigmoid_steepness_retunes_only_sigmoid_terms() {
        let mut obj = CompositeObjective::new();
        obj.push(ObjectiveTerm::SigmoidPenalty {
            weight: 1.0,
            steepness: 300.0,
            inner: Signomial::linear(VarId(0), 1.0),
        });
        obj.push(ObjectiveTerm::Signomial(Signomial::constant(1.0)));
        obj.set_sigmoid_steepness(10.0);
        assert!(matches!(
            obj.terms()[0],
            ObjectiveTerm::SigmoidPenalty { steepness, .. } if steepness == 10.0
        ));
        assert_eq!(
            obj.terms()[1],
            ObjectiveTerm::Signomial(Signomial::constant(1.0))
        );
    }

    #[test]
    fn from_signomial_wraps_single_term() {
        let obj: CompositeObjective = Signomial::constant(3.0).into();
        assert_eq!(obj.terms().len(), 1);
        assert_eq!(obj.eval(&[]), 3.0);
    }
}
