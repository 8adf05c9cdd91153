//! The compiled merit kernel: an [`SgpProblem`] flattened once per solve
//! so the inner optimizer's hundreds of merit calls each cost a few
//! passes over flat arrays and allocate nothing.
//!
//! The symbolic [`Signomial`] path evaluates a sigmoid term's inner
//! expression three times per call (value, slope, gradient) and sweeps a
//! dense `n_vars` scratch vector per active term. Here every monomial is
//! evaluated once per call, and each sigmoid term sends a partial straight
//! to the gradient when its variable occurs in no other factor of the
//! term, and otherwise sums it in a local slot of that variable first, so
//! a call costs O(factors + sigmoid terms) instead of O(sigmoid terms ×
//! variables). Loops run over the flat factor array rather than nested
//! per monomial, so short monomials cost no inner-loop exits.
//!
//! **Bit-identity contract.** Values and gradients are the symbolic
//! path's to the bit: the same f64 operations in the same order —
//! monomials multiplied factor by factor, sums folded from `-0.0` in term
//! order (as `Iterator::sum` does), a sigmoid term's inner gradient
//! summed per variable before it is scaled by the slope. One deliberate
//! difference: at a non-finite sigmoid slope the symbolic dense sweep
//! smeared NaN over every coordinate, while this kernel keeps it to the
//! term's own variables. The slope is non-finite only when the merit
//! value is too (for finite term weights and steepness), and every inner
//! optimizer discards the gradient of a non-finite merit.
//! `tests/proptest_sgp.rs` pins the contract against a copy of the
//! symbolic formula; the vote pipeline's golden rankings and benchmark
//! weight checksums pin it end to end.

use crate::objective::ObjectiveTerm;
use crate::problem::SgpProblem;
use crate::sigmoid::sigmoid;
use crate::signomial::Signomial;
use std::ops::Range;

/// One objective term, pointing into the flat arrays.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// A plain signomial: expression index.
    Signomial { expr: usize },
    /// `weight · Σ (x_j − x0_j)²` over `anchor_var/anchor_x0[start..end]`.
    Proximal {
        weight: f64,
        start: usize,
        end: usize,
    },
    /// `weight · σ(steepness · expr(x))`; the variables several of the
    /// term's factors share are `local_var[start..end]`.
    Sigmoid {
        weight: f64,
        steepness: f64,
        expr: usize,
        start: usize,
        end: usize,
    },
}

/// The slot of a factor whose variable occurs in no other factor of its
/// sigmoid term (or that belongs to no sigmoid term).
const DIRECT: u32 = u32::MAX;

/// One factor `x_var^exp` of monomial `mono`.
#[derive(Debug, Clone, Copy)]
struct Factor {
    mono: u32,
    var: u32,
    /// Inside a sigmoid term: the local gradient slot of `var` when
    /// other factors of the term share it, else [`DIRECT`].
    slot: u32,
    exp: f64,
}

/// `x^exp`, as `Monomial::eval` computes each factor.
#[inline]
fn power(x: f64, exp: f64) -> f64 {
    if exp == 1.0 {
        x
    } else {
        x.powf(exp)
    }
}

/// The immutable flattened program. Expressions are stored in order —
/// the objective's first, then one per constraint — and so are their
/// monomials and factors.
#[derive(Debug, Default)]
struct Program {
    /// Per monomial: coefficient; its factors are
    /// `factors[factor_start[k]..factor_start[k + 1]]`.
    coeff: Vec<f64>,
    factor_start: Vec<usize>,
    factors: Vec<Factor>,
    /// Per expression: its monomials are `expr_start[e]..expr_start[e + 1]`.
    expr_start: Vec<usize>,
    terms: Vec<Term>,
    /// Constraint `i` is expression `first_constraint + i`.
    first_constraint: usize,
    anchor_var: Vec<u32>,
    anchor_x0: Vec<f64>,
    local_var: Vec<u32>,
}

impl Program {
    fn n_exprs(&self) -> usize {
        self.expr_start.len() - 1
    }

    /// Appends `s` as one expression and returns its index.
    fn push_expr(&mut self, s: &Signomial) -> usize {
        for m in s.terms() {
            let mono = self.coeff.len() as u32;
            self.coeff.push(m.coeff);
            for &(v, exp) in &m.powers {
                self.factors.push(Factor {
                    mono,
                    var: v.0,
                    slot: DIRECT,
                    exp,
                });
            }
            self.factor_start.push(self.factors.len());
        }
        self.expr_start.push(self.coeff.len());
        self.n_exprs() - 1
    }

    /// Gives each variable that more than one factor of expression `e`
    /// shares a local slot, appended to `local_var` in first-appearance
    /// order, so its partials are summed before the sigmoid slope scales
    /// them. `count` and `slot_of` are scratch indexed by variable, left
    /// as they were found (zeros and [`DIRECT`]).
    fn assign_slots(&mut self, e: usize, count: &mut Vec<u32>, slot_of: &mut Vec<u32>) {
        let start = self.local_var.len();
        let factors =
            self.factor_start[self.expr_start[e]]..self.factor_start[self.expr_start[e + 1]];
        for f in &self.factors[factors.clone()] {
            let v = f.var as usize;
            if v >= count.len() {
                count.resize(v + 1, 0);
                slot_of.resize(v + 1, DIRECT);
            }
            count[v] += 1;
        }
        for f in &mut self.factors[factors.clone()] {
            let v = f.var as usize;
            if count[v] > 1 {
                if slot_of[v] == DIRECT {
                    slot_of[v] = (self.local_var.len() - start) as u32;
                    self.local_var.push(f.var);
                }
                f.slot = slot_of[v];
            }
        }
        for f in &self.factors[factors] {
            count[f.var as usize] = 0;
            slot_of[f.var as usize] = DIRECT;
        }
    }

    fn monomials(&self, e: usize) -> Range<usize> {
        self.expr_start[e]..self.expr_start[e + 1]
    }

    fn expr_factors(&self, e: usize) -> &[Factor] {
        &self.factors
            [self.factor_start[self.expr_start[e]]..self.factor_start[self.expr_start[e + 1]]]
    }

    /// Evaluates monomials `monos` into `mono_val` (`Monomial::eval`:
    /// the coefficient times each factor in order).
    #[inline]
    fn eval_monomials(&self, monos: Range<usize>, x: &[f64], mono_val: &mut [f64]) {
        let factors = &self.factors[self.factor_start[monos.start]..self.factor_start[monos.end]];
        mono_val[monos.clone()].copy_from_slice(&self.coeff[monos]);
        for f in factors {
            mono_val[f.mono as usize] *= power(x[f.var as usize], f.exp);
        }
    }

    /// `Signomial::eval` of expression `e` from its monomial values.
    #[inline]
    fn expr_sum(&self, e: usize, mono_val: &[f64]) -> f64 {
        let mut sum = -0.0;
        for &v in &mono_val[self.monomials(e)] {
            sum += v;
        }
        sum
    }

    /// `∂m/∂x_j` of factor `f = x_j^e` of monomial `m`, given `m(x)` in
    /// `mono_val`: `e · m(x) / x_j`, as `Monomial::accumulate_grad_scaled`
    /// computes it.
    #[inline]
    fn partial(&self, f: Factor, x: &[f64], mono_val: &[f64]) -> f64 {
        let xv = x[f.var as usize];
        if xv != 0.0 {
            f.exp * mono_val[f.mono as usize] / xv
        } else {
            self.partial_at_zero(f, x)
        }
    }

    /// The `x_j = 0` fallback: the partial product without `x_j`.
    #[cold]
    fn partial_at_zero(&self, f: Factor, x: &[f64]) -> f64 {
        let k = f.mono as usize;
        let mut v = self.coeff[k] * f.exp;
        if f.exp != 1.0 {
            v *= x[f.var as usize].powf(f.exp - 1.0); // 0 unless exp == 1
        }
        for o in &self.factors[self.factor_start[k]..self.factor_start[k + 1]] {
            if o.var != f.var {
                v *= power(x[o.var as usize], o.exp);
            }
        }
        v
    }

    /// Adds `scale · ∇expr_e(x)` into `grad`; `mono_val` must hold the
    /// expression's monomial values at `x`.
    #[inline]
    fn expr_grad(&self, e: usize, x: &[f64], scale: f64, mono_val: &[f64], grad: &mut [f64]) {
        for &f in self.expr_factors(e) {
            grad[f.var as usize] += scale * self.partial(f, x, mono_val);
        }
    }

    /// Constraint expression `e`'s value, leaving its monomial values in
    /// `mono_val` for the gradient.
    fn constraint_value(&self, e: usize, x: &[f64], mono_val: &mut [f64]) -> f64 {
        self.eval_monomials(self.monomials(e), x, mono_val);
        self.expr_sum(e, mono_val)
    }
}

/// An [`SgpProblem`] compiled for repeated value-and-gradient evaluation
/// (see the module docs). Compile once per solve with
/// [`CompiledProblem::new`]; every evaluation afterwards reuses its
/// scratch buffers.
#[derive(Debug)]
pub struct CompiledProblem {
    prog: Program,
    /// Per monomial: its value at the last evaluated point.
    mono_val: Vec<f64>,
    /// Inner-gradient slots of the sigmoid term being evaluated (one per
    /// shared variable); all zero between terms (the scatter clears what
    /// it reads).
    local_grad: Vec<f64>,
}

impl CompiledProblem {
    /// Flattens `problem`'s objective and constraints.
    pub fn new(problem: &SgpProblem) -> Self {
        let mut prog = Program {
            factor_start: vec![0],
            expr_start: vec![0],
            ..Program::default()
        };
        let (mut count, mut slot_of) = (Vec::new(), Vec::new());
        let mut max_locals = 0;
        for term in problem.objective.terms() {
            let t = match term {
                ObjectiveTerm::Signomial(s) => Term::Signomial {
                    expr: prog.push_expr(s),
                },
                ObjectiveTerm::QuadraticProximal { weight, anchors } => {
                    let start = prog.anchor_var.len();
                    for &(v, x0) in anchors {
                        prog.anchor_var.push(v.0);
                        prog.anchor_x0.push(x0);
                    }
                    Term::Proximal {
                        weight: *weight,
                        start,
                        end: prog.anchor_var.len(),
                    }
                }
                ObjectiveTerm::SigmoidPenalty {
                    weight,
                    steepness,
                    inner,
                } => {
                    let start = prog.local_var.len();
                    let expr = prog.push_expr(inner);
                    prog.assign_slots(expr, &mut count, &mut slot_of);
                    let end = prog.local_var.len();
                    max_locals = max_locals.max(end - start);
                    Term::Sigmoid {
                        weight: *weight,
                        steepness: *steepness,
                        expr,
                        start,
                        end,
                    }
                }
            };
            prog.terms.push(t);
        }
        prog.first_constraint = prog.n_exprs();
        for c in &problem.constraints {
            prog.push_expr(&c.expr);
        }
        CompiledProblem {
            mono_val: vec![0.0; prog.coeff.len()],
            local_grad: vec![0.0; max_locals],
            prog,
        }
    }

    /// The objective's value at `x`, adding its gradient into `grad`.
    pub fn objective(&mut self, x: &[f64], grad: &mut [f64]) -> f64 {
        let CompiledProblem {
            prog,
            mono_val,
            local_grad,
        } = self;
        // Every objective monomial is needed for the value: evaluate them
        // all in one pass, then sum and differentiate per term.
        prog.eval_monomials(0..prog.expr_start[prog.first_constraint], x, mono_val);
        let mut value = -0.0;
        for &term in &prog.terms {
            value += match term {
                Term::Signomial { expr } => {
                    prog.expr_grad(expr, x, 1.0, mono_val, grad);
                    prog.expr_sum(expr, mono_val)
                }
                Term::Proximal { weight, start, end } => {
                    let anchors = prog.anchor_var[start..end].iter();
                    let mut sum = -0.0;
                    for (&v, &x0) in anchors.zip(&prog.anchor_x0[start..end]) {
                        let d = x[v as usize] - x0;
                        sum += d * d;
                        grad[v as usize] += 2.0 * weight * d;
                    }
                    weight * sum
                }
                Term::Sigmoid {
                    weight,
                    steepness,
                    expr,
                    start,
                    end,
                } => {
                    let s = sigmoid(prog.expr_sum(expr, mono_val), steepness);
                    // weight · sigmoid_grad, with the sigmoid computed once.
                    let outer = weight * (steepness * s * (1.0 - s));
                    if outer != 0.0 {
                        let local = &mut local_grad[..end - start];
                        for &f in prog.expr_factors(expr) {
                            let d = prog.partial(f, x, mono_val);
                            if f.slot == DIRECT {
                                // The variable's only factor here: its
                                // inner gradient is 0 + d.
                                grad[f.var as usize] += outer * (0.0 + d);
                            } else {
                                local[f.slot as usize] += d;
                            }
                        }
                        for (&v, ig) in prog.local_var[start..end].iter().zip(local) {
                            grad[v as usize] += outer * *ig;
                            *ig = 0.0;
                        }
                    }
                    weight * s
                }
            };
        }
        value
    }

    /// The exterior-penalty merit `f0(x) + ρ Σ_i max(0, g_i(x))²`, adding
    /// its gradient into `grad`.
    pub fn penalty_merit(&mut self, x: &[f64], rho: f64, grad: &mut [f64]) -> f64 {
        let mut v = self.objective(x, grad);
        let CompiledProblem { prog, mono_val, .. } = self;
        for e in prog.first_constraint..prog.n_exprs() {
            let g = prog.constraint_value(e, x, mono_val);
            if g > 0.0 {
                v += rho * g * g;
                prog.expr_grad(e, x, 2.0 * rho * g, mono_val, grad);
            }
        }
        v
    }

    /// The augmented-Lagrangian merit `f0(x) + Σ_i ψ(g_i(x), λ_i, μ)`
    /// (see [`crate::AugLagSolver`]), adding its gradient into `grad`.
    /// `lambda` holds one multiplier per constraint.
    pub fn auglag_merit(&mut self, x: &[f64], lambda: &[f64], mu: f64, grad: &mut [f64]) -> f64 {
        let mut v = self.objective(x, grad);
        let CompiledProblem { prog, mono_val, .. } = self;
        for (e, &l) in (prog.first_constraint..prog.n_exprs()).zip(lambda) {
            let g = prog.constraint_value(e, x, mono_val);
            let t = l + mu * g;
            if t > 0.0 {
                v += (t * t - l * l) / (2.0 * mu);
                prog.expr_grad(e, x, t, mono_val, grad);
            } else {
                v -= l * l / (2.0 * mu);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use crate::objective::CompositeObjective;
    use crate::var::{VarId, VarSpace};

    fn problem(objective: CompositeObjective) -> SgpProblem {
        SgpProblem::new(VarSpace::new(), objective)
    }

    #[test]
    fn only_shared_variables_get_a_sigmoid_slot() {
        // x2 appears in both monomials: one slot, both partials summed;
        // x0 appears once and goes straight to the gradient.
        let inner = Signomial::from_terms(vec![
            Monomial::new(1.0, [(VarId(0), 1.0), (VarId(2), 1.0)]),
            Monomial::new(-1.0, [(VarId(2), 2.0)]),
        ]);
        let mut obj = CompositeObjective::new();
        obj.push(ObjectiveTerm::SigmoidPenalty {
            weight: 1.0,
            steepness: 2.0,
            inner,
        });
        let c = CompiledProblem::new(&problem(obj));
        assert_eq!(c.prog.local_var, vec![2]);
        let slots: Vec<u32> = c.prog.factors.iter().map(|f| f.slot).collect();
        assert_eq!(slots, vec![DIRECT, 0, 0]);
        assert_eq!(c.local_grad.len(), 1);
    }
}
