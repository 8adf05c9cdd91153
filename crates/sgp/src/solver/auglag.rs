//! Augmented Lagrangian solver for inequality constraints.
//!
//! Uses the standard Rockafellar form for `g_i(x) <= 0`:
//!
//! ```text
//! L(x, λ, μ) = f0(x) + Σ_i ψ(g_i(x), λ_i, μ)
//! ψ(g, λ, μ) = (max(0, λ + μ g)² − λ²) / (2 μ)
//! ```
//!
//! with the multiplier update `λ_i ← max(0, λ_i + μ g_i(x))` after each
//! inner solve. Compared to the exterior penalty, multiplier estimates let
//! a *moderate* `μ` achieve feasibility, avoiding the ill-conditioning of
//! very large penalty coefficients on badly scaled vote constraints.

use crate::compiled::CompiledProblem;
use crate::fault;
use crate::problem::SgpProblem;
use crate::solver::adam::AdamOptimizer;
use crate::solver::{
    check_problem, finish, ConvergenceReason, InnerOptimizer, InnerParams, SolveError,
    SolveOptions, SolveResult, Solver,
};
use std::time::Instant;

/// Augmented-Lagrangian solver parameterized by its inner optimizer.
#[derive(Debug, Clone, Default)]
pub struct AugLagSolver<I = AdamOptimizer> {
    /// The smooth box-constrained minimizer used for each subproblem.
    pub inner: I,
}

impl AugLagSolver<AdamOptimizer> {
    /// Creates an augmented-Lagrangian solver with the default
    /// projected-Adam inner optimizer.
    pub fn new() -> Self {
        AugLagSolver::default()
    }
}

impl<I: InnerOptimizer> AugLagSolver<I> {
    /// Creates an augmented-Lagrangian solver around the given inner
    /// optimizer.
    pub fn with_inner(inner: I) -> Self {
        AugLagSolver { inner }
    }
}

impl<I: InnerOptimizer> Solver for AugLagSolver<I> {
    fn solve(&self, problem: &SgpProblem, opts: &SolveOptions) -> Result<SolveResult, SolveError> {
        let _span = kg_telemetry::span!("votekg.sgp.auglag", {
            vars: problem.n_vars(),
            constraints: problem.n_constraints(),
        });
        // Clock starts before the fault hook: an injected delay must
        // count against the time budget, like any slow pre-solve work.
        let start = Instant::now();
        let injected = fault::begin_solve(self.inner.name())?;
        let mut x = check_problem(problem)?;
        let mut kernel = CompiledProblem::new(problem);
        let deadline = opts.time_budget.map(|b| start + b);
        let params = InnerParams::from_options(opts, deadline);
        let m = problem.n_constraints();
        let mut lambda = vec![0.0f64; m];
        let mut mu = opts.penalty_init;
        let mut inner_total = 0usize;
        let mut outer = 0usize;
        let mut reason = ConvergenceReason::MaxOuterIters;
        let mut prev_violation = f64::INFINITY;
        let mut trace = Vec::new();

        for round in 0..opts.max_outer_iters.max(1) {
            outer = round + 1;
            let mut merit = |x: &[f64], grad: &mut [f64]| kernel.auglag_merit(x, &lambda, mu, grad);
            let r = self.inner.minimize(&mut merit, &problem.vars, &x, &params);
            inner_total += r.iterations;
            x = r.x;

            let viol = problem.max_violation(&x);
            trace.push(crate::solver::OuterRound {
                objective: problem.objective.eval(&x),
                max_violation: viol,
                penalty: mu,
                inner_iterations: r.iterations,
            });
            // Budget first: an unconstrained problem is always "feasible",
            // and a truncated descent must report TimeBudget so callers can
            // tell a best-effort iterate from a converged one.
            if let Some(budget) = opts.time_budget {
                if start.elapsed() >= budget {
                    reason = ConvergenceReason::TimeBudget;
                    break;
                }
            }
            if viol <= opts.feas_tol {
                reason = ConvergenceReason::Feasible;
                break;
            }
            // Multiplier update.
            for (i, c) in problem.constraints.iter().enumerate() {
                lambda[i] = (lambda[i] + mu * c.expr.eval(&x)).max(0.0);
            }
            // Grow μ only when feasibility stalls (classic LANCELOT rule).
            if viol > 0.25 * prev_violation {
                mu *= opts.penalty_growth;
            }
            prev_violation = viol;
        }

        let mut result = finish(
            problem,
            &mut kernel,
            format!("auglag+{}", self.inner.name()),
            x,
            inner_total,
            outer,
            opts.feas_tol,
            start.elapsed(),
            trace,
            reason,
        );
        fault::corrupt_result(problem, opts.feas_tol, injected, &mut result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use crate::signomial::Signomial;
    use crate::var::VarSpace;

    #[test]
    fn active_constraint_binds() {
        // minimize (x - 2)^2 s.t. x <= 1 -> x* = 1.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 10.0);
        let obj =
            Signomial::power(x, 2.0, 1.0) + Signomial::linear(x, -4.0) + Signomial::constant(4.0);
        let mut p = SgpProblem::new(vars, obj.into());
        p.add_constraint_leq_zero(Signomial::linear(x, 1.0) - Signomial::constant(1.0), "x<=1");
        let r = AugLagSolver::<AdamOptimizer>::default()
            .solve(&p, &SolveOptions::default())
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 5e-3, "{:?}", r.x);
    }

    #[test]
    fn inactive_constraint_is_ignored() {
        // minimize (x - 0.3)^2 s.t. x <= 0.9: constraint slack at optimum.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.8, 0.01, 1.0);
        let obj =
            Signomial::power(x, 2.0, 1.0) + Signomial::linear(x, -0.6) + Signomial::constant(0.09);
        let mut p = SgpProblem::new(vars, obj.into());
        p.add_constraint_leq_zero(
            Signomial::linear(x, 1.0) - Signomial::constant(0.9),
            "x<=0.9",
        );
        let r = AugLagSolver::<AdamOptimizer>::default()
            .solve(&p, &SolveOptions::default())
            .unwrap();
        assert!((r.x[0] - 0.3).abs() < 1e-3, "{:?}", r.x);
        assert!(r.feasible);
    }

    #[test]
    fn signomial_constraint_with_product_terms() {
        // minimize (x-0.9)^2 + (y-0.9)^2 s.t. x*y <= 0.25 -> x=y=0.5.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.3, 0.01, 1.0);
        let y = vars.add("y", 0.7, 0.01, 1.0);
        let obj = Signomial::power(x, 2.0, 1.0)
            + Signomial::linear(x, -1.8)
            + Signomial::power(y, 2.0, 1.0)
            + Signomial::linear(y, -1.8)
            + Signomial::constant(2.0 * 0.81);
        let mut p = SgpProblem::new(vars, obj.into());
        p.add_constraint_leq_zero(
            Signomial::from(Monomial::new(1.0, [(x, 1.0), (y, 1.0)])) - Signomial::constant(0.25),
            "xy<=0.25",
        );
        let opts = SolveOptions {
            max_inner_iters: 2000,
            ..Default::default()
        };
        let r = AugLagSolver::<AdamOptimizer>::default()
            .solve(&p, &opts)
            .unwrap();
        assert!(r.max_violation < 1e-2, "viol {}", r.max_violation);
        assert!((r.x[0] * r.x[1] - 0.25).abs() < 2e-2, "{:?}", r.x);
        // Symmetric problem, symmetric solution.
        assert!((r.x[0] - r.x[1]).abs() < 5e-2, "{:?}", r.x);
    }

    #[test]
    fn matches_penalty_solver_on_shared_problem() {
        let build = || {
            let mut vars = VarSpace::new();
            let x = vars.add("x", 0.5, 0.01, 10.0);
            let obj = Signomial::power(x, 2.0, 1.0)
                + Signomial::linear(x, -4.0)
                + Signomial::constant(4.0);
            let mut p = SgpProblem::new(vars, obj.into());
            p.add_constraint_leq_zero(Signomial::linear(x, 1.0) - Signomial::constant(1.0), "x<=1");
            p
        };
        let opts = SolveOptions::default();
        let a = AugLagSolver::<AdamOptimizer>::default()
            .solve(&build(), &opts)
            .unwrap();
        let b = crate::solver::penalty::PenaltySolver::<AdamOptimizer>::default()
            .solve(&build(), &opts)
            .unwrap();
        assert!((a.x[0] - b.x[0]).abs() < 1e-2, "{} vs {}", a.x[0], b.x[0]);
    }

    #[test]
    fn empty_problem_errors() {
        let p = SgpProblem::new(VarSpace::new(), Signomial::zero().into());
        assert!(AugLagSolver::<AdamOptimizer>::default()
            .solve(&p, &SolveOptions::default())
            .is_err());
    }
}
