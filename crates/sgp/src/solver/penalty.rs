//! Exterior quadratic penalty method.
//!
//! Minimizes `f0(x) + ρ Σ_i max(0, g_i(x))²`, repeatedly increasing `ρ`
//! until the iterate is feasible or the round budget is exhausted. This is
//! the workhorse for the single-vote solution, whose constraints (Eq. 11)
//! must actually be *satisfied*, not merely discouraged.

use crate::compiled::CompiledProblem;
use crate::fault;
use crate::problem::SgpProblem;
use crate::solver::adam::AdamOptimizer;
use crate::solver::{
    check_problem, finish, ConvergenceReason, InnerOptimizer, InnerParams, SolveError,
    SolveOptions, SolveResult, Solver,
};
use std::time::Instant;

/// Exterior penalty solver parameterized by its inner optimizer.
#[derive(Debug, Clone, Default)]
pub struct PenaltySolver<I = AdamOptimizer> {
    /// The smooth box-constrained minimizer used for each subproblem.
    pub inner: I,
}

impl PenaltySolver<AdamOptimizer> {
    /// Creates a penalty solver with the default projected-Adam inner
    /// optimizer.
    pub fn new() -> Self {
        PenaltySolver::default()
    }
}

impl<I: InnerOptimizer> PenaltySolver<I> {
    /// Creates a penalty solver around the given inner optimizer.
    pub fn with_inner(inner: I) -> Self {
        PenaltySolver { inner }
    }
}

impl<I: InnerOptimizer> Solver for PenaltySolver<I> {
    fn solve(&self, problem: &SgpProblem, opts: &SolveOptions) -> Result<SolveResult, SolveError> {
        let _span = kg_telemetry::span!("votekg.sgp.penalty", {
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
        let mut rho = opts.penalty_init;
        let mut inner_total = 0usize;
        let mut outer = 0usize;
        let mut reason = ConvergenceReason::MaxOuterIters;
        let mut trace = Vec::new();

        for round in 0..opts.max_outer_iters.max(1) {
            outer = round + 1;
            let mut merit = |x: &[f64], grad: &mut [f64]| kernel.penalty_merit(x, rho, grad);
            let r = self.inner.minimize(&mut merit, &problem.vars, &x, &params);
            inner_total += r.iterations;
            x = r.x;

            let violation = problem.max_violation(&x);
            trace.push(crate::solver::OuterRound {
                objective: problem.objective.eval(&x),
                max_violation: violation,
                penalty: rho,
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
            if violation <= opts.feas_tol {
                reason = ConvergenceReason::Feasible;
                break;
            }
            rho *= opts.penalty_growth;
        }

        let mut result = finish(
            problem,
            &mut kernel,
            format!("penalty+{}", self.inner.name()),
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
    use crate::signomial::Signomial;
    use crate::var::VarSpace;

    #[test]
    fn unconstrained_quadratic_reaches_minimum() {
        // minimize (x - 0.4)^2, no constraints.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.9, 0.01, 1.0);
        let obj =
            Signomial::power(x, 2.0, 1.0) + Signomial::linear(x, -0.8) + Signomial::constant(0.16);
        let p = SgpProblem::new(vars, obj.into());
        let r = PenaltySolver::<AdamOptimizer>::default()
            .solve(&p, &SolveOptions::default())
            .unwrap();
        assert!(r.feasible);
        assert_eq!(r.reason, ConvergenceReason::Feasible);
        assert!(r.grad_norm.is_finite());
        assert!((r.x[0] - 0.4).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn active_constraint_binds() {
        // minimize (x - 2)^2 s.t. x <= 1 on [0.01, 10] -> x* = 1.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 10.0);
        let obj =
            Signomial::power(x, 2.0, 1.0) + Signomial::linear(x, -4.0) + Signomial::constant(4.0);
        let mut p = SgpProblem::new(vars, obj.into());
        p.add_constraint_leq_zero(Signomial::linear(x, 1.0) - Signomial::constant(1.0), "x<=1");
        let r = PenaltySolver::<AdamOptimizer>::default()
            .solve(&p, &SolveOptions::default())
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 5e-3, "{:?}", r.x);
        assert!(r.max_violation < 1e-2);
    }

    #[test]
    fn gp_example_two_variables() {
        // minimize 1/(x y) s.t. x + y <= 1  -> x = y = 0.5, objective 4.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.2, 0.01, 1.0);
        let y = vars.add("y", 0.7, 0.01, 1.0);
        let obj = Signomial::from(crate::monomial::Monomial::new(1.0, [(x, -1.0), (y, -1.0)]));
        let mut p = SgpProblem::new(vars, obj.into());
        p.add_constraint_leq_zero(
            Signomial::linear(x, 1.0) + Signomial::linear(y, 1.0) - Signomial::constant(1.0),
            "x+y<=1",
        );
        let opts = SolveOptions {
            max_inner_iters: 2000,
            ..Default::default()
        };
        let r = PenaltySolver::<AdamOptimizer>::default()
            .solve(&p, &opts)
            .unwrap();
        assert!((r.x[0] - 0.5).abs() < 0.02, "{:?}", r.x);
        assert!((r.x[1] - 0.5).abs() < 0.02, "{:?}", r.x);
        assert!((r.objective - 4.0).abs() < 0.2);
    }

    #[test]
    fn infeasible_problem_reports_violation() {
        // x <= 0.2 and x >= 0.8 cannot both hold.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 1.0);
        let mut p = SgpProblem::new(vars, Signomial::zero().into());
        p.add_constraint_leq_zero(
            Signomial::linear(x, 1.0) - Signomial::constant(0.2),
            "x<=0.2",
        );
        p.add_constraint_leq_zero(
            Signomial::constant(0.8) - Signomial::linear(x, 1.0),
            "x>=0.8",
        );
        let r = PenaltySolver::<AdamOptimizer>::default()
            .solve(&p, &SolveOptions::default())
            .unwrap();
        assert!(!r.feasible);
        assert_eq!(r.reason, ConvergenceReason::MaxOuterIters);
        assert!(r.max_violation > 0.1);
        assert!(r.violated_constraints >= 1);
    }

    #[test]
    fn empty_problem_errors() {
        let p = SgpProblem::new(VarSpace::new(), Signomial::zero().into());
        assert_eq!(
            PenaltySolver::<AdamOptimizer>::default()
                .solve(&p, &SolveOptions::default())
                .unwrap_err(),
            SolveError::EmptyProblem
        );
    }

    #[test]
    fn time_budget_short_circuits() {
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 1.0);
        let mut p = SgpProblem::new(vars, Signomial::zero().into());
        // Unsatisfiable to force all outer rounds.
        p.add_constraint_leq_zero(Signomial::constant(2.0) - Signomial::linear(x, 1.0), "x>=2");
        let opts = SolveOptions {
            time_budget: Some(std::time::Duration::from_millis(0)),
            ..Default::default()
        };
        let r = PenaltySolver::<AdamOptimizer>::default()
            .solve(&p, &opts)
            .unwrap();
        assert_eq!(r.outer_iterations, 1);
        assert_eq!(r.reason, ConvergenceReason::TimeBudget);
    }

    #[test]
    fn time_budget_bounds_inner_iterations() {
        // The deadline reaches the inner loop: an expired budget stops a
        // huge inner iteration allowance almost immediately instead of
        // overshooting by a full inner round.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 1.0);
        let mut p = SgpProblem::new(vars, Signomial::zero().into());
        p.add_constraint_leq_zero(Signomial::constant(2.0) - Signomial::linear(x, 1.0), "x>=2");
        let opts = SolveOptions {
            max_inner_iters: 10_000_000,
            step_tol: 0.0,
            time_budget: Some(std::time::Duration::from_millis(0)),
            ..Default::default()
        };
        let r = PenaltySolver::<AdamOptimizer>::default()
            .solve(&p, &opts)
            .unwrap();
        assert_eq!(r.reason, ConvergenceReason::TimeBudget);
        assert!(
            r.inner_iterations <= 1,
            "inner loop overshot the deadline: {} iterations",
            r.inner_iterations
        );
        assert!(r.x.iter().all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::signomial::Signomial;
    use crate::var::VarSpace;

    #[test]
    fn trace_records_every_outer_round() {
        // Unsatisfiable constraint forces all outer rounds with growing rho.
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 1.0);
        let mut p = SgpProblem::new(vars, Signomial::zero().into());
        p.add_constraint_leq_zero(Signomial::constant(2.0) - Signomial::linear(x, 1.0), "x>=2");
        let opts = SolveOptions {
            max_outer_iters: 4,
            ..SolveOptions::default()
        };
        let r = PenaltySolver::new().solve(&p, &opts).unwrap();
        assert_eq!(r.trace.len(), 4);
        // Penalty grows monotonically across rounds.
        for w in r.trace.windows(2) {
            assert!(w[1].penalty > w[0].penalty);
        }
        // The recorded final violation matches the result.
        assert!((r.trace.last().unwrap().max_violation - r.max_violation).abs() < 1e-12);
    }

    #[test]
    fn feasible_solve_stops_tracing_early() {
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 1.0);
        let mut p = SgpProblem::new(vars, Signomial::zero().into());
        p.add_constraint_leq_zero(
            Signomial::linear(x, 1.0) - Signomial::constant(0.9),
            "x<=0.9",
        );
        let r = PenaltySolver::new()
            .solve(&p, &SolveOptions::default())
            .unwrap();
        assert_eq!(r.trace.len(), 1);
        assert!(r.feasible);
    }
}
