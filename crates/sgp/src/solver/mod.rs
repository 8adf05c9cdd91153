//! Solvers for [`SgpProblem`]s.
//!
//! Two-layer architecture, mirroring how `fmincon`-class solvers handle
//! nonlinear inequality constraints:
//!
//! * an **inner optimizer** ([`InnerOptimizer`]) minimizes a smooth
//!   unconstrained function over the variable box (projected Adam by
//!   default, projected gradient with Armijo backtracking as an
//!   alternative);
//! * an **outer loop** folds the inequality constraints into that smooth
//!   function — either an exterior quadratic penalty
//!   ([`penalty::PenaltySolver`]) or an augmented Lagrangian
//!   ([`auglag::AugLagSolver`]) — and re-solves with growing pressure
//!   until the iterate is feasible.

pub mod adam;
pub mod auglag;
pub mod lbfgs;
pub mod penalty;
pub mod projgrad;

use crate::compiled::CompiledProblem;
use crate::problem::SgpProblem;
use crate::var::VarSpace;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// Tuning knobs shared by all solvers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Maximum outer (penalty / multiplier update) rounds.
    pub max_outer_iters: usize,
    /// Maximum inner optimizer steps per outer round.
    pub max_inner_iters: usize,
    /// Inner optimizer step size.
    pub learning_rate: f64,
    /// Inner convergence: stop when the iterate moves less than this
    /// (infinity norm) between steps.
    pub step_tol: f64,
    /// Feasibility tolerance on constraint violations.
    pub feas_tol: f64,
    /// Initial penalty coefficient ρ (penalty solver) or μ (aug. Lagrangian).
    pub penalty_init: f64,
    /// Multiplicative growth of the penalty coefficient per outer round.
    pub penalty_growth: f64,
    /// Optional wall-clock budget; the solver returns its best iterate
    /// when exceeded (used by the scaling experiments).
    pub time_budget: Option<Duration>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_outer_iters: 12,
            max_inner_iters: 400,
            learning_rate: 0.02,
            step_tol: 1e-7,
            feas_tol: 1e-6,
            penalty_init: 10.0,
            penalty_growth: 5.0,
            time_budget: None,
        }
    }
}

impl SolveOptions {
    /// A cheaper profile for large batch experiments: fewer, larger steps.
    pub fn fast() -> Self {
        SolveOptions {
            max_outer_iters: 6,
            max_inner_iters: 150,
            learning_rate: 0.05,
            step_tol: 1e-6,
            ..Self::default()
        }
    }
}

/// One outer round's telemetry: how objective and feasibility evolved.
/// Useful for diagnosing stalled solves and tuning penalty growth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OuterRound {
    /// Objective value (without penalty terms) after the round.
    pub objective: f64,
    /// Largest constraint violation after the round.
    pub max_violation: f64,
    /// Penalty coefficient (ρ or μ) used during the round.
    pub penalty: f64,
    /// Inner iterations spent in the round.
    pub inner_iterations: usize,
}

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConvergenceReason {
    /// Constraint violations dropped within the feasibility tolerance.
    Feasible,
    /// All outer rounds were spent without reaching feasibility.
    MaxOuterIters,
    /// The wall-clock budget ran out first.
    TimeBudget,
}

impl ConvergenceReason {
    /// Stable label used in telemetry and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ConvergenceReason::Feasible => "feasible",
            ConvergenceReason::MaxOuterIters => "max_outer_iters",
            ConvergenceReason::TimeBudget => "time_budget",
        }
    }
}

impl fmt::Display for ConvergenceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveResult {
    /// The final (projected, feasible-or-best-effort) point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// L2 norm of the objective gradient at `x` (stationarity indicator;
    /// excludes penalty terms, so a binding constraint keeps it nonzero).
    pub grad_norm: f64,
    /// Largest constraint violation at `x`.
    pub max_violation: f64,
    /// Number of constraints violated beyond the feasibility tolerance.
    pub violated_constraints: usize,
    /// Total inner optimizer steps across all outer rounds.
    pub inner_iterations: usize,
    /// Outer rounds performed.
    pub outer_iterations: usize,
    /// True when the result satisfies all constraints within tolerance.
    pub feasible: bool,
    /// Why the outer loop stopped.
    pub reason: ConvergenceReason,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Which solver combination produced this result, as
    /// `"<outer>+<inner>"` (e.g. `"penalty+adam"`). Lets downstream
    /// consumers — reports, repro files, the differential fuzz harness —
    /// attribute a result without threading the configuration alongside.
    pub solver: String,
    /// Per-outer-round telemetry, in execution order.
    pub trace: Vec<OuterRound>,
}

/// Errors raised by solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The problem has no variables to optimize.
    EmptyProblem,
    /// The objective or a constraint evaluated to a non-finite value at
    /// the initial point — the encoding is broken.
    NonFiniteAtStart,
    /// A fault injected by the test harness ([`crate::fault`]).
    Injected,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::EmptyProblem => write!(f, "problem has no variables"),
            SolveError::NonFiniteAtStart => {
                write!(f, "objective or constraint non-finite at the initial point")
            }
            SolveError::Injected => write!(f, "injected fault (test harness)"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A constrained solver.
pub trait Solver {
    /// Minimizes `problem`'s objective subject to its constraints and box.
    fn solve(&self, problem: &SgpProblem, opts: &SolveOptions) -> Result<SolveResult, SolveError>;
}

/// Result of one inner minimization.
#[derive(Debug, Clone)]
pub struct InnerResult {
    /// Final point (inside the box).
    pub x: Vec<f64>,
    /// Final merit value.
    pub value: f64,
    /// Steps taken.
    pub iterations: usize,
}

/// Per-call parameters for an inner minimization.
///
/// Bundles the step budget with an optional wall-clock `deadline` so the
/// inner loop — where a solve actually spends its time — can stop at the
/// budget instead of overshooting by a full round of inner iterations.
#[derive(Debug, Clone, Copy)]
pub struct InnerParams {
    /// Maximum optimizer steps.
    pub max_iters: usize,
    /// Step size.
    pub learning_rate: f64,
    /// Stop when the iterate moves less than this (infinity norm).
    pub step_tol: f64,
    /// Stop (returning the best iterate so far) once this instant passes.
    pub deadline: Option<Instant>,
}

impl InnerParams {
    /// Parameters with no deadline.
    pub fn new(max_iters: usize, learning_rate: f64, step_tol: f64) -> Self {
        InnerParams {
            max_iters,
            learning_rate,
            step_tol,
            deadline: None,
        }
    }

    /// Derives inner parameters from solver options plus a deadline.
    pub fn from_options(opts: &SolveOptions, deadline: Option<Instant>) -> Self {
        InnerParams {
            max_iters: opts.max_inner_iters,
            learning_rate: opts.learning_rate,
            step_tol: opts.step_tol,
            deadline,
        }
    }

    /// True once the deadline (if any) has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A smooth box-constrained minimizer.
///
/// `f` evaluates the merit function at `x` and writes its gradient into
/// the provided buffer (which arrives zeroed), returning the value.
pub trait InnerOptimizer {
    /// Minimizes `f` over the box of `vars`, starting from `x0`.
    fn minimize(
        &self,
        f: &mut dyn FnMut(&[f64], &mut [f64]) -> f64,
        vars: &VarSpace,
        x0: &[f64],
        params: &InnerParams,
    ) -> InnerResult;

    /// Stable label naming this optimizer ("adam", "projgrad", "lbfgs").
    /// Used for solver introspection ([`SolveResult::solver`]) and for
    /// inner-filtered fault rules ([`crate::fault::FaultPlan::for_inner`]).
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Reports one inner minimization to telemetry, attributed to the
/// optimizer that ran it; shared by all [`InnerOptimizer`] impls.
pub(crate) fn record_inner(optimizer: &'static str, iterations: usize) {
    if kg_telemetry::is_enabled() {
        kg_telemetry::counter_labeled("votekg.sgp.inner_steps", &[("optimizer", optimizer)])
            .add(iterations as u64);
    }
}

/// Validates the initial point of a problem; shared by the outer solvers.
pub(crate) fn check_problem(problem: &SgpProblem) -> Result<Vec<f64>, SolveError> {
    if problem.n_vars() == 0 {
        return Err(SolveError::EmptyProblem);
    }
    let x0 = problem.vars.initial_point();
    let f0 = problem.objective.eval(&x0);
    if !f0.is_finite() {
        return Err(SolveError::NonFiniteAtStart);
    }
    for c in &problem.constraints {
        if !c.expr.eval(&x0).is_finite() {
            return Err(SolveError::NonFiniteAtStart);
        }
    }
    Ok(x0)
}

impl SolveResult {
    /// Recomputes the fields derived from `x` (objective, gradient norm,
    /// violations, feasibility), the gradient through `kernel`.
    pub(crate) fn derive_from_x(
        &mut self,
        problem: &SgpProblem,
        kernel: &mut CompiledProblem,
        feas_tol: f64,
    ) {
        let mut grad = vec![0.0; self.x.len()];
        self.objective = kernel.objective(&self.x, &mut grad);
        self.grad_norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        self.max_violation = problem.max_violation(&self.x);
        self.violated_constraints = problem.violated_count(&self.x, feas_tol);
        self.feasible = self.max_violation <= feas_tol;
    }
}

/// Builds the final [`SolveResult`] from a candidate point, and reports
/// the solve to telemetry (`votekg.sgp.*`) when collection is enabled.
/// `solver` is the `"<outer>+<inner>"` combination label; `kernel` is
/// the solve's compiled `problem`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish(
    problem: &SgpProblem,
    kernel: &mut CompiledProblem,
    solver: String,
    x: Vec<f64>,
    inner_iterations: usize,
    outer_iterations: usize,
    feas_tol: f64,
    elapsed: Duration,
    trace: Vec<OuterRound>,
    reason: ConvergenceReason,
) -> SolveResult {
    let mut result = SolveResult {
        x,
        objective: 0.0,
        grad_norm: 0.0,
        max_violation: 0.0,
        violated_constraints: 0,
        inner_iterations,
        outer_iterations,
        feasible: false,
        reason,
        elapsed,
        solver,
        trace,
    };
    result.derive_from_x(problem, kernel, feas_tol);
    let SolveResult {
        objective,
        grad_norm,
        max_violation,
        violated_constraints: violated,
        ..
    } = result;

    if kg_telemetry::is_enabled() {
        kg_telemetry::counter("votekg.sgp.solves").incr();
        kg_telemetry::counter_labeled("votekg.sgp.converged", &[("reason", reason.as_str())])
            .incr();
        kg_telemetry::counter("votekg.sgp.inner_iterations").add(inner_iterations as u64);
        kg_telemetry::counter("votekg.sgp.outer_iterations").add(outer_iterations as u64);
        kg_telemetry::histogram("votekg.sgp.inner_iterations_per_solve")
            .record(inner_iterations as u64);
        kg_telemetry::gauge("votekg.sgp.last_objective").set(objective);
        kg_telemetry::gauge("votekg.sgp.last_grad_norm").set(grad_norm);
    }
    // Outside the is_enabled gate: the VOTEKG_LOG stderr logger works
    // without metrics collection; log_event self-gates on both sinks.
    kg_telemetry::tevent!(
        kg_telemetry::Level::Debug,
        "votekg.sgp.solve",
        "reason={reason} objective={objective:.6e} grad_norm={grad_norm:.3e} \
         max_violation={max_violation:.3e} violated={violated} \
         inner={inner_iterations} outer={outer_iterations}"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let o = SolveOptions::default();
        assert!(o.max_inner_iters > 0);
        assert!(o.penalty_growth > 1.0);
        assert!(o.feas_tol > 0.0);
        assert!(o.time_budget.is_none());
    }

    #[test]
    fn fast_profile_is_cheaper() {
        let fast = SolveOptions::fast();
        let def = SolveOptions::default();
        assert!(fast.max_inner_iters < def.max_inner_iters);
        assert!(fast.max_outer_iters <= def.max_outer_iters);
    }

    #[test]
    fn solve_error_display() {
        assert!(SolveError::EmptyProblem
            .to_string()
            .contains("no variables"));
        assert!(SolveError::NonFiniteAtStart
            .to_string()
            .contains("non-finite"));
    }
}
