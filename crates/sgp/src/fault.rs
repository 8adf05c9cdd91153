//! Fault injection for resilience testing.
//!
//! The vote pipeline must survive solver failures: a diverged solve that
//! returns NaN, a wall-clock deadline that fires mid-round, or a panic in
//! one cluster of a parallel split-and-merge round. Those conditions are
//! rare in normal operation, so this module makes them reproducible:
//!
//! * [`FaultPlan`] + [`inject`] — a process-global plan that the real
//!   outer solvers ([`PenaltySolver`](crate::PenaltySolver),
//!   [`AugLagSolver`](crate::AugLagSolver)) consult at every solve entry.
//!   Solve calls are numbered by a shared counter, so a plan can target
//!   "the 2nd solve of this round" even when the solve happens deep inside
//!   kg-votes or on a kg-cluster worker thread. [`inject`] returns a
//!   [`FaultGuard`] that serializes concurrent fault tests and clears the
//!   plan on drop; with no plan installed the cost is one relaxed atomic
//!   load per solve.
//! * [`FaultySolver`] / [`FaultyInner`] — local wrappers around a
//!   [`Solver`] / [`InnerOptimizer`] with a per-instance plan, for unit
//!   tests that do not want global state.
//!
//! This module is compiled unconditionally (it is exercised by
//! integration tests of downstream crates, which see only the release
//! build of this crate), but injects nothing unless a test installs a
//! plan.

use crate::compiled::CompiledProblem;
use crate::problem::SgpProblem;
use crate::solver::{InnerOptimizer, InnerParams, InnerResult, SolveError, SolveResult, Solver};
use crate::var::VarSpace;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What to inject when a targeted solve call happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Return [`SolveError::Injected`] from the solve.
    Error,
    /// Panic inside the solve (exercises panic isolation).
    Panic,
    /// Let the solve run, then overwrite the solution and objective with
    /// NaN (a diverged solve slipping past the solver's own guards). In
    /// [`FaultyInner`] this instead makes the merit function return NaN.
    NonFiniteSolution,
    /// Let the solve run, then shift every solution coordinate by the
    /// given fraction of its box width (clamped to the box) and recompute
    /// the derived result fields honestly. The corrupted result is
    /// finite and internally consistent — a *plausible wrong answer* that
    /// slips past the non-finite guards and is only caught by comparing
    /// solvers against each other (the differential fuzz harness).
    SkewSolution(f64),
    /// Sleep before solving (forces wall-clock budget overruns).
    Delay(Duration),
}

/// One plan entry: apply `action` to calls in `[from, to)`, optionally
/// only when the solve runs a specific inner optimizer.
#[derive(Debug, Clone, Copy)]
struct FaultRule {
    from: usize,
    to: usize,
    inner: Option<&'static str>,
    action: FaultAction,
}

impl FaultRule {
    fn matches(&self, call: usize, inner: Option<&str>) -> bool {
        self.from <= call
            && call < self.to
            && match self.inner {
                None => true,
                // An inner-filtered rule never matches a context that
                // cannot name its optimizer (e.g. [`FaultySolver`]).
                Some(want) => inner == Some(want),
            }
    }
}

/// A schedule of faults keyed by solve-call index (0-based, in the order
/// the targeted component performs solves) and/or the inner optimizer
/// the solve runs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Injects `action` at exactly the `call`-th solve.
    pub fn at(mut self, call: usize, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            from: call,
            to: call + 1,
            inner: None,
            action,
        });
        self
    }

    /// Injects `action` at every solve from the `call`-th on.
    pub fn from_call(mut self, call: usize, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            from: call,
            to: usize::MAX,
            inner: None,
            action,
        });
        self
    }

    /// Injects `action` at every solve whose inner optimizer reports the
    /// given [`InnerOptimizer::name`] — regardless of call index. This is
    /// how the fuzz harness plants a bug in exactly one cell row of the
    /// solver matrix (e.g. "every lbfgs solve is subtly wrong").
    pub fn for_inner(mut self, inner: &'static str, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            from: 0,
            to: usize::MAX,
            inner: Some(inner),
            action,
        });
        self
    }

    fn action_for(&self, call: usize, inner: Option<&str>) -> Option<FaultAction> {
        self.rules
            .iter()
            .find(|r| r.matches(call, inner))
            .map(|r| r.action)
    }
}

struct PlanState {
    plan: FaultPlan,
    calls: usize,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);
/// Serializes fault-injecting tests within a process: solves from
/// unrelated concurrent tests would otherwise consume plan call indices.
static GATE: Mutex<()> = Mutex::new(());

/// Holds the global fault plan installed; dropping it clears the plan.
/// Also acts as a test-serialization lock — at most one guard exists per
/// process at a time.
pub struct FaultGuard {
    _gate: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Number of solve calls observed since this plan was installed.
    pub fn calls(&self) -> usize {
        PLAN.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(0, |s| s.calls)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Installs `plan` globally; the real outer solvers consult it on every
/// solve until the returned guard drops. Blocks while another guard is
/// alive (fault tests are mutually serialized).
pub fn inject(plan: FaultPlan) -> FaultGuard {
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = Some(PlanState { plan, calls: 0 });
    ACTIVE.store(true, Ordering::SeqCst);
    FaultGuard { _gate: gate }
}

/// Solve-entry hook for the outer solvers: consumes one call index and
/// applies any scheduled fault, matched against the call index and the
/// solve's inner-optimizer label. `Panic`/`Error`/`Delay` act here;
/// `NonFiniteSolution`/`SkewSolution` are returned for [`corrupt_result`]
/// to apply after the solve completes.
pub(crate) fn begin_solve(inner: &'static str) -> Result<Option<FaultAction>, SolveError> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(None);
    }
    let action = {
        let mut guard = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_mut() {
            None => return Ok(None),
            Some(state) => {
                let call = state.calls;
                state.calls += 1;
                state.plan.action_for(call, Some(inner))
            }
        }
    };
    match action {
        None | Some(FaultAction::NonFiniteSolution) | Some(FaultAction::SkewSolution(_)) => {
            Ok(action)
        }
        Some(FaultAction::Error) => Err(SolveError::Injected),
        Some(FaultAction::Panic) => panic!("sgp: injected solver panic (fault harness)"),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(None)
        }
    }
}

/// Applies a pending [`FaultAction::NonFiniteSolution`] or
/// [`FaultAction::SkewSolution`] to a finished solve result.
pub(crate) fn corrupt_result(
    problem: &SgpProblem,
    feas_tol: f64,
    injected: Option<FaultAction>,
    result: &mut SolveResult,
) {
    match injected {
        Some(FaultAction::NonFiniteSolution) => {
            result.x.iter_mut().for_each(|v| *v = f64::NAN);
            result.objective = f64::NAN;
        }
        Some(FaultAction::SkewSolution(frac)) => {
            for (i, v) in result.x.iter_mut().enumerate() {
                let var = crate::var::VarId(i as u32);
                let lo = problem.vars.lower(var);
                let hi = problem.vars.upper(var);
                *v = (*v + frac * (hi - lo)).clamp(lo, hi);
            }
            // Recompute every derived field from the skewed point so the
            // result is internally consistent: nothing downstream can
            // detect the corruption without a second opinion.
            result.derive_from_x(problem, &mut CompiledProblem::new(problem), feas_tol);
        }
        _ => {}
    }
}

/// An [`InnerOptimizer`] wrapper with a per-instance fault plan.
///
/// `NonFiniteSolution` makes the merit function return NaN for the whole
/// call (the inner optimizer sees a diverged landscape); `Error` has no
/// inner-level meaning and delegates unchanged.
#[derive(Debug)]
pub struct FaultyInner<I> {
    inner: I,
    plan: FaultPlan,
    calls: AtomicUsize,
}

impl<I> FaultyInner<I> {
    /// Wraps `inner`, injecting per `plan` (indexed by minimize call).
    pub fn new(inner: I, plan: FaultPlan) -> Self {
        FaultyInner {
            inner,
            plan,
            calls: AtomicUsize::new(0),
        }
    }

    /// Number of minimize calls observed.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl<I: InnerOptimizer> InnerOptimizer for FaultyInner<I> {
    fn minimize(
        &self,
        f: &mut dyn FnMut(&[f64], &mut [f64]) -> f64,
        vars: &VarSpace,
        x0: &[f64],
        params: &InnerParams,
    ) -> InnerResult {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        match self.plan.action_for(call, Some(self.inner.name())) {
            Some(FaultAction::Panic) => panic!("sgp: injected inner-optimizer panic"),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.minimize(f, vars, x0, params)
            }
            Some(FaultAction::NonFiniteSolution) => {
                let mut nan_merit = |x: &[f64], g: &mut [f64]| {
                    let _ = f(x, g);
                    f64::NAN
                };
                self.inner.minimize(&mut nan_merit, vars, x0, params)
            }
            Some(FaultAction::SkewSolution(frac)) => {
                let mut r = self.inner.minimize(f, vars, x0, params);
                for (i, v) in r.x.iter_mut().enumerate() {
                    let var = crate::var::VarId(i as u32);
                    let lo = vars.lower(var);
                    let hi = vars.upper(var);
                    *v = (*v + frac * (hi - lo)).clamp(lo, hi);
                }
                let mut grad = vec![0.0; r.x.len()];
                r.value = f(&r.x, &mut grad);
                r
            }
            Some(FaultAction::Error) | None => self.inner.minimize(f, vars, x0, params),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`Solver`] wrapper with a per-instance fault plan (indexed by solve
/// call), independent of the global plan.
#[derive(Debug)]
pub struct FaultySolver<S> {
    inner: S,
    plan: FaultPlan,
    calls: AtomicUsize,
}

impl<S> FaultySolver<S> {
    /// Wraps `solver`, injecting per `plan`.
    pub fn new(solver: S, plan: FaultPlan) -> Self {
        FaultySolver {
            inner: solver,
            plan,
            calls: AtomicUsize::new(0),
        }
    }

    /// Number of solve calls observed.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl<S: Solver> Solver for FaultySolver<S> {
    fn solve(
        &self,
        problem: &SgpProblem,
        opts: &crate::SolveOptions,
    ) -> Result<SolveResult, SolveError> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        let action = self.plan.action_for(call, None);
        match action {
            Some(FaultAction::Error) => return Err(SolveError::Injected),
            Some(FaultAction::Panic) => panic!("sgp: injected solver panic (FaultySolver)"),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
        let mut result = self.inner.solve(problem, opts)?;
        corrupt_result(
            problem,
            opts.feas_tol,
            action.filter(|a| {
                matches!(
                    a,
                    FaultAction::NonFiniteSolution | FaultAction::SkewSolution(_)
                )
            }),
            &mut result,
        );
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signomial::Signomial;
    use crate::solver::penalty::PenaltySolver;
    use crate::SolveOptions;

    fn one_var_problem() -> SgpProblem {
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.9, 0.01, 1.0);
        let obj =
            Signomial::power(x, 2.0, 1.0) + Signomial::linear(x, -0.8) + Signomial::constant(0.16);
        SgpProblem::new(vars, obj.into())
    }

    // Tests of the *global* plan live in `tests/fault_injection.rs`: that
    // binary's tests all hold the serialization gate, whereas unit tests
    // here run concurrently with other solver tests whose solves would
    // consume plan call indices.

    #[test]
    fn faulty_solver_injects_locally() {
        let solver = FaultySolver::new(
            PenaltySolver::new(),
            FaultPlan::new()
                .at(0, FaultAction::Error)
                .at(1, FaultAction::NonFiniteSolution),
        );
        let p = one_var_problem();
        assert_eq!(
            solver.solve(&p, &SolveOptions::default()).unwrap_err(),
            SolveError::Injected
        );
        let r = solver.solve(&p, &SolveOptions::default()).unwrap();
        assert!(r.x[0].is_nan());
        let r = solver.solve(&p, &SolveOptions::default()).unwrap();
        assert!(r.x[0].is_finite());
        assert_eq!(solver.calls(), 3);
    }

    #[test]
    fn faulty_inner_nan_merit_keeps_iterate_finite() {
        // A NaN merit from call 0 on: projected Adam backs off to the
        // (projected) start point; the solver must still return finite x.
        let inner = FaultyInner::new(
            crate::AdamOptimizer::default(),
            FaultPlan::new().from_call(0, FaultAction::NonFiniteSolution),
        );
        let solver = PenaltySolver::with_inner(inner);
        let r = solver
            .solve(&one_var_problem(), &SolveOptions::default())
            .unwrap();
        assert!(r.x.iter().all(|v| v.is_finite()), "{:?}", r.x);
        assert!((r.x[0] - 0.9).abs() < 1e-9, "no progress expected");
    }

    #[test]
    #[should_panic(expected = "injected inner-optimizer panic")]
    fn faulty_inner_panics_on_schedule() {
        let inner = FaultyInner::new(
            crate::AdamOptimizer::default(),
            FaultPlan::new().at(0, FaultAction::Panic),
        );
        let _ =
            PenaltySolver::with_inner(inner).solve(&one_var_problem(), &SolveOptions::default());
    }
}
