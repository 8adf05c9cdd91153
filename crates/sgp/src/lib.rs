//! Signomial geometric programming (SGP) for the `votekg` workspace.
//!
//! Section III-A of the paper casts knowledge-graph weight optimization as
//! an SGP problem (Eq. 2–3):
//!
//! ```text
//! minimize   f0(x)
//! s.t.       fi(x) <= 1,   i = 1..m
//!            0 < xl <= x <= xu
//! ```
//!
//! where each `fi` is a *signomial* — a sum of monomials
//! `c · x1^{e1} · x2^{e2} · …` with arbitrary real coefficients and
//! exponents. The paper solved these with MATLAB's `fmincon`; no mature
//! GP/signomial solver exists in the Rust ecosystem, so this crate
//! implements the required machinery from scratch:
//!
//! * [`Monomial`] / [`Signomial`] — sparse symbolic expressions over a
//!   [`VarSpace`], with exact analytic gradients.
//! * [`CompositeObjective`] — the paper's multi-vote objective (Eq. 19) is
//!   *not* a pure signomial: it mixes a quadratic proximal term `λ1‖x−x0‖²`
//!   (Eq. 12) with sigmoid penalties `λ2 σ(w·g(x))` (Eq. 18). The composite
//!   objective models exactly that family.
//! * [`CompiledProblem`] — a problem flattened once per solve; every merit
//!   evaluation goes through it, allocation-free and bit-identical to the
//!   symbolic formula.
//! * Solvers — a projected-Adam / projected-gradient inner optimizer over
//!   the box, wrapped by either an exterior quadratic [`PenaltySolver`] or
//!   an [`AugLagSolver`] (augmented Lagrangian) to enforce the inequality
//!   constraints. SGP is NP-hard in general (the paper cites Xu 2014);
//!   these are local methods, like `fmincon`.
//!
//! ```
//! use sgp::{VarSpace, Signomial, SgpProblem, PenaltySolver, Solver, SolveOptions};
//!
//! // minimize (x - 2)^2  subject to  x <= 1,  x in [0.01, 10]
//! let mut vars = VarSpace::new();
//! let x = vars.add("x", 0.5, 0.01, 10.0);
//! let objective = Signomial::constant(4.0)
//!     + Signomial::linear(x, -4.0)
//!     + Signomial::power(x, 2.0, 1.0);
//! let mut p = SgpProblem::new(vars, objective.into());
//! p.add_constraint_leq_zero(Signomial::linear(x, 1.0) - Signomial::constant(1.0), "x<=1");
//! let sol = PenaltySolver::new().solve(&p, &SolveOptions::default()).unwrap();
//! assert!((sol.x[0] - 1.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod fault;
pub mod fd;
pub mod monomial;
pub mod objective;
pub mod problem;
pub mod sigmoid;
pub mod signomial;
pub mod solver;
pub mod var;

pub use compiled::CompiledProblem;
pub use fault::{FaultAction, FaultGuard, FaultPlan, FaultyInner, FaultySolver};
pub use monomial::Monomial;
pub use objective::{CompositeObjective, ObjectiveTerm};
pub use problem::{Constraint, SgpProblem};
pub use sigmoid::{sigmoid, sigmoid_grad, step};
pub use signomial::Signomial;
pub use solver::adam::AdamOptimizer;
pub use solver::auglag::AugLagSolver;
pub use solver::lbfgs::LbfgsOptimizer;
pub use solver::penalty::PenaltySolver;
pub use solver::projgrad::ProjGradOptimizer;
pub use solver::{
    ConvergenceReason, InnerOptimizer, InnerParams, OuterRound, SolveError, SolveOptions,
    SolveResult, Solver,
};
pub use var::{VarId, VarSpace};
