//! Projected limited-memory BFGS — a curvature-aware inner optimizer.
//!
//! The two-loop recursion builds an approximate Newton direction from the
//! last `memory` gradient differences; trial points are projected onto
//! the box and accepted under an Armijo condition. On the badly scaled
//! merit functions of vote programs (tiny path-monomial gradients next to
//! steep sigmoid walls) this typically converges in far fewer iterations
//! than first-order methods, at a slightly higher cost per iteration.
//!
//! Box handling is the standard practical compromise (project the L-BFGS
//! step, refresh memory when curvature breaks): not a true active-set
//! method, but robust for the loosely-binding boxes of edge weights.

use crate::solver::{InnerOptimizer, InnerParams, InnerResult};
use crate::var::VarSpace;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Projected L-BFGS optimizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LbfgsOptimizer {
    /// Number of curvature pairs kept (default 8).
    pub memory: usize,
    /// Armijo sufficient-decrease coefficient (default 1e-4).
    pub armijo: f64,
    /// Backtracking shrink factor (default 0.5).
    pub shrink: f64,
    /// Maximum backtracking steps per iteration (default 25).
    pub max_backtracks: usize,
}

impl Default for LbfgsOptimizer {
    fn default() -> Self {
        LbfgsOptimizer {
            memory: 8,
            armijo: 1e-4,
            shrink: 0.5,
            max_backtracks: 25,
        }
    }
}

impl InnerOptimizer for LbfgsOptimizer {
    fn name(&self) -> &'static str {
        "lbfgs"
    }

    fn minimize(
        &self,
        f: &mut dyn FnMut(&[f64], &mut [f64]) -> f64,
        vars: &VarSpace,
        x0: &[f64],
        params: &InnerParams,
    ) -> InnerResult {
        let InnerParams {
            max_iters,
            learning_rate,
            step_tol,
            ..
        } = *params;
        let n = x0.len();
        let mut x = x0.to_vec();
        vars.project(&mut x);

        let mut grad = vec![0.0; n];
        let mut value = f(&x, &mut grad);
        if !value.is_finite() {
            return InnerResult {
                x,
                value,
                iterations: 0,
            };
        }

        // Curvature history (s_k, y_k, 1/(y_k·s_k)). Pair buffers are
        // recycled through `spare` for the whole solve, so an iteration
        // allocates nothing once `memory` pairs exist.
        let mut history: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::with_capacity(self.memory);
        let mut spare: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(self.memory + 1);
        let mut alphas: Vec<f64> = Vec::with_capacity(self.memory);
        let mut dir = vec![0.0; n];
        let mut trial = vec![0.0; n];
        let mut trial_grad = vec![0.0; n];
        let mut iterations = 0usize;

        for t in 1..=max_iters {
            if params.expired() {
                iterations = t - 1;
                break;
            }
            iterations = t;
            // Two-loop recursion: dir = -H·grad.
            dir.copy_from_slice(&grad);
            alphas.clear();
            for (s, y, rho) in history.iter().rev() {
                let a = rho * dot(s, &dir);
                axpy(&mut dir, y, -a);
                alphas.push(a);
            }
            // Initial Hessian scaling gamma = s·y / y·y of the newest pair.
            if let Some((s, y, _)) = history.back() {
                let gamma = dot(s, y) / dot(y, y).max(1e-300);
                dir.iter_mut().for_each(|d| *d *= gamma.max(1e-12));
            } else {
                // First iteration: scale like a gradient step.
                dir.iter_mut().for_each(|d| *d *= learning_rate);
            }
            for ((s, y, rho), &a) in history.iter().zip(alphas.iter().rev()) {
                let b = rho * dot(y, &dir);
                axpy(&mut dir, s, a - b);
            }
            // dir currently approximates H·grad; descend along -dir.
            let descent = dot(&grad, &dir);
            if !descent.is_finite() || descent <= 0.0 {
                // Curvature broke down: reset to steepest descent.
                spare.extend(history.drain(..).map(|(s, y, _)| (s, y)));
                dir.copy_from_slice(&grad);
                dir.iter_mut().for_each(|d| *d *= learning_rate);
            }

            // Backtracking on the projected step.
            let mut alpha = 1.0;
            let mut accepted = false;
            for _ in 0..=self.max_backtracks {
                for i in 0..n {
                    trial[i] = x[i] - alpha * dir[i];
                }
                vars.project(&mut trial);
                let model_decrease: f64 = grad
                    .iter()
                    .zip(x.iter().zip(&trial))
                    .map(|(g, (xi, ti))| g * (xi - ti))
                    .sum();
                trial_grad.iter_mut().for_each(|g| *g = 0.0);
                let trial_value = f(&trial, &mut trial_grad);
                if trial_value.is_finite() && trial_value <= value - self.armijo * model_decrease {
                    // Record curvature (projected step).
                    let (mut s, mut y) =
                        spare.pop().unwrap_or_else(|| (vec![0.0; n], vec![0.0; n]));
                    for (si, (a, b)) in s.iter_mut().zip(trial.iter().zip(&x)) {
                        *si = a - b;
                    }
                    for (yi, (a, b)) in y.iter_mut().zip(trial_grad.iter().zip(&grad)) {
                        *yi = a - b;
                    }
                    let sy = dot(&s, &y);
                    let max_move = s.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                    if sy > 1e-12 {
                        if history.len() == self.memory {
                            if let Some((old_s, old_y, _)) = history.pop_front() {
                                spare.push((old_s, old_y));
                            }
                        }
                        let rho = 1.0 / sy;
                        history.push_back((s, y, rho));
                    } else {
                        spare.push((s, y));
                    }
                    x.copy_from_slice(&trial);
                    grad.copy_from_slice(&trial_grad);
                    value = trial_value;
                    accepted = true;
                    if max_move < step_tol {
                        crate::solver::record_inner("lbfgs", iterations);
                        return InnerResult {
                            x,
                            value,
                            iterations,
                        };
                    }
                    break;
                }
                alpha *= self.shrink;
            }
            if !accepted {
                break; // no progress possible: converged or stuck
            }
        }

        crate::solver::record_inner("lbfgs", iterations);
        InnerResult {
            x,
            value,
            iterations,
        }
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn axpy(out: &mut [f64], v: &[f64], k: f64) {
    for (o, x) in out.iter_mut().zip(v) {
        *o += k * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(n: usize, lo: f64, hi: f64, init: f64) -> VarSpace {
        let mut vs = VarSpace::new();
        for i in 0..n {
            vs.add(format!("x{i}"), init, lo, hi);
        }
        vs
    }

    #[test]
    fn quadratic_converges_quickly() {
        let vars = space(2, 0.01, 1.0, 0.5);
        let mut f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 0.3);
            g[1] = 20.0 * (x[1] - 0.8);
            (x[0] - 0.3).powi(2) + 10.0 * (x[1] - 0.8).powi(2)
        };
        let r = LbfgsOptimizer::default().minimize(
            &mut f,
            &vars,
            &[0.5, 0.5],
            &InnerParams::new(200, 0.05, 1e-12),
        );
        assert!((r.x[0] - 0.3).abs() < 1e-6, "{:?}", r.x);
        assert!((r.x[1] - 0.8).abs() < 1e-6, "{:?}", r.x);
        assert!(
            r.iterations < 60,
            "L-BFGS should converge fast, took {}",
            r.iterations
        );
    }

    #[test]
    fn respects_box() {
        let vars = space(1, 0.01, 1.0, 0.5);
        let mut f = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 5.0);
            (x[0] - 5.0).powi(2)
        };
        let r = LbfgsOptimizer::default().minimize(
            &mut f,
            &vars,
            &[0.5],
            &InnerParams::new(200, 0.05, 1e-12),
        );
        assert!((r.x[0] - 1.0).abs() < 1e-9, "{:?}", r.x);
    }

    #[test]
    fn beats_adam_on_ill_conditioned_quadratic() {
        use crate::solver::adam::AdamOptimizer;
        use crate::solver::InnerOptimizer as _;
        let vars = space(2, 1e-4, 1.0, 0.5);
        let quad = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (x[0] - 0.2);
            g[1] = 2e4 * (x[1] - 0.9);
            (x[0] - 0.2).powi(2) + 1e4 * (x[1] - 0.9).powi(2)
        };
        let budget = 120;
        let mut f1 = quad;
        let lb = LbfgsOptimizer::default().minimize(
            &mut f1,
            &vars,
            &[0.5, 0.5],
            &InnerParams::new(budget, 0.02, 0.0),
        );
        let mut f2 = quad;
        let ad = AdamOptimizer::default().minimize(
            &mut f2,
            &vars,
            &[0.5, 0.5],
            &InnerParams::new(budget, 0.02, 0.0),
        );
        assert!(
            lb.value <= ad.value,
            "L-BFGS {} vs Adam {} after {budget} iters",
            lb.value,
            ad.value
        );
    }

    #[test]
    fn survives_non_finite_start() {
        let vars = space(1, 0.01, 1.0, 0.5);
        let mut f = |_x: &[f64], _g: &mut [f64]| f64::NAN;
        let r = LbfgsOptimizer::default().minimize(
            &mut f,
            &vars,
            &[0.5],
            &InnerParams::new(100, 0.05, 1e-12),
        );
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn flat_function_stops_immediately() {
        let vars = space(3, 0.01, 1.0, 0.5);
        let mut f = |_x: &[f64], _g: &mut [f64]| 7.0;
        let r = LbfgsOptimizer::default().minimize(
            &mut f,
            &vars,
            &[0.5; 3],
            &InnerParams::new(100, 0.05, 1e-12),
        );
        assert!(r.iterations <= 2);
        assert_eq!(r.value, 7.0);
    }

    #[test]
    fn works_inside_penalty_solver() {
        use crate::problem::SgpProblem;
        use crate::signomial::Signomial;
        use crate::solver::penalty::PenaltySolver;
        use crate::solver::{SolveOptions, Solver};
        let mut vars = VarSpace::new();
        let x = vars.add("x", 0.5, 0.01, 10.0);
        let obj =
            Signomial::power(x, 2.0, 1.0) + Signomial::linear(x, -4.0) + Signomial::constant(4.0);
        let mut p = SgpProblem::new(vars, obj.into());
        p.add_constraint_leq_zero(Signomial::linear(x, 1.0) - Signomial::constant(1.0), "x<=1");
        let solver = PenaltySolver::with_inner(LbfgsOptimizer::default());
        let r = solver.solve(&p, &SolveOptions::default()).unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-2, "{:?}", r.x);
    }
}
