//! Property-based tests for the SGP machinery: analytic gradients agree
//! with finite differences, the compiled merit kernel reproduces the
//! symbolic formula bit for bit, simplification preserves values, and
//! solvers never leave the box or increase constraint violations beyond
//! the initial point on feasible-at-start problems.

use proptest::prelude::*;
use sgp::fd::{fd_grad, max_abs_diff};
use sgp::{
    sigmoid_grad, AdamOptimizer, CompiledProblem, CompositeObjective, Monomial, ObjectiveTerm,
    PenaltySolver, SgpProblem, Signomial, SolveOptions, Solver, VarId, VarSpace,
};

const NVARS: usize = 4;

/// Random monomial over up to NVARS variables with exponents in [-2, 3].
fn arb_monomial() -> impl Strategy<Value = Monomial> {
    (
        -3.0f64..3.0,
        proptest::collection::vec((0u32..NVARS as u32, -2.0f64..3.0), 0..4),
    )
        .prop_map(|(c, factors)| Monomial::new(c, factors.into_iter().map(|(v, e)| (VarId(v), e))))
}

fn arb_signomial() -> impl Strategy<Value = Signomial> {
    proptest::collection::vec(arb_monomial(), 1..6).prop_map(Signomial::from_terms)
}

/// Points strictly inside (0.2, 1.8) so negative exponents stay finite and
/// finite differences are stable.
fn arb_point() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.2f64..1.8, NVARS)
}

/// The symbolic merit the compiled kernel must reproduce bit for bit: a
/// verbatim copy of the formula solvers evaluated before the kernel —
/// symbolic `eval` for values, the dense sigmoid chain rule (a fresh
/// `n_vars` inner-gradient vector per active term, swept in full), and
/// the penalty and augmented-Lagrangian terms via
/// `accumulate_grad_scaled`.
mod reference {
    use super::*;

    pub fn term_grad(term: &ObjectiveTerm, x: &[f64], grad: &mut [f64]) {
        match term {
            ObjectiveTerm::Signomial(s) => s.accumulate_grad(x, grad),
            ObjectiveTerm::QuadraticProximal { weight, anchors } => {
                for &(v, x0) in anchors {
                    grad[v.index()] += 2.0 * weight * (x[v.index()] - x0);
                }
            }
            ObjectiveTerm::SigmoidPenalty {
                weight,
                steepness,
                inner,
            } => {
                let outer = weight * sigmoid_grad(inner.eval(x), *steepness);
                if outer != 0.0 {
                    let mut inner_grad = vec![0.0; grad.len()];
                    inner.accumulate_grad(x, &mut inner_grad);
                    for (g, ig) in grad.iter_mut().zip(inner_grad) {
                        *g += outer * ig;
                    }
                }
            }
        }
    }

    pub fn objective(p: &SgpProblem, x: &[f64], grad: &mut [f64]) -> f64 {
        for t in p.objective.terms() {
            term_grad(t, x, grad);
        }
        p.objective.eval(x)
    }

    pub fn penalty_merit(p: &SgpProblem, x: &[f64], rho: f64, grad: &mut [f64]) -> f64 {
        let mut v = objective(p, x, grad);
        for c in &p.constraints {
            let g = c.expr.eval(x);
            if g > 0.0 {
                v += rho * g * g;
                c.expr.accumulate_grad_scaled(x, 2.0 * rho * g, grad);
            }
        }
        v
    }

    pub fn auglag_merit(
        p: &SgpProblem,
        x: &[f64],
        lambda: &[f64],
        mu: f64,
        grad: &mut [f64],
    ) -> f64 {
        let mut v = objective(p, x, grad);
        for (c, &l) in p.constraints.iter().zip(lambda) {
            let g = c.expr.eval(x);
            let t = l + mu * g;
            if t > 0.0 {
                v += (t * t - l * l) / (2.0 * mu);
                c.expr.accumulate_grad_scaled(x, t, grad);
            } else {
                v -= l * l / (2.0 * mu);
            }
        }
        v
    }
}

/// Exponents as vote encodings and GP programs use them: mostly 1, some
/// repeated-edge powers, fractional and negative ones.
fn arb_exponent() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(1.0),
        Just(2.0),
        Just(3.0),
        Just(0.5),
        Just(-1.0),
        Just(-2.0),
        -2.0f64..3.0,
    ]
}

/// Monomials over few variables, so variables repeat across monomials
/// (and, merged, within one).
fn arb_kernel_monomial() -> impl Strategy<Value = Monomial> {
    (
        -3.0f64..3.0,
        proptest::collection::vec((0u32..NVARS as u32, arb_exponent()), 0..4),
    )
        .prop_map(|(c, factors)| Monomial::new(c, factors.into_iter().map(|(v, e)| (VarId(v), e))))
}

fn arb_kernel_signomial() -> impl Strategy<Value = Signomial> {
    proptest::collection::vec(arb_kernel_monomial(), 1..6).prop_map(Signomial::from_terms)
}

/// Sigmoid terms; steepness 300 and 5000 saturate most of them to a
/// slope of exactly 0 (the kernel must then skip the term's gradient).
fn arb_sigmoid() -> impl Strategy<Value = ObjectiveTerm> {
    (
        -3.0f64..3.0,
        prop_oneof![1.0f64..40.0, Just(300.0), Just(5000.0)],
        arb_kernel_signomial(),
    )
        .prop_map(|(weight, steepness, inner)| ObjectiveTerm::SigmoidPenalty {
            weight,
            steepness,
            inner,
        })
}

/// Every term kind, sigmoid terms (the kernel's local-slot machinery)
/// twice as often as the others.
fn arb_term() -> impl Strategy<Value = ObjectiveTerm> {
    prop_oneof![
        arb_kernel_signomial().prop_map(ObjectiveTerm::Signomial),
        (
            -2.0f64..2.0,
            proptest::collection::vec((0u32..NVARS as u32, 0.0f64..2.0), 1..NVARS + 2),
        )
            .prop_map(|(weight, anchors)| ObjectiveTerm::QuadraticProximal {
                weight,
                anchors: anchors.into_iter().map(|(v, x0)| (VarId(v), x0)).collect(),
            }),
        arb_sigmoid(),
        arb_sigmoid(),
    ]
}

fn arb_program() -> impl Strategy<Value = SgpProblem> {
    (
        proptest::collection::vec(arb_term(), 1..6),
        proptest::collection::vec(arb_kernel_signomial(), 0..4),
    )
        .prop_map(|(terms, constraints)| {
            let mut vars = VarSpace::new();
            for i in 0..NVARS {
                vars.add(format!("x{i}"), 0.5, 1e-3, 2.0);
            }
            let mut obj = CompositeObjective::new();
            for t in terms {
                obj.push(t);
            }
            let mut p = SgpProblem::new(vars, obj);
            for (i, c) in constraints.into_iter().enumerate() {
                p.add_constraint_leq_zero(c, format!("c{i}"));
            }
            p
        })
}

/// Points in (0.2, 1.8), half of them with one coordinate at exactly 0
/// (the partial-product branch of the monomial gradient).
fn arb_kernel_point() -> impl Strategy<Value = Vec<f64>> {
    (arb_point(), 0..2 * NVARS).prop_map(|(mut x, zero)| {
        if zero < NVARS {
            x[zero] = 0.0;
        }
        x
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|g| g.to_bits()).collect()
}

/// Compares a kernel evaluation with the reference one: the value always
/// bit for bit, the gradient bit for bit whenever the value is finite. At
/// a non-finite value the reference's dense sweep smears a NaN slope over
/// every coordinate while the kernel keeps it to the term's variables;
/// inner optimizers discard the gradient of a non-finite merit.
fn same_bits((kv, kg): (f64, &[f64]), (rv, rg): (f64, &[f64])) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        kv.to_bits(),
        rv.to_bits(),
        "value {} vs reference {}",
        kv,
        rv
    );
    if rv.is_finite() {
        prop_assert_eq!(bits(kg), bits(rg), "grad {:?} vs reference {:?}", kg, rg);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The compiled objective and penalty merit are the symbolic
    /// formula's, bit for bit.
    #[test]
    fn compiled_penalty_merit_is_bit_identical(
        p in arb_program(),
        x in arb_kernel_point(),
        rho in prop_oneof![Just(10.0), 0.1f64..1e4],
    ) {
        let mut kernel = CompiledProblem::new(&p);
        let (mut kg, mut rg) = (vec![0.0; NVARS], vec![0.0; NVARS]);
        let kv = kernel.objective(&x, &mut kg);
        let rv = reference::objective(&p, &x, &mut rg);
        same_bits((kv, &kg), (rv, &rg))?;

        let (mut kg, mut rg) = (vec![0.0; NVARS], vec![0.0; NVARS]);
        let kv = kernel.penalty_merit(&x, rho, &mut kg);
        let rv = reference::penalty_merit(&p, &x, rho, &mut rg);
        same_bits((kv, &kg), (rv, &rg))?;
    }

    /// The compiled augmented-Lagrangian merit is the symbolic formula's,
    /// bit for bit, on both branches of ψ.
    #[test]
    fn compiled_auglag_merit_is_bit_identical(
        p in arb_program(),
        x in arb_kernel_point(),
        lambda in proptest::collection::vec(prop_oneof![Just(0.0), 0.0f64..5.0], 4),
        mu in 0.5f64..100.0,
    ) {
        let mut kernel = CompiledProblem::new(&p);
        let (mut kg, mut rg) = (vec![0.0; NVARS], vec![0.0; NVARS]);
        let lambda = &lambda[..p.n_constraints()];
        let kv = kernel.auglag_merit(&x, lambda, mu, &mut kg);
        let rv = reference::auglag_merit(&p, &x, lambda, mu, &mut rg);
        same_bits((kv, &kg), (rv, &rg))?;
    }
}

proptest! {
    /// Analytic signomial gradients match central finite differences.
    #[test]
    fn signomial_grad_matches_fd(f in arb_signomial(), x in arb_point()) {
        let g = f.grad(&x, NVARS);
        let fd = fd_grad(|x| f.eval(x), &x, 1e-6);
        // Scale tolerance with the gradient magnitude.
        let scale = 1.0 + g.iter().map(|v| v.abs()).fold(0.0, f64::max);
        prop_assert!(
            max_abs_diff(&g, &fd) <= 1e-4 * scale,
            "grad {:?} vs fd {:?}", g, fd
        );
    }

    /// Simplification never changes the value of the expression.
    #[test]
    fn simplify_preserves_value(f in arb_signomial(), x in arb_point()) {
        let s = f.simplified();
        let a = f.eval(&x);
        let b = s.eval(&x);
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
    }

    /// Simplification is idempotent and never grows the term count.
    #[test]
    fn simplify_is_idempotent(f in arb_signomial()) {
        let s1 = f.simplified();
        let s2 = s1.simplified();
        prop_assert_eq!(&s1, &s2);
        prop_assert!(s1.term_count() <= f.term_count());
    }

    /// Composite objectives (proximal + sigmoid penalties) have exact
    /// gradients too, as the compiled kernel computes them.
    #[test]
    fn composite_grad_matches_fd(
        inner in arb_signomial(),
        x in arb_point(),
        w in 1.0f64..40.0,
        lam in 0.01f64..2.0,
    ) {
        let mut obj = CompositeObjective::new();
        obj.push(ObjectiveTerm::SigmoidPenalty { weight: lam, steepness: w, inner });
        obj.push(ObjectiveTerm::QuadraticProximal {
            weight: lam,
            anchors: (0..NVARS).map(|i| (VarId(i as u32), 0.5)).collect(),
        });
        let p = SgpProblem::new(VarSpace::new(), obj);
        let mut g = vec![0.0; NVARS];
        CompiledProblem::new(&p).objective(&x, &mut g);
        let fd = fd_grad(|x| p.objective.eval(x), &x, 1e-6);
        let scale = 1.0 + g.iter().map(|v| v.abs()).fold(0.0, f64::max);
        prop_assert!(max_abs_diff(&g, &fd) <= 1e-3 * scale, "grad {:?} vs fd {:?}", g, fd);
    }

    /// The penalty solver always returns a point inside the box, and on a
    /// problem that is feasible at the start it stays feasible.
    #[test]
    fn solver_stays_in_box(
        anchors in proptest::collection::vec(0.1f64..0.9, NVARS),
        cap in 0.5f64..3.5,
    ) {
        // minimize sum (x_i - anchor_i)^2 s.t. sum x_i <= cap, x in [0.05, 1].
        let mut vars = VarSpace::new();
        for (i, _) in anchors.iter().enumerate() {
            vars.add(format!("x{i}"), 0.1, 0.05, 1.0);
        }
        let mut obj = CompositeObjective::new();
        obj.push(ObjectiveTerm::QuadraticProximal {
            weight: 1.0,
            anchors: anchors.iter().enumerate().map(|(i, &a)| (VarId(i as u32), a)).collect(),
        });
        let mut p = SgpProblem::new(vars, obj);
        let sum_expr = (0..NVARS)
            .map(|i| Signomial::linear(VarId(i as u32), 1.0))
            .fold(Signomial::zero(), |acc, s| acc + s)
            - Signomial::constant(cap);
        p.add_constraint_leq_zero(sum_expr, "sum<=cap");
        // Start point sums to 0.4 <= cap, so the problem starts feasible.
        let r = PenaltySolver::<AdamOptimizer>::default()
            .solve(&p, &SolveOptions::default())
            .unwrap();
        prop_assert!(p.vars.contains(&r.x, 1e-12));
        prop_assert!(r.max_violation <= 1e-2, "violation {}", r.max_violation);
        // The objective at the solution is no worse than at the start.
        let start_obj = p.objective.eval(&p.vars.initial_point());
        prop_assert!(r.objective <= start_obj + 1e-9);
    }
}
