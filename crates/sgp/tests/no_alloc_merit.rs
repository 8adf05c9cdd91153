//! Asserts the SGP merit evaluation and the inner optimizers' iterations
//! are allocation-free: a solve compiles its problem once, every merit
//! call afterwards reuses the compiled kernel's scratch, and projected
//! L-BFGS recycles its curvature-pair buffers within the solve. So the
//! allocations of one `PenaltySolver::solve` must not grow with its
//! inner-iteration count — checked at 50 and 500 inner iterations
//! (`step_tol` 0, so every iteration runs) on a multi-vote program and on
//! a constrained single-vote program, both shaped like kg-votes'
//! encodings, with the default Adam inner optimizer and with L-BFGS.
//!
//! Lives in its own integration-test binary so the counting global
//! allocator does not interfere with other tests (same pattern as
//! kg-sim's `tests/no_alloc_phi.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sgp::{
    CompositeObjective, LbfgsOptimizer, Monomial, ObjectiveTerm, PenaltySolver, SgpProblem,
    Signomial, SolveOptions, SolveResult, Solver, VarId, VarSpace,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Budget for allocations made by *other* threads of the test process
/// (libtest's harness) during a measurement window. An allocating merit
/// would add one allocation per active sigmoid term per extra iteration —
/// thousands here — so it still fails loudly.
const NOISE_ALLOWANCE: u64 = 32;

/// Restart probability of the walk (the encodings' `c`).
const RESTART: f64 = 0.15;

/// A deterministic linear congruential generator (no dependencies).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        self.below(1 << 20) as f64 / (1 << 20) as f64
    }
}

/// Edge-weight variables in `[1e-4, 1]`, as the vote encodings box them.
fn edge_vars(n: usize, rng: &mut Lcg) -> VarSpace {
    let mut vars = VarSpace::new();
    for i in 0..n {
        vars.add(format!("w{i}"), 0.1 + 0.8 * rng.unit(), 1e-4, 1.0);
    }
    vars
}

/// A similarity signomial `Σ_z c(1−c)^{|z|} Π_{e∈z} x_e` over 2–3 walks
/// of 2–4 edges; walks may repeat an edge and share edges with others.
fn similarity(rng: &mut Lcg, n_vars: usize) -> Signomial {
    let mut s = Signomial::zero();
    for _ in 0..2 + rng.below(2) {
        let len = 2 + rng.below(3) as usize;
        let edges: Vec<VarId> = (0..len)
            .map(|_| VarId(rng.below(n_vars as u64) as u32))
            .collect();
        let coeff = RESTART * (1.0 - RESTART).powi(len as i32);
        s.push(Monomial::from_path(coeff, edges));
    }
    s
}

/// One vote margin `S(q, a) − S(q, a*)`.
fn margin(rng: &mut Lcg, n_vars: usize) -> Signomial {
    (similarity(rng, n_vars) - similarity(rng, n_vars)).simplified()
}

fn drift(vars: &VarSpace, weight: f64) -> ObjectiveTerm {
    ObjectiveTerm::QuadraticProximal {
        weight,
        anchors: vars.iter().map(|(v, _, init, _, _)| (v, init)).collect(),
    }
}

/// The eliminated multi-vote form: `λ1‖x − x0‖² + λ2 Σ σ(w·margin)`, at a
/// continuation-stage steepness so most sigmoids are active.
fn multi_vote_program() -> SgpProblem {
    let mut rng = Lcg(7);
    let n = 48;
    let vars = edge_vars(n, &mut rng);
    let mut objective = CompositeObjective::new();
    objective.push(drift(&vars, 0.5));
    for _ in 0..32 {
        objective.push(ObjectiveTerm::SigmoidPenalty {
            weight: 0.5,
            steepness: 10.0,
            inner: margin(&mut rng, n),
        });
    }
    SgpProblem::unconstrained(vars, objective)
}

/// The single-vote form: drift objective, one constraint
/// `S(q, a) − S(q, a*) + margin ≤ 0` per competing answer.
fn single_vote_program() -> SgpProblem {
    let mut rng = Lcg(11);
    let n = 24;
    let vars = edge_vars(n, &mut rng);
    let mut objective = CompositeObjective::new();
    objective.push(drift(&vars, 1.0));
    let mut p = SgpProblem::new(vars, objective);
    for i in 0..4 {
        let expr = margin(&mut rng, n) + Signomial::constant(0.05);
        p.add_constraint_leq_zero(expr, format!("competitor {i}"));
    }
    p
}

/// Allocations made by one solve of `p` with `inner` inner iterations.
fn solve_allocations(solver: &dyn Solver, p: &SgpProblem, inner: usize) -> (u64, SolveResult) {
    let opts = SolveOptions {
        max_outer_iters: 3,
        max_inner_iters: inner,
        step_tol: 0.0,
        ..SolveOptions::default()
    };
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = solver.solve(p, &opts).expect("solve");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    (after - before, result)
}

/// Asserts that one solve allocates no more with a 500-iteration inner
/// budget than with a 50-iteration one, and returns the inner iterations
/// the two solves ran, so the caller can check the comparison covered
/// extra iterations.
fn assert_flat_in_iterations(name: &str, solver: &dyn Solver, p: &SgpProblem) -> (usize, usize) {
    // Warm-up: first-use allocations (thread-locals, telemetry lookups).
    solve_allocations(solver, p, 5);
    let (short, r_short) = solve_allocations(solver, p, 50);
    let (long, r_long) = solve_allocations(solver, p, 500);
    assert_eq!(r_short.outer_iterations, r_long.outer_iterations, "{name}");
    assert!(
        long <= short + NOISE_ALLOWANCE,
        "{name}: {long} allocations in {} inner iterations vs {short} in {} \
         — the solve allocates per iteration",
        r_long.inner_iterations,
        r_short.inner_iterations
    );
    (r_short.inner_iterations, r_long.inner_iterations)
}

/// All cases are measured from ONE `#[test]` function: the counter is
/// process-global, and separate tests would run on separate threads
/// whose harness bookkeeping bleeds into each other's windows.
#[test]
fn merit_evaluation_does_not_allocate() {
    kg_telemetry::disable();
    let multi = multi_vote_program();
    let single = single_vote_program();
    assert!(multi.objective.terms().len() > 30);
    assert!(single.n_constraints() > 0);
    // The single-vote program starts infeasible, so its merit carries
    // penalty terms.
    assert!(single.max_violation(&single.vars.initial_point()) > 0.0);
    // Adam runs every iteration it is given (`step_tol` 0): same outer
    // rounds, ten times the inner iterations.
    let adam = PenaltySolver::new();
    for (name, p) in [("multi-vote", &multi), ("single-vote", &single)] {
        let (short, long) = assert_flat_in_iterations(name, &adam, p);
        assert_eq!(long, 10 * short, "{name}");
    }
    // L-BFGS stops once no Armijo step exists. On the single-vote program
    // its outer rounds keep it iterating (150 vs about 1,000 inner
    // iterations), which is the case that shows per-iteration allocation;
    // on the multi-vote program it converges within a handful of
    // iterations under either budget.
    let lbfgs = PenaltySolver::with_inner(LbfgsOptimizer::default());
    let (short, long) = assert_flat_in_iterations("single-vote, L-BFGS", &lbfgs, &single);
    assert!(
        long >= short + 500,
        "single-vote, L-BFGS: {short} vs {long}"
    );
    let (short, long) = assert_flat_in_iterations("multi-vote, L-BFGS", &lbfgs, &multi);
    assert_eq!(
        short, long,
        "multi-vote, L-BFGS converges under both budgets"
    );
}
