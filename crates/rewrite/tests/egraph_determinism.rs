//! Determinism and termination of the e-graph optimizer.
//!
//! The optimizer's claims to the serving layer are (a) a fixed input
//! always extracts the *identical* expression — across repeated runs and
//! regardless of how many serving threads compile concurrently (the
//! algorithm holds no global state, so thread count must be
//! unobservable) — and (b) saturation always halts: either at a fixpoint
//! or by tripping the node budget, in which case it falls back to the
//! input expression with `budget_hit` reported, and a serving plan
//! compiled at the e-graph level lowers that input.

use laab_expr::eval::{eval, Env};
use laab_expr::{scale, var, Context, Expr};
use laab_rewrite::{optimize_egraph, EgraphConfig, SaturateConfig};
use laab_serve::workload::Family;
use laab_serve::{OptLevel, Plan};

/// A deterministic pseudo-random expression over square operands: every
/// operator is shape-preserving at `n×n`, so any tree conforms. The
/// generator is a bare LCG seeded explicitly — same seed, same tree.
fn random_expr(seed: u64, depth: usize) -> Expr {
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }
    fn gen(state: &mut u64, depth: usize) -> Expr {
        if depth == 0 {
            return var(["A", "B", "C"][(next(state) % 3) as usize]);
        }
        match next(state) % 6 {
            0 => gen(state, depth - 1) * gen(state, depth - 1),
            1 => gen(state, depth - 1) + gen(state, depth - 1),
            2 => gen(state, depth - 1) - gen(state, depth - 1),
            3 => gen(state, depth - 1).t(),
            4 => scale(((next(state) % 7) as f64) - 3.0, gen(state, depth - 1)),
            _ => var(["A", "B", "C"][(next(state) % 3) as usize]),
        }
    }
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    gen(&mut state, depth)
}

fn square_ctx(n: usize) -> Context {
    Context::new().with("A", n, n).with("B", n, n).with("C", n, n)
}

#[test]
fn fixed_seed_extracts_identically_across_runs() {
    let ctx = square_ctx(8);
    for seed in 0..24u64 {
        let e = random_expr(seed, 4);
        let r1 = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        let r2 = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        assert_eq!(r1.best, r2.best, "seed {seed}: extraction must be reproducible");
        assert_eq!(r1.best_cost, r2.best_cost);
        assert_eq!(r1.stats, r2.stats, "seed {seed}: saturation trajectory must match");
    }
}

#[test]
fn extraction_is_identical_across_thread_counts() {
    // The serving loop compiles from a worker pool whose size is a config
    // knob; the extracted plan must not depend on it. Run the same
    // optimization single-threaded and under 2/4/8-way concurrency
    // (every thread optimizing the full input set) and require identical
    // results everywhere.
    let ctx = square_ctx(8);
    let inputs: Vec<Expr> =
        (0..8u64).map(|s| random_expr(s, 4)).chain(Family::ALL.iter().map(|f| f.expr(8))).collect();
    let baseline: Vec<Expr> = inputs
        .iter()
        .map(|e| {
            let ctx = ctx_for(e, &ctx);
            optimize_egraph(e, &ctx, &EgraphConfig::default()).best
        })
        .collect();
    for threads in [2usize, 4, 8] {
        let results: Vec<Vec<Expr>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        inputs
                            .iter()
                            .map(|e| {
                                let ctx = ctx_for(e, &ctx);
                                optimize_egraph(e, &ctx, &EgraphConfig::default()).best
                            })
                            .collect::<Vec<Expr>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        for r in &results {
            assert_eq!(r, &baseline, "{threads}-way concurrent extraction diverged");
        }
    }
}

/// The serving families use their own operand names (`H`, `x`, `Q`, …);
/// everything else in this file lives in the square A/B/C context.
fn ctx_for(e: &Expr, square: &Context) -> Context {
    for f in Family::ALL {
        if *e == f.expr(8) {
            return f.ctx(8);
        }
    }
    square.clone()
}

#[test]
fn adversarial_nesting_halts_within_the_node_budget() {
    // Alternating mul/add nesting is the worst case for the rule set:
    // distribute × reassociate grow the graph combinatorially, so an
    // unbudgeted loop would effectively never converge. The default node
    // budget must trip, the loop must stop promptly (never overshooting
    // the cap by more than one round's worth of interning), and the
    // result must be the input expression, verbatim.
    let ctx = Context::new().with("A", 4, 4);
    let mut e = var("A");
    for _ in 0..24 {
        e = e.clone() * var("A") + var("A");
    }
    let cfg = EgraphConfig::default();
    let r = optimize_egraph(&e, &ctx, &cfg);
    assert!(r.stats.budget_hit, "default budgets must trip on adversarial nesting: {:?}", r.stats);
    assert!(!r.stats.saturated);
    assert!(!r.changed);
    assert_eq!(r.best, e, "budget hit falls back to the input unchanged");
    assert_eq!(r.best_cost, r.original_cost);
    // The cap is checked before each apply; a single application interns
    // at most one small Rhs tree, so the overshoot stays negligible.
    assert!(
        r.stats.enodes < cfg.saturate.max_nodes + 64,
        "node count {} ran away past the {} budget",
        r.stats.enodes,
        cfg.saturate.max_nodes
    );
}

#[test]
fn tight_budgets_still_terminate_and_fall_back() {
    // Degenerate budgets (0 iterations, or a node cap below the input's
    // own size) must still return the input rather than loop or panic.
    let ctx = square_ctx(6);
    let e = random_expr(5, 5);
    for saturate in [
        SaturateConfig { max_iters: 0, max_nodes: 4000 },
        SaturateConfig { max_iters: 8, max_nodes: 1 },
    ] {
        let r = optimize_egraph(&e, &ctx, &EgraphConfig { saturate, ..Default::default() });
        assert!(!r.changed);
        assert_eq!(r.best, e);
    }
}

#[test]
fn budget_fallback_flows_through_the_serving_plan() {
    // The serve-layer contract: a budget hit is not an error — the plan
    // still compiles, lowering the *input* expression exactly as the
    // passes level does. Both levels must then execute
    // bitwise-identically.
    let ctx = Context::new().with("A", 4, 4);
    let mut e = var("A");
    for _ in 0..24 {
        e = e.clone() * var("A") + var("A");
    }
    let fw = laab_framework::Framework::flow();
    let reg = laab_backend::registry::default_backend();
    assert_eq!(OptLevel::for_input(&e, &ctx), OptLevel::Passes, "the level must be pinned");
    let egraph = Plan::compile_opt(&fw, &e, &ctx, reg, &[], OptLevel::Egraph);
    let report = optimize_egraph(&e, &ctx, &EgraphConfig::default());
    assert!(report.stats.budget_hit);
    assert!(!report.changed);
    assert_eq!(report.best_cost, report.original_cost);
    let passes = Plan::compile_opt(&fw, &e, &ctx, reg, &[], OptLevel::Passes);
    let mut g = laab_dense::gen::OperandGen::new(9);
    let env: Env<f64> = Env::new().with("A", g.matrix(4, 4));
    let got = egraph.execute(&env);
    assert_eq!(got, passes.execute(&env), "fallback plan is the passes plan, bitwise");
    // And the graph really computes the nested expression.
    assert!(got.last().expect("one output").approx_eq(&eval(&e, &env), 1e-9));
}
