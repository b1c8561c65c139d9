//! Property test: every execution back-end computes the same value.
//!
//! A seeded generator produces random *well-typed* expressions over a small
//! operand set; each expression is evaluated through four independent
//! paths — the naive oracle, eager mode, optimized graph mode, and the
//! property-aware evaluator — and additionally through the tree the
//! e-graph optimizer extracts. All must agree numerically.
//!
//! The served compiler (`Plan`) is checked against the traced plan at
//! both optimizer levels: the expression (or its extraction) traced
//! through `Framework::flow()`'s passes. It must compute the same values
//! and never run more kernel calls or FLOPs.

use laab::backend::registry;
use laab::kernels::counters::measure;
use laab::prelude::*;
use laab::serve::{OptLevel, Plan};
use laab_framework::lower::eager_eval_expr;
use laab_rewrite::{aware_eval, optimize_egraph, CostModel, EgraphConfig};
use proptest::prelude::*;

/// Deterministic well-typed expression builder.
///
/// Grammar: square operands `A,B,H` (n×n, general), `L` (lower-tri), `S`
/// (symmetric), vectors `x,y` (n×1). Productions keep shapes conformal by
/// construction.
fn build_expr(seed: u64, depth: usize, n: usize) -> Expr {
    // Tiny xorshift so the test is hermetic (no rand dependency needed).
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    fn square(state: &mut u64, depth: usize, n: usize) -> Expr {
        if depth == 0 {
            return match next(state) % 5 {
                0 => var("A"),
                1 => var("B"),
                2 => var("H"),
                3 => var("L"),
                _ => var("S"),
            };
        }
        match next(state) % 8 {
            0 => square(state, depth - 1, n).t(),
            1 => square(state, depth - 1, n) * square(state, depth - 1, n),
            2 => square(state, depth - 1, n) + square(state, depth - 1, n),
            3 => square(state, depth - 1, n) - square(state, depth - 1, n),
            4 => laab_expr::scale(((next(state) % 5) as f64) - 2.0, square(state, depth - 1, n)),
            5 => laab_expr::identity(n) - square(state, depth - 1, n),
            6 => {
                let x = square(state, depth - 1, n);
                x.clone() * x.t()
            }
            _ => square(state, depth - 1, n),
        }
    }
    fn full(state: &mut u64, depth: usize, n: usize) -> Expr {
        match next(state) % 4 {
            // A square expression…
            0 | 1 => square(state, depth, n),
            // …applied to a vector (chains ending in x)…
            2 => square(state, depth, n) * var("x"),
            // …or sliced.
            _ => {
                let m = square(state, depth, n);
                let i = (next(state) % n as u64) as usize;
                let j = (next(state) % n as u64) as usize;
                laab_expr::elem(m, i, j)
            }
        }
    }
    let mut state = seed | 1;
    full(&mut state, depth, n)
}

/// Equal under `==`, with NaN equal to NaN. Not bitwise: a `0·P` folded
/// into a GEMM's `alpha` gives `+0` where a separate scaling gives `−0`.
fn same_values(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
}

fn workload(n: usize, seed: u64) -> (Env<f32>, Context) {
    let mut g = OperandGen::new(seed);
    let env = Env::new()
        .with("A", g.matrix(n, n))
        .with("B", g.matrix(n, n))
        .with("H", g.matrix(n, n))
        .with("L", g.lower_triangular(n))
        .with("S", g.symmetric(n))
        .with("x", g.matrix(n, 1))
        .with("y", g.matrix(n, 1));
    let ctx = Context::new()
        .with("A", n, n)
        .with("B", n, n)
        .with("H", n, n)
        .with_props("L", n, n, Props::LOWER_TRIANGULAR)
        .with_props("S", n, n, Props::SYMMETRIC)
        .with("x", n, 1)
        .with("y", n, 1);
    (env, ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_backends_agree(seed in any::<u64>(), depth in 1usize..4, data_seed in any::<u64>()) {
        let n = 6;
        let (env, ctx) = workload(n, data_seed);
        let expr = build_expr(seed, depth, n);
        prop_assume!(expr.try_shape(&ctx).is_ok());
        // Values of repeated products can grow; keep comparisons relative.
        let oracle = laab_expr::eval::eval(&expr, &env);
        prop_assume!(oracle.all_finite());

        let eager = eager_eval_expr(&expr, &env);
        prop_assert!(eager.approx_eq(&oracle, 1e-3), "eager differs for `{expr}`");

        let f = Framework::flow().function_from_expr(&expr, &ctx);
        let graph = f.call(&env);
        prop_assert!(graph[0].approx_eq(&oracle, 1e-3), "graph differs for `{expr}`");

        let aware = aware_eval(&expr, &env, &ctx);
        prop_assert!(aware.approx_eq(&oracle, 1e-3), "aware differs for `{expr}`");

        for opt in OptLevel::ALL {
            let chosen = match opt {
                OptLevel::Passes => expr.clone(),
                OptLevel::Egraph => optimize_egraph(&expr, &ctx, &EgraphConfig::default()).best,
            };
            let traced = Framework::flow().function_from_expr(&chosen, &ctx);
            let (want, traced_work) = measure(|| traced.call(&env));
            let fw = Framework::flow();
            let plan = Plan::compile_opt(&fw, &expr, &ctx, registry::default_backend(), &[], opt);
            let (got, work) = measure(|| plan.execute(&env));
            prop_assert!(same_values(&got[0], &want[0]), "{opt} plan differs for `{expr}`");
            prop_assert!(work.total_calls() <= traced_work.total_calls(), "{opt} calls: `{expr}`");
            prop_assert!(work.total_flops() <= traced_work.total_flops(), "{opt} FLOPs: `{expr}`");
        }
    }

    #[test]
    fn egraph_extraction_preserves_semantics(
        seed in any::<u64>(),
        depth in 1usize..3,
        data_seed in any::<u64>(),
    ) {
        // Covers every extracted form, including Gram products rebuilt as
        // `xᵀ·x` over the declared-triangular `L` and declared-symmetric `S`.
        let n = 5;
        let (env, ctx) = workload(n, data_seed);
        let expr = build_expr(seed, depth, n);
        prop_assume!(expr.try_shape(&ctx).is_ok());
        let oracle = laab_expr::eval::eval(&expr, &env);
        prop_assume!(oracle.all_finite());

        let best = optimize_egraph(&expr, &ctx, &EgraphConfig::default()).best;
        prop_assert_eq!(
            best.try_shape(&ctx).ok(),
            expr.try_shape(&ctx).ok(),
            "rewrite changed the shape: `{}` -> `{}`", expr, best
        );
        let v = laab_expr::eval::eval(&best, &env);
        prop_assert!(
            v.approx_eq(&oracle, 1e-3),
            "rewrite changed the value: `{}` -> `{}` (dist {})",
            expr, best, v.rel_dist(&oracle)
        );
    }

    #[test]
    fn optimizer_never_increases_cost(
        seed in any::<u64>(),
        depth in 1usize..3,
    ) {
        let n = 16;
        let (_, ctx) = workload(n, 0);
        let expr = build_expr(seed, depth, n);
        prop_assume!(expr.try_shape(&ctx).is_ok());
        let r = optimize_egraph(&expr, &ctx, &EgraphConfig::default());
        prop_assert!(r.best_cost <= r.original_cost);
        // And the reported best is really priced at best_cost.
        prop_assert_eq!(CostModel::default().expr_cost(&r.best, &ctx), r.best_cost);
    }
}
