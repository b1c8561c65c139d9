//! Analyze any blackboard-syntax expression the way the paper analyzes its
//! test expressions: FLOP cost as written, cost with sharing, cost with
//! property awareness, the rewriter's best variant, and measured timings
//! through eager and graph modes.
//!
//! ```text
//! cargo run --release --example analyze_expression -- "H' H x" [n]
//! cargo run --release --example analyze_expression -- "(A^T B)^T A^T B" 384
//! ```
//!
//! Operands: `A B C H` are n×n general, `L` lower-triangular, `S`
//! symmetric, `D` diagonal, `x y` are n×1 vectors.

use laab::prelude::*;
use laab_expr::cost::{aware_cost, naive_cost, shared_cost};
use laab_expr::parse;
use laab_framework::lower::eager_eval_expr;
use laab_kernels::counters;
use laab_rewrite::{optimize_egraph, EgraphConfig};
use laab_stats::{fmt_secs, time_reps};

fn main() {
    let mut args = std::env::args().skip(1);
    let src = args.next().unwrap_or_else(|| "H' H x".to_string());
    let n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(384);

    let mut g = OperandGen::new(2024);
    let env = Env::<f32>::new()
        .with("A", g.matrix(n, n))
        .with("B", g.matrix(n, n))
        .with("C", g.matrix(n, n))
        .with("H", g.matrix(n, n))
        .with("L", g.lower_triangular(n))
        .with("S", g.symmetric(n))
        .with("D", g.diagonal(n).to_dense())
        .with("x", g.matrix(n, 1))
        .with("y", g.matrix(n, 1));
    let ctx = Context::new()
        .with("A", n, n)
        .with("B", n, n)
        .with("C", n, n)
        .with("H", n, n)
        .with_props("L", n, n, Props::LOWER_TRIANGULAR)
        .with_props("S", n, n, Props::SYMMETRIC)
        .with_props("D", n, n, Props::DIAGONAL)
        .with("x", n, 1)
        .with("y", n, 1);

    let expr = match parse(&src, &ctx) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot parse `{src}`: {e}");
            std::process::exit(2);
        }
    };
    println!("expression : {expr}");
    println!("shape      : {}", expr.shape(&ctx));
    println!("properties : {:?}", expr.props(&ctx));
    println!();
    println!("FLOPs as written (dense kernels) : {:>14}", naive_cost(&expr, &ctx));
    println!("FLOPs with CSE (shared pricing)  : {:>14}", shared_cost(&expr, &ctx, false));
    println!("FLOPs with property awareness    : {:>14}", aware_cost(&expr, &ctx));

    let found = optimize_egraph(&expr, &ctx, &EgraphConfig::default());
    let found_flops = naive_cost(&found.best, &ctx);
    println!(
        "\nrewriter ({} e-nodes saturated): `{}`  at {} FLOPs  ({:.1}x)",
        found.stats.enodes,
        found.best,
        found_flops,
        naive_cost(&expr, &ctx) as f64 / found_flops as f64
    );

    // Measured.
    let cfg = TimingConfig { reps: 10, warmup: 2 };
    let (_, eager_counts) = counters::measure(|| eager_eval_expr(&expr, &env));
    let t_eager = time_reps(cfg, || eager_eval_expr(&expr, &env));
    let flow = Framework::flow();
    let f = flow.function_from_expr(&expr, &ctx);
    let (_, graph_counts) = counters::measure(|| f.call(&env));
    let t_graph = time_reps(cfg, || f.call(&env));
    let f_best = flow.function_from_expr(&found.best, &ctx);
    let t_best = time_reps(cfg, || f_best.call(&env));

    println!("\nmode          min time     kernel traffic");
    println!("eager      {:>9}     {}", fmt_secs(t_eager.min()), eager_counts.describe());
    println!("graph      {:>9}     {}", fmt_secs(t_graph.min()), graph_counts.describe());
    println!("rewritten  {:>9}     (`{}`)", fmt_secs(t_best.min()), found.best);
}
