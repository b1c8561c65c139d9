//! Fig. 1 — the image-restoration expression in three algebraic variants.
//!
//! `y ← Hᵀy + (I − HᵀH)x` (variant 1, as the physics reads) is rewritten
//! via distributivity and associativity into variant 2
//! (`Hᵀy + x − Hᵀ(Hx)`) and variant 3 (`Hᵀ(y − Hx) + x`). Variant 1 pays
//! an O(n³) GEMM; variants 2 and 3 are three resp. two GEMVs. The
//! experiment reproduces the figure's timings and additionally reports what
//! the `laab-rewrite` e-graph optimizer finds when handed variant 1.

use laab_expr::cost::naive_cost;
use laab_expr::eval::eval;
use laab_expr::{identity, var, Expr};
use laab_framework::Framework;
use laab_rewrite::{optimize_egraph, EgraphConfig};
use laab_stats::{fmt_secs, Table};

use crate::workloads::{square_ctx, square_env};
use crate::{CheckOutcome, ExperimentConfig, ExperimentResult};

use super::{check_slower, check_value, counted, describe_counts, time};

/// The three variants of the paper's Fig. 1.
pub fn variants(n: usize) -> Vec<(&'static str, Expr)> {
    let (h, x, y) = (var("H"), var("x"), var("y"));
    vec![
        (
            "Variant 1: Hᵀy + (I − HᵀH)x",
            h.t() * y.clone() + (identity(n) - h.t() * h.clone()) * x.clone(),
        ),
        (
            "Variant 2: Hᵀy + x − Hᵀ(Hx)",
            h.t() * y.clone() + x.clone() - h.t() * (h.clone() * x.clone()),
        ),
        ("Variant 3: Hᵀ(y − Hx) + x", h.t() * (y.clone() - h.clone() * x.clone()) + x.clone()),
    ]
}

/// Run the Fig. 1 experiment.
pub fn fig1(cfg: &ExperimentConfig) -> ExperimentResult {
    let env = square_env(cfg);
    let ctx = square_ctx(cfg);
    let mut checks: Vec<CheckOutcome> = Vec::new();

    let mut table = Table::new(
        format!("Fig 1: Image-restoration variants (n = {})", cfg.n),
        &["Variant", "Flow graph [s]", "Torch graph [s]", "FLOPs (naive model)"],
    );
    let mut analysis = Table::new(
        "Fig 1 analysis: kernel traffic per variant (graph mode)",
        &["Variant", "Kernels"],
    );

    let flow = Framework::flow();
    let torch = Framework::torch();
    let oracle = eval(&variants(cfg.n)[0].1, &env);

    let mut sampled = Vec::new();
    for (label, expr) in variants(cfg.n) {
        let f_flow = flow.function_from_expr(&expr, &ctx);
        let f_torch = torch.function_from_expr(&expr, &ctx);
        let (out, counts) = counted(|| f_flow.call(&env));
        check_value(cfg, &mut checks, label, &out[0], &oracle);

        let t_flow = time(cfg, || f_flow.call(&env));
        let t_torch = time(cfg, || f_torch.call(&env));
        let flops = naive_cost(&expr, &ctx);
        table.push_row(vec![
            label.to_string(),
            fmt_secs(t_flow.min()),
            fmt_secs(t_torch.min()),
            format!("{:.1} MFLOP", flops as f64 / 1e6),
        ]);
        analysis.push_row(vec![label.to_string(), describe_counts(&counts)]);
        sampled.push(t_flow);
    }

    // The paper's finding: variants 2 and 3 (no matrix-matrix product) are
    // significantly faster than variant 1.
    check_slower(
        &mut checks,
        "variant 1 ≫ variant 2 (GEMM vs GEMVs)",
        &sampled[0],
        &sampled[1],
        3.0,
    );
    check_slower(&mut checks, "variant 1 ≫ variant 3", &sampled[0], &sampled[2], 3.0);
    // Variant 3 does one fewer GEMV than variant 2.
    let r23 = sampled[1].min() / sampled[2].min();
    checks.push(CheckOutcome::ratio("variant 2 / variant 3 ≈ 3/2 GEMVs", r23, 0.95, 2.5));

    // What the rewriter finds from variant 1.
    let v1 = &variants(cfg.n)[0].1;
    let found = optimize_egraph(v1, &ctx, &EgraphConfig::default());
    let found_flops = naive_cost(&found.best, &ctx);
    table.note(format!(
        "laab-rewrite from variant 1: `{}` at {:.1} MFLOP ({} e-nodes, {:.0}x fewer FLOPs)",
        found.best,
        found_flops as f64 / 1e6,
        found.stats.enodes,
        naive_cost(v1, &ctx) as f64 / found_flops as f64
    ));
    let v3_cost = naive_cost(&variants(cfg.n)[2].1, &ctx);
    checks.push(CheckOutcome {
        name: "rewriter reaches variant-3 cost from variant 1".into(),
        passed: found_flops <= v3_cost,
        detail: format!("found {found_flops} vs variant-3 {v3_cost}"),
        timing: false,
    });

    ExperimentResult {
        id: "fig1".into(),
        title: "Image restoration variants (Fig 1)".into(),
        table,
        analysis,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_paper_shape() {
        let cfg = ExperimentConfig::quick(96);
        let r = fig1(&cfg);
        assert_eq!(r.table.rows.len(), 3);
        for c in r.asserted_checks() {
            assert!(c.passed, "failed check: {} — {}", c.name, c.detail);
        }
    }
}
