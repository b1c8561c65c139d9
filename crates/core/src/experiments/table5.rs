//! Table V — algebraic manipulation (Experiment 4).
//!
//! Three identities the frameworks never apply:
//!
//! * Eq. 9: `AB + AC = A(B+C)` — factoring halves the GEMM count;
//! * Eq. 10: `Ax − Hᵀ(Hx) = (A − HᵀH)x` — here the *left* side is the
//!   cheap one (three GEMVs vs one GEMM): fewer multiplications ≠ fewer
//!   FLOPs;
//! * Eq. 11: `blkdiag(A₁,A₂)·[B₁;B₂] = [A₁B₁; A₂B₂]` — the blocked
//!   product halves the FLOPs.
//!
//! Each side is executed as written (graph mode); the checks assert the
//! paper's ratios, and notes report what `laab-rewrite`'s e-graph optimizer
//! finds.

use laab_expr::cost::naive_cost;
use laab_expr::eval::eval;
use laab_expr::{block_diag, var, vcat, Context, Expr};
use laab_framework::Framework;
use laab_rewrite::{optimize_egraph, EgraphConfig};
use laab_stats::{fmt_secs, Samples, Table};

use crate::workloads::{blocked_env, square_ctx, square_env};
use crate::{CheckOutcome, ExperimentConfig, ExperimentResult};

use super::{check_ratio, check_slower, check_value, counted, describe_counts, time};

/// Run the Table V experiment.
pub fn table5(cfg: &ExperimentConfig) -> ExperimentResult {
    let env = square_env(cfg);
    let ctx = square_ctx(cfg);
    let (benv, bctx) = blocked_env(cfg);
    let mut checks: Vec<CheckOutcome> = Vec::new();

    let flow = Framework::flow();
    let torch = Framework::torch();

    let mut table = Table::new(
        format!("Table V: algebraic manipulations, graph mode, n = {}", cfg.n),
        &["Property", "Side", "Flow [s]", "Torch [s]"],
    );
    let mut analysis =
        Table::new("Table V analysis: kernel traffic (graph mode, Flow)", &["Case", "Kernels"]);

    let mut run_pair = |name: &str,
                        lhs: &Expr,
                        rhs: &Expr,
                        env: &laab_expr::eval::Env<f32>,
                        ctx: &laab_expr::Context,
                        checks: &mut Vec<CheckOutcome>|
     -> (Samples, Samples) {
        let oracle = eval(lhs, env);
        let fl = flow.function_from_expr(lhs, ctx);
        let fr = flow.function_from_expr(rhs, ctx);
        let tl_torch = torch.function_from_expr(lhs, ctx);
        let tr_torch = torch.function_from_expr(rhs, ctx);

        let (lv, lc) = counted(|| fl.call(env));
        let (rv, rc) = counted(|| fr.call(env));
        check_value(cfg, checks, &format!("{name} LHS"), &lv[0], &oracle);
        check_value(cfg, checks, &format!("{name} RHS"), &rv[0], &oracle);

        let t_lhs = time(cfg, || fl.call(env));
        let t_rhs = time(cfg, || fr.call(env));
        let t_lhs_torch = time(cfg, || tl_torch.call(env));
        let t_rhs_torch = time(cfg, || tr_torch.call(env));

        table.push_row(vec![
            name.to_string(),
            "LHS".into(),
            fmt_secs(t_lhs.min()),
            fmt_secs(t_lhs_torch.min()),
        ]);
        table.push_row(vec![
            name.to_string(),
            "RHS".into(),
            fmt_secs(t_rhs.min()),
            fmt_secs(t_rhs_torch.min()),
        ]);
        analysis.push_row(vec![format!("{name} LHS"), describe_counts(&lc)]);
        analysis.push_row(vec![format!("{name} RHS"), describe_counts(&rc)]);
        (t_lhs, t_rhs)
    };

    // ---- Eq. 9: AB + AC vs A(B+C) ----
    let eq9_lhs = var("A") * var("B") + var("A") * var("C");
    let eq9_rhs = var("A") * (var("B") + var("C"));
    let (t9l, t9r) = run_pair("Distributivity Eq 9", &eq9_lhs, &eq9_rhs, &env, &ctx, &mut checks);
    check_ratio(&mut checks, "Eq 9: LHS ≈ 2× RHS (two GEMMs vs one)", &t9l, &t9r, 1.6, 2.5);

    // ---- Eq. 10: Ax − Hᵀ(Hx) vs (A − HᵀH)x ----
    let eq10_lhs = var("A") * var("x") - var("H").t() * (var("H") * var("x"));
    let eq10_rhs = (var("A") - var("H").t() * var("H")) * var("x");
    let (t10l, t10r) =
        run_pair("Distributivity Eq 10", &eq10_lhs, &eq10_rhs, &env, &ctx, &mut checks);
    check_slower(
        &mut checks,
        "Eq 10: RHS ≫ LHS (fewer products but more FLOPs; paper ≈40×)",
        &t10r,
        &t10l,
        5.0,
    );

    // ---- Eq. 11: blocked matrices ----
    let eq11_lhs = block_diag(var("A1"), var("A2")) * vcat(var("B1"), var("B2"));
    let eq11_rhs = vcat(var("A1") * var("B1"), var("A2") * var("B2"));
    let (t11l, t11r) =
        run_pair("Blocked matrices Eq 11", &eq11_lhs, &eq11_rhs, &benv, &bctx, &mut checks);
    check_ratio(&mut checks, "Eq 11: LHS ≈ 2× RHS (2n³ vs n³ FLOPs)", &t11l, &t11r, 1.5, 2.6);

    // What the rewriter does with each expensive side: the found form and
    // its FLOP ratio to the input (naive dense pricing).
    let rewrite = |e: &Expr, ctx: &Context| {
        let best = optimize_egraph(e, ctx, &EgraphConfig::default()).best;
        let ratio = naive_cost(e, ctx) as f64 / naive_cost(&best, ctx) as f64;
        (best, ratio)
    };
    let (r9, s9) = rewrite(&eq9_lhs, &ctx);
    let (r10, s10) = rewrite(&eq10_rhs, &ctx);
    let (r11, s11) = rewrite(&eq11_lhs, &bctx);
    table.note(format!("laab-rewrite on Eq 9 LHS: `{r9}` ({s9:.0}× fewer FLOPs)"));
    table.note(format!("laab-rewrite on Eq 10 RHS: `{r10}` ({s10:.0}× fewer FLOPs)"));
    table.note(format!("laab-rewrite on Eq 11 LHS: `{r11}` ({s11:.1}× fewer FLOPs)"));
    checks.push(CheckOutcome {
        name: "rewriter factors Eq 9".into(),
        passed: s9 > 1.0,
        detail: format!("{} → {}", naive_cost(&eq9_lhs, &ctx), naive_cost(&r9, &ctx)),
        timing: false,
    });
    checks.push(CheckOutcome {
        name: "rewriter distributes Eq 10 (RHS → LHS shape)".into(),
        passed: s10 > 5.0,
        detail: format!("speedup {s10:.1}"),
        timing: false,
    });
    checks.push(CheckOutcome {
        name: "rewriter splits the blocked product (Eq 11)".into(),
        passed: r11 == eq11_rhs,
        detail: format!("found `{r11}`"),
        timing: false,
    });

    ExperimentResult {
        id: "table5".into(),
        title: "Algebraic Manipulation (Table V)".into(),
        table,
        analysis,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_reproduces_paper_shape() {
        let cfg = ExperimentConfig::quick(160);
        let r = table5(&cfg);
        assert_eq!(r.table.rows.len(), 6);
        for c in r.asserted_checks() {
            assert!(c.passed, "failed check: {} — {}", c.name, c.detail);
        }
    }
}
