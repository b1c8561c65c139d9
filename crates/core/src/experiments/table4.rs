//! Table IV — exploiting matrix properties (Experiment 3).
//!
//! Five products whose left operand carries exploitable structure. The
//! hand-coded ("SciPy BLAS") column calls the specialized kernels directly;
//! the frameworks' `matmul` columns ignore the structure (always GEMM);
//! `Flow`'s `tridiagonal_matmul` is the one manual escape hatch (and is
//! "n.a." on `Torch`). An extra `aware` column shows `laab-rewrite`'s
//! property dispatch recovering the hand-coded performance automatically —
//! the optimization the paper's discussion asks the frameworks to add.

use laab_expr::eval::eval;
use laab_expr::var;
use laab_framework::Framework;
use laab_kernels::counters::Kernel;
use laab_kernels::{matmul, syrk, trmm, Trans, UpLo};
use laab_rewrite::aware_eval;
use laab_stats::{fmt_secs, Samples, Table};

use crate::baselines::{diag_scal_sequence, tridiag_scal_sequence};
use crate::workloads::structured;
use crate::{CheckOutcome, ExperimentConfig, ExperimentResult};

use super::{check_indistinguishable, check_slower, check_value, counted, time};

/// Run the Table IV experiment.
pub fn table4(cfg: &ExperimentConfig) -> ExperimentResult {
    let w = structured(cfg);
    let (env, ctx) = (&w.env, &w.ctx);
    let mut checks: Vec<CheckOutcome> = Vec::new();

    let a = env.expect("A").clone();
    let b = env.expect("B").clone();
    let l = env.expect("L").clone();

    let flow = Framework::flow();
    let torch = Framework::torch();

    let mut table = Table::new(
        format!("Table IV: exploiting matrix properties, n = {}", cfg.n),
        &[
            "Expr",
            "SciPy BLAS [s]",
            "Flow matmul [s]",
            "Flow optim [s]",
            "Torch matmul [s]",
            "Torch optim [s]",
            "LAAB aware [s]",
        ],
    );
    let mut analysis = Table::new(
        "Table IV analysis: dispatch per column",
        &["Expr", "SciPy kernel", "Framework kernel", "Aware kernel"],
    );

    struct RowOut {
        scipy: Samples,
        fw_matmul: Samples,
        aware: Samples,
    }
    let mut outs: Vec<RowOut> = Vec::new();

    // Row helper: [expr label, scipy closure, framework expr, aware expr].
    // Rows are written out longhand — each has a distinct baseline kernel.

    // ---- AB (reference row: no structure) ----
    {
        let expr = var("A") * var("B");
        let oracle = eval(&expr, env);
        let scipy = time(cfg, || matmul(&a, Trans::No, &b, Trans::No));
        let f_flow = flow.function_from_expr(&expr, &ctx.clone());
        let f_torch = torch.function_from_expr(&expr, &ctx.clone());
        let t_flow = time(cfg, || f_flow.call(env));
        let t_torch = time(cfg, || f_torch.call(env));
        let t_aware = time(cfg, || aware_eval(&expr, env, ctx));
        let (av, _) = counted(|| aware_eval(&expr, env, ctx));
        check_value(cfg, &mut checks, "AB aware", &av, &oracle);
        table.push_row(vec![
            "AB".into(),
            fmt_secs(scipy.min()),
            fmt_secs(t_flow.min()),
            "n.a.".into(),
            fmt_secs(t_torch.min()),
            "n.a.".into(),
            fmt_secs(t_aware.min()),
        ]);
        analysis.push_row(vec!["AB".into(), "GEMM".into(), "GEMM".into(), "GEMM".into()]);
        outs.push(RowOut { scipy, fw_matmul: t_flow, aware: t_aware });
    }

    // ---- LB (lower triangular → TRMM) ----
    {
        let expr = var("L") * var("B");
        let oracle = eval(&expr, env);
        let scipy = time(cfg, || trmm(1.0f32, &l, UpLo::Lower, &b));
        let f_flow = flow.function_from_expr(&expr, &ctx.clone());
        let f_torch = torch.function_from_expr(&expr, &ctx.clone());
        let t_flow = time(cfg, || f_flow.call(env));
        let t_torch = time(cfg, || f_torch.call(env));
        let t_aware = time(cfg, || aware_eval(&expr, env, ctx));
        let (av, ac) = counted(|| aware_eval(&expr, env, ctx));
        check_value(cfg, &mut checks, "LB aware", &av, &oracle);
        checks.push(CheckOutcome {
            name: "LB: aware dispatch uses TRMM".into(),
            passed: ac.calls(Kernel::Trmm) == 1 && ac.calls(Kernel::Gemm) == 0,
            detail: ac.describe(),
            timing: false,
        });
        table.push_row(vec![
            "LB".into(),
            fmt_secs(scipy.min()),
            fmt_secs(t_flow.min()),
            "n.a.".into(),
            fmt_secs(t_torch.min()),
            "n.a.".into(),
            fmt_secs(t_aware.min()),
        ]);
        analysis.push_row(vec!["LB".into(), "TRMM".into(), "GEMM".into(), "TRMM".into()]);
        outs.push(RowOut { scipy, fw_matmul: t_flow, aware: t_aware });
    }

    // ---- AAᵀ (symmetric output → SYRK) ----
    {
        let expr = var("A") * var("A").t();
        let oracle = eval(&expr, env);
        let scipy = time(cfg, || syrk(1.0f32, &a, Trans::No));
        let f_flow = flow.function_from_expr(&expr, &ctx.clone());
        let f_torch = torch.function_from_expr(&expr, &ctx.clone());
        let t_flow = time(cfg, || f_flow.call(env));
        let t_torch = time(cfg, || f_torch.call(env));
        let t_aware = time(cfg, || aware_eval(&expr, env, ctx));
        let (av, ac) = counted(|| aware_eval(&expr, env, ctx));
        check_value(cfg, &mut checks, "AAᵀ aware", &av, &oracle);
        checks.push(CheckOutcome {
            name: "AAᵀ: aware dispatch uses SYRK".into(),
            passed: ac.calls(Kernel::Syrk) == 1 && ac.calls(Kernel::Gemm) == 0,
            detail: ac.describe(),
            timing: false,
        });
        table.push_row(vec![
            "AAᵀ".into(),
            fmt_secs(scipy.min()),
            fmt_secs(t_flow.min()),
            "n.a.".into(),
            fmt_secs(t_torch.min()),
            "n.a.".into(),
            fmt_secs(t_aware.min()),
        ]);
        analysis.push_row(vec!["AAᵀ".into(), "SYRK".into(), "GEMM".into(), "SYRK".into()]);
        outs.push(RowOut { scipy, fw_matmul: t_flow, aware: t_aware });
    }

    // ---- TB (tridiagonal → SCAL sequence / tridiagonal_matmul) ----
    {
        let expr = var("T") * var("B");
        let oracle = eval(&expr, env);
        let tri = w.tri.clone();
        let scipy = time(cfg, || tridiag_scal_sequence(&tri, &b));
        let f_flow = flow.function_from_expr(&expr, &ctx.clone());
        let f_torch = torch.function_from_expr(&expr, &ctx.clone());
        let t_flow = time(cfg, || f_flow.call(env));
        let t_torch = time(cfg, || f_torch.call(env));
        // Flow's specialized method (eager, fused, parallelizable).
        let bt = flow.tensor(b.clone());
        let t_optim = time(cfg, || flow.tridiagonal_matmul(&tri, &bt));
        let t_aware = time(cfg, || aware_eval(&expr, env, ctx));
        let (av, ac) = counted(|| aware_eval(&expr, env, ctx));
        check_value(cfg, &mut checks, "TB aware", &av, &oracle);
        checks.push(CheckOutcome {
            name: "TB: aware dispatch uses the tridiagonal kernel".into(),
            passed: ac.calls(Kernel::TridiagMatmul) == 1 && ac.calls(Kernel::Gemm) == 0,
            detail: ac.describe(),
            timing: false,
        });
        check_slower(
            &mut checks,
            "TB: framework matmul ≫ SCAL sequence (O(n³) vs O(n²))",
            &t_flow,
            &scipy,
            2.0,
        );
        checks.push(CheckOutcome {
            name: "TB: tridiagonal_matmul at least as fast as the SCAL sequence".into(),
            passed: t_optim.min() <= scipy.min() * 1.10,
            detail: format!("optim {} vs scipy {}", fmt_secs(t_optim.min()), fmt_secs(scipy.min())),
            timing: true,
        });
        table.push_row(vec![
            "TB".into(),
            fmt_secs(scipy.min()),
            fmt_secs(t_flow.min()),
            fmt_secs(t_optim.min()),
            fmt_secs(t_torch.min()),
            "n.a.".into(),
            fmt_secs(t_aware.min()),
        ]);
        analysis.push_row(vec![
            "TB".into(),
            "SCAL×n + AXPY×2(n−1)".into(),
            "GEMM".into(),
            "TRIDIAG_MM (fused)".into(),
        ]);
        outs.push(RowOut { scipy, fw_matmul: t_flow, aware: t_aware });
    }

    // ---- DB (diagonal → SCAL sequence) ----
    {
        let expr = var("D") * var("B");
        let oracle = eval(&expr, env);
        let diag = w.diag.clone();
        let scipy = time(cfg, || diag_scal_sequence(&diag, &b));
        let f_flow = flow.function_from_expr(&expr, &ctx.clone());
        let f_torch = torch.function_from_expr(&expr, &ctx.clone());
        let t_flow = time(cfg, || f_flow.call(env));
        let t_torch = time(cfg, || f_torch.call(env));
        let dt = diag.to_tridiagonal();
        let bt = flow.tensor(b.clone());
        let t_optim = time(cfg, || flow.tridiagonal_matmul(&dt, &bt));
        let t_aware = time(cfg, || aware_eval(&expr, env, ctx));
        let (av, ac) = counted(|| aware_eval(&expr, env, ctx));
        check_value(cfg, &mut checks, "DB aware", &av, &oracle);
        checks.push(CheckOutcome {
            name: "DB: aware dispatch uses the diagonal kernel".into(),
            passed: ac.calls(Kernel::DiagMatmul) == 1 && ac.calls(Kernel::Gemm) == 0,
            detail: ac.describe(),
            timing: false,
        });
        check_slower(&mut checks, "DB: framework matmul ≫ SCAL sequence", &t_flow, &scipy, 3.0);
        table.push_row(vec![
            "DB".into(),
            fmt_secs(scipy.min()),
            fmt_secs(t_flow.min()),
            fmt_secs(t_optim.min()),
            fmt_secs(t_torch.min()),
            "n.a.".into(),
            fmt_secs(t_aware.min()),
        ]);
        analysis.push_row(vec![
            "DB".into(),
            "SCAL×n".into(),
            "GEMM".into(),
            "TRIDIAG_MM (fused)".into(),
        ]);
        outs.push(RowOut { scipy, fw_matmul: t_flow, aware: t_aware });
    }

    // Cross-row findings.
    check_indistinguishable(
        cfg,
        &mut checks,
        "AB: hand-coded GEMM == framework matmul",
        &outs[0].scipy,
        &outs[0].fw_matmul,
    );
    // The paper sees ≈1.7× at n = 3000; at small n the O(n²) portions of
    // TRMM/SYRK (zeroing, symmetrizing) eat into the 2× FLOP advantage, so
    // the bound is size-aware.
    let tri_bound = if cfg.n >= 384 { 1.35 } else { 1.02 };
    check_slower(
        &mut checks,
        "LB: framework matmul slower than TRMM (paper: ≈1.7×)",
        &outs[1].fw_matmul,
        &outs[1].scipy,
        tri_bound,
    );
    check_slower(
        &mut checks,
        "AAᵀ: framework matmul slower than SYRK (paper: ≈1.7×)",
        &outs[2].fw_matmul,
        &outs[2].scipy,
        tri_bound,
    );
    // Aware dispatch must recover (or beat) the hand-coded kernel. For the
    // structured rows the fused kernels legitimately beat the per-row SCAL
    // sequences (fewer memory passes, no per-row dispatch), so only an
    // upper bound applies there.
    for (i, (label, lo)) in
        [("AB", 0.6), ("LB", 0.5), ("AAᵀ", 0.5), ("TB", 0.05), ("DB", 0.05)].iter().enumerate()
    {
        let r = outs[i].aware.min() / outs[i].scipy.min();
        checks.push(CheckOutcome::ratio(
            format!("{label}: aware dispatch matches or beats hand-coded kernel"),
            r,
            *lo,
            1.6,
        ));
    }
    table.note(
        "n.a. = the framework offers no specialized method the user could call (paper Table IV)",
    );

    ExperimentResult {
        id: "table4".into(),
        title: "Exploiting Matrix Properties (Table IV)".into(),
        table,
        analysis,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_reproduces_paper_shape() {
        let cfg = ExperimentConfig::quick(160);
        let r = table4(&cfg);
        assert_eq!(r.table.rows.len(), 5);
        for c in r.asserted_checks() {
            assert!(c.passed, "failed check: {} — {}", c.name, c.detail);
        }
    }
}
