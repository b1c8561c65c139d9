//! Lowering symbolic expressions onto the two execution modes.
//!
//! Every benchmark in `laab-core` defines its test expression once as an
//! [`Expr`] and runs it through:
//!
//! * [`eager_eval_expr`] — eager mode: each AST node becomes one immediate
//!   [`Tensor`] operation, in the exact association the user wrote;
//! * [`trace_expr`] — graph mode: each AST node appends one IR node to a
//!   [`FuncBuilder`] trace, which the framework then rebuilds through the
//!   graph builder (`laab_graph::optimize`).
//!
//! Identical lowering across modes is what makes the eager/graph columns of
//! the reproduced tables comparable.

use std::collections::HashMap;

use laab_dense::{Matrix, Scalar};
use laab_expr::eval::Env;
use laab_expr::{Context, Expr};

use crate::function::{FuncBuilder, GT};
use crate::tensor::Tensor;

/// Execute `e` in eager mode against `env`.
///
/// Operand tensors are created once per name (sharing storage), so repeated
/// references cost nothing extra — but repeated *subexpressions* are
/// recomputed, because eager mode has no memory of past calls.
pub fn eager_eval_expr<T: Scalar>(e: &Expr, env: &Env<T>) -> Matrix<T> {
    let mut cache: HashMap<String, Tensor<T>> = HashMap::new();
    rec(e, env, &mut cache).to_matrix()
}

fn rec<T: Scalar>(e: &Expr, env: &Env<T>, vars: &mut HashMap<String, Tensor<T>>) -> Tensor<T> {
    match e {
        Expr::Var(name) => vars
            .entry(name.clone())
            .or_insert_with(|| Tensor::new(env.expect(name).clone()))
            .clone(),
        Expr::Identity(n) => Tensor::new(Matrix::identity(*n)),
        Expr::Transpose(x) => rec(x, env, vars).t(),
        Expr::Mul(a, b) => {
            let (ta, tb) = (rec(a, env, vars), rec(b, env, vars));
            ta.matmul(&tb)
        }
        Expr::Add(a, b) => {
            let (ta, tb) = (rec(a, env, vars), rec(b, env, vars));
            ta.add(&tb)
        }
        Expr::Sub(a, b) => {
            let (ta, tb) = (rec(a, env, vars), rec(b, env, vars));
            ta.sub(&tb)
        }
        Expr::Scale(c, x) => rec(x, env, vars).scale(c.0),
        Expr::Elem(x, i, j) => rec(x, env, vars).elem(*i, *j),
        Expr::Row(x, i) => rec(x, env, vars).row(*i),
        Expr::Col(x, j) => rec(x, env, vars).col(*j),
        Expr::VCat(a, b) => {
            let (ta, tb) = (rec(a, env, vars), rec(b, env, vars));
            ta.vcat(&tb)
        }
        Expr::HCat(a, b) => {
            let (ta, tb) = (rec(a, env, vars), rec(b, env, vars));
            ta.hcat(&tb)
        }
        Expr::BlockDiag(a, b) => {
            let (ta, tb) = (rec(a, env, vars), rec(b, env, vars));
            ta.block_diag(&tb)
        }
    }
}

/// Trace `e` into graph-mode IR, returning the output handle. Operand
/// shapes come from `ctx`. The trace is verbatim, one IR node per AST node
/// (an operand's node shared by name); rebuilding it under
/// `PassConfig::all()` gives the graph `laab_graph::lower` walks from `e`
/// directly, which is what `laab-serve` compiles.
pub fn trace_expr(fb: &mut FuncBuilder, e: &Expr, ctx: &Context) -> GT {
    match e {
        Expr::Var(name) => {
            let info = ctx.expect(name);
            fb.input(name, info.shape.rows, info.shape.cols)
        }
        Expr::Identity(n) => fb.identity(*n),
        Expr::Transpose(x) => {
            let gx = trace_expr(fb, x, ctx);
            fb.t(gx)
        }
        Expr::Mul(a, b) => {
            let (ga, gb) = (trace_expr(fb, a, ctx), trace_expr(fb, b, ctx));
            fb.matmul(ga, gb)
        }
        Expr::Add(a, b) => {
            let (ga, gb) = (trace_expr(fb, a, ctx), trace_expr(fb, b, ctx));
            fb.add(ga, gb)
        }
        Expr::Sub(a, b) => {
            let (ga, gb) = (trace_expr(fb, a, ctx), trace_expr(fb, b, ctx));
            fb.sub(ga, gb)
        }
        Expr::Scale(c, x) => {
            let gx = trace_expr(fb, x, ctx);
            fb.scale(c.0, gx)
        }
        Expr::Elem(x, i, j) => {
            let gx = trace_expr(fb, x, ctx);
            fb.elem(gx, *i, *j)
        }
        Expr::Row(x, i) => {
            let gx = trace_expr(fb, x, ctx);
            fb.row(gx, *i)
        }
        Expr::Col(x, j) => {
            let gx = trace_expr(fb, x, ctx);
            fb.col(gx, *j)
        }
        Expr::VCat(a, b) => {
            let (ga, gb) = (trace_expr(fb, a, ctx), trace_expr(fb, b, ctx));
            fb.vcat(ga, gb)
        }
        Expr::HCat(a, b) => {
            let (ga, gb) = (trace_expr(fb, a, ctx), trace_expr(fb, b, ctx));
            fb.hcat(ga, gb)
        }
        Expr::BlockDiag(a, b) => {
            let (ga, gb) = (trace_expr(fb, a, ctx), trace_expr(fb, b, ctx));
            fb.block_diag(ga, gb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Framework;
    use laab_dense::gen::OperandGen;
    use laab_expr::eval::eval;
    use laab_expr::{identity, var, Props};
    use laab_kernels::counters::{self, Kernel};

    fn env(n: usize, seed: u64) -> Env<f64> {
        let mut g = OperandGen::new(seed);
        Env::new()
            .with("A", g.matrix(n, n))
            .with("B", g.matrix(n, n))
            .with("H", g.matrix(n, n))
            .with("x", g.matrix(n, 1))
            .with("y", g.matrix(n, 1))
    }

    #[test]
    fn eager_and_graph_agree_with_oracle() {
        let n = 10;
        let e = env(n, 31);
        let ctx = e.context_with(|_| Props::NONE);
        let exprs = vec![
            var("A").t() * var("B"),
            (var("A").t() * var("B")).t() * (var("A").t() * var("B")),
            var("H").t() * var("H") * var("x"),
            var("H").t() * var("y") + var("x") - var("H").t() * (var("H") * var("x")),
            laab_expr::elem(var("A") * var("B"), 2, 2),
            identity(n) - var("H").t() * var("H"),
        ];
        let fw = Framework::flow();
        for expr in &exprs {
            let want = eval(expr, &e);
            let eager = eager_eval_expr(expr, &e);
            assert!(eager.approx_eq(&want, 1e-10), "eager mismatch for `{expr}`");
            let f = fw.function_from_expr(expr, &ctx);
            let graph = f.call(&e);
            assert!(graph[0].approx_eq(&want, 1e-10), "graph mismatch for `{expr}`");
        }
    }

    #[test]
    fn eager_pays_duplicates_graph_does_not() {
        // Table I, row 2: E2 costs 3 GEMMs eagerly, 2 in graph mode.
        let n = 12;
        let e = env(n, 32);
        let ctx = e.context_with(|_| Props::NONE);
        let s = var("A").t() * var("B");
        let e2 = s.t() * s.clone();

        let (_r, eager_counts) = counters::measure(|| eager_eval_expr(&e2, &e));
        assert_eq!(eager_counts.calls(Kernel::Gemm), 3);

        let fw = Framework::flow();
        let f = fw.function_from_expr(&e2, &ctx);
        let (_r, graph_counts) = counters::measure(|| f.call(&e));
        assert_eq!(graph_counts.calls(Kernel::Gemm), 2);
    }

    #[test]
    fn trace_uses_one_input_node_per_operand() {
        let n = 6;
        let e = env(n, 33);
        let ctx = e.context_with(|_| Props::NONE);
        let expr = var("A") * var("B") + var("A") * var("B");
        let fw = Framework::torch();
        let f = fw.function_from_expr(&expr, &ctx);
        // Unoptimized trace: 2 inputs, 2 matmuls, 1 add.
        let un = f.unoptimized_graph();
        assert_eq!(un.count_kind(|k| matches!(k, laab_graph::OpKind::Input(_))), 2);
        assert_eq!(un.matmul_count(), 2);
        // Optimized: single alpha-2 GEMM.
        assert_eq!(f.graph().matmul_count(), 1);
    }
}
