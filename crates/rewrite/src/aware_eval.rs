//! Property-dispatching evaluation.
//!
//! The execution half of "linear algebra awareness": every product node is
//! dispatched to the cheapest kernel its operands' (declared or inferred)
//! properties permit — TRMM for triangular factors, SYRK for `X·Xᵀ`,
//! structured kernels for tridiagonal/diagonal factors, and *nothing at
//! all* for identity factors. This is the evaluator behind the "optimized"
//! columns of Experiment 3's Table IV.
//!
//! Structured operands are bound as ordinary dense matrices (exactly what
//! the user would hand the framework); the compact forms are extracted at
//! dispatch time, an O(n) read that the O(n²)-or-better kernels amortize.

use laab_dense::{Diagonal, Matrix, Scalar, Tridiagonal};
use laab_expr::eval::Env;
use laab_expr::is_transpose_pair;
use laab_expr::{Context, Expr, Props};
use laab_kernels::{matmul_dispatch, syrk, trmm, Trans, UpLo};

/// Evaluate `expr` with property dispatch.
///
/// `ctx` supplies the operand properties (shapes are re-checked against the
/// bound values). The result is numerically equal to
/// [`laab_expr::eval::eval`] up to floating-point reassociation.
enum Val<'e, T: Scalar> {
    Ref(&'e Matrix<T>),
    Owned(Matrix<T>),
}

impl<'e, T: Scalar> Val<'e, T> {
    fn get(&self) -> &Matrix<T> {
        match self {
            Val::Ref(m) => m,
            Val::Owned(m) => m,
        }
    }
    fn into_owned(self) -> Matrix<T> {
        match self {
            Val::Ref(m) => m.clone(),
            Val::Owned(m) => m,
        }
    }
}

/// Evaluate `expr` with property dispatch.
///
/// `ctx` supplies the operand properties (shapes are re-checked against the
/// bound values). The result is numerically equal to
/// [`laab_expr::eval::eval`] up to floating-point reassociation. Leaf
/// operands are borrowed, not copied, so the timing columns built on this
/// evaluator measure kernels rather than clones.
pub fn aware_eval<T: Scalar>(expr: &Expr, env: &Env<T>, ctx: &Context) -> Matrix<T> {
    go(expr, env, ctx).into_owned()
}

fn go<'e, T: Scalar>(expr: &Expr, env: &'e Env<T>, ctx: &Context) -> Val<'e, T> {
    match expr {
        Expr::Mul(a, b) => {
            let pa = a.props(ctx);
            let pb = b.props(ctx);
            // Identity factors vanish.
            if pa.contains(Props::IDENTITY) {
                return go(b, env, ctx);
            }
            if pb.contains(Props::IDENTITY) {
                return go(a, env, ctx);
            }
            // SYRK pattern: X·Xᵀ (or Xᵀ·X) — half the GEMM FLOPs. One
            // operand under two flags, so neither spelling materializes
            // a transpose.
            if is_transpose_pair(a, b) {
                let (x, trans) = match (&**a, &**b) {
                    (x, Expr::Transpose(inner)) if **inner == *x => (x, Trans::No),
                    (Expr::Transpose(inner), _) => (&**inner, Trans::Yes),
                    _ => unreachable!("is_transpose_pair guarantees a transpose side"),
                };
                return Val::Owned(syrk(T::ONE, go(x, env, ctx).get(), trans));
            }
            let va = go(a, env, ctx);
            let vb = go(b, env, ctx);
            let (va, vb) = (va.get(), vb.get());
            // Structured left factor.
            if pa.contains(Props::DIAGONAL) {
                return Val::Owned(laab_kernels::diag_matmul(&Diagonal::from_dense(va), vb));
            }
            if pa.contains(Props::TRIDIAGONAL) {
                return Val::Owned(laab_kernels::tridiag_matmul(&Tridiagonal::from_dense(va), vb));
            }
            if pa.contains(Props::LOWER_TRIANGULAR) {
                return Val::Owned(trmm(T::ONE, va, UpLo::Lower, vb));
            }
            if pa.contains(Props::UPPER_TRIANGULAR) {
                return Val::Owned(trmm(T::ONE, va, UpLo::Upper, vb));
            }
            // Structured right factor: B·L = (Lᵀ·Bᵀ)ᵀ (O(n²) transposes
            // around the half-FLOP kernel).
            if pb.contains(Props::DIAGONAL) {
                let r = laab_kernels::diag_matmul(&Diagonal::from_dense(vb), &va.transpose());
                return Val::Owned(r.transpose());
            }
            if pb.contains(Props::LOWER_TRIANGULAR) {
                return Val::Owned(
                    trmm(T::ONE, &vb.transpose(), UpLo::Upper, &va.transpose()).transpose(),
                );
            }
            if pb.contains(Props::UPPER_TRIANGULAR) {
                return Val::Owned(
                    trmm(T::ONE, &vb.transpose(), UpLo::Lower, &va.transpose()).transpose(),
                );
            }
            Val::Owned(matmul_dispatch(T::ONE, va, Trans::No, vb, Trans::No))
        }
        // Transposition of a symmetric value is free (pass the value
        // through, borrowed or owned as it came).
        Expr::Transpose(x) if x.props(ctx).contains(Props::SYMMETRIC) => go(x, env, ctx),
        Expr::Transpose(x) => Val::Owned(go(x, env, ctx).get().transpose()),
        Expr::Var(name) => Val::Ref(env.expect(name)),
        Expr::Identity(n) => Val::Owned(Matrix::identity(*n)),
        Expr::Add(a, b) => Val::Owned(laab_kernels::geadd(
            T::ONE,
            go(a, env, ctx).get(),
            T::ONE,
            go(b, env, ctx).get(),
        )),
        Expr::Sub(a, b) => Val::Owned(laab_kernels::geadd(
            T::ONE,
            go(a, env, ctx).get(),
            -T::ONE,
            go(b, env, ctx).get(),
        )),
        Expr::Scale(c, x) => {
            let v = go(x, env, ctx);
            let v = v.get();
            Val::Owned(laab_kernels::geadd(T::from_f64(c.0), v, T::ZERO, v))
        }
        Expr::Elem(x, i, j) => {
            let v = go(x, env, ctx);
            Val::Owned(Matrix::filled(1, 1, v.get()[(*i, *j)]))
        }
        Expr::Row(x, i) => {
            let v = go(x, env, ctx);
            Val::Owned(Matrix::row_vector(v.get().row(*i)))
        }
        Expr::Col(x, j) => {
            let v = go(x, env, ctx);
            Val::Owned(v.get().col_matrix(*j))
        }
        Expr::VCat(a, b) => Val::Owned(go(a, env, ctx).get().vcat(go(b, env, ctx).get())),
        Expr::HCat(a, b) => Val::Owned(go(a, env, ctx).get().hcat(go(b, env, ctx).get())),
        Expr::BlockDiag(a, b) => {
            Val::Owned(Matrix::block_diag(go(a, env, ctx).get(), go(b, env, ctx).get()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_dense::gen::OperandGen;
    use laab_expr::eval::eval;
    use laab_expr::var;
    use laab_kernels::counters::{self, Kernel};

    #[test]
    fn triangular_product_dispatches_to_trmm() {
        let n = 40;
        let mut g = OperandGen::new(91);
        let l = g.lower_triangular::<f64>(n);
        let b = g.matrix::<f64>(n, n);
        let env = Env::new().with("L", l).with("B", b);
        let ctx = env.context_with(
            |name| {
                if name == "L" {
                    Props::LOWER_TRIANGULAR
                } else {
                    Props::NONE
                }
            },
        );
        let e = var("L") * var("B");
        let (got, c) = counters::measure(|| aware_eval(&e, &env, &ctx));
        assert_eq!(c.calls(Kernel::Trmm), 1);
        assert_eq!(c.calls(Kernel::Gemm), 0);
        assert!(got.approx_eq(&eval(&e, &env), 1e-12));
    }

    #[test]
    fn right_triangular_product_also_dispatches() {
        let n = 24;
        let mut g = OperandGen::new(92);
        let l = g.lower_triangular::<f64>(n);
        let b = g.matrix::<f64>(n, n);
        let env = Env::new().with("L", l).with("B", b);
        let ctx = env.context_with(
            |name| {
                if name == "L" {
                    Props::LOWER_TRIANGULAR
                } else {
                    Props::NONE
                }
            },
        );
        let e = var("B") * var("L");
        let (got, c) = counters::measure(|| aware_eval(&e, &env, &ctx));
        assert_eq!(c.calls(Kernel::Trmm), 1);
        assert!(got.approx_eq(&eval(&e, &env), 1e-12));
    }

    #[test]
    fn syrk_pattern_dispatches_to_syrk() {
        let n = 32;
        let mut g = OperandGen::new(93);
        let env = Env::new().with("A", g.matrix::<f64>(n, n));
        let ctx = env.context_with(|_| Props::NONE);
        let e = var("A") * var("A").t();
        let (got, c) = counters::measure(|| aware_eval(&e, &env, &ctx));
        assert_eq!(c.calls(Kernel::Syrk), 1);
        assert_eq!(c.calls(Kernel::Gemm), 0);
        assert!(got.approx_eq(&eval(&e, &env), 1e-12));
        // Also the Aᵀ·A orientation.
        let e2 = var("A").t() * var("A");
        let (got2, c2) = counters::measure(|| aware_eval(&e2, &env, &ctx));
        assert_eq!(c2.calls(Kernel::Syrk), 1);
        assert!(got2.approx_eq(&eval(&e2, &env), 1e-12));
    }

    #[test]
    fn structured_factors_use_structured_kernels() {
        let n = 30;
        let mut g = OperandGen::new(94);
        let t = g.tridiagonal::<f64>(n);
        let d = g.diagonal::<f64>(n);
        let b = g.matrix::<f64>(n, n);
        let env = Env::new().with("T", t.to_dense()).with("D", d.to_dense()).with("B", b);
        let ctx = env.context_with(|name| match name {
            "T" => Props::TRIDIAGONAL,
            "D" => Props::DIAGONAL,
            _ => Props::NONE,
        });
        let (tb, c1) = counters::measure(|| aware_eval(&(var("T") * var("B")), &env, &ctx));
        assert_eq!(c1.calls(Kernel::TridiagMatmul), 1);
        assert!(tb.approx_eq(&eval(&(var("T") * var("B")), &env), 1e-12));
        let (db, c2) = counters::measure(|| aware_eval(&(var("D") * var("B")), &env, &ctx));
        assert_eq!(c2.calls(Kernel::DiagMatmul), 1);
        assert!(db.approx_eq(&eval(&(var("D") * var("B")), &env), 1e-12));
    }

    #[test]
    fn identity_factor_skips_all_work() {
        let n = 16;
        let mut g = OperandGen::new(95);
        let q = g.orthogonal::<f64>(n);
        let b = g.matrix::<f64>(n, n);
        let env = Env::new().with("Q", q).with("B", b.clone());
        let ctx =
            env.context_with(|name| if name == "Q" { Props::ORTHOGONAL } else { Props::NONE });
        let e = (var("Q").t() * var("Q")) * var("B");
        let (got, c) = counters::measure(|| aware_eval(&e, &env, &ctx));
        assert_eq!(c.calls(Kernel::Gemm) + c.calls(Kernel::Syrk), 0, "no O(n³) work");
        assert!(got.approx_eq(&b, 1e-12));
    }

    #[test]
    fn symmetric_transpose_is_free() {
        let n = 12;
        let mut g = OperandGen::new(96);
        let s = g.symmetric::<f64>(n);
        let env = Env::new().with("S", s.clone());
        let ctx = env.context_with(|_| Props::SYMMETRIC);
        let got = aware_eval(&var("S").t(), &env, &ctx);
        assert_eq!(got, s);
    }
}
