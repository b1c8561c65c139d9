//! Reference evaluation: the semantics oracle.
//!
//! [`eval`] computes an expression's value with the simplest correct
//! strategy — recursive descent, explicit transposition, every product
//! through the packed GEMM. It carries no optimizations at all, which makes
//! it the ground truth that every optimized back-end (eager, graph,
//! rewritten) is tested against.

use std::collections::HashMap;
use std::sync::Arc;

use laab_dense::{Matrix, Scalar};
use laab_kernels::{matmul, Trans};

use crate::{Context, Expr, Props, Shape};

/// Binding of operand names to concrete matrices.
///
/// Bindings are shared, not owned: each value sits behind a reference
/// count, so cloning an `Env` — the usual way to derive one request's
/// bindings from a pool of shared operands — costs one count per operand,
/// whatever the operands' size. Values are immutable once bound; binding
/// a name again replaces it in this `Env` only.
#[derive(Debug, Clone, Default)]
pub struct Env<T: Scalar> {
    map: HashMap<Arc<str>, Arc<Matrix<T>>>,
}

impl<T: Scalar> Env<T> {
    /// An empty environment.
    pub fn new() -> Self {
        Self { map: HashMap::new() }
    }

    /// Bind `name` to `value`, replacing any previous binding (whose
    /// name is reused, not allocated again).
    pub fn insert(&mut self, name: &str, value: Matrix<T>) {
        match self.map.get_mut(name) {
            Some(bound) => *bound = Arc::new(value),
            None => {
                self.map.insert(name.into(), Arc::new(value));
            }
        }
    }

    /// Builder-style binding.
    pub fn with(mut self, name: &str, value: Matrix<T>) -> Self {
        self.insert(name, value);
        self
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&Matrix<T>> {
        self.map.get(name).map(|m| &**m)
    }

    /// The reference-counted handle `name` is bound to. Two environments
    /// bind `name` to one value when their handles share an allocation
    /// (`Arc::ptr_eq`): how a caller recognises a re-used operand without
    /// reading its elements.
    pub fn binding(&self, name: &str) -> Option<&Arc<Matrix<T>>> {
        self.map.get(name)
    }

    /// Look up a binding, panicking with a clear message when missing.
    pub fn expect(&self, name: &str) -> &Matrix<T> {
        self.get(name).unwrap_or_else(|| panic!("operand `{name}` is not bound in the Env"))
    }

    /// Derive the typing [`Context`] from the bound values, declaring every
    /// operand with the given property lookup (use `|_| Props::NONE` when
    /// structure is irrelevant).
    pub fn context_with(&self, props_of: impl Fn(&str) -> Props) -> Context {
        let mut ctx = Context::new();
        let mut names: Vec<&str> = self.map.keys().map(|k| &**k).collect();
        names.sort();
        for name in names {
            let m = self.expect(name);
            ctx.declare(name, Shape::new(m.rows(), m.cols()), props_of(name));
        }
        ctx
    }
}

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

/// Evaluate `expr` under `env` with the naive reference strategy.
///
/// # Panics
/// On unbound operands or shape mismatches (the same conditions
/// [`Expr::try_shape`] reports statically).
pub fn eval<T: Scalar>(expr: &Expr, env: &Env<T>) -> Matrix<T> {
    eval_val(expr, env).into_owned()
}

fn eval_val<'e, T: Scalar>(expr: &Expr, env: &'e Env<T>) -> Val<'e, T> {
    match expr {
        Expr::Var(name) => Val::Ref(env.expect(name)),
        Expr::Identity(n) => Val::Owned(Matrix::identity(*n)),
        Expr::Transpose(x) => Val::Owned(eval_val(x, env).get().transpose()),
        Expr::Mul(a, b) => {
            let (va, vb) = (eval_val(a, env), eval_val(b, env));
            Val::Owned(matmul(va.get(), Trans::No, vb.get(), Trans::No))
        }
        Expr::Add(a, b) => {
            let (va, vb) = (eval_val(a, env), eval_val(b, env));
            // Reuse an owned operand buffer instead of allocating; IEEE
            // addition commutes exactly, so either side may accumulate.
            match (va, vb) {
                (Val::Owned(mut m), vb) => {
                    m += vb.get();
                    Val::Owned(m)
                }
                (Val::Ref(r), Val::Owned(mut m)) => {
                    m += r;
                    Val::Owned(m)
                }
                (Val::Ref(r), Val::Ref(r2)) => Val::Owned(r.add(r2)),
            }
        }
        Expr::Sub(a, b) => {
            let (va, vb) = (eval_val(a, env), eval_val(b, env));
            match va {
                Val::Owned(mut m) => {
                    m -= vb.get();
                    Val::Owned(m)
                }
                Val::Ref(r) => Val::Owned(r.sub(vb.get())),
            }
        }
        Expr::Scale(c, x) => Val::Owned(eval_val(x, env).get().scale(T::from_f64(c.0))),
        Expr::Elem(x, i, j) => {
            let v = eval_val(x, env);
            Val::Owned(Matrix::filled(1, 1, v.get()[(*i, *j)]))
        }
        Expr::Row(x, i) => {
            let v = eval_val(x, env);
            Val::Owned(Matrix::row_vector(v.get().row(*i)))
        }
        Expr::Col(x, j) => {
            let v = eval_val(x, env);
            Val::Owned(v.get().col_matrix(*j))
        }
        Expr::VCat(a, b) => {
            let (va, vb) = (eval_val(a, env), eval_val(b, env));
            Val::Owned(va.get().vcat(vb.get()))
        }
        Expr::HCat(a, b) => {
            let (va, vb) = (eval_val(a, env), eval_val(b, env));
            Val::Owned(va.get().hcat(vb.get()))
        }
        Expr::BlockDiag(a, b) => {
            let (va, vb) = (eval_val(a, env), eval_val(b, env));
            Val::Owned(Matrix::block_diag(va.get(), vb.get()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{elem, identity, scale, var, vcat};
    use laab_dense::gen::OperandGen;

    fn env_n(n: usize, seed: u64) -> Env<f64> {
        let mut g = OperandGen::new(seed);
        Env::new()
            .with("A", g.matrix(n, n))
            .with("B", g.matrix(n, n))
            .with("x", g.matrix(n, 1))
            .with("y", g.matrix(n, 1))
    }

    #[test]
    fn identity_times_anything_is_anything() {
        let env = env_n(6, 1);
        let e = identity(6) * var("A");
        assert!(eval(&e, &env).approx_eq(env.expect("A"), 1e-14));
    }

    #[test]
    fn image_restoration_variants_agree() {
        // Fig 1: y := Hᵀy + (I − HᵀH)x in three algebraic forms.
        let n = 12;
        let mut g = OperandGen::new(2);
        let env = Env::<f64>::new()
            .with("H", g.matrix(n, n))
            .with("x", g.matrix(n, 1))
            .with("y", g.matrix(n, 1));
        let (h, x, y) = (var("H"), var("x"), var("y"));
        let v1 = h.t() * y.clone() + (identity(n) - h.t() * h.clone()) * x.clone();
        let v2 = h.t() * y.clone() + x.clone() - h.t() * (h.clone() * x.clone());
        let v3 = h.t() * (y.clone() - h.clone() * x.clone()) + x.clone();
        let (r1, r2, r3) = (eval(&v1, &env), eval(&v2, &env), eval(&v3, &env));
        assert!(r1.approx_eq(&r2, 1e-12));
        assert!(r2.approx_eq(&r3, 1e-12));
    }

    #[test]
    fn parenthesization_does_not_change_value() {
        let env = env_n(9, 3);
        let (h, x) = (var("A"), var("x"));
        let ltr = h.t() * h.clone() * x.clone();
        let rtl = h.t() * (h.clone() * x.clone());
        assert!(eval(&ltr, &env).approx_eq(&eval(&rtl, &env), 1e-12));
    }

    #[test]
    fn scale_and_sub() {
        let env = env_n(5, 4);
        let twice = scale(2.0, var("A"));
        let sum = var("A") + var("A");
        assert!(eval(&twice, &env).approx_eq(&eval(&sum, &env), 1e-15));
        let zero = var("A") - var("A");
        assert_eq!(eval(&zero, &env).max_abs(), 0.0);
    }

    #[test]
    fn slicing_matches_full_computation() {
        let env = env_n(7, 5);
        let full = eval(&(var("A") * var("B")), &env);
        let sliced = eval(&elem(var("A") * var("B"), 2, 3), &env);
        assert!((sliced[(0, 0)] - full[(2, 3)]).abs() < 1e-13);
        let dot = eval(&(var("A").row(2) * var("B").col(3)), &env);
        assert!((dot[(0, 0)] - full[(2, 3)]).abs() < 1e-13);
    }

    #[test]
    fn blocked_identity_eq11() {
        // Table V / Eq 11: blkdiag(A1,A2) · [B1; B2] == [A1B1; A2B2].
        let mut g = OperandGen::new(6);
        let env = Env::<f64>::new()
            .with("A1", g.matrix(4, 4))
            .with("A2", g.matrix(4, 4))
            .with("B1", g.matrix(4, 8))
            .with("B2", g.matrix(4, 8));
        let lhs = crate::block_diag(var("A1"), var("A2")) * vcat(var("B1"), var("B2"));
        let rhs = vcat(var("A1") * var("B1"), var("A2") * var("B2"));
        assert!(eval(&lhs, &env).approx_eq(&eval(&rhs, &env), 1e-12));
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn unbound_operand_panics() {
        let env = Env::<f32>::new();
        let _ = eval(&var("Z"), &env);
    }

    #[test]
    fn clones_share_bindings_and_rebinding_stays_local() {
        let base = env_n(5, 8);
        let mut derived = base.clone();
        assert!(std::ptr::eq(derived.expect("A"), base.expect("A")), "a clone copies no data");
        derived.insert("x", Matrix::zeros(5, 1));
        assert_eq!(derived.expect("x"), &Matrix::zeros(5, 1));
        assert_ne!(base.expect("x"), derived.expect("x"), "the base keeps its own binding");
        assert!(std::ptr::eq(derived.expect("B"), base.expect("B")));
    }

    #[test]
    fn context_with_derives_shapes() {
        let env = env_n(4, 7);
        let ctx = env.context_with(|_| Props::NONE);
        assert_eq!(ctx.expect("A").shape, Shape::new(4, 4));
        assert_eq!(ctx.expect("x").shape, Shape::new(4, 1));
    }
}
