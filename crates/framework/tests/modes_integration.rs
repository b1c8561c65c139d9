//! Framework-level integration tests: the two modes and two profiles
//! behave per the paper. That every mode computes the same values is
//! `tests/equivalence.rs`'s claim, over the paper's parsed expressions
//! among others.

use laab_dense::gen::OperandGen;
use laab_expr::eval::{eval, Env};
use laab_expr::{parse, Context};
use laab_framework::lower::eager_eval_expr;
use laab_framework::{Framework, Profile};
use laab_kernels::counters::{self, Kernel};

fn workload(n: usize) -> (Env<f32>, Context) {
    let mut g = OperandGen::new(77);
    let env = Env::new()
        .with("A", g.matrix(n, n))
        .with("B", g.matrix(n, n))
        .with("H", g.matrix(n, n))
        .with("x", g.matrix(n, 1))
        .with("y", g.matrix(n, 1));
    let ctx = Context::new()
        .with("A", n, n)
        .with("B", n, n)
        .with("H", n, n)
        .with("x", n, 1)
        .with("y", n, 1);
    (env, ctx)
}

/// Calling a traced function repeatedly neither re-traces nor changes the
/// kernel traffic (the "compile once, run many" contract).
#[test]
fn traced_functions_are_reusable() {
    let n = 8;
    let (env, ctx) = workload(n);
    let expr = parse("(A^T B)^T (A^T B)", &ctx).unwrap();
    let f = Framework::flow().function_from_expr(&expr, &ctx);
    let (_, first) = counters::measure(|| f.call(&env));
    let (_, second) = counters::measure(|| f.call(&env));
    assert_eq!(first, second, "kernel traffic stable across calls");
    assert_eq!(first.calls(Kernel::Gemm), 2);
}

/// A function can be called with different feeds of the same shape.
#[test]
fn functions_rebind_feeds() {
    let n = 6;
    let (env, ctx) = workload(n);
    let expr = parse("A B", &ctx).unwrap();
    let f = Framework::torch().function_from_expr(&expr, &ctx);
    let out1 = f.call(&env);

    let mut g = OperandGen::new(123);
    let env2 = Env::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));
    let out2 = f.call(&env2);
    assert!(!out1[0].approx_eq(&out2[0], 1e-6), "different feeds, different results");
    assert!(out2[0].approx_eq(&eval(&expr, &env2), 1e-4));
}

/// Profile capabilities are exactly the paper's asymmetry.
#[test]
fn profile_capability_asymmetry() {
    assert!(Profile::Flow.has_tridiagonal_matmul() && !Profile::Flow.has_multi_dot());
    assert!(Profile::Torch.has_multi_dot() && !Profile::Torch.has_tridiagonal_matmul());
    assert_eq!(Profile::Flow.name(), "Flow (TF)");
    assert_eq!(Profile::Torch.name(), "Torch (PyT)");
}

/// Eager tensors share storage: transposing and slicing do not copy the
/// full buffer, and the original remains usable.
#[test]
fn eager_tensors_share_storage() {
    let n = 64;
    let mut g = OperandGen::new(5);
    let m = g.matrix::<f32>(n, n);
    let t = Framework::flow().tensor(m.clone());
    let view = t.t();
    // Both remain usable; the view reads the same storage.
    assert_eq!(t.shape(), (n, n));
    assert_eq!(view.shape(), (n, n));
    assert_eq!(view.elem(3, 5).to_matrix()[(0, 0)], m[(5, 3)]);
    assert_eq!(t.elem(5, 3).to_matrix()[(0, 0)], m[(5, 3)]);
}

/// Graph mode with all passes disabled matches eager kernel-for-kernel —
/// the ablation identity behind the Table I comparison.
#[test]
fn unoptimized_graph_equals_eager_traffic() {
    let n = 8;
    let (env, ctx) = workload(n);
    let expr = parse("(A^T B)^T (A^T B)", &ctx).unwrap();

    let (_, eager) = counters::measure(|| eager_eval_expr(&expr, &env));
    let fw = Framework::flow().with_passes(laab_graph::PassConfig::none());
    let f = fw.function_from_expr(&expr, &ctx);
    let (_, graph) = counters::measure(|| f.call(&env));
    assert_eq!(
        eager.calls(Kernel::Gemm),
        graph.calls(Kernel::Gemm),
        "no-pass graph mode replays the eager schedule"
    );
}
