//! Matrix-property dispatch demo (the paper's Experiment 3 / Table IV).
//!
//! The same product `X·B` is executed three ways for each structure of `X`
//! (triangular, symmetric-output, tridiagonal, diagonal, orthogonal):
//! the framework's `matmul` (structure-blind GEMM), the hand-coded
//! specialized kernel, and `laab-rewrite`'s automatic property dispatch.
//!
//! ```text
//! cargo run --release --example property_dispatch [n]
//! ```

use laab::prelude::*;
use laab_kernels::{counters, matmul, syrk, trmm, UpLo};
use laab_rewrite::aware_eval;
use laab_stats::{fmt_secs, time_reps};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(384);
    println!("Property dispatch at n = {n} (paper Table IV)\n");
    let cfg = TimingConfig { reps: 10, warmup: 2 };

    let mut gen = OperandGen::new(13);
    let a = gen.matrix::<f32>(n, n);
    let b = gen.matrix::<f32>(n, n);
    let l = gen.lower_triangular::<f32>(n);
    let tri = gen.tridiagonal::<f32>(n);
    let diag = gen.diagonal::<f32>(n);
    let q = gen.orthogonal::<f32>(n);

    let env = Env::new()
        .with("A", a.clone())
        .with("B", b.clone())
        .with("L", l.clone())
        .with("T", tri.to_dense())
        .with("D", diag.to_dense())
        .with("Q", q);
    let ctx = Context::new()
        .with("A", n, n)
        .with("B", n, n)
        .with_props("L", n, n, Props::LOWER_TRIANGULAR)
        .with_props("T", n, n, Props::TRIDIAGONAL)
        .with_props("D", n, n, Props::DIAGONAL)
        .with_props("Q", n, n, Props::ORTHOGONAL);

    println!("expression         matmul   hand-coded        aware   aware dispatch");

    let report = |label: &str, expr: &Expr, hand: &mut dyn FnMut() -> Matrix<f32>| {
        let ml = env.expect(match label {
            "LB" => "L",
            "TB" => "T",
            "DB" => "D",
            _ => "A",
        });
        let t_mm = time_reps(cfg, || {
            matmul(
                ml,
                Trans::No,
                if label == "AAᵀ" { ml } else { &b },
                if label == "AAᵀ" { Trans::Yes } else { Trans::No },
            )
        });
        let t_hand = time_reps(cfg, &mut *hand);
        let t_aware = time_reps(cfg, || aware_eval(expr, &env, &ctx));
        let (_, counts) = counters::measure(|| aware_eval(expr, &env, &ctx));
        println!(
            "{:<12} {:>12} {:>12} {:>12}   {}",
            label,
            fmt_secs(t_mm.min()),
            fmt_secs(t_hand.min()),
            fmt_secs(t_aware.min()),
            counts.describe()
        );
    };

    let lb = var("L") * var("B");
    report("LB", &lb, &mut || trmm(1.0f32, &l, UpLo::Lower, &b));
    let aat = var("A") * var("A").t();
    report("AAᵀ", &aat, &mut || syrk(1.0f32, &a, Trans::No));
    let tb = var("T") * var("B");
    report("TB", &tb, &mut || laab_kernels::tridiag_matmul(&tri, &b));
    let db = var("D") * var("B");
    report("DB", &db, &mut || laab_kernels::diag_matmul(&diag, &b));

    // Orthogonality: QᵀQ·B needs no arithmetic at all.
    let qtqb = (var("Q").t() * var("Q")) * var("B");
    let (out, counts) = counters::measure(|| aware_eval(&qtqb, &env, &ctx));
    println!(
        "\n(QᵀQ)B with Q declared orthogonal: {} — result == B ({} element error)",
        if counts.total_flops() == 0 { "zero FLOPs" } else { "unexpected work!" },
        out.rel_dist(&b)
    );
    println!(
        "\nThe frameworks run a GEMM for every row above (Table IV: no property is exploited)."
    );
}
