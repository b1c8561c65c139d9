//! Image restoration by iterative backward projection (the application
//! behind the paper's Fig. 1, after Tirer & Giryes 2018).
//!
//! A 1-D signal is blurred by a local operator `H` and recovered by the
//! fixed-point iteration
//!
//! ```text
//! x_{k+1} = Hᵀ(y − H x_k) + x_k
//! ```
//!
//! which is exactly the paper's Expression 1 in its cheapest form
//! (variant 3). The example runs the solver three times — once per
//! algebraic variant of the update — and shows that all converge to the
//! same restoration while their per-iteration cost differs by orders of
//! magnitude.
//!
//! ```text
//! cargo run --release --example image_restoration [n]
//! ```

use laab::prelude::*;
use laab_expr::cost::naive_cost;
use laab_framework::Function;
use laab_rewrite::{optimize_egraph, EgraphConfig};
use laab_stats::fmt_secs;
use std::time::Instant;

/// A row-normalized local blur operator (near-Toeplitz band matrix plus a
/// ridge on the diagonal so the iteration contracts).
fn blur_operator(n: usize) -> Matrix<f32> {
    let radius = 2i64;
    Matrix::from_fn(n, n, |i, j| {
        let d = (i as i64 - j as i64).abs();
        if d <= radius {
            // triangular kernel, normalized below
            (radius + 1 - d) as f32 / ((radius + 1) * (radius + 1)) as f32
        } else {
            0.0
        }
    })
}

/// A piecewise-smooth ground-truth signal.
fn ground_truth(n: usize) -> Matrix<f32> {
    Matrix::from_fn(n, 1, |i, _| {
        let t = i as f32 / n as f32;
        if t < 0.3 {
            1.0
        } else if t < 0.6 {
            (t * 20.0).sin() * 0.5
        } else {
            -0.8
        }
    })
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(384);
    println!("Iterative image restoration (paper Fig. 1 application), n = {n}\n");

    let h = blur_operator(n);
    let truth = ground_truth(n);
    let y = laab_kernels::matmul(&h, Trans::No, &truth, Trans::No); // blurred observation

    let ctx = Context::new().with("H", n, n).with("x", n, 1).with("y", n, 1);
    let (hv, xv, yv) = (var("H"), var("x"), var("y"));
    let variants: Vec<(&str, Expr)> = vec![
        (
            "variant 1: Hᵀy + (I − HᵀH)x",
            hv.t() * yv.clone() + (laab_expr::identity(n) - hv.t() * hv.clone()) * xv.clone(),
        ),
        (
            "variant 2: Hᵀy + x − Hᵀ(Hx)",
            hv.t() * yv.clone() + xv.clone() - hv.t() * (hv.clone() * xv.clone()),
        ),
        ("variant 3: Hᵀ(y − Hx) + x", hv.t() * (yv.clone() - hv.clone() * xv.clone()) + xv.clone()),
    ];

    let flow = Framework::flow();
    let iters = 30;
    for (label, update) in &variants {
        let f: Function = flow.function_from_expr(update, &ctx);
        let mut x = Matrix::<f32>::zeros(n, 1);
        let t0 = Instant::now();
        for _ in 0..iters {
            let env = Env::new().with("H", h.clone()).with("x", x).with("y", y.clone());
            x = f.call(&env).pop().unwrap();
        }
        let dt = t0.elapsed().as_secs_f64();
        let err = x.rel_dist(&truth);
        println!(
            "{label:<34} {iters} iterations in {:>8}  ({} / iter)   restoration error {err:.3}",
            fmt_secs(dt),
            fmt_secs(dt / iters as f64),
        );
    }

    // The rewriter discovers the cheap variant automatically.
    let v1 = &variants[0].1;
    let r = optimize_egraph(v1, &ctx, &EgraphConfig::default());
    println!(
        "\nlaab-rewrite, starting from variant 1, proposes `{}` ({:.0}x fewer FLOPs, {} e-nodes saturated)",
        r.best,
        naive_cost(v1, &ctx) as f64 / naive_cost(&r.best, &ctx) as f64,
        r.stats.enodes
    );
}
