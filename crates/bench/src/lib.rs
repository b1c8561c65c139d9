//! # laab-bench — kernel and ablation benches
//!
//! Shared plumbing for the Criterion benches that time what no report
//! does: the GEMM engine against the frozen seed kernel (`gemm_engine`),
//! the batched vector products (`gemm_multi_rhs`), and the pass,
//! substrate and thread-scaling ablations (`ablation_*`), plus the
//! `crossover_sweep` binary that charts how the paper's gaps grow with
//! n. The paper's tables and figures themselves are `laab run`'s.
//!
//! Criterion benches run at a laptop-friendly default size; set
//! `LAAB_BENCH_N` to change it (e.g. `LAAB_BENCH_N=1024 cargo bench`).

#![deny(missing_docs)]

use laab_expr::eval::Env;
use laab_expr::Context;

/// Benchmark problem size: `LAAB_BENCH_N` or the default (256 — large
/// enough that GEMM dominates dispatch overhead, small enough that a full
/// `cargo bench` sweep finishes in minutes on one core).
pub fn bench_n() -> usize {
    std::env::var("LAAB_BENCH_N").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

/// The standard square workload at [`bench_n`], plus its context.
pub fn bench_env() -> (usize, Env<f32>, Context) {
    let n = bench_n();
    let cfg = laab_core::ExperimentConfig { n, ..Default::default() };
    (n, laab_core::workloads::square_env(&cfg), laab_core::workloads::square_ctx(&cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_env_is_consistent() {
        let (n, env, ctx) = bench_env();
        assert_eq!(env.expect("A").shape(), (n, n));
        assert_eq!(ctx.expect("x").shape.rows, n);
    }
}
