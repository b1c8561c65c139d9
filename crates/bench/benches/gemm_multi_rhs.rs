//! A batch of matrix-vector products two ways — the kernel half of the
//! batched-serving lever, in the standard `cargo bench` workflow (the
//! machine-readable rate is `benchmark/`'s `kernels.gemv_f64_gflops`).
//!
//! `A` is `n×n`; each right-hand side is `n×1`; both flags of `A`:
//!
//! * `solo_gemv_loop` — one GEMV per vector, re-reading all of `A` each
//!   time (memory-bound Level-2);
//! * `gemv_multi` — the engine's batched product: one read of `A` per
//!   group of eight, the vectors (`A·x`) or the rows of `y` (`Aᵀ·x`) in
//!   the SIMD lanes, bitwise the loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laab_dense::gen::OperandGen;
use laab_dense::Matrix;
use laab_kernels::{gemv_multi, matmul_dispatch, Trans};

fn bench(c: &mut Criterion) {
    let n = laab_bench::bench_n();
    let mut g = OperandGen::new(11);
    let a = g.matrix::<f64>(n, n);
    let parts: Vec<Matrix<f64>> = (0..32).map(|_| g.matrix::<f64>(n, 1)).collect();
    let refs: Vec<&Matrix<f64>> = parts.iter().collect();

    for (ta, flag) in [(Trans::No, "A·x"), (Trans::Yes, "Aᵀ·x")] {
        let mut group = c.benchmark_group(format!("gemm_multi_rhs/{flag}/n{n}"));
        for &q in &[1usize, 2, 4, 8, 32] {
            group.bench_with_input(BenchmarkId::new("solo_gemv_loop", q), &q, |bch, &q| {
                bch.iter(|| {
                    for b in &refs[..q] {
                        std::hint::black_box(matmul_dispatch(1.0, &a, ta, b, Trans::No));
                    }
                });
            });
            group.bench_with_input(BenchmarkId::new("gemv_multi", q), &q, |bch, &q| {
                let mut ys = vec![Matrix::<f64>::zeros(n, 1); q];
                bch.iter(|| {
                    gemv_multi(1.0, &a, ta, &refs[..q], 0.0, &mut ys);
                    std::hint::black_box(&ys);
                });
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench
}
criterion_main!(benches);
