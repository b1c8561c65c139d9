//! GEMM engine vs the frozen seed kernel, in the standard `cargo bench`
//! workflow.
//!
//! Runs at `LAAB_BENCH_N` (default 256) over the shape families the
//! engine overhaul targets — square, GEMV-shaped and wide-short — plus
//! the seed-kernel baseline on the square shape. The machine-readable
//! GEMM rates are `benchmark/`'s `kernels.gemm_f64_gflops` /
//! `kernels.gemm_f32_gflops`, next to the seed kernel's
//! `host.yardstick_gflops`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laab_dense::gen::OperandGen;
use laab_dense::Matrix;
use laab_kernels::{gemm, matmul, seed, set_num_threads, Trans};

fn bench(c: &mut Criterion) {
    let n = laab_bench::bench_n();
    let mut g = OperandGen::new(5);

    let mut group = c.benchmark_group(format!("gemm_engine/n{n}"));

    // Square f64: engine vs frozen seed kernel, single thread.
    let a = g.matrix::<f64>(n, n);
    let b = g.matrix::<f64>(n, n);
    group.bench_function("square/engine", |bch| {
        bch.iter(|| matmul(&a, Trans::No, &b, Trans::No));
    });
    group.bench_function("square/seed", |bch| {
        let mut c_out = Matrix::<f64>::zeros(n, n);
        bch.iter(|| seed::gemm_seed(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c_out));
    });

    // Wide-short (previously serial) and GEMV-shaped, 1 vs 4 threads.
    let wa = g.matrix::<f64>(24, n);
    let wb = g.matrix::<f64>(n, 8 * n);
    let ta = g.matrix::<f64>(4 * n, n);
    let tb = g.matrix::<f64>(n, 8);
    for &threads in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("wide_short", threads), &threads, |bch, &th| {
            set_num_threads(th);
            bch.iter(|| matmul(&wa, Trans::No, &wb, Trans::No));
            set_num_threads(1);
        });
        group.bench_with_input(BenchmarkId::new("gemv_shaped", threads), &threads, |bch, &th| {
            set_num_threads(th);
            bch.iter(|| matmul(&ta, Trans::No, &tb, Trans::No));
            set_num_threads(1);
        });
    }

    // Transposed operands cost the same as plain ones (packing absorbs
    // the strides) — keep that claim on the perf record.
    let mut c_out = Matrix::<f64>::zeros(n, n);
    group.bench_function("square/engine_at_b", |bch| {
        bch.iter(|| gemm(1.0, &a, Trans::Yes, &b, Trans::No, 0.0, &mut c_out));
    });

    group.finish();
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
