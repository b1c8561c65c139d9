//! Substrate ablation — throughput of the kernel suite across sizes.
//!
//! Validates the DESIGN.md claim that conclusions transfer across n: GEMM
//! GFLOP/s should be roughly flat from 128 upward (cache-blocked), and
//! TRMM/SYRK should track at ≈ half the GEMM time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use laab_dense::gen::OperandGen;
use laab_kernels::{flops, matmul, syrk, trmm, Trans, UpLo};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_substrate");
    for &n in &[64usize, 128, 256, 384] {
        let mut g = OperandGen::new(n as u64);
        let a = g.matrix::<f32>(n, n);
        let b = g.matrix::<f32>(n, n);
        let l = g.lower_triangular::<f32>(n);
        group.throughput(Throughput::Elements(flops::gemm(n, n, n)));
        group.bench_with_input(BenchmarkId::new("gemm", n), &n, |bch, _| {
            bch.iter(|| matmul(&a, Trans::No, &b, Trans::No))
        });
        group.throughput(Throughput::Elements(flops::trmm(n, n)));
        group.bench_with_input(BenchmarkId::new("trmm", n), &n, |bch, _| {
            bch.iter(|| trmm(1.0f32, &l, UpLo::Lower, &b))
        });
        group.throughput(Throughput::Elements(flops::syrk(n, n)));
        group.bench_with_input(BenchmarkId::new("syrk", n), &n, |bch, _| {
            bch.iter(|| syrk(1.0f32, &a, Trans::No))
        });
    }
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
