//! Table IV — structured products: hand-coded kernels vs framework matmul
//! vs the specialized/aware paths.
//!
//! Expected shape: TRMM and SYRK at ≈ half the GEMM time; the tridiagonal
//! and diagonal products orders of magnitude below GEMM; `Flow optim`
//! (fused tridiagonal) at or below the SCAL sequence.

use criterion::{criterion_group, criterion_main, Criterion};
use laab_bench::bench_n;
use laab_core::baselines::{diag_scal_sequence, tridiag_scal_sequence};
use laab_core::workloads::structured;
use laab_core::ExperimentConfig;
use laab_expr::var;
use laab_framework::Framework;
use laab_kernels::{matmul, syrk, trmm, Trans, UpLo};
use laab_rewrite::aware_eval;

fn bench(c: &mut Criterion) {
    let n = bench_n();
    let cfg = ExperimentConfig { n, ..Default::default() };
    let w = structured(&cfg);
    let a = w.env.expect("A").clone();
    let b = w.env.expect("B").clone();
    let l = w.env.expect("L").clone();
    let flow = Framework::flow();

    let mut group = c.benchmark_group(format!("table4/n{n}"));
    group.bench_function("AB/gemm", |bch| bch.iter(|| matmul(&a, Trans::No, &b, Trans::No)));
    group.bench_function("LB/trmm", |bch| bch.iter(|| trmm(1.0f32, &l, UpLo::Lower, &b)));
    group.bench_function("LB/gemm", |bch| bch.iter(|| matmul(&l, Trans::No, &b, Trans::No)));
    group.bench_function("AAt/syrk", |bch| bch.iter(|| syrk(1.0f32, &a, Trans::No)));
    group.bench_function("AAt/gemm", |bch| bch.iter(|| matmul(&a, Trans::No, &a, Trans::Yes)));
    group.bench_function("TB/scal_seq", |bch| bch.iter(|| tridiag_scal_sequence(&w.tri, &b)));
    let bt = flow.tensor(b.clone());
    group.bench_function("TB/tridiagonal_matmul", |bch| {
        bch.iter(|| flow.tridiagonal_matmul(&w.tri, &bt))
    });
    let t_dense = w.env.expect("T").clone();
    group.bench_function("TB/gemm", |bch| bch.iter(|| matmul(&t_dense, Trans::No, &b, Trans::No)));
    group.bench_function("DB/scal_seq", |bch| bch.iter(|| diag_scal_sequence(&w.diag, &b)));
    let lb = var("L") * var("B");
    group.bench_function("LB/aware", |bch| bch.iter(|| aware_eval(&lb, &w.env, &w.ctx)));
    let tb = var("T") * var("B");
    group.bench_function("TB/aware", |bch| bch.iter(|| aware_eval(&tb, &w.env, &w.ctx)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench
}
criterion_main!(benches);
