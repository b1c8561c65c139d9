//! `laab bench` — the GEMM-engine performance trajectory.
//!
//! The paper's central measurements are ratios of wall-clock GEMM-family
//! timings, so the reproduction is only as credible as its kernels are
//! fast. This module measures the execution engine's GFLOP/s on the
//! canonical shape families — square (256–2048), GEMV-shaped (tall, thin
//! right-hand side), and wide-short (the shape the pre-overhaul engine ran
//! serially) — at 1 and N threads, and emits a machine-readable
//! `BENCH_gemm.json` ([`GEMM_REPORT_SCHEMA`]) that CI uploads per PR.
//!
//! Three summary numbers anchor the trajectory:
//!
//! * `speedup_vs_seed` — single-thread GFLOP/s on the anchor shape
//!   (1024³ `f64`; 256³ under `--quick`) relative to the frozen PR-1
//!   kernel ([`laab_kernels::seed`]), measured in-process under identical
//!   build flags;
//! * `f32_over_f64` — single-thread `f32` over `f64` engine GFLOP/s on
//!   the anchor shape (measured in the same interleave), tracking the
//!   f32/f64 kernel gap: `f32` has twice the SIMD lanes and, on the
//!   AVX-512 and AVX2 builds, a register tile twice as wide as `f64`'s,
//!   so the ratio is ≈ 2 there (it sat at ≈ 1 while both dtypes shared
//!   `f64`'s tile width); a sustained slide below ~1.7 means the `f32`
//!   kernels have fallen behind; and
//! * `wide_short_parallel_speedup` — N-thread over 1-thread time on the
//!   wide-short shape, which the old rows-only split could not
//!   parallelize at all; and
//! * `batch_gflops` — the multi-RHS anchor: a GEMV-shaped product at
//!   batch 1/8/32 (batch 1 = the solo GEMV dispatch, larger batches the
//!   [`laab_kernels::gemm_multi_rhs`] entry), measured in the same
//!   interleave — the kernel-level trajectory behind `laab serve`'s
//!   batched execution.
//!
//! Like every timing in the suite, the numbers are *recorded*
//! unconditionally but *asserted* only under `LAAB_STRICT_TIMING=1`
//! (shared CI runners are too noisy for hard bands).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use laab_dense::gen::OperandGen;
use laab_dense::Matrix;
use laab_kernels::{gemm, matmul_dispatch, matmul_multi_rhs, seed, set_num_threads, Trans};

/// Schema tag of the `BENCH_gemm.json` report, bumped on breaking
/// changes. `v3`: adds the multi-RHS anchor (`batch_sizes`,
/// `batch_gflops` — the GEMV-shaped product at batch 1/8/32, measured in
/// the same interleave).
pub const GEMM_REPORT_SCHEMA: &str = "laab-gemm-bench-v3";

/// Configuration for one bench run.
#[derive(Debug, Clone)]
pub struct GemmBenchConfig {
    /// Timed repetitions per shape (best-of).
    pub reps: usize,
    /// Discarded warmup runs per shape.
    pub warmup: usize,
    /// Thread count for the N-thread measurements; `0` means "detected
    /// hardware parallelism".
    pub threads: usize,
    /// Shrink every shape for CI smoke runs.
    pub quick: bool,
    /// Operand seed.
    pub seed: u64,
}

impl Default for GemmBenchConfig {
    fn default() -> Self {
        Self { reps: 5, warmup: 1, threads: 0, quick: false, seed: 0x1AAB }
    }
}

impl GemmBenchConfig {
    /// The resolved N-thread count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// One `(shape, dtype, thread-count)` measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmShapeRecord {
    /// Shape-family name (`"square1024"`, `"gemv_shaped"`, `"wide_short"`).
    pub name: String,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Element type (BLAS-style `"f32"`/`"f64"`).
    pub dtype: String,
    /// Threads used for this measurement.
    pub threads: usize,
    /// Best wall-clock seconds over the timed repetitions.
    pub best_secs: f64,
    /// `2mnk / best_secs / 1e9`.
    pub gflops: f64,
}

/// Summary ratios anchoring the perf trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmSummary {
    /// Anchor shape name (`"square1024"` or `"square256"` under quick).
    pub anchor: String,
    /// Frozen seed-kernel single-thread GFLOP/s on the anchor shape.
    pub seed_gflops: f64,
    /// Engine single-thread GFLOP/s on the anchor shape.
    pub engine_gflops: f64,
    /// `engine_gflops / seed_gflops` (acceptance: ≥ 2 on capable runners).
    pub speedup_vs_seed: f64,
    /// Engine single-thread `f32` GFLOP/s on the anchor shape, measured
    /// in the same interleave as the `f64` rows.
    pub f32_engine_gflops: f64,
    /// `f32_engine_gflops / engine_gflops` — the f32/f64 kernel gap
    /// (≈ 2 at SIMD lane-width parity, which the explicit AVX-512 and AVX2
    /// kernels hold; a sustained slide below ~1.7 flags the f32
    /// microkernels lagging).
    pub f32_over_f64: f64,
    /// Wide-short shape: 1-thread time over N-thread time (> 1 shows the
    /// previously-serial shape now parallelizes).
    pub wide_short_parallel_speedup: f64,
    /// Batch sizes of the multi-RHS anchor rows (`[1, 8, 32]`): a
    /// GEMV-shaped product `A·x` with `batch` stacked right-hand sides.
    pub batch_sizes: Vec<usize>,
    /// Effective GFLOP/s at each batch size, measured interleaved
    /// (batch 1 is the solo GEMV dispatch — the memory-bound Level-2
    /// floor; larger batches amortize the `A` traffic through the
    /// multi-RHS GEMM entry, so the trajectory climbs toward the
    /// compute-bound GEMM rate — the serving layer's batching lever).
    pub batch_gflops: Vec<f64>,
    /// Threads used for the N-thread measurements.
    pub threads: usize,
}

/// The full machine-readable report (`BENCH_gemm.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmReport {
    /// Format tag ([`GEMM_REPORT_SCHEMA`]).
    pub schema: String,
    /// Whether the quick protocol was used.
    pub quick: bool,
    /// Timed repetitions per shape.
    pub reps: usize,
    /// Operand seed.
    pub seed: u64,
    /// Every measurement, in execution order.
    pub shapes: Vec<GemmShapeRecord>,
    /// Trajectory anchors.
    pub summary: GemmSummary,
}

impl GemmReport {
    /// Serialize as pretty-printed JSON (the on-disk `BENCH_gemm.json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("GemmReport serializes infallibly")
    }

    /// Parse a report back from JSON text.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        let report: GemmReport = serde_json::from_str(text)?;
        if report.schema != GEMM_REPORT_SCHEMA {
            return Err(serde_json::Error(format!(
                "unsupported report schema `{}` (expected `{GEMM_REPORT_SCHEMA}`)",
                report.schema
            )));
        }
        Ok(report)
    }

    /// One-row-per-measurement overview for terminal output.
    pub fn summary_table(&self) -> laab_stats::Table {
        let mut t = laab_stats::Table::new(
            format!(
                "GEMM engine (best of {} reps; {}× vs seed kernel on {})",
                self.reps,
                round2(self.summary.speedup_vs_seed),
                self.summary.anchor
            ),
            &["shape", "m", "n", "k", "dtype", "threads", "GFLOP/s"],
        );
        for r in &self.shapes {
            t.push_row(vec![
                r.name.clone(),
                r.m.to_string(),
                r.n.to_string(),
                r.k.to_string(),
                r.dtype.clone(),
                r.threads.to_string(),
                format!("{:.2}", r.gflops),
            ]);
        }
        t
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// The shape families of one protocol: `(name, m, n, k)`.
fn shapes(quick: bool) -> Vec<(&'static str, usize, usize, usize)> {
    if quick {
        vec![
            ("square128", 128, 128, 128),
            ("square256", 256, 256, 256),
            ("gemv_shaped", 1024, 8, 1024),
            ("wide_short", 24, 2048, 256),
        ]
    } else {
        vec![
            ("square256", 256, 256, 256),
            ("square512", 512, 512, 512),
            ("square1024", 1024, 1024, 1024),
            ("square2048", 2048, 2048, 2048),
            ("gemv_shaped", 4096, 8, 4096),
            ("wide_short", 24, 8192, 384),
        ]
    }
}

/// Best-of-`reps` wall time of `f` after `warmup` discarded runs.
fn best_secs(reps: usize, warmup: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn gflops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64 / secs / 1e9
}

/// Run the full protocol and collect the report.
///
/// Temporarily adjusts the global kernel thread count; restores 1 thread
/// (the paper's default) before returning.
pub fn run(cfg: &GemmBenchConfig) -> GemmReport {
    let n_threads = cfg.resolved_threads();
    let mut records = Vec::new();
    let mut wide_short_t1 = f64::NAN;
    let mut wide_short_tn = f64::NAN;
    let mut g = OperandGen::new(cfg.seed);

    for (name, m, n, k) in shapes(cfg.quick) {
        let a = g.matrix::<f64>(m, k);
        let b = g.matrix::<f64>(k, n);
        let mut c = Matrix::<f64>::zeros(m, n);
        for threads in thread_settings(n_threads) {
            set_num_threads(threads);
            let secs = best_secs(cfg.reps, cfg.warmup, || {
                gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            });
            if name == "wide_short" {
                if threads == 1 {
                    wide_short_t1 = secs;
                } else {
                    wide_short_tn = secs;
                }
            }
            records.push(GemmShapeRecord {
                name: name.to_string(),
                m,
                n,
                k,
                dtype: "f64".to_string(),
                threads,
                best_secs: secs,
                gflops: gflops(m, n, k, secs),
            });
        }
    }
    set_num_threads(1);

    // dtype coverage: one f32 square at single thread.
    {
        let n = if cfg.quick { 256 } else { 1024 };
        let a = g.matrix::<f32>(n, n);
        let b = g.matrix::<f32>(n, n);
        let mut c = Matrix::<f32>::zeros(n, n);
        let secs = best_secs(cfg.reps, cfg.warmup, || {
            gemm(1.0f32, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        });
        records.push(GemmShapeRecord {
            name: format!("square{n}"),
            m: n,
            n,
            k: n,
            dtype: "f32".to_string(),
            threads: 1,
            best_secs: secs,
            gflops: gflops(n, n, n, secs),
        });
    }

    // Anchor comparisons, single thread: engine vs the frozen seed
    // kernel (f64), and engine f32 vs engine f64 — the f32/f64 kernel
    // gap. The repetitions interleave all three kernels so transient
    // machine load hits every measurement equally — the ratios are far
    // more stable than back-to-back best-of runs on a shared box.
    let anchor_n = if cfg.quick { 256 } else { 1024 };
    let anchor = format!("square{anchor_n}");
    let (engine_gflops, seed_gflops, f32_engine_gflops) = {
        let a = g.matrix::<f64>(anchor_n, anchor_n);
        let b = g.matrix::<f64>(anchor_n, anchor_n);
        let mut c = Matrix::<f64>::zeros(anchor_n, anchor_n);
        let a32 = g.matrix::<f32>(anchor_n, anchor_n);
        let b32 = g.matrix::<f32>(anchor_n, anchor_n);
        let mut c32 = Matrix::<f32>::zeros(anchor_n, anchor_n);
        let (mut engine_best, mut seed_best, mut f32_best) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for rep in 0..cfg.warmup + cfg.reps.max(1) {
            let t0 = Instant::now();
            gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            let engine_secs = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            seed::gemm_seed(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            let seed_secs = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            gemm(1.0f32, &a32, Trans::No, &b32, Trans::No, 0.0, &mut c32);
            let f32_secs = t0.elapsed().as_secs_f64();
            if rep >= cfg.warmup {
                engine_best = engine_best.min(engine_secs);
                seed_best = seed_best.min(seed_secs);
                f32_best = f32_best.min(f32_secs);
            }
        }
        (
            gflops(anchor_n, anchor_n, anchor_n, engine_best),
            gflops(anchor_n, anchor_n, anchor_n, seed_best),
            gflops(anchor_n, anchor_n, anchor_n, f32_best),
        )
    };

    // Multi-RHS anchor: the GEMV-shaped product at batch 1/8/32, single
    // thread, all three batch sizes interleaved per repetition (the same
    // protocol as the seed ratio — transient load hits every batch size
    // equally, so the amortization trajectory is stable on a noisy box).
    // Batch 1 runs the solo dispatch (GEMV), exactly what a non-batching
    // server executes per request; batches 8/32 run the multi-RHS entry.
    const BATCH_SIZES: [usize; 3] = [1, 8, 32];
    let mr_n = if cfg.quick { 256 } else { 2048 };
    let batch_gflops: Vec<f64> = {
        let a = g.matrix::<f64>(mr_n, mr_n);
        let parts: Vec<Matrix<f64>> =
            (0..*BATCH_SIZES.last().unwrap()).map(|_| g.matrix::<f64>(mr_n, 1)).collect();
        let refs: Vec<&Matrix<f64>> = parts.iter().collect();
        let mut best = [f64::INFINITY; BATCH_SIZES.len()];
        for rep in 0..cfg.warmup + cfg.reps.max(1) {
            for (bi, &q) in BATCH_SIZES.iter().enumerate() {
                let t0 = Instant::now();
                if q == 1 {
                    std::hint::black_box(matmul_dispatch(1.0, &a, Trans::No, refs[0], Trans::No));
                } else {
                    std::hint::black_box(matmul_multi_rhs(1.0, &a, Trans::No, &refs[..q]));
                }
                let secs = t0.elapsed().as_secs_f64();
                if rep >= cfg.warmup {
                    best[bi] = best[bi].min(secs);
                }
            }
        }
        for (&q, &secs) in BATCH_SIZES.iter().zip(&best) {
            records.push(GemmShapeRecord {
                name: format!("multi_rhs_b{q}"),
                m: mr_n,
                n: q,
                k: mr_n,
                dtype: "f64".to_string(),
                threads: 1,
                best_secs: secs,
                gflops: gflops(mr_n, q, mr_n, secs),
            });
        }
        BATCH_SIZES.iter().zip(&best).map(|(&q, &secs)| gflops(mr_n, q, mr_n, secs)).collect()
    };

    let wide_short_parallel_speedup =
        if wide_short_tn.is_finite() { wide_short_t1 / wide_short_tn } else { 1.0 };

    GemmReport {
        schema: GEMM_REPORT_SCHEMA.to_string(),
        quick: cfg.quick,
        reps: cfg.reps,
        seed: cfg.seed,
        shapes: records,
        summary: GemmSummary {
            anchor,
            seed_gflops,
            engine_gflops,
            speedup_vs_seed: engine_gflops / seed_gflops,
            f32_engine_gflops,
            f32_over_f64: f32_engine_gflops / engine_gflops,
            wide_short_parallel_speedup,
            batch_sizes: BATCH_SIZES.to_vec(),
            batch_gflops,
            threads: n_threads,
        },
    }
}

/// `[1]` on single-core machines, `[1, N]` otherwise.
fn thread_settings(n_threads: usize) -> Vec<usize> {
    if n_threads > 1 {
        vec![1, n_threads]
    } else {
        vec![1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GemmBenchConfig {
        // Deliberately minuscule: correctness of the plumbing, not timing.
        GemmBenchConfig { reps: 1, warmup: 0, threads: 2, quick: true, seed: 7 }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run(&tiny_cfg());
        let back = GemmReport::from_json(&report.to_json()).expect("parse back");
        assert_eq!(back, report);
        assert_eq!(report.schema, GEMM_REPORT_SCHEMA);
    }

    #[test]
    fn report_covers_every_shape_family_and_both_thread_counts() {
        let report = run(&tiny_cfg());
        for family in ["square128", "square256", "gemv_shaped", "wide_short"] {
            assert!(
                report.shapes.iter().any(|r| r.name == family && r.dtype == "f64"),
                "missing family {family}"
            );
        }
        assert!(report.shapes.iter().any(|r| r.threads == 2), "missing N-thread records");
        assert!(report.shapes.iter().any(|r| r.dtype == "f32"), "missing f32 coverage");
        assert!(report.shapes.iter().all(|r| r.gflops > 0.0 && r.best_secs > 0.0));
        assert!(report.summary.seed_gflops > 0.0 && report.summary.engine_gflops > 0.0);
        // The multi-RHS anchor rides the interleave at batch 1/8/32.
        assert_eq!(report.summary.batch_sizes, vec![1, 8, 32]);
        assert_eq!(report.summary.batch_gflops.len(), 3);
        assert!(report.summary.batch_gflops.iter().all(|&g| g > 0.0 && g.is_finite()));
        for q in [1usize, 8, 32] {
            let name = format!("multi_rhs_b{q}");
            let rec = report.shapes.iter().find(|r| r.name == name).expect("multi-RHS record");
            assert_eq!((rec.n, rec.threads), (q, 1));
        }
        // The f32 anchor rides the same interleave as the seed ratio.
        assert!(report.summary.f32_engine_gflops > 0.0, "missing f32 anchor");
        assert!(
            report.summary.f32_over_f64 > 0.0 && report.summary.f32_over_f64.is_finite(),
            "f32/f64 gap must be a finite ratio, got {}",
            report.summary.f32_over_f64
        );
        // (No assert on num_threads() here: sibling tests run() concurrently
        // and legitimately hold the process-global count at 2 mid-flight.)
    }

    #[test]
    fn bad_schema_is_rejected() {
        let mut report = run(&GemmBenchConfig { threads: 1, ..tiny_cfg() });
        report.schema = "laab-gemm-bench-v0".into();
        assert!(GemmReport::from_json(&report.to_json()).is_err());
    }

    #[test]
    fn strict_timing_bands() {
        // Timing-sensitive: asserted only under LAAB_STRICT_TIMING=1 (and
        // always at full protocol there — quick shapes are too small for
        // stable ratios on shared runners).
        if std::env::var("LAAB_STRICT_TIMING").as_deref() != Ok("1") {
            return;
        }
        let report = run(&GemmBenchConfig::default());
        assert!(
            report.summary.speedup_vs_seed >= 2.0,
            "engine vs seed on {}: {:.2}x < 2x",
            report.summary.anchor,
            report.summary.speedup_vs_seed
        );
        if report.summary.threads > 1 {
            assert!(
                report.summary.wide_short_parallel_speedup > 1.0,
                "wide-short parallel speedup {:.2}x not > 1x",
                report.summary.wide_short_parallel_speedup
            );
        }
    }
}
