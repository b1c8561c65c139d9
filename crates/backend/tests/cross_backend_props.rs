//! Cross-backend equivalence: for random plans drawn from the serving
//! workload's E1–E5 (+ solver-residual) families, the `reference`,
//! `seed`, `engine`, and `deferred` backends agree on every output.
//!
//! ## The numerical contract, documented
//!
//! Every backend accumulates each `k`-reduction in the same increasing-`p`
//! order (the engine's tile grid never splits a reduction), so the
//! *shape* of every sum is shared. What differs is rounding: the engine's
//! microkernels contract multiply-adds (FMA, one rounding per step) while
//! the reference and seed kernels round after the multiply. Per output
//! element that is at most one extra rounding per accumulation step, so
//! matrix-matrix products may drift by `O(k·ε)` **relative** — the ULP
//! bound asserted here is `1e-12` (f64) / `1e-4` (f32) relative Frobenius
//! distance at the test sizes (`k ≤ 32`), orders of magnitude tighter
//! than any paper finding and far looser than the drift can reach.
//!
//! Where no reduction-order/rounding freedom exists, equality must be
//! **bitwise**:
//! * elementwise nodes (Add/Sub/Scale) on every backend — covered by the
//!   unit tests in `laab-backend` itself; and
//! * whole plans whose products are all vector-shaped (the solver
//!   residual: GEMV/DOT shapes only), where `seed` and `engine` share
//!   the exact same un-frozen kernels — asserted below.
//!
//! ## The deferred tape's bounds
//!
//! The `deferred` backend queues ops on a tape and fuses at flush, on top
//! of the engine kernels. With fusion **off** (and with it on, whenever
//! the pass only regroups launches) every value is **bitwise** the
//! engine's: the identical kernels run in the identical order, only the
//! launch accounting changes. Two fusion rules genuinely alter kernels:
//! scale-folding moves a scalar into the GEMM `alpha` (one different
//! rounding per output element), and same-LHS coalescing hands the group
//! to the engine's batched product (since that is its solo product per
//! right-hand side, this one is bitwise too). The bounds asserted here —
//! `1e-11` (f64) / `1e-3` (f32) relative — cover the scale folding.

use laab_backend::{registry, BackendScalar};
use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_graph::{execute_scheduled_on, Schedule};
use laab_serve::workload::{Family, Request};
use laab_serve::{Dtype, Plan};
use proptest::prelude::*;

/// Compile one plan for the family (trace → optimize → schedule) and
/// execute it on each named backend with identical operand bindings.
fn run_backends<T: BackendScalar>(
    family: Family,
    n: usize,
    seed: u64,
    names: &[&str],
) -> Vec<Vec<Matrix<T>>> {
    let fw = Framework::flow();
    let function = fw.function_from_expr(&family.expr(n), &family.ctx(n));
    let (graph, _trace, _stats) = function.into_plan_parts();
    let schedule = Schedule::new(&graph);
    let env = family.env::<T>(n, seed);
    names
        .iter()
        .map(|name| {
            let backend = registry::find(name)
                .unwrap_or_else(|| panic!("builtin `{name}` missing"))
                .resolve::<T>()
                .expect("builtins support both dtypes");
            execute_scheduled_on(&graph, &schedule, &env, backend)
        })
        .collect()
}

fn rel_dist<T: laab_dense::Scalar>(a: &[Matrix<T>], b: &[Matrix<T>]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x.rel_dist(y)).fold(0.0, f64::max)
}

/// Execute one family's plan through the engine directly and through the
/// deferred tape (zero modeled launch cost — these are value tests) with
/// fusion on and off. Returns `[engine, fused, unfused]` output sets.
fn engine_vs_tape<T: BackendScalar>(family: Family, n: usize, seed: u64) -> [Vec<Matrix<T>>; 3] {
    let fw = Framework::flow();
    let function = fw.function_from_expr(&family.expr(n), &family.ctx(n));
    let (graph, _trace, _stats) = function.into_plan_parts();
    let schedule = Schedule::new(&graph);
    let env = family.env::<T>(n, seed);
    let backend = registry::find("engine")
        .expect("engine is always registered")
        .resolve::<T>()
        .expect("engine supports both dtypes");
    let engine = execute_scheduled_on(&graph, &schedule, &env, backend);
    let tape = |fuse: bool| {
        let tuning = laab_deferred::Tuning { dispatch_ns: 0, fuse, ..Default::default() };
        laab_deferred::with_tuning(tuning, || laab_deferred::execute_plan(&graph, &schedule, &env))
    };
    [engine, tape(true), tape(false)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline property: all three backends agree within the
    /// documented ULP bound on every family, size, and operand draw, at
    /// both precisions.
    #[test]
    fn backends_agree_on_random_plans(
        seed in any::<u64>(),
        fam in 0usize..Family::ALL.len(),
        n in 4usize..32,
    ) {
        let family = Family::ALL[fam];
        // `deferred` joins through its per-node surface here (every op
        // its own dispatch group — engine kernels, engine values); the
        // tape surface gets its own property below.
        laab_deferred::ensure_registered();
        let names = ["reference", "seed", "engine", "deferred"];

        let f64_outs = run_backends::<f64>(family, n, seed, &names);
        for (i, name) in names.iter().enumerate() {
            let d = rel_dist(&f64_outs[0], &f64_outs[i]);
            prop_assert!(
                d <= 1e-12,
                "{name} vs reference drifted {d:e} (f64, family {}, n {n})",
                family.id()
            );
        }

        let f32_outs = run_backends::<f32>(family, n, seed, &names);
        for (i, name) in names.iter().enumerate() {
            let d = rel_dist(&f32_outs[0], &f32_outs[i]);
            prop_assert!(
                d <= 1e-4,
                "{name} vs reference drifted {d:e} (f32, family {}, n {n})",
                family.id()
            );
        }
    }

    /// Bitwise case: the solver-residual family lowers to GEMV/DOT
    /// shapes and elementwise nodes only — kernels `seed` shares
    /// verbatim with `engine` — so those two backends must agree bit for
    /// bit, not just within tolerance.
    #[test]
    fn gemm_free_plans_are_bitwise_identical_between_seed_and_engine(
        seed in any::<u64>(),
        n in 4usize..48,
    ) {
        let outs = run_backends::<f64>(Family::SolveResidual, n, seed, &["seed", "engine"]);
        prop_assert_eq!(&outs[0], &outs[1]);
        let outs32 = run_backends::<f32>(Family::SolveResidual, n, seed, &["seed", "engine"]);
        prop_assert_eq!(&outs32[0], &outs32[1]);
    }

    /// The deferred tape vs the engine, all six families × both dtypes:
    /// with fusion off the tape is a pure reordering of launches, so it
    /// must be **bitwise** the engine; with fusion on, the two
    /// value-changing rewrites (alpha folding, same-LHS coalescing) stay
    /// within the documented ULP bound the serve probes assert.
    #[test]
    fn deferred_tape_matches_engine_within_documented_bounds(
        seed in any::<u64>(),
        fam in 0usize..Family::ALL.len(),
        n in 4usize..32,
    ) {
        let family = Family::ALL[fam];

        let [engine, fused, unfused] = engine_vs_tape::<f64>(family, n, seed);
        prop_assert_eq!(&unfused, &engine, "f64 unfused tape must be bitwise engine");
        let d = rel_dist(&fused, &engine);
        prop_assert!(
            d <= 1e-11,
            "fused tape drifted {d:e} vs engine (f64, family {}, n {n})",
            family.id()
        );

        let [engine32, fused32, unfused32] = engine_vs_tape::<f32>(family, n, seed);
        prop_assert_eq!(&unfused32, &engine32, "f32 unfused tape must be bitwise engine");
        let d32 = rel_dist(&fused32, &engine32);
        prop_assert!(
            d32 <= 1e-3,
            "fused tape drifted {d32:e} vs engine (f32, family {}, n {n})",
            family.id()
        );
    }

    /// Batched paths: for every family and every backend, coalescing a
    /// batch of same-signature requests through [`Plan::execute_batched`]
    /// returns, bit for bit, what serving each request solo returns — the
    /// batched product is each backend's solo product per right-hand
    /// side, and the fallback families re-run the solo sweep verbatim.
    #[test]
    fn batched_plans_agree_with_solo_on_every_backend(
        seed in any::<u64>(),
        fam in 0usize..Family::ALL.len(),
        n in 4usize..96,
        q in 1usize..=8,
    ) {
        let family = Family::ALL[fam];
        let fw = Framework::flow();
        for name in ["reference", "seed", "engine"] {
            let reg = registry::find(name).unwrap_or_else(|| panic!("builtin `{name}` missing"));
            let plan = Plan::compile_with_varying(
                &fw,
                &family.expr(n),
                &family.ctx(n),
                reg,
                family.varying_operands(),
            );
            let base = family.env::<f64>(n, seed);
            let envs: Vec<Env<f64>> = (0..q as u64)
                .map(|payload| {
                    Request { family, n, dtype: Dtype::F64, payload }.env_from_pool(&base, seed)
                })
                .collect();
            let refs: Vec<&Env<f64>> = envs.iter().collect();
            let batched = plan.execute_batched(&refs);
            prop_assert_eq!(batched.len(), q);
            for (env, b) in envs.iter().zip(&batched) {
                let solo = plan.execute(env);
                prop_assert_eq!(b, &solo, "{} batched must be bitwise solo", name);
            }
        }
    }
}
