//! Cross-backend equivalence: for random plans drawn from the serving
//! workload's E1–E5 (+ solver-residual) families, the `reference`,
//! `engine`, and `deferred` backends agree on every output.
//!
//! ## The numerical contract, documented
//!
//! Every backend accumulates each `k`-reduction in the same increasing-`p`
//! order (the engine's tile grid never splits a reduction), so the
//! *shape* of every sum is shared. What differs is rounding: the engine's
//! microkernels contract multiply-adds (FMA, one rounding per step) while
//! the reference kernels round after the multiply. Per output
//! element that is at most one extra rounding per accumulation step, so
//! matrix-matrix products may drift by `O(k·ε)` **relative** — the ULP
//! bound asserted here is `1e-12` (f64) / `1e-4` (f32) relative Frobenius
//! distance at the test sizes (`k ≤ 32`), orders of magnitude tighter
//! than any paper finding and far looser than the drift can reach.
//!
//! Where no reduction-order/rounding freedom exists — elementwise nodes
//! (Add/Sub/Scale) on every backend — equality must be **bitwise**; the
//! unit tests in `laab-backend` itself cover that.
//!
//! ## `deferred` is the engine
//!
//! The `deferred` backend runs the engine's kernels behind a modeled
//! launch latency, so its values must be **bitwise** the engine's — on
//! every node, solo and batched.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline property: all three backends agree within the
    /// documented ULP bound on every family, size, and operand draw, at
    /// both precisions — and `deferred` is the engine, bit for bit.
    #[test]
    fn backends_agree_on_random_plans(
        seed in any::<u64>(),
        fam in 0usize..Family::ALL.len(),
        n in 4usize..32,
    ) {
        let family = Family::ALL[fam];
        laab_deferred::ensure_registered();
        let names = ["reference", "engine", "deferred"];

        let f64_outs = run_backends::<f64>(family, n, seed, &names);
        for (i, name) in names.iter().enumerate() {
            let d = rel_dist(&f64_outs[0], &f64_outs[i]);
            prop_assert!(
                d <= 1e-12,
                "{name} vs reference drifted {d:e} (f64, family {}, n {n})",
                family.id()
            );
        }
        prop_assert_eq!(&f64_outs[2], &f64_outs[1], "f64 deferred must be bitwise engine");

        let f32_outs = run_backends::<f32>(family, n, seed, &names);
        for (i, name) in names.iter().enumerate() {
            let d = rel_dist(&f32_outs[0], &f32_outs[i]);
            prop_assert!(
                d <= 1e-4,
                "{name} vs reference drifted {d:e} (f32, family {}, n {n})",
                family.id()
            );
        }
        prop_assert_eq!(&f32_outs[2], &f32_outs[1], "f32 deferred must be bitwise engine");
    }

    /// Batched paths: for every family and every backend, coalescing a
    /// batch of same-signature requests through [`Plan::execute_batched`]
    /// returns, bit for bit, what serving each request solo returns — the
    /// batched product is each backend's solo product per right-hand
    /// side, and the fallback families re-run the solo sweep verbatim.
    /// `deferred`'s batches are also the engine's, bit for bit.
    #[test]
    fn batched_plans_agree_with_solo_on_every_backend(
        seed in any::<u64>(),
        fam in 0usize..Family::ALL.len(),
        n in 4usize..96,
        q in 1usize..=8,
    ) {
        let family = Family::ALL[fam];
        let fw = Framework::flow();
        laab_deferred::ensure_registered();
        let mut outs = Vec::new();
        for name in ["reference", "engine", "deferred"] {
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
            outs.push(batched);
        }
        prop_assert_eq!(&outs[2], &outs[1], "deferred batches must be bitwise engine");
    }
}
