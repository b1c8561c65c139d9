//! Loop-invariant work hoisted out of served plans: a node computed from
//! shared operands alone and read by a per-request node is evaluated once
//! per binding of those operands and reused, and nothing about a result
//! may show it.
//!
//! * Re-binding a shared operand to a new allocation recomputes the
//!   hoisted value; no request sees a value of another binding.
//! * Batched and solo executions with hoisting on return, bit for bit,
//!   the full sweep's result (every node evaluated, nothing reused), on
//!   both built-in backends and in both dtypes.
//! * A plan whose result reads no varying operand, and every matrix
//!   family (all of whose operands vary), hoists nothing.
//! * The residual `Hᵀ(y − Hx)` is not rewritten around a hoisted `HᵀH`.
//!
//! CI also runs this file on the portable and AVX2 kernel builds, so the
//! bitwise claims hold at every GEMV lane width.

use laab_backend::{registry, BackendScalar, Registration};
use laab_dense::gen::OperandGen;
use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_graph::execute_scheduled_on;
use laab_kernels::counters::{measure, Kernel};
use laab_serve::workload::{Family, Request};
use laab_serve::{OptLevel, Plan};

fn compile(family: Family, n: usize, reg: &'static Registration, opt: OptLevel) -> Plan {
    let (expr, ctx) = (family.expr(n), family.ctx(n));
    Plan::compile_opt(&Framework::flow(), &expr, &ctx, reg, family.varying_operands(), opt)
}

/// The plan's result for `env` with every node evaluated: no hoisting.
fn full_sweep<T: BackendScalar>(plan: &Plan, env: &Env<T>) -> Vec<Matrix<T>> {
    let backend = plan_backend::<T>(plan);
    execute_scheduled_on(plan.graph(), plan.schedule(), env, backend)
}

fn plan_backend<T: BackendScalar>(plan: &Plan) -> &'static dyn laab_backend::Backend<T> {
    registry::builtins()
        .iter()
        .find(|reg| reg.id() == plan.backend())
        .and_then(|reg| reg.resolve::<T>())
        .expect("a built-in backend")
}

#[test]
fn rebinding_h_recomputes_and_never_serves_a_stale_gram() {
    for (n, opt) in [(16, OptLevel::Passes), (192, OptLevel::Egraph)] {
        let plan = compile(Family::Chain, n, registry::default_backend(), opt);
        assert_eq!(plan.batch_analysis().hoisted().len(), 1, "n={n}");
        let mut g = OperandGen::new(1234);
        let (h1, h2) = (g.matrix::<f64>(n, n), g.matrix::<f64>(n, n));
        let x = g.matrix::<f64>(n, 1);
        let first = Env::new().with("H", h1.clone()).with("x", x.clone());
        let second = Env::new().with("H", h2).with("x", x.clone());
        let same_values = Env::new().with("H", h1).with("x", x);
        let gram_calls =
            |c: &laab_kernels::counters::Snapshot| c.calls(Kernel::Gemm) + c.calls(Kernel::Syrk);

        let (r1, cold) = measure(|| plan.execute(&first));
        assert_eq!(r1, full_sweep(&plan, &first), "n={n}");
        assert_eq!(gram_calls(&cold), 1, "n={n}: the first binding computes HᵀH");
        let (again, warm) = measure(|| plan.execute(&first.clone()));
        assert_eq!(again, r1);
        assert_eq!((gram_calls(&warm), warm.calls(Kernel::Gemv)), (0, 1), "n={n}: reused");

        // A new H: its own Gram, not the first one's.
        let (r2, rebound) = measure(|| plan.execute(&second));
        assert_eq!(r2, full_sweep(&plan, &second), "n={n}");
        assert_ne!(r2, r1);
        assert_eq!(gram_calls(&rebound), 1, "n={n}: a re-bound H recomputes");
        // Back to the first H, and equal values in a fresh allocation:
        // identity, not contents, is the key — both recompute, both right.
        for env in [&first, &same_values] {
            let (r, c) = measure(|| plan.execute(env));
            assert_eq!(r, r1, "n={n}");
            assert_eq!(gram_calls(&c), 1, "n={n}");
        }
        // A batch binding the slot's H reuses it.
        let batch = [&same_values, &same_values];
        let (rs, c) = measure(|| plan.execute_batched(&batch));
        assert_eq!(rs, [r1.clone(), r1], "n={n}");
        assert_eq!((gram_calls(&c), c.calls(Kernel::Gemv)), (0, 2), "n={n}");
    }
}

#[test]
fn batched_is_solo_with_hoisting_on() {
    fn check<T: BackendScalar>(family: Family, n: usize, reg: &'static Registration) {
        let plan = compile(family, n, reg, OptLevel::for_input(&family.expr(n), &family.ctx(n)));
        let pool = family.env::<f64>(n, 77);
        let pool = family.env_from_f64::<T>(n, &pool);
        let envs: Vec<Env<T>> = (0..8)
            .map(|payload| Request { family, n, dtype: T::DTYPE, payload }.env_from_pool(&pool, 77))
            .collect();
        let solo: Vec<_> = envs.iter().map(|env| full_sweep(&plan, env)).collect();
        for q in [1usize, 4, 8] {
            let refs: Vec<&Env<T>> = envs[..q].iter().collect();
            let at = format!("{} n={n} {} {} q={q}", family.id(), reg.name(), T::DTYPE);
            assert_eq!(plan.execute_batched(&refs), solo[..q], "{at}");
            for (env, want) in refs.iter().zip(&solo) {
                assert_eq!(&plan.execute(env), want, "{at}");
            }
        }
    }
    for reg in registry::builtins() {
        for n in [16usize, 47, 192] {
            for family in [Family::Chain, Family::SolveResidual] {
                check::<f64>(family, n, reg);
                check::<f32>(family, n, reg);
            }
        }
    }
}

#[test]
fn invariant_results_and_matrix_families_hoist_nothing() {
    let fw = Framework::flow();
    for n in [16usize, 192] {
        for family in Family::ALL {
            let (expr, ctx) = (family.expr(n), family.ctx(n));
            let plain = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
            assert!(plain.batch_analysis().hoisted().is_empty(), "{} n={n}", family.id());
            let served =
                compile(family, n, registry::default_backend(), OptLevel::for_input(&expr, &ctx));
            let hoists = family == Family::Chain;
            assert_eq!(
                !served.batch_analysis().hoisted().is_empty(),
                hoists,
                "{} n={n}",
                family.id()
            );
        }
    }
}

#[test]
fn the_residual_keeps_its_form_and_chain_runs_one_gemv() {
    let n = 192;
    let reg = registry::default_backend();
    let residual = compile(Family::SolveResidual, n, reg, OptLevel::Egraph);
    let chain = compile(Family::Chain, n, reg, OptLevel::Egraph);
    let (n2, n3) = ((n * n) as u64, (n * n * n) as u64);
    for (plan, family, cold, warm) in [
        // Hᵀ(y − Hx): two GEMVs and the subtraction, every request.
        (&residual, Family::SolveResidual, (3, 4 * n2 + n as u64), (3, 4 * n2 + n as u64)),
        // (HᵀH)x: a SYRK for the first binding, then one GEMV.
        (&chain, Family::Chain, (2, n3 + 2 * n2), (1, 2 * n2)),
    ] {
        let env = family.env::<f64>(n, 5);
        for (want, at) in [(cold, "cold"), (warm, "warm")] {
            let (_, c) = measure(|| plan.execute(&env));
            assert_eq!((c.total_calls(), c.total_flops()), want, "{} {at}", family.id());
        }
    }
    assert_eq!(residual.graph().len(), 6, "H, x, y, Hx, y − Hx, Hᵀ(y − Hx)");
    assert_eq!(chain.graph().len(), 4, "H, x, HᵀH, (HᵀH)x");
}
