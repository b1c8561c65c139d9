//! The compiled plan: optimized graph + schedule, bound to a backend.

use std::time::Instant;

use laab_backend::{BackendId, BackendScalar, Registration};
use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_expr::{Context, Expr};
use laab_framework::Framework;
use laab_graph::passes::lower_syrk;
use laab_graph::{
    execute_batched_on, execute_scheduled_on, BatchAnalysis, Graph, PassStats, Schedule,
};
use laab_rewrite::{optimize_egraph, EgraphConfig};

use crate::signature::OptLevel;

/// What equality saturation did while compiling one plan — recorded on
/// every [`OptLevel::Egraph`] plan, whether the level was pinned or
/// picked by [`OptLevel::for_input`] (a Passes plan never enters the
/// e-graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgraphReport {
    /// Modeled DAG cost of the extracted expression.
    pub extracted_cost: u64,
    /// Modeled DAG cost of the input expression, same units.
    pub original_cost: u64,
    /// Whether extraction chose a different, strictly cheaper tree than
    /// the input.
    pub changed: bool,
    /// Whether saturation tripped a budget and the plan fell back to the
    /// input expression (counted by the serving report as
    /// `saturation_budget_hits`).
    pub budget_hit: bool,
    /// Saturation rounds run.
    pub iterations: usize,
    /// E-nodes live when saturation stopped.
    pub enodes: usize,
}

/// A compiled, reusable execution plan — the `ConcreteFunction` of the
/// `tf.function` analogy.
///
/// Built once per [`Signature`](crate::Signature) by running the
/// optimizer pipeline — equality saturation when the input is costly
/// enough to repay it ([`OptLevel::for_input`]), then tracing through the
/// framework's graph mode and its passes — and precomputing the
/// execution [`Schedule`]
/// (reference counts + workspace layout). The plan is bound to the
/// execution [`Backend`](laab_backend::Backend) it was compiled for —
/// tracing and optimization are backend-independent, but the cache keys
/// plans per backend so an A/B run never cross-hits. [`Plan::execute`]
/// re-runs the identical sweep with fresh operand bindings: a cache hit
/// pays no tracing, no optimization, and no schedule derivation, and its
/// result is bitwise-identical to a cold trace on the same backend.
#[derive(Debug)]
pub struct Plan {
    graph: Graph,
    schedule: Schedule,
    batch: BatchAnalysis,
    build_secs: f64,
    stats: PassStats,
    backend: &'static Registration,
    egraph: Option<EgraphReport>,
}

impl Plan {
    /// Optimize `expr` over the shapes in `ctx` at the level
    /// [`OptLevel::for_input`] picks for it, trace it through `fw`'s
    /// graph mode, and precompute the schedule, binding the plan to
    /// `backend`. This is the full cold-trace cost a cache hit amortizes
    /// away. No operand is declared request-varying, so the plan never
    /// stacks (see [`Plan::compile_with_varying`]).
    pub fn compile(
        fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
    ) -> Plan {
        Self::compile_with_varying(fw, expr, ctx, backend, &[])
    }

    /// [`Plan::compile`], additionally declaring which operand names vary
    /// request to request. The compile step runs the batch-stacking shape
    /// analysis ([`laab_graph::BatchAnalysis`]) over the optimized graph,
    /// so [`Plan::execute_batched`] can decide stacked-vs-fallback without
    /// any per-batch analysis cost. This is the entry point of the socket
    /// server and of every client that verifies it; the level it compiles
    /// at is the one [`Signature::new`](crate::Signature::new) hashes.
    pub fn compile_with_varying(
        fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
        varying: &[&str],
    ) -> Plan {
        Self::compile_opt(fw, expr, ctx, backend, varying, OptLevel::for_input(expr, ctx))
    }

    /// [`Plan::compile_with_varying`] with the optimizer level pinned
    /// rather than picked — what the differential suites and
    /// `benchmark/`'s per-level compile timings call.
    ///
    /// At [`OptLevel::Egraph`] the expression first goes through equality
    /// saturation + cost-based extraction ([`laab_rewrite::optimize_egraph`])
    /// so the framework traces the *normalized* form — `BatchAnalysis`
    /// therefore analyzes the extracted expression, and a rewrite that
    /// turns a GEMM chain into GEMV form changes what stacks. A saturation
    /// budget hit falls back to the input expression (the plan still
    /// compiles; [`Plan::egraph_report`] records the hit). The graph
    /// passes then run as usual on either form.
    ///
    /// The e-graph level is also where the extraction cost model's SYRK
    /// price becomes a kernel: after the passes, products of one node with
    /// its own transpose are lowered to `Syrk` nodes
    /// ([`laab_graph::passes::lower_syrk`]), which the engine runs at half
    /// the GEMM's FLOPs and, on finite operands, to the GEMM's bits — a
    /// kernel choice, not a rewrite, so [`EgraphReport::changed`] does not
    /// see it. A [`OptLevel::Passes`] plan is what the frameworks trace:
    /// it never carries the node.
    pub fn compile_opt(
        fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
        varying: &[&str],
        opt: OptLevel,
    ) -> Plan {
        let t0 = Instant::now();
        let (expr, egraph) = match opt {
            OptLevel::Passes => (expr.clone(), None),
            OptLevel::Egraph => {
                let r = optimize_egraph(expr, ctx, &EgraphConfig::default());
                let report = EgraphReport {
                    extracted_cost: r.best_cost,
                    original_cost: r.original_cost,
                    changed: r.changed,
                    budget_hit: r.stats.budget_hit,
                    iterations: r.stats.iterations,
                    enodes: r.stats.enodes,
                };
                (r.best, Some(report))
            }
        };
        let function = fw.function_from_expr(&expr, ctx);
        let (mut graph, _trace_time, stats) = function.into_plan_parts();
        if opt == OptLevel::Egraph {
            lower_syrk(&mut graph);
        }
        let schedule = Schedule::new(&graph);
        let batch = BatchAnalysis::analyze(&graph, |name| varying.contains(&name));
        Plan {
            build_secs: t0.elapsed().as_secs_f64(),
            graph,
            schedule,
            batch,
            stats,
            backend,
            egraph,
        }
    }

    /// Execute the plan against fresh operand bindings, dispatching every
    /// kernel-backed node through the plan's backend.
    ///
    /// # Panics
    /// When the plan's backend has no entry point for `T` — the serve
    /// harness validates dtype support against the request stream before
    /// any dispatch, so reaching this panic means a caller skipped that
    /// validation.
    pub fn execute<T: BackendScalar>(&self, env: &Env<T>) -> Vec<Matrix<T>> {
        let backend = self.backend.resolve::<T>().unwrap_or_else(|| {
            panic!(
                "backend `{}` has no {} entry point (validate dtype support before dispatch)",
                self.backend.name(),
                T::DTYPE
            )
        });
        // The deferred backend is a whole-plan executor, not a per-node
        // kernel set: route through its tape so ops queue and fuse at
        // flush instead of dispatching node by node.
        if self.backend.name() == laab_deferred::BACKEND_NAME {
            return laab_deferred::execute_plan(&self.graph, &self.schedule, env);
        }
        execute_scheduled_on(&self.graph, &self.schedule, env, backend)
    }

    /// Execute the plan once over a batch of operand environments —
    /// coalesced same-signature requests. When the compile-time analysis
    /// proved the plan RHS-stackable, varying products run as one
    /// multi-RHS execution through the plan's backend
    /// ([`laab_backend::Backend::matmul_batched`]); otherwise each
    /// environment executes sequentially, bitwise-identical to
    /// [`Plan::execute`] per request.
    ///
    /// # Panics
    /// As [`Plan::execute`], plus on an empty batch.
    pub fn execute_batched<T: BackendScalar>(&self, envs: &[&Env<T>]) -> Vec<Vec<Matrix<T>>> {
        let backend = self.backend.resolve::<T>().unwrap_or_else(|| {
            panic!(
                "backend `{}` has no {} entry point (validate dtype support before dispatch)",
                self.backend.name(),
                T::DTYPE
            )
        });
        if self.backend.name() == laab_deferred::BACKEND_NAME && !self.batch.stackable() {
            // Non-stackable batches fall back per request; for the
            // deferred backend that means per-request tapes (with their
            // within-request fusion) rather than per-node dispatches.
            // Stackable batches stay on `execute_batched_on`: the
            // coalesced multi-RHS product reaches the deferred backend's
            // `matmul_batched`, which charges one launch for the whole
            // window — the cross-request granularity of the same fusion.
            return envs
                .iter()
                .map(|env| laab_deferred::execute_plan(&self.graph, &self.schedule, env))
                .collect();
        }
        execute_batched_on(&self.graph, &self.schedule, &self.batch, envs, backend)
    }

    /// Whether the compile-time shape analysis proved batched executions
    /// of this plan can column-stack (`false` means batches take the
    /// bitwise per-request fallback).
    pub fn stackable(&self) -> bool {
        self.batch.stackable()
    }

    /// The compile-time batch-stacking analysis.
    pub fn batch_analysis(&self) -> &BatchAnalysis {
        &self.batch
    }

    /// The backend this plan is bound to.
    pub fn backend(&self) -> BackendId {
        self.backend.id()
    }

    /// The optimized graph (inspection, DOT export).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The precomputed execution schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Wall-clock seconds the compile took (trace + optimize + schedule) —
    /// the per-signature cost the cache amortizes.
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// What the optimizer pipeline did during compilation.
    pub fn pass_stats(&self) -> PassStats {
        self.stats
    }

    /// What equality saturation did, for plans compiled at
    /// [`OptLevel::Egraph`] (pinned or picked); `None` on Passes-level
    /// plans.
    pub fn egraph_report(&self) -> Option<EgraphReport> {
        self.egraph
    }

    /// Peak intermediate workspace one in-flight execution needs, in
    /// bytes, for element type `T` (see
    /// [`Schedule::peak_live_elems`]).
    pub fn workspace_bytes<T: laab_dense::Scalar>(&self) -> usize {
        self.schedule.workspace_bytes::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Family;
    use laab_backend::registry;
    use laab_dense::gen::OperandGen;
    use laab_expr::var;

    #[test]
    fn plan_matches_function_call_bitwise() {
        let n = 12;
        let fw = Framework::flow();
        let s = var("A").t() * var("B");
        let expr = s.clone().t() * s;
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let mut g = OperandGen::new(91);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));

        let cold = fw.function_from_expr(&expr, &ctx).call(&env);
        let plan = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
        // Two executions of the same plan, and the cold trace: all equal,
        // bit for bit (the default backend IS the cold-trace engine).
        assert_eq!(plan.execute(&env), cold);
        assert_eq!(plan.execute(&env), cold);
        assert!(plan.build_secs() > 0.0);
        assert_eq!(plan.backend(), laab_backend::BackendId::ENGINE);
        // CSE fired during compilation: one shared AᵀB.
        assert_eq!(plan.graph().matmul_count(), 2);
        assert!(plan.pass_stats().nodes_deduped >= 1);
    }

    #[test]
    fn per_backend_plans_execute_their_backend() {
        let n = 10;
        let fw = Framework::flow();
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let mut g = OperandGen::new(17);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));
        let engine = Plan::compile(&fw, &expr, &ctx, registry::find("engine").unwrap());
        let reference = Plan::compile(&fw, &expr, &ctx, registry::find("reference").unwrap());
        assert_eq!(engine.backend().name(), "engine");
        assert_eq!(reference.backend().name(), "reference");
        let e = engine.execute(&env);
        let r = reference.execute(&env);
        // Same graph, different kernels: tight approx, FMA-level drift.
        assert!(e[0].approx_eq(&r[0], 1e-13));
    }

    #[test]
    #[should_panic(expected = "no f64 entry point")]
    fn unsupported_dtype_panics_with_a_named_backend() {
        static F32_ONLY: laab_backend::Registration = laab_backend::Registration::new(
            "plan-test-f32-only",
            "f32-only backend for the dtype-support panic test",
            Some(&laab_backend::EngineBackend),
            None,
        );
        // Registration not required for Plan use; the registry is about
        // name lookup, and this plan is handed its backend directly.
        let n = 4;
        let fw = Framework::flow();
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let plan = Plan::compile(&fw, &expr, &ctx, &F32_ONLY);
        let mut g = OperandGen::new(3);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));
        let _ = plan.execute(&env);
    }

    #[test]
    fn batched_execution_matches_solo_and_respects_varying() {
        let n = 12;
        let fw = Framework::flow();
        let expr = var("H").t() * (var("H") * var("x"));
        let ctx = Context::new().with("H", n, n).with("x", n, 1);
        let plan =
            Plan::compile_with_varying(&fw, &expr, &ctx, registry::default_backend(), &["x"]);
        assert!(plan.stackable(), "chain with varying RHS must stack");
        assert_eq!(plan.batch_analysis().len(), plan.graph().len());

        let mut g = OperandGen::new(5);
        let h = g.matrix::<f64>(n, n);
        let envs: Vec<Env<f64>> = (0..6)
            .map(|i| {
                let mut pg = OperandGen::new(100 + i);
                Env::new().with("H", h.clone()).with("x", pg.matrix(n, 1))
            })
            .collect();
        let refs: Vec<&Env<f64>> = envs.iter().collect();
        let batched = plan.execute_batched(&refs);
        assert_eq!(batched.len(), envs.len());
        for (env, b) in envs.iter().zip(&batched) {
            assert_eq!(b, &plan.execute(env), "batched must be bitwise solo");
        }

        // Without a varying declaration the same expression never stacks:
        // batched execution falls back per request, bitwise.
        let plain = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
        assert!(!plain.stackable());
        let fallback = plain.execute_batched(&refs);
        for (env, b) in envs.iter().zip(&fallback) {
            assert_eq!(b, &plain.execute(env));
        }
    }

    #[test]
    fn egraph_opt_normalizes_before_batch_analysis() {
        // The Chain family as the serving loop submits it: (HᵀH)x, with x
        // request-varying. The pass pipeline keeps the association, so the
        // leading HᵀH GEMM survives; the e-graph level extracts Hᵀ(Hx)
        // *before* tracing, so BatchAnalysis sees two stackable GEMVs.
        let n = 32;
        let fw = Framework::flow();
        let expr = (var("H").t() * var("H")) * var("x");
        let ctx = Context::new().with("H", n, n).with("x", n, 1);
        let passes = Plan::compile_opt(
            &fw,
            &expr,
            &ctx,
            registry::default_backend(),
            &["x"],
            OptLevel::Passes,
        );
        let egraph = Plan::compile_opt(
            &fw,
            &expr,
            &ctx,
            registry::default_backend(),
            &["x"],
            OptLevel::Egraph,
        );
        assert!(passes.egraph_report().is_none());
        let report = egraph.egraph_report().expect("egraph plans carry a report");
        assert!(report.changed, "reassociation discovered");
        assert!(!report.budget_hit);
        assert!(report.extracted_cost < report.original_cost);

        // Same math, different plan: both stack, and results agree tightly
        // (the rewrite reorders floating-point accumulation).
        assert!(passes.stackable() && egraph.stackable());
        let mut g = OperandGen::new(23);
        let env = Env::<f64>::new().with("H", g.matrix(n, n)).with("x", g.matrix(n, 1));
        let a = passes.execute(&env);
        let b = egraph.execute(&env);
        assert!(a[0].approx_eq(&b[0], 1e-11), "opt levels must agree numerically");
    }

    #[test]
    fn egraph_opt_is_identity_when_nothing_cheaper_exists() {
        // SolveResidual's Hᵀ(y − Hx) is already optimal: the egraph plan
        // must execute bitwise-identically to the passes plan.
        let n = 16;
        let fw = Framework::flow();
        let expr = var("H").t() * (var("y") - var("H") * var("x"));
        let ctx = Context::new().with("H", n, n).with("x", n, 1).with("y", n, 1);
        let passes =
            Plan::compile_opt(&fw, &expr, &ctx, registry::default_backend(), &[], OptLevel::Passes);
        let egraph =
            Plan::compile_opt(&fw, &expr, &ctx, registry::default_backend(), &[], OptLevel::Egraph);
        let report = egraph.egraph_report().unwrap();
        assert!(!report.changed, "ties keep the input form");
        let mut g = OperandGen::new(77);
        let env = Env::<f64>::new()
            .with("H", g.matrix(n, n))
            .with("x", g.matrix(n, 1))
            .with("y", g.matrix(n, 1));
        assert_eq!(passes.execute(&env), egraph.execute(&env), "unchanged extraction is bitwise");
    }

    fn compile_family(family: Family, n: usize, opt: Option<OptLevel>) -> Plan {
        let (fw, expr, ctx) = (Framework::flow(), family.expr(n), family.ctx(n));
        let (reg, varying) = (registry::default_backend(), family.varying_operands());
        match opt {
            None => Plan::compile_with_varying(&fw, &expr, &ctx, reg, varying),
            Some(opt) => Plan::compile_opt(&fw, &expr, &ctx, reg, varying, opt),
        }
    }

    #[test]
    fn default_path_saturates_only_inputs_that_can_repay_it() {
        // Under the gate: the passes-only plan, no report, at every family.
        for n in [8usize, 16, 47] {
            for family in Family::ALL {
                let plan = compile_family(family, n, None);
                assert!(plan.egraph_report().is_none(), "{} n={n}", family.id());
                let pinned = compile_family(family, n, Some(OptLevel::Passes));
                assert_eq!(plan.graph(), pinned.graph(), "{} n={n}", family.id());
                assert_eq!(plan.graph().syrk_count(), 0, "{} n={n}", family.id());
                assert_eq!(plan.stackable(), pinned.stackable());
            }
        }
        // Over it: the e-graph plan, and exactly the paper's three misses
        // rewritten (E1's CSE form, E3's Gram and the residual are kept).
        for n in [192usize, 256] {
            for family in Family::ALL {
                let plan = compile_family(family, n, None);
                let report =
                    plan.egraph_report().unwrap_or_else(|| panic!("{} n={n}", family.id()));
                assert!(!report.budget_hit);
                let rewritten = [Family::Chain, Family::Slice, Family::Distributive];
                assert_eq!(report.changed, rewritten.contains(&family), "{} n={n}", family.id());
                let pinned = compile_family(family, n, Some(OptLevel::Egraph));
                assert_eq!(plan.graph(), pinned.graph(), "{} n={n}", family.id());
                assert_eq!(plan.egraph_report(), pinned.egraph_report());
                // E3 on the served path: the two families with a product
                // of one value by its own transpose run it as SYRK.
                let syrks = usize::from(matches!(family, Family::Gram | Family::CseGram));
                assert_eq!(plan.graph().syrk_count(), syrks, "{} n={n}", family.id());
                // The rewrites leave the matrix families unstackable, so
                // their responses stay verifiable bit for bit.
                let vector = matches!(family, Family::Chain | Family::SolveResidual);
                assert_eq!(plan.stackable(), vector, "{} n={n}", family.id());
            }
        }
    }

    #[test]
    fn vector_families_stack_and_matrix_families_do_not() {
        // Which batches the server runs as one stacked execution and
        // which it answers member by member, on both sides of the gate.
        for family in Family::ALL {
            let stacks = matches!(family, Family::Chain | Family::SolveResidual);
            for n in [12usize, 48, 192] {
                let plan = compile_family(family, n, None);
                assert_eq!(plan.stackable(), stacks, "{} n={n}", family.id());
            }
        }
    }

    #[test]
    fn egraph_level_keeps_the_cse_form_of_cse_gram() {
        for n in [12usize, 24, 256] {
            let plan = compile_family(Family::CseGram, n, Some(OptLevel::Egraph));
            let report = plan.egraph_report().expect("egraph plans carry a report");
            assert!(!report.changed, "n={n}: the shared AᵀB is priced once");
            assert_eq!(report.extracted_cost, report.original_cost);
            assert_eq!(plan.graph().matmul_count(), 2, "n={n}: AᵀB computed once");
        }
    }

    #[test]
    fn served_symmetric_products_cost_half_a_gemm() {
        // Default path at the served size: QᵀQ is one SYRK (n³ by the
        // paper's count), (AᵀB)ᵀ(AᵀB) one GEMM plus one SYRK — and the
        // framework-level plan still pays the full GEMMs.
        let n = 256;
        let n3 = (n * n * n) as u64;
        for (family, products, want) in [(Family::Gram, 1, n3), (Family::CseGram, 2, 3 * n3)] {
            let plan = compile_family(family, n, None);
            assert_eq!(plan.graph().syrk_count(), 1, "{}", family.id());
            assert_eq!(plan.graph().matmul_count(), products, "{}", family.id());
            assert!(!plan.egraph_report().unwrap().changed, "a kernel choice, not a rewrite");
            let env = family.env::<f64>(n, 5);
            let (out, c) = laab_kernels::counters::measure(|| plan.execute(&env));
            assert_eq!(c.total_flops(), want, "{}", family.id());
            assert_eq!(c.total_calls(), products as u64);
            let pinned = compile_family(family, n, Some(OptLevel::Passes));
            assert_eq!(pinned.graph().syrk_count(), 0);
            let (full, c) = laab_kernels::counters::measure(|| pinned.execute(&env));
            assert_eq!(c.total_flops(), products as u64 * 2 * n3);
            assert_eq!(out, full, "half the FLOPs, the same bits");
        }
    }

    #[test]
    fn syrk_plans_are_bitwise_the_passes_plans_on_every_backend() {
        // Solo and at occupancy 4 (both families fall back per request:
        // their operands are request-varying), on the engine's half-FLOP
        // kernel and on the three backends that keep the default hook.
        laab_deferred::ensure_registered();
        let n = 48;
        for family in [Family::Gram, Family::CseGram] {
            let (fw, expr, ctx) = (Framework::flow(), family.expr(n), family.ctx(n));
            let envs: Vec<Env<f64>> = (0..4).map(|i| family.env(n, 11 + i)).collect();
            let refs: Vec<&Env<f64>> = envs.iter().collect();
            for name in ["engine", "seed", "reference", "deferred"] {
                let reg = registry::find(name).unwrap();
                let compile =
                    |opt| Plan::compile_opt(&fw, &expr, &ctx, reg, family.varying_operands(), opt);
                let (lowered, plain) = (compile(OptLevel::Egraph), compile(OptLevel::Passes));
                assert_eq!(lowered.graph().syrk_count(), 1, "{} {name}", family.id());
                assert!(!lowered.stackable());
                assert_eq!(lowered.execute(&envs[0]), plain.execute(&envs[0]), "{name}");
                assert_eq!(lowered.execute_batched(&refs), plain.execute_batched(&refs), "{name}");
            }
        }
    }

    #[test]
    fn egraph_plans_execute_the_rewritten_kernels() {
        // Kernel counters around one execution: the factored A(B+C) is one
        // GEMM and one n² add (not two GEMMs), the pushed-down slice one
        // n-long dot (not a GEMM).
        let n = 64;
        let flops = |family: Family, opt| {
            let plan = compile_family(family, n, Some(opt));
            let env = family.env::<f64>(n, 5);
            laab_kernels::counters::measure(|| plan.execute(&env)).1.total_flops()
        };
        let (gemm, n64) = (2 * (n * n * n) as u64, n as u64);
        assert_eq!(flops(Family::Distributive, OptLevel::Passes), 2 * gemm + n64 * n64);
        assert_eq!(flops(Family::Distributive, OptLevel::Egraph), gemm + n64 * n64);
        assert_eq!(flops(Family::Slice, OptLevel::Passes), gemm);
        assert_eq!(flops(Family::Slice, OptLevel::Egraph), 2 * n64);
    }

    #[test]
    fn workspace_layout_is_dtype_scaled() {
        let n = 10;
        let fw = Framework::flow();
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let plan = Plan::compile(&fw, &expr, &ctx, registry::default_backend());
        assert_eq!(plan.workspace_bytes::<f64>(), 2 * plan.workspace_bytes::<f32>());
        assert_eq!(plan.schedule().peak_live_elems(), n * n);
    }
}
