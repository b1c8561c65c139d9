//! The compiled plan: lowered graph + schedule, bound to a backend.

use std::any::Any;
use std::sync::{Arc, Mutex};

use laab_backend::{Backend, BackendId, BackendScalar, Registration};
use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_expr::{Context, Expr};
use laab_framework::Framework;
use laab_graph::{execute_hoisted_on, hoisted_values, BatchAnalysis, Graph, OpKind, Schedule};
use laab_rewrite::{optimize_egraph_with_varying, EgraphConfig};

use crate::lower::lower;
use crate::signature::OptLevel;

/// A compiled, reusable execution plan — the `ConcreteFunction` of the
/// `tf.function` analogy.
///
/// Built once per [`Signature`](crate::Signature): the expression —
/// first normalized by equality saturation when it is costly enough to
/// repay it ([`OptLevel::for_input`]) — is lowered in one walk to graph
/// IR, with transposes as GEMM flags, scalings as `alpha` and shared
/// subexpressions as shared nodes, and the execution [`Schedule`]
/// (reference counts + workspace layout) and batch-stacking analysis are
/// precomputed. The plan is bound to the execution
/// [`Backend`](laab_backend::Backend) it was compiled for — lowering is
/// backend-independent, but the cache keys plans per backend so an A/B
/// run never cross-hits. [`Plan::execute`] re-runs the identical sweep
/// with fresh operand bindings: a cache hit pays no optimization, no
/// lowering and no schedule derivation.
///
/// Requests are the iterations of a loop, so the plan also keeps the
/// loop-invariant work out of it. The nodes the batch analysis hoists
/// ([`BatchAnalysis::hoisted`]: computed from shared operands alone, and
/// read by a per-request node) are evaluated at the first execution that
/// binds their shared operands, and the values are kept for every later
/// request and batch that binds the same ones. The key is the identity of
/// the bindings ([`Env::binding`]), not their contents: a re-bound operand
/// recomputes, and the slot holds the handles it compared against, so no
/// other value can take their address while it does. Each value is what
/// the sweep would compute in its place, so `execute` stays a pure
/// function of its environment, and solo, batched and served results
/// stay bitwise equal. No lock is held while computing or executing: two
/// executions racing on a new binding both compute it, with the same
/// bits, and the slot keeps one.
///
/// A plan keeps one set of values per dtype, each `n×n` at most for the
/// served families (one `HᵀH`). A server executes a plan in its
/// signature's one dtype, so it holds at most one set per cached plan:
/// 64 plans per backend.
///
/// A compile is what a plan-cache miss pays, on every request of a
/// workload that churns signatures, so it allocates about what the plan
/// owns: the graph (built once, in the lowering's one walk, whose
/// hash-consing scans the nodes built so far and clones no key), the
/// schedule's two per-node vectors and the analysis' status vector, plus
/// the hoist subgraph for a plan that hoists. At the passes level that is
/// 8 to 18 allocations per family (`tests/alloc_budget.rs` pins them with
/// the miss around them).
#[derive(Debug)]
pub struct Plan {
    graph: Graph,
    schedule: Schedule,
    batch: BatchAnalysis,
    backend: &'static Registration,
    hoisted: Slots,
}

/// The hoisted values computed from one binding of the shared operands.
#[derive(Debug)]
struct Binding<T: laab_dense::Scalar> {
    /// The bound operands, in [`Plan::hoist_inputs`] order: compared by
    /// identity, and kept alive while compared against.
    operands: Vec<Arc<Matrix<T>>>,
    /// In [`BatchAnalysis::hoisted`] order.
    values: Vec<Matrix<T>>,
}

/// The latest [`Binding`] per dtype.
#[derive(Debug, Default)]
struct Slots {
    f32: Mutex<Option<Arc<Binding<f32>>>>,
    f64: Mutex<Option<Arc<Binding<f64>>>>,
}

impl Slots {
    fn of<T: BackendScalar>(&self) -> &Mutex<Option<Arc<Binding<T>>>> {
        [&self.f32 as &dyn Any, &self.f64]
            .into_iter()
            .find_map(|slot| slot.downcast_ref())
            .expect("a backend scalar is f32 or f64")
    }
}

impl Plan {
    /// Compile `expr` over the shapes in `ctx` at the level
    /// [`OptLevel::for_input`] picks for it, binding the plan to
    /// `backend`. This is the full cold-compile cost a cache hit
    /// amortizes away. No operand is declared request-varying, so the
    /// plan never stacks (see [`Plan::compile_with_varying`]). `fw` is
    /// unused, since the plan is lowered directly rather than traced; the
    /// parameter stays until the benchmark harness, which compiles
    /// against it, drops it.
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
    /// analysis ([`laab_graph::BatchAnalysis`]) over the lowered graph,
    /// so [`Plan::execute_batched`] can decide stacked-vs-fallback without
    /// any per-batch analysis cost. The level it compiles at is the one
    /// [`Signature::new`](crate::Signature::new) hashes; callers that
    /// hold the signature pass [`Signature::opt`](crate::Signature::opt)
    /// to [`Plan::compile_opt`] instead of picking it again. `fw` is
    /// unused, as in [`Plan::compile`].
    pub fn compile_with_varying(
        fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
        varying: &[&str],
    ) -> Plan {
        Self::compile_opt(fw, expr, ctx, backend, varying, OptLevel::for_input(expr, ctx))
    }

    /// [`Plan::compile_with_varying`] at a given optimizer level — what
    /// the served paths call with their signature's level, and what the
    /// differential suites call with a pinned one. `fw` is unused, as in
    /// [`Plan::compile`].
    ///
    /// At [`OptLevel::Egraph`] the expression first goes through equality
    /// saturation + cost-based extraction
    /// ([`laab_rewrite::optimize_egraph_with_varying`], which prices work
    /// on the shared operands alone once, as the plan hoists it) and the
    /// extracted form is lowered — `BatchAnalysis` therefore analyzes it,
    /// and a rewrite that turns a GEMM chain into GEMV form changes what
    /// stacks. On a saturation budget hit, or when nothing strictly
    /// cheaper per request exists, that form is the input expression.
    ///
    /// The e-graph level is also where the extraction cost model's SYRK
    /// price becomes a kernel: a product of one node with its own
    /// transpose is built as a `Syrk` node, which the engine runs at half
    /// the GEMM's FLOPs and, on finite operands, to the GEMM's bits. A
    /// [`OptLevel::Passes`] plan is what the frameworks' graph passes
    /// produce: it never carries the node.
    pub fn compile_opt(
        _fw: &Framework,
        expr: &Expr,
        ctx: &Context,
        backend: &'static Registration,
        varying: &[&str],
        opt: OptLevel,
    ) -> Plan {
        let graph = match opt {
            OptLevel::Passes => lower(expr, ctx, false),
            OptLevel::Egraph => {
                let cfg = EgraphConfig::default();
                lower(&optimize_egraph_with_varying(expr, ctx, &cfg, varying).best, ctx, true)
            }
        };
        let schedule = Schedule::new(&graph);
        let batch = BatchAnalysis::analyze(&graph, |name| varying.contains(&name));
        Plan { graph, schedule, batch, backend, hoisted: Slots::default() }
    }

    /// The shared operands the hoisted values are computed from.
    fn hoist_inputs(&self) -> impl Iterator<Item = &str> {
        self.batch.hoist_graph().nodes.iter().filter_map(|node| match &node.kind {
            OpKind::Input(name) => Some(name.as_str()),
            _ => None,
        })
    }

    /// Execute the plan against fresh operand bindings, dispatching every
    /// kernel-backed node through the plan's backend: a batch of one.
    ///
    /// # Panics
    /// When the plan's backend has no entry point for `T` — the serve
    /// harness validates dtype support against the request stream before
    /// any dispatch, so reaching this panic means a caller skipped that
    /// validation.
    pub fn execute<T: BackendScalar>(&self, env: &Env<T>) -> Vec<Matrix<T>> {
        self.execute_batched(&[env]).remove(0)
    }

    /// Execute the plan over a batch of operand environments — coalesced
    /// same-signature requests, or one, binding the same values to every
    /// operand not declared varying. When the compile-time analysis
    /// proved the plan RHS-stackable, a batch of two or more runs as one
    /// sweep whose varying products are one multi-RHS call through the
    /// plan's backend ([`laab_backend::Backend::matmul_batched`]);
    /// otherwise each environment executes in turn. Either way the
    /// hoisted values of `envs[0]`'s binding are reused or computed (the
    /// type docs), and every result is bitwise what [`Plan::execute`]
    /// returns for its request.
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
        assert!(!envs.is_empty(), "execute_batched: empty environment batch");
        let (graph, schedule, batch) = (&self.graph, &self.schedule, &self.batch);
        if batch.hoisted().is_empty() {
            return execute_hoisted_on(graph, schedule, batch, &[], envs, backend);
        }
        let binding = self.binding(envs[0], backend);
        execute_hoisted_on(graph, schedule, batch, &binding.values, envs, backend)
    }

    /// The hoisted values for `env`'s binding of the shared operands:
    /// the slot's when it holds that binding, else computed now and kept.
    fn binding<T: BackendScalar>(&self, env: &Env<T>, backend: &dyn Backend<T>) -> Arc<Binding<T>> {
        let slot = self.hoisted.of::<T>();
        let bound = |b: &&Arc<Binding<T>>| {
            let mut ops = self.hoist_inputs().zip(&b.operands);
            ops.all(|(name, op)| env.binding(name).is_some_and(|m| Arc::ptr_eq(m, op)))
        };
        if let Some(hit) = slot.lock().expect("hoisted slot").as_ref().filter(bound).cloned() {
            return hit;
        }
        let operands = (self.hoist_inputs())
            .map(|name| {
                let m = env.binding(name);
                m.unwrap_or_else(|| panic!("operand `{name}` is not bound in the Env")).clone()
            })
            .collect();
        let values = hoisted_values(&self.batch, env, backend);
        let fresh = Arc::new(Binding { operands, values });
        *slot.lock().expect("hoisted slot") = Some(fresh.clone());
        fresh
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

    /// The lowered graph (inspection, DOT export).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The precomputed execution schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
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
    use laab_kernels::counters::measure;
    use laab_kernels::Trans;
    use laab_rewrite::optimize_egraph;

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
        // Two executions of the same plan, and the framework's cold trace:
        // all equal, bit for bit (the same graph, and the default backend
        // IS the cold-trace engine).
        assert_eq!(plan.execute(&env), cold);
        assert_eq!(plan.execute(&env), cold);
        assert_eq!(plan.backend(), laab_backend::BackendId::ENGINE);
        // One shared AᵀB: the lowering hash-conses it as it is built.
        assert_eq!(plan.graph().matmul_count(), 2);
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
    fn a_batch_of_one_is_the_solo_request() {
        // `execute` is a batch of one. For every family on both sides of
        // the optimizer gate, on every built-in backend and in both
        // dtypes, it returns the bits of the graph's solo sweep. The first
        // execution of a binding runs the sweep's kernels; a later one
        // runs them less the hoisted values'.
        fn check<T: BackendScalar>(plan: &Plan, env: &Env<T>, at: &str) {
            let backend = plan.backend.resolve::<T>().expect("builtins support both dtypes");
            let (solo, kernels) = measure(|| plan.execute(env));
            let (batch, batch_kernels) = measure(|| plan.execute_batched(&[env]));
            let (sweep, sweep_kernels) = measure(|| {
                laab_graph::execute_scheduled_on(plan.graph(), plan.schedule(), env, backend)
            });
            let (_, once) = measure(|| hoisted_values(plan.batch_analysis(), env, backend));
            assert_eq!(batch, std::slice::from_ref(&solo), "{at}");
            assert_eq!(solo, sweep, "{at}");
            assert_eq!(kernels, sweep_kernels, "{at}");
            let warm = (batch_kernels.total_flops(), batch_kernels.total_calls());
            let want = (
                kernels.total_flops() - once.total_flops(),
                kernels.total_calls() - once.total_calls(),
            );
            assert_eq!(warm, want, "{at}");
        }
        let fw = Framework::flow();
        for n in [16usize, 96] {
            for family in Family::ALL {
                for reg in registry::builtins() {
                    let (expr, ctx) = (family.expr(n), family.ctx(n));
                    let varying = family.varying_operands();
                    let plan = Plan::compile_with_varying(&fw, &expr, &ctx, reg, varying);
                    let at = format!("{} n={n} {}", family.id(), reg.name());
                    check::<f64>(&plan, &family.env(n, 7), &at);
                    check::<f32>(&plan, &family.env(n, 7), &at);
                }
            }
        }
    }

    #[test]
    fn egraph_opt_hoists_the_shared_gram_of_the_chain() {
        // The Chain family as the serving loop submits it: (HᵀH)x, with x
        // request-varying. Both levels keep the association; the e-graph
        // level prices the shared HᵀH once, so it keeps it over Hᵀ(Hx) and
        // builds it as SYRK. Both plans hoist it and stack on x. With no
        // varying operand nothing is hoisted, so HᵀH is per request and
        // the e-graph level re-associates to two GEMVs.
        let n = 32;
        let fw = Framework::flow();
        let expr = (var("H").t() * var("H")) * var("x");
        let ctx = Context::new().with("H", n, n).with("x", n, 1);
        let compile = |varying, opt| {
            Plan::compile_opt(&fw, &expr, &ctx, registry::default_backend(), varying, opt)
        };
        let (passes, egraph) =
            (compile(&["x"], OptLevel::Passes), compile(&["x"], OptLevel::Egraph));
        assert_eq!((passes.graph().matmul_count(), passes.graph().syrk_count()), (2, 0));
        assert_eq!((egraph.graph().matmul_count(), egraph.graph().syrk_count()), (2, 1));
        for plan in [&passes, &egraph] {
            assert!(plan.stackable());
            assert_eq!(plan.batch_analysis().hoisted().len(), 1);
            let out = plan.graph().node(plan.graph().outputs[0]);
            let OpKind::MatMul { ta, .. } = out.kind else { panic!("G·x is a product") };
            assert_eq!(ta, Trans::Yes, "the symmetric G is read transposed");
        }
        let plain = compile(&[], OptLevel::Egraph);
        assert!(plain.batch_analysis().hoisted().is_empty());
        assert_eq!((plain.graph().matmul_count(), plain.graph().syrk_count()), (2, 0));
        assert!(optimize_egraph(&expr, &ctx, &EgraphConfig::default()).changed);

        let mut g = OperandGen::new(23);
        let env = Env::<f64>::new().with("H", g.matrix(n, n)).with("x", g.matrix(n, 1));
        let a = passes.execute(&env);
        assert_eq!(egraph.execute(&env), a, "SYRK lands on the GEMM's bits");
        assert!(plain.execute(&env)[0].approx_eq(&a[0], 1e-11), "opt levels agree numerically");
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
        assert!(!optimize_egraph(&expr, &ctx, &EgraphConfig::default()).changed, "ties kept");
        assert_eq!(passes.graph(), egraph.graph());
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

    /// The graph the served compile built before it lowered directly:
    /// the expression at `opt` (extracted against `varying`) traced
    /// through `Framework::flow()` and its pass pipeline, with every
    /// product of a same-node transpose product and a vector read
    /// transposed, and every same-node transpose product relabelled
    /// `Syrk` at the e-graph level.
    fn traced(expr: &Expr, ctx: &Context, varying: &[&str], opt: OptLevel) -> Graph {
        let chosen = match opt {
            OptLevel::Passes => expr.clone(),
            OptLevel::Egraph => {
                optimize_egraph_with_varying(expr, ctx, &EgraphConfig::default(), varying).best
            }
        };
        let mut graph = Framework::flow().function_from_expr(&chosen, ctx).graph().clone();
        let gram = |node: &laab_graph::Node| matches!(node.kind, OpKind::MatMul { ta, tb, .. } if node.inputs[0] == node.inputs[1] && ta != tb);
        for i in 0..graph.nodes.len() {
            let node = &graph.nodes[i];
            if node.shape.cols == 1 && node.inputs.len() == 2 && gram(graph.node(node.inputs[0])) {
                let OpKind::MatMul { ta, .. } = &mut graph.nodes[i].kind else { continue };
                *ta = Trans::Yes;
            }
        }
        if opt == OptLevel::Egraph {
            for node in &mut graph.nodes {
                let OpKind::MatMul { ta, tb, alpha_bits } = node.kind else { continue };
                if node.inputs[0] == node.inputs[1] && ta != tb && node.shape.rows >= 2 {
                    node.kind = OpKind::Syrk { trans: ta, alpha_bits };
                    node.inputs.truncate(1);
                }
            }
        }
        graph
    }

    #[test]
    fn every_served_plan_is_the_traced_pipelines_graph() {
        for family in Family::ALL {
            for n in [8usize, 16, 47, 48, 96, 192, 256] {
                for opt in OptLevel::ALL {
                    let plan = compile_family(family, n, Some(opt));
                    let varying = family.varying_operands();
                    let want = traced(&family.expr(n), &family.ctx(n), varying, opt);
                    assert_eq!(plan.graph(), &want, "{} n={n} {opt}", family.id());
                }
            }
        }
    }

    #[test]
    fn default_path_saturates_only_inputs_that_can_repay_it() {
        // Under the gate: the passes-level plan, at every family.
        for n in [8usize, 16, 47] {
            for family in Family::ALL {
                let plan = compile_family(family, n, None);
                let level = OptLevel::for_input(&family.expr(n), &family.ctx(n));
                assert_eq!(level, OptLevel::Passes, "{} n={n}", family.id());
                let pinned = compile_family(family, n, Some(OptLevel::Passes));
                assert_eq!(plan.graph(), pinned.graph(), "{} n={n}", family.id());
                assert_eq!(plan.graph().syrk_count(), 0, "{} n={n}", family.id());
                assert_eq!(plan.stackable(), pinned.stackable());
            }
        }
        // Over it: the e-graph plan. Two of the paper's misses are
        // rewritten; the chain's (HᵀH)x is kept with HᵀH hoisted, and
        // E1's CSE form, E3's Gram and the residual are kept as they are.
        for n in [192usize, 256] {
            for family in Family::ALL {
                let plan = compile_family(family, n, None);
                let (expr, ctx, varying) =
                    (family.expr(n), family.ctx(n), family.varying_operands());
                assert_eq!(OptLevel::for_input(&expr, &ctx), OptLevel::Egraph);
                let r =
                    optimize_egraph_with_varying(&expr, &ctx, &EgraphConfig::default(), varying);
                assert!(!r.stats.budget_hit);
                let rewritten = [Family::Slice, Family::Distributive];
                assert_eq!(r.changed, rewritten.contains(&family), "{} n={n}", family.id());
                let hoists = usize::from(family == Family::Chain);
                assert_eq!(plan.batch_analysis().hoisted().len(), hoists, "{} n={n}", family.id());
                let pinned = compile_family(family, n, Some(OptLevel::Egraph));
                assert_eq!(plan.graph(), pinned.graph(), "{} n={n}", family.id());
                // E3 on the served path: the families with a product of
                // one value by its own transpose run it as SYRK.
                let syrks =
                    usize::from(matches!(family, Family::Gram | Family::CseGram | Family::Chain));
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
            let (expr, ctx) = (Family::CseGram.expr(n), Family::CseGram.ctx(n));
            let r = optimize_egraph(&expr, &ctx, &EgraphConfig::default());
            assert!(!r.changed, "n={n}: the shared AᵀB is priced once");
            assert_eq!(r.best_cost, r.original_cost);
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
            let r = optimize_egraph(&family.expr(n), &family.ctx(n), &EgraphConfig::default());
            assert!(!r.changed, "a kernel choice, not a rewrite");
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
        // kernel and on the two backends that keep the default hook.
        laab_deferred::ensure_registered();
        let n = 48;
        for family in [Family::Gram, Family::CseGram] {
            let (fw, expr, ctx) = (Framework::flow(), family.expr(n), family.ctx(n));
            let envs: Vec<Env<f64>> = (0..4).map(|i| family.env(n, 11 + i)).collect();
            let refs: Vec<&Env<f64>> = envs.iter().collect();
            for name in ["engine", "reference", "deferred"] {
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
