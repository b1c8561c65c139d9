//! The DAG executor and the precomputed execution [`Schedule`].
//!
//! A single forward sweep in topological order. Every kernel-backed node
//! dispatches through a `laab-backend` [`Backend`] — the live engine by
//! default ([`execute`] / [`execute_scheduled`]), or any registered
//! backend via [`execute_on`] / [`execute_scheduled_on`], so identical
//! graphs can be A/B'd across kernel strategies the way one traced
//! `tf.function` graph dispatches to multiple runtimes. Pure data
//! movement (transpose, slicing, concatenation) is executor-level and
//! backend-independent. The thread-local FLOP/call counters give a
//! faithful kernel-level trace of the graph's execution — the data behind
//! the paper's analytical claims. Intermediate buffers are freed as soon
//! as their last consumer has run (reference counting), bounding peak
//! memory to the live frontier of the DAG.
//!
//! Vector-shaped products dispatch to Level-1/2 kernels the way the
//! frameworks' `matmul` lowers to MKL: `1×k · k×1` → `DOT`,
//! `m×k · k×1` → `GEMV`, `1×k · k×n` → `GEMV` on the transpose, everything
//! else → `GEMM` (with transposition and `alpha` as kernel attributes).
//!
//! [`execute`] recomputes the reference counts on every call — fine for a
//! one-shot experiment. A serving system re-executing the same graph per
//! request amortizes that bookkeeping through a [`Schedule`]: the use
//! counts, per-node output sizes, and the peak-live workspace layout are
//! computed once at plan-compile time and re-used by
//! [`execute_scheduled`] with fresh operand bindings (the `tf.function`
//! concrete-function analogue that `laab-serve` caches).

use laab_backend::{engine, Backend};
use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_expr::eval::Env;
use laab_kernels::counters::{self, Kernel};

use crate::ir::{Graph, NodeId, OpKind};

enum Val<'e, T: Scalar> {
    Ref(&'e Matrix<T>),
    Owned(Matrix<T>),
}

impl<'e, T: Scalar> Val<'e, T> {
    fn get(&self) -> &Matrix<T> {
        match self {
            Val::Ref(m) => m,
            Val::Owned(m) => m,
        }
    }
    fn into_owned(self) -> Matrix<T> {
        match self {
            Val::Ref(m) => m.clone(),
            Val::Owned(m) => m,
        }
    }
}

/// Steal the buffer of `id` when this node is its only remaining consumer
/// and the value is an owned intermediate (not a borrowed feed). The freed
/// slot stays `None`; the release loop after the node tolerates that.
fn take_unique<'e, T: Scalar>(
    values: &mut [Option<Val<'e, T>>],
    remaining: &[u32],
    id: NodeId,
) -> Option<Matrix<T>> {
    if remaining[id.idx()] == 1 && matches!(values[id.idx()], Some(Val::Owned(_))) {
        match values[id.idx()].take() {
            Some(Val::Owned(m)) => Some(m),
            _ => unreachable!("checked Owned just above"),
        }
    } else {
        None
    }
}

/// The precomputed execution plan for one [`Graph`]: everything the
/// executor derives from graph *structure* (as opposed to operand
/// *values*), hoisted out of the per-call path.
///
/// A schedule is valid only for the exact graph it was built from;
/// [`execute_scheduled`] cross-checks the node count and (in debug
/// builds) the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Per-node reference counts (operand edges + output fetches), the
    /// seed of the executor's free-after-last-use sweep.
    use_counts: Vec<u32>,
    /// Per-node output element counts (`rows · cols`).
    out_elems: Vec<usize>,
    /// Peak sum of live intermediate elements across the sweep — the
    /// workspace-size layout a serving system reserves per in-flight
    /// request. Fed inputs are borrowed, not allocated, so they are
    /// excluded; in-place buffer reuse (Add/Sub/Scale stealing a
    /// uniquely-owned operand) only lowers the true footprint, so this
    /// is a safe upper bound.
    peak_live_elems: usize,
}

impl Schedule {
    /// Precompute the schedule for `g` by simulating the executor's
    /// reference-counting sweep without touching any operand data.
    pub fn new(g: &Graph) -> Self {
        let use_counts = g.use_counts();
        let out_elems: Vec<usize> = g.nodes.iter().map(|n| n.shape.len()).collect();
        let mut remaining = use_counts.clone();
        let mut live = 0usize;
        let mut peak = 0usize;
        for (i, node) in g.nodes.iter().enumerate() {
            if !matches!(node.kind, OpKind::Input(_)) {
                live += out_elems[i];
                peak = peak.max(live);
            }
            for inp in &node.inputs {
                remaining[inp.idx()] -= 1;
                if remaining[inp.idx()] == 0 && !matches!(g.nodes[inp.idx()].kind, OpKind::Input(_))
                {
                    live -= out_elems[inp.idx()];
                }
            }
        }
        Self { use_counts, out_elems, peak_live_elems: peak }
    }

    /// Number of scheduled nodes.
    pub fn len(&self) -> usize {
        self.use_counts.len()
    }

    /// `true` for the empty graph's schedule.
    pub fn is_empty(&self) -> bool {
        self.use_counts.is_empty()
    }

    /// The per-node reference counts the executor starts from.
    pub fn use_counts(&self) -> &[u32] {
        &self.use_counts
    }

    /// Output element count of node `id`.
    pub fn out_elems(&self, id: NodeId) -> usize {
        self.out_elems[id.idx()]
    }

    /// Peak live intermediate elements (see the field docs for what is
    /// and is not counted).
    pub fn peak_live_elems(&self) -> usize {
        self.peak_live_elems
    }

    /// The peak-live workspace in bytes for element type `T`.
    pub fn workspace_bytes<T: Scalar>(&self) -> usize {
        self.peak_live_elems * std::mem::size_of::<T>()
    }
}

/// Execute the graph against the fed operands, returning the outputs in
/// fetch order.
///
/// # Panics
/// On missing feeds, feed-shape mismatches, or (in debug builds) a graph
/// violating the topological invariant.
pub fn execute<T: Scalar>(g: &Graph, env: &Env<T>) -> Vec<Matrix<T>> {
    execute_on(g, env, engine::<T>())
}

/// [`execute`] through an explicit execution [`Backend`] — the same
/// sweep, buffer stealing, and free order, with every kernel-backed node
/// dispatched to `backend`'s entry points instead of the default engine.
///
/// # Panics
/// Everything [`execute`] panics on.
pub fn execute_on<T: Scalar>(g: &Graph, env: &Env<T>, backend: &dyn Backend<T>) -> Vec<Matrix<T>> {
    execute_with_counts(g, g.use_counts(), env, backend)
}

/// Execute the graph under a precomputed [`Schedule`], skipping the
/// per-call reference-count derivation. Numerically this is the *same
/// sweep* as [`execute`] — kernel dispatch, buffer stealing, and free
/// order are identical — so a plan-cache hit is bitwise-identical to a
/// cold trace.
///
/// # Panics
/// When `schedule` was built for a graph with a different node count, plus
/// everything [`execute`] panics on.
pub fn execute_scheduled<T: Scalar>(
    g: &Graph,
    schedule: &Schedule,
    env: &Env<T>,
) -> Vec<Matrix<T>> {
    execute_scheduled_on(g, schedule, env, engine::<T>())
}

/// [`execute_scheduled`] through an explicit execution [`Backend`] — what
/// `laab-serve` calls with the backend a plan was compiled for, so one
/// request stream can be A/B'd across backends under identical schedules.
///
/// # Panics
/// Everything [`execute_scheduled`] panics on.
pub fn execute_scheduled_on<T: Scalar>(
    g: &Graph,
    schedule: &Schedule,
    env: &Env<T>,
    backend: &dyn Backend<T>,
) -> Vec<Matrix<T>> {
    assert_eq!(
        schedule.len(),
        g.len(),
        "schedule was built for a graph with {} nodes, this graph has {}",
        schedule.len(),
        g.len()
    );
    execute_with_counts(g, schedule.use_counts.clone(), env, backend)
}

fn execute_with_counts<'e, T: Scalar>(
    g: &Graph,
    mut remaining: Vec<u32>,
    env: &'e Env<T>,
    backend: &dyn Backend<T>,
) -> Vec<Matrix<T>> {
    debug_assert_eq!(g.check_topology(), Ok(()));
    let mut values: Vec<Option<Val<'e, T>>> = Vec::with_capacity(g.len());

    for node in g.nodes.iter() {
        let val: Val<'e, T> = match &node.kind {
            OpKind::Input(name) => {
                let m = env.expect(name);
                assert_eq!(
                    (m.rows(), m.cols()),
                    (node.shape.rows, node.shape.cols),
                    "feed `{name}` has shape {}x{}, graph expects {}",
                    m.rows(),
                    m.cols(),
                    node.shape
                );
                Val::Ref(m)
            }
            OpKind::Identity(n) => Val::Owned(Matrix::identity(*n)),
            OpKind::MatMul { ta, tb, alpha_bits } => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                let alpha = T::from_f64(f64::from_bits(*alpha_bits));
                Val::Owned(backend.matmul(alpha, a, *ta, b, *tb))
            }
            OpKind::Syrk { trans, alpha_bits } => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap().get();
                let alpha = T::from_f64(f64::from_bits(*alpha_bits));
                Val::Owned(backend.syrk(alpha, x, *trans))
            }
            OpKind::Add => {
                // Reuse a uniquely-owned operand buffer instead of
                // allocating a fresh output (addition commutes exactly, so
                // either side may accumulate the other).
                if let Some(mut a) = take_unique(&mut values, &remaining, node.inputs[0]) {
                    let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                    backend.geadd_assign(T::ONE, &mut a, T::ONE, b);
                    Val::Owned(a)
                } else if let Some(mut b) = take_unique(&mut values, &remaining, node.inputs[1]) {
                    let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                    backend.geadd_assign(T::ONE, &mut b, T::ONE, a);
                    Val::Owned(b)
                } else {
                    let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                    let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                    Val::Owned(backend.geadd(T::ONE, a, T::ONE, b))
                }
            }
            OpKind::Sub => {
                if let Some(mut a) = take_unique(&mut values, &remaining, node.inputs[0]) {
                    let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                    backend.geadd_assign(T::ONE, &mut a, -T::ONE, b);
                    Val::Owned(a)
                } else if let Some(mut b) = take_unique(&mut values, &remaining, node.inputs[1]) {
                    // a − b == (−1)·b + a, exactly, in either operand order.
                    let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                    backend.geadd_assign(-T::ONE, &mut b, T::ONE, a);
                    Val::Owned(b)
                } else {
                    let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                    let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                    Val::Owned(backend.geadd(T::ONE, a, -T::ONE, b))
                }
            }
            OpKind::Scale(bits) => {
                let c = T::from_f64(f64::from_bits(*bits));
                if let Some(mut x) = take_unique(&mut values, &remaining, node.inputs[0]) {
                    backend.scale_assign(c, &mut x);
                    Val::Owned(x)
                } else {
                    let x = values[node.inputs[0].idx()].as_ref().unwrap().get();
                    Val::Owned(backend.scale(c, x))
                }
            }
            OpKind::Transpose => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap().get();
                counters::record(Kernel::Transpose, 0);
                Val::Owned(x.transpose())
            }
            OpKind::Elem(r, c) => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap().get();
                counters::record(Kernel::Slice, 0);
                Val::Owned(Matrix::filled(1, 1, x[(*r, *c)]))
            }
            OpKind::Row(r) => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap().get();
                counters::record(Kernel::Slice, 0);
                Val::Owned(Matrix::row_vector(x.row(*r)))
            }
            OpKind::Col(c) => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap().get();
                counters::record(Kernel::Slice, 0);
                Val::Owned(x.col_matrix(*c))
            }
            OpKind::VCat => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                counters::record(Kernel::Concat, 0);
                Val::Owned(a.vcat(b))
            }
            OpKind::HCat => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                counters::record(Kernel::Concat, 0);
                Val::Owned(a.hcat(b))
            }
            OpKind::BlockDiag => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap().get();
                let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                counters::record(Kernel::Concat, 0);
                Val::Owned(Matrix::block_diag(a, b))
            }
            OpKind::TridiagMatMul => {
                let t = values[node.inputs[0].idx()].as_ref().unwrap().get();
                let b = values[node.inputs[1].idx()].as_ref().unwrap().get();
                let compact = Tridiagonal::from_dense(t);
                Val::Owned(backend.tridiag_matmul(&compact, b))
            }
        };
        values.push(Some(val));

        // Free operands whose last consumer has now run.
        for inp in &node.inputs {
            let r = &mut remaining[inp.idx()];
            *r -= 1;
            if *r == 0 {
                values[inp.idx()] = None;
            }
        }
    }

    let mut out = Vec::with_capacity(g.outputs.len());
    for id in &g.outputs {
        let r = &mut remaining[id.idx()];
        *r -= 1;
        if *r == 0 {
            out.push(values[id.idx()].take().expect("output already freed").into_owned());
        } else {
            out.push(values[id.idx()].as_ref().expect("output already freed").get().clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GraphBuilder;
    use crate::passes::{lower_syrk, optimize, PassConfig};
    use laab_dense::gen::OperandGen;
    use laab_expr::eval::{eval, Env};
    use laab_expr::var;

    fn env(n: usize, seed: u64) -> Env<f64> {
        let mut g = OperandGen::new(seed);
        Env::new()
            .with("A", g.matrix(n, n))
            .with("B", g.matrix(n, n))
            .with("x", g.matrix(n, 1))
            .with("y", g.matrix(n, 1))
    }

    /// (AᵀB)ᵀ(AᵀB) built through the graph API.
    fn fig3_graph(n: usize) -> Graph {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let at = gb.transpose(a);
        let t0 = gb.matmul(at, b);
        let at2 = gb.transpose(a);
        let t1 = gb.matmul(at2, b);
        let t0t = gb.transpose(t0);
        let ret = gb.matmul(t0t, t1);
        gb.finish(vec![ret])
    }

    #[test]
    fn unoptimized_and_optimized_agree_with_oracle() {
        let n = 16;
        let e = env(n, 42);
        let oracle = {
            let s = var("A").t() * var("B");
            eval(&(s.t() * s.clone()), &e)
        };
        let g0 = fig3_graph(n);
        let unopt = execute(&g0, &e);
        assert!(unopt[0].approx_eq(&oracle, 1e-12));

        let mut g1 = fig3_graph(n);
        optimize(&mut g1, &PassConfig::all());
        let opt = execute(&g1, &e);
        assert!(opt[0].approx_eq(&oracle, 1e-12));
    }

    #[test]
    fn optimization_changes_gemm_count_not_value() {
        let n = 12;
        let e = env(n, 7);
        let g0 = fig3_graph(n);
        let (_r0, c0) = counters::measure(|| execute(&g0, &e));
        assert_eq!(c0.calls(Kernel::Gemm), 3, "unoptimized graph runs 3 GEMMs");

        let mut g1 = fig3_graph(n);
        optimize(&mut g1, &PassConfig::all());
        let (_r1, c1) = counters::measure(|| execute(&g1, &e));
        assert_eq!(c1.calls(Kernel::Gemm), 2, "CSE saves one GEMM (Table I row 2)");
        assert_eq!(c1.calls(Kernel::Transpose), 0, "transposes folded into flags");
    }

    #[test]
    fn vector_products_dispatch_to_level1_and_2() {
        let n = 10;
        let e = env(n, 9);
        // Hᵀ(Hx): two GEMVs, zero GEMMs.
        let mut gb = GraphBuilder::new();
        let h = gb.input("A", n, n);
        let x = gb.input("x", n, 1);
        let hx = gb.matmul(h, x);
        let ht = gb.transpose(h);
        let r = gb.matmul(ht, hx);
        let mut g = gb.finish(vec![r]);
        optimize(&mut g, &PassConfig::all());
        let (out, c) = counters::measure(|| execute(&g, &e));
        assert_eq!(c.calls(Kernel::Gemv), 2);
        assert_eq!(c.calls(Kernel::Gemm), 0);
        let oracle = eval(&(var("A").t() * (var("A") * var("x"))), &e);
        assert!(out[0].approx_eq(&oracle, 1e-12));
    }

    #[test]
    fn dot_dispatch_for_scalar_product() {
        let n = 10;
        let e = env(n, 11);
        let mut gb = GraphBuilder::new();
        let x = gb.input("x", n, 1);
        let y = gb.input("y", n, 1);
        let xt = gb.transpose(x);
        let d = gb.matmul(xt, y);
        let mut g = gb.finish(vec![d]);
        optimize(&mut g, &PassConfig::all());
        let (out, c) = counters::measure(|| execute(&g, &e));
        assert_eq!(c.calls(Kernel::Dot), 1);
        let oracle = eval(&(var("x").t() * var("y")), &e);
        assert!((out[0][(0, 0)] - oracle[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn row_vector_times_matrix_uses_gemv() {
        // yᵀ Hᵀ H evaluated left-to-right: two GEMVs (Table III, L→R case).
        let n = 10;
        let e = env(n, 13);
        let mut gb = GraphBuilder::new();
        let h = gb.input("A", n, n);
        let y = gb.input("y", n, 1);
        let yt = gb.transpose(y);
        let ht = gb.transpose(h);
        let m1 = gb.matmul(yt, ht);
        let m2 = gb.matmul(m1, h);
        let mut g = gb.finish(vec![m2]);
        optimize(&mut g, &PassConfig::all());
        let (out, c) = counters::measure(|| execute(&g, &e));
        assert_eq!(c.calls(Kernel::Gemv), 2);
        assert_eq!(c.calls(Kernel::Gemm), 0);
        let oracle = eval(&(var("y").t() * var("A").t() * var("A")), &e);
        assert!(out[0].approx_eq(&oracle, 1e-12));
    }

    #[test]
    fn alpha_fused_matmul_scales_output() {
        let n = 8;
        let e = env(n, 15);
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let m1 = gb.matmul(a, b);
        let m2 = gb.matmul(a, b);
        let s = gb.add(m1, m2);
        let mut g = gb.finish(vec![s]);
        optimize(&mut g, &PassConfig::all());
        let (out, c) = counters::measure(|| execute(&g, &e));
        assert_eq!(c.calls(Kernel::Gemm), 1);
        assert_eq!(c.calls(Kernel::GeAdd), 0);
        let oracle = eval(&(var("A") * var("B")), &e).scale(2.0);
        assert!(out[0].approx_eq(&oracle, 1e-12));
    }

    #[test]
    fn multiple_outputs_and_shared_values() {
        let n = 6;
        let e = env(n, 17);
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let ab = gb.matmul(a, b);
        let sum = gb.add(ab, a);
        let g = gb.finish(vec![ab, sum, ab]);
        let out = execute(&g, &e);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2]);
        let oracle = eval(&(var("A") * var("B") + var("A")), &e);
        assert!(out[1].approx_eq(&oracle, 1e-12));
    }

    #[test]
    fn tridiag_node_uses_structured_kernel() {
        let n = 12;
        let mut og = OperandGen::new(19);
        let t = og.tridiagonal::<f64>(n);
        let b = og.matrix::<f64>(n, n);
        let e = Env::new().with("T", t.to_dense()).with("B", b.clone());
        let mut gb = GraphBuilder::new();
        let tn = gb.input("T", n, n);
        let bn = gb.input("B", n, n);
        let r = gb.tridiag_matmul(tn, bn);
        let g = gb.finish(vec![r]);
        let (out, c) = counters::measure(|| execute(&g, &e));
        assert_eq!(c.calls(Kernel::TridiagMatmul), 1);
        assert_eq!(c.calls(Kernel::Gemm), 0);
        let oracle = laab_kernels::reference::tridiag_matmul_naive(&t, &b);
        assert!(out[0].approx_eq(&oracle, 1e-12));
    }

    #[test]
    fn backend_dispatch_swaps_kernels_not_results() {
        // The same optimized graph through all three built-in backends:
        // same sweep, different kernels. The reference backend is the
        // oracle; engine/seed differ from it only by FMA contraction in
        // the products, so agreement is approx (tight), not bitwise.
        let n = 16;
        let e = env(n, 31);
        let mut g = fig3_graph(n);
        optimize(&mut g, &PassConfig::all());
        let schedule = Schedule::new(&g);
        let via_default = execute(&g, &e);
        for reg in laab_backend::registry::builtins() {
            let backend = reg.resolve::<f64>().expect("builtins support f64");
            let out = execute_on(&g, &e, backend);
            let scheduled = execute_scheduled_on(&g, &schedule, &e, backend);
            // Per backend, plain and scheduled sweeps are bitwise equal.
            assert_eq!(out, scheduled, "{} scheduled sweep drifted", reg.name());
            assert!(out[0].approx_eq(&via_default[0], 1e-13), "{} disagrees", reg.name());
        }
    }

    #[test]
    fn syrk_node_is_bitwise_the_matmul_it_replaced() {
        // Fig. 3's SᵀS, with and without the lowering: every backend must
        // return its own unlowered bits (the default hook is the matmul;
        // the engine's half-FLOP kernel is built to land on them).
        let n = 20;
        let e = env(n, 37);
        let mut plain = fig3_graph(n);
        optimize(&mut plain, &PassConfig::all());
        let mut lowered = plain.clone();
        assert_eq!(lower_syrk(&mut lowered), 1);
        let schedule = Schedule::new(&lowered);
        for reg in laab_backend::registry::builtins() {
            let backend = reg.resolve::<f64>().expect("builtins support f64");
            let want = execute_on(&plain, &e, backend);
            assert_eq!(execute_on(&lowered, &e, backend), want, "{}", reg.name());
            let scheduled = execute_scheduled_on(&lowered, &schedule, &e, backend);
            assert_eq!(scheduled, want, "{} scheduled", reg.name());
        }
        // On the engine the lowered graph runs one GEMM and one SYRK at
        // half the outer product's FLOPs.
        let (_, c) = counters::measure(|| execute(&lowered, &e));
        assert_eq!((c.calls(Kernel::Gemm), c.calls(Kernel::Syrk)), (1, 1));
        assert_eq!(c.flops(Kernel::Syrk), (n * n * n) as u64);
        let (_, c) = counters::measure(|| execute(&plain, &e));
        assert_eq!((c.calls(Kernel::Gemm), c.calls(Kernel::Syrk)), (2, 0));
    }

    #[test]
    fn scheduled_execution_is_bitwise_identical() {
        let n = 16;
        let e = env(n, 23);
        let mut g = fig3_graph(n);
        optimize(&mut g, &PassConfig::all());
        let plain = execute(&g, &e);
        let schedule = Schedule::new(&g);
        let scheduled = execute_scheduled(&g, &schedule, &e);
        // Same sweep, same kernels: exact equality, not approx.
        assert_eq!(plain, scheduled);
    }

    #[test]
    fn schedule_counts_and_workspace() {
        let n = 8;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let ab = gb.matmul(a, b); // n² live
        let s = gb.add(ab, a); // steals or allocates; schedule counts both
        let g = gb.finish(vec![s]);
        let schedule = Schedule::new(&g);
        assert_eq!(schedule.len(), g.len());
        assert_eq!(schedule.use_counts(), g.use_counts().as_slice());
        assert_eq!(schedule.out_elems(ab), n * n);
        // Peak: `ab` and the add's output are simultaneously live; the
        // borrowed inputs are not counted.
        assert_eq!(schedule.peak_live_elems(), 2 * n * n);
        assert_eq!(schedule.workspace_bytes::<f64>(), 2 * n * n * 8);
        assert_eq!(schedule.workspace_bytes::<f32>(), 2 * n * n * 4);
        assert!(!schedule.is_empty());
    }

    #[test]
    fn schedule_frees_intermediates_in_peak_accounting() {
        // A chain a·b·c·d of square matmuls keeps at most two
        // intermediates live at once (the running product and the next).
        let n = 4;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let mut acc = a;
        for name in ["B", "C", "D"] {
            let m = gb.input(name, n, n);
            acc = gb.matmul(acc, m);
        }
        let g = gb.finish(vec![acc]);
        let schedule = Schedule::new(&g);
        assert_eq!(schedule.peak_live_elems(), 2 * n * n);
    }

    #[test]
    #[should_panic(expected = "schedule was built for a graph")]
    fn stale_schedule_is_rejected() {
        let e = env(8, 29);
        let g_small = fig3_graph(8);
        let schedule = Schedule::new(&g_small);
        let mut g_opt = fig3_graph(8);
        optimize(&mut g_opt, &PassConfig::all());
        let _ = execute_scheduled(&g_opt, &schedule, &e);
    }

    #[test]
    #[should_panic(expected = "feed `A` has shape")]
    fn feed_shape_mismatch_panics() {
        let e = Env::<f64>::new().with("A", Matrix::zeros(3, 3));
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 4, 4);
        let g = gb.finish(vec![a]);
        let _ = execute(&g, &e);
    }
}
