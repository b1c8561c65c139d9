//! The DAG executor and the precomputed execution [`Schedule`].
//!
//! One forward sweep in topological order runs every request, solo or
//! batched. Every kernel-backed node dispatches through a `laab-backend`
//! [`Backend`] — the live engine for a one-shot [`execute`], or the
//! backend a serving plan was compiled for — so identical graphs can be
//! A/B'd across kernel strategies the way one traced `tf.function` graph
//! dispatches to multiple runtimes. Pure data movement (transpose,
//! slicing, concatenation) is executor-level and backend-independent.
//! The thread-local FLOP/call counters give a faithful kernel-level trace
//! of the graph's execution — the data behind the paper's analytical
//! claims. Intermediate buffers are freed as soon as their last consumer
//! has run, bounding peak memory to the live frontier of the DAG, and
//! that consumer reuses an owned buffer in place (`Add`/`Sub`/`Scale`
//! through the backend's `*_assign` entry points).
//!
//! Vector-shaped products dispatch to Level-1/2 kernels the way the
//! frameworks' `matmul` lowers to MKL: `1×k · k×1` → `DOT`,
//! `m×k · k×1` → `GEMV`, `1×k · k×n` → `GEMV` on the transpose, everything
//! else → `GEMM` (with transposition and `alpha` as kernel attributes).
//!
//! An in-flight value is *shared* (one matrix) or *stacked* (one part per
//! environment of a batch, for the inputs the [`BatchAnalysis`] declares
//! varying). Each node kind is written once and applied to shared
//! operands once or to stacked ones per part; only a stacked `MatMul`
//! calls something else, [`Backend::matmul_batched`]. A plan that does
//! not stack, or a batch of one, runs every value shared, one environment
//! at a time. Stolen and allocated outputs are bitwise-equal by the
//! [`Backend`] contract, as is `matmul_batched` with the solo product per
//! part, so a batched result is the solo result on every backend
//! (property-tested in `tests/batched_exec_props.rs`).
//!
//! [`execute`] derives the reference counts on every call — fine for a
//! one-shot experiment. A serving system amortizes that bookkeeping
//! through a [`Schedule`] computed once at plan-compile time (the
//! `tf.function` concrete-function analogue that `laab-serve` caches).
//!
//! A serving system also amortizes the *work* that does not depend on the
//! request: [`hoisted_values`] evaluates the nodes the [`BatchAnalysis`]
//! hoists, once per binding of the shared operands, and
//! [`execute_hoisted_on`] runs a batch with those values borrowed in
//! place of the nodes. Each value is what the sweep would compute there,
//! from the same operands through the same backend, so a result is
//! bitwise the same with a hoisted value as without one.

use std::borrow::Cow;

use laab_backend::{engine, Backend};
use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_expr::eval::Env;
use laab_kernels::counters::{self, Kernel};
use laab_kernels::Trans;

use crate::batch::{stacked_form, BatchAnalysis, BatchStatus, Eval};
use crate::ir::{Graph, NodeId, OpKind};

/// One in-flight value of the sweep. A matrix is borrowed (a feed, or
/// an operand another consumer still needs) or owned by the sweep, and
/// an owned one may be reused in place by its last consumer.
enum Val<'a, T: Scalar> {
    /// The same matrix for every environment.
    Shared(Cow<'a, Matrix<T>>),
    /// One part per environment, in batch order.
    Stacked(Vec<Cow<'a, Matrix<T>>>),
}

impl<'a, T: Scalar> Val<'a, T> {
    fn status(&self) -> BatchStatus {
        match self {
            Val::Shared(_) => BatchStatus::Shared,
            Val::Stacked(_) => BatchStatus::Stacked,
        }
    }

    /// The value as an operand that leaves it in its slot.
    fn borrowed(&self) -> Val<'_, T> {
        match self {
            Val::Shared(m) => Val::Shared(Cow::Borrowed(&**m)),
            Val::Stacked(parts) => {
                Val::Stacked(parts.iter().map(|m| Cow::Borrowed(&**m)).collect())
            }
        }
    }

    /// Apply a unary node once, or once per part.
    fn map<'o>(self, mut f: impl FnMut(Cow<'a, Matrix<T>>) -> Matrix<T>) -> Val<'o, T> {
        match self {
            Val::Shared(m) => Val::Shared(Cow::Owned(f(m))),
            Val::Stacked(parts) => {
                Val::Stacked(parts.into_iter().map(|m| Cow::Owned(f(m))).collect())
            }
        }
    }

    /// Apply a binary node once, or once per part; a shared operand of a
    /// stacked node is lent to every part.
    fn zip<'o>(
        self,
        other: Val<'a, T>,
        mut f: impl FnMut(Cow<'_, Matrix<T>>, Cow<'_, Matrix<T>>) -> Matrix<T>,
    ) -> Val<'o, T> {
        let mut part = |a, b| Cow::Owned(f(a, b));
        match (self, other) {
            (Val::Shared(a), Val::Shared(b)) => Val::Shared(part(a, b)),
            (Val::Stacked(a), Val::Stacked(b)) => {
                Val::Stacked(a.into_iter().zip(b).map(|(a, b)| part(a, b)).collect())
            }
            (Val::Shared(a), Val::Stacked(b)) => {
                Val::Stacked(b.into_iter().map(|b| part(Cow::Borrowed(&*a), b)).collect())
            }
            (Val::Stacked(a), Val::Shared(b)) => {
                Val::Stacked(a.into_iter().map(|a| part(a, Cow::Borrowed(&*b))).collect())
            }
        }
    }
}

/// The precomputed execution plan for one [`Graph`]: everything the
/// executor derives from graph *structure* (as opposed to operand
/// *values*), hoisted out of the per-call path.
///
/// A schedule is valid only for the exact graph it was built from; the
/// sweep cross-checks the node count and (in debug builds) the topology.
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
        // The sweep runs on the counts themselves, taking one per operand
        // edge, and gives them back afterwards.
        let mut use_counts = g.use_counts();
        let out_elems: Vec<usize> = g.nodes.iter().map(|n| n.shape.len()).collect();
        let mut live = 0usize;
        let mut peak = 0usize;
        for (i, node) in g.nodes.iter().enumerate() {
            if !matches!(node.kind, OpKind::Input(_)) {
                live += out_elems[i];
                peak = peak.max(live);
            }
            for inp in &node.inputs {
                use_counts[inp.idx()] -= 1;
                if use_counts[inp.idx()] == 0
                    && !matches!(g.nodes[inp.idx()].kind, OpKind::Input(_))
                {
                    live -= out_elems[inp.idx()];
                }
            }
        }
        for inp in g.nodes.iter().flat_map(|node| &node.inputs) {
            use_counts[inp.idx()] += 1;
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

/// Execute the graph once against the fed operands on the live engine,
/// returning the outputs in fetch order.
///
/// # Panics
/// On missing feeds, feed-shape mismatches, or (in debug builds) a graph
/// violating the topological invariant.
pub fn execute<T: Scalar>(g: &Graph, env: &Env<T>) -> Vec<Matrix<T>> {
    solo(g, &g.use_counts(), env, None, &[], engine::<T>())
}

/// Execute the graph under a precomputed [`Schedule`] through `backend` —
/// one request, what `laab-serve` runs per solo request. The sweep is
/// [`execute`]'s, so a plan-cache hit is bitwise-identical to a cold
/// trace on the same backend.
///
/// # Panics
/// When `schedule` was built for a graph with a different node count, plus
/// everything [`execute`] panics on.
pub fn execute_scheduled_on<T: Scalar>(
    g: &Graph,
    schedule: &Schedule,
    env: &Env<T>,
    backend: &dyn Backend<T>,
) -> Vec<Matrix<T>> {
    solo(g, &schedule.use_counts, env, None, &[], backend)
}

/// Execute the graph over a batch of operand environments through
/// `backend`, returning one output list per environment, in `envs` order —
/// bitwise what serving each request solo returns: the hoisted nodes'
/// [`hoisted_values`] from `envs[0]`, then [`execute_hoisted_on`].
///
/// # Panics
/// As [`execute_hoisted_on`].
pub fn execute_batched_on<T: Scalar>(
    g: &Graph,
    schedule: &Schedule,
    analysis: &BatchAnalysis,
    envs: &[&Env<T>],
    backend: &dyn Backend<T>,
) -> Vec<Vec<Matrix<T>>> {
    assert!(!envs.is_empty(), "execute_batched_on: empty environment batch");
    let hoisted = hoisted_values(analysis, envs[0], backend);
    execute_hoisted_on(g, schedule, analysis, &hoisted, envs, backend)
}

/// The values of `analysis`'s hoisted nodes ([`BatchAnalysis::hoisted`]),
/// in that order, evaluated through `backend` from `env`'s bindings of
/// the shared operands they read; empty when nothing is hoisted.
///
/// # Panics
/// On a missing feed or a feed-shape mismatch.
pub fn hoisted_values<T: Scalar>(
    analysis: &BatchAnalysis,
    env: &Env<T>,
    backend: &dyn Backend<T>,
) -> Vec<Matrix<T>> {
    let h = analysis.hoist_graph();
    if h.is_empty() {
        return Vec::new();
    }
    solo(h, &h.use_counts(), env, None, &[], backend)
}

/// Execute the graph over a batch of operand environments through
/// `backend` with the hoisted nodes' values given, returning one output
/// list per environment, in `envs` order — bitwise what serving each
/// request solo returns. When `analysis` proves the plan stackable and
/// the batch holds more than one request, the sweep runs once, shared
/// nodes a single time (computed from `envs[0]`); otherwise each
/// environment runs the solo sweep in turn. Either way the hoisted nodes
/// and what only they read are not evaluated: the caller guarantees that
/// `hoisted` is [`hoisted_values`] of bindings every input not named
/// varying shares with every environment.
///
/// # Panics
/// When `envs` is empty, when `schedule`/`analysis` were built for a
/// different graph (length mismatch), when `hoisted` holds a different
/// number of values than `analysis` hoists, plus everything [`execute`]
/// panics on.
pub fn execute_hoisted_on<T: Scalar>(
    g: &Graph,
    schedule: &Schedule,
    analysis: &BatchAnalysis,
    hoisted: &[Matrix<T>],
    envs: &[&Env<T>],
    backend: &dyn Backend<T>,
) -> Vec<Vec<Matrix<T>>> {
    assert!(!envs.is_empty(), "execute_batched_on: empty environment batch");
    assert_eq!(
        analysis.len(),
        g.len(),
        "analysis was built for a graph with {} nodes, this graph has {}",
        analysis.len(),
        g.len()
    );
    assert_eq!(hoisted.len(), analysis.hoisted().len(), "one value per hoisted node");
    let counts = &schedule.use_counts;
    let mut out: Vec<_> = envs.iter().map(|_| Vec::with_capacity(g.outputs.len())).collect();
    if analysis.stackable() && envs.len() > 1 {
        sweep(g, counts, envs, Some((analysis, true)), hoisted, backend, &mut out);
    } else {
        for (env, out) in envs.iter().zip(out.chunks_mut(1)) {
            sweep(g, counts, &[env], Some((analysis, false)), hoisted, backend, out);
        }
    }
    out
}

/// [`sweep`] over one environment, returning its outputs.
fn solo<'e, T: Scalar>(
    g: &Graph,
    use_counts: &[u32],
    env: &'e Env<T>,
    analysis: Option<(&BatchAnalysis, bool)>,
    hoisted: &'e [Matrix<T>],
    backend: &dyn Backend<T>,
) -> Vec<Matrix<T>> {
    let mut out = [Vec::with_capacity(g.outputs.len())];
    sweep(g, use_counts, &[env], analysis, hoisted, backend, &mut out);
    let [out] = out;
    out
}

/// Count one executor-level data-movement op and pass its result on.
fn moved<T: Scalar>(kernel: Kernel, m: Matrix<T>) -> Matrix<T> {
    counters::record(kernel, 0);
    m
}

/// The sweep: every node in topological order, over one environment or,
/// with `analysis` and `true`, over a batch whose varying inputs it names
/// (otherwise every value is shared, bound from `envs[0]`), filling the
/// output list of each environment in `out`. With an analysis, its
/// hoisted nodes read `hoisted` and what only they read is skipped.
fn sweep<'e, T: Scalar>(
    g: &Graph,
    use_counts: &[u32],
    envs: &[&'e Env<T>],
    analysis: Option<(&BatchAnalysis, bool)>,
    hoisted: &'e [Matrix<T>],
    backend: &dyn Backend<T>,
    out: &mut [Vec<Matrix<T>>],
) {
    let stacking = analysis.and_then(|(a, stacked)| stacked.then_some(a));
    assert_eq!(
        use_counts.len(),
        g.len(),
        "schedule was built for a graph with {} nodes, this graph has {}",
        use_counts.len(),
        g.len()
    );
    debug_assert_eq!(g.check_topology(), Ok(()));
    // Per node: the reads of its value still to come, and the value.
    let mut values: Vec<(u32, Option<Val<'e, T>>)> = Vec::with_capacity(g.len());

    for (i, node) in g.nodes.iter().enumerate() {
        let val = match analysis.map_or(Eval::Sweep, |(a, _)| a.eval(NodeId(i as u32))) {
            Eval::Hoisted(k) => Some(Val::Shared(Cow::Borrowed(&hoisted[k]))),
            Eval::Skip => None,
            Eval::Sweep => {
                // Move out each operand this node is the last use of, so its
                // owned buffer can be reused; borrow the rest.
                let mut taken: [Option<Val<'e, T>>; 2] = [None, None];
                for (t, id) in taken.iter_mut().zip(&node.inputs) {
                    if let (1, value) = &mut values[id.idx()] {
                        *t = value.take();
                    }
                }
                let slot =
                    |id: &NodeId| values[id.idx()].1.as_ref().expect("operand already freed");
                let mut args = node
                    .inputs
                    .iter()
                    .zip(&mut taken)
                    .map(|(id, t)| t.take().unwrap_or_else(|| slot(id).borrowed()));
                let mut arg = || args.next().expect("the builder checks operand counts");

                let val: Val<'e, T> = match &node.kind {
                    OpKind::Input(name) => {
                        let feed = |env: &&'e Env<T>| {
                            let m = env.expect(name);
                            assert_eq!(
                                (m.rows(), m.cols()),
                                (node.shape.rows, node.shape.cols),
                                "feed `{name}` has shape {}x{}, graph expects {}",
                                m.rows(),
                                m.cols(),
                                node.shape
                            );
                            Cow::Borrowed(m)
                        };
                        if stacking
                            .is_some_and(|a| a.status(NodeId(i as u32)) == BatchStatus::Stacked)
                        {
                            Val::Stacked(envs.iter().map(feed).collect())
                        } else {
                            Val::Shared(feed(&envs[0]))
                        }
                    }
                    OpKind::Identity(n) => Val::Shared(Cow::Owned(Matrix::identity(*n))),
                    OpKind::MatMul { ta, tb, alpha_bits } => {
                        let alpha = T::from_f64(f64::from_bits(*alpha_bits));
                        match (arg(), arg()) {
                            // RHS stacking: one call for every part against the
                            // one shared left operand.
                            (Val::Shared(a), Val::Stacked(parts)) if *tb == Trans::No => {
                                let parts: Vec<&Matrix<T>> = parts.iter().map(|m| &**m).collect();
                                let out = backend.matmul_batched(alpha, &a, *ta, &parts);
                                Val::Stacked(out.into_iter().map(Cow::Owned).collect())
                            }
                            (a, b) => a.zip(b, |a, b| backend.matmul(alpha, &a, *ta, &b, *tb)),
                        }
                    }
                    OpKind::Syrk { trans, alpha_bits } => {
                        let alpha = T::from_f64(f64::from_bits(*alpha_bits));
                        arg().map(|x| backend.syrk(alpha, &x, *trans))
                    }
                    OpKind::Add | OpKind::Sub => {
                        // An owned operand takes the result: addition commutes
                        // exactly, and a − b == (−1)·b + a exactly.
                        let beta = if matches!(node.kind, OpKind::Add) { T::ONE } else { -T::ONE };
                        arg().zip(arg(), |a, b| match (a, b) {
                            (Cow::Owned(mut a), b) => {
                                backend.geadd_assign(T::ONE, &mut a, beta, &b);
                                a
                            }
                            (a, Cow::Owned(mut b)) => {
                                backend.geadd_assign(beta, &mut b, T::ONE, &a);
                                b
                            }
                            (a, b) => backend.geadd(T::ONE, &a, beta, &b),
                        })
                    }
                    OpKind::Scale(bits) => {
                        let c = T::from_f64(f64::from_bits(*bits));
                        arg().map(|x| match x {
                            Cow::Owned(mut x) => {
                                backend.scale_assign(c, &mut x);
                                x
                            }
                            x => backend.scale(c, &x),
                        })
                    }
                    OpKind::Transpose => arg().map(|x| moved(Kernel::Transpose, x.transpose())),
                    OpKind::Elem(r, c) => {
                        arg().map(|x| moved(Kernel::Slice, Matrix::filled(1, 1, x[(*r, *c)])))
                    }
                    OpKind::Row(r) => {
                        arg().map(|x| moved(Kernel::Slice, Matrix::row_vector(x.row(*r))))
                    }
                    OpKind::Col(c) => arg().map(|x| moved(Kernel::Slice, x.col_matrix(*c))),
                    OpKind::VCat => arg().zip(arg(), |a, b| moved(Kernel::Concat, a.vcat(&b))),
                    OpKind::HCat => arg().zip(arg(), |a, b| moved(Kernel::Concat, a.hcat(&b))),
                    OpKind::BlockDiag => {
                        arg().zip(arg(), |a, b| moved(Kernel::Concat, Matrix::block_diag(&a, &b)))
                    }
                    OpKind::TridiagMatMul => arg().zip(arg(), |t, b| {
                        backend.tridiag_matmul(&Tridiagonal::from_dense(&t), &b)
                    }),
                };
                debug_assert!(
                    stacking.is_none_or(|a| {
                        let inputs: Vec<BatchStatus> =
                            node.inputs.iter().map(|&id| a.status(id)).collect();
                        let form = match node.kind {
                            OpKind::Input(_) => Some(a.status(NodeId(i as u32))),
                            _ => stacked_form(&node.kind, &inputs),
                        };
                        form == Some(val.status())
                    }),
                    "node {i} ({:?}) left the stacked form the analysis proved",
                    node.kind
                );
                Some(val)
            }
        };
        values.push((use_counts[i], val));

        // Free operands whose last consumer has now run.
        for inp in &node.inputs {
            let (left, value) = &mut values[inp.idx()];
            *left -= 1;
            if *left == 0 {
                *value = None;
            }
        }
    }

    // Fetch: a shared output goes to every environment (moved into the
    // last one once nothing else reads it), a stacked one part by part.
    debug_assert_eq!(out.len(), envs.len(), "one output list per environment");
    for id in &g.outputs {
        let (left, value) = &mut values[id.idx()];
        *left -= 1;
        let val = if *left == 0 { value.take() } else { value.as_ref().map(Val::borrowed) };
        match val.expect("output already freed") {
            Val::Shared(m) => {
                let (last, rest) = out.split_last_mut().expect("at least one environment");
                for per_env in rest {
                    per_env.push(Matrix::clone(&m));
                }
                last.push(m.into_owned());
            }
            Val::Stacked(parts) => {
                for (per_env, m) in out.iter_mut().zip(parts) {
                    per_env.push(m.into_owned());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GraphBuilder;
    use crate::passes::{optimize, PassConfig};
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

    fn optimized(mut g: Graph) -> Graph {
        optimize(&mut g, &PassConfig::all());
        g
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
        for g in [fig3_graph(n), optimized(fig3_graph(n))] {
            assert!(execute(&g, &e)[0].approx_eq(&oracle, 1e-12));
        }
    }

    #[test]
    fn optimization_changes_gemm_count_not_value() {
        let n = 12;
        let e = env(n, 7);
        let g0 = fig3_graph(n);
        let (_r0, c0) = counters::measure(|| execute(&g0, &e));
        assert_eq!(c0.calls(Kernel::Gemm), 3, "unoptimized graph runs 3 GEMMs");

        let g1 = optimized(fig3_graph(n));
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
        let g = optimized(gb.finish(vec![r]));
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
        let g = optimized(gb.finish(vec![d]));
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
        let g = optimized(gb.finish(vec![m2]));
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
        let g = optimized(gb.finish(vec![s]));
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
        // The same optimized graph through both built-in backends: same
        // sweep, different kernels. The reference backend is the oracle;
        // the engine differs from it only by FMA contraction in
        // the products, so agreement is approx (tight), not bitwise.
        let n = 16;
        let e = env(n, 31);
        let g = optimized(fig3_graph(n));
        let schedule = Schedule::new(&g);
        let via_default = execute(&g, &e);
        for reg in laab_backend::registry::builtins() {
            let backend = reg.resolve::<f64>().expect("builtins support f64");
            let out = execute_scheduled_on(&g, &schedule, &e, backend);
            assert!(out[0].approx_eq(&via_default[0], 1e-13), "{} disagrees", reg.name());
        }
        // One-shot and scheduled runs of one backend are the same sweep:
        // exact equality, not approx.
        assert_eq!(execute_scheduled_on(&g, &schedule, &e, engine()), via_default);
    }

    #[test]
    fn syrk_node_is_bitwise_the_matmul_it_replaced() {
        // Fig. 3's SᵀS as a GEMM and as a Syrk node: every backend must
        // return its own GEMM bits (the default hook is the matmul; the
        // engine's half-FLOP kernel is built to land on them).
        let n = 20;
        let e = env(n, 37);
        let plain = optimized(fig3_graph(n));
        let mut lowered = plain.clone();
        let root = &mut lowered.nodes[plain.outputs[0].idx()];
        assert_eq!(root.inputs[0], root.inputs[1], "SᵀS reads the one S node twice");
        root.kind = OpKind::Syrk { trans: Trans::Yes, alpha_bits: 1.0f64.to_bits() };
        root.inputs.truncate(1);
        let schedules = (Schedule::new(&plain), Schedule::new(&lowered));
        for reg in laab_backend::registry::builtins() {
            let backend = reg.resolve::<f64>().expect("builtins support f64");
            let want = execute_scheduled_on(&plain, &schedules.0, &e, backend);
            let got = execute_scheduled_on(&lowered, &schedules.1, &e, backend);
            assert_eq!(got, want, "{}", reg.name());
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
        let schedule = Schedule::new(&fig3_graph(8));
        let _ = execute_scheduled_on(&optimized(fig3_graph(8)), &schedule, &env(8, 29), engine());
    }

    #[test]
    #[should_panic(expected = "feed `A` has shape")]
    fn feed_shape_mismatch_panics() {
        let e = Env::<f64>::new().with("A", Matrix::zeros(3, 3));
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 4, 4);
        let _ = execute(&gb.finish(vec![a]), &e);
    }
}
