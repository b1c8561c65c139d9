//! Batched (multi-environment) plan execution — one sweep, `B` requests.
//!
//! A serving system that coalesces same-signature requests holds one
//! compiled graph and `B` operand bindings that differ only in the
//! *varying* leaves (the request payload — e.g. the `x` in `HᵀH·x`),
//! while the *shared* leaves (the model operands) are identical across
//! the batch. [`BatchAnalysis`] classifies every node as `Shared`
//! (identical output for all `B` environments — computed once) or
//! `Stacked` (per-environment outputs, kept as `B` column-aligned parts),
//! and proves whether the whole plan can execute in one batched sweep:
//!
//! * `Input` — `Stacked` when the caller declares the name varying,
//!   `Shared` otherwise (the caller guarantees shared names bind equal
//!   values in every environment).
//! * `MatMul` — `Shared · Stacked` with an untransposed right-hand side
//!   is the **RHS-stacking** case: `op(A)·[B₀ | … | B_{B−1}]`, one
//!   multi-RHS call ([`Backend::matmul_batched`]) for all `B` parts. On
//!   the engine, `k×1` parts are one multi-vector GEMV
//!   (`laab_kernels::gemv_multi`) that reads the shared `A` once per
//!   group of eight; other backends loop over their solo product. A
//!   stacked *left* operand (or a transposed stacked operand) has no
//!   column-stacked form — illegal.
//! * `Add`/`Sub` — legal when both operands have the same status
//!   (`Stacked ± Stacked` is per-part elementwise); mixed
//!   `Shared ± Stacked` would need a broadcast — illegal.
//! * `Scale` — per-part, always legal.
//! * `TridiagMatMul` — `Shared` tridiagonal × `Stacked` dense is
//!   per-part through the structured kernel (the compact form is built
//!   once per batch); a varying tridiagonal operand is illegal.
//! * `Transpose`/slicing/concatenation of a `Stacked` value — illegal
//!   (pure data movement has no batched form worth proving here), as is
//!   a `Syrk` of one (`XᵀX` of a varying `X` multiplies a stacked value
//!   on the left, like the `MatMul` it was lowered from).
//!
//! When the analysis proves the plan stackable, [`execute_batched_on`]
//! runs the sweep once; otherwise it falls back to sequential
//! per-environment [`execute_scheduled_on`] — **bitwise-identical** to
//! serving each request solo, so an illegal plan costs a batching server
//! nothing but the lost amortization. The stacked sweep itself performs
//! every elementwise step with the same backend entry points as the solo
//! sweep (per part, no buffer stealing — the allocating and in-place
//! forms are bitwise-identical by the [`Backend`] contract), and
//! [`Backend::matmul_batched`] must return each part's solo product bit
//! for bit — so a batched result is the solo result, on every backend
//! (property-tested in `tests/batched_exec_props.rs`).

use laab_backend::Backend;
use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_expr::eval::Env;
use laab_kernels::counters::{self, Kernel};
use laab_kernels::Trans;

use crate::exec::{execute_scheduled_on, Schedule};
use crate::ir::{Graph, NodeId, OpKind};

/// How one node behaves across a batch of environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// Output identical for every environment — computed once.
    Shared,
    /// Per-environment outputs, carried as `B` column-aligned parts.
    Stacked,
}

/// The per-node batch classification of one graph, plus the overall
/// stackability verdict. Derived from graph *structure* and the set of
/// varying input names — value-independent, so a serving layer computes
/// it once at plan-compile time and reuses it per batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAnalysis {
    status: Vec<BatchStatus>,
    stackable: bool,
}

impl BatchAnalysis {
    /// Classify every node of `g`, with `is_varying` naming the input
    /// operands that differ per environment.
    ///
    /// The result is `stackable` only when (a) every node touched by a
    /// varying value has a legal stacked form (see the module docs) and
    /// (b) at least one input actually varies — a batch of identical
    /// requests must *not* be collapsed into one execution, because
    /// serving semantics promise per-request work, not result
    /// deduplication.
    pub fn analyze(g: &Graph, is_varying: impl Fn(&str) -> bool) -> Self {
        let mut status: Vec<BatchStatus> = Vec::with_capacity(g.len());
        let mut legal = true;
        let mut has_varying = false;
        for node in g.nodes.iter() {
            let stacked = |i: usize| status[node.inputs[i].idx()] == BatchStatus::Stacked;
            let any_stacked = node.inputs.iter().any(|id| status[id.idx()] == BatchStatus::Stacked);
            let s = match &node.kind {
                OpKind::Input(name) => {
                    if is_varying(name) {
                        has_varying = true;
                        BatchStatus::Stacked
                    } else {
                        BatchStatus::Shared
                    }
                }
                // A node fed only shared values is itself shared,
                // whatever it computes.
                _ if !any_stacked => BatchStatus::Shared,
                OpKind::MatMul { tb, .. } if !stacked(0) && stacked(1) && *tb == Trans::No => {
                    BatchStatus::Stacked
                }
                OpKind::Add | OpKind::Sub if stacked(0) && stacked(1) => BatchStatus::Stacked,
                OpKind::Scale(_) => BatchStatus::Stacked,
                OpKind::TridiagMatMul if !stacked(0) && stacked(1) => BatchStatus::Stacked,
                // Everything else touched by a stacked value — stacked
                // left operands, transposed stacked operands, mixed
                // shared±stacked sums, transpose/slicing/concatenation/
                // block assembly of a stacked value: no column-stacked
                // form proven here.
                _ => {
                    legal = false;
                    BatchStatus::Stacked
                }
            };
            status.push(s);
        }
        Self { status, stackable: legal && has_varying }
    }

    /// `true` when the whole plan executes in one stacked sweep;
    /// `false` sends [`execute_batched_on`] down the per-environment
    /// fallback.
    pub fn stackable(&self) -> bool {
        self.stackable
    }

    /// The classification of node `id`.
    pub fn status(&self, id: NodeId) -> BatchStatus {
        self.status[id.idx()]
    }

    /// Number of classified nodes.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// `true` for the empty graph's analysis.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }
}

/// One in-flight value of the batched sweep.
enum BVal<'e, T: Scalar> {
    SharedRef(&'e Matrix<T>),
    SharedOwned(Matrix<T>),
    StackedRef(Vec<&'e Matrix<T>>),
    StackedOwned(Vec<Matrix<T>>),
}

impl<'e, T: Scalar> BVal<'e, T> {
    /// The shared value (analysis guarantees the status).
    fn shared(&self) -> &Matrix<T> {
        match self {
            BVal::SharedRef(m) => m,
            BVal::SharedOwned(m) => m,
            _ => unreachable!("analysis marked a stacked value as shared"),
        }
    }

    /// The stacked parts as a fresh reference vector (analysis guarantees
    /// the status).
    fn parts(&self) -> Vec<&Matrix<T>> {
        match self {
            BVal::StackedRef(parts) => parts.clone(),
            BVal::StackedOwned(parts) => parts.iter().collect(),
            _ => unreachable!("analysis marked a shared value as stacked"),
        }
    }
}

/// Execute the graph once over `B` operand environments, dispatching
/// through `backend`.
///
/// Returns one output vector per environment, in `envs` order. When
/// `analysis` proves the plan stackable (and `B > 1`), the sweep runs
/// once: shared nodes execute a single time, varying matmuls go through
/// [`Backend::matmul_batched`], and everything else is per-part through
/// the identical backend entry points the solo sweep uses. Otherwise the
/// call falls back to sequential [`execute_scheduled_on`] per
/// environment — bitwise-identical to solo serving.
///
/// The caller guarantees that every input *not* named varying by the
/// analysis binds the same value in all environments (shared nodes are
/// computed from `envs[0]`).
///
/// # Panics
/// When `envs` is empty, when `schedule`/`analysis` were built for a
/// different graph (length mismatch), plus everything
/// [`execute_scheduled_on`] panics on.
pub fn execute_batched_on<T: Scalar>(
    g: &Graph,
    schedule: &Schedule,
    analysis: &BatchAnalysis,
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
    if !analysis.stackable() || envs.len() == 1 {
        return envs.iter().map(|env| execute_scheduled_on(g, schedule, env, backend)).collect();
    }
    assert_eq!(
        schedule.len(),
        g.len(),
        "schedule was built for a graph with {} nodes, this graph has {}",
        schedule.len(),
        g.len()
    );
    debug_assert_eq!(g.check_topology(), Ok(()));

    let q = envs.len();
    let mut remaining = schedule.use_counts().to_vec();
    let mut values: Vec<Option<BVal<'_, T>>> = Vec::with_capacity(g.len());

    for (i, node) in g.nodes.iter().enumerate() {
        let stacked_out = analysis.status[i] == BatchStatus::Stacked;
        let val: BVal<'_, T> = match &node.kind {
            OpKind::Input(name) => {
                if stacked_out {
                    let parts: Vec<&Matrix<T>> = envs
                        .iter()
                        .map(|env| {
                            let m = env.expect(name);
                            assert_eq!(
                                (m.rows(), m.cols()),
                                (node.shape.rows, node.shape.cols),
                                "feed `{name}` has shape {}x{}, graph expects {}",
                                m.rows(),
                                m.cols(),
                                node.shape
                            );
                            m
                        })
                        .collect();
                    BVal::StackedRef(parts)
                } else {
                    let m = envs[0].expect(name);
                    assert_eq!(
                        (m.rows(), m.cols()),
                        (node.shape.rows, node.shape.cols),
                        "feed `{name}` has shape {}x{}, graph expects {}",
                        m.rows(),
                        m.cols(),
                        node.shape
                    );
                    BVal::SharedRef(m)
                }
            }
            OpKind::Identity(n) => BVal::SharedOwned(Matrix::identity(*n)),
            OpKind::MatMul { ta, tb, alpha_bits } => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap();
                let b = values[node.inputs[1].idx()].as_ref().unwrap();
                let alpha = T::from_f64(f64::from_bits(*alpha_bits));
                if stacked_out {
                    // Analysis guarantees: shared LHS, stacked RHS, tb = No.
                    BVal::StackedOwned(backend.matmul_batched(alpha, a.shared(), *ta, &b.parts()))
                } else {
                    BVal::SharedOwned(backend.matmul(alpha, a.shared(), *ta, b.shared(), *tb))
                }
            }
            // A stacked operand has no proven form (the analysis's
            // catch-all), so a `Syrk` reaching this sweep is shared.
            OpKind::Syrk { trans, alpha_bits } => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap();
                let alpha = T::from_f64(f64::from_bits(*alpha_bits));
                BVal::SharedOwned(backend.syrk(alpha, x.shared(), *trans))
            }
            OpKind::Add | OpKind::Sub => {
                let beta = if matches!(node.kind, OpKind::Add) { T::ONE } else { -T::ONE };
                let a = values[node.inputs[0].idx()].as_ref().unwrap();
                let b = values[node.inputs[1].idx()].as_ref().unwrap();
                if stacked_out {
                    let out: Vec<Matrix<T>> = a
                        .parts()
                        .iter()
                        .zip(b.parts())
                        .map(|(pa, pb)| backend.geadd(T::ONE, pa, beta, pb))
                        .collect();
                    BVal::StackedOwned(out)
                } else {
                    BVal::SharedOwned(backend.geadd(T::ONE, a.shared(), beta, b.shared()))
                }
            }
            OpKind::Scale(bits) => {
                let c = T::from_f64(f64::from_bits(*bits));
                let x = values[node.inputs[0].idx()].as_ref().unwrap();
                if stacked_out {
                    BVal::StackedOwned(x.parts().iter().map(|p| backend.scale(c, p)).collect())
                } else {
                    BVal::SharedOwned(backend.scale(c, x.shared()))
                }
            }
            OpKind::TridiagMatMul => {
                let t = values[node.inputs[0].idx()].as_ref().unwrap();
                let b = values[node.inputs[1].idx()].as_ref().unwrap();
                // The compact form is built once per batch either way.
                let compact = Tridiagonal::from_dense(t.shared());
                if stacked_out {
                    let out: Vec<Matrix<T>> =
                        b.parts().iter().map(|p| backend.tridiag_matmul(&compact, p)).collect();
                    BVal::StackedOwned(out)
                } else {
                    BVal::SharedOwned(backend.tridiag_matmul(&compact, b.shared()))
                }
            }
            // Analysis guarantees the remaining (data-movement) kinds are
            // fed only shared values: execute them once, as the solo
            // sweep would.
            OpKind::Transpose => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap();
                counters::record(Kernel::Transpose, 0);
                BVal::SharedOwned(x.shared().transpose())
            }
            OpKind::Elem(r, c) => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap();
                counters::record(Kernel::Slice, 0);
                BVal::SharedOwned(Matrix::filled(1, 1, x.shared()[(*r, *c)]))
            }
            OpKind::Row(r) => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap();
                counters::record(Kernel::Slice, 0);
                BVal::SharedOwned(Matrix::row_vector(x.shared().row(*r)))
            }
            OpKind::Col(c) => {
                let x = values[node.inputs[0].idx()].as_ref().unwrap();
                counters::record(Kernel::Slice, 0);
                BVal::SharedOwned(x.shared().col_matrix(*c))
            }
            OpKind::VCat => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap();
                let b = values[node.inputs[1].idx()].as_ref().unwrap();
                counters::record(Kernel::Concat, 0);
                BVal::SharedOwned(a.shared().vcat(b.shared()))
            }
            OpKind::HCat => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap();
                let b = values[node.inputs[1].idx()].as_ref().unwrap();
                counters::record(Kernel::Concat, 0);
                BVal::SharedOwned(a.shared().hcat(b.shared()))
            }
            OpKind::BlockDiag => {
                let a = values[node.inputs[0].idx()].as_ref().unwrap();
                let b = values[node.inputs[1].idx()].as_ref().unwrap();
                counters::record(Kernel::Concat, 0);
                BVal::SharedOwned(Matrix::block_diag(a.shared(), b.shared()))
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

    // Push one fetched value to every environment's output vector by
    // cloning: a shared value is replicated, stacked parts go to their
    // own environments.
    fn push_cloned<T: Scalar>(out: &mut [Vec<Matrix<T>>], val: &BVal<'_, T>) {
        match val {
            BVal::SharedRef(m) => {
                for per_env in out.iter_mut() {
                    per_env.push((*m).clone());
                }
            }
            BVal::SharedOwned(m) => {
                for per_env in out.iter_mut() {
                    per_env.push(m.clone());
                }
            }
            BVal::StackedRef(parts) => {
                for (per_env, part) in out.iter_mut().zip(parts) {
                    per_env.push((*part).clone());
                }
            }
            BVal::StackedOwned(parts) => {
                for (per_env, part) in out.iter_mut().zip(parts) {
                    per_env.push(part.clone());
                }
            }
        }
    }

    let mut out: Vec<Vec<Matrix<T>>> =
        (0..q).map(|_| Vec::with_capacity(g.outputs.len())).collect();
    for id in &g.outputs {
        let r = &mut remaining[id.idx()];
        *r -= 1;
        if *r == 0 {
            // Final fetch: move owned stacked parts out instead of cloning.
            match values[id.idx()].take().expect("output already freed") {
                BVal::StackedOwned(parts) => {
                    for (per_env, part) in out.iter_mut().zip(parts) {
                        per_env.push(part);
                    }
                }
                val => push_cloned(&mut out, &val),
            }
        } else {
            push_cloned(&mut out, values[id.idx()].as_ref().expect("output already freed"));
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

    const VARYING: [&str; 2] = ["x", "y"];

    fn is_varying(name: &str) -> bool {
        VARYING.contains(&name)
    }

    /// `B` environments sharing `H` (and `T`), each with its own `x`/`y`.
    fn envs(n: usize, q: usize, seed: u64) -> Vec<Env<f64>> {
        let mut shared = OperandGen::new(seed);
        let h = shared.matrix::<f64>(n, n);
        let t = shared.tridiagonal::<f64>(n).to_dense();
        (0..q)
            .map(|i| {
                let mut g = OperandGen::new(seed ^ (0xB00 + i as u64));
                Env::new()
                    .with("H", h.clone())
                    .with("T", t.clone())
                    .with("x", g.matrix(n, 1))
                    .with("y", g.matrix(n, 1))
            })
            .collect()
    }

    /// The solver-residual plan `Hᵀ(y − Hx)`, optimized (transposes fold
    /// into GEMM flags, so the varying path is pure RHS-stacking).
    fn residual_graph(n: usize) -> Graph {
        let mut gb = GraphBuilder::new();
        let h = gb.input("H", n, n);
        let x = gb.input("x", n, 1);
        let y = gb.input("y", n, 1);
        let hx = gb.matmul(h, x);
        let r = gb.sub(y, hx);
        let ht = gb.transpose(h);
        let out = gb.matmul(ht, r);
        let mut g = gb.finish(vec![out]);
        optimize(&mut g, &PassConfig::all());
        g
    }

    fn solo_all(g: &Graph, schedule: &Schedule, envs: &[&Env<f64>]) -> Vec<Vec<Matrix<f64>>> {
        envs.iter().map(|e| execute_scheduled_on(g, schedule, e, laab_backend::engine())).collect()
    }

    #[test]
    fn residual_plan_is_stackable_and_matches_solo() {
        // n = 80: A is past L1 at f64.
        let n = 80;
        let g = residual_graph(n);
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(analysis.stackable(), "residual plan must RHS-stack");
        let owned = envs(n, 8, 3);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
        let solo = solo_all(&g, &schedule, &refs);
        assert_eq!(batched.len(), 8);
        assert_eq!(batched, solo, "batched must be bitwise solo on the engine");
    }

    #[test]
    fn reference_backend_batched_is_bitwise_solo() {
        // The reference backend keeps the default per-item loop and every other
        // stacked op is per-part through identical entry points, so the
        // reference backend's batched sweep is bit-for-bit its solo sweep.
        let n = 10;
        let g = residual_graph(n);
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        let owned = envs(n, 5, 7);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let backend = laab_backend::registry::find("reference").unwrap().resolve::<f64>().unwrap();
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, backend);
        for (env, b) in refs.iter().zip(&batched) {
            let s = execute_scheduled_on(&g, &schedule, env, backend);
            assert_eq!(b, &s);
        }
    }

    #[test]
    fn gemm_free_plan_is_bitwise_on_every_backend() {
        // 2·(x − y) + x: adds, subs, scales only — per-part dispatch is
        // the identical kernel per element, so batched ≡ solo bitwise for
        // all backends, engine included.
        let n = 12;
        let mut gb = GraphBuilder::new();
        let x = gb.input("x", n, 1);
        let y = gb.input("y", n, 1);
        let d = gb.sub(x, y);
        let s = gb.scale(2.0, d);
        let out = gb.add(s, x);
        let g = gb.finish(vec![out]);
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(analysis.stackable());
        let owned = envs(n, 6, 11);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        for reg in laab_backend::registry::builtins() {
            let backend = reg.resolve::<f64>().unwrap();
            let batched = execute_batched_on(&g, &schedule, &analysis, &refs, backend);
            for (env, b) in refs.iter().zip(&batched) {
                assert_eq!(b, &execute_scheduled_on(&g, &schedule, env, backend), "{}", reg.name());
            }
        }
    }

    #[test]
    fn tridiag_plan_stacks_per_part() {
        let n = 14;
        let mut gb = GraphBuilder::new();
        let t = gb.input("T", n, n);
        let x = gb.input("x", n, 1);
        let out = gb.tridiag_matmul(t, x);
        let g = gb.finish(vec![out]);
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(analysis.stackable());
        let owned = envs(n, 4, 13);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
        for (env, b) in refs.iter().zip(&batched) {
            let s = execute_scheduled_on(&g, &schedule, env, laab_backend::engine());
            assert_eq!(b, &s, "structured per-part path must be bitwise");
        }
    }

    #[test]
    fn illegal_shapes_fall_back_bitwise() {
        // xᵀx (a varying Gram scalar): the optimized graph multiplies a
        // stacked operand on the left — no column-stacked form, so the
        // analysis refuses and execution falls back per environment.
        let n = 9;
        let mut gb = GraphBuilder::new();
        let x = gb.input("x", n, 1);
        let xt = gb.transpose(x);
        let out = gb.matmul(xt, x);
        let mut g = gb.finish(vec![out]);
        optimize(&mut g, &PassConfig::all());
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(!analysis.stackable(), "stacked LHS must be illegal");
        let owned = envs(n, 6, 17);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
        for (env, b) in refs.iter().zip(&batched) {
            let s = execute_scheduled_on(&g, &schedule, env, laab_backend::engine());
            assert_eq!(b, &s, "fallback must be bitwise-identical to solo");
        }
    }

    #[test]
    fn syrk_is_shared_or_illegal_never_stacked() {
        // (HᵀH)x: the Gram factor is shared, so its Syrk runs once inside
        // the stacked sweep and the plan still RHS-stacks on x.
        let n = 80;
        let mut gb = GraphBuilder::new();
        let h = gb.input("H", n, n);
        let x = gb.input("x", n, 1);
        let ht = gb.transpose(h);
        let hth = gb.matmul(ht, h);
        let out = gb.matmul(hth, x);
        let mut g = gb.finish(vec![out]);
        optimize(&mut g, &PassConfig::all());
        let plain = g.clone();
        assert_eq!(lower_syrk(&mut g), 1);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(analysis.stackable());
        let owned = envs(n, 4, 31);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let batched =
            execute_batched_on(&g, &Schedule::new(&g), &analysis, &refs, laab_backend::engine());
        let plain_batched = execute_batched_on(
            &plain,
            &Schedule::new(&plain),
            &BatchAnalysis::analyze(&plain, is_varying),
            &refs,
            laab_backend::engine(),
        );
        assert_eq!(batched, plain_batched, "a shared Syrk changes no bit of the stacked sweep");

        // xxᵀ of a varying x: a stacked operand has no proven form — the
        // per-environment fallback, bitwise solo.
        let mut gb = GraphBuilder::new();
        let x = gb.input("x", n, 1);
        let xt = gb.transpose(x);
        let out = gb.matmul(x, xt);
        let mut g = gb.finish(vec![out]);
        optimize(&mut g, &PassConfig::all());
        assert_eq!(lower_syrk(&mut g), 1);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(!analysis.stackable(), "Syrk of a stacked value must be illegal");
        let schedule = Schedule::new(&g);
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
        assert_eq!(batched, solo_all(&g, &schedule, &refs));
    }

    #[test]
    fn mixed_add_and_transposed_stacked_are_illegal() {
        let n = 6;
        // x + H (shared + stacked elementwise): illegal.
        let mut gb = GraphBuilder::new();
        let h = gb.input("H", n, 1); // n×1 shared here, name not varying
        let x = gb.input("x", n, 1);
        let s = gb.add(x, h);
        let g = gb.finish(vec![s]);
        assert!(!BatchAnalysis::analyze(&g, is_varying).stackable());

        // Transposing a stacked value: illegal.
        let mut gb = GraphBuilder::new();
        let x = gb.input("x", n, 1);
        let xt = gb.transpose(x);
        let g = gb.finish(vec![xt]);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(!analysis.stackable());
        assert_eq!(analysis.status(NodeId(0)), BatchStatus::Stacked);
    }

    #[test]
    fn all_shared_plans_do_not_stack() {
        // No varying input → batching would be result deduplication, not
        // batched serving; the analysis must refuse (fallback serves each
        // request honestly).
        let n = 8;
        let mut gb = GraphBuilder::new();
        let h = gb.input("H", n, n);
        let hh = gb.matmul(h, h);
        let g = gb.finish(vec![hh]);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(!analysis.stackable());
        assert_eq!(analysis.status(NodeId(1)), BatchStatus::Shared);
        assert_eq!(analysis.len(), 2);
        assert!(!analysis.is_empty());
        let schedule = Schedule::new(&g);
        let owned = envs(n, 3, 19);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
        let solo = solo_all(&g, &schedule, &refs);
        assert_eq!(batched, solo);
    }

    #[test]
    fn batch_of_one_takes_the_solo_path() {
        let n = 10;
        let g = residual_graph(n);
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        let owned = envs(n, 1, 23);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
        let solo = solo_all(&g, &schedule, &refs);
        assert_eq!(batched, solo, "a one-request batch is exactly a solo execution");
    }

    #[test]
    fn shared_outputs_and_multi_fetch() {
        // Fetch a shared value, a stacked value, and the stacked value
        // again: every environment sees its own copy, and repeated
        // fetches are equal.
        let n = 7;
        let mut gb = GraphBuilder::new();
        let h = gb.input("H", n, n);
        let x = gb.input("x", n, 1);
        let hx = gb.matmul(h, x);
        let g = gb.finish(vec![h, hx, hx]);
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        assert!(analysis.stackable());
        let owned = envs(n, 4, 29);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let batched = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
        for (env, b) in refs.iter().zip(&batched) {
            assert_eq!(b.len(), 3);
            assert_eq!(&b[0], env.expect("H"));
            assert_eq!(b[1], b[2]);
        }
    }

    #[test]
    #[should_panic(expected = "empty environment batch")]
    fn empty_batch_panics() {
        let g = residual_graph(4);
        let schedule = Schedule::new(&g);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        let refs: Vec<&Env<f64>> = Vec::new();
        let _ = execute_batched_on(&g, &schedule, &analysis, &refs, laab_backend::engine());
    }
}
