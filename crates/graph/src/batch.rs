//! Batch analysis: which nodes of a plan stack across a batch of requests.
//!
//! A serving system that coalesces same-signature requests holds one
//! compiled graph and `B` operand bindings that differ only in the
//! *varying* leaves (the request payload — e.g. the `x` in `HᵀH·x`); the
//! *shared* leaves (the model operands) are identical across the batch.
//! [`BatchAnalysis`] classifies every node as `Shared` (computed once) or
//! `Stacked` (`B` per-environment parts) and proves whether the whole
//! plan runs as one batched sweep
//! ([`execute_batched_on`](crate::execute_batched_on)). A node fed only
//! shared values is shared; a stacked operand is legal only here:
//!
//! * `Input` — `Stacked` when the caller declares the name varying.
//! * `MatMul` — `Shared · Stacked` with an untransposed right-hand side,
//!   the **RHS-stacking** case `op(A)·[B₀ | … | B_{B−1}]`: one multi-RHS
//!   call for all parts. A stacked *left* (or transposed) operand has no
//!   column-stacked form.
//! * `Add`/`Sub` — `Stacked ± Stacked`, per part; a mixed
//!   `Shared ± Stacked` would need a broadcast.
//! * `Scale` — per part, always.
//! * `TridiagMatMul` — `Shared` tridiagonal × `Stacked` dense, per part;
//!   not a varying tridiagonal operand.
//!
//! Transposing, slicing or concatenating a stacked value is illegal (pure
//! data movement has no batched form worth proving here), as is a `Syrk`
//! of one (`XᵀX` of a varying `X` multiplies a stacked value on the left,
//! like the `MatMul` it was lowered from). A plan with an illegal node
//! runs a batch one environment at a time, each the solo sweep, so it
//! costs a batching server nothing but the lost amortization.

use laab_kernels::Trans;

use crate::ir::{Graph, NodeId, OpKind};

/// How one node behaves across a batch of environments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// Output identical for every environment — computed once.
    Shared,
    /// Per-environment outputs, carried as `B` column-aligned parts.
    Stacked,
}

/// The status of a non-`Input` node of `kind` fed values of the
/// `inputs` statuses, or `None` when a stacked operand reaches it in a
/// position with no stacked form (the rules of the module docs).
pub(crate) fn stacked_form(kind: &OpKind, inputs: &[BatchStatus]) -> Option<BatchStatus> {
    use BatchStatus::{Shared, Stacked};
    match (kind, inputs) {
        _ if !inputs.contains(&Stacked) => Some(Shared),
        (OpKind::MatMul { tb: Trans::No, .. } | OpKind::TridiagMatMul, [Shared, Stacked])
        | (OpKind::Add | OpKind::Sub, [Stacked, Stacked])
        | (OpKind::Scale(_), _) => Some(Stacked),
        _ => None,
    }
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
            let s = match &node.kind {
                OpKind::Input(name) if is_varying(name) => {
                    has_varying = true;
                    BatchStatus::Stacked
                }
                kind => {
                    let inputs: Vec<BatchStatus> =
                        node.inputs.iter().map(|id| status[id.idx()]).collect();
                    stacked_form(kind, &inputs).unwrap_or_else(|| {
                        legal = false;
                        BatchStatus::Stacked
                    })
                }
            };
            status.push(s);
        }
        Self { status, stackable: legal && has_varying }
    }

    /// `true` when the whole plan executes in one stacked sweep;
    /// `false` sends batches down the per-environment solo sweep.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_batched_on, execute_scheduled_on, Schedule};
    use crate::ir::GraphBuilder;
    use crate::passes::{lower_syrk, optimize, PassConfig};
    use laab_backend::BackendScalar;
    use laab_dense::gen::OperandGen;
    use laab_dense::{Matrix, Scalar};
    use laab_expr::eval::Env;

    fn is_varying(name: &str) -> bool {
        name == "x" || name == "y"
    }

    /// `B` environments sharing `H` (and `T`), each with its own `x`/`y`.
    fn envs<T: Scalar>(n: usize, q: usize, seed: u64) -> Vec<Env<T>> {
        let mut shared = OperandGen::new(seed);
        let h = shared.matrix::<T>(n, n);
        let t = shared.tridiagonal::<T>(n).to_dense();
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

    /// Run `g` over `q` environments of side `n` as one batch on the
    /// engine, assert that each got its solo bits, and return the
    /// analysis that chose the path with the results.
    fn batched_is_solo(
        g: &Graph,
        n: usize,
        q: usize,
        seed: u64,
    ) -> (BatchAnalysis, Vec<Vec<Matrix<f64>>>) {
        let (schedule, analysis) = (Schedule::new(g), BatchAnalysis::analyze(g, is_varying));
        let owned = envs::<f64>(n, q, seed);
        let refs: Vec<&Env<f64>> = owned.iter().collect();
        let engine = laab_backend::engine();
        let batched = execute_batched_on(g, &schedule, &analysis, &refs, engine);
        let solo: Vec<_> =
            refs.iter().map(|e| execute_scheduled_on(g, &schedule, e, engine)).collect();
        assert_eq!(batched, solo, "batched must be bitwise solo");
        (analysis, batched)
    }

    #[test]
    fn residual_plan_is_stackable_and_matches_solo() {
        // n = 80: A is past L1 at f64.
        let n = 80;
        assert!(batched_is_solo(&residual_graph(n), n, 8, 3).0.stackable(), "must RHS-stack");
    }

    #[test]
    fn stolen_stacked_parts_are_the_solo_bits() {
        // y − H·x, H·x − y and 2·(H·x) + y, each over its own H·x: the
        // stacked product is uniquely owned, so the Sub (from either
        // side) or the Scale and then the Add reuse its parts in place.
        // One environment's x carries a NaN, an ±Inf or a subnormal,
        // which must reach that environment's results and no other.
        fn bits<T: Scalar>(out: &[Matrix<T>]) -> Vec<u64> {
            out.iter().flat_map(|m| m.as_slice().iter().map(|v| v.to_f64().to_bits())).collect()
        }
        fn check<T: BackendScalar>(subnormal: f64) {
            let n = 24;
            let mut gb = GraphBuilder::new();
            let (h, x, y) = (gb.input("H", n, n), gb.input("x", n, 1), gb.input("y", n, 1));
            let hx = [(); 3].map(|_| gb.matmul(h, x));
            let (d0, d1, s) = (gb.sub(y, hx[0]), gb.sub(hx[1], y), gb.scale(2.0, hx[2]));
            let sum = gb.add(s, y);
            let g = gb.finish(vec![d0, d1, sum]);
            let (schedule, analysis) = (Schedule::new(&g), BatchAnalysis::analyze(&g, is_varying));
            assert!(analysis.stackable());
            for q in [2, 3, 8] {
                let (clean, hit) = (envs::<T>(n, q, 41), q / 2);
                for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, subnormal] {
                    let mut envs = clean.clone();
                    let mut x = envs[hit].expect("x").clone();
                    x[(n / 3, 0)] = T::from_f64(poison);
                    envs[hit].insert("x", x);
                    let refs: Vec<&Env<T>> = envs.iter().collect();
                    for reg in laab_backend::registry::builtins() {
                        let backend = reg.resolve::<T>().expect("builtins support both dtypes");
                        let got = execute_batched_on(&g, &schedule, &analysis, &refs, backend);
                        for (k, got) in got.iter().enumerate() {
                            let at =
                                format!("{} {} q={q} env {k} {poison:e}", reg.name(), T::DTYPE);
                            let solo = execute_scheduled_on(&g, &schedule, refs[k], backend);
                            assert_eq!(bits(got), bits(&solo), "{at}: not the solo bits");
                            let clean = execute_scheduled_on(&g, &schedule, &clean[k], backend);
                            assert_eq!(bits(got) != bits(&clean), k == hit, "{at}: poison leaked");
                        }
                    }
                }
            }
        }
        check::<f64>(1e-310);
        check::<f32>(1e-40);
    }

    #[test]
    fn tridiag_plan_stacks_per_part() {
        let n = 14;
        let mut gb = GraphBuilder::new();
        let t = gb.input("T", n, n);
        let x = gb.input("x", n, 1);
        let out = gb.tridiag_matmul(t, x);
        let g = gb.finish(vec![out]);
        assert!(batched_is_solo(&g, n, 4, 13).0.stackable());
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
        assert!(!batched_is_solo(&g, n, 6, 17).0.stackable(), "stacked LHS must be illegal");
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
        let (_, plain) = batched_is_solo(&g, n, 4, 31);
        assert_eq!(lower_syrk(&mut g), 1);
        let (analysis, lowered) = batched_is_solo(&g, n, 4, 31);
        assert!(analysis.stackable());
        assert_eq!(lowered, plain, "a shared Syrk changes no bit of the stacked sweep");

        // xxᵀ of a varying x: a stacked operand has no proven form — the
        // per-environment fallback, bitwise solo.
        let mut gb = GraphBuilder::new();
        let x = gb.input("x", n, 1);
        let xt = gb.transpose(x);
        let out = gb.matmul(x, xt);
        let mut g = gb.finish(vec![out]);
        optimize(&mut g, &PassConfig::all());
        assert_eq!(lower_syrk(&mut g), 1);
        assert!(!batched_is_solo(&g, n, 4, 31).0.stackable(), "Syrk of a stacked value is illegal");
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
        let (analysis, _) = batched_is_solo(&g, n, 3, 19);
        assert!(!analysis.stackable());
        assert_eq!(analysis.status(NodeId(1)), BatchStatus::Shared);
        assert_eq!(analysis.len(), 2);
        assert!(!analysis.is_empty());
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
