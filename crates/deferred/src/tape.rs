//! The per-plan tape executor: append instead of execute, fuse at flush.
//!
//! [`execute_plan`] walks the graph in the same topological order as the
//! synchronous executor (`laab_graph::execute_scheduled_on`) and makes
//! the same structural decisions — including which ops run in-place by
//! stealing a uniquely-owned operand buffer — but kernel-backed nodes
//! are *queued* as [`DeferredOp`]s rather than run. Execution happens at
//! flush time, in append order, so the kernel inventory and its order
//! are exactly the synchronous sweep's; what the tape changes is **when**
//! kernels launch and **how many launches** they share.
//!
//! A flush fires for one of three reasons (pinned by unit tests):
//! capacity (the tape hit [`Tuning::capacity`]), barrier (a host
//! data-movement op needed a queued value), or materialize (an output
//! fetch needed one). Ops a plan queues but never materializes are
//! simply dropped — dead code elimination is laziness' freebie.
//!
//! ```text
//!   node sweep ──append──▶ tape ──flush──▶ fusion pass ──▶ groups
//!                           │                               │
//!                 capacity/barrier/materialize     one dispatch charge
//!                                                  per group, engine
//!                                                  kernels inside
//! ```

use std::time::Instant;

use laab_backend::{Backend, EngineBackend};
use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_expr::eval::Env;
use laab_graph::{Graph, NodeId, OpKind, Schedule};
use laab_kernels::counters::{self, Kernel};
use laab_kernels::Trans;

use crate::{dispatch_wait, stats_add, FlushReason, RunStats, Tuning};

/// Which operand buffer a queued op will steal for in-place execution —
/// decided at append time from the same reference counts the synchronous
/// executor's `take_unique` consults, so both executors run the identical
/// in-place/allocating kernel forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealSlot {
    /// Steal the first operand's buffer.
    A,
    /// Steal the second operand's buffer.
    B,
    /// Allocate a fresh output.
    None,
}

/// One queued, not-yet-executed kernel op on the tape.
#[derive(Debug, Clone, PartialEq)]
pub struct DeferredOp {
    /// The node whose value this op produces.
    pub out: NodeId,
    /// The kernel call it makes at flush time.
    pub kind: DeferredKind,
}

/// The kernel call a [`DeferredOp`] makes at flush time.
#[derive(Debug, Clone, PartialEq)]
pub enum DeferredKind {
    /// `α·op(a)·op(b)` — the RHS shape rides along so the fusion pass can
    /// check same-signature coalescibility without the graph in hand.
    MatMul {
        /// Left operand node.
        a: NodeId,
        /// Right operand node.
        b: NodeId,
        /// Transposition of `a`.
        ta: Trans,
        /// Transposition of `b`.
        tb: Trans,
        /// GEMM `alpha` (IEEE bits of an `f64`).
        alpha_bits: u64,
        /// Rows of the right operand.
        b_rows: usize,
        /// Columns of the right operand.
        b_cols: usize,
    },
    /// `α·op(x)·op(x)ᵀ` — a `Syrk` node. Launched as the GEMM it equals
    /// (the default [`Backend::syrk`]): one group, a `MatMul`'s charge.
    Syrk {
        /// Operand node.
        x: NodeId,
        /// Transposition of the left side.
        trans: Trans,
        /// `alpha` (IEEE bits of an `f64`).
        alpha_bits: u64,
    },
    /// Elementwise `a ± b` (`sub` selects the sign of `b`).
    AddSub {
        /// First operand node.
        a: NodeId,
        /// Second operand node.
        b: NodeId,
        /// `true` for subtraction.
        sub: bool,
        /// In-place form decided at append time.
        steal: StealSlot,
    },
    /// Scalar scaling `c·x`.
    Scale {
        /// Operand node.
        x: NodeId,
        /// The factor (IEEE bits of an `f64`).
        bits: u64,
        /// Whether the op runs in place on `x`'s buffer.
        steal: bool,
    },
    /// The structured tridiagonal product.
    TridiagMatMul {
        /// The dense tridiagonal operand node.
        t: NodeId,
        /// The right-hand-side node.
        b: NodeId,
    },
}

impl DeferredKind {
    fn inputs(&self) -> [NodeId; 2] {
        match *self {
            DeferredKind::MatMul { a, b, .. } => [a, b],
            DeferredKind::AddSub { a, b, .. } => [a, b],
            DeferredKind::Scale { x, .. } | DeferredKind::Syrk { x, .. } => [x, x],
            DeferredKind::TridiagMatMul { t, b } => [t, b],
        }
    }

    fn reads(&self, id: NodeId) -> bool {
        let [a, b] = self.inputs();
        a == id || b == id
    }
}

enum Val<'e, T: Scalar> {
    Ref(&'e Matrix<T>),
    Owned(Matrix<T>),
    /// Queued on the tape; materialized by the flush that executes its op.
    Pending,
}

impl<T: Scalar> Val<'_, T> {
    fn get(&self) -> &Matrix<T> {
        match self {
            Val::Ref(m) => m,
            Val::Owned(m) => m,
            Val::Pending => unreachable!("operand still queued at execution time"),
        }
    }
    fn into_owned(self) -> Matrix<T> {
        match self {
            Val::Ref(m) => m.clone(),
            Val::Owned(m) => m,
            Val::Pending => unreachable!("output still queued after materialize flush"),
        }
    }
}

/// Steal-decision mirror of the synchronous executor's `take_unique`: an
/// op may reuse an operand buffer when it is the only remaining consumer
/// and the value is an owned intermediate (not a borrowed feed).
fn stealable(g: &Graph, plan_remaining: &[u32], id: NodeId) -> bool {
    plan_remaining[id.idx()] == 1 && !matches!(g.nodes[id.idx()].kind, OpKind::Input(_))
}

/// Group-formation rule of the fusion pass: may `cand` ride the launch
/// the (non-empty) `group` already pays for?
///
/// Two ways in, mirroring the two batching granularities:
///
/// * **Epilogue** — an elementwise `Add`/`Sub`/`Scale` consuming a value
///   the group produces. The kernels and their order are untouched, so
///   grouping is bitwise-neutral; only the launch count changes.
/// * **Same-signature coalescing** — a `MatMul` sharing `(a, ta, alpha)`
///   with an untransposed, same-shape RHS while the group is still purely
///   such a run. These collapse into one multi-RHS launch, exactly the
///   within-request twin of what the serve admission window does across
///   requests (`Backend::matmul_batched` over a coalesced batch).
///
/// Everything else — a `MatMul` consuming a group value, a `Syrk`, a
/// `TridiagMatMul`, a non-matching signature — starts a new launch.
fn joins_group(group: &[DeferredOp], cand: &DeferredOp) -> bool {
    let in_group = |id: NodeId| group.iter().any(|op| op.out == id);
    match &cand.kind {
        DeferredKind::AddSub { a, b, .. } => in_group(*a) || in_group(*b),
        DeferredKind::Scale { x, .. } => in_group(*x),
        DeferredKind::MatMul { a, b, ta, tb, alpha_bits, b_rows, b_cols } => {
            *tb == Trans::No
                && !in_group(*a)
                && !in_group(*b)
                && group.iter().all(|op| match &op.kind {
                    DeferredKind::MatMul {
                        a: ga,
                        ta: gta,
                        tb: gtb,
                        alpha_bits: gab,
                        b_rows: gbr,
                        b_cols: gbc,
                        ..
                    } => {
                        ga == a
                            && gta == ta
                            && *gtb == Trans::No
                            && gab == alpha_bits
                            && gbr == b_rows
                            && gbc == b_cols
                    }
                    _ => false,
                })
        }
        DeferredKind::Syrk { .. } | DeferredKind::TridiagMatMul { .. } => false,
    }
}

struct TapeExec<'e, T: Scalar> {
    tuning: Tuning,
    stats: RunStats,
    /// Execution-time reference counts: decremented as ops actually run
    /// (at flush), driving the free-after-last-use sweep.
    exec_remaining: Vec<u32>,
    values: Vec<Option<Val<'e, T>>>,
    tape: Vec<DeferredOp>,
}

impl<'e, T: Scalar> TapeExec<'e, T> {
    fn value(&self, id: NodeId) -> &Matrix<T> {
        self.values[id.idx()].as_ref().expect("operand freed before its last use").get()
    }

    fn take_owned(&mut self, id: NodeId) -> Matrix<T> {
        debug_assert_eq!(
            self.exec_remaining[id.idx()],
            1,
            "a steal decided at append time must still be unique at flush time"
        );
        match self.values[id.idx()].take() {
            Some(Val::Owned(m)) => m,
            _ => unreachable!("steal target must be a live owned value"),
        }
    }

    /// Free operands whose last consumer has now run.
    fn release(&mut self, inputs: &[NodeId]) {
        for inp in inputs {
            let r = &mut self.exec_remaining[inp.idx()];
            *r -= 1;
            if *r == 0 {
                self.values[inp.idx()] = None;
            }
        }
    }

    fn flush(&mut self, reason: FlushReason) {
        if self.tape.is_empty() {
            return;
        }
        match reason {
            FlushReason::Capacity => self.stats.flush_capacity += 1,
            FlushReason::Materialize => self.stats.flush_materialize += 1,
            FlushReason::Barrier => self.stats.flush_barrier += 1,
        }
        self.stats.max_tape_len = self.stats.max_tape_len.max(self.tape.len() as u64);
        let ops = std::mem::take(&mut self.tape);
        let mut i = 0;
        while i < ops.len() {
            let mut end = i + 1;
            if self.tuning.fuse {
                while end < ops.len() && joins_group(&ops[i..end], &ops[end]) {
                    end += 1;
                }
            }
            self.execute_group(&ops[i..end]);
            i = end;
        }
    }

    /// Launch one dispatch group: pay the modeled launch latency once,
    /// then run the member kernels in append order.
    fn execute_group(&mut self, ops: &[DeferredOp]) {
        dispatch_wait(self.tuning.dispatch_ns);
        self.stats.groups += 1;
        self.stats.dispatch_ns += self.tuning.dispatch_ns;
        if ops.len() >= 2 {
            self.stats.fused_ops += ops.len() as u64;
        } else {
            self.stats.unfused_ops += 1;
        }

        // Leading same-signature matmul run (the only way a group holds
        // two matmuls is the coalescing rule, so the run is coalescible
        // by construction).
        let run =
            ops.iter().take_while(|op| matches!(op.kind, DeferredKind::MatMul { .. })).count();
        let coalesce = run >= 2;

        // Scale folding: a Scale that steals a non-coalesced in-group
        // GEMM's buffer — with no other reader in between — folds into
        // that GEMM's `alpha` and launches no kernel of its own (the
        // blocked driver's alpha slot is free). ULP-level drift, bound
        // documented in cross_backend_props.
        let mut alpha_fold = vec![1.0f64; ops.len()];
        let mut folded = vec![false; ops.len()];
        if !coalesce {
            for j in 1..ops.len() {
                if let DeferredKind::Scale { x, bits, steal: true } = ops[j].kind {
                    if let Some(k) = (0..j).find(|&k| ops[k].out == x) {
                        let is_mm = matches!(ops[k].kind, DeferredKind::MatMul { .. });
                        let quiet = ops[k + 1..j].iter().all(|op| !op.kind.reads(x));
                        if is_mm && quiet {
                            alpha_fold[k] = f64::from_bits(bits);
                            folded[j] = true;
                        }
                    }
                }
            }
        }

        let t0 = Instant::now();
        if coalesce {
            let (a_id, ta, alpha_bits) = match ops[0].kind {
                DeferredKind::MatMul { a, ta, alpha_bits, .. } => (a, ta, alpha_bits),
                _ => unreachable!("leading run holds matmuls only"),
            };
            let alpha = T::from_f64(f64::from_bits(alpha_bits));
            let results = {
                let a = self.value(a_id);
                let bs: Vec<&Matrix<T>> = ops[..run]
                    .iter()
                    .map(|op| match op.kind {
                        DeferredKind::MatMul { b, .. } => self.value(b),
                        _ => unreachable!("leading run holds matmuls only"),
                    })
                    .collect();
                EngineBackend.matmul_batched(alpha, a, ta, &bs)
            };
            for (op, m) in ops[..run].iter().zip(results) {
                self.values[op.out.idx()] = Some(Val::Owned(m));
                self.release(&op.kind.inputs());
            }
        }
        let rest = if coalesce { run } else { 0 };
        for (j, op) in ops.iter().enumerate().skip(rest) {
            self.execute_op(op, alpha_fold[j], folded[j]);
        }
        self.stats.compute_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Run one queued op through the engine kernels — the identical
    /// in-place/allocating forms the synchronous executor picks.
    fn execute_op(&mut self, op: &DeferredOp, fold: f64, folded: bool) {
        let val = match &op.kind {
            DeferredKind::MatMul { a, b, ta, tb, alpha_bits, .. } => {
                let alpha = T::from_f64(f64::from_bits(*alpha_bits) * fold);
                Val::Owned(laab_kernels::matmul_dispatch(
                    alpha,
                    self.value(*a),
                    *ta,
                    self.value(*b),
                    *tb,
                ))
            }
            DeferredKind::Syrk { x, trans, alpha_bits } => {
                let alpha = T::from_f64(f64::from_bits(*alpha_bits));
                let xv = self.value(*x);
                Val::Owned(laab_kernels::matmul_dispatch(alpha, xv, *trans, xv, trans.flip()))
            }
            DeferredKind::AddSub { a, b, sub, steal } => {
                let beta = if *sub { -T::ONE } else { T::ONE };
                match steal {
                    StealSlot::A => {
                        let mut am = self.take_owned(*a);
                        laab_kernels::geadd_assign(T::ONE, &mut am, beta, self.value(*b));
                        Val::Owned(am)
                    }
                    StealSlot::B => {
                        // a ± b accumulated into b's buffer: b := β·b + a.
                        let mut bm = self.take_owned(*b);
                        laab_kernels::geadd_assign(beta, &mut bm, T::ONE, self.value(*a));
                        Val::Owned(bm)
                    }
                    StealSlot::None => Val::Owned(laab_kernels::geadd(
                        T::ONE,
                        self.value(*a),
                        beta,
                        self.value(*b),
                    )),
                }
            }
            DeferredKind::Scale { x, bits, steal } => {
                if folded {
                    // Already applied inside the folded GEMM's alpha;
                    // this op just forwards the buffer.
                    Val::Owned(self.take_owned(*x))
                } else {
                    let c = T::from_f64(f64::from_bits(*bits));
                    if *steal {
                        let mut xm = self.take_owned(*x);
                        laab_kernels::gescale_assign(c, &mut xm);
                        Val::Owned(xm)
                    } else {
                        // The allocating α·x + 0·x form (see Backend::scale).
                        let xv = self.value(*x);
                        Val::Owned(laab_kernels::geadd(c, xv, T::ZERO, xv))
                    }
                }
            }
            DeferredKind::TridiagMatMul { t, b } => {
                let compact = Tridiagonal::from_dense(self.value(*t));
                Val::Owned(laab_kernels::tridiag_matmul(&compact, self.value(*b)))
            }
        };
        self.values[op.out.idx()] = Some(val);
        // The unary kinds have one operand edge; inputs() doubles it, so
        // release exactly the node's real edge count.
        match op.kind {
            DeferredKind::Scale { x, .. } | DeferredKind::Syrk { x, .. } => self.release(&[x]),
            _ => self.release(&op.kind.inputs()),
        }
    }
}

/// Execute a compiled plan's graph through the deferred tape: kernel
/// nodes queue, flushes fuse and launch, host data movement stays
/// synchronous executor-level work.
///
/// The sweep, steal decisions, and free order mirror
/// [`laab_graph::execute_scheduled_on`] exactly; with fusion off (or when
/// fusion only *groups* ops) the results are bitwise-identical to the
/// `engine` backend's, and so are same-LHS GEMM coalescings. The one
/// value-changing fusion rule — scale folding — carries a documented ULP
/// bound.
///
/// # Panics
/// Whatever the synchronous executor panics on: missing or mis-shaped
/// feeds, a schedule built for a different graph.
pub fn execute_plan<'e, T: Scalar>(
    g: &Graph,
    schedule: &Schedule,
    env: &'e Env<T>,
) -> Vec<Matrix<T>> {
    assert_eq!(
        schedule.len(),
        g.len(),
        "schedule was built for a graph with {} nodes, this graph has {}",
        schedule.len(),
        g.len()
    );
    debug_assert_eq!(g.check_topology(), Ok(()));
    let counts = schedule.use_counts().to_vec();
    // Append-time counts, decremented ahead of execution in node order:
    // these drive the steal decisions, and they evolve exactly as the
    // synchronous executor's counts do at the equivalent point of its
    // sweep (execution order preserves append order).
    let mut plan_remaining = counts.clone();
    let mut ex = TapeExec {
        tuning: crate::current_tuning(),
        stats: RunStats::default(),
        exec_remaining: counts,
        values: Vec::with_capacity(g.len()),
        tape: Vec::new(),
    };
    let capacity = ex.tuning.capacity.max(1);

    for (i, node) in g.nodes.iter().enumerate() {
        let id = NodeId(i as u32);
        let mut queued = true;
        match &node.kind {
            OpKind::MatMul { ta, tb, alpha_bits } => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                let bs = g.nodes[b.idx()].shape;
                ex.tape.push(DeferredOp {
                    out: id,
                    kind: DeferredKind::MatMul {
                        a,
                        b,
                        ta: *ta,
                        tb: *tb,
                        alpha_bits: *alpha_bits,
                        b_rows: bs.rows,
                        b_cols: bs.cols,
                    },
                });
                ex.values.push(Some(Val::Pending));
            }
            OpKind::Syrk { trans, alpha_bits } => {
                let kind = DeferredKind::Syrk {
                    x: node.inputs[0],
                    trans: *trans,
                    alpha_bits: *alpha_bits,
                };
                ex.tape.push(DeferredOp { out: id, kind });
                ex.values.push(Some(Val::Pending));
            }
            OpKind::Add | OpKind::Sub => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                let steal = if stealable(g, &plan_remaining, a) {
                    StealSlot::A
                } else if stealable(g, &plan_remaining, b) {
                    StealSlot::B
                } else {
                    StealSlot::None
                };
                let sub = matches!(node.kind, OpKind::Sub);
                ex.tape
                    .push(DeferredOp { out: id, kind: DeferredKind::AddSub { a, b, sub, steal } });
                ex.values.push(Some(Val::Pending));
            }
            OpKind::Scale(bits) => {
                let x = node.inputs[0];
                let steal = stealable(g, &plan_remaining, x);
                ex.tape.push(DeferredOp {
                    out: id,
                    kind: DeferredKind::Scale { x, bits: *bits, steal },
                });
                ex.values.push(Some(Val::Pending));
            }
            OpKind::TridiagMatMul => {
                let (t, b) = (node.inputs[0], node.inputs[1]);
                ex.tape.push(DeferredOp { out: id, kind: DeferredKind::TridiagMatMul { t, b } });
                ex.values.push(Some(Val::Pending));
            }
            // Everything below is synchronous: feeds, constants, and host
            // data movement. A host op that needs a queued value drains
            // the tape first — the barrier flush.
            kind => {
                queued = false;
                if node.inputs.iter().any(|i| matches!(ex.values[i.idx()], Some(Val::Pending))) {
                    ex.flush(FlushReason::Barrier);
                }
                let val: Val<'e, T> = match kind {
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
                    OpKind::Transpose => {
                        counters::record(Kernel::Transpose, 0);
                        Val::Owned(ex.value(node.inputs[0]).transpose())
                    }
                    OpKind::Elem(r, c) => {
                        counters::record(Kernel::Slice, 0);
                        Val::Owned(Matrix::filled(1, 1, ex.value(node.inputs[0])[(*r, *c)]))
                    }
                    OpKind::Row(r) => {
                        counters::record(Kernel::Slice, 0);
                        Val::Owned(Matrix::row_vector(ex.value(node.inputs[0]).row(*r)))
                    }
                    OpKind::Col(c) => {
                        counters::record(Kernel::Slice, 0);
                        Val::Owned(ex.value(node.inputs[0]).col_matrix(*c))
                    }
                    OpKind::VCat => {
                        counters::record(Kernel::Concat, 0);
                        Val::Owned(ex.value(node.inputs[0]).vcat(ex.value(node.inputs[1])))
                    }
                    OpKind::HCat => {
                        counters::record(Kernel::Concat, 0);
                        Val::Owned(ex.value(node.inputs[0]).hcat(ex.value(node.inputs[1])))
                    }
                    OpKind::BlockDiag => {
                        counters::record(Kernel::Concat, 0);
                        Val::Owned(Matrix::block_diag(
                            ex.value(node.inputs[0]),
                            ex.value(node.inputs[1]),
                        ))
                    }
                    _ => unreachable!("kernel kinds handled above"),
                };
                ex.values.push(Some(val));
            }
        }

        for inp in &node.inputs {
            plan_remaining[inp.idx()] -= 1;
        }
        if queued {
            ex.stats.tape_ops += 1;
            if ex.tape.len() >= capacity {
                ex.flush(FlushReason::Capacity);
            }
        } else {
            // Ran eagerly: its operands' last use may be now.
            let inputs = node.inputs.clone();
            ex.release(&inputs);
        }
    }

    // Output fetch is what forces the final flush; queued ops no output
    // (transitively) needs were never launched — laziness doubles as
    // dead-code elimination.
    if g.outputs.iter().any(|id| matches!(ex.values[id.idx()], Some(Val::Pending))) {
        ex.flush(FlushReason::Materialize);
    }
    let mut out = Vec::with_capacity(g.outputs.len());
    for id in &g.outputs {
        let r = &mut ex.exec_remaining[id.idx()];
        *r -= 1;
        if *r == 0 {
            out.push(ex.values[id.idx()].take().expect("output already freed").into_owned());
        } else {
            out.push(ex.values[id.idx()].as_ref().expect("output already freed").get().clone());
        }
    }
    stats_add(|s| s.merge(&ex.stats));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{take_run_stats, with_tuning};
    use laab_dense::gen::OperandGen;
    use laab_graph::{execute_scheduled_on, optimize, GraphBuilder, PassConfig};

    fn quiet() -> Tuning {
        // Zero launch latency keeps the unit suite fast; accounting is
        // still exercised (groups/ops), just not the spin.
        Tuning { dispatch_ns: 0, capacity: 32, fuse: true }
    }

    fn engine_run(g: &Graph, env: &Env<f64>) -> Vec<Matrix<f64>> {
        let schedule = Schedule::new(g);
        execute_scheduled_on(g, &schedule, env, laab_backend::engine::<f64>())
    }

    /// Hᵀ(y − Hx) — the SolveResidual shape: GEMM, Sub epilogue, GEMM.
    fn solve_residual(n: usize) -> Graph {
        let mut gb = GraphBuilder::new();
        let h = gb.input("H", n, n);
        let x = gb.input("x", n, 1);
        let y = gb.input("y", n, 1);
        let hx = gb.matmul(h, x);
        let d = gb.sub(y, hx);
        let ht = gb.transpose(h);
        let r = gb.matmul(ht, d);
        let mut g = gb.finish(vec![r]);
        optimize(&mut g, &PassConfig::all());
        g
    }

    fn env3(n: usize, seed: u64) -> Env<f64> {
        let mut og = OperandGen::new(seed);
        Env::new().with("H", og.matrix(n, n)).with("x", og.matrix(n, 1)).with("y", og.matrix(n, 1))
    }

    #[test]
    fn gemm_epilogue_chain_fuses_and_stays_bitwise() {
        let n = 24;
        let g = solve_residual(n);
        let env = env3(n, 42);
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        // Grouping reorders nothing: bitwise the engine's sweep.
        assert_eq!(got, engine_run(&g, &env));
        // GEMM+Sub share a launch; the second GEMM (consuming the
        // group's value) pays its own.
        assert_eq!(s.tape_ops, 3);
        assert_eq!(s.groups, 2, "fused chain collapsed three ops into two launches");
        assert_eq!((s.fused_ops, s.unfused_ops), (2, 1));
        assert_eq!(s.flush_materialize, 1);
        assert_eq!((s.flush_capacity, s.flush_barrier), (0, 0));
        assert_eq!(s.max_tape_len, 3);
    }

    #[test]
    fn fusion_off_pays_one_launch_per_op_and_stays_bitwise() {
        let n = 16;
        let g = solve_residual(n);
        let env = env3(n, 7);
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got =
            with_tuning(Tuning { fuse: false, ..quiet() }, || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        assert_eq!(got, engine_run(&g, &env));
        assert_eq!(s.groups, 3, "unfused: every op is its own launch");
        assert_eq!((s.fused_ops, s.unfused_ops), (0, 3));
    }

    #[test]
    fn dispatch_is_charged_per_group_deterministically() {
        let n = 12;
        let g = solve_residual(n);
        let env = env3(n, 9);
        let schedule = Schedule::new(&g);
        let tuning = Tuning { dispatch_ns: 20_000, capacity: 32, fuse: true };
        let _ = take_run_stats();
        let t0 = Instant::now();
        let _ = with_tuning(tuning, || execute_plan(&g, &schedule, &env));
        let wall = t0.elapsed().as_nanos() as u64;
        let s = take_run_stats();
        assert_eq!(s.dispatch_ns, s.groups * tuning.dispatch_ns, "groups x configured, exactly");
        assert!(wall >= s.dispatch_ns, "the launch charge is real wall-clock, not bookkeeping");
    }

    #[test]
    fn same_lhs_gemms_coalesce_into_one_launch() {
        // A·B + A·C — the Distributive family: two same-LHS GEMMs and an
        // Add epilogue collapse into a single launch.
        let n = 80;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let c = gb.input("C", n, n);
        let ab = gb.matmul(a, b);
        let ac = gb.matmul(a, c);
        let sum = gb.add(ab, ac);
        let mut g = gb.finish(vec![sum]);
        optimize(&mut g, &PassConfig::all());
        let mut og = OperandGen::new(3);
        let env = Env::<f64>::new()
            .with("A", og.matrix(n, n))
            .with("B", og.matrix(n, n))
            .with("C", og.matrix(n, n));
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        assert_eq!(s.groups, 1, "two GEMMs + epilogue, one launch");
        assert_eq!((s.fused_ops, s.unfused_ops), (3, 0));
        // Coalescing runs the engine's batched product: its solo product
        // per right-hand side, so the solo sweep's bits.
        assert_eq!(got, engine_run(&g, &env), "coalesced GEMMs must be bitwise solo");
    }

    #[test]
    fn syrk_launches_like_the_matmul_it_replaced() {
        // SᵀS over S = AᵀB, with and without the lowering: same launches,
        // same accounting, same bits — the tape runs a Syrk as its GEMM.
        let n = 24;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let at = gb.transpose(a);
        let s = gb.matmul(at, b);
        let st = gb.transpose(s);
        let out = gb.matmul(st, s);
        let mut plain = gb.finish(vec![out]);
        optimize(&mut plain, &PassConfig::all());
        let mut lowered = plain.clone();
        assert_eq!(laab_graph::passes::lower_syrk(&mut lowered), 1);
        let mut og = OperandGen::new(37);
        let env = Env::<f64>::new().with("A", og.matrix(n, n)).with("B", og.matrix(n, n));
        let run = |g: &Graph| {
            let schedule = Schedule::new(g);
            let _ = take_run_stats();
            let out = with_tuning(quiet(), || execute_plan(g, &schedule, &env));
            let s = take_run_stats();
            (out, (s.tape_ops, s.groups, s.fused_ops, s.unfused_ops, s.flushes()))
        };
        let (want, want_stats) = run(&plain);
        let (got, got_stats) = run(&lowered);
        assert_eq!(got, want);
        assert_eq!(got, engine_run(&lowered, &env), "and bitwise the engine's own Syrk");
        assert_eq!(got_stats, want_stats);
        assert_eq!(got_stats, (2, 2, 0, 2, 1));
    }

    #[test]
    fn scale_steal_folds_into_gemm_alpha() {
        // Unoptimized graph, so the Scale survives to the tape (the pass
        // pipeline would fold it at compile time — at flush time the
        // deferred backend does the same thing later).
        let n = 20;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let ab = gb.matmul(a, b);
        let s = gb.scale(2.5, ab);
        let g = gb.finish(vec![s]);
        let mut og = OperandGen::new(5);
        let env = Env::<f64>::new().with("A", og.matrix(n, n)).with("B", og.matrix(n, n));
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let st = take_run_stats();
        assert_eq!(st.groups, 1, "GEMM+Scale is one launch");
        assert_eq!((st.fused_ops, st.unfused_ops), (2, 0));
        let want = engine_run(&g, &env);
        assert!(got[0].approx_eq(&want[0], 1e-12), "alpha folding is ULP-level only");
        // Fusion off: the same graph pays two launches and is bitwise.
        let _ = take_run_stats();
        let unfused =
            with_tuning(Tuning { fuse: false, ..quiet() }, || execute_plan(&g, &schedule, &env));
        assert_eq!(take_run_stats().groups, 2);
        assert_eq!(unfused, want);
    }

    #[test]
    fn flush_reasons_are_pinned() {
        let mut og = OperandGen::new(11);
        let n = 12;

        // Capacity: a 4-GEMM chain over a 2-op tape flushes twice on
        // capacity and needs no materialize flush at the end.
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let mut acc = a;
        for _ in 0..4 {
            acc = gb.matmul(acc, b);
        }
        let g = gb.finish(vec![acc]);
        let env = Env::<f64>::new().with("A", og.matrix(n, n)).with("B", og.matrix(n, n));
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got =
            with_tuning(Tuning { capacity: 2, ..quiet() }, || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        assert_eq!(got, engine_run(&g, &env));
        assert_eq!((s.flush_capacity, s.flush_barrier, s.flush_materialize), (2, 0, 0));
        assert_eq!(s.max_tape_len, 2);

        // Barrier: a host op (Elem) over a queued GEMM drains the tape;
        // the output is host-produced, so again no materialize flush.
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let ab = gb.matmul(a, b);
        let e = gb.elem(ab, 0, 0);
        let g = gb.finish(vec![e]);
        let env = Env::<f64>::new().with("A", og.matrix(n, n)).with("B", og.matrix(n, n));
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        assert_eq!(got, engine_run(&g, &env));
        assert_eq!((s.flush_capacity, s.flush_barrier, s.flush_materialize), (0, 1, 0));

        // Materialize: a lone queued GEMM flushes only when fetched.
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let ab = gb.matmul(a, b);
        let g = gb.finish(vec![ab]);
        let env = Env::<f64>::new().with("A", og.matrix(n, n)).with("B", og.matrix(n, n));
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        assert_eq!(got, engine_run(&g, &env));
        assert_eq!((s.flush_capacity, s.flush_barrier, s.flush_materialize), (0, 0, 1));
    }

    #[test]
    fn unfetched_ops_are_never_launched() {
        // A queued GEMM nothing fetches is dropped at the end of the
        // sweep: lazy evaluation's free dead-code elimination.
        let n = 8;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let _dead = gb.matmul(a, b);
        let g = gb.finish(vec![a]);
        let mut og = OperandGen::new(13);
        let am = og.matrix::<f64>(n, n);
        let env = Env::new().with("A", am.clone()).with("B", og.matrix(n, n));
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        assert_eq!(got[0], am);
        assert_eq!(s.tape_ops, 1, "the dead GEMM was queued");
        assert_eq!(s.groups, 0, "but never launched");
        assert_eq!(s.flushes(), 0);
    }

    #[test]
    fn tape_is_deterministic_across_thread_counts() {
        let n = 160;
        let g = solve_residual(n);
        let env = env3(n, 21);
        let schedule = Schedule::new(&g);
        let prev = laab_kernels::num_threads();
        let run = |threads| {
            laab_kernels::set_num_threads(threads);
            let _ = take_run_stats();
            let out = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
            (out, take_run_stats())
        };
        let (one, s1) = run(1);
        let (four, s4) = run(4);
        laab_kernels::set_num_threads(prev);
        assert_eq!(one, four, "tape execution is bit-identical across thread counts");
        // Structural accounting is thread-count-independent too (only
        // compute_ns, which is wall time, may differ).
        assert_eq!(
            (s1.groups, s1.fused_ops, s1.unfused_ops, s1.tape_ops, s1.flushes()),
            (s4.groups, s4.fused_ops, s4.unfused_ops, s4.tape_ops, s4.flushes())
        );
    }

    #[test]
    fn f32_plans_execute_too() {
        let n = 24;
        let g = solve_residual(n);
        let mut og = OperandGen::new(29);
        let env = Env::<f32>::new()
            .with("H", og.matrix(n, n))
            .with("x", og.matrix(n, 1))
            .with("y", og.matrix(n, 1));
        let schedule = Schedule::new(&g);
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let want = execute_scheduled_on(&g, &schedule, &env, laab_backend::engine::<f32>());
        assert_eq!(got, want, "f32 grouping is bitwise as well");
        let _ = take_run_stats();
    }

    #[test]
    fn host_heavy_graphs_interleave_barriers_correctly() {
        // vcat(Hx, y) then a GEMM on the concatenation: barrier mid-sweep,
        // then more queued work materialized at the end.
        let n = 10;
        let mut gb = GraphBuilder::new();
        let h = gb.input("H", n, n);
        let x = gb.input("x", n, 1);
        let y = gb.input("y", n, 1);
        let hx = gb.matmul(h, x);
        let cat = gb.vcat(hx, y);
        let w = gb.input("W", n, 2 * n);
        let r = gb.matmul(w, cat);
        let g = gb.finish(vec![r]);
        let mut og = OperandGen::new(31);
        let env = Env::<f64>::new()
            .with("H", og.matrix(n, n))
            .with("x", og.matrix(n, 1))
            .with("y", og.matrix(n, 1))
            .with("W", og.matrix(n, 2 * n));
        let schedule = Schedule::new(&g);
        let _ = take_run_stats();
        let got = with_tuning(quiet(), || execute_plan(&g, &schedule, &env));
        let s = take_run_stats();
        assert_eq!(got, engine_run(&g, &env));
        assert_eq!((s.flush_barrier, s.flush_materialize), (1, 1));
    }
}
