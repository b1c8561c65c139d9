//! # laab-deferred — the lazy, fusing accelerator-model backend
//!
//! The three synchronous backends (`engine`/`seed`/`reference`) all
//! execute a node the moment the executor reaches it. Real accelerator
//! runtimes do not: dispatch is *deferred* — ops queue on a tape, and a
//! flush launches whole groups at once, paying one kernel-launch latency
//! per **group** rather than per op. In that regime fusion is the whole
//! game: every op a flush can merge into an already-paid launch is a
//! dispatch saved, which is exactly the overhead TF/PyTorch eager mode
//! cannot recover and graph mode can (the source paper's Sec. III gap,
//! magnified by accelerator launch costs).
//!
//! This crate registers a fourth backend, `deferred`, that models the
//! regime explicitly:
//!
//! * [`execute_plan`] — the whole-plan tape executor. Kernel-backed nodes
//!   do not run; they append [`DeferredOp`]s to a per-plan tape. A flush
//!   — triggered by output materialization, tape capacity, or a barrier
//!   (a host op that needs a queued value) — runs a fusion pass over the
//!   queued ops, then executes the resulting groups on the live engine
//!   kernels, charging one modeled dispatch latency per group.
//! * [`DeferredBackend`] — the same cost model behind the per-node
//!   [`Backend`] trait, which is what the *batched* graph executor
//!   dispatches. Its [`Backend::matmul_batched`] coalesces a whole
//!   admission window into one dispatch group (fusion on) or pays one
//!   launch per request (fusion off).
//!
//! The two layers are deliberately the same mechanism at two
//! granularities: the flush queue coalesces ops *within* one request the
//! way the serve admission window coalesces requests *across* the wire —
//! both turn q queued same-signature executions into one launch, and
//! both fall back to per-item execution when the signatures differ. See
//! the fusion rules on [`execute_plan`].
//!
//! ## What fusion changes, numerically
//!
//! Grouping alone never changes a bit: the fused sweep runs the identical
//! engine kernels in the identical order, it just charges fewer launches.
//! Same-LHS GEMM coalescing runs through the engine's batched product,
//! which is its solo product per right-hand side, so it is bitwise too.
//! One rule actually alters a kernel and carries a documented ULP bound:
//! scale-folding (a `Scale` stealing an in-group GEMM folds into the GEMM
//! `alpha`).

#![deny(missing_docs)]

mod tape;

use std::cell::Cell;
use std::time::Instant;

use laab_backend::{registry, Backend, BackendId, Registration};
use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_kernels::Trans;

pub use tape::{execute_plan, DeferredOp};

/// The registry name of the deferred backend.
pub const BACKEND_NAME: &str = "deferred";

/// Knobs of the accelerator cost model, resolved per execution via
/// [`current_tuning`] (a scoped [`with_tuning`] override, else the
/// defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Modeled kernel-launch latency, charged once per *flush group* (not
    /// per op). The charge is a real busy-wait so fusion wins show up in
    /// wall-clock, and it is accounted deterministically:
    /// `dispatch_ns == groups × this`.
    pub dispatch_ns: u64,
    /// Tape length that forces a [`FlushReason::Capacity`] flush.
    pub capacity: usize,
    /// Whether the flush pass fuses at all. Off, every op is its own
    /// dispatch group (the eager-accelerator strawman the A/B measures
    /// against); values stay bitwise-identical to `engine`.
    pub fuse: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        // 5 µs is a deliberately small constant on the low end of real
        // measured GPU launch latencies — large enough that fusing a
        // handful of ops is visible in wall-clock, small enough that a
        // smoke-sized run stays fast.
        Tuning { dispatch_ns: 5_000, capacity: 32, fuse: true }
    }
}

/// Why the tape flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The tape reached [`Tuning::capacity`].
    Capacity,
    /// An output fetch needed a queued value.
    Materialize,
    /// A host (data-movement) op needed a queued value before the sweep
    /// could continue.
    Barrier,
}

/// Per-execution accounting of the deferred cost model, accumulated into
/// a thread-local and drained with [`take_run_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Ops that went through the tape (or the per-node trait surface).
    pub tape_ops: u64,
    /// Longest tape observed at a flush.
    pub max_tape_len: u64,
    /// Flushes forced by tape capacity.
    pub flush_capacity: u64,
    /// Flushes forced by output materialization.
    pub flush_materialize: u64,
    /// Flushes forced by a host-op barrier.
    pub flush_barrier: u64,
    /// Dispatch groups launched (each paid one [`Tuning::dispatch_ns`]).
    pub groups: u64,
    /// Ops that shared a launch with at least one other op (or folded
    /// away entirely).
    pub fused_ops: u64,
    /// Ops that paid a launch of their own.
    pub unfused_ops: u64,
    /// Modeled launch time charged, exactly `groups ×` the configured
    /// [`Tuning::dispatch_ns`].
    pub dispatch_ns: u64,
    /// Measured wall time inside the engine kernels.
    pub compute_ns: u64,
}

impl RunStats {
    /// Total flushes across all three reasons.
    pub fn flushes(&self) -> u64 {
        self.flush_capacity + self.flush_materialize + self.flush_barrier
    }

    /// Fold another run into this one (the serve harness aggregates per
    /// family this way; `max_tape_len` takes the max, everything else
    /// sums).
    pub fn merge(&mut self, o: &RunStats) {
        self.tape_ops += o.tape_ops;
        self.max_tape_len = self.max_tape_len.max(o.max_tape_len);
        self.flush_capacity += o.flush_capacity;
        self.flush_materialize += o.flush_materialize;
        self.flush_barrier += o.flush_barrier;
        self.groups += o.groups;
        self.fused_ops += o.fused_ops;
        self.unfused_ops += o.unfused_ops;
        self.dispatch_ns += o.dispatch_ns;
        self.compute_ns += o.compute_ns;
    }
}

thread_local! {
    static TUNING_OVERRIDE: Cell<Option<Tuning>> = const { Cell::new(None) };
    static RUN_STATS: Cell<RunStats> = const { Cell::new(RunStats::default_const()) };
}

impl RunStats {
    const fn default_const() -> RunStats {
        RunStats {
            tape_ops: 0,
            max_tape_len: 0,
            flush_capacity: 0,
            flush_materialize: 0,
            flush_barrier: 0,
            groups: 0,
            fused_ops: 0,
            unfused_ops: 0,
            dispatch_ns: 0,
            compute_ns: 0,
        }
    }
}

/// The tuning the next deferred execution on this thread will use: the
/// innermost [`with_tuning`] scope, or [`Tuning::default`].
pub fn current_tuning() -> Tuning {
    TUNING_OVERRIDE.with(|t| t.get()).unwrap_or_default()
}

/// Run `f` with `tuning` as this thread's deferred cost model. Scoped and
/// re-entrant; the previous override is restored on exit. Thread-local on
/// purpose: the serve harness executes interleaved fused/unfused legs on
/// worker threads, and a process-global knob would race.
pub fn with_tuning<R>(tuning: Tuning, f: impl FnOnce() -> R) -> R {
    let prev = TUNING_OVERRIDE.with(|t| t.replace(Some(tuning)));
    struct Restore(Option<Tuning>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TUNING_OVERRIDE.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Drain this thread's accumulated [`RunStats`] (and reset them to zero).
/// Deferred executions are synchronous on the calling thread, so calling
/// this right after an execution observes exactly that execution (plus
/// anything un-drained before it).
pub fn take_run_stats() -> RunStats {
    RUN_STATS.with(|s| s.replace(RunStats::default()))
}

pub(crate) fn stats_add(f: impl FnOnce(&mut RunStats)) {
    RUN_STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// Busy-wait for the modeled launch latency. A sleep would be at the
/// mercy of the scheduler's wake-up granularity; a calibrated spin keeps
/// the charge deterministic enough that fused-vs-unfused wall-clock
/// deltas are attributable.
pub(crate) fn dispatch_wait(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Account one dispatch group around a kernel closure: spin for the
/// modeled launch latency, time the kernel, book both halves.
pub(crate) fn dispatched_group<R>(
    tuning: Tuning,
    ops: u64,
    fused: bool,
    f: impl FnOnce() -> R,
) -> R {
    dispatch_wait(tuning.dispatch_ns);
    let t0 = Instant::now();
    let r = f();
    let compute = t0.elapsed().as_nanos() as u64;
    stats_add(|s| {
        s.groups += 1;
        s.dispatch_ns += tuning.dispatch_ns;
        s.compute_ns += compute;
        if fused {
            s.fused_ops += ops;
        } else {
            s.unfused_ops += ops;
        }
    });
    r
}

/// The deferred backend's per-node [`Backend`] surface.
///
/// This is what the registry hands out and what the *batched* graph
/// executor dispatches: each call is one engine kernel behind one modeled
/// launch. The one place the per-node surface can fuse is
/// [`Backend::matmul_batched`] — the admission window's multi-RHS hook —
/// where fusion collapses the whole window into a single dispatch group
/// (the cross-request granularity of the same mechanism
/// [`execute_plan`]'s flush pass applies within a request). With fusion
/// off every right-hand side pays its own launch and lowers through the
/// engine's solo dispatch, bitwise-identical per entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeferredBackend;

impl<T: Scalar> Backend<T> for DeferredBackend {
    fn id(&self) -> BackendId {
        BackendId::of(BACKEND_NAME)
    }

    fn matmul(&self, alpha: T, a: &Matrix<T>, ta: Trans, b: &Matrix<T>, tb: Trans) -> Matrix<T> {
        let t = current_tuning();
        stats_add(|s| s.tape_ops += 1);
        dispatched_group(t, 1, false, || laab_kernels::matmul_dispatch(alpha, a, ta, b, tb))
    }

    fn matmul_batched(
        &self,
        alpha: T,
        a: &Matrix<T>,
        ta: Trans,
        bs: &[&Matrix<T>],
    ) -> Vec<Matrix<T>> {
        let t = current_tuning();
        stats_add(|s| s.tape_ops += bs.len() as u64);
        if t.fuse && bs.len() >= 2 {
            // One launch for the whole window — the engine decides
            // stacked-vs-loop *inside* the launch, exactly as its own
            // batched entry does, so values match `engine` batched.
            dispatched_group(t, bs.len() as u64, true, || {
                laab_backend::EngineBackend.matmul_batched(alpha, a, ta, bs)
            })
        } else {
            // Unfused: one launch per right-hand side, solo dispatch —
            // bitwise the engine's per-item fallback.
            bs.iter()
                .map(|b| {
                    dispatched_group(t, 1, false, || {
                        laab_kernels::matmul_dispatch(alpha, a, ta, b, Trans::No)
                    })
                })
                .collect()
        }
    }

    fn geadd(&self, alpha: T, a: &Matrix<T>, beta: T, b: &Matrix<T>) -> Matrix<T> {
        let t = current_tuning();
        stats_add(|s| s.tape_ops += 1);
        dispatched_group(t, 1, false, || laab_kernels::geadd(alpha, a, beta, b))
    }

    fn geadd_assign(&self, alpha: T, a: &mut Matrix<T>, beta: T, b: &Matrix<T>) {
        let t = current_tuning();
        stats_add(|s| s.tape_ops += 1);
        dispatched_group(t, 1, false, || laab_kernels::geadd_assign(alpha, a, beta, b))
    }

    fn scale_assign(&self, alpha: T, x: &mut Matrix<T>) {
        let t = current_tuning();
        stats_add(|s| s.tape_ops += 1);
        dispatched_group(t, 1, false, || laab_kernels::gescale_assign(alpha, x))
    }

    fn tridiag_matmul(&self, t: &Tridiagonal<T>, b: &Matrix<T>) -> Matrix<T> {
        let tun = current_tuning();
        stats_add(|s| s.tape_ops += 1);
        dispatched_group(tun, 1, false, || laab_kernels::tridiag_matmul(t, b))
    }
}

static DEFERRED_REG: Registration = Registration::new(
    "deferred",
    "lazy accelerator model: op tape + flush-time fusion + per-group dispatch latency (engine kernels underneath)",
    Some(&DeferredBackend),
    Some(&DeferredBackend),
);

/// Register the `deferred` backend process-wide (idempotent — callers
/// race freely; first registration wins and later calls are no-ops).
/// Returns the registration either way.
pub fn ensure_registered() -> &'static Registration {
    let _ = registry::register(&DEFERRED_REG);
    registry::find(BACKEND_NAME).expect("deferred registration is permanent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_backend::EngineBackend;
    use laab_dense::gen::OperandGen;

    #[test]
    fn registration_is_idempotent_and_resolves_both_dtypes() {
        let reg = ensure_registered();
        assert_eq!(reg.name(), "deferred");
        let again = ensure_registered();
        assert_eq!(reg.name(), again.name());
        assert!(reg.resolve::<f32>().is_some());
        let be = reg.resolve::<f64>().expect("f64 entry point");
        assert_eq!(be.id().name(), "deferred");
        assert!(registry::names().contains(&"deferred"));
    }

    #[test]
    fn tuning_scopes_nest_and_restore() {
        assert_eq!(current_tuning(), Tuning::default());
        let inner = with_tuning(Tuning { dispatch_ns: 1, capacity: 2, fuse: false }, || {
            let outer = current_tuning();
            let nested =
                with_tuning(Tuning { dispatch_ns: 9, ..outer }, || current_tuning().dispatch_ns);
            (outer, nested)
        });
        assert_eq!(inner.0.dispatch_ns, 1);
        assert_eq!(inner.1, 9);
        assert_eq!(current_tuning(), Tuning::default(), "override restored");
    }

    #[test]
    fn per_node_calls_match_engine_and_charge_per_op() {
        let mut g = OperandGen::new(3);
        let a = g.matrix::<f64>(12, 9);
        let b = g.matrix::<f64>(9, 7);
        let tuning = Tuning { dispatch_ns: 100, capacity: 32, fuse: true };
        let _ = take_run_stats();
        let got = with_tuning(tuning, || {
            Backend::<f64>::matmul(&DeferredBackend, 1.5, &a, Trans::No, &b, Trans::No)
        });
        let want = EngineBackend.matmul(1.5, &a, Trans::No, &b, Trans::No);
        assert_eq!(got, want, "deferred per-node values are the engine's, bit for bit");
        let s = take_run_stats();
        assert_eq!((s.tape_ops, s.groups, s.unfused_ops, s.fused_ops), (1, 1, 1, 0));
        assert_eq!(s.dispatch_ns, 100, "dispatch accounted exactly groups x configured");
    }

    #[test]
    fn batched_window_is_one_group_fused_and_q_groups_unfused() {
        let mut g = OperandGen::new(19);
        // One fused group for the whole window; its values are the
        // engine's batched product, i.e. its solo product per part.
        let h = g.matrix::<f64>(80, 80);
        let parts: Vec<Matrix<f64>> = (0..6).map(|_| g.matrix::<f64>(80, 1)).collect();
        let refs: Vec<&Matrix<f64>> = parts.iter().collect();

        let fused_t = Tuning { dispatch_ns: 50, capacity: 32, fuse: true };
        let _ = take_run_stats();
        let fused = with_tuning(fused_t, || {
            Backend::<f64>::matmul_batched(&DeferredBackend, 1.0, &h, Trans::No, &refs)
        });
        let fs = take_run_stats();
        assert_eq!((fs.groups, fs.fused_ops, fs.unfused_ops), (1, 6, 0));
        assert_eq!(fs.dispatch_ns, 50);
        assert_eq!(fused, EngineBackend.matmul_batched(1.0, &h, Trans::No, &refs));

        let unfused_t = Tuning { fuse: false, ..fused_t };
        let _ = take_run_stats();
        let unfused = with_tuning(unfused_t, || {
            Backend::<f64>::matmul_batched(&DeferredBackend, 1.0, &h, Trans::No, &refs)
        });
        let us = take_run_stats();
        assert_eq!((us.groups, us.fused_ops, us.unfused_ops), (6, 0, 6));
        assert_eq!(us.dispatch_ns, 6 * 50, "unfused pays one launch per RHS");
        for (got, b) in unfused.iter().zip(&refs) {
            assert_eq!(got, &EngineBackend.matmul(1.0, &h, Trans::No, b, Trans::No));
        }
    }

    #[test]
    fn run_stats_merge_sums_and_maxes() {
        let mut a = RunStats { tape_ops: 3, max_tape_len: 4, groups: 2, ..Default::default() };
        let b = RunStats {
            tape_ops: 1,
            max_tape_len: 9,
            flush_barrier: 1,
            dispatch_ns: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tape_ops, 4);
        assert_eq!(a.max_tape_len, 9);
        assert_eq!(a.flushes(), 1);
        assert_eq!(a.dispatch_ns, 7);
    }
}
