//! # laab-backend — pluggable execution backends
//!
//! The paper's core finding is that TensorFlow and PyTorch lower the
//! *same* linear-algebra expression to very different execution
//! strategies (eager vs graph vs BLAS-aware), and the interesting numbers
//! are the *ratios* between them. This crate is that comparison axis for
//! the LAAB stack: it decouples *what* a compiled plan computes (the
//! optimized graph, owned by `laab-graph`) from *which kernels* compute
//! it, the way one `tf.function`-traced graph can be dispatched to
//! multiple runtimes.
//!
//! * [`Backend`] — the dispatch trait, cut at exactly the granularity the
//!   graph executor already uses: one entry point per kernel-backed node
//!   kind (product, symmetric product, elementwise add, in-place
//!   variants, structured tridiagonal product). Pure data movement
//!   (transpose, slicing, concatenation) stays in the executor — it is
//!   backend-independent.
//! * [`BackendId`] — a backend's stable identity. `laab-serve` folds it
//!   into the plan-cache [`Signature`] hash, so the same expression
//!   compiled for two backends occupies two independent cache entries and
//!   identical traffic can be A/B'd across backends in one interleaved
//!   run (`laab serve --backends engine,reference`).
//! * [`registry`] — the process-wide name → backend table: the two
//!   built-ins below plus anything added via [`registry::register`]
//!   (a GPU-style stub, an instrumented wrapper, …).
//!
//! The built-in backends:
//!
//! | name | what it is |
//! |------|------------|
//! | [`engine`](EngineBackend) | the live `laab-kernels` engine (packed/tiled GEMM, FMA microkernels; the only backend that runs a `Syrk` node at half the FLOPs) — the default |
//! | [`reference`](ReferenceBackend) | textbook triple loops ([`laab_kernels::reference`]) — the correctness oracle |
//!
//! [`Signature`]: https://docs.rs/laab-serve

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod engine;
mod reference;
pub mod registry;

use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_kernels::Trans;

pub use engine::EngineBackend;
pub use reference::ReferenceBackend;
pub use registry::Registration;

/// Element precision of a request (the BLAS `s`/`d` split).
///
/// A dtype change is a signature change: `tf.function` retraces when a
/// `float32` argument becomes `float64`, and so does the plan cache.
/// Lives here (below `laab-serve`) because backends declare which dtypes
/// they support — a future GPU-style backend may be `f32`-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// Single precision (`f32`, the frameworks' default — paper fn. 3).
    F32,
    /// Double precision (`f64`).
    F64,
}

impl Dtype {
    /// Report-friendly name (`"f32"` / `"f64"`).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }

    /// The dtype of a kernel scalar type.
    pub fn of<T: Scalar>() -> Dtype {
        match T::PREFIX {
            "s" => Dtype::F32,
            _ => Dtype::F64,
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The stable identity of one backend: its registry name.
///
/// `Copy`, cheap to compare, and with stable bytes — `laab-serve` folds
/// the name into the plan-cache signature hash, so two backends can never
/// alias onto one compiled plan. Uniqueness is enforced where it matters:
/// [`registry::register`] rejects a name that is already taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(&'static str);

impl BackendId {
    /// The live `laab-kernels` engine (the default backend).
    pub const ENGINE: BackendId = BackendId("engine");
    /// The naive triple-loop correctness oracle.
    pub const REFERENCE: BackendId = BackendId("reference");

    /// The id for a (custom) backend name. Registry registration, not
    /// this constructor, is what enforces name uniqueness.
    pub const fn of(name: &'static str) -> BackendId {
        BackendId(name)
    }

    /// The backend's registry name.
    pub fn name(self) -> &'static str {
        self.0
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// One execution backend at element precision `T`.
///
/// The surface is exactly the set of kernel entry points the graph
/// executor dispatches per node kind — a backend swaps the *kernels*, not
/// the execution sweep, so an A/B across backends isolates kernel
/// strategy from graph optimization and scheduling (which are shared).
///
/// The in-place methods are the executor's buffer-reuse forms; each must
/// be bitwise-identical to its allocating sibling so buffer stealing
/// never changes results.
pub trait Backend<T: Scalar>: Send + Sync {
    /// This backend's stable identity.
    fn id(&self) -> BackendId;

    /// `α·op(A)·op(B)` — the `MatMul` node (shape-directed lowering to
    /// DOT/GEMV/GEMM is a backend concern, mirroring how the frameworks'
    /// `matmul` picks a BLAS kernel per operand shape).
    fn matmul(&self, alpha: T, a: &Matrix<T>, ta: Trans, b: &Matrix<T>, tb: Trans) -> Matrix<T>;

    /// Batched `α·op(A)·Bᵢ` over `q` same-shape untransposed right-hand
    /// sides — the multi-RHS hook the graph executor dispatches for a
    /// stacked product when a server coalesces same-signature requests.
    /// Entry `i` of the result corresponds to `bs[i]`.
    ///
    /// The default is a **per-item loop** through [`Backend::matmul`], so
    /// every backend is batch-correct by construction and its batched
    /// entry `i` is exactly its solo product with `bs[i]`. `reference`
    /// keeps it; the engine answers `k×1` parts with one
    /// multi-vector GEMV that reads `A` once per group of eight (see
    /// [`EngineBackend`]). An override must keep that equality bit for
    /// bit.
    fn matmul_batched(
        &self,
        alpha: T,
        a: &Matrix<T>,
        ta: Trans,
        bs: &[&Matrix<T>],
    ) -> Vec<Matrix<T>> {
        bs.iter().map(|b| self.matmul(alpha, a, ta, b, Trans::No)).collect()
    }

    /// `α·op(A)·op(A)ᵀ` — the `Syrk` node, a product whose two operands
    /// are one value under opposite flags (`XXᵀ` / `XᵀX`), which only the
    /// LA-aware compile level emits.
    ///
    /// The default **is** that product through [`Backend::matmul`], so
    /// `reference` and `deferred` stay bitwise oracles by
    /// construction. A backend overriding it (the engine) may compute one
    /// triangle and mirror it, but must return what its own `matmul`
    /// returns for the same product, bit for bit on finite inputs: a plan
    /// with the node and a plan without it are interchangeable.
    fn syrk(&self, alpha: T, a: &Matrix<T>, trans: Trans) -> Matrix<T> {
        self.matmul(alpha, a, trans, a, trans.flip())
    }

    /// Elementwise `α·A + β·B` — the `Add`/`Sub` nodes.
    fn geadd(&self, alpha: T, a: &Matrix<T>, beta: T, b: &Matrix<T>) -> Matrix<T>;

    /// In-place `A := α·A + β·B` — the buffer-reuse form of
    /// [`Backend::geadd`].
    fn geadd_assign(&self, alpha: T, a: &mut Matrix<T>, beta: T, b: &Matrix<T>);

    /// `α·X` — the `Scale` node, in the executor's `α·x + 0·x` form (the
    /// `+ 0·x` term keeps all scale paths bitwise-identical on non-finite
    /// inputs and signed zeros).
    fn scale(&self, alpha: T, x: &Matrix<T>) -> Matrix<T> {
        self.geadd(alpha, x, T::ZERO, x)
    }

    /// In-place `X := α·X` — the buffer-reuse form of [`Backend::scale`].
    fn scale_assign(&self, alpha: T, x: &mut Matrix<T>);

    /// Structured tridiagonal product `T·B` from the compact form.
    fn tridiag_matmul(&self, t: &Tridiagonal<T>, b: &Matrix<T>) -> Matrix<T>;
}

/// The default backend (the live engine) as a trait object, for any
/// scalar type — what a one-shot `laab_graph::execute` runs on.
pub fn engine<T: Scalar>() -> &'static dyn Backend<T> {
    &EngineBackend
}

/// Scalar types backends can execute — `f32`/`f64`, the BLAS `s`/`d`
/// split. Bridges the generic kernel world ([`Scalar`]) to the
/// dtype-tagged registry world: a [`Registration`] holds one trait-object
/// slot per dtype, and this trait picks the right slot for a generic `T`.
pub trait BackendScalar: Scalar {
    /// The dtype tag of this scalar type.
    const DTYPE: Dtype;

    #[doc(hidden)]
    fn slot(reg: &Registration) -> Option<&'static dyn Backend<Self>>;
}

impl BackendScalar for f32 {
    const DTYPE: Dtype = Dtype::F32;

    fn slot(reg: &Registration) -> Option<&'static dyn Backend<f32>> {
        reg.f32
    }
}

impl BackendScalar for f64 {
    const DTYPE: Dtype = Dtype::F64;

    fn slot(reg: &Registration) -> Option<&'static dyn Backend<f64>> {
        reg.f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_dense::gen::OperandGen;

    fn backends() -> [&'static dyn Backend<f64>; 2] {
        [&EngineBackend, &ReferenceBackend]
    }

    #[test]
    fn ids_and_dtype_tags() {
        assert_eq!(BackendId::ENGINE.name(), "engine");
        assert_eq!(BackendId::of("engine"), BackendId::ENGINE);
        assert_eq!(BackendId::REFERENCE.to_string(), "reference");
        assert_eq!(Dtype::of::<f32>(), Dtype::F32);
        assert_eq!(Dtype::of::<f64>(), Dtype::F64);
        assert_eq!(Dtype::F32.to_string(), "f32");
        assert_eq!(<f32 as BackendScalar>::DTYPE, Dtype::F32);
        assert_eq!(<f64 as BackendScalar>::DTYPE, Dtype::F64);
        let ids: Vec<BackendId> = backends().iter().map(|b| b.id()).collect();
        assert_eq!(ids, vec![BackendId::ENGINE, BackendId::REFERENCE]);
    }

    #[test]
    fn matmul_agrees_across_backends() {
        let mut g = OperandGen::new(3);
        let a = g.matrix::<f64>(13, 9);
        let b = g.matrix::<f64>(13, 11);
        let oracle = ReferenceBackend.matmul(1.5, &a, Trans::Yes, &b, Trans::No);
        for be in backends() {
            let got = be.matmul(1.5, &a, Trans::Yes, &b, Trans::No);
            // FMA contraction differs between backends: reduction-order
            // shape is shared but rounding is not, hence approx.
            assert!(got.approx_eq(&oracle, 1e-13), "{} disagrees with oracle", be.id());
        }
    }

    #[test]
    fn syrk_is_each_backends_own_product_bitwise() {
        // Default hook = the matmul itself; the engine's override runs the
        // half-FLOP kernel and must still land on its own GEMM's bits.
        use laab_kernels::counters::{self, Kernel};
        let mut g = OperandGen::new(9);
        let a = g.matrix::<f64>(23, 17);
        for be in backends() {
            for trans in [Trans::No, Trans::Yes] {
                let want = be.matmul(-0.5, &a, trans, &a, trans.flip());
                assert_eq!(be.syrk(-0.5, &a, trans), want, "{} {trans:?}", be.id());
            }
        }
        let (_, c) = counters::measure(|| EngineBackend.syrk(1.0, &a, Trans::No));
        assert_eq!((c.calls(Kernel::Syrk), c.calls(Kernel::Gemm)), (1, 0));
    }

    #[test]
    fn elementwise_ops_are_bitwise_identical_across_backends() {
        // No reductions: every backend evaluates the same per-element
        // expression, so equality is exact, and the in-place forms match
        // the allocating forms bit for bit.
        let mut g = OperandGen::new(7);
        let a = g.matrix::<f64>(9, 6);
        let b = g.matrix::<f64>(9, 6);
        let oracle = EngineBackend.geadd(2.0, &a, -0.5, &b);
        for be in backends() {
            assert_eq!(be.geadd(2.0, &a, -0.5, &b), oracle, "{}", be.id());
            let mut acc = a.clone();
            be.geadd_assign(2.0, &mut acc, -0.5, &b);
            assert_eq!(acc, oracle, "{} geadd_assign", be.id());

            let scaled = be.scale(3.0, &a);
            assert_eq!(scaled, EngineBackend.scale(3.0, &a), "{} scale", be.id());
            let mut acc = a.clone();
            be.scale_assign(3.0, &mut acc);
            assert_eq!(acc, scaled, "{} scale_assign", be.id());
        }
    }

    #[test]
    fn tridiag_agrees_across_backends() {
        let mut g = OperandGen::new(11);
        let t = g.tridiagonal::<f64>(12);
        let b = g.matrix::<f64>(12, 7);
        let oracle = laab_kernels::reference::tridiag_matmul_naive(&t, &b);
        for be in backends() {
            assert!(be.tridiag_matmul(&t, &b).approx_eq(&oracle, 1e-14), "{}", be.id());
        }
    }

    #[test]
    fn batched_matmul_default_loop_is_bitwise_solo() {
        // A batched entry is exactly the solo product on every built-in —
        // the default per-item loop, and the engine's multi-vector GEMV —
        // 80×80 is past any cache cutoff, and both flags are covered.
        let mut g = OperandGen::new(17);
        let h = g.matrix::<f64>(80, 80);
        let parts: Vec<Matrix<f64>> = (0..5).map(|_| g.matrix::<f64>(80, 1)).collect();
        let refs: Vec<&Matrix<f64>> = parts.iter().collect();
        for be in backends() {
            for ta in [Trans::No, Trans::Yes] {
                let batched = be.matmul_batched(2.0, &h, ta, &refs);
                assert_eq!(batched.len(), refs.len());
                for (got, b) in batched.iter().zip(&refs) {
                    assert_eq!(got, &be.matmul(2.0, &h, ta, b, Trans::No), "{} {ta:?}", be.id());
                }
            }
        }
    }

    #[test]
    fn stacked_kernel_is_the_engine_solo_bitwise() {
        // The multi-vector GEMV the engine's batched product runs keeps
        // every lane on the solo GEMV's fused chain: batching a vector is
        // a speed choice, never a value change (β = 0 overwrites the old
        // outputs, as the solo product starts from zeros).
        let mut g = OperandGen::new(19);
        let h = g.matrix::<f64>(80, 80);
        let parts: Vec<Matrix<f64>> = (0..6).map(|_| g.matrix::<f64>(80, 1)).collect();
        let refs: Vec<&Matrix<f64>> = parts.iter().collect();
        let y0 = g.matrix::<f64>(80, 1);
        for ta in [Trans::No, Trans::Yes] {
            let mut ys = vec![y0.clone(); 6];
            laab_kernels::gemv_multi(-0.5, &h, ta, &refs, 0.0, &mut ys);
            for (got, b) in ys.iter().zip(&refs) {
                assert_eq!(got, &EngineBackend.matmul(-0.5, &h, ta, b, Trans::No), "{ta:?}");
            }
        }
    }

    #[test]
    fn engine_batched_matmul_is_bitwise_solo() {
        // Every size the served families use and both sides of each
        // sweep's blocks, every window size up to a second group of
        // eight, both flags and dtypes: the batch returns its members'
        // solo bits and records their solo counters. Parts wider than
        // one column take the per-item loop (a GEMM each).
        use laab_kernels::counters::{self, Kernel};
        fn check<T: Scalar>() {
            let mut g = OperandGen::new(23);
            let alpha = T::from_f64(-0.5);
            for n in [1, 7, 16, 48, 192] {
                let h = g.matrix::<T>(n, n);
                let vectors: Vec<Matrix<T>> = (0..9).map(|_| g.matrix::<T>(n, 1)).collect();
                let wide: Vec<Matrix<T>> = (0..3).map(|_| g.matrix::<T>(n, 3)).collect();
                for ta in [Trans::No, Trans::Yes] {
                    let solo = |bs: &[&Matrix<T>]| -> Vec<Matrix<T>> {
                        bs.iter()
                            .map(|b| EngineBackend.matmul(alpha, &h, ta, b, Trans::No))
                            .collect()
                    };
                    for q in 1..=9 {
                        let bs: Vec<&Matrix<T>> = vectors[..q].iter().collect();
                        let (got, batched) =
                            counters::measure(|| EngineBackend.matmul_batched(alpha, &h, ta, &bs));
                        let (want, members) = counters::measure(|| solo(&bs));
                        let what = format!("{} n={n} q={q} {ta:?}", T::PREFIX);
                        assert_eq!(got, want, "{what}");
                        assert_eq!(batched, members, "{what}: counters");
                    }
                    let bs: Vec<&Matrix<T>> = wide.iter().collect();
                    let (got, batched) =
                        counters::measure(|| EngineBackend.matmul_batched(alpha, &h, ta, &bs));
                    let (want, members) = counters::measure(|| solo(&bs));
                    assert_eq!(got, want, "{} n={n} n×3 {ta:?}", T::PREFIX);
                    assert_eq!(batched, members, "{} n={n} n×3 {ta:?}: counters", T::PREFIX);
                    if n > 1 {
                        assert_eq!(batched.calls(Kernel::Gemm), 3, "n×3 parts loop as GEMMs");
                    }
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn f32_backends_work_too() {
        let mut g = OperandGen::new(13);
        let a = g.matrix::<f32>(10, 8);
        let b = g.matrix::<f32>(10, 9);
        let oracle = ReferenceBackend.matmul(1.0f32, &a, Trans::Yes, &b, Trans::No);
        let got = EngineBackend.matmul(1.0f32, &a, Trans::Yes, &b, Trans::No);
        assert!(got.approx_eq(&oracle, 1e-5));
    }
}
