//! # laab-deferred — the accelerator launch-cost backend
//!
//! The two synchronous backends (`engine`/`reference`) run a node the
//! moment the executor reaches it, at no cost beyond the kernel. Real
//! accelerator runtimes pay a kernel-launch latency per dispatch, which
//! is exactly the overhead TF/PyTorch eager mode pays per op and graph
//! mode can amortize (the source paper's Sec. III gap, magnified by
//! launch costs).
//!
//! This crate registers a third backend, `deferred`, that models that
//! regime: [`DeferredBackend`] runs the engine kernels behind a constant
//! modeled launch of [`DISPATCH_NS`]. Every per-node call pays one
//! launch; a stacked admission window
//! ([`Backend::matmul_batched`]) pays one launch for the whole window.
//! The values are the engine's, bit for bit — the launch model changes
//! the time a request takes, never its answer.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::time::Instant;

use laab_backend::{registry, Backend, BackendId, EngineBackend, Registration};
use laab_dense::{Matrix, Scalar, Tridiagonal};
use laab_kernels::Trans;

/// Modeled kernel-launch latency charged per dispatch, in nanoseconds.
/// 5 µs is a deliberately small constant on the low end of real measured
/// GPU launch latencies — large enough to show in wall-clock next to a
/// small kernel, small enough that a smoke-sized run stays fast.
pub const DISPATCH_NS: u64 = 5_000;

/// Run `f` behind one modeled launch: busy-wait [`DISPATCH_NS`], then
/// run the kernel. A sleep would be at the mercy of the scheduler's
/// wake-up granularity; a spin keeps the charge deterministic enough to
/// attribute.
fn launch<R>(f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < DISPATCH_NS {
        std::hint::spin_loop();
    }
    f()
}

/// The deferred backend: the engine's kernels, one modeled launch per
/// call. [`Backend::syrk`] keeps the trait default (the product through
/// [`Backend::matmul`], one launch), whose bits are the engine's SYRK on
/// finite inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeferredBackend;

impl<T: Scalar> Backend<T> for DeferredBackend {
    fn id(&self) -> BackendId {
        BackendId::of("deferred")
    }

    fn matmul(&self, alpha: T, a: &Matrix<T>, ta: Trans, b: &Matrix<T>, tb: Trans) -> Matrix<T> {
        launch(|| EngineBackend.matmul(alpha, a, ta, b, tb))
    }

    fn matmul_batched(
        &self,
        alpha: T,
        a: &Matrix<T>,
        ta: Trans,
        bs: &[&Matrix<T>],
    ) -> Vec<Matrix<T>> {
        launch(|| EngineBackend.matmul_batched(alpha, a, ta, bs))
    }

    fn geadd(&self, alpha: T, a: &Matrix<T>, beta: T, b: &Matrix<T>) -> Matrix<T> {
        launch(|| EngineBackend.geadd(alpha, a, beta, b))
    }

    fn geadd_assign(&self, alpha: T, a: &mut Matrix<T>, beta: T, b: &Matrix<T>) {
        launch(|| EngineBackend.geadd_assign(alpha, a, beta, b))
    }

    fn scale_assign(&self, alpha: T, x: &mut Matrix<T>) {
        launch(|| EngineBackend.scale_assign(alpha, x))
    }

    fn tridiag_matmul(&self, t: &Tridiagonal<T>, b: &Matrix<T>) -> Matrix<T> {
        launch(|| EngineBackend.tridiag_matmul(t, b))
    }
}

static DEFERRED_REG: Registration = Registration::new(
    "deferred",
    "accelerator launch model: engine kernels behind a 5 us modeled launch per dispatch",
    Some(&DeferredBackend),
    Some(&DeferredBackend),
);

/// Register the `deferred` backend process-wide (idempotent — callers
/// race freely; first registration wins and later calls are no-ops).
/// Returns the registration either way.
pub fn ensure_registered() -> &'static Registration {
    let _ = registry::register(&DEFERRED_REG);
    registry::find("deferred").expect("deferred registration is permanent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_dense::gen::OperandGen;
    use std::time::Duration;

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
    fn per_node_calls_match_engine_and_charge_per_op() {
        let mut g = OperandGen::new(3);
        let a = g.matrix::<f64>(12, 9);
        let b = g.matrix::<f64>(9, 7);
        let t0 = Instant::now();
        let got = Backend::<f64>::matmul(&DeferredBackend, 1.5, &a, Trans::No, &b, Trans::No);
        assert!(t0.elapsed() >= Duration::from_nanos(DISPATCH_NS), "one launch paid");
        let want = EngineBackend.matmul(1.5, &a, Trans::No, &b, Trans::No);
        assert_eq!(got, want, "deferred per-node values are the engine's, bit for bit");
    }

    #[test]
    fn batched_window_is_one_launch_of_the_engines_batched_product() {
        let mut g = OperandGen::new(19);
        let h = g.matrix::<f64>(80, 80);
        let parts: Vec<Matrix<f64>> = (0..6).map(|_| g.matrix::<f64>(80, 1)).collect();
        let refs: Vec<&Matrix<f64>> = parts.iter().collect();
        let got = Backend::<f64>::matmul_batched(&DeferredBackend, 1.0, &h, Trans::No, &refs);
        assert_eq!(got, EngineBackend.matmul_batched(1.0, &h, Trans::No, &refs));
        for (got, b) in got.iter().zip(&refs) {
            assert_eq!(got, &EngineBackend.matmul(1.0, &h, Trans::No, b, Trans::No));
        }
    }
}
