//! Scalar-specialized arithmetic helpers for the kernel inner loops.
//!
//! [`Scalar::mul_add`](laab_dense::Scalar::mul_add) deliberately lowers to
//! `a*b + c` so that generic code never falls into the libm soft-FMA trap
//! on targets without a fused unit. The hot inner loops, however, want the
//! real hardware FMA when the build enables it (`.cargo/config.toml` sets
//! `target-cpu=native`): one fused op doubles the floating-point throughput
//! of the GEMM microkernel on every FMA-capable core. This module holds the
//! `f32`/`f64` specializations — a compile-time-gated fused multiply-add
//! and the fused AXPY update shared by TRMM, TRSM, LU, and Cholesky — with
//! a generic fallback for the (by-convention sealed) `Scalar` trait.

use std::any::TypeId;

use laab_dense::Scalar;

macro_rules! fused_impls {
    ($t:ty, $fma:ident, $axpy:ident) => {
        /// `a*b + c`, fused when the target has an FMA unit.
        #[inline(always)]
        pub(crate) fn $fma(a: $t, b: $t, c: $t) -> $t {
            // `cfg!` (not a runtime probe): with a fused unit this is one
            // fmadd; without one, `a*b + c` stays two fast instructions
            // instead of a libm call. ("fma" is the x86 feature name;
            // aarch64 NEON always has fused multiply-add.)
            if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
                <$t>::mul_add(a, b, c)
            } else {
                a * b + c
            }
        }

        /// `y[i] += alpha * x[i]` over equal-length slices, 4-way unrolled
        /// so the autovectorizer emits wide fused updates.
        #[inline(always)]
        fn $axpy(alpha: $t, x: &[$t], y: &mut [$t]) {
            debug_assert_eq!(x.len(), y.len());
            let n4 = x.len() / 4 * 4;
            let (x4, xt) = x.split_at(n4);
            let (y4, yt) = y.split_at_mut(n4);
            for (yc, xc) in y4.chunks_exact_mut(4).zip(x4.chunks_exact(4)) {
                yc[0] = $fma(alpha, xc[0], yc[0]);
                yc[1] = $fma(alpha, xc[1], yc[1]);
                yc[2] = $fma(alpha, xc[2], yc[2]);
                yc[3] = $fma(alpha, xc[3], yc[3]);
            }
            for (yv, &xv) in yt.iter_mut().zip(xt) {
                *yv = $fma(alpha, xv, *yv);
            }
        }
    };
}

fused_impls!(f32, fma_f32, axpy_f32);
fused_impls!(f64, fma_f64, axpy_f64);

/// Reinterpret a `&[T]` as `&[U]` when `T` and `U` are the same type.
///
/// Used to route the generic kernels onto the `f32`/`f64` specializations;
/// the `TypeId` equality the callers check makes the cast an identity.
#[inline(always)]
fn same_type<T: 'static, U: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<U>()
}

/// Fused AXPY `y := alpha·x + y` with `f32`/`f64` specialization and a
/// generic (unfused) fallback. The shared inner-loop primitive of the
/// triangular kernels and the factorizations.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn fused_axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    if same_type::<T, f64>() {
        // SAFETY: T == f64, checked just above; slices reinterpret 1:1.
        let x64 = unsafe { &*(x as *const [T] as *const [f64]) };
        let y64 = unsafe { &mut *(y as *mut [T] as *mut [f64]) };
        axpy_f64(alpha.to_f64(), x64, y64);
    } else if same_type::<T, f32>() {
        // SAFETY: T == f32, checked just above.
        let x32 = unsafe { &*(x as *const [T] as *const [f32]) };
        let y32 = unsafe { &mut *(y as *mut [T] as *mut [f32]) };
        axpy_f32(alpha.to_f64() as f32, x32, y32);
    } else {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv = alpha.mul_add(xv, *yv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_axpy_matches_plain_update_f64() {
        let x: Vec<f64> = (0..23).map(|i| i as f64 * 0.5 - 3.0).collect();
        let mut y: Vec<f64> = (0..23).map(|i| (i * i) as f64 * 0.25).collect();
        let mut want = y.clone();
        for (w, &xv) in want.iter_mut().zip(&x) {
            *w += -1.75 * xv;
        }
        fused_axpy(-1.75, &x, &mut y);
        for (got, want) in y.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn fused_axpy_matches_plain_update_f32() {
        let x: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let mut y = vec![1.0f32; 9];
        fused_axpy(2.0f32, &x, &mut y);
        for (i, &v) in y.iter().enumerate() {
            assert!((v - (1.0 + 2.0 * i as f32)).abs() < 1e-5);
        }
    }

    #[test]
    fn fma_helpers_compute_a_b_plus_c() {
        assert_eq!(fma_f64(2.0, 3.0, 4.0), 10.0);
        assert_eq!(fma_f32(2.0, 3.0, 4.0), 10.0);
    }
}
