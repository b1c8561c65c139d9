//! Helpers shared by the kernel integration suites.

use laab_dense::{Matrix, Scalar};

/// Exact bit pattern of each element, with every NaN mapped to one
/// canonical value (`f32 → f64` widening is injective on non-NaNs).
pub fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u64> {
    let canonical = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
    m.as_slice().iter().map(|&v| canonical(v.to_f64())).collect()
}
