//! Thread-local kernel-invocation and FLOP counters.
//!
//! The paper's analysis is stated in kernel calls and FLOPs ("without CSE the
//! execution time for `E1` would be approximately 2× higher…"). These
//! counters let tests assert those statements exactly: reset, run an
//! expression, snapshot, and compare call/FLOP counts.
//!
//! Counters are *thread-local* so that concurrently running tests (and
//! benchmark pilots) never observe each other's kernel traffic. Every
//! kernel runs on, and records on, the thread that called it.

use std::cell::RefCell;

/// Identity of each instrumented kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Kernel {
    /// General matrix-matrix multiply.
    Gemm,
    /// General matrix-vector multiply.
    Gemv,
    /// Rank-1 update (outer product accumulate).
    Ger,
    /// Inner (dot) product.
    Dot,
    /// `y := αx + y`.
    Axpy,
    /// `x := αx`.
    Scal,
    /// Euclidean norm.
    Nrm2,
    /// Triangular matrix-matrix multiply.
    Trmm,
    /// Symmetric rank-k update (`AAᵀ`).
    Syrk,
    /// Tridiagonal × dense multiply.
    TridiagMatmul,
    /// Diagonal × dense multiply (row scaling).
    DiagMatmul,
    /// Elementwise `C := αA + βB`.
    GeAdd,
    /// Explicit transpose materialization.
    Transpose,
    /// Slicing / element extraction.
    Slice,
    /// Concatenation / block assembly.
    Concat,
    /// Triangular solve.
    Trsm,
    /// Cholesky factorization.
    Potrf,
    /// LU factorization with partial pivoting.
    Getrf,
}

/// Number of kernel kinds (array size for the counter banks).
pub const N_KERNELS: usize = 18;

/// All kernels, in discriminant order (for iteration in reports).
pub const ALL_KERNELS: [Kernel; N_KERNELS] = [
    Kernel::Gemm,
    Kernel::Gemv,
    Kernel::Ger,
    Kernel::Dot,
    Kernel::Axpy,
    Kernel::Scal,
    Kernel::Nrm2,
    Kernel::Trmm,
    Kernel::Syrk,
    Kernel::TridiagMatmul,
    Kernel::DiagMatmul,
    Kernel::GeAdd,
    Kernel::Transpose,
    Kernel::Slice,
    Kernel::Concat,
    Kernel::Trsm,
    Kernel::Potrf,
    Kernel::Getrf,
];

impl Kernel {
    /// Stable display name (BLAS-style, upper-case).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Gemm => "GEMM",
            Kernel::Gemv => "GEMV",
            Kernel::Ger => "GER",
            Kernel::Dot => "DOT",
            Kernel::Axpy => "AXPY",
            Kernel::Scal => "SCAL",
            Kernel::Nrm2 => "NRM2",
            Kernel::Trmm => "TRMM",
            Kernel::Syrk => "SYRK",
            Kernel::TridiagMatmul => "TRIDIAG_MM",
            Kernel::DiagMatmul => "DIAG_MM",
            Kernel::GeAdd => "GEADD",
            Kernel::Transpose => "TRANSPOSE",
            Kernel::Slice => "SLICE",
            Kernel::Concat => "CONCAT",
            Kernel::Trsm => "TRSM",
            Kernel::Potrf => "POTRF",
            Kernel::Getrf => "GETRF",
        }
    }
}

thread_local! {
    static CALLS: RefCell<[u64; N_KERNELS]> = const { RefCell::new([0; N_KERNELS]) };
    static FLOPS: RefCell<[u64; N_KERNELS]> = const { RefCell::new([0; N_KERNELS]) };
}

/// Record one invocation of `kernel` performing `flops` floating-point
/// operations. Called by every public kernel entry point.
#[inline]
pub fn record(kernel: Kernel, flops: u64) {
    let idx = kernel as usize;
    CALLS.with(|c| c.borrow_mut()[idx] += 1);
    FLOPS.with(|f| f.borrow_mut()[idx] += flops);
}

/// Reset this thread's counters to zero.
pub fn reset() {
    CALLS.with(|c| *c.borrow_mut() = [0; N_KERNELS]);
    FLOPS.with(|f| *f.borrow_mut() = [0; N_KERNELS]);
}

/// An immutable copy of this thread's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    calls: [u64; N_KERNELS],
    flops: [u64; N_KERNELS],
}

/// Take a snapshot of this thread's counters.
pub fn snapshot() -> Snapshot {
    Snapshot { calls: CALLS.with(|c| *c.borrow()), flops: FLOPS.with(|f| *f.borrow()) }
}

impl Snapshot {
    /// Calls recorded for `kernel`.
    pub fn calls(&self, kernel: Kernel) -> u64 {
        self.calls[kernel as usize]
    }

    /// FLOPs recorded for `kernel`.
    pub fn flops(&self, kernel: Kernel) -> u64 {
        self.flops[kernel as usize]
    }

    /// Total calls across all kernels.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total FLOPs across all kernels.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// Counter deltas `self − earlier` (element-wise, saturating).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for i in 0..N_KERNELS {
            out.calls[i] = self.calls[i].saturating_sub(earlier.calls[i]);
            out.flops[i] = self.flops[i].saturating_sub(earlier.flops[i]);
        }
        out
    }

    /// Human-readable non-zero rows, e.g. `GEMM x3 (54e9 flops)`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for k in ALL_KERNELS {
            let c = self.calls(k);
            if c > 0 {
                parts.push(format!("{} x{} ({} flops)", k.name(), c, self.flops(k)));
            }
        }
        if parts.is_empty() {
            "(no kernel calls)".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// Run `f` and return `(result, counters recorded during f)`.
///
/// The surrounding counter state is preserved: recording done inside `f` is
/// still visible to outer `measure` calls.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let before = snapshot();
    let r = f();
    let after = snapshot();
    (r, after.since(&before))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        reset();
        record(Kernel::Gemm, 100);
        record(Kernel::Gemm, 50);
        record(Kernel::Dot, 7);
        let s = snapshot();
        assert_eq!(s.calls(Kernel::Gemm), 2);
        assert_eq!(s.flops(Kernel::Gemm), 150);
        assert_eq!(s.calls(Kernel::Dot), 1);
        assert_eq!(s.total_calls(), 3);
        assert_eq!(s.total_flops(), 157);
    }

    #[test]
    fn since_subtracts() {
        reset();
        record(Kernel::Scal, 10);
        let a = snapshot();
        record(Kernel::Scal, 10);
        record(Kernel::Axpy, 20);
        let b = snapshot();
        let d = b.since(&a);
        assert_eq!(d.calls(Kernel::Scal), 1);
        assert_eq!(d.calls(Kernel::Axpy), 1);
        assert_eq!(d.flops(Kernel::Scal), 10);
    }

    #[test]
    fn measure_scopes_counts() {
        reset();
        record(Kernel::Gemm, 5);
        let ((), inner) = measure(|| record(Kernel::Gemm, 7));
        assert_eq!(inner.calls(Kernel::Gemm), 1);
        assert_eq!(inner.flops(Kernel::Gemm), 7);
        // Outer state still includes both records.
        assert_eq!(snapshot().calls(Kernel::Gemm), 2);
    }

    #[test]
    fn describe_mentions_nonzero_kernels() {
        reset();
        record(Kernel::Trmm, 42);
        let s = snapshot();
        assert!(s.describe().contains("TRMM"));
        reset();
        assert_eq!(snapshot().describe(), "(no kernel calls)");
    }

    #[test]
    fn thread_isolation() {
        reset();
        record(Kernel::Gemm, 1);
        let handle = std::thread::spawn(|| {
            // Fresh thread sees zeroed counters.
            let s = snapshot();
            s.total_calls()
        });
        assert_eq!(handle.join().unwrap(), 0);
        assert_eq!(snapshot().calls(Kernel::Gemm), 1);
    }
}
