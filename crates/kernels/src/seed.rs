//! The frozen PR-1 GEMM, kept as the perf-trajectory yardstick.
//!
//! The benchmark's `host.yardstick_gflops` times this kernel, and the
//! `gemm_engine` bench times it beside the live engine, so engine speedups
//! and host drift are measured in-process, same build flags, same machine
//! — not against a number recorded on different hardware. Do not
//! "improve" this module; its whole value is that it does not move.
//!
//! Differences from the live engine (`crate::gemm`): per-call `vec!`
//! packing buffers, serial execution only, a generic (unfused) `MR×NR`
//! microkernel, and the original blocking parameters. It records no
//! counters — it is a yardstick, not a dispatchable kernel.

use laab_dense::{Matrix, Scalar};

use crate::view::{MutView, View};
use crate::Trans;

const MR: usize = 4;
const NR: usize = 8;
const MC: usize = 128;
const KC: usize = 256;
const NC: usize = 2048;

/// `C := α·op(A)·op(B) + β·C` with the seed (PR-1) kernel, serial.
///
/// # Panics
/// On inconsistent shapes.
pub fn gemm_seed<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    ta: Trans,
    b: &Matrix<T>,
    tb: Trans,
    beta: T,
    c: &mut Matrix<T>,
) {
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    let (m, ka) = (av.rows, av.cols);
    let (kb, n) = (bv.rows, bv.cols);
    assert_eq!(ka, kb, "gemm_seed: inner dimensions differ ({ka} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm_seed: C has shape {:?}, expected ({m}, {n})", c.shape());
    gemm_seed_serial(alpha, av, bv, beta, &mut MutView::of(c));
}

fn gemm_seed_serial<T: Scalar>(
    alpha: T,
    a: View<'_, T>,
    b: View<'_, T>,
    beta: T,
    c: &mut MutView<'_, T>,
) {
    let (m, k) = (a.rows, a.cols);
    let n = b.cols;

    if beta != T::ONE {
        for i in 0..c.rows {
            let row = &mut c.data[i * c.rs..i * c.rs + c.cols];
            for v in row.iter_mut() {
                *v = if beta == T::ZERO { T::ZERO } else { *v * beta };
            }
        }
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let mut packed_a = vec![T::ZERO; MC.min(m).next_multiple_of(MR) * KC.min(k)];
    let mut packed_b = vec![T::ZERO; KC.min(k) * NC.min(n).next_multiple_of(NR)];

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(&mut packed_b, b, pc, kc, jc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(&mut packed_a, a, ic, mc, pc, kc);
                macro_block(alpha, &packed_a, &packed_b, mc, nc, kc, ic, jc, c);
            }
        }
    }
}

fn pack_a<T: Scalar>(buf: &mut [T], a: View<'_, T>, ic: usize, mc: usize, pc: usize, kc: usize) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let base = p * MR * kc;
        let rows = MR.min(mc - p * MR);
        for kk in 0..kc {
            for ir in 0..MR {
                buf[base + kk * MR + ir] =
                    if ir < rows { a.get(ic + p * MR + ir, pc + kk) } else { T::ZERO };
            }
        }
    }
}

fn pack_b<T: Scalar>(buf: &mut [T], b: View<'_, T>, pc: usize, kc: usize, jc: usize, nc: usize) {
    let panels = nc.div_ceil(NR);
    for p in 0..panels {
        let base = p * NR * kc;
        let cols = NR.min(nc - p * NR);
        for kk in 0..kc {
            for jr in 0..NR {
                buf[base + kk * NR + jr] =
                    if jr < cols { b.get(pc + kk, jc + p * NR + jr) } else { T::ZERO };
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn macro_block<T: Scalar>(
    alpha: T,
    packed_a: &[T],
    packed_b: &[T],
    mc: usize,
    nc: usize,
    kc: usize,
    ic: usize,
    jc: usize,
    c: &mut MutView<'_, T>,
) {
    let a_panels = mc.div_ceil(MR);
    let b_panels = nc.div_ceil(NR);
    for jp in 0..b_panels {
        let pb = &packed_b[jp * NR * kc..(jp + 1) * NR * kc];
        let j0 = jc + jp * NR;
        let cols = NR.min(nc - jp * NR);
        for ip in 0..a_panels {
            let pa = &packed_a[ip * MR * kc..(ip + 1) * MR * kc];
            let i0 = ic + ip * MR;
            let rows = MR.min(mc - ip * MR);
            let acc = micro_kernel(kc, pa, pb);
            for (ir, acc_row) in acc.iter().enumerate().take(rows) {
                let crow = &mut c.data[(i0 + ir) * c.rs + j0..(i0 + ir) * c.rs + j0 + cols];
                for (cv, &av) in crow.iter_mut().zip(acc_row) {
                    *cv = alpha.mul_add(av, *cv);
                }
            }
        }
    }
}

#[inline(always)]
fn micro_kernel<T: Scalar>(kc: usize, pa: &[T], pb: &[T]) -> [[T; NR]; MR] {
    let mut acc = [[T::ZERO; NR]; MR];
    for kk in 0..kc {
        let a = &pa[kk * MR..kk * MR + MR];
        let b = &pb[kk * NR..kk * NR + NR];
        for ir in 0..MR {
            let av = a[ir];
            let row = &mut acc[ir];
            for jr in 0..NR {
                row[jr] = av.mul_add(b[jr], row[jr]);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use laab_dense::gen::OperandGen;

    #[test]
    fn seed_kernel_matches_reference() {
        let mut g = OperandGen::new(91);
        for &(m, n, k) in &[(5, 9, 3), (64, 64, 64), (130, 17, 300)] {
            let a = g.matrix::<f64>(m, k);
            let b = g.matrix::<f64>(k, n);
            let c0 = g.matrix::<f64>(m, n);
            let mut c = c0.clone();
            gemm_seed(1.5, &a, Trans::No, &b, Trans::No, 0.5, &mut c);
            let want = reference::gemm_naive(1.5, &a, Trans::No, &b, Trans::No, 0.5, &c0);
            assert!(c.approx_eq(&want, 1e-12), "m={m} n={n} k={k} dist={}", c.rel_dist(&want));
        }
    }

    #[test]
    fn seed_kernel_records_no_counters() {
        crate::counters::reset();
        let a = Matrix::<f64>::identity(16);
        let b = Matrix::<f64>::identity(16);
        let mut c = Matrix::<f64>::zeros(16, 16);
        gemm_seed(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert_eq!(crate::counters::snapshot().calls(crate::counters::Kernel::Gemm), 0);
    }
}
