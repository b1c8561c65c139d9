//! Internal strided views.
//!
//! The Level-3 kernels operate on strided, read-only views so that
//! transposition (swap strides) and blocking (offset sub-views) need no data
//! movement; only the packing routines touch memory. Output panels are
//! row-major with a row stride (`MutView`), so a sub-block is an offset
//! into the same buffer and each of its rows a contiguous slice.

use laab_dense::{Matrix, Scalar};

use crate::Trans;

/// Read-only strided view: element `(i, j)` is `data[i*rs + j*cs]`.
#[derive(Clone, Copy)]
pub(crate) struct View<'a, T: Scalar> {
    pub data: &'a [T],
    pub rows: usize,
    pub cols: usize,
    pub rs: usize,
    pub cs: usize,
}

impl<'a, T: Scalar> View<'a, T> {
    /// View of `op(m)` under the transposition flag: transposing swaps both
    /// the logical dimensions and the strides — zero-copy.
    pub fn of(m: &'a Matrix<T>, t: Trans) -> Self {
        let (r, c) = m.shape();
        match t {
            Trans::No => View { data: m.as_slice(), rows: r, cols: c, rs: c, cs: 1 },
            Trans::Yes => View { data: m.as_slice(), rows: c, cols: r, rs: 1, cs: c },
        }
    }

    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.rs + j * self.cs]
    }

    /// Sub-view of rows `[r0, r1)` and columns `[c0, c1)`.
    pub fn sub(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> View<'a, T> {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let off = r0 * self.rs + c0 * self.cs;
        View { data: &self.data[off..], rows: r1 - r0, cols: c1 - c0, rs: self.rs, cs: self.cs }
    }
}

/// Mutable row-major view: element `(i, j)` is `data[i*rs + j]`.
pub(crate) struct MutView<'a, T: Scalar> {
    pub data: &'a mut [T],
    pub rows: usize,
    pub cols: usize,
    pub rs: usize,
}

impl<'a, T: Scalar> MutView<'a, T> {
    pub fn of(m: &'a mut Matrix<T>) -> Self {
        let (rows, cols) = m.shape();
        MutView { data: m.as_mut_slice(), rows, cols, rs: cols }
    }

    #[inline(always)]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn at(&mut self, i: usize, j: usize) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.rs + j]
    }

    /// Mutable sub-view of rows `[r0, r1)` and columns `[c0, c1)`.
    pub fn sub(&mut self, r0: usize, r1: usize, c0: usize, c1: usize) -> MutView<'_, T> {
        debug_assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let off = r0 * self.rs + c0;
        MutView { data: &mut self.data[off..], rows: r1 - r0, cols: c1 - c0, rs: self.rs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_respects_transpose() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        let v = View::of(&m, Trans::No);
        assert_eq!((v.rows, v.cols), (2, 3));
        assert_eq!(v.get(1, 2), 12.0);
        let t = View::of(&m, Trans::Yes);
        assert_eq!((t.rows, t.cols), (3, 2));
        assert_eq!(t.get(2, 1), 12.0);
    }

    #[test]
    fn sub_view_offsets() {
        let m = Matrix::<f64>::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let v = View::of(&m, Trans::No).sub(1, 3, 2, 4);
        assert_eq!((v.rows, v.cols), (2, 2));
        assert_eq!(v.get(0, 0), 12.0);
        assert_eq!(v.get(1, 1), 23.0);
    }

    #[test]
    fn mut_view_writes_through() {
        let mut m = Matrix::<f64>::zeros(3, 3);
        {
            let mut v = MutView::of(&mut m);
            *v.at(2, 1) = 5.0;
            let mut s = v.sub(0, 2, 1, 3);
            *s.at(0, 0) = 7.0;
        }
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m[(0, 1)], 7.0);
    }
}
