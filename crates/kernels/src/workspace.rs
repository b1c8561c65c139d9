//! Reusable thread-local packing workspaces.
//!
//! The Level-3 kernels repack panels of their operands on every call; with
//! per-call `vec!` allocations that packing traffic shows up as allocator
//! churn on exactly the hot path the suite is trying to time. Instead,
//! each calling thread keeps one growable buffer per element type and
//! per role (A-panel / B-panel), handed out by
//! [`with_packed_a`] / [`with_packed_b`] and returned when the closure
//! finishes. Steady-state GEMMs therefore allocate nothing.
//!
//! The buffers are taken out of their thread-local slots for the duration
//! of the closure (not merely borrowed), so a re-entrant kernel call — e.g.
//! TRMM's diagonal blocks calling back into the packed GEMM — simply finds
//! the slot empty and falls back to a fresh allocation instead of
//! panicking on a double borrow.

use std::any::{Any, TypeId};
use std::cell::{RefCell, RefMut};
use std::collections::HashMap;

use laab_dense::Scalar;

/// Which packing buffer a caller is asking for.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Role {
    PackedA,
    PackedB,
}

/// Per thread: one buffer per element type and role.
type Workspaces = HashMap<(TypeId, Role), Box<dyn Any>>;

thread_local! {
    static WORKSPACES: RefCell<Workspaces> = RefCell::new(HashMap::new());
}

/// Cache-line alignment for the packed panels, in elements. Aligned panel
/// rows keep the microkernel's wide loads from straddling cache lines.
const ALIGN_BYTES: usize = 64;

fn with_buffer<T: Scalar, R>(role: Role, len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    // The buffer moves out of its boxed slot, which stays in the map with
    // an empty `Vec` in it: taking and returning it allocates nothing.
    fn slot<T: Scalar>(w: &RefCell<Workspaces>, role: Role) -> RefMut<'_, Vec<T>> {
        RefMut::map(w.borrow_mut(), |w| {
            let slot =
                w.entry((TypeId::of::<T>(), role)).or_insert_with(|| Box::new(Vec::<T>::new()));
            slot.downcast_mut().expect("slots are keyed by their element type")
        })
    }
    let mut buf: Vec<T> = WORKSPACES.with(|w| std::mem::take(&mut *slot(w, role)));
    let pad = ALIGN_BYTES / std::mem::size_of::<T>();
    if buf.len() < len + pad {
        buf.resize(len + pad, T::ZERO);
    }
    // Hand out a 64-byte-aligned window (the offset can change when the
    // Vec reallocates, so recompute per call).
    let offset = {
        let misalign = buf.as_ptr() as usize % ALIGN_BYTES;
        if misalign == 0 {
            0
        } else {
            (ALIGN_BYTES - misalign) / std::mem::size_of::<T>()
        }
    };
    let result = f(&mut buf[offset..offset + len]);
    WORKSPACES.with(|w| *slot(w, role) = buf);
    result
}

/// Run `f` with this thread's reusable A-panel buffer, grown to at least
/// `len` elements. The packing routines overwrite every element they later
/// read (including zero padding), so stale contents are harmless.
pub(crate) fn with_packed_a<T: Scalar, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    with_buffer(Role::PackedA, len, f)
}

/// Run `f` with this thread's reusable B-panel buffer, grown to at least
/// `len` elements.
pub(crate) fn with_packed_b<T: Scalar, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    with_buffer(Role::PackedB, len, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_reused_not_reallocated() {
        let first_ptr = with_packed_a::<f64, _>(1024, |buf| {
            buf[0] = 7.0;
            buf.as_ptr() as usize
        });
        let (second_ptr, stale) = with_packed_a::<f64, _>(512, |buf| {
            assert_eq!(buf.len(), 512);
            (buf.as_ptr() as usize, buf[0])
        });
        assert_eq!(first_ptr, second_ptr, "shrinking requests reuse the same allocation");
        assert_eq!(stale, 7.0, "contents persist across calls (callers must overwrite)");
    }

    #[test]
    fn f32_and_f64_buffers_are_distinct() {
        with_packed_a::<f64, _>(16, |buf| buf.fill(1.0));
        with_packed_a::<f32, _>(16, |buf| {
            // A fresh f32 buffer, not a reinterpretation of the f64 one.
            assert!(buf.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn reentrant_use_falls_back_to_fresh_buffer() {
        with_packed_b::<f64, _>(8, |outer| {
            outer.fill(3.0);
            with_packed_b::<f64, _>(8, |inner| {
                assert_ne!(outer.as_ptr(), inner.as_ptr());
            });
            assert!(outer.iter().all(|&v| v == 3.0));
        });
    }

    #[test]
    fn roles_are_independent() {
        with_packed_a::<f64, _>(4, |a| {
            a.fill(1.0);
            with_packed_b::<f64, _>(4, |b| {
                assert_ne!(a.as_ptr(), b.as_ptr());
            });
        });
    }
}
