//! Heap allocations on the served request path, pinned exactly.
//!
//! A counting global allocator (per thread, so tests running in parallel
//! do not see each other's allocations) counts, per family at
//! n ∈ {16, 47, 192}:
//!
//! * one cold `PlanCache::get_or_compile` with the compile closure the
//!   server passes on a miss (`Plan::compile_opt` over the expression and
//!   context the server keeps per key), in a cache at capacity, so the
//!   insert evicts a plan;
//! * one warm solo `Plan::execute`.
//!
//! A change that allocates more on either path fails here; one that
//! allocates less updates the pin, so the saving stays.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use laab_backend::registry;
use laab_expr::{Context, Expr};
use laab_framework::Framework;
use laab_serve::workload::{Family, Request};
use laab_serve::{Dtype, Plan, PlanCache, Signature};

/// Counts every allocation and reallocation made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Run `f` on a fresh thread, so thread-local state (kernel workspaces)
/// starts the same whichever test ran on this one before.
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("the counted run panicked"))
}

const SIZES: [usize; 3] = [16, 47, 192];

/// What the server keeps per key: the signature, and the expression and
/// context a miss compiles.
fn key(family: Family, n: usize) -> (Request, Signature, Expr, Context) {
    let req = Request { family, n, dtype: Dtype::F64, payload: 3 };
    let sig = req.signature(registry::default_backend().id());
    (req, sig, family.expr(n), family.ctx(n))
}

/// Allocations per family (in `Family::ALL` order) at each of [`SIZES`].
type Table = [[u64; 3]; 6];

#[test]
fn a_cold_miss_allocates_the_pinned_count() {
    let got: Table = on_fresh_thread(|| {
        let keys: Vec<_> = Family::ALL.into_iter().flat_map(|f| SIZES.map(|n| key(f, n))).collect();
        // One plan: every miss evicts the previous key's. The first round
        // records every key in the cache's retrace bookkeeping; the
        // second is the steady state a churning server is in.
        let cache = PlanCache::with_shards(1, 1);
        let mut got = [[0; 3]; 6];
        for round in 0..2 {
            for (k, (_, sig, expr, ctx)) in keys.iter().enumerate() {
                let miss = || {
                    cache.get_or_compile(sig, || {
                        let reg = registry::default_backend();
                        let varying = keys[k].0.family.varying_operands();
                        Plan::compile_opt(&Framework::flow(), expr, ctx, reg, varying, sig.opt())
                    })
                };
                let (_, allocs) = counted(miss);
                if round == 1 {
                    got[k / 3][k % 3] = allocs;
                }
            }
        }
        got
    });
    // The compile and the `Arc<Plan>` (the shard's entries were allocated
    // with the cache): at n = 16 and 47 the passes level, at n = 192 the
    // e-graph level (saturation and extraction allocate the rest).
    let pinned = [
        [11, 11, 643], // cse_gram
        [19, 19, 184], // chain: its plan hoists `HᵀH`
        [9, 9, 69],    // gram
        [11, 11, 372], // slice
        [13, 13, 304], // distributive
        [13, 13, 741], // solve_residual
    ];
    assert_eq!(got, pinned);
}

#[test]
fn a_warm_solo_execute_allocates_the_pinned_count() {
    let got: Table = on_fresh_thread(|| {
        let mut got = [[0; 3]; 6];
        for (f, family) in Family::ALL.into_iter().enumerate() {
            for (s, n) in SIZES.into_iter().enumerate() {
                let (req, sig, expr, ctx) = key(family, n);
                let reg = registry::default_backend();
                let varying = family.varying_operands();
                let plan =
                    Plan::compile_opt(&Framework::flow(), &expr, &ctx, reg, varying, sig.opt());
                let env = req.env_from_pool(&family.env::<f64>(n, 5), 5);
                plan.execute(&env);
                got[f][s] = counted(|| plan.execute(&env)).1;
            }
        }
        got
    });
    // Per node slots, each fresh output, and the output lists. A build
    // without AVX2 + FMA runs `Aᵀ·x` through a sweep that allocates its
    // accumulator, once per transposed GEMV (one in each vector family).
    let t = u64::from(!cfg!(all(target_feature = "avx2", target_feature = "fma")));
    let pinned = [
        [5, 5, 5],             // cse_gram
        [4 + t, 4 + t, 4 + t], // chain: one GEMV on the hoisted `HᵀH`
        [4, 4, 4],             // gram
        [5, 5, 6],             // slice
        [5, 5, 5],             // distributive
        [5 + t, 5 + t, 5 + t], // solve_residual
    ];
    assert_eq!(got, pinned);
}
