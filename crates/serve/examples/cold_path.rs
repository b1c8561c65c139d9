//! The cold request path of `churn_cold`, stage by stage, in process.
//!
//! `churn_cold` visits 480 signatures (six families × n in 8..48 × both
//! dtypes) cyclically through a 64-plan cache, so every request misses
//! and compiles. This probe replays that path on one thread and reports,
//! per stage, the mean wall time and the mean number of heap allocations
//! (a counting global allocator):
//!
//! * `expr+ctx` — `Family::expr` and `Family::ctx`, what a compile reads;
//! * `compile_opt` — `Plan::compile_opt` at the signature's level, inside
//!   the compile closure `laab serve` passes on a miss;
//! * `miss bookkeeping` — the rest of that `PlanCache::get_or_compile`:
//!   the shard scan, the retrace record, the insert that replaces the
//!   least recently used entry;
//! * `bind` — `Request::env_from_pool` (the vector families' payload);
//! * `first execute` / `warm execute` — `Plan::execute`, the first one
//!   computing any hoisted value;
//! * `plan drop` — freeing an evicted plan.
//!
//! The probe keeps each plan alive until well after the cache evicts it,
//! so the drop is timed on its own and not inside the bookkeeping. Round
//! 0 fills the cache and is not reported.
//!
//! ```sh
//! cargo run --release -p laab-serve --example cold_path            # 5 rounds
//! cargo run --release -p laab-serve --example cold_path -- 20      # 20 rounds
//! ```
//!
//! Compare two trees by running it in each, alternately, on one machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use laab_backend::{registry, BackendScalar};
use laab_dense::Scalar;
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_serve::workload::{Family, Request};
use laab_serve::{Dtype, Plan, PlanCache};

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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const STAGES: [&str; 7] = [
    "expr+ctx",
    "compile_opt",
    "miss bookkeeping",
    "bind",
    "first execute",
    "warm execute",
    "plan drop",
];
const COMPILE: usize = 1;
const BOOKKEEPING: usize = 2;
const FIRST: usize = 4;
const WARM: usize = 5;
const DROP: usize = 6;

/// Plans held past their eviction: well over the cache's 64, so the one
/// released is almost always no longer cached.
const HELD: usize = 192;

/// Nanoseconds and allocations summed per stage, overall and per family.
#[derive(Default, Clone, Copy)]
struct Sums {
    ns: [u64; 7],
    allocs: [u64; 7],
    requests: u64,
}

impl Sums {
    /// Run `f`, adding its time and allocations to stage `at`.
    fn timed<R>(&mut self, at: usize, f: impl FnOnce() -> R) -> R {
        let (a0, t0) = (allocs(), Instant::now());
        let r = f();
        self.ns[at] += t0.elapsed().as_nanos() as u64;
        self.allocs[at] += allocs() - a0;
        r
    }

    fn add(&mut self, other: &Sums) {
        for k in 0..STAGES.len() {
            self.ns[k] += other.ns[k];
            self.allocs[k] += other.allocs[k];
        }
        self.requests += other.requests;
    }
}

struct Pools {
    f64: Env<f64>,
    f32: Env<f32>,
}

trait Pooled: BackendScalar {
    fn pool(p: &Pools) -> &Env<Self>;
}

impl Pooled for f64 {
    fn pool(p: &Pools) -> &Env<f64> {
        &p.f64
    }
}

impl Pooled for f32 {
    fn pool(p: &Pools) -> &Env<f32> {
        &p.f32
    }
}

/// One cold request of `req`: the miss (compile inside), the payload
/// bind, and a first and a warm execution.
fn request<T: Pooled + Scalar>(
    req: &Request,
    cache: &PlanCache,
    pools: &Pools,
    sums: &mut Sums,
) -> Arc<Plan> {
    let (family, n) = (req.family, req.n);
    let sig = req.signature(registry::default_backend().id());
    let (expr, ctx) = sums.timed(0, || (family.expr(n), family.ctx(n)));
    let (mut inner_ns, mut inner_allocs) = (0, 0);
    let (a0, t0) = (allocs(), Instant::now());
    let (plan, _) = cache.get_or_compile(&sig, || {
        let (a1, t1) = (allocs(), Instant::now());
        let plan = Plan::compile_opt(
            &Framework::flow(),
            &expr,
            &ctx,
            registry::default_backend(),
            family.varying_operands(),
            sig.opt(),
        );
        (inner_ns, inner_allocs) = (t1.elapsed().as_nanos() as u64, allocs() - a1);
        plan
    });
    let (total_ns, total_allocs) = (t0.elapsed().as_nanos() as u64, allocs() - a0);
    sums.ns[COMPILE] += inner_ns;
    sums.allocs[COMPILE] += inner_allocs;
    sums.ns[BOOKKEEPING] += total_ns - inner_ns;
    sums.allocs[BOOKKEEPING] += total_allocs - inner_allocs;
    sums.requests += 1;
    drop((expr, ctx));
    let pool = T::pool(pools);
    let bound = (!family.payload_operands().is_empty())
        .then(|| sums.timed(3, || req.env_from_pool(pool, SEED)));
    let env = bound.as_ref().unwrap_or(pool);
    std::hint::black_box(sums.timed(FIRST, || plan.execute::<T>(env)));
    std::hint::black_box(sums.timed(WARM, || plan.execute::<T>(env)));
    plan
}

const SEED: u64 = 0x1AAB;

fn main() {
    let rounds: usize = std::env::args().nth(1).map_or(5, |s| s.parse().expect("rounds"));
    let mut shapes: Vec<(Family, usize, Dtype)> = (8..48)
        .flat_map(|n| {
            Family::ALL.into_iter().flat_map(move |f| [Dtype::F32, Dtype::F64].map(|d| (f, n, d)))
        })
        .collect();
    // A fixed shuffle (an LCG's Fisher–Yates), so consecutive requests
    // are unrelated signatures, as in the benchmark's visiting order.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..shapes.len()).rev() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        shapes.swap(i, (state >> 33) as usize % (i + 1));
    }
    let pools: Vec<Pools> = shapes
        .iter()
        .map(|&(family, n, _)| {
            let f64 = family.env::<f64>(n, SEED);
            Pools { f32: family.env_from_f64(n, &f64), f64 }
        })
        .collect();
    // `laab serve`'s cache for one backend: 64 plans over 8 shards.
    let cache = PlanCache::new(64);
    let mut held: VecDeque<Arc<Plan>> = VecDeque::with_capacity(HELD + 1);
    let (mut all, mut by_family) = (Sums::default(), [Sums::default(); 6]);
    for round in 0..=rounds {
        for (k, &(family, n, dtype)) in shapes.iter().enumerate() {
            let req = Request { family, n, dtype, payload: (round * shapes.len() + k) as u64 };
            let mut sums = Sums::default();
            let plan = match dtype {
                Dtype::F64 => request::<f64>(&req, &cache, &pools[k], &mut sums),
                Dtype::F32 => request::<f32>(&req, &cache, &pools[k], &mut sums),
            };
            held.push_back(plan);
            if held.len() > HELD {
                let oldest = held.pop_front().expect("held is non-empty");
                sums.timed(DROP, || drop(oldest));
            }
            if round > 0 {
                all.add(&sums);
                by_family[Family::ALL.iter().position(|&f| f == family).expect("a family")]
                    .add(&sums);
            }
        }
    }
    report("all families", &all);
    for (family, sums) in Family::ALL.iter().zip(&by_family) {
        report(family.id(), sums);
    }
}

fn report(title: &str, s: &Sums) {
    let per = s.requests.max(1) as f64;
    println!("{title} ({} cold requests)", s.requests);
    println!("  {:<18} {:>9} {:>9}", "stage", "mean µs", "allocs");
    for (k, stage) in STAGES.iter().enumerate() {
        let (us, n) = (s.ns[k] as f64 / per / 1e3, s.allocs[k] as f64 / per);
        println!("  {stage:<18} {us:>9.3} {n:>9.2}");
    }
}
