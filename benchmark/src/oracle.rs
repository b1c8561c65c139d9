//! Output checking, two tiers.
//!
//! * **Over the wire** — [`Oracle::expected`] computes, in this process
//!   and with this commit's own `Plan::compile_with_varying`, `execute`
//!   and `result_checksum`, the checksum a solo execution must produce. A
//!   response is checkable when the server ran it solo (`occupancy == 1`)
//!   or on a plan that never stacks; it must then match bitwise.
//! * **Preflight** — [`preflight`] covers what the wire cannot: a stacked
//!   execution returns different bits than a solo one, so for every
//!   `(family, n, dtype)` a workload sends, `execute_batched` at
//!   occupancy 2 / 4 / 8 on `engine` is compared with `reference` solo
//!   within the repo's documented bounds.

use std::collections::HashMap;
use std::sync::Arc;

use laab_backend::{registry, BackendScalar, Registration};
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_serve::proto::result_checksum;
use laab_serve::workload::{Family, Request};
use laab_serve::{Dtype, Plan};

use crate::workloads::Shape;

/// Relative-distance bounds for engine-stacked vs reference results, as
/// documented in `crates/backend/tests/cross_backend_props.rs`.
const TOL_F64: f64 = 1e-11;
const TOL_F32: f64 = 1e-3;

/// The backend every workload targets.
pub fn engine() -> &'static Registration {
    registry::find("engine").expect("the engine backend is built in")
}

/// Compile the plan the server compiles for `shape`.
pub fn compile(fw: &Framework, (family, n, _): Shape, reg: &'static Registration) -> Plan {
    Plan::compile_with_varying(fw, &family.expr(n), &family.ctx(n), reg, family.varying_operands())
}

/// The shared operand pool of one `(family, n)`, both precisions — what
/// the server builds lazily per signature.
pub struct Pools {
    /// `f64` operands.
    pub f64: Env<f64>,
    /// `f32` operands.
    pub f32: Env<f32>,
}

impl Pools {
    /// Build both pools exactly as the server does for `seed`.
    pub fn build(family: Family, n: usize, seed: u64) -> Pools {
        Pools { f64: family.env(n, seed), f32: family.env(n, seed) }
    }
}

/// Selects the pool of a scalar type.
pub trait Pooled: BackendScalar {
    /// This type's pool.
    fn pool(pools: &Pools) -> &Env<Self>;
}

impl Pooled for f64 {
    fn pool(pools: &Pools) -> &Env<f64> {
        &pools.f64
    }
}

impl Pooled for f32 {
    fn pool(pools: &Pools) -> &Env<f32> {
        &pools.f32
    }
}

/// In-process solo oracle for response checksums, memoised per
/// `(family, n, dtype)` and — for the families whose payload changes the
/// operands — per payload.
pub struct Oracle {
    seed: u64,
    fw: Framework,
    plans: HashMap<Shape, Arc<Plan>>,
    pools: HashMap<(Family, usize), Arc<Pools>>,
    memo: HashMap<Shape, u64>,
}

impl Oracle {
    /// An oracle for a server started with `--seed seed`.
    pub fn new(seed: u64) -> Oracle {
        Oracle {
            seed,
            fw: Framework::flow(),
            plans: HashMap::new(),
            pools: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    fn plan(&mut self, shape: Shape) -> Arc<Plan> {
        let fw = &self.fw;
        self.plans.entry(shape).or_insert_with(|| Arc::new(compile(fw, shape, engine()))).clone()
    }

    fn pools(&mut self, family: Family, n: usize) -> Arc<Pools> {
        let seed = self.seed;
        self.pools
            .entry((family, n))
            .or_insert_with(|| Arc::new(Pools::build(family, n, seed)))
            .clone()
    }

    /// Whether a response to `req` can be checked bitwise given the
    /// occupancy the server reported.
    pub fn checkable(&mut self, req: &Request, occupancy: u32) -> bool {
        occupancy == 1 || !self.plan((req.family, req.n, req.dtype)).stackable()
    }

    /// The checksum a solo execution of `req` produces.
    pub fn expected(&mut self, req: &Request) -> u64 {
        let shape = (req.family, req.n, req.dtype);
        let per_payload = !req.family.payload_operands().is_empty();
        if !per_payload {
            if let Some(&sum) = self.memo.get(&shape) {
                return sum;
            }
        }
        let plan = self.plan(shape);
        let pools = self.pools(req.family, req.n);
        let sum = match req.dtype {
            Dtype::F64 => solo_checksum::<f64>(&plan, &pools, req, self.seed),
            Dtype::F32 => solo_checksum::<f32>(&plan, &pools, req, self.seed),
        };
        if !per_payload {
            self.memo.insert(shape, sum);
        }
        sum
    }
}

fn solo_checksum<T: Pooled>(plan: &Plan, pools: &Pools, req: &Request, seed: u64) -> u64 {
    let env = req.env_from_pool(T::pool(pools), seed);
    result_checksum(&plan.execute::<T>(&env))
}

/// Tier (b): stacked execution on `engine` against `reference` solo for
/// every shape in `shapes`. Returns one line per violation; empty = pass.
pub fn preflight(shapes: &[Shape], seed: u64) -> Vec<String> {
    let fw = Framework::flow();
    let reference = registry::find("reference").expect("the reference backend is built in");
    let mut failures = Vec::new();
    for &shape in shapes {
        let (family, n, dtype) = shape;
        let pools = Pools::build(family, n, seed);
        let fast = compile(&fw, shape, engine());
        let slow = compile(&fw, shape, reference);
        let worst = match dtype {
            Dtype::F64 => stacked_vs_reference::<f64>(&fast, &slow, &pools, shape, seed),
            Dtype::F32 => stacked_vs_reference::<f32>(&fast, &slow, &pools, shape, seed),
        };
        let tol = if dtype == Dtype::F64 { TOL_F64 } else { TOL_F32 };
        if worst.is_nan() || worst > tol {
            failures.push(format!(
                "{} n={n} {dtype}: engine batched vs reference solo differ by {worst:.3e} (bound {tol:e})",
                family.id()
            ));
        }
    }
    failures
}

/// Largest relative distance, over occupancies 2 / 4 / 8, between the
/// engine's batched results and the reference backend's solo results.
fn stacked_vs_reference<T: Pooled>(
    fast: &Plan,
    slow: &Plan,
    pools: &Pools,
    (family, n, dtype): Shape,
    seed: u64,
) -> f64 {
    let envs: Vec<Env<T>> = (0..8)
        .map(|payload| Request { family, n, dtype, payload }.env_from_pool(T::pool(pools), seed))
        .collect();
    // Families without payload operands bind identical envs: one
    // reference execution covers all eight.
    let distinct = if family.payload_operands().is_empty() { 1 } else { envs.len() };
    let want: Vec<_> = envs[..distinct].iter().map(|e| slow.execute::<T>(e)).collect();
    let mut worst = 0.0f64;
    for occupancy in [2, 4, 8] {
        let refs: Vec<&Env<T>> = envs[..occupancy].iter().collect();
        for (i, got) in fast.execute_batched::<T>(&refs).iter().enumerate() {
            for (g, w) in got.iter().zip(&want[i % distinct]) {
                let d = if g.shape() == w.shape() { g.rel_dist(w) } else { f64::NAN };
                worst = if d.is_nan() { d } else { worst.max(d) };
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_families_memoise_and_vector_families_depend_on_payload() {
        let mut o = Oracle::new(7);
        let gram = |payload| Request { family: Family::Gram, n: 12, dtype: Dtype::F64, payload };
        assert_eq!(o.expected(&gram(1)), o.expected(&gram(2)));
        let chain = |payload| Request { family: Family::Chain, n: 12, dtype: Dtype::F32, payload };
        assert_eq!(o.expected(&chain(1)), o.expected(&chain(1)));
        assert_ne!(o.expected(&chain(1)), o.expected(&chain(2)));
        // A different server seed is different data.
        assert_ne!(Oracle::new(8).expected(&gram(1)), o.expected(&gram(1)));
    }

    #[test]
    fn only_solo_or_non_stackable_responses_are_checkable() {
        let mut o = Oracle::new(7);
        let chain = Request { family: Family::Chain, n: 12, dtype: Dtype::F64, payload: 0 };
        let gram = Request { family: Family::Gram, ..chain };
        assert!(o.checkable(&chain, 1));
        assert!(!o.checkable(&chain, 4), "chain stacks: batched bits differ from solo");
        assert!(o.checkable(&gram, 4), "matrix families fall back per request");
    }

    #[test]
    fn preflight_passes_on_every_family_in_both_precisions() {
        let shapes: Vec<Shape> = Family::ALL
            .into_iter()
            .flat_map(|f| [(f, 24, Dtype::F64), (f, 24, Dtype::F32)])
            .collect();
        assert_eq!(preflight(&shapes, 6827), Vec::<String>::new());
    }
}
