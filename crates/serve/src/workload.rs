//! Synthetic request families drawn from the paper's experiments.
//!
//! Each family is one callsite (one "decorated function"): a fixed
//! expression *structure* parameterized by the operand size `n` and the
//! element dtype. The mix reproduces the flavor of Experiments 1–5 —
//! the structures whose handling (or mishandling) the paper measures —
//! so the serving harness stresses the plan cache with exactly the
//! graphs the one-shot suite studies.

use laab_backend::BackendId;
use laab_dense::gen::OperandGen;
use laab_dense::Scalar;
use laab_expr::eval::Env;
use laab_expr::{elem, var, Context, Expr};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::signature::{Dtype, Signature};

/// One request family: a callsite with a fixed expression structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Experiment 1 (Table II): the CSE trap `(AᵀB)ᵀ(AᵀB)` — graph mode
    /// compiles the shared subexpression once.
    CseGram,
    /// Experiment 2 (Table III / Fig. 7): the left-associated chain
    /// `HᵀH x` the frameworks never re-parenthesize.
    Chain,
    /// Experiment 3 (Table IV): the Gram product `QᵀQ` — a symmetric
    /// result the frameworks compute with a full GEMM, and so does a
    /// `Passes`-level plan. At the e-graph level it is lowered to a
    /// `Syrk` node: half the FLOPs on the engine, the GEMM's bits.
    Gram,
    /// Experiment 5 (Table VI, partial operand access): the slicing trap
    /// `(AB)[0,0]` — the full product is materialized for one element.
    Slice,
    /// Experiment 4 (Table V, Eq. 9): the distributivity trap
    /// `AB + AC`, which algebra would factor as `A(B + C)`.
    Distributive,
    /// The solve workload (ext_solve): the least-squares residual step
    /// `Hᵀ(y − Hx)` — the building block iterative solvers evaluate per
    /// step (the graph IR carries no factorization node, so serving
    /// exercises the residual evaluation, not the factorization).
    SolveResidual,
}

impl Family {
    /// Every family. The order is part of the request mix (workloads
    /// index into it), so it stays fixed.
    pub const ALL: [Family; 6] = [
        Family::CseGram,
        Family::Chain,
        Family::Gram,
        Family::Slice,
        Family::Distributive,
        Family::SolveResidual,
    ];

    /// Stable identifier (report JSON, cache callsite).
    pub fn id(self) -> &'static str {
        match self {
            Family::CseGram => "cse_gram",
            Family::Chain => "chain",
            Family::Gram => "gram",
            Family::Slice => "slice",
            Family::Distributive => "distributive",
            Family::SolveResidual => "solve_residual",
        }
    }

    /// Resolve a wire/report identifier back to the family — the inverse
    /// of [`Family::id`], used by the network server to decode request
    /// frames. `None` for a callsite this build does not define (a
    /// structured rejection, not a panic).
    pub fn from_id(id: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.id() == id)
    }

    /// The family's expression at operand size `n`.
    pub fn expr(self, n: usize) -> Expr {
        let _ = n; // only slicing indices could depend on n; keep 0,0
        match self {
            Family::CseGram => {
                let s = var("A").t() * var("B");
                s.clone().t() * s
            }
            Family::Chain => var("H").t() * var("H") * var("x"),
            Family::Gram => var("Q").t() * var("Q"),
            Family::Slice => elem(var("A") * var("B"), 0, 0),
            Family::Distributive => var("A") * var("B") + var("A") * var("C"),
            Family::SolveResidual => var("H").t() * (var("y") - var("H") * var("x")),
        }
    }

    /// The typing context for [`Family::expr`] at size `n`.
    pub fn ctx(self, n: usize) -> Context {
        match self {
            Family::CseGram | Family::Slice => Context::new().with("A", n, n).with("B", n, n),
            Family::Chain | Family::SolveResidual => {
                Context::new().with("H", n, n).with("x", n, 1).with("y", n, 1)
            }
            Family::Gram => Context::new().with("Q", n, n),
            Family::Distributive => Context::new().with("A", n, n).with("B", n, n).with("C", n, n),
        }
    }

    /// Reproducible operands for the family at size `n`. The same
    /// `(family, n, seed)` always yields the same data, so every client
    /// and every dtype sees consistent inputs.
    pub fn env<T: Scalar>(self, n: usize, seed: u64) -> Env<T> {
        let mut g = OperandGen::new(seed ^ ((self as u64) << 32) ^ (n as u64));
        let mut env = Env::new();
        let ctx = self.ctx(n);
        for name in ctx.names() {
            let shape = ctx.expect(name).shape;
            env.insert(name, g.matrix(shape.rows, shape.cols));
        }
        env
    }

    /// Operand names whose *values* differ request to request — the
    /// request payload, as opposed to the shared model operands every
    /// same-signature request binds identically. This is what the batched
    /// executor's [`laab_graph::BatchAnalysis`] takes as the varying set:
    /// the chain/solve families vary only their right-hand-side vectors
    /// (RHS-stackable), while the matrix families' whole operand set is
    /// per-request (no column-stacked form — they take the bitwise
    /// per-request fallback).
    pub fn varying_operands(self) -> &'static [&'static str] {
        match self {
            Family::CseGram | Family::Slice => &["A", "B"],
            Family::Chain => &["x"],
            Family::Gram => &["Q"],
            Family::Distributive => &["A", "B", "C"],
            Family::SolveResidual => &["x", "y"],
        }
    }

    /// The varying operands the harness actually re-draws per request:
    /// the `n×1` vector payloads. Matrix-shaped varying operands keep
    /// their pooled values (their families execute per request either
    /// way, so distinct values would change no work — only the operand
    /// pool's memory footprint).
    pub fn payload_operands(self) -> &'static [&'static str] {
        match self {
            Family::Chain => &["x"],
            Family::SolveResidual => &["x", "y"],
            _ => &[],
        }
    }
}

/// One synthetic serving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Which callsite the request hits.
    pub family: Family,
    /// Operand size.
    pub n: usize,
    /// Element precision.
    pub dtype: Dtype,
    /// Payload identity: requests with equal signatures but different
    /// payloads bind different vector operands (see
    /// [`Family::payload_operands`]) — the data a batched execution
    /// column-stacks.
    pub payload: u64,
}

impl Request {
    /// The request's plan-cache signature when dispatched to `backend`.
    /// One logical request driven through two backends yields two
    /// signatures — that is what keeps A/B cache entries independent.
    /// The payload does not participate: same shapes, same plan. The
    /// optimizer level is the one
    /// [`OptLevel::for_input`](crate::OptLevel::for_input) picks for the
    /// family's expression at this size.
    pub fn signature(&self, backend: BackendId) -> Signature {
        let (expr, ctx) = (self.family.expr(self.n), self.family.ctx(self.n));
        Signature::new(self.family.id(), &expr, &ctx, self.dtype, backend)
    }

    /// The request's operand bindings, derived from the shared pool env
    /// for `(family, n)` with this request's payload vectors drawn on
    /// top. Deterministic in `(request, seed)` — the batched and solo
    /// passes see identical data. The pool's operands are shared, not
    /// copied ([`Env`] clones by reference count): binding costs the
    /// payload vectors alone, not the `n×n` model operand.
    pub fn env_from_pool<T: Scalar>(&self, base: &Env<T>, seed: u64) -> Env<T> {
        let mut env = base.clone();
        let ctx = self.family.ctx(self.n);
        for (k, name) in self.family.payload_operands().iter().enumerate() {
            let mut g = OperandGen::new(
                seed ^ self.payload.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((k as u64 + 1) << 56),
            );
            let shape = ctx.expect(name).shape;
            env.insert(name, g.matrix(shape.rows, shape.cols));
        }
        env
    }
}

/// Deterministically generate a mixed request stream.
///
/// Families and dtypes are drawn uniformly from a seeded RNG. Every
/// `churn_every`-th request (when non-zero) is a **churn** request: it
/// hits the [`Family::Chain`] callsite at one of four alternate sizes, so
/// a long stream keeps producing signature changes — the retrace traffic
/// of a service whose clients occasionally send new shapes — while the
/// overall distinct-signature count stays small enough that the steady
/// state is cache hits.
///
/// `dtype` pins every request to one precision (`None` = mixed). The RNG
/// is still consumed for the dtype draw, so two runs that differ only in
/// the filter see the *same* family/size sequence — dtype-restricted A/B
/// runs stay comparable request for request.
pub fn synthetic_mix(
    requests: usize,
    base_n: usize,
    seed: u64,
    churn_every: usize,
    dtype: Option<Dtype>,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mix = Vec::with_capacity(requests);
    for i in 0..requests {
        let churn = churn_every != 0 && (i + 1) % churn_every == 0;
        let family =
            if churn { Family::Chain } else { Family::ALL[rng.gen_range(0..Family::ALL.len())] };
        let n = if churn {
            // Cycle four alternate sizes so churn signatures repeat (and
            // eventually hit) rather than growing without bound.
            base_n + 8 * (1 + (i / churn_every) % 4)
        } else {
            base_n
        };
        let drawn = if rng.gen::<bool>() { Dtype::F64 } else { Dtype::F32 };
        mix.push(Request { family, n, dtype: dtype.unwrap_or(drawn), payload: i as u64 });
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::OptLevel;
    use laab_expr::eval::eval;

    #[test]
    fn every_family_shape_checks_and_evaluates() {
        let n = 8;
        for family in Family::ALL {
            let expr = family.expr(n);
            let ctx = family.ctx(n);
            let shape = expr
                .try_shape(&ctx)
                .unwrap_or_else(|e| panic!("family {} fails shape check: {e:?}", family.id()));
            assert!(shape.rows >= 1 && shape.cols >= 1);
            let env = family.env::<f64>(n, 7);
            let value = eval(&expr, &env);
            assert_eq!((value.rows(), value.cols()), (shape.rows, shape.cols));
        }
    }

    #[test]
    fn envs_are_reproducible_and_size_distinct() {
        let e1 = Family::Gram.env::<f64>(10, 3);
        let e2 = Family::Gram.env::<f64>(10, 3);
        assert_eq!(e1.expect("Q"), e2.expect("Q"));
        let e3 = Family::Gram.env::<f64>(12, 3);
        assert_eq!(e3.expect("Q").shape(), (12, 12));
    }

    #[test]
    fn mix_is_deterministic_and_churns() {
        let m1 = synthetic_mix(64, 32, 11, 16, None);
        let m2 = synthetic_mix(64, 32, 11, 16, None);
        assert_eq!(m1, m2);
        assert_eq!(m1.len(), 64);
        // Churn requests (every 16th) hit the chain family off-size.
        let churned: Vec<_> = m1.iter().filter(|r| r.n != 32).collect();
        assert_eq!(churned.len(), 4);
        assert!(churned.iter().all(|r| r.family == Family::Chain));
        // A different seed produces a different stream.
        assert_ne!(synthetic_mix(64, 32, 12, 16, None), m1);
        // churn_every = 0 disables churn.
        assert!(synthetic_mix(64, 32, 11, 0, None).iter().all(|r| r.n == 32));
    }

    #[test]
    fn dtype_filter_pins_precision_but_not_the_stream() {
        let mixed = synthetic_mix(64, 32, 11, 16, None);
        let f32_only = synthetic_mix(64, 32, 11, 16, Some(Dtype::F32));
        assert!(f32_only.iter().all(|r| r.dtype == Dtype::F32));
        assert!(mixed.iter().any(|r| r.dtype == Dtype::F64), "mixed stream has both dtypes");
        // The family/size sequence is identical: only the dtype differs.
        for (a, b) in mixed.iter().zip(&f32_only) {
            assert_eq!((a.family, a.n), (b.family, b.n));
        }
    }

    #[test]
    fn varying_and_payload_sets_are_consistent() {
        for family in Family::ALL {
            let ctx = family.ctx(8);
            let varying = family.varying_operands();
            assert!(!varying.is_empty(), "{}: some operand must vary per request", family.id());
            for name in family.payload_operands() {
                assert!(varying.contains(name), "{}: payloads are varying operands", family.id());
                assert_eq!(ctx.expect(name).shape.cols, 1, "{}: payloads are vectors", family.id());
            }
            for name in varying {
                assert!(ctx.names().any(|n| n == *name), "{}: `{name}` declared", family.id());
            }
        }
        // The GEMV-shaped families are the RHS-stackable ones.
        assert_eq!(Family::Chain.payload_operands(), ["x"]);
        assert_eq!(Family::SolveResidual.payload_operands(), ["x", "y"]);
    }

    #[test]
    fn payload_envs_vary_only_the_payload_operands() {
        let base = Family::SolveResidual.env::<f64>(10, 3);
        let mk =
            |payload| Request { family: Family::SolveResidual, n: 10, dtype: Dtype::F64, payload };
        let e1 = mk(1).env_from_pool(&base, 3);
        let e1b = mk(1).env_from_pool(&base, 3);
        let e2 = mk(2).env_from_pool(&base, 3);
        // Deterministic per payload; distinct across payloads; H shared.
        assert_eq!(e1.expect("x"), e1b.expect("x"));
        assert_ne!(e1.expect("x"), e2.expect("x"));
        assert_ne!(e1.expect("y"), e2.expect("y"));
        assert_ne!(e1.expect("x"), e1.expect("y"), "per-name payload streams are distinct");
        // H is the pool's own matrix, not a copy of it.
        assert!(std::ptr::eq(e1.expect("H"), base.expect("H")));
        assert!(std::ptr::eq(e2.expect("H"), base.expect("H")));
        // Families without vector payloads reuse the pool env as-is.
        let gbase = Family::Gram.env::<f64>(10, 3);
        let g1 = Request { family: Family::Gram, n: 10, dtype: Dtype::F64, payload: 1 }
            .env_from_pool(&gbase, 3);
        assert!(std::ptr::eq(g1.expect("Q"), gbase.expect("Q")));
    }

    #[test]
    fn signature_names_the_level_the_plan_compiles_at() {
        for (n, gated_in) in [(16usize, false), (47, false), (192, true), (256, true)] {
            for family in Family::ALL {
                let req = Request { family, n, dtype: Dtype::F32, payload: 3 };
                let level = OptLevel::for_input(&family.expr(n), &family.ctx(n));
                let want = if gated_in { OptLevel::Egraph } else { OptLevel::Passes };
                assert_eq!(level, want, "{} n={n}", family.id());
                let sig = req.signature(BackendId::ENGINE);
                assert_eq!(sig.opt(), level);
                assert!(sig.to_string().ends_with(&format!("opt={level}")), "{sig}");
            }
        }
        // Between the two the level follows each expression's own cost.
        let at_96 = |family: Family| OptLevel::for_input(&family.expr(96), &family.ctx(96));
        assert_eq!(at_96(Family::Chain), OptLevel::Egraph);
        assert_eq!(at_96(Family::SolveResidual), OptLevel::Passes);
    }

    #[test]
    fn signatures_distinguish_families_sizes_dtypes_backends() {
        let r1 = Request { family: Family::Gram, n: 8, dtype: Dtype::F64, payload: 0 };
        let r2 = Request { family: Family::Gram, n: 8, dtype: Dtype::F32, payload: 0 };
        let r3 = Request { family: Family::Chain, n: 8, dtype: Dtype::F64, payload: 0 };
        let r4 = Request { family: Family::Gram, n: 10, dtype: Dtype::F64, payload: 0 };
        let mut sigs: Vec<u64> =
            [r1, r2, r3, r4].map(|r| r.signature(BackendId::ENGINE).hash()).to_vec();
        // The same requests through a second backend: all-new signatures.
        sigs.extend([r1, r2, r3, r4].map(|r| r.signature(BackendId::REFERENCE).hash()));
        for i in 0..sigs.len() {
            for j in i + 1..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "requests {i} and {j} collide");
            }
        }
        assert_eq!(r1.signature(BackendId::ENGINE), r1.signature(BackendId::ENGINE));
        // Payloads are values, not shapes: they never change the signature
        // (that is exactly what makes the requests coalescible).
        let r5 = Request { payload: 99, ..r1 };
        assert_eq!(r1.signature(BackendId::ENGINE), r5.signature(BackendId::ENGINE));
    }
}
