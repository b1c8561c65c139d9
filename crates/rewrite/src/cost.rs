//! The extraction cost model, anchored on GEMM-engine throughput.
//!
//! Extraction picks the cheapest member of each e-class, so the cost
//! model is where "awareness" becomes a decision: flop counts come from
//! [`laab_expr::cost::mul_cost`] (property discounts for identity /
//! diagonal / triangular / tridiagonal factors and the SYRK pattern — the
//! property-guarded specializations live *here*, not as structural
//! rules), and flops are converted to time-like units with the two
//! throughput regimes the benchmark measures: square GEMM runs at the
//! compute-bound rate (`kernels.gemm_f64_gflops`), while GEMV-shaped
//! products and elementwise sweeps run at the memory-bound rate
//! (`kernels.gemv_f64_gflops`). That ratio is what makes
//! `Hᵀ(H·x)` (two GEMVs) beat `(HᵀH)·x` (one GEMM + one GEMV) by the
//! measured margin rather than by raw flops.
//!
//! Both pricings — [`CostModel::expr_cost`] over a tree and the
//! extractor's sum over selected e-classes — are **DAG costs**: a subterm
//! that occurs twice is priced once, because the trace-time CSE pass
//! computes it once. That keeps the input's cost and the extracted cost
//! comparable, and keeps `(AᵀB)ᵀ(AᵀB)` (two GEMMs, `AᵀB` shared) cheaper
//! than `(BᵀA)(AᵀB)` (three).
//!
//! The anchors are the constants of [`CostModel::default`] and nothing
//! else: extraction decides what a server and a verifying client compute,
//! so it must not depend on a file either of them happens to find.
//!
//! A served plan runs once per request against operands of two
//! lifetimes: the declared-varying ones (the payload) and the shared ones,
//! bound once per key. A subterm whose every leaf is shared is
//! **invariant**: its value is the same on every request, so the plan
//! computes it once per binding ([`Cost::once`]) instead of on every
//! request ([`Cost::request`]). [`CostModel::split_cost`] prices a tree
//! that way, and only when the root itself varies: a plan whose result is
//! invariant hoists nothing (that would be answering from a cache).

use crate::egraph::{EGraph, ENode};
use laab_expr::cost::mul_cost;
use laab_expr::{Context, Expr, Shape};

/// Minimum vector-side dimension below which a product is priced at the
/// memory-bound (GEMV) rate rather than the compute-bound (GEMM) rate.
const GEMV_DIM: usize = 8;

/// A modeled cost split by how often it is paid. Ordered per request
/// first: of two forms, the one cheaper on every request wins, and the
/// one-time work decides only a tie.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cost {
    /// Ticks paid on every execution.
    pub request: u64,
    /// Ticks of hoisted (invariant) work, paid once per binding of the
    /// shared operands it reads.
    pub once: u64,
}

impl Cost {
    /// `self` plus `ticks` of per-request work, or of one-time work when
    /// `hoisted`.
    pub(crate) fn plus(self, ticks: u64, hoisted: bool) -> Cost {
        if hoisted {
            Cost { once: self.once.saturating_add(ticks), ..self }
        } else {
            Cost { request: self.request.saturating_add(ticks), ..self }
        }
    }
}

/// Whether some leaf of `expr` is a declared-varying operand.
fn varies(expr: &Expr, varying: &[&str]) -> bool {
    match expr {
        Expr::Var(name) => varying.contains(&name.as_str()),
        _ => expr.children().into_iter().any(|kid| varies(kid, varying)),
    }
}

/// Throughput-calibrated extraction costs. Units are abstract "time
/// ticks" — flops divided by the regime's relative throughput — so only
/// the *ratio* of the two anchors matters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Compute-bound GFLOP/s: large square GEMM (`kernels.gemm_f64_gflops`).
    pub gemm_gflops: f64,
    /// Memory-bound GFLOP/s: GEMV-shaped products and elementwise sweeps
    /// (`kernels.gemv_f64_gflops`).
    pub gemv_gflops: f64,
}

impl Default for CostModel {
    /// Built-in anchors (≈ the shape of every GEMM / GEMV rate the
    /// benchmark has recorded on this class of hardware: GEMM an order of
    /// magnitude faster per flop than GEMV).
    fn default() -> Self {
        CostModel { gemm_gflops: 40.0, gemv_gflops: 4.0 }
    }
}

impl CostModel {
    /// Penalty multiplier applied to memory-bound flops (≥ 1).
    fn gemv_penalty(&self) -> u64 {
        if self.gemv_gflops <= 0.0 || !self.gemv_gflops.is_finite() {
            return 1;
        }
        ((self.gemm_gflops / self.gemv_gflops).round() as u64).max(1)
    }

    /// Time-like cost of one product `m×k · k×n` with the factors'
    /// properties (discounted flops from [`mul_cost`]) under the
    /// shape-selected throughput regime. Always ≥ 1 so extraction's
    /// bottom-up relaxation is strictly monotone.
    pub fn product_cost(
        &self,
        m: usize,
        k: usize,
        n: usize,
        lp: laab_expr::Props,
        rp: laab_expr::Props,
        syrk: bool,
    ) -> u64 {
        let flops = mul_cost(m, k, n, lp, rp, syrk);
        let memory_bound = m.min(n).min(k) < GEMV_DIM;
        let cost = if memory_bound { flops.saturating_mul(self.gemv_penalty()) } else { flops };
        cost.max(1)
    }

    /// Cost of an elementwise sweep over an `m×n` result (add, sub,
    /// scale, concatenation copies) — always memory-bound.
    fn sweep_cost(&self, shape: Shape) -> u64 {
        ((shape.rows * shape.cols) as u64).saturating_mul(self.gemv_penalty()).max(1)
    }

    /// Cost of one e-node given its child classes' shapes and properties.
    /// Excludes the children's own costs (the extractor sums those).
    pub fn enode_cost(&self, eg: &EGraph, n: &ENode) -> u64 {
        match n {
            // Leaves and transposes are (near-)free: operands are bound,
            // and the graph builder folds transposes into GEMM flags
            // rather than materializing them.
            ENode::Var(_) | ENode::Identity(_) | ENode::Transpose(_) => 1,
            ENode::Mul(a, b) => {
                let (sa, sb) = (eg.class(*a).shape, eg.class(*b).shape);
                self.product_cost(
                    sa.rows,
                    sa.cols,
                    sb.cols,
                    eg.class(*a).props,
                    eg.class(*b).props,
                    eg.transpose_pair(*a, *b),
                )
            }
            ENode::Add(a, _) | ENode::Sub(a, _) => self.sweep_cost(eg.class(*a).shape),
            ENode::Scale(_, x) => self.sweep_cost(eg.class(*x).shape),
            ENode::Elem(_, _, _) => 1,
            ENode::Row(x, _) => (eg.class(*x).shape.cols as u64).max(1),
            ENode::Col(x, _) => (eg.class(*x).shape.rows as u64).max(1),
            ENode::VCat(a, b) | ENode::HCat(a, b) | ENode::BlockDiag(a, b) => self
                .sweep_cost(eg.class(*a).shape)
                .saturating_add(self.sweep_cost(eg.class(*b).shape)),
        }
    }

    /// DAG cost of a plain expression under this model — the same
    /// per-node pricing as [`CostModel::enode_cost`], with structurally
    /// equal subterms priced once (what the trace-time CSE pass executes).
    /// This is the un-extracted baseline reported next to the extracted
    /// cost, in the same units as [`Extraction::cost`](crate::Extraction):
    /// every node priced per request.
    pub fn expr_cost(&self, expr: &Expr, ctx: &Context) -> u64 {
        self.split_cost(expr, ctx, &[]).request
    }

    /// [`CostModel::expr_cost`] split by lifetime (module docs): when the
    /// root reads a `varying` operand, each invariant subterm is priced in
    /// [`Cost::once`]; otherwise everything is per request.
    pub fn split_cost(&self, expr: &Expr, ctx: &Context, varying: &[&str]) -> Cost {
        // A list, not a hash set: the serving path prices a ten-node
        // expression per request, where hashing every subtree costs more
        // than comparing against the few already seen.
        let mut seen = Vec::with_capacity(16);
        let hoist = !varying.is_empty() && varies(expr, varying);
        self.unseen_cost(expr, ctx, hoist.then_some(varying), &mut seen).0
    }

    /// Cost of the subterms of `expr` not yet in `seen` (zero when `expr`
    /// itself was priced before), and whether `expr` is invariant. With
    /// `varying`, invariant subterms are priced once.
    fn unseen_cost<'e>(
        &self,
        expr: &'e Expr,
        ctx: &Context,
        varying: Option<&[&str]>,
        seen: &mut Vec<(&'e Expr, bool)>,
    ) -> (Cost, bool) {
        if let Some(&(_, invariant)) = seen.iter().find(|(e, _)| *e == expr) {
            return (Cost::default(), invariant);
        }
        let sweep = |x: &Expr| self.sweep_cost(x.shape(ctx));
        // Own cost and children, matched in place: `Expr::children`
        // would allocate once per node on a per-request path.
        let (own, kids) = match expr {
            Expr::Var(_) | Expr::Identity(_) => (1, [None, None]),
            Expr::Transpose(x) => (1, [Some(x), None]),
            Expr::Mul(a, b) => {
                let (sa, sb) = (a.shape(ctx), b.shape(ctx));
                let own = self.product_cost(
                    sa.rows,
                    sa.cols,
                    sb.cols,
                    a.props(ctx),
                    b.props(ctx),
                    laab_expr::is_transpose_pair(a, b),
                );
                (own, [Some(a), Some(b)])
            }
            Expr::Add(a, b) | Expr::Sub(a, b) => (sweep(a), [Some(a), Some(b)]),
            Expr::Scale(_, x) => (sweep(x), [Some(x), None]),
            Expr::Elem(x, _, _) => (1, [Some(x), None]),
            Expr::Row(x, _) => ((x.shape(ctx).cols as u64).max(1), [Some(x), None]),
            Expr::Col(x, _) => ((x.shape(ctx).rows as u64).max(1), [Some(x), None]),
            Expr::VCat(a, b) | Expr::HCat(a, b) | Expr::BlockDiag(a, b) => {
                (sweep(a).saturating_add(sweep(b)), [Some(a), Some(b)])
            }
        };
        let leaf_varies =
            matches!(expr, Expr::Var(name) if varying.is_some_and(|v| v.contains(&name.as_str())));
        let (mut cost, mut invariant) = (Cost::default(), !leaf_varies);
        for kid in kids.into_iter().flatten() {
            let (c, inv) = self.unseen_cost(kid, ctx, varying, seen);
            cost = cost.plus(c.request, false).plus(c.once, true);
            invariant &= inv;
        }
        seen.push((expr, invariant));
        (cost.plus(own, varying.is_some() && invariant), invariant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_expr::var;

    #[test]
    fn gemv_regime_is_penalized_per_flop() {
        let m = CostModel::default();
        let ctx = Context::new().with("H", 64, 64).with("x", 64, 1);
        // (HᵀH)x: GEMM + GEMV vs Hᵀ(Hx): two GEMVs.
        let left = (var("H").t() * var("H")) * var("x");
        let right = var("H").t() * (var("H") * var("x"));
        assert!(
            m.expr_cost(&right, &ctx) < m.expr_cost(&left, &ctx),
            "two GEMVs must beat GEMM+GEMV"
        );
    }

    #[test]
    fn shared_subterms_are_priced_once() {
        let m = CostModel::default();
        let n = 16;
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        let s = var("A").t() * var("B");
        let gemm = 2 * (n * n * n) as u64;
        // S = AᵀB: one GEMM plus the A, Aᵀ, B ticks.
        assert_eq!(m.expr_cost(&s, &ctx), gemm + 3);
        // SᵀS: S once, the transpose tick, and the SYRK-discounted outer
        // product — not two copies of S.
        let gram = s.clone().t() * s.clone();
        assert_eq!(m.expr_cost(&gram, &ctx), (gemm + 3) + 1 + gemm / 2);
        // (BᵀA)·S shares only the leaves: three full GEMMs.
        let spelled = (var("B").t() * var("A")) * s;
        assert_eq!(m.expr_cost(&spelled, &ctx), 3 * gemm + 4);
    }
}
