//! The extraction cost model, anchored on GEMM-engine throughput.
//!
//! Extraction picks the cheapest member of each e-class, so the cost
//! model is where "awareness" becomes a decision: flop counts come from
//! [`laab_expr::cost::mul_cost`] (property discounts for identity /
//! diagonal / triangular / tridiagonal factors and the SYRK pattern — the
//! property-guarded specializations live *here*, not as structural
//! rules), and flops are converted to time-like units with the two
//! throughput regimes `laab bench` measures: square GEMM runs at the
//! compute-bound rate (`summary.engine_gflops`), while GEMV-shaped
//! products and elementwise sweeps run at the memory-bound rate (the
//! batch-1 anchor of `summary.batch_gflops`). That ratio is what makes
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

use crate::egraph::{EGraph, ENode};
use laab_expr::cost::mul_cost;
use laab_expr::{Context, Expr, Shape};

/// Minimum vector-side dimension below which a product is priced at the
/// memory-bound (GEMV) rate rather than the compute-bound (GEMM) rate.
const GEMV_DIM: usize = 8;

/// Throughput-calibrated extraction costs. Units are abstract "time
/// ticks" — flops divided by the regime's relative throughput — so only
/// the *ratio* of the two anchors matters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Compute-bound GFLOP/s: large square GEMM (`summary.engine_gflops`).
    pub gemm_gflops: f64,
    /// Memory-bound GFLOP/s: GEMV-shaped products and elementwise sweeps
    /// (the batch-1 anchor of `summary.batch_gflops`).
    pub gemv_gflops: f64,
}

impl Default for CostModel {
    /// Built-in anchors (≈ the shape of every curve `laab bench` has
    /// produced on this class of hardware: GEMM an order of magnitude
    /// faster per flop than GEMV).
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
            // and the trace-time `fold_transpose` pass folds transposes
            // into GEMM flags rather than materializing them.
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
    /// cost, in the same units as [`Extraction::cost`](crate::Extraction).
    pub fn expr_cost(&self, expr: &Expr, ctx: &Context) -> u64 {
        // A list, not a hash set: the serving path prices a ten-node
        // expression per request, where hashing every subtree costs more
        // than comparing against the few already seen.
        let mut seen = Vec::with_capacity(16);
        self.unseen_cost(expr, ctx, &mut seen)
    }

    /// Cost of the subterms of `expr` not yet in `seen` (0 when `expr`
    /// itself was priced before).
    fn unseen_cost<'e>(&self, expr: &'e Expr, ctx: &Context, seen: &mut Vec<&'e Expr>) -> u64 {
        if seen.contains(&expr) {
            return 0;
        }
        seen.push(expr);
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
        kids.into_iter()
            .flatten()
            .fold(own, |acc, kid| acc.saturating_add(self.unseen_cost(kid, ctx, seen)))
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
