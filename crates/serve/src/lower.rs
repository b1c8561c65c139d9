//! The served compiler's one path from an [`Expr`] to a [`Graph`]: one
//! walk instead of the frameworks' trace and pass fixpoint. A value
//! carries a pending transpose and scale, which a product absorbs as GEMM
//! flags and `alpha` and any other consumer materialises. `x + x` is
//! `2·x`; nodes are hash-consed on `(OpKind, inputs)` as they are built;
//! after the walk a `c·(product)` with one consumer folds into `alpha`.
//! With `syrk` set (the e-graph level) a product of one node with its own
//! transpose, result side ≥ 2, is built as [`OpKind::Syrk`].
//!
//! One orientation rule: a product of a bitwise-symmetric node (a `Syrk`,
//! or the `MatMul` of one node with its own transpose) with a vector
//! reads that node transposed. Every element `(i, j)` of `XᵀX` is the
//! fused chain of `(j, i)` with each product's factors swapped, and
//! `fma(a, b, c) == fma(b, a, c)`, so `G` equals `Gᵀ` bit for bit and
//! `Gᵀ·x` is `G·x`'s bits; but `gemv_multi` keeps the result's rows in its
//! SIMD lanes only for `Gᵀ·x`, the faster sweep (1.4× at f64, 3× at f32,
//! four vectors at n = 192).

use std::collections::HashMap;

use laab_expr::{Context, Expr, Factor, Shape};
use laab_graph::{Graph, Node, NodeId, OpKind};
use laab_kernels::Trans;

/// A lowered value: `c · op(node)`, not yet materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Val {
    node: NodeId,
    t: Trans,
    c: Factor,
}

impl Val {
    fn of(node: NodeId) -> Val {
        Val { node, t: Trans::No, c: Factor(1.0) }
    }
}

struct Lowering<'a> {
    ctx: &'a Context,
    syrk: bool,
    nodes: Vec<Node>,
    table: HashMap<(OpKind, Vec<NodeId>), NodeId>,
}

/// Lower `expr` over the shapes in `ctx` to a graph with one output.
pub(crate) fn lower(expr: &Expr, ctx: &Context, syrk: bool) -> Graph {
    let mut l = Lowering { ctx, syrk, nodes: Vec::new(), table: HashMap::new() };
    let root = l.value(expr);
    let out = l.materialise(root);
    l.fold_scales(out)
}

impl Lowering<'_> {
    fn shape(&self, id: NodeId) -> Shape {
        self.nodes[id.idx()].shape
    }

    /// The node computing `kind` over `inputs`, built on first use.
    fn node(&mut self, kind: OpKind, inputs: Vec<NodeId>, shape: Shape) -> NodeId {
        let key = match kind {
            OpKind::MatMul { ta, tb, alpha_bits }
                if self.syrk && inputs[0] == inputs[1] && ta != tb && shape.rows >= 2 =>
            {
                (OpKind::Syrk { trans: ta, alpha_bits }, vec![inputs[0]])
            }
            kind => (kind, inputs),
        };
        if let Some(&id) = self.table.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind: key.0.clone(), inputs: key.1.clone(), shape });
        self.table.insert(key, id);
        id
    }

    fn value(&mut self, e: &Expr) -> Val {
        match e {
            Expr::Var(name) => self.leaf(OpKind::Input(name.clone()), self.ctx.expect(name).shape),
            Expr::Identity(n) => self.leaf(OpKind::Identity(*n), Shape::new(*n, *n)),
            Expr::Transpose(x) => {
                let v = self.value(x);
                Val { t: v.t.flip(), ..v }
            }
            Expr::Scale(c, x) => {
                let v = self.value(x);
                Val { c: Factor(c.0 * v.c.0), ..v }
            }
            Expr::Mul(a, b) => {
                let (a, b) = (self.value(a), self.value(b));
                let (sa, sb) = (self.shape(a.node), self.shape(b.node));
                let ((rows, k), (kb, cols)) =
                    (a.t.dims(sa.rows, sa.cols), b.t.dims(sb.rows, sb.cols));
                assert_eq!(k, kb, "matmul: dimension mismatch in `{e}`");
                let alpha_bits = (a.c.0 * b.c.0).to_bits();
                let ta = if cols == 1 && self.symmetric(a.node) { Trans::Yes } else { a.t };
                let kind = OpKind::MatMul { ta, tb: b.t, alpha_bits };
                Val::of(self.node(kind, vec![a.node, b.node], Shape::new(rows, cols)))
            }
            Expr::Add(..) => self.op(OpKind::Add, e),
            Expr::Sub(..) => self.op(OpKind::Sub, e),
            Expr::Elem(_, i, j) => self.op(OpKind::Elem(*i, *j), e),
            Expr::Row(_, i) => self.op(OpKind::Row(*i), e),
            Expr::Col(_, j) => self.op(OpKind::Col(*j), e),
            Expr::VCat(..) => self.op(OpKind::VCat, e),
            Expr::HCat(..) => self.op(OpKind::HCat, e),
            Expr::BlockDiag(..) => self.op(OpKind::BlockDiag, e),
        }
    }

    /// Whether node `id` is a product of one node with its own transpose,
    /// and so bitwise symmetric (module docs).
    fn symmetric(&self, id: NodeId) -> bool {
        let node = &self.nodes[id.idx()];
        match node.kind {
            OpKind::Syrk { .. } => true,
            OpKind::MatMul { ta, tb, .. } => node.inputs[0] == node.inputs[1] && ta != tb,
            _ => false,
        }
    }

    fn leaf(&mut self, kind: OpKind, shape: Shape) -> Val {
        Val::of(self.node(kind, vec![], shape))
    }

    /// Apply a value's pending scale, then its pending transpose.
    fn materialise(&mut self, v: Val) -> NodeId {
        let (mut id, shape) = (v.node, self.shape(v.node));
        if v.c != Factor(1.0) {
            id = self.node(OpKind::Scale(v.c.0.to_bits()), vec![id], shape);
        }
        if v.t == Trans::Yes {
            id = self.node(OpKind::Transpose, vec![id], shape.t());
        }
        id
    }

    /// `kind` over the children of `e`, each materialised once lowered;
    /// `x + x` is `2·x` (the materialised `x` may then go unused).
    fn op(&mut self, kind: OpKind, e: &Expr) -> Val {
        let (mut first, mut inputs) = (None, Vec::new());
        for child in e.children() {
            let v = self.value(child);
            if kind == OpKind::Add && first == Some(v) {
                return Val { c: Factor(2.0 * v.c.0), ..v };
            }
            first = first.or(Some(v));
            inputs.push(self.materialise(v));
        }
        let (a, b) = (self.shape(inputs[0]), self.shape(inputs[inputs.len() - 1]));
        let (rows, cols) = match kind {
            OpKind::Elem(..) => (1, 1),
            OpKind::Row(_) => (1, a.cols),
            OpKind::Col(_) => (a.rows, 1),
            OpKind::VCat => (a.rows + b.rows, a.cols),
            OpKind::HCat => (a.rows, a.cols + b.cols),
            OpKind::BlockDiag => (a.rows + b.rows, a.cols + b.cols),
            _ => {
                assert_eq!(a, b, "elementwise: shape mismatch");
                (a.rows, a.cols)
            }
        };
        Val::of(self.node(kind, inputs, Shape::new(rows, cols)))
    }

    /// Fold each `c·(product)` whose product has no other live consumer
    /// into its `alpha`, then rebuild the live nodes in order through a
    /// fresh table, so a fold that duplicated a node merges.
    fn fold_scales(mut self, out: NodeId) -> Graph {
        let mut uses = vec![0u32; self.nodes.len()];
        uses[out.idx()] = 1;
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if uses[i] > 0 {
                node.inputs.iter().for_each(|inp| uses[inp.idx()] += 1);
            }
        }
        for i in 0..self.nodes.len() {
            let OpKind::Scale(c) = self.nodes[i].kind else { continue };
            let p = self.nodes[i].inputs[0].idx();
            let mut product = self.nodes[p].clone();
            if let (OpKind::MatMul { alpha_bits, .. } | OpKind::Syrk { alpha_bits, .. }, true) =
                (&mut product.kind, uses[i] > 0 && uses[p] == 1)
            {
                *alpha_bits = (f64::from_bits(*alpha_bits) * f64::from_bits(c)).to_bits();
                (self.nodes[i], uses[p]) = (product, 0);
            }
        }
        let old = std::mem::take(&mut self.nodes);
        self.table.clear();
        let mut remap = vec![NodeId(u32::MAX); old.len()];
        for (i, node) in old.into_iter().enumerate().filter(|(i, _)| uses[*i] > 0) {
            let inputs = node.inputs.iter().map(|id| remap[id.idx()]).collect();
            remap[i] = self.node(node.kind, inputs, node.shape);
        }
        Graph { nodes: self.nodes, outputs: vec![remap[out.idx()]] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_expr::{scale, var};

    const ONE: u64 = 0x3FF0_0000_0000_0000;

    fn ctx() -> Context {
        Context::new().with("X", 5, 3).with("A", 6, 4).with("B", 6, 7).with("x", 9, 1)
    }

    fn syrk_graph(e: &Expr) -> Graph {
        let g = lower(e, &ctx(), true);
        g.check_topology().unwrap();
        g
    }

    #[test]
    fn both_spellings_of_a_same_node_product_become_syrk() {
        for (e, trans, side) in
            [(var("X").t() * var("X"), Trans::Yes, 3), (var("X") * var("X").t(), Trans::No, 5)]
        {
            let g = syrk_graph(&e);
            assert_eq!((g.syrk_count(), g.matmul_count(), g.len()), (1, 1, 2), "{e}");
            let node = g.node(g.outputs[0]);
            assert_eq!(node.kind, OpKind::Syrk { trans, alpha_bits: ONE });
            assert_eq!(node.inputs.len(), 1);
            assert_eq!((node.shape.rows, node.shape.cols), (side, side));
            assert!(g.to_dot("syrk").contains("syrk"));
        }
    }

    #[test]
    fn alpha_rides_along_on_a_deduplicated_intermediate() {
        // Fig. 3's SᵀS over the one S = AᵀB node, scaled: the scaling
        // folds into the Syrk's alpha.
        let s = var("A").t() * var("B");
        let g = syrk_graph(&scale(-0.5, s.t() * s));
        assert_eq!((g.syrk_count(), g.matmul_count(), g.len()), (1, 2, 4));
        let node = g.node(g.outputs[0]);
        assert_eq!(node.kind, OpKind::Syrk { trans: Trans::Yes, alpha_bits: (-0.5f64).to_bits() });
        assert!(matches!(g.node(node.inputs[0]).kind, OpKind::MatMul { .. }));
    }

    #[test]
    fn every_other_product_stays_a_matmul() {
        let ctx = ctx().with("C", 4, 4).with("D", 4, 4).with("r", 1, 9);
        for e in [
            // Distinct operands (equal values would not matter: the test
            // is on node identity), square and not.
            var("C").t() * var("D"),
            var("A").t() * var("B"),
            // Equal flags: X·X and XᵀXᵀ are not symmetric products.
            var("C") * var("C"),
            var("C").t() * var("C").t(),
            // A 1×1 result keeps its DOT lowering, column or row vector.
            var("x").t() * var("x"),
            var("r") * var("r").t(),
        ] {
            let g = lower(&e, &ctx, true);
            assert_eq!((g.syrk_count(), g.matmul_count()), (0, 1), "{e}");
        }
    }

    #[test]
    fn the_passes_level_never_builds_syrk() {
        let s = var("A").t() * var("B");
        for e in [var("X").t() * var("X"), var("X") * var("X").t(), s.t() * s] {
            let g = lower(&e, &ctx(), false);
            assert_eq!(g.syrk_count(), 0, "{e}");
            let node = g.node(g.outputs[0]);
            assert_eq!(node.inputs[0], node.inputs[1], "{e}: one node in both slots");
        }
    }

    #[test]
    fn a_doubled_product_is_one_gemm_with_alpha_two() {
        // Table II's E1: AᵀB + AᵀB.
        let s = var("A").t() * var("B");
        let g = lower(&(s.clone() + s), &ctx(), false);
        assert_eq!((g.matmul_count(), g.len()), (1, 3));
        assert_eq!(g.node(g.outputs[0]).kind.alpha(), 2.0);
    }

    #[test]
    fn a_shared_product_keeps_alpha_one() {
        // Folding 2 into the product would change its other consumer.
        let p = var("A").t() * var("B");
        let g = lower(&(scale(2.0, p.clone()) - p), &ctx(), false);
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Scale(_))), 1);
        let product = g.nodes.iter().find(|n| matches!(n.kind, OpKind::MatMul { .. })).unwrap();
        assert_eq!(product.kind.alpha(), 1.0);
    }

    #[test]
    fn a_symmetric_factor_times_a_vector_is_read_transposed() {
        // XᵀX·x at both levels, and (XᵀX)ᵀ·x: the symmetric factor is read
        // through the `Aᵀ` sweep. A general matrix, or a symmetric one
        // times a matrix, keeps its flag.
        let ctx = ctx().with("v", 3, 1).with("M", 3, 3).with("W", 3, 4);
        let gram = var("X").t() * var("X");
        for e in [gram.clone() * var("v"), gram.t() * var("v")] {
            for level in [false, true] {
                let g = lower(&e, &ctx, level);
                let node = g.node(g.outputs[0]);
                let OpKind::MatMul { ta, tb, .. } = node.kind else { panic!("{e}") };
                assert_eq!((ta, tb), (Trans::Yes, Trans::No), "{e} syrk={level}");
                assert_eq!(g.syrk_count(), usize::from(level), "{e}");
            }
        }
        for e in [var("M") * var("v"), gram * var("W")] {
            let g = lower(&e, &ctx, true);
            let OpKind::MatMul { ta, .. } = g.node(g.outputs[0]).kind else { panic!("{e}") };
            assert_eq!(ta, Trans::No, "{e}");
        }
    }

    #[test]
    fn transposes_cancel_and_scalings_combine() {
        let g = lower(&scale(3.0, scale(2.0, var("X").t()).t()), &ctx(), false);
        assert_eq!(g.len(), 2, "one input, one scaling");
        assert_eq!(g.node(g.outputs[0]).kind, OpKind::Scale(6.0f64.to_bits()));
    }
}
