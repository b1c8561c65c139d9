//! The served compiler's one path from an [`Expr`] to a [`Graph`]: one
//! walk instead of the frameworks' trace and pass fixpoint. A value
//! carries a pending transpose and scale, which a product absorbs as GEMM
//! flags and `alpha` and any other consumer materialises. `x + x` is
//! `2·x`; nodes are hash-consed on `(OpKind, inputs)` as they are built,
//! by scanning the nodes already built (a served graph has 2–9, so a scan
//! beats hashing and clones no key); after the walk a `c·(product)` with
//! one consumer folds into `alpha` in place. With `syrk` set (the e-graph
//! level) a product of one node with its own transpose, result side ≥ 2,
//! is built as [`OpKind::Syrk`].
//!
//! The graph is built once: the walk's node vector becomes the plan's,
//! compacted in place to drop the nodes nothing reads. The lowering
//! allocates what the graph owns (the node vector, each operand name and
//! input list, the output list) and one per-node count.
//!
//! One orientation rule: a product of a bitwise-symmetric node (a `Syrk`,
//! or the `MatMul` of one node with its own transpose) with a vector
//! reads that node transposed. Every element `(i, j)` of `XᵀX` is the
//! fused chain of `(j, i)` with each product's factors swapped, and
//! `fma(a, b, c) == fma(b, a, c)`, so `G` equals `Gᵀ` bit for bit and
//! `Gᵀ·x` is `G·x`'s bits; but `gemv_multi` keeps the result's rows in its
//! SIMD lanes only for `Gᵀ·x`, the faster sweep (1.4× at f64, 3× at f32,
//! four vectors at n = 192).

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

/// Room for every served graph and the nodes its walk leaves unread,
/// so the node vector is allocated once.
const NODES: usize = 12;

/// The use count marking a scaling folded into its product.
const FOLDED: u32 = u32::MAX;

struct Lowering<'a> {
    ctx: &'a Context,
    syrk: bool,
    nodes: Vec<Node>,
}

/// Lower `expr` over the shapes in `ctx` to a graph with one output.
pub(crate) fn lower(expr: &Expr, ctx: &Context, syrk: bool) -> Graph {
    let mut l = Lowering { ctx, syrk, nodes: Vec::with_capacity(NODES) };
    let root = l.value(expr);
    let out = l.materialise(root);
    l.fold_scales(out)
}

impl Lowering<'_> {
    fn shape(&self, id: NodeId) -> Shape {
        self.nodes[id.idx()].shape
    }

    /// The node computing `kind` over `inputs`: the equal one already
    /// built, or a new one.
    fn node(&mut self, kind: OpKind, inputs: &[NodeId], shape: Shape) -> NodeId {
        let (kind, inputs) = match kind {
            OpKind::MatMul { ta, tb, alpha_bits }
                if self.syrk && inputs[0] == inputs[1] && ta != tb && shape.rows >= 2 =>
            {
                (OpKind::Syrk { trans: ta, alpha_bits }, &inputs[..1])
            }
            kind => (kind, inputs),
        };
        let built = self.nodes.iter().position(|n| n.kind == kind && n.inputs == inputs);
        NodeId(built.unwrap_or_else(|| {
            self.nodes.push(Node { kind, inputs: inputs.to_vec(), shape });
            self.nodes.len() - 1
        }) as u32)
    }

    fn value(&mut self, e: &Expr) -> Val {
        match e {
            Expr::Var(name) => {
                let input = |n: &Node| matches!(&n.kind, OpKind::Input(x) if x == name);
                Val::of(match self.nodes.iter().position(input) {
                    Some(built) => NodeId(built as u32),
                    None => {
                        let shape = self.ctx.expect(name).shape;
                        self.node(OpKind::Input(name.clone()), &[], shape)
                    }
                })
            }
            Expr::Identity(n) => Val::of(self.node(OpKind::Identity(*n), &[], Shape::new(*n, *n))),
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
                Val::of(self.node(kind, &[a.node, b.node], Shape::new(rows, cols)))
            }
            Expr::Add(a, b) => self.op(OpKind::Add, &[a, b]),
            Expr::Sub(a, b) => self.op(OpKind::Sub, &[a, b]),
            Expr::Elem(x, i, j) => self.op(OpKind::Elem(*i, *j), &[x]),
            Expr::Row(x, i) => self.op(OpKind::Row(*i), &[x]),
            Expr::Col(x, j) => self.op(OpKind::Col(*j), &[x]),
            Expr::VCat(a, b) => self.op(OpKind::VCat, &[a, b]),
            Expr::HCat(a, b) => self.op(OpKind::HCat, &[a, b]),
            Expr::BlockDiag(a, b) => self.op(OpKind::BlockDiag, &[a, b]),
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

    /// Apply a value's pending scale, then its pending transpose.
    fn materialise(&mut self, v: Val) -> NodeId {
        let (mut id, shape) = (v.node, self.shape(v.node));
        if v.c != Factor(1.0) {
            id = self.node(OpKind::Scale(v.c.0.to_bits()), &[id], shape);
        }
        if v.t == Trans::Yes {
            id = self.node(OpKind::Transpose, &[id], shape.t());
        }
        id
    }

    /// `kind` over `children`, each materialised once lowered; `x + x` is
    /// `2·x` (the materialised `x` may then go unused).
    fn op(&mut self, kind: OpKind, children: &[&Expr]) -> Val {
        let mut inputs = [NodeId(0); 2];
        let mut first = None;
        for (slot, child) in inputs.iter_mut().zip(children) {
            let v = self.value(child);
            if kind == OpKind::Add && first == Some(v) {
                return Val { c: Factor(2.0 * v.c.0), ..v };
            }
            first = first.or(Some(v));
            *slot = self.materialise(v);
        }
        let inputs = &inputs[..children.len()];
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
    /// into the product's `alpha`, then compact the nodes in place: drop
    /// the folded scalings and every node nothing live reads, and point
    /// each survivor at its inputs' new places. Only a fold can make two
    /// nodes equal (a product then matches one built with that `alpha`),
    /// so only then are survivors merged with an equal earlier one.
    fn fold_scales(mut self, out: NodeId) -> Graph {
        // Live uses per node; after the compaction, each node's new id.
        let mut uses = vec![0u32; self.nodes.len()];
        uses[out.idx()] = 1;
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if uses[i] > 0 {
                node.inputs.iter().for_each(|inp| uses[inp.idx()] += 1);
            }
        }
        let mut folded = false;
        for i in 0..self.nodes.len() {
            let OpKind::Scale(c) = self.nodes[i].kind else { continue };
            let p = self.nodes[i].inputs[0].idx();
            if uses[i] == 0 || uses[p] != 1 {
                continue;
            }
            if let OpKind::MatMul { alpha_bits, .. } | OpKind::Syrk { alpha_bits, .. } =
                &mut self.nodes[p].kind
            {
                *alpha_bits = (f64::from_bits(*alpha_bits) * f64::from_bits(c)).to_bits();
                (uses[i], folded) = (FOLDED, true);
            }
        }
        let mut kept = 0;
        for i in 0..self.nodes.len() {
            match uses[i] {
                0 => continue,
                FOLDED => {
                    uses[i] = uses[self.nodes[i].inputs[0].idx()];
                    continue;
                }
                _ => {}
            }
            for inp in &mut self.nodes[i].inputs {
                *inp = NodeId(uses[inp.idx()]);
            }
            let (before, rest) = self.nodes.split_at_mut(i);
            let equal = |n: &Node| n.kind == rest[0].kind && n.inputs == rest[0].inputs;
            uses[i] = match folded.then(|| before[..kept].iter().position(equal)).flatten() {
                Some(same) => same as u32,
                None => {
                    self.nodes.swap(kept, i);
                    kept += 1;
                    kept as u32 - 1
                }
            };
        }
        self.nodes.truncate(kept);
        Graph { nodes: self.nodes, outputs: vec![NodeId(uses[out.idx()])] }
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
    fn a_fold_that_makes_two_products_equal_merges_them() {
        // (2A)·B is built with alpha 2; 2·(A·B) folds into a second
        // product with alpha 2 over the same inputs, which is the first.
        let e = scale(2.0, var("A")).t() * var("B") + scale(2.0, var("A").t() * var("B"));
        let g = lower(&e, &ctx(), false);
        g.check_topology().unwrap();
        assert_eq!((g.matmul_count(), g.len()), (1, 4));
        let add = g.node(g.outputs[0]);
        assert_eq!((&add.kind, add.inputs[0] == add.inputs[1]), (&OpKind::Add, true));
        assert_eq!(g.node(add.inputs[0]).kind.alpha(), 2.0);
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
