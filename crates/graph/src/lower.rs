//! The graph builder's expression front end: [`lower`] walks an [`Expr`]
//! into the builder of [`crate::passes`] under [`PassConfig::all`] — the
//! served compiler's one path to a graph, built once.

use laab_expr::{Context, Expr, Shape};

use crate::ir::{Graph, NodeId, OpKind};
use crate::passes::{Builder, PassConfig, Val};

/// Room for every served graph and the scalings its fold drops, so the
/// served walk allocates the node vector once.
const NODES: usize = 12;

/// Lower `expr` over the shapes in `ctx` to a graph with one output
/// under [`PassConfig::all`], with the `Syrk` form iff `syrk` — the
/// served compile. The lowering allocates what the graph owns (the node
/// vector, each operand name and input list, the output list) and one
/// per-node count.
pub fn lower(expr: &Expr, ctx: &Context, syrk: bool) -> Graph {
    let mut b = Builder::new(PassConfig::all(), syrk, NODES);
    let root = b.walk(expr, ctx);
    let out = b.materialise(root);
    b.finish(vec![out]).0
}

impl Builder {
    /// Walk `e` into the builder (the [`lower`] front end).
    fn walk(&mut self, e: &Expr, ctx: &Context) -> Val {
        match e {
            Expr::Var(name) => self.input(name, || ctx.expect(name).shape),
            Expr::Identity(n) => self.op(OpKind::Identity(*n), &[], Shape::new(*n, *n)),
            Expr::Transpose(x) => {
                let v = self.walk(x, ctx);
                self.transpose(v)
            }
            Expr::Scale(c, x) => {
                let v = self.walk(x, ctx);
                self.scale(c.0, v)
            }
            Expr::Mul(a, b) => {
                let (a, b) = (self.walk(a, ctx), self.walk(b, ctx));
                self.matmul(a, b, 1.0)
            }
            Expr::Add(a, b) => self.walk_op(OpKind::Add, &[a, b], ctx),
            Expr::Sub(a, b) => self.walk_op(OpKind::Sub, &[a, b], ctx),
            Expr::Elem(x, i, j) => self.walk_op(OpKind::Elem(*i, *j), &[x], ctx),
            Expr::Row(x, i) => self.walk_op(OpKind::Row(*i), &[x], ctx),
            Expr::Col(x, j) => self.walk_op(OpKind::Col(*j), &[x], ctx),
            Expr::VCat(a, b) => self.walk_op(OpKind::VCat, &[a, b], ctx),
            Expr::HCat(a, b) => self.walk_op(OpKind::HCat, &[a, b], ctx),
            Expr::BlockDiag(a, b) => self.walk_op(OpKind::BlockDiag, &[a, b], ctx),
        }
    }

    /// `kind` over the walked `children`, with its shape inferred.
    fn walk_op(&mut self, kind: OpKind, children: &[&Expr], ctx: &Context) -> Val {
        let mut args = [Val::of(NodeId(0)); 2];
        for (arg, child) in args.iter_mut().zip(children) {
            *arg = self.walk(child, ctx);
        }
        let args = &args[..children.len()];
        let (a, b) = (self.shape(args[0]), self.shape(args[args.len() - 1]));
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
        self.op(kind, args, Shape::new(rows, cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::rebuild;
    use laab_expr::{scale, var};
    use laab_kernels::Trans;

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
    fn two_spellings_of_one_scaled_product_are_one_gemm() {
        // (2A)ᵀ·B and 2·(AᵀB) are one product carrying 2 pending, so
        // their sum is `x + x`: one GEMM with alpha 4, and no node that a
        // second build would change.
        let e = scale(2.0, var("A")).t() * var("B") + scale(2.0, var("A").t() * var("B"));
        let g = lower(&e, &ctx(), false);
        g.check_topology().unwrap();
        assert_eq!((g.matmul_count(), g.len()), (1, 3));
        assert_eq!(g.node(g.outputs[0]).kind.alpha(), 4.0);
        assert_eq!(rebuild(&g, &PassConfig::all(), false).0, g);
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
