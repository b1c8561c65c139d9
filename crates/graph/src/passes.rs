//! The one graph builder: the graph-mode optimization inventory as steps
//! taken while each node is built, its [`PassConfig`] switches, and the
//! front end that rebuilds a trace.
//!
//! The builder implements exactly the optimization inventory the paper
//! observes in TF/PyT graph mode — and nothing more — not as passes over
//! a built graph:
//!
//! 1. **Transpose folding** — a transpose is a pending flag on its value:
//!    a `matmul` takes it as GEMM's `transa`/`transb`, so `AᵀB` costs one
//!    GEMM (Table I, row 1), and any other consumer materialises it.
//!    Double transposes cancel.
//! 2. **CSE** — before a node is pushed, the nodes already built are
//!    scanned for an equal `(kind, inputs)`: duplicates that "compute the
//!    exact same operation for the same input data" are one node (the
//!    Fig. 3 optimization). A graph has a handful of nodes, so a scan
//!    beats hashing and clones no key; egg hash-conses the same way while
//!    it builds its e-graph (Willsey et al., POPL 2021). Because the key
//!    is structural, the non-parenthesized chain of Fig. 4 is *not*
//!    deduplicated — reproducing the paper's central CSE finding.
//! 3. **Scale fusion** — a scaling is a pending factor: nested scalings
//!    combine, a product takes its operands' factors along (every
//!    product is built with `alpha = 1` and carries its factor pending),
//!    `x + x` is `2·x`, and at the end a scaling of a product with no
//!    other consumer folds into the product's `alpha` in place (the "no
//!    additional overhead" BLAS observation in Experiment 1); one
//!    compaction drops the folded scalings.
//! 4. **DCE** — the traced nodes no output reads are never built.
//!
//! A [`PassConfig`] switch turned off skips its step: the builder
//! materialises each transpose or scaling on the spot, pushes without a
//! scan, or builds the unread nodes too. With all four off it rebuilds a
//! trace verbatim. Since every product carries its factor pending, equal
//! products are equal when built, and the fold makes no two nodes equal:
//! one build reaches the normal form, and rebuilding it changes nothing.
//!
//! One orientation rule, for every caller, taken with transpose folding
//! (which sets the GEMM flags; without it the traced flags stay): a
//! product of a bitwise-symmetric node (a `Syrk`, or the `MatMul` of one
//! node with its own transpose) with a vector reads that node transposed.
//! Every element `(i, j)` of `XᵀX` is the fused chain of `(j, i)` with
//! each product's factors swapped, and `fma(a, b, c) == fma(b, a, c)`, so
//! `G` equals `Gᵀ` bit for bit and `Gᵀ·x` is `G·x`'s bits; but
//! `gemv_multi` keeps the result's rows in its SIMD lanes only for
//! `Gᵀ·x`, the faster sweep (1.4× at f64, 3× at f32, four vectors at
//! n = 192).
//!
//! The one option outside [`PassConfig`] is the `Syrk` form: with it (the
//! served e-graph level, never the frameworks, so Table IV keeps their
//! GEMM) a product of one node with its own transpose, result side ≥ 2,
//! is built as [`OpKind::Syrk`] — the one piece of Experiment 3's
//! property dispatch that needs no declared property.
//!
//! Two front ends feed the builder. [`optimize`] (and [`rebuild`])
//! rebuilds a traced graph node by node: the graph mode of the simulated
//! frameworks, whose trace may have several outputs and framework-only
//! nodes (`TridiagMatMul`). The served compiler walks its expression into
//! the builder ([`crate::lower()`]); rebuilding the trace of an expression
//! gives the graph that walk builds.
//!
//! Chain re-association, distributivity, property dispatch and slicing
//! push-down are deliberately absent (Experiments 2–5 show the frameworks
//! lack them); they live in `laab-rewrite` instead.

use laab_expr::{Factor, Shape};
use laab_kernels::Trans;

use crate::ir::{Graph, Node, NodeId, OpKind};

/// Which builder steps to take (the ablation benchmark toggles these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Take transposes as pending flags that products read as GEMM flags.
    pub fold_transpose: bool,
    /// Hash-cons: reuse an equal node already built.
    pub cse: bool,
    /// Take scalings as pending factors: `x+x → 2x`, scale-into-`alpha`.
    pub fuse_scale: bool,
    /// Build only the traced nodes an output reads.
    pub dce: bool,
}

impl PassConfig {
    /// The full graph-mode pipeline (what `@tf.function` enables).
    pub fn all() -> Self {
        Self { fold_transpose: true, cse: true, fuse_scale: true, dce: true }
    }

    /// No optimization at all — executing the trace verbatim (the paper's
    /// Eager-mode cost model).
    pub fn none() -> Self {
        Self { fold_transpose: false, cse: false, fuse_scale: false, dce: false }
    }
}

impl Default for PassConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// What the builder did (asserted by tests, reported by the ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Transposes taken as pending flags.
    pub transposes_folded: usize,
    /// Nodes found already built instead of pushed.
    pub nodes_deduped: usize,
    /// Scalings taken as pending factors, `x + x` rewrites, and scalings
    /// folded into an `alpha`.
    pub scales_fused: usize,
    /// How many fewer nodes the result has than the trace.
    pub nodes_removed: usize,
}

/// A built value: `c · op(node)`, its transpose and scale still pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Val {
    node: NodeId,
    t: Trans,
    c: Factor,
}

impl Val {
    pub(crate) fn of(node: NodeId) -> Val {
        Val { node, t: Trans::No, c: Factor(1.0) }
    }

    /// This value, transposed once more iff `t` is `Yes`.
    pub(crate) fn transposed_if(self, t: Trans) -> Val {
        match t {
            Trans::Yes => Val { t: self.t.flip(), ..self },
            Trans::No => self,
        }
    }
}

/// The use count marking a scaling folded into its product.
const FOLDED: u32 = u32::MAX;

/// The nodes built so far, and the steps ([`PassConfig`]) and `Syrk`
/// form the builder takes (module docs).
pub(crate) struct Builder {
    cfg: PassConfig,
    syrk: bool,
    nodes: Vec<Node>,
    stats: PassStats,
}

impl Builder {
    pub(crate) fn new(cfg: PassConfig, syrk: bool, capacity: usize) -> Builder {
        Builder { cfg, syrk, nodes: Vec::with_capacity(capacity), stats: PassStats::default() }
    }

    pub(crate) fn shape(&self, v: Val) -> Shape {
        let s = self.nodes[v.node.idx()].shape;
        if v.t == Trans::Yes {
            s.t()
        } else {
            s
        }
    }

    fn push(&mut self, kind: OpKind, inputs: &[NodeId], shape: Shape) -> NodeId {
        self.nodes.push(Node { kind, inputs: inputs.to_vec(), shape });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// The node computing `kind` over `inputs`: with `cse`, the equal one
    /// already built, else a new one.
    fn node(&mut self, kind: OpKind, inputs: &[NodeId], shape: Shape) -> NodeId {
        let (kind, inputs) = match kind {
            OpKind::MatMul { ta, tb, alpha_bits }
                if self.syrk && inputs[0] == inputs[1] && ta != tb && shape.rows >= 2 =>
            {
                (OpKind::Syrk { trans: ta, alpha_bits }, &inputs[..1])
            }
            kind => (kind, inputs),
        };
        if self.cfg.cse {
            if let Some(i) = self.nodes.iter().position(|n| n.kind == kind && n.inputs == inputs) {
                self.stats.nodes_deduped += 1;
                return NodeId(i as u32);
            }
        }
        self.push(kind, inputs, shape)
    }

    /// The operand `name`: with `cse`, the input node already built.
    pub(crate) fn input(&mut self, name: &str, shape: impl FnOnce() -> Shape) -> Val {
        let input = |n: &Node| matches!(&n.kind, OpKind::Input(x) if x == name);
        let built = if self.cfg.cse { self.nodes.iter().position(input) } else { None };
        Val::of(match built {
            Some(built) => NodeId(built as u32),
            None => self.push(OpKind::Input(name.to_string()), &[], shape()),
        })
    }

    pub(crate) fn transpose(&mut self, v: Val) -> Val {
        if self.cfg.fold_transpose {
            self.stats.transposes_folded += 1;
            return Val { t: v.t.flip(), ..v };
        }
        // Without folding no transpose is pending, so the node is `v`'s.
        let shape = self.shape(v).t();
        Val { node: self.node(OpKind::Transpose, &[v.node], shape), ..v }
    }

    pub(crate) fn scale(&mut self, c: f64, v: Val) -> Val {
        if self.cfg.fuse_scale {
            self.stats.scales_fused += 1;
            return Val { c: Factor(c * v.c.0), ..v };
        }
        let shape = self.nodes[v.node.idx()].shape;
        Val { node: self.node(OpKind::Scale(c.to_bits()), &[v.node], shape), ..v }
    }

    /// `alpha · a · b`: the pending flags become the GEMM's, and the
    /// factors stay pending on the product (module docs).
    pub(crate) fn matmul(&mut self, a: Val, b: Val, alpha: f64) -> Val {
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa.cols, sb.rows, "matmul: dimension mismatch {sa} · {sb}");
        let orient = self.cfg.fold_transpose && sb.cols == 1 && self.symmetric(a.node);
        let ta = if orient { Trans::Yes } else { a.t };
        let c = alpha * a.c.0 * b.c.0;
        let (alpha, c) = if self.cfg.fuse_scale { (1.0, c) } else { (c, 1.0) };
        let kind = OpKind::MatMul { ta, tb: b.t, alpha_bits: alpha.to_bits() };
        let node = self.node(kind, &[a.node, b.node], Shape::new(sa.rows, sb.cols));
        Val { c: Factor(c), ..Val::of(node) }
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

    /// `kind` over `args`, each materialised; `x + x` is `2·x`.
    pub(crate) fn op(&mut self, kind: OpKind, args: &[Val], shape: Shape) -> Val {
        if kind == OpKind::Add && self.cfg.fuse_scale && args[0] == args[1] {
            self.stats.scales_fused += 1;
            return Val { c: Factor(2.0 * args[0].c.0), ..args[0] };
        }
        let mut inputs = [NodeId(0); 2];
        for (slot, &v) in inputs.iter_mut().zip(args) {
            *slot = self.materialise(v);
        }
        Val::of(self.node(kind, &inputs[..args.len()], shape))
    }

    /// Apply a value's pending scale, then its pending transpose.
    pub(crate) fn materialise(&mut self, v: Val) -> NodeId {
        let (mut id, shape) = (v.node, self.nodes[v.node.idx()].shape);
        if v.c != Factor(1.0) {
            id = self.node(OpKind::Scale(v.c.0.to_bits()), &[id], shape);
        }
        if v.t == Trans::Yes {
            id = self.node(OpKind::Transpose, &[id], shape.t());
        }
        id
    }

    /// Fold each `c·(product)` whose product has no other consumer into
    /// the product's `alpha`, then compact the nodes in place: drop the
    /// folded scalings and point each survivor at its inputs' new places.
    /// (Every other node built is read: a front end builds no node that
    /// nothing reads, unless `dce` is off.)
    pub(crate) fn finish(mut self, mut outputs: Vec<NodeId>) -> (Graph, PassStats) {
        // Reads per node; after the compaction, each node's new id.
        let mut uses = vec![0u32; self.nodes.len()];
        outputs.iter().for_each(|out| uses[out.idx()] += 1);
        for inp in self.nodes.iter().flat_map(|node| &node.inputs) {
            uses[inp.idx()] += 1;
        }
        for i in (0..self.nodes.len()).filter(|_| self.cfg.fuse_scale) {
            let OpKind::Scale(c) = self.nodes[i].kind else { continue };
            let p = self.nodes[i].inputs[0].idx();
            if uses[i] == 0 || uses[p] != 1 {
                continue;
            }
            if let OpKind::MatMul { alpha_bits, .. } | OpKind::Syrk { alpha_bits, .. } =
                &mut self.nodes[p].kind
            {
                *alpha_bits = (f64::from_bits(*alpha_bits) * f64::from_bits(c)).to_bits();
                uses[i] = FOLDED;
                self.stats.scales_fused += 1;
            }
        }
        let mut kept = 0;
        for i in 0..self.nodes.len() {
            if uses[i] == FOLDED {
                uses[i] = uses[self.nodes[i].inputs[0].idx()];
                continue;
            }
            for inp in &mut self.nodes[i].inputs {
                *inp = NodeId(uses[inp.idx()]);
            }
            self.nodes.swap(kept, i);
            uses[i] = kept as u32;
            kept += 1;
        }
        self.nodes.truncate(kept);
        outputs.iter_mut().for_each(|out| *out = NodeId(uses[out.idx()]));
        (Graph { nodes: self.nodes, outputs }, self.stats)
    }
}

/// Rebuild a traced graph through the builder under `cfg` — the graph
/// mode of the simulated frameworks (which never set the `syrk` option).
pub fn optimize(g: &mut Graph, cfg: &PassConfig) -> PassStats {
    let (graph, stats) = rebuild(g, cfg, false);
    *g = graph;
    stats
}

/// Rebuild `trace` node by node through the builder under `cfg`, with
/// the `Syrk` form iff `syrk` (module docs). `trace` may be any graph,
/// optimized or not.
pub fn rebuild(trace: &Graph, cfg: &PassConfig, syrk: bool) -> (Graph, PassStats) {
    // With `dce`, the traced nodes no output reads are never built.
    let mut live = vec![!cfg.dce; trace.len()];
    trace.outputs.iter().for_each(|out| live[out.idx()] = true);
    if cfg.dce {
        for (i, node) in trace.nodes.iter().enumerate().rev() {
            if live[i] {
                node.inputs.iter().for_each(|inp| live[inp.idx()] = true);
            }
        }
    }
    let mut b = Builder::new(*cfg, syrk, trace.len());
    let mut vals = vec![Val::of(NodeId(0)); trace.len()];
    for (i, node) in trace.nodes.iter().enumerate().filter(|&(i, _)| live[i]) {
        let mut args = [Val::of(NodeId(0)); 2];
        for (arg, inp) in args.iter_mut().zip(&node.inputs) {
            *arg = vals[inp.idx()];
        }
        vals[i] = match &node.kind {
            OpKind::Input(name) => b.input(name, || node.shape),
            OpKind::Transpose => b.transpose(args[0]),
            OpKind::Scale(c) => b.scale(f64::from_bits(*c), args[0]),
            OpKind::MatMul { ta, tb, alpha_bits } => b.matmul(
                args[0].transposed_if(*ta),
                args[1].transposed_if(*tb),
                f64::from_bits(*alpha_bits),
            ),
            kind => b.op(kind.clone(), &args[..node.inputs.len()], node.shape),
        };
    }
    let outputs: Vec<NodeId> = trace.outputs.iter().map(|o| b.materialise(vals[o.idx()])).collect();
    let (graph, mut stats) = b.finish(outputs);
    debug_assert_eq!(graph.check_topology(), Ok(()));
    stats.nodes_removed = trace.len().saturating_sub(graph.len());
    (graph, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{GraphBuilder, Node};
    use laab_expr::Shape;
    use laab_kernels::Trans;

    const ONE: u64 = 0x3FF0_0000_0000_0000;

    /// Fig. 3: (AᵀB)ᵀ(AᵀB) traced with the duplicate sub-expression.
    fn fig3(n: usize) -> Graph {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let at = gb.transpose(a);
        let t0 = gb.matmul(at, b);
        let at2 = gb.transpose(a);
        let t1 = gb.matmul(at2, b);
        let t0t = gb.transpose(t0);
        let ret = gb.matmul(t0t, t1);
        gb.finish(vec![ret])
    }

    /// Fig. 4: the flat chain (AᵀB)ᵀ Aᵀ B — no duplicate subtree.
    fn fig4(n: usize) -> Graph {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let at = gb.transpose(a);
        let m1 = gb.matmul(at, b);
        let m1t = gb.transpose(m1);
        let at2 = gb.transpose(a);
        let m2 = gb.matmul(m1t, at2);
        let m3 = gb.matmul(m2, b);
        gb.finish(vec![m3])
    }

    /// Table II's E1: AᵀB + AᵀB traced with the product twice.
    fn e1(n: usize) -> Graph {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let at1 = gb.transpose(a);
        let m1 = gb.matmul(at1, b);
        let at2 = gb.transpose(a);
        let m2 = gb.matmul(at2, b);
        let sum = gb.add(m1, m2);
        gb.finish(vec![sum])
    }

    /// `trace` with one more product of its first two nodes (the inputs
    /// A and B), which no output reads.
    fn with_dead_product(mut trace: Graph) -> Graph {
        let (a, b) = (trace.nodes[0].shape, trace.nodes[1].shape);
        trace.nodes.push(Node {
            kind: OpKind::MatMul { ta: Trans::No, tb: Trans::No, alpha_bits: ONE },
            inputs: vec![NodeId(0), NodeId(1)],
            shape: Shape::new(a.rows, b.cols),
        });
        trace
    }

    fn transposes(g: &Graph) -> usize {
        g.count_kind(|k| matches!(k, OpKind::Transpose))
    }

    fn all_but(off: fn(&mut PassConfig)) -> PassConfig {
        let mut cfg = PassConfig::all();
        off(&mut cfg);
        cfg
    }

    #[test]
    fn fig3_cse_removes_one_matmul() {
        let mut g = fig3(8);
        assert_eq!(g.matmul_count(), 3);
        let stats = optimize(&mut g, &PassConfig::all());
        // The optimized graph of Fig. 3: two matmuls, zero transposes.
        assert_eq!(g.matmul_count(), 2);
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Transpose)), 0);
        assert!(stats.nodes_deduped >= 1);
        assert!(stats.nodes_removed >= 1);
        g.check_topology().unwrap();
    }

    #[test]
    fn fig4_chain_not_deduplicated() {
        let mut g = fig4(8);
        optimize(&mut g, &PassConfig::all());
        // The paper's Fig. 4 finding: the flat chain keeps all 3 matmuls.
        assert_eq!(g.matmul_count(), 3);
    }

    #[test]
    fn transpose_folds_to_flags() {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 4, 6);
        let b = gb.input("B", 4, 7);
        let at = gb.transpose(a);
        let m = gb.matmul(at, b);
        let mut g = gb.finish(vec![m]);
        optimize(&mut g, &PassConfig::all());
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Transpose)), 0);
        let mm = g
            .nodes
            .iter()
            .find(|n| matches!(n.kind, OpKind::MatMul { .. }))
            .expect("matmul survives");
        match mm.kind {
            OpKind::MatMul { ta, tb, .. } => {
                assert_eq!(ta, Trans::Yes);
                assert_eq!(tb, Trans::No);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn double_transpose_cancels() {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 3, 5);
        let t1 = gb.transpose(a);
        let t2 = gb.transpose(t1);
        let s = gb.scale(2.0, t2);
        let mut g = gb.finish(vec![s]);
        optimize(&mut g, &PassConfig::all());
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Transpose)), 0);
        // scale feeds directly from the input now.
        let scale_node = g.nodes.iter().find(|n| matches!(n.kind, OpKind::Scale(_))).unwrap();
        assert!(matches!(g.node(scale_node.inputs[0]).kind, OpKind::Input(_)));
    }

    #[test]
    fn add_same_node_becomes_alpha_fused_matmul() {
        // AᵀB + AᵀB (Table II, E1): the second product is the first one;
        // `x + x` and the fold make it a single GEMM with alpha = 2.
        let mut g = e1(8);
        optimize(&mut g, &PassConfig::all());
        assert_eq!(g.matmul_count(), 1, "one GEMM total");
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Add)), 0);
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Scale(_))), 0);
        let mm = g.nodes.iter().find(|n| matches!(n.kind, OpKind::MatMul { .. })).unwrap();
        assert_eq!(mm.kind.alpha(), 2.0, "scaling folded into GEMM alpha");
    }

    #[test]
    fn nested_scales_combine() {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 3, 3);
        let s1 = gb.scale(2.0, a);
        let s2 = gb.scale(3.0, s1);
        let mut g = gb.finish(vec![s2]);
        optimize(&mut g, &PassConfig::all());
        let scales: Vec<_> =
            g.nodes.iter().filter(|n| matches!(n.kind, OpKind::Scale(_))).collect();
        assert_eq!(scales.len(), 1);
        match scales[0].kind {
            OpKind::Scale(bits) => assert_eq!(f64::from_bits(bits), 6.0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn scale_into_matmul_requires_single_use() {
        // The product is consumed twice: folding alpha into it would change
        // the other consumer's value — must NOT fuse.
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 4, 4);
        let b = gb.input("B", 4, 4);
        let m = gb.matmul(a, b);
        let s = gb.scale(2.0, m);
        let both = gb.add(s, m);
        let mut g = gb.finish(vec![both]);
        optimize(&mut g, &PassConfig::all());
        let mm = g.nodes.iter().find(|n| matches!(n.kind, OpKind::MatMul { .. })).unwrap();
        assert_eq!(mm.kind.alpha(), 1.0, "shared matmul must keep alpha = 1");
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Scale(_))), 1);
    }

    #[test]
    fn dce_removes_unreachable() {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 4, 4);
        let b = gb.input("B", 4, 4);
        let _dead = gb.matmul(a, b);
        let live = gb.add(a, b);
        let mut g = gb.finish(vec![live]);
        let removed =
            optimize(&mut g, &PassConfig { dce: true, ..PassConfig::none() }).nodes_removed;
        assert_eq!(removed, 1);
        assert_eq!(g.matmul_count(), 0);
        g.check_topology().unwrap();
    }

    #[test]
    fn pass_config_none_is_identity() {
        // Fig. 3's trace, and a graph whose flags the orientation rule
        // would change: XᵀX·v with the symmetric factor read untransposed.
        let mut gb = GraphBuilder::new();
        let x = gb.input("X", 4, 4);
        let xt = gb.transpose(x);
        let gram = gb.matmul(xt, x);
        let v = gb.input("v", 4, 1);
        let y = gb.matmul(gram, v);
        let mut flagged = gb.finish(vec![y]);
        optimize(&mut flagged, &PassConfig::all());
        let out = flagged.outputs[0].idx();
        let OpKind::MatMul { ta, .. } = &mut flagged.nodes[out].kind else { panic!() };
        assert_eq!(std::mem::replace(ta, Trans::No), Trans::Yes);
        for mut g in [fig3(4), flagged] {
            let before = g.clone();
            let stats = optimize(&mut g, &PassConfig::none());
            assert_eq!(g, before);
            assert_eq!(stats, PassStats::default());
        }
    }

    #[test]
    fn unrolled_loop_invariant_is_hoisted_by_cse() {
        // Experiment 5 (loop-invariant code motion): the "naive" user code
        // recomputes A·B in every unrolled iteration; CSE leaves one.
        let n = 6;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let mut outs = Vec::new();
        for i in 0..3 {
            let ab = gb.matmul(a, b); // re-traced each iteration
            let v = gb.input(&format!("v{i}"), n, 1);
            let vt = gb.transpose(v);
            let outer = gb.matmul(v, vt);
            let y = gb.add(ab, outer);
            outs.push(y);
        }
        let mut g = gb.finish(outs);
        assert_eq!(g.matmul_count(), 6);
        optimize(&mut g, &PassConfig::all());
        // One hoisted A·B + three distinct outer products.
        assert_eq!(g.matmul_count(), 4);
    }

    // One observable effect per switch, on Fig. 3's and E1's traces (the
    // `ablation_passes` bench toggles these).

    #[test]
    fn without_cse_every_traced_gemm_remains() {
        let cfg = all_but(|c| c.cse = false);
        assert_eq!(rebuild(&fig3(8), &cfg, false).0.matmul_count(), 3);
        assert_eq!(rebuild(&e1(8), &cfg, false).0.matmul_count(), 2);
        assert_eq!(rebuild(&fig3(8), &PassConfig::all(), false).0.matmul_count(), 2);
    }

    #[test]
    fn without_fold_transpose_transposes_remain() {
        let cfg = all_but(|c| c.fold_transpose = false);
        for trace in [fig3(8), e1(8)] {
            assert!(transposes(&rebuild(&trace, &cfg, false).0) > 0);
            assert_eq!(transposes(&rebuild(&trace, &PassConfig::all(), false).0), 0);
        }
    }

    #[test]
    fn without_fuse_scale_e1_keeps_its_add() {
        let (g, stats) = rebuild(&e1(8), &all_but(|c| c.fuse_scale = false), false);
        assert_eq!((g.matmul_count(), g.count_kind(|k| *k == OpKind::Add)), (1, 1));
        assert_eq!(g.node(g.outputs[0]).kind, OpKind::Add);
        assert_eq!(stats.scales_fused, 0);
    }

    #[test]
    fn without_dce_a_dead_traced_product_survives() {
        let cfg = all_but(|c| c.dce = false);
        for (trace, live) in [(fig3(8), 2), (e1(8), 1)] {
            let trace = with_dead_product(trace);
            assert_eq!(rebuild(&trace, &cfg, false).0.matmul_count(), live + 1);
            assert_eq!(rebuild(&trace, &PassConfig::all(), false).0.matmul_count(), live);
        }
    }
}
