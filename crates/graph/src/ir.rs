//! DAG node and graph definitions, the builder, and DOT export.

use laab_expr::Shape;
use laab_kernels::Trans;

/// Index of a node within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in its graph's `nodes` vector.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The operation computed by a node.
///
/// Scalar attributes (`alpha` in `MatMul`, the factor in `Scale`) are stored
/// as IEEE bit patterns so nodes are `Eq + Hash` for the CSE pass.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A fed operand (the circular I/O nodes of the paper's Fig. 3).
    Input(String),
    /// The `n×n` identity constant.
    Identity(usize),
    /// `alpha · op(a) · op(b)` — transposition and scaling are kernel
    /// attributes, not data movement, mirroring BLAS GEMM.
    MatMul {
        /// Transposition of the first operand.
        ta: Trans,
        /// Transposition of the second operand.
        tb: Trans,
        /// Scaling factor (IEEE bits of an `f64`).
        alpha_bits: u64,
    },
    /// `alpha · op(x) · op(x)ᵀ` — a product of one value with its own
    /// transpose (`trans = No`: `XXᵀ`, `Yes`: `XᵀX`), whose symmetric
    /// result needs one triangle computed. Never traced: only the served
    /// lowering (`laab-serve`'s e-graph level) creates it, for a product
    /// reading one node twice under opposite flags.
    Syrk {
        /// Transposition of the (single) operand on the left side.
        trans: Trans,
        /// Scaling factor (IEEE bits of an `f64`).
        alpha_bits: u64,
    },
    /// Elementwise sum.
    Add,
    /// Elementwise difference.
    Sub,
    /// Scalar scaling (IEEE bits of an `f64`).
    Scale(u64),
    /// Explicit transpose materialization (survives optimization only when
    /// the consumer cannot absorb it).
    Transpose,
    /// Element extraction `x[i, j]` (a `1×1` result).
    Elem(usize, usize),
    /// Row extraction `x[i, :]`.
    Row(usize),
    /// Column extraction `x[:, j]`.
    Col(usize),
    /// Vertical concatenation.
    VCat,
    /// Horizontal concatenation.
    HCat,
    /// Block-diagonal assembly.
    BlockDiag,
    /// The specialized tridiagonal product (`tf.linalg.tridiagonal_matmul`
    /// analogue): first input is the dense tridiagonal operand, second the
    /// dense right-hand side.
    TridiagMatMul,
}

impl OpKind {
    /// The `alpha` attribute of a `MatMul`/`Syrk` (1.0 for other kinds).
    pub fn alpha(&self) -> f64 {
        match self {
            OpKind::MatMul { alpha_bits, .. } | OpKind::Syrk { alpha_bits, .. } => {
                f64::from_bits(*alpha_bits)
            }
            _ => 1.0,
        }
    }

    /// Short label for DOT export and debugging.
    pub fn label(&self) -> String {
        match self {
            OpKind::Input(name) => name.clone(),
            OpKind::Identity(n) => format!("I{n}"),
            OpKind::MatMul { .. } | OpKind::Syrk { .. } => {
                let mut s = match self {
                    OpKind::MatMul { ta, tb, .. } => {
                        let mut s = String::from("matmul");
                        if *ta == Trans::Yes {
                            s.push_str("[ta]");
                        }
                        if *tb == Trans::Yes {
                            s.push_str("[tb]");
                        }
                        s
                    }
                    OpKind::Syrk { trans: Trans::Yes, .. } => String::from("syrk[t]"),
                    _ => String::from("syrk"),
                };
                let alpha = self.alpha();
                if alpha != 1.0 {
                    s.push_str(&format!("[x{alpha}]"));
                }
                s
            }
            OpKind::Add => "add".into(),
            OpKind::Sub => "sub".into(),
            OpKind::Scale(bits) => format!("scale[{}]", f64::from_bits(*bits)),
            OpKind::Transpose => "transpose".into(),
            OpKind::Elem(i, j) => format!("elem[{i},{j}]"),
            OpKind::Row(i) => format!("row[{i}]"),
            OpKind::Col(j) => format!("col[{j}]"),
            OpKind::VCat => "vcat".into(),
            OpKind::HCat => "hcat".into(),
            OpKind::BlockDiag => "blkdiag".into(),
            OpKind::TridiagMatMul => "tridiag_matmul".into(),
        }
    }
}

/// One DAG node: an operation, its operand edges, and its inferred shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// What this node computes.
    pub kind: OpKind,
    /// Operand nodes (order matters).
    pub inputs: Vec<NodeId>,
    /// Statically inferred output shape.
    pub shape: Shape,
}

/// A computational DAG.
///
/// Nodes are stored in topological order (every input index is smaller than
/// the node's own index); the builder and all passes maintain this
/// invariant, so execution is a single forward sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    /// The nodes, topologically ordered.
    pub nodes: Vec<Node>,
    /// The fetched outputs.
    pub outputs: Vec<NodeId>,
}

impl Graph {
    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Count nodes matching a predicate (tests assert the paper's node
    /// counts, e.g. "one matmul was removed by CSE").
    pub fn count_kind(&self, pred: impl Fn(&OpKind) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.kind)).count()
    }

    /// Number of product nodes (the paper's unit of analysis): `MatMul`s,
    /// plus the `Syrk`s the served lowering builds in place of some of
    /// them — that changes the kernel, not how many products the
    /// expression has.
    pub fn matmul_count(&self) -> usize {
        self.count_kind(|k| matches!(k, OpKind::MatMul { .. } | OpKind::Syrk { .. }))
    }

    /// Number of `Syrk` nodes (products lowered to the half-FLOP kernel).
    pub fn syrk_count(&self) -> usize {
        self.count_kind(|k| matches!(k, OpKind::Syrk { .. }))
    }

    /// Per-node use counts (how many operand edges point at each node).
    pub fn use_counts(&self) -> Vec<u32> {
        let mut uses = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            for inp in &node.inputs {
                uses[inp.idx()] += 1;
            }
        }
        for out in &self.outputs {
            uses[out.idx()] += 1;
        }
        uses
    }

    /// Verify the topological invariant (inputs precede users). Used by
    /// pass tests.
    pub fn check_topology(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            for inp in &node.inputs {
                if inp.idx() >= i {
                    return Err(format!(
                        "node {i} ({}) uses input {} which does not precede it",
                        node.kind.label(),
                        inp.idx()
                    ));
                }
            }
        }
        for out in &self.outputs {
            if out.idx() >= self.nodes.len() {
                return Err(format!("output {} out of range", out.idx()));
            }
        }
        Ok(())
    }

    /// Graphviz DOT rendering (reproduces the paper's Figs. 3 & 4: circles
    /// for I/O, rounded boxes for operations).
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{title}\" {{");
        let _ = writeln!(s, "  rankdir=TB;");
        for (i, node) in self.nodes.iter().enumerate() {
            let (shape_attr, label) = match &node.kind {
                OpKind::Input(name) => ("circle", name.clone()),
                k => ("box, style=rounded", k.label()),
            };
            let _ = writeln!(s, "  n{i} [shape={shape_attr}, label=\"{label}\"];");
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for inp in &node.inputs {
                let _ = writeln!(s, "  n{} -> n{i};", inp.idx());
            }
        }
        for (oi, out) in self.outputs.iter().enumerate() {
            let _ = writeln!(s, "  ret{oi} [shape=circle, label=\"ret\"];");
            let _ = writeln!(s, "  n{} -> ret{oi};", out.idx());
        }
        s.push_str("}\n");
        s
    }
}

/// Appends nodes to a [`Graph`] with shape checking.
///
/// The builder performs **no deduplication and no simplification** — it
/// records exactly what the user's trace did, like TF's initial graph in
/// Fig. 3. All cleverness lives in [`passes`](crate::passes).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: OpKind, inputs: Vec<NodeId>, shape: Shape) -> NodeId {
        let id = NodeId(self.graph.nodes.len() as u32);
        self.graph.nodes.push(Node { kind, inputs, shape });
        id
    }

    /// Shape of an already-built node.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.graph.node(id).shape
    }

    /// Declare a fed input.
    pub fn input(&mut self, name: &str, rows: usize, cols: usize) -> NodeId {
        self.push(OpKind::Input(name.to_string()), vec![], Shape::new(rows, cols))
    }

    /// The `n×n` identity constant.
    pub fn identity(&mut self, n: usize) -> NodeId {
        self.push(OpKind::Identity(n), vec![], Shape::new(n, n))
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa.cols, sb.rows, "matmul: dimension mismatch {sa} · {sb}");
        self.push(
            OpKind::MatMul { ta: Trans::No, tb: Trans::No, alpha_bits: 1.0f64.to_bits() },
            vec![a, b],
            Shape::new(sa.rows, sb.cols),
        )
    }

    /// Explicit transpose node (the optimizer folds it into consumers where
    /// possible).
    pub fn transpose(&mut self, x: NodeId) -> NodeId {
        let s = self.shape(x);
        self.push(OpKind::Transpose, vec![x], s.t())
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa, sb, "add: shape mismatch {sa} vs {sb}");
        self.push(OpKind::Add, vec![a, b], sa)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa, sb, "sub: shape mismatch {sa} vs {sb}");
        self.push(OpKind::Sub, vec![a, b], sa)
    }

    /// Scalar scaling `c · x`.
    pub fn scale(&mut self, c: f64, x: NodeId) -> NodeId {
        let s = self.shape(x);
        self.push(OpKind::Scale(c.to_bits()), vec![x], s)
    }

    /// Element extraction `x[i, j]`.
    pub fn elem(&mut self, x: NodeId, i: usize, j: usize) -> NodeId {
        let s = self.shape(x);
        assert!(i < s.rows && j < s.cols, "elem: ({i},{j}) out of bounds for {s}");
        self.push(OpKind::Elem(i, j), vec![x], Shape::new(1, 1))
    }

    /// Row extraction `x[i, :]`.
    pub fn row(&mut self, x: NodeId, i: usize) -> NodeId {
        let s = self.shape(x);
        assert!(i < s.rows, "row: {i} out of bounds for {s}");
        self.push(OpKind::Row(i), vec![x], Shape::new(1, s.cols))
    }

    /// Column extraction `x[:, j]`.
    pub fn col(&mut self, x: NodeId, j: usize) -> NodeId {
        let s = self.shape(x);
        assert!(j < s.cols, "col: {j} out of bounds for {s}");
        self.push(OpKind::Col(j), vec![x], Shape::new(s.rows, 1))
    }

    /// Vertical concatenation `[a; b]`.
    pub fn vcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa.cols, sb.cols, "vcat: column mismatch {sa} vs {sb}");
        self.push(OpKind::VCat, vec![a, b], Shape::new(sa.rows + sb.rows, sa.cols))
    }

    /// Horizontal concatenation `[a, b]`.
    pub fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa.rows, sb.rows, "hcat: row mismatch {sa} vs {sb}");
        self.push(OpKind::HCat, vec![a, b], Shape::new(sa.rows, sa.cols + sb.cols))
    }

    /// Block-diagonal assembly.
    pub fn block_diag(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.shape(a), self.shape(b));
        self.push(OpKind::BlockDiag, vec![a, b], Shape::new(sa.rows + sb.rows, sa.cols + sb.cols))
    }

    /// The specialized tridiagonal product node (first operand must be the
    /// dense tridiagonal matrix).
    pub fn tridiag_matmul(&mut self, t: NodeId, b: NodeId) -> NodeId {
        let (st, sb) = (self.shape(t), self.shape(b));
        assert!(st.is_square(), "tridiag_matmul: operand must be square");
        assert_eq!(st.cols, sb.rows, "tridiag_matmul: dimension mismatch");
        self.push(OpKind::TridiagMatMul, vec![t, b], Shape::new(st.rows, sb.cols))
    }

    /// Finish the graph, fetching `outputs`.
    pub fn finish(mut self, outputs: Vec<NodeId>) -> Graph {
        for out in &outputs {
            assert!(out.idx() < self.graph.nodes.len(), "finish: unknown output node");
        }
        self.graph.outputs = outputs;
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Fig. 3 initial graph for (AᵀB)ᵀ(AᵀB): the user
    /// trace computes AᵀB twice.
    fn fig3_initial(n: usize) -> Graph {
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

    #[test]
    fn builder_records_duplicates_verbatim() {
        let g = fig3_initial(8);
        // Initial graph: 3 matmuls, 3 transposes — no dedup at trace time.
        assert_eq!(g.matmul_count(), 3);
        assert_eq!(g.count_kind(|k| matches!(k, OpKind::Transpose)), 3);
        g.check_topology().unwrap();
    }

    #[test]
    fn shapes_inferred() {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 3, 5);
        let b = gb.input("B", 3, 7);
        let at = gb.transpose(a);
        let m = gb.matmul(at, b);
        assert_eq!(gb.shape(m), Shape::new(5, 7));
        let r = gb.row(m, 2);
        assert_eq!(gb.shape(r), Shape::new(1, 7));
        let g = gb.finish(vec![m]);
        assert_eq!(g.node(g.outputs[0]).shape, Shape::new(5, 7));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", 3, 5);
        let b = gb.input("B", 3, 7);
        let _ = gb.matmul(a, b);
    }

    #[test]
    fn use_counts_include_outputs() {
        let g = fig3_initial(4);
        let uses = g.use_counts();
        // Input A feeds two transpose nodes.
        assert_eq!(uses[0], 2);
        // The final matmul is used once (as the output).
        assert_eq!(uses[g.outputs[0].idx()], 1);
    }

    #[test]
    fn dot_export_mentions_nodes_and_edges() {
        let g = fig3_initial(4);
        let dot = g.to_dot("fig3");
        assert!(dot.contains("digraph"));
        assert!(dot.contains("matmul"));
        assert!(dot.contains("transpose"));
        assert!(dot.contains("shape=circle")); // I/O nodes are circles
        assert!(dot.contains("ret"));
    }

    #[test]
    fn concat_and_structured_builders() {
        let mut gb = GraphBuilder::new();
        let a1 = gb.input("A1", 2, 2);
        let a2 = gb.input("A2", 3, 3);
        let bd = gb.block_diag(a1, a2);
        assert_eq!(gb.shape(bd), Shape::new(5, 5));
        let b1 = gb.input("B1", 2, 4);
        let b2 = gb.input("B2", 3, 4);
        let bb = gb.vcat(b1, b2);
        assert_eq!(gb.shape(bb), Shape::new(5, 4));
        let prod = gb.matmul(bd, bb);
        assert_eq!(gb.shape(prod), Shape::new(5, 4));

        let t = gb.input("T", 5, 5);
        let tm = gb.tridiag_matmul(t, bb);
        assert_eq!(gb.shape(tm), Shape::new(5, 4));
        gb.finish(vec![prod, tm]).check_topology().unwrap();
    }
}
