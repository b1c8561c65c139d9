//! Graph-mode tracing: the `@tf.function` / `@torch.jit.script` analogue.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use laab_dense::{Matrix, Scalar};
use laab_expr::eval::Env;
use laab_graph::{execute, optimize, Graph, GraphBuilder, NodeId, PassConfig, PassStats};

use crate::profile::Profile;

/// A graph-mode tensor handle, valid only within the [`FuncBuilder`] that
/// produced it (like a symbolic tensor inside a traced `tf.function`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GT(pub(crate) NodeId);

/// The tracing context handed to the user's build closure.
///
/// Each method appends IR nodes verbatim — calling `matmul` twice with the
/// same arguments records two nodes, exactly like re-tracing duplicated
/// Python code. Rust `for` loops over the builder unroll into the DAG, the
/// graph-mode loop behaviour the paper describes (a DAG "does not contain
/// loops or cycles").
pub struct FuncBuilder {
    gb: GraphBuilder,
    profile: Profile,
    inputs: HashMap<String, GT>,
}

impl FuncBuilder {
    pub(crate) fn new(profile: Profile) -> Self {
        Self { gb: GraphBuilder::new(), profile, inputs: HashMap::new() }
    }

    /// Declare (or re-use) a fed input. Repeated declarations of the same
    /// name return the same handle.
    pub fn input(&mut self, name: &str, rows: usize, cols: usize) -> GT {
        if let Some(&gt) = self.inputs.get(name) {
            assert_eq!(
                self.gb.shape(gt.0),
                laab_expr::Shape::new(rows, cols),
                "input `{name}` re-declared with a different shape"
            );
            return gt;
        }
        let gt = GT(self.gb.input(name, rows, cols));
        self.inputs.insert(name.to_string(), gt);
        gt
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: GT, b: GT) -> GT {
        GT(self.gb.matmul(a.0, b.0))
    }

    /// Transpose.
    pub fn t(&mut self, x: GT) -> GT {
        GT(self.gb.transpose(x.0))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: GT, b: GT) -> GT {
        GT(self.gb.add(a.0, b.0))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: GT, b: GT) -> GT {
        GT(self.gb.sub(a.0, b.0))
    }

    /// Scalar scaling.
    pub fn scale(&mut self, c: f64, x: GT) -> GT {
        GT(self.gb.scale(c, x.0))
    }

    /// The `n×n` identity constant.
    pub fn identity(&mut self, n: usize) -> GT {
        GT(self.gb.identity(n))
    }

    /// Element extraction.
    pub fn elem(&mut self, x: GT, i: usize, j: usize) -> GT {
        GT(self.gb.elem(x.0, i, j))
    }

    /// Row extraction.
    pub fn row(&mut self, x: GT, i: usize) -> GT {
        GT(self.gb.row(x.0, i))
    }

    /// Column extraction.
    pub fn col(&mut self, x: GT, j: usize) -> GT {
        GT(self.gb.col(x.0, j))
    }

    /// Vertical concatenation.
    pub fn vcat(&mut self, a: GT, b: GT) -> GT {
        GT(self.gb.vcat(a.0, b.0))
    }

    /// Horizontal concatenation.
    pub fn hcat(&mut self, a: GT, b: GT) -> GT {
        GT(self.gb.hcat(a.0, b.0))
    }

    /// Block-diagonal assembly.
    pub fn block_diag(&mut self, a: GT, b: GT) -> GT {
        GT(self.gb.block_diag(a.0, b.0))
    }

    /// `linalg.tridiagonal_matmul` — **Flow only** (the paper's Table IV
    /// marks it "n.a." for PyT).
    ///
    /// # Panics
    /// When the profile does not offer the method.
    pub fn tridiagonal_matmul(&mut self, t: GT, b: GT) -> GT {
        assert!(
            self.profile.has_tridiagonal_matmul(),
            "linalg.tridiagonal_matmul is not available in the {:?} profile",
            self.profile
        );
        GT(self.gb.tridiag_matmul(t.0, b.0))
    }

    /// `linalg.multi_dot` — **Torch only** (Table III marks it "-" for TF).
    /// At trace time the DP-optimal parenthesization for the traced shapes
    /// is baked into the graph as a tree of `matmul` nodes.
    ///
    /// # Panics
    /// When the profile does not offer the method, or on an empty chain.
    pub fn multi_dot(&mut self, factors: &[GT]) -> GT {
        assert!(
            self.profile.has_multi_dot(),
            "linalg.multi_dot is not available in the {:?} profile",
            self.profile
        );
        assert!(!factors.is_empty(), "multi_dot of zero factors");
        let mut dims = Vec::with_capacity(factors.len() + 1);
        dims.push(self.gb.shape(factors[0].0).rows);
        for gt in factors {
            dims.push(self.gb.shape(gt.0).cols);
        }
        let (_, tree) = laab_chain::optimal_parenthesization(&dims);
        self.build_tree(&tree, factors)
    }

    fn build_tree(&mut self, tree: &laab_chain::ParenTree, factors: &[GT]) -> GT {
        match tree {
            laab_chain::ParenTree::Leaf(i) => factors[*i],
            laab_chain::ParenTree::Node(l, r) => {
                let lv = self.build_tree(l, factors);
                let rv = self.build_tree(r, factors);
                self.matmul(lv, rv)
            }
        }
    }
}

/// A traced, optimized, callable graph function.
pub struct Function {
    graph: Graph,
    unoptimized: Graph,
    build_time: Duration,
    stats: PassStats,
}

impl Function {
    pub(crate) fn build<F>(profile: Profile, passes: PassConfig, build: F) -> Function
    where
        F: FnOnce(&mut FuncBuilder) -> Vec<GT>,
    {
        let start = Instant::now();
        let mut fb = FuncBuilder::new(profile);
        let outs = build(&mut fb);
        let unoptimized = fb.gb.finish(outs.into_iter().map(|gt| gt.0).collect());
        let mut graph = unoptimized.clone();
        let stats = optimize(&mut graph, &passes);
        Function { graph, unoptimized, build_time: start.elapsed(), stats }
    }

    /// Execute against fed operands, returning the fetched outputs.
    pub fn call<T: Scalar>(&self, env: &Env<T>) -> Vec<Matrix<T>> {
        execute(&self.graph, env)
    }

    /// The optimized graph (inspection, DOT export).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The pre-optimization trace (the paper's "Initial Graph", Fig. 3
    /// left).
    pub fn unoptimized_graph(&self) -> &Graph {
        &self.unoptimized
    }

    /// Tracing + optimization wall time — the "decorator overhead" the
    /// paper reports separately (footnote 4).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// What the optimizer did.
    pub fn pass_stats(&self) -> PassStats {
        self.stats
    }

    /// Decompose the function into its compiled artifacts: the optimized
    /// graph, the tracing+optimization wall time, and the pass statistics.
    ///
    /// A plan-extraction hook: a serving system can keep the optimized
    /// graph (plus a precomputed [`laab_graph::Schedule`]) and re-execute
    /// it with fresh operand bindings, instead of holding whole
    /// [`Function`]s — mirroring how `tf.function` caches *concrete
    /// functions*, not tracing contexts. (`laab-serve` lowers its plans
    /// directly and does not trace through here.) The pre-optimization trace is dropped; use
    /// [`Function::unoptimized_graph`] before extraction if you need it.
    pub fn into_plan_parts(self) -> (Graph, Duration, PassStats) {
        (self.graph, self.build_time, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_dense::gen::OperandGen;

    #[test]
    fn multi_dot_requires_torch_profile() {
        let f = Function::build(Profile::Torch, PassConfig::all(), |fb| {
            let h = fb.input("H", 6, 6);
            let ht = fb.t(h);
            let x = fb.input("x", 6, 1);
            vec![fb.multi_dot(&[ht, h, x])]
        });
        // Optimal order HᵀHx = Hᵀ(Hx): two matmuls, no O(n³) shape.
        assert_eq!(f.graph().matmul_count(), 2);
    }

    #[test]
    #[should_panic(expected = "not available in the Flow profile")]
    fn multi_dot_panics_on_flow() {
        let _ = Function::build(Profile::Flow, PassConfig::all(), |fb| {
            let h = fb.input("H", 6, 6);
            let x = fb.input("x", 6, 1);
            vec![fb.multi_dot(&[h, x])]
        });
    }

    #[test]
    #[should_panic(expected = "not available in the Torch profile")]
    fn tridiagonal_matmul_panics_on_torch() {
        let _ = Function::build(Profile::Torch, PassConfig::all(), |fb| {
            let t = fb.input("T", 6, 6);
            let b = fb.input("B", 6, 6);
            vec![fb.tridiagonal_matmul(t, b)]
        });
    }

    #[test]
    fn repeated_input_names_share_a_node() {
        let f = Function::build(Profile::Flow, PassConfig::none(), |fb| {
            let a1 = fb.input("A", 4, 4);
            let a2 = fb.input("A", 4, 4);
            assert_eq!(a1, a2);
            vec![fb.matmul(a1, a2)]
        });
        assert_eq!(f.graph().count_kind(|k| matches!(k, laab_graph::OpKind::Input(_))), 1);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn input_redeclaration_shape_mismatch_panics() {
        let _ = Function::build(Profile::Flow, PassConfig::none(), |fb| {
            let _ = fb.input("A", 4, 4);
            let a = fb.input("A", 5, 5);
            vec![a]
        });
    }

    #[test]
    fn call_roundtrip_and_build_time() {
        let n = 8;
        let f = Function::build(Profile::Flow, PassConfig::all(), |fb| {
            let a = fb.input("A", n, n);
            let b = fb.input("B", n, n);
            let at = fb.t(a);
            vec![fb.matmul(at, b)]
        });
        let mut g = OperandGen::new(71);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));
        let out = f.call(&env);
        let want = laab_expr::eval::eval(&(laab_expr::var("A").t() * laab_expr::var("B")), &env);
        assert!(out[0].approx_eq(&want, 1e-12));
        // Tracing measurably takes time but is tiny.
        assert!(f.build_time() < Duration::from_millis(100));
    }

    #[test]
    fn into_plan_parts_extracts_the_optimized_graph() {
        let n = 8;
        let f = Function::build(Profile::Flow, PassConfig::all(), |fb| {
            let a = fb.input("A", n, n);
            let b = fb.input("B", n, n);
            let at = fb.t(a);
            vec![fb.matmul(at, b)]
        });
        let build_time = f.build_time();
        let expect_graph = f.graph().clone();
        let (graph, extracted_time, stats) = f.into_plan_parts();
        assert_eq!(graph, expect_graph);
        assert_eq!(extracted_time, build_time);
        assert!(stats.transposes_folded >= 1);
        // The extracted graph executes stand-alone.
        let mut g = OperandGen::new(73);
        let env = Env::<f64>::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n));
        let out = laab_graph::execute(&graph, &env);
        let want = laab_expr::eval::eval(&(laab_expr::var("A").t() * laab_expr::var("B")), &env);
        assert!(out[0].approx_eq(&want, 1e-12));
    }

    #[test]
    fn unoptimized_graph_is_preserved() {
        let f = Function::build(Profile::Flow, PassConfig::all(), |fb| {
            let a = fb.input("A", 4, 4);
            let b = fb.input("B", 4, 4);
            let m1 = fb.matmul(a, b);
            let m2 = fb.matmul(a, b);
            vec![fb.add(m1, m2)]
        });
        assert_eq!(f.unoptimized_graph().matmul_count(), 2);
        assert_eq!(f.graph().matmul_count(), 1);
        assert!(f.pass_stats().nodes_deduped >= 1);
    }
}
