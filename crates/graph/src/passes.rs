//! The Grappler-analogue graph optimizer.
//!
//! The pipeline implements exactly the optimization inventory the paper
//! observes in TF/PyT graph mode — and nothing more:
//!
//! 1. **Transpose folding** — explicit `transpose` nodes feeding a `matmul`
//!    become kernel flags (`GEMM`'s `transa`/`transb`), so `AᵀB` costs one
//!    GEMM (Table I, row 1). Double transposes cancel everywhere.
//! 2. **CSE** — hash-consing over `(kind, inputs)`: duplicate nodes that
//!    "compute the exact same operation for the same input data" are merged
//!    (the Fig. 3 optimization). Because the key is structural, the
//!    non-parenthesized chain of Fig. 4 is *not* deduplicated — reproducing
//!    the paper's central CSE finding.
//! 3. **Scale fusion** — `x + x → 2·x`, nested scalings combine, and a
//!    scaling of a single-use `matmul` folds into the kernel's `alpha`
//!    (the "no additional overhead" BLAS observation in Experiment 1).
//! 4. **DCE** — unreachable nodes are dropped.
//!
//! Chain re-association, distributivity, property dispatch and slicing
//! push-down are deliberately absent (Experiments 2–5 show the frameworks
//! lack them); they live in `laab-rewrite` instead.
//!
//! The serving layer does not run this pipeline: its compiler lowers the
//! chosen expression straight to the IR, folding transposes and scalings
//! and sharing nodes as it builds them, and at its e-graph level builds
//! `XᵀX` as [`OpKind::Syrk`] — the one piece of Experiment 3's property
//! dispatch that needs no declared property. The simulated frameworks
//! never do, so Table IV keeps showing their GEMM.

use std::collections::HashMap;

use crate::ir::{Graph, NodeId, OpKind};

/// Which passes to run (the ablation benchmark toggles these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Fold `transpose` nodes into `matmul` flags.
    pub fold_transpose: bool,
    /// Hash-consing common-subexpression elimination.
    pub cse: bool,
    /// `x+x → 2x` and scale-into-`alpha` fusion.
    pub fuse_scale: bool,
    /// Dead-code elimination.
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

/// What the pipeline did (asserted by tests, reported by the ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Transpose nodes absorbed into matmul flags (including cancelled
    /// double transposes).
    pub transposes_folded: usize,
    /// Nodes merged by CSE.
    pub nodes_deduped: usize,
    /// Scale fusions applied.
    pub scales_fused: usize,
    /// Nodes removed by DCE.
    pub nodes_removed: usize,
}

/// Run the configured pipeline to a fixpoint.
///
/// The passes interact — scale fusion can rewire a matmul onto a transpose
/// node that folding must then absorb, and CSE can create the identical
/// operands that `x+x → 2x` needs — so the sequence repeats until the graph
/// stops changing (bounded; each iteration strictly shrinks or stabilizes
/// the graph in practice).
pub fn optimize(g: &mut Graph, cfg: &PassConfig) -> PassStats {
    let mut stats = PassStats::default();
    for _ in 0..8 {
        let before = g.clone();
        if cfg.fold_transpose {
            stats.transposes_folded += fold_transpose(g);
        }
        if cfg.cse {
            stats.nodes_deduped += cse(g);
        }
        if cfg.fuse_scale {
            stats.scales_fused += fuse_scale(g);
        }
        if cfg.dce {
            stats.nodes_removed += dce(g);
        }
        if *g == before {
            break;
        }
    }
    debug_assert_eq!(g.check_topology(), Ok(()));
    stats
}

/// Strip `transpose` chains feeding matmuls into flags and cancel
/// double transposes on every edge. Returns the number of foldings.
pub fn fold_transpose(g: &mut Graph) -> usize {
    let mut folded = 0;

    // Cancel transpose(transpose(x)) on every edge first.
    for i in 0..g.nodes.len() {
        for slot in 0..g.nodes[i].inputs.len() {
            loop {
                let inp = g.nodes[i].inputs[slot];
                let OpKind::Transpose = g.nodes[inp.idx()].kind else { break };
                let inner = g.nodes[inp.idx()].inputs[0];
                let OpKind::Transpose = g.nodes[inner.idx()].kind else { break };
                g.nodes[i].inputs[slot] = g.nodes[inner.idx()].inputs[0];
                folded += 1;
            }
        }
    }
    for slot in 0..g.outputs.len() {
        loop {
            let out = g.outputs[slot];
            let OpKind::Transpose = g.nodes[out.idx()].kind else { break };
            let inner = g.nodes[out.idx()].inputs[0];
            let OpKind::Transpose = g.nodes[inner.idx()].kind else { break };
            g.outputs[slot] = g.nodes[inner.idx()].inputs[0];
            folded += 1;
        }
    }

    // Absorb remaining single transposes into matmul flags.
    for i in 0..g.nodes.len() {
        let OpKind::MatMul { mut ta, mut tb, alpha_bits } = g.nodes[i].kind else {
            continue;
        };
        let mut a = g.nodes[i].inputs[0];
        while let OpKind::Transpose = g.nodes[a.idx()].kind {
            a = g.nodes[a.idx()].inputs[0];
            ta = ta.flip();
            folded += 1;
        }
        let mut b = g.nodes[i].inputs[1];
        while let OpKind::Transpose = g.nodes[b.idx()].kind {
            b = g.nodes[b.idx()].inputs[0];
            tb = tb.flip();
            folded += 1;
        }
        g.nodes[i].kind = OpKind::MatMul { ta, tb, alpha_bits };
        g.nodes[i].inputs = vec![a, b];
    }
    folded
}

/// Hash-consing CSE: one forward sweep merging nodes with identical
/// `(kind, canonical inputs)`. Returns the number of merged nodes.
pub fn cse(g: &mut Graph) -> usize {
    let n = g.nodes.len();
    let mut remap: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut seen: HashMap<(OpKind, Vec<NodeId>), NodeId> = HashMap::new();
    let mut deduped = 0;

    for i in 0..n {
        let canon: Vec<NodeId> = g.nodes[i].inputs.iter().map(|id| remap[id.idx()]).collect();
        g.nodes[i].inputs = canon.clone();
        let key = (g.nodes[i].kind.clone(), canon);
        match seen.get(&key) {
            Some(&prev) => {
                remap[i] = prev;
                deduped += 1;
            }
            None => {
                seen.insert(key, NodeId(i as u32));
            }
        }
    }
    for out in &mut g.outputs {
        *out = remap[out.idx()];
    }
    deduped
}

/// Scale fusions. Runs to a fixpoint; returns the number of rewrites.
pub fn fuse_scale(g: &mut Graph) -> usize {
    let mut fused = 0;
    loop {
        let mut changed = false;
        let uses = g.use_counts();
        for i in 0..g.nodes.len() {
            match g.nodes[i].kind.clone() {
                // x + x  →  2·x (the duplicate-summand case of Experiment 1;
                // only fires after CSE has unified the two summands).
                OpKind::Add if g.nodes[i].inputs[0] == g.nodes[i].inputs[1] => {
                    let x = g.nodes[i].inputs[0];
                    g.nodes[i].kind = OpKind::Scale(2.0f64.to_bits());
                    g.nodes[i].inputs = vec![x];
                    fused += 1;
                    changed = true;
                }
                // c·(d·x) → (c·d)·x
                OpKind::Scale(c_bits) => {
                    let inner = g.nodes[i].inputs[0];
                    match g.nodes[inner.idx()].kind.clone() {
                        OpKind::Scale(d_bits) => {
                            let c = f64::from_bits(c_bits) * f64::from_bits(d_bits);
                            let x = g.nodes[inner.idx()].inputs[0];
                            g.nodes[i].kind = OpKind::Scale(c.to_bits());
                            g.nodes[i].inputs = vec![x];
                            fused += 1;
                            changed = true;
                        }
                        // c·matmul(a, b) → matmul[alpha=c](a, b) when the
                        // product has no other consumer ("scaling can be
                        // done alongside multiplication without additional
                        // overheads" — Experiment 1).
                        OpKind::MatMul { ta, tb, alpha_bits } if uses[inner.idx()] == 1 => {
                            let alpha = f64::from_bits(alpha_bits) * f64::from_bits(c_bits);
                            let inputs = g.nodes[inner.idx()].inputs.clone();
                            g.nodes[i].kind =
                                OpKind::MatMul { ta, tb, alpha_bits: alpha.to_bits() };
                            g.nodes[i].inputs = inputs;
                            fused += 1;
                            changed = true;
                        }
                        _ => {}
                    }
                }
                // matmul(c·x, y) → matmul[alpha·c](x, y), either operand.
                OpKind::MatMul { ta, tb, alpha_bits } => {
                    for slot in 0..2 {
                        let inp = g.nodes[i].inputs[slot];
                        if let OpKind::Scale(c_bits) = g.nodes[inp.idx()].kind {
                            let alpha = f64::from_bits(alpha_bits) * f64::from_bits(c_bits);
                            let x = g.nodes[inp.idx()].inputs[0];
                            g.nodes[i].kind =
                                OpKind::MatMul { ta, tb, alpha_bits: alpha.to_bits() };
                            g.nodes[i].inputs[slot] = x;
                            fused += 1;
                            changed = true;
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
        if !changed {
            return fused;
        }
    }
}

/// Remove nodes unreachable from the outputs, compacting indices.
/// Returns the number of nodes removed.
pub fn dce(g: &mut Graph) -> usize {
    let n = g.nodes.len();
    let mut live = vec![false; n];
    let mut stack: Vec<NodeId> = g.outputs.clone();
    while let Some(id) = stack.pop() {
        if live[id.idx()] {
            continue;
        }
        live[id.idx()] = true;
        stack.extend(g.nodes[id.idx()].inputs.iter().copied());
    }
    let removed = live.iter().filter(|&&l| !l).count();
    if removed == 0 {
        return 0;
    }
    let mut remap = vec![NodeId(u32::MAX); n];
    let mut kept = Vec::with_capacity(n - removed);
    for (i, node) in g.nodes.drain(..).enumerate() {
        if live[i] {
            remap[i] = NodeId(kept.len() as u32);
            kept.push(node);
        }
    }
    for node in &mut kept {
        for inp in &mut node.inputs {
            *inp = remap[inp.idx()];
        }
    }
    for out in &mut g.outputs {
        *out = remap[out.idx()];
    }
    g.nodes = kept;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GraphBuilder;
    use laab_kernels::Trans;

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
        // AᵀB + AᵀB (Table II, E1): after CSE the add has identical
        // operands; fusion turns it into a single GEMM with alpha = 2.
        let n = 8;
        let mut gb = GraphBuilder::new();
        let a = gb.input("A", n, n);
        let b = gb.input("B", n, n);
        let at1 = gb.transpose(a);
        let m1 = gb.matmul(at1, b);
        let at2 = gb.transpose(a);
        let m2 = gb.matmul(at2, b);
        let sum = gb.add(m1, m2);
        let mut g = gb.finish(vec![sum]);
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
        let removed = dce(&mut g);
        assert_eq!(removed, 1);
        assert_eq!(g.matmul_count(), 0);
        g.check_topology().unwrap();
    }

    #[test]
    fn pass_config_none_is_identity() {
        let mut g = fig3(4);
        let before = g.clone();
        let stats = optimize(&mut g, &PassConfig::none());
        assert_eq!(g, before);
        assert_eq!(stats, PassStats::default());
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
}
