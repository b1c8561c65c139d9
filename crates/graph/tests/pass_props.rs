//! Pass-pipeline properties: idempotence, semantic preservation across
//! arbitrary pass subsets, executor/oracle agreement and the builder's
//! normal form on randomly generated traces.

use laab_dense::gen::OperandGen;
use laab_expr::eval::Env;
use laab_graph::{execute, optimize, Graph, GraphBuilder, NodeId, OpKind, PassConfig};
use proptest::prelude::*;

/// Build a random but well-formed trace over inputs A, B (n×n) and x (n×1).
fn random_graph(seed: u64, ops: usize, n: usize) -> Graph {
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    let mut state = seed | 1;
    let mut gb = GraphBuilder::new();
    let a = gb.input("A", n, n);
    let b = gb.input("B", n, n);
    // Pool of square nodes we can combine freely.
    let mut square: Vec<NodeId> = vec![a, b];
    for _ in 0..ops {
        let pick =
            |state: &mut u64, pool: &[NodeId]| pool[(next(state) % pool.len() as u64) as usize];
        let node = match next(&mut state) % 5 {
            0 => {
                let x = pick(&mut state, &square);
                gb.transpose(x)
            }
            1 => {
                let (x, y) = (pick(&mut state, &square), pick(&mut state, &square));
                gb.matmul(x, y)
            }
            2 => {
                let (x, y) = (pick(&mut state, &square), pick(&mut state, &square));
                gb.add(x, y)
            }
            3 => {
                let (x, y) = (pick(&mut state, &square), pick(&mut state, &square));
                gb.sub(x, y)
            }
            _ => {
                let x = pick(&mut state, &square);
                gb.scale(((next(&mut state) % 5) as f64) - 2.0, x)
            }
        };
        square.push(node);
    }
    let out = *square.last().unwrap();
    gb.finish(vec![out])
}

fn env(n: usize, seed: u64) -> Env<f64> {
    let mut g = OperandGen::new(seed);
    Env::new().with("A", g.matrix(n, n)).with("B", g.matrix(n, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimize_is_idempotent(seed in any::<u64>(), ops in 1usize..12) {
        let mut g = random_graph(seed, ops, 4);
        optimize(&mut g, &PassConfig::all());
        let once = g.clone();
        optimize(&mut g, &PassConfig::all());
        prop_assert_eq!(g, once, "second optimization pass must be a no-op");
    }

    #[test]
    fn every_pass_subset_preserves_values(
        seed in any::<u64>(),
        ops in 1usize..10,
        fold in any::<bool>(),
        cse in any::<bool>(),
        fuse in any::<bool>(),
        dce in any::<bool>(),
        data_seed in any::<u64>(),
    ) {
        let n = 5;
        let e = env(n, data_seed);
        let reference = execute(&random_graph(seed, ops, n), &e);
        prop_assume!(reference[0].all_finite());

        let mut g = random_graph(seed, ops, n);
        let cfg = PassConfig { fold_transpose: fold, cse, fuse_scale: fuse, dce };
        optimize(&mut g, &cfg);
        g.check_topology().map_err(TestCaseError::fail)?;
        let got = execute(&g, &e);
        prop_assert!(
            got[0].approx_eq(&reference[0], 1e-9),
            "pass subset {:?} changed the value (dist {})",
            cfg,
            got[0].rel_dist(&reference[0])
        );
    }

    #[test]
    fn optimization_never_adds_matmuls(seed in any::<u64>(), ops in 1usize..12) {
        let g0 = random_graph(seed, ops, 4);
        let before = g0.matmul_count();
        let mut g = g0;
        optimize(&mut g, &PassConfig::all());
        prop_assert!(g.matmul_count() <= before);
    }

    #[test]
    fn dce_only_graph_is_minimal(seed in any::<u64>(), ops in 1usize..12) {
        let mut g = random_graph(seed, ops, 4);
        optimize(&mut g, &PassConfig { dce: true, ..PassConfig::none() });
        // After DCE every node must be reachable from the outputs.
        let uses = g.use_counts();
        for (i, u) in uses.iter().enumerate() {
            prop_assert!(
                *u > 0 || g.outputs.iter().any(|o| o.idx() == i),
                "node {i} survives DCE but is unused"
            );
        }
    }

    #[test]
    fn optimized_graph_is_in_normal_form(seed in any::<u64>(), ops in 1usize..12) {
        let mut g = random_graph(seed, ops, 4);
        optimize(&mut g, &PassConfig::all());
        let uses = g.use_counts();
        let kind = |id: NodeId| &g.node(id).kind;
        for (i, node) in g.nodes.iter().enumerate() {
            if matches!(node.kind, OpKind::MatMul { .. }) {
                prop_assert!(
                    node.inputs.iter().all(|&inp| !matches!(kind(inp), OpKind::Transpose | OpKind::Scale(_))),
                    "node {i}: a transpose or scaling feeds a product"
                );
            }
            if node.kind == OpKind::Transpose {
                prop_assert!(*kind(node.inputs[0]) != OpKind::Transpose, "node {i}: a double transpose");
            }
            prop_assert!(
                g.nodes[..i].iter().all(|n| n.kind != node.kind || n.inputs != node.inputs),
                "node {i} duplicates an earlier node"
            );
            prop_assert!(uses[i] > 0, "node {i} is unread");
        }
    }
}
