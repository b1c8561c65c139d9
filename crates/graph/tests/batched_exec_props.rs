//! Batched-execution properties: coalescing `B` same-signature requests
//! into one stacked sweep must be indistinguishable from serving each
//! request solo.
//!
//! For random RHS-stackable plans (chains/residual shapes over a shared
//! `H` and varying `x`/`y`), random batch sizes 1–32, and **every
//! registered backend**, batched results are **bitwise** identical to
//! sequential per-request execution:
//!
//! * every built-in backend answers a batched product with its solo
//!   product per right-hand side, and per-part dispatch reuses the
//!   identical elementwise entry points;
//! * illegal-stacking plans (varying left operands, transposed or sliced
//!   varying values) are refused by the analysis and fall back to the
//!   sequential path.

use laab_dense::gen::OperandGen;
use laab_dense::Scalar;
use laab_expr::eval::Env;
use laab_graph::{
    execute_batched_on, execute_scheduled_on, optimize, BatchAnalysis, Graph, GraphBuilder, NodeId,
    PassConfig, Schedule,
};
use proptest::prelude::*;

fn is_varying(name: &str) -> bool {
    name == "x" || name == "y"
}

fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random RHS-stackable trace: shared `H` (`n×n`), varying `x`, `y`
/// (`n×1`), combined by shared·varying products (plain and transposed
/// `H`), varying±varying sums, and scalings. `gemm_free` restricts the
/// draw to the elementwise ops.
fn random_stackable_graph(seed: u64, ops: usize, n: usize, gemm_free: bool) -> Graph {
    let mut state = seed | 1;
    let mut gb = GraphBuilder::new();
    let h = gb.input("H", n, n);
    let x = gb.input("x", n, 1);
    let y = gb.input("y", n, 1);
    let mut stacked: Vec<NodeId> = vec![x, y];
    for _ in 0..ops {
        let pick =
            |state: &mut u64, pool: &[NodeId]| pool[(next(state) % pool.len() as u64) as usize];
        let kinds = if gemm_free { 3 } else { 5 };
        let node = match next(&mut state) % kinds {
            0 => {
                let (a, b) = (pick(&mut state, &stacked), pick(&mut state, &stacked));
                gb.add(a, b)
            }
            1 => {
                let (a, b) = (pick(&mut state, &stacked), pick(&mut state, &stacked));
                gb.sub(a, b)
            }
            2 => {
                let v = pick(&mut state, &stacked);
                gb.scale(((next(&mut state) % 7) as f64) / 2.0 - 1.5, v)
            }
            3 => {
                let v = pick(&mut state, &stacked);
                gb.matmul(h, v)
            }
            _ => {
                let v = pick(&mut state, &stacked);
                let ht = gb.transpose(h);
                gb.matmul(ht, v)
            }
        };
        stacked.push(node);
    }
    let out = *stacked.last().unwrap();
    let mut g = gb.finish(vec![out]);
    optimize(&mut g, &PassConfig::all());
    g
}

/// A trace guaranteed to be stacking-illegal: a varying Gram product
/// (`xᵀ·x`, stacked left operand after transpose folding), optionally
/// post-processed by legal shared ops.
fn random_illegal_graph(seed: u64, n: usize) -> Graph {
    let mut state = seed | 1;
    let mut gb = GraphBuilder::new();
    let _h = gb.input("H", n, n);
    let x = gb.input("x", n, 1);
    let xt = gb.transpose(x);
    let gram = gb.matmul(xt, x);
    let out = if next(&mut state).is_multiple_of(2) { gb.scale(2.0, gram) } else { gram };
    let mut g = gb.finish(vec![out]);
    optimize(&mut g, &PassConfig::all());
    g
}

/// `q` environments sharing `H`, each with its own `x`/`y` payload.
fn envs<T: Scalar>(n: usize, q: usize, seed: u64) -> Vec<Env<T>> {
    let mut shared = OperandGen::new(seed);
    let h = shared.matrix::<T>(n, n);
    (0..q)
        .map(|i| {
            let mut g = OperandGen::new(seed ^ (0xBA7C4 + i as u64));
            Env::new().with("H", h.clone()).with("x", g.matrix(n, 1)).with("y", g.matrix(n, 1))
        })
        .collect()
}

/// Batched and solo outputs for every registered backend at precision `T`,
/// bit for bit.
fn check_all_backends<T: laab_backend::BackendScalar>(g: &Graph, n: usize, q: usize, seed: u64) {
    let schedule = Schedule::new(g);
    let analysis = BatchAnalysis::analyze(g, is_varying);
    let owned = envs::<T>(n, q, seed);
    let refs: Vec<&Env<T>> = owned.iter().collect();
    for reg in laab_backend::registry::all() {
        let backend = reg.resolve::<T>().expect("registered backends support both dtypes");
        let batched = execute_batched_on(g, &schedule, &analysis, &refs, backend);
        assert_eq!(batched.len(), q);
        for (env, b) in refs.iter().zip(&batched) {
            let solo = execute_scheduled_on(g, &schedule, env, backend);
            assert_eq!(b, &solo, "{}: batched must be bitwise solo", reg.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// RHS-stackable plans: batched ≡ solo on every backend, for batch
    /// sizes across 1–32.
    #[test]
    fn stackable_plans_match_solo(
        seed in any::<u64>(),
        ops in 1usize..6,
        n in 3usize..12,
        q in 1usize..=32,
    ) {
        let g = random_stackable_graph(seed, ops, n, false);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        prop_assert!(analysis.stackable(), "generator only emits stackable shapes");
        check_all_backends::<f64>(&g, n, q, seed ^ 0xD0);
    }

    /// Past L1 (`A` > 32KB, i.e. n ≥ 66 at f64), where a stacked product
    /// would be worth trying — the range a stacking backend must also
    /// keep bitwise.
    #[test]
    fn stackable_plans_match_solo_past_l1_cutoff(
        seed in any::<u64>(),
        ops in 1usize..4,
        n in 66usize..96,
        q in 2usize..=8,
    ) {
        let g = random_stackable_graph(seed, ops, n, false);
        check_all_backends::<f64>(&g, n, q, seed ^ 0xD4);
    }

    /// The f32 twin of the past-L1 property (A > 32KB needs n ≥ 91 at
    /// four bytes per element).
    #[test]
    fn stackable_plans_match_solo_past_l1_cutoff_f32(
        seed in any::<u64>(),
        ops in 1usize..3,
        n in 91usize..112,
        q in 2usize..=8,
    ) {
        let g = random_stackable_graph(seed, ops, n, false);
        check_all_backends::<f32>(&g, n, q, seed ^ 0xD5);
    }

    /// The same property at f32.
    #[test]
    fn stackable_plans_match_solo_f32(
        seed in any::<u64>(),
        ops in 1usize..5,
        n in 3usize..10,
        q in 1usize..=16,
    ) {
        let g = random_stackable_graph(seed, ops, n, false);
        check_all_backends::<f32>(&g, n, q, seed ^ 0xD1);
    }

    /// GEMM-free plans: per-part elementwise dispatch only.
    #[test]
    fn gemm_free_plans_are_bitwise_everywhere(
        seed in any::<u64>(),
        ops in 1usize..7,
        n in 2usize..14,
        q in 1usize..=32,
    ) {
        let g = random_stackable_graph(seed, ops, n, true);
        check_all_backends::<f64>(&g, n, q, seed ^ 0xD2);
    }

    /// Illegal-stacking plans: the analysis refuses, and the fallback is
    /// sequential execution.
    #[test]
    fn illegal_plans_fall_back_bitwise(
        seed in any::<u64>(),
        n in 3usize..12,
        q in 1usize..=32,
    ) {
        let g = random_illegal_graph(seed, n);
        let analysis = BatchAnalysis::analyze(&g, is_varying);
        prop_assert!(!analysis.stackable(), "varying Gram products must be illegal");
        check_all_backends::<f64>(&g, n, q, seed ^ 0xD3);
    }
}
