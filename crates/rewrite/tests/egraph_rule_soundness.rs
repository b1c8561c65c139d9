//! Per-rule soundness: every e-graph rewrite rule, in every direction it
//! realizes, is checked *numerically* on randomized operands.
//!
//! The harness is deliberately rule-local: it interns a crafted
//! expression, applies exactly one rule at every `(class, node)` pair,
//! and evaluates each produced right-hand side against the matched
//! class's own expression under the reference evaluator. No saturation,
//! no extraction policy, no cost model in the loop — a failure here
//! names the one rule whose algebra is wrong. Bidirectional equivalences
//! are realized by rule *pairs* (`distribute`/`factor`,
//! `transpose_distribute`/`transpose_contract`,
//! `slice_pushdown`/`slice_pullup`) or by two arms of one rule
//! (`sub_normalize`); each test drives both.
//!
//! Property-guarded rules get their preconditions fuzzed at the
//! boundary: a matrix that is *numerically* within ε of symmetric (or of
//! the identity) but whose context does not declare the property must
//! never trigger the guarded arm — the e-graph trusts declared/inferred
//! [`Props`], not the data.

use laab_dense::gen::OperandGen;
use laab_dense::Matrix;
use laab_expr::eval::{eval, Env};
use laab_expr::{block_diag, elem, scale, var, vcat, Context, Expr, Props};
use laab_rewrite::{egraph_rules, extract_best, optimize_egraph, CostModel, EGraph, EgraphConfig};
use proptest::prelude::*;

/// Randomized operands for every name `ctx` declares.
fn env_for(ctx: &Context, seed: u64) -> Env<f64> {
    let mut g = OperandGen::new(seed);
    let mut env = Env::new();
    let mut names: Vec<&str> = ctx.names().collect();
    names.sort();
    for name in names {
        let shape = ctx.expect(name).shape;
        env.insert(name, g.matrix(shape.rows, shape.cols));
    }
    env
}

/// Apply `rule_name` at every `(class, node)` of `expr`'s e-graph and
/// check each produced form evaluates equal to the class it matched.
/// Returns how many right-hand sides fired (callers assert coverage).
///
/// Relative tolerance 1e-9: the rules reassociate and redistribute
/// double-precision sums/products over operands in [-1, 1] at sizes ≤ 8,
/// where the worst-case reordering error is orders of magnitude below
/// this bound; anything larger is an algebra bug, not roundoff.
fn fire_rule(rule_name: &str, expr: &Expr, ctx: &Context, env: &Env<f64>) -> usize {
    let rules = egraph_rules();
    let rule = rules.iter().find(|r| r.name == rule_name).expect("rule is registered");
    let model = CostModel::default();
    let mut eg = EGraph::new(ctx);
    eg.add_expr(expr);
    let mut fired = 0;
    for id in eg.class_ids() {
        let nodes = eg.class(id).nodes.clone();
        for n in &nodes {
            let rhss = (rule.apply)(&eg, id, n);
            if rhss.is_empty() {
                continue;
            }
            // No unions have happened, so the matched class extracts back
            // to (a hash-consed copy of) its original subexpression.
            let lhs = extract_best(&eg, id, &model).expr;
            let want = eval(&lhs, env);
            for rhs in rhss {
                let rid = eg.add_rhs(&rhs);
                let got = eval(&extract_best(&eg, rid, &model).expr, env);
                assert_eq!(want.shape(), got.shape(), "rule `{rule_name}` changed the shape");
                assert!(
                    want.approx_eq(&got, 1e-9),
                    "rule `{rule_name}` is unsound on {lhs:?}: rel dist {}",
                    want.rel_dist(&got)
                );
                fired += 1;
            }
        }
    }
    fired
}

/// `fire_rule` over several seeds, asserting the rule actually matched.
fn assert_sound(rule: &str, expr: Expr, ctx: &Context) {
    for seed in [3, 17, 92] {
        let env = env_for(ctx, seed);
        let fired = fire_rule(rule, &expr, ctx, &env);
        assert!(fired > 0, "rule `{rule}` never fired on {expr:?}");
    }
}

fn sq(names: &[&str], n: usize) -> Context {
    let mut ctx = Context::new();
    for name in names {
        ctx = ctx.with(name, n, n);
    }
    ctx
}

#[test]
fn distribute_both_add_and_sub_and_both_sides() {
    let ctx = sq(&["A", "B", "C"], 6);
    assert_sound("distribute", var("A") * (var("B") + var("C")), &ctx);
    assert_sound("distribute", var("A") * (var("B") - var("C")), &ctx);
    assert_sound("distribute", (var("B") + var("C")) * var("A"), &ctx);
    assert_sound("distribute", (var("B") - var("C")) * var("A"), &ctx);
}

#[test]
fn factor_reverses_distribution_on_either_factor() {
    let ctx = sq(&["A", "B", "C"], 6);
    // Common left factor, common right factor, and the sub variants.
    assert_sound("factor", var("A") * var("B") + var("A") * var("C"), &ctx);
    assert_sound("factor", var("A") * var("C") - var("B") * var("C"), &ctx);
}

#[test]
fn transpose_distribute_pushes_through_every_operator() {
    let ctx = sq(&["A", "B"], 6);
    assert_sound("transpose_distribute", (var("A") * var("B")).t(), &ctx);
    assert_sound("transpose_distribute", (var("A") + var("B")).t(), &ctx);
    assert_sound("transpose_distribute", (var("A") - var("B")).t(), &ctx);
    assert_sound("transpose_distribute", scale(2.5, var("A")).t(), &ctx);
}

#[test]
fn transpose_contract_pulls_a_product_back_together() {
    let ctx = sq(&["A", "B"], 6);
    assert_sound("transpose_contract", var("B").t() * var("A").t(), &ctx);
}

#[test]
fn transpose_cancel_double_transpose() {
    let ctx = sq(&["A"], 6);
    assert_sound("transpose_cancel", var("A").t().t(), &ctx);
}

#[test]
fn transpose_cancel_symmetric_arm_is_exact_on_declared_symmetric_data() {
    // The guarded arm: Sᵀ → S only because the context declares
    // SYMMETRIC. With exactly-symmetric data the rewrite is *bitwise*
    // (transposition of a symmetric matrix permutes equal elements).
    let ctx = Context::new().with_props("S", 6, 6, Props::SYMMETRIC);
    let mut g = OperandGen::new(11);
    let s: Matrix<f64> = g.symmetric(6);
    let env = Env::new().with("S", s.clone());
    let fired = fire_rule("transpose_cancel", &var("S").t(), &ctx, &env);
    assert!(fired > 0, "symmetric arm must fire on a declared-symmetric operand");
    let r = optimize_egraph(&var("S").t(), &ctx, &EgraphConfig::default());
    assert!(r.changed);
    assert_eq!(eval(&r.best, &env), s.transpose(), "bitwise: Sᵀ ≡ S elementwise");
}

#[test]
fn identity_eliminate_and_materialize_on_declared_identity() {
    let ctx = Context::new().with_props("I", 6, 6, Props::IDENTITY).with("A", 6, 6);
    let mut g = OperandGen::new(5);
    let env = Env::new().with("I", Matrix::<f64>::identity(6)).with("A", g.matrix(6, 6));
    for e in [var("I") * var("A"), var("A") * var("I")] {
        assert!(fire_rule("identity_eliminate", &e, &ctx, &env) > 0, "eliminate fires on {e:?}");
    }
    // Any class proving IDENTITY also equals the literal Identity node.
    assert!(fire_rule("identity_materialize", &var("I"), &ctx, &env) > 0);
}

#[test]
fn reassociate_both_rotations() {
    let ctx = Context::new().with("A", 6, 6).with("B", 6, 6).with("v", 6, 1);
    assert_sound("reassociate", (var("A") * var("B")) * var("v"), &ctx);
    assert_sound("reassociate", var("A") * (var("B") * var("v")), &ctx);
}

#[test]
fn slice_pushdown_every_slice_kind_over_every_operator() {
    let ctx = sq(&["A", "B"], 6);
    // Elem over mul/add/sub/scale/transpose.
    assert_sound("slice_pushdown", elem(var("A") * var("B"), 1, 2), &ctx);
    assert_sound("slice_pushdown", elem(var("A") + var("B"), 0, 3), &ctx);
    assert_sound("slice_pushdown", elem(var("A") - var("B"), 2, 0), &ctx);
    assert_sound("slice_pushdown", elem(scale(1.5, var("A")), 4, 4), &ctx);
    assert_sound("slice_pushdown", elem(var("A").t(), 1, 5), &ctx);
    // Row and Col over the same operators.
    assert_sound("slice_pushdown", (var("A") * var("B")).row(1), &ctx);
    assert_sound("slice_pushdown", (var("A") + var("B")).row(2), &ctx);
    assert_sound("slice_pushdown", var("A").t().row(3), &ctx);
    assert_sound("slice_pushdown", (var("A") * var("B")).col(1), &ctx);
    assert_sound("slice_pushdown", (var("A") - var("B")).col(0), &ctx);
    assert_sound("slice_pushdown", scale(0.5, var("A")).col(2), &ctx);
}

#[test]
fn slice_pullup_reverses_the_pushdown() {
    let ctx = sq(&["A", "B"], 6);
    assert_sound("slice_pullup", var("A").row(1) * var("B"), &ctx);
    assert_sound("slice_pullup", var("A") * var("B").col(2), &ctx);
}

#[test]
fn scale_fuse_doubling_identity_and_nesting() {
    let ctx = sq(&["A"], 6);
    assert_sound("scale_fuse", var("A") + var("A"), &ctx);
    assert_sound("scale_fuse", scale(1.0, var("A")), &ctx);
    assert_sound("scale_fuse", scale(2.0, scale(-3.0, var("A"))), &ctx);
}

#[test]
fn sum_commute_and_assoc() {
    let ctx = sq(&["A", "B", "C"], 6);
    assert_sound("sum_commute", var("A") + var("B"), &ctx);
    assert_sound("sum_assoc", (var("A") + var("B")) + var("C"), &ctx);
    assert_sound("sum_assoc", var("A") + (var("B") + var("C")), &ctx);
}

#[test]
fn sub_normalize_both_directions() {
    let ctx = sq(&["A", "B"], 6);
    // a − b → a + (−1)·b, and the recognizer direction back.
    assert_sound("sub_normalize", var("A") - var("B"), &ctx);
    assert_sound("sub_normalize", var("A") + scale(-1.0, var("B")), &ctx);
}

#[test]
fn blocked_split_on_conformable_blocks() {
    let ctx = Context::new().with("A", 3, 3).with("B", 2, 2).with("x", 3, 1).with("y", 2, 1);
    assert_sound("blocked_split", block_diag(var("A"), var("B")) * vcat(var("x"), var("y")), &ctx);
    // Conformal as a whole (5×5 · 5×4) but not block by block (A is 2×3,
    // x is 2×4): the split would be ill-typed, so the rule must not fire.
    let ctx = Context::new().with("A", 2, 3).with("B", 3, 2).with("x", 2, 4).with("y", 3, 4);
    let e = block_diag(var("A"), var("B")) * vcat(var("x"), var("y"));
    assert_eq!(fire_rule("blocked_split", &e, &ctx, &env_for(&ctx, 3)), 0);
}

#[test]
fn every_rule_is_covered_by_this_suite() {
    // Drift guard: adding a rule without a soundness test above must fail
    // loudly. The names here mirror the #[test] functions one to one.
    let covered = [
        "distribute",
        "factor",
        "transpose_distribute",
        "transpose_contract",
        "transpose_cancel",
        "identity_eliminate",
        "identity_materialize",
        "reassociate",
        "slice_pushdown",
        "slice_pullup",
        "scale_fuse",
        "sum_commute",
        "sum_assoc",
        "sub_normalize",
        "blocked_split",
    ];
    let registered: Vec<&str> = egraph_rules().iter().map(|r| r.name).collect();
    assert_eq!(registered, covered, "rule set and soundness suite drifted apart");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Boundary fuzz for the SYMMETRIC guard: a matrix within ε of
    /// symmetric — down to a *single ULP-scale* off-diagonal perturbation
    /// — whose context does not declare the property must never trigger
    /// `transpose_cancel`'s symmetric arm, and the end-to-end optimizer
    /// must leave `Mᵀ` untouched.
    #[test]
    fn near_symmetric_without_the_prop_never_cancels(
        seed in any::<u64>(),
        eps_exp in 3u32..16,
    ) {
        let mut g = OperandGen::new(seed);
        let mut m: Matrix<f64> = g.symmetric(6);
        // Perturb one off-diagonal element by 10^-eps_exp: numerically
        // near-symmetric (often below any practical detection threshold),
        // structurally not symmetric — and undeclared either way.
        m.set(0, 1, m.get(0, 1) + 10f64.powi(-(eps_exp as i32)));
        let ctx = Context::new().with("M", 6, 6);
        let env = Env::new().with("M", m);
        let expr = var("M").t();
        prop_assert_eq!(fire_rule("transpose_cancel", &expr, &ctx, &env), 0);
        let r = optimize_egraph(&expr, &ctx, &EgraphConfig::default());
        prop_assert!(!r.changed, "undeclared symmetry must not rewrite Mᵀ");
        prop_assert_eq!(&r.best, &expr);
    }

    /// Same boundary for the IDENTITY guard: numerically ≈ I is not I.
    #[test]
    fn near_identity_without_the_prop_never_eliminates(
        seed in any::<u64>(),
        eps_exp in 3u32..16,
    ) {
        let mut g = OperandGen::new(seed);
        let mut m = Matrix::<f64>::identity(6);
        m.set(2, 3, 10f64.powi(-(eps_exp as i32)));
        let ctx = Context::new().with("M", 6, 6).with("A", 6, 6);
        let env = Env::new().with("M", m).with("A", g.matrix(6, 6));
        let expr = var("M") * var("A");
        prop_assert_eq!(fire_rule("identity_eliminate", &expr, &ctx, &env), 0);
        prop_assert_eq!(fire_rule("identity_materialize", &expr, &ctx, &env), 0);
        let r = optimize_egraph(&expr, &ctx, &EgraphConfig::default());
        prop_assert!(!r.changed, "undeclared identity must not eliminate the product");
    }

    /// Fuzzed form of the rule-local check itself: random operand draws
    /// across random expressions that exercise the high-traffic rules.
    #[test]
    fn randomized_operands_keep_the_core_rules_sound(seed in any::<u64>()) {
        let ctx = Context::new()
            .with("A", 6, 6).with("B", 6, 6).with("C", 6, 6).with("v", 6, 1);
        let env = env_for(&ctx, seed);
        for (rule, expr) in [
            ("distribute", var("A") * (var("B") + var("C"))),
            ("factor", var("A") * var("B") + var("A") * var("C")),
            ("reassociate", (var("A") * var("B")) * var("v")),
            ("transpose_distribute", (var("A") * var("B")).t()),
            ("slice_pushdown", elem(var("A") * var("B"), 0, 0)),
        ] {
            prop_assert!(fire_rule(rule, &expr, &ctx, &env) > 0, "{} must fire", rule);
        }
    }
}
