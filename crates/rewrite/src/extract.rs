//! Cost-based extraction and the end-to-end e-graph optimization entry.
//!
//! After saturation every e-class holds all forms reachable from the rule
//! set; extraction recovers one cheap expression. Costs are **DAG costs**:
//! a selection is priced as the sum of the chosen e-nodes over the
//! *distinct* classes it reaches, so a class used twice is paid for once —
//! exactly what the trace-time CSE pass executes. Pricing the selection as
//! a tree instead counts the shared `S = AᵀB` of `SᵀS` twice and then
//! prefers `(BᵀA)(AᵀB)`, three GEMMs where the input needs two.
//!
//! The algorithm is a greedy bottom-up relaxation over that cost: each
//! pass re-prices every member e-node of every class against the
//! *current* choices of the classes below it, and a class switches member
//! only on a strict improvement, so the summed class costs fall with
//! every update and the loop terminates. A member whose children already
//! reach the class itself is skipped, which keeps the chosen nodes a
//! well-founded DAG even though the saturated graph is cyclic
//! (bidirectional rules put `x` and rewrites *of* `x` into
//! mutually-referential classes). Everything is iterated in class-id and
//! member order over dense vectors — no hashing — so extraction is
//! deterministic, and ties keep the earliest member: class node lists
//! preserve insertion order with original-expression nodes first.
//!
//! A product of a value with its own transpose is one decision: the cost
//! model prices `Mul(a, b)` at the SYRK rate whenever `a ≡ bᵀ` (or
//! `b ≡ aᵀ`) at class level, so the walk reads only the operand class
//! it squares plus one transpose tick, and the tree is built as `bᵀ·b`
//! (or `a·aᵀ`) — one node in both slots, the form the served lowering
//! (`laab-serve`) builds as a `Syrk` node. Built any other way (`(BᵀA)(AᵀB)`
//! for E3's `(AᵀB)ᵀ(AᵀB)`) the discount would be priced but never paid.
//!
//! Greedy choices are not globally optimal under sharing (a class cannot
//! know which of its members a sibling will also reach), so
//! [`optimize_egraph`] keeps the input whenever the extracted form is not
//! strictly cheaper: the result never costs more than the input, and an
//! equal-cost rewrite never displaces the input form (this is what makes
//! extraction stable and the differential suite's bitwise claims
//! meaningful). Both sides of that comparison are
//! [`CostModel::expr_cost`] of a tree, so a reported cost is always the
//! price of the tree reported with it.
//!
//! [`optimize_egraph`] is the pipeline callers use: intern → saturate →
//! extract, falling back to the input on a budget hit
//! ([`SaturateStats::budget_hit`]).
//!
//! [`optimize_egraph_with_varying`] prices by lifetime ([`Cost`]): a class
//! is invariant when some member reads only invariant classes, with a
//! leaf invariant unless it is a declared-varying operand. When the root
//! varies, an invariant class may only select an invariant member, so the
//! extracted subtree really reads no varying operand, and its cost is
//! paid once per binding rather than per request. Selections then compare
//! per request first, so `(HᵀH)x` with a shared `H` (one GEMV per
//! request) beats `Hᵀ(Hx)` (two), while `Hᵀy − (HᵀH)x` ties with
//! `Hᵀ(y − Hx)` per request and the input form is kept.

use crate::cost::{Cost, CostModel};
use crate::egraph::{EClassId, EGraph, ENode};
use crate::saturate::{egraph_rules, saturate, SaturateConfig, SaturateStats};
use laab_expr::{Context, Expr};

/// The expression extracted for a class, with its modeled cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    /// The extracted expression tree.
    pub expr: Expr,
    /// Its DAG cost under the extraction [`CostModel`]
    /// ([`CostModel::expr_cost`]: every distinct subtree priced once).
    pub cost: u64,
}

/// The one operand class a product `Mul(a, b)` of a value with its own
/// transpose is built from: `b` when `a ≡ bᵀ` (rendered `bᵀ·b`), else `a`
/// when `b ≡ aᵀ` (rendered `a·aᵀ`); `None` for any other product.
fn gram_operand(eg: &EGraph, a: EClassId, b: EClassId) -> Option<EClassId> {
    if eg.class_is_transpose_of(a, b) {
        Some(eg.find(b))
    } else if eg.class_is_transpose_of(b, a) {
        Some(eg.find(a))
    } else {
        None
    }
}

/// The classes a selected `node` reads and the cost of reading them
/// beyond their own choices: a Gram product reads its one operand plus a
/// transpose tick.
fn reads(eg: &EGraph, node: &ENode) -> (Vec<EClassId>, u64) {
    match node {
        ENode::Mul(a, b) => match gram_operand(eg, *a, *b) {
            Some(x) => (vec![x], 1),
            None => (vec![*a, *b], 0),
        },
        _ => (node.children(), 0),
    }
}

/// Whether `node` reads only invariant classes (`invariant`, indexed by
/// canonical class id), or is a leaf other than a `varying` operand.
fn reads_invariant(eg: &EGraph, node: &ENode, invariant: &[bool], varying: &[&str]) -> bool {
    match node {
        ENode::Var(name) => !varying.contains(&name.as_str()),
        _ => node.children().iter().all(|c| invariant[eg.find(*c).0 as usize]),
    }
}

/// Per class, indexed by canonical id: whether some member computes the
/// class's value from invariant classes alone (a least fixpoint; every
/// class without a varying operand).
fn invariant_classes(eg: &EGraph, ids: &[EClassId], slots: usize, varying: &[&str]) -> Vec<bool> {
    let mut invariant = vec![varying.is_empty(); slots];
    let mut changed = !varying.is_empty();
    while changed {
        changed = false;
        for &id in ids {
            let i = id.0 as usize;
            if !invariant[i]
                && eg.class(id).nodes.iter().any(|n| reads_invariant(eg, n, &invariant, varying))
            {
                invariant[i] = true;
                changed = true;
            }
        }
    }
    invariant
}

/// One class's current selection.
#[derive(Clone, Copy)]
struct Choice {
    /// DAG cost of the selection rooted here, as of when it was chosen.
    cost: Cost,
    /// Index of the chosen member in the class's node list.
    member: usize,
}

/// The per-class choices plus a stamp array for repeated DAG walks.
struct Selection<'a> {
    eg: &'a EGraph,
    /// `own[class][member]`: the member's own cost, children excluded.
    own: Vec<Vec<u64>>,
    /// Classes priced once per binding rather than per request: the
    /// invariant ones, when the root varies.
    hoisted: Vec<bool>,
    /// Indexed by canonical class id.
    best: Vec<Option<Choice>>,
    /// `seen[class] == stamp` marks a class visited by the current walk.
    seen: Vec<u32>,
    stamp: u32,
}

impl Selection<'_> {
    /// DAG cost of choosing `member` for class `id` on top of the current
    /// choices below it, or `None` when a child has no choice yet or the
    /// member would close a cycle through `id`.
    fn price(&mut self, id: EClassId, member: usize) -> Option<Cost> {
        self.stamp += 1;
        self.seen[id.0 as usize] = self.stamp;
        let (mut stack, tick) = reads(self.eg, &self.eg.class(id).nodes[member]);
        let own = self.own[id.0 as usize][member].saturating_add(tick);
        let mut cost = Cost::default().plus(own, self.hoisted[id.0 as usize]);
        while let Some(c) = stack.pop() {
            let c = self.eg.find(c);
            if c == id {
                return None;
            }
            if std::mem::replace(&mut self.seen[c.0 as usize], self.stamp) == self.stamp {
                continue;
            }
            let chosen = self.best[c.0 as usize]?.member;
            let (kids, tick) = reads(self.eg, &self.eg.class(c).nodes[chosen]);
            let own = self.own[c.0 as usize][chosen].saturating_add(tick);
            cost = cost.plus(own, self.hoisted[c.0 as usize]);
            stack.extend(kids);
        }
        Some(cost)
    }
}

/// Extract a cheap expression of `root`'s class under `model`, priced as
/// a DAG, every node per request. Deterministic: fixed iteration order,
/// strict-improvement updates, first-member tie-breaking.
pub fn extract_best(eg: &EGraph, root: EClassId, model: &CostModel) -> Extraction {
    let expr = extract(eg, root, model, &[]);
    Extraction { cost: model.expr_cost(&expr, eg.ctx()), expr }
}

/// The cheapest tree of `root`'s class, priced by lifetime against the
/// `varying` operands (module docs).
fn extract(eg: &EGraph, root: EClassId, model: &CostModel, varying: &[&str]) -> Expr {
    let ids = eg.class_ids();
    let slots = ids.last().map_or(0, |id| id.0 as usize + 1);
    let mut own = vec![Vec::new(); slots];
    for &id in &ids {
        own[id.0 as usize] = eg.class(id).nodes.iter().map(|n| model.enode_cost(eg, n)).collect();
    }
    let invariant = invariant_classes(eg, &ids, slots, varying);
    let hoisted = if invariant[eg.find(root).0 as usize] { vec![false; slots] } else { invariant };
    let mut sel =
        Selection { eg, own, hoisted, best: vec![None; slots], seen: vec![0; slots], stamp: 0 };
    loop {
        let mut changed = false;
        for &id in &ids {
            for (member, node) in eg.class(id).nodes.iter().enumerate() {
                // A hoisted class computes its value from invariant
                // classes only, or the subtree would read the payload.
                if sel.hoisted[id.0 as usize] && !reads_invariant(eg, node, &sel.hoisted, varying) {
                    continue;
                }
                let Some(cost) = sel.price(id, member) else { continue };
                if sel.best[id.0 as usize].is_none_or(|b| cost < b.cost) {
                    sel.best[id.0 as usize] = Some(Choice { cost, member });
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    build(eg, &sel.best, root)
}

/// Rebuild the chosen expression tree for `id`'s class.
fn build(eg: &EGraph, best: &[Option<Choice>], id: EClassId) -> Expr {
    let id = eg.find(id);
    let member = best[id.0 as usize].expect("every class below the root has a choice").member;
    let node = &eg.class(id).nodes[member];
    let sub = |c: &EClassId| Box::new(build(eg, best, *c));
    match node {
        ENode::Var(name) => Expr::Var(name.clone()),
        ENode::Identity(n) => Expr::Identity(*n),
        ENode::Transpose(x) => Expr::Transpose(sub(x)),
        ENode::Mul(a, b) => match gram_operand(eg, *a, *b) {
            Some(x) => {
                let right = x == eg.find(*b);
                let x = build(eg, best, x);
                if right {
                    x.t() * x
                } else {
                    let xt = x.t();
                    x * xt
                }
            }
            None => Expr::Mul(sub(a), sub(b)),
        },
        ENode::Add(a, b) => Expr::Add(sub(a), sub(b)),
        ENode::Sub(a, b) => Expr::Sub(sub(a), sub(b)),
        ENode::Scale(c, x) => Expr::Scale(*c, sub(x)),
        ENode::Elem(x, i, j) => Expr::Elem(sub(x), *i, *j),
        ENode::Row(x, i) => Expr::Row(sub(x), *i),
        ENode::Col(x, j) => Expr::Col(sub(x), *j),
        ENode::VCat(a, b) => Expr::VCat(sub(a), sub(b)),
        ENode::HCat(a, b) => Expr::HCat(sub(a), sub(b)),
        ENode::BlockDiag(a, b) => Expr::BlockDiag(sub(a), sub(b)),
    }
}

/// Budgets plus the extraction cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EgraphConfig {
    /// Saturation budgets.
    pub saturate: SaturateConfig,
    /// Throughput-calibrated extraction costs.
    pub cost: CostModel,
}

/// Result of one end-to-end e-graph optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct EgraphResult {
    /// The extracted (or, on budget hit, the original) expression.
    pub best: Expr,
    /// Modeled per-request DAG cost of [`EgraphResult::best`]
    /// ([`Cost::request`]): at most [`EgraphResult::original_cost`] when
    /// `changed` (below it unless only hoisted work fell), equal to it
    /// otherwise.
    pub best_cost: u64,
    /// Modeled per-request DAG cost of the input expression (without a
    /// varying set, [`CostModel::expr_cost`]; same units).
    pub original_cost: u64,
    /// What saturation did.
    pub stats: SaturateStats,
    /// `true` when extraction chose a different, strictly cheaper tree
    /// than the input ([`Cost`] order: per request, then hoisted).
    pub changed: bool,
}

/// Intern `expr`, saturate under `cfg`'s budgets, and extract a cheaper
/// equivalent form, every node priced per request. The input expression
/// is returned unchanged (`changed == false`) on a budget hit
/// (`stats.budget_hit == true`, so a serving caller keeps compiling the
/// input as written) and whenever extraction found nothing strictly
/// cheaper than it.
pub fn optimize_egraph(expr: &Expr, ctx: &Context, cfg: &EgraphConfig) -> EgraphResult {
    optimize_egraph_with_varying(expr, ctx, cfg, &[])
}

/// [`optimize_egraph`] for a plan that runs once per request with only the
/// `varying` operands changing: work on the other (shared) operands alone
/// is priced once per binding, not per request, whenever the result reads
/// a varying operand (module docs). With no varying operand, or when
/// `expr` reads none, this is [`optimize_egraph`].
pub fn optimize_egraph_with_varying(
    expr: &Expr,
    ctx: &Context,
    cfg: &EgraphConfig,
    varying: &[&str],
) -> EgraphResult {
    let original = cfg.cost.split_cost(expr, ctx, varying);
    let original_cost = original.request;
    let mut eg = EGraph::new(ctx);
    let root = eg.add_expr(expr);
    let stats = saturate(&mut eg, &egraph_rules(), &cfg.saturate);
    let keep_input = |stats| EgraphResult {
        best: expr.clone(),
        best_cost: original_cost,
        original_cost,
        stats,
        changed: false,
    };
    if stats.budget_hit {
        return keep_input(stats);
    }
    // Price the tree as built: a stored choice cost can be stale once a
    // class below it switched member.
    let best = extract(&eg, root, &cfg.cost, varying);
    let cost = cfg.cost.split_cost(&best, ctx, varying);
    if best == *expr || cost >= original {
        return keep_input(stats);
    }
    EgraphResult { best, best_cost: cost.request, original_cost, stats, changed: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_expr::{elem, var, Props};

    #[test]
    fn chain_extracts_right_to_left() {
        let ctx = Context::new().with("H", 32, 32).with("x", 32, 1);
        let e = (var("H").t() * var("H")) * var("x");
        let r = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        assert!(r.changed, "reassociation discovered");
        assert!(r.best_cost < r.original_cost);
        let want = var("H").t() * (var("H") * var("x"));
        assert_eq!(r.best, want, "two GEMVs beat GEMM+GEMV");
    }

    #[test]
    fn a_shared_gram_is_hoisted_out_of_the_chain() {
        // With H shared and x varying, HᵀH is priced once per binding, so
        // (HᵀH)x — one GEMV per request — beats Hᵀ(Hx), two; from either
        // spelling of the input.
        for n in [32usize, 192] {
            let ctx = Context::new().with("H", n, n).with("x", n, 1);
            let hoisted = var("H").t() * var("H") * var("x");
            let r = optimize_egraph_with_varying(&hoisted, &ctx, &EgraphConfig::default(), &["x"]);
            assert!(!r.changed, "n={n}: extracted {}", r.best);
            let gemv = 2 * (n * n) as u64 * 10;
            assert_eq!(r.best_cost, gemv + 1, "n={n}: one GEMV and the x tick per request");
            let twice = var("H").t() * (var("H") * var("x"));
            let r = optimize_egraph_with_varying(&twice, &ctx, &EgraphConfig::default(), &["x"]);
            assert!(r.changed);
            assert_eq!(r.best, hoisted, "n={n}");
            assert_eq!((r.original_cost, r.best_cost), (2 * gemv + 1, gemv + 1));
            let split = CostModel::default().split_cost(&hoisted, &ctx, &["x"]);
            assert_eq!(split.once, 2 + (n * n * n) as u64, "H, Hᵀ and a SYRK-priced HᵀH");
        }
    }

    #[test]
    fn an_invariant_result_hoists_nothing() {
        // No varying operand, or none the expression reads: every node is
        // priced per request, exactly as without a varying set.
        let ctx = Context::new().with("H", 32, 32).with("x", 32, 1);
        let e = (var("H").t() * var("H")) * var("x");
        let plain = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        for varying in [&[][..], &["y"], &["z", "w"]] {
            let r = optimize_egraph_with_varying(&e, &ctx, &EgraphConfig::default(), varying);
            assert_eq!(r, plain, "{varying:?}");
            let split = CostModel::default().split_cost(&e, &ctx, varying);
            assert_eq!((split.request, split.once), (plain.original_cost, 0));
        }
        assert_eq!(plain.best, var("H").t() * (var("H") * var("x")));
    }

    #[test]
    fn a_tie_per_request_keeps_the_input() {
        // Hᵀy − (HᵀH)x costs Hᵀ(y − Hx)'s two GEMVs and one sweep per
        // request, plus a hoisted HᵀH: the residual form stays.
        for n in [16usize, 192] {
            let ctx = Context::new().with("H", n, n).with("x", n, 1).with("y", n, 1);
            let e = var("H").t() * (var("y") - var("H") * var("x"));
            let r = optimize_egraph_with_varying(&e, &ctx, &EgraphConfig::default(), &["x", "y"]);
            assert!(!r.changed, "n={n}: extracted {}", r.best);
            let hoisted = var("H").t() * var("y") - var("H").t() * var("H") * var("x");
            let model = CostModel::default();
            let (a, b) = (
                model.split_cost(&e, &ctx, &["x", "y"]),
                model.split_cost(&hoisted, &ctx, &["x", "y"]),
            );
            assert_eq!(a.request, b.request, "n={n}");
            assert!(a < b, "n={n}");
        }
    }

    #[test]
    fn distributive_family_factors() {
        let ctx = Context::new().with("A", 24, 24).with("B", 24, 24).with("C", 24, 24);
        let e = var("A") * var("B") + var("A") * var("C");
        let r = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        assert!(r.changed);
        assert_eq!(r.best, var("A") * (var("B") + var("C")), "one GEMM instead of two");
        assert!(r.best_cost < r.original_cost);
    }

    #[test]
    fn slice_pushes_down_to_a_dot() {
        let ctx = Context::new().with("A", 32, 32).with("B", 32, 32);
        let e = elem(var("A") * var("B"), 0, 0);
        let r = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        assert!(r.changed);
        assert_eq!(r.best, var("A").row(0) * var("B").col(0), "full GEMM replaced by a dot");
    }

    #[test]
    fn stable_when_nothing_cheaper_exists() {
        // Hᵀ(y − Hx) is already optimal under the model: extraction must
        // return it unchanged (ties keep the original member).
        let ctx = Context::new().with("H", 16, 16).with("x", 16, 1).with("y", 16, 1);
        let e = var("H").t() * (var("y") - var("H") * var("x"));
        let r = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        assert_eq!(r.best, e, "no spurious rewriting");
        assert!(!r.changed);
        assert_eq!(r.best_cost, r.original_cost);
    }

    #[test]
    fn shared_subterm_is_priced_once_so_the_cse_form_survives() {
        // Tree pricing counts S = AᵀB twice and so prefers (BᵀA)(AᵀB) —
        // three GEMMs — by one transpose tick. As a DAG the input is two.
        for n in [12usize, 24, 256] {
            let ctx = Context::new().with("A", n, n).with("B", n, n);
            let s = var("A").t() * var("B");
            let e = s.clone().t() * s;
            let r = optimize_egraph(&e, &ctx, &EgraphConfig::default());
            assert!(!r.changed, "n={n}: extracted {}", r.best);
            assert_eq!(r.best, e);
            assert_eq!(r.best_cost, r.original_cost);
        }
        // (X·Y)ᵀ(X·Y) + X·Y: whatever is extracted computes X·Y once.
        let n = 32;
        let ctx = Context::new().with("X", n, n).with("Y", n, n);
        let p = var("X") * var("Y");
        let e = p.clone().t() * p.clone() + p.clone();
        let r = optimize_egraph(&e, &ctx, &EgraphConfig::default());
        assert!(r.best_cost <= r.original_cost);
        fn occurrences(e: &Expr, of: &Expr) -> usize {
            usize::from(e == of) + e.children().iter().map(|c| occurrences(c, of)).sum::<usize>()
        }
        fn products<'e>(e: &'e Expr, out: &mut std::collections::HashSet<&'e Expr>) {
            if matches!(e, Expr::Mul(..)) {
                out.insert(e);
            }
            e.children().into_iter().for_each(|c| products(c, out));
        }
        assert!(occurrences(&r.best, &p) >= 2, "X·Y stays shared in {}", r.best);
        let mut distinct = std::collections::HashSet::new();
        products(&r.best, &mut distinct);
        assert_eq!(distinct.len(), 2, "X·Y and the outer product, nothing else: {}", r.best);
    }

    #[test]
    fn budget_hit_returns_input_unchanged() {
        let ctx = Context::new().with("A", 4, 4);
        let mut e = var("A");
        for _ in 0..24 {
            e = e.clone() * var("A") + var("A");
        }
        let cfg = EgraphConfig {
            saturate: SaturateConfig { max_iters: 16, max_nodes: 150 },
            ..Default::default()
        };
        let r = optimize_egraph(&e, &ctx, &cfg);
        assert!(r.stats.budget_hit);
        assert!(!r.changed);
        assert_eq!(r.best, e);
    }

    #[test]
    fn orthogonal_gram_materializes_identity() {
        let ctx = Context::new().with_props("Q", 8, 8, Props::ORTHOGONAL).with("B", 8, 8);
        let qtq = var("Q").t() * var("Q");
        for (e, want) in [(qtq.clone(), laab_expr::identity(8)), (qtq * var("B"), var("B"))] {
            let r = optimize_egraph(&e, &ctx, &EgraphConfig::default());
            assert!(r.changed, "{e}");
            assert_eq!(r.best, want);
        }
    }

    #[test]
    fn e3_is_built_in_the_gram_form_it_is_priced_at() {
        // (AᵀB)ᵀAᵀB: the root product is priced at the SYRK rate, so it
        // must be built with AᵀB in both slots — two GEMMs, the form
        // served as `Syrk` — not as (BᵀA)(AᵀB), three.
        for n in [16usize, 96, 256] {
            let ctx = Context::new().with("A", n, n).with("B", n, n);
            let s = var("A").t() * var("B");
            let e3 = s.t() * var("A").t() * var("B");
            let r = optimize_egraph(&e3, &ctx, &EgraphConfig::default());
            assert_eq!(r.best, s.t() * s, "n={n}");
            assert_eq!(r.best_cost, CostModel::default().expr_cost(&r.best, &ctx));
        }
    }

    #[test]
    fn symmetric_gram_stays_a_transpose_pair() {
        // S ≡ Sᵀ puts both in one class; S·S would be priced as SYRK but
        // run as a GEMM.
        let ctx = Context::new().with_props("S", 16, 16, Props::SYMMETRIC);
        let r = optimize_egraph(&(var("S") * var("S").t()), &ctx, &EgraphConfig::default());
        let Expr::Mul(a, b) = &r.best else { panic!("not a product: {}", r.best) };
        assert!(laab_expr::is_transpose_pair(a, b), "extracted {}", r.best);
        assert_eq!(r.best_cost, CostModel::default().expr_cost(&r.best, &ctx));
    }
}
