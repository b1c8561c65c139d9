//! Equality saturation: the e-graph rule set and the budgeted loop.
//!
//! Each rule is a pure function from one `(class, member-node)` pair to
//! the list of equivalent right-hand sides; the loop matches every rule
//! against every class (in deterministic id order), interns the results,
//! unions them with the matched class, and repairs congruence — repeating
//! until no union changes the graph (*saturation*) or a budget trips.
//! Budgets are two-dimensional: an iteration cap and an e-node cap
//! ([`SaturateConfig`]); exceeding the node cap sets
//! [`SaturateStats::budget_hit`], which callers treat as "fall back to
//! the input expression".
//!
//! Equivalences are realized in both directions, including those that
//! temporarily *increase* cost: distributivity ↔ factoring, transpose
//! pushing ↔ contraction, slice pushdown ↔ pull-up, and `a − b` ↔
//! `a + (−1)·b`. Re-association needs no chain-DP rule: saturation
//! generates every parenthesization and extraction picks the cheapest.
//! Property-guarded rules (symmetric-transpose elimination, identity
//! elimination/materialization) fire only on classes whose *declared or
//! inferred* [`Props`] prove the precondition — a
//! numerically near-symmetric operand without the `SYMMETRIC` bit never
//! triggers them (the rule-soundness suite fuzzes exactly this boundary).
//! The tridiagonal/SYRK specializations need no structural rule: the
//! extraction [`CostModel`](crate::CostModel) prices them through the
//! property-discounted flop counts.

use crate::egraph::{radd, rmul, rscale, rsub, EClassId, EGraph, ENode, Rhs};
use laab_expr::{Factor, Props};

/// One e-graph rewrite rule.
#[derive(Clone, Copy)]
pub struct EgraphRule {
    /// Stable name (reported by tests and docs).
    pub name: &'static str,
    /// Match at `(class, node)`, returning equivalent right-hand sides.
    pub apply: fn(&EGraph, EClassId, &ENode) -> Vec<Rhs>,
}

impl std::fmt::Debug for EgraphRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EgraphRule({})", self.name)
    }
}

/// The full rule set, in deterministic application order.
pub fn egraph_rules() -> Vec<EgraphRule> {
    vec![
        EgraphRule { name: "distribute", apply: distribute },
        EgraphRule { name: "factor", apply: factor },
        EgraphRule { name: "transpose_distribute", apply: transpose_distribute },
        EgraphRule { name: "transpose_contract", apply: transpose_contract },
        EgraphRule { name: "transpose_cancel", apply: transpose_cancel },
        EgraphRule { name: "identity_eliminate", apply: identity_eliminate },
        EgraphRule { name: "identity_materialize", apply: identity_materialize },
        EgraphRule { name: "reassociate", apply: reassociate },
        EgraphRule { name: "slice_pushdown", apply: slice_pushdown },
        EgraphRule { name: "slice_pullup", apply: slice_pullup },
        EgraphRule { name: "scale_fuse", apply: scale_fuse },
        EgraphRule { name: "sum_commute", apply: sum_commute },
        EgraphRule { name: "sum_assoc", apply: sum_assoc },
        EgraphRule { name: "sub_normalize", apply: sub_normalize },
        EgraphRule { name: "blocked_split", apply: blocked_split },
    ]
}

fn cls(id: EClassId) -> Rhs {
    Rhs::Class(id)
}

/// `A·(B ± C) → A·B ± A·C` and `(B ± C)·A → B·A ± C·A`.
fn distribute(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Mul(a, b) = n else { return vec![] };
    let mut out = Vec::new();
    for m in &eg.class(*b).nodes {
        match m {
            ENode::Add(x, y) => out.push(radd(rmul(cls(*a), cls(*x)), rmul(cls(*a), cls(*y)))),
            ENode::Sub(x, y) => out.push(rsub(rmul(cls(*a), cls(*x)), rmul(cls(*a), cls(*y)))),
            _ => {}
        }
    }
    for m in &eg.class(*a).nodes {
        match m {
            ENode::Add(x, y) => out.push(radd(rmul(cls(*x), cls(*b)), rmul(cls(*y), cls(*b)))),
            ENode::Sub(x, y) => out.push(rsub(rmul(cls(*x), cls(*b)), rmul(cls(*y), cls(*b)))),
            _ => {}
        }
    }
    out
}

/// `A·B ± A·C → A·(B ± C)` and `A·C ± B·C → (A ± B)·C` — the rewrite
/// that turns the Distributive serving family from two GEMMs into one.
fn factor(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let (x, y, sub) = match n {
        ENode::Add(x, y) => (x, y, false),
        ENode::Sub(x, y) => (x, y, true),
        _ => return vec![],
    };
    let combine = |l: Rhs, r: Rhs| if sub { rsub(l, r) } else { radd(l, r) };
    let mut out = Vec::new();
    for mx in &eg.class(*x).nodes {
        let ENode::Mul(a, b) = mx else { continue };
        for my in &eg.class(*y).nodes {
            let ENode::Mul(c, d) = my else { continue };
            if eg.find(*a) == eg.find(*c) {
                out.push(rmul(cls(*a), combine(cls(*b), cls(*d))));
            }
            if eg.find(*b) == eg.find(*d) {
                out.push(rmul(combine(cls(*a), cls(*c)), cls(*b)));
            }
        }
    }
    out
}

/// `(A·B)ᵀ → Bᵀ·Aᵀ`, `(A ± B)ᵀ → Aᵀ ± Bᵀ`, `(c·A)ᵀ → c·Aᵀ`.
fn transpose_distribute(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Transpose(x) = n else { return vec![] };
    let mut out = Vec::new();
    for m in &eg.class(*x).nodes {
        match m {
            ENode::Mul(a, b) => out.push(rmul(cls(*b).t(), cls(*a).t())),
            ENode::Add(a, b) => out.push(radd(cls(*a).t(), cls(*b).t())),
            ENode::Sub(a, b) => out.push(rsub(cls(*a).t(), cls(*b).t())),
            ENode::Scale(c, y) => out.push(rscale(*c, cls(*y).t())),
            _ => {}
        }
    }
    out
}

/// `Bᵀ·Aᵀ → (A·B)ᵀ` — the contraction direction.
fn transpose_contract(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Mul(p, q) = n else { return vec![] };
    let mut out = Vec::new();
    for mp in &eg.class(*p).nodes {
        let ENode::Transpose(a) = mp else { continue };
        for mq in &eg.class(*q).nodes {
            let ENode::Transpose(b) = mq else { continue };
            out.push(rmul(cls(*b), cls(*a)).t());
        }
    }
    out
}

/// `(Xᵀ)ᵀ → X`, and `Xᵀ → X` when the class proves `SYMMETRIC`.
fn transpose_cancel(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Transpose(x) = n else { return vec![] };
    let mut out = Vec::new();
    for m in &eg.class(*x).nodes {
        if let ENode::Transpose(y) = m {
            out.push(cls(*y));
        }
    }
    if eg.class(*x).props.contains(Props::SYMMETRIC) {
        out.push(cls(*x));
    }
    out
}

/// `I·X → X` and `X·I → X` when the factor's class proves `IDENTITY`.
fn identity_eliminate(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Mul(a, b) = n else { return vec![] };
    let mut out = Vec::new();
    let square = |id: &EClassId| {
        let s = eg.class(*id).shape;
        s.rows == s.cols
    };
    if eg.class(*a).props.contains(Props::IDENTITY) && square(a) {
        out.push(cls(*b));
    }
    if eg.class(*b).props.contains(Props::IDENTITY) && square(b) {
        out.push(cls(*a));
    }
    out
}

/// Any square class proving `IDENTITY` also equals the literal
/// `Identity(n)` node (so e.g. `QᵀQ` for declared-orthogonal `Q`
/// disappears entirely).
fn identity_materialize(eg: &EGraph, id: EClassId, _n: &ENode) -> Vec<Rhs> {
    let c = eg.class(id);
    if c.props.contains(Props::IDENTITY) && c.shape.rows == c.shape.cols {
        vec![Rhs::Identity(c.shape.rows)]
    } else {
        vec![]
    }
}

/// Both rotations of `·`-associativity; under saturation these generate
/// every parenthesization, and extraction plays the matrix-chain DP.
fn reassociate(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Mul(x, y) = n else { return vec![] };
    let mut out = Vec::new();
    for m in &eg.class(*x).nodes {
        if let ENode::Mul(a, b) = m {
            out.push(rmul(cls(*a), rmul(cls(*b), cls(*y))));
        }
    }
    for m in &eg.class(*y).nodes {
        if let ENode::Mul(b, c) = m {
            out.push(rmul(rmul(cls(*x), cls(*b)), cls(*c)));
        }
    }
    out
}

/// Push `Elem`/`Row`/`Col` through `±`, scaling, transposition, and
/// products: `(A·B)[i,j] → A[i,:]·B[:,j]` and friends (Experiment 4's
/// slicing trap).
fn slice_pushdown(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let mut out = Vec::new();
    match n {
        ENode::Elem(x, i, j) => {
            for m in &eg.class(*x).nodes {
                match m {
                    ENode::Add(a, b) => out.push(radd(
                        Rhs::Elem(Box::new(cls(*a)), *i, *j),
                        Rhs::Elem(Box::new(cls(*b)), *i, *j),
                    )),
                    ENode::Sub(a, b) => out.push(rsub(
                        Rhs::Elem(Box::new(cls(*a)), *i, *j),
                        Rhs::Elem(Box::new(cls(*b)), *i, *j),
                    )),
                    ENode::Scale(c, y) => {
                        out.push(rscale(*c, Rhs::Elem(Box::new(cls(*y)), *i, *j)))
                    }
                    ENode::Transpose(y) => out.push(Rhs::Elem(Box::new(cls(*y)), *j, *i)),
                    ENode::Mul(a, b) => out.push(rmul(
                        Rhs::Row(Box::new(cls(*a)), *i),
                        Rhs::Col(Box::new(cls(*b)), *j),
                    )),
                    _ => {}
                }
            }
        }
        ENode::Row(x, i) => {
            for m in &eg.class(*x).nodes {
                match m {
                    ENode::Add(a, b) => out.push(radd(
                        Rhs::Row(Box::new(cls(*a)), *i),
                        Rhs::Row(Box::new(cls(*b)), *i),
                    )),
                    ENode::Sub(a, b) => out.push(rsub(
                        Rhs::Row(Box::new(cls(*a)), *i),
                        Rhs::Row(Box::new(cls(*b)), *i),
                    )),
                    ENode::Scale(c, y) => out.push(rscale(*c, Rhs::Row(Box::new(cls(*y)), *i))),
                    ENode::Transpose(y) => out.push(Rhs::Col(Box::new(cls(*y)), *i).t()),
                    ENode::Mul(a, b) => out.push(rmul(Rhs::Row(Box::new(cls(*a)), *i), cls(*b))),
                    _ => {}
                }
            }
        }
        ENode::Col(x, j) => {
            for m in &eg.class(*x).nodes {
                match m {
                    ENode::Add(a, b) => out.push(radd(
                        Rhs::Col(Box::new(cls(*a)), *j),
                        Rhs::Col(Box::new(cls(*b)), *j),
                    )),
                    ENode::Sub(a, b) => out.push(rsub(
                        Rhs::Col(Box::new(cls(*a)), *j),
                        Rhs::Col(Box::new(cls(*b)), *j),
                    )),
                    ENode::Scale(c, y) => out.push(rscale(*c, Rhs::Col(Box::new(cls(*y)), *j))),
                    ENode::Transpose(y) => out.push(Rhs::Row(Box::new(cls(*y)), *j).t()),
                    ENode::Mul(a, b) => out.push(rmul(cls(*a), Rhs::Col(Box::new(cls(*b)), *j))),
                    _ => {}
                }
            }
        }
        _ => {}
    }
    out
}

/// Pull a slice back over a product: `A[i,:]·B → (A·B)[i,:]` and
/// `A·B[:,j] → (A·B)[:,j]` — the reverse of [`slice_pushdown`].
fn slice_pullup(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Mul(p, q) = n else { return vec![] };
    let mut out = Vec::new();
    for m in &eg.class(*p).nodes {
        if let ENode::Row(a, i) = m {
            out.push(Rhs::Row(Box::new(rmul(cls(*a), cls(*q))), *i));
        }
    }
    for m in &eg.class(*q).nodes {
        if let ENode::Col(b, j) = m {
            out.push(Rhs::Col(Box::new(rmul(cls(*p), cls(*b))), *j));
        }
    }
    out
}

/// `X + X → 2·X`, `c·(d·X) → (c·d)·X`, `1·X → X`.
fn scale_fuse(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let mut out = Vec::new();
    match n {
        ENode::Add(x, y) if eg.find(*x) == eg.find(*y) => {
            out.push(rscale(Factor(2.0), cls(*x)));
        }
        ENode::Scale(c, x) => {
            if c.0.to_bits() == 1.0f64.to_bits() {
                out.push(cls(*x));
            }
            for m in &eg.class(*x).nodes {
                if let ENode::Scale(d, y) = m {
                    out.push(rscale(Factor(c.0 * d.0), cls(*y)));
                }
            }
        }
        _ => {}
    }
    out
}

/// `A + B → B + A` (bitwise-safe: IEEE addition is commutative).
fn sum_commute(_eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    match n {
        ENode::Add(a, b) => vec![radd(cls(*b), cls(*a))],
        _ => vec![],
    }
}

/// Both rotations of `+`-associativity.
fn sum_assoc(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Add(x, y) = n else { return vec![] };
    let mut out = Vec::new();
    for m in &eg.class(*x).nodes {
        if let ENode::Add(a, b) = m {
            out.push(radd(cls(*a), radd(cls(*b), cls(*y))));
        }
    }
    for m in &eg.class(*y).nodes {
        if let ENode::Add(b, c) = m {
            out.push(radd(radd(cls(*x), cls(*b)), cls(*c)));
        }
    }
    out
}

/// `A − B ↔ A + (−1)·B` (both directions; multiplication by −1 is exact,
/// so the rewrite is bitwise-safe and lets the sum rules see through
/// subtraction).
fn sub_normalize(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let mut out = Vec::new();
    match n {
        ENode::Sub(a, b) => out.push(radd(cls(*a), rscale(Factor(-1.0), cls(*b)))),
        ENode::Add(a, s) => {
            for m in &eg.class(*s).nodes {
                if let ENode::Scale(c, y) = m {
                    if c.0.to_bits() == (-1.0f64).to_bits() {
                        out.push(rsub(cls(*a), cls(*y)));
                    }
                }
            }
        }
        _ => {}
    }
    out
}

/// `blkdiag(A, B) · [x; y] → [A·x; B·y]` when conformable.
fn blocked_split(eg: &EGraph, _id: EClassId, n: &ENode) -> Vec<Rhs> {
    let ENode::Mul(p, q) = n else { return vec![] };
    let mut out = Vec::new();
    for mp in &eg.class(*p).nodes {
        let ENode::BlockDiag(a, b) = mp else { continue };
        for mq in &eg.class(*q).nodes {
            let ENode::VCat(x, y) = mq else { continue };
            if eg.class(*a).shape.cols == eg.class(*x).shape.rows
                && eg.class(*b).shape.cols == eg.class(*y).shape.rows
            {
                out.push(Rhs::VCat(
                    Box::new(rmul(cls(*a), cls(*x))),
                    Box::new(rmul(cls(*b), cls(*y))),
                ));
            }
        }
    }
    out
}

/// Saturation budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturateConfig {
    /// Maximum match→apply→rebuild rounds.
    pub max_iters: usize,
    /// Maximum distinct e-nodes; exceeding it aborts saturation with
    /// [`SaturateStats::budget_hit`] set.
    pub max_nodes: usize,
}

impl Default for SaturateConfig {
    /// Enough for every serving-family expression to saturate with slack
    /// (they peak well under a thousand nodes), tight enough that an
    /// adversarial deeply-nested input trips the budget in milliseconds.
    fn default() -> Self {
        SaturateConfig { max_iters: 8, max_nodes: 4000 }
    }
}

/// What saturation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaturateStats {
    /// Rounds run.
    pub iterations: usize,
    /// Distinct e-nodes at exit.
    pub enodes: usize,
    /// Live e-classes at exit.
    pub eclasses: usize,
    /// Unions that actually changed the graph.
    pub applications: u64,
    /// `true` when the node budget aborted saturation — the caller must
    /// fall back to the unoptimized expression.
    pub budget_hit: bool,
    /// `true` when a round produced no new equalities (a fixpoint: the
    /// graph holds *every* form reachable from the rule set).
    pub saturated: bool,
}

/// Run equality saturation over `eg` with `rules` under `cfg`'s budgets.
/// Fully deterministic: classes in id order, rules in declaration order,
/// matches applied in discovery order.
pub fn saturate(eg: &mut EGraph, rules: &[EgraphRule], cfg: &SaturateConfig) -> SaturateStats {
    let mut stats = SaturateStats::default();
    for _ in 0..cfg.max_iters {
        if eg.node_count() >= cfg.max_nodes {
            stats.budget_hit = true;
            break;
        }
        let mut matches: Vec<(EClassId, Rhs)> = Vec::new();
        for id in eg.class_ids() {
            let nodes = eg.class(id).nodes.clone();
            for n in &nodes {
                for rule in rules {
                    for rhs in (rule.apply)(eg, id, n) {
                        matches.push((id, rhs));
                    }
                }
            }
        }
        let mut changed = false;
        for (id, rhs) in matches {
            if eg.node_count() >= cfg.max_nodes {
                stats.budget_hit = true;
                break;
            }
            let new = eg.add_rhs(&rhs);
            if eg.union(id, new) {
                changed = true;
                stats.applications += 1;
            }
        }
        eg.rebuild();
        stats.iterations += 1;
        if stats.budget_hit {
            break;
        }
        if !changed {
            stats.saturated = true;
            break;
        }
    }
    stats.enodes = eg.node_count();
    stats.eclasses = eg.class_count();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_expr::{var, Context};

    #[test]
    fn saturation_reaches_factored_form() {
        // AB + AC: the e-graph must also hold A(B + C).
        let ctx = Context::new().with("A", 4, 4).with("B", 4, 4).with("C", 4, 4);
        let e = var("A") * var("B") + var("A") * var("C");
        let mut eg = EGraph::new(&ctx);
        let root = eg.add_expr(&e);
        let stats = saturate(&mut eg, &egraph_rules(), &SaturateConfig::default());
        assert!(stats.saturated && !stats.budget_hit, "{stats:?}");
        let bc = eg.add_expr(&(var("B") + var("C")));
        let factored = eg.add_expr(&(var("A") * (var("B") + var("C"))));
        assert_eq!(eg.find(root), eg.find(factored), "factored form joined the root class");
        assert!(eg.class(bc).shape.rows == 4);
    }

    #[test]
    fn saturation_reaches_all_associations() {
        let ctx = Context::new().with("H", 8, 8).with("x", 8, 1);
        let e = (var("H").t() * var("H")) * var("x");
        let mut eg = EGraph::new(&ctx);
        let root = eg.add_expr(&e);
        saturate(&mut eg, &egraph_rules(), &SaturateConfig::default());
        let right = eg.add_expr(&(var("H").t() * (var("H") * var("x"))));
        assert_eq!(eg.find(root), eg.find(right));
    }

    #[test]
    fn node_budget_trips_and_reports() {
        let ctx = Context::new().with("A", 4, 4);
        // A deeply nested alternating sum/product tree.
        let mut e = var("A");
        for _ in 0..24 {
            e = e.clone() * var("A") + var("A");
        }
        let mut eg = EGraph::new(&ctx);
        eg.add_expr(&e);
        let stats =
            saturate(&mut eg, &egraph_rules(), &SaturateConfig { max_iters: 16, max_nodes: 200 });
        assert!(stats.budget_hit, "{stats:?}");
        assert!(!stats.saturated);
    }
}
