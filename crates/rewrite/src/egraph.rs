//! An arena-backed e-graph over the expression AST.
//!
//! A search that walks one expression at a time misses rewrites that
//! require a temporary cost increase (distributing before re-factoring,
//! pushing a transpose the "wrong" way to expose a cancellation). The
//! e-graph keeps *every* equivalent form at once: expressions are
//! interned into **e-classes** (sets of provably-equal expressions) whose
//! members are **e-nodes** — operators over e-class children — so a
//! rewrite applied anywhere is instantly shared by every expression
//! containing that subterm. Equality is maintained by a union-find plus
//! **congruence closure**: when two classes merge, parents that became
//! structurally identical are merged too ([`EGraph::rebuild`], the
//! egg-style repair loop).
//!
//! The arena is plain `Vec`s — no external dependencies — and every
//! operation is deterministic: classes are iterated in id order, unions
//! keep the *smaller* id as the canonical root, and merged node lists
//! preserve insertion order (original-expression nodes first), which the
//! extractor relies on for stable tie-breaking.
//!
//! Each class carries an analysis pair `(Shape, Props)`: shapes must agree
//! across a class (rewrites are shape-preserving; a mismatch panics), and
//! properties are joined with lattice union — any member proving a
//! property proves it for the whole class, since all members denote the
//! same value. The `Mul` analysis shares
//! [`laab_expr::structural_mul_props`] with `Expr::props`, so the SYRK /
//! orthogonal-identity rules cannot drift between the two analyses.

use laab_expr::{structural_mul_props, Context, Expr, Factor, Props, Shape};
use std::collections::HashMap;

/// Identifier of an e-class. Ids are dense arena indices; always resolve
/// through [`EGraph::find`] before comparing two ids for equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EClassId(pub u32);

impl std::fmt::Display for EClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One operator application whose children are e-classes — the e-graph
/// mirror of the [`Expr`] constructors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ENode {
    /// Named operand leaf.
    Var(String),
    /// The `n×n` identity.
    Identity(usize),
    /// Transposition.
    Transpose(EClassId),
    /// Matrix product.
    Mul(EClassId, EClassId),
    /// Elementwise sum.
    Add(EClassId, EClassId),
    /// Elementwise difference.
    Sub(EClassId, EClassId),
    /// Scalar scaling.
    Scale(Factor, EClassId),
    /// Single-element extraction.
    Elem(EClassId, usize, usize),
    /// Row extraction.
    Row(EClassId, usize),
    /// Column extraction.
    Col(EClassId, usize),
    /// Vertical concatenation.
    VCat(EClassId, EClassId),
    /// Horizontal concatenation.
    HCat(EClassId, EClassId),
    /// Block-diagonal assembly.
    BlockDiag(EClassId, EClassId),
}

impl ENode {
    /// Child e-classes in argument order.
    pub fn children(&self) -> Vec<EClassId> {
        match self {
            ENode::Var(_) | ENode::Identity(_) => vec![],
            ENode::Transpose(x)
            | ENode::Scale(_, x)
            | ENode::Elem(x, _, _)
            | ENode::Row(x, _)
            | ENode::Col(x, _) => vec![*x],
            ENode::Mul(a, b)
            | ENode::Add(a, b)
            | ENode::Sub(a, b)
            | ENode::VCat(a, b)
            | ENode::HCat(a, b)
            | ENode::BlockDiag(a, b) => vec![*a, *b],
        }
    }

    /// The same operator with children rewritten through `f`.
    pub fn map_children(&self, mut f: impl FnMut(EClassId) -> EClassId) -> ENode {
        match self {
            ENode::Var(_) | ENode::Identity(_) => self.clone(),
            ENode::Transpose(x) => ENode::Transpose(f(*x)),
            ENode::Scale(c, x) => ENode::Scale(*c, f(*x)),
            ENode::Elem(x, i, j) => ENode::Elem(f(*x), *i, *j),
            ENode::Row(x, i) => ENode::Row(f(*x), *i),
            ENode::Col(x, j) => ENode::Col(f(*x), *j),
            ENode::Mul(a, b) => ENode::Mul(f(*a), f(*b)),
            ENode::Add(a, b) => ENode::Add(f(*a), f(*b)),
            ENode::Sub(a, b) => ENode::Sub(f(*a), f(*b)),
            ENode::VCat(a, b) => ENode::VCat(f(*a), f(*b)),
            ENode::HCat(a, b) => ENode::HCat(f(*a), f(*b)),
            ENode::BlockDiag(a, b) => ENode::BlockDiag(f(*a), f(*b)),
        }
    }
}

/// A rewrite right-hand side: an expression tree whose leaves may
/// reference existing e-classes. Rules return these; the saturation loop
/// interns them with [`EGraph::add_rhs`] and unions the result with the
/// matched class.
#[derive(Debug, Clone)]
pub enum Rhs {
    /// An existing e-class, verbatim.
    Class(EClassId),
    /// The `n×n` identity.
    Identity(usize),
    /// Transposition of a sub-result.
    Transpose(Box<Rhs>),
    /// Product of two sub-results.
    Mul(Box<Rhs>, Box<Rhs>),
    /// Sum of two sub-results.
    Add(Box<Rhs>, Box<Rhs>),
    /// Difference of two sub-results.
    Sub(Box<Rhs>, Box<Rhs>),
    /// Scalar scaling of a sub-result.
    Scale(Factor, Box<Rhs>),
    /// Single-element extraction.
    Elem(Box<Rhs>, usize, usize),
    /// Row extraction.
    Row(Box<Rhs>, usize),
    /// Column extraction.
    Col(Box<Rhs>, usize),
    /// Vertical concatenation.
    VCat(Box<Rhs>, Box<Rhs>),
}

impl Rhs {
    /// `selfᵀ`.
    pub fn t(self) -> Rhs {
        Rhs::Transpose(Box::new(self))
    }
}

/// `a · b` as a rewrite right-hand side.
pub fn rmul(a: Rhs, b: Rhs) -> Rhs {
    Rhs::Mul(Box::new(a), Box::new(b))
}

/// `a + b` as a rewrite right-hand side.
pub fn radd(a: Rhs, b: Rhs) -> Rhs {
    Rhs::Add(Box::new(a), Box::new(b))
}

/// `a − b` as a rewrite right-hand side.
pub fn rsub(a: Rhs, b: Rhs) -> Rhs {
    Rhs::Sub(Box::new(a), Box::new(b))
}

/// `c · x` as a rewrite right-hand side.
pub fn rscale(c: Factor, x: Rhs) -> Rhs {
    Rhs::Scale(c, Box::new(x))
}

/// One equivalence class of expressions.
#[derive(Debug, Clone)]
pub struct EClass {
    /// Member e-nodes, in insertion order (original-expression nodes
    /// precede rule-generated ones; the extractor's tie-break relies on
    /// this).
    pub nodes: Vec<ENode>,
    /// Shape shared by every member (rewrites are shape-preserving).
    pub shape: Shape,
    /// Lattice join of every member's inferred properties.
    pub props: Props,
    /// Parent e-nodes (as interned) and the class they live in — the
    /// congruence-repair worklist.
    parents: Vec<(ENode, EClassId)>,
}

/// The e-graph: a union-find over [`EClass`]es plus a hash-cons `memo`
/// mapping each canonical [`ENode`] to its class.
#[derive(Debug, Clone)]
pub struct EGraph {
    ctx: Context,
    /// Union-find parent pointers; `uf[i] == i` marks a root.
    uf: Vec<u32>,
    /// Class data, indexed by id; `None` once merged into another root.
    classes: Vec<Option<EClass>>,
    /// Hash-cons: canonical e-node → class.
    memo: HashMap<ENode, EClassId>,
    /// Classes whose parents need congruence repair.
    dirty: Vec<EClassId>,
}

impl EGraph {
    /// An empty e-graph typed by `ctx` (operand shapes and declared
    /// properties).
    pub fn new(ctx: &Context) -> Self {
        EGraph {
            ctx: ctx.clone(),
            uf: Vec::new(),
            classes: Vec::new(),
            memo: HashMap::new(),
            dirty: Vec::new(),
        }
    }

    /// The typing context the graph was built under.
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// Canonical representative of `id`'s equivalence class.
    pub fn find(&self, id: EClassId) -> EClassId {
        let mut i = id.0;
        while self.uf[i as usize] != i {
            i = self.uf[i as usize];
        }
        EClassId(i)
    }

    /// The class data for `id` (resolved through [`EGraph::find`]).
    pub fn class(&self, id: EClassId) -> &EClass {
        self.classes[self.find(id).0 as usize].as_ref().expect("root class present")
    }

    /// Number of distinct (canonical) e-nodes — the saturation budget's
    /// currency.
    pub fn node_count(&self) -> usize {
        self.memo.len()
    }

    /// Number of live e-classes.
    pub fn class_count(&self) -> usize {
        (0..self.uf.len() as u32).filter(|&i| self.uf[i as usize] == i).count()
    }

    /// Live classes in ascending id order (the deterministic iteration
    /// order every saturation and extraction pass uses).
    pub fn class_ids(&self) -> Vec<EClassId> {
        (0..self.uf.len() as u32).filter(|&i| self.uf[i as usize] == i).map(EClassId).collect()
    }

    /// `true` when classes `a` and `b` are equal up to transposition
    /// (either contains a `Transpose` of the other) — the class-level
    /// SYRK-pattern test.
    pub fn transpose_pair(&self, a: EClassId, b: EClassId) -> bool {
        self.class_is_transpose_of(a, b) || self.class_is_transpose_of(b, a)
    }

    /// `true` when class `a` contains a `Transpose` e-node whose child is
    /// class `b` (i.e. `a ≡ bᵀ`).
    pub fn class_is_transpose_of(&self, a: EClassId, b: EClassId) -> bool {
        let b = self.find(b);
        self.class(a).nodes.iter().any(|n| matches!(n, ENode::Transpose(x) if self.find(*x) == b))
    }

    fn canonicalize(&self, n: &ENode) -> ENode {
        n.map_children(|c| self.find(c))
    }

    /// Shape and property analysis of a (canonicalized) e-node from its
    /// child classes — the class-level mirror of `Expr::try_shape` +
    /// `Expr::props`.
    fn analyze(&self, n: &ENode) -> (Shape, Props) {
        let sh = |id: &EClassId| self.class(*id).shape;
        let pr = |id: &EClassId| self.class(*id).props;
        match n {
            ENode::Var(name) => {
                let info = self
                    .ctx
                    .get(name)
                    .unwrap_or_else(|| panic!("operand `{name}` undeclared in e-graph context"));
                (info.shape, info.props)
            }
            ENode::Identity(n) => (Shape::new(*n, *n), Props::IDENTITY.normalize()),
            ENode::Transpose(x) => (sh(x).t(), pr(x).transpose()),
            ENode::Mul(a, b) => {
                let (sa, sb) = (sh(a), sh(b));
                assert_eq!(
                    sa.cols, sb.rows,
                    "e-graph invariant: non-conformal product {sa} · {sb} interned"
                );
                let props = structural_mul_props(
                    pr(a),
                    pr(b),
                    self.transpose_pair(*a, *b),
                    self.class_is_transpose_of(*a, *b),
                );
                (Shape::new(sa.rows, sb.cols), props)
            }
            ENode::Add(a, b) => {
                let (sa, sb) = (sh(a), sh(b));
                assert_eq!(sa, sb, "e-graph invariant: elementwise shape mismatch interned");
                (sa, pr(a).add(pr(b)))
            }
            ENode::Sub(a, b) => {
                let (sa, sb) = (sh(a), sh(b));
                assert_eq!(sa, sb, "e-graph invariant: elementwise shape mismatch interned");
                (sa, pr(a).add(pr(b)).remove(Props::SPD))
            }
            ENode::Scale(c, x) => (sh(x), pr(x).scale(c.0)),
            ENode::Elem(x, i, j) => {
                let s = sh(x);
                assert!(*i < s.rows && *j < s.cols, "e-graph invariant: element out of bounds");
                (Shape::new(1, 1), Props::NONE)
            }
            ENode::Row(x, i) => {
                let s = sh(x);
                assert!(*i < s.rows, "e-graph invariant: row out of bounds");
                (Shape::new(1, s.cols), Props::NONE)
            }
            ENode::Col(x, j) => {
                let s = sh(x);
                assert!(*j < s.cols, "e-graph invariant: column out of bounds");
                (Shape::new(s.rows, 1), Props::NONE)
            }
            ENode::VCat(a, b) => {
                let (sa, sb) = (sh(a), sh(b));
                assert_eq!(sa.cols, sb.cols, "e-graph invariant: vcat column mismatch");
                (Shape::new(sa.rows + sb.rows, sa.cols), Props::NONE)
            }
            ENode::HCat(a, b) => {
                let (sa, sb) = (sh(a), sh(b));
                assert_eq!(sa.rows, sb.rows, "e-graph invariant: hcat row mismatch");
                (Shape::new(sa.rows, sa.cols + sb.cols), Props::NONE)
            }
            ENode::BlockDiag(a, b) => {
                let (sa, sb) = (sh(a), sh(b));
                (
                    Shape::new(sa.rows + sb.rows, sa.cols + sb.cols),
                    pr(a).intersect(pr(b)).normalize(),
                )
            }
        }
    }

    /// Intern an e-node, returning its class (hash-consed: structurally
    /// identical nodes share a class).
    pub fn add(&mut self, n: ENode) -> EClassId {
        let n = self.canonicalize(&n);
        if let Some(&id) = self.memo.get(&n) {
            return self.find(id);
        }
        let (shape, props) = self.analyze(&n);
        let id = EClassId(self.uf.len() as u32);
        self.uf.push(id.0);
        for c in n.children() {
            let c = self.find(c);
            self.classes[c.0 as usize]
                .as_mut()
                .expect("root class present")
                .parents
                .push((n.clone(), id));
        }
        self.classes.push(Some(EClass { nodes: vec![n.clone()], shape, props, parents: vec![] }));
        self.memo.insert(n, id);
        id
    }

    /// Intern a whole expression bottom-up, returning the root class.
    pub fn add_expr(&mut self, e: &Expr) -> EClassId {
        let node = match e {
            Expr::Var(name) => ENode::Var(name.clone()),
            Expr::Identity(n) => ENode::Identity(*n),
            Expr::Transpose(x) => ENode::Transpose(self.add_expr(x)),
            Expr::Mul(a, b) => {
                let (a, b) = (self.add_expr(a), self.add_expr(b));
                ENode::Mul(a, b)
            }
            Expr::Add(a, b) => {
                let (a, b) = (self.add_expr(a), self.add_expr(b));
                ENode::Add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = (self.add_expr(a), self.add_expr(b));
                ENode::Sub(a, b)
            }
            Expr::Scale(c, x) => ENode::Scale(*c, self.add_expr(x)),
            Expr::Elem(x, i, j) => ENode::Elem(self.add_expr(x), *i, *j),
            Expr::Row(x, i) => ENode::Row(self.add_expr(x), *i),
            Expr::Col(x, j) => ENode::Col(self.add_expr(x), *j),
            Expr::VCat(a, b) => {
                let (a, b) = (self.add_expr(a), self.add_expr(b));
                ENode::VCat(a, b)
            }
            Expr::HCat(a, b) => {
                let (a, b) = (self.add_expr(a), self.add_expr(b));
                ENode::HCat(a, b)
            }
            Expr::BlockDiag(a, b) => {
                let (a, b) = (self.add_expr(a), self.add_expr(b));
                ENode::BlockDiag(a, b)
            }
        };
        self.add(node)
    }

    /// Intern a rewrite right-hand side, returning its class.
    pub fn add_rhs(&mut self, rhs: &Rhs) -> EClassId {
        let node = match rhs {
            Rhs::Class(id) => return self.find(*id),
            Rhs::Identity(n) => ENode::Identity(*n),
            Rhs::Transpose(x) => ENode::Transpose(self.add_rhs(x)),
            Rhs::Mul(a, b) => {
                let (a, b) = (self.add_rhs(a), self.add_rhs(b));
                ENode::Mul(a, b)
            }
            Rhs::Add(a, b) => {
                let (a, b) = (self.add_rhs(a), self.add_rhs(b));
                ENode::Add(a, b)
            }
            Rhs::Sub(a, b) => {
                let (a, b) = (self.add_rhs(a), self.add_rhs(b));
                ENode::Sub(a, b)
            }
            Rhs::Scale(c, x) => ENode::Scale(*c, self.add_rhs(x)),
            Rhs::Elem(x, i, j) => ENode::Elem(self.add_rhs(x), *i, *j),
            Rhs::Row(x, i) => ENode::Row(self.add_rhs(x), *i),
            Rhs::Col(x, j) => ENode::Col(self.add_rhs(x), *j),
            Rhs::VCat(a, b) => {
                let (a, b) = (self.add_rhs(a), self.add_rhs(b));
                ENode::VCat(a, b)
            }
        };
        self.add(node)
    }

    /// Merge the classes of `a` and `b`. Returns `true` if they were
    /// distinct. The smaller id stays canonical (deterministic), the
    /// merged node list preserves insertion order, and property lattices
    /// join. Call [`EGraph::rebuild`] after a batch of unions to restore
    /// congruence.
    pub fn union(&mut self, a: EClassId, b: EClassId) -> bool {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return false;
        }
        let (root, dead) = if a < b { (a, b) } else { (b, a) };
        self.uf[dead.0 as usize] = root.0;
        let dead_class = self.classes[dead.0 as usize].take().expect("root class present");
        let rc = self.classes[root.0 as usize].as_mut().expect("root class present");
        assert_eq!(
            rc.shape, dead_class.shape,
            "e-graph invariant: union of differently-shaped classes"
        );
        rc.props = rc.props.union(dead_class.props).normalize();
        rc.nodes.extend(dead_class.nodes);
        rc.parents.extend(dead_class.parents);
        self.dirty.push(root);
        true
    }

    /// Restore the congruence invariant after unions: re-canonicalize the
    /// hash-cons, merge parents that became structurally identical
    /// (cascading), dedupe member/parent lists, and re-join class
    /// properties to a fixpoint.
    pub fn rebuild(&mut self) {
        while let Some(id) = self.dirty.pop() {
            let id = self.find(id);
            let parents = std::mem::take(
                &mut self.classes[id.0 as usize].as_mut().expect("root class present").parents,
            );
            let mut repaired: Vec<(ENode, EClassId)> = Vec::with_capacity(parents.len());
            for (pnode, pclass) in parents {
                self.memo.remove(&pnode);
                let canon = self.canonicalize(&pnode);
                let pclass = self.find(pclass);
                if let Some(&other) = self.memo.get(&canon) {
                    let other = self.find(other);
                    if other != pclass {
                        // Congruence: same operator over now-equal
                        // children ⇒ the parents are equal too.
                        self.union(pclass, other);
                    }
                }
                let pclass = self.find(pclass);
                self.memo.insert(canon.clone(), pclass);
                repaired.push((canon, pclass));
            }
            repaired.dedup_by(|a, b| a == b);
            let root = self.find(id);
            self.classes[root.0 as usize]
                .as_mut()
                .expect("root class present")
                .parents
                .extend(repaired);
        }
        self.compact();
        self.propagate_props();
    }

    /// Canonicalize and dedupe every class's member list (first
    /// occurrence wins, preserving the original-nodes-first order).
    fn compact(&mut self) {
        for id in self.class_ids() {
            let nodes = std::mem::take(
                &mut self.classes[id.0 as usize].as_mut().expect("root class present").nodes,
            );
            let mut seen: Vec<ENode> = Vec::with_capacity(nodes.len());
            for n in nodes {
                let canon = self.canonicalize(&n);
                if !seen.contains(&canon) {
                    seen.push(canon);
                }
            }
            self.classes[id.0 as usize].as_mut().expect("root class present").nodes = seen;
        }
    }

    /// Re-join class properties to a fixpoint: a class gains any property
    /// any of its members proves (all members denote the same value), and
    /// gains ripple upward through parents.
    fn propagate_props(&mut self) {
        loop {
            let mut changed = false;
            for id in self.class_ids() {
                let mut p = self.class(id).props;
                for i in 0..self.class(id).nodes.len() {
                    let n = self.class(id).nodes[i].clone();
                    let (_, np) = self.analyze(&n);
                    p = p.union(np).normalize();
                }
                if p != self.class(id).props {
                    self.classes[id.0 as usize].as_mut().expect("root class present").props = p;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_expr::var;

    fn ctx_n(n: usize) -> Context {
        Context::new().with("A", n, n).with("B", n, n).with("x", n, 1)
    }

    #[test]
    fn hashcons_shares_identical_subtrees() {
        let ctx = ctx_n(4);
        let mut eg = EGraph::new(&ctx);
        // (AᵀB)ᵀ(AᵀB): the two AᵀB subtrees must land in one class.
        let s = var("A").t() * var("B");
        let e = s.clone().t() * s.clone();
        let root = eg.add_expr(&e);
        // A, B, Aᵀ, AᵀB, (AᵀB)ᵀ, root — 6 classes, not 9.
        assert_eq!(eg.class_count(), 6);
        assert_eq!(eg.class(root).shape, Shape::new(4, 4));
        let again = eg.add_expr(&e);
        assert_eq!(eg.find(root), eg.find(again));
    }

    #[test]
    fn union_and_congruence_closure() {
        let ctx = ctx_n(4);
        let mut eg = EGraph::new(&ctx);
        let a = eg.add_expr(&var("A"));
        let b = eg.add_expr(&var("B"));
        let ax = eg.add_expr(&(var("A") * var("x")));
        let bx = eg.add_expr(&(var("B") * var("x")));
        assert_ne!(eg.find(ax), eg.find(bx));
        // Assert A ≡ B; congruence must merge A·x ≡ B·x.
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        assert_eq!(eg.find(ax), eg.find(bx), "congruent parents merged");
    }

    #[test]
    fn props_join_across_members_and_ripple_up() {
        let ctx =
            Context::new().with_props("S", 4, 4, Props::SYMMETRIC).with("A", 4, 4).with("x", 4, 1);
        let mut eg = EGraph::new(&ctx);
        let a = eg.add_expr(&var("A"));
        let at = eg.add_expr(&var("A").t());
        let ata = eg.add(ENode::Mul(at, a));
        // Class-level SYRK detection: AᵀA is symmetric.
        assert!(eg.class(ata).props.contains(Props::SYMMETRIC));
        // Joining A with a declared-symmetric operand spreads the bit.
        let s = eg.add_expr(&var("S"));
        eg.union(a, s);
        eg.rebuild();
        assert!(eg.class(a).props.contains(Props::SYMMETRIC));
    }

    #[test]
    fn smaller_id_stays_canonical() {
        let ctx = ctx_n(4);
        let mut eg = EGraph::new(&ctx);
        let a = eg.add_expr(&var("A"));
        let b = eg.add_expr(&var("B"));
        eg.union(b, a);
        eg.rebuild();
        assert_eq!(eg.find(b), a, "union keeps the smaller id as root");
        // Original node order preserved: A's own node leads the list.
        assert!(matches!(&eg.class(a).nodes[0], ENode::Var(n) if n == "A"));
    }

    #[test]
    #[should_panic(expected = "non-conformal")]
    fn non_conformal_product_panics() {
        let ctx = Context::new().with("A", 4, 4).with("x", 4, 1);
        let mut eg = EGraph::new(&ctx);
        let x = eg.add_expr(&var("x"));
        let a = eg.add_expr(&var("A"));
        eg.add(ENode::Mul(x, a)); // 4×1 · 4×4
    }
}
