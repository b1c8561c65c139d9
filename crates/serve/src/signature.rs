//! Canonical request signatures, the plan-cache key.
//!
//! `tf.function` keys its concrete-function cache on the *call signature*:
//! the traced Python function plus the argument specs (shape + dtype). The
//! analogue here is [`Signature`]: the callsite name, the canonical
//! rendering of the expression structure, every declared operand's shape
//! and property flags, the element dtype, and the execution backend the
//! plan targets. Equality is structural (the hash is only an
//! accelerator), so hash collisions can never alias two different
//! requests onto one plan.

use std::sync::Arc;

use laab_backend::BackendId;
use laab_expr::{Context, Expr};
use laab_rewrite::CostModel;

pub use laab_backend::Dtype;

/// The optimizer pipeline a plan is compiled through — part of the
/// signature (and the retrace key), because a caller that pins levels
/// compiles the same request twice and the two plans must never alias.
///
/// The pipeline is one path — e-graph → lowering to graph IR — and the
/// level only says whether the first stage runs. Entry points that take no
/// level ([`Signature::new`], `Request::signature`, `Plan::compile*`)
/// pick it per expression with [`OptLevel::for_input`]; the `_opt` /
/// `with_opt` variants pin it, for A/B lanes and differential tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// The expression lowered as written, with what the frameworks'
    /// graph passes do (transpose folding, CSE, scale fusion) applied
    /// while building — what [`OptLevel::for_input`] picks for an input
    /// too cheap to repay a saturation.
    #[default]
    Passes,
    /// Equality saturation first: the expression is interned into
    /// `laab-rewrite`'s e-graph, saturated with the bidirectional rule
    /// set, and the cheapest form under the measured-GFLOP/s cost model
    /// is extracted and lowered (so `BatchAnalysis` sees the normalized
    /// form), with a product of one node and its own transpose built as
    /// `Syrk`. On a saturation budget hit the input expression is
    /// lowered.
    Egraph,
}

/// Modeled cost ([`CostModel::expr_cost`] ticks at the default anchors)
/// from which an input is worth saturating.
///
/// Saturation plus extraction costs 30–40 µs per compile
/// (`rewrite.egraph_optimize_us` 29–40 in the committed benchmark
/// baseline). A tick is one flop at the model's 40 GFLOP/s compute-bound
/// anchor, so that is 1.2–1.6 M ticks — and a rewrite can save at most
/// the input's whole cost, so below about 2²⁰ ticks not even one
/// execution can repay the compile. The threshold is a property of the
/// input, not of a workload: of the serving families, every n < 48
/// expression stays under it (the largest, `distributive` at n = 47,
/// costs ≈ 0.44 M) and keeps the compile that only lowers, while every
/// n ≥ 192 expression is over it (the smallest, `solve_residual` at
/// n = 192, costs ≈ 1.5 M) and saturates once per signature.
pub const EGRAPH_MIN_COST: u64 = 1 << 20;

impl OptLevel {
    /// The level the entry points without an explicit level compile
    /// `expr` at: [`OptLevel::Egraph`] from [`EGRAPH_MIN_COST`] modeled
    /// ticks up, [`OptLevel::Passes`] below. Signature and plan both call
    /// this, so a cached plan is always the one its signature names — and
    /// a server and a verifying client, which see the same expression,
    /// pick the same level.
    pub fn for_input(expr: &Expr, ctx: &Context) -> OptLevel {
        if CostModel::default().expr_cost(expr, ctx) >= EGRAPH_MIN_COST {
            OptLevel::Egraph
        } else {
            OptLevel::Passes
        }
    }

    /// Every level, cheapest first.
    pub const ALL: [OptLevel; 2] = [OptLevel::Passes, OptLevel::Egraph];

    /// Stable lowercase identifier (hash input and display name).
    pub fn id(self) -> &'static str {
        match self {
            OptLevel::Passes => "passes",
            OptLevel::Egraph => "egraph",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One declared operand inside a signature: name, shape, property bits,
/// and whether it is declared to vary request to request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OperandSig {
    name: String,
    rows: usize,
    cols: usize,
    props: u16,
    varying: bool,
}

/// The canonical signature of one request.
///
/// Covers everything that determines the compiled plan: the callsite
/// (`func`), the expression *structure* (canonical text, association
/// visible), each declared operand's shape, property flags and lifetime
/// (sorted by name — [`Context`] iterates its `BTreeMap` in order; see
/// [`Signature::with_varying`]), the dtype, and the [`BackendId`] the
/// plan is compiled for — one traced graph
/// dispatched to two backends is two cache entries, never one, so an
/// A/B run can't cross-hit. The 64-bit FNV-1a hash is stable across
/// processes and runs, so it can key on-disk artifacts too.
///
/// The parts sit behind one reference count: a clone (the plan cache
/// keeps one per entry) copies a pointer, not the strings and operand
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(Arc<Parts>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Parts {
    func: String,
    canon: String,
    operands: Vec<OperandSig>,
    dtype: Dtype,
    backend: BackendId,
    opt: OptLevel,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over a byte slice.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Signature {
    /// Build the signature of calling `func` with `expr` over the operands
    /// declared in `ctx`, at element precision `dtype`, targeting
    /// `backend`, compiled at the level [`OptLevel::for_input`] picks for
    /// `expr` — the level `Plan::compile*` picks for the same input.
    ///
    /// Every operand declared in `ctx` participates (callers build one
    /// minimal context per request family), so an unused-but-declared
    /// operand changing shape is a retrace — exactly like passing a
    /// differently-shaped tensor to a `tf.function` parameter the traced
    /// body happens to ignore.
    pub fn new(func: &str, expr: &Expr, ctx: &Context, dtype: Dtype, backend: BackendId) -> Self {
        Self::with_opt(func, expr, ctx, dtype, backend, OptLevel::for_input(expr, ctx))
    }

    /// [`Signature::new`] with an explicit optimizer level. The level is
    /// hashed and compared like every other component: one request
    /// compiled at both levels is two entries that never alias.
    pub fn with_opt(
        func: &str,
        expr: &Expr,
        ctx: &Context,
        dtype: Dtype,
        backend: BackendId,
        opt: OptLevel,
    ) -> Self {
        let canon = expr.to_string();
        let mut operands = Vec::with_capacity(ctx.len());
        for name in ctx.names() {
            let info = ctx.expect(name);
            operands.push(OperandSig {
                name: name.to_string(),
                rows: info.shape.rows,
                cols: info.shape.cols,
                props: info.props.bits(),
                varying: false,
            });
        }
        let mut h = FNV_OFFSET;
        h = fnv1a(h, func.as_bytes());
        h = fnv1a(h, &[0xff]);
        h = fnv1a(h, canon.as_bytes());
        for op in &operands {
            h = fnv1a(h, &[0xff]);
            h = fnv1a(h, op.name.as_bytes());
            h = fnv1a(h, &(op.rows as u64).to_le_bytes());
            h = fnv1a(h, &(op.cols as u64).to_le_bytes());
            h = fnv1a(h, &op.props.to_le_bytes());
        }
        h = fnv1a(h, &[0xff, if dtype == Dtype::F32 { 0x01 } else { 0x02 }]);
        h = fnv1a(h, &[0xff]);
        h = fnv1a(h, backend.name().as_bytes());
        h = fnv1a(h, &[0xff]);
        h = fnv1a(h, opt.id().as_bytes());
        Self(Arc::new(Parts {
            func: func.to_string(),
            canon,
            operands,
            dtype,
            backend,
            opt,
            hash: h,
        }))
    }

    /// This signature with the operands named in `varying` declared to
    /// vary request to request, as `Plan::compile_with_varying` takes
    /// them: which operands are shared decides what the plan hoists (and
    /// what the e-graph level extracts), so two plans that differ only in
    /// it are two entries that never alias. A name the context does not
    /// declare changes nothing.
    pub fn with_varying(mut self, varying: &[&str]) -> Self {
        let parts = Arc::make_mut(&mut self.0);
        for op in parts.operands.iter_mut().filter(|op| varying.contains(&op.name.as_str())) {
            op.varying = true;
            parts.hash = fnv1a(fnv1a(parts.hash, &[0xfe]), op.name.as_bytes());
        }
        self
    }

    /// The stable 64-bit hash (cache shard + bucket key; equality still
    /// compares the full signature).
    pub fn hash(&self) -> u64 {
        self.0.hash
    }

    /// The callsite identity (the "Python function" of the analogy) —
    /// the unit the retrace counter tracks.
    pub fn func(&self) -> &str {
        &self.0.func
    }

    /// The canonical expression structure.
    pub fn canon(&self) -> &str {
        &self.0.canon
    }

    /// The request's element precision.
    pub fn dtype(&self) -> Dtype {
        self.0.dtype
    }

    /// The execution backend the plan is compiled for.
    pub fn backend(&self) -> BackendId {
        self.0.backend
    }

    /// The optimizer pipeline the plan is compiled through.
    pub fn opt(&self) -> OptLevel {
        self.0.opt
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts = &self.0;
        write!(f, "{}: {} [", parts.func, parts.canon)?;
        for (i, op) in parts.operands.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}x{}", op.name, op.rows, op.cols)?;
            if op.props != 0 {
                write!(f, "*")?;
            }
            if op.varying {
                write!(f, "~")?;
            }
        }
        write!(f, "] {} @{} opt={}", parts.dtype.name(), parts.backend, parts.opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laab_expr::{var, Props};

    fn ctx(n: usize) -> Context {
        Context::new().with("A", n, n).with("B", n, n)
    }

    #[test]
    fn equal_requests_have_equal_signatures() {
        let e = var("A").t() * var("B");
        let s1 = Signature::new("f", &e, &ctx(8), Dtype::F64, BackendId::ENGINE);
        let s2 = Signature::new("f", &e.clone(), &ctx(8), Dtype::F64, BackendId::ENGINE);
        assert_eq!(s1, s2);
        assert_eq!(s1.hash(), s2.hash());
    }

    #[test]
    fn every_component_changes_the_signature() {
        let e = var("A").t() * var("B");
        let base = Signature::new("f", &e, &ctx(8), Dtype::F64, BackendId::ENGINE);
        // Different callsite.
        assert_ne!(base, Signature::new("g", &e, &ctx(8), Dtype::F64, BackendId::ENGINE));
        // Different structure (association matters, like a retraced body).
        let re = var("A") * var("B");
        assert_ne!(base, Signature::new("f", &re, &ctx(8), Dtype::F64, BackendId::ENGINE));
        // Different shapes.
        assert_ne!(base, Signature::new("f", &e, &ctx(9), Dtype::F64, BackendId::ENGINE));
        // Different dtype.
        assert_ne!(base, Signature::new("f", &e, &ctx(8), Dtype::F32, BackendId::ENGINE));
        // Different backend: the A/B axis — one plan per backend.
        let oracle = Signature::new("f", &e, &ctx(8), Dtype::F64, BackendId::REFERENCE);
        assert_ne!(base, oracle);
        assert_ne!(base.hash(), oracle.hash());
        // Different property flags on an operand.
        let pctx = Context::new().with_props("A", 8, 8, Props::SYMMETRIC).with("B", 8, 8);
        assert_ne!(base, Signature::new("f", &e, &pctx, Dtype::F64, BackendId::ENGINE));
        // Different optimizer level: one plan per level, never aliased.
        let eg =
            Signature::with_opt("f", &e, &ctx(8), Dtype::F64, BackendId::ENGINE, OptLevel::Egraph);
        assert_ne!(base, eg);
        assert_ne!(base.hash(), eg.hash());
        assert_eq!(base.opt(), OptLevel::Passes);
        assert_eq!(eg.opt(), OptLevel::Egraph);
        // A different varying set: it decides what the plan hoists.
        let vary = |names: &[&str]| base.clone().with_varying(names);
        assert_ne!(base, vary(&["A"]));
        assert_ne!(base.hash(), vary(&["A"]).hash());
        assert_ne!(vary(&["A"]), vary(&["B"]));
        assert_ne!(vary(&["A"]).hash(), vary(&["A", "B"]).hash());
        assert_eq!(vary(&["B", "A"]), vary(&["A", "B"]), "a set: order-free");
        assert_eq!(vary(&["B", "A"]).hash(), vary(&["A", "B"]).hash());
        assert_eq!(vary(&["Z"]), base, "an undeclared name changes nothing");
        assert!(vary(&["B"]).to_string().contains("B:8x8~"), "{}", vary(&["B"]));
    }

    #[test]
    fn opt_level_ids_round_trip() {
        assert_eq!(OptLevel::ALL.map(OptLevel::id), ["passes", "egraph"]);
        assert_eq!(OptLevel::ALL.map(|l| l.to_string()), ["passes", "egraph"]);
        assert_eq!(OptLevel::default(), OptLevel::Passes);
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // FNV-1a over fixed bytes: the constant below is the contract that
        // the hash never silently changes (it may key on-disk artifacts).
        let e = var("A") * var("B");
        let s = Signature::new("anchor", &e, &ctx(4), Dtype::F32, BackendId::ENGINE);
        assert_eq!(
            s.hash(),
            Signature::new("anchor", &e, &ctx(4), Dtype::F32, BackendId::ENGINE).hash()
        );
        assert_ne!(s.hash(), 0);
    }

    #[test]
    fn display_names_the_parts() {
        let e = var("A") * var("B");
        let s = Signature::new("fam", &e, &ctx(4), Dtype::F32, BackendId::REFERENCE);
        let text = s.to_string();
        assert!(text.contains("fam"), "{text}");
        assert!(text.contains("A B"), "{text}");
        assert!(text.contains("4x4"), "{text}");
        assert!(text.contains("f32"), "{text}");
        assert!(text.contains("@reference"), "{text}");
        assert!(text.contains("opt=passes"), "{text}");
        assert_eq!(s.backend(), BackendId::REFERENCE);
    }

    #[test]
    fn dtype_of_scalar() {
        assert_eq!(Dtype::of::<f32>(), Dtype::F32);
        assert_eq!(Dtype::of::<f64>(), Dtype::F64);
        assert_eq!(Dtype::F32.name(), "f32");
        assert_eq!(Dtype::F64.name(), "f64");
    }
}
