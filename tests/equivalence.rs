//! The equivalence matrix: every way this repository evaluates an
//! expression computes the same value, the claim the paper's comparisons
//! of eager, graph mode and hand-optimised kernels rest on.
//!
//! One generator draws the cases: a random grammar over square, triangular,
//! symmetric and vector operands; a stackable vector grammar over a shared
//! `H` and its `xᵀx` variant; the six served families; the paper's parsed
//! expressions. One loop, [`check`], runs each case in both dtypes through
//! `eval` (the oracle), eager mode, both graph modes, `aware_eval`, and
//! `Plan` at both optimizer levels on every backend: solo, in batches, and
//! after a shared operand is re-bound. Bitwise, a batch is its members'
//! solo results, `deferred` is `engine`, both levels agree when extraction
//! returned its input, and a re-bound plan is a fresh one. On the engine, a
//! plan gives the values (`==`, NaN equal to NaN) of the Flow graph traced
//! from its level's form, at no more kernel calls or FLOPs. Extraction
//! keeps the shape, no family hits the saturation budget, and the vector
//! grammar stacks where its `xᵀx` variant does not. Every other path is
//! within the bound of the oracle.
//!
//! The bound is the γₖ forward-error model's (Higham, *Accuracy and
//! Stability of Numerical Algorithms*, §3.1 and §3.5). A path's *form* `f`
//! is the expression it ran: the input, or the extraction for an e-graph
//! plan. `K(f)` counts its rounding steps: a product its inner dimension
//! `k` plus two per `KC`-deep chunk (the chunk joining the output, and
//! `alpha`); an addition, subtraction or scaling one; one more for
//! evaluating `|f|` in `f64`, which is `f` over the operands' magnitudes
//! with every subtraction an addition and every factor its magnitude. With
//! `u = EPSILON / 2` and `γ_K = K·u / (1 − K·u)`,
//! `bound(f) = γ_K·|f| + K·MIN_POSITIVE` bounds `f`'s error at every
//! element in any summation order (the second term covers underflow); two
//! paths agree when they differ by at most `bound(f_a) + bound(f_b)`.

use laab::backend::{registry, BackendScalar, Dtype, Registration};
use laab::dense::gen::OperandGen;
use laab::dense::{Matrix, Scalar};
use laab::expr::eval::{eval, Env};
use laab::expr::{elem, identity, parse, scale, var, Context, Expr, Props};
use laab::framework::lower::eager_eval_expr;
use laab::framework::Framework;
use laab::kernels::counters::measure;
use laab::rewrite::{
    aware_eval, optimize_egraph, optimize_egraph_with_varying, CostModel, EgraphConfig,
};
use laab::serve::workload::{Family, Request};
use laab::serve::{OptLevel, Plan};
use proptest::prelude::*;

/// The GEMM's reduction chunk depth (`laab_kernels::gemm`'s `KC`).
const KC: usize = 1024;

/// One expression to evaluate every way, with what its requests share.
struct Case {
    label: String,
    expr: Expr,
    ctx: Context,
    /// The operands that differ request to request.
    varying: &'static [&'static str],
    /// A served family, at its size, draws its payloads from the served pool.
    family: Option<(Family, usize)>,
    /// Whether a passes-level plan must stack, where the case claims it.
    stacks: Option<bool>,
    batches: Vec<usize>,
    seed: u64,
}

/// The one case generator (xorshift, so every case is hermetic).
struct Gen(u64);

impl Gen {
    /// A draw from `0..bound`.
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }

    /// An `n×n` expression over `A, B, H, L, S`.
    fn square(&mut self, depth: usize, n: usize) -> Expr {
        if depth == 0 {
            return var(["A", "B", "H", "L", "S"][self.below(5)]);
        }
        match self.below(8) {
            0 => self.square(depth - 1, n).t(),
            1 => self.square(depth - 1, n) * self.square(depth - 1, n),
            2 => self.square(depth - 1, n) + self.square(depth - 1, n),
            3 => self.square(depth - 1, n) - self.square(depth - 1, n),
            4 => scale(self.below(5) as f64 - 2.0, self.square(depth - 1, n)),
            5 => identity(n) - self.square(depth - 1, n),
            6 => {
                let x = self.square(depth - 1, n);
                x.clone() * x.t()
            }
            _ => self.square(depth - 1, n),
        }
    }

    /// `ops` terms over `x, y` and earlier terms: `H·v`, `Hᵀ·v`, `v ± w`
    /// and `c·v`, all of which stack.
    fn vector(&mut self, ops: usize) -> Expr {
        let mut terms = vec![var("x"), var("y")];
        for _ in 0..ops {
            let v = terms[self.below(terms.len())].clone();
            let term = match self.below(5) {
                0 => v + terms[self.below(terms.len())].clone(),
                1 => v - terms[self.below(terms.len())].clone(),
                2 => scale(self.below(7) as f64 / 2.0 - 1.5, v),
                3 => var("H") * v,
                _ => var("H").t() * v,
            };
            terms.push(term);
        }
        terms.pop().expect("at least the two inputs")
    }
}

/// The operands of grammar (b) at size `n`.
fn vector_ctx(n: usize) -> Context {
    Context::new().with("H", n, n).with("x", n, 1).with("y", n, 1)
}

/// The operands of grammars (a) and (d) at size `n`.
fn grammar_ctx(n: usize) -> Context {
    let ctx = vector_ctx(n).with("A", n, n).with("B", n, n);
    ctx.with_props("L", n, n, Props::LOWER_TRIANGULAR).with_props("S", n, n, Props::SYMMETRIC)
}

impl Case {
    fn new(label: String, expr: Expr, ctx: Context, seed: u64) -> Case {
        let (varying, batches) = (&["x", "y"][..], vec![1, 4, 8]);
        Case { label, expr, ctx, varying, family: None, stacks: None, batches, seed }
    }

    /// Grammar (a): a square expression of the given depth, one applied to
    /// `x`, or one element of one.
    fn expression(seed: u64, depth: usize, n: usize) -> Case {
        let mut g = Gen(seed | 1);
        let expr = match g.below(4) {
            0 | 1 => g.square(depth, n),
            2 => g.square(depth, n) * var("x"),
            _ => elem(g.square(depth, n), g.below(n), g.below(n)),
        };
        Case::new(format!("`{expr}` (n={n})"), expr, grammar_ctx(n), seed)
    }

    /// Grammar (b): a vector expression of `ops` terms, or in one case in
    /// three the `xᵀx` variant, batched also at `q`.
    fn vector(seed: u64, ops: usize, n: usize, q: usize) -> Case {
        let mut g = Gen(seed | 1);
        let refused = g.below(3) == 0;
        let expr = match (refused, g.below(2)) {
            (false, _) => g.vector(ops),
            (true, 0) => scale(2.0, var("x").t() * var("x")),
            (true, _) => var("x").t() * var("x"),
        };
        let case = Case::new(format!("`{expr}` (n={n}, q={q})"), expr, vector_ctx(n), seed);
        Case { stacks: Some(!refused), batches: vec![1, 4, 8, q], ..case }
    }

    /// Grammar (c): a served family at size `n`.
    fn family(family: Family, n: usize, seed: u64) -> Case {
        let case = Case::new(format!("{family:?} (n={n})"), family.expr(n), family.ctx(n), seed);
        Case { varying: family.varying_operands(), family: Some((family, n)), ..case }
    }

    /// Grammar (d): a paper expression parsed from blackboard text.
    fn paper(src: &str) -> Case {
        let ctx = grammar_ctx(10);
        let expr = parse(src, &ctx).unwrap_or_else(|e| panic!("`{src}`: {e}"));
        Case::new(format!("`{src}`"), expr, ctx, 77)
    }
}

/// `env` with each of `names` bound to a fresh draw of the shape and
/// structure `ctx` declares: the one operand builder of every case.
fn draw<T: Scalar>(mut env: Env<T>, ctx: &Context, names: &[&str], seed: u64) -> Env<T> {
    let mut g = OperandGen::new(seed);
    for name in names {
        let info = ctx.expect(name);
        let value = if info.props.contains(Props::LOWER_TRIANGULAR) {
            g.lower_triangular(info.shape.rows)
        } else if info.props.contains(Props::SYMMETRIC) {
            g.symmetric(info.shape.rows)
        } else {
            g.matrix(info.shape.rows, info.shape.cols)
        };
        env.insert(name, value);
    }
    env
}

/// Request `i`'s bindings: the served pool's for a family, else `base`
/// with fresh varying operands.
fn payload<T: Scalar>(case: &Case, base: &Env<T>, i: usize) -> Env<T> {
    match case.family {
        Some((family, n)) => Request { family, n, dtype: Dtype::of::<T>(), payload: i as u64 }
            .env_from_pool(base, case.seed),
        None => draw(base.clone(), &case.ctx, case.varying, case.seed ^ !(i as u64)),
    }
}

/// `base` with one shared operand the expression reads re-bound to a fresh
/// draw, when it reads one.
fn rebind<T: Scalar>(case: &Case, base: &Env<T>) -> Option<Env<T>> {
    let shared: Vec<&str> = (case.ctx.names())
        .filter(|name| !case.varying.contains(name) && case.expr.uses_var(name))
        .collect();
    let name = *shared.get(case.seed as usize % shared.len().max(1))?;
    Some(draw(base.clone(), &case.ctx, &[name], case.seed.rotate_left(17)))
}

/// The rounding steps of `f`'s evaluation, over every node (module docs).
fn steps(f: &Expr, ctx: &Context) -> usize {
    let own = match f {
        Expr::Mul(a, _) => a.shape(ctx).cols + 2 * a.shape(ctx).cols.div_ceil(KC),
        Expr::Add(..) | Expr::Sub(..) | Expr::Scale(..) => 1,
        _ => 0,
    };
    own + f.children().into_iter().map(|c| steps(c, ctx)).sum::<usize>()
}

/// `f` with every subtraction an addition and every factor its magnitude:
/// evaluated over operand magnitudes, it is `|f|`.
fn magnitude(f: &Expr) -> Expr {
    match f {
        Expr::Sub(a, b) => magnitude(a) + magnitude(b),
        Expr::Scale(c, x) => scale(c.0.abs(), magnitude(x)),
        _ => f.with_children(f.children().into_iter().map(magnitude).collect()),
    }
}

/// `bound(f)` at every element, for an evaluation in `T` of operands whose
/// magnitudes `abs` binds.
fn bound<T: Scalar>(f: &Expr, ctx: &Context, abs: &Env<f64>) -> Matrix<f64> {
    let k = (steps(f, ctx) + 1) as f64;
    let u = T::EPSILON.to_f64() / 2.0;
    let gamma = k * u / (1.0 - k * u);
    let tiny =
        if Dtype::of::<T>() == Dtype::F32 { f32::MIN_POSITIVE.into() } else { f64::MIN_POSITIVE };
    eval(&magnitude(f), abs).map(|m| gamma * m + k * tiny)
}

/// Asserts `|got − want| ≤ slack` at every element.
fn assert_within<T: Scalar>(what: &str, got: &Matrix<T>, want: &Matrix<T>, slack: &Matrix<f64>) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let elems = got.as_slice().iter().zip(want.as_slice()).zip(slack.as_slice());
    for (i, ((a, b), s)) in elems.enumerate() {
        let d = (a.to_f64() - b.to_f64()).abs();
        assert!(d <= *s, "{what}: element {i} is {a}, the oracle's {b}; |a − b| = {d:e} > {s:e}");
    }
}

/// Equal bit for bit.
fn same_bits<T: Scalar>(a: &[Matrix<T>], b: &[Matrix<T>]) -> bool {
    let bits =
        |m: &Matrix<T>| m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.shape() == b.shape() && bits(a) == bits(b))
}

/// Equal under `==`, with NaN equal to NaN. Not bitwise: a `0·P` folded
/// into a GEMM's `alpha` gives `+0` where a separate scaling gives `−0`.
fn same_values<T: Scalar>(a: &[Matrix<T>], b: &[Matrix<T>]) -> bool {
    let eq = |a: &Matrix<T>, b: &Matrix<T>| {
        let mut pairs = a.as_slice().iter().zip(b.as_slice());
        a.shape() == b.shape()
            && pairs.all(|(x, y)| x == y || (x.to_f64().is_nan() && y.to_f64().is_nan()))
    };
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| eq(a, b))
}

/// Every backend a plan binds to, `engine` second and `deferred` third.
fn backends() -> [&'static Registration; 3] {
    let find = |name| registry::find(name).expect("a built-in backend");
    [find("reference"), find("engine"), laab::deferred::ensure_registered()]
}

/// Runs `case` in `T` through every path and checks every claim (module
/// docs).
fn check<T: BackendScalar>(case: &Case) {
    let Case { label, expr, ctx, varying, .. } = case;
    let at = format!("{label} in {}", Dtype::of::<T>());
    let fw = Framework::flow();
    let base: Env<T> = draw(Env::new(), ctx, &ctx.names().collect::<Vec<_>>(), case.seed);
    let abs = (ctx.names())
        .fold(Env::new(), |env, name| env.with(name, base.expect(name).to_f64().map(f64::abs)));
    let oracle = eval(expr, &base);
    assert!(oracle.all_finite(), "{at}: the oracle overflowed");
    let input = bound::<T>(expr, ctx, &abs);
    let both = |b: &Matrix<f64>| input.add(b);

    let graph_mode = |fw: Framework| fw.function_from_expr(expr, ctx).call(&base).remove(0);
    for (path, got) in [
        ("eager", eager_eval_expr(expr, &base)),
        ("Flow graph mode", graph_mode(Framework::flow())),
        ("Torch graph mode", graph_mode(Framework::torch())),
        ("aware", aware_eval(expr, &base, ctx)),
    ] {
        assert_within(&format!("{at}: {path}"), &got, &oracle, &both(&input));
    }

    let most = case.batches.iter().copied().max().unwrap_or(1);
    let payloads: Vec<Env<T>> = (0..most).map(|i| payload(case, &base, i)).collect();
    let rebound = rebind(case, &base);
    let extraction = optimize_egraph_with_varying(expr, ctx, &EgraphConfig::default(), varying);
    let budget_hit = case.family.is_some() && extraction.stats.budget_hit;
    assert!(!budget_hit, "{at}: a served family hit the budget");
    // Per level, per backend: every output of every result the plans returned.
    let mut results: Vec<Vec<Vec<Matrix<T>>>> = Vec::new();
    for opt in OptLevel::ALL {
        let form = match opt {
            OptLevel::Passes => expr.clone(),
            OptLevel::Egraph => extraction.best.clone(),
        };
        let at = format!("{at} at {opt} as `{form}`");
        assert_eq!(form.try_shape(ctx).ok(), expr.try_shape(ctx).ok(), "{at}: extraction shape");
        let slack = both(&bound::<T>(&form, ctx, &abs));
        let traced = fw.function_from_expr(&form, ctx);
        let (want, traced_work) = measure(|| traced.call(&base));

        let mut per_backend = Vec::new();
        for reg in backends() {
            let at = format!("{at} on {}", reg.name());
            let plan = Plan::compile_opt(&fw, expr, ctx, reg, varying, opt);
            if let (OptLevel::Passes, Some(stacks)) = (opt, case.stacks) {
                assert_eq!(plan.stackable(), stacks, "{at}: stackable");
            }
            let (solo, work) = measure(|| plan.execute(&base));
            assert_within(&at, solo.last().expect("an output"), &oracle, &slack);
            if reg.name() == "engine" {
                assert!(same_values(&solo, &want), "{at}: differs from its traced graph");
                assert!(work.total_calls() <= traced_work.total_calls(), "{at}: calls");
                assert!(work.total_flops() <= traced_work.total_flops(), "{at}: FLOPs");
            }

            let singles: Vec<_> = payloads.iter().map(|env| plan.execute(env)).collect();
            let mut outs = solo;
            for &q in &case.batches {
                let refs: Vec<&Env<T>> = payloads[..q].iter().collect();
                let batched = plan.execute_batched(&refs);
                assert_eq!(batched.len(), q, "{at}: one result per request");
                for (i, (b, s)) in batched.iter().zip(&singles).enumerate() {
                    assert!(same_bits(b, s), "{at}: member {i} of {q} is not its solo result");
                }
                outs.extend(batched.into_iter().flatten());
            }
            if let Some(env) = &rebound {
                let again = plan.execute(env);
                let fresh = Plan::compile_opt(&fw, expr, ctx, reg, varying, opt).execute(env);
                assert!(same_bits(&again, &fresh), "{at}: a re-bound operand was not recomputed");
                outs.extend(again);
            }
            per_backend.push(outs);
        }
        assert!(same_bits(&per_backend[1], &per_backend[2]), "{at}: deferred is not the engine");
        results.push(per_backend);
    }
    if !extraction.changed {
        for (reg, (p, e)) in backends().iter().zip(results[0].iter().zip(&results[1])) {
            assert!(
                same_bits(p, e),
                "{at} on {}: the levels differ, extraction unchanged",
                reg.name()
            );
        }
    }
}

/// Runs `case` in both dtypes.
fn check_both(case: &Case) {
    check::<f32>(case);
    check::<f64>(case);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_expressions_agree(seed in any::<u64>(), depth in 1usize..4, n in 4usize..32) {
        let case = Case::expression(seed, depth, n);
        prop_assume!(case.expr.try_shape(&case.ctx).is_ok());
        check_both(&case);
    }

    #[test]
    fn vector_plans_agree_and_batch_bitwise(
        seed in any::<u64>(),
        ops in 1usize..6,
        n in 3usize..12,
        q in 1usize..=32,
    ) {
        check_both(&Case::vector(seed, ops, n, q));
    }

    /// Past L1 (`H` over 32 KB: n ≥ 66 in f64, n ≥ 91 in f32), where the
    /// engine's batched GEMV reads `H` once per group of eight.
    #[test]
    fn vector_plans_agree_past_l1(
        seed in any::<u64>(),
        ops in 1usize..4,
        n64 in 66usize..96,
        n32 in 91usize..112,
        q in 1usize..=32,
    ) {
        check::<f64>(&Case::vector(seed, ops, n64, q));
        check::<f32>(&Case::vector(seed, ops, n32, q));
    }

    #[test]
    fn served_families_agree(seed in any::<u64>(), n in 4usize..32) {
        for family in Family::ALL {
            check_both(&Case::family(family, n, seed));
        }
    }

    #[test]
    fn optimizer_never_increases_cost(seed in any::<u64>(), depth in 1usize..3) {
        let case = Case::expression(seed, depth, 16);
        let (expr, ctx) = (&case.expr, &case.ctx);
        prop_assume!(expr.try_shape(ctx).is_ok());
        let r = optimize_egraph(expr, ctx, &EgraphConfig::default());
        prop_assert!(r.best_cost <= r.original_cost);
        // And the reported best is really priced at best_cost.
        prop_assert_eq!(CostModel::default().expr_cost(&r.best, ctx), r.best_cost);
    }
}

/// Both sides of the chain family's extraction crossover (n = 20), so
/// every family runs changed and unchanged whatever the property draws.
#[test]
fn served_families_agree_at_the_crossover_sizes() {
    for n in [12, 24] {
        for family in Family::ALL {
            check_both(&Case::family(family, n, 42));
        }
    }
}

#[test]
fn paper_expressions_agree() {
    let sources = "H' y + (I - H' H) x; H' y + x - H'(H x); H'(y - H x) + x; A^T B; \
                   A^T B + A^T B; (A^T B)^T (A^T B); (A^T B)^T A^T B; H' H x; H'(H x); \
                   y' H' H; H' y x' H; (H' y)(x' H); A B + A B; (A B)[2,2]; A[2,:] B[:,2]";
    for src in sources.split("; ") {
        check_both(&Case::paper(src));
    }
}
