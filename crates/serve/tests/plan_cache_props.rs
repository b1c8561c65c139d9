//! Property suite for the plan cache: a cache-hit execution must be
//! **bitwise-identical** to a cold trace, for random Experiment-1-style
//! expressions (products, sums, transposes, scalings over square
//! operands, optionally applied to a vector), at both precisions.

use laab_backend::registry;
use laab_dense::gen::OperandGen;
use laab_expr::eval::Env;
use laab_expr::{scale, var, Context, Expr};
use laab_framework::Framework;
use laab_serve::{BackendId, Dtype, Plan, PlanCache, Signature};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random shape-valid expression over square operands `A`, `B`, `H`
/// (all `n×n`), built by structural recursion so every draw type-checks.
/// This is the E1 grammar: the paper's Table I/II expressions are exactly
/// such combinations (`AᵀB`, `(AᵀB)ᵀ(AᵀB)`, sums and scalings thereof).
fn random_square_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 {
        return var(["A", "B", "H"][rng.gen_range(0..3)]);
    }
    match rng.gen_range(0..6) {
        0 => random_square_expr(rng, depth - 1) * random_square_expr(rng, depth - 1),
        1 => random_square_expr(rng, depth - 1) + random_square_expr(rng, depth - 1),
        2 => random_square_expr(rng, depth - 1) - random_square_expr(rng, depth - 1),
        3 => random_square_expr(rng, depth - 1).t(),
        4 => scale(0.5 + rng.gen::<f64>(), random_square_expr(rng, depth - 1)),
        _ => var(["A", "B", "H"][rng.gen_range(0..3)]),
    }
}

fn random_request(seed: u64, depth: usize, n: usize) -> (Expr, Context) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expr = random_square_expr(&mut rng, depth);
    let mut ctx = Context::new().with("A", n, n).with("B", n, n).with("H", n, n);
    // Half the draws end E1-style: the square combination applied to a
    // vector (the paper's `...· x` expressions).
    if rng.gen::<bool>() {
        expr = expr * var("x");
        ctx = ctx.with("x", n, 1);
    }
    (expr, ctx)
}

fn envs(n: usize, seed: u64) -> (Env<f64>, Env<f32>) {
    let mut g64 = OperandGen::new(seed);
    let mut g32 = OperandGen::new(seed);
    let mut e64 = Env::new();
    let mut e32 = Env::new();
    for name in ["A", "B", "H"] {
        e64.insert(name, g64.matrix(n, n));
        e32.insert(name, g32.matrix(n, n));
    }
    e64.insert("x", g64.matrix(n, 1));
    e32.insert("x", g32.matrix(n, 1));
    (e64, e32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property: for a random expression, execute a cold
    /// trace (fresh `Function::call`), then the same signature through
    /// the cache twice (compile, then hit). All three must agree **bit
    /// for bit** — a serving layer must never change results when it
    /// starts amortizing.
    #[test]
    fn cache_hit_is_bitwise_identical_to_cold_trace(
        seed in any::<u64>(),
        depth in 1usize..4,
        n in 3usize..12,
    ) {
        let (expr, ctx) = random_request(seed, depth, n);
        let (e64, e32) = envs(n, seed ^ 0xD1CE);
        let fw = Framework::flow();
        let cache = PlanCache::new(16);

        let cold64 = fw.function_from_expr(&expr, &ctx).call(&e64);
        let cold32 = fw.function_from_expr(&expr, &ctx).call(&e32);

        let sig64 = Signature::new("prop", &expr, &ctx, Dtype::F64, BackendId::ENGINE);
        let (plan, _) = cache.get_or_compile(&sig64, || Plan::compile(&fw, &expr, &ctx, registry::default_backend()));
        prop_assert_eq!(&plan.execute::<f64>(&e64), &cold64, "compiled plan vs cold trace");

        // Second lookup must hit and stay bitwise identical.
        let (plan, lookup) =
            cache.get_or_compile(sig64, || panic!("second lookup must not recompile"));
        prop_assert_eq!(lookup, laab_serve::Lookup::Hit);
        prop_assert_eq!(&plan.execute::<f64>(&e64), &cold64, "cache hit vs cold trace");

        // The f32 path is a *different* signature (dtype retrace) with
        // the same guarantee.
        let sig32 = Signature::new("prop", &expr, &ctx, Dtype::F32, BackendId::ENGINE);
        let (plan32, lookup32) =
            cache.get_or_compile(sig32, || Plan::compile(&fw, &expr, &ctx, registry::default_backend()));
        prop_assert_eq!(lookup32, laab_serve::Lookup::Compiled { retrace: true });
        prop_assert_eq!(&plan32.execute::<f32>(&e32), &cold32);
    }

    /// Signatures are injective on the workload dimensions the cache must
    /// distinguish: size and dtype (for one random structure).
    #[test]
    fn signature_separates_size_and_dtype(
        seed in any::<u64>(),
        n in 3usize..10,
    ) {
        let (expr, _) = random_request(seed, 2, n);
        let ctx_n = Context::new().with("A", n, n).with("B", n, n).with("H", n, n).with("x", n, 1);
        let ctx_m =
            Context::new().with("A", n + 1, n + 1).with("B", n + 1, n + 1).with("H", n + 1, n + 1).with("x", n + 1, 1);
        let s1 = Signature::new("f", &expr, &ctx_n, Dtype::F64, BackendId::ENGINE);
        let s2 = Signature::new("f", &expr, &ctx_m, Dtype::F64, BackendId::ENGINE);
        let s3 = Signature::new("f", &expr, &ctx_n, Dtype::F32, BackendId::ENGINE);
        prop_assert_ne!(s1.hash(), s2.hash());
        prop_assert_ne!(s1.hash(), s3.hash());
    }
}
