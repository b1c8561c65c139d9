//! The exact work every benchmark workload's plans do, pinned to the digit.
//!
//! Each signature a workload sends is compiled as the server compiles it
//! (`Request::signature`, then `Plan::compile_opt` at the signature's
//! level) and executed warm under `counters::measure`: the FLOPs and
//! kernel calls of one request, and the plan's node count. These are the
//! numbers `benchmark/`'s replica averages into `kernels.flops_per_req`,
//! `kernels.calls_per_req` and `graph.nodes_per_plan`, so a change that
//! alters any served plan (an extra product, a lost rewrite, a node the
//! lowering no longer shares) fails here without timing anything.
//!
//! The workloads' signatures: the four matrix families at n = 256, the
//! two vector families at n = 192, all six at n = 16, and all six at
//! every n in 8..48 (`churn_cold`), each in both dtypes. The counts do
//! not depend on the dtype; the test checks that too.

use laab_backend::{registry, BackendScalar};
use laab_framework::Framework;
use laab_kernels::counters::measure;
use laab_serve::workload::{Family, Request};
use laab_serve::{Dtype, Plan};

/// FLOPs, kernel calls and graph nodes of one warm request.
type Counts = (u64, u64, usize);

fn counts_in<T: BackendScalar>(family: Family, n: usize) -> Counts {
    let req = Request { family, n, dtype: Dtype::of::<T>(), payload: 7 };
    let reg = registry::default_backend();
    let sig = req.signature(reg.id());
    let (expr, ctx) = (family.expr(n), family.ctx(n));
    let varying = family.varying_operands();
    let plan = Plan::compile_opt(&Framework::flow(), &expr, &ctx, reg, varying, sig.opt());
    let env = req.env_from_pool(&family.env::<T>(n, 11), 11);
    // The first execution computes what the plan hoists; the benchmark
    // counts warm requests.
    plan.execute(&env);
    let (_, work) = measure(|| plan.execute(&env));
    (work.total_flops(), work.total_calls(), plan.graph().len())
}

/// The counts of `family` at `n`, the same in both dtypes.
fn counts(family: Family, n: usize) -> Counts {
    let wide = counts_in::<f64>(family, n);
    assert_eq!(counts_in::<f32>(family, n), wide, "{} n={n}: f32 differs from f64", family.id());
    wide
}

/// Check a workload's per-family counts and return its unweighted mean
/// FLOPs, calls and nodes over its signatures, as the replica averages
/// them (each family counts once per dtype, so the dtypes cancel).
fn check(workload: &str, n: usize, want: &[(Family, Counts)]) -> (f64, f64, f64) {
    let mut sums = (0, 0, 0);
    for &(family, pinned) in want {
        assert_eq!(counts(family, n), pinned, "{workload}: {} at n={n}", family.id());
        sums = (sums.0 + pinned.0, sums.1 + pinned.1, sums.2 + pinned.2);
    }
    let k = want.len() as f64;
    (sums.0 as f64 / k, sums.1 as f64 / k, sums.2 as f64 / k)
}

fn two_decimals((flops, calls, nodes): (f64, f64, f64)) -> [String; 3] {
    [flops, calls, nodes].map(|v| format!("{v:.2}"))
}

#[test]
fn matrix_closed_counts() {
    // At n = 256 every matrix family compiles at the e-graph level:
    // `(AᵀB)ᵀ(AᵀB)` as a GEMM and a SYRK, `QᵀQ` as a SYRK, `(AB)[0,0]` as
    // a dot product of a row and a column, `AB + AC` as `A(B + C)`.
    let want = [
        (Family::CseGram, (50_331_648, 2, 4)),
        (Family::Gram, (16_777_216, 1, 2)),
        (Family::Slice, (512, 3, 5)),
        (Family::Distributive, (33_619_968, 2, 5)),
    ];
    let mean = check("matrix_closed", 256, &want);
    assert_eq!(two_decimals(mean), ["25182336.00", "2.00", "4.00"]);
}

#[test]
fn vector_pipelined_counts() {
    // `(HᵀH)x` with `HᵀH` hoisted: one GEMV per request. `Hᵀ(y − Hx)`:
    // two GEMVs and the subtraction.
    let want = [(Family::Chain, (73_728, 1, 4)), (Family::SolveResidual, (147_648, 3, 6))];
    let mean = check("vector_pipelined", 192, &want);
    assert_eq!(two_decimals(mean), ["110688.00", "2.00", "5.00"]);
}

#[test]
fn tiny_closed_counts() {
    // Under `EGRAPH_MIN_COST`: every family as written, with the graph
    // passes' transpose folding, CSE and scale fusion.
    let want = [
        (Family::CseGram, (16_384, 2, 4)),
        (Family::Chain, (512, 1, 4)),
        (Family::Gram, (8_192, 1, 2)),
        (Family::Slice, (8_192, 2, 4)),
        (Family::Distributive, (16_640, 3, 6)),
        (Family::SolveResidual, (1_040, 3, 6)),
    ];
    let mean = check("tiny_closed", 16, &want);
    assert_eq!(two_decimals(mean), ["8493.33", "2.00", "4.33"]);
}

#[test]
fn churn_cold_counts() {
    // Every size in 8..48 compiles at the passes level, so each family's
    // counts are one formula in n: GEMMs of 2n³, GEMVs of 2n², an
    // elementwise n² or n, and a slice of one element (no FLOPs).
    let at = |n: u64| {
        let (n2, n3) = (n * n, n * n * n);
        [
            (Family::CseGram, (4 * n3, 2, 4)),
            (Family::Chain, (2 * n2, 1, 4)),
            (Family::Gram, (2 * n3, 1, 2)),
            (Family::Slice, (2 * n3, 2, 4)),
            (Family::Distributive, (4 * n3 + n2, 3, 6)),
            (Family::SolveResidual, (4 * n2 + n, 3, 6)),
        ]
    };
    let (mut sums, mut k) = ((0.0, 0.0, 0.0), 0.0);
    for n in 8..48 {
        let mean = check("churn_cold", n, &at(n as u64));
        sums = (sums.0 + mean.0, sums.1 + mean.1, sums.2 + mean.2);
        k += 1.0;
    }
    let mean = (sums.0 / k, sums.1 / k, sums.2 / k);
    assert_eq!(two_decimals(mean), ["64622.33", "2.00", "4.33"]);
}
