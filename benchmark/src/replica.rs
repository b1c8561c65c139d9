//! The traced replica run: the request path rebuilt in this process from
//! the layers' public functions, one span per stage.
//!
//! The program itself is not instrumented (that is a later change, which
//! this benchmark will judge), so per-layer times come from replaying a
//! workload's first requests through
//!
//! ```text
//! encode_frame → decode_frame → AdmissionQueue::submit / next_batch
//!   → Request::env_from_pool → Request::signature
//!   → PlanCache::get_or_compile (→ Plan::compile_with_varying on a miss)
//!   → Plan::execute → result_checksum → encode_frame → decode_frame
//! ```
//!
//! (the order the server runs them in) on one thread, never while a
//! socket run is in progress. Stages that do
//! not sit on the per-request path (the parts of a compile, the e-graph
//! optimizer, batched execution, operand-pool generation, raw kernels)
//! are timed per signature next to it.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use laab_dense::Matrix;
use laab_expr::eval::Env;
use laab_framework::Framework;
use laab_graph::{BatchAnalysis, Schedule};
use laab_kernels::{counters, gemm, gemv, matmul_multi_rhs, Trans};
use laab_rewrite::{optimize_egraph, EgraphConfig};
use laab_serve::proto::{
    decode_frame, encode_frame, result_checksum, Message, Outcome, RequestMsg, ResponseMsg,
};
use laab_serve::workload::{Family, Request};
use laab_serve::{AdmissionQueue, Dtype, FlushKind, Lookup, OptLevel, Plan, PlanCache};

use crate::host::gflops;
use crate::oracle::{compile, engine, Pooled, Pools};
use crate::trace::{self_times_ns, SpanId, StageSamples, Tracer};
use crate::workloads::{Shape, Workload};

/// Requests of each workload the full replica replays.
pub const REQUESTS: usize = 2000;

/// Stage timings of one replica run, in nanoseconds unless the name says
/// otherwise, plus the counts taken at the same boundaries.
pub struct Replica {
    /// Per-stage samples grouped by plan signature.
    pub stages: StageSamples,
    /// Replica cache lookups that compiled.
    pub misses: usize,
    /// Share of replica cache lookups served from the cache.
    pub hit_rate: f64,
    /// Raw kernel rates, GFLOP/s on one thread: `gemm_f64`, `gemm_f32`
    /// (256³), `multi_rhs_f64` (192×192 · 8 RHS), `gemv_f64` (192).
    pub kernel_gflops: [f64; 4],
}

struct Ctx<'a> {
    tracer: &'a mut Tracer,
    fw: &'a Framework,
    cache: &'a PlanCache,
    seed: u64,
}

/// The typed middle of the request path: env bind → lookup (→ compile)
/// → execute → checksum. Returns the checksum and whether the lookup hit.
fn serve<T: Pooled>(
    p: &mut Ctx<'_>,
    root: SpanId,
    rid: u64,
    req: &Request,
    pools: &Pools,
) -> (u64, bool) {
    let pool = T::pool(pools);
    let bound: Option<Env<T>> = if req.family.payload_operands().is_empty() {
        None
    } else {
        Some(
            p.tracer.leaf("workload.env_bind", Some(root), rid, || req.env_from_pool(pool, p.seed)),
        )
    };
    let env = bound.as_ref().unwrap_or(pool);
    let sig = p.tracer.leaf("signature.build", Some(root), rid, || req.signature(engine().id()));
    let lookup = p.tracer.open("cache.lookup", Some(root), rid);
    let (fw, tracer) = (p.fw, &mut *p.tracer);
    let (plan, how) = p.cache.get_or_compile(sig, || {
        let span = tracer.open("plan.compile", Some(lookup), rid);
        let plan = compile(fw, (req.family, req.n, req.dtype), engine());
        tracer.close(span);
        plan
    });
    p.tracer.close(lookup);
    let results = p.tracer.leaf("plan.execute_solo", Some(root), rid, || plan.execute::<T>(env));
    let sum = p.tracer.leaf("proto.checksum", Some(root), rid, || result_checksum(&results));
    (sum, how == Lookup::Hit)
}

/// The parts `Plan::compile_with_varying` is made of, timed one by one
/// under a root of their own (the real compile is one opaque call).
fn compile_parts(tracer: &mut Tracer, fw: &Framework, rid: u64, (family, n, _): Shape) {
    let root = tracer.open("plan.compile_parts", None, rid);
    let (expr, ctx) = (family.expr(n), family.ctx(n));
    let (graph, _, _) = tracer.leaf("framework.trace_optimize", Some(root), rid, || {
        fw.function_from_expr(&expr, &ctx).into_plan_parts()
    });
    let schedule = tracer.leaf("graph.schedule", Some(root), rid, || Schedule::new(&graph));
    let varying = family.varying_operands();
    let batch = tracer.leaf("graph.batch_analysis", Some(root), rid, || {
        BatchAnalysis::analyze(&graph, |name| varying.contains(&name))
    });
    std::hint::black_box((schedule, batch));
    tracer.close(root);
}

/// Off-path stages of one signature: operand-pool generation, the
/// e-graph level, batched execution, kernel counters.
fn per_shape<T: Pooled>(
    stages: &mut StageSamples,
    key: u64,
    fw: &Framework,
    shape: Shape,
    pools: &Pools,
    seed: u64,
) {
    let (family, n, dtype) = shape;
    let mut timed = |stage: &'static str, per: f64, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        stages.push(stage, key, t.elapsed().as_nanos() as f64 / per);
    };
    let (expr, ctx) = (family.expr(n), family.ctx(n));
    for _ in 0..3 {
        timed("plan.compile_egraph", 1.0, &mut || {
            let varying = family.varying_operands();
            std::hint::black_box(Plan::compile_opt(
                fw,
                &expr,
                &ctx,
                engine(),
                varying,
                OptLevel::Egraph,
            ));
        });
        timed("rewrite.egraph_optimize", 1.0, &mut || {
            std::hint::black_box(optimize_egraph(&expr, &ctx, &EgraphConfig::default()));
        });
    }
    let plan = compile(fw, shape, engine());
    let envs: Vec<Env<T>> = (0..8)
        .map(|payload| Request { family, n, dtype, payload }.env_from_pool(T::pool(pools), seed))
        .collect();
    for occupancy in [4usize, 8] {
        let refs: Vec<&Env<T>> = envs[..occupancy].iter().collect();
        let stage = if occupancy == 4 { "plan.execute_batched4" } else { "plan.execute_batched8" };
        for _ in 0..3 {
            timed(stage, occupancy as f64, &mut || {
                std::hint::black_box(plan.execute_batched::<T>(&refs));
            });
        }
    }
    for _ in 0..3 {
        timed("plan.execute_solo_ref", 1.0, &mut || {
            std::hint::black_box(plan.execute::<T>(&envs[0]));
        });
    }
    let (_, work) = counters::measure(|| plan.execute::<T>(&envs[0]));
    stages.push("kernels.flops", key, work.total_flops() as f64);
    stages.push("kernels.calls", key, work.total_calls() as f64);
    stages.push("graph.nodes", key, plan.graph().len() as f64);
}

fn kernel_rates() -> [f64; 4] {
    fn square<T: laab_dense::Scalar>(n: usize) -> f64 {
        let a = Matrix::<T>::from_fn(n, n, |i, j| T::from_f64(((i + 2 * j) % 9) as f64 - 4.0));
        let b = Matrix::<T>::from_fn(n, n, |i, j| T::from_f64(((3 * i + j) % 7) as f64 - 3.0));
        let mut c = Matrix::<T>::zeros(n, n);
        gflops(2.0 * (n * n * n) as f64, 15, || {
            gemm(T::ONE, &a, Trans::No, &b, Trans::No, T::ZERO, &mut c);
            std::hint::black_box(&c);
        })
    }
    let n = 192;
    let a = Matrix::<f64>::from_fn(n, n, |i, j| ((i + 2 * j) % 9) as f64 - 4.0);
    let xs: Vec<Matrix<f64>> =
        (0..8).map(|q| Matrix::from_fn(n, 1, |i, _| ((i + q) % 5) as f64 - 2.0)).collect();
    let refs: Vec<&Matrix<f64>> = xs.iter().collect();
    let mut y = Matrix::<f64>::zeros(n, 1);
    [
        square::<f64>(256),
        square::<f32>(256),
        gflops(2.0 * (n * n * 8) as f64, 200, || {
            std::hint::black_box(matmul_multi_rhs(1.0, &a, Trans::No, &refs));
        }),
        gflops(2.0 * (n * n) as f64, 200, || {
            gemv(1.0, &a, Trans::No, &xs[0], 0.0, &mut y);
            std::hint::black_box(&y);
        }),
    ]
}

/// Replay the first `requests` requests of `workload` and write the spans
/// to `trace_path`.
pub fn run(
    workload: Workload,
    seed: u64,
    requests: usize,
    trace_path: &Path,
) -> io::Result<Replica> {
    let fw = Framework::flow();
    // The served cache at its defaults: capacity 64 × one backend, 8 shards.
    let cache = PlanCache::with_shards(64, 8);
    // Window 0: every submit is its own batch, so the span is the
    // uncontended cost of the queue, not a wait.
    let queue: AdmissionQueue<Shape, Request> = AdmissionQueue::new(0, None);
    let shapes = workload.shapes(seed);
    let keys: HashMap<Shape, u64> =
        shapes.iter().enumerate().map(|(i, &s)| (s, i as u64)).collect();
    let mut stages = StageSamples::default();
    let mut pools: HashMap<(Family, usize), Pools> = HashMap::new();
    for &(family, n, dtype) in &shapes {
        pools.entry((family, n)).or_insert_with(|| {
            let t = Instant::now();
            let built = Pools::build(family, n, seed);
            stages.push(
                "dense.pool_build",
                keys[&(family, n, dtype)],
                t.elapsed().as_nanos() as f64,
            );
            built
        });
    }

    let mut tracer = Tracer::with_capacity(requests * 16);
    let mut request_key = Vec::with_capacity(requests);
    let mut hit = Vec::with_capacity(requests);
    for (rid, req) in workload.stream(seed).take(requests).enumerate() {
        let rid = rid as u64;
        let shape = (req.family, req.n, req.dtype);
        request_key.push(keys[&shape]);
        let wire = Message::Request(RequestMsg {
            id: rid,
            family: req.family.id().to_string(),
            n: req.n as u64,
            dtype: req.dtype,
            backend: "engine".to_string(),
            payload: req.payload,
            deadline_us: 0,
        });
        let root = tracer.open("request", None, rid);
        let frame = tracer.leaf("proto.encode_request", Some(root), rid, || encode_frame(&wire));
        let decoded = tracer.leaf("proto.decode_request", Some(root), rid, || decode_frame(&frame));
        std::hint::black_box(decoded.is_ok());
        let batch = tracer.leaf("admission.submit_next", Some(root), rid, || {
            queue.submit(shape, req);
            queue.next_batch()
        });
        let occupancy = batch.map_or(0, |b| b.items.len() as u32);
        let mut path = Ctx { tracer: &mut tracer, fw: &fw, cache: &cache, seed };
        let pair = &pools[&(req.family, req.n)];
        let (checksum, was_hit) = match req.dtype {
            Dtype::F64 => serve::<f64>(&mut path, root, rid, &req, pair),
            Dtype::F32 => serve::<f32>(&mut path, root, rid, &req, pair),
        };
        let answer = Message::Response(ResponseMsg {
            id: rid,
            outcome: Outcome::Ok {
                queue_ns: 0,
                exec_ns: 0,
                occupancy,
                flush: FlushKind::Occupancy,
                checksum,
            },
        });
        let frame = tracer.leaf("proto.encode_response", Some(root), rid, || encode_frame(&answer));
        let decoded =
            tracer.leaf("proto.decode_response", Some(root), rid, || decode_frame(&frame));
        std::hint::black_box(decoded.is_ok());
        tracer.close(root);
        hit.push(was_hit);
        if !was_hit {
            compile_parts(&mut tracer, &fw, rid, shape);
        }
    }

    let own = self_times_ns(tracer.spans());
    for (span, own_ns) in tracer.spans().iter().zip(own) {
        let rid = span.request_id as usize;
        let (stage, ns) = match span.name {
            // The whole request, children included: the replica's total.
            "request" => ("request", span.duration_ns()),
            "cache.lookup" if hit[rid] => ("cache.hit", own_ns),
            "cache.lookup" => ("cache.miss", span.duration_ns()),
            name => (name, own_ns),
        };
        stages.push(stage, request_key[rid], ns as f64);
    }
    tracer.write_json(trace_path)?;

    for &shape in &shapes {
        let pair = &pools[&(shape.0, shape.1)];
        match shape.2 {
            Dtype::F64 => per_shape::<f64>(&mut stages, keys[&shape], &fw, shape, pair, seed),
            Dtype::F32 => per_shape::<f32>(&mut stages, keys[&shape], &fw, shape, pair, seed),
        }
    }
    let misses = hit.iter().filter(|&&h| !h).count();
    Ok(Replica {
        stages,
        misses,
        hit_rate: 1.0 - misses as f64 / hit.len().max(1) as f64,
        kernel_gflops: kernel_rates(),
    })
}
