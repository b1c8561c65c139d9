//! The sharded, LRU-bounded concurrent plan cache.
//!
//! Mirrors `tf.function`'s concrete-function cache: keyed on the full
//! [`Signature`], bounded in size, counting hits, misses, retraces (a
//! miss for a callsite the cache has already compiled under a different
//! signature — the event `tf.function` warns about), and evictions.
//!
//! Concurrency model: the signature hash selects one of N shards; each
//! shard is an independent mutex over its entries, so clients serving
//! different signatures rarely contend. Compilation runs **while holding
//! the shard lock** — single-flight semantics: when many clients miss on
//! the same new signature at once, exactly one compiles and the rest
//! block briefly and then hit. The counters are lock-free atomics.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use laab_backend::BackendId;

use crate::plan::Plan;
use crate::signature::{OptLevel, Signature};

/// How a [`PlanCache::get_or_compile`] call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The signature was cached; the compiled plan was reused.
    Hit,
    /// The signature was not cached; a plan was compiled on this call.
    Compiled {
        /// `true` when the callsite (`Signature::func`) had already been
        /// compiled under a *different* signature — the `tf.function`
        /// retrace event (shape/dtype/structure drift), as opposed to a
        /// first-ever trace.
        retrace: bool,
    },
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a plan (first traces + retraces).
    pub misses: u64,
    /// The subset of misses whose callsite was already known under a
    /// different signature.
    pub retraces: u64,
    /// Plans evicted by the LRU bound.
    pub evictions: u64,
    /// The subset of misses whose exact signature had been compiled
    /// before and was evicted by the LRU bound — pure capacity churn, as
    /// opposed to first-compile misses (cold signatures) and retraces
    /// (signature drift). A rising count under steady traffic means the
    /// capacity is too small for the working set: the `tf.function`
    /// retrace-storm pathology induced by the cache itself.
    pub evicted_recompiles: u64,
    /// Total nanoseconds spent re-compiling evicted signatures — the
    /// latency the LRU bound *cost*, not merely how often it bit.
    pub recompile_nanos: u64,
    /// Plans currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mean wall-clock milliseconds of one eviction-induced recompile
    /// (`0.0` before any — zero over zero is "no churn", not NaN).
    pub fn mean_recompile_ms(&self) -> f64 {
        if self.evicted_recompiles == 0 {
            0.0
        } else {
            self.recompile_nanos as f64 / 1e6 / self.evicted_recompiles as f64
        }
    }
}

struct Entry {
    sig: Signature,
    plan: Arc<Plan>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    /// Hash → entries (a bucket holds >1 entry only on a 64-bit hash
    /// collision between structurally different signatures).
    buckets: HashMap<u64, Vec<Entry>>,
    /// Monotonic recency clock; larger = more recently used.
    tick: u64,
    /// Resident entries across all buckets.
    len: usize,
}

impl Shard {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Remove the least-recently-used entry, returning its signature
    /// hash (the caller records it so a later miss on the same signature
    /// counts as an eviction-induced recompile). Caller guarantees
    /// non-empty.
    fn evict_lru(&mut self) -> u64 {
        let (&key, oldest) = self
            .buckets
            .iter()
            .filter_map(|(k, v)| v.iter().map(|e| e.last_used).min().map(|oldest| (k, oldest)))
            .min_by_key(|&(_, oldest)| oldest)
            .expect("evict_lru on an empty shard");
        let bucket = self.buckets.get_mut(&key).expect("bucket exists");
        let pos = bucket
            .iter()
            .position(|e| e.last_used == oldest)
            .expect("entry with the oldest tick exists");
        bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.len -= 1;
        key
    }
}

/// Sharded, LRU-bounded map from [`Signature`] to [`Plan`].
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    retraces: AtomicU64,
    evictions: AtomicU64,
    evicted_recompiles: AtomicU64,
    recompile_nanos: AtomicU64,
    /// Hashes of every signature the LRU bound has ever evicted, so a
    /// later miss on one of them is classified as capacity churn rather
    /// than a first compile. Hash membership, not full signatures: a
    /// 64-bit collision misclassifies one counter tick, nothing more.
    /// Bounded by the distinct signatures the process ever sees.
    evicted_sigs: Mutex<HashSet<u64>>,
    /// `(callsite, backend, opt level)` → hash of the most recently
    /// compiled signature, for the retrace distinction. The callsite is
    /// tracked *per backend and per optimizer level*: dispatching one
    /// callsite to a second backend — or compiling it at the other
    /// pinned optimizer level — is that key's first trace, not
    /// signature drift, and must not inflate the retrace counter. Never
    /// acquired while a shard lock is wanted by the same thread in the
    /// other order (shard → seen only).
    seen_funcs: Mutex<HashMap<(String, BackendId, OptLevel), u64>>,
}

impl PlanCache {
    /// Default shard count: enough that a handful of serving clients
    /// rarely collide.
    const DEFAULT_SHARDS: usize = 8;

    /// A cache bounded to roughly `capacity` plans, with the default
    /// shard count.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::DEFAULT_SHARDS)
    }

    /// A cache bounded to roughly `capacity` plans spread over `shards`
    /// shards (rounded up to a power of two; each shard holds up to
    /// `ceil(capacity / shards)` plans, so a skewed hash distribution can
    /// evict slightly below the nominal total).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retraces: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_recompiles: AtomicU64::new(0),
            recompile_nanos: AtomicU64::new(0),
            evicted_sigs: Mutex::new(HashSet::new()),
            seen_funcs: Mutex::new(HashMap::new()),
        }
    }

    fn shard_of(&self, hash: u64) -> &Mutex<Shard> {
        // Upper bits: the lower bits index HashMap buckets inside the
        // shard, so reusing them here would correlate the two levels.
        let idx = (hash >> 48) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Look up `sig`, compiling (and caching) a plan with `compile` on a
    /// miss. Returns the plan and how the call was served.
    ///
    /// Single-flight per shard: `compile` runs under the shard lock, so a
    /// signature is compiled at most once no matter how many clients race
    /// on it.
    pub fn get_or_compile(
        &self,
        sig: Signature,
        compile: impl FnOnce() -> Plan,
    ) -> (Arc<Plan>, Lookup) {
        let mut shard = self.shard_of(sig.hash()).lock().unwrap_or_else(|e| e.into_inner());
        let tick = shard.next_tick();
        if let Some(bucket) = shard.buckets.get_mut(&sig.hash()) {
            if let Some(entry) = bucket.iter_mut().find(|e| e.sig == sig) {
                entry.last_used = tick;
                let plan = Arc::clone(&entry.plan);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (plan, Lookup::Hit);
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let retrace = {
            let mut seen = self.seen_funcs.lock().unwrap_or_else(|e| e.into_inner());
            match seen.insert((sig.func().to_string(), sig.backend(), sig.opt()), sig.hash()) {
                Some(prev) => prev != sig.hash(),
                None => false,
            }
        };
        if retrace {
            self.retraces.fetch_add(1, Ordering::Relaxed);
        }
        let was_evicted = {
            let evicted = self.evicted_sigs.lock().unwrap_or_else(|e| e.into_inner());
            evicted.contains(&sig.hash())
        };

        let t0 = Instant::now();
        let plan = Arc::new(compile());
        if was_evicted {
            // An eviction-induced recompile: the capacity bound, not a
            // new signature, is what made this lookup pay the cold trace.
            self.evicted_recompiles.fetch_add(1, Ordering::Relaxed);
            self.recompile_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if shard.len >= self.per_shard_capacity {
            let evicted_hash = shard.evict_lru();
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_sigs.lock().unwrap_or_else(|e| e.into_inner()).insert(evicted_hash);
        }
        let hash = sig.hash();
        shard.buckets.entry(hash).or_default().push(Entry {
            sig,
            plan: Arc::clone(&plan),
            last_used: tick,
        });
        shard.len += 1;
        (plan, Lookup::Compiled { retrace })
    }

    /// `true` when `sig` is resident, without touching recency or
    /// counters (test/introspection hook).
    pub fn contains(&self, sig: &Signature) -> bool {
        let shard = self.shard_of(sig.hash()).lock().unwrap_or_else(|e| e.into_inner());
        shard.buckets.get(&sig.hash()).is_some_and(|bucket| bucket.iter().any(|e| e.sig == *sig))
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len).sum()
    }

    /// `true` when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            retraces: self.retraces.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_recompiles: self.evicted_recompiles.load(Ordering::Relaxed),
            recompile_nanos: self.recompile_nanos.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Dtype;
    use laab_backend::registry;
    use laab_expr::{var, Context};
    use laab_framework::Framework;

    fn sig_on(func: &str, n: usize, dtype: Dtype, backend: BackendId) -> Signature {
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        Signature::new(func, &expr, &ctx, dtype, backend)
    }

    fn sig(func: &str, n: usize, dtype: Dtype) -> Signature {
        sig_on(func, n, dtype, BackendId::ENGINE)
    }

    fn tiny_plan(n: usize) -> Plan {
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", n, n).with("B", n, n);
        Plan::compile(&Framework::flow(), &expr, &ctx, registry::default_backend())
    }

    #[test]
    fn hit_after_miss() {
        let cache = PlanCache::new(8);
        let s = sig("f", 4, Dtype::F64);
        let (_, l1) = cache.get_or_compile(s.clone(), || tiny_plan(4));
        assert_eq!(l1, Lookup::Compiled { retrace: false });
        let (_, l2) = cache.get_or_compile(s, || panic!("must not recompile"));
        assert_eq!(l2, Lookup::Hit);
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.retraces, st.entries), (1, 1, 0, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        // Single shard, capacity 2: recency decides who goes.
        let cache = PlanCache::with_shards(2, 1);
        let (a, b, c) = (sig("a", 4, Dtype::F64), sig("b", 4, Dtype::F64), sig("c", 4, Dtype::F64));
        cache.get_or_compile(a.clone(), || tiny_plan(4));
        cache.get_or_compile(b.clone(), || tiny_plan(4));
        // Touch `a` so `b` becomes least recently used.
        let (_, l) = cache.get_or_compile(a.clone(), || panic!("a is cached"));
        assert_eq!(l, Lookup::Hit);
        cache.get_or_compile(c.clone(), || tiny_plan(4));
        assert!(cache.contains(&a), "recently-touched entry survives");
        assert!(!cache.contains(&b), "LRU entry was evicted");
        assert!(cache.contains(&c));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);

        // Re-requesting the evicted signature recompiles — and that
        // recompile is classified as eviction-induced, with its latency
        // on the record (capacity churn, not a cold signature).
        assert_eq!(cache.stats().evicted_recompiles, 0);
        let (_, l) = cache.get_or_compile(b, || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        let st = cache.stats();
        assert_eq!(st.evicted_recompiles, 1);
        assert!(st.recompile_nanos > 0, "recompile latency is recorded");
        assert!(st.mean_recompile_ms() > 0.0);
    }

    #[test]
    fn first_compiles_are_not_evicted_recompiles() {
        let cache = PlanCache::new(8);
        for name in ["a", "b", "c"] {
            cache.get_or_compile(sig(name, 4, Dtype::F64), || tiny_plan(4));
        }
        let st = cache.stats();
        assert_eq!(st.misses, 3, "three first compiles");
        assert_eq!(st.evicted_recompiles, 0, "no eviction happened");
        assert_eq!(st.recompile_nanos, 0);
        assert_eq!(st.mean_recompile_ms(), 0.0, "zero over zero is no churn, not NaN");
    }

    #[test]
    fn eviction_churn_counts_every_round_trip() {
        // Capacity 1, two alternating signatures: after the first pair,
        // every miss is an eviction-induced recompile.
        let cache = PlanCache::with_shards(1, 1);
        let (a, b) = (sig("a", 4, Dtype::F64), sig("b", 4, Dtype::F64));
        for _ in 0..3 {
            cache.get_or_compile(a.clone(), || tiny_plan(4));
            cache.get_or_compile(b.clone(), || tiny_plan(4));
        }
        let st = cache.stats();
        assert_eq!(st.misses, 6);
        assert_eq!(st.evictions, 5, "every insert after the first evicts");
        assert_eq!(st.evicted_recompiles, 4, "all but the two first compiles are churn");
        assert!(st.mean_recompile_ms() > 0.0);
    }

    #[test]
    fn signature_mismatch_is_a_retrace() {
        let cache = PlanCache::new(8);
        // First trace of callsite `f`: not a retrace.
        let (_, l) = cache.get_or_compile(sig("f", 4, Dtype::F64), || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        // Same callsite, new shape: retrace (tf.function's warning case).
        let (_, l) = cache.get_or_compile(sig("f", 6, Dtype::F64), || tiny_plan(6));
        assert_eq!(l, Lookup::Compiled { retrace: true });
        // Same callsite, new dtype: retrace again.
        let (_, l) = cache.get_or_compile(sig("f", 6, Dtype::F32), || tiny_plan(6));
        assert_eq!(l, Lookup::Compiled { retrace: true });
        // A different callsite's first trace is not a retrace.
        let (_, l) = cache.get_or_compile(sig("g", 4, Dtype::F64), || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        assert_eq!(cache.stats().retraces, 2);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn backends_get_independent_entries_and_no_retrace_ping_pong() {
        // The A/B shape: one callsite, one signature body, two backends.
        // One shard, so both entries fit wherever the two hashes land.
        let cache = PlanCache::with_shards(8, 1);
        let e = sig_on("f", 4, Dtype::F64, BackendId::ENGINE);
        let r = sig_on("f", 4, Dtype::F64, BackendId::REFERENCE);
        // Each backend's first compile is a first trace, not a retrace —
        // the callsite is tracked per backend.
        let (_, l) = cache.get_or_compile(e.clone(), || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        let (_, l) = cache.get_or_compile(r.clone(), || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        // No cross-backend hits: both entries are independently resident
        // and each backend hits only its own plan.
        assert!(cache.contains(&e) && cache.contains(&r));
        assert_eq!(cache.len(), 2);
        let (_, l) = cache.get_or_compile(e, || panic!("engine plan is cached"));
        assert_eq!(l, Lookup::Hit);
        let (_, l) = cache.get_or_compile(r, || panic!("reference plan is cached"));
        assert_eq!(l, Lookup::Hit);
        assert_eq!(cache.stats().retraces, 0);
    }

    #[test]
    fn opt_levels_get_independent_entries_and_no_retrace_ping_pong() {
        // A pinned-level comparison: one callsite, one backend, both
        // optimizer levels interleaved. The retrace key includes the opt level, so
        // the alternation is two independent first traces — not
        // signature drift — and subsequent alternating lookups are hits.
        let cache = PlanCache::new(8);
        let expr = var("A") * var("B");
        let ctx = Context::new().with("A", 4, 4).with("B", 4, 4);
        let p =
            Signature::with_opt("f", &expr, &ctx, Dtype::F64, BackendId::ENGINE, OptLevel::Passes);
        let g =
            Signature::with_opt("f", &expr, &ctx, Dtype::F64, BackendId::ENGINE, OptLevel::Egraph);
        let (_, l) = cache.get_or_compile(p.clone(), || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        let (_, l) = cache.get_or_compile(g.clone(), || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false }, "second opt level is a first trace");
        assert!(cache.contains(&p) && cache.contains(&g));
        assert_eq!(cache.len(), 2);
        for _ in 0..3 {
            let (_, l) = cache.get_or_compile(p.clone(), || panic!("passes plan is cached"));
            assert_eq!(l, Lookup::Hit);
            let (_, l) = cache.get_or_compile(g.clone(), || panic!("egraph plan is cached"));
            assert_eq!(l, Lookup::Hit);
        }
        assert_eq!(cache.stats().retraces, 0, "A/B multiplicity is not signature drift");
        // A genuine body change at one level still counts.
        let re = var("A").t() * var("B");
        let p2 =
            Signature::with_opt("f", &re, &ctx, Dtype::F64, BackendId::ENGINE, OptLevel::Passes);
        let (_, l) = cache.get_or_compile(p2, || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: true });
        assert_eq!(cache.stats().retraces, 1);
    }

    #[test]
    fn concurrent_hits_count_exactly() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(PlanCache::new(8));
        let compiles = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        let rounds = 50;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let compiles = Arc::clone(&compiles);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        let s = sig("shared", 4, Dtype::F64);
                        cache.get_or_compile(s, || {
                            compiles.fetch_add(1, Ordering::Relaxed);
                            tiny_plan(4)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Single-flight: the racing first round compiled exactly once, and
        // every other lookup hit.
        assert_eq!(compiles.load(Ordering::Relaxed), 1);
        let st = cache.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, (threads * rounds - 1) as u64);
        assert_eq!(st.entries, 1);
    }

    #[test]
    fn shards_round_up_to_power_of_two() {
        let cache = PlanCache::with_shards(16, 3);
        assert_eq!(cache.shards.len(), 4);
        assert!(cache.is_empty());
        // Capacity 16 over 4 shards: 4 per shard.
        assert_eq!(cache.per_shard_capacity, 4);
    }
}
