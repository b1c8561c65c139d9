//! The sharded, LRU-bounded concurrent plan cache.
//!
//! Mirrors `tf.function`'s concrete-function cache: keyed on the full
//! [`Signature`], bounded in size, counting hits, misses, retraces (a
//! miss for a callsite the cache has already compiled under a different
//! signature — the event `tf.function` warns about), and evictions.
//!
//! Concurrency model: the signature hash selects one of N shards; each
//! shard is an independent mutex over a flat, fixed-capacity list of
//! entries (a handful of plans, scanned on lookup), so clients serving
//! different signatures rarely contend. Compilation runs **while holding
//! the shard lock** — single-flight semantics: when many clients miss on
//! the same new signature at once, exactly one compiles and the rest
//! block briefly and then hit. On a full shard the least recently used
//! entry is replaced in place, and the evicted plan is freed only after
//! the lock is released. The counters are lock-free atomics.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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
}

struct Entry {
    sig: Signature,
    plan: Arc<Plan>,
    last_used: u64,
}

/// Up to `per_shard_capacity` entries, allocated once, and the shard's
/// monotonic recency clock (larger = more recently used).
struct Shard {
    entries: Vec<Entry>,
    tick: u64,
}

/// Sharded, LRU-bounded map from [`Signature`] to [`Plan`].
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    retraces: AtomicU64,
    evictions: AtomicU64,
    /// callsite → `(backend, opt level, hash of the most recently
    /// compiled signature)`, for the retrace distinction. The callsite is
    /// tracked *per backend and per optimizer level*: dispatching one
    /// callsite to a second backend — or compiling it at the other
    /// pinned optimizer level — is that key's first trace, not
    /// signature drift, and must not inflate the retrace counter. Looked
    /// up by the borrowed callsite name, so only a callsite's first
    /// compile allocates here. Never acquired while a shard lock is
    /// wanted by the same thread in the other order (shard → seen only).
    seen_funcs: Mutex<HashMap<String, Vec<Lane>>>,
}

/// One `(backend, opt level)` a callsite was compiled for, with the hash
/// of its most recently compiled signature.
type Lane = (BackendId, OptLevel, u64);

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
        let shard =
            || Mutex::new(Shard { entries: Vec::with_capacity(per_shard_capacity), tick: 0 });
        Self {
            shards: (0..shards).map(|_| shard()).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retraces: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            seen_funcs: Mutex::new(HashMap::new()),
        }
    }

    /// The locked shard `sig` lives in, picked by the hash's upper bits.
    fn shard(&self, sig: &Signature) -> MutexGuard<'_, Shard> {
        let idx = (sig.hash() >> 48) as usize & (self.shards.len() - 1);
        self.shards[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `sig`, compiling (and caching) a plan with `compile` on a
    /// miss. Returns the plan and how the call was served.
    ///
    /// Single-flight per shard: `compile` runs under the shard lock, so a
    /// signature is compiled at most once no matter how many clients race
    /// on it. The signature is borrowed (an owned one is accepted too)
    /// and cloned only on a miss, by its reference count, so a caller
    /// that keeps its signatures pays no copy on a hit and no deep copy
    /// on a miss.
    pub fn get_or_compile(
        &self,
        sig: impl Borrow<Signature>,
        compile: impl FnOnce() -> Plan,
    ) -> (Arc<Plan>, Lookup) {
        let sig = sig.borrow();
        let mut shard = self.shard(sig);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.entries.iter_mut().find(|e| holds(e, sig)) {
            entry.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&entry.plan), Lookup::Hit);
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let retrace = {
            let mut seen = self.seen_funcs.lock().unwrap_or_else(|e| e.into_inner());
            if !seen.contains_key(sig.func()) {
                seen.insert(sig.func().to_string(), Vec::new());
            }
            let lanes = seen.get_mut(sig.func()).expect("the callsite was just recorded");
            match lanes.iter_mut().find(|(b, o, _)| (*b, *o) == (sig.backend(), sig.opt())) {
                Some((_, _, last)) => std::mem::replace(last, sig.hash()) != sig.hash(),
                None => {
                    lanes.push((sig.backend(), sig.opt(), sig.hash()));
                    false
                }
            }
        };
        if retrace {
            self.retraces.fetch_add(1, Ordering::Relaxed);
        }

        let plan = Arc::new(compile());
        let entry = Entry { sig: sig.clone(), plan: Arc::clone(&plan), last_used: tick };
        let evicted = if shard.entries.len() < self.per_shard_capacity {
            shard.entries.push(entry);
            None
        } else {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let lru = shard.entries.iter_mut().min_by_key(|e| e.last_used);
            Some(std::mem::replace(lru.expect("a full shard has entries"), entry))
        };
        // Free the evicted plan (graph, schedule, hoisted values) only once
        // the shard is unlocked, so lookups on it do not wait for the free.
        drop(shard);
        drop(evicted);
        (plan, Lookup::Compiled { retrace })
    }

    /// `true` when `sig` is resident, without touching recency or
    /// counters (test/introspection hook).
    pub fn contains(&self, sig: &Signature) -> bool {
        self.shard(sig).entries.iter().any(|e| holds(e, sig))
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len()).sum()
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
            entries: self.len(),
        }
    }
}

/// `entry` holds `sig` (the hash first: a mismatch there is the common
/// case and skips the structural comparison).
fn holds(entry: &Entry, sig: &Signature) -> bool {
    entry.sig.hash() == sig.hash() && entry.sig == *sig
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
        let (_, l1) = cache.get_or_compile(&s, || tiny_plan(4));
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
        cache.get_or_compile(&a, || tiny_plan(4));
        cache.get_or_compile(&b, || tiny_plan(4));
        // Touch `a` so `b` becomes least recently used.
        let (_, l) = cache.get_or_compile(&a, || panic!("a is cached"));
        assert_eq!(l, Lookup::Hit);
        cache.get_or_compile(&c, || tiny_plan(4));
        assert!(cache.contains(&a), "recently-touched entry survives");
        assert!(!cache.contains(&b), "LRU entry was evicted");
        assert!(cache.contains(&c));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);

        // Re-requesting the evicted signature recompiles.
        let (_, l) = cache.get_or_compile(b, || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
    }

    #[test]
    fn eviction_churn_counts_every_round_trip() {
        // Capacity 1, two alternating signatures: every lookup misses.
        let cache = PlanCache::with_shards(1, 1);
        let (a, b) = (sig("a", 4, Dtype::F64), sig("b", 4, Dtype::F64));
        for _ in 0..3 {
            cache.get_or_compile(&a, || tiny_plan(4));
            cache.get_or_compile(&b, || tiny_plan(4));
        }
        let st = cache.stats();
        assert_eq!(st.misses, 6);
        assert_eq!(st.evictions, 5, "every insert after the first evicts");
    }

    #[test]
    fn an_evicted_plan_is_no_longer_held() {
        let cache = PlanCache::with_shards(1, 1);
        let (plan, _) = cache.get_or_compile(sig("a", 4, Dtype::F64), || tiny_plan(4));
        let weak = Arc::downgrade(&plan);
        drop(plan);
        assert!(weak.upgrade().is_some(), "the cache holds the resident plan");
        cache.get_or_compile(sig("b", 4, Dtype::F64), || tiny_plan(4));
        assert!(weak.upgrade().is_none(), "evicting `a` freed its plan");
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
        let (_, l) = cache.get_or_compile(&e, || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        let (_, l) = cache.get_or_compile(&r, || tiny_plan(4));
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
        let (_, l) = cache.get_or_compile(&p, || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false });
        let (_, l) = cache.get_or_compile(&g, || tiny_plan(4));
        assert_eq!(l, Lookup::Compiled { retrace: false }, "second opt level is a first trace");
        assert!(cache.contains(&p) && cache.contains(&g));
        assert_eq!(cache.len(), 2);
        for _ in 0..3 {
            let (_, l) = cache.get_or_compile(&p, || panic!("passes plan is cached"));
            assert_eq!(l, Lookup::Hit);
            let (_, l) = cache.get_or_compile(&g, || panic!("egraph plan is cached"));
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
