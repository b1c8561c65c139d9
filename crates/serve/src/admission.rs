//! The admission queue: work-conserving batching in front of the plan
//! cache.
//!
//! Same-key requests coalesce into batches of up to `window`, but never
//! at the price of an idle executor. One rule decides when a group
//! leaves the queue: **a free consumer takes the oldest pending group at
//! once, and sleeps only when nothing at all is pending.** Coalescing
//! therefore happens exactly when it is free — while every consumer is
//! busy, arrivals pile into their keyed groups; the consumer that frees
//! up first takes the oldest group with everything that accumulated —
//! and an idle server never holds a request. A batch leaves on
//!
//! * **occupancy** — the group is as full as it can usefully get: it
//!   reached `window` pending requests, or a consumer was free to run it;
//! * **drain** — the queue is closing; every partial group flushes;
//! * **pressure** — a bounded queue's backlog crossed half its capacity
//!   (see [`AdmissionQueue::bounded`]).
//!
//! There is deliberately no timer holding a partial group back in the
//! hope of same-key companions. Such a timer can only run while a
//! consumer sits idle in [`next_batch`](AdmissionQueue::next_batch), so
//! every microsecond it waits is free capacity spent on latency (a
//! 250 µs budget was 337 µs of a 381 µs round trip for 5 µs of work);
//! and when no consumer is free, groups fill without it.
//! [`FlushKind::Deadline`] remains as a variant and wire code that this
//! queue never produces.
//!
//! Requests are grouped by an arbitrary hashable key (the serving layer
//! keys on `(Family, n, Dtype, BackendId)` — exactly what determines a
//! [`Signature`](crate::Signature)), and groups preserve arrival order:
//! a backlog submitted and closed before anyone consumes leaves in
//! fixed-count chunks — each key's items split at every `window`-th
//! arrival, the remainder drained at close. The
//! [`Server`](crate::Server) feeds the queue from socket readers.
//!
//! The implementation is a `Mutex` + `Condvar` multi-producer
//! multi-consumer queue: producers ([`submit`](AdmissionQueue::submit))
//! append to keyed groups, hand full ones to the ready list and wake one
//! consumer per new group; consumers
//! ([`next_batch`](AdmissionQueue::next_batch)) take a ready batch, else
//! the oldest pending group, else block until a submit or the close.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What caused a batch to leave the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushKind {
    /// The group was as full as it could usefully get: it reached the
    /// occupancy window, or a free consumer took it.
    Occupancy,
    /// A latency timer released a partial group. This queue has no
    /// timer (see the module docs) and never produces it; the variant
    /// stays because it is a wire code that peers match exhaustively.
    Deadline,
    /// The queue was closed with the group still partial.
    Drain,
    /// The backlog crossed half its capacity, so the group flushed early
    /// — under pressure the queue degrades its batching window to favor
    /// latency over coalescing.
    Pressure,
}

impl FlushKind {
    /// Stable identifier used in reports.
    pub fn id(self) -> &'static str {
        match self {
            FlushKind::Occupancy => "occupancy",
            FlushKind::Deadline => "deadline",
            FlushKind::Drain => "drain",
            FlushKind::Pressure => "pressure",
        }
    }
}

/// What [`AdmissionQueue::submit`] did with an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The item joined a pending group (or flushed with one).
    Queued,
    /// The queue's backlog is at capacity; the item was shed. The caller
    /// should answer with a structured busy/retry rejection.
    Shed,
    /// The queue is closed; the item was dropped.
    Closed,
}

impl SubmitOutcome {
    /// `true` when the item was accepted.
    pub fn is_queued(self) -> bool {
        matches!(self, SubmitOutcome::Queued)
    }
}

/// One batch the queue released: same-key items in arrival order.
#[derive(Debug)]
pub struct FlushedBatch<T> {
    /// The admitted items, oldest first.
    pub items: Vec<T>,
    /// What released the batch.
    pub kind: FlushKind,
    /// When the batch's oldest item was submitted (the queue-delay
    /// anchor: `flushed_at - enqueued_at` is the time the batch head
    /// spent waiting for a consumer).
    pub enqueued_at: Instant,
}

/// Monotonic counters describing what the queue did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Items accepted by [`AdmissionQueue::submit`].
    pub admitted: u64,
    /// Items refused because the backlog was at capacity.
    pub shed: u64,
    /// Batches flushed because a group filled its window or a free
    /// consumer took it.
    pub occupancy_flushes: u64,
    /// Always `0`: the count of [`FlushKind::Deadline`] batches, kept so
    /// the per-kind ledger covers every variant.
    pub deadline_flushes: u64,
    /// Partial batches flushed at close.
    pub drain_flushes: u64,
    /// Batches flushed early because the backlog crossed half capacity.
    pub pressure_flushes: u64,
}

impl AdmissionStats {
    /// Total batches released.
    pub fn batches(&self) -> u64 {
        self.occupancy_flushes + self.deadline_flushes + self.drain_flushes + self.pressure_flushes
    }
}

/// A pending group: items sharing one key, plus the head-arrival time
/// that orders groups and anchors the batch's queue delay.
struct Group<T> {
    items: Vec<T>,
    head_at: Instant,
}

struct State<K, T> {
    groups: HashMap<K, Group<T>>,
    /// Group keys in head-arrival order. A flushed group leaves this
    /// list; a re-created group re-enters at the back with a fresh
    /// `head_at`, so the front is always the oldest pending group.
    order: VecDeque<K>,
    ready: VecDeque<FlushedBatch<T>>,
    closed: bool,
    stats: AdmissionStats,
    /// Items admitted but not yet handed to a consumer (pending groups
    /// plus the ready list) — the backlog the capacity bound limits.
    queued: usize,
}

/// The work-conserving admission queue. See the module docs.
pub struct AdmissionQueue<K, T> {
    state: Mutex<State<K, T>>,
    cond: Condvar,
    window: usize,
    /// Backlog bound in items; `0` means unbounded.
    capacity: usize,
}

impl<K: Eq + Hash + Clone, T> AdmissionQueue<K, T> {
    /// Create a queue whose batches hold at most `window` items (values
    /// `0` and `1` both mean "no coalescing": every item is its own
    /// batch). `_deadline` is accepted and ignored: the queue has no
    /// timer, and the parameter survives only because the frozen
    /// `benchmark/` harness calls `new(0, None)` — the next `benchmark`
    /// PR drops it.
    pub fn new(window: usize, _deadline: Option<Duration>) -> Self {
        Self::bounded(window, None, 0)
    }

    /// Like [`new`](Self::new), but with a backlog bound: once `capacity`
    /// items are queued (pending groups plus undequeued ready batches),
    /// further submits are [shed](SubmitOutcome::Shed) instead of
    /// growing the queue without bound. Past *half* capacity the queue
    /// also flushes each submitting group immediately
    /// ([`FlushKind::Pressure`]) — degrading the batching window to
    /// favor latency while overloaded. `capacity: 0` means unbounded.
    /// `_deadline` is accepted and ignored, as in [`new`](Self::new).
    pub fn bounded(window: usize, _deadline: Option<Duration>, capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                groups: HashMap::new(),
                order: VecDeque::new(),
                ready: VecDeque::new(),
                closed: false,
                stats: AdmissionStats::default(),
                queued: 0,
            }),
            cond: Condvar::new(),
            window: window.max(1),
            capacity,
        }
    }

    /// The effective occupancy window (≥ 1).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The backlog bound in items (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items admitted but not yet handed to a consumer.
    pub fn queued(&self) -> usize {
        self.state.lock().expect("admission mutex").queued
    }

    /// Submit one item under `key`. The item is dropped unless the
    /// outcome is [`SubmitOutcome::Queued`]: a closed queue refuses it,
    /// and a full backlog sheds it.
    pub fn submit(&self, key: K, item: T) -> SubmitOutcome {
        let mut s = self.state.lock().expect("admission mutex");
        if s.closed {
            return SubmitOutcome::Closed;
        }
        if self.capacity > 0 && s.queued >= self.capacity {
            s.stats.shed += 1;
            return SubmitOutcome::Shed;
        }
        s.stats.admitted += 1;
        s.queued += 1;
        let now = Instant::now();
        let group = s
            .groups
            .entry(key.clone())
            .or_insert_with(|| Group { items: Vec::with_capacity(self.window), head_at: now });
        let fresh_group = group.items.is_empty();
        group.items.push(item);
        let full = group.items.len() >= self.window;
        let pressured = !full && self.capacity > 0 && s.queued * 2 >= self.capacity;
        if fresh_group {
            s.order.push_back(key.clone());
        }
        if full || pressured {
            let kind = if full { FlushKind::Occupancy } else { FlushKind::Pressure };
            Self::flush_key(&mut s, &key, kind);
            // A batch became ready: wake a consumer to take it.
            self.cond.notify_one();
        } else if fresh_group {
            // A group became pending: a consumer asleep on an empty
            // queue takes it at once.
            self.cond.notify_one();
        }
        SubmitOutcome::Queued
    }

    /// Move the keyed group into the ready list.
    fn flush_key(s: &mut State<K, T>, key: &K, kind: FlushKind) {
        let group = s.groups.remove(key).expect("flushing a present group");
        if let Some(pos) = s.order.iter().position(|k| k == key) {
            s.order.remove(pos);
        }
        match kind {
            FlushKind::Occupancy => s.stats.occupancy_flushes += 1,
            FlushKind::Deadline => s.stats.deadline_flushes += 1,
            FlushKind::Drain => s.stats.drain_flushes += 1,
            FlushKind::Pressure => s.stats.pressure_flushes += 1,
        }
        s.ready.push_back(FlushedBatch { items: group.items, kind, enqueued_at: group.head_at });
    }

    /// Return the next batch, blocking only while nothing at all is
    /// pending; `None` once the queue is closed and fully drained. A
    /// ready batch (full window, pressure, drain) goes first; otherwise
    /// the caller — by calling, a free consumer — takes the oldest
    /// pending group whole, as an [`Occupancy`](FlushKind::Occupancy)
    /// flush. A pending group and a sleeping consumer never coexist, so
    /// no timer is needed to bound a lone request's wait.
    pub fn next_batch(&self) -> Option<FlushedBatch<T>> {
        let mut s = self.state.lock().expect("admission mutex");
        loop {
            if s.ready.is_empty() {
                if let Some(key) = s.order.front().cloned() {
                    Self::flush_key(&mut s, &key, FlushKind::Occupancy);
                }
            }
            if let Some(batch) = s.ready.pop_front() {
                s.queued -= batch.items.len();
                return Some(batch);
            }
            if s.closed {
                return None;
            }
            s = self.cond.wait(s).expect("admission mutex");
        }
    }

    /// Close the queue: refuse further submits, flush every partial
    /// group as [`FlushKind::Drain`] (in head-arrival order), and wake
    /// all consumers so they drain the ready list and observe `None`.
    pub fn close(&self) {
        let mut s = self.state.lock().expect("admission mutex");
        if !s.closed {
            s.closed = true;
            while let Some(key) = s.order.front().cloned() {
                Self::flush_key(&mut s, &key, FlushKind::Drain);
            }
        }
        drop(s);
        self.cond.notify_all();
    }

    /// Snapshot the queue's counters.
    pub fn stats(&self) -> AdmissionStats {
        self.state.lock().expect("admission mutex").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn occupancy_flush_releases_full_windows() {
        let q: AdmissionQueue<u8, usize> = AdmissionQueue::new(3, None);
        for i in 0..7 {
            assert!(q.submit(0, i).is_queued());
        }
        // Two full windows are ready without closing.
        let a = q.next_batch().unwrap();
        assert_eq!((a.items.as_slice(), a.kind), (&[0, 1, 2][..], FlushKind::Occupancy));
        let b = q.next_batch().unwrap();
        assert_eq!((b.items.as_slice(), b.kind), (&[3, 4, 5][..], FlushKind::Occupancy));
        // The partial tail drains at close.
        q.close();
        let c = q.next_batch().unwrap();
        assert_eq!((c.items.as_slice(), c.kind), (&[6][..], FlushKind::Drain));
        assert_eq!(q.next_batch().map(|b| b.items), None);
        let stats = q.stats();
        assert_eq!(stats.admitted, 7);
        assert_eq!((stats.occupancy_flushes, stats.drain_flushes), (2, 1));
        assert_eq!(stats.deadline_flushes, 0);
        assert_eq!(stats.batches(), 3);
    }

    #[test]
    fn window_one_disables_coalescing() {
        let q: AdmissionQueue<u8, usize> = AdmissionQueue::new(0, None);
        assert_eq!(q.window(), 1, "0 and 1 both mean no coalescing");
        q.submit(0, 10);
        q.submit(0, 11);
        assert_eq!(q.next_batch().unwrap().items, vec![10]);
        assert_eq!(q.next_batch().unwrap().items, vec![11]);
    }

    #[test]
    fn blocked_consumer_takes_a_lone_submit_at_once() {
        // Window 64 and no second item ever: only the rule — a free
        // consumer takes the oldest pending group — can release this.
        let q: AdmissionQueue<u8, u8> = AdmissionQueue::new(64, None);
        let (about_to_block, blocked) = std::sync::mpsc::channel();
        let (batch, taken_at) = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                about_to_block.send(()).expect("producer is listening");
                let batch = q.next_batch().expect("a lone item is released");
                (batch, Instant::now())
            });
            blocked.recv().expect("consumer started");
            assert!(q.submit(7, 1).is_queued());
            consumer.join().expect("consumer")
        });
        assert_eq!((batch.items.as_slice(), batch.kind), (&[1][..], FlushKind::Occupancy));
        let waited = taken_at.duration_since(batch.enqueued_at);
        assert!(waited < Duration::from_millis(50), "held for {waited:?} with a consumer free");
        let stats = q.stats();
        assert_eq!((stats.occupancy_flushes, stats.deadline_flushes), (1, 0));
        q.close();
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn groups_accumulate_while_no_consumer_is_free() {
        let q: AdmissionQueue<u8, u8> = AdmissionQueue::new(4, None);
        for (key, item) in [(1, 10), (2, 20), (1, 11), (2, 21), (1, 12)] {
            assert!(q.submit(key, item).is_queued());
        }
        // Nobody consumed meanwhile, so both groups are whole; the one
        // with the older head leaves first.
        let a = q.next_batch().unwrap();
        let b = q.next_batch().unwrap();
        assert_eq!((a.items, a.kind), (vec![10, 11, 12], FlushKind::Occupancy));
        assert_eq!((b.items, b.kind), (vec![20, 21], FlushKind::Occupancy));
        assert!(a.enqueued_at <= b.enqueued_at);
        // A group never outgrows the window: the 4th arrival flushes it
        // and the 5th starts a new one.
        for item in 30..35 {
            q.submit(3, item);
        }
        assert_eq!(q.next_batch().unwrap().items, vec![30, 31, 32, 33]);
        assert_eq!(q.next_batch().unwrap().items, vec![34]);
        let stats = q.stats();
        assert_eq!((stats.occupancy_flushes, stats.deadline_flushes), (4, 0));
        assert_eq!(q.queued(), 0);
        q.close();
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn submit_after_close_is_refused() {
        let q: AdmissionQueue<u8, u8> = AdmissionQueue::new(4, None);
        q.close();
        assert_eq!(q.submit(0, 1), SubmitOutcome::Closed);
        assert_eq!(q.stats().admitted, 0);
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn bounded_queue_sheds_at_capacity_and_recovers_after_drain() {
        let q: AdmissionQueue<u8, u8> = AdmissionQueue::bounded(1, None, 2);
        assert_eq!(q.submit(0, 1), SubmitOutcome::Queued);
        assert_eq!(q.submit(0, 2), SubmitOutcome::Queued);
        // Backlog full: item 3 is shed, not queued.
        assert_eq!(q.submit(0, 3), SubmitOutcome::Shed);
        assert_eq!(q.queued(), 2);
        // Draining one batch frees a slot.
        assert_eq!(q.next_batch().unwrap().items, vec![1]);
        assert_eq!(q.submit(0, 4), SubmitOutcome::Queued);
        let stats = q.stats();
        assert_eq!((stats.admitted, stats.shed), (3, 1));
        q.close();
        let mut rest = Vec::new();
        while let Some(b) = q.next_batch() {
            rest.extend(b.items);
        }
        assert_eq!(rest, vec![2, 4], "shed items never reappear");
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn pressure_flushes_degrade_the_window_past_half_capacity() {
        // Window 8 would normally hold partial groups; with the backlog
        // at half of capacity 4, each submit flushes immediately.
        let q: AdmissionQueue<u8, u8> = AdmissionQueue::bounded(8, None, 4);
        assert_eq!(q.submit(0, 1), SubmitOutcome::Queued);
        assert_eq!(q.submit(0, 2), SubmitOutcome::Queued); // queued = 2 = capacity/2
        let batch = q.next_batch().unwrap();
        assert_eq!((batch.items.as_slice(), batch.kind), (&[1, 2][..], FlushKind::Pressure));
        assert_eq!(q.stats().pressure_flushes, 1);
        q.close();
        assert!(q.next_batch().is_none());
    }

    /// The PR 5 `admit()` chunking, restated: group stream indices by
    /// key in first-seen order, chunk each group at `window`, sort the
    /// chunks by first stream index.
    fn reference_chunking(keys: &[u32], window: usize) -> Vec<Vec<usize>> {
        let window = window.max(1);
        let mut order = Vec::new();
        let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            groups
                .entry(k)
                .or_insert_with(|| {
                    order.push(k);
                    Vec::new()
                })
                .push(i);
        }
        let mut out = Vec::new();
        for k in order {
            for chunk in groups[&k].chunks(window) {
                out.push(chunk.to_vec());
            }
        }
        out.sort_by_key(|c| c[0]);
        out
    }

    #[test]
    fn backlog_reproduces_fixed_count_chunking() {
        // An adversarial key stream: interleaved keys, repeats, a key
        // that fills several windows, singletons.
        let keys = [3u32, 1, 3, 3, 2, 3, 1, 3, 3, 3, 2, 9, 3, 1, 1, 1, 1, 2];
        for window in [1usize, 2, 3, 4, 8, 64] {
            // Submit everything, close, then drain: no consumer runs
            // before the close, so only occupancy and drain flush.
            let q = AdmissionQueue::new(window, None);
            for (i, &k) in keys.iter().enumerate() {
                assert!(q.submit(k, i).is_queued());
            }
            q.close();
            let mut got: Vec<Vec<usize>> =
                std::iter::from_fn(|| q.next_batch()).map(|b| b.items).collect();
            got.sort_by_key(|c| c[0]);
            assert_eq!(got, reference_chunking(&keys, window), "window {window}");
        }
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q: AdmissionQueue<usize, usize> = AdmissionQueue::new(4, None);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for c in 0..3 {
                let q = &q;
                let consumed = &consumed;
                scope.spawn(move || {
                    let _ = c;
                    while let Some(batch) = q.next_batch() {
                        consumed.fetch_add(batch.items.len(), Ordering::Relaxed);
                    }
                });
            }
            for p in 0..4 {
                let q = &q;
                scope.spawn(move || {
                    for i in 0..100 {
                        assert!(q.submit(i % 7, p * 1000 + i).is_queued());
                    }
                });
            }
            // Consumers exit only after close; close only after every
            // producer submit landed. A watcher polls the admitted count
            // so the scope's implicit join can't deadlock.
            let q = &q;
            scope.spawn(move || {
                while q.stats().admitted < 400 {
                    std::thread::yield_now();
                }
                q.close();
            });
        });
        assert_eq!(consumed.load(Ordering::Relaxed), 400, "every item flushed exactly once");
        let stats = q.stats();
        assert_eq!(stats.admitted, 400);
        assert!(stats.batches() > 0);
    }
}
