//! Admission-queue contention: barrier-synchronized producers hammer
//! `submit` while consumers race `next_batch`, each free consumer
//! taking the oldest pending group out from under the producers still
//! filling it. The invariants under fire are the ones the serving loop
//! depends on: **no item is lost, none is duplicated**, every batch is
//! same-key and within the window, and the stats counters reconcile
//! exactly with what the threads observed.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use laab_serve::{AdmissionQueue, FlushKind};

/// Items are `(key, unique id)`; consumers record everything they pull.
type Item = (u64, u64);

struct Consumed {
    ids: Vec<u64>,
    batches: u64,
    kinds: [u64; 4],
    max_batch: usize,
}

fn kind_slot(kind: FlushKind) -> usize {
    match kind {
        FlushKind::Occupancy => 0,
        FlushKind::Deadline => 1,
        FlushKind::Drain => 2,
        FlushKind::Pressure => 3,
    }
}

/// Run `producers` × `per_producer` submits through a queue against
/// `consumers` concurrent `next_batch` loops, all released by one
/// barrier; close once every producer returns. Each consumer stays
/// busy for `work` after every batch it takes — the time during which
/// arrivals can only pile into their groups. Returns what the
/// consumers collectively pulled plus the per-producer shed count.
fn hammer(
    queue: &AdmissionQueue<u64, Item>,
    producers: usize,
    consumers: usize,
    per_producer: usize,
    keys: u64,
    work: Duration,
) -> (Consumed, u64) {
    let barrier = Barrier::new(producers + consumers);
    let consumed =
        Mutex::new(Consumed { ids: Vec::new(), batches: 0, kinds: [0; 4], max_batch: 0 });
    let mut shed = 0;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..producers {
            let (queue, barrier) = (&queue, &barrier);
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut shed = 0u64;
                for i in 0..per_producer {
                    let id = (p * per_producer + i) as u64;
                    if !queue.submit(id % keys, (id % keys, id)).is_queued() {
                        shed += 1;
                    }
                    // Stagger occasionally so consumers run dry and take
                    // partial groups, racing the full-window flushes.
                    if i % 97 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                shed
            }));
        }
        for _ in 0..consumers {
            let (queue, barrier, consumed) = (&queue, &barrier, &consumed);
            scope.spawn(move || {
                barrier.wait();
                while let Some(batch) = queue.next_batch() {
                    assert!(!batch.items.is_empty(), "no empty batches");
                    let key = batch.items[0].0;
                    assert!(batch.items.iter().all(|(k, _)| *k == key), "a batch never mixes keys");
                    {
                        let mut c = consumed.lock().unwrap();
                        c.batches += 1;
                        c.kinds[kind_slot(batch.kind)] += 1;
                        c.max_batch = c.max_batch.max(batch.items.len());
                        c.ids.extend(batch.items.iter().map(|(_, id)| *id));
                    }
                    if !work.is_zero() {
                        std::thread::sleep(work);
                    }
                }
            });
        }
        // Producers done → close; consumers drain the tail and exit on
        // `None`.
        shed = handles.into_iter().map(|h| h.join().expect("producer")).sum();
        queue.close();
    });
    (consumed.into_inner().unwrap(), shed)
}

/// The conservation law of an unbounded queue: every submitted item
/// came out exactly once, and the stats ledger (admitted, per-kind
/// flushes) matches the consumers' own tally — with no batch ever
/// released by a timer.
fn assert_ledger_balances(queue: &AdmissionQueue<u64, Item>, consumed: &Consumed, total: u64) {
    assert_eq!(consumed.ids.len() as u64, total, "every item consumed");
    let unique: HashSet<u64> = consumed.ids.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "no item duplicated");
    assert!(consumed.max_batch <= queue.window(), "a batch never outgrows the window");

    let stats = queue.stats();
    assert_eq!(stats.admitted, total);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.batches(), consumed.batches, "ledger matches the consumers' count");
    assert_eq!(stats.occupancy_flushes, consumed.kinds[0]);
    assert_eq!(stats.deadline_flushes, consumed.kinds[1]);
    assert_eq!(stats.drain_flushes, consumed.kinds[2]);
    assert_eq!(stats.pressure_flushes, consumed.kinds[3]);
    assert_eq!(stats.deadline_flushes, 0, "the queue has no timer");
    assert_eq!(queue.queued(), 0, "drained to empty");
}

/// Unbounded queue, consumers that never dawdle: groups are taken as
/// fast as they form.
#[test]
fn concurrent_submit_and_flush_neither_loses_nor_duplicates() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: usize = 600;
    let queue: AdmissionQueue<u64, Item> = AdmissionQueue::new(4, None);

    let (consumed, shed) = hammer(&queue, PRODUCERS, CONSUMERS, PER_PRODUCER, 7, Duration::ZERO);

    assert_eq!(shed, 0, "unbounded queue never sheds");
    assert_ledger_balances(&queue, &consumed, (PRODUCERS * PER_PRODUCER) as u64);
    assert!(queue.stats().occupancy_flushes > 0);
}

/// The same ledger with consumers busy ≈ 200 µs per batch: while all of
/// them work, arrivals can only accumulate, so groups must coalesce —
/// up to the window and never past it.
#[test]
fn busy_consumers_coalesce_up_to_the_window_and_the_ledger_still_balances() {
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: usize = 300;
    let queue: AdmissionQueue<u64, Item> = AdmissionQueue::new(4, None);

    let (consumed, shed) =
        hammer(&queue, PRODUCERS, CONSUMERS, PER_PRODUCER, 3, Duration::from_micros(200));

    let total = (PRODUCERS * PER_PRODUCER) as u64;
    assert_eq!(shed, 0, "unbounded queue never sheds");
    assert_ledger_balances(&queue, &consumed, total);
    assert!(
        consumed.batches < total,
        "mean occupancy must exceed 1: {total} items left in {} batches",
        consumed.batches
    );
}

/// Bounded queue under deliberate overrun: sheds happen, but the
/// conservation law still holds — admitted items all come out exactly
/// once, and admitted + shed accounts for every attempt.
#[test]
fn bounded_backlog_sheds_without_losing_admitted_items() {
    const PRODUCERS: usize = 6;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: usize = 500;
    // A tiny capacity against a producer horde: shedding is guaranteed,
    // and the half-capacity pressure regime is exercised constantly.
    let queue: AdmissionQueue<u64, Item> = AdmissionQueue::bounded(8, None, 16);

    let (consumed, shed) = hammer(&queue, PRODUCERS, CONSUMERS, PER_PRODUCER, 5, Duration::ZERO);

    let attempts = (PRODUCERS * PER_PRODUCER) as u64;
    assert!(shed > 0, "a 16-slot backlog against 3000 submits must shed");

    let stats = queue.stats();
    assert_eq!(stats.shed, shed, "queue ledger matches the producers' refusal count");
    assert_eq!(stats.admitted + stats.shed, attempts, "every attempt accounted for");
    assert_eq!(consumed.ids.len() as u64, stats.admitted, "every admitted item consumed");
    let unique: HashSet<u64> = consumed.ids.iter().copied().collect();
    assert_eq!(unique.len(), consumed.ids.len(), "no duplication under shedding");
    assert!(stats.pressure_flushes > 0, "half-capacity pressure flushes engaged");
    assert_eq!(stats.batches(), consumed.batches);
    assert_eq!(queue.queued(), 0);
}
