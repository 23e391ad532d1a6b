//! Differential property tests: the indexed calendar [`EventQueue`] versus
//! the baseline [`HeapQueue`].
//!
//! The two implementations must be observationally identical — same pop
//! order and payloads, same `peek_time`, same `cancel` results, same live
//! [`QueueStats`] counters — under arbitrary interleavings of
//! schedule/cancel/pop. (The dead-entry skim counters are structure-
//! dependent: the two designs discard cancelled entries on different
//! schedules, so only the scheduled/cancelled/popped triple is compared.)
//! That equivalence is what makes the kernel's queue swap invisible to
//! every simulation (and byte-identical in all `sweep-v1` JSON).

use proptest::prelude::*;

use abe_sim::{EventQueue, HeapQueue, SimTime, SplitMix64};

/// The structure-independent projection of [`QueueStats`]: everything but
/// the dead-entry skim counters, which legitimately differ between the
/// calendar and heap designs.
fn live_stats(stats: abe_sim::QueueStats) -> (u64, u64, u64, u64) {
    (stats.scheduled, stats.cancelled, stats.popped, stats.live())
}

/// Operations replayed against both queues in lockstep.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at an absolute time; payload is the op index.
    Schedule(f64),
    /// Cancel the n-th issued token (mod the number issued so far); hits
    /// live, popped, and already-cancelled tokens alike.
    CancelNth(usize),
    /// Pop the earliest live event.
    Pop,
}

/// Times from several regimes so every queue region is exercised: dense
/// ties, the near calendar window, beyond-window far-heap times, and a
/// continuous spread.
fn time_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        // Dense ties on bucket-width multiples (same-bucket, same-time).
        (0u32..32).prop_map(|k| f64::from(k) * 0.25),
        // Inside the default 16 s calendar window.
        0.0f64..16.0,
        // Far beyond the window: far-heap placement and window jumps.
        16.0f64..1e7,
        // Continuous spread.
        0.0f64..1e3,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        time_strategy().prop_map(Op::Schedule),
        time_strategy().prop_map(Op::Schedule),
        (0usize..256).prop_map(Op::CancelNth),
        Just(Op::Pop),
    ]
}

/// Replays `ops` against both queues, asserting identical observable
/// behaviour after every single operation.
fn assert_equivalent(ops: &[Op]) {
    let mut calendar: EventQueue<usize> = EventQueue::new();
    let mut heap: HeapQueue<usize> = HeapQueue::new();
    let mut calendar_tokens = Vec::new();
    let mut heap_tokens = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Schedule(t) => {
                let time = SimTime::from_secs(*t);
                calendar_tokens.push(calendar.schedule(time, i));
                heap_tokens.push(heap.schedule(time, i));
            }
            Op::CancelNth(n) => {
                if !calendar_tokens.is_empty() {
                    let k = n % calendar_tokens.len();
                    assert_eq!(
                        calendar.cancel(calendar_tokens[k]),
                        heap.cancel(heap_tokens[k]),
                        "cancel #{k} diverged at op {i}"
                    );
                }
            }
            Op::Pop => {
                assert_eq!(calendar.pop(), heap.pop(), "pop diverged at op {i}");
            }
        }
        assert_eq!(
            calendar.peek_time(),
            heap.peek_time(),
            "peek diverged at op {i}"
        );
        assert_eq!(calendar.len(), heap.len(), "len diverged at op {i}");
        assert_eq!(
            live_stats(calendar.stats()),
            live_stats(heap.stats()),
            "stats diverged at op {i}"
        );
    }
    // Drain both: the remaining pop sequences must match exactly.
    loop {
        let (a, b) = (calendar.pop(), heap.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(live_stats(calendar.stats()), live_stats(heap.stats()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary interleavings: identical pop order, peeks, cancels, and
    /// stats.
    #[test]
    fn calendar_queue_matches_heap_queue(ops in prop::collection::vec(op_strategy(), 1..300)) {
        assert_equivalent(&ops);
    }

    /// A simulation-shaped workload: times never go backwards (schedule at
    /// `now + delay`, `now` advancing with each pop), mimicking the kernel
    /// run loop that the queues actually serve.
    #[test]
    fn monotone_workload_matches(
        delays in prop::collection::vec(0.0f64..8.0, 1..200),
        actions in prop::collection::vec(0u32..4, 1..200),
    ) {
        let delays: Vec<(f64, u32)> = delays
            .into_iter()
            .zip(actions)
            .collect();
        let mut calendar: EventQueue<usize> = EventQueue::new();
        let mut heap: HeapQueue<usize> = HeapQueue::new();
        let mut calendar_tokens = Vec::new();
        let mut heap_tokens = Vec::new();
        let mut now = 0.0f64;
        for (i, &(delay, action)) in delays.iter().enumerate() {
            let time = SimTime::from_secs(now + delay);
            calendar_tokens.push(calendar.schedule(time, i));
            heap_tokens.push(heap.schedule(time, i));
            match action {
                // Cancel-heavy, like `sync_tick` rescheduling.
                0 | 1 => {
                    let k = (i * 7 + 3) % calendar_tokens.len();
                    prop_assert_eq!(
                        calendar.cancel(calendar_tokens[k]),
                        heap.cancel(heap_tokens[k])
                    );
                }
                2 => {
                    let (a, b) = (calendar.pop(), heap.pop());
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = t.as_secs();
                    }
                }
                _ => {}
            }
            prop_assert_eq!(calendar.peek_time(), heap.peek_time());
        }
        loop {
            let (a, b) = (calendar.pop(), heap.pop());
            prop_assert_eq!(a.clone(), b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(live_stats(calendar.stats()), live_stats(heap.stats()));
    }
}

/// A long deterministic churn run (the shape of the `abe-perf` queue-churn
/// suite): a steady-state pending set under schedule/cancel/pop pressure.
#[test]
fn long_churn_run_is_equivalent() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    let mut calendar: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut calendar_tokens = Vec::new();
    let mut heap_tokens = Vec::new();
    let mut now = 0.0f64;
    for i in 0..50_000u64 {
        let roll = rng.next_u64() % 100;
        if roll < 45 || calendar_tokens.is_empty() {
            // Mixture of near and far delays.
            let delay = if rng.next_u64().is_multiple_of(8) {
                1000.0 + (rng.next_u64() % 10_000) as f64
            } else {
                (rng.next_u64() % 1_000) as f64 / 250.0
            };
            let time = SimTime::from_secs(now + delay);
            calendar_tokens.push(calendar.schedule(time, i));
            heap_tokens.push(heap.schedule(time, i));
        } else if roll < 70 {
            let k = (rng.next_u64() as usize) % calendar_tokens.len();
            assert_eq!(
                calendar.cancel(calendar_tokens[k]),
                heap.cancel(heap_tokens[k]),
                "cancel diverged at step {i}"
            );
        } else {
            let (a, b) = (calendar.pop(), heap.pop());
            assert_eq!(a, b, "pop diverged at step {i}");
            if let Some((t, _)) = a {
                now = t.as_secs();
            }
        }
        debug_assert_eq!(calendar.peek_time(), heap.peek_time());
    }
    assert_eq!(calendar.len(), heap.len());
    assert_eq!(live_stats(calendar.stats()), live_stats(heap.stats()));
    loop {
        let (a, b) = (calendar.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// Asserts every observable the two queues share: peeks, length and the
/// live counters.
fn assert_same_view(calendar: &EventQueue<u64>, heap: &HeapQueue<u64>, step: &str) {
    assert_eq!(
        calendar.peek_time(),
        heap.peek_time(),
        "peek_time at {step}"
    );
    assert_eq!(
        calendar.peek_time_key(),
        heap.peek_time_key(),
        "peek_time_key at {step}"
    );
    assert_eq!(calendar.len(), heap.len(), "len at {step}");
    assert_eq!(
        live_stats(calendar.stats()),
        live_stats(heap.stats()),
        "stats at {step}"
    );
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_u64() as usize % (i + 1));
    }
}

/// The election's start-up shape: many same-time keyed events primed into
/// an empty queue before the first pop (they all wait in one calendar
/// bucket, which the first pop sorts), then drained while same-time and
/// later events are scheduled, tokens are cancelled and the queue is
/// peeked between every operation.
#[test]
fn same_time_keyed_priming_then_interleaved_drain_is_equivalent() {
    const PRIMED: u64 = 1500;
    for shuffled in [false, true] {
        let mut rng = SplitMix64::new(if shuffled { 11 } else { 10 });
        let mut keys: Vec<u64> = (0..PRIMED).map(|k| k * 4).collect();
        if shuffled {
            shuffle(&mut keys, &mut rng);
        }
        let mut calendar: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut calendar_tokens = Vec::new();
        let mut heap_tokens = Vec::new();
        let start = SimTime::from_secs(0.5);
        for (i, &key) in keys.iter().enumerate() {
            calendar_tokens.push(calendar.schedule_keyed(start, key, key));
            heap_tokens.push(heap.schedule_keyed(start, key, key));
            assert_same_view(&calendar, &heap, &format!("prime {i}"));
        }
        let mut next_key = 4 * PRIMED;
        let mut step = 0;
        while !heap.is_empty() {
            step += 1;
            let (a, b) = (calendar.pop_keyed(), heap.pop_keyed());
            assert_eq!(a, b, "pop diverged at step {step} (shuffled: {shuffled})");
            let (now, _, _) = a.expect("both queues were non-empty");
            match rng.next_u64() % 4 {
                // Same time, a key between the primed ones: lands before
                // some still-pending primed events.
                0 => {
                    let key = (rng.next_u64() % (4 * PRIMED)) | 1;
                    calendar_tokens.push(calendar.schedule_keyed(now, key, key));
                    heap_tokens.push(heap.schedule_keyed(now, key, key));
                }
                // Later, in the calendar window or past it.
                1 => {
                    let delay = (rng.next_u64() % 4000) as f64 / 100.0;
                    let time = SimTime::from_secs(now.as_secs() + delay);
                    calendar_tokens.push(calendar.schedule_keyed(time, next_key, next_key));
                    heap_tokens.push(heap.schedule_keyed(time, next_key, next_key));
                    next_key += 1;
                }
                // Cancel any issued token: pending, popped or cancelled.
                2 => {
                    let k = rng.next_u64() as usize % calendar_tokens.len();
                    assert_eq!(
                        calendar.cancel(calendar_tokens[k]),
                        heap.cancel(heap_tokens[k]),
                        "cancel #{k} diverged at step {step}"
                    );
                }
                _ => {}
            }
            assert_same_view(&calendar, &heap, &format!("drain step {step}"));
        }
        assert!(calendar.is_empty());
        assert_eq!(calendar.pop_keyed(), None);
    }
}

/// Events past the calendar window cancelled in random order, mixed with
/// pops: cancelled entries come to outnumber live ones in the far heap
/// again and again, so the one-pass compaction runs several times. Each
/// run shows as one cancel that discards a large batch of dead entries at
/// once (top-of-heap skims discard them a few at a time).
#[test]
fn random_far_cancellations_mixed_with_pops_are_equivalent() {
    const FAR: u64 = 3000;
    let mut rng = SplitMix64::new(0xFA2);
    let mut calendar: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut tokens = Vec::new();
    for i in 0..FAR {
        let time = SimTime::from_secs(100.0 + (rng.next_u64() % 1_000_000) as f64 / 100.0);
        tokens.push((calendar.schedule(time, i), heap.schedule(time, i)));
        assert_same_view(&calendar, &heap, &format!("schedule {i}"));
    }
    shuffle(&mut tokens, &mut rng);
    let mut batches = Vec::new();
    for (i, (calendar_token, heap_token)) in tokens.into_iter().enumerate() {
        if i % 5 == 0 {
            assert_eq!(calendar.pop(), heap.pop(), "pop diverged at {i}");
            assert_same_view(&calendar, &heap, &format!("pop {i}"));
        }
        let discarded = calendar.stats().far_dead;
        assert_eq!(
            calendar.cancel(calendar_token),
            heap.cancel(heap_token),
            "cancel diverged at {i}"
        );
        assert_same_view(&calendar, &heap, &format!("cancel {i}"));
        let batch = calendar.stats().far_dead - discarded;
        if batch >= 32 {
            batches.push(batch);
        }
    }
    assert!(batches.len() >= 3, "compaction batches: {batches:?}");
    assert!(calendar.is_empty() && heap.is_empty());
    assert_eq!(calendar.pop(), None);
}
