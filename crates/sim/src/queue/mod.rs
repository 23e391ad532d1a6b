//! Deterministic pending-event queues.
//!
//! Events are ordered by `(time, key, sequence)` where the *key* is a
//! caller-chosen `u64` ordering rank and the sequence number is a monotone
//! counter assigned at scheduling time. [`schedule`](EventQueue::schedule)
//! uses the sequence number itself as the key, so plain callers get the
//! classic behaviour: two events scheduled for the same instant fire in
//! scheduling order, which — together with seeded RNG streams — makes
//! entire simulations bit-reproducible.
//!
//! [`schedule_keyed`](EventQueue::schedule_keyed) exposes the key directly
//! for callers that need an ordering *independent of insertion order* —
//! the sharded network kernel derives keys from stable entity ids so that
//! merging per-shard event streams reproduces the sequential order exactly,
//! no matter which shard scheduled first.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — the kernel's queue: an **indexed two-tier calendar
//!   queue** (near-future calendar buckets plus a far-future heap) with
//!   `O(1)` cancellation through a slot index. This is what
//!   [`Simulation`](crate::Simulation) runs on.
//! * [`HeapQueue`] — the original binary-heap-plus-tombstones design,
//!   retained as the differential-testing oracle and the recorded perf
//!   baseline (see [`heap`]'s module docs).
//!
//! Both pop the exact same `(time, key, sequence)` order for the same
//! operation sequence and report identical live [`QueueStats`] counters, so
//! swapping one for the other cannot change a simulation's results — only
//! its wall clock. (The dead-entry skim counters differ by design: the two
//! designs discard cancelled entries on different schedules.)
//!
//! # The top-is-live invariant
//!
//! Every mutating operation (`schedule`, `cancel`, `pop`) leaves the queue
//! in a state where the earliest **live** event is readable without
//! further cleanup. That is what lets
//! [`peek_time`](EventQueue::peek_time) take `&self` — the run loop peeks
//! before every pop, so the peek must never have to skip cancelled
//! entries. The heap queue maintains it by eagerly skimming tombstones off
//! the heap top; the calendar queue maintains the *front-holds-the-
//! minimum* invariant described on [`EventQueue`], and keeps its buckets
//! and its far-heap top live for the moments the front is empty.

mod heap;

pub use heap::HeapQueue;

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// Handle to a scheduled event, usable to [`cancel`](EventQueue::cancel) it.
///
/// Tokens are unique for the lifetime of the queue that issued them and
/// ordered by scheduling sequence. Besides the public sequence number a
/// token carries the (private) arena slot of its event, which is what
/// makes [`EventQueue::cancel`] an `O(1)` indexed lookup instead of a
/// hash-set probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken {
    /// Monotone per-queue sequence number; the primary ordering key.
    seq: u64,
    /// Arena slot the event occupies ([`EventQueue`] only; the heap queue
    /// stores nothing here).
    slot: u32,
}

impl EventToken {
    /// The raw sequence number backing this token (for diagnostics).
    pub fn sequence(self) -> u64 {
        self.seq
    }
}

/// Counters describing queue activity, exposed for kernel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled over the queue's lifetime.
    pub scheduled: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// Events popped (delivered to the world).
    pub popped: u64,
    /// Cancelled entries skimmed off the front region (dispatch stack or
    /// overlay top). Structure-dependent: the two queue implementations
    /// (and different shardings of the same run) skim on different
    /// schedules, so this is telemetry, not part of the logical state.
    pub front_dead: u64,
    /// Cancelled entries discarded from the far-future heap: skimmed off
    /// its top, or removed in one pass when they came to outnumber its
    /// live entries. Structure-dependent, like
    /// [`front_dead`](Self::front_dead).
    pub far_dead: u64,
}

impl QueueStats {
    /// Events still pending: scheduled but neither cancelled nor popped.
    ///
    /// # Examples
    ///
    /// ```
    /// use abe_sim::QueueStats;
    ///
    /// let stats = QueueStats {
    ///     scheduled: 10,
    ///     cancelled: 2,
    ///     popped: 5,
    ///     ..QueueStats::default()
    /// };
    /// assert_eq!(stats.live(), 3);
    /// ```
    pub fn live(&self) -> u64 {
        self.scheduled - self.cancelled - self.popped
    }

    /// Folds another queue's counters into this one — **all five** fields,
    /// including the dead-entry skim counters, so merged per-shard
    /// telemetry balances (`live()` of a merge equals the sum of the
    /// parts' `live()`, and skimmed entries are never silently lost).
    ///
    /// # Examples
    ///
    /// ```
    /// use abe_sim::QueueStats;
    ///
    /// let mut a = QueueStats {
    ///     scheduled: 10,
    ///     cancelled: 2,
    ///     popped: 5,
    ///     front_dead: 1,
    ///     far_dead: 1,
    /// };
    /// let b = QueueStats {
    ///     scheduled: 4,
    ///     cancelled: 1,
    ///     popped: 3,
    ///     front_dead: 1,
    ///     far_dead: 0,
    /// };
    /// a.merge(b);
    /// assert_eq!(a.live(), 3 + 0);
    /// assert_eq!(a.front_dead, 2);
    /// ```
    pub fn merge(&mut self, other: QueueStats) {
        self.scheduled += other.scheduled;
        self.cancelled += other.cancelled;
        self.popped += other.popped;
        self.front_dead += other.front_dead;
        self.far_dead += other.far_dead;
    }
}

/// Number of calendar buckets in the near-future ring (a power of two so
/// the `tick % BUCKETS` index reduces to a mask).
const BUCKETS: usize = 1024;

/// Default calendar-bucket width in virtual seconds; see
/// [`EventQueue::with_bucket_width`] for the width rule.
const DEFAULT_WIDTH: f64 = 0.015625; // 2⁻⁶

/// Where a slot's event currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In calendar bucket `tick % BUCKETS`, at position `pos` — both
    /// recorded so cancellation is one `swap_remove`.
    Bucket { tick: u64, pos: u32 },
    /// In the front (the sorted dispatch stack or the overlay heap);
    /// removed lazily when it surfaces.
    Front,
    /// In the far-future heap; migrated into a bucket at window refill.
    Far,
    /// Cancelled while in `Front`/`Far`; its container entry is still
    /// floating and will be discarded (and the slot freed) on surfacing or
    /// by a far-heap compaction.
    Dead,
    /// Free-listed; the slot holds no event.
    Vacant,
}

/// One arena slot: the event payload plus the keys and location needed to
/// find and order it without hashing.
#[derive(Clone)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
    loc: Loc,
}

/// An entry of every region container (buckets, dispatch stack, overlay
/// and far heaps): the ordering keys *inline* plus the arena slot, so
/// comparisons and bucket sorts never dereference the arena. Ordered
/// **reversed** on `(time, key, seq)` so `BinaryHeap` (a max-heap) yields
/// the earliest event and an ascending sort puts the minimum last.
#[derive(Clone, Copy)]
struct TierEntry {
    time: SimTime,
    key: u64,
    seq: u64,
    slot: u32,
}

impl PartialEq for TierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for TierEntry {}

impl PartialOrd for TierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TierEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of future events ordered by `(time, key, sequence)`,
/// implemented as an **indexed two-tier calendar queue**. Plain
/// [`schedule`](Self::schedule) uses the sequence as the key, giving the
/// classic schedule-order tie-break; [`schedule_keyed`](Self::schedule_keyed)
/// lets the caller impose an insertion-order-independent rank.
///
/// # Structure
///
/// Events live in a slab arena (`slots` + free list); every token indexes
/// its slot directly, so no operation ever hashes. The pending set is
/// partitioned into three regions by time:
///
/// 1. **front** — everything earlier than the *front edge* `front_hi`:
///    a dispatch stack (one calendar bucket, sorted once when a pop or a
///    cancel promoted it; popped from the end) plus a small *overlay*
///    min-heap for events scheduled into the already-sorted region;
/// 2. **calendar buckets** — a ring of 1024 (`BUCKETS`) unsorted buckets, each
///    `width` seconds wide, covering the window from the front edge to
///    `BUCKETS × width` seconds out;
/// 3. **far heap** — everything beyond the window, in one binary heap,
///    migrated into the buckets in batches as the window slides forward.
///
/// # Invariants
///
/// * *front holds the minimum whenever it is non-empty*: the earliest
///   live event then sits at the dispatch-stack end or the overlay top,
///   and both of those tops are live (never cancelled). Scheduling never
///   promotes a bucket — a pop (or a cancel) that finds the front empty
///   does — so after events are scheduled into an empty front the
///   minimum waits in the earliest occupied bucket or, with no bucket
///   occupied, on the far-heap top. Both are live too: buckets hold only
///   live events, and every far cancellation skims the top or compacts
///   the heap. This is the calendar-queue form of the module-level
///   top-is-live invariant, and it is what lets
///   [`peek_time`](Self::peek_time) take `&self`.
/// * *the far heap is mostly live*: after every cancellation it holds no
///   more dead entries than live ones. A cancellation that would break
///   this removes every dead entry in one pass and re-heapifies, so
///   cancelling far events costs amortised `O(1)` instead of an
///   `O(log n)` pop per dead entry.
/// * *regions are time-ordered*: every front event is earlier than
///   `front_hi`; every bucketed or far event is at or after it. A bucket
///   therefore only ever contains live events (cancellation removes from
///   buckets immediately), and sorting a bucket once when it becomes
///   current yields globally ordered dispatch.
///
/// # The bucket width rule
///
/// `width` is a **power of two** (default `2⁻⁶` s) so that bucket edges
/// (`tick × width`) and tick computations (`time / width`) are exact in
/// `f64` — a misrounded edge could misclassify an event's region and break
/// the region ordering. The window spans `BUCKETS × width` (16 virtual
/// seconds at the default), sized so that delay models with means around
/// one second — the calibration used throughout the harness — land the
/// bulk of pending events in the calendar tier while keeping individual
/// buckets small enough to sort cache-resident. Workloads outside that
/// envelope degrade gracefully: if every event is nearer than one bucket
/// the queue behaves like one sorted stack plus a small heap, and if every
/// event is past the window it behaves like the far heap with batched
/// migration. [`with_bucket_width`](Self::with_bucket_width) retunes the
/// width (rounding to a power of two) for workloads on other time scales.
///
/// # Complexity
///
/// | operation | cost |
/// |---|---|
/// | [`schedule`](Self::schedule) | `O(1)` into a bucket; `O(log n)` into overlay/far |
/// | [`cancel`](Self::cancel) | `O(1)` from a bucket; `O(1)` mark + amortised surface cost from the front; amortised `O(1)` from the far heap (one-pass compaction) |
/// | [`pop`](Self::pop) | `O(1)` from the stack, amortised `O(log b)` for sorting buckets of size `b` (`O(1)` when a bucket was filled in key order) |
/// | [`peek_time`](Self::peek_time) | `O(1)`; `O(b)` over the earliest bucket while the front is empty |
///
/// # Examples
///
/// ```
/// use abe_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "later");
/// let tok = q.schedule(SimTime::from_secs(1.0), "sooner");
/// assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
/// assert!(q.cancel(tok));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "later")));
/// assert!(q.is_empty());
/// ```
#[derive(Clone)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// The calendar ring; bucket `tick % BUCKETS` holds entries for
    /// events in `[tick·width, (tick+1)·width)`, unsorted, all live.
    buckets: Vec<Vec<TierEntry>>,
    /// Occupancy bitmap over the ring (bit `i` ⇔ `buckets[i]` non-empty),
    /// so promotion finds the next non-empty bucket by word scans instead
    /// of probing up to [`BUCKETS`] empty `Vec`s.
    occupied: [u64; BUCKETS / 64],
    /// Live events across all calendar buckets.
    bucket_live: usize,
    /// The next calendar tick to promote; buckets cover ticks
    /// `[cur_tick, cur_tick + BUCKETS)`.
    cur_tick: u64,
    /// Exclusive upper time edge of the front region (`cur_tick × width`).
    front_hi: f64,
    /// Exclusive upper time edge of the calendar window
    /// (`(cur_tick + BUCKETS) × width`), cached because `schedule` reads
    /// it on every call; recomputed whenever `cur_tick` moves.
    window_hi: f64,
    /// The current bucket, sorted descending by `(time, seq)` — the
    /// minimum is at the end, so dispatch is `Vec::pop`.
    dispatch: Vec<TierEntry>,
    /// Events scheduled into the front region after its bucket was sorted.
    overlay: BinaryHeap<TierEntry>,
    /// Live events in `dispatch` + `overlay`.
    front_live: usize,
    /// Cancelled entries still floating in `dispatch`/`overlay`; the skim
    /// loops only run (and only then touch the arena) when nonzero.
    front_dead: usize,
    /// Everything beyond the calendar window.
    far: BinaryHeap<TierEntry>,
    /// Live events in `far`.
    far_live: usize,
    /// Cancelled entries still floating in `far`; at most `far_live`
    /// after every cancellation.
    far_dead: usize,
    width: f64,
    inv_width: f64,
    next_seq: u64,
    live: usize,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default bucket width.
    pub fn new() -> Self {
        Self::with_bucket_width(DEFAULT_WIDTH)
    }

    /// Creates an empty queue with calendar buckets roughly `width`
    /// virtual seconds wide.
    ///
    /// The width is rounded to the nearest power of two (see the bucket
    /// width rule in the type docs). Tune it when the simulated workload's
    /// typical event horizon is far from the default's ~1 s scale.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is finite and positive.
    pub fn with_bucket_width(width: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "bucket width must be finite and positive, got {width}"
        );
        let width = f64::exp2(width.log2().round());
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BUCKETS / 64],
            bucket_live: 0,
            cur_tick: 0,
            front_hi: 0.0,
            window_hi: BUCKETS as f64 * width,
            dispatch: Vec::new(),
            overlay: BinaryHeap::new(),
            front_live: 0,
            front_dead: 0,
            far: BinaryHeap::new(),
            far_live: 0,
            far_dead: 0,
            width,
            inv_width: width.recip(),
            next_seq: 0,
            live: 0,
            stats: QueueStats::default(),
        }
    }

    /// The calendar tick containing time `t`, clamped so tick arithmetic
    /// cannot overflow (events past the clamp collapse into the last
    /// buckets; the per-bucket sort keeps them correctly ordered).
    fn tick_of(&self, t: f64) -> u64 {
        ((t * self.inv_width) as u64).min(u64::MAX - 2 * BUCKETS as u64)
    }

    /// Returns a slot to the free list.
    fn release(&mut self, slot_id: u32) {
        let slot = &mut self.slots[slot_id as usize];
        slot.loc = Loc::Vacant;
        slot.event = None;
        self.free.push(slot_id);
    }

    /// Appends a live entry to its calendar bucket.
    fn place_in_bucket(&mut self, entry: TierEntry, tick: u64) {
        let idx = (tick % BUCKETS as u64) as usize;
        let bucket = &mut self.buckets[idx];
        if bucket.is_empty() {
            self.occupied[idx / 64] |= 1 << (idx % 64);
        }
        self.slots[entry.slot as usize].loc = Loc::Bucket {
            tick,
            pos: bucket.len() as u32,
        };
        bucket.push(entry);
    }

    /// The first occupied ring tick at or after `cur_tick`; requires
    /// `bucket_live > 0`. Scans at most `BUCKETS/64 + 1` bitmap words.
    fn next_occupied_tick(&self) -> u64 {
        const WORDS: usize = BUCKETS / 64;
        let start = (self.cur_tick % BUCKETS as u64) as usize;
        let start_word = start / 64;
        let start_bit = start % 64;
        let mut word_idx = start_word;
        let mut word = self.occupied[start_word] & (u64::MAX << start_bit);
        for _ in 0..=WORDS {
            if word != 0 {
                let idx = word_idx * 64 + word.trailing_zeros() as usize;
                let dist = (idx + BUCKETS - start) % BUCKETS;
                return self.cur_tick + dist as u64;
            }
            word_idx = (word_idx + 1) % WORDS;
            word = self.occupied[word_idx];
            if word_idx == start_word {
                // Wrapped all the way: only the bits below the start
                // position remain unexamined.
                word &= (1u64 << start_bit) - 1;
            }
        }
        unreachable!("bucket_live > 0 but the occupancy bitmap is empty")
    }

    /// Drops cancelled entries off the far heap's top, freeing their
    /// slots. Free (no arena access) while nothing in `far` is dead.
    fn skim_far(&mut self) {
        while self.far_dead > 0 {
            match self.far.peek() {
                Some(top) if self.slots[top.slot as usize].loc == Loc::Dead => {
                    let slot = top.slot;
                    self.far.pop();
                    self.release(slot);
                    self.far_dead -= 1;
                    self.stats.far_dead += 1;
                }
                _ => break,
            }
        }
    }

    /// Removes every cancelled entry from the far heap in one linear pass
    /// (freeing their slots) and re-heapifies what is left in place.
    /// Run once dead entries outnumber live ones, so each pass costs at
    /// most twice the entries it removes: amortised `O(1)` per cancel.
    fn compact_far(&mut self) {
        let mut entries = std::mem::take(&mut self.far).into_vec();
        let (slots, free) = (&mut self.slots, &mut self.free);
        entries.retain(|entry| {
            let slot = &mut slots[entry.slot as usize];
            if slot.loc != Loc::Dead {
                return true;
            }
            slot.loc = Loc::Vacant;
            free.push(entry.slot);
            false
        });
        self.far = BinaryHeap::from(entries);
        self.stats.far_dead += self.far_dead as u64;
        self.far_dead = 0;
    }

    /// Re-establishes the front-holds-the-minimum invariant after a
    /// mutation: skims dead entries off both front tops and, if the front
    /// drained, promotes the next calendar bucket.
    fn maintain_front(&mut self) {
        if self.front_dead > 0 {
            while let Some(entry) = self.dispatch.last() {
                if self.slots[entry.slot as usize].loc == Loc::Dead {
                    let slot = entry.slot;
                    self.dispatch.pop();
                    self.release(slot);
                    self.front_dead -= 1;
                    self.stats.front_dead += 1;
                } else {
                    break;
                }
            }
            while let Some(top) = self.overlay.peek() {
                if self.slots[top.slot as usize].loc == Loc::Dead {
                    let slot = top.slot;
                    self.overlay.pop();
                    self.release(slot);
                    self.front_dead -= 1;
                    self.stats.front_dead += 1;
                } else {
                    break;
                }
            }
        }
        if self.front_live == 0 {
            // No live front events ⇒ every remaining front entry was dead
            // and the skims above removed them all.
            debug_assert!(self.dispatch.is_empty() && self.overlay.is_empty());
            debug_assert!(self.front_dead == 0);
            if self.live > 0 {
                self.promote();
            }
        }
    }

    /// Recomputes the cached window edge after `cur_tick` moved. The edge
    /// is a single monotone `f64` threshold (events at or past it belong
    /// to the far heap), so region placement can never reorder two events.
    fn refresh_window_hi(&mut self) {
        self.window_hi = self.cur_tick.saturating_add(BUCKETS as u64) as f64 * self.width;
    }

    /// Moves the earliest calendar bucket into the dispatch stack,
    /// sliding the window (and pulling newly in-window far events into
    /// buckets) first.
    ///
    /// Called only with an empty front and `live > 0`; afterwards the
    /// front is non-empty and its minimum is the global minimum.
    fn promote(&mut self) {
        debug_assert!(self.front_live == 0 && self.dispatch.is_empty());
        self.skim_far();
        if self.bucket_live == 0 {
            match self.far.peek() {
                // Near tier empty: jump the window straight to the far
                // tier's earliest event.
                Some(top) => {
                    self.cur_tick = self.tick_of(top.time.as_secs());
                    self.refresh_window_hi();
                }
                None => return, // nothing pending anywhere
            }
        }
        // Migrate far events that the window (now or after sliding) covers.
        // Keeping this up to date on every promotion preserves the region
        // ordering: far events are always at or beyond every bucket.
        let window_hi = self.window_hi;
        loop {
            self.skim_far();
            match self.far.peek() {
                Some(top) if top.time.as_secs() < window_hi => {
                    let entry = self.far.pop().expect("peeked entry exists");
                    let tick = self
                        .tick_of(entry.time.as_secs())
                        .clamp(self.cur_tick, self.cur_tick + BUCKETS as u64 - 1);
                    self.far_live -= 1;
                    self.bucket_live += 1;
                    self.place_in_bucket(entry, tick);
                }
                _ => break,
            }
        }
        if self.bucket_live == 0 {
            // The far minimum lies beyond any representable window (times
            // past the tick clamp): dispatch it directly. The front edge
            // becomes its exact time — anything scheduled earlier goes to
            // the overlay, same-time-later-sequence events stay behind it.
            let entry = self.far.pop().expect("far tier is non-empty");
            self.far_live -= 1;
            self.skim_far();
            self.slots[entry.slot as usize].loc = Loc::Front;
            self.front_hi = entry.time.as_secs();
            self.dispatch.push(entry);
            self.front_live = 1;
            return;
        }
        // Jump to the earliest non-empty bucket via the occupancy bitmap;
        // `bucket_live > 0` guarantees one within the window.
        self.cur_tick = self.next_occupied_tick();
        let idx = (self.cur_tick % BUCKETS as u64) as usize;
        // The drained bucket inherits the old dispatch Vec's capacity.
        std::mem::swap(&mut self.dispatch, &mut self.buckets[idx]);
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        self.cur_tick += 1;
        self.front_hi = self.cur_tick as f64 * self.width;
        self.refresh_window_hi();
        self.bucket_live -= self.dispatch.len();
        self.front_live = self.dispatch.len();
        for entry in &self.dispatch {
            self.slots[entry.slot as usize].loc = Loc::Front;
        }
        // `TierEntry`'s order is reversed, so an ascending sort puts the
        // (time, seq) minimum at the end and dispatching is `Vec::pop`.
        // Keys are inline — the sort never touches the arena. Amortised
        // O(log b) per event for buckets of size b.
        self.dispatch.sort_unstable_by(TierEntry::cmp);
    }

    /// Schedules `event` to fire at absolute time `time`, with same-time
    /// ties broken by scheduling order.
    ///
    /// Returns a token that can later be passed to [`Self::cancel`].
    /// `O(1)` when the time lands in a calendar bucket (the common case);
    /// `O(log n)` when it lands in the overlay or far heap.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        let key = self.next_seq;
        self.schedule_keyed(time, key, event)
    }

    /// Schedules `event` at `time` with an explicit ordering `key`:
    /// same-time events pop in ascending key order regardless of the
    /// order they were scheduled in (equal keys fall back to scheduling
    /// order). This is what makes sharded execution order-stable: keys
    /// derived from stable entity ids produce the same dispatch order no
    /// matter which shard scheduled an event first.
    ///
    /// Key order is guaranteed for times below the calendar's tick clamp
    /// (≈3·10¹⁷ virtual seconds at the default width); beyond it same-time
    /// ties can degrade to scheduling order.
    pub fn schedule_keyed(&mut self, time: SimTime, key: u64, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot_id = match self.free.pop() {
            Some(slot_id) => {
                let slot = &mut self.slots[slot_id as usize];
                debug_assert!(slot.loc == Loc::Vacant);
                slot.time = time;
                slot.seq = seq;
                slot.event = Some(event);
                slot_id
            }
            None => {
                self.slots.push(Slot {
                    time,
                    seq,
                    event: Some(event),
                    loc: Loc::Vacant,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let t = time.as_secs();
        if t < self.front_hi {
            // Inside the already-sorted front region: overlay heap.
            self.slots[slot_id as usize].loc = Loc::Front;
            self.overlay.push(TierEntry {
                time,
                key,
                seq,
                slot: slot_id,
            });
            self.front_live += 1;
        } else if t < self.window_hi {
            let tick = self
                .tick_of(t)
                .clamp(self.cur_tick, self.cur_tick + BUCKETS as u64 - 1);
            self.place_in_bucket(
                TierEntry {
                    time,
                    key,
                    seq,
                    slot: slot_id,
                },
                tick,
            );
            self.bucket_live += 1;
        } else {
            self.slots[slot_id as usize].loc = Loc::Far;
            self.far.push(TierEntry {
                time,
                key,
                seq,
                slot: slot_id,
            });
            self.far_live += 1;
        }
        self.live += 1;
        self.stats.scheduled += 1;
        EventToken { seq, slot: slot_id }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. `O(1)`: the token's slot index leads
    /// straight to the event — a bucketed event is swap-removed on the
    /// spot, a front/far event is marked dead and discarded when its heap
    /// entry surfaces (amortised against that later operation) or, for the
    /// far heap, in one compaction pass once dead entries outnumber live
    /// ones (amortised against the cancellations that made them).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get_mut(token.slot as usize) else {
            return false;
        };
        if slot.seq != token.seq {
            return false; // the slot was recycled: this event already fired
        }
        match slot.loc {
            Loc::Vacant | Loc::Dead => return false,
            Loc::Bucket { tick, pos } => {
                slot.loc = Loc::Vacant;
                slot.event = None;
                let idx = (tick % BUCKETS as u64) as usize;
                let bucket = &mut self.buckets[idx];
                bucket.swap_remove(pos as usize);
                if bucket.is_empty() {
                    self.occupied[idx / 64] &= !(1 << (idx % 64));
                }
                if let Some(moved) = bucket.get(pos as usize) {
                    match &mut self.slots[moved.slot as usize].loc {
                        Loc::Bucket { pos: moved_pos, .. } => *moved_pos = pos,
                        other => unreachable!("bucketed slot has location {other:?}"),
                    }
                }
                self.free.push(token.slot);
                self.bucket_live -= 1;
            }
            Loc::Front => {
                slot.loc = Loc::Dead;
                slot.event = None;
                self.front_live -= 1;
                self.front_dead += 1;
            }
            Loc::Far => {
                slot.loc = Loc::Dead;
                slot.event = None;
                self.far_live -= 1;
                self.far_dead += 1;
                if self.far_dead > self.far_live {
                    self.compact_far();
                } else {
                    self.skim_far();
                }
            }
        }
        self.live -= 1;
        self.stats.cancelled += 1;
        self.maintain_front();
        true
    }

    /// Removes and returns the earliest live event.
    ///
    /// `O(1)` plus the amortised cost of keeping the front populated
    /// (bucket sorts and far-tier migration). Scheduling never fills the
    /// front; the pop that finds it empty promotes the earliest bucket.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(time, _key, event)| (time, event))
    }

    /// Like [`pop`](Self::pop), but also returns the ordering key the
    /// event was scheduled under. The trace layer stamps records with
    /// this key, which encodes event identity and therefore matches
    /// between sequential and sharded executions.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        // Events scheduled into an empty front wait in their buckets (or
        // the far heap) until now: one sort serves them all.
        if self.front_live == 0 && self.live > 0 {
            self.promote();
        }
        // Front tops are live and the front holds the global minimum, so
        // the pop is a two-way comparison on inline keys (no arena reads).
        let take_overlay = match (self.dispatch.last(), self.overlay.peek()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(d), Some(o)) => (o.time, o.key, o.seq) < (d.time, d.key, d.seq),
        };
        let entry = if take_overlay {
            self.overlay.pop().expect("peeked entry exists")
        } else {
            self.dispatch.pop().expect("checked non-empty")
        };
        let slot = &mut self.slots[entry.slot as usize];
        let time = slot.time;
        let event = slot.event.take().expect("live slot holds its event");
        self.release(entry.slot);
        self.front_live -= 1;
        self.live -= 1;
        self.stats.popped += 1;
        self.maintain_front();
        Some((time, entry.key, event))
    }

    /// The earliest live entry, which is the *greatest* under
    /// `TierEntry`'s reversed order. With a non-empty front it is one of
    /// the two live front tops; before the next pop has promoted a bucket
    /// it is the minimum of the earliest occupied bucket (one linear pass)
    /// or, with no bucket occupied, the far top.
    fn peek_entry(&self) -> Option<&TierEntry> {
        if self.front_live > 0 {
            self.dispatch.last().max(self.overlay.peek())
        } else if self.bucket_live > 0 {
            let idx = (self.next_occupied_tick() % BUCKETS as u64) as usize;
            self.buckets[idx].iter().max()
        } else {
            self.far.peek()
        }
    }

    /// Time of the earliest live event without removing it.
    ///
    /// Takes `&self`: the front holds the minimum whenever it is
    /// non-empty and its tops are live, so this is usually a two-way
    /// comparison; between a drained front and the next pop it is one
    /// pass over the earliest occupied bucket.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_entry().map(|e| e.time)
    }

    /// `(time, key)` of the earliest live event without removing it, found
    /// like [`peek_time`](Self::peek_time). The sharded kernel uses this
    /// to pick the globally earliest event across per-shard queues.
    pub fn peek_time_key(&self) -> Option<(SimTime, u64)> {
        self.peek_entry().map(|e| (e.time, e.key))
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Removes all pending events (counters and token sequencing keep
    /// running).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = [0; BUCKETS / 64];
        self.bucket_live = 0;
        self.cur_tick = 0;
        self.front_hi = 0.0;
        self.refresh_window_hi();
        self.dispatch.clear();
        self.overlay.clear();
        self.front_live = 0;
        self.front_dead = 0;
        self.far.clear();
        self.far_live = 0;
        self.far_dead = 0;
        self.live = 0;
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live)
            .field("front_live", &self.front_live)
            .field("bucket_live", &self.bucket_live)
            .field("far_live", &self.far_live)
            .field("next_seq", &self.next_seq)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(t(1.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_ties_break_by_key_not_schedule_order() {
        let mut q = EventQueue::new();
        // Schedule in descending key order; pops must come back ascending.
        for key in (0..100u64).rev() {
            q.schedule_keyed(t(1.0), key, key);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_order_stable_across_interleavings() {
        // Two insertion orders of the same (time, key) set pop identically,
        // including keys landing in the overlay after a promotion.
        let evs: Vec<(f64, u64)> = (0..200)
            .map(|i| ((i % 7) as f64 * 3.7, (i * 31 % 200) as u64))
            .collect();
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for &(time, key) in &evs {
            a.schedule_keyed(t(time), key, (time, key));
        }
        for &(time, key) in evs.iter().rev() {
            b.schedule_keyed(t(time), key, (time, key));
        }
        // Drain interleaved with fresh same-time schedules to exercise the
        // overlay path on both queues.
        for i in 0..50u64 {
            let pa = a.pop().unwrap();
            let pb = b.pop().unwrap();
            assert_eq!(pa, pb, "diverged at pop {i}");
            let extra = (pa.0.as_secs(), 1000 + i);
            a.schedule_keyed(pa.0, 1000 + i, extra);
            b.schedule_keyed(pa.0, 1000 + i, extra);
        }
        let ra: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let rb: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn peek_time_key_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time_key(), None);
        q.schedule_keyed(t(2.0), 7, "late");
        q.schedule_keyed(t(1.0), 9, "early");
        assert_eq!(q.peek_time_key(), Some((t(1.0), 9)));
        q.schedule_keyed(t(1.0), 3, "earlier-key");
        assert_eq!(q.peek_time_key(), Some((t(1.0), 3)));
        q.pop();
        assert_eq!(q.peek_time_key(), Some((t(1.0), 9)));
    }

    #[test]
    fn skim_counters_account_for_cancelled_entries() {
        let mut q = EventQueue::new();
        // Spread events past the calendar window (16 s at the default
        // width) so the last ones land in the far heap.
        let toks: Vec<_> = (0..10)
            .map(|i| q.schedule(t(1.0 + 3.0 * i as f64), i))
            .collect();
        // The first pop promotes a bucket, so the next minimum now sits in
        // the front. Cancel it and a far event; both are lazy (marked dead,
        // skimmed later) — bucket cancellations are immediate and never hit
        // the skim counters.
        assert_eq!(q.pop(), Some((t(1.0), 0)));
        assert!(matches!(q.slots[toks[1].slot as usize].loc, Loc::Front));
        assert!(matches!(q.slots[toks[9].slot as usize].loc, Loc::Far));
        assert!(q.cancel(toks[1]));
        assert!(q.cancel(toks[9]));
        // Drain; every cancelled entry must eventually be skimmed and
        // counted in exactly one of the dead counters.
        while q.pop().is_some() {}
        let stats = q.stats();
        assert_eq!(stats.cancelled, 2);
        assert_eq!(stats.front_dead + stats.far_dead, 2);
        assert_eq!(stats.live(), 0);
    }

    #[test]
    fn far_heap_never_holds_more_dead_than_live_entries() {
        let mut q = EventQueue::new();
        let mut rng = crate::SplitMix64::new(7);
        // All past the 16 s window: every event starts in the far heap.
        let mut toks: Vec<_> = (0..2000u64)
            .map(|i| q.schedule(t(100.0 + (rng.next_u64() % 10_000) as f64), i))
            .collect();
        for i in (1..toks.len()).rev() {
            toks.swap(i, rng.next_u64() as usize % (i + 1));
        }
        for (i, tok) in toks.iter().enumerate() {
            if i % 7 == 0 {
                q.pop();
            }
            q.cancel(*tok);
            assert!(
                q.far_dead <= q.far_live,
                "{} dead vs {} live after cancel {i}",
                q.far_dead,
                q.far_live
            );
        }
        assert!(q.is_empty());
        assert!(q.far.is_empty());
    }

    #[test]
    fn cloned_queue_replays_identically() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_keyed(t((i % 9) as f64), i, i);
        }
        let mut c = q.clone();
        loop {
            let (a, b) = (q.pop(), c.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.stats(), c.stats());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1.0), "cancel-me");
        q.schedule(t(2.0), "keep");
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2.0), "keep")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1.0), ());
        q.schedule(t(5.0), ());
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1.0), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(tok));
    }

    #[test]
    fn cancel_after_slot_reuse_returns_false() {
        let mut q = EventQueue::new();
        let stale = q.schedule(t(1.0), 1);
        assert!(q.pop().is_some());
        // The new event recycles the freed slot; the stale token must not
        // be able to cancel it.
        let fresh = q.schedule(t(2.0), 2);
        assert!(!q.cancel(stale));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(fresh));
    }

    #[test]
    fn cancel_unknown_token_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventToken { seq: 99, slot: 99 }));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1.0), 1);
        q.schedule(t(2.0), 2);
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn peek_time_skips_cancelled_in_far_tier() {
        let mut q = EventQueue::new();
        let near = q.schedule(t(0.5), 1);
        let far = q.schedule(t(1e6), 2);
        q.schedule(t(2e6), 3);
        q.cancel(far);
        q.cancel(near);
        assert_eq!(q.peek_time(), Some(t(2e6)));
        assert_eq!(q.pop(), Some((t(2e6), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn stats_count_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        q.cancel(a);
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.popped, 1);
    }

    #[test]
    fn stats_live_tracks_pending() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        q.schedule(t(3.0), ());
        assert_eq!(q.stats().live(), 3);
        q.cancel(a);
        q.pop();
        assert_eq!(q.stats().live(), 1);
        assert_eq!(q.stats().live(), q.len() as u64);
    }

    #[test]
    fn stats_live_is_zero_when_drained() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.pop();
        assert_eq!(q.stats().live(), 0);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn tokens_are_unique_and_ordered() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        let b = q.schedule(t(1.0), ());
        assert_ne!(a, b);
        assert!(a.sequence() < b.sequence());
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), 5);
        q.schedule(t(1.0), 1);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        q.schedule(t(3.0), 3);
        q.schedule(t(2.0), 2);
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert_eq!(q.pop(), Some((t(3.0), 3)));
        assert_eq!(q.pop(), Some((t(5.0), 5)));
    }

    #[test]
    fn many_cancels_do_not_disturb_order() {
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        for i in 0..50 {
            tokens.push(q.schedule(t(i as f64), i));
        }
        // Cancel every odd event.
        for (i, tok) in tokens.iter().enumerate() {
            if i % 2 == 1 {
                q.cancel(*tok);
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).filter(|i| i % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_into_sorted_front_region_keeps_order() {
        let mut q = EventQueue::new();
        // Prime a spread of events, pop one so a bucket is promoted and
        // the front region is live.
        q.schedule(t(0.01), 0);
        q.schedule(t(0.05), 2);
        assert_eq!(q.pop(), Some((t(0.01), 0)));
        // Now schedule *between* front events: must land in the overlay
        // and still pop in global time order.
        q.schedule(t(0.03), 1);
        q.schedule(t(0.02), 9);
        assert_eq!(q.pop(), Some((t(0.02), 9)));
        assert_eq!(q.pop(), Some((t(0.03), 1)));
        assert_eq!(q.pop(), Some((t(0.05), 2)));
    }

    #[test]
    fn far_future_events_surface_after_window_jumps() {
        let mut q = EventQueue::new();
        // Way past the 16 s default window: lives in the far heap.
        q.schedule(t(1_000_000.0), "far");
        q.schedule(t(0.5), "near");
        assert_eq!(q.pop(), Some((t(0.5), "near")));
        assert_eq!(q.pop(), Some((t(1_000_000.0), "far")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_events_migrate_before_later_buckets_dispatch() {
        // Regression shape: an event beyond the window at schedule time
        // must still pop before later in-window events once the window
        // slides over it.
        let mut q = EventQueue::new();
        q.schedule(t(0.1), 1);
        let far_time = 70.0; // beyond the initial 16 s window → far heap
        q.schedule(t(far_time), 2);
        assert_eq!(q.pop(), Some((t(0.1), 1)));
        // Fill the gap so the window slides bucket by bucket over many
        // promotions rather than jumping straight to the far event.
        for i in 1..=80 {
            q.schedule(t(i as f64), 100 + i);
        }
        let mut order = Vec::new();
        while let Some((time, v)) = q.pop() {
            order.push((time.as_secs(), v));
        }
        let sorted = {
            let mut s = order.clone();
            s.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            s
        };
        assert_eq!(order, sorted);
        assert!(order.contains(&(far_time, 2)));
    }

    #[test]
    fn huge_times_are_handled() {
        let mut q = EventQueue::new();
        q.schedule(t(1e300), 'z');
        q.schedule(t(1e299), 'y');
        q.schedule(t(1.0), 'a');
        assert_eq!(q.pop(), Some((t(1.0), 'a')));
        assert_eq!(q.pop(), Some((t(1e299), 'y')));
        assert_eq!(q.pop(), Some((t(1e300), 'z')));
    }

    #[test]
    fn far_top_stays_live_after_direct_dispatch() {
        // Times past the tick clamp are dispatched straight off the far
        // heap; a cancelled entry beneath must not surface as its top.
        let mut q = EventQueue::new();
        q.schedule(t(1e300), 'a');
        let x = q.schedule(t(2e300), 'x');
        assert!(q.cancel(x));
        assert_eq!(q.pop(), Some((t(1e300), 'a')));
        q.schedule(t(5e300), 'c');
        assert_eq!(q.peek_time(), Some(t(5e300)));
        assert_eq!(q.pop(), Some((t(5e300), 'c')));
    }

    #[test]
    fn custom_bucket_width_rounds_to_power_of_two() {
        let mut q = EventQueue::with_bucket_width(0.1); // → 2⁻³ = 0.125
        assert!((q.width - 0.125).abs() < 1e-12);
        q.schedule(t(3.0), 'b');
        q.schedule(t(1.0), 'a');
        assert_eq!(q.pop(), Some((t(1.0), 'a')));
        assert_eq!(q.pop(), Some((t(3.0), 'b')));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_bucket_width_panics() {
        let _ = EventQueue::<()>::with_bucket_width(0.0);
    }

    #[test]
    fn slot_arena_is_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            let tok = q.schedule(t(round as f64), round);
            if round % 2 == 0 {
                assert_eq!(q.pop(), Some((t(round as f64), round)));
            } else {
                assert!(q.cancel(tok));
            }
        }
        // Everything was consumed immediately: the arena never grew past
        // a couple of slots.
        assert!(q.slots.len() <= 2, "arena grew to {}", q.slots.len());
    }
}
