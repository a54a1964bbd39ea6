//! Deterministic discrete-event queue.
//!
//! The [`EventQueue`] orders events by time; ties are broken by insertion
//! order so that a simulation run is fully reproducible regardless of the
//! container internals. The queue is generic over the event payload, letting
//! each layer (OS kernel, bus, vehicle model) define its own event vocabulary.
//!
//! Internally the queue is one vector of `(time µs, seq, payload)` entries
//! kept in descending `(time, seq)` order, so the next event to fire is the
//! last element: `pop` and `peek_time` work at the tail and `schedule` is a
//! binary search plus an insert. The OSEK kernel keeps only a handful of
//! alarm expiries and deadline checks pending, so the insert's shift is a
//! few words and a capture or restore is one vector copy. Cancellation is
//! lazy, exactly like the binary heap the queue is tested against: a
//! cancelled entry stays queued until it reaches the front.

use crate::time::{Duration, Instant};
use std::collections::HashSet;

/// Handle identifying a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw sequence number (monotonically increasing per queue).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The pending state of an [`EventQueue`] captured by
/// [`EventQueue::snapshot`] / [`EventQueue::snapshot_into`]. Its consumer
/// is [`EventQueue::restore_from`] on a queue of the same payload type;
/// the macro-stepping engine also reads the pending entries to compare
/// two captures one hyperperiod apart.
#[derive(Debug, Clone)]
pub struct EventQueueSnapshot<E> {
    entries: Vec<(u64, u64, E)>,
    next_seq: u64,
    cancelled: HashSet<u64>,
}

impl<E> EventQueueSnapshot<E> {
    /// Next sequence number the queue would hand out at capture time.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// `true` if no cancellation was pending at capture time.
    pub fn cancelled_is_empty(&self) -> bool {
        self.cancelled.is_empty()
    }

    /// Every pending `(time µs, seq, payload)` entry at capture time, in
    /// exact pop order (cancelled entries included; see
    /// [`EventQueueSnapshot::cancelled_is_empty`]).
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &(u64, u64, E)> {
        self.entries.iter().rev()
    }
}

impl<E> Default for EventQueueSnapshot<E> {
    fn default() -> Self {
        EventQueueSnapshot {
            entries: Vec::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }
}

/// A time-ordered queue of simulation events with stable tie-breaking.
///
/// # Examples
///
/// ```
/// use easis_sim::event::EventQueue;
/// use easis_sim::time::Instant;
///
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_micros(20), "late");
/// q.schedule(Instant::from_micros(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_micros(), e), (10, "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending `(time µs, seq, payload)` entries in descending `(time, seq)`
    /// order: the next entry to pop is the last one.
    entries: Vec<(u64, u64, E)>,
    next_seq: u64,
    /// Cancelled sequence numbers not yet purged from `entries` (or already
    /// popped: like the reference heap, a cancel after firing is recorded).
    cancelled: HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Schedules `payload` to fire at `at`. Returns a handle for [`cancel`].
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    ///
    /// [`cancel`]: EventQueue::cancel
    pub fn schedule(&mut self, at: Instant, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = at.as_micros();
        // A new seq is larger than every pending one, so the entry goes
        // after all later times and before every same-instant entry: it
        // pops after them (FIFO).
        let idx = self.entries.partition_point(|e| e.0 > t);
        self.entries.insert(idx, (t, seq, payload));
        EventId(seq)
    }

    /// Cancels a previously scheduled event. Returns `false` for an id this
    /// queue never issued and for a second cancel of the same id, which has
    /// no effect. Like the lazy-cancellation binary heap the queue is tested
    /// against, a first cancel after the event fired returns `true`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        id.0 < self.next_seq && self.cancelled.insert(id.0)
    }

    /// Whether `seq` was cancelled; consumes the cancellation.
    fn take_cancelled(&mut self, seq: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.remove(&seq)
    }

    /// Removes and returns the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        while let Some((at, seq, payload)) = self.entries.pop() {
            if !self.take_cancelled(seq) {
                return Some((Instant::from_micros(at), payload));
            }
        }
        None
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<Instant> {
        while let Some(&(at, seq, _)) = self.entries.last() {
            if !self.take_cancelled(seq) {
                return Some(Instant::from_micros(at));
            }
            self.entries.pop();
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    // `is_empty` purges lazily and therefore takes `&mut self`; the pair
    // intentionally deviates from the usual signatures.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.entries.len().saturating_sub(self.cancelled.len())
    }

    /// `true` if no events are pending. (Takes `&mut self` because cancelled
    /// entries are lazily purged during the check; clippy's convention lint
    /// is silenced for that reason.)
    #[allow(clippy::wrong_self_convention)]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Captures the queue's complete pending state — every entry and the
    /// sequence/cancellation bookkeeping — so a later
    /// [`EventQueue::restore_from`] resumes scheduling and popping exactly
    /// where the snapshot was taken (same ids, same order).
    pub fn snapshot(&self) -> EventQueueSnapshot<E>
    where
        E: Clone,
    {
        let mut snap = EventQueueSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures the queue's state into `snap`, reusing the buffers the
    /// snapshot already owns — repeated captures into the same snapshot are
    /// allocation-free once warm. Capture has no side effects on the queue,
    /// so the campaign checkpoints and the macro-stepping engine's
    /// hyperperiod samples share it.
    pub fn snapshot_into(&self, snap: &mut EventQueueSnapshot<E>)
    where
        E: Clone,
    {
        snap.entries.clone_from(&self.entries);
        snap.next_seq = self.next_seq;
        snap.cancelled.clone_from(&self.cancelled);
    }

    /// Restores the queue to a previously captured snapshot. Buffers are
    /// overwritten in place (`clone_from`), so restoring onto a warm queue
    /// allocates nothing in steady state.
    pub fn restore_from(&mut self, snap: &EventQueueSnapshot<E>)
    where
        E: Clone,
    {
        self.entries.clone_from(&snap.entries);
        self.next_seq = snap.next_seq;
        self.cancelled.clone_from(&snap.cancelled);
    }

    /// Shifts every pending entry `shift` later in time and `seq_shift`
    /// higher in sequence and lets `fixup` rewrite each payload in place
    /// (the kernel uses this to slide per-activation sequence numbers
    /// carried inside deadline-check events). This is the timer half of a
    /// hyperperiod macro-jump: after the macro-stepping engine has proved
    /// the queue's content at `t` and `t + H` identical up to these shifts,
    /// applying them advances the queue k hyperperiods in O(pending)
    /// instead of replaying every expiry. A uniform shift keeps the
    /// entries' order, so they are rewritten in place.
    ///
    /// # Panics
    ///
    /// Panics if a cancellation is pending — macro-stepping certification
    /// rejects such states before a jump, so reaching here with one is a
    /// caller bug.
    pub fn fast_forward(&mut self, shift: Duration, seq_shift: u64, mut fixup: impl FnMut(&mut E)) {
        assert!(
            self.cancelled.is_empty(),
            "fast_forward with cancellations pending"
        );
        let shift_us = shift.as_micros();
        for (t, seq, payload) in &mut self.entries {
            *t += shift_us;
            *seq += seq_shift;
            fixup(payload);
        }
        self.next_seq += seq_shift;
    }

    /// Total buffer capacity (in entries/elements) retained by the entry
    /// vector and the cancellation set. Steady-state workloads keep this
    /// constant across repeated snapshot/restore cycles — the
    /// capacity-retention tests assert on it.
    pub fn retained_capacity(&self) -> usize {
        self.entries.capacity() + self.cancelled.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), "b")));
    }

    #[test]
    fn is_empty_reflects_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(!q.is_empty());
        q.cancel(a);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_remain_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(30), 3);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
    }

    #[test]
    fn same_instant_fifo_survives_wheel_cascades() {
        // Events at one far instant, behind a nearer marker: popping the
        // marker first must not disturb their insertion order.
        let mut q = EventQueue::new();
        let far = 3 * 4096 + 129;
        for i in 0..32 {
            q.schedule(t(far), i);
        }
        q.schedule(t(5), 999);
        assert_eq!(q.pop(), Some((t(5), 999)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_beyond_top_level_pop_in_order() {
        // Times many multiples of 2^24 µs apart still pop in time order.
        let mut q = EventQueue::new();
        let horizon = 1u64 << 24;
        q.schedule(t(40 * horizon + 7), "second-window");
        q.schedule(t(3 * horizon + 11), "first-window-b");
        q.schedule(t(3 * horizon + 2), "first-window-a");
        q.schedule(t(500), "near");
        assert_eq!(q.pop(), Some((t(500), "near")));
        assert_eq!(q.pop(), Some((t(3 * horizon + 2), "first-window-a")));
        assert_eq!(q.pop(), Some((t(3 * horizon + 11), "first-window-b")));
        assert_eq!(q.pop(), Some((t(40 * horizon + 7), "second-window")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_fifo_beyond_top_level() {
        let mut q = EventQueue::new();
        let far = (1u64 << 26) + 42;
        for i in 0..10 {
            q.schedule(t(far), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_and_rearm_pending_alarm() {
        // The kernel's alarm pattern: cancel the pending expiry, re-arm at a
        // different offset; only the re-armed event fires.
        let mut q = EventQueue::new();
        let stale = q.schedule(t(10_000), "stale");
        assert!(q.cancel(stale));
        let _fresh = q.schedule(t(4_000), "fresh");
        assert_eq!(q.peek_time(), Some(t(4_000)));
        assert_eq!(q.pop(), Some((t(4_000), "fresh")));
        assert_eq!(q.pop(), None);
        // Re-arm again after popping; the queue stays usable.
        q.schedule(t(20_000), "again");
        assert_eq!(q.pop(), Some((t(20_000), "again")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // Build a queue with near and far entries, one scheduled behind the
        // last popped time, plus a pending cancellation.
        let mut q = EventQueue::new();
        q.schedule(t(1_000), "first");
        q.schedule(t(50_000), "later");
        q.schedule(t(1 << 26), "overflow");
        let doomed = q.schedule(t(2_000), "doomed");
        assert_eq!(q.pop(), Some((t(1_000), "first")));
        q.schedule(t(900), "behind-cursor");
        q.cancel(doomed);

        let snap = q.snapshot();
        fn drain(q: &mut EventQueue<&'static str>) -> Vec<(u64, &'static str)> {
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_micros(), e))).collect()
        }
        let reference = drain(&mut q);
        q.restore_from(&snap);
        assert_eq!(drain(&mut q), reference);
        // Restored queues also continue identically after new activity.
        q.restore_from(&snap);
        let a = q.schedule(t(700), "new");
        assert_eq!(a.raw(), snap.next_seq);
        assert_eq!(q.pop(), Some((t(700), "new")));
        assert_eq!(drain(&mut q), reference);
    }

    #[test]
    fn restore_onto_a_dirtied_or_unrelated_queue_replays_identically() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..40u64 {
                q.schedule(t(1_000 + 64 * i), i);
            }
            q.schedule(t(1 << 26), 900);
            q
        };
        let mut q = build();
        let mut snap = EventQueueSnapshot::default();
        q.snapshot_into(&mut snap);

        // Dirty the queue, then restore.
        for _ in 0..3 {
            q.pop();
        }
        q.schedule(t(2_000), 901);
        q.restore_from(&snap);

        // The same snapshot restores onto a queue it was not taken from.
        let mut fresh = build();
        fresh.schedule(t(3_000), 902);
        fresh.restore_from(&snap);

        fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_micros(), e))).collect()
        }
        let via_origin = drain(&mut q);
        let via_other = drain(&mut fresh);
        assert_eq!(via_origin, via_other);
    }

    #[test]
    fn repeated_restore_retains_all_capacity() {
        let mut q = EventQueue::new();
        for i in 0..32u64 {
            q.schedule(t(500 + 10 * i), i);
        }
        // Far entries plus an entry behind the last popped time and a
        // cancelled one.
        q.schedule(t(1 << 26), 100);
        q.schedule(t(3 << 26), 101);
        let doomed = q.schedule(t(800), 102);
        q.cancel(doomed);
        q.pop();
        q.schedule(t(400), 103);
        let mut snap = EventQueueSnapshot::default();
        q.snapshot_into(&mut snap);

        // Once warm, repeated churn+restore cycles must not grow anything.
        let churn = |q: &mut EventQueue<u64>| {
            for _ in 0..8 {
                q.pop();
            }
            q.schedule(t(5 << 26), 200);
            q.schedule(t(100), 201);
            q.restore_from(&snap);
        };
        let signatures: Vec<usize> = (0..20)
            .map(|_| {
                churn(&mut q);
                q.retained_capacity()
            })
            .collect();
        let warm = *signatures.last().unwrap();
        assert!(
            signatures[10..].iter().all(|&s| s == warm),
            "restore kept growing retained buffers: {signatures:?}"
        );

        // Capturing into the same snapshot buffer again is also stable.
        let snap_cap: usize = snap.entries.capacity() + snap.cancelled.capacity();
        q.snapshot_into(&mut snap);
        let snap_cap_after: usize = snap.entries.capacity() + snap.cancelled.capacity();
        assert_eq!(snap_cap, snap_cap_after);
    }

    #[test]
    fn fast_forward_matches_rescheduled_queue() {
        // A queue fast-forwarded by `shift` must pop exactly like a queue
        // whose entries were scheduled `shift` later to begin with,
        // including far entries and same-instant FIFO ties.
        let shift = Duration::from_micros(40_000);
        let seqs = 3u64; // pretend 3 schedules happened during the span
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new();
        q.schedule(t(1_000), 0u64);
        reference.schedule(t(1_000), 0u64);
        assert_eq!(q.pop(), Some((t(1_000), 0)));
        assert_eq!(reference.pop(), Some((t(1_000), 0)));
        for (at, tag) in [(5_000u64, 1u64), (5_000, 2), (9_500, 3), (1 << 26, 4)] {
            q.schedule(t(at), tag);
            reference.schedule(t(at + shift.as_micros()), tag);
        }
        q.fast_forward(shift, seqs, |_| {});
        assert_eq!(q.peek_time(), reference.peek_time());
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expected: Vec<_> = std::iter::from_fn(|| reference.pop()).collect();
        assert_eq!(drained, expected);
        // New schedules continue from the shifted sequence space.
        assert_eq!(q.schedule(t(1 << 27), 9).raw(), 5 + seqs);
    }

    #[test]
    fn fast_forward_by_a_huge_shift_matches_rescheduled_queue() {
        // A shift of 2^30 µs (~17.9 simulated minutes) or more crosses many
        // 2^24 µs multiples; a uniform shift of the ordered entries has no
        // boundary to handle, so the queue must still pop exactly like one
        // whose entries were scheduled that much later.
        for shift_us in [1u64 << 30, (1 << 30) + 12_345, 5 << 32] {
            let shift = Duration::from_micros(shift_us);
            let seqs = 7u64;
            let mut q = EventQueue::new();
            let mut reference = EventQueue::new();
            q.schedule(t(2_000), 0u64);
            reference.schedule(t(2_000), 0u64);
            assert_eq!(q.pop(), Some((t(2_000), 0)));
            assert_eq!(reference.pop(), Some((t(2_000), 0)));
            let pending = [
                (3_000u64, 1u64),
                (3_000, 2),
                ((1 << 24) - 1, 3),
                (1 << 24, 4),
                ((1 << 24) + 500, 5),
                (3 << 26, 6),
            ];
            for (at, tag) in pending {
                q.schedule(t(at), tag);
                reference.schedule(t(at + shift_us), tag);
            }
            q.fast_forward(shift, seqs, |tag| *tag += 100);
            assert_eq!(q.len(), pending.len());
            assert_eq!(q.peek_time(), reference.peek_time());
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let expected: Vec<_> = std::iter::from_fn(|| reference.pop())
                .map(|(at, tag)| (at, tag + 100))
                .collect();
            assert_eq!(drained, expected);
            let next = 1 + pending.len() as u64 + seqs;
            assert_eq!(q.schedule(t(1 << 40), 9).raw(), next);
        }
    }

    #[test]
    fn schedule_behind_the_pop_front_stays_ordered() {
        // Events scheduled before the last popped time must still pop
        // ahead of later ones.
        let mut q = EventQueue::new();
        q.schedule(t(1_000), "first");
        q.schedule(t(50_000), "last");
        assert_eq!(q.pop(), Some((t(1_000), "first")));
        q.schedule(t(2_000), "mid");
        q.schedule(t(900), "behind-cursor");
        assert_eq!(q.pop(), Some((t(900), "behind-cursor")));
        assert_eq!(q.pop(), Some((t(2_000), "mid")));
        assert_eq!(q.pop(), Some((t(50_000), "last")));
    }
}
