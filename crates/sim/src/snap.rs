//! Delta-snapshot lineage primitives shared by every checkpointable layer.
//!
//! The campaign engine forks thousands of trials off a common golden
//! prefix; a naive checkpoint copies the whole component state both ways.
//! Every snapshot-capable component in the stack instead follows one
//! epoch/lineage protocol built from the two pieces in this module:
//!
//! * each component keeps a monotone **epoch** (its current write stamp)
//!   and stamps every mutable *region* (a timer-wheel bucket, a TCB, an
//!   SoA column, a DTC record) with the epoch of its last write;
//! * `snapshot_into` copies content *and* stamps into a capacity-retained
//!   buffer, tags the buffer with a process-unique id from
//!   [`next_snapshot_id`], records that id as the component's
//!   `derived_from` lineage, and bumps the epoch so later writes stamp
//!   strictly newer;
//! * `restore_from` checks lineage: when the live component is still
//!   derived from exactly this snapshot, any region whose live stamp is
//!   `<=` the snapshot's epoch provably never changed since capture and
//!   is skipped — restore cost is O(dirty regions), not O(state). A
//!   lineage mismatch (different snapshot, a `reset()` in between, a
//!   shape change) falls back to a full copy.
//!
//! Resets must stamp all regions with the *current* epoch and clear
//! `derived_from` — never zero the stamps, or a snapshot→reset→restore
//! sequence would silently skip dirty regions.
//!
//! [`RestoreStats`] is how components report what a restore actually
//! copied; the campaign bench aggregates it into the
//! `restore_dirty_fraction` probe.
//!
//! The module also holds the closed-form advance primitives the
//! hyperperiod macro-stepping engine shares across layers: sparse counter
//! advances ([`derive_counter_advance`]) and repeating log tails
//! ([`tail_repeats`], [`replay_tail`]).

use core::sync::atomic::{AtomicU64, Ordering};

/// Returns a process-unique snapshot id (never 0, so `derived_from == 0`
/// always means "no lineage").
pub fn next_snapshot_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Region-level accounting of one `restore_from` call.
///
/// A *region* is the component-defined unit of dirty tracking; "copied"
/// counts regions whose content was written back, "total" counts all
/// regions examined (always-copied scalars count as copied — the ratio is
/// honest about what the restore really moved).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Regions examined by the restore.
    pub regions_total: u64,
    /// Regions whose content was actually copied back.
    pub regions_copied: u64,
}

impl RestoreStats {
    /// Records one region; `copied` says whether its content was written.
    #[inline]
    pub fn region(&mut self, copied: bool) {
        self.regions_total += 1;
        self.regions_copied += u64::from(copied);
    }

    /// Records `n` regions that were all copied (or all skipped).
    #[inline]
    pub fn regions(&mut self, n: u64, copied: bool) {
        self.regions_total += n;
        if copied {
            self.regions_copied += n;
        }
    }

    /// Folds another component's stats into this one.
    #[inline]
    pub fn absorb(&mut self, other: RestoreStats) {
        self.regions_total += other.regions_total;
        self.regions_copied += other.regions_copied;
    }

    /// Copied-to-total ratio; `0.0` when nothing was examined.
    pub fn dirty_fraction(&self) -> f64 {
        if self.regions_total == 0 {
            0.0
        } else {
            self.regions_copied as f64 / self.regions_total as f64
        }
    }
}

/// Derives the sparse per-hyperperiod advance of a counter column between
/// two images one hyperperiod apart: `(index, b[i] - a[i])` for every
/// counter that moved. Returns `false` when the columns differ in length
/// or any counter went down — only a monotone, uniformly advancing
/// counter has a closed form. Two identical columns derive an empty
/// advance, so a zero advance compares equal to `Vec::new()`.
pub fn derive_counter_advance(a: &[u32], b: &[u32], out: &mut Vec<(u32, u32)>) -> bool {
    out.clear();
    if a.len() != b.len() {
        return false;
    }
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        match y.checked_sub(x) {
            None => return false,
            Some(0) => {}
            Some(step) => out.push((i as u32, step)),
        }
    }
    true
}

/// Applies a derived counter advance `k` times in closed form.
pub fn apply_counter_advance(column: &mut [u32], advance: &[(u32, u32)], k: u64) {
    for &(i, step) in advance {
        column[i as usize] += u32::try_from(step as u64 * k).expect("counter advance fits u32");
    }
}

/// Whether the last `2 * n` entries of an append-only log are one block
/// of `n` records repeated once under `shift` (the later block equals the
/// earlier one with every timestamp moved by one hyperperiod). This is
/// how a steady state that keeps logging is certified: the closed form
/// replays the block, so both certification hyperperiods must have
/// appended the same records.
pub fn tail_repeats<T: Copy + PartialEq>(log: &[T], n: usize, shift: impl Fn(T) -> T) -> bool {
    if n == 0 {
        return true;
    }
    let Some(start) = log.len().checked_sub(2 * n) else {
        return false;
    };
    let (earlier, later) = log[start..].split_at(n);
    earlier.iter().zip(later).all(|(&x, &y)| shift(x) == y)
}

/// Appends `k` further copies of a log's last `n` records, the `j`-th
/// copy shifted by `j` hyperperiods (`shift(record, j)`): the closed-form
/// replay of [`tail_repeats`]' certified block.
pub fn replay_tail<T: Copy>(log: &mut Vec<T>, n: usize, k: u64, shift: impl Fn(T, u64) -> T) {
    if n == 0 || k == 0 {
        return;
    }
    let start = log.len() - n;
    log.reserve(n * k as usize);
    for j in 1..=k {
        for i in start..start + n {
            let record = shift(log[i], j);
            log.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_advance_is_sparse_monotone_and_reapplies() {
        let mut out = vec![(9, 9)];
        assert!(derive_counter_advance(&[1, 5, 0], &[1, 7, 3], &mut out));
        assert_eq!(out, vec![(1, 2), (2, 3)]);
        assert!(derive_counter_advance(&[4, 4], &[4, 4], &mut out));
        assert!(out.is_empty(), "no motion derives the empty advance");
        assert!(
            !derive_counter_advance(&[2], &[1], &mut out),
            "counters never go down"
        );
        assert!(!derive_counter_advance(&[2], &[2, 0], &mut out));
        let mut column = [1, 7, 3];
        apply_counter_advance(&mut column, &[(1, 2), (2, 3)], 4);
        assert_eq!(column, [1, 15, 15]);
    }

    #[test]
    fn log_tails_repeat_and_replay_under_a_shift() {
        let mut log = vec![1u64, 10, 12, 20, 22];
        assert!(tail_repeats(&log, 2, |x| x + 10));
        assert!(!tail_repeats(&log, 2, |x| x + 9));
        assert!(
            !tail_repeats(&log, 3, |x| x + 10),
            "too short for two blocks"
        );
        assert!(tail_repeats(&log, 0, |x| x));
        replay_tail(&mut log, 2, 2, |x, j| x + 10 * j);
        assert_eq!(log, vec![1, 10, 12, 20, 22, 30, 32, 40, 42]);
    }

    #[test]
    fn snapshot_ids_are_unique_and_nonzero() {
        let a = next_snapshot_id();
        let b = next_snapshot_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn restore_stats_accumulate_and_report_dirty_fraction() {
        let mut stats = RestoreStats::default();
        stats.region(true);
        stats.region(false);
        stats.regions(2, false);
        let mut sub = RestoreStats::default();
        sub.regions(4, true);
        stats.absorb(sub);
        assert_eq!(stats.regions_total, 8);
        assert_eq!(stats.regions_copied, 5);
        assert!((stats.dirty_fraction() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(RestoreStats::default().dirty_fraction(), 0.0);
    }
}
