//! Closed-form advance primitives the hyperperiod macro-stepping engine
//! shares across layers: sparse counter advances
//! ([`derive_counter_advance`], [`apply_counter_advance`]) and the
//! replay of a certified hyperperiod's log records ([`replay_tail`]).
//!
//! Checkpointing itself needs no shared machinery: every snapshot-capable
//! component captures with a side-effect-free `snapshot_into(&self, ..)`
//! into a capacity-retained buffer and restores with a plain
//! `clone_from` copy, so a warm restore allocates nothing.

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

/// Appends `k` further copies of a log's last `n` records, the `j`-th
/// copy shifted by `j` hyperperiods (`shift(record, j)`): the closed-form
/// replay of the records one certified hyperperiod appended. A steady
/// state that keeps logging appends the same records every hyperperiod,
/// one hyperperiod later each time, because nothing on the dynamics path
/// reads a log.
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
    fn log_tails_replay_under_a_shift() {
        let mut log = vec![1u64, 10, 12, 20, 22];
        replay_tail(&mut log, 0, 3, |x, j| x + 10 * j);
        replay_tail(&mut log, 2, 0, |x, j| x + 10 * j);
        assert_eq!(log, vec![1, 10, 12, 20, 22], "nothing to replay");
        replay_tail(&mut log, 2, 2, |x, j| x + 10 * j);
        assert_eq!(log, vec![1, 10, 12, 20, 22, 30, 32, 40, 42]);
    }
}
