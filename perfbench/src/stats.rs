//! Order statistics over timing samples.

/// The quartiles of `samples` by the "exclusive" method of Python's
/// `statistics.quantiles(samples, n=4)`, so the figures printed here match
/// the ones computed over run results.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return [data[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// The highest whole percentile of `samples` that still has at least ten
/// samples above it, with that percentile's value; `None` below eleven
/// samples.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 11 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    // Nearest-rank: the value at or below which p % of the samples lie.
    let rank = ((p as usize * n).div_ceil(100)).max(1);
    Some((p, data[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_above() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, value) = tail_percentile(&samples).expect("enough samples");
        assert_eq!(p, 75);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert!(tail_percentile(&samples[..10]).is_none());
    }
}
