//! Order statistics.

/// The `q`-quantile (`0 ..= 1`) of `values` by nearest rank; 0 for an
/// empty slice. Sorts in place.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of floating-point values; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of `values` (a quarter trimmed from each end,
/// at least one value kept); 0 for an empty slice.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let cut = |i: f64| {
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1.0), cut(2.0), cut(3.0)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_from_each_end() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[2.0]), 2.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
