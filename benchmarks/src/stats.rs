//! Order statistics for small sample sets.

/// Median of `values` (mean of the middle two when even). `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread computed here equals the one the acceptance check computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // May exceed 4 after clamping `j`: the exclusive method then
        // extrapolates beyond the extreme pair, as Python's does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The value a `fraction` of the way up the sorted `values`, interpolated
/// linearly between neighbours (Python's "inclusive" method): 0.0 is the
/// minimum, 0.5 the median, 1.0 the maximum. Never leaves the range of
/// the data, however few values there are. `None` if empty.
pub fn quantile(values: &[f64], fraction: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = fraction.clamp(0.0, 1.0) * last as f64;
    let below = pos.floor() as usize;
    let above = (below + 1).min(last);
    Some(v[below] + (v[above] - v[below]) * (pos - below as f64))
}

/// Smallest and largest value. `None` if empty.
pub fn range(values: &[f64]) -> Option<(f64, f64)> {
    values.iter().fold(None, |acc, &v| match acc {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quantile_interpolates_inside_the_data() {
        // statistics.quantiles([1, 2, 4, 8, 16], n=4, method='inclusive') == [2.0, 4.0, 8.0]
        let v = [16.0, 1.0, 8.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 0.5), Some(4.0));
        assert_eq!(quantile(&v, 0.75), Some(8.0));
        assert_eq!(quantile(&[10.0, 20.0], 0.25), Some(12.5));
        assert_eq!(quantile(&[7.0], 0.25), Some(7.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(16.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn range_is_min_and_max() {
        assert_eq!(range(&[2.0, -1.0, 5.0]), Some((-1.0, 5.0)));
        assert_eq!(range(&[]), None);
    }
}
