//! The arithmetic the benchmark reports with: order statistics, the
//! geometric mean, and span coverage (self time and the unattributed
//! remainder of a job). Pure functions, so the unit tests below pin them.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two nearest ranks. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest of `values`; `NaN` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// Geometric mean of positive values; `NaN` if any value is not positive
/// or the slice is empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Nanoseconds of `[start, end)` covered by the union of `children`, each
/// clipped to the parent interval first (overlapping children count once).
pub fn covered_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = p0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part its child spans cover.
/// Applied to a job span with its layer-call spans as children, this is
/// the job's unattributed remainder.
pub fn self_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    parent.1.saturating_sub(parent.0) - covered_ns(parent, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn max_ignores_order() {
        assert_eq!(max(&[2.0, 9.0, 4.0]), 9.0);
        assert!(max(&[]).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[10.0, 10.0, 10.0]) - 10.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        // Two overlapping children [10,30) ∪ [20,40) cover 30 ns; a child
        // sticking out of the parent counts only inside it.
        assert_eq!(covered_ns((0, 100), &[(10, 30), (20, 40)]), 30);
        assert_eq!(covered_ns((0, 100), &[(90, 150)]), 10);
        assert_eq!(covered_ns((0, 100), &[(120, 150)]), 0);
        assert_eq!(covered_ns((0, 100), &[(0, 100), (10, 20)]), 100);
        assert_eq!(covered_ns((50, 60), &[]), 0);
    }

    #[test]
    fn self_time_is_the_uncovered_remainder() {
        assert_eq!(self_ns((0, 100), &[(10, 30), (50, 70)]), 60);
        assert_eq!(self_ns((0, 100), &[(10, 30), (20, 40), (35, 45)]), 65);
        assert_eq!(self_ns((0, 100), &[(0, 100)]), 0);
        assert_eq!(self_ns((5, 5), &[]), 0);
    }
}
