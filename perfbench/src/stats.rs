//! Order statistics of a run's samples: the median, and quartiles computed
//! exactly as Python's `statistics.quantiles(values, n=4)` (its default
//! "exclusive" method), so the spreads printed here match the ones
//! computed over the benchmark's output.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count.
///
/// # Panics
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, as `statistics.quantiles(xs, n=4)` gives
/// them (interpolating between order statistics at positions `i(n+1)/4`).
///
/// # Panics
/// Panics if `xs` holds fewer than two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let len = s.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// One line for stderr: median, quartiles and sample count.
pub fn describe(xs: &[f64]) -> String {
    if xs.len() < 2 {
        return format!("{:.6} (n={})", median(xs), xs.len());
    }
    let (q1, q3) = quartiles(xs);
    format!(
        "median {:.6} (q1 {q1:.6}, q3 {q3:.6}, n={})",
        median(xs),
        xs.len()
    )
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // Two values extrapolate: statistics.quantiles([1, 2], n=4)
        // == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn describe_names_the_sample_count() {
        assert!(describe(&[1.0, 2.0, 3.0]).ends_with("n=3)"));
        assert!(describe(&[1.0]).ends_with("(n=1)"));
    }
}
