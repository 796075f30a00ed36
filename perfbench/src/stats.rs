//! Small order statistics over `f64` samples.

/// Nearest-rank quantile `q ∈ [0, 1]` of `samples` (sorted copy);
/// `0.0` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail quantile a `serve_p99_ms` figure reports for `n` samples:
/// 0.99, or, when fewer than ten samples would lie beyond it, the
/// highest quantile with at least ten beyond it (never below the
/// median). A p99 of a few dozen samples is their maximum, which one
/// slow moment of the host decides.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 3.0);
        assert_eq!(tail_q(5000), 0.99);
        assert!((tail_q(50) - 0.8).abs() < 1e-12);
        assert_eq!(tail_q(8), 0.5);
    }
}
