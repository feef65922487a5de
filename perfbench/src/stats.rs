//! The percentile helper every timing goes through.

/// A median and one named tail of a sample, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub n: usize,
}

/// Nearest-rank percentile of sorted samples: the smallest value with at least
/// `q` of the sample at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> (usize, f64) {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (rank, sorted[rank - 1])
}

/// Median and the `tail` quantile (e.g. 0.99) of `samples`.
///
/// Errors when the sample is empty or fewer than ten samples lie beyond the
/// tail's rank: a p99 needs at least 1000 samples, a p90 at least 100.
pub fn summarize(samples: &[f64], tail: f64) -> Result<Summary, String> {
    if samples.is_empty() {
        return Err("no samples".to_string());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (rank, tail_value) = nearest_rank(&sorted, tail);
    let beyond = sorted.len() - rank;
    if beyond < 10 {
        return Err(format!(
            "p{} of {} samples has only {beyond} samples beyond it (needs 10)",
            tail * 100.0,
            sorted.len()
        ));
    }
    Ok(Summary {
        p50: nearest_rank(&sorted, 0.5).1,
        tail: tail_value,
        n: sorted.len(),
    })
}

/// [`summarize`] per whole second, then the median across seconds of each
/// second's median and tail. `samples` are `(seconds since the window
/// opened, value)`. Seconds too thin for the tail are left out; at least one
/// must qualify. A burst of outside interference then moves a few seconds,
/// not the result. `n` is the number of samples in qualifying seconds.
pub fn per_second(samples: &[(f64, f64)], tail: f64) -> Result<Summary, String> {
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let second = t.max(0.0) as usize;
        if buckets.len() <= second {
            buckets.resize_with(second + 1, Vec::new);
        }
        buckets[second].push(v);
    }
    let per: Vec<Summary> = buckets
        .iter()
        .filter_map(|b| summarize(b, tail).ok())
        .collect();
    if per.is_empty() {
        return Err(format!(
            "no second holds enough samples for p{}",
            tail * 100.0
        ));
    }
    let p50s: Vec<f64> = per.iter().map(|s| s.p50).collect();
    let tails: Vec<f64> = per.iter().map(|s| s.tail).collect();
    Ok(Summary {
        p50: median(&p50s),
        tail: median(&tails),
        n: per.iter().map(|s| s.n).sum(),
    })
}

/// Median of a non-empty sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_use_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples, 0.99).unwrap();
        assert_eq!((s.p50, s.tail, s.n), (500.0, 990.0, 1000));
        let s = summarize(&samples, 0.9).unwrap();
        assert_eq!(s.tail, 900.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn per_second_takes_the_median_second() {
        // Three seconds of 100 samples; the middle one is slow.
        let mut samples = Vec::new();
        for (second, scale) in [(0, 1.0), (1, 10.0), (2, 1.0)] {
            for i in 1..=100 {
                samples.push((second as f64 + i as f64 / 101.0, scale * f64::from(i)));
            }
        }
        // A thin fourth second is left out.
        samples.push((3.5, 1e9));
        let s = per_second(&samples, 0.9).unwrap();
        assert_eq!((s.p50, s.tail, s.n), (50.0, 90.0, 300));
        assert!(per_second(&samples[..50], 0.9).is_err());
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(summarize(&samples, 0.99).is_err());
        assert!(summarize(&samples[..100], 0.9).is_ok());
        assert!(summarize(&samples[..99], 0.9).is_err());
        assert!(summarize(&[], 0.5).is_err());
    }
}
