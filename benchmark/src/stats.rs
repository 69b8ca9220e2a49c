//! Order statistics for the benchmark's samples.
//!
//! Percentiles use the nearest-rank rule on the sorted sample. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; [`tail`] picks the highest percentile of [`TAIL_LADDER`]
//! that meets that rule, so a short run reports a lower percentile rather
//! than a maximum in disguise.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of an ascending sample.
///
/// # Panics
///
/// On an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// Sorts a sample ascending (samples are finite times and ratios).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// A latency-style summary: median plus the highest supported tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (from [`TAIL_LADDER`]).
    pub tail_pct: f64,
    /// Its value.
    pub tail: f64,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, with its value. `None` when even the
/// median has fewer than that many samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find(|&&p| beyond(p, sorted.len()) >= MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Summarises a sample; a sample too small for any ladder percentile
/// reports its median as the tail (`tail_pct` 50).
///
/// # Panics
///
/// On an empty sample.
pub fn summarize(v: Vec<f64>) -> Summary {
    let s = sorted(v);
    let p50 = percentile(&s, 50.0);
    let (tail_pct, tail) = tail(&s).unwrap_or((50.0, p50));
    Summary {
        n: s.len(),
        p50,
        tail_pct,
        tail,
    }
}

/// Least samples in a latency block: enough for a p99 with
/// [`MIN_BEYOND`] samples beyond it.
pub const BLOCK_MIN: usize = 1000;

/// Summarises a sample kept in time order block by block. The sample is
/// cut into an odd number of consecutive blocks of at least
/// [`BLOCK_MIN`] samples each, at most `max_blocks`; the median and the
/// tail are the medians of the blocks' figures, so a burst of host noise
/// moves one block rather than the run's figure. A sample too short for
/// three blocks is summarised whole.
///
/// # Panics
///
/// On an empty sample.
pub fn block_summary(in_order: &[f64], max_blocks: usize) -> Summary {
    let n = in_order.len();
    let mut blocks = (n / BLOCK_MIN).clamp(1, max_blocks.max(1));
    if blocks.is_multiple_of(2) {
        blocks -= 1;
    }
    let parts: Vec<Summary> = (0..blocks)
        .map(|i| summarize(in_order[i * n / blocks..(i + 1) * n / blocks].to_vec()))
        .collect();
    if blocks == 1 {
        return parts[0];
    }
    let of = |f: fn(&Summary) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    Summary {
        n,
        p50: of(|s| s.p50),
        tail_pct: parts
            .iter()
            .map(|s| s.tail_pct)
            .fold(f64::INFINITY, f64::min),
        tail: of(|s| s.tail),
    }
}

/// The median rate over a window of `window_s` seconds, taken in
/// stretches of about a second. The events, `(seconds since the window
/// opened, weight)` in time order, are cut into `window_s` runs of equal
/// count; a run's rate is its summed weight over the time from the
/// previous run's last event to its own. Events at or past the window's
/// end are left out. A stall then slows one run rather than the figure.
pub fn median_rate<I>(events: I, window_s: u64) -> f64
where
    I: IntoIterator<Item = (f64, f64)>,
    I::IntoIter: Clone,
{
    let end = window_s as f64;
    let inside = events.into_iter().filter(move |&(t, _)| t < end);
    let n = inside.clone().count();
    if n == 0 {
        return 0.0;
    }
    let runs = (window_s as usize).clamp(1, n);
    let mut rates = Vec::with_capacity(runs);
    let (mut weight, mut from) = (0.0, 0.0);
    for (i, (t, w)) in inside.enumerate() {
        weight += w;
        if i + 1 == (rates.len() + 1) * n / runs {
            rates.push(weight / (t - from).max(1e-9));
            (weight, from) = (0.0, t);
        }
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it: supported.
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // One sample short: p99 would have 9 beyond, so p90 is reported.
        assert_eq!(beyond(99.0, 999), 9);
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        // p90 needs 100 samples; below that the median is the tail.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(99)), Some((50.0, 50.0)));
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // Nineteen samples: not even the median has ten beyond it.
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let s = summarize(ramp(2000).into_iter().rev().collect());
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!((s.tail_pct, s.tail), (99.0, 1980.0));
        let small = summarize(vec![5.0, 1.0, 3.0]);
        assert_eq!((small.tail_pct, small.tail), (50.0, 3.0));
    }

    #[test]
    fn block_summary_takes_the_median_block() {
        // Five blocks of 1000; the middle one is slowed tenfold and the
        // last one a hundredfold: the run reads as the typical block.
        let mut v = Vec::new();
        for scale in [1.0, 1.0, 10.0, 1.0, 100.0] {
            v.extend(ramp(1000).into_iter().map(|x| x * scale));
        }
        let s = block_summary(&v, 15);
        assert_eq!(s.n, 5000);
        assert_eq!((s.p50, s.tail_pct, s.tail), (500.0, 99.0, 990.0));
        // Capped at three blocks of 1666 or 1667: the middle block's
        // median is the median one.
        let s = block_summary(&v, 3);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.p50, summarize(v[1666..3333].to_vec()).p50);
        // Two blocks' worth is summarised whole, as is a short sample.
        assert_eq!(block_summary(&ramp(2999), 15), summarize(ramp(2999)));
        assert_eq!(block_summary(&ramp(20), 15), summarize(ramp(20)));
    }

    #[test]
    fn median_rate_reads_the_typical_run() {
        // Three runs of ten events: 10/s, then a stalled 6.7/s, then a
        // burst at 25/s; the event past the window is left out.
        let mut events: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64 * 0.1, 1.0)).collect();
        events.extend((1..=10).map(|i| (1.0 + i as f64 * 0.15, 1.0)));
        events.extend((1..=10).map(|i| (2.5 + i as f64 * 0.04, 1.0)));
        events.push((3.2, 1.0));
        assert!((median_rate(events, 3) - 10.0).abs() < 1e-9);
        assert!((median_rate([(0.5, 3.0)], 1) - 6.0).abs() < 1e-9);
        assert_eq!(median_rate(std::iter::empty(), 3), 0.0);
    }
}
