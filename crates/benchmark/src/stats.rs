//! Percentile, median and spread conventions shared by the workloads, the
//! layer probes and `compare`.

/// Microseconds from `from` to `to` (zero when `to` is earlier).
pub fn micros(from: std::time::Instant, to: std::time::Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Sorts samples ascending (NaN-free by construction: every sample is a
/// measured duration or a count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Exact percentile of an ascending sample set by the nearest-rank rule:
/// the value at rank `⌈q·n⌉` (1-based), so `q = 0.5` of `[1, 2, 3, 4]` is
/// 2 and `q = 1.0` is the maximum. The same convention as the `rtm-trace`
/// histograms, without their bucket rounding. `0.0` for an empty set.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an ascending set: the middle value, or the mean of the two
/// middle values for an even count (Python's `statistics.median`).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile of an ascending set, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
/// `None` below two samples, where quartiles are undefined.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median. `0.0` when there are fewer than two samples or
/// the median is zero.
pub fn spread(sorted: &[f64]) -> f64 {
    let med = median(sorted);
    match quartiles(sorted) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Length of the consecutive blocks a window's latency samples are cut
/// into, in seconds of window.
///
/// The shared host this runs on is disturbed from outside (`/proc/stat`
/// shows ~1 % steal, yet the same code reads 1.3–1.8x slower for milliseconds
/// to minutes at a time: neighbours on the cache and the memory bus), so a
/// whole-window statistic, a median included, lands wherever the mix of
/// states happened to fall. The disturbance only ever adds time. A timing
/// metric is therefore computed per short block and the reported value is
/// the [`quiet`] one: the block at the [`QUIET_SHARE`] quantile from the
/// better end, i.e. the program on the undisturbed host, which is the number
/// that repeats. The shorter the block, the more often one falls wholly
/// between two disturbances.
pub const LATENCY_BLOCK_S: f64 = 0.02;

/// Length of the blocks a rate is computed over, in seconds of window.
/// Longer than [`LATENCY_BLOCK_S`]: replies arrive in bursts of one batched
/// step, and a block has to hold several for its rate to mean anything.
pub const RATE_BLOCK_S: f64 = 0.05;

/// The quantile, counted from the better end, at which [`quiet`] reads the
/// per-block values.
pub const QUIET_SHARE: f64 = 0.02;

/// How many of `count` consecutive items make a block of `block_s` seconds
/// when the items span `window_s` seconds (at least one).
pub fn per_block(count: usize, window_s: f64, block_s: f64) -> usize {
    if window_s <= 0.0 {
        return 1;
    }
    ((count as f64 * block_s / window_s).round() as usize).max(1)
}

/// The nearest-rank median of each consecutive block of `per` samples (in
/// arrival order; a trailing partial block is dropped).
pub fn block_medians(samples: &[f64], per: usize) -> Vec<f64> {
    samples
        .chunks_exact(per.max(1))
        .map(|block| percentile(&sorted(block.to_vec()), 0.5))
        .collect()
}

/// Events per second in each consecutive block of `per` intervals of
/// `marks` — `(seconds, events so far)` pairs in time order: the events of
/// the block divided by the time it took. Empty with fewer than two marks.
pub fn block_rates(marks: &[(f64, f64)], per: usize) -> Vec<f64> {
    let per = per.max(1);
    (0..marks.len().saturating_sub(1) / per)
        .map(|k| {
            let (a, b) = (marks[k * per], marks[(k + 1) * per]);
            (b.1 - a.1) / (b.0 - a.0).max(1e-9)
        })
        .collect()
}

/// The per-block value of the undisturbed host: the nearest-rank
/// [`QUIET_SHARE`] quantile counted from the better end — from the smallest
/// when `lower` is better, from the largest otherwise. With fewer than fifty
/// blocks that is the best one; `0.0` when there are none.
pub fn quiet(values: &[f64], lower: bool) -> f64 {
    let mut v = sorted(values.to_vec());
    if !lower {
        v.reverse();
    }
    percentile(&v, QUIET_SHARE)
}

/// Mean of a sample set (`0.0` when empty).
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
    fn percentile_uses_the_nearest_rank_convention() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 2.0, "rank ceil(0.5*4) = 2");
        assert_eq!(percentile(&s, 0.51), 3.0);
        assert_eq!(percentile(&s, 0.75), 3.0);
        assert_eq!(percentile(&s, 0.99), 4.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to 1");
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 100 samples: p99 is the 99th value, leaving one sample beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.90), 90.0);
    }

    #[test]
    fn blocked_statistics_report_the_undisturbed_state() {
        // 1000 samples of 100, but nine tenths of the run ran 1.4x slow.
        let mut lat = vec![140.0; 1000];
        lat[500..600].fill(100.0);
        let per = per_block(lat.len(), 10.0, 0.1);
        assert_eq!(per, 10);
        let blocks = block_medians(&lat, per);
        assert_eq!(blocks.len(), 100);
        assert_eq!(quiet(&blocks, true), 100.0);
        // One fluke block in a hundred does not set the result; two do.
        let mut hundred = vec![9.0; 100];
        hundred[40] = 1.0;
        assert_eq!(quiet(&hundred, true), 9.0);
        hundred[70] = 1.5;
        assert_eq!(quiet(&hundred, true), 1.5);
        // Counted from the better end either way.
        hundred[10] = 20.0;
        hundred[11] = 19.0;
        assert_eq!(quiet(&hundred, false), 19.0);
        assert_eq!(quiet(&[3.0, 2.0], true), 2.0, "too few to skip one");
        assert_eq!(quiet(&[3.0, 2.0], false), 3.0);
        assert_eq!(quiet(&[], true), 0.0);
        assert_eq!(block_medians(&[3.0, 1.0, 2.0], 1), [3.0, 1.0, 2.0]);
        assert_eq!(
            block_medians(&[3.0, 1.0, 2.0], 2),
            [1.0],
            "partial tail dropped"
        );
        assert!(block_medians(&[], 4).is_empty());
        assert_eq!(per_block(3, 10.0, 0.02), 1, "never an empty block");
        assert_eq!(per_block(100, 0.0, 0.02), 1);

        // 1000 events/s, except one second in which nothing moved.
        let mut marks = Vec::new();
        let mut t = 0.0;
        for k in 0..=100 {
            if k == 40 {
                t += 1.0;
            }
            marks.push((t, 10.0 * f64::from(k)));
            t += 0.01;
        }
        let rates = block_rates(&marks, 5);
        assert_eq!(rates.len(), 20);
        assert!((quiet(&rates, false) - 1000.0).abs() < 1e-6);
        assert!(rates.iter().any(|&r| r < 100.0), "the stalled block shows");
        assert!(block_rates(&marks[..1], 1).is_empty());
        assert_eq!(block_rates(&marks[..3], 1).len(), 2);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), 5.5);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 5.5)));
        assert_eq!(quartiles(&[3.0]), None);
        assert_eq!(spread(&[3.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
    }
}
