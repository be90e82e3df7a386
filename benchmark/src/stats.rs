//! Order statistics for the reported timings and rates.
//!
//! The host this runs on has two speeds: for a few hundred milliseconds to
//! a few seconds at a time a neighbour takes part of the cores, and
//! everything — user code, system calls, fsyncs — runs a third to a half
//! slower. How much of a run such episodes cover changes from run to run,
//! so a statistic pooled over the run slides with it, and a median over
//! the run flips between the two speeds when the share is near a half.
//!
//! Every gated number is therefore taken in two steps. The samples, in the
//! order they were measured, are cut into short consecutive *chunks* (or
//! the window into short *slices*); each chunk's median, or each slice's
//! completion rate, describes the program over that stretch of the run.
//! The reported value is the *quiet quartile* of those: the lower quartile
//! of the chunk medians for a timing, the upper quartile of the slice
//! rates for a throughput — what the program does when the host leaves it
//! alone, which is the part a change to the program moves. It holds still
//! until the slow episodes cover three quarters of a run.
//!
//! Tail percentiles are not gated (see the README): they are reported from
//! the traced run, pooled over the window, as the highest percentile that
//! still has at least ten samples beyond it.

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles tried, highest first, each with the one-in-how-
/// many it leaves beyond itself (exact in integers, unlike `1.0 - q`).
const TAILS: [(f64, usize); 2] = [(0.99, 100), (0.90, 10)];

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Nearest-rank quantile of an ascending sample; 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even); 0 for an empty one.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Lower quartile of an unsorted sample: the quiet side of a set of
/// timings.
pub fn lower_quartile(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.25)
}

/// Upper quartile of an unsorted sample: the quiet side of a set of rates.
pub fn upper_quartile(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.75)
}

/// The highest percentile a sample of `n` supports: 0.99 needs 1000
/// samples, 0.90 needs 100, anything smaller only has its median.
pub fn tail_quantile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|(_, one_in)| n / one_in >= MIN_BEYOND)
        .map_or(0.5, |(q, _)| q)
}

/// Most samples in a chunk.
const MAX_CHUNK: usize = 100;

/// Fewest samples in a chunk: a median of three still drops one outlier.
const MIN_CHUNK: usize = 3;

/// Chunks a sample is cut into when it is too short for [`MAX_CHUNK`].
const CHUNKS: usize = 8;

/// The p50 of a timing sample given in the order it was measured: the
/// lower quartile of the medians of its consecutive chunks. A chunk is
/// [`MAX_CHUNK`] samples, or an eighth of the sample when that is less,
/// and never under [`MIN_CHUNK`]; a sample too short for one chunk gives
/// its plain median.
pub fn quiet_p50(v: &[f64]) -> f64 {
    let chunk = (v.len() / CHUNKS).clamp(MIN_CHUNK, MAX_CHUNK);
    let medians: Vec<f64> = v.chunks_exact(chunk).map(median).collect();
    if medians.is_empty() {
        median(v)
    } else {
        lower_quartile(&medians)
    }
}

/// The tail of a timing sample, pooled over the whole of it: the value at
/// the highest percentile with [`MIN_BEYOND`] samples beyond it.
pub fn tail(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), tail_quantile(v.len()))
}

/// Slice length for completion rates, seconds: short against the host's
/// slow episodes, long against one operation.
pub const RATE_SLICE_S: f64 = 0.25;

/// Completion rate of each whole [`RATE_SLICE_S`] slice of a window:
/// `stamps` are completion times in seconds from the window start. A
/// slice's rate is measured between its first and last completion, so it
/// is not quantized to whole completions per slice.
pub fn slice_rates(stamps: &[f64], window: f64) -> Vec<f64> {
    let slice = RATE_SLICE_S;
    let slices = (window / slice).floor() as usize;
    // (count, first, last) per slice.
    let mut per_slice = vec![(0usize, f64::MAX, f64::MIN); slices];
    for &t in stamps {
        let i = (t / slice) as usize;
        if i < slices {
            let s = &mut per_slice[i];
            *s = (s.0 + 1, s.1.min(t), s.2.max(t));
        }
    }
    per_slice
        .into_iter()
        .map(|(n, first, last)| {
            if n >= 2 && last > first {
                (n - 1) as f64 / (last - first)
            } else {
                n as f64 / slice
            }
        })
        .collect()
}

/// Completion rate over a window: the upper quartile of its slice rates.
/// With fewer than four whole slices the plain rate over `window` is
/// returned.
pub fn quiet_rate(stamps: &[f64], window: f64) -> f64 {
    let rates = slice_rates(stamps, window);
    if rates.len() < 4 {
        return stamps.len() as f64 / window.max(f64::EPSILON);
    }
    upper_quartile(&rates)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the builder contract checks.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.len() < 2 {
        return 0.0;
    }
    // Python's statistics.quantiles(v, n=4) ("exclusive" method).
    let pick = |k: f64| -> f64 {
        let pos = k * (s.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    (pick(3.0) - pick(1.0)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(999), 0.90);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(250_000), 0.99);
    }

    #[test]
    fn tail_is_the_pooled_percentile() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&v), 990.0);
        assert_eq!(tail(&v[..999]), 900.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(tail(&[]), 0.0);
    }

    #[test]
    fn quiet_p50_shrugs_off_slow_episodes_covering_most_of_a_run() {
        // 5000 samples at 1.0 with one spike per 100, and two episodes at
        // 1.5 that together cover 60% of the run: the plain median sits
        // in the episodes, the quiet p50 does not.
        let v: Vec<f64> = (0..5000)
            .map(|i| match i {
                _ if i % 100 == 7 => 50.0,
                500..=1999 | 3000..=4499 => 1.5,
                _ => 1.0,
            })
            .collect();
        assert_eq!(median(&v), 1.5);
        assert_eq!(quiet_p50(&v), 1.0);
    }

    #[test]
    fn quiet_p50_chunks_short_samples_by_eighths() {
        // 80 samples: chunks of 10, eight medians 1..=8, lower quartile
        // at nearest rank 2 of 0..=7.
        let v: Vec<f64> = (0..80).map(|i| f64::from(i / 10 + 1)).collect();
        assert_eq!(quiet_p50(&v), 3.0);
        // 9 samples: three chunks of three, medians 2, 5, 8.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quiet_p50(&v), 5.0);
        // Too short for a chunk: the plain median; empty: 0.
        assert_eq!(quiet_p50(&[4.0, 2.0]), 3.0);
        assert_eq!(quiet_p50(&[]), 0.0);
    }

    #[test]
    fn quiet_rate_ignores_stalled_slices() {
        // 40 per second for 5 s, except seconds 1 to 3 where only every
        // fourth completion happens: 12 of 20 slices are quiet.
        let stamps: Vec<f64> = (0..200)
            .filter(|i| !(40..120).contains(i) || i % 4 == 0)
            .map(|i| f64::from(i) / 40.0)
            .collect();
        assert!((quiet_rate(&stamps, 5.0) - 40.0).abs() < 1e-9);
        // Too short for slices: plain rate.
        assert_eq!(quiet_rate(&[0.1, 0.2], 0.5), 4.0);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
    }
}
