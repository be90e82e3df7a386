//! Seeded input generators: independent random streams per purpose, Zipf
//! picks over query shapes, and Poisson arrival gaps. The same `--seed`
//! always yields the same requests; the engine only ever sees what these
//! produce.

use rand::prelude::*;
use std::time::Duration;

/// An independent stream of the run's seed: every purpose (corpus,
/// arrivals, each client's picks, ...) draws from its own generator so
/// adding a draw to one never shifts another.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, purpose))
}

/// The seed of [`stream`]`(seed, purpose)`, for APIs that take a `u64`
/// (generator configs, `RoxOptions::seed`).
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    // SplitMix64 finalizer over the pair: well mixed, cheap, stable.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf distribution over ranks `0..n`: rank `k` has weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` (at least one) with skew `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cdf = (0..n.max(1))
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank by inverting the CDF.
    pub fn pick(&self, rng: &mut StdRng) -> usize {
        let total = *self.cdf.last().expect("at least one rank");
        let u = rng.random::<f64>() * total;
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// The arrival times of a Poisson process over `window`, conditioned on
/// exactly `n` arrivals: `n` independent uniform instants, sorted. (Given
/// its count, a Poisson process *is* that.) Fixing the count keeps the
/// offered load identical from seed to seed while gaps stay exponential-
/// like, bursts included.
pub fn poisson_arrivals(rng: &mut StdRng, n: usize, window: Duration) -> Vec<Duration> {
    let mut at: Vec<Duration> = (0..n)
        .map(|_| window.mul_f64(rng.random::<f64>()))
        .collect();
    at.sort_unstable();
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let draw = |seed, purpose| -> Vec<u64> {
            let mut r = stream(seed, purpose);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
        assert_ne!(draw(42, 1), draw(43, 1));
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let z = Zipf::new(8, 1.1);
        let picks = |seed| -> Vec<usize> {
            let mut r = stream(seed, 0);
            (0..4000).map(|_| z.pick(&mut r)).collect()
        };
        let a = picks(7);
        assert_eq!(a, picks(7));
        let mut counts = [0usize; 8];
        for k in a {
            counts[k] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn poisson_arrivals_are_deterministic_sorted_and_bursty() {
        let window = Duration::from_secs(8);
        let arrivals = |seed| poisson_arrivals(&mut stream(seed, 3), 2000, window);
        let a = arrivals(11);
        assert_eq!(a, arrivals(11));
        assert_ne!(a, arrivals(12));
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < window);
        // Exponential-like gaps: mean 4 ms, and about 1/e of them longer.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.004).abs() < 0.0003, "mean gap {mean}");
        let long = gaps.iter().filter(|g| **g > 0.004).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.04,
            "share of long gaps {long}"
        );
    }
}
