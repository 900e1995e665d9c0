//! Seeded input generators. The benchmark owns every input it feeds the
//! program: keys, Zipf ranks and the open-loop send schedule all come from
//! `--seed` through the functions here, so a change to the repository's
//! own generators cannot change what is measured.

/// The splitmix64 finalizer: a bijection on `u64`, so distinct inputs
/// always give distinct outputs.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Disjoint key streams. Keys of different streams never collide, and
/// keys within a stream are distinct, because a stream key is the
/// bijective mix of `(stream << 48) | index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Keys loaded during set-up and never deleted.
    Stable = 1,
    /// Keys inserted (during set-up or the run) and later deleted.
    Churn = 2,
    /// Keys never inserted: every positive answer is a false positive.
    Absent = 3,
}

/// Key generator for one seed.
#[derive(Debug, Clone, Copy)]
pub struct Keys {
    salt: u64,
}

impl Keys {
    /// Keys for `seed`.
    pub fn new(seed: u64) -> Self {
        Keys { salt: mix64(seed ^ 0x5eed_5eed_5eed_5eed) }
    }

    /// The `i`-th key of `stream` (`i < 2^48`).
    pub fn key(&self, stream: Stream, i: u64) -> u64 {
        debug_assert!(i < 1 << 48);
        // XOR with a constant is a bijection, so (stream, i) -> key stays
        // injective for every seed.
        mix64(((stream as u64) << 48 | i) ^ self.salt)
    }

    /// Keys `start..start + n` of `stream`.
    pub fn range(&self, stream: Stream, start: u64, n: usize) -> Vec<u64> {
        (start..start + n as u64).map(|i| self.key(stream, i)).collect()
    }
}

/// A small seeded generator (splitmix64 sequence).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `lane` (e.g. per thread).
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mix64(lane + 1)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank `r` has probability
/// `(r + 1)^-s / H(n, s)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Distribution over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Analytic probability of the most popular rank, `1 / H(n, s)`.
    pub fn head_mass(&self) -> f64 {
        self.cdf[0]
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Open-loop send times (seconds from the start) of a Poisson process at
/// `rate` per second over `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let (a, b, c) = (Keys::new(7), Keys::new(7), Keys::new(8));
        assert_eq!(a.range(Stream::Stable, 0, 1000), b.range(Stream::Stable, 0, 1000));
        assert_ne!(a.range(Stream::Stable, 0, 1000), c.range(Stream::Stable, 0, 1000));
        let (mut r1, mut r2) = (Rng::new(7, 0), Rng::new(7, 0));
        let s1 = poisson_schedule(&mut r1, 1000.0, 2.0);
        assert_eq!(s1, poisson_schedule(&mut r2, 1000.0, 2.0));
        let z = Zipf::new(1000, 1.1);
        let (mut r1, mut r2) = (Rng::new(3, 1), Rng::new(3, 1));
        let d1: Vec<usize> = (0..1000).map(|_| z.sample(&mut r1)).collect();
        let d2: Vec<usize> = (0..1000).map(|_| z.sample(&mut r2)).collect();
        assert_eq!(d1, d2);
        assert_ne!(Rng::new(3, 1).next_u64(), Rng::new(3, 2).next_u64());
    }

    #[test]
    fn streams_are_disjoint_and_distinct() {
        let k = Keys::new(42);
        let mut all: Vec<u64> = [Stream::Stable, Stream::Churn, Stream::Absent]
            .iter()
            .flat_map(|&s| k.range(s, 0, 20_000))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 60_000);
    }

    #[test]
    fn zipf_head_mass_matches_analytic_value() {
        let (n, s) = (100_000usize, 1.1);
        let harmonic: f64 = (1..=n).map(|r| (r as f64).powf(-s)).sum();
        let z = Zipf::new(n, s);
        assert!((z.head_mass() - 1.0 / harmonic).abs() < 1e-12);
        let mut rng = Rng::new(11, 0);
        let draws = 400_000;
        let head = (0..draws).filter(|_| z.sample(&mut rng) == 0).count() as f64 / draws as f64;
        // Binomial standard error at p ≈ 0.1 over 400k draws is ~5e-4.
        assert!((head - z.head_mass()).abs() < 3e-3, "head {head} vs {}", z.head_mass());
        let mut rng = Rng::new(11, 1);
        assert!((0..10_000).all(|_| z.sample(&mut rng) < n));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let mut rng = Rng::new(5, 0);
        let s = poisson_schedule(&mut rng, 1500.0, 20.0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let rate = s.len() as f64 / 20.0;
        assert!((rate - 1500.0).abs() < 45.0, "rate {rate}");
    }
}
