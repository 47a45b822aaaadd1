//! Seeded inputs: the benchmark's own generator and the open-loop
//! arrival schedule. The program under test never sees the seed, only
//! what is generated from it.

/// SplitMix64. Small, well mixed, and owned by the benchmark so that a
/// change to the repository's RNG cannot move the inputs.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so its logarithm is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for `label` (workload, segment, purpose).
    pub fn derive(seed: u64, label: &str, index: u64) -> SeedRng {
        let mut h = SeedRng(seed ^ 0x5bd1_e995_c0de_c0de);
        for b in label.bytes() {
            h.0 ^= u64::from(b);
            h.next_u64();
        }
        h.0 ^= index.wrapping_mul(0x2545_f491_4f6c_dd1d);
        SeedRng(h.next_u64())
    }
}

/// A stable 64-bit seed for one engine component of one segment.
pub fn component_seed(seed: u64, label: &str, index: u64) -> u64 {
    SeedRng::derive(seed, label, index).next_u64()
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`, conditioned on
/// their number being the expected one: due times in nanoseconds from
/// the start of the segment, inside `duration_ns`. Every segment of every
/// run then carries the same number of probes — a cost per probe is not
/// moved by how many arrivals a seed happened to draw — while the gaps
/// stay exponential (n + 1 exponential gaps scaled to fill the duration
/// are the arrival times of a Poisson process given n arrivals).
pub fn poisson_schedule(rng: &mut SeedRng, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let count = (rate_per_s * duration_ns as f64 / 1e9).round() as usize;
    let mut due = Vec::with_capacity(count);
    let mut t = 0.0f64;
    for _ in 0..count {
        t += -rng.next_unit().ln();
        due.push(t);
    }
    let total = t - rng.next_unit().ln();
    due.into_iter()
        .map(|t| ((t / total * duration_ns as f64) as u64).min(duration_ns.saturating_sub(1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_from_the_seed_and_differs_across_seeds() {
        let a = poisson_schedule(&mut SeedRng::derive(12, "paced", 0), 1000.0, 2_000_000_000);
        let b = poisson_schedule(&mut SeedRng::derive(12, "paced", 0), 1000.0, 2_000_000_000);
        let c = poisson_schedule(&mut SeedRng::derive(13, "paced", 0), 1000.0, 2_000_000_000);
        let d = poisson_schedule(&mut SeedRng::derive(12, "paced", 1), 1000.0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn schedule_has_the_asked_rate_and_is_sorted() {
        let due = poisson_schedule(&mut SeedRng(7), 1000.0, 10_000_000_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 10_000_000_000);
        assert_eq!(due.len(), 10_000);
        // Exponential gaps: about 1/e of them exceed the mean.
        let long = due.windows(2).filter(|w| w[1] - w[0] > 1_000_000).count();
        let share = long as f64 / due.len() as f64;
        assert!((0.33..0.41).contains(&share), "{share}");
    }

    #[test]
    fn unit_draws_are_never_zero() {
        let mut rng = SeedRng(0);
        assert!((0..10_000).all(|_| {
            let u = rng.next_unit();
            u > 0.0 && u <= 1.0
        }));
    }
}
