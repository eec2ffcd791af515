//! The seeded input generator.

/// Seeded splitmix64: the only source of randomness in generated inputs, so a
/// workload seed always yields the same operation sequences.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream (a round, a session, a client) of the
    /// workload seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mixer = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        Rng(mixer.next())
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How many of `total` operations part `part` of `parts` runs: an even
/// split, the remainder going to the first parts.
pub fn share(total: usize, parts: usize, part: usize) -> usize {
    total / parts + usize::from(part < total % parts)
}

/// The stream of one plan: round `round` at `ops` operations, part `part`
/// (a session or a client).
pub fn stream(round: u64, ops: usize, part: usize) -> u64 {
    (round << 32) ^ ((ops as u64) << 8) ^ part as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_repeats_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn shares_add_up_to_the_total() {
        for (total, parts) in [(25, 2), (4000, 3), (7, 7), (1, 2)] {
            let sum: usize = (0..parts).map(|part| share(total, parts, part)).sum();
            assert_eq!(sum, total);
        }
    }
}
