//! The benchmark's own seeded generator (SplitMix64), so that every
//! input is a pure function of `--seed` and never of the repository's
//! `rand` shim, the clock or the process.

/// SplitMix64: 64 bits of state, full period, good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `salt` names the purpose (a workload or
    /// fixture name), so two generators fed the same `--seed` do not walk
    /// the same sequence.
    pub fn new(seed: u64, salt: &str) -> Rng {
        // FNV-1a of the salt, folded into the seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u32) -> bool {
        self.below(100) < percent as usize
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}
