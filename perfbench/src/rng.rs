//! Seeded input generation: a SplitMix64 stream and stratified draws.
//!
//! The benchmark owns its generator so that the same `--seed` yields the
//! same rows and statement sequences on every commit, independent of any
//! engine crate.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, split by `stream` so clients and tables draw
    /// independent sequences from one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Values of `lo..=hi` in seeded passes: each pass is a fresh shuffle in
/// which every value comes up once, so any stretch of draws covers the
/// range evenly and runs on different seeds see the same mix.
#[derive(Debug, Clone)]
pub struct Strata {
    values: Vec<i64>,
    pos: usize,
}

impl Strata {
    /// Passes over `lo..=hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        let values: Vec<i64> = (lo..=hi).collect();
        let pos = values.len();
        Strata { values, pos }
    }

    /// The next value, starting a new shuffled pass when one is used up.
    pub fn draw(&mut self, rng: &mut Rng) -> i64 {
        if self.pos == self.values.len() {
            rng.shuffle(&mut self.values);
            self.pos = 0;
        }
        self.pos += 1;
        self.values[self.pos - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn strata_cover_each_value_once_per_pass() {
        let mut rng = Rng::new(3, 0);
        let mut s = Strata::new(10, 19);
        for _ in 0..3 {
            let mut pass: Vec<i64> = (0..10).map(|_| s.draw(&mut rng)).collect();
            pass.sort_unstable();
            assert_eq!(pass, (10..=19).collect::<Vec<_>>());
        }
    }
}
