//! The benchmark's own seeded generator (splitmix64). Every input — document
//! seeds, query texts, request order, probe positions — derives from
//! `--seed` through this file, so the engine only ever sees generated
//! inputs and the same seed reproduces them bit for bit.

#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for a named purpose (so adding a draw to one
    /// stream never shifts another).
    pub fn fork(seed: u64, purpose: &str) -> Self {
        Self(seed ^ crate::oracle::fnv1a(purpose.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T: Copy>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            let (a, b) = (v[i], v[j]);
            v[i] = b;
            v[j] = a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // splitmix64 with seed 1234567, first three outputs (Vigna's
        // reference implementation).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(a, sorted);
    }
}
