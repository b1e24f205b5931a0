//! Rank/select over a frozen bit vector.
//!
//! Both operations are O(1) and directory-backed:
//!
//! * `rank1(i)` reads one superblock counter (ones before each 512-bit
//!   superblock), one packed in-superblock block counter (7 × 9-bit
//!   cumulative word counts sharing a single `u64`, i.e. the same cache
//!   line as the superblock layout), and popcounts at most one word.
//! * `select1(k)` / `select0(k)` start from a sampled select directory
//!   (the superblock of every [`SELECT_SAMPLE`]-th matching bit), narrow
//!   to the exact superblock by binary search over the (constant-bounded
//!   in practice) sampled window, pick the word with the packed block
//!   counts, and finish with an in-word bit search — no per-word scanning.
//!
//! **k-th-bit convention:** `select1(k)` is the position of the `k`-th
//! set bit *0-based*, so `select1(0)` is the first one and
//! `select1(count_ones() - 1)` the last; `k >= count_ones()` returns
//! `None`. `select0` mirrors this for clear bits. `rank1(select1(k)) == k`
//! for every valid `k`.

use crate::{BitVec, Store};

/// Process-global rank/select probe counters, compiled in only with the
/// `probe-counters` feature. Counting is a relaxed `fetch_add` per probe —
/// cheap, but not free — so the default build carries none of it and the
/// operations stay pure directory reads.
///
/// The counters are global (not per-[`RankSelect`]) on purpose: the study
/// they serve is "how many directory probes does this *workload* issue",
/// and threading a handle through every succinct-tree call site would
/// distort exactly the hot paths being measured.
#[cfg(feature = "probe-counters")]
pub mod probes {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static RANK1: AtomicU64 = AtomicU64::new(0);
    pub(crate) static RANK0: AtomicU64 = AtomicU64::new(0);
    pub(crate) static SELECT1: AtomicU64 = AtomicU64::new(0);
    pub(crate) static SELECT0: AtomicU64 = AtomicU64::new(0);

    /// A snapshot of the global probe counters.
    ///
    /// `rank0` delegates to `rank1` internally, so every `rank0` probe
    /// also advances `rank1` — `rank1` counts directory reads, not
    /// distinct API calls.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ProbeCounts {
        pub rank1: u64,
        pub rank0: u64,
        pub select1: u64,
        pub select0: u64,
    }

    /// Reads all four counters (relaxed; exact only while no other thread
    /// is probing).
    pub fn snapshot() -> ProbeCounts {
        ProbeCounts {
            rank1: RANK1.load(Ordering::Relaxed),
            rank0: RANK0.load(Ordering::Relaxed),
            select1: SELECT1.load(Ordering::Relaxed),
            select0: SELECT0.load(Ordering::Relaxed),
        }
    }

    /// Zeroes all four counters.
    pub fn reset() {
        RANK1.store(0, Ordering::Relaxed);
        RANK0.store(0, Ordering::Relaxed);
        SELECT1.store(0, Ordering::Relaxed);
        SELECT0.store(0, Ordering::Relaxed);
    }
}

const SUPER_BITS: usize = 512; // 8 words per superblock
const WORDS_PER_SUPER: usize = SUPER_BITS / 64;

/// One select sample is stored per this many matching bits.
pub const SELECT_SAMPLE: usize = 256;

/// An immutable bit vector with rank and select support.
#[derive(Clone, Debug)]
pub struct RankSelect {
    bits: BitVec,
    /// `super_ranks[i]` = number of ones strictly before superblock `i`.
    super_ranks: Store<u64>,
    /// Packed per-superblock word counts: 7 × 9-bit cumulative one-counts
    /// (ones in words `0..j` of the superblock, for `j = 1..=7`).
    block_ranks: Store<u64>,
    /// `select1_samples[s]` = superblock containing the `s·SELECT_SAMPLE`-th
    /// set bit.
    select1_samples: Store<u32>,
    /// Same for clear bits.
    select0_samples: Store<u32>,
    ones: usize,
}

/// Builds the packed block directory entry for the words of one superblock.
fn pack_block_ranks(words: &[u64]) -> u64 {
    let mut packed = 0u64;
    let mut acc = 0u64;
    for j in 1..WORDS_PER_SUPER {
        acc += words.get(j - 1).map_or(0, |w| w.count_ones() as u64);
        packed |= acc << (9 * (j - 1));
    }
    packed
}

/// Cumulative ones in words `0..j` of a superblock, unpacked.
#[inline]
fn unpack_block_rank(packed: u64, j: usize) -> usize {
    if j == 0 {
        0
    } else {
        ((packed >> (9 * (j - 1))) & 0x1FF) as usize
    }
}

impl RankSelect {
    /// Freezes `bits` and builds the rank and select directories.
    pub fn new(bits: BitVec) -> Self {
        let n_super = bits.len().div_ceil(SUPER_BITS).max(1);
        let words = bits.words();
        let mut super_ranks = Vec::with_capacity(n_super + 1);
        let mut block_ranks = Vec::with_capacity(n_super);
        let mut acc = 0u64;
        for sb in 0..n_super {
            super_ranks.push(acc);
            let w0 = sb * WORDS_PER_SUPER;
            let w1 = (w0 + WORDS_PER_SUPER).min(words.len());
            block_ranks.push(pack_block_ranks(&words[w0..w1]));
            for w in &words[w0..w1] {
                acc += w.count_ones() as u64;
            }
        }
        super_ranks.push(acc);
        let ones = acc as usize;
        let select1_samples = build_select_samples(&super_ranks, ones, |sb| super_ranks[sb]);
        let zeros = bits.len() - ones;
        let select0_samples = build_select_samples(&super_ranks, zeros, |sb| {
            (sb * SUPER_BITS) as u64 - super_ranks[sb]
        });
        Self {
            bits,
            super_ranks: super_ranks.into(),
            block_ranks: block_ranks.into(),
            select1_samples: select1_samples.into(),
            select0_samples: select0_samples.into(),
            ones,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if there are no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Total number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Total number of clear bits.
    #[inline]
    pub fn count_zeros(&self) -> usize {
        self.bits.len() - self.ones
    }

    /// The bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Number of set bits in `[0, i)`. `i` may equal `len()`.
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        #[cfg(feature = "probe-counters")]
        probes::RANK1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        debug_assert!(i <= self.bits.len());
        if i == self.bits.len() {
            return self.ones;
        }
        let sb = i / SUPER_BITS;
        let j = (i % SUPER_BITS) / 64;
        let mut r = self.super_ranks[sb] as usize + unpack_block_rank(self.block_ranks[sb], j);
        let rem = i % 64;
        if rem != 0 {
            let w = self.bits.words()[i / 64];
            r += (w & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        r
    }

    /// Number of clear bits in `[0, i)`.
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        #[cfg(feature = "probe-counters")]
        probes::RANK0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        i - self.rank1(i)
    }

    /// Position of the `k`-th (0-based) set bit, or `None` if
    /// `k >= count_ones()`. See the module docs for the convention.
    pub fn select1(&self, k: usize) -> Option<usize> {
        #[cfg(feature = "probe-counters")]
        probes::SELECT1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if k >= self.ones {
            return None;
        }
        let sb = self.select_superblock(k, &self.select1_samples, |sb| self.super_ranks[sb]);
        let mut remaining = k - self.super_ranks[sb] as usize;
        // Pick the word via the packed block counts (constant work).
        let packed = self.block_ranks[sb];
        let mut j = 0;
        while j + 1 < WORDS_PER_SUPER && unpack_block_rank(packed, j + 1) <= remaining {
            j += 1;
        }
        remaining -= unpack_block_rank(packed, j);
        let w = sb * WORDS_PER_SUPER + j;
        Some(w * 64 + select_in_word(self.bits.words()[w], remaining as u32) as usize)
    }

    /// Position of the `k`-th (0-based) clear bit, or `None` if
    /// `k >= count_zeros()`.
    pub fn select0(&self, k: usize) -> Option<usize> {
        #[cfg(feature = "probe-counters")]
        probes::SELECT0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if k >= self.count_zeros() {
            return None;
        }
        let zero_prefix = |sb: usize| (sb * SUPER_BITS) as u64 - self.super_ranks[sb];
        let sb = self.select_superblock(k, &self.select0_samples, zero_prefix);
        let mut remaining = k - zero_prefix(sb) as usize;
        let packed = self.block_ranks[sb];
        // Cumulative zeros in words 0..j of this superblock. The superblock
        // may be cut short by `len()`; bits past the end never count
        // (`k < count_zeros()` keeps the search inside real bits).
        let base = sb * SUPER_BITS;
        let zeros_before = |j: usize| {
            let covered = (64 * j).min(self.len() - base);
            covered - unpack_block_rank(packed, j)
        };
        let mut j = 0;
        while j + 1 < WORDS_PER_SUPER && zeros_before(j + 1) <= remaining {
            j += 1;
        }
        remaining -= zeros_before(j);
        let w = sb * WORDS_PER_SUPER + j;
        // Complement within the valid tail of the word.
        let word = self.bits.words()[w];
        let valid = self.len() - w * 64;
        let mask = if valid >= 64 {
            u64::MAX
        } else {
            (1u64 << valid) - 1
        };
        Some(w * 64 + select_in_word(!word & mask, remaining as u32) as usize)
    }

    /// Largest superblock whose prefix count (per `prefix`) is `<= k`,
    /// seeded by the sampled directory so the binary search window is the
    /// span between two consecutive samples.
    #[inline]
    fn select_superblock(&self, k: usize, samples: &[u32], prefix: impl Fn(usize) -> u64) -> usize {
        let n_super = self.super_ranks.len() - 1;
        let s = k / SELECT_SAMPLE;
        let mut lo = samples[s] as usize;
        let mut hi = samples
            .get(s + 1)
            .map_or(n_super, |&sb| (sb as usize + 1).min(n_super));
        // Invariant: prefix(lo) <= k < prefix(hi) (hi exclusive candidate).
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if prefix(mid) <= k as u64 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Heap footprint in bytes (bit data + directories; borrowed views
    /// count 0).
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
            + self.super_ranks.heap_bytes()
            + self.block_ranks.heap_bytes()
            + self.select1_samples.heap_bytes()
            + self.select0_samples.heap_bytes()
    }

    /// The frozen bit data.
    #[inline]
    pub fn bit_vec(&self) -> &BitVec {
        &self.bits
    }

    /// The superblock rank directory (`super_ranks[i]` = ones strictly
    /// before superblock `i`, with one trailing total entry).
    #[inline]
    pub fn super_ranks(&self) -> &[u64] {
        &self.super_ranks
    }

    /// The packed in-superblock block-count directory.
    #[inline]
    pub fn block_ranks(&self) -> &[u64] {
        &self.block_ranks
    }

    /// The sampled `select1` directory (superblock of every
    /// [`SELECT_SAMPLE`]-th set bit).
    #[inline]
    pub fn select1_samples(&self) -> &[u32] {
        &self.select1_samples
    }

    /// The sampled `select0` directory.
    #[inline]
    pub fn select0_samples(&self) -> &[u32] {
        &self.select0_samples
    }

    /// Reassembles from a `.xwqi` payload carrying all four directories.
    /// Every directory is validated against what [`Self::new`] would
    /// build — one linear pass over the words — so corrupt directories
    /// can never mis-route an O(1) lookup. The *validated input* stores
    /// are kept (not the rebuilt copies), so zero-copy loads keep serving
    /// straight out of the mapped file.
    pub fn from_raw_parts(
        bits: BitVec,
        super_ranks: impl Into<Store<u64>>,
        block_ranks: impl Into<Store<u64>>,
        select1_samples: impl Into<Store<u32>>,
        select0_samples: impl Into<Store<u32>>,
    ) -> Result<Self, String> {
        let (super_ranks, block_ranks) = (super_ranks.into(), block_ranks.into());
        let (select1_samples, select0_samples) = (select1_samples.into(), select0_samples.into());
        let rebuilt = Self::new(bits);
        if super_ranks != rebuilt.super_ranks {
            return Err("rank superblock directory does not match the bit data".to_string());
        }
        if block_ranks != rebuilt.block_ranks {
            return Err("rank block directory does not match the bit data".to_string());
        }
        if select1_samples != rebuilt.select1_samples {
            return Err("select1 sample directory does not match the bit data".to_string());
        }
        if select0_samples != rebuilt.select0_samples {
            return Err("select0 sample directory does not match the bit data".to_string());
        }
        Ok(Self {
            bits: rebuilt.bits,
            super_ranks,
            block_ranks,
            select1_samples,
            select0_samples,
            ones: rebuilt.ones,
        })
    }
}

/// Builds a sampled select directory: for every `SELECT_SAMPLE`-th matching
/// bit, the superblock that contains it. `prefix(sb)` is the number of
/// matching bits strictly before superblock `sb`.
fn build_select_samples(
    super_ranks: &[u64],
    total: usize,
    prefix: impl Fn(usize) -> u64,
) -> Vec<u32> {
    let n_super = super_ranks.len() - 1;
    let n_samples = total.div_ceil(SELECT_SAMPLE).max(1);
    let mut out = Vec::with_capacity(n_samples);
    let mut sb = 0usize;
    for s in 0..n_samples {
        let k = (s * SELECT_SAMPLE) as u64;
        if k >= total as u64 {
            // Lone sample of an empty directory: point at superblock 0.
            out.push(0);
            continue;
        }
        // Largest sb with prefix(sb) <= k; prefix is nondecreasing.
        while sb + 1 < n_super && prefix(sb + 1) <= k {
            sb += 1;
        }
        out.push(sb as u32);
    }
    out
}

/// `SELECT_IN_BYTE[b * 8 + k]` = position of the `k`-th set bit of byte
/// `b` (255 where `k >= popcount(b)`, never read). 2 KiB, built at
/// compile time, hot in L1.
static SELECT_IN_BYTE: [u8; 256 * 8] = build_select_in_byte();

const fn build_select_in_byte() -> [u8; 256 * 8] {
    let mut t = [255u8; 256 * 8];
    let mut b = 0usize;
    while b < 256 {
        let mut k = 0usize;
        let mut i = 0usize;
        while i < 8 {
            if (b >> i) & 1 == 1 {
                t[b * 8 + k] = i as u8;
                k += 1;
            }
            i += 1;
        }
        b += 1;
    }
    t
}

/// Position of the `k`-th (0-based) set bit within `w`; requires `k < popcount(w)`.
///
/// Dispatches to the BMI2 `pdep` path when the crate is built with the
/// `simd` feature on `x86_64` *and* the CPU supports BMI2 (detected once
/// at runtime); the portable scalar reduction is the default and the
/// fallback everywhere else. Public (with [`select_in_word_scalar`]) so
/// the equivalence property test can pin the two paths against each
/// other.
#[inline]
pub fn select_in_word(w: u64, k: u32) -> u32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if bmi2::available() {
        // SAFETY: `available()` confirmed BMI2 support on this CPU.
        return unsafe { bmi2::select_in_word_pdep(w, k) };
    }
    select_in_word_scalar(w, k)
}

/// The portable in-word select: binary reduction over halves, then one
/// byte-table lookup. Always compiled — it is both the non-`simd` default
/// and the runtime fallback on CPUs without BMI2.
#[inline]
pub fn select_in_word_scalar(mut w: u64, mut k: u32) -> u32 {
    // Portable binary reduction: halve the candidate range three times,
    // then finish the remaining byte with one table lookup.
    let mut pos = 0u32;
    for shift in [32u32, 16, 8] {
        let c = (w & ((1u64 << shift) - 1)).count_ones();
        if k >= c {
            k -= c;
            w >>= shift;
            pos += shift;
        }
    }
    pos + SELECT_IN_BYTE[(w as usize & 0xFF) * 8 + k as usize] as u32
}

/// The BMI2 fast path: `pdep(1 << k, w)` deposits a lone bit into the
/// `k`-th set position of `w`, and `tzcnt` reads its index — branchless,
/// table-free, two instructions.
///
/// Gated behind runtime detection because `pdep`/`pext` are microcoded
/// (tens of cycles) on pre-Zen3 AMD cores, where losing the dispatch
/// branch to the scalar path is the right call anyway — the `simd`
/// feature opts into the dispatch, the CPU check picks the winner.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod bmi2 {
    /// CPUID probe. `is_x86_feature_detected!` caches the result in a
    /// process-global atomic internally, so calling it per dispatch is a
    /// load + branch, not a repeated CPUID.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("bmi2")
    }

    /// # Safety
    /// The CPU must support BMI2 (check [`available`] first).
    #[target_feature(enable = "bmi2")]
    #[inline]
    pub unsafe fn select_in_word_pdep(w: u64, k: u32) -> u32 {
        std::arch::x86_64::_pdep_u64(1u64 << k, w).trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rank(bits: &[bool], i: usize) -> usize {
        bits[..i].iter().filter(|&&b| b).count()
    }

    fn naive_select(bits: &[bool], k: usize) -> Option<usize> {
        bits.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .nth(k)
            .map(|(i, _)| i)
    }

    fn naive_select0(bits: &[bool], k: usize) -> Option<usize> {
        bits.iter()
            .enumerate()
            .filter(|(_, &b)| !b)
            .nth(k)
            .map(|(i, _)| i)
    }

    fn check(bits: Vec<bool>) {
        let rs = RankSelect::new(bits.iter().copied().collect());
        for i in 0..=bits.len() {
            assert_eq!(rs.rank1(i), naive_rank(&bits, i), "rank1({i})");
            assert_eq!(rs.rank0(i), i - naive_rank(&bits, i), "rank0({i})");
        }
        let ones = rs.count_ones();
        let zeros = rs.count_zeros();
        assert_eq!(ones + zeros, bits.len());
        for k in 0..ones + 2 {
            assert_eq!(rs.select1(k), naive_select(&bits, k), "select1({k})");
        }
        for k in 0..zeros + 2 {
            assert_eq!(rs.select0(k), naive_select0(&bits, k), "select0({k})");
        }
        // rank/select inverse laws.
        for k in 0..ones {
            let p = rs.select1(k).unwrap();
            assert_eq!(rs.rank1(p), k);
            assert!(rs.get(p));
        }
        for k in 0..zeros {
            let p = rs.select0(k).unwrap();
            assert_eq!(rs.rank0(p), k);
            assert!(!rs.get(p));
        }
    }

    #[test]
    fn small_patterns() {
        check(vec![]);
        check(vec![true]);
        check(vec![false]);
        check(vec![true, false, true, true, false]);
    }

    #[test]
    fn periodic_pattern_crossing_superblocks() {
        check((0..1500).map(|i| i % 5 == 0).collect());
    }

    #[test]
    fn dense_and_sparse() {
        check((0..1200).map(|_| true).collect());
        check((0..1200).map(|_| false).collect());
        check((0..1200).map(|i| i == 1199).collect());
        check((0..1200).map(|i| i == 0).collect());
    }

    #[test]
    fn very_sparse_crossing_many_superblocks() {
        // Ones separated by far more than one select-sample span of
        // superblocks: exercises the sampled-window binary search.
        check((0..40_000).map(|i| i % 7001 == 0).collect());
        check((0..40_000).map(|i| i == 39_999).collect());
    }

    #[test]
    fn pseudorandom_pattern() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let bits: Vec<bool> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x & 1 == 1
            })
            .collect();
        check(bits);
    }

    #[test]
    fn million_bit_directory_matches_naive_scan() {
        // The acceptance check for directory-backed select: a 1M-bit vector
        // where every probe goes through the sampled directory, validated
        // against a naive linear scan at sampled positions.
        let n = 1_000_000usize;
        let mut x = 0xDEADBEEFCAFEF00Du64;
        let bits: Vec<bool> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 100 < 3 // ~3% density, like sparse label bitmaps
            })
            .collect();
        let rs = RankSelect::new(bits.iter().copied().collect());
        let ones = rs.count_ones();
        assert!(rs.select1_samples().len() >= ones / SELECT_SAMPLE);
        // Naive scan positions for a deterministic sample of ks.
        let positions: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        for k in (0..ones).step_by(997).chain([0, ones - 1]) {
            assert_eq!(rs.select1(k), Some(positions[k]), "select1({k})");
        }
        assert_eq!(rs.select1(ones), None);
        let zeros = rs.count_zeros();
        for k in (0..zeros).step_by(9973).chain([0, zeros - 1]) {
            assert_eq!(rs.rank0(rs.select0(k).unwrap()), k);
        }
    }

    #[test]
    fn select_in_word_all_positions() {
        for bitpos in 0..64u32 {
            let w = 1u64 << bitpos;
            assert_eq!(select_in_word(w, 0), bitpos);
        }
        let w = 0xAAAA_AAAA_AAAA_AAAAu64; // odd positions set
        for k in 0..32 {
            assert_eq!(select_in_word(w, k), 2 * k + 1);
        }
    }

    #[cfg(feature = "probe-counters")]
    #[test]
    fn probe_counters_advance_with_probes() {
        let rs = RankSelect::new((0..2048).map(|i| i % 3 == 0).collect());
        let before = probes::snapshot();
        for i in 0..100 {
            rs.rank1(i);
        }
        for k in 0..50 {
            rs.select1(k);
        }
        rs.rank0(7);
        rs.select0(7);
        let after = probes::snapshot();
        // The counters are process-global and other tests probe
        // concurrently, so assert lower bounds, not exact deltas. The
        // rank0 call delegates to rank1, hence 101.
        assert!(after.rank1 >= before.rank1 + 101, "{before:?} -> {after:?}");
        assert!(after.rank0 >= before.rank0 + 1);
        assert!(after.select1 >= before.select1 + 50);
        assert!(after.select0 >= before.select0 + 1);
        // reset() zeroes the counters; concurrent probes may already have
        // advanced them again, so only exercise it (exactness is a
        // single-threaded guarantee).
        probes::reset();
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let bits: BitVec = (0..5000).map(|i| i % 3 == 0).collect();
        let rs = RankSelect::new(bits.clone());
        let ok = RankSelect::from_raw_parts(
            bits.clone(),
            rs.super_ranks().to_vec(),
            rs.block_ranks().to_vec(),
            rs.select1_samples().to_vec(),
            rs.select0_samples().to_vec(),
        )
        .unwrap();
        assert_eq!(ok.select1(100), rs.select1(100));
        // Each corrupted directory is rejected.
        let mut bad = rs.block_ranks().to_vec();
        bad[0] ^= 1;
        assert!(RankSelect::from_raw_parts(
            bits.clone(),
            rs.super_ranks().to_vec(),
            bad,
            rs.select1_samples().to_vec(),
            rs.select0_samples().to_vec(),
        )
        .is_err());
        let mut bad = rs.select1_samples().to_vec();
        bad[0] += 1;
        assert!(RankSelect::from_raw_parts(
            bits,
            rs.super_ranks().to_vec(),
            rs.block_ranks().to_vec(),
            bad,
            rs.select0_samples().to_vec(),
        )
        .is_err());
    }
}
