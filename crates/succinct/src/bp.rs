//! Balanced-parentheses sequences with a range-min-max segment tree.
//!
//! An open parenthesis is a `1` bit, a close is `0`. With
//! `excess(p) = 2·rank1(p) − p` (the nesting depth after the first `p`
//! parentheses), matching and enclosing parentheses reduce to searching the
//! excess walk for its first/last visit to a target value. Because the walk
//! moves in ±1 steps, a block contains the target value iff the target lies
//! between the block's min and max excess — which is exactly what the segment
//! tree stores.

use crate::{BitVec, RankSelect, Store};

/// Bits per leaf block of the range-min-max tree.
const BLOCK: usize = 256;

/// A balanced-parentheses sequence supporting `find_close`, `find_open`,
/// and `enclose` in O(BLOCK + log n) time.
#[derive(Clone, Debug)]
pub struct Bp {
    rs: RankSelect,
    /// Number of leaves in the segment tree (power of two ≥ number of blocks).
    seg_leaves: usize,
    /// Implicit segment tree, 1-based, stored *flat* as interleaved
    /// `[min, max]` pairs (`seg[2i]` = min, `seg[2i + 1]` = max excess of
    /// node `i`'s range) so a `.xwqi` loader can view it in place — the
    /// wire format is the same interleaved `i32` sequence.
    seg: Store<i32>,
}

/// Sentinel interval for segment-tree nodes covering no positions.
const EMPTY: (i32, i32) = (i32::MAX, i32::MIN);

/// Per-byte excess summaries for the in-block value searches: an open bit
/// contributes `+1`, a close bit `−1`, LSB processed first (lower position).
struct ExcessTables {
    /// Total excess change across the byte.
    delta: [i8; 256],
    /// Min/max of the cumulative excess after each of the byte's 8 bits
    /// (prefix walk, for forward scans).
    fwd_min: [i8; 256],
    fwd_max: [i8; 256],
    /// Min/max of the suffix sums (bits `t..8` for `t = 0..8`, i.e. the
    /// amount a backward scan must still undo), for backward scans.
    suf_min: [i8; 256],
    suf_max: [i8; 256],
}

/// Built at compile time; 1.25 KiB total, hot in L1 during navigation.
static EXCESS_TABLES: ExcessTables = build_excess_tables();

const fn build_excess_tables() -> ExcessTables {
    let mut t = ExcessTables {
        delta: [0; 256],
        fwd_min: [0; 256],
        fwd_max: [0; 256],
        suf_min: [0; 256],
        suf_max: [0; 256],
    };
    let mut b = 0usize;
    while b < 256 {
        let mut e: i8 = 0;
        let mut mn: i8 = i8::MAX;
        let mut mx: i8 = i8::MIN;
        let mut i = 0;
        while i < 8 {
            e += if (b >> i) & 1 == 1 { 1 } else { -1 };
            if e < mn {
                mn = e;
            }
            if e > mx {
                mx = e;
            }
            i += 1;
        }
        t.delta[b] = e;
        t.fwd_min[b] = mn;
        t.fwd_max[b] = mx;
        // Suffix sums: s_t = delta − prefix(t), for t = 0..8 (t = 8 → 0 is
        // the caller's own position and is excluded).
        let mut smn: i8 = i8::MAX;
        let mut smx: i8 = i8::MIN;
        let mut prefix: i8 = 0;
        let mut tt = 0;
        while tt < 8 {
            let s = t.delta[b] - prefix;
            if s < smn {
                smn = s;
            }
            if s > smx {
                smx = s;
            }
            prefix += if (b >> tt) & 1 == 1 { 1 } else { -1 };
            tt += 1;
        }
        t.suf_min[b] = smn;
        t.suf_max[b] = smx;
        b += 1;
    }
    t
}

impl Bp {
    /// Builds the structure from a parentheses bit sequence (open = `1`).
    ///
    /// The sequence does not need to be balanced as a whole (the tree crate
    /// always produces balanced input, but partial sequences are permitted
    /// here; unbalanced queries simply return `None`).
    pub fn new(bits: BitVec) -> Self {
        let n = bits.len();
        let rs = RankSelect::new(bits);
        // v_p = excess(p) for p in 0..=n  (n+1 values).
        let n_vals = n + 1;
        let n_blocks = n_vals.div_ceil(BLOCK);
        let seg_leaves = n_blocks.next_power_of_two().max(1);
        let set = |seg: &mut [i32], i: usize, v: (i32, i32)| {
            seg[2 * i] = v.0;
            seg[2 * i + 1] = v.1;
        };
        let mut seg = vec![0i32; 4 * seg_leaves];
        for i in 0..2 * seg_leaves {
            set(&mut seg, i, EMPTY);
        }
        let mut excess: i32 = 0;
        let mut cur_min: i32 = i32::MAX;
        let mut cur_max: i32 = i32::MIN;
        let mut block = 0usize;
        for p in 0..=n {
            if p > 0 {
                excess += if rs.get(p - 1) { 1 } else { -1 };
            }
            let b = p / BLOCK;
            if b != block {
                set(&mut seg, seg_leaves + block, (cur_min, cur_max));
                block = b;
                cur_min = i32::MAX;
                cur_max = i32::MIN;
            }
            cur_min = cur_min.min(excess);
            cur_max = cur_max.max(excess);
        }
        set(&mut seg, seg_leaves + block, (cur_min, cur_max));
        for i in (1..seg_leaves).rev() {
            let (l, r) = (
                (seg[4 * i], seg[4 * i + 1]),
                (seg[4 * i + 2], seg[4 * i + 3]),
            );
            set(&mut seg, i, (l.0.min(r.0), l.1.max(r.1)));
        }
        Self {
            rs,
            seg_leaves,
            seg: seg.into(),
        }
    }

    /// Number of parentheses.
    #[inline]
    pub fn len(&self) -> usize {
        self.rs.len()
    }

    /// The underlying rank/select structure (bits + directory).
    #[inline]
    pub fn rank_select(&self) -> &RankSelect {
        &self.rs
    }

    /// The range-min-max directory as `(leaf_count, flat interleaved
    /// min/max tree)` — two `i32`s per tree node.
    #[inline]
    pub fn seg_directory(&self) -> (usize, &[i32]) {
        (self.seg_leaves, &self.seg)
    }

    /// The `(min, max)` excess interval of segment-tree node `i`.
    #[inline]
    fn seg_at(&self, i: usize) -> (i32, i32) {
        (self.seg[2 * i], self.seg[2 * i + 1])
    }

    /// Reassembles from a serialized range-min-max directory (the `.xwqi`
    /// persistence layer; `seg` is the flat interleaved form of
    /// [`Self::seg_directory`], possibly a borrowed view). Shape is
    /// validated (leaf count and tree size must match what [`Self::new`]
    /// would build for `rs.len()` bits); directory *contents* are trusted —
    /// persisted payloads are checksummed upstream, so this only needs to
    /// rule out shape mismatches that could cause out-of-bounds access.
    pub fn from_raw_parts(
        rs: RankSelect,
        seg_leaves: usize,
        seg: impl Into<Store<i32>>,
    ) -> Result<Self, String> {
        let seg = seg.into();
        let n_blocks = (rs.len() + 1).div_ceil(BLOCK);
        let expect_leaves = n_blocks.next_power_of_two().max(1);
        if seg_leaves != expect_leaves {
            return Err(format!(
                "bp: {seg_leaves} segment leaves, expected {expect_leaves}"
            ));
        }
        if seg.len() != 4 * seg_leaves {
            return Err(format!(
                "bp: segment tree has {} entries, expected {}",
                seg.len() / 2,
                2 * seg_leaves
            ));
        }
        Ok(Self {
            rs,
            seg_leaves,
            seg,
        })
    }

    /// True if the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rs.is_empty()
    }

    /// True if position `p` holds an open parenthesis.
    #[inline]
    pub fn is_open(&self, p: usize) -> bool {
        self.rs.get(p)
    }

    /// Nesting depth after the first `p` parentheses.
    #[inline]
    pub fn excess(&self, p: usize) -> i32 {
        2 * self.rs.rank1(p) as i32 - p as i32
    }

    /// Number of open parentheses in `[0, p)` — the preorder rank.
    #[inline]
    pub fn rank_open(&self, p: usize) -> usize {
        self.rs.rank1(p)
    }

    /// Position of the `k`-th (0-based) open parenthesis.
    #[inline]
    pub fn select_open(&self, k: usize) -> Option<usize> {
        self.rs.select1(k)
    }

    /// Position of the close parenthesis matching the open at `p`.
    ///
    /// Returns `None` if `p` is not an open parenthesis or is unmatched.
    pub fn find_close(&self, p: usize) -> Option<usize> {
        if p >= self.len() || !self.is_open(p) {
            return None;
        }
        self.find_close_at(p, self.excess(p))
    }

    /// [`Self::find_close`] for an open parenthesis whose open-rank
    /// (`rank_open(p)`) the caller already knows — e.g. from the `select`
    /// that produced `p`. Skips the `rank1` the excess would otherwise
    /// cost: `excess(p) = 2·rank − p` for the position of the `rank`-th
    /// open parenthesis.
    #[inline]
    pub fn find_close_with_rank(&self, p: usize, open_rank: usize) -> Option<usize> {
        if p >= self.len() || !self.is_open(p) {
            return None;
        }
        let e_p = 2 * open_rank as i32 - p as i32;
        debug_assert_eq!(e_p, self.excess(p));
        self.find_close_at(p, e_p)
    }

    /// Shared tail of the `find_close` variants; `e_p = excess(p)`.
    fn find_close_at(&self, p: usize, e_p: i32) -> Option<usize> {
        // Smallest q in [p+2, n] with excess(q) == e_p; the match is q-1.
        let from = p + 2;
        if from > self.len() {
            return None;
        }
        // excess(p+1) = e_p + 1 (p is open); one bit read gets excess(p+2).
        let e_from = e_p + 1 + if self.rs.get(p + 1) { 1 } else { -1 };
        self.fwd_value_search_at(from, e_from, e_p).map(|q| q - 1)
    }

    /// Position of the close parenthesis of the tightest pair enclosing
    /// the open parenthesis at `p` (its parent's close, in tree terms),
    /// with the open-rank of `p` already known (see
    /// [`Self::find_close_with_rank`]). One forward search — the same
    /// answer as `find_close(enclose(p))` without the backward search.
    #[inline]
    pub fn enclosing_close_with_rank(&self, p: usize, open_rank: usize) -> Option<usize> {
        if p >= self.len() || !self.is_open(p) {
            return None;
        }
        let e_p = 2 * open_rank as i32 - p as i32;
        debug_assert_eq!(e_p, self.excess(p));
        if e_p == 0 {
            return None;
        }
        // excess(p+1) = e_p + 1 (p is open); the parent closes at the first
        // q with excess(q) = e_p − 1, i.e. at position q − 1.
        self.fwd_value_search_at(p + 1, e_p + 1, e_p - 1)
            .map(|q| q - 1)
    }

    /// Position of the open parenthesis matching the close at `p`.
    pub fn find_open(&self, p: usize) -> Option<usize> {
        if p >= self.len() || self.is_open(p) {
            return None;
        }
        let target = self.excess(p + 1);
        // Largest q in [0, p-1] with excess(q) == target; the match is q.
        if p == 0 {
            return None;
        }
        self.bwd_value_search(p - 1, target)
    }

    /// Position of the open parenthesis of the tightest enclosing pair of the
    /// open parenthesis at `p` (its parent in tree terms).
    pub fn enclose(&self, p: usize) -> Option<usize> {
        if p >= self.len() || !self.is_open(p) || p == 0 {
            return None;
        }
        self.enclose_at(p, self.excess(p))
    }

    /// [`Self::enclose`] with the open-rank of `p` already known (see
    /// [`Self::find_close_with_rank`]).
    #[inline]
    pub fn enclose_with_rank(&self, p: usize, open_rank: usize) -> Option<usize> {
        if p >= self.len() || !self.is_open(p) || p == 0 {
            return None;
        }
        let e_p = 2 * open_rank as i32 - p as i32;
        debug_assert_eq!(e_p, self.excess(p));
        self.enclose_at(p, e_p)
    }

    /// Shared tail of the `enclose` variants; `e_p = excess(p)`.
    fn enclose_at(&self, p: usize, e_p: i32) -> Option<usize> {
        let target = e_p - 1;
        if target < 0 {
            return None;
        }
        // excess(p-1) from one bit read.
        let e_from = e_p - if self.rs.get(p - 1) { 1 } else { -1 };
        self.bwd_value_search_at(p - 1, e_from, target)
    }

    /// Smallest `q ≥ from` with `excess(q) == target` (`q` ranges over
    /// `0..=len`); `e` must equal `excess(from)` (callers derive it from a
    /// known open-rank or a neighbouring bit instead of paying a rank).
    fn fwd_value_search_at(&self, from: usize, e: i32, target: i32) -> Option<usize> {
        let n_vals = self.len() + 1;
        if from >= n_vals {
            return None;
        }
        debug_assert_eq!(e, self.excess(from));
        // Scan the remainder of `from`'s block.
        let b0 = from / BLOCK;
        let block_end = ((b0 + 1) * BLOCK).min(n_vals);
        if e == target {
            return Some(from);
        }
        if let Some(q) = self.scan_fwd(from, block_end - 1, e, target) {
            return Some(q);
        }
        // Locate the leftmost later block containing the target value.
        let b = self.seg_find_first(b0 + 1, target)?;
        let start = b * BLOCK;
        let end = ((b + 1) * BLOCK).min(n_vals);
        let e = self.excess(start);
        if e == target {
            return Some(start);
        }
        match self.scan_fwd(start, end - 1, e, target) {
            Some(q) => Some(q),
            None => unreachable!("segment tree promised the value in block {b}"),
        }
    }

    /// First position `i + 1` with `excess(i + 1) == target` over bits
    /// `i ∈ [bit_lo, bit_hi)`, given `e = excess(bit_lo)`. Skips whole
    /// bytes via the [`EXCESS_TABLES`] prefix min/max: the excess walk
    /// moves in ±1 steps, so a byte contains the target iff
    /// `target − e` lies inside the byte's prefix-excess range.
    fn scan_fwd(&self, bit_lo: usize, bit_hi: usize, mut e: i32, target: i32) -> Option<usize> {
        let words = self.rs.bit_vec().words();
        let step = |w: &[u64], i: usize| -> i32 {
            if (w[i >> 6] >> (i & 63)) & 1 == 1 {
                1
            } else {
                -1
            }
        };
        let mut i = bit_lo;
        // Head: single bits up to the next byte boundary.
        while i < bit_hi && !i.is_multiple_of(8) {
            e += step(words, i);
            i += 1;
            if e == target {
                return Some(i);
            }
        }
        // Byte-at-a-time middle.
        while i + 8 <= bit_hi {
            let b = ((words[i >> 6] >> (i & 63)) & 0xFF) as usize;
            let diff = target - e;
            if i32::from(EXCESS_TABLES.fwd_min[b]) <= diff
                && diff <= i32::from(EXCESS_TABLES.fwd_max[b])
            {
                for _ in 0..8 {
                    e += step(words, i);
                    i += 1;
                    if e == target {
                        return Some(i);
                    }
                }
                unreachable!("byte table promised the value in this byte");
            }
            e += i32::from(EXCESS_TABLES.delta[b]);
            i += 8;
        }
        // Tail bits.
        while i < bit_hi {
            e += step(words, i);
            i += 1;
            if e == target {
                return Some(i);
            }
        }
        None
    }

    /// Largest `q ≤ from` with `excess(q) == target`.
    fn bwd_value_search(&self, from: usize, target: i32) -> Option<usize> {
        self.bwd_value_search_at(from, self.excess(from), target)
    }

    /// [`Self::bwd_value_search`] with `excess(from)` already known.
    fn bwd_value_search_at(&self, from: usize, e: i32, target: i32) -> Option<usize> {
        debug_assert_eq!(e, self.excess(from));
        let b0 = from / BLOCK;
        let block_start = b0 * BLOCK;
        if e == target {
            return Some(from);
        }
        if let Some(q) = self.scan_bwd(block_start, from, e, target) {
            return Some(q);
        }
        if b0 == 0 {
            return None;
        }
        // Locate the rightmost earlier block containing the target value.
        let b = self.seg_find_last(b0 - 1, target)?;
        let start = b * BLOCK;
        let end = (b + 1) * BLOCK - 1; // last value index in block b
        let e = self.excess(end);
        if e == target {
            return Some(end);
        }
        match self.scan_bwd(start, end, e, target) {
            Some(q) => Some(q),
            None => unreachable!("segment tree promised the value in block {b}"),
        }
    }

    /// Largest position `q ∈ [bit_lo, bit_hi)` with `excess(q) == target`,
    /// given `e = excess(bit_hi)`; byte-skipping mirror of [`Self::scan_fwd`]
    /// using the suffix-excess tables.
    fn scan_bwd(&self, bit_lo: usize, bit_hi: usize, mut e: i32, target: i32) -> Option<usize> {
        let words = self.rs.bit_vec().words();
        let step = |w: &[u64], i: usize| -> i32 {
            if (w[i >> 6] >> (i & 63)) & 1 == 1 {
                1
            } else {
                -1
            }
        };
        let mut i = bit_hi;
        // Head: single bits down to a byte boundary.
        while i > bit_lo && !i.is_multiple_of(8) {
            i -= 1;
            e -= step(words, i);
            if e == target {
                return Some(i);
            }
        }
        // Byte-at-a-time middle (positions i-8..i-1, excess taken *before*
        // each byte's bits going backwards).
        while i >= bit_lo + 8 {
            let b = ((words[(i - 8) >> 6] >> ((i - 8) & 63)) & 0xFF) as usize;
            let diff = e - target;
            if i32::from(EXCESS_TABLES.suf_min[b]) <= diff
                && diff <= i32::from(EXCESS_TABLES.suf_max[b])
            {
                for _ in 0..8 {
                    i -= 1;
                    e -= step(words, i);
                    if e == target {
                        return Some(i);
                    }
                }
                unreachable!("byte table promised the value in this byte");
            }
            e -= i32::from(EXCESS_TABLES.delta[b]);
            i -= 8;
        }
        // Tail bits.
        while i > bit_lo {
            i -= 1;
            e -= step(words, i);
            if e == target {
                return Some(i);
            }
        }
        None
    }

    /// Leftmost leaf block `≥ from_block` whose excess interval contains `t`.
    fn seg_find_first(&self, from_block: usize, t: i32) -> Option<usize> {
        self.seg_first_rec(1, 0, self.seg_leaves, from_block, t)
    }

    fn seg_first_rec(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        from: usize,
        t: i32,
    ) -> Option<usize> {
        if hi <= from {
            return None;
        }
        let (mn, mx) = self.seg_at(node);
        if t < mn || t > mx {
            return None;
        }
        if hi - lo == 1 {
            return Some(lo);
        }
        let mid = (lo + hi) / 2;
        self.seg_first_rec(2 * node, lo, mid, from, t)
            .or_else(|| self.seg_first_rec(2 * node + 1, mid, hi, from, t))
    }

    /// Rightmost leaf block `≤ to_block` whose excess interval contains `t`.
    fn seg_find_last(&self, to_block: usize, t: i32) -> Option<usize> {
        self.seg_last_rec(1, 0, self.seg_leaves, to_block, t)
    }

    fn seg_last_rec(&self, node: usize, lo: usize, hi: usize, to: usize, t: i32) -> Option<usize> {
        if lo > to {
            return None;
        }
        let (mn, mx) = self.seg_at(node);
        if t < mn || t > mx {
            return None;
        }
        if hi - lo == 1 {
            return Some(lo);
        }
        let mid = (lo + hi) / 2;
        self.seg_last_rec(2 * node + 1, mid, hi, to, t)
            .or_else(|| self.seg_last_rec(2 * node, lo, mid, to, t))
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.rs.heap_bytes() + self.seg.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp_of(s: &str) -> Bp {
        Bp::new(s.chars().map(|c| c == '(').collect())
    }

    /// Naive matching-parenthesis reference.
    fn naive_close(s: &str, i: usize) -> Option<usize> {
        let b: Vec<bool> = s.chars().map(|c| c == '(').collect();
        if !b[i] {
            return None;
        }
        let mut d = 1i32;
        for (j, &open) in b.iter().enumerate().skip(i + 1) {
            d += if open { 1 } else { -1 };
            if d == 0 {
                return Some(j);
            }
        }
        None
    }

    fn naive_enclose(s: &str, i: usize) -> Option<usize> {
        let b: Vec<bool> = s.chars().map(|c| c == '(').collect();
        if !b[i] || i == 0 {
            return None;
        }
        let mut d = 0i32;
        for j in (0..i).rev() {
            if b[j] {
                if d == 0 {
                    return Some(j);
                }
                d -= 1;
            } else {
                d += 1;
            }
        }
        None
    }

    fn check_all(s: &str) {
        let bp = bp_of(s);
        for i in 0..s.len() {
            if bp.is_open(i) {
                let close = bp.find_close(i);
                assert_eq!(close, naive_close(s, i), "find_close({i}) on {s}");
                if let Some(c) = close {
                    assert_eq!(bp.find_open(c), Some(i), "find_open({c}) on {s}");
                }
                assert_eq!(bp.enclose(i), naive_enclose(s, i), "enclose({i}) on {s}");
            }
        }
    }

    #[test]
    fn enclosing_close_matches_find_close_of_enclose() {
        for s in ["(()(()))", "((()()())())", "()", "(((())))(())"] {
            let bp = bp_of(s);
            for p in 0..bp.len() {
                if !bp.is_open(p) {
                    continue;
                }
                let expected = bp.enclose(p).and_then(|q| bp.find_close(q));
                let got = bp.enclosing_close_with_rank(p, bp.rank_open(p));
                assert_eq!(got, expected, "{s} at {p}");
            }
        }
    }

    #[test]
    fn tiny_sequences() {
        check_all("()");
        check_all("(())");
        check_all("()()");
        check_all("((()())())");
    }

    #[test]
    fn deep_nesting_crossing_blocks() {
        let depth = 3 * BLOCK;
        let s: String = "(".repeat(depth) + &")".repeat(depth);
        let bp = bp_of(&s);
        for i in [0, 1, BLOCK, depth - 1] {
            assert_eq!(bp.find_close(i), Some(2 * depth - 1 - i));
            if i > 0 {
                assert_eq!(bp.enclose(i), Some(i - 1));
            }
        }
        assert_eq!(bp.enclose(0), None);
    }

    #[test]
    fn wide_flat_tree_crossing_blocks() {
        let kids = 2 * BLOCK;
        let s: String = "(".to_string() + &"()".repeat(kids) + ")";
        let bp = bp_of(&s);
        assert_eq!(bp.find_close(0), Some(2 * kids + 1));
        for k in 0..kids {
            let open = 1 + 2 * k;
            assert_eq!(bp.find_close(open), Some(open + 1));
            assert_eq!(bp.enclose(open), Some(0));
        }
    }

    #[test]
    fn pseudorandom_trees() {
        // Generate random balanced sequences via a random walk that is forced
        // to stay positive and return to zero.
        let mut x = 12345u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..10 {
            let n = 600 + (rnd() % 512) as usize;
            let mut s = String::new();
            let mut depth = 0usize;
            let mut remaining = n;
            while remaining > 0 {
                let must_open = depth == 0;
                let must_close = depth >= remaining;
                if must_open || (!must_close && rnd() % 2 == 0) {
                    s.push('(');
                    depth += 1;
                } else {
                    s.push(')');
                    depth -= 1;
                }
                remaining -= 1;
            }
            while depth > 0 {
                s.push(')');
                depth -= 1;
            }
            check_all(&s);
        }
    }

    #[test]
    fn excess_matches_definition() {
        let s = "(()((})".replace('}', ")"); // "(()(())" prefix — unbalanced OK
        let bp = bp_of(&s);
        let mut e = 0i32;
        for p in 0..=s.len() {
            assert_eq!(bp.excess(p), e);
            if p < s.len() {
                e += if s.as_bytes()[p] == b'(' { 1 } else { -1 };
            }
        }
    }
}
