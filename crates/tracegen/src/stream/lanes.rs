//! The AVX-512F kernel's block machinery: lane layout, jump-ahead and the
//! candidate bitmap.
//!
//! The stream is computed in blocks of `W × L` words. Lane `j` of a block
//! covers the segment `[jL, (j+1)L)` of that block, and the block is held
//! row-major, as the kernel computes it: row `t` holds every lane's word
//! at step `t`, so stream position `c = jL + t` sits at `words[tW + j]`
//! ([`Block::word`]). When a block is used up, lane 0 resumes from lane
//! `W−1`'s end state (the next block starts exactly there), and every
//! other lane jumps its own end state ahead `(W−1)·L` steps through the
//! precomputed GF(2) matrix `M^{(W−1)L}`.
//!
//! While a block is filled, the kernel marks the positions whose word is
//! below 2⁵⁵, in stream order. A geometric trial with `fail_from ≤ 2⁴⁴`
//! (`p ≤ 2⁻⁹`) can only succeed on such a word, so
//! [`Lanes::geometric_trials`] jumps from candidate to candidate instead
//! of testing each of the ~1/p words between them.

use super::{avx512, step, trial_loop, State};
use std::sync::OnceLock;

/// Lanes per block.
pub(super) const W: usize = 8;
/// Words per lane per block. The block is `W·L` words = 128 KiB and lives
/// inline in `StreamRng`, on the generator's stack. Longer lanes mean
/// fewer jumps per word: 2048 walked candidates about 8% faster than
/// 1024, and 4096 only about 5% faster again for twice the stack.
pub(super) const L: usize = 2048;
const BLOCK: usize = W * L;
/// Candidate bitmap words per block (bit `c % 64` of word `c / 64` marks
/// position `c`).
const HIT_WORDS: usize = BLOCK / 64;
/// Every word that can succeed a trial with `fail_from ≤ 2⁴⁴` is below
/// this bound (`(x >> 11) < 2⁴⁴ ⇔ x < 2⁵⁵`).
pub(super) const CANDIDATE_BOUND: u64 = 1 << 55;
/// Largest `fail_from` the candidate walk serves: `⌈p·2⁵³⌉` for `p = 2⁻⁹`.
const CANDIDATE_MAX_FAIL_FROM: u64 = 1 << 44;
/// Steps a lane jumps between blocks.
const JUMP: usize = (W - 1) * L;

/// `M^{(W−1)L}` in four-Russians form: entry `[g][v]` is the image of the
/// state whose only set bits are the nibble `v` at bit offset `4g`. The
/// 32 KiB live in the static itself: a heap-allocated table, created in
/// the middle of the first generation run and never freed, fragmented the
/// heap and raised later peak RSS.
struct JumpTable([[State; 16]; 64]);

impl JumpTable {
    fn get() -> &'static JumpTable {
        static TABLE: OnceLock<JumpTable> = OnceLock::new();
        TABLE.get_or_init(JumpTable::build)
    }

    /// Image of each basis state under `JUMP` scalar steps, combined per
    /// nibble. Linear map, so the image of a sum is the sum of images.
    fn build() -> JumpTable {
        let mut columns = [[0u64; 4]; 256];
        for (bit, column) in columns.iter_mut().enumerate() {
            let mut s = [0u64; 4];
            s[bit / 64] = 1 << (bit % 64);
            for _ in 0..JUMP {
                step(&mut s);
            }
            *column = s;
        }
        let mut table = [[[0u64; 4]; 16]; 64];
        for (g, row) in table.iter_mut().enumerate() {
            for (v, entry) in row.iter_mut().enumerate() {
                for b in (0..4).filter(|b| v >> b & 1 == 1) {
                    xor_into(entry, &columns[4 * g + b]);
                }
            }
        }
        JumpTable(table)
    }

    /// The state `JUMP` steps after `s`.
    fn apply(&self, s: &State) -> State {
        let mut out = [0u64; 4];
        for (g, row) in self.0.iter().enumerate() {
            let nibble = (s[g / 16] >> (4 * (g % 16))) & 15;
            xor_into(&mut out, &row[nibble as usize]);
        }
        out
    }
}

fn xor_into(acc: &mut State, x: &State) {
    for (a, b) in acc.iter_mut().zip(x) {
        *a ^= b;
    }
}

/// One block of the stream and its candidate bitmap. Aligned so that each
/// row of `W` words is one cache line.
#[derive(Clone)]
#[repr(align(64))]
pub(super) struct Block {
    /// Row-major: lane `j`'s word at step `t` is `words[t·W + j]`.
    pub(super) words: [u64; BLOCK],
    /// Bit `c` set ⇔ `word(c) < CANDIDATE_BOUND`.
    pub(super) hits: [u64; HIT_WORDS],
}

impl Block {
    /// The word at stream position `c` of the block.
    #[inline(always)]
    fn word(&self, c: usize) -> u64 {
        self.words[c % L * W + c / L]
    }

    /// Mark the candidates of the 8-step group at step `i` (a multiple of
    /// 8): bit `j` of byte `r` of `masks` flags lane `j`'s word at step
    /// `i + r`.
    #[inline(always)]
    pub(super) fn mark(&mut self, i: usize, masks: u64) {
        debug_assert!(i.is_multiple_of(8) && i < L, "group at step {i}");
        // Transpose the 8×8 bit matrix, so byte `j` holds lane `j`'s
        // flags for steps `i..i+8`: eight consecutive stream positions.
        let mut x = masks;
        let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
        x ^= t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
        x ^= t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
        x ^= t ^ (t << 28);
        for j in 0..W {
            let c = j * L + i;
            self.hits[c / 64] |= ((x >> (8 * j)) & 0xff) << (c % 64);
        }
    }
}

/// The stream as blocks of lanes.
#[derive(Clone)]
pub(super) struct Lanes {
    token: avx512::Token,
    /// The current block.
    block: Block,
    /// Next unread position in `block`.
    pos: usize,
    /// Each lane's start state for the next block.
    seeds: [State; W],
}

impl Lanes {
    /// The stream from `s`, its first block not yet filled: the lane
    /// seeds are `s` stepped `0, L, 2L, …` times.
    pub(super) fn new(mut s: State, token: avx512::Token) -> Lanes {
        let mut seeds = [s; W];
        for seed in &mut seeds[1..] {
            for _ in 0..L {
                step(&mut s);
            }
            *seed = s;
        }
        Lanes {
            token,
            block: Block {
                words: [0; BLOCK],
                hits: [0; HIT_WORDS],
            },
            pos: BLOCK,
            seeds,
        }
    }

    /// Fill the next block, then seed the one after it: lane 0 continues
    /// from lane `W−1`'s end, lane `j ≥ 1` from its own end jumped
    /// `(W−1)·L` steps.
    #[cold]
    fn refill(&mut self) {
        let ends = avx512::fill(self.token, &self.seeds, &mut self.block);
        let jump = JumpTable::get();
        self.seeds = [ends[W - 1]; W];
        for (seed, end) in self.seeds.iter_mut().zip(&ends).skip(1) {
            *seed = jump.apply(end);
        }
        self.pos = 0;
    }

    #[inline]
    pub(super) fn next_u64(&mut self) -> u64 {
        if self.pos == BLOCK {
            self.refill();
        }
        let x = self.block.word(self.pos);
        self.pos += 1;
        x
    }

    /// [`super::StreamRng::geometric_trials`]: the candidate walk for
    /// `fail_from ≤ 2⁴⁴`, the trial loop otherwise.
    pub(super) fn geometric_trials(&mut self, fail_from: u64, max: u32) -> u32 {
        if fail_from > CANDIDATE_MAX_FAIL_FROM {
            return trial_loop(|| self.next_u64(), fail_from, max);
        }
        let mut left = max.saturating_sub(1) as usize;
        let mut k: u32 = 1;
        while left > 0 {
            if self.pos == BLOCK {
                self.refill();
            }
            let end = (self.pos + left).min(BLOCK);
            if let Some(c) = self.first_success(fail_from, end) {
                k += (c - self.pos) as u32;
                self.pos = c + 1;
                return k;
            }
            k += (end - self.pos) as u32;
            left -= end - self.pos;
            self.pos = end;
        }
        k
    }

    /// The first position in `pos..end` whose word succeeds a trial
    /// against `fail_from ≤ 2⁴⁴`; only candidates are looked at.
    fn first_success(&self, fail_from: u64, end: usize) -> Option<usize> {
        let mut w = self.pos / 64;
        let mut bits = self.block.hits[w] & (!0 << (self.pos % 64));
        loop {
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                if c >= end {
                    return None;
                }
                if self.block.word(c) >> 11 < fail_from {
                    return Some(c);
                }
                bits &= bits - 1;
            }
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.block.hits[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::seed_state;
    use super::super::tests::{fail_from, trials_oracle};
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn jump_table_matches_scalar_steps() {
        let jump = JumpTable::get();
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            let start = seed_state(seed);
            let mut s = start;
            for _ in 0..JUMP {
                step(&mut s);
            }
            assert_eq!(jump.apply(&start), s, "seed {seed}");
        }
    }

    #[test]
    fn cutoff_constants_agree() {
        assert_eq!(fail_from(1.0 / 512.0), CANDIDATE_MAX_FAIL_FROM);
        assert_eq!(CANDIDATE_MAX_FAIL_FROM << 11, CANDIDATE_BOUND);
    }

    /// Every block's words and bitmap against `SmallRng` and the bound,
    /// over several refills.
    #[test]
    fn blocks_and_bitmaps_match_the_scalar_stream() {
        let Some(token) = avx512::Token::detect() else {
            println!("blocks_and_bitmaps: avx512f not detected, skipped");
            return;
        };
        let mut lanes = Lanes::new(seed_state(5), token);
        let mut b = SmallRng::seed_from_u64(5);
        for block in 0..4 {
            lanes.refill();
            for c in 0..BLOCK {
                let x = b.next_u64();
                assert_eq!(lanes.block.word(c), x, "block {block} word {c}");
                let marked = lanes.block.hits[c / 64] >> (c % 64) & 1 == 1;
                assert_eq!(marked, x < CANDIDATE_BOUND, "block {block} bit {c}");
            }
        }
    }

    /// The words at every lane's first and last step, against `SmallRng`,
    /// through [`Block::word`] and at their row-major places.
    #[test]
    fn block_words_at_lane_starts_and_ends_match_the_scalar_stream() {
        let Some(token) = avx512::Token::detect() else {
            println!("lane_starts_and_ends: avx512f not detected, skipped");
            return;
        };
        let mut lanes = Lanes::new(seed_state(17), token);
        let mut b = SmallRng::seed_from_u64(17);
        for block in 0..3 {
            lanes.refill();
            let stream: Vec<u64> = (0..BLOCK).map(|_| b.next_u64()).collect();
            for j in 0..W {
                for c in [j * L, j * L + L - 1] {
                    assert_eq!(lanes.block.word(c), stream[c], "block {block} word {c}");
                }
                assert_eq!(lanes.block.words[j], stream[j * L]);
                assert_eq!(lanes.block.words[(L - 1) * W + j], stream[j * L + L - 1]);
            }
        }
    }

    /// Read words from `a` and `b` in step until `a` is at position `at`.
    fn park(a: &mut Lanes, b: &mut SmallRng, at: usize) {
        while a.pos != at {
            assert_eq!(a.next_u64(), b.next_u64(), "parking at {at}");
        }
    }

    /// Walks that start in lane `j` and end in lane `j + 1` of the same
    /// block: neighbours in the stream, not in memory. Each all-failing
    /// walk ends a fixed distance past the boundary; each `p = 0.000125`
    /// walk is capped at one lane's length.
    #[test]
    fn geometric_from_one_lane_into_the_next() {
        let Some(token) = avx512::Token::detect() else {
            println!("lane_crossings: avx512f not detected, skipped");
            return;
        };
        let ff = fail_from(0.000125);
        for lead in [1, 2, 7, 64] {
            // Each walk ends before the next one's start (`lead ≤ 64`).
            for (fail_from, max) in [(0, 2 * lead as u32 + 1), (ff, L as u32)] {
                let mut a = Lanes::new(seed_state(13), token);
                let mut b = SmallRng::seed_from_u64(13);
                for block in 0..2 {
                    for j in 0..W - 1 {
                        park(&mut a, &mut b, (j + 1) * L - lead);
                        assert_eq!(
                            a.geometric_trials(fail_from, max),
                            trials_oracle(&mut b, fail_from, max)
                        );
                        if fail_from == 0 {
                            assert_eq!(a.pos, (j + 1) * L + lead, "block {block} lane {j}");
                        }
                        assert_eq!(a.next_u64(), b.next_u64(), "block {block} lane {j}");
                    }
                }
            }
        }
    }

    /// `next_u64` right after a walk that stops exactly on a lane boundary,
    /// and one word short of it.
    #[test]
    fn next_u64_after_a_walk_that_stops_on_a_lane_boundary() {
        let Some(token) = avx512::Token::detect() else {
            println!("lane_stops: avx512f not detected, skipped");
            return;
        };
        for lead in [1, 2, 7, 64] {
            for short in [0, 1] {
                let mut a = Lanes::new(seed_state(19), token);
                let mut b = SmallRng::seed_from_u64(19);
                for block in 0..2 {
                    for j in 1..W {
                        park(&mut a, &mut b, j * L - lead - short);
                        let max = lead as u32 + 1;
                        assert_eq!(a.geometric_trials(0, max), trials_oracle(&mut b, 0, max));
                        assert_eq!(a.pos, j * L - short, "block {block} lane {j}");
                        assert_eq!(a.next_u64(), b.next_u64(), "block {block} lane {j}");
                    }
                }
            }
        }
    }

    /// Draws that end exactly on a block boundary, and draws that
    /// straddle one, from several offsets near the end of a block.
    #[test]
    fn geometric_at_and_across_block_boundaries() {
        let Some(token) = avx512::Token::detect() else {
            println!("geometric_boundaries: avx512f not detected, skipped");
            return;
        };
        for p in [0.000125, 1.0 / 600.0] {
            let ff = fail_from(p);
            for lead in [1, 2, 3, 7, 64] {
                let mut a = Lanes::new(seed_state(3), token);
                let mut b = SmallRng::seed_from_u64(3);
                for _ in 0..3 {
                    // Park `lead` words before the boundary.
                    while BLOCK - a.pos != lead {
                        assert_eq!(a.next_u64(), b.next_u64());
                    }
                    // All trials fail up to the boundary: ends exactly on
                    // it when max − 1 = lead.
                    let exact = lead as u32 + 1;
                    assert_eq!(
                        a.geometric_trials(0, exact),
                        trials_oracle(&mut b, 0, exact)
                    );
                    assert_eq!(a.pos, BLOCK);
                    assert_eq!(a.next_u64(), b.next_u64());
                    while BLOCK - a.pos != lead {
                        assert_eq!(a.next_u64(), b.next_u64());
                    }
                    // Straddles the boundary (and usually succeeds in a
                    // later block).
                    assert_eq!(
                        a.geometric_trials(ff, 3 * BLOCK as u32),
                        trials_oracle(&mut b, ff, 3 * BLOCK as u32)
                    );
                    assert_eq!(a.next_u64(), b.next_u64());
                }
            }
        }
    }
}
