//! AVX-512F fill kernel: the eight lanes' states live one word per lane
//! in four 512-bit registers, so one vector step advances every lane and
//! its eight outputs are one row of the block.
//!
//! This module is the workspace's only `unsafe` code: the
//! `#[target_feature]` call, the vector stores and the register↔array
//! transmutes.

use super::lanes::{Block, CANDIDATE_BOUND, L, W};
use super::State;
use std::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_cmplt_epu64_mask, _mm512_rol_epi64, _mm512_set1_epi64,
    _mm512_slli_epi64, _mm512_storeu_si512, _mm512_xor_si512,
};

/// Proof that this CPU supports AVX-512F: only [`Token::detect`] makes one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Token(());

impl Token {
    pub(super) fn detect() -> Option<Token> {
        std::arch::is_x86_feature_detected!("avx512f").then_some(Token(()))
    }
}

/// Fill `block` with lane `j` stepping from `seeds[j]`, mark its
/// candidates, and return each lane's end state.
pub(super) fn fill(_token: Token, seeds: &[State; W], block: &mut Block) -> [State; W] {
    // SAFETY: a `Token` exists only if `is_x86_feature_detected!("avx512f")`
    // returned true on this CPU, and AVX-512F is the only feature
    // `fill_avx512` enables.
    unsafe { fill_avx512(seeds, block) }
}

/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn fill_avx512(seeds: &[State; W], block: &mut Block) -> [State; W] {
    let word = |k: usize| -> __m512i {
        let mut lanes = [0u64; W];
        for (lane, seed) in lanes.iter_mut().zip(seeds) {
            *lane = seed[k];
        }
        // SAFETY: `[u64; 8]` and `__m512i` have the same size, and every
        // bit pattern is valid for both.
        unsafe { std::mem::transmute::<[u64; W], __m512i>(lanes) }
    };
    let (mut s0, mut s1, mut s2, mut s3) = (word(0), word(1), word(2), word(3));
    let bound = _mm512_set1_epi64(CANDIDATE_BOUND as i64);
    block.hits.fill(0);
    let out = block.words.as_mut_ptr();
    for i in (0..L).step_by(8) {
        // Byte r of `masks` marks the lanes whose step-(i + r) word is a
        // candidate.
        let mut masks = 0u64;
        for r in 0..8 {
            let row = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
            // SAFETY: `(i + r + 1)·W ≤ L·W = BLOCK`, so the unaligned
            // 64-byte store of row `i + r` stays inside `block.words`.
            unsafe { _mm512_storeu_si512(out.add((i + r) * W).cast::<__m512i>(), row) };
            masks |= u64::from(_mm512_cmplt_epu64_mask(row, bound)) << (8 * r);
            let t = _mm512_slli_epi64::<17>(s1);
            s2 = _mm512_xor_si512(s2, s0);
            s3 = _mm512_xor_si512(s3, s1);
            s1 = _mm512_xor_si512(s1, s2);
            s0 = _mm512_xor_si512(s0, s3);
            s2 = _mm512_xor_si512(s2, t);
            s3 = _mm512_rol_epi64::<45>(s3);
        }
        if masks != 0 {
            block.mark(i, masks);
        }
    }
    let lanes = |v: __m512i| -> [u64; W] {
        // SAFETY: as for `word`, the two types share size and validity.
        unsafe { std::mem::transmute::<__m512i, [u64; W]>(v) }
    };
    let (e0, e1, e2, e3) = (lanes(s0), lanes(s1), lanes(s2), lanes(s3));
    std::array::from_fn(|j| [e0[j], e1[j], e2[j], e3[j]])
}
