//! The zero-bit-waste 3-bit packing layout (paper Fig. 6a).
//!
//! Every group of 32 consecutive INT3 weights packs into exactly three
//! `u32` words — 96 bits, no waste (a naive 10-per-word packing wastes 2
//! bits per word, 6.25%). Each physical word carries **8 weights** placed
//! where the de-quantization bit trick wants them, plus an 8-bit slice of
//! a fourth *virtual* word:
//!
//! ```text
//! bits   0..12   : four weights in the low  FP16 lane (3 bits each)
//! bits  12..16   : 4 "rest" bits (slice of the virtual word)
//! bits  16..28   : four weights in the high FP16 lane (3 bits each)
//! bits  28..32   : 4 more "rest" bits
//! ```
//!
//! Within a word, weight slot `s ∈ 0..4` of the low lane holds the
//! group-local weight `8·w + 2·s` and slot `s` of the high lane holds
//! `8·w + 2·s + 1`, so one masked extraction yields an FP16 *pair* —
//! two de-quantized values per emulated instruction (register-level
//! parallelism, §3.3). The virtual word (weights 24..31) is reassembled
//! from the six rest slices with shift/OR operations — the "3 bit-shift
//! operations and |= operations" of the paper.

/// Number of weights per packing group.
pub const GROUP: usize = 32;
/// Number of physical `u32` words per packing group.
pub const WORDS_PER_GROUP: usize = 3;

/// Mask selecting a 3-bit payload at the base of each FP16 lane.
pub const LANE_MASK_LO: u32 = 0x0007_0007;
/// Mask selecting a 3-bit payload three bits up in each FP16 lane (the
/// `1024 + 8e` path).
pub const LANE_MASK_HI: u32 = 0x0038_0038;

/// Inserts eight 3-bit codes into a word's weight positions.
///
/// `codes[s]` for `s ∈ 0..4` go to the low lane, `codes[4 + s]` to the
/// high lane; consecutive slots are 3 bits apart.
fn place_eight(codes: &[u8]) -> u32 {
    debug_assert_eq!(codes.len(), 8);
    let mut w = 0u32;
    for s in 0..4 {
        w |= (codes[s] as u32 & 0x7) << (3 * s); // low lane: bits 0..12
        w |= (codes[4 + s] as u32 & 0x7) << (16 + 3 * s); // high lane: bits 16..28
    }
    w
}

/// Extracts the eight 3-bit codes from a word's weight positions
/// (inverse of [`place_eight`]).
fn extract_eight(w: u32) -> [u8; 8] {
    let mut out = [0u8; 8];
    for s in 0..4 {
        out[s] = ((w >> (3 * s)) & 0x7) as u8;
        out[4 + s] = ((w >> (16 + 3 * s)) & 0x7) as u8;
    }
    out
}

/// Interleaves 8 group-local weights for word `w`: low-lane slots take
/// even positions, high-lane slots take odd positions.
fn interleave(word_weights: &[u8; 8]) -> [u8; 8] {
    // word_weights is in original order e0..e7 (relative to the word);
    // returns [e0, e2, e4, e6, e1, e3, e5, e7] for place_eight.
    [
        word_weights[0],
        word_weights[2],
        word_weights[4],
        word_weights[6],
        word_weights[1],
        word_weights[3],
        word_weights[5],
        word_weights[7],
    ]
}

/// Inverse of [`interleave`].
fn deinterleave(lanes: &[u8; 8]) -> [u8; 8] {
    [
        lanes[0], lanes[4], lanes[1], lanes[5], lanes[2], lanes[6], lanes[3], lanes[7],
    ]
}

/// Packs 32 INT3 codes into three `u32` words.
///
/// # Panics
///
/// Panics (debug) if any code exceeds 7.
pub fn pack_group(codes: &[u8; GROUP]) -> [u32; WORDS_PER_GROUP] {
    debug_assert!(codes.iter().all(|&c| c <= 7), "INT3 codes must be 0..8");
    // Virtual word for weights 24..31, in the same lane layout.
    let mut tail_weights = [0u8; 8];
    tail_weights.copy_from_slice(&codes[24..32]);
    let w3 = place_eight(&interleave(&tail_weights));

    let mut words = [0u32; WORDS_PER_GROUP];
    for (w, word) in words.iter_mut().enumerate() {
        let mut ww = [0u8; 8];
        ww.copy_from_slice(&codes[8 * w..8 * w + 8]);
        *word = place_eight(&interleave(&ww));
    }
    // Distribute the virtual word's 24 significant bits (positions 0..12
    // and 16..28) across the three words' free nibbles (bits 12..16 and
    // 28..32).
    //   word0[12..16) <- w3[ 0.. 4)   word0[28..32) <- w3[ 4.. 8)
    //   word1[12..16) <- w3[ 8..12)   word1[28..32) <- w3[16..20)
    //   word2[12..16) <- w3[20..24)   word2[28..32) <- w3[24..28)
    words[0] |= (w3 & 0x0000_000F) << 12;
    words[0] |= ((w3 >> 4) & 0xF) << 28;
    words[1] |= ((w3 >> 8) & 0xF) << 12;
    words[1] |= ((w3 >> 16) & 0xF) << 28;
    words[2] |= ((w3 >> 20) & 0xF) << 12;
    words[2] |= ((w3 >> 24) & 0xF) << 28;
    words
}

/// Reassembles the virtual fourth word from the three physical words'
/// rest nibbles — the shift/OR recombination the kernel performs on the
/// group boundary.
pub fn virtual_word(words: &[u32; WORDS_PER_GROUP]) -> u32 {
    ((words[0] >> 12) & 0xF)
        | (((words[0] >> 28) & 0xF) << 4)
        | (((words[1] >> 12) & 0xF) << 8)
        | (((words[1] >> 28) & 0xF) << 16)
        | (((words[2] >> 12) & 0xF) << 20)
        | (((words[2] >> 28) & 0xF) << 24)
}

/// Unpacks three `u32` words back into 32 INT3 codes (inverse of
/// [`pack_group`]).
pub fn unpack_group(words: &[u32; WORDS_PER_GROUP]) -> [u8; GROUP] {
    let mut out = [0u8; GROUP];
    for (w, &word) in words.iter().enumerate() {
        let codes = deinterleave(&extract_eight(word));
        out[8 * w..8 * w + 8].copy_from_slice(&codes);
    }
    let tail = deinterleave(&extract_eight(virtual_word(words)));
    out[24..32].copy_from_slice(&tail);
    out
}

/// The weight codes a single physical word contributes directly (in
/// group-local order `8w..8w+8`), used by the streaming de-quantizer.
pub fn word_codes(word: u32) -> [u8; 8] {
    deinterleave(&extract_eight(word))
}

/// Storage bytes for `n` codes under the zero-waste layout (exactly
/// 3 bits per code, in 96-bit group units).
pub fn zero_waste_bytes(n: usize) -> usize {
    n.div_ceil(GROUP) * WORDS_PER_GROUP * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_tensor::rng::Rng;
    use milo_tensor::rng::SeedableRng;

    fn random_codes(seed: u64) -> [u8; GROUP] {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        let mut c = [0u8; GROUP];
        for v in &mut c {
            *v = rng.gen_range(0..8);
        }
        c
    }

    #[test]
    fn pack_unpack_round_trip() {
        for seed in 0..50 {
            let codes = random_codes(seed);
            assert_eq!(unpack_group(&pack_group(&codes)), codes, "seed {seed}");
        }
    }

    #[test]
    fn all_zero_and_all_seven() {
        assert_eq!(unpack_group(&pack_group(&[0; GROUP])), [0; GROUP]);
        assert_eq!(unpack_group(&pack_group(&[7; GROUP])), [7; GROUP]);
    }

    #[test]
    fn ninety_six_bits_no_waste() {
        // Every one of the 96 storage bits is significant: flipping any
        // bit of the packed words changes the unpacked codes.
        let codes = random_codes(42);
        let packed = pack_group(&codes);
        for w in 0..WORDS_PER_GROUP {
            for bit in 0..32 {
                let mut mutated = packed;
                mutated[w] ^= 1 << bit;
                assert_ne!(
                    unpack_group(&mutated),
                    codes,
                    "flipping word {w} bit {bit} was silent — wasted bit"
                );
            }
        }
    }

    #[test]
    fn each_word_carries_its_eight_weights() {
        let mut codes = [0u8; GROUP];
        for (i, c) in codes.iter_mut().enumerate() {
            *c = (i % 8) as u8;
        }
        let packed = pack_group(&codes);
        for w in 0..WORDS_PER_GROUP {
            let direct = word_codes(packed[w]);
            assert_eq!(&direct, &codes[8 * w..8 * w + 8]);
        }
    }

    #[test]
    fn virtual_word_carries_tail_weights() {
        let mut codes = [0u8; GROUP];
        for (i, c) in codes.iter_mut().enumerate().skip(24) {
            *c = (i - 24) as u8 % 8;
        }
        let packed = pack_group(&codes);
        let tail = word_codes(virtual_word(&packed));
        assert_eq!(&tail, &codes[24..32]);
    }

    #[test]
    fn lane_masks_select_weight_bits() {
        // Low lane slot 0 and high lane slot 0 are selected by
        // LANE_MASK_LO; slot 1 by LANE_MASK_HI after no shift.
        let mut codes = [0u8; GROUP];
        codes[0] = 0x5; // low lane slot 0 of word 0
        codes[1] = 0x3; // high lane slot 0 of word 0
        let w = pack_group(&codes)[0];
        assert_eq!(w & LANE_MASK_LO, 0x5 | (0x3 << 16));
    }

    #[test]
    fn distinct_groups_produce_distinct_words() {
        let a = pack_group(&random_codes(1));
        let b = pack_group(&random_codes(2));
        assert_ne!(a, b);
    }

    #[test]
    fn zero_waste_saves_the_paper_quoted_fraction() {
        // 320 codes: the naive ten-per-word packing uses 32 words
        // (128 B), zero-waste uses 30 words (120 B) — the 1/16 (6.25%)
        // the paper's "zero bit waste" packing reclaims.
        let n = 320usize;
        let naive_b = n.div_ceil(10) * 4;
        let zw_b = zero_waste_bytes(n);
        assert_eq!(naive_b, 128);
        assert_eq!(zw_b, 120);
        assert!((1.0 - zw_b as f64 / naive_b as f64 - 0.0625).abs() < 1e-9);
    }
}
