//! Offline stand-in for `rand_chacha`, providing [`ChaCha8Rng`].
//!
//! A ChaCha8 keystream (IETF block layout: 64-bit block counter in words
//! 12..14, zero stream id in words 14..16), seeded through the shim `rand`
//! crate's [`SeedableRng`]. The stream is pinned: the known-answer tests at
//! the bottom of this file digest its words, and every seeded solver,
//! journal and digest in the workspace reads it word for word, so a change
//! that moves one word fails them. It is not compared with upstream
//! `rand_chacha`.
//!
//! ## Refill
//!
//! Every refill computes the next 8 consecutive blocks and fills the
//! 128-word buffer in stream order: block `l` of the batch is
//! `buf[16 * l..16 * l + 16]`. The round function runs the rounds of all 8
//! blocks as one loop over lanes, collects each cipher word as one
//! `[u32; 8]` row, then writes the rows out block by block. LLVM
//! vectorizes that loop: under the `x86-64-v3` codegen floor every round
//! operation is one AVX2 instruction on 8 blocks. There is no `unsafe`, no
//! `std::arch` and no other path.
//!
//! [`RngCore::next_u32`] is `#[inline]`, so a draw inside a consumer's loop
//! is a bounds check and a load; only the refill is a call.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
/// Blocks per refill.
const LANES: usize = 8;
const BUF_WORDS: usize = BLOCK_WORDS * LANES;
/// "expand 32-byte k": cipher words 0..4.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Deterministic seeded RNG backed by the ChaCha8 stream cipher.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// 256-bit key: cipher words 4..12.
    key: [u32; 8],
    /// Counter of the next block to compute: cipher words 12..14.
    counter: u64,
    /// Keystream words in stream order (see the module doc for the layout).
    buf: [u32; BUF_WORDS],
    /// Next unserved word in `buf`; `BUF_WORDS` means "refill".
    cursor: usize,
}

#[inline(always)]
fn quarter_round(x: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

#[inline(always)]
fn double_round(x: &mut [u32; BLOCK_WORDS]) {
    // Column round.
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    // Diagonal round.
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
}

/// Computes the 8 keystream blocks from block `counter` on into `out`,
/// block after block.
///
/// The loop over lanes is the innermost loop, with one block's scalar
/// rounds as its body, so LLVM vectorizes it across the 8 blocks: every
/// operation of a round becomes one 8-wide AVX2 instruction. That needs the
/// four double rounds written out straight.
#[inline(always)]
fn chacha_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    let mut lanes = [[0u32; LANES]; BLOCK_WORDS];
    for l in 0..LANES {
        // Adding in u64 carries word 12 into word 13.
        let block = counter.wrapping_add(l as u64);
        let mut input = [0u32; BLOCK_WORDS];
        input[..4].copy_from_slice(&CONSTANTS);
        input[4..12].copy_from_slice(key);
        input[12] = block as u32;
        input[13] = (block >> 32) as u32;
        let mut x = input;
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        double_round(&mut x);
        for (lane, (&v, &i)) in lanes.iter_mut().zip(x.iter().zip(&input)) {
            lane[l] = v.wrapping_add(i);
        }
    }
    for (l, block) in out.chunks_exact_mut(BLOCK_WORDS).enumerate() {
        for (o, lane) in block.iter_mut().zip(&lanes) {
            *o = lane[l];
        }
    }
}

impl ChaCha8Rng {
    /// Refills `buf` with the next 8 blocks and serves its first word. Out
    /// of line, so the inlined draw stays small.
    #[inline(never)]
    fn refill_and_next(&mut self) -> u32 {
        chacha_blocks(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.cursor = 1;
        self.buf[0]
    }
}

#[cfg(test)]
impl ChaCha8Rng {
    /// The stream of `seed` positioned at the start of block `block`.
    fn at_block(seed: u64, block: u64) -> Self {
        let mut rng = Self::seed_from_u64(seed);
        rng.counter = block;
        rng
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    #[inline]
    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            cursor: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        match self.buf.get(self.cursor) {
            Some(&w) => {
                self.cursor += 1;
                w
            }
            None => self.refill_and_next(),
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv_words(words: impl IntoIterator<Item = u32>) -> u64 {
        fnv_bytes(words.into_iter().flat_map(u32::to_le_bytes))
    }

    fn fnv_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn words(rng: &mut ChaCha8Rng, n: usize) -> Vec<u32> {
        (0..n).map(|_| rng.next_u32()).collect()
    }

    /// Words 0..300 span the first 16-word block and two 128-word refills
    /// after it, so every buffer boundary a refill strategy could move is
    /// inside the digest.
    #[test]
    fn keystream_is_pinned() {
        let got = [0, 1, 42, u64::MAX]
            .map(|seed| fnv_words(words(&mut ChaCha8Rng::seed_from_u64(seed), 300)));
        assert_eq!(got, KEYSTREAM_PINS, "{got:#018x?}");
    }

    #[test]
    fn mixed_widths_read_the_word_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut mixed = Vec::new();
        // One u32 then two u64s, so u64 reads straddle refill boundaries.
        while mixed.len() < 300 {
            mixed.push(rng.next_u32());
            for _ in 0..2 {
                let x = rng.next_u64();
                mixed.extend([x as u32, (x >> 32) as u32]);
            }
        }
        assert_eq!(mixed, words(&mut ChaCha8Rng::seed_from_u64(42), 300));
        assert_eq!(fnv_words(mixed), KEYSTREAM_PINS[2]);
    }

    #[test]
    fn fill_bytes_is_pinned() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut bytes = Vec::new();
        // Remainders 1, 2, 3 and 0, the long fills crossing refills.
        for len in [5, 6, 7, 8, 513, 1026, 1031] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            bytes.extend(buf);
        }
        assert_eq!(fnv_bytes(bytes), FILL_PIN, "fill_bytes digest moved");
    }

    #[test]
    fn clone_mid_batch_continues_identically() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        words(&mut a, 16 + 37);
        let mut b = a.clone();
        let rest = words(&mut a, 300);
        assert_eq!(rest, words(&mut b, 300));
        let fresh = words(&mut ChaCha8Rng::seed_from_u64(42), 16 + 37 + 300);
        assert_eq!(rest, fresh[16 + 37..]);
    }

    /// Block 2^32 carries word 12 into word 13; a stream started three
    /// blocks earlier crosses that carry inside its first refills.
    #[test]
    fn block_counter_carries_into_the_high_word() {
        let mut rng = ChaCha8Rng::at_block(5, (1 << 32) - 3);
        let stream = words(&mut rng, 16 * 12);
        assert_eq!(
            stream[48..64],
            words(&mut ChaCha8Rng::at_block(5, 1 << 32), 16)
        );
        assert_ne!(stream[48..64], words(&mut ChaCha8Rng::at_block(5, 0), 16));
        assert_eq!(fnv_words(stream), CARRY_PIN, "carry digest moved");
    }

    const KEYSTREAM_PINS: [u64; 4] = [
        0x442d_bd81_05a5_68fc,
        0x568d_c1e1_445b_7e9e,
        0xa829_1d4a_05c3_1dd0,
        0xf60e_b748_2cd2_8f20,
    ];
    const FILL_PIN: u64 = 0xf436_4a55_17de_bb4d;
    const CARRY_PIN: u64 = 0x1287_7be7_977f_c806;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams for different seeds nearly identical");
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn counter_advances_across_blocks() {
        let mut a = ChaCha8Rng::seed_from_u64(3);
        let first_block: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        assert_ne!(first_block, second_block, "keystream repeated a block");
    }

    #[test]
    fn matches_rfc7539_chacha20_structure_sanity() {
        // Not an RFC vector (we run 8 rounds, not 20); instead check the
        // avalanche property: flipping one seed bit changes most outputs.
        let mut seed = [0u8; 32];
        let base = ChaCha8Rng::from_seed(seed);
        seed[0] ^= 1;
        let flipped = ChaCha8Rng::from_seed(seed);
        let (mut b, mut f) = (base, flipped);
        let diff = (0..64).filter(|_| b.next_u32() != f.next_u32()).count();
        assert!(
            diff > 60,
            "only {diff}/64 words differ after 1-bit seed flip"
        );
    }
}
