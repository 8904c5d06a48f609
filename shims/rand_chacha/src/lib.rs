//! Offline implementation of the ChaCha8 random number generator against
//! the local `rand` shim's traits.
//!
//! This is a faithful ChaCha core (Bernstein's quarter-round, 8 rounds,
//! 64-bit block counter) keyed from a 32-byte seed. It promises
//! determinism for a fixed seed within this workspace, not stream-level
//! bit compatibility with the upstream `rand_chacha` crate.
//!
//! Each refill computes eight consecutive blocks. On x86-64 the eight
//! blocks run side by side in the eight 32-bit lanes of AVX2 registers
//! when the CPU has AVX2 (checked at run time), and otherwise as two
//! four-block passes in the lanes of SSE2 registers (part of the x86-64
//! baseline); other targets run the scalar block function eight times.
//! All three produce the same words, and the scalar function is the
//! tests' reference.

use rand::{RngCore, SeedableRng};

/// Keystream blocks computed per refill.
const BLOCKS: usize = 8;
/// Words buffered per refill.
const BUF_WORDS: usize = 16 * BLOCKS;

/// ChaCha with 8 rounds — the annealer's reproducible workhorse rng.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key words 0..8 (the two nonce words are zero: one stream per key).
    key: [u32; 8],
    /// Block counter of the first block the next refill computes.
    counter: u64,
    /// Eight consecutive blocks: `buf[16 * b..][..16]` is block
    /// `counter - 8 + b`.
    buf: [u32; BUF_WORDS],
    /// Next unread index into `buf`; `BUF_WORDS` means exhausted.
    idx: usize,
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Number of `u32` words in a serialized [`ChaCha8Rng`] state
/// (8 key words + 2 counter halves + 16 buffer words + 1 buffer index).
pub const CHACHA_STATE_WORDS: usize = 27;

impl ChaCha8Rng {
    /// Exports the complete generator state — key, block counter, the
    /// current output block, and the next unread index into it — as a
    /// flat word array. Restoring via [`ChaCha8Rng::from_state_words`]
    /// resumes the stream bit-exactly mid-block, which is what
    /// checkpoint/resume of a seeded search needs.
    ///
    /// The layout is that of a one-block buffer: the current block is
    /// the one holding the last word read, the index runs 1..=16 within
    /// it (0 only for a restored state nothing has been read from), and
    /// the counter names the block after it.
    pub fn state_words(&self) -> [u32; CHACHA_STATE_WORDS] {
        let b = self.idx.saturating_sub(1) / 16;
        let counter = self.counter.wrapping_sub((BLOCKS - 1 - b) as u64);
        let mut w = [0u32; CHACHA_STATE_WORDS];
        w[..8].copy_from_slice(&self.key);
        w[8] = counter as u32;
        w[9] = (counter >> 32) as u32;
        w[10..26].copy_from_slice(&self.buf[16 * b..][..16]);
        w[26] = (self.idx - 16 * b) as u32;
        w
    }

    /// Rebuilds a generator from [`ChaCha8Rng::state_words`] output.
    /// The buffer index is clamped to the exhausted position so a
    /// corrupted word cannot cause an out-of-bounds read.
    pub fn from_state_words(w: &[u32; CHACHA_STATE_WORDS]) -> Self {
        let mut key = [0u32; 8];
        key.copy_from_slice(&w[..8]);
        let mut rng = Self {
            key,
            counter: w[8] as u64 | ((w[9] as u64) << 32),
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        };
        // the restored block goes first, followed by the seven blocks
        // after it; the last block of the refill is dropped
        rng.refill();
        rng.buf.copy_within(..BUF_WORDS - 16, 16);
        rng.buf[..16].copy_from_slice(&w[10..26]);
        rng.counter = rng.counter.wrapping_sub(1);
        rng.idx = (w[26] as usize).min(16);
        rng
    }

    fn refill(&mut self) {
        blocks8(&self.key, self.counter, &mut self.buf);
        self.idx = 0;
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
    }
}

/// The scalar block function: the keystream on targets without SSE2,
/// and the tests' reference everywhere.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
mod scalar {
    use super::SIGMA;

    #[inline(always)]
    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// One ChaCha8 block.
    pub(super) fn block(key: &[u32; 8], counter: u64) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        // nonce left zero: one stream per key
        let input = state;
        for _ in 0..4 {
            // a double round: 4 column rounds + 4 diagonal rounds
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (o, i) in state.iter_mut().zip(&input) {
            *o = o.wrapping_add(*i);
        }
        state
    }

    /// Blocks `counter, counter + 1, …` (wrapping) into `out`, one after
    /// the other, as many as `out` holds.
    pub(super) fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32]) {
        for (b, dst) in out.chunks_exact_mut(16).enumerate() {
            dst.copy_from_slice(&block(key, counter.wrapping_add(b as u64)));
        }
    }
}

/// Blocks `counter..counter + 8` (wrapping) into `out`, one after the
/// other: the AVX2 kernel when the CPU has it, else
/// [`blocks8_baseline`].
fn blocks8(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `blocks8_avx2` is safe code compiled with AVX2
        // enabled; its one requirement, a CPU that executes AVX2
        // instructions, is what the run-time check above established.
        unsafe { blocks8_avx2(key, counter, out) };
        return;
    }
    blocks8_baseline(key, counter, out);
}

/// [`blocks8`] on the target's baseline instruction set: two four-block
/// SSE2 passes on x86-64, the scalar block function elsewhere.
fn blocks8_baseline(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    for (h, half) in out.as_chunks_mut::<64>().0.iter_mut().enumerate() {
        blocks4(key, counter.wrapping_add(4 * h as u64), half);
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    scalar::blocks(key, counter, out);
}

/// Blocks `counter..counter + 4` (wrapping) into `out`, one after the
/// other, computed together: lane `b` of every SSE2 register belongs to
/// block `counter + b`, so register `x[k]` holds word `k` of all four.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn blocks4(key: &[u32; 8], counter: u64, out: &mut [u32; 64]) {
    use core::arch::x86_64::*;
    let ctr: [u64; 4] = core::array::from_fn(|b| counter.wrapping_add(b as u64));
    // SAFETY: the `cfg` gate compiles this only where the `sse2` target
    // feature is enabled for the whole build (every x86-64 target), so
    // each intrinsic below runs on a CPU that has it. The only memory
    // access is `_mm_storeu_si128`, an unaligned 4-word store through a
    // pointer to a 4-word subslice of `out`.
    unsafe {
        let splat = |w: u32| _mm_set1_epi32(w as i32);
        let lanes = |f: fn(u64) -> u32| {
            _mm_set_epi32(
                f(ctr[3]) as i32,
                f(ctr[2]) as i32,
                f(ctr[1]) as i32,
                f(ctr[0]) as i32,
            )
        };
        let input: [__m128i; 16] = [
            splat(SIGMA[0]),
            splat(SIGMA[1]),
            splat(SIGMA[2]),
            splat(SIGMA[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            lanes(|c| c as u32),
            lanes(|c| (c >> 32) as u32),
            _mm_setzero_si128(),
            _mm_setzero_si128(),
        ];
        let mut x = input;
        macro_rules! rotl {
            // swapping the 16-bit halves of each lane is one shuffle each way
            ($v:expr, 16) => {
                _mm_shufflehi_epi16::<0xB1>(_mm_shufflelo_epi16::<0xB1>($v))
            };
            ($v:expr, $n:literal) => {{
                let v = $v;
                _mm_or_si128(_mm_slli_epi32::<$n>(v), _mm_srli_epi32::<{ 32 - $n }>(v))
            }};
        }
        macro_rules! quarter_round {
            ($a:literal, $b:literal, $c:literal, $d:literal) => {
                x[$a] = _mm_add_epi32(x[$a], x[$b]);
                x[$d] = rotl!(_mm_xor_si128(x[$d], x[$a]), 16);
                x[$c] = _mm_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm_xor_si128(x[$b], x[$c]), 12);
                x[$a] = _mm_add_epi32(x[$a], x[$b]);
                x[$d] = rotl!(_mm_xor_si128(x[$d], x[$a]), 8);
                x[$c] = _mm_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm_xor_si128(x[$b], x[$c]), 7);
            };
        }
        for _ in 0..4 {
            quarter_round!(0, 4, 8, 12);
            quarter_round!(1, 5, 9, 13);
            quarter_round!(2, 6, 10, 14);
            quarter_round!(3, 7, 11, 15);
            quarter_round!(0, 5, 10, 15);
            quarter_round!(1, 6, 11, 12);
            quarter_round!(2, 7, 8, 13);
            quarter_round!(3, 4, 9, 14);
        }
        for (v, i) in x.iter_mut().zip(&input) {
            *v = _mm_add_epi32(*v, *i);
        }
        // transpose each group of four word registers into four
        // block-contiguous rows of four words
        for q in 0..4 {
            let [a, b, c, d] = [x[4 * q], x[4 * q + 1], x[4 * q + 2], x[4 * q + 3]];
            let (ab_lo, ab_hi) = (_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b));
            let (cd_lo, cd_hi) = (_mm_unpacklo_epi32(c, d), _mm_unpackhi_epi32(c, d));
            let rows = [
                _mm_unpacklo_epi64(ab_lo, cd_lo),
                _mm_unpackhi_epi64(ab_lo, cd_lo),
                _mm_unpacklo_epi64(ab_hi, cd_hi),
                _mm_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (b, row) in rows.into_iter().enumerate() {
                let at = 16 * b + 4 * q;
                _mm_storeu_si128(out[at..at + 4].as_mut_ptr().cast(), row);
            }
        }
    }
}

/// Blocks `counter..counter + 8` (wrapping) into `out`, one after the
/// other, computed together: lane `b` of every AVX2 register belongs to
/// block `counter + b`, so register `x[k]` holds word `k` of all eight.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[target_feature(enable = "avx2")]
fn blocks8_avx2(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    use core::arch::x86_64::*;
    let ctr = |b: u64| counter.wrapping_add(b);
    let splat = |w: u32| _mm256_set1_epi32(w as i32);
    let input: [__m256i; 16] = [
        splat(SIGMA[0]),
        splat(SIGMA[1]),
        splat(SIGMA[2]),
        splat(SIGMA[3]),
        splat(key[0]),
        splat(key[1]),
        splat(key[2]),
        splat(key[3]),
        splat(key[4]),
        splat(key[5]),
        splat(key[6]),
        splat(key[7]),
        _mm256_setr_epi32(
            ctr(0) as i32,
            ctr(1) as i32,
            ctr(2) as i32,
            ctr(3) as i32,
            ctr(4) as i32,
            ctr(5) as i32,
            ctr(6) as i32,
            ctr(7) as i32,
        ),
        // the high counter word of each lane carries on its own
        _mm256_setr_epi32(
            (ctr(0) >> 32) as i32,
            (ctr(1) >> 32) as i32,
            (ctr(2) >> 32) as i32,
            (ctr(3) >> 32) as i32,
            (ctr(4) >> 32) as i32,
            (ctr(5) >> 32) as i32,
            (ctr(6) >> 32) as i32,
            (ctr(7) >> 32) as i32,
        ),
        _mm256_setzero_si256(),
        _mm256_setzero_si256(),
    ];
    // Rotations by whole bytes are one byte shuffle within each
    // 32-bit lane (the index pattern repeats in every 128-bit half):
    // by 16, bytes [2, 3, 0, 1]; by 8, bytes [3, 0, 1, 2].
    let rot16 = _mm256_setr_epi64x(
        0x0504_0706_0100_0302,
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
        0x0d0c_0f0e_0908_0b0a,
    );
    let rot8 = _mm256_setr_epi64x(
        0x0605_0407_0201_0003,
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
        0x0e0d_0c0f_0a09_080b,
    );
    let mut x = input;
    macro_rules! rotl {
        ($v:expr, 16) => {
            _mm256_shuffle_epi8($v, rot16)
        };
        ($v:expr, 8) => {
            _mm256_shuffle_epi8($v, rot8)
        };
        ($v:expr, $n:literal) => {{
            let v = $v;
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>(v),
                _mm256_srli_epi32::<{ 32 - $n }>(v),
            )
        }};
    }
    macro_rules! quarter_round {
        ($a:literal, $b:literal, $c:literal, $d:literal) => {
            x[$a] = _mm256_add_epi32(x[$a], x[$b]);
            x[$d] = rotl!(_mm256_xor_si256(x[$d], x[$a]), 16);
            x[$c] = _mm256_add_epi32(x[$c], x[$d]);
            x[$b] = rotl!(_mm256_xor_si256(x[$b], x[$c]), 12);
            x[$a] = _mm256_add_epi32(x[$a], x[$b]);
            x[$d] = rotl!(_mm256_xor_si256(x[$d], x[$a]), 8);
            x[$c] = _mm256_add_epi32(x[$c], x[$d]);
            x[$b] = rotl!(_mm256_xor_si256(x[$b], x[$c]), 7);
        };
    }
    for _ in 0..4 {
        quarter_round!(0, 4, 8, 12);
        quarter_round!(1, 5, 9, 13);
        quarter_round!(2, 6, 10, 14);
        quarter_round!(3, 7, 11, 15);
        quarter_round!(0, 5, 10, 15);
        quarter_round!(1, 6, 11, 12);
        quarter_round!(2, 7, 8, 13);
        quarter_round!(3, 4, 9, 14);
    }
    for (v, i) in x.iter_mut().zip(&input) {
        *v = _mm256_add_epi32(*v, *i);
    }
    // Transpose each group of eight word registers (words 8g..8g+8
    // of all eight blocks) into eight block-contiguous rows: pair
    // 32-bit lanes, then 64-bit pairs, within each 128-bit half;
    // then each row takes its two 4-word halves from the low or the
    // high halves of two registers.
    for g in 0..2 {
        let r = &x[8 * g..8 * g + 8];
        let t = [
            _mm256_unpacklo_epi32(r[0], r[1]),
            _mm256_unpackhi_epi32(r[0], r[1]),
            _mm256_unpacklo_epi32(r[2], r[3]),
            _mm256_unpackhi_epi32(r[2], r[3]),
            _mm256_unpacklo_epi32(r[4], r[5]),
            _mm256_unpackhi_epi32(r[4], r[5]),
            _mm256_unpacklo_epi32(r[6], r[7]),
            _mm256_unpackhi_epi32(r[6], r[7]),
        ];
        // `u[q]` holds words 8g..8g+4 of blocks q and q + 4, and
        // `u[q + 4]` words 8g+4..8g+8 of the same two blocks
        let u = [
            _mm256_unpacklo_epi64(t[0], t[2]),
            _mm256_unpackhi_epi64(t[0], t[2]),
            _mm256_unpacklo_epi64(t[1], t[3]),
            _mm256_unpackhi_epi64(t[1], t[3]),
            _mm256_unpacklo_epi64(t[4], t[6]),
            _mm256_unpackhi_epi64(t[4], t[6]),
            _mm256_unpacklo_epi64(t[5], t[7]),
            _mm256_unpackhi_epi64(t[5], t[7]),
        ];
        for q in 0..4 {
            let rows = [
                (q, _mm256_permute2x128_si256::<0x20>(u[q], u[q + 4])),
                (q + 4, _mm256_permute2x128_si256::<0x31>(u[q], u[q + 4])),
            ];
            for (b, row) in rows {
                let at = 16 * b + 8 * g;
                // SAFETY: an unaligned 8-word store through a
                // pointer to an 8-word subslice of `out`.
                unsafe { _mm256_storeu_si256(out[at..at + 8].as_mut_ptr().cast(), row) };
            }
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.buf.get(self.idx..self.idx + 2) {
            self.idx += 2;
            return lo as u64 | ((hi as u64) << 32);
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (w, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *w = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A generator that buffers one block at a time: the reference for
    /// the stream, and for the `state_words` layout, which is defined by
    /// a one-block buffer.
    struct OneBlock {
        key: [u32; 8],
        counter: u64,
        buf: [u32; 16],
        idx: usize,
    }

    impl OneBlock {
        fn seeded(seed: u64) -> Self {
            Self::from_state_words(&ChaCha8Rng::seed_from_u64(seed).state_words())
        }

        fn from_state_words(w: &[u32; CHACHA_STATE_WORDS]) -> Self {
            Self {
                key: w[..8].try_into().unwrap(),
                counter: w[8] as u64 | ((w[9] as u64) << 32),
                buf: w[10..26].try_into().unwrap(),
                idx: (w[26] as usize).min(16),
            }
        }

        fn state_words(&self) -> [u32; CHACHA_STATE_WORDS] {
            let mut w = [0u32; CHACHA_STATE_WORDS];
            w[..8].copy_from_slice(&self.key);
            w[8] = self.counter as u32;
            w[9] = (self.counter >> 32) as u32;
            w[10..26].copy_from_slice(&self.buf);
            w[26] = self.idx as u32;
            w
        }

        fn next_u32(&mut self) -> u32 {
            if self.idx >= 16 {
                self.buf = scalar::block(&self.key, self.counter);
                self.idx = 0;
                self.counter = self.counter.wrapping_add(1);
            }
            self.idx += 1;
            self.buf[self.idx - 1]
        }

        fn next_u64(&mut self) -> u64 {
            self.next_u32() as u64 | ((self.next_u32() as u64) << 32)
        }
    }

    /// `draws` mixed `next_u32`/`next_u64` calls (the mix itself drawn
    /// from an independent rng) on both generators, comparing every value
    /// and the serialized state after each call.
    fn assert_streams_agree(
        fast: &mut ChaCha8Rng,
        reference: &mut OneBlock,
        draws: usize,
        mix: u64,
    ) {
        let mut coin = ChaCha8Rng::seed_from_u64(mix ^ 0x5eed);
        for i in 0..draws {
            if coin.gen_bool(0.5) {
                assert_eq!(
                    fast.next_u64(),
                    reference.next_u64(),
                    "next_u64 at draw {i}"
                );
            } else {
                assert_eq!(
                    fast.next_u32(),
                    reference.next_u32(),
                    "next_u32 at draw {i}"
                );
            }
            assert_eq!(
                fast.state_words(),
                reference.state_words(),
                "state at draw {i}"
            );
        }
    }

    /// A state to restore: `key_seed`'s key, the given block counter and
    /// index word, and arbitrary words as the current block.
    fn state_at(counter: u64, idx: u32, key_seed: u64) -> [u32; CHACHA_STATE_WORDS] {
        let mut w = ChaCha8Rng::seed_from_u64(key_seed).state_words();
        w[8] = counter as u32;
        w[9] = (counter >> 32) as u32;
        let mut fill = ChaCha8Rng::seed_from_u64(!key_seed);
        for x in &mut w[10..26] {
            *x = fill.next_u32();
        }
        w[26] = idx;
        w
    }

    #[test]
    fn known_answer_words() {
        // (seed, first four next_u64, next_u32 words 126..130)
        let cases: [(u64, [u64; 4], [u32; 4]); 3] = [
            (
                0,
                [
                    0xbf94d1332d8ee5e8,
                    0x3a738775a6da5a01,
                    0x3d46ff10c143ee06,
                    0x17c6ab23e9f6424f,
                ],
                [0xf904acb6, 0x6dc28391, 0x4f3612bb, 0xef97d603],
            ),
            (
                1,
                [
                    0xef72eaf448a8b558,
                    0x8a33ba97599a55b3,
                    0x0c40074ee248f1ee,
                    0xdbb160985b660e10,
                ],
                [0xdc145066, 0x7a9df768, 0xdde32fd0, 0xc9d15a4f],
            ),
            (
                42,
                [
                    0x31159ef987c91afc,
                    0x17559844b4169001,
                    0xf7d0afbf9ad9a69f,
                    0xb9207ad5fd37495a,
                ],
                [0xd63671e1, 0x2f23037d, 0xd6387e2e, 0xc2198d70],
            ),
        ];
        for (seed, head, tail) in cases {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_eq!(head.map(|_| rng.next_u64()), head, "seed {seed}");
            for _ in 8..126 {
                rng.next_u32();
            }
            assert_eq!(tail.map(|_| rng.next_u32()), tail, "seed {seed}");
        }
    }

    #[test]
    fn eight_block_kernels_match_scalar_blocks() {
        let mut keys = ChaCha8Rng::seed_from_u64(7);
        // carries into word 13 and wraps in the low four lanes, where
        // the two four-block halves meet, and in the high four
        for counter in [
            0,
            1,
            (1 << 32) - 6,
            (1 << 32) - 4,
            (1 << 32) - 2,
            (1 << 32) - 1,
            u64::MAX - 5,
            u64::MAX - 3,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let key: [u32; 8] = core::array::from_fn(|_| keys.next_u32());
            let mut reference = [0u32; BUF_WORDS];
            scalar::blocks(&key, counter, &mut reference);
            let mut baseline = [0u32; BUF_WORDS];
            blocks8_baseline(&key, counter, &mut baseline);
            assert_eq!(baseline, reference, "baseline refill, counter {counter:#x}");
            let mut dispatched = [0u32; BUF_WORDS];
            blocks8(&key, counter, &mut dispatched);
            assert_eq!(dispatched, reference, "refill, counter {counter:#x}");
            #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
            if std::is_x86_feature_detected!("avx2") {
                let mut avx2 = [0u32; BUF_WORDS];
                // SAFETY: the CPU has AVX2 (checked just above).
                unsafe { blocks8_avx2(&key, counter, &mut avx2) };
                assert_eq!(avx2, reference, "AVX2 kernel, counter {counter:#x}");
            }
        }
    }

    #[test]
    fn stream_matches_one_block_reference() {
        for seed in (0..24).chain([42, u64::MAX]) {
            let mut fast = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = OneBlock::seeded(seed);
            assert_streams_agree(&mut fast, &mut reference, 10_000, seed);
        }
    }

    #[test]
    fn restored_states_at_counter_carries_match_reference() {
        // counters whose seven blocks computed after the restored one
        // (refill lanes 0..7) carry into word 13 or wrap: in the high
        // four lanes, where the two four-block halves meet, and in the
        // low four
        for counter in [
            (1 << 32) - 6,
            (1 << 32) - 4,
            (1 << 32) - 2,
            (1 << 32) - 1,
            u64::MAX - 5,
            u64::MAX - 3,
            u64::MAX - 1,
            u64::MAX,
        ] {
            for idx in [0, 1, 15, 16] {
                let w = state_at(counter, idx, counter ^ idx as u64);
                let mut fast = ChaCha8Rng::from_state_words(&w);
                let mut reference = OneBlock::from_state_words(&w);
                assert_streams_agree(&mut fast, &mut reference, 10_000, counter);
            }
        }
    }

    #[test]
    fn state_words_round_trip_and_resume() {
        for idx in [0, 1, 15, 16] {
            let w = state_at(12_345, idx, 3);
            let fast = ChaCha8Rng::from_state_words(&w);
            assert_eq!(fast.state_words(), w, "index {idx}");
            let mut resumed = fast.clone();
            let mut reference = OneBlock::from_state_words(&w);
            for _ in 0..200 {
                assert_eq!(resumed.next_u32(), reference.next_u32(), "index {idx}");
            }
        }
        for idx in [17, u32::MAX] {
            let w = state_at(12_345, idx, 3);
            let mut clamped = w;
            clamped[26] = 16;
            assert_eq!(ChaCha8Rng::from_state_words(&w).state_words(), clamped);
        }
        // a fresh generator exports the one-block layout too
        let fresh = ChaCha8Rng::seed_from_u64(5).state_words();
        assert_eq!((fresh[8], fresh[9], fresh[26]), (0, 0, 16));
        assert!(fresh[10..26].iter().all(|&x| x == 0));
    }

    #[test]
    fn resume_mid_stream_is_bit_exact() {
        let mut a = ChaCha8Rng::seed_from_u64(11);
        for skip in [1, 7, 15, 16, 17, 63, 64, 65, 100] {
            for _ in 0..skip {
                a.next_u32();
            }
            let mut b = ChaCha8Rng::from_state_words(&a.state_words());
            let mut probe = a.clone();
            for _ in 0..300 {
                assert_eq!(b.next_u64(), probe.next_u64(), "after {skip} more words");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn floats_cover_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            lo = lo.min(f);
            hi = hi.max(f);
        }
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn u64_is_two_u32_draws() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let words: Vec<u32> = (0..40).map(|_| a.next_u32()).collect();
        let mut b = ChaCha8Rng::seed_from_u64(9);
        for pair in words.chunks_exact(2) {
            assert_eq!(b.next_u64(), pair[0] as u64 | ((pair[1] as u64) << 32));
        }
    }

    #[test]
    fn u64_draws_straddle_refills() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let words: Vec<u32> = (0..201).map(|_| a.next_u32()).collect();
        let mut b = ChaCha8Rng::seed_from_u64(9);
        b.next_u32();
        // at an odd offset every refill boundary splits a u64 draw
        for pair in words[1..].chunks_exact(2) {
            assert_eq!(b.next_u64(), pair[0] as u64 | ((pair[1] as u64) << 32));
        }
    }
}
