//! A minimal, offline stand-in for `rand_chacha`, exposing
//! [`ChaCha8Rng`] over the vendored `rand` trait shim.
//!
//! The core is a genuine ChaCha8 block function (8 rounds), so streams
//! have the usual statistical quality and are fully deterministic per
//! seed. `seed_from_u64` expands the seed with SplitMix64 rather than
//! upstream's scheme, so streams are **not** bit-compatible with the real
//! crate — experiment tables derived from seeded runs are regenerated,
//! not compared against historical output.
//!
//! # Replaying a seed: the tape
//!
//! A sweep runs every input against the same seeded adversaries, so a
//! pooled scheduler is rewound to the seed it already holds again and
//! again. [`ChaCha8Rng::reseed`] rewinds to the start of a seed's stream
//! exactly as [`SeedableRng::seed_from_u64`] would build it, and when the
//! seed's key is the one the generator already holds it replays the
//! blocks an earlier pass computed instead of computing them again:
//!
//! * **Record on repeat.** The tape is built only by a reseed to the key
//!   already held. From then on every block computed at the tape's end is
//!   appended to it, and a block the tape holds is copied from it. A
//!   generator given a new seed on every reseed (a session slot, whose
//!   every session draws a fresh seed) never builds one.
//! * **A key change.** Reseeding to another key empties the tape for the
//!   new key if it replayed anything since the last key change, keeping
//!   its buffer, and frees it otherwise. So a seed-major sweep, which
//!   reseeds each seed many times in a row, allocates nothing once warm,
//!   and a tape that stopped paying off is gone after one key change.
//! * **The cap.** The tape holds at most 128 blocks (8 KiB, allocated
//!   once); blocks past it are computed on every pass. Over 64 seeds of
//!   the E1 m = 5 grid a dup-storm cell draws 25.0 blocks on average
//!   (p50 20, p99 112, p99.9 142, max 181) and a random-0.5 cell 15.6
//!   (p99 40, max 59), so 0.19% of the dup-storm blocks fall past the
//!   cap.
//!
//! Which block comes next is the block counter in state words 12–13, and
//! which seed the tape belongs to is the key in words 4–11, so the tape
//! adds one pointer to the generator. The stream is the same with or
//! without it: a replayed block is the block the same state computes.

#![forbid(unsafe_code)]

pub use rand::{RngCore, SeedableRng};

/// The most blocks a replay tape holds.
const TAPE_BLOCKS: usize = 128;

/// A deterministic ChaCha-8 random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// The 16-word ChaCha input state (constants, key, counter, nonce).
    state: [u32; 16],
    /// Current output block.
    block: [u32; 16],
    /// Next unread word index in `block`; 16 means exhausted.
    word: usize,
    /// Blocks `0..len` of the held key's stream, once a reseed repeated
    /// that key.
    tape: Option<Box<Tape>>,
}

/// The replay tape: a prefix of the held key's stream, block by block.
#[derive(Debug, Clone)]
struct Tape {
    blocks: Vec<[u32; 16]>,
    /// Whether a reseed replayed a block since the last key change.
    replayed: bool,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

// One ChaCha quarter-round over four local words.
macro_rules! quarter_round {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(12);
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(7);
    };
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 32-byte key `seed_from_u64(seed)` uses: four SplitMix64 outputs.
fn seed_key(seed: u64) -> [u8; 32] {
    let mut sm = seed;
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut sm).to_le_bytes());
    }
    key
}

/// The key as state words 4–11.
fn key_words(key: [u8; 32]) -> [u32; 8] {
    let mut words = [0u32; 8];
    for (w, chunk) in words.iter_mut().zip(key.chunks_exact(4)) {
        *w = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    words
}

/// Writes the ChaCha8 block of `s` to `out`. The sixteen working words
/// are locals rather than an indexed array, so they can live in registers
/// for all eight rounds.
fn chacha8_block(s: &[u32; 16], out: &mut [u32; 16]) {
    let (mut x0, mut x1, mut x2, mut x3) = (s[0], s[1], s[2], s[3]);
    let (mut x4, mut x5, mut x6, mut x7) = (s[4], s[5], s[6], s[7]);
    let (mut x8, mut x9, mut x10, mut x11) = (s[8], s[9], s[10], s[11]);
    let (mut x12, mut x13, mut x14, mut x15) = (s[12], s[13], s[14], s[15]);
    for _ in 0..4 {
        // 8 rounds = 4 double-rounds: a column round, then a diagonal one.
        quarter_round!(x0, x4, x8, x12);
        quarter_round!(x1, x5, x9, x13);
        quarter_round!(x2, x6, x10, x14);
        quarter_round!(x3, x7, x11, x15);
        quarter_round!(x0, x5, x10, x15);
        quarter_round!(x1, x6, x11, x12);
        quarter_round!(x2, x7, x8, x13);
        quarter_round!(x3, x4, x9, x14);
    }
    let working = [
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15,
    ];
    for ((o, w), k) in out.iter_mut().zip(working).zip(s) {
        *o = w.wrapping_add(*k);
    }
}

impl ChaCha8Rng {
    /// Builds a generator from a full 32-byte key.
    pub fn from_key(key: [u8; 32]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&key_words(key));
        // Words 12..16 are the block counter and nonce, starting at zero.
        ChaCha8Rng {
            state,
            block: [0; 16],
            word: 16,
            tape: None,
        }
    }

    /// Rewinds to the start of `seed`'s stream: afterwards the generator
    /// draws exactly what `seed_from_u64(seed)` would. A reseed to the key
    /// already held replays that stream's blocks from the tape as far as
    /// an earlier pass computed them, and builds the tape if there is
    /// none yet; a reseed to another key empties or frees it (see the
    /// [crate docs](crate#replaying-a-seed-the-tape)).
    pub fn reseed(&mut self, seed: u64) {
        let key = key_words(seed_key(seed));
        if self.state[4..12] == key {
            let tape = self.tape.get_or_insert_with(|| {
                Box::new(Tape {
                    blocks: Vec::with_capacity(TAPE_BLOCKS),
                    replayed: false,
                })
            });
            tape.replayed |= !tape.blocks.is_empty();
        } else {
            self.state[4..12].copy_from_slice(&key);
            match &mut self.tape {
                Some(tape) if tape.replayed => {
                    tape.blocks.clear();
                    tape.replayed = false;
                }
                _ => self.tape = None,
            }
        }
        self.state[12] = 0;
        self.state[13] = 0;
        self.word = 16;
    }

    fn refill(&mut self) {
        match self.tape.as_deref_mut() {
            None => chacha8_block(&self.state, &mut self.block),
            Some(tape) => {
                // The index of the next block: the counter in words 12 and 13.
                let at = (u64::from(self.state[13]) << 32) | u64::from(self.state[12]);
                if at < tape.blocks.len() as u64 {
                    self.block = tape.blocks[at as usize];
                } else {
                    chacha8_block(&self.state, &mut self.block);
                    if at == tape.blocks.len() as u64 && tape.blocks.len() < TAPE_BLOCKS {
                        tape.blocks.push(self.block);
                    }
                }
            }
        }
        // 64-bit counter across words 12 and 13.
        let (lo, carry) = self.state[12].overflowing_add(1);
        self.state[12] = lo;
        if carry {
            self.state[13] = self.state[13].wrapping_add(1);
        }
        self.word = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.word >= 16 {
            self.refill();
        }
        let w = self.block[self.word];
        self.word += 1;
        w
    }
}

impl RngCore for ChaCha8Rng {
    /// The next two words, low word first.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.word >= 16 {
            self.refill();
        }
        let i = self.word;
        if i < 15 {
            // Both words are in the current block.
            self.word = i + 2;
            (u64::from(self.block[i + 1]) << 32) | u64::from(self.block[i])
        } else {
            // The pair straddles a refill: word 15, then the next block's 0.
            let lo = u64::from(self.next_word());
            let hi = u64::from(self.next_word());
            (hi << 32) | lo
        }
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        ChaCha8Rng::from_key(seed_key(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn counter_advances_across_blocks() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        // More than one 16-word block worth of draws.
        let draws: Vec<u64> = (0..40).map(|_| a.next_u64()).collect();
        let distinct: std::collections::HashSet<_> = draws.iter().collect();
        assert!(distinct.len() > 30, "stream should not cycle early");
    }

    /// `n` draws alternating `next_u32` and `next_u64` (low word first),
    /// flattened to words. A `next_u64` starts every third word, so over
    /// any sixteen blocks one starts on each word index, word 15 (the pair
    /// that straddles a refill) included.
    fn mixed_draws(rng: &mut ChaCha8Rng, n: usize) -> Vec<u32> {
        let mut words = Vec::with_capacity(n * 2);
        for i in 0..n {
            if i % 2 == 0 {
                words.push(rng.next_u32());
            } else {
                let pair = rng.next_u64();
                words.extend([pair as u32, (pair >> 32) as u32]);
            }
        }
        words
    }

    /// Draws that run this many blocks past the tape's cap.
    const PAST_THE_CAP: usize = (TAPE_BLOCKS + 3) * 16 * 2 / 3;

    #[test]
    fn a_same_seed_reseed_replays_the_stream() {
        for seed in [0, 7, u64::MAX] {
            let fresh = |n| mixed_draws(&mut ChaCha8Rng::seed_from_u64(seed), n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Passes that grow, shrink and regrow: each replays what the
            // tape holds and records what lies past its end, up to the cap.
            for n in [5, 40, PAST_THE_CAP, 11, PAST_THE_CAP] {
                rng.reseed(seed);
                assert_eq!(mixed_draws(&mut rng, n), fresh(n), "seed={seed} n={n}");
            }
            let tape = rng.tape.as_ref().expect("a repeated key builds a tape");
            assert_eq!(tape.blocks.len(), TAPE_BLOCKS, "the tape stops at its cap");
        }
    }

    #[test]
    fn a_reseed_to_a_new_seed_is_a_fresh_build() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        rng.reseed(3);
        mixed_draws(&mut rng, 100);
        rng.reseed(3);
        mixed_draws(&mut rng, 7);
        // Mid-block, with a tape for seed 3 that has replayed.
        for seed in [4, 0, u64::MAX, 3] {
            rng.reseed(seed);
            let fresh = mixed_draws(&mut ChaCha8Rng::seed_from_u64(seed), 300);
            assert_eq!(mixed_draws(&mut rng, 300), fresh, "seed={seed}");
        }
    }

    #[test]
    fn a_clone_taken_mid_replay_continues_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        mixed_draws(&mut rng, 200);
        rng.reseed(11);
        mixed_draws(&mut rng, 200);
        rng.reseed(11);
        // Inside the recorded prefix, then across its end.
        mixed_draws(&mut rng, 57);
        let mut copy = rng.clone();
        assert_eq!(mixed_draws(&mut copy, 400), mixed_draws(&mut rng, 400));
    }

    #[test]
    fn a_new_seed_every_run_builds_no_tape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for seed in 1..50 {
            rng.reseed(seed);
            mixed_draws(&mut rng, 64);
            assert!(rng.tape.is_none(), "seed={seed}");
        }
        // A tape that stops replaying is freed at the next key change.
        rng.reseed(49);
        mixed_draws(&mut rng, 64);
        rng.reseed(50);
        assert!(rng.tape.is_none());
    }

    #[test]
    fn a_generator_fits_its_budget() {
        // The state, the current block and its cursor, plus the tape's one
        // pointer: pooled schedulers hold one generator per world.
        let size = std::mem::size_of::<ChaCha8Rng>();
        assert!(size <= 144, "ChaCha8Rng is {size} B");
    }

    // The first 40 words of four seeds' streams. Every seeded table and
    // digest in the workspace derives from these streams, so a change to
    // them must be deliberate, never a side effect of a faster refill.
    const GOLDEN: [(u64, [u32; 40]); 4] = [
        (
            0,
            [
                0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f,
                0x17c6ab23, 0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd,
                0x28e5a01f, 0x95d53efa, 0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1,
                0xe553e127, 0x3505e613, 0xb9d551f1, 0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba,
                0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d, 0x1bfcd6d6, 0x5a512cb9, 0x44766985,
                0x029e3799, 0x3c8b61fe, 0xca6410bd, 0xbfdc08ce, 0xa2c1439d,
            ],
        ),
        (
            1,
            [
                0x48a8b558, 0xef72eaf4, 0x599a55b3, 0x8a33ba97, 0xe248f1ee, 0x0c40074e, 0x5b660e10,
                0xdbb16098, 0x22a8ce78, 0x72858f91, 0x6ec9d0a6, 0x1a915dfc, 0xb6823c71, 0xf28532b6,
                0xc2831367, 0x42bd7361, 0x5a625dcb, 0x7f116bb1, 0xa2be493e, 0x5ba35ac4, 0xcd12893d,
                0x523a2de0, 0x3e6f9097, 0x8089abf0, 0xb4ff0ba3, 0x54ea731b, 0xfb3bd3ae, 0x8c4fb67a,
                0xdbb02d18, 0x8c65dc52, 0xb7d8eaea, 0xffa639a3, 0x775614fb, 0xad4ed273, 0x538b0497,
                0x44631cf0, 0x3b929907, 0x8839aafc, 0x2fda71a1, 0xd8b5a1a6,
            ],
        ),
        (
            42,
            [
                0x87c91afc, 0x31159ef9, 0xb4169001, 0x17559844, 0x9ad9a69f, 0xf7d0afbf, 0xfd37495a,
                0xb9207ad5, 0x61329c11, 0x072db0db, 0xeca26593, 0x4051bc3b, 0xcc4703b6, 0xbfaab970,
                0x8f89d223, 0xaff5425d, 0x6b947e05, 0xf6875512, 0x953f9601, 0x26706e48, 0x6a9f2b2f,
                0x54ff14b5, 0x150e06ce, 0x9cf9c5f7, 0x8e1d738c, 0xe3507e34, 0x4c28e1a6, 0xc89c0205,
                0x38520378, 0xb51fdc8f, 0xb1c896b5, 0x6384b6fe, 0x13e28956, 0xa1d6606a, 0xc62320de,
                0x009499f6, 0xeecf5513, 0x66e879a9, 0x49ee5d3a, 0xc96ff513,
            ],
        ),
        (
            u64::MAX,
            [
                0x60ef8644, 0x167fca9c, 0xf2f83696, 0xf792fa24, 0xdbcbe0b1, 0x71e8f282, 0x9492a6e7,
                0xebaa0dca, 0xff25b8bb, 0x438b9759, 0x5dd8c0cf, 0x3d92cea8, 0x2f5b3043, 0xe533584b,
                0xe79afbc9, 0x62a4544f, 0x3c8465a9, 0x3691a39c, 0x8277c5fc, 0x0b89def3, 0xe9acb0a3,
                0x61938162, 0xe7495616, 0x874658cb, 0x133857ef, 0xc6735925, 0x76eb6256, 0x74fbf0a0,
                0x8fcdd7f3, 0x626f49c1, 0xe21e2c38, 0x8324ecf5, 0x1a6419fe, 0x4183f3b7, 0x632d4591,
                0xbcecc670, 0xcdcb6c3e, 0xeccfbd68, 0x9ac553a6, 0x2da4bf48,
            ],
        ),
    ];

    #[test]
    fn streams_match_the_golden_words() {
        for (seed, words) in GOLDEN {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let drawn: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
            assert_eq!(drawn, words, "seed={seed}");
        }
    }

    #[test]
    fn interleaved_draws_match_the_golden_words() {
        // Fifteen single words, then a `next_u64` on word 15 that straddles
        // the refill, then `next_u64`s at odd and even offsets of the second
        // block. A `next_u64` is the low word first, then the high word.
        for (seed, words) in GOLDEN {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut at = 0;
            for _ in 0..15 {
                assert_eq!(rng.next_u32(), words[at], "seed={seed} word={at}");
                at += 1;
            }
            for i in 0..11 {
                if i % 2 == 0 {
                    let pair = (u64::from(words[at + 1]) << 32) | u64::from(words[at]);
                    assert_eq!(rng.next_u64(), pair, "seed={seed} words={at}..");
                    at += 2;
                } else {
                    assert_eq!(rng.next_u32(), words[at], "seed={seed} word={at}");
                    at += 1;
                }
            }
            assert_eq!(at, 32);
        }
    }
}
