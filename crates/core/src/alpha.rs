//! The `α(m)` combinatorics at the heart of the paper's tight bounds.
//!
//! `α(m) = m! · Σ_{k=0}^{m} 1/k! = Σ_{k=0}^{m} m!/(m-k)!` counts the
//! sequences over an `m`-letter alphabet that contain **no repetitions**
//! (including the empty sequence). The paper proves that `α(|M^S|)` is
//! exactly the number of distinct input sequences any solution to
//! `X`-STP(dup) — and any *bounded* solution to `X`-STP(del) — can
//! transmit.
//!
//! This module provides:
//!
//! * exact evaluation of `α(m)` and `m!` in `u128` with overflow detection
//!   ([`alpha`], [`factorial`]),
//! * the recurrence `α(m) = m·α(m-1) + 1` ([`alpha_recurrence_step`]),
//! * the count of repetition-free sequences of an exact length
//!   ([`falling_factorial`]),
//! * shortlex enumeration of all repetition-free sequences
//!   ([`RepetitionFreeSeqs`]),
//! * ranking and unranking within that enumeration ([`rank`], [`unrank`]),
//! * the `α(m)/m! → e` convergence data ([`alpha_over_factorial`]).
//!
//! ```
//! use stp_core::alpha::{alpha, RepetitionFreeSeqs};
//!
//! // Closed form and enumeration agree.
//! let enumerated = RepetitionFreeSeqs::new(3).count() as u128;
//! assert_eq!(enumerated, alpha(3).unwrap()); // 16
//! ```

use crate::alphabet::SMsgSeq;
use crate::error::{Error, Result};

/// Exact `m!` in `u128`.
///
/// # Errors
///
/// Returns [`Error::AlphaOverflow`] when the factorial exceeds `u128`
/// (first at `m = 35`).
///
/// ```
/// use stp_core::alpha::factorial;
/// assert_eq!(factorial(0).unwrap(), 1);
/// assert_eq!(factorial(5).unwrap(), 120);
/// assert!(factorial(35).is_err());
/// ```
pub fn factorial(m: u32) -> Result<u128> {
    let mut acc: u128 = 1;
    for k in 1..=m as u128 {
        acc = acc.checked_mul(k).ok_or(Error::AlphaOverflow { m })?;
    }
    Ok(acc)
}

/// The falling factorial `m!/(m-k)! = m·(m-1)···(m-k+1)`: the number of
/// repetition-free sequences of length exactly `k` over `m` letters.
///
/// Returns `0` when `k > m` (no injective word that long exists).
///
/// # Errors
///
/// Returns [`Error::AlphaOverflow`] on `u128` overflow.
pub fn falling_factorial(m: u32, k: u32) -> Result<u128> {
    if k > m {
        return Ok(0);
    }
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc
            .checked_mul((m - i) as u128)
            .ok_or(Error::AlphaOverflow { m })?;
    }
    Ok(acc)
}

/// One step of the recurrence `α(m) = m·α(m-1) + 1`.
///
/// # Errors
///
/// Returns [`Error::AlphaOverflow`] on `u128` overflow.
pub fn alpha_recurrence_step(m: u32, alpha_prev: u128) -> Result<u128> {
    alpha_prev
        .checked_mul(m as u128)
        .and_then(|v| v.checked_add(1))
        .ok_or(Error::AlphaOverflow { m })
}

/// Exact `α(m) = Σ_{k=0}^{m} m!/(m-k)!`, the paper's tight bound on `|X|`.
///
/// Computed by the recurrence `α(0) = 1`, `α(m) = m·α(m-1) + 1`, which the
/// unit tests cross-check against the summation form and against explicit
/// enumeration.
///
/// # Errors
///
/// Returns [`Error::AlphaOverflow`] when the value exceeds `u128` (first at
/// `m = 34`).
///
/// ```
/// use stp_core::alpha::alpha;
/// assert_eq!(alpha(0).unwrap(), 1);
/// assert_eq!(alpha(1).unwrap(), 2);
/// assert_eq!(alpha(2).unwrap(), 5);
/// assert_eq!(alpha(3).unwrap(), 16);
/// assert_eq!(alpha(4).unwrap(), 65);
/// assert_eq!(alpha(5).unwrap(), 326);
/// ```
pub fn alpha(m: u32) -> Result<u128> {
    let mut acc: u128 = 1;
    for i in 1..=m {
        acc = alpha_recurrence_step(i, acc)?;
    }
    Ok(acc)
}

/// `α(m)` by the summation `Σ_{k=0}^{m} m!/(m-k)!` — used as an independent
/// cross-check of [`alpha`].
///
/// # Errors
///
/// Returns [`Error::AlphaOverflow`] on `u128` overflow.
pub fn alpha_by_summation(m: u32) -> Result<u128> {
    let mut total: u128 = 0;
    for k in 0..=m {
        total = total
            .checked_add(falling_factorial(m, k)?)
            .ok_or(Error::AlphaOverflow { m })?;
    }
    Ok(total)
}

/// The ratio `α(m)/m!`, which converges to `e = 2.71828…` from below.
///
/// # Errors
///
/// Returns [`Error::AlphaOverflow`] when either quantity overflows `u128`.
pub fn alpha_over_factorial(m: u32) -> Result<f64> {
    Ok(alpha(m)? as f64 / factorial(m)? as f64)
}

/// Capacity planning: the smallest alphabet size `m` with `α(m) ≥ n` —
/// how many distinct messages a deployment needs to transmit `n`
/// different sequences over a duplicating (or, boundedly, a deleting)
/// reordering channel.
///
/// # Errors
///
/// Returns [`Error::AlphaOverflow`] when `n` exceeds `α(33)` (the largest
/// representable capacity).
///
/// ```
/// use stp_core::alpha::min_alphabet_for;
/// assert_eq!(min_alphabet_for(1).unwrap(), 0);
/// assert_eq!(min_alphabet_for(2).unwrap(), 1);
/// assert_eq!(min_alphabet_for(3).unwrap(), 2);
/// assert_eq!(min_alphabet_for(5).unwrap(), 2);
/// assert_eq!(min_alphabet_for(6).unwrap(), 3);
/// assert_eq!(min_alphabet_for(66).unwrap(), 5);
/// ```
pub fn min_alphabet_for(n: u128) -> Result<u32> {
    let mut m = 0u32;
    let mut cap: u128 = 1;
    while cap < n {
        m += 1;
        cap = alpha_recurrence_step(m, cap)?;
    }
    Ok(m)
}

/// The largest `m` for which `α(m)` fits in `u128`.
pub fn max_representable_m() -> u32 {
    let mut m = 0;
    while alpha(m + 1).is_ok() {
        m += 1;
    }
    m
}

/// Shortlex enumeration of every repetition-free sequence over an
/// `m`-letter alphabet (empty sequence first, then length 1 in
/// lexicographic order, and so on). Yields exactly `α(m)` sequences.
///
/// ```
/// use stp_core::alpha::RepetitionFreeSeqs;
/// use stp_core::alphabet::SMsgSeq;
///
/// let seqs: Vec<SMsgSeq> = RepetitionFreeSeqs::new(2).collect();
/// assert_eq!(seqs.len(), 5); // α(2)
/// assert_eq!(seqs[0], SMsgSeq::new());
/// assert_eq!(seqs[4], SMsgSeq::from_indices([1, 0]));
/// ```
#[derive(Debug, Clone)]
pub struct RepetitionFreeSeqs {
    m: u16,
    /// The current word; starts as the empty word.
    word: Vec<u16>,
    /// `used[c]` iff letter `c` occurs in `word`.
    used: Vec<bool>,
    /// Whether `word` has not been yielded yet.
    pending: bool,
    exhausted: bool,
}

impl RepetitionFreeSeqs {
    /// Creates the enumeration for an `m`-letter alphabet.
    pub fn new(m: u16) -> Self {
        RepetitionFreeSeqs {
            m,
            word: Vec::with_capacity(usize::from(m)),
            used: vec![false; usize::from(m)],
            pending: true,
            exhausted: false,
        }
    }

    /// The next word in shortlex order, borrowed from the enumerator so a
    /// caller can build its own sequence type from it without a detour.
    pub(crate) fn next_word(&mut self) -> Option<&[u16]> {
        if self.exhausted {
            return None;
        }
        if self.pending {
            self.pending = false;
        } else if !self.advance() {
            self.exhausted = true;
            return None;
        }
        Some(&self.word)
    }

    /// Advances `word` to the next injective word in shortlex order;
    /// returns `false` after the last word of length `m`.
    fn advance(&mut self) -> bool {
        // Odometer over injective words: from the right, release each
        // letter and try the next unused letter above it; on success,
        // refill the suffix with the smallest unused letters.
        for pos in (0..self.word.len()).rev() {
            let cur = self.word[pos];
            self.used[usize::from(cur)] = false;
            if let Some(c) = (cur + 1..self.m).find(|&c| !self.used[usize::from(c)]) {
                self.word[pos] = c;
                self.used[usize::from(c)] = true;
                self.fill_from(pos + 1);
                return true;
            }
        }
        // The length class is exhausted and every letter released: start
        // the next length at `[0, 1, …, len]`.
        if self.word.len() < usize::from(self.m) {
            self.word.push(0);
            self.fill_from(0);
            true
        } else {
            false
        }
    }

    /// Fills `word[start..]` with the smallest letters unused by
    /// `word[..start]`, ascending.
    fn fill_from(&mut self, start: usize) {
        let mut c = 0;
        for slot in start..self.word.len() {
            while self.used[c] {
                c += 1;
            }
            self.word[slot] = c as u16;
            self.used[c] = true;
        }
    }
}

impl Iterator for RepetitionFreeSeqs {
    type Item = SMsgSeq;

    fn next(&mut self) -> Option<SMsgSeq> {
        self.next_word()
            .map(|w| SMsgSeq::from_indices(w.iter().copied()))
    }
}

/// Shortlex rank of a repetition-free sequence over `m` letters
/// (the empty sequence has rank 0).
///
/// # Errors
///
/// Returns [`Error::MsgOutOfAlphabet`] if a message is outside the alphabet,
/// [`Error::RepetitionInSequence`] if the word repeats a letter, or
/// [`Error::AlphaOverflow`] if intermediate counts overflow.
///
/// ```
/// use stp_core::alpha::{rank, unrank};
/// use stp_core::alphabet::SMsgSeq;
///
/// let s = SMsgSeq::from_indices([1, 0]);
/// let r = rank(3, &s).unwrap();
/// assert_eq!(unrank(3, r).unwrap(), s);
/// ```
pub fn rank(m: u16, seq: &SMsgSeq) -> Result<u128> {
    seq.validate_repetition_free(crate::alphabet::Alphabet::new(m))?;
    let len = seq.len() as u32;
    let m32 = m as u32;
    // Rank = (# sequences strictly shorter) + (lexicographic index within
    // the length class).
    let mut r: u128 = 0;
    for k in 0..len {
        r = r
            .checked_add(falling_factorial(m32, k)?)
            .ok_or(Error::AlphaOverflow { m: m32 })?;
    }
    // Lexicographic index among injective words of this length: positional
    // system with falling-factorial weights over *unused* letters.
    let mut used: Vec<bool> = vec![false; m as usize];
    for (i, msg) in seq.msgs().iter().enumerate() {
        let smaller_unused = (0..msg.0).filter(|&c| !used[c as usize]).count() as u128;
        let remaining_positions = len - 1 - i as u32;
        let weight = falling_factorial(m32 - 1 - i as u32, remaining_positions)?;
        r = smaller_unused
            .checked_mul(weight)
            .and_then(|v| r.checked_add(v))
            .ok_or(Error::AlphaOverflow { m: m32 })?;
        used[msg.0 as usize] = true;
    }
    Ok(r)
}

/// Inverse of [`rank`]: the repetition-free sequence over `m` letters with
/// the given shortlex rank.
///
/// # Errors
///
/// Returns [`Error::RankOutOfRange`] when `r ≥ α(m)`, or
/// [`Error::AlphaOverflow`] on intermediate overflow.
pub fn unrank(m: u16, r: u128) -> Result<SMsgSeq> {
    let m32 = m as u32;
    let total = alpha(m32)?;
    if r >= total {
        return Err(Error::RankOutOfRange {
            rank: r,
            count: total,
        });
    }
    // Find the length class.
    let mut rem = r;
    let mut len: u32 = 0;
    loop {
        let class = falling_factorial(m32, len)?;
        if rem < class {
            break;
        }
        rem -= class;
        len += 1;
    }
    // Decode the positional representation.
    let mut used: Vec<bool> = vec![false; m as usize];
    let mut out = Vec::with_capacity(len as usize);
    for i in 0..len {
        let weight = falling_factorial(m32 - 1 - i, len - 1 - i)?;
        let idx = (rem / weight) as usize;
        rem %= weight;
        // idx-th unused letter.
        let letter = (0..m)
            .filter(|&c| !used[c as usize])
            .nth(idx)
            .expect("index within unused letters by construction");
        used[letter as usize] = true;
        out.push(letter);
    }
    Ok(SMsgSeq::from_indices(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataSeq;
    use proptest::prelude::*;

    const ALPHA_TABLE: [(u32, u128); 9] = [
        (0, 1),
        (1, 2),
        (2, 5),
        (3, 16),
        (4, 65),
        (5, 326),
        (6, 1957),
        (7, 13700),
        (8, 109601),
    ];

    #[test]
    fn alpha_matches_known_table() {
        for (m, v) in ALPHA_TABLE {
            assert_eq!(alpha(m).unwrap(), v, "alpha({m})");
        }
    }

    #[test]
    fn alpha_matches_summation_form() {
        for m in 0..=25 {
            assert_eq!(alpha(m).unwrap(), alpha_by_summation(m).unwrap(), "m={m}");
        }
    }

    #[test]
    fn alpha_overflows_eventually_and_max_m_is_consistent() {
        let max_m = max_representable_m();
        assert!(alpha(max_m).is_ok());
        assert_eq!(alpha(max_m + 1), Err(Error::AlphaOverflow { m: max_m + 1 }));
        // e·33! ≈ 2.4e37 < u128::MAX; e·34! ≈ 8e38 > u128::MAX.
        assert_eq!(max_m, 33);
    }

    #[test]
    fn factorial_values_and_overflow() {
        assert_eq!(factorial(0).unwrap(), 1);
        assert_eq!(factorial(1).unwrap(), 1);
        assert_eq!(factorial(10).unwrap(), 3_628_800);
        assert!(factorial(34).is_ok());
        assert!(factorial(35).is_err());
    }

    #[test]
    fn falling_factorial_basics() {
        assert_eq!(falling_factorial(5, 0).unwrap(), 1);
        assert_eq!(falling_factorial(5, 1).unwrap(), 5);
        assert_eq!(falling_factorial(5, 2).unwrap(), 20);
        assert_eq!(falling_factorial(5, 5).unwrap(), 120);
        assert_eq!(falling_factorial(5, 6).unwrap(), 0);
        assert_eq!(falling_factorial(0, 0).unwrap(), 1);
    }

    #[test]
    fn ratio_converges_to_e() {
        let e = std::f64::consts::E;
        let r5 = alpha_over_factorial(5).unwrap();
        let r20 = alpha_over_factorial(20).unwrap();
        assert!((r20 - e).abs() < (r5 - e).abs());
        assert!((r20 - e).abs() < 1e-15);
        // Convergence is from below: α(m) = floor(e·m!) for m ≥ 1.
        for m in 1..=20 {
            assert!(alpha_over_factorial(m).unwrap() <= e, "m={m}");
        }
    }

    #[test]
    fn enumeration_counts_match_alpha() {
        for m in 0u16..=6 {
            let count = RepetitionFreeSeqs::new(m).count() as u128;
            assert_eq!(count, alpha(m as u32).unwrap(), "m={m}");
        }
    }

    #[test]
    fn enumeration_is_shortlex_and_repetition_free() {
        let seqs: Vec<SMsgSeq> = RepetitionFreeSeqs::new(4).collect();
        for w in &seqs {
            assert!(w.is_repetition_free(), "{w}");
        }
        for pair in seqs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.len() < b.len() || (a.len() == b.len() && a.msgs() < b.msgs()),
                "not shortlex: {a} then {b}"
            );
        }
        // All distinct.
        let set: std::collections::HashSet<_> = seqs.iter().collect();
        assert_eq!(set.len(), seqs.len());
    }

    #[test]
    fn enumeration_equals_brute_force_filter() {
        for m in 0u16..=6 {
            // Every word of length 0..=m in lexicographic order, kept
            // when repetition-free.
            let mut expected = Vec::new();
            for len in 0..=u32::from(m) {
                for code in 0..u32::from(m).pow(len) {
                    let mut word = vec![0u16; len as usize];
                    let mut rest = code;
                    for slot in word.iter_mut().rev() {
                        *slot = (rest % u32::from(m)) as u16;
                        rest /= u32::from(m);
                    }
                    let seq = SMsgSeq::from_indices(word);
                    if seq.is_repetition_free() {
                        expected.push(seq);
                    }
                }
            }
            assert_eq!(expected.len() as u128, alpha(m.into()).unwrap(), "m={m}");
            let seqs: Vec<SMsgSeq> = RepetitionFreeSeqs::new(m).collect();
            assert_eq!(seqs, expected, "m={m}");
            let as_data: Vec<DataSeq> = expected
                .iter()
                .map(|w| DataSeq::from_indices(w.msgs().iter().map(|s| s.0)))
                .collect();
            let family = crate::sequence::SequenceFamily::repetition_free(m);
            assert_eq!(family.seqs(), &as_data[..], "m={m}");
        }
    }

    #[test]
    fn enumeration_small_cases_explicit() {
        let seqs: Vec<SMsgSeq> = RepetitionFreeSeqs::new(2).collect();
        assert_eq!(
            seqs,
            vec![
                SMsgSeq::new(),
                SMsgSeq::from_indices([0]),
                SMsgSeq::from_indices([1]),
                SMsgSeq::from_indices([0, 1]),
                SMsgSeq::from_indices([1, 0]),
            ]
        );
        let zero: Vec<SMsgSeq> = RepetitionFreeSeqs::new(0).collect();
        assert_eq!(zero, vec![SMsgSeq::new()]);
    }

    #[test]
    fn rank_agrees_with_enumeration_order() {
        for m in 0u16..=5 {
            for (i, seq) in RepetitionFreeSeqs::new(m).enumerate() {
                assert_eq!(rank(m, &seq).unwrap(), i as u128, "m={m} seq={seq}");
                assert_eq!(unrank(m, i as u128).unwrap(), seq, "m={m} i={i}");
            }
        }
    }

    #[test]
    fn rank_rejects_bad_input() {
        assert!(matches!(
            rank(2, &SMsgSeq::from_indices([0, 0])),
            Err(Error::RepetitionInSequence { .. })
        ));
        assert!(matches!(
            rank(2, &SMsgSeq::from_indices([5])),
            Err(Error::MsgOutOfAlphabet { .. })
        ));
        assert!(matches!(
            unrank(2, 5),
            Err(Error::RankOutOfRange { rank: 5, count: 5 })
        ));
    }

    #[test]
    fn min_alphabet_is_inverse_of_alpha() {
        for m in 0..=10u32 {
            let a = alpha(m).unwrap();
            assert_eq!(min_alphabet_for(a).unwrap(), m, "exact capacity");
            assert_eq!(min_alphabet_for(a + 1).unwrap(), m + 1, "one over");
        }
        assert!(min_alphabet_for(u128::MAX).is_err());
    }

    proptest! {
        #[test]
        fn prop_recurrence_matches_closed_form(m in 1u32..20) {
            let prev = alpha(m - 1).unwrap();
            prop_assert_eq!(alpha_recurrence_step(m, prev).unwrap(), alpha(m).unwrap());
        }

        #[test]
        fn prop_unrank_rank_round_trip(m in 0u16..7, r_seed in 0u64..10_000) {
            let total = alpha(m as u32).unwrap();
            let r = (r_seed as u128) % total;
            let seq = unrank(m, r).unwrap();
            prop_assert_eq!(rank(m, &seq).unwrap(), r);
        }

        #[test]
        fn prop_unranked_sequences_are_repetition_free(m in 0u16..8, r_seed in 0u64..100_000) {
            let total = alpha(m as u32).unwrap();
            let r = (r_seed as u128) % total;
            let seq = unrank(m, r).unwrap();
            prop_assert!(seq.is_repetition_free());
            prop_assert!(seq.len() <= m as usize);
        }
    }
}
