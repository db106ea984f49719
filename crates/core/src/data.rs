//! Data domains, items and sequences — the content of the input and output
//! tapes.
//!
//! The paper fixes a finite domain `D` of data items; input sequences are
//! drawn from a family `X` of *allowable* sequences over `D`. We represent a
//! domain by its size and items by indices into it, which keeps every type
//! `Copy` and hashable and makes exhaustive enumeration (needed by the
//! verifier) trivial.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single data item: an index into a [`Domain`].
///
/// ```
/// use stp_core::data::{DataItem, Domain};
///
/// let d = Domain::new(4);
/// let x = DataItem(2);
/// assert!(d.contains(x));
/// assert!(!d.contains(DataItem(4)));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DataItem(pub u16);

impl fmt::Display for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl From<u16> for DataItem {
    fn from(v: u16) -> Self {
        DataItem(v)
    }
}

/// A finite data domain `D = {d_0, …, d_{n-1}}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Domain {
    size: u16,
}

impl Domain {
    /// Creates a domain with `size` distinct items.
    ///
    /// A zero-sized domain is permitted: the only sequence over it is the
    /// empty one.
    pub fn new(size: u16) -> Self {
        Domain { size }
    }

    /// Number of items in the domain.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Whether `item` belongs to this domain.
    pub fn contains(&self, item: DataItem) -> bool {
        item.0 < self.size
    }

    /// Iterates over all items of the domain in index order.
    ///
    /// ```
    /// use stp_core::data::Domain;
    /// let items: Vec<_> = Domain::new(3).iter().map(|d| d.0).collect();
    /// assert_eq!(items, vec![0, 1, 2]);
    /// ```
    pub fn iter(&self) -> impl Iterator<Item = DataItem> + '_ {
        (0..self.size).map(DataItem)
    }

    /// Validates that every element of `seq` belongs to this domain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ItemOutOfDomain`] naming the first offender.
    pub fn validate(&self, seq: &DataSeq) -> Result<()> {
        for &item in seq.items() {
            if !self.contains(item) {
                return Err(Error::ItemOutOfDomain {
                    item: item.0 as u32,
                    domain: self.size as u32,
                });
            }
        }
        Ok(())
    }
}

impl Default for Domain {
    fn default() -> Self {
        Domain::new(2)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D[{}]", self.size)
    }
}

/// A finite sequence of data items — an input tape `X` or output tape `Y`.
///
/// The paper's length convention (`|X| = k + 1` for a `k`-element sequence)
/// is exposed separately as [`DataSeq::paper_len`]; [`DataSeq::len`] is the
/// ordinary element count.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct DataSeq {
    items: Vec<DataItem>,
}

impl Clone for DataSeq {
    fn clone(&self) -> Self {
        DataSeq {
            items: self.items.clone(),
        }
    }

    /// Copies `source` into `self`'s buffer, so pooled per-run resets
    /// reuse their allocation (the derived impl would re-allocate).
    fn clone_from(&mut self, source: &Self) {
        self.items.clone_from(&source.items);
    }
}

impl DataSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        DataSeq { items: Vec::new() }
    }

    /// Creates a sequence from raw item indices.
    ///
    /// ```
    /// use stp_core::data::DataSeq;
    /// let s = DataSeq::from_indices([0, 2, 1]);
    /// assert_eq!(s.len(), 3);
    /// ```
    pub fn from_indices<I: IntoIterator<Item = u16>>(indices: I) -> Self {
        DataSeq {
            items: indices.into_iter().map(DataItem).collect(),
        }
    }

    /// Number of items in the sequence.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The paper's length convention: `k + 1` for a `k`-element finite
    /// sequence (so the empty sequence has paper length 1).
    pub fn paper_len(&self) -> usize {
        self.items.len() + 1
    }

    /// The underlying items.
    pub fn items(&self) -> &[DataItem] {
        &self.items
    }

    /// The item at `pos`, if present (0-based).
    pub fn get(&self, pos: usize) -> Option<DataItem> {
        self.items.get(pos).copied()
    }

    /// Appends an item.
    pub fn push(&mut self, item: DataItem) {
        self.items.push(item);
    }

    /// Returns the prefix consisting of the first `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> DataSeq {
        DataSeq {
            items: self.items[..n].to_vec(),
        }
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    ///
    /// ```
    /// use stp_core::data::DataSeq;
    /// let a = DataSeq::from_indices([1, 2]);
    /// let b = DataSeq::from_indices([1, 2, 3]);
    /// assert!(a.is_prefix_of(&b));
    /// assert!(!b.is_prefix_of(&a));
    /// assert!(a.is_prefix_of(&a));
    /// ```
    pub fn is_prefix_of(&self, other: &DataSeq) -> bool {
        self.len() <= other.len() && self.items[..] == other.items[..self.len()]
    }

    /// Whether the sequence never repeats an item.
    pub fn is_repetition_free(&self) -> bool {
        self.first_repetition().is_none()
    }

    /// Position of the first repeated element (the *second* occurrence), if
    /// any.
    pub fn first_repetition(&self) -> Option<usize> {
        // A quadratic scan that never allocates: inputs are at most an
        // alphabet long, and tight's debug-build precondition runs this
        // on every pooled reset.
        (1..self.items.len()).find(|&i| self.items[..i].contains(&self.items[i]))
    }

    /// Reverses the sequence (used by the Section-5 recovery mode, which
    /// transmits the items in reverse order).
    pub fn reversed(&self) -> DataSeq {
        DataSeq {
            items: self.items.iter().rev().copied().collect(),
        }
    }

    /// Iterates over the items.
    pub fn iter(&self) -> std::slice::Iter<'_, DataItem> {
        self.items.iter()
    }
}

impl FromIterator<DataItem> for DataSeq {
    fn from_iter<I: IntoIterator<Item = DataItem>>(iter: I) -> Self {
        DataSeq {
            items: iter.into_iter().collect(),
        }
    }
}

impl Extend<DataItem> for DataSeq {
    fn extend<I: IntoIterator<Item = DataItem>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl From<Vec<DataItem>> for DataSeq {
    fn from(items: Vec<DataItem>) -> Self {
        DataSeq { items }
    }
}

impl<'a> IntoIterator for &'a DataSeq {
    type Item = &'a DataItem;
    type IntoIter = std::slice::Iter<'a, DataItem>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl fmt::Display for DataSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", item.0)?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_contains_and_iter() {
        let d = Domain::new(3);
        assert_eq!(d.size(), 3);
        assert!(d.contains(DataItem(0)));
        assert!(d.contains(DataItem(2)));
        assert!(!d.contains(DataItem(3)));
        assert_eq!(d.iter().count(), 3);
    }

    #[test]
    fn zero_domain_has_no_items() {
        let d = Domain::new(0);
        assert_eq!(d.iter().count(), 0);
        assert!(!d.contains(DataItem(0)));
        assert!(d.validate(&DataSeq::new()).is_ok());
    }

    #[test]
    fn validate_flags_first_offender() {
        let d = Domain::new(2);
        let s = DataSeq::from_indices([0, 1, 5, 7]);
        assert_eq!(
            d.validate(&s),
            Err(Error::ItemOutOfDomain { item: 5, domain: 2 })
        );
    }

    #[test]
    fn paper_length_convention() {
        assert_eq!(DataSeq::new().paper_len(), 1);
        assert_eq!(DataSeq::from_indices([0, 1, 0]).paper_len(), 4);
    }

    #[test]
    fn prefix_relations() {
        let empty = DataSeq::new();
        let a = DataSeq::from_indices([3]);
        let ab = DataSeq::from_indices([3, 1]);
        let ac = DataSeq::from_indices([3, 2]);
        assert!(empty.is_prefix_of(&a));
        assert!(a.is_prefix_of(&ab));
        assert!(a.is_prefix_of(&ac));
        assert!(!ab.is_prefix_of(&ac));
        assert!(!ac.is_prefix_of(&ab));
        assert!(ab.is_prefix_of(&ab));
    }

    #[test]
    fn prefix_extraction() {
        let s = DataSeq::from_indices([4, 5, 6]);
        assert_eq!(s.prefix(0), DataSeq::new());
        assert_eq!(s.prefix(2), DataSeq::from_indices([4, 5]));
        assert_eq!(s.prefix(3), s);
    }

    #[test]
    fn repetition_detection() {
        assert!(DataSeq::new().is_repetition_free());
        assert!(DataSeq::from_indices([0, 1, 2]).is_repetition_free());
        let rep = DataSeq::from_indices([0, 1, 0]);
        assert!(!rep.is_repetition_free());
        assert_eq!(rep.first_repetition(), Some(2));
        assert_eq!(DataSeq::from_indices([7, 7]).first_repetition(), Some(1));
        // Sequences as long as the largest alphabets and beyond.
        for n in [32u16, 33, 40] {
            assert!(DataSeq::from_indices(0..n).is_repetition_free());
            let rep = DataSeq::from_indices((0..n).chain([n / 2]));
            assert_eq!(rep.first_repetition(), Some(usize::from(n)), "n={n}");
        }
    }

    #[test]
    fn reversed_round_trips() {
        let s = DataSeq::from_indices([1, 2, 3]);
        assert_eq!(s.reversed(), DataSeq::from_indices([3, 2, 1]));
        assert_eq!(s.reversed().reversed(), s);
    }

    #[test]
    fn display_forms() {
        assert_eq!(DataSeq::from_indices([0, 2]).to_string(), "⟨0,2⟩");
        assert_eq!(DataSeq::new().to_string(), "⟨⟩");
        assert_eq!(DataItem(3).to_string(), "d3");
        assert_eq!(Domain::new(5).to_string(), "D[5]");
    }

    #[test]
    fn collect_and_extend() {
        let s: DataSeq = (0u16..3).map(DataItem).collect();
        assert_eq!(s.len(), 3);
        let mut t = DataSeq::new();
        t.extend(s.iter().copied());
        assert_eq!(t, s);
    }
}
