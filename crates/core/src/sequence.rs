//! Families of allowable input sequences (`X`) and their prefix structure.
//!
//! The paper's bounds are statements about the *size* of `X`; its proofs
//! additionally use the prefix structure: the deletion-channel argument
//! fixes `β`, the least prefix length that uniquely identifies every
//! sequence in a finite subfamily, and the achievability constructions
//! embed the prefix tree of `X` into the tree of repetition-free message
//! sequences.

use crate::data::{DataItem, DataSeq};
use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A finite family `X` of allowable input sequences, with distinctness
/// enforced.
///
/// ```
/// use stp_core::data::DataSeq;
/// use stp_core::sequence::SequenceFamily;
///
/// let x = SequenceFamily::from_seqs([
///     DataSeq::from_indices([0]),
///     DataSeq::from_indices([1]),
/// ]).unwrap();
/// assert_eq!(x.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SequenceFamily {
    seqs: Vec<DataSeq>,
}

impl SequenceFamily {
    /// Creates an empty family.
    pub fn new() -> Self {
        SequenceFamily { seqs: Vec::new() }
    }

    /// Creates a family from an iterator of sequences.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EncodingNotInjective`] (reusing the collision error)
    /// if the same sequence appears twice.
    pub fn from_seqs<I: IntoIterator<Item = DataSeq>>(seqs: I) -> Result<Self> {
        let seqs: Vec<DataSeq> = seqs.into_iter().collect();
        let mut seen: BTreeMap<&DataSeq, usize> = BTreeMap::new();
        for (i, s) in seqs.iter().enumerate() {
            if let Some(&first) = seen.get(s) {
                return Err(Error::EncodingNotInjective { first, second: i });
            }
            seen.insert(s, i);
        }
        Ok(SequenceFamily { seqs })
    }

    /// The family of *all* sequences over a domain of size `d` with length
    /// at most `max_len` (including the empty sequence): `Σ d^k` sequences.
    pub fn all_up_to(d: u16, max_len: usize) -> Self {
        let mut seqs = vec![DataSeq::new()];
        let mut frontier = vec![DataSeq::new()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for s in &frontier {
                for v in 0..d {
                    let mut t = s.clone();
                    t.push(DataItem(v));
                    seqs.push(t.clone());
                    next.push(t);
                }
            }
            frontier = next;
        }
        SequenceFamily { seqs }
    }

    /// The family of all **repetition-free** sequences over a domain of
    /// size `d` — exactly the family the paper's tight protocols transmit;
    /// its size is `α(d)`.
    pub fn repetition_free(d: u16) -> Self {
        let mut words = crate::alpha::RepetitionFreeSeqs::new(d);
        let mut seqs = Vec::new();
        while let Some(word) = words.next_word() {
            seqs.push(DataSeq::from_indices(word.iter().copied()));
        }
        SequenceFamily { seqs }
    }

    /// Number of sequences in the family.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The sequences, in insertion order.
    pub fn seqs(&self) -> &[DataSeq] {
        &self.seqs
    }

    /// The sequence at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&DataSeq> {
        self.seqs.get(idx)
    }

    /// Whether `seq` is a member.
    pub fn contains(&self, seq: &DataSeq) -> bool {
        self.seqs.iter().any(|s| s == seq)
    }

    /// Iterates over the sequences.
    pub fn iter(&self) -> std::slice::Iter<'_, DataSeq> {
        self.seqs.iter()
    }

    /// Whether the family is prefix-closed (every prefix of a member is a
    /// member).
    pub fn is_prefix_closed(&self) -> bool {
        self.seqs
            .iter()
            .all(|s| (0..s.len()).all(|k| self.contains(&s.prefix(k))))
    }

    /// The longest sequence length in the family (0 for an empty family).
    pub fn max_len(&self) -> usize {
        self.seqs.iter().map(DataSeq::len).max().unwrap_or(0)
    }

    /// The paper's `β`: the least `i` such that every member is uniquely
    /// identified by its `i`-prefix (members shorter than `i` count as their
    /// own prefix). Used to budget the deletion-channel adversary.
    ///
    /// Returns `None` for an empty family (any `i` works, vacuously) — by
    /// convention we return `Some(0)` for families of size ≤ 1.
    ///
    /// ```
    /// use stp_core::data::DataSeq;
    /// use stp_core::sequence::SequenceFamily;
    ///
    /// let x = SequenceFamily::from_seqs([
    ///     DataSeq::from_indices([0, 0]),
    ///     DataSeq::from_indices([0, 1]),
    /// ]).unwrap();
    /// assert_eq!(x.identifying_prefix_len(), Some(2));
    /// ```
    pub fn identifying_prefix_len(&self) -> Option<usize> {
        if self.seqs.len() <= 1 {
            return Some(0);
        }
        let max = self.max_len();
        'outer: for i in 0..=max {
            let mut seen: BTreeMap<DataSeq, ()> = BTreeMap::new();
            for s in &self.seqs {
                let p = s.prefix(i.min(s.len()));
                // A sequence shorter than i is identified by itself, but two
                // different sequences may share that same short prefix only
                // if one IS the prefix — in which case they are still
                // distinguishable as objects (different lengths) unless the
                // truncations collide.
                let key = if s.len() <= i { s.clone() } else { p };
                if seen.insert(key, ()).is_some() {
                    continue 'outer;
                }
            }
            return Some(i);
        }
        None
    }

    /// Restricts to the first `n` sequences (the paper's `X'` of size
    /// `min(|X|, α(m)+1)`).
    pub fn take(&self, n: usize) -> SequenceFamily {
        SequenceFamily {
            seqs: self.seqs.iter().take(n).cloned().collect(),
        }
    }

    /// Builds the prefix tree of the family.
    pub fn prefix_tree(&self) -> PrefixTree {
        PrefixTree::from_family(self)
    }
}

impl fmt::Display for SequenceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{{")?;
        for (i, s) in self.seqs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a SequenceFamily {
    type Item = &'a DataSeq;
    type IntoIter = std::slice::Iter<'a, DataSeq>;
    fn into_iter(self) -> Self::IntoIter {
        self.seqs.iter()
    }
}

/// The prefix tree (trie) of a [`SequenceFamily`], used by the encoding
/// constructions: a family embeds into the repetition-free message tree of
/// an `m`-letter alphabet iff every trie node at depth `k` has at most
/// `m - k` children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixTree {
    nodes: Vec<TreeNode>,
}

/// One node of a [`PrefixTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Depth of the node (root = 0).
    pub depth: usize,
    /// The item labelling the edge from the parent (root: `None`).
    pub label: Option<DataItem>,
    /// Index of the parent node (root: `None`).
    pub parent: Option<usize>,
    /// Indices of child nodes, ordered by edge label.
    pub children: Vec<usize>,
    /// Whether a family member ends at this node.
    pub terminal: bool,
}

impl PrefixTree {
    /// Builds the trie of `family`.
    pub fn from_family(family: &SequenceFamily) -> Self {
        let mut tree = PrefixTree {
            nodes: vec![TreeNode {
                depth: 0,
                label: None,
                parent: None,
                children: Vec::new(),
                terminal: false,
            }],
        };
        for seq in family {
            let mut node = 0usize;
            for &item in seq {
                node = tree.child_or_insert(node, item);
            }
            tree.nodes[node].terminal = true;
        }
        tree
    }

    fn child_or_insert(&mut self, node: usize, label: DataItem) -> usize {
        if let Some(&c) = self.nodes[node]
            .children
            .iter()
            .find(|&&c| self.nodes[c].label == Some(label))
        {
            return c;
        }
        let depth = self.nodes[node].depth + 1;
        let idx = self.nodes.len();
        self.nodes.push(TreeNode {
            depth,
            label: Some(label),
            parent: Some(node),
            children: Vec::new(),
            terminal: false,
        });
        let pos = self.nodes[node]
            .children
            .iter()
            .position(|&c| self.nodes[c].label > Some(label))
            .unwrap_or(self.nodes[node].children.len());
        self.nodes[node].children.insert(pos, idx);
        idx
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree consists of the root only.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The nodes, root first, in insertion order.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Maximum number of children over all nodes at the given depth.
    pub fn max_arity_at_depth(&self, depth: usize) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.depth == depth)
            .map(|n| n.children.len())
            .max()
            .unwrap_or(0)
    }

    /// Depth of the deepest node.
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Whether this trie embeds into the repetition-free message tree over
    /// an `m`-letter alphabet: node at depth `k` ⇒ at most `m - k` children,
    /// and total depth ≤ `m`.
    ///
    /// This is the structural condition behind the paper's achievability
    /// results (end of Section 3).
    pub fn embeds_in_repetition_free(&self, m: u16) -> bool {
        if self.depth() > m as usize {
            return false;
        }
        self.nodes
            .iter()
            .all(|n| n.children.len() <= (m as usize).saturating_sub(n.depth))
    }

    /// Reconstructs the data sequence spelled by the path from the root to
    /// `node`.
    pub fn path_to(&self, node: usize) -> DataSeq {
        let mut items = Vec::new();
        let mut cur = node;
        while let Some(parent) = self.nodes[cur].parent {
            items.push(self.nodes[cur].label.expect("non-root has a label"));
            cur = parent;
        }
        items.reverse();
        DataSeq::from(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(v: &[u16]) -> DataSeq {
        DataSeq::from_indices(v.iter().copied())
    }

    #[test]
    fn family_rejects_duplicates() {
        let r = SequenceFamily::from_seqs([seq(&[0]), seq(&[1]), seq(&[0])]);
        assert_eq!(
            r,
            Err(Error::EncodingNotInjective {
                first: 0,
                second: 2
            })
        );
    }

    #[test]
    fn all_up_to_counts() {
        // Σ_{k=0}^{2} 2^k = 7.
        let x = SequenceFamily::all_up_to(2, 2);
        assert_eq!(x.len(), 7);
        assert!(x.is_prefix_closed());
        // d = 3, len ≤ 3: 1 + 3 + 9 + 27 = 40.
        assert_eq!(SequenceFamily::all_up_to(3, 3).len(), 40);
    }

    #[test]
    fn repetition_free_family_has_alpha_size() {
        for d in 0u16..=5 {
            let x = SequenceFamily::repetition_free(d);
            assert_eq!(x.len() as u128, crate::alpha::alpha(d as u32).unwrap());
            assert!(x.is_prefix_closed());
            assert!(x.iter().all(DataSeq::is_repetition_free));
        }
    }

    #[test]
    fn prefix_closedness_detection() {
        let closed = SequenceFamily::from_seqs([DataSeq::new(), seq(&[0]), seq(&[0, 1])]).unwrap();
        assert!(closed.is_prefix_closed());
        let open = SequenceFamily::from_seqs([seq(&[0, 1])]).unwrap();
        assert!(!open.is_prefix_closed());
    }

    #[test]
    fn identifying_prefix_len_cases() {
        // Distinguished at the first element.
        let x = SequenceFamily::from_seqs([seq(&[0, 0]), seq(&[1, 0])]).unwrap();
        assert_eq!(x.identifying_prefix_len(), Some(1));
        // Distinguished only at the second.
        let y = SequenceFamily::from_seqs([seq(&[0, 0]), seq(&[0, 1])]).unwrap();
        assert_eq!(y.identifying_prefix_len(), Some(2));
        // Prefix-of-each-other: lengths distinguish at i = 2.
        let z = SequenceFamily::from_seqs([seq(&[0]), seq(&[0, 1])]).unwrap();
        assert_eq!(z.identifying_prefix_len(), Some(2));
        // Singleton and empty families.
        assert_eq!(
            SequenceFamily::from_seqs([seq(&[3])])
                .unwrap()
                .identifying_prefix_len(),
            Some(0)
        );
        assert_eq!(SequenceFamily::new().identifying_prefix_len(), Some(0));
    }

    #[test]
    fn take_restricts_in_order() {
        let x = SequenceFamily::from_seqs([seq(&[0]), seq(&[1]), seq(&[2])]).unwrap();
        let t = x.take(2);
        assert_eq!(t.len(), 2);
        assert!(t.contains(&seq(&[0])));
        assert!(t.contains(&seq(&[1])));
        assert!(!t.contains(&seq(&[2])));
    }

    #[test]
    fn prefix_tree_structure() {
        let x = SequenceFamily::from_seqs([seq(&[0, 1]), seq(&[0, 2]), seq(&[1])]).unwrap();
        let t = x.prefix_tree();
        // root, 0, 0-1, 0-2, 1 → 5 nodes.
        assert_eq!(t.len(), 5);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.max_arity_at_depth(0), 2);
        assert_eq!(t.max_arity_at_depth(1), 2);
        // Terminals: 0-1, 0-2, 1 (but not 0 or root).
        let terminals: Vec<DataSeq> = t
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.terminal)
            .map(|(i, _)| t.path_to(i))
            .collect();
        assert_eq!(terminals.len(), 3);
        assert!(terminals.contains(&seq(&[0, 1])));
        assert!(terminals.contains(&seq(&[1])));
    }

    #[test]
    fn embedding_condition() {
        // Full binary family of depth 2 over d=2: root has 2 children
        // (depth 0: need m ≥ 2), depth-1 nodes have 2 children (need
        // m - 1 ≥ 2 → m ≥ 3).
        let x = SequenceFamily::all_up_to(2, 2);
        let t = x.prefix_tree();
        assert!(!t.embeds_in_repetition_free(2));
        assert!(t.embeds_in_repetition_free(3));
        // The repetition-free family over d letters embeds exactly at m = d.
        for d in 1u16..=4 {
            let rf = SequenceFamily::repetition_free(d).prefix_tree();
            assert!(rf.embeds_in_repetition_free(d), "d={d}");
            if d > 0 {
                assert!(!rf.embeds_in_repetition_free(d - 1), "d={d}");
            }
        }
    }

    #[test]
    fn path_reconstruction_round_trip() {
        let x = SequenceFamily::from_seqs([seq(&[2, 0, 1])]).unwrap();
        let t = x.prefix_tree();
        let deepest = t
            .nodes()
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| n.depth)
            .unwrap()
            .0;
        assert_eq!(t.path_to(deepest), seq(&[2, 0, 1]));
        assert_eq!(t.path_to(0), DataSeq::new());
    }
}
