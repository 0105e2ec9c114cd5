//! Dense per-node containers indexed by [`NodeId`].
//!
//! Node ids are dense and never reused within a run (see [`NodeId`]), so
//! per-node state can live in a vector indexed by `NodeId.0` instead of an
//! ordered tree: membership and lookup become one index, and iteration
//! still runs in ascending id order — the order a `BTreeSet<NodeId>` /
//! `BTreeMap<NodeId, V>` gives, which candidate shuffles, audits and dumps
//! depend on. Memory is proportional to the largest id stored, which is at
//! most the number of nodes the topology ever registered.

use crate::topology::NodeId;

/// A set of nodes: one bit per id, iterated in ascending id order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(node: NodeId) -> (usize, u64) {
        ((node.0 / 64) as usize, 1u64 << (node.0 % 64))
    }

    /// Add `node`; true if it was not already present.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, bit) = Self::slot(node);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Drop `node`; true if it was present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, bit) = Self::slot(node);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let present = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Whether `node` is in the set.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, bit) = Self::slot(node);
        self.words.get(w).is_some_and(|&word| word & bit != 0)
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(NodeId(w as u32 * 64 + bit))
            })
        })
    }
}

/// A map from nodes to `V`, stored densely by id and iterated in
/// ascending id order.
#[derive(Clone, Debug)]
pub struct NodeMap<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for NodeMap<V> {
    fn default() -> Self {
        NodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> NodeMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `node`'s value, returning the one it replaces.
    pub fn insert(&mut self, node: NodeId, value: V) -> Option<V> {
        let i = node.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Drop `node`'s entry, returning its value.
    pub fn remove(&mut self, node: NodeId) -> Option<V> {
        let old = self.slots.get_mut(node.0 as usize)?.take();
        self.len -= usize::from(old.is_some());
        old
    }

    /// `node`'s value, if it has one.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&V> {
        self.slots.get(node.0 as usize)?.as_ref()
    }

    /// `node`'s value for mutation, if it has one.
    #[inline]
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut V> {
        self.slots.get_mut(node.0 as usize)?.as_mut()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((NodeId(i as u32), v.as_ref()?)))
    }

    /// The values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten()
    }

    /// The values in ascending id order, for mutation.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn set_basics() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(NodeId(130)));
        assert!(!s.insert(NodeId(130)));
        assert!(s.insert(NodeId(3)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(3), NodeId(130)]);
        assert!(s.contains(NodeId(3)) && !s.contains(NodeId(4)) && !s.contains(NodeId(9999)));
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)) && !s.remove(NodeId(9999)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn map_basics() {
        let mut m = NodeMap::new();
        assert_eq!(m.insert(NodeId(7), "a"), None);
        assert_eq!(m.insert(NodeId(7), "b"), Some("a"));
        assert_eq!(m.insert(NodeId(2), "c"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(NodeId(2), &"c"), (NodeId(7), &"b")]
        );
        *m.get_mut(NodeId(2)).unwrap() = "d";
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec!["d", "b"]);
        assert_eq!(m.remove(NodeId(7)), Some("b"));
        assert_eq!(m.remove(NodeId(500)), None);
        assert!(m.get(NodeId(7)).is_none() && m.get(NodeId(2)).is_some());
        assert_eq!(m.len(), 1);
    }

    proptest! {
        /// Random insert/remove/lookup sequences keep `NodeSet` and
        /// `NodeMap` indistinguishable from the `BTreeSet` / `BTreeMap`
        /// they replace: same return values, length and membership after
        /// every step, and the same ascending iteration order at the end.
        #[test]
        fn prop_dense_matches_btree(ops in proptest::collection::vec((0u8..4, 0u32..300, 0u32..1000), 1..300)) {
            let mut set = NodeSet::new();
            let mut set_ref = BTreeSet::new();
            let mut map = NodeMap::new();
            let mut map_ref = BTreeMap::new();
            for (op, id, v) in ops {
                let n = NodeId(id);
                match op {
                    0 | 1 => {
                        prop_assert_eq!(set.insert(n), set_ref.insert(n));
                        prop_assert_eq!(map.insert(n, v), map_ref.insert(n, v));
                    }
                    2 => {
                        prop_assert_eq!(set.remove(n), set_ref.remove(&n));
                        prop_assert_eq!(map.remove(n), map_ref.remove(&n));
                    }
                    _ => {
                        if let Some(x) = map.get_mut(n) {
                            *x += v;
                        }
                        if let Some(x) = map_ref.get_mut(&n) {
                            *x += v;
                        }
                    }
                }
                prop_assert_eq!(set.contains(n), set_ref.contains(&n));
                prop_assert_eq!(map.get(n), map_ref.get(&n));
                prop_assert_eq!(set.len(), set_ref.len());
                prop_assert_eq!(map.len(), map_ref.len());
            }
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), set_ref.iter().copied().collect::<Vec<_>>());
            let pairs: Vec<(NodeId, u32)> = map.iter().map(|(n, &v)| (n, v)).collect();
            let pairs_ref: Vec<(NodeId, u32)> = map_ref.iter().map(|(&n, &v)| (n, v)).collect();
            prop_assert_eq!(pairs, pairs_ref);
        }
    }
}
