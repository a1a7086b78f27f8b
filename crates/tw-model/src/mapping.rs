//! Reconstruction outputs: predicted parent→children mappings, ranked
//! alternatives (for top-K accuracy and debugging), and assembled traces.

use crate::ids::RpcId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A predicted mapping from each parent RPC to the set of child RPCs it is
/// believed to have spawned. Mappings from independent per-service
/// reconstruction tasks merge into one global `Mapping` (paper §4.1: the
/// independently mapped pieces "can be trivially assembled in
/// post-processing").
///
/// Most mapped parents are childless (every call a leaf service serves),
/// so those cost one set entry, not a child list.
#[derive(Debug, Clone, Default)]
pub struct Mapping {
    /// Parents with at least one predicted child: each list sorted,
    /// deduplicated and at exact capacity.
    children: HashMap<RpcId, Vec<RpcId>>,
    /// Parents mapped to the empty child set; disjoint from `children`.
    childless: HashSet<RpcId>,
}

/// Serialized form: one parent → children map, childless parents as
/// empty lists (the vendored serde lacks `#[serde(from/into)]`, hence the
/// manual impls).
#[derive(Serialize, Deserialize)]
struct MappingDoc {
    children: HashMap<RpcId, Vec<RpcId>>,
}

impl Serialize for Mapping {
    fn to_value(&self) -> serde::Value {
        let children = self.iter().map(|(p, kids)| (p, kids.to_vec())).collect();
        MappingDoc { children }.to_value()
    }
}

impl<'de> Deserialize<'de> for Mapping {
    fn from_value(value: serde::Value) -> Result<Self, serde::DeError> {
        let doc = MappingDoc::from_value(value)?;
        let mut mapping = Mapping::new();
        for (parent, kids) in doc.children {
            mapping.assign(parent, kids);
        }
        Ok(mapping)
    }
}

impl Mapping {
    pub fn new() -> Self {
        Mapping::default()
    }

    /// Record the predicted children of `parent`. Children are stored
    /// sorted so that set comparison is cheap. Merging the same parent
    /// twice extends the child set (a parent's children at different
    /// backend services may arrive from different tasks).
    pub fn assign(&mut self, parent: RpcId, children: impl IntoIterator<Item = RpcId>) {
        let mut children = children.into_iter().peekable();
        if children.peek().is_none() {
            if !self.children.contains_key(&parent) {
                self.childless.insert(parent);
            }
            return;
        }
        self.childless.remove(&parent);
        let entry = self.children.entry(parent).or_default();
        entry.extend(children);
        entry.sort();
        entry.dedup();
        entry.shrink_to_fit();
    }

    /// Predicted children of a parent (sorted), empty if unmapped.
    pub fn children(&self, parent: RpcId) -> &[RpcId] {
        self.children.get(&parent).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if the parent has an entry (possibly with an empty child set,
    /// which is a valid prediction when dynamism skipped all calls).
    pub fn contains(&self, parent: RpcId) -> bool {
        self.children.contains_key(&parent) || self.childless.contains(&parent)
    }

    /// Number of mapped parents.
    pub fn len(&self) -> usize {
        self.children.len() + self.childless.len()
    }

    pub fn is_empty(&self) -> bool {
        self.children.is_empty() && self.childless.is_empty()
    }

    /// Merge another mapping into this one.
    pub fn merge(&mut self, other: Mapping) {
        for (parent, kids) in other.children {
            if self.contains(parent) {
                self.assign(parent, kids);
            } else {
                // Already sorted, deduplicated and exact: move it in.
                self.children.insert(parent, kids);
            }
        }
        for parent in other.childless {
            self.assign(parent, []);
        }
    }

    /// Every mapped parent with its children (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (RpcId, &[RpcId])> + '_ {
        let with_children = self.children.iter().map(|(k, v)| (*k, v.as_slice()));
        with_children.chain(self.childless.iter().map(|&k| (k, &[][..])))
    }

    /// Assemble the full trace tree below `root` by following predicted
    /// children. Cycles (possible with a wrong prediction) are broken by
    /// never revisiting an RPC.
    ///
    /// # Examples
    /// ```
    /// use tw_model::{Mapping, RpcId};
    /// let mut m = Mapping::new();
    /// m.assign(RpcId(1), [RpcId(2), RpcId(3)]);
    /// m.assign(RpcId(2), [RpcId(4)]);
    /// let trace = m.assemble(RpcId(1));
    /// // Pre-order: root, first child subtree, second child.
    /// let order: Vec<u64> = trace.rpcs().map(|r| r.0).collect();
    /// assert_eq!(order, vec![1, 2, 4, 3]);
    /// ```
    pub fn assemble(&self, root: RpcId) -> AssembledTrace {
        let (mut nodes, mut visited) = (Vec::new(), HashSet::new());
        self.walk(root, &mut Vec::new(), |rpc, depth| {
            let first = visited.insert(rpc);
            if first {
                nodes.push((rpc, depth));
            }
            first
        });
        AssembledTrace { root, nodes }
    }

    /// The traversal behind [`assemble`](Self::assemble): offers each RPC
    /// reached from `root`, in pre-order, with its depth to `visit`, and
    /// follows its children only if `visit` returns true (false for an
    /// RPC seen before breaks a cycle). `stack` is scratch, left empty.
    pub fn walk(
        &self,
        root: RpcId,
        stack: &mut Vec<(RpcId, usize)>,
        mut visit: impl FnMut(RpcId, usize) -> bool,
    ) {
        stack.push((root, 0));
        while let Some((rpc, depth)) = stack.pop() {
            if visit(rpc, depth) {
                stack.extend(self.children(rpc).iter().rev().map(|&c| (c, depth + 1)));
            }
        }
    }
}

/// A fully assembled trace: pre-order list of (rpc, depth) pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssembledTrace {
    pub root: RpcId,
    pub nodes: Vec<(RpcId, usize)>,
}

impl AssembledTrace {
    pub fn rpcs(&self) -> impl Iterator<Item = RpcId> + '_ {
        self.nodes.iter().map(|&(r, _)| r)
    }
}

/// Ranked candidate child sets per parent, best first — the paper's top-K
/// output (§6.2.1): "a ranked list of 5 candidate mappings at each service".
/// Optionally carries each candidate's log-likelihood score so operators
/// can see how decisive the ranking was.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankedMapping {
    ranked: HashMap<RpcId, Vec<Vec<RpcId>>>,
    scores: HashMap<RpcId, Vec<f64>>,
}

impl RankedMapping {
    pub fn new() -> Self {
        RankedMapping::default()
    }

    /// Record the ranked candidates for a parent. Each candidate child set
    /// is stored sorted.
    pub fn set(&mut self, parent: RpcId, mut candidates: Vec<Vec<RpcId>>) {
        for c in &mut candidates {
            c.sort();
            c.dedup();
        }
        self.ranked.insert(parent, candidates);
    }

    /// Record ranked candidates together with their scores (best first).
    pub fn set_scored(&mut self, parent: RpcId, candidates: Vec<(Vec<RpcId>, f64)>) {
        let (sets, scores): (Vec<Vec<RpcId>>, Vec<f64>) = candidates.into_iter().unzip();
        self.set(parent, sets);
        self.scores.insert(parent, scores);
    }

    /// Scores aligned with [`RankedMapping::candidates`]; empty if the
    /// producer didn't record them.
    pub fn scores(&self, parent: RpcId) -> &[f64] {
        self.scores.get(&parent).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn candidates(&self, parent: RpcId) -> &[Vec<RpcId>] {
        self.ranked.get(&parent).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    pub fn merge(&mut self, other: RankedMapping) {
        self.ranked.extend(other.ranked);
        self.scores.extend(other.scores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x: u64) -> RpcId {
        RpcId(x)
    }

    #[test]
    fn assign_sorts_and_dedups() {
        let mut m = Mapping::new();
        m.assign(r(1), [r(3), r(2), r(3)]);
        assert_eq!(m.children(r(1)), &[r(2), r(3)]);
    }

    #[test]
    fn assign_same_parent_extends() {
        let mut m = Mapping::new();
        m.assign(r(1), [r(2)]);
        m.assign(r(1), [r(3)]);
        assert_eq!(m.children(r(1)), &[r(2), r(3)]);
    }

    #[test]
    fn empty_assignment_still_counts_as_mapped() {
        let mut m = Mapping::new();
        m.assign(r(1), []);
        assert!(m.contains(r(1)));
        assert!(m.children(r(1)).is_empty());
        assert!(!m.contains(r(2)));
    }

    type Reference = HashMap<RpcId, Vec<RpcId>>;

    /// The map `Mapping` stored before childless parents got their own
    /// set: `assign` extends the parent's list, then sorts and dedups it.
    fn reference_assign(reference: &mut Reference, parent: RpcId, kids: &[RpcId]) {
        let entry = reference.entry(parent).or_default();
        entry.extend(kids);
        entry.sort();
        entry.dedup();
    }

    fn sorted_entries<'a>(
        entries: impl Iterator<Item = (RpcId, &'a [RpcId])>,
    ) -> Vec<(RpcId, Vec<RpcId>)> {
        let mut out: Vec<_> = entries.map(|(p, kids)| (p, kids.to_vec())).collect();
        out.sort();
        out
    }

    /// Every observable of `m` against the reference, plus the storage
    /// invariants: the two parent sets are disjoint and every child list
    /// is non-empty and at exact capacity.
    fn assert_matches_reference(m: &Mapping, reference: &Reference) {
        for parent in (0..16).map(r) {
            assert_eq!(m.contains(parent), reference.contains_key(&parent));
            let want = reference.get(&parent).map(Vec::as_slice).unwrap_or(&[]);
            assert_eq!(m.children(parent), want);
        }
        assert_eq!(
            (m.len(), m.is_empty()),
            (reference.len(), reference.is_empty())
        );
        let want = sorted_entries(reference.iter().map(|(p, kids)| (*p, kids.as_slice())));
        assert_eq!(sorted_entries(m.iter()), want);
        assert!(m.childless.iter().all(|p| !m.children.contains_key(p)));
        assert!(m
            .children
            .values()
            .all(|v| !v.is_empty() && v.capacity() == v.len()));
        let json = serde_json::to_string(m).unwrap();
        let back: Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(sorted_entries(back.iter()), want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Two mappings built from interleaved assignments (empty child
        /// sets before and after non-empty ones), then one merged into the
        /// other, observe exactly like the reference map.
        #[test]
        fn assign_and_merge_match_a_plain_map(
            ops in proptest::prop::collection::vec(
                (0u8..2, 0u64..16, proptest::prop::collection::vec(0u64..24, 0..4)),
                0..48,
            ),
        ) {
            let (mut ms, mut refs) = ([Mapping::new(), Mapping::new()], [Reference::new(), Reference::new()]);
            for (side, parent, kids) in ops {
                let kids: Vec<RpcId> = kids.into_iter().map(r).collect();
                ms[usize::from(side)].assign(r(parent), kids.iter().copied());
                reference_assign(&mut refs[usize::from(side)], r(parent), &kids);
            }
            for (m, reference) in ms.iter().zip(&refs) {
                assert_matches_reference(m, reference);
            }
            let [mut a, b] = ms;
            let [mut ref_a, ref_b] = refs;
            a.merge(b);
            for (parent, kids) in &ref_b {
                reference_assign(&mut ref_a, *parent, kids);
            }
            assert_matches_reference(&a, &ref_a);
        }
    }

    #[test]
    fn merge_combines() {
        let mut a = Mapping::new();
        a.assign(r(1), [r(2)]);
        let mut b = Mapping::new();
        b.assign(r(2), [r(4)]);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.children(r(2)), &[r(4)]);
    }

    #[test]
    fn assemble_walks_tree() {
        let mut m = Mapping::new();
        m.assign(r(1), [r(2), r(3)]);
        m.assign(r(2), [r(4)]);
        let t = m.assemble(r(1));
        assert_eq!(t.nodes, vec![(r(1), 0), (r(2), 1), (r(4), 2), (r(3), 1)]);
    }

    #[test]
    fn assemble_breaks_cycles() {
        let mut m = Mapping::new();
        m.assign(r(1), [r(2)]);
        m.assign(r(2), [r(1)]);
        let t = m.assemble(r(1));
        assert_eq!(t.nodes, vec![(r(1), 0), (r(2), 1)]);
    }

    #[test]
    fn ranked_mapping_ordering_preserved() {
        let mut rm = RankedMapping::new();
        rm.set(r(1), vec![vec![r(3), r(2)], vec![r(4)]]);
        let cands = rm.candidates(r(1));
        assert_eq!(cands[0], vec![r(2), r(3)]);
        assert_eq!(cands[1], vec![r(4)]);
    }

    #[test]
    fn ranked_scores_recorded() {
        let mut rm = RankedMapping::new();
        rm.set_scored(r(1), vec![(vec![r(2)], -1.5), (vec![r(3)], -7.0)]);
        assert_eq!(rm.candidates(r(1)).len(), 2);
        assert_eq!(rm.scores(r(1)), &[-1.5, -7.0]);
        assert!(rm.scores(r(9)).is_empty());
    }
}
