//! The in-memory prefix trie, keyed by [`Ipv4Prefix`].
//!
//! [`CowTrie`] is a persistent (copy-on-write) binary trie whose nodes
//! live behind [`Arc`]s. Cloning is O(1); mutating a clone path-copies
//! only the nodes on the touched prefix's spine and shares every
//! untouched subtrie with the original. This is what lets consecutive
//! snapshots of a churn series share the ~99% of their route tables that
//! BGP churn never touched. It supports the lookups the policy analyses
//! need: exact match ([`CowTrie::get`]), longest-prefix match
//! ([`CowTrie::best_match`]) and covering /
//! covered enumeration ([`CowTrie::covering`], [`CowTrie::covered`]) —
//! how Table 9's splitting/aggregating counts find less- and
//! more-specific companions of an SA prefix.
//!
//! ## The shared trie is the delta
//!
//! Because a clone shares every untouched subtrie with its original,
//! *what differs* between two tries is reachable without visiting what
//! does not: [`CowTrie::diff`] walks both in lockstep and skips every
//! subtrie the two hold as the same `Arc`. The history verbs of
//! `rpi-query` are built on it — a fold over what `diff` reports from
//! each snapshot to the next, which looks the first snapshot up where a
//! verdict asks and never scans it. **Pointer equality is only ever a shortcut for "equal",
//! never evidence of a difference**: two subtries that are not the same
//! `Arc` are compared entry by entry, so tries that share nothing (built
//! apart, or decoded from an archive keyframe) diff correctly at the
//! cost of walking both.
//!
//! Its serve-from-bytes counterpart is [`crate::flat::FlatTrie`].

use std::sync::Arc;

use crate::prefix::Ipv4Prefix;

/// Bit `depth` (0-based from the MSB) of `bits`.
fn bit_at(bits: u32, depth: u8) -> usize {
    ((bits >> (31 - depth as u32)) & 1) as usize
}

#[derive(Debug)]
struct CowNode<T> {
    value: Option<T>,
    children: [Option<Arc<CowNode<T>>>; 2],
}

impl<T> Default for CowNode<T> {
    fn default() -> Self {
        CowNode {
            value: None,
            children: [None, None],
        }
    }
}

impl<T: Clone> Clone for CowNode<T> {
    /// A *shallow* structural clone: the value is cloned, the children
    /// stay shared. This is exactly what [`Arc::make_mut`] needs for
    /// path copying.
    fn clone(&self) -> Self {
        CowNode {
            value: self.value.clone(),
            children: [self.children[0].clone(), self.children[1].clone()],
        }
    }
}

/// A persistent (copy-on-write) prefix trie.
///
/// Clones share all nodes with the original in O(1); `insert`/`remove`
/// on a clone copy only the spine of the touched prefix (≤ 33 nodes) and
/// keep sharing everything else. Lookups are differentially checked
/// against a `BTreeMap` oracle — see `cow_matches_plain_under_random_ops`
/// in this module's tests.
///
/// ```
/// use bgp_types::{CowTrie, Ipv4Prefix};
/// let mut day0: CowTrie<&str> = CowTrie::new();
/// day0.insert("12.0.0.0/19".parse().unwrap(), "stable");
/// day0.insert("192.168.0.0/16".parse().unwrap(), "stable");
///
/// let mut day1 = day0.clone(); // O(1): every node shared
/// day1.insert("12.0.16.0/24".parse().unwrap(), "new"); // path-copies one spine
///
/// assert_eq!(day0.len(), 2);
/// assert_eq!(day1.len(), 3);
/// // The untouched 192.168/16 subtrie is still physically shared:
/// assert!(day1.shared_nodes_with(&day0) > 0);
/// ```
#[derive(Debug)]
pub struct CowTrie<T> {
    root: Arc<CowNode<T>>,
    len: usize,
}

impl<T> Clone for CowTrie<T> {
    fn clone(&self) -> Self {
        CowTrie {
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<T> Default for CowTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CowTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        CowTrie {
            root: Arc::new(CowNode::default()),
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&T> {
        let mut node = &*self.root;
        for depth in 0..prefix.len() {
            let b = bit_at(prefix.bits(), depth);
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// The longest stored prefix covering `prefix` (itself included) —
    /// longest-prefix match generalized from addresses to prefixes. This
    /// is the serving-layer lookup: a query for `10.1.2.0/24` answered by
    /// the table's `10.1.0.0/16` route.
    pub fn best_match(&self, prefix: Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        let mut node = &*self.root;
        let mut best: Option<(Ipv4Prefix, &T)> =
            node.value.as_ref().map(|v| (Ipv4Prefix::DEFAULT, v));
        for depth in 0..prefix.len() {
            let b = bit_at(prefix.bits(), depth);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((Ipv4Prefix::canonical(prefix.bits(), depth + 1), v));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// All stored prefixes that **cover** `prefix` (itself included),
    /// shortest first — the candidates that could aggregate it.
    pub fn covering(&self, prefix: Ipv4Prefix) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        let mut out: Vec<(Ipv4Prefix, &T)> = Vec::new();
        let mut node = &*self.root;
        if let Some(v) = node.value.as_ref() {
            out.push((Ipv4Prefix::DEFAULT, v));
        }
        for depth in 0..prefix.len() {
            let Some(child) = node.children[bit_at(prefix.bits(), depth)].as_deref() else {
                break;
            };
            node = child;
            if let Some(v) = node.value.as_ref() {
                out.push((Ipv4Prefix::canonical(prefix.bits(), depth + 1), v));
            }
        }
        out.into_iter()
    }

    /// All stored prefixes **covered by** `prefix` (itself included), in
    /// lexicographic order — the more-specifics that could have been split
    /// out of it.
    pub fn covered(&self, prefix: Ipv4Prefix) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        let mut out: Vec<(Ipv4Prefix, &T)> = Vec::new();
        // Walk down to the subtree root for `prefix`.
        let mut node = Some(&*self.root);
        for depth in 0..prefix.len() {
            node = node.and_then(|n| n.children[bit_at(prefix.bits(), depth)].as_deref());
        }
        if let Some(node) = node {
            collect_cow_subtree(node, prefix.bits(), prefix.len(), &mut out);
        }
        out.into_iter()
    }

    /// Iterates over all `(prefix, value)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        let mut out: Vec<(Ipv4Prefix, &T)> = Vec::with_capacity(self.len);
        collect_cow_subtree(&self.root, 0, 0, &mut out);
        out.into_iter()
    }

    /// Total node count (values and interior nodes, root included).
    /// Walks the structure, so shared subtries are counted at full size —
    /// use [`Self::shared_nodes_with`] to see how much is physically
    /// shared.
    pub fn node_count(&self) -> usize {
        count_cow_nodes(&self.root)
    }

    /// Heap size of one trie node, for bytes-shared reporting.
    pub fn node_size() -> usize {
        std::mem::size_of::<CowNode<T>>()
    }

    /// How many of this trie's nodes are *physically* shared (pointer-
    /// equal) with `base` — the predecessor snapshot's trie, typically.
    /// Path copying preserves positions, so a positional lockstep walk
    /// finds every shared subtrie.
    pub fn shared_nodes_with(&self, base: &Self) -> usize {
        shared_cow_nodes(&self.root, &base.root)
    }
}

impl<T: PartialEq> CowTrie<T> {
    /// Calls `f(prefix, old, new)`, in prefix order (the order of
    /// [`Self::iter`]), for every prefix whose entry in `self` differs
    /// from its entry in `base`: added (`old` is `None`), removed (`new`
    /// is `None`), or stored in both with unequal values.
    ///
    /// A positional lockstep walk that skips every subtrie the two tries
    /// share physically, so diffing a snapshot against the predecessor
    /// it was cloned from costs the spines churn touched, not the table.
    /// Sharing only ever saves work: unshared subtries are compared entry
    /// by entry, and an equal value behind a fresh spine reports nothing.
    ///
    /// ```
    /// use bgp_types::{CowTrie, Ipv4Prefix};
    /// let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
    /// let mut day0: CowTrie<u32> = CowTrie::new();
    /// day0.insert(p("12.0.0.0/19"), 1);
    /// day0.insert(p("192.168.0.0/16"), 2);
    /// let mut day1 = day0.clone();
    /// day1.insert(p("12.0.0.0/19"), 7);
    /// day1.remove(p("192.168.0.0/16"));
    /// day1.insert(p("10.0.0.0/8"), 3);
    ///
    /// let mut seen = Vec::new();
    /// day1.diff(&day0, |q, old, new| seen.push((q, old.copied(), new.copied())));
    /// assert_eq!(
    ///     seen,
    ///     vec![
    ///         (p("10.0.0.0/8"), None, Some(3)),
    ///         (p("12.0.0.0/19"), Some(1), Some(7)),
    ///         (p("192.168.0.0/16"), Some(2), None),
    ///     ]
    /// );
    /// ```
    pub fn diff(&self, base: &Self, mut f: impl FnMut(Ipv4Prefix, Option<&T>, Option<&T>)) {
        diff_cow_nodes(Some(&base.root), Some(&self.root), 0, 0, &mut f);
    }
}

impl<T: Clone> CowTrie<T> {
    /// Inserts `value` at `prefix`, returning the previous value if any.
    /// Nodes on the prefix's spine that are shared with another trie are
    /// copied first ([`Arc::make_mut`]); everything off-spine stays
    /// shared.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let mut node = Arc::make_mut(&mut self.root);
        for depth in 0..prefix.len() {
            let b = bit_at(prefix.bits(), depth);
            let child = node.children[b].get_or_insert_with(Arc::default);
            node = Arc::make_mut(child);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `prefix`. Empty interior nodes
    /// are left in place (removal is rare next to lookup, and the spine
    /// was just path-copied anyway).
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<T> {
        // Walk immutably first: a miss must not path-copy the spine.
        self.get(prefix)?;
        let mut node = Arc::make_mut(&mut self.root);
        for depth in 0..prefix.len() {
            let b = bit_at(prefix.bits(), depth);
            let child = node.children[b].as_mut().expect("checked by get above");
            node = Arc::make_mut(child);
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }
}

impl<T: Clone> FromIterator<(Ipv4Prefix, T)> for CowTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut t = CowTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

fn collect_cow_subtree<'a, T>(
    node: &'a CowNode<T>,
    bits: u32,
    depth: u8,
    out: &mut Vec<(Ipv4Prefix, &'a T)>,
) {
    if let Some(v) = node.value.as_ref() {
        out.push((Ipv4Prefix::canonical(bits, depth), v));
    }
    if depth == 32 {
        return;
    }
    if let Some(child) = node.children[0].as_deref() {
        collect_cow_subtree(child, bits, depth + 1, out);
    }
    if let Some(child) = node.children[1].as_deref() {
        collect_cow_subtree(child, bits | (1u32 << (31 - depth as u32)), depth + 1, out);
    }
}

fn count_cow_nodes<T>(node: &CowNode<T>) -> usize {
    1 + node
        .children
        .iter()
        .flatten()
        .map(|c| count_cow_nodes(c))
        .sum::<usize>()
}

fn shared_cow_nodes<T>(a: &Arc<CowNode<T>>, b: &Arc<CowNode<T>>) -> usize {
    if Arc::ptr_eq(a, b) {
        return count_cow_nodes(a);
    }
    let mut n = 0;
    for i in 0..2 {
        if let (Some(ca), Some(cb)) = (&a.children[i], &b.children[i]) {
            n += shared_cow_nodes(ca, cb);
        }
    }
    n
}

fn diff_cow_nodes<T: PartialEq>(
    old: Option<&Arc<CowNode<T>>>,
    new: Option<&Arc<CowNode<T>>>,
    bits: u32,
    depth: u8,
    f: &mut impl FnMut(Ipv4Prefix, Option<&T>, Option<&T>),
) {
    match (old, new) {
        (None, None) => return,
        (Some(a), Some(b)) if Arc::ptr_eq(a, b) => return,
        _ => {}
    }
    let was = old.and_then(|n| n.value.as_ref());
    let is = new.and_then(|n| n.value.as_ref());
    if was != is {
        f(Ipv4Prefix::canonical(bits, depth), was, is);
    }
    if depth == 32 {
        return;
    }
    for b in 0..2 {
        diff_cow_nodes(
            old.and_then(|n| n.children[b].as_ref()),
            new.and_then(|n| n.children[b].as_ref()),
            bits | ((b as u32) << (31 - depth as u32)),
            depth + 1,
            f,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn cow_sample() -> CowTrie<&'static str> {
        let mut t = CowTrie::new();
        t.insert(p("12.0.0.0/8"), "eight");
        t.insert(p("12.0.0.0/19"), "nineteen");
        t.insert(p("12.0.16.0/24"), "deep");
        t.insert(p("192.168.0.0/16"), "rfc1918");
        t
    }

    #[test]
    fn cow_insert_get_remove() {
        let mut t = cow_sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(p("12.0.0.0/19")), Some(&"nineteen"));
        assert_eq!(t.get(p("12.0.0.0/20")), None);
        assert_eq!(t.insert(p("12.0.0.0/19"), "updated"), Some("nineteen"));
        assert_eq!(t.len(), 4);
        assert_eq!(t.remove(p("12.0.0.0/19")), Some("updated"));
        assert_eq!(t.remove(p("12.0.0.0/19")), None);
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.best_match(p("12.0.16.0/24")).map(|(q, _)| q),
            Some(p("12.0.16.0/24"))
        );
        assert_eq!(t.best_match(p("12.0.32.1/32")).unwrap().0, p("12.0.0.0/8"));
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let t = cow_sample();
        let host = p("12.0.16.7/32");
        assert_eq!(t.best_match(host).unwrap().0, p("12.0.16.0/24"));
        let host2 = p("12.0.32.1/32");
        assert_eq!(t.best_match(host2).unwrap().0, p("12.0.0.0/8"));
        assert!(t.best_match(p("8.8.8.8/32")).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = cow_sample();
        t.insert(Ipv4Prefix::DEFAULT, "default");
        assert_eq!(
            t.best_match(p("8.8.8.8/32")).unwrap().0,
            Ipv4Prefix::DEFAULT
        );
    }

    #[test]
    fn covering_lists_ancestors_shortest_first() {
        let t = cow_sample();
        let cov: Vec<_> = t.covering(p("12.0.16.0/24")).map(|(q, _)| q).collect();
        assert_eq!(
            cov,
            vec![p("12.0.0.0/8"), p("12.0.0.0/19"), p("12.0.16.0/24")]
        );
        // A prefix not in the trie still reports its stored ancestors.
        let cov2: Vec<_> = t.covering(p("12.0.0.0/24")).map(|(q, _)| q).collect();
        assert_eq!(cov2, vec![p("12.0.0.0/8"), p("12.0.0.0/19")]);
    }

    #[test]
    fn covered_lists_descendants() {
        let t = cow_sample();
        let cov: Vec<_> = t.covered(p("12.0.0.0/19")).map(|(q, _)| q).collect();
        assert_eq!(cov, vec![p("12.0.0.0/19"), p("12.0.16.0/24")]);
        let all: Vec<_> = t.covered(Ipv4Prefix::DEFAULT).map(|(q, _)| q).collect();
        assert_eq!(all.len(), 4);
        assert_eq!(t.covered(p("10.0.0.0/8")).count(), 0);
    }

    #[test]
    fn iter_is_lexicographic() {
        let t = cow_sample();
        let all: Vec<_> = t.iter().map(|(q, _)| q).collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        assert_eq!(all.len(), t.len());
    }

    #[test]
    fn from_iterator() {
        let t: CowTrie<u32> = [(p("1.0.0.0/8"), 1), (p("2.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p("2.0.0.0/8")), Some(&2));
    }

    #[test]
    fn cow_clone_is_fully_shared_until_mutated() {
        let base = cow_sample();
        let clone = base.clone();
        assert_eq!(clone.shared_nodes_with(&base), base.node_count());

        // Mutating the clone path-copies only the touched spine; the
        // 192.168/16 branch (17 nodes) and the untouched 12/8 interior
        // stay physically shared, and the base is unchanged.
        let mut day1 = base.clone();
        day1.insert(p("12.0.16.0/24"), "churned");
        let shared = day1.shared_nodes_with(&base);
        assert!(shared >= 16, "sibling subtries must stay shared: {shared}");
        assert!(shared < base.node_count(), "the spine must be copied");
        assert_eq!(base.get(p("12.0.16.0/24")), Some(&"deep"));
        assert_eq!(day1.get(p("12.0.16.0/24")), Some(&"churned"));
    }

    #[test]
    fn cow_miss_remove_copies_nothing() {
        let base = cow_sample();
        let mut clone = base.clone();
        assert_eq!(clone.remove(p("10.0.0.0/8")), None);
        assert_eq!(clone.shared_nodes_with(&base), base.node_count());
    }

    type Change = (Ipv4Prefix, Option<u64>, Option<u64>);

    /// What `new.diff(old)` reported, in callback order.
    fn changes(new: &CowTrie<u64>, old: &CowTrie<u64>) -> Vec<Change> {
        let mut out = Vec::new();
        new.diff(old, |q, was, is| out.push((q, was.copied(), is.copied())));
        out
    }

    /// The model's answer: the sorted symmetric difference of two maps.
    fn model_changes(
        new: &BTreeMap<Ipv4Prefix, u64>,
        old: &BTreeMap<Ipv4Prefix, u64>,
    ) -> Vec<Change> {
        let keys: std::collections::BTreeSet<_> = old.keys().chain(new.keys()).collect();
        keys.into_iter()
            .map(|q| (*q, old.get(q).copied(), new.get(q).copied()))
            .filter(|(_, was, is)| was != is)
            .collect()
    }

    /// A deterministic pseudo-random stream (splitmix-style, no RNG dep
    /// needed).
    fn stepper(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        }
    }

    #[test]
    fn cow_matches_plain_under_random_ops() {
        // Differential check against a BTreeMap reference (linear-scan
        // LPM) with a deterministic pseudo-random op stream.
        let mut oracle: BTreeMap<Ipv4Prefix, u64> = BTreeMap::new();
        let mut cow: CowTrie<u64> = CowTrie::new();
        let mut history: Vec<(CowTrie<u64>, BTreeMap<Ipv4Prefix, u64>)> = Vec::new();
        let mut step = stepper(0x5EED);
        for i in 0..600u64 {
            let r = step();
            // Small universe so inserts/removes/overwrites all happen;
            // few distinct values so overwrites with an equal value do too.
            let prefix = Ipv4Prefix::canonical(((r >> 8) as u32) & 0xF0F0_0000, (r % 21) as u8);
            match r % 5 {
                0 => assert_eq!(oracle.remove(&prefix), cow.remove(prefix), "op {i}"),
                _ => {
                    let v = (r >> 40) % 3;
                    assert_eq!(oracle.insert(prefix, v), cow.insert(prefix, v), "op {i}");
                }
            }
            assert_eq!(oracle.len(), cow.len(), "op {i}");
            if i % 97 == 0 {
                // `cow` is by now a clone of a clone of … every earlier
                // history entry: diff it against each, both ways.
                for (then, then_oracle) in &history {
                    assert_eq!(
                        changes(&cow, then),
                        model_changes(&oracle, then_oracle),
                        "op {i}"
                    );
                    assert_eq!(
                        changes(then, &cow),
                        model_changes(then_oracle, &oracle),
                        "op {i}"
                    );
                }
                history.push((cow.clone(), oracle.clone()));
            }
            let host = Ipv4Prefix::canonical((step() >> 16) as u32, 32);
            assert_eq!(
                oracle
                    .iter()
                    .filter(|(q, _)| q.covers(host))
                    .max_by_key(|(q, _)| q.len())
                    .map(|(q, v)| (*q, *v)),
                cow.best_match(host).map(|(q, v)| (q, *v)),
                "op {i}"
            );
        }
        assert!(changes(&cow, &cow.clone()).is_empty());
        assert!(!changes(&cow, &history[1].0).is_empty(), "the stream bites");

        // Two tries that share nothing — one built apart from a second
        // stream over the same universe — diff like their models.
        let mut step = stepper(0xFACE);
        let (mut apart, mut apart_oracle) = (CowTrie::new(), BTreeMap::new());
        for _ in 0..300 {
            let r = step();
            let prefix = Ipv4Prefix::canonical(((r >> 8) as u32) & 0xF0F0_0000, (r % 21) as u8);
            apart.insert(prefix, (r >> 40) % 3);
            apart_oracle.insert(prefix, (r >> 40) % 3);
        }
        assert_eq!(apart.shared_nodes_with(&cow), 0);
        assert_eq!(changes(&cow, &apart), model_changes(&oracle, &apart_oracle));
        assert_eq!(changes(&apart, &cow), model_changes(&apart_oracle, &oracle));
        assert_eq!(
            changes(&cow, &CowTrie::new()),
            model_changes(&oracle, &BTreeMap::new())
        );

        let all_cow: Vec<_> = cow.iter().map(|(q, v)| (q, *v)).collect();
        assert_eq!(all_cow, oracle.into_iter().collect::<Vec<_>>());
        // Old clones were never disturbed by later mutation.
        for (h, then) in history {
            let all: Vec<_> = h.iter().map(|(q, v)| (q, *v)).collect();
            assert_eq!(all, then.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn diff_reports_content_not_structure() {
        let base: CowTrie<u64> = [(p("12.0.0.0/8"), 8), (p("12.0.16.0/24"), 24)]
            .into_iter()
            .collect();

        // A remove leaves the /24's now-empty interior spine in place:
        // one removal, nothing for the empty nodes; re-inserting the
        // equal value over the copied spine is no change at all.
        let mut day1 = base.clone();
        day1.remove(p("12.0.16.0/24"));
        assert_eq!(changes(&day1, &base), [(p("12.0.16.0/24"), Some(24), None)]);
        assert_eq!(day1.node_count(), base.node_count());
        let mut day2 = day1.clone();
        day2.insert(p("12.0.16.0/24"), 24);
        assert!(day2.shared_nodes_with(&base) < base.node_count());
        assert!(changes(&day2, &base).is_empty());
        assert_eq!(changes(&day2, &day1), [(p("12.0.16.0/24"), None, Some(24))]);

        // The same content built apart, never cloned: nothing to report;
        // emptied interior nodes on one side only: nothing either.
        let apart: CowTrie<u64> = base.iter().map(|(q, v)| (q, *v)).collect();
        assert_eq!(apart.shared_nodes_with(&base), 0);
        assert!(changes(&apart, &base).is_empty());
        let mut never_had: CowTrie<u64> = CowTrie::new();
        never_had.insert(p("12.0.0.0/8"), 8);
        assert!(changes(&never_had, &day1).is_empty());
        assert!(changes(&day1, &never_had).is_empty());

        // Host routes and the default route sit at the walk's two ends.
        let mut ends = base.clone();
        ends.insert(Ipv4Prefix::DEFAULT, 0);
        ends.insert(p("12.0.16.1/32"), 32);
        assert_eq!(
            changes(&ends, &base),
            [
                (Ipv4Prefix::DEFAULT, None, Some(0)),
                (p("12.0.16.1/32"), None, Some(32))
            ]
        );
    }

    #[test]
    fn host_routes_at_max_depth() {
        let mut t = CowTrie::new();
        t.insert(p("1.2.3.4/32"), ());
        t.insert(p("1.2.3.5/32"), ());
        assert_eq!(t.len(), 2);
        assert_eq!(t.best_match(p("1.2.3.4/32")).unwrap().0, p("1.2.3.4/32"));
        assert_eq!(t.covered(p("1.2.3.4/31")).count(), 2);
        assert_eq!(t.covered(p("1.2.3.4/32")).count(), 1);
        assert_eq!(t.covering(p("1.2.3.5/32")).count(), 1);
    }
}
