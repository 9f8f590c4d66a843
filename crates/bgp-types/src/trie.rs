//! The in-memory prefix trie, keyed by [`Ipv4Prefix`].
//!
//! [`CowTrie`] is a persistent (copy-on-write) multibit trie of stride 4,
//! laid out like Eatherton et al.'s Tree Bitmap (2004), whose nodes live
//! behind [`Arc`]s. A node stands for the 4 address bits below its own
//! depth: a 30-bit slot bitmap says which prefixes 1–4 bits longer than
//! the node are stored in it, a 16-bit child bitmap which of its 16
//! children exist, and both arrays hold only what is set (a value's or a
//! child's index is the popcount of the bits before it). The default
//! route `/0` is the root's one extra slot, so a lookup walks at most 8
//! nodes and a /24 walks 6. Cloning is O(1); mutating a clone
//! path-copies only the nodes on the touched prefix's spine and shares
//! every untouched subtrie with the original. This is what lets
//! consecutive snapshots of a churn series share the ~99% of their route
//! tables that BGP churn never touched. It supports the lookups the
//! policy analyses need: exact match ([`CowTrie::get`]), longest-prefix
//! match ([`CowTrie::best_match`]) and covering / covered enumeration
//! ([`CowTrie::covering`], [`CowTrie::covered`]) — how Table 9's
//! splitting/aggregating counts find less- and more-specific companions
//! of an SA prefix.
//!
//! Slots are numbered in pre-order of the binary subtree a node spans
//! (its own prefix, then each longer prefix before the ones below it,
//! left before right), so walking a node's set bits in ascending order,
//! with each child between the slot it hangs below and the next one, is
//! prefix order ([`Ipv4Prefix`]'s `Ord`).
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
//! Its serve-from-bytes counterpart is [`crate::flat::FlatTrie`], a
//! binary trie on disk.

use std::sync::Arc;

use crate::prefix::Ipv4Prefix;

/// Address bits one node spans.
const STRIDE: u8 = 4;

/// What a node knows of one of its 31 slots (numbered in pre-order: slot
/// 0 is the node's own prefix, used only by the root for `/0`).
#[derive(Clone, Copy)]
struct Slot {
    /// Length of the slot's prefix, relative to the node (0–4).
    len: u8,
    /// The slot's `len` bits below the node's prefix.
    bits: u32,
    /// The slot and every slot below it: a contiguous run in pre-order.
    span: u32,
    /// The slot and every slot above it.
    path: u32,
    /// The children below the slot.
    kids: u16,
}

/// Pre-order position of the slot `len` bits below the node with those
/// `bits`: a step left is the next position, a step right skips the
/// left sibling's subtree.
const fn slot_index(len: u8, bits: u32) -> usize {
    let (mut at, mut level) = (0, 1);
    while level <= len {
        at += if (bits >> (len - level)) & 1 == 0 {
            1
        } else {
            1 << (STRIDE + 1 - level)
        };
        level += 1;
    }
    at
}

/// Every slot, by its pre-order position.
const SLOTS: [Slot; 31] = {
    let empty = Slot {
        len: 0,
        bits: 0,
        span: 0,
        path: 0,
        kids: 0,
    };
    let mut table = [empty; 31];
    let mut len = 0;
    while len <= STRIDE {
        let mut bits = 0;
        while bits < 1 << len {
            let at = slot_index(len, bits);
            let mut path = 0;
            let mut up = 0;
            while up <= len {
                path |= 1 << slot_index(up, bits >> (len - up));
                up += 1;
            }
            let size = (1u32 << (STRIDE + 1 - len)) - 1;
            let kids_below = 1u32 << (STRIDE - len);
            table[at] = Slot {
                len,
                bits,
                span: ((1 << size) - 1) << at,
                path,
                kids: (((1 << kids_below) - 1) << (bits * kids_below)) as u16,
            };
            bits += 1;
        }
        len += 1;
    }
    table
};

/// Slots a pre-order walk visits before child `c`: up to and including
/// the last-level slot `c` hangs below.
const BEFORE_KID: [u32; 16] = {
    let mut table = [0; 16];
    let mut c = 0;
    while c < 16 {
        table[c] = (2 << slot_index(STRIDE, c as u32)) - 1;
        c += 1;
    }
    table
};

/// The slot `prefix` takes in the node at `depth` that holds it (the
/// deepest one at most 4 bits above it).
fn slot_at(prefix: Ipv4Prefix, depth: u8) -> usize {
    let len = prefix.len() - depth;
    slot_index(len, chunk(prefix.bits(), depth) >> (STRIDE - len))
}

/// The 4 bits of `bits` below `depth` (a multiple of 4, at most 28).
fn chunk(bits: u32, depth: u8) -> u32 {
    (bits >> (32 - STRIDE - depth)) & 0xF
}

/// The prefix of slot `s` of the node at `depth` whose prefix bits are
/// `base`.
fn slot_prefix(base: u32, depth: u8, s: usize) -> Ipv4Prefix {
    let Slot { len, bits, .. } = SLOTS[s];
    Ipv4Prefix::canonical(
        base | (bits << (STRIDE - len) << (32 - STRIDE - depth)),
        depth + len,
    )
}

/// The prefix bits of child `c` of the node at `depth` with prefix bits
/// `base`.
fn kid_base(base: u32, depth: u8, c: u32) -> u32 {
    base | (c << (32 - STRIDE - depth))
}

/// Ascending set bits of `mask`.
fn ones(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let at = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(at)
    })
}

#[derive(Debug)]
struct CowNode<T> {
    /// Bit `c`: child `c` (the next 4 address bits are `c`) exists.
    kid_bits: u16,
    /// Bit `s`: slot `s` holds a value.
    slot_bits: u32,
    /// The children, in bit order.
    kids: Box<[Arc<CowNode<T>>]>,
    /// The values, in slot order.
    values: Box<[T]>,
}

impl<T> Default for CowNode<T> {
    fn default() -> Self {
        CowNode {
            kid_bits: 0,
            slot_bits: 0,
            kids: Box::default(),
            values: Box::default(),
        }
    }
}

impl<T: Clone> Clone for CowNode<T> {
    /// A *shallow* structural clone: the values are cloned, the children
    /// stay shared. This is exactly what [`Arc::make_mut`] needs for
    /// path copying.
    fn clone(&self) -> Self {
        CowNode {
            kid_bits: self.kid_bits,
            slot_bits: self.slot_bits,
            kids: self.kids.clone(),
            values: self.values.clone(),
        }
    }
}

impl<T> CowNode<T> {
    /// Child `c`, if it exists.
    fn kid(&self, c: u32) -> Option<&Arc<CowNode<T>>> {
        let below = self.kid_bits & ((1 << c) - 1);
        (self.kid_bits & (1 << c) != 0).then(|| &self.kids[below.count_ones() as usize])
    }

    /// The value in slot `s`, if it holds one.
    fn value(&self, s: usize) -> Option<&T> {
        (self.slot_bits & (1 << s) != 0).then(|| &self.values[self.rank(s)])
    }

    /// Index in `values` of slot `s`, set or not.
    fn rank(&self, s: usize) -> usize {
        (self.slot_bits & ((1 << s) - 1)).count_ones() as usize
    }
}

/// A persistent (copy-on-write) prefix trie.
///
/// Clones share all nodes with the original in O(1); `insert`/`remove`
/// on a clone copy only the spine of the touched prefix (≤ 8 nodes) and
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

    /// The node `prefix` lives in and its depth, if the walk gets there.
    fn home(&self, prefix: Ipv4Prefix) -> Option<(&Arc<CowNode<T>>, u8)> {
        let (mut node, mut depth) = (&self.root, 0);
        while prefix.len() - depth > STRIDE {
            node = node.kid(chunk(prefix.bits(), depth))?;
            depth += STRIDE;
        }
        Some((node, depth))
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&T> {
        let (node, depth) = self.home(prefix)?;
        node.value(slot_at(prefix, depth))
    }

    /// The longest stored prefix covering `prefix` (itself included) —
    /// longest-prefix match generalized from addresses to prefixes. This
    /// is the serving-layer lookup: a query for `10.1.2.0/24` answered by
    /// the table's `10.1.0.0/16` route.
    pub fn best_match(&self, prefix: Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        let mut best = None;
        self.walk_covering(prefix, |node, depth, on_path| {
            if on_path != 0 {
                let s = 31 - on_path.leading_zeros() as usize;
                best = Some((node, depth, s));
            }
        });
        let (node, depth, s) = best?;
        Some((
            slot_prefix(prefix.bits(), depth, s),
            &node.values[node.rank(s)],
        ))
    }

    /// All stored prefixes that **cover** `prefix` (itself included),
    /// shortest first — the candidates that could aggregate it.
    pub fn covering(&self, prefix: Ipv4Prefix) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        let mut out: Vec<(Ipv4Prefix, &T)> = Vec::new();
        self.walk_covering(prefix, |node, depth, on_path| {
            for s in ones(on_path) {
                out.push((
                    slot_prefix(prefix.bits(), depth, s),
                    &node.values[node.rank(s)],
                ));
            }
        });
        out.into_iter()
    }

    /// Calls `f(node, depth, slots)` for each node on `prefix`'s spine,
    /// root first, with the node's set slots that cover `prefix`.
    fn walk_covering<'a>(&'a self, prefix: Ipv4Prefix, mut f: impl FnMut(&'a CowNode<T>, u8, u32)) {
        let (mut node, mut depth) = (&*self.root, 0);
        loop {
            let left = (prefix.len() - depth).min(STRIDE);
            let bits = chunk(prefix.bits(), depth) >> (STRIDE - left);
            f(
                node,
                depth,
                node.slot_bits & SLOTS[slot_index(left, bits)].path,
            );
            if prefix.len() - depth <= STRIDE {
                return;
            }
            match node.kid(chunk(prefix.bits(), depth)) {
                Some(kid) => node = kid,
                None => return,
            }
            depth += STRIDE;
        }
    }

    /// All stored prefixes **covered by** `prefix` (itself included), in
    /// lexicographic order — the more-specifics that could have been split
    /// out of it.
    pub fn covered(&self, prefix: Ipv4Prefix) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        let mut out: Vec<(Ipv4Prefix, &T)> = Vec::new();
        if let Some((node, depth)) = self.home(prefix) {
            let Slot { span, kids, .. } = SLOTS[slot_at(prefix, depth)];
            let base = Ipv4Prefix::canonical(prefix.bits(), depth).bits();
            walk_cow_nodes(
                None,
                Some(node),
                base,
                depth,
                (span, kids),
                &mut |q, _, v| out.extend(v.map(|v| (q, v))),
            );
        }
        out.into_iter()
    }

    /// Iterates over all `(prefix, value)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        let mut out: Vec<(Ipv4Prefix, &T)> = Vec::with_capacity(self.len);
        walk_cow_nodes(None, Some(&self.root), 0, 0, (!0, !0), &mut |q, _, v| {
            out.extend(v.map(|v| (q, v)))
        });
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
    /// In each node pair it visits only the slots and children set on
    /// either side. Sharing only ever saves work: unshared subtries are
    /// compared entry by entry, and an equal value behind a fresh spine
    /// reports nothing.
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
        if !Arc::ptr_eq(&base.root, &self.root) {
            let (old, new) = (Some(&base.root), Some(&self.root));
            walk_cow_nodes(old, new, 0, 0, (!0, !0), &mut |q, was, is| {
                if was != is {
                    f(q, was, is);
                }
            });
        }
    }
}

impl<T: Clone> CowTrie<T> {
    /// Inserts `value` at `prefix`, returning the previous value if any.
    /// Nodes on the prefix's spine that are shared with another trie are
    /// copied first ([`Arc::make_mut`]); everything off-spine stays
    /// shared.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let (mut node, mut depth) = (Arc::make_mut(&mut self.root), 0);
        while prefix.len() - depth > STRIDE {
            let c = chunk(prefix.bits(), depth);
            let at = (node.kid_bits & ((1 << c) - 1)).count_ones() as usize;
            if node.kid_bits & (1 << c) == 0 {
                node.kid_bits |= 1 << c;
                insert_at(&mut node.kids, at, Arc::default());
            }
            node = Arc::make_mut(&mut node.kids[at]);
            depth += STRIDE;
        }
        let s = slot_at(prefix, depth);
        let at = node.rank(s);
        if node.slot_bits & (1 << s) != 0 {
            return Some(std::mem::replace(&mut node.values[at], value));
        }
        node.slot_bits |= 1 << s;
        insert_at(&mut node.values, at, value);
        self.len += 1;
        None
    }

    /// Removes and returns the value at `prefix`. Emptied nodes are left
    /// in place (removal is rare next to lookup, and the spine was just
    /// path-copied anyway).
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<T> {
        // Walk immutably first: a miss must not path-copy the spine.
        self.get(prefix)?;
        let (mut node, mut depth) = (Arc::make_mut(&mut self.root), 0);
        while prefix.len() - depth > STRIDE {
            let c = chunk(prefix.bits(), depth);
            let at = (node.kid_bits & ((1 << c) - 1)).count_ones() as usize;
            node = Arc::make_mut(&mut node.kids[at]);
            depth += STRIDE;
        }
        let s = slot_at(prefix, depth);
        let at = node.rank(s);
        node.slot_bits &= !(1 << s);
        self.len -= 1;
        Some(remove_at(&mut node.values, at))
    }
}

/// Inserts `item` at `at`, growing the array by exactly one.
fn insert_at<E>(items: &mut Box<[E]>, at: usize, item: E) {
    let mut grown = std::mem::take(items).into_vec();
    grown.reserve_exact(1);
    grown.insert(at, item);
    *items = grown.into_boxed_slice();
}

/// Removes the item at `at`, shrinking the array by exactly one.
fn remove_at<E>(items: &mut Box<[E]>, at: usize) -> E {
    let mut shrunk = std::mem::take(items).into_vec();
    let item = shrunk.remove(at);
    *items = shrunk.into_boxed_slice();
    item
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

fn count_cow_nodes<T>(node: &CowNode<T>) -> usize {
    1 + node.kids.iter().map(|c| count_cow_nodes(c)).sum::<usize>()
}

fn shared_cow_nodes<T>(a: &Arc<CowNode<T>>, b: &Arc<CowNode<T>>) -> usize {
    if Arc::ptr_eq(a, b) {
        return count_cow_nodes(a);
    }
    let (mut a, mut b) = (Side::of(Some(a), !0, !0), Side::of(Some(b), !0, !0));
    ones((a.kid_bits | b.kid_bits).into())
        .map(|c| match (a.kid(c), b.kid(c)) {
            (Some(a), Some(b)) => shared_cow_nodes(a, b),
            _ => 0,
        })
        .sum()
}

/// Walks `old` and `new` in lockstep and in prefix order — the slots
/// and children of the top pair that the masks keep (each a contiguous
/// run), and everything below those children — calling `f(prefix, was,
/// is)` for every slot set on either side and skipping every child the
/// two hold as one `Arc`. `diff` walks two tries; `iter` and `covered`
/// walk one node against nothing.
fn walk_cow_nodes<'a, T>(
    old: Option<&'a Arc<CowNode<T>>>,
    new: Option<&'a Arc<CowNode<T>>>,
    base: u32,
    depth: u8,
    (slots, kids): (u32, u16),
    f: &mut impl FnMut(Ipv4Prefix, Option<&'a T>, Option<&'a T>),
) {
    let (mut old, mut new) = (Side::of(old, slots, kids), Side::of(new, slots, kids));
    let mut slots = old.slot_bits | new.slot_bits;
    for c in ones((old.kid_bits | new.kid_bits).into()) {
        walk_cow_slots(&mut old, &mut new, base, depth, slots & BEFORE_KID[c], f);
        slots &= !BEFORE_KID[c];
        match (old.kid(c), new.kid(c)) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
            (a, b) => {
                let below = kid_base(base, depth, c as u32);
                walk_cow_nodes(a, b, below, depth + STRIDE, (!0, !0), f);
            }
        }
    }
    walk_cow_slots(&mut old, &mut new, base, depth, slots, f);
}

/// The slots in `slots` of one node pair of [`walk_cow_nodes`].
fn walk_cow_slots<'a, T>(
    old: &mut Side<'a, T>,
    new: &mut Side<'a, T>,
    base: u32,
    depth: u8,
    slots: u32,
    f: &mut impl FnMut(Ipv4Prefix, Option<&'a T>, Option<&'a T>),
) {
    for s in ones(slots) {
        f(slot_prefix(base, depth, s), old.value(s), new.value(s));
    }
}

/// One side of a node pair walked in lockstep ([`walk_cow_nodes`],
/// [`shared_cow_nodes`]), read front to back: each slot and child asked
/// for in ascending order, so the next value or child is the one at hand.
struct Side<'a, T> {
    slot_bits: u32,
    kid_bits: u16,
    values: &'a [T],
    kids: &'a [Arc<CowNode<T>>],
}

impl<'a, T> Side<'a, T> {
    /// `node`'s slots in `slots` and children in `kids`, each mask a
    /// contiguous run, read from the first of them on.
    fn of(node: Option<&'a Arc<CowNode<T>>>, slots: u32, kids: u16) -> Self {
        // How many of `bits` lie below the first bit of `mask`.
        let below = |bits: u32, mask: u32| {
            (bits & (mask & mask.wrapping_neg()).wrapping_sub(1)).count_ones() as usize
        };
        match node {
            Some(n) => Side {
                slot_bits: n.slot_bits & slots,
                kid_bits: n.kid_bits & kids,
                values: &n.values[below(n.slot_bits, slots)..],
                kids: &n.kids[below(n.kid_bits.into(), kids.into())..],
            },
            None => Side {
                slot_bits: 0,
                kid_bits: 0,
                values: &[],
                kids: &[],
            },
        }
    }

    /// The value in slot `s`, past every slot below it.
    fn value(&mut self, s: usize) -> Option<&'a T> {
        if self.slot_bits & (1 << s) == 0 {
            return None;
        }
        let (value, rest) = self.values.split_first()?;
        self.values = rest;
        Some(value)
    }

    /// Child `c`, past every child below it.
    fn kid(&mut self, c: usize) -> Option<&'a Arc<CowNode<T>>> {
        if self.kid_bits & (1 << c) == 0 {
            return None;
        }
        let (kid, rest) = self.kids.split_first()?;
        self.kids = rest;
        Some(kid)
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

        // Mutating the clone path-copies only the touched spine, the six
        // nodes from the root down to the /24's; the 192.168/16 branch
        // below the root (3 nodes) stays physically shared, and the base
        // is unchanged.
        let mut day1 = base.clone();
        day1.insert(p("12.0.16.0/24"), "churned");
        let shared = day1.shared_nodes_with(&base);
        assert!(shared >= 3, "sibling subtries must stay shared: {shared}");
        assert_eq!(shared, base.node_count() - 6, "the spine must be copied");
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
