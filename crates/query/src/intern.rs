//! Typed symbols over [`bgp_types::Interner`].
//!
//! One [`WorldInterner`] is shared by every snapshot in a
//! [`crate::QueryEngine`]: the same ASN or prefix receives the same symbol
//! in every snapshot, which is what makes snapshot diffing and multi-
//! snapshot queries integer-cheap.
//!
//! The tables are **append-only**: interning only ever adds symbols,
//! never moves or retires one. Incremental (copy-on-write) ingest leans
//! on this — a snapshot that shares its predecessor's tries keeps
//! resolving the predecessor's symbols, and only the churned routes
//! intern anything new (which lands the engine on exactly the symbol set
//! a full re-index would have built).

use bgp_types::intern::{Interner, Symbol};
use bgp_types::{Asn, Community, Ipv4Prefix};

/// Interned ASN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsnSym(pub Symbol);

/// Interned prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixSym(pub Symbol);

/// Interned community.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommSym(pub Symbol);

/// The shared symbol tables of one engine.
#[derive(Debug, Clone, Default)]
pub struct WorldInterner {
    asns: Interner<Asn>,
    prefixes: Interner<Ipv4Prefix>,
    communities: Interner<Community>,
}

impl WorldInterner {
    /// Empty tables.
    pub fn new() -> Self {
        WorldInterner::default()
    }

    /// Interns an ASN.
    pub fn asn(&mut self, a: Asn) -> AsnSym {
        AsnSym(self.asns.intern(a))
    }

    /// Interns a prefix.
    pub fn prefix(&mut self, p: Ipv4Prefix) -> PrefixSym {
        PrefixSym(self.prefixes.intern(p))
    }

    /// Interns a community.
    pub fn community(&mut self, c: Community) -> CommSym {
        CommSym(self.communities.intern(c))
    }

    /// The symbol of an ASN already seen during ingestion.
    pub fn lookup_asn(&self, a: Asn) -> Option<AsnSym> {
        self.asns.get(&a).map(AsnSym)
    }

    /// The symbol of a prefix already seen during ingestion.
    pub fn lookup_prefix(&self, p: Ipv4Prefix) -> Option<PrefixSym> {
        self.prefixes.get(&p).map(PrefixSym)
    }

    /// The ASN behind a symbol.
    pub fn resolve_asn(&self, s: AsnSym) -> Asn {
        *self.asns.resolve(s.0)
    }

    /// The prefix behind a symbol.
    pub fn resolve_prefix(&self, s: PrefixSym) -> Ipv4Prefix {
        *self.prefixes.resolve(s.0)
    }

    /// `(distinct ASNs, distinct prefixes, distinct communities)` seen.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.asns.len(), self.prefixes.len(), self.communities.len())
    }

    /// All ASNs in symbol order (symbol `i` is the `i`-th item) — the
    /// serialization order of the archive's symbol segment.
    pub fn iter_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asns.iter().copied()
    }

    /// All prefixes in symbol order.
    pub fn iter_prefixes(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.prefixes.iter().copied()
    }

    /// All communities in symbol order.
    pub fn iter_communities(&self) -> impl Iterator<Item = Community> + '_ {
        self.communities.iter().copied()
    }
}

/// What the snapshot patching machinery needs from a symbol table.
///
/// Ingest patches against the engine's mutable [`WorldInterner`];
/// segment replay — an archive load and the cold tier's hydration alike
/// — patches against a [`FrozenInterner`]: the loaded tables, which
/// already hold every symbol any archived event references (the symbol
/// segment records them, and `decode_delta` pre-validates events
/// against it), so replay never needs to intern anything.
pub(crate) trait Interning {
    /// The symbol for `a`, interning it if the table is mutable.
    fn asn(&mut self, a: Asn) -> AsnSym;
    /// The symbol for `p`, interning it if the table is mutable.
    fn prefix(&mut self, p: Ipv4Prefix) -> PrefixSym;
    /// The symbol of a prefix already in the table.
    fn lookup_prefix(&self, p: Ipv4Prefix) -> Option<PrefixSym>;
}

impl Interning for WorldInterner {
    fn asn(&mut self, a: Asn) -> AsnSym {
        WorldInterner::asn(self, a)
    }
    fn prefix(&mut self, p: Ipv4Prefix) -> PrefixSym {
        WorldInterner::prefix(self, p)
    }
    fn lookup_prefix(&self, p: Ipv4Prefix) -> Option<PrefixSym> {
        WorldInterner::lookup_prefix(self, p)
    }
}

/// A read-only view of a [`WorldInterner`] that satisfies [`Interning`]
/// by requiring every symbol to already exist. The cold tier hydrates
/// snapshots concurrently under a shared engine reference, so segment
/// replay cannot take `&mut` on the engine's interner — and never needs
/// to: the archive's symbol segment recorded every symbol up front.
pub(crate) struct FrozenInterner<'a>(pub &'a WorldInterner);

impl Interning for FrozenInterner<'_> {
    fn asn(&mut self, a: Asn) -> AsnSym {
        self.0
            .lookup_asn(a)
            .expect("segment replay references an ASN missing from the loaded symbol table")
    }
    fn prefix(&mut self, p: Ipv4Prefix) -> PrefixSym {
        self.0
            .lookup_prefix(p)
            .expect("segment replay references a prefix missing from the loaded symbol table")
    }
    fn lookup_prefix(&self, p: Ipv4Prefix) -> Option<PrefixSym> {
        self.0.lookup_prefix(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_stable_across_repeat_interning() {
        let mut w = WorldInterner::new();
        let a1 = w.asn(Asn(7018));
        let p1 = w.prefix("10.0.0.0/8".parse().unwrap());
        let c1 = w.community(Community::new(7018, 100));
        assert_eq!(w.asn(Asn(7018)), a1);
        assert_eq!(w.prefix("10.0.0.0/8".parse().unwrap()), p1);
        assert_eq!(w.community(Community::new(7018, 100)), c1);
        assert_eq!(w.resolve_asn(a1), Asn(7018));
        assert_eq!(w.resolve_prefix(p1), "10.0.0.0/8".parse().unwrap());
        assert_eq!(*w.communities.resolve(c1.0), Community::new(7018, 100));
        assert_eq!(w.sizes(), (1, 1, 1));
        assert_eq!(w.lookup_asn(Asn(1)), None);
        assert_eq!(w.lookup_asn(Asn(7018)), Some(a1));
    }
}
