//! The engine's one symbol table: ASNs, over [`bgp_types::Interner`].
//!
//! One [`WorldInterner`] is shared by every snapshot in a
//! [`crate::QueryEngine`]: the same ASN receives the same symbol in
//! every snapshot, so stored AS paths are 4-byte symbols and snapshot
//! diffing and multi-snapshot queries compare integers. Prefixes are
//! not interned: tries, SA caches and convictions are keyed by
//! [`bgp_types::Ipv4Prefix`] itself. Communities are not stored at all;
//! a Looking-Glass vantage keeps only the per-neighbour classes they
//! imply.
//!
//! The table is **append-only**: interning only ever adds symbols,
//! never moves or retires one. Incremental (copy-on-write) ingest leans
//! on this — a snapshot that shares its predecessor's tries keeps
//! resolving the predecessor's symbols, and only the churned routes
//! intern anything new (which lands the engine on exactly the symbol set
//! a full re-index would have built).

use bgp_types::intern::{Interner, Symbol};
use bgp_types::Asn;

/// Interned ASN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsnSym(pub Symbol);

/// The shared ASN table of one engine.
#[derive(Debug, Clone, Default)]
pub struct WorldInterner {
    asns: Interner<Asn>,
}

impl WorldInterner {
    /// An empty table.
    pub fn new() -> Self {
        WorldInterner::default()
    }

    /// Interns an ASN.
    pub fn asn(&mut self, a: Asn) -> AsnSym {
        AsnSym(self.asns.intern(a))
    }

    /// The symbol of an ASN already seen during ingestion.
    pub fn lookup_asn(&self, a: Asn) -> Option<AsnSym> {
        self.asns.get(&a).map(AsnSym)
    }

    /// The ASN behind a symbol.
    pub fn resolve_asn(&self, s: AsnSym) -> Asn {
        *self.asns.resolve(s.0)
    }

    /// Distinct ASNs seen.
    pub fn asn_count(&self) -> usize {
        self.asns.len()
    }

    /// All ASNs in symbol order (symbol `i` is the `i`-th item) — the
    /// serialization order of the archive's symbol segment.
    pub fn iter_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.asns.iter().copied()
    }
}

/// What the snapshot patching machinery needs from a symbol table.
///
/// Ingest patches against the engine's mutable [`WorldInterner`];
/// segment replay — an archive load and the cold tier's hydration alike
/// — patches against a [`FrozenInterner`]: the loaded table, which
/// already holds every ASN any archived event references (the symbol
/// segment records them, and `decode_delta` pre-validates events
/// against it), so replay never needs to intern anything.
pub(crate) trait Interning {
    /// The symbol for `a`, interning it if the table is mutable.
    fn asn(&mut self, a: Asn) -> AsnSym;
}

impl Interning for WorldInterner {
    fn asn(&mut self, a: Asn) -> AsnSym {
        WorldInterner::asn(self, a)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_stable_across_repeat_interning() {
        let mut w = WorldInterner::new();
        let a1 = w.asn(Asn(7018));
        assert_eq!(w.asn(Asn(7018)), a1);
        assert_eq!(w.resolve_asn(a1), Asn(7018));
        assert_eq!(w.asn_count(), 1);
        assert_eq!(w.lookup_asn(Asn(1)), None);
        assert_eq!(w.lookup_asn(Asn(7018)), Some(a1));
    }
}
