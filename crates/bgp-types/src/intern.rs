//! Compact-ID interning for the serving layer.
//!
//! `rpi-query` holds many snapshots of the same world: the same ASNs
//! recur on every stored AS path, and per-route storage dominates memory.
//! Interning maps each distinct value to a dense `u32` so paths store
//! 4-byte symbols instead of full values, and cross-snapshot comparisons
//! become integer comparisons.
//!
//! [`Interner`] is generic over any hashable value type; [`Symbol`] is the
//! dense ID. The query crate layers a typed ASN symbol on top.

use std::collections::HashMap;
use std::hash::Hash;

/// A dense interned ID. Valid only for the [`Interner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The ID as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional value ↔ dense-ID table.
///
/// IDs are handed out in first-seen order starting at 0, so they can index
/// plain `Vec` side tables.
#[derive(Debug, Clone)]
pub struct Interner<T> {
    ids: HashMap<T, Symbol>,
    values: Vec<T>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            ids: HashMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            ids: HashMap::new(),
            values: Vec::new(),
        }
    }

    /// Interns `value`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, value: T) -> Symbol {
        if let Some(&s) = self.ids.get(&value) {
            return s;
        }
        let s = Symbol(u32::try_from(self.values.len()).expect("interner overflow"));
        self.values.push(value.clone());
        self.ids.insert(value, s);
        s
    }

    /// The symbol of `value`, if already interned.
    pub fn get(&self, value: &T) -> Option<Symbol> {
        self.ids.get(value).copied()
    }

    /// The value behind `symbol`. Panics on a foreign symbol.
    pub fn resolve(&self, symbol: Symbol) -> &T {
        &self.values[symbol.index()]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All values in symbol order (symbol `i` is the `i`-th item).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i: Interner<&'static str> = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
        assert_eq!(*i.resolve(b), "beta");
        assert_eq!(i.get(&"alpha"), Some(a));
        assert_eq!(i.get(&"gamma"), None);
        assert_eq!(i.iter().copied().collect::<Vec<_>>(), vec!["alpha", "beta"]);
    }
}
