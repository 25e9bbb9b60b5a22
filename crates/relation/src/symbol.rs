//! Value interning.
//!
//! Domain values are interned strings: a [`Value`] is a dense `u32` id
//! into a [`SymbolTable`]. The paper's tightness constructions mint values
//! with structured names (e.g. `v[c1=3,c2=0]` for the color-product
//! database of Proposition 4.5, or `7_j`-style marked values in the
//! Proposition 6.11 Shamir construction); interning keeps tuples compact
//! (`u32`s) while preserving readable provenance for debugging and the
//! experiment reports.

use cq_util::FxBuildHasher;
use std::fmt;
use std::hash::BuildHasher;

/// An interned domain value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Value(pub(crate) u32);

impl Value {
    /// The dense id of this value.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// An append-only string interner for domain values.
///
/// Names are stored back to back in one string, so interning a name
/// allocates nothing of its own (the buffers grow geometrically), and
/// dropping a table frees three buffers however many names it holds.
/// Ids are found through an open-addressing table that keeps each
/// name's hash next to its id, so a probe reads a name only when the
/// hashes agree and growing the table reads none.
#[derive(Default, Clone, Debug)]
pub struct SymbolTable {
    /// Every name, back to back in id order.
    text: String,
    /// `ends[i]`: where name `i` ends in `text` (it starts where name
    /// `i - 1` ends).
    ends: Vec<u32>,
    /// Linear probing over a power-of-two length, at most half full:
    /// `0` is a free slot, else a name's 32-bit table hash above its
    /// id + 1.
    slots: Vec<u64>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    fn hash(name: &str) -> u32 {
        FxBuildHasher.hash_one(name) as u32
    }

    /// The id of `name`, or the free slot where it belongs. The table
    /// must have a free slot.
    fn find(&self, name: &str, hash: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if (s >> 32) as u32 == hash && self.name(Value(s as u32 - 1)) == name => {
                    return Ok(s as u32 - 1)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the slot table (16 slots at first).
    fn grow(&mut self) {
        let mut slots = vec![0u64; (2 * self.slots.len()).max(16)];
        let mask = slots.len() - 1;
        for &s in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = (s >> 32) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = s;
        }
        self.slots = slots;
    }

    /// Interns `name`, returning the same [`Value`] for equal names.
    ///
    /// # Panics
    /// Panics past `u32::MAX - 1` names or 4 GiB of name text.
    pub fn intern(&mut self, name: &str) -> Value {
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
        let hash = Self::hash(name);
        match self.find(name, hash) {
            Ok(id) => Value(id),
            Err(slot) => {
                let id = u32::try_from(self.len()).expect("symbol ids fit in u32");
                assert!(id < u32::MAX, "symbol table full");
                self.text.push_str(name);
                let end = u32::try_from(self.text.len()).expect("symbol text under 4 GiB");
                self.ends.push(end);
                self.slots[slot] = (u64::from(hash) << 32) | u64::from(id + 1);
                Value(id)
            }
        }
    }

    /// Mints a fresh value guaranteed distinct from all existing ones.
    pub fn fresh(&mut self, prefix: &str) -> Value {
        let mut k = self.len();
        loop {
            let candidate = format!("{prefix}#{k}");
            if self.lookup(&candidate).is_none() {
                return self.intern(&candidate);
            }
            k += 1;
        }
    }

    /// Name of `v`.
    pub fn name(&self, v: Value) -> &str {
        let i = v.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Value> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(name, Self::hash(name)).ok().map(Value)
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// Displays a value through its table.
pub struct DisplayValue<'a>(pub &'a SymbolTable, pub Value);

impl fmt::Display for DisplayValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.name(self.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), "alpha");
        assert_eq!(t.lookup("beta"), Some(b));
        assert_eq!(t.lookup("gamma"), None);
    }

    #[test]
    fn many_names_and_the_empty_name() {
        let mut t = SymbolTable::new();
        let ids: Vec<Value> = (0..5000).map(|i| t.intern(&format!("k{i}"))).collect();
        let empty = t.intern("");
        assert_eq!(t.len(), 5001);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id.id(), i as u32);
            assert_eq!(t.name(id), format!("k{i}"));
            assert_eq!(t.lookup(&format!("k{i}")), Some(id));
            assert_eq!(t.intern(&format!("k{i}")), id);
        }
        assert_eq!(t.name(empty), "");
        assert_eq!(t.lookup(""), Some(empty));
        assert_eq!(t.lookup("k5000"), None);
        assert_eq!(SymbolTable::new().lookup("k0"), None);
    }

    #[test]
    fn fresh_values_are_distinct() {
        let mut t = SymbolTable::new();
        let a = t.fresh("x");
        let b = t.fresh("x");
        assert_ne!(a, b);
        // fresh avoids collisions with user names
        let c_name = format!("x#{}", t.len());
        t.intern(&c_name);
        let d = t.fresh("x");
        assert_ne!(t.name(d), c_name);
    }

    #[test]
    fn display() {
        let mut t = SymbolTable::new();
        let v = t.intern("v[c1=3]");
        assert_eq!(DisplayValue(&t, v).to_string(), "v[c1=3]");
    }
}
