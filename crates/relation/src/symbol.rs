//! Value interning.
//!
//! Domain values are interned strings: a [`Value`] is a dense `u32` id
//! into a [`SymbolTable`]. The paper's tightness constructions mint values
//! with structured names (e.g. `v[c1=3,c2=0]` for the color-product
//! database of Proposition 4.5, or `7_j`-style marked values in the
//! Proposition 6.11 Shamir construction); interning keeps tuples compact
//! (`u32`s) while preserving readable provenance for debugging and the
//! experiment reports.

use std::fmt;

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
/// hashes agree and growing the table reads none. The hash is the
/// table's own, reading a name a word at a time in place; no id depends
/// on it, so ids follow the order in which names are first interned.
#[derive(Default, Clone, Debug)]
pub struct SymbolTable {
    /// Every name, back to back in id order.
    text: String,
    /// `ends[i]`: where name `i` ends in `text` (it starts where name
    /// `i - 1` ends).
    ends: Vec<u32>,
    /// Linear probing over a power-of-two length, at most three
    /// quarters full (a miss probes a few more slots, all read as one
    /// or two cache lines, where a sparser table would touch twice the
    /// pages as it grows): `0` is a free slot, else a name's 32-bit
    /// table hash above its id + 1.
    slots: Vec<u64>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// The slot hash of a name's bytes: whole little-endian words read
    /// in place, overlapping at the end rather than copied into a
    /// padded buffer (names of 4 to 7 bytes read two overlapping
    /// half-words, shorter ones three bytes), each pair folded by one
    /// 64 × 64 → 128-bit multiply whose halves are xored together, so
    /// every input bit reaches the low bits the slot index takes.
    fn hash(name: &[u8]) -> u32 {
        // Odd constants: the first hexadecimal digits of π's fraction.
        const K: [u64; 3] = [
            0x243f_6a88_85a3_08d3,
            0x1319_8a2e_0370_7345,
            0xa409_3822_299f_31d1,
        ];
        let fold = |a: u64, b: u64| {
            let p = u128::from(a) * u128::from(b);
            (p as u64) ^ (p >> 64) as u64
        };
        let word = |at: usize| u64::from_le_bytes(name[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                name[at..at + 4].try_into().expect("4 bytes"),
            ))
        };
        let n = name.len();
        let mut seed = K[2];
        let (lo, hi) = match n {
            0 => (0, 0),
            1..=3 => (
                u64::from(name[0]) << 16 | u64::from(name[n / 2]) << 8 | u64::from(name[n - 1]),
                0,
            ),
            4..=7 => (half(0), half(n - 4)),
            8..=16 => (word(0), word(n - 8)),
            _ => {
                let mut at = 0;
                while n - at > 16 {
                    seed = fold(word(at) ^ K[0], word(at + 8) ^ seed);
                    at += 16;
                }
                (word(n - 16), word(n - 8))
            }
        };
        let h = fold(lo ^ K[0], hi ^ K[1] ^ seed ^ n as u64);
        (h ^ (h >> 32)) as u32
    }

    /// The bytes of name `i`.
    fn bytes(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text.as_bytes()[start..self.ends[i] as usize]
    }

    /// The id of `name`, or the free slot where it belongs. The table
    /// must have a free slot.
    fn find(&self, name: &[u8], hash: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if (s >> 32) as u32 == hash && self.bytes(s as u32 as usize - 1) == name => {
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
        if 4 * (self.len() + 1) > 3 * self.slots.len() {
            self.grow();
        }
        let hash = Self::hash(name.as_bytes());
        match self.find(name.as_bytes(), hash) {
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
        let name = name.as_bytes();
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

    /// Every length the hash reads differently (0, 1–3, 4–7, 8–16 and
    /// past 16 bytes), ASCII and not, with names that differ only in
    /// their last byte, interned across several grows of the table.
    #[test]
    fn names_of_every_length_survive_grows() {
        let mut names: Vec<String> = Vec::new();
        for len in 0..=17 {
            for last in ['a', 'b'] {
                names.push("x".repeat(len.max(1) - 1) + &last.to_string());
            }
            names.push("é".repeat(len / 2) + &"z".repeat(len % 2));
        }
        names.extend((0..300).map(|i| format!("shared_prefix_{i:03}→")));
        names.sort();
        names.dedup();
        let mut t = SymbolTable::new();
        // Every (name, value) in interning order, fresh values included.
        let mut interned: Vec<(String, Value)> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.lookup(name), None, "{name:?}");
            let v = t.intern(name);
            assert_eq!(v.id() as usize, interned.len());
            interned.push((name.clone(), v));
            if i % 50 == 0 {
                let f = t.fresh(name);
                assert_eq!(t.name(f), format!("{name}#{}", f.id()));
                interned.push((t.name(f).to_owned(), f));
            }
        }
        assert!(t.slots.len() >= 512, "the table grew five times");
        for (name, v) in &interned {
            assert_eq!(t.name(*v), name);
            assert_eq!(t.lookup(name), Some(*v));
            assert_eq!(t.intern(name), *v);
        }
        assert_eq!(t.len(), interned.len());
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
