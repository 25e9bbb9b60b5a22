//! A hash map keyed by value tuples of one fixed width.
//!
//! Relations deduplicate their rows through it, FD checks key it on a
//! dependency's left side, and `cq-core` indexes the factors of its
//! join, keys semijoins and keyed-join lookups, and accumulates sums
//! with it. Up to two values pack into a `u64`
//! of their dense ids and up to four into a `u128`, so the common keys
//! hash as one or two words and cost no allocation; wider tuples are
//! boxed once, when first inserted.

use crate::symbol::Value;
use cq_util::{FxBuildHasher, FxHashMap};

/// A hash map from `&[Value]` tuples of one width to `V`.
#[derive(Clone, Debug)]
pub struct TupleMap<V> {
    width: usize,
    keys: Keys<V>,
}

/// The map for each key layout.
#[derive(Clone, Debug)]
enum Keys<V> {
    /// Tuples of at most two values, packed into their ids.
    Narrow(FxHashMap<u64, V>),
    /// Tuples of three or four values, packed into their ids.
    Packed(FxHashMap<u128, V>),
    /// Wider tuples.
    Boxed(FxHashMap<Box<[Value]>, V>),
}

impl<V> TupleMap<V> {
    /// An empty map for tuples of `width` values.
    pub fn new(width: usize) -> Self {
        TupleMap::with_capacity(width, 0)
    }

    /// An empty map for tuples of `width` values with room for
    /// `capacity` keys before it grows.
    pub fn with_capacity(width: usize, capacity: usize) -> Self {
        let hasher = FxBuildHasher;
        let keys = if width <= 2 {
            Keys::Narrow(FxHashMap::with_capacity_and_hasher(capacity, hasher))
        } else if width <= 4 {
            Keys::Packed(FxHashMap::with_capacity_and_hasher(capacity, hasher))
        } else {
            Keys::Boxed(FxHashMap::with_capacity_and_hasher(capacity, hasher))
        };
        TupleMap { width, keys }
    }

    /// Packed tuples of two widths would alias (`[5]` and `[0, 5]`), so
    /// every key must have the map's width.
    fn check_width(&self, tuple: &[Value]) {
        assert_eq!(tuple.len(), self.width, "tuple width");
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::Narrow(m) => m.len(),
            Keys::Packed(m) => m.len(),
            Keys::Boxed(m) => m.len(),
        }
    }

    /// `true` when the map has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every key, keeping the allocation.
    pub fn clear(&mut self) {
        match &mut self.keys {
            Keys::Narrow(m) => m.clear(),
            Keys::Packed(m) => m.clear(),
            Keys::Boxed(m) => m.clear(),
        }
    }

    /// The value under `tuple`.
    ///
    /// # Panics
    /// Panics if `tuple` is not of the map's width.
    pub fn get(&self, tuple: &[Value]) -> Option<&V> {
        self.check_width(tuple);
        match &self.keys {
            Keys::Narrow(m) => m.get(&(pack(tuple) as u64)),
            Keys::Packed(m) => m.get(&pack(tuple)),
            Keys::Boxed(m) => m.get(tuple),
        }
    }

    /// The value under `tuple`, inserting `make()` first when absent.
    ///
    /// # Panics
    /// Panics if `tuple` is not of the map's width.
    pub fn get_or_insert_with(&mut self, tuple: &[Value], make: impl FnOnce() -> V) -> &mut V {
        self.check_width(tuple);
        match &mut self.keys {
            Keys::Narrow(m) => m.entry(pack(tuple) as u64).or_insert_with(make),
            Keys::Packed(m) => m.entry(pack(tuple)).or_insert_with(make),
            Keys::Boxed(m) => {
                if !m.contains_key(tuple) {
                    m.insert(tuple.into(), make());
                }
                m.get_mut(tuple).expect("inserted above")
            }
        }
    }

    /// Inserts `tuple` with `value` unless it is present; `true` when it
    /// was absent.
    ///
    /// # Panics
    /// Panics if `tuple` is not of the map's width.
    pub fn insert(&mut self, tuple: &[Value], value: V) -> bool {
        let before = self.len();
        self.get_or_insert_with(tuple, || value);
        self.len() > before
    }
}

/// The ids of a tuple of at most four values, 32 bits each.
fn pack(tuple: &[Value]) -> u128 {
    tuple
        .iter()
        .fold(0, |acc, v| (acc << 32) | u128::from(v.id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(ids: &[u32]) -> Vec<Value> {
        ids.iter().map(|&i| Value(i)).collect()
    }

    #[test]
    fn packed_and_boxed_widths_agree() {
        let widths = [0, 1, 2, 3, 4, 5, 7];
        for (width, presized) in widths.into_iter().flat_map(|w| [(w, false), (w, true)]) {
            let mut m: TupleMap<usize> = if presized {
                TupleMap::with_capacity(width, 1)
            } else {
                TupleMap::new(width)
            };
            assert!(matches!(m.keys, Keys::Boxed(_)) == (width > 4));
            let a: Vec<u32> = (0..width as u32).collect();
            let b: Vec<u32> = (0..width as u32).map(|i| i + 1).collect();
            assert!(m.insert(&vals(&a), 1));
            assert!(!m.insert(&vals(&a), 2), "width {width}");
            assert_eq!(m.get(&vals(&a)), Some(&1));
            *m.get_or_insert_with(&vals(&a), || 9) += 10;
            assert_eq!(m.get(&vals(&a)), Some(&11));
            let expect_b = if width == 0 { 11 } else { 3 };
            assert_eq!(*m.get_or_insert_with(&vals(&b), || 3), expect_b);
            assert_eq!(m.len(), if width == 0 { 1 } else { 2 });
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.get(&vals(&a)), None);
        }
    }

    #[test]
    fn packing_keeps_positions_apart() {
        let mut m: TupleMap<()> = TupleMap::new(2);
        assert!(m.insert(&vals(&[1, 2]), ()));
        assert!(m.insert(&vals(&[2, 1]), ()));
        assert!(m.insert(&vals(&[0, 3]), ()));
        assert!(m.insert(&vals(&[u32::MAX, 0]), ()));
        assert!(m.insert(&vals(&[0, u32::MAX]), ()));
        assert_eq!(m.len(), 5);
        let mut wide: TupleMap<()> = TupleMap::new(4);
        for t in [
            [u32::MAX, 0, 0, 0],
            [0, 0, 0, u32::MAX],
            [0, u32::MAX, 0, 0],
        ] {
            assert!(wide.insert(&vals(&t), ()));
        }
        assert_eq!(wide.len(), 3);
    }

    #[test]
    #[should_panic(expected = "tuple width")]
    fn a_tuple_of_another_width_is_refused() {
        let mut m: TupleMap<()> = TupleMap::new(2);
        m.insert(&vals(&[0, 5]), ());
        m.get(&vals(&[5]));
    }
}
