//! Shared utilities for the `cqbounds` workspace.
//!
//! This crate hosts the small, dependency-free building blocks used across
//! the substrates: a growable [`BitSet`], a fast non-cryptographic hasher
//! ([`FxHasher`] for stored digests, and the [`FxHashMap`]/[`FxHashSet`]
//! aliases over its rotated table variant), a
//! [`UnionFind`] with path compression, and subset-enumeration helpers used
//! by the entropy machinery (which indexes quantities by subsets of query
//! variables encoded as `u32` bitmasks).

pub mod bitset;
pub mod hash;
pub mod subsets;
pub mod unionfind;

pub use bitset::BitSet;
pub use hash::{hash128, FxBuildHasher, FxHashMap, FxHashSet, FxHasher, Hasher128, TableHasher};
pub use subsets::{full_mask, mask_elems, mask_from, popcount, subsets_of, SubsetIter};
pub use unionfind::UnionFind;
