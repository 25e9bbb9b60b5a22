//! In-memory relational substrate for `cqbounds`.
//!
//! The paper's results are statements about databases: every tightness
//! construction (Propositions 4.5, 5.2, 6.11) *produces a database* whose
//! result size or treewidth we then measure. This crate supplies that
//! machinery:
//!
//! - [`SymbolTable`]/[`Value`] — interned domain values;
//! - [`Schema`]/[`Relation`] — deduplicated tuple sets with projection and
//!   selection, stored flat (one value vector per relation, tuples in
//!   insertion order) and deduplicated through a [`TupleMap`], the
//!   workspace's one tuple-keyed map (`cq-core`'s joins, semijoins and
//!   keyed-join lookups index with it too);
//! - [`Fd`]/[`FdSet`] — functional dependencies, keys, Armstrong closure
//!   and instance checking (§2 of the paper);
//! - [`Database`] — named relations, `rmax(D)`, and Gaifman graphs
//!   ([`gaifman_over`] builds one over any relations and a shared value
//!   numbering);
//! - hash [`equi_join`]s, [`keyed_join`]s (Theorem 5.5's setting) and
//!   [`natural_join`]s (used by the Corollary 4.8 join-project plans).
//!
//! Query *evaluation* lives in `cq-core`, next to the conjunctive-query
//! type it evaluates.

pub mod database;
pub mod fd;
pub mod join;
#[allow(clippy::module_inception)]
pub mod relation;
pub mod schema;
pub mod symbol;
pub mod textio;
pub mod tuple_map;

pub use database::{gaifman_over, Database};
pub use fd::{Fd, FdSet};
pub use join::{equi_join, keyed_join, natural_join};
pub use relation::Relation;
pub use schema::Schema;
pub use symbol::{DisplayValue, SymbolTable, Value};
pub use textio::{parse_database, render_database, DbParseError};
pub use tuple_map::TupleMap;
