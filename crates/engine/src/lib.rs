//! # cq-engine — the unified analysis layer of `cqbounds`
//!
//! One memoized pipeline under every consumer. The CLI, the examples,
//! the benches and the pipeline tests all want the same artifact chain
//! from the paper — chase (Fact 2.4), FD removal (Lemma 4.7), the
//! coloring LP (Proposition 3.6), the Theorem 4.4 size bound, the
//! Theorem 5.10 treewidth analysis, the Theorem 7.2 growth decision and
//! the Propositions 6.9/6.10 entropy fallbacks — and before this crate
//! they each hand-wired it, recomputing shared prefixes along the way.
//!
//! - [`AnalysisSession`] — a per-query memoized artifact store. Each
//!   stage runs at most once per session, lazily; [`SessionStats`]
//!   exposes execution counts so the memoization is testable.
//! - [`AnalysisReport`] — the serializable result: plain data with a
//!   human text rendering and a stable, hand-rolled JSON rendering.
//! - [`BatchAnalyzer`] — N queries across scoped threads into one
//!   ordered report sink.
//! - [`LpCache`] — a shared cross-query cache for the structure-only
//!   LPs, keyed by canonical hypergraph hashing, so isomorphic queries
//!   anywhere in a batch (or a long-lived process) solve each LP once.
//! - [`ServeEngine`] — the `cq-serve` daemon's request loop: newline-
//!   delimited JSON in, report JSON out, every request sharing one warm
//!   [`LpCache`] (protocol spec: `docs/PROTOCOL.md`).
//!
//! ```
//! use cq_engine::{AnalysisSession, ReportOptions};
//!
//! let session = AnalysisSession::parse("triangle",
//!     "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
//! assert_eq!(session.size_bound().unwrap().exponent.to_string(), "3/2");
//! // A later report() reuses the chase and LP solve from above ...
//! let report = session.report(&ReportOptions { witness_m: Some(4), database: None });
//! assert!(report.witness.unwrap().holds);
//! // ... so each stage has still run exactly once.
//! assert_eq!(session.stats().chase_runs, 1);
//! assert_eq!(session.stats().color_lp_runs, 1);
//! ```

pub mod batch;
pub mod cache;
pub mod json;
pub mod report;
pub mod serve;
pub mod session;

pub use batch::BatchAnalyzer;
pub use cache::{
    CacheStats, LpCache, ShardStats, SnapshotError, DEFAULT_CACHE_CAPACITY, SNAPSHOT_VERSION,
};
pub use json::Json;
pub use report::{
    AnalysisReport, ChaseReport, DataReport, EntropyReport, GrowthReport, ReportOptions,
    SizeBoundReport, SolverReport, TreewidthReport, WitnessReport,
};
pub use serve::{ServeEngine, ServeStats, MAX_BATCH, PROTOCOL_VERSION};
pub use session::{
    AnalysisSession, DataCheck, ExactDataBound, ProductDataBound, SessionStats,
    ENTROPY_BOUND_DENSE_CAP, ENTROPY_BOUND_VAR_CAP, ENTROPY_COLOR_VAR_CAP,
};
