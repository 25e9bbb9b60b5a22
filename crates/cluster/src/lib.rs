//! # cq-cluster — sharded distributed batch execution
//!
//! The distribution layer over `cq-serve` workers: take a workload of
//! conjunctive-query programs, shard it across N worker daemons
//! (speaking the NDJSON protocol of `docs/PROTOCOL.md` over TCP or
//! Unix sockets), and merge the results back into exactly what a
//! single-process `cq-analyze` batch would have produced — per-query
//! reports in input order, statistics summed.
//!
//! Three pieces (design rationale in `docs/CLUSTER.md`):
//!
//! - [`ShardPlanner`] — assigns queries to workers, by default hashing
//!   the renaming-invariant canonical key so each isomorphism class
//!   (the unit of LP-cache sharing) lives on exactly one worker;
//! - [`ClusterClient`] — a pipelining connection pool with
//!   retry-on-worker-death: acknowledged chunks keep their reports,
//!   unacknowledged work is resubmitted to survivors (sound because
//!   analysis is a pure function of the query text);
//! - [`ReportMerger`] — the input-ordered report sink plus
//!   cache/solver counter summing.
//!
//! [`ServeChild`] spawns real `cq-serve` children when the
//! `cq-cluster` binary is asked to self-host.
//!
//! ```no_run
//! use cq_cluster::{ClusterClient, WorkerAddr};
//!
//! let client = ClusterClient::new(vec![
//!     "127.0.0.1:7171".parse::<WorkerAddr>().unwrap(),
//!     "127.0.0.1:7172".parse::<WorkerAddr>().unwrap(),
//! ]);
//! let inputs = vec![("tri".to_owned(),
//!     "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)".to_owned())];
//! let run = client.run(&inputs).unwrap();
//! assert_eq!(run.reports.len(), 1);
//! ```

pub mod addr;
pub mod client;
pub mod merge;
pub mod plan;
pub mod spawn;

pub use addr::{WorkerAddr, WorkerConn};
pub use client::{ClusterClient, ClusterError, ClusterRun, WorkerSummary};
pub use merge::{cache_stats_delta, solver_totals, width_totals, ReportMerger};
pub use plan::ShardPlanner;
pub use spawn::ServeChild;

/// How [`ShardPlanner`] maps queries to workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Hash the canonical `(hypergraph, head-set)` key: isomorphic
    /// queries share a worker, so each isomorphism class is solved
    /// once cluster-wide. The default.
    #[default]
    ByCanonicalKey,
    /// Deal queries out cyclically, ignoring structure.
    RoundRobin,
}
