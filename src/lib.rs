//! # cqbounds — Size and treewidth bounds for conjunctive queries
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! - [`engine`] — the unified analysis layer: memoized
//!   [`engine::AnalysisSession`]s, serializable reports and batch
//!   analysis (what the CLI, examples and the benchmark run on);
//! - [`cluster`] — sharded distributed batch execution over `cq-serve`
//!   workers (shard planning, a retrying connection-pool client, and
//!   an input-ordered report merger);
//! - [`core`] — the paper's contribution: colorings, the chase,
//!   exact LP size bounds, treewidth-preservation analysis, entropy
//!   bounds, tightness constructions and decision procedures;
//! - [`relation`] — the in-memory relational substrate;
//! - [`hypergraph`] — graphs, tree decompositions, treewidth;
//! - [`lp`] — exact rational simplex;
//! - [`arith`] — big integers and rationals;
//! - [`telemetry`] — span tracing, phase-latency histograms and the
//!   Prometheus-style exposition surface (see `docs/TELEMETRY.md`);
//! - [`trace`] — the telemetry consumer: NDJSON trace assembly,
//!   critical paths, flamegraph export and live worker observation
//!   (the `cq-trace` binary);
//! - [`util`] — bitsets, hashing, subset enumeration.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `cq-bench` for the experiment harness that regenerates every figure,
//! example and theorem-check of the paper.

pub use cq_arith as arith;
pub use cq_cluster as cluster;
pub use cq_core as core;
pub use cq_engine as engine;
pub use cq_hypergraph as hypergraph;
pub use cq_lp as lp;
pub use cq_relation as relation;
pub use cq_telemetry as telemetry;
pub use cq_trace as trace;
pub use cq_util as util;

pub use cq_core::*;
