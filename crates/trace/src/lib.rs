//! # cq-trace — the telemetry consumer
//!
//! PR 9's observability layer made every component *emit* telemetry:
//! NDJSON span files (`CQ_TRACE=PATH`, one per process; a cluster run
//! scatters per-worker `PATH.w<i>` files), log₂ phase histograms, and
//! the `metrics`/`stats` protocol commands. This crate turns those raw
//! streams into answers:
//!
//! - [`ingest`] — damage-tolerant NDJSON ingestion: torn final lines
//!   from SIGKILLed workers, empty files and forged records become
//!   structured warnings, never aborts; `trace.header` lines segment
//!   files that several process runs appended to.
//! - [`model`] — trace assembly (join on globally-unique trace ids,
//!   resolve parent pointers per process run) and analysis: per-trace
//!   critical paths, per-phase total/self-time attribution, and
//!   cluster-wide latency quantiles via the same bucket semantics the
//!   live `metrics` command uses.
//! - [`flame`] — folded-stack flamegraph export (`a;b;c <micros>`)
//!   with a strict round-trip parser.
//! - [`top`] — live observation: poll running `cq-serve` workers'
//!   `metrics`/`stats` commands and render per-worker / per-phase
//!   tables without restarting anything.
//!
//! The `cq-trace` binary is the CLI over all four. Format details live
//! in `docs/TELEMETRY.md`'s "Consuming telemetry" section.

pub mod flame;
pub mod ingest;
pub mod model;
pub mod top;

pub use flame::{folded_stacks, parse_folded, render_folded};
pub use ingest::{ingest_bytes, ingest_files, Ingest, RawEvent, RunHeader, Warning, WarningKind};
pub use model::{assemble, Assembly, PhaseStat, SpanNode, Trace};
pub use top::{poll_worker, render_top, WorkerSnapshot};
