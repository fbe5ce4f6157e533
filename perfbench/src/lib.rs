//! End-to-end benchmark of the uncertain-object serving engine.
//!
//! One binary runs one workload per process through the public serving
//! path — `IndexCatalog` create/bulk-load/flush/open, `QueryService::serve`,
//! `ShardedIndex` insert/delete and `IndexCatalog::commit` — checks every
//! answer against an in-memory single-tree oracle, and prints its metrics.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that records spans around the calls into each layer and reports
//! the per-layer metrics. See `README.md` for the workloads, the metric
//! definitions and the layer → metric → workload predictions.

pub mod args;
pub mod data;
pub mod ingest;
pub mod open_loop;
pub mod oracle;
pub mod report;
pub mod run;
pub mod serve;
pub mod setup;
pub mod spec;
pub mod stats;
pub mod trace;
