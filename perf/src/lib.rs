//! The repo's one benchmark: Cypher/Gremlin text to rows, end to end and
//! layer by layer. See `perf/README.md` for the workloads, the metrics and
//! the public API of `crates/*` this package compiles against.

pub mod compare;
pub mod env;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
