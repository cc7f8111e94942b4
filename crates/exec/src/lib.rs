//! # gopt-exec — execution engines for GOpt physical plans
//!
//! The paper integrates GOpt with two very different backends: Neo4j (a single-machine
//! interpreted runtime) and GraphScope (a distributed dataflow engine). This crate
//! provides laptop-scale equivalents of both so that the optimizer's plans can actually
//! be executed and compared end-to-end:
//!
//! * [`backend::SingleMachineBackend`] — the monolithic graph, one thread, no
//!   communication cost, in the spirit of Neo4j's runtime;
//! * [`backend::PartitionedBackend`] — a hash-partitioned executor modelling a
//!   GraphScope/Gaia-like distributed dataflow engine: vertices are assigned to `P`
//!   partitions and every record that crosses a partition boundary (remote expansion,
//!   gathers before joins/aggregations) is counted as communication, which is the
//!   cost the paper's distributed cost model charges for;
//! * the physical operator implementations themselves ([`expand`], [`relational`]),
//!   including `ExpandInto` (edge-existence closing, Neo4j-style) and `ExpandIntersect`
//!   (worst-case-optimal adjacency intersection, GraphScope-style).
//!
//! Results come back as an [`engine::ExecResult`] — columnar batches plus a
//! [`record::TagMap`] and [`engine::ExecStats`]; helpers convert them to plain value
//! rows for comparisons in tests and benchmarks.
//!
//! # One interpreter, one oracle
//!
//! Both backends run the same interpreter, [`parallel::ParallelEngine`], over a
//! [`gopt_graph::GraphView`]: the monolithic graph for the single-machine backend, the
//! sharded one for the partitioned backend. The backends differ only in the storage
//! they hand it, its placement ([`gopt_graph::GraphView::placement`], which the engine
//! charges communication against) and the thread count.
//!
//! The engine runs a plan as *fused morsel pipelines*: the plan is cut at its
//! breakers, a worker carries one morsel — a [`batch::RecordBatch`] of up to
//! [`batch::DEFAULT_BATCH_SIZE`] rows in struct-of-arrays columns with validity
//! bitmaps — through a pipeline's streaming stages into its sink, and only the tag
//! slots some reader still names are gathered. Predicates and projections are
//! compiled once per operator ([`batch::CompiledExpr`], tag → slot resolution hoisted
//! out of the row loop) and filtering/fan-out is performed with selection vectors
//! gathered column-by-column.
//!
//! Comparison-shaped filter predicates additionally compile to **typed
//! kernels** (`kernel`, internal): the property's typed column
//! (`gopt_graph::TypedColumn`) is resolved once and its value slice compared
//! directly, with null bitmaps consulted per row — zero `PropValue` clones on
//! the hot filter path. Any shape or column the kernels do not cover falls
//! back to the row-wise compiled evaluator.
//!
//! The scalar [`engine::Engine`] is the behavioural oracle: it interprets a plan one
//! operator and one [`record::Record`] at a time, and the equivalence suites replay
//! every plan through it and through the pipeline engine, requiring identical rows,
//! row order, tags, record statistics and errors.
//!
//! # Query lifecycle
//!
//! Every engine executes under a [`context::QueryContext`]: a cancellation
//! token, an optional wall-clock deadline, an optional memory budget metering
//! operator outputs and pipeline-breaker state, and the intermediate-record
//! limit — all unified behind [`error::LimitReason`]. The context is checked
//! at every operator boundary, at every morsel a parallel worker picks up,
//! and inside breaker accumulation loops. Worker panics are confined to the
//! failing query ([`error::ExecError::WorkerPanicked`]) while the pool stays
//! healthy, and the `failpoint` shim injects deterministic faults at morsel
//! dispatch, expand routing, and breaker merge points for the chaos suites.

#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod context;
pub mod engine;
pub mod error;
pub mod expand;
pub(crate) mod kernel;
pub mod parallel;
pub(crate) mod pipeline;
pub mod record;
pub mod relational;
pub(crate) mod sink;

pub use backend::{Backend, PartitionedBackend, SingleMachineBackend};
pub use batch::{
    BatchBuilder, BatchRow, Bitmap, Column, ColumnData, CompiledExpr, EntryRef, RecordBatch,
    DEFAULT_BATCH_SIZE,
};
pub use context::QueryContext;
pub use engine::{Engine, EngineConfig, ExecResult, ExecStats};
pub use error::{ExecError, LimitReason};
pub use gopt_graph::PartitionerSpec;
pub use parallel::{MorselPool, ParallelEngine};
pub use record::{Entry, Record, RecordContext, TagMap};
