//! # gopt-exec — execution engines for GOpt physical plans
//!
//! The paper integrates GOpt with two very different backends: Neo4j (a single-machine
//! interpreted runtime) and GraphScope (a distributed dataflow engine). This crate
//! provides laptop-scale equivalents of both so that the optimizer's plans can actually
//! be executed and compared end-to-end:
//!
//! * [`backend::SingleMachineBackend`] — a row-at-a-time interpreter in the spirit of
//!   Neo4j's interpreted runtime; intermediate results are always flattened and there is
//!   no communication cost;
//! * [`backend::PartitionedBackend`] — a hash-partitioned executor modelling a
//!   GraphScope/Gaia-like distributed dataflow engine: vertices are assigned to `P`
//!   partitions and every record that crosses a partition boundary (remote expansion,
//!   shuffle before joins/aggregations) is counted as communication, which is the
//!   cost the paper's distributed cost model charges for;
//! * the physical operator implementations themselves ([`expand`], [`relational`]),
//!   including `ExpandInto` (edge-existence closing, Neo4j-style) and `ExpandIntersect`
//!   (worst-case-optimal adjacency intersection, GraphScope-style);
//! * [`engine::Engine`] — the plan interpreter that walks a
//!   [`gopt_gir::PhysicalPlan`] and gathers [`engine::ExecStats`].
//!
//! Results come back as [`record::Record`]s plus a [`record::TagMap`]; helpers convert
//! them to plain value rows for comparisons in tests and benchmarks.
//!
//! # Vectorized execution
//!
//! Both backends execute **batched** by default: [`engine::BatchEngine`] pulls and
//! pushes [`batch::RecordBatch`]es — struct-of-arrays columns of up to
//! [`batch::DEFAULT_BATCH_SIZE`] rows with validity bitmaps — through batch-wise
//! operator implementations in [`expand`] and [`relational`]. Predicates and
//! projections are compiled once per operator call ([`batch::CompiledExpr`], tag → slot
//! resolution hoisted out of the row loop) and filtering/fan-out is performed with
//! selection vectors gathered column-by-column. The scalar [`engine::Engine`] is kept
//! as the behavioural oracle: equivalence suites replay every plan through both engines
//! and require identical rows and statistics. Select
//! [`backend::ExecMode::Scalar`] to run a backend row-at-a-time.
//!
//! Comparison-shaped filter predicates additionally compile to **typed
//! kernels** (`kernel`, internal): the property's typed column
//! (`gopt_graph::TypedColumn`) is resolved once and its value slice compared
//! directly, with null bitmaps consulted per row — zero `PropValue` clones on
//! the hot filter path. Any shape or column the kernels do not cover falls
//! back to the row-wise compiled evaluator, which stays the oracle.
//!
//! The partitioned backend's [`parallel::ParallelEngine`] runs the same
//! operators as *fused morsel pipelines*: the plan is cut at its breakers, a
//! worker carries one morsel through a pipeline's streaming stages into its
//! sink, and only the tag slots some reader still names are gathered. Expands
//! stream at every partition count; what crosses shards is charged per batch.
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

pub use backend::{Backend, ExecMode, PartitionedBackend, SingleMachineBackend};
pub use batch::{
    BatchBuilder, BatchRow, Bitmap, Column, ColumnData, CompiledExpr, EntryRef, RecordBatch,
    DEFAULT_BATCH_SIZE,
};
pub use context::QueryContext;
pub use engine::{BatchEngine, Engine, EngineConfig, ExecResult, ExecStats};
pub use error::{ExecError, LimitReason};
pub use gopt_graph::PartitionerSpec;
pub use parallel::{MorselPool, ParallelEngine};
pub use record::{Entry, Record, RecordContext, TagMap};
