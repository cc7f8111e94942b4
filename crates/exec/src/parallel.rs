//! Morsel-driven parallel execution over partition-aware graph storage.
//!
//! [`ParallelEngine`] interprets a [`PhysicalPlan`] against a
//! [`PartitionedGraph`] — the sharded CSR storage of `gopt_graph::partition` —
//! with a fixed pool of worker threads. The unit of scheduling is the
//! *morsel*: one [`RecordBatch`] of at most `batch_size` rows, exactly the
//! batches the vectorized operators of [`crate::expand`] and
//! [`crate::relational`] already produce.
//!
//! # Execution model
//!
//! The plan is cut into *pipelines* at its breakers and a worker carries one
//! source morsel through a pipeline's whole chain of streaming stages into
//! its sink, gathering only the tag slots some reader still names — see
//! the `pipeline` and `sink` modules. Every materialized output is an
//! **ordered** sequence of batches whose concatenated rows are bit-for-bit
//! the rows the sequential [`BatchEngine`] (and therefore the scalar
//! [`Engine`] oracle) would produce, in the same order: sinks fold what the
//! workers hand in strictly in morsel order, and an output is dropped (its
//! metered bytes returned to the [`QueryContext`]) as soon as its last
//! reader has run.
//!
//! With one partition every expand is such a streaming stage. With more,
//! **expand operators run a real partition exchange** and so break the
//! pipeline: each *window* of up to `EXCHANGE_WINDOW` consecutive morsels is
//! split by the partition owning the routing vertex (the expansion source,
//! looked up in the graph's shared [`PartitionMap`]), the per-partition
//! sub-batches run the shared expansion kernels against their own
//! [`GraphShard`]'s CSR, and a deterministic per-window merge restores the
//! oracle row order from the kernels' selection vectors. At the expand
//! boundary output rows are routed by the *target* vertex's partition — the
//! rows whose target partition differs from the partition that produced them
//! are the measured shuffle. `HashJoin` and `Union` read their materialized
//! inputs at the coordinator.
//!
//! # Measured communication
//!
//! Unlike the scalar/batched engines — which *simulate* a partitioned
//! deployment on monolithic storage — `ExecStats::comm_records` here is a
//! measured count of rows crossing shards, accumulated at three points:
//!
//! 1. **Alignment shuffles**: when an operator expands from a tag whose
//!    vertices do not own the rows (the rows' current *home* differs from the
//!    routing partition), every row that moves is counted.
//! 2. **Expand boundaries**: rows whose newly bound target vertex lives on a
//!    different partition than the one that produced them (for `PathExpand`,
//!    every hop that crosses partitions, matching the traversal model).
//! 3. **Gathers**: pipeline breakers, joins and unions collect rows at the
//!    coordinator (partition 0); every row not already homed there is
//!    counted.
//!
//! All three consult the graph's [`PartitionMap`] — the single placement
//! oracle shared with the expansion kernels, answering for the modulo
//! [`HashPartitioner`] and for the owner tables a [`GreedyPartitioner`]
//! produces alike — never partition arithmetic of their own. A crossing
//! whose required adjacency is covered by a replicated hub (see
//! `gopt_graph::HubReplicas`) is served by the local replica instead of
//! shipping the row: it accumulates into `ExecStats::locality_hits` rather
//! than `comm_records`, and `ExecStats::replicated_bytes` reports the
//! storage price of the replica overlay. Every count is a pure function of
//! the data, the placement and the replica set — never of the thread count
//! or scheduling — so communication counts are identical across thread
//! counts by construction (asserted by `tests/parallel_equivalence.rs`).
//! With one partition every count is zero.
//!
//! `ExecStats::comm_bytes` applies the same rules to payload sizes: every
//! shipped row is charged its batch's per-row share of
//! [`RecordBatch::approx_bytes`] (integer arithmetic, see `ship_bytes`), so
//! byte counts inherit the thread- and schedule-invariance of the row counts.
//!
//! # Coalesced routing, pipelined exchange and backpressure
//!
//! Each expand operator runs its partition exchange through
//! [`exchange_expand`](ParallelEngine): a *route* unit takes a window of up
//! to `EXCHANGE_WINDOW` consecutive morsels and splits it by routing
//! partition — accumulating the window's routed rows into **one** gathered
//! sub-batch per destination partition instead of one per
//! (morsel × partition), so a window costs one channel message and at most
//! `p` gathered batches — and an *expand* unit runs the expansion kernels
//! over the split and merges the oracle row order back. How the two stages
//! are scheduled is the [`ExchangeMode`]:
//!
//! * [`ExchangeMode::Barrier`] materializes **every** routed split first and
//!   only then expands — the classic synchronous exchange, with peak memory
//!   proportional to the whole intermediate.
//! * [`ExchangeMode::Pipelined`] (the default) streams splits through a
//!   bounded channel of capacity `GOPT_EXCHANGE_CAP` (default
//!   [`DEFAULT_EXCHANGE_CAP`]): a cooperative crew of identical workers
//!   routes, forwards and expands concurrently, and a producer that finds the
//!   channel full first *helps drain it* and otherwise parks in short,
//!   bounded, context-checked waits — backpressure without lost wakeups, so
//!   cancellation, deadlines and fail points fire even while blocked on a
//!   full (or empty) channel. At most `capacity + workers` gathered splits
//!   are resident at once, independent of the input size. Any single worker
//!   can drain the whole pipeline alone, so the stage is deadlock-free at
//!   every capacity ≥ 1 and thread count ≥ 1.
//!
//! Both modes execute identical route and expand units over identical
//! windows in identical per-window order at the merge, so rows, row order
//! and every `comm_*` stat are bit-identical between them;
//! `ExecStats::exchange_peak_bytes` is the only observable difference (it
//! measures resident gathered bytes, which is the point of pipelining).
//!
//! An unparseable `GOPT_EXCHANGE_CAP`, `GOPT_EXCHANGE_MODE` or
//! `GOPT_PARTITIONER` value is a configuration mistake, not a hint: it
//! surfaces as [`ExecError::Config`] on the first execute instead of being
//! silently replaced by a default.
//!
//! [`BatchEngine`]: crate::engine::BatchEngine
//! [`Engine`]: crate::engine::Engine
//! [`GraphShard`]: gopt_graph::GraphShard
//! [`HashPartitioner`]: gopt_graph::HashPartitioner
//! [`GreedyPartitioner`]: gopt_graph::GreedyPartitioner
//! [`PartitionMap`]: gopt_graph::PartitionMap

use crate::batch::{self, BatchBuilder, EntryRef, RecordBatch, DEFAULT_BATCH_SIZE};
use crate::context::{self, QueryContext};
use crate::engine::{op_name, ExecResult, ExecStats};
use crate::error::ExecError;
use crate::expand::{CommTally, ExpandKernel, KernelScratch};
use crate::pipeline::{self, Live, Pipeline, Role, Stage, Tally, Unit, Worker};
use crate::record::TagMap;
use crate::relational;
use crate::sink::Sink;
use gopt_gir::pattern::Direction;
use gopt_gir::physical::{PhysicalNodeId, PhysicalOp, PhysicalPlan};
use gopt_graph::{GraphView, PartitionMap, PartitionedGraph, VertexId};
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// A type-erased reference to one phase's task closure. The pointer is only
/// dereferenced while [`WorkerPool::run_phase`] is blocked on that phase,
/// which keeps the borrowed closure alive.
#[derive(Clone, Copy)]
struct TaskRef {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is a `Fn(usize) + Sync` closure shared for the duration
// of one phase; `run_phase` does not return until every index completed.
unsafe impl Send for TaskRef {}

/// One in-flight phase: a batch of index-addressed tasks submitted by one
/// query. Several phases from different queries coexist on a shared pool.
struct PhaseState {
    task: TaskRef,
    count: usize,
    next: usize,
    active: usize,
    /// First panic payload raised by a task of this phase; re-thrown on the
    /// submitting thread once the phase has drained. Confined to this phase:
    /// other queries' phases keep running.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl PhaseState {
    /// Record a task panic: keep the first payload and fast-forward the
    /// cursor so no further task of this phase starts (in-flight tasks
    /// finish; the phase result is discarded by the re-thrown panic anyway).
    fn record_panic(&mut self, payload: Box<dyn std::any::Any + Send>) {
        if self.panic.is_none() {
            self.panic = Some(payload);
        }
        self.next = self.count;
    }

    /// Every task handed out and none still running.
    fn drained(&self) -> bool {
        self.next >= self.count && self.active == 0
    }
}

struct PoolState {
    /// Slot-addressed in-flight phases (`None` = free slot). Each executing
    /// query contributes at most one phase at a time, so the vector stays as
    /// small as the peak query concurrency.
    phases: Vec<Option<PhaseState>>,
    /// Round-robin cursor: workers resume scanning at the slot after the one
    /// they last drew from, so concurrent queries' morsels interleave fairly
    /// instead of one query monopolizing the workers.
    rr: usize,
    shutdown: bool,
}

impl PoolState {
    /// Claim one task, scanning phases round-robin from the cursor. Returns
    /// `(slot, task, index)`; `None` when no phase has work left.
    fn claim(&mut self) -> Option<(usize, TaskRef, usize)> {
        let n = self.phases.len();
        for off in 0..n {
            let slot = (self.rr + off) % n;
            if let Some(ph) = self.phases[slot].as_mut() {
                if ph.next < ph.count {
                    let i = ph.next;
                    ph.next += 1;
                    ph.active += 1;
                    self.rr = (slot + 1) % n;
                    return Some((slot, ph.task, i));
                }
            }
        }
        None
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// A fixed pool of workers executing index-addressed phases: `run_phase(n, f)`
/// runs `f(0) .. f(n-1)` across the workers (the calling thread participates)
/// and returns once all indices completed. With zero workers everything runs
/// inline on the caller, giving a lock-free single-threaded baseline.
///
/// Phases from *different* callers may overlap: each `run_phase` call
/// registers its own phase, workers drain the registered phases round-robin
/// (one task per turn), and the submitting thread only ever takes tasks from
/// its own phase — so every concurrent query makes progress even when the
/// dedicated workers are busy elsewhere, and a panic poisons only the phase
/// that raised it.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    pub(crate) fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                phases: Vec::new(),
                rr: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Dedicated worker threads (the submitting thread always adds one more).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run one phase of `count` tasks. Blocks until every task completed, so
    /// `f` may borrow from the caller's stack. Safe to call from several
    /// threads at once: each call is its own phase.
    ///
    /// A panicking task poisons only this phase: no further task of the phase
    /// starts, in-flight tasks drain, and the first panic payload comes back
    /// as `Err` — the pool itself stays healthy for every other phase.
    pub(crate) fn run_phase<F: Fn(usize) + Sync>(
        &self,
        count: usize,
        f: &F,
    ) -> Result<(), Box<dyn std::any::Any + Send>> {
        if count == 0 {
            return Ok(());
        }
        if self.handles.is_empty() || count == 1 {
            for i in 0..count {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))?;
            }
            return Ok(());
        }
        unsafe fn trampoline<F: Fn(usize)>(data: *const (), i: usize) {
            let f = unsafe { &*(data as *const F) };
            f(i);
        }
        let task = TaskRef {
            data: f as *const F as *const (),
            call: trampoline::<F>,
        };
        let slot = {
            let mut st = self.shared.state.lock();
            let slot = st
                .phases
                .iter()
                .position(Option::is_none)
                .unwrap_or_else(|| {
                    st.phases.push(None);
                    st.phases.len() - 1
                });
            st.phases[slot] = Some(PhaseState {
                task,
                count,
                next: 0,
                active: 0,
                panic: None,
            });
            self.shared.work.notify_all();
            slot
        };
        // The submitting thread participates, but only in its own phase:
        // draining another query's morsels here could block this query behind
        // arbitrary foreign work (and deadlock if that work waited on us).
        loop {
            let i = {
                let mut st = self.shared.state.lock();
                let ph = st.phases[slot].as_mut().expect("own phase live");
                if ph.next >= ph.count {
                    break;
                }
                ph.next += 1;
                ph.active += 1;
                ph.next - 1
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)));
            let mut st = self.shared.state.lock();
            let ph = st.phases[slot].as_mut().expect("own phase live");
            ph.active -= 1;
            if let Err(payload) = outcome {
                ph.record_panic(payload);
            }
            if ph.drained() {
                self.shared.done.notify_all();
            }
        }
        let mut st = self.shared.state.lock();
        while st.phases[slot].as_ref().expect("own phase live").active > 0 {
            st = self.shared.done.wait(st);
        }
        let ph = st.phases[slot].take().expect("own phase live");
        // surface a task panic as a value, confined to this phase
        match ph.panic {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(sh: &PoolShared) {
    loop {
        let (slot, task, i) = {
            let mut st = sh.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(claim) = st.claim() {
                    break claim;
                }
                st = sh.work.wait(st);
            }
        };
        // SAFETY: see TaskRef — the closure outlives its phase. A panicking
        // task must still decrement `active` (and wake the submitter), or
        // run_phase would wait forever; the payload is re-thrown over there.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (task.call)(task.data, i)
        }));
        let mut st = sh.state.lock();
        let ph = st.phases[slot]
            .as_mut()
            .expect("phase lives until its submitter takes it");
        ph.active -= 1;
        if let Err(payload) = outcome {
            ph.record_panic(payload);
        }
        if ph.drained() {
            sh.done.notify_all();
        }
    }
}

/// A shareable fixed pool of morsel workers.
///
/// Cloning is cheap (`Arc`). Every engine handed the same `MorselPool` via
/// [`ParallelEngine::with_pool`] submits its morsel phases to one set of
/// worker threads; the workers drain the per-query phases round-robin (one
/// morsel per phase per turn) so N concurrent queries share the machine
/// fairly, and each submitting thread also works on its own query — no query
/// can be starved by another. A worker panic is confined to the phase (and
/// therefore the query) that raised it; the pool survives.
#[derive(Clone)]
pub struct MorselPool {
    inner: Arc<WorkerPool>,
}

impl MorselPool {
    /// Spawn a pool with `workers` dedicated threads. Zero workers is valid:
    /// every phase then runs inline on its submitting thread.
    pub fn new(workers: usize) -> MorselPool {
        MorselPool {
            inner: Arc::new(WorkerPool::new(workers)),
        }
    }

    /// A pool sized for `threads`-way parallelism per query: `threads - 1`
    /// dedicated workers, because the thread submitting a query always
    /// participates in that query's phases.
    pub fn for_threads(threads: usize) -> MorselPool {
        MorselPool::new(threads.max(1) - 1)
    }

    /// Number of dedicated worker threads (excluding submitting threads).
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    pub(crate) fn worker_pool(&self) -> &Arc<WorkerPool> {
        &self.inner
    }
}

impl std::fmt::Debug for MorselPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorselPool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// Map `f` over `0..count` on the pool, collecting results in index order.
/// The first panicking task aborts the phase and its payload is returned
/// (see [`WorkerPool::run_phase`]); the pool stays reusable either way.
fn par_map<T, F>(
    pool: &WorkerPool,
    count: usize,
    f: F,
) -> Result<Vec<T>, Box<dyn std::any::Any + Send>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let mut results: Vec<Option<T>> = Vec::with_capacity(count);
    results.resize_with(count, || None);
    struct Slots<T>(*mut Option<T>);
    // SAFETY: each task writes exactly its own (disjoint) index; the pool's
    // lock hand-off sequences the writes before the reads below.
    unsafe impl<T: Send> Sync for Slots<T> {}
    let slots = Slots(results.as_mut_ptr());
    let slots_ref = &slots;
    pool.run_phase(count, &move |i| {
        let v = f(i);
        unsafe { *slots_ref.0.add(i) = Some(v) };
    })?;
    Ok(results
        .into_iter()
        .map(|o| o.expect("phase completed every index"))
        .collect())
}

/// [`par_map`] with panic payloads mapped to the typed error of operator
/// `op`: cooperative [`context::TaskAbort`]s (limit hits, injected morsel
/// faults) keep their identity, while a genuine task panic becomes
/// [`ExecError::WorkerPanicked`] — failing this query only, never the pool.
fn par_map_op<T, F>(
    pool: &WorkerPool,
    count: usize,
    op: &'static str,
    f: F,
) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map(pool, count, f).map_err(|payload| context::map_panic(payload, op))
}

// ---------------------------------------------------------------------------
// Exchange configuration
// ---------------------------------------------------------------------------

/// Default bounded-channel capacity (routed morsels in flight) of the
/// pipelined exchange; override per engine with
/// [`ParallelEngine::with_exchange_capacity`] or process-wide with the
/// `GOPT_EXCHANGE_CAP` environment variable.
pub const DEFAULT_EXCHANGE_CAP: usize = 8;

/// How an expand operator schedules its partition exchange — see the
/// [module docs](self#pipelined-exchange-and-backpressure). Both modes
/// produce bit-identical rows, row order and communication stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Route every morsel first, materializing all splits, then expand —
    /// the synchronous-barrier baseline.
    Barrier,
    /// Stream routed splits through a bounded channel with backpressure:
    /// expansion starts while routing still produces, and producers block
    /// (in short context-checked waits, or by helping drain) when the
    /// channel is full.
    #[default]
    Pipelined,
}

/// Number of consecutive input morsels one route unit coalesces into a
/// single window split: one channel message and at most one gathered
/// sub-batch per destination partition per window, instead of one split per
/// (morsel × partition). With one partition nothing is ever gathered, so
/// windows degenerate to single morsels there.
pub(crate) const EXCHANGE_WINDOW: usize = 4;

/// Parse `GOPT_EXCHANGE_CAP`: unset → the default; set → a positive integer
/// or a typed configuration error (surfaced as [`ExecError::Config`] on the
/// first execute — never a silent fallback).
pub(crate) fn exchange_cap_from_env() -> Result<usize, String> {
    match std::env::var("GOPT_EXCHANGE_CAP") {
        Err(_) => Ok(DEFAULT_EXCHANGE_CAP),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(c) if c >= 1 => Ok(c),
            _ => Err(format!(
                "GOPT_EXCHANGE_CAP must be a positive integer, got {:?}",
                v.trim()
            )),
        },
    }
}

/// Parse `GOPT_EXCHANGE_MODE`: unset → pipelined (the default); set →
/// `barrier`/`pipelined` or a typed configuration error.
pub(crate) fn exchange_mode_from_env() -> Result<ExchangeMode, String> {
    match std::env::var("GOPT_EXCHANGE_MODE") {
        Err(_) => Ok(ExchangeMode::default()),
        Ok(v) => match v.trim() {
            "barrier" => Ok(ExchangeMode::Barrier),
            "pipelined" => Ok(ExchangeMode::Pipelined),
            other => Err(format!(
                "GOPT_EXCHANGE_MODE must be \"barrier\" or \"pipelined\", got {other:?}"
            )),
        },
    }
}

/// Bytes attributed to shipping `moved` of `rows` rows out of a payload of
/// `bytes` total: the payload scaled by the moved fraction. Integer
/// arithmetic (u128 intermediate) so every thread count and exchange mode
/// computes the identical value. `moved` may exceed `rows` (PathExpand
/// counts every partition-crossing hop); the charge scales past the payload
/// accordingly, matching the traversal model.
fn ship_bytes(bytes: u64, rows: u64, moved: u64) -> u64 {
    if rows == 0 || moved == 0 {
        return 0;
    }
    ((bytes as u128 * moved as u128) / rows as u128) as u64
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Where a node's output rows currently live in the partitioned deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Home {
    /// Each row is homed on the partition owning the vertex bound at this
    /// tag slot (rows with an unbound slot sit on partition 0).
    Tag(usize),
    /// Rows were gathered at the coordinator (partition 0).
    Coordinator,
}

/// One materialized output: ordered batches, the tag map, the slots a
/// reader still names, the rows' current home and the bytes metered for it.
struct NodeOut {
    batches: Vec<RecordBatch>,
    tags: TagMap,
    live: Vec<bool>,
    home: Home,
    bytes: u64,
}

/// One window of consecutive morsels split by routing partition for an
/// expand exchange. Row indices are *flat*: row `r` of the window's morsel
/// `m` is window row `sum(rows of morsels < m) + r`, so flat order is
/// exactly the oracle's (morsel, row) order.
struct WindowSplit<'a> {
    /// Total input row count across the window's morsels.
    rows: usize,
    /// Routing partition per flat window row (-1 = routing vertex unbound;
    /// the row is dropped, exactly as the kernels would drop it).
    owner: Vec<i32>,
    /// Per non-empty partition: (partition, coalesced sub-batch, flat window
    /// row index of each sub-batch row). A single-morsel window whose rows
    /// all route to one partition borrows the input morsel instead of
    /// gathering a copy.
    subs: Vec<(usize, Cow<'a, RecordBatch>, Vec<u32>)>,
}

impl WindowSplit<'_> {
    /// Extra memory this split holds beyond the input morsels: the gathered
    /// (owned) sub-batches. Borrowed subs alias the input and cost nothing.
    fn gathered_bytes(&self) -> u64 {
        self.subs
            .iter()
            .map(|(_, sub, _)| match sub {
                Cow::Owned(b) => b.approx_bytes(),
                Cow::Borrowed(_) => 0,
            })
            .sum()
    }
}

/// One window's route outcome: the split plus what the route stage shipped
/// (rows and their byte share) and the rows a replicated hub adjacency kept
/// local instead.
struct RouteOut<'a> {
    split: WindowSplit<'a>,
    moved: u64,
    moved_bytes: u64,
    route_hits: u64,
}

/// Result of one expand unit: the merged output batches of one window (in
/// oracle row order) and the crossings its kernels measured at the expand
/// boundary (shipped rows and replica-served locality hits).
struct Expanded {
    batches: Vec<RecordBatch>,
    comm: CommTally,
}

/// One window's exchange outcome: its expanded output plus the rows, bytes
/// and replica-served hits of its route stage.
type Routed = (Expanded, u64, u64, u64);

/// Set when a crew member unwinds, so the others stop claiming morsels.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The morsel-driven parallel interpreter over a [`PartitionedGraph`].
///
/// Produces exactly the rows (and row order) of the sequential engines — the
/// scalar [`crate::engine::Engine`] on a single partition is the behavioural
/// oracle — while reading adjacency and vertex properties from per-partition
/// shards and measuring real cross-shard row movement into
/// [`ExecStats::comm_records`].
pub struct ParallelEngine<'g> {
    graph: &'g PartitionedGraph,
    record_limit: Option<u64>,
    threads: usize,
    batch_size: usize,
    /// Bounded-channel capacity of the pipelined exchange (≥ 1).
    exchange_cap: usize,
    exchange_mode: ExchangeMode,
    /// Deferred typed errors from unparseable `GOPT_EXCHANGE_CAP` /
    /// `GOPT_EXCHANGE_MODE` values, surfaced as [`ExecError::Config`] on the
    /// first execute. The matching builder overrides the environment and
    /// clears its error.
    cap_err: Option<String>,
    mode_err: Option<String>,
    /// Shared pool injected via [`with_pool`](Self::with_pool); when absent an
    /// owned pool is spawned lazily on the first execute and reused. Either
    /// way the lock is held only to fetch the handle — concurrent
    /// `execute` calls interleave their morsels on the pool instead of
    /// serializing, and every call keeps its own `ExecStats`.
    shared: Option<MorselPool>,
    owned: Mutex<Option<Arc<WorkerPool>>>,
}

impl<'g> ParallelEngine<'g> {
    /// Create an engine over sharded storage with one thread and the default
    /// morsel size. Exchange scheduling comes from the environment
    /// (`GOPT_EXCHANGE_CAP`, `GOPT_EXCHANGE_MODE`) unless overridden with
    /// the builders below.
    pub fn new(graph: &'g PartitionedGraph) -> Self {
        let (exchange_cap, cap_err) = match exchange_cap_from_env() {
            Ok(c) => (c, None),
            Err(e) => (DEFAULT_EXCHANGE_CAP, Some(e)),
        };
        let (exchange_mode, mode_err) = match exchange_mode_from_env() {
            Ok(m) => (m, None),
            Err(e) => (ExchangeMode::default(), Some(e)),
        };
        ParallelEngine {
            graph,
            record_limit: None,
            threads: 1,
            batch_size: DEFAULT_BATCH_SIZE,
            exchange_cap,
            exchange_mode,
            cap_err,
            mode_err,
            shared: None,
            owned: Mutex::new(None),
        }
    }

    /// Set the worker thread count (values below 1 are clamped to 1). Drops
    /// an already-spawned owned pool so the next execute respawns at the new
    /// size; ignored while a shared pool is injected.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.owned = Mutex::new(None);
        self
    }

    /// Run morsels on a shared [`MorselPool`] instead of an owned one, so
    /// several engines (serving concurrent queries) multiplex one set of
    /// worker threads with round-robin fairness between their phases.
    pub fn with_pool(mut self, pool: &MorselPool) -> Self {
        self.shared = Some(pool.clone());
        self
    }

    /// Set the morsel size (maximum rows per batch; clamped to at least 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Abort when the total intermediate records exceed `limit`.
    pub fn with_record_limit(mut self, limit: Option<u64>) -> Self {
        self.record_limit = limit;
        self
    }

    /// Set the pipelined exchange's bounded-channel capacity in routed
    /// window splits (clamped to at least 1). Smaller capacities bound peak
    /// exchange memory harder at the cost of more producer waiting.
    /// Overrides `GOPT_EXCHANGE_CAP` (and clears any pending error from an
    /// unparseable value of it).
    pub fn with_exchange_capacity(mut self, cap: usize) -> Self {
        self.exchange_cap = cap.max(1);
        self.cap_err = None;
        self
    }

    /// Select how expand operators schedule their partition exchange.
    /// Overrides `GOPT_EXCHANGE_MODE` (and clears any pending error from an
    /// unparseable value of it).
    pub fn with_exchange_mode(mut self, mode: ExchangeMode) -> Self {
        self.exchange_mode = mode;
        self.mode_err = None;
        self
    }

    /// The sharded graph being queried.
    pub fn graph(&self) -> &'g PartitionedGraph {
        self.graph
    }

    /// Maximum rows per batch.
    pub(crate) fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Execute a physical plan under a fresh [`QueryContext`] carrying only
    /// the engine-level record limit.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        self.execute_with_ctx(
            plan,
            &QueryContext::new().with_record_limit(self.record_limit),
        )
    }

    /// Execute a physical plan under `ctx`: cancellation, deadline, budget
    /// and record limit are checked at every operator boundary, at every
    /// morsel a worker picks up and at every batch a stage hands on.
    pub fn execute_with_ctx(
        &self,
        plan: &PhysicalPlan,
        ctx: &QueryContext,
    ) -> Result<ExecResult, ExecError> {
        context::init_failpoints();
        // a broken environment override is an error the operator must see,
        // even before plan shape is considered
        if let Some(msg) = self.cap_err.as_ref().or(self.mode_err.as_ref()) {
            return Err(ExecError::Config(msg.clone()));
        }
        if plan.is_empty() {
            return Err(ExecError::EmptyPlan);
        }
        let start = Instant::now();
        // fetch the pool handle without holding any lock for the query's
        // duration: concurrent executes interleave on the (shared) pool
        let pool: Arc<WorkerPool> =
            match &self.shared {
                Some(p) => Arc::clone(p.worker_pool()),
                None => Arc::clone(self.owned.lock().get_or_insert_with(|| {
                    Arc::new(WorkerPool::new(self.threads.saturating_sub(1)))
                })),
            };
        let pool = &*pool;
        // replicated_bytes is the storage price of the hub replica overlay
        // this graph carries — constant per deployment, reported per query
        let mut stats = ExecStats {
            replicated_bytes: self.graph.replicated_bytes(),
            ..Default::default()
        };
        let live = pipeline::liveness(plan);
        let units = pipeline::cut(plan, &live, self.graph.partitions() > 1);
        // units still to read each materialized output
        let mut readers = vec![0usize; plan.len()];
        for i in units.iter().flat_map(|u| u.reads(plan)) {
            readers[i.0] += 1;
        }
        let mut outputs: Vec<Option<NodeOut>> = Vec::with_capacity(plan.len());
        outputs.resize_with(plan.len(), || None);
        for unit in &units {
            // every plan node passes its checkpoint and the operator fail
            // point once, in topological order, before the unit that fuses
            // it runs. The unwind boundaries confine a `panic` fail-point
            // action (operator, exchange or merge points on the driving
            // thread) to this query, like a worker panic.
            for id in unit.nodes() {
                ctx.check().map_err(ExecError::LimitExceeded)?;
                let name = op_name(plan.op(id));
                std::panic::catch_unwind(|| failpoint::check(context::FP_OPERATOR))
                    .map_err(|payload| context::map_panic(payload, name))?
                    .map_err(context::injected)?;
            }
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_unit(pool, ctx, plan, unit, &live, &outputs, &mut stats)
            }))
            .unwrap_or_else(|payload| {
                Err(context::map_panic(payload, op_name(plan.op(unit.out))))
            })?;
            outputs[unit.out.0] = Some(out);
            // free every input this unit was the last reader of
            for i in unit.reads(plan) {
                readers[i.0] -= 1;
                if readers[i.0] == 0 {
                    if let Some(done) = outputs[i.0].take() {
                        ctx.release_bytes(done.bytes);
                    }
                }
            }
        }
        let NodeOut { batches, tags, .. } = outputs[plan.root().0]
            .take()
            .expect("the root's unit ran last");
        stats.elapsed_micros = start.elapsed().as_micros();
        Ok(ExecResult::new(batches, tags, stats))
    }
    #[inline]
    fn part(&self, v: VertexId) -> usize {
        self.graph.partition_of(v)
    }

    /// The graph's placement oracle, in the form the expansion kernels take.
    #[inline]
    pub(crate) fn pmap(&self) -> Option<&PartitionMap> {
        Some(self.graph.partition_map())
    }

    /// The partition a row currently sits on.
    #[inline]
    fn row_home(&self, batch: &RecordBatch, row: usize, home: Home) -> usize {
        match home {
            Home::Coordinator => 0,
            Home::Tag(slot) => batch
                .entry(slot, row)
                .as_vertex()
                .map(|v| self.part(v))
                .unwrap_or(0),
        }
    }

    /// Measured (rows, bytes) shipped when gathering a node's output at the
    /// coordinator (pipeline breakers, joins, unions). Bytes are each moved
    /// row's share of its batch's `approx_bytes`.
    pub(crate) fn gather_comm(&self, batches: &[RecordBatch], home: Home) -> (u64, u64) {
        if self.graph.partitions() <= 1 || home == Home::Coordinator {
            return (0, 0);
        }
        let mut records = 0u64;
        let mut bytes = 0u64;
        for b in batches {
            let moved = (0..b.rows())
                .filter(|&r| self.row_home(b, r, home) != 0)
                .count() as u64;
            records += moved;
            bytes += ship_bytes(b.approx_bytes(), b.rows() as u64, moved);
        }
        (records, bytes)
    }

    /// Add a coordinator gather's communication to `stats`.
    fn charge_gather(&self, stats: &mut ExecStats, batches: &[RecordBatch], home: Home) {
        let (records, bytes) = self.gather_comm(batches, home);
        stats.comm_records += records;
        stats.comm_bytes += bytes;
    }

    /// Route unit of the exchange: split one window of consecutive morsels
    /// by the partition owning the vertex at `route_slot` (consulting the
    /// shared [`PartitionMap`]), coalescing the whole window's routed rows
    /// into one sub-batch per destination partition, and measuring the
    /// (rows, bytes) that had to move from their current home. A row whose
    /// routing vertex is a replicated hub and whose expansion reads the
    /// `Out` adjacency needs no move at all — every shard holds that
    /// adjacency — so it counts as a locality hit instead of a shipped row.
    fn split_window<'a>(
        &self,
        window: &'a [RecordBatch],
        live: &[bool],
        route_slot: usize,
        home: Home,
        aligned: bool,
        route_dir: Direction,
    ) -> RouteOut<'a> {
        let p = self.graph.partitions();
        let pm = self.graph.partition_map();
        let hubs_serve = route_dir == Direction::Out;
        let rows: usize = window.iter().map(RecordBatch::rows).sum();
        let mut owner = vec![-1i32; rows];
        let mut sels: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut moved = 0u64;
        let mut moved_bytes = 0u64;
        let mut route_hits = 0u64;
        // flat start offset of each morsel within the window (+ end sentinel)
        let mut starts = Vec::with_capacity(window.len() + 1);
        let mut base = 0usize;
        for batch in window {
            starts.push(base);
            let mut batch_moved = 0u64;
            for row in 0..batch.rows() {
                let Some(v) = batch.entry(route_slot, row).as_vertex() else {
                    continue;
                };
                let dest = pm.partition_of(v);
                owner[base + row] = dest as i32;
                if !aligned && self.row_home(batch, row, home) != dest {
                    if hubs_serve && pm.is_hub(v) {
                        route_hits += 1;
                    } else {
                        batch_moved += 1;
                    }
                }
                sels[dest].push((base + row) as u32);
            }
            moved += batch_moved;
            moved_bytes += ship_bytes(batch.approx_bytes(), batch.rows() as u64, batch_moved);
            base += batch.rows();
        }
        starts.push(base);
        let subs = sels
            .into_iter()
            .enumerate()
            .filter(|(_, sel)| !sel.is_empty())
            .map(|(part, sel)| {
                let sub = if let [batch] = window {
                    // single-morsel window: columnar gather, borrowing when
                    // every row routes to this one partition
                    if sel.len() == batch.rows() {
                        Cow::Borrowed(batch)
                    } else {
                        Cow::Owned(batch.gather_live(&sel, live))
                    }
                } else {
                    // coalesce the window's rows for this destination into
                    // one batch, in flat (= oracle) order
                    let mut builder = BatchBuilder::with_live(live, usize::MAX);
                    let mut mi = 0usize;
                    for &flat in &sel {
                        let f = flat as usize;
                        while f >= starts[mi + 1] {
                            mi += 1;
                        }
                        builder.push_row_from(&window[mi], f - starts[mi], &[]);
                    }
                    let mut out = builder.finish();
                    debug_assert_eq!(out.len(), 1, "uncapped builder yields one batch");
                    Cow::Owned(out.pop().expect("sel is non-empty"))
                };
                (part, sub, sel)
            })
            .collect();
        RouteOut {
            split: WindowSplit { rows, owner, subs },
            moved,
            moved_bytes,
            route_hits,
        }
    }

    /// The full exchange of one expand operator: cut the input into windows
    /// of up to [`EXCHANGE_WINDOW`] consecutive morsels, route every window
    /// to its partitions and run `expand_one` (kernels + oracle-order merge)
    /// over each split, per the engine's [`ExchangeMode`]. Outputs come back
    /// concatenated in window order; all communication stats are accumulated
    /// here, per window in window order, so both modes charge identically.
    /// `route_dir` is the adjacency direction the operator reads from the
    /// routing vertex — it decides whether hub replicas can serve the row
    /// locally.
    #[allow(clippy::too_many_arguments)]
    fn exchange_expand<'a, F>(
        &self,
        pool: &WorkerPool,
        ctx: &QueryContext,
        op: &'static str,
        input: &'a NodeOut,
        route_slot: usize,
        route_dir: Direction,
        stats: &mut ExecStats,
        expand_one: F,
    ) -> Result<Vec<RecordBatch>, ExecError>
    where
        F: Fn(&WindowSplit<'a>) -> Expanded + Sync,
    {
        let (batches, home) = (&input.batches, input.home);
        if batches.is_empty() {
            // preserve the per-operator exchange fail point even when there
            // is nothing to route
            failpoint::check(context::FP_EXCHANGE).map_err(context::injected)?;
            return Ok(Vec::new());
        }
        let windows: Vec<&'a [RecordBatch]> = batches.chunks(EXCHANGE_WINDOW).collect();
        let n = windows.len();
        let aligned = home == Home::Tag(route_slot);
        // One route unit per window: context checkpoint, exchange fail
        // point, then the split. Fires inside pooled tasks, so faults and
        // limit hits unwind as TaskAborts and are mapped back to typed
        // errors per mode.
        let route_unit = |wi: usize| -> RouteOut<'a> {
            context::worker_checkpoint(ctx);
            if let Err(f) = failpoint::check(context::FP_EXCHANGE) {
                std::panic::panic_any(context::TaskAbort::Injected {
                    point: f.point,
                    msg: f.msg,
                });
            }
            self.split_window(
                windows[wi],
                &input.live,
                route_slot,
                home,
                aligned,
                route_dir,
            )
        };
        let (per_wi, peak) = match self.exchange_mode {
            ExchangeMode::Barrier => {
                // synchronous barrier: materialize EVERY routed split, then
                // expand — the baseline the pipelined mode is measured against
                let routed: Vec<RouteOut<'a>> = par_map_op(pool, n, op, route_unit)?;
                let resident: u64 = routed.iter().map(|r| r.split.gathered_bytes()).sum();
                let expanded: Vec<Expanded> =
                    par_map_op(pool, n, op, |wi| expand_one(&routed[wi].split))?;
                let per_wi = expanded
                    .into_iter()
                    .zip(&routed)
                    .map(|(e, r)| (e, r.moved, r.moved_bytes, r.route_hits))
                    .collect();
                (per_wi, resident)
            }
            ExchangeMode::Pipelined => {
                self.exchange_pipelined(pool, ctx, op, n, &route_unit, &expand_one)?
            }
        };
        stats.exchange_peak_bytes = stats.exchange_peak_bytes.max(peak);
        let mut out = Vec::new();
        for (e, moved, moved_bytes, route_hits) in per_wi {
            stats.comm_records += moved + e.comm.shipped;
            stats.locality_hits += route_hits + e.comm.local_hits;
            let out_rows = batch::total_rows(&e.batches) as u64;
            let out_bytes: u64 = e.batches.iter().map(RecordBatch::approx_bytes).sum();
            stats.comm_bytes += moved_bytes + ship_bytes(out_bytes, out_rows, e.comm.shipped);
            out.extend(e.batches);
        }
        Ok(out)
    }

    /// Pipelined exchange: a cooperative crew of identical workers connected
    /// by one bounded channel of routed splits. Every worker prefers draining
    /// the channel (expand), otherwise claims the next morsel to route and
    /// forwards the split with backpressure: on a full channel it helps by
    /// expanding one queued split itself, or parks briefly and re-checks the
    /// query context — bounded waits only, so cancellation/deadlines/fail
    /// points fire while blocked and no wakeup can be lost. Any single
    /// worker can drain the whole pipeline, so the stage cannot deadlock at
    /// any capacity or thread count.
    ///
    /// Returns per-window `(Expanded, moved, moved_bytes, route_hits)` in
    /// window order plus the peak resident gathered bytes (splits queued,
    /// held by blocked routers, or being expanded).
    fn exchange_pipelined<'a, R, F>(
        &self,
        pool: &WorkerPool,
        ctx: &QueryContext,
        op: &'static str,
        n: usize,
        route_unit: &R,
        expand_one: &F,
    ) -> Result<(Vec<Routed>, u64), ExecError>
    where
        R: Fn(usize) -> RouteOut<'a> + Sync,
        F: Fn(&WindowSplit<'a>) -> Expanded + Sync,
    {
        type Item<'a> = (usize, RouteOut<'a>);
        let (tx, rx) = crossbeam_channel::bounded::<Item<'a>>(self.exchange_cap);
        let next_route = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let error: Mutex<Option<ExecError>> = Mutex::new(None);
        let queued_bytes = AtomicU64::new(0);
        let peak_bytes = AtomicU64::new(0);
        let mut results: Vec<Option<Routed>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        struct Slots<T>(*mut Option<T>);
        // SAFETY: each window index is expanded (and written) exactly once;
        // the phase barrier in run_phase sequences writes before the reads.
        unsafe impl<T: Send> Sync for Slots<T> {}
        let slots = Slots(results.as_mut_ptr());
        let slots = &slots;

        let fail = |e: ExecError| {
            let mut g = error.lock();
            if g.is_none() {
                *g = Some(e);
            }
            failed.store(true, Ordering::Release);
        };
        // expand one routed split; false aborts the calling worker
        let do_expand = |(wi, routed): Item<'a>| -> bool {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                expand_one(&routed.split)
            }));
            match out {
                Ok(e) => {
                    queued_bytes.fetch_sub(routed.split.gathered_bytes(), Ordering::Relaxed);
                    unsafe {
                        *slots.0.add(wi) =
                            Some((e, routed.moved, routed.moved_bytes, routed.route_hits))
                    };
                    completed.fetch_add(1, Ordering::Release);
                    true
                }
                Err(payload) => {
                    fail(context::map_panic(payload, op));
                    false
                }
            }
        };
        let worker = |_wi: usize| {
            loop {
                if failed.load(Ordering::Acquire) {
                    return;
                }
                // prefer consuming: keeps the channel short and the merge fed
                if let Ok(item) = rx.try_recv() {
                    if !do_expand(item) {
                        return;
                    }
                    continue;
                }
                let wi = next_route.fetch_add(1, Ordering::Relaxed);
                if wi < n {
                    let routed =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route_unit(wi)));
                    let routed = match routed {
                        Ok(r) => r,
                        Err(payload) => {
                            fail(context::map_panic(payload, op));
                            return;
                        }
                    };
                    let bytes = routed.split.gathered_bytes();
                    let resident = queued_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
                    peak_bytes.fetch_max(resident, Ordering::Relaxed);
                    // backpressure loop: never an unbounded block
                    let mut item = (wi, routed);
                    loop {
                        if failed.load(Ordering::Acquire) {
                            return;
                        }
                        match tx.try_send(item) {
                            Ok(()) => break,
                            Err(crossbeam_channel::TrySendError::Full(back)) => {
                                item = back;
                                // help drain the queue we are blocked on
                                if let Ok(other) = rx.try_recv() {
                                    if !do_expand(other) {
                                        return;
                                    }
                                } else if let Err(reason) = ctx.check() {
                                    fail(ExecError::LimitExceeded(reason));
                                    return;
                                } else {
                                    std::thread::sleep(Duration::from_micros(100));
                                }
                            }
                            Err(crossbeam_channel::TrySendError::Disconnected(_)) => return,
                        }
                    }
                    continue;
                }
                // routing exhausted: drain stragglers until everything landed
                if completed.load(Ordering::Acquire) >= n {
                    return;
                }
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(item) => {
                        if !do_expand(item) {
                            return;
                        }
                    }
                    Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                        if let Err(reason) = ctx.check() {
                            fail(ExecError::LimitExceeded(reason));
                            return;
                        }
                    }
                    Err(crossbeam_channel::RecvTimeoutError::Disconnected) => return,
                }
            }
        };
        // one cooperative worker per available thread (capped at the window
        // count); the submitting thread is always one of them
        let crew = (pool.workers() + 1).min(n);
        pool.run_phase(crew, &worker)
            .map_err(|payload| context::map_panic(payload, op))?;
        drop(tx);
        drop(rx);
        if let Some(e) = error.lock().take() {
            return Err(e);
        }
        let per_mi = results
            .into_iter()
            .map(|r| r.expect("pipeline expanded every window"))
            .collect();
        Ok((per_mi, peak_bytes.load(Ordering::Relaxed)))
    }

    /// Deterministic per-window merge after a partition-split expansion:
    /// original flat input-row order (= oracle (morsel, row) order), with
    /// each row's outputs taken (in kernel emission order) from the
    /// sub-batch of the partition owning the row. `sels[si]` is the kernel's
    /// selection vector over sub-batch `si`; `push(b, si, j)` appends output
    /// `j` of that kernel. Only `live` slots are copied.
    fn merge_window(
        &self,
        split: &WindowSplit<'_>,
        sels: &[&[u32]],
        live: &[bool],
        push: impl Fn(&mut BatchBuilder, usize, usize),
    ) -> Vec<RecordBatch> {
        let p = self.graph.partitions();
        let mut sub_of_part = vec![usize::MAX; p];
        for (si, (part, _, _)) in split.subs.iter().enumerate() {
            sub_of_part[*part] = si;
        }
        let mut builder = BatchBuilder::with_live(live, self.batch_size);
        let mut cursors = vec![0usize; split.subs.len()];
        for row in 0..split.rows {
            let part = split.owner[row];
            if part < 0 {
                continue;
            }
            let si = sub_of_part[part as usize];
            let origs = &split.subs[si].2;
            let sel = sels[si];
            let cur = &mut cursors[si];
            while *cur < sel.len() && origs[sel[*cur] as usize] as usize == row {
                push(&mut builder, si, *cur);
                *cur += 1;
            }
        }
        builder.finish()
    }

    /// The live slots of an output with tags `tags`: what its readers name,
    /// plus — when expands exchange rows — the slot the rows are homed by,
    /// which routing and gather accounting read.
    fn out_mask(&self, live: &Live, tags: &TagMap, home: Home) -> Vec<bool> {
        let mut mask = pipeline::mask(live, tags);
        if let (Home::Tag(slot), true) = (home, self.graph.partitions() > 1) {
            mask[slot] = true;
        }
        mask
    }

    /// Materialize the output of `unit.out`: run its pipeline into its sink,
    /// or apply a transform to its materialized inputs.
    #[allow(clippy::too_many_arguments)]
    fn run_unit(
        &self,
        pool: &WorkerPool,
        ctx: &QueryContext,
        plan: &PhysicalPlan,
        unit: &Unit,
        live: &[Live],
        outputs: &[Option<NodeOut>],
        stats: &mut ExecStats,
    ) -> Result<NodeOut, ExecError> {
        let op = plan.op(unit.out);
        let live_out = &live[unit.out.0];
        let exchange = self.graph.partitions() > 1;
        let mut out = if pipeline::role(op, live_out, exchange) != Role::Transform {
            self.run_pipeline(pool, ctx, plan, unit, live, outputs, stats)?
        } else {
            let inputs: Vec<&NodeOut> = plan
                .inputs(unit.out)
                .iter()
                .map(|i| {
                    outputs[i.0]
                        .as_ref()
                        .expect("materialized before its reader")
                })
                .collect();
            let arity = |expected: usize, ok: bool| match ok {
                true => Ok(()),
                false => Err(ExecError::ArityMismatch {
                    op: op_name(op),
                    expected,
                    actual: inputs.len(),
                }),
            };
            let (batches, tags, home) = match op {
                PhysicalOp::HashJoin { keys, kind } => {
                    arity(2, inputs.len() == 2)?;
                    let (l, r) = (inputs[0], inputs[1]);
                    self.charge_gather(stats, &l.batches, l.home);
                    self.charge_gather(stats, &r.batches, r.home);
                    let (batches, tags, _) = relational::hash_join_batches(
                        self.graph,
                        &l.batches,
                        &l.tags,
                        &r.batches,
                        &r.tags,
                        keys,
                        *kind,
                        None,
                        self.batch_size,
                    )?;
                    (batches, tags, Home::Coordinator)
                }
                PhysicalOp::Union => {
                    arity(2, !inputs.is_empty())?;
                    for n in &inputs {
                        self.charge_gather(stats, &n.batches, n.home);
                    }
                    let pairs: Vec<(&[RecordBatch], &TagMap)> = inputs
                        .iter()
                        .map(|n| (n.batches.as_slice(), &n.tags))
                        .collect();
                    let (batches, tags) = relational::union_batches(&pairs);
                    (batches, tags, Home::Coordinator)
                }
                PhysicalOp::PropertyFetch { tag, props } => {
                    arity(1, inputs.len() == 1)?;
                    let mut tags = inputs[0].tags.clone();
                    let batches = relational::property_fetch_batches(
                        self.graph,
                        &inputs[0].batches,
                        &mut tags,
                        tag,
                        props,
                    )?;
                    (batches, tags, inputs[0].home)
                }
                expand => {
                    arity(1, inputs.len() == 1)?;
                    let mut tags = inputs[0].tags.clone();
                    let mut home = inputs[0].home;
                    let stage = Stage::compile(self.graph, expand, &mut tags, &mut home)?;
                    let mask = self.out_mask(live_out, &tags, home);
                    let name = op_name(expand);
                    let batches =
                        self.run_expand(pool, ctx, name, inputs[0], &stage, &mask, stats)?;
                    (batches, tags, home)
                }
            };
            NodeOut {
                live: self.out_mask(live_out, &tags, home),
                batches,
                tags,
                home,
                bytes: 0,
            }
        };
        // a streaming `out` counted its rows as the last stage of its chain
        if !unit.collects() {
            let produced = batch::total_rows(&out.batches) as u64;
            stats.intermediate_records += produced;
            stats.peak_records = stats.peak_records.max(produced);
            ctx.add_records(produced)
                .map_err(ExecError::LimitExceeded)?;
        }
        out.bytes = out.batches.iter().map(RecordBatch::approx_bytes).sum();
        ctx.charge_bytes(out.bytes)
            .map_err(ExecError::LimitExceeded)?;
        Ok(out)
    }

    /// Compile the streaming chain of `unit` and its sink, and let a crew of
    /// workers carry the source morsels through them.
    #[allow(clippy::too_many_arguments)]
    fn run_pipeline(
        &self,
        pool: &WorkerPool,
        ctx: &QueryContext,
        plan: &PhysicalPlan,
        unit: &Unit,
        live: &[Live],
        outputs: &[Option<NodeOut>],
        stats: &mut ExecStats,
    ) -> Result<NodeOut, ExecError> {
        let graph = self.graph;
        let one_input = |id: PhysicalNodeId| match plan.inputs(id).len() {
            1 => Ok(()),
            actual => Err(ExecError::ArityMismatch {
                op: op_name(plan.op(id)),
                expected: 1,
                actual,
            }),
        };
        let input = unit.input.map(|i| {
            outputs[i.0]
                .as_ref()
                .expect("materialized before its reader")
        });
        let (mut tags, mut home) = match input {
            Some(o) => (o.tags.clone(), o.home),
            None => (TagMap::new(), Home::Coordinator),
        };
        // the source morsels: the input's batches, or chunks of the scanned
        // labels' vertex lists in (label, chunk) order — the oracle's order
        let mut scan: Vec<&[VertexId]> = Vec::new();
        let mut stages = Vec::with_capacity(unit.chain.len());
        for &id in &unit.chain {
            let stage = match plan.op(id) {
                PhysicalOp::Scan {
                    alias,
                    constraint,
                    predicate,
                } => {
                    home = Home::Tag(tags.slot_or_insert(alias));
                    let all: Vec<_> = graph.schema().vertex_label_ids().collect();
                    for l in constraint.materialize(&all) {
                        scan.extend(graph.vertices_with_label(l).chunks(self.batch_size));
                    }
                    match predicate {
                        Some(p) => Stage::filter(graph, p, &tags),
                        None => Stage::Pass,
                    }
                }
                op => {
                    one_input(id)?;
                    Stage::compile(graph, op, &mut tags, &mut home)?
                }
            };
            stages.push((stage, self.out_mask(&live[id.0], &tags, home)));
        }
        let sink = if unit.collects() {
            Sink::collect(None)
        } else {
            one_input(unit.out)?;
            Sink::compile(graph, plan.op(unit.out), &tags)
        };
        let pipe = Pipeline {
            engine: self,
            ctx,
            stages: &stages,
            sink: &sink,
            home,
        };
        let morsels = input.map_or(scan.len(), |o| o.batches.len());
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let total = Mutex::new(Tally::default());
        // one worker per available thread (capped at the morsel count); the
        // submitting thread is always one of them
        let crew = (pool.workers() + 1).min(morsels);
        pool.run_phase(crew, &|_| {
            let _guard = AbortOnUnwind(&abort);
            let mut worker = Worker::new(&pipe);
            while !abort.load(Ordering::Relaxed) {
                let m = next.fetch_add(1, Ordering::Relaxed);
                if m >= morsels {
                    break;
                }
                worker.run(
                    m,
                    match input {
                        Some(o) => Cow::Borrowed(&o.batches[m]),
                        None => Cow::Owned(pipeline::scan_batch(scan[m])),
                    },
                );
            }
            total.lock().add(&worker.tally);
        })
        .map_err(|payload| context::map_panic(payload, op_name(plan.op(unit.out))))?;
        let tally = total.into_inner();
        for rows in tally.rows {
            stats.intermediate_records += rows;
            stats.peak_records = stats.peak_records.max(rows);
        }
        stats.comm_records += tally.comm.shipped;
        stats.locality_hits += tally.comm.local_hits;
        stats.comm_bytes += tally.comm_bytes;
        let gathered = sink.gathers();
        if gathered {
            failpoint::check(context::FP_MERGE).map_err(context::injected)?;
        }
        let (batches, out_tags, state_bytes) = sink.finish(graph, tags.len(), self.batch_size);
        ctx.release_bytes(state_bytes);
        let tags = out_tags.unwrap_or(tags);
        if gathered {
            home = Home::Coordinator;
        }
        Ok(NodeOut {
            live: self.out_mask(&live[unit.out.0], &tags, home),
            batches,
            tags,
            home,
            bytes: 0,
        })
    }

    /// An expand as a partition exchange over a materialized input: route
    /// each window of morsels to the partitions owning the routing vertices,
    /// run the kernel per partition, merge the oracle row order back.
    #[allow(clippy::too_many_arguments)]
    fn run_expand(
        &self,
        pool: &WorkerPool,
        ctx: &QueryContext,
        op: &'static str,
        input: &NodeOut,
        stage: &Stage<'_>,
        live: &[bool],
        stats: &mut ExecStats,
    ) -> Result<Vec<RecordBatch>, ExecError> {
        let pm = self.graph.partition_map();
        match stage {
            Stage::Expand(kernel) => {
                let (route_slot, route_dir) = kernel.route();
                self.exchange_expand(
                    pool,
                    ctx,
                    op,
                    input,
                    route_slot,
                    route_dir,
                    stats,
                    |split| {
                        let mut kouts: Vec<KernelScratch> = Vec::with_capacity(split.subs.len());
                        let mut comm = CommTally::default();
                        for (part, sub, _) in &split.subs {
                            context::worker_checkpoint(ctx);
                            let mut s = KernelScratch::default();
                            comm += kernel.run(self.graph, sub, self.pmap(), &mut s);
                            // an intersection's outputs are routed to the target
                            // vertex's partition — unless the target is a
                            // replicated hub, whose adjacency the local shard
                            // already holds
                            if matches!(kernel, ExpandKernel::Intersect(_)) {
                                for &d in s.dst.iter().filter(|d| pm.partition_of(**d) != *part) {
                                    if pm.is_hub(d) {
                                        comm.local_hits += 1;
                                    } else {
                                        comm.shipped += 1;
                                    }
                                }
                            }
                            kouts.push(s);
                        }
                        // fast path: every routed row of this window lives on one
                        // shard, so kernel emission order IS the oracle order —
                        // gather columns instead of copying row by row
                        let batches = if let ([(_, sub, _)], [s]) = (&split.subs[..], &kouts[..]) {
                            kernel.emit(sub, s, live, self.batch_size).collect()
                        } else {
                            let sels: Vec<&[u32]> =
                                kouts.iter().map(|s| s.sel.as_slice()).collect();
                            self.merge_window(split, &sels, live, |builder, si, j| {
                                let s = &kouts[si];
                                let mut overrides = [(usize::MAX, EntryRef::Null); 2];
                                if let Some(slot) = kernel.dst_slot() {
                                    overrides[0] = (slot, EntryRef::Vertex(s.dst[j]));
                                }
                                if let Some(slot) = kernel.edge_slot() {
                                    overrides[1] = (slot, EntryRef::Edge(s.edge[j]));
                                }
                                builder.push_row_from(
                                    &split.subs[si].1,
                                    s.sel[j] as usize,
                                    &overrides,
                                );
                            })
                        };
                        Expanded { batches, comm }
                    },
                )
            }
            Stage::Path(k) => {
                let (slot, dir) = (k.src_slot, k.direction);
                self.exchange_expand(pool, ctx, op, input, slot, dir, stats, |split| {
                    // per sub-batch: fully materialised output rows (one
                    // oversized batch) plus the producing sub-row per output
                    // row, which the merge orders them by
                    let mut comm = CommTally::default();
                    let mut kouts = Vec::with_capacity(split.subs.len());
                    for (_, sub, _) in &split.subs {
                        context::worker_checkpoint(ctx);
                        let (out, origins, crossed) =
                            k.run(self.graph, sub, self.pmap(), live, usize::MAX);
                        comm += crossed;
                        kouts.push((out, origins));
                    }
                    let sels: Vec<&[u32]> = kouts.iter().map(|k| k.1.as_slice()).collect();
                    let batches = self.merge_window(split, &sels, live, |builder, si, j| {
                        builder.push_row_from(&kouts[si].0[0], j, &[]);
                    });
                    Expanded { batches, comm }
                })
            }
            _ => unreachable!("{op} does not exchange"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use gopt_gir::types::TypeConstraint;
    use gopt_graph::generator::{random_graph, RandomGraphConfig};
    use gopt_graph::schema::fig6_schema;
    use gopt_graph::PropertyGraph;

    fn graph() -> PropertyGraph {
        random_graph(
            &fig6_schema(),
            &RandomGraphConfig {
                vertices_per_label: 12,
                edges_per_endpoint: 40,
                seed: 5,
            },
        )
    }

    fn chain_plan(g: &PropertyGraph) -> PhysicalPlan {
        let person = TypeConstraint::basic(g.schema().vertex_label("Person").unwrap());
        let knows = TypeConstraint::basic(g.schema().edge_label("Knows").unwrap());
        let mut plan = PhysicalPlan::new();
        plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person.clone(),
            predicate: None,
        });
        plan.push(PhysicalOp::EdgeExpand {
            src: "a".into(),
            edge_alias: Some("e".into()),
            edge_constraint: knows.clone(),
            direction: Direction::Out,
            dst_alias: "b".into(),
            dst_constraint: person.clone(),
            dst_predicate: None,
            edge_predicate: None,
        });
        plan.push(PhysicalOp::EdgeExpand {
            src: "b".into(),
            edge_alias: None,
            edge_constraint: knows,
            direction: Direction::Out,
            dst_alias: "c".into(),
            dst_constraint: person,
            dst_predicate: None,
            edge_predicate: None,
        });
        plan.push(PhysicalOp::Dedup { keys: vec![] });
        plan
    }

    #[test]
    fn parallel_rows_match_the_scalar_oracle_in_order() {
        let g = graph();
        let plan = chain_plan(&g);
        let oracle = Engine::new(&g, EngineConfig::default())
            .execute(&plan)
            .unwrap();
        for parts in [1usize, 2, 4] {
            let pg = PartitionedGraph::build(&g, parts);
            let mut comm_per_thread = Vec::new();
            for threads in [1usize, 2, 4] {
                for bs in [3usize, 1024] {
                    let res = ParallelEngine::new(&pg)
                        .with_threads(threads)
                        .with_batch_size(bs)
                        .execute(&plan)
                        .unwrap();
                    // exact row order, not just multiset
                    assert_eq!(res.rows(), oracle.rows(), "p={parts} t={threads} bs={bs}");
                    assert_eq!(
                        res.stats.intermediate_records,
                        oracle.stats.intermediate_records
                    );
                    assert_eq!(res.stats.peak_records, oracle.stats.peak_records);
                    if bs == 1024 {
                        comm_per_thread.push(res.stats.comm_records);
                    }
                }
            }
            assert!(
                comm_per_thread.windows(2).all(|w| w[0] == w[1]),
                "comm stable across threads: {comm_per_thread:?}"
            );
            if parts == 1 {
                assert_eq!(comm_per_thread[0], 0, "single partition ships nothing");
            } else {
                assert!(comm_per_thread[0] > 0, "p={parts} measured shuffles");
            }
        }
    }

    #[test]
    fn exchange_modes_and_capacities_agree_with_the_oracle() {
        let g = graph();
        let plan = chain_plan(&g);
        let oracle = Engine::new(&g, EngineConfig::default())
            .execute(&plan)
            .unwrap();
        for parts in [1usize, 4] {
            let pg = PartitionedGraph::build(&g, parts);
            let base = ParallelEngine::new(&pg)
                .with_exchange_mode(ExchangeMode::Barrier)
                .execute(&plan)
                .unwrap();
            let mut comm_bytes_seen = Vec::new();
            for mode in [ExchangeMode::Pipelined, ExchangeMode::Barrier] {
                for cap in [1usize, 2, 8] {
                    for threads in [1usize, 4] {
                        let res = ParallelEngine::new(&pg)
                            .with_threads(threads)
                            .with_batch_size(3)
                            .with_exchange_mode(mode)
                            .with_exchange_capacity(cap)
                            .execute(&plan)
                            .unwrap();
                        assert_eq!(
                            res.rows(),
                            oracle.rows(),
                            "p={parts} {mode:?} cap={cap} t={threads}"
                        );
                        assert_eq!(res.stats.comm_records, base.stats.comm_records);
                        comm_bytes_seen.push(res.stats.comm_bytes);
                    }
                }
            }
            // comm_bytes is a pure function of data + partitioner: identical
            // across modes, capacities and thread counts; zero at p=1
            assert!(
                comm_bytes_seen.windows(2).all(|w| w[0] == w[1]),
                "p={parts} comm_bytes invariant: {comm_bytes_seen:?}"
            );
            if parts == 1 {
                assert_eq!(comm_bytes_seen[0], 0, "one partition ships no bytes");
            } else {
                assert!(comm_bytes_seen[0] > 0, "p={parts} measured shipped bytes");
            }
        }
    }

    #[test]
    fn precancelled_context_fails_cleanly_at_capacity_one() {
        // regression for the backpressure path: a context that is cancelled
        // before execution must surface Cancelled (not deadlock or return
        // partial rows) even with the tightest possible channel
        let g = graph();
        let plan = chain_plan(&g);
        let pg = PartitionedGraph::build(&g, 4);
        for threads in [1usize, 4] {
            let engine = ParallelEngine::new(&pg)
                .with_threads(threads)
                .with_batch_size(3)
                .with_exchange_capacity(1);
            let ctx = QueryContext::new();
            ctx.cancel();
            match engine.execute_with_ctx(&plan, &ctx) {
                Err(e) => assert_eq!(
                    e,
                    ExecError::LimitExceeded(crate::error::LimitReason::Cancelled),
                    "t={threads}"
                ),
                Ok(_) => panic!("t={threads}: pre-cancelled query must not return rows"),
            }
        }
    }

    #[test]
    fn record_limit_aborts_like_the_oracle() {
        let g = graph();
        let plan = chain_plan(&g);
        let pg = PartitionedGraph::build(&g, 2);
        let err = ParallelEngine::new(&pg)
            .with_threads(2)
            .with_record_limit(Some(3))
            .execute(&plan);
        match err {
            Err(e) => assert_eq!(e, ExecError::record_limit(3)),
            Ok(_) => panic!("expected the record limit to abort execution"),
        }
        assert!(matches!(
            ParallelEngine::new(&pg).execute(&PhysicalPlan::new()),
            Err(ExecError::EmptyPlan)
        ));
    }

    #[test]
    fn pool_task_panic_propagates_instead_of_deadlocking() {
        let pool = WorkerPool::new(2);
        let result = par_map(&pool, 16, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
        assert!(result.is_err(), "the task panic reaches the caller");
        // the pool survives and runs subsequent phases normally
        let ok = par_map(&pool, 8, |i| i + 1).unwrap();
        assert_eq!(ok, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        for n in [0usize, 1, 7, 257] {
            let got = par_map(&pool, n, |i| i * 2).unwrap();
            assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
        }
        // several phases reuse the same workers
        let sum: usize = par_map(&pool, 100, |i| i).unwrap().into_iter().sum();
        assert_eq!(sum, 4950);
    }

    #[test]
    fn concurrent_phases_from_different_threads_interleave_correctly() {
        let pool = Arc::new(WorkerPool::new(2));
        // a barrier both phases must reach proves they are in flight at once;
        // each submitting thread can always run its own tasks, so the
        // rendezvous cannot deadlock regardless of worker scheduling
        let gate = Arc::new(std::sync::Barrier::new(2));
        let mut joins = Vec::new();
        for caller in 0..2usize {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            joins.push(std::thread::spawn(move || {
                par_map(&pool, 64, |i| {
                    if i == 0 {
                        gate.wait();
                    }
                    i * 10 + caller
                })
                .unwrap()
            }));
        }
        for (caller, j) in joins.into_iter().enumerate() {
            let got = j.join().unwrap();
            assert_eq!(got, (0..64).map(|i| i * 10 + caller).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panic_in_one_phase_never_poisons_a_concurrent_phase() {
        let pool = Arc::new(WorkerPool::new(2));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let bad = {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                par_map(&pool, 32, |i| {
                    if i == 0 {
                        gate.wait();
                    }
                    if i == 5 {
                        panic!("boom");
                    }
                    i
                })
            })
        };
        let good = {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                par_map(&pool, 200, |i| {
                    if i == 0 {
                        gate.wait();
                    }
                    i + 1
                })
            })
        };
        assert!(bad.join().unwrap().is_err(), "the panic reaches its caller");
        let ok = good.join().unwrap().unwrap();
        assert_eq!(ok, (1..=200).collect::<Vec<_>>(), "bystander unharmed");
        // the pool survives both
        assert_eq!(par_map(&pool, 4, |i| i).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_queries_on_a_shared_pool_keep_stats_isolated() {
        // regression: per-query ExecStats (intermediate/peak/comm counters)
        // must not cross-contaminate when N queries share one MorselPool
        let g = graph();
        let pg = PartitionedGraph::build(&g, 2);
        let chain = chain_plan(&g);
        let mut short = PhysicalPlan::new();
        short.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: TypeConstraint::basic(g.schema().vertex_label("Person").unwrap()),
            predicate: None,
        });
        let pool = MorselPool::new(3);
        let engine = ParallelEngine::new(&pg).with_batch_size(4).with_pool(&pool);
        let solo_chain = engine.execute(&chain).unwrap();
        let solo_short = engine.execute(&short).unwrap();
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for t in 0..4usize {
                let engine = &engine;
                let (plan, solo) = if t % 2 == 0 {
                    (&chain, &solo_chain)
                } else {
                    (&short, &solo_short)
                };
                joins.push(s.spawn(move || {
                    for _ in 0..8 {
                        let res = engine.execute(plan).unwrap();
                        assert_eq!(res.rows(), solo.rows());
                        assert_eq!(
                            res.stats.intermediate_records,
                            solo.stats.intermediate_records
                        );
                        assert_eq!(res.stats.peak_records, solo.stats.peak_records);
                        assert_eq!(res.stats.comm_records, solo.stats.comm_records);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        });
    }
}
