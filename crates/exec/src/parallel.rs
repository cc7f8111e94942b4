//! Morsel-driven execution over any graph storage.
//!
//! [`ParallelEngine`] interprets a [`PhysicalPlan`] against a [`GraphView`] —
//! the monolithic [`PropertyGraph`] or the sharded [`PartitionedGraph`] — with
//! a fixed pool of worker threads. It is the one production interpreter: both
//! backends run it. The unit of scheduling is the *morsel*: one
//! [`RecordBatch`] of at most `batch_size` rows.
//!
//! # Execution model
//!
//! The plan is cut into *pipelines* at its breakers and a worker carries one
//! source morsel through a pipeline's whole chain of streaming stages into
//! its sink, gathering only the tag slots some reader still names — see
//! the `pipeline` and `sink` modules. Every materialized output is an
//! **ordered** sequence of batches whose concatenated rows are bit-for-bit
//! the rows the scalar [`Engine`] oracle would produce, in the same order:
//! sinks fold what the workers hand in strictly in morsel order, and an
//! output is dropped (its metered bytes returned to the [`QueryContext`]) as
//! soon as its last reader has run.
//!
//! One driver serves every storage layout and partition count, and expands
//! stream at every partition count: the kernels read adjacency and
//! properties through the graph's [`GraphView`], which on sharded storage
//! locates each vertex's owning [`GraphShard`] (or a hub's local replica)
//! itself, so no row is moved to be expanded and rows never leave the
//! oracle's order. `HashJoin`, `Union` and a live
//! `PropertyFetch` read their materialized inputs at the coordinator.
//!
//! # Measured communication
//!
//! `ExecStats::comm_records` counts the rows a multi-process deployment of
//! the same placement would ship between shards. Every charge is a pure
//! function of one batch and the graph's [`PartitionMap`]
//! ([`GraphView::placement`]) — the placement oracle the kernels share, for
//! the modulo [`HashPartitioner`] and the owner tables of a
//! [`GreedyPartitioner`] alike — never of thread count or scheduling:
//!
//! 1. **Route alignment**: a batch entering an expand is routed to the shard
//!    owning each row's routing vertex (the expansion source; an
//!    intersection's first step source). A row whose current *home* differs
//!    ships — unless the routing vertex is a replicated hub (see
//!    `gopt_graph::HubReplicas`) and the expand reads its `Out` adjacency,
//!    which every shard holds: that row is a locality hit instead.
//! 2. **Expand boundaries**: the kernels' [`CommTally`] — rows whose new
//!    target lives on another shard than their source (every crossing hop of
//!    a `PathExpand`; intersection rows whose step sources span shards).
//! 3. **Intersection targets**: intersection outputs whose target is off the
//!    routing shard.
//! 4. **Gathers**: breaker sinks, joins, unions and a `Project` that drops
//!    the home tag collect rows at the coordinator (partition 0); every row
//!    not homed there ships.
//!
//! Crossings a hub replica serves accumulate into `ExecStats::locality_hits`
//! rather than `comm_records`. `ExecStats::comm_bytes` charges a shipped row
//! its batch's per-row share of [`RecordBatch::approx_bytes`] (integer
//! arithmetic, see `ship_bytes`); an expand boundary charges the share of
//! the expand's output. Storage without a placement, or with one partition,
//! is charged nothing.
//!
//! The `exec.exchange` fail point fires once per batch entering an expand
//! stage with more than one partition — where a multi-process deployment
//! would route it.
//!
//! [`Engine`]: crate::engine::Engine
//! [`PropertyGraph`]: gopt_graph::PropertyGraph
//! [`PartitionedGraph`]: gopt_graph::PartitionedGraph
//! [`GraphShard`]: gopt_graph::GraphShard
//! [`HashPartitioner`]: gopt_graph::HashPartitioner
//! [`GreedyPartitioner`]: gopt_graph::GreedyPartitioner
//! [`PartitionMap`]: gopt_graph::PartitionMap

use crate::batch::{self, RecordBatch, DEFAULT_BATCH_SIZE};
use crate::context::{self, QueryContext};
use crate::engine::{op_name, ExecResult, ExecStats};
use crate::error::ExecError;
use crate::expand::CommTally;
use crate::pipeline::{self, Live, Pipeline, Role, Stage, Tally, Unit, Worker};
use crate::record::TagMap;
use crate::relational;
use crate::sink::Sink;
use gopt_gir::pattern::Direction;
use gopt_gir::physical::{PhysicalNodeId, PhysicalOp, PhysicalPlan};
use gopt_graph::{GraphView, PartitionMap, VertexId};
use parking_lot::{Condvar, Mutex};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Bytes attributed to shipping `moved` of `rows` rows out of a payload of
/// `bytes` total: the payload scaled by the moved fraction. Integer
/// arithmetic (u128 intermediate) so every thread count computes the
/// identical value. `moved` may exceed `rows` (PathExpand counts every
/// partition-crossing hop); the charge scales past the payload accordingly,
/// matching the traversal model.
pub(crate) fn ship_bytes(bytes: u64, rows: u64, moved: u64) -> u64 {
    if rows == 0 || moved == 0 {
        return 0;
    }
    ((bytes as u128 * moved as u128) / rows as u128) as u64
}

/// The partition a row currently sits on under `pm`.
#[inline]
fn row_home(pm: &PartitionMap, batch: &RecordBatch, row: usize, home: Home) -> usize {
    match home {
        Home::Coordinator => 0,
        Home::Tag(slot) => batch
            .entry(slot, row)
            .as_vertex()
            .map(|v| pm.partition_of(v))
            .unwrap_or(0),
    }
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

/// One materialized output: ordered batches, the tag map, the rows' current
/// home and the bytes metered for it.
struct NodeOut {
    batches: Vec<RecordBatch>,
    tags: TagMap,
    home: Home,
    bytes: u64,
}

/// Set when a crew member unwinds, so the others stop claiming morsels.
struct AbortOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The morsel-driven interpreter over any [`GraphView`].
///
/// Produces exactly the rows (and row order) of the scalar
/// [`crate::engine::Engine`], the behavioural oracle. Over sharded storage it
/// reads adjacency and vertex properties from per-partition shards and
/// measures cross-shard row movement into [`ExecStats::comm_records`].
pub struct ParallelEngine<'g, G> {
    graph: &'g G,
    /// The graph's placement when it has more than one partition: what
    /// routes, expand boundaries and gathers are charged against. `None`:
    /// nothing crosses a partition, so nothing is charged.
    pmap: Option<&'g PartitionMap>,
    record_limit: Option<u64>,
    threads: usize,
    batch_size: usize,
    /// Shared pool injected via [`with_pool`](Self::with_pool); when absent an
    /// owned pool is spawned lazily on the first execute and reused. Either
    /// way the lock is held only to fetch the handle — concurrent
    /// `execute` calls interleave their morsels on the pool instead of
    /// serializing, and every call keeps its own `ExecStats`.
    shared: Option<MorselPool>,
    owned: Mutex<Option<Arc<WorkerPool>>>,
}

impl<'g, G: GraphView> ParallelEngine<'g, G> {
    /// Create an engine over `graph`, charging communication against its
    /// [`placement`](GraphView::placement), with one thread and the default
    /// morsel size.
    pub fn new(graph: &'g G) -> Self {
        ParallelEngine {
            graph,
            pmap: graph.placement().filter(|pm| pm.partitions() > 1),
            record_limit: None,
            threads: 1,
            batch_size: DEFAULT_BATCH_SIZE,
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

    /// The graph being queried.
    pub fn graph(&self) -> &'g G {
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
        let mut stats = ExecStats::default();
        let live = pipeline::liveness(plan);
        let units = pipeline::cut(plan, &live);
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
            // action (operator or merge points on the driving thread) to
            // this query, like a worker panic.
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

    /// The placement the expansion kernels charge boundary crossings
    /// against.
    #[inline]
    pub(crate) fn pmap(&self) -> Option<&'g PartitionMap> {
        self.pmap
    }

    /// Measured (rows, bytes) shipped when gathering a node's output at the
    /// coordinator (pipeline breakers, joins, unions). Bytes are each moved
    /// row's share of its batch's `approx_bytes`.
    pub(crate) fn gather_comm(&self, batches: &[RecordBatch], home: Home) -> (u64, u64) {
        let Some(pm) = self.pmap.filter(|_| home != Home::Coordinator) else {
            return (0, 0);
        };
        let mut records = 0u64;
        let mut bytes = 0u64;
        for b in batches {
            let moved = (0..b.rows())
                .filter(|&r| row_home(pm, b, r, home) != 0)
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

    /// `batch` enters an expand that reads the `dir` adjacency of the vertex
    /// at `slot`, from rows homed at `home` — where a multi-process
    /// deployment would route it to the shards owning those vertices. Fires
    /// `exec.exchange` and returns what that route ships: the rows not
    /// already on the owning shard (and their byte share), except that a
    /// replicated hub read in the `Out` direction serves its row locally, as
    /// a locality hit. `None` without a placement, where nothing is routed.
    pub(crate) fn route(
        &self,
        batch: &RecordBatch,
        (slot, dir): (usize, Direction),
        home: Home,
    ) -> Option<(CommTally, u64)> {
        let pm = self.pmap?;
        context::task_failpoint(context::FP_EXCHANGE);
        let mut comm = CommTally::default();
        // rows homed by the routing vertex already sit on its owner
        if home != Home::Tag(slot) {
            for row in 0..batch.rows() {
                let Some(v) = batch.entry(slot, row).as_vertex() else {
                    continue;
                };
                if row_home(pm, batch, row, home) == pm.partition_of(v) {
                    continue;
                }
                if dir == Direction::Out && pm.is_hub(v) {
                    comm.local_hits += 1;
                } else {
                    comm.shipped += 1;
                }
            }
        }
        let bytes = ship_bytes(batch.approx_bytes(), batch.rows() as u64, comm.shipped);
        Some((comm, bytes))
    }

    /// An intersection's outputs (input row `sel[j]`, target `dst[j]`) whose
    /// target lives off the shard owning the routing vertex at `slot`: each
    /// ships there, unless the target is a replicated hub whose adjacency
    /// the routing shard already holds.
    pub(crate) fn target_comm(
        &self,
        batch: &RecordBatch,
        slot: usize,
        sel: &[u32],
        dst: &[VertexId],
    ) -> CommTally {
        let mut comm = CommTally::default();
        let Some(pm) = self.pmap else {
            return comm;
        };
        for (&row, &d) in sel.iter().zip(dst) {
            let Some(src) = batch.entry(slot, row as usize).as_vertex() else {
                continue;
            };
            if pm.partition_of(d) == pm.partition_of(src) {
                continue;
            }
            if pm.is_hub(d) {
                comm.local_hits += 1;
            } else {
                comm.shipped += 1;
            }
        }
        comm
    }

    /// The live slots of an output with tags `tags`: what its readers name,
    /// plus — under a placement — the slot the rows are homed by, which
    /// route and gather accounting read.
    fn out_mask(&self, live: &Live, tags: &TagMap, home: Home) -> Vec<bool> {
        let mut mask = pipeline::mask(live, tags);
        if let (Home::Tag(slot), Some(_)) = (home, self.pmap) {
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
        let mut out = if pipeline::role(op, live_out) != Role::Transform {
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
                    let (batches, tags) = relational::hash_join_batches(
                        &l.batches,
                        &l.tags,
                        &r.batches,
                        &r.tags,
                        keys,
                        *kind,
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
                other => unreachable!("{} is not a transform", other.name()),
            };
            NodeOut {
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
            batches,
            tags,
            home,
            bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use gopt_gir::types::TypeConstraint;
    use gopt_graph::generator::{random_graph, RandomGraphConfig};
    use gopt_graph::schema::fig6_schema;
    use gopt_graph::{PartitionedGraph, PropertyGraph};

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
                    assert_eq!(res.stats.exchange_peak_bytes, 0, "nothing is buffered");
                    if bs == 1024 {
                        let s = &res.stats;
                        comm_per_thread.push((s.comm_records, s.comm_bytes, s.locality_hits));
                    }
                }
            }
            // every communication counter is a pure function of data and
            // placement: identical across thread counts
            assert!(
                comm_per_thread.windows(2).all(|w| w[0] == w[1]),
                "comm stable across threads: {comm_per_thread:?}"
            );
            let (records, bytes, _) = comm_per_thread[0];
            if parts == 1 {
                assert_eq!((records, bytes), (0, 0), "single partition ships nothing");
            } else {
                assert!(records > 0 && bytes > 0, "p={parts} measured shuffles");
            }
        }
    }

    #[test]
    fn precancelled_context_fails_cleanly() {
        // a context cancelled before execution must surface Cancelled (not
        // partial rows) at every thread count on a partitioned graph
        let g = graph();
        let plan = chain_plan(&g);
        let pg = PartitionedGraph::build(&g, 4);
        for threads in [1usize, 4] {
            let engine = ParallelEngine::new(&pg)
                .with_threads(threads)
                .with_batch_size(3);
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

    /// Run `f` over `0..count` as one phase, returning its results in index
    /// order and how often each index ran.
    fn phase<F>(
        pool: &WorkerPool,
        count: usize,
        f: F,
    ) -> Result<(Vec<usize>, Vec<usize>), Box<dyn std::any::Any + Send>>
    where
        F: Fn(usize) -> usize + Sync,
    {
        let slots: Vec<Mutex<(usize, usize)>> = (0..count).map(|_| Mutex::new((0, 0))).collect();
        pool.run_phase(count, &|i| {
            let v = f(i);
            let mut slot = slots[i].lock();
            *slot = (v, slot.1 + 1);
        })?;
        Ok(slots.into_iter().map(Mutex::into_inner).unzip())
    }

    #[test]
    fn pool_task_panic_propagates_instead_of_deadlocking() {
        let pool = WorkerPool::new(2);
        let result = phase(&pool, 16, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
        assert!(result.is_err(), "the task panic reaches the caller");
        // the pool survives and runs subsequent phases normally
        let (ok, _) = phase(&pool, 8, |i| i + 1).unwrap();
        assert_eq!(ok, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        for workers in [0usize, 3] {
            let pool = WorkerPool::new(workers);
            for n in [0usize, 1, 7, 257] {
                let (got, runs) = phase(&pool, n, |i| i * 2).unwrap();
                assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>());
                assert!(runs.iter().all(|&r| r == 1), "w={workers} n={n}: {runs:?}");
            }
            // several phases reuse the same workers
            let (got, _) = phase(&pool, 100, |i| i).unwrap();
            assert_eq!(got.into_iter().sum::<usize>(), 4950);
        }
        // zero workers: every task runs inline on the submitting thread
        let caller = std::thread::current().id();
        let pool = WorkerPool::new(0);
        let inline = AtomicUsize::new(0);
        pool.run_phase(64, &|_| {
            if std::thread::current().id() == caller {
                inline.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
        assert_eq!(inline.into_inner(), 64);
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
                phase(&pool, 64, |i| {
                    if i == 0 {
                        gate.wait();
                    }
                    i * 10 + caller
                })
                .unwrap()
                .0
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
                phase(&pool, 32, |i| {
                    if i == 0 {
                        gate.wait();
                    }
                    if i == 5 {
                        panic!("boom");
                    }
                    i
                })
                .is_err()
            })
        };
        let good = {
            let pool = Arc::clone(&pool);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                phase(&pool, 200, |i| {
                    if i == 0 {
                        gate.wait();
                    }
                    i + 1
                })
                .map(|(got, _)| got)
                .ok()
            })
        };
        assert!(bad.join().unwrap(), "the panic reaches its caller");
        let ok = good.join().unwrap().expect("bystander phase succeeds");
        assert_eq!(ok, (1..=200).collect::<Vec<_>>(), "bystander unharmed");
        // the pool survives both
        assert_eq!(phase(&pool, 4, |i| i).unwrap().0, vec![0, 1, 2, 3]);
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
