//! Execution backends.
//!
//! GOpt is backend-agnostic: the optimizer emits a physical plan and a backend runs it.
//! The paper integrates with Neo4j (single-machine, interpreted) and with GraphScope
//! (distributed dataflow over Gaia). The two backends here model the properties of those
//! systems that matter for plan quality:
//!
//! * [`SingleMachineBackend`] — the monolithic graph, one thread, no communication
//!   cost; the natural home for `ExpandInto`-style plans.
//! * [`PartitionedBackend`] — vertices are partitioned over `partitions` workers,
//!   each owning its shard of the CSR adjacency and vertex properties
//!   ([`gopt_graph::PartitionedGraph`]), with a configurable worker-thread count;
//!   `ExecStats::comm_records` is a *measured* count of rows crossing shards.
//!   The natural home for `ExpandIntersect` (worst-case-optimal) plans.
//!   Placement is pluggable: the default modulo hash partitioner, or the
//!   locality-aware Fennel-style [`gopt_graph::GreedyPartitioner`] via
//!   [`PartitionedBackend::with_partitioner`] (or the `GOPT_PARTITIONER`
//!   environment variable, which wins over the builder; an invalid value is
//!   a typed [`ExecError::Config`], never a silent fallback). Hub adjacency
//!   replication ([`PartitionedBackend::with_hub_replication`]) trades
//!   `ExecStats::replicated_bytes` of storage for `locality_hits` instead of
//!   shipped rows.
//!
//! Both run the same interpreter — the morsel-driven [`ParallelEngine`], over
//! whichever storage they hold — and accept any physical operator (e.g. the
//! single-machine backend can still run an `ExpandIntersect` plan). The difference
//! the optimizer must reason about is *cost*, which is exactly what the
//! `PhysicalSpec` registration in `gopt-core` captures.

use crate::context::QueryContext;
use crate::engine::ExecResult;
use crate::error::ExecError;
use crate::parallel::{MorselPool, ParallelEngine};
use gopt_gir::physical::PhysicalPlan;
use gopt_graph::{PartitionedGraph, PartitionerSpec, PropertyGraph};
use parking_lot::Mutex;
use std::sync::Arc;

/// A backend capable of executing GOpt physical plans.
pub trait Backend {
    /// Human-readable backend name.
    fn name(&self) -> &str;
    /// Execute a plan against a graph under a fresh [`QueryContext`] carrying
    /// only the backend's record limit.
    fn execute(&self, graph: &PropertyGraph, plan: &PhysicalPlan) -> Result<ExecResult, ExecError>;
    /// Execute a plan under a caller-supplied [`QueryContext`] (cancellation,
    /// deadline, memory budget, record limit). The context *replaces* the
    /// backend-level record limit: whatever bounds `ctx` carries are the ones
    /// enforced.
    fn execute_with_ctx(
        &self,
        graph: &PropertyGraph,
        plan: &PhysicalPlan,
        ctx: &QueryContext,
    ) -> Result<ExecResult, ExecError>;
}

/// A Neo4j-like single-machine backend: the morsel-driven [`ParallelEngine`]
/// over the monolithic graph, at one thread, with no placement to charge.
#[derive(Debug, Clone, Default)]
pub struct SingleMachineBackend {
    /// Optional intermediate-record limit (abort instead of running away).
    pub record_limit: Option<u64>,
}

impl SingleMachineBackend {
    /// Create a backend with no record limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a backend that aborts after producing `limit` intermediate records.
    pub fn with_record_limit(limit: u64) -> Self {
        SingleMachineBackend {
            record_limit: Some(limit),
        }
    }
}

impl Backend for SingleMachineBackend {
    fn name(&self) -> &str {
        "single-machine"
    }

    fn execute(&self, graph: &PropertyGraph, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        self.execute_with_ctx(
            graph,
            plan,
            &QueryContext::new().with_record_limit(self.record_limit),
        )
    }

    fn execute_with_ctx(
        &self,
        graph: &PropertyGraph,
        plan: &PhysicalPlan,
        ctx: &QueryContext,
    ) -> Result<ExecResult, ExecError> {
        ParallelEngine::new(graph).execute_with_ctx(plan, ctx)
    }
}

/// Identity of a sharded-graph cache entry: the source graph's build id
/// (unique per `GraphBuilder::finish`, shared only by bit-identical clones —
/// so a different graph at a recycled address can never collide) plus the
/// partition count, partitioner and hub-replication width the shards were
/// built for — a placement change must rebuild, never reuse.
type ShardCacheKey = (u64, usize, PartitionerSpec, usize);

/// The lazily built shard cache: source-graph identity → sharded form.
type ShardCache = Arc<Mutex<Option<(ShardCacheKey, Arc<PartitionedGraph>)>>>;

/// A GraphScope-like partitioned backend: owns the sharded graph and runs
/// plans on the morsel-driven [`ParallelEngine`].
///
/// The shards are built lazily on the first [`Backend::execute`] call and
/// cached; executing against a different graph rebuilds them. Results are
/// identical to the single-machine backend's for every plan; only the
/// communication counters differ — here they count rows that crossed shards
/// (stable across thread counts).
#[derive(Debug, Clone)]
pub struct PartitionedBackend {
    /// Number of partitions (workers owning a graph shard each).
    pub partitions: usize,
    /// Number of executor threads the morsel scheduler uses.
    pub threads: usize,
    /// Optional intermediate-record limit.
    pub record_limit: Option<u64>,
    /// Vertex placement strategy the shards are built with (the
    /// `GOPT_PARTITIONER` environment variable overrides this).
    pub partitioner: PartitionerSpec,
    /// Replicate the out-adjacency of this many highest-degree vertices into
    /// every shard (0 = no replication).
    pub replicate_hubs: usize,
    /// Lazily built sharded graph, keyed by the source graph's identity.
    cache: ShardCache,
    /// The shared morsel pool every execute runs on, spawned lazily
    /// for `threads`-way parallelism and reused across calls — so repeated
    /// queries skip thread spawn/teardown and *concurrent* queries multiplex
    /// one set of workers with round-robin fairness.
    pool: Arc<Mutex<Option<(usize, MorselPool)>>>,
    /// Externally injected pool (overrides the lazy one) for callers that
    /// share workers across several backends.
    injected: Option<MorselPool>,
}

impl PartitionedBackend {
    /// Create a backend with the given number of partitions. Zero partitions
    /// is a configuration error.
    pub fn new(partitions: usize) -> Result<Self, ExecError> {
        if partitions == 0 {
            return Err(ExecError::Config(
                "partitioned backend needs at least one partition".into(),
            ));
        }
        Ok(PartitionedBackend {
            partitions,
            threads: 1,
            record_limit: None,
            partitioner: PartitionerSpec::default(),
            replicate_hubs: 0,
            cache: Arc::new(Mutex::new(None)),
            pool: Arc::new(Mutex::new(None)),
            injected: None,
        })
    }

    /// Create a backend clamping `partitions` up to at least 1 — for bench
    /// harnesses that sweep partition counts and never mean zero.
    pub fn saturating(partitions: usize) -> Self {
        Self::new(partitions.max(1)).expect("at least one partition")
    }

    /// Set the number of executor threads (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set an intermediate-record limit.
    pub fn with_record_limit(mut self, limit: u64) -> Self {
        self.record_limit = Some(limit);
        self
    }

    /// Select the vertex placement strategy the shards are built with. The
    /// `GOPT_PARTITIONER` environment variable, when set, wins over this.
    pub fn with_partitioner(mut self, spec: PartitionerSpec) -> Self {
        self.partitioner = spec;
        self
    }

    /// Replicate the out-adjacency of the `k` highest-degree vertices into
    /// every shard, so expansions from those hubs are served locally instead
    /// of shipping rows (`ExecStats::locality_hits` counts the savings,
    /// `ExecStats::replicated_bytes` the storage spent).
    pub fn with_hub_replication(mut self, k: usize) -> Self {
        self.replicate_hubs = k;
        self
    }

    /// Run executes on an externally owned shared [`MorselPool`]
    /// instead of this backend's lazy one — for callers multiplexing several
    /// backends over one set of worker threads.
    pub fn with_pool(mut self, pool: &MorselPool) -> Self {
        self.injected = Some(pool.clone());
        self
    }

    /// The shared pool executes run on: the injected one if present,
    /// otherwise a pool sized for [`threads`](Self::threads)-way parallelism,
    /// spawned on first use and reused across (and shared by concurrent)
    /// execute calls.
    pub fn pool(&self) -> MorselPool {
        if let Some(p) = &self.injected {
            return p.clone();
        }
        let workers = self.threads.max(1) - 1;
        let mut slot = self.pool.lock();
        match slot.as_ref() {
            Some((w, p)) if *w == workers => p.clone(),
            _ => {
                let p = MorselPool::new(workers);
                *slot = Some((workers, p.clone()));
                p
            }
        }
    }

    /// Build (or rebuild) the shard cache for `graph` up front, so the first
    /// query does not pay the sharding cost — a server warm-up hook. Fails
    /// only on an invalid `GOPT_PARTITIONER` value.
    pub fn prepare(&self, graph: &PropertyGraph) -> Result<(), ExecError> {
        self.sharded(graph).map(|_| ())
    }

    /// Seed the shard cache with a pre-built partitioning — e.g. one loaded
    /// from a graph image — so the first query skips the shard build
    /// entirely. The partition count must match this backend's; a mismatched
    /// layout is rejected so execution can never run on the wrong sharding.
    pub fn install_sharded(&self, pg: Arc<PartitionedGraph>) -> Result<(), ExecError> {
        if pg.partitions() != self.partitions {
            return Err(ExecError::Config(format!(
                "pre-built partitioning has {} shards, backend expects {}",
                pg.partitions(),
                self.partitions
            )));
        }
        // Derive the placement facet of the key from the layout itself (a
        // greedy build that happens to coincide with modulo placement just
        // causes a harmless cache miss later).
        let spec = if pg.modulo_placed() {
            PartitionerSpec::Hash
        } else {
            PartitionerSpec::Greedy
        };
        let hubs = pg.replicas().map_or(0, |r| r.hubs().len());
        let key: ShardCacheKey = (pg.base_build_id(), self.partitions, spec, hubs);
        *self.cache.lock() = Some((key, pg));
        Ok(())
    }

    /// The placement strategy in effect: the `GOPT_PARTITIONER` environment
    /// variable if set (an invalid value is a typed config error), otherwise
    /// whatever [`with_partitioner`](Self::with_partitioner) selected.
    fn effective_partitioner(&self) -> Result<PartitionerSpec, ExecError> {
        match PartitionerSpec::from_env() {
            Ok(Some(spec)) => Ok(spec),
            Ok(None) => Ok(self.partitioner),
            Err(e) => Err(ExecError::Config(e)),
        }
    }

    /// The sharded form of `graph`, built on first use and cached.
    fn sharded(&self, graph: &PropertyGraph) -> Result<Arc<PartitionedGraph>, ExecError> {
        let spec = self.effective_partitioner()?;
        let key: ShardCacheKey = (graph.build_id(), self.partitions, spec, self.replicate_hubs);
        let mut cache = self.cache.lock();
        if let Some((k, pg)) = cache.as_ref() {
            if *k == key {
                return Ok(Arc::clone(pg));
            }
        }
        let pg = Arc::new(PartitionedGraph::build_with_opts(
            graph,
            spec.build(graph, self.partitions),
            self.replicate_hubs,
        ));
        *cache = Some((key, Arc::clone(&pg)));
        Ok(pg)
    }
}

impl Backend for PartitionedBackend {
    fn name(&self) -> &str {
        "partitioned"
    }

    fn execute(&self, graph: &PropertyGraph, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        self.execute_with_ctx(
            graph,
            plan,
            &QueryContext::new().with_record_limit(self.record_limit),
        )
    }

    fn execute_with_ctx(
        &self,
        graph: &PropertyGraph,
        plan: &PhysicalPlan,
        ctx: &QueryContext,
    ) -> Result<ExecResult, ExecError> {
        let sharded = self.sharded(graph)?;
        let mut result = ParallelEngine::new(&*sharded)
            .with_threads(self.threads)
            .with_pool(&self.pool())
            .execute_with_ctx(plan, ctx)?;
        // the storage price of the hub replicas these shards carry —
        // constant per deployment, reported per query
        result.stats.replicated_bytes = sharded.replicated_bytes();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_gir::pattern::Direction;
    use gopt_gir::physical::PhysicalOp;
    use gopt_gir::types::TypeConstraint;
    use gopt_graph::generator::{random_graph, RandomGraphConfig};
    use gopt_graph::schema::fig6_schema;

    fn simple_plan(g: &PropertyGraph) -> PhysicalPlan {
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
            edge_alias: None,
            edge_constraint: knows,
            direction: Direction::Out,
            dst_alias: "b".into(),
            dst_constraint: person,
            dst_predicate: None,
            edge_predicate: None,
        });
        plan
    }

    #[test]
    fn both_backends_agree_on_results() {
        let g = random_graph(&fig6_schema(), &RandomGraphConfig::default());
        let plan = simple_plan(&g);
        let single = SingleMachineBackend::new();
        let parted = PartitionedBackend::new(4).unwrap().with_threads(2);
        assert_eq!(single.name(), "single-machine");
        assert_eq!(parted.name(), "partitioned");
        let r1 = single.execute(&g, &plan).unwrap();
        let r2 = parted.execute(&g, &plan).unwrap();
        assert_eq!(r1.sorted_rows(), r2.sorted_rows());
        assert_eq!(r1.stats.comm_records, 0);
        assert!(r2.stats.comm_records > 0, "measured cross-shard rows");
        // repeated execution reuses the cached shards and stays deterministic
        let r4 = parted.execute(&g, &plan).unwrap();
        assert_eq!(r2.sorted_rows(), r4.sorted_rows());
        assert_eq!(r2.stats.comm_records, r4.stats.comm_records);
    }

    #[test]
    fn record_limits_are_honoured() {
        let g = random_graph(&fig6_schema(), &RandomGraphConfig::default());
        let plan = simple_plan(&g);
        let single = SingleMachineBackend::with_record_limit(1);
        assert!(single.execute(&g, &plan).is_err());
        let parted = PartitionedBackend::new(2).unwrap().with_record_limit(1);
        assert!(parted.execute(&g, &plan).is_err());
    }

    #[test]
    fn shard_cache_rebuilds_for_a_different_graph() {
        // two graphs with identical vertex/edge counts but different edges:
        // the cache must not serve the first graph's shards for the second
        let g1 = random_graph(
            &fig6_schema(),
            &RandomGraphConfig {
                seed: 1,
                ..RandomGraphConfig::default()
            },
        );
        let g2 = random_graph(
            &fig6_schema(),
            &RandomGraphConfig {
                seed: 2,
                ..RandomGraphConfig::default()
            },
        );
        let backend = PartitionedBackend::new(3).unwrap();
        let single = SingleMachineBackend::new();
        for g in [&g1, &g2, &g1] {
            let plan = simple_plan(g);
            assert_eq!(
                backend.execute(g, &plan).unwrap().sorted_rows(),
                single.execute(g, &plan).unwrap().sorted_rows()
            );
        }
    }

    #[test]
    fn concurrent_executes_share_one_pool_and_agree_with_solo_runs() {
        let g = random_graph(&fig6_schema(), &RandomGraphConfig::default());
        let plan = simple_plan(&g);
        let backend = PartitionedBackend::new(4).unwrap().with_threads(3);
        let solo = backend.execute(&g, &plan).unwrap();
        // the pool is spawned once and reused across calls
        assert_eq!(backend.pool().workers(), 2);
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..4)
                .map(|_| {
                    let (backend, g, plan) = (&backend, &g, &plan);
                    s.spawn(move || backend.execute(g, plan).unwrap())
                })
                .collect();
            for j in joins {
                let res = j.join().unwrap();
                assert_eq!(res.rows(), solo.rows());
                assert_eq!(res.stats.comm_records, solo.stats.comm_records);
            }
        });
        // an injected pool overrides the lazy one
        let ext = MorselPool::new(1);
        let with_ext = PartitionedBackend::new(2).unwrap().with_pool(&ext);
        assert_eq!(with_ext.pool().workers(), 1);
        assert_eq!(
            with_ext.execute(&g, &plan).unwrap().rows(),
            SingleMachineBackend::new()
                .execute(&g, &plan)
                .unwrap()
                .rows()
        );
    }

    #[test]
    fn greedy_placement_and_hub_replication_agree_with_single_machine() {
        let g = random_graph(&fig6_schema(), &RandomGraphConfig::default());
        let plan = simple_plan(&g);
        let oracle = SingleMachineBackend::new().execute(&g, &plan).unwrap();
        let hash = PartitionedBackend::new(4)
            .unwrap()
            .with_threads(2)
            .execute(&g, &plan)
            .unwrap();
        let greedy = PartitionedBackend::new(4)
            .unwrap()
            .with_threads(2)
            .with_partitioner(PartitionerSpec::Greedy)
            .with_hub_replication(8)
            .execute(&g, &plan)
            .unwrap();
        assert_eq!(oracle.sorted_rows(), hash.sorted_rows());
        assert_eq!(oracle.sorted_rows(), greedy.sorted_rows());
        // replication spends storage and serves some expansions locally
        assert!(greedy.stats.replicated_bytes > 0);
        assert_eq!(hash.stats.replicated_bytes, 0);
        // a placement change must never be served from the other's cache:
        // one backend flipping partitioners between calls rebuilds shards
        let flip = PartitionedBackend::new(4).unwrap();
        let r_hash = flip.execute(&g, &plan).unwrap();
        let flip = flip.with_partitioner(PartitionerSpec::Greedy);
        let r_greedy = flip.execute(&g, &plan).unwrap();
        assert_eq!(r_hash.sorted_rows(), r_greedy.sorted_rows());
    }

    #[test]
    fn zero_partitions_is_a_config_error() {
        assert!(matches!(
            PartitionedBackend::new(0),
            Err(ExecError::Config(_))
        ));
        // the saturating constructor clamps instead, for bench sweeps
        assert_eq!(PartitionedBackend::saturating(0).partitions, 1);
        assert_eq!(PartitionedBackend::saturating(3).partitions, 3);
    }
}
