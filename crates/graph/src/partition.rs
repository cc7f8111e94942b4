//! Partition-aware graph storage: per-partition CSR shards behind a façade.
//!
//! The paper's distributed backend (GraphScope/Gaia) hash-partitions vertices
//! over workers; each worker owns the adjacency and properties of its local
//! vertices and every record that crosses workers is communication. Before
//! this module the partitioned backend merely *simulated* that ownership on a
//! monolithic CSR. [`PartitionedGraph`] makes it real:
//!
//! ```text
//! PartitionedGraph
//! ├── pmap: PartitionMap                vertex → partition owner table
//! │     (+ hub bitset; placement chosen by a Partitioner at build time:
//! │      HashPartitioner v mod p, or the Fennel-style GreedyPartitioner)
//! ├── local_index: global vertex id → dense local id within its shard
//! ├── shards[p]: GraphShard             one per partition
//! │   ├── out_adj / in_adj: CsrAdjacency over LOCAL vertex ids
//! │   │     (compressed u32 neighbours + delta-encoded edge ids + offsets +
//! │   │      per-(vertex,label) segment index — storing GLOBAL
//! │   │      neighbour/edge ids)
//! │   └── props: per-(label, key) columns of the shard's local vertices
//! ├── replicas: Option<HubReplicas>     read-only out-adjacency overlay of
//! │     the top-k highest-degree vertices, logically copied into every
//! │     shard so expands sourced at a hub never cross partitions
//! └── base: global catalog              (schema, label columns, edge
//!       endpoints, edge properties, vertices-by-label index) with the
//!       monolithic adjacency and vertex-property columns stripped
//! ```
//!
//! Placement is **pluggable**: [`PartitionedGraph::build_with`] accepts any
//! [`Partitioner`]. Whatever the partitioner, the build materialises one
//! shared **owner table** (`Vec<u32>`, one entry per vertex) inside a
//! [`PartitionMap`]; every consumer — shard routing here, exchange routing
//! and communication accounting in the execution engines — looks ownership
//! up in that table and never assumes modulo arithmetic.
//!
//! The façade implements [`GraphView`], so operator code written against the
//! trait runs unchanged: `out_edges_with_label(v, l)` resolves the owning
//! shard (`partition_of(v)`), maps `v` to its local id (one array lookup) and
//! slices the shard's CSR — still O(1) and allocation-free, still sorted by
//! `(neighbor, edge)` in *global* ids, so every access-contract consumer
//! (binary-searching `ExpandInto`, gallop-merging `ExpandIntersect`) works on
//! shard segments exactly as on the monolithic layout.
//!
//! Edge ownership follows the usual out-edge-cut convention: an edge's
//! out-adjacency entry lives in the source vertex's shard and its in-adjacency
//! entry in the destination's shard, so expansion from a vertex only ever
//! touches the shard owning that vertex. Edge property columns remain in the
//! global catalog (edges are identified globally; only *vertex* state is
//! partitioned, as in the paper's vertex-cut-free deployment).

use crate::column::{ColumnRef, TypedColumn};
use crate::graph::{Adj, AdjSegment, CsrAdjacency, PropColumns, PropertyGraph};
use crate::ids::{EdgeId, LabelId, PropKeyId, VertexId};
use crate::schema::GraphSchema;
use crate::value::PropValue;
use crate::view::GraphView;

/// Assigns every vertex to one of `partitions()` workers.
pub trait Partitioner: Send + Sync + std::fmt::Debug {
    /// Number of partitions.
    fn partitions(&self) -> usize;

    /// The partition owning `v`. Must be `< partitions()` for every vertex.
    fn partition_of(&self, v: VertexId) -> usize;
}

/// The default partitioner: `v mod p`, matching the hash placement the
/// engines' communication model has always assumed.
#[derive(Debug, Clone, Copy)]
pub struct HashPartitioner {
    partitions: usize,
}

impl HashPartitioner {
    /// A modulo partitioner over `partitions` workers (at least 1).
    pub fn new(partitions: usize) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        HashPartitioner { partitions }
    }
}

impl Partitioner for HashPartitioner {
    fn partitions(&self) -> usize {
        self.partitions
    }

    #[inline]
    fn partition_of(&self, v: VertexId) -> usize {
        (v.0 as usize) % self.partitions
    }
}

/// Fennel-style streaming partitioner: vertices are placed one at a time (in
/// global-id order, the order they arrive from ingest) onto the partition
/// holding the **most already-placed neighbours**, subject to a hard balance
/// cap of `ceil(n/p)` plus ~5% slack. Ties break toward the least-loaded,
/// then lowest-numbered partition, so placement is deterministic. On skewed
/// graphs this keeps most edges internal to a shard, which the exchange
/// layer observes directly as fewer shipped rows (`ExecStats::comm_*`).
#[derive(Debug, Clone)]
pub struct GreedyPartitioner {
    partitions: usize,
    owners: std::sync::Arc<[u32]>,
}

impl GreedyPartitioner {
    /// Stream `graph`'s vertices into `partitions` shards greedily.
    pub fn build(graph: &PropertyGraph, partitions: usize) -> GreedyPartitioner {
        assert!(partitions >= 1, "need at least one partition");
        let n = graph.vertex_count();
        // balance cap: perfect share plus ~5% slack (and at least one spare
        // slot so tiny graphs are never wedged)
        let cap = n.div_ceil(partitions.max(1)) + n / (partitions.max(1) * 20) + 1;
        let mut owners = vec![u32::MAX; n];
        let mut load = vec![0usize; partitions];
        let mut score = vec![0usize; partitions];
        let mut touched: Vec<usize> = Vec::with_capacity(partitions);
        for v in graph.vertex_ids() {
            for adj in graph.out_edges(v).chain(graph.in_edges(v)) {
                let u = adj.neighbor.index();
                if u < n && owners[u] != u32::MAX {
                    let p = owners[u] as usize;
                    if score[p] == 0 {
                        touched.push(p);
                    }
                    score[p] += 1;
                }
            }
            let mut best = usize::MAX;
            for p in 0..partitions {
                if load[p] >= cap {
                    continue;
                }
                if best == usize::MAX
                    || score[p] > score[best]
                    || (score[p] == score[best] && load[p] < load[best])
                {
                    best = p;
                }
            }
            // the slack in `cap` guarantees some partition always has room
            debug_assert!(best != usize::MAX, "balance cap left no open partition");
            let best = if best == usize::MAX { 0 } else { best };
            owners[v.index()] = best as u32;
            load[best] += 1;
            for p in touched.drain(..) {
                score[p] = 0;
            }
        }
        GreedyPartitioner {
            partitions,
            owners: owners.into(),
        }
    }
}

impl Partitioner for GreedyPartitioner {
    fn partitions(&self) -> usize {
        self.partitions
    }

    #[inline]
    fn partition_of(&self, v: VertexId) -> usize {
        self.owners[v.index()] as usize
    }
}

/// Which [`Partitioner`] implementation to build a [`PartitionedGraph`] with
/// — the parsed form of the `GOPT_PARTITIONER` environment variable and the
/// `PartitionedBackend::with_partitioner` builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionerSpec {
    /// Modulo placement (`v mod p`) — the paper's hash partitioning.
    #[default]
    Hash,
    /// Fennel-style streaming placement ([`GreedyPartitioner`]).
    Greedy,
}

impl PartitionerSpec {
    /// Parse a spec name. Accepts `hash` and `greedy` (case-insensitive);
    /// anything else is an error naming the valid values.
    pub fn parse(s: &str) -> Result<PartitionerSpec, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hash" => Ok(PartitionerSpec::Hash),
            "greedy" => Ok(PartitionerSpec::Greedy),
            other => Err(format!(
                "unknown partitioner {other:?} (expected \"hash\" or \"greedy\")"
            )),
        }
    }

    /// Read `GOPT_PARTITIONER`. Unset or empty means "no override"
    /// (`Ok(None)`); an invalid value is a typed error for the caller to
    /// surface, never a silent fallback.
    pub fn from_env() -> Result<Option<PartitionerSpec>, String> {
        match std::env::var("GOPT_PARTITIONER") {
            Ok(v) if v.is_empty() => Ok(None),
            Ok(v) => Self::parse(&v)
                .map(Some)
                .map_err(|e| format!("GOPT_PARTITIONER: {e}")),
            Err(_) => Ok(None),
        }
    }

    /// Construct the partitioner this spec names for `graph`.
    pub fn build(self, graph: &PropertyGraph, partitions: usize) -> Box<dyn Partitioner> {
        match self {
            PartitionerSpec::Hash => Box::new(HashPartitioner::new(partitions)),
            PartitionerSpec::Greedy => Box::new(GreedyPartitioner::build(graph, partitions)),
        }
    }

    /// Stable lowercase name (inverse of [`PartitionerSpec::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            PartitionerSpec::Hash => "hash",
            PartitionerSpec::Greedy => "greedy",
        }
    }
}

/// The shared owner-lookup table: vertex → partition, plus the hub bitset.
///
/// This is the **only** placement oracle the execution layer consults — the
/// exchange routes rows and charges communication through `partition_of`
/// and `is_hub`, so any [`Partitioner`] (and any replica set) plugs in
/// without the engines knowing. A map without an owner table falls back to
/// modulo arithmetic.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    partitions: usize,
    owners: Option<std::sync::Arc<[u32]>>,
    /// Hub bitset over global vertex ids (empty when nothing is replicated).
    hub_bits: std::sync::Arc<[u64]>,
}

impl PartitionMap {
    /// A table-free modulo map (`v mod p`).
    pub fn modulo(partitions: usize) -> PartitionMap {
        PartitionMap {
            partitions: partitions.max(1),
            owners: None,
            hub_bits: std::sync::Arc::from([]),
        }
    }

    fn from_owners(partitions: usize, owners: std::sync::Arc<[u32]>) -> PartitionMap {
        PartitionMap {
            partitions: partitions.max(1),
            owners: Some(owners),
            hub_bits: std::sync::Arc::from([]),
        }
    }

    fn with_hubs(mut self, hubs: &[VertexId], n_vertices: usize) -> PartitionMap {
        let mut bits = vec![0u64; n_vertices.div_ceil(64)];
        for h in hubs {
            bits[h.index() >> 6] |= 1u64 << (h.index() & 63);
        }
        self.hub_bits = bits.into();
        self
    }

    /// Number of partitions.
    #[inline]
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition owning `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        match &self.owners {
            Some(o) => o[v.index()] as usize,
            None => (v.0 as usize) % self.partitions,
        }
    }

    /// Whether `v`'s out-adjacency is replicated into every shard.
    #[inline]
    pub fn is_hub(&self, v: VertexId) -> bool {
        let i = v.index();
        self.hub_bits
            .get(i >> 6)
            .is_some_and(|w| w >> (i & 63) & 1 == 1)
    }

    /// The explicit owner table, when placement is not modulo.
    pub fn owner_table(&self) -> Option<&[u32]> {
        self.owners.as_deref()
    }
}

/// Read-only replica of the out-adjacency of the top-k highest-degree
/// vertices, logically present in **every** shard. A single overlay CSR
/// (hub-local source ids, global neighbour/edge ids, identical segment
/// ordering to the owning shard's) backs all copies in this in-process
/// build; `replicated_bytes` accounts the `p-1` extra copies a multi-process
/// deployment would materialise.
#[derive(Debug, Clone)]
pub struct HubReplicas {
    /// Replicated vertices, ascending by id (binary-searched on the read
    /// path).
    hubs: Vec<VertexId>,
    /// Out-adjacency over hub-local source ids.
    out_adj: CsrAdjacency,
    /// Bytes one replica copy occupies.
    bytes_per_copy: u64,
}

impl HubReplicas {
    /// The replicated vertex ids, ascending.
    pub fn hubs(&self) -> &[VertexId] {
        &self.hubs
    }

    /// Hub-local id of `v`, if replicated.
    #[inline]
    fn local_of(&self, v: VertexId) -> Option<usize> {
        self.hubs.binary_search(&v).ok()
    }

    /// Heap bytes of one replica copy of the overlay.
    pub fn bytes_per_copy(&self) -> u64 {
        self.bytes_per_copy
    }
}

/// Pick the `k` highest-degree vertices of `graph` (out + in degree, ties
/// toward lower ids), skipping isolated vertices; returned ascending by id.
fn top_k_hubs(graph: &PropertyGraph, k: usize) -> Vec<VertexId> {
    if k == 0 {
        return Vec::new();
    }
    let mut by_degree: Vec<(usize, VertexId)> = graph
        .vertex_ids()
        .map(|v| (graph.out_degree(v) + graph.in_degree(v), v))
        .filter(|&(d, _)| d > 0)
        .collect();
    by_degree.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    by_degree.truncate(k);
    let mut hubs: Vec<VertexId> = by_degree.into_iter().map(|(_, v)| v).collect();
    hubs.sort_unstable();
    hubs
}

/// Build the shared overlay CSR over `hubs` (ascending) from the global edge
/// columns — the same per-edge inputs the owning shards index, sorted the
/// same way, so overlay reads are bit-identical to shard reads.
fn build_hub_overlay(graph: &PropertyGraph, hubs: Vec<VertexId>) -> Option<HubReplicas> {
    if hubs.is_empty() {
        return None;
    }
    let labels = graph.edge_label_column();
    let srcs = graph.edge_source_column();
    let edge_idx: Vec<u32> = (0..labels.len() as u32)
        .filter(|&i| hubs.binary_search(&srcs[i as usize]).is_ok())
        .collect();
    let seg_labels: Vec<LabelId> = edge_idx.iter().map(|&i| labels[i as usize]).collect();
    let dsts = graph.edge_target_column();
    let out_adj = CsrAdjacency::build_with_ids(
        hubs.len(),
        graph.schema().edge_label_count(),
        &seg_labels,
        |j| {
            let src = srcs[edge_idx[j] as usize];
            VertexId(hubs.binary_search(&src).unwrap() as u64)
        },
        |j| dsts[edge_idx[j] as usize],
        |j| EdgeId(edge_idx[j] as u64),
    );
    let bytes_per_copy = (out_adj.heap_bytes() + hubs.len() * size_of::<VertexId>()) as u64;
    Some(HubReplicas {
        hubs,
        out_adj,
        bytes_per_copy,
    })
}

/// One partition's share of the graph: an independent CSR over the partition's
/// local vertices plus their property columns.
#[derive(Debug, Clone)]
pub struct GraphShard {
    /// Global ids of the shard's vertices, indexed by local id.
    vertices: Vec<VertexId>,
    /// Label of each local vertex.
    labels: Vec<LabelId>,
    /// Position of each local vertex among the shard's vertices of the same
    /// label (the shard-local property-column row).
    in_label_offset: Vec<u32>,
    /// Out-adjacency of the local vertices (local vertex ids, global
    /// neighbour/edge ids).
    out_adj: CsrAdjacency,
    /// In-adjacency of the local vertices.
    in_adj: CsrAdjacency,
    /// Property columns of the local vertices.
    props: PropColumns,
}

impl GraphShard {
    /// Global ids of the shard's vertices in local order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of local vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of out-adjacency entries stored in this shard (= number of
    /// edges whose source is local).
    pub fn out_edge_count(&self) -> usize {
        self.out_adj.entry_count()
    }

    /// Out-adjacency of the local vertex `local`, restricted to `label`.
    pub fn out_edges_with_label_local(&self, local: usize, label: LabelId) -> AdjSegment<'_> {
        self.out_adj.edges_with_label(VertexId(local as u64), label)
    }

    /// In-adjacency of the local vertex `local`, restricted to `label`.
    pub fn in_edges_with_label_local(&self, local: usize, label: LabelId) -> AdjSegment<'_> {
        self.in_adj.edges_with_label(VertexId(local as u64), label)
    }

    /// Full out-adjacency of the local vertex `local` (grouped by label).
    pub fn out_edges_local(&self, local: usize) -> impl Iterator<Item = Adj> + '_ {
        self.out_adj.edges(VertexId(local as u64))
    }

    /// Full in-adjacency of the local vertex `local` (grouped by label).
    pub fn in_edges_local(&self, local: usize) -> impl Iterator<Item = Adj> + '_ {
        self.in_adj.edges(VertexId(local as u64))
    }

    /// The shard's out-adjacency arrays (for the graph image writer and the
    /// storage benchmarks).
    pub fn out_adjacency(&self) -> &CsrAdjacency {
        &self.out_adj
    }

    /// The shard's in-adjacency arrays.
    pub fn in_adjacency(&self) -> &CsrAdjacency {
        &self.in_adj
    }

    /// Property of the local vertex `local` (owned value).
    pub fn vertex_prop_local(&self, local: usize, key: PropKeyId) -> Option<PropValue> {
        self.props
            .get(self.labels[local], self.in_label_offset[local], key)
    }

    /// The typed cell holding the `key` property of local vertex `local`:
    /// the shard's `(label, key)` column plus the vertex's row within it.
    pub fn vertex_prop_cell_local(&self, local: usize, key: PropKeyId) -> Option<ColumnRef<'_>> {
        self.props
            .cell(self.labels[local], self.in_label_offset[local], key)
    }

    /// The shard's typed property column of `(vertex label, key)`, when any
    /// local vertex of that label carries the key. Each shard infers its own
    /// layout from its local cells, so a column that is `Mixed` globally can
    /// still be typed in a shard that only holds one kind.
    pub fn prop_column(&self, label: LabelId, key: PropKeyId) -> Option<&TypedColumn> {
        self.props.column(label, key)
    }

    /// The shard's property column store (for the statistics layer, which
    /// builds per-shard stats and merges them).
    pub(crate) fn prop_columns(&self) -> &PropColumns {
        &self.props
    }
}

/// Vertex-partitioned graph storage: a [`Partitioner`], one [`GraphShard`]
/// per partition, and a global catalog. Implements [`GraphView`], so it is a
/// drop-in storage backend for the execution operators.
#[derive(Debug)]
pub struct PartitionedGraph {
    /// Global catalog: schema, label columns, edge endpoints and properties,
    /// vertices-by-label index. Adjacency and vertex properties are stripped —
    /// they live in the shards.
    base: PropertyGraph,
    /// The shared owner table (+ hub bitset) every routing decision and every
    /// communication charge goes through.
    pmap: PartitionMap,
    /// Whether the owner table happens to equal `v mod p` — lets the graph
    /// image skip persisting the table for hash placements.
    modulo_placed: bool,
    /// Dense local id of every vertex within its owning shard.
    local_index: Vec<u32>,
    shards: Vec<GraphShard>,
    /// Out-adjacency overlay of replicated hub vertices, if any.
    replicas: Option<HubReplicas>,
}

impl PartitionedGraph {
    /// Shard `graph` over `partitions` workers with the default
    /// [`HashPartitioner`].
    pub fn build(graph: &PropertyGraph, partitions: usize) -> PartitionedGraph {
        Self::build_with(graph, Box::new(HashPartitioner::new(partitions)))
    }

    /// Shard `graph` with a custom partitioner (no hub replication).
    pub fn build_with(
        graph: &PropertyGraph,
        partitioner: Box<dyn Partitioner>,
    ) -> PartitionedGraph {
        Self::build_with_opts(graph, partitioner, 0)
    }

    /// Shard `graph` with a custom partitioner and replicate the
    /// out-adjacency of the `replicate_hubs` highest-degree vertices into
    /// every shard (0 disables replication).
    pub fn build_with_opts(
        graph: &PropertyGraph,
        partitioner: Box<dyn Partitioner>,
        replicate_hubs: usize,
    ) -> PartitionedGraph {
        let p = partitioner.partitions();
        assert!(p >= 1, "need at least one partition");
        let n = graph.vertex_count();
        let n_elabels = graph.schema().edge_label_count();
        let n_keys = graph.prop_key_count();

        // vertex routing: shard membership in global-id order, materialised
        // into the shared owner table
        let mut owners = vec![0u32; n];
        let mut modulo_placed = true;
        let mut local_index = vec![0u32; n];
        let mut shard_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); p];
        for v in graph.vertex_ids() {
            let part = partitioner.partition_of(v);
            assert!(part < p, "partitioner returned {part} for {p} partitions");
            owners[v.index()] = part as u32;
            modulo_placed &= part == (v.0 as usize) % p;
            local_index[v.index()] = shard_vertices[part].len() as u32;
            shard_vertices[part].push(v);
        }

        // edge routing: out entries to the source's shard, in entries to the
        // destination's
        let labels = graph.edge_label_column();
        let srcs = graph.edge_source_column();
        let dsts = graph.edge_target_column();
        let mut out_edges: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut in_edges: Vec<Vec<u32>> = vec![Vec::new(); p];
        for i in 0..labels.len() {
            out_edges[owners[srcs[i].index()] as usize].push(i as u32);
            in_edges[owners[dsts[i].index()] as usize].push(i as u32);
        }

        let mut shards = Vec::with_capacity(p);
        for part in 0..p {
            let locals = std::mem::take(&mut shard_vertices[part]);
            let n_local = locals.len();

            let build_dir = |edge_idx: &[u32], endpoint: &[VertexId], other: &[VertexId]| {
                let seg_labels: Vec<LabelId> =
                    edge_idx.iter().map(|&i| labels[i as usize]).collect();
                CsrAdjacency::build_with_ids(
                    n_local,
                    n_elabels,
                    &seg_labels,
                    |j| VertexId(local_index[endpoint[edge_idx[j] as usize].index()] as u64),
                    |j| other[edge_idx[j] as usize],
                    |j| EdgeId(edge_idx[j] as u64),
                )
            };
            let out_adj = build_dir(&out_edges[part], srcs, dsts);
            let in_adj = build_dir(&in_edges[part], dsts, srcs);

            // shard-local label partition + property column scatter
            let mut v_labels = Vec::with_capacity(n_local);
            let mut in_label_offset = Vec::with_capacity(n_local);
            let mut label_sizes = vec![0usize; graph.schema().vertex_label_count()];
            for &v in &locals {
                let l = graph.vertex_label(v);
                v_labels.push(l);
                in_label_offset.push(label_sizes[l.index()] as u32);
                label_sizes[l.index()] += 1;
            }
            let props = PropColumns::build(
                n_keys,
                &label_sizes,
                locals.iter().enumerate().map(|(local, &v)| {
                    let props: Box<[(PropKeyId, PropValue)]> = (0..n_keys as u16)
                        .filter_map(|k| {
                            let key = PropKeyId(k);
                            graph.vertex_prop(v, key).map(|val| (key, val))
                        })
                        .collect();
                    (v_labels[local], in_label_offset[local], props)
                }),
            );

            shards.push(GraphShard {
                vertices: locals,
                labels: v_labels,
                in_label_offset,
                out_adj,
                in_adj,
                props,
            });
        }

        // the shards now own adjacency + vertex properties; the catalog
        // clone never copies the monolithic versions, so the façade cannot
        // silently fall back to them (and shard construction avoids a
        // transient full adjacency copy)
        let base = graph.catalog_clone();

        let replicas = build_hub_overlay(graph, top_k_hubs(graph, replicate_hubs));
        let mut pmap = PartitionMap::from_owners(p, owners.into());
        if let Some(r) = &replicas {
            pmap = pmap.with_hubs(&r.hubs, n);
        }

        PartitionedGraph {
            base,
            pmap,
            modulo_placed,
            local_index,
            shards,
            replicas,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.pmap.partitions()
    }

    /// The partition owning `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        self.pmap.partition_of(v)
    }

    /// The shared owner table + hub bitset. The execution engines route and
    /// account all communication through this map.
    #[inline]
    pub fn partition_map(&self) -> &PartitionMap {
        &self.pmap
    }

    /// Whether the owner table equals `v mod p` (hash placement).
    pub fn modulo_placed(&self) -> bool {
        self.modulo_placed
    }

    /// The hub replica overlay, when hub replication is enabled.
    pub fn replicas(&self) -> Option<&HubReplicas> {
        self.replicas.as_ref()
    }

    /// Bytes the `p-1` extra replica copies of the hub overlay would occupy
    /// in a deployment with one materialised copy per shard (0 with no
    /// replication or a single partition).
    pub fn replicated_bytes(&self) -> u64 {
        match &self.replicas {
            Some(r) => r.bytes_per_copy() * (self.partitions().saturating_sub(1)) as u64,
            None => 0,
        }
    }

    /// The dense local id of `v` within its owning shard.
    #[inline]
    pub fn local_index(&self, v: VertexId) -> usize {
        self.local_index[v.index()] as usize
    }

    /// The shard of partition `p`.
    pub fn shard(&self, p: usize) -> &GraphShard {
        &self.shards[p]
    }

    /// All shards, indexed by partition.
    pub fn shards(&self) -> &[GraphShard] {
        &self.shards
    }

    /// The global catalog (schema, label columns, edge endpoints/properties,
    /// property-key interning) shared by all shards.
    pub(crate) fn catalog(&self) -> &PropertyGraph {
        &self.base
    }

    /// Build id of the source graph this partitioning was built from —
    /// shared only by bit-identical clones, so backends can key shard caches
    /// on it (see [`PropertyGraph::build_id`]).
    pub fn base_build_id(&self) -> u64 {
        self.base.build_id()
    }

    #[inline]
    fn locate(&self, v: VertexId) -> (&GraphShard, usize) {
        let part = self.pmap.partition_of(v);
        (&self.shards[part], self.local_index[v.index()] as usize)
    }

    /// The replica overlay's local id for `v`, when `v` is a replicated hub.
    #[inline]
    fn replica_local(&self, v: VertexId) -> Option<(&HubReplicas, usize)> {
        if !self.pmap.is_hub(v) {
            return None;
        }
        let r = self.replicas.as_ref()?;
        r.local_of(v).map(|l| (r, l))
    }

    /// Full out-adjacency of `v` (grouped by label), read from its shard —
    /// or from the replica overlay when `v` is a hub.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = Adj> + '_ {
        let (adj, local) = match self.replica_local(v) {
            Some((r, local)) => (&r.out_adj, local),
            None => {
                let (shard, local) = self.locate(v);
                (shard.out_adjacency(), local)
            }
        };
        adj.edges(VertexId(local as u64))
    }

    /// Full in-adjacency of `v` (grouped by label), read from its shard.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = Adj> + '_ {
        let (shard, local) = self.locate(v);
        shard.in_edges_local(local)
    }

    /// Reassemble a partitioned graph from a full monolithic `graph` plus
    /// per-shard adjacency/property arrays deserialized from a graph image
    /// (one `(out_adj, in_adj, props)` triple per partition). Placement comes
    /// from `owners` — an explicit owner table, or `None` for hash placement
    /// (`v mod p`); `hubs` names the replicated vertices, whose overlay is
    /// rebuilt from the catalog's edge columns. The routing index and shard
    /// vertex/label tables are rederived from the catalog — only the
    /// expensive members (CSR arrays, scattered columns) come from the
    /// image. Returns `None` when the shard count, owner table or hub list
    /// is inconsistent with `graph`.
    pub(crate) fn assemble(
        graph: &PropertyGraph,
        partitions: usize,
        owners: Option<Vec<u32>>,
        hubs: Vec<VertexId>,
        shard_parts: Vec<(CsrAdjacency, CsrAdjacency, PropColumns)>,
    ) -> Option<PartitionedGraph> {
        if partitions == 0 || shard_parts.len() != partitions {
            return None;
        }
        let n = graph.vertex_count();
        if let Some(o) = &owners {
            if o.len() != n || o.iter().any(|&p| p as usize >= partitions) {
                return None;
            }
        }
        if hubs.iter().any(|h| h.index() >= n) || hubs.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let modulo_placed = match &owners {
            None => true,
            Some(o) => graph
                .vertex_ids()
                .all(|v| o[v.index()] as usize == (v.0 as usize) % partitions),
        };
        let owner_of = |v: VertexId| match &owners {
            Some(o) => o[v.index()] as usize,
            None => (v.0 as usize) % partitions,
        };
        let mut local_index = vec![0u32; n];
        let mut shard_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); partitions];
        for v in graph.vertex_ids() {
            let part = owner_of(v);
            local_index[v.index()] = shard_vertices[part].len() as u32;
            shard_vertices[part].push(v);
        }
        let mut shards = Vec::with_capacity(partitions);
        for (part, (out_adj, in_adj, props)) in shard_parts.into_iter().enumerate() {
            let locals = std::mem::take(&mut shard_vertices[part]);
            let mut labels = Vec::with_capacity(locals.len());
            let mut in_label_offset = Vec::with_capacity(locals.len());
            let mut label_sizes = vec![0u32; graph.schema().vertex_label_count()];
            for &v in &locals {
                let l = graph.vertex_label(v);
                labels.push(l);
                in_label_offset.push(label_sizes[l.index()]);
                label_sizes[l.index()] += 1;
            }
            if out_adj.entry_count() + in_adj.entry_count() > 2 * graph.edge_count() {
                return None;
            }
            shards.push(GraphShard {
                vertices: locals,
                labels,
                in_label_offset,
                out_adj,
                in_adj,
                props,
            });
        }
        let owner_table: std::sync::Arc<[u32]> = match owners {
            Some(o) => o.into(),
            None => (0..n as u32).map(|i| i % partitions as u32).collect(),
        };
        let replicas = build_hub_overlay(graph, hubs);
        let mut pmap = PartitionMap::from_owners(partitions, owner_table);
        if let Some(r) = &replicas {
            pmap = pmap.with_hubs(&r.hubs, n);
        }
        Some(PartitionedGraph {
            base: graph.catalog_clone(),
            pmap,
            modulo_placed,
            local_index,
            shards,
            replicas,
        })
    }
}

impl GraphView for PartitionedGraph {
    fn schema(&self) -> &GraphSchema {
        self.base.schema()
    }

    fn vertex_count(&self) -> usize {
        self.base.vertex_count()
    }

    fn edge_count(&self) -> usize {
        self.base.edge_count()
    }

    fn vertex_label(&self, v: VertexId) -> LabelId {
        self.base.vertex_label(v)
    }

    fn edge_label(&self, e: EdgeId) -> LabelId {
        self.base.edge_label(e)
    }

    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.base.edge_endpoints(e)
    }

    fn vertices_with_label(&self, label: LabelId) -> &[VertexId] {
        self.base.vertices_with_label(label)
    }

    #[inline]
    fn out_edges_with_label(&self, v: VertexId, label: LabelId) -> AdjSegment<'_> {
        // hubs are served from the replica overlay — identical bytes to the
        // owning shard's segment, but available in every partition
        if let Some((r, local)) = self.replica_local(v) {
            return r.out_adj.edges_with_label(VertexId(local as u64), label);
        }
        let (shard, local) = self.locate(v);
        shard.out_edges_with_label_local(local, label)
    }

    #[inline]
    fn in_edges_with_label(&self, v: VertexId, label: LabelId) -> AdjSegment<'_> {
        let (shard, local) = self.locate(v);
        shard.in_edges_with_label_local(local, label)
    }

    #[inline]
    fn edges_between(&self, src: VertexId, label: LabelId, dst: VertexId) -> AdjSegment<'_> {
        if let Some((r, local)) = self.replica_local(src) {
            return r.out_adj.edges_to(VertexId(local as u64), label, dst);
        }
        let (shard, local) = self.locate(src);
        shard.out_adj.edges_to(VertexId(local as u64), label, dst)
    }

    fn prop_key(&self, name: &str) -> Option<PropKeyId> {
        self.base.prop_key(name)
    }

    fn placement(&self) -> Option<&PartitionMap> {
        Some(&self.pmap)
    }

    #[inline]
    fn vertex_prop_cell(&self, v: VertexId, key: PropKeyId) -> Option<ColumnRef<'_>> {
        let (shard, local) = self.locate(v);
        shard.vertex_prop_cell_local(local, key)
    }

    #[inline]
    fn edge_prop_cell(&self, e: EdgeId, key: PropKeyId) -> Option<ColumnRef<'_>> {
        self.base.edge_prop_cell(e, key)
    }

    #[inline]
    fn vertex_prop(&self, v: VertexId, key: PropKeyId) -> Option<PropValue> {
        let (shard, local) = self.locate(v);
        shard.vertex_prop_local(local, key)
    }

    #[inline]
    fn edge_prop(&self, e: EdgeId, key: PropKeyId) -> Option<PropValue> {
        self.base.edge_prop(e, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::schema::fig6_schema;

    fn sample() -> PropertyGraph {
        let mut b = GraphBuilder::new(fig6_schema());
        let p: Vec<_> = (0..5)
            .map(|i| {
                b.add_vertex_by_name("Person", vec![("id", PropValue::Int(i))])
                    .unwrap()
            })
            .collect();
        let place = b
            .add_vertex_by_name("Place", vec![("name", PropValue::str("China"))])
            .unwrap();
        b.add_edge_by_name("Knows", p[0], p[1], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[0], p[3], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[1], p[3], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[2], p[4], vec![]).unwrap();
        for v in &p {
            b.add_edge_by_name("LocatedIn", *v, place, vec![("w", PropValue::Int(1))])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn shard_slices_agree_with_the_monolithic_layout() {
        let g = sample();
        for parts in [1usize, 2, 3, 4] {
            let pg = PartitionedGraph::build(&g, parts);
            assert_eq!(pg.partitions(), parts);
            assert_eq!(pg.vertex_count(), g.vertex_count());
            assert_eq!(pg.edge_count(), g.edge_count());
            let total_local: usize = pg.shards().iter().map(|s| s.vertex_count()).sum();
            assert_eq!(total_local, g.vertex_count());
            let total_out: usize = pg.shards().iter().map(|s| s.out_edge_count()).sum();
            assert_eq!(total_out, g.edge_count());
            for v in g.vertex_ids() {
                assert_eq!(pg.partition_of(v), v.0 as usize % parts);
                assert_eq!(
                    pg.shard(pg.partition_of(v)).vertices()[pg.local_index(v)],
                    v
                );
                assert_eq!(
                    pg.out_edges(v).collect::<Vec<_>>(),
                    g.out_edges(v).collect::<Vec<_>>()
                );
                assert_eq!(
                    pg.in_edges(v).collect::<Vec<_>>(),
                    g.in_edges(v).collect::<Vec<_>>()
                );
                for l in g.schema().edge_label_ids() {
                    assert_eq!(
                        GraphView::out_edges_with_label(&pg, v, l).to_vec(),
                        g.out_edges_with_label(v, l).to_vec()
                    );
                    assert_eq!(
                        GraphView::in_edges_with_label(&pg, v, l).to_vec(),
                        g.in_edges_with_label(v, l).to_vec()
                    );
                }
                let id_key = g.prop_key("id");
                if let Some(k) = id_key {
                    assert_eq!(GraphView::vertex_prop(&pg, v, k), g.vertex_prop(v, k));
                }
            }
            let knows = g.schema().edge_label("Knows").unwrap();
            assert_eq!(
                GraphView::edges_between(&pg, VertexId(0), knows, VertexId(1)).to_vec(),
                g.edges_between(VertexId(0), knows, VertexId(1)).to_vec()
            );
            assert!(GraphView::has_edge(&pg, VertexId(0), knows, VertexId(1)));
            assert_eq!(
                GraphView::first_edge_between(&pg, VertexId(0), knows, VertexId(3)),
                g.first_edge_between(VertexId(0), knows, VertexId(3))
            );
            // edge props stay reachable through the catalog
            let w = g.prop_key("w").unwrap();
            let e = g
                .first_edge_between(
                    VertexId(0),
                    g.schema().edge_label("LocatedIn").unwrap(),
                    VertexId(5),
                )
                .unwrap();
            assert_eq!(GraphView::edge_prop(&pg, e, w), Some(PropValue::Int(1)));
        }
    }

    #[test]
    fn greedy_placement_is_balanced_and_reads_agree_with_the_monolith() {
        let g = crate::generator::random_graph(
            &fig6_schema(),
            &crate::generator::RandomGraphConfig {
                vertices_per_label: 40,
                edges_per_endpoint: 120,
                seed: 11,
            },
        );
        for parts in [1usize, 2, 4] {
            let gp = GreedyPartitioner::build(&g, parts);
            let pg = PartitionedGraph::build_with(&g, Box::new(gp.clone()));
            assert!(!pg
                .partition_map()
                .owner_table()
                .unwrap()
                .iter()
                .any(|&p| p as usize >= parts));
            // balance cap: no shard exceeds the perfect share plus slack
            let n = g.vertex_count();
            let cap = n.div_ceil(parts) + n / (parts * 20) + 1;
            for s in pg.shards() {
                assert!(s.vertex_count() <= cap, "shard over the balance cap");
            }
            // placement is deterministic
            let again = GreedyPartitioner::build(&g, parts);
            for v in g.vertex_ids() {
                assert_eq!(gp.partition_of(v), again.partition_of(v));
            }
            // reads through the façade agree with the monolith regardless of
            // placement
            for v in g.vertex_ids() {
                assert_eq!(pg.partition_of(v), gp.partition_of(v));
                assert_eq!(
                    pg.out_edges(v).collect::<Vec<_>>(),
                    g.out_edges(v).collect::<Vec<_>>()
                );
                for l in g.schema().edge_label_ids() {
                    assert_eq!(
                        GraphView::out_edges_with_label(&pg, v, l).to_vec(),
                        g.out_edges_with_label(v, l).to_vec()
                    );
                    assert_eq!(
                        GraphView::in_edges_with_label(&pg, v, l).to_vec(),
                        g.in_edges_with_label(v, l).to_vec()
                    );
                }
            }
        }
        // a greedy placement keeps at least as many edges shard-internal as
        // hash placement on this clustered-ish random graph (weak check: it
        // must place *some* neighbours together)
        let gp = GreedyPartitioner::build(&g, 4);
        let internal = |part_of: &dyn Fn(VertexId) -> usize| {
            let srcs = g.edge_source_column();
            let dsts = g.edge_target_column();
            (0..srcs.len())
                .filter(|&i| part_of(srcs[i]) == part_of(dsts[i]))
                .count()
        };
        let greedy_internal = internal(&|v| gp.partition_of(v));
        let hash = HashPartitioner::new(4);
        let hash_internal = internal(&|v| hash.partition_of(v));
        assert!(
            greedy_internal >= hash_internal,
            "greedy kept {greedy_internal} edges internal, hash {hash_internal}"
        );
    }

    #[test]
    fn hub_replicas_serve_identical_adjacency_and_account_bytes() {
        let g = crate::generator::random_graph(
            &fig6_schema(),
            &crate::generator::RandomGraphConfig {
                vertices_per_label: 30,
                edges_per_endpoint: 90,
                seed: 7,
            },
        );
        let plain = PartitionedGraph::build(&g, 4);
        let pg = PartitionedGraph::build_with_opts(&g, Box::new(HashPartitioner::new(4)), 8);
        let r = pg.replicas().expect("replicas requested");
        assert_eq!(r.hubs().len(), 8);
        assert!(r.hubs().windows(2).all(|w| w[0] < w[1]));
        assert!(pg.replicated_bytes() >= 3 * r.bytes_per_copy());
        // every hub really is a top-degree vertex and flagged in the map
        for &h in r.hubs() {
            assert!(pg.partition_map().is_hub(h));
            assert!(g.out_degree(h) + g.in_degree(h) > 0);
        }
        // overlay reads are bit-identical to shard reads
        for v in g.vertex_ids() {
            assert_eq!(
                pg.out_edges(v).collect::<Vec<_>>(),
                plain.out_edges(v).collect::<Vec<_>>()
            );
            for l in g.schema().edge_label_ids() {
                assert_eq!(
                    GraphView::out_edges_with_label(&pg, v, l).to_vec(),
                    GraphView::out_edges_with_label(&plain, v, l).to_vec()
                );
            }
        }
        // no replication ⇒ no replica accounting
        assert_eq!(plain.replicated_bytes(), 0);
        assert!(plain.replicas().is_none());
        // p=1 ⇒ no extra copies even with hubs requested
        let solo = PartitionedGraph::build_with_opts(&g, Box::new(HashPartitioner::new(1)), 8);
        assert_eq!(solo.replicated_bytes(), 0);
    }

    #[test]
    fn partitioner_spec_parses_and_rejects() {
        assert_eq!(PartitionerSpec::parse("hash"), Ok(PartitionerSpec::Hash));
        assert_eq!(
            PartitionerSpec::parse(" Greedy "),
            Ok(PartitionerSpec::Greedy)
        );
        assert!(PartitionerSpec::parse("fennel").is_err());
        assert_eq!(PartitionerSpec::Greedy.name(), "greedy");
    }
}
