//! Pattern-matching (graph) physical operators.
//!
//! These implement the vertex-expansion strategies of Section 6.3.2:
//!
//! * [`scan`] — bind the first pattern vertex;
//! * [`edge_expand`] — flattening expansion to a new vertex (`Expand`);
//! * [`expand_into`] — Neo4j-style closing of an edge between two bound vertices;
//! * [`expand_intersect`] — GraphScope-style worst-case-optimal intersection expansion;
//! * [`path_expand`] — variable-length path expansion.
//!
//! These scalar forms over `&[Record]` are the oracle's. The morsel engine runs the
//! same traversal code (`collect_expand_candidates`, `find_connecting_edge`, the
//! sorted-neighbour intersection, `expand_paths`) as compiled kernels over
//! `RecordBatch` columns (`ExpandKernel`): source vertices are read from a
//! contiguous column, predicates are compiled once (tag → slot resolution hoisted
//! out of the row loop), scratch buffers are reused across morsels, and selection
//! vectors are gathered column-by-column — same rows, same order.
//!
//! The kernels also return a [`CommTally`]: the boundary crossings a distributed
//! deployment would incur, split into rows that are actually shipped and crossings
//! served locally because the destination's out-adjacency is replicated on every
//! shard (a *hub*, see [`gopt_graph::HubReplicas`]). Placement comes from the shared
//! [`PartitionMap`] owner table — no operator assumes modulo placement. With
//! `pm = None` the tally is always zero.

use crate::record::{Entry, Record, RecordContext, TagMap};
use gopt_gir::expr::Expr;
use gopt_gir::pattern::{Direction, PathSemantics};
use gopt_gir::physical::IntersectStep;
use gopt_gir::types::TypeConstraint;
use gopt_graph::{EdgeId, GraphView, LabelId, PartitionMap, PropertyGraph, VertexId};

/// Partition-boundary crossings of one operator call, split by how a
/// distributed deployment would serve them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommTally {
    /// Crossings that ship a row to another shard.
    pub shipped: u64,
    /// Crossings served on the local shard by a replicated hub adjacency.
    pub local_hits: u64,
}

impl CommTally {
    /// Accumulate another tally into this one.
    #[inline]
    pub fn add(&mut self, other: CommTally) {
        self.shipped += other.shipped;
        self.local_hits += other.local_hits;
    }
}

impl std::ops::AddAssign for CommTally {
    fn add_assign(&mut self, other: CommTally) {
        self.add(other);
    }
}

/// Charge one expand boundary: `src → dst` crossing partitions ships the row,
/// unless `dst` is a replicated hub — its out-adjacency is present on every
/// shard, so the follow-up expansion runs locally and the crossing is a
/// locality hit. (The rule is applied uniformly; an in-direction follow-up
/// from a hub would still ship, so the hit count is optimistic there.)
#[inline]
fn charge_crossing(pm: Option<&PartitionMap>, src: VertexId, dst: VertexId, tally: &mut CommTally) {
    let Some(pm) = pm else { return };
    if pm.partitions() <= 1 || pm.partition_of(src) == pm.partition_of(dst) {
        return;
    }
    if pm.is_hub(dst) {
        tally.local_hits += 1;
    } else {
        tally.shipped += 1;
    }
}

/// Ship-once accounting of one intersection row over its bound step sources
/// `(vertex, step direction)`. A step source whose out-adjacency is replicated
/// everywhere (a hub expanded in the `Out` direction) can be intersected on
/// any shard, so it never forces a move: when the remaining sources fit on one
/// partition but the full set does not, the crossing is served by the replica
/// overlay and counted as a locality hit instead of a shipped row.
fn charge_intersect_row(
    pm: Option<&PartitionMap>,
    srcs: impl Iterator<Item = (VertexId, Direction)>,
    tally: &mut CommTally,
) {
    let Some(pm) = pm else { return };
    if pm.partitions() <= 1 {
        return;
    }
    let mut all_first: Option<usize> = None;
    let mut all_spread = false;
    let mut req_first: Option<usize> = None;
    let mut req_spread = false;
    for (v, dir) in srcs {
        let p = pm.partition_of(v);
        match all_first {
            None => all_first = Some(p),
            Some(f) if f != p => all_spread = true,
            _ => {}
        }
        if !(dir == Direction::Out && pm.is_hub(v)) {
            match req_first {
                None => req_first = Some(p),
                Some(f) if f != p => req_spread = true,
                _ => {}
            }
        }
    }
    if all_spread {
        if req_spread {
            tally.shipped += 1;
        } else {
            tally.local_hits += 1;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn vertex_matches(
    graph: &PropertyGraph,
    tags: &TagMap,
    record: &Record,
    v: VertexId,
    constraint: &TypeConstraint,
    predicate: &Option<Expr>,
    alias: &str,
    slot: usize,
) -> bool {
    if !constraint.contains(graph.vertex_label(v)) {
        return false;
    }
    match predicate {
        None => true,
        Some(p) => {
            let probe = record.with(slot, Entry::Vertex(v));
            let ctx = RecordContext {
                graph,
                tags,
                record: &probe,
            };
            let _ = alias;
            p.evaluate_predicate(&ctx)
        }
    }
}

pub(crate) fn edge_labels<G: GraphView>(graph: &G, constraint: &TypeConstraint) -> Vec<LabelId> {
    constraint.materialize(&graph.schema().edge_label_ids().collect::<Vec<_>>())
}

/// Collect the candidate `(edge, neighbor)` pairs of an edge expansion from
/// `src` into `candidates`, keeping one (the smallest-id) edge per distinct
/// neighbour. Shared by the scalar `EdgeExpand` and its kernel.
///
/// Each CSR (vertex, label) segment is already sorted by (neighbor, edge), so
/// a single-segment expansion needs neither sort nor copy ordering work; only
/// multi-segment gathers (several labels, or direction `Both`) re-sort what
/// was gathered.
pub(crate) fn collect_expand_candidates<G: GraphView>(
    graph: &G,
    src: VertexId,
    labels: &[LabelId],
    direction: Direction,
    candidates: &mut Vec<(gopt_graph::EdgeId, VertexId)>,
) {
    candidates.clear();
    let mut segments = 0usize;
    {
        let mut push_seg = |candidates: &mut Vec<(gopt_graph::EdgeId, VertexId)>,
                            seg: gopt_graph::AdjSegment<'_>| {
            if !seg.is_empty() {
                segments += 1;
                candidates.extend(seg.iter().map(|a| (a.edge, a.neighbor)));
            }
        };
        for &l in labels {
            match direction {
                Direction::Out => push_seg(candidates, graph.out_edges_with_label(src, l)),
                Direction::In => push_seg(candidates, graph.in_edges_with_label(src, l)),
                Direction::Both => {
                    push_seg(candidates, graph.out_edges_with_label(src, l));
                    push_seg(candidates, graph.in_edges_with_label(src, l));
                }
            }
        }
    }
    if segments > 1 {
        candidates.sort_unstable_by_key(|(e, n)| (*n, *e));
    }
    candidates.dedup_by_key(|(_, n)| *n);
}

/// Collect the distinct neighbours of `src` over the given labels/direction
/// into `buf`, sorted ascending. The per-(vertex, label) CSR segments are
/// already sorted by neighbour, so a single segment needs no sort at all and
/// multiple segments only sort what was gathered.
fn gather_sorted_neighbors<G: GraphView>(
    graph: &G,
    src: VertexId,
    labels: &[LabelId],
    direction: Direction,
    buf: &mut Vec<VertexId>,
) {
    buf.clear();
    let mut segments = 0usize;
    // Reads the compressed segment's raw u32 neighbour slice: no edge-id
    // decoding happens on the intersection path at all.
    let mut push_seg = |buf: &mut Vec<VertexId>, seg: gopt_graph::AdjSegment<'_>| {
        if !seg.is_empty() {
            segments += 1;
            buf.extend(seg.neighbors().iter().map(|&n| VertexId(n as u64)));
        }
    };
    for &l in labels {
        match direction {
            Direction::Out => push_seg(buf, graph.out_edges_with_label(src, l)),
            Direction::In => push_seg(buf, graph.in_edges_with_label(src, l)),
            Direction::Both => {
                push_seg(buf, graph.out_edges_with_label(src, l));
                push_seg(buf, graph.in_edges_with_label(src, l));
            }
        }
    }
    if segments > 1 {
        buf.sort_unstable();
    }
    buf.dedup();
}

/// Galloping lower bound: the first index `i` with `s[i] >= t`, found by
/// exponential probing followed by a binary search of the bracketed range.
/// O(log distance) instead of O(log len) — cheap when successive probes are
/// close together, as they are during a merge-intersection.
#[inline]
fn gallop_lower_bound(s: &[VertexId], t: VertexId) -> usize {
    if s.first().is_none_or(|&x| x >= t) {
        return 0;
    }
    // invariant: s[base] < t
    let mut base = 0usize;
    let mut step = 1usize;
    while base + step < s.len() && s[base + step] < t {
        base += step;
        step <<= 1;
    }
    let end = (base + step).min(s.len());
    base + 1 + s[base + 1..end].partition_point(|x| *x < t)
}

/// Intersect two sorted, deduplicated vertex lists into `out` (ascending).
/// Uses a linear merge for similarly-sized inputs and switches to galloping
/// (iterate the small side, exponential-search the large side) when the sizes
/// are lopsided — the worst-case-optimal-join access pattern of
/// `ExpandIntersect`.
fn intersect_sorted_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() >= 16 * small.len() {
        let mut rest = large;
        for &v in small {
            let i = gallop_lower_bound(rest, v);
            rest = &rest[i..];
            match rest.first() {
                Some(&x) if x == v => out.push(v),
                Some(_) => {}
                None => break,
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < large.len() {
            match small[i].cmp(&large[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// Find one connecting edge between the bound endpoints `s` and `d` over the given
/// labels/direction: a binary search of the sorted (vertex, label) CSR segment per
/// candidate endpoint pair. Shared by the scalar `ExpandInto` and its kernel.
pub(crate) fn find_connecting_edge<G: GraphView>(
    graph: &G,
    s: VertexId,
    d: VertexId,
    labels: &[LabelId],
    direction: Direction,
) -> Option<EdgeId> {
    for &l in labels {
        let endpoint_pairs: &[(VertexId, VertexId)] = match direction {
            Direction::Out => &[(s, d)],
            Direction::In => &[(d, s)],
            Direction::Both => &[(s, d), (d, s)],
        };
        for &(from, to) in endpoint_pairs {
            if let Some(e) = graph.first_edge_between(from, l, to) {
                return Some(e);
            }
        }
    }
    None
}

/// Walk every path of `1..=max_hops` hops from `start` (iterative deepening over the
/// CSR segments, carrying the full vertex path), counting cross-partition steps into
/// `comm`, and call `emit` for each path of at least `min_hops` hops — in breadth
/// order: all paths of hop `h`, in frontier order, before any path of hop `h + 1`.
/// Shared by the scalar `PathExpand` and its pipeline stage, which fixes their
/// emission order to be identical by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_paths<G: GraphView>(
    graph: &G,
    start: VertexId,
    labels: &[LabelId],
    direction: Direction,
    min_hops: u32,
    max_hops: u32,
    semantics: PathSemantics,
    pm: Option<&PartitionMap>,
    comm: &mut CommTally,
    mut emit: impl FnMut(&[VertexId]),
) {
    let mut frontier: Vec<Vec<VertexId>> = vec![vec![start]];
    for hop in 1..=max_hops {
        let mut next: Vec<Vec<VertexId>> = Vec::new();
        for path in &frontier {
            let cur = *path.last().expect("non-empty path");
            let mut step = |n: VertexId, next: &mut Vec<Vec<VertexId>>| {
                if semantics == PathSemantics::Simple && path.contains(&n) {
                    return;
                }
                charge_crossing(pm, cur, n, comm);
                let mut np = path.clone();
                np.push(n);
                next.push(np);
            };
            for &l in labels {
                match direction {
                    Direction::Out => {
                        for a in graph.out_edges_with_label(cur, l) {
                            step(a.neighbor, &mut next);
                        }
                    }
                    Direction::In => {
                        for a in graph.in_edges_with_label(cur, l) {
                            step(a.neighbor, &mut next);
                        }
                    }
                    Direction::Both => {
                        for a in graph.out_edges_with_label(cur, l) {
                            step(a.neighbor, &mut next);
                        }
                        for a in graph.in_edges_with_label(cur, l) {
                            step(a.neighbor, &mut next);
                        }
                    }
                }
            }
        }
        if hop >= min_hops {
            for path in &next {
                emit(path);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
}

/// Scan all vertices admitted by `constraint` (and `predicate`), producing one record per
/// vertex with `alias` bound.
pub fn scan(
    graph: &PropertyGraph,
    tags: &mut TagMap,
    alias: &str,
    constraint: &TypeConstraint,
    predicate: &Option<Expr>,
) -> Vec<Record> {
    let slot = tags.slot_or_insert(alias);
    let labels: Vec<LabelId> =
        constraint.materialize(&graph.schema().vertex_label_ids().collect::<Vec<_>>());
    let mut out = Vec::new();
    let empty = Record::new();
    for l in labels {
        for &v in graph.vertices_with_label(l) {
            if vertex_matches(graph, tags, &empty, v, constraint, predicate, alias, slot) {
                out.push(empty.with(slot, Entry::Vertex(v)));
            }
        }
    }
    out
}

/// Parameters of a flattening edge expansion.
pub struct EdgeExpandArgs<'a> {
    /// Bound source tag.
    pub src: &'a str,
    /// Optional tag to bind the traversed edge to.
    pub edge_alias: Option<&'a str>,
    /// Edge type constraint.
    pub edge_constraint: &'a TypeConstraint,
    /// Expansion direction.
    pub direction: Direction,
    /// Tag of the newly bound vertex.
    pub dst_alias: &'a str,
    /// Type constraint on the new vertex.
    pub dst_constraint: &'a TypeConstraint,
    /// Optional predicate on the new vertex.
    pub dst_predicate: &'a Option<Expr>,
    /// Optional predicate on the traversed edge.
    pub edge_predicate: &'a Option<Expr>,
}

/// Flattening expansion: for every input record and every matching incident edge of the
/// bound source vertex, emit a record with the neighbour (and optionally the edge) bound.
pub fn edge_expand(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &mut TagMap,
    args: &EdgeExpandArgs<'_>,
) -> Result<Vec<Record>, crate::error::ExecError> {
    let src_slot = tags
        .slot(args.src)
        .ok_or_else(|| crate::error::ExecError::UnboundTag(args.src.to_string()))?;
    let dst_slot = tags.slot_or_insert(args.dst_alias);
    let edge_slot = args.edge_alias.map(|a| tags.slot_or_insert(a));
    let labels = edge_labels(graph, args.edge_constraint);
    let mut out = Vec::new();
    // Matching follows the paper's vertex-homomorphism semantics: a pattern edge is
    // satisfied when at least one data edge connects the mapped endpoints, so expansion
    // binds each *distinct neighbour* once (parallel edges do not multiply results),
    // keeping EdgeExpand consistent with ExpandInto and ExpandIntersect.
    let mut candidates: Vec<(gopt_graph::EdgeId, VertexId)> = Vec::new();
    for rec in input {
        let Some(src) = rec.get(src_slot).as_vertex() else {
            continue;
        };
        let mut emit = |edge: gopt_graph::EdgeId, neighbor: VertexId| {
            if !vertex_matches(
                graph,
                tags,
                rec,
                neighbor,
                args.dst_constraint,
                args.dst_predicate,
                args.dst_alias,
                dst_slot,
            ) {
                return;
            }
            if let Some(p) = args.edge_predicate {
                let mut probe = rec.clone();
                if let Some(es) = edge_slot {
                    probe.set(es, Entry::Edge(edge));
                }
                let ctx = RecordContext {
                    graph,
                    tags,
                    record: &probe,
                };
                if !p.evaluate_predicate(&ctx) {
                    return;
                }
            }
            let mut r = rec.with(dst_slot, Entry::Vertex(neighbor));
            if let Some(es) = edge_slot {
                r.set(es, Entry::Edge(edge));
            }
            out.push(r);
        };
        collect_expand_candidates(graph, src, &labels, args.direction, &mut candidates);
        for &(edge, neighbor) in candidates.iter() {
            emit(edge, neighbor);
        }
    }
    Ok(out)
}

/// Close a pattern edge between two already-bound vertices (Neo4j's `ExpandInto`).
#[allow(clippy::too_many_arguments)]
pub fn expand_into(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &mut TagMap,
    src: &str,
    dst: &str,
    edge_constraint: &TypeConstraint,
    direction: Direction,
    edge_alias: Option<&str>,
    edge_predicate: &Option<Expr>,
) -> Result<Vec<Record>, crate::error::ExecError> {
    let src_slot = tags
        .slot(src)
        .ok_or_else(|| crate::error::ExecError::UnboundTag(src.to_string()))?;
    let dst_slot = tags
        .slot(dst)
        .ok_or_else(|| crate::error::ExecError::UnboundTag(dst.to_string()))?;
    let edge_slot = edge_alias.map(|a| tags.slot_or_insert(a));
    let labels = edge_labels(graph, edge_constraint);
    let mut out = Vec::new();
    for rec in input {
        let (Some(s), Some(d)) = (rec.get(src_slot).as_vertex(), rec.get(dst_slot).as_vertex())
        else {
            continue;
        };
        let Some(e) = find_connecting_edge(graph, s, d, &labels, direction) else {
            continue;
        };
        if let Some(p) = edge_predicate {
            let mut probe = rec.clone();
            if let Some(es) = edge_slot {
                probe.set(es, Entry::Edge(e));
            }
            let ctx = RecordContext {
                graph,
                tags,
                record: &probe,
            };
            if !p.evaluate_predicate(&ctx) {
                continue;
            }
        }
        let mut r = rec.clone();
        if let Some(es) = edge_slot {
            r.set(es, Entry::Edge(e));
        }
        out.push(r);
    }
    Ok(out)
}

/// Bind a new vertex by intersecting the adjacency lists of several bound vertices
/// (GraphScope's worst-case-optimal `ExpandIntersect`).
#[allow(clippy::too_many_arguments)]
pub fn expand_intersect(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &mut TagMap,
    steps: &[IntersectStep],
    dst_alias: &str,
    dst_constraint: &TypeConstraint,
    dst_predicate: &Option<Expr>,
) -> Result<Vec<Record>, crate::error::ExecError> {
    let dst_slot = tags.slot_or_insert(dst_alias);
    let mut step_slots = Vec::with_capacity(steps.len());
    for s in steps {
        step_slots.push(
            tags.slot(&s.src)
                .ok_or_else(|| crate::error::ExecError::UnboundTag(s.src.clone()))?,
        );
    }
    // per-step edge labels are fixed across records: materialize them once
    let step_labels: Vec<Vec<LabelId>> = steps
        .iter()
        .map(|s| edge_labels(graph, &s.edge_constraint))
        .collect();
    let mut out = Vec::new();
    // scratch buffers reused across all records: the current candidate set,
    // the next step's sorted neighbour list, and the intersection output
    let mut cur: Vec<VertexId> = Vec::new();
    let mut step_buf: Vec<VertexId> = Vec::new();
    let mut merged: Vec<VertexId> = Vec::new();
    for rec in input {
        // intersect the sorted CSR neighbour lists step by step; `initialized`
        // distinguishes "no step ran yet" (no candidates at all) from an empty
        // intersection
        cur.clear();
        let mut initialized = false;
        for (i, (step, &slot)) in steps.iter().zip(&step_slots).enumerate() {
            let Some(src) = rec.get(slot).as_vertex() else {
                cur.clear();
                initialized = true;
                break;
            };
            if !initialized {
                gather_sorted_neighbors(graph, src, &step_labels[i], step.direction, &mut cur);
                initialized = true;
            } else {
                gather_sorted_neighbors(graph, src, &step_labels[i], step.direction, &mut step_buf);
                intersect_sorted_into(&cur, &step_buf, &mut merged);
                std::mem::swap(&mut cur, &mut merged);
            }
            if cur.is_empty() {
                break;
            }
        }
        if !initialized {
            continue;
        }
        for &v in &cur {
            if vertex_matches(
                graph,
                tags,
                rec,
                v,
                dst_constraint,
                dst_predicate,
                dst_alias,
                dst_slot,
            ) {
                out.push(rec.with(dst_slot, Entry::Vertex(v)));
            }
        }
    }
    Ok(out)
}

/// Variable-length path expansion from a bound source vertex.
#[allow(clippy::too_many_arguments)]
pub fn path_expand(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &mut TagMap,
    src: &str,
    dst_alias: &str,
    edge_constraint: &TypeConstraint,
    direction: Direction,
    min_hops: u32,
    max_hops: u32,
    semantics: PathSemantics,
    path_alias: Option<&str>,
) -> Result<Vec<Record>, crate::error::ExecError> {
    let src_slot = tags
        .slot(src)
        .ok_or_else(|| crate::error::ExecError::UnboundTag(src.to_string()))?;
    let dst_slot = tags.slot_or_insert(dst_alias);
    let path_slot = path_alias.map(|a| tags.slot_or_insert(a));
    let labels = edge_labels(graph, edge_constraint);
    let mut out = Vec::new();
    for rec in input {
        let Some(start) = rec.get(src_slot).as_vertex() else {
            continue;
        };
        expand_paths(
            graph,
            start,
            &labels,
            direction,
            min_hops,
            max_hops,
            semantics,
            None,
            &mut CommTally::default(),
            |path| {
                let dst = *path.last().expect("non-empty");
                let mut r = rec.with(dst_slot, Entry::Vertex(dst));
                if let Some(ps) = path_slot {
                    r.set(ps, Entry::Path(path.to_vec()));
                }
                out.push(r);
            },
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Compiled kernels over record batches
// ---------------------------------------------------------------------------
//
// Same algorithms and — bit for bit — the same emission order and predicates
// as the scalar functions above, but over `RecordBatch` columns: the source
// vertices of a whole batch are read from one contiguous column, predicates
// are compiled once per operator (tag → slot resolution hoisted out of the
// row loop), and outputs are built as selection vectors + fresh columns that
// are gathered column-by-column instead of cloning a `Vec<Entry>` per row.

use crate::batch::{BatchRow, Column, CompiledExpr, EntryRef, RecordBatch};

/// Whether `row` (with `overrides` on top) satisfies an optional predicate.
fn passes<G: GraphView>(
    pred: &Option<CompiledExpr>,
    graph: &G,
    batch: &RecordBatch,
    row: usize,
    overrides: &[(usize, EntryRef<'_>)],
) -> bool {
    pred.as_ref().is_none_or(|p| {
        p.eval_predicate(&BatchRow {
            graph,
            batch,
            row,
            overrides,
        })
    })
}

/// Check a candidate vertex against the destination constraint and compiled
/// predicate, probing with a slot override instead of cloning the row.
#[inline]
fn batch_vertex_matches<G: GraphView>(
    graph: &G,
    batch: &RecordBatch,
    row: usize,
    v: VertexId,
    constraint: &TypeConstraint,
    predicate: &Option<CompiledExpr>,
    slot: usize,
) -> bool {
    constraint.contains(graph.vertex_label(v))
        && passes(predicate, graph, batch, row, &[(slot, EntryRef::Vertex(v))])
}

/// Buffers of one [`ExpandKernel::run`]: the selection vector (input row per
/// output row, ascending) with the new destination / edge values beside it,
/// plus the kernels' internal scratch. A worker keeps one per stage and
/// reuses it for every morsel.
#[derive(Default)]
pub(crate) struct KernelScratch {
    pub(crate) sel: Vec<u32>,
    pub(crate) dst: Vec<VertexId>,
    pub(crate) edge: Vec<EdgeId>,
    candidates: Vec<(EdgeId, VertexId)>,
    /// Intersection: the running candidate set, the next step's neighbour
    /// list, and the merge output.
    cur: Vec<VertexId>,
    step_buf: Vec<VertexId>,
    merged: Vec<VertexId>,
}

/// A selection-vector expand (`EdgeExpand`, `ExpandInto`, `ExpandIntersect`)
/// with tags resolved, labels materialized and predicates compiled — all that
/// is hoisted out of the per-batch kernel. The morsel engine runs it as a
/// fused pipeline stage.
pub(crate) enum ExpandKernel<'p> {
    Edge(EdgeKernel<'p>),
    Into(EdgeKernel<'p>),
    Intersect(IntersectKernel<'p>),
}

/// `EdgeExpand` (binds `dst_slot` to each admitted neighbour of `src_slot`)
/// or `ExpandInto` (keeps the rows whose bound `src_slot` and `dst_slot` are
/// connected; no destination constraint or predicate).
pub(crate) struct EdgeKernel<'p> {
    src_slot: usize,
    dst_slot: usize,
    edge_slot: Option<usize>,
    labels: Vec<LabelId>,
    direction: Direction,
    dst: Option<(&'p TypeConstraint, Option<CompiledExpr>)>,
    edge_pred: Option<CompiledExpr>,
}

pub(crate) struct IntersectKernel<'p> {
    steps: &'p [IntersectStep],
    step_slots: Vec<usize>,
    step_labels: Vec<Vec<LabelId>>,
    dst_slot: usize,
    dst_constraint: &'p TypeConstraint,
    dst_pred: Option<CompiledExpr>,
}

pub(crate) fn bound(tags: &TagMap, tag: &str) -> Result<usize, crate::error::ExecError> {
    tags.slot(tag)
        .ok_or_else(|| crate::error::ExecError::UnboundTag(tag.to_string()))
}

impl<'p> ExpandKernel<'p> {
    /// Resolve `op` against `tags`, registering the aliases it binds. `None`
    /// when `op` is not a selection-vector expand.
    pub(crate) fn compile<G: GraphView>(
        graph: &G,
        op: &'p gopt_gir::physical::PhysicalOp,
        tags: &mut TagMap,
    ) -> Result<Option<Self>, crate::error::ExecError> {
        use gopt_gir::physical::PhysicalOp;
        let pred = |p: &Option<Expr>, tags: &TagMap| {
            p.as_ref().map(|p| CompiledExpr::compile(p, tags, graph))
        };
        Ok(Some(match op {
            PhysicalOp::EdgeExpand {
                src,
                edge_alias,
                edge_constraint,
                direction,
                dst_alias,
                dst_constraint,
                dst_predicate,
                edge_predicate,
            } => {
                let src_slot = bound(tags, src)?;
                let dst_slot = tags.slot_or_insert(dst_alias);
                ExpandKernel::Edge(EdgeKernel {
                    src_slot,
                    dst_slot,
                    edge_slot: edge_alias.as_deref().map(|a| tags.slot_or_insert(a)),
                    labels: edge_labels(graph, edge_constraint),
                    direction: *direction,
                    dst: Some((dst_constraint, pred(dst_predicate, tags))),
                    edge_pred: pred(edge_predicate, tags),
                })
            }
            PhysicalOp::ExpandInto {
                src,
                dst,
                edge_constraint,
                direction,
                edge_alias,
                edge_predicate,
            } => {
                let (src_slot, dst_slot) = (bound(tags, src)?, bound(tags, dst)?);
                ExpandKernel::Into(EdgeKernel {
                    src_slot,
                    dst_slot,
                    edge_slot: edge_alias.as_deref().map(|a| tags.slot_or_insert(a)),
                    labels: edge_labels(graph, edge_constraint),
                    direction: *direction,
                    dst: None,
                    edge_pred: pred(edge_predicate, tags),
                })
            }
            PhysicalOp::ExpandIntersect {
                steps,
                dst_alias,
                dst_constraint,
                dst_predicate,
            } => {
                let dst_slot = tags.slot_or_insert(dst_alias);
                let step_slots: Result<Vec<_>, _> =
                    steps.iter().map(|s| bound(tags, &s.src)).collect();
                // per-step edge labels are fixed across rows: materialize once
                let step_labels = steps.iter().map(|s| edge_labels(graph, &s.edge_constraint));
                ExpandKernel::Intersect(IntersectKernel {
                    steps,
                    step_slots: step_slots?,
                    step_labels: step_labels.collect(),
                    dst_slot,
                    dst_constraint,
                    dst_pred: pred(dst_predicate, tags),
                })
            }
            _ => return Ok(None),
        }))
    }

    /// The slot whose vertex routes a row to its shard, and the
    /// adjacency direction read from it (an intersection is performed on its
    /// first step source's partition).
    pub(crate) fn route(&self) -> (usize, Direction) {
        match self {
            ExpandKernel::Edge(k) | ExpandKernel::Into(k) => (k.src_slot, k.direction),
            ExpandKernel::Intersect(k) => (k.step_slots[0], k.steps[0].direction),
        }
    }

    /// The slot of the destination column this expand binds, if it binds one.
    pub(crate) fn dst_slot(&self) -> Option<usize> {
        match self {
            ExpandKernel::Edge(k) => Some(k.dst_slot),
            ExpandKernel::Intersect(k) => Some(k.dst_slot),
            ExpandKernel::Into(_) => None,
        }
    }

    /// The slot whose vertex the output rows are homed on.
    pub(crate) fn home_slot(&self) -> usize {
        self.dst_slot().unwrap_or(self.route().0)
    }

    /// The slot of the edge column this expand binds, if it binds one.
    pub(crate) fn edge_slot(&self) -> Option<usize> {
        match self {
            ExpandKernel::Edge(k) | ExpandKernel::Into(k) => k.edge_slot,
            ExpandKernel::Intersect(_) => None,
        }
    }

    /// Run the kernel over `batch`: one entry per produced row in `s.sel`
    /// (input-row indices, ascending) with the destination / edge values
    /// beside it. Returns the boundary crossings of a partitioned deployment:
    /// rows whose destination lives on another partition than their source
    /// (for an intersection: rows whose step sources span partitions and are
    /// shipped once to be intersected), served locally where hub replicas
    /// cover them.
    pub(crate) fn run<G: GraphView>(
        &self,
        graph: &G,
        batch: &RecordBatch,
        pm: Option<&PartitionMap>,
        s: &mut KernelScratch,
    ) -> CommTally {
        s.sel.clear();
        s.dst.clear();
        s.edge.clear();
        let mut comm = CommTally::default();
        for row in 0..batch.rows() {
            let vertex = |slot: usize| batch.entry(slot, row).as_vertex();
            let edge_ok = |k: &EdgeKernel<'_>, e: EdgeId| {
                let bound = k.edge_slot.map(|es| [(es, EntryRef::Edge(e))]);
                let bound = bound.as_ref().map_or(&[][..], |o| &o[..]);
                passes(&k.edge_pred, graph, batch, row, bound)
            };
            match self {
                ExpandKernel::Edge(k) => {
                    let (Some(src), Some((constraint, pred))) = (vertex(k.src_slot), &k.dst) else {
                        continue;
                    };
                    collect_expand_candidates(
                        graph,
                        src,
                        &k.labels,
                        k.direction,
                        &mut s.candidates,
                    );
                    for &(edge, neighbor) in s.candidates.iter() {
                        let (d, c) = (k.dst_slot, constraint);
                        if batch_vertex_matches(graph, batch, row, neighbor, c, pred, d)
                            && edge_ok(k, edge)
                        {
                            charge_crossing(pm, src, neighbor, &mut comm);
                            s.sel.push(row as u32);
                            s.dst.push(neighbor);
                            s.edge.push(edge);
                        }
                    }
                }
                ExpandKernel::Into(k) => {
                    let (Some(src), Some(dst)) = (vertex(k.src_slot), vertex(k.dst_slot)) else {
                        continue;
                    };
                    let edge = find_connecting_edge(graph, src, dst, &k.labels, k.direction);
                    if let Some(e) = edge.filter(|e| edge_ok(k, *e)) {
                        charge_crossing(pm, src, dst, &mut comm);
                        s.sel.push(row as u32);
                        s.edge.push(e);
                    }
                }
                ExpandKernel::Intersect(k) => {
                    let srcs = k.step_slots.iter().map(|&slot| vertex(slot));
                    if k.steps.len() > 1 {
                        let bound = srcs.clone().zip(k.steps);
                        let bound = bound.filter_map(|(v, step)| Some((v?, step.direction)));
                        charge_intersect_row(pm, bound, &mut comm);
                    }
                    // intersect the sorted CSR neighbour lists step by step;
                    // an unbound step source (or no step) leaves no candidates
                    s.cur.clear();
                    for (i, (src, step)) in srcs.zip(k.steps).enumerate() {
                        let Some(src) = src else {
                            s.cur.clear();
                            break;
                        };
                        let (labels, dir) = (&k.step_labels[i], step.direction);
                        if i == 0 {
                            gather_sorted_neighbors(graph, src, labels, dir, &mut s.cur);
                        } else {
                            gather_sorted_neighbors(graph, src, labels, dir, &mut s.step_buf);
                            intersect_sorted_into(&s.cur, &s.step_buf, &mut s.merged);
                            std::mem::swap(&mut s.cur, &mut s.merged);
                        }
                        if s.cur.is_empty() {
                            break;
                        }
                    }
                    let (c, pred, d) = (k.dst_constraint, &k.dst_pred, k.dst_slot);
                    for &v in s.cur.iter() {
                        if batch_vertex_matches(graph, batch, row, v, c, pred, d) {
                            s.sel.push(row as u32);
                            s.dst.push(v);
                        }
                    }
                }
            }
        }
        comm
    }

    /// The kernel output in `s` as batches of at most `batch_size` rows: the
    /// live columns of `src` gathered through the selection vector, with the
    /// new destination / edge columns installed where they are live.
    pub(crate) fn emit<'a>(
        &'a self,
        src: &'a RecordBatch,
        s: &'a KernelScratch,
        live: &'a [bool],
        batch_size: usize,
    ) -> impl Iterator<Item = RecordBatch> + 'a {
        (0..s.sel.len()).step_by(batch_size).map(move |at| {
            let range = at..(at + batch_size).min(s.sel.len());
            let mut out = src.gather_live(&s.sel[range.clone()], live);
            if let Some(slot) = self.dst_slot().filter(|&d| live[d]) {
                out.set_column(slot, Column::vertices(s.dst[range.clone()].to_vec()));
            }
            if let Some(slot) = self.edge_slot().filter(|&e| live[e]) {
                out.set_column(slot, Column::edges(s.edge[range].to_vec()));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::schema::fig6_schema;
    use gopt_graph::PropValue;

    fn graph() -> PropertyGraph {
        let mut b = GraphBuilder::new(fig6_schema());
        let p: Vec<_> = (0..4)
            .map(|i| {
                b.add_vertex_by_name(
                    "Person",
                    vec![
                        ("id", PropValue::Int(i)),
                        ("name", PropValue::str(format!("p{i}"))),
                    ],
                )
                .unwrap()
            })
            .collect();
        let place = b
            .add_vertex_by_name("Place", vec![("name", PropValue::str("China"))])
            .unwrap();
        b.add_edge_by_name("Knows", p[0], p[1], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[0], p[2], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[1], p[2], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[2], p[3], vec![]).unwrap();
        for v in &p {
            b.add_edge_by_name("LocatedIn", *v, place, vec![("w", PropValue::Int(1))])
                .unwrap();
        }
        b.finish()
    }

    fn person(g: &PropertyGraph) -> TypeConstraint {
        TypeConstraint::basic(g.schema().vertex_label("Person").unwrap())
    }
    fn knows(g: &PropertyGraph) -> TypeConstraint {
        TypeConstraint::basic(g.schema().edge_label("Knows").unwrap())
    }

    #[test]
    fn scan_with_constraint_and_predicate() {
        let g = graph();
        let mut tags = TagMap::new();
        let recs = scan(&g, &mut tags, "p", &person(&g), &None);
        assert_eq!(recs.len(), 4);
        let mut tags = TagMap::new();
        let recs = scan(
            &g,
            &mut tags,
            "p",
            &person(&g),
            &Some(Expr::prop_eq("p", "name", "p2")),
        );
        assert_eq!(recs.len(), 1);
        let mut tags = TagMap::new();
        let recs = scan(&g, &mut tags, "x", &TypeConstraint::all(), &None);
        assert_eq!(recs.len(), 5);
    }

    #[test]
    fn edge_expand_out_in_both() {
        let g = graph();
        let mut tags = TagMap::new();
        let input = scan(&g, &mut tags, "a", &person(&g), &None);
        let args = EdgeExpandArgs {
            src: "a",
            edge_alias: Some("e"),
            edge_constraint: &knows(&g),
            direction: Direction::Out,
            dst_alias: "b",
            dst_constraint: &person(&g),
            dst_predicate: &None,
            edge_predicate: &None,
        };
        let out = edge_expand(&g, &input, &mut tags, &args).unwrap();
        assert_eq!(out.len(), 4, "four Knows edges");
        // every output has the edge bound
        assert!(out
            .iter()
            .all(|r| r.get(tags.slot("e").unwrap()).as_edge().is_some()));

        let mut tags = TagMap::new();
        let input = scan(&g, &mut tags, "a", &person(&g), &None);
        let args = EdgeExpandArgs {
            src: "a",
            edge_alias: None,
            edge_constraint: &knows(&g),
            direction: Direction::In,
            dst_alias: "b",
            dst_constraint: &person(&g),
            dst_predicate: &None,
            edge_predicate: &None,
        };
        let out = edge_expand(&g, &input, &mut tags, &args).unwrap();
        assert_eq!(out.len(), 4);

        let mut tags = TagMap::new();
        let input = scan(&g, &mut tags, "a", &person(&g), &None);
        let args = EdgeExpandArgs {
            src: "a",
            edge_alias: None,
            edge_constraint: &knows(&g),
            direction: Direction::Both,
            dst_alias: "b",
            dst_constraint: &person(&g),
            dst_predicate: &None,
            edge_predicate: &None,
        };
        let out = edge_expand(&g, &input, &mut tags, &args).unwrap();
        assert_eq!(out.len(), 8);

        // unbound source tag errors
        let mut tags = TagMap::new();
        let err = edge_expand(&g, &[], &mut tags, &args);
        assert!(err.is_err());
    }

    #[test]
    fn expand_into_checks_edge_existence() {
        let g = graph();
        // bind a=p0, b=p2 (edge exists) and a=p1, b=p0 (no outgoing edge p1->p0)
        let mut tags = TagMap::new();
        let sa = tags.slot_or_insert("a");
        let sb = tags.slot_or_insert("b");
        let mut r1 = Record::new();
        r1.set(sa, Entry::Vertex(VertexId(0)));
        r1.set(sb, Entry::Vertex(VertexId(2)));
        let mut r2 = Record::new();
        r2.set(sa, Entry::Vertex(VertexId(1)));
        r2.set(sb, Entry::Vertex(VertexId(0)));
        let out = expand_into(
            &g,
            &[r1.clone(), r2.clone()],
            &mut tags,
            "a",
            "b",
            &knows(&g),
            Direction::Out,
            Some("e"),
            &None,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        // with Both direction the second record also matches (p0 -> p1 exists)
        let mut tags2 = TagMap::new();
        tags2.slot_or_insert("a");
        tags2.slot_or_insert("b");
        let out = expand_into(
            &g,
            &[r1, r2],
            &mut tags2,
            "a",
            "b",
            &knows(&g),
            Direction::Both,
            None,
            &None,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn expand_intersect_finds_common_neighbors() {
        let g = graph();
        // bind a=p0, b=p1; common out-neighbour over Knows is p2
        let mut tags = TagMap::new();
        let sa = tags.slot_or_insert("a");
        let sb = tags.slot_or_insert("b");
        let mut r = Record::new();
        r.set(sa, Entry::Vertex(VertexId(0)));
        r.set(sb, Entry::Vertex(VertexId(1)));
        let steps = vec![
            IntersectStep {
                src: "a".into(),
                edge_constraint: knows(&g),
                direction: Direction::Out,
                edge_alias: None,
            },
            IntersectStep {
                src: "b".into(),
                edge_constraint: knows(&g),
                direction: Direction::Out,
                edge_alias: None,
            },
        ];
        let out =
            expand_intersect(&g, &[r.clone()], &mut tags, &steps, "c", &person(&g), &None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].get(tags.slot("c").unwrap()).as_vertex(),
            Some(VertexId(2))
        );
        // with a predicate that rejects p2, nothing matches
        let mut tags2 = TagMap::new();
        tags2.slot_or_insert("a");
        tags2.slot_or_insert("b");
        let out = expand_intersect(
            &g,
            &[r],
            &mut tags2,
            &steps,
            "c",
            &person(&g),
            &Some(Expr::prop_eq("c", "name", "nonexistent")),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn path_expand_respects_hops_and_semantics() {
        let g = graph();
        let mut tags = TagMap::new();
        let sa = tags.slot_or_insert("a");
        let mut r = Record::new();
        r.set(sa, Entry::Vertex(VertexId(0)));
        // arbitrary paths of exactly 2 hops over Knows from p0: p0->1->2, p0->2->3 = 2
        let out = path_expand(
            &g,
            &[r.clone()],
            &mut tags,
            "a",
            "b",
            &knows(&g),
            Direction::Out,
            2,
            2,
            PathSemantics::Arbitrary,
            Some("path"),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let path_slot = tags.slot("path").unwrap();
        assert!(matches!(out[0].get(path_slot), Entry::Path(p) if p.len() == 3));
        // 1..2 hops includes the three 1-hop results as well
        let mut tags2 = TagMap::new();
        tags2.slot_or_insert("a");
        let out = path_expand(
            &g,
            &[r],
            &mut tags2,
            "a",
            "b",
            &knows(&g),
            Direction::Out,
            1,
            2,
            PathSemantics::Simple,
            None,
        )
        .unwrap();
        assert_eq!(out.len(), 2 + 2);
    }
}
