//! Fused morsel pipelines: how a physical plan is cut at its breakers, which
//! tags each operator's output still has a reader for, and the streaming
//! stages a worker carries one morsel through.
//!
//! Every operator has a [`Role`]. *Streaming* operators never materialize
//! their output: [`cut`] chains them into the pipeline of the operator that
//! reads them. A *sink* ends a pipeline and folds its morsels in morsel
//! order; a *transform* reads materialized inputs. The root and any operator
//! with several readers end a pipeline too, with a sink that only collects.
//! One [`Unit`] is the work that materializes one such output.
//!
//! [`liveness`] walks the plan once from the root: the caller reads all of
//! the root's tags; `Project` and `HashGroup` read only the tags their
//! expressions name; everything else passes its readers' needs through plus
//! its own. A stage gathers only live slots — a dead one is carried as an
//! *absent* column (see [`RecordBatch::gather_live`]) — and a `PropertyFetch`
//! none of whose `tag.prop` columns is live does not run at all: compiled
//! expressions read properties from the graph's typed columns, not from
//! fetched ones.

use crate::batch::{self, BatchBuilder, BatchRow, Column, CompiledExpr, EntryRef, RecordBatch};
use crate::context::{self, QueryContext, TaskAbort};
use crate::error::{ExecError, LimitReason};
use crate::expand::{self, CommTally, ExpandKernel, KernelScratch};
use crate::kernel::{self, TypedPred};
use crate::parallel::{ship_bytes, Home, ParallelEngine};
use crate::record::TagMap;
use crate::relational;
use crate::sink::Sink;
use gopt_gir::expr::Expr;
use gopt_gir::pattern::{Direction, PathSemantics};
use gopt_gir::physical::{PhysicalNodeId, PhysicalOp, PhysicalPlan};
use gopt_graph::{GraphView, LabelId, PartitionMap, VertexId};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// The tags of an operator's output that some reader still names; `None`:
/// every tag — the rows leave the plan (or meet a keyless `Dedup`) as they
/// are.
pub(crate) type Live = Option<BTreeSet<String>>;

/// The live slots of `tags`.
pub(crate) fn mask(live: &Live, tags: &TagMap) -> Vec<bool> {
    let is_live = |t: &String| live.as_ref().is_none_or(|l| l.contains(t));
    tags.tags().iter().map(is_live).collect()
}

/// Whether any column a `PropertyFetch` of `tag` adds (`tag.prop`) is live.
fn fetch_is_live(live: &Live, tag: &str, props: &Option<Vec<String>>) -> bool {
    fn fetched<'t>(t: &'t str, tag: &str) -> Option<&'t str> {
        t.strip_prefix(tag)?.strip_prefix('.')
    }
    let Some(live) = live else { return true };
    let mut names = live.iter().filter_map(|t| fetched(t, tag));
    match props {
        Some(ps) => names.any(|p| ps.iter().any(|q| q == p)),
        None => names.next().is_some(),
    }
}

/// For every plan node (by id), the tags of its output that a reader names:
/// one backward pass from the root.
pub(crate) fn liveness(plan: &PhysicalPlan) -> Vec<Live> {
    let order = plan.topo_order();
    let mut out: Vec<Live> = vec![Some(BTreeSet::new()); plan.len()];
    if let Some(root) = order.last() {
        out[root.0] = None;
    }
    for id in order.into_iter().rev() {
        let op = plan.op(id);
        let need = match op {
            PhysicalOp::Project { .. } | PhysicalOp::HashGroup { .. } => Some(op.reads()),
            // keyless deduplication compares whole rows
            PhysicalOp::Dedup { keys } if keys.is_empty() => None,
            PhysicalOp::PropertyFetch { tag, props } if !fetch_is_live(&out[id.0], tag, props) => {
                out[id.0].clone()
            }
            _ => out[id.0].clone().map(|mut live| {
                let binds = op.binds();
                live.retain(|t| !binds.contains(&t.as_str()));
                live.extend(op.reads());
                live
            }),
        };
        for &i in plan.inputs(id) {
            match (&mut out[i.0], &need) {
                (Some(a), Some(b)) => a.extend(b.iter().cloned()),
                (a, _) => *a = None,
            }
        }
    }
    out
}

/// How an operator takes part in pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Processes a morsel at a time and hands it on: fuses into the pipeline
    /// of its reader.
    Stream,
    /// Ends the pipeline of its input, folding the morsels in morsel order.
    Sink,
    /// Reads materialized inputs and materializes its output.
    Transform,
}

/// The role of `op`, given the liveness of its output.
pub(crate) fn role(op: &PhysicalOp, live: &Live) -> Role {
    match op {
        PhysicalOp::Scan { .. }
        | PhysicalOp::Select { .. }
        | PhysicalOp::Project { .. }
        | PhysicalOp::EdgeExpand { .. }
        | PhysicalOp::ExpandInto { .. }
        | PhysicalOp::ExpandIntersect { .. }
        | PhysicalOp::PathExpand { .. } => Role::Stream,
        // which `tag.prop` slots a live fetch registers depends on the rows
        // it meets, in order: it runs over its whole input
        PhysicalOp::PropertyFetch { tag, props } => match fetch_is_live(live, tag, props) {
            true => Role::Transform,
            false => Role::Stream,
        },
        PhysicalOp::HashGroup { .. }
        | PhysicalOp::OrderLimit { .. }
        | PhysicalOp::Dedup { .. }
        | PhysicalOp::Limit { .. } => Role::Sink,
        PhysicalOp::HashJoin { .. } | PhysicalOp::Union => Role::Transform,
    }
}

/// The work that materializes the output of one plan node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Unit {
    /// The node whose output this unit materializes.
    pub(crate) out: PhysicalNodeId,
    /// The streaming operators fused in front of it, in plan order; ends
    /// with `out` itself when `out` streams (its sink then only collects).
    /// Empty for a transform.
    pub(crate) chain: Vec<PhysicalNodeId>,
    /// The materialized output the chain reads; `None` when the chain starts
    /// at a `Scan` (and for a transform, which reads all its plan inputs).
    pub(crate) input: Option<PhysicalNodeId>,
}

impl Unit {
    /// Whether `out` is the last stage of the chain, not a sink behind it.
    pub(crate) fn collects(&self) -> bool {
        self.chain.last() == Some(&self.out)
    }

    /// The plan nodes this unit executes, in topological order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = PhysicalNodeId> + '_ {
        let sink = (!self.collects()).then_some(self.out);
        self.chain.iter().copied().chain(sink)
    }

    /// The materialized outputs this unit reads.
    pub(crate) fn reads<'a>(&'a self, plan: &'a PhysicalPlan) -> &'a [PhysicalNodeId] {
        match &self.input {
            Some(i) => std::slice::from_ref(i),
            None if self.chain.is_empty() => plan.inputs(self.out),
            None => &[],
        }
    }
}

/// Cut `plan` into units, in an order that is topological over the plan's
/// nodes (the chains of one node's inputs come before the node).
pub(crate) fn cut(plan: &PhysicalPlan, live: &[Live]) -> Vec<Unit> {
    let order = plan.topo_order();
    let role_of = |id: PhysicalNodeId| role(plan.op(id), &live[id.0]);
    let mut readers = vec![0usize; plan.len()];
    for i in order.iter().flat_map(|id| plan.inputs(*id)) {
        readers[i.0] += 1;
    }
    // a streaming node fuses into its reader when that reader is its only
    // one and takes a pipeline as input
    let mut fused = vec![false; plan.len()];
    for &id in order.iter().filter(|id| role_of(**id) != Role::Transform) {
        if let Some(&i) = plan.inputs(id).first() {
            fused[i.0] = role_of(i) == Role::Stream && readers[i.0] == 1;
        }
    }
    let mut units = Vec::new();
    for &id in order.iter().filter(|id| !fused[id.0]) {
        let mut unit = Unit {
            out: id,
            chain: Vec::new(),
            input: None,
        };
        let mut cur = match role_of(id) {
            Role::Stream => Some(id),
            Role::Sink => plan.inputs(id).first().copied(),
            Role::Transform => None,
        };
        while let Some(c) = cur {
            if c != id && !fused[c.0] {
                unit.input = Some(c);
                break;
            }
            unit.chain.push(c);
            cur = plan.inputs(c).first().copied();
        }
        unit.chain.reverse();
        units.push(unit);
    }
    units
}

/// A compiled `PathExpand`.
pub(crate) struct PathKernel {
    src_slot: usize,
    dst_slot: usize,
    path_slot: Option<usize>,
    labels: Vec<LabelId>,
    direction: Direction,
    hops: (u32, u32),
    semantics: PathSemantics,
}

impl PathKernel {
    /// Expand every row of `batch`: the output rows (live slots only, cut at
    /// `batch_size`) and the partition crossings of the traversal (every hop
    /// that crosses counts).
    fn run<G: GraphView>(
        &self,
        graph: &G,
        batch: &RecordBatch,
        pm: Option<&PartitionMap>,
        live: &[bool],
        batch_size: usize,
    ) -> (Vec<RecordBatch>, CommTally) {
        let mut builder = BatchBuilder::with_live(live, batch_size);
        let mut comm = CommTally::default();
        let (min, max) = self.hops;
        for row in 0..batch.rows() {
            let Some(start) = batch.entry(self.src_slot, row).as_vertex() else {
                continue;
            };
            let emit = |path: &[VertexId]| {
                let dst = *path.last().expect("non-empty");
                // an unused override names no slot
                let mut overrides = [(usize::MAX, EntryRef::Null); 2];
                overrides[0] = (self.dst_slot, EntryRef::Vertex(dst));
                if let Some(slot) = self.path_slot {
                    overrides[1] = (slot, EntryRef::Path(path));
                }
                builder.push_row_from(batch, row, &overrides);
            };
            let (labels, dir, sem) = (&self.labels, self.direction, self.semantics);
            expand::expand_paths(
                graph, start, labels, dir, min, max, sem, pm, &mut comm, emit,
            );
        }
        (builder.finish(), comm)
    }
}

/// One compiled streaming operator.
pub(crate) enum Stage<'p> {
    /// Rows pass untouched and are only counted: a `Scan` without predicate,
    /// a dead `PropertyFetch`.
    Pass,
    /// Keep the rows satisfying a predicate (`Select`, a `Scan`'s pushed-down
    /// predicate): the typed column kernel when it covers the shape, the
    /// row-wise compiled evaluator otherwise.
    Filter(CompiledExpr, Option<TypedPred>),
    /// An expand, with where its input rows live (which its route reads).
    Expand(ExpandKernel<'p>, Home),
    Path(PathKernel, Home),
    Project {
        items: &'p [(Expr, String)],
        in_tags: TagMap,
        /// Set when the projection drops the tag the rows are distributed
        /// by: they are gathered at the coordinator from this home.
        gathered_from: Option<Home>,
    },
}

impl<'p> Stage<'p> {
    pub(crate) fn filter<G: GraphView>(graph: &G, predicate: &Expr, tags: &TagMap) -> Self {
        let pred = CompiledExpr::compile(predicate, tags, graph);
        let typed = TypedPred::compile(&pred);
        Stage::Filter(pred, typed)
    }

    /// Compile the streaming operator `op` (anything but a `Scan`) against
    /// the tags and row placement of its input, advancing both to its output.
    pub(crate) fn compile<G: GraphView>(
        graph: &G,
        op: &'p PhysicalOp,
        tags: &mut TagMap,
        home: &mut Home,
    ) -> Result<Self, ExecError> {
        if let Some(k) = ExpandKernel::compile(graph, op, tags)? {
            let from = std::mem::replace(home, Home::Tag(k.home_slot()));
            return Ok(Stage::Expand(k, from));
        }
        Ok(match op {
            PhysicalOp::PathExpand {
                src,
                dst_alias,
                edge_constraint,
                direction,
                min_hops,
                max_hops,
                semantics,
                path_alias,
            } => {
                let src_slot = expand::bound(tags, src)?;
                let dst_slot = tags.slot_or_insert(dst_alias);
                let kernel = PathKernel {
                    src_slot,
                    dst_slot,
                    path_slot: path_alias.as_deref().map(|a| tags.slot_or_insert(a)),
                    labels: expand::edge_labels(graph, edge_constraint),
                    direction: *direction,
                    hops: (*min_hops, *max_hops),
                    semantics: *semantics,
                };
                Stage::Path(kernel, std::mem::replace(home, Home::Tag(dst_slot)))
            }
            PhysicalOp::Select { predicate } => Stage::filter(graph, predicate, tags),
            PhysicalOp::Project { items } => {
                let in_tags = std::mem::take(tags);
                for (_, alias) in items {
                    tags.slot_or_insert(alias);
                }
                // rows do not move, but a projection that drops the tag they
                // are distributed by loses their placement
                let gathered_from = match *home {
                    Home::Tag(r) => {
                        let keeps = |(e, _): &(Expr, String)| matches!(e, Expr::Tag(t) if in_tags.slot(t) == Some(r));
                        match items.iter().position(keeps) {
                            Some(out_slot) => {
                                *home = Home::Tag(out_slot);
                                None
                            }
                            None => Some(std::mem::replace(home, Home::Coordinator)),
                        }
                    }
                    Home::Coordinator => None,
                };
                Stage::Project {
                    items,
                    in_tags,
                    gathered_from,
                }
            }
            PhysicalOp::PropertyFetch { .. } => Stage::Pass,
            other => unreachable!("{} does not stream", other.name()),
        })
    }
}

/// A compiled pipeline: the stages a morsel runs through, each with the live
/// slots of its output, and the sink that takes what comes out.
pub(crate) struct Pipeline<'a, 'p, G> {
    pub(crate) engine: &'a ParallelEngine<'a, G>,
    pub(crate) ctx: &'a QueryContext,
    pub(crate) stages: &'a [(Stage<'p>, Vec<bool>)],
    pub(crate) sink: &'a Sink<'p>,
    /// Where the rows reaching the sink live.
    pub(crate) home: Home,
}

/// What one worker counted: rows out of each stage, and the rows, bytes and
/// replica-served hits of the gathers its morsels crossed.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) rows: Vec<u64>,
    pub(crate) comm: CommTally,
    pub(crate) comm_bytes: u64,
}

impl Tally {
    pub(crate) fn add(&mut self, other: &Tally) {
        self.rows.resize(other.rows.len(), 0);
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            *a += b;
        }
        self.comm += other.comm;
        self.comm_bytes += other.comm_bytes;
    }
}

/// Unwind out of a pooled task with a limit hit; the phase maps it back to
/// the typed error.
fn abort_on<T>(r: Result<T, LimitReason>) -> T {
    r.unwrap_or_else(|reason| std::panic::panic_any(TaskAbort::Limit(reason)))
}

/// One worker's side of a pipeline: per-stage kernel scratch reused across
/// the morsels it claims, and its counters.
pub(crate) struct Worker<'a, 'p, G> {
    p: &'a Pipeline<'a, 'p, G>,
    scratch: Vec<KernelScratch>,
    sel: Vec<u32>,
    pub(crate) tally: Tally,
    morsel: usize,
}

impl<'a, 'p, G: GraphView> Worker<'a, 'p, G> {
    pub(crate) fn new(p: &'a Pipeline<'a, 'p, G>) -> Self {
        Worker {
            p,
            scratch: p.stages.iter().map(|_| KernelScratch::default()).collect(),
            sel: Vec::new(),
            tally: Tally {
                rows: vec![0; p.stages.len()],
                ..Tally::default()
            },
            morsel: 0,
        }
    }

    /// Carry source morsel `m` through every stage into the sink.
    pub(crate) fn run(&mut self, m: usize, batch: Cow<'_, RecordBatch>) {
        let p = self.p;
        context::worker_checkpoint(p.ctx);
        self.morsel = m;
        self.push(0, batch);
        abort_on(p.sink.consume(p.engine.graph(), p.ctx, m, None));
    }

    /// A batch leaves stage `i`: count it, then hand it on.
    fn emit(&mut self, i: usize, batch: Cow<'_, RecordBatch>) {
        let rows = batch.rows() as u64;
        if rows > 0 {
            self.tally.rows[i] += rows;
            abort_on(self.p.ctx.add_records(rows));
            abort_on(self.p.ctx.check());
            self.push(i + 1, batch);
        }
    }

    fn charge_gather(&mut self, batch: &RecordBatch, home: Home) {
        let (records, bytes) = self.p.engine.gather_comm(std::slice::from_ref(batch), home);
        self.tally.comm.shipped += records;
        self.tally.comm_bytes += bytes;
    }

    /// Charge one batch through an expand: its route (`None` with one
    /// partition: nothing to charge) and the kernel's boundary crossings,
    /// which ship their share of the `out_bytes` of its `out_rows` outputs.
    fn charge_expand(
        &mut self,
        routed: Option<(CommTally, u64)>,
        crossed: CommTally,
        out_bytes: u64,
        out_rows: usize,
    ) {
        let Some((route, route_bytes)) = routed else {
            return;
        };
        self.tally.comm += route;
        self.tally.comm += crossed;
        self.tally.comm_bytes +=
            route_bytes + ship_bytes(out_bytes, out_rows as u64, crossed.shipped);
    }

    fn push(&mut self, i: usize, batch: Cow<'_, RecordBatch>) {
        let p = self.p;
        let graph = p.engine.graph();
        let Some((stage, live)) = p.stages.get(i) else {
            if p.sink.gathers() {
                self.charge_gather(&batch, p.home);
            }
            return abort_on(p.sink.consume(graph, p.ctx, self.morsel, Some(batch)));
        };
        let bs = p.engine.batch_size();
        match stage {
            Stage::Pass => self.emit(i, batch),
            Stage::Filter(pred, typed) => {
                let mut sel = std::mem::take(&mut self.sel);
                sel.clear();
                let typed = typed.as_ref();
                if !typed.is_some_and(|t| kernel::eval_typed_predicate(t, graph, &batch, &mut sel))
                {
                    let keeps = |row: &usize| {
                        pred.eval_predicate(&BatchRow {
                            graph,
                            batch: &batch,
                            row: *row,
                            overrides: &[],
                        })
                    };
                    sel.extend((0..batch.rows()).filter(keeps).map(|row| row as u32));
                }
                let out = match sel.len() == batch.rows() {
                    true => batch,
                    false => Cow::Owned(batch.gather_live(&sel, live)),
                };
                self.sel = sel;
                self.emit(i, out);
            }
            Stage::Expand(k, from) => {
                let routed = p.engine.route(&batch, k.route(), *from);
                let mut s = std::mem::take(&mut self.scratch[i]);
                let mut crossed = k.run(graph, &batch, p.engine.pmap(), &mut s);
                if let (Some(_), ExpandKernel::Intersect(_)) = (routed, k) {
                    crossed += p.engine.target_comm(&batch, k.route().0, &s.sel, &s.dst);
                }
                let mut out_bytes = 0;
                for out in k.emit(&batch, &s, live, bs) {
                    if routed.is_some() {
                        out_bytes += out.approx_bytes();
                    }
                    self.emit(i, Cow::Owned(out));
                }
                self.charge_expand(routed, crossed, out_bytes, s.sel.len());
                self.scratch[i] = s;
            }
            Stage::Path(k, from) => {
                let routed = p.engine.route(&batch, (k.src_slot, k.direction), *from);
                let (out, crossed) = k.run(graph, &batch, p.engine.pmap(), live, bs);
                if routed.is_some() {
                    let bytes = out.iter().map(RecordBatch::approx_bytes).sum();
                    self.charge_expand(routed, crossed, bytes, batch::total_rows(&out));
                }
                for out in out {
                    self.emit(i, Cow::Owned(out));
                }
            }
            Stage::Project {
                items,
                in_tags,
                gathered_from,
            } => {
                if let Some(home) = gathered_from {
                    self.charge_gather(&batch, *home);
                }
                let batch = std::slice::from_ref(&*batch);
                let (mut out, _) = relational::project_batches(graph, batch, in_tags, items);
                self.emit(i, Cow::Owned(out.pop().expect("one batch in, one out")));
            }
        }
    }
}

/// The one-column batch of a `Scan` morsel.
pub(crate) fn scan_batch(ids: &[VertexId]) -> RecordBatch {
    RecordBatch::from_columns(vec![Column::vertices(ids.to_vec())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_gir::expr::{AggFunc, SortDir};
    use gopt_gir::logical::JoinType;
    use gopt_gir::physical::IntersectStep;
    use gopt_gir::types::TypeConstraint;

    fn scan(alias: &str) -> PhysicalOp {
        PhysicalOp::Scan {
            alias: alias.into(),
            constraint: TypeConstraint::all(),
            predicate: None,
        }
    }

    fn expand(src: &str, edge: Option<&str>, dst: &str) -> PhysicalOp {
        PhysicalOp::EdgeExpand {
            src: src.into(),
            edge_alias: edge.map(Into::into),
            edge_constraint: TypeConstraint::all(),
            direction: Direction::Out,
            dst_alias: dst.into(),
            dst_constraint: TypeConstraint::all(),
            dst_predicate: None,
            edge_predicate: None,
        }
    }

    fn count_star(keys: Vec<(Expr, String)>) -> PhysicalOp {
        PhysicalOp::HashGroup {
            keys,
            aggs: vec![(AggFunc::Count, Expr::lit(1), "cnt".into())],
        }
    }

    fn fetch(tag: &str, props: Option<&[&str]>) -> PhysicalOp {
        PhysicalOp::PropertyFetch {
            tag: tag.into(),
            props: props.map(|ps| ps.iter().map(|p| p.to_string()).collect()),
        }
    }

    fn tags(names: &[&str]) -> Live {
        Some(names.iter().map(|t| t.to_string()).collect())
    }

    fn unit(out: usize, chain: &[usize], input: Option<usize>) -> Unit {
        Unit {
            out: PhysicalNodeId(out),
            chain: chain.iter().copied().map(PhysicalNodeId).collect(),
            input: input.map(PhysicalNodeId),
        }
    }

    #[test]
    fn every_operator_has_a_role() {
        let all = TypeConstraint::all;
        let expands = [
            expand("a", None, "b"),
            PhysicalOp::ExpandInto {
                src: "a".into(),
                dst: "b".into(),
                edge_constraint: all(),
                direction: Direction::Out,
                edge_alias: None,
                edge_predicate: None,
            },
            PhysicalOp::ExpandIntersect {
                steps: vec![IntersectStep {
                    src: "a".into(),
                    edge_constraint: all(),
                    direction: Direction::Out,
                    edge_alias: None,
                }],
                dst_alias: "c".into(),
                dst_constraint: all(),
                dst_predicate: None,
            },
            PhysicalOp::PathExpand {
                src: "a".into(),
                dst_alias: "b".into(),
                edge_constraint: all(),
                direction: Direction::Out,
                min_hops: 1,
                max_hops: 2,
                semantics: PathSemantics::Arbitrary,
                path_alias: None,
            },
        ];
        // expands stream at every partition count
        let fixed = expands.into_iter().map(|op| (op, Role::Stream));
        let fixed = fixed.chain([
            (scan("a"), Role::Stream),
            (
                PhysicalOp::Select {
                    predicate: Expr::lit(true),
                },
                Role::Stream,
            ),
            (PhysicalOp::Project { items: vec![] }, Role::Stream),
            (count_star(vec![]), Role::Sink),
            (
                PhysicalOp::OrderLimit {
                    keys: vec![(Expr::tag("a"), SortDir::Asc)],
                    limit: Some(3),
                },
                Role::Sink,
            ),
            (PhysicalOp::Dedup { keys: vec![] }, Role::Sink),
            (PhysicalOp::Limit { count: 1 }, Role::Sink),
            (
                PhysicalOp::HashJoin {
                    keys: vec!["a".into()],
                    kind: JoinType::Inner,
                },
                Role::Transform,
            ),
            (PhysicalOp::Union, Role::Transform),
        ]);
        for (op, want) in fixed {
            assert_eq!(role(&op, &None), want, "{}", op.name());
        }
        // a fetch runs only while one of its columns has a reader
        let explicit = fetch("t", Some(&["name"]));
        assert_eq!(role(&explicit, &None), Role::Transform);
        assert_eq!(role(&explicit, &tags(&["t.name"])), Role::Transform);
        assert_eq!(
            role(&explicit, &tags(&["t", "t.id", "tx.name"])),
            Role::Stream
        );
        assert_eq!(role(&fetch("t", None), &tags(&["t.id"])), Role::Transform);
        assert_eq!(
            role(&fetch("t", None), &tags(&["t", "tx.id"])),
            Role::Stream
        );
    }

    #[test]
    fn liveness_follows_the_readers() {
        // everything the root outputs stays live, all the way up
        let mut plan = PhysicalPlan::new();
        plan.push(scan("a"));
        plan.push(expand("a", Some("e"), "b"));
        assert_eq!(liveness(&plan), [None, None]);

        // count(*) reads nothing: an expand's aliases die with it, its
        // source does not; a dead fetch does not keep its tag alive
        let mut plan = PhysicalPlan::new();
        plan.push(scan("a"));
        plan.push(expand("a", Some("e"), "b"));
        plan.push(expand("b", None, "c"));
        plan.push(fetch("c", Some(&["name"])));
        plan.push(count_star(vec![]));
        plan.push(PhysicalOp::OrderLimit {
            keys: vec![(Expr::tag("cnt"), SortDir::Desc)],
            limit: None,
        });
        let live = liveness(&plan);
        assert_eq!(
            live[..4],
            [tags(&["a"]), tags(&["b"]), tags(&[]), tags(&[])]
        );
        assert_eq!(live[4..], [None, None], "the root's tags are the caller's");

        // the same fetch is live when a reader names its column as a tag
        let mut plan = PhysicalPlan::new();
        plan.push(scan("c"));
        plan.push(fetch("c", Some(&["name"])));
        plan.push(count_star(vec![(Expr::tag("c.name"), "n".into())]));
        // (a name its input does not have marks no slot)
        assert_eq!(
            liveness(&plan)[..2],
            [tags(&["c", "c.name"]), tags(&["c.name"])]
        );

        // join keys stay live on both sides; keyed Dedup keeps its keys and
        // passes its readers' needs through, keyless Dedup reads whole rows
        let mut plan = PhysicalPlan::new();
        let l0 = plan.add(scan("a"), vec![]);
        let l1 = plan.add(expand("a", None, "b"), vec![l0]);
        let r0 = plan.add(scan("a"), vec![]);
        let r1 = plan.add(expand("a", None, "c"), vec![r0]);
        let join = PhysicalOp::HashJoin {
            keys: vec!["a".into()],
            kind: JoinType::Inner,
        };
        let j = plan.add(join, vec![l1, r1]);
        let dedup = PhysicalOp::Dedup {
            keys: vec![Expr::tag("b")],
        };
        let d = plan.add(dedup, vec![j]);
        let project = PhysicalOp::Project {
            items: vec![(Expr::prop("c", "id"), "id".into())],
        };
        plan.add(project, vec![d]);
        let live = liveness(&plan);
        assert_eq!(live[d.0], tags(&["c"]));
        assert_eq!(live[j.0], tags(&["b", "c"]));
        assert_eq!(live[l1.0], tags(&["a", "b", "c"]));
        assert_eq!(live[r1.0], live[l1.0]);
        assert_eq!(live[l0.0], tags(&["a", "c"]));
        assert_eq!(live[r0.0], tags(&["a", "b"]));
        let mut plan = PhysicalPlan::new();
        plan.push(scan("a"));
        plan.push(PhysicalOp::Dedup { keys: vec![] });
        plan.push(count_star(vec![]));
        assert_eq!(liveness(&plan)[0], None);
    }

    #[test]
    fn cut_fuses_streams_and_breaks_at_sinks_and_transforms() {
        let mut plan = PhysicalPlan::new();
        plan.push(scan("a"));
        plan.push(expand("a", None, "b"));
        plan.push(fetch("b", None));
        plan.push(PhysicalOp::Limit { count: 5 });
        plan.push(expand("b", None, "c"));
        plan.push(count_star(vec![(Expr::prop("c", "id"), "id".into())]));
        plan.push(PhysicalOp::Project {
            items: vec![(Expr::tag("cnt"), "cnt".into())],
        });
        let live = liveness(&plan);
        // whole chains fuse, Limit cuts mid-chain, the root collects
        let units = cut(&plan, &live);
        assert_eq!(
            units,
            [
                unit(3, &[0, 1, 2], None),
                unit(5, &[4], Some(3)),
                unit(6, &[6], Some(5))
            ]
        );
        let nodes: Vec<usize> = units.iter().flat_map(Unit::nodes).map(|n| n.0).collect();
        assert_eq!(nodes, [0, 1, 2, 3, 4, 5, 6], "every node once, in order");

        // both sides of a join (and of a union) fuse up to it; a node with
        // two readers is materialized once
        let mut plan = PhysicalPlan::new();
        let s = plan.add(scan("a"), vec![]);
        let shared = plan.add(expand("a", None, "b"), vec![s]);
        let l = plan.add(expand("b", None, "c"), vec![shared]);
        let r = plan.add(expand("b", None, "d"), vec![shared]);
        let join = PhysicalOp::HashJoin {
            keys: vec!["b".into()],
            kind: JoinType::Inner,
        };
        let j = plan.add(join, vec![l, r]);
        let u = plan.add(PhysicalOp::Union, vec![j, shared]);
        plan.add(PhysicalOp::Limit { count: 1 }, vec![u]);
        let units = cut(&plan, &liveness(&plan));
        assert_eq!(
            units,
            [
                unit(1, &[0, 1], None),
                unit(2, &[2], Some(1)),
                unit(3, &[3], Some(1)),
                unit(4, &[], None),
                unit(5, &[], None),
                unit(6, &[], Some(5))
            ]
        );
        assert_eq!(units[3].reads(&plan), [l, r]);
        assert_eq!(units[4].reads(&plan), [j, shared]);
    }
}
