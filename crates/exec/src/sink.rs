//! Pipeline sinks: where the morsels of a pipeline end.
//!
//! Workers finish morsels in any order. What depends on row order happens in
//! one place per sink, a fold that an [`InOrder`] frontier applies strictly
//! **in morsel order** — so group first-encounter order, accumulator update
//! order, stable sort order, first-occurrence deduplication and the order of
//! collected rows are exactly the scalar oracle's. Workers do the rest
//! per batch, in parallel:
//!
//! * [`Sink::Collect`] keeps the batches (a `Limit` only the first `count`
//!   rows);
//! * [`GroupSink`] evaluates keys and aggregate inputs into columns — packed
//!   primitive keys for a single `tag.prop` key, nothing but the row count
//!   for `count(*)` — and the fold updates one group table;
//! * [`OrderSink`] sorts each batch on its own, keeping at most `limit` rows
//!   of it, and merges the sorted runs stably at the end;
//! * [`DedupSink`] evaluates keys per batch and the fold passes them through
//!   one seen-set.

use crate::batch::{BatchBuilder, Column, ColumnData, CompiledExpr, EntryRef, RecordBatch};
use crate::context::QueryContext;
use crate::error::LimitReason;
use crate::record::{Entry, TagMap};
use crate::relational::{self, Accumulator, PackedKey};
use gopt_gir::expr::{AggFunc, Expr, SortDir};
use gopt_gir::physical::PhysicalOp;
use gopt_graph::{GraphView, PropValue, VertexId};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;

type Fallible = Result<(), LimitReason>;

/// Folds the parts workers push for their morsels into `A` strictly in
/// morsel order. The morsel at the frontier folds its parts as they come;
/// parts of later morsels are parked until the frontier reaches them.
pub(crate) struct InOrder<P, A> {
    inner: Mutex<Frontier<P, A>>,
}

struct Frontier<P, A> {
    next: usize,
    /// Parts of morsels beyond the frontier, and whether the morsel is done.
    parked: BTreeMap<usize, (Vec<P>, bool)>,
    acc: A,
}

impl<P, A> InOrder<P, A> {
    fn new(acc: A) -> Self {
        InOrder {
            inner: Mutex::new(Frontier {
                next: 0,
                parked: BTreeMap::new(),
                acc,
            }),
        }
    }

    /// Hand in the next part of morsel `m`.
    fn push(&self, m: usize, part: P, fold: impl Fn(&mut A, P) -> Fallible) -> Fallible {
        let mut guard = self.inner.lock();
        let f = &mut *guard;
        if m == f.next {
            fold(&mut f.acc, part)
        } else {
            f.parked.entry(m).or_default().0.push(part);
            Ok(())
        }
    }

    /// Morsel `m` has handed in its last part: advance the frontier over
    /// every parked morsel that is done too.
    fn done(&self, m: usize, fold: impl Fn(&mut A, P) -> Fallible) -> Fallible {
        let mut guard = self.inner.lock();
        let f = &mut *guard;
        if m != f.next {
            f.parked.entry(m).or_default().1 = true;
            return Ok(());
        }
        f.next += 1;
        while let Some((parts, done)) = f.parked.remove(&f.next) {
            for part in parts {
                fold(&mut f.acc, part)?;
            }
            if !done {
                // still running: it folds its remaining parts itself
                break;
            }
            f.next += 1;
        }
        Ok(())
    }

    fn into_inner(self) -> A {
        self.inner.into_inner().acc
    }
}

/// The end of a pipeline.
pub(crate) enum Sink<'p> {
    /// Keep the batches; `Some(n)`: only the first `n` rows.
    Collect(InOrder<RecordBatch, (Vec<RecordBatch>, Option<usize>)>),
    Group(GroupSink<'p>),
    Order(OrderSink<'p>),
    Dedup(DedupSink),
}

impl<'p> Sink<'p> {
    /// A collecting sink keeping at most `limit` rows.
    pub(crate) fn collect(limit: Option<usize>) -> Self {
        Sink::Collect(InOrder::new((Vec::new(), limit)))
    }

    /// The sink of the breaker `op` over rows tagged `tags`.
    pub(crate) fn compile<G: GraphView>(graph: &G, op: &'p PhysicalOp, tags: &TagMap) -> Self {
        let compile = |e: &Expr| CompiledExpr::compile(e, tags, graph);
        match op {
            PhysicalOp::Limit { count } => Sink::collect(Some(*count)),
            PhysicalOp::HashGroup { keys, aggs } => {
                Sink::Group(GroupSink::new(graph, keys, aggs, tags))
            }
            PhysicalOp::OrderLimit { keys, limit } => Sink::Order(OrderSink {
                keys,
                compiled: keys.iter().map(|k| compile(&k.0)).collect(),
                limit: *limit,
                runs: InOrder::new(Vec::new()),
            }),
            PhysicalOp::Dedup { keys } => Sink::Dedup(DedupSink {
                compiled: keys.iter().map(compile).collect(),
                tags: tags.clone(),
                seen: InOrder::new((HashSet::new(), Vec::new())),
            }),
            other => unreachable!("{} is not a sink", other.name()),
        }
    }

    /// Whether this is a breaker's sink: the rows reaching it are gathered at
    /// the coordinator, and finishing it passes the `exec.merge` point.
    pub(crate) fn gathers(&self) -> bool {
        !matches!(self, Sink::Collect(_))
    }

    /// Take one batch of morsel `m`; `None`: the morsel is through.
    pub(crate) fn consume<G: GraphView>(
        &self,
        graph: &G,
        ctx: &QueryContext,
        m: usize,
        batch: Option<Cow<'_, RecordBatch>>,
    ) -> Fallible {
        /// Prepare the batch outside the frontier, fold the part inside it.
        fn hand_in<P, A>(
            folded: &InOrder<P, A>,
            m: usize,
            part: Option<P>,
            fold: impl Fn(&mut A, P) -> Fallible,
        ) -> Fallible {
            match part {
                Some(part) => folded.push(m, part, fold),
                None => folded.done(m, fold),
            }
        }
        match self {
            Sink::Collect(kept) => hand_in(kept, m, batch.map(Cow::into_owned), collect),
            Sink::Group(g) => {
                let part = batch.map(|b| g.evaluate(graph, &b));
                hand_in(&g.groups, m, part, |all, part| {
                    g.fold(graph, ctx, all, part)
                })
            }
            Sink::Order(o) => {
                let run = batch.map(|b| o.sort(graph, &b));
                hand_in(&o.runs, m, run, |runs, run: Run| {
                    ctx.charge_bytes(run.keys.len() as u64 * relational::SORT_ROW_BYTES)?;
                    runs.push(run);
                    Ok(())
                })
            }
            Sink::Dedup(d) => {
                let part = batch.map(|b| (d.keys(graph, &b), b.into_owned()));
                let fold = |acc: &mut _, part| first_occurrences(ctx, acc, part);
                hand_in(&d.seen, m, part, fold)
            }
        }
    }

    /// All morsels are through: the output batches (of `width` columns, cut
    /// at `batch_size` rows), the output tags (`None`: the input's) and the
    /// metered bytes of the state given up.
    pub(crate) fn finish<G: GraphView>(
        self,
        graph: &G,
        width: usize,
        batch_size: usize,
    ) -> (Vec<RecordBatch>, Option<TagMap>, u64) {
        match self {
            Sink::Collect(kept) => (kept.into_inner().0, None, 0),
            Sink::Group(g) => {
                let (out, tags, state) = g.finish(graph, batch_size);
                (out, Some(tags), state)
            }
            Sink::Order(o) => {
                let runs = o.runs.into_inner();
                let mut order: Vec<(usize, usize)> = runs
                    .iter()
                    .enumerate()
                    .flat_map(|(ri, run)| (0..run.keys.len()).map(move |row| (ri, row)))
                    .collect();
                // stable, and the runs are in morsel order: ties fall to the
                // earlier row, as in one sort over all rows
                let key = |(ri, row): (usize, usize)| runs[ri].keys[row].as_slice();
                order.sort_by(|&a, &b| relational::cmp_sort_keys(key(a), key(b), o.keys));
                let state = order.len() as u64 * relational::SORT_ROW_BYTES;
                order.truncate(o.limit.unwrap_or(usize::MAX));
                let mut builder = BatchBuilder::new(width, batch_size);
                for (ri, row) in order {
                    builder.push_row_from(&runs[ri].rows, row, &[]);
                }
                (builder.finish(), None, state)
            }
            Sink::Dedup(d) => {
                let (seen, out) = d.seen.into_inner();
                (out, None, seen.len() as u64 * relational::DEDUP_KEY_BYTES)
            }
        }
    }
}

fn collect(kept: &mut (Vec<RecordBatch>, Option<usize>), batch: RecordBatch) -> Fallible {
    let (out, remaining) = kept;
    let batch = match remaining {
        Some(r) if batch.rows() > *r => {
            let prefix: Vec<u32> = (0..*r as u32).collect();
            *r = 0;
            batch.gather(&prefix, batch.width())
        }
        Some(r) => {
            *r -= batch.rows();
            batch
        }
        None => batch,
    };
    if !batch.is_empty() {
        out.push(batch);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// HashGroup
// ---------------------------------------------------------------------------

/// Kind tag of a packed key that stands for a vertex id whose property value
/// (the real key) is looked up once per distinct vertex when the table is
/// unpacked — for property columns the packed domain does not cover, such as
/// strings longer than eight bytes.
const VERTEX_KEY: u8 = 4;

/// What an aggregate needs from each row.
enum AggInput {
    /// `Count` of a value that is never null (`count(*)`): just the row.
    Rows,
    /// `Count`: whether the value is null.
    NonNull(CompiledExpr),
    /// Everything else: the value.
    Value(CompiledExpr),
}

/// One aggregate's input over the rows of a batch.
enum AggColumn {
    Rows,
    NonNull(Vec<bool>),
    Values(Vec<PropValue>),
}

/// The grouping keys of the rows of a batch.
enum KeyColumn {
    /// No keys: one group.
    Keyless,
    /// A single `tag.prop` key as packed primitives.
    Packed(Vec<PackedKey>),
    /// Evaluated key values; per key, the input column of a bare-tag key,
    /// whose group keeps the element entry instead of its value.
    Boxed(Vec<Vec<PropValue>>, Vec<Option<Column>>),
}

/// One batch evaluated for grouping: what the fold reads.
struct GroupPart {
    rows: usize,
    keys: KeyColumn,
    inputs: Vec<AggColumn>,
}

/// First-encounter-ordered key → group index.
#[derive(Default)]
struct Keyed<K> {
    slots: HashMap<K, usize>,
    order: Vec<K>,
}

impl<K: Hash + Eq + Clone> Keyed<K> {
    /// The group of `key`, and whether it is new.
    fn slot(&mut self, key: K) -> (usize, bool) {
        let n = self.order.len();
        match self.slots.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.order.push(e.key().clone());
                e.insert(n);
                (n, true)
            }
        }
    }
}

/// The group table: groups in first-encounter order, one accumulator per
/// aggregate each.
#[derive(Default)]
struct Groups {
    /// Packed keys (the representative entry of a group is its key's value;
    /// keyless grouping uses one constant key) until a batch brings keys
    /// that do not pack.
    packed: Option<Keyed<PackedKey>>,
    /// Evaluated keys, and the groups' representative key entries.
    boxed: Keyed<Vec<PropValue>>,
    reps: Vec<Vec<Entry>>,
    accs: Vec<Accumulator>,
}

/// The `HashGroup` sink.
pub(crate) struct GroupSink<'p> {
    aggs: &'p [(AggFunc, Expr, String)],
    keys: Vec<CompiledExpr>,
    passthrough: Vec<Option<usize>>,
    inputs: Vec<AggInput>,
    /// Every aggregate is a `Count`: groups may merge in any order, so rows
    /// can group on a vertex id in place of its property value.
    count_only: bool,
    out_tags: TagMap,
    groups: InOrder<GroupPart, Groups>,
}

impl<'p> GroupSink<'p> {
    fn new<G: GraphView>(
        graph: &G,
        keys: &'p [(Expr, String)],
        aggs: &'p [(AggFunc, Expr, String)],
        tags: &TagMap,
    ) -> Self {
        let mut out_tags = TagMap::new();
        for alias in keys.iter().map(|k| &k.1).chain(aggs.iter().map(|a| &a.2)) {
            out_tags.slot_or_insert(alias);
        }
        let compile = |e: &Expr| CompiledExpr::compile(e, tags, graph);
        let inputs = aggs.iter().map(|(func, e, _)| match (func, compile(e)) {
            (AggFunc::Count, CompiledExpr::Literal(v)) if !v.is_null() => AggInput::Rows,
            (AggFunc::Count, e) => AggInput::NonNull(e),
            (_, e) => AggInput::Value(e),
        });
        let passthrough = keys.iter().map(|(e, _)| match e {
            Expr::Tag(t) => tags.slot(t),
            _ => None,
        });
        GroupSink {
            aggs,
            keys: keys.iter().map(|k| compile(&k.0)).collect(),
            passthrough: passthrough.collect(),
            inputs: inputs.collect(),
            count_only: aggs.iter().all(|a| a.0 == AggFunc::Count),
            out_tags,
            groups: InOrder::new(Groups {
                packed: (keys.len() <= 1).then(Keyed::default),
                ..Groups::default()
            }),
        }
    }

    /// The packed keys of a single-key batch: the typed Int/Date/short-Str
    /// path, else — when group merge order is free — the vertex ids.
    fn packed_keys<G: GraphView>(&self, graph: &G, batch: &RecordBatch) -> Option<Vec<PackedKey>> {
        let [key] = self.keys.as_slice() else {
            return None;
        };
        relational::packed_group_keys(graph, batch, key).or_else(|| {
            let CompiledExpr::Prop {
                slot: Some(slot), ..
            } = key
            else {
                return None;
            };
            let column = batch.column(*slot).filter(|_| self.count_only)?;
            let ColumnData::Vertex(ids) = column.data() else {
                return None;
            };
            let valid = column.validity();
            let keys = ids.iter().enumerate().map(|(row, v)| match valid.get(row) {
                true => (VERTEX_KEY, v.0 as i64),
                false => (0, 0),
            });
            Some(keys.collect())
        })
    }

    /// Evaluate the keys and aggregate inputs of one batch into columns.
    fn evaluate<G: GraphView>(&self, graph: &G, batch: &RecordBatch) -> GroupPart {
        let rows = 0..batch.rows();
        let eval = |row, e| relational::batch_eval(graph, batch, row, e);
        let keys = if self.keys.is_empty() {
            KeyColumn::Keyless
        } else if let Some(packed) = self.packed_keys(graph, batch) {
            KeyColumn::Packed(packed)
        } else {
            let key_of = |row| self.keys.iter().map(|e| eval(row, e)).collect();
            let passed = |pt: &Option<usize>| pt.and_then(|slot| batch.column(slot).cloned());
            KeyColumn::Boxed(
                rows.clone().map(key_of).collect(),
                self.passthrough.iter().map(passed).collect(),
            )
        };
        let inputs = self.inputs.iter().map(|input| match input {
            AggInput::Rows => AggColumn::Rows,
            AggInput::NonNull(CompiledExpr::Slot(Some(slot))) => {
                let bound = |row| match batch.entry(*slot, row) {
                    EntryRef::Null => false,
                    EntryRef::Value(v) => !v.is_null(),
                    _ => true,
                };
                AggColumn::NonNull(rows.clone().map(bound).collect())
            }
            AggInput::NonNull(e) => {
                AggColumn::NonNull(rows.clone().map(|row| !eval(row, e).is_null()).collect())
            }
            AggInput::Value(e) => AggColumn::Values(rows.clone().map(|row| eval(row, e)).collect()),
        });
        GroupPart {
            rows: batch.rows(),
            inputs: inputs.collect(),
            keys,
        }
    }

    /// The value a packed key stands for (a [`VERTEX_KEY`]: its vertex's
    /// property).
    fn value_of<G: GraphView>(&self, graph: &G, k: PackedKey) -> PropValue {
        match (k.0, self.keys.first()) {
            (VERTEX_KEY, Some(CompiledExpr::Prop { key: Some(p), .. })) => graph
                .vertex_prop(VertexId(k.1 as u64), *p)
                .unwrap_or(PropValue::Null),
            (VERTEX_KEY, _) => PropValue::Null,
            _ => relational::unpack_group_key(k),
        }
    }

    /// Stop packing: every packed key becomes its value, and groups whose
    /// values coincide — which only vertex keys of a count-only table can —
    /// merge, the earlier one first.
    fn unpack<G: GraphView>(&self, graph: &G, all: &mut Groups) {
        let Some(packed) = all.packed.take() else {
            return;
        };
        let stride = self.aggs.len();
        let mut old = std::mem::take(&mut all.accs).into_iter();
        for k in packed.order {
            let value = self.value_of(graph, k);
            let (g, new) = all.boxed.slot(vec![value; self.keys.len()]);
            if new {
                let rep = all.boxed.order[g].iter().cloned().map(Entry::Value);
                all.reps.push(rep.collect());
                all.accs.extend(old.by_ref().take(stride));
            } else {
                for (acc, later) in all.accs[g * stride..]
                    .iter_mut()
                    .zip(old.by_ref().take(stride))
                {
                    acc.add_count(later.count());
                }
            }
        }
    }

    /// Update the group table with one batch, in row order.
    fn fold<G: GraphView>(
        &self,
        graph: &G,
        ctx: &QueryContext,
        all: &mut Groups,
        part: GroupPart,
    ) -> Fallible {
        if part.rows == 0 {
            return Ok(());
        }
        let stride = self.aggs.len();
        // the group of every row
        let mut group_of: Vec<usize> = Vec::with_capacity(part.rows);
        let keys = match (part.keys, &mut all.packed) {
            (KeyColumn::Keyless, Some(packed)) => {
                group_of.resize(part.rows, packed.slot((0, 0)).0);
                None
            }
            (KeyColumn::Packed(keys), Some(packed)) => {
                let mut last = None;
                for k in keys {
                    let g = match last {
                        Some((lk, g)) if lk == k => g,
                        _ => packed.slot(k).0,
                    };
                    last = Some((k, g));
                    group_of.push(g);
                }
                None
            }
            // the table was unpacked by an earlier batch: unpack these keys
            (KeyColumn::Packed(keys), None) => {
                let key = |k| vec![self.value_of(graph, k)];
                Some((keys.into_iter().map(key).collect(), vec![None]))
            }
            (KeyColumn::Boxed(keys, passed), _) => Some((keys, passed)),
            (KeyColumn::Keyless, None) => unreachable!("a keyless table stays packed"),
        };
        if let Some((keys, passed)) = keys {
            let keys: Vec<Vec<PropValue>> = keys;
            self.unpack(graph, all);
            for (row, key) in keys.into_iter().enumerate() {
                let (g, new) = all.boxed.slot(key);
                if new {
                    let rep = |(col, v): (&Option<Column>, &PropValue)| match col {
                        Some(col) => col.entry(row).to_entry(),
                        None => Entry::Value(v.clone()),
                    };
                    all.reps
                        .push(passed.iter().zip(&all.boxed.order[g]).map(rep).collect());
                }
                group_of.push(g);
            }
        }
        let groups = all
            .packed
            .as_ref()
            .map_or(all.boxed.order.len(), |p| p.order.len());
        while all.accs.len() < groups * stride {
            ctx.charge_bytes(relational::GROUP_STATE_BYTES)?;
            all.accs
                .extend(self.aggs.iter().map(|a| Accumulator::new(a.0)));
        }
        for (j, input) in part.inputs.into_iter().enumerate() {
            let acc_of = |g: &usize| g * stride + j;
            match input {
                AggColumn::Rows if self.keys.is_empty() => all.accs[j].add_count(part.rows as u64),
                AggColumn::Rows => group_of
                    .iter()
                    .for_each(|g| all.accs[acc_of(g)].add_count(1)),
                AggColumn::NonNull(bound) => {
                    for (g, _) in group_of.iter().zip(bound).filter(|(_, bound)| *bound) {
                        all.accs[acc_of(g)].add_count(1);
                    }
                }
                AggColumn::Values(values) => {
                    for (g, v) in group_of.iter().zip(values) {
                        all.accs[acc_of(g)].update(v);
                    }
                }
            }
        }
        Ok(())
    }

    /// One output row per group, in first-encounter order: representative
    /// key entries, then the finished aggregates.
    fn finish<G: GraphView>(
        mut self,
        graph: &G,
        batch_size: usize,
    ) -> (Vec<RecordBatch>, TagMap, u64) {
        let all = std::mem::replace(&mut self.groups, InOrder::new(Groups::default()));
        let mut all = all.into_inner();
        self.unpack(graph, &mut all);
        let state = all.reps.len() as u64 * relational::GROUP_STATE_BYTES;
        let mut builder = BatchBuilder::new(self.out_tags.len(), batch_size);
        let mut accs = all.accs.into_iter();
        for rep in all.reps {
            let finished: Vec<Entry> = (accs.by_ref().take(self.aggs.len()))
                .map(|acc| Entry::Value(acc.finish()))
                .collect();
            builder.push_row(rep.iter().chain(&finished).map(EntryRef::from_entry));
        }
        (builder.finish(), self.out_tags, state)
    }
}

// ---------------------------------------------------------------------------
// OrderLimit
// ---------------------------------------------------------------------------

/// Rows sorted by their keys (stably), keys beside them.
struct Run {
    keys: Vec<Vec<PropValue>>,
    rows: RecordBatch,
}

/// The `OrderLimit` sink.
pub(crate) struct OrderSink<'p> {
    keys: &'p [(Expr, SortDir)],
    compiled: Vec<CompiledExpr>,
    limit: Option<usize>,
    /// The sorted runs, in morsel order.
    runs: InOrder<Run, Vec<Run>>,
}

impl OrderSink<'_> {
    /// Sort one batch into a run of the at most `limit` rows of it that can
    /// reach the output.
    fn sort<G: GraphView>(&self, graph: &G, batch: &RecordBatch) -> Run {
        let mut keys: Vec<Option<Vec<PropValue>>> = (0..batch.rows())
            .map(|row| {
                let eval = |e| relational::batch_eval(graph, batch, row, e);
                Some(self.compiled.iter().map(eval).collect())
            })
            .collect();
        let key = |r: u32| keys[r as usize].as_deref().expect("taken once");
        let mut order: Vec<u32> = (0..batch.rows() as u32).collect();
        order.sort_by(|&a, &b| relational::cmp_sort_keys(key(a), key(b), self.keys));
        order.truncate(self.limit.unwrap_or(usize::MAX));
        Run {
            rows: batch.gather(&order, batch.width()),
            keys: (order.iter())
                .map(|&r| keys[r as usize].take().expect("taken once"))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Dedup
// ---------------------------------------------------------------------------

/// The `Dedup` sink.
pub(crate) struct DedupSink {
    compiled: Vec<CompiledExpr>,
    tags: TagMap,
    seen: InOrder<DedupPart, (HashSet<Vec<PropValue>>, Vec<RecordBatch>)>,
}

/// A batch with the deduplication key of each of its rows.
type DedupPart = (Vec<Vec<PropValue>>, RecordBatch);

impl DedupSink {
    fn keys<G: GraphView>(&self, graph: &G, batch: &RecordBatch) -> Vec<Vec<PropValue>> {
        let width = relational::keyless_dedup_width(&self.tags, batch.width());
        (0..batch.rows())
            .map(|row| match self.compiled.is_empty() {
                true => (0..width).map(|s| batch.entry(s, row).to_value()).collect(),
                false => self
                    .compiled
                    .iter()
                    .map(|e| relational::batch_eval(graph, batch, row, e))
                    .collect(),
            })
            .collect()
    }
}

/// Keep the rows of `batch` whose key was not seen before.
fn first_occurrences(
    ctx: &QueryContext,
    (seen, out): &mut (HashSet<Vec<PropValue>>, Vec<RecordBatch>),
    (keys, batch): DedupPart,
) -> Fallible {
    let mut sel: Vec<u32> = Vec::new();
    for (row, key) in keys.into_iter().enumerate() {
        if seen.insert(key) {
            ctx.charge_bytes(relational::DEDUP_KEY_BYTES)?;
            sel.push(row as u32);
        }
    }
    if sel.len() == batch.rows() {
        out.push(batch);
    } else if !sel.is_empty() {
        out.push(batch.gather(&sel, batch.width()));
    }
    Ok(())
}
