//! Relational physical operators: select, project, aggregation, ordering, joins, union.
//!
//! The scalar forms operate on [`Record`]s and evaluate GIR expressions through
//! [`RecordContext`], so predicates and projections can freely mix graph property access
//! with computed values. They are the oracle's.
//!
//! The morsel engine runs `Select` as a pipeline stage and `HashGroup`, `OrderLimit`,
//! `Dedup` and `Limit` as sinks (`crate::sink`), built on the shared helpers here:
//! compiled-expression evaluation (`batch_eval`), packed group/sort keys,
//! accumulators and the sort-key comparator. Four operators still have a batched
//! form the engine calls directly on `RecordBatch` columns: [`project_batches`],
//! [`property_fetch_batches`], [`union_batches`] and [`hash_join_batches`]. Every
//! form emits the scalar form's rows in the scalar form's order.

use crate::context::{QueryContext, Ticker};
use crate::error::ExecError;
use crate::record::{Entry, Record, RecordContext, TagMap};
use gopt_gir::expr::{AggFunc, Expr, SortDir};
use gopt_gir::logical::JoinType;
use gopt_graph::{GraphView, PropValue, PropertyGraph};
use std::collections::HashMap;

/// Approximate accountable bytes per aggregation group (key, representative
/// entries, accumulators) — charged against the query's memory budget once per
/// new group, identically on every engine.
pub(crate) const GROUP_STATE_BYTES: u64 = 160;
/// Approximate accountable bytes per sort-key row buffered by `OrderLimit`.
pub(crate) const SORT_ROW_BYTES: u64 = 48;
/// Approximate accountable bytes per distinct key retained by `Dedup`.
pub(crate) const DEDUP_KEY_BYTES: u64 = 48;

fn eval(graph: &PropertyGraph, tags: &TagMap, record: &Record, expr: &Expr) -> PropValue {
    expr.evaluate(&RecordContext {
        graph,
        tags,
        record,
    })
}

/// Filter records by a predicate.
pub fn select(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &TagMap,
    predicate: &Expr,
) -> Vec<Record> {
    input
        .iter()
        .filter(|r| {
            predicate.evaluate_predicate(&RecordContext {
                graph,
                tags,
                record: r,
            })
        })
        .cloned()
        .collect()
}

/// Project each record onto `(expr AS alias)*`, producing a fresh tag map.
pub fn project(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &TagMap,
    items: &[(Expr, String)],
) -> (Vec<Record>, TagMap) {
    let mut out_tags = TagMap::new();
    let mut passthrough: Vec<Option<usize>> = Vec::with_capacity(items.len());
    for (expr, alias) in items {
        out_tags.slot_or_insert(alias);
        // a bare tag projection of a graph element keeps the element entry (so later
        // property access still works); everything else becomes a computed value
        passthrough.push(match expr {
            Expr::Tag(t) => tags.slot(t),
            _ => None,
        });
    }
    let records = input
        .iter()
        .map(|r| {
            let mut out = Record::new();
            for (i, (expr, _alias)) in items.iter().enumerate() {
                let entry = match passthrough[i] {
                    Some(slot) => r.get(slot).clone(),
                    None => Entry::Value(eval(graph, tags, r, expr)),
                };
                out.set(i, entry);
            }
            out
        })
        .collect();
    (records, out_tags)
}

/// Materialise properties of a bound element into the record (the paper's `COLUMNS`).
///
/// Each fetched property `p` of tag `t` is appended as a value column tagged `t.p`.
/// When `props` is `None`, all properties declared by the schema for the element's label
/// are fetched — the behaviour of an un-trimmed plan.
pub fn property_fetch(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &mut TagMap,
    tag: &str,
    props: &Option<Vec<String>>,
) -> Result<Vec<Record>, ExecError> {
    let slot = tags
        .slot(tag)
        .ok_or_else(|| ExecError::UnboundTag(tag.to_string()))?;
    // resolve the property list lazily per element label when `props` is None
    let explicit: Option<Vec<String>> = props.clone();
    let mut out = Vec::with_capacity(input.len());
    for r in input {
        let mut nr = r.clone();
        let names: Vec<String> = match (&explicit, r.get(slot)) {
            (Some(ps), _) => ps.clone(),
            (None, Entry::Vertex(v)) => graph
                .schema()
                .vertex_label_def(graph.vertex_label(*v))
                .properties
                .iter()
                .map(|p| p.name.clone())
                .collect(),
            (None, Entry::Edge(e)) => graph
                .schema()
                .edge_label_def(graph.edge_label(*e))
                .properties
                .iter()
                .map(|p| p.name.clone())
                .collect(),
            (None, _) => vec![],
        };
        for name in names {
            let col = format!("{tag}.{name}");
            let s = tags.slot_or_insert(&col);
            let value = match r.get(slot) {
                Entry::Vertex(v) => graph.vertex_prop_by_name(*v, &name),
                Entry::Edge(e) => graph.edge_prop_by_name(*e, &name),
                _ => None,
            };
            nr.set(s, Entry::Value(value.unwrap_or(PropValue::Null)));
        }
        out.push(nr);
    }
    Ok(out)
}

/// Hash aggregation: group by `keys`, compute `aggs`, output one record per group with a
/// fresh tag map (keys first, then aggregates). Accumulation is a pipeline breaker, so
/// the loop ticks `ctx` (cancellation/deadline) and charges the budget per new group.
pub fn hash_group(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &TagMap,
    keys: &[(Expr, String)],
    aggs: &[(AggFunc, Expr, String)],
    ctx: &QueryContext,
) -> Result<(Vec<Record>, TagMap), ExecError> {
    let mut out_tags = TagMap::new();
    let mut key_passthrough: Vec<Option<usize>> = Vec::new();
    for (expr, alias) in keys {
        out_tags.slot_or_insert(alias);
        key_passthrough.push(match expr {
            Expr::Tag(t) => tags.slot(t),
            _ => None,
        });
    }
    for (_, _, alias) in aggs {
        out_tags.slot_or_insert(alias);
    }
    // group index: key values -> (representative key entries, accumulators)
    let mut groups: HashMap<Vec<PropValue>, (Vec<Entry>, Vec<Accumulator>)> = HashMap::new();
    let mut group_order: Vec<Vec<PropValue>> = Vec::new();
    let mut ticker = Ticker::new();
    for r in input {
        ticker.tick(ctx).map_err(ExecError::LimitExceeded)?;
        let key_vals: Vec<PropValue> = keys.iter().map(|(e, _)| eval(graph, tags, r, e)).collect();
        let before = group_order.len();
        let entry = group_entry(
            &mut groups,
            &mut group_order,
            key_vals.clone(),
            aggs,
            || {
                keys.iter()
                    .enumerate()
                    .map(|(i, _)| match key_passthrough[i] {
                        Some(slot) => r.get(slot).clone(),
                        None => Entry::Value(key_vals[i].clone()),
                    })
                    .collect()
            },
        );
        for (acc, (_, e, _)) in entry.1.iter_mut().zip(aggs) {
            acc.update(eval(graph, tags, r, e));
        }
        if group_order.len() > before {
            ctx.charge_bytes(GROUP_STATE_BYTES)
                .map_err(ExecError::LimitExceeded)?;
        }
    }
    let records = group_order
        .into_iter()
        .map(|k| {
            let (reps, accs) = groups.remove(&k).expect("group exists");
            let mut rec = Record::new();
            let mut slot = 0;
            for rep in reps {
                rec.set(slot, rep);
                slot += 1;
            }
            for acc in accs {
                rec.set(slot, Entry::Value(acc.finish()));
                slot += 1;
            }
            rec
        })
        .collect();
    Ok((records, out_tags))
}

/// Aggregate accumulator.
#[derive(Debug, Clone)]
pub(crate) struct Accumulator {
    func: AggFunc,
    count: u64,
    sum: f64,
    int_only: bool,
    min: Option<PropValue>,
    max: Option<PropValue>,
    distinct: std::collections::HashSet<PropValue>,
}

impl Accumulator {
    pub(crate) fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            int_only: true,
            min: None,
            max: None,
            distinct: std::collections::HashSet::new(),
        }
    }

    /// Count `n` more non-null inputs of a `Count` aggregate.
    #[inline]
    pub(crate) fn add_count(&mut self, n: u64) {
        self.count += n;
    }

    /// The non-null inputs seen so far.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    pub(crate) fn update(&mut self, v: PropValue) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(f) = v.as_float() {
            self.sum += f;
            if !matches!(
                v,
                PropValue::Int(_) | PropValue::Bool(_) | PropValue::Date(_)
            ) {
                self.int_only = false;
            }
        }
        if self.min.as_ref().is_none_or(|m| v < *m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > *m) {
            self.max = Some(v.clone());
        }
        if matches!(self.func, AggFunc::CountDistinct) {
            self.distinct.insert(v);
        }
    }

    pub(crate) fn finish(self) -> PropValue {
        match self.func {
            AggFunc::Count => PropValue::Int(self.count as i64),
            AggFunc::CountDistinct => PropValue::Int(self.distinct.len() as i64),
            AggFunc::Sum => {
                if self.int_only {
                    PropValue::Int(self.sum as i64)
                } else {
                    PropValue::Float(self.sum)
                }
            }
            AggFunc::Min => self.min.unwrap_or(PropValue::Null),
            AggFunc::Max => self.max.unwrap_or(PropValue::Null),
            AggFunc::Avg => {
                if self.count == 0 {
                    PropValue::Null
                } else {
                    PropValue::Float(self.sum / self.count as f64)
                }
            }
        }
    }
}

/// Sort records by `keys`; keep only the first `limit` when given. The key
/// buffer is metered against the context's memory budget and key evaluation
/// ticks the context like every other pipeline-breaker accumulation loop.
pub fn order_limit(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &TagMap,
    keys: &[(Expr, SortDir)],
    limit: Option<usize>,
    ctx: &QueryContext,
) -> Result<Vec<Record>, ExecError> {
    ctx.charge_bytes(input.len() as u64 * SORT_ROW_BYTES)
        .map_err(ExecError::LimitExceeded)?;
    let mut ticker = Ticker::new();
    let mut keyed: Vec<(Vec<PropValue>, &Record)> = Vec::with_capacity(input.len());
    for r in input {
        ticker.tick(ctx).map_err(ExecError::LimitExceeded)?;
        keyed.push((
            keys.iter().map(|(e, _)| eval(graph, tags, r, e)).collect(),
            r,
        ));
    }
    keyed.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(ka, kb, keys));
    let take = limit.unwrap_or(keyed.len());
    Ok(keyed
        .into_iter()
        .take(take)
        .map(|(_, r)| r.clone())
        .collect())
}

/// Compare two evaluated sort-key rows under the per-key directions — the one
/// comparator every ordering path (the scalar sort, the sink's run merge) shares.
pub(crate) fn cmp_sort_keys(
    a: &[PropValue],
    b: &[PropValue],
    keys: &[(Expr, SortDir)],
) -> std::cmp::Ordering {
    for (i, (_, dir)) in keys.iter().enumerate() {
        let ord = a[i].cmp(&b[i]);
        let ord = match dir {
            SortDir::Asc => ord,
            SortDir::Desc => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// The row width keyless `Dedup` compares over: every tag slot, plus any
/// physical slots beyond the tag map. Records shorter than this are padded
/// with nulls, so two records representing the same logical row compare equal
/// regardless of their physical entry-vector length. Extracted so the scalar and
/// pipeline deduplication paths cannot drift on the invariant.
pub(crate) fn keyless_dedup_width(tags: &TagMap, physical_len: usize) -> usize {
    tags.len().max(physical_len)
}

/// Keep the first `count` records.
pub fn limit(input: &[Record], count: usize) -> Vec<Record> {
    input.iter().take(count).cloned().collect()
}

/// Remove duplicate records with respect to the given key expressions (or the whole
/// row when no keys are given).
///
/// Keyless deduplication compares rows over all `tags.len()` slots (padding short
/// records with nulls), so two records representing the same logical row compare equal
/// regardless of their physical entry-vector length — this keeps the scalar and the
/// morsel engine (where every row always spans the full batch width) in agreement.
pub fn dedup(
    graph: &PropertyGraph,
    input: &[Record],
    tags: &TagMap,
    keys: &[Expr],
    ctx: &QueryContext,
) -> Result<Vec<Record>, ExecError> {
    let mut seen: std::collections::HashSet<Vec<PropValue>> = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut ticker = Ticker::new();
    for r in input {
        ticker.tick(ctx).map_err(ExecError::LimitExceeded)?;
        let key: Vec<PropValue> = if keys.is_empty() {
            (0..keyless_dedup_width(tags, r.len()))
                .map(|s| r.get(s).to_value())
                .collect()
        } else {
            keys.iter().map(|e| eval(graph, tags, r, e)).collect()
        };
        if seen.insert(key) {
            ctx.charge_bytes(DEDUP_KEY_BYTES)
                .map_err(ExecError::LimitExceeded)?;
            out.push(r.clone());
        }
    }
    Ok(out)
}

/// Concatenate several inputs, remapping each input's slots onto the first input's tag
/// map (tags missing from the first map are appended).
pub fn union(inputs: &[(&[Record], &TagMap)]) -> (Vec<Record>, TagMap) {
    let mut out_tags = TagMap::new();
    for (_, t) in inputs {
        for tag in t.tags() {
            out_tags.slot_or_insert(tag);
        }
    }
    let mut out = Vec::new();
    for (records, t) in inputs {
        for r in *records {
            let mut nr = Record::new();
            for (i, tag) in t.tags().iter().enumerate() {
                nr.set(
                    out_tags.slot(tag).expect("tag registered"),
                    r.get(i).clone(),
                );
            }
            out.push(nr);
        }
    }
    (out, out_tags)
}

/// Hash join of two inputs on equality of `keys` (tags bound on both sides).
pub fn hash_join(
    left: &[Record],
    left_tags: &TagMap,
    right: &[Record],
    right_tags: &TagMap,
    keys: &[String],
    kind: JoinType,
) -> Result<(Vec<Record>, TagMap), ExecError> {
    let mut lkey_slots = Vec::new();
    let mut rkey_slots = Vec::new();
    for k in keys {
        lkey_slots.push(
            left_tags
                .slot(k)
                .ok_or_else(|| ExecError::UnboundTag(k.clone()))?,
        );
        rkey_slots.push(
            right_tags
                .slot(k)
                .ok_or_else(|| ExecError::UnboundTag(k.clone()))?,
        );
    }
    // output tag map: left tags then the right tags that are new
    let mut out_tags = left_tags.clone();
    let mut right_extra: Vec<(usize, usize)> = Vec::new(); // (right slot, out slot)
    for (i, tag) in right_tags.tags().iter().enumerate() {
        if !left_tags.contains(tag) {
            let s = out_tags.slot_or_insert(tag);
            right_extra.push((i, s));
        }
    }
    // build on the right
    let mut table: HashMap<Vec<PropValue>, Vec<&Record>> = HashMap::new();
    for r in right {
        let key: Vec<PropValue> = rkey_slots.iter().map(|&s| r.get(s).to_value()).collect();
        table.entry(key).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left {
        let key: Vec<PropValue> = lkey_slots.iter().map(|&s| l.get(s).to_value()).collect();
        let matches = table.get(&key);
        match kind {
            JoinType::Inner | JoinType::LeftOuter => {
                if let Some(ms) = matches {
                    for m in ms {
                        let mut rec = l.clone();
                        for &(rs, os) in &right_extra {
                            rec.set(os, m.get(rs).clone());
                        }
                        out.push(rec);
                    }
                } else if kind == JoinType::LeftOuter {
                    let mut rec = l.clone();
                    for &(_, os) in &right_extra {
                        rec.set(os, Entry::Null);
                    }
                    out.push(rec);
                }
            }
            JoinType::Semi => {
                if matches.is_some() {
                    out.push(l.clone());
                }
            }
            JoinType::Anti => {
                if matches.is_none() {
                    out.push(l.clone());
                }
            }
        }
    }
    Ok((out, out_tags))
}

// ---------------------------------------------------------------------------
// Batched (vectorized) variants
// ---------------------------------------------------------------------------
//
// Column-at-a-time code the morsel engine runs: expressions are compiled once
// per operator (tag → slot resolution and property-key interning hoisted out
// of the row loop), and outputs are built column-wise or gathered through row
// indices.

use crate::batch::{
    total_rows, BatchBuilder, BatchRow, Column, ColumnData, CompiledExpr, EntryRef, RecordBatch,
};
use gopt_graph::{ColumnRef, NullBitmap, PropKeyId, TypedColumn};

#[inline]
pub(crate) fn batch_eval<G: GraphView>(
    graph: &G,
    batch: &RecordBatch,
    row: usize,
    expr: &CompiledExpr,
) -> PropValue {
    expr.eval(&BatchRow {
        graph,
        batch,
        row,
        overrides: &[],
    })
}

/// Locate (or create, in first-encounter order) the grouping state of `key`;
/// `make_reps` materialises the representative key entries only when the
/// group is new.
pub(crate) fn group_entry<'a, K: std::hash::Hash + Eq + Clone>(
    groups: &'a mut HashMap<K, (Vec<Entry>, Vec<Accumulator>)>,
    group_order: &mut Vec<K>,
    key: K,
    aggs: &[(AggFunc, Expr, String)],
    make_reps: impl FnOnce() -> Vec<Entry>,
) -> &'a mut (Vec<Entry>, Vec<Accumulator>) {
    groups.entry(key.clone()).or_insert_with(|| {
        group_order.push(key);
        let accs = aggs.iter().map(|(f, _, _)| Accumulator::new(*f)).collect();
        (make_reps(), accs)
    })
}

/// Packed grouping key of the typed `HashGroup`/`OrderLimit` fast path: a
/// kind tag (0 = null/absent, 1 = Int, 2 = Date, 3 = Str) plus a raw 64-bit
/// value. The tag keeps `Int(x)` and `Date(x)` in distinct groups, exactly
/// like [`PropValue`]'s equality, and the tag order mirrors [`PropValue`]'s
/// cross-kind total order (Null < Int < Date < Str), so sorting packed keys
/// equals sorting the unpacked values.
///
/// Dictionary-encoded strings pack as their zero-padded 8-byte big-endian
/// prefix mapped order-preservingly into `i64` (see [`str_prefix_key`]) —
/// exact for the strings the fast path admits (≤ 8 bytes, no NUL), which keeps
/// both equality (grouping) and ordering (sorting) oracle-identical.
pub(crate) type PackedKey = (u8, i64);

/// Order-preserving 64-bit key of a short string: the zero-padded big-endian
/// first 8 bytes, offset into the signed domain. `None` when the string is
/// longer than 8 bytes (the prefix would collapse distinct values) or contains
/// a NUL byte (zero-padding would collide with it) — callers then fall back to
/// the generic boxed path.
pub(crate) fn str_prefix_key(s: &str) -> Option<i64> {
    let b = s.as_bytes();
    if b.len() > 8 || b.contains(&0) {
        return None;
    }
    let mut buf = [0u8; 8];
    buf[..b.len()].copy_from_slice(b);
    Some((u64::from_be_bytes(buf) ^ (1 << 63)) as i64)
}

/// Inverse of [`str_prefix_key`]: reconstruct the string (exact, because the
/// packable domain excludes NUL bytes and longer-than-8-byte strings).
fn str_from_prefix_key(k: i64) -> String {
    let bytes = ((k as u64) ^ (1 << 63)).to_be_bytes();
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(8);
    std::str::from_utf8(&bytes[..end])
        .expect("packed from valid UTF-8")
        .to_string()
}

/// The [`PropValue`] a packed key stands for (materialised once per group for
/// the representative output entry, never per row).
pub(crate) fn unpack_group_key(k: PackedKey) -> PropValue {
    match k.0 {
        0 => PropValue::Null,
        1 => PropValue::Int(k.1),
        2 => PropValue::Date(k.1),
        _ => PropValue::str(str_from_prefix_key(k.1)),
    }
}

/// Evaluate a single compiled `tag.prop` grouping key over one batch as
/// packed Int/Date/Str keys — one slice index plus a validity bit per row
/// (string columns add one lookup of the per-dictionary prefix table), zero
/// `PropValue` construction. Returns `None` (caller falls back to the boxed
/// generic path) when the expression is not a property lookup, the batch
/// column is not a vertex/edge id column, some row's resolved property
/// column is not Int/Date/Str, or a string dictionary holds a value outside
/// the packable domain of [`str_prefix_key`]. Per-row results are identical
/// to [`CompiledExpr::eval`]'s `PropValue`s under [`unpack_group_key`].
pub(crate) fn packed_group_keys<G: GraphView>(
    graph: &G,
    batch: &RecordBatch,
    key: &CompiledExpr,
) -> Option<Vec<PackedKey>> {
    let CompiledExpr::Prop {
        slot: Some(slot),
        key,
        ..
    } = key
    else {
        return None;
    };
    let rows = batch.rows();
    let Some(column) = batch.column(*slot) else {
        // unbound slot: the key evaluates to Null on every row
        return Some(vec![(0, 0); rows]);
    };
    /// One resolved property column, specialised for packing: primitive
    /// columns index their `i64` slice; dictionary-encoded string columns
    /// index a per-dictionary-entry prefix-key table (built once per column
    /// run, so the per-row work stays a pair of array lookups).
    enum PackedCol<'a> {
        Prim(u8, &'a [i64], &'a NullBitmap),
        Str(Vec<i64>, &'a [u32], &'a NullBitmap),
    }
    fn pack<'a, G: GraphView, I: Copy>(
        graph: &'a G,
        ids: &[I],
        validity: &NullBitmap,
        key: Option<PropKeyId>,
        cell_of: impl Fn(&'a G, I, PropKeyId) -> Option<ColumnRef<'a>>,
    ) -> Option<Vec<PackedKey>> {
        let Some(key) = key else {
            // property name the graph never interned: Null everywhere
            return Some(vec![(0, 0); ids.len()]);
        };
        let mut out = Vec::with_capacity(ids.len());
        // resolved (column, value slice) cached by column identity, like the
        // typed predicate kernels: one resolution per same-label run
        let mut cached: Option<(*const TypedColumn, PackedCol<'a>)> = None;
        for (row, &id) in ids.iter().enumerate() {
            if !validity.get(row) {
                out.push((0, 0));
                continue;
            }
            let Some(cell) = cell_of(graph, id, key) else {
                out.push((0, 0));
                continue;
            };
            let ptr = cell.column as *const TypedColumn;
            if cached.as_ref().is_none_or(|(p, ..)| *p != ptr) {
                let resolved = match cell.column {
                    TypedColumn::Int(v, n) => PackedCol::Prim(1, v.as_slice(), n),
                    TypedColumn::Date(v, n) => PackedCol::Prim(2, v.as_slice(), n),
                    TypedColumn::Str(col) => {
                        // every dictionary entry must be prefix-packable or
                        // the whole call falls back to the boxed path
                        let keys: Option<Vec<i64>> =
                            col.dict().iter().map(|s| str_prefix_key(s)).collect();
                        PackedCol::Str(keys?, col.codes(), col.validity())
                    }
                    // Float/Bool/Mixed: not a primitive-keyed column
                    _ => return None,
                };
                cached = Some((ptr, resolved));
            }
            let (_, packed) = cached.as_ref().expect("just cached");
            out.push(match packed {
                PackedCol::Prim(kind, vals, valid) => {
                    if valid.get(cell.row) {
                        (*kind, vals[cell.row])
                    } else {
                        (0, 0)
                    }
                }
                PackedCol::Str(dict_keys, codes, valid) => {
                    if valid.get(cell.row) {
                        (3, dict_keys[codes[cell.row] as usize])
                    } else {
                        (0, 0)
                    }
                }
            });
        }
        Some(out)
    }
    match column.data() {
        ColumnData::Vertex(ids) => pack(graph, ids, column.validity(), *key, |g, v, k| {
            g.vertex_prop_cell(v, k)
        }),
        ColumnData::Edge(ids) => pack(graph, ids, column.validity(), *key, |g, e, k| {
            g.edge_prop_cell(e, k)
        }),
        // values, paths, row-wise entries: let the generic path handle them
        _ => None,
    }
}

/// Batched [`project`]: passthrough items clone whole columns; computed items
/// are evaluated into fresh value columns.
pub fn project_batches<G: GraphView>(
    graph: &G,
    input: &[RecordBatch],
    tags: &TagMap,
    items: &[(Expr, String)],
) -> (Vec<RecordBatch>, TagMap) {
    let mut out_tags = TagMap::new();
    let mut passthrough: Vec<Option<usize>> = Vec::with_capacity(items.len());
    for (expr, alias) in items {
        out_tags.slot_or_insert(alias);
        passthrough.push(match expr {
            Expr::Tag(t) => tags.slot(t),
            _ => None,
        });
    }
    let compiled: Vec<Option<CompiledExpr>> = items
        .iter()
        .zip(&passthrough)
        .map(|((expr, _), pt)| match pt {
            Some(_) => None,
            None => Some(CompiledExpr::compile(expr, tags, graph)),
        })
        .collect();
    let out = input
        .iter()
        .map(|batch| {
            let rows = batch.rows();
            let columns: Vec<Column> = passthrough
                .iter()
                .zip(&compiled)
                .map(|(pt, comp)| match (pt, comp) {
                    (Some(slot), _) => match batch.column(*slot) {
                        Some(c) => c.clone(),
                        None => Column::nulls(rows),
                    },
                    (None, Some(expr)) => {
                        // a plain property projection of an element column
                        // takes the typed gather path: values come straight
                        // from the graph's typed column slices
                        let gathered = match expr {
                            CompiledExpr::Prop {
                                slot: Some(s), key, ..
                            } => batch.column(*s).and_then(|c| c.gather_props(graph, *key)),
                            _ => None,
                        };
                        gathered.unwrap_or_else(|| {
                            Column::values(
                                (0..rows)
                                    .map(|row| batch_eval(graph, batch, row, expr))
                                    .collect(),
                            )
                        })
                    }
                    (None, None) => unreachable!("computed items are compiled"),
                })
                .collect();
            RecordBatch::from_columns(columns)
        })
        .collect();
    (out, out_tags)
}

/// A property column to fetch, with the output tag slot and the interned
/// property key resolved ahead of the row loop.
struct FetchCol {
    slot: usize,
    key: Option<gopt_graph::PropKeyId>,
}

/// Batched [`property_fetch`]: column-name formatting, tag-slot registration
/// and property-key interning are resolved once per call (explicit `props`)
/// or once per encountered element label (fetch-all), not per row. Slot
/// registration order matches the scalar operator's first-encounter order.
pub fn property_fetch_batches<G: GraphView>(
    graph: &G,
    input: &[RecordBatch],
    tags: &mut TagMap,
    tag: &str,
    props: &Option<Vec<String>>,
) -> Result<Vec<RecordBatch>, ExecError> {
    let slot = tags
        .slot(tag)
        .ok_or_else(|| ExecError::UnboundTag(tag.to_string()))?;
    if total_rows(input) == 0 {
        // nothing to fetch; like the scalar operator, register no slots
        return Ok(input.to_vec());
    }
    let resolve = |tags: &mut TagMap, name: &str| FetchCol {
        slot: tags.slot_or_insert(&format!("{tag}.{name}")),
        key: graph.prop_key(name),
    };
    // explicit props apply to every row: resolve once up front
    let explicit_cols: Option<Vec<FetchCol>> = props
        .as_ref()
        .map(|ps| ps.iter().map(|name| resolve(tags, name)).collect());
    // fetch-all: resolved per (is-vertex, label) at first encounter
    let mut label_cols: Vec<((bool, gopt_graph::LabelId), Vec<FetchCol>)> = Vec::new();
    let mut out = Vec::with_capacity(input.len());
    for batch in input {
        let rows = batch.rows();
        // per-slot fetched values of this batch; None = row did not fetch
        let mut fetched: Vec<(usize, Vec<Option<PropValue>>)> = Vec::new();
        let mut fetched_idx: HashMap<usize, usize> = HashMap::new();
        for row in 0..rows {
            let entry = batch.entry(slot, row);
            let cols: &[FetchCol] = match &explicit_cols {
                Some(cs) => cs,
                None => {
                    let kind = match entry {
                        EntryRef::Vertex(v) => Some((true, graph.vertex_label(v))),
                        EntryRef::Edge(e) => Some((false, graph.edge_label(e))),
                        _ => None,
                    };
                    match kind {
                        None => &[],
                        Some(k) => {
                            let i = match label_cols.iter().position(|(lk, _)| *lk == k) {
                                Some(i) => i,
                                None => {
                                    let defs = if k.0 {
                                        &graph.schema().vertex_label_def(k.1).properties
                                    } else {
                                        &graph.schema().edge_label_def(k.1).properties
                                    };
                                    let cs = defs.iter().map(|p| resolve(tags, &p.name)).collect();
                                    label_cols.push((k, cs));
                                    label_cols.len() - 1
                                }
                            };
                            &label_cols[i].1
                        }
                    }
                }
            };
            for c in cols {
                let value = match entry {
                    EntryRef::Vertex(v) => c.key.and_then(|k| graph.vertex_prop(v, k)),
                    EntryRef::Edge(e) => c.key.and_then(|k| graph.edge_prop(e, k)),
                    _ => None,
                };
                let idx = *fetched_idx.entry(c.slot).or_insert_with(|| {
                    fetched.push((c.slot, vec![None; rows]));
                    fetched.len() - 1
                });
                fetched[idx].1[row] = Some(value.unwrap_or(PropValue::Null));
            }
        }
        let mut nb = batch.clone();
        for (s, vals) in fetched {
            let mut col = Column::new();
            for (row, v) in vals.into_iter().enumerate() {
                match v {
                    Some(v) => col.push(EntryRef::Value(&v)),
                    // rows that fetched nothing keep whatever the slot already
                    // held, exactly like the scalar operator's per-record set
                    None => col.push(batch.entry(s, row)),
                }
            }
            nb.set_column(s, col);
        }
        out.push(nb);
    }
    Ok(out)
}

/// Batched [`union`]: slot remapping happens column-wise — each input batch's
/// columns are moved to their output slots and missing slots are padded with
/// null columns, with no per-row work at all.
pub fn union_batches(inputs: &[(&[RecordBatch], &TagMap)]) -> (Vec<RecordBatch>, TagMap) {
    let mut out_tags = TagMap::new();
    for (_, t) in inputs {
        for tag in t.tags() {
            out_tags.slot_or_insert(tag);
        }
    }
    let width = out_tags.len();
    let mut out = Vec::new();
    for (batches, t) in inputs {
        // input column index for each output slot
        let mut src_of: Vec<Option<usize>> = vec![None; width];
        for (i, tag) in t.tags().iter().enumerate() {
            let s = out_tags.slot(tag).expect("tag registered");
            src_of[s] = Some(i);
        }
        for batch in *batches {
            let rows = batch.rows();
            let columns: Vec<Column> = src_of
                .iter()
                .map(|src| match src.and_then(|i| batch.column(i)) {
                    Some(c) => c.clone(),
                    None => Column::nulls(rows),
                })
                .collect();
            out.push(RecordBatch::with_rows(columns, rows));
        }
    }
    (out, out_tags)
}

/// Batched [`hash_join`]: the build side is indexed as `(batch, row)` pairs
/// and probe-side matches are emitted through row gathers with the extra
/// right-side entries as overrides.
pub fn hash_join_batches(
    left: &[RecordBatch],
    left_tags: &TagMap,
    right: &[RecordBatch],
    right_tags: &TagMap,
    keys: &[String],
    kind: JoinType,
    batch_size: usize,
) -> Result<(Vec<RecordBatch>, TagMap), ExecError> {
    let mut lkey_slots = Vec::new();
    let mut rkey_slots = Vec::new();
    for k in keys {
        lkey_slots.push(
            left_tags
                .slot(k)
                .ok_or_else(|| ExecError::UnboundTag(k.clone()))?,
        );
        rkey_slots.push(
            right_tags
                .slot(k)
                .ok_or_else(|| ExecError::UnboundTag(k.clone()))?,
        );
    }
    let mut out_tags = left_tags.clone();
    let mut right_extra: Vec<(usize, usize)> = Vec::new(); // (right slot, out slot)
    for (i, tag) in right_tags.tags().iter().enumerate() {
        if !left_tags.contains(tag) {
            let s = out_tags.slot_or_insert(tag);
            right_extra.push((i, s));
        }
    }
    // build on the right: key → (batch, row) pairs
    let mut table: HashMap<Vec<PropValue>, Vec<(u32, u32)>> = HashMap::new();
    for (bi, batch) in right.iter().enumerate() {
        for row in 0..batch.rows() {
            let key: Vec<PropValue> = rkey_slots
                .iter()
                .map(|&s| batch.entry(s, row).to_value())
                .collect();
            table.entry(key).or_default().push((bi as u32, row as u32));
        }
    }
    let mut builder = BatchBuilder::new(out_tags.len(), batch_size);
    let mut overrides: Vec<(usize, EntryRef)> = Vec::with_capacity(right_extra.len());
    for batch in left {
        for row in 0..batch.rows() {
            let key: Vec<PropValue> = lkey_slots
                .iter()
                .map(|&s| batch.entry(s, row).to_value())
                .collect();
            let matches = table.get(&key);
            match kind {
                JoinType::Inner | JoinType::LeftOuter => {
                    if let Some(ms) = matches {
                        for &(rbi, rrow) in ms {
                            let rb = &right[rbi as usize];
                            overrides.clear();
                            for &(rs, os) in &right_extra {
                                overrides.push((os, rb.entry(rs, rrow as usize)));
                            }
                            builder.push_row_from(batch, row, &overrides);
                        }
                    } else if kind == JoinType::LeftOuter {
                        overrides.clear();
                        for &(_, os) in &right_extra {
                            overrides.push((os, EntryRef::Null));
                        }
                        builder.push_row_from(batch, row, &overrides);
                    }
                }
                JoinType::Semi => {
                    if matches.is_some() {
                        builder.push_row_from(batch, row, &[]);
                    }
                }
                JoinType::Anti => {
                    if matches.is_none() {
                        builder.push_row_from(batch, row, &[]);
                    }
                }
            }
        }
    }
    Ok((builder.finish(), out_tags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::schema::fig6_schema;

    fn tiny_graph() -> PropertyGraph {
        let mut b = GraphBuilder::new(fig6_schema());
        for i in 0..3 {
            b.add_vertex_by_name(
                "Person",
                vec![("id", PropValue::Int(i)), ("age", PropValue::Int(20 + i))],
            )
            .unwrap();
        }
        b.finish()
    }

    fn value_records(vals: &[(i64, i64)]) -> (Vec<Record>, TagMap) {
        let mut tags = TagMap::new();
        let a = tags.slot_or_insert("a");
        let b = tags.slot_or_insert("b");
        let recs = vals
            .iter()
            .map(|(x, y)| {
                let mut r = Record::new();
                r.set(a, Entry::Value(PropValue::Int(*x)));
                r.set(b, Entry::Value(PropValue::Int(*y)));
                r
            })
            .collect();
        (recs, tags)
    }

    #[test]
    fn select_and_project() {
        let g = tiny_graph();
        let (recs, tags) = value_records(&[(1, 10), (2, 20), (3, 30)]);
        let filtered = select(
            &g,
            &recs,
            &tags,
            &Expr::binary(gopt_gir::BinOp::Ge, Expr::tag("a"), Expr::lit(2)),
        );
        assert_eq!(filtered.len(), 2);
        let (projected, ptags) = project(
            &g,
            &filtered,
            &tags,
            &[
                (Expr::tag("b"), "b".into()),
                (
                    Expr::binary(gopt_gir::BinOp::Mul, Expr::tag("a"), Expr::lit(2)),
                    "double".into(),
                ),
            ],
        );
        assert_eq!(ptags.len(), 2);
        assert_eq!(projected[0].get(0).to_value(), PropValue::Int(20));
        assert_eq!(projected[0].get(1).to_value(), PropValue::Int(4));
    }

    #[test]
    fn group_with_all_aggregates() {
        let g = tiny_graph();
        let (recs, tags) = value_records(&[(1, 10), (1, 30), (2, 20), (2, 20), (2, 40)]);
        let (out, otags) = hash_group(
            &g,
            &recs,
            &tags,
            &[(Expr::tag("a"), "a".into())],
            &[
                (AggFunc::Count, Expr::tag("b"), "cnt".into()),
                (AggFunc::Sum, Expr::tag("b"), "sum".into()),
                (AggFunc::Min, Expr::tag("b"), "min".into()),
                (AggFunc::Max, Expr::tag("b"), "max".into()),
                (AggFunc::Avg, Expr::tag("b"), "avg".into()),
                (AggFunc::CountDistinct, Expr::tag("b"), "dcnt".into()),
            ],
            &QueryContext::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(otags.len(), 7);
        // group a=1
        let g1 = out
            .iter()
            .find(|r| r.get(0).to_value() == PropValue::Int(1))
            .unwrap();
        assert_eq!(g1.get(1).to_value(), PropValue::Int(2)); // count
        assert_eq!(g1.get(2).to_value(), PropValue::Int(40)); // sum
        assert_eq!(g1.get(3).to_value(), PropValue::Int(10)); // min
        assert_eq!(g1.get(4).to_value(), PropValue::Int(30)); // max
        assert_eq!(g1.get(5).to_value(), PropValue::Float(20.0)); // avg
        assert_eq!(g1.get(6).to_value(), PropValue::Int(2)); // distinct
                                                             // group a=2 distinct count is 2 (20, 40)
        let g2 = out
            .iter()
            .find(|r| r.get(0).to_value() == PropValue::Int(2))
            .unwrap();
        assert_eq!(g2.get(6).to_value(), PropValue::Int(2));
    }

    #[test]
    fn order_limit_and_dedup() {
        let g = tiny_graph();
        let (recs, tags) = value_records(&[(3, 1), (1, 2), (2, 3), (1, 4)]);
        let ctx = QueryContext::new();
        let sorted = order_limit(
            &g,
            &recs,
            &tags,
            &[
                (Expr::tag("a"), SortDir::Asc),
                (Expr::tag("b"), SortDir::Desc),
            ],
            None,
            &ctx,
        )
        .unwrap();
        let col_a: Vec<PropValue> = sorted.iter().map(|r| r.get(0).to_value()).collect();
        assert_eq!(
            col_a,
            vec![
                PropValue::Int(1),
                PropValue::Int(1),
                PropValue::Int(2),
                PropValue::Int(3)
            ]
        );
        assert_eq!(sorted[0].get(1).to_value(), PropValue::Int(4));
        let top2 = order_limit(
            &g,
            &recs,
            &tags,
            &[(Expr::tag("a"), SortDir::Asc)],
            Some(2),
            &ctx,
        )
        .unwrap();
        assert_eq!(top2.len(), 2);
        assert_eq!(limit(&recs, 3).len(), 3);
        assert_eq!(limit(&recs, 10).len(), 4);
        let d = dedup(&g, &recs, &tags, &[Expr::tag("a")], &ctx).unwrap();
        assert_eq!(d.len(), 3);
        let d_all = dedup(&g, &recs, &tags, &[], &ctx).unwrap();
        assert_eq!(d_all.len(), 4);
    }

    #[test]
    fn hash_join_kinds() {
        let (left, ltags) = value_records(&[(1, 100), (2, 200), (3, 300)]);
        // right side keyed on "a" with extra column "c"
        let mut rtags = TagMap::new();
        let ra = rtags.slot_or_insert("a");
        let rc = rtags.slot_or_insert("c");
        let right: Vec<Record> = [(1, 7), (1, 8), (3, 9)]
            .iter()
            .map(|(x, y)| {
                let mut r = Record::new();
                r.set(ra, Entry::Value(PropValue::Int(*x)));
                r.set(rc, Entry::Value(PropValue::Int(*y)));
                r
            })
            .collect();
        let join = |keys: &[&str], kind| {
            let keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
            hash_join(&left, &ltags, &right, &rtags, &keys, kind)
        };
        let (out, otags) = join(&["a"], JoinType::Inner).unwrap();
        assert_eq!(out.len(), 3); // a=1 matches twice, a=3 once
        assert_eq!(otags.len(), 3);
        assert!(otags.contains("c"));
        let (out, _) = join(&["a"], JoinType::LeftOuter).unwrap();
        assert_eq!(out.len(), 4); // a=2 padded
        let (out, _) = join(&["a"], JoinType::Semi).unwrap();
        assert_eq!(out.len(), 2);
        let (out, _) = join(&["a"], JoinType::Anti).unwrap();
        assert_eq!(out.len(), 1);
        // unknown key errors
        assert!(join(&["zzz"], JoinType::Inner).is_err());
    }

    #[test]
    fn union_remaps_tags() {
        let (r1, t1) = value_records(&[(1, 2)]);
        // second input has the columns in reverse order
        let mut t2 = TagMap::new();
        let b = t2.slot_or_insert("b");
        let a = t2.slot_or_insert("a");
        let mut rec = Record::new();
        rec.set(b, Entry::Value(PropValue::Int(20)));
        rec.set(a, Entry::Value(PropValue::Int(10)));
        let r2 = vec![rec];
        let (out, tags) = union(&[(&r1, &t1), (&r2, &t2)]);
        assert_eq!(out.len(), 2);
        let a_slot = tags.slot("a").unwrap();
        let b_slot = tags.slot("b").unwrap();
        assert_eq!(out[1].get(a_slot).to_value(), PropValue::Int(10));
        assert_eq!(out[1].get(b_slot).to_value(), PropValue::Int(20));
    }
}
