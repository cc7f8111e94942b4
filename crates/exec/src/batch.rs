//! Vectorized record batches: the struct-of-arrays runtime layout of the engine.
//!
//! A [`RecordBatch`] holds up to `batch_size` (default [`DEFAULT_BATCH_SIZE`]) rows as
//! one typed [`Column`] per tag slot instead of one `Vec<Entry>` per row:
//!
//! ```text
//! scalar (AoS):  Record[ Vertex(3) | Edge(7) | Value(42) ]    one allocation per row
//!                Record[ Vertex(4) | Edge(9) | Value(43) ]
//!
//! batched (SoA): slot 0  Vertex column  [3, 4, ...]  + validity bitmap
//!                slot 1  Edge   column  [7, 9, ...]  + validity bitmap
//!                slot 2  Value  column  [42, 43,...] + validity bitmap
//! ```
//!
//! The columnar layout is what makes the morsel engine's kernels in
//! [`expand`](crate::expand) and [`relational`](crate::relational) cache-friendly: an
//! `EdgeExpand` reads one contiguous `&[VertexId]` of sources, a `Select` evaluates its
//! predicate over columns, and filtering/expansion produce *selection vectors* of row
//! indices that are gathered column-by-column instead of cloning entry vectors row by
//! row.
//!
//! # Column typing and the validity bitmap
//!
//! Each column stores exactly one entry kind ([`ColumnData`]): vertex ids, edge ids,
//! path offsets + a flattened vertex pool, or computed values. Unbound rows (records
//! that never set the slot, left-outer-join padding) are marked invalid in the column's
//! [`Bitmap`] and read back as [`EntryRef::Null`]. In the rare case where one slot
//! genuinely mixes kinds across rows (e.g. a `Union` of inputs binding the same tag to
//! a vertex in one branch and a projected value in the other) the column is demoted to
//! a row-wise [`ColumnData::Entries`] escape hatch — correctness never depends on a
//! column staying typed, only performance does.
//!
//! # Compiled expressions
//!
//! [`CompiledExpr`] is a [`gopt_gir::Expr`] with every tag reference resolved to a slot
//! index and every property name resolved to an interned [`PropKeyId`] **once per
//! operator call** instead of a `HashMap` lookup per row. Evaluation goes through
//! [`BinOp::apply`]/[`UnaryOp::apply`], the same functions the scalar interpreter uses,
//! so compiled and scalar evaluation cannot diverge.

use crate::record::{Entry, Record, TagMap};
use gopt_gir::expr::{BinOp, Expr, UnaryOp};
use gopt_graph::{EdgeId, GraphView, PropKeyId, PropValue, PropertyGraph, VertexId};

/// Default number of rows per [`RecordBatch`].
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A packed validity bitmap: bit `i` is set when row `i` holds a bound value.
/// The batch layer shares the storage layer's packed bitmap
/// ([`gopt_graph::NullBitmap`]) rather than maintaining a parallel
/// implementation — batch-column validity and property-column validity are
/// the same concept.
pub use gopt_graph::NullBitmap as Bitmap;

/// The typed storage of one [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Vertex ids; invalid rows hold an arbitrary placeholder.
    Vertex(Vec<VertexId>),
    /// Edge ids; invalid rows hold an arbitrary placeholder.
    Edge(Vec<EdgeId>),
    /// Paths, flattened: row `i` spans `vertices[offsets[i]..offsets[i + 1]]`.
    Path {
        /// Row extents into `vertices` (`rows + 1` monotone offsets).
        offsets: Vec<u32>,
        /// Concatenated path vertices of all rows.
        vertices: Vec<VertexId>,
    },
    /// Computed scalar values.
    Value(Vec<PropValue>),
    /// Row-wise escape hatch for columns that mix entry kinds.
    Entries(Vec<Entry>),
}

/// A borrowed view of one entry inside a batch — the zero-copy analogue of
/// [`Entry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntryRef<'a> {
    /// An unbound slot.
    Null,
    /// A graph vertex.
    Vertex(VertexId),
    /// A graph edge.
    Edge(EdgeId),
    /// A path (sequence of vertices, starting at the source).
    Path(&'a [VertexId]),
    /// A computed scalar value.
    Value(&'a PropValue),
}

impl EntryRef<'_> {
    /// Convert to a comparable/printable scalar value (same rules as
    /// [`Entry::to_value`]).
    pub fn to_value(&self) -> PropValue {
        match self {
            EntryRef::Null => PropValue::Null,
            EntryRef::Vertex(v) => PropValue::Int(v.0 as i64),
            EntryRef::Edge(e) => PropValue::Int(e.0 as i64),
            EntryRef::Path(p) => PropValue::Int(p.len().saturating_sub(1) as i64),
            EntryRef::Value(v) => (*v).clone(),
        }
    }

    /// Convert to an owned [`Entry`].
    pub fn to_entry(&self) -> Entry {
        match self {
            EntryRef::Null => Entry::Null,
            EntryRef::Vertex(v) => Entry::Vertex(*v),
            EntryRef::Edge(e) => Entry::Edge(*e),
            EntryRef::Path(p) => Entry::Path(p.to_vec()),
            EntryRef::Value(v) => Entry::Value((*v).clone()),
        }
    }

    /// The vertex id if this entry is a vertex.
    pub fn as_vertex(&self) -> Option<VertexId> {
        match self {
            EntryRef::Vertex(v) => Some(*v),
            _ => None,
        }
    }

    /// The edge id if this entry is an edge.
    pub fn as_edge(&self) -> Option<EdgeId> {
        match self {
            EntryRef::Edge(e) => Some(*e),
            _ => None,
        }
    }

    /// A borrowed view of an owned entry.
    pub fn from_entry(e: &Entry) -> EntryRef<'_> {
        match e {
            Entry::Null => EntryRef::Null,
            Entry::Vertex(v) => EntryRef::Vertex(*v),
            Entry::Edge(e) => EntryRef::Edge(*e),
            Entry::Path(p) => EntryRef::Path(p),
            Entry::Value(v) => EntryRef::Value(v),
        }
    }
}

/// One typed column of a [`RecordBatch`] plus its validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Bitmap,
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

impl Column {
    /// An empty column. Starts as a vertex column and is retyped by the first
    /// non-null push.
    pub fn new() -> Self {
        Column {
            data: ColumnData::Vertex(Vec::new()),
            validity: Bitmap::new(),
        }
    }

    /// An all-valid vertex column.
    pub fn vertices(ids: Vec<VertexId>) -> Self {
        Column {
            validity: Bitmap::all_valid(ids.len()),
            data: ColumnData::Vertex(ids),
        }
    }

    /// An all-valid edge column.
    pub fn edges(ids: Vec<EdgeId>) -> Self {
        Column {
            validity: Bitmap::all_valid(ids.len()),
            data: ColumnData::Edge(ids),
        }
    }

    /// An all-valid value column.
    pub fn values(vals: Vec<PropValue>) -> Self {
        Column {
            validity: Bitmap::all_valid(vals.len()),
            data: ColumnData::Value(vals),
        }
    }

    /// An all-null column of `rows` rows.
    pub fn nulls(rows: usize) -> Self {
        let mut c = Column::new();
        for _ in 0..rows {
            c.push_null();
        }
        c
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Coarse metered size of this column in bytes for the query-context
    /// memory accountant: fixed per-row costs per storage kind plus the
    /// validity bitmap. A cheap heuristic upper bound on resident size,
    /// never an allocation measurement. String values are `Arc`s shared with
    /// the storage's per-column dictionaries, so a batch's marginal cost for
    /// a string row is the enum footprint plus the 4-byte dictionary-code
    /// share — not an estimate of the string payload, which the batch does
    /// not own.
    pub fn approx_bytes(&self) -> u64 {
        let rows = self.len() as u64;
        let data = match &self.data {
            ColumnData::Vertex(_) | ColumnData::Edge(_) => rows * 8,
            ColumnData::Path { offsets, vertices } => {
                offsets.len() as u64 * 4 + vertices.len() as u64 * 8
            }
            ColumnData::Value(vals) => vals
                .iter()
                .map(|v| match v {
                    PropValue::Str(_) => 24 + 4,
                    _ => 32,
                })
                .sum(),
            ColumnData::Entries(es) => es.len() as u64 * 40,
        };
        data + rows.div_ceil(8)
    }

    /// The vertex ids and validity bitmap when this is a (possibly partially
    /// null) vertex column — the fast path the batched expand operators take.
    pub fn as_vertices(&self) -> Option<(&[VertexId], &Bitmap)> {
        match &self.data {
            ColumnData::Vertex(ids) => Some((ids, &self.validity)),
            _ => None,
        }
    }

    /// A borrowed view of the entry at `row` (Null when out of range or
    /// invalid).
    #[inline]
    pub fn entry(&self, row: usize) -> EntryRef<'_> {
        if !self.validity.get(row) {
            return EntryRef::Null;
        }
        match &self.data {
            ColumnData::Vertex(ids) => EntryRef::Vertex(ids[row]),
            ColumnData::Edge(ids) => EntryRef::Edge(ids[row]),
            ColumnData::Path { offsets, vertices } => {
                EntryRef::Path(&vertices[offsets[row] as usize..offsets[row + 1] as usize])
            }
            ColumnData::Value(vals) => EntryRef::Value(&vals[row]),
            ColumnData::Entries(es) => EntryRef::from_entry(&es[row]),
        }
    }

    /// Append an unbound row.
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Vertex(ids) => ids.push(VertexId(0)),
            ColumnData::Edge(ids) => ids.push(EdgeId(0)),
            ColumnData::Path { offsets, .. } => {
                if offsets.is_empty() {
                    offsets.push(0);
                }
                offsets.push(*offsets.last().expect("offsets non-empty"));
            }
            ColumnData::Value(vals) => vals.push(PropValue::Null),
            ColumnData::Entries(es) => es.push(Entry::Null),
        }
        self.validity.push(false);
    }

    /// Append an entry, retyping an all-null column or demoting to the
    /// [`ColumnData::Entries`] escape hatch on a kind mismatch.
    pub fn push(&mut self, entry: EntryRef<'_>) {
        match (&mut self.data, entry) {
            (_, EntryRef::Null) => {
                self.push_null();
                return;
            }
            (ColumnData::Vertex(ids), EntryRef::Vertex(v)) => ids.push(v),
            (ColumnData::Edge(ids), EntryRef::Edge(e)) => ids.push(e),
            (ColumnData::Path { offsets, vertices }, EntryRef::Path(p)) => {
                if offsets.is_empty() {
                    offsets.push(0);
                }
                vertices.extend_from_slice(p);
                offsets.push(vertices.len() as u32);
            }
            (ColumnData::Value(vals), EntryRef::Value(v)) => vals.push(v.clone()),
            (ColumnData::Entries(es), e) => es.push(e.to_entry()),
            // kind mismatch: retype if nothing valid was stored yet, demote
            // to row-wise entries otherwise
            (_, e) => {
                if self.validity.count_valid() == 0 {
                    let rows = self.len();
                    self.data = match e {
                        EntryRef::Vertex(_) => ColumnData::Vertex(vec![VertexId(0); rows]),
                        EntryRef::Edge(_) => ColumnData::Edge(vec![EdgeId(0); rows]),
                        EntryRef::Path(_) => ColumnData::Path {
                            offsets: vec![0; rows + 1],
                            vertices: Vec::new(),
                        },
                        EntryRef::Value(_) => ColumnData::Value(vec![PropValue::Null; rows]),
                        EntryRef::Null => unreachable!("handled above"),
                    };
                } else {
                    let rows = self.len();
                    let mut es = Vec::with_capacity(rows + 1);
                    for i in 0..rows {
                        es.push(self.entry(i).to_entry());
                    }
                    self.data = ColumnData::Entries(es);
                }
                self.push(e);
                return;
            }
        }
        self.validity.push(true);
    }

    /// Materialise the `key` property of every element of a vertex/edge
    /// column as an all-valid value column (rows whose element is unbound or
    /// whose property is absent hold [`PropValue::Null`], matching the scalar
    /// projection semantics).
    ///
    /// This is the typed gather path: each element's cell is located through
    /// the [`GraphView`] typed accessors
    /// (`gopt_graph::TypedColumn` slices), so values are built straight from
    /// primitive storage — no boxed-cell clone, and strings only bump their
    /// `Arc`. Returns `None` when this column does not hold graph elements
    /// (the caller then evaluates row-wise).
    pub fn gather_props<G: GraphView>(&self, graph: &G, key: Option<PropKeyId>) -> Option<Column> {
        let vals: Vec<PropValue> = match &self.data {
            ColumnData::Vertex(ids) => ids
                .iter()
                .enumerate()
                .map(|(row, &v)| {
                    if !self.validity.get(row) {
                        return PropValue::Null;
                    }
                    key.and_then(|k| graph.vertex_prop_cell(v, k))
                        .and_then(|c| c.value())
                        .unwrap_or(PropValue::Null)
                })
                .collect(),
            ColumnData::Edge(ids) => ids
                .iter()
                .enumerate()
                .map(|(row, &e)| {
                    if !self.validity.get(row) {
                        return PropValue::Null;
                    }
                    key.and_then(|k| graph.edge_prop_cell(e, k))
                        .and_then(|c| c.value())
                        .unwrap_or(PropValue::Null)
                })
                .collect(),
            _ => return None,
        };
        Some(Column::values(vals))
    }

    /// Gather the rows named by `sel` into a new column (the batched
    /// operators' filtering/fan-out primitive: one kind dispatch per column,
    /// then a tight index loop).
    pub fn gather(&self, sel: &[u32]) -> Column {
        if self.is_empty() {
            // an absent (pruned) column stays absent
            return Column::new();
        }
        let mut validity = Bitmap::new();
        for &i in sel {
            validity.push(self.validity.get(i as usize));
        }
        let data = match &self.data {
            ColumnData::Vertex(ids) => {
                ColumnData::Vertex(sel.iter().map(|&i| ids[i as usize]).collect())
            }
            ColumnData::Edge(ids) => {
                ColumnData::Edge(sel.iter().map(|&i| ids[i as usize]).collect())
            }
            ColumnData::Path { offsets, vertices } => {
                let mut out_off = Vec::with_capacity(sel.len() + 1);
                let mut out_verts = Vec::new();
                out_off.push(0u32);
                for &i in sel {
                    let (s, e) = (
                        offsets[i as usize] as usize,
                        offsets[i as usize + 1] as usize,
                    );
                    out_verts.extend_from_slice(&vertices[s..e]);
                    out_off.push(out_verts.len() as u32);
                }
                ColumnData::Path {
                    offsets: out_off,
                    vertices: out_verts,
                }
            }
            ColumnData::Value(vals) => {
                ColumnData::Value(sel.iter().map(|&i| vals[i as usize].clone()).collect())
            }
            ColumnData::Entries(es) => {
                ColumnData::Entries(sel.iter().map(|&i| es[i as usize].clone()).collect())
            }
        };
        Column { data, validity }
    }
}

/// A batch of rows in struct-of-arrays layout: one [`Column`] per tag slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordBatch {
    columns: Vec<Column>,
    rows: usize,
}

impl RecordBatch {
    /// An empty batch with `width` (all-empty) columns.
    pub fn new(width: usize) -> Self {
        RecordBatch {
            columns: (0..width).map(|_| Column::new()).collect(),
            rows: 0,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns (tag slots).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The column at `slot`, when in range.
    pub fn column(&self, slot: usize) -> Option<&Column> {
        self.columns.get(slot)
    }

    /// A borrowed view of the entry at (`slot`, `row`); Null when the slot is
    /// out of range — the batch analogue of [`Record::get`].
    #[inline]
    pub fn entry(&self, slot: usize, row: usize) -> EntryRef<'_> {
        match self.columns.get(slot) {
            Some(c) => c.entry(row),
            None => EntryRef::Null,
        }
    }

    /// Install `column` at `slot`, growing the batch with all-null columns as
    /// needed. The column must have exactly [`rows`](Self::rows) rows (or the
    /// batch must be empty, in which case it defines the row count).
    pub fn set_column(&mut self, slot: usize, column: Column) {
        if self.columns.is_empty() && self.rows == 0 {
            self.rows = column.len();
        }
        assert_eq!(
            column.len(),
            self.rows,
            "column length must match batch rows"
        );
        while self.columns.len() <= slot {
            self.columns.push(Column::nulls(self.rows));
        }
        self.columns[slot] = column;
    }

    /// Append one row given per-slot entries. Missing trailing slots are
    /// null; entries beyond the batch width are ignored.
    pub fn push_row<'a>(&mut self, entries: impl IntoIterator<Item = EntryRef<'a>>) {
        let mut slot = 0;
        for e in entries {
            if slot < self.columns.len() {
                self.columns[slot].push(e);
            }
            slot += 1;
        }
        let start = slot.min(self.columns.len());
        for c in &mut self.columns[start..] {
            c.push_null();
        }
        self.rows += 1;
    }

    /// Coarse metered size of the batch: the sum of its columns'
    /// [`Column::approx_bytes`].
    pub fn approx_bytes(&self) -> u64 {
        self.columns.iter().map(Column::approx_bytes).sum()
    }

    /// Gather the rows named by `sel` into a new batch of `width` columns
    /// (columns past this batch's width come out all-null).
    pub fn gather(&self, sel: &[u32], width: usize) -> RecordBatch {
        let columns = (0..width)
            .map(|s| match self.columns.get(s) {
                Some(c) => c.gather(sel),
                None => Column::nulls(sel.len()),
            })
            .collect();
        RecordBatch {
            columns,
            rows: sel.len(),
        }
    }

    /// [`gather`](Self::gather) restricted to the slots marked in `live`
    /// (`live.len()` is the output width): a dead slot comes out *absent* —
    /// an empty column that reads as null on every row, costs nothing to
    /// carry and is skipped by every later gather.
    pub fn gather_live(&self, sel: &[u32], live: &[bool]) -> RecordBatch {
        let columns = live
            .iter()
            .enumerate()
            .map(|(s, &keep)| match self.columns.get(s) {
                Some(c) if keep => c.gather(sel),
                _ => Column::new(),
            })
            .collect();
        RecordBatch {
            columns,
            rows: sel.len(),
        }
    }

    /// Assemble a batch of `rows` rows from columns that each hold `rows`
    /// entries or are absent (empty).
    pub fn with_rows(columns: Vec<Column>, rows: usize) -> RecordBatch {
        assert!(
            columns.iter().all(|c| c.len() == rows || c.is_empty()),
            "every column holds `rows` entries or is absent"
        );
        RecordBatch { columns, rows }
    }

    /// Assemble a batch from pre-built columns (all columns must have the same
    /// length).
    pub fn from_columns(columns: Vec<Column>) -> RecordBatch {
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "all columns must have the same length"
        );
        RecordBatch { columns, rows }
    }

    /// Convert scalar records into one batch of `width` columns.
    pub fn from_records(records: &[Record], width: usize) -> RecordBatch {
        let mut batch = RecordBatch::new(width);
        for r in records {
            batch.push_row((0..width).map(|s| EntryRef::from_entry(r.get(s))));
        }
        batch
    }

    /// Convert the batch back into scalar records (used at plan boundaries and
    /// in equivalence tests; each record has exactly `width` entries).
    pub fn to_records(&self) -> Vec<Record> {
        (0..self.rows)
            .map(|row| {
                let mut r = Record::new();
                for slot in 0..self.columns.len() {
                    r.set(slot, self.entry(slot, row).to_entry());
                }
                r
            })
            .collect()
    }
}

/// Total number of rows across a sequence of batches.
pub fn total_rows(batches: &[RecordBatch]) -> usize {
    batches.iter().map(|b| b.rows()).sum()
}

/// Accumulates output rows and cuts them into batches of at most `batch_size`
/// rows — the push side of every batched operator.
#[derive(Debug)]
pub struct BatchBuilder {
    width: usize,
    batch_size: usize,
    /// Slots [`push_row_from`](Self::push_row_from) copies; the rest stay
    /// absent.
    slots: Vec<usize>,
    current: RecordBatch,
    done: Vec<RecordBatch>,
}

impl BatchBuilder {
    /// A builder producing batches of `width` columns and at most `batch_size`
    /// rows.
    pub fn new(width: usize, batch_size: usize) -> Self {
        Self::with_live(&vec![true; width], batch_size)
    }

    /// A builder of `live.len()` columns whose
    /// [`push_row_from`](Self::push_row_from) copies only the slots marked
    /// live; dead slots come out absent (see [`RecordBatch::gather_live`]).
    pub fn with_live(live: &[bool], batch_size: usize) -> Self {
        BatchBuilder {
            width: live.len(),
            batch_size: batch_size.max(1),
            slots: (0..live.len()).filter(|&s| live[s]).collect(),
            current: RecordBatch::new(live.len()),
            done: Vec::new(),
        }
    }

    fn roll(&mut self) {
        if self.current.rows() >= self.batch_size {
            let full = std::mem::replace(&mut self.current, RecordBatch::new(self.width));
            self.done.push(full);
        }
    }

    /// Append one row of per-slot entries.
    pub fn push_row<'a>(&mut self, entries: impl IntoIterator<Item = EntryRef<'a>>) {
        self.current.push_row(entries);
        self.roll();
    }

    /// Append row `row` of `src`, with `overrides` replacing the entries of
    /// the given slots (the batch analogue of `Record::with`).
    pub fn push_row_from(
        &mut self,
        src: &RecordBatch,
        row: usize,
        overrides: &[(usize, EntryRef<'_>)],
    ) {
        for &slot in &self.slots {
            let entry = overrides
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, e)| *e)
                .unwrap_or_else(|| src.entry(slot, row));
            self.current.columns[slot].push(entry);
        }
        self.current.rows += 1;
        self.roll();
    }

    /// Finish, returning the accumulated batches (no empty trailing batch).
    pub fn finish(mut self) -> Vec<RecordBatch> {
        if self.current.rows() > 0 {
            self.done.push(self.current);
        }
        self.done
    }
}

/// One row of a batch during expression evaluation, with optional slot
/// overrides for not-yet-materialised candidate bindings (the batch analogue
/// of probing with `Record::with` — without the clone).
#[derive(Clone, Copy)]
pub struct BatchRow<'a, G: GraphView = PropertyGraph> {
    /// The data graph, for property access.
    pub graph: &'a G,
    /// The batch holding the row.
    pub batch: &'a RecordBatch,
    /// Row index within the batch.
    pub row: usize,
    /// Slot overrides checked before the batch columns.
    pub overrides: &'a [(usize, EntryRef<'a>)],
}

impl<'a, G: GraphView> BatchRow<'a, G> {
    /// The entry visible at `slot` (overrides first, then the batch).
    #[inline]
    pub fn entry(&self, slot: usize) -> EntryRef<'a> {
        for (s, e) in self.overrides {
            if *s == slot {
                return *e;
            }
        }
        self.batch.entry(slot, self.row)
    }
}

/// A GIR expression with tag → slot resolution (and property-name interning)
/// hoisted out of the per-row loop: compiled once per operator call, evaluated
/// once per row.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// A literal value.
    Literal(PropValue),
    /// A bare tag reference, resolved to its slot (`None` = unbound tag).
    Slot(Option<usize>),
    /// A property access `tag.prop` with the tag resolved to a slot and the
    /// property name resolved to an interned key.
    Prop {
        /// Slot of the tag (`None` = unbound).
        slot: Option<usize>,
        /// Interned property key (`None` when the graph never saw the name).
        key: Option<PropKeyId>,
        /// Whether the property name is `length` (meaningful on paths).
        is_length: bool,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<CompiledExpr>,
    },
    /// Membership test against a literal list.
    InList {
        /// Tested expression.
        expr: Box<CompiledExpr>,
        /// Candidate values.
        list: Vec<PropValue>,
    },
}

impl CompiledExpr {
    /// Resolve every tag in `expr` against `tags` and every property name
    /// against the graph's interned keys.
    pub fn compile<G: GraphView>(expr: &Expr, tags: &TagMap, graph: &G) -> CompiledExpr {
        match expr {
            Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
            Expr::Tag(t) => CompiledExpr::Slot(tags.slot(t)),
            Expr::Property { tag, prop } => CompiledExpr::Prop {
                slot: tags.slot(tag),
                key: graph.prop_key(prop),
                is_length: prop == "length",
            },
            Expr::Binary { op, lhs, rhs } => CompiledExpr::Binary {
                op: *op,
                lhs: Box::new(CompiledExpr::compile(lhs, tags, graph)),
                rhs: Box::new(CompiledExpr::compile(rhs, tags, graph)),
            },
            Expr::Unary { op, operand } => CompiledExpr::Unary {
                op: *op,
                operand: Box::new(CompiledExpr::compile(operand, tags, graph)),
            },
            Expr::InList { expr, list } => CompiledExpr::InList {
                expr: Box::new(CompiledExpr::compile(expr, tags, graph)),
                list: list.clone(),
            },
            // unbound parameters evaluate to Null, matching Expr::evaluate
            Expr::Param(_) => CompiledExpr::Literal(PropValue::Null),
        }
    }

    /// Evaluate against one batch row. Semantics match
    /// [`Expr::evaluate`] over a `RecordContext` exactly.
    pub fn eval<G: GraphView>(&self, row: &BatchRow<'_, G>) -> PropValue {
        match self {
            CompiledExpr::Literal(v) => v.clone(),
            CompiledExpr::Slot(slot) => match slot {
                Some(s) => row.entry(*s).to_value(),
                None => PropValue::Null,
            },
            CompiledExpr::Prop {
                slot,
                key,
                is_length,
            } => {
                let Some(s) = slot else {
                    return PropValue::Null;
                };
                match row.entry(*s) {
                    EntryRef::Vertex(v) => key
                        .and_then(|k| row.graph.vertex_prop(v, k))
                        .unwrap_or(PropValue::Null),
                    EntryRef::Edge(e) => key
                        .and_then(|k| row.graph.edge_prop(e, k))
                        .unwrap_or(PropValue::Null),
                    EntryRef::Path(p) => {
                        if *is_length {
                            PropValue::Int(p.len().saturating_sub(1) as i64)
                        } else {
                            PropValue::Null
                        }
                    }
                    EntryRef::Value(_) | EntryRef::Null => PropValue::Null,
                }
            }
            CompiledExpr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(row);
                let r = rhs.eval(row);
                op.apply(&l, &r)
            }
            CompiledExpr::Unary { op, operand } => op.apply(operand.eval(row)),
            CompiledExpr::InList { expr, list } => {
                let v = expr.eval(row);
                if v.is_null() {
                    PropValue::Null
                } else {
                    PropValue::Bool(list.contains(&v))
                }
            }
        }
    }

    /// Evaluate as a boolean predicate (Null → false).
    pub fn eval_predicate<G: GraphView>(&self, row: &BatchRow<'_, G>) -> bool {
        self.eval(row).truthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::schema::fig6_schema;

    #[test]
    fn bitmap_push_get_count() {
        let mut b = Bitmap::new();
        assert!(b.is_empty());
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && !b.get(1) && b.get(129));
        assert!(!b.get(500), "out of range is false");
        assert_eq!(b.count_valid(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn column_typed_push_and_demotion() {
        let mut c = Column::new();
        c.push_null();
        c.push(EntryRef::Value(&PropValue::Int(7)));
        // the all-null prefix was retyped in place
        assert!(matches!(c.data(), ColumnData::Value(_)));
        assert_eq!(c.entry(0), EntryRef::Null);
        assert_eq!(c.entry(1).to_value(), PropValue::Int(7));
        // pushing a vertex now demotes to row-wise entries
        c.push(EntryRef::Vertex(VertexId(3)));
        assert!(matches!(c.data(), ColumnData::Entries(_)));
        assert_eq!(c.entry(1).to_value(), PropValue::Int(7));
        assert_eq!(c.entry(2).as_vertex(), Some(VertexId(3)));
        assert_eq!(c.validity().count_valid(), 2);
    }

    #[test]
    fn path_column_offsets() {
        let mut c = Column::new();
        c.push(EntryRef::Path(&[VertexId(1), VertexId(2), VertexId(3)]));
        c.push_null();
        c.push(EntryRef::Path(&[VertexId(4)]));
        assert!(matches!(c.entry(0), EntryRef::Path(p) if p.len() == 3));
        assert_eq!(c.entry(1), EntryRef::Null);
        assert!(matches!(c.entry(2), EntryRef::Path(p) if p == [VertexId(4)]));
        // gather reverses and keeps extents intact
        let g = c.gather(&[2, 0]);
        assert!(matches!(g.entry(0), EntryRef::Path(p) if p == [VertexId(4)]));
        assert!(matches!(g.entry(1), EntryRef::Path(p) if p.len() == 3));
    }

    #[test]
    fn batch_record_roundtrip() {
        let mut tags = TagMap::new();
        let sv = tags.slot_or_insert("v");
        let sc = tags.slot_or_insert("c");
        let mut r1 = Record::new();
        r1.set(sv, Entry::Vertex(VertexId(1)));
        r1.set(sc, Entry::Value(PropValue::str("x")));
        let mut r2 = Record::new();
        r2.set(sv, Entry::Vertex(VertexId(2)));
        // r2 leaves sc unset → Null
        let records = vec![r1, r2];
        let batch = RecordBatch::from_records(&records, tags.len());
        assert_eq!(batch.rows(), 2);
        assert_eq!(batch.width(), 2);
        assert_eq!(batch.entry(sv, 1).as_vertex(), Some(VertexId(2)));
        assert_eq!(batch.entry(sc, 1), EntryRef::Null);
        assert_eq!(batch.entry(99, 0), EntryRef::Null, "oob slot is null");
        let back = batch.to_records();
        assert_eq!(back[0].get(sv), &Entry::Vertex(VertexId(1)));
        assert_eq!(back[1].get(sc), &Entry::Null);
    }

    #[test]
    fn builder_chunks_and_overrides() {
        let mut b = BatchBuilder::new(2, 3);
        let src = {
            let mut batch = RecordBatch::new(2);
            batch.push_row([
                EntryRef::Vertex(VertexId(9)),
                EntryRef::Value(&PropValue::Int(1)),
            ]);
            batch
        };
        for _ in 0..7 {
            b.push_row_from(&src, 0, &[(1, EntryRef::Value(&PropValue::Int(5)))]);
        }
        let batches = b.finish();
        assert_eq!(batches.len(), 3);
        assert_eq!(total_rows(&batches), 7);
        assert_eq!(batches[0].rows(), 3);
        assert_eq!(batches[2].rows(), 1);
        assert_eq!(batches[0].entry(0, 0).as_vertex(), Some(VertexId(9)));
        assert_eq!(batches[0].entry(1, 0).to_value(), PropValue::Int(5));
    }

    #[test]
    fn push_row_ignores_extra_entries() {
        let mut batch = RecordBatch::new(1);
        batch.push_row([
            EntryRef::Vertex(VertexId(1)),
            EntryRef::Vertex(VertexId(2)),
            EntryRef::Null,
        ]);
        assert_eq!(batch.rows(), 1);
        assert_eq!(batch.width(), 1);
        assert_eq!(batch.entry(0, 0).as_vertex(), Some(VertexId(1)));
        // a zero-width batch accepts (and drops) any entries
        let mut empty = RecordBatch::new(0);
        empty.push_row([EntryRef::Vertex(VertexId(3))]);
        assert_eq!(empty.rows(), 1);
        assert_eq!(empty.entry(0, 0), EntryRef::Null);
    }

    #[test]
    fn compiled_expr_matches_scalar_semantics() {
        let mut b = GraphBuilder::new(fig6_schema());
        let p = b
            .add_vertex_by_name(
                "Person",
                vec![
                    ("name", PropValue::str("alice")),
                    ("age", PropValue::Int(30)),
                ],
            )
            .unwrap();
        let g = b.finish();
        let mut tags = TagMap::new();
        let sp = tags.slot_or_insert("p");
        let spath = tags.slot_or_insert("path");
        let mut batch = RecordBatch::new(2);
        batch.push_row([EntryRef::Vertex(p), EntryRef::Path(&[p, p, p])]);
        let _ = sp;
        let _ = spath;
        let row = BatchRow {
            graph: &g,
            batch: &batch,
            row: 0,
            overrides: &[],
        };
        let e = Expr::prop_eq("p", "name", "alice");
        assert!(CompiledExpr::compile(&e, &tags, &g).eval_predicate(&row));
        let e = Expr::prop_eq("path", "length", 2);
        assert!(CompiledExpr::compile(&e, &tags, &g).eval_predicate(&row));
        // unbound tag and unknown property evaluate to null
        let e = Expr::prop_eq("ghost", "name", "x");
        assert!(!CompiledExpr::compile(&e, &tags, &g).eval_predicate(&row));
        let e = Expr::prop_eq("p", "no_such_prop", 1);
        assert!(!CompiledExpr::compile(&e, &tags, &g).eval_predicate(&row));
        // overrides shadow batch columns
        let q = VertexId(0);
        let ov = [(0usize, EntryRef::Vertex(q))];
        let row2 = BatchRow {
            graph: &g,
            batch: &batch,
            row: 0,
            overrides: &ov,
        };
        let e = Expr::binary(gopt_gir::BinOp::Ge, Expr::prop("p", "age"), Expr::lit(18));
        assert!(CompiledExpr::compile(&e, &tags, &g).eval_predicate(&row2));
    }
}
