//! Typed predicate kernels: column-slice evaluation of comparison predicates.
//!
//! [`CompiledExpr`] evaluation is row-at-a-time: every row re-walks the
//! expression tree, materialises each property as an owned `PropValue` and
//! dispatches [`BinOp::apply`] on the enum pair. For the predicates that
//! dominate real filter workloads — comparisons of a property against a
//! literal, possibly AND/OR-combined — this module compiles the expression
//! into a [`TypedPred`] once per operator call and evaluates it against the
//! graph's typed property columns ([`TypedColumn`]) directly:
//!
//! * the property's value slice (`&[i64]`, `&[f64]`, …) is resolved **once
//!   per column** (cached by column identity, so one resolution per
//!   label/shard run) and indexed per row — zero `PropValue` construction,
//!   zero clones on the hot path;
//! * null handling reads the column's [`NullBitmap`]
//!   directly, and `AND`/`OR` combine the per-leaf truth vectors exactly like
//!   [`BinOp::apply`] (`Null` is falsy, the combination is always boolean);
//! * cross-kind comparisons (e.g. a `Date` column against an `Int` literal)
//!   reduce to a **constant** ordering per `PropValue`'s total order, so the
//!   per-row work is a single validity-bit test.
//!
//! The kernel is strictly an acceleration: [`TypedPred::compile`] returns
//! `None` for any expression shape it does not cover, and
//! [`eval_typed_predicate`] returns `false` for any batch column it cannot
//! handle (non-element columns, [`TypedColumn::Mixed`] is handled but other
//! entry kinds are not) — the caller then falls back to the row-wise
//! [`CompiledExpr`] oracle. Equivalence with the oracle is enforced by the
//! unit tests below and by the engine-level suites
//! (`tests/parallel_equivalence.rs`).

use crate::batch::{Bitmap, ColumnData, CompiledExpr, RecordBatch};
use gopt_gir::expr::BinOp;
use gopt_graph::{EdgeId, GraphView, NullBitmap, PropKeyId, PropValue, TypedColumn, VertexId};
use std::cmp::Ordering;

/// A comparison operator, restricted to the six predicates that reduce to an
/// [`Ordering`] test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn from_binop(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The operator with its operands swapped (`lit op prop` → `prop op' lit`).
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Whether the operator accepts the ordering of `cell cmp literal`.
    #[inline]
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Three-valued predicate result, mirroring `PropValue::Null` propagation
/// through comparisons (`x cmp Null = Null`, `Null` is falsy in `AND`/`OR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tri {
    /// Comparison evaluated to false.
    False,
    /// Comparison evaluated to true.
    True,
    /// Comparison evaluated to `Null` (either side null/absent).
    Null,
}

impl Tri {
    #[inline]
    fn truthy(self) -> bool {
        self == Tri::True
    }

    #[inline]
    fn from_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }
}

/// A predicate shape the typed kernels cover: `AND`/`OR` combinations of
/// `tag.prop CMP literal` leaves (in either operand order).
#[derive(Debug, Clone)]
pub(crate) enum TypedPred {
    /// `column[slot].prop op lit`.
    Cmp {
        /// Tag slot holding the element whose property is compared.
        slot: usize,
        /// Interned property key (`None`: the graph never saw the name, the
        /// leaf is constant `Null`).
        key: Option<PropKeyId>,
        /// Comparison operator (normalised to property-on-the-left).
        op: CmpOp,
        /// Literal operand.
        lit: PropValue,
    },
    /// Logical AND of two covered predicates.
    And(Box<TypedPred>, Box<TypedPred>),
    /// Logical OR of two covered predicates.
    Or(Box<TypedPred>, Box<TypedPred>),
}

impl TypedPred {
    /// Compile a [`CompiledExpr`] into a typed predicate, or `None` when the
    /// expression contains anything beyond `AND`/`OR` of
    /// property-vs-literal comparisons.
    pub(crate) fn compile(expr: &CompiledExpr) -> Option<TypedPred> {
        match expr {
            CompiledExpr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    let l = Box::new(TypedPred::compile(lhs)?);
                    let r = Box::new(TypedPred::compile(rhs)?);
                    Some(match op {
                        BinOp::And => TypedPred::And(l, r),
                        _ => TypedPred::Or(l, r),
                    })
                }
                _ => {
                    let cmp = CmpOp::from_binop(*op)?;
                    match (&**lhs, &**rhs) {
                        (
                            CompiledExpr::Prop {
                                slot: Some(s), key, ..
                            },
                            CompiledExpr::Literal(v),
                        ) => Some(TypedPred::Cmp {
                            slot: *s,
                            key: *key,
                            op: cmp,
                            lit: v.clone(),
                        }),
                        (
                            CompiledExpr::Literal(v),
                            CompiledExpr::Prop {
                                slot: Some(s), key, ..
                            },
                        ) => Some(TypedPred::Cmp {
                            slot: *s,
                            key: *key,
                            op: cmp.flip(),
                            lit: v.clone(),
                        }),
                        _ => None,
                    }
                }
            },
            _ => None,
        }
    }
}

/// One leaf comparison specialised against one resolved [`TypedColumn`]: the
/// per-row work is a slice index plus a primitive compare (or, for cross-kind
/// and null cases, a single validity test).
enum LeafKernel<'a> {
    /// Literal is `Null` (or the column kind makes every row null): the leaf
    /// is `Null` for valid cells too.
    AlwaysNull,
    /// `i64` slice vs `i64` literal — `Int` col/`Int` lit or `Date` col/`Date`
    /// lit; both compare by integer value.
    Ints {
        vals: &'a [i64],
        valid: &'a NullBitmap,
        rhs: i64,
    },
    /// `Int` column against a `Float` literal: numeric comparison after cast,
    /// as in `PropValue`'s total order.
    IntsVsFloat {
        vals: &'a [i64],
        valid: &'a NullBitmap,
        rhs: f64,
    },
    /// `Float` column against a numeric literal.
    Floats {
        vals: &'a [f64],
        valid: &'a NullBitmap,
        rhs: f64,
    },
    /// `Bool` column against a `Bool` literal.
    Bools {
        vals: &'a [bool],
        valid: &'a NullBitmap,
        rhs: bool,
    },
    /// Dictionary-encoded `Str` column against a `Str` literal: the literal is
    /// ranked against the column's sorted dictionary **once**, after which each
    /// row is a primitive `u32` compare of its code against the rank — no
    /// string bytes are touched on the per-row path.
    Strs {
        codes: &'a [u32],
        valid: &'a NullBitmap,
        /// `dict.partition_point(|d| d < lit)`.
        rank: u32,
        /// Whether `dict[rank]` equals the literal exactly.
        exact: bool,
    },
    /// Cross-kind comparison: under `PropValue`'s total order the ordering is
    /// a constant of the two kinds, so only validity is read per row.
    ConstOrd {
        column: &'a TypedColumn,
        ord: Ordering,
    },
    /// `Mixed` fallback column: per-row `PropValue` comparison over borrowed
    /// cells (still zero clones).
    Mixed {
        cells: &'a [Option<PropValue>],
        lit: &'a PropValue,
    },
}

impl LeafKernel<'_> {
    /// The ordering of cell `row` against the literal; `None` when the cell
    /// (or the literal) is null.
    #[inline]
    fn ordering(&self, row: usize) -> Option<Ordering> {
        match self {
            LeafKernel::AlwaysNull => None,
            LeafKernel::Ints { vals, valid, rhs } => valid.get(row).then(|| vals[row].cmp(rhs)),
            LeafKernel::IntsVsFloat { vals, valid, rhs } => {
                valid.get(row).then(|| (vals[row] as f64).total_cmp(rhs))
            }
            LeafKernel::Floats { vals, valid, rhs } => {
                valid.get(row).then(|| vals[row].total_cmp(rhs))
            }
            LeafKernel::Bools { vals, valid, rhs } => valid.get(row).then(|| vals[row].cmp(rhs)),
            LeafKernel::Strs {
                codes,
                valid,
                rank,
                exact,
            } => valid.get(row).then(|| {
                // codes are assigned in dictionary (= lexicographic) order, so
                // cmp(value, lit) collapses to cmp against the literal's rank
                let code = codes[row];
                if code < *rank {
                    Ordering::Less
                } else if code == *rank && *exact {
                    Ordering::Equal
                } else {
                    Ordering::Greater
                }
            }),
            LeafKernel::ConstOrd { column, ord } => column.is_valid(row).then_some(*ord),
            LeafKernel::Mixed { cells, lit } => match &cells[row] {
                None => None,
                Some(PropValue::Null) => None,
                Some(v) => Some(v.cmp(lit)),
            },
        }
    }
}

/// Specialise a leaf comparison against one column. All same-rank pairs get a
/// slice kernel; the remaining pairs have constant cross-kind orderings under
/// `PropValue`'s total order, derived by comparing a representative value of
/// the column's kind against the literal once.
fn leaf_kernel<'a>(column: &'a TypedColumn, lit: &'a PropValue) -> LeafKernel<'a> {
    use PropValue as P;
    use TypedColumn as T;
    match (column, lit) {
        (_, P::Null) => LeafKernel::AlwaysNull,
        (T::Int(vals, valid), P::Int(b)) => LeafKernel::Ints {
            vals,
            valid,
            rhs: *b,
        },
        (T::Date(vals, valid), P::Date(b)) => LeafKernel::Ints {
            vals,
            valid,
            rhs: *b,
        },
        (T::Int(vals, valid), P::Float(b)) => LeafKernel::IntsVsFloat {
            vals,
            valid,
            rhs: *b,
        },
        (T::Float(vals, valid), P::Float(b)) => LeafKernel::Floats {
            vals,
            valid,
            rhs: *b,
        },
        (T::Float(vals, valid), P::Int(b)) => LeafKernel::Floats {
            vals,
            valid,
            rhs: *b as f64,
        },
        (T::Bool(vals, valid), P::Bool(b)) => LeafKernel::Bools {
            vals,
            valid,
            rhs: *b,
        },
        (T::Str(col), P::Str(s)) => {
            let (rank, exact) = col.rank_of(s);
            LeafKernel::Strs {
                codes: col.codes(),
                valid: col.validity(),
                rank,
                exact,
            }
        }
        (T::Mixed(cells), lit) => LeafKernel::Mixed { cells, lit },
        // every remaining pair crosses kind ranks: the ordering is constant
        (column, lit) => {
            let representative = match column {
                T::Int(..) => P::Int(0),
                T::Float(..) => P::Float(0.0),
                T::Bool(..) => P::Bool(false),
                T::Date(..) => P::Date(0),
                T::Str(..) => P::str(""),
                T::Mixed(_) => unreachable!("handled above"),
            };
            LeafKernel::ConstOrd {
                column,
                ord: representative.cmp(lit),
            }
        }
    }
}

/// Evaluate one leaf over the element ids of a batch column, pushing one
/// [`Tri`] per row. The property cell of each element is located through the
/// [`GraphView`] typed accessors; the resolved column's kernel is cached by
/// column identity, so a run of same-label (same-shard) elements pays the
/// specialisation once.
#[allow(clippy::too_many_arguments)]
fn eval_leaf<'a, G: GraphView, I: Copy>(
    graph: &'a G,
    ids: &[I],
    validity: &Bitmap,
    key: Option<PropKeyId>,
    op: CmpOp,
    lit: &'a PropValue,
    cell_of: impl Fn(&'a G, I, PropKeyId) -> Option<gopt_graph::ColumnRef<'a>>,
    out: &mut Vec<Tri>,
) {
    out.clear();
    let Some(key) = key else {
        // unknown property name: the leaf is Null on every row
        out.resize(ids.len(), Tri::Null);
        return;
    };
    let mut cached: Option<(*const TypedColumn, LeafKernel<'a>)> = None;
    for (row, &id) in ids.iter().enumerate() {
        if !validity.get(row) {
            out.push(Tri::Null);
            continue;
        }
        let Some(cell) = cell_of(graph, id, key) else {
            out.push(Tri::Null);
            continue;
        };
        let colptr = cell.column as *const TypedColumn;
        if cached.as_ref().is_none_or(|(p, _)| *p != colptr) {
            cached = Some((colptr, leaf_kernel(cell.column, lit)));
        }
        let kernel = &cached.as_ref().expect("just cached").1;
        out.push(match kernel.ordering(cell.row) {
            Some(ord) => Tri::from_bool(op.test(ord)),
            None => Tri::Null,
        });
    }
}

fn eval_node<G: GraphView>(
    pred: &TypedPred,
    graph: &G,
    batch: &RecordBatch,
    out: &mut Vec<Tri>,
) -> bool {
    match pred {
        TypedPred::Cmp { slot, key, op, lit } => match batch.column(*slot) {
            // out-of-range slot: the entry is Null on every row
            None => {
                out.clear();
                out.resize(batch.rows(), Tri::Null);
                true
            }
            Some(c) => match c.data() {
                ColumnData::Vertex(ids) => {
                    eval_leaf(
                        graph,
                        ids,
                        c.validity(),
                        *key,
                        *op,
                        lit,
                        |g, v: VertexId, k| g.vertex_prop_cell(v, k),
                        out,
                    );
                    true
                }
                ColumnData::Edge(ids) => {
                    eval_leaf(
                        graph,
                        ids,
                        c.validity(),
                        *key,
                        *op,
                        lit,
                        |g, e: EdgeId, k| g.edge_prop_cell(e, k),
                        out,
                    );
                    true
                }
                // paths, values, row-wise entries: let the oracle handle them
                _ => false,
            },
        },
        TypedPred::And(l, r) | TypedPred::Or(l, r) => {
            let mut lbuf = Vec::new();
            let mut rbuf = Vec::new();
            if !eval_node(l, graph, batch, &mut lbuf) || !eval_node(r, graph, batch, &mut rbuf) {
                return false;
            }
            let is_and = matches!(pred, TypedPred::And(..));
            out.clear();
            out.extend(lbuf.iter().zip(&rbuf).map(|(a, b)| {
                // BinOp::apply treats Null as falsy in AND/OR and always
                // produces a boolean
                Tri::from_bool(if is_and {
                    a.truthy() && b.truthy()
                } else {
                    a.truthy() || b.truthy()
                })
            }));
            true
        }
    }
}

/// Evaluate a compiled typed predicate over one batch, appending the indices
/// of the accepted rows to `sel`. Returns `false` (leaving `sel` untouched)
/// when some referenced batch column is not a vertex/edge column — the caller
/// must then fall back to row-wise [`CompiledExpr`] evaluation.
pub(crate) fn eval_typed_predicate<G: GraphView>(
    pred: &TypedPred,
    graph: &G,
    batch: &RecordBatch,
    sel: &mut Vec<u32>,
) -> bool {
    let mut tri = Vec::with_capacity(batch.rows());
    if !eval_node(pred, graph, batch, &mut tri) {
        return false;
    }
    debug_assert_eq!(tri.len(), batch.rows());
    for (row, t) in tri.iter().enumerate() {
        if t.truthy() {
            sel.push(row as u32);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchRow, Column};
    use crate::record::TagMap;
    use gopt_gir::expr::Expr;
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::schema::fig6_schema;
    use gopt_graph::PropertyGraph;

    /// Persons with a dense Int `age`, a sparse Date `seen`, a Str `name`, a
    /// Float `score` and a mixed `tag` property.
    fn graph() -> PropertyGraph {
        let mut b = GraphBuilder::new(fig6_schema());
        for i in 0..8i64 {
            let mut props = vec![
                ("age", PropValue::Int(20 + i)),
                ("score", PropValue::Float(i as f64 / 2.0)),
                ("nick", PropValue::str(format!("p{i}"))),
            ];
            if i % 2 == 0 {
                props.push(("seen", PropValue::Date(100 + i)));
            }
            props.push(if i < 4 {
                ("tag", PropValue::Int(i))
            } else {
                ("tag", PropValue::str("x"))
            });
            b.add_vertex_by_name("Person", props).unwrap();
        }
        b.finish()
    }

    fn person_batch(g: &PropertyGraph) -> (RecordBatch, TagMap) {
        let mut tags = TagMap::new();
        let slot = tags.slot_or_insert("p");
        let mut batch = RecordBatch::new(0);
        batch.set_column(slot, Column::vertices(g.vertex_ids().collect()));
        (batch, tags)
    }

    /// Compile `expr`, require the typed kernel to cover it, and assert the
    /// kernel's selection equals the row-wise oracle's.
    fn assert_kernel_matches_oracle(g: &PropertyGraph, expr: &Expr, expect_rows: Option<usize>) {
        let (batch, tags) = person_batch(g);
        let compiled = CompiledExpr::compile(expr, &tags, g);
        let pred = TypedPred::compile(&compiled).expect("kernel covers this shape");
        let mut sel = Vec::new();
        assert!(eval_typed_predicate(&pred, g, &batch, &mut sel));
        let oracle: Vec<u32> = (0..batch.rows())
            .filter(|&row| {
                compiled.eval_predicate(&BatchRow {
                    graph: g,
                    batch: &batch,
                    row,
                    overrides: &[],
                })
            })
            .map(|r| r as u32)
            .collect();
        assert_eq!(sel, oracle, "kernel vs oracle on {expr}");
        if let Some(n) = expect_rows {
            assert_eq!(sel.len(), n, "row count of {expr}");
        }
    }

    #[test]
    fn int_and_date_slice_kernels() {
        let g = graph();
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(BinOp::Lt, Expr::prop("p", "age"), Expr::lit(24)),
            Some(4),
        );
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(BinOp::Ge, Expr::lit(24), Expr::prop("p", "age")),
            Some(5),
        );
        // sparse Date column: nulls never match
        let seen = Expr::binary(
            BinOp::Le,
            Expr::prop("p", "seen"),
            Expr::lit(PropValue::Date(104)),
        );
        assert_kernel_matches_oracle(&g, &seen, Some(3));
    }

    #[test]
    fn float_str_bool_and_unknown_key_kernels() {
        let g = graph();
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(BinOp::Gt, Expr::prop("p", "score"), Expr::lit(1.4)),
            Some(5),
        );
        // float column vs int literal compares numerically
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(BinOp::Le, Expr::prop("p", "score"), Expr::lit(1)),
            Some(3),
        );
        assert_kernel_matches_oracle(&g, &Expr::prop_eq("p", "nick", "p3"), Some(1));
        // property name the graph never interned
        assert_kernel_matches_oracle(&g, &Expr::prop_eq("p", "ghost", 1), Some(0));
    }

    #[test]
    fn cross_kind_comparisons_are_constant_orderings() {
        let g = graph();
        // Date column vs Int literal: Date ranks above Int in the total
        // order, so > matches every row carrying the property
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(BinOp::Gt, Expr::prop("p", "seen"), Expr::lit(0)),
            Some(4),
        );
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(BinOp::Lt, Expr::prop("p", "seen"), Expr::lit(0)),
            Some(0),
        );
        // Int column vs Str literal: Int ranks below Str
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(
                BinOp::Lt,
                Expr::prop("p", "age"),
                Expr::lit(PropValue::str("a")),
            ),
            Some(8),
        );
    }

    #[test]
    fn mixed_columns_and_null_literals_fall_back_to_cell_compare() {
        let g = graph();
        // `tag` mixes Int and Str cells: the Mixed kernel compares per cell
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(BinOp::Lt, Expr::prop("p", "tag"), Expr::lit(2)),
            Some(2),
        );
        assert_kernel_matches_oracle(&g, &Expr::prop_eq("p", "tag", "x"), Some(4));
        // Null literal: comparison is Null everywhere
        assert_kernel_matches_oracle(
            &g,
            &Expr::binary(
                BinOp::Eq,
                Expr::prop("p", "age"),
                Expr::lit(PropValue::Null),
            ),
            Some(0),
        );
    }

    #[test]
    fn and_or_combinations_match_binop_semantics() {
        let g = graph();
        let lt = Expr::binary(BinOp::Lt, Expr::prop("p", "age"), Expr::lit(24));
        let seen = Expr::binary(
            BinOp::Ge,
            Expr::prop("p", "seen"),
            Expr::lit(PropValue::Date(0)),
        );
        // AND with a sparse side: Null is falsy
        assert_kernel_matches_oracle(&g, &lt.clone().and(seen.clone()), Some(2));
        assert_kernel_matches_oracle(&g, &Expr::binary(BinOp::Or, lt, seen), Some(6));
    }

    #[test]
    fn unsupported_shapes_are_rejected_at_compile() {
        let g = graph();
        let tags = {
            let mut t = TagMap::new();
            t.slot_or_insert("p");
            t
        };
        for expr in [
            Expr::binary(
                BinOp::Lt,
                Expr::binary(BinOp::Add, Expr::prop("p", "age"), Expr::lit(1)),
                Expr::lit(25),
            ),
            Expr::tag("p"),
            Expr::binary(BinOp::Lt, Expr::prop("p", "age"), Expr::prop("p", "score")),
            Expr::prop_eq("ghost_tag", "age", 1),
        ] {
            let compiled = CompiledExpr::compile(&expr, &tags, &g);
            assert!(
                TypedPred::compile(&compiled).is_none(),
                "{expr} should fall back"
            );
        }
    }

    #[test]
    fn non_element_columns_bail_to_the_oracle() {
        let g = graph();
        let mut tags = TagMap::new();
        let slot = tags.slot_or_insert("p");
        let mut batch = RecordBatch::new(0);
        batch.set_column(slot, Column::values(vec![PropValue::Int(1); 3]));
        let compiled = CompiledExpr::compile(&Expr::prop_eq("p", "age", 21), &tags, &g);
        let pred = TypedPred::compile(&compiled).unwrap();
        let mut sel = Vec::new();
        assert!(!eval_typed_predicate(&pred, &g, &batch, &mut sel));
        assert!(sel.is_empty());
    }
}
