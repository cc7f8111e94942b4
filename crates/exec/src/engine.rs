//! The scalar oracle, and the result and statistics every engine returns.
//!
//! [`Engine`] walks a [`PhysicalPlan`] in topological order and materialises the
//! output of each operator as `Vec<Record>`, one row at a time. It is not a
//! production path: it is the **behavioural oracle** the morsel-driven
//! [`crate::parallel::ParallelEngine`] — which both backends run — must agree with
//! on rows, row order, tags, [`ExecStats::intermediate_records`],
//! [`ExecStats::peak_records`] and errors, record-limit aborts included.
//!
//! A configurable intermediate-record limit plays the role of the paper's one-hour
//! timeout ("OT"): grossly un-optimized plans are cut off instead of exhausting memory.

use crate::batch::{self, RecordBatch};
use crate::context::{self, QueryContext};
use crate::error::ExecError;
use crate::expand::{self, EdgeExpandArgs};
use crate::record::{Record, TagMap};
use crate::relational;
use gopt_gir::physical::{PhysicalOp, PhysicalPlan};
use gopt_graph::{PropValue, PropertyGraph};
use std::time::Instant;

/// Stable operator name for error reporting ([`ExecError::WorkerPanicked`]).
pub(crate) fn op_name(op: &PhysicalOp) -> &'static str {
    match op {
        PhysicalOp::Scan { .. } => "Scan",
        PhysicalOp::EdgeExpand { .. } => "EdgeExpand",
        PhysicalOp::ExpandInto { .. } => "ExpandInto",
        PhysicalOp::ExpandIntersect { .. } => "ExpandIntersect",
        PhysicalOp::PathExpand { .. } => "PathExpand",
        PhysicalOp::HashJoin { .. } => "HashJoin",
        PhysicalOp::PropertyFetch { .. } => "PropertyFetch",
        PhysicalOp::Select { .. } => "Select",
        PhysicalOp::Project { .. } => "Project",
        PhysicalOp::HashGroup { .. } => "HashGroup",
        PhysicalOp::OrderLimit { .. } => "OrderLimit",
        PhysicalOp::Limit { .. } => "Limit",
        PhysicalOp::Dedup { .. } => "Dedup",
        PhysicalOp::Union => "Union",
    }
}

/// Approximate accountable bytes of a scalar operator's materialised output:
/// a flat per-record overhead plus one entry slot per bound tag. Deliberately
/// a heuristic — the budget meters order-of-magnitude memory, not allocator
/// truth — but deterministic, so identical runs charge identical totals.
fn scalar_bytes(records: &[Record], width: usize) -> u64 {
    records.len() as u64 * (32 + 16 * width as u64)
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Abort execution when the total number of produced intermediate records exceeds
    /// this limit (the benchmark harness' analogue of the paper's OT timeouts).
    pub record_limit: Option<u64>,
}

/// Execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Total number of records produced across all operators.
    pub intermediate_records: u64,
    /// Largest single-operator output.
    pub peak_records: u64,
    /// Records that crossed a partition boundary (0 on a single machine).
    pub comm_records: u64,
    /// Bytes that crossed a partition boundary, estimated from
    /// [`RecordBatch::approx_bytes`](crate::RecordBatch::approx_bytes) of the
    /// routed rows. Like `comm_records` it is a pure function of the data and
    /// the partitioner — identical across thread counts, and 0 with one
    /// partition.
    pub comm_bytes: u64,
    /// Partition-boundary crossings that were served on the local shard by a
    /// replicated hub adjacency instead of shipping the row (0 without hub
    /// replication, and always 0 with one partition). Like `comm_records`, a
    /// pure function of the data and the placement.
    pub locality_hits: u64,
    /// Total bytes of hub adjacency replicated into remote shards by the
    /// partitioned graph this query ran against — the storage price paid for
    /// `locality_hits`. Constant per deployment, not per query.
    pub replicated_bytes: u64,
    /// Always 0: partitioned expands stream through the pipeline and no
    /// longer buffer routed rows. Kept only because the benchmark harness
    /// reads it; a benchmark-only change removes it.
    pub exchange_peak_bytes: u64,
    /// Wall-clock execution time in microseconds.
    pub elapsed_micros: u128,
}

/// The result of executing a plan: the root operator's batches, kept
/// columnar until a caller asks for rows.
#[derive(Debug, Clone)]
pub struct ExecResult {
    batches: Vec<RecordBatch>,
    /// Tag → slot mapping of the final rows.
    pub tags: TagMap,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl ExecResult {
    /// A result over the root operator's output batches.
    pub fn new(batches: Vec<RecordBatch>, tags: TagMap, stats: ExecStats) -> Self {
        ExecResult {
            batches,
            tags,
            stats,
        }
    }

    /// A result over scalar records (one batch of `tags.len()` columns).
    pub fn from_records(records: &[Record], tags: TagMap, stats: ExecStats) -> Self {
        let batch = RecordBatch::from_records(records, tags.len());
        ExecResult::new(vec![batch], tags, stats)
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        batch::total_rows(&self.batches)
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The result rows as scalar records.
    pub fn records(&self) -> Vec<Record> {
        self.batches.iter().flat_map(|b| b.to_records()).collect()
    }

    /// One value row per result row, reading the given slots (`None` = null).
    fn rows_of(&self, slots: &[Option<usize>]) -> Vec<Vec<PropValue>> {
        let mut rows = Vec::with_capacity(self.len());
        for b in &self.batches {
            rows.extend((0..b.rows()).map(|row| {
                slots
                    .iter()
                    .map(|s| s.map_or(PropValue::Null, |s| b.entry(s, row).to_value()))
                    .collect::<Vec<_>>()
            }));
        }
        rows
    }

    /// All result rows converted to plain values (slot order).
    pub fn rows(&self) -> Vec<Vec<PropValue>> {
        self.rows_of(&(0..self.tags.len()).map(Some).collect::<Vec<_>>())
    }

    /// Result rows restricted to the given tags (in the given order).
    pub fn rows_for(&self, tags: &[&str]) -> Vec<Vec<PropValue>> {
        self.rows_of(&tags.iter().map(|t| self.tags.slot(t)).collect::<Vec<_>>())
    }

    /// Sorted full rows — convenient for order-insensitive result comparisons in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<PropValue>> {
        let mut rows = self.rows();
        rows.sort();
        rows
    }

    /// Sorted rows restricted to the given tags.
    pub fn sorted_rows_for(&self, tags: &[&str]) -> Vec<Vec<PropValue>> {
        let mut rows = self.rows_for(tags);
        rows.sort();
        rows
    }
}

/// The scalar plan interpreter: the oracle.
pub struct Engine<'a> {
    graph: &'a PropertyGraph,
    config: EngineConfig,
}

impl<'a> Engine<'a> {
    /// Create an engine over a graph with the given configuration.
    pub fn new(graph: &'a PropertyGraph, config: EngineConfig) -> Self {
        Engine { graph, config }
    }

    /// The graph being queried.
    pub fn graph(&self) -> &PropertyGraph {
        self.graph
    }

    /// Execute a physical plan under a fresh [`QueryContext`] carrying only
    /// the engine-level record limit.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<ExecResult, ExecError> {
        self.execute_with_ctx(
            plan,
            &QueryContext::new().with_record_limit(self.config.record_limit),
        )
    }

    /// Execute a physical plan under `ctx`: cancellation, deadline, budget and
    /// record limit are checked at every operator boundary and inside every
    /// pipeline breaker's accumulation loop. A panic inside an operator is
    /// confined to this query and surfaced as [`ExecError::WorkerPanicked`].
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
        let mut stats = ExecStats::default();
        let order = plan.topo_order();
        // per-node outputs, indexed by node id
        let mut outputs: Vec<Option<(Vec<Record>, TagMap)>> = vec![None; plan.len()];
        for id in &order {
            ctx.check().map_err(ExecError::LimitExceeded)?;
            let input_ids = plan.inputs(*id).to_vec();
            let name = op_name(plan.op(*id));
            // the fail-point check runs inside the unwind boundary so that a
            // `panic` action models a crash confined to this query
            let (records, tags) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                failpoint::check(context::FP_OPERATOR).map_err(context::injected)?;
                self.execute_op(plan.op(*id), &input_ids, &outputs, ctx)
            }))
            .unwrap_or_else(|payload| Err(context::map_panic(payload, name)))?;
            stats.intermediate_records += records.len() as u64;
            stats.peak_records = stats.peak_records.max(records.len() as u64);
            ctx.add_records(records.len() as u64)
                .map_err(ExecError::LimitExceeded)?;
            ctx.charge_bytes(scalar_bytes(&records, tags.len()))
                .map_err(ExecError::LimitExceeded)?;
            outputs[id.0] = Some((records, tags));
        }
        let (records, tags) = outputs[plan.root().0]
            .take()
            .expect("root was executed last");
        stats.elapsed_micros = start.elapsed().as_micros();
        Ok(ExecResult::from_records(&records, tags, stats))
    }

    fn take_input<'b>(
        op: &'static str,
        inputs: &[gopt_gir::physical::PhysicalNodeId],
        outputs: &'b [Option<(Vec<Record>, TagMap)>],
        n: usize,
    ) -> Result<Vec<&'b (Vec<Record>, TagMap)>, ExecError> {
        if inputs.len() != n {
            return Err(ExecError::ArityMismatch {
                op,
                expected: n,
                actual: inputs.len(),
            });
        }
        Ok(inputs
            .iter()
            .map(|i| {
                outputs[i.0]
                    .as_ref()
                    .expect("inputs executed before consumers")
            })
            .collect())
    }

    fn execute_op(
        &self,
        op: &PhysicalOp,
        inputs: &[gopt_gir::physical::PhysicalNodeId],
        outputs: &[Option<(Vec<Record>, TagMap)>],
        ctx: &QueryContext,
    ) -> Result<(Vec<Record>, TagMap), ExecError> {
        match op {
            PhysicalOp::Scan {
                alias,
                constraint,
                predicate,
            } => {
                let mut tags = TagMap::new();
                let recs = expand::scan(self.graph, &mut tags, alias, constraint, predicate);
                Ok((recs, tags))
            }
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
                let input = Self::take_input("EdgeExpand", inputs, outputs, 1)?;
                let (recs, in_tags) = input[0];
                let mut tags = in_tags.clone();
                let args = EdgeExpandArgs {
                    src,
                    edge_alias: edge_alias.as_deref(),
                    edge_constraint,
                    direction: *direction,
                    dst_alias,
                    dst_constraint,
                    dst_predicate,
                    edge_predicate,
                };
                let out = expand::edge_expand(self.graph, recs, &mut tags, &args)?;
                Ok((out, tags))
            }
            PhysicalOp::ExpandInto {
                src,
                dst,
                edge_constraint,
                direction,
                edge_alias,
                edge_predicate,
            } => {
                let input = Self::take_input("ExpandInto", inputs, outputs, 1)?;
                let (recs, in_tags) = input[0];
                let mut tags = in_tags.clone();
                let out = expand::expand_into(
                    self.graph,
                    recs,
                    &mut tags,
                    src,
                    dst,
                    edge_constraint,
                    *direction,
                    edge_alias.as_deref(),
                    edge_predicate,
                )?;
                Ok((out, tags))
            }
            PhysicalOp::ExpandIntersect {
                steps,
                dst_alias,
                dst_constraint,
                dst_predicate,
            } => {
                let input = Self::take_input("ExpandIntersect", inputs, outputs, 1)?;
                let (recs, in_tags) = input[0];
                let mut tags = in_tags.clone();
                let out = expand::expand_intersect(
                    self.graph,
                    recs,
                    &mut tags,
                    steps,
                    dst_alias,
                    dst_constraint,
                    dst_predicate,
                )?;
                Ok((out, tags))
            }
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
                let input = Self::take_input("PathExpand", inputs, outputs, 1)?;
                let (recs, in_tags) = input[0];
                let mut tags = in_tags.clone();
                let out = expand::path_expand(
                    self.graph,
                    recs,
                    &mut tags,
                    src,
                    dst_alias,
                    edge_constraint,
                    *direction,
                    *min_hops,
                    *max_hops,
                    *semantics,
                    path_alias.as_deref(),
                )?;
                Ok((out, tags))
            }
            PhysicalOp::HashJoin { keys, kind } => {
                let input = Self::take_input("HashJoin", inputs, outputs, 2)?;
                let (l, lt) = input[0];
                let (r, rt) = input[1];
                let (out, tags) = relational::hash_join(l, lt, r, rt, keys, *kind)?;
                Ok((out, tags))
            }
            PhysicalOp::PropertyFetch { tag, props } => {
                let input = Self::take_input("PropertyFetch", inputs, outputs, 1)?;
                let (recs, in_tags) = input[0];
                let mut tags = in_tags.clone();
                let out = relational::property_fetch(self.graph, recs, &mut tags, tag, props)?;
                Ok((out, tags))
            }
            PhysicalOp::Select { predicate } => {
                let input = Self::take_input("Select", inputs, outputs, 1)?;
                let (recs, tags) = input[0];
                Ok((
                    relational::select(self.graph, recs, tags, predicate),
                    tags.clone(),
                ))
            }
            PhysicalOp::Project { items } => {
                let input = Self::take_input("Project", inputs, outputs, 1)?;
                let (recs, tags) = input[0];
                let (out, otags) = relational::project(self.graph, recs, tags, items);
                Ok((out, otags))
            }
            PhysicalOp::HashGroup { keys, aggs } => {
                let input = Self::take_input("HashGroup", inputs, outputs, 1)?;
                let (recs, tags) = input[0];
                let (out, otags) = relational::hash_group(self.graph, recs, tags, keys, aggs, ctx)?;
                Ok((out, otags))
            }
            PhysicalOp::OrderLimit { keys, limit } => {
                let input = Self::take_input("OrderLimit", inputs, outputs, 1)?;
                let (recs, tags) = input[0];
                Ok((
                    relational::order_limit(self.graph, recs, tags, keys, *limit, ctx)?,
                    tags.clone(),
                ))
            }
            PhysicalOp::Limit { count } => {
                let input = Self::take_input("Limit", inputs, outputs, 1)?;
                let (recs, tags) = input[0];
                Ok((relational::limit(recs, *count), tags.clone()))
            }
            PhysicalOp::Dedup { keys } => {
                let input = Self::take_input("Dedup", inputs, outputs, 1)?;
                let (recs, tags) = input[0];
                Ok((
                    relational::dedup(self.graph, recs, tags, keys, ctx)?,
                    tags.clone(),
                ))
            }
            PhysicalOp::Union => {
                if inputs.is_empty() {
                    return Err(ExecError::ArityMismatch {
                        op: "Union",
                        expected: 2,
                        actual: 0,
                    });
                }
                let gathered: Vec<&(Vec<Record>, TagMap)> = inputs
                    .iter()
                    .map(|i| outputs[i.0].as_ref().expect("inputs executed"))
                    .collect();
                let pairs: Vec<(&[Record], &TagMap)> =
                    gathered.iter().map(|(r, t)| (r.as_slice(), t)).collect();
                let (out, tags) = relational::union(&pairs);
                Ok((out, tags))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_gir::pattern::Direction;
    use gopt_gir::types::TypeConstraint;
    use gopt_gir::{AggFunc, Expr, SortDir};
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::schema::fig6_schema;

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
        let china = b
            .add_vertex_by_name("Place", vec![("name", PropValue::str("China"))])
            .unwrap();
        let spain = b
            .add_vertex_by_name("Place", vec![("name", PropValue::str("Spain"))])
            .unwrap();
        b.add_edge_by_name("Knows", p[0], p[1], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[0], p[2], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[1], p[2], vec![]).unwrap();
        b.add_edge_by_name("Knows", p[2], p[3], vec![]).unwrap();
        b.add_edge_by_name("LocatedIn", p[0], china, vec![])
            .unwrap();
        b.add_edge_by_name("LocatedIn", p[1], china, vec![])
            .unwrap();
        b.add_edge_by_name("LocatedIn", p[2], china, vec![])
            .unwrap();
        b.add_edge_by_name("LocatedIn", p[3], spain, vec![])
            .unwrap();
        b.finish()
    }

    fn person(g: &PropertyGraph) -> TypeConstraint {
        TypeConstraint::basic(g.schema().vertex_label("Person").unwrap())
    }
    fn place(g: &PropertyGraph) -> TypeConstraint {
        TypeConstraint::basic(g.schema().vertex_label("Place").unwrap())
    }
    fn knows(g: &PropertyGraph) -> TypeConstraint {
        TypeConstraint::basic(g.schema().edge_label("Knows").unwrap())
    }
    fn located(g: &PropertyGraph) -> TypeConstraint {
        TypeConstraint::basic(g.schema().edge_label("LocatedIn").unwrap())
    }

    /// Plan: who knows someone located in China, grouped and counted.
    fn plan_group_count(g: &PropertyGraph) -> PhysicalPlan {
        let mut plan = PhysicalPlan::new();
        plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person(g),
            predicate: None,
        });
        plan.push(PhysicalOp::EdgeExpand {
            src: "a".into(),
            edge_alias: None,
            edge_constraint: knows(g),
            direction: Direction::Out,
            dst_alias: "b".into(),
            dst_constraint: person(g),
            dst_predicate: None,
            edge_predicate: None,
        });
        plan.push(PhysicalOp::EdgeExpand {
            src: "b".into(),
            edge_alias: None,
            edge_constraint: located(g),
            direction: Direction::Out,
            dst_alias: "c".into(),
            dst_constraint: place(g),
            dst_predicate: Some(Expr::prop_eq("c", "name", "China")),
            edge_predicate: None,
        });
        plan.push(PhysicalOp::HashGroup {
            keys: vec![(Expr::prop("a", "name"), "name".into())],
            aggs: vec![(AggFunc::Count, Expr::tag("b"), "cnt".into())],
        });
        plan.push(PhysicalOp::OrderLimit {
            keys: vec![
                (Expr::tag("cnt"), SortDir::Desc),
                (Expr::tag("name"), SortDir::Asc),
            ],
            limit: Some(10),
        });
        plan
    }

    #[test]
    fn end_to_end_group_count() {
        let g = graph();
        let engine = Engine::new(&g, EngineConfig::default());
        assert_eq!(engine.graph().vertex_count(), 6);
        let result = engine.execute(&plan_group_count(&g)).unwrap();
        // p0 knows p1,p2 (both in China) => 2 ; p1 knows p2 => 1 ; p2 knows p3 (Spain) => none
        let rows = result.rows_for(&["name", "cnt"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![PropValue::str("p0"), PropValue::Int(2)]);
        assert_eq!(rows[1], vec![PropValue::str("p1"), PropValue::Int(1)]);
        assert!(result.stats.intermediate_records > 0);
        assert_eq!(result.stats.comm_records, 0);
        assert!(!result.is_empty());
        assert_eq!(result.len(), 2);
        assert_eq!(result.sorted_rows().len(), 2);
        assert_eq!(result.sorted_rows_for(&["name"]).len(), 2);
        // unknown tag in rows_for yields nulls
        assert_eq!(result.rows_for(&["ghost"])[0][0], PropValue::Null);
    }

    #[test]
    fn record_limit_aborts_execution() {
        let g = graph();
        let engine = Engine::new(
            &g,
            EngineConfig {
                record_limit: Some(3),
            },
        );
        let err = engine.execute(&plan_group_count(&g));
        match err {
            Err(e) => assert_eq!(e, ExecError::record_limit(3)),
            Ok(_) => panic!("expected the record limit to abort execution"),
        }
    }

    #[test]
    fn empty_plan_and_arity_errors() {
        let g = graph();
        let engine = Engine::new(&g, EngineConfig::default());
        assert!(matches!(
            engine.execute(&PhysicalPlan::new()),
            Err(ExecError::EmptyPlan)
        ));
        // a select with no input
        let mut plan = PhysicalPlan::new();
        plan.add(
            PhysicalOp::Select {
                predicate: Expr::lit(true),
            },
            vec![],
        );
        assert!(matches!(
            engine.execute(&plan),
            Err(ExecError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn join_and_union_plans_execute() {
        let g = graph();
        // left: persons located in China; right: persons who know someone
        let mut plan = PhysicalPlan::new();
        let l0 = plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person(&g),
            predicate: None,
        });
        let l1 = plan.add(
            PhysicalOp::EdgeExpand {
                src: "a".into(),
                edge_alias: None,
                edge_constraint: located(&g),
                direction: Direction::Out,
                dst_alias: "c".into(),
                dst_constraint: place(&g),
                dst_predicate: Some(Expr::prop_eq("c", "name", "China")),
                edge_predicate: None,
            },
            vec![l0],
        );
        let r0 = plan.add(
            PhysicalOp::Scan {
                alias: "a".into(),
                constraint: person(&g),
                predicate: None,
            },
            vec![],
        );
        let r1 = plan.add(
            PhysicalOp::EdgeExpand {
                src: "a".into(),
                edge_alias: None,
                edge_constraint: knows(&g),
                direction: Direction::Out,
                dst_alias: "b".into(),
                dst_constraint: person(&g),
                dst_predicate: None,
                edge_predicate: None,
            },
            vec![r0],
        );
        let j = plan.add(
            PhysicalOp::HashJoin {
                keys: vec!["a".into()],
                kind: gopt_gir::JoinType::Inner,
            },
            vec![l1, r1],
        );
        plan.add(
            PhysicalOp::Dedup {
                keys: vec![Expr::tag("a")],
            },
            vec![j],
        );
        let engine = Engine::new(&g, EngineConfig::default());
        let res = engine.execute(&plan).unwrap();
        // persons in China who know someone: p0, p1, p2
        assert_eq!(res.len(), 3);

        // union of two scans
        let mut uplan = PhysicalPlan::new();
        let s1 = uplan.push(PhysicalOp::Scan {
            alias: "x".into(),
            constraint: person(&g),
            predicate: None,
        });
        let s2 = uplan.add(
            PhysicalOp::Scan {
                alias: "x".into(),
                constraint: place(&g),
                predicate: None,
            },
            vec![],
        );
        uplan.add(PhysicalOp::Union, vec![s1, s2]);
        let res = engine.execute(&uplan).unwrap();
        assert_eq!(res.len(), 6);
    }
}
