//! Physical operators and physical plans.
//!
//! The physical plan is what GOpt hands to a backend for execution. Its pattern-matching
//! operators correspond to the strategies discussed in Section 6.3 of the paper:
//!
//! * [`PhysicalOp::Scan`] — scan the vertices admitted by a type constraint (optionally
//!   filtered), binding the first pattern vertex;
//! * [`PhysicalOp::EdgeExpand`] — expand to a **new** vertex along one pattern edge,
//!   flattening the intermediate results (the basic `Expand` of both backends);
//! * [`PhysicalOp::ExpandInto`] — close a pattern edge between two **already bound**
//!   vertices by checking edge existence (Neo4j's implementation of vertex expansion);
//! * [`PhysicalOp::ExpandIntersect`] — bind a new vertex by intersecting the adjacency
//!   lists of several already-bound vertices (GraphScope's worst-case-optimal
//!   implementation);
//! * [`PhysicalOp::HashJoin`] — binary join of two sub-plans on common tags;
//! * [`PhysicalOp::PathExpand`] — variable-length path expansion;
//! * plus the relational operators (`Select`, `Project`, `HashGroup`, `OrderLimit`,
//!   `Limit`, `Dedup`, `Union`).
//!
//! The paper serialises physical plans with Protocol Buffers to ship them to backends;
//! here [`PhysicalPlan::encode`] produces an equivalent line-oriented textual encoding.

use crate::expr::{AggFunc, Expr, SortDir};
use crate::logical::JoinType;
use crate::pattern::{Direction, PathSemantics};
use crate::types::TypeConstraint;
use gopt_graph::PropValue;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a node within one [`PhysicalPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysicalNodeId(pub usize);

/// One adjacency-intersection step of an [`PhysicalOp::ExpandIntersect`].
#[derive(Debug, Clone, PartialEq)]
pub struct IntersectStep {
    /// Tag of the already-bound source vertex.
    pub src: String,
    /// Edge type constraint.
    pub edge_constraint: TypeConstraint,
    /// Expansion direction relative to `src`.
    pub direction: Direction,
    /// Optional alias under which the matched edge is recorded.
    pub edge_alias: Option<String>,
}

/// A physical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalOp {
    /// Scan all vertices admitted by `constraint`, binding them to `alias`.
    Scan {
        /// Output tag.
        alias: String,
        /// Vertex type constraint.
        constraint: TypeConstraint,
        /// Optional pushed-down predicate.
        predicate: Option<Expr>,
    },
    /// Expand from `src` along edges admitted by `edge_constraint` to a new vertex
    /// bound to `dst_alias`, flattening results.
    EdgeExpand {
        /// Tag of the bound source vertex.
        src: String,
        /// Optional output tag for the traversed edge.
        edge_alias: Option<String>,
        /// Edge type constraint.
        edge_constraint: TypeConstraint,
        /// Expansion direction relative to `src`.
        direction: Direction,
        /// Output tag of the newly bound vertex.
        dst_alias: String,
        /// Type constraint on the destination vertex.
        dst_constraint: TypeConstraint,
        /// Optional predicate on the destination vertex.
        dst_predicate: Option<Expr>,
        /// Optional predicate on the traversed edge.
        edge_predicate: Option<Expr>,
    },
    /// Close an edge between two already-bound vertices (`src`, `dst`) by checking edge
    /// existence. This is Neo4j's `ExpandInto`.
    ExpandInto {
        /// Tag of the bound source vertex.
        src: String,
        /// Tag of the bound destination vertex.
        dst: String,
        /// Edge type constraint.
        edge_constraint: TypeConstraint,
        /// Direction of the pattern edge relative to `src`.
        direction: Direction,
        /// Optional output tag for the matched edge.
        edge_alias: Option<String>,
        /// Optional predicate on the matched edge.
        edge_predicate: Option<Expr>,
    },
    /// Bind a new vertex `dst_alias` by intersecting adjacency lists from several bound
    /// vertices. This is GraphScope's worst-case-optimal `ExpandIntersect`.
    ExpandIntersect {
        /// The adjacency lists to intersect (one per pattern edge incident to the new vertex).
        steps: Vec<IntersectStep>,
        /// Output tag of the newly bound vertex.
        dst_alias: String,
        /// Type constraint on the new vertex.
        dst_constraint: TypeConstraint,
        /// Optional predicate on the new vertex.
        dst_predicate: Option<Expr>,
    },
    /// Variable-length path expansion from `src` to a new vertex.
    PathExpand {
        /// Tag of the bound source vertex.
        src: String,
        /// Output tag of the reached vertex.
        dst_alias: String,
        /// Edge type constraint applied to every hop.
        edge_constraint: TypeConstraint,
        /// Direction of every hop.
        direction: Direction,
        /// Minimum number of hops.
        min_hops: u32,
        /// Maximum number of hops.
        max_hops: u32,
        /// Path semantics (arbitrary / simple / trail).
        semantics: PathSemantics,
        /// Optional output tag for the whole path.
        path_alias: Option<String>,
    },
    /// Hash join of the two inputs on equality of the given tags.
    HashJoin {
        /// Join keys (tags bound on both sides).
        keys: Vec<String>,
        /// Join semantics.
        kind: JoinType,
    },
    /// Materialise properties of a bound element into the record (the paper's `COLUMNS`).
    ///
    /// Without the `FieldTrim` rule the optimizer materialises **all** declared
    /// properties of every tagged pattern element; with the rule only the columns that
    /// later operators actually reference are fetched.
    PropertyFetch {
        /// Tag of the bound vertex or edge.
        tag: String,
        /// Properties to fetch; `None` means all properties declared for the element's label.
        props: Option<Vec<String>>,
    },
    /// Filter.
    Select {
        /// Predicate.
        predicate: Expr,
    },
    /// Projection (keeps only the produced columns).
    Project {
        /// `(expr, alias)` items.
        items: Vec<(Expr, String)>,
    },
    /// Hash aggregation.
    HashGroup {
        /// Grouping keys.
        keys: Vec<(Expr, String)>,
        /// Aggregates.
        aggs: Vec<(AggFunc, Expr, String)>,
    },
    /// Sort (optionally top-k).
    OrderLimit {
        /// Sort keys.
        keys: Vec<(Expr, SortDir)>,
        /// Optional row limit.
        limit: Option<usize>,
    },
    /// Row limit.
    Limit {
        /// Number of rows to keep.
        count: usize,
    },
    /// Duplicate elimination on the given keys.
    Dedup {
        /// Deduplication keys.
        keys: Vec<Expr>,
    },
    /// Concatenation of all inputs.
    Union,
}

impl PhysicalOp {
    /// Operator name in CamelCase (physical operators use CamelCase in the paper's figures).
    pub fn name(&self) -> &'static str {
        match self {
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

    /// The tags of its input this operator reads: those its expressions
    /// name, plus its source and key tags. (A predicate on a vertex or edge
    /// the operator itself binds names that alias too.)
    pub fn reads(&self) -> BTreeSet<String> {
        let mut exprs = Vec::new();
        collect_op_exprs(self, &mut exprs);
        let mut tags: BTreeSet<String> = exprs.iter().flat_map(|e| e.referenced_tags()).collect();
        match self {
            PhysicalOp::EdgeExpand { src, .. } | PhysicalOp::PathExpand { src, .. } => {
                tags.insert(src.clone());
            }
            PhysicalOp::ExpandInto { src, dst, .. } => tags.extend([src.clone(), dst.clone()]),
            PhysicalOp::ExpandIntersect { steps, .. } => {
                tags.extend(steps.iter().map(|s| s.src.clone()))
            }
            PhysicalOp::HashJoin { keys, .. } => tags.extend(keys.iter().cloned()),
            PhysicalOp::PropertyFetch { tag, .. } => {
                tags.insert(tag.clone());
            }
            _ => {}
        }
        tags
    }

    /// The aliases a pattern-matching operator binds on top of its input's
    /// tags (empty for every other operator).
    pub fn binds(&self) -> Vec<&str> {
        let (vertex, other) = match self {
            PhysicalOp::Scan { alias, .. } => (Some(alias), &None),
            PhysicalOp::EdgeExpand {
                dst_alias,
                edge_alias,
                ..
            } => (Some(dst_alias), edge_alias),
            PhysicalOp::ExpandInto { edge_alias, .. } => (None, edge_alias),
            PhysicalOp::ExpandIntersect { dst_alias, .. } => (Some(dst_alias), &None),
            PhysicalOp::PathExpand {
                dst_alias,
                path_alias,
                ..
            } => (Some(dst_alias), path_alias),
            _ => (None, &None),
        };
        vertex
            .into_iter()
            .chain(other)
            .map(String::as_str)
            .collect()
    }

    /// Whether this is one of the pattern-matching (graph) operators.
    pub fn is_graph_op(&self) -> bool {
        matches!(
            self,
            PhysicalOp::Scan { .. }
                | PhysicalOp::EdgeExpand { .. }
                | PhysicalOp::ExpandInto { .. }
                | PhysicalOp::ExpandIntersect { .. }
                | PhysicalOp::PathExpand { .. }
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
struct PhysicalNode {
    op: PhysicalOp,
    inputs: Vec<PhysicalNodeId>,
    /// Optimizer cardinality estimate for this operator's output, when known.
    est_rows: Option<f64>,
}

/// A physical plan: an arena of physical operators with producer links and a root.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysicalPlan {
    nodes: Vec<PhysicalNode>,
    root: Option<PhysicalNodeId>,
}

impl PhysicalPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an operator; the most recently added node becomes the root.
    pub fn add(&mut self, op: PhysicalOp, inputs: Vec<PhysicalNodeId>) -> PhysicalNodeId {
        debug_assert!(inputs.iter().all(|i| i.0 < self.nodes.len()));
        let id = PhysicalNodeId(self.nodes.len());
        self.nodes.push(PhysicalNode {
            op,
            inputs,
            est_rows: None,
        });
        self.root = Some(id);
        id
    }

    /// Append an operator consuming the current root (convenience for linear plans).
    pub fn push(&mut self, op: PhysicalOp) -> PhysicalNodeId {
        let inputs = match self.root {
            Some(r) => vec![r],
            None => vec![],
        };
        self.add(op, inputs)
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root (final) operator id.
    pub fn root(&self) -> PhysicalNodeId {
        self.root.expect("physical plan has at least one operator")
    }

    /// Set the root operator explicitly.
    pub fn set_root(&mut self, id: PhysicalNodeId) {
        assert!(id.0 < self.nodes.len());
        self.root = Some(id);
    }

    /// The operator at `id`.
    pub fn op(&self, id: PhysicalNodeId) -> &PhysicalOp {
        &self.nodes[id.0].op
    }

    /// Inputs of the operator at `id`.
    pub fn inputs(&self, id: PhysicalNodeId) -> &[PhysicalNodeId] {
        &self.nodes[id.0].inputs
    }

    /// Optimizer cardinality estimate attached to the operator at `id`, if any.
    pub fn est_rows(&self, id: PhysicalNodeId) -> Option<f64> {
        self.nodes[id.0].est_rows
    }

    /// Attach an optimizer cardinality estimate to the operator at `id`.
    ///
    /// The estimate is carried through [`PhysicalPlan::graft`] and surfaced in
    /// [`PhysicalPlan::encode`] as `est_rows=<n>` so that plan dumps show what
    /// the cost-based optimizer predicted for each operator.
    pub fn set_est_rows(&mut self, id: PhysicalNodeId, rows: f64) {
        self.nodes[id.0].est_rows = Some(rows);
    }

    /// Node ids in topological order (producers first), restricted to nodes reachable
    /// from the root.
    pub fn topo_order(&self) -> Vec<PhysicalNodeId> {
        let mut order = Vec::new();
        let mut visited = vec![false; self.nodes.len()];
        fn visit(
            plan: &PhysicalPlan,
            id: PhysicalNodeId,
            visited: &mut [bool],
            order: &mut Vec<PhysicalNodeId>,
        ) {
            if visited[id.0] {
                return;
            }
            visited[id.0] = true;
            for &i in plan.inputs(id) {
                visit(plan, i, visited, order);
            }
            order.push(id);
        }
        if let Some(root) = self.root {
            visit(self, root, &mut visited, &mut order);
        }
        order
    }

    /// Count of operators by name (useful for plan-shape assertions in tests).
    pub fn count_op(&self, name: &str) -> usize {
        self.topo_order()
            .into_iter()
            .filter(|id| self.op(*id).name() == name)
            .count()
    }

    /// Graft another plan into this one: all nodes of `other` are copied with fresh
    /// ids and the id of (the copy of) `other`'s root is returned. The current root is
    /// left unchanged.
    pub fn graft(&mut self, other: &PhysicalPlan) -> PhysicalNodeId {
        let order = other.topo_order();
        let mut mapping = vec![None; other.nodes.len()];
        let saved_root = self.root;
        let mut last = None;
        for id in order {
            let inputs = other
                .inputs(id)
                .iter()
                .map(|i| mapping[i.0].expect("topo order"))
                .collect();
            let new_id = self.add(other.nodes[id.0].op.clone(), inputs);
            self.nodes[new_id.0].est_rows = other.nodes[id.0].est_rows;
            mapping[id.0] = Some(new_id);
            last = Some(new_id);
        }
        self.root = saved_root.or(last);
        last.expect("other plan is non-empty")
    }

    /// Whether any operator still holds an unbound [`Expr::Param`] slot.
    /// Cached parameterized plans answer `true`; a plan returned by
    /// [`bind_params`](Self::bind_params) answers `false`.
    pub fn has_params(&self) -> bool {
        fn expr_has(e: &Expr) -> bool {
            match e {
                Expr::Param(_) => true,
                Expr::Binary { lhs, rhs, .. } => expr_has(lhs) || expr_has(rhs),
                Expr::Unary { operand, .. } => expr_has(operand),
                Expr::InList { expr, .. } => expr_has(expr),
                Expr::Literal(_) | Expr::Tag(_) | Expr::Property { .. } => false,
            }
        }
        self.nodes
            .iter()
            .any(|n| for_each_expr(&n.op, &mut |e| expr_has(e)))
    }

    /// Clone the plan with every [`Expr::Param`] substituted by the matching
    /// value from `params` (the vector produced by
    /// `LogicalPlan::parameterize` on the plan this one was optimized from).
    /// This is how one cached generic plan serves many constants: bind is a
    /// plain clone-and-substitute, no re-optimization.
    pub fn bind_params(&self, params: &[PropValue]) -> PhysicalPlan {
        let mut plan = self.clone();
        for node in &mut plan.nodes {
            for_each_expr_mut(&mut node.op, &mut |e| e.bind_params(params));
        }
        plan
    }

    /// Line-oriented textual encoding of the plan (the protobuf substitute). One line
    /// per operator: `#id Name [input ids] {details}`.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        for id in self.topo_order() {
            let node = &self.nodes[id.0];
            let inputs: Vec<String> = node.inputs.iter().map(|i| format!("#{}", i.0)).collect();
            let est = match node.est_rows {
                Some(rows) => format!(" est_rows={rows:.1}"),
                None => String::new(),
            };
            s.push_str(&format!(
                "#{} {} [{}] {}{est}\n",
                id.0,
                node.op.name(),
                inputs.join(","),
                op_detail(&node.op)
            ));
        }
        s
    }
}

/// Visit every expression held by `op`; short-circuits (and returns true) as
/// soon as `f` does.
fn for_each_expr(op: &PhysicalOp, f: &mut impl FnMut(&Expr) -> bool) -> bool {
    let mut exprs: Vec<&Expr> = Vec::new();
    collect_op_exprs(op, &mut exprs);
    exprs.into_iter().any(f)
}

/// Apply `f` to every expression held by `op`.
fn for_each_expr_mut(op: &mut PhysicalOp, f: &mut impl FnMut(&mut Expr)) {
    match op {
        PhysicalOp::Scan { predicate, .. } => {
            if let Some(p) = predicate {
                f(p);
            }
        }
        PhysicalOp::EdgeExpand {
            dst_predicate,
            edge_predicate,
            ..
        } => {
            if let Some(p) = dst_predicate {
                f(p);
            }
            if let Some(p) = edge_predicate {
                f(p);
            }
        }
        PhysicalOp::ExpandInto { edge_predicate, .. } => {
            if let Some(p) = edge_predicate {
                f(p);
            }
        }
        PhysicalOp::ExpandIntersect { dst_predicate, .. } => {
            if let Some(p) = dst_predicate {
                f(p);
            }
        }
        PhysicalOp::Select { predicate } => f(predicate),
        PhysicalOp::Project { items } => {
            for (e, _) in items {
                f(e);
            }
        }
        PhysicalOp::HashGroup { keys, aggs } => {
            for (e, _) in keys {
                f(e);
            }
            for (_, e, _) in aggs {
                f(e);
            }
        }
        PhysicalOp::OrderLimit { keys, .. } => {
            for (e, _) in keys {
                f(e);
            }
        }
        PhysicalOp::Dedup { keys } => {
            for e in keys {
                f(e);
            }
        }
        PhysicalOp::PathExpand { .. }
        | PhysicalOp::HashJoin { .. }
        | PhysicalOp::PropertyFetch { .. }
        | PhysicalOp::Limit { .. }
        | PhysicalOp::Union => {}
    }
}

fn collect_op_exprs<'a>(op: &'a PhysicalOp, out: &mut Vec<&'a Expr>) {
    match op {
        PhysicalOp::Scan { predicate, .. } => out.extend(predicate.iter()),
        PhysicalOp::EdgeExpand {
            dst_predicate,
            edge_predicate,
            ..
        } => {
            out.extend(dst_predicate.iter());
            out.extend(edge_predicate.iter());
        }
        PhysicalOp::ExpandInto { edge_predicate, .. } => out.extend(edge_predicate.iter()),
        PhysicalOp::ExpandIntersect { dst_predicate, .. } => out.extend(dst_predicate.iter()),
        PhysicalOp::Select { predicate } => out.push(predicate),
        PhysicalOp::Project { items } => out.extend(items.iter().map(|(e, _)| e)),
        PhysicalOp::HashGroup { keys, aggs } => {
            out.extend(keys.iter().map(|(e, _)| e));
            out.extend(aggs.iter().map(|(_, e, _)| e));
        }
        PhysicalOp::OrderLimit { keys, .. } => out.extend(keys.iter().map(|(e, _)| e)),
        PhysicalOp::Dedup { keys } => out.extend(keys.iter()),
        PhysicalOp::PathExpand { .. }
        | PhysicalOp::HashJoin { .. }
        | PhysicalOp::PropertyFetch { .. }
        | PhysicalOp::Limit { .. }
        | PhysicalOp::Union => {}
    }
}

fn op_detail(op: &PhysicalOp) -> String {
    match op {
        PhysicalOp::Scan {
            alias,
            constraint,
            predicate,
        } => format!(
            "{alias}:{constraint}{}",
            predicate
                .as_ref()
                .map(|p| format!(" where {p}"))
                .unwrap_or_default()
        ),
        PhysicalOp::EdgeExpand {
            src,
            dst_alias,
            edge_constraint,
            direction,
            ..
        } => format!("{src} -[{edge_constraint} {direction:?}]-> {dst_alias}"),
        PhysicalOp::ExpandInto {
            src,
            dst,
            edge_constraint,
            direction,
            ..
        } => format!("({src},{dst}) close [{edge_constraint} {direction:?}]"),
        PhysicalOp::ExpandIntersect {
            steps, dst_alias, ..
        } => format!(
            "intersect[{}] -> {dst_alias}",
            steps
                .iter()
                .map(|s| format!("{}:{}", s.src, s.edge_constraint))
                .collect::<Vec<_>>()
                .join(" ∩ ")
        ),
        PhysicalOp::PathExpand {
            src,
            dst_alias,
            min_hops,
            max_hops,
            ..
        } => format!("{src} -[*{min_hops}..{max_hops}]-> {dst_alias}"),
        PhysicalOp::HashJoin { keys, kind } => format!("{kind:?} on [{}]", keys.join(",")),
        PhysicalOp::PropertyFetch { tag, props } => match props {
            None => format!("{tag}.*"),
            Some(ps) => format!("{tag}.[{}]", ps.join(",")),
        },
        PhysicalOp::Select { predicate } => format!("{predicate}"),
        PhysicalOp::Project { items } => items
            .iter()
            .map(|(e, a)| format!("{e} AS {a}"))
            .collect::<Vec<_>>()
            .join(", "),
        PhysicalOp::HashGroup { keys, aggs } => format!(
            "keys=[{}] aggs=[{}]",
            keys.iter()
                .map(|(e, a)| format!("{e} AS {a}"))
                .collect::<Vec<_>>()
                .join(","),
            aggs.iter()
                .map(|(f, e, a)| format!("{f:?}({e}) AS {a}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
        PhysicalOp::OrderLimit { keys, limit } => format!(
            "keys=[{}] limit={limit:?}",
            keys.iter()
                .map(|(e, d)| format!("{e} {d:?}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
        PhysicalOp::Limit { count } => format!("{count}"),
        PhysicalOp::Dedup { keys } => keys
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(","),
        PhysicalOp::Union => String::new(),
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(alias: &str) -> PhysicalOp {
        PhysicalOp::Scan {
            alias: alias.into(),
            constraint: TypeConstraint::all(),
            predicate: None,
        }
    }

    fn expand(src: &str, dst: &str) -> PhysicalOp {
        PhysicalOp::EdgeExpand {
            src: src.into(),
            edge_alias: None,
            edge_constraint: TypeConstraint::all(),
            direction: Direction::Out,
            dst_alias: dst.into(),
            dst_constraint: TypeConstraint::all(),
            dst_predicate: None,
            edge_predicate: None,
        }
    }

    #[test]
    fn reads_and_binds_name_the_tags_an_operator_touches() {
        let tags = |op: &PhysicalOp| op.reads().into_iter().collect::<Vec<_>>();
        let mut e = expand("a", "b");
        if let PhysicalOp::EdgeExpand {
            edge_alias,
            dst_predicate,
            ..
        } = &mut e
        {
            *edge_alias = Some("e".into());
            *dst_predicate = Some(Expr::prop_eq("b", "name", "x").and(Expr::prop_eq("c", "k", 1)));
        }
        assert_eq!(tags(&e), ["a", "b", "c"]);
        assert_eq!(e.binds(), ["b", "e"]);
        assert_eq!(scan("v").binds(), ["v"]);
        assert!(tags(&scan("v")).is_empty());
        let join = PhysicalOp::HashJoin {
            keys: vec!["k".into()],
            kind: JoinType::Inner,
        };
        assert_eq!(tags(&join), ["k"]);
        assert!(join.binds().is_empty());
        let group = PhysicalOp::HashGroup {
            keys: vec![(Expr::prop("p", "id"), "id".into())],
            aggs: vec![(AggFunc::Count, Expr::tag("m"), "cnt".into())],
        };
        assert_eq!(tags(&group), ["m", "p"]);
        let fetch = PhysicalOp::PropertyFetch {
            tag: "t".into(),
            props: None,
        };
        assert_eq!(tags(&fetch), ["t"]);
    }

    #[test]
    fn linear_plan_construction() {
        let mut plan = PhysicalPlan::new();
        plan.push(scan("v3"));
        plan.push(expand("v3", "v1"));
        plan.push(PhysicalOp::ExpandInto {
            src: "v1".into(),
            dst: "v2".into(),
            edge_constraint: TypeConstraint::all(),
            direction: Direction::Out,
            edge_alias: None,
            edge_predicate: None,
        });
        plan.push(PhysicalOp::HashGroup {
            keys: vec![(Expr::tag("v2"), "v2".into())],
            aggs: vec![(AggFunc::Count, Expr::tag("v2"), "cnt".into())],
        });
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.op(plan.root()).name(), "HashGroup");
        assert_eq!(plan.count_op("Scan"), 1);
        assert_eq!(plan.count_op("ExpandInto"), 1);
        assert!(plan.op(PhysicalNodeId(0)).is_graph_op());
        assert!(!plan.op(plan.root()).is_graph_op());
        let text = plan.encode();
        assert!(text.contains("Scan") && text.contains("ExpandInto") && text.contains("HashGroup"));
        assert_eq!(plan.to_string(), text);
    }

    #[test]
    fn est_rows_survive_graft_and_show_in_encode() {
        let mut plan = PhysicalPlan::new();
        let s = plan.push(scan("a"));
        plan.push(expand("a", "b"));
        assert_eq!(plan.est_rows(s), None);
        plan.set_est_rows(s, 42.5);
        assert_eq!(plan.est_rows(s), Some(42.5));
        assert!(plan.encode().contains("est_rows=42.5"));
        // nodes without an estimate stay unannotated
        assert_eq!(plan.encode().matches("est_rows").count(), 1);

        let mut host = PhysicalPlan::new();
        host.push(scan("x"));
        let grafted_root = host.graft(&plan);
        // the grafted copy of the scan keeps its estimate; the expand copy stays bare
        assert_eq!(host.est_rows(PhysicalNodeId(1)), Some(42.5));
        assert_eq!(host.est_rows(grafted_root), None);
    }

    #[test]
    fn join_plan_with_graft() {
        let mut left = PhysicalPlan::new();
        left.push(scan("a"));
        left.push(expand("a", "b"));
        let mut right = PhysicalPlan::new();
        right.push(scan("c"));
        right.push(expand("c", "b"));

        let mut plan = left.clone();
        let lroot = plan.root();
        let rroot = plan.graft(&right);
        plan.add(
            PhysicalOp::HashJoin {
                keys: vec!["b".into()],
                kind: JoinType::Inner,
            },
            vec![lroot, rroot],
        );
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.op(plan.root()).name(), "HashJoin");
        assert_eq!(plan.count_op("Scan"), 2);
        let topo = plan.topo_order();
        assert_eq!(*topo.last().unwrap(), plan.root());
    }

    #[test]
    fn intersect_and_path_ops_encode() {
        let mut plan = PhysicalPlan::new();
        plan.push(scan("v1"));
        plan.push(expand("v1", "v2"));
        plan.push(PhysicalOp::ExpandIntersect {
            steps: vec![
                IntersectStep {
                    src: "v1".into(),
                    edge_constraint: TypeConstraint::all(),
                    direction: Direction::Out,
                    edge_alias: None,
                },
                IntersectStep {
                    src: "v2".into(),
                    edge_constraint: TypeConstraint::all(),
                    direction: Direction::Out,
                    edge_alias: None,
                },
            ],
            dst_alias: "v3".into(),
            dst_constraint: TypeConstraint::all(),
            dst_predicate: None,
        });
        plan.push(PhysicalOp::PathExpand {
            src: "v3".into(),
            dst_alias: "v4".into(),
            edge_constraint: TypeConstraint::all(),
            direction: Direction::Out,
            min_hops: 1,
            max_hops: 3,
            semantics: PathSemantics::Arbitrary,
            path_alias: Some("p".into()),
        });
        plan.push(PhysicalOp::Select {
            predicate: Expr::prop_eq("v4", "name", "x"),
        });
        plan.push(PhysicalOp::OrderLimit {
            keys: vec![(Expr::tag("v4"), SortDir::Asc)],
            limit: Some(5),
        });
        plan.push(PhysicalOp::Limit { count: 5 });
        plan.push(PhysicalOp::Dedup {
            keys: vec![Expr::tag("v4")],
        });
        plan.push(PhysicalOp::Project {
            items: vec![(Expr::prop("v4", "name"), "name".into())],
        });
        let enc = plan.encode();
        assert!(enc.contains("ExpandIntersect"));
        assert!(enc.contains("PathExpand"));
        assert!(enc.contains("*1..3"));
        assert!(enc.contains("OrderLimit"));
        // union as a separate plan
        let mut u = PhysicalPlan::new();
        let a = u.push(scan("x"));
        let mut other = PhysicalPlan::new();
        other.push(scan("y"));
        let b = u.graft(&other);
        u.add(PhysicalOp::Union, vec![a, b]);
        assert_eq!(u.count_op("Union"), 1);
        assert!(u.encode().contains("Union"));
    }
}
