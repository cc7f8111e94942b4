//! Pattern graphs — the `MATCH_PATTERN` payload of the GIR.
//!
//! A [`Pattern`] is a small connected directed graph whose vertices and edges carry
//! [`TypeConstraint`]s, optional tags (user aliases), optional predicates (pushed in by
//! the `FilterIntoPattern` rule) and optional column lists (pruned by `FieldTrim`).
//!
//! The CBO reasons entirely in terms of patterns and their sub-patterns, so this module
//! also provides the structural utilities that the optimizer and the GLogue statistics
//! store rely on: sub-pattern extraction with **stable element ids**, connectivity tests,
//! canonical encoding (used as the statistics key), and tag-based merging (used by the
//! `JoinToPattern` and `ComSubPattern` rules).

use crate::expr::Expr;
use crate::types::TypeConstraint;
use gopt_graph::PropValue;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a vertex inside one [`Pattern`]. Stable across sub-pattern extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternVertexId(pub usize);

/// Identifier of an edge inside one [`Pattern`]. Stable across sub-pattern extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternEdgeId(pub usize);

/// Direction of an expansion step relative to the source vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow outgoing edges.
    Out,
    /// Follow incoming edges.
    In,
    /// Follow both directions.
    Both,
}

/// Path-matching semantics for variable-length (path) edges, following the paper's
/// `EXPAND_PATH` operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathSemantics {
    /// No constraint on repeated vertices/edges.
    Arbitrary,
    /// No repeated vertex.
    Simple,
    /// No repeated edge.
    Trail,
}

/// Hop bounds and semantics of a variable-length path edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathSpec {
    /// Minimum number of hops (>= 1).
    pub min_hops: u32,
    /// Maximum number of hops (inclusive).
    pub max_hops: u32,
    /// Path semantics.
    pub semantics: PathSemantics,
}

impl PathSpec {
    /// A fixed-length path of exactly `hops` hops with arbitrary semantics.
    pub fn exact(hops: u32) -> Self {
        PathSpec {
            min_hops: hops,
            max_hops: hops,
            semantics: PathSemantics::Arbitrary,
        }
    }
}

/// A pattern vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternVertex {
    /// Stable id within the owning pattern.
    pub id: PatternVertexId,
    /// User-visible alias (`Alias("v1")`), if any.
    pub tag: Option<String>,
    /// Type constraint (`τ_P(v)`).
    pub constraint: TypeConstraint,
    /// Predicate pushed into the pattern (e.g. by `FilterIntoPattern`).
    pub predicate: Option<Expr>,
    /// Properties to retain for this vertex (`COLUMNS`), `None` meaning "all".
    /// Set by the `FieldTrim` rule; an empty set means no properties are needed.
    pub columns: Option<BTreeSet<String>>,
}

/// A pattern edge, directed from `src` to `dst`.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternEdge {
    /// Stable id within the owning pattern.
    pub id: PatternEdgeId,
    /// Source pattern vertex.
    pub src: PatternVertexId,
    /// Destination pattern vertex.
    pub dst: PatternVertexId,
    /// User-visible alias, if any.
    pub tag: Option<String>,
    /// Type constraint (`τ_P(e)`).
    pub constraint: TypeConstraint,
    /// Predicate on the edge.
    pub predicate: Option<Expr>,
    /// When `Some`, this edge is a variable-length path edge (`EXPAND_PATH`).
    pub path: Option<PathSpec>,
}

/// A pattern graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pattern {
    vertices: BTreeMap<PatternVertexId, PatternVertex>,
    edges: BTreeMap<PatternEdgeId, PatternEdge>,
    next_vertex: usize,
    next_edge: usize,
}

impl Pattern {
    /// Create an empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an untagged vertex with the given type constraint; returns its id.
    pub fn add_vertex(&mut self, constraint: TypeConstraint) -> PatternVertexId {
        self.add_vertex_full(None, constraint, None)
    }

    /// Add a tagged vertex.
    pub fn add_vertex_tagged(
        &mut self,
        tag: impl Into<String>,
        constraint: TypeConstraint,
    ) -> PatternVertexId {
        self.add_vertex_full(Some(tag.into()), constraint, None)
    }

    /// Add a vertex with all attributes.
    pub fn add_vertex_full(
        &mut self,
        tag: Option<String>,
        constraint: TypeConstraint,
        predicate: Option<Expr>,
    ) -> PatternVertexId {
        let id = PatternVertexId(self.next_vertex);
        self.next_vertex += 1;
        self.vertices.insert(
            id,
            PatternVertex {
                id,
                tag,
                constraint,
                predicate,
                columns: None,
            },
        );
        id
    }

    /// Add an untagged edge; returns its id.
    pub fn add_edge(
        &mut self,
        src: PatternVertexId,
        dst: PatternVertexId,
        constraint: TypeConstraint,
    ) -> PatternEdgeId {
        self.add_edge_full(src, dst, None, constraint, None, None)
    }

    /// Add a tagged edge.
    pub fn add_edge_tagged(
        &mut self,
        src: PatternVertexId,
        dst: PatternVertexId,
        tag: impl Into<String>,
        constraint: TypeConstraint,
    ) -> PatternEdgeId {
        self.add_edge_full(src, dst, Some(tag.into()), constraint, None, None)
    }

    /// Add an edge with all attributes (including an optional variable-length path spec).
    pub fn add_edge_full(
        &mut self,
        src: PatternVertexId,
        dst: PatternVertexId,
        tag: Option<String>,
        constraint: TypeConstraint,
        predicate: Option<Expr>,
        path: Option<PathSpec>,
    ) -> PatternEdgeId {
        debug_assert!(self.vertices.contains_key(&src) && self.vertices.contains_key(&dst));
        let id = PatternEdgeId(self.next_edge);
        self.next_edge += 1;
        self.edges.insert(
            id,
            PatternEdge {
                id,
                src,
                dst,
                tag,
                constraint,
                predicate,
                path,
            },
        );
        id
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the pattern has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Access a vertex.
    pub fn vertex(&self, id: PatternVertexId) -> &PatternVertex {
        &self.vertices[&id]
    }

    /// Mutable access to a vertex.
    pub fn vertex_mut(&mut self, id: PatternVertexId) -> &mut PatternVertex {
        self.vertices.get_mut(&id).expect("vertex id in pattern")
    }

    /// Access an edge.
    pub fn edge(&self, id: PatternEdgeId) -> &PatternEdge {
        &self.edges[&id]
    }

    /// Mutable access to an edge.
    pub fn edge_mut(&mut self, id: PatternEdgeId) -> &mut PatternEdge {
        self.edges.get_mut(&id).expect("edge id in pattern")
    }

    /// Iterate over vertices (in id order).
    pub fn vertices(&self) -> impl Iterator<Item = &PatternVertex> {
        self.vertices.values()
    }

    /// Iterate over edges (in id order).
    pub fn edges(&self) -> impl Iterator<Item = &PatternEdge> {
        self.edges.values()
    }

    /// Vertex ids (in order).
    pub fn vertex_ids(&self) -> Vec<PatternVertexId> {
        self.vertices.keys().copied().collect()
    }

    /// Edge ids (in order).
    pub fn edge_ids(&self) -> Vec<PatternEdgeId> {
        self.edges.keys().copied().collect()
    }

    /// Normalize comparison constants in every vertex and edge predicate into
    /// parameter slots (vertices first, then edges, both in id order). See
    /// [`Expr::parameterize_into`].
    pub fn parameterize_into(&mut self, params: &mut Vec<PropValue>) {
        for v in self.vertices.values_mut() {
            if let Some(p) = &mut v.predicate {
                p.parameterize_into(params);
            }
        }
        for e in self.edges.values_mut() {
            if let Some(p) = &mut e.predicate {
                p.parameterize_into(params);
            }
        }
    }

    /// Whether the pattern contains the given vertex id.
    pub fn contains_vertex(&self, id: PatternVertexId) -> bool {
        self.vertices.contains_key(&id)
    }

    /// Edges incident to `v` (either endpoint).
    pub fn adjacent_edges(&self, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| e.src == v || e.dst == v)
            .map(|e| e.id)
            .collect()
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| e.src == v)
            .map(|e| e.id)
            .collect()
    }

    /// Incoming edges of `v`.
    pub fn in_edges(&self, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| e.dst == v)
            .map(|e| e.id)
            .collect()
    }

    /// Degree (number of incident edges) of `v`.
    pub fn degree(&self, v: PatternVertexId) -> usize {
        self.adjacent_edges(v).len()
    }

    /// Undirected neighbours of `v`.
    pub fn neighbors(&self, v: PatternVertexId) -> Vec<PatternVertexId> {
        let mut out: Vec<PatternVertexId> = self
            .edges
            .values()
            .filter_map(|e| {
                if e.src == v {
                    Some(e.dst)
                } else if e.dst == v {
                    Some(e.src)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All edges connecting `u` and `v` (in either direction).
    pub fn edges_between(&self, u: PatternVertexId, v: PatternVertexId) -> Vec<PatternEdgeId> {
        self.edges
            .values()
            .filter(|e| (e.src == u && e.dst == v) || (e.src == v && e.dst == u))
            .map(|e| e.id)
            .collect()
    }

    /// Find a vertex by tag.
    pub fn vertex_by_tag(&self, tag: &str) -> Option<PatternVertexId> {
        self.vertices
            .values()
            .find(|v| v.tag.as_deref() == Some(tag))
            .map(|v| v.id)
    }

    /// Find an edge by tag.
    pub fn edge_by_tag(&self, tag: &str) -> Option<PatternEdgeId> {
        self.edges
            .values()
            .find(|e| e.tag.as_deref() == Some(tag))
            .map(|e| e.id)
    }

    /// All tags used in the pattern (vertices and edges).
    pub fn tags(&self) -> BTreeSet<String> {
        self.vertices
            .values()
            .filter_map(|v| v.tag.clone())
            .chain(self.edges.values().filter_map(|e| e.tag.clone()))
            .collect()
    }

    /// Whether the pattern contains any variable-length path edge.
    pub fn has_path_edges(&self) -> bool {
        self.edges.values().any(|e| e.path.is_some())
    }

    /// Whether the pattern (viewed as an undirected graph) is connected.
    /// The empty pattern is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.vertices.len() <= 1 {
            return true;
        }
        let start = *self.vertices.keys().next().expect("non-empty");
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(v) = stack.pop() {
            for n in self.neighbors(v) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == self.vertices.len()
    }

    /// The sub-pattern induced by a set of edge ids: contains exactly those edges and
    /// the vertices they touch. Element ids are preserved.
    pub fn induced_by_edges(&self, edge_ids: &BTreeSet<PatternEdgeId>) -> Pattern {
        let mut p = Pattern {
            vertices: BTreeMap::new(),
            edges: BTreeMap::new(),
            next_vertex: self.next_vertex,
            next_edge: self.next_edge,
        };
        for eid in edge_ids {
            let e = &self.edges[eid];
            p.edges.insert(*eid, e.clone());
            for vid in [e.src, e.dst] {
                p.vertices
                    .entry(vid)
                    .or_insert_with(|| self.vertices[&vid].clone());
            }
        }
        p
    }

    /// The sub-pattern induced by explicit vertex and edge id sets (edges must have both
    /// endpoints in the vertex set, which is extended automatically). Ids are preserved.
    pub fn induced(
        &self,
        vertex_ids: &BTreeSet<PatternVertexId>,
        edge_ids: &BTreeSet<PatternEdgeId>,
    ) -> Pattern {
        let mut p = self.induced_by_edges(edge_ids);
        for vid in vertex_ids {
            if !p.contains_vertex(*vid) {
                p.vertices.insert(*vid, self.vertices[vid].clone());
            }
        }
        p
    }

    /// The sub-pattern obtained by removing vertex `v` and all its incident edges.
    /// Element ids are preserved.
    pub fn remove_vertex(&self, v: PatternVertexId) -> Pattern {
        let mut p = self.clone();
        p.vertices.remove(&v);
        p.edges.retain(|_, e| e.src != v && e.dst != v);
        p
    }

    /// A single-vertex pattern containing only `v` (id preserved).
    pub fn single_vertex(&self, v: PatternVertexId) -> Pattern {
        let mut p = Pattern {
            vertices: BTreeMap::new(),
            edges: BTreeMap::new(),
            next_vertex: self.next_vertex,
            next_edge: self.next_edge,
        };
        p.vertices.insert(v, self.vertices[&v].clone());
        p
    }

    /// The intersection sub-pattern (`P_s1 ∩ P_s2` in Eq. 1): common edges plus common
    /// vertices.
    pub fn intersection(&self, other: &Pattern) -> Pattern {
        let mut p = Pattern {
            vertices: BTreeMap::new(),
            edges: BTreeMap::new(),
            next_vertex: self.next_vertex,
            next_edge: self.next_edge,
        };
        for (id, v) in &self.vertices {
            if other.vertices.contains_key(id) {
                p.vertices.insert(*id, v.clone());
            }
        }
        for (id, e) in &self.edges {
            if other.edges.contains_key(id) {
                p.edges.insert(*id, e.clone());
            }
        }
        p
    }

    /// Merge another pattern into this one, unifying vertices **by tag**: a vertex of
    /// `other` whose tag matches a vertex here is mapped onto it (type constraints are
    /// intersected); all other elements are appended with fresh ids.
    ///
    /// This is the structural operation behind the `JoinToPattern` rule: two
    /// `MATCH_PATTERN`s joined on their common tags collapse into one pattern.
    /// Returns the merged pattern and the vertex-id mapping from `other` into the result.
    pub fn merge_by_tag(
        &self,
        other: &Pattern,
    ) -> (Pattern, BTreeMap<PatternVertexId, PatternVertexId>) {
        let mut merged = self.clone();
        let mut vmap: BTreeMap<PatternVertexId, PatternVertexId> = BTreeMap::new();
        for v in other.vertices.values() {
            let target = v.tag.as_deref().and_then(|t| merged.vertex_by_tag(t));
            match target {
                Some(existing) => {
                    let mv = merged.vertex_mut(existing);
                    mv.constraint = mv.constraint.intersect(&v.constraint);
                    if mv.predicate.is_none() {
                        mv.predicate = v.predicate.clone();
                    } else if let Some(p) = &v.predicate {
                        mv.predicate = Some(mv.predicate.clone().expect("checked").and(p.clone()));
                    }
                    vmap.insert(v.id, existing);
                }
                None => {
                    let nid = merged.add_vertex_full(
                        v.tag.clone(),
                        v.constraint.clone(),
                        v.predicate.clone(),
                    );
                    merged.vertex_mut(nid).columns = v.columns.clone();
                    vmap.insert(v.id, nid);
                }
            }
        }
        for e in other.edges.values() {
            merged.add_edge_full(
                vmap[&e.src],
                vmap[&e.dst],
                e.tag.clone(),
                e.constraint.clone(),
                e.predicate.clone(),
                e.path,
            );
        }
        (merged, vmap)
    }

    /// Canonical encoding of the pattern structure and type constraints, invariant under
    /// renaming (re-identification) of pattern vertices and edges: two patterns get equal
    /// codes iff they are isomorphic as labelled directed multigraphs.
    ///
    /// The code covers vertex and edge type constraints, edge direction and hop range.
    /// Tags, predicates, column lists and path semantics are deliberately **not** part of
    /// it: the code identifies the statistical object (which labelled structure is being
    /// counted), which is what GLogue keys on.
    ///
    /// The code is the smallest encoding over a restricted set of vertex orderings. Colour
    /// refinement first splits the vertices into classes by isomorphism-invariant
    /// signatures, as in nauty/Traces (McKay & Piperno, "Practical graph isomorphism,
    /// II"). Only orderings that keep each class contiguous, classes in colour order, are
    /// tried, permuting vertices within each class. Query patterns usually refine to
    /// (nearly) singleton classes, so this is a handful of orderings where a brute force
    /// over all `n!` would be thousands; a fully symmetric pattern (an all-`Person` cycle
    /// or clique) refines to one class and still costs `n!`.
    pub fn canonical_code(&self) -> String {
        let n = self.vertices.len();
        if n == 0 {
            return "()".to_string();
        }
        let ids = self.vertex_ids();
        let index = |v: PatternVertexId| ids.binary_search(&v).expect("edge endpoint in pattern");
        let vcodes: Vec<String> = self
            .vertices
            .values()
            .map(|v| constraint_code(&v.constraint))
            .collect();
        let ecodes: Vec<String> = self
            .edges
            .values()
            .map(|e| constraint_code(&e.constraint))
            .collect();
        let edges: Vec<LabelledEdge> = self
            .edges
            .values()
            .zip(&ecodes)
            .map(|(e, code)| {
                let hops = e.path.map(|p| (p.min_hops, p.max_hops));
                (index(e.src), index(e.dst), code.as_str(), hops)
            })
            .collect();
        let colours = refine(ranks(&vcodes), &edges);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| colours[v]);
        // class_end[i]: one past the last position of the colour class at position i
        let mut class_end = vec![n; n];
        for i in (0..n - 1).rev() {
            if colours[order[i]] == colours[order[i + 1]] {
                class_end[i] = class_end[i + 1];
            } else {
                class_end[i] = i + 1;
            }
        }
        let mut position = vec![0; n];
        let mut code: Vec<LabelledEdge> = Vec::with_capacity(edges.len());
        let mut best: Option<Vec<LabelledEdge>> = None;
        permute(&mut order, 0, &class_end, &mut |order| {
            for (i, &v) in order.iter().enumerate() {
                position[v] = i;
            }
            code.clear();
            code.extend(
                edges
                    .iter()
                    .map(|&(s, d, l, h)| (position[s], position[d], l, h)),
            );
            code.sort_unstable();
            if best.as_ref().is_none_or(|b| code < *b) {
                best = Some(code.clone());
            }
        });
        // every allowed ordering lists the same vertex codes, since classes refine the
        // constraint code and stay in colour order
        let vpart: Vec<String> = order
            .iter()
            .enumerate()
            .map(|(i, &v)| format!("{i}:{}", vcodes[v]))
            .collect();
        let epart: Vec<String> = best
            .expect("non-empty pattern has an ordering")
            .iter()
            .map(|&(s, d, l, h)| {
                let hops = match h {
                    None => "1".to_string(),
                    Some((min, max)) => format!("{min}..{max}"),
                };
                format!("{s}->{d}:{l}:{hops}")
            })
            .collect();
        format!("V[{}]E[{}]", vpart.join(","), epart.join(","))
    }

    /// Render the pattern using label names from a naming function.
    pub fn render(
        &self,
        vertex_name: impl Fn(gopt_graph::LabelId) -> String,
        edge_name: impl Fn(gopt_graph::LabelId) -> String,
    ) -> String {
        let vs: Vec<String> = self
            .vertices
            .values()
            .map(|v| {
                format!(
                    "({}:{})",
                    v.tag.clone().unwrap_or_else(|| format!("_{}", v.id.0)),
                    v.constraint.render(&vertex_name)
                )
            })
            .collect();
        let es: Vec<String> = self
            .edges
            .values()
            .map(|e| {
                format!(
                    "(_{})-[{}:{}]->(_{})",
                    e.src.0,
                    e.tag.clone().unwrap_or_else(|| format!("_{}", e.id.0)),
                    e.constraint.render(&edge_name),
                    e.dst.0
                )
            })
            .collect();
        format!("Pattern{{ {} ; {} }}", vs.join(", "), es.join(", "))
    }
}

fn constraint_code(c: &TypeConstraint) -> String {
    match c {
        TypeConstraint::All => "*".to_string(),
        TypeConstraint::Labels(v) => v
            .iter()
            .map(|l| l.0.to_string())
            .collect::<Vec<_>>()
            .join("|"),
    }
}

/// An edge as the canonical code sees it: (source index, destination index, constraint
/// code, hop range of a path edge).
type LabelledEdge<'a> = (usize, usize, &'a str, Option<(u32, u32)>);

/// Rank of each item among the distinct items, in sorted order: a relabelling that
/// depends only on the multiset of items, so it is isomorphism-invariant.
fn ranks<T: Ord + Clone>(items: &[T]) -> Vec<usize> {
    let mut distinct = items.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    items
        .iter()
        .map(|x| distinct.binary_search(x).expect("item is in its own set"))
        .collect()
}

/// Colour refinement (1-dimensional Weisfeiler-Leman) of vertex colours over the edge
/// list. Each round gives every vertex the signature (its colour, the sorted multiset
/// of (direction, edge constraint, hop range, neighbour colour) over its incident
/// edges) and re-colours vertices by the rank of their signature. `colours` must be
/// ranks; signatures extend the previous colour, so classes only split and keep their
/// relative order. Rounds stop once a round splits nothing.
fn refine(mut colours: Vec<usize>, edges: &[LabelledEdge]) -> Vec<usize> {
    type Signature<'a> = (usize, Vec<(bool, &'a str, Option<(u32, u32)>, usize)>);
    let n = colours.len();
    let mut classes = colours.iter().max().map_or(0, |m| m + 1);
    while classes < n {
        let mut sigs: Vec<Signature> = colours.iter().map(|&c| (c, Vec::new())).collect();
        for &(s, d, l, h) in edges {
            sigs[s].1.push((true, l, h, colours[d]));
            sigs[d].1.push((false, l, h, colours[s]));
        }
        for sig in &mut sigs {
            sig.1.sort_unstable();
        }
        let next = ranks(&sigs);
        let split = next.iter().max().map_or(0, |m| m + 1);
        colours = next;
        if split == classes {
            break;
        }
        classes = split;
    }
    colours
}

/// Enumerate the orderings of `items` that permute only within classes, invoking `f`
/// on each: position `i` may take any item from positions `i..class_end[i]`.
fn permute(items: &mut [usize], at: usize, class_end: &[usize], f: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        f(items);
        return;
    }
    for i in at..class_end[at] {
        items.swap(at, i);
        permute(items, at + 1, class_end, f);
        items.swap(at, i);
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}",
            self.render(|l| format!("{}", l.0), |l| format!("{}", l.0))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_graph::LabelId;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const PERSON: LabelId = LabelId(0);
    const PRODUCT: LabelId = LabelId(1);
    const PLACE: LabelId = LabelId(2);
    const KNOWS: LabelId = LabelId(0);
    const LOCATED: LabelId = LabelId(2);

    /// The paper's Fig. 4(b) triangle: v1 -> v2 -> v3 <- v1.
    fn triangle() -> (Pattern, PatternVertexId, PatternVertexId, PatternVertexId) {
        let mut p = Pattern::new();
        let v1 = p.add_vertex_tagged("v1", TypeConstraint::all());
        let v2 = p.add_vertex_tagged("v2", TypeConstraint::all());
        let v3 = p.add_vertex_tagged("v3", TypeConstraint::basic(PLACE));
        p.add_edge_tagged(v1, v2, "e1", TypeConstraint::all());
        p.add_edge_tagged(v2, v3, "e2", TypeConstraint::all());
        p.add_edge_tagged(v1, v3, "e3", TypeConstraint::basic(LOCATED));
        (p, v1, v2, v3)
    }

    #[test]
    fn structure_accessors() {
        let (p, v1, v2, v3) = triangle();
        assert_eq!(p.vertex_count(), 3);
        assert_eq!(p.edge_count(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.degree(v1), 2);
        assert_eq!(p.neighbors(v1), vec![v2, v3]);
        assert_eq!(p.out_edges(v1).len(), 2);
        assert_eq!(p.in_edges(v3).len(), 2);
        assert_eq!(p.adjacent_edges(v2).len(), 2);
        assert_eq!(p.edges_between(v1, v3).len(), 1);
        assert_eq!(p.edges_between(v3, v1).len(), 1);
        assert_eq!(p.vertex_by_tag("v2"), Some(v2));
        assert!(p.vertex_by_tag("nope").is_none());
        assert!(p.edge_by_tag("e3").is_some());
        assert_eq!(p.tags().len(), 6);
        assert!(p.is_connected());
        assert!(!p.has_path_edges());
        assert!(p.contains_vertex(v1));
    }

    #[test]
    fn subpattern_extraction_preserves_ids() {
        let (p, v1, v2, v3) = triangle();
        let e_ids = p.edge_ids();
        // sub-pattern with only e1 (v1->v2)
        let sub = p.induced_by_edges(&[e_ids[0]].into_iter().collect());
        assert_eq!(sub.vertex_count(), 2);
        assert!(sub.contains_vertex(v1) && sub.contains_vertex(v2) && !sub.contains_vertex(v3));
        // removing v3 leaves the v1->v2 edge
        let no_v3 = p.remove_vertex(v3);
        assert_eq!(no_v3.vertex_count(), 2);
        assert_eq!(no_v3.edge_count(), 1);
        assert!(no_v3.is_connected());
        // single vertex
        let sv = p.single_vertex(v2);
        assert_eq!(sv.vertex_count(), 1);
        assert_eq!(sv.edge_count(), 0);
        assert!(sv.is_connected());
        // common vertices / intersection between two sub-patterns
        let left = p.induced_by_edges(&[e_ids[0]].into_iter().collect()); // v1-v2
        let right = p.induced_by_edges(&[e_ids[1]].into_iter().collect()); // v2-v3
        let inter = left.intersection(&right);
        assert_eq!(inter.vertex_ids(), vec![v2]);
        assert_eq!(inter.edge_count(), 0);
    }

    #[test]
    fn disconnected_pattern_detected() {
        let mut p = Pattern::new();
        let a = p.add_vertex(TypeConstraint::basic(PERSON));
        let b = p.add_vertex(TypeConstraint::basic(PERSON));
        let c = p.add_vertex(TypeConstraint::basic(PRODUCT));
        p.add_edge(a, b, TypeConstraint::basic(KNOWS));
        assert!(!p.is_connected());
        p.add_edge(b, c, TypeConstraint::all());
        assert!(p.is_connected());
        assert!(Pattern::new().is_connected());
    }

    #[test]
    fn canonical_code_invariant_under_relabelling() {
        // same triangle built with vertices inserted in a different order
        let (p1, ..) = triangle();
        let mut p2 = Pattern::new();
        let v3 = p2.add_vertex_tagged("x3", TypeConstraint::basic(PLACE));
        let v1 = p2.add_vertex_tagged("x1", TypeConstraint::all());
        let v2 = p2.add_vertex_tagged("x2", TypeConstraint::all());
        p2.add_edge(v1, v3, TypeConstraint::basic(LOCATED));
        p2.add_edge(v2, v3, TypeConstraint::all());
        p2.add_edge(v1, v2, TypeConstraint::all());
        assert_eq!(p1.canonical_code(), p2.canonical_code());
        // but a structurally different pattern (path instead of triangle) differs
        let mut p3 = Pattern::new();
        let a = p3.add_vertex(TypeConstraint::all());
        let b = p3.add_vertex(TypeConstraint::all());
        let c = p3.add_vertex(TypeConstraint::basic(PLACE));
        p3.add_edge(a, b, TypeConstraint::all());
        p3.add_edge(b, c, TypeConstraint::all());
        assert_ne!(p1.canonical_code(), p3.canonical_code());
        // and different labels differ
        let mut p4 = Pattern::new();
        let a = p4.add_vertex(TypeConstraint::all());
        let b = p4.add_vertex(TypeConstraint::all());
        let c = p4.add_vertex(TypeConstraint::basic(PERSON));
        p4.add_edge(a, b, TypeConstraint::all());
        p4.add_edge(b, c, TypeConstraint::all());
        assert_ne!(p3.canonical_code(), p4.canonical_code());
    }

    /// The canonicaliser colour refinement replaced: the smallest code over all `n!`
    /// vertex orderings, compared as strings. The oracle for the tests below.
    fn brute_force_code(p: &Pattern) -> String {
        let ids = p.vertex_ids();
        let n = ids.len();
        if n == 0 {
            return "()".to_string();
        }
        let mut best: Option<String> = None;
        let mut perm: Vec<usize> = (0..n).collect();
        permute(&mut perm, 0, &vec![n; n], &mut |perm| {
            let rank: BTreeMap<PatternVertexId, usize> =
                ids.iter().copied().zip(perm.iter().copied()).collect();
            let mut vcodes: Vec<(usize, String)> = p
                .vertices()
                .map(|v| (rank[&v.id], constraint_code(&v.constraint)))
                .collect();
            vcodes.sort();
            let mut ecodes: Vec<String> = p
                .edges()
                .map(|e| {
                    format!(
                        "{}->{}:{}:{}",
                        rank[&e.src],
                        rank[&e.dst],
                        constraint_code(&e.constraint),
                        match e.path {
                            None => "1".to_string(),
                            Some(p) => format!("{}..{}", p.min_hops, p.max_hops),
                        }
                    )
                })
                .collect();
            ecodes.sort();
            let code = format!(
                "V[{}]E[{}]",
                vcodes
                    .iter()
                    .map(|(r, c)| format!("{r}:{c}"))
                    .collect::<Vec<_>>()
                    .join(","),
                ecodes.join(",")
            );
            if best.as_ref().is_none_or(|b| code < *b) {
                best = Some(code);
            }
        });
        best.expect("non-empty pattern has a code")
    }

    /// A vertex constraint from a small alphabet (so symmetric patterns are common):
    /// 2-3 labels, `All` and a union.
    fn random_vertex_constraint(rng: &mut SmallRng, labels: u16) -> TypeConstraint {
        match rng.gen_range(0..8u32) {
            0 => TypeConstraint::all(),
            1 => TypeConstraint::union([LabelId(0), LabelId(1)]),
            _ => TypeConstraint::basic(LabelId(rng.gen_range(0..labels))),
        }
    }

    fn random_edge_constraint(rng: &mut SmallRng) -> TypeConstraint {
        match rng.gen_range(0..6u32) {
            0 => TypeConstraint::all(),
            1 => TypeConstraint::union([KNOWS, LOCATED]),
            2 | 3 => TypeConstraint::basic(LOCATED),
            _ => TypeConstraint::basic(KNOWS),
        }
    }

    fn random_path(rng: &mut SmallRng) -> Option<PathSpec> {
        rng.gen_bool(0.15).then(|| {
            let min_hops = rng.gen_range(1..3u32);
            PathSpec {
                min_hops,
                max_hops: min_hops + rng.gen_range(0..2u32),
                semantics: PathSemantics::Arbitrary,
            }
        })
    }

    /// A random pattern of at most 6 vertices: parallel and antiparallel edges, the odd
    /// self-loop, path edges, and not necessarily connected. A third are all-`Person`,
    /// all-`Knows` patterns, whose colour classes refinement often cannot split.
    fn random_pattern(rng: &mut SmallRng) -> Pattern {
        let mut p = Pattern::new();
        let labels = rng.gen_range(2..4u16);
        let uniform = rng.gen_bool(0.33);
        let n = rng.gen_range(1..7usize);
        let vs: Vec<PatternVertexId> = (0..n)
            .map(|_| match uniform {
                true => p.add_vertex(TypeConstraint::basic(PERSON)),
                false => p.add_vertex(random_vertex_constraint(rng, labels)),
            })
            .collect();
        for _ in 0..rng.gen_range(0..(2 * n + 1)) {
            let (src, dst) = if p.edge_count() > 0 && rng.gen_bool(0.2) {
                // parallel or antiparallel to an existing edge
                let e = p.edge(PatternEdgeId(rng.gen_range(0..p.edge_count())));
                if rng.gen_bool(0.5) {
                    (e.src, e.dst)
                } else {
                    (e.dst, e.src)
                }
            } else {
                let src = vs[rng.gen_range(0..n)];
                let dst = vs[rng.gen_range(0..n)];
                if src == dst && !rng.gen_bool(0.1) {
                    continue;
                }
                (src, dst)
            };
            if uniform {
                p.add_edge(src, dst, TypeConstraint::basic(KNOWS));
            } else {
                let constraint = random_edge_constraint(rng);
                let path = random_path(rng);
                p.add_edge_full(src, dst, None, constraint, None, path);
            }
        }
        p
    }

    /// The same pattern with its vertices and edges re-inserted in random orders.
    fn reinserted(p: &Pattern, rng: &mut SmallRng) -> Pattern {
        let mut vs = p.vertex_ids();
        vs.shuffle(rng);
        let mut es = p.edge_ids();
        es.shuffle(rng);
        let mut q = Pattern::new();
        let map: BTreeMap<PatternVertexId, PatternVertexId> = vs
            .iter()
            .map(|&v| (v, q.add_vertex(p.vertex(v).constraint.clone())))
            .collect();
        for e in es {
            let e = p.edge(e);
            q.add_edge_full(
                map[&e.src],
                map[&e.dst],
                None,
                e.constraint.clone(),
                None,
                e.path,
            );
        }
        q
    }

    /// `p` with one small edit that may or may not preserve its isomorphism class:
    /// one edge flipped, two vertex constraints swapped, or one constraint or hop range
    /// redrawn.
    fn mutated(p: &Pattern, rng: &mut SmallRng) -> Pattern {
        let mut q = p.clone();
        let n = q.vertex_count();
        match rng.gen_range(0..5u32) {
            0 if q.edge_count() > 0 => {
                let e = q.edge_mut(PatternEdgeId(rng.gen_range(0..p.edge_count())));
                std::mem::swap(&mut e.src, &mut e.dst);
            }
            1 => {
                let a = PatternVertexId(rng.gen_range(0..n));
                let b = PatternVertexId(rng.gen_range(0..n));
                let ca = q.vertex(a).constraint.clone();
                let cb = std::mem::replace(&mut q.vertex_mut(b).constraint, ca);
                q.vertex_mut(a).constraint = cb;
            }
            2 => {
                let v = PatternVertexId(rng.gen_range(0..n));
                q.vertex_mut(v).constraint = random_vertex_constraint(rng, 3);
            }
            3 if q.edge_count() > 0 => {
                let e = PatternEdgeId(rng.gen_range(0..p.edge_count()));
                q.edge_mut(e).constraint = random_edge_constraint(rng);
            }
            _ if q.edge_count() > 0 => {
                let e = PatternEdgeId(rng.gen_range(0..p.edge_count()));
                q.edge_mut(e).path = random_path(rng);
            }
            _ => {}
        }
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn canonical_code_is_invariant_under_reinsertion(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let p = random_pattern(&mut rng);
            let q = reinserted(&p, &mut rng);
            prop_assert_eq!(p.canonical_code(), q.canonical_code(), "{} vs {}", p, q);
        }

        #[test]
        fn canonical_codes_agree_with_brute_force(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = random_pattern(&mut rng);
            let b = if rng.gen_bool(0.2) {
                random_pattern(&mut rng)
            } else {
                reinserted(&mutated(&a, &mut rng), &mut rng)
            };
            let same = a.canonical_code() == b.canonical_code();
            let oracle_same = brute_force_code(&a) == brute_force_code(&b);
            prop_assert_eq!(same, oracle_same, "{} vs {}", a, b);
        }
    }

    #[test]
    fn symmetric_patterns_refine_to_one_class_and_still_separate() {
        // a directed 4-cycle of Persons: every vertex has one Knows in and one out
        let cycle =
            |n: usize| -> Vec<(usize, usize)> { (0..n).map(|i| (i, (i + 1) % n)).collect() };
        let build = |n: usize, edges: &[(usize, usize)]| {
            let mut p = Pattern::new();
            let vs: Vec<_> = (0..n)
                .map(|_| p.add_vertex(TypeConstraint::basic(PERSON)))
                .collect();
            for &(s, d) in edges {
                p.add_edge(vs[s], vs[d], TypeConstraint::basic(KNOWS));
            }
            p
        };
        let keyed = |edges: &[(usize, usize)]| -> Vec<LabelledEdge> {
            edges.iter().map(|&(s, d)| (s, d, "0", None)).collect()
        };
        let k4: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| (0..4).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let two_triangles: Vec<(usize, usize)> = cycle(3)
            .into_iter()
            .chain(cycle(3).into_iter().map(|(s, d)| (s + 3, d + 3)))
            .collect();
        for edges in [cycle(4), k4.clone(), cycle(6), two_triangles.clone()] {
            let n = edges.iter().map(|&(s, d)| s.max(d)).max().unwrap() + 1;
            let colours = refine(vec![0; n], &keyed(&edges));
            assert!(colours.iter().all(|&c| c == 0), "one class: {colours:?}");
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let c4 = build(4, &cycle(4));
        let k4 = build(4, &k4);
        let c6 = build(6, &cycle(6));
        let tt = build(6, &two_triangles);
        for p in [&c4, &k4, &c6, &tt] {
            assert_eq!(p.canonical_code(), reinserted(p, &mut rng).canonical_code());
        }
        // refinement cannot tell a 6-cycle from two triangles; the ordering search can
        assert_ne!(c6.canonical_code(), tt.canonical_code());
        assert_ne!(brute_force_code(&c6), brute_force_code(&tt));
        // one flipped edge breaks the cycle's symmetry
        let mut flipped = cycle(4);
        flipped[0] = (1, 0);
        assert_ne!(c4.canonical_code(), build(4, &flipped).canonical_code());
    }

    #[test]
    fn merge_by_tag_unifies_common_vertices() {
        // pattern1: (v1)-[e1]->(v2)-[e2]->(v3)   pattern2: (v1)-[e3]->(v3:Place)
        let mut p1 = Pattern::new();
        let a1 = p1.add_vertex_tagged("v1", TypeConstraint::all());
        let b1 = p1.add_vertex_tagged("v2", TypeConstraint::all());
        let c1 = p1.add_vertex_tagged("v3", TypeConstraint::all());
        p1.add_edge_tagged(a1, b1, "e1", TypeConstraint::all());
        p1.add_edge_tagged(b1, c1, "e2", TypeConstraint::all());

        let mut p2 = Pattern::new();
        let a2 = p2.add_vertex_tagged("v1", TypeConstraint::all());
        let c2 = p2.add_vertex_tagged("v3", TypeConstraint::basic(PLACE));
        p2.add_edge_tagged(a2, c2, "e3", TypeConstraint::basic(LOCATED));

        let (merged, vmap) = p1.merge_by_tag(&p2);
        assert_eq!(merged.vertex_count(), 3, "v1 and v3 unified by tag");
        assert_eq!(merged.edge_count(), 3);
        assert_eq!(vmap[&a2], a1);
        assert_eq!(vmap[&c2], c1);
        // the constraint of the unified v3 is the intersection (Place)
        assert_eq!(merged.vertex(c1).constraint, TypeConstraint::basic(PLACE));
        assert!(merged.is_connected());
    }

    #[test]
    fn merge_by_tag_appends_unmatched_vertices_and_predicates() {
        let mut p1 = Pattern::new();
        let a1 = p1.add_vertex_tagged("a", TypeConstraint::all());
        p1.vertex_mut(a1).predicate = Some(Expr::prop_eq("a", "x", 1));
        let mut p2 = Pattern::new();
        let a2 = p2.add_vertex_tagged("a", TypeConstraint::all());
        p2.vertex_mut(a2).predicate = Some(Expr::prop_eq("a", "y", 2));
        let b2 = p2.add_vertex_tagged("b", TypeConstraint::basic(PERSON));
        p2.add_edge(a2, b2, TypeConstraint::all());
        let (merged, _) = p1.merge_by_tag(&p2);
        assert_eq!(merged.vertex_count(), 2);
        // predicates are conjoined
        let pred = merged.vertex(a1).predicate.clone().unwrap();
        assert_eq!(pred.conjuncts().len(), 2);
    }

    #[test]
    fn path_edges_and_pathspec() {
        let mut p = Pattern::new();
        let a = p.add_vertex_tagged("p1", TypeConstraint::basic(PERSON));
        let b = p.add_vertex_tagged("p2", TypeConstraint::basic(PERSON));
        p.add_edge_full(
            a,
            b,
            Some("path".into()),
            TypeConstraint::all(),
            None,
            Some(PathSpec::exact(6)),
        );
        assert!(p.has_path_edges());
        assert_eq!(p.edge(p.edge_ids()[0]).path.unwrap().max_hops, 6);
        let code = p.canonical_code();
        assert!(code.contains("6..6"));
    }

    #[test]
    fn display_and_render() {
        let (p, ..) = triangle();
        let s = p.to_string();
        assert!(s.contains("v1") && s.contains("e3"));
        let named = p.render(
            |l| ["Person", "Product", "Place"][l.index()].to_string(),
            |l| ["Knows", "Purchases", "LocatedIn"][l.index()].to_string(),
        );
        assert!(named.contains("Place") && named.contains("LocatedIn"));
    }
}
