//! Cost-based optimization of patterns (Section 6.3).
//!
//! The CBO searches over *hybrid* pattern plans combining the two strategies that
//! implement the `PatternJoin` equivalence rule:
//!
//! * **vertex expansion** (`Expand(P_s → P_t)`): bind one more pattern vertex by
//!   following all of its edges to already-bound vertices — implemented by backends as
//!   `ExpandInto` (Neo4j, flattening) or `ExpandIntersect` (GraphScope, worst-case
//!   optimal); and
//! * **binary join** (`Join(P_s1, P_s2 → P_t)`): match two sub-patterns independently
//!   and hash-join them on their common vertices.
//!
//! Backends register how much each strategy costs through the [`PhysicalSpec`]
//! interface, mirroring the paper's code snippets: `ExpandInto` costs the sum of the
//! intermediate pattern frequencies, `ExpandIntersect` costs `|P_v| × F(P_s)`, and
//! `HashJoin` costs `F(P_s1) + F(P_s2)`. The [`PatternPlanner`] then runs the top-down
//! branch-and-bound search of Algorithm 2, seeded by a greedy initial plan, over
//! cardinalities supplied by any [`CardEstimator`] (high-order `GlogueQuery` by default).

use gopt_gir::pattern::{Pattern, PatternEdgeId, PatternVertexId};
use gopt_glogue::{CardEstimator, ConstSelectivity, SelectivityEstimator};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// The selectivity fallback every planner starts from: no statistics, so each
/// filtered element is priced at `gopt_glogue::DEFAULT_SELECTIVITY` (Remark
/// 7.1). Replaced by [`PatternPlanner::with_selectivity`] when property
/// statistics are available.
static CONST_SELECTIVITY: ConstSelectivity = ConstSelectivity;

/// How a backend implements the vertex-expansion strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandStrategy {
    /// Flattening expansion: one `EdgeExpand` followed by `ExpandInto` per extra edge
    /// (Neo4j).
    Flatten,
    /// Worst-case-optimal intersection of all incident adjacency lists
    /// (`ExpandIntersect`, GraphScope).
    Intersect,
}

/// Backend-registered physical operators and cost models (the paper's `PhysicalSpec`).
pub trait PhysicalSpec {
    /// Backend name.
    fn name(&self) -> &str;

    /// Which physical operator realises multi-edge vertex expansion on this backend.
    fn expand_strategy(&self) -> ExpandStrategy;

    /// Weight of the communication term (number of intermediate results) in the total
    /// cost; `0.0` for single-machine backends, `1.0` for distributed ones.
    fn comm_weight(&self) -> f64;

    /// Cost of binding `new_vertex` onto sub-pattern `ps` by expanding `edges`
    /// (all edges of `target` between `new_vertex` and `ps`). Intermediate
    /// frequencies are filter-aware: `sel` prices each element's predicate,
    /// falling back to the Remark 7.1 constant where stats are absent.
    fn expand_cost(
        &self,
        est: &dyn CardEstimator,
        sel: &dyn SelectivityEstimator,
        ps: &Pattern,
        target: &Pattern,
        new_vertex: PatternVertexId,
        edges: &[PatternEdgeId],
    ) -> f64;

    /// Cost of hash-joining the matches of `ps1` and `ps2`.
    fn join_cost(
        &self,
        est: &dyn CardEstimator,
        sel: &dyn SelectivityEstimator,
        ps1: &Pattern,
        ps2: &Pattern,
    ) -> f64;
}

/// Neo4j-like spec: flattening `ExpandInto`, no communication cost.
#[derive(Debug, Clone, Default)]
pub struct Neo4jSpec;

impl PhysicalSpec for Neo4jSpec {
    fn name(&self) -> &str {
        "neo4j"
    }

    fn expand_strategy(&self) -> ExpandStrategy {
        ExpandStrategy::Flatten
    }

    fn comm_weight(&self) -> f64 {
        0.0
    }

    fn expand_cost(
        &self,
        est: &dyn CardEstimator,
        sel: &dyn SelectivityEstimator,
        ps: &Pattern,
        target: &Pattern,
        new_vertex: PatternVertexId,
        edges: &[PatternEdgeId],
    ) -> f64 {
        // ExpandInto flattens: pay the frequency of every intermediate pattern obtained
        // by appending the edges one at a time.
        let mut vertex_ids: BTreeSet<PatternVertexId> = ps.vertex_ids().into_iter().collect();
        vertex_ids.insert(new_vertex);
        let mut edge_ids: BTreeSet<PatternEdgeId> = ps.edge_ids().into_iter().collect();
        let mut cost = 0.0;
        for e in edges {
            edge_ids.insert(*e);
            let intermediate = target.induced(&vertex_ids, &edge_ids);
            cost += est.pattern_freq_with_filters(&intermediate, sel);
        }
        cost
    }

    fn join_cost(
        &self,
        est: &dyn CardEstimator,
        sel: &dyn SelectivityEstimator,
        ps1: &Pattern,
        ps2: &Pattern,
    ) -> f64 {
        est.pattern_freq_with_filters(ps1, sel) + est.pattern_freq_with_filters(ps2, sel)
    }
}

/// GraphScope-like spec: worst-case-optimal `ExpandIntersect`, communication cost counted.
#[derive(Debug, Clone, Default)]
pub struct GraphScopeSpec;

impl PhysicalSpec for GraphScopeSpec {
    fn name(&self) -> &str {
        "graphscope"
    }

    fn expand_strategy(&self) -> ExpandStrategy {
        ExpandStrategy::Intersect
    }

    fn comm_weight(&self) -> f64 {
        1.0
    }

    fn expand_cost(
        &self,
        est: &dyn CardEstimator,
        sel: &dyn SelectivityEstimator,
        ps: &Pattern,
        _target: &Pattern,
        _new_vertex: PatternVertexId,
        edges: &[PatternEdgeId],
    ) -> f64 {
        // ExpandIntersect intersects adjacency lists without flattening: |Pv| * F(Ps)
        edges.len() as f64 * est.pattern_freq_with_filters(ps, sel)
    }

    fn join_cost(
        &self,
        est: &dyn CardEstimator,
        sel: &dyn SelectivityEstimator,
        ps1: &Pattern,
        ps2: &Pattern,
    ) -> f64 {
        est.pattern_freq_with_filters(ps1, sel) + est.pattern_freq_with_filters(ps2, sel)
    }
}

/// One step of a pattern plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternStep {
    /// Scan the candidate vertices of one pattern vertex.
    Scan {
        /// The pattern vertex bound by the scan.
        vertex: PatternVertexId,
    },
    /// Bind `new_vertex` by expanding `edges` from the input plan's bound vertices.
    Expand {
        /// Plan producing the source sub-pattern.
        input: Box<PatternPlan>,
        /// The newly bound pattern vertex.
        new_vertex: PatternVertexId,
        /// The pattern edges connecting `new_vertex` to already-bound vertices.
        edges: Vec<PatternEdgeId>,
    },
    /// Hash-join two sub-plans on their common pattern vertices.
    Join {
        /// Left sub-plan.
        left: Box<PatternPlan>,
        /// Right sub-plan.
        right: Box<PatternPlan>,
        /// Join-key pattern vertices.
        keys: Vec<PatternVertexId>,
    },
}

/// A costed plan for matching one (sub-)pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternPlan {
    /// The final step of the plan.
    pub step: PatternStep,
    /// Total estimated cost (Algorithm 2's accumulated cost).
    pub cost: f64,
    /// Estimated result cardinality of the (sub-)pattern.
    pub est_rows: f64,
}

impl PatternPlan {
    /// The order in which pattern vertices become bound (for plan-shape assertions).
    pub fn binding_order(&self) -> Vec<PatternVertexId> {
        match &self.step {
            PatternStep::Scan { vertex } => vec![*vertex],
            PatternStep::Expand {
                input, new_vertex, ..
            } => {
                let mut o = input.binding_order();
                o.push(*new_vertex);
                o
            }
            PatternStep::Join { left, right, .. } => {
                let mut o = left.binding_order();
                for v in right.binding_order() {
                    if !o.contains(&v) {
                        o.push(v);
                    }
                }
                o
            }
        }
    }

    /// Number of `Join` steps in the plan.
    pub fn join_count(&self) -> usize {
        match &self.step {
            PatternStep::Scan { .. } => 0,
            PatternStep::Expand { input, .. } => input.join_count(),
            PatternStep::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
        }
    }
}

/// A sub-pattern of the pattern being planned, as bitmasks: bit `i` of `vertices`
/// (`edges`) stands for the planned pattern's `i`-th vertex (edge) id, in id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SubPattern {
    vertices: u64,
    edges: u64,
}

/// The positions of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// The pattern one `plan` call searches, with its ids indexed for [`SubPattern`] masks.
struct Indexed<'p> {
    pattern: &'p Pattern,
    vertex_ids: Vec<PatternVertexId>,
    edge_ids: Vec<PatternEdgeId>,
    /// The vertex bits of each edge's endpoints.
    ends: Vec<(usize, usize)>,
    /// The edges incident to each vertex.
    incident: Vec<u64>,
}

impl<'p> Indexed<'p> {
    /// `None` when the pattern has more than 64 vertices or edges.
    fn new(pattern: &'p Pattern) -> Option<Self> {
        let vertex_ids = pattern.vertex_ids();
        let edge_ids = pattern.edge_ids();
        if vertex_ids.len() > 64 || edge_ids.len() > 64 {
            return None;
        }
        let bit = |v| {
            vertex_ids
                .binary_search(&v)
                .expect("edge endpoint in pattern")
        };
        let ends: Vec<(usize, usize)> = pattern.edges().map(|e| (bit(e.src), bit(e.dst))).collect();
        let mut incident = vec![0u64; vertex_ids.len()];
        for (i, &(a, b)) in ends.iter().enumerate() {
            incident[a] |= 1 << i;
            incident[b] |= 1 << i;
        }
        Some(Indexed {
            pattern,
            vertex_ids,
            edge_ids,
            ends,
            incident,
        })
    }

    /// The masks of `p`, or `None` if it has an id the planned pattern does not.
    fn masks(&self, p: &Pattern) -> Option<SubPattern> {
        let mut s = SubPattern {
            vertices: 0,
            edges: 0,
        };
        for v in p.vertices() {
            s.vertices |= 1 << self.vertex_ids.binary_search(&v.id).ok()?;
        }
        for e in p.edges() {
            s.edges |= 1 << self.edge_ids.binary_search(&e.id).ok()?;
        }
        Some(s)
    }

    /// The sub-pattern spanned by `edges`: those edges and their endpoints.
    fn spanned_by(&self, edges: u64) -> SubPattern {
        let vertices = bits(edges).fold(0, |m, e| {
            let (a, b) = self.ends[e];
            m | 1 << a | 1 << b
        });
        SubPattern { vertices, edges }
    }

    /// [`Pattern::is_connected`] on masks.
    fn is_connected(&self, s: SubPattern) -> bool {
        if s.vertices.count_ones() <= 1 {
            return true;
        }
        let mut seen = s.vertices & s.vertices.wrapping_neg();
        loop {
            let grown = bits(s.edges).fold(seen, |m, e| {
                let (a, b) = self.ends[e];
                if seen & (1 << a | 1 << b) != 0 {
                    m | 1 << a | 1 << b
                } else {
                    m
                }
            });
            if grown == seen {
                return seen == s.vertices;
            }
            seen = grown;
        }
    }

    fn vertices_of(&self, mask: u64) -> Vec<PatternVertexId> {
        bits(mask).map(|i| self.vertex_ids[i]).collect()
    }

    fn edges_of(&self, mask: u64) -> Vec<PatternEdgeId> {
        bits(mask).map(|i| self.edge_ids[i]).collect()
    }

    /// The sub-pattern as a [`Pattern`], ids preserved.
    fn materialise(&self, s: SubPattern) -> Pattern {
        self.pattern.induced(
            &self.vertices_of(s.vertices).into_iter().collect(),
            &self.edges_of(s.edges).into_iter().collect(),
        )
    }
}

/// A per-`plan` memo of filter-aware frequencies, keyed by [`SubPattern`] masks, that
/// the planner and both `PhysicalSpec` cost functions query: each distinct sub-pattern
/// reaches the wrapped estimator (and is canonicalised) once per search. A pattern with
/// ids outside the planned pattern, or priced by another selectivity estimator, passes
/// straight through. Patterns with the planned pattern's ids are taken to be its
/// sub-patterns, as every pattern the planner hands a cost function is.
struct MemoEstimator<'a> {
    inner: &'a dyn CardEstimator,
    sel: &'a dyn SelectivityEstimator,
    index: &'a Indexed<'a>,
    freqs: RefCell<HashMap<SubPattern, f64>>,
}

impl CardEstimator for MemoEstimator<'_> {
    fn pattern_freq(&self, pattern: &Pattern) -> f64 {
        self.inner.pattern_freq(pattern)
    }

    fn pattern_freq_with_filters(&self, pattern: &Pattern, sel: &dyn SelectivityEstimator) -> f64 {
        let key = self.index.masks(pattern);
        let Some(key) = key.filter(|_| std::ptr::addr_eq(sel, self.sel)) else {
            return self.inner.pattern_freq_with_filters(pattern, sel);
        };
        if let Some(f) = self.freqs.borrow().get(&key) {
            return *f;
        }
        let f = self.inner.pattern_freq_with_filters(pattern, sel);
        self.freqs.borrow_mut().insert(key, f);
        f
    }
}

/// How the best plan of one sub-pattern was found; sub-plans are memo keys, so the
/// memo stays flat and the plan tree is built once, at the end.
enum Choice {
    Scan(PatternVertexId),
    Expand {
        input: SubPattern,
        new_vertex: PatternVertexId,
        edges: Vec<PatternEdgeId>,
    },
    Join {
        left: SubPattern,
        right: SubPattern,
        keys: Vec<PatternVertexId>,
    },
}

struct Entry {
    cost: f64,
    est_rows: f64,
    choice: Choice,
}

/// The state of one branch-and-bound search (Algorithm 2).
struct Search<'s> {
    planner: &'s PatternPlanner<'s>,
    index: &'s Indexed<'s>,
    est: &'s MemoEstimator<'s>,
    budget: f64,
    memo: HashMap<SubPattern, Entry>,
}

impl Search<'_> {
    /// The cost of the best plan for `s`, memoized.
    fn search(&mut self, s: SubPattern) -> f64 {
        if let Some(e) = self.memo.get(&s) {
            return e.cost;
        }
        let planner = self.planner;
        let (spec, sel) = (planner.spec, planner.selectivity);
        let pattern = self.index.materialise(s);
        let freq = self.est.pattern_freq_with_filters(&pattern, sel);
        if s.vertices.count_ones() == 1 {
            let vertex = self.index.vertex_ids[s.vertices.trailing_zeros() as usize];
            let scan = Entry {
                cost: freq,
                est_rows: freq,
                choice: Choice::Scan(vertex),
            };
            self.memo.insert(s, scan);
            return freq;
        }
        let comm = spec.comm_weight();
        let mut best: Option<Entry> = None;
        // Expand candidates: remove a vertex whose removal keeps the remainder connected
        for v in bits(s.vertices) {
            let incident = self.index.incident[v] & s.edges;
            if incident == 0 {
                continue;
            }
            let rest = SubPattern {
                vertices: s.vertices & !(1 << v),
                edges: s.edges & !incident,
            };
            if !self.index.is_connected(rest) {
                continue;
            }
            let new_vertex = self.index.vertex_ids[v];
            let edges = self.index.edges_of(incident);
            let remainder = self.index.materialise(rest);
            let op_cost = spec.expand_cost(self.est, sel, &remainder, &pattern, new_vertex, &edges);
            let noncumulative = op_cost + comm * freq;
            if !planner.disable_pruning && best.is_some() && noncumulative >= self.budget {
                continue; // branch cannot beat the known bound
            }
            let cost = self.search(rest) + noncumulative;
            if best.as_ref().is_none_or(|b| cost < b.cost) {
                best = Some(Entry {
                    cost,
                    est_rows: freq,
                    choice: Choice::Expand {
                        input: rest,
                        new_vertex,
                        edges,
                    },
                });
            }
        }
        // Join candidates
        let n = s.edges.count_ones() as usize;
        if n >= 2 && n <= planner.max_join_edges {
            let edge_bits: Vec<usize> = bits(s.edges).collect();
            // iterate proper non-empty subsets that contain the first edge (dedups the
            // symmetric split)
            for mask in 1u64..(1 << (n - 1)) {
                let mut left_edges = 1u64 << edge_bits[0];
                for (i, &e) in edge_bits.iter().enumerate().skip(1) {
                    if mask & (1 << (i - 1)) != 0 {
                        left_edges |= 1 << e;
                    }
                }
                let right_edges = s.edges & !left_edges;
                if right_edges == 0 {
                    continue;
                }
                let left = self.index.spanned_by(left_edges);
                let right = self.index.spanned_by(right_edges);
                if !self.index.is_connected(left) || !self.index.is_connected(right) {
                    continue;
                }
                let keys = left.vertices & right.vertices;
                if keys == 0 {
                    continue;
                }
                let op_cost = spec.join_cost(
                    self.est,
                    sel,
                    &self.index.materialise(left),
                    &self.index.materialise(right),
                );
                let noncumulative = op_cost + comm * freq;
                if !planner.disable_pruning && best.is_some() && noncumulative >= self.budget {
                    continue;
                }
                let cost = self.search(left) + self.search(right) + noncumulative;
                if best.as_ref().is_none_or(|b| cost < b.cost) {
                    best = Some(Entry {
                        cost,
                        est_rows: freq,
                        choice: Choice::Join {
                            left,
                            right,
                            keys: self.index.vertices_of(keys),
                        },
                    });
                }
            }
        }
        // the first candidate is never pruned, and a connected pattern has a vertex
        // whose removal keeps it connected
        let best = best.expect("a connected pattern has an expand candidate");
        let cost = best.cost;
        self.memo.insert(s, best);
        cost
    }

    /// The plan tree of a searched sub-pattern.
    fn build(&self, s: SubPattern) -> PatternPlan {
        let e = &self.memo[&s];
        let step = match &e.choice {
            Choice::Scan(vertex) => PatternStep::Scan { vertex: *vertex },
            Choice::Expand {
                input,
                new_vertex,
                edges,
            } => PatternStep::Expand {
                input: Box::new(self.build(*input)),
                new_vertex: *new_vertex,
                edges: edges.clone(),
            },
            Choice::Join { left, right, keys } => PatternStep::Join {
                left: Box::new(self.build(*left)),
                right: Box::new(self.build(*right)),
                keys: keys.clone(),
            },
        };
        PatternPlan {
            step,
            cost: e.cost,
            est_rows: e.est_rows,
        }
    }
}

/// The top-down, branch-and-bound pattern planner (Algorithm 2).
pub struct PatternPlanner<'a> {
    estimator: &'a dyn CardEstimator,
    spec: &'a dyn PhysicalSpec,
    /// Prices each filtered element's predicate; defaults to the Remark 7.1
    /// constant fallback ([`ConstSelectivity`]).
    selectivity: &'a dyn SelectivityEstimator,
    /// Join decompositions are only enumerated for patterns with at most this many edges
    /// (the enumeration is exponential in the edge count).
    pub max_join_edges: usize,
    /// Disable branch-and-bound pruning (used by the planning-time ablation).
    pub disable_pruning: bool,
}

impl<'a> PatternPlanner<'a> {
    /// Create a planner over a cardinality estimator and a backend spec, with
    /// the constant-selectivity fallback for filters.
    pub fn new(estimator: &'a dyn CardEstimator, spec: &'a dyn PhysicalSpec) -> Self {
        PatternPlanner {
            estimator,
            spec,
            selectivity: &CONST_SELECTIVITY,
            max_join_edges: 10,
            disable_pruning: false,
        }
    }

    /// Use a statistics-backed selectivity estimator for filtered elements
    /// (e.g. `gopt_glogue::StatsSelectivity` over `GraphStats`), making every
    /// frequency the cost models see filter-aware.
    pub fn with_selectivity(mut self, sel: &'a dyn SelectivityEstimator) -> Self {
        self.selectivity = sel;
        self
    }

    /// Find the (estimated) optimal plan for `pattern`.
    ///
    /// The search memoizes sub-plans and sub-pattern frequencies by vertex and edge
    /// bitmasks, so a pattern with more than 64 vertices or edges gets the greedy plan.
    pub fn plan(&self, pattern: &Pattern) -> PatternPlan {
        assert!(pattern.vertex_count() > 0, "cannot plan an empty pattern");
        let Some(index) = Indexed::new(pattern) else {
            return self.greedy_initial(pattern);
        };
        let est = MemoEstimator {
            inner: self.estimator,
            sel: self.selectivity,
            index: &index,
            freqs: RefCell::new(HashMap::new()),
        };
        let greedy = self.greedy(&est, pattern);
        let mut search = Search {
            planner: self,
            index: &index,
            est: &est,
            budget: greedy.cost,
            memo: HashMap::new(),
        };
        let whole = index.masks(pattern).expect("a pattern has its own ids");
        if search.search(whole) <= greedy.cost {
            search.build(whole)
        } else {
            greedy
        }
    }

    /// Greedy initial solution: start from the cheapest vertex and repeatedly expand the
    /// cheapest adjacent vertex. Provides the bound used to prune the exact search.
    pub fn greedy_initial(&self, pattern: &Pattern) -> PatternPlan {
        self.greedy(self.estimator, pattern)
    }

    fn greedy(&self, est: &dyn CardEstimator, pattern: &Pattern) -> PatternPlan {
        let freq = |p: &Pattern| est.pattern_freq_with_filters(p, self.selectivity);
        let comm = self.spec.comm_weight();
        // cheapest starting vertex
        let start = pattern
            .vertex_ids()
            .into_iter()
            .min_by(|a, b| {
                let fa = freq(&pattern.single_vertex(*a));
                let fb = freq(&pattern.single_vertex(*b));
                fa.total_cmp(&fb)
            })
            .expect("non-empty pattern");
        let mut bound: BTreeSet<PatternVertexId> = [start].into_iter().collect();
        let mut bound_edges: BTreeSet<PatternEdgeId> = BTreeSet::new();
        let single = pattern.single_vertex(start);
        let mut plan = PatternPlan {
            cost: freq(&single),
            est_rows: freq(&single),
            step: PatternStep::Scan { vertex: start },
        };
        while bound.len() < pattern.vertex_count() {
            // candidate next vertices: adjacent to the bound set
            let mut best: Option<(f64, PatternVertexId, Vec<PatternEdgeId>, Pattern)> = None;
            for v in pattern.vertex_ids() {
                if bound.contains(&v) {
                    continue;
                }
                let connecting: Vec<PatternEdgeId> = pattern
                    .adjacent_edges(v)
                    .into_iter()
                    .filter(|e| {
                        let e = pattern.edge(*e);
                        let other = if e.src == v { e.dst } else { e.src };
                        bound.contains(&other)
                    })
                    .collect();
                if connecting.is_empty() {
                    continue;
                }
                let ps = pattern.induced(&bound, &bound_edges);
                let mut new_edges = bound_edges.clone();
                new_edges.extend(connecting.iter().copied());
                let mut new_vertices = bound.clone();
                new_vertices.insert(v);
                let next = pattern.induced(&new_vertices, &new_edges);
                let op_cost =
                    self.spec
                        .expand_cost(est, self.selectivity, &ps, pattern, v, &connecting);
                let step_cost = op_cost + comm * freq(&next);
                if best.as_ref().is_none_or(|(c, ..)| step_cost < *c) {
                    best = Some((step_cost, v, connecting, next));
                }
            }
            let (step_cost, v, connecting, next) = best.expect("pattern is connected");
            plan = PatternPlan {
                cost: plan.cost + step_cost,
                est_rows: freq(&next),
                step: PatternStep::Expand {
                    input: Box::new(plan),
                    new_vertex: v,
                    edges: connecting.clone(),
                },
            };
            bound.insert(v);
            bound_edges.extend(connecting);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_gir::types::TypeConstraint;
    use gopt_gir::Expr;
    use gopt_glogue::{GLogue, GlogueQuery};
    use gopt_graph::schema::fig6_schema;
    use gopt_graph::LabelId;

    struct Fixture {
        glogue: GLogue,
        person: LabelId,
        product: LabelId,
        place: LabelId,
        knows: LabelId,
        purchases: LabelId,
        located: LabelId,
        produced: LabelId,
    }

    fn fixture() -> Fixture {
        let schema = fig6_schema();
        let person = schema.vertex_label("Person").unwrap();
        let product = schema.vertex_label("Product").unwrap();
        let place = schema.vertex_label("Place").unwrap();
        let knows = schema.edge_label("Knows").unwrap();
        let purchases = schema.edge_label("Purchases").unwrap();
        let located = schema.edge_label("LocatedIn").unwrap();
        let produced = schema.edge_label("ProducedIn").unwrap();
        // a skewed GLogue: many persons, few places, very selective LocatedIn
        let glogue = GLogue::from_counts(
            schema,
            vec![(person, 10_000.0), (product, 2_000.0), (place, 10.0)],
            vec![
                (person, knows, person, 50_000.0),
                (person, purchases, product, 20_000.0),
                (person, located, place, 10_000.0),
                (product, produced, place, 2_000.0),
            ],
        );
        Fixture {
            glogue,
            person,
            product,
            place,
            knows,
            purchases,
            located,
            produced,
        }
    }

    /// Triangle: (p1:Person)-[:Knows]->(p2:Person), both located in (c:Place) with a
    /// filter on the place.
    fn triangle(f: &Fixture, with_filter: bool) -> Pattern {
        let mut p = Pattern::new();
        let p1 = p.add_vertex_tagged("p1", TypeConstraint::basic(f.person));
        let p2 = p.add_vertex_tagged("p2", TypeConstraint::basic(f.person));
        let c = p.add_vertex_tagged("c", TypeConstraint::basic(f.place));
        p.add_edge(p1, p2, TypeConstraint::basic(f.knows));
        p.add_edge(p1, c, TypeConstraint::basic(f.located));
        p.add_edge(p2, c, TypeConstraint::basic(f.located));
        if with_filter {
            p.vertex_mut(c).predicate = Some(Expr::prop_eq("c", "name", "China"));
        }
        p
    }

    #[test]
    fn single_vertex_and_single_edge_plans() {
        let f = fixture();
        let gq = GlogueQuery::new(&f.glogue);
        let spec = Neo4jSpec;
        let planner = PatternPlanner::new(&gq, &spec);
        let mut p = Pattern::new();
        let v = p.add_vertex_tagged("v", TypeConstraint::basic(f.place));
        let plan = planner.plan(&p);
        assert_eq!(plan.step, PatternStep::Scan { vertex: v });
        assert_eq!(plan.cost, 10.0);

        // single edge: the planner should start from the rarer endpoint (Place)
        let mut p = Pattern::new();
        let a = p.add_vertex_tagged("a", TypeConstraint::basic(f.person));
        let b = p.add_vertex_tagged("b", TypeConstraint::basic(f.place));
        p.add_edge(a, b, TypeConstraint::basic(f.located));
        let plan = planner.plan(&p);
        assert_eq!(plan.binding_order()[0], b, "scan the Place side first");
        assert_eq!(plan.join_count(), 0);
    }

    #[test]
    fn filtered_triangle_starts_from_filtered_place() {
        let f = fixture();
        let gq = GlogueQuery::new(&f.glogue);
        let spec = Neo4jSpec;
        let planner = PatternPlanner::new(&gq, &spec);
        let plan = planner.plan(&triangle(&f, true));
        // the filtered Place vertex is by far the most selective starting point
        let order = plan.binding_order();
        assert_eq!(order.len(), 3);
        assert_eq!(order[0].0, 2, "plan starts at the place vertex");
        // with the filter the plan must be cheaper than without
        let plan_nofilter = planner.plan(&triangle(&f, false));
        assert!(plan.cost < plan_nofilter.cost);
    }

    #[test]
    fn greedy_is_an_upper_bound_of_the_search() {
        let f = fixture();
        let gq = GlogueQuery::new(&f.glogue);
        for spec in [&Neo4jSpec as &dyn PhysicalSpec, &GraphScopeSpec] {
            let planner = PatternPlanner::new(&gq, spec);
            let pattern = triangle(&f, true);
            let greedy = planner.greedy_initial(&pattern);
            let best = planner.plan(&pattern);
            assert!(
                best.cost <= greedy.cost + 1e-9,
                "search ({}) must not be worse than greedy ({}) on {}",
                best.cost,
                greedy.cost,
                spec.name()
            );
        }
    }

    #[test]
    fn pruning_does_not_change_the_chosen_plan_cost() {
        let f = fixture();
        let gq = GlogueQuery::new(&f.glogue);
        let spec = GraphScopeSpec;
        let mut planner = PatternPlanner::new(&gq, &spec);
        let pattern = triangle(&f, true);
        let with_pruning = planner.plan(&pattern);
        planner.disable_pruning = true;
        let without_pruning = planner.plan(&pattern);
        assert!((with_pruning.cost - without_pruning.cost).abs() < 1e-6);
    }

    #[test]
    fn expand_costs_follow_the_registered_models() {
        let f = fixture();
        let gq = GlogueQuery::new(&f.glogue);
        let pattern = triangle(&f, false);
        let c = pattern.vertex_ids()[2];
        let remainder = pattern.remove_vertex(c);
        let edges = pattern.adjacent_edges(c);
        // GraphScope: |Pv| * F(Ps) — two edges, F(knows edge pattern) = 50k
        let nosel = ConstSelectivity;
        let gs = GraphScopeSpec.expand_cost(&gq, &nosel, &remainder, &pattern, c, &edges);
        assert!((gs - 2.0 * 50_000.0).abs() < 1e-6);
        // Neo4j: sum of the intermediate pattern frequencies obtained by appending the
        // two closing edges one at a time
        let neo = Neo4jSpec.expand_cost(&gq, &nosel, &remainder, &pattern, c, &edges);
        let mut vids: BTreeSet<PatternVertexId> = remainder.vertex_ids().into_iter().collect();
        vids.insert(c);
        let mut eids: BTreeSet<PatternEdgeId> = remainder.edge_ids().into_iter().collect();
        eids.insert(edges[0]);
        let first_intermediate = pattern.induced(&vids, &eids);
        let expected_neo = gq.pattern_freq_with_filters(&first_intermediate, &nosel)
            + gq.pattern_freq_with_filters(&pattern, &nosel);
        assert!((neo - expected_neo).abs() < 1e-6);
        assert!(neo > 0.0);
        // join cost is symmetric and additive
        let left = pattern.induced_by_edges(&[pattern.edge_ids()[0]].into_iter().collect());
        let right = pattern.induced_by_edges(
            &pattern.edge_ids()[1..]
                .iter()
                .copied()
                .collect::<BTreeSet<_>>(),
        );
        let j1 = Neo4jSpec.join_cost(&gq, &nosel, &left, &right);
        let j2 = Neo4jSpec.join_cost(&gq, &nosel, &right, &left);
        assert!((j1 - j2).abs() < 1e-9);
        assert_eq!(Neo4jSpec.name(), "neo4j");
        assert_eq!(GraphScopeSpec.name(), "graphscope");
        assert_eq!(Neo4jSpec.comm_weight(), 0.0);
        assert_eq!(GraphScopeSpec.comm_weight(), 1.0);
        assert_eq!(Neo4jSpec.expand_strategy(), ExpandStrategy::Flatten);
        assert_eq!(GraphScopeSpec.expand_strategy(), ExpandStrategy::Intersect);
    }

    #[test]
    fn backend_specific_costs_can_change_the_plan() {
        // On a pattern where intersection is cheap but flattening is expensive, the
        // GraphScope plan should never be costlier under its own model than the plan
        // chosen with Neo4j's model evaluated under the GraphScope model (the GOpt-Neo
        // comparison of Fig. 8(c)).
        let f = fixture();
        let gq = GlogueQuery::new(&f.glogue);
        let pattern = triangle(&f, false);
        let gs_spec = GraphScopeSpec;
        let neo_spec = Neo4jSpec;
        let gs_plan = PatternPlanner::new(&gq, &gs_spec).plan(&pattern);
        let neo_plan = PatternPlanner::new(&gq, &neo_spec).plan(&pattern);
        // evaluate both plans under the GraphScope cost model by replaying their steps
        fn replay(
            plan: &PatternPlan,
            pattern: &Pattern,
            est: &dyn CardEstimator,
            spec: &dyn PhysicalSpec,
        ) -> f64 {
            fn bound(plan: &PatternPlan) -> BTreeSet<PatternVertexId> {
                plan.binding_order().into_iter().collect()
            }
            fn edges_of(plan: &PatternPlan) -> BTreeSet<PatternEdgeId> {
                match &plan.step {
                    PatternStep::Scan { .. } => BTreeSet::new(),
                    PatternStep::Expand { input, edges, .. } => {
                        let mut e = edges_of(input);
                        e.extend(edges.iter().copied());
                        e
                    }
                    PatternStep::Join { left, right, .. } => {
                        let mut e = edges_of(left);
                        e.extend(edges_of(right));
                        e
                    }
                }
            }
            let nosel = ConstSelectivity;
            match &plan.step {
                PatternStep::Scan { vertex } => {
                    est.pattern_freq_with_filters(&pattern.single_vertex(*vertex), &nosel)
                }
                PatternStep::Expand {
                    input,
                    new_vertex,
                    edges,
                } => {
                    let sub_cost = replay(input, pattern, est, spec);
                    let ps = pattern.induced(&bound(input), &edges_of(input));
                    let mut all_v = bound(input);
                    all_v.insert(*new_vertex);
                    let mut all_e = edges_of(input);
                    all_e.extend(edges.iter().copied());
                    let target = pattern.induced(&all_v, &all_e);
                    sub_cost
                        + spec.expand_cost(est, &nosel, &ps, pattern, *new_vertex, edges)
                        + spec.comm_weight() * est.pattern_freq_with_filters(&target, &nosel)
                }
                PatternStep::Join { left, right, .. } => {
                    let lc = replay(left, pattern, est, spec);
                    let rc = replay(right, pattern, est, spec);
                    let pl = pattern.induced(&bound(left), &edges_of(left));
                    let pr = pattern.induced(&bound(right), &edges_of(right));
                    lc + rc + spec.join_cost(est, &nosel, &pl, &pr)
                }
            }
        }
        let gs_cost_of_gs_plan = replay(&gs_plan, &pattern, &gq, &gs_spec);
        let gs_cost_of_neo_plan = replay(&neo_plan, &pattern, &gq, &gs_spec);
        assert!(gs_cost_of_gs_plan <= gs_cost_of_neo_plan + 1e-6);
    }

    /// 50 Persons with `age = i % 10`, 10 Places; every Person located in one
    /// Place. The filter `p.age >= 1` keeps 90% of persons — the Remark 7.1
    /// constant (0.1) wildly overestimates its selectivity.
    fn correlated_graph() -> gopt_graph::PropertyGraph {
        use gopt_graph::graph::GraphBuilder;
        use gopt_graph::PropValue;
        let mut b = GraphBuilder::new(fig6_schema());
        let mut people = Vec::new();
        for i in 0..50i64 {
            people.push(
                b.add_vertex_by_name("Person", vec![("age", PropValue::Int(i % 10))])
                    .unwrap(),
            );
        }
        let mut places = Vec::new();
        for i in 0..10 {
            places.push(
                b.add_vertex_by_name("Place", vec![("name", PropValue::str(format!("pl{i}")))])
                    .unwrap(),
            );
        }
        for (i, p) in people.iter().enumerate() {
            b.add_edge_by_name("LocatedIn", *p, places[i % 10], vec![])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn histogram_selectivity_changes_the_chosen_plan() {
        use gopt_glogue::{GLogueConfig, StatsSelectivity};
        use gopt_graph::GraphStats;
        let g = correlated_graph();
        let gl = GLogue::build(
            &g,
            &GLogueConfig {
                max_pattern_vertices: 3,
                max_anchors: None,
                seed: 0,
            },
        );
        let person = g.schema().vertex_label("Person").unwrap();
        let place = g.schema().vertex_label("Place").unwrap();
        let located = g.schema().edge_label("LocatedIn").unwrap();
        // (p:Person {age >= 1})-[:LocatedIn]->(c:Place)
        let mut pattern = Pattern::new();
        let p = pattern.add_vertex_tagged("p", TypeConstraint::basic(person));
        let c = pattern.add_vertex_tagged("c", TypeConstraint::basic(place));
        pattern.add_edge(p, c, TypeConstraint::basic(located));
        pattern.vertex_mut(p).predicate = Some(Expr::binary(
            gopt_gir::BinOp::Ge,
            Expr::prop("p", "age"),
            Expr::lit(1),
        ));
        let gq = GlogueQuery::new(&gl);
        let spec = Neo4jSpec;
        // constant selectivity: the filtered Person scan looks like 50*0.1 = 5
        // rows, cheaper than the 10 Places — the plan starts at the Person
        let const_plan = PatternPlanner::new(&gq, &spec).plan(&pattern);
        assert_eq!(
            const_plan.binding_order()[0],
            p,
            "constant picks the filtered scan"
        );
        // histogram selectivity knows the filter keeps 45 of 50 persons —
        // scanning the 10 Places first is cheaper
        let stats = GraphStats::shared(&g);
        let sel = StatsSelectivity::new(stats);
        let stats_plan = PatternPlanner::new(&gq, &spec)
            .with_selectivity(&sel)
            .plan(&pattern);
        assert_eq!(
            stats_plan.binding_order()[0],
            c,
            "stats pick the Place scan"
        );
        assert_ne!(const_plan.binding_order(), stats_plan.binding_order());
    }

    /// QC4a's 7-vertex, 8-edge pattern, parsed against the 120-person LDBC graph,
    /// with that graph's GLogue.
    fn qc4a_env() -> (GLogue, Pattern) {
        use gopt_glogue::GLogueConfig;
        use gopt_workloads::{generate_ldbc_graph, qc_queries, LdbcScale};
        let g = generate_ldbc_graph(&LdbcScale {
            persons: 120,
            seed: 42,
        });
        let glogue = GLogue::build(
            &g,
            &GLogueConfig {
                max_pattern_vertices: 3,
                max_anchors: Some(500),
                seed: 9,
            },
        );
        let qc4a = qc_queries().into_iter().find(|q| q.name == "QC4a").unwrap();
        let logical = gopt_parser::parse_cypher(&qc4a.text, g.schema()).unwrap();
        let pattern = logical.match_nodes()[0].1.clone();
        (glogue, pattern)
    }

    /// The vertex and edge ids of a sub-pattern.
    type Ids = (Vec<PatternVertexId>, Vec<PatternEdgeId>);

    /// Counts, per (vertex set, edge set), the calls that reach the wrapped estimator.
    struct Counting<'a> {
        inner: &'a dyn CardEstimator,
        calls: RefCell<std::collections::BTreeMap<Ids, usize>>,
    }

    impl Counting<'_> {
        fn count(&self, p: &Pattern) {
            *self
                .calls
                .borrow_mut()
                .entry((p.vertex_ids(), p.edge_ids()))
                .or_default() += 1;
        }
    }

    impl CardEstimator for Counting<'_> {
        fn pattern_freq(&self, p: &Pattern) -> f64 {
            self.count(p);
            self.inner.pattern_freq(p)
        }

        fn pattern_freq_with_filters(&self, p: &Pattern, sel: &dyn SelectivityEstimator) -> f64 {
            self.count(p);
            self.inner.pattern_freq_with_filters(p, sel)
        }
    }

    #[test]
    fn qc4a_plans_are_pinned_and_each_sub_pattern_is_estimated_once() {
        let (glogue, pattern) = qc4a_env();
        // (spec, binding order, joins, cost bits, est_rows bits), as planned by the
        // brute-force canonicaliser and the `Vec`-keyed memo this search replaced
        let pins = [
            (
                &GraphScopeSpec as &dyn PhysicalSpec,
                [0, 3, 5, 1, 2, 6, 4],
                0,
                0x40ab_6219_bfd9_29f3,
                0x4021_a3de_b08d_825c,
            ),
            (
                &Neo4jSpec,
                [6, 1, 0, 3, 5, 2, 4],
                1,
                0x40b1_565c_4bea_9456,
                0x4021_a3de_b08d_825c,
            ),
        ];
        for (spec, order, joins, cost, est_rows) in pins {
            let gq = GlogueQuery::new(&glogue);
            let counting = Counting {
                inner: &gq,
                calls: Default::default(),
            };
            let plan = PatternPlanner::new(&counting, spec).plan(&pattern);
            let name = spec.name();
            let got: Vec<usize> = plan.binding_order().iter().map(|v| v.0).collect();
            assert_eq!(got, order, "{name}");
            assert_eq!(plan.join_count(), joins, "{name}");
            assert_eq!(plan.cost.to_bits(), cost, "{name}: cost {}", plan.cost);
            assert_eq!(
                plan.est_rows.to_bits(),
                est_rows,
                "{name}: rows {}",
                plan.est_rows
            );
            // the GLogue cache holds one entry per isomorphism class met
            assert_eq!(gq.cached_entries(), 154, "{name}");
            let calls = counting.calls.borrow();
            assert!(calls.len() > 100, "{name}: {} sub-patterns", calls.len());
            for ((vs, es), n) in calls.iter() {
                assert_eq!(*n, 1, "{name}: {vs:?} {es:?} estimated {n} times");
            }
        }
    }

    #[test]
    fn join_plans_are_considered_for_long_paths() {
        // A long path between two very selective endpoints: a bidirectional plan with a
        // join in the middle should be at least as good as any single-direction plan.
        let f = fixture();
        let gq = GlogueQuery::new(&f.glogue);
        // 4-hop person path anchored at two filtered persons
        let mut p = Pattern::new();
        let mut vs = Vec::new();
        for i in 0..5 {
            vs.push(p.add_vertex_tagged(format!("p{i}"), TypeConstraint::basic(f.person)));
        }
        for i in 0..4 {
            p.add_edge(vs[i], vs[i + 1], TypeConstraint::basic(f.knows));
        }
        p.vertex_mut(vs[0]).predicate = Some(Expr::prop_eq("p0", "id", 1));
        p.vertex_mut(vs[4]).predicate = Some(Expr::prop_eq("p4", "id", 2));
        let spec = GraphScopeSpec;
        let planner = PatternPlanner::new(&gq, &spec);
        let plan = planner.plan(&p);
        assert!(
            plan.join_count() >= 1,
            "bidirectional (join) plan expected for an s-t path, got {plan:?}"
        );
        let _ = (f.product, f.purchases, f.produced);
    }
}
