//! Equivalence tests for the four expand operators after the CSR storage
//! refactor: on random fig6-schema graphs, `edge_expand`, `expand_into`,
//! `expand_intersect` and `path_expand` must produce exactly the results of a
//! brute-force reference that only ever scans the flat edge list — it never
//! touches the adjacency index being tested.

use gopt::exec::expand::{self, EdgeExpandArgs};
use gopt::exec::{Entry, Record, TagMap};
use gopt::gir::pattern::{Direction, PathSemantics};
use gopt::gir::physical::IntersectStep;
use gopt::gir::TypeConstraint;
use gopt::graph::generator::{random_graph, RandomGraphConfig};
use gopt::graph::schema::fig6_schema;
use gopt::graph::{EdgeId, LabelId, PropertyGraph, VertexId};

fn graph(seed: u64) -> PropertyGraph {
    random_graph(
        &fig6_schema(),
        &RandomGraphConfig {
            vertices_per_label: 8,
            edges_per_endpoint: 25,
            seed,
        },
    )
}

/// Edge-list scan: all `(edge, neighbor)` pairs reachable from `src` over the
/// given labels/direction, deduplicated to the smallest edge id per distinct
/// neighbour and sorted by `(neighbor, edge)` — the operator contract.
fn ref_neighbors(
    g: &PropertyGraph,
    src: VertexId,
    labels: &[LabelId],
    direction: Direction,
) -> Vec<(EdgeId, VertexId)> {
    let mut pairs: Vec<(EdgeId, VertexId)> = Vec::new();
    for e in g.edge_ids() {
        let (s, d) = g.edge_endpoints(e);
        if !labels.contains(&g.edge_label(e)) {
            continue;
        }
        match direction {
            Direction::Out => {
                if s == src {
                    pairs.push((e, d));
                }
            }
            Direction::In => {
                if d == src {
                    pairs.push((e, s));
                }
            }
            Direction::Both => {
                if s == src {
                    pairs.push((e, d));
                }
                if d == src {
                    pairs.push((e, s));
                }
            }
        }
    }
    pairs.sort_by_key(|(e, n)| (*n, *e));
    pairs.dedup_by_key(|(_, n)| *n);
    pairs
}

fn person(g: &PropertyGraph) -> TypeConstraint {
    TypeConstraint::basic(g.schema().vertex_label("Person").unwrap())
}

fn knows_label(g: &PropertyGraph) -> LabelId {
    g.schema().edge_label("Knows").unwrap()
}

fn person_scan(g: &PropertyGraph, tags: &mut TagMap) -> Vec<Record> {
    expand::scan(g, tags, "a", &person(g), &None)
}

#[test]
fn edge_expand_matches_edge_list_reference() {
    for seed in [1u64, 2, 3] {
        let g = graph(seed);
        let knows = knows_label(&g);
        for direction in [Direction::Out, Direction::In, Direction::Both] {
            let mut tags = TagMap::new();
            let input = person_scan(&g, &mut tags);
            let args = EdgeExpandArgs {
                src: "a",
                edge_alias: Some("e"),
                edge_constraint: &TypeConstraint::basic(knows),
                direction,
                dst_alias: "b",
                dst_constraint: &person(&g),
                dst_predicate: &None,
                edge_predicate: &None,
            };
            let out = expand::edge_expand(&g, &input, &mut tags, &args).unwrap();
            let (sa, sb, se) = (
                tags.slot("a").unwrap(),
                tags.slot("b").unwrap(),
                tags.slot("e").unwrap(),
            );
            let mut got: Vec<(VertexId, VertexId, EdgeId)> = out
                .iter()
                .map(|r| {
                    (
                        r.get(sa).as_vertex().unwrap(),
                        r.get(sb).as_vertex().unwrap(),
                        r.get(se).as_edge().unwrap(),
                    )
                })
                .collect();
            got.sort();
            let person_label = g.schema().vertex_label("Person").unwrap();
            let mut want: Vec<(VertexId, VertexId, EdgeId)> = Vec::new();
            for rec in &input {
                let src = rec.get(sa).as_vertex().unwrap();
                for (e, n) in ref_neighbors(&g, src, &[knows], direction) {
                    if g.vertex_label(n) == person_label {
                        want.push((src, n, e));
                    }
                }
            }
            want.sort();
            assert_eq!(got, want, "seed {seed}, direction {direction:?}");
        }
    }
}

#[test]
fn expand_into_matches_edge_list_reference() {
    for seed in [1u64, 5] {
        let g = graph(seed);
        let knows = knows_label(&g);
        // all (a, b) person pairs as input records
        let mut tags = TagMap::new();
        let sa = tags.slot_or_insert("a");
        let sb = tags.slot_or_insert("b");
        let persons = g
            .vertices_with_label(g.schema().vertex_label("Person").unwrap())
            .to_vec();
        let mut input = Vec::new();
        for &a in &persons {
            for &b in &persons {
                let mut r = Record::new();
                r.set(sa, Entry::Vertex(a));
                r.set(sb, Entry::Vertex(b));
                input.push(r);
            }
        }
        for direction in [Direction::Out, Direction::In, Direction::Both] {
            let mut t = tags.clone();
            let out = expand::expand_into(
                &g,
                &input,
                &mut t,
                "a",
                "b",
                &TypeConstraint::basic(knows),
                direction,
                Some("e"),
                &None,
            )
            .unwrap();
            let se = t.slot("e").unwrap();
            let mut got: Vec<(VertexId, VertexId, EdgeId)> = out
                .iter()
                .map(|r| {
                    (
                        r.get(sa).as_vertex().unwrap(),
                        r.get(sb).as_vertex().unwrap(),
                        r.get(se).as_edge().unwrap(),
                    )
                })
                .collect();
            got.sort();
            // reference: the smallest edge id connecting the pair in the
            // requested direction ((s,d) probed before (d,s) for Both)
            let mut want: Vec<(VertexId, VertexId, EdgeId)> = Vec::new();
            for rec in &input {
                let (s, d) = (
                    rec.get(sa).as_vertex().unwrap(),
                    rec.get(sb).as_vertex().unwrap(),
                );
                let pairs: &[(VertexId, VertexId)] = match direction {
                    Direction::Out => &[(s, d)],
                    Direction::In => &[(d, s)],
                    Direction::Both => &[(s, d), (d, s)],
                };
                let mut found = None;
                'pairs: for &(from, to) in pairs {
                    let mut run: Vec<EdgeId> = g
                        .edge_ids()
                        .filter(|&e| g.edge_label(e) == knows && g.edge_endpoints(e) == (from, to))
                        .collect();
                    run.sort();
                    if let Some(&e) = run.first() {
                        found = Some(e);
                        break 'pairs;
                    }
                }
                if let Some(e) = found {
                    want.push((s, d, e));
                }
            }
            want.sort();
            assert_eq!(got, want, "seed {seed}, direction {direction:?}");
        }
    }
}

#[test]
fn expand_intersect_matches_set_intersection_reference() {
    for seed in [1u64, 9] {
        let g = graph(seed);
        let knows = knows_label(&g);
        // input: all (a, b) pairs connected by a Knows edge
        let mut tags = TagMap::new();
        let input = person_scan(&g, &mut tags);
        let args = EdgeExpandArgs {
            src: "a",
            edge_alias: None,
            edge_constraint: &TypeConstraint::basic(knows),
            direction: Direction::Out,
            dst_alias: "b",
            dst_constraint: &person(&g),
            dst_predicate: &None,
            edge_predicate: &None,
        };
        let pairs = expand::edge_expand(&g, &input, &mut tags, &args).unwrap();
        let steps = vec![
            IntersectStep {
                src: "a".into(),
                edge_constraint: TypeConstraint::basic(knows),
                direction: Direction::Out,
                edge_alias: None,
            },
            IntersectStep {
                src: "b".into(),
                edge_constraint: TypeConstraint::basic(knows),
                direction: Direction::Both,
                edge_alias: None,
            },
        ];
        let mut t = tags.clone();
        let out =
            expand::expand_intersect(&g, &pairs, &mut t, &steps, "c", &person(&g), &None).unwrap();
        let (sa, sb) = (tags.slot("a").unwrap(), tags.slot("b").unwrap());
        let sc = t.slot("c").unwrap();
        // the operator emits candidates in ascending vertex order per record:
        // compare the exact sequence, not just the set
        let got: Vec<(VertexId, VertexId, VertexId)> = out
            .iter()
            .map(|r| {
                (
                    r.get(sa).as_vertex().unwrap(),
                    r.get(sb).as_vertex().unwrap(),
                    r.get(sc).as_vertex().unwrap(),
                )
            })
            .collect();
        let person_label = g.schema().vertex_label("Person").unwrap();
        let mut want: Vec<(VertexId, VertexId, VertexId)> = Vec::new();
        for rec in &pairs {
            let a = rec.get(sa).as_vertex().unwrap();
            let b = rec.get(sb).as_vertex().unwrap();
            let na: Vec<VertexId> = ref_neighbors(&g, a, &[knows], Direction::Out)
                .into_iter()
                .map(|(_, n)| n)
                .collect();
            let nb: Vec<VertexId> = ref_neighbors(&g, b, &[knows], Direction::Both)
                .into_iter()
                .map(|(_, n)| n)
                .collect();
            let mut common: Vec<VertexId> = na
                .into_iter()
                .filter(|n| nb.contains(n) && g.vertex_label(*n) == person_label)
                .collect();
            common.sort();
            for c in common {
                want.push((a, b, c));
            }
        }
        assert_eq!(got, want, "seed {seed}");
        assert!(
            !got.is_empty(),
            "seed {seed} produced no triangles — test would be vacuous"
        );
    }
}

#[test]
fn path_expand_matches_bfs_reference() {
    for seed in [1u64, 4] {
        let g = graph(seed);
        let knows = knows_label(&g);
        let mut tags = TagMap::new();
        let input = person_scan(&g, &mut tags);
        for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
            let mut t = tags.clone();
            let out = expand::path_expand(
                &g,
                &input,
                &mut t,
                "a",
                "b",
                &TypeConstraint::basic(knows),
                Direction::Out,
                1,
                3,
                semantics,
                Some("p"),
            )
            .unwrap();
            let sp = t.slot("p").unwrap();
            let mut got: Vec<Vec<VertexId>> = out
                .iter()
                .map(|r| match r.get(sp) {
                    Entry::Path(p) => p.clone(),
                    other => panic!("expected path entry, got {other:?}"),
                })
                .collect();
            got.sort();
            // reference: DFS over the edge list
            let sa = tags.slot("a").unwrap();
            let mut want: Vec<Vec<VertexId>> = Vec::new();
            for rec in &input {
                let start = rec.get(sa).as_vertex().unwrap();
                let mut stack = vec![vec![start]];
                while let Some(path) = stack.pop() {
                    let hops = path.len() - 1;
                    if hops >= 1 {
                        want.push(path.clone());
                    }
                    if hops == 3 {
                        continue;
                    }
                    let cur = *path.last().unwrap();
                    for e in g.edge_ids() {
                        let (s, d) = g.edge_endpoints(e);
                        if g.edge_label(e) != knows || s != cur {
                            continue;
                        }
                        if semantics == PathSemantics::Simple && path.contains(&d) {
                            continue;
                        }
                        let mut np = path.clone();
                        np.push(d);
                        stack.push(np);
                    }
                }
            }
            want.sort();
            assert_eq!(got, want, "seed {seed}, semantics {semantics:?}");
        }
    }
}
