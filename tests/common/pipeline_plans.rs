//! Pipeline-shaped plans for the morsel engine's equivalence suites (shared
//! by `tests/parallel_equivalence.rs` and `crates/exec/tests/batch_ops.rs`):
//! every way a fused chain can end or be cut — dead and live slots, each
//! sink, `Limit` mid-chain, `Union` and `HashJoin` over fused sides, empty
//! input at every stage — over a small graph with nulls, strings beyond the
//! packed-key width, floats, and a vertex variable that mixes labels. Also
//! the comparisons those suites make against the scalar oracle.

use gopt_exec::{Engine, EngineConfig, ExecError, ExecResult, ParallelEngine};
use gopt_gir::pattern::{Direction, PathSemantics};
use gopt_gir::physical::{PhysicalOp, PhysicalPlan};
use gopt_gir::types::TypeConstraint;
use gopt_gir::{AggFunc, BinOp, Expr, JoinType, SortDir};
use gopt_graph::graph::GraphBuilder;
use gopt_graph::schema::fig6_schema;
use gopt_graph::{PartitionedGraph, PartitionerSpec, PropValue, PropertyGraph};

/// 30 persons (sparse long-string `bio`, sparse float `score`), 6 products
/// with short names, 4 places with long names.
pub fn pipeline_graph() -> PropertyGraph {
    let mut b = GraphBuilder::new(fig6_schema());
    let mut persons = Vec::new();
    for i in 0..30i64 {
        let mut props = vec![
            ("id", PropValue::Int(i)),
            ("name", PropValue::str(format!("p{i}"))),
            ("age", PropValue::Int(20 + i % 4)),
        ];
        if i % 5 != 0 {
            props.push((
                "bio",
                PropValue::str(format!("a biography, kind {}", i % 3)),
            ));
        }
        if i % 3 != 0 {
            props.push(("score", PropValue::Float(0.1 + i as f64 * 0.37)));
        }
        persons.push(b.add_vertex_by_name("Person", props).unwrap());
    }
    let products: Vec<_> = (0..6i64)
        .map(|i| {
            let props = vec![
                ("id", PropValue::Int(100 + i)),
                ("name", PropValue::str(format!("prod{}", i % 4))),
            ];
            b.add_vertex_by_name("Product", props).unwrap()
        })
        .collect();
    let places: Vec<_> = (0..4i64)
        .map(|i| {
            let props = vec![
                ("id", PropValue::Int(200 + i)),
                (
                    "name",
                    PropValue::str(format!("a long place name {}", i % 3)),
                ),
            ];
            b.add_vertex_by_name("Place", props).unwrap()
        })
        .collect();
    for i in 0..persons.len() {
        for d in [1, 7, 11] {
            let j = (i + d) % persons.len();
            b.add_edge_by_name("Knows", persons[i], persons[j], vec![])
                .unwrap();
        }
        b.add_edge_by_name("Purchases", persons[i], products[i % 6], vec![])
            .unwrap();
        if i % 7 != 0 {
            b.add_edge_by_name("LocatedIn", persons[i], places[i % 4], vec![])
                .unwrap();
        }
    }
    b.finish()
}

struct Plans<'g> {
    g: &'g PropertyGraph,
    out: Vec<(&'static str, PhysicalPlan)>,
}

impl Plans<'_> {
    fn vertex(&self, label: &str) -> TypeConstraint {
        TypeConstraint::basic(self.g.schema().vertex_label(label).unwrap())
    }

    fn edge(&self, label: &str) -> TypeConstraint {
        TypeConstraint::basic(self.g.schema().edge_label(label).unwrap())
    }

    fn scan(&self, alias: &str, predicate: Option<Expr>) -> PhysicalOp {
        PhysicalOp::Scan {
            alias: alias.into(),
            constraint: self.vertex("Person"),
            predicate,
        }
    }

    fn expand(&self, src: &str, edge: &str, dst: &str, dst_label: &str) -> PhysicalOp {
        PhysicalOp::EdgeExpand {
            src: src.into(),
            edge_alias: None,
            edge_constraint: self.edge(edge),
            direction: Direction::Out,
            dst_alias: dst.into(),
            dst_constraint: self.vertex(dst_label),
            dst_predicate: None,
            edge_predicate: None,
        }
    }

    /// `Scan a → a -Knows-> b`, then `ops`.
    fn chain(&mut self, name: &'static str, ops: Vec<PhysicalOp>) {
        let mut plan = PhysicalPlan::new();
        plan.push(self.scan("a", None));
        plan.push(self.expand("a", "Knows", "b", "Person"));
        for op in ops {
            plan.push(op);
        }
        self.out.push((name, plan));
    }
}

fn count_star() -> (AggFunc, Expr, String) {
    (AggFunc::Count, Expr::lit(1), "cnt".into())
}

fn group(keys: Vec<(Expr, &str)>, aggs: Vec<(AggFunc, Expr, String)>) -> PhysicalOp {
    PhysicalOp::HashGroup {
        keys: keys.into_iter().map(|(e, a)| (e, a.into())).collect(),
        aggs,
    }
}

fn fetch(tag: &str, props: Option<&[&str]>) -> PhysicalOp {
    PhysicalOp::PropertyFetch {
        tag: tag.into(),
        props: props.map(|ps| ps.iter().map(|p| p.to_string()).collect()),
    }
}

fn project(items: &[(Expr, &str)]) -> PhysicalOp {
    PhysicalOp::Project {
        items: items
            .iter()
            .map(|(e, a)| (e.clone(), a.to_string()))
            .collect(),
    }
}

/// The plans, by name.
pub fn pipeline_plans(g: &PropertyGraph) -> Vec<(&'static str, PhysicalPlan)> {
    let mut p = Plans { g, out: Vec::new() };
    let nobody = || Expr::prop_eq("a", "id", -1);

    // keyless count(*) behind expands whose aliases (vertex, edge, path) die
    let mut e2 = p.expand("b", "Knows", "c", "Person");
    if let PhysicalOp::EdgeExpand { edge_alias, .. } = &mut e2 {
        *edge_alias = Some("e".into());
    }
    let hop2 = PhysicalOp::PathExpand {
        src: "c".into(),
        dst_alias: "d".into(),
        edge_constraint: p.edge("Knows"),
        direction: Direction::Out,
        min_hops: 1,
        max_hops: 2,
        semantics: PathSemantics::Arbitrary,
        path_alias: Some("path".into()),
    };
    p.chain(
        "count_dead_aliases",
        vec![e2, hop2, group(vec![], vec![count_star()])],
    );

    // count(x) skips nulls, keyless and keyed; a key over sparse values
    let counts = || {
        vec![
            (AggFunc::Count, Expr::prop("b", "bio"), "bios".to_string()),
            (AggFunc::Count, Expr::tag("ghost"), "ghosts".to_string()),
            count_star(),
        ]
    };
    p.chain("count_nulls_keyless", vec![group(vec![], counts())]);
    p.chain(
        "count_nulls_keyed",
        vec![group(vec![(Expr::prop("b", "age"), "age")], counts())],
    );

    // a string key beyond the packed width: grouped by vertex id when every
    // aggregate is a count, by value otherwise
    let bio = || vec![(Expr::prop("b", "bio"), "bio")];
    p.chain(
        "group_long_string_counts",
        vec![group(bio(), vec![count_star()])],
    );
    let max_id = (AggFunc::Max, Expr::prop("a", "id"), "max".to_string());
    p.chain(
        "group_long_string_max",
        vec![group(bio(), vec![count_star(), max_id])],
    );

    // one key over a variable mixing labels: short product names pack, long
    // place names do not
    let mut mixed = PhysicalPlan::new();
    mixed.push(p.scan("a", None));
    mixed.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: None,
        edge_constraint: TypeConstraint::union([
            g.schema().edge_label("Purchases").unwrap(),
            g.schema().edge_label("LocatedIn").unwrap(),
        ]),
        direction: Direction::Out,
        dst_alias: "x".into(),
        dst_constraint: TypeConstraint::all(),
        dst_predicate: None,
        edge_predicate: None,
    });
    mixed.push(group(
        vec![(Expr::prop("x", "name"), "name")],
        vec![(AggFunc::Count, Expr::tag("a"), "cnt".into())],
    ));
    p.out.push(("group_key_mixing_labels", mixed));
    // a bare-tag key keeps the element entry; two keys box
    p.chain(
        "group_tag_and_two_keys",
        vec![
            group(
                vec![(Expr::tag("b"), "b"), (Expr::prop("a", "age"), "age")],
                vec![count_star()],
            ),
            PhysicalOp::OrderLimit {
                keys: vec![
                    (Expr::tag("cnt"), SortDir::Desc),
                    (Expr::tag("age"), SortDir::Asc),
                ],
                limit: Some(6),
            },
        ],
    );

    // order-sensitive aggregates: float sums and averages, min/max ties
    p.chain(
        "float_sum_avg",
        vec![group(
            vec![(Expr::prop("a", "age"), "age")],
            vec![
                (AggFunc::Sum, Expr::prop("b", "score"), "sum".into()),
                (AggFunc::Avg, Expr::prop("b", "score"), "avg".into()),
                (AggFunc::Sum, Expr::prop("b", "id"), "ids".into()),
                (AggFunc::Min, Expr::prop("b", "bio"), "min".into()),
                (AggFunc::Max, Expr::prop("b", "score"), "max".into()),
                (
                    AggFunc::CountDistinct,
                    Expr::prop("b", "age"),
                    "ages".into(),
                ),
            ],
        )],
    );

    // PropertyFetch: dead behind a group, live at the root (explicit props
    // and fetch-all), fetch-all dead behind a projection
    let by_name = || group(vec![(Expr::prop("b", "name"), "name")], vec![count_star()]);
    p.chain(
        "fetch_dead_explicit",
        vec![fetch("b", Some(&["name", "bio"])), by_name()],
    );
    p.chain(
        "fetch_dead_all",
        vec![fetch("b", None), project(&[(Expr::prop("b", "id"), "id")])],
    );
    p.chain(
        "fetch_live_explicit",
        vec![fetch("b", Some(&["name", "bio"]))],
    );
    p.chain("fetch_live_all", vec![fetch("a", None)]);
    p.chain(
        "fetch_live_named_downstream",
        vec![
            fetch("b", Some(&["age"])),
            group(vec![(Expr::tag("b.age"), "age")], vec![count_star()]),
        ],
    );

    // Limit mid-chain, then more streaming stages
    p.chain(
        "limit_mid_chain",
        vec![
            PhysicalOp::Limit { count: 7 },
            p.expand("b", "Knows", "c", "Person"),
            PhysicalOp::Select {
                predicate: Expr::binary(BinOp::Lt, Expr::prop("c", "id"), Expr::lit(25)),
            },
            project(&[(Expr::prop("c", "id"), "id"), (Expr::tag("a"), "a")]),
        ],
    );

    // top-k and full sort over a fused chain; Dedup keyed and keyless
    let by_age = |limit| PhysicalOp::OrderLimit {
        keys: vec![
            (Expr::prop("b", "age"), SortDir::Desc),
            (Expr::prop("a", "id"), SortDir::Asc),
        ],
        limit,
    };
    p.chain("order_top_k", vec![by_age(Some(5))]);
    p.chain("order_all", vec![by_age(None)]);
    p.chain("order_limit_zero", vec![by_age(Some(0))]);
    p.chain(
        "dedup_keyed",
        vec![PhysicalOp::Dedup {
            keys: vec![Expr::prop("b", "age")],
        }],
    );
    p.chain(
        "dedup_keyless",
        vec![
            project(&[(Expr::prop("b", "age"), "age")]),
            PhysicalOp::Dedup { keys: vec![] },
        ],
    );

    // Union of two fused chains (and a count over it); HashJoin over two
    let branch = |p: &Plans<'_>, plan: &mut PhysicalPlan, edge: &str, label: &str, pred| {
        let s = plan.add(p.scan("a", pred), vec![]);
        let e = plan.add(p.expand("a", edge, "b", label), vec![s]);
        plan.add(project(&[(Expr::prop("b", "id"), "id")]), vec![e])
    };
    for (name, counted, left_pred) in [
        ("union_of_chains", false, None),
        ("union_counted", true, None),
        ("union_with_empty_side", false, Some(nobody())),
    ] {
        let mut plan = PhysicalPlan::new();
        let l = branch(&p, &mut plan, "Knows", "Person", left_pred);
        let r = branch(&p, &mut plan, "LocatedIn", "Place", None);
        let u = plan.add(PhysicalOp::Union, vec![l, r]);
        if counted {
            plan.add(group(vec![], vec![count_star()]), vec![u]);
        }
        p.out.push((name, plan));
    }
    for (name, kind, right_pred) in [
        ("join_fused_sides", JoinType::Inner, None),
        (
            "join_left_outer_empty_side",
            JoinType::LeftOuter,
            Some(nobody()),
        ),
    ] {
        let mut plan = PhysicalPlan::new();
        let l0 = plan.add(p.scan("a", None), vec![]);
        let l1 = plan.add(p.expand("a", "LocatedIn", "c", "Place"), vec![l0]);
        let r0 = plan.add(p.scan("a", right_pred), vec![]);
        let r1 = plan.add(p.expand("a", "Knows", "b", "Person"), vec![r0]);
        let keys = vec!["a".to_string()];
        let j = plan.add(PhysicalOp::HashJoin { keys, kind }, vec![l1, r1]);
        let by_place = group(
            vec![(Expr::prop("c", "name"), "place")],
            vec![(AggFunc::Count, Expr::tag("b"), "friends".into())],
        );
        plan.add(by_place, vec![j]);
        p.out.push((name, plan));
    }

    // nothing survives the scan: every stage and every sink sees no rows
    for (name, tail) in [
        ("empty_collect", vec![fetch("b", Some(&["name"]))]),
        ("empty_fetch_all", vec![fetch("b", None)]),
        (
            "empty_group_keyless",
            vec![group(vec![], vec![count_star()])],
        ),
        ("empty_group_keyed", vec![by_name()]),
        ("empty_order", vec![by_age(Some(3))]),
        ("empty_dedup", vec![PhysicalOp::Dedup { keys: vec![] }]),
        (
            "empty_limit_project",
            vec![
                PhysicalOp::Limit { count: 2 },
                project(&[(Expr::tag("b"), "b")]),
            ],
        ),
    ] {
        let mut plan = PhysicalPlan::new();
        plan.push(p.scan("a", Some(nobody())));
        plan.push(p.expand("a", "Knows", "b", "Person"));
        plan.push(PhysicalOp::Select {
            predicate: Expr::binary(BinOp::Ge, Expr::prop("b", "id"), Expr::lit(0)),
        });
        for op in tail {
            plan.push(op);
        }
        p.out.push((name, plan));
    }
    p.out
}

/// Morsel sizes every leg of the matrix runs at.
pub const BATCH_SIZES: [usize; 4] = [1, 3, 7, 1024];

/// Compare the engine's answer at `at` with the scalar oracle's: the same
/// tags, rows in the same order and record statistics, or the same error.
/// Returns the engine's result when both succeeded.
pub fn check<'r>(
    oracle: &Result<ExecResult, ExecError>,
    got: &'r Result<ExecResult, ExecError>,
    at: &str,
) -> Option<&'r ExecResult> {
    match (oracle, got) {
        (Ok(oracle), Ok(got)) => {
            assert_eq!(oracle.tags.tags(), got.tags.tags(), "tags at {at}");
            assert_eq!(oracle.rows(), got.rows(), "rows at {at}");
            assert_eq!(
                (oracle.stats.intermediate_records, oracle.stats.peak_records),
                (got.stats.intermediate_records, got.stats.peak_records),
                "record statistics at {at}"
            );
            Some(got)
        }
        // under an armed `exec.operator` fail point both engines fail alike
        (Err(want), Err(e)) => {
            assert_eq!(want, e, "errors at {at}");
            None
        }
        (oracle, got) => panic!("{at}: oracle {oracle:?}, engine {got:?}"),
    }
}

/// The monolithic leg: `plan` on the engine over the unpartitioned graph,
/// with no placement — as the single-machine backend runs it — at every
/// batch size and each of `threads`. It must agree with `oracle` and charge
/// no communication at all.
pub fn assert_monolithic_agrees(
    g: &PropertyGraph,
    name: &str,
    plan: &PhysicalPlan,
    oracle: &Result<ExecResult, ExecError>,
    record_limit: Option<u64>,
    threads: &[usize],
) {
    for batch_size in BATCH_SIZES {
        for &t in threads {
            let at = format!("{name} monolithic t={t} bs={batch_size}");
            let got = ParallelEngine::new(g)
                .with_threads(t)
                .with_batch_size(batch_size)
                .with_record_limit(record_limit)
                .execute(plan);
            if let Some(got) = check(oracle, &got, &at) {
                let s = &got.stats;
                let shipped = (s.comm_records, s.comm_bytes, s.locality_hits);
                assert_eq!(shipped, (0, 0, 0), "no placement, no charge ({at})");
            }
        }
    }
}

/// `plan` on the morsel engine over the monolithic graph and at partitions
/// {1, 2, 4} × `threads` × [`BATCH_SIZES`] × {hash, greedy + hubs}
/// placement: tags, rows, row order and record statistics must be the scalar
/// oracle's, and the measured communication must not depend on the thread
/// count.
pub fn assert_parallel_matrix(
    g: &PropertyGraph,
    name: &str,
    plan: &PhysicalPlan,
    threads: &[usize],
) {
    let oracle = Engine::new(g, EngineConfig::default()).execute(plan);
    if let Ok(rows) = &oracle {
        let vacuous = name.starts_with("empty_") || name == "order_limit_zero";
        assert_eq!(
            rows.is_empty(),
            vacuous,
            "{name}: rows exactly when inputs exist"
        );
    }
    assert_monolithic_agrees(g, name, plan, &oracle, None, threads);
    for parts in [1usize, 2, 4] {
        let placements: &[(PartitionerSpec, usize)] = match parts {
            1 => &[(PartitionerSpec::Hash, 0)],
            _ => &[(PartitionerSpec::Hash, 0), (PartitionerSpec::Greedy, 4)],
        };
        for &(spec, hubs) in placements {
            let sharded = PartitionedGraph::build_with_opts(g, spec.build(g, parts), hubs);
            for batch_size in BATCH_SIZES {
                let mut comm = None;
                for &t in threads {
                    let at = format!("{name} p={parts} t={t} bs={batch_size} {}", spec.name());
                    let got = ParallelEngine::new(&sharded)
                        .with_threads(t)
                        .with_batch_size(batch_size)
                        .execute(plan);
                    let Some(got) = check(&oracle, &got, &at) else {
                        continue;
                    };
                    let s = &got.stats;
                    let shipped = (s.comm_records, s.comm_bytes, s.locality_hits);
                    assert_eq!(
                        *comm.get_or_insert(shipped),
                        shipped,
                        "communication at {at}"
                    );
                    if parts == 1 {
                        assert_eq!(shipped, (0, 0, 0), "one partition ships nothing ({at})");
                    }
                }
            }
        }
    }
}
