//! Operator-level equivalence: every physical operator, executed through the scalar
//! oracle [`Engine`] and through the morsel-driven [`ParallelEngine`] over record
//! batches, must produce identical rows (same order), identical tag maps, identical
//! record statistics and identical errors. The engine runs over the monolithic graph
//! with no placement — the single-machine backend's path — at batch sizes 1, 3, 7 and
//! 1024 (the small ones stress chunk boundaries), and over shards where a case names a
//! partition count.

use gopt_exec::{Engine, EngineConfig, ParallelEngine};
use gopt_gir::pattern::{Direction, PathSemantics};
use gopt_gir::physical::{IntersectStep, PhysicalOp, PhysicalPlan};
use gopt_gir::types::TypeConstraint;
use gopt_gir::{AggFunc, BinOp, Expr, JoinType, SortDir};
use gopt_graph::generator::{random_graph, RandomGraphConfig};
use gopt_graph::schema::fig6_schema;
use gopt_graph::{PartitionedGraph, PropertyGraph};

#[path = "../../../tests/common/pipeline_plans.rs"]
mod pipeline_plans;

fn graph(seed: u64) -> PropertyGraph {
    random_graph(
        &fig6_schema(),
        &RandomGraphConfig {
            vertices_per_label: 14,
            edges_per_endpoint: 40,
            seed,
        },
    )
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

const THREADS: [usize; 2] = [1, 2];

/// Run `plan` through the scalar oracle and through the morsel engine — over the
/// monolithic graph and, given `partitions`, over that many shards, at every batch
/// size — and assert bit-identical tags, rows and record statistics.
fn assert_equivalent(g: &PropertyGraph, plan: &PhysicalPlan, partitions: Option<usize>) {
    let oracle = Engine::new(g, EngineConfig::default()).execute(plan);
    assert!(oracle.is_ok(), "the oracle runs the plan: {oracle:?}");
    pipeline_plans::assert_monolithic_agrees(g, "plan", plan, &oracle, None, &THREADS);
    let Some(parts) = partitions else { return };
    let sharded = PartitionedGraph::build(g, parts);
    for batch_size in pipeline_plans::BATCH_SIZES {
        for t in THREADS {
            let got = ParallelEngine::new(&sharded)
                .with_threads(t)
                .with_batch_size(batch_size)
                .execute(plan);
            let at = format!("p={parts} t={t} bs={batch_size}");
            pipeline_plans::check(&oracle, &got, &at);
        }
    }
}

#[test]
fn scan_select_project() {
    let g = graph(1);
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: Some(Expr::binary(
            BinOp::Ge,
            Expr::prop("a", "id"),
            Expr::lit(20),
        )),
    });
    plan.push(PhysicalOp::Select {
        predicate: Expr::binary(BinOp::Lt, Expr::prop("a", "id"), Expr::lit(60)),
    });
    plan.push(PhysicalOp::Project {
        items: vec![
            (Expr::tag("a"), "a".into()),
            (
                Expr::binary(BinOp::Add, Expr::prop("a", "id"), Expr::lit(1)),
                "next_age".into(),
            ),
        ],
    });
    assert_equivalent(&g, &plan, None);
    assert_equivalent(&g, &plan, Some(4));
}

#[test]
fn edge_expand_with_predicates_and_edge_alias() {
    let g = graph(2);
    for direction in [Direction::Out, Direction::In, Direction::Both] {
        let mut plan = PhysicalPlan::new();
        plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person(&g),
            predicate: None,
        });
        plan.push(PhysicalOp::EdgeExpand {
            src: "a".into(),
            edge_alias: Some("e".into()),
            edge_constraint: knows(&g),
            direction,
            dst_alias: "b".into(),
            dst_constraint: person(&g),
            dst_predicate: Some(Expr::binary(
                BinOp::Gt,
                Expr::prop("b", "id"),
                Expr::lit(25),
            )),
            edge_predicate: Some(Expr::binary(
                BinOp::Ge,
                Expr::prop("e", "weight"),
                Expr::lit(0),
            )),
        });
        assert_equivalent(&g, &plan, None);
        assert_equivalent(&g, &plan, Some(3));
    }
}

#[test]
fn expand_into_and_intersect() {
    let g = graph(3);
    // wedge then close with ExpandInto
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: None,
        edge_constraint: knows(&g),
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person(&g),
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "b".into(),
        edge_alias: None,
        edge_constraint: knows(&g),
        direction: Direction::Out,
        dst_alias: "c".into(),
        dst_constraint: person(&g),
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::ExpandInto {
        src: "a".into(),
        dst: "c".into(),
        edge_constraint: knows(&g),
        direction: Direction::Out,
        edge_alias: Some("closing".into()),
        edge_predicate: None,
    });
    assert_equivalent(&g, &plan, None);
    assert_equivalent(&g, &plan, Some(2));

    // triangle via worst-case-optimal intersection
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: None,
        edge_constraint: knows(&g),
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person(&g),
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::ExpandIntersect {
        steps: vec![
            IntersectStep {
                src: "a".into(),
                edge_constraint: knows(&g),
                direction: Direction::Out,
                edge_alias: None,
            },
            IntersectStep {
                src: "b".into(),
                edge_constraint: knows(&g),
                direction: Direction::Out,
                edge_alias: None,
            },
        ],
        dst_alias: "c".into(),
        dst_constraint: person(&g),
        dst_predicate: Some(Expr::binary(
            BinOp::Gt,
            Expr::prop("c", "id"),
            Expr::lit(10),
        )),
    });
    assert_equivalent(&g, &plan, None);
    assert_equivalent(&g, &plan, Some(4));
}

#[test]
fn path_expand_all_semantics() {
    let g = graph(4);
    for semantics in [PathSemantics::Arbitrary, PathSemantics::Simple] {
        let mut plan = PhysicalPlan::new();
        plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person(&g),
            predicate: Some(Expr::binary(
                BinOp::Lt,
                Expr::prop("a", "id"),
                Expr::lit(30),
            )),
        });
        plan.push(PhysicalOp::PathExpand {
            src: "a".into(),
            dst_alias: "b".into(),
            edge_constraint: knows(&g),
            direction: Direction::Out,
            min_hops: 1,
            max_hops: 2,
            semantics,
            path_alias: Some("p".into()),
        });
        plan.push(PhysicalOp::Select {
            predicate: Expr::prop_eq("p", "length", 2),
        });
        assert_equivalent(&g, &plan, None);
        assert_equivalent(&g, &plan, Some(5));
    }
}

#[test]
fn group_order_limit_dedup() {
    let g = graph(5);
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: None,
        edge_constraint: located(&g),
        direction: Direction::Out,
        dst_alias: "c".into(),
        dst_constraint: place(&g),
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::HashGroup {
        keys: vec![(Expr::prop("c", "name"), "name".into())],
        aggs: vec![
            (AggFunc::Count, Expr::tag("a"), "cnt".into()),
            (AggFunc::Min, Expr::prop("a", "id"), "youngest".into()),
            (AggFunc::Avg, Expr::prop("a", "id"), "avg_age".into()),
            (AggFunc::CountDistinct, Expr::prop("a", "id"), "ages".into()),
        ],
    });
    plan.push(PhysicalOp::OrderLimit {
        keys: vec![
            (Expr::tag("cnt"), SortDir::Desc),
            (Expr::tag("name"), SortDir::Asc),
        ],
        limit: Some(3),
    });
    assert_equivalent(&g, &plan, None);
    assert_equivalent(&g, &plan, Some(4));

    // dedup + limit over raw expansion
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: None,
        edge_constraint: knows(&g),
        direction: Direction::Both,
        dst_alias: "b".into(),
        dst_constraint: person(&g),
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::Dedup {
        keys: vec![Expr::tag("b")],
    });
    plan.push(PhysicalOp::Limit { count: 7 });
    assert_equivalent(&g, &plan, None);
}

/// Persons with a dense Int `age` (collisions via `% 5`), a sparse Date
/// `seen`, a Str `nick` and a kind-mixed `badge` — one property per shape the
/// typed Int/Date grouping fast path must either take or decline.
fn typed_props_graph() -> PropertyGraph {
    use gopt_graph::graph::GraphBuilder;
    use gopt_graph::PropValue;
    let mut b = GraphBuilder::new(fig6_schema());
    for i in 0..23i64 {
        let mut props = vec![
            ("age", PropValue::Int(i % 5)),
            ("nick", PropValue::str(format!("n{}", i % 3))),
        ];
        if i % 2 == 0 {
            props.push(("seen", PropValue::Date(100 + i % 4)));
        }
        props.push(if i < 12 {
            ("badge", PropValue::Int(i % 2))
        } else {
            ("badge", PropValue::str("b"))
        });
        b.add_vertex_by_name("Person", props).unwrap();
    }
    b.finish()
}

#[test]
fn typed_int_date_group_keys_match_the_oracle() {
    let g = typed_props_graph();
    // one plan per key shape: Int fast path, Date fast path (with nulls),
    // Str fallback, Mixed fallback, unknown-property fast path (all-null
    // keys), and a two-key plan that must stay on the generic path
    let keysets: Vec<Vec<(Expr, String)>> = vec![
        vec![(Expr::prop("a", "age"), "k".into())],
        vec![(Expr::prop("a", "seen"), "k".into())],
        vec![(Expr::prop("a", "nick"), "k".into())],
        vec![(Expr::prop("a", "badge"), "k".into())],
        vec![(Expr::prop("a", "ghost"), "k".into())],
        vec![
            (Expr::prop("a", "age"), "k1".into()),
            (Expr::prop("a", "seen"), "k2".into()),
        ],
    ];
    for keys in keysets {
        let mut plan = PhysicalPlan::new();
        plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person(&g),
            predicate: None,
        });
        plan.push(PhysicalOp::HashGroup {
            keys: keys.clone(),
            aggs: vec![
                (AggFunc::Count, Expr::tag("a"), "cnt".into()),
                (AggFunc::Sum, Expr::prop("a", "age"), "sum".into()),
            ],
        });
        assert_equivalent(&g, &plan, None);
        assert_equivalent(&g, &plan, Some(4));
    }
}

#[test]
fn property_fetch_explicit_and_all() {
    let g = graph(6);
    for props in [
        Some(vec!["name".to_string(), "age".to_string()]),
        None::<Vec<String>>,
    ] {
        let mut plan = PhysicalPlan::new();
        plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person(&g),
            predicate: None,
        });
        plan.push(PhysicalOp::PropertyFetch {
            tag: "a".into(),
            props: props.clone(),
        });
        plan.push(PhysicalOp::Select {
            predicate: Expr::Unary {
                op: gopt_gir::UnaryOp::IsNotNull,
                operand: Box::new(Expr::tag("a.name")),
            },
        });
        assert_equivalent(&g, &plan, None);
    }
}

/// Regression: a fetch-all `PropertyFetch` over a union where the tag is an
/// element in one branch and a computed value in the other (so some rows fetch
/// nothing) must preserve the pre-existing entries of non-fetching rows — the
/// batched operator once rebuilt the whole column and nulled them.
#[test]
fn property_fetch_preserves_unfetched_rows() {
    let g = graph(10);
    let mut plan = PhysicalPlan::new();
    let s1 = plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: None,
    });
    let p1 = plan.add(
        PhysicalOp::Project {
            items: vec![
                (Expr::tag("a"), "a".into()),
                (Expr::lit("left"), "a.name".into()),
            ],
        },
        vec![s1],
    );
    let s2 = plan.add(
        PhysicalOp::Scan {
            alias: "a".into(),
            constraint: place(&g),
            predicate: None,
        },
        vec![],
    );
    let p2 = plan.add(
        PhysicalOp::Project {
            items: vec![
                // "a" becomes a computed value on this branch: fetch-all skips it
                (Expr::prop("a", "id"), "a".into()),
                (Expr::lit("right"), "a.name".into()),
            ],
        },
        vec![s2],
    );
    let u = plan.add(PhysicalOp::Union, vec![p1, p2]);
    plan.add(
        PhysicalOp::PropertyFetch {
            tag: "a".into(),
            props: None,
        },
        vec![u],
    );
    assert_equivalent(&g, &plan, None);
}

#[test]
fn joins_and_union() {
    let g = graph(7);
    for kind in [
        JoinType::Inner,
        JoinType::LeftOuter,
        JoinType::Semi,
        JoinType::Anti,
    ] {
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
                dst_predicate: None,
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
        plan.add(
            PhysicalOp::HashJoin {
                keys: vec!["a".into()],
                kind,
            },
            vec![l1, r1],
        );
        assert_equivalent(&g, &plan, None);
        assert_equivalent(&g, &plan, Some(3));
    }

    // union of two scans with different (overlapping) tag sets
    let mut plan = PhysicalPlan::new();
    let s1 = plan.push(PhysicalOp::Scan {
        alias: "x".into(),
        constraint: person(&g),
        predicate: None,
    });
    let s2p = plan.add(
        PhysicalOp::Scan {
            alias: "x".into(),
            constraint: place(&g),
            predicate: None,
        },
        vec![],
    );
    let s2 = plan.add(
        PhysicalOp::Project {
            items: vec![
                (Expr::tag("x"), "x".into()),
                (Expr::prop("x", "name"), "name".into()),
            ],
        },
        vec![s2p],
    );
    let u = plan.add(PhysicalOp::Union, vec![s1, s2]);
    plan.add(PhysicalOp::Dedup { keys: vec![] }, vec![u]);
    assert_equivalent(&g, &plan, None);
}

#[test]
fn record_limit_parity() {
    let g = graph(8);
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: None,
        edge_constraint: knows(&g),
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person(&g),
        dst_predicate: None,
        edge_predicate: None,
    });
    let config = EngineConfig {
        record_limit: Some(5),
    };
    let scalar = Engine::new(&g, config).execute(&plan);
    let piped = ParallelEngine::new(&g)
        .with_record_limit(Some(5))
        .execute(&plan);
    assert_eq!(scalar.unwrap_err(), piped.unwrap_err());
}

#[test]
fn sum_and_max_aggregates_match() {
    let g = graph(9);
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person(&g),
        predicate: None,
    });
    plan.push(PhysicalOp::HashGroup {
        keys: vec![],
        aggs: vec![
            (AggFunc::Sum, Expr::prop("a", "id"), "total".into()),
            (AggFunc::Max, Expr::prop("a", "id"), "oldest".into()),
        ],
    });
    assert_equivalent(&g, &plan, None);
    assert_equivalent(&g, &plan, Some(2));
}

/// The pipeline-shaped plans of the morsel engine's suite: the morsel engine
/// agrees with the scalar oracle over the monolithic graph and at every
/// partition count, thread count, batch size and placement.
#[test]
fn pipeline_shaped_plans() {
    let g = pipeline_plans::pipeline_graph();
    for (name, plan) in pipeline_plans::pipeline_plans(&g) {
        pipeline_plans::assert_parallel_matrix(&g, name, &plan, &[1, 2, 4]);
    }
}
