//! `ParallelEngine` vs scalar `Engine` equivalence: morsel-driven execution
//! must return exactly the rows of the scalar oracle — for every workload
//! query the repository ships (optimized by GOpt for both backend specs), for
//! randomized plan orders, and for typed and dictionary-string predicates,
//! groups and sorts. Each plan runs over the monolithic graph with no
//! placement (the single-machine backend's path, at several morsel sizes,
//! charging nothing) and over sharded storage at partitions {1, 2, 4} ×
//! threads {1, 2, 4}, with communication counts identical across thread
//! counts (they are measured from the data, not from scheduling).
//!
//! The thread axis can be narrowed from the environment for CI matrix runs:
//! `GOPT_THREADS=1,4` restricts the suite to those thread counts.

use gopt::core::{ExpandStrategy, GOpt, GOptConfig, GraphScopeSpec, Neo4jSpec, RandomPlanner};
use gopt::exec::{Engine, EngineConfig, ExecResult, ParallelEngine};
use gopt::gir::PhysicalPlan;
use gopt::glogue::{GLogue, GLogueConfig, GlogueQuery};
use gopt::graph::generator::{random_graph, RandomGraphConfig};
use gopt::graph::schema::fig6_schema;
use gopt::graph::{PartitionedGraph, PartitionerSpec, PropertyGraph};
use gopt::parser::{parse_cypher, parse_gremlin};
use gopt::workloads::{
    generate_ldbc_graph, ic_queries, qc_queries, qr_gremlin_queries, qt_queries, LdbcScale,
};
use proptest::prelude::*;

#[path = "common/pipeline_plans.rs"]
mod pipeline_plans;

const PARTITIONS: [usize; 3] = [1, 2, 4];

/// Thread counts under test: `GOPT_THREADS` (comma-separated) or {1, 2, 4}.
fn thread_matrix() -> Vec<usize> {
    match std::env::var("GOPT_THREADS") {
        Ok(s) if !s.trim().is_empty() => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("GOPT_THREADS is comma-separated integers")
            })
            .collect(),
        _ => vec![1, 2, 4],
    }
}

const RECORD_LIMIT: Option<u64> = Some(3_000_000);

/// Execute `plan` on the scalar oracle, on the engine over the monolithic
/// graph, and on the engine over shards at every (partitioner, partition,
/// thread) combination; rows (including order), tags, record statistics and
/// errors must match, and the measured communication must not depend on the
/// thread count.
fn assert_parallel_agrees(g: &PropertyGraph, plan: &PhysicalPlan) {
    let config = EngineConfig {
        record_limit: RECORD_LIMIT,
    };
    let oracle = Engine::new(g, config).execute(plan);
    let threads = thread_matrix();
    pipeline_plans::assert_monolithic_agrees(g, "plan", plan, &oracle, RECORD_LIMIT, &threads);
    for parts in PARTITIONS {
        // placement axis: modulo hash, and (beyond one shard, where placement
        // matters) Fennel-style greedy with a few replicated hubs
        let placements: &[(PartitionerSpec, usize)] = if parts == 1 {
            &[(PartitionerSpec::Hash, 0)]
        } else {
            &[(PartitionerSpec::Hash, 0), (PartitionerSpec::Greedy, 4)]
        };
        for &(spec, hubs) in placements {
            let name = spec.name();
            let sharded = PartitionedGraph::build_with_opts(g, spec.build(g, parts), hubs);
            let mut comm_seen = None;
            for &t in &threads {
                let got = ParallelEngine::new(&sharded)
                    .with_threads(t)
                    .with_record_limit(RECORD_LIMIT)
                    .execute(plan);
                let at = format!("p={parts} t={t} partitioner={name}");
                let Some(r) = pipeline_plans::check(&oracle, &got, &at) else {
                    continue;
                };
                let s = &r.stats;
                let comm = (s.comm_records, s.comm_bytes, s.locality_hits);
                assert_eq!(
                    *comm_seen.get_or_insert(comm),
                    comm,
                    "communication depends on thread count ({at})"
                );
                if parts == 1 {
                    assert_eq!(comm, (0, 0, 0), "a single partition ships nothing ({at})");
                }
            }
        }
    }
}

fn ldbc_env() -> (PropertyGraph, GLogue) {
    let graph = generate_ldbc_graph(&LdbcScale {
        persons: 40,
        seed: 42,
    });
    let glogue = GLogue::build(
        &graph,
        &GLogueConfig {
            max_pattern_vertices: 2,
            max_anchors: Some(200),
            seed: 9,
        },
    );
    (graph, glogue)
}

/// Every shipped workload query, planned by GOpt for both backend specs,
/// executes identically on the parallel partitioned engine.
#[test]
fn workload_plans_agree_with_the_scalar_oracle() {
    let (graph, glogue) = ldbc_env();
    let gq = GlogueQuery::new(&glogue);
    let queries = qc_queries()
        .into_iter()
        .chain(ic_queries())
        .chain(qt_queries())
        .chain(qr_gremlin_queries())
        .collect::<Vec<_>>();
    let mut planned = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let logical = match parse_cypher(&q.text, graph.schema()) {
            Ok(l) => l,
            Err(_) => match parse_gremlin(&q.text, graph.schema()) {
                Ok(l) => l,
                Err(_) => continue,
            },
        };
        // alternate the backend spec across queries (both specs are covered
        // many times over the query set at half the wall-clock cost)
        let plan = if qi % 2 == 0 {
            GOpt::new(graph.schema(), &gq, &GraphScopeSpec)
                .with_config(GOptConfig::default())
                .optimize(&logical)
        } else {
            GOpt::new(graph.schema(), &gq, &Neo4jSpec)
                .with_config(GOptConfig::default())
                .optimize(&logical)
        };
        let Ok(plan) = plan else { continue };
        planned += 1;
        assert_parallel_agrees(&graph, &plan);
    }
    assert!(
        planned >= 8,
        "expected to replay at least 8 optimized workload plans, got {planned}"
    );
}

/// Pipeline-shaped plans — every way a fused chain can end or be cut, over
/// dead and live slots and empty inputs — across the whole partition × thread
/// × batch size × placement matrix.
#[test]
fn pipeline_shaped_plans_agree_across_the_whole_matrix() {
    let g = pipeline_plans::pipeline_graph();
    for (name, plan) in pipeline_plans::pipeline_plans(&g) {
        pipeline_plans::assert_parallel_matrix(&g, name, &plan, &thread_matrix());
    }
}

/// The typed Int/Date grouping fast path on the parallel engine: packed keys
/// per morsel must merge to exactly the scalar oracle's groups at every
/// (partition, thread) combination, including sparse Date keys (nulls) and
/// the mixed-kind fallback.
#[test]
fn typed_group_keys_agree_across_partitions_and_threads() {
    use gopt::gir::pattern::Direction;
    use gopt::gir::physical::PhysicalOp;
    use gopt::gir::types::TypeConstraint;
    use gopt::gir::{AggFunc, Expr};
    use gopt::graph::graph::GraphBuilder;
    use gopt::graph::PropValue;
    let mut b = GraphBuilder::new(fig6_schema());
    let mut people = Vec::new();
    for i in 0..30i64 {
        let mut props = vec![("age", PropValue::Int(i % 6))];
        if i % 2 == 0 {
            props.push(("seen", PropValue::Date(10 + i % 3)));
        }
        props.push(if i < 15 {
            ("badge", PropValue::Int(i % 2))
        } else {
            ("badge", PropValue::str("b"))
        });
        people.push(b.add_vertex_by_name("Person", props).unwrap());
    }
    for i in 1..30usize {
        b.add_edge_by_name("Knows", people[i - 1], people[i], vec![])
            .unwrap();
    }
    let g = b.finish();
    let person = TypeConstraint::basic(g.schema().vertex_label("Person").unwrap());
    let knows = TypeConstraint::basic(g.schema().edge_label("Knows").unwrap());
    for key in ["age", "seen", "badge"] {
        let mut plan = PhysicalPlan::new();
        plan.push(PhysicalOp::Scan {
            alias: "a".into(),
            constraint: person.clone(),
            predicate: None,
        });
        plan.push(PhysicalOp::EdgeExpand {
            src: "a".into(),
            edge_alias: None,
            edge_constraint: knows.clone(),
            direction: Direction::Out,
            dst_alias: "b".into(),
            dst_constraint: person.clone(),
            dst_predicate: None,
            edge_predicate: None,
        });
        plan.push(PhysicalOp::HashGroup {
            keys: vec![(Expr::prop("b", key), "k".into())],
            aggs: vec![(AggFunc::Count, Expr::tag("a"), "cnt".into())],
        });
        assert_parallel_agrees(&g, &plan);
    }
}

/// `Scan(Person) → EdgeExpand(Knows, e) → b`, the input of the predicate and
/// string suites.
fn knows_expand(g: &PropertyGraph) -> PhysicalPlan {
    use gopt::gir::pattern::Direction;
    use gopt::gir::physical::PhysicalOp;
    use gopt::gir::types::TypeConstraint;
    let person = TypeConstraint::basic(g.schema().vertex_label("Person").unwrap());
    let knows = TypeConstraint::basic(g.schema().edge_label("Knows").unwrap());
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person.clone(),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: Some("e".into()),
        edge_constraint: knows,
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person,
        dst_predicate: None,
        edge_predicate: None,
    });
    plan
}

/// Typed-property predicate coverage: plans filtering and projecting over
/// dense, sparse, mixed and all-null property columns. The engine's `Select`
/// takes the typed column kernels where the predicate shape allows, the
/// row-wise evaluator elsewhere; the oracle evaluates every row boxed.
#[test]
fn typed_property_predicates_agree_with_the_scalar_oracle() {
    use gopt::gir::expr::{BinOp, Expr};
    use gopt::gir::physical::PhysicalOp;
    use gopt::graph::graph::GraphBuilder;
    use gopt::graph::PropValue;

    let mut b = GraphBuilder::new(fig6_schema());
    let mut persons = Vec::new();
    for i in 0..12i64 {
        let mut props = vec![
            ("age", PropValue::Int(20 + i)),             // dense Int
            ("score", PropValue::Float(i as f64 / 3.0)), // dense Float
            ("nick", PropValue::str(format!("p{i}"))),   // dense Str
        ];
        if i % 3 == 0 {
            props.push(("seen", PropValue::Date(7000 + i))); // sparse Date
        }
        props.push(if i < 6 {
            ("tag", PropValue::Int(i)) // mixed column: Int then Str cells
        } else {
            ("tag", PropValue::str("t"))
        });
        persons.push(b.add_vertex_by_name("Person", props).unwrap());
    }
    // `capacity` exists only on Places: all-null from Person's point of view
    b.add_vertex_by_name("Place", vec![("capacity", PropValue::Int(9))])
        .unwrap();
    for w in persons.windows(2) {
        let since = vec![("since", PropValue::Int(w[1].0 as i64))];
        b.add_edge_by_name("Knows", w[0], w[1], since).unwrap();
    }
    let graph = b.finish();

    let predicates: Vec<Expr> = vec![
        // dense Int: kernel hit
        Expr::binary(BinOp::Lt, Expr::prop("b", "age"), Expr::lit(27)),
        // literal-on-the-left flips the operator
        Expr::binary(BinOp::Ge, Expr::lit(27), Expr::prop("b", "age")),
        // sparse Date: null bitmap consulted
        Expr::binary(
            BinOp::Le,
            Expr::prop("b", "seen"),
            Expr::lit(PropValue::Date(7006)),
        ),
        // cross-kind: Date column vs Int literal is a constant ordering
        Expr::binary(BinOp::Gt, Expr::prop("b", "seen"), Expr::lit(0)),
        // Float vs Int literal compares numerically
        Expr::binary(BinOp::Gt, Expr::prop("b", "score"), Expr::lit(2)),
        Expr::prop_eq("b", "nick", "p4"),
        // mixed column: per-cell fallback inside the kernel
        Expr::binary(BinOp::Lt, Expr::prop("b", "tag"), Expr::lit(4)),
        // all-null (absent-on-label) column and unknown key
        Expr::prop_eq("b", "capacity", 9),
        Expr::prop_eq("b", "no_such_key", 1),
        // AND/OR over sparse + dense leaves
        Expr::binary(BinOp::Lt, Expr::prop("b", "age"), Expr::lit(29)).and(Expr::binary(
            BinOp::Ge,
            Expr::prop("b", "seen"),
            Expr::lit(PropValue::Date(0)),
        )),
        Expr::binary(
            BinOp::Or,
            Expr::prop_eq("b", "nick", "p2"),
            Expr::binary(BinOp::Gt, Expr::prop("e", "since"), Expr::lit(8)),
        ),
        // shapes the kernel rejects: the row-wise path must agree too
        Expr::binary(
            BinOp::Lt,
            Expr::binary(BinOp::Add, Expr::prop("b", "age"), Expr::lit(1)),
            Expr::lit(26),
        ),
        Expr::binary(BinOp::Eq, Expr::prop("b", "age"), Expr::prop("b", "tag")),
    ];
    for predicate in predicates {
        let mut plan = knows_expand(&graph);
        plan.push(PhysicalOp::Select { predicate });
        plan.push(PhysicalOp::Project {
            items: vec![
                (Expr::prop("b", "age"), "age".into()),
                (Expr::prop("b", "tag"), "tag".into()),
                (Expr::prop("b", "seen"), "seen".into()),
            ],
        });
        assert_parallel_agrees(&graph, &plan);
    }
}

/// String-heavy plans over dictionary-encoded `Str` columns: equality and
/// range predicates (rank comparisons over `u32` codes), `HashGroup` and
/// `OrderLimit` on `Str` keys (packed prefix keys for short strings,
/// row-wise fallback beyond 8 bytes) and deduplication on strings. Strings
/// hit every packing regime: short (≤ 8 bytes), long (> 8 bytes), sharing an
/// 8-byte prefix, empty, and absent (null bitmap). Shards build their
/// dictionaries independently, so this also checks that shard-local codes
/// never leak into cross-shard comparisons.
#[test]
fn string_plans_agree_across_partitions_and_threads() {
    use gopt::gir::expr::{AggFunc, BinOp, Expr, SortDir};
    use gopt::gir::physical::PhysicalOp;
    use gopt::graph::graph::GraphBuilder;
    use gopt::graph::PropValue;
    let cities = [
        "Oslo",             // short: packs into the prefix key
        "Rio",              // short
        "Konstantinopel",   // long: > 8 bytes, the packed path bails
        "Konstanz",         // exactly 8 bytes, still packable
        "Konstanz\u{0131}", // > 8 bytes sharing an 8-byte prefix
        "",                 // the empty string is a valid dictionary entry
    ];
    let mut b = GraphBuilder::new(fig6_schema());
    let mut people = Vec::new();
    for i in 0..30i64 {
        let mut props = vec![("age", PropValue::Int(i % 6))];
        if i % 5 != 0 {
            props.push(("city", PropValue::str(cities[i as usize % cities.len()])));
        }
        // nine-byte keys: grouping on them takes the row-wise path
        props.push(("nick", PropValue::str(format!("person_{:02}", i % 9))));
        people.push(b.add_vertex_by_name("Person", props).unwrap());
    }
    for i in 1..30usize {
        b.add_edge_by_name("Knows", people[i - 1], people[i], vec![])
            .unwrap();
    }
    let g = b.finish();
    let mut plans = Vec::new();
    // rank-based predicates, including needles absent from the dictionary
    for predicate in [
        Expr::prop_eq("b", "city", "Oslo"),
        Expr::prop_eq("b", "city", "Konstantinopel"),
        Expr::prop_eq("b", "city", "Paris"),
        Expr::prop_eq("b", "city", ""),
        Expr::binary(
            BinOp::Lt,
            Expr::prop("b", "city"),
            Expr::lit(PropValue::str("Konstanz")),
        ),
        Expr::binary(
            BinOp::Ge,
            Expr::prop("b", "city"),
            Expr::lit(PropValue::str("Konstanz")),
        ),
        // the prefix-sharing pair must order correctly beyond 8 bytes
        Expr::binary(
            BinOp::Gt,
            Expr::prop("b", "city"),
            Expr::lit(PropValue::str("Konstanz\u{0130}")),
        ),
        // Str column vs Int literal: cross-kind constant ordering
        Expr::binary(BinOp::Gt, Expr::prop("b", "city"), Expr::lit(5)),
    ] {
        let mut plan = knows_expand(&g);
        plan.push(PhysicalOp::Select { predicate });
        plan.push(PhysicalOp::Project {
            items: vec![(Expr::prop("b", "city"), "city".into())],
        });
        plans.push(plan);
    }
    // group and sort on the Str key; Min/Max over strings cross shards
    let mut group = knows_expand(&g);
    group.push(PhysicalOp::HashGroup {
        keys: vec![(Expr::prop("b", "city"), "city".into())],
        aggs: vec![
            (AggFunc::Count, Expr::tag("a"), "cnt".into()),
            (AggFunc::Max, Expr::prop("b", "city"), "max_city".into()),
            (AggFunc::Min, Expr::prop("b", "nick"), "first_nick".into()),
        ],
    });
    group.push(PhysicalOp::OrderLimit {
        keys: vec![(Expr::tag("city"), SortDir::Desc)],
        limit: Some(4),
    });
    plans.push(group);
    // grouping on the long `nick` key
    let mut group_long = knows_expand(&g);
    group_long.push(PhysicalOp::HashGroup {
        keys: vec![(Expr::prop("b", "nick"), "nick".into())],
        aggs: vec![(AggFunc::Count, Expr::tag("b"), "n".into())],
    });
    plans.push(group_long);
    // OrderLimit on Str keys, both directions, with and without top-k
    for (dir, limit) in [(SortDir::Asc, None), (SortDir::Desc, Some(7))] {
        let mut order = knows_expand(&g);
        order.push(PhysicalOp::Project {
            items: vec![
                (Expr::prop("b", "city"), "city".into()),
                (Expr::prop("b", "age"), "age".into()),
            ],
        });
        order.push(PhysicalOp::OrderLimit {
            keys: vec![(Expr::tag("city"), dir), (Expr::tag("age"), SortDir::Asc)],
            limit,
        });
        plans.push(order);
    }
    // dedup on strings
    let mut dedup = knows_expand(&g);
    dedup.push(PhysicalOp::Project {
        items: vec![(Expr::prop("b", "city"), "city".into())],
    });
    dedup.push(PhysicalOp::Dedup {
        keys: vec![Expr::tag("city")],
    });
    plans.push(dedup);
    for plan in &plans {
        assert_parallel_agrees(&g, plan);
    }
}

/// Randomized (but valid) plan orders over random graphs with both expansion
/// strategies.
#[test]
fn random_plan_orders_agree_with_the_scalar_oracle() {
    let schema = fig6_schema();
    for seed in 0..4u64 {
        let graph = random_graph(
            &schema,
            &RandomGraphConfig {
                vertices_per_label: 10,
                edges_per_endpoint: 35,
                seed,
            },
        );
        let person = schema.vertex_label("Person").unwrap();
        let place = schema.vertex_label("Place").unwrap();
        let knows = schema.edge_label("Knows").unwrap();
        let located = schema.edge_label("LocatedIn").unwrap();
        let mut pattern = gopt::gir::Pattern::new();
        let a = pattern.add_vertex_tagged("a", gopt::gir::TypeConstraint::basic(person));
        let b = pattern.add_vertex_tagged("b", gopt::gir::TypeConstraint::basic(person));
        let c = pattern.add_vertex_tagged("c", gopt::gir::TypeConstraint::basic(place));
        pattern.add_edge(a, b, gopt::gir::TypeConstraint::basic(knows));
        pattern.add_edge(a, c, gopt::gir::TypeConstraint::basic(located));
        pattern.add_edge(b, c, gopt::gir::TypeConstraint::basic(located));
        let mut builder = gopt::gir::GraphIrBuilder::new();
        let m = builder.match_pattern(pattern);
        let logical = builder.build(m);
        for strategy in [ExpandStrategy::Intersect, ExpandStrategy::Flatten] {
            let plan = RandomPlanner::new(seed, strategy)
                .optimize(&logical)
                .expect("random plan builds");
            assert_parallel_agrees(&graph, &plan);
        }
    }
}

/// One plan per charge of the communication model, over the pipeline graph:
/// route alignment (an expand from a tag that is not the rows' home), the
/// off-partition targets of a 2-step intersection, a path's crossing hops, a
/// projection that drops the home tag (gather, then realign), and the
/// gathers of a join and of a union.
fn comm_model_plans(g: &PropertyGraph) -> Vec<(&'static str, PhysicalPlan)> {
    use gopt::gir::pattern::{Direction, PathSemantics};
    use gopt::gir::physical::{IntersectStep, PhysicalOp};
    use gopt::gir::types::TypeConstraint;
    use gopt::gir::{AggFunc, Expr, JoinType};
    let vertex = |l: &str| TypeConstraint::basic(g.schema().vertex_label(l).unwrap());
    let edge = |l: &str| TypeConstraint::basic(g.schema().edge_label(l).unwrap());
    let scan = |alias: &str| PhysicalOp::Scan {
        alias: alias.into(),
        constraint: vertex("Person"),
        predicate: None,
    };
    let expand = |src: &str, e: &str, dst: &str, label: &str| PhysicalOp::EdgeExpand {
        src: src.into(),
        edge_alias: None,
        edge_constraint: edge(e),
        direction: Direction::Out,
        dst_alias: dst.into(),
        dst_constraint: vertex(label),
        dst_predicate: None,
        edge_predicate: None,
    };
    let step = |src: &str| IntersectStep {
        src: src.into(),
        edge_constraint: edge("Knows"),
        direction: Direction::Out,
        edge_alias: None,
    };
    let chain = |ops: Vec<PhysicalOp>| {
        let mut plan = PhysicalPlan::new();
        plan.push(scan("a"));
        plan.push(expand("a", "Knows", "b", "Person"));
        for op in ops {
            plan.push(op);
        }
        plan
    };
    let align = chain(vec![expand("a", "Purchases", "p", "Product")]);
    let intersect = chain(vec![PhysicalOp::ExpandIntersect {
        steps: vec![step("a"), step("b")],
        dst_alias: "c".into(),
        dst_constraint: vertex("Person"),
        dst_predicate: None,
    }]);
    let mut path = PhysicalPlan::new();
    path.push(scan("a"));
    path.push(PhysicalOp::PathExpand {
        src: "a".into(),
        dst_alias: "b".into(),
        edge_constraint: edge("Knows"),
        direction: Direction::Out,
        min_hops: 1,
        max_hops: 3,
        semantics: PathSemantics::Arbitrary,
        path_alias: None,
    });
    let drop_home = chain(vec![
        PhysicalOp::Project {
            items: vec![(Expr::tag("a"), "a".into())],
        },
        expand("a", "Knows", "c", "Person"),
    ]);
    let mut gathers = PhysicalPlan::new();
    let l0 = gathers.add(scan("a"), vec![]);
    let l1 = gathers.add(expand("a", "LocatedIn", "c", "Place"), vec![l0]);
    let r0 = gathers.add(scan("a"), vec![]);
    let r1 = gathers.add(expand("a", "Knows", "b", "Person"), vec![r0]);
    let join = PhysicalOp::HashJoin {
        keys: vec!["a".into()],
        kind: JoinType::Inner,
    };
    let j = gathers.add(join, vec![l1, r1]);
    let u0 = gathers.add(scan("a"), vec![]);
    let u1 = gathers.add(expand("a", "Knows", "c", "Person"), vec![u0]);
    let u = gathers.add(PhysicalOp::Union, vec![j, u1]);
    let count = PhysicalOp::HashGroup {
        keys: vec![],
        aggs: vec![(AggFunc::Count, Expr::lit(1), "cnt".into())],
    };
    gathers.add(count, vec![u]);
    vec![
        ("align", align),
        ("intersect", intersect),
        ("path", path),
        ("drop_home", drop_home),
        ("join_union", gathers),
    ]
}

/// `(plan, partitions, partitioner, comm_records, locality_hits)`, taken from
/// the split/route/merge exchange these counters were first measured with.
const PINNED_COMM: &[(&str, usize, &str, u64, u64)] = &[
    ("align", 2, "hash", 180, 0),
    ("align", 2, "greedy", 124, 6),
    ("align", 4, "hash", 234, 0),
    ("align", 4, "greedy", 176, 13),
    ("intersect", 2, "hash", 270, 0),
    ("intersect", 2, "greedy", 84, 12),
    ("intersect", 4, "hash", 270, 0),
    ("intersect", 4, "greedy", 136, 26),
    ("path", 2, "hash", 1170, 0),
    ("path", 2, "greedy", 338, 78),
    ("path", 4, "hash", 1170, 0),
    ("path", 4, "greedy", 598, 104),
    ("drop_home", 2, "hash", 450, 0),
    ("drop_home", 2, "greedy", 152, 24),
    ("drop_home", 4, "hash", 492, 0),
    ("drop_home", 4, "greedy", 298, 32),
    ("join_union", 2, "hash", 283, 0),
    ("join_union", 2, "greedy", 143, 12),
    ("join_union", 4, "hash", 331, 0),
    ("join_union", 4, "greedy", 256, 16),
];

/// The communication model is pinned: exact `comm_records` and
/// `locality_hits` per plan at p{2,4} × {hash, greedy + 4 hubs}, at every
/// thread count and two batch sizes.
#[test]
fn communication_counters_are_pinned() {
    let g = pipeline_plans::pipeline_graph();
    let mut got = Vec::new();
    for (name, plan) in comm_model_plans(&g) {
        let oracle = Engine::new(&g, EngineConfig::default()).execute(&plan);
        for parts in [2usize, 4] {
            for (spec, hubs) in [(PartitionerSpec::Hash, 0), (PartitionerSpec::Greedy, 4)] {
                let sharded = PartitionedGraph::build_with_opts(&g, spec.build(&g, parts), hubs);
                let mut seen = None;
                for &t in &thread_matrix() {
                    for bs in [3usize, 1024] {
                        let res = ParallelEngine::new(&sharded)
                            .with_threads(t)
                            .with_batch_size(bs)
                            .execute(&plan);
                        let at = format!("{name} p={parts} {} t={t} bs={bs}", spec.name());
                        let res = match (&oracle, res) {
                            (Ok(_), Ok(res)) => res,
                            // an armed `exec.operator` fail point: both fail alike
                            (Err(want), Err(e)) => {
                                assert_eq!(*want, e, "errors at {at}");
                                continue;
                            }
                            (o, r) => panic!("{at}: oracle {o:?}, engine {r:?}"),
                        };
                        let counted = (res.stats.comm_records, res.stats.locality_hits);
                        assert_eq!(*seen.get_or_insert(counted), counted, "{at}");
                    }
                }
                if let Some((records, hits)) = seen {
                    got.push((name, parts, spec.name(), records, hits));
                }
            }
        }
    }
    if !got.is_empty() {
        assert_eq!(got, PINNED_COMM, "communication drifted; measured {got:#?}");
    }
}

/// `Scan(Person) → Knows → Knows`: every hop moves rows to the target's
/// shard.
fn two_hop(g: &PropertyGraph) -> PhysicalPlan {
    use gopt::gir::pattern::Direction;
    use gopt::gir::physical::PhysicalOp;
    use gopt::gir::types::TypeConstraint;
    let person = TypeConstraint::basic(g.schema().vertex_label("Person").unwrap());
    let knows = TypeConstraint::basic(g.schema().edge_label("Knows").unwrap());
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person.clone(),
        predicate: None,
    });
    for (src, dst) in [("a", "b"), ("b", "c")] {
        plan.push(PhysicalOp::EdgeExpand {
            src: src.into(),
            edge_alias: None,
            edge_constraint: knows.clone(),
            direction: Direction::Out,
            dst_alias: dst.into(),
            dst_constraint: person.clone(),
            dst_predicate: None,
            edge_predicate: None,
        });
    }
    plan
}

/// `plan` on `sharded` at two threads, rows checked against the scalar
/// oracle; `None` when an armed fail point fails both alike.
fn run_sharded(
    g: &PropertyGraph,
    sharded: &PartitionedGraph,
    plan: &PhysicalPlan,
) -> Option<ExecResult> {
    let got = ParallelEngine::new(sharded).with_threads(2).execute(plan);
    match (Engine::new(g, EngineConfig::default()).execute(plan), got) {
        (Ok(oracle), Ok(got)) => {
            assert_eq!(oracle.rows(), got.rows(), "placement never changes rows");
            Some(got)
        }
        (Err(want), Err(got)) => {
            assert_eq!(want, got);
            None
        }
        (oracle, got) => panic!("oracle {oracle:?}, engine {got:?}"),
    }
}

/// PR 10's locality bar: on a skew-1.2 Zipf graph at p=4, greedy placement
/// with 32 replicated hubs ships at most 70 % of modulo hash's bytes, with
/// identical rows; hub replicas alone already serve crossings locally.
#[test]
fn greedy_placement_with_hubs_ships_at_most_70_percent_of_hash() {
    use gopt::graph::generator::{zipf_graph, ZipfGraphConfig};
    let g = zipf_graph(
        &fig6_schema(),
        &ZipfGraphConfig {
            vertices_per_label: 120,
            edges_per_endpoint: 600,
            skew: 1.2,
            seed: 7,
        },
    );
    let plan = two_hop(&g);
    let run = |spec: PartitionerSpec, hubs| {
        let sharded = PartitionedGraph::build_with_opts(&g, spec.build(&g, 4), hubs);
        run_sharded(&g, &sharded, &plan).map(|r| r.stats)
    };
    let (Some(hash), Some(hash_hubs), Some(greedy_hubs)) = (
        run(PartitionerSpec::Hash, 0),
        run(PartitionerSpec::Hash, 32),
        run(PartitionerSpec::Greedy, 32),
    ) else {
        return;
    };
    assert!(hash.comm_bytes > 0, "the skewed p=4 baseline ships bytes");
    assert!(
        10 * greedy_hubs.comm_bytes <= 7 * hash.comm_bytes,
        "greedy + hubs must cut comm_bytes by >= 30%: {} vs {}",
        greedy_hubs.comm_bytes,
        hash.comm_bytes
    );
    assert!(
        hash_hubs.locality_hits > 0,
        "hub replicas record locality hits"
    );
}

/// One partition ships nothing: zero rows, bytes and hits, and the same rows
/// as four partitions.
#[test]
fn one_partition_ships_nothing() {
    let g = pipeline_plans::pipeline_graph();
    let plan = two_hop(&g);
    let solo = run_sharded(&g, &PartitionedGraph::build(&g, 1), &plan);
    let four = run_sharded(&g, &PartitionedGraph::build(&g, 4), &plan);
    let (Some(solo), Some(four)) = (solo, four) else {
        return;
    };
    let s = &solo.stats;
    assert_eq!((s.comm_records, s.comm_bytes, s.locality_hits), (0, 0, 0));
    assert!(four.stats.comm_records > 0, "p=4 ships rows");
    assert_eq!(solo.rows(), four.rows());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property test: random graph, random plan order — the parallel engine
    /// always agrees with the oracle over the whole partition × thread matrix.
    #[test]
    fn parallel_agrees_on_random_graphs(seed in 0u64..200, edges in 15usize..60) {
        let schema = fig6_schema();
        let graph = random_graph(&schema, &RandomGraphConfig {
            vertices_per_label: 8,
            edges_per_endpoint: edges,
            seed,
        });
        let person = schema.vertex_label("Person").unwrap();
        let knows = schema.edge_label("Knows").unwrap();
        let mut pattern = gopt::gir::Pattern::new();
        let a = pattern.add_vertex_tagged("a", gopt::gir::TypeConstraint::basic(person));
        let b = pattern.add_vertex_tagged("b", gopt::gir::TypeConstraint::basic(person));
        let c = pattern.add_vertex_tagged("c", gopt::gir::TypeConstraint::basic(person));
        pattern.add_edge(a, b, gopt::gir::TypeConstraint::basic(knows));
        pattern.add_edge(b, c, gopt::gir::TypeConstraint::basic(knows));
        let mut builder = gopt::gir::GraphIrBuilder::new();
        let m = builder.match_pattern(pattern);
        let logical = builder.build(m);
        let plan = RandomPlanner::new(seed, ExpandStrategy::Intersect)
            .optimize(&logical)
            .expect("random plan builds");
        assert_parallel_agrees(&graph, &plan);
    }
}
