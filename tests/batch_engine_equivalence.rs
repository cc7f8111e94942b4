//! Scalar oracle vs morsel engine on realistic plans: every workload query the
//! repository ships, optimized by GOpt for both backend specs, plus randomized
//! plan orders over random graphs and dictionary-string plans, must produce the
//! scalar `Engine`'s rows (in the same order), tags, record statistics and
//! errors on both backends' interpreter. Each plan runs through
//! `SingleMachineBackend`, on the `ParallelEngine` over the monolithic graph
//! at several batch sizes (no placement, so nothing is charged), and, where a
//! case names a partition count, through `PartitionedBackend` and the engine
//! over that many shards.
//!
//! The operator-level suite lives in `crates/exec/tests/batch_ops.rs`; the
//! full partition × thread × placement matrix in `tests/parallel_equivalence.rs`.

use gopt::core::{ExpandStrategy, GOpt, GOptConfig, GraphScopeSpec, Neo4jSpec, RandomPlanner};
use gopt::exec::{
    Backend, Engine, EngineConfig, ParallelEngine, PartitionedBackend, SingleMachineBackend,
};
use gopt::gir::PhysicalPlan;
use gopt::glogue::{GLogue, GLogueConfig, GlogueQuery};
use gopt::graph::generator::{random_graph, RandomGraphConfig};
use gopt::graph::schema::fig6_schema;
use gopt::graph::{PartitionedGraph, PropertyGraph};
use gopt::parser::{parse_cypher, parse_gremlin};
use gopt::workloads::{
    generate_ldbc_graph, ic_queries, qc_queries, qr_gremlin_queries, qt_queries, LdbcScale,
};
use proptest::prelude::*;

#[allow(dead_code)]
#[path = "common/pipeline_plans.rs"]
mod pipeline_plans;

const BATCH_SIZES: [usize; 2] = [7, 1024];

const RECORD_LIMIT: u64 = 3_000_000;

fn assert_engines_agree(g: &PropertyGraph, plan: &PhysicalPlan, partitions: Option<usize>) {
    let config = EngineConfig {
        record_limit: Some(RECORD_LIMIT),
    };
    let oracle = Engine::new(g, config).execute(plan);
    let single = SingleMachineBackend::with_record_limit(RECORD_LIMIT).execute(g, plan);
    if let Some(r) = pipeline_plans::check(&oracle, &single, "single-machine backend") {
        assert_ships_nothing(r, "single-machine backend");
    }
    for batch_size in BATCH_SIZES {
        let at = format!("monolithic bs={batch_size}");
        let got = ParallelEngine::new(g)
            .with_batch_size(batch_size)
            .with_record_limit(Some(RECORD_LIMIT))
            .execute(plan);
        if let Some(r) = pipeline_plans::check(&oracle, &got, &at) {
            assert_ships_nothing(r, &at);
        }
    }
    let Some(parts) = partitions else { return };
    let backend = PartitionedBackend::new(parts)
        .expect("at least one partition")
        .with_record_limit(RECORD_LIMIT);
    let got = backend.execute(g, plan);
    pipeline_plans::check(&oracle, &got, &format!("partitioned backend p={parts}"));
    let sharded = PartitionedGraph::build(g, parts);
    for batch_size in BATCH_SIZES {
        let at = format!("p={parts} bs={batch_size}");
        let got = ParallelEngine::new(&sharded)
            .with_batch_size(batch_size)
            .with_record_limit(Some(RECORD_LIMIT))
            .execute(plan);
        if let Some(r) = pipeline_plans::check(&oracle, &got, &at) {
            if parts == 1 {
                assert_ships_nothing(r, &at);
            }
        }
    }
}

/// With no placement, or one partition, no row crosses a boundary.
fn assert_ships_nothing(r: &gopt::exec::ExecResult, at: &str) {
    let s = &r.stats;
    assert_eq!(
        (s.comm_records, s.comm_bytes, s.locality_hits),
        (0, 0, 0),
        "communication charged at {at}"
    );
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

/// Every shipped workload query, planned by GOpt for both backend specs, executes
/// identically on the oracle and on both backends' engine.
#[test]
fn workload_plans_agree_on_both_engines() {
    let (graph, glogue) = ldbc_env();
    let gq = GlogueQuery::new(&glogue);
    let queries = qc_queries()
        .into_iter()
        .chain(ic_queries())
        .chain(qt_queries())
        .chain(qr_gremlin_queries())
        .collect::<Vec<_>>();
    let mut planned = 0usize;
    // alternate backend spec and partitioning across queries instead of running
    // the full cross product — every combination is still covered many times
    // over the query set, at a quarter of the wall-clock cost
    for (qi, q) in queries.iter().enumerate() {
        let logical = match parse_cypher(&q.text, graph.schema()) {
            Ok(l) => l,
            Err(_) => match parse_gremlin(&q.text, graph.schema()) {
                Ok(l) => l,
                Err(_) => continue,
            },
        };
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
        let parts = if qi % 3 == 0 { Some(4) } else { None };
        assert_engines_agree(&graph, &plan, parts);
    }
    assert!(
        planned >= 8,
        "expected to replay at least 8 optimized workload plans, got {planned}"
    );
}

/// Randomized (but valid) plan orders over random graphs with both expansion
/// strategies.
#[test]
fn random_plan_orders_agree_on_both_engines() {
    let schema = fig6_schema();
    for seed in 0..6u64 {
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
            assert_engines_agree(&graph, &plan, None);
            assert_engines_agree(&graph, &plan, Some(3));
        }
    }
}

/// String-heavy plans over dictionary-encoded `Str` columns: equality and
/// range predicates (now rank comparisons over `u32` codes), `HashGroup` on
/// `Str` keys and `OrderLimit` on `Str` keys (now covered by the packed-key
/// fast paths for short strings). Strings are chosen to hit every packing
/// regime: short (≤8 bytes, packable), long (>8 bytes, row-wise fallback),
/// sharing an 8-byte prefix (the prefix key alone cannot distinguish them),
/// and absent (null bitmap).
#[test]
fn string_heavy_plans_agree_on_both_engines() {
    use gopt::gir::expr::{AggFunc, BinOp, Expr, SortDir};
    use gopt::gir::physical::PhysicalOp;
    use gopt::gir::TypeConstraint;
    use gopt::graph::{GraphBuilder, PropValue};

    let cities = [
        "Oslo",             // short: packs into the prefix key
        "Rio",              // short
        "Konstantinopel",   // long: > 8 bytes, packed path bails
        "Konstanz",         // exactly 8 bytes, still packable
        "Konstanz\u{0131}", // > 8 bytes sharing an 8-byte prefix
        "",                 // empty string is a valid dict entry
    ];
    let mut b = GraphBuilder::new(fig6_schema());
    let mut persons = Vec::new();
    for i in 0..24i64 {
        let mut props = vec![("age", PropValue::Int(20 + (i % 7)))];
        if i % 5 != 0 {
            // dictionary column with repeats and a null every 5th row
            props.push(("city", PropValue::str(cities[i as usize % cities.len()])));
        }
        props.push(("nick", PropValue::str(format!("person_{:02}", i % 9))));
        persons.push(b.add_vertex_by_name("Person", props).unwrap());
    }
    for w in persons.windows(2) {
        b.add_edge_by_name("Knows", w[0], w[1], vec![]).unwrap();
    }
    let graph = b.finish();
    let person = TypeConstraint::basic(graph.schema().vertex_label("Person").unwrap());
    let knows = TypeConstraint::basic(graph.schema().edge_label("Knows").unwrap());

    let predicates: Vec<Expr> = vec![
        // equality → code == rank, including a long needle
        Expr::prop_eq("b", "city", "Oslo"),
        Expr::prop_eq("b", "city", "Konstantinopel"),
        // needle absent from the dictionary: rank exists, exact = false
        Expr::prop_eq("b", "city", "Paris"),
        // range predicates → code < / >= rank under dictionary order
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
        // prefix-sharing pair must order correctly beyond 8 bytes
        Expr::binary(
            BinOp::Gt,
            Expr::prop("b", "city"),
            Expr::lit(PropValue::str("Konstanz\u{0130}")),
        ),
        Expr::prop_eq("b", "city", ""),
        // Str column vs Int literal: cross-kind constant ordering
        Expr::binary(BinOp::Gt, Expr::prop("b", "city"), Expr::lit(5)),
    ];
    let mut plans = Vec::new();
    for predicate in predicates {
        let mut plan = base_expand_plan(&person, &knows);
        plan.push(PhysicalOp::Select { predicate });
        plan.push(PhysicalOp::Project {
            items: vec![(Expr::prop("b", "city"), "city".into())],
        });
        plans.push(plan);
    }
    // HashGroup on a Str key (packed fast path) + a long-string key column
    let mut group = base_expand_plan(&person, &knows);
    group.push(PhysicalOp::HashGroup {
        keys: vec![(Expr::prop("b", "city"), "city".into())],
        aggs: vec![
            (AggFunc::Count, Expr::tag("b"), "n".into()),
            (AggFunc::Min, Expr::prop("b", "nick"), "first_nick".into()),
        ],
    });
    plans.push(group);
    // grouping on a >8-byte-heavy key column forces the row-wise path
    let mut group_long = base_expand_plan(&person, &knows);
    group_long.push(PhysicalOp::HashGroup {
        keys: vec![(Expr::prop("b", "nick"), "nick".into())],
        aggs: vec![(AggFunc::Count, Expr::tag("b"), "n".into())],
    });
    plans.push(group_long);
    // OrderLimit on Str keys, both directions, with and without top-k
    for (dir, limit) in [(SortDir::Asc, None), (SortDir::Desc, Some(7))] {
        let mut order = base_expand_plan(&person, &knows);
        order.push(PhysicalOp::Project {
            items: vec![
                (Expr::prop("b", "city"), "city".into()),
                (Expr::prop("b", "age"), "age".into()),
            ],
        });
        order.push(PhysicalOp::OrderLimit {
            keys: vec![
                (Expr::prop("b", "city"), dir),
                (Expr::prop("b", "age"), SortDir::Asc),
            ],
            limit,
        });
        plans.push(order);
    }
    // Dedup on a Str key
    let mut dedup = base_expand_plan(&person, &knows);
    dedup.push(PhysicalOp::Project {
        items: vec![(Expr::prop("b", "city"), "city".into())],
    });
    dedup.push(PhysicalOp::Dedup {
        keys: vec![Expr::tag("city")],
    });
    plans.push(dedup);

    for plan in &plans {
        for parts in [1usize, 2, 4] {
            assert_engines_agree(&graph, plan, Some(parts));
        }
    }
}

fn base_expand_plan(
    person: &gopt::gir::TypeConstraint,
    knows: &gopt::gir::TypeConstraint,
) -> gopt::gir::physical::PhysicalPlan {
    use gopt::gir::pattern::Direction;
    use gopt::gir::physical::{PhysicalOp, PhysicalPlan};
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person.clone(),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: Some("e".into()),
        edge_constraint: knows.clone(),
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person.clone(),
        dst_predicate: None,
        edge_predicate: None,
    });
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property test: random graph, random plan order, random partition count —
    /// the oracle and the engine always agree.
    #[test]
    fn engines_agree_on_random_graphs(seed in 0u64..200, edges in 15usize..60, parts in 1usize..5) {
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
        assert_engines_agree(&graph, &plan, Some(parts));
    }
}
