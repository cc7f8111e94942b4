//! Prints every stage of one query's life: query text → logical GIR plan → rule-based
//! optimization → cost-based physical plan (for both backend specs) → morsel-driven
//! execution on both backends. `docs/PLAN_LIFECYCLE.md` walks through this output; run
//! `cargo run --example plan_lifecycle` to regenerate it.

use gopt::core::{GOpt, GOptConfig, GraphScopeSpec, Neo4jSpec};
use gopt::exec::{Backend, PartitionedBackend, PartitionerSpec, SingleMachineBackend};
use gopt::gir::types::TypeConstraint;
use gopt::gir::Expr;
use gopt::glogue::{
    ConstSelectivity, GLogue, GLogueConfig, GlogueQuery, SelectivityEstimator, StatsSelectivity,
    DEFAULT_SELECTIVITY,
};
use gopt::graph::GraphStats;
use gopt::parser::{parse_cypher, parse_gremlin};
use gopt::workloads::{generate_ldbc_graph, LdbcScale};

fn main() {
    let cypher = "MATCH (p:Person)-[:Knows]->(f:Person)-[:IsLocatedIn]->(c:Place) \
         WHERE c.name = 'China' \
         RETURN p.firstName AS name, count(f) AS friends ORDER BY friends DESC LIMIT 5";
    let gremlin = "g.V().hasLabel('Person').as('p').out('Knows').as('f')\
                   .out('IsLocatedIn').as('c').has('name', 'China').count()";

    println!("== 1. The query (Cypher) ==\n{cypher}\n");

    let graph = generate_ldbc_graph(&LdbcScale {
        persons: 150,
        seed: 42,
    });
    println!(
        "== 2. The data graph ==\nLDBC-like generated graph: {} vertices, {} edges\n",
        graph.vertex_count(),
        graph.edge_count()
    );

    let logical = parse_cypher(cypher, graph.schema()).expect("query parses");
    println!(
        "== 3. Logical GIR plan (parser output) ==\n{}",
        logical.explain()
    );

    let glogue = GLogue::build(
        &graph,
        &GLogueConfig {
            max_pattern_vertices: 3,
            max_anchors: Some(500),
            seed: 9,
        },
    );
    let gq = GlogueQuery::new(&glogue);
    let stats = GraphStats::shared(&graph);

    let gopt_gs = GOpt::new(graph.schema(), &gq, &GraphScopeSpec)
        .with_stats(stats.clone())
        .with_config(GOptConfig::default());
    let after_rbo = gopt_gs.optimize_logical(&logical).expect("RBO succeeds");
    println!(
        "== 4. After rule-based optimization (RBO) ==\n{}",
        after_rbo.explain()
    );

    // the pushed-down filter is priced by the typed property statistics (PR 5)
    // instead of the paper's Remark 7.1 constant
    let place = TypeConstraint::basic(graph.schema().vertex_label("Place").unwrap());
    let filter = Expr::prop_eq("c", "name", "China");
    let sel = StatsSelectivity::new(stats.clone());
    let est = sel.vertex_predicate(&place, &filter);
    println!("== 4b. Filter selectivity from property statistics ==");
    println!(
        "predicate {filter} on (c:Place): histogram/value-map selectivity = {} \
         (Remark 7.1 constant would be {DEFAULT_SELECTIVITY}); \
         without stats the estimator falls back: {:?}",
        est.map_or("uncovered".to_string(), |s| format!("{s:.4}")),
        ConstSelectivity.vertex_predicate(&place, &filter),
    );
    let name_stats = stats
        .props
        .vertex_stats(graph.schema().vertex_label("Place").unwrap(), "name")
        .expect("Place.name has statistics");
    println!(
        "Place.name column stats: {} non-null values, ~{:.0} distinct, complete value map: {}\n",
        name_stats.non_null,
        name_stats.ndv_estimate(),
        matches!(
            name_stats.detail,
            gopt::graph::ColumnDetail::Values(Some(_))
        ),
    );

    let plan_gs = gopt_gs.optimize(&logical).expect("optimization succeeds");
    println!(
        "== 5a. Physical plan, GraphScope spec (partitioned backend, stats-driven CBO) ==\n{}",
        plan_gs.encode()
    );
    let gopt_neo = GOpt::new(graph.schema(), &gq, &Neo4jSpec)
        .with_stats(stats.clone())
        .with_config(GOptConfig::default());
    let plan_neo = gopt_neo.optimize(&logical).expect("optimization succeeds");
    println!(
        "== 5b. Physical plan, Neo4j spec (single-machine backend, stats-driven CBO) ==\n{}",
        plan_neo.encode()
    );

    println!("== 6. Morsel-driven execution ==");
    let single = SingleMachineBackend::new();
    let result = single.execute(&graph, &plan_neo).expect("executes");
    println!(
        "single-machine (1 thread, 1024-row morsels): {} result rows, {} intermediate records, \
         {} comm, {}us",
        result.len(),
        result.stats.intermediate_records,
        result.stats.comm_records,
        result.stats.elapsed_micros
    );
    for row in result.rows_for(&["name", "friends"]).iter().take(5) {
        println!("  {row:?}");
    }
    let parted = PartitionedBackend::new(8).expect("non-zero partitions");
    let result = parted.execute(&graph, &plan_gs).expect("executes");
    println!(
        "partitioned x8 (hash):                       {} result rows, {} intermediate records, \
         {} comm records / {} comm bytes, {}us",
        result.len(),
        result.stats.intermediate_records,
        result.stats.comm_records,
        result.stats.comm_bytes,
        result.stats.elapsed_micros
    );
    let greedy = PartitionedBackend::new(8)
        .expect("non-zero partitions")
        .with_partitioner(PartitionerSpec::Greedy)
        .with_hub_replication(16);
    let result_g = greedy.execute(&graph, &plan_gs).expect("executes");
    println!(
        "partitioned x8 (greedy + 16 hubs):           {} result rows, {} comm records / {} comm \
         bytes, {} locality hits, {} replicated bytes, {}us",
        result_g.len(),
        result_g.stats.comm_records,
        result_g.stats.comm_bytes,
        result_g.stats.locality_hits,
        result_g.stats.replicated_bytes,
        result_g.stats.elapsed_micros
    );

    // the same pattern arrives identically from Gremlin
    let logical_g = parse_gremlin(gremlin, graph.schema()).expect("gremlin parses");
    let plan_g = gopt_gs.optimize(&logical_g).expect("optimizes");
    let res_g = parted.execute(&graph, &plan_g).expect("executes");
    println!(
        "\n== 7. Same pattern from Gremlin ==\n{gremlin}\n-> {} row(s): {:?}",
        res_g.len(),
        res_g.rows()
    );
}
