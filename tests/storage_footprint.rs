//! Storage invariants on a smoke-size LDBC-like graph: the compressed
//! adjacency plus dictionary-encoded string columns stay at least 35 %
//! smaller than the uncompressed layout they replaced, and a graph loaded
//! back from its binary image answers expand + filter plans with the rows of
//! the graph it was written from.

use gopt::exec::{Backend, SingleMachineBackend};
use gopt::gir::expr::{BinOp, Expr};
use gopt::gir::pattern::Direction;
use gopt::gir::physical::{PhysicalOp, PhysicalPlan};
use gopt::gir::types::TypeConstraint;
use gopt::graph::{
    image, CsrAdjacency, GraphStats, PartitionedGraph, PropKeyId, PropertyGraph, TypedColumn,
};
use gopt::workloads::{generate_ldbc_graph, LdbcScale};

fn smoke_graph() -> PropertyGraph {
    generate_ldbc_graph(&LdbcScale {
        persons: 120,
        seed: 42,
    })
}

/// Heap bytes of the uncompressed adjacency layout for the same entries: a
/// flat `Vec<Adj>` (24 B per entry — a `u16` label padded beside two `u64`
/// ids) plus the same `u32` per-vertex and per-(vertex, label) offsets.
fn uncompressed_adjacency_bytes(adj: &CsrAdjacency, vertices: usize, edge_labels: usize) -> usize {
    adj.entry_count() * 24 + (vertices + 1) * 4 + (vertices * edge_labels + 1) * 4
}

/// Heap bytes of every string property column, dictionary-encoded (a `u32`
/// code per row plus the sorted unique payloads) and as one `Arc<str>` cell
/// per row (a 16 B fat pointer plus that row's own allocation: a 16 B
/// reference-count header and the payload), with the same validity bitmap.
fn string_column_bytes(graph: &PropertyGraph) -> (usize, usize) {
    let (mut encoded, mut per_row) = (0usize, 0usize);
    let mut tally = |col: Option<&TypedColumn>| {
        if let Some(sc) = col.and_then(TypedColumn::strs) {
            encoded += sc.heap_bytes();
            per_row += sc.len() * std::mem::size_of::<std::sync::Arc<str>>()
                + (0..sc.len())
                    .filter_map(|row| sc.value(row).map(|s| 16 + s.len()))
                    .sum::<usize>()
                + sc.validity().heap_bytes();
        }
    };
    let keys = (0..graph.prop_key_count()).map(|k| PropKeyId(k as u16));
    for key in keys {
        for label in graph.schema().vertex_label_ids() {
            tally(graph.vertex_prop_column(label, key));
        }
        for label in graph.schema().edge_label_ids() {
            tally(graph.edge_prop_column(label, key));
        }
    }
    (encoded, per_row)
}

#[test]
fn compressed_storage_needs_at_least_35_percent_fewer_bytes_per_edge() {
    let g = smoke_graph();
    let labels = g.schema().edge_label_ids().count();
    let adjacency = g.out_adjacency().heap_bytes() + g.in_adjacency().heap_bytes();
    let uncompressed = uncompressed_adjacency_bytes(g.out_adjacency(), g.vertex_count(), labels)
        + uncompressed_adjacency_bytes(g.in_adjacency(), g.vertex_count(), labels);
    let (strings, per_row_strings) = string_column_bytes(&g);
    let (now, before) = (adjacency + strings, uncompressed + per_row_strings);
    assert!(
        100 * now <= 65 * before,
        "adjacency + string columns: {now} B against {before} B uncompressed, \
         less than a 35 % saving over {} edges",
        g.edge_count()
    );
}

/// `Scan(Person) → EdgeExpand(Knows) → Select(predicate)`.
fn expand_filter(g: &PropertyGraph, predicate: Expr) -> PhysicalPlan {
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
        edge_alias: None,
        edge_constraint: knows,
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person,
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::Select { predicate });
    plan
}

#[test]
fn image_loaded_graph_answers_like_the_built_graph() {
    let g = smoke_graph();
    let stats = GraphStats::from_graph(&g);
    let bytes = image::image_bytes(&g, &PartitionedGraph::build(&g, 4), &stats);
    let loaded = image::load_image_bytes(&bytes).expect("the image loads");
    assert_eq!(loaded.graph.vertex_count(), g.vertex_count());
    assert_eq!(loaded.graph.edge_count(), g.edge_count());
    assert_eq!(*loaded.stats, stats, "statistics round-trip");
    // an Int predicate and a dictionary-string predicate
    let predicates = [
        Expr::binary(
            BinOp::Lt,
            Expr::prop("b", "creationDate"),
            Expr::lit(11_000),
        ),
        Expr::binary(BinOp::Lt, Expr::prop("b", "firstName"), Expr::lit("Karl")),
    ];
    let backend = SingleMachineBackend::new();
    for predicate in predicates {
        let plan = expand_filter(&g, predicate);
        let built = backend.execute(&g, &plan).expect("built graph").rows();
        let booted = backend
            .execute(&loaded.graph, &plan)
            .expect("loaded graph")
            .rows();
        assert!(!built.is_empty(), "the filter keeps rows");
        assert_eq!(built, booted, "the loaded graph diverges");
    }
}
