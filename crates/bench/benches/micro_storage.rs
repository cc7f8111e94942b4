//! Memory-scale storage: compressed adjacency + dictionary strings + graph
//! image (`BENCH_pr8.json`).
//!
//! Three measurements backing the PR 8 acceptance criteria:
//!
//! * **bytes/edge** — heap bytes of the compressed CSR adjacency (`u32`
//!   neighbours, delta-encoded edge ids) and dictionary-encoded string
//!   columns, against the pre-PR8 layout reconstructed from the same data:
//!   24 B `Adj` entries (`{edge_label, edge: u64, neighbor: u64}`) and
//!   per-row `Arc<str>` cells. Asserted ≥35 % smaller after timing.
//! * **cold load vs re-ingest** — `image::load_image_bytes` of a prebuilt
//!   image buffer against rebuilding the same deployment from scratch
//!   (generate + shard + statistics). Asserted ≥5× faster (full-size runs
//!   only; the smoke graph is too small for a stable ratio).
//! * **expand+filter throughput** — the PR 4/PR 7 hot path
//!   (`Scan(Person) → EdgeExpand(Knows) → Select`) on the batched engine,
//!   with an `Int` predicate and a dictionary-`Str` predicate, run on both
//!   the built graph and the image-loaded graph. Rows are asserted identical
//!   after timing, so the loaded graph is proven oracle-equivalent here too.
//!
//! Set `GOPT_BENCH_SMOKE=1` to run the whole file in test mode (tiny graph,
//! minimum samples) — CI uses this to keep the bench and the image format
//! from bit-rotting.

use criterion::{criterion_group, criterion_main, Criterion};
use gopt_bench::Env;
use gopt_exec::{BatchEngine, EngineConfig};
use gopt_gir::expr::{BinOp, Expr};
use gopt_gir::pattern::Direction;
use gopt_gir::physical::{PhysicalOp, PhysicalPlan};
use gopt_gir::types::TypeConstraint;
use gopt_graph::{
    image, CsrAdjacency, GraphStats, PartitionedGraph, PropKeyId, PropertyGraph, TypedColumn,
};
use gopt_workloads::{generate_ldbc_graph, LdbcScale};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("GOPT_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Heap bytes the pre-PR8 adjacency layout would hold for the same entries:
/// a flat `Vec<Adj>` (24 B per entry — `u16` label padded alongside two
/// `u64` ids) plus the identical `u32` per-vertex and per-(vertex, label)
/// offset arrays.
fn baseline_adjacency_bytes(adj: &CsrAdjacency, n_vertices: usize, n_edge_labels: usize) -> usize {
    adj.entry_count() * 24 + (n_vertices + 1) * 4 + (n_vertices * n_edge_labels + 1) * 4
}

/// Current and pre-PR8 heap bytes of every string property column: the
/// dictionary layout (`u32` code per row + sorted unique payloads) against
/// one `Arc<str>` cell per row (16 B fat pointer + that row's own allocation
/// — 16 B refcount header plus payload — as the pre-dictionary ingest
/// allocated per inserted value), with the same validity bitmap on both
/// sides.
fn string_column_bytes(graph: &PropertyGraph) -> (usize, usize) {
    let (mut current, mut baseline) = (0usize, 0usize);
    let mut tally = |col: Option<&TypedColumn>| {
        if let Some(sc) = col.and_then(TypedColumn::strs) {
            current += sc.heap_bytes();
            baseline += sc.len() * std::mem::size_of::<std::sync::Arc<str>>()
                + (0..sc.len())
                    .filter_map(|row| sc.value(row).map(|s| 16 + s.len()))
                    .sum::<usize>()
                + sc.validity().heap_bytes();
        }
    };
    let keys = graph.prop_key_count();
    for label in graph.schema().vertex_label_ids().collect::<Vec<_>>() {
        for key in 0..keys {
            tally(graph.vertex_prop_column(label, PropKeyId(key as u16)));
        }
    }
    for label in graph.schema().edge_label_ids().collect::<Vec<_>>() {
        for key in 0..keys {
            tally(graph.edge_prop_column(label, PropKeyId(key as u16)));
        }
    }
    (current, baseline)
}

/// `Scan(Person) → EdgeExpand(Knows) → Select(pred)`.
fn expand_filter_plan(graph: &PropertyGraph, predicate: Expr) -> PhysicalPlan {
    let person = TypeConstraint::basic(graph.schema().vertex_label("Person").unwrap());
    let knows = TypeConstraint::basic(graph.schema().edge_label("Knows").unwrap());
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

/// Best-of-`n` wall time of `f`.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(f());
        best = best.min(t.elapsed());
    }
    (best, last.unwrap())
}

fn bench_storage(c: &mut Criterion) {
    let persons = if smoke() { 120 } else { 2000 };
    let scale = LdbcScale { persons, seed: 42 };
    let env = Env::ldbc("G-storage", persons);
    let g = &env.graph;
    let partitions = 4;
    let pg = PartitionedGraph::build(g, partitions);
    let bytes = image::image_bytes(g, &pg, &env.stats);

    // ---- bytes/edge accounting (no timing involved) -------------------
    let n_edge_labels = g.schema().edge_label_ids().count();
    let adj_now = g.out_adjacency().heap_bytes() + g.in_adjacency().heap_bytes();
    let adj_then = baseline_adjacency_bytes(g.out_adjacency(), g.vertex_count(), n_edge_labels)
        + baseline_adjacency_bytes(g.in_adjacency(), g.vertex_count(), n_edge_labels);
    let (str_now, str_then) = string_column_bytes(g);
    let (now, then) = (adj_now + str_now, adj_then + str_then);
    let per_edge = |b: usize| b as f64 / g.edge_count() as f64;
    let reduction = 1.0 - now as f64 / then as f64;
    println!(
        "bytes/edge (adjacency + string columns): {:.1} vs {:.1} pre-PR8 ({:.1}% smaller); \
         adjacency {adj_now} vs {adj_then} B, strings {str_now} vs {str_then} B, \
         image {} B total",
        per_edge(now),
        per_edge(then),
        reduction * 100.0,
        bytes.len(),
    );

    // ---- cold load vs re-ingest ---------------------------------------
    c.bench_function("image_cold_load", |b| {
        b.iter(|| std::hint::black_box(image::load_image_bytes(&bytes).expect("load image")))
    });
    c.bench_function("reingest_graph", |b| {
        b.iter(|| {
            let g2 = generate_ldbc_graph(&scale);
            let pg2 = PartitionedGraph::build(&g2, partitions);
            std::hint::black_box((GraphStats::from_graph(&g2), pg2))
        })
    });
    let rounds = if smoke() { 1 } else { 5 };
    let (load_t, loaded) = best_of(rounds, || image::load_image_bytes(&bytes).expect("load"));
    let (ingest_t, _) = best_of(rounds, || {
        let g2 = generate_ldbc_graph(&scale);
        let pg2 = PartitionedGraph::build(&g2, partitions);
        (GraphStats::from_graph(&g2), pg2)
    });
    let speedup = ingest_t.as_secs_f64() / load_t.as_secs_f64();
    println!(
        "cold load {:?} vs re-ingest {:?} ({speedup:.1}x faster)",
        load_t, ingest_t
    );

    // ---- expand+filter throughput, built vs image-loaded --------------
    // Person creationDate is 10_000 + i*13 % 5000, so < 11_000 keeps ~20 %
    let int_pred = Expr::binary(
        BinOp::Lt,
        Expr::prop("b", "creationDate"),
        Expr::lit(11_000),
    );
    let str_pred = Expr::binary(BinOp::Lt, Expr::prop("b", "firstName"), Expr::lit("Karl"));
    let int_plan = expand_filter_plan(g, int_pred);
    let str_plan = expand_filter_plan(g, str_pred);
    let lg = &loaded.graph;
    c.bench_function("expand_filter_int", |b| {
        b.iter(|| {
            std::hint::black_box(
                BatchEngine::new(g, EngineConfig::default())
                    .execute(&int_plan)
                    .unwrap(),
            )
        })
    });
    c.bench_function("expand_filter_str_dict", |b| {
        b.iter(|| {
            std::hint::black_box(
                BatchEngine::new(g, EngineConfig::default())
                    .execute(&str_plan)
                    .unwrap(),
            )
        })
    });
    c.bench_function("expand_filter_str_dict_loaded", |b| {
        b.iter(|| {
            std::hint::black_box(
                BatchEngine::new(lg, EngineConfig::default())
                    .execute(&str_plan)
                    .unwrap(),
            )
        })
    });

    // ---- sanity after timing ------------------------------------------
    assert!(
        reduction >= 0.35,
        "adjacency + string columns must shrink >=35% vs the pre-PR8 layout, got {:.1}%",
        reduction * 100.0
    );
    if !smoke() {
        assert!(
            speedup >= 5.0,
            "cold image load must be >=5x faster than re-ingesting, got {speedup:.1}x"
        );
    }
    assert_eq!(loaded.graph.vertex_count(), g.vertex_count());
    assert_eq!(loaded.graph.edge_count(), g.edge_count());
    assert_eq!(*loaded.stats, *env.stats, "image statistics round-trip");
    for (name, plan) in [("int", &int_plan), ("str", &str_plan)] {
        let built = BatchEngine::new(g, EngineConfig::default())
            .execute(plan)
            .unwrap()
            .len();
        let booted = BatchEngine::new(lg, EngineConfig::default())
            .execute(plan)
            .unwrap()
            .len();
        assert_eq!(built, booted, "{name} plan diverges on the loaded graph");
        println!("expand_filter_{name}: {built} rows (built == image-loaded)");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_storage
}
criterion_main!(benches);
