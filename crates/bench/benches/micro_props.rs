//! Typed vs boxed property-predicate evaluation (`BENCH_pr4.json`).
//!
//! Measures the PR 4 hot path in isolation: a dense `creationDate` filter
//! over the rows produced by `Scan(Person) → EdgeExpand(Knows)` on an
//! LDBC-like graph, evaluated three ways over the **same** prepared batches:
//!
//! * `boxed_rowwise_filter` — the pre-PR4 inner loop: per row, walk the
//!   compiled expression, materialise the property as an owned `PropValue`
//!   and dispatch `BinOp::apply` on the enum pair;
//! * `typed_kernel_filter` — `relational::select_batches`, whose typed
//!   kernel resolves the property's `TypedColumn` value slice once and
//!   compares `i64`s directly (zero `PropValue` clones or constructions on
//!   the hot path);
//! * `typed_kernel_conjunction` — the same with an AND of two typed leaves
//!   (bitmap-style truth-vector combining).
//!
//! `row_oracle_filter` / `batched_engine_filter` run the full plan on the
//! scalar and batched engines for end-to-end context. The selections of the
//! boxed and typed paths are asserted identical after the timed runs.
//!
//! Set `GOPT_BENCH_SMOKE=1` to run the whole file in test mode (tiny graph,
//! minimum samples) — CI uses this to keep the bench from bit-rotting.

use criterion::{criterion_group, criterion_main, Criterion};
use gopt_bench::Env;
use gopt_exec::{
    relational, BatchEngine, BatchRow, CompiledExpr, Engine, EngineConfig, RecordBatch, TagMap,
};
use gopt_gir::expr::{BinOp, Expr};
use gopt_gir::pattern::Direction;
use gopt_gir::physical::{PhysicalOp, PhysicalPlan};
use gopt_gir::types::TypeConstraint;

fn smoke() -> bool {
    std::env::var("GOPT_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn bench_props(c: &mut Criterion) {
    let persons = if smoke() { 120 } else { 2000 };
    let env = Env::ldbc("G-props", persons);
    let g = &env.graph;
    let person = TypeConstraint::basic(g.schema().vertex_label("Person").unwrap());
    let knows = TypeConstraint::basic(g.schema().edge_label("Knows").unwrap());

    // the filter input: all (a)-[Knows]->(b) rows, prepared once as batches
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
        dst_constraint: person.clone(),
        dst_predicate: None,
        edge_predicate: None,
    });
    let expand_rows = Engine::new(g, EngineConfig::default())
        .execute(&plan)
        .unwrap();
    let tags: TagMap = expand_rows.tags.clone();
    let batches: Vec<RecordBatch> = expand_rows
        .records()
        .chunks(1024)
        .map(|chunk| RecordBatch::from_records(chunk, tags.len()))
        .collect();

    // dense Int creationDate: every Person carries it
    let pred = Expr::binary(BinOp::Lt, Expr::prop("b", "creationDate"), Expr::lit(8000));
    let conj = pred.clone().and(Expr::binary(
        BinOp::Ge,
        Expr::prop("b", "creationDate"),
        Expr::lit(100),
    ));

    // the pre-PR4 inner loop: compiled row-wise evaluation over the batches
    let compiled = CompiledExpr::compile(&pred, &tags, g);
    c.bench_function("boxed_rowwise_filter", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for batch in &batches {
                for row in 0..batch.rows() {
                    if compiled.eval_predicate(&BatchRow {
                        graph: g,
                        batch,
                        row,
                        overrides: &[],
                    }) {
                        kept += 1;
                    }
                }
            }
            std::hint::black_box(kept)
        })
    });

    c.bench_function("typed_kernel_filter", |b| {
        b.iter(|| std::hint::black_box(relational::select_batches(g, &batches, &tags, &pred, 1024)))
    });
    c.bench_function("typed_kernel_conjunction", |b| {
        b.iter(|| std::hint::black_box(relational::select_batches(g, &batches, &tags, &conj, 1024)))
    });

    // end-to-end context: the full scan→expand→select plan on both engines
    plan.push(PhysicalOp::Select {
        predicate: pred.clone(),
    });
    c.bench_function("row_oracle_filter", |b| {
        b.iter(|| {
            std::hint::black_box(
                Engine::new(g, EngineConfig::default())
                    .execute(&plan)
                    .unwrap(),
            )
        })
    });
    c.bench_function("batched_engine_filter", |b| {
        b.iter(|| {
            std::hint::black_box(
                BatchEngine::new(g, EngineConfig::default())
                    .execute(&plan)
                    .unwrap(),
            )
        })
    });

    // sanity after timing: both paths keep exactly the same rows
    let typed_kept: usize = relational::select_batches(g, &batches, &tags, &pred, 1024)
        .iter()
        .map(|b| b.rows())
        .sum();
    let boxed_kept: usize = batches
        .iter()
        .map(|batch| {
            (0..batch.rows())
                .filter(|&row| {
                    compiled.eval_predicate(&BatchRow {
                        graph: g,
                        batch,
                        row,
                        overrides: &[],
                    })
                })
                .count()
        })
        .sum();
    assert_eq!(typed_kept, boxed_kept, "typed kernel must match the oracle");
    let total: usize = batches.iter().map(|b| b.rows()).sum();
    println!("creationDate filter: {typed_kept}/{total} rows kept (typed == boxed)");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_props
}
criterion_main!(benches);
