//! `gopt_server` serving equivalence: N client threads hammering one server
//! with a mixed workload must each receive exactly the rows a solo
//! scalar-oracle run of the same optimized plan produces — bit-identical and
//! in the same order — across partitions {1, 2, 4} × threads {1, 2, 4}, on
//! both a cold plan cache (every client may race to optimize) and a hot one
//! (every plan served from cache).
//!
//! The thread axis can be narrowed from the environment for CI matrix runs:
//! `GOPT_THREADS=1,4` restricts the suite to those thread counts.

use gopt::exec::{Engine, EngineConfig};
use gopt::glogue::{GLogue, GLogueConfig};
use gopt::graph::{PartitionerSpec, PropValue, PropertyGraph};
use gopt::server::{Server, ServerConfig};
use gopt::workloads::{generate_ldbc_graph, qr_queries, qt_queries, LdbcScale, NamedQuery};
use std::sync::Arc;

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

fn fixture() -> (Arc<PropertyGraph>, Arc<GLogue>) {
    let graph = Arc::new(generate_ldbc_graph(&LdbcScale::tiny()));
    let glogue = Arc::new(GLogue::build(
        &graph,
        &GLogueConfig {
            max_pattern_vertices: 3,
            max_anchors: Some(300),
            seed: 3,
        },
    ));
    (graph, glogue)
}

fn workload() -> Vec<NamedQuery> {
    qr_queries().into_iter().chain(qt_queries()).collect()
}

/// Rows of `plan` on the scalar single-machine oracle — the strictest
/// reference: no batching, no partitioning, no worker pool.
fn oracle_rows(graph: &PropertyGraph, plan: &gopt::gir::PhysicalPlan) -> Vec<Vec<PropValue>> {
    Engine::new(graph, EngineConfig::default())
        .execute(plan)
        .expect("oracle executes")
        .rows()
}

/// Submit the whole workload from `clients` concurrent sessions and check
/// every result against `expected` (query name → oracle rows). Returns how
/// many submissions were plan-cache hits.
fn hammer(
    server: &Server,
    queries: &[NamedQuery],
    expected: &[(String, Vec<Vec<PropValue>>)],
    clients: usize,
    tag: &str,
) -> u64 {
    let hits = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..clients {
            let session = server.session();
            let hits = &hits;
            s.spawn(move || {
                // stagger starting points so clients overlap on different
                // queries instead of marching in lockstep
                for i in 0..queries.len() {
                    let q = &queries[(i + c) % queries.len()];
                    let out = session
                        .submit(&q.text)
                        .unwrap_or_else(|e| panic!("{} failed under {tag}: {e}", q.name));
                    if out.cache_hit {
                        hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    let want = &expected
                        .iter()
                        .find(|(name, _)| *name == q.name)
                        .expect("oracle entry")
                        .1;
                    assert_eq!(
                        &out.result.rows(),
                        want,
                        "{} diverges from the scalar oracle under {tag} (client {c})",
                        q.name
                    );
                }
            });
        }
    });
    hits.into_inner()
}

/// The full sweep: for every (partitions, threads) combination, 4 concurrent
/// clients replay the mixed workload twice — once cold (plans optimized under
/// contention), once hot (plans served from cache) — and every single result
/// is bit-identical to the solo scalar-oracle run of the same plan.
#[test]
fn n_clients_get_oracle_identical_rows_cold_and_hot() {
    let (graph, glogue) = fixture();
    let queries = workload();
    const CLIENTS: usize = 4;
    for partitions in [1usize, 2, 4] {
        // placement axis: modulo hash everywhere, plus greedy placement with
        // replicated hubs where placement matters (more than one shard)
        let placements: &[(PartitionerSpec, usize)] = if partitions == 1 {
            &[(PartitionerSpec::Hash, 0)]
        } else {
            &[(PartitionerSpec::Hash, 0), (PartitionerSpec::Greedy, 8)]
        };
        for &(partitioner, replicate_hubs) in placements {
            for &threads in &thread_matrix() {
                let tag = format!(
                    "p={partitions} t={threads} partitioner={}",
                    partitioner.name()
                );
                let server = Server::new(
                    Arc::clone(&graph),
                    Arc::clone(&glogue),
                    ServerConfig {
                        partitions,
                        partitioner,
                        replicate_hubs,
                        threads,
                        max_concurrent: CLIENTS,
                        queue_capacity: 2 * CLIENTS,
                        ..ServerConfig::default()
                    },
                )
                .expect("server");

                // the oracle runs the very plans the server will serve:
                // submit each query once solo, execute its plan on the
                // scalar engine
                let probe = server.session();
                let expected: Vec<(String, Vec<Vec<PropValue>>)> = queries
                    .iter()
                    .map(|q| {
                        let out = probe.submit(&q.text).expect("probe submit");
                        // exec_plan, not plan: the cached plan is generic
                        // (constants parameterized out); the oracle must run
                        // the plan with this query's constants bound back in
                        (q.name.clone(), oracle_rows(&graph, &out.exec_plan))
                    })
                    .collect();
                server.clear_plan_cache();

                // cold: clients race to optimize every shape
                hammer(
                    &server,
                    &queries,
                    &expected,
                    CLIENTS,
                    &format!("{tag} cold"),
                );
                let cold = server.cache_metrics();
                assert_eq!(
                    cold.len,
                    queries.len(),
                    "one cached entry per shape under {tag}"
                );

                // hot: every submission must be served from the cache
                let hits = hammer(&server, &queries, &expected, CLIENTS, &format!("{tag} hot"));
                assert_eq!(
                    hits as usize,
                    CLIENTS * queries.len(),
                    "hot pass missed the cache under {tag}"
                );
                let m = server.admission_metrics();
                assert_eq!(m.running, 0, "permits leaked under {tag}");
                assert_eq!(m.rejected, 0, "spurious overload under {tag}");
            }
        }
    }
}

/// Concurrent cold misses on the same shape converge to one cache entry, and
/// a hot hit serves the identical `Arc`-shared plan to every client.
#[test]
fn racing_clients_share_one_cached_plan_per_shape() {
    let (graph, glogue) = fixture();
    let server = Server::new(graph, glogue, ServerConfig::default()).expect("server");
    let q = &qr_queries()[0];
    let plans: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = server.session();
                let text = q.text.clone();
                s.spawn(move || session.submit(&text).expect("submit").plan)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(server.cache_metrics().len, 1, "one entry for one shape");
    // after the race settles, a fresh submission shares the cached plan
    let cached = server.session().submit(&q.text).expect("submit");
    assert!(cached.cache_hit);
    assert!(
        plans.iter().any(|p| Arc::ptr_eq(p, &cached.plan)),
        "the cached plan is one of the racers' plans"
    );
}
