//! `gopt_server` boot-from-image equivalence: a [`Server`] booted from a
//! binary graph image must answer every workload query with exactly the rows
//! of (a) a server built in-process over the same graph and (b) the scalar
//! single-machine oracle. Also covers the runtime swap path
//! ([`Server::load_image`]): loading an image must bump the statistics
//! version so no plan optimized for the previous graph is ever served from
//! the cache.

use gopt::exec::{Engine, EngineConfig};
use gopt::glogue::{GLogue, GLogueConfig};
use gopt::graph::stats::GraphStats;
use gopt::graph::{image, PartitionedGraph, PropertyGraph};
use gopt::server::{Server, ServerConfig, ServerError};
use gopt::workloads::{generate_ldbc_graph, qr_queries, qt_queries, LdbcScale, NamedQuery};
use std::path::PathBuf;
use std::sync::Arc;

const GLOGUE_CFG: GLogueConfig = GLogueConfig {
    max_pattern_vertices: 3,
    max_anchors: Some(300),
    seed: 3,
};

fn workload() -> Vec<NamedQuery> {
    qr_queries().into_iter().chain(qt_queries()).collect()
}

fn temp_image(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gopt_{name}_{}.img", std::process::id()))
}

/// Write the tiny LDBC graph to an image at `partitions` shards.
fn write_fixture_image(path: &std::path::Path, partitions: usize) -> Arc<PropertyGraph> {
    let graph = Arc::new(generate_ldbc_graph(&LdbcScale::tiny()));
    let pg = PartitionedGraph::build(&graph, partitions);
    let stats = GraphStats::from_graph(&graph);
    image::write_image(&graph, &pg, &stats, path).expect("write image");
    graph
}

#[test]
fn server_booted_from_image_is_oracle_equivalent() {
    let config = ServerConfig::default();
    let path = temp_image("server_boot");
    let graph = write_fixture_image(&path, config.partitions);

    let in_process = Server::new(
        Arc::clone(&graph),
        Arc::new(GLogue::build(&graph, &GLOGUE_CFG)),
        config.clone(),
    )
    .expect("in-process server");
    let from_image = Server::from_image(&path, &GLOGUE_CFG, config).expect("image server");
    std::fs::remove_file(&path).ok();

    // the image's statistics were installed under a bumped version
    assert_ne!(from_image.stats_version(), 0);

    let a = in_process.session();
    let b = from_image.session();
    for q in workload() {
        let live = a.session_rows(&q);
        let booted = b.session_rows(&q);
        assert_eq!(
            live, booted,
            "{}: image-booted server diverges from in-process server",
            q.name
        );
        // both must equal the scalar oracle run of the booted server's plan
        let out = b.submit(&q.text).expect("submit");
        let want = Engine::new(&from_image.graph(), EngineConfig::default())
            .execute(&out.exec_plan)
            .expect("oracle executes")
            .rows();
        assert_eq!(
            out.result.rows(),
            want,
            "{}: image-booted server diverges from the scalar oracle",
            q.name
        );
    }
}

/// Small helper so the test above reads naturally.
trait SessionRows {
    fn session_rows(&self, q: &NamedQuery) -> Vec<Vec<gopt::graph::PropValue>>;
}

impl SessionRows for gopt::server::Session {
    fn session_rows(&self, q: &NamedQuery) -> Vec<Vec<gopt::graph::PropValue>> {
        self.submit(&q.text).expect("submit").result.rows()
    }
}

#[test]
fn load_image_bumps_stats_version_and_invalidates_plan_cache() {
    let config = ServerConfig::default();
    let path = temp_image("server_swap");
    let graph = write_fixture_image(&path, config.partitions);

    let server = Server::new(
        Arc::clone(&graph),
        Arc::new(GLogue::build(&graph, &GLOGUE_CFG)),
        config,
    )
    .expect("server");
    let session = server.session();
    let q = &workload()[0];

    let cold = session.submit(&q.text).expect("cold");
    let warm = session.submit(&q.text).expect("warm");
    assert!(!cold.cache_hit);
    assert!(
        warm.cache_hit,
        "second submission should hit the plan cache"
    );
    let v0 = server.stats_version();

    let v1 = server.load_image(&path, &GLOGUE_CFG).expect("load image");
    std::fs::remove_file(&path).ok();
    assert_eq!(v1, v0 + 1, "loading an image bumps the stats version");
    assert_eq!(server.stats_version(), v1);

    // the cached plan was optimized under v0 — it must NOT be served now
    let reopt = session.submit(&q.text).expect("after swap");
    assert!(
        !reopt.cache_hit,
        "plan optimized for the previous graph must not be served after a swap"
    );
    assert_eq!(reopt.stats_version, v1);
    // rows still equal the oracle on the (identical) swapped-in graph
    assert_eq!(reopt.result.rows(), cold.result.rows());

    // and the cache works again under the new version
    let rewarm = session.submit(&q.text).expect("rewarm");
    assert!(rewarm.cache_hit);
}

#[test]
fn image_errors_surface_as_typed_server_errors() {
    let missing = temp_image("server_missing");
    match Server::from_image(&missing, &GLOGUE_CFG, ServerConfig::default()) {
        Err(ServerError::Image(_)) => {}
        other => panic!("expected ServerError::Image, got {other:?}"),
    }

    // a corrupted image must not take down a running server
    let config = ServerConfig::default();
    let path = temp_image("server_corrupt");
    let graph = write_fixture_image(&path, config.partitions);
    let mut bytes = std::fs::read(&path).expect("read image");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("rewrite image");

    let server = Server::new(
        Arc::clone(&graph),
        Arc::new(GLogue::build(&graph, &GLOGUE_CFG)),
        config,
    )
    .expect("server");
    let v0 = server.stats_version();
    match server.load_image(&path, &GLOGUE_CFG) {
        Err(ServerError::Image(_)) => {}
        other => panic!("expected ServerError::Image, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
    // failed load leaves the server untouched and still serving
    assert_eq!(server.stats_version(), v0);
    let q = &workload()[0];
    server.session().submit(&q.text).expect("still serving");
}
