//! Runs `perf run --smoke --trace` and checks the result file against
//! `BENCHMARK.json`: every workload emits every declared metric with the
//! declared unit, and nothing fails.

use gopt_perf::json::Json;
use gopt_perf::metrics::{END_TO_END, PER_LAYER};
use gopt_perf::workload::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no `{key}` in {}", j.render()))
}

#[test]
fn benchmark_json_repeats_the_tables_in_the_code() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(b.get("paths").unwrap().as_arr(), [Json::str("perf")]);

    let declared = b.get("end_to_end").unwrap().as_arr();
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, m) in declared.iter().zip(&END_TO_END) {
        assert_eq!(
            (text(d, "name"), text(d, "unit"), text(d, "better")),
            (m.name, m.unit, m.better.as_str())
        );
        assert_eq!(
            d.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let declared = b.get("per_layer").unwrap().as_arr();
    assert_eq!(declared.len(), PER_LAYER.len());
    for (d, m) in declared.iter().zip(&PER_LAYER) {
        assert_eq!(
            (text(d, "name"), text(d, "unit"), text(d, "better")),
            (m.name, m.unit, m.better.as_str())
        );
    }
}

#[test]
fn smoke_run_emits_every_declared_metric_and_fails_nothing() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let status = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--smoke", "--trace", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("perf binary runs");
    assert!(status.success(), "perf run --smoke --trace failed");

    let result = std::fs::read_to_string(out.join("result-seed7.json")).unwrap();
    let result = Json::parse(&result).unwrap();
    let env = result.get("env").unwrap();
    assert!(
        env.get("available_parallelism")
            .and_then(Json::as_f64)
            .unwrap()
            >= 1.0
    );
    assert_eq!(env.get("seed").and_then(Json::as_f64), Some(7.0));

    let b = benchmark_json();
    let runs = result.get("runs").unwrap().as_arr();
    assert_eq!(runs.len(), 2 * WORKLOADS.len());
    for workload in WORKLOADS {
        for (trace, table) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = runs
                .iter()
                .find(|r| {
                    text(r, "workload") == workload && r.get("trace") == Some(&Json::Bool(trace))
                })
                .unwrap_or_else(|| panic!("no {workload} entry with trace {trace}"));
            let report = run.get("report").unwrap();
            assert_eq!(report.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                report.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(report.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = report.get("metrics").unwrap();
            let declared = b.get(table).unwrap().as_arr();
            assert_eq!(metrics.as_obj().len(), declared.len(), "{workload} {table}");
            for d in declared {
                let m = metrics
                    .get(text(d, "name"))
                    .unwrap_or_else(|| panic!("{workload} does not emit {}", text(d, "name")));
                assert_eq!(
                    text(m, "unit"),
                    text(d, "unit"),
                    "{workload} {}",
                    text(d, "name")
                );
                assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
            }
            assert!(!run.get("row_hashes").unwrap().as_obj().is_empty());
        }
        let spans = std::fs::read_to_string(out.join(format!("{workload}.trace.jsonl"))).unwrap();
        let first = Json::parse(spans.lines().next().expect("at least one span")).unwrap();
        for key in [
            "trace_id", "span_id", "parent", "name", "start_ns", "end_ns",
        ] {
            assert!(first.get(key).is_some(), "span without `{key}`");
        }
    }
    // a file compares equal to itself
    let status = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("compare")
        .args([out.join("result-seed7.json"), out.join("result-seed7.json")])
        .status()
        .unwrap();
    assert!(status.success());
}

#[test]
fn a_gopt_variable_in_the_environment_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "--workload",
            "ic_hot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("GOPT_THREADS", "4")
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("GOPT_THREADS"));
    assert!(output.stdout.is_empty(), "no result may be printed");
}
