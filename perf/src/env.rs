//! The `env` block of a result file: enough to tell whether two files may be
//! compared at all.

use crate::json::Json;
use std::process::Command;

/// `GOPT_THREADS`, `GOPT_PARTITIONER`, `GOPT_EXCHANGE_*` silently override
/// the `ServerConfig` the workloads state, so a run under any of them would
/// measure something else than its name says.
pub fn refuse_gopt_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GOPT_"))
        .collect();
    match set.is_empty() {
        true => Ok(()),
        false => Err(format!("refusing to run with {} set", set.join(", "))),
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn env_block(seed: u64, seconds: f64, smoke: bool) -> Json {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = command_line("git", &["-C", repo, "rev-parse", "HEAD"]);
    let dirty = command_line("git", &["-C", repo, "status", "--porcelain"]).map(|s| !s.is_empty());
    let or_unknown = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("git_commit", or_unknown(commit)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("rustc", or_unknown(command_line("rustc", &["-V"]))),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        (
            "persons",
            Json::Num(if smoke {
                crate::run::SMOKE_PERSONS
            } else {
                crate::run::PERSONS
            } as f64),
        ),
        ("graph_seed", Json::Num(crate::run::GRAPH_SEED as f64)),
        (
            "glogue",
            Json::obj([
                ("max_pattern_vertices", Json::Num(3.0)),
                ("max_anchors", Json::Num(500.0)),
                ("seed", Json::Num(9.0)),
            ]),
        ),
    ])
}
