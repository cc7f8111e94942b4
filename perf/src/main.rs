//! `perf --workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints one JSON object as the last line of its output.
//! `perf run` runs all four, one child process each, and writes a result
//! file; `perf compare a.json b.json` compares two result files.

use gopt_perf::compare::compare;
use gopt_perf::env::{env_block, refuse_gopt_env};
use gopt_perf::json::Json;
use gopt_perf::run::{default_out_dir, run_workload, RunArgs};
use gopt_perf::workload::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  perf --workload <ic_hot|bi_p1|bi_p4|compile_cgp> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
  perf run [--seed 42] [--seconds 10] [--repeat 1] [--trace] [--smoke] [--out perf/out]
  perf compare <a.json> <b.json>";

/// `--name value` pairs and bare `--flags`, in any order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = match bare.contains(&name) {
                true => None,
                false => Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                ),
            };
            flags.push((name.to_string(), value));
        }
        Ok(Flags(flags))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("bad value for --{name}")),
        }
    }
}

fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    let need = |name: &str| format!("--{name} is required\n{USAGE}");
    let trace: u8 = flags.get("trace")?.ok_or_else(|| need("trace"))?;
    let args = RunArgs {
        workload: flags.get("workload")?.ok_or_else(|| need("workload"))?,
        seed: flags.get("seed")?.ok_or_else(|| need("seed"))?,
        seconds: flags.get("seconds")?.ok_or_else(|| need("seconds"))?,
        trace: trace != 0,
        smoke: flags.has("smoke"),
        out: flags.get::<PathBuf>("out")?,
    };
    let report = run_workload(&args)?;
    println!("{}", report.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["smoke", "trace"])?;
    let smoke = flags.has("smoke");
    let seed: u64 = flags.get("seed")?.unwrap_or(42);
    let seconds: f64 = flags
        .get("seconds")?
        .unwrap_or(if smoke { 0.2 } else { 10.0 });
    let repeat: usize = flags.get("repeat")?.unwrap_or(1);
    let out: PathBuf = flags.get("out")?.unwrap_or_else(default_out_dir);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let traces: &[bool] = if flags.has("trace") {
        &[false, true]
    } else {
        &[false]
    };

    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..repeat {
        for workload in WORKLOADS {
            for &trace in traces {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&out);
                if smoke {
                    child.arg("--smoke");
                }
                // one process per workload: peak RSS and caches start clean
                let output = child
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !output.status.success() {
                    return Err(format!(
                        "{workload} (trace {trace}) exited with {}: {}",
                        output.status,
                        String::from_utf8_lossy(&output.stderr).trim()
                    ));
                }
                let kind = if trace { "trace" } else { "e2e" };
                let path = out.join(format!("{workload}.{kind}.json"));
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let Json::Obj(mut detail) = Json::parse(&text)? else {
                    return Err(format!("{}: not an object", path.display()));
                };
                std::fs::remove_file(&path).map_err(|e| e.to_string())?;
                detail.insert(0, ("repeat".to_string(), Json::Num(rep as f64)));
                let detail = Json::Obj(detail);
                print_entry(&detail);
                all_correct &= detail
                    .get("report")
                    .and_then(|r| r.get("correct"))
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                runs.push(detail);
            }
        }
    }
    let result = Json::obj([
        ("env", env_block(seed, seconds, smoke)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = out.join(format!("result-seed{seed}.json"));
    std::fs::write(&path, result.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_entry(entry: &Json) {
    let text = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("?");
    let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let report = entry.get("report");
    let field = |k: &str| report.and_then(|r| r.get(k));
    println!(
        "== {} (trace {}): correct {}, {} ops attempted, {} failed, verify {:.2} s",
        text("workload"),
        entry.get("trace").and_then(Json::as_bool).unwrap_or(false),
        field("correct").and_then(Json::as_bool).unwrap_or(false),
        num(field("attempted")),
        num(field("failed")),
        num(entry.get("verify_s")),
    );
    for (name, m) in field("metrics").map(Json::as_obj).unwrap_or(&[]) {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!(
            "{:<12} {:<28} {:>16.4} {}",
            text("workload"),
            name,
            num(m.get("value")),
            unit
        );
    }
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, pass) = compare(&load(a)?, &load(b)?);
    print!("{table}");
    println!("ratios are b/a: {b} over {a}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = refuse_gopt_env().and_then(|()| match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(_) => one_workload(&args),
        None => Err(USAGE.to_string()),
    });
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}
