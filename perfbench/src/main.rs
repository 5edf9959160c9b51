//! `eagr-perfbench` — the repository benchmark.
//!
//! ```text
//! eagr-perfbench --workload <firehose|firehose-proc|serve|churn>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--trace-dir <dir>] [--scale full|smoke]
//! eagr-perfbench --smoke [--trace-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. Every line but the last is for
//! people; the last is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! The exit code is non-zero when any operation failed.

mod gen;
mod procstat;
mod run;
mod summary;
mod trace;

use run::{Results, Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics (untraced run): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("read_batch_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.bipartite_s", "s"),
    ("overlay.build_s", "s"),
    ("flow.plan_s", "s"),
    ("flow.partition_s", "s"),
    ("exec.runtime_s", "s"),
    ("core.setup_other_s", "s"),
    ("overlay.edges", "count"),
    ("overlay.partial_nodes", "count"),
    ("overlay.sharing_index", "ratio"),
    ("flow.push_nodes", "count"),
    ("flow.splits", "count"),
    ("core.ingest_s", "s"),
    ("core.ingest_p99_ms", "ms"),
    ("exec.ingest_at_s", "s"),
    ("exec.drain_s", "s"),
    ("core.ingest_overhead_s", "s"),
    ("exec.epochs", "count"),
    ("exec.local_applies", "count"),
    ("exec.cross_shard_deltas", "count"),
    ("exec.applies_per_event", "ratio"),
    ("exec.cross_frac", "ratio"),
    ("exec.shard_skew", "ratio"),
    ("exec.rebalances", "count"),
    ("exec.nodes_migrated", "count"),
    ("core.driver_busy_frac", "ratio"),
    ("exec.worker_busy_frac", "ratio"),
    ("exec.relay_busy_frac", "ratio"),
    ("exec.host_busy_frac", "ratio"),
    ("exec.host_processes", "count"),
    ("core.read_batch_p99_us", "us"),
    ("exec.read_batch_s", "s"),
    ("exec.reads_served", "count"),
    ("core.write_p50_us", "us"),
    ("core.write_p99_us", "us"),
    ("core.read_p50_us", "us"),
    ("core.read_p99_us", "us"),
    ("exec.write_p50_us", "us"),
    ("exec.read_p50_us", "us"),
    ("core.write_overhead_us", "us"),
    ("core.read_overhead_us", "us"),
    ("exec.pushes_per_write", "ratio"),
    ("exec.pulls_per_read", "ratio"),
    ("core.attach_p50_ms", "ms"),
    ("core.detach_p50_ms", "ms"),
    ("core.attach_materialized", "count"),
    ("core.attach_reuse_fraction", "ratio"),
    ("core.attach_backfilled_writers", "count"),
    ("core.attach_cold_writers", "count"),
    ("core.topo_p50_ms", "ms"),
    ("core.topo_p99_ms", "ms"),
    ("core.topo_s", "s"),
    ("core.content_s", "s"),
    ("core.topo_share", "ratio"),
    ("core.topo_ms_per_mutation", "ms"),
    ("exec.topo_epochs", "count"),
    ("core.topo_epochs", "count"),
    ("core.topo_applied", "count"),
    ("core.topo_skipped", "count"),
    ("core.topo_fresh_overlay_nodes", "count"),
    ("core.topo_retired_overlay_nodes", "count"),
    ("core.topo_rematerialized", "count"),
    ("gen.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Where spans of traced runs go unless `--trace-dir` says otherwise.
const DEFAULT_TRACE_DIR: &str = ".bench_build/perfbench";

struct Cli {
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Cli {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        scale: match flags.get("--scale").copied().unwrap_or("full") {
            "full" => Scale::FULL,
            "smoke" => Scale::SMOKE,
            s => return Err(format!("--scale must be full or smoke, got {s}")),
        },
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
        trace_dir: PathBuf::from(
            flags
                .get("--trace-dir")
                .copied()
                .unwrap_or(DEFAULT_TRACE_DIR),
        ),
    })
}

/// First line of a command's standard output, if it runs.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(w: Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = procstat::loadavg_1m().map_or("unknown".to_string(), |l| format!("{l:.2}"));
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    format!(
        "env workload={} seed={seed} seconds={seconds} trace={} nproc={nproc} loadavg_1m={load} commit={commit} rustc=\"{}\"",
        w.name(),
        u8::from(trace),
        command_line("rustc", &["--version"]),
    )
}

/// The result line.
fn result_json(res: &Results, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let v = res.values.get(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.failed() == 0 && res.attempted > 0,
        res.attempted,
        res.failed(),
        metrics.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Names in `table` that `res` lacks or reports as non-finite.
fn missing(res: &Results, table: &[(&str, &str)]) -> Vec<String> {
    table
        .iter()
        .filter(|(n, _)| !res.values.get(n).is_some_and(|v| v.is_finite()))
        .map(|(n, _)| n.to_string())
        .collect()
}

/// Run one workload in one mode, print the report, and return the
/// result, or an error when the run could not produce one.
fn run_one(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: &std::path::Path,
) -> Result<Results, String> {
    println!("{}", environment(w, seed, seconds, trace));
    let outcome = std::panic::catch_unwind(|| {
        if trace {
            run::run_traced(w, scale, seed, seconds).map(|(res, tr)| {
                let path = trace_dir.join(format!("trace-{}-seed{seed}.jsonl", w.name()));
                let written = std::fs::create_dir_all(trace_dir)
                    .and_then(|_| std::fs::write(&path, tr.to_jsonl()));
                let mut res = res;
                res.lines.push(match written {
                    Ok(()) => format!("spans written to {}", path.display()),
                    Err(e) => format!("note spans not written to {}: {e}", path.display()),
                });
                res
            })
        } else {
            run::run_untraced(w, scale, seed, seconds)
        }
    });
    let res = match outcome {
        Ok(r) => r?,
        Err(_) => return Err(format!("{} panicked; see the message above", w.name())),
    };
    let table = if trace { PER_LAYER } else { END_TO_END };
    for line in &res.lines {
        println!("{line}");
    }
    for (name, unit) in table {
        if let Some(v) = res.values.get(name) {
            println!("metric {name} = {} {unit}", json_num(*v));
        }
    }
    println!(
        "ops attempted={} failed={} failed_frac={}",
        res.attempted,
        res.failed(),
        res.failed() as f64 / res.attempted.max(1) as f64
    );
    if let Some(f) = &res.first_failure {
        println!("first failure: {f}");
    }
    let absent = missing(&res, table);
    if !absent.is_empty() {
        return Err(format!("metrics not produced: {}", absent.join(", ")));
    }
    Ok(res)
}

/// Every workload in both modes at toy size, each in its own process as
/// the benchmark runs them: each named metric must appear with its unit in
/// the result line, end-to-end metrics must be positive, and no operation
/// may fail.
fn smoke(dir: &std::path::Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    for w in Workload::ALL {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", "7", "--seconds", "0.3"])
                .args(["--trace", trace, "--scale", "smoke", "--trace-dir"])
                .arg(dir)
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let tag = format!("{} --trace {trace}", w.name());
            if !out.status.success() {
                problems.push(format!(
                    "{tag}: exit {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
                continue;
            }
            if !line.starts_with("{\"correct\": true, ") || !line.contains("\"failed\": 0, ") {
                problems.push(format!("{tag}: result line {line}"));
            }
            for (name, unit) in table {
                let entry = format!("\"{name}\": {{\"value\": ");
                let Some(at) = line.find(&entry) else {
                    problems.push(format!("{tag}: {name} missing"));
                    continue;
                };
                let rest = &line[at + entry.len()..];
                let value: f64 = rest
                    .split(',')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(f64::NAN);
                if !rest
                    .split('}')
                    .next()
                    .is_some_and(|r| r.ends_with(&format!("\"unit\": \"{unit}\"")))
                {
                    problems.push(format!("{tag}: {name} lacks unit {unit}"));
                }
                if trace == "0" && (value.is_nan() || value <= 0.0) {
                    problems.push(format!("{tag}: {name} = {value} is not positive"));
                }
            }
            if w == Workload::FirehoseProc
                && trace == "1"
                && !line.contains("\"exec.host_processes\": {\"value\": 2,")
            {
                problems.push(format!("{tag}: not one host process per shard"));
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        let dir = match args.get(1..) {
            Some([flag, dir]) if flag == "--trace-dir" => PathBuf::from(dir),
            _ => PathBuf::from(DEFAULT_TRACE_DIR),
        };
        return match smoke(&dir) {
            Ok(()) => {
                println!("smoke ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("eagr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run_one(
        cli.workload,
        cli.scale,
        cli.seed,
        cli.seconds,
        cli.trace,
        &cli.trace_dir,
    ) {
        Ok(res) => {
            let table = if cli.trace { PER_LAYER } else { END_TO_END };
            println!("{}", result_json(&res, table));
            if res.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("eagr-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here must be the ones `BENCHMARK.json`
    /// declares.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end].to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&entry), "{key} lacks {entry}");
            }
            assert_eq!(
                s.matches("\"name\"").count(),
                table.len(),
                "{key} has extra entries"
            );
        }
    }

    #[test]
    fn cli_rejects_bad_input() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args("--workload serve --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_cli(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_cli(&args("--workload serve --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse_cli(&args("--workload serve --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_cli(&args("--workload serve --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_cli(&args("--workload serve --seed 1 --seconds 2")).is_err());
    }
}
