//! The CI bench-regression gate: compare fresh `BENCH_*.json` artifacts
//! (emitted by the fig14 harnesses via `EAGR_BENCH_JSON_DIR`) against the
//! committed baselines under `benches/baselines/`.
//!
//! Two kinds of checks, deliberately different in strictness:
//!
//! * **Delta-count invariants** are deterministic for a fixed scale and
//!   seed (routing depends only on the partition and the workload, never
//!   on thread interleaving), so they are enforced as hard structural
//!   facts of the *current* run: edge-cut must keep beating hash, live
//!   rebalancing must keep beating the frozen stale map. Losing one of
//!   these is a correctness-of-claim regression, not noise.
//! * **Throughput** is hardware-dependent, so absolute ops/s are never
//!   compared across machines. Each run is first normalized *within
//!   itself* (sharded vs its own single-thread row, shard-executed reads
//!   vs their own caller-thread row, rebalancing vs frozen) and the
//!   normalized shape is compared against the baseline's with a 25%
//!   tolerance — the ISSUE-mandated regression bar.
//!
//! Usage (what the `bench-check` CI job runs):
//!
//! ```text
//! cargo run --release -p eagr_bench --bin bench_check -- \
//!     --baseline benches/baselines --current "$EAGR_BENCH_JSON_DIR"
//! ```
//!
//! Exits non-zero with one line per violated check.

use eagr_bench::Json;
use std::path::{Path, PathBuf};

/// Allowed throughput-shape regression vs the baseline (>25% fails).
///
/// Every normalized comparison clamps the baseline at parity
/// (`min(baseline, 1.0)`) before applying the tolerance: the gated claims
/// are "≥ the in-run reference" (sharded vs single-thread, shard-executed
/// vs caller-thread reads), so a baseline that captured a lucky
/// above-parity run on a bimodal oversubscribed box must not raise the
/// bar — dropping from 1.2x to 0.9x of the reference is scheduler noise,
/// dropping below 0.75x of the reference (or of an already-below-parity
/// baseline) is a real regression.
const THROUGHPUT_TOLERANCE: f64 = 0.75;

/// The regression bar for a normalized throughput ratio: 25% under the
/// parity-clamped baseline.
fn throughput_bar(baseline_ratio: f64) -> f64 {
    THROUGHPUT_TOLERANCE * baseline_ratio.min(1.0)
}
/// Edge-cut must ship at most this fraction of hash's cross-shard deltas.
const EDGE_CUT_VS_HASH: f64 = 0.8;
/// Rebalancing must ship at most this fraction of the frozen map's
/// cross-shard deltas over the rotated phases.
const REBALANCE_VS_FROZEN: f64 = 0.85;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let baseline_dir =
        PathBuf::from(arg("--baseline").unwrap_or_else(|| "benches/baselines".into()));
    let current_dir =
        PathBuf::from(arg("--current").unwrap_or_else(|| {
            std::env::var("EAGR_BENCH_JSON_DIR").unwrap_or_else(|_| ".".into())
        }));

    let mut failures: Vec<String> = Vec::new();
    let mut checked = 0usize;

    let mut names: Vec<String> = match std::fs::read_dir(&baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("bench-check: cannot read {}: {e}", baseline_dir.display());
            std::process::exit(2);
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!(
            "bench-check: no BENCH_*.json baselines in {}",
            baseline_dir.display()
        );
        std::process::exit(2);
    }

    for name in &names {
        let baseline = match load(&baseline_dir.join(name)) {
            Ok(j) => j,
            Err(e) => {
                failures.push(format!("{name}: unreadable baseline: {e}"));
                continue;
            }
        };
        let current = match load(&current_dir.join(name)) {
            Ok(j) => j,
            Err(e) => {
                failures.push(format!(
                    "{name}: missing/unreadable current artifact in {}: {e}",
                    current_dir.display()
                ));
                continue;
            }
        };
        let before = failures.len();
        match name.as_str() {
            "BENCH_fig14.json" => check_fig14(&baseline, &current, &mut failures),
            "BENCH_fig14_reads.json" => check_fig14_reads(&baseline, &current, &mut failures),
            "BENCH_fig14_rebalance.json" => {
                check_fig14_rebalance(&baseline, &current, &mut failures)
            }
            "BENCH_fig_multiquery.json" => check_fig_multiquery(&baseline, &current, &mut failures),
            "BENCH_fig_churn.json" => check_fig_churn(&baseline, &current, &mut failures),
            // Unknown artifacts only gate on presence (checked above).
            _ => {}
        }
        checked += 1;
        println!(
            "bench-check: {name} — {}",
            if failures.len() == before {
                "ok"
            } else {
                "FAIL"
            }
        );
    }

    if failures.is_empty() {
        println!("bench-check: all {checked} artifacts within bounds");
    } else {
        eprintln!("\nbench-check: {} violation(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text)
}

fn rows(doc: &Json) -> &[Json] {
    doc.get("rows").and_then(Json::as_arr).unwrap_or(&[])
}

/// `rows` entry matching every `(key, value)` string/number pair.
fn find_row<'a>(doc: &'a Json, keys: &[(&str, &str)], nums: &[(&str, f64)]) -> Option<&'a Json> {
    rows(doc).iter().find(|r| {
        keys.iter()
            .all(|(k, v)| r.get(k).and_then(Json::as_str) == Some(*v))
            && nums
                .iter()
                .all(|(k, v)| r.get(k).and_then(Json::as_num) == Some(*v))
    })
}

fn num(row: &Json, key: &str) -> Option<f64> {
    row.get(key)
        .and_then(Json::as_num)
        .filter(|x| x.is_finite())
}

/// fig14(d): write ingestion per engine/strategy/shards.
fn check_fig14(baseline: &Json, current: &Json, failures: &mut Vec<String>) {
    // Hard invariant on the current run, at every shard count the
    // *baseline* covers — deriving the list from the current artifact
    // would let a harness change that silently stops emitting a
    // configuration slip past the gate.
    let shard_counts: Vec<f64> = {
        let mut s: Vec<f64> = rows(baseline)
            .iter()
            .filter_map(|r| num(r, "shards"))
            .collect();
        s.sort_by(f64::total_cmp);
        s.dedup();
        s
    };
    // Coverage: the current artifact must keep every baseline row's
    // (engine, strategy, shards) combination, so the class geomeans below
    // always average the same population.
    for base_row in rows(baseline) {
        let engine = base_row.get("engine").and_then(Json::as_str).unwrap_or("");
        let mut keys = vec![("engine", engine)];
        if let Some(strategy) = base_row.get("strategy").and_then(Json::as_str) {
            keys.push(("strategy", strategy));
        }
        let nums: Vec<(&str, f64)> = num(base_row, "shards")
            .map(|s| vec![("shards", s)])
            .unwrap_or_default();
        if find_row(current, &keys, &nums).is_none() {
            failures.push(format!(
                "fig14: baseline row missing from current artifact: {keys:?} {nums:?}"
            ));
        }
    }
    for &shards in &shard_counts {
        let hash = find_row(current, &[("strategy", "hash")], &[("shards", shards)])
            .and_then(|r| num(r, "cross_shard_deltas"));
        let ec = find_row(current, &[("strategy", "edge-cut")], &[("shards", shards)])
            .and_then(|r| num(r, "cross_shard_deltas"));
        match (hash, ec) {
            (Some(hash), Some(ec)) => {
                if ec > EDGE_CUT_VS_HASH * hash {
                    failures.push(format!(
                        "fig14: edge-cut delta reduction lost at {shards} shards: \
                         edge-cut={ec:.0} > {EDGE_CUT_VS_HASH} x hash={hash:.0}"
                    ));
                }
            }
            _ => failures.push(format!(
                "fig14: missing hash/edge-cut cross_shard_deltas at {shards} shards"
            )),
        }
    }
    // Throughput shape, per engine *class*: the geometric mean of
    // ops/single over all of a class's rows, compared against the
    // baseline's mean. Per-row ratios are not gateable — on an
    // oversubscribed runner, *which* (shards × strategy) config the
    // scheduler happens to favor swings run to run far past any sane
    // tolerance — while the class-level mean stays stable and still drops
    // >25% when the engine class genuinely regresses. Strategy-specific
    // regressions are caught exactly by the deterministic delta
    // invariants above.
    let single = |doc: &Json| {
        find_row(doc, &[("engine", "single-thread")], &[]).and_then(|r| num(r, "ops_per_s"))
    };
    let (Some(base_single), Some(cur_single)) = (single(baseline), single(current)) else {
        failures.push("fig14: missing single-thread row".into());
        return;
    };
    let class_mean = |doc: &Json, engine: &str, single: f64| -> Option<f64> {
        let ratios: Vec<f64> = rows(doc)
            .iter()
            .filter(|r| r.get("engine").and_then(Json::as_str) == Some(engine))
            .filter_map(|r| num(r, "ops_per_s"))
            .map(|ops| ops / single)
            .collect();
        (!ratios.is_empty())
            .then(|| (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
    };
    for engine in ["two-pool", "sharded"] {
        match (
            class_mean(baseline, engine, base_single),
            class_mean(current, engine, cur_single),
        ) {
            (Some(base), Some(cur)) => {
                if cur < throughput_bar(base) {
                    failures.push(format!(
                        "fig14: >25% throughput regression for the {engine} engine class: \
                         geomean {cur:.3}x single vs baseline {base:.3}x"
                    ));
                }
            }
            (Some(_), None) => {
                failures.push(format!("fig14: {engine} rows missing in current artifact"))
            }
            (None, _) => failures.push(format!("fig14: {engine} rows missing in baseline")),
        }
    }
}

/// fig_multiquery: PAO reuse on warm attach. Every invariant here is a
/// deterministic structural fact of the current run (the overlay and the
/// attach diff depend only on the graph seed and the coverage bounds,
/// never on timing), so the gate is hard — no tolerance:
///
/// * the cold build materializes a nonzero PAO count;
/// * every warm-attach coverage level the baseline recorded is still
///   emitted, materializes **strictly fewer** PAOs than the cold build,
///   and reuses at least one live PAO (`reuse_fraction > 0`);
/// * the churn scenario still completes with a positive attach rate.
///
/// Attach latency and churn throughput are hardware-dependent and are
/// deliberately not gated.
fn check_fig_multiquery(baseline: &Json, current: &Json, failures: &mut Vec<String>) {
    let cold = find_row(current, &[("row", "cold-build")], &[]).and_then(|r| num(r, "paos"));
    let Some(cold) = cold.filter(|&p| p > 0.0) else {
        failures.push("fig_multiquery: missing or empty cold-build row".into());
        return;
    };
    let coverages: Vec<f64> = rows(baseline)
        .iter()
        .filter(|r| r.get("row").and_then(Json::as_str) == Some("warm-attach"))
        .filter_map(|r| num(r, "coverage_pct"))
        .collect();
    if coverages.is_empty() {
        failures.push("fig_multiquery: baseline has no warm-attach rows".into());
    }
    for &pct in &coverages {
        let Some(row) = find_row(current, &[("row", "warm-attach")], &[("coverage_pct", pct)])
        else {
            failures.push(format!(
                "fig_multiquery: warm-attach row at {pct}% coverage missing from current artifact"
            ));
            continue;
        };
        match (num(row, "materialized"), num(row, "reuse_fraction")) {
            (Some(mat), Some(reuse)) => {
                if mat >= cold {
                    failures.push(format!(
                        "fig_multiquery: warm attach at {pct}% no longer beats the cold build: \
                         materialized={mat:.0} >= cold={cold:.0}"
                    ));
                }
                if reuse <= 0.0 {
                    failures.push(format!(
                        "fig_multiquery: PAO reuse lost at {pct}% coverage: \
                         reuse_fraction={reuse:.3}"
                    ));
                }
            }
            _ => failures.push(format!(
                "fig_multiquery: warm-attach row at {pct}% lacks materialized/reuse_fraction"
            )),
        }
    }
    let churn_ok = find_row(current, &[("row", "churn")], &[])
        .and_then(|r| num(r, "attaches_per_s"))
        .is_some_and(|a| a > 0.0);
    if !churn_ok {
        failures.push("fig_multiquery: churn row missing or attach rate not positive".into());
    }
}

/// fig_churn: the sharded hot path under streaming topology mutations.
///
/// Hard (deterministic) invariants of the current run:
///
/// * every `(churn_pct, engine)` row the baseline recorded is still
///   emitted;
/// * every row reports `answers_match == 1` — each engine equals the
///   naive oracle over a mirror of the mutated graph, at every churn
///   level;
/// * every nonzero churn level applied mutations and ran at least one
///   topology epoch (the repair path cannot silently stop running).
///
/// Throughput shape: the sharded ops/s at each churn level, normalized
/// by the same run's 0%-churn sharded row (hardware-independent), under
/// the usual 25% tolerance — churn overhead must not quietly explode.
fn check_fig_churn(baseline: &Json, current: &Json, failures: &mut Vec<String>) {
    for base_row in rows(baseline) {
        let engine = base_row.get("engine").and_then(Json::as_str).unwrap_or("");
        let Some(pct) = num(base_row, "churn_pct") else {
            continue;
        };
        let Some(row) = find_row(current, &[("engine", engine)], &[("churn_pct", pct)]) else {
            failures.push(format!(
                "fig_churn: baseline row missing from current artifact: {engine} at {pct}%"
            ));
            continue;
        };
        if num(row, "answers_match") != Some(1.0) {
            failures.push(format!(
                "fig_churn: {engine} answers diverged from the naive oracle at {pct}% churn"
            ));
        }
        if pct > 0.0 {
            if !num(row, "mutations").is_some_and(|m| m > 0.0) {
                failures.push(format!("fig_churn: no mutations applied at {pct}% churn"));
            }
            if !num(row, "topo_epochs").is_some_and(|e| e >= 1.0) {
                failures.push(format!("fig_churn: no topology epoch ran at {pct}% churn"));
            }
        }
    }
    let sharded_ops = |doc: &Json, pct: f64| -> Option<f64> {
        find_row(doc, &[("engine", "sharded")], &[("churn_pct", pct)])
            .and_then(|r| num(r, "ops_per_s"))
    };
    let (Some(base_zero), Some(cur_zero)) = (sharded_ops(baseline, 0.0), sharded_ops(current, 0.0))
    else {
        failures.push("fig_churn: missing 0%-churn sharded normalization row".into());
        return;
    };
    let pcts: Vec<f64> = rows(baseline)
        .iter()
        .filter(|r| r.get("engine").and_then(Json::as_str) == Some("sharded"))
        .filter_map(|r| num(r, "churn_pct"))
        .filter(|&p| p > 0.0)
        .collect();
    for pct in pcts {
        match (sharded_ops(baseline, pct), sharded_ops(current, pct)) {
            (Some(base), Some(cur)) => {
                let (base_ratio, cur_ratio) = (base / base_zero, cur / cur_zero);
                if cur_ratio < throughput_bar(base_ratio) {
                    failures.push(format!(
                        "fig_churn: >25% regression of churn-adjusted throughput at {pct}%: \
                         {cur_ratio:.3}x of content-only vs baseline {base_ratio:.3}x"
                    ));
                }
            }
            _ => failures.push(format!("fig_churn: sharded row missing at {pct}% churn")),
        }
    }
}

/// fig14(e): shard-executed vs caller-thread reads per mix.
fn check_fig14_reads(baseline: &Json, current: &Json, failures: &mut Vec<String>) {
    let ratio = |doc: &Json, mix: &str| -> Option<f64> {
        let caller = find_row(doc, &[("mix", mix), ("read_path", "caller-thread")], &[])
            .and_then(|r| num(r, "ops_per_s"))?;
        let shard = find_row(doc, &[("mix", mix), ("read_path", "shard-executed")], &[])
            .and_then(|r| num(r, "ops_per_s"))?;
        Some(shard / caller)
    };
    let mixes: Vec<&str> = rows(baseline)
        .iter()
        .filter_map(|r| r.get("mix").and_then(Json::as_str))
        .fold(Vec::new(), |mut acc, m| {
            if !acc.contains(&m) {
                acc.push(m);
            }
            acc
        });
    for mix in mixes {
        match (ratio(baseline, mix), ratio(current, mix)) {
            (Some(base), Some(cur)) => {
                if cur < throughput_bar(base) {
                    failures.push(format!(
                        "fig14_reads: >25% regression of shard-executed/caller ratio at {mix}: \
                         {cur:.3} vs baseline {base:.3}"
                    ));
                }
            }
            _ => failures.push(format!("fig14_reads: rows missing for mix {mix}")),
        }
    }
}

/// fig14(f): live rebalancing vs the frozen stale map on the drift
/// workload.
fn check_fig14_rebalance(baseline: &Json, current: &Json, failures: &mut Vec<String>) {
    // Hard invariant on the current run: over the rotated phases (k ≥ 1)
    // the policy-driven engine ships ≤ REBALANCE_VS_FROZEN × the frozen
    // map's cross-shard deltas, and at least one rebalance committed.
    let rotated_cross = |doc: &Json, engine: &str| -> f64 {
        rows(doc)
            .iter()
            .filter(|r| r.get("engine").and_then(Json::as_str) == Some(engine))
            .filter(|r| num(r, "phase").is_some_and(|p| p >= 1.0))
            .filter_map(|r| num(r, "cross_shard_deltas"))
            .sum()
    };
    let has_rotated_rows = |engine: &str| {
        rows(current).iter().any(|r| {
            r.get("engine").and_then(Json::as_str) == Some(engine)
                && num(r, "phase").is_some_and(|p| p >= 1.0)
                && num(r, "cross_shard_deltas").is_some()
        })
    };
    let frozen = rotated_cross(current, "frozen");
    let rebalanced = rotated_cross(current, "rebalance");
    if !has_rotated_rows("frozen") || !has_rotated_rows("rebalance") {
        failures.push("fig14_rebalance: missing rotated-phase delta counters".into());
    } else if rebalanced > REBALANCE_VS_FROZEN * frozen {
        // A zero rebalanced sum trivially satisfies the bound (the best
        // possible outcome); only an excess over the frozen map fails.
        failures.push(format!(
            "fig14_rebalance: cross-shard delta reduction lost on the drift workload: \
             rebalanced={rebalanced:.0} > {REBALANCE_VS_FROZEN} x frozen={frozen:.0}"
        ));
    }
    let commits = find_row(current, &[("engine", "rebalance-summary")], &[])
        .and_then(|r| num(r, "rebalances"))
        .unwrap_or(0.0);
    if commits < 1.0 {
        failures.push("fig14_rebalance: no rebalance ever committed on the drift workload".into());
    }
    // Throughput shape: mean rotated-phase ops of the rebalancing engine
    // relative to the frozen engine, vs the baseline's relation.
    let mean_ops = |doc: &Json, engine: &str| -> Option<f64> {
        let ops: Vec<f64> = rows(doc)
            .iter()
            .filter(|r| r.get("engine").and_then(Json::as_str) == Some(engine))
            .filter(|r| num(r, "phase").is_some_and(|p| p >= 1.0))
            .filter_map(|r| num(r, "ops_per_s"))
            .collect();
        (!ops.is_empty()).then(|| ops.iter().sum::<f64>() / ops.len() as f64)
    };
    let rel = |doc: &Json| -> Option<f64> {
        Some(mean_ops(doc, "rebalance")? / mean_ops(doc, "frozen")?)
    };
    match (rel(baseline), rel(current)) {
        (Some(base), Some(cur)) => {
            if cur < throughput_bar(base) {
                failures.push(format!(
                    "fig14_rebalance: >25% regression of rebalance/frozen throughput: \
                     {cur:.3} vs baseline {base:.3}"
                ));
            }
        }
        _ => failures.push("fig14_rebalance: throughput rows missing".into()),
    }
    // During-migration ingest throughput relative to steady-state: the
    // two-phase protocol's reason to exist. Presence and ≥1 committed
    // migration are hard (deterministic) invariants; the ratio itself is
    // tracked against the baseline under the usual 25% tolerance — it is
    // a timing observable, not a deterministic one.
    let migration_ratio = |doc: &Json| -> Option<f64> {
        let r = find_row(doc, &[("engine", "migration-concurrency")], &[])?;
        Some(num(r, "during_migration_ingest_ops")? / num(r, "steady_ingest_ops")?)
    };
    let migrations = find_row(current, &[("engine", "migration-concurrency")], &[])
        .and_then(|r| num(r, "migrations_committed"))
        .unwrap_or(0.0);
    if migrations < 1.0 {
        failures.push(
            "fig14_rebalance: no migration committed during the concurrent-ingest run".into(),
        );
    }
    match (migration_ratio(baseline), migration_ratio(current)) {
        (Some(base), Some(cur)) => {
            if cur < throughput_bar(base) {
                failures.push(format!(
                    "fig14_rebalance: >25% regression of during-migration/steady ingest \
                     throughput: {cur:.3} vs baseline {base:.3}"
                ));
            }
        }
        _ => failures.push("fig14_rebalance: during-migration throughput row missing".into()),
    }
}
