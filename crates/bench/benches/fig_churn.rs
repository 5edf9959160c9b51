//! Dynamic-topology churn — throughput and correctness of the hot path
//! while topology mutations stream through ingestion (EAGr §3.3
//! incremental repair mapped to plan deltas, applied between content
//! runs of the same stream).
//!
//! For churn levels 1% / 5% / 10% (fraction of the live edge set mutated
//! per epoch, Fig-style sweep) plus a 0%-churn content-only baseline:
//! the same mixed stream goes through the sharded and the single-threaded
//! system. Reported per (level, engine):
//!
//! * `ops_per_s` — end-to-end events/s *including* the repair epochs, so
//!   the number prices topology churn into the hot path;
//! * `mutations` / `topo_epochs` — accounting from
//!   [`RegistryStats::topo`], proving repairs actually ran;
//! * `answers_match` — 1 when every node's final answer equals the
//!   [`NaiveOracle`] replaying the stream over a mirror of the mutated
//!   graph, the hard invariant `bench_check` gates on.
//!
//! One JSON artifact: `BENCH_fig_churn.json`. The committed baseline was
//! generated at `EAGR_BENCH_SCALE=0.25 --quick`; the gate compares the
//! sharded throughput at each churn level normalized by the same run's
//! 0%-churn row (hardware-independent) plus the hard correctness and
//! accounting invariants.

use eagr::gen::{churn_stream, generate_events, social_graph, ChurnConfig, Event, WorkloadConfig};
use eagr::prelude::*;
use eagr::{EagrSystem, ExecutionMode, OverlayAlgorithm};
use eagr_bench::{banner, f, scale, write_json_artifact, Json, Table};
use std::time::Instant;

const SHARDS: usize = 4;
const EPOCHS: usize = 4;

fn build(g: &DataGraph, mode: ExecutionMode) -> EagrSystem<Sum> {
    EagrSystem::builder(EgoQuery::new(Sum))
        .overlay(OverlayAlgorithm::Vnma)
        .execution(mode)
        .build(g)
}

/// Ingest every epoch, returning (events/s, mutations, topo epochs).
fn run(sys: &EagrSystem<Sum>, stream: &[Vec<Event>]) -> (f64, u64, u64) {
    let t0 = Instant::now();
    let mut events = 0usize;
    for batch in stream {
        events += sys.ingest(batch).total();
    }
    let dt = t0.elapsed().as_secs_f64();
    let topo = sys.registry_stats().topo;
    (events as f64 / dt, topo.applied + topo.skipped, topo.epochs)
}

fn main() {
    let n = ((3_000.0 * scale()) as usize).max(300);
    banner(
        "Dynamic-topology churn",
        "ingest throughput + oracle-checked answers under 1/5/10% edge churn",
    );
    let g = social_graph(n, 5, 0xC4A2);
    println!(
        "graph: {n} users, {} edges; {EPOCHS} epochs x {n} content events per level\n",
        g.edge_count()
    );

    let t = Table::new(&[
        "churn",
        "engine",
        "events/s",
        "mutations",
        "epochs",
        "match",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    for pct in [0u32, 1, 5, 10] {
        // The 0% row is the content-only normalization baseline the gate
        // divides the churn levels by; churn_stream always emits at least
        // one mutation per epoch, so it comes from generate_events.
        let stream: Vec<Vec<Event>> = if pct == 0 {
            vec![generate_events(
                n,
                &WorkloadConfig {
                    events: EPOCHS * n,
                    write_to_read: 4.0,
                    seed: 0xC4A2,
                    ..Default::default()
                },
            )]
        } else {
            churn_stream(
                &g,
                &ChurnConfig {
                    epochs: EPOCHS,
                    epoch_events: n,
                    churn_fraction: pct as f64 / 100.0,
                    node_churn: 0.15,
                    write_to_read: 4.0,
                    seed: 0xC4A2 + pct as u64,
                    ..Default::default()
                },
            )
        };
        let mut mirror = g.clone();
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        let mut ts = 0;
        for batch in &stream {
            oracle.ingest(&mut mirror, batch, ts);
            ts += batch.len() as u64;
        }
        let single = build(&g, ExecutionMode::SingleThreaded);
        let sharded = build(&g, ExecutionMode::Sharded { shards: SHARDS });
        let (single_ops, muts, epochs) = run(&single, &stream);
        let (sharded_ops, s_muts, s_epochs) = run(&sharded, &stream);
        assert_eq!(muts, s_muts, "mutation accounting must be mode-independent");
        let nodes: Vec<NodeId> = (0..mirror.id_bound() as u32).map(NodeId).collect();
        let matches = |sys: &EagrSystem<Sum>| {
            oracle
                .mismatch(&mirror, &nodes, &sys.read_batch(&nodes))
                .is_none()
        };
        for (engine, ops, eps, is_match) in [
            ("single-thread", single_ops, epochs, matches(&single)),
            ("sharded", sharded_ops, s_epochs, matches(&sharded)),
        ] {
            t.row(&[
                &format!("{pct}%"),
                &engine,
                &f(ops),
                &muts,
                &eps,
                &(is_match as u8),
            ]);
            rows.push(Json::obj(vec![
                ("churn_pct", Json::Num(pct as f64)),
                ("engine", Json::Str(engine.into())),
                ("ops_per_s", Json::Num(ops)),
                ("mutations", Json::Num(muts as f64)),
                ("topo_epochs", Json::Num(eps as f64)),
                ("answers_match", Json::Num(is_match as u8 as f64)),
            ]));
        }
    }

    println!("\nexpect: both engines answer like the naive oracle at every churn");
    println!("level, and throughput degrades gracefully as churn grows — the");
    println!("repair epochs never trigger a full re-plan.");
    write_json_artifact(
        "fig_churn",
        &Json::obj(vec![
            ("figure", Json::Str("fig_churn".into())),
            ("scale", Json::Num(scale())),
            ("nodes", Json::Num(n as f64)),
            ("shards", Json::Num(SHARDS as f64)),
            ("rows", Json::Arr(rows)),
        ]),
    );
}
