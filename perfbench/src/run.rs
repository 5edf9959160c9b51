//! The four workloads: build the system, drive it in a closed loop from
//! one thread, check every answer, and derive the metrics.
//!
//! Inputs for each stretch of calls are generated (with their expected
//! answers) before the stretch starts; generation time and answer checks
//! never fall inside a timed call.

use crate::gen::{self, Churn, Firehose, Mirror, Op, Serve, ATTACH_EVERY};
use crate::procstat::{self, CpuMeter};
use crate::summary::Summary;
use crate::trace::Tracer;
use eagr::agg::{Aggregate, CostModel, Sum, WindowSpec};
use eagr::exec::{EngineCore, ShardedConfig, ShardedEngine, TransportKind};
use eagr::flow::{plan, DecisionAlgorithm, PlannerConfig, Rates};
use eagr::gen::{social_graph, Event};
use eagr::graph::{BipartiteGraph, DataGraph, NodeId};
use eagr::overlay::{build_vnm, VnmConfig};
use eagr::{AttachReport, EagrSystem, EgoQuery, ExecutionMode, SystemBuilder, TopoReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Shards of the sharded workloads: two, so each can own a core of a
/// 2-core host.
const SHARDS: usize = 2;

/// The workloads. Why each exists is recorded in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sharded{2}, in-process transport, batched Zipf writes + read_batch.
    Firehose,
    /// `Firehose` on the process transport (`eagr-shard-host`).
    FirehoseProc,
    /// Single-threaded point writes/reads plus attach/detach cycles.
    Serve,
    /// Sharded{2} under 1% edge churn.
    Churn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Firehose,
        Workload::FirehoseProc,
        Workload::Serve,
        Workload::Churn,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Firehose => "firehose",
            Workload::FirehoseProc => "firehose-proc",
            Workload::Serve => "serve",
            Workload::Churn => "churn",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn transport(self) -> Option<TransportKind> {
        match self {
            Workload::Firehose | Workload::Churn => Some(TransportKind::InProcess),
            Workload::FirehoseProc => Some(TransportKind::Process),
            Workload::Serve => None,
        }
    }

    fn nodes(self, s: &Scale) -> usize {
        match self {
            Workload::Churn => s.churn_nodes,
            _ => s.nodes,
        }
    }

    fn builder(self) -> SystemBuilder<Sum> {
        let b = EagrSystem::builder(EgoQuery::new(Sum));
        match self.transport() {
            Some(kind) => b
                .execution(ExecutionMode::Sharded { shards: SHARDS })
                .transport(kind),
            None => b,
        }
    }
}

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Nodes of the firehose and serve graphs.
    pub nodes: usize,
    /// Nodes of the churn graph.
    pub churn_nodes: usize,
    /// Events per ingest call (firehose) or per ingest between attach
    /// cycles (serve).
    pub batch: usize,
    /// Nodes per read_batch (firehose, serve handle reads).
    pub reads: usize,
    /// Point calls per serve block.
    pub serve_ops: usize,
    /// Handle read_batch calls per attach cycle.
    pub handle_reads: usize,
    /// Content events per churn epoch.
    pub churn_epoch_events: usize,
    /// System builds whose median is `setup_s`.
    pub setup_reps: usize,
    /// Firehose rounds generated per timed stretch.
    pub rounds_per_chunk: usize,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        nodes: 20_000,
        churn_nodes: 2_000,
        batch: 4096,
        reads: 256,
        serve_ops: 98_304,
        handle_reads: 16,
        churn_epoch_events: 1000,
        setup_reps: 3,
        rounds_per_chunk: 16,
    };

    /// A tiny configuration for the smoke test.
    pub const SMOKE: Scale = Scale {
        nodes: 400,
        churn_nodes: 200,
        batch: 256,
        reads: 32,
        serve_ops: 1024,
        handle_reads: 2,
        churn_epoch_events: 100,
        setup_reps: 2,
        rounds_per_chunk: 4,
    };
}

/// Everything one run produces.
#[derive(Default)]
pub struct Results {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines (sample counts, environment, diagnostics).
    pub lines: Vec<String>,
    /// Operations scheduled.
    pub attempted: u64,
    /// Operations that completed with a correct answer.
    pub ok: u64,
    /// The first failure seen, for the log.
    pub first_failure: Option<String>,
}

impl Results {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok += 1;
        } else if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    fn check_answers(&mut self, what: &str, nodes: &[NodeId], got: &[Option<i64>], want: &[i64]) {
        let bad = (got.len() != want.len())
            .then_some(0)
            .or_else(|| (0..got.len()).find(|&i| !gen::matches(got[i], want[i])));
        self.check(bad.is_none(), || {
            let i = bad.unwrap_or(0);
            format!(
                "{what}: node {:?} returned {:?}, oracle says {:?} ({} answers for {} nodes)",
                nodes.get(i),
                got.get(i),
                want.get(i),
                got.len(),
                want.len()
            )
        });
    }

    /// Operations that failed: wrong, errored, or never run.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// Latency samples (seconds) per call kind, plus phase totals.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    events: u64,
    /// Stream events per second of each unit.
    unit_rates: Vec<f64>,
    gen_s: f64,
    /// Indices of the firehose rounds, serve blocks or churn epochs run.
    units: Vec<u64>,
    lat: BTreeMap<&'static str, Vec<f64>>,
    attach_reports: Vec<AttachReport>,
    /// Content runs ingested (churn, traced only), kept for the exec probe.
    content_runs: Vec<Vec<Event>>,
}

impl Phase {
    fn push(&mut self, kind: &'static str, secs: f64) {
        self.lat.entry(kind).or_default().push(secs);
    }

    fn summary(&mut self, kind: &str) -> Summary {
        Summary::of(self.lat.get_mut(kind).map_or(&mut [][..], |v| &mut v[..]))
    }

    /// Account one unit: `events` stream events in `wall` seconds.
    fn record(&mut self, events: u64, wall: f64) {
        self.events += events;
        self.wall_s += wall;
        self.unit_rates.push(events as f64 / wall);
    }

    /// Stream events per second: the median over units, so a stretch of
    /// the run slowed by something outside the program (another tenant of
    /// the host, a thread placement) does not swing the figure.
    fn eps(&self) -> f64 {
        Summary::of(&mut self.unit_rates.clone()).median_or_zero()
    }
}

/// Run `f`, inside a span when tracing.
fn call<T>(tr: &mut Option<&mut Tracer>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, id, f),
        None => f(),
    }
}

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The CPU-meter group of a thread: the driver, a shard worker, or a
/// process-transport relay thread (names are cut to 15 bytes by the kernel).
fn cpu_group(driver: u32, tid: u32, comm: &str) -> Option<&'static str> {
    if tid == driver {
        Some("driver")
    } else if comm.starts_with("eagr-shard-") {
        Some("worker")
    } else if comm.starts_with("eagr-host-pump") || comm.starts_with("eagr-host-writ") {
        Some("relay")
    } else {
        None
    }
}

/// The generator and mirror behind one workload's stream.
enum Source {
    Firehose(Firehose),
    Serve(Serve),
    Churn(Churn),
}

/// One workload's live state.
struct Driver {
    scale: Scale,
    sys: EagrSystem<Sum>,
    source: Source,
    mirror: Mirror,
    next: u64,
    /// Stream position for point writes (kept equal to the facade clock).
    ts: u64,
    hosts: Vec<u32>,
    driver_tid: u32,
    cpu: Option<CpuMeter>,
}

impl Driver {
    /// Run one unit of the workload into `ph`: a chunk of firehose
    /// rounds, a serve block or a churn epoch.
    fn step(&mut self, ph: &mut Phase, mut tr: Option<&mut Tracer>, res: &mut Results) {
        match &self.source {
            Source::Firehose(_) => self.firehose_chunk(&mut tr, res, ph),
            Source::Serve(_) => self.serve_block(&mut tr, res, ph),
            Source::Churn(_) => self.churn_epoch(&mut tr, res, ph),
        }
    }

    /// Run untraced units until about `budget_s` seconds of calls.
    fn phase(&mut self, budget_s: f64, res: &mut Results) -> Phase {
        let mut ph = Phase::default();
        while ph.wall_s < budget_s {
            self.step(&mut ph, None, res);
        }
        ph
    }

    fn cpu_begin(cpu: &mut Option<CpuMeter>, hosts: &[u32]) {
        if let Some(c) = cpu.as_mut() {
            c.begin(hosts);
        }
    }

    fn cpu_end(cpu: &mut Option<CpuMeter>, driver_tid: u32) {
        if let Some(c) = cpu.as_mut() {
            c.end(|tid, comm| cpu_group(driver_tid, tid, comm));
        }
    }

    fn firehose_chunk(&mut self, tr: &mut Option<&mut Tracer>, res: &mut Results, ph: &mut Phase) {
        let Source::Firehose(gen) = &self.source else {
            unreachable!()
        };
        let t = Instant::now();
        let n = self.scale.rounds_per_chunk as u64;
        let rounds: Vec<_> = (self.next..self.next + n)
            .map(|k| gen.round(k, &mut self.mirror))
            .collect();
        ph.gen_s += since(t);
        res.attempted += 2 * n;
        let mut out = Vec::with_capacity(rounds.len());
        Self::cpu_begin(&mut self.cpu, &self.hosts);
        let start = Instant::now();
        for (k, r) in (self.next..).zip(&rounds) {
            let t0 = Instant::now();
            let rep = call(tr, "core.ingest", k, || self.sys.ingest(&r.events));
            let t1 = Instant::now();
            let got = call(tr, "core.read_batch", k, || self.sys.read_batch(&r.reads));
            let t2 = Instant::now();
            ph.push("ingest", (t1 - t0).as_secs_f64());
            ph.push("read_batch", (t2 - t1).as_secs_f64());
            out.push((rep, got));
        }
        let wall = since(start);
        Self::cpu_end(&mut self.cpu, self.driver_tid);
        ph.record(rounds.iter().map(|r| r.events.len() as u64).sum(), wall);
        for (r, (rep, got)) in rounds.iter().zip(&out) {
            res.check(rep.writes == r.events.len(), || {
                format!("ingest applied {} of {} writes", rep.writes, r.events.len())
            });
            res.check_answers("firehose read_batch", &r.reads, got, &r.expected);
        }
        ph.units.extend(self.next..self.next + n);
        self.next += n;
    }

    fn serve_block(&mut self, tr: &mut Option<&mut Tracer>, res: &mut Results, ph: &mut Phase) {
        let Source::Serve(gen) = &self.source else {
            unreachable!()
        };
        let t = Instant::now();
        let b = gen.block(self.next, &mut self.mirror);
        ph.gen_s += since(t);
        let k = self.next;
        res.attempted += b.ops.len() as u64 + b.handle_reads.len() as u64 + 3;
        let mut point: Vec<Option<i64>> = Vec::with_capacity(b.read_expected.len());
        let mut handle_got = Vec::with_capacity(b.handle_reads.len());
        let sys = &self.sys;
        Self::cpu_begin(&mut self.cpu, &self.hosts);
        let start = Instant::now();
        let mut ts = self.ts;
        if let Some(tr) = tr.as_deref_mut() {
            // Per-op timing only when tracing: the untraced run measures
            // the point calls back to back.
            for op in &b.ops {
                let t0 = Instant::now();
                match *op {
                    Op::Write(v, value) => {
                        sys.write(v, value, ts);
                        ts += 1;
                        let d = t0.elapsed();
                        tr.aggregate("core.write", d.as_nanos() as u64);
                        ph.push("write", d.as_secs_f64());
                    }
                    Op::Read(v) => {
                        point.push(sys.read(v));
                        let d = t0.elapsed();
                        tr.aggregate("core.read", d.as_nanos() as u64);
                        ph.push("read", d.as_secs_f64());
                    }
                }
            }
        } else {
            for op in &b.ops {
                match *op {
                    Op::Write(v, value) => {
                        sys.write(v, value, ts);
                        ts += 1;
                    }
                    Op::Read(v) => point.push(sys.read(v)),
                }
            }
        }
        let t0 = Instant::now();
        let handle = call(tr, "core.attach", k, || {
            sys.attach(EgoQuery::new(Sum).filter(|v: NodeId| v.0.is_multiple_of(ATTACH_EVERY)))
        });
        ph.push("attach", since(t0));
        for reads in &b.handle_reads {
            let t0 = Instant::now();
            handle_got.push(call(tr, "core.read_batch", k, || handle.read_batch(reads)));
            ph.push("read_batch", since(t0));
        }
        let report = handle.attach_report();
        let t0 = Instant::now();
        let detached = call(tr, "core.detach", k, || sys.detach(handle));
        ph.push("detach", since(t0));
        let t0 = Instant::now();
        let rep = call(tr, "core.ingest", k, || sys.ingest(&b.ingest));
        ph.push("ingest", since(t0));
        let wall = since(start);
        Self::cpu_end(&mut self.cpu, self.driver_tid);
        self.ts = ts + b.ingest.len() as u64;

        ph.record((b.ops.len() + b.ingest.len()) as u64, wall);
        let reads = b.ops.iter().filter_map(|op| match *op {
            Op::Read(v) => Some(v),
            Op::Write(..) => None,
        });
        for ((v, got), want) in reads.zip(&point).zip(&b.read_expected) {
            res.check(gen::matches(*got, *want), || {
                format!("serve read({v:?}) returned {got:?}, oracle says {want}")
            });
        }
        res.ok += (b.ops.len() - point.len()) as u64; // writes return no answer
        for ((nodes, got), want) in b
            .handle_reads
            .iter()
            .zip(&handle_got)
            .zip(&b.handle_expected)
        {
            res.check_answers("serve handle read_batch", nodes, got, want);
        }
        res.check(report.is_some(), || "attach produced no report".into());
        res.check(!detached.stratum_dropped, || {
            "detach dropped the primary stratum".into()
        });
        res.check(rep.writes == b.ingest.len(), || {
            format!("ingest applied {} of {} writes", rep.writes, b.ingest.len())
        });
        ph.attach_reports.extend(report);
        ph.units.push(self.next);
        self.next += 1;
    }

    fn churn_epoch(&mut self, tr: &mut Option<&mut Tracer>, res: &mut Results, ph: &mut Phase) {
        let Source::Churn(gen) = &self.source else {
            unreachable!()
        };
        let t = Instant::now();
        let ep = gen.epoch(self.next, &mut self.mirror);
        // Untraced, each topology run goes to `ingest` together with the
        // content run before it: one call per repair epoch, split by the
        // facade at the same positions, so the work is identical and the
        // call latency is not a mix of 30 µs and 5 ms calls. Traced, the
        // halves are separate calls so topology and content time apart.
        let mut calls: Vec<(&'static str, Vec<Event>)> = Vec::new();
        for run in &ep.runs {
            match (tr.is_some(), run.topo, calls.last_mut()) {
                (true, true, _) => calls.push(("topo", run.events.clone())),
                (true, false, _) => calls.push(("content", run.events.clone())),
                (false, true, Some((_, prev))) if !prev.iter().any(Event::is_topo) => {
                    prev.extend_from_slice(&run.events)
                }
                (false, _, _) => calls.push(("ingest", run.events.clone())),
            }
        }
        ph.gen_s += since(t);
        let k = self.next;
        res.attempted += calls.len() as u64 + 1;
        let mut reps = Vec::with_capacity(calls.len());
        let sys = &self.sys;
        Self::cpu_begin(&mut self.cpu, &self.hosts);
        let start = Instant::now();
        for (kind, events) in &calls {
            let span = if *kind == "topo" {
                "core.topo"
            } else {
                "core.ingest"
            };
            let t0 = Instant::now();
            reps.push(call(tr, span, k, || sys.ingest(events)));
            ph.push(kind, since(t0));
        }
        let t0 = Instant::now();
        let full = call(tr, "core.read_batch", k, || sys.read_batch(&ep.full_read));
        ph.push("read_batch", since(t0));
        let wall = since(start);
        Self::cpu_end(&mut self.cpu, self.driver_tid);
        ph.record(ep.runs.iter().map(|r| r.events.len() as u64).sum(), wall);

        for ((kind, events), rep) in calls.iter().zip(&reps) {
            let mutations = events.iter().filter(|e| e.is_topo()).count();
            res.check(
                rep.total() == events.len() && rep.mutations == mutations,
                || {
                    format!(
                        "ingest took {} events ({} mutations) of {} ({mutations})",
                        rep.total(),
                        rep.mutations,
                        events.len()
                    )
                },
            );
            if *kind == "content" {
                ph.content_runs.push(events.clone());
            }
        }
        res.check_answers("churn full read", &ep.full_read, &full, &ep.full_expected);
        ph.units.push(self.next);
        self.next += 1;
    }
}

/// Build the system, timing the call. The process transport needs the
/// `eagr-shard-host` binary; its absence is an error, never a skipped
/// workload.
fn build_timed(w: Workload, g: &DataGraph) -> Result<(EagrSystem<Sum>, f64), String> {
    if w.transport() == Some(TransportKind::Process) {
        eagr::exec::transport::process::host_binary_path()
            .map_err(|e| format!("{}: {e}", w.name()))?;
    }
    let t = Instant::now();
    let sys = w.builder().build(g);
    let secs = since(t);
    require_hosts(w, &sys)?;
    Ok((sys, secs))
}

fn host_pids(sys: &EagrSystem<Sum>) -> Vec<u32> {
    sys.sharded_engine()
        .map(|e| e.host_pids())
        .unwrap_or_default()
}

/// Stop loudly unless the process transport really runs one host process
/// per shard.
fn require_hosts(w: Workload, sys: &EagrSystem<Sum>) -> Result<(), String> {
    let pids = host_pids(sys);
    if w.transport() == Some(TransportKind::Process) && pids.len() != SHARDS {
        return Err(format!(
            "{} expected {SHARDS} shard-host processes, found {}",
            w.name(),
            pids.len()
        ));
    }
    Ok(())
}

fn driver(w: Workload, scale: Scale, seed: u64, sys: EagrSystem<Sum>, g: &DataGraph) -> Driver {
    let source = match w {
        Workload::Firehose | Workload::FirehoseProc => {
            Source::Firehose(Firehose::new(g.id_bound(), seed, scale.batch, scale.reads))
        }
        Workload::Serve => Source::Serve(Serve::new(
            g.id_bound(),
            seed,
            scale.serve_ops,
            scale.batch,
            scale.handle_reads,
            scale.reads,
        )),
        Workload::Churn => Source::Churn(Churn::new(seed, scale.churn_epoch_events)),
    };
    Driver {
        scale,
        hosts: host_pids(&sys),
        sys,
        source,
        mirror: Mirror::new(g),
        next: 0,
        ts: 0,
        driver_tid: procstat::current_tid().unwrap_or(0),
        cpu: None,
    }
}

fn graph(w: Workload, scale: &Scale, seed: u64) -> DataGraph {
    social_graph(w.nodes(scale), 6, seed)
}

/// Call kinds with latency samples, and the facade call each times.
const LATENCY_KINDS: [(&str, &str); 8] = [
    ("ingest", "core.ingest"),
    ("content", "core.ingest content run"),
    ("topo", "core.ingest topology run"),
    ("read_batch", "core.read_batch"),
    ("write", "core.write"),
    ("read", "core.read"),
    ("attach", "core.attach"),
    ("detach", "core.detach"),
];

/// Log the median, p99 and sample count of one call kind, if it ran.
fn note_latency(res: &mut Results, ph: &mut Phase, kind: &str, label: &str) {
    let s = ph.summary(kind);
    if s.count == 0 {
        return;
    }
    let (scale, unit) = if s.median_or_zero() < 1e-3 {
        (1e6, "us")
    } else {
        (1e3, "ms")
    };
    res.lines
        .push(format!("latency {label} {}", s.describe(scale, unit)));
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(w: Workload, scale: Scale, seed: u64, seconds: f64) -> Result<Results, String> {
    let mut res = Results::default();
    let t = Instant::now();
    let g = graph(w, &scale, seed);
    let gen_graph_s = since(t);

    // Memory is measured from just before the first build: later builds
    // reuse pages the allocator kept from the earlier ones.
    let peak_reset = procstat::reset_peak_rss();
    let rss0 = procstat::status_kb("VmRSS").unwrap_or(0);
    let mut setups = Vec::with_capacity(scale.setup_reps);
    let mut sys = None;
    for _ in 0..scale.setup_reps {
        drop(sys.take());
        let (s, secs) = build_timed(w, &g)?;
        setups.push(secs);
        sys = Some(s);
    }
    let sys = sys.expect("at least one setup repetition");
    let setup = Summary::of(&mut setups);
    res.set("setup_s", setup.median_or_zero());
    res.lines
        .push(format!("setup build {}", setup.describe(1.0, "s")));

    let mut d = driver(w, scale, seed, sys, &g);
    let mut ph = d.phase(seconds, &mut res);
    res.set("events_per_s", ph.eps());
    res.set("ingest_p50_ms", ph.summary("ingest").median_or_zero() * 1e3);
    res.set(
        "read_batch_p50_us",
        ph.summary("read_batch").median_or_zero() * 1e6,
    );
    let hwm = procstat::status_kb("VmHWM").unwrap_or(0);
    res.set("peak_rss_mb", hwm.saturating_sub(rss0) as f64 / 1024.0);
    if !peak_reset {
        res.lines
            .push("note peak RSS mark could not be reset; peak_rss_mb includes set-up".into());
    }
    for (kind, label) in LATENCY_KINDS {
        note_latency(&mut res, &mut ph, kind, label);
    }
    res.lines.push(format!(
        "phase timed_s={:.3} events={} gen_s={:.3} graph_gen_s={gen_graph_s:.3} units={}",
        ph.wall_s,
        ph.events,
        ph.gen_s,
        ph.units.len()
    ));
    drop(d);
    Ok(res)
}

/// Stage times of a traced replay of the build pipeline through its
/// public calls (the same steps `SystemBuilder::build` takes).
fn replay_setup(w: Workload, g: &DataGraph, tr: &mut Tracer) {
    let q = EgoQuery::new(Sum);
    let engine = tr.scope("core.setup_replay", 0, |tr| {
        let ag = tr.span("graph.bipartite", 0, || {
            BipartiteGraph::build(g, &q.neighborhood, |_| true)
        });
        let (ov, _) = tr.span("overlay.build", 0, || {
            build_vnm(&ag, &VnmConfig::vnma(Sum.props()))
        });
        let rates = Rates::uniform(g.id_bound(), 1.0);
        let cost = CostModel::from_aggregate(&Sum);
        let writer_window = q.window.expected_size(1.0, 10_000.0).round().max(1.0) as usize;
        let p = tr.span("flow.plan", 0, || {
            plan(
                ov,
                &rates,
                &cost,
                &PlannerConfig {
                    algorithm: DecisionAlgorithm::MaxFlow,
                    split: true,
                    writer_window,
                    push_amplification: 2.0,
                },
            )
        });
        match w.transport() {
            Some(kind) => {
                let p = tr.span("flow.partition", 0, || p.with_auto_partition(SHARDS));
                let cfg = ShardedConfig::builder()
                    .shards(SHARDS)
                    .transport(kind)
                    .build();
                Some(tr.span("exec.runtime", 0, || {
                    ShardedEngine::from_plan(&p, Sum, q.window, &cfg)
                }))
            }
            None => {
                let core = tr.span("exec.runtime", 0, || {
                    EngineCore::new(Sum, Arc::new(p.overlay.clone()), &p.decisions, q.window)
                });
                drop(core);
                None
            }
        }
    });
    if let Some(e) = engine {
        e.shutdown();
    }
}

/// Work counters of the sharded engine and the topology path, at one
/// instant or summed over intervals.
#[derive(Default)]
struct Counters {
    epochs: u64,
    local: u64,
    cross: u64,
    reads_served: u64,
    rebalances: u64,
    migrated: u64,
    exec_topo_epochs: u64,
    per_shard_local: Vec<u64>,
    topo: TopoReport,
}

impl Counters {
    fn read(sys: &EagrSystem<Sum>) -> Counters {
        let topo = sys.registry_stats().topo;
        let Some(e) = sys.sharded_engine() else {
            return Counters {
                topo,
                ..Counters::default()
            };
        };
        Counters {
            epochs: e.epochs(),
            local: e.local_applies(),
            cross: e.cross_shard_deltas(),
            reads_served: e.reads_served(),
            rebalances: e.rebalances(),
            migrated: e.nodes_migrated(),
            exec_topo_epochs: e.topo_epochs(),
            per_shard_local: e.shard_stats().iter().map(|s| s.local_applies).collect(),
            topo,
        }
    }

    /// Add the change from `a` to `b`.
    fn add_delta(&mut self, a: &Counters, b: &Counters) {
        let d = |x: u64, y: u64| y.saturating_sub(x);
        self.epochs += d(a.epochs, b.epochs);
        self.local += d(a.local, b.local);
        self.cross += d(a.cross, b.cross);
        self.reads_served += d(a.reads_served, b.reads_served);
        self.rebalances += d(a.rebalances, b.rebalances);
        self.migrated += d(a.migrated, b.migrated);
        self.exec_topo_epochs += d(a.exec_topo_epochs, b.exec_topo_epochs);
        self.per_shard_local.resize(b.per_shard_local.len(), 0);
        for (i, &y) in b.per_shard_local.iter().enumerate() {
            self.per_shard_local[i] += d(a.per_shard_local.get(i).copied().unwrap_or(0), y);
        }
        let (t, ta, tb) = (&mut self.topo, &a.topo, &b.topo);
        t.epochs += d(ta.epochs, tb.epochs);
        t.applied += d(ta.applied, tb.applied);
        t.skipped += d(ta.skipped, tb.skipped);
        t.fresh_overlay_nodes += d(ta.fresh_overlay_nodes, tb.fresh_overlay_nodes);
        t.retired_overlay_nodes += d(ta.retired_overlay_nodes, tb.retired_overlay_nodes);
        t.rematerialized += d(ta.rematerialized, tb.rematerialized);
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
) -> Result<(Results, Tracer), String> {
    let mut res = Results::default();
    let mut tr = Tracer::new();
    let t = Instant::now();
    let g = graph(w, &scale, seed);
    let mut gen_s = since(t);

    replay_setup(w, &g, &mut tr);
    let (sys, setup_s) = build_timed(w, &g)?;
    let stage = |tr: &Tracer, n: &str| tr.total_s(n);
    let stages = [
        ("graph.bipartite_s", stage(&tr, "graph.bipartite")),
        ("overlay.build_s", stage(&tr, "overlay.build")),
        ("flow.plan_s", stage(&tr, "flow.plan")),
        ("flow.partition_s", stage(&tr, "flow.partition")),
        ("exec.runtime_s", stage(&tr, "exec.runtime")),
    ];
    for (name, v) in stages {
        res.set(name, v);
    }
    res.set(
        "core.setup_other_s",
        setup_s - stages.iter().map(|(_, v)| v).sum::<f64>(),
    );
    res.lines
        .push(format!("setup build {setup_s:.4}s (one build, traced run)"));
    let st = sys.stats();
    res.set("overlay.edges", st.overlay_edges as f64);
    res.set("overlay.partial_nodes", st.partial_nodes as f64);
    res.set("overlay.sharing_index", st.sharing_index);
    res.set("flow.push_nodes", st.push_nodes as f64);
    res.set("flow.splits", st.splits as f64);

    // Untraced and traced units alternate until each side has a third of
    // the budget, so warm-up and drift fall on both alike; their rate
    // ratio is the tracing overhead. Counters and CPU cover traced units
    // only.
    let mut d = driver(w, scale, seed, sys, &g);
    let third = seconds / 3.0;
    let mut untraced = Phase::default();
    let mut ph = Phase::default();
    let mut cpu = CpuMeter::default();
    let mut counters = Counters::default();
    while untraced.wall_s < third || ph.wall_s < third {
        d.step(&mut untraced, None, &mut res);
        let before = Counters::read(&d.sys);
        d.cpu = Some(cpu);
        d.step(&mut ph, Some(&mut tr), &mut res);
        cpu = d.cpu.take().expect("meter installed above");
        counters.add_delta(&before, &Counters::read(&d.sys));
    }
    gen_s += untraced.gen_s + ph.gen_s;
    res.set("trace.overhead_frac", 1.0 - ph.eps() / untraced.eps());
    // Latency tails pool both sides: the calls are the same, and one
    // side alone is too short for a p99.
    for (kind, samples) in std::mem::take(&mut untraced.lat) {
        ph.lat.entry(kind).or_default().extend(samples);
    }
    let (ex, tc) = (&counters, &counters.topo);

    // Facade-side times and tails.
    let core_ingest_s = tr.total_s("core.ingest");
    res.set("core.ingest_s", core_ingest_s);
    res.set(
        "core.ingest_p99_ms",
        ph.summary("ingest").tail_or_zero() * 1e3,
    );
    res.set(
        "core.read_batch_p99_us",
        ph.summary("read_batch").tail_or_zero() * 1e6,
    );
    let write = ph.summary("write");
    let read = ph.summary("read");
    res.set("core.write_p50_us", write.median_or_zero() * 1e6);
    res.set("core.write_p99_us", write.tail_or_zero() * 1e6);
    res.set("core.read_p50_us", read.median_or_zero() * 1e6);
    res.set("core.read_p99_us", read.tail_or_zero() * 1e6);
    res.set(
        "core.attach_p50_ms",
        ph.summary("attach").median_or_zero() * 1e3,
    );
    res.set(
        "core.detach_p50_ms",
        ph.summary("detach").median_or_zero() * 1e3,
    );
    let n_att = ph.attach_reports.len().max(1) as f64;
    let mean = |f: &dyn Fn(&AttachReport) -> f64| {
        ph.attach_reports.iter().map(f).fold(0.0, |a, b| a + b) / n_att
    };
    res.set(
        "core.attach_materialized",
        mean(&|r| r.materialized() as f64),
    );
    res.set("core.attach_reuse_fraction", mean(&|r| r.reuse_fraction()));
    res.set(
        "core.attach_backfilled_writers",
        mean(&|r| r.backfilled_writers as f64),
    );
    res.set("core.attach_cold_writers", mean(&|r| r.cold_writers as f64));
    let topo = ph.summary("topo");
    let topo_s = tr.total_s("core.topo");
    res.set("core.topo_p50_ms", topo.median_or_zero() * 1e3);
    res.set("core.topo_p99_ms", topo.tail_or_zero() * 1e3);
    res.set("core.topo_s", topo_s);
    res.set("core.content_s", core_ingest_s);
    res.set("core.topo_share", topo_s / ph.wall_s);
    let applied = tc.applied;
    res.set(
        "core.topo_ms_per_mutation",
        if applied > 0 {
            topo_s * 1e3 / applied as f64
        } else {
            0.0
        },
    );
    res.set("core.topo_epochs", tc.epochs as f64);
    res.set("core.topo_applied", applied as f64);
    res.set("core.topo_skipped", tc.skipped as f64);
    res.set(
        "core.topo_fresh_overlay_nodes",
        tc.fresh_overlay_nodes as f64,
    );
    res.set(
        "core.topo_retired_overlay_nodes",
        tc.retired_overlay_nodes as f64,
    );
    res.set("core.topo_rematerialized", tc.rematerialized as f64);

    // Sharded counters over the traced phase.
    let ev = ph.events.max(1) as f64;
    let (local, cross) = (ex.local, ex.cross);
    res.set("exec.epochs", ex.epochs as f64);
    res.set("exec.local_applies", local as f64);
    res.set("exec.cross_shard_deltas", cross as f64);
    res.set("exec.applies_per_event", local as f64 / ev);
    res.set(
        "exec.cross_frac",
        if local > 0 {
            cross as f64 / local as f64
        } else {
            0.0
        },
    );
    let per_shard = &ex.per_shard_local;
    let mean_local = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
    res.set(
        "exec.shard_skew",
        if mean_local > 0.0 {
            *per_shard.iter().max().unwrap_or(&0) as f64 / mean_local
        } else {
            0.0
        },
    );
    res.set("exec.rebalances", ex.rebalances as f64);
    res.set("exec.nodes_migrated", ex.migrated as f64);
    res.set("exec.reads_served", ex.reads_served as f64);
    res.set("exec.topo_epochs", ex.exec_topo_epochs as f64);

    res.set("core.driver_busy_frac", cpu.busy_frac("driver"));
    res.set("exec.worker_busy_frac", cpu.busy_frac("worker"));
    res.set("exec.relay_busy_frac", cpu.busy_frac("relay"));
    res.set("exec.host_busy_frac", cpu.host_busy_frac());
    res.set("exec.host_processes", d.hosts.len() as f64);

    // Direct probes of the exec layer on the same inputs.
    let t = Instant::now();
    match &d.source {
        Source::Serve(gen) => {
            let (write_us, read_us, ppw, ppr) = core_probe(&d.sys, gen, &ph.units, &mut tr);
            res.set("exec.write_p50_us", write_us);
            res.set("exec.read_p50_us", read_us);
            res.set(
                "core.write_overhead_us",
                write.median_or_zero() * 1e6 - write_us,
            );
            res.set(
                "core.read_overhead_us",
                read.median_or_zero() * 1e6 - read_us,
            );
            res.set("exec.pushes_per_write", ppw);
            res.set("exec.pulls_per_read", ppr);
        }
        source => {
            let batches: Vec<(Vec<Event>, Vec<NodeId>)> = match source {
                Source::Firehose(gen) => ph
                    .units
                    .iter()
                    .map(|&k| (gen.writes(k), gen.reads(k)))
                    .collect(),
                _ => std::mem::take(&mut ph.content_runs)
                    .into_iter()
                    .map(|e| (e, Vec::new()))
                    .collect(),
            };
            let kind = w.transport().expect("sharded workload");
            sharded_probe(&d.sys, kind, &batches, &mut tr);
            res.set("exec.write_p50_us", 0.0);
            res.set("exec.read_p50_us", 0.0);
            res.set("core.write_overhead_us", 0.0);
            res.set("core.read_overhead_us", 0.0);
            res.set("exec.pushes_per_write", 0.0);
            res.set("exec.pulls_per_read", 0.0);
        }
    }
    let probe_s = since(t);
    let ingest_at_s = tr.total_s("exec.ingest_at");
    let drain_s = tr.total_s("exec.drain");
    res.set("exec.ingest_at_s", ingest_at_s);
    res.set("exec.drain_s", drain_s);
    res.set("exec.read_batch_s", tr.total_s("exec.read_batch"));
    res.set(
        "core.ingest_overhead_s",
        core_ingest_s - ingest_at_s - drain_s,
    );
    res.set("gen.s", gen_s);
    res.set("trace.spans", tr.span_count() as f64);

    for (kind, label) in LATENCY_KINDS {
        note_latency(&mut res, &mut ph, kind, label);
    }
    res.lines.push(format!(
        "phase untraced_s={:.3} untraced_events={} traced_s={:.3} traced_events={} probe_s={probe_s:.3} cpu_wall_s={:.3}",
        untraced.wall_s, untraced.events, ph.wall_s, ph.events, cpu.wall_s
    ));
    for (name, t) in tr.totals() {
        res.lines.push(format!(
            "span {name} count={} total_s={:.6} self_s={:.6}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        ));
    }
    drop(d);
    Ok((res, tr))
}

/// The firehose/churn content batches, replayed straight into a sharded
/// engine built from the system's plan: `ingest_at`, then `drain`, then
/// the round's `read_batch`.
fn sharded_probe(
    sys: &EagrSystem<Sum>,
    kind: TransportKind,
    batches: &[(Vec<Event>, Vec<NodeId>)],
    tr: &mut Tracer,
) {
    let cfg = ShardedConfig::builder()
        .shards(SHARDS)
        .transport(kind)
        .build();
    let eng = ShardedEngine::from_plan(sys.plan(), Sum, WindowSpec::Tuple(1), &cfg);
    let mut ts = 0;
    for (k, (events, reads)) in (0u64..).zip(batches) {
        tr.span("exec.ingest_at", k, || eng.ingest_at(events, ts))
            .expect("probe ingest_at");
        tr.span("exec.drain", k, || eng.drain())
            .expect("probe drain");
        if !reads.is_empty() {
            tr.span("exec.read_batch", k, || eng.read_batch(reads))
                .expect("probe read_batch");
        }
        ts += events.len() as u64;
    }
    eng.shutdown();
}

/// The serve point calls, replayed straight into an `EngineCore` built
/// from the system's plan. Returns (write p50 µs, read p50 µs, pushes per
/// write, pulls per read).
fn core_probe(
    sys: &EagrSystem<Sum>,
    gen: &Serve,
    blocks: &[u64],
    tr: &mut Tracer,
) -> (f64, f64, f64, f64) {
    let p = sys.plan();
    let core = EngineCore::new(
        Sum,
        Arc::new(p.overlay.clone()),
        &p.decisions,
        WindowSpec::Tuple(1),
    );
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let mut ts = 0;
    for &k in blocks {
        for op in gen.ops(k) {
            let t0 = Instant::now();
            match op {
                Op::Write(v, value) => {
                    core.write(v, value, ts);
                    ts += 1;
                    let d = t0.elapsed();
                    tr.aggregate("exec.write", d.as_nanos() as u64);
                    writes.push(d.as_secs_f64());
                }
                Op::Read(v) => {
                    std::hint::black_box(core.read(v));
                    let d = t0.elapsed();
                    tr.aggregate("exec.read", d.as_nanos() as u64);
                    reads.push(d.as_secs_f64());
                }
            }
        }
    }
    let pulls: u64 = core.observed_pull_counts().iter().sum();
    let per = |x: f64, n: usize| if n > 0 { x / n as f64 } else { 0.0 };
    (
        Summary::of(&mut writes).median_or_zero() * 1e6,
        Summary::of(&mut reads).median_or_zero() * 1e6,
        per(core.total_pushes() as f64, writes.len()),
        per(pulls as f64, reads.len()),
    )
}
