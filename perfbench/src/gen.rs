//! Workload inputs, generated from the seed before each timed stretch,
//! together with the answers the program must return. Expected answers
//! come from [`NaiveOracle`] over the generator's own mirror of the data
//! graph, never from the system under test.

use eagr::agg::{Aggregate, Sum, WindowSpec};
use eagr::gen::{churn_stream, ChurnConfig, Event};
use eagr::graph::{DataGraph, Neighborhood, NodeId};
use eagr::util::{SplitMix64, Zipf};
use eagr::NaiveOracle;

/// Distinct write values.
const VALUE_UNIVERSE: u64 = 1000;

/// The answer SUM gives over an empty neighborhood; a `None` from the
/// system is correct only where the oracle says this.
pub fn empty_answer() -> i64 {
    Sum.finalize(&Sum.empty())
}

/// Whether the system's answer matches the oracle's.
pub fn matches(got: Option<i64>, want: i64) -> bool {
    match got {
        Some(g) => g == want,
        None => want == empty_answer(),
    }
}

/// A deterministic RNG for item `k` of stream `stream`, so any chunk can
/// be regenerated on its own.
fn rng_for(seed: u64, stream: u64, k: u64) -> SplitMix64 {
    let mut base = SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(base.next_u64() ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Zipf(1.0)-ranked node sampler. Which node holds which rank is a seeded
/// permutation, rotated by a fresh offset for every batch of samples: the
/// hot set drifts the way trending items do, and a run averages over many
/// hot sets instead of hinging on which node one seed made the heaviest.
pub struct ZipfNodes {
    zipf: Zipf,
    ranks: Vec<u32>,
}

impl ZipfNodes {
    /// Sampler over nodes `0..n`.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut ranks: Vec<u32> = (0..n as u32).collect();
        SplitMix64::new(seed).shuffle(&mut ranks);
        Self {
            zipf: Zipf::new(n, 1.0),
            ranks,
        }
    }

    /// A random rotation of the hot set.
    pub fn shift(&self, rng: &mut SplitMix64) -> usize {
        rng.index(self.ranks.len())
    }

    /// One node under the hot set rotated by `shift`.
    pub fn sample(&self, rng: &mut SplitMix64, shift: usize) -> NodeId {
        NodeId(self.ranks[(self.zipf.sample(rng) + shift) % self.ranks.len()])
    }
}

/// The generator's view of the graph and of every value written so far.
pub struct Mirror {
    /// Mirror of the data graph, mutated in stream order.
    pub graph: DataGraph,
    oracle: NaiveOracle<Sum>,
    ts: u64,
}

impl Mirror {
    /// Mirror of `g` with nothing written.
    pub fn new(g: &DataGraph) -> Self {
        Self {
            graph: g.clone(),
            oracle: NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In),
            ts: 0,
        }
    }

    /// Apply one stream event.
    pub fn apply(&mut self, e: &Event) {
        match *e {
            Event::Write { node, value } => self.oracle.write(node, value, self.ts),
            Event::Read { .. } => {}
            Event::AddEdge { from, to } => {
                self.graph.add_edge(from, to);
            }
            Event::RemoveEdge { from, to } => {
                self.graph.remove_edge(from, to);
            }
            Event::AddNode { node } => {
                while self.graph.id_bound() <= node.idx() {
                    self.graph.add_node();
                }
            }
            Event::RemoveNode { node } => self.graph.remove_node(node),
        }
        self.ts += 1;
    }

    /// The oracle's answers at `nodes`.
    pub fn answers(&self, nodes: &[NodeId]) -> Vec<i64> {
        nodes
            .iter()
            .map(|&v| self.oracle.read(&self.graph, v))
            .collect()
    }
}

/// `firehose`: rounds of one `batch`-write ingest followed by one
/// `read_batch` of `reads` Zipf-chosen nodes.
pub struct Firehose {
    seed: u64,
    writers: ZipfNodes,
    readers: ZipfNodes,
    batch: usize,
    reads: usize,
}

/// One firehose round with its expected answers.
pub struct Round {
    /// Events of the ingest call.
    pub events: Vec<Event>,
    /// Nodes of the read_batch call.
    pub reads: Vec<NodeId>,
    /// Oracle answers for `reads` after `events`.
    pub expected: Vec<i64>,
}

impl Firehose {
    /// Generator over a graph of `n` nodes.
    pub fn new(n: usize, seed: u64, batch: usize, reads: usize) -> Self {
        Self {
            seed,
            writers: ZipfNodes::new(n, seed ^ 0x11),
            readers: ZipfNodes::new(n, seed ^ 0x22),
            batch,
            reads,
        }
    }

    /// The writes of round `k` (a pure function of the seed and `k`).
    pub fn writes(&self, k: u64) -> Vec<Event> {
        let mut rng = rng_for(self.seed, 1, k);
        let shift = self.writers.shift(&mut rng);
        (0..self.batch)
            .map(|_| Event::Write {
                node: self.writers.sample(&mut rng, shift),
                value: rng.next_below(VALUE_UNIVERSE) as i64,
            })
            .collect()
    }

    /// The read set of round `k`.
    pub fn reads(&self, k: u64) -> Vec<NodeId> {
        let mut rng = rng_for(self.seed, 2, k);
        let shift = self.readers.shift(&mut rng);
        (0..self.reads)
            .map(|_| self.readers.sample(&mut rng, shift))
            .collect()
    }

    /// Round `k` with expected answers, advancing the mirror.
    pub fn round(&self, k: u64, mirror: &mut Mirror) -> Round {
        let events = self.writes(k);
        for e in &events {
            mirror.apply(e);
        }
        let reads = self.reads(k);
        let expected = mirror.answers(&reads);
        Round {
            events,
            reads,
            expected,
        }
    }
}

/// One point call of `serve`.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `write(node, value)`.
    Write(NodeId, i64),
    /// `read(node)`.
    Read(NodeId),
}

/// `serve`: blocks of point calls (1:1 writes:reads), each followed by one
/// attach → handle `read_batch` × `handle_reads` → detach cycle and one
/// `batch`-write ingest.
pub struct Serve {
    seed: u64,
    nodes: ZipfNodes,
    ops: usize,
    batch: usize,
    handle_reads: usize,
    read_batch: usize,
}

/// The modulus of the attached query's reader filter: it serves every
/// node whose id is a multiple of this.
pub const ATTACH_EVERY: u32 = 4;

/// One serve block with its expected answers.
pub struct Block {
    /// Point calls in order.
    pub ops: Vec<Op>,
    /// Oracle answer of each `Op::Read`, in order.
    pub read_expected: Vec<i64>,
    /// Read sets of the handle's read_batch calls.
    pub handle_reads: Vec<Vec<NodeId>>,
    /// Oracle answers for `handle_reads` (after `ops`).
    pub handle_expected: Vec<Vec<i64>>,
    /// Writes ingested after the attach cycle.
    pub ingest: Vec<Event>,
}

impl Serve {
    /// Generator over a graph of `n` nodes.
    pub fn new(
        n: usize,
        seed: u64,
        ops: usize,
        batch: usize,
        handle_reads: usize,
        read_batch: usize,
    ) -> Self {
        Self {
            seed,
            nodes: ZipfNodes::new(n, seed ^ 0x33),
            ops,
            batch,
            handle_reads,
            read_batch,
        }
    }

    /// The point calls of block `k` (a pure function of the seed and `k`).
    pub fn ops(&self, k: u64) -> Vec<Op> {
        let mut rng = rng_for(self.seed, 3, k);
        let shift = self.nodes.shift(&mut rng);
        (0..self.ops)
            .map(|i| {
                let v = self.nodes.sample(&mut rng, shift);
                if i % 2 == 0 {
                    Op::Write(v, rng.next_below(VALUE_UNIVERSE) as i64)
                } else {
                    Op::Read(v)
                }
            })
            .collect()
    }

    /// Block `k` with expected answers, advancing the mirror.
    pub fn block(&self, k: u64, mirror: &mut Mirror) -> Block {
        let ops = self.ops(k);
        let mut read_expected = Vec::with_capacity(ops.len() / 2);
        for op in &ops {
            match *op {
                Op::Write(node, value) => mirror.apply(&Event::Write { node, value }),
                Op::Read(v) => read_expected.push(mirror.answers(&[v])[0]),
            }
        }
        let mut rng = rng_for(self.seed, 4, k);
        let shift = self.nodes.shift(&mut rng);
        let handle_reads: Vec<Vec<NodeId>> = (0..self.handle_reads)
            .map(|_| {
                (0..self.read_batch)
                    .map(|_| {
                        let v = self.nodes.sample(&mut rng, shift).0;
                        NodeId(v - v % ATTACH_EVERY)
                    })
                    .collect()
            })
            .collect();
        let handle_expected = handle_reads.iter().map(|r| mirror.answers(r)).collect();
        let ingest: Vec<Event> = (0..self.batch)
            .map(|_| Event::Write {
                node: self.nodes.sample(&mut rng, shift),
                value: rng.next_below(VALUE_UNIVERSE) as i64,
            })
            .collect();
        for e in &ingest {
            mirror.apply(e);
        }
        Block {
            ops,
            read_expected,
            handle_reads,
            handle_expected,
            ingest,
        }
    }
}

/// `churn`: one `churn_stream` epoch per chunk, split into maximal content
/// and topology runs.
pub struct Churn {
    seed: u64,
    epoch_events: usize,
}

/// One maximal run of a churn epoch.
pub struct Run {
    /// The run's events (all content or all topology).
    pub events: Vec<Event>,
    /// Whether the run is topology mutations.
    pub topo: bool,
}

/// One churn epoch with its expected answers.
pub struct Epoch {
    /// The epoch's runs in stream order.
    pub runs: Vec<Run>,
    /// Every live node at the end of the epoch.
    pub full_read: Vec<NodeId>,
    /// Oracle answers for `full_read`.
    pub full_expected: Vec<i64>,
}

impl Churn {
    /// Generator with `epoch_events` content events per epoch.
    pub fn new(seed: u64, epoch_events: usize) -> Self {
        Self { seed, epoch_events }
    }

    /// Epoch `k` generated against the mirror's current graph (1% edge
    /// churn, 15% of it node churn), advancing the mirror.
    pub fn epoch(&self, k: u64, mirror: &mut Mirror) -> Epoch {
        let stream = churn_stream(
            &mirror.graph,
            &ChurnConfig {
                epochs: 1,
                epoch_events: self.epoch_events,
                churn_fraction: 0.01,
                node_churn: 0.15,
                seed: rng_for(self.seed, 5, k).next_u64(),
                ..ChurnConfig::default()
            },
        );
        let events = stream.into_iter().next().unwrap_or_default();
        for e in &events {
            mirror.apply(e);
        }
        let runs = events
            .chunk_by(|a, b| a.is_topo() == b.is_topo())
            .map(|run| Run {
                events: run.to_vec(),
                topo: run[0].is_topo(),
            })
            .collect();
        let full_read: Vec<NodeId> = mirror.graph.nodes().collect();
        let full_expected = mirror.answers(&full_read);
        Epoch {
            runs,
            full_read,
            full_expected,
        }
    }
}
