//! A naive reference evaluator ("on-demand traversal" of §1).
//!
//! [`NaiveOracle`] maintains per-writer windows and answers reads by
//! folding the raw in-window values of `N(v)` on every query — no sharing,
//! no pre-computation, no overlay. It is the ground truth the engine tests
//! compare against, and doubles as the conceptual model of the naive
//! approach the paper argues is "unlikely to scale".

use eagr_agg::{Aggregate, WindowBuffer, WindowSpec};
use eagr_gen::Event;
use eagr_graph::{DataGraph, Neighborhood, NodeId};
use eagr_util::FastMap;

/// Ground-truth evaluator for an ego-centric aggregate query.
pub struct NaiveOracle<A: Aggregate> {
    agg: A,
    window: WindowSpec,
    neighborhood: Neighborhood,
    windows: FastMap<u32, WindowBuffer>,
}

impl<A: Aggregate> NaiveOracle<A> {
    /// New oracle for ⟨F, w, N⟩.
    pub fn new(agg: A, window: WindowSpec, neighborhood: Neighborhood) -> Self {
        Self {
            agg,
            window,
            neighborhood,
            windows: FastMap::default(),
        }
    }

    /// Record a write.
    pub fn write(&mut self, v: NodeId, value: i64, ts: u64) {
        let mut sink = Vec::new();
        self.windows
            .entry(v.0)
            .or_insert_with(|| WindowBuffer::new(self.window))
            .push(ts, value, &mut sink);
    }

    /// Advance time (time-based windows).
    pub fn advance_time(&mut self, ts: u64) {
        let mut sink = Vec::new();
        for w in self.windows.values_mut() {
            w.advance(ts, &mut sink);
            sink.clear();
        }
    }

    /// Replay a facade event stream against the oracle and `g`, a mirror
    /// of the system's data graph: event `i` carries timestamp
    /// `base_ts + i`, writes enter the windows, topology mutations edit
    /// `g`, reads change nothing. Mutations must be valid at their stream
    /// position, as [`eagr_gen::churn_stream`] emits them.
    pub fn ingest(&mut self, g: &mut DataGraph, events: &[Event], base_ts: u64) {
        for (i, e) in events.iter().enumerate() {
            match *e {
                Event::Write { node, value } => self.write(node, value, base_ts + i as u64),
                Event::Read { .. } => {}
                Event::AddEdge { from, to } => {
                    g.add_edge(from, to);
                }
                Event::RemoveEdge { from, to } => {
                    g.remove_edge(from, to);
                }
                Event::AddNode { node } => {
                    while g.id_bound() <= node.idx() {
                        g.add_node();
                    }
                }
                Event::RemoveNode { node } => g.remove_node(node),
            }
        }
    }

    /// The first of `nodes` whose engine answer (`answers[i]` answers
    /// `nodes[i]`, as a batch read returns them) disagrees with the oracle
    /// over `g`. An answer agrees when it equals the fold over the node's
    /// neighborhood, or when it is absent and that neighborhood is empty —
    /// the overlay has no reader there.
    pub fn mismatch(
        &self,
        g: &DataGraph,
        nodes: &[NodeId],
        answers: &[Option<A::Output>],
    ) -> Option<NodeId> {
        assert_eq!(nodes.len(), answers.len(), "one answer per node");
        nodes
            .iter()
            .zip(answers)
            .find(|&(&v, got)| match got {
                Some(got) => *got != self.read(g, v),
                None => !self.neighborhood.select(g, v).is_empty(),
            })
            .map(|(&v, _)| v)
    }

    /// Evaluate the query at `v` from scratch.
    pub fn read(&self, g: &DataGraph, v: NodeId) -> A::Output {
        let mut p = self.agg.empty();
        for u in self.neighborhood.select(g, v) {
            if let Some(w) = self.windows.get(&u.0) {
                for val in w.values() {
                    self.agg.insert(&mut p, val);
                }
            }
        }
        self.agg.finalize(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_agg::{Max, Sum};
    use eagr_graph::paper_example_graph;

    #[test]
    fn oracle_reproduces_paper_numbers() {
        let g = paper_example_graph();
        let mut o = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        let streams: [(u32, &[i64]); 7] = [
            (0, &[1, 4]),
            (1, &[3, 7]),
            (2, &[6, 9]),
            (3, &[8, 4, 3]),
            (4, &[5, 9, 1]),
            (5, &[3, 6, 6]),
            (6, &[5]),
        ];
        let mut ts = 0;
        for (node, vals) in streams {
            for &v in vals {
                o.write(NodeId(node), v, ts);
                ts += 1;
            }
        }
        let want = [19, 10, 30, 30, 23, 30, 30];
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(o.read(&g, NodeId(v as u32)), w);
        }
    }

    #[test]
    fn oracle_with_max_and_wider_window() {
        let g = paper_example_graph();
        let mut o = NaiveOracle::new(Max, WindowSpec::Tuple(2), Neighborhood::In);
        o.write(NodeId(2), 100, 0);
        o.write(NodeId(2), 1, 1);
        o.write(NodeId(2), 2, 2); // 100 expired; window = {1, 2}
        assert_eq!(o.read(&g, NodeId(0)), Some(2));
    }

    #[test]
    fn time_advance() {
        let g = paper_example_graph();
        let mut o = NaiveOracle::new(Sum, WindowSpec::Time(10), Neighborhood::In);
        o.write(NodeId(2), 5, 0);
        o.advance_time(100);
        assert_eq!(o.read(&g, NodeId(0)), 0);
    }
}
