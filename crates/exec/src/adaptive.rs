//! Runtime adaptation of dataflow decisions (§4.8).
//!
//! [`AdaptiveEngine`] wraps an [`EngineCore`] — over any PAO store, like
//! the core itself — and periodically re-evaluates
//! the push/pull frontier against the *observed* push/pull frequencies the
//! core collects. A flip is applied through
//! [`EngineCore::set_decision`], which materializes (pull→push) or clears
//! (push→pull) the node's PAO.

use crate::core::EngineCore;
use crate::store::{LockedStore, PaoStore};
use eagr_agg::{Aggregate, CostModel};
use eagr_graph::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Adaptive wrapper: processes events and re-plans the frontier every
/// `check_every` operations.
pub struct AdaptiveEngine<
    A: Aggregate,
    S: PaoStore<A::Partial> = LockedStore<<A as Aggregate>::Partial>,
> {
    core: Arc<EngineCore<A, S>>,
    cost: CostModel,
    writer_window: usize,
    check_every: u64,
    ops: AtomicU64,
    flips_total: AtomicU64,
}

impl<A: Aggregate, S: PaoStore<A::Partial>> AdaptiveEngine<A, S> {
    /// Wrap a core with an adaptation period (in processed operations).
    pub fn new(
        core: Arc<EngineCore<A, S>>,
        cost: CostModel,
        writer_window: usize,
        check_every: u64,
    ) -> Self {
        assert!(check_every > 0);
        Self {
            core,
            cost,
            writer_window,
            check_every,
            ops: AtomicU64::new(0),
            flips_total: AtomicU64::new(0),
        }
    }

    /// The wrapped core.
    pub fn core(&self) -> &Arc<EngineCore<A, S>> {
        &self.core
    }

    /// Process a write; may trigger adaptation.
    pub fn write(&self, v: NodeId, value: i64, ts: u64) -> usize {
        let n = self.core.write(v, value, ts);
        self.tick();
        n
    }

    /// Process a read; may trigger adaptation.
    pub fn read(&self, v: NodeId) -> Option<A::Output> {
        let out = self.core.read(v);
        self.tick();
        out
    }

    fn tick(&self) {
        let prev = self.ops.fetch_add(1, Ordering::Relaxed);
        if (prev + 1) % self.check_every == 0 {
            self.adapt_now();
        }
    }

    /// Re-evaluate the frontier immediately. Returns the number of flips.
    pub fn adapt_now(&self) -> usize {
        let observed = self.core.observed_frequencies();
        let mut decisions = self.core.decisions();
        let flips = eagr_flow::adapt_frontier(
            self.core.overlay(),
            &mut decisions,
            &observed,
            &self.cost,
            self.writer_window,
        );
        if flips > 0 {
            for n in self.core.overlay().ids() {
                let want = decisions.is_push(n);
                if want != self.core.is_push(n) {
                    self.core.set_decision(n, want);
                }
            }
        }
        self.core.reset_observed();
        self.flips_total.fetch_add(flips as u64, Ordering::Relaxed);
        flips
    }

    /// Total decision flips performed so far.
    pub fn total_flips(&self) -> u64 {
        self.flips_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_agg::{Sum, WindowSpec};
    use eagr_flow::Decisions;
    use eagr_graph::{paper_example_graph, BipartiteGraph, Neighborhood};
    use eagr_overlay::Overlay;

    fn adaptive_engine(check_every: u64) -> AdaptiveEngine<Sum> {
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        // Start from the *wrong* plan for a read-heavy workload: all pull.
        let d = Decisions::all_pull(&ov);
        let core = Arc::new(EngineCore::new(Sum, ov, &d, WindowSpec::Tuple(1)));
        AdaptiveEngine::new(core, CostModel::unit_sum(), 1, check_every)
    }

    #[test]
    fn adapts_to_read_heavy_workload() {
        let eng = adaptive_engine(100);
        // Seed some state then hammer reads.
        for v in 0..7u32 {
            eng.write(NodeId(v), v as i64, v as u64);
        }
        for i in 0..500u32 {
            eng.read(NodeId(i % 7));
        }
        assert!(
            eng.total_flips() > 0,
            "read-heavy load must flip pulls to pushes"
        );
        // Results stay correct after adaptation.
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        for (i, r, inputs) in ag.iter() {
            let _ = i;
            let want: i64 = inputs.iter().map(|w| w.0 as i64).sum();
            assert_eq!(eng.read(NodeId(r.0)), Some(want), "reader {r:?}");
        }
    }

    #[test]
    fn stable_after_convergence() {
        let eng = adaptive_engine(50);
        for v in 0..7u32 {
            eng.write(NodeId(v), 1, v as u64);
        }
        for i in 0..1000u32 {
            eng.read(NodeId(i % 7));
        }
        let flips_mid = eng.total_flips();
        for i in 0..1000u32 {
            eng.read(NodeId(i % 7));
        }
        // Once converged to all-push for a read-only load, nothing flips
        // back and forth.
        assert_eq!(eng.total_flips(), flips_mid);
    }
}
