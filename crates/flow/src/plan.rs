//! One-call dataflow planning: frequencies → costs → decisions → optional
//! node splitting.
//!
//! [`plan`] is what the execution layer and the benches call; it bundles
//! the §4 pipeline with the §5.1 baseline policies.

use crate::adaptive;
use crate::decide::{
    decide_maxflow, node_costs, propagate_frequencies, Decisions, Frequencies, PruneStats, Rates,
};
use crate::greedy::decide_greedy;
use crate::split::split_for_partial_precomputation;
use eagr_agg::CostModel;
use eagr_graph::{
    edge_cut_partition, refine_partition, EdgeCutConfig, Partition, PartitionStrategy, Partitioner,
    RefineConfig, RefineStats, ShardId, DEFAULT_CHUNK_SIZE,
};
use eagr_overlay::{Overlay, OverlayKind, PushEdgeView};

/// Which decision procedure to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionAlgorithm {
    /// Exact min-cut solution (§4.4) with pruning (§4.5).
    MaxFlow,
    /// Linear-time greedy (§4.6).
    Greedy,
    /// Everything push (CEP-style baseline).
    AllPush,
    /// Readers/partials pull (social-network-style baseline).
    AllPull,
}

/// Planner configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Decision procedure.
    pub algorithm: DecisionAlgorithm,
    /// Apply §4.7 node splitting after deciding.
    pub split: bool,
    /// Expected in-window values per writer (cost of writer pushes/pulls).
    pub writer_window: usize,
    /// Delta ops generated per write event. Once a sliding window is warm,
    /// every write produces an insert *and* an expiry removal, so pushes
    /// cost ≈2 ops each; planning with the raw write rate would undercount
    /// push work and over-push.
    pub push_amplification: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            algorithm: DecisionAlgorithm::MaxFlow,
            split: true,
            writer_window: 1,
            push_amplification: 2.0,
        }
    }
}

/// A fully planned overlay: the (possibly split-augmented) overlay, its
/// decisions, and diagnostics.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The overlay (ownership moves here because splitting mutates it).
    pub overlay: Overlay,
    /// Push/pull decision per overlay node.
    pub decisions: Decisions,
    /// Planning-time frequencies (extended for split nodes).
    pub freqs: Frequencies,
    /// Pruning stats from the max-flow path (defaults for other
    /// algorithms).
    pub prune: PruneStats,
    /// Number of §4.7 splits applied.
    pub splits: usize,
    /// Overlay edge count before splitting (splitting trades edges for
    /// computation, so the §3.1 sharing index is defined pre-split).
    pub pre_split_edges: usize,
    /// Sharing index of the overlay as constructed (pre-split).
    pub pre_split_sharing_index: f64,
    /// Modeled total cost of the final decisions.
    pub modeled_cost: f64,
    /// Node→shard assignment for sharded execution, if one has been
    /// attached with [`Plan::with_partition`]. Carried on the plan so the
    /// planner and every engine instantiated from the plan agree on shard
    /// ownership.
    pub partition: Option<Partition>,
}

/// Run the §4 pipeline on an overlay.
pub fn plan(mut overlay: Overlay, rates: &Rates, cost: &CostModel, cfg: &PlannerConfig) -> Plan {
    let eff_rates = Rates {
        read: rates.read.clone(),
        write: rates
            .write
            .iter()
            .map(|w| w * cfg.push_amplification.max(1.0))
            .collect(),
    };
    let mut freqs = propagate_frequencies(&overlay, &eff_rates);
    let costs = node_costs(&overlay, &freqs, cost, cfg.writer_window);
    let (mut decisions, prune) = match cfg.algorithm {
        DecisionAlgorithm::MaxFlow => {
            let out = decide_maxflow(&overlay, &costs);
            (out.decisions, out.prune)
        }
        DecisionAlgorithm::Greedy => (decide_greedy(&overlay, &costs), PruneStats::default()),
        DecisionAlgorithm::AllPush => (Decisions::all_push(&overlay), PruneStats::default()),
        DecisionAlgorithm::AllPull => (Decisions::all_pull(&overlay), PruneStats::default()),
    };
    let pre_split_edges = overlay.edge_count();
    let pre_split_sharing_index = overlay.sharing_index();
    let splits = if cfg.split && cfg.algorithm != DecisionAlgorithm::AllPush {
        split_for_partial_precomputation(&mut overlay, &mut decisions, &mut freqs, cost)
    } else {
        0
    };
    let final_costs = node_costs(&overlay, &freqs, cost, cfg.writer_window);
    let modeled_cost = decisions.total_cost(&overlay, &final_costs);
    Plan {
        overlay,
        decisions,
        freqs,
        prune,
        splits,
        pre_split_edges,
        pre_split_sharing_index,
        modeled_cost,
        partition: None,
    }
}

impl Plan {
    /// Attach a node→shard partition over this plan's overlay, for sharded
    /// execution. Partitioning happens *after* §4.7 splitting so split
    /// nodes are covered too. [`PartitionStrategy::EdgeCut`] derives the
    /// map from the plan's own push topology and frequencies (see
    /// [`push_view`](Self::push_view)); the index-based strategies go
    /// through a plain [`Partitioner`].
    /// Whatever the strategy, a read-locality pass then co-locates every
    /// pull reader with its heaviest input shard, so a shard-executed read
    /// evaluates most of its pull tree against the worker's own slab.
    pub fn with_partition(mut self, shards: usize, strategy: PartitionStrategy) -> Self {
        let mut partition = match strategy {
            PartitionStrategy::EdgeCut => {
                edge_cut_partition(&self.push_view(), shards, &EdgeCutConfig::default())
            }
            _ => Partitioner::new(shards, strategy).partition(self.overlay.node_count()),
        };
        self.colocate_pull_readers(&mut partition);
        self.partition = Some(partition);
        self
    }

    /// Attach the cheapest of the three partition strategies, scored by the
    /// fraction of modeled delta volume each would ship across shards
    /// ([`PushEdgeView::cut_fraction`]). This is the cost model the system
    /// builder uses in sharded mode: chunk partitioning wins on overlays
    /// whose allocation order already clusters consumers, edge-cut wins
    /// when the push topology disagrees with the id layout, and hash is the
    /// structure-blind floor. Index-based candidates are scored first, so
    /// on ties the cheaper-to-derive strategy is kept.
    ///
    /// One shard has nothing to score: the map is all shard 0, built
    /// without the push view.
    pub fn with_auto_partition(mut self, shards: usize) -> Self {
        let n = self.overlay.node_count();
        if shards <= 1 {
            self.partition = Some(Partitioner::hash(1).partition(n));
            return self;
        }
        let view = self.push_view();
        let candidates = [
            Partitioner::new(
                shards,
                PartitionStrategy::Chunk {
                    chunk_size: DEFAULT_CHUNK_SIZE,
                },
            )
            .partition(n),
            Partitioner::new(shards, PartitionStrategy::Hash).partition(n),
            edge_cut_partition(&view, shards, &EdgeCutConfig::default()),
        ];
        self.partition = candidates
            .into_iter()
            .map(|cand| (view.cut_fraction(&cand), cand))
            // min_by keeps the *first* of equally cheap candidates, so ties
            // go to the cheaper-to-derive index-based strategies.
            .min_by(|(a, _), (b, _)| a.total_cmp(b))
            .map(|(_, mut p)| {
                self.colocate_pull_readers(&mut p);
                p
            });
        self
    }

    /// Read-locality pass: reassign every pull-annotated reader to the
    /// shard holding the largest share of its input weight, so the worker
    /// that owns the reader evaluates most of its pull tree against its own
    /// slab instead of taking foreign slab locks per input.
    ///
    /// Inputs are weighted by the planner's propagated push frequencies
    /// `fh` — the same affinities [`push_view`](Self::push_view) feeds the
    /// edge-cut partitioner. Moving a pull reader is free for the write
    /// path: pull nodes receive no deltas (the cascade stops at them), so
    /// the reassignment cannot create cross-shard delta traffic or skew
    /// write-path load; it only concentrates each reader's pull evaluation
    /// where its data lives.
    fn colocate_pull_readers(&self, partition: &mut Partition) {
        let shards = partition.shards;
        let mut weight = vec![0.0f64; shards];
        for n in self.overlay.ids() {
            if self.decisions.is_push(n) || !matches!(self.overlay.kind(n), OverlayKind::Reader(_))
            {
                continue;
            }
            let inputs = self.overlay.inputs(n);
            if inputs.is_empty() {
                continue;
            }
            weight.iter_mut().for_each(|w| *w = 0.0);
            for &(f, _) in inputs {
                // Silent nodes keep a floor weight so structure still
                // guides the choice when rates are unknown.
                let fh = self.freqs.fh[f.idx()].max(1e-3);
                weight[partition.of[f.idx()].idx()] += fh;
            }
            let best = weight
                .iter()
                .enumerate()
                // max_by keeps the *last* max; compare (w, -idx) so ties go
                // to the lowest shard id deterministically.
                .max_by(|(i, a), (j, b)| a.total_cmp(b).then(j.cmp(i)))
                .map(|(s, _)| s)
                .expect("at least one shard");
            partition.of[n.idx()] = ShardId(best as u32);
        }
    }

    /// The weighted push-edge affinity view of this plan: push edges the
    /// execution cascade will follow, weighted by the planner's propagated
    /// push frequencies (`fh`). Nodes the rate model considers silent keep
    /// a small positive weight so pure structure still guides the
    /// partitioner when rates are unknown.
    pub fn push_view(&self) -> PushEdgeView {
        PushEdgeView::weighted(
            &self.overlay,
            |n| self.decisions.is_push(n),
            |n| {
                let fh = self.freqs.fh[n.idx()];
                if fh > 0.0 {
                    fh
                } else {
                    1e-3
                }
            },
        )
    }

    /// The push-edge affinity view weighted by **observed** frequencies —
    /// the live counterpart of [`push_view`](Self::push_view): same
    /// structure, but every node's emission rate comes from the engine's
    /// §4.8 observation window (`observed.fh`) instead of the
    /// planning-time propagation. Silent nodes keep the same small floor
    /// weight so structure still guides the partitioner where the window
    /// saw nothing.
    pub fn observed_push_view(&self, observed: &Frequencies) -> PushEdgeView {
        assert_eq!(
            observed.fh.len(),
            self.overlay.node_count(),
            "observed frequencies must cover every overlay node"
        );
        PushEdgeView::weighted(
            &self.overlay,
            |n| self.decisions.is_push(n),
            |n| {
                let fh = observed.fh[n.idx()];
                if fh > 0.0 {
                    fh
                } else {
                    1e-3
                }
            },
        )
    }

    /// Re-derive the carried partition from observed frequencies: bounded
    /// incremental refinement ([`refine_partition`]) of the current map
    /// against [`observed_push_view`](Self::observed_push_view), in place.
    /// This is the planner-side half of live shard rebalancing — the
    /// engine's own `rebalance()` does the same off its raw counters, but
    /// a caller holding a `Plan` (e.g. to respawn engines) can refresh the
    /// map it hands out without replanning from scratch.
    ///
    /// Returns `None` when the plan carries no partition (nothing to
    /// refine).
    pub fn refine_partition_observed(
        &mut self,
        observed: &Frequencies,
        cfg: &RefineConfig,
    ) -> Option<RefineStats> {
        let current = self.partition.as_ref()?;
        let view = self.observed_push_view(observed);
        let (refined, stats) = refine_partition(&view, current, cfg);
        self.partition = Some(refined);
        Some(stats)
    }

    /// Re-run the §4.8 frontier adaptation with freshly observed
    /// frequencies. Returns the number of decision flips.
    pub fn adapt(
        &mut self,
        observed: &Frequencies,
        cost: &CostModel,
        writer_window: usize,
    ) -> usize {
        adaptive::adapt_frontier(
            &self.overlay,
            &mut self.decisions,
            observed,
            cost,
            writer_window,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_graph::{paper_example_graph, BipartiteGraph, Neighborhood};

    fn paper_overlay() -> Overlay {
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        Overlay::direct_from_bipartite(&ag)
    }

    #[test]
    fn planner_produces_valid_plans_for_all_algorithms() {
        for alg in [
            DecisionAlgorithm::MaxFlow,
            DecisionAlgorithm::Greedy,
            DecisionAlgorithm::AllPush,
            DecisionAlgorithm::AllPull,
        ] {
            let p = plan(
                paper_overlay(),
                &Rates::uniform(7, 1.0),
                &CostModel::unit_sum(),
                &PlannerConfig {
                    algorithm: alg,
                    split: false,
                    writer_window: 1,
                    push_amplification: 2.0,
                },
            );
            assert!(p.decisions.is_valid(&p.overlay), "{alg:?}");
            assert!(p.modeled_cost.is_finite());
        }
    }

    #[test]
    fn maxflow_plan_cheapest() {
        let rates = Rates::uniform(7, 2.0);
        let cost = CostModel::unit_sum();
        let base = PlannerConfig {
            algorithm: DecisionAlgorithm::MaxFlow,
            split: false,
            writer_window: 1,
            push_amplification: 2.0,
        };
        let opt = plan(paper_overlay(), &rates, &cost, &base).modeled_cost;
        for alg in [
            DecisionAlgorithm::Greedy,
            DecisionAlgorithm::AllPush,
            DecisionAlgorithm::AllPull,
        ] {
            let c = plan(
                paper_overlay(),
                &rates,
                &cost,
                &PlannerConfig {
                    algorithm: alg,
                    ..base
                },
            )
            .modeled_cost;
            assert!(opt <= c + 1e-9, "maxflow {opt} vs {alg:?} {c}");
        }
    }

    #[test]
    fn plan_carries_partition_over_split_overlay() {
        let p = plan(
            paper_overlay(),
            &Rates::uniform(7, 1.0),
            &CostModel::unit_sum(),
            &PlannerConfig::default(),
        );
        assert!(p.partition.is_none(), "partition is opt-in");
        let n = p.overlay.node_count();
        let p = p.with_partition(4, PartitionStrategy::Hash);
        let part = p.partition.as_ref().expect("partition attached");
        assert_eq!(part.len(), n, "covers every node incl. §4.7 splits");
        assert_eq!(part.shards, 4);
    }

    #[test]
    fn edge_cut_partition_derives_from_push_view() {
        let p = plan(
            paper_overlay(),
            &Rates::uniform(7, 1.0),
            &CostModel::unit_sum(),
            &PlannerConfig::default(),
        );
        let n = p.overlay.node_count();
        let p = p.with_partition(3, PartitionStrategy::EdgeCut);
        let part = p.partition.as_ref().expect("partition attached");
        assert_eq!(part.len(), n);
        assert_eq!(part.shards, 3);
        assert_eq!(part.strategy, PartitionStrategy::EdgeCut);
        // The derived cut never ships more than the structure-blind hash.
        let view = p.push_view();
        let hash = Partitioner::hash(3).partition(n);
        assert!(view.cut_fraction(part) <= view.cut_fraction(&hash) + 1e-9);
    }

    #[test]
    fn auto_partition_picks_the_cheapest_cut() {
        let p = plan(
            paper_overlay(),
            &Rates::uniform(7, 1.0),
            &CostModel::unit_sum(),
            &PlannerConfig::default(),
        );
        let p = p.with_auto_partition(4);
        let part = p.partition.as_ref().expect("partition attached");
        let view = p.push_view();
        let auto_cost = view.cut_fraction(part);
        for strategy in [
            PartitionStrategy::Hash,
            PartitionStrategy::Chunk { chunk_size: 64 },
        ] {
            let cand = Partitioner::new(4, strategy).partition(p.overlay.node_count());
            assert!(
                auto_cost <= view.cut_fraction(&cand) + 1e-9,
                "auto ({auto_cost}) must not lose to {strategy:?}"
            );
        }
    }

    #[test]
    fn auto_partition_of_one_shard_is_all_zero() {
        let p = plan(
            paper_overlay(),
            &Rates::uniform(7, 1.0),
            &CostModel::unit_sum(),
            &PlannerConfig::default(),
        )
        .with_auto_partition(1);
        let part = p.partition.as_ref().expect("partition attached");
        assert_eq!(part.shards, 1);
        assert_eq!(part.len(), p.overlay.node_count());
        assert!(part.of.iter().all(|s| s.idx() == 0));
    }

    #[test]
    fn pull_readers_are_colocated_with_their_heaviest_input_shard() {
        // All-pull plan: every reader is pull-annotated, so the
        // read-locality pass must land each on the shard holding the
        // largest fh-weighted share of its inputs.
        let p = plan(
            paper_overlay(),
            &Rates::uniform(7, 1.0),
            &CostModel::unit_sum(),
            &PlannerConfig {
                algorithm: DecisionAlgorithm::AllPull,
                split: false,
                writer_window: 1,
                push_amplification: 2.0,
            },
        );
        let p = p.with_partition(3, PartitionStrategy::Hash);
        let part = p.partition.as_ref().expect("partition attached");
        for n in p.overlay.ids() {
            if p.decisions.is_push(n) || !matches!(p.overlay.kind(n), OverlayKind::Reader(_)) {
                continue;
            }
            let inputs = p.overlay.inputs(n);
            if inputs.is_empty() {
                continue;
            }
            let mut weight = vec![0.0f64; part.shards];
            for &(f, _) in inputs {
                weight[part.shard_of(f.idx()).idx()] += p.freqs.fh[f.idx()].max(1e-3);
            }
            let own = weight[part.shard_of(n.idx()).idx()];
            assert!(
                weight.iter().all(|&w| w <= own + 1e-12),
                "reader {n:?} owns weight {own}, but a peer shard holds more: {weight:?}"
            );
        }
        // The write path is untouched: push nodes keep their hash shard.
        let hash = Partitioner::hash(3).partition(p.overlay.node_count());
        for n in p.overlay.ids() {
            if p.decisions.is_push(n) {
                assert_eq!(part.shard_of(n.idx()), hash.shard_of(n.idx()));
            }
        }
    }

    #[test]
    fn observed_refinement_recovers_a_drifted_hot_set() {
        // Plan with uniform rates, then observe traffic concentrated on
        // one writer's fan-out: the refined map must cut less of the
        // observed traffic than the stale planning-time map.
        let p = plan(
            paper_overlay(),
            &Rates::uniform(7, 1.0),
            &CostModel::unit_sum(),
            &PlannerConfig {
                algorithm: DecisionAlgorithm::AllPush,
                split: false,
                writer_window: 1,
                push_amplification: 2.0,
            },
        );
        let mut p = p.with_partition(4, PartitionStrategy::Hash);
        let n = p.overlay.node_count();
        let hot = p.overlay.writers().next().unwrap().0;
        let observed = Frequencies {
            fh: (0..n)
                .map(|i| if i == hot.idx() { 500.0 } else { 0.0 })
                .collect(),
            fl: vec![0.0; n],
        };
        let view = p.observed_push_view(&observed);
        let before = view.cut_fraction(p.partition.as_ref().unwrap());
        let stats = p
            .refine_partition_observed(
                &observed,
                &RefineConfig {
                    max_move_fraction: 1.0,
                    ..RefineConfig::default()
                },
            )
            .expect("plan carries a partition");
        let after = view.cut_fraction(p.partition.as_ref().unwrap());
        assert!(after <= before + 1e-9, "refinement worsened the cut");
        assert!(stats.cut_after <= stats.cut_before);
        // The hot writer's observed traffic dominates the view; if the
        // stale hash map cut any of it, refinement recovers some.
        if before > 0.0 {
            assert!(stats.moved > 0, "a cut hot set must trigger moves");
            assert!(
                after < before,
                "observed cut must shrink: {before} → {after}"
            );
        }
    }

    #[test]
    fn observed_refinement_without_partition_is_none() {
        let mut p = plan(
            paper_overlay(),
            &Rates::uniform(7, 1.0),
            &CostModel::unit_sum(),
            &PlannerConfig::default(),
        );
        let n = p.overlay.node_count();
        let observed = Frequencies {
            fh: vec![1.0; n],
            fl: vec![1.0; n],
        };
        assert!(p
            .refine_partition_observed(&observed, &RefineConfig::default())
            .is_none());
    }

    #[test]
    fn splitting_never_raises_modeled_cost() {
        let rates = {
            let mut r = Rates::uniform(7, 1.0);
            // Skew: a couple of very hot writers.
            r.write[4] = 80.0;
            r.write[5] = 60.0;
            r
        };
        let cost = CostModel::unit_sum();
        let unsplit = plan(
            paper_overlay(),
            &rates,
            &cost,
            &PlannerConfig {
                split: false,
                ..PlannerConfig::default()
            },
        );
        let split = plan(paper_overlay(), &rates, &cost, &PlannerConfig::default());
        assert!(split.modeled_cost <= unsplit.modeled_cost + 1e-6);
    }
}
