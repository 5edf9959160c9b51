//! Synthetic graph generators standing in for the paper's datasets (§5.1).
//!
//! The evaluation uses SNAP/LAW graphs (LiveJournal, Gplus, EU-2005,
//! UK-2002) that are not redistributable here; DESIGN.md records the
//! substitution. What the experiments actually exercise is *structure*:
//!
//! * **social graphs** (LiveJournal, Gplus) — heavy-tailed degrees with
//!   little adjacency-list similarity → low sharing index (Fig 8's lower
//!   curves). Generated by preferential attachment.
//! * **web graphs** (EU-2005, UK-2002) — pages copy each other's link
//!   lists, producing many large bicliques → high sharing index (Fig 8's
//!   upper curves). Generated by the *copying model* (Kumar et al.), the
//!   standard generative explanation for web-graph compressibility.

use eagr_graph::{DataGraph, NodeId};
use eagr_util::SplitMix64;

/// Preferential-attachment ("social") graph with community structure: each
/// new node joins a community and links to `m` existing nodes — mostly
/// degree-proportional picks *within its community*, occasionally global.
/// Links are symmetric (friendship edges), so in- and out-neighborhoods
/// coincide.
///
/// Communities matter for fidelity: real social graphs compress because
/// members of a dense community share much of their neighborhood (the
/// paper's LiveJournal reaches a ~40% sharing index); pure preferential
/// attachment has almost no such structure.
pub fn social_graph(n: usize, m: usize, seed: u64) -> DataGraph {
    assert!(n >= 2 && m >= 1);
    let mut g = DataGraph::with_nodes(n);
    let mut rng = SplitMix64::new(seed);
    let community_size = (4 * m).clamp(8, 64);
    let communities = (n / community_size).max(1);
    let community_of = |v: u32| (v as usize) % communities;
    // Per-community and global repeated-endpoint urns (uniform sampling
    // picks a node with probability proportional to its degree).
    let mut local_urns: Vec<Vec<u32>> = vec![Vec::new(); communities];
    let mut global_urn: Vec<u32> = vec![0, 1];
    g.add_undirected_edge(NodeId(0), NodeId(1));
    local_urns[community_of(0)].push(0);
    local_urns[community_of(1)].push(1);
    for v in 2..n as u32 {
        let picks = m.min(v as usize);
        let my = community_of(v);
        let mut chosen: Vec<u32> = Vec::with_capacity(picks);
        let mut guard = 0;
        while chosen.len() < picks && guard < picks * 30 {
            guard += 1;
            // 80% of friendships form inside the community.
            let urn = if rng.chance(0.8) && !local_urns[my].is_empty() {
                &local_urns[my]
            } else {
                &global_urn
            };
            let u = urn[rng.index(urn.len())];
            if u != v && !chosen.contains(&u) {
                chosen.push(u);
            }
        }
        // Fallback: fill from uniform if the urns kept repeating.
        while chosen.len() < picks {
            let u = rng.next_below(v as u64) as u32;
            if !chosen.contains(&u) {
                chosen.push(u);
            }
        }
        for u in chosen {
            g.add_undirected_edge(NodeId(v), NodeId(u));
            global_urn.push(u);
            global_urn.push(v);
            local_urns[community_of(u)].push(u);
            local_urns[my].push(v);
        }
    }
    g
}

/// Copying-model ("web") graph: each new page picks a prototype and copies
/// each of its out-links with probability `copy_prob`, otherwise linking to
/// a uniformly random older page. High `copy_prob` ⇒ many shared adjacency
/// lists ⇒ large bicliques.
pub fn web_graph(n: usize, out_deg: usize, copy_prob: f64, seed: u64) -> DataGraph {
    assert!(n > out_deg + 1 && out_deg >= 1);
    assert!((0.0..=1.0).contains(&copy_prob));
    let mut g = DataGraph::with_nodes(n);
    let mut rng = SplitMix64::new(seed);
    let seed_nodes = (out_deg + 1).max(2);
    // Fully connect a small seed clique (directed).
    for u in 0..seed_nodes as u32 {
        for v in 0..seed_nodes as u32 {
            if u != v {
                g.add_edge(NodeId(u), NodeId(v));
            }
        }
    }
    for v in seed_nodes as u32..n as u32 {
        let proto = rng.next_below(v as u64) as u32;
        let proto_links: Vec<NodeId> = g.out_neighbors(NodeId(proto)).to_vec();
        for i in 0..out_deg {
            let target = if i < proto_links.len() && rng.chance(copy_prob) {
                proto_links[i]
            } else {
                NodeId(rng.next_below(v as u64) as u32)
            };
            if target != NodeId(v) {
                g.add_edge(NodeId(v), target);
            }
        }
    }
    g
}

/// Erdős–Rényi G(n, p) via expected average out-degree (uniform structure,
/// no compressible bicliques — a lower-bound control for the sharing
/// experiments).
pub fn erdos_renyi(n: usize, avg_out_degree: f64, seed: u64) -> DataGraph {
    assert!(n >= 2);
    let mut g = DataGraph::with_nodes(n);
    let mut rng = SplitMix64::new(seed);
    let edges = (n as f64 * avg_out_degree) as usize;
    let mut added = 0;
    let mut guard = 0;
    while added < edges && guard < edges * 10 {
        guard += 1;
        let u = rng.index(n) as u32;
        let v = rng.index(n) as u32;
        if u != v && g.add_edge(NodeId(u), NodeId(v)) {
            added += 1;
        }
    }
    g
}

/// Parse a SNAP-style edge list (the `soc-LiveJournal1.txt` format the
/// paper's evaluation graphs ship in): one whitespace-separated
/// `from to` pair per line, `#`-prefixed comment lines ignored. Raw node
/// ids may be arbitrary and sparse — they are remapped to dense ids in
/// first-appearance order, so the returned graph has no tombstones.
/// Unparseable lines and self-loops are skipped; duplicate edges collapse.
pub fn parse_edge_list(text: &str) -> DataGraph {
    let mut remap: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            continue;
        };
        let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            continue;
        };
        if a == b {
            continue;
        }
        let mut dense = |raw: u64| -> u32 {
            let next = remap.len() as u32;
            *remap.entry(raw).or_insert(next)
        };
        let (u, v) = (dense(a), dense(b));
        edges.push((u, v));
    }
    let mut g = DataGraph::with_nodes(remap.len());
    for (u, v) in edges {
        g.add_edge(NodeId(u), NodeId(v));
    }
    g
}

/// A named synthetic stand-in for one of the paper's datasets, scaled to
/// laptop size. `scale` multiplies the node count (1.0 ⇒ the default size
/// used by the benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Stand-in for soc-LiveJournal1 (social, sparse).
    LiveJournalLike,
    /// Stand-in for ego-Gplus (social, dense).
    GplusLike,
    /// Stand-in for EU-2005 (web).
    Eu2005Like,
    /// Stand-in for UK-2002 (web, larger).
    Uk2002Like,
}

impl Dataset {
    /// Display name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::LiveJournalLike => "livejournal-like",
            Dataset::GplusLike => "gplus-like",
            Dataset::Eu2005Like => "eu2005-like",
            Dataset::Uk2002Like => "uk2002-like",
        }
    }

    /// All four stand-ins, in Fig 8 order.
    pub fn all() -> [Dataset; 4] {
        [
            Dataset::LiveJournalLike,
            Dataset::GplusLike,
            Dataset::Eu2005Like,
            Dataset::Uk2002Like,
        ]
    }

    /// Build the graph at the given scale (node count ≈ `base × scale`).
    pub fn build(self, scale: f64, seed: u64) -> DataGraph {
        let sz = |base: usize| ((base as f64 * scale) as usize).max(64);
        match self {
            // LiveJournal: 4.8M nodes / 69M edges ⇒ avg degree ~14.
            Dataset::LiveJournalLike => social_graph(sz(4000), 7, seed),
            // Gplus: 107k / 13M ⇒ dense, avg degree ~120.
            Dataset::GplusLike => social_graph(sz(1500), 30, seed),
            // EU-2005: 862k / 19M ⇒ web, avg out-degree ~22.
            Dataset::Eu2005Like => web_graph(sz(3000), 22, 0.85, seed),
            // UK-2002: 18.5M / 298M ⇒ web, avg out-degree ~16, larger.
            Dataset::Uk2002Like => web_graph(sz(6000), 16, 0.9, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_graph_shape() {
        let g = social_graph(500, 4, 1);
        assert_eq!(g.node_count(), 500);
        // Symmetric edges: every edge has its reverse.
        for (u, v) in g.edges().collect::<Vec<_>>() {
            assert!(g.has_edge(v, u));
        }
        // Heavy tail: max degree far above the mean.
        let max_deg = g.nodes().map(|v| g.in_degree(v)).max().unwrap();
        let avg = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            max_deg as f64 > 3.0 * avg,
            "max {max_deg} vs avg {avg}: no heavy tail?"
        );
    }

    #[test]
    fn web_graph_has_similar_adjacency_lists() {
        let g = web_graph(800, 10, 0.9, 7);
        assert_eq!(g.node_count(), 800);
        // Count node pairs sharing ≥ 80% of out-links among a sample —
        // the copying model must produce many.
        let mut similar_pairs = 0;
        let nodes: Vec<NodeId> = g.nodes().collect();
        for i in (20..400).step_by(7) {
            for j in (i + 1..400).step_by(13) {
                let a: std::collections::HashSet<_> = g.out_neighbors(nodes[i]).iter().collect();
                let b: std::collections::HashSet<_> = g.out_neighbors(nodes[j]).iter().collect();
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                let inter = a.intersection(&b).count();
                if inter * 10 >= a.len().max(b.len()) * 8 {
                    similar_pairs += 1;
                }
            }
        }
        assert!(
            similar_pairs > 0,
            "copying model should yield near-duplicate lists"
        );
    }

    #[test]
    fn erdos_renyi_density() {
        let g = erdos_renyi(1000, 5.0, 3);
        let avg = g.edge_count() as f64 / g.node_count() as f64;
        assert!((avg - 5.0).abs() < 1.0, "avg out-degree {avg}");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = social_graph(200, 3, 42);
        let b = social_graph(200, 3, 42);
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn datasets_build_at_small_scale() {
        for d in Dataset::all() {
            let g = d.build(0.05, 11);
            assert!(g.node_count() >= 64, "{}", d.name());
            assert!(g.edge_count() > g.node_count(), "{}", d.name());
        }
    }

    #[test]
    fn edge_list_parses_snap_format() {
        let text = "# Directed graph (each unordered pair of nodes is saved once)\n\
                    # FromNodeId\tToNodeId\n\
                    1000\t2000\n\
                    2000 1000\n\
                    1000\t3000\n\
                    3000\t3000\n\
                    garbage line\n\
                    2000\t3000\n";
        let g = parse_edge_list(text);
        // Three raw ids remapped densely in first-appearance order.
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 4, "self-loop and garbage skipped");
        assert!(g.has_edge(NodeId(0), NodeId(1))); // 1000 → 2000
        assert!(g.has_edge(NodeId(1), NodeId(0))); // 2000 → 1000
        assert!(g.has_edge(NodeId(0), NodeId(2))); // 1000 → 3000
        assert!(g.has_edge(NodeId(1), NodeId(2))); // 2000 → 3000
        assert!(!g.has_edge(NodeId(2), NodeId(2)));
    }

    #[test]
    fn web_more_compressible_than_social() {
        // The headline structural claim behind Fig 8: a web graph's
        // bipartite view compresses much better than a social graph's.
        use eagr_agg::AggProps;
        use eagr_graph::{BipartiteGraph, Neighborhood};
        use eagr_overlay::{build_vnm, VnmConfig};
        let props = AggProps {
            duplicate_insensitive: false,
            subtractable: true,
        };
        let social = social_graph(600, 5, 5);
        let web = web_graph(600, 10, 0.9, 5);
        let si = |g: &DataGraph| {
            let ag = BipartiteGraph::build(g, &Neighborhood::In, |_| true);
            let (ov, _) = build_vnm(&ag, &VnmConfig::vnma(props));
            ov.sharing_index()
        };
        let s_si = si(&social);
        let w_si = si(&web);
        assert!(
            w_si > s_si,
            "web SI {w_si:.3} should exceed social SI {s_si:.3}"
        );
    }
}
