//! Multi-query serving invariants (registry attach/detach over shared
//! overlay state):
//!
//! * **differential**: N overlapping queries attached and detached at
//!   arbitrary points of an arbitrary write stream each answer exactly
//!   like the naive oracle over the same prefix — in single-threaded
//!   *and* sharded execution;
//! * **refcounting**: detaching one query never perturbs the answers of
//!   the queries that remain;
//! * **sharing**: attaching an overlapping query onto a warm system
//!   materializes strictly fewer PAOs than compiling it cold.

use eagr::gen::Event;
use eagr::prelude::*;
use proptest::prelude::*;

/// One randomized query shape: readers are the nodes with `v % m == r`,
/// window is `Tuple(c)`.
#[derive(Clone, Copy, Debug)]
struct QuerySpec {
    m: u32,
    r: u32,
    c: usize,
}

impl QuerySpec {
    fn query(&self) -> EgoQuery<Sum> {
        let (m, r) = (self.m, self.r);
        EgoQuery::new(Sum)
            .window(WindowSpec::Tuple(self.c))
            .filter(move |v| v.0 % m == r)
    }
}

fn spec_strategy() -> impl Strategy<Value = QuerySpec> {
    (1u32..4, 0u32..3, 1usize..4).prop_map(|(m, r, c)| QuerySpec { m, r: r % m, c })
}

/// The naive oracle's answers for one registered query over an event
/// prefix: `None` outside the query's reader set (nodes its predicate
/// rejects or whose neighborhood is empty), the from-scratch fold inside.
fn reference(spec: QuerySpec, g: &DataGraph, prefix: &[Event]) -> Vec<Option<i64>> {
    let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(spec.c), Neighborhood::In);
    oracle.ingest(&mut g.clone(), prefix, 0);
    g.nodes()
        .map(|v| {
            let reads = v.0 % spec.m == spec.r && !g.in_neighbors(v).is_empty();
            reads.then(|| oracle.read(g, v))
        })
        .collect()
}

fn check_differential(mode: ExecutionMode, specs: &[QuerySpec], writes: &[(u32, i64)]) {
    const N: usize = 40;
    let g = eagr::gen::social_graph(N, 3, 0xD1FF);
    let nodes: Vec<NodeId> = g.nodes().collect();
    let events: Vec<Event> = writes
        .iter()
        .map(|&(n, value)| Event::Write {
            node: NodeId(n % N as u32),
            value,
        })
        .collect();
    // Phase boundaries: attach specs[i] after phase i's ingest.
    let phases = specs.len() + 1;
    let chunk = events.len().div_ceil(phases).max(1);

    let sys = EagrSystem::builder(specs[0].query())
        .execution(mode)
        .build(&g);
    let mut handles = vec![sys.handle()];
    let mut live_specs = vec![specs[0]];
    let mut seen: Vec<Event> = Vec::new();

    for (i, phase) in events.chunks(chunk).enumerate() {
        sys.ingest(phase);
        seen.extend_from_slice(phase);
        if let Some(&spec) = specs.get(i + 1) {
            handles.push(sys.attach(spec.query()));
            live_specs.push(spec);
        }
        // Every live handle answers like its single-query reference on
        // the shared prefix — including the one attached mid-stream,
        // whose fresh writers were backfilled from the history ring.
        for (h, &spec) in handles.iter().zip(&live_specs) {
            let want = reference(spec, &g, &seen);
            let got = h.read_batch(&nodes);
            assert_eq!(got, want, "{mode:?} query {spec:?} after phase {i}");
        }
    }

    // Detach the *first* query; the survivors must be untouched.
    if handles.len() > 1 {
        let first = handles.remove(0);
        let first_spec = live_specs.remove(0);
        sys.detach(first.clone());
        assert!(!first.is_attached());
        assert!(
            first.read_batch(&nodes).iter().all(Option::is_none),
            "detached handle must answer None"
        );
        let _ = first_spec;
        for (h, &spec) in handles.iter().zip(&live_specs) {
            let want = reference(spec, &g, &seen);
            assert_eq!(
                h.read_batch(&nodes),
                want,
                "{mode:?} query {spec:?} after detach of another query"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multi_query_answers_match_single_query_references(
        specs in proptest::collection::vec(spec_strategy(), 1..=3),
        writes in proptest::collection::vec((0u32..40, -50i64..50), 30..150),
    ) {
        check_differential(ExecutionMode::SingleThreaded, &specs, &writes);
    }

    #[test]
    fn multi_query_answers_match_references_sharded(
        specs in proptest::collection::vec(spec_strategy(), 1..=3),
        writes in proptest::collection::vec((0u32..40, -50i64..50), 30..150),
    ) {
        check_differential(ExecutionMode::Sharded { shards: 3 }, &specs, &writes);
    }
}

#[test]
fn detach_never_tears_down_shared_paos() {
    let g = eagr::gen::social_graph(100, 4, 0xCAFE);
    let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
    let events: Vec<Event> = (0..1500)
        .map(|i| Event::Write {
            node: NodeId(i % 100),
            value: (i as i64 % 91) - 45,
        })
        .collect();
    sys.ingest(&events);
    let nodes: Vec<NodeId> = g.nodes().collect();

    // Two overlapping secondary queries over the primary's stratum.
    let a = sys.attach(EgoQuery::new(Sum).filter(|v| v.0 < 60));
    let b = sys.attach(EgoQuery::new(Sum).filter(|v| v.0 >= 30));
    assert_eq!(sys.registry_stats().queries, 3);
    let b_before = b.read_batch(&nodes);
    let primary_before = sys.read_batch(&nodes);

    // Dropping `a` releases its refcounts; everything `b` and the primary
    // read is still referenced and must survive with identical state.
    let report = sys.detach(a);
    assert!(!report.stratum_dropped);
    assert_eq!(b.read_batch(&nodes), b_before, "b's answers changed");
    assert_eq!(sys.read_batch(&nodes), primary_before, "primary changed");
    assert_eq!(sys.registry_stats().queries, 2);
}

#[test]
fn warm_attach_materializes_fewer_paos_than_cold_build() {
    let g = eagr::gen::social_graph(120, 4, 0xBEEF);
    // Primary covers most of the graph; the new query overlaps it.
    let sys = EagrSystem::builder(EgoQuery::new(Sum).filter(|v| v.0 < 100)).build(&g);
    let warm = sys
        .attach(EgoQuery::new(Sum))
        .attach_report()
        .expect("attached");
    assert!(warm.shared_stratum);
    assert!(warm.reused_paos > 0, "{warm:?}");
    assert!(warm.reuse_fraction() > 0.0, "{warm:?}");

    // The same query compiled against a *fresh* system (its cold build)
    // must materialize strictly more.
    let cold_sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
    let cold = cold_sys.handle().attach_report().expect("primary");
    assert!(!cold.shared_stratum);
    assert!(
        warm.materialized() < cold.fresh_paos,
        "warm attach must beat cold build: {} vs {}",
        warm.materialized(),
        cold.fresh_paos
    );
}
