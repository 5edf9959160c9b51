//! Fixture tests: every rule has (a) a known-bad snippet that produces
//! exactly the expected diagnostic and (b) an annotated (or corrected)
//! snippet that passes, plus a self-check that the annotation grammar
//! round-trips. The snippets live in string literals on purpose — the
//! workspace self-scan lexes this file too, and the lexer's string
//! awareness keeps the deliberately-bad code invisible to it.

use eagr_lint::annotations::{format_directive, parse_directive, Directive};
use eagr_lint::check_source;

/// Assert `src` yields exactly one diagnostic, of `rule`, at `line`.
fn expect_one(src: &str, rule: &str, line: u32) {
    let diags = check_source(src);
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one [{rule}] finding, got: {diags:#?}"
    );
    assert_eq!(diags[0].rule, rule, "wrong rule: {diags:#?}");
    assert_eq!(diags[0].line, line, "wrong line: {diags:#?}");
}

fn expect_clean(src: &str) {
    let diags = check_source(src);
    assert!(diags.is_empty(), "expected no findings, got: {diags:#?}");
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_lock_order_inversion_fires() {
    expect_one(
        "fn f(&self) {\n    let g = self.graph.write();\n    let r = self.registry.read();\n}\n",
        "lock-order",
        3,
    );
}

#[test]
fn r1_lock_order_in_order_and_annotated_pass() {
    expect_clean(
        "fn f(&self) {\n    let r = self.registry.read();\n    let g = self.graph.write();\n}\n",
    );
    expect_clean(
        "fn f(&self) {\n    let g = self.graph.write();\n    // lint: allow(lock-order, test fixture proving suppression works)\n    let r = self.registry.read();\n}\n",
    );
}

#[test]
fn r1_drop_releases_the_guard() {
    expect_clean(
        "fn f(&self) {\n    let g = self.graph.write();\n    drop(g);\n    let r = self.registry.read();\n}\n",
    );
}

#[test]
fn r1_block_scope_releases_the_guard() {
    expect_clean(
        "fn f(&self) {\n    {\n        let g = self.graph.write();\n    }\n    let r = self.registry.read();\n}\n",
    );
}

#[test]
fn r1_temporary_guard_dies_at_statement_end() {
    // The chained call binds a length, not the guard.
    expect_clean(
        "fn f(&self) {\n    let n = self.graph.read().len();\n    let r = self.registry.read();\n}\n",
    );
}

#[test]
fn r1_holds_seeds_the_held_set() {
    // Exclusive slab acquisition while (declared) holding a shared slab:
    // same rank, not shared-shared, so it fires.
    expect_one(
        "// lint: holds(slab)\nfn f(&self) {\n    let g = self.slabs[0].write();\n}\n",
        "lock-order",
        3,
    );
    // Shared-shared at the slab rank is the declared reentrancy exception.
    expect_clean("// lint: holds(slab)\nfn f(&self) {\n    let g = self.slabs[0].read();\n}\n");
}

#[test]
fn r1_inline_worker_ranks_between_map_and_slab() {
    // The inline transport runs the worker (which locks its slab) under
    // the `inline` lock, entered with the engine's handle locks held.
    expect_clean(
        "fn f(&self) {\n    let c = self.core.read();\n    let w = self.inline.lock();\n    let s = self.slabs[0].write();\n}\n",
    );
    expect_one(
        "fn f(&self) {\n    let s = self.slabs[0].write();\n    let w = self.inline.lock();\n}\n",
        "lock-order",
        3,
    );
}

// ---------------------------------------------------------------- R2

const R2_BAD: &str = "\
impl<A: Aggregate> ShardWorker<A> {
    fn run(&self) {
        self.txs[0].send(msg);
    }
}
";

#[test]
fn r2_bare_send_in_worker_fires() {
    expect_one(R2_BAD, "channel-discipline", 3);
}

#[test]
fn r2_try_send_annotated_and_non_worker_pass() {
    expect_clean(
        "impl<A: Aggregate> ShardWorker<A> {\n    fn run(&self) {\n        self.txs[0].try_send(msg);\n    }\n}\n",
    );
    expect_clean(
        "impl<A: Aggregate> ShardWorker<A> {\n    fn run(&self) {\n        // lint: allow(channel-discipline, fixture reply channel cannot cycle)\n        self.txs[0].send(msg);\n    }\n}\n",
    );
    // The same send outside a ShardWorker impl is not worker code.
    expect_clean("impl Engine {\n    fn run(&self) {\n        self.txs[0].send(msg);\n    }\n}\n");
}

#[test]
fn r2_transport_regions_are_covered() {
    // A bare send on a non-sanctioned channel inside a ProcessTransport
    // impl is a relay-cycle hazard.
    expect_one(
        "impl<A: Aggregate> ProcessTransport<A> {\n    fn relay(&self) {\n        tx.send(reply);\n    }\n}\n",
        "channel-discipline",
        3,
    );
    // So is one inside the pump thread's free function.
    expect_one(
        "fn pump_loop(shard: usize) {\n    tx.send(reply);\n}\n",
        "channel-discipline",
        2,
    );
}

#[test]
fn r2_transport_writer_queue_and_annotated_pass() {
    // The unbounded writer queues are the sanctioned non-blocking path.
    expect_clean(
        "impl<A: Aggregate> ProcessTransport<A> {\n    fn enqueue(&self) {\n        self.shared.outs[shard].send(payload);\n    }\n}\n",
    );
    expect_clean("fn pump_loop(shard: usize) {\n    shared.outs[dest].send(payload);\n}\n");
    // Rendezvous replies carry an annotation explaining the acyclicity.
    expect_clean(
        "fn pump_loop(shard: usize) {\n    // lint: allow(channel-discipline, fixture rendezvous reply cannot cycle)\n    tx.send(reply);\n}\n",
    );
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_unwrap_in_worker_fires() {
    expect_one(
        "impl ShardWorker<A> {\n    fn handle(&self) {\n        let v = self.rx.recv().unwrap();\n    }\n}\n",
        "panic-free",
        3,
    );
}

#[test]
fn r3_panic_in_scope_body_fires() {
    expect_one(
        "fn t() {\n    std::thread::scope(|s| {\n        s.spawn(|| panic!(\"boom\"));\n    });\n}\n",
        "panic-free",
        3,
    );
}

#[test]
fn r3_scope_line_allow_covers_the_body() {
    expect_clean(
        "fn t() {\n    // lint: allow(panic-free, test body — panics propagate through the scope join as the test failure)\n    std::thread::scope(|s| {\n        s.spawn(|| other.join().unwrap());\n    });\n}\n",
    );
}

#[test]
fn r3_unwrap_outside_worker_or_scope_passes() {
    expect_clean("fn t() {\n    let v = compute().unwrap();\n}\n");
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_wildcard_on_protocol_enum_fires() {
    expect_one(
        "fn f(m: ShardMsg) {\n    match m {\n        ShardMsg::Stop => {}\n        _ => {}\n    }\n}\n",
        "protocol-exhaustive",
        4,
    );
}

#[test]
fn r4_exhaustive_annotated_and_non_protocol_pass() {
    expect_clean(
        "fn f(e: Event) {\n    match e {\n        Event::Write { .. } => {}\n        Event::Read { .. } => {}\n    }\n}\n",
    );
    expect_clean(
        "fn f(m: ShardMsg) {\n    match m {\n        ShardMsg::Stop => {}\n        // lint: allow(protocol-exhaustive, fixture — suppression must anchor the wildcard arm)\n        _ => {}\n    }\n}\n",
    );
    // `_` on a non-protocol enum is ordinary Rust.
    expect_clean(
        "fn f(x: Option<u32>) {\n    match x {\n        Some(3) => {}\n        _ => {}\n    }\n}\n",
    );
    // A protocol path in the *scrutinee* does not make the arms protocol arms.
    expect_clean(
        "fn f(&self) {\n    match self.tx.try_send(ShardMsg::Stop) {\n        Ok(()) => {}\n        _ => {}\n    }\n}\n",
    );
}

// ---------------------------------------------------------------- R5

#[test]
fn r5_wrong_ordering_fires() {
    expect_one(
        "fn f(&self) {\n    self.pending.fetch_add(1, Ordering::Relaxed);\n}\n",
        "atomic-policy",
        2,
    );
}

#[test]
fn r5_undeclared_method_on_named_atomic_fires() {
    expect_one(
        "fn f(&self) {\n    self.pending.swap(0, Ordering::AcqRel);\n}\n",
        "atomic-policy",
        2,
    );
}

#[test]
fn r5_declared_ordering_unnamed_atomic_and_annotated_pass() {
    expect_clean("fn f(&self) {\n    self.pending.fetch_add(1, Ordering::AcqRel);\n}\n");
    expect_clean(
        "fn f(&self) {\n    self.migrating.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire);\n}\n",
    );
    // Atomics the policy table does not name are unchecked.
    expect_clean("fn f(&self) {\n    self.scratch.fetch_add(1, Ordering::Relaxed);\n}\n");
    expect_clean(
        "fn f(&self) {\n    // lint: allow(atomic-policy, fixture — suppression must work for R5 too)\n    self.pending.fetch_add(1, Ordering::Relaxed);\n}\n",
    );
}

#[test]
fn r5_transport_atomics_are_in_the_policy() {
    // The transport liveness/shutdown words publish with Release/Acquire.
    expect_one(
        "fn f(&self) {\n    self.dead.swap(true, Ordering::Relaxed);\n}\n",
        "atomic-policy",
        2,
    );
    expect_one(
        "fn f(&self) {\n    shared.stopping.store(true, Ordering::Relaxed);\n}\n",
        "atomic-policy",
        2,
    );
    expect_clean("fn f(&self) {\n    self.dead.swap(true, Ordering::AcqRel);\n}\n");
    expect_clean("fn f(&self) {\n    shared.stopping.load(Ordering::Acquire);\n}\n");
    // Pure id sources stay Relaxed.
    expect_clean("fn f(&self) {\n    self.shared.next_req.fetch_add(1, Ordering::Relaxed);\n}\n");
}

// ---------------------------------------------------------------- R-SAFETY

#[test]
fn safety_comment_missing_fires() {
    expect_one(
        "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        "safety-comment",
        2,
    );
}

#[test]
fn safety_comment_present_passes() {
    expect_clean(
        "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}\n",
    );
}

// ---------------------------------------------------------------- annotation grammar

#[test]
fn malformed_annotations_are_diagnostics() {
    // Missing reason.
    expect_one("// lint: allow(panic-free)\nfn f() {}\n", "annotation", 1);
    // Unknown rule.
    expect_one(
        "// lint: allow(warp-core, because)\nfn f() {}\n",
        "annotation",
        1,
    );
    // Unknown lock in holds.
    expect_one("// lint: holds(doorknob)\nfn f() {}\n", "annotation", 1);
}

#[test]
fn annotation_diagnostics_are_not_suppressible() {
    // An allow(annotation, ...) must not silence a malformed directive.
    let src = "// lint: allow(annotation, nice try)\n// lint: allow(panic-free)\nfn f() {}\n";
    let diags = check_source(src);
    assert!(
        diags.iter().any(|d| d.rule == "annotation" && d.line == 2),
        "malformed directive must survive: {diags:#?}"
    );
}

#[test]
fn annotation_grammar_round_trips() {
    let cases = [
        Directive::Allow {
            rule: "lock-order".into(),
            reason: "deliberate inversion in a tracker test".into(),
        },
        Directive::Allow {
            rule: "panic-free".into(),
            reason: "join propagates the panic as the test failure".into(),
        },
        Directive::Holds {
            lock: "slab".into(),
        },
    ];
    for d in cases {
        let rendered = format_directive(&d);
        let comment_body = rendered.strip_prefix("//").expect("canonical form");
        let parsed = parse_directive(comment_body)
            .expect("directive")
            .expect("well-formed");
        assert_eq!(parsed, d, "round-trip through {rendered:?}");
    }
}
