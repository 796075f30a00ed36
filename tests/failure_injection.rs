//! Failure-injection and degenerate-input tests: the summarization
//! pipeline must degrade gracefully, never panic, on pathological
//! inputs — at every layer of the stack. The first half abuses the
//! sequential free functions; the second half drives the serving
//! layers (engine, sharded engine, admission queue) through malformed
//! inputs and seeded [`FaultInjector`] tapes, asserting that failures
//! surface as recoverable errors on exactly the affected calls and
//! that every layer keeps serving bit-identically afterwards.

use std::sync::Arc;

use xsum::core::{
    gw_pcst_summary, pcst_summary, pcst_summary_with_policy, render_path, render_summary,
    steiner_summary, AdmissionConfig, AdmissionError, AdmissionQueue, BatchMethod, FaultInjector,
    FaultPlan, FaultSite, PcstConfig, PcstScope, PrizePolicy, ShardedEngine, SteinerConfig,
    Summary, SummaryEngine, SummaryInput,
};
use xsum::graph::{EdgeKind, Graph, LoosePath, NodeId, NodeKind, Subgraph};
use xsum::metrics::{consistency, ExplanationView, MetricReport};

/// One user, one item, connected.
fn minimal_graph() -> (Graph, xsum::graph::NodeId, xsum::graph::NodeId) {
    let mut g = Graph::new();
    let u = g.add_labeled_node(NodeKind::User, "u");
    let i = g.add_labeled_node(NodeKind::Item, "i");
    g.add_edge(u, i, 5.0, EdgeKind::Interaction);
    (g, u, i)
}

#[test]
fn empty_path_set_all_methods() {
    let (g, u, _) = minimal_graph();
    let input = SummaryInput::user_centric(u, vec![]);
    for s in [
        steiner_summary(&g, &input, &SteinerConfig::default()),
        pcst_summary(&g, &input, &PcstConfig::default()),
        gw_pcst_summary(&g, &input, &PcstConfig::default()),
    ] {
        assert!(
            s.subgraph.contains_node(u),
            "{} must mention the focus",
            s.method
        );
        assert_eq!(s.terminal_coverage(), 1.0);
    }
}

#[test]
fn single_node_graph() {
    let mut g = Graph::new();
    let u = g.add_node(NodeKind::User);
    let input = SummaryInput::user_centric(u, vec![LoosePath::ground(&g, vec![u])]);
    let s = steiner_summary(&g, &input, &SteinerConfig::default());
    assert_eq!(s.subgraph.edge_count(), 0);
    assert_eq!(s.terminal_coverage(), 1.0);
    let s = pcst_summary(&g, &input, &PcstConfig::default());
    assert_eq!(s.terminal_coverage(), 1.0);
}

#[test]
fn fully_hallucinated_paths() {
    // Every hop is fabricated: no real edge to boost or span.
    let mut g = Graph::new();
    let u = g.add_node(NodeKind::User);
    let i1 = g.add_node(NodeKind::Item);
    let i2 = g.add_node(NodeKind::Item);
    let fake1 = LoosePath::ground(&g, vec![u, i1]);
    let fake2 = LoosePath::ground(&g, vec![u, i2]);
    assert!(!fake1.is_faithful() && !fake2.is_faithful());
    let input = SummaryInput::user_centric(u, vec![fake1, fake2]);
    // No edges exist at all → summaries are bags of isolated terminals.
    for s in [
        steiner_summary(&g, &input, &SteinerConfig::default()),
        pcst_summary(&g, &input, &PcstConfig::default()),
    ] {
        assert_eq!(s.subgraph.edge_count(), 0);
        assert_eq!(s.terminal_coverage(), 1.0, "terminals still mentioned");
    }
    // Metrics stay well-defined.
    let v = ExplanationView::from_paths(&input.paths);
    let r = MetricReport::evaluate(&g, &v);
    assert_eq!(r.relevance, 0.0);
    assert!(r.comprehensibility > 0.0);
}

#[test]
fn duplicate_recommendations_collapse() {
    let (g, u, i) = minimal_graph();
    let p = LoosePath::ground(&g, vec![u, i]);
    let input = SummaryInput::user_centric(u, vec![p.clone(), p.clone(), p]);
    assert_eq!(input.anchor_count, 1, "same item counted once in |S|");
    let s = steiner_summary(&g, &input, &SteinerConfig::default());
    assert_eq!(s.subgraph.edge_count(), 1);
}

#[test]
fn zero_weight_graph_is_summarizable() {
    let mut g = Graph::new();
    let u = g.add_node(NodeKind::User);
    let i = g.add_node(NodeKind::Item);
    let a = g.add_node(NodeKind::Entity);
    g.add_edge(u, i, 0.0, EdgeKind::Interaction);
    g.add_edge(i, a, 0.0, EdgeKind::Attribute);
    let p = LoosePath::ground(&g, vec![u, i]);
    let input = SummaryInput::user_centric(u, vec![p]);
    let s = steiner_summary(&g, &input, &SteinerConfig::default());
    assert_eq!(s.terminal_coverage(), 1.0);
    // λ cannot boost zero weights (multiplicative), but costs stay finite.
    let s = steiner_summary(
        &g,
        &input,
        &SteinerConfig {
            lambda: 1e9,
            delta: 1.0,
        },
    );
    assert_eq!(s.terminal_coverage(), 1.0);
}

#[test]
fn extreme_lambda_and_delta_values() {
    let (g, u, i) = minimal_graph();
    let p = LoosePath::ground(&g, vec![u, i]);
    let input = SummaryInput::user_centric(u, vec![p]);
    for (lambda, delta) in [(0.0, 1e-6), (1e12, 1e6), (0.01, 0.01)] {
        let s = steiner_summary(&g, &input, &SteinerConfig { lambda, delta });
        assert_eq!(s.terminal_coverage(), 1.0, "λ={lambda}, δ={delta}");
    }
}

#[test]
fn pcst_zero_and_negativeish_prizes() {
    let (g, u, i) = minimal_graph();
    let p = LoosePath::ground(&g, vec![u, i]);
    let input = SummaryInput::user_centric(u, vec![p]);
    // All-zero prizes: nothing worth connecting, but terminals mentioned.
    let s = pcst_summary(
        &g,
        &input,
        &PcstConfig {
            terminal_prize: 0.0,
            nonterminal_prize: 0.0,
            ..PcstConfig::default()
        },
    );
    assert_eq!(s.terminal_coverage(), 1.0);
    assert_eq!(s.subgraph.edge_count(), 0);
}

#[test]
fn pcst_policies_on_degenerate_inputs() {
    let (g, u, _) = minimal_graph();
    let input = SummaryInput::user_centric(u, vec![]);
    for policy in [
        PrizePolicy::Uniform,
        PrizePolicy::PathFrequency { weight: 1.0 },
        PrizePolicy::DegreeCentrality { weight: 1.0 },
        PrizePolicy::Betweenness {
            weight: 1.0,
            sources: 4,
        },
    ] {
        let s = pcst_summary_with_policy(&g, &input, &PcstConfig::default(), policy);
        assert_eq!(s.terminal_coverage(), 1.0, "{policy:?}");
    }
}

#[test]
fn scope_variants_on_disconnected_terminals() {
    // Two disjoint user-item components; terminals span both.
    let mut g = Graph::new();
    let u1 = g.add_node(NodeKind::User);
    let i1 = g.add_node(NodeKind::Item);
    let u2 = g.add_node(NodeKind::User);
    let i2 = g.add_node(NodeKind::Item);
    g.add_edge(u1, i1, 5.0, EdgeKind::Interaction);
    g.add_edge(u2, i2, 5.0, EdgeKind::Interaction);
    let p1 = LoosePath::ground(&g, vec![u1, i1]);
    let p2 = LoosePath::ground(&g, vec![u2, i2]);
    let input = SummaryInput::user_group(&[u1, u2], vec![p1, p2]);
    for scope in [
        PcstScope::UnionOfPaths,
        PcstScope::ExpandedUnion(2),
        PcstScope::FullGraph,
    ] {
        let s = pcst_summary(
            &g,
            &input,
            &PcstConfig {
                scope,
                ..PcstConfig::default()
            },
        );
        // Cross-component connection is impossible; both components'
        // terminals must still be present (forest summary).
        assert_eq!(s.terminal_coverage(), 1.0, "{scope:?}");
        assert!(!s.subgraph.is_weakly_connected(&g) || s.subgraph.edge_count() == 0);
    }
    let s = steiner_summary(&g, &input, &SteinerConfig::default());
    assert_eq!(s.terminal_coverage(), 1.0);
}

#[test]
fn renderers_never_panic_on_odd_graphs() {
    let mut g = Graph::new();
    let u = g.add_node(NodeKind::User); // unlabeled
    let i = g.add_node(NodeKind::Item);
    let p = LoosePath::ground(&g, vec![u, i]); // hallucinated hop
    let text = render_path(&g, &p);
    assert!(text.contains("unverified"));
    let empty = Subgraph::new();
    let t = render_summary(&g, &empty, u);
    assert!(t.contains("no summarized connections"));
}

#[test]
fn consistency_of_empty_and_mixed_series() {
    assert_eq!(consistency(&[]), 1.0);
    let (g, u, i) = minimal_graph();
    let p = LoosePath::ground(&g, vec![u, i]);
    let filled = ExplanationView::from_paths(&[p]);
    let empty = ExplanationView::default();
    // Empty → filled transition has zero overlap.
    let c = consistency(&[empty, filled]);
    assert_eq!(c, 0.0);
}

// ---------------------------------------------------------------------
// Serving-layer failure injection: engine, sharded engine, admission.
// ---------------------------------------------------------------------

fn assert_same(a: &Summary, b: &Summary) {
    assert_eq!(a.method, b.method);
    assert_eq!(a.terminals, b.terminals);
    assert_eq!(a.subgraph.sorted_edges(), b.subgraph.sorted_edges());
    assert_eq!(a.subgraph.sorted_nodes(), b.subgraph.sorted_nodes());
}

/// An input whose terminals point outside the graph — the worker that
/// draws it panics, and the panic must surface as a recoverable error.
fn hallucinated_input(input: &SummaryInput) -> SummaryInput {
    let mut bad = input.clone();
    bad.terminals = vec![NodeId(u32::MAX - 2), NodeId(u32::MAX - 1)];
    bad
}

#[test]
fn engine_layer_surfaces_malformed_inputs_as_errors() {
    let ex = xsum::core::table1_example();
    let input = ex.input();
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let mut engine = SummaryEngine::with_threads(2);
    let bad = hallucinated_input(&input);
    assert!(engine.try_summarize(&ex.graph, &bad, method).is_err());
    let batch = vec![input.clone(), bad, input.clone()];
    assert!(engine
        .try_summarize_batch(&ex.graph, &batch, method)
        .is_err());
    // The engine stays fully serviceable and bit-identical after both.
    let got = engine
        .try_summarize(&ex.graph, &input, method)
        .expect("engine recovered");
    assert_same(&got, &method.run(&ex.graph, &input));
}

#[test]
fn engine_layer_recovers_from_injected_pool_faults() {
    let ex = xsum::core::table1_example();
    let input = ex.input();
    let method = BatchMethod::SteinerFast(SteinerConfig::default());
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        rate: 1.0,
        budget: 2,
        transients: false,
        delays: false,
        ..FaultPlan::seeded(21)
    }));
    let mut engine = SummaryEngine::with_threads(2);
    engine.set_fault_hook(Some(injector.pool_hook()));
    // Two budgeted dispatch faults: each call fails recoverably.
    for _ in 0..2 {
        assert!(engine
            .try_summarize_batch(&ex.graph, std::slice::from_ref(&input), method)
            .is_err());
    }
    assert_eq!(injector.injected_at(FaultSite::PoolDispatch), 2);
    // Budget spent: the tape is exhausted, serving is clean again even
    // with the hook still installed, and unsetting it removes the site.
    let got = engine
        .try_summarize(&ex.graph, &input, method)
        .expect("budget exhausted");
    assert_same(&got, &method.run(&ex.graph, &input));
    engine.set_fault_hook(None);
    let got = engine.summarize(&ex.graph, &input, method);
    assert_same(&got, &method.run(&ex.graph, &input));
}

#[test]
fn sharded_layer_fails_over_injected_serve_faults() {
    let ex = xsum::core::table1_example();
    let input = ex.input();
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let want = method.run(&ex.graph, &input);
    // A single budgeted transient: the very first sub-batch dispatch
    // draws it (ShardServe fires before any replica pool runs), the
    // budget is then spent, so the failover retry on the other replica
    // is guaranteed clean — callers never see the fault at all.
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        rate: 1.0,
        budget: 1,
        panics: false,
        delays: false,
        ..FaultPlan::seeded(33)
    }));
    let mut sharded = ShardedEngine::with_threads(&ex.graph, 2, 1);
    sharded.set_fault_injector(Some(Arc::clone(&injector)));
    let batch = vec![input.clone(), input.clone()];
    for _ in 0..4 {
        let got = sharded
            .try_summarize_batch(&batch, method)
            .expect("failover hides transient faults");
        for s in &got {
            assert_same(s, &want);
        }
    }
    assert_eq!(injector.budget_left(), 0, "tape was actually consumed");
}

#[test]
fn sharded_single_replica_total_failure_is_recoverable() {
    let ex = xsum::core::table1_example();
    let input = ex.input();
    let method = BatchMethod::SteinerFast(SteinerConfig::default());
    // One replica, and enough budget that the failover retry on the
    // same replica can fail too (via its pool hook): the batch call
    // errs instead of panicking, and the engine recovers afterwards.
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        rate: 1.0,
        budget: 2,
        panics: false,
        delays: false,
        ..FaultPlan::seeded(5)
    }));
    let mut sharded = ShardedEngine::with_threads(&ex.graph, 1, 1);
    sharded.set_fault_injector(Some(Arc::clone(&injector)));
    let batch = vec![input.clone()];
    let mut saw_error = false;
    for _ in 0..4 {
        match sharded.try_summarize_batch(&batch, method) {
            Ok(got) => assert_same(&got[0], &method.run(&ex.graph, &input)),
            Err(_) => saw_error = true,
        }
    }
    assert!(saw_error, "total replica failure surfaced as an error");
    assert_eq!(injector.budget_left(), 0);
    // Tape exhausted: clean serving resumes on the same instance.
    let got = sharded
        .try_summarize_batch(&batch, method)
        .expect("replica serves again");
    assert_same(&got[0], &method.run(&ex.graph, &input));
}

#[test]
fn admission_layer_resolves_everything_under_chaos() {
    let ex = xsum::core::table1_example();
    let input = ex.input();
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(99)));
    let mut sharded = ShardedEngine::with_threads(&ex.graph, 2, 1);
    sharded.set_fault_injector(Some(Arc::clone(&injector)));
    let queue = AdmissionQueue::with_faults(
        sharded,
        AdmissionConfig {
            queue_bound: 32,
            max_batch: 4,
            linger_tickets: 2,
        },
        xsum::core::OverloadPolicy::default(),
        Some(Arc::clone(&injector)),
    );
    let want = method.run(&ex.graph, &input);
    let bad = hallucinated_input(&input);
    // Good and malformed traffic interleaved under an active fault
    // tape: every ticket resolves (no hangs), malformed tickets always
    // fail, good tickets either succeed bit-identically or carry a
    // recoverable engine error from the tape.
    for round in 0..6 {
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                let submit = if (round + i) % 4 == 3 {
                    bad.clone()
                } else {
                    input.clone()
                };
                (i, queue.submit(submit, method).expect("admits"))
            })
            .collect();
        for (i, t) in tickets {
            match t.wait() {
                Ok(got) => {
                    assert_ne!((round + i) % 4, 3, "malformed input cannot succeed");
                    assert_same(&got, &want);
                }
                Err(AdmissionError::Engine(_)) => {}
                Err(other) => panic!("unexpected admission error: {other:?}"),
            }
        }
    }
    // Stats never drift from the ticket outcomes.
    let stats = queue.stats();
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.completed + stats.failed, 24);
    queue.shutdown();
}
