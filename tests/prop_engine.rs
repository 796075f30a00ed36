//! Property tests pinning the persistent `SummaryEngine` to the PR-1
//! paths: across random knowledge graphs, configs, and worker counts,
//! the engine's batched and single-summary outputs must be
//! **bit-identical** to `summarize_batch` and to the sequential entry
//! points (`steiner_summary` / `steiner_summary_fast` / `pcst_summary`).
//! That identity is the engine's contract — all its persistence
//! (pinned pool, resident cost buffers, cost-model cache) must be
//! invisible in the outputs. A plain test at the end pins the
//! staleness contract of the (graph-epoch, config)-keyed cost-model
//! cache on a small synthetic ML1M corpus.

use proptest::prelude::*;

use xsum::core::{
    gw_pcst_summary, pcst_summary, steiner_summary, steiner_summary_fast, summarize_batch,
    summarize_batch_threads, BatchMethod, PcstConfig, SteinerConfig, Summary, SummaryEngine,
    SummaryInput,
};
use xsum::datasets::ml1m_scaled;
use xsum::graph::{EdgeKind, Graph, LoosePath, NodeId, NodeKind};

/// A random small KG shape: users, items, entities, random interaction
/// and attribute edges, plus guaranteed 3-hop paths (the `prop_summaries`
/// oracle-style generator).
#[derive(Debug, Clone)]
struct RandomKg {
    g: Graph,
    users: Vec<NodeId>,
    paths: Vec<LoosePath>,
}

fn arb_kg() -> impl Strategy<Value = RandomKg> {
    (
        2usize..5, // users
        3usize..8, // items
        2usize..5, // entities
        proptest::collection::vec((0usize..64, 0usize..64, 1u8..=5), 5..40),
        proptest::collection::vec((0usize..64, 0usize..64), 4..30),
        0usize..1000, // path-shape selector
    )
        .prop_map(|(nu, ni, na, interactions, attributes, path_sel)| {
            let mut g = Graph::new();
            let users: Vec<NodeId> = (0..nu).map(|_| g.add_node(NodeKind::User)).collect();
            let items: Vec<NodeId> = (0..ni).map(|_| g.add_node(NodeKind::Item)).collect();
            let entities: Vec<NodeId> = (0..na).map(|_| g.add_node(NodeKind::Entity)).collect();
            let mut seen = std::collections::HashSet::new();
            for (u, i, r) in interactions {
                let (u, i) = (u % nu, i % ni);
                if seen.insert((u, i)) {
                    g.add_edge(users[u], items[i], r as f64, EdgeKind::Interaction);
                }
            }
            let mut seen = std::collections::HashSet::new();
            for (i, a) in attributes {
                let (i, a) = (i % ni, a % na);
                if seen.insert((i, a)) {
                    g.add_edge(items[i], entities[a], 0.0, EdgeKind::Attribute);
                }
            }
            // Guaranteed scaffolding: u0 rated i0, i0–e0, e0–i1 so at
            // least one 3-hop explanation exists.
            if g.find_edge(users[0], items[0]).is_none() {
                g.add_edge(users[0], items[0], 5.0, EdgeKind::Interaction);
            }
            if g.find_edge(items[0], entities[0]).is_none() {
                g.add_edge(items[0], entities[0], 0.0, EdgeKind::Attribute);
            }
            if g.find_edge(items[1], entities[0]).is_none() {
                g.add_edge(items[1], entities[0], 0.0, EdgeKind::Attribute);
            }
            let mut paths = vec![LoosePath::ground(
                &g,
                vec![users[0], items[0], entities[0], items[1]],
            )];
            let extra: Vec<NodeId> = g
                .neighbors(entities[0])
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| g.kind(*n) == NodeKind::Item && *n != items[0] && *n != items[1])
                .collect();
            if !extra.is_empty() {
                let pick = extra[path_sel % extra.len()];
                paths.push(LoosePath::ground(
                    &g,
                    vec![users[0], items[0], entities[0], pick],
                ));
            }
            RandomKg { g, users, paths }
        })
}

fn inputs_for(kg: &RandomKg) -> Vec<SummaryInput> {
    vec![
        SummaryInput::user_centric(kg.users[0], kg.paths.clone()),
        SummaryInput::user_centric(kg.users[1], kg.paths.clone()),
        SummaryInput::user_group(&kg.users, kg.paths.clone()),
    ]
}

fn assert_bit_identical(want: &Summary, got: &Summary) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.method, got.method);
    prop_assert_eq!(&want.terminals, &got.terminals);
    prop_assert_eq!(want.subgraph.sorted_edges(), got.subgraph.sorted_edges());
    prop_assert_eq!(want.subgraph.sorted_nodes(), got.subgraph.sorted_nodes());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_batch_equals_summarize_batch_and_sequential(kg in arb_kg()) {
        // All four methods, three worker counts, one warm engine: every
        // output must equal both the one-shot batch path and the
        // sequential free function.
        let inputs = inputs_for(&kg);
        let st = SteinerConfig::default();
        let pc = PcstConfig::default();
        for method in [
            BatchMethod::Steiner(st),
            BatchMethod::SteinerFast(st),
            BatchMethod::Pcst(pc),
            BatchMethod::GwPcst(pc),
        ] {
            for threads in [1usize, 2, 4] {
                let mut engine = SummaryEngine::with_threads(threads);
                // Twice through the same engine: the second pass runs on
                // fully warm (possibly patched-and-restored) buffers.
                for _ in 0..2 {
                    let got = engine.summarize_batch(&kg.g, &inputs, method);
                    let oneshot = summarize_batch_threads(&kg.g, &inputs, method, threads);
                    prop_assert_eq!(got.len(), inputs.len());
                    for ((input, got), oneshot) in inputs.iter().zip(&got).zip(&oneshot) {
                        let want = method.run(&kg.g, input);
                        assert_bit_identical(&want, got)?;
                        assert_bit_identical(oneshot, got)?;
                    }
                }
            }
        }
    }

    #[test]
    fn engine_single_equals_free_functions(kg in arb_kg()) {
        let inputs = inputs_for(&kg);
        let pc = PcstConfig::default();
        let mut engine = SummaryEngine::with_threads(2);
        // Sweep λ so the engine's model cache cycles between configs
        // mid-stream — a stale or cross-config buffer would show up as a
        // different tree.
        for lambda in [0.01, 1.0, 100.0] {
            let st = SteinerConfig { lambda, delta: 1.0 };
            for input in &inputs {
                assert_bit_identical(
                    &steiner_summary(&kg.g, input, &st),
                    &engine.summarize(&kg.g, input, BatchMethod::Steiner(st)),
                )?;
                assert_bit_identical(
                    &steiner_summary_fast(&kg.g, input, &st),
                    &engine.summarize(&kg.g, input, BatchMethod::SteinerFast(st)),
                )?;
            }
        }
        for input in &inputs {
            assert_bit_identical(
                &pcst_summary(&kg.g, input, &pc),
                &engine.summarize(&kg.g, input, BatchMethod::Pcst(pc)),
            )?;
            assert_bit_identical(
                &gw_pcst_summary(&kg.g, input, &pc),
                &engine.summarize(&kg.g, input, BatchMethod::GwPcst(pc)),
            )?;
        }
    }

    #[test]
    fn engine_tracks_weight_mutations(mut kg in arb_kg(), scale in 1u8..=200) {
        // A warm engine must recompute — not serve stale state — after
        // any weight mutation: its output must match a cold engine and
        // the free function on the mutated graph.
        let input = SummaryInput::user_centric(kg.users[0], kg.paths.clone());
        let st = SteinerConfig::default();
        let method = BatchMethod::Steiner(st);
        let mut engine = SummaryEngine::with_threads(2);
        engine.summarize(&kg.g, &input, method);
        let e = xsum::graph::EdgeId(0);
        kg.g.set_weight(e, scale as f64 * 0.05);
        let warm = engine.summarize(&kg.g, &input, method);
        let cold = SummaryEngine::with_threads(2).summarize(&kg.g, &input, method);
        let free = steiner_summary(&kg.g, &input, &st);
        assert_bit_identical(&cold, &warm)?;
        assert_bit_identical(&free, &warm)?;
    }

    #[test]
    fn mixed_methods_share_one_engine(kg in arb_kg()) {
        // Interleaving ST / ST-fast / PCST batches through one engine
        // must not let one method's scratch leak into another's output.
        let inputs = inputs_for(&kg);
        let st = SteinerConfig { lambda: 100.0, delta: 1.0 };
        let pc = PcstConfig::default();
        let mut engine = SummaryEngine::with_threads(3);
        for method in [
            BatchMethod::SteinerFast(st),
            BatchMethod::Pcst(pc),
            BatchMethod::Steiner(st),
            BatchMethod::SteinerFast(st),
        ] {
            let got = engine.summarize_batch(&kg.g, &inputs, method);
            let want = summarize_batch(&kg.g, &inputs, method);
            for (want, got) in want.iter().zip(&got) {
                assert_bit_identical(want, got)?;
            }
        }
    }
}

/// A small but real corpus: the scaled synthetic ML1M graph plus one
/// user-centric input per sampled user (3-hop explanation paths).
fn corpus(users: usize, k: usize) -> (xsum::datasets::Dataset, Vec<(u64, NodeId, SummaryInput)>) {
    let ds = ml1m_scaled(7, 0.02);
    let mut inputs = Vec::new();
    for u in 0..users.min(ds.kg.n_users()) {
        let mut paths = Vec::new();
        for i in 0..k {
            if let Some(p) = xsum::datasets::random_explanation_path(
                &ds,
                u,
                3,
                7 ^ ((u as u64) << 8) ^ i as u64,
                30,
            ) {
                paths.push(xsum::graph::LoosePath::from_path(&p));
            }
        }
        if !paths.is_empty() {
            let focus = ds.kg.user_node(u);
            inputs.push((u as u64, focus, SummaryInput::user_centric(focus, paths)));
        }
    }
    assert!(inputs.len() >= 4, "corpus must produce real inputs");
    (ds, inputs)
}

#[test]
fn cost_model_cache_staleness_contract() {
    // Satellite: mutate an edge weight, assert the (epoch, config)
    // cache misses, and the recomputed summary matches a cold engine.
    let (mut ds, inputs) = corpus(4, 6);
    let (_, _, input) = &inputs[0];
    let cfg = SteinerConfig::default();
    let method = BatchMethod::Steiner(cfg);

    let mut warm = SummaryEngine::with_threads(2);
    let before = warm.summarize(&ds.kg.graph, input, method);
    let (hits0, misses0) = warm.cost_cache_stats();
    assert_eq!((hits0, misses0), (0, 1));
    // Second call, unmutated graph: hit.
    warm.summarize(&ds.kg.graph, input, method);
    assert_eq!(warm.cost_cache_stats(), (1, 1));

    // Find an edge the first summary actually used and reweight it.
    let touched = *before
        .subgraph
        .sorted_edges()
        .first()
        .expect("summary has edges");
    let old_w = ds.kg.graph.weight(touched);
    ds.kg.graph.set_weight(touched, old_w + 50.0);

    let after = warm.summarize(&ds.kg.graph, input, method);
    assert_eq!(
        warm.cost_cache_stats(),
        (1, 2),
        "epoch change must miss the cost-model cache"
    );
    let cold = SummaryEngine::with_threads(2).summarize(&ds.kg.graph, input, method);
    assert_eq!(after.subgraph.sorted_edges(), cold.subgraph.sorted_edges());
    assert_eq!(after.subgraph.sorted_nodes(), cold.subgraph.sorted_nodes());
    // And the free function agrees (its thread-local cache revalidates
    // through the same epoch key).
    let free = steiner_summary(&ds.kg.graph, input, &cfg);
    assert_eq!(after.subgraph.sorted_edges(), free.subgraph.sorted_edges());
}
