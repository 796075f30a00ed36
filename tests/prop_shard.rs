//! Property tests pinning the sharded serving front-end to the single-
//! engine path: across random knowledge graphs, shard counts {1, 2, 4},
//! mixed ST / ST-fast / PCST batches, and interleaved weight mutations,
//! `ShardedEngine` outputs must be **bit-identical** to one
//! `SummaryEngine` (and hence to the sequential free functions). That
//! identity is full-replica sharding's contract — routing, the
//! scatter/gather planner, and per-replica warm state must all be
//! invisible in the outputs.

use proptest::prelude::*;

use xsum::core::{
    BatchMethod, PcstConfig, ShardedEngine, SteinerConfig, Summary, SummaryEngine, SummaryInput,
};
use xsum::graph::{EdgeId, EdgeKind, Graph, LoosePath, NodeId, NodeKind};

/// A random small KG shape: users, items, entities, random interaction
/// and attribute edges, plus guaranteed 3-hop paths (the `prop_engine`
/// generator).
#[derive(Debug, Clone)]
struct RandomKg {
    g: Graph,
    users: Vec<NodeId>,
    paths: Vec<LoosePath>,
    /// Paths sourced at `users[1]` — a second routing anchor, so the
    /// default router genuinely scatters the batches below (paths
    /// sourced at one user all hash to one shard).
    alt_paths: Vec<LoosePath>,
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
            // Guaranteed scaffolding: u0 and u1 rated i0, i0–e0, e0–i1
            // so 3-hop explanations exist from two distinct anchors.
            if g.find_edge(users[0], items[0]).is_none() {
                g.add_edge(users[0], items[0], 5.0, EdgeKind::Interaction);
            }
            if g.find_edge(users[1], items[0]).is_none() {
                g.add_edge(users[1], items[0], 4.0, EdgeKind::Interaction);
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
            let alt_paths = vec![LoosePath::ground(
                &g,
                vec![users[1], items[0], entities[0], items[1]],
            )];
            RandomKg {
                g,
                users,
                paths,
                alt_paths,
            }
        })
}

/// A mixed batch with two routing anchors (`users[0]` and `users[1]`
/// first-path sources) so multi-shard runs genuinely scatter — pinned
/// by the `busy >= 2` assertion in the property below.
fn inputs_for(kg: &RandomKg) -> Vec<SummaryInput> {
    vec![
        SummaryInput::user_centric(kg.users[0], kg.paths.clone()),
        SummaryInput::user_centric(kg.users[1], kg.alt_paths.clone()),
        SummaryInput::user_group(&kg.users, kg.paths.clone()),
        SummaryInput::item_centric(kg.alt_paths[0].target(), kg.alt_paths.clone()),
    ]
}

fn assert_bit_identical(want: &Summary, got: &Summary) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.method, got.method);
    prop_assert_eq!(&want.terminals, &got.terminals);
    prop_assert_eq!(want.subgraph.sorted_edges(), got.subgraph.sorted_edges());
    prop_assert_eq!(want.subgraph.sorted_nodes(), got.subgraph.sorted_nodes());
    Ok(())
}

const METHODS: [fn() -> BatchMethod; 3] = [
    || BatchMethod::Steiner(SteinerConfig::default()),
    || BatchMethod::SteinerFast(SteinerConfig::default()),
    || BatchMethod::Pcst(PcstConfig::default()),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_equals_single_engine_across_shard_counts(kg in arb_kg()) {
        // Shard counts {1, 2, 4} × mixed ST / ST-fast / PCST batches,
        // warm engines on both sides (two passes each).
        let inputs = inputs_for(&kg);
        for shards in [1usize, 2, 4] {
            let mut sharded = ShardedEngine::with_threads(&kg.g, shards, 2);
            if shards >= 2 {
                // The whole point: the scatter/gather path must be
                // exercised with at least two busy replicas.
                let mut busy: Vec<usize> =
                    inputs.iter().map(|i| sharded.shard_of_input(i)).collect();
                busy.sort_unstable();
                busy.dedup();
                prop_assert!(busy.len() >= 2, "batch degenerated to one shard");
            }
            let mut single = SummaryEngine::with_threads(2);
            for make_method in METHODS {
                let method = make_method();
                for _ in 0..2 {
                    let got = sharded.summarize_batch(&inputs, method);
                    let want = single.summarize_batch(&kg.g, &inputs, method);
                    prop_assert_eq!(got.len(), inputs.len());
                    for (w, s) in want.iter().zip(&got) {
                        assert_bit_identical(w, s)?;
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_tracks_interleaved_weight_mutations(
        mut kg in arb_kg(),
        weights in proptest::collection::vec(1u8..=200, 1..4),
        edge_sel in 0usize..1000,
    ) {
        // Serving loop with mutations interleaved between batches: after
        // every `ShardedEngine::mutate`, all shard counts must agree
        // with a single engine over an identically mutated graph.
        let inputs = inputs_for(&kg);
        let mut sharded2 = ShardedEngine::with_threads(&kg.g, 2, 1);
        let mut sharded4 = ShardedEngine::with_threads(&kg.g, 4, 1);
        let mut single = SummaryEngine::with_threads(2);
        for (round, w) in weights.iter().enumerate() {
            let method = METHODS[round % METHODS.len()]();
            let want = single.summarize_batch(&kg.g, &inputs, method);
            let got2 = sharded2.summarize_batch(&inputs, method);
            let got4 = sharded4.summarize_batch(&inputs, method);
            for ((w, s2), s4) in want.iter().zip(&got2).zip(&got4) {
                assert_bit_identical(w, s2)?;
                assert_bit_identical(w, s4)?;
            }
            // Mutate the same edge the same way everywhere.
            let e = EdgeId((edge_sel % kg.g.edge_count().max(1)) as u32);
            let new_w = *w as f64 * 0.05;
            sharded2.set_weight(e, new_w);
            sharded4.mutate(|g| g.set_weight(e, new_w));
            kg.g.set_weight(e, new_w);
        }
        // Final post-mutation agreement, including the single-summary
        // routing path.
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let want = single.summarize_batch(&kg.g, &inputs, method);
        let got2 = sharded2.summarize_batch(&inputs, method);
        for (w, s) in want.iter().zip(&got2) {
            assert_bit_identical(w, s)?;
        }
        for input in &inputs {
            assert_bit_identical(
                &single.summarize(&kg.g, input, method),
                &sharded4.summarize(input, method),
            )?;
        }
    }

}
