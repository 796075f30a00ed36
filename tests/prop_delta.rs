//! Property tests pinning the weight-delta ledger end-to-end: across
//! random weight-delta tapes, every delta-aware consumer — a warm
//! [`SummaryEngine`] and [`ShardedEngine`]s at shard counts {1, 2, 4}
//! — must stay **bit-identical** to a stack rebuilt from scratch over
//! the identically-mutated graph. Whether a given batch takes the
//! O(|touched|) patch path or falls back to a rebuild (anchor moved,
//! ledger chain broken) must be invisible in the outputs.
//!
//! The ledger itself is pinned at the bit level: replaying a tape's
//! records backwards through [`WeightDeltaRec::inverse`] must restore
//! every weight's exact f64 bits — including NaN payloads, `-0.0`,
//! infinities, and subnormals — and replaying them forward again must
//! restore the exact post-tape bits.

use proptest::prelude::*;

use xsum::core::{
    BatchMethod, PcstConfig, ShardedEngine, SteinerConfig, Summary, SummaryEngine, SummaryInput,
};
use xsum::graph::{EdgeId, EdgeKind, Graph, LoosePath, NodeId, NodeKind, WeightDeltaRec};

/// A random small KG shape: users, items, entities, random interaction
/// and attribute edges, plus guaranteed 3-hop paths (the `prop_engine`
/// generator).
#[derive(Debug, Clone)]
struct RandomKg {
    g: Graph,
    users: Vec<NodeId>,
    paths: Vec<LoosePath>,
    alt_paths: Vec<LoosePath>,
}

fn arb_kg() -> impl Strategy<Value = RandomKg> {
    (
        2usize..5, // users
        3usize..8, // items
        2usize..5, // entities
        proptest::collection::vec((0usize..64, 0usize..64, 1u8..=5), 5..40),
        proptest::collection::vec((0usize..64, 0usize..64), 4..30),
    )
        .prop_map(|(nu, ni, na, interactions, attributes)| {
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
            let paths = vec![LoosePath::ground(
                &g,
                vec![users[0], items[0], entities[0], items[1]],
            )];
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

/// A weight-delta tape: per batch, a list of `(edge selector, weight
/// selector)` pairs resolved against the concrete graph at apply time.
/// Selectors (not concrete edges/weights) keep the strategy independent
/// of the generated graph's edge count.
fn arb_tape() -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..10_000, 0usize..10_000), 1..6),
        1..5,
    )
}

/// Serve-path weight palette: finite and non-negative, spanning values
/// below, between, and above the generator's weight range so tapes both
/// keep and move the Eq. 1 `base_max` anchor (exercising the patch path
/// *and* the rebuild fallback).
fn serve_weight(sel: usize) -> f64 {
    const PALETTE: [f64; 8] = [0.0, 0.05, 0.5, 1.0, 2.5, 4.75, 5.0, 9.25];
    PALETTE[sel % PALETTE.len()]
}

/// Ledger-path weight palette: every bit-level corner the records must
/// round-trip — NaN (non-default payload included), signed zeros,
/// infinities, subnormals, and ordinary values.
fn ledger_weight(sel: usize) -> f64 {
    const PALETTE: [u64; 10] = [
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff8_0000_dead_beef, // NaN with a payload
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0000, // +0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x3ff8_0000_0000_0000, // 1.5
        0xc00a_0000_0000_0000, // -3.25
        0x4059_0000_0000_0000, // 100.0
    ];
    f64::from_bits(PALETTE[sel % PALETTE.len()])
}

fn edge_of(g: &Graph, sel: usize) -> EdgeId {
    EdgeId((sel % g.edge_count().max(1)) as u32)
}

fn resolve(g: &Graph, batch: &[(usize, usize)], weight: fn(usize) -> f64) -> Vec<(EdgeId, f64)> {
    batch
        .iter()
        .map(|&(e, w)| (edge_of(g, e), weight(w)))
        .collect()
}

fn assert_bit_identical(want: &Summary, got: &Summary) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.method, got.method);
    prop_assert_eq!(&want.terminals, &got.terminals);
    prop_assert_eq!(want.subgraph.sorted_edges(), got.subgraph.sorted_edges());
    prop_assert_eq!(want.subgraph.sorted_nodes(), got.subgraph.sorted_nodes());
    Ok(())
}

fn inputs_for(kg: &RandomKg) -> Vec<SummaryInput> {
    vec![
        SummaryInput::user_centric(kg.users[0], kg.paths.clone()),
        SummaryInput::user_centric(kg.users[1], kg.alt_paths.clone()),
        SummaryInput::user_group(&kg.users, kg.paths.clone()),
    ]
}

const METHODS: [fn() -> BatchMethod; 3] = [
    || BatchMethod::Steiner(SteinerConfig::default()),
    || BatchMethod::SteinerFast(SteinerConfig::default()),
    || BatchMethod::Pcst(PcstConfig::default()),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_engine_tracks_delta_tapes(kg in arb_kg(), tape in arb_tape()) {
        // A warm engine absorbing every batch (patching where the
        // ledger allows, rebuilding where it doesn't) must match a
        // brand-new engine built over the post-delta graph.
        let mut g = kg.g.clone();
        let inputs = inputs_for(&kg);
        let mut warm = SummaryEngine::with_threads(2);
        for (round, batch) in tape.iter().enumerate() {
            let method = METHODS[round % METHODS.len()]();
            std::hint::black_box(warm.summarize_batch(&g, &inputs, method));
            g.apply_delta(&resolve(&g, batch, serve_weight));
            let got = warm.summarize_batch(&g, &inputs, method);
            let want = SummaryEngine::with_threads(2).summarize_batch(&g, &inputs, method);
            for (w, s) in want.iter().zip(&got) {
                assert_bit_identical(w, s)?;
            }
        }
    }

    #[test]
    fn sharded_track_delta_tapes(kg in arb_kg(), tape in arb_tape()) {
        // Sharded full replicas at {1, 2, 4}, fed the same tape through
        // `apply_weight_delta`, must match a rebuilt single-engine stack
        // after every batch.
        let mut g = kg.g.clone();
        let inputs = inputs_for(&kg);
        let mut sharded: Vec<ShardedEngine> = [1usize, 2, 4]
            .iter()
            .map(|&s| ShardedEngine::with_threads(&g, s, 1))
            .collect();
        for (round, batch) in tape.iter().enumerate() {
            let updates = resolve(&g, batch, serve_weight);
            g.apply_delta(&updates);
            for engine in &mut sharded {
                engine.apply_weight_delta(&updates);
            }
            let method = METHODS[round % METHODS.len()]();
            let want = SummaryEngine::with_threads(2).summarize_batch(&g, &inputs, method);
            for engine in &mut sharded {
                let got = engine.summarize_batch(&inputs, method);
                for (w, s) in want.iter().zip(&got) {
                    assert_bit_identical(w, s)?;
                }
            }
        }
    }

    #[test]
    fn undo_redo_restores_exact_bits(kg in arb_kg(), tape in arb_tape()) {
        // Bit-level ledger round-trip over every f64 corner: replaying
        // the recorded per-batch deltas backwards through `inverse()`
        // restores the pre-tape bits exactly; replaying them forward
        // restores the post-tape bits exactly.
        let mut g = kg.g.clone();
        let before: Vec<u64> = g.edge_ids().map(|e| g.weight(e).to_bits()).collect();
        let mut recorded: Vec<Vec<WeightDeltaRec>> = Vec::new();
        for batch in &tape {
            let prev = g.epoch();
            let updates = resolve(&g, batch, ledger_weight);
            g.apply_delta(&updates);
            recorded.push(
                g.delta_since(prev)
                    .expect("weight-only batch keeps the ledger chain alive"),
            );
        }
        let after: Vec<u64> = g.edge_ids().map(|e| g.weight(e).to_bits()).collect();
        // Undo: inverse records, newest batch first.
        for recs in recorded.iter().rev() {
            let undo: Vec<(EdgeId, f64)> = recs
                .iter()
                .map(|r| {
                    let inv = r.inverse();
                    (inv.edge, f64::from_bits(inv.new_bits))
                })
                .collect();
            g.apply_delta(&undo);
        }
        let restored: Vec<u64> = g.edge_ids().map(|e| g.weight(e).to_bits()).collect();
        prop_assert_eq!(&restored, &before, "undo did not restore pre-tape bits");
        // Redo: recorded records, oldest batch first.
        for recs in &recorded {
            let redo: Vec<(EdgeId, f64)> = recs
                .iter()
                .map(|r| (r.edge, f64::from_bits(r.new_bits)))
                .collect();
            g.apply_delta(&redo);
        }
        let replayed: Vec<u64> = g.edge_ids().map(|e| g.weight(e).to_bits()).collect();
        prop_assert_eq!(&replayed, &after, "redo did not restore post-tape bits");
    }
}
