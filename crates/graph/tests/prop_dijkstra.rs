//! Bit-identity pin: the indexed-heap, CSR-resident Dijkstra against
//! the legacy `BinaryHeap` + lazy-deletion implementation it replaced.
//!
//! The legacy kernel is reproduced verbatim in this file (same
//! `(cost, node)` tie-break, same relaxation conditions, same early-exit
//! target countdown) and every observable — distances, parent edges,
//! reached sets, reconstructed paths, Voronoi origins — is compared
//! **bit-for-bit** across random graphs × random target sets (duplicates,
//! source-coincident, out-of-range) × voronoi mode, plus Prim old-vs-new
//! on the same graphs. Costs are drawn from a coarse grid so equal-cost
//! frontiers (where a tie-break regression would reorder settlement)
//! occur in almost every case.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use xsum_graph::{
    prim, DijkstraWorkspace, EdgeCosts, EdgeId, EdgeKind, Graph, NodeId, NodeKind, VoronoiBridges,
};

/// The legacy max-heap entry inverted into a min-heap on cost, ties on
/// node id — copied from the pre-indexed-heap `dijkstra.rs`.
#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Observable state of one legacy run, for field-by-field comparison.
struct LegacyRun {
    dist: Vec<f64>,
    parent: Vec<Option<EdgeId>>,
    /// Whether the node was relaxed at least once (the workspace's
    /// `stamp` visibility: exactly these nodes report a distance).
    reached: Vec<bool>,
    origin: Vec<u32>,
    /// Voronoi runs: the nodes in the order they settled.
    order: Vec<NodeId>,
}

/// The pre-change `DijkstraWorkspace::run`, allocating per call.
fn legacy_run(g: &Graph, costs: &EdgeCosts, source: NodeId, targets: &[NodeId]) -> LegacyRun {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut settled = vec![false; n];
    let mut is_target = vec![false; n];
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();

    let mut remaining = if targets.is_empty() { usize::MAX } else { 0 };
    if remaining == 0 {
        for t in targets {
            if t.index() < n && !is_target[t.index()] {
                is_target[t.index()] = true;
                remaining += 1;
            }
        }
    }

    dist[source.index()] = 0.0;
    reached[source.index()] = true;
    heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if is_target[node.index()] {
            is_target[node.index()] = false;
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        for &(next, e) in g.neighbors(node) {
            let ni = next.index();
            if settled[ni] {
                continue;
            }
            let nd = cost + costs.get(e);
            if !reached[ni] || nd < dist[ni] {
                dist[ni] = nd;
                parent[ni] = Some(e);
                reached[ni] = true;
                heap.push(HeapEntry {
                    cost: nd,
                    node: next,
                });
            }
        }
    }
    LegacyRun {
        dist,
        parent,
        reached,
        origin: Vec::new(),
        order: Vec::new(),
    }
}

/// The pre-change `DijkstraWorkspace::run_voronoi`.
fn legacy_voronoi(g: &Graph, costs: &EdgeCosts, sources: &[NodeId]) -> LegacyRun {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut settled = vec![false; n];
    let mut origin = vec![0u32; n];
    let mut order = Vec::new();
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();

    for (i, &s) in sources.iter().enumerate() {
        let si = s.index();
        if reached[si] {
            continue;
        }
        dist[si] = 0.0;
        origin[si] = i as u32;
        reached[si] = true;
        heap.push(HeapEntry { cost: 0.0, node: s });
    }
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        order.push(node);
        let node_origin = origin[node.index()];
        for &(next, e) in g.neighbors(node) {
            let ni = next.index();
            if settled[ni] {
                continue;
            }
            let nd = cost + costs.get(e);
            if !reached[ni] || nd < dist[ni] {
                dist[ni] = nd;
                parent[ni] = Some(e);
                origin[ni] = node_origin;
                reached[ni] = true;
                heap.push(HeapEntry {
                    cost: nd,
                    node: next,
                });
            }
        }
    }
    LegacyRun {
        dist,
        parent,
        reached,
        origin,
        order,
    }
}

/// The pre-change lazy-deletion Prim, allocating per call.
fn legacy_prim(g: &Graph, costs: &EdgeCosts, root: NodeId) -> Vec<EdgeId> {
    #[derive(PartialEq)]
    struct Entry {
        cost: f64,
        edge: EdgeId,
        to: NodeId,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .cost
                .partial_cmp(&self.cost)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.edge.0.cmp(&self.edge.0))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut in_tree = vec![false; g.node_count()];
    let mut heap = BinaryHeap::new();
    let mut tree = Vec::new();
    in_tree[root.index()] = true;
    for &(next, e) in g.neighbors(root) {
        heap.push(Entry {
            cost: costs.get(e),
            edge: e,
            to: next,
        });
    }
    while let Some(Entry { edge, to, .. }) = heap.pop() {
        if in_tree[to.index()] {
            continue;
        }
        in_tree[to.index()] = true;
        tree.push(edge);
        for &(next, e) in g.neighbors(to) {
            if !in_tree[next.index()] {
                heap.push(Entry {
                    cost: costs.get(e),
                    edge: e,
                    to: next,
                });
            }
        }
    }
    tree
}

/// Compare the workspace's observables against a legacy run,
/// bit-for-bit. `reached` gates which nodes may answer.
fn assert_matches_legacy(
    g: &Graph,
    ws: &DijkstraWorkspace,
    legacy: &LegacyRun,
    check_origin: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut path = Vec::new();
    for v in g.node_ids() {
        let vi = v.index();
        match ws.distance(v) {
            Some(d) => {
                prop_assert!(legacy.reached[vi], "node {vi} reached only in new");
                prop_assert_eq!(
                    d.to_bits(),
                    legacy.dist[vi].to_bits(),
                    "distance bits diverge at node {}",
                    vi
                );
            }
            None => prop_assert!(!legacy.reached[vi], "node {vi} reached only in legacy"),
        }
        if legacy.reached[vi] {
            if check_origin {
                prop_assert_eq!(ws.origin_of(v), Some(legacy.origin[vi]));
                path.clear();
                // Walking the parent chain compares every hop's edge id.
                prop_assert!(ws.append_path_to_origin(g, v, &mut path));
                let mut cur = v;
                for (i, e) in path.iter().rev().enumerate() {
                    prop_assert_eq!(
                        legacy.parent[cur.index()],
                        Some(*e),
                        "voronoi parent diverges {} hops above node {}",
                        i,
                        vi
                    );
                    cur = g.edge(*e).other(cur);
                }
                prop_assert_eq!(legacy.parent[cur.index()], None);
            } else {
                prop_assert_eq!(
                    ws.to_result(g.node_count()).parent_edge[vi],
                    legacy.parent[vi],
                    "parent edge diverges at node {}",
                    vi
                );
            }
        }
    }
    Ok(())
}

/// Strategy: a graph on `n ∈ [2, 14]` nodes with grid-valued weights
/// (steps of 0.5 — duplicate costs everywhere), plus raw picks for
/// sources/targets.
fn arb_case() -> impl Strategy<Value = (Graph, Vec<usize>, usize)> {
    (2usize..14).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1usize..8)
            .prop_filter("no self-loops", |(a, b, _)| a != b)
            .prop_map(|(a, b, w)| (a, b, w));
        (
            proptest::collection::vec(edge, 0..40),
            proptest::collection::vec(0usize..n + 3, 0..8),
            0..n,
        )
            .prop_map(move |(edges, picks, src)| {
                let mut g = Graph::new();
                for _ in 0..n {
                    g.add_node(NodeKind::Entity);
                }
                for &(a, b, w) in &edges {
                    g.add_edge(
                        NodeId(a as u32),
                        NodeId(b as u32),
                        w as f64 * 0.5,
                        EdgeKind::Attribute,
                    );
                }
                (g, picks, src)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn run_is_bit_identical_to_legacy((g, picks, src) in arb_case()) {
        let costs = EdgeCosts(g.edge_ids().map(|e| g.weight(e)).collect());
        let source = NodeId(src as u32);
        // Targets include duplicates, possibly the source, and ids up to
        // n + 2 (out of range — tolerated, excluded from the countdown).
        let targets: Vec<NodeId> = picks.iter().map(|&p| NodeId(p as u32)).collect();
        let mut ws = DijkstraWorkspace::new();
        // Twice through one workspace: the second run must not see the
        // first's state (generation discipline under the new heap).
        for _ in 0..2 {
            ws.run(&g, &costs, source, &targets);
            let legacy = legacy_run(&g, &costs, source, &targets);
            assert_matches_legacy(&g, &ws, &legacy, false)?;
        }
        // And the full (no-target) run from the same workspace.
        ws.run(&g, &costs, source, &[]);
        let legacy = legacy_run(&g, &costs, source, &[]);
        assert_matches_legacy(&g, &ws, &legacy, false)?;
    }

    #[test]
    fn voronoi_is_bit_identical_to_legacy((g, picks, src) in arb_case()) {
        let costs = EdgeCosts(g.edge_ids().map(|e| g.weight(e)).collect());
        // Sources: the in-range picks plus `src` (guaranteed non-empty),
        // duplicates kept — legacy assigns the first index.
        let n = g.node_count();
        let mut sources: Vec<NodeId> = vec![NodeId(src as u32)];
        sources.extend(picks.iter().filter(|p| **p < n).map(|&p| NodeId(p as u32)));
        let mut ws = DijkstraWorkspace::new();
        ws.run_voronoi(&g, &costs, &sources);
        let legacy = legacy_voronoi(&g, &costs, &sources);
        assert_matches_legacy(&g, &ws, &legacy, true)?;
        // Interleave a single-source run, then voronoi again: reuse must
        // stay clean in both directions.
        ws.run(&g, &costs, sources[0], &[]);
        ws.run_voronoi(&g, &costs, &sources);
        assert_matches_legacy(&g, &ws, &legacy, true)?;
    }

    #[test]
    fn prim_is_bit_identical_to_legacy((g, _, src) in arb_case()) {
        let costs = EdgeCosts(g.edge_ids().map(|e| g.weight(e)).collect());
        let root = NodeId(src as u32);
        // Edge-id order within the tree sequence is part of the pin.
        prop_assert_eq!(prim(&g, &costs, root), legacy_prim(&g, &costs, root));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `run_bounded(r)` is `run` cut at `r`: at every radius it settles
    /// exactly the nodes `run` settles with a key of at most `r` — the
    /// prefix of `run`'s settle order, since pop keys never decrease —
    /// with the same distance and parent bits.
    #[test]
    fn bounded_run_is_the_prefix_of_run((g, picks, src) in arb_case(), shift in 0usize..2) {
        // Shifting the 0.5-step grid down by one step adds zero-cost edges.
        let costs = EdgeCosts(g.edge_ids().map(|e| g.weight(e) - 0.5 * shift as f64).collect());
        let source = NodeId(src as u32);
        let targets: Vec<NodeId> = picks.iter().map(|&p| NodeId(p as u32)).collect();
        let mut full = DijkstraWorkspace::new();
        full.run(&g, &costs, source, &targets);
        let full_parents = full.to_result(g.node_count()).parent_edge;
        let mut radii = vec![-1.0, f64::INFINITY];
        for v in g.node_ids().filter(|&v| full.is_settled(v)) {
            let d = full.distance(v).expect("settled implies reached");
            radii.extend([d, d - 0.25]);
        }
        let mut bounded = DijkstraWorkspace::new();
        for radius in radii {
            bounded.run_bounded(&g, &costs, source, &targets, radius);
            let parents = bounded.to_result(g.node_count()).parent_edge;
            let mut kept = 0;
            for v in g.node_ids() {
                let d = full.distance(v);
                let keep = full.is_settled(v) && d.is_some_and(|d| d <= radius);
                prop_assert_eq!(bounded.is_settled(v), keep, "node {} at radius {}", v.index(), radius);
                if keep {
                    kept += 1;
                    prop_assert_eq!(bounded.distance(v).map(f64::to_bits), d.map(f64::to_bits));
                    prop_assert_eq!(parents[v.index()], full_parents[v.index()]);
                }
            }
            prop_assert_eq!(bounded.settled_count(), kept);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `run_voronoi_bounded` is `run_voronoi` cut short: it settles a
    /// prefix of `run_voronoi`'s settle order, with the same distance,
    /// parent and cell bits, and every bridge it keeps joins two settled
    /// nodes of the two cells it names.
    #[test]
    fn bounded_voronoi_settles_a_prefix_of_run_voronoi(
        (g, picks, src) in arb_case(),
        shift in 0usize..2,
    ) {
        // Shifting the 0.5-step grid down by one step adds zero-cost edges.
        let costs = EdgeCosts(g.edge_ids().map(|e| g.weight(e) - 0.5 * shift as f64).collect());
        let n = g.node_count();
        let mut sources: Vec<NodeId> = vec![NodeId(src as u32)];
        sources.extend(picks.iter().filter(|p| **p < n).map(|&p| NodeId(p as u32)));
        let full = legacy_voronoi(&g, &costs, &sources);
        let mut ws = DijkstraWorkspace::new();
        let mut bridges = VoronoiBridges::new();
        // Twice through one workspace, with an exhaustive pass between:
        // neither may see the other's stamps or bridges.
        for _ in 0..2 {
            ws.run_voronoi_bounded(&g, &costs, &sources, &mut bridges);
            let kept = ws.settled_count();
            prop_assert!(kept <= full.order.len());
            for (i, &v) in full.order.iter().enumerate() {
                prop_assert_eq!(ws.is_settled(v), i < kept, "node {} at settle step {}", v.index(), i);
            }
            let parents = ws.to_result(n).parent_edge;
            for &v in &full.order[..kept] {
                let vi = v.index();
                prop_assert_eq!(ws.distance(v).map(f64::to_bits), Some(full.dist[vi].to_bits()));
                prop_assert_eq!(parents[vi], full.parent[vi]);
                prop_assert_eq!(ws.origin_of(v), Some(full.origin[vi]));
            }
            for pair in bridges.pairs() {
                let edge = g.edge(EdgeId(pair.payload as u32));
                prop_assert!(ws.is_settled(edge.src) && ws.is_settled(edge.dst));
                let mut cells = [full.origin[edge.src.index()], full.origin[edge.dst.index()]];
                cells.sort_unstable();
                prop_assert_eq!(cells, [pair.a as u32, pair.b as u32]);
            }
            ws.run_voronoi(&g, &costs, &sources);
            assert_matches_legacy(&g, &ws, &full, true)?;
        }
    }
}
