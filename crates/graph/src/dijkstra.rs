//! Single-source shortest paths over the undirected view of the graph.
//!
//! Algorithm 1 of the paper computes "shortest paths between all pairs of
//! terminal nodes"; with |T| terminals that is |T| Dijkstra runs, giving the
//! quoted `O(|T|(|E| + |V| log |V|))` Steiner approximation. This module
//! provides the single run, with optional early termination once a set of
//! targets has been settled (the common case: terminals are a tiny fraction
//! of the ML1M graph's 19,844 nodes).
//!
//! Entry points:
//!
//! * [`DijkstraWorkspace::run`] — the hot path. The workspace owns the
//!   `dist` / `parent` buffers, an [`IndexedDaryHeap`], and
//!   generation-stamped visited and target arrays, so repeated runs
//!   perform **zero heap allocations** after the first (clears are O(1)
//!   generation bumps, not O(|V|) rewrites), target membership is an
//!   O(1) stamp check instead of an O(|T|) scan per settled node, and
//!   duplicate targets are counted once without the legacy per-call
//!   sort/dedup allocation.
//! * [`DijkstraWorkspace::run_bounded`] — `run` with a search radius:
//!   the run also stops once the next node to settle lies farther than
//!   the radius. Up to that cut it settles exactly what `run` settles, in
//!   the same order, with the same distances and parents, so it is `run`
//!   truncated, not an approximation. KMB's metric closure uses it to
//!   skip the terminal pairs Kruskal can never pick (see
//!   `xsum_core::steiner`); `run` is `run_bounded` with an infinite
//!   radius.
//! * [`DijkstraWorkspace::run_voronoi`] — a multi-source run grown to
//!   exhaustion: every reachable node learns its nearest source (its
//!   Voronoi cell), its distance to it and the path back.
//! * [`DijkstraWorkspace::run_voronoi_bounded`] — Mehlhorn's Voronoi
//!   pass with the bridge scan fused in ([`VoronoiBridges`] keeps the
//!   cheapest edge between each pair of cells), stopped as soon as no
//!   unseen bridge can enter the bridges' minimum spanning tree. It
//!   settles a prefix of `run_voronoi`'s settle order; the two share
//!   one relaxation loop.
//! * [`dijkstra`] — the allocating convenience wrapper returning an owned
//!   [`DijkstraResult`]; it drives a fresh workspace internally.
//!
//! After an early exit (all targets settled, the radius reached, or the
//! Voronoi pass's stop rule met) the nodes on the frontier — discovered
//! but not settled — still report their tentative distance, an upper
//! bound on the true one.
//! [`DijkstraWorkspace::is_settled`] tells the two apart, and
//! [`DijkstraWorkspace::settled_count`] reports how many nodes the run
//! settled, a work counter that does not depend on the machine.
//!
//! ## Heap and relaxation design
//!
//! The priority queue is a workspace-resident **indexed 4-ary min-heap
//! with decrease-key** ([`IndexedDaryHeap`]): each open node holds
//! exactly one slot whose position is tracked per node, so an improved
//! tentative distance sifts the existing slot up instead of pushing a
//! duplicate. The legacy `BinaryHeap` + lazy-deletion scheme kept one
//! entry per *relaxation* (up to `2|E|`) and paid a pop + sift for every
//! stale entry; the indexed heap's size is bounded by the open frontier
//! (at most `|V|`), every pop settles a node, and the `(cost, node)`
//! tie-break reproduces the legacy settle order bit-for-bit — at every
//! pop both schemes surface the minimum over the open nodes' best-known
//! distances, so all distances, parents, and trees are unchanged.
//!
//! The relaxation loop is **CSR-resident**: a run hoists the frozen CSR
//! adjacency ([`Graph::csr_view`]) and the contiguous edge-cost slice
//! ([`EdgeCosts::as_slice`]) once, then streams each settled node's
//! `(neighbor, edge)` row and indexes costs by edge id directly —
//! instead of re-resolving the lazily-frozen CSR through its `OnceLock`
//! and calling through the cost accessor per relaxation.

use crate::dheap::IndexedDaryHeap;
use crate::graph::{EdgeCosts, Graph};
use crate::ids::{EdgeId, NodeId};
use crate::mst::MstEdge;
use crate::unionfind::UnionFind;

/// Output of a Dijkstra run: distances and the parent edge of each settled
/// node, from which paths are reconstructed.
#[derive(Debug, Clone)]
pub struct DijkstraResult {
    /// Source node of the run.
    pub source: NodeId,
    /// `dist[v]` = cost of the cheapest path source→v for every node the
    /// run settled (∞ if unreached). After an early exit, a node that was
    /// discovered but not settled holds a tentative upper bound instead:
    /// the cheapest path found so far, which may not be the cheapest one.
    pub dist: Vec<f64>,
    /// Edge through which each node was settled (`None` for source/unreached).
    pub parent_edge: Vec<Option<EdgeId>>,
}

impl DijkstraResult {
    /// Distance to `t`, or `None` if unreachable.
    pub fn distance(&self, t: NodeId) -> Option<f64> {
        let d = self.dist[t.index()];
        d.is_finite().then_some(d)
    }

    /// Reconstruct the edge sequence of the shortest path source→t.
    ///
    /// Returns `None` if `t` is unreachable; the path is empty when
    /// `t == source`.
    pub fn path_to(&self, g: &Graph, t: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist[t.index()].is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = t;
        while cur != self.source {
            let e = self.parent_edge[cur.index()]?;
            edges.push(e);
            cur = g.edge(e).other(cur);
        }
        edges.reverse();
        Some(edges)
    }
}

/// Reusable single-source shortest-path state.
///
/// All buffers are sized to the largest graph seen so far and reused
/// verbatim across runs: validity is tracked by comparing per-node stamps
/// against a generation counter that a new run bumps in O(1). A
/// workspace is cheap to create but only pays off when reused — the
/// Steiner metric closure runs |T| searches per summary and thousands of
/// summaries per batch out of the same workspace without touching the
/// allocator.
#[derive(Debug, Clone)]
pub struct DijkstraWorkspace {
    /// Source of the last run (meaningless before the first run).
    source: NodeId,
    /// Tentative/final distances; valid iff `stamp[v] == generation`.
    dist: Vec<f64>,
    /// Parent edges; valid iff `stamp[v] == generation`.
    parent: Vec<Option<EdgeId>>,
    /// Generation stamp: node has a valid dist/parent entry this run.
    stamp: Vec<u32>,
    /// Generation stamp: node is settled this run.
    settled: Vec<u32>,
    /// Generation stamp: node is a not-yet-settled target this run.
    target: Vec<u32>,
    /// Voronoi mode: index (into the run's source list) of the source
    /// that reaches each node cheapest; valid iff `stamp[v] == generation`.
    origin: Vec<u32>,
    /// Current run's generation (stamps from other runs never match).
    generation: u32,
    /// Nodes the most recent run settled.
    settled_count: usize,
    /// Reused indexed 4-ary priority queue (decrease-key, so it holds
    /// at most one slot per open node).
    heap: IndexedDaryHeap,
}

impl Default for DijkstraWorkspace {
    fn default() -> Self {
        DijkstraWorkspace {
            source: NodeId(0),
            dist: Vec::new(),
            parent: Vec::new(),
            stamp: Vec::new(),
            settled: Vec::new(),
            target: Vec::new(),
            origin: Vec::new(),
            generation: 0,
            settled_count: 0,
            heap: IndexedDaryHeap::new(),
        }
    }
}

impl DijkstraWorkspace {
    /// Fresh, unsized workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Source node of the most recent run.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Bump the generation, handling wraparound by a full stamp reset.
    fn next_generation(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, None);
            self.stamp.resize(n, 0);
            self.settled.resize(n, 0);
            self.target.resize(n, 0);
            self.origin.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // One O(|V|) reset every 2^32 runs keeps stale stamps from
            // colliding with a recycled generation value.
            self.stamp.fill(0);
            self.settled.fill(0);
            self.target.fill(0);
            self.generation = 1;
        }
        self.heap.clear_for(n);
    }

    /// Run Dijkstra from `source`, stopping early once every node in
    /// `targets` (if non-empty) has been settled. Duplicate targets are
    /// counted once; a target equal to `source` settles immediately.
    ///
    /// Results are read back through [`DijkstraWorkspace::distance`] /
    /// [`DijkstraWorkspace::path_to`] / [`DijkstraWorkspace::append_path_to`]
    /// and stay valid until the next `run` on this workspace.
    ///
    /// # Panics
    /// Panics (debug) if any edge cost is negative — the §IV-A transform
    /// guarantees positivity.
    pub fn run(&mut self, g: &Graph, costs: &EdgeCosts, source: NodeId, targets: &[NodeId]) {
        self.run_bounded(g, costs, source, targets, f64::INFINITY);
    }

    /// [`DijkstraWorkspace::run`] that also stops once the next node to
    /// settle lies farther than `radius` from `source`.
    ///
    /// The nodes it settles are exactly the prefix of `run`'s settle
    /// order whose distance is at most `radius`, with the same distance
    /// and parent bits; every node it leaves unsettled is farther than
    /// `radius`. An infinite radius is `run`.
    ///
    /// # Panics
    /// Panics (debug) if any edge cost is negative.
    pub fn run_bounded(
        &mut self,
        g: &Graph,
        costs: &EdgeCosts,
        source: NodeId,
        targets: &[NodeId],
        radius: f64,
    ) {
        debug_assert_eq!(
            costs.len(),
            g.edge_count(),
            "cost table must cover all edges"
        );
        let n = g.node_count();
        self.next_generation(n);
        self.source = source;
        let generation = self.generation;

        // Mark targets with the generation stamp: membership tests in the
        // main loop become one array read, duplicates collapse for free.
        // Out-of-range ids (stale targets from another graph) are
        // skipped: they can never settle, so — like the legacy linear
        // scan — they simply never satisfy the countdown.
        let mut remaining = if targets.is_empty() { usize::MAX } else { 0 };
        if remaining == 0 {
            for t in targets {
                if t.index() < n && self.target[t.index()] != generation {
                    self.target[t.index()] = generation;
                    remaining += 1;
                }
            }
        }

        self.dist[source.index()] = 0.0;
        self.parent[source.index()] = None;
        self.stamp[source.index()] = generation;
        self.heap.push(source.0, source.0, 0.0);

        // Hoisted once per run: the frozen CSR rows and the contiguous
        // cost table the relaxation loop streams.
        let csr = g.csr_view();
        let cost_of = costs.as_slice();
        // With decrease-key every pop settles a fresh node — there are
        // no stale entries to skip. Pop keys never decrease, so the first
        // key past the radius ends the run.
        let mut settled = 0;
        while let Some((cost, _, node)) = self.heap.pop() {
            if cost > radius {
                break;
            }
            let node = NodeId(node);
            debug_assert_ne!(self.settled[node.index()], generation);
            self.settled[node.index()] = generation;
            settled += 1;
            if self.target[node.index()] == generation {
                // Un-mark so the countdown stays exact even if targets
                // were stamped under a recycled generation.
                self.target[node.index()] = generation.wrapping_sub(1);
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            for &(next, e) in csr.row(node) {
                let ni = next.index();
                if self.settled[ni] == generation {
                    continue;
                }
                let w = cost_of[e.index()];
                debug_assert!(w >= 0.0, "negative edge cost breaks Dijkstra");
                let nd = cost + w;
                if self.stamp[ni] != generation {
                    self.dist[ni] = nd;
                    self.parent[ni] = Some(e);
                    self.stamp[ni] = generation;
                    self.heap.push(next.0, next.0, nd);
                } else if nd < self.dist[ni] {
                    self.dist[ni] = nd;
                    self.parent[ni] = Some(e);
                    self.heap.decrease(next.0, next.0, nd);
                }
            }
        }
        self.settled_count = settled;
    }

    /// Multi-source Dijkstra: grow all of `sources` simultaneously,
    /// computing for every reachable node its distance to — and the
    /// identity of — the *nearest* source (a Voronoi partition of the
    /// graph around the sources, the heart of Mehlhorn's
    /// metric-closure acceleration).
    ///
    /// Runs to exhaustion (every reachable node gets its cell); when only
    /// the cheapest bridges between cells are wanted,
    /// [`DijkstraWorkspace::run_voronoi_bounded`] stops much earlier.
    /// Read back with [`DijkstraWorkspace::distance`],
    /// [`DijkstraWorkspace::origin_of`] and
    /// [`DijkstraWorkspace::append_path_to_origin`]. Ties between
    /// sources resolve deterministically (cost, then node id, through
    /// the heap order).
    ///
    /// # Panics
    /// Panics (debug) on negative edge costs.
    pub fn run_voronoi(&mut self, g: &Graph, costs: &EdgeCosts, sources: &[NodeId]) {
        self.seed_cells(g, costs, sources);
        self.grow_cells(g, costs, &mut ());
    }

    /// [`DijkstraWorkspace::run_voronoi`] with the bridge scan fused in
    /// and a stop rule: Mehlhorn's steps 1 and 2 in one pass.
    ///
    /// When a node settles, every already-settled neighbour in another
    /// cell gives a bridge between the two cells' sources, at cost
    /// `d(src) + c(e) + d(dst)` summed in the edge's own orientation.
    /// `bridges` keeps the cheapest one per pair of cells, the minimum by
    /// (cost, edge id); bridges of infinite cost are never kept.
    ///
    /// Once the bridges connect every cell, let `M` be the heaviest edge
    /// of their minimum spanning tree. The pass stops at the first pop
    /// key `k` with `2k > M` (plus a few ulps of slack for rounding): a
    /// bridge it has not seen has an endpoint `v` still unsettled, and
    /// `d(u) + c(e) + d(v) ≥ 2·d(v) ≥ 2k`, so it costs more than `M` and
    /// can only improve pairs that cost more than `M`. Kruskal then picks
    /// the same tree, with the same pairs, bridge ids and cost bits, as
    /// over the bridges of the exhaustive pass plus a full edge scan. `M`
    /// only falls as bridges are found, so it is re-derived on a halving
    /// schedule — when `k` has covered half the way from the last check
    /// to the current stop key — rather than after every improvement. If
    /// the cells never connect (a source is unreachable from another),
    /// the pass runs to exhaustion, as `run_voronoi` does.
    ///
    /// It settles a prefix of `run_voronoi`'s settle order, with the same
    /// distance, parent and cell bits, so every read-back accessor
    /// answers as after `run_voronoi` for every settled node (and for the
    /// endpoints of every kept bridge, which are settled).
    /// [`DijkstraWorkspace::settled_count`] reports the prefix's length.
    ///
    /// # Panics
    /// Panics (debug) on negative edge costs.
    pub fn run_voronoi_bounded(
        &mut self,
        g: &Graph,
        costs: &EdgeCosts,
        sources: &[NodeId],
        bridges: &mut VoronoiBridges,
    ) {
        let cells = self.seed_cells(g, costs, sources);
        bridges.start(sources.len(), cells);
        let mut scan = BridgeScan {
            bridges,
            g,
            cost_of: costs.as_slice(),
            node: NodeId(0),
            cell: 0,
            dist: 0.0,
        };
        self.grow_cells(g, costs, &mut scan);
    }

    /// Start a multi-source run: stamp every source at distance 0 in its
    /// own cell and queue it. Returns the number of distinct sources; a
    /// duplicate keeps its first index and opens no cell.
    fn seed_cells(&mut self, g: &Graph, costs: &EdgeCosts, sources: &[NodeId]) -> usize {
        debug_assert_eq!(
            costs.len(),
            g.edge_count(),
            "cost table must cover all edges"
        );
        self.next_generation(g.node_count());
        let generation = self.generation;
        // With several sources there is no single root; `source` is used
        // as the parent-chain sentinel, so pick the first (paths stop at
        // parent == None anyway).
        self.source = sources.first().copied().unwrap_or(NodeId(0));

        let mut cells = 0;
        for (i, &s) in sources.iter().enumerate() {
            let si = s.index();
            if self.stamp[si] == generation {
                continue;
            }
            self.dist[si] = 0.0;
            self.parent[si] = None;
            self.origin[si] = i as u32;
            self.stamp[si] = generation;
            self.heap.push(s.0, s.0, 0.0);
            cells += 1;
        }
        cells
    }

    /// The multi-source relaxation loop: the same CSR-resident
    /// relaxation as `run`, carrying each node's cell to its neighbours,
    /// with `hook` told of every pop and of every already-settled
    /// neighbour met on a settling node's row.
    fn grow_cells(&mut self, g: &Graph, costs: &EdgeCosts, hook: &mut impl CellHook) {
        let generation = self.generation;
        let csr = g.csr_view();
        let cost_of = costs.as_slice();
        let mut settled = 0;
        while let Some((cost, _, node)) = self.heap.pop() {
            let node = NodeId(node);
            if !hook.pop(self, node, cost) {
                break;
            }
            debug_assert_ne!(self.settled[node.index()], generation);
            self.settled[node.index()] = generation;
            settled += 1;
            let node_origin = self.origin[node.index()];
            for &(next, e) in csr.row(node) {
                let ni = next.index();
                if self.settled[ni] == generation {
                    hook.settled_neighbour(self, next, e);
                    continue;
                }
                let w = cost_of[e.index()];
                debug_assert!(w >= 0.0, "negative edge cost breaks Dijkstra");
                let nd = cost + w;
                if self.stamp[ni] != generation {
                    self.dist[ni] = nd;
                    self.parent[ni] = Some(e);
                    self.origin[ni] = node_origin;
                    self.stamp[ni] = generation;
                    self.heap.push(next.0, next.0, nd);
                } else if nd < self.dist[ni] {
                    self.dist[ni] = nd;
                    self.parent[ni] = Some(e);
                    self.origin[ni] = node_origin;
                    self.heap.decrease(next.0, next.0, nd);
                }
            }
        }
        self.settled_count = settled;
    }

    /// After [`DijkstraWorkspace::run_voronoi`]: index (into the run's
    /// source list) of the source nearest to `v`, or `None` if `v` is
    /// unreachable from every source.
    #[inline]
    pub fn origin_of(&self, v: NodeId) -> Option<u32> {
        self.reached(v).then(|| self.origin[v.index()])
    }

    /// After [`DijkstraWorkspace::run_voronoi`]: append the edges of the
    /// path from `v` back to its nearest source (in source→v walk
    /// order). Returns `false` — leaving `out` untouched — if `v` was
    /// unreached.
    pub fn append_path_to_origin(&self, g: &Graph, v: NodeId, out: &mut Vec<EdgeId>) -> bool {
        if !self.reached(v) {
            return false;
        }
        let before = out.len();
        let mut cur = v;
        while let Some(e) = self.parent[cur.index()] {
            out.push(e);
            cur = g.edge(e).other(cur);
        }
        out[before..].reverse();
        true
    }

    /// Visit every node the most recent run **settled**, in node-id
    /// order (an O(|V|) stamp scan — not for hot loops).
    ///
    /// The settled set is exactly the set of nodes whose incident edge
    /// costs the run read: relaxation streams a node's CSR row only when
    /// it settles, so summing degrees over this set counts the edges a
    /// search scanned — how work counters outside the hot loop (e.g. a
    /// benchmark's per-phase trace) measure a run.
    pub fn for_each_settled(&self, mut f: impl FnMut(NodeId)) {
        for (i, &s) in self.settled.iter().enumerate() {
            if s == self.generation {
                f(NodeId(i as u32));
            }
        }
    }

    /// Whether `v` has a valid entry from the last run (total: ids
    /// beyond the buffers — e.g. on a fresh workspace — are unreached,
    /// not a panic).
    #[inline]
    fn reached(&self, v: NodeId) -> bool {
        self.stamp.get(v.index()) == Some(&self.generation)
    }

    /// Whether the most recent run settled `v` (total, like
    /// [`DijkstraWorkspace::distance`]). A settled node's distance and
    /// path are final; a node that was only discovered before an early
    /// exit is reached but not settled.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.settled.get(v.index()) == Some(&self.generation)
    }

    /// How many nodes the most recent run settled (0 before any run).
    #[inline]
    pub fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Distance to `t` from the last run's source, or `None` if
    /// unreached (or not yet discovered when the run exited early).
    ///
    /// Exact for a settled `t` (see [`DijkstraWorkspace::is_settled`]).
    /// After an early exit, a `t` on the frontier — discovered but not
    /// settled — reports its tentative distance, an upper bound on the
    /// true one.
    #[inline]
    pub fn distance(&self, t: NodeId) -> Option<f64> {
        self.reached(t).then(|| self.dist[t.index()])
    }

    /// Reconstruct the edge sequence of the shortest path source→t, or
    /// `None` if `t` was not reached (the same frontier caveat as
    /// [`DijkstraWorkspace::append_path_to`]).
    pub fn path_to(&self, g: &Graph, t: NodeId) -> Option<Vec<EdgeId>> {
        let mut out = Vec::new();
        self.append_path_to(g, t, &mut out).then_some(out)
    }

    /// Append the source→t path's edges to `out` in walk order
    /// (allocation-free when `out` has capacity). Returns `false` —
    /// leaving `out` untouched — if `t` was not reached.
    ///
    /// The path is a shortest one for a settled `t`. For a frontier node
    /// left unsettled by an early exit it is the path behind the
    /// tentative [`DijkstraWorkspace::distance`], which may be longer.
    pub fn append_path_to(&self, g: &Graph, t: NodeId, out: &mut Vec<EdgeId>) -> bool {
        if !self.reached(t) {
            return false;
        }
        let before = out.len();
        let mut cur = t;
        while cur != self.source {
            match self.parent[cur.index()] {
                Some(e) => {
                    out.push(e);
                    cur = g.edge(e).other(cur);
                }
                None => {
                    out.truncate(before);
                    return false;
                }
            }
        }
        out[before..].reverse();
        true
    }

    /// Copy the last run out into an owned [`DijkstraResult`] (allocates;
    /// for callers that outlive the workspace). Every reached node is
    /// copied, so after an early exit the frontier's tentative distances
    /// come along (see [`DijkstraResult::dist`]).
    pub fn to_result(&self, n: usize) -> DijkstraResult {
        let mut dist = vec![f64::INFINITY; n];
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
        for v in 0..n.min(self.stamp.len()) {
            if self.stamp[v] == self.generation {
                dist[v] = self.dist[v];
                parent_edge[v] = self.parent[v];
            }
        }
        DijkstraResult {
            source: self.source,
            dist,
            parent_edge,
        }
    }
}

/// What a multi-source run does besides growing its cells.
trait CellHook {
    /// `node` leaves the heap at `key` (its final distance), before it
    /// settles; `false` ends the run with `node` unsettled.
    fn pop(&mut self, ws: &DijkstraWorkspace, node: NodeId, key: f64) -> bool;
    /// The node settling since the last `pop` has edge `e` to `next`,
    /// which settled before it.
    fn settled_neighbour(&mut self, ws: &DijkstraWorkspace, next: NodeId, e: EdgeId);
}

/// `run_voronoi`: grow every cell to exhaustion, nothing more.
impl CellHook for () {
    #[inline]
    fn pop(&mut self, _: &DijkstraWorkspace, _: NodeId, _: f64) -> bool {
        true
    }
    #[inline]
    fn settled_neighbour(&mut self, _: &DijkstraWorkspace, _: NodeId, _: EdgeId) {}
}

/// `run_voronoi_bounded`: the stop rule at each pop, and a bridge for
/// each settled neighbour in another cell.
struct BridgeScan<'a> {
    bridges: &'a mut VoronoiBridges,
    g: &'a Graph,
    cost_of: &'a [f64],
    /// The settling node, its cell and its distance.
    node: NodeId,
    cell: u32,
    dist: f64,
}

impl CellHook for BridgeScan<'_> {
    #[inline]
    fn pop(&mut self, ws: &DijkstraWorkspace, node: NodeId, key: f64) -> bool {
        let b = &mut *self.bridges;
        if key >= b.next_check {
            if b.dirty {
                b.heaviest = b.heaviest_tree_bridge();
                // Summed in its edge's orientation, an unseen bridge can
                // round to as little as 2k(1 − 2.5u) (u the unit
                // roundoff), so the stop key sits 8u above half of
                // `heaviest`: every unseen bridge stays strictly above it.
                b.stop_above = b.heaviest * (0.5 + 2.0 * f64::EPSILON);
                b.dirty = false;
            }
            b.next_check = key + (b.stop_above - key) * 0.5;
        }
        if key > b.stop_above {
            return false;
        }
        self.node = node;
        self.cell = ws.origin[node.index()];
        self.dist = key;
        true
    }

    #[inline]
    fn settled_neighbour(&mut self, ws: &DijkstraWorkspace, next: NodeId, e: EdgeId) {
        let other = ws.origin[next.index()];
        if other == self.cell {
            return;
        }
        let (a, b) = (self.cell.min(other) as usize, self.cell.max(other) as usize);
        let (d, dn, c) = (self.dist, ws.dist[next.index()], self.cost_of[e.index()]);
        // The sum in row order and the sum in the edge's orientation are
        // two roundings each of the same total, so they differ by at most
        // 4u of it (u the unit roundoff). A bridge this far above the
        // pair's best cannot win: skip the edge-record read (a cache miss
        // on large graphs) that the orientation costs.
        let rough = d + c + dn;
        if rough > self.bridges.best_cost(a, b) * (1.0 + 4.0 * f64::EPSILON) {
            return;
        }
        let cost = if self.g.edge(e).src == self.node {
            rough
        } else {
            dn + c + d
        };
        self.bridges.offer(a, b, cost, e);
    }
}

/// The cheapest bridge between each pair of Voronoi cells, reduced by
/// [`DijkstraWorkspace::run_voronoi_bounded`] as its cells grow, plus
/// that pass's stop-rule state. Reused across passes, it allocates only
/// when a pass has more sources than any before it.
#[derive(Debug, Default)]
pub struct VoronoiBridges {
    /// Source count of the current pass: the side of `best`.
    cells: usize,
    /// Dense `cells × cells` matrix, upper triangle used: the cheapest
    /// bridge per pair of cells as `(cost, edge id)`, `u32::MAX` for none.
    best: Vec<(f64, u32)>,
    /// Indices into `best` of the pairs holding a bridge.
    found: Vec<usize>,
    /// Cells joined by the bridges found so far.
    joined: UnionFind,
    /// Unions still needed before the bridges connect every cell.
    open: usize,
    /// Heaviest edge of the bridges' minimum spanning tree at the last
    /// check (∞ before it).
    heaviest: f64,
    /// A pair cheaper than `heaviest` appeared or improved since then.
    dirty: bool,
    /// Pop key past which the pass stops (∞ until the cells connect).
    stop_above: f64,
    /// Pop key at which to re-derive `heaviest` (∞ until the cells
    /// connect).
    next_check: f64,
    /// Check scratch: `(cost, index into best)` of the candidate pairs.
    sorted: Vec<(f64, usize)>,
    /// Check scratch: Kruskal's union-find.
    uf: UnionFind,
}

impl VoronoiBridges {
    /// Empty reduction (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for a pass over `sources` sources, `cells` of them distinct.
    fn start(&mut self, sources: usize, cells: usize) {
        self.cells = sources;
        self.best.clear();
        self.best
            .resize(sources * sources, (f64::INFINITY, u32::MAX));
        self.found.clear();
        self.joined.reset(sources);
        self.open = cells.saturating_sub(1);
        self.heaviest = f64::INFINITY;
        self.dirty = true;
        self.stop_above = f64::INFINITY;
        self.next_check = if self.open == 0 {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
    }

    /// Cost of the cheapest bridge kept between cells `a < b` (∞ if none).
    #[inline]
    fn best_cost(&self, a: usize, b: usize) -> f64 {
        self.best[a * self.cells + b].0
    }

    /// Reduce bridge `e` of cost `cost` between cells `a < b`.
    fn offer(&mut self, a: usize, b: usize, cost: f64, e: EdgeId) {
        let idx = a * self.cells + b;
        let (best, id) = self.best[idx];
        if id == u32::MAX {
            if cost < f64::INFINITY {
                self.best[idx] = (cost, e.0);
                self.found.push(idx);
                self.dirty |= cost < self.heaviest;
                if self.joined.union(a, b) {
                    self.open -= 1;
                    if self.open == 0 {
                        self.next_check = f64::NEG_INFINITY;
                    }
                }
            }
        } else if cost < best || (cost == best && e.0 < id) {
            self.best[idx] = (cost, e.0);
            self.dirty |= cost < self.heaviest;
        }
    }

    /// The heaviest edge of the found bridges' minimum spanning tree,
    /// which connects every cell (`-∞` for a single cell). Only pairs no
    /// heavier than the last answer can be in it: every pair in the last
    /// tree still is.
    fn heaviest_tree_bridge(&mut self) -> f64 {
        self.sorted.clear();
        for &idx in &self.found {
            let cost = self.best[idx].0;
            if cost <= self.heaviest {
                self.sorted.push((cost, idx));
            }
        }
        self.sorted.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        self.uf.reset(self.cells);
        // One union per edge of a tree spanning the distinct cells.
        let mut needed = self.joined.len() - self.joined.component_count();
        let mut heaviest = f64::NEG_INFINITY;
        for &(cost, idx) in &self.sorted {
            if needed == 0 {
                break;
            }
            if self.uf.union(idx / self.cells, idx % self.cells) {
                heaviest = cost;
                needed -= 1;
            }
        }
        debug_assert_eq!(needed, 0, "the found bridges connect every cell");
        heaviest
    }

    /// Every kept bridge as a closure edge between cells `a < b`, with the
    /// bridge's edge id as payload, in `(a, b)` order.
    pub fn pairs(&self) -> impl Iterator<Item = MstEdge> + '_ {
        let t = self.cells;
        (0..t).flat_map(move |a| {
            ((a + 1)..t).filter_map(move |b| {
                let (cost, id) = self.best[a * t + b];
                (id != u32::MAX).then_some(MstEdge {
                    a,
                    b,
                    cost,
                    payload: id as usize,
                })
            })
        })
    }
}

/// Dijkstra from `source` using `costs`; stops early once every node in
/// `targets` (if non-empty) has been settled.
///
/// Allocates a fresh [`DijkstraWorkspace`] per call — use a reused
/// workspace on hot paths.
///
/// # Panics
/// Panics (debug) if any edge cost is negative — the §IV-A transform
/// guarantees positivity.
pub fn dijkstra(
    g: &Graph,
    costs: &EdgeCosts,
    source: NodeId,
    targets: &[NodeId],
) -> DijkstraResult {
    let mut ws = DijkstraWorkspace::new();
    ws.run(g, costs, source, targets);
    ws.to_result(g.node_count())
}

/// Cheapest path `s → t`: `(total cost, edge sequence)`.
pub fn shortest_path(
    g: &Graph,
    costs: &EdgeCosts,
    s: NodeId,
    t: NodeId,
) -> Option<(f64, Vec<EdgeId>)> {
    let res = dijkstra(g, costs, s, &[t]);
    let d = res.distance(t)?;
    let path = res.path_to(g, t)?;
    Some((d, path))
}

/// Bellman–Ford oracle used by the property tests to cross-check Dijkstra.
/// O(V·E); only run on small graphs.
pub fn bellman_ford_distances(g: &Graph, costs: &EdgeCosts, source: NodeId) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let w = costs.get(e);
            // Undirected relaxation, both ways.
            let (a, b) = (edge.src.index(), edge.dst.index());
            if dist[a] + w < dist[b] {
                dist[b] = dist[a] + w;
                changed = true;
            }
            if dist[b] + w < dist[a] {
                dist[a] = dist[b] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;
    use crate::ids::NodeKind;

    /// Line graph u - i1 - a - i2 with unit costs.
    fn line() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let u = g.add_node(NodeKind::User);
        let i1 = g.add_node(NodeKind::Item);
        let a = g.add_node(NodeKind::Entity);
        let i2 = g.add_node(NodeKind::Item);
        g.add_edge(u, i1, 1.0, EdgeKind::Interaction);
        g.add_edge(i1, a, 1.0, EdgeKind::Attribute);
        g.add_edge(i2, a, 1.0, EdgeKind::Attribute);
        (g, vec![u, i1, a, i2])
    }

    #[test]
    fn line_distances() {
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let res = dijkstra(&g, &costs, ids[0], &[]);
        assert_eq!(res.distance(ids[0]), Some(0.0));
        assert_eq!(res.distance(ids[1]), Some(1.0));
        assert_eq!(res.distance(ids[2]), Some(2.0));
        assert_eq!(res.distance(ids[3]), Some(3.0));
    }

    #[test]
    fn path_reconstruction() {
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let (d, path) = shortest_path(&g, &costs, ids[0], ids[3]).unwrap();
        assert!((d - 3.0).abs() < 1e-12);
        assert_eq!(path.len(), 3);
        // Path must be contiguous from source.
        let mut cur = ids[0];
        for e in &path {
            cur = g.edge(*e).other(cur);
        }
        assert_eq!(cur, ids[3]);
    }

    #[test]
    fn unreachable_node() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::User);
        let b = g.add_node(NodeKind::Item);
        let c = g.add_node(NodeKind::Item);
        g.add_edge(a, b, 1.0, EdgeKind::Interaction);
        let costs = EdgeCosts::uniform(&g, 1.0);
        let res = dijkstra(&g, &costs, a, &[]);
        assert_eq!(res.distance(c), None);
        assert!(res.path_to(&g, c).is_none());
        assert!(shortest_path(&g, &costs, a, c).is_none());
    }

    #[test]
    fn weighted_detour_beats_direct() {
        // Direct expensive edge vs two-hop cheap detour.
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::User);
        let m = g.add_node(NodeKind::Item);
        let t = g.add_node(NodeKind::Entity);
        let direct = g.add_edge(s, t, 1.0, EdgeKind::Attribute);
        g.add_edge(s, m, 1.0, EdgeKind::Interaction);
        g.add_edge(m, t, 1.0, EdgeKind::Attribute);
        let mut costs = EdgeCosts::uniform(&g, 1.0);
        costs.0[direct.index()] = 10.0;
        let (d, path) = shortest_path(&g, &costs, s, t).unwrap();
        assert!((d - 2.0).abs() < 1e-12);
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn early_exit_matches_full_run() {
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let full = dijkstra(&g, &costs, ids[0], &[]);
        let early = dijkstra(&g, &costs, ids[0], &[ids[1]]);
        assert_eq!(early.distance(ids[1]), full.distance(ids[1]));
    }

    #[test]
    fn source_is_target() {
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let res = dijkstra(&g, &costs, ids[0], &[ids[0]]);
        assert_eq!(res.distance(ids[0]), Some(0.0));
        assert_eq!(res.path_to(&g, ids[0]).unwrap().len(), 0);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let (g, ids) = line();
        let costs = g.cost_transform_own(0.5);
        let mut ws = DijkstraWorkspace::new();
        for _ in 0..3 {
            for &src in &ids {
                ws.run(&g, &costs, src, &[]);
                let fresh = dijkstra(&g, &costs, src, &[]);
                for &t in &ids {
                    assert_eq!(ws.distance(t), fresh.distance(t));
                    assert_eq!(ws.path_to(&g, t), fresh.path_to(&g, t));
                }
            }
        }
    }

    #[test]
    fn early_exit_with_duplicate_targets() {
        // The countdown must count distinct targets once: with duplicates
        // naively counted, the run would terminate before settling both
        // real targets (or never terminate, depending on sign).
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let dup = [ids[3], ids[1], ids[3], ids[1], ids[3]];
        let res = dijkstra(&g, &costs, ids[0], &dup);
        assert_eq!(res.distance(ids[1]), Some(1.0));
        assert_eq!(
            res.distance(ids[3]),
            Some(3.0),
            "far target must be settled"
        );
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, &costs, ids[0], &dup);
        assert_eq!(ws.distance(ids[3]), Some(3.0));
        assert_eq!(ws.path_to(&g, ids[3]).unwrap().len(), 3);
    }

    #[test]
    fn early_exit_with_source_coincident_target() {
        // Source-in-targets settles at distance 0 and must decrement the
        // countdown exactly once (also under duplication of the source).
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let targets = [ids[0], ids[0], ids[2]];
        let res = dijkstra(&g, &costs, ids[0], &targets);
        assert_eq!(res.distance(ids[0]), Some(0.0));
        assert_eq!(res.distance(ids[2]), Some(2.0));
        assert_eq!(res.path_to(&g, ids[0]).unwrap().len(), 0);
        // Workspace variant agrees and reuses cleanly right after.
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, &costs, ids[0], &targets);
        assert_eq!(ws.distance(ids[2]), Some(2.0));
        ws.run(&g, &costs, ids[3], &[ids[0]]);
        assert_eq!(ws.distance(ids[0]), Some(3.0));
    }

    #[test]
    fn workspace_grows_across_graphs() {
        // A workspace sized on a small graph must resize for a larger one.
        let (small, sids) = line();
        let costs_small = EdgeCosts::uniform(&small, 1.0);
        let mut ws = DijkstraWorkspace::new();
        ws.run(&small, &costs_small, sids[0], &[]);
        let mut big = Graph::new();
        let nodes: Vec<NodeId> = (0..50).map(|_| big.add_node(NodeKind::Entity)).collect();
        for w in nodes.windows(2) {
            big.add_edge(w[0], w[1], 1.0, EdgeKind::Attribute);
        }
        let costs_big = EdgeCosts::uniform(&big, 1.0);
        ws.run(&big, &costs_big, nodes[0], &[]);
        assert_eq!(ws.distance(nodes[49]), Some(49.0));
        // And back down without stale state.
        ws.run(&small, &costs_small, sids[0], &[]);
        assert_eq!(ws.distance(sids[3]), Some(3.0));
    }

    #[test]
    fn voronoi_assigns_nearest_source() {
        // Line u - i1 - a - i2 with unit costs; sources u and i2.
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let mut ws = DijkstraWorkspace::new();
        ws.run_voronoi(&g, &costs, &[ids[0], ids[3]]);
        assert_eq!(ws.origin_of(ids[0]), Some(0));
        assert_eq!(ws.origin_of(ids[3]), Some(1));
        assert_eq!(ws.distance(ids[0]), Some(0.0));
        assert_eq!(ws.distance(ids[3]), Some(0.0));
        // i1 is 1 hop from u, 2 from i2 → cell of u.
        assert_eq!(ws.origin_of(ids[1]), Some(0));
        assert_eq!(ws.distance(ids[1]), Some(1.0));
        // a is 1 hop from i2, 2 from u → cell of i2.
        assert_eq!(ws.origin_of(ids[2]), Some(1));
        assert_eq!(ws.distance(ids[2]), Some(1.0));
        // Path from a leads back to its own cell's source.
        let mut buf = Vec::new();
        assert!(ws.append_path_to_origin(&g, ids[2], &mut buf));
        assert_eq!(buf.len(), 1);
        assert_eq!(g.edge(buf[0]).other(ids[2]), ids[3]);
    }

    #[test]
    fn voronoi_unreachable_and_duplicates() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::User);
        let b = g.add_node(NodeKind::Item);
        let c = g.add_node(NodeKind::Item);
        g.add_edge(a, b, 1.0, EdgeKind::Interaction);
        let costs = EdgeCosts::uniform(&g, 1.0);
        let mut ws = DijkstraWorkspace::new();
        ws.run_voronoi(&g, &costs, &[a, a]);
        assert_eq!(ws.origin_of(a), Some(0), "duplicate keeps first index");
        assert_eq!(ws.origin_of(b), Some(0));
        assert_eq!(ws.origin_of(c), None);
        let mut buf = Vec::new();
        assert!(!ws.append_path_to_origin(&g, c, &mut buf));
        // Interleaving single-source and voronoi runs is safe.
        ws.run(&g, &costs, b, &[]);
        assert_eq!(ws.distance(a), Some(1.0));
        assert_eq!(ws.distance(c), None);
    }

    #[test]
    fn out_of_range_targets_are_tolerated() {
        // A stale target id from a larger graph must not panic. It is
        // excluded from the countdown (it can never settle), so the run
        // exits as soon as the real targets are settled…
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let bogus = NodeId(999);
        let res = dijkstra(&g, &costs, ids[0], &[ids[2], bogus]);
        assert_eq!(res.distance(ids[2]), Some(2.0));
        assert_eq!(res.distance(ids[3]), None, "early exit at the real target");
        // …and with only bogus targets the countdown never fires, so the
        // search degrades to a full run (the legacy behavior).
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, &costs, ids[0], &[bogus]);
        assert_eq!(ws.distance(ids[3]), Some(3.0));
    }

    #[test]
    fn accessors_are_total_before_any_run() {
        // A fresh workspace (or one sized for a smaller graph) must
        // answer None/false for out-of-range ids, not panic.
        let ws = DijkstraWorkspace::new();
        let (g, _) = line();
        assert_eq!(ws.distance(NodeId(0)), None);
        assert_eq!(ws.origin_of(NodeId(5)), None);
        assert!(ws.path_to(&g, NodeId(2)).is_none());
        let mut buf = Vec::new();
        assert!(!ws.append_path_to(&g, NodeId(1), &mut buf));
        assert!(!ws.append_path_to_origin(&g, NodeId(1), &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn append_path_reuses_buffer() {
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, &costs, ids[0], &[]);
        let mut buf: Vec<EdgeId> = Vec::with_capacity(16);
        assert!(ws.append_path_to(&g, ids[2], &mut buf));
        let first = buf.len();
        assert_eq!(first, 2);
        assert!(ws.append_path_to(&g, ids[3], &mut buf));
        assert_eq!(buf.len(), first + 3);
        // Unreached target leaves the buffer untouched.
        let mut h = Graph::new();
        let a = h.add_node(NodeKind::User);
        let b = h.add_node(NodeKind::Item);
        let _ = (a, b);
        let hc = EdgeCosts::uniform(&h, 1.0);
        ws.run(&h, &hc, a, &[]);
        let mut buf2 = vec![EdgeId(7)];
        assert!(!ws.append_path_to(&h, b, &mut buf2));
        assert_eq!(buf2, vec![EdgeId(7)]);
    }

    #[test]
    fn early_exit_leaves_frontier_distances_tentative() {
        // s–a 1, s–b 5, a–b 1: the run stops at a, before b settles at 2.
        let mut g = Graph::new();
        let s = g.add_node(NodeKind::User);
        let a = g.add_node(NodeKind::Item);
        let b = g.add_node(NodeKind::Item);
        g.add_edge(s, a, 1.0, EdgeKind::Interaction);
        g.add_edge(s, b, 5.0, EdgeKind::Interaction);
        g.add_edge(a, b, 1.0, EdgeKind::Attribute);
        let costs = EdgeCosts(vec![1.0, 5.0, 1.0]);
        assert_eq!(dijkstra(&g, &costs, s, &[a]).distance(b), Some(5.0));
        assert_eq!(dijkstra(&g, &costs, s, &[]).distance(b), Some(2.0));
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, &costs, s, &[a]);
        assert!(ws.is_settled(a) && !ws.is_settled(b));
        assert_eq!(ws.distance(b), Some(5.0), "frontier: tentative bound");
        assert_eq!(ws.settled_count(), 2);
        ws.run(&g, &costs, s, &[]);
        assert!(ws.is_settled(b));
        assert_eq!((ws.distance(b), ws.settled_count()), (Some(2.0), 3));
    }

    #[test]
    fn bounded_run_stops_past_the_radius() {
        // Line u - i1 - a - i2 at unit cost: radius 1.5 settles u and i1
        // only, and a is left on the frontier.
        let (g, ids) = line();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let mut ws = DijkstraWorkspace::new();
        ws.run_bounded(&g, &costs, ids[0], &[ids[3]], 1.5);
        assert_eq!(ws.settled_count(), 2);
        assert!(ws.is_settled(ids[1]) && !ws.is_settled(ids[2]));
        assert_eq!(ws.distance(ids[2]), Some(2.0));
        assert_eq!(ws.distance(ids[3]), None);
        // A radius equal to a distance still settles that node.
        ws.run_bounded(&g, &costs, ids[0], &[ids[3]], 2.0);
        assert!(ws.is_settled(ids[2]) && !ws.is_settled(ids[3]));
        // An infinite radius is `run`.
        ws.run_bounded(&g, &costs, ids[0], &[ids[3]], f64::INFINITY);
        assert_eq!((ws.settled_count(), ws.distance(ids[3])), (4, Some(3.0)));
        assert!(!ws.is_settled(NodeId(99)), "total on out-of-range ids");
    }

    #[test]
    fn agrees_with_bellman_ford_on_fixed_graph() {
        let (g, ids) = line();
        let costs = g.cost_transform_own(0.5);
        let d1 = dijkstra(&g, &costs, ids[0], &[]).dist;
        let d2 = bellman_ford_distances(&g, &costs, ids[0]);
        for (a, b) in d1.iter().zip(d2.iter()) {
            if a.is_finite() || b.is_finite() {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
