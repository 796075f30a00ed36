//! Algorithm 1 — ST-based summary explanations.
//!
//! The classic Kou–Markowsky–Berman construction the paper's pseudocode
//! follows line by line:
//!
//! 1. Dijkstra from every terminal gives the metric closure over `T`.
//!    Each search is bounded by the MST cycle property: the search from
//!    terminal `i` stops at the largest minimax distance from `i` to a
//!    later terminal, taken in the spanning forest of the pairs already
//!    priced. A pair beyond that radius is the strict maximum of a cycle
//!    of priced pairs, so step 2 could never pick it, and skipping it
//!    leaves the tree bit-identical (see `SteinerWorkspace`'s closure);
//! 2. Kruskal's MST of that complete terminal graph;
//! 3. each MST edge is expanded back into its underlying shortest path;
//! 4. the expanded edge set is cleaned up: re-MST over the induced
//!    subgraph and repeated pruning of non-terminal leaves (the standard
//!    KMB post-passes that keep the 2-approximation guarantee).
//!
//! Edge costs come from the §IV-A transform of the λ-boosted weights
//! (Eq. 1): `cost(e) = (max_w + δ) − w(e)`, positive by construction, so
//! minimizing cost simultaneously minimizes edge count and maximizes
//! summed weight (see DESIGN.md §3.1 for why the paper's "multiply by −1"
//! is realized this way).
//!
//! Terminals unreachable from one another yield a Steiner *forest* plus
//! isolated terminal nodes — the summary still mentions every terminal,
//! mirroring the paper's requirement `R_u ⊆ V_S`.
//!
//! ## Which ST variant is the default?
//!
//! **Mehlhorn** ([`steiner_summary_fast`]) is the default ST path for
//! serving: the `xsum` CLI's `--method st` routes to it, and new callers
//! should prefer it. The §V-B quality gate behind that decision is
//! reproducible as `repro quality_stfast` — across all four scenarios ×
//! the λ ∈ {0.01, 1, 100} sweep × k, every metric's ST-fast-vs-KMB delta
//! is noise (mean |Δ| ≤ 0.001 absolute on the unit-scaled metrics and
//! ≤ 0.1% relative on relevance; faithfulness identical). Its closure is
//! one multi-source Dijkstra instead of the paper's |T| searches, with
//! the bridge scan fused in and a stop rule: the pass ends once no
//! bridge it has not met could enter the bridges' MST. At worst that is
//! the exhaustive `O(|E| + |V| log |V|)` pass plus a few Kruskal runs
//! over its at most |T|(|T|−1)/2 terminal pairs; on user-centric inputs
//! it settles a small fraction of the graph (see
//! [`xsum_graph::DijkstraWorkspace::run_voronoi_bounded`]). KMB stays
//! fully supported as the **fidelity reference** — [`steiner_summary`]
//! / [`crate::BatchMethod::Steiner`] / the CLI's `--method st-kmb` — and
//! remains what the paper-reproduction figures run, since it is the
//! pseudocode of Algorithm 1 line by line.

use std::cell::RefCell;

use xsum_graph::{
    kruskal, num_threads, DijkstraWorkspace, EdgeCosts, EdgeId, FxHashMap, FxHashSet, Graph,
    MstEdge, NodeId, Subgraph, UnionFind, VoronoiBridges, WeightDeltaRec, WorkerPool,
};

use crate::input::SummaryInput;
use crate::summary::Summary;
use crate::weighting::adjusted_weights;

/// Terminal count from which the metric closure fans its Dijkstras out
/// across threads, in waves of one source per worker. Below this,
/// thread handoff costs more than the |T| searches; the paper's
/// user-centric k≤10 inputs always stay sequential while group
/// scenarios with hundreds of terminals parallelize. The gate always
/// counts **deduplicated** terminals (the closure runs one Dijkstra per
/// distinct terminal, so duplicates must not buy a fan-out).
const PARALLEL_TERMINAL_THRESHOLD: usize = 24;

/// Parameters of the ST summarizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteinerConfig {
    /// Eq. 1 path-frequency boost (the paper sweeps 0.01 / 1 / 100).
    pub lambda: f64,
    /// Base edge cost of the weight→cost transform (edge-count pressure).
    pub delta: f64,
}

impl Default for SteinerConfig {
    fn default() -> Self {
        SteinerConfig {
            lambda: 1.0,
            delta: 1.0,
        }
    }
}

/// Compute the ST-based summary explanation for `input` (Algorithm 1).
///
/// Costs are anchored on the *unadjusted* maximum weight, so Eq. 1's boost
/// genuinely cheapens path edges instead of inflating the anchor: with a
/// large λ, edges shared by many explanation paths approach the cost floor
/// and the summary hugs the input explanations (whose weighted hops are
/// user–item interactions — the mechanism behind the paper's "ST's
/// relevance improves as λ increases" and its λ=100 actionability edge).
///
/// Repeated calls against an unmutated graph reuse a thread-locally
/// cached [`SteinerCostModel`] (keyed by graph epoch and config), so the
/// per-call cost table costs one memcpy plus an O(|paths|) patch instead
/// of a full O(|E|) rebuild; a [`crate::engine::SummaryEngine`] goes one
/// step further and keeps even the patched buffer resident.
pub fn steiner_summary(g: &Graph, input: &SummaryInput, cfg: &SteinerConfig) -> Summary {
    let costs = cached_steiner_costs(g, input, cfg);
    let subgraph = steiner_tree(g, &costs, &input.terminals);
    Summary {
        method: "ST",
        scenario: input.scenario,
        subgraph,
        terminals: input.terminals.clone(),
    }
}

/// The exact edge-cost table [`steiner_summary`] searches with: Eq. 1
/// boosted weights anchored on the unadjusted maximum, floored at
/// `δ/100`. Exposed so tests and ablations can reason about the same
/// costs the summarizer used.
pub fn steiner_costs(g: &Graph, input: &SummaryInput, cfg: &SteinerConfig) -> EdgeCosts {
    let weights = adjusted_weights(g, input, cfg.lambda);
    let base_max = g.edge_ids().map(|e| g.weight(e)).fold(0.0f64, f64::max);
    let floor = cfg.delta * 1e-2;
    EdgeCosts(
        weights
            .iter()
            .map(|w| ((base_max + cfg.delta) - w).max(floor))
            .collect(),
    )
}

/// Cached base of the [`steiner_costs`] transform, for batch serving.
///
/// Eq. 1's λ boost only touches the edges of the input explanation
/// paths — every other edge's cost is a pure function of the graph and
/// `cfg`. Building one model per (graph, config) and patching the
/// handful of path edges per summary replaces the seed's per-summary
/// `O(|E|)` table construction (three full-length allocations plus two
/// passes) with `O(|paths|)` work. Patched costs are bit-identical to
/// [`steiner_costs`]' output: the formula and operation order are the
/// same.
#[derive(Debug, Clone)]
pub struct SteinerCostModel {
    /// Unboosted per-edge cost `((max_w + δ) − w(e)).max(δ/100)`.
    base: Vec<f64>,
    /// The unadjusted maximum weight the transform anchors on.
    base_max: f64,
    cfg: SteinerConfig,
}

impl SteinerCostModel {
    /// Build the base table (one `O(|E|)` pass, once per batch).
    pub fn new(g: &Graph, cfg: &SteinerConfig) -> Self {
        let base_max = g.edge_ids().map(|e| g.weight(e)).fold(0.0f64, f64::max);
        let floor = cfg.delta * 1e-2;
        let base = g
            .edge_ids()
            .map(|e| ((base_max + cfg.delta) - g.weight(e)).max(floor))
            .collect();
        SteinerCostModel {
            base,
            base_max,
            cfg: *cfg,
        }
    }

    /// The configuration the model was built for.
    pub fn config(&self) -> &SteinerConfig {
        &self.cfg
    }

    /// The unadjusted maximum weight the transform anchors on.
    pub fn base_max(&self) -> f64 {
        self.base_max
    }

    /// Patch the resident base table across a weight-only delta in
    /// O(|touched|), or report `false` (leaving the table untouched)
    /// when the delta may move the `base_max` anchor — in which case
    /// every entry of a rebuilt table could change and a full rebuild is
    /// the only bit-faithful option. On success the table is
    /// bit-identical to [`SteinerCostModel::new`] on the post-delta
    /// graph: the per-entry expression is the same, and
    /// `delta_keeps_anchor` guarantees the rebuilt fold would produce
    /// the same anchor.
    pub fn patch_weight_delta(&mut self, touched: &[WeightDeltaRec]) -> bool {
        if !delta_keeps_anchor(self.base_max, touched) {
            return false;
        }
        let floor = self.cfg.delta * 1e-2;
        for rec in touched {
            let w = f64::from_bits(rec.new_bits);
            self.base[rec.edge.index()] = ((self.base_max + self.cfg.delta) - w).max(floor);
        }
        true
    }

    /// A fresh full copy of the base table (per-worker warmup).
    pub fn fresh_costs(&self) -> EdgeCosts {
        EdgeCosts(self.base.clone())
    }

    /// Overwrite `costs` entries for `input`'s path edges with their
    /// Eq. 1-boosted values, recording the touched edge ids (with their
    /// path frequency) in `touched` for [`SteinerCostModel::unpatch`].
    ///
    /// `costs` must be a base copy from [`SteinerCostModel::fresh_costs`]
    /// (or an unpatched previous use); `touched` is cleared first.
    pub fn patch(
        &self,
        g: &Graph,
        input: &SummaryInput,
        costs: &mut EdgeCosts,
        touched: &mut Vec<(xsum_graph::EdgeId, u32)>,
    ) {
        debug_assert_eq!(costs.len(), self.base.len(), "cost buffer shape mismatch");
        touched.clear();
        for p in &input.paths {
            for e in p.grounded_edges() {
                touched.push((e, 1));
            }
        }
        // Sort-and-merge frequency count: O(P log P) over the grounded
        // path edges, no hashing.
        touched.sort_unstable_by_key(|(e, _)| *e);
        let mut write = 0;
        for read in 0..touched.len() {
            if write > 0 && touched[write - 1].0 == touched[read].0 {
                touched[write - 1].1 += 1;
            } else {
                touched[write] = touched[read];
                write += 1;
            }
        }
        touched.truncate(write);
        let denom = input.anchor_count.max(1) as f64;
        let floor = self.cfg.delta * 1e-2;
        for &(e, f) in touched.iter() {
            let boost = 1.0 + self.cfg.lambda * f as f64 / denom;
            let w = g.weight(e) * boost;
            costs.0[e.index()] = ((self.base_max + self.cfg.delta) - w).max(floor);
        }
    }

    /// Restore `costs` to the base table after a patched summary.
    pub fn unpatch(&self, costs: &mut EdgeCosts, touched: &[(xsum_graph::EdgeId, u32)]) {
        for &(e, _) in touched {
            costs.0[e.index()] = self.base[e.index()];
        }
    }

    /// Overwrite `costs` with a copy of the base table, reusing its
    /// allocation (resizing if the model covers a different edge count).
    /// The persistent-engine sibling of [`SteinerCostModel::fresh_costs`].
    pub fn copy_base_into(&self, costs: &mut EdgeCosts) {
        costs.0.clone_from(&self.base);
    }

    /// Refresh only the delta-touched entries of `costs` from the base
    /// table — the O(|touched|) sibling of
    /// [`SteinerCostModel::copy_base_into`] for a buffer that already
    /// mirrors a previous epoch's base of the **same config and anchor
    /// bits** (off-delta entries of the two bases are then bit-identical
    /// by the shared expression, so only the touched ones can differ).
    pub fn copy_touched_into(&self, costs: &mut EdgeCosts, touched: &[WeightDeltaRec]) {
        debug_assert_eq!(costs.len(), self.base.len(), "cost buffer shape mismatch");
        for rec in touched {
            costs.0[rec.edge.index()] = self.base[rec.edge.index()];
        }
    }
}

/// Whether a weight-only delta provably leaves the Eq. 1 anchor
/// (`base_max = fold(0.0, max)` over the raw weights) bit-unchanged —
/// the soundness condition for O(|touched|) patching of any state
/// derived from the transform.
///
/// Checked per touched edge, O(|delta|) total:
/// * a new weight strictly above the anchor raises it → rebuild;
/// * an old weight whose bits *equalled* the anchor may have been its
///   sole witness, so lowering it may shrink the anchor → rebuild
///   (conservative: another edge might still attain it, but finding out
///   costs O(|E|));
/// * everything else (including NaN, which `f64::max` folds away, and
///   `-0.0`, whose bits never equal the `0.0`-seeded fold's) cannot move
///   the fold.
pub(crate) fn delta_keeps_anchor(base_max: f64, touched: &[WeightDeltaRec]) -> bool {
    let anchor_bits = base_max.to_bits();
    touched.iter().all(|rec| {
        let raises = f64::from_bits(rec.new_bits) > base_max;
        let shrinks = rec.old_bits == anchor_bits && rec.new_bits != anchor_bits;
        !raises && !shrinks
    })
}

/// Identity of one Eq. 1 cost model: the graph's mutation epoch plus the
/// exact [`SteinerConfig`] bits.
///
/// [`Graph::epoch`] stamps are process-globally unique per mutation, so
/// equal keys imply identical graph weight content and config — a model
/// cached under this key can never be served stale (mutating any edge
/// weight or the structure moves the epoch and misses the cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModelKey {
    epoch: u64,
    lambda_bits: u64,
    delta_bits: u64,
}

impl CostModelKey {
    /// The cache key for `g` under `cfg`.
    pub fn of(g: &Graph, cfg: &SteinerConfig) -> Self {
        CostModelKey {
            epoch: g.epoch(),
            lambda_bits: cfg.lambda.to_bits(),
            delta_bits: cfg.delta.to_bits(),
        }
    }

    /// The graph epoch this key was taken at.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether two keys share the exact config bits (epochs may differ)
    /// — the precondition for bridging them with a weight-only delta.
    pub(crate) fn same_config(&self, other: &CostModelKey) -> bool {
        self.lambda_bits == other.lambda_bits && self.delta_bits == other.delta_bits
    }
}

/// A small LRU cache of [`SteinerCostModel`]s keyed by
/// [`CostModelKey`].
///
/// One instance backs each [`crate::engine::SummaryEngine`]; a
/// thread-local instance backs the sequential [`steiner_summary`] /
/// [`steiner_summary_fast`] entry points, which previously rebuilt the
/// O(|E|) Eq. 1 table on every call. Models are shared out as
/// [`Arc`](std::sync::Arc)s so workers can hold them across a parallel
/// region without borrowing the cache.
#[derive(Debug)]
pub struct CostModelCache {
    capacity: usize,
    /// MRU ordering: least-recently-used first.
    entries: Vec<(CostModelKey, std::sync::Arc<SteinerCostModel>)>,
    hits: u64,
    misses: u64,
    patches: u64,
}

impl CostModelCache {
    /// A cache retaining at most `capacity` models (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        CostModelCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            patches: 0,
        }
    }

    /// The model for `(g, cfg)`: a keyed hit, a resident model **patched
    /// across a weight-only delta** in O(|touched|), or a full build, in
    /// that preference order. Returns the key alongside so callers can
    /// tag per-worker cost buffers derived from the model.
    ///
    /// The patch path fires when a resident entry has the same config
    /// bits, the graph's [`Graph::delta_since`] ledger covers the epoch
    /// gap, and `delta_keeps_anchor` holds — then the entry's table is
    /// rewritten in place (bit-identical to a rebuild) and re-keyed to
    /// the current epoch. Anything else misses wholesale, exactly as
    /// before the ledger existed.
    pub fn get(
        &mut self,
        g: &Graph,
        cfg: &SteinerConfig,
    ) -> (CostModelKey, std::sync::Arc<SteinerCostModel>) {
        let key = CostModelKey::of(g, cfg);
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let entry = self.entries.remove(pos);
            let model = entry.1.clone();
            self.entries.push(entry);
            self.hits += 1;
            return (key, model);
        }
        // Delta patch: a same-config entry whose epoch the ledger chains
        // to the current one.
        let candidate = self.entries.iter().enumerate().find_map(|(pos, (k, _))| {
            if k.lambda_bits == key.lambda_bits && k.delta_bits == key.delta_bits {
                g.delta_since(k.epoch).map(|touched| (pos, touched))
            } else {
                None
            }
        });
        if let Some((pos, touched)) = candidate {
            let (stale_key, mut model) = self.entries.remove(pos);
            // `make_mut` is O(1) when the Arc is unshared (the steady
            // state — workers hold copies of the *table*, not the Arc);
            // a shared Arc clones once, which is no worse than the
            // rebuild it replaces.
            if std::sync::Arc::make_mut(&mut model).patch_weight_delta(&touched) {
                self.patches += 1;
                self.entries.push((key, model.clone()));
                return (key, model);
            }
            // Anchor moved: the stale entry is still valid *for its own
            // epoch* (an unmutated clone may yet hit it) — keep it.
            self.entries.insert(pos, (stale_key, model));
        }
        self.misses += 1;
        let model = std::sync::Arc::new(SteinerCostModel::new(g, cfg));
        self.entries.push((key, model.clone()));
        if self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
        (key, model)
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (model builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident models patched across a weight-only delta instead of
    /// being rebuilt.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Number of models currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

thread_local! {
    /// Cost models backing the workspace-free sequential entry points —
    /// the "(graph-epoch, config)-keyed cache for the sequential entry
    /// points" the ROADMAP called for. Capacity 4 comfortably covers the
    /// paper's λ sweep over one graph.
    static COST_MODELS: RefCell<CostModelCache> = RefCell::new(CostModelCache::new(4));
}

/// The cached Eq. 1 cost model for `(g, cfg)` on this thread.
pub(crate) fn cached_cost_model(
    g: &Graph,
    cfg: &SteinerConfig,
) -> std::sync::Arc<SteinerCostModel> {
    COST_MODELS.with(|c| c.borrow_mut().get(g, cfg).1)
}

/// Drop this thread's cached Eq. 1 cost models.
///
/// Each cached model holds an O(|E|) table that outlives the graph it
/// was built from (the cache keys on the graph's epoch, not its
/// lifetime). Long-lived threads that are done summarizing against a
/// large graph can call this to release that memory instead of waiting
/// for capacity eviction that may never come.
pub fn flush_cost_model_cache() {
    COST_MODELS.with(|c| {
        *c.borrow_mut() = CostModelCache::new(4);
    });
}

/// [`steiner_costs`] through the thread-local model cache: one O(|E|)
/// memcpy plus an O(|paths|) patch on cache hits, instead of the three
///-pass table rebuild. Bit-identical to [`steiner_costs`] (property-
/// tested, and the patch/unpatch identity is asserted in unit tests).
pub(crate) fn cached_steiner_costs(
    g: &Graph,
    input: &SummaryInput,
    cfg: &SteinerConfig,
) -> EdgeCosts {
    let model = cached_cost_model(g, cfg);
    let mut costs = model.fresh_costs();
    let mut touched = Vec::new();
    model.patch(g, input, &mut costs, &mut touched);
    costs
}

/// Reusable scratch state for [`steiner_tree_with`] and
/// [`steiner_tree_fast_with`].
///
/// Owns the per-call buffers of the KMB construction — the deduplicated
/// terminal list, the metric-closure edge list, and a flat edge-id arena
/// holding every pair's expanded shortest path — plus one
/// [`DijkstraWorkspace`] per potential worker thread, the running forest
/// that bounds the closure's searches, ST-fast's bridge reduction, and
/// the [`WorkerPool`] the parallel metric closure runs on. Once warm at
/// a given problem size, the searches allocate nothing. The steps after
/// them still do, on every call: the expanded edge set, Kruskal's
/// output, the post-passes' maps and sets (re-MST, the terminal set,
/// each leaf-pruning round) and the output subgraph.
#[derive(Debug, Default)]
pub struct SteinerWorkspace {
    /// Sorted, deduplicated terminal scratch.
    terminals: Vec<NodeId>,
    /// Metric-closure edges (`a`/`b` index `terminals`, payload indexes
    /// `spans`).
    closure: Vec<MstEdge>,
    /// `spans[payload]` delimits the pair's path inside `arena`.
    spans: Vec<(u32, u32)>,
    /// Flat storage for all closure paths.
    arena: Vec<EdgeId>,
    /// Mehlhorn pair reduction: cheapest boundary bridge per terminal
    /// pair, filled by ST-fast's bounded Voronoi pass.
    bridges: VoronoiBridges,
    /// One closure worker per wave slot (index 0 doubles as the
    /// sequential worker and as Mehlhorn's Voronoi workspace).
    workers: Vec<ClosureWorker>,
    /// Minimum spanning forest of the closure pairs emitted so far.
    forest: ClosureForest,
    /// The current wave's `(source index, search radius)` items.
    wave: Vec<(usize, f64)>,
    /// Thread budget for the metric closure's inner fan-out: 0 = use
    /// [`num_threads`]; 1 = stay sequential (set by outer parallel
    /// regions so worker threads never nest thread pools).
    parallelism: usize,
    /// The closure fan-out's threads: spawned at the first parallel
    /// closure and parked between calls, so a workspace that never fans
    /// out never owns a thread.
    pool: Option<WorkerPool>,
    /// Worker count the most recent metric closure actually ran with
    /// (1 = sequential); 0 until the first closure builds.
    last_closure_workers: usize,
    /// Nodes the most recent metric closure's searches settled.
    last_closure_settled: usize,
}

/// One slot of a closure wave: a Dijkstra workspace plus the pairs and
/// paths of the source it last ran, held until the wave merges them.
#[derive(Debug, Default)]
struct ClosureWorker {
    dij: DijkstraWorkspace,
    /// `(target index, distance, start, len)`, the span indexing `paths`.
    pairs: Vec<(usize, f64, u32, u32)>,
    paths: Vec<EdgeId>,
}

impl ClosureWorker {
    /// Search from terminal `si` out to `radius` and keep a pair for
    /// every later terminal the search settled.
    fn run(&mut self, g: &Graph, costs: &EdgeCosts, terminals: &[NodeId], si: usize, radius: f64) {
        let targets = &terminals[si + 1..];
        self.dij
            .run_bounded(g, costs, terminals[si], targets, radius);
        self.pairs.clear();
        self.paths.clear();
        for (off, &target) in targets.iter().enumerate() {
            if !self.dij.is_settled(target) {
                continue;
            }
            let d = self.dij.distance(target).expect("settled implies reached");
            let start = self.paths.len() as u32;
            if self.dij.append_path_to(g, target, &mut self.paths) {
                let len = self.paths.len() as u32 - start;
                self.pairs.push((si + 1 + off, d, start, len));
            }
        }
    }
}

/// Minimum spanning forest over terminal indices of the closure pairs
/// emitted so far: the source of each search's radius.
///
/// The forest's path between two terminals is a minimax path, so its
/// heaviest edge is the smallest cost at which the emitted pairs already
/// connect them. Allocation-free once warm.
#[derive(Debug, Default)]
struct ClosureForest {
    /// Forest edges, sorted by cost (at most |T| − 1).
    edges: Vec<MstEdge>,
    /// Kruskal scratch: forest plus newly emitted pairs.
    candidates: Vec<MstEdge>,
    uf: UnionFind,
    /// Per union-find root: how many of its members are later terminals.
    later: Vec<u32>,
    /// A NaN pair cost was emitted: minimax comparisons mean nothing
    /// any more, so every later radius is ∞.
    poisoned: bool,
}

impl ClosureForest {
    fn clear(&mut self) {
        self.edges.clear();
        self.poisoned = false;
    }

    /// Fold newly emitted pairs in: Kruskal over the forest plus `pairs`.
    fn absorb(&mut self, t: usize, pairs: &[MstEdge]) {
        if self.poisoned || pairs.is_empty() {
            return;
        }
        if pairs.iter().any(|p| p.cost.is_nan()) {
            self.poisoned = true;
            return;
        }
        self.candidates.clear();
        self.candidates.extend_from_slice(&self.edges);
        self.candidates.extend_from_slice(pairs);
        self.candidates
            .sort_unstable_by(|x, y| x.cost.total_cmp(&y.cost));
        self.uf.reset(t);
        self.edges.clear();
        for e in &self.candidates {
            if self.uf.union(e.a, e.b) {
                self.edges.push(*e);
            }
        }
    }

    /// Search radius of source `i` among `t` terminals: the largest
    /// minimax distance from `i` to a later terminal, or ∞ if some later
    /// terminal is not yet connected to `i`.
    ///
    /// Replays the sorted forest through a union-find that counts later
    /// terminals per component; the edge that completes `i`'s component
    /// is the answer.
    fn radius(&mut self, t: usize, i: usize) -> f64 {
        if self.poisoned {
            return f64::INFINITY;
        }
        let want = (t - 1 - i) as u32;
        self.uf.reset(t);
        self.later.clear();
        self.later.extend((0..t).map(|v| u32::from(v > i)));
        for e in &self.edges {
            let (ra, rb) = (self.uf.find(e.a), self.uf.find(e.b));
            let merged = self.uf.union(ra, rb);
            debug_assert!(merged, "forest edges never close a cycle");
            let root = self.uf.find(ra);
            self.later[root] = self.later[ra] + self.later[rb];
            if self.uf.find(i) == root && self.later[root] == want {
                return e.cost;
            }
        }
        f64::INFINITY
    }
}

impl SteinerWorkspace {
    /// Fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the metric closure's inner thread fan-out (`0` = hardware
    /// default, `1` = strictly sequential). Outer parallel drivers —
    /// e.g. [`crate::summarize_batch`]'s per-summary workers — pin
    /// their workspaces to 1 so parallelism lives at exactly one level.
    pub fn set_parallelism(&mut self, threads: usize) {
        self.parallelism = threads;
    }

    /// How many workers the most recent metric closure actually used:
    /// `1` means the sequential branch ran, `> 1` the parallel
    /// fan-out, `0` that no closure has been built yet. A probe for
    /// workload tests asserting that
    /// [`SteinerWorkspace::set_parallelism`] really flips the gate —
    /// results are bit-identical either way, so only this observable can
    /// tell the branches apart.
    pub fn last_closure_workers(&self) -> usize {
        self.last_closure_workers
    }

    /// How many nodes the most recent metric closure settled (0 before
    /// the first closure): for KMB, summed over its per-terminal
    /// searches; for ST-fast, the bounded Voronoi pass's count. A work
    /// counter that does not depend on the machine: both closures'
    /// outputs are bit-identical to unbounded searches, so this is where
    /// a lost search bound would show.
    pub fn last_closure_settled(&self) -> usize {
        self.last_closure_settled
    }

    /// Build the metric closure over `terminals` into `closure` /
    /// `spans` / `arena`: one early-exit Dijkstra per terminal, each
    /// bounded by the cycle property.
    ///
    /// Sources run in index order, in waves of one source per worker (a
    /// wave of width 1 is the sequential closure). Before a wave, each of
    /// its sources `i` gets a radius `r_i`: the largest minimax distance
    /// from `i` to a later terminal `j`, taken in the minimum spanning
    /// forest of the pairs emitted by earlier waves, or ∞ while some
    /// later `j` is not yet connected to `i` (so the first wave runs
    /// unbounded). The search from `i` stops once the next node to
    /// settle lies past `r_i`, and only settled targets are emitted.
    ///
    /// Every skipped pair has `d(i, j) > r_i ≥ minimax(i, j)`: it is the
    /// strict maximum of a cycle of emitted pairs, which Kruskal rejects
    /// under every tie order. Kruskal's tree over the bounded closure is
    /// therefore bit-identical to the tree over all pairs, and because a
    /// bounded search is a prefix of the unbounded one, so are the
    /// emitted pairs' costs and paths. A NaN pair cost makes every later
    /// radius ∞, since minimax comparisons against NaN mean nothing.
    fn metric_closure(&mut self, g: &Graph, costs: &EdgeCosts) {
        self.closure.clear();
        self.spans.clear();
        self.arena.clear();
        self.forest.clear();
        let t = self.terminals.len();

        let budget = match self.parallelism {
            0 => num_threads(),
            n => n,
        };
        // `t` counts `self.terminals` *after* the callers' sort+dedup —
        // the gate must never let duplicate terminals (which cost no
        // extra Dijkstras) buy a thread fan-out.
        let workers = if t >= PARALLEL_TERMINAL_THRESHOLD {
            budget.min(t)
        } else {
            1
        };
        self.last_closure_workers = workers;
        self.last_closure_settled = 0;
        if self.workers.len() < workers {
            self.workers.resize_with(workers, ClosureWorker::default);
        }
        if workers > 1 {
            g.freeze();
            if !matches!(&self.pool, Some(pool) if pool.workers() >= workers) {
                self.pool = Some(WorkerPool::new(workers));
            }
        }

        let mut next = 0;
        while next < t - 1 {
            let end = (next + workers).min(t - 1);
            self.wave.clear();
            for si in next..end {
                let radius = self.forest.radius(t, si);
                self.wave.push((si, radius));
            }
            let terminals = &self.terminals;
            let slots = &mut self.workers[..self.wave.len()];
            let run = |w: &mut ClosureWorker, &(si, radius): &(usize, f64)| {
                w.run(g, costs, terminals, si, radius);
            };
            match &mut self.pool {
                Some(pool) if workers > 1 => {
                    pool.zip_map(slots, &self.wave, run);
                }
                _ => run(&mut slots[0], &self.wave[0]),
            }

            // Merge in source order, then fold the new pairs into the
            // forest that bounds the next wave.
            let first_new = self.closure.len();
            for (w, &(si, _)) in self.workers.iter().zip(&self.wave) {
                self.last_closure_settled += w.dij.settled_count();
                let base = self.arena.len() as u32;
                self.arena.extend_from_slice(&w.paths);
                for &(ti, d, start, len) in &w.pairs {
                    self.closure.push(MstEdge {
                        a: si,
                        b: ti,
                        cost: d,
                        payload: self.spans.len(),
                    });
                    self.spans.push((base + start, len));
                }
            }
            self.forest.absorb(t, &self.closure[first_new..]);
            next = end;
        }
    }
}

thread_local! {
    /// Per-thread engine state backing the workspace-free entry points.
    /// Pinned to sequential execution so the public `steiner_*`
    /// functions never spawn threads behind the caller's back (the
    /// paper-reproduction timings measure sequential Algorithm 1, and
    /// callers running their own thread pools must not get nested
    /// fan-out). Parallel metric closures are an explicit choice:
    /// [`summarize_batch`](crate::summarize_batch) or
    /// [`steiner_tree_with`] + [`SteinerWorkspace::set_parallelism`].
    static STEINER_SCRATCH: RefCell<SteinerWorkspace> = RefCell::new({
        let mut ws = SteinerWorkspace::new();
        ws.set_parallelism(1);
        ws
    });
}

/// The raw KMB Steiner construction over explicit costs and terminals.
///
/// Exposed for the ablation benches; [`steiner_summary`] is the paper's
/// entry point. Scratch state lives in a per-thread
/// [`SteinerWorkspace`], so repeated calls are allocation-free after
/// warmup; use [`steiner_tree_with`] to manage the workspace explicitly.
pub fn steiner_tree(g: &Graph, costs: &EdgeCosts, terminals: &[NodeId]) -> Subgraph {
    STEINER_SCRATCH.with(|ws| steiner_tree_with(g, costs, terminals, &mut ws.borrow_mut()))
}

/// [`steiner_tree`] with an explicit reusable workspace.
pub fn steiner_tree_with(
    g: &Graph,
    costs: &EdgeCosts,
    terminals: &[NodeId],
    ws: &mut SteinerWorkspace,
) -> Subgraph {
    ws.terminals.clear();
    ws.terminals.extend_from_slice(terminals);
    ws.terminals.sort_unstable();
    ws.terminals.dedup();

    let mut out = Subgraph::new();
    match ws.terminals.len() {
        0 => return out,
        1 => {
            out.insert_node(ws.terminals[0]);
            return out;
        }
        _ => {}
    }

    // 1 + 2. Shortest paths between all terminal pairs (|T| Dijkstra
    //        runs, parallel for large |T|) and the metric closure over
    //        terminal indices, with each pair's path parked in the arena.
    ws.metric_closure(g, costs);
    let mst = kruskal(ws.terminals.len(), &ws.closure);

    // 3. Expand each chosen closure edge into its underlying path.
    let mut edge_set: FxHashSet<EdgeId> = FxHashSet::default();
    for ce in &mst {
        let (start, len) = ws.spans[ce.payload];
        edge_set.extend(
            ws.arena[start as usize..(start + len) as usize]
                .iter()
                .copied(),
        );
    }

    // 4. Clean up the expanded edge set.
    finish_tree(g, costs, &edge_set, &ws.terminals)
}

/// KMB's post-passes over an expanded edge set: (a) re-MST over the
/// subgraph to break any cycles formed by overlapping shortest paths,
/// (b) repeated pruning of non-terminal leaves. Unreachable terminals
/// are still part of the summary statement, so every terminal is added
/// as a node.
fn finish_tree(
    g: &Graph,
    costs: &EdgeCosts,
    edge_set: &FxHashSet<EdgeId>,
    terminals: &[NodeId],
) -> Subgraph {
    let pruned = subgraph_mst(g, costs, edge_set);
    let term_set: FxHashSet<NodeId> = terminals.iter().copied().collect();
    let final_edges = prune_nonterminal_leaves(g, pruned, &term_set);
    let mut out = Subgraph::from_edges(g, final_edges);
    for t in terminals {
        out.insert_node(*t);
    }
    out
}

/// Compute the ST summary with the Mehlhorn metric closure —
/// [`steiner_summary`]'s serving-scale sibling.
///
/// Kou–Markowsky–Berman (Algorithm 1) runs |T| single-source Dijkstras;
/// Mehlhorn's 1988 refinement replaces them with **one** multi-source
/// Dijkstra that partitions the graph into Voronoi cells around the
/// terminals, then connects cells through their cheapest boundary
/// edges. Here the boundary scan runs inside that Dijkstra, as nodes
/// settle, and the pass stops at the first pop key above half the
/// heaviest edge of the bridges' MST: no later bridge could enter it.
/// The approximation guarantee is the same factor 2; the closure costs
/// at most `O(|E| + |V| log |V|)` plus a few Kruskal runs over the
/// terminal pairs, instead of the paper's quoted
/// `O(|T|(|E| + |V| log |V|))`, and on user-centric inputs, whose
/// terminals sit close together, it settles a small fraction of the
/// graph. The produced tree is usually — but not always — identical to
/// KMB's. Use this for throughput-critical batches; use
/// [`steiner_summary`] to reproduce the paper's pseudocode exactly.
pub fn steiner_summary_fast(g: &Graph, input: &SummaryInput, cfg: &SteinerConfig) -> Summary {
    let costs = cached_steiner_costs(g, input, cfg);
    let subgraph = steiner_tree_fast(g, &costs, &input.terminals);
    Summary {
        method: "ST-fast",
        scenario: input.scenario,
        subgraph,
        terminals: input.terminals.clone(),
    }
}

/// [`steiner_tree`]'s Mehlhorn-accelerated sibling (per-thread scratch).
pub fn steiner_tree_fast(g: &Graph, costs: &EdgeCosts, terminals: &[NodeId]) -> Subgraph {
    STEINER_SCRATCH.with(|ws| steiner_tree_fast_with(g, costs, terminals, &mut ws.borrow_mut()))
}

/// [`steiner_tree_fast`] with an explicit reusable workspace.
pub fn steiner_tree_fast_with(
    g: &Graph,
    costs: &EdgeCosts,
    terminals: &[NodeId],
    ws: &mut SteinerWorkspace,
) -> Subgraph {
    ws.terminals.clear();
    ws.terminals.extend_from_slice(terminals);
    ws.terminals.sort_unstable();
    ws.terminals.dedup();

    let mut out = Subgraph::new();
    match ws.terminals.len() {
        0 => return out,
        1 => {
            out.insert_node(ws.terminals[0]);
            return out;
        }
        _ => {}
    }

    // 1 + 2. One multi-source Dijkstra grows Voronoi cells around the
    //        terminals and, as each node settles, reduces the edges to
    //        already-settled neighbours in other cells into the cheapest
    //        bridge per terminal pair: bridge e joins t_u and t_v at cost
    //        d(u, t_u) + c(e) + d(v, t_v), and a pair keeps its minimum
    //        by (cost, edge id), so the smallest-id bridge wins a cost
    //        tie. The dense pair matrix keeps Kruskal's input at most
    //        T·(T−1)/2 entries, however many boundary edges there are.
    //        The pass stops at the first pop key k with 2k above the
    //        heaviest edge of the bridges' MST: every bridge it has not
    //        met costs more, so Kruskal below picks the same pairs,
    //        bridge ids and cost bits as over a scan of every edge.
    if ws.workers.is_empty() {
        ws.workers.push(ClosureWorker::default());
    }
    let dij = &mut ws.workers[0].dij;
    dij.run_voronoi_bounded(g, costs, &ws.terminals, &mut ws.bridges);
    ws.last_closure_settled = dij.settled_count();
    ws.closure.clear();
    ws.closure.extend(ws.bridges.pairs());
    let mst = kruskal(ws.terminals.len(), &ws.closure);

    // 3. Expand each chosen bridge into bridge + both endpoint-to-
    //    terminal paths.
    let edge_set = expand_bridges(g, dij, &mst, &mut ws.arena);

    // 4. Same KMB post-passes: re-MST, then prune non-terminal leaves.
    finish_tree(g, costs, &edge_set, &ws.terminals)
}

/// ST-fast's step 3: the edge set of the chosen bridges (payload = edge
/// id) plus the paths from both endpoints of each back to their cells'
/// terminals, read off the Voronoi pass in `dij`.
fn expand_bridges(
    g: &Graph,
    dij: &DijkstraWorkspace,
    mst: &[MstEdge],
    scratch: &mut Vec<EdgeId>,
) -> FxHashSet<EdgeId> {
    let mut edge_set: FxHashSet<EdgeId> = FxHashSet::default();
    for ce in mst {
        let e = EdgeId(ce.payload as u32);
        let edge = g.edge(e);
        edge_set.insert(e);
        scratch.clear();
        dij.append_path_to_origin(g, edge.src, scratch);
        dij.append_path_to_origin(g, edge.dst, scratch);
        edge_set.extend(scratch.iter().copied());
    }
    edge_set
}

/// Kruskal restricted to `edges`, returning a spanning forest of the
/// subgraph they induce.
fn subgraph_mst(g: &Graph, costs: &EdgeCosts, edges: &FxHashSet<EdgeId>) -> Vec<EdgeId> {
    // Dense-index the touched nodes.
    let mut index: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut next = 0usize;
    let mut list: Vec<MstEdge> = Vec::with_capacity(edges.len());
    let mut ids: Vec<EdgeId> = Vec::with_capacity(edges.len());
    let mut sorted: Vec<EdgeId> = edges.iter().copied().collect();
    sorted.sort_unstable();
    for e in sorted {
        let edge = g.edge(e);
        let a = *index.entry(edge.src).or_insert_with(|| {
            let i = next;
            next += 1;
            i
        });
        let b = *index.entry(edge.dst).or_insert_with(|| {
            let i = next;
            next += 1;
            i
        });
        list.push(MstEdge {
            a,
            b,
            cost: costs.get(e),
            payload: ids.len(),
        });
        ids.push(e);
    }
    kruskal(next, &list)
        .into_iter()
        .map(|m| ids[m.payload])
        .collect()
}

/// Repeatedly remove degree-1 nodes that are not terminals.
fn prune_nonterminal_leaves(
    g: &Graph,
    edges: Vec<EdgeId>,
    terminals: &FxHashSet<NodeId>,
) -> Vec<EdgeId> {
    let mut edge_set: FxHashSet<EdgeId> = edges.into_iter().collect();
    loop {
        // Degree within the subgraph.
        let mut degree: FxHashMap<NodeId, u32> = FxHashMap::default();
        for e in &edge_set {
            let edge = g.edge(*e);
            *degree.entry(edge.src).or_default() += 1;
            *degree.entry(edge.dst).or_default() += 1;
        }
        let to_remove: Vec<EdgeId> = edge_set
            .iter()
            .copied()
            .filter(|e| {
                let edge = g.edge(*e);
                let leaf_src = degree[&edge.src] == 1 && !terminals.contains(&edge.src);
                let leaf_dst = degree[&edge.dst] == 1 && !terminals.contains(&edge.dst);
                leaf_src || leaf_dst
            })
            .collect();
        if to_remove.is_empty() {
            let mut v: Vec<EdgeId> = edge_set.into_iter().collect();
            v.sort_unstable();
            return v;
        }
        for e in to_remove {
            edge_set.remove(&e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsum_graph::{EdgeKind, NodeKind};

    /// The weighted fixture: a hub entity connecting three items, plus an
    /// expensive direct route. Terminals = the three items.
    fn hub_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let i1 = g.add_node(NodeKind::Item);
        let i2 = g.add_node(NodeKind::Item);
        let i3 = g.add_node(NodeKind::Item);
        let hub = g.add_node(NodeKind::Entity);
        let far = g.add_node(NodeKind::Entity);
        g.add_edge(i1, hub, 1.0, EdgeKind::Attribute);
        g.add_edge(i2, hub, 1.0, EdgeKind::Attribute);
        g.add_edge(i3, hub, 1.0, EdgeKind::Attribute);
        // Decoy longer route i1-far-i2.
        g.add_edge(i1, far, 1.0, EdgeKind::Attribute);
        g.add_edge(far, i2, 1.0, EdgeKind::Attribute);
        (g, vec![i1, i2, i3, hub, far])
    }

    #[test]
    fn star_through_hub_is_chosen() {
        let (g, n) = hub_graph();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let tree = steiner_tree(&g, &costs, &[n[0], n[1], n[2]]);
        assert_eq!(tree.edge_count(), 3, "hub star uses 3 edges");
        assert!(tree.contains_node(n[3]), "hub is the Steiner node");
        assert!(!tree.contains_node(n[4]), "decoy must be pruned");
        assert!(tree.is_tree(&g));
        for t in &n[0..3] {
            assert!(tree.contains_node(*t));
        }
    }

    #[test]
    fn two_terminals_is_shortest_path() {
        let (g, n) = hub_graph();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let tree = steiner_tree(&g, &costs, &[n[0], n[1]]);
        assert_eq!(tree.edge_count(), 2);
        assert!(tree.is_tree(&g));
    }

    #[test]
    fn single_and_empty_terminals() {
        let (g, n) = hub_graph();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let tree = steiner_tree(&g, &costs, &[n[0]]);
        assert_eq!(tree.edge_count(), 0);
        assert_eq!(tree.node_count(), 1);
        let empty = steiner_tree(&g, &costs, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn duplicate_terminals_are_deduped() {
        let (g, n) = hub_graph();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let tree = steiner_tree(&g, &costs, &[n[0], n[0], n[1], n[1]]);
        assert_eq!(tree.edge_count(), 2);
    }

    #[test]
    fn unreachable_terminal_included_as_isolated_node() {
        let (mut g, n) = hub_graph();
        let lonely = g.add_node(NodeKind::Item);
        let costs = EdgeCosts::uniform(&g, 1.0);
        let tree = steiner_tree(&g, &costs, &[n[0], n[1], lonely]);
        assert!(tree.contains_node(lonely));
        assert!(!tree.is_weakly_connected(&g), "forest + isolated node");
        assert_eq!(tree.edge_count(), 2);
    }

    #[test]
    fn weighted_costs_redirect_route() {
        let (g, n) = hub_graph();
        // Make hub edges expensive: the decoy route wins for {i1, i2}.
        let mut costs = EdgeCosts::uniform(&g, 1.0);
        costs.0[0] = 10.0;
        costs.0[1] = 10.0;
        let tree = steiner_tree(&g, &costs, &[n[0], n[1]]);
        assert!(tree.contains_node(n[4]), "should route via the decoy now");
        assert_eq!(tree.edge_count(), 2);
    }

    #[test]
    fn fast_variant_finds_the_hub_star() {
        let (g, n) = hub_graph();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let tree = steiner_tree_fast(&g, &costs, &[n[0], n[1], n[2]]);
        assert_eq!(tree.edge_count(), 3, "hub star uses 3 edges");
        assert!(tree.contains_node(n[3]));
        assert!(!tree.contains_node(n[4]));
        assert!(tree.is_tree(&g));
    }

    #[test]
    fn fast_variant_edge_cases_match_kmb() {
        let (mut g, n) = hub_graph();
        let lonely = g.add_node(NodeKind::Item);
        let costs = EdgeCosts::uniform(&g, 1.0);
        // Duplicates, single, empty, unreachable — all mirror KMB.
        assert_eq!(
            steiner_tree_fast(&g, &costs, &[n[0], n[0], n[1]]).edge_count(),
            2
        );
        let single = steiner_tree_fast(&g, &costs, &[n[0]]);
        assert_eq!((single.edge_count(), single.node_count()), (0, 1));
        assert!(steiner_tree_fast(&g, &costs, &[]).is_empty());
        let forest = steiner_tree_fast(&g, &costs, &[n[0], n[1], lonely]);
        assert!(forest.contains_node(lonely));
        assert_eq!(forest.edge_count(), 2);
    }

    #[test]
    fn fast_variant_within_2x_of_kmb_cost() {
        // Both carry the factor-2 guarantee against OPT, so fast can
        // never exceed 2× KMB (and vice versa).
        let (g, n) = hub_graph();
        let costs = g.cost_transform_own(1.0);
        let kmb = steiner_tree(&g, &costs, &[n[0], n[1], n[2]]);
        let fast = steiner_tree_fast(&g, &costs, &[n[0], n[1], n[2]]);
        let cost_of = |s: &Subgraph| s.edges().iter().map(|e| costs.get(*e)).sum::<f64>();
        assert!(cost_of(&fast) <= 2.0 * cost_of(&kmb) + 1e-9);
        assert!(cost_of(&kmb) <= 2.0 * cost_of(&fast) + 1e-9);
        for t in &n[0..3] {
            assert!(fast.contains_node(*t));
        }
    }

    #[test]
    fn cost_model_patches_match_steiner_costs() {
        let (g, n) = hub_graph();
        let path = xsum_graph::LoosePath::ground(&g, vec![n[0], n[3], n[1]]);
        let input = SummaryInput::user_centric(n[0], vec![path]);
        for lambda in [0.0, 1.0, 100.0] {
            let cfg = SteinerConfig { lambda, delta: 1.0 };
            let model = SteinerCostModel::new(&g, &cfg);
            let mut costs = model.fresh_costs();
            let mut touched = Vec::new();
            model.patch(&g, &input, &mut costs, &mut touched);
            let want = steiner_costs(&g, &input, &cfg);
            assert_eq!(
                costs.0, want.0,
                "patched table must be bit-identical (λ={lambda})"
            );
            model.unpatch(&mut costs, &touched);
            assert_eq!(costs.0, model.fresh_costs().0, "unpatch restores base");
        }
    }

    #[test]
    fn cached_costs_match_direct_costs() {
        let (mut g, n) = hub_graph();
        let path = xsum_graph::LoosePath::ground(&g, vec![n[0], n[3], n[1]]);
        let input = SummaryInput::user_centric(n[0], vec![path]);
        let cfg = SteinerConfig::default();
        assert_eq!(
            cached_steiner_costs(&g, &input, &cfg).0,
            steiner_costs(&g, &input, &cfg).0,
            "cache path must be bit-identical"
        );
        // Mutating a weight moves the epoch: the cached model may not be
        // served stale.
        g.set_weight(xsum_graph::EdgeId(0), 3.0);
        assert_eq!(
            cached_steiner_costs(&g, &input, &cfg).0,
            steiner_costs(&g, &input, &cfg).0,
            "post-mutation cache path must track the new weights"
        );
    }

    #[test]
    fn flush_releases_thread_local_models() {
        let (g, n) = hub_graph();
        let path = xsum_graph::LoosePath::ground(&g, vec![n[0], n[3], n[1]]);
        let input = SummaryInput::user_centric(n[0], vec![path]);
        let cfg = SteinerConfig::default();
        steiner_summary(&g, &input, &cfg); // populate
        flush_cost_model_cache();
        COST_MODELS.with(|c| assert!(c.borrow().is_empty(), "flush drops all models"));
        // And the path keeps working (rebuilds on demand).
        let s = steiner_summary(&g, &input, &cfg);
        assert_eq!(s.terminal_coverage(), 1.0);
    }

    #[test]
    fn cost_model_cache_hits_and_evicts() {
        let (g, _) = hub_graph();
        let mut cache = CostModelCache::new(2);
        let a = SteinerConfig {
            lambda: 1.0,
            delta: 1.0,
        };
        let b = SteinerConfig {
            lambda: 100.0,
            delta: 1.0,
        };
        let c = SteinerConfig {
            lambda: 0.01,
            delta: 1.0,
        };
        let (ka, m1) = cache.get(&g, &a);
        let (ka2, m2) = cache.get(&g, &a);
        assert_eq!(ka, ka2);
        assert!(
            std::sync::Arc::ptr_eq(&m1, &m2),
            "hit returns the same model"
        );
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.get(&g, &b);
        cache.get(&g, &c); // capacity 2: evicts the LRU entry (a)
        assert_eq!(cache.len(), 2);
        cache.get(&g, &a);
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 4),
            "evicted key must rebuild"
        );
    }

    /// A fixture with *distinct* weights so the Eq. 1 anchor (max
    /// weight) sits on a known edge and other edges can move freely.
    fn ramp_graph() -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..6).map(|_| g.add_node(NodeKind::Entity)).collect();
        for (i, w) in [1.0, 2.0, 3.0, 4.0, 5.0].iter().enumerate() {
            g.add_edge(nodes[i], nodes[i + 1], *w, EdgeKind::Attribute);
        }
        g
    }

    #[test]
    fn cost_model_cache_patches_weight_deltas() {
        let mut g = ramp_graph();
        let cfg = SteinerConfig::default();
        let mut cache = CostModelCache::new(2);
        cache.get(&g, &cfg);
        assert_eq!((cache.misses(), cache.patches()), (1, 0));
        // Anchor-safe delta: lower a non-max edge.
        g.apply_delta(&[(xsum_graph::EdgeId(1), 0.25)]);
        let (_, model) = cache.get(&g, &cfg);
        assert_eq!(
            (cache.misses(), cache.patches()),
            (1, 1),
            "a covered weight-only delta must patch, not rebuild"
        );
        let rebuilt = SteinerCostModel::new(&g, &cfg);
        assert_eq!(
            model.fresh_costs().0,
            rebuilt.fresh_costs().0,
            "patched table must be bit-identical to a rebuild"
        );
        // The re-keyed entry now hits directly.
        cache.get(&g, &cfg);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn anchor_moving_delta_forces_rebuild() {
        let cfg = SteinerConfig::default();
        // Raising an edge above the anchor changes base_max: no patch.
        let mut g = ramp_graph();
        let mut cache = CostModelCache::new(2);
        cache.get(&g, &cfg);
        g.apply_delta(&[(xsum_graph::EdgeId(0), 9.0)]);
        let (_, model) = cache.get(&g, &cfg);
        assert_eq!((cache.misses(), cache.patches()), (2, 0));
        assert_eq!(
            model.fresh_costs().0,
            SteinerCostModel::new(&g, &cfg).fresh_costs().0
        );

        // Lowering the anchor edge itself also changes base_max: no patch.
        let mut g = ramp_graph();
        let mut cache = CostModelCache::new(2);
        cache.get(&g, &cfg);
        g.apply_delta(&[(xsum_graph::EdgeId(4), 0.5)]);
        let (_, model) = cache.get(&g, &cfg);
        assert_eq!((cache.misses(), cache.patches()), (2, 0));
        assert_eq!(
            model.fresh_costs().0,
            SteinerCostModel::new(&g, &cfg).fresh_costs().0
        );
    }

    #[test]
    fn patched_model_matches_rebuild_on_nan_and_negative_zero() {
        let cfg = SteinerConfig::default();
        let mut g = ramp_graph();
        let mut cache = CostModelCache::new(2);
        cache.get(&g, &cfg);
        // NaN folds away under f64::max and −0.0 can't raise the anchor:
        // both are patchable, and the patch must reproduce the rebuild's
        // exact bits (NaN weight ⇒ the `.max(floor)` clamp fires).
        g.apply_delta(&[
            (xsum_graph::EdgeId(1), f64::NAN),
            (xsum_graph::EdgeId(2), -0.0),
        ]);
        let (_, model) = cache.get(&g, &cfg);
        assert_eq!((cache.misses(), cache.patches()), (1, 1));
        let rebuilt = SteinerCostModel::new(&g, &cfg);
        let (got, want) = (model.fresh_costs().0, rebuilt.fresh_costs().0);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-identity incl. NaN payloads");
        }
    }

    #[test]
    fn structural_mutation_still_misses_wholesale() {
        let mut g = ramp_graph();
        let cfg = SteinerConfig::default();
        let mut cache = CostModelCache::new(2);
        cache.get(&g, &cfg);
        let a = g.add_node(NodeKind::Entity);
        let b = g.add_node(NodeKind::Entity);
        g.add_edge(a, b, 1.0, EdgeKind::Attribute);
        cache.get(&g, &cfg);
        assert_eq!(
            (cache.misses(), cache.patches()),
            (2, 0),
            "structural epochs break the delta chain"
        );
    }

    #[test]
    fn parallel_gate_counts_terminals_post_dedup() {
        // 30 copies of 3 distinct terminals, a thread budget of 4: a
        // pre-dedup gate would see 30 ≥ 24 and fan out; the correct
        // post-dedup gate sees 3 and must stay sequential (worker 0
        // only — no extra Dijkstra workspaces materialize).
        let (g, n) = hub_graph();
        let costs = EdgeCosts::uniform(&g, 1.0);
        let mut dup = Vec::new();
        for _ in 0..10 {
            dup.extend_from_slice(&[n[0], n[1], n[2]]);
        }
        let mut ws = SteinerWorkspace::new();
        ws.set_parallelism(4);
        let tree = steiner_tree_with(&g, &costs, &dup, &mut ws);
        assert_eq!(tree.edge_count(), 3);
        assert!(
            ws.workers.len() <= 1,
            "duplicate terminals must not trigger the parallel closure"
        );
    }

    #[test]
    fn parallel_closure_runs_on_a_lazy_pool_and_matches_sequential() {
        // A ring of 30 items, each also hanging off one of 3 hubs: 30
        // distinct terminals clear the fan-out gate.
        let mut g = Graph::new();
        let hubs: Vec<NodeId> = (0..3).map(|_| g.add_node(NodeKind::Entity)).collect();
        let items: Vec<NodeId> = (0..30).map(|_| g.add_node(NodeKind::Item)).collect();
        for (i, &it) in items.iter().enumerate() {
            g.add_edge(it, hubs[i % 3], 1.0, EdgeKind::Attribute);
            g.add_edge(it, items[(i + 1) % 30], 1.0, EdgeKind::Attribute);
        }
        let costs = EdgeCosts::uniform(&g, 1.0);
        let mut seq_ws = SteinerWorkspace::new();
        seq_ws.set_parallelism(1);
        let want = steiner_tree_with(&g, &costs, &items, &mut seq_ws);
        assert_eq!(seq_ws.last_closure_workers(), 1);

        let mut ws = SteinerWorkspace::new();
        ws.set_parallelism(4);
        assert!(ws.pool.is_none(), "a fresh workspace owns no threads");
        for _ in 0..2 {
            let got = steiner_tree_with(&g, &costs, &items, &mut ws);
            assert_eq!(ws.last_closure_workers(), 4);
            assert_eq!(want.sorted_edges(), got.sorted_edges());
            assert_eq!(want.sorted_nodes(), got.sorted_nodes());
        }
        let pool = ws.pool.as_ref().expect("the fan-out keeps its pool");
        assert_eq!(pool.workers(), 4);
    }

    /// One closure tree edge: terminal indices, cost bits, expanded path.
    type TreeEdge = (usize, usize, u64, Vec<EdgeId>);

    /// The unbounded closure every bounded one must reproduce: one full
    /// early-exit `run` per source, a pair for every reached later
    /// terminal, Kruskal over all of them, then the KMB post-passes.
    fn unbounded_reference(
        g: &Graph,
        costs: &EdgeCosts,
        terminals: &[NodeId],
    ) -> (Vec<TreeEdge>, Subgraph) {
        let mut terms = terminals.to_vec();
        terms.sort_unstable();
        terms.dedup();
        let mut dij = DijkstraWorkspace::new();
        let (mut pairs, mut paths) = (Vec::new(), Vec::new());
        for si in 0..terms.len().saturating_sub(1) {
            dij.run(g, costs, terms[si], &terms[si + 1..]);
            for (ti, &target) in terms.iter().enumerate().skip(si + 1) {
                if let (Some(d), Some(path)) = (dij.distance(target), dij.path_to(g, target)) {
                    pairs.push(MstEdge {
                        a: si,
                        b: ti,
                        cost: d,
                        payload: paths.len(),
                    });
                    paths.push(path);
                }
            }
        }
        let tree: Vec<TreeEdge> = kruskal(terms.len(), &pairs)
            .into_iter()
            .map(|e| (e.a, e.b, e.cost.to_bits(), paths[e.payload].clone()))
            .collect();
        let edge_set: FxHashSet<EdgeId> = tree.iter().flat_map(|e| e.3.clone()).collect();
        let sub = match terms.len() {
            0 => Subgraph::new(),
            _ => finish_tree(g, costs, &edge_set, &terms),
        };
        (tree, sub)
    }

    /// The bounded closure's Kruskal tree, read off the workspace after
    /// [`steiner_tree_with`] built it.
    fn bounded_tree(ws: &SteinerWorkspace) -> Vec<TreeEdge> {
        kruskal(ws.terminals.len(), &ws.closure)
            .into_iter()
            .map(|e| {
                let (start, len) = ws.spans[e.payload];
                let path = ws.arena[start as usize..(start + len) as usize].to_vec();
                (e.a, e.b, e.cost.to_bits(), path)
            })
            .collect()
    }

    /// Random graph on `n` nodes with costs on a coarse grid that
    /// includes 0 (ties and zero-cost edges everywhere), sparse enough
    /// that some terminals are disconnected, plus raw terminal picks.
    fn arb_closure_case() -> impl proptest::Strategy<Value = (Graph, EdgeCosts, Vec<NodeId>)> {
        use proptest::prelude::*;
        (2usize..48).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n, 0..n, 0u8..5), 0..3 * n),
                proptest::collection::vec(0..n, 2..40),
            )
                .prop_map(move |(edges, picks)| {
                    let mut g = Graph::new();
                    for _ in 0..n {
                        g.add_node(NodeKind::Entity);
                    }
                    let mut costs = Vec::new();
                    for &(a, b, c) in edges.iter().filter(|(a, b, _)| a != b) {
                        g.add_edge(NodeId(a as u32), NodeId(b as u32), 1.0, EdgeKind::Attribute);
                        costs.push(f64::from(c) * 0.5);
                    }
                    let terminals = picks.into_iter().map(|p| NodeId(p as u32)).collect();
                    (g, EdgeCosts(costs), terminals)
                })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(160))]

        #[test]
        fn bounded_closure_matches_unbounded((g, costs, terminals) in arb_closure_case()) {
            let (want_tree, want_sub) = unbounded_reference(&g, &costs, &terminals);
            for parallelism in [1, 4] {
                let mut ws = SteinerWorkspace::new();
                ws.set_parallelism(parallelism);
                // Twice through one workspace: a warm forest must not
                // leak into the next closure.
                for _ in 0..2 {
                    let sub = steiner_tree_with(&g, &costs, &terminals, &mut ws);
                    proptest::prop_assert_eq!(&bounded_tree(&ws), &want_tree);
                    proptest::prop_assert_eq!(sub.sorted_edges(), want_sub.sorted_edges());
                    proptest::prop_assert_eq!(sub.sorted_nodes(), want_sub.sorted_nodes());
                }
            }
        }
    }

    /// One ST-fast tree edge: terminal indices, cost bits, bridge id.
    type BridgeEdge = (usize, usize, u64, EdgeId);

    /// ST-fast's steps 1–3 as they were before the bounded pass, which
    /// it must reproduce: the exhaustive `run_voronoi`, then every edge
    /// in id order, keeping per pair the first bridge of least cost
    /// (strict `<`), then Kruskal and the expansion. Returns the tree,
    /// the expanded edge set (sorted) and the final subgraph.
    fn exhaustive_fast_reference(
        g: &Graph,
        costs: &EdgeCosts,
        terms: &[NodeId],
    ) -> (Vec<BridgeEdge>, Vec<EdgeId>, Subgraph, usize) {
        let t = terms.len();
        let mut dij = DijkstraWorkspace::new();
        dij.run_voronoi(g, costs, terms);
        let mut best = vec![(f64::INFINITY, u32::MAX); t * t];
        for e in g.edge_ids() {
            let edge = g.edge(e);
            if let (Some(ou), Some(ov)) = (dij.origin_of(edge.src), dij.origin_of(edge.dst)) {
                if ou != ov {
                    let du = dij.distance(edge.src).unwrap();
                    let dv = dij.distance(edge.dst).unwrap();
                    let cost = du + costs.get(e) + dv;
                    let idx = (ou.min(ov) as usize) * t + ou.max(ov) as usize;
                    if cost < best[idx].0 {
                        best[idx] = (cost, e.0);
                    }
                }
            }
        }
        let mut closure = Vec::new();
        for a in 0..t {
            for b in (a + 1)..t {
                let (cost, e) = best[a * t + b];
                if e != u32::MAX {
                    closure.push(MstEdge {
                        a,
                        b,
                        cost,
                        payload: e as usize,
                    });
                }
            }
        }
        let mst = kruskal(t, &closure);
        let edge_set = expand_bridges(g, &dij, &mst, &mut Vec::new());
        let sub = finish_tree(g, costs, &edge_set, terms);
        (
            bridge_tree(&mst),
            sorted(edge_set),
            sub,
            dij.settled_count(),
        )
    }

    fn bridge_tree(mst: &[MstEdge]) -> Vec<BridgeEdge> {
        mst.iter()
            .map(|e| (e.a, e.b, e.cost.to_bits(), EdgeId(e.payload as u32)))
            .collect()
    }

    fn sorted(set: FxHashSet<EdgeId>) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

        #[test]
        fn bounded_voronoi_pass_matches_exhaustive_scan(
            (g, costs, terminals) in arb_closure_case(),
            tenths in proptest::prelude::any::<bool>(),
        ) {
            // Steps of 0.1 instead of 0.5: sums then round, so a bridge
            // summed against its edge's orientation shows in the bits.
            let costs = match tenths {
                true => EdgeCosts(costs.0.iter().map(|c| c * 0.2).collect()),
                false => costs,
            };
            let mut terms = terminals.clone();
            terms.sort_unstable();
            terms.dedup();
            let mut ws = SteinerWorkspace::new();
            if terms.len() < 2 {
                let sub = steiner_tree_fast_with(&g, &costs, &terminals, &mut ws);
                proptest::prop_assert_eq!(sub.sorted_nodes(), terms);
                return Ok(());
            }
            let (want_tree, want_edges, want_sub, exhaustive) =
                exhaustive_fast_reference(&g, &costs, &terms);
            // Twice through one workspace, with a KMB summary between:
            // no stamp, bridge or stop-rule state may leak across passes.
            for _ in 0..2 {
                let sub = steiner_tree_fast_with(&g, &costs, &terminals, &mut ws);
                let mst = kruskal(terms.len(), &ws.closure);
                proptest::prop_assert_eq!(&bridge_tree(&mst), &want_tree);
                let dij = &ws.workers[0].dij;
                let edges = sorted(expand_bridges(&g, dij, &mst, &mut Vec::new()));
                proptest::prop_assert_eq!(&edges, &want_edges);
                proptest::prop_assert_eq!(sub.sorted_edges(), want_sub.sorted_edges());
                proptest::prop_assert_eq!(sub.sorted_nodes(), want_sub.sorted_nodes());
                proptest::prop_assert!(ws.last_closure_settled() <= exhaustive);
                steiner_tree_with(&g, &costs, &terminals, &mut ws);
            }
        }
    }

    #[test]
    fn closure_forest_radius_is_the_largest_minimax_distance() {
        let pair = |a, b, cost| MstEdge {
            a,
            b,
            cost,
            payload: 0,
        };
        let mut forest = ClosureForest::default();
        assert_eq!(forest.radius(4, 0), f64::INFINITY, "nothing connected yet");
        forest.absorb(4, &[pair(0, 1, 1.0), pair(0, 2, 3.0), pair(0, 3, 2.0)]);
        assert_eq!(forest.radius(4, 1), 3.0);
        assert_eq!(forest.radius(4, 2), 3.0, "2 reaches 3 only through 0");
        // A cheaper pair replaces the forest's heaviest edge.
        forest.absorb(4, &[pair(1, 2, 0.5)]);
        assert_eq!(forest.edges.len(), 3);
        assert_eq!(forest.radius(4, 2), 2.0, "2–1–0–3 now peaks at 2");
        assert_eq!(forest.radius(4, 1), 2.0);
        // A NaN pair cost makes every later radius unbounded.
        forest.absorb(4, &[pair(2, 3, f64::NAN)]);
        assert_eq!(forest.radius(4, 2), f64::INFINITY);
        forest.clear();
        forest.absorb(4, &[pair(2, 3, 1.0)]);
        assert_eq!(forest.radius(4, 2), 1.0, "clear lifts the NaN latch");
    }

    #[test]
    fn nan_weights_keep_the_unbounded_closure() {
        // NaN weights (as weight deltas may write them) reach the closure
        // through the Eq. 1 transform; the bounded closure must match the
        // unbounded reference on them, at both parallelism settings.
        let mut g = Graph::new();
        let items: Vec<NodeId> = (0..30).map(|_| g.add_node(NodeKind::Item)).collect();
        let hubs: Vec<NodeId> = (0..4).map(|_| g.add_node(NodeKind::Entity)).collect();
        for (i, &it) in items.iter().enumerate() {
            let w = if i % 7 == 3 { f64::NAN } else { (i % 5) as f64 };
            g.add_edge(it, hubs[i % 4], w, EdgeKind::Attribute);
            g.add_edge(it, items[(i + 1) % 30], 1.0, EdgeKind::Attribute);
        }
        let path = xsum_graph::LoosePath::ground(&g, vec![items[0], hubs[0], items[4]]);
        let mut input = SummaryInput::user_centric(items[0], vec![path]);
        input.terminals = items.clone();
        let costs = steiner_costs(&g, &input, &SteinerConfig::default());
        let (want_tree, want_sub) = unbounded_reference(&g, &costs, &items);
        for parallelism in [1, 4] {
            let mut ws = SteinerWorkspace::new();
            ws.set_parallelism(parallelism);
            let sub = steiner_tree_with(&g, &costs, &items, &mut ws);
            assert_eq!(bounded_tree(&ws), want_tree);
            assert_eq!(sub.sorted_edges(), want_sub.sorted_edges());
            assert!(ws.last_closure_settled() > 0);
        }
    }

    #[test]
    fn lambda_boost_steers_toward_input_paths() {
        // Two parallel 2-hop routes between u and i2; the input explanation
        // uses the *heavier-boosted* one once λ is large.
        let mut g = Graph::new();
        let u = g.add_node(NodeKind::User);
        let i1 = g.add_node(NodeKind::Item);
        let i2 = g.add_node(NodeKind::Item);
        let e_u_i1 = g.add_edge(u, i1, 1.0, EdgeKind::Interaction);
        let a = g.add_node(NodeKind::Entity);
        let b = g.add_node(NodeKind::Entity);
        let e1 = g.add_edge(i1, a, 1.0, EdgeKind::Attribute);
        let e2 = g.add_edge(a, i2, 1.0, EdgeKind::Attribute);
        let _f1 = g.add_edge(i1, b, 1.0, EdgeKind::Attribute);
        let _f2 = g.add_edge(b, i2, 1.0, EdgeKind::Attribute);
        let _ = (e_u_i1, e1, e2);

        // Build a KG-free summary via raw pieces: emulate adjusted weights.
        let path = xsum_graph::LoosePath::ground(&g, vec![u, i1, a, i2]);
        let input = SummaryInput::user_centric(u, vec![path]);
        let weights = crate::weighting::adjusted_weights_of_paths(
            &g,
            &input.paths,
            input.anchor_count,
            100.0,
        );
        let costs = Graph::cost_transform(&weights, 1.0);
        let tree = steiner_tree(&g, &costs, &input.terminals);
        assert!(
            tree.contains_node(a),
            "λ=100 must route the summary through the explanation's own entity"
        );
        assert!(!tree.contains_node(b));
    }
}
