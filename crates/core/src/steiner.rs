//! Algorithm 1 — ST-based summary explanations.
//!
//! The classic Kou–Markowsky–Berman construction the paper's pseudocode
//! follows line by line:
//!
//! 1. Dijkstra from every terminal gives the metric closure over `T`;
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
//! ≤ 0.1% relative on relevance; faithfulness identical), while the
//! closure costs `O(|E| + |V| log |V|)` instead of the paper's
//! `O(|T|(|E| + |V| log |V|))`. KMB stays fully supported as the
//! **fidelity reference** — [`steiner_summary`] /
//! [`crate::BatchMethod::Steiner`] / the CLI's `--method st-kmb` — and
//! remains what the paper-reproduction figures run, since it is the
//! pseudocode of Algorithm 1 line by line.

use std::cell::RefCell;

use xsum_graph::{
    kruskal, num_threads, DijkstraWorkspace, EdgeCosts, EdgeId, FxHashMap, FxHashSet, Graph,
    MstEdge, NodeId, Subgraph, WeightDeltaRec, WorkerPool,
};

use crate::input::SummaryInput;
use crate::summary::Summary;
use crate::weighting::adjusted_weights;

/// Terminal count from which the metric closure fans its Dijkstras out
/// across threads. Below this, thread handoff costs more than the |T|
/// searches; the paper's user-centric k≤10 inputs always stay
/// sequential while group scenarios with hundreds of terminals
/// parallelize. The gate always counts **deduplicated** terminals (the
/// closure runs one Dijkstra per distinct terminal, so duplicates must
/// not buy a fan-out).
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

/// Reusable scratch state for [`steiner_tree_with`].
///
/// Owns the per-call buffers of the KMB construction — the deduplicated
/// terminal list, the metric-closure edge list, and a flat edge-id arena
/// holding every pair's expanded shortest path — plus one
/// [`DijkstraWorkspace`] per potential worker thread and the
/// [`WorkerPool`] the parallel metric closure runs on. After the first
/// call at a given problem size, a summary computes without allocating
/// anything but its output subgraph.
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
    /// pair, `(cost, bridge edge id)` in a dense upper-triangular T×T
    /// matrix.
    pair_best: Vec<(f64, u32)>,
    /// One Dijkstra workspace per worker (index 0 doubles as the
    /// sequential workspace).
    workers: Vec<DijkstraWorkspace>,
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

    /// Build the metric closure over `terminals` into `closure` /
    /// `spans` / `arena`, running the |T| Dijkstras sequentially or
    /// across worker threads.
    fn metric_closure(&mut self, g: &Graph, costs: &EdgeCosts) {
        self.closure.clear();
        self.spans.clear();
        self.arena.clear();
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
        if self.workers.len() < workers {
            self.workers.resize_with(workers, DijkstraWorkspace::new);
        }

        if workers == 1 {
            // Sequential: reuse worker 0 across all |T| sources, writing
            // paths straight into the shared arena.
            let ws = &mut self.workers[0];
            for si in 0..t - 1 {
                let source = self.terminals[si];
                let targets = &self.terminals[si + 1..];
                ws.run(g, costs, source, targets);
                for (off, &target) in targets.iter().enumerate() {
                    if let Some(d) = ws.distance(target) {
                        let start = self.arena.len() as u32;
                        if !ws.append_path_to(g, target, &mut self.arena) {
                            continue;
                        }
                        self.closure.push(MstEdge {
                            a: si,
                            b: si + 1 + off,
                            cost: d,
                            payload: self.spans.len(),
                        });
                        self.spans.push((start, self.arena.len() as u32 - start));
                    }
                }
            }
            return;
        }

        // Parallel: every source index is an independent task; workers
        // carry their own DijkstraWorkspace and return (pair, dist,
        // local path span) batches that merge into the shared arena.
        g.freeze();
        let pool = match &mut self.pool {
            Some(pool) if pool.workers() >= workers => pool,
            slot => slot.insert(WorkerPool::new(workers)),
        };
        let terminals = &self.terminals;
        let sources: Vec<usize> = (0..t - 1).collect();
        let per_source = pool.map_with(&mut self.workers[..workers], &sources, |ws, _, &si| {
            let targets = &terminals[si + 1..];
            ws.run(g, costs, terminals[si], targets);
            let mut paths: Vec<EdgeId> = Vec::new();
            let mut pairs: Vec<(usize, f64, u32, u32)> = Vec::new();
            for (off, &target) in targets.iter().enumerate() {
                if let Some(d) = ws.distance(target) {
                    let start = paths.len() as u32;
                    if ws.append_path_to(g, target, &mut paths) {
                        pairs.push((si + 1 + off, d, start, paths.len() as u32 - start));
                    }
                }
            }
            (si, pairs, paths)
        });
        for (si, pairs, paths) in per_source {
            let base = self.arena.len() as u32;
            self.arena.extend_from_slice(&paths);
            for (ti, d, start, len) in pairs {
                self.closure.push(MstEdge {
                    a: si,
                    b: ti,
                    cost: d,
                    payload: self.spans.len(),
                });
                self.spans.push((base + start, len));
            }
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

    // 4a. Re-MST over the expanded subgraph to break any cycles formed by
    //     overlapping shortest paths.
    let pruned = subgraph_mst(g, costs, &edge_set);

    // 4b. Prune non-terminal leaves repeatedly.
    let term_set: FxHashSet<NodeId> = ws.terminals.iter().copied().collect();
    let final_edges = prune_nonterminal_leaves(g, pruned, &term_set);

    let mut out = Subgraph::from_edges(g, final_edges);
    // Unreachable terminals are still part of the summary statement.
    for t in &ws.terminals {
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
/// edges. The approximation guarantee is the same factor 2, the
/// asymptotic cost drops from `O(|T|(|E| + |V| log |V|))` (the paper's
/// quoted bound) to `O(|E| + |V| log |V|)`, and the produced tree is
/// usually — but not always — identical to KMB's. Use this for
/// throughput-critical batches; use [`steiner_summary`] to reproduce
/// the paper's pseudocode exactly.
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

    // 1. One multi-source Dijkstra: Voronoi cells around the terminals.
    if ws.workers.is_empty() {
        ws.workers.push(DijkstraWorkspace::new());
    }
    let dij = &mut ws.workers[0];
    dij.run_voronoi(g, costs, &ws.terminals);

    // 2. Candidate inter-cell connections: every edge whose endpoints
    //    lie in different cells connects its two terminals at cost
    //    d(u, t_u) + c(e) + d(v, t_v). Boundary edges can number O(|E|),
    //    so reduce to the cheapest bridge per terminal pair in a dense
    //    upper-triangular matrix first — kruskal then sorts at most
    //    T·(T−1)/2 entries instead of thousands. Iterating edges in id
    //    order with a strict `<` keeps the smallest-id bridge on ties,
    //    mirroring KMB's insertion-order affinity.
    let t = ws.terminals.len();
    ws.pair_best.clear();
    ws.pair_best.resize(t * t, (f64::INFINITY, u32::MAX));
    for e in g.edge_ids() {
        let edge = g.edge(e);
        if let (Some(ou), Some(ov)) = (dij.origin_of(edge.src), dij.origin_of(edge.dst)) {
            if ou != ov {
                let du = dij.distance(edge.src).expect("origin implies distance");
                let dv = dij.distance(edge.dst).expect("origin implies distance");
                let cost = du + costs.get(e) + dv;
                let idx = (ou.min(ov) as usize) * t + ou.max(ov) as usize;
                if cost < ws.pair_best[idx].0 {
                    ws.pair_best[idx] = (cost, e.0);
                }
            }
        }
    }
    ws.closure.clear();
    for a in 0..t {
        for b in (a + 1)..t {
            let (cost, e) = ws.pair_best[a * t + b];
            if e != u32::MAX {
                ws.closure.push(MstEdge {
                    a,
                    b,
                    cost,
                    payload: e as usize,
                });
            }
        }
    }
    let mst = kruskal(t, &ws.closure);

    // 3. Expand each chosen bridge into bridge + both endpoint-to-
    //    terminal paths.
    ws.arena.clear();
    let mut edge_set: FxHashSet<EdgeId> = FxHashSet::default();
    for ce in &mst {
        let e = EdgeId(ce.payload as u32);
        let edge = g.edge(e);
        edge_set.insert(e);
        ws.arena.clear();
        dij.append_path_to_origin(g, edge.src, &mut ws.arena);
        dij.append_path_to_origin(g, edge.dst, &mut ws.arena);
        edge_set.extend(ws.arena.iter().copied());
    }

    // 4. Same KMB post-passes: re-MST, then prune non-terminal leaves.
    let pruned = subgraph_mst(g, costs, &edge_set);
    let term_set: FxHashSet<NodeId> = ws.terminals.iter().copied().collect();
    let final_edges = prune_nonterminal_leaves(g, pruned, &term_set);

    let mut out = Subgraph::from_edges(g, final_edges);
    for t in &ws.terminals {
        out.insert_node(*t);
    }
    out
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
