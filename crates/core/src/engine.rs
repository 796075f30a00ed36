//! The persistent summarization engine.
//!
//! [`crate::summarize_batch`] is fast *within* a call but rebuilds its
//! world on every call: worker threads are spawned and joined, each
//! worker's [`SteinerWorkspace`] and private cost-table copy are
//! allocated from scratch, and the Eq. 1 base table is derived again —
//! O(workers · |E|) of setup per batch. A serving deployment issues
//! *many* batches (and many single summaries) against one long-lived
//! graph, so [`SummaryEngine`] makes all of that state persistent:
//!
//! * a pinned [`WorkerPool`] — threads spawned once and parked between
//!   calls, woken per batch with one condvar broadcast;
//! * one `EngineWorker` per pool thread, owning a [`SteinerWorkspace`]
//!   and an Eq. 1 cost buffer that survive across batches, so a warm
//!   batch patches O(|paths|) per summary and never touches the
//!   allocator for search state;
//! * a [`CostModelCache`] keyed by (graph epoch, config), shared by the
//!   batched and single-summary paths, so switching λ or serving an
//!   updated graph rebuilds the O(|E|) base table exactly once;
//! * a [`SessionStore`] of incremental per-user sessions (k grows as
//!   the user scrolls), with LRU eviction and graph-epoch invalidation.
//!
//! The whole stack is **delta-aware**: a weight-only mutation recorded
//! in the [`Graph::delta_since`] ledger is absorbed in O(|touched
//! edges|) at every layer instead of cascading into O(|E| + caches +
//! sessions) of rebuild. The [`CostModelCache`] patches its resident
//! Eq. 1 table in place ([`CostModelCache::patches`] counts these);
//! each `EngineWorker`'s private cost buffer refreshes only the
//! touched entries when its recorded anchor bits match the new model's
//! (`EngineWorker::begin_summary`); and the session store keeps every
//! session whose touched-edge fingerprint is disjoint from the delta.
//! Structural mutations (or an anchor-moving delta) still take the
//! rebuild path — the ledger only certifies what is provably
//! bit-identical.
//!
//! Everything the engine produces is **bit-identical** to the free
//! functions ([`steiner_summary`](crate::steiner_summary) /
//! [`steiner_summary_fast`](crate::steiner_summary_fast) /
//! [`pcst_summary`](crate::pcst_summary) /
//! [`gw_pcst_summary`](crate::gw_pcst_summary)) and to
//! [`crate::summarize_batch`]; the property suites in
//! `tests/prop_engine.rs` pin that contract across random graphs,
//! configs, and worker counts.

use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use xsum_graph::{num_threads, EdgeCosts, EdgeId, Graph, WorkerPool};

use crate::batch::BatchMethod;
use crate::input::SummaryInput;
use crate::session::SessionStore;
use crate::steiner::{
    steiner_tree_fast_with, steiner_tree_with, CostModelCache, CostModelKey, SteinerCostModel,
    SteinerWorkspace,
};
use crate::summary::Summary;

/// A worker panic surfaced as a recoverable serving error.
///
/// The engine's state survives the panic that produced one of these:
/// the pool catches worker panics and finishes the dispatch, and any
/// cost buffer that was mid-patch is left flagged dirty
/// (`EngineWorker::begin_summary`) so the next call re-copies the
/// Eq. 1 base instead of serving leftover patched costs. A front-end
/// holding the engine can therefore log the error and keep serving —
/// see [`SummaryEngine::try_summarize_batch`].
#[derive(Debug, Clone)]
pub struct EngineError {
    message: String,
}

impl EngineError {
    /// A serving error that did not come from a panic payload — e.g.
    /// the admission queue failing tickets it can no longer serve.
    pub(crate) fn from_message(message: impl Into<String>) -> Self {
        EngineError {
            message: message.into(),
        }
    }

    pub(crate) fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "summarization worker panicked".to_string());
        EngineError { message }
    }

    /// The panic message of the failed worker.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "summarization worker panicked: {}", self.message)
    }
}

impl std::error::Error for EngineError {}

/// Persistent per-worker state: the full KMB/Mehlhorn scratch plus a
/// private Eq. 1 cost buffer tagged with the model it was copied from.
#[derive(Debug, Default)]
struct EngineWorker {
    ws: SteinerWorkspace,
    /// Private copy of the cost-model base, patched and unpatched around
    /// each summary. `None` until first use.
    costs: Option<EdgeCosts>,
    /// Which (epoch, config) model `costs` mirrors; a key mismatch (new
    /// graph epoch, different λ/δ) triggers a base re-sync.
    costs_key: Option<CostModelKey>,
    /// `base_max` bits of the model `costs` mirrors — the anchor every
    /// entry of the buffer was derived from. When a same-config key
    /// change keeps these bits, the old and new bases are bit-identical
    /// off the delta-touched edges, so the buffer re-syncs in
    /// O(|touched|) instead of one full memcpy.
    costs_anchor: u64,
    /// Touched-edge log for patch/unpatch.
    touched: Vec<(EdgeId, u32)>,
}

impl EngineWorker {
    /// Synchronize the worker's cost buffer to `model` (free when
    /// already warm; O(|touched|) across a ledger-covered weight delta
    /// with an unmoved anchor; one memcpy otherwise) and mark it **in
    /// flight**: `costs_key` stays `None` until
    /// [`EngineWorker::finish_summary`] restores it after a successful
    /// unpatch. A panic mid-summary (e.g. an out-of-range terminal id
    /// unwinding out of the tree construction) therefore leaves the
    /// buffer flagged dirty, and the next call re-syncs the base
    /// instead of silently computing against leftover patched costs.
    /// Callers borrow `self.costs` directly so `touched` and `ws` stay
    /// independently borrowable.
    fn begin_summary(&mut self, g: &Graph, key: CostModelKey, model: &SteinerCostModel) {
        if self.costs_key != Some(key) {
            // Delta fast path: the buffer mirrors an earlier epoch of
            // the same config, the ledger covers the gap, and the Eq. 1
            // anchor bits are unchanged — only the touched entries of
            // the two bases can differ.
            let delta = self
                .costs_key
                .filter(|old| old.same_config(&key))
                .filter(|_| model.base_max().to_bits() == self.costs_anchor)
                .and_then(|old| g.delta_since(old.epoch()));
            match (&mut self.costs, delta) {
                (Some(c), Some(touched)) => model.copy_touched_into(c, &touched),
                (Some(c), None) => model.copy_base_into(c),
                (None, _) => self.costs = Some(model.fresh_costs()),
            }
            self.costs_anchor = model.base_max().to_bits();
        }
        self.costs_key = None;
    }

    /// Declare the buffer clean again (patch fully undone).
    fn finish_summary(&mut self, key: CostModelKey) {
        self.costs_key = Some(key);
    }

    /// One ST/ST-fast summary on this worker's warm state — the single
    /// body both [`SummaryEngine::summarize`] and the batch closure run,
    /// so the bit-identity contract between the two paths cannot drift.
    fn run_st(
        &mut self,
        g: &Graph,
        input: &SummaryInput,
        key: CostModelKey,
        model: &SteinerCostModel,
        fast: bool,
        label: &'static str,
    ) -> Summary {
        self.begin_summary(g, key, model);
        let costs = self.costs.as_mut().expect("buffer just synced");
        model.patch(g, input, costs, &mut self.touched);
        let subgraph = if fast {
            steiner_tree_fast_with(g, costs, &input.terminals, &mut self.ws)
        } else {
            steiner_tree_with(g, costs, &input.terminals, &mut self.ws)
        };
        model.unpatch(costs, &self.touched);
        self.finish_summary(key);
        Summary {
            method: label,
            scenario: input.scenario,
            subgraph,
            terminals: input.terminals.clone(),
        }
    }
}

/// A long-lived, multi-threaded summarization engine (see module docs).
///
/// Construction pins the worker pool; afterwards
/// [`SummaryEngine::summarize_batch`] and [`SummaryEngine::summarize`]
/// can be called any number of times, against any graph — per-graph
/// derived state is keyed by the graph's mutation epoch and refreshed
/// transparently when it changes.
///
/// ```
/// use xsum_core::{BatchMethod, SteinerConfig, SummaryEngine, SummaryInput};
/// use xsum_core::render::table1_example;
///
/// let ex = table1_example();
/// let mut engine = SummaryEngine::with_threads(2);
/// let method = BatchMethod::Steiner(SteinerConfig::default());
/// let batch = engine.summarize_batch(&ex.graph, &[ex.input()], method);
/// let single = engine.summarize(&ex.graph, &ex.input(), method);
/// assert_eq!(
///     batch[0].subgraph.sorted_edges(),
///     single.subgraph.sorted_edges()
/// );
/// ```
#[derive(Debug)]
pub struct SummaryEngine {
    pool: WorkerPool,
    workers: Vec<EngineWorker>,
    models: CostModelCache,
    sessions: SessionStore,
    /// Inner-parallelism budget a *lone* batch worker inherits (the
    /// |T| ≥ 24 metric-closure fan-out). Defaults to the worker count;
    /// see [`SummaryEngine::with_threads_and_budget`].
    lone_budget: usize,
}

impl Default for SummaryEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SummaryEngine {
    /// Default capacity of the engine's cost-model cache: generous for a
    /// λ-sweep over a handful of live graph epochs.
    const MODEL_CACHE_CAPACITY: usize = 8;

    /// Default capacity of the engine's incremental-session store.
    const SESSION_CAPACITY: usize = 1024;

    /// An engine sized by [`num_threads`] (hardware parallelism, or
    /// `XSUM_THREADS`).
    pub fn new() -> Self {
        Self::with_threads(num_threads())
    }

    /// An engine with an explicit worker count (clamped to ≥ 1); `1`
    /// serves strictly sequentially on the calling thread.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        Self::with_threads_and_budget(threads, threads)
    }

    /// [`SummaryEngine::with_threads`] with a separate inner-parallelism
    /// budget for the lone-worker case — how the one-shot
    /// [`crate::summarize_batch_threads`] wrapper clamps its pool to the
    /// batch width without losing the caller's requested thread budget
    /// for the metric-closure fan-out.
    pub(crate) fn with_threads_and_budget(threads: usize, lone_budget: usize) -> Self {
        let threads = threads.max(1);
        SummaryEngine {
            pool: WorkerPool::new(threads),
            workers: (0..threads).map(|_| EngineWorker::default()).collect(),
            models: CostModelCache::new(Self::MODEL_CACHE_CAPACITY),
            sessions: SessionStore::new(Self::SESSION_CAPACITY),
            lone_budget: lone_budget.max(1),
        }
    }

    /// Number of pinned worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queue-depth probe of the pinned pool: how many workers are still
    /// running the current dispatch (`0` = parked). Forwarded from
    /// [`WorkerPool::in_flight`]; an admission front-end polls this to
    /// decide whether to keep coalescing while a batch is in flight.
    pub fn pool_in_flight(&self) -> usize {
        self.pool.in_flight()
    }

    /// Install (or clear, with `None`) a fault hook on the pinned
    /// pool's dispatch seam — the engine-level face of the
    /// fault-injection plane ([`crate::faults`]). The hook runs once on
    /// the dispatching thread per batch dispatch; a panicking hook
    /// behaves exactly like a worker panic, so
    /// [`SummaryEngine::try_summarize_batch`] catches it. Unset (the
    /// default), the seam costs one never-taken branch per dispatch.
    pub fn set_fault_hook(&mut self, hook: Option<xsum_graph::DispatchHook>) {
        self.pool.set_dispatch_hook(hook);
    }

    /// `(hits, misses)` of the engine's cost-model cache — a miss is one
    /// O(|E|) Eq. 1 base-table build. A structural mutation moves the
    /// epoch and shows up here as a miss on the next call; a
    /// ledger-covered weight-only delta is absorbed as a *patch*
    /// ([`SummaryEngine::cost_cache_patches`]) instead.
    pub fn cost_cache_stats(&self) -> (u64, u64) {
        (self.models.hits(), self.models.misses())
    }

    /// Resident cost models patched in O(|touched|) across a weight-only
    /// delta instead of being rebuilt.
    pub fn cost_cache_patches(&self) -> u64 {
        self.models.patches()
    }

    /// The engine's incremental-session store (per-user growing
    /// summaries with LRU eviction and epoch invalidation).
    pub fn sessions(&mut self) -> &mut SessionStore {
        &mut self.sessions
    }

    /// Compute one summary on the calling thread, reusing the engine's
    /// warm state (cost-model cache + worker-0 workspace and cost
    /// buffer). Bit-identical to the corresponding sequential free
    /// function; unlike it, a warm engine pays O(|paths|) — not O(|E|)
    /// — to materialize the Eq. 1 costs.
    pub fn summarize(&mut self, g: &Graph, input: &SummaryInput, method: BatchMethod) -> Summary {
        match method {
            BatchMethod::Steiner(cfg) | BatchMethod::SteinerFast(cfg) => {
                let fast = matches!(method, BatchMethod::SteinerFast(_));
                let (key, model) = self.models.get(g, &cfg);
                let worker = &mut self.workers[0];
                // The sequential entry points never spawn threads; keep
                // the engine's single-summary path identical.
                worker.ws.set_parallelism(1);
                worker.run_st(g, input, key, &model, fast, method.name())
            }
            BatchMethod::Pcst(_) | BatchMethod::GwPcst(_) => method.run(g, input),
        }
    }

    /// Summarize every input with `method` across the pinned worker
    /// pool, preserving input order. Semantics (and bits) match
    /// [`crate::summarize_batch`]; steady-state cost per call drops from
    /// O(workers · |E|) setup + spawns to one pool wake-up.
    pub fn summarize_batch(
        &mut self,
        g: &Graph,
        inputs: &[SummaryInput],
        method: BatchMethod,
    ) -> Vec<Summary> {
        self.summarize_batch_impl(g, inputs, method)
    }

    /// [`SummaryEngine::summarize_batch`] over borrowed inputs — the
    /// sharded front-end's scatter path, which routes a mixed batch
    /// into per-shard sub-batches without cloning any `SummaryInput`.
    /// Same body as the owned entry point (one generic
    /// implementation), so the two cannot drift.
    pub(crate) fn summarize_batch_refs(
        &mut self,
        g: &Graph,
        inputs: &[&SummaryInput],
        method: BatchMethod,
    ) -> Vec<Summary> {
        self.summarize_batch_impl(g, inputs, method)
    }

    fn summarize_batch_impl<T>(
        &mut self,
        g: &Graph,
        inputs: &[T],
        method: BatchMethod,
    ) -> Vec<Summary>
    where
        T: Borrow<SummaryInput> + Sync,
    {
        if inputs.is_empty() {
            // Nothing to do — in particular, don't build (and cache) an
            // Eq. 1 model for a batch that will never read it. Sharded
            // front-ends routinely dispatch empty sub-batches.
            return Vec::new();
        }
        // Freeze the CSR before fanning out so workers never contend on
        // the one-time adjacency build.
        g.freeze();
        let threads = self.workers.len();
        let active = threads.min(inputs.len()).max(1);
        match method {
            BatchMethod::Steiner(cfg) | BatchMethod::SteinerFast(cfg) => {
                let fast = matches!(method, BatchMethod::SteinerFast(_));
                let label = method.name();
                let (key, model) = self.models.get(g, &cfg);
                for w in &mut self.workers[..active] {
                    // One level of parallelism only: with several outer
                    // workers each summary's metric closure stays
                    // sequential; a lone worker inherits the engine's
                    // inner budget (matching `summarize_batch`).
                    w.ws.set_parallelism(if active > 1 { 1 } else { self.lone_budget });
                }
                let model_ref = &model;
                self.pool
                    .map_with(&mut self.workers[..active], inputs, move |w, _, input| {
                        w.run_st(g, input.borrow(), key, model_ref, fast, label)
                    })
            }
            BatchMethod::Pcst(_) | BatchMethod::GwPcst(_) => {
                let mut states = vec![(); active];
                self.pool.map_with(&mut states, inputs, |_, _, input| {
                    method.run(g, input.borrow())
                })
            }
        }
    }

    /// [`SummaryEngine::summarize_batch`] with worker panics surfaced
    /// as a recoverable [`EngineError`] instead of unwinding into the
    /// caller.
    ///
    /// A malformed input (e.g. a terminal id outside the graph) panics
    /// inside the worker that drew it; the pool already catches the
    /// panic, finishes the dispatch without deadlocking, and re-raises
    /// it on the calling thread. This wrapper converts that re-raise
    /// into an `Err`, leaving the engine fully serviceable: buffers the
    /// panic interrupted mid-patch stay flagged dirty and are rebuilt
    /// from the Eq. 1 base on the next call (property: post-error
    /// output is still bit-identical to the free functions).
    pub fn try_summarize_batch(
        &mut self,
        g: &Graph,
        inputs: &[SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.summarize_batch(g, inputs, method)))
            .map_err(EngineError::from_panic)
    }

    /// [`SummaryEngine::summarize`] with panics surfaced as a
    /// recoverable [`EngineError`]; see
    /// [`SummaryEngine::try_summarize_batch`].
    pub fn try_summarize(
        &mut self,
        g: &Graph,
        input: &SummaryInput,
        method: BatchMethod,
    ) -> Result<Summary, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.summarize(g, input, method)))
            .map_err(EngineError::from_panic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcst::PcstConfig;
    use crate::render::table1_example;
    use crate::steiner::SteinerConfig;
    use crate::{gw_pcst_summary, pcst_summary, steiner_summary, steiner_summary_fast};

    fn assert_same(a: &Summary, b: &Summary) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.terminals, b.terminals);
        assert_eq!(a.subgraph.sorted_edges(), b.subgraph.sorted_edges());
        assert_eq!(a.subgraph.sorted_nodes(), b.subgraph.sorted_nodes());
    }

    #[test]
    fn engine_single_matches_free_functions() {
        let ex = table1_example();
        let input = ex.input();
        let st = SteinerConfig::default();
        let pc = PcstConfig::default();
        let mut engine = SummaryEngine::with_threads(2);
        assert_same(
            &engine.summarize(&ex.graph, &input, BatchMethod::Steiner(st)),
            &steiner_summary(&ex.graph, &input, &st),
        );
        assert_same(
            &engine.summarize(&ex.graph, &input, BatchMethod::SteinerFast(st)),
            &steiner_summary_fast(&ex.graph, &input, &st),
        );
        assert_same(
            &engine.summarize(&ex.graph, &input, BatchMethod::Pcst(pc)),
            &pcst_summary(&ex.graph, &input, &pc),
        );
        assert_same(
            &engine.summarize(&ex.graph, &input, BatchMethod::GwPcst(pc)),
            &gw_pcst_summary(&ex.graph, &input, &pc),
        );
    }

    #[test]
    fn engine_is_reusable_and_warm_across_calls() {
        let ex = table1_example();
        let input = ex.input();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut engine = SummaryEngine::with_threads(3);
        let inputs = vec![input.clone(), input.clone(), input.clone(), input];
        let first = engine.summarize_batch(&ex.graph, &inputs, method);
        for _ in 0..5 {
            let again = engine.summarize_batch(&ex.graph, &inputs, method);
            for (a, b) in first.iter().zip(&again) {
                assert_same(a, b);
            }
        }
        let (hits, misses) = engine.cost_cache_stats();
        assert_eq!(misses, 1, "one Eq. 1 base build serves every batch");
        assert_eq!(hits, 5);
    }

    #[test]
    fn graph_mutation_misses_the_cost_cache() {
        let mut ex = table1_example();
        let input = ex.input();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut engine = SummaryEngine::with_threads(2);
        engine.summarize(&ex.graph, &input, method);
        ex.graph.set_weight(xsum_graph::EdgeId(0), 0.25);
        let warm = engine.summarize(&ex.graph, &input, method);
        let (_, misses) = engine.cost_cache_stats();
        assert_eq!(misses, 2, "weight mutation must rebuild the model");
        // And the recomputation matches a cold engine exactly.
        let cold = SummaryEngine::with_threads(2).summarize(&ex.graph, &input, method);
        assert_same(&warm, &cold);
    }

    #[test]
    fn anchor_safe_weight_delta_patches_instead_of_missing() {
        let mut ex = table1_example();
        let input = ex.input();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut engine = SummaryEngine::with_threads(2);
        engine.summarize(&ex.graph, &input, method);
        // Raise a zero-weight attribute edge (EdgeId 5) to 0.5: below
        // the 5.0 anchor and not an anchor witness — patchable.
        ex.graph.set_weight(xsum_graph::EdgeId(5), 0.5);
        let warm = engine.summarize(&ex.graph, &input, method);
        let (_, misses) = engine.cost_cache_stats();
        assert_eq!(misses, 1, "covered delta must not rebuild the model");
        assert_eq!(engine.cost_cache_patches(), 1);
        // Bit-identical to a cold engine on the mutated graph.
        let cold = SummaryEngine::with_threads(2).summarize(&ex.graph, &input, method);
        assert_same(&warm, &cold);
        // Batches keep matching too (worker buffers re-synced via the
        // touched-entry fast path).
        ex.graph
            .apply_delta(&[(xsum_graph::EdgeId(5), 0.25), (xsum_graph::EdgeId(6), 1.5)]);
        let inputs = vec![input.clone(), input.clone(), input.clone()];
        let batch = engine.summarize_batch(&ex.graph, &inputs, method);
        let free = crate::summarize_batch(&ex.graph, &inputs, method);
        for (a, b) in batch.iter().zip(&free) {
            assert_same(a, b);
        }
        assert_eq!(engine.cost_cache_patches(), 2);
    }

    #[test]
    fn lambda_sweep_populates_distinct_models() {
        let ex = table1_example();
        let input = ex.input();
        let mut engine = SummaryEngine::with_threads(1);
        for lambda in [0.01, 1.0, 100.0] {
            let cfg = SteinerConfig { lambda, delta: 1.0 };
            let got = engine.summarize(&ex.graph, &input, BatchMethod::Steiner(cfg));
            assert_same(&got, &steiner_summary(&ex.graph, &input, &cfg));
        }
        let (hits, misses) = engine.cost_cache_stats();
        assert_eq!((hits, misses), (0, 3), "three configs, three models");
    }

    #[test]
    fn engine_default_threads_positive() {
        let engine = SummaryEngine::new();
        assert!(engine.threads() >= 1);
    }

    #[test]
    fn worker_panic_is_recoverable_not_fatal() {
        // Satellite regression: a malformed input panicking inside a
        // (possibly pooled) worker must come back as an `EngineError`,
        // and the engine must keep serving bit-identical results — the
        // dirty-buffer recovery rebuilds the interrupted cost buffer.
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        // Terminals entirely outside the graph: the first becomes a
        // Dijkstra *source* and unwinds out of the metric closure after
        // the worker's buffer was already patched. (Out-of-range
        // *targets* are deliberately total — treated as unreachable.)
        let mut bad = input.clone();
        bad.terminals = vec![
            xsum_graph::NodeId(u32::MAX - 2),
            xsum_graph::NodeId(u32::MAX - 1),
        ];
        for method in [BatchMethod::Steiner(cfg), BatchMethod::SteinerFast(cfg)] {
            for threads in [1usize, 2] {
                let mut engine = SummaryEngine::with_threads(threads);
                let good = vec![input.clone(), input.clone()];
                engine.summarize_batch(&ex.graph, &good, method); // warm
                let err =
                    engine.try_summarize_batch(&ex.graph, &[input.clone(), bad.clone()], method);
                assert!(err.is_err(), "out-of-range source must error");
                assert!(engine.try_summarize(&ex.graph, &bad, method).is_err());
                // Still serving, still bit-identical to the free path.
                let after = engine.summarize_batch(&ex.graph, &good, method);
                for s in &after {
                    assert_same(s, &method.run(&ex.graph, &input));
                }
            }
        }
    }

    #[test]
    fn unwound_summary_does_not_corrupt_cost_buffers() {
        // Simulate a panic unwinding out of the tree construction after
        // the worker's buffer was patched (patch done, unpatch and
        // finish_summary never reached). The buffer must be flagged
        // dirty so the next call re-copies the base — never serves
        // leftover boosted costs.
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let method = BatchMethod::Steiner(cfg);
        let mut engine = SummaryEngine::with_threads(1);
        engine.summarize(&ex.graph, &input, method); // warm buffer

        // A variant input with a different Eq. 1 denominator, so its
        // patch writes values no later patch of `input` would overwrite.
        let variant = crate::input::SummaryInput::user_centric(ex.user1, vec![ex.paths[0].clone()]);
        let (key, model) = engine.models.get(&ex.graph, &cfg);
        let w = &mut engine.workers[0];
        w.begin_summary(&ex.graph, key, &model);
        let costs = w.costs.as_mut().expect("warm buffer");
        model.patch(&ex.graph, &variant, costs, &mut w.touched);
        // ...unwind here: no unpatch, no finish_summary.
        assert_ne!(
            w.costs.as_ref().unwrap().0,
            model.fresh_costs().0,
            "the simulated unwind must leave real patched state behind"
        );
        assert!(
            engine.workers[0].costs_key.is_none(),
            "an in-flight summary's buffer is flagged dirty"
        );

        // The next call re-copies the base and produces the free-
        // function result; afterwards the buffer is exactly base again.
        let after = engine.summarize(&ex.graph, &input, method);
        let free = crate::steiner_summary(&ex.graph, &input, &cfg);
        assert_same(&after, &free);
        assert_eq!(
            engine.workers[0].costs.as_ref().unwrap().0,
            model.fresh_costs().0,
            "recovered buffer must be bit-identical to the model base"
        );
    }
}
