//! Sharded serving: per-shard [`SummaryEngine`] replicas behind a
//! scatter/gather routing front-end.
//!
//! The summarization workload is naturally partitionable — each request
//! touches one user's terminals against a shared KG — so the serving
//! tier scales horizontally by running one engine *per shard replica*
//! and routing requests to shards:
//!
//! ```text
//!                    ┌───────────────────────────────────┐
//!   mixed batch ───► │ ShardedEngine                     │
//!                    │  HashRouter: input → shard        │
//!                    │  scatter ──┬───────┬───────┐      │
//!                    │   shard 0  │ shard 1  …  shard N  │
//!                    │  ┌───────┐ │ ┌───────┐  ┌───────┐ │
//!                    │  │Graph  │ │ │Graph  │  │Graph  │ │
//!                    │  │replica│ │ │replica│  │replica│ │
//!                    │  │Engine │ │ │Engine │  │Engine │ │
//!                    │  │ pool  │ │ │ pool  │  │ pool  │ │
//!                    │  │ cache │ │ │ cache │  │ cache │ │
//!                    │  │ sess. │ │ │ sess. │  │ sess. │ │
//!                    │  └───────┘ │ └───────┘  └───────┘ │
//!                    │  gather (input order) ────────────┼──► summaries
//!                    └───────────────────────────────────┘
//! ```
//!
//! # Architecture
//!
//! * **Full-replica sharding.** Every replica holds a clone of the
//!   whole KG, so any request can be served by any shard and the
//!   router is purely a load/affinity decision — correctness is
//!   identical by construction, and the property suite
//!   (`tests/prop_shard.rs`) pins the outputs **bit-identical** to a
//!   single [`SummaryEngine`].
//! * **Scatter/gather batching.** [`ShardedEngine::summarize_batch`]
//!   groups a mixed batch by shard, dispatches the per-shard
//!   sub-batches onto the replicas' pinned worker pools **concurrently**
//!   ([`WorkerPool::zip_map`] runs replica *i*'s sub-batch on scatter
//!   worker *i* — static pairing, no stealing across replicas), and
//!   reassembles the outputs in input order.
//! * **Shard-affine sessions.** [`HashRouter`] routes a
//!   [`SessionKey`] by hashing its user identity, so a user's
//!   scrolling session always lands on the same replica and that
//!   replica's [`SessionStore`] stays hot.
//! * **Coherent mutation.** The replicas' graphs are private, so
//!   writes go through [`ShardedEngine::mutate`], which applies the
//!   same closure to every replica and thereby bumps every replica's
//!   mutation epoch. Each replica's cost-model cache and session store
//!   key on *its own* graph's epoch, so the next request on any shard
//!   sees the mutation — no replica can serve pre-mutation state.
//!
//! # Failure semantics
//!
//! Because every replica is a **full** graph replica, any replica can
//! serve any request — which turns replica failure from an
//! availability problem into a routing problem:
//!
//! * **What retries.** A replica whose serve panics (or draws an
//!   injected fault at [`FaultSite::ShardServe`]) fails only its own
//!   sub-batch; that sub-batch is retried sequentially on each other
//!   replica (once per replica) before the batch as a whole gives up.
//!   Only if *every* replica refuses does the original panic payload
//!   resurface — so [`ShardedEngine::try_summarize_batch`] still
//!   reports the root cause, and a single healthy replica keeps the
//!   tier serving bit-identical results.
//! * **What circuit-breaks.** Each replica carries a
//!   Closed → Open → HalfOpen breaker ([`BreakerState`], tuned by
//!   [`CircuitConfig`]): [`CircuitConfig::failure_threshold`]
//!   consecutive failures open it, routing then prefers the next
//!   non-open replica, and after a cooldown (measured in serve calls,
//!   not wall clock — deterministic like everything else) the replica
//!   is probed half-open; a failed probe re-opens it with doubled,
//!   capped backoff. With no failures every breaker stays closed and
//!   routing is byte-for-byte the [`HashRouter`] plan.
//! * **What recovers.** [`ShardedEngine::try_mutate`] applies a
//!   mutation replica-by-replica under `catch_unwind`; a panicking
//!   mutation leaves the replicas diverged and returns the error
//!   instead of unwinding. [`ShardedEngine::resync_replicas`] restores
//!   every replica from the last mutation-coherent snapshot (refreshed
//!   after each successful mutation), which is how
//!   [`AdmissionQueue::recover`](crate::admission::AdmissionQueue::recover)
//!   un-poisons a queue over a sharded backend.
//! * **What does not fail over.** Sessions are stateful and
//!   shard-affine, so [`ShardedEngine::session_summary`] always serves
//!   on the owning shard — failing a session over would silently fork
//!   its incremental state.
//!
//! [`FaultSite::ShardServe`]: crate::faults::FaultSite::ShardServe

use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xsum_graph::sync::Arc;

use xsum_graph::{fxhash::FxHasher, num_threads, EdgeId, Graph, NodeId, WorkerPool};

use crate::batch::BatchMethod;
use crate::engine::{EngineError, SummaryEngine};
use crate::faults::{FaultInjector, FaultKind, FaultSite};
use crate::input::SummaryInput;
use crate::session::{session_summary, SessionKey, SessionStore};
use crate::steiner::SteinerConfig;
use crate::summary::Summary;

/// The sharded tier's routing: Fx-hash of the request's user identity,
/// modulo the shard count. Deterministic, so the same request routes to
/// the same shard for as long as the shard count is stable — both for
/// session affinity and so repeated batches hit warm replica state.
///
/// Batch inputs are routed by their *anchor node* — the source of the
/// first explanation path (the user in user-centric inputs, a member
/// user otherwise), falling back to the first terminal for path-free
/// inputs — so all of one user's requests land on the same replica.
///
/// **Affinity coherence:** sessions are routed by hashing exactly the
/// same 64-bit identity ([`SessionKey::user`]) the batch path hashes
/// for its anchor, so a session keyed by its anchor node
/// ([`SessionKey::for_node`]) is *guaranteed* to live on the replica
/// that serves the anchor's batch requests — a user's incremental
/// state and their batch traffic can never split across replicas. The
/// baseline label deliberately does **not** participate in routing
/// (it would break that guarantee); it distinguishes sessions *within*
/// a shard's store. Pinned by [`HashRouter::routing_anchor`] tests
/// across shard counts {1, 2, 4}.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashRouter;

impl HashRouter {
    fn bucket_of_identity(identity: u64, shards: usize) -> usize {
        let mut h = FxHasher::default();
        h.write_u64(identity);
        (h.finish() % shards.max(1) as u64) as usize
    }

    /// The node whose identity routes `input`: the source of the first
    /// explanation path, falling back to the first terminal for
    /// path-free inputs. Keying a session with
    /// [`SessionKey::for_node`] on this node co-locates it with the
    /// input's batch traffic.
    pub fn routing_anchor(input: &SummaryInput) -> NodeId {
        input
            .paths
            .first()
            .map(|p| p.source())
            .or_else(|| input.terminals.first().copied())
            .unwrap_or(NodeId(0))
    }

    /// The shard (in `0..shards`) that serves `input` in a batch.
    fn route_input(input: &SummaryInput, shards: usize) -> usize {
        Self::bucket_of_identity(Self::routing_anchor(input).0 as u64, shards)
    }

    /// The shard (in `0..shards`) that owns `key`'s incremental session.
    fn route_session(key: &SessionKey, shards: usize) -> usize {
        Self::bucket_of_identity(key.user, shards)
    }
}

/// One shard: a full graph replica plus the engine that serves it.
#[derive(Debug)]
struct ShardReplica {
    graph: Graph,
    engine: SummaryEngine,
}

pub use crate::breaker::{BreakerState, CircuitBreaker, CircuitConfig};

/// A sharded serving front-end: N [`SummaryEngine`] replicas, each over
/// its own full graph replica, behind [`HashRouter`] routing (see module
/// docs).
///
/// Unlike [`SummaryEngine`], whose methods take the graph per call, a
/// `ShardedEngine` *owns* its graph replicas — constructed by cloning
/// the seed graph — because coherent mutation across replicas is part
/// of its contract ([`ShardedEngine::mutate`]).
///
/// ```
/// use xsum_core::{BatchMethod, ShardedEngine, SteinerConfig, SummaryEngine};
/// use xsum_core::render::table1_example;
///
/// let ex = table1_example();
/// let method = BatchMethod::Steiner(SteinerConfig::default());
/// let inputs = vec![ex.input(), ex.input(), ex.input()];
/// let mut sharded = ShardedEngine::with_threads(&ex.graph, 2, 1);
/// let mut single = SummaryEngine::with_threads(1);
/// let a = sharded.summarize_batch(&inputs, method);
/// let b = single.summarize_batch(&ex.graph, &inputs, method);
/// for (x, y) in a.iter().zip(&b) {
///     assert_eq!(x.subgraph.sorted_edges(), y.subgraph.sorted_edges());
/// }
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    replicas: Vec<ShardReplica>,
    /// The scatter's front-end threads, one per replica: pool worker
    /// *i* serves replica *i*'s sub-batch.
    scatter: WorkerPool,
    /// Per-replica circuit-breaker state, parallel to `replicas`.
    health: Vec<CircuitBreaker>,
    circuit: CircuitConfig,
    /// Virtual time for breaker cooldowns: one tick per serve entry
    /// point call, so backoff is deterministic under test.
    serve_clock: u64,
    faults: Option<Arc<FaultInjector>>,
    /// The last mutation-coherent graph: refreshed on construction and
    /// after every successful mutation, the restore point of
    /// [`ShardedEngine::resync_replicas`].
    last_good: Graph,
}

impl ShardedEngine {
    /// A sharded engine over clones of `g`, dividing [`num_threads`]
    /// evenly among the shards (each replica gets at least one worker).
    pub fn new(g: &Graph, shards: usize) -> Self {
        let shards = shards.max(1);
        Self::with_threads(g, shards, (num_threads() / shards).max(1))
    }

    /// [`ShardedEngine::new`] with an explicit per-shard worker count.
    pub fn with_threads(g: &Graph, shards: usize, threads_per_shard: usize) -> Self {
        // Freeze before cloning: the CSR is `Clone`, so every replica
        // starts with the adjacency already built (one build, N memcpys)
        // and an *identical epoch* to the seed — replicas only fork
        // epochs when mutated through `mutate`.
        g.freeze();
        let circuit = CircuitConfig::default();
        let replicas: Vec<ShardReplica> = (0..shards.max(1))
            .map(|_| ShardReplica {
                graph: g.clone(),
                engine: SummaryEngine::with_threads(threads_per_shard.max(1)),
            })
            .collect();
        ShardedEngine {
            scatter: WorkerPool::new(replicas.len()),
            health: vec![CircuitBreaker::new(circuit); replicas.len()],
            circuit,
            serve_clock: 0,
            faults: None,
            last_good: g.clone(),
            replicas,
        }
    }

    /// Number of shard replicas.
    pub fn shards(&self) -> usize {
        self.replicas.len()
    }

    /// The shard `input` routes to.
    pub fn shard_of_input(&self, input: &SummaryInput) -> usize {
        HashRouter::route_input(input, self.shards())
    }

    /// The shard owning `key`'s session.
    pub fn shard_of_session(&self, key: &SessionKey) -> usize {
        HashRouter::route_session(key, self.shards())
    }

    /// The graph replica of one shard (shards are content-identical).
    pub fn graph(&self, shard: usize) -> &Graph {
        &self.replicas[shard].graph
    }

    /// The session store of one shard's replica engine.
    pub fn sessions(&mut self, shard: usize) -> &mut SessionStore {
        self.replicas[shard].engine.sessions()
    }

    /// Per-shard `(hits, misses)` of the replicas' cost-model caches.
    pub fn cost_cache_stats(&self) -> Vec<(u64, u64)> {
        self.replicas
            .iter()
            .map(|r| r.engine.cost_cache_stats())
            .collect()
    }

    /// Per-shard count of cost models patched across a weight-only
    /// delta instead of rebuilt.
    pub fn cost_cache_patches(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.engine.cost_cache_patches())
            .collect()
    }

    /// Replace the per-replica circuit-breaker tuning and reset every
    /// breaker to [`BreakerState::Closed`].
    pub fn set_circuit_config(&mut self, cfg: CircuitConfig) {
        let n = self.shards();
        self.circuit = cfg;
        self.health = vec![CircuitBreaker::new(cfg); n];
    }

    /// The breaker state of one replica.
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.health[shard].state()
    }

    /// Install (or clear, with `None`) a fault injector: fires at
    /// [`FaultSite::ShardServe`] on each primary sub-batch dispatch,
    /// and is forwarded to every replica engine's worker-pool dispatch
    /// seam ([`SummaryEngine::set_fault_hook`]). Unset (the default),
    /// both seams cost one never-taken branch each.
    pub fn set_fault_injector(&mut self, faults: Option<Arc<FaultInjector>>) {
        for r in &mut self.replicas {
            r.engine
                .set_fault_hook(faults.as_ref().map(|i| i.pool_hook()));
        }
        self.faults = faults;
    }

    /// Advance virtual time and promote cooled-down open breakers to
    /// their half-open probe. Called once per serve entry point.
    fn tick(&mut self) {
        self.serve_clock += 1;
        let now = self.serve_clock;
        for h in &mut self.health {
            h.tick(now);
        }
    }

    fn record_success(&mut self, shard: usize) {
        self.health[shard].record_success();
    }

    fn record_failure(&mut self, shard: usize) {
        self.health[shard].record_failure(self.serve_clock);
    }

    /// `home` if its breaker is not open, else the first non-open
    /// replica scanning forward from it; all-open falls back to `home`
    /// (full replicas: serving beats refusing).
    fn healthy_or(&self, home: usize) -> usize {
        if self.health[home].admits() {
            return home;
        }
        let n = self.replicas.len();
        (1..n)
            .map(|off| (home + off) % n)
            .find(|&c| self.health[c].admits())
            .unwrap_or(home)
    }

    /// Serve `sub` on one replica with the panic caught — the failover
    /// unit. No fault is drawn here: retries run clean so a healthy
    /// replica genuinely rescues the sub-batch (the replica's own pool
    /// hook can still fire, which is what bounds chaos tests to the
    /// injector's budget rather than to one draw per sub-batch).
    fn serve_on(
        &mut self,
        shard: usize,
        sub: &[&SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        let r = &mut self.replicas[shard];
        catch_unwind(AssertUnwindSafe(|| {
            r.engine.summarize_batch_refs(&r.graph, sub, method)
        }))
        .map_err(EngineError::from_panic)
    }

    /// [`ShardedEngine::serve_on`] preceded by a
    /// [`FaultSite::ShardServe`] draw — the primary dispatch path.
    fn serve_with_faults(
        &mut self,
        shard: usize,
        sub: &[&SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        if let Some(inj) = &self.faults {
            if let Some(kind) = inj.fire(FaultSite::ShardServe) {
                match kind {
                    FaultKind::Panic | FaultKind::Transient => {
                        return Err(EngineError::from_message("injected shard-serve fault"));
                    }
                    FaultKind::Delay => inj.sleep_if_delay(kind),
                }
            }
        }
        self.serve_on(shard, sub, method)
    }

    /// Retry a failed sub-batch once on every other replica (or, on a
    /// single-shard engine, once more on the only replica — the
    /// failure may have been an injected fault). If every replica
    /// refuses, resurface the last panic payload so
    /// [`ShardedEngine::try_summarize_batch`] reports the root cause.
    fn failover(
        &mut self,
        failed: usize,
        sub: &[&SummaryInput],
        method: BatchMethod,
        first_err: EngineError,
    ) -> Vec<Summary> {
        let n = self.replicas.len();
        let mut last = first_err;
        let candidates: Vec<usize> = if n == 1 {
            vec![failed]
        } else {
            (1..n).map(|off| (failed + off) % n).collect()
        };
        for cand in candidates {
            match self.serve_on(cand, sub, method) {
                Ok(v) => {
                    self.record_success(cand);
                    return v;
                }
                Err(e) => {
                    self.record_failure(cand);
                    last = e;
                }
            }
        }
        panic!("{}", last.message())
    }

    /// Compute one summary on the shard `input` routes to, reusing that
    /// replica's warm state. Bit-identical to
    /// [`SummaryEngine::summarize`] (and hence to the sequential free
    /// functions) on any replica — so breaker-driven re-routing and
    /// failover cannot change the answer, only who computes it.
    pub fn summarize(&mut self, input: &SummaryInput, method: BatchMethod) -> Summary {
        self.tick();
        let primary = self.healthy_or(self.shard_of_input(input));
        match self.serve_with_faults(primary, std::slice::from_ref(&input), method) {
            Ok(mut v) => {
                self.record_success(primary);
                v.pop().expect("one input yields one summary")
            }
            Err(e) => {
                self.record_failure(primary);
                let mut v = self.failover(primary, std::slice::from_ref(&input), method, e);
                v.pop().expect("one input yields one summary")
            }
        }
    }

    /// Summarize a mixed batch across the shard replicas: scatter by
    /// router, dispatch the per-shard sub-batches onto the replicas'
    /// worker pools concurrently, gather in input order.
    ///
    /// Output is bit-identical to a single [`SummaryEngine`] serving
    /// the same batch (each replica's engine is bit-identical to the
    /// sequential entry points per input, and gathering restores input
    /// order) — `tests/prop_shard.rs` pins this across shard counts,
    /// methods, and interleaved mutations.
    pub fn summarize_batch(
        &mut self,
        inputs: &[SummaryInput],
        method: BatchMethod,
    ) -> Vec<Summary> {
        self.summarize_batch_impl(inputs, method)
    }

    /// [`ShardedEngine::summarize_batch`] over borrowed inputs — the
    /// admission queue's dispatch path, which coalesces queued requests
    /// into a batch without cloning any `SummaryInput`. Same body as
    /// the owned entry point (one generic implementation), so the two
    /// cannot drift.
    pub(crate) fn summarize_batch_refs(
        &mut self,
        inputs: &[&SummaryInput],
        method: BatchMethod,
    ) -> Vec<Summary> {
        self.summarize_batch_impl(inputs, method)
    }

    fn summarize_batch_impl<T>(&mut self, inputs: &[T], method: BatchMethod) -> Vec<Summary>
    where
        T: std::borrow::Borrow<SummaryInput> + Sync,
    {
        if inputs.is_empty() {
            return Vec::new();
        }
        let n = self.replicas.len();
        self.tick();
        if n == 1 {
            let refs: Vec<&SummaryInput> = inputs.iter().map(|i| i.borrow()).collect();
            return match self.serve_with_faults(0, &refs, method) {
                Ok(v) => {
                    self.record_success(0);
                    v
                }
                Err(e) => {
                    self.record_failure(0);
                    self.failover(0, &refs, method, e)
                }
            };
        }
        // Scatter: per-shard lists of original input positions plus
        // *borrowed* sub-batches — routing a batch allocates only these
        // index/pointer vectors, never a `SummaryInput`. Inputs homed
        // on an open-breaker replica are re-routed to the next healthy
        // one up front (with every breaker closed — the steady state —
        // this is exactly the router's plan).
        let mut plan: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, input) in inputs.iter().enumerate() {
            let home = self.shard_of_input(input.borrow());
            plan[self.healthy_or(home)].push(i);
        }
        let subs: Vec<Vec<&SummaryInput>> = plan
            .iter()
            .map(|indices| indices.iter().map(|&i| inputs[i].borrow()).collect())
            .collect();
        // Dispatch: replica i serves exactly sub-batch i, concurrently.
        // Idle replicas (empty sub-batch) are skipped — they would wake
        // a front-end thread only to return nothing. Each dispatch
        // draws at `ShardServe` and runs under `catch_unwind`, so one
        // replica's failure costs only its own sub-batch.
        let mut busy: Vec<&mut ShardReplica> = Vec::new();
        let mut busy_subs: Vec<&[&SummaryInput]> = Vec::new();
        let mut busy_idx: Vec<usize> = Vec::new();
        for (shard, (r, sub)) in self.replicas.iter_mut().zip(&subs).enumerate() {
            if !sub.is_empty() {
                busy.push(r);
                busy_subs.push(sub);
                busy_idx.push(shard);
            }
        }
        let faults = self.faults.clone();
        let per_shard: Vec<Result<Vec<Summary>, EngineError>> =
            self.scatter.zip_map(&mut busy, &busy_subs, |r, sub| {
                if let Some(inj) = &faults {
                    if let Some(kind) = inj.fire(FaultSite::ShardServe) {
                        match kind {
                            FaultKind::Panic | FaultKind::Transient => {
                                return Err(EngineError::from_message(
                                    "injected shard-serve fault",
                                ));
                            }
                            FaultKind::Delay => inj.sleep_if_delay(kind),
                        }
                    }
                }
                catch_unwind(AssertUnwindSafe(|| {
                    r.engine.summarize_batch_refs(&r.graph, sub, method)
                }))
                .map_err(EngineError::from_panic)
            });

        // Gather: busy shards come back in shard order; record health,
        // fail failed sub-batches over, and reassemble in input order.
        let mut pairs: Vec<(usize, Summary)> = Vec::with_capacity(inputs.len());
        for (k, res) in per_shard.into_iter().enumerate() {
            let shard = busy_idx[k];
            let results = match res {
                Ok(v) => {
                    self.record_success(shard);
                    v
                }
                Err(e) => {
                    self.record_failure(shard);
                    self.failover(shard, &subs[shard], method, e)
                }
            };
            pairs.extend(plan[shard].iter().copied().zip(results));
        }
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, s)| s).collect()
    }

    /// [`ShardedEngine::summarize_batch`] with worker panics surfaced
    /// as a recoverable [`EngineError`]; every replica stays
    /// serviceable afterwards (see
    /// [`SummaryEngine::try_summarize_batch`] — the scatter joins all
    /// replica dispatches before the panic is rethrown here, so no
    /// replica is abandoned mid-batch).
    pub fn try_summarize_batch(
        &mut self,
        inputs: &[SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.summarize_batch(inputs, method)))
            .map_err(EngineError::from_panic)
    }

    /// Apply one mutation to **every** replica's graph.
    ///
    /// `f` must be deterministic — it runs once per replica and the
    /// replicas must stay content-identical (full-replica sharding's
    /// one invariant). Each application bumps that replica's mutation
    /// epoch, so every shard's cost-model cache misses and every
    /// shard's session store invalidates on its next request; the
    /// epochs themselves need not be numerically equal across replicas
    /// (they are process-globally unique and never compared across
    /// graphs).
    pub fn mutate(&mut self, mut f: impl FnMut(&mut Graph)) {
        for r in &mut self.replicas {
            f(&mut r.graph);
        }
        self.last_good = self.replicas[0].graph.clone();
    }

    /// [`ShardedEngine::mutate`] with a panicking mutation surfaced as
    /// a recoverable [`EngineError`] instead of unwinding.
    ///
    /// The closure is applied replica-by-replica under `catch_unwind`;
    /// on failure the replicas are left **diverged** (earlier replicas
    /// mutated, the failing one possibly half-mutated) and the
    /// coherent-snapshot restore point is *not* advanced — call
    /// [`ShardedEngine::resync_replicas`] to restore coherence before
    /// serving again. This is the admission queue's mutation-barrier
    /// seam ([`AdmissionBackend::mutate_graph`](crate::admission::AdmissionBackend::mutate_graph)).
    pub fn try_mutate(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
        for r in &mut self.replicas {
            catch_unwind(AssertUnwindSafe(|| f(&mut r.graph))).map_err(EngineError::from_panic)?;
        }
        self.last_good = self.replicas[0].graph.clone();
        Ok(())
    }

    /// Restore every replica from the last mutation-coherent snapshot
    /// (the graph as of the most recent successful mutation, or
    /// construction). A failed [`ShardedEngine::try_mutate`] is thereby
    /// a rollback no-op: the restored content — and its mutation epoch
    /// — predate the failed closure, so each replica's epoch-keyed
    /// cost-model cache and session store remain valid for exactly the
    /// state being served. Breaker states are left untouched; they
    /// track serve health, not mutation coherence.
    pub fn resync_replicas(&mut self) {
        self.last_good.freeze();
        for r in &mut self.replicas {
            r.graph = self.last_good.clone();
        }
    }

    /// Reweight one edge on every replica — the common serving-time
    /// mutation (rating updates feed Eq. 1 through the weights).
    pub fn set_weight(&mut self, e: EdgeId, weight: f64) {
        self.apply_weight_delta(&[(e, weight)]);
    }

    /// Apply one batched weight-only delta to every replica — the
    /// coalesced sibling of [`ShardedEngine::set_weight`], and the
    /// backend of the admission queue's non-barrier
    /// [`submit_weight_update`](crate::admission::AdmissionQueue::submit_weight_update)
    /// path. Each graph records the whole batch as **one**
    /// [`Graph::apply_delta`] ledger entry (one epoch bump), so every
    /// downstream cache and session store sees a single covered delta.
    pub fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) {
        if updates.is_empty() {
            return;
        }
        for r in &mut self.replicas {
            r.graph.apply_delta(updates);
        }
        self.last_good = self.replicas[0].graph.clone();
    }

    /// Serve one growing per-user session request on the shard that
    /// owns `key`: look up (or start) the session in that replica's
    /// store, attach any new terminals, snapshot. The shard-affine
    /// sibling of [`crate::session::session_summary`].
    pub fn session_summary(
        &mut self,
        key: SessionKey,
        input: &SummaryInput,
        cfg: &SteinerConfig,
        terminals_in_rank_order: &[NodeId],
    ) -> Summary {
        let shard = self.shard_of_session(&key);
        let ShardReplica { graph, engine } = &mut self.replicas[shard];
        session_summary(
            engine.sessions(),
            graph,
            key,
            input,
            cfg,
            terminals_in_rank_order,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcst::PcstConfig;
    use crate::render::table1_example;
    use crate::steiner::SteinerConfig;

    fn assert_same(a: &Summary, b: &Summary) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.terminals, b.terminals);
        assert_eq!(a.subgraph.sorted_edges(), b.subgraph.sorted_edges());
        assert_eq!(a.subgraph.sorted_nodes(), b.subgraph.sorted_nodes());
    }

    /// A small batch with genuinely distinct routing identities: one
    /// user-centric input per user, each anchored (first path source)
    /// at *that* user, plus a group and an item-centric input — so
    /// multi-shard runs scatter across several busy replicas instead of
    /// degenerating to one.
    fn mixed_inputs() -> (Graph, Vec<SummaryInput>) {
        use xsum_graph::{EdgeKind, LoosePath, NodeKind};
        let mut g = Graph::new();
        let users: Vec<NodeId> = (0..5).map(|_| g.add_node(NodeKind::User)).collect();
        let items: Vec<NodeId> = (0..5).map(|_| g.add_node(NodeKind::Item)).collect();
        let ents: Vec<NodeId> = (0..2).map(|_| g.add_node(NodeKind::Entity)).collect();
        for &item in &items {
            g.add_edge(item, ents[0], 0.0, EdgeKind::Attribute);
            g.add_edge(item, ents[1], 0.0, EdgeKind::Attribute);
        }
        let mut inputs = Vec::new();
        let mut all_paths = Vec::new();
        for (ui, &u) in users.iter().enumerate() {
            g.add_edge(u, items[ui], 1.0 + ui as f64, EdgeKind::Interaction);
            let path = LoosePath::ground(
                &g,
                vec![u, items[ui], ents[ui % 2], items[(ui + 1) % items.len()]],
            );
            all_paths.push(path.clone());
            inputs.push(SummaryInput::user_centric(u, vec![path]));
        }
        inputs.push(SummaryInput::user_group(&users, all_paths.clone()));
        inputs.push(SummaryInput::item_centric(
            all_paths[2].target(),
            vec![all_paths[2].clone()],
        ));
        (g, inputs)
    }

    /// Distinct shards the batch occupies under the engine's router.
    fn busy_shards(sharded: &ShardedEngine, inputs: &[SummaryInput]) -> usize {
        let mut seen: Vec<usize> = inputs.iter().map(|i| sharded.shard_of_input(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    #[test]
    fn sharded_batch_matches_single_engine() {
        let (g, inputs) = mixed_inputs();
        let st = SteinerConfig::default();
        for method in [
            BatchMethod::Steiner(st),
            BatchMethod::SteinerFast(st),
            BatchMethod::Pcst(PcstConfig::default()),
        ] {
            let mut single = SummaryEngine::with_threads(2);
            let want = single.summarize_batch(&g, &inputs, method);
            for shards in [1usize, 2, 4] {
                let mut sharded = ShardedEngine::with_threads(&g, shards, 2);
                assert_eq!(sharded.shards(), shards);
                if shards >= 2 {
                    assert!(
                        busy_shards(&sharded, &inputs) >= 2,
                        "fixture must scatter across \u{2265}2 busy shards"
                    );
                }
                let got = sharded.summarize_batch(&inputs, method);
                assert_eq!(got.len(), want.len());
                for (w, s) in want.iter().zip(&got) {
                    assert_same(w, s);
                }
                // Single-summary routing agrees with the batch path.
                for input in &inputs {
                    assert_same(&sharded.summarize(input, method), &method.run(&g, input));
                }
            }
        }
    }

    #[test]
    fn empty_and_skewed_batches() {
        let (g, inputs) = mixed_inputs();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut sharded = ShardedEngine::with_threads(&g, 4, 1);
        assert!(sharded.summarize_batch(&[], method).is_empty());
        // A single-input batch exercises the all-but-one-shard-idle path.
        let got = sharded.summarize_batch(&inputs[..1], method);
        assert_same(&got[0], &method.run(&g, &inputs[0]));
    }

    #[test]
    fn mutation_propagates_to_every_replica() {
        let (g, inputs) = mixed_inputs();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut sharded = ShardedEngine::with_threads(&g, 2, 1);
        let before = sharded.summarize_batch(&inputs, method);
        let misses_before: Vec<u64> = sharded.cost_cache_stats().iter().map(|&(_, m)| m).collect();

        // Reweight through the front-end; a reference graph mutated the
        // same way is the oracle.
        let mut reference = g.clone();
        let e = EdgeId(0);
        sharded.set_weight(e, 0.125);
        reference.set_weight(e, 0.125);
        for shard in 0..sharded.shards() {
            assert_eq!(sharded.graph(shard).weight(e), 0.125);
        }

        let after = sharded.summarize_batch(&inputs, method);
        assert_eq!(before.len(), after.len());
        for (input, s) in inputs.iter().zip(&after) {
            assert_same(s, &method.run(&reference, input));
        }
        // Every replica that served traffic refreshed its cost model —
        // by a rebuild or (for this anchor-safe weight delta) an
        // O(|touched|) patch. Either way, never stale.
        let patches = sharded.cost_cache_patches();
        for (shard, &(_, misses)) in sharded.cost_cache_stats().iter().enumerate() {
            if misses_before[shard] > 0 {
                assert!(
                    misses > misses_before[shard] || patches[shard] > 0,
                    "shard {shard} served stale cost state after mutate"
                );
            }
        }
    }

    #[test]
    fn mutation_invalidates_sessions_on_every_replica() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut sharded = ShardedEngine::with_threads(&ex.graph, 2, 1);
        // Find users covering both shards (the Fx hash spreads small
        // ids, but don't assume which way).
        let mut keys: Vec<SessionKey> = Vec::new();
        for u in 0..64u64 {
            let key = SessionKey::new(u, "pgpr");
            let shard = sharded.shard_of_session(&key);
            if !keys.iter().any(|k| sharded.shard_of_session(k) == shard) {
                keys.push(key);
            }
            if keys.len() == 2 {
                break;
            }
        }
        assert_eq!(keys.len(), 2, "hash router must cover both shards");

        for key in &keys {
            let s = sharded.session_summary(key.clone(), &input, &cfg, &input.terminals);
            assert_eq!(s.terminal_coverage(), 1.0);
        }
        for shard in 0..2 {
            assert_eq!(sharded.sessions(shard).len(), 1, "one session per shard");
        }

        sharded.set_weight(EdgeId(0), 42.0);
        for key in &keys {
            sharded.session_summary(key.clone(), &input, &cfg, &[]);
        }
        for shard in 0..2 {
            assert_eq!(
                sharded.sessions(shard).invalidations(),
                1,
                "shard {shard} must drop pre-mutation sessions"
            );
        }
    }

    #[test]
    fn sessions_are_shard_affine() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut sharded = ShardedEngine::with_threads(&ex.graph, 4, 1);
        let key = SessionKey::new(7, "pgpr");
        let home = sharded.shard_of_session(&key);
        for round in 1..=3usize {
            sharded.session_summary(
                key.clone(),
                &input,
                &cfg,
                &input.terminals[..round.min(input.terminals.len())],
            );
        }
        // All three requests landed on the same replica and resumed.
        assert_eq!(sharded.sessions(home).misses(), 1);
        assert_eq!(sharded.sessions(home).hits(), 2);
        for shard in (0..4).filter(|&s| s != home) {
            assert_eq!(sharded.sessions(shard).len(), 0, "foreign shard touched");
        }
    }

    #[test]
    fn router_is_deterministic_and_in_range() {
        let (g, inputs) = mixed_inputs();
        for shards in 1..=8 {
            for input in &inputs {
                let a = HashRouter::route_input(input, shards);
                assert_eq!(a, HashRouter::route_input(input, shards));
                assert!(a < shards);
            }
            let key = SessionKey::new(123, "cafe");
            assert!(HashRouter::route_session(&key, shards) < shards);
            assert_eq!(
                HashRouter::route_session(&key, shards),
                HashRouter::route_session(&key, shards)
            );
        }
        // Pinned routes: the Fx-hash placement of the mixed fixture's
        // inputs and of a spread of session identities. A change here
        // moves users between replicas and strands their warm state.
        let ids = [0u64, 1, 2, 3, 7, 123, 1 << 40, u64::MAX];
        let pinned: [(usize, [usize; 7], [usize; 8]); 2] = [
            (2, [0, 1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 1, 1, 0, 1]),
            (4, [0, 1, 2, 3, 0, 0, 2], [0, 1, 2, 3, 3, 3, 0, 3]),
        ];
        for (shards, want_inputs, want_sessions) in pinned {
            let sharded = ShardedEngine::with_threads(&g, shards, 1);
            let got: Vec<usize> = inputs.iter().map(|i| sharded.shard_of_input(i)).collect();
            assert_eq!(got, want_inputs, "input routes moved at {shards} shards");
            let got: Vec<usize> = ids
                .iter()
                .map(|&u| sharded.shard_of_session(&SessionKey::new(u, "cafe")))
                .collect();
            assert_eq!(
                got, want_sessions,
                "session routes moved at {shards} shards"
            );
        }
    }

    #[test]
    fn router_affinity_is_coherent_between_inputs_and_sessions() {
        // Satellite regression: `shard_of_input` and `shard_of_session`
        // must agree for the same (user, baseline) identity — otherwise
        // a user's incremental session state and their batch requests
        // land on different replicas and the session store can never
        // warm up. Verified across shard counts {1, 2, 4} and every
        // input shape of the mixed fixture.
        let (g, inputs) = mixed_inputs();
        for shards in [1usize, 2, 4] {
            let sharded = ShardedEngine::with_threads(&g, shards, 1);
            for input in &inputs {
                let anchor = HashRouter::routing_anchor(input);
                for baseline in ["pgpr", "cafe", "plm"] {
                    let key = SessionKey::for_node(anchor, baseline);
                    assert_eq!(
                        sharded.shard_of_input(input),
                        sharded.shard_of_session(&key),
                        "input and session for anchor {anchor:?} split \
                         across replicas at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn try_batch_recovers_across_shards() {
        let (g, inputs) = mixed_inputs();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut sharded = ShardedEngine::with_threads(&g, 2, 1);
        let want = sharded.summarize_batch(&inputs, method);
        let mut bad = inputs[0].clone();
        bad.terminals = vec![
            xsum_graph::NodeId(u32::MAX - 2),
            xsum_graph::NodeId(u32::MAX - 1),
        ];
        let mut batch = inputs.clone();
        batch.push(bad);
        let err = sharded
            .try_summarize_batch(&batch, method)
            .expect_err("poisoned input must surface as an error");
        assert!(
            !err.message().contains("scoped thread"),
            "the worker's original panic payload must survive the \
             scatter join, got: {}",
            err.message()
        );
        // Every replica keeps serving bit-identically afterwards.
        let after = sharded.summarize_batch(&inputs, method);
        for (w, s) in want.iter().zip(&after) {
            assert_same(w, s);
        }
    }

    #[test]
    fn breaker_trips_reroutes_and_recloses() {
        use crate::faults::{FaultInjector, FaultPlan, FaultSite};
        use std::sync::Arc;

        let (g, inputs) = mixed_inputs();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut sharded = ShardedEngine::with_threads(&g, 2, 1);
        let want = sharded.summarize_batch(&inputs, method);
        sharded.set_circuit_config(CircuitConfig {
            failure_threshold: 1,
            cooldown: 2,
            max_cooldown: 8,
        });
        // A shard-serve-only injector that fires on every draw until
        // its budget (1 fault) is spent: the first batch loses exactly
        // one primary dispatch and must fail it over.
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            rate: 1.0,
            budget: 1,
            panics: false,
            delays: false,
            ..FaultPlan::seeded(11)
        }));
        sharded.set_fault_injector(Some(inj.clone()));
        let got = sharded.summarize_batch(&inputs, method);
        for (w, s) in want.iter().zip(&got) {
            assert_same(w, s);
        }
        assert_eq!(inj.injected_at(FaultSite::ShardServe), 1);
        let tripped = (0..2)
            .filter(|&s| sharded.breaker_state(s) == BreakerState::Open)
            .count();
        assert_eq!(tripped, 1, "threshold 1 must open the faulted replica");

        // Budget exhausted: serving continues bit-identically while the
        // open replica cools down, goes half-open, and recloses on its
        // probe success.
        let mut saw_half_open = false;
        for _ in 0..4 {
            let again = sharded.summarize_batch(&inputs, method);
            for (w, s) in want.iter().zip(&again) {
                assert_same(w, s);
            }
            saw_half_open |= (0..2).any(|s| sharded.breaker_state(s) == BreakerState::HalfOpen);
        }
        assert!(
            (0..2).all(|s| sharded.breaker_state(s) == BreakerState::Closed),
            "probe success must reclose the breaker (half-open seen: {saw_half_open})"
        );
    }

    #[test]
    fn failed_mutation_is_a_rollback_noop_after_resync() {
        let (g, inputs) = mixed_inputs();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let mut sharded = ShardedEngine::with_threads(&g, 2, 1);

        // One good mutation advances the restore point.
        sharded.set_weight(EdgeId(0), 0.25);
        let mut reference = g.clone();
        reference.set_weight(EdgeId(0), 0.25);
        let want: Vec<Summary> = inputs.iter().map(|i| method.run(&reference, i)).collect();

        // A mutation that diverges the replicas: succeeds on the first,
        // panics on the second.
        let mut applications = 0;
        let err = sharded
            .try_mutate(&mut |g: &mut Graph| {
                applications += 1;
                if applications == 2 {
                    panic!("mutation torn mid-replica");
                }
                g.set_weight(EdgeId(1), 9.0);
            })
            .expect_err("a panicking mutation must surface as an error");
        assert!(err.message().contains("torn"), "payload: {}", err.message());
        assert_ne!(
            sharded.graph(0).weight(EdgeId(1)),
            sharded.graph(1).weight(EdgeId(1)),
            "fixture must actually diverge the replicas"
        );

        sharded.resync_replicas();
        for shard in 0..sharded.shards() {
            assert_eq!(sharded.graph(shard).weight(EdgeId(0)), 0.25);
            assert_eq!(
                sharded.graph(shard).weight(EdgeId(1)),
                reference.weight(EdgeId(1)),
                "failed mutation must roll back entirely"
            );
        }
        let after = sharded.summarize_batch(&inputs, method);
        for (w, s) in want.iter().zip(&after) {
            assert_same(w, s);
        }
    }
}
