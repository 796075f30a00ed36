//! Async admission: a bounded submission queue with batch coalescing
//! in front of the serving engines.
//!
//! [`SummaryEngine`] and [`ShardedEngine`] are synchronous: a service
//! thread that wants to overlap request ingestion with an in-flight
//! batch would need its own second thread pool, defeating the pinned
//! [`WorkerPool`](xsum_graph::WorkerPool) design. [`AdmissionQueue`]
//! closes that gap with plain std primitives — no external async
//! runtime. The queue's locking/signalling protocol, and how it is
//! model-checked, is documented in `CONCURRENCY.md` at the repo root:
//!
//! ```text
//!  producer threads ──submit()──► bounded queue ──► dispatcher thread
//!       ▲   ▲                     (coalescing,          │  owns the
//!   tickets resolve ◄─────────────  FIFO order,         ▼  backend
//!   (condvar slots)                 barriers)     SummaryEngine /
//!                                                 ShardedEngine
//! ```
//!
//! # The coalescing / ordering / backpressure contract
//!
//! * **Coalescing.** Queued single-summary requests with the same
//!   [`BatchMethod`] (compared bit-level on the f64 config params, the
//!   same fingerprint discipline as
//!   [`CostModelKey`](crate::steiner::CostModelKey)) are merged into
//!   one engine batch of at most [`AdmissionConfig::max_batch`]
//!   requests, dispatched onto the backend's pinned pool in a single
//!   wake-up. Because every engine path is bit-identical per input to
//!   the free functions, *any* grouping the coalescer picks produces
//!   outputs bit-identical to one direct
//!   [`SummaryEngine::summarize_batch`] call over the same inputs —
//!   pinned by `tests/prop_admission.rs`.
//! * **First in, first out.** Each batch is led by the oldest queued
//!   request and takes the method-compatible requests behind it in
//!   admission order; a request of another method waits for a later
//!   batch but never loses its place among its own method.
//! * **Lingering — ticket-count driven, not wall-clock.** The
//!   dispatcher holds off dispatching until
//!   [`AdmissionConfig::linger_tickets`] requests are queued, letting
//!   singles pile into bigger batches. There is deliberately **no
//!   timer**: the linger window closes on ticket count, on an explicit
//!   [`AdmissionQueue::flush`]/[`AdmissionQueue::drain`], on shutdown,
//!   on a mutation barrier, or as soon as any consumer blocks on a
//!   ticket ([`SummaryTicket::wait`] flushes everything up to and
//!   including its own request, so lingering can never deadlock a
//!   waiter). Determinism is the point: tests drive the exact same
//!   dispatch boundaries on every run.
//! * **Backpressure.** At most [`AdmissionConfig::queue_bound`]
//!   requests may be queued. [`AdmissionQueue::try_submit`] is a pure
//!   probe — on a full queue it returns
//!   [`AdmissionError::QueueFull`] without side effects — while the
//!   blocking [`AdmissionQueue::submit`] flushes the queue and waits
//!   for room, so bound < linger cannot deadlock a producer.
//! * **Mutation barriers.** [`AdmissionQueue::mutate`] enqueues a
//!   graph mutation as a **barrier**: every request admitted before it
//!   is served against the pre-mutation graph, every request after it
//!   against the post-mutation graph (a pending barrier also closes
//!   the linger window for the segment in front of it). On the sharded
//!   backend the closure is applied coherently to every replica via
//!   [`ShardedEngine::mutate`].
//! * **Non-barrier weight updates.**
//!   [`AdmissionQueue::submit_weight_update`] enqueues a weight-only
//!   delta that is **not** a barrier: it never closes the linger
//!   window, and every update queued in the head segment is coalesced
//!   — in admission order, later writes to the same edge winning —
//!   into one [`AdmissionBackend::apply_weight_delta`] call (one
//!   ledger record, one epoch bump per backend graph) dispatched ahead
//!   of that segment's summaries. Summaries therefore observe either
//!   the pre- or post-delta weights, whichever the dispatcher reaches
//!   first — the freshness trade a live rating stream wants. Updates
//!   never cross a mutation/recovery barrier in either direction
//!   (structural mutations may renumber edges), and a failed update
//!   poisons the queue exactly like a failed barrier. The delta-epoch
//!   protocol downstream of this seam is documented in
//!   `CONCURRENCY.md`.
//! * **Panic isolation.** A worker panic inside a coalesced batch is
//!   caught by the backend (`try_*` paths) and the dispatcher retries
//!   each member of the failed batch individually, so the
//!   [`EngineError`] lands on **exactly the affected tickets**; the
//!   unaffected co-batched requests and everything queued behind them
//!   still complete (the PR 3 dirty-buffer recovery keeps the engine
//!   serviceable).
//! * **Shutdown drains.** [`AdmissionQueue::shutdown`] (and drop)
//!   stops admitting, then the dispatcher drains everything already
//!   queued — accepted tickets always resolve. Submitting afterwards
//!   returns [`AdmissionError::ShutDown`].
//!
//! # Failure semantics
//!
//! The queue's one inviolable promise is that **every issued ticket
//! resolves** — with a summary, or with an error that says why not.
//! What varies is which error, and what the queue does next:
//!
//! * **What refuses.** Admission turns work away with
//!   [`AdmissionError::QueueFull`], `ShutDown` or `Poisoned`. An
//!   admitted request is never dropped or downgraded: it is served
//!   with exactly the method it asked for, or fails with a backend
//!   error or a poisoned queue (below).
//! * **What retries.** A failed coalesced batch (worker panic or an
//!   injected [`FaultSite::AdmissionDispatch`] fault) is retried
//!   request-by-request so the error lands on exactly the affected
//!   tickets; with a fault injector installed, each failed isolation
//!   retry gets one more attempt (bounded — termination comes from the
//!   injector's finite budget, never from looping until success).
//! * **What poisons, and the recovery story.** A failed mutation
//!   barrier may leave backend replicas diverged, so it **poisons**
//!   the queue: everything queued resolves
//!   [`AdmissionError::Poisoned`], and new submissions are refused
//!   with the same error — but the dispatcher stays alive.
//!   [`AdmissionQueue::recover`] enqueues a recovery barrier that
//!   restores the backend from its last mutation-coherent snapshot
//!   ([`AdmissionBackend::recover_coherence`]; on the sharded backend,
//!   [`ShardedEngine::resync_replicas`]), after which the queue admits
//!   and serves again — a failed mutation is a *rollback no-op*, and
//!   post-recovery results are bit-identical to a fresh stack that
//!   never saw the failed barrier (`tests/prop_faults.rs`).
//!
//! # Streaming serving
//!
//! One consumer thread can drain many producers' tickets through a
//! [`TicketSet`] — the readiness-queue-shaped completion surface built
//! for the wire front-end ([`crate::wire`]):
//!
//! * **Ticket sets.** [`TicketSet::add`] registers an admitted
//!   [`SummaryTicket`] under a caller-chosen `u64` tag (the wire layer
//!   uses the request id). The moment the dispatcher resolves a
//!   watched ticket, its membership lands on the set's shared
//!   condvar'd ready list — [`TicketSet::wait_any`] /
//!   [`TicketSet::wait_any_timeout`] pop resolutions in **completion
//!   order**, and [`TicketSet::poll`] is the non-blocking probe. Every
//!   added ticket is yielded exactly once, as a [`CompletedTicket`]
//!   carrying the tag plus the same outcome pair
//!   [`SummaryTicket::wait_meta`] would have returned — bit-identical
//!   results, same [`DispatchMeta`].
//! * **No-deadlock discipline.** Before blocking, `wait_any` closes
//!   the linger window up to the highest-seq member of each queue it
//!   watches (the same flush-up-to-own-seq rule as a single
//!   [`SummaryTicket::wait`]), so a lingering coalescer can never
//!   deadlock the multiplexed consumer either. A *dropped* set behaves
//!   like shutdown-drain: the member tickets drop, but the dispatcher
//!   still resolves every slot — nothing hangs, nothing leaks.
//! * **Wire framing.** [`crate::wire`] carries versioned request/
//!   response records over any `Read`/`Write` pair in a compact
//!   length-prefixed binary framing (all `f64` params round-trip
//!   bit-exact via `to_bits`, the same fingerprint discipline as the
//!   coalescer's [`CostModelKey`](crate::steiner::CostModelKey)).
//!   Frame layout (all integers little-endian):
//!
//!   | bytes | field | meaning |
//!   |---|---|---|
//!   | 4 | `len: u32` | payload length (version byte onward) |
//!   | 1 | `version: u8` | wire version ([`crate::wire::WIRE_VERSION`]) |
//!   | 1 | `kind: u8` | record kind (summary/mutation request/response) |
//!   | `len − 2` | body | the record's fields, field-by-field |
//!
//!   [`crate::wire::serve_stream`] decodes frames, submits through the
//!   queue, and writes responses back in completion order with
//!   request-id correlation (the id is the ticket-set tag).
//!
//! [`FaultSite::AdmissionDispatch`]: crate::faults::FaultSite::AdmissionDispatch

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use xsum_graph::sync::thread::JoinHandle;
use xsum_graph::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use xsum_graph::{EdgeId, Graph};

use crate::batch::BatchMethod;
use crate::engine::{EngineError, SummaryEngine};
use crate::faults::{FaultInjector, FaultKind, FaultSite};
use crate::input::SummaryInput;
use crate::shard::ShardedEngine;
use crate::summary::Summary;

/// Lock `m`, recovering from poisoning (same discipline as the worker
/// pool: state updates below never unwind mid-update, so poison only
/// means "some other thread panicked", which must not cascade).
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of an [`AdmissionQueue`] (see the module docs for the
/// full contract).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum number of queued (admitted but not yet dispatched)
    /// requests; beyond it [`AdmissionQueue::try_submit`] rejects and
    /// [`AdmissionQueue::submit`] blocks. Clamped to ≥ 1.
    pub queue_bound: usize,
    /// Maximum requests coalesced into one engine batch. Clamped to ≥ 1.
    pub max_batch: usize,
    /// Ticket-count linger window: the dispatcher waits for this many
    /// queued requests before coalescing a batch (`1` = dispatch as
    /// soon as anything is queued). Closed early by flush / drain /
    /// ticket waits / mutation barriers / shutdown, never by a timer.
    pub linger_tickets: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_bound: 1024,
            max_batch: 64,
            linger_tickets: 1,
        }
    }
}

/// Admission-level failures (distinct from [`EngineError`], which is a
/// *serving* failure — carried here as [`AdmissionError::Engine`]).
#[derive(Debug)]
pub enum AdmissionError {
    /// [`AdmissionQueue::try_submit`] found the queue at its bound.
    QueueFull,
    /// The queue no longer admits requests (shut down).
    ShutDown,
    /// A mutation barrier failed and the queue is poisoned until
    /// [`AdmissionQueue::recover`] restores backend coherence.
    Poisoned,
    /// The serving backend failed this request (worker panic or
    /// injected fault), or a mutation barrier's closure panicked.
    Engine(EngineError),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull => write!(f, "admission queue full"),
            AdmissionError::ShutDown => write!(f, "admission queue shut down"),
            AdmissionError::Poisoned => {
                write!(f, "admission queue poisoned by a failed mutation")
            }
            AdmissionError::Engine(e) => write!(f, "admission backend error: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// An empty overload policy: the queue has no overload modes (no
/// shedding, degradation or expiry). Kept only because the benchmark
/// harness's `TrafficConfig` literal in `perfbench` names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadPolicy {}

/// Where and how a ticket's request was dispatched — exposed so tests
/// and dashboards can observe coalescing and ordering decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchMeta {
    /// Monotone id of the coalesced batch that served the request
    /// (earlier batches have smaller ids; mutation barriers do not
    /// consume ids). `0` for tickets that never dispatched (poisoned).
    pub batch: u64,
    /// How many requests the batch coalesced (`0` if never dispatched).
    pub coalesced: usize,
}

impl DispatchMeta {
    /// The meta of a ticket that never reached the backend.
    fn unserved() -> Self {
        DispatchMeta {
            batch: 0,
            coalesced: 0,
        }
    }
}

/// Counters of one [`AdmissionQueue`] (a consistent snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted (tickets issued).
    pub submitted: u64,
    /// `try_submit` rejections on a full queue.
    pub rejected: u64,
    /// Tickets resolved with a summary.
    pub completed: u64,
    /// Tickets resolved with an [`EngineError`].
    pub failed: u64,
    /// Coalesced batches dispatched onto the backend.
    pub batches_dispatched: u64,
    /// Largest batch coalesced so far.
    pub max_coalesced: usize,
    /// Mutation barriers applied.
    pub mutations_applied: u64,
    /// Requests admitted while a batch was in flight — the ingestion/
    /// dispatch overlap the queue exists to create (each of these rode
    /// for free behind an already-running batch).
    pub overlap_submissions: u64,
    /// Requests currently queued (admitted, not yet dispatched).
    pub queued: usize,
    /// Requests currently being served by the backend.
    pub in_flight: usize,
    /// Successful [`AdmissionQueue::recover`] barriers applied.
    pub recoveries: u64,
    /// Individual edge-weight updates applied through
    /// [`AdmissionQueue::submit_weight_update`] (counts edges, not
    /// coalesced dispatches).
    pub weight_updates_applied: u64,
    /// Coalesced non-barrier weight-delta dispatches onto the backend.
    pub weight_update_batches: u64,
}

/// The serving tier behind an [`AdmissionQueue`]: anything that can run
/// a coalesced batch, a single summary (the panic-isolation fallback),
/// and a coherent graph mutation. Implemented for
/// `(Graph, SummaryEngine)` via [`AdmissionQueue::for_engine`] and for
/// [`ShardedEngine`] via [`AdmissionQueue::for_sharded`].
pub trait AdmissionBackend: Send + 'static {
    /// Serve one coalesced batch; worker panics surface as `Err`.
    fn run_batch(
        &mut self,
        inputs: &[&SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError>;

    /// Serve one request in isolation (the per-ticket fallback after a
    /// batch-level failure).
    fn run_one(
        &mut self,
        input: &SummaryInput,
        method: BatchMethod,
    ) -> Result<Summary, EngineError>;

    /// Apply one graph mutation coherently (every replica, epoch
    /// bump). A panicking closure must surface as `Err`, not unwind;
    /// after an `Err` the backend may be incoherent (replicas
    /// diverged, a graph half-mutated) until
    /// [`AdmissionBackend::recover_coherence`] runs.
    fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError>;

    /// Apply one coalesced weight-only delta coherently (every replica,
    /// one ledger batch per backend graph). Unlike
    /// [`AdmissionBackend::mutate_graph`] this is not a barrier at the
    /// queue level, but the same failure contract holds: a panic must
    /// surface as `Err`, after which the backend may be incoherent
    /// until [`AdmissionBackend::recover_coherence`] runs.
    fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) -> Result<(), EngineError>;

    /// Restore the backend to its last mutation-coherent state (the
    /// graph as of the most recent successful mutation) after a failed
    /// [`AdmissionBackend::mutate_graph`] — the failed barrier becomes
    /// a rollback no-op.
    fn recover_coherence(&mut self) -> Result<(), EngineError>;

    /// Cumulative count of requests this backend served outside their
    /// home shard. Every backend in this crate serves each request on a
    /// full graph replica, so none overrides the constant `0` and the
    /// dispatcher never reads it. The declaration stays because the
    /// benchmark's timing wrapper (`perfbench/src/trace.rs`) forwards
    /// it.
    fn cross_shard_serves(&self) -> u64 {
        0
    }
}

/// A [`SummaryEngine`] serving an owned graph — the single-engine
/// admission backend.
#[derive(Debug)]
pub struct EngineBackend {
    graph: Graph,
    engine: SummaryEngine,
    /// The last mutation-coherent graph — refreshed after every
    /// successful mutation, restored by `recover_coherence`.
    last_good: Graph,
}

impl EngineBackend {
    /// Backend over `graph` served by `engine`.
    pub fn new(graph: Graph, engine: SummaryEngine) -> Self {
        graph.freeze();
        EngineBackend {
            last_good: graph.clone(),
            graph,
            engine,
        }
    }
}

impl AdmissionBackend for EngineBackend {
    fn run_batch(
        &mut self,
        inputs: &[&SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.engine
                .summarize_batch_refs(&self.graph, inputs, method)
        }))
        .map_err(EngineError::from_panic)
    }

    fn run_one(
        &mut self,
        input: &SummaryInput,
        method: BatchMethod,
    ) -> Result<Summary, EngineError> {
        self.engine.try_summarize(&self.graph, input, method)
    }

    fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
        catch_unwind(AssertUnwindSafe(|| f(&mut self.graph))).map_err(EngineError::from_panic)?;
        self.last_good = self.graph.clone();
        Ok(())
    }

    fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) -> Result<(), EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.graph.apply_delta(updates)))
            .map_err(EngineError::from_panic)?;
        self.last_good = self.graph.clone();
        Ok(())
    }

    fn recover_coherence(&mut self) -> Result<(), EngineError> {
        self.graph = self.last_good.clone();
        self.graph.freeze();
        Ok(())
    }
}

impl AdmissionBackend for ShardedEngine {
    fn run_batch(
        &mut self,
        inputs: &[&SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.summarize_batch_refs(inputs, method)
        }))
        .map_err(EngineError::from_panic)
    }

    fn run_one(
        &mut self,
        input: &SummaryInput,
        method: BatchMethod,
    ) -> Result<Summary, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.summarize(input, method)))
            .map_err(EngineError::from_panic)
    }

    fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
        self.try_mutate(f)
    }

    fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) -> Result<(), EngineError> {
        catch_unwind(AssertUnwindSafe(|| {
            ShardedEngine::apply_weight_delta(self, updates)
        }))
        .map_err(EngineError::from_panic)
    }

    fn recover_coherence(&mut self) -> Result<(), EngineError> {
        self.resync_replicas();
        Ok(())
    }
}

/// A one-shot condvar-backed completion slot.
#[derive(Debug)]
struct Slot<T> {
    value: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            value: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn put(&self, v: T) {
        *lock_recovering(&self.value) = Some(v);
        self.cv.notify_all();
    }

    fn wait(&self) -> T {
        let mut guard = lock_recovering(&self.value);
        loop {
            match guard.take() {
                Some(v) => return v,
                None => {
                    guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

type TicketOutcome = (Result<Summary, AdmissionError>, DispatchMeta);

/// The completion slot behind one [`SummaryTicket`]: the same one-shot
/// condvar slot as [`Slot`], plus an optional *watch* — a registration
/// in a [`TicketSet`]'s shared ready list that fires exactly once when
/// the slot resolves, whichever of resolution and registration happens
/// first.
#[derive(Debug)]
struct TicketSlot {
    value: Mutex<Option<TicketOutcome>>,
    cv: Condvar,
    /// One-shot: consumed by `put` when it resolves a watched slot, or
    /// fired immediately (never stored) by `watch` on an
    /// already-resolved one — the two cases are disjoint under the
    /// `watch` lock, so a member lands on the ready list exactly once.
    watch: Mutex<Option<SetWatch>>,
}

impl TicketSlot {
    fn new() -> Self {
        TicketSlot {
            value: Mutex::new(None),
            cv: Condvar::new(),
            watch: Mutex::new(None),
        }
    }

    fn put(&self, v: TicketOutcome) {
        *lock_recovering(&self.value) = Some(v);
        self.cv.notify_all();
        if let Some(w) = lock_recovering(&self.watch).take() {
            w.fire();
        }
    }

    fn wait(&self) -> TicketOutcome {
        let mut guard = lock_recovering(&self.value);
        loop {
            match guard.take() {
                Some(v) => return v,
                None => {
                    guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Take the value if present, without blocking.
    fn try_take(&self) -> Option<TicketOutcome> {
        lock_recovering(&self.value).take()
    }

    /// [`TicketSlot::wait`] bounded by `timeout`; `None` on timeout
    /// (the value, when it arrives later, stays takeable).
    fn wait_timeout(&self, timeout: Duration) -> Option<TicketOutcome> {
        // xlint: allow(wall-clock-in-dispatcher) — caller-side wait bound;
        // the dispatcher never reads it and linger stays ticket-count based.
        let deadline = Instant::now() + timeout;
        let mut guard = lock_recovering(&self.value);
        loop {
            if let Some(v) = guard.take() {
                return Some(v);
            }
            // xlint: allow(wall-clock-in-dispatcher) — caller-side wait bound
            // re-check between condvar wakes; dispatcher-invisible.
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }

    fn is_ready(&self) -> bool {
        lock_recovering(&self.value).is_some()
    }

    /// Register this slot in a set's ready list under `member`. If the
    /// slot already resolved, the membership is pushed immediately;
    /// otherwise [`TicketSlot::put`] pushes it on resolution. Holding
    /// the `watch` lock across the readiness check closes the race
    /// with a concurrent `put`: either `put` finds the stored watch
    /// and fires it, or this call observes the value and fires itself
    /// — never both, never neither.
    fn watch(&self, sink: Arc<ReadySink>, member: u64) {
        let mut watch = lock_recovering(&self.watch);
        let w = SetWatch { sink, member };
        if self.is_ready() {
            drop(watch);
            w.fire();
        } else {
            *watch = Some(w);
        }
    }
}

/// The shared ready list of one [`TicketSet`]: resolved members land
/// here in completion order, and `wait_any` consumers block on the
/// condvar.
#[derive(Debug)]
struct ReadySink {
    ready: Mutex<VecDeque<u64>>,
    cv: Condvar,
}

/// One slot's registration in a [`ReadySink`].
#[derive(Debug)]
struct SetWatch {
    sink: Arc<ReadySink>,
    member: u64,
}

impl SetWatch {
    fn fire(self) {
        lock_recovering(&self.sink.ready).push_back(self.member);
        self.sink.cv.notify_all();
    }
}

/// The completion ticket of one admitted request. Resolve it with
/// [`SummaryTicket::wait`] / [`SummaryTicket::wait_meta`]; waiting
/// flushes the queue up to the ticket's own request, so a lingering
/// coalescer can never deadlock the waiter.
pub struct SummaryTicket {
    slot: Arc<TicketSlot>,
    shared: Arc<QueueShared>,
    seq: u64,
}

impl std::fmt::Debug for SummaryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SummaryTicket")
            .field("seq", &self.seq)
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl SummaryTicket {
    /// Block until the request was served; returns the summary or the
    /// [`AdmissionError`] describing why it wasn't (backend failure or
    /// queue poisoning).
    pub fn wait(self) -> Result<Summary, AdmissionError> {
        self.wait_meta().0
    }

    /// [`SummaryTicket::wait`] plus the [`DispatchMeta`] describing the
    /// coalesced batch that served the request.
    pub fn wait_meta(self) -> TicketOutcome {
        self.flush_own_request();
        self.slot.wait()
    }

    /// Non-blocking resolution probe: the outcome if the ticket already
    /// resolved, else the ticket back. Unlike the waiting entry points
    /// this does **not** flush the queue — a pure poll.
    pub fn try_wait(self) -> Result<TicketOutcome, SummaryTicket> {
        match self.slot.try_take() {
            Some(v) => Ok(v),
            None => Err(self),
        }
    }

    /// [`SummaryTicket::wait_meta`] bounded by `timeout`: returns the
    /// ticket back if it did not resolve in time (wait again, poll
    /// [`SummaryTicket::try_wait`], or drop it — the request still
    /// completes either way).
    ///
    /// Keeps the flush-up-to-own-seq discipline of the unbounded wait,
    /// so a timeout can never be caused by the linger window itself:
    /// the dispatcher is already working toward this request while we
    /// block here.
    pub fn wait_timeout(self, timeout: Duration) -> Result<TicketOutcome, SummaryTicket> {
        self.flush_own_request();
        match self.slot.wait_timeout(timeout) {
            Some(v) => Ok(v),
            None => Err(self),
        }
    }

    /// Close the linger window up to and including this request so no
    /// wait on this ticket can deadlock against a lingering coalescer.
    fn flush_own_request(&self) {
        if !self.slot.is_ready() {
            let mut st = lock_recovering(&self.shared.state);
            if st.flush_up_to <= self.seq {
                st.flush_up_to = self.seq + 1;
                drop(st);
                self.shared.work_cv.notify_all();
            }
        }
    }

    /// Non-blocking readiness probe (does not flush the queue).
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }
}

/// The completion ticket of one
/// [`AdmissionQueue::submit_weight_update`]. Waiting is optional:
/// dropping the ticket makes the update fire-and-forget (it still
/// applies; only the acknowledgement is discarded).
pub struct WeightUpdateTicket {
    done: Arc<Slot<Result<(), EngineError>>>,
}

impl std::fmt::Debug for WeightUpdateTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeightUpdateTicket").finish_non_exhaustive()
    }
}

impl WeightUpdateTicket {
    /// Block until the delta was applied (possibly coalesced with
    /// other updates into one backend apply). `Err` means the apply
    /// failed and the queue is poisoned, or the queue was poisoned by
    /// an earlier failure before this update reached the backend.
    pub fn wait(self) -> Result<(), AdmissionError> {
        self.done.wait().map_err(AdmissionError::Engine)
    }
}

/// One resolved member of a [`TicketSet`]: the caller's tag plus the
/// exact outcome pair [`SummaryTicket::wait_meta`] would have returned
/// for the same ticket — results are bit-identical whichever surface
/// resolves them.
#[derive(Debug)]
pub struct CompletedTicket {
    /// The tag the ticket was [`TicketSet::add`]ed under (the wire
    /// layer's request id; tags need not be unique).
    pub tag: u64,
    /// The summary, or the [`AdmissionError`] describing why not.
    pub result: Result<Summary, AdmissionError>,
    /// Where and how the request dispatched.
    pub meta: DispatchMeta,
}

/// Completion multiplexer over [`SummaryTicket`]s: N producers add
/// tickets under caller-chosen tags, one (or more) consumers drain
/// resolutions in **completion order** via [`TicketSet::wait_any`] —
/// the readiness-queue surface of the module-level *Streaming serving*
/// section. Every added ticket is yielded exactly once.
///
/// All methods take `&self`, so a set can be shared by reference
/// across producer and consumer threads without external locking.
///
/// ```
/// use xsum_core::admission::{AdmissionConfig, AdmissionQueue, TicketSet};
/// use xsum_core::render::table1_example;
/// use xsum_core::{BatchMethod, SteinerConfig, SummaryEngine};
///
/// let ex = table1_example();
/// let queue = AdmissionQueue::for_engine(
///     ex.graph.clone(),
///     SummaryEngine::with_threads(2),
///     AdmissionConfig::default(),
/// );
/// let method = BatchMethod::Steiner(SteinerConfig::default());
/// let set = TicketSet::new();
/// for id in 0..4u64 {
///     set.add(id, queue.submit(ex.input(), method).unwrap());
/// }
/// let mut seen = Vec::new();
/// while let Some(done) = set.wait_any() {
///     assert!(done.result.is_ok());
///     seen.push(done.tag);
/// }
/// seen.sort_unstable();
/// assert_eq!(seen, vec![0, 1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct TicketSet {
    sink: Arc<ReadySink>,
    inner: Mutex<SetInner>,
}

#[derive(Debug)]
struct SetInner {
    next_member: u64,
    /// member id → (tag, ticket). The set owns its tickets; a member
    /// leaves the map exactly when its resolution is yielded.
    members: HashMap<u64, (u64, SummaryTicket)>,
}

impl Default for TicketSet {
    fn default() -> Self {
        Self::new()
    }
}

impl TicketSet {
    /// An empty set.
    pub fn new() -> Self {
        TicketSet {
            sink: Arc::new(ReadySink {
                ready: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            }),
            inner: Mutex::new(SetInner {
                next_member: 0,
                members: HashMap::new(),
            }),
        }
    }

    /// Add `ticket` under `tag`. An already-resolved ticket is
    /// immediately ready; tags need not be unique (each membership is
    /// tracked separately).
    pub fn add(&self, tag: u64, ticket: SummaryTicket) {
        let mut inner = lock_recovering(&self.inner);
        let member = inner.next_member;
        inner.next_member += 1;
        // Register the watch *before* releasing `inner`: a concurrent
        // `wait_any` that pops this member blocks on `inner` until the
        // insert below lands, so pop → lookup can never miss.
        ticket.slot.watch(Arc::clone(&self.sink), member);
        inner.members.insert(member, (tag, ticket));
    }

    /// Members whose resolution has not been yielded yet (ready-but-
    /// unclaimed members count).
    pub fn len(&self) -> usize {
        lock_recovering(&self.inner).members.len()
    }

    /// Whether every added ticket has been yielded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking drain probe: the next resolution in completion
    /// order, or `None` if nothing is ready right now. Does not flush
    /// the queue (a pure poll, like [`SummaryTicket::try_wait`]).
    pub fn poll(&self) -> Option<CompletedTicket> {
        loop {
            let member = lock_recovering(&self.sink.ready).pop_front()?;
            let mut inner = lock_recovering(&self.inner);
            if let Some((tag, ticket)) = inner.members.remove(&member) {
                drop(inner);
                let (result, meta) = ticket
                    .slot
                    .try_take()
                    .expect("a member on the ready list has resolved");
                return Some(CompletedTicket { tag, result, meta });
            }
            // A stale entry can only exist if a membership was yielded
            // through another path; skip defensively rather than wedge.
        }
    }

    /// Block until any member resolves and yield it (completion
    /// order); `None` once the set is empty. Before blocking this
    /// flushes the linger window up to every member's own request —
    /// the [`SummaryTicket::wait`] no-deadlock discipline, extended to
    /// the whole set — so a lingering coalescer can never deadlock the
    /// multiplexed consumer.
    pub fn wait_any(&self) -> Option<CompletedTicket> {
        self.wait_inner(None)
    }

    /// [`TicketSet::wait_any`] bounded by `timeout`: `None` on an
    /// empty set *or* when nothing resolved in time (check
    /// [`TicketSet::is_empty`] to tell the two apart; the members stay
    /// in the set and a later wait yields them).
    pub fn wait_any_timeout(&self, timeout: Duration) -> Option<CompletedTicket> {
        // xlint: allow(wall-clock-in-dispatcher) — consumer-side wait bound;
        // the dispatcher never observes the deadline.
        self.wait_inner(Some(Instant::now() + timeout))
    }

    fn wait_inner(&self, deadline: Option<Instant>) -> Option<CompletedTicket> {
        loop {
            if let Some(done) = self.poll() {
                return Some(done);
            }
            {
                let inner = lock_recovering(&self.inner);
                if inner.members.is_empty() {
                    return None;
                }
                // Flush the highest-seq member per distinct queue:
                // `flush_up_to` is a high-water mark, so that one
                // flush covers every lower-seq member of the same
                // queue (a set may multiplex several queues).
                let mut latest: Vec<&SummaryTicket> = Vec::new();
                for (_, ticket) in inner.members.values() {
                    let key = Arc::as_ptr(&ticket.shared);
                    match latest
                        .iter_mut()
                        .find(|t| std::ptr::eq(Arc::as_ptr(&t.shared), key))
                    {
                        Some(t) if t.seq >= ticket.seq => {}
                        Some(t) => *t = ticket,
                        None => latest.push(ticket),
                    }
                }
                for ticket in latest {
                    ticket.flush_own_request();
                }
            }
            // Block on the sink only while it is verifiably empty (the
            // push path needs the same lock, so no wakeup is lost).
            // `inner` is NOT held here: `add` takes `inner` → sink, so
            // holding `inner` across this wait would deadlock a
            // producer.
            let ready = lock_recovering(&self.sink.ready);
            if !ready.is_empty() {
                continue;
            }
            match deadline {
                None => {
                    drop(
                        self.sink
                            .cv
                            .wait(ready)
                            .unwrap_or_else(PoisonError::into_inner),
                    );
                }
                Some(d) => {
                    // xlint: allow(wall-clock-in-dispatcher) — consumer-side
                    // wait bound re-check; dispatcher-invisible.
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    drop(
                        self.sink
                            .cv
                            .wait_timeout(ready, d - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0,
                    );
                }
            }
        }
    }
}

/// One queued summary request.
struct PendingRequest {
    seq: u64,
    input: SummaryInput,
    method: BatchMethod,
    slot: Arc<TicketSlot>,
}

/// One queued operation, in admission order.
enum QueuedOp {
    Summary(PendingRequest),
    /// A mutation barrier: everything before it serves pre-mutation,
    /// everything after post-mutation.
    Mutate {
        f: Box<dyn FnMut(&mut Graph) + Send>,
        done: Arc<Slot<Result<(), EngineError>>>,
    },
    /// A recovery barrier ([`AdmissionQueue::recover`]): restore
    /// backend coherence and un-poison the queue.
    Recover {
        done: Arc<Slot<Result<(), EngineError>>>,
    },
    /// A non-barrier weight-only delta
    /// ([`AdmissionQueue::submit_weight_update`]): coalesced with every
    /// other update in its segment and dispatched ahead of that
    /// segment's summaries, never across a barrier.
    WeightUpdate {
        updates: Vec<(EdgeId, f64)>,
        done: Arc<Slot<Result<(), EngineError>>>,
    },
}

/// Bit-level compatibility fingerprint for coalescing: two methods
/// coalesce into one engine batch iff their variant and config bits
/// match (the [`f64::to_bits`] discipline of
/// [`CostModelKey`](crate::steiner::CostModelKey), so NaN configs are
/// self-compatible and −0.0 ≠ 0.0).
fn method_fingerprint(m: &BatchMethod) -> (u8, u64, u64, u64) {
    // Exhaustive destructuring on purpose: adding a config field makes
    // this fail to compile instead of being silently excluded from the
    // fingerprint (which would coalesce requests whose configs differ
    // only in the new field — serving them under the wrong config).
    fn st_bits(c: &crate::steiner::SteinerConfig) -> (u64, u64) {
        let crate::steiner::SteinerConfig { lambda, delta } = *c;
        (lambda.to_bits(), delta.to_bits())
    }
    fn pcst_bits(c: &crate::pcst::PcstConfig) -> (u64, u64, u64) {
        let crate::pcst::PcstConfig {
            terminal_prize,
            nonterminal_prize,
            use_edge_weights,
            scope,
            prune,
        } = *c;
        let scope = match scope {
            crate::pcst::PcstScope::UnionOfPaths => 0u64,
            crate::pcst::PcstScope::ExpandedUnion(h) => 1 | ((h as u64) << 2),
            crate::pcst::PcstScope::FullGraph => 2,
        };
        let flags = scope | ((use_edge_weights as u64) << 62) | ((prune as u64) << 63);
        (terminal_prize.to_bits(), nonterminal_prize.to_bits(), flags)
    }
    match m {
        BatchMethod::Steiner(c) => {
            let (l, d) = st_bits(c);
            (0, l, d, 0)
        }
        BatchMethod::SteinerFast(c) => {
            let (l, d) = st_bits(c);
            (1, l, d, 0)
        }
        BatchMethod::Pcst(c) => {
            let (t, n, f) = pcst_bits(c);
            (2, t, n, f)
        }
        BatchMethod::GwPcst(c) => {
            let (t, n, f) = pcst_bits(c);
            (3, t, n, f)
        }
    }
}

struct QueueState {
    queue: VecDeque<QueuedOp>,
    /// Summary requests in `queue` (mutation barriers don't count
    /// against the bound).
    queued_summaries: usize,
    next_seq: u64,
    /// Requests with `seq < flush_up_to` dispatch regardless of the
    /// linger window.
    flush_up_to: u64,
    in_flight: usize,
    shutdown: bool,
    /// A mutation barrier failed; the backend may be incoherent. No
    /// admissions until [`AdmissionQueue::recover`] succeeds —
    /// distinct from `shutdown` so the dispatcher stays alive to serve
    /// the recovery barrier.
    poisoned: bool,
    stats: AdmissionStats,
}

struct QueueShared {
    cfg: AdmissionConfig,
    /// Deterministic fault injection at the dispatch/mutate seams;
    /// `None` (the default) costs one never-taken branch per dispatch.
    faults: Option<Arc<FaultInjector>>,
    state: Mutex<QueueState>,
    /// The dispatcher waits here for admissions / flushes / shutdown.
    work_cv: Condvar,
    /// Blocking producers wait here for queue room.
    space_cv: Condvar,
    /// `drain` waiters wait here for queue-empty + nothing in flight.
    idle_cv: Condvar,
}

/// The bounded, coalescing admission queue (see module docs).
///
/// All submission methods take `&self`, so one queue can be shared by
/// reference across producer threads (`std::thread::scope`) without any
/// external synchronization.
///
/// ```
/// use xsum_core::admission::{AdmissionConfig, AdmissionQueue};
/// use xsum_core::render::table1_example;
/// use xsum_core::{BatchMethod, SteinerConfig, SummaryEngine};
///
/// let ex = table1_example();
/// let queue = AdmissionQueue::for_engine(
///     ex.graph.clone(),
///     SummaryEngine::with_threads(2),
///     AdmissionConfig::default(),
/// );
/// let method = BatchMethod::Steiner(SteinerConfig::default());
/// let ticket = queue.submit(ex.input(), method).unwrap();
/// let summary = ticket.wait().unwrap();
/// assert_eq!(summary.terminal_coverage(), 1.0);
/// ```
pub struct AdmissionQueue {
    shared: Arc<QueueShared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for AdmissionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("AdmissionQueue")
            .field("config", &self.shared.cfg)
            .field("stats", &stats)
            .finish()
    }
}

impl AdmissionQueue {
    /// A queue over any [`AdmissionBackend`]; the backend moves onto
    /// the dispatcher thread, which owns it for the queue's lifetime.
    pub fn new(backend: impl AdmissionBackend, cfg: AdmissionConfig) -> Self {
        Self::with_faults(backend, cfg, None)
    }

    /// [`AdmissionQueue::new`] plus a deterministic fault injector
    /// firing at [`FaultSite::AdmissionDispatch`] and
    /// [`FaultSite::AdmissionMutate`]. To also chaos the serving
    /// layers below, install the same injector on the backend before
    /// moving it in ([`ShardedEngine::set_fault_injector`],
    /// [`SummaryEngine::set_fault_hook`]).
    pub fn with_faults(
        backend: impl AdmissionBackend,
        cfg: AdmissionConfig,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        let cfg = AdmissionConfig {
            queue_bound: cfg.queue_bound.max(1),
            max_batch: cfg.max_batch.max(1),
            linger_tickets: cfg.linger_tickets.max(1),
        };
        let shared = Arc::new(QueueShared {
            cfg,
            faults,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                queued_summaries: 0,
                next_seq: 0,
                flush_up_to: 0,
                in_flight: 0,
                shutdown: false,
                poisoned: false,
                stats: AdmissionStats::default(),
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let mut backend = backend;
            xsum_graph::sync::thread::Builder::new()
                .name("xsum-admission".to_string())
                .spawn(move || dispatcher_loop(&shared, &mut backend))
                .expect("spawn admission dispatcher")
        };
        AdmissionQueue {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// A queue serving `graph` through `engine` (see [`EngineBackend`]).
    pub fn for_engine(graph: Graph, engine: SummaryEngine, cfg: AdmissionConfig) -> Self {
        Self::new(EngineBackend::new(graph, engine), cfg)
    }

    /// A queue serving a [`ShardedEngine`] (which owns its replicas'
    /// graphs; mutation barriers go through [`ShardedEngine::mutate`]).
    pub fn for_sharded(sharded: ShardedEngine, cfg: AdmissionConfig) -> Self {
        Self::new(sharded, cfg)
    }

    /// The queue's configuration (as clamped at construction).
    pub fn config(&self) -> AdmissionConfig {
        self.shared.cfg
    }

    /// Admit one request, blocking while the queue is at its bound (a
    /// blocked producer flushes the queue first, so a lingering
    /// dispatcher always makes room). Errors only after shutdown or
    /// while poisoned.
    pub fn submit(
        &self,
        input: SummaryInput,
        method: BatchMethod,
    ) -> Result<SummaryTicket, AdmissionError> {
        self.submit_inner(input, method, true)
    }

    /// Non-blocking admission probe: on a full queue returns
    /// [`AdmissionError::QueueFull`] immediately and leaves the queue
    /// untouched (backpressure the producer can observe and act on).
    pub fn try_submit(
        &self,
        input: SummaryInput,
        method: BatchMethod,
    ) -> Result<SummaryTicket, AdmissionError> {
        self.submit_inner(input, method, false)
    }

    /// Admit a whole batch request: one ticket per input, admitted in
    /// order (blocking for room like [`AdmissionQueue::submit`]). The
    /// coalescer is free to merge them with other queued requests —
    /// outputs are bit-identical either way.
    pub fn submit_batch(
        &self,
        inputs: Vec<SummaryInput>,
        method: BatchMethod,
    ) -> Result<Vec<SummaryTicket>, AdmissionError> {
        inputs
            .into_iter()
            .map(|input| self.submit(input, method))
            .collect()
    }

    fn submit_inner(
        &self,
        input: SummaryInput,
        method: BatchMethod,
        block: bool,
    ) -> Result<SummaryTicket, AdmissionError> {
        let mut st = lock_recovering(&self.shared.state);
        loop {
            if st.shutdown {
                return Err(AdmissionError::ShutDown);
            }
            if st.poisoned {
                return Err(AdmissionError::Poisoned);
            }
            if st.queued_summaries < self.shared.cfg.queue_bound {
                break;
            }
            if !block {
                st.stats.rejected += 1;
                return Err(AdmissionError::QueueFull);
            }
            // Full: flush what's queued so the dispatcher frees room
            // even when the linger window is wider than the bound.
            st.flush_up_to = st.next_seq;
            self.shared.work_cv.notify_all();
            st = self
                .shared
                .space_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.stats.submitted += 1;
        let slot = Arc::new(TicketSlot::new());
        let ticket = SummaryTicket {
            slot: Arc::clone(&slot),
            shared: Arc::clone(&self.shared),
            seq,
        };
        st.queued_summaries += 1;
        if st.in_flight > 0 {
            st.stats.overlap_submissions += 1;
        }
        st.queue.push_back(QueuedOp::Summary(PendingRequest {
            seq,
            input,
            method,
            slot,
        }));
        drop(st);
        self.shared.work_cv.notify_all();
        Ok(ticket)
    }

    /// Enqueue `f` as a mutation **barrier** and block until it was
    /// applied: requests admitted before it serve the pre-mutation
    /// graph, requests after it the post-mutation graph. If `f`
    /// panics, the panic is returned as [`AdmissionError::Engine`] and
    /// the queue is poisoned (backends may have diverged mid-mutation
    /// — e.g. some shard replicas mutated, some not — so no further
    /// request can be trusted): queued and future tickets fail.
    pub fn mutate(&self, f: impl FnMut(&mut Graph) + Send + 'static) -> Result<(), AdmissionError> {
        let done = Arc::new(Slot::new());
        {
            let mut st = lock_recovering(&self.shared.state);
            if st.shutdown {
                return Err(AdmissionError::ShutDown);
            }
            if st.poisoned {
                return Err(AdmissionError::Poisoned);
            }
            st.queue.push_back(QueuedOp::Mutate {
                f: Box::new(f),
                done: Arc::clone(&done),
            });
        }
        self.shared.work_cv.notify_all();
        done.wait().map_err(AdmissionError::Engine)
    }

    /// Recover a queue poisoned by a failed mutation barrier: restore
    /// the backend to its last mutation-coherent snapshot
    /// ([`AdmissionBackend::recover_coherence`]) and resume admitting.
    /// The failed barrier becomes a rollback no-op — post-recovery
    /// results are bit-identical to a stack that never saw it. On a
    /// healthy queue this is an immediate no-op `Ok`.
    pub fn recover(&self) -> Result<(), AdmissionError> {
        let done = Arc::new(Slot::new());
        {
            let mut st = lock_recovering(&self.shared.state);
            if st.shutdown {
                return Err(AdmissionError::ShutDown);
            }
            if !st.poisoned {
                return Ok(());
            }
            st.queue.push_back(QueuedOp::Recover {
                done: Arc::clone(&done),
            });
        }
        self.shared.work_cv.notify_all();
        done.wait().map_err(AdmissionError::Engine)
    }

    /// Enqueue a weight-only delta **without** a barrier: the updates
    /// are coalesced with every other weight update queued in the same
    /// segment (admission order, later writes to the same edge winning)
    /// and applied through [`AdmissionBackend::apply_weight_delta`]
    /// ahead of that segment's summaries. Unlike
    /// [`AdmissionQueue::mutate`] this returns immediately with a
    /// [`WeightUpdateTicket`]; dropping the ticket makes the update
    /// fire-and-forget. Summaries already queued may serve either side
    /// of the delta; updates never cross a structural barrier in either
    /// direction. A panic while applying poisons the queue exactly like
    /// a failed mutation barrier.
    pub fn submit_weight_update(
        &self,
        updates: Vec<(EdgeId, f64)>,
    ) -> Result<WeightUpdateTicket, AdmissionError> {
        let done = Arc::new(Slot::new());
        {
            let mut st = lock_recovering(&self.shared.state);
            if st.shutdown {
                return Err(AdmissionError::ShutDown);
            }
            if st.poisoned {
                return Err(AdmissionError::Poisoned);
            }
            st.queue.push_back(QueuedOp::WeightUpdate {
                updates,
                done: Arc::clone(&done),
            });
        }
        self.shared.work_cv.notify_all();
        Ok(WeightUpdateTicket { done })
    }

    /// Close the linger window for everything currently queued (without
    /// waiting for it to complete).
    pub fn flush(&self) {
        let mut st = lock_recovering(&self.shared.state);
        st.flush_up_to = st.next_seq;
        drop(st);
        self.shared.work_cv.notify_all();
    }

    /// Flush, then block until the queue is empty and nothing is in
    /// flight — every ticket admitted before this call is resolved.
    pub fn drain(&self) {
        let mut st = lock_recovering(&self.shared.state);
        st.flush_up_to = st.next_seq;
        self.shared.work_cv.notify_all();
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self
                .shared
                .idle_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop admitting and let the dispatcher drain what's queued —
    /// every already-issued ticket still resolves (shutdown-drain).
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let mut st = lock_recovering(&self.shared.state);
        if !st.shutdown {
            st.shutdown = true;
            st.flush_up_to = st.next_seq;
        }
        drop(st);
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
    }

    /// Requests currently queued (admitted, not yet dispatched).
    pub fn queued(&self) -> usize {
        lock_recovering(&self.shared.state).queued_summaries
    }

    /// Requests currently being served by the backend — the admission-
    /// level counterpart of
    /// [`WorkerPool::in_flight`](xsum_graph::WorkerPool::in_flight).
    pub fn in_flight(&self) -> usize {
        lock_recovering(&self.shared.state).in_flight
    }

    /// A consistent snapshot of the queue's counters.
    pub fn stats(&self) -> AdmissionStats {
        let st = lock_recovering(&self.shared.state);
        let mut stats = st.stats;
        stats.queued = st.queued_summaries;
        stats.in_flight = st.in_flight;
        stats
    }
}

impl Drop for AdmissionQueue {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

/// What the dispatcher pulled off the queue for one round.
enum Work {
    Batch {
        reqs: Vec<PendingRequest>,
        batch_id: u64,
    },
    Mutation {
        f: Box<dyn FnMut(&mut Graph) + Send>,
        done: Arc<Slot<Result<(), EngineError>>>,
    },
    Recovery {
        done: Arc<Slot<Result<(), EngineError>>>,
    },
    /// Every weight update drained from the head segment, concatenated
    /// in admission order (so later writes to the same edge win inside
    /// the backend's single ledger batch).
    WeightUpdates {
        updates: Vec<(EdgeId, f64)>,
        dones: Vec<Arc<Slot<Result<(), EngineError>>>>,
    },
}

/// Poison the queue after a failed mutation or weight-delta apply:
/// fail everything queued and refuse new admissions, but keep the
/// dispatcher alive so a `recover` barrier can restore coherence.
/// Callers resolve the failing op's own slot(s) and notify `space_cv`.
fn poison_and_drain(st: &mut QueueState) {
    st.poisoned = true;
    let poisoned: Vec<QueuedOp> = st.queue.drain(..).collect();
    st.queued_summaries = 0;
    for op in poisoned {
        match op {
            QueuedOp::Summary(req) => {
                st.stats.failed += 1;
                req.slot
                    .put((Err(AdmissionError::Poisoned), DispatchMeta::unserved()));
            }
            QueuedOp::Mutate { done, .. } | QueuedOp::WeightUpdate { done, .. } => {
                done.put(Err(EngineError::from_message(
                    "admission queue poisoned by a failed mutation",
                )));
            }
            QueuedOp::Recover { done } => {
                // Can't happen (recover is only admitted while already
                // poisoned) but resolve it anyway: no slot may ever be
                // left unresolved.
                done.put(Err(EngineError::from_message(
                    "admission queue poisoned by a failed mutation",
                )));
            }
        }
    }
}

/// Draw one decision at `site`: `Ok(())` to proceed (sleeping through
/// any injected delay), or the injected error.
fn draw_fault(shared: &QueueShared, site: FaultSite, what: &str) -> Result<(), EngineError> {
    if let Some(inj) = &shared.faults {
        if let Some(kind) = inj.fire(site) {
            match kind {
                FaultKind::Panic | FaultKind::Transient => {
                    return Err(EngineError::from_message(what));
                }
                FaultKind::Delay => inj.sleep_if_delay(kind),
            }
        }
    }
    Ok(())
}

fn dispatcher_loop(shared: &QueueShared, backend: &mut dyn AdmissionBackend) {
    loop {
        let work = {
            let mut st = lock_recovering(&shared.state);
            loop {
                if let Some(work) = next_work(&mut st, &shared.cfg) {
                    if let Work::Batch { reqs, .. } = &work {
                        st.queued_summaries -= reqs.len();
                        st.in_flight = reqs.len();
                        st.stats.batches_dispatched += 1;
                        st.stats.max_coalesced = st.stats.max_coalesced.max(reqs.len());
                        // Popping freed queue room.
                        shared.space_cv.notify_all();
                    }
                    break work;
                }
                if st.shutdown && st.queue.is_empty() {
                    return;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        match work {
            Work::Batch { reqs, batch_id } => {
                let method = reqs[0].method;
                let inputs: Vec<&SummaryInput> = reqs.iter().map(|r| &r.input).collect();
                let batch_result = match draw_fault(
                    shared,
                    FaultSite::AdmissionDispatch,
                    "injected admission-dispatch fault",
                ) {
                    Ok(()) => backend.run_batch(&inputs, method),
                    Err(e) => Err(e),
                };
                let mut outcomes: Vec<Result<Summary, EngineError>> = match batch_result {
                    Ok(results) => {
                        debug_assert_eq!(results.len(), reqs.len());
                        results.into_iter().map(Ok).collect()
                    }
                    Err(_) => {
                        // A worker panic (or injected fault) somewhere
                        // in the coalesced batch: retry each member in
                        // isolation so the error lands on exactly the
                        // affected tickets. Under fault injection, one
                        // more bounded retry per request — the
                        // injector's finite budget, not optimism, is
                        // what guarantees this terminates.
                        reqs.iter()
                            .map(|req| {
                                let first = backend.run_one(&req.input, req.method);
                                match first {
                                    Err(_) if shared.faults.is_some() => {
                                        backend.run_one(&req.input, req.method)
                                    }
                                    other => other,
                                }
                            })
                            .collect()
                    }
                };
                let meta = DispatchMeta {
                    batch: batch_id,
                    coalesced: reqs.len(),
                };
                // Count first, then resolve tickets: a waiter that
                // wakes on its slot must already see itself counted.
                let completed = outcomes.iter().filter(|r| r.is_ok()).count() as u64;
                {
                    let mut st = lock_recovering(&shared.state);
                    st.stats.completed += completed;
                    st.stats.failed += reqs.len() as u64 - completed;
                }
                for (req, outcome) in reqs.iter().zip(outcomes.drain(..)) {
                    req.slot
                        .put((outcome.map_err(AdmissionError::Engine), meta));
                }
                // Only now clear `in_flight` and wake `drain`: its
                // predicate is `queue empty && in_flight == 0`, so
                // clearing earlier would let a drainer return (even on
                // a spurious wakeup — no notify needed) while tickets
                // were still unresolved. This ordering makes "drain
                // returned" imply "tickets are ready".
                let mut st = lock_recovering(&shared.state);
                st.in_flight = 0;
                if st.queue.is_empty() {
                    shared.idle_cv.notify_all();
                }
            }
            Work::Mutation { mut f, done } => {
                let outcome = match draw_fault(
                    shared,
                    FaultSite::AdmissionMutate,
                    "injected admission-mutation fault",
                ) {
                    // An injected mutation fault poisons *without*
                    // applying the closure — recovery rolls back to
                    // the same snapshot either way.
                    Err(e) => Err(e),
                    Ok(()) => catch_unwind(AssertUnwindSafe(|| backend.mutate_graph(&mut f)))
                        .unwrap_or_else(|payload| Err(EngineError::from_panic(payload))),
                };
                let mut st = lock_recovering(&shared.state);
                match outcome {
                    Ok(()) => {
                        st.stats.mutations_applied += 1;
                        done.put(Ok(()));
                    }
                    Err(e) => {
                        // The backend may be incoherent (replicas
                        // diverged mid-closure): poison.
                        poison_and_drain(&mut st);
                        done.put(Err(e));
                        shared.space_cv.notify_all();
                    }
                }
                if st.queue.is_empty() {
                    shared.idle_cv.notify_all();
                }
            }
            Work::WeightUpdates { updates, dones } => {
                let edges = updates.len() as u64;
                let outcome = match draw_fault(
                    shared,
                    FaultSite::AdmissionMutate,
                    "injected admission-mutation fault",
                ) {
                    // Like a mutation barrier, an injected fault
                    // poisons *without* applying the delta.
                    Err(e) => Err(e),
                    Ok(()) => {
                        catch_unwind(AssertUnwindSafe(|| backend.apply_weight_delta(&updates)))
                            .unwrap_or_else(|payload| Err(EngineError::from_panic(payload)))
                    }
                };
                let mut st = lock_recovering(&shared.state);
                match outcome {
                    Ok(()) => {
                        st.stats.weight_update_batches += 1;
                        st.stats.weight_updates_applied += edges;
                        for done in dones {
                            done.put(Ok(()));
                        }
                    }
                    Err(e) => {
                        // Same contract as a failed barrier: the
                        // backend may have applied the delta to some
                        // replicas and not others.
                        poison_and_drain(&mut st);
                        for done in dones {
                            done.put(Err(e.clone()));
                        }
                        shared.space_cv.notify_all();
                    }
                }
                if st.queue.is_empty() {
                    shared.idle_cv.notify_all();
                }
            }
            Work::Recovery { done } => {
                let outcome = catch_unwind(AssertUnwindSafe(|| backend.recover_coherence()))
                    .unwrap_or_else(|payload| Err(EngineError::from_panic(payload)));
                let mut st = lock_recovering(&shared.state);
                match outcome {
                    Ok(()) => {
                        st.poisoned = false;
                        st.stats.recoveries += 1;
                        done.put(Ok(()));
                        // Producers blocked on space while the queue
                        // poisoned under them should re-check.
                        shared.space_cv.notify_all();
                    }
                    Err(e) => done.put(Err(e)),
                }
                if st.queue.is_empty() {
                    shared.idle_cv.notify_all();
                }
            }
        }
    }
}

/// Decide the dispatcher's next round under the state lock: a mutation
/// or recovery barrier at the head, a coalesced batch from the head
/// segment once the linger window closes, or nothing yet (`None` →
/// wait).
fn next_work(st: &mut QueueState, cfg: &AdmissionConfig) -> Option<Work> {
    match st.queue.front()? {
        QueuedOp::Mutate { .. } => match st.queue.pop_front() {
            Some(QueuedOp::Mutate { f, done }) => return Some(Work::Mutation { f, done }),
            _ => unreachable!("front() said Mutate"),
        },
        QueuedOp::Recover { .. } => match st.queue.pop_front() {
            Some(QueuedOp::Recover { done }) => return Some(Work::Recovery { done }),
            _ => unreachable!("front() said Recover"),
        },
        _ => {}
    }
    // Weight updates dispatch ahead of their segment's summaries, all
    // of them coalesced into one backend apply (admission order, so
    // later writes to the same edge win). The drain never crosses a
    // mutation/recovery barrier: a structural mutation may renumber
    // edges, so an update queued behind one must wait for it.
    let head_end = st
        .queue
        .iter()
        .position(|op| matches!(op, QueuedOp::Mutate { .. } | QueuedOp::Recover { .. }))
        .unwrap_or(st.queue.len());
    if st
        .queue
        .iter()
        .take(head_end)
        .any(|op| matches!(op, QueuedOp::WeightUpdate { .. }))
    {
        let mut updates = Vec::new();
        let mut dones = Vec::new();
        let mut rest: VecDeque<QueuedOp> = VecDeque::with_capacity(st.queue.len());
        for (i, op) in st.queue.drain(..).enumerate() {
            match op {
                QueuedOp::WeightUpdate { updates: u, done } if i < head_end => {
                    updates.extend(u);
                    dones.push(done);
                }
                other => rest.push_back(other),
            }
        }
        st.queue = rest;
        return Some(Work::WeightUpdates { updates, dones });
    }
    // The head segment: contiguous summary requests before the next
    // barrier (coalescing never crosses a mutation or recovery).
    let barrier = st
        .queue
        .iter()
        .position(|op| !matches!(op, QueuedOp::Summary(_)));
    let seg_end = barrier.unwrap_or(st.queue.len());
    // Summaries queue in admission order, so the segment's first
    // request is its oldest: it leads the batch.
    let Some(QueuedOp::Summary(leader)) = st.queue.front() else {
        unreachable!("a summary heads the segment")
    };
    let ready = st.shutdown
        || barrier.is_some() // a waiting barrier closes the window
        || seg_end >= cfg.linger_tickets
        || leader.seq < st.flush_up_to;
    if !ready {
        return None;
    }
    // The leader takes the method-compatible requests behind it, in
    // admission order, up to max_batch.
    let leader_fp = method_fingerprint(&leader.method);
    let mut taken: Vec<PendingRequest> = Vec::new();
    let mut rest: VecDeque<QueuedOp> = VecDeque::with_capacity(st.queue.len());
    for (i, op) in st.queue.drain(..).enumerate() {
        match op {
            QueuedOp::Summary(r)
                if i < seg_end
                    && taken.len() < cfg.max_batch
                    && method_fingerprint(&r.method) == leader_fp =>
            {
                taken.push(r)
            }
            other => rest.push_back(other),
        }
    }
    st.queue = rest;
    Some(Work::Batch {
        reqs: taken,
        // The caller increments `batches_dispatched` right after; the
        // id tickets see is that post-increment dispatch ordinal.
        batch_id: st.stats.batches_dispatched + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcst::PcstConfig;
    use crate::render::table1_example;
    use crate::steiner::SteinerConfig;

    fn st_method() -> BatchMethod {
        BatchMethod::Steiner(SteinerConfig::default())
    }

    fn assert_same(a: &Summary, b: &Summary) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.terminals, b.terminals);
        assert_eq!(a.subgraph.sorted_edges(), b.subgraph.sorted_edges());
        assert_eq!(a.subgraph.sorted_nodes(), b.subgraph.sorted_nodes());
    }

    #[test]
    fn single_submit_round_trips() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig::default(),
        );
        let got = queue
            .submit(ex.input(), st_method())
            .unwrap()
            .wait()
            .unwrap();
        assert_same(&got, &st_method().run(&ex.graph, &ex.input()));
        let stats = queue.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn linger_coalesces_by_ticket_count() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: 3,
            },
        );
        // Two submissions stay below the linger window.
        let t1 = queue.submit(ex.input(), st_method()).unwrap();
        let t2 = queue.submit(ex.input(), st_method()).unwrap();
        // The third closes it; everything coalesces into one batch.
        let t3 = queue.submit(ex.input(), st_method()).unwrap();
        queue.drain();
        let stats = queue.stats();
        assert_eq!(stats.batches_dispatched, 1, "one coalesced dispatch");
        assert_eq!(stats.max_coalesced, 3);
        for t in [t1, t2, t3] {
            let (res, meta) = t.wait_meta();
            assert_same(&res.unwrap(), &st_method().run(&ex.graph, &ex.input()));
            assert_eq!(meta.coalesced, 3);
            assert_eq!(meta.batch, 1);
        }
    }

    #[test]
    fn ticket_wait_flushes_a_lingering_queue() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: usize::MAX, // never closes on count
            },
        );
        let t = queue.submit(ex.input(), st_method()).unwrap();
        // wait() must flush (not deadlock on the infinite linger).
        assert!(t.wait().is_ok());
    }

    #[test]
    fn coalescer_dispatches_first_in_first_out() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 2,
                linger_tickets: 4,
            },
        );
        let tickets: Vec<_> = (0..4)
            .map(|_| queue.submit(ex.input(), st_method()).unwrap())
            .collect();
        queue.drain();
        // max_batch 2: requests 1 and 2 share the first batch, requests
        // 3 and 4 the second.
        let batches: Vec<u64> = tickets.into_iter().map(|t| t.wait_meta().1.batch).collect();
        assert_eq!(batches, [1, 1, 2, 2]);
    }

    #[test]
    fn mixed_methods_split_into_compatible_batches() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: 4,
            },
        );
        let pcst = BatchMethod::Pcst(PcstConfig::default());
        let a = queue.submit(ex.input(), st_method()).unwrap();
        let b = queue.submit(ex.input(), pcst).unwrap();
        let c = queue.submit(ex.input(), st_method()).unwrap();
        let d = queue.submit(ex.input(), pcst).unwrap();
        queue.drain();
        let (ra, ma) = a.wait_meta();
        let (rb, mb) = b.wait_meta();
        let (rc, mc) = c.wait_meta();
        let (rd, md) = d.wait_meta();
        assert_eq!(ma.batch, mc.batch, "same method coalesces");
        assert_eq!(mb.batch, md.batch);
        assert_ne!(ma.batch, mb.batch, "methods never share a batch");
        assert!(ma.batch < mb.batch, "the oldest request leads");
        assert_same(&ra.unwrap(), &st_method().run(&ex.graph, &ex.input()));
        assert_same(&rb.unwrap(), &pcst.run(&ex.graph, &ex.input()));
        assert_same(&rc.unwrap(), &st_method().run(&ex.graph, &ex.input()));
        assert_same(&rd.unwrap(), &pcst.run(&ex.graph, &ex.input()));
        assert_eq!(queue.stats().batches_dispatched, 2);
    }

    #[test]
    fn try_submit_backpressure_is_observable_and_recoverable() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 3,
                max_batch: 8,
                linger_tickets: usize::MAX, // hold everything: bound must fill
            },
        );
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(queue.try_submit(ex.input(), st_method()).unwrap());
        }
        assert_eq!(queue.queued(), 3);
        // Full: the probe rejects without side effects.
        match queue.try_submit(ex.input(), st_method()) {
            Err(AdmissionError::QueueFull) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(queue.stats().rejected, 1);
        // Draining resolves the admitted tickets and frees the bound.
        queue.drain();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        queue
            .try_submit(ex.input(), st_method())
            .unwrap()
            .wait()
            .unwrap();
    }

    #[test]
    fn blocking_submit_flushes_past_a_full_queue() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 2,
                max_batch: 4,
                linger_tickets: usize::MAX,
            },
        );
        // 3 blocking submits through a bound of 2: the third must flush
        // and wait for room instead of deadlocking.
        let tickets: Vec<_> = (0..3)
            .map(|_| queue.submit(ex.input(), st_method()).unwrap())
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn mutation_is_a_barrier_between_segments() {
        let ex = table1_example();
        let input = ex.input();
        let method = st_method();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: usize::MAX, // barrier must close the window itself
            },
        );
        let before = queue.submit(input.clone(), method).unwrap();
        let e = xsum_graph::EdgeId(0);
        queue.mutate(move |g| g.set_weight(e, 0.125)).unwrap();
        let after = queue.submit(input.clone(), method).unwrap();

        let mut pre = ex.graph.clone();
        let want_before = method.run(&pre, &input);
        pre.set_weight(e, 0.125);
        let want_after = method.run(&pre, &input);
        assert_same(&before.wait().unwrap(), &want_before);
        assert_same(&after.wait().unwrap(), &want_after);
        assert_eq!(queue.stats().mutations_applied, 1);
    }

    #[test]
    fn panicked_mutation_poisons_the_queue() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: usize::MAX,
            },
        );
        // A request admitted *before* the barrier serves the
        // pre-mutation graph — the barrier flushes it first.
        let pre_barrier = queue.submit(ex.input(), st_method()).unwrap();
        let err = queue.mutate(|_| panic!("bad mutation"));
        assert!(matches!(err, Err(AdmissionError::Engine(_))));
        assert!(pre_barrier.wait().is_ok(), "pre-barrier request serves");
        // After the poisoning the queue no longer admits; a request
        // racing in behind the barrier would instead have resolved to
        // an error ticket (both outcomes are "no silent hang").
        match queue.submit(ex.input(), st_method()) {
            Err(AdmissionError::Poisoned) => {}
            Ok(ticket) => assert!(ticket.wait().is_err()),
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
        assert!(matches!(
            queue.mutate(|_| {}),
            Err(AdmissionError::Poisoned)
        ));
        // Recovery rolls the backend back to the last coherent
        // snapshot and reopens admission; the rollback makes the
        // failed barrier a no-op, so serving matches the pristine
        // graph.
        queue.recover().unwrap();
        let revived = queue.submit(ex.input(), st_method()).unwrap();
        assert_same(
            &revived.wait().unwrap(),
            &st_method().run(&ex.graph, &ex.input()),
        );
        let stats = queue.stats();
        assert_eq!(stats.recoveries, 1);
        // Recovering a healthy queue is a cheap no-op.
        queue.recover().unwrap();
        assert_eq!(queue.stats().recoveries, 1);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 4,
                linger_tickets: usize::MAX, // held until shutdown flushes
            },
        );
        let tickets: Vec<_> = (0..6)
            .map(|_| queue.submit(ex.input(), st_method()).unwrap())
            .collect();
        queue.shutdown();
        for t in tickets {
            assert_same(&t.wait().unwrap(), &st_method().run(&ex.graph, &ex.input()));
        }
        assert!(matches!(
            queue.submit(ex.input(), st_method()),
            Err(AdmissionError::ShutDown)
        ));
        assert_eq!(queue.stats().completed, 6);
    }

    #[test]
    fn sharded_backend_serves_and_mutates() {
        let ex = table1_example();
        let input = ex.input();
        let method = st_method();
        let sharded = ShardedEngine::with_threads(&ex.graph, 2, 1);
        let queue = AdmissionQueue::for_sharded(sharded, AdmissionConfig::default());
        let got = queue.submit(input.clone(), method).unwrap().wait().unwrap();
        assert_same(&got, &method.run(&ex.graph, &input));
        let e = xsum_graph::EdgeId(0);
        queue.mutate(move |g| g.set_weight(e, 0.25)).unwrap();
        let mut reference = ex.graph.clone();
        reference.set_weight(e, 0.25);
        let got = queue.submit(input.clone(), method).unwrap().wait().unwrap();
        assert_same(&got, &method.run(&reference, &input));
    }

    #[test]
    fn worker_panic_hits_exactly_the_affected_tickets() {
        // Satellite: panic recovery under admission — a poisoned input
        // coalesced with good ones must fail only its own ticket, and
        // requests queued behind the batch still complete.
        let ex = table1_example();
        let input = ex.input();
        let mut bad = input.clone();
        bad.terminals = vec![
            xsum_graph::NodeId(u32::MAX - 2),
            xsum_graph::NodeId(u32::MAX - 1),
        ];
        for threads in [1usize, 2] {
            let queue = AdmissionQueue::for_engine(
                ex.graph.clone(),
                SummaryEngine::with_threads(threads),
                AdmissionConfig {
                    queue_bound: 64,
                    max_batch: 8,
                    linger_tickets: 3, // good + bad + good coalesce together
                },
            );
            let good1 = queue.submit(input.clone(), st_method()).unwrap();
            let poisoned = queue.submit(bad.clone(), st_method()).unwrap();
            let good2 = queue.submit(input.clone(), st_method()).unwrap();
            queue.drain();
            assert_same(&good1.wait().unwrap(), &st_method().run(&ex.graph, &input));
            assert!(poisoned.wait().is_err(), "poisoned ticket must error");
            assert_same(&good2.wait().unwrap(), &st_method().run(&ex.graph, &input));
            // Later traffic is unaffected.
            let later = queue.submit(input.clone(), st_method()).unwrap();
            assert_same(&later.wait().unwrap(), &st_method().run(&ex.graph, &input));
            let stats = queue.stats();
            assert_eq!(stats.failed, 1);
            assert_eq!(stats.completed, 3);
        }
    }

    #[test]
    fn overlap_submissions_are_counted() {
        // Producers submitting while a batch is in flight ride behind
        // it — the stat that shows ingestion/dispatch overlap happens.
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig {
                queue_bound: 256,
                max_batch: 4,
                linger_tickets: 1,
            },
        );
        let mut tickets = Vec::new();
        for _ in 0..64 {
            tickets.push(queue.submit(ex.input(), st_method()).unwrap());
        }
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        // Not asserted > 0: a fast backend may clear every batch before
        // the next submit lands. The counter is exercised above and the
        // stats stay internally consistent.
        let stats = queue.stats();
        assert_eq!(stats.completed, 64);
        assert!(stats.overlap_submissions <= stats.submitted);
        assert!(stats.batches_dispatched >= 1);
    }

    #[test]
    fn try_wait_polls_and_wait_timeout_bounds_the_wait() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: usize::MAX, // nothing dispatches on its own
            },
        );
        let held = queue.submit(ex.input(), st_method()).unwrap();
        // Pure poll: the linger window is open, nothing resolved yet,
        // and polling must NOT flush (that's wait's job).
        let held = match held.try_wait() {
            Err(t) => t,
            Ok(_) => panic!("lingering ticket cannot be resolved yet"),
        };
        // A bounded wait flushes (so it cannot deadlock on its own
        // linger window) and then resolves well within the timeout.
        match held.wait_timeout(Duration::from_secs(30)) {
            Ok((outcome, _)) => {
                assert_same(&outcome.unwrap(), &st_method().run(&ex.graph, &ex.input()));
            }
            Err(_) => panic!("flushed ticket must resolve within the timeout"),
        }
        // A resolved ticket polls Ok immediately.
        let done = queue.submit(ex.input(), st_method()).unwrap();
        queue.drain();
        match done.try_wait() {
            Ok((outcome, _)) => assert!(outcome.is_ok()),
            Err(_) => panic!("drained ticket must poll resolved"),
        }
    }

    #[test]
    fn injected_dispatch_faults_keep_every_ticket_resolving() {
        use crate::faults::{FaultInjector, FaultPlan};
        let ex = table1_example();
        let injector = Arc::new(FaultInjector::new(FaultPlan {
            panics: false,
            delays: false,
            rate: 1.0,
            budget: 3,
            ..FaultPlan::seeded(7)
        }));
        let queue = AdmissionQueue::with_faults(
            EngineBackend::new(ex.graph.clone(), SummaryEngine::with_threads(2)),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 4,
                linger_tickets: 1,
            },
            Some(Arc::clone(&injector)),
        );
        let tickets: Vec<_> = (0..12)
            .map(|_| queue.submit(ex.input(), st_method()).unwrap())
            .collect();
        let want = st_method().run(&ex.graph, &ex.input());
        for t in tickets {
            // The finite budget plus the bounded per-request retry
            // guarantee every ticket resolves — and once the budget is
            // spent, resolves successfully and bit-identically.
            match t.wait() {
                Ok(got) => assert_same(&got, &want),
                Err(e) => assert!(matches!(e, AdmissionError::Engine(_))),
            }
        }
        assert!(injector.total_injected() <= 3);
        assert_eq!(injector.budget_left(), 0, "rate-1.0 tape spends the budget");
    }

    #[test]
    fn ticket_set_yields_every_member_exactly_once() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig::default(),
        );
        let set = TicketSet::new();
        for tag in 0..8u64 {
            set.add(tag + 100, queue.submit(ex.input(), st_method()).unwrap());
        }
        assert_eq!(set.len(), 8);
        let want = st_method().run(&ex.graph, &ex.input());
        let mut tags = Vec::new();
        while let Some(done) = set.wait_any() {
            assert_same(&done.result.unwrap(), &want);
            assert!(done.meta.batch > 0, "served members carry dispatch meta");
            tags.push(done.tag);
        }
        tags.sort_unstable();
        assert_eq!(tags, (100..108u64).collect::<Vec<_>>());
        assert!(set.is_empty());
        assert!(set.wait_any().is_none(), "an empty set never blocks");
    }

    #[test]
    fn ticket_set_wait_any_flushes_a_lingering_queue() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: usize::MAX, // only the set's flush can close it
            },
        );
        let set = TicketSet::new();
        set.add(1, queue.submit(ex.input(), st_method()).unwrap());
        set.add(2, queue.submit(ex.input(), st_method()).unwrap());
        // wait_any must apply the flush-up-to-own-seq discipline for
        // its members, or this would deadlock on the open window.
        assert!(set.wait_any().unwrap().result.is_ok());
        assert!(set.wait_any().unwrap().result.is_ok());
        assert!(set.wait_any().is_none());
    }

    #[test]
    fn ticket_set_poll_is_pure_and_timeout_bounds_the_wait() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                linger_tickets: usize::MAX,
            },
        );
        let set = TicketSet::new();
        set.add(7, queue.submit(ex.input(), st_method()).unwrap());
        // Pure poll: the linger window is open and poll must not flush.
        assert!(set.poll().is_none());
        assert_eq!(set.len(), 1);
        // The bounded wait flushes like the unbounded one, so it
        // resolves well within a generous timeout.
        let done = set
            .wait_any_timeout(Duration::from_secs(30))
            .expect("flushed member resolves in time");
        assert_eq!(done.tag, 7);
        assert!(done.result.is_ok());
        // An already-resolved ticket added later is immediately ready.
        let t = queue.submit(ex.input(), st_method()).unwrap();
        queue.drain();
        assert!(t.is_ready());
        set.add(8, t);
        let done = set.poll().expect("resolved member polls ready");
        assert_eq!(done.tag, 8);
    }

    #[test]
    fn dropped_ticket_set_resolves_like_shutdown_drain() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig::default(),
        );
        {
            let set = TicketSet::new();
            for tag in 0..4u64 {
                set.add(tag, queue.submit(ex.input(), st_method()).unwrap());
            }
            // Dropped with every member outstanding.
        }
        // The dispatcher still resolves every slot: drain returns and
        // the stats account for all four submissions.
        queue.drain();
        let stats = queue.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn ticket_set_single_consumer_drains_concurrent_producers() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig {
                queue_bound: 256,
                max_batch: 8,
                linger_tickets: 4,
            },
        );
        let set = TicketSet::new();
        let producers = 4usize;
        let per = 6u64;
        let drained = std::thread::scope(|scope| {
            for p in 0..producers as u64 {
                let (set, queue, ex) = (&set, &queue, &ex);
                scope.spawn(move || {
                    for i in 0..per {
                        set.add(p * per + i, queue.submit(ex.input(), st_method()).unwrap());
                    }
                });
            }
            // One consumer drains everything the producers add; the
            // bounded wait tolerates briefly observing an empty set
            // while producers are still adding.
            let mut got = Vec::new();
            while got.len() < producers * per as usize {
                if let Some(done) = set.wait_any_timeout(Duration::from_millis(50)) {
                    assert!(done.result.is_ok());
                    got.push(done.tag);
                }
            }
            got
        });
        let mut tags = drained;
        tags.sort_unstable();
        let want: Vec<u64> = (0..producers as u64 * per).collect();
        assert_eq!(tags, want, "every tag exactly once");
        assert!(set.is_empty());
    }

    #[test]
    fn weight_update_applies_without_a_barrier() {
        let ex = table1_example();
        let input = ex.input();
        let method = st_method();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig::default(),
        );
        let e = xsum_graph::EdgeId(5); // attribute edge, anchor-safe
        queue
            .submit_weight_update(vec![(e, 0.5)])
            .unwrap()
            .wait()
            .unwrap();
        let mut reference = ex.graph.clone();
        reference.set_weight(e, 0.5);
        let got = queue.submit(input.clone(), method).unwrap().wait().unwrap();
        assert_same(&got, &method.run(&reference, &input));
        let stats = queue.stats();
        assert_eq!(stats.weight_updates_applied, 1);
        assert_eq!(stats.weight_update_batches, 1);
        assert_eq!(stats.mutations_applied, 0, "not a barrier, not a mutation");
    }

    #[test]
    fn queued_weight_updates_coalesce_in_admission_order() {
        let ex = table1_example();
        let input = ex.input();
        let method = st_method();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(1),
            AdmissionConfig {
                queue_bound: 64,
                max_batch: 8,
                // The window never closes on its own, so all three
                // updates are queued together when the dispatcher
                // finally runs — one coalesced backend apply.
                linger_tickets: usize::MAX,
            },
        );
        let a = xsum_graph::EdgeId(5);
        let b = xsum_graph::EdgeId(6);
        let t1 = queue.submit_weight_update(vec![(a, 0.5)]).unwrap();
        let t2 = queue.submit_weight_update(vec![(b, 1.25)]).unwrap();
        // Later write to the same edge wins inside the coalesced batch.
        let t3 = queue.submit_weight_update(vec![(a, 0.75)]).unwrap();
        for t in [t1, t2, t3] {
            t.wait().unwrap();
        }
        let stats = queue.stats();
        assert_eq!(stats.weight_updates_applied, 3, "three edges counted");
        assert_eq!(stats.weight_update_batches, 1, "one coalesced apply");
        let mut reference = ex.graph.clone();
        reference.apply_delta(&[(a, 0.5), (b, 1.25), (a, 0.75)]);
        let got = queue.submit(input.clone(), method).unwrap().wait().unwrap();
        assert_same(&got, &method.run(&reference, &input));
    }

    #[test]
    fn weight_update_waits_behind_a_structural_barrier() {
        let ex = table1_example();
        let input = ex.input();
        let method = st_method();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig::default(),
        );
        // A structural mutation (barrier) queued ahead of the weight
        // update: the update must apply to the post-mutation graph —
        // in particular to the edge id space after the added edge.
        let u = xsum_graph::NodeId(0);
        let v = xsum_graph::NodeId(1);
        let mut reference = ex.graph.clone();
        let new_edge = {
            let mut probe = ex.graph.clone();
            probe.add_edge(u, v, 1.0, xsum_graph::EdgeKind::Interaction)
        };
        queue
            .mutate(move |g| {
                g.add_edge(u, v, 1.0, xsum_graph::EdgeKind::Interaction);
            })
            .unwrap();
        queue
            .submit_weight_update(vec![(new_edge, 2.5)])
            .unwrap()
            .wait()
            .unwrap();
        reference.add_edge(u, v, 1.0, xsum_graph::EdgeKind::Interaction);
        reference.set_weight(new_edge, 2.5);
        let got = queue.submit(input.clone(), method).unwrap().wait().unwrap();
        assert_same(&got, &method.run(&reference, &input));
        let stats = queue.stats();
        assert_eq!(stats.mutations_applied, 1);
        assert_eq!(stats.weight_updates_applied, 1);
    }

    #[test]
    fn failed_weight_update_poisons_like_a_failed_mutation() {
        use crate::faults::{FaultInjector, FaultPlan};
        let ex = table1_example();
        // rate-1.0, budget-1 tape: the first draw — the weight
        // update's AdmissionMutate hook — fires, nothing after it.
        let injector = Arc::new(FaultInjector::new(FaultPlan {
            panics: false,
            delays: false,
            rate: 1.0,
            budget: 1,
            ..FaultPlan::seeded(11)
        }));
        let queue = AdmissionQueue::with_faults(
            EngineBackend::new(ex.graph.clone(), SummaryEngine::with_threads(1)),
            AdmissionConfig::default(),
            Some(Arc::clone(&injector)),
        );
        let err = queue
            .submit_weight_update(vec![(xsum_graph::EdgeId(5), 0.5)])
            .unwrap()
            .wait();
        assert!(matches!(err, Err(AdmissionError::Engine(_))));
        // Poisoned exactly like a failed barrier: no new admissions of
        // any kind until recovery.
        assert!(matches!(
            queue.submit_weight_update(vec![(xsum_graph::EdgeId(5), 0.5)]),
            Err(AdmissionError::Poisoned)
        ));
        match queue.submit(ex.input(), st_method()) {
            Err(AdmissionError::Poisoned) => {}
            Ok(t) => assert!(t.wait().is_err()),
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
        // Recovery rolls back to the last coherent snapshot; the failed
        // update is a no-op and serving matches the pristine graph.
        queue.recover().unwrap();
        let got = queue
            .submit(ex.input(), st_method())
            .unwrap()
            .wait()
            .unwrap();
        assert_same(&got, &st_method().run(&ex.graph, &ex.input()));
        assert_eq!(queue.stats().weight_updates_applied, 0);
    }

    #[test]
    fn sharded_backend_applies_weight_updates_coherently() {
        let ex = table1_example();
        let input = ex.input();
        let method = st_method();
        for shards in [1usize, 2, 4] {
            let sharded = ShardedEngine::with_threads(&ex.graph, shards, 1);
            let queue = AdmissionQueue::for_sharded(sharded, AdmissionConfig::default());
            let e = xsum_graph::EdgeId(5);
            queue
                .submit_weight_update(vec![(e, 0.5)])
                .unwrap()
                .wait()
                .unwrap();
            let mut reference = ex.graph.clone();
            reference.set_weight(e, 0.5);
            let got = queue.submit(input.clone(), method).unwrap().wait().unwrap();
            assert_same(&got, &method.run(&reference, &input));
        }
    }
}
