//! # xsum-core
//!
//! The paper's primary contribution: **summary explanations** for
//! graph-based recommenders, computed with Steiner-tree machinery.
//!
//! Given a knowledge-based graph `G`, a set of terminal nodes `T` (the
//! user/item plus their recommendations) and the individual explanation
//! paths `P`, a summary explanation is a weakly connected subgraph `S`
//! of `G` that contains all terminals, with as few edges and as much
//! weight as possible (§III). Two algorithms:
//!
//! * [`steiner_summary`] — Algorithm 1: the Kou–Markowsky–Berman MST
//!   approximation of the Steiner tree over `T`, run on edge costs derived
//!   from the λ-boosted weights of Eq. 1 ([`adjusted_weights`]);
//! * [`pcst_summary`] — Algorithm 2: a Prim-style prize-collecting growth
//!   seeded at high-prize terminals, run on a configurable scope subgraph
//!   (§V-A uses prizes 1/0 and ignores edge weights);
//! * [`gw_pcst_summary`] — the Goemans–Williamson moat-growing
//!   2-approximation the paper cites (\[54\]), provided as the
//!   ablation-grade alternative PCST solver.
//!
//! The four summarization scenarios (user-centric, item-centric,
//! user-group, item-group) are expressed as [`SummaryInput`] constructors,
//! and [`render`] verbalizes paths and summaries exactly like the paper's
//! Table I / user-study stimuli.
//!
//! ## The batch engine
//!
//! Serving-scale throughput comes from three layers working together:
//!
//! * the graph substrate stores adjacency as a frozen CSR and exposes
//!   reusable, generation-stamped [`DijkstraWorkspace`]s
//!   ([`xsum_graph`]);
//! * [`steiner_tree`] keeps all KMB scratch (terminal dedup, metric
//!   closure, path arena, per-worker Dijkstra state) in a reusable
//!   [`SteinerWorkspace`] and allocates nothing but the output subgraph
//!   once warm. For large terminal sets (|T| ≥ 24) the metric closure
//!   fans out on a pool the workspace spawns at its first fan-out: a
//!   fresh workspace's budget is [`num_threads`](xsum_graph::num_threads)
//!   and [`SteinerWorkspace::set_parallelism`] caps it. The sequential
//!   entry points and the engine's multi-worker batches pin it to 1, so
//!   they never spawn threads of their own;
//! * [`summarize_batch`] fans a slice of [`SummaryInput`]s across worker
//!   threads for ST, ST-fast ([`steiner_summary_fast`], the Mehlhorn
//!   closure), PCST, and GW-PCST alike, each worker reusing its own
//!   workspace across the summaries it processes, with results
//!   bit-identical to the sequential entry points and returned in input
//!   order;
//! * [`SummaryEngine`] makes all of that state *persistent* for serving:
//!   a pinned [`WorkerPool`](xsum_graph::WorkerPool) parked between
//!   calls, per-worker workspaces and Eq. 1 cost buffers that survive
//!   across batches, and a (graph-epoch, config)-keyed
//!   [`CostModelCache`] (a thread-local instance of which also backs
//!   the sequential [`steiner_summary`] / [`steiner_summary_fast`]
//!   calls);
//! * [`ShardedEngine`] scales the engine horizontally: N engine
//!   replicas, each over a full graph clone, behind [`HashRouter`]
//!   routing, with a scatter/gather batch planner (mixed batches
//!   grouped by shard, dispatched onto the replicas' pools
//!   concurrently, gathered in input order, bit-identical to a single
//!   engine), and coherent cross-replica mutation
//!   ([`ShardedEngine::mutate`]);
//! * [`AdmissionQueue`] makes either engine *asynchronous* without an
//!   async runtime: a bounded submission queue accepting single and
//!   batch requests from many producer threads, coalescing queued
//!   singles into engine batches (ticket-count linger window,
//!   first-in, first-out order), resolving condvar-backed
//!   [`SummaryTicket`]s, applying graph mutations as barriers, and
//!   isolating worker panics to exactly the affected tickets —
//!   bit-identical to direct [`SummaryEngine::summarize_batch`] calls
//!   (`tests/prop_admission.rs`);
//! * [`wire`] puts the queue on the network's terms: versioned
//!   request/response records in a compact length-prefixed binary
//!   framing (bit-exact `f64` params via `to_bits`), and
//!   [`serve_stream`] — a front-end that decodes frames from any byte
//!   stream and submits through the queue, while a writer thread
//!   multiplexes completions with a [`TicketSet`] and writes each
//!   response as soon as it resolves (completion order, request-id
//!   correlation, one flush per burst of ready responses).
//!
//! [`DijkstraWorkspace`]: xsum_graph::DijkstraWorkspace

#![forbid(unsafe_code)]

pub mod admission;
pub mod batch;
pub mod breaker;
pub mod engine;
pub mod exact;
pub mod export;
pub mod faults;
pub mod gw;
pub mod input;
#[cfg(xsum_loom)]
pub mod modelcheck;
pub mod pathfree;
pub mod pcst;
pub mod prizes;
pub mod render;
pub mod shard;
pub mod steiner;
pub mod summary;
pub mod weighting;
pub mod wire;

pub use admission::{
    AdmissionBackend, AdmissionConfig, AdmissionError, AdmissionQueue, AdmissionStats,
    CompletedTicket, DispatchMeta, EngineBackend, OverloadPolicy, SummaryTicket, TicketSet,
    WeightUpdateTicket,
};
pub use batch::{summarize_batch, summarize_batch_threads, BatchMethod};
pub use breaker::CircuitBreaker;
pub use engine::{EngineError, SummaryEngine};
pub use exact::{
    exact_steiner_cost, exact_steiner_tree, optimality_gap, OptimalityGap, MAX_EXACT_TERMINALS,
};
pub use export::{overlay_to_dot, summary_to_dot, summary_to_tsv};
pub use faults::{FaultInjector, FaultKind, FaultPlan, FaultSite};
pub use gw::gw_pcst_summary;
pub use input::{Scenario, SummaryInput};
pub use pathfree::{
    generate_explanations, path_free_item_centric, path_free_user_centric, path_free_user_group,
    PathGenConfig,
};
pub use pcst::{pcst_summary, PcstConfig, PcstScope};
pub use prizes::{node_prizes, pcst_summary_with_policy, PrizePolicy};
pub use render::{render_path, render_summary, table1_example, Table1Example};
pub use shard::{BreakerState, CircuitConfig, HashRouter, ShardedEngine};
pub use steiner::{
    flush_cost_model_cache, steiner_costs, steiner_summary, steiner_summary_fast, steiner_tree,
    steiner_tree_fast, steiner_tree_fast_with, steiner_tree_with, CostModelCache, CostModelKey,
    SteinerConfig, SteinerCostModel, SteinerWorkspace,
};
pub use summary::Summary;
pub use weighting::adjusted_weights;
pub use wire::{
    decode_frame, encode_frame, read_frame, serve_stream, write_frame, MutationRequest,
    MutationResponse, ServeReport, SummaryRequest, SummaryResponse, WireError, WireFrame,
    WireMutation, WireSummary, MAX_FRAME_LEN, WIRE_VERSION,
};
