//! # xsum-graph
//!
//! Typed property-graph substrate underpinning the `xsum` reproduction of
//! *"Path-based summary explanations for graph recommenders"* (ICDE 2025).
//!
//! The paper's knowledge-based graph `G(V, E, w)` contains three node
//! populations — users `U`, items `I`, and external knowledge entities `V_A`
//! — connected by weighted interaction (user→item) and attribute
//! (user/item→entity) edges. This crate provides:
//!
//! * [`Graph`]: compact storage with typed nodes and weighted, directed
//!   edges, traversed through an undirected view (the paper's summaries
//!   are *weakly* connected subgraphs). Adjacency is a **frozen CSR
//!   layout** — flat offset/neighbor arrays built once per mutation epoch
//!   — so the search kernels stream cache-resident slices instead of
//!   chasing per-node heap pointers;
//! * [`IndexedDaryHeap`]: the indexed 4-ary min-heap with decrease-key
//!   under every search kernel — one position-tracked slot per open
//!   node (no stale entries), generation-stamped O(1) clears,
//!   deterministic `(cost, tie)` order;
//! * [`DijkstraWorkspace`]: reusable shortest-path state (distance /
//!   parent / heap buffers plus generation-stamped visited and target
//!   arrays) making repeated searches allocation-free after warmup, with
//!   O(1) clears, O(1) early-exit target accounting, and a CSR-resident
//!   relaxation loop streaming the frozen adjacency and cost slices;
//! * [`WorkerPool`]: the one threading substrate — a persistent pool of
//!   threads spawned once and parked between calls, running a
//!   work-stealing map with per-worker state ([`WorkerPool::map_with`])
//!   or a statically paired one ([`WorkerPool::zip_map`]) over borrowed
//!   caller data, so a long-lived serving engine pays one condvar
//!   broadcast per fork–join instead of one thread spawn per worker —
//!   the engine's substitute for rayon in registry-less builds;
//! * [`Path`]: a validated walk through the graph, the unit of individual
//!   path-based explanations;
//! * [`Subgraph`]: an edge/node subset of a parent graph, the unit of
//!   summary explanations;
//! * shortest paths ([`dijkstra()`]), traversal and weak connectivity
//!   ([`traversal`]), minimum spanning trees ([`mst`]) and a disjoint-set
//!   forest ([`UnionFind`]) — the building blocks of the paper's
//!   Algorithm 1 (Steiner tree via MST approximation) and Algorithm 2
//!   (prize-collecting Steiner tree);
//! * [`fxhash`]: a fast, non-cryptographic hasher for integer-keyed maps on
//!   the hot paths (HashDoS resistance is irrelevant for in-process ids).
//!
//! Everything is deterministic: no global state, no randomness.

pub mod centrality;
pub mod dheap;
pub mod dijkstra;
pub mod fxhash;
pub mod graph;
pub mod ids;
pub mod loosepath;
pub mod mst;
pub mod pagerank;
pub mod path;
pub mod pool;
pub mod subgraph;
pub mod sync;
pub mod traversal;
pub mod unionfind;

pub use centrality::{betweenness_centrality, closeness_centrality, degree_centrality};
pub use dheap::IndexedDaryHeap;
pub use dijkstra::{dijkstra, shortest_path, DijkstraResult, DijkstraWorkspace};
pub use fxhash::{FxHashMap, FxHashSet};
pub use graph::{CsrView, Edge, EdgeCosts, EdgeKind, Graph, GraphBuilder, WeightDeltaRec};
pub use ids::{EdgeId, NodeId, NodeKind};
pub use loosepath::LoosePath;
pub use mst::{kruskal, prim, prim_with, MstEdge, PrimWorkspace};
pub use pagerank::{pagerank, PageRankConfig};
pub use path::Path;
pub use pool::{num_threads, DispatchHook, InFlightJob, WorkerPool};
pub use subgraph::Subgraph;
pub use traversal::{
    bfs_order, is_weakly_connected, is_weakly_connected_in_subgraph, weakly_connected_components,
};
pub use unionfind::UnionFind;
