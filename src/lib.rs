//! # xsum — path-based summary explanations for graph recommenders
//!
//! A production-grade Rust reproduction of *"Path-based summary
//! explanations for graph recommenders"* (Pla Karidi & Pitoura,
//! ICDE 2025): summary explanations that tell a user — or an item
//! provider, or a whole user/item group — *why* a set of recommendations
//! was made, by summarizing the individual explanation paths of a
//! graph-based recommender into one small, weakly connected subgraph via
//! Steiner-tree and prize-collecting Steiner-tree algorithms.
//!
//! ## Crate map
//!
//! * [`graph`] — typed property-graph substrate (storage, Dijkstra, MST,
//!   union-find, connectivity, paths and subgraphs);
//! * [`kg`] — the knowledge-based recommendation graph of §III (rating
//!   matrix, rating/recency weight functions, graph statistics);
//! * [`datasets`] — synthetic ML1M / LFM1M / Table III corpora calibrated
//!   to the paper's statistics;
//! * [`rec`] — path-producing baseline recommenders (BPR-MF scorer plus
//!   PGPR/CAFE/PLM/PEARLM-style explainers);
//! * [`core`] — the paper's contribution: the four summarization
//!   scenarios, Eq. 1 weighting, Algorithm 1 (ST), Algorithm 2 (PCST),
//!   the Goemans–Williamson 2-approximation, the exact Dreyfus–Wagner
//!   oracle, path-free generation for black-box recommenders, DOT/TSV
//!   export, and the Table I renderer;
//! * [`metrics`] — the §V-B quality metrics and performance
//!   instrumentation.
//!
//! ## Quickstart
//!
//! ```
//! use xsum::core::{table1_example, render_summary};
//!
//! // The paper's worked example: three explanation paths (13 edges)
//! // summarized into a 6-edge tree.
//! let ex = table1_example();
//! let summary = ex.summarize();
//! assert_eq!(ex.total_input_length(), 13);
//! assert_eq!(summary.edge_count(), 6);
//! println!("{}", render_summary(&ex.graph, &summary, ex.user1));
//! ```
//!
//! For the end-to-end pipeline (dataset → recommender → summary →
//! metrics) see `examples/movie_explanations.rs`; to regenerate the
//! paper's tables and figures run the `repro` binary of `xsum-bench`;
//! for one-off summaries from the command line use the `xsum` binary
//! (`cargo run --bin xsum -- --user 42 --format dot`).

#![forbid(unsafe_code)]

pub use xsum_core as core;
pub use xsum_datasets as datasets;
pub use xsum_graph as graph;
pub use xsum_kg as kg;
pub use xsum_metrics as metrics;
pub use xsum_rec as rec;
