//! Batched summarization: fan a slice of [`SummaryInput`]s across
//! threads.
//!
//! Serving summary explanations to a user base means computing thousands
//! of independent summaries against one shared, frozen knowledge graph —
//! an embarrassingly parallel workload. [`summarize_batch`] distributes
//! inputs over the engine's worker threads
//! ([`WorkerPool::map_with`](xsum_graph::WorkerPool::map_with)) with
//! work stealing, so skewed inputs (one giant group summary among
//! many small user-centric ones) still balance.
//!
//! Each worker owns one
//! [`SteinerWorkspace`](crate::steiner::SteinerWorkspace) (plus a
//! private copy of the shared cost-model base) for the duration of the
//! batch: setup is O(workers · |E|) per call, amortized across the
//! batch, after which each further summary runs without touching the
//! allocator for search state. Output order always matches input
//! order, and every method produces bit-identical results to its
//! sequential entry point ([`steiner_summary`] / [`pcst_summary`] /
//! [`gw_pcst_summary`]). Since the persistent-engine refactor these
//! free functions are one-shot wrappers over
//! [`SummaryEngine`]: callers issuing
//! many batches against the same graph should hold an engine instead,
//! which keeps the worker pool, workspaces, and cost-model cache warm
//! across calls.
//!
//! [`steiner_summary`]: crate::steiner_summary
//! [`pcst_summary`]: crate::pcst_summary
//! [`gw_pcst_summary`]: crate::gw_pcst_summary

use xsum_graph::{num_threads, Graph};

use crate::engine::SummaryEngine;
use crate::gw::gw_pcst_summary;
use crate::input::SummaryInput;
use crate::pcst::{pcst_summary, PcstConfig};
use crate::steiner::{steiner_summary, steiner_summary_fast, SteinerConfig};
use crate::summary::Summary;

/// Which summarizer a batch runs, with its configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchMethod {
    /// Algorithm 1 (KMB Steiner tree) with the given config.
    Steiner(SteinerConfig),
    /// The Mehlhorn-accelerated ST variant (same 2-approximation, one
    /// multi-source Dijkstra instead of |T|) — the serving fast path.
    SteinerFast(SteinerConfig),
    /// Algorithm 2 (Prim-style PCST growth) with the given config.
    Pcst(PcstConfig),
    /// The Goemans–Williamson PCST 2-approximation with the given config.
    GwPcst(PcstConfig),
}

impl BatchMethod {
    /// The method label the produced summaries carry.
    pub fn name(&self) -> &'static str {
        match self {
            BatchMethod::Steiner(_) => "ST",
            BatchMethod::SteinerFast(_) => "ST-fast",
            BatchMethod::Pcst(_) => "PCST",
            BatchMethod::GwPcst(_) => "GW-PCST",
        }
    }

    /// Run the configured summarizer on one input, through the same
    /// sequential entry point users call directly.
    #[inline]
    pub fn run(&self, g: &Graph, input: &SummaryInput) -> Summary {
        match self {
            BatchMethod::Steiner(cfg) => steiner_summary(g, input, cfg),
            BatchMethod::SteinerFast(cfg) => steiner_summary_fast(g, input, cfg),
            BatchMethod::Pcst(cfg) => pcst_summary(g, input, cfg),
            BatchMethod::GwPcst(cfg) => gw_pcst_summary(g, input, cfg),
        }
    }
}

/// Summarize every input with `method`, in parallel, preserving order.
///
/// Uses [`num_threads`] workers; see [`summarize_batch_threads`] to pin
/// the worker count (e.g. `1` for a sequential baseline measurement).
pub fn summarize_batch(g: &Graph, inputs: &[SummaryInput], method: BatchMethod) -> Vec<Summary> {
    summarize_batch_threads(g, inputs, method, num_threads())
}

/// [`summarize_batch`] with an explicit worker count (clamped to ≥ 1).
///
/// Spins up a one-shot [`SummaryEngine`] for the call — same worker
/// fan-out, same cost-model amortization, same bit-identical outputs.
/// `threads = 1` stays strictly sequential on the calling thread.
pub fn summarize_batch_threads(
    g: &Graph,
    inputs: &[SummaryInput],
    method: BatchMethod,
    threads: usize,
) -> Vec<Summary> {
    // Size the one-shot pool to the batch (a 2-input batch must not
    // spawn 16 workers), but keep the caller's full thread budget as
    // the lone worker's inner metric-closure fan-out — the pre-engine
    // `summarize_batch` semantics.
    let threads = threads.max(1);
    let workers = threads.min(inputs.len()).max(1);
    SummaryEngine::with_threads_and_budget(workers, threads).summarize_batch(g, inputs, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::SummaryInput;
    use crate::pathfree::{generate_explanations, PathGenConfig};
    use xsum_graph::{EdgeKind, Graph, NodeId, NodeKind};

    /// A small two-community KG with enough structure for distinct
    /// summaries per user.
    fn fixture() -> (Graph, Vec<SummaryInput>) {
        let mut g = Graph::new();
        let users: Vec<NodeId> = (0..6).map(|_| g.add_node(NodeKind::User)).collect();
        let items: Vec<NodeId> = (0..8).map(|_| g.add_node(NodeKind::Item)).collect();
        let ents: Vec<NodeId> = (0..3).map(|_| g.add_node(NodeKind::Entity)).collect();
        for (u, &user) in users.iter().enumerate() {
            for j in 0..3 {
                let item = items[(u + j * 2) % items.len()];
                if g.find_edge(user, item).is_none() {
                    g.add_edge(
                        user,
                        item,
                        1.0 + (u + j) as f64 % 5.0,
                        EdgeKind::Interaction,
                    );
                }
            }
        }
        for (i, &item) in items.iter().enumerate() {
            g.add_edge(item, ents[i % ents.len()], 0.0, EdgeKind::Attribute);
        }
        let inputs: Vec<SummaryInput> = users
            .iter()
            .filter_map(|&u| {
                let recs: Vec<NodeId> = items.iter().copied().take(4).collect();
                let paths = generate_explanations(&g, u, &recs, &PathGenConfig::default());
                (!paths.is_empty()).then(|| SummaryInput::user_centric(u, paths))
            })
            .collect();
        assert!(inputs.len() >= 4, "fixture must produce real inputs");
        (g, inputs)
    }

    fn assert_same(a: &Summary, b: &Summary) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.terminals, b.terminals);
        assert_eq!(a.subgraph.sorted_edges(), b.subgraph.sorted_edges());
        assert_eq!(a.subgraph.sorted_nodes(), b.subgraph.sorted_nodes());
    }

    #[test]
    fn batch_matches_sequential_for_all_methods() {
        let (g, inputs) = fixture();
        let methods = [
            BatchMethod::Steiner(SteinerConfig::default()),
            BatchMethod::SteinerFast(SteinerConfig::default()),
            BatchMethod::Pcst(PcstConfig::default()),
            BatchMethod::GwPcst(PcstConfig::default()),
        ];
        for method in methods {
            let batch = summarize_batch(&g, &inputs, method);
            assert_eq!(batch.len(), inputs.len());
            for (input, got) in inputs.iter().zip(&batch) {
                let want = method.run(&g, input);
                assert_same(&want, got);
            }
        }
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let (g, inputs) = fixture();
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let seq = summarize_batch_threads(&g, &inputs, method, 1);
        let par = summarize_batch_threads(&g, &inputs, method, 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_same(a, b);
        }
    }

    #[test]
    fn empty_batch() {
        let (g, _) = fixture();
        let out = summarize_batch(&g, &[], BatchMethod::Pcst(PcstConfig::default()));
        assert!(out.is_empty());
    }

    #[test]
    fn method_names() {
        assert_eq!(BatchMethod::Steiner(SteinerConfig::default()).name(), "ST");
        assert_eq!(
            BatchMethod::SteinerFast(SteinerConfig::default()).name(),
            "ST-fast"
        );
        assert_eq!(BatchMethod::Pcst(PcstConfig::default()).name(), "PCST");
        assert_eq!(BatchMethod::GwPcst(PcstConfig::default()).name(), "GW-PCST");
    }

    #[test]
    fn fast_batch_covers_all_terminals() {
        let (g, inputs) = fixture();
        let out = summarize_batch(
            &g,
            &inputs,
            BatchMethod::SteinerFast(SteinerConfig::default()),
        );
        for s in &out {
            assert_eq!(s.method, "ST-fast");
            assert_eq!(s.terminal_coverage(), 1.0);
        }
    }
}
