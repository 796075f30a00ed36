//! Serving summaries from a long-lived `SummaryEngine`.
//!
//! The free functions (`steiner_summary`, `summarize_batch`) rebuild
//! their worker state on every call; a serving process instead holds
//! one engine for the lifetime of the graph and gets:
//!
//! * a pinned worker pool (threads parked between batches),
//! * per-worker Steiner workspaces and Eq. 1 cost buffers that stay
//!   warm across calls,
//! * a (graph-epoch, config)-keyed cost-model cache.
//!
//! ```text
//! cargo run --release --example summary_engine
//! ```

use std::time::Instant;

use xsum::core::{summarize_batch, BatchMethod, SteinerConfig, SummaryEngine, SummaryInput};
use xsum::datasets::ml1m_scaled;
use xsum::rec::{MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig};

fn main() {
    let ds = ml1m_scaled(42, 0.03);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let g = &ds.kg.graph;

    // One explanation input per user — the serving workload.
    let users: Vec<usize> = (0..24.min(ds.kg.n_users())).collect();
    let inputs: Vec<SummaryInput> = users
        .iter()
        .filter_map(|&u| {
            let out = pgpr.recommend(u, 10);
            let paths = out.paths(out.len());
            (!paths.is_empty()).then(|| SummaryInput::user_centric(ds.kg.user_node(u), paths))
        })
        .collect();
    let method = BatchMethod::Steiner(SteinerConfig::default());

    // The engine is constructed once and held for the process lifetime.
    let mut engine = SummaryEngine::new();
    println!(
        "engine: {} pinned workers, {} inputs\n",
        engine.threads(),
        inputs.len()
    );

    // Serving loop: many batches against one graph. The first call pays
    // the Eq. 1 model build + buffer warmup; later calls reuse it all.
    for round in 0..3 {
        let t = Instant::now();
        let summaries = engine.summarize_batch(g, &inputs, method);
        let (hits, misses) = engine.cost_cache_stats();
        println!(
            "batch round {round}: {} summaries in {:.2} ms (cost-model cache: {hits} hits / {misses} misses)",
            summaries.len(),
            t.elapsed().as_secs_f64() * 1e3,
        );
    }

    // One-shot comparison: the free function rebuilds its engine per
    // call, so issuing the same batch through it costs the setup again.
    let t = Instant::now();
    let free = summarize_batch(g, &inputs, method);
    println!(
        "one-shot summarize_batch:        {} summaries in {:.2} ms (worker state rebuilt)\n",
        free.len(),
        t.elapsed().as_secs_f64() * 1e3,
    );

    // Warm single-summary serving: the engine patches O(|paths|) edges
    // per call instead of re-materializing the O(|E|) cost table.
    let t = Instant::now();
    for input in &inputs {
        std::hint::black_box(engine.summarize(g, input, method));
    }
    println!(
        "warm single-summary serving:     {:.3} ms/summary",
        t.elapsed().as_secs_f64() * 1e3 / inputs.len() as f64
    );
}
