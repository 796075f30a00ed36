//! Sharded serving: per-shard engine replicas behind scatter/gather.
//!
//! A single `SummaryEngine` serves one worker pool and one cost-model
//! cache. `ShardedEngine` scales that shape horizontally: N engine
//! replicas over N full graph replicas, Fx-hash routing pinning each
//! user to a home shard (its replica's caches stay warm), a
//! scatter/gather planner for mixed batches, and coherent
//! cross-replica mutation.
//!
//! ```text
//! cargo run --release --example sharded_serving
//! ```

use std::time::Instant;

use xsum::core::{BatchMethod, ShardedEngine, SteinerConfig, SummaryEngine, SummaryInput};
use xsum::datasets::ml1m_scaled;
use xsum::rec::{MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig};

fn main() {
    let ds = ml1m_scaled(42, 0.03);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let g = &ds.kg.graph;

    // One explanation input per user — a mixed batch spanning many
    // routing identities.
    let users: Vec<usize> = (0..32.min(ds.kg.n_users())).collect();
    let inputs: Vec<SummaryInput> = users
        .iter()
        .filter_map(|&u| {
            let out = pgpr.recommend(u, 10);
            let paths = out.paths(out.len());
            (!paths.is_empty()).then(|| SummaryInput::user_centric(ds.kg.user_node(u), paths))
        })
        .collect();
    let method = BatchMethod::Steiner(SteinerConfig::default());

    // The sharded front-end owns its graph replicas: constructed once,
    // mutated only through `mutate`/`set_weight` so replicas stay
    // content-identical.
    let shards = 4;
    let mut sharded = ShardedEngine::new(g, shards);
    let mut spread = vec![0usize; shards];
    for input in &inputs {
        spread[sharded.shard_of_input(input)] += 1;
    }
    println!(
        "sharded engine: {} replicas, {} inputs routed {:?}\n",
        sharded.shards(),
        inputs.len(),
        spread
    );

    // Scatter/gather serving loop — outputs are bit-identical to one
    // engine (full-replica sharding), so correctness never depends on
    // the routing.
    let mut single = SummaryEngine::new();
    for round in 0..3 {
        let t = Instant::now();
        let summaries = sharded.summarize_batch(&inputs, method);
        let sharded_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let reference = single.summarize_batch(g, &inputs, method);
        let single_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(summaries.len(), reference.len());
        for (a, b) in summaries.iter().zip(&reference) {
            assert_eq!(a.subgraph.sorted_edges(), b.subgraph.sorted_edges());
        }
        println!(
            "batch round {round}: {} summaries — sharded {:.2} ms vs single engine {:.2} ms \
             (bit-identical)",
            summaries.len(),
            sharded_ms,
            single_ms,
        );
    }

    // Coherent mutation: one write moves every replica's epoch. A
    // weight-only write is a ledger delta, so each replica's cost cache
    // patches in place on its next request (a miss only if the Eq. 1
    // anchor moves).
    let before: Vec<u64> = sharded.cost_cache_stats().iter().map(|s| s.1).collect();
    sharded.set_weight(xsum::graph::EdgeId(0), 4.5);
    sharded.summarize_batch(&inputs, method);
    let after: Vec<u64> = sharded.cost_cache_stats().iter().map(|s| s.1).collect();
    println!(
        "\nmutation propagated: per-shard cost-model misses {:?} -> {:?}, patches {:?}",
        before,
        after,
        sharded.cost_cache_patches()
    );
}
