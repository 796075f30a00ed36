//! Live weight updates without rebuilds or barriers: the delta ledger
//! end-to-end.
//!
//! A recommender's edge weights move constantly (new ratings, decayed
//! interactions) while its topology barely changes. This example walks
//! the delta-aware mutation pipeline that makes weight-only writes
//! cheap at every layer:
//!
//! 1. the [`Graph`] ledger — `apply_delta` records `(edge, old_bits,
//!    new_bits)` and `delta_since` replays it, invertibly;
//! 2. a warm [`SummaryEngine`] patching its resident Eq. 1 cost tables
//!    in O(|touched|) instead of rebuilding O(|E|) state;
//! 3. an [`AdmissionQueue`] applying coalesced weight updates
//!    *without* a mutation barrier, while summaries keep flowing.
//!
//! ```text
//! cargo run --release --example live_updates
//! ```

use std::time::Instant;

use xsum::core::{
    AdmissionConfig, AdmissionQueue, BatchMethod, SteinerConfig, SummaryEngine, SummaryInput,
};
use xsum::datasets::ml1m_scaled;
use xsum::graph::EdgeId;
use xsum::rec::{MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig};

fn main() {
    let ds = ml1m_scaled(42, 0.03);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let mut g = ds.kg.graph.clone();
    g.freeze();

    let users: Vec<usize> = (0..32.min(ds.kg.n_users())).collect();
    let inputs: Vec<SummaryInput> = users
        .iter()
        .filter_map(|&u| {
            let out = pgpr.recommend(u, 10);
            let paths = out.paths(out.len());
            (!paths.is_empty()).then(|| SummaryInput::user_centric(ds.kg.user_node(u), paths))
        })
        .collect();
    let cfg = SteinerConfig::default();
    let method = BatchMethod::Steiner(cfg);

    // Anchor-safe update stream: rescale existing weights downward so
    // the Eq. 1 anchor (`base_max`) never moves and every layer below
    // can take its O(|touched|) patch path instead of a rebuild.
    let base_max = g.edge_ids().fold(0.0f64, |m, e| m.max(g.weight(e)));
    let delta_for = |g: &xsum::graph::Graph, round: u64| -> Vec<(EdgeId, f64)> {
        let m = g.edge_count();
        (0..m / 100)
            .map(|i| EdgeId(((i * 97 + round as usize * 13) % m) as u32))
            .filter(|e| g.weight(*e).to_bits() != base_max.to_bits())
            .map(|e| (e, g.weight(e) * 0.75))
            .collect()
    };

    // 1. The ledger: one epoch per batch, invertible bit-exact records.
    let pre_bits = g.weight(EdgeId(0)).to_bits();
    let epoch_before = g.epoch();
    let batch = delta_for(&g, 0);
    g.apply_delta(&batch);
    let recs = g
        .delta_since(epoch_before)
        .expect("weight-only batch keeps the ledger chain alive");
    println!(
        "ledger: {} updates -> 1 delta epoch, {} bit-changing records",
        batch.len(),
        recs.len(),
    );
    let undo: Vec<(EdgeId, f64)> = recs
        .iter()
        .map(|r| {
            let inv = r.inverse();
            (inv.edge, f64::from_bits(inv.new_bits))
        })
        .collect();
    g.apply_delta(&undo);
    assert_eq!(g.weight(EdgeId(0)).to_bits(), pre_bits);
    println!("ledger: inverse() replay restored the exact pre-delta bits\n");

    // 2. Warm engine: absorb a stream of deltas by patching resident
    // cost tables, and compare against rebuilding a cold engine.
    let mut warm = SummaryEngine::new();
    warm.summarize_batch(&g, &inputs, method); // warm the resident state
    let rounds = 8u64;
    let t = Instant::now();
    for round in 1..=rounds {
        g.apply_delta(&delta_for(&g, round));
        warm.summarize(&g, &inputs[0], method);
    }
    let patched_ms = t.elapsed().as_secs_f64() * 1e3 / rounds as f64;
    let t = Instant::now();
    for round in 1..=rounds {
        g.apply_delta(&delta_for(&g, round));
        SummaryEngine::new().summarize(&g, &inputs[0], method);
    }
    let rebuilt_ms = t.elapsed().as_secs_f64() * 1e3 / rounds as f64;
    println!(
        "warm engine: {} deltas absorbed with {} cost-table patches \
         ({:.3} ms/round patched vs {:.3} ms/round cold rebuild)\n",
        rounds,
        warm.cost_cache_patches(),
        patched_ms,
        rebuilt_ms,
    );

    // 3. The admission queue: weight updates are NOT barriers — they
    // coalesce in admission order and ride ahead of the next batch
    // while the linger window stays open and summaries keep flowing.
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::new(),
        AdmissionConfig {
            queue_bound: 256,
            max_batch: 32,
            linger_tickets: 4,
        },
    );
    let t = Instant::now();
    let mut tickets = Vec::new();
    for round in 0..4u64 {
        for (i, input) in inputs.iter().enumerate() {
            if i % 4 == 0 {
                // Fire-and-forget: dropping the ticket is allowed.
                let _ = queue
                    .submit_weight_update(delta_for(&g, 100 + round * 8 + i as u64))
                    .expect("queue is live");
            }
            tickets.push(queue.submit(input.clone(), method).expect("queue is live"));
        }
    }
    let served = tickets.len();
    for ticket in tickets {
        ticket.wait().expect("well-formed input serves");
    }
    let elapsed = t.elapsed().as_secs_f64();
    let stats = queue.stats();
    println!(
        "admission queue: {} summaries at {:.0}/s while {} live edge updates \
         landed in {} coalesced non-barrier batches ({} structural barriers)",
        served,
        served as f64 / elapsed,
        stats.weight_updates_applied,
        stats.weight_update_batches,
        stats.mutations_applied,
    );
    queue.shutdown();
}
