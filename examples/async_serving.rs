//! Async serving through the admission queue: many producer threads,
//! one coalescing dispatcher, no second thread pool.
//!
//! `SummaryEngine` is synchronous — a front-end wanting to ingest
//! requests while a batch is in flight would need its own thread pool.
//! `AdmissionQueue` closes the gap with a bounded submission queue:
//! producers submit from any thread and get a completion ticket
//! (condvar-backed — no async runtime); a dispatcher thread coalesces
//! queued singles into engine batches (ticket-count linger window),
//! serves them first in, first out, and applies graph mutations as
//! barriers between batches.
//!
//! ```text
//! cargo run --release --example async_serving
//! ```

use std::time::Instant;

use xsum::core::{
    AdmissionConfig, AdmissionQueue, BatchMethod, SteinerConfig, SummaryEngine, SummaryInput,
};
use xsum::datasets::ml1m_scaled;
use xsum::rec::{MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig};

fn main() {
    let ds = ml1m_scaled(42, 0.03);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let g = &ds.kg.graph;

    // One explanation input per user.
    let users: Vec<usize> = (0..48.min(ds.kg.n_users())).collect();
    let inputs: Vec<SummaryInput> = users
        .iter()
        .filter_map(|&u| {
            let out = pgpr.recommend(u, 10);
            let paths = out.paths(out.len());
            (!paths.is_empty()).then(|| SummaryInput::user_centric(ds.kg.user_node(u), paths))
        })
        .collect();
    let method = BatchMethod::Steiner(SteinerConfig::default());

    // The queue owns graph + engine on its dispatcher thread; the
    // linger window (8 tickets) lets singles pile into real batches.
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::new(),
        AdmissionConfig {
            queue_bound: 256,
            max_batch: 32,
            linger_tickets: 8,
        },
    );
    println!(
        "admission queue: bound {}, max batch {}, linger {} tickets\n",
        queue.config().queue_bound,
        queue.config().max_batch,
        queue.config().linger_tickets,
    );

    // Four producer threads submitting concurrently — the overlap the
    // queue exists for: requests keep arriving while a coalesced batch
    // is in flight on the engine's pinned pool.
    let producers = 4;
    let t = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let queue = &queue;
            let inputs = &inputs;
            scope.spawn(move || {
                let mine: Vec<&SummaryInput> = inputs.iter().skip(p).step_by(producers).collect();
                let tickets: Vec<_> = mine
                    .iter()
                    .map(|input| {
                        queue
                            .submit((*input).clone(), method)
                            .expect("queue is live")
                    })
                    .collect();
                for ticket in tickets {
                    let (result, meta) = ticket.wait_meta();
                    let summary = result.expect("well-formed input");
                    assert!(summary.terminal_coverage() > 0.0);
                    assert!(meta.coalesced >= 1);
                }
            });
        }
    });
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = queue.stats();
    println!(
        "{} summaries from {} producers in {:.1} ms ({:.0}/s)",
        stats.completed,
        producers,
        elapsed_ms,
        stats.completed as f64 / (elapsed_ms / 1e3),
    );
    println!(
        "coalescing: {} batches, largest {}, {} requests admitted while a batch was in flight",
        stats.batches_dispatched, stats.max_coalesced, stats.overlap_submissions,
    );

    // A graph mutation is a barrier: requests before it serve the old
    // weights, requests after it the new ones — no replica/epoch skew.
    let before = queue.submit(inputs[0].clone(), method).expect("live");
    queue
        .mutate(|g| g.set_weight(xsum::graph::EdgeId(0), 4.5))
        .expect("mutation applies");
    let after = queue.submit(inputs[0].clone(), method).expect("live");
    let pre = before.wait().expect("serves pre-mutation");
    let post = after.wait().expect("serves post-mutation");
    println!(
        "mutation barrier: pre-mutation summary {} edges, post-mutation {} edges, \
         {} mutation(s) applied",
        pre.subgraph.edge_count(),
        post.subgraph.edge_count(),
        queue.stats().mutations_applied,
    );

    // Shutdown drains: every admitted ticket resolves before the
    // dispatcher exits.
    let tail: Vec<_> = inputs
        .iter()
        .take(8)
        .map(|i| queue.submit(i.clone(), method).expect("live"))
        .collect();
    queue.shutdown();
    let mut drained = 0usize;
    for t in tail {
        t.wait().expect("tickets admitted before shutdown resolve");
        drained += 1;
    }
    println!("\nshutdown-drain: {drained} tail tickets admitted before shutdown all resolved");
}
