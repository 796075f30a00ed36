//! Chaos serving: the fault-tolerance layer end to end, driven by the
//! deterministic injection plane.
//!
//! A seeded [`FaultPlan`] replays the same tape of worker panics,
//! transient errors, and delays on every run; the serving stack has to
//! absorb it. Three sections: (1) `ShardedEngine` failover — injected
//! replica faults retry on healthy shards behind per-replica circuit
//! breakers; (2) `AdmissionQueue` under chaos — every admitted ticket
//! resolves, served or failed by an injected fault; (3) a panicked
//! mutation poisons the queue and [`AdmissionQueue::recover`] restores
//! coherent serving.
//!
//! ```text
//! cargo run --release --example chaos_serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use xsum::core::{
    AdmissionConfig, AdmissionError, AdmissionQueue, BatchMethod, FaultInjector, FaultPlan,
    FaultSite, ShardedEngine, SteinerConfig, SummaryEngine, SummaryInput,
};
use xsum::datasets::ml1m_scaled;
use xsum::rec::{MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig};

fn main() {
    let ds = ml1m_scaled(42, 0.03);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let g = &ds.kg.graph;

    // One explanation input per user, same as the async_serving demo.
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

    println!(
        "(backtraces interleaved below are *injected* worker panics — \
         every one is caught and recovered from)\n",
    );

    // ── 1. Sharded failover under an injected fault tape ─────────────
    //
    // The tape is a pure function of the seed: rerun the binary and the
    // same serve calls fail at the same points. Faulted replica serves
    // retry on the remaining healthy shards; repeated failures trip a
    // replica's circuit breaker so routing stops offering it traffic
    // until its cooldown probe succeeds.
    let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(7)));
    let mut sharded = ShardedEngine::with_threads(g, 2, 1);
    sharded.set_fault_injector(Some(Arc::clone(&injector)));
    let (mut ok_batches, mut failed_batches) = (0usize, 0usize);
    for _ in 0..4 {
        match sharded.try_summarize_batch(&inputs[..8], method) {
            Ok(summaries) => {
                assert_eq!(summaries.len(), 8);
                ok_batches += 1;
            }
            Err(_) => failed_batches += 1,
        }
    }
    println!(
        "sharded failover: {} batch(es) served, {} lost to total failure; \
         {} fault(s) drawn at replica serves, breakers now [{:?}, {:?}]",
        ok_batches,
        failed_batches,
        injector.injected_at(FaultSite::ShardServe),
        sharded.breaker_state(0),
        sharded.breaker_state(1),
    );
    // Injection is budgeted: once the tape is spent the stack is clean
    // again, and the same inputs serve without a hitch.
    while injector.budget_left() > 0 {
        let _ = sharded.try_summarize_batch(&inputs[..8], method);
    }
    let clean = sharded.try_summarize_batch(&inputs[..8], method);
    assert!(clean.is_ok(), "spent tape leaves the stack serviceable");
    println!(
        "               tape spent ({} total injections) — post-chaos batch serves cleanly\n",
        injector.total_injected(),
    );

    // ── 2. Admission queue under chaos ───────────────────────────────
    let chaos = Arc::new(FaultInjector::new(FaultPlan::seeded(21)));
    let mut backend = ShardedEngine::with_threads(g, 2, 1);
    backend.set_fault_injector(Some(Arc::clone(&chaos)));
    let queue = AdmissionQueue::with_faults(
        backend,
        AdmissionConfig {
            queue_bound: 256,
            max_batch: 16,
            linger_tickets: 4,
        },
        Some(Arc::clone(&chaos)),
    );
    let mut tickets = Vec::new();
    for _ in 0..3 {
        for input in &inputs {
            tickets.push(queue.submit(input.clone(), method).expect("live"));
        }
    }
    // Tickets are pollable now: `try_wait` peeks without blocking (and
    // without flushing a lingering batch), `wait_timeout` bounds the
    // blocking wait. Drain the first ticket through that surface.
    let first = tickets.remove(0);
    let first_outcome = match first.try_wait() {
        Ok(outcome) => outcome,
        Err(pending) => pending
            .wait_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("ticket resolves well within 30s")),
    };
    let (mut served, mut faulted) = (0usize, 0usize);
    for outcome in std::iter::once(first_outcome.0).chain(tickets.into_iter().map(|t| t.wait())) {
        match outcome {
            Ok(_) => served += 1,
            Err(AdmissionError::Engine(_)) => faulted += 1,
            Err(other) => panic!("unexpected admission outcome: {other}"),
        }
    }
    let stats = queue.stats();
    println!(
        "admission chaos: {} submitted — {} served, {} lost to injected faults",
        stats.submitted, served, faulted,
    );
    println!(
        "                 every ticket resolved; {} batches, {} injection(s) drawn, \
         budget left {}\n",
        stats.batches_dispatched,
        chaos.total_injected(),
        chaos.budget_left(),
    );
    queue.shutdown();

    // ── 3. Poisoned mutation, then recovery ──────────────────────────
    let frail = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::new(),
        AdmissionConfig {
            queue_bound: 64,
            max_batch: 16,
            linger_tickets: 1,
        },
    );
    let poisoned = frail.mutate(|_| panic!("operator error mid-mutation"));
    assert!(poisoned.is_err(), "panicked mutation surfaces as an error");
    let while_poisoned = frail.submit(inputs[0].clone(), method);
    assert!(
        matches!(while_poisoned, Err(AdmissionError::Poisoned)),
        "a poisoned queue refuses new work instead of serving incoherently",
    );
    frail
        .recover()
        .expect("resync from the last coherent snapshot");
    let revived = frail
        .submit(inputs[0].clone(), method)
        .expect("recovered queue admits")
        .wait()
        .expect("and serves");
    assert!(revived.terminal_coverage() > 0.0);
    println!(
        "poison/recover: failed barrier poisoned the queue, recover() resynced — \
         serving again ({} recovery, {} summaries post-recovery)",
        frail.stats().recoveries,
        frail.stats().completed,
    );
    frail.shutdown();
}
