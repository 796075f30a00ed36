//! Model-checked concurrency suite — the `#[test]` surface over
//! [`xsum_core::modelcheck`].
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg xsum_loom"`,
//! which swaps the `xsum_graph::sync` facade onto the vendored loom
//! shim so the scenarios run every thread interleaving the shim's
//! scheduler can enumerate (bounded DFS plus seeded random sampling).
//! See CONCURRENCY.md for how to run and read these, and `repro
//! modelcheck` for the benched variant that records
//! `schedules_explored` in BENCH_batch.json.
#![cfg(xsum_loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use xsum_core::modelcheck;

#[test]
fn pool_map_with_and_drop_is_race_free() {
    let stats = modelcheck::pool_map_with_and_drop();
    assert!(stats.schedules_explored > 1, "scheduler never branched");
}

#[test]
fn pool_shutdown_protocol_is_race_free() {
    let stats = modelcheck::pool_shutdown_protocol(false);
    assert!(stats.schedules_explored > 1, "scheduler never branched");
}

/// The teeth of the suite: re-introducing the pre-PR 4 worker ordering
/// (sequence observation before the shutdown check, job slot
/// `expect`ed) must make the checker report a failing schedule. If
/// this test ever fails, the model lost the ability to see the
/// shutdown/seq race and the whole suite is vacuous.
#[test]
fn pool_shutdown_mutant_is_caught() {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        modelcheck::pool_shutdown_protocol(true);
    }));
    let payload = outcome.expect_err("the old ordering must fail the model");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("loom model failure"),
        "expected a model-checker failure report, got: {msg:?}"
    );
    assert!(
        msg.contains("seq bumped without a job"),
        "expected the mutant's expect-crash to be the failure, got: {msg:?}"
    );
}

#[test]
fn ticket_set_yields_exactly_once() {
    let stats = modelcheck::ticket_set_exactly_once();
    assert!(stats.schedules_explored > 1, "scheduler never branched");
}

#[test]
fn linger_window_cannot_deadlock_a_waiter() {
    let stats = modelcheck::linger_flush_no_deadlock();
    assert!(stats.schedules_explored > 1, "scheduler never branched");
}

#[test]
fn poisoned_queue_loses_no_ticket_and_recovers() {
    let stats = modelcheck::poison_recover_no_lost_ticket();
    assert!(stats.schedules_explored > 1, "scheduler never branched");
}

#[test]
fn breaker_transitions_are_race_free() {
    let stats = modelcheck::breaker_transitions_race_free();
    assert!(stats.schedules_explored > 1, "scheduler never branched");
}

#[test]
fn wire_writer_handshake_writes_each_ticket_once() {
    let stats = modelcheck::wire_writer_handshake();
    assert!(stats.schedules_explored > 1, "scheduler never branched");
}
