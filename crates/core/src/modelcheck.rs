//! Model-checked concurrency scenarios for the serving stack.
//!
//! Compiled only under `--cfg xsum_loom`, where the
//! [`xsum_graph::sync`] facade swaps every mutex, condvar, atomic and
//! spawn in [`WorkerPool`](xsum_graph::WorkerPool),
//! [`AdmissionQueue`], [`TicketSet`] and
//! [`CircuitBreaker`](crate::CircuitBreaker) for the vendored loom
//! shim's instrumented primitives. Each scenario below wraps one
//! protocol in `loom::model_with` and lets the shim's deterministic
//! scheduler enumerate thread interleavings; a panic, deadlock or
//! violated assertion in *any* explored schedule fails the scenario
//! with the offending schedule printed.
//!
//! The scenarios live in this crate (not in the test tree) so that
//! mock backends can construct [`EngineError`]s through the
//! `pub(crate)` constructor, and so `repro modelcheck` can time them
//! and record `schedules_explored` in `BENCH_batch.json`. The actual
//! `#[test]` wrappers are in `tests/model_concurrency.rs` at the
//! workspace root; `CONCURRENCY.md` documents how to run and read
//! them.
//!
//! Scenario inventory (mirrors the invariants the suite pins):
//!
//! * [`pool_map_with_and_drop`] — the real [`WorkerPool`] end to end:
//!   lazy spawn, work-stealing dispatch, a statically paired zip
//!   dispatch, completion waits, shutdown.
//! * [`pool_shutdown_protocol`] — a minimal replica of the pool's
//!   seq/shutdown worker protocol under a teardown that races an
//!   outstanding wake-up. `buggy = true` re-introduces the pre-PR 4
//!   ordering (sequence observation before the shutdown check, with
//!   the `expect` crash path) which the checker must catch.
//! * [`ticket_set_exactly_once`] — every ticket added to a
//!   [`TicketSet`] is yielded exactly once across producer /
//!   dispatcher / consumer interleavings, and a submitted-but-dropped
//!   ticket disturbs nothing.
//! * [`linger_flush_no_deadlock`] — a linger window larger than the
//!   queue contents cannot deadlock `SummaryTicket::wait` (the
//!   flush-own-request discipline).
//! * [`poison_recover_no_lost_ticket`] — a failed mutation barrier
//!   poisons the queue without losing a ticket: every wait returns,
//!   and after [`AdmissionQueue::recover`] the queue serves again.
//! * [`breaker_transitions_race_free`] — [`CircuitBreaker`] invariants
//!   hold after every step of two racing recorder threads.
//! * [`wire_writer_handshake`] — `serve_stream`'s reader/writer
//!   handshake: no lost wake-up between an add and the writer parking,
//!   no writer exit while a ticket is outstanding, and every ticket
//!   written exactly once.

use crate::admission::{AdmissionBackend, AdmissionConfig, AdmissionQueue, TicketSet};
use crate::batch::BatchMethod;
use crate::breaker::{CircuitBreaker, CircuitConfig};
use crate::engine::EngineError;
use crate::input::{Scenario, SummaryInput};
use crate::steiner::SteinerConfig;
use crate::summary::Summary;
use crate::wire::{decode_frame, write_completions, ResponseSink, WireFrame, WriterGate};
use loom::{model_with, ModelConfig, ModelStats};
use xsum_graph::sync::atomic::{AtomicU64, Ordering};
use xsum_graph::sync::{thread, Arc, Condvar, Mutex, PoisonError};
use xsum_graph::{Graph, NodeId, Subgraph, WorkerPool};

/// A backend that serves canned summaries with zero graph work, so the
/// model explores *queue* interleavings rather than engine internals.
/// `fail_mutations` > 0 makes that many `mutate_graph` calls return
/// `Err` (poisoning the queue) before the backend heals.
#[derive(Debug)]
struct MockBackend {
    fail_mutations: u32,
}

impl MockBackend {
    fn healthy() -> Self {
        MockBackend { fail_mutations: 0 }
    }

    fn failing_once() -> Self {
        MockBackend { fail_mutations: 1 }
    }

    fn summary(input: &SummaryInput) -> Summary {
        Summary {
            method: "mock",
            scenario: input.scenario,
            subgraph: Subgraph::new(),
            terminals: input.terminals.clone(),
        }
    }
}

impl AdmissionBackend for MockBackend {
    fn run_batch(
        &mut self,
        inputs: &[&SummaryInput],
        _method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        Ok(inputs.iter().map(|i| MockBackend::summary(i)).collect())
    }

    fn run_one(
        &mut self,
        input: &SummaryInput,
        _method: BatchMethod,
    ) -> Result<Summary, EngineError> {
        Ok(MockBackend::summary(input))
    }

    fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
        // The mock owns no graph, so the closure is never applied —
        // the scenarios only observe the queue's barrier/poison
        // protocol, not mutation effects.
        let _ = f;
        if self.fail_mutations > 0 {
            self.fail_mutations -= 1;
            return Err(EngineError::from_message(
                "modelcheck: injected incoherent mutation",
            ));
        }
        Ok(())
    }

    fn apply_weight_delta(
        &mut self,
        _updates: &[(xsum_graph::EdgeId, f64)],
    ) -> Result<(), EngineError> {
        // Weight-only deltas never fail on the mock: the scenarios it
        // backs exercise barrier/poison interleavings, which the
        // non-barrier path shares with `mutate_graph`.
        Ok(())
    }

    fn recover_coherence(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

fn mock_input(k: u32) -> SummaryInput {
    SummaryInput {
        scenario: Scenario::UserCentric,
        terminals: vec![NodeId(k)],
        paths: Vec::new(),
        anchor_count: 1,
    }
}

fn mock_method() -> BatchMethod {
    BatchMethod::SteinerFast(SteinerConfig::default())
}

/// The real [`WorkerPool`] under the model: lazy worker spawn, a
/// work-stealing `map_with` over more items than workers, a `zip_map`
/// on the same (already parked) workers, and Drop's shutdown
/// broadcast. Any interleaving that loses an item, runs a pair on the
/// wrong state, wakes nobody, or deadlocks a completion wait fails the
/// check.
pub fn pool_map_with_and_drop() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 300,
            random_runs: 60,
            ..ModelConfig::default()
        },
        || {
            let mut pool = WorkerPool::new(2);
            let mut states = [0u32, 0u32];
            let items = [1u32, 2, 3];
            let out = pool.map_with(&mut states, &items, |calls, _i, item| {
                *calls += 1;
                *item * 2
            });
            assert_eq!(out, vec![2, 4, 6], "map_with lost or reordered an item");
            assert_eq!(
                states.iter().sum::<u32>(),
                3,
                "work-stealing ran an item zero or two times"
            );
            let zipped = pool.zip_map(&mut states, &[10u32, 20], |seen, item| {
                *seen = *item;
                *item + 1
            });
            assert_eq!(zipped, vec![11, 21], "zip_map lost or reordered a pair");
            assert_eq!(states, [10, 20], "zip_map ran a pair on a foreign state");
            drop(pool);
        },
    )
}

/// Shared state of the miniature pool replica: the exact fields the
/// real `PoolState` uses for the dispatch/shutdown handshake.
struct MiniState {
    seq: u64,
    job: Option<u64>,
    active: usize,
    remaining: usize,
    shutdown: bool,
}

struct MiniShared {
    state: Mutex<MiniState>,
    work_cv: Condvar,
}

fn mini_lock(shared: &MiniShared) -> xsum_graph::sync::MutexGuard<'_, MiniState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker running the *fixed* (post-PR 4) protocol: shutdown takes
/// precedence over any pending sequence observation, and a seq bump
/// whose job slot is already empty is treated as teardown racing the
/// wake-up, never unwrapped.
fn mini_worker_fixed(shared: &MiniShared, idx: usize, processed: &AtomicU64) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = mini_lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != seen {
                    seen = st.seq;
                    if idx >= st.active {
                        continue;
                    }
                    match st.job {
                        Some(job) => break job,
                        None => continue,
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        assert_eq!(job, 42, "worker dereferenced a torn-down job slot");
        processed.fetch_add(1, Ordering::SeqCst);
        let mut st = mini_lock(shared);
        st.remaining = st.remaining.saturating_sub(1);
    }
}

/// One worker running the *old* ordering the PR 4 sweep removed: the
/// sequence observation comes first and the job slot is `expect`ed.
/// When teardown (which clears the slot) races the wake-up, the
/// `expect` turns the race into a worker-thread crash — which the
/// model reports as a failure.
fn mini_worker_buggy(shared: &MiniShared, idx: usize, processed: &AtomicU64) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = mini_lock(shared);
            loop {
                if st.seq != seen {
                    seen = st.seq;
                    if idx < st.active {
                        break st.job.expect("seq bumped without a job");
                    }
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        assert_eq!(job, 42, "worker dereferenced a torn-down job slot");
        processed.fetch_add(1, Ordering::SeqCst);
        let mut st = mini_lock(shared);
        st.remaining = st.remaining.saturating_sub(1);
    }
}

/// The pool's seq/shutdown worker handshake under a teardown that
/// races an outstanding dispatch wake-up — the hazard window behind
/// the PR 4 "shutdown/seq race" fix. The dispatcher publishes one job
/// and immediately tears down (shutdown flag set, job slot cleared,
/// broadcast) without waiting for the workers, so the scheduler is
/// free to deliver the two wake-ups in either order.
///
/// With `buggy = false` every interleaving must terminate cleanly:
/// a worker either processes the job before teardown or observes the
/// shutdown flag and exits. With `buggy = true` the old
/// observation-first / `expect` ordering is run instead, and the
/// schedule where a worker first wakes *after* teardown crashes it —
/// the caller (`tests/model_concurrency.rs`) asserts the checker
/// reports that failure.
pub fn pool_shutdown_protocol(buggy: bool) -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 2_000,
            random_runs: 100,
            ..ModelConfig::default()
        },
        move || {
            let shared = Arc::new(MiniShared {
                state: Mutex::new(MiniState {
                    seq: 0,
                    job: None,
                    active: 0,
                    remaining: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
            });
            let processed = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|idx| {
                    let shared = Arc::clone(&shared);
                    let processed = Arc::clone(&processed);
                    thread::spawn(move || {
                        if buggy {
                            mini_worker_buggy(&shared, idx, &processed);
                        } else {
                            mini_worker_fixed(&shared, idx, &processed);
                        }
                    })
                })
                .collect();

            // Dispatch one job to both workers...
            {
                let mut st = mini_lock(&shared);
                st.seq += 1;
                st.job = Some(42);
                st.active = 2;
                st.remaining = 2;
            }
            shared.work_cv.notify_all();

            // ...and tear down without waiting for completion: the
            // WorkerPool drop protocol (flag + slot clear + broadcast)
            // racing workers that may not have woken yet.
            {
                let mut st = mini_lock(&shared);
                st.shutdown = true;
                st.job = None;
            }
            shared.work_cv.notify_all();

            for h in workers {
                h.join().expect("mini pool worker must exit cleanly");
            }
            assert!(
                processed.load(Ordering::SeqCst) <= 2,
                "a worker processed the single dispatch twice"
            );
        },
    )
}

/// Exactly-once multiplexing: two tagged tickets added to a
/// [`TicketSet`] by a producer thread racing the dispatcher must each
/// be yielded exactly once, in some order, with an `Ok` result — and
/// a submitted-but-dropped ticket (never added) must not disturb the
/// set or wedge the queue.
pub fn ticket_set_exactly_once() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 250,
            random_runs: 50,
            ..ModelConfig::default()
        },
        || {
            let queue = Arc::new(AdmissionQueue::new(
                MockBackend::healthy(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    linger_tickets: 1,
                },
            ));
            let set = Arc::new(TicketSet::new());

            let producer = {
                let queue = Arc::clone(&queue);
                let set = Arc::clone(&set);
                thread::spawn(move || {
                    for tag in 0..2u64 {
                        let ticket = queue
                            .submit(mock_input(tag as u32), mock_method())
                            .expect("queue has room");
                        set.add(tag, ticket);
                    }
                })
            };

            // A ticket that is submitted but never added to the set:
            // dropping it must not corrupt the set's bookkeeping.
            let stray = queue
                .submit(mock_input(9), mock_method())
                .expect("queue has room");
            drop(stray);

            producer.join().expect("producer panicked");

            let mut seen = [0u32; 2];
            for _ in 0..2 {
                let done = set.wait_any().expect("two members are pending");
                assert!(done.result.is_ok(), "mock backend never fails a summary");
                seen[done.tag as usize] += 1;
            }
            assert_eq!(seen, [1, 1], "a ticket was yielded zero or two times");
            assert!(set.is_empty(), "drained set still has members");
            assert!(set.poll().is_none(), "drained set yielded a third ticket");
        },
    )
}

/// A linger window larger than everything queued must not deadlock a
/// ticket waiter: `SummaryTicket::wait` closes the window up to its
/// own request before blocking. Two waiters (the root and a spawned
/// producer) each submit one request into a `linger_tickets = 4`
/// window and wait; every interleaving must resolve both.
pub fn linger_flush_no_deadlock() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 250,
            random_runs: 50,
            ..ModelConfig::default()
        },
        || {
            let queue = Arc::new(AdmissionQueue::new(
                MockBackend::healthy(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    // Wider than the two requests ever queued: without
                    // the flush-own-request discipline the dispatcher
                    // would linger forever and both waits would hang.
                    linger_tickets: 4,
                },
            ));

            let waiter = {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let ticket = queue
                        .submit(mock_input(1), mock_method())
                        .expect("queue has room");
                    ticket.wait().expect("mock summary resolves Ok");
                })
            };

            let ticket = queue
                .submit(mock_input(2), mock_method())
                .expect("queue has room");
            ticket.wait().expect("mock summary resolves Ok");
            waiter.join().expect("waiter panicked");
        },
    )
}

/// A failed mutation barrier must poison the queue without losing a
/// ticket. A producer races the barrier: whatever the interleaving,
/// its wait *returns* (served `Ok` before the barrier, or failed
/// `Poisoned`/refused at submit after it — never wedged). After
/// [`AdmissionQueue::recover`] the queue serves again.
pub fn poison_recover_no_lost_ticket() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 250,
            random_runs: 50,
            ..ModelConfig::default()
        },
        || {
            let queue = Arc::new(AdmissionQueue::new(
                MockBackend::failing_once(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    linger_tickets: 1,
                },
            ));

            let racer = {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    // Admitted: the ticket must resolve either way —
                    // the assertion is that `wait` returns at all (a
                    // lost ticket deadlocks here and fails the model).
                    // Refusal by an already-poisoned queue is also a
                    // ticket-preserving outcome.
                    if let Ok(ticket) = queue.submit(mock_input(1), mock_method()) {
                        let _ = ticket.wait();
                    }
                })
            };

            queue
                .mutate(|_| {})
                .expect_err("the injected mutation failure must surface");
            racer.join().expect("racing producer panicked");

            queue.recover().expect("recovery restores coherence");
            let ticket = queue
                .submit(mock_input(2), mock_method())
                .expect("recovered queue admits again");
            ticket.wait().expect("recovered queue serves again");
        },
    )
}

/// Two threads hammer one shared [`CircuitBreaker`] with interleaved
/// failure / tick / success sequences over a virtual clock, asserting
/// the structural invariants after every step. The model explores the
/// orderings a sharded router's serve calls could produce.
pub fn breaker_transitions_race_free() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 2_000,
            random_runs: 100,
            ..ModelConfig::default()
        },
        || {
            let breaker = Arc::new(Mutex::new(CircuitBreaker::new(CircuitConfig {
                failure_threshold: 1,
                cooldown: 1,
                max_cooldown: 2,
            })));
            let clock = Arc::new(AtomicU64::new(0));

            let handles: Vec<_> = (0..2)
                .map(|who: usize| {
                    let breaker = Arc::clone(&breaker);
                    let clock = Arc::clone(&clock);
                    thread::spawn(move || {
                        for step in 0..2 {
                            let now = clock.fetch_add(1, Ordering::SeqCst) + 1;
                            let mut b = breaker.lock().unwrap_or_else(PoisonError::into_inner);
                            b.tick(now);
                            b.assert_invariants();
                            if (who + step).is_multiple_of(2) {
                                b.record_failure(now);
                            } else {
                                b.record_success();
                            }
                            b.assert_invariants();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("breaker recorder panicked");
            }

            let b = breaker.lock().unwrap_or_else(PoisonError::into_inner);
            b.assert_invariants();
        },
    )
}

/// An in-memory response pipe the model's client can block on: the
/// bytes written so far, and a condvar signalled on every flush, so a
/// response only counts as delivered once it has been flushed.
#[derive(Clone)]
struct ModelPipe(Arc<PipeState>);

struct PipeState {
    /// Bytes written, and how many of them have been flushed.
    bytes: Mutex<(Vec<u8>, usize)>,
    flushed: Condvar,
}

impl ModelPipe {
    fn new() -> Self {
        ModelPipe(Arc::new(PipeState {
            bytes: Mutex::new((Vec::new(), 0)),
            flushed: Condvar::new(),
        }))
    }

    /// Block until at least `n` bytes have been flushed; the flushed
    /// bytes.
    fn wait_flushed(&self, n: usize) -> Vec<u8> {
        let mut st = self.0.bytes.lock().unwrap_or_else(PoisonError::into_inner);
        while st.1 < n {
            st = self
                .0
                .flushed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.0[..st.1].to_vec()
    }
}

impl std::io::Write for ModelPipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut st = self.0.bytes.lock().unwrap_or_else(PoisonError::into_inner);
        st.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut st = self.0.bytes.lock().unwrap_or_else(PoisonError::into_inner);
        st.1 = st.0.len();
        drop(st);
        self.0.flushed.notify_all();
        Ok(())
    }
}

/// Summary responses in `bytes`, counted per tag.
fn written_tags(bytes: &[u8]) -> [u32; 3] {
    let mut seen = [0u32; 3];
    let mut rest = bytes;
    while !rest.is_empty() {
        let (frame, used) = decode_frame(rest).expect("the writer writes whole frames");
        rest = &rest[used..];
        let WireFrame::SummaryResponse(resp) = frame else {
            panic!("the writer writes summary responses only");
        };
        seen[resp.id as usize] += 1;
    }
    seen
}

/// `serve_stream`'s reader/writer handshake over a real queue and
/// [`TicketSet`]: the root thread plays the reader while a spawned
/// thread runs the real writer loop into a [`ModelPipe`]. The reader
/// adds ticket 0 and, like a ping-pong client, waits for its answer to
/// be flushed. Then, like a pipelining client, it adds tickets 1 and 2
/// (both already resolved) back to back, but stalls between adding
/// ticket 2 to the set and counting it on the gate until the writer
/// has flushed another burst, as an OS-preempted reader might; then it
/// counts ticket 2 and closes. In every interleaving: a wake-up lost
/// between an add and the writer parking leaves both threads waiting
/// forever, which the model reports as a deadlock; a burst that writes
/// the uncounted ticket 2 retires more tickets than were counted,
/// which overflows the gate's count; a writer that leaves with a
/// ticket outstanding fails the exactly-once count; and each ticket is
/// written exactly once.
pub fn wire_writer_handshake() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 300,
            random_runs: 60,
            ..ModelConfig::default()
        },
        || {
            let queue = AdmissionQueue::new(
                MockBackend::healthy(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    linger_tickets: 1,
                },
            );
            let pipe = ModelPipe::new();
            let shared = Arc::new((
                TicketSet::new(),
                WriterGate::new(),
                ResponseSink::new(pipe.clone()),
            ));

            let writer = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let (set, gate, out) = &*shared;
                    write_completions(set, gate, out)
                })
            };

            let submit = |tag: u64| {
                queue
                    .submit(mock_input(tag as u32), mock_method())
                    .expect("queue has room")
            };
            let count = || {
                assert!(
                    shared.1.add(),
                    "the writer left while the reader was adding"
                );
            };
            shared.0.add(0, submit(0));
            count();
            let first = pipe.wait_flushed(1);
            assert_eq!(
                written_tags(&first),
                [1, 0, 0],
                "the first answer is ticket 0's"
            );
            // Resolved before they join the set, so the set yields
            // each the moment it is added.
            let (one, two) = (submit(1), submit(2));
            queue.drain();
            shared.0.add(1, one);
            count();
            shared.0.add(2, two);
            // A reader preempted between adding ticket 2 to the set and
            // counting it on the gate: the writer's next burst goes out
            // meanwhile, and must not retire the uncounted ticket 2.
            pipe.wait_flushed(first.len() + 1);
            count();
            shared.1.close();
            writer
                .join()
                .expect("writer panicked")
                .expect("an in-memory pipe never fails");

            let Ok((set, _, out)) = Arc::try_unwrap(shared) else {
                panic!("the writer thread still holds the stream state");
            };
            assert!(set.is_empty(), "the writer left with a ticket outstanding");
            let (pipe, responses) = out.into_inner();
            let all = pipe.wait_flushed(0);
            assert_eq!(
                written_tags(&all),
                [1, 1, 1],
                "a ticket was written zero or two times"
            );
            assert_eq!(responses, 3, "the sink miscounted its frames");
        },
    )
}
