//! Property tests for the [`xsum::core::TicketSet`] completion
//! surface: under producers {1, 4} × backends {engine, sharded(2)} ×
//! {clean, mutation-barrier, fault-tape} schedules,
//! `wait_any`/`wait_any_timeout` yield **every** admitted ticket
//! **exactly once** with its submission tag intact, successful
//! outcomes are bit-identical to a direct fault-free
//! `SummaryEngine::summarize` oracle, and a set dropped with tickets
//! still in flight never wedges the queue — `drain` still completes
//! every dispatched batch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use xsum::core::{
    AdmissionConfig, AdmissionQueue, BatchMethod, CompletedTicket, EngineBackend, FaultInjector,
    FaultPlan, PcstConfig, ShardedEngine, SteinerConfig, Summary, SummaryEngine, SummaryInput,
    TicketSet,
};
use xsum::graph::{EdgeId, EdgeKind, Graph, LoosePath, NodeId, NodeKind};

/// The `prop_admission`/`prop_faults` random KG generator: users,
/// items, entities, random interaction and attribute edges, plus
/// guaranteed 3-hop paths from two different routing anchors.
#[derive(Debug, Clone)]
struct RandomKg {
    g: Graph,
    users: Vec<NodeId>,
    paths: Vec<LoosePath>,
    alt_paths: Vec<LoosePath>,
}

fn arb_kg() -> impl Strategy<Value = RandomKg> {
    (
        2usize..5, // users
        3usize..8, // items
        2usize..5, // entities
        proptest::collection::vec((0usize..64, 0usize..64, 1u8..=5), 5..40),
        proptest::collection::vec((0usize..64, 0usize..64), 4..30),
        0usize..1000, // path-shape selector
    )
        .prop_map(|(nu, ni, na, interactions, attributes, path_sel)| {
            let mut g = Graph::new();
            let users: Vec<NodeId> = (0..nu).map(|_| g.add_node(NodeKind::User)).collect();
            let items: Vec<NodeId> = (0..ni).map(|_| g.add_node(NodeKind::Item)).collect();
            let entities: Vec<NodeId> = (0..na).map(|_| g.add_node(NodeKind::Entity)).collect();
            let mut seen = std::collections::HashSet::new();
            for (u, i, r) in interactions {
                let (u, i) = (u % nu, i % ni);
                if seen.insert((u, i)) {
                    g.add_edge(users[u], items[i], r as f64, EdgeKind::Interaction);
                }
            }
            let mut seen = std::collections::HashSet::new();
            for (i, a) in attributes {
                let (i, a) = (i % ni, a % na);
                if seen.insert((i, a)) {
                    g.add_edge(items[i], entities[a], 0.0, EdgeKind::Attribute);
                }
            }
            if g.find_edge(users[0], items[0]).is_none() {
                g.add_edge(users[0], items[0], 5.0, EdgeKind::Interaction);
            }
            if g.find_edge(users[1], items[0]).is_none() {
                g.add_edge(users[1], items[0], 4.0, EdgeKind::Interaction);
            }
            if g.find_edge(items[0], entities[0]).is_none() {
                g.add_edge(items[0], entities[0], 0.0, EdgeKind::Attribute);
            }
            if g.find_edge(items[1], entities[0]).is_none() {
                g.add_edge(items[1], entities[0], 0.0, EdgeKind::Attribute);
            }
            let mut paths = vec![LoosePath::ground(
                &g,
                vec![users[0], items[0], entities[0], items[1]],
            )];
            let extra: Vec<NodeId> = g
                .neighbors(entities[0])
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| g.kind(*n) == NodeKind::Item && *n != items[0] && *n != items[1])
                .collect();
            if !extra.is_empty() {
                let pick = extra[path_sel % extra.len()];
                paths.push(LoosePath::ground(
                    &g,
                    vec![users[0], items[0], entities[0], pick],
                ));
            }
            let alt_paths = vec![LoosePath::ground(
                &g,
                vec![users[1], items[0], entities[0], items[1]],
            )];
            RandomKg {
                g,
                users,
                paths,
                alt_paths,
            }
        })
}

fn inputs_for(kg: &RandomKg, replicate: usize) -> Vec<SummaryInput> {
    let base = [
        SummaryInput::user_centric(kg.users[0], kg.paths.clone()),
        SummaryInput::user_centric(kg.users[1], kg.alt_paths.clone()),
        SummaryInput::user_group(&kg.users, kg.paths.clone()),
        SummaryInput::item_centric(kg.alt_paths[0].target(), kg.alt_paths.clone()),
    ];
    let mut out = Vec::with_capacity(base.len() * replicate);
    for _ in 0..replicate {
        out.extend(base.iter().cloned());
    }
    out
}

fn assert_bit_identical(want: &Summary, got: &Summary) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.method, got.method);
    prop_assert_eq!(&want.terminals, &got.terminals);
    prop_assert_eq!(want.subgraph.sorted_edges(), got.subgraph.sorted_edges());
    prop_assert_eq!(want.subgraph.sorted_nodes(), got.subgraph.sorted_nodes());
    Ok(())
}

const METHODS: [fn() -> BatchMethod; 3] = [
    || BatchMethod::Steiner(SteinerConfig::default()),
    || BatchMethod::SteinerFast(SteinerConfig::default()),
    || BatchMethod::Pcst(PcstConfig::default()),
];

const CFG: AdmissionConfig = AdmissionConfig {
    queue_bound: 256,
    max_batch: 8,
    linger_tickets: 2,
};

fn build_queue(g: &Graph, sharded: bool) -> AdmissionQueue {
    if sharded {
        AdmissionQueue::for_sharded(ShardedEngine::with_threads(g, 2, 1), CFG)
    } else {
        AdmissionQueue::for_engine(g.clone(), SummaryEngine::with_threads(2), CFG)
    }
}

/// Submit `inputs` from `producers` threads, tagging each ticket with
/// its input index, while a consumer thread concurrently drains the
/// shared set via `wait_any_timeout`. Returns the completions the
/// consumer observed (the act of returning asserts liveness: a lost
/// wakeup hangs the test).
fn serve_via_set(
    queue: &AdmissionQueue,
    inputs: &[SummaryInput],
    method: BatchMethod,
    producers: usize,
) -> Vec<CompletedTicket> {
    let set = TicketSet::new();
    let added = AtomicUsize::new(0);
    let collected = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for p in 0..producers {
            let (set, added) = (&set, &added);
            scope.spawn(move || {
                for i in (p..inputs.len()).step_by(producers.max(1)) {
                    let ticket = queue
                        .submit(inputs[i].clone(), method)
                        .expect("queue admits while live");
                    set.add(i as u64, ticket);
                    added.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let (set, added, collected) = (&set, &added, &collected);
        scope.spawn(move || {
            let mut got = Vec::new();
            // The consumer races the producers: the set may be
            // momentarily empty (wait_any_timeout → None) while
            // submissions are still inbound, so exit only once every
            // planned ticket has been added AND observed.
            while got.len() < inputs.len() {
                if let Some(done) = set.wait_any_timeout(Duration::from_millis(50)) {
                    got.push(done);
                } else {
                    assert!(
                        added.load(Ordering::SeqCst) <= inputs.len(),
                        "added count never exceeds the plan"
                    );
                }
            }
            *collected.lock().unwrap() = got;
        });
    });
    collected.into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clean schedules: every tag yields exactly once, and every
    /// outcome is bit-identical to the direct oracle — across
    /// producers {1, 4} and both backends.
    #[test]
    fn wait_any_yields_each_ticket_exactly_once(
        kg in arb_kg(),
        method_sel in 0usize..3,
        producers_sel in any::<bool>(),
        sharded in any::<bool>(),
    ) {
        let inputs = inputs_for(&kg, 3);
        let method = METHODS[method_sel]();
        let producers = if producers_sel { 4 } else { 1 };
        let queue = build_queue(&kg.g, sharded);
        let completions = serve_via_set(&queue, &inputs, method, producers);
        queue.shutdown();

        prop_assert_eq!(completions.len(), inputs.len());
        let mut seen = vec![0usize; inputs.len()];
        let mut direct = SummaryEngine::with_threads(2);
        for done in &completions {
            let tag = done.tag as usize;
            prop_assert!(tag < inputs.len(), "tags correlate to submissions");
            seen[tag] += 1;
            let got = done.result.as_ref().map_err(|e| {
                TestCaseError::fail(format!("clean schedule serves tag {tag}: {e}"))
            })?;
            let want = direct.summarize(&kg.g, &inputs[tag], method);
            assert_bit_identical(&want, got)?;
            prop_assert!(done.meta.batch > 0, "served tickets carry a batch id");
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "exactly-once per tag: {seen:?}");
    }

    /// Mutation barriers between waves: each wave's completions match
    /// an oracle over the graph state at its submission time, while
    /// the set is drained across all waves at once.
    #[test]
    fn barriers_partition_completions_by_graph_version(
        kg in arb_kg(),
        method_sel in 0usize..3,
        sharded in any::<bool>(),
        edge_sel in 0usize..1000,
        weight_step in 1u8..=100,
    ) {
        let method = METHODS[method_sel]();
        let inputs = inputs_for(&kg, 1);
        let queue = build_queue(&kg.g, sharded);
        let set = TicketSet::new();
        let mut reference = kg.g.clone();
        let mut oracle: HashMap<u64, Summary> = HashMap::new();
        let mut direct = SummaryEngine::with_threads(2);

        let waves = 3usize;
        for wave in 0..waves {
            for (i, input) in inputs.iter().enumerate() {
                let tag = (wave * 100 + i) as u64;
                oracle.insert(tag, direct.summarize(&reference, input, method));
                let ticket = queue.submit(input.clone(), method)
                    .map_err(|e| TestCaseError::fail(format!("admits: {e}")))?;
                set.add(tag, ticket);
            }
            // The barrier: tickets above see the pre-mutation graph,
            // the next wave sees the post-mutation one.
            let e = EdgeId(((edge_sel + wave) % kg.g.edge_count()) as u32);
            let w = 0.1 + weight_step as f64 * 0.01 * (wave + 1) as f64;
            queue.mutate(move |g| g.set_weight(e, w))
                .map_err(|e| TestCaseError::fail(format!("barrier applies: {e}")))?;
            reference.set_weight(e, w);
        }

        let mut yielded = 0usize;
        while let Some(done) = set.wait_any() {
            yielded += 1;
            let got = done.result.as_ref().map_err(|e| {
                TestCaseError::fail(format!("clean schedule serves tag {}: {e}", done.tag))
            })?;
            let want = oracle.remove(&done.tag).ok_or_else(|| {
                TestCaseError::fail(format!("tag {} yields once", done.tag))
            })?;
            assert_bit_identical(&want, got)?;
        }
        prop_assert_eq!(yielded, waves * inputs.len());
        prop_assert!(oracle.is_empty(), "every wave ticket completed");
        queue.shutdown();
    }

    /// Seeded fault tapes (panics + transients + delays at every hook
    /// site): the set still yields every ticket exactly once, and
    /// whatever resolves Ok is bit-identical to the fault-free oracle.
    #[test]
    fn fault_tapes_cannot_double_or_drop_tickets(
        kg in arb_kg(),
        method_sel in 0usize..3,
        producers_sel in any::<bool>(),
        sharded in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let inputs = inputs_for(&kg, 3);
        let method = METHODS[method_sel]();
        let producers = if producers_sel { 4 } else { 1 };
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(seed)));
        let queue = if sharded {
            let mut backend = ShardedEngine::with_threads(&kg.g, 2, 1);
            backend.set_fault_injector(Some(Arc::clone(&injector)));
            AdmissionQueue::with_faults(
                backend,
                CFG,
                Some(Arc::clone(&injector)),
            )
        } else {
            let mut engine = SummaryEngine::with_threads(2);
            engine.set_fault_hook(Some(injector.pool_hook()));
            AdmissionQueue::with_faults(
                EngineBackend::new(kg.g.clone(), engine),
                CFG,
                Some(Arc::clone(&injector)),
            )
        };

        let completions = serve_via_set(&queue, &inputs, method, producers);
        prop_assert_eq!(completions.len(), inputs.len());
        let mut seen = vec![0usize; inputs.len()];
        let mut direct = SummaryEngine::with_threads(2);
        for done in &completions {
            let tag = done.tag as usize;
            prop_assert!(tag < inputs.len(), "tags correlate to submissions");
            seen[tag] += 1;
            if let Ok(got) = &done.result {
                let want = direct.summarize(&kg.g, &inputs[tag], method);
                assert_bit_identical(&want, got)?;
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "exactly-once per tag: {seen:?}");

        // Quiesce dispatcher bookkeeping before auditing the ledger.
        queue.drain();
        let stats = queue.stats();
        prop_assert_eq!(stats.completed + stats.failed, stats.submitted);
        queue.shutdown();
    }

    /// Dropping a set with tickets still in flight must not wedge the
    /// dispatcher: `drain` completes every admitted batch and the
    /// stats account for every submission.
    #[test]
    fn dropped_set_never_wedges_the_queue(
        kg in arb_kg(),
        method_sel in 0usize..3,
        sharded in any::<bool>(),
    ) {
        let inputs = inputs_for(&kg, 2);
        let method = METHODS[method_sel]();
        let queue = build_queue(&kg.g, sharded);
        {
            let set = TicketSet::new();
            for (i, input) in inputs.iter().enumerate() {
                let ticket = queue.submit(input.clone(), method)
                    .map_err(|e| TestCaseError::fail(format!("admits: {e}")))?;
                set.add(i as u64, ticket);
            }
            // Dropped here — tickets may be queued, in flight, or done.
        }
        queue.drain();
        let stats = queue.stats();
        prop_assert_eq!(stats.submitted, inputs.len() as u64);
        prop_assert_eq!(stats.completed + stats.failed, stats.submitted);
        prop_assert_eq!(stats.queued, 0);
        prop_assert_eq!(stats.in_flight, 0);

        // The queue is still serviceable afterwards.
        let ticket = queue.submit(inputs[0].clone(), method)
            .map_err(|e| TestCaseError::fail(format!("admits after drop: {e}")))?;
        let got = ticket.wait().map_err(|e| TestCaseError::fail(format!("serves: {e}")))?;
        let mut direct = SummaryEngine::with_threads(2);
        let want = direct.summarize(&kg.g, &inputs[0], method);
        assert_bit_identical(&want, &got)?;
        queue.shutdown();
    }
}
