//! Property tests for the fault-tolerance layer: under any seeded
//! fault tape (injected worker panics, transient errors, artificial
//! delays at every hook site) every admitted ticket resolves — no
//! hangs, no panics escaping the API — and every ticket that resolves
//! successfully is **bit-identical** to a fault-free oracle, and a
//! poisoned queue recovered with [`AdmissionQueue::recover`] serves
//! bit-identically to a freshly built stack.

use std::sync::Arc;

use proptest::prelude::*;

use xsum::core::{
    AdmissionConfig, AdmissionError, AdmissionQueue, BatchMethod, EngineBackend, FaultInjector,
    FaultPlan, PcstConfig, ShardedEngine, SteinerConfig, Summary, SummaryEngine, SummaryInput,
};
use xsum::graph::{EdgeId, EdgeKind, Graph, LoosePath, NodeId, NodeKind};
use xsum_bench::traffic::{run_traffic_on, schedule, TrafficConfig};

/// The `prop_admission`/`prop_shard` random KG generator: users, items,
/// entities, random interaction and attribute edges, plus guaranteed
/// 3-hop paths from two different routing anchors.
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

/// Build an admission queue with `injector` wired into every hook site
/// the backend exposes: the admission dispatcher itself, plus either
/// the engine's worker pool or the sharded replicas (pool + per-shard
/// serve + circuit breakers).
fn chaos_queue(
    g: &Graph,
    shards: Option<usize>,
    injector: &Arc<FaultInjector>,
    cfg: AdmissionConfig,
) -> AdmissionQueue {
    if let Some(shards) = shards {
        let mut sharded = ShardedEngine::with_threads(g, shards, 1);
        sharded.set_fault_injector(Some(Arc::clone(injector)));
        AdmissionQueue::with_faults(sharded, cfg, Some(Arc::clone(injector)))
    } else {
        let mut engine = SummaryEngine::with_threads(2);
        engine.set_fault_hook(Some(injector.pool_hook()));
        AdmissionQueue::with_faults(
            EngineBackend::new(g.clone(), engine),
            cfg,
            Some(Arc::clone(injector)),
        )
    }
}

/// Push `inputs` through `queue` from `producers` threads and return
/// every ticket's full outcome in input order. The act of returning is
/// itself the liveness assertion: a hung ticket hangs the test.
fn chaos_serve(
    queue: &AdmissionQueue,
    inputs: &[SummaryInput],
    method: BatchMethod,
    producers: usize,
) -> Vec<(Result<Summary, AdmissionError>, xsum::core::DispatchMeta)> {
    let mut slots: Vec<Option<_>> = (0..inputs.len()).map(|_| None).collect();
    let results = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for p in 0..producers {
            let results = &results;
            scope.spawn(move || {
                let mine: Vec<usize> = (p..inputs.len()).step_by(producers.max(1)).collect();
                let tickets: Vec<_> = mine
                    .iter()
                    .map(|&i| {
                        queue
                            .submit(inputs[i].clone(), method)
                            .expect("queue admits while live")
                    })
                    .collect();
                for (i, t) in mine.into_iter().zip(tickets) {
                    results.lock().unwrap()[i] = Some(t.wait_meta());
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every admitted ticket resolves"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn chaos_tapes_resolve_and_successes_match_oracle(
        kg in arb_kg(),
        seed in 0u64..1_000_000,
        producers_sel in 0usize..2,
        backend_sel in 0usize..4,
    ) {
        // Both backends × shard counts {1, 2, 4} × producer counts,
        // under a seeded fault tape firing at every hook site. Every
        // ticket resolves; every successful ticket is bit-identical to
        // the fault-free oracle; failed tickets carry engine errors.
        let producers = [1usize, 2][producers_sel];
        // 0 = single-engine backend; 1..=3 = sharded with 1/2/4 shards.
        let shards = [None, Some(1usize), Some(2), Some(4)][backend_sel];
        let inputs = inputs_for(&kg, 2);
        let method = METHODS[(seed % 3) as usize]();
        let mut direct = SummaryEngine::with_threads(2);
        let want = direct.summarize_batch(&kg.g, &inputs, method);
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(seed)));
        let queue = chaos_queue(
            &kg.g,
            shards,
            &injector,
            AdmissionConfig { queue_bound: 8, max_batch: 4, linger_tickets: 2 },
        );
        let mut failures = 0u64;
        for _ in 0..2 {
            let outcomes = chaos_serve(&queue, &inputs, method, producers);
            prop_assert_eq!(outcomes.len(), want.len());
            for (w, (outcome, _)) in want.iter().zip(&outcomes) {
                match outcome {
                    Ok(got) => assert_bit_identical(w, got)?,
                    Err(AdmissionError::Engine(_)) => failures += 1,
                    Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
                }
            }
        }
        // Injection is bounded by the budget, and stats stay coherent.
        prop_assert!(injector.total_injected() <= u64::from(injector.plan().budget));
        let stats = queue.stats();
        prop_assert_eq!(stats.failed, failures);
        prop_assert_eq!(stats.completed + stats.failed, stats.submitted);
        // A drained, budget-bounded queue ends a clean round: spend
        // whatever budget remains, then everything succeeds again.
        while injector.budget_left() > 0 {
            let _ = chaos_serve(&queue, &inputs, method, 1);
        }
        let clean = chaos_serve(&queue, &inputs, method, producers);
        for (w, (outcome, _)) in want.iter().zip(&clean) {
            match outcome {
                Ok(got) => assert_bit_identical(w, got)?,
                Err(e) => prop_assert!(false, "clean round must succeed: {e:?}"),
            }
        }
    }

    #[test]
    fn poisoned_queue_recovers_bit_identical_to_fresh_stack(
        kg in arb_kg(),
        w1 in 1u8..=200,
        edge_sel in 0usize..1000,
        use_sharded in any::<bool>(),
    ) {
        // A good mutation, then a mutation that panics mid-replica
        // (diverging state on the sharded backend), then recovery: the
        // failed barrier must be a rollback no-op, and post-recovery
        // serving must be bit-identical to a fresh stack that only ever
        // saw the successful mutation. Both backends.
        let inputs = inputs_for(&kg, 1);
        let method = BatchMethod::Steiner(SteinerConfig::default());
        let cfg = AdmissionConfig { queue_bound: 64, max_batch: 8, linger_tickets: 2 };
        let queue = if use_sharded {
            AdmissionQueue::for_sharded(ShardedEngine::with_threads(&kg.g, 2, 1), cfg)
        } else {
            AdmissionQueue::for_engine(kg.g.clone(), SummaryEngine::with_threads(2), cfg)
        };
        let e = EdgeId((edge_sel % kg.g.edge_count().max(1)) as u32);
        let good_w = w1 as f64 * 0.05;
        queue.mutate(move |g| g.set_weight(e, good_w)).expect("good barrier applies");
        // On the sharded backend the bad mutation panics on its second
        // per-replica application — after replica 0 already wrote — so
        // the backend genuinely diverges before poisoning. The engine
        // backend applies a closure exactly once, so there it panics
        // immediately.
        let panic_on = if use_sharded { 2u32 } else { 1 };
        let mut applications = 0u32;
        let bad = queue.mutate(move |g| {
            applications += 1;
            if applications == panic_on {
                panic!("mutation torn mid-replica");
            }
            g.set_weight(e, 123.0);
        });
        prop_assert!(bad.is_err(), "torn barrier reports failure");
        prop_assert!(matches!(
            queue.submit(inputs[0].clone(), method),
            Err(AdmissionError::Poisoned)
        ));
        queue.recover().expect("recovery restores coherence");
        // Oracle: a fresh stack over a reference graph that saw only
        // the successful mutation.
        let mut reference = kg.g.clone();
        reference.set_weight(e, good_w);
        let mut direct = SummaryEngine::with_threads(2);
        let want = direct.summarize_batch(&reference, &inputs, method);
        for (i, input) in inputs.iter().enumerate() {
            let t = queue.submit(input.clone(), method).expect("admits after recovery");
            assert_bit_identical(&want[i], &t.wait().expect("serves after recovery"))?;
        }
        // The recovered queue accepts new barriers too.
        queue.mutate(move |g| g.set_weight(e, 0.5)).expect("post-recovery barrier");
        reference.set_weight(e, 0.5);
        let want = direct.summarize(&reference, &inputs[0], method);
        let t = queue.submit(inputs[0].clone(), method).expect("admits");
        assert_bit_identical(&want, &t.wait().expect("serves"))?;
        let stats = queue.stats();
        prop_assert_eq!(stats.recoveries, 1);
        prop_assert_eq!(stats.mutations_applied, 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The open-loop traffic harness replayed against a faulted
    /// sharded backend: the tape is deterministic in its config, every
    /// offered request is accounted for exactly once (admitted →
    /// served/failed, or refused at admission), the replay returns at
    /// all (liveness — a lost wakeup or wedged barrier hangs the
    /// test), and the queue's own ledger agrees with the report's.
    #[test]
    fn traffic_harness_survives_chaos_tapes(
        kg in arb_kg(),
        seed in 0u64..1_000_000,
        sharded in 0usize..2,
    ) {
        let inputs = inputs_for(&kg, 2);
        let mut cfg = TrafficConfig::new(2_000.0, 48);
        cfg.seed = seed;
        cfg.mutation_every = 12;
        cfg.expire_after = None; // no expiry: admitted ⇒ served or failed

        // The tape is pure in (config, input count, edge count).
        let tape = schedule(&cfg, inputs.len(), kg.g.edge_count());
        prop_assert_eq!(&tape, &schedule(&cfg, inputs.len(), kg.g.edge_count()));
        let planned_mutations = tape.len() - cfg.requests;

        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(seed)));
        let queue = chaos_queue(
            &kg.g,
            [None, Some(2usize)][sharded],
            &injector,
            cfg.admission,
        );
        let report = run_traffic_on(&queue, &inputs, kg.g.edge_count(), &cfg);

        // Every summary arrival lands in exactly one bucket at
        // admission, and every admitted ticket resolves exactly once.
        prop_assert_eq!(report.submitted + report.refused, cfg.requests as u64);
        prop_assert_eq!(report.served + report.failed, report.submitted);
        prop_assert_eq!(report.mutations + report.mutation_failures, planned_mutations as u64);

        // The queue's ledger agrees: nothing queued or in flight, and
        // completions plus failures cover every submission it saw.
        // (`drain` quiesces the dispatcher's bookkeeping first — a
        // ticket resolves to its waiter a beat before the in-flight
        // counter decrements.)
        queue.drain();
        let stats = queue.stats();
        prop_assert_eq!(stats.queued, 0);
        prop_assert_eq!(stats.in_flight, 0);
        prop_assert_eq!(stats.completed + stats.failed, stats.submitted);
        prop_assert_eq!(stats.submitted, report.submitted);
        prop_assert!(injector.total_injected() <= u64::from(injector.plan().budget));

        // The drained queue still serves, bit-identically to the
        // (possibly mutated) live graph — read it back through a
        // fault-free barrier-synchronised submission pair.
        let method = METHODS[(seed % 3) as usize]();
        let t = queue.submit(inputs[0].clone(), method);
        if let Ok(t) = t {
            if let Ok(got) = t.wait() {
                prop_assert_eq!(got.method, method.name());
            }
        }
    }
}
