//! Workload-level checks for the G1–G5 group sweep: the pooled
//! user-group input really reaches the big-|T| regime the sweep is
//! meant to exercise, and the |T| ≥ 24 gate plus
//! [`SteinerWorkspace::set_parallelism`] genuinely flip the metric
//! closure between its sequential and parallel branches on that input —
//! observable only through the
//! [`SteinerWorkspace::last_closure_workers`] probe, because the two
//! branches are bit-identical in their output. The same goes for the
//! KMB closure's search radius and for ST-fast's bounded Voronoi pass,
//! which only the [`SteinerWorkspace::last_closure_settled`] work
//! counter can see.

use xsum_bench::experiments::perf::{batch_inputs, group_input, GROUP_USERS};
use xsum_core::{
    steiner_costs, steiner_tree_fast_with, steiner_tree_with, Scenario, SteinerConfig,
    SteinerWorkspace,
};
use xsum_datasets::{scaling::scaling_graph_scaled, ScalingLevel};
use xsum_graph::DijkstraWorkspace;

#[test]
fn group_workload_clears_the_parallel_closure_threshold() {
    let ds = scaling_graph_scaled(ScalingLevel::G1, 42, 0.2);
    let input = group_input(&ds, GROUP_USERS, 42, 3).expect("G1 yields group paths");
    assert_eq!(input.scenario, Scenario::UserGroup);
    // The pooled group is the sweep's big-|T| point: enough distinct
    // terminals (users + recommended items) to clear the engine's
    // built-in parallel-closure threshold of 24.
    assert!(
        input.terminals.len() >= 24,
        "group workload stays in the big-|T| regime: |T| = {}",
        input.terminals.len()
    );
    let mut sorted = input.terminals.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted, input.terminals, "terminals arrive sorted+deduped");
}

#[test]
fn parallelism_flips_the_closure_gate_bit_identically() {
    let ds = scaling_graph_scaled(ScalingLevel::G1, 42, 0.2);
    let input = group_input(&ds, GROUP_USERS, 42, 3).expect("G1 yields group paths");
    let cfg = SteinerConfig::default();
    let costs = steiner_costs(&ds.kg.graph, &input, &cfg);
    assert!(input.terminals.len() >= 24, "the group clears the gate");

    let mut ws = SteinerWorkspace::new();
    assert_eq!(ws.last_closure_workers(), 0, "no closure built yet");

    // |T| ≥ 24 and a thread budget: the closure must fan out.
    ws.set_parallelism(4);
    let parallel = steiner_tree_with(&ds.kg.graph, &costs, &input.terminals, &mut ws);
    assert!(
        ws.last_closure_workers() > 1,
        "|T| ≥ 24 with 4 threads engages the parallel branch (got {})",
        ws.last_closure_workers()
    );

    // A parallelism budget of 1 pins the same input sequential.
    ws.set_parallelism(1);
    let pinned = steiner_tree_with(&ds.kg.graph, &costs, &input.terminals, &mut ws);
    assert_eq!(
        ws.last_closure_workers(),
        1,
        "1-thread budget pins sequential"
    );

    // The gate is a pure scheduling decision: the subgraphs are
    // bit-identical.
    assert_eq!(parallel.sorted_nodes(), pinned.sorted_nodes());
    assert_eq!(parallel.sorted_edges(), pinned.sorted_edges());

    // Below the gate, even a 4-thread budget runs the sequential branch.
    let subset = &input.terminals[..23];
    ws.set_parallelism(4);
    let budgeted = steiner_tree_with(&ds.kg.graph, &costs, subset, &mut ws);
    assert_eq!(
        ws.last_closure_workers(),
        1,
        "|T| = 23 stays under the gate"
    );
    ws.set_parallelism(1);
    let pinned = steiner_tree_with(&ds.kg.graph, &costs, subset, &mut ws);
    assert_eq!(budgeted.sorted_nodes(), pinned.sorted_nodes());
    assert_eq!(budgeted.sorted_edges(), pinned.sorted_edges());
}

#[test]
fn bounded_closure_settles_fewer_nodes_than_unbounded_searches() {
    let ds = scaling_graph_scaled(ScalingLevel::G1, 42, 0.2);
    let input = group_input(&ds, GROUP_USERS, 42, 3).expect("G1 yields group paths");
    let g = &ds.kg.graph;
    let costs = steiner_costs(g, &input, &SteinerConfig::default());
    let terms = &input.terminals;
    assert!(terms.len() >= 24, "the group clears the gate");

    // The unbounded closure: one early-exit search per source.
    let mut dij = DijkstraWorkspace::new();
    let unbounded: usize = (0..terms.len() - 1)
        .map(|si| {
            dij.run(g, &costs, terms[si], &terms[si + 1..]);
            dij.settled_count()
        })
        .sum();

    let mut ws = SteinerWorkspace::new();
    assert_eq!(ws.last_closure_settled(), 0, "no closure built yet");
    let mut trees = Vec::new();
    for parallelism in [1, 4] {
        ws.set_parallelism(parallelism);
        trees.push(steiner_tree_with(g, &costs, terms, &mut ws).sorted_edges());
        let bounded = ws.last_closure_settled();
        assert!(
            0 < bounded && bounded < unbounded,
            "parallelism {parallelism}: the bounded closure settles {bounded} nodes, \
             the unbounded searches {unbounded}"
        );
    }
    assert_eq!(trees[0], trees[1]);
}

#[test]
fn bounded_voronoi_pass_settles_fewer_nodes_than_run_voronoi() {
    // The same G1 graph `group_input` draws on, with one user-centric
    // input beside the group.
    let (ds, centric) = batch_inputs(ScalingLevel::G1, 0.2, 42, 1, 10);
    let group = group_input(&ds, GROUP_USERS, 42, 3).expect("G1 yields group paths");
    let g = &ds.kg.graph;
    let mut ws = SteinerWorkspace::new();
    for input in [&centric[0], &group] {
        let costs = steiner_costs(g, input, &SteinerConfig::default());
        let mut terms = input.terminals.clone();
        terms.sort_unstable();
        terms.dedup();
        let mut dij = DijkstraWorkspace::new();
        dij.run_voronoi(g, &costs, &terms);
        let exhaustive = dij.settled_count();

        steiner_tree_fast_with(g, &costs, &input.terminals, &mut ws);
        let bounded = ws.last_closure_settled();
        assert!(
            0 < bounded && bounded < exhaustive,
            "{:?} input, |T| = {}: ST-fast's pass settles {bounded} nodes, \
             run_voronoi {exhaustive}",
            input.scenario,
            terms.len()
        );
    }
}
