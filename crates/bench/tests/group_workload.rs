//! Workload-level checks for the G1–G5 group sweep: the pooled
//! user-group input really reaches the big-|T| regime the sweep is
//! meant to exercise, and the |T| ≥ 24 gate plus
//! [`SteinerWorkspace::set_parallelism`] genuinely flip the metric
//! closure between its sequential and parallel branches on that input —
//! observable only through the
//! [`SteinerWorkspace::last_closure_workers`] probe, because the two
//! branches are bit-identical in their output.

use xsum_bench::experiments::perf::{group_input, GROUP_USERS};
use xsum_core::{steiner_costs, steiner_tree_with, Scenario, SteinerConfig, SteinerWorkspace};
use xsum_datasets::{scaling::scaling_graph_scaled, ScalingLevel};

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
