//! Figs. 9–11: performance experiments (time and memory).
//!
//! * Fig. 9: summarization time/allocation vs k per scenario;
//! * Fig. 10: time vs group size (ST's |T|-dependence vs PCST's
//!   independence);
//! * Fig. 11: time/allocation vs synthetic graph size G1–G5 on random
//!   3-hop paths, user-centric and user-group.

use std::sync::Arc;

use xsum_core::{
    pcst_summary, steiner_summary, summarize_batch, AdmissionConfig, AdmissionQueue, BatchMethod,
    EngineBackend, FaultInjector, FaultPlan, PcstConfig, ShardedEngine, SteinerConfig,
    SummaryEngine, SummaryInput,
};
use xsum_datasets::{random_explanation_path, scaling::scaling_graph_scaled, ScalingLevel};
use xsum_graph::NodeId;
use xsum_metrics::measure;

use crate::ctx::{Baseline, Ctx};
use crate::experiments::{group_inputs_for_users, scenario_inputs};
use crate::seedpath::SeedEngine;
use crate::table::Row;

fn time_methods(g: &xsum_graph::Graph, inputs: &[SummaryInput]) -> Vec<(&'static str, f64, f64)> {
    let mut out = Vec::new();
    for (name, f) in [
        (
            "ST λ=1",
            Box::new(|g: &xsum_graph::Graph, i: &SummaryInput| {
                steiner_summary(g, i, &SteinerConfig::default());
            }) as Box<dyn Fn(&xsum_graph::Graph, &SummaryInput)>,
        ),
        (
            "PCST",
            Box::new(|g: &xsum_graph::Graph, i: &SummaryInput| {
                pcst_summary(g, i, &PcstConfig::default());
            }),
        ),
    ] {
        let (_, m) = measure(|| {
            for input in inputs {
                f(g, input);
            }
        });
        let per = inputs.len().max(1) as f64;
        out.push((
            name,
            m.elapsed.as_secs_f64() * 1e3 / per,
            m.allocated_bytes as f64 / per / 1024.0,
        ));
    }
    out
}

/// Measurements of the batch summarization engine against the seed's
/// sequential path, at one synthetic scaling level.
#[derive(Debug, Clone)]
pub struct BatchBenchReport {
    /// Scaling level measured (G5 = the paper's largest).
    pub level: &'static str,
    /// Number of user-centric inputs in the batch.
    pub batch_size: usize,
    /// Seed-path sequential latency per summary (ms).
    pub seed_single_ms: f64,
    /// Heap bytes the seed path allocated per summary (0 when the
    /// tracking allocator is not installed).
    pub seed_alloc_bytes_per_summary: f64,
    /// Free-function single-summary latency (ms), sequential, warm
    /// thread-local scratch — feeds the historical `single_summary_ms`
    /// JSON key.
    pub free_single_ms: f64,
    /// Persistent-[`SummaryEngine`] single-summary latency (ms): warm
    /// cost buffer patched in O(|paths|) instead of re-materialized.
    pub persistent_single_ms: f64,
    /// Engine batched KMB throughput (summaries / second).
    pub batch_per_sec: f64,
    /// Persistent-engine batched KMB throughput (summaries / second):
    /// pinned pool woken per call, worker state warm across calls.
    pub persistent_batch_per_sec: f64,
    /// Engine batched ST-fast (Mehlhorn closure) throughput.
    pub fast_batch_per_sec: f64,
    /// Heap bytes allocated per summary in the warm KMB batch (0 when
    /// the tracking allocator is not installed).
    pub alloc_bytes_per_summary: f64,
    /// Heap bytes allocated per summary in the warm ST-fast batch.
    pub fast_alloc_bytes_per_summary: f64,
    /// Warm KMB batch throughput over seed-path throughput.
    pub speedup: f64,
    /// Persistent-engine KMB batch throughput over seed-path throughput.
    pub persistent_speedup: f64,
    /// Warm ST-fast batch throughput over seed-path throughput.
    pub fast_speedup: f64,
    /// Persistent-engine KMB throughput at small batch sizes
    /// (requested sizes 1/4/16, clamped to the workload) — the regime
    /// where the pinned pool's wake-vs-spawn advantage shows.
    pub small_batch_per_sec: [(usize, f64); 3],
    /// `ShardedEngine` scatter/gather KMB throughput with 2 replicas on
    /// the full batch.
    pub shard2_batch_per_sec: f64,
    /// `ShardedEngine` scatter/gather KMB throughput with 4 replicas.
    pub shard4_batch_per_sec: f64,
    /// `AdmissionQueue` coalesced KMB throughput: 4 producer threads
    /// submitting singles open-loop, the dispatcher coalescing them
    /// into engine batches (linger 8, max batch 32).
    pub admission_coalesced_per_sec: f64,
    /// Median submit→resolve ticket latency (ms) under that load.
    pub admission_p50_ms: f64,
    /// 99th-percentile submit→resolve ticket latency (ms).
    pub admission_p99_ms: f64,
    /// Paired throughput cost (%) of installing a *silent*
    /// [`FaultInjector`] hook (rate 0) on the engine's worker pool vs
    /// no hook at all — the PR 6 hooks must be branch-predictable dead
    /// weight when unset, so this should sit within run-to-run noise.
    pub fault_hooks_overhead_pct: f64,
    /// The ROADMAP "richer BENCH trajectory" sweep: the same workload
    /// recipe measured at *every* synthetic scaling level G1–G5, one
    /// [`LevelPoint`] per level (the G5 point uses this lighter shared
    /// protocol; the historical top-level G5 keys above keep their own
    /// full-protocol measurement unchanged).
    pub levels: Vec<LevelPoint>,
}

/// One scaling level's measurement in the G1–G5 sweep: seed-path
/// latency, warm KMB and ST-fast batch throughput, and the derived
/// speedups.
#[derive(Debug, Clone, Copy)]
pub struct LevelPoint {
    /// Level name ("G1".."G5").
    pub level: &'static str,
    /// 1-based level number (the `levelN_` JSON key prefix).
    pub num: usize,
    /// Inputs in the level's batch.
    pub batch_size: usize,
    /// Seed-path sequential latency per summary (ms).
    pub seed_single_ms: f64,
    /// Warm KMB batch throughput (summaries / second).
    pub batch_per_sec: f64,
    /// Warm ST-fast (Mehlhorn) batch throughput.
    pub fast_batch_per_sec: f64,
    /// KMB batch throughput over seed-path throughput.
    pub speedup: f64,
    /// ST-fast batch throughput over seed-path throughput.
    pub fast_speedup: f64,
    /// Post-dedup terminal count of the level's user-group input
    /// (0 when the level yielded no group paths).
    pub group_terminals: usize,
    /// Warm KMB throughput on the group input (summaries / second).
    pub group_per_sec: f64,
    /// Warm ST-fast throughput on the group input.
    pub group_fast_per_sec: f64,
}

impl BatchBenchReport {
    /// Machine-readable JSON (hand-rolled; the workspace has no serde).
    ///
    /// Keys present in earlier PRs keep their names and meanings so the
    /// cross-PR trajectory stays diffable; the `levelN_*` keys are the
    /// G1–G5 sweep appended after the historical block.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\n",
                "  \"level\": \"{}\",\n",
                "  \"batch_size\": {},\n",
                "  \"seed_single_summary_ms\": {:.6},\n",
                "  \"seed_alloc_bytes_per_summary\": {:.1},\n",
                "  \"single_summary_ms\": {:.6},\n",
                "  \"engine_single_summary_ms\": {:.6},\n",
                "  \"batch_summaries_per_sec\": {:.3},\n",
                "  \"engine_batch_summaries_per_sec\": {:.3},\n",
                "  \"fast_batch_summaries_per_sec\": {:.3},\n",
                "  \"alloc_bytes_per_summary\": {:.1},\n",
                "  \"fast_alloc_bytes_per_summary\": {:.1},\n",
                "  \"speedup_vs_seed\": {:.3},\n",
                "  \"engine_speedup_vs_seed\": {:.3},\n",
                "  \"fast_speedup_vs_seed\": {:.3},\n",
                "  \"engine_batch1_summaries_per_sec\": {:.3},\n",
                "  \"engine_batch4_summaries_per_sec\": {:.3},\n",
                "  \"engine_batch16_summaries_per_sec\": {:.3},\n",
                "  \"shard2_batch_summaries_per_sec\": {:.3},\n",
                "  \"shard4_batch_summaries_per_sec\": {:.3},\n",
                "  \"admission_coalesced_summaries_per_sec\": {:.3},\n",
                "  \"admission_p50_latency_ms\": {:.6},\n",
                "  \"admission_p99_latency_ms\": {:.6},\n",
                "  \"fault_hooks_overhead_pct\": {:.3}"
            ),
            self.level,
            self.batch_size,
            self.seed_single_ms,
            self.seed_alloc_bytes_per_summary,
            self.free_single_ms,
            self.persistent_single_ms,
            self.batch_per_sec,
            self.persistent_batch_per_sec,
            self.fast_batch_per_sec,
            self.alloc_bytes_per_summary,
            self.fast_alloc_bytes_per_summary,
            self.speedup,
            self.persistent_speedup,
            self.fast_speedup,
            self.small_batch_per_sec[0].1,
            self.small_batch_per_sec[1].1,
            self.small_batch_per_sec[2].1,
            self.shard2_batch_per_sec,
            self.shard4_batch_per_sec,
            self.admission_coalesced_per_sec,
            self.admission_p50_ms,
            self.admission_p99_ms,
            self.fault_hooks_overhead_pct,
        );
        for lp in &self.levels {
            out.push_str(&format!(
                concat!(
                    ",\n  \"level{n}_batch_summaries_per_sec\": {:.3}",
                    ",\n  \"level{n}_fast_batch_summaries_per_sec\": {:.3}",
                    ",\n  \"level{n}_speedup_vs_seed\": {:.3}",
                    ",\n  \"level{n}_fast_speedup_vs_seed\": {:.3}",
                    ",\n  \"level{n}_group_terminals\": {}",
                    ",\n  \"level{n}_group_summaries_per_sec\": {:.3}",
                    ",\n  \"level{n}_group_fast_summaries_per_sec\": {:.3}"
                ),
                lp.batch_per_sec,
                lp.fast_batch_per_sec,
                lp.speedup,
                lp.fast_speedup,
                lp.group_terminals,
                lp.group_per_sec,
                lp.group_fast_per_sec,
                n = lp.num,
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Build the BENCH_batch workload: user-centric k-path inputs over the
/// scaled `level` graph (same synthetic-path recipe as Fig. 11).
pub fn batch_inputs(
    level: ScalingLevel,
    scale: f64,
    seed: u64,
    users: usize,
    k: usize,
) -> (xsum_datasets::Dataset, Vec<SummaryInput>) {
    let ds = scaling_graph_scaled(level, seed, scale);
    let n_users = ds.kg.n_users();
    let mut inputs = Vec::new();
    for u in 0..users.min(n_users) {
        let mut paths = Vec::new();
        for i in 0..k {
            if let Some(p) =
                random_explanation_path(&ds, u, 3, seed ^ (u as u64) << 8 ^ i as u64, 30)
            {
                paths.push(xsum_graph::LoosePath::from_path(&p));
            }
        }
        if !paths.is_empty() {
            inputs.push(SummaryInput::user_centric(ds.kg.user_node(u), paths));
        }
    }
    (ds, inputs)
}

/// Build the sweep's user-group input: the first `group_size` users of
/// the BENCH workload pooled into one [`Scenario::UserGroup`] problem
/// (same synthetic-path recipe as [`batch_inputs`], so terminals are
/// the group's user nodes plus every distinct recommended item).
/// `None` when no sampled user yields a path.
///
/// [`Scenario::UserGroup`]: xsum_core::Scenario::UserGroup
pub fn group_input(
    ds: &xsum_datasets::Dataset,
    group_size: usize,
    seed: u64,
    k: usize,
) -> Option<SummaryInput> {
    let mut group_nodes: Vec<NodeId> = Vec::new();
    let mut all_paths = Vec::new();
    for u in 0..group_size.min(ds.kg.n_users()) {
        let before = all_paths.len();
        for i in 0..k {
            if let Some(p) =
                random_explanation_path(ds, u, 3, seed ^ (u as u64) << 8 ^ i as u64, 30)
            {
                all_paths.push(xsum_graph::LoosePath::from_path(&p));
            }
        }
        if all_paths.len() > before {
            group_nodes.push(ds.kg.user_node(u));
        }
    }
    if group_nodes.is_empty() {
        return None;
    }
    Some(SummaryInput::user_group(&group_nodes, all_paths))
}

/// Users pooled into the G1–G5 sweep's group input: large enough that
/// the post-dedup terminal set clears the engine's parallel-closure
/// threshold (|T| ≥ 24) on every level at default scales, so the sweep
/// exercises the big-|T| regime ST's |T|-dependence makes interesting.
pub const GROUP_USERS: usize = 16;

/// Measure the engine against the seed path on the `level` workload.
///
/// Every engine series runs one discarded warmup pass first, so the
/// timing and allocation figures reflect the amortized post-warmup
/// steady state ("allocation-free after workspace warmup").
pub fn batch_bench(
    level: ScalingLevel,
    scale: f64,
    seed: u64,
    users: usize,
    k: usize,
) -> BatchBenchReport {
    let (ds, inputs) = batch_inputs(level, scale, seed, users, k);
    let g = &ds.kg.graph;
    g.freeze();
    let cfg = SteinerConfig::default();
    let n = inputs.len().max(1) as f64;

    // Seed path: one adjacency copy (build excluded, like the seed's own
    // graph build), then the sequential per-summary loop.
    let seed_engine = SeedEngine::new(g);
    let (_, seed_m) = measure(|| {
        for input in &inputs {
            std::hint::black_box(seed_engine.steiner_summary(g, input, &cfg));
        }
    });
    let seed_single_ms = seed_m.elapsed.as_secs_f64() * 1e3 / n;

    // Warmup pass: JIT-warms caches, the thread-local sequential
    // scratch, and the thread-local Eq. 1 model cache. The free-function
    // batch path builds a one-shot engine per call, so the "warm" batch
    // figures below still include each call's own pool spin-up and
    // O(workers·|E|) buffer setup, amortized over the batch.
    let method = BatchMethod::Steiner(cfg);
    std::hint::black_box(summarize_batch(g, &inputs, method));

    // Single-summary latency, free function vs persistent engine. The
    // free sequential entry point hits the thread-local cost-model
    // cache but re-materializes the O(|E|) cost table per call; the
    // warm engine's resident buffer makes setup O(|paths|). That gap is
    // tens of microseconds under a millisecond-scale tree computation,
    // far below run-to-run machine noise — so the engine figure is
    // estimated with a *paired* design: every input is timed back-to-
    // back through both paths, and the engine latency is the free
    // latency minus the trimmed mean of the per-call differences.
    // Short-term drift (CPU frequency, co-tenants) hits both sides of a
    // pair equally and cancels in the difference; the reported ordering
    // depends only on the paired statistic, not on which millisecond
    // regime either series happened to land in.
    let mut engine = SummaryEngine::new();
    for input in &inputs {
        std::hint::black_box(engine.summarize(g, input, method));
        std::hint::black_box(steiner_summary(g, input, &cfg));
    }
    let mut free_times = Vec::with_capacity(SINGLE_REPS * inputs.len());
    let mut deltas = Vec::with_capacity(SINGLE_REPS * inputs.len());
    for rep in 0..SINGLE_REPS {
        // Alternate which side runs first: whichever path goes second
        // finds the input's working set cache-warm, so a fixed order
        // would systematically favor one side by the same tens of
        // microseconds the comparison is trying to measure.
        for input in &inputs {
            let (free, eng);
            if rep % 2 == 0 {
                let t = std::time::Instant::now();
                std::hint::black_box(steiner_summary(g, input, &cfg));
                free = t.elapsed().as_secs_f64();
                let t = std::time::Instant::now();
                std::hint::black_box(engine.summarize(g, input, method));
                eng = t.elapsed().as_secs_f64();
            } else {
                let t = std::time::Instant::now();
                std::hint::black_box(engine.summarize(g, input, method));
                eng = t.elapsed().as_secs_f64();
                let t = std::time::Instant::now();
                std::hint::black_box(steiner_summary(g, input, &cfg));
                free = t.elapsed().as_secs_f64();
            }
            free_times.push(free);
            deltas.push(free - eng);
        }
    }
    let free_single_ms = trimmed_mean(&mut free_times) * 1e3;
    // The two series are trimmed independently, so on a pathological
    // run the paired delta could exceed the free mean; clamp so a
    // noise spike can never ship a non-positive (trivially "winning")
    // engine latency.
    let persistent_single_ms =
        (free_single_ms - trimmed_mean(&mut deltas) * 1e3).max(free_single_ms * 1e-3);

    // Batch throughput, one-shot engine (the free function spins one up
    // per call: scoped pool + cold worker buffers) vs the persistent
    // engine (pinned pool woken per call, buffers warm). Allocation per
    // summary comes from the first measured one-shot round. Same paired
    // design as the single-summary series — the per-call setup the pool
    // amortizes is small against a multi-millisecond batch.
    std::hint::black_box(engine.summarize_batch(g, &inputs, method));
    let mut oneshot_times = Vec::with_capacity(BATCH_REPS);
    let mut batch_deltas = Vec::with_capacity(BATCH_REPS);
    let mut batch_alloc = 0usize;
    for rep in 0..BATCH_REPS {
        // Alternating order, like the single-summary series.
        let (batch_m, p_m) = if rep % 2 == 0 {
            let (_, b) = measure(|| {
                std::hint::black_box(summarize_batch(g, &inputs, method));
            });
            let (_, p) = measure(|| {
                std::hint::black_box(engine.summarize_batch(g, &inputs, method));
            });
            (b, p)
        } else {
            let (_, p) = measure(|| {
                std::hint::black_box(engine.summarize_batch(g, &inputs, method));
            });
            let (_, b) = measure(|| {
                std::hint::black_box(summarize_batch(g, &inputs, method));
            });
            (b, p)
        };
        if rep == 0 {
            batch_alloc = batch_m.allocated_bytes;
        }
        oneshot_times.push(batch_m.elapsed.as_secs_f64());
        batch_deltas.push(batch_m.elapsed.as_secs_f64() - p_m.elapsed.as_secs_f64());
    }
    let batch_secs = trimmed_mean(&mut oneshot_times);
    let batch_per_sec = n / batch_secs.max(1e-12);
    let persistent_batch_per_sec = n / (batch_secs - trimmed_mean(&mut batch_deltas)).max(1e-12);

    // ST-fast (Mehlhorn closure): warmup, then warm measurement.
    let fast = BatchMethod::SteinerFast(cfg);
    std::hint::black_box(summarize_batch(g, &inputs, fast));
    let (_, fast_m) = measure(|| {
        std::hint::black_box(summarize_batch(g, &inputs, fast));
    });
    let fast_batch_per_sec = n / fast_m.elapsed.as_secs_f64().max(1e-12);

    // Small-batch sweep (ROADMAP "Richer BENCH trajectory"): the
    // persistent engine at batch sizes 1/4/16, where per-call setup —
    // which the pinned pool amortizes away — dominates a one-shot path.
    let mut small_batch_per_sec = [(0usize, 0.0f64); 3];
    for (slot, &want) in [1usize, 4, 16].iter().enumerate() {
        let size = want.min(inputs.len()).max(1);
        let sub = &inputs[..size];
        std::hint::black_box(engine.summarize_batch(g, sub, method)); // warm
        let mut times = Vec::with_capacity(BATCH_REPS);
        for _ in 0..BATCH_REPS {
            let t = std::time::Instant::now();
            std::hint::black_box(engine.summarize_batch(g, sub, method));
            times.push(t.elapsed().as_secs_f64());
        }
        small_batch_per_sec[slot] = (want, size as f64 / trimmed_mean(&mut times).max(1e-12));
    }

    // Admission-queue coalesced serving: 4 open-loop producer threads
    // submitting singles, one dispatcher coalescing them into engine
    // batches. Throughput + ticket latency percentiles are the
    // trajectory keys; the sweep behind them is `repro bench_admission`.
    let (admission_per_sec, admission_p50_ms, admission_p99_ms) =
        admission_run(g, &inputs, 4, 8, BATCH_REPS);

    // Fault-hook overhead: the PR 6 injection hooks must be dead weight
    // when silent. Paired design — the same warm persistent engine vs a
    // second one carrying a never-firing (rate 0) injector hook, orders
    // alternated, overhead reported as the trimmed-mean delta relative
    // to the unhooked batch time.
    let silent = Arc::new(FaultInjector::new(FaultPlan::silent()));
    let mut hooked_engine = SummaryEngine::new();
    hooked_engine.set_fault_hook(Some(silent.pool_hook()));
    std::hint::black_box(hooked_engine.summarize_batch(g, &inputs, method)); // warm
    let mut plain_times = Vec::with_capacity(BATCH_REPS);
    let mut hook_deltas = Vec::with_capacity(BATCH_REPS);
    for rep in 0..BATCH_REPS {
        let (plain_m, hook_m) = if rep % 2 == 0 {
            let (_, a) = measure(|| {
                std::hint::black_box(engine.summarize_batch(g, &inputs, method));
            });
            let (_, b) = measure(|| {
                std::hint::black_box(hooked_engine.summarize_batch(g, &inputs, method));
            });
            (a, b)
        } else {
            let (_, b) = measure(|| {
                std::hint::black_box(hooked_engine.summarize_batch(g, &inputs, method));
            });
            let (_, a) = measure(|| {
                std::hint::black_box(engine.summarize_batch(g, &inputs, method));
            });
            (a, b)
        };
        plain_times.push(plain_m.elapsed.as_secs_f64());
        hook_deltas.push(hook_m.elapsed.as_secs_f64() - plain_m.elapsed.as_secs_f64());
    }
    let fault_hooks_overhead_pct =
        trimmed_mean(&mut hook_deltas) / trimmed_mean(&mut plain_times).max(1e-12) * 100.0;

    // Sharded scatter/gather throughput at 2 and 4 replicas over the
    // full batch — the per-shard-count trajectory keys. Replicas split
    // the machine's thread budget, so at laptop scale this measures
    // routing + dispatch overhead more than it wins throughput; the
    // keys exist to track that overhead staying flat.
    let mut shard_per_sec = [0.0f64; 2];
    for (slot, shards) in [(0usize, 2usize), (1, 4)] {
        let mut sharded = ShardedEngine::new(g, shards);
        std::hint::black_box(sharded.summarize_batch(&inputs, method)); // warm
        let mut times = Vec::with_capacity(BATCH_REPS);
        for _ in 0..BATCH_REPS {
            let t = std::time::Instant::now();
            std::hint::black_box(sharded.summarize_batch(&inputs, method));
            times.push(t.elapsed().as_secs_f64());
        }
        shard_per_sec[slot] = n / trimmed_mean(&mut times).max(1e-12);
    }

    // G1–G5 trajectory sweep (lighter shared protocol per level).
    let levels = level_sweep(scale, seed, users, k);

    BatchBenchReport {
        level: level.name(),
        batch_size: inputs.len(),
        seed_single_ms,
        seed_alloc_bytes_per_summary: seed_m.allocated_bytes as f64 / n,
        free_single_ms,
        persistent_single_ms,
        batch_per_sec,
        persistent_batch_per_sec,
        fast_batch_per_sec,
        alloc_bytes_per_summary: batch_alloc as f64 / n,
        fast_alloc_bytes_per_summary: fast_m.allocated_bytes as f64 / n,
        speedup: seed_single_ms * batch_per_sec / 1e3,
        persistent_speedup: seed_single_ms * persistent_batch_per_sec / 1e3,
        fast_speedup: seed_single_ms * fast_batch_per_sec / 1e3,
        small_batch_per_sec,
        shard2_batch_per_sec: shard_per_sec[0],
        shard4_batch_per_sec: shard_per_sec[1],
        admission_coalesced_per_sec: admission_per_sec,
        admission_p50_ms,
        admission_p99_ms,
        fault_hooks_overhead_pct,
        levels,
    }
}

/// Measure every synthetic scaling level G1–G5 with one shared, lighter
/// protocol: seed-path sequential latency (one pass), then warm KMB and
/// ST-fast batch throughput (one warmup + `LEVEL_REPS` trimmed-mean
/// rounds each). The per-level figures land in `BENCH_batch.json` as
/// `levelN_*` keys; the historical G5 block keeps its own full-protocol
/// measurement, so the two G5 figures are close but not the same number.
pub fn level_sweep(scale: f64, seed: u64, users: usize, k: usize) -> Vec<LevelPoint> {
    let mut out = Vec::with_capacity(ScalingLevel::ALL.len());
    for (i, level) in ScalingLevel::ALL.into_iter().enumerate() {
        let (ds, inputs) = batch_inputs(level, scale, seed, users, k);
        let g = &ds.kg.graph;
        g.freeze();
        let n = inputs.len().max(1) as f64;
        let cfg = SteinerConfig::default();

        let seed_engine = SeedEngine::new(g);
        let (_, seed_m) = measure(|| {
            for input in &inputs {
                std::hint::black_box(seed_engine.steiner_summary(g, input, &cfg));
            }
        });
        let seed_single_ms = seed_m.elapsed.as_secs_f64() * 1e3 / n;

        let throughput = |method: BatchMethod, workload: &[SummaryInput]| -> f64 {
            std::hint::black_box(summarize_batch(g, workload, method)); // warm
            let mut times = Vec::with_capacity(LEVEL_REPS);
            for _ in 0..LEVEL_REPS {
                let t = std::time::Instant::now();
                std::hint::black_box(summarize_batch(g, workload, method));
                times.push(t.elapsed().as_secs_f64());
            }
            workload.len() as f64 / trimmed_mean(&mut times).max(1e-12)
        };
        let batch_per_sec = throughput(BatchMethod::Steiner(cfg), &inputs);
        let fast_batch_per_sec = throughput(BatchMethod::SteinerFast(cfg), &inputs);

        // Group-scenario point: one pooled user-group input whose
        // post-dedup |T| clears the parallel-closure threshold.
        let group = group_input(&ds, GROUP_USERS, seed, k);
        let (group_terminals, group_per_sec, group_fast_per_sec) = match &group {
            Some(gi) => {
                let workload = std::slice::from_ref(gi);
                (
                    gi.terminals.len(),
                    throughput(BatchMethod::Steiner(cfg), workload),
                    throughput(BatchMethod::SteinerFast(cfg), workload),
                )
            }
            None => (0, 0.0, 0.0),
        };

        out.push(LevelPoint {
            level: level.name(),
            num: i + 1,
            batch_size: inputs.len(),
            seed_single_ms,
            batch_per_sec,
            fast_batch_per_sec,
            speedup: seed_single_ms * batch_per_sec / 1e3,
            fast_speedup: seed_single_ms * fast_batch_per_sec / 1e3,
            group_terminals,
            group_per_sec,
            group_fast_per_sec,
        });
    }
    out
}

/// Drive an [`AdmissionQueue`] with `producers` open-loop producer
/// threads over `rounds` rounds of the workload and return
/// `(summaries/sec, p50 latency ms, p99 latency ms)`. Latency is
/// submit→resolve per ticket; each producer submits its share of the
/// round up front (so the dispatcher genuinely coalesces) and then
/// waits the tickets in order.
fn admission_run(
    g: &xsum_graph::Graph,
    inputs: &[SummaryInput],
    producers: usize,
    linger: usize,
    rounds: usize,
) -> (f64, f64, f64) {
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let queue = AdmissionQueue::new(
        EngineBackend::new(g.clone(), SummaryEngine::new()),
        AdmissionConfig {
            queue_bound: 1024,
            max_batch: 32,
            linger_tickets: linger,
        },
    );
    // Warmup round (uncounted): spin the dispatcher, engine buffers,
    // and cost-model cache up.
    for input in inputs {
        let _ = queue.submit(input.clone(), method).expect("queue is live");
    }
    queue.drain();

    let latencies = std::sync::Mutex::new(Vec::with_capacity(rounds * inputs.len()));
    let t0 = std::time::Instant::now();
    for _ in 0..rounds {
        // xlint: allow(rogue-spawn) — closed-loop producer fan-out for the
        // latency bench; scoped and joined every round, panics propagate.
        std::thread::scope(|scope| {
            for p in 0..producers {
                let (queue, latencies) = (&queue, &latencies);
                scope.spawn(move || {
                    let submitted: Vec<_> = inputs
                        .iter()
                        .skip(p)
                        .step_by(producers.max(1))
                        .map(|input| {
                            let t = std::time::Instant::now();
                            let ticket =
                                queue.submit(input.clone(), method).expect("queue is live");
                            (t, ticket)
                        })
                        .collect();
                    let mut local = Vec::with_capacity(submitted.len());
                    for (t, ticket) in submitted {
                        ticket.wait().expect("well-formed input serves");
                        local.push(t.elapsed().as_secs_f64());
                    }
                    latencies
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .extend(local);
                });
            }
        });
    }
    let total = t0.elapsed().as_secs_f64();
    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |q: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        lat[((lat.len() as f64 * q) as usize).min(lat.len() - 1)] * 1e3
    };
    (lat.len() as f64 / total.max(1e-12), pct(0.50), pct(0.99))
}

/// `repro bench_admission`: the coalesced-throughput / ticket-latency
/// sweep across producer counts × linger windows behind the
/// `admission_*` keys `bench_batch` records into `BENCH_batch.json`.
pub fn admission_bench(
    level: ScalingLevel,
    scale: f64,
    seed: u64,
    users: usize,
    k: usize,
    producer_counts: &[usize],
    lingers: &[usize],
) -> Vec<Row> {
    let (ds, inputs) = batch_inputs(level, scale, seed, users, k);
    let g = &ds.kg.graph;
    g.freeze();
    let mut rows = Vec::new();
    for &producers in producer_counts {
        for &linger in lingers {
            let (per_sec, p50, p99) = admission_run(g, &inputs, producers, linger, BATCH_REPS);
            let x = format!("p{producers}/l{linger}");
            rows.push(Row::new(
                "user-centric",
                "random",
                "ST",
                x.clone(),
                "admission_summaries_per_sec",
                per_sec,
            ));
            rows.push(Row::new(
                "user-centric",
                "random",
                "ST",
                x.clone(),
                "admission_p50_latency_ms",
                p50,
            ));
            rows.push(Row::new(
                "user-centric",
                "random",
                "ST",
                x,
                "admission_p99_latency_ms",
                p99,
            ));
        }
    }
    rows
}

/// `repro bench_shard`: scatter/gather KMB throughput per shard count
/// on the BENCH_batch workload (the full sweep behind the
/// `shardN_batch_summaries_per_sec` keys that `bench_batch` records
/// into `BENCH_batch.json`).
pub fn shard_bench(
    level: ScalingLevel,
    scale: f64,
    seed: u64,
    users: usize,
    k: usize,
    shard_counts: &[usize],
) -> Vec<Row> {
    let (ds, inputs) = batch_inputs(level, scale, seed, users, k);
    let g = &ds.kg.graph;
    g.freeze();
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let n = inputs.len().max(1) as f64;
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let mut sharded = ShardedEngine::new(g, shards);
        std::hint::black_box(sharded.summarize_batch(&inputs, method)); // warm
        let mut times = Vec::with_capacity(BATCH_REPS);
        for _ in 0..BATCH_REPS {
            let t = std::time::Instant::now();
            std::hint::black_box(sharded.summarize_batch(&inputs, method));
            times.push(t.elapsed().as_secs_f64());
        }
        rows.push(Row::new(
            "user-centric",
            "random",
            "ST",
            shards,
            "batch_summaries_per_sec",
            n / trimmed_mean(&mut times).max(1e-12),
        ));
    }
    rows
}

/// Repair-cost report of the delta-aware mutation pipeline: what one
/// weight-only delta costs to absorb via the O(|touched|) ledger path
/// vs a rebuild-from-scratch stack, plus serving throughput while a
/// live update stream flows through the admission queue's non-barrier
/// path ([`mutation_bench`]).
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// Edges in the bench graph.
    pub edges: usize,
    /// Edges touched per delta (≤ 1% of `edges`).
    pub delta_edges: usize,
    /// Cost to absorb one delta by rebuilding from scratch: apply the
    /// delta, rebuild the full O(|E|) Eq. 1 model, materialize a fresh
    /// worker cost buffer.
    pub full_rebuild_ms: f64,
    /// Cost to absorb the same delta through the ledger: apply the
    /// delta, patch the resident model via [`CostModelCache`], re-sync
    /// only the touched worker-buffer entries — O(|touched|) end to
    /// end.
    ///
    /// [`CostModelCache`]: xsum_core::CostModelCache
    pub delta_patch_ms: f64,
    /// `full_rebuild_ms / delta_patch_ms`.
    pub speedup: f64,
    /// Cost-cache patches performed over the measured rounds — asserted
    /// equal to the round count (proof the O(|touched|) path actually
    /// served every round).
    pub cache_patches: u64,
    /// Summaries served per second while every 4th submission rode
    /// with a coalesced non-barrier weight update.
    pub live_update_summaries_per_sec: f64,
    /// Individual edge updates the queue applied during that run.
    pub live_updates_applied: u64,
}

/// An anchor-safe weight delta over ≤ `count` edges: never raises a
/// weight above the Eq. 1 anchor (`base_max`), never touches an edge
/// holding the anchor bits, and varies values by `round` so repeated
/// rounds are never bit-no-ops. Strided over the edge list so the
/// touched set is spread across the whole graph.
fn anchor_safe_delta(
    g: &xsum_graph::Graph,
    base_max: f64,
    count: usize,
    round: u64,
) -> Vec<(xsum_graph::EdgeId, f64)> {
    let m = g.edge_count();
    if m == 0 || base_max <= 0.0 {
        return Vec::new();
    }
    let stride = (m / count.max(1)).max(1);
    let mut updates = Vec::with_capacity(count);
    let mut idx = (round as usize) % stride;
    while updates.len() < count && idx < m {
        let e = xsum_graph::EdgeId(idx as u32);
        let w = g.weight(e);
        if w.to_bits() != base_max.to_bits() {
            let f = 0.25 + 0.125 * ((round % 5) as f64);
            let nw = if w > 0.0 {
                w * f
            } else {
                (0.05 + 0.01 * ((round % 7) as f64)).min(base_max * 0.5)
            };
            updates.push((e, nw));
        }
        idx += stride;
    }
    updates
}

/// `repro bench_mutation`: measure the mutation-repair pipeline on the
/// [`batch_inputs`] workload at `level`. Two experiments:
///
/// 1. **Patch vs rebuild.** Each round applies one anchor-safe ≤1%
///    weight delta to both arms' graph clones and repairs the resident
///    Eq. 1 state. The *patch* arm goes through the ledger
///    ([`CostModelCache`] in-place patch + touched-entry worker-buffer
///    re-sync, O(|touched|)); the *rebuild* arm builds a fresh
///    [`SteinerCostModel`] and worker buffer (O(|E|)) — the
///    rebuild-from-scratch oracle the delta path is property-pinned
///    against. The patched table, the patched buffer, and a final
///    end-to-end serve are all asserted bit-identical to the oracle.
///
///    [`CostModelCache`]: xsum_core::CostModelCache
///    [`SteinerCostModel`]: xsum_core::SteinerCostModel
/// 2. **Live-update serving.** The closed-loop admission workload with
///    every 4th submission riding alongside a coalesced non-barrier
///    `submit_weight_update`; reports served summaries/sec with the
///    update stream flowing.
pub fn mutation_bench(
    level: ScalingLevel,
    scale: f64,
    seed: u64,
    users: usize,
    k: usize,
) -> (Vec<Row>, MutationReport) {
    let (ds, inputs) = batch_inputs(level, scale, seed, users, k);
    let g = &ds.kg.graph;
    g.freeze();
    let cfg = SteinerConfig::default();
    let method = BatchMethod::Steiner(cfg);
    let m = g.edge_count();
    let delta_edges = (m / 100).clamp(1, 32_768);
    let base_max = g.edge_ids().fold(0.0f64, |acc, e| acc.max(g.weight(e)));
    let probe = inputs
        .first()
        .cloned()
        .expect("bench workload is non-empty");

    // Arm 1: patch vs rebuild. Both arms apply the identical delta tape
    // to their own graph clone and then bring a current Eq. 1 cost
    // table + worker cost buffer into existence; only the repair
    // strategy differs. The serve that follows repair is bit-identical
    // in both arms (pinned below, outside the timed region), so it is
    // excluded from the timing: the metric is the repair cost itself.
    let mut g_patch = g.clone();
    let mut g_rebuild = g.clone();
    let mut cache = xsum_core::CostModelCache::new(4);
    let (_, seed_model) = cache.get(&g_patch, &cfg);
    let mut patch_buf = seed_model.fresh_costs();
    drop(seed_model);
    let mut patch_times = Vec::with_capacity(MUTATION_REPS);
    let mut rebuild_times = Vec::with_capacity(MUTATION_REPS);
    for round in 0..MUTATION_REPS as u64 {
        let delta = anchor_safe_delta(g, base_max, delta_edges, round);

        // Ledger path: O(|touched|) — apply, patch the resident model
        // through the cache, re-sync only the touched buffer entries.
        let prev_epoch = g_patch.epoch();
        let t = std::time::Instant::now();
        g_patch.apply_delta(&delta);
        let (_, model) = cache.get(&g_patch, &cfg);
        let touched = g_patch
            .delta_since(prev_epoch)
            .expect("anchor-safe delta keeps the ledger chain alive");
        model.copy_touched_into(&mut patch_buf, &touched);
        patch_times.push(t.elapsed().as_secs_f64());

        // Rebuild-from-scratch oracle: O(|E|) — apply, rebuild the full
        // model, materialize a fresh worker buffer.
        let t = std::time::Instant::now();
        g_rebuild.apply_delta(&delta);
        let rebuilt = xsum_core::SteinerCostModel::new(&g_rebuild, &cfg);
        let rebuilt_buf = rebuilt.fresh_costs();
        rebuild_times.push(t.elapsed().as_secs_f64());

        // Property pin: the patched table and buffer are bit-identical
        // to the rebuilt ones, every round.
        let patched_table = model.fresh_costs();
        assert!(
            patched_table
                .0
                .iter()
                .zip(rebuilt.fresh_costs().0.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "patched Eq. 1 table diverged from the rebuild oracle"
        );
        assert!(
            patch_buf
                .0
                .iter()
                .zip(rebuilt_buf.0.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "patched worker buffer diverged from the rebuild oracle"
        );
    }
    let cache_patches = cache.patches();
    assert_eq!(
        cache_patches, MUTATION_REPS as u64,
        "every round must take the O(|touched|) patch path"
    );
    // End-to-end pin: a warm engine serving over the patched graph
    // agrees with a cold engine over the rebuilt one.
    let mut warm = SummaryEngine::new();
    let got_patch = warm.summarize(&g_patch, &probe, method);
    let got_rebuild = SummaryEngine::new().summarize(&g_rebuild, &probe, method);
    assert_eq!(
        got_patch.subgraph.sorted_edges(),
        got_rebuild.subgraph.sorted_edges(),
        "serve over the patched graph diverged from the rebuild oracle"
    );
    let delta_patch_ms = trimmed_mean(&mut patch_times) * 1e3;
    let full_rebuild_ms = trimmed_mean(&mut rebuild_times) * 1e3;

    // Arm 2: serving throughput with a live non-barrier update stream.
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::new(),
        AdmissionConfig {
            queue_bound: 1024,
            max_batch: 32,
            linger_tickets: 8,
        },
    );
    for input in &inputs {
        let _ = queue.submit(input.clone(), method).expect("queue is live");
    }
    queue.drain();
    let mut completed = 0u64;
    let t0 = std::time::Instant::now();
    for round in 0..LIVE_UPDATE_REPS as u64 {
        let mut tickets = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            if i % 4 == 0 {
                // Fire-and-forget: the ticket acknowledgement is not
                // part of the serving path being measured.
                let delta =
                    anchor_safe_delta(g, base_max, delta_edges.min(64), round * 1000 + i as u64);
                let _ = queue.submit_weight_update(delta).expect("queue is live");
            }
            tickets.push(queue.submit(input.clone(), method).expect("queue is live"));
        }
        for t in tickets {
            t.wait().expect("well-formed input serves");
            completed += 1;
        }
    }
    let live_secs = t0.elapsed().as_secs_f64().max(1e-12);
    queue.drain();
    let live_updates_applied = queue.stats().weight_updates_applied;
    let live_update_summaries_per_sec = completed as f64 / live_secs;

    let report = MutationReport {
        edges: m,
        delta_edges,
        full_rebuild_ms,
        delta_patch_ms,
        speedup: full_rebuild_ms / delta_patch_ms.max(1e-12),
        cache_patches,
        live_update_summaries_per_sec,
        live_updates_applied,
    };
    let mut rows = Vec::new();
    for (metric, value) in [
        ("mutation_full_rebuild_ms", report.full_rebuild_ms),
        ("mutation_delta_patch_ms", report.delta_patch_ms),
        ("mutation_delta_speedup", report.speedup),
        (
            "admission_live_update_summaries_per_sec",
            report.live_update_summaries_per_sec,
        ),
    ] {
        rows.push(Row::new(
            "user-centric",
            "random",
            "ST",
            format!("{delta_edges}edges"),
            metric,
            value,
        ));
    }
    (rows, report)
}

/// Rounds of the patch-vs-rebuild series in [`mutation_bench`]. Each
/// round is microseconds of repair work, so many rounds keep the
/// trimmed mean stable.
const MUTATION_REPS: usize = 48;

/// Rounds of the live-update serving loop in [`mutation_bench`].
const LIVE_UPDATE_REPS: usize = 4;

/// Rounds of the single-summary series: the cold-vs-warm gap the engine
/// closes is a few microseconds per call once order-alternation removes
/// cache-warming bias (the free path's O(|E|) copy doubles as a
/// prefetch of the table the tree search reads anyway), so the
/// trimmed-mean standard error has to sit below that.
const SINGLE_REPS: usize = 64;

/// Rounds of the batch series (each round is a whole batch, so fewer
/// rounds buy the same total sample mass).
const BATCH_REPS: usize = 16;

/// Rounds per level of the G1–G5 sweep — five graphs × three series
/// each, so the sweep stays a minority of the bench's runtime.
const LEVEL_REPS: usize = 8;

/// Fraction of rounds trimmed from *each* end before averaging:
/// co-tenant CPU spikes land in a handful of rounds and are heavily
/// one-sided, so a plain mean over rounds would drown a
/// tens-of-microseconds effect in milliseconds of spike.
const TRIM_FRACTION: f64 = 0.125;

/// Mean of `samples` after dropping the lowest and highest
/// [`TRIM_FRACTION`] of rounds (sorts in place).
fn trimmed_mean(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let trim = ((samples.len() as f64 * TRIM_FRACTION) as usize).min((samples.len() - 1) / 2);
    let kept = &samples[trim..samples.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Fig. 9: per-k time (ms) and allocation (KiB) for each scenario.
pub fn fig9(ctx: &Ctx, baseline: Baseline) -> Vec<Row> {
    let mut rows = Vec::new();
    let g = &ctx.ds.kg.graph;
    for k in 1..=ctx.cfg.top_k {
        for (scenario, inputs) in scenario_inputs(ctx, baseline, k) {
            if inputs.is_empty() {
                continue;
            }
            for (method, ms, kib) in time_methods(g, &inputs) {
                rows.push(Row::new(
                    scenario,
                    baseline.name(),
                    method,
                    k,
                    "time_ms",
                    ms,
                ));
                rows.push(Row::new(
                    scenario,
                    baseline.name(),
                    method,
                    k,
                    "alloc_kib",
                    kib,
                ));
            }
        }
    }
    rows
}

/// Fig. 10: time vs group size at k = top_k for user groups and item
/// groups.
pub fn fig10(ctx: &Ctx, baseline: Baseline, sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let g = &ctx.ds.kg.graph;
    let k = ctx.cfg.top_k;
    for &size in sizes {
        // User groups: prefixes of the sample.
        let group: Vec<usize> = ctx.users.iter().copied().take(size).collect();
        if !group.is_empty() {
            let inputs = group_inputs_for_users(ctx, baseline, k, &[group]);
            for (method, ms, _) in time_methods(g, &inputs) {
                rows.push(Row::new(
                    "user-group",
                    baseline.name(),
                    method,
                    size,
                    "time_ms",
                    ms,
                ));
            }
        }
        // Item groups: prefixes of the popular+unpopular sample.
        let items: Vec<usize> = ctx
            .popular_items
            .iter()
            .chain(ctx.unpopular_items.iter())
            .copied()
            .take(size)
            .collect();
        if let Some(input) = super::item_group_input_for_items(ctx, baseline, k, &items) {
            for (method, ms, _) in time_methods(g, std::slice::from_ref(&input)) {
                rows.push(Row::new(
                    "item-group",
                    baseline.name(),
                    method,
                    size,
                    "time_ms",
                    ms,
                ));
            }
        }
    }
    rows
}

/// Fig. 11: time/allocation vs graph size G1–G5 on synthetic random
/// 3-hop paths (k = 10 per user, user-centric and one group per run).
///
/// `scale` shrinks the Table III graphs for laptop runs; `users` is the
/// per-graph user sample size, `group_size` the user-group size.
pub fn fig11(scale: f64, seed: u64, users: usize, group_size: usize, k: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for level in ScalingLevel::ALL {
        let ds = scaling_graph_scaled(level, seed, scale);
        let g = &ds.kg.graph;
        let n_users = ds.kg.n_users();
        let sample: Vec<usize> = (0..users.min(n_users)).collect();

        // Synthetic explanation paths: k random 3-hop walks per user.
        let mut per_user_inputs = Vec::new();
        let mut all_paths = Vec::new();
        let mut group_nodes: Vec<NodeId> = Vec::new();
        for (j, &u) in sample.iter().enumerate() {
            let mut paths = Vec::new();
            for i in 0..k {
                if let Some(p) =
                    random_explanation_path(&ds, u, 3, seed ^ (u as u64) << 8 ^ i as u64, 30)
                {
                    paths.push(xsum_graph::LoosePath::from_path(&p));
                }
            }
            if paths.is_empty() {
                continue;
            }
            if j < group_size {
                group_nodes.push(ds.kg.user_node(u));
                all_paths.extend(paths.iter().cloned());
            }
            per_user_inputs.push(SummaryInput::user_centric(ds.kg.user_node(u), paths));
        }

        for (method, ms, kib) in time_methods(g, &per_user_inputs) {
            rows.push(Row::new(
                "user-centric",
                "random",
                method,
                level.name(),
                "time_ms",
                ms,
            ));
            rows.push(Row::new(
                "user-centric",
                "random",
                method,
                level.name(),
                "alloc_kib",
                kib,
            ));
        }
        if !group_nodes.is_empty() {
            let group_input = SummaryInput::user_group(&group_nodes, all_paths);
            for (method, ms, kib) in time_methods(g, &[group_input]) {
                rows.push(Row::new(
                    "user-group",
                    "random",
                    method,
                    level.name(),
                    "time_ms",
                    ms,
                ));
                rows.push(Row::new(
                    "user-group",
                    "random",
                    method,
                    level.name(),
                    "alloc_kib",
                    kib,
                ));
            }
        }
    }
    rows
}
