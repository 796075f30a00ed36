//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (nothing inside the program is
//! instrumented), kept in memory, and written to `.bench_out/` at the
//! end. Four parts:
//!
//! * **set-up**: dataset generation, graph freeze, explanation paths;
//! * **kernel replay**: every input's Eq. 1 cost table, KMB's metric
//!   closure replayed source by source with `DijkstraWorkspace::run`,
//!   Kruskal over that closure, the whole KMB and ST-fast trees, the
//!   Voronoi pass, and PCST, each timed on its own;
//! * **engine and shard layers**: the served batches through a
//!   `SummaryEngine` and through a two-shard `ShardedEngine`;
//! * **layer ladder**: the workload's tape replayed, open loop, through
//!   free function → `SummaryEngine::summarize` → engine batch →
//!   `ShardedEngine` (2) → `AdmissionQueue` → `serve_stream`, each layer
//!   reported as its increase in median latency over the layer below.
//!   The top layer runs traced: the admission backend times every batch
//!   and the wire threads record a span per frame as they go. The same
//!   tape replayed the way the end-to-end run replays it (untraced,
//!   same warm-up, same estimator) gives `serve_p50_ms`; the top layer
//!   minus that is the tracing overhead, and the ladder's increases,
//!   which sum to the top layer, must land within
//!   [`LADDER_TOLERANCE`] of it.
//!
//! Work counters (nodes settled, edges scanned, closure workers,
//! batches dispatched, frame bytes, cost-cache hits/misses/patches)
//! come from deterministic replays, so a seed always gives the same
//! counts.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use xsum_bench::traffic::{Arrival, ArrivalKind};
use xsum_core::{
    pcst_summary, steiner_costs, steiner_tree_fast_with, steiner_tree_with, AdmissionBackend,
    AdmissionConfig, AdmissionQueue, BatchMethod, EngineError, PcstConfig, ShardedEngine,
    SteinerConfig, SteinerWorkspace, Summary, SummaryEngine, SummaryInput, WireSummary,
};
use xsum_graph::{kruskal, DijkstraWorkspace, EdgeId, Graph, MstEdge, NodeId};

use crate::fixture::{Batch, Fixture, Workload};
use crate::serve::{self, Replay, Step};
use crate::stats::{mean, median};
use crate::{Metric, Outcome};

/// Allowed gap between the ladder's summed increases (the traced
/// `serve_stream` median) and the untraced end-to-end `serve_p50_ms` of
/// the same tape, as a share of the untraced figure.
pub const LADDER_TOLERANCE: f64 = 0.25;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    req: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, shared by the threads of a replay.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span lock")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span; returns its id (the parent handle of children).
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut spans = self.spans();
        spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        });
        spans.len() - 1
    }

    /// Set the end of span `id` (recorded before its children).
    pub fn end(&self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans()[id].end_ns = end_ns;
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.req.map_or("null".to_string(), |r| r.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One coalesced batch as the admission backend saw it.
#[derive(Debug, Clone, Copy)]
struct BatchRec {
    start: Instant,
    end: Instant,
    size: usize,
}

/// A benchmark-owned [`AdmissionBackend`] that times every batch the
/// queue dispatches onto the wrapped backend. The n-th `run_batch` call
/// serves the batch with `DispatchMeta::batch == n`.
struct TimedBackend<B> {
    inner: B,
    log: Arc<Mutex<Vec<BatchRec>>>,
}

impl<B: AdmissionBackend> AdmissionBackend for TimedBackend<B> {
    fn run_batch(
        &mut self,
        inputs: &[&SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        let start = Instant::now();
        let out = self.inner.run_batch(inputs, method);
        let end = Instant::now();
        self.log.lock().expect("batch log lock").push(BatchRec {
            start,
            end,
            size: inputs.len(),
        });
        out
    }

    fn run_one(
        &mut self,
        input: &SummaryInput,
        method: BatchMethod,
    ) -> Result<Summary, EngineError> {
        self.inner.run_one(input, method)
    }

    fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
        self.inner.mutate_graph(f)
    }

    fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) -> Result<(), EngineError> {
        self.inner.apply_weight_delta(updates)
    }

    fn recover_coherence(&mut self) -> Result<(), EngineError> {
        self.inner.recover_coherence()
    }

    fn cross_shard_serves(&self) -> u64 {
        self.inner.cross_shard_serves()
    }
}

/// The serving stack of [`serve::stack`] behind a [`TimedBackend`].
fn timed_stack(g: &Graph) -> (AdmissionQueue, Arc<Mutex<Vec<BatchRec>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let backend = TimedBackend {
        inner: ShardedEngine::with_threads(g, 2, 1),
        log: Arc::clone(&log),
    };
    (
        AdmissionQueue::new(backend, AdmissionConfig::default()),
        log,
    )
}

/// Checked-operation tally.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, got: &Summary, want: &WireSummary) {
        self.attempted += 1;
        self.failed += u64::from(WireSummary::from_summary(got) != *want);
    }
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64) -> Outcome {
    let tr = Tracer::new();
    let mut tally = Tally::default();
    let mut m = Vec::new();
    let mut notes = Vec::new();

    let t0 = Instant::now();
    let fix = Fixture::build(workload, seed);
    let setup = tr.span("setup", None, None, t0, Instant::now());
    let times = fix.times;
    let at = |s: f64| t0 + std::time::Duration::from_secs_f64(s);
    tr.span(
        "datasets.generate",
        Some(setup),
        None,
        t0,
        at(times.generate_s),
    );
    let freeze_end = times.generate_s + times.freeze_ms * 1e-3;
    tr.span(
        "graph.freeze",
        Some(setup),
        None,
        at(times.generate_s),
        at(freeze_end),
    );
    tr.span(
        "recommenders.paths",
        Some(setup),
        None,
        at(freeze_end),
        at(freeze_end + times.paths_s),
    );
    m.push(Metric::new("datasets.generate_s", times.generate_s, "s"));
    m.push(Metric::new("recommenders.paths_s", times.paths_s, "s"));
    m.push(Metric::new("graph.freeze_ms", times.freeze_ms, "ms"));

    let oracles = oracles(&fix);
    m.extend(kernel_layers(&fix, &oracles, &tr, &mut tally));
    m.extend(engine_and_shard_layers(&fix, &oracles, &tr, &mut tally));

    let inputs = fix.served_inputs();
    let tape = ladder_tape(workload, seed, inputs.len(), fix.graph.edge_count());
    let want = serve::oracle(&fix.graph, &inputs, &tape);
    let ladder = ladder(&fix.graph, &inputs, &tape, &tr);
    for r in ladder.replays.iter() {
        tally.attempted += tape.len() as u64;
        tally.failed += r.mismatches(&want);
    }
    tally.attempted += ladder.warm.0;
    tally.failed += ladder.warm.1;
    m.extend(ladder.metrics(&tape));
    notes.push(format!(
        "ladder: {} requests; increases sum to {:.4} ms vs untraced end-to-end serve_p50_ms \
         {:.4} ms: gap {:.1}% ({} the {:.0}% tolerance)",
        tape.len(),
        ladder.p50[WIRE],
        ladder.untraced_p50,
        ladder.gap_frac() * 100.0,
        if ladder.gap_frac() <= LADDER_TOLERANCE {
            "within"
        } else {
            "OUTSIDE"
        },
        LADDER_TOLERANCE * 100.0,
    ));

    let (batches, held) = held_replay(&fix.graph, &inputs, &tape);
    tally.attempted += tape.len() as u64;
    tally.failed += held.mismatches(&want);
    m.push(Metric::new(
        "admission.batches_dispatched",
        batches as f64,
        "count",
    ));

    let path = format!(
        "{}/{}-seed{}-spans.jsonl",
        crate::OUT_DIR,
        workload.name(),
        seed
    );
    match std::fs::create_dir_all(crate::OUT_DIR).and_then(|()| tr.write(&path)) {
        Ok(()) => notes.push(format!("{} spans written to {path}", tr.len())),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
    }
}

/// Free-function outputs of every input of every batch under every
/// method: `[batch][method][input]`.
type Oracles = Vec<[Vec<WireSummary>; 3]>;

fn oracles(fix: &Fixture) -> Oracles {
    fix.batches
        .iter()
        .map(|b| {
            crate::methods().map(|method| {
                b.inputs
                    .iter()
                    .map(|i| WireSummary::from_summary(&method.run(&fix.graph, i)))
                    .collect()
            })
        })
        .collect()
}

/// The kernel replay over every input of every batch.
fn kernel_layers(fix: &Fixture, oracles: &Oracles, tr: &Tracer, tally: &mut Tally) -> Vec<Metric> {
    let g = &fix.graph;
    let cfg = SteinerConfig::default();
    let pcfg = PcstConfig::default();
    let mut seq = SteinerWorkspace::new();
    seq.set_parallelism(1);
    let mut fanout = SteinerWorkspace::new();
    let mut dij = DijkstraWorkspace::new();
    let mut arena: Vec<EdgeId> = Vec::new();
    let mut closure: Vec<MstEdge> = Vec::new();

    let (mut run_ms, mut cost_ms, mut closure_ms, mut kruskal_us) =
        (vec![], vec![], vec![], vec![]);
    let (mut kmb_c, mut kmb_g, mut fast_c, mut fast_g) = (vec![], vec![], vec![], vec![]);
    let (mut kmb_all, mut fast_all, mut voronoi_ms, mut pcst_ms) = (vec![], vec![], vec![], vec![]);
    let (mut settled, mut scanned, mut workers) = (0u64, 0u64, 0u64);
    let kernel = tr.span("kernel", None, None, Instant::now(), Instant::now());

    for (b, batch) in fix.batches.iter().enumerate() {
        for (i, input) in batch.inputs.iter().enumerate() {
            let t = Instant::now();
            let costs = steiner_costs(g, input, &cfg);
            let e = Instant::now();
            tr.span("steiner.cost_table", Some(kernel), None, t, e);
            cost_ms.push(ms(t, e));
            let mut terms: Vec<NodeId> = input.terminals.clone();
            terms.sort_unstable();
            terms.dedup();

            // Warm-up for the timings below; also counts the workers the
            // closure fans out to with the default thread budget.
            steiner_tree_with(g, &costs, &input.terminals, &mut fanout);
            workers += fanout.last_closure_workers() as u64;

            // KMB's metric closure, one Dijkstra per source.
            closure.clear();
            arena.clear();
            let c0 = Instant::now();
            let cspan = tr.span("steiner.closure", Some(kernel), None, c0, c0);
            let mut closure_s = 0.0;
            for si in 0..terms.len().saturating_sub(1) {
                let t = Instant::now();
                dij.run(g, &costs, terms[si], &terms[si + 1..]);
                let e = Instant::now();
                tr.span("graph.dijkstra.run", Some(cspan), None, t, e);
                run_ms.push(ms(t, e));
                for (off, &target) in terms[si + 1..].iter().enumerate() {
                    if let Some(d) = dij.distance(target) {
                        let start = arena.len();
                        if dij.append_path_to(g, target, &mut arena) {
                            closure.push(MstEdge {
                                a: si,
                                b: si + 1 + off,
                                cost: d,
                                payload: start,
                            });
                        }
                    }
                }
                closure_s += t.elapsed().as_secs_f64();
                // Counting walks every node: kept out of the closure time.
                dij.for_each_settled(|v| {
                    settled += 1;
                    scanned += g.degree(v) as u64;
                });
            }
            tr.end(cspan, Instant::now());
            closure_ms.push(closure_s * 1e3);
            let t = Instant::now();
            std::hint::black_box(kruskal(terms.len(), &closure));
            let e = Instant::now();
            tr.span("graph.kruskal", Some(kernel), None, t, e);
            kruskal_us.push(ms(t, e) * 1e3);

            let t = Instant::now();
            let tree = steiner_tree_with(g, &costs, &input.terminals, &mut seq);
            let e = Instant::now();
            tr.span("steiner.kmb", Some(kernel), None, t, e);
            let kmb = ms(t, e);
            kmb_all.push(kmb);
            if batch.group { &mut kmb_g } else { &mut kmb_c }.push(kmb);
            tally.check(&as_summary("ST", input, tree), &oracles[b][0][i]);

            let t = Instant::now();
            dij.run_voronoi(g, &costs, &terms);
            let e = Instant::now();
            tr.span("graph.voronoi", Some(kernel), None, t, e);
            voronoi_ms.push(ms(t, e));

            let t = Instant::now();
            let tree = steiner_tree_fast_with(g, &costs, &input.terminals, &mut seq);
            let e = Instant::now();
            tr.span("steiner.fast", Some(kernel), None, t, e);
            let fast = ms(t, e);
            fast_all.push(fast);
            if batch.group {
                &mut fast_g
            } else {
                &mut fast_c
            }
            .push(fast);
            tally.check(&as_summary("ST-fast", input, tree), &oracles[b][1][i]);

            let t = Instant::now();
            let s = pcst_summary(g, input, &pcfg);
            let e = Instant::now();
            tr.span("pcst.summary", Some(kernel), None, t, e);
            pcst_ms.push(ms(t, e));
            tally.check(&s, &oracles[b][2][i]);
        }
    }
    tr.end(kernel, Instant::now());
    vec![
        Metric::new("graph.dijkstra.run_ms", median(&run_ms), "ms"),
        Metric::new("graph.dijkstra.settled", settled as f64, "count"),
        Metric::new("graph.dijkstra.edges_scanned", scanned as f64, "count"),
        Metric::new("graph.voronoi_ms", mean(&voronoi_ms), "ms"),
        Metric::new("graph.kruskal_us", mean(&kruskal_us), "us"),
        Metric::new("steiner.cost_table_ms", mean(&cost_ms), "ms"),
        Metric::new("steiner.kmb_ms.centric", mean(&kmb_c), "ms"),
        Metric::new("steiner.kmb_ms.group", mean(&kmb_g), "ms"),
        Metric::new("steiner.fast_ms.centric", mean(&fast_c), "ms"),
        Metric::new("steiner.fast_ms.group", mean(&fast_g), "ms"),
        Metric::new(
            "steiner.kmb_post_ms",
            mean(&kmb_all) - mean(&closure_ms) - mean(&kruskal_us) * 1e-3,
            "ms",
        ),
        Metric::new("steiner.closure_workers", workers as f64, "count"),
        Metric::new(
            "steiner.fast_post_ms",
            mean(&fast_all) - mean(&voronoi_ms),
            "ms",
        ),
        Metric::new("pcst.summary_ms", mean(&pcst_ms), "ms"),
    ]
}

fn as_summary(
    method: &'static str,
    input: &SummaryInput,
    subgraph: xsum_graph::Subgraph,
) -> Summary {
    Summary {
        method,
        scenario: input.scenario,
        subgraph,
        terminals: input.terminals.clone(),
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// The served batches through one warm `SummaryEngine` and through a
/// warm two-shard `ShardedEngine`, every (batch, method) once each.
fn engine_and_shard_layers(
    fix: &Fixture,
    oracles: &Oracles,
    tr: &Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let g = &fix.graph;
    let served: Vec<(usize, &Batch)> = fix
        .batches
        .iter()
        .enumerate()
        .filter(|(_, b)| b.served)
        .collect();
    let mut engine = SummaryEngine::new();
    let mut sharded = ShardedEngine::new(g, 2);
    let mut seq_s = 0.0;
    let mut batch_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for &(b, batch) in &served {
        for (mi, method) in crate::methods().into_iter().enumerate() {
            let t = Instant::now();
            for input in &batch.inputs {
                std::hint::black_box(method.run(g, input));
            }
            seq_s += t.elapsed().as_secs_f64();
            // Warm both, then time one call each.
            engine.summarize_batch(g, &batch.inputs, method);
            sharded.summarize_batch(&batch.inputs, method);
            let t = Instant::now();
            let got = engine.summarize_batch(g, &batch.inputs, method);
            let e = Instant::now();
            tr.span("engine.batch", None, None, t, e);
            let single = ms(t, e);
            batch_ms.push(single);
            for (s, want) in got.iter().zip(&oracles[b][mi]) {
                tally.check(s, want);
            }
            let t = Instant::now();
            let got = sharded.summarize_batch(&batch.inputs, method);
            let e = Instant::now();
            tr.span("shard.batch", None, None, t, e);
            overhead_ms.push(ms(t, e) - single);
            for (s, want) in got.iter().zip(&oracles[b][mi]) {
                tally.check(s, want);
            }
        }
    }
    let mut per_shard = [0usize; 2];
    for &(_, batch) in &served {
        for input in &batch.inputs {
            per_shard[sharded.shard_of_input(input)] += 1;
        }
    }
    let imbalance = *per_shard.iter().max().expect("two shards") as f64
        / (per_shard.iter().sum::<usize>() as f64 / 2.0).max(1e-12);
    let batch_s: f64 = batch_ms.iter().sum::<f64>() * 1e-3;
    vec![
        Metric::new("engine.batch_ms", mean(&batch_ms), "ms"),
        Metric::new(
            "engine.parallel_eff",
            seq_s / (engine.threads() as f64 * batch_s).max(1e-12),
            "ratio",
        ),
        Metric::new("shard.overhead_ms", mean(&overhead_ms), "ms"),
        Metric::new("shard.imbalance", imbalance, "ratio"),
    ]
}

/// Index of each ladder layer in [`Ladder::p50`].
const FREE: usize = 0;
const SUMMARIZE: usize = 1;
const BATCH: usize = 2;
const SHARD: usize = 3;
const QUEUE: usize = 4;
const WIRE: usize = 5;
const LAYERS: [&str; 6] = [
    "ladder.free",
    "ladder.summarize",
    "ladder.batch",
    "ladder.shard",
    "ladder.admission",
    "ladder.wire",
];

/// The layer ladder's measurements.
pub struct Ladder {
    /// Median due → done latency of summary requests per layer (ms).
    pub p50: [f64; 6],
    /// `serve_p50_ms` of the same tape through the untraced end-to-end
    /// path: warmed [`serve::stack`], [`serve::replay_wire`] (ms).
    pub untraced_p50: f64,
    /// Every replay: the six layers, then the untraced one.
    pub replays: Vec<Replay>,
    /// Warm-up frames of the two wire stacks: `(sent, answered wrongly)`.
    pub warm: (u64, u64),
    /// The admission layer's batch log.
    batches: Vec<BatchRec>,
    /// Cost-cache `(hits, misses, patches)` of the `summarize` layer.
    cache: (u64, u64, u64),
}

impl Ladder {
    /// How far the ladder's summed increases (the traced top layer) are
    /// from the untraced end-to-end median, as a share of the latter.
    pub fn gap_frac(&self) -> f64 {
        (self.p50[WIRE] - self.untraced_p50).abs() / self.untraced_p50.max(1e-12)
    }

    /// Increases over the layer below, plus the admission and wire
    /// layers' own timings.
    pub fn metrics(&self, tape: &[Arrival]) -> Vec<Metric> {
        let p = &self.p50;
        let q = &self.replays[QUEUE];
        let w = &self.replays[WIRE];
        let start = q.start.expect("queue replay records its start");
        let (mut wait, mut service, mut lag) = (vec![], vec![], vec![]);
        for (i, a) in tape.iter().enumerate() {
            if !matches!(a.kind, ArrivalKind::Summary { .. }) || q.batch[i] == 0 {
                continue;
            }
            let rec = self.batches[q.batch[i] as usize - 1];
            let issued = start + std::time::Duration::from_nanos(q.issued_ns[i]);
            let done = start + std::time::Duration::from_nanos(q.done_ns[i].unwrap_or(0));
            wait.push(ms(issued, rec.start));
            service.push(ms(rec.start, rec.end));
            lag.push(ms(rec.end, done));
        }
        let busy: f64 = self.batches.iter().map(|r| ms(r.start, r.end)).sum();
        let sizes: Vec<f64> = self.batches.iter().map(|r| r.size as f64).collect();
        let barrier = q.latencies_ms(tape, |k| matches!(k, ArrivalKind::Mutation { .. }));
        let late = self.replays[WIRE]
            .late_ms_max
            .max(self.replays[WIRE + 1].late_ms_max);
        vec![
            Metric::new("ladder.free_ms", p[FREE], "ms"),
            Metric::new("ladder.summarize_added_ms", p[SUMMARIZE] - p[FREE], "ms"),
            Metric::new("ladder.batch_added_ms", p[BATCH] - p[SUMMARIZE], "ms"),
            Metric::new("ladder.shard_added_ms", p[SHARD] - p[BATCH], "ms"),
            Metric::new("ladder.admission_added_ms", p[QUEUE] - p[SHARD], "ms"),
            Metric::new("wire.stream_added_ms", p[WIRE] - p[QUEUE], "ms"),
            Metric::new("ladder.sum_ms", p[WIRE], "ms"),
            Metric::new("ladder.untraced_ms", self.untraced_p50, "ms"),
            Metric::new("ladder.gap_frac", self.gap_frac(), "ratio"),
            Metric::new("trace.overhead_ms", p[WIRE] - self.untraced_p50, "ms"),
            Metric::new("admission.queue_wait_ms", median(&wait), "ms"),
            Metric::new("admission.service_ms", median(&service), "ms"),
            Metric::new("admission.resolve_lag_ms", median(&lag), "ms"),
            Metric::new("admission.batch_size_mean", mean(&sizes), "req"),
            Metric::new(
                "admission.backend_busy_frac",
                busy / (q.elapsed_s * 1e3).max(1e-12),
                "ratio",
            ),
            Metric::new("admission.barrier_ms", median(&barrier), "ms"),
            Metric::new("engine.cost_cache.hits", self.cache.0 as f64, "count"),
            Metric::new("engine.cost_cache.misses", self.cache.1 as f64, "count"),
            Metric::new("engine.cost_cache.patches", self.cache.2 as f64, "count"),
            Metric::new("wire.encode_us", w.encode_us, "us"),
            Metric::new("wire.decode_us", w.decode_us, "us"),
            Metric::new("wire.frame_bytes", w.frame_bytes as f64, "count"),
            Metric::new("loadgen.late_ms_max", late, "ms"),
        ]
    }
}

/// Replay `tape` through each layer in turn (see the module docs),
/// then once more untraced as the end-to-end run does, recording spans
/// into `tr`.
pub fn ladder(g: &Graph, inputs: &[SummaryInput], tape: &[Arrival], tr: &Tracer) -> Ladder {
    let mut replays = Vec::with_capacity(7);

    let mut g0 = g.clone();
    replays.push(serve::replay_sync(inputs, tape, |step| match step {
        Step::Summary(input, method) => Some(WireSummary::from_summary(&method.run(&g0, input))),
        Step::Mutation(e, w) => {
            g0.set_weight(e, w);
            None
        }
    }));

    let mut g1 = g.clone();
    let mut engine1 = SummaryEngine::new();
    replays.push(serve::replay_sync(inputs, tape, |step| match step {
        Step::Summary(input, method) => Some(WireSummary::from_summary(
            &engine1.summarize(&g1, input, method),
        )),
        Step::Mutation(e, w) => {
            g1.set_weight(e, w);
            None
        }
    }));
    let (hits, misses) = engine1.cost_cache_stats();
    let cache = (hits, misses, engine1.cost_cache_patches());

    let mut g2 = g.clone();
    let mut engine2 = SummaryEngine::new();
    replays.push(serve::replay_sync(inputs, tape, |step| match step {
        Step::Summary(input, method) => Some(WireSummary::from_summary(
            &engine2.summarize_batch(&g2, std::slice::from_ref(input), method)[0],
        )),
        Step::Mutation(e, w) => {
            g2.set_weight(e, w);
            None
        }
    }));

    let mut sharded = ShardedEngine::new(g, 2);
    replays.push(serve::replay_sync(inputs, tape, |step| match step {
        Step::Summary(input, method) => Some(WireSummary::from_summary(
            &sharded.summarize_batch(std::slice::from_ref(input), method)[0],
        )),
        Step::Mutation(e, w) => {
            sharded.mutate(|g| g.set_weight(e, w));
            None
        }
    }));

    let (queue, log) = timed_stack(g);
    replays.push(serve::replay_queue(&queue, inputs, tape));
    drop(queue);
    let batches = log.lock().expect("batch log lock").clone();

    // Both wire stacks are warmed as the end-to-end run warms its own.
    let (queue, wire_log) = timed_stack(g);
    let mut warm = serve::warm(&queue, g, inputs);
    replays.push(serve::replay_wire(&queue, inputs, tape, true, Some(tr)));
    drop(queue);
    for b in wire_log.lock().expect("batch log lock").iter() {
        tr.span("admission.batch", None, None, b.start, b.end);
    }

    let queue = serve::stack(g);
    let (sent, bad) = serve::warm(&queue, g, inputs);
    warm = (warm.0 + sent, warm.1 + bad);
    replays.push(serve::replay_wire(&queue, inputs, tape, true, None));
    drop(queue);

    let is_summary = |k: &ArrivalKind| matches!(k, ArrivalKind::Summary { .. });
    let mut p50 = [0.0; 6];
    for (layer, r) in replays.iter().take(6).enumerate() {
        p50[layer] = median(&r.latencies_ms(tape, is_summary));
        let start = r.start.expect("replays record their start");
        let end = start + std::time::Duration::from_secs_f64(r.elapsed_s);
        let parent = tr.span(LAYERS[layer], None, None, start, end);
        for (i, a) in tape.iter().enumerate() {
            if let Some(done) = r.done_ns[i] {
                let done = start + std::time::Duration::from_nanos(done);
                tr.span(
                    LAYERS[layer],
                    Some(parent),
                    Some(i as u64),
                    start + a.at,
                    done,
                );
            }
        }
    }
    let untraced_p50 = median(&replays[6].latencies_ms(tape, is_summary));
    Ladder {
        p50,
        untraced_p50,
        replays,
        warm,
        batches,
        cache,
    }
}

/// The tape through an admission queue that holds every request until
/// a barrier or the final flush closes the window, with no waiter
/// running meanwhile: the coalescing then depends only on the tape, so
/// the batch count is a deterministic work counter. Returns that count
/// and the answers.
fn held_replay(g: &Graph, inputs: &[SummaryInput], tape: &[Arrival]) -> (u64, Replay) {
    let queue = AdmissionQueue::for_sharded(
        ShardedEngine::with_threads(g, 2, 1),
        AdmissionConfig {
            linger_tickets: usize::MAX,
            ..AdmissionConfig::default()
        },
    );
    let mut out = Replay::new(tape.len());
    let mut tickets = Vec::new();
    for (i, a) in tape.iter().enumerate() {
        out.answered[i] = 1;
        match a.kind {
            ArrivalKind::Summary { input, method, .. } => tickets.push((
                i,
                queue
                    .submit(inputs[input].clone(), method)
                    .expect("a live queue admits every tape request"),
            )),
            ArrivalKind::Mutation { edge, weight } => queue
                .mutate(move |g| g.set_weight(edge, weight))
                .expect("a live queue applies every tape mutation"),
        }
    }
    queue.flush();
    for (i, t) in tickets {
        out.answers[i] = Some(
            t.wait()
                .map(|s| WireSummary::from_summary(&s))
                .map_err(|e| e.to_string()),
        );
    }
    (queue.stats().batches_dispatched, out)
}

/// The ladder's tape for `workload`: `serve_wire`'s open-loop tape
/// (rate [`serve::SERVE_RATE`], one mutation per
/// [`serve::MUTATION_EVERY`] requests), cut to [`LADDER_S`] seconds;
/// the batch workloads replay their own inputs at a rate their slowest
/// (synchronous) layer sustains, with a few mutations.
pub fn ladder_tape(workload: Workload, seed: u64, n_inputs: usize, n_edges: usize) -> Vec<Arrival> {
    let (rate, requests, every) = match workload {
        Workload::ServeWire => (
            serve::SERVE_RATE,
            (serve::SERVE_RATE * LADDER_S) as usize,
            serve::MUTATION_EVERY,
        ),
        Workload::ExplainMl1m => (40.0, 200, 64),
        Workload::Table3G5 => (2.0, 6, 3),
    };
    serve::tape(seed, rate, requests, every, n_inputs, n_edges)
}

/// Seconds of `serve_wire` tape each ladder layer replays.
pub const LADDER_S: f64 = 5.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_increases_add_up_to_the_end_to_end_median() {
        let fix = Fixture::build(Workload::ServeWire, 5);
        let inputs = fix.served_inputs();
        let tape = serve::tape(
            5,
            serve::SERVE_RATE,
            600,
            serve::MUTATION_EVERY,
            inputs.len(),
            fix.graph.edge_count(),
        );
        let want = serve::oracle(&fix.graph, &inputs, &tape);
        let tr = Tracer::new();
        let ladder = ladder(&fix.graph, &inputs, &tape, &tr);
        for r in &ladder.replays {
            assert_eq!(r.mismatches(&want), 0);
        }
        assert_eq!(ladder.warm.1, 0);
        assert!(tr.len() > 6 * tape.len(), "spans per request and layer");
        let m = ladder.metrics(&tape);
        let get = |name: &str| {
            m.iter()
                .find(|x| x.name == name)
                .expect("metric present")
                .value
        };
        let sum: f64 = [
            "ladder.free_ms",
            "ladder.summarize_added_ms",
            "ladder.batch_added_ms",
            "ladder.shard_added_ms",
            "ladder.admission_added_ms",
            "wire.stream_added_ms",
        ]
        .iter()
        .map(|n| get(n))
        .sum();
        // The traced stack against the untraced end-to-end path: two
        // separate replays, so this can fail when tracing or the wire
        // layers misbehave.
        let e2e = get("ladder.untraced_ms");
        assert!(
            (sum - e2e).abs() <= LADDER_TOLERANCE * e2e,
            "ladder sums to {sum} ms, untraced end-to-end serve_p50_ms is {e2e} ms"
        );
        assert_eq!(get("ladder.gap_frac"), ladder.gap_frac());
    }
}
