//! The batch workloads' end-to-end run: a closed loop of
//! `SummaryEngine::summarize_batch` calls, each over all the workload's
//! served inputs (every scenario) with one method, with weight updates
//! between the methods' passes. Every output is compared with the
//! methods' sequential free functions outside the timed region.
//!
//! One call covers every scenario, and a method whose call over the
//! served inputs is short (PCST's take a few milliseconds) serves them
//! several times over in one call: with small calls, waking the
//! engine's workers, which a busy shared host delays by a millisecond or
//! more, would decide the figures.
//!
//! A host probe ([`crate::calib`]) follows every method's passes and
//! updates in a round; the figures are normalised by the median of the
//! run's probes.

use std::time::Instant;

use xsum_core::{BatchMethod, SummaryEngine, SummaryInput, WireSummary};
use xsum_graph::{EdgeId, Graph};

use crate::calib::HostRef;
use crate::fixture::Fixture;

/// What the closed loop measured.
pub struct BatchRun {
    /// Summaries per second, per entry of [`crate::methods`]: the
    /// median over the method's passes (calls) of the pass's summaries
    /// per second, normalised.
    pub per_s: [f64; 3],
    /// The same medians as measured, not normalised.
    pub raw_per_s: [f64; 3],
    /// The host's slowness at each probe of the timed loop; the figures
    /// are normalised by their median.
    pub slowness: Vec<f64>,
    /// Summaries per second with the three methods in equal numbers:
    /// three over the median, across rounds, of the summed per-summary
    /// times of the methods (normalised).
    pub all_per_s: f64,
    /// Wall time of each method's first call in every round (ms,
    /// normalised).
    pub call_ms: Vec<f64>,
    /// Per round: the mean of those first calls (ms, normalised).
    pub round_call_ms: Vec<f64>,
    /// Wall time of every weight update plus the summary served right
    /// after it (ms, normalised).
    pub update_ms: Vec<f64>,
    /// Complete rounds run.
    pub rounds: usize,
    /// Per entry of [`crate::methods`]: how many times over a call
    /// serves the inputs.
    pub copies: [usize; 3],
    /// Peak resident memory once set up and warm (MB).
    pub rss_warm_mb: f64,
    /// Summaries computed (and checked).
    pub attempted: u64,
    /// Summaries that differed from the oracle.
    pub failed: u64,
}

/// Outputs of the sequential free functions for `inputs` under `method`.
fn oracle(g: &Graph, inputs: &[SummaryInput], method: BatchMethod) -> Vec<WireSummary> {
    inputs
        .iter()
        .map(|i| WireSummary::from_summary(&method.run(g, i)))
        .collect()
}

/// Run the closed loop over `fix`'s served batches for `seconds`.
///
/// Each update takes the next served input in turn, scales one edge's
/// weight by a seeded factor in [0.25, 0.75) — the edge drawn from that
/// input's paths, so it can change the summary, and never raised, so
/// the Eq. 1 anchor (the largest weight) stays put and the engine
/// patches its cost table in place — then serves that input with
/// ST-fast under the new weight, checks that answer, and restores the
/// old weight bit for bit, so every later call is still checked against
/// the same oracle. Taking the inputs in turn keeps the median update
/// from hanging on one input of the seed's sample.
pub fn run(fix: &mut Fixture, host: &mut HostRef, seed: u64, seconds: f64) -> BatchRun {
    let mut engine = SummaryEngine::new();
    let inputs = fix.served_inputs();
    let g = &mut fix.graph;
    let oracles: Vec<Vec<WireSummary>> = crate::methods()
        .iter()
        .map(|&m| oracle(g, &inputs, m))
        .collect();
    // Each input with the edges of its paths.
    let targets: Vec<(&SummaryInput, Vec<EdgeId>)> = inputs
        .iter()
        .map(|input| {
            let edges: Vec<EdgeId> = input
                .paths
                .iter()
                .flat_map(|p| p.hops().iter().flatten().copied())
                .collect();
            (input, edges)
        })
        .filter(|(_, edges)| !edges.is_empty())
        .collect();
    let update_method = crate::methods()[1];

    let mut run = BatchRun {
        per_s: [0.0; 3],
        raw_per_s: [0.0; 3],
        slowness: Vec::new(),
        all_per_s: 0.0,
        call_ms: Vec::new(),
        round_call_ms: Vec::new(),
        update_ms: Vec::new(),
        rounds: 0,
        copies: [1; 3],
        rss_warm_mb: 0.0,
        attempted: 0,
        failed: 0,
    };
    // `want` covers the served inputs once; a call may serve them
    // several times over.
    let check = |got: &[xsum_core::Summary], want: &[WireSummary], run: &mut BatchRun| {
        run.attempted += got.len() as u64;
        run.failed += got
            .iter()
            .zip(want.iter().cycle())
            .filter(|(g, w)| WireSummary::from_summary(g) != **w)
            .count() as u64;
    };

    // Warm-up pass (checked, not timed): cost models and worker buffers.
    // Its timing sets how many copies of the inputs a method's call
    // serves, and how many passes it makes per round, so even PCST's
    // short calls add up to a measurable interval.
    let mut batches: [Vec<SummaryInput>; 3] = Default::default();
    let mut reps = [1usize; 3];
    for (m, &method) in crate::methods().iter().enumerate() {
        let t = Instant::now();
        let got = engine.summarize_batch(g, &inputs, method);
        let call_s = t.elapsed().as_secs_f64().max(1e-9);
        check(&got, &oracles[m], &mut run);
        let copies = ((crate::MIN_TIMED_S / call_s).ceil() as usize).clamp(1, crate::MAX_COPIES);
        batches[m] = (0..copies).flat_map(|_| inputs.iter().cloned()).collect();
        run.copies[m] = copies;
        reps[m] = ((MIN_PASS_S / (call_s * copies as f64)).ceil() as usize).clamp(1, MAX_REPS);
    }

    run.rss_warm_mb = crate::peak_rss_mb();

    // Rounds: each method makes its passes, one call each over its
    // batch, followed by [`UPDATES_PER_PASS`] updates and a host probe.
    // A round that would overrun `seconds` is not started (at least one
    // always runs).
    let mut pass_rate: [Vec<f64>; 3] = Default::default();
    let mut round_s: Vec<f64> = Vec::new();
    let mut rng = seed ^ 0x5EED_0F0B_A7C4;
    let start = Instant::now();
    loop {
        let round_start = start.elapsed().as_secs_f64();
        let first_call = run.call_ms.len();
        let mut per_summary_s = 0.0;
        for (m, &method) in crate::methods().iter().enumerate() {
            let mut busy = 0.0;
            let per_call = batches[m].len();
            for rep in 0..reps[m] {
                let t = Instant::now();
                let got = engine.summarize_batch(g, &batches[m], method);
                let pass = t.elapsed().as_secs_f64();
                if rep == 0 {
                    run.call_ms.push(pass * 1e3);
                }
                check(&got, &oracles[m], &mut run);
                pass_rate[m].push(per_call as f64 / pass.max(1e-12));
                busy += pass;
            }
            per_summary_s += busy / (reps[m] * per_call) as f64;

            for _ in 0..UPDATES_PER_PASS {
                let (target, edges) = &targets[run.update_ms.len() % targets.len()];
                let edge = edges[(splitmix(&mut rng) % edges.len() as u64) as usize];
                let old = g.weight(edge);
                let new = old * (0.25 + (splitmix(&mut rng) % 1000) as f64 / 2000.0);
                let t = Instant::now();
                g.set_weight(edge, new);
                let got = engine.summarize(g, target, update_method);
                run.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let want = WireSummary::from_summary(&update_method.run(g, target));
                check(
                    std::slice::from_ref(&got),
                    std::slice::from_ref(&want),
                    &mut run,
                );
                g.set_weight(edge, old);
            }
            run.slowness.push(host.probe());
        }
        round_s.push(per_summary_s);
        run.round_call_ms
            .push(crate::stats::mean(&run.call_ms[first_call..]));
        run.rounds += 1;
        let now = start.elapsed().as_secs_f64();
        if now + (now - round_start) > seconds {
            break;
        }
    }
    let k = crate::stats::median(&run.slowness);
    run.raw_per_s = pass_rate.map(|r| crate::stats::median(&r));
    run.per_s = run.raw_per_s.map(|r| r * k);
    // All methods together: three summaries (one per method) per
    // summed per-summary time.
    run.all_per_s = 3.0 / crate::stats::median(&round_s).max(1e-12) * k;
    for ms in run
        .call_ms
        .iter_mut()
        .chain(&mut run.round_call_ms)
        .chain(&mut run.update_ms)
    {
        *ms /= k;
    }
    run
}

/// A method's passes per round add up to at least this long.
const MIN_PASS_S: f64 = 0.5;
/// At most this many passes per method and round.
const MAX_REPS: usize = 200;
/// Weight updates after each method's passes.
const UPDATES_PER_PASS: usize = 4;

/// splitmix64 step: the seeded stream the update edges and weights
/// come from.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
