//! Open-loop traffic harness over the admission queue.
//!
//! The `BENCH_batch` throughput keys measure *closed-loop* producers:
//! each thread submits its share and waits, so the arrival rate adapts
//! to the server and latency can never build a queue. Real serving is
//! **open-loop** — arrivals come on the wire's schedule whether or not
//! the engine keeps up, and tail latency under a fixed *offered load*
//! is the honest SLO figure (coordinated omission is exactly what the
//! closed-loop numbers hide).
//!
//! [`schedule`] derives a deterministic arrival tape from a seed:
//! exponential interarrivals at the configured offered rate shaped by
//! an on/off burst cycle, Zipf-popular input selection (a few hot
//! users dominate, as in any recommender's query log), a mixed method
//! population (KMB / Mehlhorn / PCST), and occasional
//! [`AdmissionQueue::mutate`] barriers standing in for rating updates.
//! Each summary arrival also carries a `degrade` flag drawn from
//! [`TrafficConfig::degrade_fraction`]. The queue serves every request
//! with the method it asked for, so replays ignore the flag, but the
//! draw stays: removing it would shift every later arrival of every
//! seeded tape. [`run_traffic_on`] replays a tape against any queue —
//! one paced producer thread, one consumer draining a [`TicketSet`] via
//! [`TicketSet::wait_any_timeout`] — and reports served-rate and
//! p50/p99/p99.9 submit→resolve latency.
//! `repro bench_traffic` records the [`TrafficReport`] into
//! `BENCH_batch.json` as the `traffic_*` keys; the seeded tape is also
//! what the chaos case in `tests/prop_faults.rs` replays against a
//! fault-injected backend.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xsum_core::{
    AdmissionConfig, AdmissionError, AdmissionQueue, BatchMethod, EngineBackend, OverloadPolicy,
    PcstConfig, SteinerConfig, SummaryEngine, SummaryInput, TicketSet,
};
use xsum_graph::{EdgeId, Graph};

/// Shape of one open-loop run (everything that feeds the tape is
/// seeded, so a config replays identically).
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Tape seed — arrivals, input choices, methods, and mutation
    /// payloads are all pure functions of it.
    pub seed: u64,
    /// Offered load (arrivals/second, time-averaged across bursts).
    pub offered_rps: f64,
    /// Summary arrivals on the tape.
    pub requests: usize,
    /// Zipf exponent of input popularity (0 = uniform; ~1 is the
    /// classic head-heavy query log).
    pub zipf_s: f64,
    /// Arrivals per on/off burst half-cycle (0 = steady Poisson).
    pub burst_len: usize,
    /// Rate multiplier during the "on" half-cycle (> 1); the "off"
    /// rate is derived so the time-averaged load stays `offered_rps`.
    pub burst_boost: f64,
    /// One mutation barrier every this many arrivals (0 = none).
    pub mutation_every: usize,
    /// Fraction of summary arrivals whose `degrade` flag is set. Replays
    /// ignore the flag; only the tape carries it.
    pub degrade_fraction: f64,
    /// Not read: the queue has no wall-clock expiry. Kept, like
    /// `policy`, because `perfbench`'s tape builder names every field.
    pub expire_after: Option<Duration>,
    /// Queue shape for [`run_traffic`].
    pub admission: AdmissionConfig,
    /// Not read: [`OverloadPolicy`] has no fields.
    pub policy: OverloadPolicy,
}

impl TrafficConfig {
    /// A bursty, head-heavy, mixed-method tape at `offered_rps`.
    pub fn new(offered_rps: f64, requests: usize) -> Self {
        TrafficConfig {
            seed: 42,
            offered_rps,
            requests,
            zipf_s: 1.1,
            burst_len: 16,
            burst_boost: 4.0,
            mutation_every: 64,
            degrade_fraction: 0.25,
            expire_after: None,
            admission: AdmissionConfig {
                queue_bound: 4096,
                max_batch: 32,
                linger_tickets: 4,
            },
            policy: OverloadPolicy::default(),
        }
    }
}

/// What one tape entry asks the queue to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Submit `inputs[input]` with `method`.
    Summary {
        /// Index into the workload's input slice.
        input: usize,
        /// Method (and config) to request.
        method: BatchMethod,
        /// Drawn from [`TrafficConfig::degrade_fraction`]; replays
        /// ignore it.
        degrade: bool,
    },
    /// Apply a [`Graph::set_weight`] barrier.
    Mutation {
        /// Edge to reweight (already reduced modulo the edge count).
        edge: EdgeId,
        /// New weight.
        weight: f64,
    },
}

/// One entry of the deterministic arrival tape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset from the run's start at which this arrival is due.
    pub at: Duration,
    /// What to do when it fires.
    pub kind: ArrivalKind,
}

/// Build the seeded arrival tape for a workload of `n_inputs` inputs
/// over a graph with `n_edges` edges. Pure in `cfg` — same config,
/// same tape.
pub fn schedule(cfg: &TrafficConfig, n_inputs: usize, n_edges: usize) -> Vec<Arrival> {
    assert!(n_inputs > 0, "traffic needs at least one input");
    assert!(cfg.offered_rps > 0.0, "offered load must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Zipf inverse-CDF over input ranks.
    let mut cum = Vec::with_capacity(n_inputs);
    let mut total = 0.0;
    for rank in 0..n_inputs {
        total += 1.0 / ((rank + 1) as f64).powf(cfg.zipf_s);
        cum.push(total);
    }
    let pick_input = |rng: &mut StdRng| -> usize {
        let u = rng.gen_range(0.0..total);
        cum.partition_point(|&c| c <= u).min(n_inputs - 1)
    };

    // On/off rates with the configured time-averaged load: the halves
    // carry equal arrival counts, so mean interarrival must satisfy
    // (1/on + 1/off) / 2 = 1/offered.
    let boost = cfg.burst_boost.max(1.0);
    let rate_on = cfg.offered_rps * boost;
    let rate_off = cfg.offered_rps * boost / (2.0 * boost - 1.0);

    let st = SteinerConfig::default();
    let mut out = Vec::with_capacity(cfg.requests + cfg.requests / cfg.mutation_every.max(1) + 1);
    let mut clock = 0.0f64;
    for i in 0..cfg.requests {
        let rate = if cfg.burst_len == 0 {
            cfg.offered_rps
        } else if (i / cfg.burst_len).is_multiple_of(2) {
            rate_on
        } else {
            rate_off
        };
        // Exponential interarrival; 1 − u is in (0, 1], so ln is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        clock += -(1.0 - u).ln() / rate;

        if cfg.mutation_every != 0 && i != 0 && i % cfg.mutation_every == 0 && n_edges > 0 {
            out.push(Arrival {
                at: Duration::from_secs_f64(clock),
                kind: ArrivalKind::Mutation {
                    edge: EdgeId(rng.gen_range(0..n_edges as u32)),
                    weight: rng.gen_range(0.5..5.0),
                },
            });
        }
        let method = match rng.gen_range(0u32..4) {
            0 | 1 => BatchMethod::Steiner(st),
            2 => BatchMethod::SteinerFast(st),
            _ => BatchMethod::Pcst(PcstConfig::default()),
        };
        out.push(Arrival {
            at: Duration::from_secs_f64(clock),
            kind: ArrivalKind::Summary {
                input: pick_input(&mut rng),
                method,
                degrade: rng.gen_bool(cfg.degrade_fraction),
            },
        });
    }
    out
}

/// What one open-loop run measured.
#[derive(Debug, Clone, Copy)]
pub struct TrafficReport {
    /// Configured time-averaged offered load (arrivals/second).
    pub offered_rps: f64,
    /// Served throughput: tickets resolved `Ok` per second of run.
    pub served_rps: f64,
    /// Median submit→resolve latency of served tickets (ms).
    pub p50_ms: f64,
    /// 99th-percentile submit→resolve latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile submit→resolve latency (ms).
    pub p999_ms: f64,
    /// Summary requests admitted (tickets issued).
    pub submitted: u64,
    /// Tickets that resolved with a summary.
    pub served: u64,
    /// Tickets that resolved with a backend error (fault injection).
    pub failed: u64,
    /// Mutation barriers applied.
    pub mutations: u64,
    /// Mutation barriers refused (poisoned/faulted queue).
    pub mutation_failures: u64,
    /// Submissions refused outright at admission (shut down/poisoned
    /// before a ticket existed).
    pub refused: u64,
    /// Wall-clock length of the run (start → last resolution).
    pub elapsed_s: f64,
}

/// Replay the `cfg` tape against an existing `queue` serving `inputs`
/// over a graph with `n_edges` edges. One producer thread paces
/// arrivals on the tape's clock (never waiting on results — open
/// loop); the calling thread is the consumer, multiplexing every
/// outstanding ticket through one [`TicketSet`] and harvesting
/// completions in whatever order the backend produces them. Every
/// admitted ticket is accounted for exactly once — served or failed —
/// before this returns.
pub fn run_traffic_on(
    queue: &AdmissionQueue,
    inputs: &[SummaryInput],
    n_edges: usize,
    cfg: &TrafficConfig,
) -> TrafficReport {
    let tape = schedule(cfg, inputs.len(), n_edges);
    let set = TicketSet::new();
    // Submit instants, indexed by tape position (= ticket tag), as
    // nanoseconds since `start`: the producer stores before `add`, the
    // consumer loads after completion, so the slot is always written
    // when read.
    let submit_ns: Vec<AtomicU64> = (0..tape.len()).map(|_| AtomicU64::new(u64::MAX)).collect();
    let producer_done = AtomicBool::new(false);
    let admitted = AtomicU64::new(0);
    let counts = Mutex::new((0u64, 0u64, 0u64)); // mutations, mutation_failures, refused
    let start = Instant::now();

    let mut latencies: Vec<f64> = Vec::with_capacity(tape.len());
    let mut served = 0u64;
    let mut failed = 0u64;
    let mut resolved = 0u64;

    // xlint: allow(rogue-spawn) — open-loop harness needs its own paced
    // producer; scoped and joined before this function returns, panics
    // propagate at scope exit.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (tag, arrival) in tape.iter().enumerate() {
                // Pace to the tape: sleep out whatever schedule time
                // remains (a slow engine makes `remaining` negative and
                // the producer fires immediately — offered load does
                // not adapt to the server).
                let elapsed = start.elapsed();
                if let Some(remaining) = arrival.at.checked_sub(elapsed) {
                    std::thread::sleep(remaining);
                }
                match arrival.kind {
                    ArrivalKind::Summary { input, method, .. } => {
                        submit_ns[tag].store(start.elapsed().as_nanos() as u64, Ordering::Release);
                        match queue.submit(inputs[input].clone(), method) {
                            Ok(ticket) => {
                                admitted.fetch_add(1, Ordering::Release);
                                set.add(tag as u64, ticket);
                            }
                            Err(AdmissionError::Poisoned) => {
                                // A faulted mutation barrier poisoned the
                                // queue mid-tape: apply the recovery
                                // barrier and retry once so the tape keeps
                                // offering load (the chaos tests exercise
                                // exactly this path).
                                let mut c = counts.lock().unwrap_or_else(PoisonError::into_inner);
                                if queue.recover().is_ok() {
                                    drop(c);
                                    match queue.submit(inputs[input].clone(), method) {
                                        Ok(ticket) => {
                                            admitted.fetch_add(1, Ordering::Release);
                                            set.add(tag as u64, ticket);
                                        }
                                        Err(_) => {
                                            counts
                                                .lock()
                                                .unwrap_or_else(PoisonError::into_inner)
                                                .2 += 1;
                                        }
                                    }
                                } else {
                                    c.2 += 1;
                                }
                            }
                            Err(_) => {
                                counts.lock().unwrap_or_else(PoisonError::into_inner).2 += 1;
                            }
                        }
                    }
                    ArrivalKind::Mutation { edge, weight } => {
                        let mut c = counts.lock().unwrap_or_else(PoisonError::into_inner);
                        match queue.mutate(move |g| g.set_weight(edge, weight)) {
                            Ok(()) => c.0 += 1,
                            Err(_) => {
                                c.1 += 1;
                                let _ = queue.recover();
                            }
                        }
                    }
                }
            }
            producer_done.store(true, Ordering::Release);
        });

        // Consumer: single thread draining the shared ready list. The
        // timeout bounds each wait so the "producer finished and
        // nothing is outstanding" exit condition is re-checked even if
        // the set is momentarily empty between arrivals.
        loop {
            match set.wait_any_timeout(Duration::from_millis(20)) {
                Some(done) => {
                    resolved += 1;
                    match done.result {
                        Ok(_) => {
                            served += 1;
                            let t0 = submit_ns[done.tag as usize].load(Ordering::Acquire);
                            debug_assert_ne!(t0, u64::MAX, "submit instant recorded before add");
                            let now = start.elapsed().as_nanos() as u64;
                            latencies.push(now.saturating_sub(t0) as f64 * 1e-9);
                        }
                        Err(_) => failed += 1,
                    }
                }
                None => {
                    if producer_done.load(Ordering::Acquire)
                        && resolved == admitted.load(Ordering::Acquire)
                    {
                        break;
                    }
                }
            }
        }
    });

    let elapsed_s = start.elapsed().as_secs_f64();
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies[((latencies.len() as f64 * q) as usize).min(latencies.len() - 1)] * 1e3
    };
    let (mutations, mutation_failures, refused) =
        *counts.lock().unwrap_or_else(PoisonError::into_inner);
    debug_assert_eq!(
        served + failed,
        resolved,
        "every resolution lands in exactly one bucket"
    );
    TrafficReport {
        offered_rps: cfg.offered_rps,
        served_rps: served as f64 / elapsed_s.max(1e-12),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        p999_ms: pct(0.999),
        submitted: admitted.load(Ordering::Acquire),
        served,
        failed,
        mutations,
        mutation_failures,
        refused,
        elapsed_s,
    }
}

/// [`run_traffic_on`] against a fresh single-engine queue built from
/// `cfg.admission` over `g` (the `repro bench_traffic` entry point).
pub fn run_traffic(g: &Graph, inputs: &[SummaryInput], cfg: &TrafficConfig) -> TrafficReport {
    let queue = AdmissionQueue::new(
        EngineBackend::new(g.clone(), SummaryEngine::new()),
        cfg.admission,
    );
    // Warmup (uncounted): spin up the dispatcher, pool, and cost-model
    // cache so the tape measures steady state, not first-touch costs.
    for input in inputs.iter().take(8) {
        let _ = queue.submit(
            input.clone(),
            BatchMethod::Steiner(SteinerConfig::default()),
        );
    }
    queue.drain();
    run_traffic_on(&queue, inputs, g.edge_count(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let cfg = TrafficConfig::new(500.0, 200);
        let a = schedule(&cfg, 16, 64);
        let b = schedule(&cfg, 16, 64);
        assert_eq!(a.len(), b.len());
        let mut last = Duration::ZERO;
        let mut mutations = 0;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert!(x.at >= last, "arrival times are monotone");
            last = x.at;
            match (x.kind, y.kind) {
                (
                    ArrivalKind::Summary {
                        input: ia,
                        degrade: da,
                        ..
                    },
                    ArrivalKind::Summary {
                        input: ib,
                        degrade: db,
                        ..
                    },
                ) => {
                    assert_eq!(ia, ib);
                    assert_eq!(da, db);
                    assert!(ia < 16);
                }
                (
                    ArrivalKind::Mutation {
                        edge: ea,
                        weight: wa,
                    },
                    ArrivalKind::Mutation {
                        edge: eb,
                        weight: wb,
                    },
                ) => {
                    mutations += 1;
                    assert_eq!(ea, eb);
                    assert_eq!(wa.to_bits(), wb.to_bits());
                    assert!(ea.0 < 64);
                }
                _ => panic!("tapes diverged in kind"),
            }
        }
        assert_eq!(mutations, (200 - 1) / 64, "one barrier per mutation_every");
        let summaries = a.len() - mutations;
        assert_eq!(summaries, 200);
    }

    /// FNV-1a over every field of every arrival: due time (ns), kind,
    /// input, method (with its config), degrade flag, mutation edge and
    /// weight bits.
    fn tape_digest(tape: &[Arrival]) -> u64 {
        let st = SteinerConfig::default();
        let methods = [
            BatchMethod::Steiner(st),
            BatchMethod::SteinerFast(st),
            BatchMethod::Pcst(PcstConfig::default()),
        ];
        let mut words = Vec::new();
        for a in tape {
            words.push(a.at.as_nanos() as u64);
            match a.kind {
                ArrivalKind::Summary {
                    input,
                    method,
                    degrade,
                } => {
                    let m = methods.iter().position(|x| *x == method);
                    words.extend([0, input as u64, m.expect("a tape method") as u64]);
                    words.push(degrade as u64);
                }
                ArrivalKind::Mutation { edge, weight } => {
                    words.extend([1, edge.0 as u64, weight.to_bits()]);
                }
            }
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The seeded tapes are pinned bit for bit: a changed draw anywhere
    /// in `schedule` (even an unused one) shifts every later arrival.
    #[test]
    fn seeded_tapes_are_pinned() {
        // perfbench's `serve_wire` shape: steady Poisson, one SetWeight
        // per 16 requests, no degrade opt-ins.
        let wire = TrafficConfig {
            seed: 601,
            burst_len: 0,
            burst_boost: 1.0,
            mutation_every: 16,
            degrade_fraction: 0.0,
            ..TrafficConfig::new(100.0, 256)
        };
        let tape = schedule(&wire, 40, 5_000);
        assert_eq!(
            (tape.len(), tape_digest(&tape)),
            (271, 0x0e11_29d2_502f_357c)
        );
        let tape = schedule(&TrafficConfig::new(400.0, 64), 16, 64);
        assert_eq!(
            (tape.len(), tape_digest(&tape)),
            (64, 0x8e57_b2da_9e67_ca37)
        );
    }

    #[test]
    fn zipf_head_is_hotter_than_tail() {
        let cfg = TrafficConfig {
            mutation_every: 0,
            ..TrafficConfig::new(500.0, 2000)
        };
        let tape = schedule(&cfg, 32, 0);
        let mut hits = [0usize; 32];
        for a in &tape {
            if let ArrivalKind::Summary { input, .. } = a.kind {
                hits[input] += 1;
            }
        }
        let head: usize = hits[..4].iter().sum();
        let tail: usize = hits[28..].iter().sum();
        assert!(
            head > 4 * tail.max(1),
            "Zipf head {head} should dominate tail {tail}"
        );
        assert!(hits.iter().all(|&h| h < 2000), "no input takes everything");
    }

    #[test]
    fn average_offered_rate_matches_config() {
        let cfg = TrafficConfig {
            mutation_every: 0,
            ..TrafficConfig::new(1000.0, 4000)
        };
        let tape = schedule(&cfg, 8, 0);
        let span = tape.last().unwrap().at.as_secs_f64();
        let rate = tape.len() as f64 / span;
        assert!(
            (rate / 1000.0 - 1.0).abs() < 0.15,
            "time-averaged rate {rate:.0} should sit near the offered 1000"
        );
    }
}
