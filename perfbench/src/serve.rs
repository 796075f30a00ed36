//! Serving-side replays: the seeded request tape, its sequential
//! oracle, and open-/closed-loop replays of the tape through the wire
//! front-end ([`serve_stream`]), the admission queue, and the synchronous
//! layers below them.
//!
//! Every replay returns, per tape entry, when it finished and what it
//! answered, so latency (due → done) and correctness (against
//! [`oracle`]) are computed the same way for every layer.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use xsum_bench::traffic::{schedule, Arrival, ArrivalKind, TrafficConfig};
use xsum_core::{
    decode_frame, encode_frame, serve_stream, AdmissionConfig, AdmissionQueue, BatchMethod,
    MutationRequest, OverloadPolicy, SummaryInput, SummaryRequest, TicketSet, WireFrame,
    WireMutation, WireSummary,
};
use xsum_graph::Graph;

use crate::calib::HostRef;
use crate::stats;
use crate::trace::Tracer;

/// The seeded open-loop tape: Poisson arrivals at `rate` per second,
/// 50% ST / 25% ST-fast / 25% PCST, Zipf-popular inputs, and one
/// SetWeight barrier per `mutation_every` requests (0 = none).
pub fn tape(
    seed: u64,
    rate: f64,
    requests: usize,
    mutation_every: usize,
    n_inputs: usize,
    n_edges: usize,
) -> Vec<Arrival> {
    let cfg = TrafficConfig {
        seed,
        offered_rps: rate,
        requests,
        zipf_s: 1.1,
        burst_len: 0,
        burst_boost: 1.0,
        mutation_every,
        degrade_fraction: 0.0,
        expire_after: None,
        admission: AdmissionConfig::default(),
        policy: OverloadPolicy::default(),
    };
    schedule(&cfg, n_inputs, n_edges)
}

/// What one layer answered for one tape entry.
pub type Answer = Result<WireSummary, String>;

/// The sequential replay every layer must match: each summary request
/// served by the method's free function on a graph that has had every
/// earlier mutation of the tape applied, in order. `None` at mutation
/// entries.
pub fn oracle(g: &Graph, inputs: &[SummaryInput], tape: &[Arrival]) -> Vec<Option<WireSummary>> {
    let mut g = g.clone();
    let mut cache: std::collections::HashMap<(usize, &'static str), WireSummary> =
        std::collections::HashMap::new();
    tape.iter()
        .map(|a| match a.kind {
            ArrivalKind::Summary { input, method, .. } => Some(
                cache
                    .entry((input, method.name()))
                    .or_insert_with(|| WireSummary::from_summary(&method.run(&g, &inputs[input])))
                    .clone(),
            ),
            ArrivalKind::Mutation { edge, weight } => {
                g.set_weight(edge, weight);
                cache.clear();
                None
            }
        })
        .collect()
}

/// One replay of a tape through one layer.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per tape entry: nanoseconds from the replay's start until the
    /// answer was in hand (`None` if it never came).
    pub done_ns: Vec<Option<u64>>,
    /// Per tape entry: the summary answer (`None` for mutations and for
    /// unanswered requests).
    pub answers: Vec<Option<Answer>>,
    /// Per tape entry: how many times it was answered (wire replays
    /// check exactly-once delivery).
    pub answered: Vec<u32>,
    /// Per tape entry: nanoseconds from the start until the generator
    /// issued it.
    pub issued_ns: Vec<u64>,
    /// Per tape entry: the admission batch id that served it (queue
    /// replays only; `0` otherwise).
    pub batch: Vec<u64>,
    /// The instant the replay started.
    pub start: Option<Instant>,
    /// Largest delay between an entry's due time and the moment the
    /// generator actually issued it (ms).
    pub late_ms_max: f64,
    /// Wall time of the whole replay (s).
    pub elapsed_s: f64,
    /// Mean time to encode one request frame (µs; wire replays only).
    pub encode_us: f64,
    /// Mean time to decode one response frame (µs; wire replays only).
    pub decode_us: f64,
    /// Request plus response bytes on the wire (wire replays only).
    pub frame_bytes: u64,
}

impl Replay {
    /// An empty replay of an `n`-entry tape.
    pub fn new(n: usize) -> Self {
        Replay {
            done_ns: vec![None; n],
            answers: (0..n).map(|_| None).collect(),
            answered: vec![0; n],
            issued_ns: vec![0; n],
            batch: vec![0; n],
            ..Replay::default()
        }
    }

    /// Due → done latency (ms) of every answered entry matching `pick`.
    pub fn latencies_ms(&self, tape: &[Arrival], pick: impl Fn(&ArrivalKind) -> bool) -> Vec<f64> {
        tape.iter()
            .zip(&self.done_ns)
            .filter(|(a, _)| pick(&a.kind))
            .filter_map(|(a, done)| done.map(|d| (d as f64 - a.at.as_nanos() as f64) * 1e-6))
            .collect()
    }

    /// Entries that were not answered exactly once, or whose answer
    /// differs from the oracle.
    pub fn mismatches(&self, oracle: &[Option<WireSummary>]) -> u64 {
        let mut bad = 0;
        for (i, want) in oracle.iter().enumerate() {
            let ok = self.answered[i] == 1
                && match (want, &self.answers[i]) {
                    (Some(want), Some(Ok(got))) => want == got,
                    (None, None) => true,
                    _ => false,
                };
            bad += u64::from(!ok);
        }
        bad
    }
}

/// Sleep until `start + at`; returns how late (ms) the caller is.
fn pace(start: Instant, at: Duration) -> f64 {
    if let Some(wait) = at.checked_sub(start.elapsed()) {
        std::thread::sleep(wait);
    }
    start.elapsed().saturating_sub(at).as_secs_f64() * 1e3
}

/// A synchronous layer's handle on one tape entry.
pub enum Step<'a> {
    /// Serve `inputs[input]` with `method`.
    Summary(&'a SummaryInput, BatchMethod),
    /// Apply `set_weight(edge, weight)`.
    Mutation(xsum_graph::EdgeId, f64),
}

/// Open-loop replay of `tape` through a synchronous layer: one thread
/// issues each entry at its due time and waits for the answer, so a
/// slow entry delays the ones behind it (the delay counts in their
/// latency).
pub fn replay_sync(
    inputs: &[SummaryInput],
    tape: &[Arrival],
    mut serve: impl FnMut(Step<'_>) -> Option<WireSummary>,
) -> Replay {
    let mut out = Replay::new(tape.len());
    let start = Instant::now();
    for (i, a) in tape.iter().enumerate() {
        out.late_ms_max = out.late_ms_max.max(pace(start, a.at));
        out.issued_ns[i] = start.elapsed().as_nanos() as u64;
        let step = match a.kind {
            ArrivalKind::Summary { input, method, .. } => Step::Summary(&inputs[input], method),
            ArrivalKind::Mutation { edge, weight } => Step::Mutation(edge, weight),
        };
        out.answers[i] = serve(step).map(Ok);
        out.done_ns[i] = Some(start.elapsed().as_nanos() as u64);
        out.answered[i] = 1;
    }
    out.start = Some(start);
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Open-loop replay of `tape` through an [`AdmissionQueue`]: the calling
/// thread submits each request at its due time (mutations are applied
/// as barriers, blocking the generator like a client waiting for its
/// acknowledgement), and a consumer thread collects completions from a
/// [`TicketSet`] as they resolve.
pub fn replay_queue(queue: &AdmissionQueue, inputs: &[SummaryInput], tape: &[Arrival]) -> Replay {
    let mut out = Replay::new(tape.len());
    let set = TicketSet::new();
    let producer_done = AtomicBool::new(false);
    let start = Instant::now();
    let completed = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut got = Vec::with_capacity(tape.len());
            loop {
                match set.wait_any_timeout(Duration::from_millis(20)) {
                    Some(done) => {
                        let now = Instant::now();
                        let answer = done
                            .result
                            .map(|s| WireSummary::from_summary(&s))
                            .map_err(|e| e.to_string());
                        got.push((done.tag as usize, now, done.meta.batch, answer));
                    }
                    None if producer_done.load(Ordering::Acquire) && set.is_empty() => break,
                    None => {}
                }
            }
            got
        });
        // Stops the consumer even if the generator panics.
        struct Finish<'a>(&'a AtomicBool);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let _finish = Finish(&producer_done);
        for (i, a) in tape.iter().enumerate() {
            out.late_ms_max = out.late_ms_max.max(pace(start, a.at));
            out.issued_ns[i] = start.elapsed().as_nanos() as u64;
            match a.kind {
                ArrivalKind::Summary { input, method, .. } => {
                    let ticket = queue
                        .submit(inputs[input].clone(), method)
                        .expect("a live queue admits every tape request");
                    set.add(i as u64, ticket);
                }
                ArrivalKind::Mutation { edge, weight } => {
                    queue
                        .mutate(move |g| g.set_weight(edge, weight))
                        .expect("a live queue applies every tape mutation");
                    out.done_ns[i] = Some(start.elapsed().as_nanos() as u64);
                    out.answered[i] = 1;
                }
            }
        }
        drop(_finish);
        consumer.join().expect("consumer thread does not panic")
    });
    for (i, at, batch, answer) in completed {
        out.done_ns[i] = Some(at.duration_since(start).as_nanos() as u64);
        out.answers[i] = Some(answer);
        out.answered[i] += 1;
        out.batch[i] = batch;
    }
    out.start = Some(start);
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// The request frame of tape entry `i` (the id is the tape index).
pub fn request_frame(inputs: &[SummaryInput], i: usize, a: &Arrival) -> WireFrame {
    match a.kind {
        ArrivalKind::Summary { input, method, .. } => WireFrame::SummaryRequest(SummaryRequest {
            id: i as u64,
            method,
            input: inputs[input].clone(),
        }),
        ArrivalKind::Mutation { edge, weight } => WireFrame::MutationRequest(MutationRequest {
            id: i as u64,
            mutation: WireMutation::SetWeight { edge, weight },
        }),
    }
}

/// Replay `tape` as frames over an in-process pipe pair into
/// [`serve_stream`] in front of `queue`. The calling thread writes each
/// frame at its due time (`paced`) or as fast as the pipe takes them;
/// a reader thread decodes responses as they arrive. The stream closes
/// after the last frame, and the replay ends once `serve_stream` has
/// answered everything and returned. With a `tracer`, both threads
/// record a span per frame (`wire.send`: encode and write; `wire.decode`)
/// as they go, so the replay pays the cost of tracing.
pub fn replay_wire(
    queue: &AdmissionQueue,
    inputs: &[SummaryInput],
    tape: &[Arrival],
    paced: bool,
    tracer: Option<&Tracer>,
) -> Replay {
    let mut out = Replay::new(tape.len());
    let (req_rx, mut req_tx) = std::io::pipe().expect("create request pipe");
    let (mut resp_rx, resp_tx) = std::io::pipe().expect("create response pipe");
    let start = Instant::now();
    let (responses, decode_ns, resp_bytes) = std::thread::scope(|scope| {
        let server = scope.spawn(move || serve_stream(req_rx, resp_tx, queue));
        let reader = scope.spawn(move || {
            let mut got = Vec::with_capacity(tape.len());
            let mut decode_ns = 0u128;
            let mut bytes = 0u64;
            while let Some(raw) = read_raw_frame(&mut resp_rx) {
                let t = Instant::now();
                let (frame, _) = decode_frame(&raw).expect("serve_stream writes valid frames");
                let now = Instant::now();
                decode_ns += (now - t).as_nanos();
                if let Some(tr) = tracer {
                    tr.span("wire.decode", None, Some(response_id(&frame)), t, now);
                }
                bytes += raw.len() as u64;
                got.push((now, frame));
            }
            (got, decode_ns, bytes)
        });
        let mut encode_ns = 0u128;
        let mut req_bytes = 0u64;
        for (i, a) in tape.iter().enumerate() {
            if paced {
                out.late_ms_max = out.late_ms_max.max(pace(start, a.at));
            }
            out.issued_ns[i] = start.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let bytes = encode_frame(&request_frame(inputs, i, a));
            encode_ns += t.elapsed().as_nanos();
            req_bytes += bytes.len() as u64;
            req_tx
                .write_all(&bytes)
                .expect("server reads the request pipe");
            if let Some(tr) = tracer {
                tr.span("wire.send", None, Some(i as u64), t, Instant::now());
            }
        }
        drop(req_tx);
        out.encode_us = encode_ns as f64 / 1e3 / tape.len().max(1) as f64;
        out.frame_bytes = req_bytes;
        server
            .join()
            .expect("server thread does not panic")
            .expect("serve_stream ends cleanly");
        reader.join().expect("reader thread does not panic")
    });
    let n_responses = responses.len();
    for (at, frame) in responses {
        let id = response_id(&frame) as usize;
        let answer = match frame {
            WireFrame::SummaryResponse(r) => Some(r.result),
            WireFrame::MutationResponse(r) => r.result.err().map(Err),
            _ => unreachable!("response_id accepts responses only"),
        };
        if id < tape.len() {
            out.answered[id] += 1;
            out.done_ns[id] = Some(at.duration_since(start).as_nanos() as u64);
            out.answers[id] = answer;
        }
    }
    out.decode_us = decode_ns as f64 / 1e3 / n_responses.max(1) as f64;
    out.frame_bytes += resp_bytes;
    out.start = Some(start);
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// The request id a response frame answers.
fn response_id(frame: &WireFrame) -> u64 {
    match frame {
        WireFrame::SummaryResponse(r) => r.id,
        WireFrame::MutationResponse(r) => r.id,
        _ => panic!("serve_stream writes responses only"),
    }
}

/// Read one length-prefixed frame's raw bytes (prefix included); `None`
/// at end of stream.
fn read_raw_frame(r: &mut impl Read) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).ok()?;
    let n = u32::from_le_bytes(len) as usize;
    let mut raw = Vec::with_capacity(4 + n);
    raw.extend_from_slice(&len);
    raw.resize(4 + n, 0);
    r.read_exact(&mut raw[4..])
        .expect("response frames arrive whole");
    Some(raw)
}

/// One SetWeight mutation frame per this many summary requests on
/// `serve_wire`'s open-loop tape (about 140 frames in a 45 s run).
pub const MUTATION_EVERY: usize = 16;
/// Offered load of `serve_wire`'s open-loop phase (requests/s). At this
/// rate the wait for the next request frame, which `serve_stream` needs
/// before it writes an answer, dominates the latency; at 200 req/s the
/// stack is busy enough that a slow spell of the host moves the
/// medians by a fifth and more.
pub const SERVE_RATE: f64 = 100.0;
/// Share of `--seconds` spent in the open-loop phase; the rest runs the
/// closed loop.
pub const OPEN_SHARE: f64 = 0.5;
/// The open-loop tape is replayed in this many consecutive segments,
/// each on a fresh stream, with a host probe between two segments.
pub const OPEN_SEGMENTS: usize = 7;

/// What `serve_wire`'s end-to-end run measured.
pub struct ServeRun {
    /// Due → decoded latency of every open-loop summary request (ms).
    pub serve_ms: Vec<f64>,
    /// Due → decoded latency of every open-loop mutation frame (ms,
    /// normalised).
    pub update_ms: Vec<f64>,
    /// Closed-loop responses per second on rounds of one method, per
    /// entry of `crate::methods`: a round's requests over the method's
    /// median normalised round time.
    pub per_s: [f64; 3],
    /// Closed-loop responses per second on rounds of mixed methods: a
    /// round's requests over the median normalised round time.
    pub capacity_rps: f64,
    /// `per_s` and `capacity_rps` (in that order) as measured, not
    /// normalised.
    pub raw_rps: [f64; 4],
    /// The host's slowness at each probe; the figures are normalised by
    /// their median.
    pub slowness: Vec<f64>,
    /// Closed-loop rounds run (all kinds).
    pub rounds: usize,
    /// How many times over a round serves the inputs, per round kind
    /// (mixed, ST, ST-fast, PCST).
    pub copies: [usize; 4],
    /// How late the open-loop generator ran (ms).
    pub late_ms_max: f64,
    /// Peak resident memory once set up and warm (MB).
    pub rss_warm_mb: f64,
    /// Frames sent (summary and mutation requests).
    pub attempted: u64,
    /// Frames answered wrongly, more than once, or not at all.
    pub failed: u64,
}

/// The serving stack every `serve_wire` phase runs against: an
/// [`AdmissionQueue`] (default config) over a [`ShardedEngine`] of two
/// full replicas with one worker each.
///
/// [`ShardedEngine`]: xsum_core::ShardedEngine
pub fn stack(g: &Graph) -> AdmissionQueue {
    AdmissionQueue::for_sharded(
        xsum_core::ShardedEngine::with_threads(g, 2, 1),
        AdmissionConfig::default(),
    )
}

/// The open-loop tape of a `seconds`-long `serve_wire` run.
pub fn open_tape(seed: u64, seconds: f64, n_inputs: usize, n_edges: usize) -> Vec<Arrival> {
    let requests = (SERVE_RATE * seconds * OPEN_SHARE).round().max(1.0) as usize;
    tape(
        seed,
        SERVE_RATE,
        requests,
        MUTATION_EVERY,
        n_inputs,
        n_edges,
    )
}

/// Serve every input once per method through `queue`'s wire front-end,
/// checked but not timed, so cost models and worker buffers are warm.
/// Returns the frames sent and the ones answered wrongly.
pub fn warm(queue: &AdmissionQueue, g: &Graph, inputs: &[SummaryInput]) -> (u64, u64) {
    let warm: Vec<Arrival> = (0..inputs.len())
        .flat_map(|input| {
            crate::methods().map(|method| Arrival {
                at: Duration::ZERO,
                kind: ArrivalKind::Summary {
                    input,
                    method,
                    degrade: false,
                },
            })
        })
        .collect();
    let r = replay_wire(queue, inputs, &warm, false, None);
    (warm.len() as u64, r.mismatches(&oracle(g, inputs, &warm)))
}

/// `serve_wire`'s end-to-end run: warm the stack, replay the open-loop
/// tape over the wire in [`OPEN_SEGMENTS`] segments, then run
/// closed-loop rounds for the rest of `seconds`. Mutation latencies and
/// round times, which the host's speed sets, are normalised by the
/// median of host probes taken between segments and after every cycle
/// of round kinds; summary latencies, which the wait for the next
/// request frame dominates, are reported as measured.
///
/// A round sends every served input, in a seeded order, the same
/// number of times: cycling through a round with the methods mixed
/// 50% ST / 25% ST-fast / 25% PCST (by input and round) and one round
/// per method. Rounds cover the inputs evenly: Zipf-popular draws, as
/// on the open-loop tape, made a seed's rates hang on which few inputs
/// came up hot. Each kind's first round (checked, not timed) sets how
/// many times over its rounds serve the inputs, so that even PCST's
/// rounds outlast the cost of opening a stream many times over. Each
/// round opens a fresh stream, writes its requests, closes the stream
/// and reads every answer:
/// `serve_stream` writes an answer only when the next frame or the end
/// of the stream arrives, so a sliding window on one stream would wait
/// forever for its last answers.
pub fn run_e2e(
    g: &Graph,
    inputs: &[SummaryInput],
    host: &mut HostRef,
    seed: u64,
    seconds: f64,
) -> ServeRun {
    let queue = stack(g);
    let (mut attempted, mut failed) = warm(&queue, g, inputs);
    let rss_warm_mb = crate::peak_rss_mb();

    let open = open_tape(seed, seconds, inputs.len(), g.edge_count());
    let open_want = oracle(g, inputs, &open);
    let mut serve_ms = Vec::new();
    let mut update_ms = Vec::new();
    let mut late_ms_max = 0.0f64;
    let mut slowness = Vec::new();
    let per_segment = open.len().div_ceil(OPEN_SEGMENTS);
    for (n, segment) in open.chunks(per_segment).enumerate() {
        // The segment's schedule, starting at its first arrival.
        let t0 = segment[0].at;
        let segment: Vec<Arrival> = segment
            .iter()
            .map(|a| Arrival {
                at: a.at - t0,
                kind: a.kind,
            })
            .collect();
        let r = replay_wire(&queue, inputs, &segment, true, None);
        attempted += segment.len() as u64;
        let first = n * per_segment;
        failed += r.mismatches(&open_want[first..first + segment.len()]);
        late_ms_max = late_ms_max.max(r.late_ms_max);
        slowness.push(host.probe());
        serve_ms.extend(r.latencies_ms(&segment, |k| matches!(k, ArrivalKind::Summary { .. })));
        update_ms.extend(r.latencies_ms(&segment, |k| matches!(k, ArrivalKind::Mutation { .. })));
    }

    // The graph as the open loop left it: every tape mutation applied.
    let mut after = g.clone();
    for a in &open {
        if let ArrivalKind::Mutation { edge, weight } = a.kind {
            after.set_weight(edge, weight);
        }
    }
    let methods = crate::methods();
    let summary = |input: usize, method: BatchMethod| Arrival {
        at: Duration::ZERO,
        kind: ArrivalKind::Summary {
            input,
            method,
            degrade: false,
        },
    };
    // Every (input, method) answer, at `input * 3 + method`.
    let grid: Vec<Arrival> = (0..inputs.len())
        .flat_map(|i| methods.map(|m| summary(i, m)))
        .collect();
    let want = oracle(&after, inputs, &grid);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut rng = seed ^ 0x00C1_05ED;
    for i in (1..order.len()).rev() {
        order.swap(
            i,
            (crate::batch::splitmix(&mut rng) % (i as u64 + 1)) as usize,
        );
    }
    let mixed = [0, 1, 0, 2];
    // `(input, method)` of each request of the `n`-th round of `kind`.
    let picks = |kind: usize, n: usize, copies: usize| -> Vec<(usize, usize)> {
        (0..copies)
            .flat_map(|c| {
                order.iter().map(move |&i| match kind {
                    0 => (i, mixed[(i + c + n) % 4]),
                    k => (i, k - 1),
                })
            })
            .collect()
    };
    // One round on a fresh stream: its wall time and wrong answers.
    let round = |pick: &[(usize, usize)]| -> (f64, u64) {
        let window: Vec<Arrival> = pick.iter().map(|&(i, m)| summary(i, methods[m])).collect();
        let r = replay_wire(&queue, inputs, &window, false, None);
        let expect: Vec<Option<WireSummary>> =
            pick.iter().map(|&(i, m)| want[i * 3 + m].clone()).collect();
        (r.elapsed_s, r.mismatches(&expect))
    };

    let mut copies = [1usize; 4];
    for (kind, copies) in copies.iter_mut().enumerate() {
        let pick = picks(kind, 0, 1);
        let (s, bad) = round(&pick);
        attempted += pick.len() as u64;
        failed += bad;
        *copies = ((crate::MIN_TIMED_S / s.max(1e-9)).ceil() as usize).clamp(1, crate::MAX_COPIES);
    }
    // Cycles of the four round kinds, each followed by a host probe.
    let budget = seconds * (1.0 - OPEN_SHARE);
    let mut round_s: [Vec<f64>; 4] = Default::default();
    let mut rounds = 0usize;
    let mut spent = 0.0f64;
    while spent < budget {
        for (kind, times) in round_s.iter_mut().enumerate() {
            let pick = picks(kind, rounds / 4, copies[kind]);
            let (s, bad) = round(&pick);
            spent += s;
            times.push(s);
            attempted += pick.len() as u64;
            failed += bad;
            rounds += 1;
        }
        slowness.push(host.probe());
    }
    let k = stats::median(&slowness);
    for ms in &mut update_ms {
        *ms /= k;
    }
    let raw_rps = [1, 2, 3, 0].map(|kind| {
        (inputs.len() * copies[kind]) as f64 / stats::median(&round_s[kind]).max(1e-12)
    });
    ServeRun {
        serve_ms,
        update_ms,
        per_s: [0, 1, 2].map(|i| raw_rps[i] * k),
        capacity_rps: raw_rps[3] * k,
        raw_rps,
        slowness,
        rounds,
        copies,
        late_ms_max,
        rss_warm_mb,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{Fixture, Workload};

    fn small() -> (Graph, Vec<SummaryInput>) {
        let fix = Fixture::build(Workload::ServeWire, 3);
        let inputs = fix.served_inputs();
        (fix.graph, inputs)
    }

    fn input_bytes(inputs: &[SummaryInput]) -> Vec<Vec<u8>> {
        let a = Arrival {
            at: Duration::ZERO,
            kind: ArrivalKind::Summary {
                input: 0,
                method: crate::methods()[0],
                degrade: false,
            },
        };
        (0..inputs.len())
            .map(|i| {
                let mut a = a;
                if let ArrivalKind::Summary { input, .. } = &mut a.kind {
                    *input = i;
                }
                encode_frame(&request_frame(inputs, i, &a))
            })
            .collect()
    }

    #[test]
    fn tape_and_inputs_are_deterministic_for_a_seed() {
        let (g1, in1) = small();
        let (g2, in2) = small();
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert!(g1
            .edge_ids()
            .all(|e| g1.weight(e).to_bits() == g2.weight(e).to_bits()));
        assert_eq!(input_bytes(&in1), input_bytes(&in2));
        let t1 = tape(
            9,
            SERVE_RATE,
            500,
            MUTATION_EVERY,
            in1.len(),
            g1.edge_count(),
        );
        let t2 = tape(
            9,
            SERVE_RATE,
            500,
            MUTATION_EVERY,
            in2.len(),
            g2.edge_count(),
        );
        assert_eq!(t1, t2);
        let mutations = t1
            .iter()
            .filter(|a| matches!(a.kind, ArrivalKind::Mutation { .. }))
            .count();
        assert_eq!(mutations, (500 - 1) / MUTATION_EVERY);
        assert_ne!(
            t1,
            tape(
                10,
                SERVE_RATE,
                500,
                MUTATION_EVERY,
                in1.len(),
                g1.edge_count()
            )
        );
    }

    #[test]
    fn output_check_catches_a_corrupted_response() {
        let (g, inputs) = small();
        let t = tape(4, 2000.0, 150, 16, inputs.len(), g.edge_count());
        let want = oracle(&g, &inputs, &t);
        let queue = stack(&g);
        let clean = replay_wire(&queue, &inputs, &t, true, None);
        assert_eq!(clean.mismatches(&want), 0, "the stack matches its oracle");

        let summary_at = t
            .iter()
            .position(|a| matches!(a.kind, ArrivalKind::Summary { .. }))
            .expect("tape has summaries");
        // Mutant 1: a response with one edge dropped.
        let mut bad = replay_wire(&queue, &inputs, &t, false, None);
        if let Some(Ok(s)) = &mut bad.answers[summary_at] {
            if s.edges.pop().is_none() {
                s.nodes.push(xsum_graph::NodeId(u32::MAX));
            }
        }
        assert_eq!(bad.mismatches(&want), 1);
        // Mutant 2: a request answered twice.
        let mut dup = replay_wire(&queue, &inputs, &t, false, None);
        dup.answered[summary_at] = 2;
        assert_eq!(dup.mismatches(&want), 1);
        // Mutant 3: a request never answered.
        let mut lost = replay_wire(&queue, &inputs, &t, false, None);
        lost.answered[summary_at] = 0;
        lost.answers[summary_at] = None;
        assert_eq!(lost.mismatches(&want), 1);
    }
}
