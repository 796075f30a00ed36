//! Property tests for the wire protocol (`xsum::core::wire`):
//!
//! * **canonical round-trips** — decode∘encode is the identity on
//!   bytes for every record kind, including NaN and `−0.0` f64 params
//!   (compared via `to_bits`, since `PartialEq` cannot);
//! * **robust decoding** — truncations at every byte boundary, random
//!   byte flips, wrong versions, and unknown kinds produce typed
//!   [`xsum::core::WireError`]s and never panic; whenever a corrupted
//!   buffer *does* decode, re-encoding reproduces it byte-for-byte
//!   (canonicality survives corruption);
//! * **serving equivalence** — a [`xsum::core::serve_stream`] session
//!   over framed requests (mutation barriers included) answers every
//!   request id with a summary bit-identical to a direct
//!   `SummaryEngine::summarize` over an identically mutated reference
//!   graph;
//! * **answers as they complete** — a client behind a `BufWriter` that
//!   waits for each answer before sending its next request is served
//!   round after round, with no frame to follow;
//! * **failure paths** — a queue that refuses admission answers every
//!   frame with an error under its own id, and a client that drops the
//!   response pipe ends the run with `WireError::Io` without wedging
//!   the queue for the next stream; a writer that panics stops the
//!   reader at its next request and the panic is re-raised; a
//!   `SetWeight` on an edge id the graph lacks is answered with an
//!   error and leaves the graph and the queue serving.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;

use xsum::core::wire::{
    decode_frame, encode_frame, read_frame, serve_stream, MutationRequest, MutationResponse,
    SummaryRequest, SummaryResponse, WireError, WireFrame, WireMutation, WireSummary, WIRE_VERSION,
};
use xsum::core::{
    AdmissionConfig, AdmissionQueue, BatchMethod, PcstConfig, PcstScope, Scenario, SteinerConfig,
    Summary, SummaryEngine, SummaryInput,
};
use xsum::graph::{EdgeId, EdgeKind, Graph, LoosePath, NodeId, NodeKind};

/// The f64 population the protocol must carry bit-exactly: the
/// interesting IEEE corners alongside ordinary magnitudes.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0usize..7, -1000i32..1000).prop_map(|(sel, v)| match sel {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE,
        _ => v as f64 * 0.125,
    })
}

fn arb_method() -> impl Strategy<Value = BatchMethod> {
    (
        0usize..4,
        arb_f64(),
        arb_f64(),
        any::<bool>(),
        0usize..3,
        0usize..5,
        any::<bool>(),
    )
        .prop_map(|(kind, a, b, use_edge_weights, scope_sel, hops, prune)| {
            let st = SteinerConfig {
                lambda: a,
                delta: b,
            };
            let pcst = PcstConfig {
                terminal_prize: a,
                nonterminal_prize: b,
                use_edge_weights,
                scope: match scope_sel {
                    0 => PcstScope::UnionOfPaths,
                    1 => PcstScope::ExpandedUnion(hops),
                    _ => PcstScope::FullGraph,
                },
                prune,
            };
            match kind {
                0 => BatchMethod::Steiner(st),
                1 => BatchMethod::SteinerFast(st),
                2 => BatchMethod::Pcst(pcst),
                _ => BatchMethod::GwPcst(pcst),
            }
        })
}

/// A structurally valid graph-free input: loose paths with optional
/// (hallucinated) hops, arbitrary ids.
fn arb_input() -> impl Strategy<Value = SummaryInput> {
    let path = (
        proptest::collection::vec(0u32..500, 1..6),
        proptest::collection::vec((any::<bool>(), 0u32..500), 5),
    )
        .prop_map(|(nodes, hops)| {
            let hops: Vec<Option<EdgeId>> = hops
                .into_iter()
                .take(nodes.len() - 1)
                .map(|(known, h)| known.then_some(EdgeId(h)))
                .collect();
            let nodes: Vec<NodeId> = nodes.into_iter().map(NodeId).collect();
            LoosePath::from_parts(nodes, hops).expect("lengths match by construction")
        });
    (
        0usize..4,
        proptest::collection::vec(0u32..500, 1..6),
        proptest::collection::vec(path, 0..5),
    )
        .prop_map(|(scenario_sel, anchors, paths)| {
            let anchors: Vec<NodeId> = anchors.into_iter().map(NodeId).collect();
            match scenario_sel {
                0 => SummaryInput::user_centric(anchors[0], paths),
                1 => SummaryInput::item_centric(anchors[0], paths),
                2 => SummaryInput::user_group(&anchors, paths),
                _ => SummaryInput::item_group(&anchors, paths),
            }
        })
}

fn arb_frame() -> impl Strategy<Value = WireFrame> {
    (
        0usize..4,
        any::<u64>(),
        arb_method(),
        arb_input(),
        0u32..1000,
        arb_f64(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(kind, id, method, input, edge, weight, ok, msg_sel)| match kind {
                0 => WireFrame::SummaryRequest(SummaryRequest { id, method, input }),
                1 => WireFrame::MutationRequest(MutationRequest {
                    id,
                    mutation: WireMutation::SetWeight {
                        edge: EdgeId(edge),
                        weight,
                    },
                }),
                2 => WireFrame::SummaryResponse(SummaryResponse {
                    id,
                    result: if ok {
                        Ok(WireSummary {
                            method: "ST".to_string(),
                            scenario: Scenario::UserCentric,
                            nodes: vec![NodeId(1), NodeId(2)],
                            edges: vec![EdgeId(0)],
                            terminals: vec![NodeId(1)],
                        })
                    } else {
                        Err(format!("engine error #{msg_sel}"))
                    },
                }),
                _ => WireFrame::MutationResponse(MutationResponse {
                    id,
                    result: if ok {
                        Ok(())
                    } else {
                        Err(format!("barrier error #{msg_sel}"))
                    },
                }),
            },
        )
}

/// The chaos graph of `prop_admission`, in miniature: enough structure
/// that every method serves every input.
fn tiny_kg() -> (Graph, Vec<SummaryInput>) {
    let mut g = Graph::new();
    let u0 = g.add_node(NodeKind::User);
    let u1 = g.add_node(NodeKind::User);
    let items: Vec<NodeId> = (0..4).map(|_| g.add_node(NodeKind::Item)).collect();
    let a = g.add_node(NodeKind::Entity);
    for (i, &item) in items.iter().enumerate() {
        g.add_edge(u0, item, 1.0 + i as f64, EdgeKind::Interaction);
        g.add_edge(item, a, 0.0, EdgeKind::Attribute);
    }
    g.add_edge(u1, items[0], 4.0, EdgeKind::Interaction);
    let p0 = LoosePath::ground(&g, vec![u0, items[0], a, items[1]]);
    let p1 = LoosePath::ground(&g, vec![u0, items[2], a, items[3]]);
    let alt = LoosePath::ground(&g, vec![u1, items[0], a, items[2]]);
    let inputs = vec![
        SummaryInput::user_centric(u0, vec![p0.clone(), p1.clone()]),
        SummaryInput::user_centric(u1, vec![alt.clone()]),
        SummaryInput::user_group(&[u0, u1], vec![p0, p1, alt]),
    ];
    (g, inputs)
}

fn assert_wire_matches(want: &Summary, got: &WireSummary) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.method, got.method.as_str());
    prop_assert_eq!(&want.terminals, &got.terminals);
    prop_assert_eq!(want.subgraph.sorted_nodes(), got.nodes.clone());
    prop_assert_eq!(want.subgraph.sorted_edges(), got.edges.clone());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_round_trip_to_identical_bytes(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let (decoded, consumed) = decode_frame(&bytes)
            .map_err(|e| TestCaseError::fail(format!("well-formed frame decodes: {e}")))?;
        prop_assert_eq!(consumed, bytes.len());
        // Byte identity subsumes every field — including NaN configs
        // `PartialEq` could never compare — because the encoding is
        // canonical.
        prop_assert_eq!(encode_frame(&decoded), bytes);
    }

    #[test]
    fn f64_params_survive_bit_exact(lambda in arb_f64(), delta in arb_f64(), id in any::<u64>()) {
        let frame = WireFrame::SummaryRequest(SummaryRequest {
            id,
            method: BatchMethod::Steiner(SteinerConfig { lambda, delta }),
            input: SummaryInput::user_centric(NodeId(0), Vec::new()),
        });
        let (decoded, _) = decode_frame(&encode_frame(&frame)).expect("decodes");
        let WireFrame::SummaryRequest(req) = decoded else {
            return Err(TestCaseError::fail("kind preserved"));
        };
        prop_assert_eq!(req.id, id);
        let BatchMethod::Steiner(cfg) = req.method else {
            return Err(TestCaseError::fail("method preserved"));
        };
        prop_assert_eq!(cfg.lambda.to_bits(), lambda.to_bits());
        prop_assert_eq!(cfg.delta.to_bits(), delta.to_bits());
    }

    #[test]
    fn truncations_error_and_never_panic(frame in arb_frame(), cut_sel in 0usize..10_000) {
        let bytes = encode_frame(&frame);
        let cut = cut_sel % bytes.len();
        // Every strict prefix fails typed — the length prefix promises
        // more payload than remains.
        if decode_frame(&bytes[..cut]).is_ok() {
            return Err(TestCaseError::fail("strict prefix must not decode"));
        }
    }

    #[test]
    fn byte_flips_decode_typed_or_canonical(
        frame in arb_frame(),
        pos_sel in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&frame);
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= xor;
        // A flipped byte may still parse (e.g. inside an f64 image) —
        // then canonicality must hold; otherwise the error is typed
        // and the decoder must not panic.
        match decode_frame(&bytes) {
            Ok((decoded, consumed)) => {
                prop_assert_eq!(encode_frame(&decoded), bytes[..consumed].to_vec());
            }
            Err(
                WireError::Truncated
                | WireError::UnsupportedVersion(_)
                | WireError::UnknownKind(_)
                | WireError::TrailingBytes { .. }
                | WireError::Corrupt(_),
            ) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }
    }

    #[test]
    fn wrong_version_and_kind_are_typed(frame in arb_frame(), v in 0u8..=255, k in 5u8..=255) {
        let bytes = encode_frame(&frame);
        if v != WIRE_VERSION {
            let mut wrong = bytes.clone();
            wrong[4] = v;
            match decode_frame(&wrong) {
                Err(WireError::UnsupportedVersion(got)) => prop_assert_eq!(got, v),
                other => return Err(TestCaseError::fail(format!(
                    "expected UnsupportedVersion, got {}",
                    describe(&other)
                ))),
            }
        }
        let mut wrong = bytes;
        wrong[5] = k;
        match decode_frame(&wrong) {
            Err(WireError::UnknownKind(got)) => prop_assert_eq!(got, k),
            other => return Err(TestCaseError::fail(format!(
                "expected UnknownKind, got {}",
                describe(&other)
            ))),
        }
    }
}

fn describe(r: &Result<(WireFrame, usize), WireError>) -> String {
    match r {
        Ok((_, consumed)) => format!("Ok(frame, {consumed})"),
        Err(e) => format!("Err({e})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serve_stream_matches_direct_submission(
        method_sels in proptest::collection::vec(0usize..3, 3..9),
        edge_sel in 0usize..1000,
        new_weight in 1u8..=200,
    ) {
        let (mut g, inputs) = tiny_kg();
        g.freeze();
        let methods = [
            BatchMethod::Steiner(SteinerConfig::default()),
            BatchMethod::SteinerFast(SteinerConfig::default()),
            BatchMethod::Pcst(PcstConfig::default()),
        ];
        // Frame a session: a request wave, one mutation barrier, then a
        // second wave over the post-mutation graph.
        let e = EdgeId((edge_sel % g.edge_count()) as u32);
        let w = new_weight as f64 * 0.05;
        let mut stream = Vec::new();
        let mut pre_ids = Vec::new();
        let mut post_ids = Vec::new();
        for (i, &sel) in method_sels.iter().enumerate() {
            let id = i as u64;
            stream.extend_from_slice(&encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
                id,
                method: methods[sel],
                input: inputs[i % inputs.len()].clone(),
            })));
            pre_ids.push((id, sel, i % inputs.len()));
        }
        stream.extend_from_slice(&encode_frame(&WireFrame::MutationRequest(MutationRequest {
            id: 9_000,
            mutation: WireMutation::SetWeight { edge: e, weight: w },
        })));
        for (i, &sel) in method_sels.iter().enumerate() {
            let id = 100 + i as u64;
            stream.extend_from_slice(&encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
                id,
                method: methods[sel],
                input: inputs[i % inputs.len()].clone(),
            })));
            post_ids.push((id, sel, i % inputs.len()));
        }

        let queue = AdmissionQueue::for_engine(
            g.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig { queue_bound: 64, max_batch: 8, linger_tickets: 2 },
        );
        let mut responses = Vec::new();
        let report = serve_stream(&stream[..], &mut responses, &queue)
            .map_err(|e| TestCaseError::fail(format!("clean stream serves: {e}")))?;
        prop_assert_eq!(report.summaries, 2 * method_sels.len() as u64);
        prop_assert_eq!(report.mutations, 1);
        prop_assert_eq!(report.responses, 2 * method_sels.len() as u64 + 1);
        prop_assert_eq!(report.responses, report.summaries + report.mutations);

        // Decode the response stream into an id → summary map.
        let mut got: HashMap<u64, WireSummary> = HashMap::new();
        let mut mutation_acked = false;
        let mut rest = &responses[..];
        while !rest.is_empty() {
            let (frame, consumed) = decode_frame(rest)
                .map_err(|e| TestCaseError::fail(format!("valid response frame: {e}")))?;
            rest = &rest[consumed..];
            match frame {
                WireFrame::SummaryResponse(resp) => {
                    let summary = resp.result
                        .map_err(|e| TestCaseError::fail(format!("request serves: {e}")))?;
                    prop_assert!(got.insert(resp.id, summary).is_none(), "ids answer once");
                }
                WireFrame::MutationResponse(resp) => {
                    prop_assert_eq!(resp.id, 9_000);
                    prop_assert!(resp.result.is_ok());
                    mutation_acked = true;
                }
                _ => return Err(TestCaseError::fail("request frame on the response stream")),
            }
        }
        prop_assert!(mutation_acked);
        prop_assert_eq!(got.len(), 2 * method_sels.len());

        // Direct reference: same methods, same inputs, identically
        // mutated reference graph.
        let mut direct = SummaryEngine::with_threads(2);
        for &(id, sel, input) in &pre_ids {
            let want = direct.summarize(&g, &inputs[input], methods[sel]);
            assert_wire_matches(&want, &got[&id])?;
        }
        g.set_weight(e, w);
        for &(id, sel, input) in &post_ids {
            let want = direct.summarize(&g, &inputs[input], methods[sel]);
            assert_wire_matches(&want, &got[&id])?;
        }
    }
}

#[test]
fn corrupt_stream_still_answers_admitted_requests() {
    // A truncated tail must not strand the requests decoded before it:
    // serve_stream drains the ticket set before surfacing the error.
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::with_threads(2),
        AdmissionConfig {
            queue_bound: 64,
            max_batch: 8,
            linger_tickets: 2,
        },
    );
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let mut stream = encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
        id: 1,
        method,
        input: inputs[0].clone(),
    }));
    stream.extend_from_slice(&[7, 0, 0]); // torn length prefix
    let mut responses = Vec::new();
    let err = serve_stream(&stream[..], &mut responses, &queue)
        .expect_err("torn frame surfaces an error");
    assert!(matches!(err, WireError::Truncated), "typed: {err}");
    let (frame, _) = decode_frame(&responses).expect("the admitted request was answered");
    let WireFrame::SummaryResponse(resp) = frame else {
        panic!("summary response expected");
    };
    assert_eq!(resp.id, 1);
    let mut direct = SummaryEngine::with_threads(2);
    let want = direct.summarize(&g, &inputs[0], method);
    let got = resp.result.expect("serves");
    assert_eq!(want.method, got.method.as_str());
    assert_eq!(want.subgraph.sorted_edges(), got.edges);
    assert_eq!(want.subgraph.sorted_nodes(), got.nodes);
}

#[test]
fn out_of_range_set_weight_is_refused_and_spares_the_queue() {
    // A SetWeight naming an edge the graph lacks is answered `Err`
    // under its own id. The barrier must not panic: that would poison
    // the queue for every client of it.
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = tiny_queue(&g);
    let mut stream = encode_frame(&WireFrame::MutationRequest(MutationRequest {
        id: 1,
        mutation: WireMutation::SetWeight {
            edge: EdgeId(999_999),
            weight: 1.0,
        },
    }));
    stream.extend(encode_frame(&st_frame(2, &inputs[0])));
    let mut responses = Vec::new();
    let report = serve_stream(&stream[..], &mut responses, &queue).expect("clean EOF");
    assert_eq!(report.responses, 2);

    let mut rest = &responses[..];
    let (mut refused, mut served) = (None, None);
    while !rest.is_empty() {
        let (frame, used) = decode_frame(rest).expect("valid response frame");
        rest = &rest[used..];
        match frame {
            WireFrame::MutationResponse(r) => refused = Some(r),
            WireFrame::SummaryResponse(r) => served = Some(r),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let refused = refused.expect("the mutation is answered");
    assert_eq!(refused.id, 1);
    assert!(refused.result.is_err(), "out-of-range edge is refused");
    let served = served.expect("the later summary is answered");
    assert_eq!(served.id, 2);
    let method = BatchMethod::Steiner(SteinerConfig::default());
    let want = SummaryEngine::with_threads(2).summarize(&g, &inputs[0], method);
    let got = served.result.expect("the queue still serves");
    assert_eq!(want.method, got.method.as_str());
    assert_eq!(want.terminals, got.terminals);
    assert_eq!(want.subgraph.sorted_edges(), got.edges);
    assert_eq!(want.subgraph.sorted_nodes(), got.nodes);

    // Not poisoned: the queue takes another barrier, and the graph it
    // serves still has every original weight.
    let (tx, rx) = mpsc::channel();
    queue
        .mutate(move |g| {
            let bits: Vec<u64> = (0..g.edge_count())
                .map(|e| g.weight(EdgeId(e as u32)).to_bits())
                .collect();
            let _ = tx.send(bits);
        })
        .expect("the queue is not poisoned");
    let original: Vec<u64> = (0..g.edge_count())
        .map(|e| g.weight(EdgeId(e as u32)).to_bits())
        .collect();
    assert_eq!(rx.recv().expect("the barrier ran"), original);
}

/// How long a test waits for a stream to answer before calling it
/// stalled.
const WATCHDOG: Duration = Duration::from_secs(10);

fn st_frame(id: u64, input: &SummaryInput) -> WireFrame {
    WireFrame::SummaryRequest(SummaryRequest {
        id,
        method: BatchMethod::Steiner(SteinerConfig::default()),
        input: input.clone(),
    })
}

fn tiny_queue(g: &Graph) -> AdmissionQueue {
    AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::with_threads(2),
        AdmissionConfig {
            queue_bound: 64,
            max_batch: 8,
            linger_tickets: 2,
        },
    )
}

#[test]
fn ping_pong_client_gets_each_answer_before_its_next_request() {
    // One request in flight at a time: the client reads each answer
    // before it writes the next frame, so no later frame or EOF can
    // push an answer out. The response side is buffered, so an answer
    // also needs a flush to reach the client.
    let (mut g, inputs) = tiny_kg();
    g.freeze();
    let methods = [
        BatchMethod::Steiner(SteinerConfig::default()),
        BatchMethod::SteinerFast(SteinerConfig::default()),
        BatchMethod::Pcst(PcstConfig::default()),
    ];
    const ROUNDS: u64 = 20;
    const MUTATION_AT: u64 = 9;
    let edge = EdgeId(0);
    let weight = 0.25;
    let (req_rx, mut req_tx) = std::io::pipe().expect("request pipe");
    let (mut resp_rx, resp_tx) = std::io::pipe().expect("response pipe");

    let queue = tiny_queue(&g);
    let (report_tx, report_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = report_tx.send(serve_stream(req_rx, BufWriter::new(resp_tx), &queue));
    });
    let client_inputs = inputs.clone();
    let (answers_tx, answers_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut answers = Vec::new();
        for id in 0..ROUNDS {
            let frame = if id == MUTATION_AT {
                WireFrame::MutationRequest(MutationRequest {
                    id,
                    mutation: WireMutation::SetWeight { edge, weight },
                })
            } else {
                WireFrame::SummaryRequest(SummaryRequest {
                    id,
                    method: methods[id as usize % methods.len()],
                    input: client_inputs[id as usize % client_inputs.len()].clone(),
                })
            };
            req_tx
                .write_all(&encode_frame(&frame))
                .expect("server reads requests");
            let answer = read_frame(&mut resp_rx)
                .expect("valid response frame")
                .expect("an answer before the stream ends");
            answers.push(answer);
        }
        drop(req_tx);
        let tail = read_frame(&mut resp_rx).expect("clean end of responses");
        let _ = answers_tx.send((answers, tail.is_none()));
    });

    let (answers, clean_end) = answers_rx
        .recv_timeout(WATCHDOG)
        .expect("serve_stream held an answer back until the next frame");
    assert!(clean_end, "no response after the last answer");
    let report = report_rx
        .recv_timeout(WATCHDOG)
        .expect("serve_stream returns at EOF")
        .expect("clean stream serves");
    assert_eq!(report.summaries, ROUNDS - 1);
    assert_eq!(report.mutations, 1);
    assert_eq!(report.responses, report.summaries + report.mutations);

    let mut direct = SummaryEngine::with_threads(2);
    for (id, answer) in (0..ROUNDS).zip(answers) {
        match answer {
            WireFrame::MutationResponse(resp) => {
                assert_eq!((resp.id, resp.result), (MUTATION_AT, Ok(())));
                g.set_weight(edge, weight);
            }
            WireFrame::SummaryResponse(resp) => {
                assert_eq!(resp.id, id, "answers come back in request order");
                let method = methods[id as usize % methods.len()];
                let want = direct.summarize(&g, &inputs[id as usize % inputs.len()], method);
                let got = resp.result.expect("request serves");
                assert_wire_matches(&want, &got).expect("bit-identical to direct summarize");
            }
            other => panic!("request frame on the response stream: {other:?}"),
        }
    }
}

#[test]
fn refused_admission_answers_every_frame_under_its_id() {
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = tiny_queue(&g);
    queue.shutdown();
    let mut stream = Vec::new();
    for id in 0..6u64 {
        let frame = if id % 3 == 2 {
            WireFrame::MutationRequest(MutationRequest {
                id,
                mutation: WireMutation::SetWeight {
                    edge: EdgeId(0),
                    weight: 2.0,
                },
            })
        } else {
            st_frame(id, &inputs[id as usize % inputs.len()])
        };
        stream.extend_from_slice(&encode_frame(&frame));
    }
    let mut responses = Vec::new();
    let report = serve_stream(&stream[..], &mut responses, &queue).expect("refusals are answers");
    assert_eq!((report.summaries, report.mutations), (4, 2));
    assert_eq!(report.responses, report.summaries + report.mutations);

    let mut rest = &responses[..];
    let mut ids = Vec::new();
    while !rest.is_empty() {
        let (frame, consumed) = decode_frame(rest).expect("valid response frame");
        rest = &rest[consumed..];
        match frame {
            WireFrame::SummaryResponse(resp) => {
                assert!(resp.id % 3 != 2, "summary ids answer as summaries");
                assert!(resp.result.is_err(), "a shut-down queue serves nothing");
                ids.push(resp.id);
            }
            WireFrame::MutationResponse(resp) => {
                assert_eq!(resp.id % 3, 2, "mutation ids answer as mutations");
                assert!(resp.result.is_err(), "a shut-down queue mutates nothing");
                ids.push(resp.id);
            }
            other => panic!("request frame on the response stream: {other:?}"),
        }
    }
    assert_eq!(
        ids,
        (0..6).collect::<Vec<u64>>(),
        "answered in stream order"
    );
}

#[test]
fn dropped_response_pipe_ends_the_stream_and_spares_the_queue() {
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = Arc::new(tiny_queue(&g));
    let (req_rx, mut req_tx) = std::io::pipe().expect("request pipe");
    let (mut resp_rx, resp_tx) = std::io::pipe().expect("response pipe");
    let (result_tx, result_rx) = mpsc::channel();
    let server_queue = Arc::clone(&queue);
    std::thread::spawn(move || {
        let _ = result_tx.send(serve_stream(req_rx, resp_tx, &server_queue));
    });

    let unchanged = g.weight(EdgeId(0));
    let client_inputs = inputs.clone();
    std::thread::spawn(move || {
        // One answered round trip proves the stream live...
        req_tx
            .write_all(&encode_frame(&st_frame(0, &client_inputs[0])))
            .expect("server reads requests");
        read_frame(&mut resp_rx)
            .expect("valid response frame")
            .expect("first answer");
        // ...then the client goes away. Summaries the writer can no
        // longer deliver and a mutation the reader answers itself both
        // hit the broken pipe; the client's own writes may fail once
        // the server stops reading.
        drop(resp_rx);
        for id in 1..8u64 {
            let frame = if id == 4 {
                WireFrame::MutationRequest(MutationRequest {
                    id,
                    mutation: WireMutation::SetWeight {
                        edge: EdgeId(0),
                        weight: unchanged,
                    },
                })
            } else {
                st_frame(id, &client_inputs[id as usize % client_inputs.len()])
            };
            let _ = req_tx.write_all(&encode_frame(&frame));
        }
    });
    let err = result_rx
        .recv_timeout(WATCHDOG)
        .expect("serve_stream returns once the response pipe breaks")
        .expect_err("a broken response pipe is an error");
    assert!(matches!(err, WireError::Io(_)), "typed: {err}");

    // The same queue serves a fresh stream: nothing wedged or poisoned.
    let mut stream = Vec::new();
    for id in 0..inputs.len() as u64 {
        stream.extend_from_slice(&encode_frame(&st_frame(id, &inputs[id as usize])));
    }
    let mut responses = Vec::new();
    let report = serve_stream(&stream[..], &mut responses, &queue).expect("fresh stream serves");
    assert_eq!(report.responses, report.summaries + report.mutations);
    assert_eq!(report.responses, inputs.len() as u64);
    let mut direct = SummaryEngine::with_threads(2);
    let mut rest = &responses[..];
    while !rest.is_empty() {
        let (frame, consumed) = decode_frame(rest).expect("valid response frame");
        rest = &rest[consumed..];
        let WireFrame::SummaryResponse(resp) = frame else {
            panic!("summary responses only");
        };
        let want = direct.summarize(
            &g,
            &inputs[resp.id as usize],
            BatchMethod::Steiner(SteinerConfig::default()),
        );
        let got = resp.result.expect("the queue still serves");
        assert_wire_matches(&want, &got).expect("bit-identical to direct summarize");
    }
}

/// A response writer whose every write panics.
struct PanickingWriter;

impl Write for PanickingWriter {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        panic!("response writer fault");
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn writer_panic_stops_the_reader_and_is_re_raised() {
    let (g, inputs) = tiny_kg();
    g.freeze();
    let queue = Arc::new(tiny_queue(&g));
    let (req_rx, mut req_tx) = std::io::pipe().expect("request pipe");
    let (result_tx, result_rx) = mpsc::channel();
    let server_queue = Arc::clone(&queue);
    std::thread::spawn(move || {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_stream(req_rx, PanickingWriter, &server_queue)
        }));
        let _ = result_tx.send(run.is_err());
    });

    // A client that keeps the request pipe open past the watchdog and
    // sends a request now and then, as one waiting on its answers
    // would. The writer panics on the first answer; the reader must
    // stop at a later request rather than keep admitting requests
    // nobody will answer until EOF.
    std::thread::spawn(move || {
        for id in 0..600u64 {
            let frame = st_frame(id, &inputs[id as usize % inputs.len()]);
            if req_tx.write_all(&encode_frame(&frame)).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });
    let panicked = result_rx
        .recv_timeout(WATCHDOG)
        .expect("serve_stream returns once its writer has panicked");
    assert!(panicked, "the writer's panic is re-raised by serve_stream");
}
