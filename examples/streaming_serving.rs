//! Streaming serving over the wire protocol: framed requests in,
//! completion-ordered framed responses out, one admission queue in
//! the middle.
//!
//! A remote front-end does not hold `SummaryInput`s — it holds bytes.
//! `xsum::core::wire` gives those bytes a shape (versioned,
//! length-prefixed frames with bit-exact f64 configs) and
//! `serve_stream` runs the whole serving loop on two threads. The
//! calling thread decodes each request, submits it through the
//! `AdmissionQueue` and applies mutation frames as barriers; a writer
//! thread writes each response, with the client's request id attached,
//! as soon as its summary completes, flushing once per burst of ready
//! answers. So responses come back in completion order, and a client
//! never waits on its own next request for an answer. This demo plays
//! the client and the server in one process over in-memory buffers —
//! swap the `Vec<u8>`s for a socket (any `Read`, and any `Write + Send`)
//! and nothing else changes.
//!
//! ```text
//! cargo run --release --example streaming_serving
//! ```

use std::time::Instant;

use xsum::core::wire::{
    decode_frame, encode_frame, serve_stream, MutationRequest, SummaryRequest, WireFrame,
    WireMutation,
};
use xsum::core::{
    AdmissionConfig, AdmissionQueue, BatchMethod, PcstConfig, SteinerConfig, SummaryEngine,
    SummaryInput,
};
use xsum::datasets::ml1m_scaled;
use xsum::graph::EdgeId;
use xsum::rec::{MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig};

fn main() {
    let ds = ml1m_scaled(42, 0.03);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let g = &ds.kg.graph;

    // ---- client side: frame a session into a byte stream ----------
    let methods = [
        BatchMethod::Steiner(SteinerConfig::default()),
        BatchMethod::SteinerFast(SteinerConfig::default()),
        BatchMethod::Pcst(PcstConfig::default()),
    ];
    let mut stream: Vec<u8> = Vec::new();
    let mut framed = 0u64;
    for u in 0..24.min(ds.kg.n_users()) {
        let out = pgpr.recommend(u, 10);
        let paths = out.paths(out.len());
        if paths.is_empty() {
            continue;
        }
        let input = SummaryInput::user_centric(ds.kg.user_node(u), paths);
        stream.extend_from_slice(&encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
            id: framed,
            method: methods[u % methods.len()],
            input,
        })));
        framed += 1;
        // Every eighth request, a reweighting barrier: requests framed
        // before it are served on the old weights, requests after on
        // the new ones.
        if framed.is_multiple_of(8) {
            stream.extend_from_slice(&encode_frame(&WireFrame::MutationRequest(
                MutationRequest {
                    id: 10_000 + framed,
                    mutation: WireMutation::SetWeight {
                        edge: EdgeId((framed as u32 * 7) % g.edge_count() as u32),
                        weight: 0.5 + (framed as f64) * 0.01,
                    },
                },
            )));
        }
    }
    println!(
        "client framed {framed} summary requests ({} bytes on the wire)",
        stream.len()
    );

    // ---- server side: one call serves the whole session ------------
    // It returns at the end of the request stream, once every admitted
    // request has been answered.
    let queue = AdmissionQueue::for_engine(
        g.clone(),
        SummaryEngine::new(),
        AdmissionConfig {
            queue_bound: 256,
            max_batch: 32,
            linger_tickets: 8,
        },
    );
    let mut responses: Vec<u8> = Vec::new();
    let t0 = Instant::now();
    let report = serve_stream(&stream[..], &mut responses, &queue).expect("clean session");
    println!(
        "served {} summaries + {} mutation barriers in {:.1} ms ({} response bytes)",
        report.summaries,
        report.mutations,
        t0.elapsed().as_secs_f64() * 1e3,
        responses.len()
    );

    // ---- client side again: decode completion-ordered responses ----
    let mut rest = &responses[..];
    let mut shown = 0;
    while !rest.is_empty() {
        let (frame, consumed) = decode_frame(rest).expect("well-formed response");
        rest = &rest[consumed..];
        match frame {
            WireFrame::SummaryResponse(resp) => {
                let s = resp.result.expect("request served");
                if shown < 5 {
                    println!(
                        "  id {:>3} [{}] {:?}: {} nodes / {} edges over {} terminals",
                        resp.id,
                        s.method,
                        s.scenario,
                        s.nodes.len(),
                        s.edges.len(),
                        s.terminals.len()
                    );
                }
                shown += 1;
            }
            WireFrame::MutationResponse(resp) => {
                println!(
                    "  id {:>3} barrier applied: {}",
                    resp.id,
                    resp.result.is_ok()
                );
            }
            _ => unreachable!("the server writes only responses"),
        }
    }
    println!("decoded {shown} summary responses (first 5 shown)");
}
