//! Wire protocol for streaming summary serving: versioned
//! request/response records in a compact length-prefixed binary
//! framing, plus [`serve_stream`] — the loop that turns any
//! `Read`/`Write` pair into a front-end over an
//! [`AdmissionQueue`](crate::admission::AdmissionQueue).
//!
//! # Framing
//!
//! Every frame is `[len: u32 LE][payload]`, where the payload is
//! `[version: u8][kind: u8][body]` and `len` counts the payload bytes
//! (version byte onward). Integers are little-endian; every `f64`
//! travels as its [`f64::to_bits`] image, so configs round-trip
//! **bit-exact** — NaN params survive, and `−0.0` stays distinct from
//! `0.0` (the same fingerprint discipline as
//! [`CostModelKey`](crate::steiner::CostModelKey) and the admission
//! coalescer). Strings are `u32` length + UTF-8 bytes; vectors are
//! `u32` length + elements; `Option<EdgeId>` is a one-byte tag.
//!
//! | kind | record |
//! |---|---|
//! | 1 | [`SummaryRequest`] |
//! | 2 | [`MutationRequest`] |
//! | 3 | [`SummaryResponse`] |
//! | 4 | [`MutationResponse`] |
//!
//! # Robustness contract
//!
//! Decoding **never panics**: truncated buffers, unknown versions or
//! kinds, trailing bytes, invalid enum tags, and invalid UTF-8 all
//! surface as typed [`WireError`]s (`tests/prop_wire.rs` pins this
//! under random corruption). Encoding is canonical — decode∘encode is
//! the identity on bytes — so byte equality is the round-trip test
//! even for NaN-carrying configs that `PartialEq` could not compare.
//!
//! # Serving
//!
//! [`serve_stream`] runs on two threads. The calling thread reads: it
//! decodes request frames, submits summaries through the queue and
//! registers the tickets in a
//! [`TicketSet`](crate::admission::TicketSet) tagged by request id.
//! It applies mutation barriers in stream order and answers them, and
//! any request refused at admission, itself. A scoped writer thread,
//! joined before `serve_stream` returns, blocks on the set and writes
//! each [`SummaryResponse`] as soon as its ticket resolves, in
//! **completion order** (the id is the correlation handle). It writes
//! every response already resolved as one burst and flushes once per
//! burst; while no ticket is outstanding it parks, with no timer or
//! polling. So an answer never waits for the next request frame, and a
//! client may send one request and wait for its answer before the
//! next. The writer is shared by both threads, hence `W: Write + Send`.
//! Results are bit-identical to direct [`AdmissionQueue::submit`] +
//! [`SummaryTicket::wait`](crate::admission::SummaryTicket::wait).
//! `CONCURRENCY.md` gives the two threads' protocol and lock order.

use std::io::{BufReader, Read, Write};

use xsum_graph::sync::{Condvar, Mutex, PoisonError};
use xsum_graph::{EdgeId, LoosePath, NodeId};

use crate::admission::{lock_recovering, AdmissionQueue, CompletedTicket, TicketSet};
use crate::batch::BatchMethod;
use crate::input::{Scenario, SummaryInput};
use crate::pcst::{PcstConfig, PcstScope};
use crate::steiner::SteinerConfig;
use crate::summary::Summary;

/// The wire format version this build encodes and accepts.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's payload (64 MiB) — a corrupt length
/// prefix must not drive an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Typed decode/IO failures; decoding never panics.
#[derive(Debug)]
pub enum WireError {
    /// The buffer or stream ended mid-frame.
    Truncated,
    /// The frame's version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The frame's kind byte names no known record.
    UnknownKind(u8),
    /// The payload decoded cleanly but left unread bytes behind.
    TrailingBytes {
        /// How many payload bytes were left over.
        extra: usize,
    },
    /// A field held an invalid value (bad enum tag, bad UTF-8, a
    /// length prefix past [`MAX_FRAME_LEN`], an empty path, ...).
    Corrupt(&'static str),
    /// The underlying reader/writer failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame truncated"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown wire record kind {k}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "wire frame has {extra} trailing bytes")
            }
            WireError::Corrupt(what) => write!(f, "corrupt wire frame: {what}"),
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One graph mutation a client may request over the wire.
#[derive(Debug, Clone, Copy)]
pub enum WireMutation {
    /// Set one edge's weight (the Eq. 1 inputs drift as ratings
    /// arrive; applied as a coalescing barrier like
    /// [`AdmissionQueue::mutate`]).
    SetWeight {
        /// The edge to reweight.
        edge: EdgeId,
        /// The new weight (bit-exact over the wire).
        weight: f64,
    },
}

/// Request one summary: `id` is the client's correlation handle,
/// echoed verbatim on the matching [`SummaryResponse`].
#[derive(Debug, Clone)]
pub struct SummaryRequest {
    /// Client-chosen correlation id (need not be unique or ordered).
    pub id: u64,
    /// Method and config, bit-exact.
    pub method: BatchMethod,
    /// The summarization problem.
    pub input: SummaryInput,
}

/// Request one graph mutation (a barrier: requests framed before it
/// serve the pre-mutation graph, requests after it the post-mutation
/// graph).
#[derive(Debug, Clone)]
pub struct MutationRequest {
    /// Client-chosen correlation id.
    pub id: u64,
    /// What to change.
    pub mutation: WireMutation,
}

/// A summary flattened for the wire: deterministic sorted node/edge
/// lists (the [`Subgraph`](xsum_graph::Subgraph) sort order), so equal
/// summaries encode to equal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSummary {
    /// The serving method's label (`"ST"`, `"ST-fast"`, `"PCST"`,
    /// `"GW-PCST"`).
    pub method: String,
    /// The request's scenario.
    pub scenario: Scenario,
    /// Sorted subgraph nodes.
    pub nodes: Vec<NodeId>,
    /// Sorted subgraph edges.
    pub edges: Vec<EdgeId>,
    /// The terminal set `T`.
    pub terminals: Vec<NodeId>,
}

impl WireSummary {
    /// Flatten an in-memory [`Summary`] for the wire.
    pub fn from_summary(s: &Summary) -> Self {
        WireSummary {
            method: s.method.to_string(),
            scenario: s.scenario,
            nodes: s.subgraph.sorted_nodes(),
            edges: s.subgraph.sorted_edges(),
            terminals: s.terminals.clone(),
        }
    }
}

/// The response to a [`SummaryRequest`], correlated by `id`.
#[derive(Debug, Clone)]
pub struct SummaryResponse {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The summary, or the serving error rendered as a string.
    pub result: Result<WireSummary, String>,
}

/// The response to a [`MutationRequest`], correlated by `id`.
#[derive(Debug, Clone)]
pub struct MutationResponse {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// `Ok` once the barrier applied, else the error as a string.
    pub result: Result<(), String>,
}

/// Any record that can travel in a frame.
#[derive(Debug, Clone)]
pub enum WireFrame {
    /// Kind 1.
    SummaryRequest(SummaryRequest),
    /// Kind 2.
    MutationRequest(MutationRequest),
    /// Kind 3.
    SummaryResponse(SummaryResponse),
    /// Kind 4.
    MutationResponse(MutationResponse),
}

// ---------------------------------------------------------------------
// Encoding (canonical: one byte image per value).

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("wire collections fit in u32"));
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn node(&mut self, n: NodeId) {
        self.u32(n.0);
    }
    fn edge(&mut self, e: EdgeId) {
        self.u32(e.0);
    }
    fn nodes(&mut self, ns: &[NodeId]) {
        self.len(ns.len());
        for &n in ns {
            self.node(n);
        }
    }
    fn edges(&mut self, es: &[EdgeId]) {
        self.len(es.len());
        for &e in es {
            self.edge(e);
        }
    }
    fn scenario(&mut self, s: Scenario) {
        self.u8(match s {
            Scenario::UserCentric => 0,
            Scenario::ItemCentric => 1,
            Scenario::UserGroup => 2,
            Scenario::ItemGroup => 3,
        });
    }
    fn steiner_cfg(&mut self, c: &SteinerConfig) {
        // Exhaustive destructuring: a new config field fails to
        // compile here instead of being silently dropped from the wire.
        let SteinerConfig { lambda, delta } = *c;
        self.f64(lambda);
        self.f64(delta);
    }
    fn pcst_cfg(&mut self, c: &PcstConfig) {
        let PcstConfig {
            terminal_prize,
            nonterminal_prize,
            use_edge_weights,
            scope,
            prune,
        } = *c;
        self.f64(terminal_prize);
        self.f64(nonterminal_prize);
        self.bool(use_edge_weights);
        self.bool(prune);
        match scope {
            PcstScope::UnionOfPaths => self.u8(0),
            PcstScope::ExpandedUnion(h) => {
                self.u8(1);
                self.u32(u32::try_from(h).expect("expansion radius fits in u32"));
            }
            PcstScope::FullGraph => self.u8(2),
        }
    }
    fn method(&mut self, m: &BatchMethod) {
        match m {
            BatchMethod::Steiner(c) => {
                self.u8(0);
                self.steiner_cfg(c);
            }
            BatchMethod::SteinerFast(c) => {
                self.u8(1);
                self.steiner_cfg(c);
            }
            BatchMethod::Pcst(c) => {
                self.u8(2);
                self.pcst_cfg(c);
            }
            BatchMethod::GwPcst(c) => {
                self.u8(3);
                self.pcst_cfg(c);
            }
        }
    }
    fn path(&mut self, p: &LoosePath) {
        self.nodes(p.nodes());
        for hop in p.hops() {
            match hop {
                None => self.u8(0),
                Some(e) => {
                    self.u8(1);
                    self.edge(*e);
                }
            }
        }
    }
    fn input(&mut self, i: &SummaryInput) {
        let SummaryInput {
            scenario,
            terminals,
            paths,
            anchor_count,
        } = i;
        self.scenario(*scenario);
        self.nodes(terminals);
        self.len(paths.len());
        for p in paths {
            self.path(p);
        }
        self.u64(*anchor_count as u64);
    }
    fn result_summary(&mut self, r: &Result<WireSummary, String>) {
        match r {
            Ok(s) => {
                self.u8(1);
                self.str(&s.method);
                self.scenario(s.scenario);
                self.nodes(&s.nodes);
                self.edges(&s.edges);
                self.nodes(&s.terminals);
            }
            Err(msg) => {
                self.u8(0);
                self.str(msg);
            }
        }
    }
}

/// Encode one frame (length prefix included).
pub fn encode_frame(frame: &WireFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, frame);
    out
}

/// Append one encoded frame (length prefix included) to `out`.
fn encode_frame_into(out: &mut Vec<u8>, frame: &WireFrame) {
    let start = out.len();
    let mut e = Enc {
        buf: std::mem::take(out),
    };
    e.u32(0); // length prefix, patched below
    e.u8(WIRE_VERSION);
    match frame {
        WireFrame::SummaryRequest(r) => {
            e.u8(1);
            e.u64(r.id);
            e.method(&r.method);
            e.input(&r.input);
        }
        WireFrame::MutationRequest(r) => {
            e.u8(2);
            e.u64(r.id);
            match r.mutation {
                WireMutation::SetWeight { edge, weight } => {
                    e.u8(0);
                    e.edge(edge);
                    e.f64(weight);
                }
            }
        }
        WireFrame::SummaryResponse(r) => {
            e.u8(3);
            e.u64(r.id);
            e.result_summary(&r.result);
        }
        WireFrame::MutationResponse(r) => {
            e.u8(4);
            e.u64(r.id);
            match &r.result {
                Ok(()) => e.u8(1),
                Err(msg) => {
                    e.u8(0);
                    e.str(msg);
                }
            }
        }
    }
    *out = e.buf;
    let len = u32::try_from(out.len() - start - 4).expect("payload fits in u32");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

// ---------------------------------------------------------------------
// Decoding (typed errors, no panics, bounded allocation).

struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A collection length; each element needs ≥ `min_elem` more bytes,
    /// so a corrupt count fails `Truncated` here instead of driving a
    /// huge allocation downstream.
    fn len(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("invalid UTF-8 string"))
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("invalid bool byte")),
        }
    }
    fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId(self.u32()?))
    }
    fn edge(&mut self) -> Result<EdgeId, WireError> {
        Ok(EdgeId(self.u32()?))
    }
    fn nodes(&mut self) -> Result<Vec<NodeId>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.node()).collect()
    }
    fn edges(&mut self) -> Result<Vec<EdgeId>, WireError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.edge()).collect()
    }
    fn scenario(&mut self) -> Result<Scenario, WireError> {
        match self.u8()? {
            0 => Ok(Scenario::UserCentric),
            1 => Ok(Scenario::ItemCentric),
            2 => Ok(Scenario::UserGroup),
            3 => Ok(Scenario::ItemGroup),
            _ => Err(WireError::Corrupt("invalid scenario tag")),
        }
    }
    fn steiner_cfg(&mut self) -> Result<SteinerConfig, WireError> {
        Ok(SteinerConfig {
            lambda: self.f64()?,
            delta: self.f64()?,
        })
    }
    fn pcst_cfg(&mut self) -> Result<PcstConfig, WireError> {
        let terminal_prize = self.f64()?;
        let nonterminal_prize = self.f64()?;
        let use_edge_weights = self.bool()?;
        let prune = self.bool()?;
        let scope = match self.u8()? {
            0 => PcstScope::UnionOfPaths,
            1 => PcstScope::ExpandedUnion(self.u32()? as usize),
            2 => PcstScope::FullGraph,
            _ => return Err(WireError::Corrupt("invalid PCST scope tag")),
        };
        Ok(PcstConfig {
            terminal_prize,
            nonterminal_prize,
            use_edge_weights,
            scope,
            prune,
        })
    }
    fn method(&mut self) -> Result<BatchMethod, WireError> {
        match self.u8()? {
            0 => Ok(BatchMethod::Steiner(self.steiner_cfg()?)),
            1 => Ok(BatchMethod::SteinerFast(self.steiner_cfg()?)),
            2 => Ok(BatchMethod::Pcst(self.pcst_cfg()?)),
            3 => Ok(BatchMethod::GwPcst(self.pcst_cfg()?)),
            _ => Err(WireError::Corrupt("invalid method tag")),
        }
    }
    fn path(&mut self) -> Result<LoosePath, WireError> {
        let nodes = self.nodes()?;
        if nodes.is_empty() {
            return Err(WireError::Corrupt("empty path"));
        }
        let hops = (0..nodes.len() - 1)
            .map(|_| {
                Ok(match self.u8()? {
                    0 => None,
                    1 => Some(self.edge()?),
                    _ => return Err(WireError::Corrupt("invalid hop tag")),
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        LoosePath::from_parts(nodes, hops).ok_or(WireError::Corrupt("malformed path"))
    }
    fn input(&mut self) -> Result<SummaryInput, WireError> {
        let scenario = self.scenario()?;
        let terminals = self.nodes()?;
        let n_paths = self.len(4)?;
        let paths = (0..n_paths)
            .map(|_| self.path())
            .collect::<Result<Vec<_>, WireError>>()?;
        let anchor_count = usize::try_from(self.u64()?)
            .map_err(|_| WireError::Corrupt("anchor count exceeds usize"))?;
        Ok(SummaryInput {
            scenario,
            terminals,
            paths,
            anchor_count,
        })
    }
    fn result_summary(&mut self) -> Result<Result<WireSummary, String>, WireError> {
        match self.bool()? {
            false => Ok(Err(self.str()?)),
            true => Ok(Ok(WireSummary {
                method: self.str()?,
                scenario: self.scenario()?,
                nodes: self.nodes()?,
                edges: self.edges()?,
                terminals: self.nodes()?,
            })),
        }
    }
    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len(),
            })
        }
    }
}

/// Decode one frame's payload (version byte onward, length prefix
/// already stripped).
fn decode_payload(payload: &[u8]) -> Result<WireFrame, WireError> {
    let mut d = Dec { buf: payload };
    let version = d.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = d.u8()?;
    let frame = match kind {
        1 => {
            let id = d.u64()?;
            let method = d.method()?;
            let input = d.input()?;
            WireFrame::SummaryRequest(SummaryRequest { id, method, input })
        }
        2 => {
            let id = d.u64()?;
            let mutation = match d.u8()? {
                0 => WireMutation::SetWeight {
                    edge: d.edge()?,
                    weight: d.f64()?,
                },
                _ => return Err(WireError::Corrupt("invalid mutation tag")),
            };
            WireFrame::MutationRequest(MutationRequest { id, mutation })
        }
        3 => {
            let id = d.u64()?;
            let result = d.result_summary()?;
            WireFrame::SummaryResponse(SummaryResponse { id, result })
        }
        4 => {
            let id = d.u64()?;
            let result = match d.bool()? {
                true => Ok(()),
                false => Err(d.str()?),
            };
            WireFrame::MutationResponse(MutationResponse { id, result })
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    d.finish()?;
    Ok(frame)
}

/// Decode one frame from the front of `bytes`; returns the frame and
/// how many bytes it consumed (length prefix included).
pub fn decode_frame(bytes: &[u8]) -> Result<(WireFrame, usize), WireError> {
    let mut d = Dec { buf: bytes };
    let len = d.u32()?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt("frame length exceeds MAX_FRAME_LEN"));
    }
    let payload = d.take(len as usize)?;
    Ok((decode_payload(payload)?, 4 + len as usize))
}

/// Fill `buf` from `r`. `Ok(false)` on clean EOF at the first byte;
/// EOF mid-buffer is [`WireError::Truncated`].
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(WireError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame from `r`; `Ok(None)` on clean EOF at a frame
/// boundary (EOF mid-frame is [`WireError::Truncated`]).
pub fn read_frame(r: &mut impl Read) -> Result<Option<WireFrame>, WireError> {
    let mut len_buf = [0u8; 4];
    if !read_full(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt("frame length exceeds MAX_FRAME_LEN"));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_full(r, &mut payload)? {
        return Err(WireError::Truncated);
    }
    Ok(Some(decode_payload(&payload)?))
}

/// Write one frame to `w` (no flush; callers batch as they like).
pub fn write_frame(w: &mut impl Write, frame: &WireFrame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    Ok(())
}

/// Counters of one [`serve_stream`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Summary requests decoded and submitted.
    pub summaries: u64,
    /// Mutation barriers decoded and applied (or refused).
    pub mutations: u64,
    /// Response frames written (summary + mutation).
    pub responses: u64,
}

fn completed_response(done: CompletedTicket) -> WireFrame {
    WireFrame::SummaryResponse(SummaryResponse {
        id: done.tag,
        result: done
            .result
            .map(|s| WireSummary::from_summary(&s))
            .map_err(|e| e.to_string()),
    })
}

/// The handshake between [`serve_stream`]'s two threads. The reader
/// counts every ticket it adds to the [`TicketSet`]; the writer parks
/// while none is outstanding and leaves once the reader has closed and
/// every added ticket is written. `modelcheck::wire_writer_handshake`
/// checks it under the model checker.
pub(crate) struct WriterGate {
    state: Mutex<GateState>,
    wake: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Tickets counted by `add` and not yet written. The reader adds a
    /// ticket to the set before counting it, so the set may briefly
    /// hold one more; a burst writes at most this many.
    outstanding: u64,
    /// The reader adds no more tickets.
    closed: bool,
    /// The writer waits on `wake`; only then do `add`/`close` notify.
    parked: bool,
    /// The writer has left (done, at a failed write, or on a panic).
    left: bool,
}

impl WriterGate {
    pub(crate) fn new() -> Self {
        WriterGate {
            state: Mutex::new(GateState::default()),
            wake: Condvar::new(),
        }
    }

    /// Reader: count one ticket just added to the set, waking a parked
    /// writer. `false` once the writer has left, so the reader stops.
    pub(crate) fn add(&self) -> bool {
        let mut st = lock_recovering(&self.state);
        st.outstanding += 1;
        let wake = std::mem::take(&mut st.parked);
        let alive = !st.left;
        drop(st);
        if wake {
            self.wake.notify_one();
        }
        alive
    }

    /// Reader: no more tickets will be added.
    pub(crate) fn close(&self) {
        let mut st = lock_recovering(&self.state);
        st.closed = true;
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.wake.notify_one();
        }
    }

    /// Writer: retire the `written` tickets of the last burst, then
    /// park until a ticket is outstanding, and return how many are; `0`
    /// once the reader has closed with none outstanding (leave).
    pub(crate) fn next_burst(&self, written: u64) -> u64 {
        let mut st = lock_recovering(&self.state);
        st.outstanding -= written;
        loop {
            if st.outstanding > 0 {
                return st.outstanding;
            }
            if st.closed {
                return 0;
            }
            st.parked = true;
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Writer: leaving; later `add`s report it.
    fn leave(&self) {
        lock_recovering(&self.state).left = true;
    }
}

/// Runs its closure on drop, on every path out of a scope, panics
/// included.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// The response side of one [`serve_stream`] run, which both threads
/// write to: the caller's writer and the count of frames written.
pub(crate) struct ResponseSink<W> {
    out: Mutex<(W, u64)>,
}

impl<W: Write> ResponseSink<W> {
    pub(crate) fn new(writer: W) -> Self {
        ResponseSink {
            out: Mutex::new((writer, 0)),
        }
    }

    /// Write `frames` whole response frames held in `bytes`, then flush.
    fn send(&self, bytes: &[u8], frames: u64) -> Result<(), WireError> {
        let mut out = lock_recovering(&self.out);
        out.0.write_all(bytes)?;
        out.1 += frames;
        out.0.flush()?;
        Ok(())
    }

    /// The writer and the count of frames written to it.
    pub(crate) fn into_inner(self) -> (W, u64) {
        self.out
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`serve_stream`]'s writer thread: blocks on `set` while a ticket is
/// outstanding, writes every response already resolved as one burst
/// with one flush, and parks on `gate` when none is outstanding.
/// Leaves once the reader has closed and every ticket is written, at
/// the first failed write, or on a panic.
pub(crate) fn write_completions<W: Write>(
    set: &TicketSet,
    gate: &WriterGate,
    out: &ResponseSink<W>,
) -> Result<(), WireError> {
    // On every path out, a panic included, so the reader stops
    // admitting requests nobody would answer.
    let _leave = OnDrop(|| gate.leave());
    let mut burst = Vec::new();
    let mut written = 0;
    loop {
        let outstanding = gate.next_burst(written);
        if outstanding == 0 {
            return Ok(());
        }
        // The output lock is free while this blocks, so the reader can
        // answer a mutation meanwhile.
        let first = set
            .wait_any()
            .expect("an outstanding ticket is a member of the set");
        // At most `outstanding` per burst: the set may already hold a
        // ticket the reader has added but not yet counted, and writing
        // it now would retire more than the gate has counted.
        let rest = std::iter::from_fn(|| set.poll()).take(outstanding as usize - 1);
        burst.clear();
        written = 0;
        for done in std::iter::once(first).chain(rest) {
            encode_frame_into(&mut burst, &completed_response(done));
            written += 1;
        }
        out.send(&burst, written)?;
    }
}

/// [`serve_stream`]'s reader: decodes frames, adds admitted summaries
/// to `set` (counted on `gate`), and answers refusals and mutations
/// itself. `Ok` at a clean EOF, or as soon as the writer has left.
fn read_requests<W: Write>(
    reader: &mut impl Read,
    queue: &AdmissionQueue,
    set: &TicketSet,
    gate: &WriterGate,
    out: &ResponseSink<W>,
    report: &mut ServeReport,
) -> Result<(), WireError> {
    while let Some(frame) = read_frame(reader)? {
        let answer = match frame {
            WireFrame::SummaryRequest(req) => {
                report.summaries += 1;
                match queue.submit(req.input, req.method) {
                    Ok(ticket) => {
                        set.add(req.id, ticket);
                        if gate.add() {
                            continue;
                        }
                        return Ok(());
                    }
                    // Refused at admission (shut down / poisoned):
                    // answer at once, under the request's id.
                    Err(e) => WireFrame::SummaryResponse(SummaryResponse {
                        id: req.id,
                        result: Err(e.to_string()),
                    }),
                }
            }
            WireFrame::MutationRequest(req) => {
                report.mutations += 1;
                let result = match req.mutation {
                    WireMutation::SetWeight { edge, weight } => {
                        queue.mutate(move |g| g.set_weight(edge, weight))
                    }
                };
                WireFrame::MutationResponse(MutationResponse {
                    id: req.id,
                    result: result.map_err(|e| e.to_string()),
                })
            }
            WireFrame::SummaryResponse(_) | WireFrame::MutationResponse(_) => {
                return Err(WireError::Corrupt("response frame on the request stream"));
            }
        };
        out.send(&encode_frame(&answer), 1)?;
    }
    Ok(())
}

/// Serve a framed request stream against `queue`: decode frames from
/// `reader`, submit summaries (tickets multiplexed through a
/// [`TicketSet`] tagged by request id), apply mutations as barriers,
/// and write responses to `writer` in **completion order**.
///
/// The calling thread reads; a scoped writer thread, joined before this
/// returns, writes each summary response as soon as its ticket
/// resolves, without waiting for the next request frame. Responses
/// already resolved go out together, followed by one flush; refusals
/// and mutation answers are written and flushed by the reading thread
/// at once. So a client behind a buffered writer can send one request
/// and wait for its answer before sending the next. Returns after a
/// clean EOF once every admitted ticket's response is written.
///
/// On a decode error the in-flight tickets are still drained (their
/// responses written best-effort) before the error is returned — a
/// corrupt frame never strands an admitted request without an answer.
/// A failed write ends the run with [`WireError::Io`] at the next
/// request frame or EOF; the tickets still in flight are dropped,
/// which leaves the queue serving.
///
/// # Panics
///
/// A panic in `writer` ends the run the same way and is re-raised
/// here.
pub fn serve_stream<R: Read, W: Write + Send>(
    reader: R,
    writer: W,
    queue: &AdmissionQueue,
) -> Result<ServeReport, WireError> {
    // Buffered, so a run of queued frames costs one read call, not two
    // per frame; a partial buffer is handed over as soon as it arrives.
    let mut reader = BufReader::new(reader);
    let set = TicketSet::new();
    let gate = WriterGate::new();
    let out = ResponseSink::new(writer);
    let mut report = ServeReport::default();
    // xlint: allow(sync-facade) — the writer is a std scoped thread: it
    // borrows the set and the caller's writer, which the facade's
    // 'static spawn cannot. The gate it shares with the reader is
    // built on the facade and model-checked.
    // xlint: allow(rogue-spawn) — one writer thread per stream, joined
    // below before serve_stream returns; its panic is re-raised here.
    let (read, write) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_completions(&set, &gate, &out));
        // Closing on every path out (EOF, an error, a panic) lets the
        // writer drain what was admitted and leave.
        let close = OnDrop(|| gate.close());
        let read = read_requests(&mut reader, queue, &set, &gate, &out, &mut report);
        drop(close);
        let write = writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (read, write)
    });
    report.responses = out.into_inner().1;
    // A read error wins over the drain's best-effort writes.
    read?;
    write?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::engine::SummaryEngine;
    use crate::render::table1_example;

    fn st_request(id: u64) -> WireFrame {
        let ex = table1_example();
        WireFrame::SummaryRequest(SummaryRequest {
            id,
            method: BatchMethod::Steiner(SteinerConfig::default()),
            input: ex.input(),
        })
    }

    #[test]
    fn frames_round_trip_to_identical_bytes() {
        let ex = table1_example();
        let frames = vec![
            st_request(7),
            WireFrame::MutationRequest(MutationRequest {
                id: 8,
                mutation: WireMutation::SetWeight {
                    edge: EdgeId(3),
                    weight: -0.0,
                },
            }),
            WireFrame::SummaryResponse(SummaryResponse {
                id: 9,
                result: Ok(WireSummary::from_summary(
                    &BatchMethod::Steiner(SteinerConfig::default()).run(&ex.graph, &ex.input()),
                )),
            }),
            WireFrame::SummaryResponse(SummaryResponse {
                id: 10,
                result: Err("engine failure".to_string()),
            }),
            WireFrame::MutationResponse(MutationResponse {
                id: 11,
                result: Ok(()),
            }),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let (decoded, consumed) = decode_frame(&bytes).expect("well-formed frame decodes");
            assert_eq!(consumed, bytes.len());
            assert_eq!(encode_frame(&decoded), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn nan_and_negative_zero_configs_survive_bit_exact() {
        let frame = WireFrame::SummaryRequest(SummaryRequest {
            id: 1,
            method: BatchMethod::Steiner(SteinerConfig {
                lambda: f64::NAN,
                delta: -0.0,
            }),
            input: table1_example().input(),
        });
        let bytes = encode_frame(&frame);
        let (decoded, _) = decode_frame(&bytes).expect("decodes");
        let WireFrame::SummaryRequest(req) = &decoded else {
            panic!("kind preserved");
        };
        let BatchMethod::Steiner(cfg) = req.method else {
            panic!("method preserved");
        };
        assert_eq!(cfg.lambda.to_bits(), f64::NAN.to_bits());
        assert_eq!(cfg.delta.to_bits(), (-0.0f64).to_bits());
        assert_ne!(cfg.delta.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn corrupt_frames_error_without_panicking() {
        let bytes = encode_frame(&st_request(1));
        // Truncations at every prefix length.
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err());
        }
        // Wrong version.
        let mut wrong_version = bytes.clone();
        wrong_version[4] = WIRE_VERSION + 1;
        assert!(matches!(
            decode_frame(&wrong_version),
            Err(WireError::UnsupportedVersion(_))
        ));
        // Unknown kind.
        let mut wrong_kind = bytes.clone();
        wrong_kind[5] = 200;
        assert!(matches!(
            decode_frame(&wrong_kind),
            Err(WireError::UnknownKind(200))
        ));
        // Oversized length prefix: bounded error, no huge allocation.
        let mut huge = bytes;
        huge[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(decode_frame(&huge), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn serve_stream_answers_in_completion_order_with_correlation() {
        let ex = table1_example();
        let queue = AdmissionQueue::for_engine(
            ex.graph.clone(),
            SummaryEngine::with_threads(2),
            AdmissionConfig::default(),
        );
        let mut request_bytes = Vec::new();
        for id in [10u64, 11, 12] {
            request_bytes.extend_from_slice(&encode_frame(&st_request(id)));
        }
        let mut response_bytes = Vec::new();
        let report = serve_stream(&request_bytes[..], &mut response_bytes, &queue)
            .expect("clean stream serves");
        assert_eq!(report.summaries, 3);
        assert_eq!(report.responses, 3);
        let want = WireSummary::from_summary(
            &BatchMethod::Steiner(SteinerConfig::default()).run(&ex.graph, &ex.input()),
        );
        let mut rest = &response_bytes[..];
        let mut ids = Vec::new();
        while !rest.is_empty() {
            let (frame, consumed) = decode_frame(rest).expect("valid response frame");
            rest = &rest[consumed..];
            let WireFrame::SummaryResponse(resp) = frame else {
                panic!("summary responses only");
            };
            assert_eq!(resp.result.expect("serves"), want);
            ids.push(resp.id);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![10, 11, 12]);
    }
}
