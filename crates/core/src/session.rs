//! Incremental serving sessions: per-user growing summaries, stored.
//!
//! The paper's consistency experiments (Fig. 6) model a user scrolling:
//! k grows one recommendation at a time, and the summary should extend
//! — never reshuffle — what the user already read.
//! [`IncrementalSteiner`] / [`IncrementalPcst`] implement that growth;
//! this module keeps such sessions *alive across requests*, which is
//! what a serving deployment needs (the next `add_terminal` for a user
//! arrives on a later request, not in the same call stack).
//!
//! * [`EngineSession`] — one user's growing summary, ST or PCST flavor
//!   behind one surface;
//! * [`SessionKey`] — identity of a session: (user id, baseline input
//!   label), the pair the paper's per-baseline experiments key on;
//! * [`SessionStore`] — an LRU map of sessions with a configurable
//!   capacity, graph-epoch invalidation, and workspace recycling:
//!   evicted ST sessions donate their warm [`DijkstraWorkspace`] to
//!   successor sessions.
//!
//! Epoch validation is **delta-aware**: when the graph's mutation since
//! the store's epoch is a weight-only delta covered by the
//! [`Graph::delta_since`] ledger, each session is checked individually —
//! one whose touched-edge fingerprint is disjoint from the delta (and
//! whose Eq. 1 anchor is provably unmoved) absorbs the delta in place
//! and **survives**, bit-identical to a rebuilt session; the rest are
//! dropped. Structural mutations (or a broken delta chain) still drop
//! everything. The split is observable via
//! [`SessionStore::invalidated_structural`] /
//! [`SessionStore::invalidated_delta`] / [`SessionStore::survived_delta`].

use xsum_graph::{DijkstraWorkspace, FxHashMap, Graph, LoosePath, NodeId, WeightDeltaRec};

use crate::incremental::IncrementalSteiner;
use crate::incremental_pcst::IncrementalPcst;
use crate::input::{Scenario, SummaryInput};
use crate::pcst::PcstConfig;
use crate::steiner::SteinerConfig;
use crate::summary::Summary;

/// Identity of one serving session: which user it belongs to and which
/// baseline recommender produced the explanation input it grows from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// The user (or focus entity) the session serves.
    pub user: u64,
    /// Label of the baseline input the session was seeded with (e.g.
    /// `"pgpr"`); summaries for the same user under different baselines
    /// are distinct sessions. The label stands in for the baseline
    /// *input* — callers must not reuse one label for materially
    /// different inputs of the same user. (Config changes are handled
    /// by the store itself: a lookup under a different
    /// `SteinerConfig`/`PcstConfig` replaces the stored session.)
    pub baseline: String,
}

impl SessionKey {
    /// Key for `user` under `baseline`.
    pub fn new(user: u64, baseline: impl Into<String>) -> Self {
        SessionKey {
            user,
            baseline: baseline.into(),
        }
    }

    /// Key identified by a graph node — the user/focus *node* the
    /// session's batch inputs are anchored at. Sessions keyed this way
    /// are guaranteed shard-coherent with the anchor's batch requests
    /// under [`HashRouter`](crate::shard::HashRouter), which routes
    /// both by the same node identity.
    pub fn for_node(node: NodeId, baseline: impl Into<String>) -> Self {
        Self::new(node.0 as u64, baseline)
    }
}

/// The two incremental growth strategies behind one session surface.
#[derive(Debug, Clone)]
enum SessionInner {
    Steiner(IncrementalSteiner),
    Pcst(IncrementalPcst),
}

/// One user's live, growing summary (see module docs).
#[derive(Debug, Clone)]
pub struct EngineSession {
    inner: SessionInner,
}

impl EngineSession {
    /// A fresh ST session: Eq. 1 costs derived once from the baseline
    /// `input` (through the thread-local cost-model cache), terminals
    /// added later in rank order.
    pub fn steiner(g: &Graph, input: &SummaryInput, cfg: &SteinerConfig) -> Self {
        Self::steiner_with_workspace(g, input, cfg, DijkstraWorkspace::new())
    }

    /// [`EngineSession::steiner`] seeded with a recycled workspace.
    pub fn steiner_with_workspace(
        g: &Graph,
        input: &SummaryInput,
        cfg: &SteinerConfig,
        ws: DijkstraWorkspace,
    ) -> Self {
        EngineSession {
            inner: SessionInner::Steiner(IncrementalSteiner::with_workspace(g, input, cfg, ws)),
        }
    }

    /// A fresh PCST session (scope grows with each recommendation).
    pub fn pcst(scenario: Scenario, cfg: PcstConfig) -> Self {
        EngineSession {
            inner: SessionInner::Pcst(IncrementalPcst::new(scenario, cfg)),
        }
    }

    /// Attach one terminal (ST: cheapest path to the tree; PCST: prize
    /// raise + cheapest in-scope connection). Returns edges added.
    pub fn add_terminal(&mut self, g: &Graph, t: NodeId) -> usize {
        match &mut self.inner {
            SessionInner::Steiner(s) => s.add_terminal(g, t),
            SessionInner::Pcst(s) => s.add_terminal(g, t),
        }
    }

    /// Absorb one explained recommendation. For PCST the path extends
    /// the growth scope and both endpoints become terminals; for ST
    /// (whose costs are fixed by the baseline input) it attaches the
    /// path's endpoints as terminals.
    pub fn add_recommendation(&mut self, g: &Graph, path: &LoosePath) -> usize {
        match &mut self.inner {
            SessionInner::Steiner(s) => {
                s.add_terminal(g, path.source()) + s.add_terminal(g, path.target())
            }
            SessionInner::Pcst(s) => s.add_recommendation(g, path),
        }
    }

    /// The current summary snapshot.
    pub fn summary(&self) -> Summary {
        match &self.inner {
            SessionInner::Steiner(s) => s.summary(),
            SessionInner::Pcst(s) => s.summary(),
        }
    }

    /// Number of terminals attached so far.
    pub fn terminal_count(&self) -> usize {
        match &self.inner {
            SessionInner::Steiner(s) => s.terminal_count(),
            SessionInner::Pcst(s) => s.terminal_count(),
        }
    }

    /// Current summary size `|E_S|`.
    pub fn size(&self) -> usize {
        match &self.inner {
            SessionInner::Steiner(s) => s.size(),
            SessionInner::Pcst(s) => s.size(),
        }
    }

    /// Absorb a weight-only delta in place, or report `false` when the
    /// session must be rebuilt. ST sessions survive iff the delta is
    /// disjoint from their touched-edge fingerprint and keeps the Eq. 1
    /// anchor (see [`IncrementalSteiner::try_apply_weight_delta`]); PCST
    /// sessions grow by unit-cost BFS and never read weights, so they
    /// survive any weight-only delta unconditionally.
    pub(crate) fn try_apply_weight_delta(&mut self, touched: &[WeightDeltaRec]) -> bool {
        match &mut self.inner {
            SessionInner::Steiner(s) => s.try_apply_weight_delta(touched),
            SessionInner::Pcst(_) => true,
        }
    }

    /// Tear down, recovering the Dijkstra workspace of an ST session.
    fn harvest_workspace(self) -> Option<DijkstraWorkspace> {
        match self.inner {
            SessionInner::Steiner(s) => Some(s.into_workspace()),
            SessionInner::Pcst(_) => None,
        }
    }
}

/// LRU store of live [`EngineSession`]s keyed by [`SessionKey`].
///
/// Serves one graph at a time: every lookup first compares the graph's
/// mutation epoch against the epoch the stored sessions were built at,
/// and any difference drops them all (their cost tables and subgraphs
/// reference pre-mutation content). A `capacity` of `0` is the
/// degenerate **pass-through** store that retains nothing between
/// lookups — every access is a miss, nothing is ever addressable by
/// key afterwards ([`SessionStore::len`] stays 0), dropped pass-through
/// sessions are never counted as evictions and never donate their
/// workspaces — the correct serving behavior when session reuse is
/// disabled.
#[derive(Debug)]
pub struct SessionStore {
    capacity: usize,
    /// Epoch the stored sessions were built against.
    epoch: Option<u64>,
    /// O(1) keyed access; recency lives in each entry's `last_used`
    /// stamp (monotone `clock` ticks), so lookups never shift a vector.
    /// Eviction scans for the minimum stamp — O(n), but only on
    /// overflow, which is rare next to per-request lookups.
    entries: FxHashMap<SessionKey, StoredSession>,
    /// Capacity-0 landing slot: the one session a pass-through lookup
    /// just built, kept *only* so the returned borrow has somewhere to
    /// live. It is never resumed (the next lookup overwrites it), never
    /// addressable ([`SessionStore::contains`]/[`SessionStore::remove`]
    /// ignore it), and its workspace is dropped — not recycled — with
    /// it.
    passthrough: Option<EngineSession>,
    /// Monotone recency clock.
    clock: u64,
    /// Warm workspaces harvested from evicted/invalidated ST sessions.
    spares: Vec<DijkstraWorkspace>,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Sessions dropped because a structural mutation (or a delta chain
    /// the ledger no longer covers) moved the epoch.
    invalidated_structural: u64,
    /// Sessions dropped by a weight-only delta that overlapped their
    /// fingerprint or moved the Eq. 1 anchor.
    invalidated_delta: u64,
    /// Sessions that absorbed a weight-only delta in place and lived on.
    survived_delta: u64,
    /// Revalidation passes that dropped ≥ 1 session (event-shaped; see
    /// [`SessionStore::invalidations`]).
    invalidation_events: u64,
}

/// A stored session plus the exact config it was built under and its
/// recency stamp.
#[derive(Debug)]
struct StoredSession {
    config: SessionConfig,
    last_used: u64,
    session: EngineSession,
}

/// The exact configuration a session was created with. Compared — not
/// hashed — on lookup, so a session grown under different costs/prizes
/// can never be resumed by accident.
#[derive(Debug, Clone, Copy)]
enum SessionConfig {
    Steiner(SteinerConfig),
    Pcst(Scenario, PcstConfig),
}

/// Config equality is **bit-level** on the f64 parameters (λ/δ/prizes),
/// not IEEE `==`: under IEEE semantics a NaN-parameterized config would
/// never equal itself (every lookup replaces the session it just
/// built — a permanent self-mismatch), while `-0.0 == 0.0` would let a
/// session grown under one sign of zero resume under the other even
/// though the two configs are distinguishable bit patterns (and are
/// distinct keys in [`crate::steiner::CostModelKey`], which already
/// fingerprints via [`f64::to_bits`] — this keeps the two layers'
/// notions of "same config" aligned).
impl PartialEq for SessionConfig {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring on purpose: a field added to either
        // config struct fails to compile here instead of being silently
        // excluded from the fingerprint (which would resume sessions
        // across genuinely different configs).
        match (self, other) {
            (SessionConfig::Steiner(a), SessionConfig::Steiner(b)) => {
                let SteinerConfig { lambda, delta } = *a;
                let SteinerConfig {
                    lambda: lambda_b,
                    delta: delta_b,
                } = *b;
                (lambda.to_bits(), delta.to_bits()) == (lambda_b.to_bits(), delta_b.to_bits())
            }
            (SessionConfig::Pcst(sa, a), SessionConfig::Pcst(sb, b)) => {
                let PcstConfig {
                    terminal_prize,
                    nonterminal_prize,
                    use_edge_weights,
                    scope,
                    prune,
                } = *a;
                let PcstConfig {
                    terminal_prize: terminal_b,
                    nonterminal_prize: nonterminal_b,
                    use_edge_weights: use_edge_weights_b,
                    scope: scope_b,
                    prune: prune_b,
                } = *b;
                sa == sb
                    && terminal_prize.to_bits() == terminal_b.to_bits()
                    && nonterminal_prize.to_bits() == nonterminal_b.to_bits()
                    && use_edge_weights == use_edge_weights_b
                    && scope == scope_b
                    && prune == prune_b
            }
            _ => false,
        }
    }
}

/// Upper bound on retained spare workspaces (a workspace is a few
/// node-sized arrays; keeping a handful covers churn without pinning
/// memory proportional to eviction history).
const MAX_SPARE_WORKSPACES: usize = 16;

impl SessionStore {
    /// A store retaining at most `capacity` sessions.
    pub fn new(capacity: usize) -> Self {
        SessionStore {
            capacity,
            epoch: None,
            entries: FxHashMap::default(),
            passthrough: None,
            clock: 0,
            spares: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidated_structural: 0,
            invalidated_delta: 0,
            survived_delta: 0,
            invalidation_events: 0,
        }
    }

    /// Change the capacity, evicting LRU sessions if shrinking (a shrink
    /// to 0 evicts — and recycles — every retained session, then the
    /// store serves pass-through).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > self.capacity {
            self.evict_lru();
        }
        if capacity > 0 {
            // A leftover pass-through session is dropped outright — it
            // was never part of the retained population.
            self.passthrough = None;
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` has a live session (does not touch LRU order).
    pub fn contains(&self, key: &SessionKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Lookups served from a live session.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that built a fresh session.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Sessions dropped for capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Epoch-invalidation **events**: revalidation passes that dropped
    /// at least one session. A wholesale structural clear counts once,
    /// and so does a delta pass regardless of how many sessions it
    /// dropped — the historical counter, kept event-shaped so one
    /// mutation reads as one invalidation. Per-session magnitudes are
    /// in [`SessionStore::invalidated_structural`] /
    /// [`SessionStore::invalidated_delta`] /
    /// [`SessionStore::survived_delta`].
    pub fn invalidations(&self) -> u64 {
        self.invalidation_events
    }

    /// Sessions dropped because a structural mutation moved the epoch
    /// (or the delta ledger no longer covered the gap).
    pub fn invalidated_structural(&self) -> u64 {
        self.invalidated_structural
    }

    /// Sessions dropped by a weight-only delta that overlapped their
    /// touched-edge fingerprint or moved the Eq. 1 anchor.
    pub fn invalidated_delta(&self) -> u64 {
        self.invalidated_delta
    }

    /// Sessions that absorbed a weight-only delta in place and survived.
    pub fn survived_delta(&self) -> u64 {
        self.survived_delta
    }

    /// Drop every session (retained workspaces are recycled; a
    /// pass-through session is dropped without recycling).
    pub fn clear(&mut self) {
        self.passthrough = None;
        let drained: Vec<StoredSession> = self.entries.drain().map(|(_, e)| e).collect();
        for entry in drained {
            self.recycle(entry.session);
        }
    }

    /// Remove one session, returning it to the caller (its workspace is
    /// *not* recycled — the caller owns the session now). Pass-through
    /// sessions of a capacity-0 store are not addressable here.
    pub fn remove(&mut self, key: &SessionKey) -> Option<EngineSession> {
        self.entries.remove(key).map(|e| e.session)
    }

    /// The live ST session for `key`, creating it from `input`/`cfg` on
    /// miss (seeded with a recycled workspace when one is available).
    pub fn steiner_session(
        &mut self,
        g: &Graph,
        key: SessionKey,
        input: &SummaryInput,
        cfg: &SteinerConfig,
    ) -> &mut EngineSession {
        self.lookup(g, key, SessionConfig::Steiner(*cfg), |store| {
            let ws = store.spares.pop().unwrap_or_default();
            EngineSession::steiner_with_workspace(g, input, cfg, ws)
        })
    }

    /// The live PCST session for `key`, creating it on miss.
    pub fn pcst_session(
        &mut self,
        g: &Graph,
        key: SessionKey,
        scenario: Scenario,
        cfg: PcstConfig,
    ) -> &mut EngineSession {
        self.lookup(g, key, SessionConfig::Pcst(scenario, cfg), |_| {
            EngineSession::pcst(scenario, cfg)
        })
    }

    /// Shared lookup path: epoch validation → pass-through shortcut →
    /// keyed probe (a hit must also match the exact config — a session
    /// grown under different costs/prizes is replaced, not resumed) →
    /// miss construction with LRU pruning.
    ///
    /// Deliberately free of `unwrap`/`expect`: the hit path re-inserts
    /// the removed entry through the vacant-by-construction `entry`
    /// slot, so no access here can ever panic and surface a store bug
    /// as a serving-thread crash.
    fn lookup(
        &mut self,
        g: &Graph,
        key: SessionKey,
        config: SessionConfig,
        make: impl FnOnce(&mut Self) -> EngineSession,
    ) -> &mut EngineSession {
        self.validate_epoch(g);
        if self.capacity == 0 {
            // Pass-through: build, hand out, retain nothing addressable.
            // The previous pass-through session (if any) is dropped here
            // — not evicted, not workspace-harvested.
            self.misses += 1;
            let session = make(self);
            return self.passthrough.insert(session);
        }
        self.clock += 1;
        let stamp = self.clock;
        let stored = match self.entries.remove(&key) {
            Some(entry) if entry.config == config => {
                self.hits += 1;
                StoredSession {
                    last_used: stamp,
                    ..entry
                }
            }
            stale => {
                if let Some(entry) = stale {
                    // Same user/baseline, different config: the stored
                    // growth state reflects other costs — rebuild.
                    self.recycle(entry.session);
                }
                while self.entries.len() + 1 > self.capacity {
                    self.evict_lru();
                }
                self.misses += 1;
                StoredSession {
                    config,
                    last_used: stamp,
                    session: make(self),
                }
            }
        };
        &mut self.entries.entry(key).or_insert(stored).session
    }

    /// Reconcile the store with the graph's current epoch.
    ///
    /// No move: nothing to do. A weight-only move covered by the delta
    /// ledger: each session individually absorbs the delta
    /// ([`EngineSession::try_apply_weight_delta`], O(|delta|) per
    /// session) or is dropped. Anything else (structural mutation,
    /// truncated ledger): every session's derived costs and subgraphs
    /// are pre-mutation state — drop them all.
    fn validate_epoch(&mut self, g: &Graph) {
        let epoch = g.epoch();
        if self.epoch == Some(epoch) {
            return;
        }
        if !self.entries.is_empty() {
            match self.epoch.and_then(|e| g.delta_since(e)) {
                Some(touched) => {
                    let keys: Vec<SessionKey> = self.entries.keys().cloned().collect();
                    let mut dropped = false;
                    for k in keys {
                        let survives = self
                            .entries
                            .get_mut(&k)
                            .is_some_and(|e| e.session.try_apply_weight_delta(&touched));
                        if survives {
                            self.survived_delta += 1;
                        } else {
                            self.invalidated_delta += 1;
                            dropped = true;
                            if let Some(entry) = self.entries.remove(&k) {
                                self.recycle(entry.session);
                            }
                        }
                    }
                    if dropped {
                        self.invalidation_events += 1;
                    }
                }
                None => {
                    self.invalidated_structural += self.entries.len() as u64;
                    self.invalidation_events += 1;
                    self.clear();
                }
            }
        }
        self.epoch = Some(epoch);
    }

    fn evict_lru(&mut self) {
        let oldest = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(entry) = oldest.and_then(|k| self.entries.remove(&k)) {
            self.evictions += 1;
            self.recycle(entry.session);
        }
    }

    fn recycle(&mut self, session: EngineSession) {
        if self.spares.len() < MAX_SPARE_WORKSPACES {
            if let Some(ws) = session.harvest_workspace() {
                self.spares.push(ws);
            }
        }
    }

    /// The most-recent→least-recent ordering of live keys (MRU first) —
    /// exposed for tests and observability dashboards.
    pub fn keys_mru(&self) -> Vec<&SessionKey> {
        let mut pairs: Vec<(&SessionKey, u64)> =
            self.entries.iter().map(|(k, e)| (k, e.last_used)).collect();
        pairs.sort_unstable_by_key(|&(_, stamp)| std::cmp::Reverse(stamp));
        pairs.into_iter().map(|(k, _)| k).collect()
    }
}

/// The session summary for a growing user-centric request, one call:
/// look up (or start) the session, attach any new terminals, snapshot.
///
/// Convenience for the common serving shape — the engine's session
/// store equivalent of [`crate::incremental_series`].
pub fn session_summary(
    store: &mut SessionStore,
    g: &Graph,
    key: SessionKey,
    input: &SummaryInput,
    cfg: &SteinerConfig,
    terminals_in_rank_order: &[NodeId],
) -> Summary {
    let session = store.steiner_session(g, key, input, cfg);
    for &t in terminals_in_rank_order {
        session.add_terminal(g, t);
    }
    session.summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::table1_example;

    fn key(u: u64) -> SessionKey {
        SessionKey::new(u, "pgpr")
    }

    #[test]
    fn hit_resumes_the_same_session() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(4);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        s.add_terminal(&ex.graph, ex.user1);
        s.add_terminal(&ex.graph, ex.items[0]);
        let edges_before = s.size();
        assert!(edges_before > 0);
        // Same key later: the session resumes where it left off.
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!(s.size(), edges_before);
        assert_eq!(s.terminal_count(), 2);
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(2);
        store.steiner_session(&ex.graph, key(1), &input, &cfg);
        store.steiner_session(&ex.graph, key(2), &input, &cfg);
        // Touch 1 so 2 becomes the LRU.
        store.steiner_session(&ex.graph, key(1), &input, &cfg);
        store.steiner_session(&ex.graph, key(3), &input, &cfg);
        assert!(store.contains(&key(1)), "recently used survives");
        assert!(!store.contains(&key(2)), "LRU evicted");
        assert!(store.contains(&key(3)));
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.keys_mru()[0], &key(3));
    }

    #[test]
    fn capacity_zero_retains_nothing() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(0);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        s.add_terminal(&ex.graph, ex.user1);
        s.add_terminal(&ex.graph, ex.items[0]);
        assert!(s.size() > 0);
        // Same key again: never a hit, growth state gone.
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!(s.terminal_count(), 0, "capacity 0 rebuilds from scratch");
        assert_eq!(store.hits(), 0);
        assert_eq!(store.misses(), 2);
    }

    #[test]
    fn capacity_zero_is_a_true_pass_through() {
        // Satellite regression: a capacity-0 store must never retain a
        // session in its addressable population, never count the
        // dropped pass-through sessions as evictions, and never harvest
        // their workspaces into the spare pool.
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(0);
        for _ in 0..3 {
            let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
            assert_eq!(s.terminal_count(), 0, "never resumed");
            s.add_terminal(&ex.graph, ex.user1);
            s.add_terminal(&ex.graph, ex.items[0]);
            assert!(s.size() > 0, "the handed-out session is live");
        }
        assert_eq!(store.len(), 0, "nothing retained");
        assert!(store.is_empty());
        assert!(!store.contains(&key(1)), "pass-through is unaddressable");
        assert!(store.remove(&key(1)).is_none());
        assert_eq!((store.hits(), store.misses()), (0, 3));
        assert_eq!(store.evictions(), 0, "pass-through drops ≠ evictions");
        assert_eq!(store.spares.len(), 0, "stale workspaces never recycled");
    }

    #[test]
    fn shrinking_capacity_to_zero_switches_to_pass_through() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(4);
        for u in 1..=3 {
            let s = store.steiner_session(&ex.graph, key(u), &input, &cfg);
            s.add_terminal(&ex.graph, ex.user1);
        }
        assert_eq!(store.len(), 3);
        // The shrink itself is a genuine capacity eviction sweep …
        store.set_capacity(0);
        assert_eq!(store.len(), 0);
        assert_eq!(store.evictions(), 3);
        // … after which every lookup passes through without retention.
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!(s.terminal_count(), 0);
        assert_eq!(store.len(), 0);
        assert_eq!(store.evictions(), 3, "pass-through adds no evictions");
        // Growing the capacity again restores retention.
        store.set_capacity(2);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        s.add_terminal(&ex.graph, ex.user1);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!(s.terminal_count(), 1, "retention is back");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn epoch_change_invalidates_all_sessions() {
        let mut ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(4);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        s.add_terminal(&ex.graph, ex.user1);
        store.steiner_session(&ex.graph, key(2), &input, &cfg);
        assert_eq!(store.len(), 2);
        // Raising a weight to 9.0 moves the Eq. 1 anchor: even though
        // the mutation is weight-only, no session can absorb it.
        ex.graph.set_weight(xsum_graph::EdgeId(0), 9.0);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!(s.terminal_count(), 0, "post-mutation session is fresh");
        assert_eq!(store.invalidations(), 1, "one mutation, one event");
        assert_eq!(store.invalidated_delta(), 2, "both stale sessions dropped");
        assert_eq!(store.invalidated_structural(), 0);
        assert_eq!(store.len(), 1);
        // A structural mutation drops everything, counted separately.
        store.steiner_session(&ex.graph, key(2), &input, &cfg);
        let n = ex.graph.add_node(xsum_graph::NodeKind::Entity);
        ex.graph
            .add_edge(ex.user1, n, 1.0, xsum_graph::EdgeKind::Attribute);
        store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!(store.invalidated_structural(), 2);
        assert_eq!(store.invalidations(), 2, "two mutations, two events");
    }

    #[test]
    fn disjoint_weight_delta_lets_sessions_survive() {
        let mut ex = table1_example();
        // A far component edge no session will ever observe.
        let a = ex.graph.add_node(xsum_graph::NodeKind::Entity);
        let b = ex.graph.add_node(xsum_graph::NodeKind::Entity);
        let far = ex
            .graph
            .add_edge(a, b, 0.5, xsum_graph::EdgeKind::Attribute);
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(4);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        s.add_terminal(&ex.graph, ex.user1);
        s.add_terminal(&ex.graph, ex.items[0]);
        let grown = s.size();
        // A PCST session never reads weights: it always survives.
        store.pcst_session(
            &ex.graph,
            key(2),
            Scenario::UserCentric,
            PcstConfig::default(),
        );
        // Anchor-safe, disjoint delta: both sessions live on.
        ex.graph.apply_delta(&[(far, 0.75)]);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!(s.terminal_count(), 2, "ST session survived the delta");
        assert_eq!(s.size(), grown);
        assert_eq!(store.survived_delta(), 2);
        assert_eq!(store.invalidations(), 0);
        assert_eq!((store.hits(), store.misses()), (1, 2));
        // The survivor keeps growing exactly like a rebuilt session.
        let mut oracle = SessionStore::new(4);
        let o = oracle.steiner_session(&ex.graph, key(1), &input, &cfg);
        o.add_terminal(&ex.graph, ex.user1);
        o.add_terminal(&ex.graph, ex.items[0]);
        o.add_terminal(&ex.graph, ex.items[1]);
        let want = o.summary();
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        s.add_terminal(&ex.graph, ex.items[1]);
        let got = s.summary();
        assert_eq!(got.subgraph.sorted_edges(), want.subgraph.sorted_edges());
        assert_eq!(got.subgraph.sorted_nodes(), want.subgraph.sorted_nodes());
    }

    #[test]
    fn workspace_recycling_on_eviction() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(1);
        let s = store.steiner_session(&ex.graph, key(1), &input, &cfg);
        s.add_terminal(&ex.graph, ex.user1);
        s.add_terminal(&ex.graph, ex.items[0]);
        // key(2) evicts key(1); the evicted session's workspace is
        // available for the replacement.
        store.steiner_session(&ex.graph, key(2), &input, &cfg);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.spares.len(), 0, "spare immediately reused");
    }

    #[test]
    fn config_change_replaces_instead_of_resuming() {
        let ex = table1_example();
        let input = ex.input();
        let mut store = SessionStore::new(4);
        let a = SteinerConfig {
            lambda: 1.0,
            delta: 1.0,
        };
        let s = store.steiner_session(&ex.graph, key(1), &input, &a);
        s.add_terminal(&ex.graph, ex.user1);
        assert_eq!(s.terminal_count(), 1);
        // Same key, different λ: the λ=1 growth state must not be
        // resumed under λ=100 costs.
        let b = SteinerConfig {
            lambda: 100.0,
            delta: 1.0,
        };
        let s = store.steiner_session(&ex.graph, key(1), &input, &b);
        assert_eq!(s.terminal_count(), 0, "different config rebuilds");
        assert_eq!((store.hits(), store.misses()), (0, 2));
        assert_eq!(store.len(), 1, "replacement, not a second entry");
        // And the original config now misses too (it was replaced).
        let s = store.steiner_session(&ex.graph, key(1), &input, &a);
        assert_eq!(s.terminal_count(), 0);
        assert_eq!(store.misses(), 3);
    }

    #[test]
    fn nan_config_matches_its_own_fingerprint() {
        // Satellite regression: under derived (IEEE) f64 equality a NaN
        // λ never equals itself, so a NaN-configured session could never
        // be resumed — every lookup silently replaced the session it
        // built one call earlier. Bit-level fingerprinting must treat
        // the identical NaN bit pattern as the same config.
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig {
            lambda: f64::NAN,
            delta: 1.0,
        };
        let mut store = SessionStore::new(4);
        store.steiner_session(&ex.graph, key(1), &input, &cfg);
        store.steiner_session(&ex.graph, key(1), &input, &cfg);
        assert_eq!((store.hits(), store.misses()), (1, 1), "NaN config resumes");
        assert_eq!(store.len(), 1);
        // A *different* NaN bit pattern is a different config.
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        let cfg2 = SteinerConfig {
            lambda: other_nan,
            delta: 1.0,
        };
        store.steiner_session(&ex.graph, key(1), &input, &cfg2);
        assert_eq!((store.hits(), store.misses()), (1, 2));

        // Same for PCST prize params.
        let pc = PcstConfig {
            terminal_prize: f64::NAN,
            ..PcstConfig::default()
        };
        store.pcst_session(&ex.graph, key(2), Scenario::UserCentric, pc);
        store.pcst_session(&ex.graph, key(2), Scenario::UserCentric, pc);
        assert_eq!(store.hits(), 2, "NaN prize config resumes too");
    }

    #[test]
    fn signed_zero_configs_are_distinct() {
        // Satellite regression: IEEE `-0.0 == 0.0` would resume a
        // session grown under λ = 0.0 when looked up with λ = -0.0 —
        // two bit-distinct configs (and two distinct cost-model cache
        // keys, which already compare via to_bits). The store must
        // replace, not resume.
        let ex = table1_example();
        let input = ex.input();
        let mut store = SessionStore::new(4);
        let pos = SteinerConfig {
            lambda: 0.0,
            delta: 1.0,
        };
        let neg = SteinerConfig {
            lambda: -0.0,
            delta: 1.0,
        };
        let s = store.steiner_session(&ex.graph, key(1), &input, &pos);
        s.add_terminal(&ex.graph, ex.user1);
        let n = store.steiner_session(&ex.graph, key(1), &input, &neg);
        assert_eq!(
            n.terminal_count(),
            0,
            "-0.0 must not resume the 0.0 session"
        );
        assert_eq!((store.hits(), store.misses()), (0, 2));
        // And each sign still matches itself.
        store.steiner_session(&ex.graph, key(1), &input, &neg);
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn pcst_sessions_grow_monotonically() {
        let ex = table1_example();
        let mut store = SessionStore::new(4);
        let mut prev = 0usize;
        for p in &ex.paths {
            let s = store.pcst_session(
                &ex.graph,
                key(7),
                Scenario::UserCentric,
                PcstConfig::default(),
            );
            s.add_recommendation(&ex.graph, p);
            assert!(s.size() >= prev, "summary never shrinks");
            prev = s.size();
        }
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), ex.paths.len() as u64 - 1);
    }

    #[test]
    fn session_summary_helper_snapshots() {
        let ex = table1_example();
        let input = ex.input();
        let cfg = SteinerConfig::default();
        let mut store = SessionStore::new(4);
        let mut terminals = vec![ex.user1];
        terminals.extend_from_slice(&ex.items);
        let s = session_summary(&mut store, &ex.graph, key(1), &input, &cfg, &terminals);
        assert_eq!(s.terminal_coverage(), 1.0);
        assert!(s.subgraph.edge_count() >= 3);
    }
}
