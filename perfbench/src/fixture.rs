//! Workload fixtures: every graph and summary input the benchmark runs,
//! with the set-up split into the layers that do the work (dataset
//! generation, graph freeze, recommender paths).
//!
//! Each workload's dataset is fixed (generated from [`DATASET_SEED`], as
//! the paper runs on fixed corpora); `--seed` draws the users whose
//! explanations are summarized, and everything that follows from them
//! (their random walks on G5, the request tapes). Users are drawn
//! stratified by activity, one from each of as many equal strata, so
//! every seed's sample spans light and heavy users alike and the work
//! per summary differs little from seed to seed.

use std::time::Instant;

use xsum_core::SummaryInput;
use xsum_datasets::scaling::scaling_graph_scaled;
use xsum_datasets::{
    ml1m_scaled, popular_unpopular_items, random_explanation_path, Dataset, Gender, ScalingLevel,
};
use xsum_graph::{FxHashMap, Graph, LoosePath, NodeId};
use xsum_rec::{Cafe, CafeConfig, MfConfig, MfModel, PathRecommender, Pgpr, PgprConfig, RecOutput};

/// The benchmark's workloads (names as in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §V-A: ML1M-like KG, PGPR/CAFE top-10 paths, all four scenarios.
    ExplainMl1m,
    /// Table III G5 with Fig. 11 random 3-hop user-centric inputs.
    Table3G5,
    /// ML1M-like KG served over the wire protocol.
    ServeWire,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ExplainMl1m,
        Workload::Table3G5,
        Workload::ServeWire,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExplainMl1m => "explain_ml1m",
            Workload::Table3G5 => "table3_g5",
            Workload::ServeWire => "serve_wire",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Dataset scale (fraction of the paper's corpus or Table III graph).
    pub fn scale(self) -> f64 {
        match self {
            Workload::ExplainMl1m => 0.2,
            Workload::Table3G5 => 1.0,
            Workload::ServeWire => 0.05,
        }
    }

    /// Whether the workload's end-to-end run serves over the wire
    /// (otherwise it is a closed loop of engine batches).
    pub fn is_serving(self) -> bool {
        self == Workload::ServeWire
    }
}

/// The seed every workload's dataset is generated from.
pub const DATASET_SEED: u64 = 1;

/// Users sampled per gender for the ML1M-based workloads (the
/// experiment context's default).
const USERS_PER_GENDER: usize = 20;

/// Items sampled per popularity extreme.
const ITEMS_PER_EXTREME: usize = 10;
/// Recommendations (and explanation paths) per user.
const TOP_K: usize = 10;
/// Users with random 3-hop inputs on G5.
const G5_USERS: usize = 16;
/// Users pooled into the G5 user-group input the kernel replay times.
const G5_GROUP_USERS: usize = 4;

/// One labelled set of inputs of one scenario.
#[derive(Debug, Clone)]
pub struct Batch {
    /// `"<paths>/<scenario>"`, e.g. `"PGPR/user-group"`.
    pub label: String,
    /// Whether the inputs are group scenarios (user-group, item-group).
    pub group: bool,
    /// Whether the workload's end-to-end loop serves this batch (the
    /// others only feed the traced kernel replay).
    pub served: bool,
    /// The summary inputs.
    pub inputs: Vec<SummaryInput>,
}

/// Wall time of each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Synthetic corpus / scaling-graph generation (s).
    pub generate_s: f64,
    /// Explanation paths: MF training plus PGPR/CAFE decoding, or the
    /// random 3-hop walks on G5 (s).
    pub paths_s: f64,
    /// CSR freeze of the generated graph (ms).
    pub freeze_ms: f64,
}

/// Everything a workload runs on.
pub struct Fixture {
    /// The graph every input refers to (frozen).
    pub graph: Graph,
    /// The workload's inputs, by scenario.
    pub batches: Vec<Batch>,
    /// Set-up timings.
    pub times: SetupTimes,
}

impl Fixture {
    /// Build `workload`'s fixture from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Fixture {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let ds = match workload {
            Workload::Table3G5 => {
                scaling_graph_scaled(ScalingLevel::G5, DATASET_SEED, workload.scale())
            }
            _ => ml1m_scaled(DATASET_SEED, workload.scale()),
        };
        times.generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        ds.kg.graph.freeze();
        times.freeze_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let batches = match workload {
            Workload::Table3G5 => g5_batches(&ds, seed),
            Workload::ExplainMl1m => ml1m_batches(
                &ds,
                seed,
                &["user-centric", "item-centric", "user-group", "item-group"],
            ),
            Workload::ServeWire => ml1m_batches(&ds, seed, &["user-centric", "item-centric"]),
        };
        times.paths_s = t.elapsed().as_secs_f64();
        Fixture {
            graph: ds.kg.graph,
            batches,
            times,
        }
    }

    /// One line per batch: label, input count and terminal-count range.
    pub fn describe(&self) -> String {
        self.batches
            .iter()
            .map(|b| {
                let t = b.inputs.iter().map(SummaryInput::terminal_count);
                format!(
                    "{} {}{} |T| {}-{}",
                    b.label,
                    b.inputs.len(),
                    if b.served {
                        ""
                    } else {
                        " (kernel replay only)"
                    },
                    t.clone().min().unwrap_or(0),
                    t.max().unwrap_or(0)
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Inputs the end-to-end loop serves, in batch order.
    pub fn served_inputs(&self) -> Vec<SummaryInput> {
        self.batches
            .iter()
            .filter(|b| b.served)
            .flat_map(|b| b.inputs.iter().cloned())
            .collect()
    }
}

/// §V-A inputs: PGPR and CAFE top-10 paths for a gender-balanced user
/// sample, as the four scenarios. `served` names the scenarios the
/// end-to-end loop runs; the others are built for the kernel replay.
fn ml1m_batches(ds: &Dataset, seed: u64, served: &[&str]) -> Vec<Batch> {
    let mf = MfModel::train(
        &ds.kg,
        &ds.ratings,
        &MfConfig {
            seed: DATASET_SEED ^ 0xAB,
            ..MfConfig::default()
        },
    );
    let mut rng = seed ^ 0x05E7_5A3E;
    let mut users: Vec<usize> = [Gender::Male, Gender::Female]
        .into_iter()
        .flat_map(|gender| {
            let pool = (0..ds.kg.n_users()).filter(|&u| ds.genders[u] == gender);
            stratified_users(ds, pool.collect(), USERS_PER_GENDER, &mut rng)
        })
        .collect();
    users.sort_unstable();
    let (popular, unpopular) = popular_unpopular_items(&ds.ratings, ITEMS_PER_EXTREME);
    let mut batches = Vec::new();
    for paths_from in ["PGPR", "CAFE"] {
        let outputs: Vec<RecOutput> = if paths_from == "PGPR" {
            let rec = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
            users.iter().map(|&u| rec.recommend(u, TOP_K)).collect()
        } else {
            let rec = Cafe::new(&ds.kg, &ds.ratings, &mf, CafeConfig::default());
            users.iter().map(|&u| rec.recommend(u, TOP_K)).collect()
        };
        let scenarios = [
            ("user-centric", false, user_centric(ds, &users, &outputs)),
            (
                "item-centric",
                false,
                item_centric(ds, &outputs, &popular, &unpopular),
            ),
            ("user-group", true, user_groups(ds, &users, &outputs)),
            (
                "item-group",
                true,
                item_groups(ds, &outputs, &popular, &unpopular),
            ),
        ];
        for (scenario, group, inputs) in scenarios {
            if !inputs.is_empty() {
                batches.push(Batch {
                    label: format!("{paths_from}/{scenario}"),
                    group,
                    served: served.contains(&scenario),
                    inputs,
                });
            }
        }
    }
    batches
}

fn user_centric(ds: &Dataset, users: &[usize], outputs: &[RecOutput]) -> Vec<SummaryInput> {
    users
        .iter()
        .zip(outputs)
        .filter(|(_, out)| !out.is_empty())
        .map(|(&u, out)| SummaryInput::user_centric(ds.kg.user_node(u), out.paths(TOP_K)))
        .collect()
}

fn item_centric(
    ds: &Dataset,
    outputs: &[RecOutput],
    popular: &[usize],
    unpopular: &[usize],
) -> Vec<SummaryInput> {
    let mut per_item: FxHashMap<NodeId, Vec<LoosePath>> = FxHashMap::default();
    for out in outputs {
        for r in out.top_k(TOP_K) {
            per_item.entry(r.item).or_default().push(r.path.clone());
        }
    }
    let mut items: Vec<usize> = popular.iter().chain(unpopular).copied().collect();
    items.sort_unstable();
    items.dedup();
    items
        .into_iter()
        .filter_map(|i| {
            let node = ds.kg.item_node(i);
            per_item
                .get(&node)
                .map(|paths| SummaryInput::item_centric(node, paths.clone()))
        })
        .collect()
}

fn user_groups(ds: &Dataset, users: &[usize], outputs: &[RecOutput]) -> Vec<SummaryInput> {
    [Gender::Male, Gender::Female]
        .into_iter()
        .filter_map(|gender| {
            let mut nodes = Vec::new();
            let mut paths = Vec::new();
            for (&u, out) in users.iter().zip(outputs) {
                if ds.genders[u] == gender {
                    nodes.push(ds.kg.user_node(u));
                    paths.extend(out.paths(TOP_K));
                }
            }
            (!paths.is_empty()).then(|| SummaryInput::user_group(&nodes, paths))
        })
        .collect()
}

fn item_groups(
    ds: &Dataset,
    outputs: &[RecOutput],
    popular: &[usize],
    unpopular: &[usize],
) -> Vec<SummaryInput> {
    [popular, unpopular]
        .into_iter()
        .filter_map(|items| {
            let set: std::collections::HashSet<NodeId> =
                items.iter().map(|&i| ds.kg.item_node(i)).collect();
            let paths: Vec<LoosePath> = outputs
                .iter()
                .flat_map(|out| out.top_k(TOP_K))
                .filter(|r| set.contains(&r.item))
                .map(|r| r.path.clone())
                .collect();
            if paths.is_empty() {
                return None;
            }
            let mut present: Vec<NodeId> = paths.iter().map(|p| p.target()).collect();
            present.sort_unstable();
            present.dedup();
            Some(SummaryInput::item_group(&present, paths))
        })
        .collect()
}

/// Fig. 11 inputs on G5: ten random 3-hop user→item walks per user as
/// user-centric inputs (served), plus one user-group input pooling the
/// first users' walks (kernel replay only).
fn g5_batches(ds: &Dataset, seed: u64) -> Vec<Batch> {
    let walks = |u: usize| -> Vec<LoosePath> {
        (0..TOP_K)
            .filter_map(|i| {
                random_explanation_path(ds, u, 3, seed ^ ((u as u64) << 8) ^ i as u64, 30)
            })
            .map(|p| LoosePath::from_path(&p))
            .collect()
    };
    let mut rng = seed ^ 0x0065_A3E5;
    let users = stratified_users(ds, (0..ds.kg.n_users()).collect(), G5_USERS, &mut rng);
    let per_user: Vec<(NodeId, Vec<LoosePath>)> = users
        .into_iter()
        .map(|u| (ds.kg.user_node(u), walks(u)))
        .filter(|(_, paths)| !paths.is_empty())
        .collect();
    let centric: Vec<SummaryInput> = per_user
        .iter()
        .map(|(u, paths)| SummaryInput::user_centric(*u, paths.clone()))
        .collect();
    let pooled = &per_user[..G5_GROUP_USERS.min(per_user.len())];
    let nodes: Vec<NodeId> = pooled.iter().map(|(u, _)| *u).collect();
    let paths: Vec<LoosePath> = pooled.iter().flat_map(|(_, p)| p.iter().cloned()).collect();
    vec![
        Batch {
            label: "random/user-centric".to_string(),
            group: false,
            served: true,
            inputs: centric,
        },
        Batch {
            label: "random/user-group".to_string(),
            group: true,
            served: false,
            inputs: vec![SummaryInput::user_group(&nodes, paths)],
        },
    ]
}

/// `n` users of `pool` drawn with `rng`: the pool sorted by how many
/// items each user rated, cut into `n` equal strata, and one user drawn
/// at random from each.
fn stratified_users(ds: &Dataset, mut pool: Vec<usize>, n: usize, rng: &mut u64) -> Vec<usize> {
    pool.sort_by_key(|&u| (ds.ratings.user_interactions(u).len(), u));
    let n = n.min(pool.len());
    (0..n)
        .map(|j| {
            let (lo, hi) = (j * pool.len() / n, (j + 1) * pool.len() / n);
            pool[lo + (crate::batch::splitmix(rng) % (hi - lo) as u64) as usize]
        })
        .collect()
}
