//! Integration tests for the extension surface (DESIGN.md §5.1): prize
//! policies, fairness comparisons, subgraph extraction, ranking
//! evaluation, and the real-data loader — all driven through the public
//! `xsum` façade like a downstream user would.

use xsum::core::{
    pcst_summary_with_policy, steiner_summary, PcstConfig, PrizePolicy, SteinerConfig, SummaryInput,
};
use xsum::datasets::ml1m_scaled;
use xsum::graph::NodeKind;
use xsum::metrics::{fairness, ExplanationView};
use xsum::rec::{
    catalogue_coverage, evaluate, leave_last_out, MfConfig, MfModel, MostPop, PathRecommender,
    Pgpr, PgprConfig,
};

struct Setup {
    ds: xsum::datasets::Dataset,
    mf: MfModel,
}

fn setup() -> Setup {
    let ds = ml1m_scaled(51, 0.02);
    let mf = MfModel::train(&ds.kg, &ds.ratings, &MfConfig::default());
    Setup { ds, mf }
}

#[test]
fn prize_policies_cover_terminals_and_differ_in_label() {
    let s = setup();
    let g = &s.ds.kg.graph;
    let pgpr = Pgpr::new(&s.ds.kg, &s.ds.ratings, &s.mf, PgprConfig::default());
    let out = pgpr.recommend(0, 10);
    if out.is_empty() {
        return;
    }
    let input = SummaryInput::user_centric(s.ds.kg.user_node(0), out.paths(10));
    let labels: Vec<&str> = [
        PrizePolicy::Uniform,
        PrizePolicy::PathFrequency { weight: 1.0 },
        PrizePolicy::DegreeCentrality { weight: 1.0 },
    ]
    .into_iter()
    .map(|p| {
        let summary = pcst_summary_with_policy(g, &input, &PcstConfig::default(), p);
        assert_eq!(summary.terminal_coverage(), 1.0);
        summary.method
    })
    .collect();
    assert_eq!(labels, vec!["PCST", "PCST-freq", "PCST-degree"]);
}

#[test]
fn summary_extraction_is_self_contained() {
    let s = setup();
    let g = &s.ds.kg.graph;
    let pgpr = Pgpr::new(&s.ds.kg, &s.ds.ratings, &s.mf, PgprConfig::default());
    let out = pgpr.recommend(1, 8);
    if out.is_empty() {
        return;
    }
    let input = SummaryInput::user_centric(s.ds.kg.user_node(1), out.paths(8));
    let summary = steiner_summary(g, &input, &SteinerConfig::default());
    let (sub_g, map) = summary.subgraph.extract(g);
    assert_eq!(sub_g.node_count(), summary.subgraph.node_count());
    assert_eq!(sub_g.edge_count(), summary.subgraph.edge_count());
    // Kinds survive; the focus user is present.
    let focus = map[&s.ds.kg.user_node(1)];
    assert_eq!(sub_g.kind(focus), NodeKind::User);
    // Labels survive (renderable without the parent graph).
    assert_eq!(sub_g.label(focus), g.label(s.ds.kg.user_node(1)));
}

#[test]
fn fairness_report_over_gender_groups() {
    let s = setup();
    let g = &s.ds.kg.graph;
    let pgpr = Pgpr::new(&s.ds.kg, &s.ds.ratings, &s.mf, PgprConfig::default());
    let mut male = Vec::new();
    let mut female = Vec::new();
    for u in 0..s.ds.kg.n_users().min(20) {
        let out = pgpr.recommend(u, 8);
        if out.is_empty() {
            continue;
        }
        let input = SummaryInput::user_centric(s.ds.kg.user_node(u), out.paths(8));
        let summary = steiner_summary(g, &input, &SteinerConfig::default());
        let view = ExplanationView::from_subgraph(g, &summary.subgraph);
        match s.ds.genders[u] {
            xsum::datasets::Gender::Male => male.push(view),
            xsum::datasets::Gender::Female => female.push(view),
        }
    }
    let report = fairness(g, &[("male", male), ("female", female)], |r| {
        r.comprehensibility
    });
    assert!(report.gap >= 0.0);
    assert!((0.0..=1.0).contains(&report.disparity_ratio));
    assert!(!report.groups.is_empty());
}

#[test]
fn ranking_eval_personalized_beats_popularity() {
    let s = setup();
    let split = leave_last_out(&s.ds.ratings);
    let mf = MfModel::train(&s.ds.kg, &split.train, &MfConfig::default());
    let pgpr = Pgpr::new(&s.ds.kg, &split.train, &mf, PgprConfig::default());
    let mp = MostPop::new(&s.ds.kg, &split.train);
    let users: Vec<usize> = (0..40).collect();
    let r_pgpr = evaluate(&pgpr, &split, 10, Some(&users));
    let r_pop = evaluate(&mp, &split, 10, Some(&users));
    assert!(r_pgpr.evaluated_users > 10);
    assert!(r_pop.evaluated_users > 10);
    // Not a strict quality bar (tiny corpus), but both must be valid and
    // the personalized model must at least diversify more.
    let cov_pgpr = catalogue_coverage(&pgpr, s.ds.kg.n_items(), &users, 10);
    let cov_pop = catalogue_coverage(&mp, s.ds.kg.n_items(), &users, 10);
    assert!(cov_pgpr > cov_pop);
}

#[test]
fn loader_output_feeds_the_summarizer() {
    // Build a miniature "real" corpus through the MovieLens parser and
    // run the whole pipeline on it.
    use std::collections::BTreeMap;
    use xsum::datasets::io::{assemble, parse_ratings, parse_users};

    let ratings_txt = "\
1::10::5::100\n1::11::4::200\n1::12::5::300\n\
2::10::4::100\n2::13::5::150\n\
3::11::3::120\n3::13::4::180\n3::10::5::90\n";
    let users_txt = "1::F::1::1::0\n2::M::1::1::0\n3::M::1::1::0\n";
    let attrs = vec![(10u64, 100u64), (11, 100), (12, 101), (13, 101)];
    let ratings = parse_ratings(ratings_txt.as_bytes()).unwrap();
    let genders: BTreeMap<u64, xsum::datasets::Gender> = parse_users(users_txt.as_bytes()).unwrap();
    let ds = assemble("mini-real", &ratings, &genders, &attrs);

    let mf = MfModel::train(
        &ds.kg,
        &ds.ratings,
        &MfConfig {
            epochs: 10,
            ..MfConfig::default()
        },
    );
    let pgpr = Pgpr::new(&ds.kg, &ds.ratings, &mf, PgprConfig::default());
    let out = pgpr.recommend(0, 5);
    assert!(!out.is_empty(), "pipeline must run on loaded data");
    let input = SummaryInput::user_centric(ds.kg.user_node(0), out.paths(5));
    let summary = steiner_summary(&ds.kg.graph, &input, &SteinerConfig::default());
    assert_eq!(summary.terminal_coverage(), 1.0);
}
