//! Fig. 10/11 in miniature: how ST and PCST summarization times scale
//! with group size and graph size.
//!
//! ST runs |T| Dijkstra searches over the whole graph (`O(|T|(|E| +
//! |V| log |V|))`), so it degrades with both axes; PCST grows only the
//! explanation paths' own neighbourhood and stays nearly flat — the
//! paper's argument for using PCST on large groups. Each ST search
//! stops at a radius past which no pair can enter the MST, which trims
//! the constant but not the bound: the first search still runs to its
//! last terminal.
//!
//! ```text
//! cargo run --release --example scalability
//! ```

use std::time::Instant;

use xsum::core::{pcst_summary, steiner_summary, PcstConfig, SteinerConfig, SummaryInput};
use xsum::datasets::{random_explanation_path, scaling::scaling_graph_scaled, ScalingLevel};
use xsum::graph::LoosePath;

fn main() {
    println!("graph\tnodes\tedges\tgroup\tst_ms\tpcst_ms");
    for level in [ScalingLevel::G1, ScalingLevel::G3, ScalingLevel::G5] {
        let ds = scaling_graph_scaled(level, 3, 0.05);
        let g = &ds.kg.graph;
        for group_size in [5usize, 20, 60] {
            // k = 10 random 3-hop explanation paths per group member.
            let mut nodes = Vec::new();
            let mut paths: Vec<LoosePath> = Vec::new();
            for u in 0..group_size.min(ds.kg.n_users()) {
                let mut any = false;
                for i in 0..10u64 {
                    if let Some(p) = random_explanation_path(&ds, u, 3, (u as u64) << 8 | i, 30) {
                        paths.push(LoosePath::from_path(&p));
                        any = true;
                    }
                }
                if any {
                    nodes.push(ds.kg.user_node(u));
                }
            }
            if paths.is_empty() {
                continue;
            }
            let input = SummaryInput::user_group(&nodes, paths);

            let t = Instant::now();
            let st = steiner_summary(g, &input, &SteinerConfig::default());
            let st_ms = t.elapsed().as_secs_f64() * 1e3;

            let t = Instant::now();
            let pc = pcst_summary(g, &input, &PcstConfig::default());
            let pcst_ms = t.elapsed().as_secs_f64() * 1e3;

            println!(
                "{}\t{}\t{}\t{}\t{:.2}\t{:.2}",
                level.name(),
                g.node_count(),
                g.edge_count(),
                nodes.len(),
                st_ms,
                pcst_ms
            );
            let _ = (st, pc);
        }
    }
}
